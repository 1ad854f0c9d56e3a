//! The connection engine under the daemon ([`crate::server`]) and the
//! shard front-end ([`crate::shard`]): everything either does with a
//! client socket.
//!
//! A front-end plugs in through [`Handler`], which has two entry points:
//! an NDJSON line, answered before the next line is read, and a `frame1`
//! request, answered later through a tagged [`Reply`]. The engine owns
//! the rest: bind, shutdown and the accept loop ([`Engine`],
//! [`accept_loop`]); one line loop for TCP, stdio and in-memory readers;
//! one `frame1` loop; one frame-reply writer thread; and one chaotic
//! writer for both framings. Because both front-ends answer unframeable
//! input here, they answer it with the same bytes. Wire rules:
//! `SERVER.md`.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::dto::UpgradeAck;
use crate::faults::{FaultAction, FaultDecision, FaultInjector, ReadFaultAction};
use crate::frame::{write_frame, FrameDecoder, FRAME_HEADER, MAX_FRAME_PAYLOAD};
use crate::server::{read_poll, upgrade_request};
use crate::{ErrorKind, LeqaError};

/// The longest NDJSON line accepted, newline excluded: the `frame1`
/// payload cap, so neither framing lets a client grow a buffer without
/// bound.
const MAX_LINE: usize = MAX_FRAME_PAYLOAD as usize;

/// What a front-end does with requests; the engine does the rest.
pub(crate) trait Handler: Clone + Send + Sync + 'static {
    /// Per-connection state: opened with the connection, dropped when
    /// it closes.
    type Conn;

    /// Name of the connection threads.
    const THREAD: &'static str;

    /// The transport state this front-end's connections share.
    fn engine(&self) -> &Engine;

    /// Opens the state of one new connection.
    fn open(&self) -> Self::Conn;

    /// Answers one non-blank, trimmed NDJSON line.
    fn line(&self, conn: &Self::Conn, line: &str) -> String;

    /// Takes one `frame1` request; its answer goes to `reply`, now or
    /// later, from any thread.
    fn frame(&self, conn: &Self::Conn, tag: u32, text: String, reply: Reply);

    /// Encodes an error frame (and counts it, where the front-end counts
    /// errors).
    fn error_reply(&self, error: LeqaError) -> String;

    /// The refusal for a new connection while `open` connections are
    /// being served, or `None` to serve it.
    fn refusal(&self, _open: usize) -> Option<String> {
        None
    }
}

/// Transport state shared by every connection of one front-end: the
/// shutdown flag and its loopback wake, the read-poll period, the
/// optional fault injector, and the transport counters.
#[derive(Debug, Default)]
pub(crate) struct Engine {
    shutdown: AtomicBool,
    /// Set by [`bind`](Self::bind); [`shutdown`](Self::shutdown) pokes
    /// it with a loopback connection so a blocked `accept` wakes.
    wake_addr: Mutex<Option<SocketAddr>>,
    /// Read-poll period, ms (`0` = the default).
    pub(crate) read_poll_ms: AtomicU64,
    /// Opt-in fault injection, applied on TCP connections only.
    pub(crate) faults: Option<FaultInjector>,
    pub(crate) connections: AtomicU64,
    pub(crate) active_connections: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    /// Protocol lines and frames processed.
    pub(crate) ticks: AtomicU64,
}

impl Engine {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Sets the shutdown flag and wakes a blocked accept loop, which
    /// re-checks the flag before serving whatever it accepted.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let wake = *self.wake_addr.lock().expect("no poisoning");
        if let Some(addr) = wake {
            let _ = TcpStream::connect_timeout(&addr, self.read_poll());
        }
    }

    pub(crate) fn read_poll(&self) -> Duration {
        read_poll(self.read_poll_ms.load(Ordering::Acquire))
    }

    /// Binds a listener (port `0` lets the OS pick) and records it as
    /// the shutdown wake address.
    pub(crate) fn bind(&self, addr: &str) -> Result<(TcpListener, SocketAddr), LeqaError> {
        let listener = TcpListener::bind(addr)
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("binding `{addr}`")))?;
        let local = listener.local_addr().map_err(LeqaError::from)?;
        *self.wake_addr.lock().expect("no poisoning") = Some(local);
        Ok((listener, local))
    }

    fn count_in(&self, bytes: usize) {
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn open_connection(&self) -> ConnectionGuard<'_> {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.active_connections.fetch_add(1, Ordering::AcqRel);
        ConnectionGuard(&self.active_connections)
    }
}

/// Holds one `active_connections` slot until the connection closes.
struct ConnectionGuard<'a>(&'a AtomicU64);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accepts and serves connections until shutdown, one thread each, then
/// joins them all (draining their in-flight requests). A client that
/// reset or aborted before `accept` is skipped; any other accept error
/// (fd-limit pressure) backs off for one read-poll period.
///
/// # Errors
///
/// [`ErrorKind::Io`] when a connection thread cannot be spawned.
pub(crate) fn accept_loop<H: Handler>(handler: &H, listener: TcpListener) -> Result<(), LeqaError> {
    let engine = handler.engine();
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if engine.is_shutting_down() {
            break; // the wake-up connection (or a late client): drop it.
        }
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) if is_tick(&e) || is_reset(&e) => continue,
            Err(_) => {
                std::thread::sleep(engine.read_poll());
                continue;
            }
        };
        threads.retain(|t| !t.is_finished());
        if let Some(refusal) = handler.refusal(threads.len()) {
            let _ = write_reply(engine, None, &mut stream, None, refusal);
            continue;
        }
        let handler = handler.clone();
        let thread = std::thread::Builder::new()
            .name(H::THREAD.to_string())
            .spawn(move || {
                let _ = serve_tcp(&handler, stream);
            })
            .map_err(LeqaError::from)?;
        threads.push(thread);
    }
    drop(listener); // refuse new connections while draining
    for thread in threads {
        let _ = thread.join();
    }
    Ok(())
}

/// Serves one stdio or in-memory connection: NDJSON lines only, with no
/// upgrade and no chaos, until EOF, shutdown or an unframeable line.
pub(crate) fn serve_stream<H: Handler>(
    handler: &H,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
) -> io::Result<()> {
    let _guard = handler.engine().open_connection();
    let conn = handler.open();
    serve_lines(handler, &conn, reader, writer, false).map(drop)
}

/// Serves one TCP connection: NDJSON lines, then `frame1` frames after
/// an upgrade. Reads time out every read-poll period so an idle
/// connection still sees shutdown.
fn serve_tcp<H: Handler>(handler: &H, stream: TcpStream) -> io::Result<()> {
    let engine = handler.engine();
    let _guard = engine.open_connection();
    stream.set_read_timeout(Some(engine.read_poll()))?;
    // Replies are small and written whole; without NODELAY, Nagle plus
    // delayed ACK adds tens of ms to every round trip.
    stream.set_nodelay(true)?;
    let conn = handler.open();
    let mut reader = BufReader::new(stream.try_clone()?);
    if serve_lines(handler, &conn, &mut reader, &mut &stream, true)? {
        // Bytes the client sent right after its upgrade line are already
        // in the line reader's buffer.
        serve_frames(handler, &conn, stream, reader.buffer())?;
    }
    Ok(())
}

/// Whether an I/O error is a read-poll tick rather than a failure.
pub(crate) fn is_tick(e: &io::Error) -> bool {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// Whether an accept failed only because the client gave up first.
fn is_reset(e: &io::Error) -> bool {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset};
    matches!(e.kind(), ConnectionAborted | ConnectionReset)
}

fn not_utf8() -> LeqaError {
    LeqaError::new(ErrorKind::Json, "frame is not valid UTF-8")
}

/// The line loop. Lines are read as raw bytes, so a read that times out
/// partway through a line, even inside a UTF-8 character, loses nothing;
/// UTF-8 is checked once per whole line, and each line is answered
/// before the next is read. On TCP (`tcp`) read chaos applies, and an
/// upgrade line ends the loop with `Ok(true)` once its ack is written.
/// Otherwise the loop ends with `Ok(false)` at EOF, at shutdown, or after
/// refusing a line that cannot be framed (over the cap, or not UTF-8),
/// which closes the connection.
fn serve_lines<H: Handler>(
    handler: &H,
    conn: &H::Conn,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
    tcp: bool,
) -> io::Result<bool> {
    let engine = handler.engine();
    let faults = if tcp { engine.faults.as_ref() } else { None };
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One whole line, or the unterminated tail before EOF. The limit
        // stops at one byte past the cap, so an endless line is caught.
        loop {
            let limit = (MAX_LINE + 1 - buf.len()) as u64;
            match (&mut *reader).take(limit).read_until(b'\n', &mut buf) {
                Ok(0) if buf.is_empty() => return Ok(false), // EOF: the client hung up.
                Ok(_) => break,
                Err(e) if is_tick(&e) => {
                    if engine.is_shutting_down() {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        engine.count_in(buf.len());
        if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
            let cap = LeqaError::new(
                ErrorKind::Json,
                format!("line exceeds the {MAX_FRAME_PAYLOAD}-byte cap"),
            );
            return refuse(handler, writer, cap);
        }
        // Read chaos strikes a valid line before it is interpreted at all
        // (an upgrade line can be hit like any other).
        let action = match faults {
            Some(f) if std::str::from_utf8(&buf).is_ok() => f.next_read_decision(),
            _ => ReadFaultAction::Deliver,
        };
        match action {
            ReadFaultAction::Deliver => {}
            // The request is lost mid-read: close without a reply, as a
            // peer crash would look.
            ReadFaultAction::DropRequest => return Ok(false),
            ReadFaultAction::Truncate => {
                // A torn read: only a prefix arrived, the rest died with
                // the peer. A torn JSON document cannot parse, so a
                // non-blank prefix gets a `json` error frame.
                let text = std::str::from_utf8(&buf).expect("checked before the draw");
                let mut cut = text.len() / 2;
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                let torn = text[..cut].trim();
                if !torn.is_empty() {
                    write_reply(engine, None, writer, None, handler.line(conn, torn))?;
                }
                return Ok(false);
            }
            // Usually leaves invalid UTF-8; a non-ASCII byte flipped back
            // into ASCII is still a garbled line, answered like any other.
            ReadFaultAction::FlipByte(at) => flip_byte(&mut buf, at),
        }
        let Ok(text) = std::str::from_utf8(&buf) else {
            return refuse(handler, writer, not_utf8());
        };
        if tcp {
            if let Some(proto) = upgrade_request(text) {
                engine.ticks.fetch_add(1, Ordering::Relaxed);
                let ack = UpgradeAck { proto }.to_json().encode();
                write_reply(engine, None, writer, None, ack)?;
                return Ok(true);
            }
        }
        let text = text.trim();
        if !text.is_empty() {
            let reply = handler.line(conn, text);
            if !write_reply(engine, faults, writer, None, reply)? {
                return Ok(false);
            }
        }
        if engine.is_shutting_down() {
            return Ok(false);
        }
    }
}

/// Answers input that can no longer be framed with one error frame;
/// the connection then closes.
fn refuse<H: Handler>(handler: &H, writer: &mut dyn Write, error: LeqaError) -> io::Result<bool> {
    let reply = handler.error_reply(error);
    write_reply(handler.engine(), None, writer, None, reply)?;
    Ok(false)
}

/// One reply on its way to the frame writer (or to a
/// [`rendezvous`](Reply::rendezvous)).
pub(crate) struct Outgoing {
    tag: u32,
    pub(crate) reply: String,
    /// Whether the reply answers a request whose tag is in flight
    /// (`false` for refusals of frames that never entered the set).
    completes: bool,
}

/// The one reply a request is owed (a `frame1` request's, or a
/// [`rendezvous`](Reply::rendezvous)'s); send it from any thread.
pub(crate) struct Reply {
    tag: u32,
    tx: mpsc::Sender<Outgoing>,
}

impl Reply {
    /// A reply that another thread waits for on the receiver, for a
    /// request that did not come from a frame loop.
    pub(crate) fn rendezvous(tag: u32) -> (Reply, mpsc::Receiver<Outgoing>) {
        let (tx, rx) = mpsc::channel();
        (Reply { tag, tx }, rx)
    }

    pub(crate) fn send(self, reply: String) {
        // Fails only once the writer is gone along with the client.
        let _ = self.tx.send(Outgoing {
            tag: self.tag,
            reply,
            completes: true,
        });
    }
}

/// The tags of one connection's requests that have no reply written yet.
type InFlight = Arc<Mutex<HashSet<u32>>>;

/// The `frame1` loop of one upgraded connection. This thread decodes
/// frames and hands each to the handler without waiting for it; the
/// writer thread writes replies as they complete, in any order.
/// `residual` holds bytes already read past the upgrade line.
fn serve_frames<H: Handler>(
    handler: &H,
    conn: &H::Conn,
    mut stream: TcpStream,
    residual: &[u8],
) -> io::Result<()> {
    let engine = handler.engine();
    let in_flight = InFlight::default();
    let (tx, rx) = mpsc::channel();
    let writer = spawn_writer(
        handler.clone(),
        stream.try_clone()?,
        rx,
        Arc::clone(&in_flight),
    )?;
    let mut decoder = FrameDecoder::new();
    engine.count_in(residual.len());
    decoder.push(residual);
    let mut buf = [0u8; 16 * 1024];
    let result = loop {
        let violation = loop {
            match decoder.next() {
                Ok(Some((tag, payload))) => dispatch(handler, conn, &tx, &in_flight, tag, payload),
                Ok(None) => break None,
                Err(fe) => break Some(fe),
            }
        };
        if let Some(fe) = violation {
            // An oversized length: answer on the offending tag and close,
            // since the stream position can no longer be trusted.
            refuse_frame(handler, &tx, fe.tag, fe.error);
            break Ok(());
        }
        if engine.is_shutting_down() {
            break Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                if let Err(fe) = decoder.finish() {
                    refuse_frame(handler, &tx, fe.tag, fe.error);
                }
                break Ok(());
            }
            Ok(n) => {
                engine.count_in(n);
                decoder.push(&buf[..n]);
            }
            Err(e) if is_tick(&e) => {}
            Err(e) => break Err(e),
        }
    };
    // Requests still running hold `Reply` senders; the writer exits once
    // the last reply is written (or the client is gone), so joining it
    // drains this connection.
    drop(tx);
    let _ = writer.join();
    result
}

/// Checks one decoded frame and hands it to the handler. A tag enters
/// the in-flight set here and leaves just before its reply is written,
/// so a client may reuse a tag as soon as it has the reply.
fn dispatch<H: Handler>(
    handler: &H,
    conn: &H::Conn,
    tx: &mpsc::Sender<Outgoing>,
    in_flight: &Mutex<HashSet<u32>>,
    tag: u32,
    payload: Vec<u8>,
) {
    handler.engine().ticks.fetch_add(1, Ordering::Relaxed);
    if !in_flight.lock().expect("no poisoning").insert(tag) {
        // Its reply could not be told apart from the first request's.
        let message = format!("tag {tag} is already in flight on this connection");
        let error = LeqaError::new(ErrorKind::Json, message);
        return refuse_frame(handler, tx, Some(tag), error);
    }
    let reply = Reply {
        tag,
        tx: tx.clone(),
    };
    match String::from_utf8(payload) {
        Ok(text) => handler.frame(conn, tag, text, reply),
        Err(_) => reply.send(handler.error_reply(not_utf8())),
    }
}

/// Answers a frame that never entered the in-flight set on its tag (0
/// when its header never arrived).
fn refuse_frame<H: Handler>(
    handler: &H,
    tx: &mpsc::Sender<Outgoing>,
    tag: Option<u32>,
    error: LeqaError,
) {
    let _ = tx.send(Outgoing {
        tag: tag.unwrap_or(0),
        reply: handler.error_reply(error),
        completes: false,
    });
}

/// The frame-reply writer: drains whatever replies are ready, writes
/// each through the chaotic writer, then flushes once.
fn spawn_writer<H: Handler>(
    handler: H,
    stream: TcpStream,
    rx: mpsc::Receiver<Outgoing>,
    in_flight: InFlight,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("leqa-frame-writer".to_string())
        .spawn(move || {
            let engine = handler.engine();
            let mut w = BufWriter::new(stream);
            while let Ok(first) = rx.recv() {
                let ready: Vec<Outgoing> = std::iter::once(first).chain(rx.try_iter()).collect();
                for out in ready {
                    if out.completes {
                        in_flight.lock().expect("no poisoning").remove(&out.tag);
                    }
                    match write_reply(
                        engine,
                        engine.faults.as_ref(),
                        &mut w,
                        Some(out.tag),
                        out.reply,
                    ) {
                        Ok(true) => {}
                        Ok(false) => {
                            // Chaos dropped, tore or killed: tear the
                            // socket down so the reader loop ends too.
                            let _ = w.flush();
                            let _ = w.get_ref().shutdown(Shutdown::Both);
                            return;
                        }
                        Err(_) => return, // the client is gone
                    }
                }
                if w.flush().is_err() {
                    return;
                }
            }
        })
}

/// Writes one reply, an NDJSON line (`tag` `None`) or a `frame1` frame,
/// through the fault injector, and counts the bytes written. Without an
/// injector, or on a `Deliver` decision, the reply goes out in one
/// write; a line is flushed at once, a frame when its batch is written.
/// Otherwise the decision may delay it, flip one payload byte,
/// swallow it, tear it (half the reply for a line, half the encoded
/// frame for a frame), or trade it for a shutdown of the whole
/// front-end. `Ok(false)` means the connection must close.
fn write_reply(
    engine: &Engine,
    faults: Option<&FaultInjector>,
    w: &mut dyn Write,
    tag: Option<u32>,
    reply: String,
) -> io::Result<bool> {
    let decision = faults.map_or_else(FaultDecision::deliver, |f| f.next_decision());
    if let Some(delay) = decision.delay {
        std::thread::sleep(delay);
    }
    let mut payload = reply.into_bytes();
    let torn = match decision.action {
        FaultAction::Deliver => false,
        FaultAction::FlipByte(at) => {
            flip_byte(&mut payload, at);
            false
        }
        FaultAction::Truncate => true,
        FaultAction::DropConnection => return Ok(false),
        FaultAction::KillReplica => {
            engine.shutdown();
            return Ok(false);
        }
    };
    let half_reply = payload.len() / 2;
    let wire = match tag {
        None => {
            payload.push(b'\n');
            payload
        }
        Some(tag) => {
            let mut wire = Vec::with_capacity(FRAME_HEADER + payload.len());
            write_frame(&mut wire, tag, &payload).map_err(|e| io::Error::other(e.to_string()))?;
            wire
        }
    };
    let len = match (torn, tag) {
        (false, _) => wire.len(),
        (true, None) => half_reply,
        (true, Some(_)) => wire.len() / 2,
    };
    w.write_all(&wire[..len])?;
    if torn || tag.is_none() {
        w.flush()?;
    }
    engine.bytes_out.fetch_add(len as u64, Ordering::Relaxed);
    Ok(!torn)
}

/// Flips the high bit of `bytes[at % len]`. On the protocol's ASCII
/// JSON this yields invalid UTF-8, so the corruption is always
/// *detectable* (it models line noise a checksum would catch, not a
/// silent digit swap no transport could recover from). Steers away from
/// producing `\n`, so a corrupted NDJSON line stays one garbled line.
fn flip_byte(bytes: &mut [u8], at: usize) {
    if bytes.is_empty() {
        return;
    }
    let i = at % bytes.len();
    bytes[i] ^= 0x80;
    if bytes[i] == b'\n' {
        bytes[i] ^= 0x01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimateRequest, ProgramSpec, Request, Server, Session};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Hands out one chunk per read and reports `WouldBlock` before each,
    /// as a socket with a read timeout does when a client pauses.
    struct Trickle {
        chunks: VecDeque<Vec<u8>>,
        blocked: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some(mut chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn script() -> Vec<String> {
        let estimate = |spec| {
            Request::Estimate(EstimateRequest::new(spec))
                .to_json()
                .encode()
        };
        vec![
            estimate(ProgramSpec::source("# café\n.qubits 2\ncnot 0 1\nh 0\n")),
            String::new(),
            "{oops".to_string(),
            estimate(ProgramSpec::bench("qft_8")),
            "  ".to_string(),
            estimate(ProgramSpec::bench("qft_8")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lines_split_anywhere_are_answered_whole(seed in 0u64..u64::MAX, cuts in 1usize..12) {
            let lines = script();
            let bytes: Vec<u8> = lines.iter().flat_map(|l| format!("{l}\n").into_bytes()).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut offsets: Vec<usize> = (0..cuts).map(|_| rng.gen_range(1..bytes.len())).collect();
            offsets.extend([0, bytes.len()]);
            offsets.sort_unstable();
            offsets.dedup();
            let chunks = offsets.windows(2).map(|w| bytes[w[0]..w[1]].to_vec()).collect();
            let mut reader = BufReader::new(Trickle { chunks, blocked: false });

            let server = Server::new(Session::builder().build().unwrap());
            let mut out = Vec::new();
            serve_stream(&server, &mut reader, &mut out).expect("ticks are not errors");

            let reference = Server::new(Session::builder().build().unwrap());
            let want: String = lines
                .iter()
                .filter_map(|line| reference.process_line(line))
                .map(|reply| reply + "\n")
                .collect();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }
}
