//! `leqa-client` — a minimal TCP client for the `leqa serve` daemon,
//! used by the CI smoke steps and handy for manual poking.
//!
//! ```text
//! leqa-client [FLAGS] ADDR [LINE ...]    # send each LINE, print each reply
//! leqa-client [FLAGS] ADDR -             # pipe stdin lines instead
//!
//! --frame           upgrade to the frame1 binary protocol (serial)
//! --pipeline DEPTH  frame1 with up to DEPTH requests in flight
//! --retries N       retry transient failures N times (default 4)
//! --deadline-ms MS  per-attempt reply deadline (default 0 = wait forever)
//! ```
//!
//! `--pipeline` implies `--frame`; replies may complete out of order on
//! the wire but are always printed in input order.
//!
//! Retries cover `overloaded` error frames and — in NDJSON mode, where
//! the client can reconnect and resend the one line it is waiting on —
//! transient transport failures too: connection resets, refused
//! connects (a daemon mid-restart), and expired `--deadline-ms` reply
//! deadlines. Backoff is `2^attempt` milliseconds
//! plus deterministic seeded jitter (SplitMix64 over the line index and
//! attempt — no wall-clock state, so retried traffic is replayable).
//! In frame mode a broken connection is fatal (the pipeline's in-flight
//! state is lost with it), but error-frame retries still apply.
//!
//! Exits 0 when every line got a success reply; exit code 3 (`io`) when
//! the connection fails beyond the retry budget; otherwise the worst
//! error-frame exit code seen after retries (e.g. 9 only when a request
//! stayed `overloaded` through every retry) — so shell pipelines can
//! branch on the taxonomy without parsing JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use leqa_api::{
    json, write_frame, ControlFrame, ErrorFrame, ErrorKind, FrameDecoder, FrameProto, UpgradeAck,
};
use leqa_fabric::SplitMix64;

struct Cli {
    addr: String,
    lines: Vec<String>,
    frame: bool,
    pipeline: usize,
    retries: u32,
    deadline_ms: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: leqa-client [--frame] [--pipeline DEPTH] [--retries N] [--deadline-ms MS] \
         ADDR [LINE ...] (or `-` to read lines from stdin)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        addr: String::new(),
        lines: Vec::new(),
        frame: false,
        pipeline: 1,
        retries: 4,
        deadline_ms: 0,
    };
    let mut it = args.into_iter();
    let mut positionals: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--frame" => cli.frame = true,
            "--pipeline" => {
                let Some(depth) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                if depth == 0 {
                    return usage();
                }
                cli.frame = true;
                cli.pipeline = depth;
            }
            "--retries" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return usage();
                };
                cli.retries = n;
            }
            "--deadline-ms" => {
                let Some(ms) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                cli.deadline_ms = ms;
            }
            _ => positionals.push(arg),
        }
    }
    let Some((addr, lines)) = positionals.split_first() else {
        return usage();
    };
    cli.addr = addr.clone();
    cli.lines = lines.to_vec();

    match run(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// The input lines, with `-` expanded to stdin and blanks dropped.
fn input_lines(lines: &[String]) -> std::io::Result<Vec<String>> {
    let raw: Vec<String> = if lines.len() == 1 && lines[0] == "-" {
        std::io::stdin().lock().lines().collect::<Result<_, _>>()?
    } else {
        lines.to_vec()
    };
    Ok(raw
        .into_iter()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
        .collect())
}

/// The error-frame exit code a reply carries, if it is an error frame;
/// also flags whether the kind is retryable (`overloaded`).
fn reply_error(reply: &str) -> Option<(u8, bool)> {
    let doc = json::parse(reply.trim_end()).ok()?;
    let frame = ErrorFrame::from_json(&doc).ok()?;
    let retryable = frame.error.kind() == ErrorKind::Overloaded;
    Some((frame.error.exit_code(), retryable))
}

/// Deterministic backoff: `2^attempt` milliseconds plus seeded jitter
/// drawn from SplitMix64 over (line index, attempt). No wall-clock
/// state crosses the wire, so retried traffic stays byte-identical and
/// replayable, while the jitter de-synchronizes clients that share a
/// fault window.
fn backoff(idx: usize, attempt: u32) -> Duration {
    let base = 1u64 << attempt.min(10);
    let word = ((idx as u64) << 32) | u64::from(attempt);
    let jitter = (SplitMix64::new(SplitMix64::mix(0x1ea4_c11e, word)).next_f64() * 4.0) as u64;
    Duration::from_millis(base + jitter)
}

/// Whether an I/O failure is worth a reconnect-and-retry: resets and
/// refusals (a daemon mid-restart), torn lines, corrupt (non-UTF-8)
/// replies, and expired reply deadlines.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::InvalidData
    )
}

fn run(cli: &Cli) -> std::io::Result<ExitCode> {
    let lines = input_lines(&cli.lines)?;
    if cli.frame {
        run_frames(
            &cli.addr,
            &lines,
            cli.pipeline,
            cli.retries,
            cli.deadline_ms,
        )
    } else {
        run_lines(&cli.addr, &lines, cli.retries, cli.deadline_ms)
    }
}

/// NDJSON mode: strict request/reply alternation, one line at a time,
/// reconnecting across transient transport failures.
fn run_lines(
    addr: &str,
    lines: &[String],
    retries: u32,
    deadline_ms: u64,
) -> std::io::Result<ExitCode> {
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut worst = 0u8;

    for (idx, line) in lines.iter().enumerate() {
        let mut attempt = 0u32;
        let reply = loop {
            match attempt_line(&mut conn, addr, line, deadline_ms) {
                Ok(reply) => match reply_error(&reply) {
                    Some((_, true)) if attempt < retries => {
                        std::thread::sleep(backoff(idx, attempt));
                        attempt += 1;
                    }
                    _ => break reply,
                },
                Err(e) if transient(&e) && attempt < retries => {
                    conn = None;
                    std::thread::sleep(backoff(idx, attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        print!("{reply}");
        if let Some((exit, _)) = reply_error(&reply) {
            worst = worst.max(exit);
        }
    }
    Ok(ExitCode::from(worst))
}

/// One NDJSON attempt: connect if needed, send the line, read one reply
/// line. With a deadline the socket polls in short ticks and the whole
/// read is bounded; an expired deadline surfaces as `TimedOut` (which
/// [`transient`] treats as retryable).
fn attempt_line(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: &str,
    line: &str,
    deadline_ms: u64,
) -> std::io::Result<String> {
    // Take the connection out; it only goes back once the attempt ends
    // with the stream in a reusable (reply-boundary) state.
    let mut reader = match conn.take() {
        Some(reader) => reader,
        None => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            if deadline_ms > 0 {
                stream.set_read_timeout(Some(Duration::from_millis(deadline_ms.clamp(1, 50))))?;
            }
            BufReader::new(stream)
        }
    };
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;

    if deadline_ms == 0 {
        let mut reply = String::new();
        // A line without its trailing newline is a torn reply (the
        // server died mid-write) — retryable, never printed.
        if reader.read_line(&mut reply)? == 0 || !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        *conn = Some(reader);
        return Ok(reply);
    }

    // Deadline-bounded byte-by-byte read: a `read_line` could lose a
    // partial line to the timeout error, desynchronizing the stream, so
    // the buffer is kept here and the connection dropped on expiry.
    let start = Instant::now();
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if start.elapsed() >= Duration::from_millis(deadline_ms) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("no reply within the {deadline_ms} ms deadline"),
            ));
        }
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ));
            }
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    let reply = String::from_utf8(bytes).map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "reply is not valid UTF-8",
                        )
                    })?;
                    *conn = Some(reader);
                    return Ok(reply);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `frame1` mode: upgrade, then keep up to `depth` tagged requests in
/// flight (the tag is the input-line index). Replies complete in any
/// order; printing follows input order.
fn run_frames(
    addr: &str,
    lines: &[String],
    depth: usize,
    retries: u32,
    deadline_ms: u64,
) -> std::io::Result<ExitCode> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if deadline_ms > 0 {
        stream.set_read_timeout(Some(Duration::from_millis(deadline_ms)))?;
    }
    let upgrade = ControlFrame::Upgrade(FrameProto::Frame1).to_json().encode();
    stream.write_all(upgrade.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let ack = read_ack_line(&mut stream)?;
    json::parse(ack.trim())
        .map_err(|e| std::io::Error::other(e.to_string()))
        .and_then(|doc| {
            UpgradeAck::from_json(&doc).map_err(|e| std::io::Error::other(e.to_string()))
        })?;

    let total = lines.len();
    let mut decoder = FrameDecoder::new();
    let mut results: Vec<Option<String>> = vec![None; total];
    let mut attempts: Vec<u32> = vec![0; total];
    let mut next_send = 0usize;
    let mut next_print = 0usize;
    let mut inflight = 0usize;
    let mut done = 0usize;
    let mut worst = 0u8;

    while done < total {
        while inflight < depth && next_send < total {
            send(&mut stream, next_send, lines)?;
            next_send += 1;
            inflight += 1;
        }
        stream.flush()?;
        let (tag, payload) = read_frame(&mut stream, &mut decoder)?;
        let idx = tag as usize;
        if idx >= total || results[idx].is_some() {
            return Err(std::io::Error::other(format!(
                "server replied with unknown tag {tag}"
            )));
        }
        let reply = String::from_utf8_lossy(&payload).into_owned();
        if let Some((_, true)) = reply_error(&reply) {
            if attempts[idx] < retries {
                std::thread::sleep(backoff(idx, attempts[idx]));
                attempts[idx] += 1;
                send(&mut stream, idx, lines)?;
                stream.flush()?;
                continue;
            }
        }
        results[idx] = Some(reply);
        inflight -= 1;
        done += 1;
        while next_print < total {
            let Some(reply) = &results[next_print] else {
                break;
            };
            println!("{reply}");
            if let Some((exit, _)) = reply_error(reply) {
                worst = worst.max(exit);
            }
            next_print += 1;
        }
    }
    Ok(ExitCode::from(worst))
}

fn send(stream: &mut TcpStream, idx: usize, lines: &[String]) -> std::io::Result<()> {
    write_frame(
        stream,
        u32::try_from(idx).expect("line count fits u32"),
        lines[idx].as_bytes(),
    )
    .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Reads the NDJSON upgrade-ack line byte by byte; a buffered reader
/// here could swallow the start of the frame stream.
fn read_ack_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection during the upgrade handshake",
                ))
            }
            _ => {
                if byte[0] == b'\n' {
                    return String::from_utf8(line).map_err(std::io::Error::other);
                }
                line.push(byte[0]);
            }
        }
    }
}

/// Blocks until one complete frame is decoded. With `--deadline-ms` the
/// socket read timeout turns a stalled reply into a `TimedOut` error
/// (fatal here: a frame pipeline cannot resynchronize mid-stream).
fn read_frame(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
) -> std::io::Result<(u32, Vec<u8>)> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = decoder
            .next()
            .map_err(|fe| std::io::Error::other(fe.error.to_string()))?
        {
            return Ok(frame);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-stream",
            ));
        }
        decoder.push(&buf[..n]);
    }
}
