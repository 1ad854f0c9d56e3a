//! The persistent LEQA service daemon: newline-delimited JSON over
//! **stdio** or **TCP**, one process-wide [`Session`] shared by every
//! connection.
//!
//! After PRs 2–4 the session, its sharded profile cache and the
//! persistent worker pool all exist — but only for the lifetime of one
//! CLI invocation, so every request pays full process startup. This
//! module keeps the hot path resident: a [`Server`] wraps one `Session`
//! (already `Send + Sync`), accepts any number of client connections,
//! and answers each request line with the **byte-identical** envelope a
//! direct `Session` call would produce. CPU-bound endpoints keep fanning
//! out over [`Pool::global`](leqa::pool::Pool::global) exactly as they
//! do in-process.
//!
//! # Wire protocol (reference: `SERVER.md`)
//!
//! One JSON document per line, UTF-8, `\n`-terminated; one reply line
//! per request line, in order, per connection. Blank lines are ignored.
//!
//! * **Work frames** — any schema-version-1 [`Request`] envelope
//!   (`op`: `estimate`/`sweep`/`zones`/`compare`/`map`), a
//!   [`BatchRequest`] envelope (`op`: `batch`), or a
//!   [`ScenarioSpec`] envelope (`op`: `experiment`). Successful replies
//!   are the plain response envelopes; failures reply with an
//!   [`ErrorFrame`] and the connection survives.
//! * **Control frames** — `{"cmd":"stats"}` ([`StatsResponse`]) and
//!   `{"cmd":"shutdown"}` ([`ShutdownAck`]). Control frames bypass
//!   admission control so operators can always reach a saturated
//!   daemon.
//! * **Binary frame mode** — a TCP connection that sends
//!   `{"cmd":"upgrade","proto":"frame1"}` switches (after the ack line)
//!   to length-prefixed `[u32 len][u32 tag][payload]` frames
//!   ([`crate::frame`]): payloads are the same byte-stable JSON
//!   documents, but requests pipeline and responses complete **out of
//!   order**, matched by tag. NDJSON stays the default and the
//!   golden-test anchor.
//!
//! # Admission control and shutdown
//!
//! [`ServerConfig`] caps concurrent connections (`max_connections`) and
//! concurrently executing work frames (`max_inflight`); over-cap work is
//! refused immediately with an
//! [`ErrorKind::Overloaded`] error frame
//! (exit/error code 9) — clients back off and retry. `{"cmd":"shutdown"}`
//! (or closing a stdio pipe) stops the daemon gracefully: in-flight
//! requests drain, new work is refused, the worker pool quiesces
//! ([`leqa::pool::Pool::drain`]), and [`BoundServer::run`] returns.
//!
//! # Example
//!
//! ```
//! use leqa_api::{Server, Session};
//!
//! # fn main() -> Result<(), leqa_api::LeqaError> {
//! let server = Server::new(Session::builder().build()?);
//! let reply = server
//!     .process_line(r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_8"}}"#)
//!     .expect("non-blank line gets a reply");
//! assert!(reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
//! # Ok(())
//! # }
//! ```

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::dto::{
    BatchRequest, ControlFrame, ErrorFrame, FrameProto, Request, ShutdownAck, StatsResponse,
    UpgradeAck,
};
use crate::experiment::ScenarioSpec;
use crate::faults::{FaultAction, FaultInjector, FaultPlan, ReadFaultAction};
use crate::frame::{write_frame, FrameDecoder, FRAME_HEADER};
use crate::json::{self, Json};
use crate::{ErrorKind, LeqaError, Session};

/// Default read-poll period, milliseconds: how often a TCP connection
/// thread wakes from a blocked read to check the shutdown flag — bounds
/// drain latency for idle connections. The shard front-end derives its
/// health-probe pacing from the same knob
/// ([`ServerConfig::read_poll_ms`]), so one setting tunes both how fast
/// a daemon drains and how fast a fleet notices a dead replica (see the
/// operations section of `SERVER.md`).
pub const DEFAULT_READ_POLL_MS: u64 = 100;

/// Service limits for a [`Server`]. `0` means unlimited (the default):
/// start permissive, then tune `max_inflight` to roughly 2× your core
/// count and `max_connections` to your client population (see the
/// operations section of `SERVER.md`).
///
/// # Example
///
/// ```
/// use leqa_api::ServerConfig;
///
/// let config = ServerConfig::new().max_connections(64).max_inflight(8);
/// assert_eq!(config.max_connections_cap(), 64);
/// assert_eq!(config.max_inflight_cap(), 8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a config does nothing until passed to Server::with_config"]
pub struct ServerConfig {
    max_connections: u64,
    max_inflight: u64,
    read_poll_ms: u64,
}

impl ServerConfig {
    /// An unlimited config (no connection or inflight cap).
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Caps concurrently open connections (`0` = unlimited). Over-cap
    /// connections are answered with one `overloaded` error frame and
    /// closed.
    pub fn max_connections(mut self, cap: u64) -> Self {
        self.max_connections = cap;
        self
    }

    /// Caps concurrently executing work frames across all connections
    /// (`0` = unlimited). Over-cap work frames are refused with an
    /// `overloaded` error frame; the connection survives.
    pub fn max_inflight(mut self, cap: u64) -> Self {
        self.max_inflight = cap;
        self
    }

    /// The connection cap (`0` = unlimited).
    #[must_use]
    pub fn max_connections_cap(&self) -> u64 {
        self.max_connections
    }

    /// The inflight cap (`0` = unlimited).
    #[must_use]
    pub fn max_inflight_cap(&self) -> u64 {
        self.max_inflight
    }

    /// Sets the read-poll period in milliseconds (`0` = the default,
    /// [`DEFAULT_READ_POLL_MS`]): how often blocked TCP reads wake to
    /// check the shutdown flag, and the base period for the shard
    /// front-end's replica health probes. Smaller values drain and
    /// detect faster at the cost of more idle wakeups.
    pub fn read_poll_ms(mut self, ms: u64) -> Self {
        self.read_poll_ms = ms;
        self
    }

    /// The effective read-poll period ([`DEFAULT_READ_POLL_MS`] when
    /// unset).
    #[must_use]
    pub fn read_poll(&self) -> Duration {
        let ms = if self.read_poll_ms == 0 {
            DEFAULT_READ_POLL_MS
        } else {
            self.read_poll_ms
        };
        Duration::from_millis(ms)
    }
}

/// The daemon's atomic counters (snapshot shape: [`StatsResponse`]).
#[derive(Debug, Default)]
struct Stats {
    connections: AtomicU64,
    active_connections: AtomicU64,
    inflight: AtomicU64,
    estimate: AtomicU64,
    sweep: AtomicU64,
    zones: AtomicU64,
    compare: AtomicU64,
    map: AtomicU64,
    batch: AtomicU64,
    experiment: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_in_flight: AtomicU64,
    ticks: AtomicU64,
}

struct Inner {
    session: Session,
    config: ServerConfig,
    stats: Stats,
    shutdown: AtomicBool,
    /// Set by [`Server::bind`]; `shutdown` pokes it with a loopback
    /// connection so a blocked `accept` wakes and observes the flag.
    wake_addr: Mutex<Option<SocketAddr>>,
    /// Opt-in deterministic fault injection (`leqa serve --chaos`),
    /// applied at the TCP reply-write layer only — `None` in every
    /// production configuration.
    faults: Option<FaultInjector>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// One line classified: what the daemon does with it. Exposed so tests
/// and alternative transports can reuse the exact framing rules.
#[derive(Debug)]
#[non_exhaustive]
pub enum Frame {
    /// An operator control line (`{"cmd":…}`).
    Control(ControlFrame),
    /// A single endpoint request envelope.
    Single(Request),
    /// A batch envelope (`op": "batch"`).
    Batch(BatchRequest),
    /// A declarative experiment envelope (`op": "experiment"`).
    Experiment(Box<ScenarioSpec>),
}

impl Frame {
    /// Classifies one non-blank protocol line.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] for unparseable documents, unknown `cmd`s or
    /// `op`s, schema-version mismatches and shape errors (the per-frame
    /// decoders' errors pass through).
    pub fn parse(line: &str) -> Result<Frame, LeqaError> {
        let doc = json::parse(line).map_err(LeqaError::from)?;
        Frame::from_doc(&doc)
    }

    /// Classifies an already-parsed document (shared with the engine's
    /// one-parse path, which also peeks the request deadline).
    fn from_doc(doc: &Json) -> Result<Frame, LeqaError> {
        if doc.get("cmd").is_some() {
            return ControlFrame::from_json(doc).map(Frame::Control);
        }
        match doc.get("op").and_then(Json::as_str) {
            Some("batch") => BatchRequest::from_json(doc).map(Frame::Batch),
            Some("experiment") => {
                ScenarioSpec::from_json(doc).map(|spec| Frame::Experiment(Box::new(spec)))
            }
            _ => Request::from_json(doc).map(Frame::Single),
        }
    }
}

/// Parses one line and peeks the optional per-request `timeout_ms`
/// budget from the envelope (any work frame may carry it; it is not part
/// of any endpoint's schema, so direct [`Session`] calls never see it).
fn classify_line(line: &str) -> Result<(Frame, Option<u64>), LeqaError> {
    let doc = json::parse(line).map_err(LeqaError::from)?;
    let timeout_ms = match doc.get("timeout_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            LeqaError::new(
                ErrorKind::Json,
                "`timeout_ms` must be a non-negative integer (milliseconds)",
            )
        })?),
    };
    Ok((Frame::from_doc(&doc)?, timeout_ms))
}

/// Decrements the inflight gauge when a work frame finishes (also on
/// panic, so a poisoned request cannot leak permits). Owns a `Server`
/// handle instead of a borrow so pipelined frame jobs can carry their
/// permit into the `'static` worker-pool closure.
struct InflightPermit {
    server: Server,
}

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.server
            .inner
            .stats
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
    }
}

/// What a chaotic reply write decided about the connection's future.
enum ChaosOutcome {
    /// The connection keeps serving.
    Continue,
    /// The injector consumed the reply (drop / torn write / replica
    /// kill): close the connection now.
    CloseConnection,
}

/// What a chaotic *request read* decided about the inbound line.
enum ReadChaosOutcome {
    /// Hand the (possibly garbled-but-decodable) line to the engine.
    Proceed,
    /// The request was lost mid-read: close without replying, exactly as
    /// a peer crash would look.
    CloseSilently,
    /// The damage is detectable at the framing layer: write this reply,
    /// then close (the byte stream can no longer be framed).
    ReplyAndClose(String),
}

/// Flips the high bit of `bytes[at % len]`. On the ASCII JSON this
/// protocol emits, a high-bit flip yields an invalid UTF-8 sequence, so
/// the corruption is always *detectable* by the client (it models line
/// noise a checksum would catch, not a silent digit swap no transport
/// could recover from). Steers away from producing `\n` so a corrupted
/// NDJSON reply stays one garbled line.
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

/// Decrements the active-connection gauge when a connection closes.
struct ConnectionGuard<'a> {
    active: &'a AtomicU64,
}

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The persistent service daemon: one shared [`Session`] behind a
/// line-oriented protocol (see the [module docs](self) and `SERVER.md`).
///
/// `Server` is cheaply cloneable (an `Arc` handle); clones share the
/// session, counters, limits and shutdown flag — clone it into however
/// many transport threads you run.
#[derive(Debug, Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Wraps a session with unlimited service limits.
    #[must_use]
    pub fn new(session: Session) -> Server {
        Server::with_config(session, ServerConfig::default())
    }

    /// Wraps a session with explicit service limits.
    #[must_use]
    pub fn with_config(session: Session, config: ServerConfig) -> Server {
        Server {
            inner: Arc::new(Inner {
                session,
                config,
                stats: Stats::default(),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
                faults: None,
            }),
        }
    }

    /// Wraps a session with explicit limits **and** a deterministic
    /// fault-injection plan (`leqa serve --chaos SPEC`): replies on the
    /// TCP transports are delayed, dropped, torn, corrupted or traded
    /// for a whole-replica kill exactly as the seeded plan dictates (see
    /// [`crate::faults`]). The engine underneath still computes correct
    /// replies — chaos lives purely at the write layer — so a retrying
    /// client must converge on byte-identical answers.
    #[must_use]
    pub fn with_chaos(session: Session, config: ServerConfig, plan: FaultPlan) -> Server {
        Server {
            inner: Arc::new(Inner {
                session,
                config,
                stats: Stats::default(),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
                faults: Some(FaultInjector::new(plan)),
            }),
        }
    }

    /// The fault injector, when this server was built with
    /// [`with_chaos`](Self::with_chaos).
    #[must_use]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.inner.faults.as_ref()
    }

    /// The shared session (e.g. to pre-warm the program cache before
    /// accepting traffic).
    #[must_use]
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// The service limits this daemon enforces.
    pub fn config(&self) -> ServerConfig {
        self.inner.config
    }

    /// Whether shutdown was requested (by a `{"cmd":"shutdown"}` line or
    /// [`shutdown`](Server::shutdown)). Once set it never clears.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Requests graceful shutdown: new work frames are refused with an
    /// `overloaded` error, open connections close after their current
    /// request, and a blocked TCP accept loop is woken so
    /// [`BoundServer::run`] can drain and return. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let wake = *self.inner.wake_addr.lock().expect("no poisoning");
        if let Some(addr) = wake {
            // Wake a blocked `accept`; the loop re-checks the flag before
            // serving whatever it accepted.
            let _ = TcpStream::connect_timeout(&addr, self.inner.config.read_poll());
        }
    }

    /// A consistent-enough snapshot of the daemon's counters (each field
    /// is individually exact; fields are read independently).
    #[must_use]
    pub fn stats(&self) -> StatsResponse {
        let s = &self.inner.stats;
        let store = self.inner.session.store_stats();
        StatsResponse {
            connections: s.connections.load(Ordering::Relaxed),
            active_connections: s.active_connections.load(Ordering::Relaxed),
            inflight: s.inflight.load(Ordering::Relaxed),
            estimate: s.estimate.load(Ordering::Relaxed),
            sweep: s.sweep.load(Ordering::Relaxed),
            zones: s.zones.load(Ordering::Relaxed),
            compare: s.compare.load(Ordering::Relaxed),
            map: s.map.load(Ordering::Relaxed),
            batch: s.batch.load(Ordering::Relaxed),
            experiment: s.experiment.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            overloaded: s.overloaded.load(Ordering::Relaxed),
            bytes_in: s.bytes_in.load(Ordering::Relaxed),
            bytes_out: s.bytes_out.load(Ordering::Relaxed),
            frames_in_flight: s.frames_in_flight.load(Ordering::Relaxed),
            store_hits: store.store_hits,
            store_misses: store.store_misses,
            replicas_restarted: 0,
            cache: self.inner.session.cache_stats(),
            uptime_ticks: s.ticks.load(Ordering::Relaxed),
        }
    }

    /// Processes one protocol line and returns the reply line (no
    /// trailing newline), or `None` for a blank line. This is the whole
    /// per-line engine — both transports and the tests drive it.
    ///
    /// Successful work frames reply with envelopes **byte-identical** to
    /// the corresponding direct [`Session`] call; failures reply with an
    /// [`ErrorFrame`].
    #[must_use = "the reply line must be written back to the client"]
    pub fn process_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let arrived = Instant::now();
        self.inner.stats.ticks.fetch_add(1, Ordering::Relaxed);
        let (frame, timeout_ms) = match classify_line(line) {
            Ok(classified) => classified,
            Err(e) => return Some(self.error_reply(e)),
        };
        Some(match frame {
            Frame::Control(ControlFrame::Stats) => self.stats().to_json().encode(),
            Frame::Control(ControlFrame::Shutdown) => {
                let ack = ShutdownAck.to_json().encode();
                self.shutdown();
                ack
            }
            // The TCP transport intercepts upgrade lines before they
            // reach the engine; seeing one here means the transport
            // cannot switch framing (stdio, in-memory).
            Frame::Control(ControlFrame::Upgrade(_)) => self.error_reply(LeqaError::new(
                ErrorKind::Json,
                "`upgrade` is only available on the TCP transport",
            )),
            work => match self.admit() {
                Ok(permit) => self.execute_deadlined(work, permit, timeout_ms, arrived),
                Err(e) => self.overloaded_reply(e),
            },
        })
    }

    /// Executes one admitted work frame under an optional `timeout_ms`
    /// budget measured from `arrived` (when the line was read). The
    /// budget is checked before execution (a request that aged out in a
    /// queue is not run at all — `timeout_ms:0` deterministically takes
    /// this path) and again after, so a reply that would arrive past the
    /// client's deadline is replaced by a
    /// [`ErrorKind::DeadlineExceeded`] frame instead of wasting its
    /// wire bytes.
    fn execute_deadlined(
        &self,
        frame: Frame,
        permit: InflightPermit,
        timeout_ms: Option<u64>,
        arrived: Instant,
    ) -> String {
        let Some(budget_ms) = timeout_ms else {
            return self.execute_work(frame, permit);
        };
        let budget = Duration::from_millis(budget_ms);
        if arrived.elapsed() >= budget {
            drop(permit);
            return self.deadline_reply(budget_ms);
        }
        let reply = self.execute_work(frame, permit);
        if arrived.elapsed() >= budget {
            return self.deadline_reply(budget_ms);
        }
        reply
    }

    fn deadline_reply(&self, budget_ms: u64) -> String {
        self.error_reply(LeqaError::new(
            ErrorKind::DeadlineExceeded,
            format!("request deadline of {budget_ms} ms elapsed before a reply"),
        ))
    }

    /// Executes one already-admitted work frame, holding `permit` for
    /// the duration. Shared by the NDJSON line engine and the pipelined
    /// frame dispatcher, so both transports produce byte-identical
    /// replies — and isolate a panicking request the same way — through
    /// one code path.
    fn execute_work(&self, frame: Frame, permit: InflightPermit) -> String {
        self.run_isolated(permit, || match frame {
            Frame::Single(req) => {
                self.count_endpoint(&req);
                match self.inner.session.execute(&req) {
                    Ok(resp) => resp.to_json().encode(),
                    Err(e) => self.error_reply(e),
                }
            }
            Frame::Batch(batch) => {
                self.inner.stats.batch.fetch_add(1, Ordering::Relaxed);
                self.inner.session.batch(&batch.requests).to_json().encode()
            }
            Frame::Experiment(spec) => {
                self.inner.stats.experiment.fetch_add(1, Ordering::Relaxed);
                match self.inner.session.batch_experiment(&spec) {
                    Ok(resp) => resp.to_json().encode(),
                    Err(e) => self.error_reply(e),
                }
            }
            Frame::Control(_) => self.error_reply(LeqaError::internal(
                "control frame routed to the work executor",
            )),
        })
    }

    /// Runs one admitted request body, answering a panic with an
    /// `internal` error frame instead of unwinding into the transport —
    /// under `serve --stdio` the connection thread is the daemon. The
    /// permit is released either way.
    fn run_isolated(&self, permit: InflightPermit, work: impl FnOnce() -> String) -> String {
        let reply = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| {
            self.error_reply(LeqaError::internal("request panicked during execution"))
        });
        drop(permit);
        reply
    }

    /// Serves one already-open connection: read lines, write replies,
    /// until EOF or shutdown. Used directly for stdio and in-memory
    /// transports; TCP connections run the poll-aware variant so idle
    /// reads cannot stall a drain.
    ///
    /// A connection blocked inside `read_line` observes shutdown only
    /// when its next line (or EOF) arrives — a generic `BufRead` cannot
    /// be polled. Custom multi-connection transports that need bounded
    /// drain latency should close their readers on shutdown (the stdio
    /// supervisor's pipe close) or use the TCP transport
    /// ([`bind`](Self::bind)), whose connections poll the flag
    /// internally.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the underlying reader or writer fails. A
    /// non-UTF-8 byte stream is not an error: it is answered with one
    /// `json`-kind error frame and the connection closes (framing rule
    /// 4 of `SERVER.md`).
    pub fn serve_connection(
        &self,
        reader: &mut dyn BufRead,
        writer: &mut dyn Write,
    ) -> Result<(), LeqaError> {
        let _guard = self.open_connection();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // EOF: the client hung up.
                Ok(n) => {
                    self.inner
                        .stats
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    let reply = self
                        .error_reply(LeqaError::new(ErrorKind::Json, "frame is not valid UTF-8"));
                    writer
                        .write_all(reply.as_bytes())
                        .map_err(LeqaError::from)?;
                    writer.write_all(b"\n").map_err(LeqaError::from)?;
                    writer.flush().map_err(LeqaError::from)?;
                    return Ok(());
                }
                Err(e) => return Err(LeqaError::from(e)),
            }
            self.write_reply(writer, &line).map_err(LeqaError::from)?;
            if self.is_shutting_down() {
                return Ok(());
            }
        }
    }

    /// Serves the stdio transport (`leqa serve --stdio`): one connection
    /// over the process's stdin/stdout, until EOF or shutdown. The
    /// worker pool is drained before returning.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when stdin or stdout fails.
    pub fn serve_stdio(&self) -> Result<(), LeqaError> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let result = self.serve_connection(&mut stdin.lock(), &mut stdout.lock());
        leqa::pool::Pool::global().drain();
        result
    }

    /// Binds the TCP transport. The returned [`BoundServer`] reports the
    /// actual local address (bind port `0` to let the OS pick) and
    /// serves on [`run`](BoundServer::run).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the address cannot be bound.
    ///
    /// # Example
    ///
    /// ```
    /// use leqa_api::{Server, Session};
    ///
    /// # fn main() -> Result<(), leqa_api::LeqaError> {
    /// let server = Server::new(Session::builder().build()?);
    /// let bound = server.bind("127.0.0.1:0")?;
    /// assert_ne!(bound.local_addr().port(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn bind(&self, addr: &str) -> Result<BoundServer, LeqaError> {
        let listener = TcpListener::bind(addr)
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("binding `{addr}`")))?;
        let local = listener.local_addr().map_err(LeqaError::from)?;
        *self.inner.wake_addr.lock().expect("no poisoning") = Some(local);
        Ok(BoundServer {
            server: self.clone(),
            listener,
            local,
        })
    }

    // ── Internals ────────────────────────────────────────────────────────

    fn open_connection(&self) -> ConnectionGuard<'_> {
        self.inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .active_connections
            .fetch_add(1, Ordering::AcqRel);
        ConnectionGuard {
            active: &self.inner.stats.active_connections,
        }
    }

    /// Processes `line` and writes the reply (if any), flushing so
    /// clients see it promptly.
    fn write_reply(&self, writer: &mut dyn Write, line: &str) -> std::io::Result<()> {
        if let Some(reply) = self.process_line(line) {
            self.write_line(writer, &reply)?;
        }
        Ok(())
    }

    /// Writes one NDJSON reply line through the fault injector: without
    /// one this is exactly [`write_line`](Self::write_line); with one,
    /// the injector's per-event decision may delay the write, swallow
    /// the reply and close the connection, write a torn prefix, flip one
    /// payload byte, or trade the reply for a whole-replica kill.
    fn write_chaotic_line(
        &self,
        writer: &mut dyn Write,
        reply: &str,
    ) -> std::io::Result<ChaosOutcome> {
        let Some(injector) = &self.inner.faults else {
            self.write_line(writer, reply)?;
            return Ok(ChaosOutcome::Continue);
        };
        let decision = injector.next_decision();
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.action {
            FaultAction::Deliver => {
                self.write_line(writer, reply)?;
                Ok(ChaosOutcome::Continue)
            }
            FaultAction::DropConnection => Ok(ChaosOutcome::CloseConnection),
            FaultAction::KillReplica => {
                self.shutdown();
                Ok(ChaosOutcome::CloseConnection)
            }
            FaultAction::Truncate => {
                // A torn write, as a crash mid-flush would leave: half
                // the line, no newline, then the connection closes.
                let bytes = reply.as_bytes();
                let cut = bytes.len() / 2;
                writer.write_all(&bytes[..cut])?;
                writer.flush()?;
                self.inner
                    .stats
                    .bytes_out
                    .fetch_add(cut as u64, Ordering::Relaxed);
                Ok(ChaosOutcome::CloseConnection)
            }
            FaultAction::FlipByte(at) => {
                let mut bytes = reply.as_bytes().to_vec();
                flip_byte(&mut bytes, at);
                writer.write_all(&bytes)?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                self.inner
                    .stats
                    .bytes_out
                    .fetch_add(bytes.len() as u64 + 1, Ordering::Relaxed);
                Ok(ChaosOutcome::Continue)
            }
        }
    }

    /// Applies the fault injector's request-read decision to one inbound
    /// line, mutating it in place when the damage leaves something to
    /// deliver. Without an injector this is a no-op `Proceed` — the
    /// byte-stable production path.
    fn read_chaotic_line(&self, line: &mut String) -> ReadChaosOutcome {
        let Some(injector) = &self.inner.faults else {
            return ReadChaosOutcome::Proceed;
        };
        match injector.next_read_decision() {
            ReadFaultAction::Deliver => ReadChaosOutcome::Proceed,
            ReadFaultAction::DropRequest => ReadChaosOutcome::CloseSilently,
            ReadFaultAction::Truncate => {
                // A torn read: the engine sees only the prefix that made
                // it; the remainder died with the peer. The torn prefix
                // of a JSON document cannot parse, so the reply (if the
                // prefix is non-blank) is a typed `json` error frame.
                let mut cut = line.len() / 2;
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.truncate(cut);
                match self.process_line(line) {
                    Some(reply) => ReadChaosOutcome::ReplyAndClose(reply),
                    None => ReadChaosOutcome::CloseSilently,
                }
            }
            ReadFaultAction::FlipByte(at) => {
                let mut bytes = line.clone().into_bytes();
                flip_byte(&mut bytes, at);
                match String::from_utf8(bytes) {
                    // ASCII JSON + high-bit flip ⇒ invalid UTF-8: the
                    // same typed answer the UTF-8 read guard gives.
                    Err(_) => {
                        ReadChaosOutcome::ReplyAndClose(self.error_reply(LeqaError::new(
                            ErrorKind::Json,
                            "frame is not valid UTF-8",
                        )))
                    }
                    // A non-ASCII byte flipped back into ASCII: still a
                    // garbled line, deliver it and let the engine answer.
                    Ok(garbled) => {
                        *line = garbled;
                        ReadChaosOutcome::Proceed
                    }
                }
            }
        }
    }

    /// Writes one reply line (with newline + flush), counting the bytes.
    fn write_line(&self, writer: &mut dyn Write, reply: &str) -> std::io::Result<()> {
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        self.inner
            .stats
            .bytes_out
            .fetch_add(reply.len() as u64 + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Admission control for one work frame: refused while draining or
    /// at the inflight cap; otherwise the returned permit holds one
    /// inflight slot until dropped.
    fn admit(&self) -> Result<InflightPermit, LeqaError> {
        if self.is_shutting_down() {
            return Err(LeqaError::new(
                ErrorKind::Overloaded,
                "server is draining for shutdown; no new work accepted",
            ));
        }
        let inflight = &self.inner.stats.inflight;
        let cap = self.inner.config.max_inflight;
        if cap > 0 {
            let admitted = inflight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < cap).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                return Err(LeqaError::new(
                    ErrorKind::Overloaded,
                    format!("server at capacity ({cap} requests in flight); retry later"),
                ));
            }
        } else {
            inflight.fetch_add(1, Ordering::AcqRel);
        }
        Ok(InflightPermit {
            server: self.clone(),
        })
    }

    fn count_endpoint(&self, req: &Request) {
        let counter = match req {
            Request::Estimate(_) => &self.inner.stats.estimate,
            Request::Sweep(_) => &self.inner.stats.sweep,
            Request::Zones(_) => &self.inner.stats.zones,
            Request::Compare(_) => &self.inner.stats.compare,
            Request::Map(_) => &self.inner.stats.map,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn error_reply(&self, e: LeqaError) -> String {
        self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
        ErrorFrame::new(e).to_json().encode()
    }

    fn overloaded_reply(&self, e: LeqaError) -> String {
        self.inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
        ErrorFrame::new(e).to_json().encode()
    }

    /// One TCP connection: like [`serve_connection`](Self::serve_connection)
    /// but with a read timeout so a connection idling in `read` observes
    /// the shutdown flag within the configured read-poll period
    /// ([`ServerConfig::read_poll_ms`]). An
    /// `{"cmd":"upgrade","proto":"frame1"}` line switches the connection
    /// to the pipelined binary framing ([`serve_frames`](Self::serve_frames))
    /// after the NDJSON ack.
    fn serve_tcp_connection(&self, stream: TcpStream) -> std::io::Result<()> {
        let _guard = self.open_connection();
        stream.set_read_timeout(Some(self.inner.config.read_poll()))?;
        // Replies are small and flushed per line; without NODELAY,
        // Nagle + delayed-ACK adds tens of ms to every round trip.
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // EOF
                Ok(n) => {
                    self.inner
                        .stats
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    // Read-side chaos strikes the raw inbound bytes,
                    // before the line is interpreted at all (an upgrade
                    // request can be corrupted like any other).
                    match self.read_chaotic_line(&mut line) {
                        ReadChaosOutcome::Proceed => {}
                        ReadChaosOutcome::CloseSilently => return Ok(()),
                        ReadChaosOutcome::ReplyAndClose(reply) => {
                            writer.write_all(reply.as_bytes())?;
                            writer.write_all(b"\n")?;
                            return writer.flush();
                        }
                    }
                    if let Some(proto) = upgrade_request(&line) {
                        self.inner.stats.ticks.fetch_add(1, Ordering::Relaxed);
                        self.write_line(&mut writer, &UpgradeAck { proto }.to_json().encode())?;
                        // Bytes the client optimistically sent after its
                        // upgrade line are sitting in the BufReader; hand
                        // them to the frame decoder.
                        let residual = reader.buffer().to_vec();
                        drop(reader);
                        return self.serve_frames(writer, residual);
                    }
                    let reply = self.process_line(&line);
                    line.clear();
                    if let Some(reply) = reply {
                        match self.write_chaotic_line(&mut writer, &reply)? {
                            ChaosOutcome::Continue => {}
                            ChaosOutcome::CloseConnection => return Ok(()),
                        }
                    }
                    if self.is_shutting_down() {
                        return Ok(());
                    }
                }
                // Timeout mid-wait: any partial bytes stay in `line`;
                // the next read appends the rest of the frame.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.is_shutting_down() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // Not UTF-8: answer with a typed frame, then close
                    // (the byte stream can no longer be framed).
                    let reply = self
                        .error_reply(LeqaError::new(ErrorKind::Json, "frame is not valid UTF-8"));
                    writer.write_all(reply.as_bytes())?;
                    writer.write_all(b"\n")?;
                    return writer.flush();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves one upgraded connection in `frame1` mode: a reader loop
    /// (this thread) decodes `[len][tag][payload]` frames and submits
    /// work to [`Pool::global`](leqa::pool::Pool::global) **without
    /// waiting**; a writer thread drains the completion channel and
    /// writes response frames as they finish. One pipelining client can
    /// therefore keep the whole worker pool saturated, and responses
    /// complete out of order — matched to requests by tag.
    ///
    /// `residual` is whatever the NDJSON reader had buffered past the
    /// upgrade line (already read off the socket).
    fn serve_frames(&self, stream: TcpStream, residual: Vec<u8>) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<(u32, String)>();
        let writer_stream = stream.try_clone()?;
        let server = self.clone();
        let writer = std::thread::Builder::new()
            .name("leqa-frame-writer".to_string())
            .spawn(move || {
                let mut w = BufWriter::new(writer_stream);
                // Batch flushes: drain whatever is ready, flush once.
                while let Ok(first) = rx.recv() {
                    let mut pending = vec![first];
                    pending.extend(rx.try_iter());
                    for (tag, payload) in &pending {
                        match server.write_chaotic_frame(&mut w, *tag, payload) {
                            Ok(ChaosOutcome::Continue) => {}
                            Ok(ChaosOutcome::CloseConnection) => {
                                // Chaotic drop/kill/torn write: tear the
                                // socket down so the reader loop ends too.
                                let _ = w.flush();
                                let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
                                return;
                            }
                            Err(_) => return, // client gone: drop the channel
                        }
                    }
                    if w.flush().is_err() {
                        return;
                    }
                }
            })?;

        let mut decoder = FrameDecoder::new();
        self.inner
            .stats
            .bytes_in
            .fetch_add(residual.len() as u64, Ordering::Relaxed);
        decoder.push(&residual);
        let mut reader = stream;
        let mut buf = [0u8; 16 * 1024];
        let mut result = Ok(());
        'conn: loop {
            loop {
                match decoder.next() {
                    Ok(Some((tag, payload))) => self.dispatch_frame(tag, payload, &tx),
                    Ok(None) => break,
                    Err(fe) => {
                        // Framing violation (oversized length): answer on
                        // the offending tag and close — the stream can no
                        // longer be trusted.
                        let reply = self.error_reply(fe.error);
                        let _ = tx.send((fe.tag.unwrap_or(0), reply));
                        break 'conn;
                    }
                }
            }
            if self.is_shutting_down() {
                break;
            }
            match reader.read(&mut buf) {
                Ok(0) => {
                    if let Err(fe) = decoder.finish() {
                        let reply = self.error_reply(fe.error);
                        let _ = tx.send((fe.tag.unwrap_or(0), reply));
                    }
                    break;
                }
                Ok(n) => {
                    self.inner
                        .stats
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    decoder.push(&buf[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // In-flight jobs hold sender clones; the writer exits once the
        // last reply is sent (or the client is gone), so joining it
        // drains this connection's pipeline.
        drop(tx);
        let _ = writer.join();
        result
    }

    /// Frame-mode twin of [`write_chaotic_line`](Self::write_chaotic_line):
    /// one `[len][tag][payload]` reply frame through the fault injector
    /// (byte-counting included); without an injector it is a plain
    /// [`write_frame`].
    fn write_chaotic_frame(
        &self,
        w: &mut BufWriter<TcpStream>,
        tag: u32,
        payload: &str,
    ) -> Result<ChaosOutcome, LeqaError> {
        let deliver = |w: &mut BufWriter<TcpStream>, bytes: &[u8]| -> Result<(), LeqaError> {
            write_frame(w, tag, bytes)?;
            self.inner
                .stats
                .bytes_out
                .fetch_add((bytes.len() + FRAME_HEADER) as u64, Ordering::Relaxed);
            Ok(())
        };
        let Some(injector) = &self.inner.faults else {
            deliver(w, payload.as_bytes())?;
            return Ok(ChaosOutcome::Continue);
        };
        let decision = injector.next_decision();
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.action {
            FaultAction::Deliver => {
                deliver(w, payload.as_bytes())?;
                Ok(ChaosOutcome::Continue)
            }
            FaultAction::DropConnection => Ok(ChaosOutcome::CloseConnection),
            FaultAction::KillReplica => {
                self.shutdown();
                Ok(ChaosOutcome::CloseConnection)
            }
            FaultAction::Truncate => {
                // A torn frame: encode the full [len][tag][payload] then
                // put only half of it on the wire before closing.
                let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
                write_frame(&mut framed, tag, payload.as_bytes())?;
                let cut = framed.len() / 2;
                w.write_all(&framed[..cut]).map_err(LeqaError::from)?;
                w.flush().map_err(LeqaError::from)?;
                self.inner
                    .stats
                    .bytes_out
                    .fetch_add(cut as u64, Ordering::Relaxed);
                Ok(ChaosOutcome::CloseConnection)
            }
            FaultAction::FlipByte(at) => {
                let mut bytes = payload.as_bytes().to_vec();
                flip_byte(&mut bytes, at);
                deliver(w, &bytes)?;
                Ok(ChaosOutcome::Continue)
            }
        }
    }

    /// Routes one decoded frame: control frames answer inline (they
    /// bypass admission, as on the NDJSON channel); work frames are
    /// admitted here — so `overloaded` refusals carry the offending tag
    /// immediately — then executed on the worker pool, completing out of
    /// order through `tx`.
    fn dispatch_frame(&self, tag: u32, payload: Vec<u8>, tx: &mpsc::Sender<(u32, String)>) {
        let arrived = Instant::now();
        self.inner.stats.ticks.fetch_add(1, Ordering::Relaxed);
        let text = match String::from_utf8(payload) {
            Ok(text) => text,
            Err(_) => {
                let reply =
                    self.error_reply(LeqaError::new(ErrorKind::Json, "frame is not valid UTF-8"));
                let _ = tx.send((tag, reply));
                return;
            }
        };
        let (frame, timeout_ms) = match classify_line(text.trim()) {
            Ok(classified) => classified,
            Err(e) => {
                let _ = tx.send((tag, self.error_reply(e)));
                return;
            }
        };
        match frame {
            Frame::Control(ControlFrame::Stats) => {
                let _ = tx.send((tag, self.stats().to_json().encode()));
            }
            Frame::Control(ControlFrame::Shutdown) => {
                let ack = ShutdownAck.to_json().encode();
                self.shutdown();
                let _ = tx.send((tag, ack));
            }
            Frame::Control(ControlFrame::Upgrade(_)) => {
                let reply = self.error_reply(LeqaError::new(
                    ErrorKind::Json,
                    "connection already upgraded to frame1",
                ));
                let _ = tx.send((tag, reply));
            }
            work => {
                let permit = match self.admit() {
                    Ok(permit) => permit,
                    Err(e) => {
                        let _ = tx.send((tag, self.overloaded_reply(e)));
                        return;
                    }
                };
                self.inner
                    .stats
                    .frames_in_flight
                    .fetch_add(1, Ordering::AcqRel);
                let server = self.clone();
                let tx = tx.clone();
                leqa::pool::Pool::global().submit(move || {
                    let reply = server.execute_deadlined(work, permit, timeout_ms, arrived);
                    server
                        .inner
                        .stats
                        .frames_in_flight
                        .fetch_sub(1, Ordering::AcqRel);
                    let _ = tx.send((tag, reply));
                });
            }
        }
    }
}

/// Recognizes an `{"cmd":"upgrade",…}` line cheaply: the substring probe
/// keeps the hot NDJSON path from re-parsing every line, the full parse
/// confirms. Malformed upgrade lines return `None` and fall through to
/// the line engine, which answers with a typed error frame.
pub(crate) fn upgrade_request(line: &str) -> Option<FrameProto> {
    let line = line.trim();
    if line.is_empty() || !line.contains("\"upgrade\"") {
        return None;
    }
    match Frame::parse(line) {
        Ok(Frame::Control(ControlFrame::Upgrade(proto))) => Some(proto),
        _ => None,
    }
}

/// A [`Server`] bound to a TCP address, ready to [`run`](Self::run).
#[derive(Debug)]
pub struct BoundServer {
    server: Server,
    listener: TcpListener,
    local: SocketAddr,
}

impl BoundServer {
    /// The actual bound address (resolves port `0` to the OS's pick).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle to the serving daemon (clone it to trigger
    /// [`Server::shutdown`] or poll [`Server::stats`] from the
    /// supervising thread).
    #[must_use]
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Accepts and serves connections until shutdown: each connection
    /// gets its own thread, over-cap connections are refused with one
    /// `overloaded` error frame, and on shutdown the loop stops
    /// accepting, joins every connection thread (draining their
    /// in-flight requests) and quiesces the worker pool
    /// ([`leqa::pool::Pool::drain`]).
    ///
    /// Accept errors never kill the daemon: transient conditions (a
    /// client resetting before `accept`, fd-limit pressure) are
    /// retried, with a read-poll-period backoff for non-transient kinds so
    /// a persistently failing listener cannot busy-spin — the operator
    /// stays in control via `{"cmd":"shutdown"}` on open connections.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when a connection thread cannot be spawned.
    pub fn run(self) -> Result<(), LeqaError> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.server.is_shutting_down() {
                break; // wake-up connection (or a late client): drop it.
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    continue
                }
                Err(_) => {
                    // EMFILE and friends: back off instead of dying or
                    // spinning; the shutdown check above ends the loop.
                    std::thread::sleep(self.server.inner.config.read_poll());
                    continue;
                }
            };
            handles.retain(|h| !h.is_finished());
            let cap = self.server.inner.config.max_connections;
            if cap > 0 && handles.len() as u64 >= cap {
                let reply = self.server.overloaded_reply(LeqaError::new(
                    ErrorKind::Overloaded,
                    format!("server at capacity ({cap} connections); retry later"),
                ));
                let mut stream = stream;
                let _ = stream.write_all(reply.as_bytes());
                let _ = stream.write_all(b"\n");
                continue;
            }
            let server = self.server.clone();
            let handle = std::thread::Builder::new()
                .name("leqa-serve-conn".to_string())
                .spawn(move || {
                    let _ = server.serve_tcp_connection(stream);
                })
                .map_err(LeqaError::from)?;
            handles.push(handle);
        }
        drop(self.listener); // refuse new connections while draining
        for handle in handles {
            let _ = handle.join();
        }
        leqa::pool::Pool::global().drain();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dto::{EstimateRequest, ProgramSpec};

    fn server() -> Server {
        Server::new(Session::builder().build().expect("default session"))
    }

    fn estimate_line(name: &str) -> String {
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
            .to_json()
            .encode()
    }

    #[test]
    fn blank_lines_are_ignored_without_ticking() {
        let server = server();
        assert!(server.process_line("").is_none());
        assert!(server.process_line("   \t ").is_none());
        assert_eq!(server.stats().uptime_ticks, 0);
    }

    #[test]
    fn frames_classify_by_cmd_and_op() {
        assert!(matches!(
            Frame::parse(r#"{"cmd":"stats"}"#),
            Ok(Frame::Control(ControlFrame::Stats))
        ));
        assert!(matches!(
            Frame::parse(r#"{"cmd":"shutdown"}"#),
            Ok(Frame::Control(ControlFrame::Shutdown))
        ));
        assert!(matches!(
            Frame::parse(&estimate_line("qft_8")),
            Ok(Frame::Single(Request::Estimate(_)))
        ));
        assert!(matches!(
            Frame::parse(r#"{"schema_version":1,"op":"batch","requests":[]}"#),
            Ok(Frame::Batch(_))
        ));
        assert!(matches!(
            Frame::parse(
                r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[10]}"#
            ),
            Ok(Frame::Experiment(_))
        ));
        assert!(Frame::parse("not json").is_err());
        assert!(Frame::parse(r#"{"schema_version":1,"op":"nope"}"#).is_err());
    }

    #[test]
    fn work_replies_are_byte_identical_to_direct_session_calls() {
        let server = server();
        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let reply = server.process_line(&estimate_line("qft_8")).unwrap();
        let expected = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(reply, expected);
        // Second hit: cache-warm on both sides, still byte-identical.
        let reply = server.process_line(&estimate_line("qft_8")).unwrap();
        let expected = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(reply, expected);
    }

    #[test]
    fn malformed_lines_reply_with_error_frames() {
        let server = server();
        let reply = server.process_line("{oops").unwrap();
        let frame =
            ErrorFrame::from_json(&json::parse(&reply).expect("error frame is json")).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Json);
        assert_eq!(server.stats().errors, 1);
        // The engine keeps serving afterwards.
        assert!(server
            .process_line(&estimate_line("qft_8"))
            .unwrap()
            .starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
    }

    #[test]
    fn request_deadlines_expire_deterministically_and_pass_when_generous() {
        let server = server();
        // `timeout_ms: 0` expires before execution ever starts — the
        // deterministic pin of the deadline path.
        let line =
            r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_8"},"timeout_ms":0}"#;
        let reply = server.process_line(line).unwrap();
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::DeadlineExceeded);
        assert!(frame.error.to_string().contains("0 ms"), "{reply}");

        // A generous deadline changes nothing about the reply bytes
        // (both warm, so the cache flag matches).
        let deadlined = r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_8"},"timeout_ms":60000}"#;
        let _cold = server.process_line(&estimate_line("qft_8")).unwrap();
        let warm = server.process_line(&estimate_line("qft_8")).unwrap();
        assert_eq!(server.process_line(deadlined).unwrap(), warm);

        // A malformed deadline is a JSON-kind usage problem, not a crash.
        let bad =
            r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_8"},"timeout_ms":-5}"#;
        let reply = server.process_line(bad).unwrap();
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Json);
    }

    #[test]
    fn stats_count_endpoints_errors_and_ticks() {
        let server = server();
        let _ = server.process_line(&estimate_line("qft_8"));
        let _ = server.process_line(&estimate_line("qft_8"));
        let _ = server.process_line("{bad");
        let reply = server.process_line(r#"{"cmd":"stats"}"#).unwrap();
        let stats = StatsResponse::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(stats.estimate, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.uptime_ticks, 4);
        assert_eq!(stats.cache.loads, 2);
        assert_eq!(stats.cache.cache_hits, 1);
        assert_eq!(stats.inflight, 0, "permits are released");
    }

    #[test]
    fn a_panicking_request_answers_internal_and_releases_its_permit() {
        // `run_isolated` is the one catch site both transports execute
        // work through (NDJSON lines and pipelined frames alike).
        let server = server();
        let permit = server.admit().expect("no inflight cap");
        assert_eq!(server.stats().inflight, 1);
        let reply = server.run_isolated(permit, || panic!("injected request panic"));
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Internal);
        assert_eq!(server.stats().inflight, 0, "the permit is released");
        assert_eq!(server.stats().errors, 1);
        // The engine keeps serving afterwards.
        assert!(server
            .process_line(&estimate_line("qft_8"))
            .unwrap()
            .starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
    }

    #[test]
    fn shutdown_line_acks_then_refuses_new_work() {
        let server = server();
        let ack = server.process_line(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(ack, ShutdownAck.to_json().encode());
        assert!(server.is_shutting_down());
        let reply = server.process_line(&estimate_line("qft_8")).unwrap();
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
        assert_eq!(server.stats().overloaded, 1);
        // Control frames still answer while draining.
        assert!(server.process_line(r#"{"cmd":"stats"}"#).is_some());
    }

    #[test]
    fn serve_connection_stops_at_shutdown_leaving_later_lines_unread() {
        let server = server();
        let script = format!(
            "{}\n{{\"cmd\":\"shutdown\"}}\n{}\n",
            estimate_line("qft_8"),
            estimate_line("qft_16")
        );
        let mut reader = std::io::Cursor::new(script.into_bytes());
        let mut out = Vec::new();
        server.serve_connection(&mut reader, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "third line never processed: {out}");
        assert!(lines[0].contains("\"op\":\"estimate\""));
        assert!(lines[1].contains("\"op\":\"shutdown\""));
        assert_eq!(server.stats().connections, 1);
        assert_eq!(server.stats().active_connections, 0);
    }

    #[test]
    fn serve_connection_answers_non_utf8_with_an_error_frame_and_closes() {
        let server = server();
        let mut bytes = estimate_line("qft_8").into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xff, 0xfe, b'{', b'}', b'\n']);
        let mut reader = std::io::Cursor::new(bytes);
        let mut out = Vec::new();
        server
            .serve_connection(&mut reader, &mut out)
            .expect("framing rule 4: not an io error");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("\"op\":\"estimate\""));
        let frame = ErrorFrame::from_json(&json::parse(lines[1]).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Json);
        assert!(frame.error.to_string().contains("UTF-8"));
        assert_eq!(server.stats().active_connections, 0);
    }

    #[test]
    fn inflight_cap_zero_means_unlimited() {
        let server = Server::with_config(
            Session::builder().build().unwrap(),
            ServerConfig::new().max_inflight(0),
        );
        assert!(server
            .process_line(&estimate_line("qft_8"))
            .unwrap()
            .contains("\"op\":\"estimate\""));
        assert_eq!(server.stats().overloaded, 0);
    }
}
