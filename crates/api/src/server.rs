//! The persistent LEQA service daemon: newline-delimited JSON over
//! **stdio** or **TCP**, one process-wide [`Session`] shared by every
//! connection.
//!
//! A [`Server`] keeps one `Session` (already `Send + Sync`) resident
//! behind any number of client connections, so requests stop paying
//! process startup, and answers each request line with the
//! **byte-identical** envelope a direct `Session` call would produce.
//! An NDJSON request runs on its connection's thread; pipelined
//! `frame1` requests run on [`Pool::global`](leqa::pool::Pool::global).
//!
//! Sockets, both framings, the reply writer and chaos belong to the
//! private `conn` module, the daemon's connection engine. This module is
//! the request side: session execution, admission, deadlines, panic
//! isolation ([`Server::process_line`] and the `frame1` dispatch) and
//! the counters.
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

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{self, Engine, Reply};
use crate::dto::{
    BatchRequest, ControlFrame, ErrorFrame, FrameProto, Request, ShutdownAck, StatsResponse,
};
use crate::experiment::ScenarioSpec;
use crate::faults::{FaultInjector, FaultPlan};
use crate::json::{self, Json};
use crate::wire::field;
use crate::{ErrorKind, LeqaError, Session};

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
}

/// The daemon's request counters; the transport counters live in its
/// [`Engine`] (snapshot shape of both: [`StatsResponse`]).
#[derive(Debug, Default)]
struct Stats {
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
    frames_in_flight: AtomicU64,
}

struct Inner {
    session: Session,
    config: ServerConfig,
    stats: Stats,
    /// Shutdown flag, transport counters and the opt-in fault injector
    /// (`leqa serve --chaos`, applied on TCP only).
    engine: Engine,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("shutdown", &self.engine.is_shutting_down())
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
    let timeout_ms = field(&doc, "request", "timeout_ms")?;
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
        let inflight = &self.server.inner.stats.inflight;
        inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What the daemon does with one request.
enum Step {
    /// Answer at once: a control frame, a malformed request or a refusal.
    Answer(String),
    /// Run admitted work under its permit and optional `timeout_ms`.
    Run(Frame, InflightPermit, Option<u64>),
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
        Server::build(session, config, None)
    }

    /// Wraps a session with explicit limits **and** a deterministic
    /// fault-injection plan (`leqa serve --chaos SPEC`): replies on the
    /// TCP transports are delayed, dropped, torn or corrupted exactly as
    /// the seeded plan dictates (see [`crate::faults`]). The engine
    /// underneath still computes correct replies — chaos lives purely
    /// at the transport layer — so a retrying client must converge on
    /// byte-identical answers.
    #[must_use]
    pub fn with_chaos(session: Session, config: ServerConfig, plan: FaultPlan) -> Server {
        Server::build(session, config, Some(FaultInjector::new(plan)))
    }

    fn build(session: Session, config: ServerConfig, faults: Option<FaultInjector>) -> Server {
        let mut engine = Engine::default();
        engine.faults = faults;
        Server {
            inner: Arc::new(Inner {
                session,
                config,
                stats: Stats::default(),
                engine,
            }),
        }
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
        self.inner.engine.is_shutting_down()
    }

    /// Requests graceful shutdown: new work frames are refused with an
    /// `overloaded` error, open connections close after their current
    /// request, and a blocked TCP accept loop is woken so
    /// [`BoundServer::run`] can drain and return. Idempotent.
    pub fn shutdown(&self) {
        self.inner.engine.shutdown();
    }

    /// A consistent-enough snapshot of the daemon's counters (each field
    /// is individually exact; fields are read independently).
    #[must_use]
    pub fn stats(&self) -> StatsResponse {
        let s = &self.inner.stats;
        let e = &self.inner.engine;
        let store = self.inner.session.store_stats();
        StatsResponse {
            connections: e.connections.load(Ordering::Relaxed),
            active_connections: e.active_connections.load(Ordering::Relaxed),
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
            bytes_in: e.bytes_in.load(Ordering::Relaxed),
            bytes_out: e.bytes_out.load(Ordering::Relaxed),
            frames_in_flight: s.frames_in_flight.load(Ordering::Relaxed),
            store_hits: store.store_hits,
            store_misses: store.store_misses,
            cache: self.inner.session.cache_stats(),
            uptime_ticks: e.ticks.load(Ordering::Relaxed),
        }
    }

    /// Processes one protocol line and returns the reply line (no
    /// trailing newline), or `None` for a blank line. This is the whole
    /// per-line engine — every transport and the tests drive it.
    ///
    /// Successful work frames reply with envelopes **byte-identical** to
    /// the corresponding direct [`Session`] call; failures reply with an
    /// [`ErrorFrame`].
    #[must_use = "the reply line must be written back to the client"]
    pub fn process_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        (!line.is_empty()).then(|| self.answer_line(line))
    }

    /// Answers one non-blank, trimmed line on the calling thread: the
    /// NDJSON entry point of the connection engine.
    pub(crate) fn answer_line(&self, line: &str) -> String {
        let arrived = Instant::now();
        self.inner.engine.ticks.fetch_add(1, Ordering::Relaxed);
        match self.step(line, false) {
            Step::Answer(reply) => reply,
            Step::Run(work, permit, timeout_ms) => {
                self.execute_deadlined(work, permit, timeout_ms, arrived)
            }
        }
    }

    /// Classifies one request: control frames, malformed requests and
    /// admission refusals are answered at once; work is admitted.
    /// `upgraded` says whether the connection already speaks `frame1`.
    fn step(&self, text: &str, upgraded: bool) -> Step {
        let (frame, timeout_ms) = match classify_line(text) {
            Ok(classified) => classified,
            Err(e) => return Step::Answer(self.error_reply(e)),
        };
        Step::Answer(match frame {
            Frame::Control(ControlFrame::Stats) => self.stats().to_json().encode(),
            Frame::Control(ControlFrame::Shutdown) => {
                let ack = ShutdownAck.to_json().encode();
                self.shutdown();
                ack
            }
            // The connection engine intercepts upgrade lines on TCP;
            // seeing one here means this connection cannot switch
            // framing (stdio, in-memory, or already upgraded).
            Frame::Control(ControlFrame::Upgrade(_)) => self.error_reply(LeqaError::new(
                ErrorKind::Json,
                if upgraded {
                    "connection already upgraded to frame1"
                } else {
                    "`upgrade` is only available on the TCP transport"
                },
            )),
            work => match self.admit() {
                Ok(permit) => return Step::Run(work, permit, timeout_ms),
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

    /// Serves one already-open stdio or in-memory connection (no
    /// upgrade, no chaos): read lines, write replies, until EOF or
    /// shutdown. TCP connections run the same line loop.
    ///
    /// A read that times out (`WouldBlock` / `TimedOut`) keeps any
    /// partial line and checks the shutdown flag; a reader that blocks
    /// observes shutdown only when its next line (or EOF) arrives, so
    /// custom transports that need bounded drain latency should close
    /// their readers on shutdown or use [`bind`](Self::bind).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the underlying reader or writer fails. A
    /// non-UTF-8 line, or one over 16 MiB, is answered with one
    /// `json`-kind error frame and closes the connection (framing rule 4
    /// of `SERVER.md`); that is not an error.
    pub fn serve_connection(
        &self,
        reader: &mut dyn BufRead,
        writer: &mut dyn Write,
    ) -> Result<(), LeqaError> {
        conn::serve_stream(self, reader, writer).map_err(LeqaError::from)
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
        let (listener, local) = self.inner.engine.bind(addr)?;
        Ok(BoundServer {
            server: self.clone(),
            listener,
            local,
        })
    }

    // ── Internals ────────────────────────────────────────────────────────

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

    fn overloaded_reply(&self, e: LeqaError) -> String {
        self.inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
        ErrorFrame::new(e).to_json().encode()
    }
}

/// The entry points the connection engine calls.
impl Server {
    /// The transport state every connection of this daemon shares.
    pub(crate) fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Takes one `frame1` request. It is admitted on the connection
    /// thread, so an `overloaded` refusal keeps its tag; admitted work
    /// runs on the worker pool and answers through `reply`, out of
    /// order.
    pub(crate) fn frame(&self, text: String, reply: Reply) {
        let arrived = Instant::now();
        let (work, permit, timeout_ms) = match self.step(text.trim(), true) {
            Step::Answer(answer) => return reply.send(answer),
            Step::Run(work, permit, timeout_ms) => (work, permit, timeout_ms),
        };
        let stats = &self.inner.stats;
        stats.frames_in_flight.fetch_add(1, Ordering::AcqRel);
        let server = self.clone();
        leqa::pool::Pool::global().submit(move || {
            let answer = server.execute_deadlined(work, permit, timeout_ms, arrived);
            let stats = &server.inner.stats;
            stats.frames_in_flight.fetch_sub(1, Ordering::AcqRel);
            reply.send(answer);
        });
    }

    /// Encodes an error frame and counts it in `errors`.
    pub(crate) fn error_reply(&self, e: LeqaError) -> String {
        self.inner.stats.errors.fetch_add(1, Ordering::Relaxed);
        ErrorFrame::new(e).to_json().encode()
    }

    /// The `overloaded` refusal for a new connection while `open`
    /// connections are served, or `None` under the connection cap.
    pub(crate) fn refusal(&self, open: usize) -> Option<String> {
        let cap = self.inner.config.max_connections;
        (cap > 0 && open as u64 >= cap).then(|| {
            self.overloaded_reply(LeqaError::new(
                ErrorKind::Overloaded,
                format!("server at capacity ({cap} connections); retry later"),
            ))
        })
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
        conn::accept_loop(&self.server, self.listener)?;
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
