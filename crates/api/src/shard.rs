//! `leqa shard` — a sharded front-end over N daemon replicas.
//!
//! One listener accepts clients speaking the same wire protocols as a
//! single daemon (NDJSON by default, `frame1` after upgrade — see
//! [`crate::server`] and [`crate::frame`]); behind it, N replica daemons
//! (spawned in-process or attached by address) do the work. The
//! front-end:
//!
//! * **routes work frames by content**: the FNV-1a hash of the program's
//!   identity text (bench name, path, or inline source — the same
//!   content-hash discipline as the session profile cache) picks the
//!   replica, so repeats of a program always land on the replica whose
//!   cache is warm;
//! * **broadcasts control frames**: `{"cmd":"stats"}` fans out to every
//!   live replica and the [`StatsResponse`]s merge
//!   ([`StatsResponse::merge`]) into one fleet-wide snapshot;
//!   `{"cmd":"shutdown"}` stops the whole fleet, then the front-end;
//! * **fails over**: a replica whose link drops is marked dead
//!   fleet-wide, its in-flight work frames re-route to the next live
//!   replica (requests are pure computations, so a resend is safe), and
//!   broadcasts complete without it. With no live replicas left,
//!   requests answer with a retryable `unavailable` error frame.
//! * **supervises the fleet**: [`BoundShard::run`] probes every replica
//!   with a deadline-bounded `{"cmd":"stats"}` ping. A live replica that
//!   stops answering is marked dead even if no request has touched it;
//!   a dead in-process replica that answers again (a fault closed its
//!   link, not the replica) is revived. The rest are relaunched on a
//!   fresh port when a restart factory is registered
//!   ([`Shard::supervise`]), re-warmed from the profile snapshot store
//!   when the factory builds its sessions with a `cache_dir`, under a
//!   **bounded restart budget**: once it is spent the fleet stays down
//!   and clients keep getting `unavailable`. Replica incarnations carry
//!   a generation counter, so a stale link dying cannot kill a revived
//!   or restarted replica.
//!
//! Replica links always speak `frame1` (the front-end upgrades each link
//! it opens), so one client connection pipelining frames keeps every
//! replica busy concurrently. Work replies are forwarded verbatim, and
//! client connections run on the daemon's own connection engine (the
//! private `conn` module), so a client cannot tell the shard from one
//! daemon by any reply byte, error frames included. This module is the
//! shard's side of that engine: routing, the replica-link client,
//! failover, broadcast and stats merge, and supervision.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::conn::{self, Engine, Handler, Reply};
use crate::dto::{ControlFrame, ErrorFrame, ShutdownAck, StatsResponse, UpgradeAck};
use crate::frame::{write_frame, FrameDecoder};
use crate::json;
use crate::server::{Frame, Server};
use crate::session::fnv1a;
use crate::{ErrorKind, LeqaError};

/// A factory the supervisor calls to build each replacement replica
/// (typically `Session::builder().cache_dir(…)` + `Server::new`, so the
/// replacement starts warm from the snapshot store).
pub type ReplicaFactory = dyn Fn() -> Result<Server, LeqaError> + Send + Sync;

/// One backend daemon the shard routes to.
struct Replica {
    /// Current address — replaced when the supervisor restarts an
    /// in-process replica on a fresh port.
    addr: Mutex<SocketAddr>,
    /// Cleared fleet-wide when any connection (or the supervisor's
    /// probe) sees this replica die; set again only by a supervised
    /// restart.
    alive: AtomicBool,
    /// Incarnation counter, bumped on every restart. Links remember the
    /// generation they opened against, so a stale link dying cannot
    /// mark a freshly restarted replica dead.
    generation: AtomicU64,
    /// The in-process server for spawned replicas (used to stop and
    /// join them on shutdown, replaced on restart); `None` for attached
    /// replicas.
    server: Mutex<Option<Server>>,
    /// Whether the supervisor may restart this replica (in-process
    /// spawns only; attached replicas have an external owner).
    supervised: bool,
}

impl Replica {
    fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("no poisoning")
    }

    /// Marks the replica live as a new incarnation, so every client
    /// connection reopens its link instead of reusing a dead one.
    fn revive(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.alive.store(true, Ordering::Release);
    }
}

struct ShardInner {
    replicas: Mutex<Vec<Arc<Replica>>>,
    /// Join handles of in-process replica accept loops.
    replica_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Shutdown flag and client-side transport. Its read-poll period
    /// (`0` = [`DEFAULT_READ_POLL_MS`](crate::server::DEFAULT_READ_POLL_MS))
    /// is also the base of the supervisor's probe pacing (probe period =
    /// 2× it, probe deadline = 4× it).
    engine: Engine,
    /// Builds replacement replicas ([`Shard::supervise`]); `None` means
    /// dead replicas stay dead.
    factory: Mutex<Option<Arc<ReplicaFactory>>>,
    /// Remaining supervised restarts — the bounded give-up.
    restart_budget: AtomicU64,
    /// Replicas the supervisor has restarted (surfaced in merged
    /// `{"cmd":"stats"}` replies as `replicas_restarted`).
    replicas_restarted: AtomicU64,
}

/// The sharded front-end (see the [module docs](self)). Cheaply
/// cloneable (an `Arc` handle); clones share the replica set and
/// shutdown flag.
#[derive(Clone)]
pub struct Shard {
    inner: Arc<ShardInner>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("replicas", &self.replicas())
            .field("shutdown", &self.is_shutting_down())
            .finish_non_exhaustive()
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::new()
    }
}

impl Shard {
    /// An empty shard; add replicas with
    /// [`spawn_replica`](Self::spawn_replica) /
    /// [`attach_replica`](Self::attach_replica) before binding.
    #[must_use]
    pub fn new() -> Shard {
        Shard {
            inner: Arc::new(ShardInner {
                replicas: Mutex::new(Vec::new()),
                replica_threads: Mutex::new(Vec::new()),
                engine: Engine::default(),
                factory: Mutex::new(None),
                restart_budget: AtomicU64::new(0),
                replicas_restarted: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a restart factory and a bounded restart budget: the
    /// supervisor inside [`BoundShard::run`] replaces each dead
    /// in-process replica with `factory()` bound to a fresh port, at
    /// most `budget` times fleet-wide. Build the factory's sessions with
    /// [`SessionBuilder::cache_dir`](crate::SessionBuilder::cache_dir)
    /// and replacements start warm from the profile snapshot store.
    /// Once the budget is spent, dead replicas stay dead and clients
    /// keep receiving retryable `unavailable` errors — the bounded
    /// give-up.
    pub fn supervise(
        &self,
        factory: impl Fn() -> Result<Server, LeqaError> + Send + Sync + 'static,
        budget: u64,
    ) {
        *self.inner.factory.lock().expect("no poisoning") = Some(Arc::new(factory));
        self.inner.restart_budget.store(budget, Ordering::Release);
    }

    /// Sets the read-poll period in milliseconds (`0` = the default,
    /// [`DEFAULT_READ_POLL_MS`](crate::server::DEFAULT_READ_POLL_MS)) —
    /// socket poll granularity and the base of the supervisor's probe
    /// pacing; pass the same value as the replicas'
    /// [`ServerConfig::read_poll_ms`](crate::ServerConfig::read_poll_ms)
    /// so one knob tunes the whole deployment.
    pub fn set_read_poll_ms(&self, ms: u64) {
        let poll = &self.inner.engine.read_poll_ms;
        poll.store(ms, Ordering::Release);
    }

    /// Replicas the supervisor has restarted so far.
    #[must_use]
    pub fn replicas_restarted(&self) -> u64 {
        self.inner.replicas_restarted.load(Ordering::Relaxed)
    }

    /// Spawns `server` as an in-process replica on a loopback port of
    /// the OS's choosing and returns its address. The replica's accept
    /// loop runs on its own thread; it is stopped and joined when the
    /// shard shuts down.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the replica cannot bind or its accept
    /// thread cannot be spawned.
    pub fn spawn_replica(&self, server: Server) -> Result<SocketAddr, LeqaError> {
        let addr = self.start_replica(&server)?;
        self.push_replica(Replica {
            addr: Mutex::new(addr),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            server: Mutex::new(Some(server)),
            supervised: true,
        });
        Ok(addr)
    }

    /// Attaches an already-running daemon at `addr` as a replica. The
    /// shard forwards shutdown to it but does not own its lifecycle.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Usage`] when `addr` is not a valid socket address.
    pub fn attach_replica(&self, addr: &str) -> Result<SocketAddr, LeqaError> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| LeqaError::usage(format!("invalid replica address `{addr}`")))?;
        self.push_replica(Replica {
            addr: Mutex::new(addr),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            server: Mutex::new(None),
            supervised: false,
        });
        Ok(addr)
    }

    /// Number of replicas (live or dead).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.inner.replicas.lock().expect("no poisoning").len()
    }

    /// Whether shutdown was requested. Once set it never clears.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.engine.is_shutting_down()
    }

    /// Requests graceful shutdown: the accept loop stops, client
    /// connections drain, and spawned replicas are stopped and joined by
    /// [`BoundShard::run`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.engine.shutdown();
    }

    /// Binds the front-end listener (port `0` lets the OS pick).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when the address cannot be bound.
    pub fn bind(&self, addr: &str) -> Result<BoundShard, LeqaError> {
        let (listener, local) = self.inner.engine.bind(addr)?;
        Ok(BoundShard {
            shard: self.clone(),
            listener,
            local,
        })
    }

    /// Binds `server` on a loopback port of the OS's choosing and runs
    /// its accept loop on a thread joined at shutdown.
    fn start_replica(&self, server: &Server) -> Result<SocketAddr, LeqaError> {
        let bound = server.bind("127.0.0.1:0")?;
        let addr = bound.local_addr();
        let handle = std::thread::Builder::new()
            .name("leqa-shard-replica".to_string())
            .spawn(move || {
                let _ = bound.run();
            })
            .map_err(LeqaError::from)?;
        let mut threads = self.inner.replica_threads.lock().expect("no poisoning");
        threads.push(handle);
        Ok(addr)
    }

    fn push_replica(&self, replica: Replica) {
        self.inner
            .replicas
            .lock()
            .expect("no poisoning")
            .push(Arc::new(replica));
    }

    fn replica_snapshot(&self) -> Vec<Arc<Replica>> {
        self.inner.replicas.lock().expect("no poisoning").clone()
    }

    /// One supervisor pass: probe live replicas (deadline-bounded stats
    /// ping); revive dead supervised ones that answer again, and restart
    /// the rest while the budget lasts.
    fn supervise_once(&self) {
        let deadline = self.inner.engine.read_poll() * 4;
        for replica in self.replica_snapshot() {
            if self.is_shutting_down() {
                return;
            }
            if replica.alive.load(Ordering::Acquire) {
                if !probe_replica(&replica, deadline) {
                    replica.alive.store(false, Ordering::Release);
                }
            } else if replica.supervised {
                // A dropped link marks its replica dead, but a fault can
                // close one connection without killing the replica.
                if probe_replica(&replica, deadline) {
                    replica.revive();
                } else {
                    self.try_restart(&replica);
                }
            }
        }
    }

    /// Replaces a dead in-process replica with a fresh one from the
    /// restart factory, spending one unit of the bounded budget (a
    /// factory or bind failure still spends it — a persistently failing
    /// environment must converge on give-up, not loop forever).
    fn try_restart(&self, replica: &Arc<Replica>) {
        let factory = self.inner.factory.lock().expect("no poisoning").clone();
        let Some(factory) = factory else {
            return;
        };
        let budget_left = self
            .inner
            .restart_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if !budget_left {
            return;
        }
        let Ok(server) = factory() else {
            return;
        };
        let Ok(addr) = self.start_replica(&server) else {
            return;
        };
        {
            let mut slot = replica.server.lock().expect("no poisoning");
            // The old incarnation may be half-dead rather than gone;
            // make sure it is fully draining before it is dropped.
            if let Some(old) = slot.take() {
                old.shutdown();
            }
            *slot = Some(server);
        }
        // Publish the new address *before* the generation bump: a link
        // that observes the new generation must connect to the new port.
        *replica.addr.lock().expect("no poisoning") = addr;
        replica.revive();
        self.inner
            .replicas_restarted
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Deadline-bounded health probe: connect, send `{"cmd":"stats"}`, and
/// require one full reply line back, each step within the deadline.
fn probe_replica(replica: &Replica, deadline: Duration) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&replica.addr(), deadline) else {
        return false;
    };
    stream.set_read_timeout(Some(deadline)).is_ok()
        && stream.set_write_timeout(Some(deadline)).is_ok()
        && stream.write_all(b"{\"cmd\":\"stats\"}\n").is_ok()
        && read_line_raw(&mut stream).is_some()
}

/// A [`Shard`] bound to its front-door address, ready to
/// [`run`](Self::run).
#[derive(Debug)]
pub struct BoundShard {
    shard: Shard,
    listener: TcpListener,
    local: SocketAddr,
}

impl BoundShard {
    /// The actual bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle to the shard (clone it to trigger [`Shard::shutdown`]
    /// from a supervising thread).
    #[must_use]
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Accepts and serves clients until shutdown, supervising the fleet
    /// the whole time (health probes + bounded restarts — see
    /// [`Shard::supervise`]); then joins client threads, stops spawned
    /// replicas and joins their accept loops.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] when a client thread cannot be spawned.
    pub fn run(self) -> Result<(), LeqaError> {
        let supervisor = {
            let shard = self.shard.clone();
            std::thread::Builder::new()
                .name("leqa-shard-supervisor".to_string())
                .spawn(move || {
                    // Probe at 2× the read-poll period: fast enough that
                    // a dead replica is noticed within a few poll ticks,
                    // slow enough that probes stay background noise.
                    while !shard.is_shutting_down() {
                        std::thread::sleep(shard.inner.engine.read_poll() * 2);
                        if shard.is_shutting_down() {
                            break;
                        }
                        shard.supervise_once();
                    }
                })
                .map_err(LeqaError::from)?
        };
        conn::accept_loop(&self.shard, self.listener)?;
        let _ = supervisor.join();
        // Stop spawned replicas (already draining when the shutdown came
        // over the wire — `Server::shutdown` is idempotent) and join
        // their accept loops.
        for replica in self.shard.replica_snapshot() {
            if let Some(server) = replica.server.lock().expect("no poisoning").as_ref() {
                server.shutdown();
            }
        }
        let threads: Vec<_> = self
            .shard
            .inner
            .replica_threads
            .lock()
            .expect("no poisoning")
            .drain(..)
            .collect();
        for handle in threads {
            let _ = handle.join();
        }
        Ok(())
    }
}

// ── Per-connection state ─────────────────────────────────────────────

enum PendingKind {
    /// Forward the replica's reply verbatim.
    Work,
    /// A control frame sent to every live replica, answered once each
    /// `outstanding` replica replied or died: `stats` with the sum of the
    /// replies (`acc`), `shutdown` with one ack, then the shard stops.
    Broadcast {
        control: ControlFrame,
        outstanding: Vec<usize>,
        acc: Box<StatsResponse>,
    },
}

struct Pending {
    /// Replica the frame was sent to (`usize::MAX` for broadcasts).
    replica: usize,
    /// Routing hash, for re-routing on failover.
    hash: u64,
    /// The frame payload, for re-sending on failover.
    payload: String,
    deliver: Reply,
    kind: PendingKind,
}

/// A replica link as seen by one client connection. Each open/dead link
/// remembers the replica *generation* it belongs to, so links to a dead
/// incarnation are replaced (and their late failures ignored) once the
/// supervisor restarts the replica.
enum Link {
    /// Not opened yet (links open lazily on first routed frame).
    Closed,
    /// Upgraded to `frame1`; a reader thread is draining replies.
    Up { stream: TcpStream, generation: u64 },
    /// This connection saw the link for that generation die.
    Dead { generation: u64 },
}

struct ConnState {
    shard: Shard,
    /// Replica set snapshot (index-stable for this connection; the
    /// `alive` flags inside are the shared fleet-wide ones).
    replicas: Vec<Arc<Replica>>,
    links: Vec<Mutex<Link>>,
    pending: Mutex<HashMap<u32, Pending>>,
    /// Internal tags for line-mode requests.
    next_tag: AtomicU32,
    /// Set when the client connection closes; replica readers poll it.
    closed: AtomicBool,
}

/// One client connection's state, shared with its replica readers.
pub(crate) struct ClientConn(Arc<ConnState>);

impl Drop for ClientConn {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Release);
    }
}

fn error_frame(kind: ErrorKind, message: impl Into<String>) -> String {
    ErrorFrame::new(LeqaError::new(kind, message))
        .to_json()
        .encode()
}

/// The shard's side of the connection engine: every request is routed
/// to a replica (or broadcast) and answered when the replica replies.
impl Handler for Shard {
    type Conn = ClientConn;

    const THREAD: &'static str = "leqa-shard-conn";

    fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    fn open(&self) -> ClientConn {
        let replicas = self.replica_snapshot();
        ClientConn(Arc::new(ConnState {
            shard: self.clone(),
            links: (0..replicas.len())
                .map(|_| Mutex::new(Link::Closed))
                .collect(),
            replicas,
            pending: Mutex::new(HashMap::new()),
            next_tag: AtomicU32::new(0),
            closed: AtomicBool::new(false),
        }))
    }

    /// Line mode: submit under an internal tag and wait for the one
    /// reply, keeping NDJSON's one-reply-per-line-in-order contract.
    fn line(&self, conn: &ClientConn, line: &str) -> String {
        let tag = conn.0.next_tag.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = Reply::rendezvous(tag);
        submit(&conn.0, tag, line.to_string(), reply, false);
        rx.recv().map_or_else(
            |_| error_frame(ErrorKind::Internal, "reply channel dropped"),
            |out| out.reply,
        )
    }

    /// Frame mode: the client's tag is the routing identity; replica
    /// readers answer out of order.
    fn frame(&self, conn: &ClientConn, tag: u32, text: String, reply: Reply) {
        submit(&conn.0, tag, text, reply, true);
    }

    fn error_reply(&self, error: LeqaError) -> String {
        ErrorFrame::new(error).to_json().encode()
    }
}

/// Classifies and routes one request: work frames go to the replica
/// owning the program's content hash; control frames broadcast.
/// `framed` says whether the client speaks `frame1`.
fn submit(conn: &Arc<ConnState>, tag: u32, text: String, deliver: Reply, framed: bool) {
    let frame = match Frame::parse(text.trim()) {
        Ok(frame) => frame,
        Err(e) => return deliver.send(ErrorFrame::new(e).to_json().encode()),
    };
    match frame {
        Frame::Control(ControlFrame::Upgrade(_)) => {
            let message = if framed {
                "connection already upgraded to frame1"
            } else {
                "`upgrade` is only available on the TCP transport"
            };
            deliver.send(error_frame(ErrorKind::Json, message));
        }
        Frame::Control(control) => broadcast(conn, tag, &text, control, deliver),
        work => {
            let hash = route_hash(&work, &text);
            let Some(replica) = route(conn, hash) else {
                return deliver.send(no_live_replicas());
            };
            conn.pending.lock().expect("no poisoning").insert(
                tag,
                Pending {
                    replica,
                    hash,
                    payload: text.clone(),
                    deliver,
                    kind: PendingKind::Work,
                },
            );
            if !send_to_replica(conn, replica, tag, &text) {
                fail_current(conn, replica);
            }
        }
    }
}

fn no_live_replicas() -> String {
    error_frame(
        ErrorKind::Unavailable,
        "no live replicas (fleet dead or restarting); retry",
    )
}

/// The routing hash: program identity text for single requests (cache
/// affinity — every repeat of a program lands on the same replica),
/// whole payload for batch/experiment envelopes.
fn route_hash(frame: &Frame, text: &str) -> u64 {
    match frame {
        Frame::Single(req) => {
            let identity = match req.program() {
                crate::ProgramSpec::Bench { name } => name.as_str(),
                crate::ProgramSpec::Path { path } => path.as_str(),
                crate::ProgramSpec::Source { text } => text.as_str(),
            };
            fnv1a(identity.as_bytes())
        }
        _ => fnv1a(text.trim().as_bytes()),
    }
}

/// First live replica scanning from `hash % n` (wraps around).
fn route(conn: &Arc<ConnState>, hash: u64) -> Option<usize> {
    let n = conn.replicas.len();
    if n == 0 {
        return None;
    }
    let start = usize::try_from(hash % n as u64).expect("mod n fits usize");
    (0..n)
        .map(|i| (start + i) % n)
        .find(|&r| conn.replicas[r].alive.load(Ordering::Acquire))
}

/// Fans a control frame out to every live replica; the pending entry
/// completes when the last outstanding replica answers (or dies).
fn broadcast(conn: &Arc<ConnState>, tag: u32, text: &str, control: ControlFrame, deliver: Reply) {
    let targets: Vec<usize> = (0..conn.replicas.len())
        .filter(|&r| conn.replicas[r].alive.load(Ordering::Acquire))
        .collect();
    if targets.is_empty() {
        return deliver.send(no_live_replicas());
    }
    conn.pending.lock().expect("no poisoning").insert(
        tag,
        Pending {
            replica: usize::MAX,
            hash: 0,
            payload: text.to_string(),
            deliver,
            kind: PendingKind::Broadcast {
                control,
                outstanding: targets.clone(),
                acc: Box::default(),
            },
        },
    );
    for r in targets {
        if !send_to_replica(conn, r, tag, text) {
            fail_current(conn, r);
        }
    }
}

/// Writes one frame on replica `r`'s link, opening (and upgrading) the
/// link first if needed — including *re*-opening a link whose replica
/// has been restarted since this connection last saw it (newer
/// generation, alive again). Returns false when the link is dead or the
/// write failed — the caller runs failover.
fn send_to_replica(conn: &Arc<ConnState>, r: usize, tag: u32, text: &str) -> bool {
    let replica = &conn.replicas[r];
    let mut link = conn.links[r].lock().expect("no poisoning");
    let current = replica.generation.load(Ordering::Acquire);
    let reopen = match &*link {
        Link::Closed => true,
        // A link to an older incarnation: dead or not, the stream (if
        // any) points at a stale port — reconnect to the restarted
        // replica.
        Link::Up { generation, .. } | Link::Dead { generation } => *generation < current,
    };
    if reopen && replica.alive.load(Ordering::Acquire) {
        *link = match open_link(conn, r, current) {
            Some(stream) => Link::Up {
                stream,
                generation: current,
            },
            None => Link::Dead {
                generation: current,
            },
        };
    }
    let Link::Up { stream, .. } = &mut *link else {
        return false;
    };
    if write_frame(stream, tag, text.trim().as_bytes()).is_err() || stream.flush().is_err() {
        *link = Link::Dead {
            generation: current,
        };
        return false;
    }
    true
}

/// Connects to replica `r` (generation `generation`), performs the
/// NDJSON → `frame1` upgrade handshake, and spawns the reply reader
/// thread.
fn open_link(conn: &Arc<ConnState>, r: usize, generation: u64) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(conn.replicas[r].addr()).ok()?;
    stream.set_nodelay(true).ok()?;
    let upgrade = ControlFrame::Upgrade(crate::FrameProto::Frame1).to_json();
    stream
        .write_all(format!("{}\n", upgrade.encode()).as_bytes())
        .ok()?;
    let ack = String::from_utf8(read_line_raw(&mut stream)?).ok()?;
    UpgradeAck::from_json(&json::parse(ack.trim()).ok()?).ok()?;
    stream
        .set_read_timeout(Some(conn.shard.inner.engine.read_poll()))
        .ok()?;
    let reader_stream = stream.try_clone().ok()?;
    let conn = Arc::clone(conn);
    std::thread::Builder::new()
        .name("leqa-shard-link".to_string())
        .spawn(move || replica_reader(&conn, r, generation, reader_stream))
        .ok()?;
    Some(stream)
}

/// Reads one `\n`-terminated line of at most 4 KiB byte by byte (a
/// link's upgrade ack, where buffering past the line would swallow the
/// start of the frame stream, or a probe's stats reply). A read timeout
/// ends it like EOF.
fn read_line_raw(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while line.len() <= 4096 {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => return Some(line),
            Ok(_) => line.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    None
}

/// Drains reply frames from replica `r` (generation `generation`) and
/// completes pending entries; EOF or a read error triggers failover for
/// that generation.
fn replica_reader(conn: &Arc<ConnState>, r: usize, generation: u64, mut stream: TcpStream) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if conn.closed.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                fail_replica(conn, r, generation);
                return;
            }
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next() {
                        Ok(Some((tag, payload))) => handle_replica_reply(conn, r, tag, &payload),
                        Ok(None) => break,
                        Err(_) => {
                            fail_replica(conn, r, generation);
                            return;
                        }
                    }
                }
            }
            Err(e) if conn::is_tick(&e) => {}
            Err(_) => {
                fail_replica(conn, r, generation);
                return;
            }
        }
    }
}

/// Completes (or advances) the pending entry a replica reply belongs to.
fn handle_replica_reply(conn: &Arc<ConnState>, r: usize, tag: u32, payload: &[u8]) {
    let Ok(text) = String::from_utf8(payload.to_vec()) else {
        // The protocol is ASCII JSON, so a non-UTF-8 reply can only be
        // transport corruption (e.g. injected byte flips): resend the
        // request instead of forwarding garbage.
        return resend_pending(conn, r, tag);
    };
    let mut pending = conn.pending.lock().expect("no poisoning");
    let done = match pending.get_mut(&tag) {
        None => return, // stale (re-routed after this replica died)
        Some(entry) => match &mut entry.kind {
            PendingKind::Work => true,
            PendingKind::Broadcast {
                control,
                outstanding,
                acc,
            } => {
                if *control == ControlFrame::Stats {
                    if let Ok(stats) = json::parse(&text)
                        .map_err(LeqaError::from)
                        .and_then(|doc| StatsResponse::from_json(&doc))
                    {
                        acc.merge(&stats);
                    }
                }
                outstanding.retain(|&x| x != r);
                outstanding.is_empty()
            }
        },
    };
    if !done {
        return;
    }
    let entry = pending.remove(&tag).expect("entry present");
    drop(pending);
    complete(conn, entry, Some(text));
}

/// Delivers a completed pending entry to the client.
fn complete(conn: &Arc<ConnState>, entry: Pending, reply: Option<String>) {
    match entry.kind {
        PendingKind::Work => entry.deliver.send(reply.unwrap_or_else(|| {
            error_frame(
                ErrorKind::Unavailable,
                "replica connection lost with no live replica to fail over to; retry",
            )
        })),
        PendingKind::Broadcast {
            control: ControlFrame::Stats,
            mut acc,
            ..
        } => {
            // The replicas each report 0 restarts (the supervisor lives
            // here, not there); the fleet-wide count is the shard's.
            acc.replicas_restarted += conn.shard.replicas_restarted();
            entry.deliver.send(acc.to_json().encode());
        }
        PendingKind::Broadcast { .. } => {
            entry.deliver.send(ShutdownAck.to_json().encode());
            conn.shard.shutdown();
        }
    }
}

/// Failover: marks replica `r` dead fleet-wide (only when the failing
/// link belongs to its *current* incarnation — a stale link dying says
/// nothing about a restarted replica), re-routes its in-flight work
/// frames to the next live replica (requests are pure computations, so a
/// resend is safe), and completes broadcasts without it.
fn fail_replica(conn: &Arc<ConnState>, r: usize, generation: u64) {
    let replica = &conn.replicas[r];
    if replica.generation.load(Ordering::Acquire) == generation {
        replica.alive.store(false, Ordering::Release);
    }
    {
        let mut link = conn.links[r].lock().expect("no poisoning");
        // Never clobber a link that has already moved on to a newer
        // incarnation.
        let stale = match &*link {
            Link::Closed => true,
            Link::Up { generation: g, .. } | Link::Dead { generation: g } => *g <= generation,
        };
        if stale {
            *link = Link::Dead { generation };
        }
    }
    let mut resend: Vec<(u32, String, usize)> = Vec::new();
    let mut completed: Vec<Pending> = Vec::new();
    {
        let mut pending = conn.pending.lock().expect("no poisoning");
        let tags: Vec<u32> = pending.keys().copied().collect();
        for tag in tags {
            let entry = pending.get_mut(&tag).expect("tag present");
            match &mut entry.kind {
                PendingKind::Work => {
                    if entry.replica != r {
                        continue;
                    }
                    match route(conn, entry.hash) {
                        Some(next) => {
                            entry.replica = next;
                            resend.push((tag, entry.payload.clone(), next));
                        }
                        None => {
                            completed.push(pending.remove(&tag).expect("tag present"));
                        }
                    }
                }
                PendingKind::Broadcast { outstanding, .. } => {
                    outstanding.retain(|&x| x != r);
                    if outstanding.is_empty() {
                        completed.push(pending.remove(&tag).expect("tag present"));
                    }
                }
            }
        }
    }
    for entry in completed {
        complete(conn, entry, None);
    }
    for (tag, payload, next) in resend {
        if !send_to_replica(conn, next, tag, &payload) {
            fail_current(conn, next);
        }
    }
}

/// Fails replica `r`'s *current* incarnation (used where the failure was
/// observed on a just-attempted send rather than an existing link).
fn fail_current(conn: &Arc<ConnState>, r: usize) {
    let generation = conn.replicas[r].generation.load(Ordering::Acquire);
    fail_replica(conn, r, generation);
}

/// Resends a pending entry's payload to replica `r` after a corrupt
/// reply (the request is a pure computation, so re-execution is safe).
/// Work entries resend only if they are still routed to `r`; broadcast
/// entries resend whenever `r` is still outstanding.
fn resend_pending(conn: &Arc<ConnState>, r: usize, tag: u32) {
    let payload = {
        let pending = conn.pending.lock().expect("no poisoning");
        pending.get(&tag).and_then(|entry| match &entry.kind {
            PendingKind::Work => (entry.replica == r).then(|| entry.payload.clone()),
            PendingKind::Broadcast { outstanding, .. } => {
                outstanding.contains(&r).then(|| entry.payload.clone())
            }
        })
    };
    if let Some(payload) = payload {
        if !send_to_replica(conn, r, tag, &payload) {
            fail_current(conn, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimateRequest, ProgramSpec, Request, Session};
    use std::io::{BufRead, BufReader};

    fn estimate_line(name: &str) -> String {
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
            .to_json()
            .encode()
    }

    fn shard_with_replicas(n: usize) -> (Shard, Vec<Server>) {
        let shard = Shard::new();
        let servers: Vec<Server> = (0..n)
            .map(|_| Server::new(Session::builder().build().expect("session")))
            .collect();
        for server in &servers {
            shard.spawn_replica(server.clone()).expect("replica spawns");
        }
        (shard, servers)
    }

    fn run_shard(shard: &Shard) -> (SocketAddr, std::thread::JoinHandle<Result<(), LeqaError>>) {
        let bound = shard.bind("127.0.0.1:0").expect("bind");
        let addr = bound.local_addr();
        let handle = std::thread::spawn(move || bound.run());
        (addr, handle)
    }

    struct LineClient {
        reader: BufReader<TcpStream>,
        stream: TcpStream,
    }

    impl LineClient {
        fn connect(addr: SocketAddr) -> LineClient {
            let stream = TcpStream::connect(addr).expect("connect");
            LineClient {
                reader: BufReader::new(stream.try_clone().expect("clone")),
                stream,
            }
        }

        fn roundtrip(&mut self, line: &str) -> String {
            writeln!(self.stream, "{line}").expect("write");
            self.stream.flush().expect("flush");
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("read");
            reply.trim_end_matches('\n').to_string()
        }
    }

    #[test]
    fn shard_routes_work_merges_stats_and_shuts_down() {
        let (shard, _servers) = shard_with_replicas(2);
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        // Byte-identity with a direct session, cold then warm: the
        // repeat must land on the same replica (cache affinity), so its
        // reply carries `profile_cached: true` exactly like the direct
        // session's second call.
        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), cold);
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), warm);

        // Stats broadcast: merged across both replicas.
        let stats_reply = client.roundtrip(r#"{"cmd":"stats"}"#);
        let stats = StatsResponse::from_json(&json::parse(&stats_reply).unwrap()).unwrap();
        assert_eq!(stats.estimate, 2, "{stats_reply}");
        assert_eq!(stats.cache.cache_hits, 1, "affinity: {stats_reply}");
        assert!(stats.connections >= 2, "both replicas: {stats_reply}");

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert_eq!(ack, ShutdownAck.to_json().encode());
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn shard_fails_over_when_a_replica_dies_midstream() {
        let (shard, servers) = shard_with_replicas(2);
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        let r1 = client.roundtrip(&estimate_line("qft_8"));
        let r2 = client.roundtrip(&estimate_line("qft_16"));
        assert!(r1.contains("\"op\":\"estimate\""), "{r1}");
        assert!(r2.contains("\"op\":\"estimate\""), "{r2}");

        // Kill replica 0 out from under the shard. Requests racing the
        // replica's drain may see one `overloaded` refusal forwarded
        // verbatim; once the dropped link is observed, work re-routes to
        // the surviving replica.
        servers[0].shutdown();
        for name in ["qft_8", "qft_16", "qft_8"] {
            let mut reply = String::new();
            for _ in 0..100 {
                reply = client.roundtrip(&estimate_line(name));
                if reply.contains("\"op\":\"estimate\"") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert!(
                reply.contains("\"op\":\"estimate\""),
                "after failover: {reply}"
            );
        }

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn supervisor_restarts_dead_replicas_warm_from_the_store() {
        let dir = std::env::temp_dir().join(format!("leqa-shard-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new();
        shard.set_read_poll_ms(10); // fast probes so the test converges quickly
        let server = Server::new(
            Session::builder()
                .cache_dir(&dir)
                .build()
                .expect("session with store"),
        );
        shard.spawn_replica(server.clone()).expect("replica spawns");
        let factory_dir = dir.clone();
        shard.supervise(
            move || {
                Ok(Server::new(
                    Session::builder().cache_dir(&factory_dir).build()?,
                ))
            },
            4,
        );
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);

        // Warm the snapshot store through the first incarnation, and pin
        // the byte-stable direct replies for later comparison.
        let direct = Session::builder().build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
        let cold = direct.estimate(&req).unwrap().to_json().encode();
        let warm = direct.estimate(&req).unwrap().to_json().encode();
        assert_eq!(client.roundtrip(&estimate_line("qft_8")), cold);

        // Kill the only replica out from under the shard; the supervisor
        // must notice (probe failure or link death) and restart it.
        server.shutdown();
        let mut reply = String::new();
        for _ in 0..500 {
            reply = client.roundtrip(&estimate_line("qft_8"));
            if reply.contains("\"op\":\"estimate\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            reply == cold || reply == warm,
            "restarted replica answers byte-identically: {reply}"
        );

        // The replacement came up warm from the snapshot store: it
        // served a seen program without building a single profile.
        let stats_reply = client.roundtrip(r#"{"cmd":"stats"}"#);
        let stats = StatsResponse::from_json(&json::parse(&stats_reply).unwrap()).unwrap();
        assert!(stats.replicas_restarted >= 1, "{stats_reply}");
        assert_eq!(stats.replicas_restarted, shard.replicas_restarted());
        assert!(stats.store_hits >= 1, "warm from store: {stats_reply}");
        assert_eq!(
            stats.cache.profile_builds, 0,
            "no rebuilds after restart: {stats_reply}"
        );

        let ack = client.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        handle.join().expect("no panic").expect("clean exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_fleet_without_a_factory_answers_unavailable() {
        let shard = Shard::new();
        shard.set_read_poll_ms(5);
        // Port 9 (discard) on loopback: nothing listens, connects are
        // refused immediately — a permanently dead attached replica.
        shard.attach_replica("127.0.0.1:9").expect("valid address");
        let (addr, handle) = run_shard(&shard);
        let mut client = LineClient::connect(addr);
        let reply = client.roundtrip(&estimate_line("qft_8"));
        let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Unavailable, "{reply}");
        // Unavailable is the retryable give-up: it stays Unavailable, it
        // never escalates or crashes the front-end.
        let again = client.roundtrip(&estimate_line("qft_8"));
        let frame = ErrorFrame::from_json(&json::parse(&again).unwrap()).unwrap();
        assert_eq!(frame.error.kind(), ErrorKind::Unavailable, "{again}");
        drop(client);
        shard.shutdown();
        handle.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn attach_replica_validates_addresses() {
        let shard = Shard::new();
        assert!(shard.attach_replica("not-an-addr").is_err());
        shard.attach_replica("127.0.0.1:9").expect("valid");
        assert_eq!(shard.replicas(), 1);
    }
}
