//! `design_loop`: a warm daemon answering a design loop.
//!
//! An in-process daemon (`Server::bind` on loopback, NDJSON) keeps six
//! programs resident; one client connection sends a seeded mix of
//! `estimate` and `sweep` requests, each with its own fabric side, closed
//! loop. (Two connections keep both cores of the two-core reference
//! machine busy, and their throughput then swung by a third between runs
//! as the host placed the two virtual cores; one connection stays steady.) Every load is a cache hit. Set-up restarts the daemon on a
//! snapshot store filled by an earlier untimed pass, so `setup_s` measures
//! the store's read path.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leqa::ProfileData;
use leqa_api::{json, LeqaError, ProfileStore, ProgramSpec, Request, Response, Server, Session};
use leqa_circuit::Qodg;

use crate::check::{self, Reply};
use crate::gen::{self, Op, Req, DESIGN_PROGRAMS};
use crate::layers::{self, TraceInputs};
use crate::trace::{LayerCalls, Span, Tracer};
use crate::{alloc, Ctx, EndToEnd, Metric, Outcome};

/// Daemon restarts timed for `setup_s`.
const SETUPS: usize = 5;

struct Daemon {
    server: Server,
    addr: SocketAddr,
    thread: JoinHandle<Result<(), LeqaError>>,
}

impl Daemon {
    /// Starts a daemon on `store` and warms every resident program.
    fn start(store: &Path) -> Daemon {
        let session = Session::builder()
            .cache_dir(store)
            .build()
            .expect("the store directory opens");
        let server = Server::new(session);
        let bound = server.bind("127.0.0.1:0").expect("loopback binds");
        let addr = bound.local_addr();
        let thread = std::thread::spawn(move || bound.run());
        for name in DESIGN_PROGRAMS {
            let handle = server
                .session()
                .load(&ProgramSpec::bench(name))
                .expect("resident programs load");
            let _ = handle.profile_data();
        }
        Daemon {
            server,
            addr,
            thread,
        }
    }

    fn stop(self) {
        self.server.shutdown();
        self.thread
            .join()
            .expect("the daemon thread panicked")
            .expect("the daemon stops cleanly");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("the daemon accepts");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("socket clones"));
        Client {
            reader,
            writer,
            reply: String::new(),
        }
    }

    /// Sends one line and waits for the reply line.
    fn call(&mut self, line: &str) -> &str {
        self.writer
            .write_all(line.as_bytes())
            .expect("request written");
        self.writer.write_all(b"\n").expect("request written");
        self.reply.clear();
        self.reader.read_line(&mut self.reply).expect("reply read");
        self.reply.trim_end()
    }
}

/// Distinct replies per request, each with how often it arrived.
#[derive(Default)]
struct Replies(HashMap<Req, Vec<(String, u64)>>);

impl Replies {
    fn record(&mut self, req: Req, reply: &str) {
        let seen = self.0.entry(req).or_default();
        match seen.iter_mut().find(|(r, _)| r == reply) {
            Some((_, n)) => *n += 1,
            None => seen.push((reply.to_string(), 1)),
        }
    }

    fn decoded(self) -> Vec<(Req, Reply, u64)> {
        let mut out = Vec::new();
        for (req, seen) in self.0 {
            for (line, n) in seen {
                let reply = json::parse(&line)
                    .map_err(|e| e.to_string())
                    .and_then(|doc| Response::from_json(&doc).map_err(|e| e.to_string()))
                    .map_or_else(|e| Reply::Failed(format!("{e}: {line}")), Reply::Ok);
                out.push((req.clone(), reply, n));
            }
        }
        out
    }
}

/// Fills the snapshot store the way an earlier daemon would have.
fn fill_store(store: &Path) {
    let session = Session::builder()
        .cache_dir(store)
        .build()
        .expect("the store directory opens");
    for name in DESIGN_PROGRAMS {
        let _ = session
            .load(&ProgramSpec::bench(name))
            .expect("resident programs load")
            .profile_data();
    }
}

fn accuracy_programs() -> BTreeSet<String> {
    DESIGN_PROGRAMS.iter().map(|p| p.to_string()).collect()
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let store = ctx.dir("store");
    fill_store(&store);
    if trace {
        return run_traced(ctx, &store);
    }

    let mut e2e = EndToEnd::default();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let started = Daemon::start(&store);
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            started.stop();
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    let mut client = Client::connect(daemon.addr);
    let mut replies = Replies::default();
    let start = Instant::now();
    closed_loop(&mut client, ctx, ctx.duration, &mut replies, |t0| {
        e2e.record(start, t0)
    });
    e2e.peak_heap_mib = alloc::peak_mib();
    drop(client);
    daemon.stop();

    let attempted = e2e.samples.len() as u64;
    let checked = check::check(&replies.decoded(), &accuracy_programs());
    e2e.error_pct = checked.error_pct;
    let mut report = checked.messages;
    let metrics = e2e.metrics(&mut report);
    Outcome {
        attempted,
        failed: checked.failed,
        metrics,
        report,
    }
}

/// Sends the workload's requests in order over one connection until
/// `budget` has passed, recording every reply; `timed` runs as each reply
/// arrives, with the instant its request was sent.
fn closed_loop(
    client: &mut Client,
    ctx: &Ctx,
    budget: Duration,
    replies: &mut Replies,
    mut timed: impl FnMut(Instant),
) {
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        let req = gen::design_loop(ctx.seed, k);
        k += 1;
        let line = req.line();
        let t0 = Instant::now();
        let reply = client.call(&line);
        timed(t0);
        replies.record(req, reply);
    }
}

/// Reads one counter of the daemon's `stats` control frame.
fn stat(client: &mut Client, field: &str) -> u64 {
    let reply = client.call("{\"cmd\":\"stats\"}");
    json::parse(reply)
        .ok()
        .and_then(|doc| doc.get(field).and_then(json::Json::as_u64))
        .expect("the stats frame carries byte counters")
}

fn run_traced(ctx: &Ctx, store: &Path) -> Outcome {
    let mut t = Tracer::default();
    // Set-up as the daemon restart performs it: re-derive, lower, and read
    // the profile from the snapshot store.
    let snapshots = ProfileStore::open(store).expect("the store directory opens");
    let mut resident: BTreeMap<&str, (Qodg, ProfileData)> = BTreeMap::new();
    for name in DESIGN_PROGRAMS {
        let circuit = layers::generate(&mut t, name);
        let source = layers::write(&mut t, &circuit);
        let qodg = layers::lower(&mut t, &circuit);
        let data = layers::store_load(&mut t, &snapshots, &source).expect("the store was filled");
        resident.insert(name, (qodg, data));
    }
    let daemon = Daemon::start(store);
    let session = daemon.server.session();
    let mut client = Client::connect(daemon.addr);

    let mut replies = Replies::default();
    let mut untraced_ns = Vec::new();
    closed_loop(&mut client, ctx, ctx.duration / 4, &mut replies, |t0| {
        untraced_ns.push(t0.elapsed().as_nanos() as u64)
    });

    // Traced replay of the same requests.
    let bytes_in0 = stat(&mut client, "bytes_in");
    let bytes_out0 = stat(&mut client, "bytes_out");
    let cache0 = session.cache_stats();
    let mut transport = LayerCalls::default();
    let mut mismatched = 0;
    for k in 0..untraced_ns.len() as u64 {
        t.set_request(k);
        let req = gen::design_loop(ctx.seed, k);
        let line = req.line();
        let first = t.spans().len();
        let reply = t.span("api.server.roundtrip", |_| client.call(&line).to_string());
        let request = t.span("api.json.decode", |_| {
            Request::from_json(&json::parse(&line).expect("generated lines parse"))
                .expect("generated requests decode")
        });
        let response = t.span("api.session.execute", |_| session.execute(&request));
        let encoded = t.span_work("api.json.encode", |_| {
            let text = response.map(|r| r.to_json().encode()).unwrap_or_default();
            let bytes = text.len() as u64;
            (text, bytes)
        });
        if encoded != reply {
            mismatched += 1;
        }
        replies.record(req.clone(), &reply);
        // The steps of the warm `Session` call, layer by layer.
        let (qodg, data) = &resident[req.program.as_str()];
        let circuit = layers::generate(&mut t, &req.program);
        let _ = layers::write(&mut t, &circuit);
        match &req.op {
            Op::Estimate { side } => {
                let _ = layers::fabric_half(&mut t, qodg, data, *side);
            }
            Op::Sweep { sizes } => layers::sweep(&mut t, qodg, data, sizes),
            Op::Compare { .. } => unreachable!("design_loop sends no compare"),
        }
        // Transport: the round trip less the daemon's decode, execute and
        // encode of the same request (the four spans opened first).
        let d: Vec<u64> = t.spans()[first..first + 4]
            .iter()
            .map(Span::duration_ns)
            .collect();
        transport.push(d[0].saturating_sub(d[1] + d[2] + d[3]), 0, 0);
    }
    let traced = untraced_ns.len() as f64;
    let bytes_in = (stat(&mut client, "bytes_in") - bytes_in0) as f64 / traced;
    let bytes_out = (stat(&mut client, "bytes_out") - bytes_out0) as f64 / traced;
    let cache1 = session.cache_stats();
    drop(client);
    daemon.stop();

    let decoded = replies.decoded();
    let attempted = decoded.iter().map(|(_, _, n)| n).sum::<u64>();
    let checked = check::check(&decoded, &BTreeSet::new());
    let failed = checked.failed + mismatched;

    let by_layer = t.by_layer(|s| s.request != crate::trace::SETUP);
    let total = |name: &str| by_layer.get(name).map_or(0, LayerCalls::total_ns) as f64;
    let rederive = (total("workloads.generate") + total("circuit.parser.write"))
        / total("api.session.execute").max(1.0);
    let hits = cache1.cache_hits - cache0.cache_hits;
    let loads = (cache1.loads - cache0.loads).max(1);
    let mut derived = BTreeMap::new();
    derived.insert("api.server.transport", transport);
    let extra = vec![
        Metric::new("api.session.rederive_share", rederive, "ratio"),
        Metric::new(
            "api.session.cache_hit_ratio",
            hits as f64 / loads as f64,
            "ratio",
        ),
        Metric::new("api.server.bytes_in", bytes_in, "bytes"),
        Metric::new("api.server.bytes_out", bytes_out, "bytes"),
    ];
    let inputs = TraceInputs {
        untraced_ns,
        request_layer: "api.server.roundtrip",
        blocking: vec![
            "api.server.transport",
            "api.json.decode",
            "workloads.generate",
            "circuit.parser.write",
            "leqa.estimator.fabric_half",
            "leqa.sweep.sweep",
            "api.json.encode",
        ],
        derived,
        extra,
    };
    crate::finish_traced(ctx, t, inputs, attempted, failed, checked.messages)
}
