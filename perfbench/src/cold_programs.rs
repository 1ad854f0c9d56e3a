//! `cold_programs`: every request names a program the session has not
//! seen.
//!
//! One caller, closed loop, direct `Session` calls. Requests come in
//! rounds; each round runs on a fresh `Session` with a fresh snapshot
//! store and holds every named program (the Table 2 suite, `shor_64`
//! materialized, `shor_256` streamed) plus seeded `random_Q_G_S` draws, in
//! a seeded order. Nearly all time goes to generate, canonical write,
//! lowering, QODG, profile, the streaming pipeline and the store's write
//! path.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use leqa_api::{EstimateRequest, ProfileStore, ProgramSpec, Session, DEFAULT_STREAMING_THRESHOLD};

use crate::check::{self, Reply};
use crate::gen::{self, Op, Req};
use crate::layers::{self, TraceInputs};
use crate::trace::Tracer;
use crate::{alloc, Ctx, EndToEnd, Metric, Outcome};

/// Cold starts timed for `setup_s`: a fresh store and `Session`, up to
/// its first answer (an estimate of [`FIRST_ANSWER`]). Building the
/// session alone takes about a microsecond, too little to time steadily.
const SETUPS: usize = 25;
const FIRST_ANSWER: &str = "qft_64";

fn fresh_session(store: &Path) -> Session {
    Session::builder()
        .cache_dir(store)
        .build()
        .expect("the store directory opens")
}

/// The named programs that fit the paper's fabric (all but `shor_256`).
fn accuracy_programs() -> BTreeSet<String> {
    gen::cold_named()
        .into_iter()
        .filter(|name| gen::lowered_qubits(name) <= gen::PAPER_SIDE * gen::PAPER_SIDE)
        .map(String::from)
        .collect()
}

/// Runs the workload's requests round by round until `budget` has passed,
/// or, with `count`, exactly that many requests. Calls `each` with the
/// round's session and store directory around every request.
fn drive(
    ctx: &Ctx,
    tag: &str,
    budget: Duration,
    count: Option<usize>,
    mut each: impl FnMut(&Session, &Path, u64, &Req),
) -> usize {
    let start = Instant::now();
    let mut done = 0;
    for round in 0.. {
        let store = ctx.dir(&format!("{tag}-{round}"));
        let session = fresh_session(&store);
        let mut finished = false;
        for req in gen::cold_round(ctx.seed, round) {
            finished = match count {
                Some(n) => done >= n,
                None => start.elapsed() >= budget,
            };
            if finished {
                break;
            }
            each(&session, &store, done as u64, &req);
            done += 1;
        }
        drop(session);
        // A round writes about 20 MB of snapshots (they carry the canonical
        // source) that nothing reads again. Removing them while they are
        // still in the page cache keeps a run from writing gigabytes to
        // disk and stalling on writeback.
        let _ = std::fs::remove_dir_all(&store);
        if finished {
            return done;
        }
    }
    unreachable!("rounds never run out")
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    if trace {
        return run_traced(ctx);
    }
    let mut e2e = EndToEnd::default();
    let first = EstimateRequest::new(ProgramSpec::bench(FIRST_ANSWER));
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let session = fresh_session(&ctx.scratch.join(format!("setup-{i}")));
        session.estimate(&first).expect("the first answer succeeds");
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut replies: Vec<(Req, Reply, u64)> = Vec::new();
    let start = Instant::now();
    drive(ctx, "round", ctx.duration, None, |session, _, _, req| {
        let request = req.request();
        let t0 = Instant::now();
        let reply = session.execute(&request);
        e2e.record(start, t0);
        let reply = reply.map_or_else(|e| Reply::Failed(e.to_string()), Reply::Ok);
        replies.push((req.clone(), reply, 1));
    });
    e2e.peak_heap_mib = alloc::peak_mib();

    let attempted = replies.len() as u64;
    let t0 = Instant::now();
    let checked = check::check(&replies, &accuracy_programs());
    e2e.error_pct = checked.error_pct;
    let mut report = checked.messages;
    report.push(format!("checks took {:.1} s", t0.elapsed().as_secs_f64()));
    let metrics = e2e.metrics(&mut report);
    Outcome {
        attempted,
        failed: checked.failed,
        metrics,
        report,
    }
}

fn run_traced(ctx: &Ctx) -> Outcome {
    let mut replies: Vec<(Req, Reply, u64)> = Vec::new();
    let mut untraced_ns = Vec::new();
    let n = drive(
        ctx,
        "untraced",
        ctx.duration / 4,
        None,
        |session, _, _, req| {
            let request = req.request();
            let t0 = Instant::now();
            let reply = session.execute(&request);
            untraced_ns.push(t0.elapsed().as_nanos() as u64);
            let reply = reply.map_or_else(|e| Reply::Failed(e.to_string()), Reply::Ok);
            replies.push((req.clone(), reply, 1));
        },
    );

    let mut t = Tracer::default();
    let mut gates_per_s = Vec::new();
    let mut stream_heap_mib = Vec::new();
    let (mut hits, mut loads) = (0, 0);
    drive(
        ctx,
        "traced",
        Duration::ZERO,
        Some(n),
        |session, store, k, req| {
            t.set_request(k);
            let request = req.request();
            let before = session.cache_stats();
            let reply = t.span("api.session.execute", |_| session.execute(&request));
            let after = session.cache_stats();
            hits += after.cache_hits - before.cache_hits;
            loads += after.loads - before.loads;
            let reply = reply.map_or_else(|e| Reply::Failed(e.to_string()), Reply::Ok);
            replies.push((req.clone(), reply, 1));
            // The steps of the cold `Session` call, layer by layer, into a
            // store of their own.
            let replica = ProfileStore::open(store.join("replica")).expect("the store opens");
            let Op::Estimate { side } = req.op else {
                unreachable!("cold_programs only estimates")
            };
            match leqa_workloads::stream_by_name(&req.program) {
                Some(stream) if stream.ft_op_count() >= DEFAULT_STREAMING_THRESHOLD => {
                    let base = alloc::live_bytes();
                    alloc::reset_window();
                    let t0 = Instant::now();
                    let _ = layers::stream(&mut t, &replica, &stream, side);
                    gates_per_s.push(stream.ft_op_count() as f64 / t0.elapsed().as_secs_f64());
                    stream_heap_mib.push(alloc::window_growth_mib(base));
                }
                _ => {
                    let circuit = layers::generate(&mut t, &req.program);
                    let source = layers::write(&mut t, &circuit);
                    let qodg = layers::lower(&mut t, &circuit);
                    let data = layers::profile(&mut t, &qodg);
                    layers::store_save(&mut t, &replica, &source, &data);
                    let _ = layers::fabric_half(&mut t, &qodg, &data, side);
                }
            }
        },
    );

    let attempted = replies.len() as u64;
    let checked = check::check(&replies, &BTreeSet::new());
    let extra = vec![
        Metric::new(
            "api.session.cache_hit_ratio",
            hits as f64 / loads.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "leqa.stream.gates_per_s",
            crate::stats::median(&gates_per_s),
            "1/s",
        ),
        Metric::new(
            "leqa.stream.peak_heap_mib",
            crate::stats::median(&stream_heap_mib),
            "MiB",
        ),
    ];
    let inputs = TraceInputs {
        untraced_ns,
        request_layer: "api.session.execute",
        blocking: vec![
            "workloads.generate",
            "circuit.parser.write",
            "circuit.decompose.lower",
            "circuit.qodg.build",
            "leqa.profile.build",
            "api.store.save",
            "leqa.estimator.fabric_half",
            "leqa.stream.profile",
            "leqa.stream.critical_path",
        ],
        extra,
        ..TraceInputs::default()
    };
    crate::finish_traced(ctx, t, inputs, attempted, checked.failed, checked.messages)
}
