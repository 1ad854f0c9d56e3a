//! `map_compare`: the paper's Table 2 experiment as a request stream.
//!
//! One caller, closed loop, direct `Session::execute` of `compare`
//! requests over the 18-program suite, `qft_64` and one seeded
//! `random_24_256_S`, at the paper's 60×60 fabric and Table 1 parameters.
//! Set-up warms every profile into a fresh snapshot store, so lowering,
//! QODG, profile and the store's write path show in `setup_s`; the
//! requests spend their time in the mapper.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use leqa::ProfileData;
use leqa_api::{ProfileStore, ProgramSpec, Session};
use leqa_circuit::Qodg;

use crate::check::{self, Reply};
use crate::gen::{self, Op, Req};
use crate::layers::{self, TraceInputs};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, Ctx, EndToEnd, Metric, Outcome};

/// Set-ups timed for `setup_s`.
const SETUPS: usize = 3;

/// A fresh session on a fresh store with every compared profile warm.
fn warm_session(store: &Path, programs: &[String]) -> Session {
    let session = Session::builder()
        .cache_dir(store)
        .build()
        .expect("the store directory opens");
    for name in programs {
        let _ = session
            .load(&ProgramSpec::bench(name.clone()))
            .expect("compared programs load")
            .profile_data();
    }
    session
}

fn suite() -> BTreeSet<String> {
    leqa_workloads::SUITE
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

fn to_reply(r: Result<leqa_api::Response, leqa_api::LeqaError>) -> Reply {
    r.map_or_else(|e| Reply::Failed(e.to_string()), Reply::Ok)
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let programs = gen::compare_programs(ctx.seed);
    if trace {
        return run_traced(ctx, &programs);
    }
    let mut e2e = EndToEnd::default();
    let mut session = None;
    for i in 0..SETUPS {
        let store = ctx.dir(&format!("store-{i}"));
        drop(session.take());
        let t0 = Instant::now();
        session = Some(warm_session(&store, &programs));
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let session = session.expect("at least one set-up");

    let mut replies: Vec<(Req, Reply, u64)> = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < ctx.duration {
        let req = gen::map_compare(ctx.seed, &programs, k);
        k += 1;
        let request = req.request();
        let t0 = Instant::now();
        let reply = session.execute(&request);
        e2e.record(start, t0);
        replies.push((req, to_reply(reply), 1));
    }
    e2e.peak_heap_mib = alloc::peak_mib();
    drop(session);

    let checked = check::check(&replies, &suite());
    e2e.error_pct = checked.error_pct;
    let mut report = checked.messages;
    let metrics = e2e.metrics(&mut report);
    Outcome {
        attempted: replies.len() as u64,
        failed: checked.failed,
        metrics,
        report,
    }
}

fn run_traced(ctx: &Ctx, programs: &[String]) -> Outcome {
    let mut t = Tracer::default();
    // Set-up, layer by layer, into a store of its own.
    let replica = ProfileStore::open(ctx.dir("replica")).expect("the store opens");
    let mut warm: BTreeMap<&str, (Qodg, ProfileData, f64)> = BTreeMap::new();
    for name in programs {
        let circuit = layers::generate(&mut t, name);
        let source = layers::write(&mut t, &circuit);
        let qodg = layers::lower(&mut t, &circuit);
        let data = layers::profile(&mut t, &qodg);
        layers::store_save(&mut t, &replica, &source, &data);
        let floor = layers::mapping_floor_us(&qodg);
        warm.insert(name, (qodg, data, floor));
    }
    let session = warm_session(&ctx.dir("store"), programs);

    let mut replies: Vec<(Req, Reply, u64)> = Vec::new();
    let mut untraced_ns = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.duration / 4 {
        let req = gen::map_compare(ctx.seed, programs, untraced_ns.len() as u64);
        let request = req.request();
        let t0 = Instant::now();
        let reply = session.execute(&request);
        untraced_ns.push(t0.elapsed().as_nanos() as u64);
        replies.push((req, to_reply(reply), 1));
    }

    let cache0 = session.cache_stats();
    let mut congestion = Vec::new();
    let mut over_floor = Vec::new();
    for k in 0..untraced_ns.len() as u64 {
        t.set_request(k);
        let req = gen::map_compare(ctx.seed, programs, k);
        let request = req.request();
        let reply = t.span("api.session.execute", |_| session.execute(&request));
        replies.push((req.clone(), to_reply(reply), 1));
        // The steps of the warm `compare` call, layer by layer.
        let Op::Compare { side } = req.op else {
            unreachable!("map_compare only compares")
        };
        let (qodg, data, floor) = &warm[req.program.as_str()];
        let circuit = layers::generate(&mut t, &req.program);
        let _ = layers::write(&mut t, &circuit);
        let mapped = layers::map(&mut t, qodg, side);
        let _ = layers::fabric_half(&mut t, qodg, data, side);
        let makespan = mapped.latency.as_f64();
        congestion.push(mapped.stats.congestion_wait.as_f64() / makespan);
        over_floor.push(makespan / floor);
    }
    let cache1 = session.cache_stats();
    drop(session);

    let attempted = replies.len() as u64;
    let checked = check::check(&replies, &BTreeSet::new());
    let hits = cache1.cache_hits - cache0.cache_hits;
    let loads = (cache1.loads - cache0.loads).max(1);
    let extra = vec![
        Metric::new(
            "api.session.cache_hit_ratio",
            hits as f64 / loads as f64,
            "ratio",
        ),
        Metric::new(
            "qspr.engine.congestion_wait_share",
            median(&congestion),
            "ratio",
        ),
        Metric::new(
            "qspr.engine.makespan_over_floor",
            median(&over_floor),
            "ratio",
        ),
    ];
    let inputs = TraceInputs {
        untraced_ns,
        request_layer: "api.session.execute",
        blocking: vec![
            "workloads.generate",
            "circuit.parser.write",
            "qspr.engine.map",
            "leqa.estimator.fabric_half",
        ],
        extra,
        ..TraceInputs::default()
    };
    crate::finish_traced(ctx, t, inputs, attempted, checked.failed, checked.messages)
}
