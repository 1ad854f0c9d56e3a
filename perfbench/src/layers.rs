//! The layers of a request, reached from outside.
//!
//! A `Session` call is opaque, so the traced run replays the steps it takes
//! by calling each layer's public function under its own span: generate,
//! canonical write, lowering, QODG, profile, snapshot store, the
//! estimator's fabric half, sweep, the streaming passes and the mapper.
//! This module holds those calls and turns the recorded spans into the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use leqa::{Estimate, Estimator, ProfileData, ProgramProfile, StreamingProfileBuilder};
use leqa_api::ProfileStore;
use leqa_circuit::{decompose::lower_to_ft, parser, Circuit, FtOp, Qodg, QodgNode};
use leqa_fabric::{FabricDims, Micros, PhysicalParams};
use qspr::{Mapper, MappingResult};

use crate::stats::{geomean, median, median_u64};
use crate::trace::{LayerCalls, Span, Tracer, SETUP};
use crate::Metric;

/// Every layer span, in pipeline order. Each gives `<name>_ms` (median
/// self time per call), `<name>.share_pct` (share of the workload's
/// request time) and `<name>.allocs` (median allocations per call).
pub const LAYERS: [&str; 16] = [
    "workloads.generate",
    "circuit.parser.write",
    "circuit.decompose.lower",
    "circuit.qodg.build",
    "leqa.profile.build",
    "api.store.save",
    "api.store.load",
    "leqa.estimator.fabric_half",
    "leqa.sweep.sweep",
    "leqa.stream.profile",
    "leqa.stream.critical_path",
    "qspr.engine.map",
    "api.json.decode",
    "api.json.encode",
    "api.server.transport",
    "api.session.execute",
];

pub fn dims(side: u32) -> FabricDims {
    FabricDims::new(side, side).expect("generated sides are valid")
}

pub fn generate(t: &mut Tracer, name: &str) -> Circuit {
    t.span("workloads.generate", |_| {
        leqa_workloads::circuit_by_name(name).expect("generated names resolve")
    })
}

pub fn write(t: &mut Tracer, circuit: &Circuit) -> String {
    t.span_work("circuit.parser.write", |_| {
        let text = parser::write(circuit);
        let bytes = text.len() as u64;
        (text, bytes)
    })
}

/// Lowering and QODG construction.
pub fn lower(t: &mut Tracer, circuit: &Circuit) -> Qodg {
    let ft = t.span_work("circuit.decompose.lower", |_| {
        let ft = lower_to_ft(circuit).expect("generated circuits lower");
        let ops = ft.ops().len() as u64;
        (ft, ops)
    });
    t.span("circuit.qodg.build", |_| Qodg::from_ft_circuit(&ft))
}

pub fn profile(t: &mut Tracer, qodg: &Qodg) -> ProfileData {
    t.span_work("leqa.profile.build", |_| {
        let data = ProfileData::new(qodg);
        let edges = data.iig().edge_count() as u64;
        (data, edges)
    })
}

pub fn store_save(t: &mut Tracer, store: &ProfileStore, source: &str, data: &ProfileData) {
    t.span("api.store.save", |_| {
        store
            .save(source, data)
            .expect("the snapshot directory is writable");
    });
}

/// A snapshot load; the span's work is 1 on a hit.
pub fn store_load(t: &mut Tracer, store: &ProfileStore, source: &str) -> Option<ProfileData> {
    t.span_work("api.store.load", |_| {
        let data = store.load(source).ok();
        let hit = u64::from(data.is_some());
        (data, hit)
    })
}

pub fn fabric_half(t: &mut Tracer, qodg: &Qodg, data: &ProfileData, side: u32) -> Option<Estimate> {
    t.span("leqa.estimator.fabric_half", |_| {
        Estimator::new(dims(side), PhysicalParams::dac13())
            .estimate_with_profile(&ProgramProfile::from_data(qodg, data))
            .ok()
    })
}

pub fn sweep(t: &mut Tracer, qodg: &Qodg, data: &ProfileData, sizes: &[u32]) {
    t.span_work("leqa.sweep.sweep", |_| {
        let points = leqa::sweep::sweep_profile_squares(
            &ProgramProfile::from_data(qodg, data),
            &PhysicalParams::dac13(),
            leqa::EstimatorOptions::default(),
            sizes.iter().copied(),
        )
        .expect("generated sizes are valid");
        ((), points.len() as u64)
    });
}

pub fn map(t: &mut Tracer, qodg: &Qodg, side: u32) -> MappingResult {
    t.span("qspr.engine.map", |_| {
        Mapper::new(dims(side), PhysicalParams::dac13())
            .map(qodg)
            .expect("compared programs fit")
    })
}

/// The streaming pipeline's two passes for a generator-backed program,
/// as `Session` runs them above its streaming threshold.
pub fn stream(
    t: &mut Tracer,
    store: &ProfileStore,
    stream: &leqa_workloads::shor::ShorStream,
    side: u32,
) -> Option<Estimate> {
    let data = t.span_work("leqa.stream.profile", |_| {
        let mut builder = StreamingProfileBuilder::new(stream.num_qubits());
        for op in stream.ops() {
            builder.push(op);
        }
        let data = builder.finish().expect("generated streams are well formed");
        (data, stream.ft_op_count())
    });
    store_save(t, store, &format!("stream:{}", stream.name()), &data);
    t.span_work("leqa.stream.critical_path", |_| {
        let estimate = Estimator::new(dims(side), PhysicalParams::dac13())
            .estimate_stream_with_data(stream.num_qubits(), &data, stream.ops())
            .ok();
        (estimate, stream.ft_op_count())
    })
}

/// The routing-free floor of a mapping: the critical path under the
/// mapper's own op costs (gate delay, plus the shuttle for one-qubit ops).
pub fn mapping_floor_us(qodg: &Qodg) -> f64 {
    let params = PhysicalParams::dac13();
    let delays = *params.gate_delays();
    let shuttle = params.one_qubit_routing_latency();
    qodg.critical_path(|node| match node {
        QodgNode::Op(FtOp::Cnot { .. }) => delays.cnot(),
        QodgNode::Op(FtOp::OneQubit { kind, .. }) => delays.one_qubit(*kind) + shuttle,
        _ => Micros::ZERO,
    })
    .length
    .as_f64()
}

/// The paper's Table 3 figure: the geometric mean over the suite of
/// `Mapper::map` time over `ProfileData::new` plus `estimate_with_profile`
/// time on the same QODG (each the median of three timings).
pub fn estimator_speedup() -> f64 {
    let params = PhysicalParams::dac13();
    let fabric = dims(crate::gen::PAPER_SIDE);
    let ratios: Vec<f64> = leqa_workloads::SUITE
        .iter()
        .map(|bench| {
            let qodg = crate::check::lower_fresh(bench.name);
            let time = |f: &dyn Fn()| {
                let runs: Vec<f64> = (0..3)
                    .map(|_| {
                        let t0 = Instant::now();
                        f();
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                median(&runs)
            };
            let mapper = Mapper::new(fabric, params.clone());
            let estimator = Estimator::new(fabric, params.clone());
            let map_s = time(&|| {
                std::hint::black_box(mapper.map(&qodg).expect("the suite fits"));
            });
            let estimate_s = time(&|| {
                let data = ProfileData::new(&qodg);
                let profile = ProgramProfile::from_data(&qodg, &data);
                std::hint::black_box(estimator.estimate_with_profile(&profile).expect("fits"));
            });
            map_s / estimate_s
        })
        .collect();
    geomean(&ratios)
}

/// What a workload's traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct TraceInputs {
    /// Per-request time of the untraced replay of the same requests.
    pub untraced_ns: Vec<u64>,
    /// The span whose calls are the workload's requests as the caller
    /// sees them (the shares' denominator).
    pub request_layer: &'static str,
    /// Layers on the blocking path of a request.
    pub blocking: Vec<&'static str>,
    /// Layers derived from other spans (transport).
    pub derived: BTreeMap<&'static str, LayerCalls>,
    /// Workload-specific metrics.
    pub extra: Vec<Metric>,
}

/// Turns the spans into per-layer metrics.
pub fn metrics(t: &Tracer, inputs: TraceInputs) -> (Vec<Metric>, Vec<String>) {
    let mut all = t.by_layer(|_| true);
    let mut in_requests = t.by_layer(|s: &Span| s.request != SETUP);
    for (name, calls) in inputs.derived {
        all.insert(name, calls.clone());
        in_requests.insert(name, calls);
    }
    let request_ns = in_requests
        .get(inputs.request_layer)
        .map_or(0, LayerCalls::total_ns)
        .max(1) as f64;
    let untraced_ns: u64 = inputs.untraced_ns.iter().sum();

    let mut out = Vec::new();
    let mut table = vec![format!(
        "{:<28} {:>7} {:>11} {:>8} {:>10}",
        "layer", "calls", "self ms/call", "share %", "allocs"
    )];
    for name in LAYERS {
        let calls = all.get(name).cloned().unwrap_or_default();
        let ms = median_u64(&calls.self_ns) / 1e6;
        let share = in_requests
            .get(name)
            .map_or(0.0, |c| 100.0 * c.total_ns() as f64 / request_ns);
        let allocs = median_u64(&calls.allocs);
        out.push(Metric::new(format!("{name}_ms"), ms, "ms"));
        out.push(Metric::new(format!("{name}.share_pct"), share, "%"));
        out.push(Metric::new(format!("{name}.allocs"), allocs, "count"));
        if !calls.self_ns.is_empty() {
            table.push(format!(
                "{name:<28} {:>7} {ms:>11.4} {share:>8.2} {allocs:>10}",
                calls.self_ns.len()
            ));
        }
    }
    let work = |name: &str| all.get(name).map_or(0.0, |c| median_u64(&c.work));
    out.push(Metric::new(
        "circuit.parser.write_bytes",
        work("circuit.parser.write"),
        "bytes",
    ));
    out.push(Metric::new(
        "circuit.decompose.ft_ops",
        work("circuit.decompose.lower"),
        "count",
    ));
    out.push(Metric::new(
        "leqa.profile.iig_edges",
        work("leqa.profile.build"),
        "count",
    ));
    out.push(Metric::new(
        "leqa.sweep.candidates",
        work("leqa.sweep.sweep"),
        "count",
    ));
    out.push(Metric::new(
        "api.json.reply_bytes",
        work("api.json.encode"),
        "bytes",
    ));
    let loads = all.get("api.store.load");
    out.push(Metric::new(
        "api.store.hit_ratio",
        loads.map_or(0.0, |c| {
            c.work.iter().sum::<u64>() as f64 / c.work.len().max(1) as f64
        }),
        "ratio",
    ));

    let blocking_ns: u64 = inputs
        .blocking
        .iter()
        .filter_map(|name| in_requests.get(name))
        .map(LayerCalls::total_ns)
        .sum();
    let accounted = 100.0 * blocking_ns as f64 / untraced_ns.max(1) as f64;
    let overhead = 100.0 * (request_ns / untraced_ns.max(1) as f64 - 1.0);
    out.push(Metric::new("trace.accounted_pct", accounted, "%"));
    out.push(Metric::new("trace.overhead_pct", overhead, "%"));
    out.push(Metric::new(
        "trace.requests",
        inputs.untraced_ns.len() as f64,
        "count",
    ));
    table.push(format!(
        "blocking-path layers account for {accounted:.1}% of the untraced request time \
         (gap {:.1}%); tracing overhead {overhead:.2}%",
        100.0 - accounted
    ));
    out.extend(inputs.extra);
    (out, table)
}
