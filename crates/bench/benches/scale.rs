//! Scale trajectory: the streaming estimator against the materialized
//! pipeline on `shor_N` workloads, recording **gates/sec** and **peak
//! live heap** (self-measured through [`CountingAlloc`], so the numbers
//! are allocator- and machine-independent requested bytes, not RSS).
//!
//! The gated figure is the streaming peak itself, written as the
//! lower-is-better `"cost"` field of each `scale/...` JSON line so
//! `scripts/perf_gate.sh` diffs it against the committed
//! `BENCH_scale.json` trajectory: the stream must not grow, whatever the
//! materialized pipeline costs. Live requested bytes are deterministic,
//! which makes this the rare perf gate that does not flake with runner
//! load. The memory ratio (materialized peak over streaming peak,
//! `"mem_ratio"`) and throughput (`gates_per_sec`) are recorded alongside
//! for the trajectory but never gated: the ratio falls whenever the
//! materialized pipeline gets leaner, and throughput varies with the
//! machine.
//!
//! `SCALE_BENCH_SMOKE=1` runs only the `shor_64` dual-path point (CI);
//! the full run adds `shor_256` dual-path and the streaming-only
//! `shor_1024` cryptographic-scale point (materializing shor_1024 needs
//! ~236 MB for its op list alone — the point of the streaming path is
//! never paying that).
//!
//! Regenerate the committed trajectory with:
//! `BENCH_JSON=BENCH_scale.json cargo bench -p leqa-bench --bench scale`

use std::io::Write as _;
use std::time::Instant;

use leqa::meter::CountingAlloc;
use leqa::stream::FnSource;
use leqa::Estimator;
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::{circuit_by_name, stream_by_name};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn smoke() -> bool {
    std::env::var("SCALE_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

struct PathRun {
    elapsed_s: f64,
    peak_bytes: usize,
}

/// Runs `f` with the peak-tracking window reset around it.
fn measured(f: impl FnOnce()) -> PathRun {
    let baseline = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let t0 = Instant::now();
    f();
    PathRun {
        elapsed_s: t0.elapsed().as_secs_f64(),
        peak_bytes: ALLOC.peak_bytes().saturating_sub(baseline),
    }
}

/// Streaming path: profile + critical path from the lazy gate stream.
fn run_stream(name: &str, dims: FabricDims) -> (u64, PathRun) {
    let stream = stream_by_name(name).expect("streamable shor workload");
    let ops = stream.ft_op_count();
    let source = FnSource::new(stream.num_qubits(), move || stream.ops());
    let estimator = Estimator::new(dims, PhysicalParams::dac13());
    let run = measured(|| {
        let estimate = estimator.estimate_stream(&source).expect("stream fits");
        std::hint::black_box(estimate.latency);
    });
    (ops, run)
}

/// Materialized path: lower → QODG (the op list) → estimate, all
/// resident at once — the memory the streaming path exists to avoid.
fn run_materialized(name: &str, dims: FabricDims) -> PathRun {
    let circuit = circuit_by_name(name).expect("named workload");
    let estimator = Estimator::new(dims, PhysicalParams::dac13());
    measured(|| {
        let qodg = Qodg::from(lower_to_ft(&circuit).expect("shor lowers"));
        let estimate = estimator.estimate(&qodg).expect("fits");
        std::hint::black_box(estimate.latency);
    })
}

fn emit(line: &str) {
    if let Ok(path) = std::env::var("BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(file, "{line}");
        }
    }
}

/// One dual-path point: both pipelines on the same workload and fabric,
/// gated on the streaming peak.
fn dual_point(name: &str, dims: FabricDims) {
    let (ops, stream) = run_stream(name, dims);
    let materialized = run_materialized(name, dims);
    let gates_per_sec = ops as f64 / stream.elapsed_s;
    let mem_ratio = materialized.peak_bytes as f64 / stream.peak_bytes.max(1) as f64;
    println!(
        "scale/{name}: {ops} gates, streaming {gates_per_sec:.0} gates/s, \
         peak {} vs materialized {} bytes — {mem_ratio:.2}x less memory",
        stream.peak_bytes, materialized.peak_bytes,
    );
    emit(&format!(
        "{{\"name\":\"scale/{name}\",\"gates\":{ops},\"gates_per_sec\":{gates_per_sec:.0},\
         \"stream_peak_bytes\":{},\"materialized_peak_bytes\":{},\"mem_ratio\":{mem_ratio:.4},\
         \"cost\":{}}}",
        stream.peak_bytes, materialized.peak_bytes, stream.peak_bytes,
    ));
}

fn main() {
    // The dac13 fabric fits shor_64's 1162 lowered qubits.
    dual_point("shor_64", FabricDims::dac13());

    if smoke() {
        return;
    }

    // shor_256: 16,930 lowered qubits, ~1.2M ops — the largest point
    // where materializing is still cheap enough to measure against.
    dual_point("shor_256", FabricDims::new(131, 131).expect("valid dims"));

    // Cryptographic scale, streaming only: the trajectory's gates/sec
    // headline. (Materializing shor_1024 needs ~236 MB for its op list
    // alone; the bounded-memory regression test pins the budget.)
    let (ops, stream) = run_stream("shor_1024", FabricDims::new(520, 520).expect("valid dims"));
    let gates_per_sec = ops as f64 / stream.elapsed_s;
    println!(
        "scale/shor_1024: {ops} gates, streaming {gates_per_sec:.0} gates/s, \
         peak {} bytes ({:.1} MiB)",
        stream.peak_bytes,
        stream.peak_bytes as f64 / (1 << 20) as f64,
    );
    emit(&format!(
        "{{\"name\":\"scale/shor_1024_stream\",\"gates\":{ops},\
         \"gates_per_sec\":{gates_per_sec:.0},\"stream_peak_bytes\":{},\"cost\":{}}}",
        stream.peak_bytes, stream.peak_bytes,
    ));
}
