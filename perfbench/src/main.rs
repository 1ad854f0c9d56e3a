//! The estimator-service benchmark.
//!
//! ```text
//! perfbench --workload <design_loop|cold_programs|map_compare>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public API for `--seconds`, checks every
//! reply, and prints a report followed by one JSON result line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1` a
//! traced replay of the workload's requests gives the per-layer metrics.
//! README.md describes the workloads, the metrics and what each layer is
//! predicted to move.

mod alloc;
mod check;
mod cold_programs;
mod design_loop;
mod gen;
mod layers;
mod map_compare;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run needs to know.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub duration: Duration,
    /// Scratch directory for snapshot stores, removed at exit.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_path: PathBuf,
}

impl Ctx {
    /// A fresh subdirectory of the scratch directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        dir
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

/// The measured end-to-end figures of a run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Per request: when it completed (s since the measurement started)
    /// and its latency (ms).
    pub samples: Vec<(f64, f64)>,
    pub setup_s: Vec<f64>,
    pub peak_heap_mib: f64,
    pub error_pct: BTreeMap<String, f64>,
}

impl EndToEnd {
    /// Records a request that started at `t0` of a measurement that
    /// started at `start`.
    pub fn record(&mut self, start: Instant, t0: Instant) {
        let end = Instant::now();
        self.samples
            .push(((end - start).as_secs_f64(), (end - t0).as_secs_f64() * 1e3));
    }

    pub fn metrics(self, report: &mut Vec<String>) -> Vec<Metric> {
        let n = self.samples.len();
        let elapsed = self.samples.iter().map(|s| s.0).fold(0.0, f64::max);
        let mut lat: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        lat.sort_by(f64::total_cmp);
        let mut out = Vec::new();
        for (name, q) in [
            ("latency_p50_ms", 0.5),
            ("latency_p90_ms", 0.9),
            ("latency_p99_ms", 0.99),
        ] {
            let beyond = stats::beyond(&lat, q);
            let v = stats::quantile_sorted(&lat, q);
            report.push(format!(
                "{name}: {v:.4} ms ({n} samples, {beyond} beyond{})",
                if beyond < 10 {
                    "; fewer than 10, so this percentile is not supported"
                } else {
                    ""
                }
            ));
            out.push(Metric::new(name, v, "ms"));
        }
        let throughput = n as f64 / elapsed;
        report.push(format!(
            "throughput_rps: {throughput:.2} over {elapsed:.2} s"
        ));
        out.push(Metric::new("throughput_rps", throughput, "1/s"));
        let setup = stats::median(&self.setup_s);
        report.push(format!(
            "setup_s: {setup:.5} (median of {} set-ups)",
            self.setup_s.len()
        ));
        out.push(Metric::new("setup_s", setup, "s"));
        report.push(format!("peak_heap_mib: {:.2}", self.peak_heap_mib));
        out.push(Metric::new("peak_heap_mib", self.peak_heap_mib, "MiB"));
        let errors: Vec<f64> = self.error_pct.values().copied().collect();
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let max = errors.iter().copied().fold(0.0, f64::max);
        report.push(format!(
            "estimator error vs mapper at 60x60 over {} programs: mean {mean:.3}%, max {max:.3}%",
            errors.len()
        ));
        out.push(Metric::new("est_error_pct_mean", mean, "%"));
        out.push(Metric::new("est_error_pct_max", max, "%"));
        out
    }
}

/// Per-layer metrics that only some workloads measure; the others report
/// 0 (the layer is not on their path).
const WORKLOAD_SPECIFIC: [(&str, &str); 8] = [
    ("api.session.rederive_share", "ratio"),
    ("api.session.cache_hit_ratio", "ratio"),
    ("api.server.bytes_in", "bytes"),
    ("api.server.bytes_out", "bytes"),
    ("leqa.stream.gates_per_s", "1/s"),
    ("leqa.stream.peak_heap_mib", "MiB"),
    ("qspr.engine.congestion_wait_share", "ratio"),
    ("qspr.engine.makespan_over_floor", "ratio"),
];

/// The common end of a traced run: dumps the spans and assembles the
/// per-layer metrics.
pub fn finish_traced(
    ctx: &Ctx,
    tracer: trace::Tracer,
    inputs: layers::TraceInputs,
    attempted: u64,
    failed: u64,
    mut report: Vec<String>,
) -> Outcome {
    if let Err(e) = tracer.dump(&ctx.trace_path) {
        report.push(format!("could not write {}: {e}", ctx.trace_path.display()));
    }
    let (mut metrics, table) = layers::metrics(&tracer, inputs);
    for (name, unit) in WORKLOAD_SPECIFIC {
        if !metrics.iter().any(|m| m.name == name) {
            metrics.push(Metric::new(name, 0.0, unit));
        }
    }
    metrics.push(Metric::new(
        "paper.estimator_speedup",
        layers::estimator_speedup(),
        "ratio",
    ));
    metrics.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    report.extend(table);
    report.push(format!(
        "spans written to {} ({} spans)",
        ctx.trace_path.display(),
        tracer.spans().len()
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        report,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        duration: Duration::from_secs_f64(args.seconds),
        scratch,
        trace_path: out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    };
    let run = match args.workload.as_str() {
        "design_loop" => design_loop::run,
        "cold_programs" => cold_programs::run,
        "map_compare" => map_compare::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&ctx.scratch).expect("the working directory is writable");
    let outcome = run(&ctx, args.trace);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    println!(
        "workload {} seed {} ({} s, trace {}), {} threads available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
