//! Benchmark harness for the LEQA reproduction.
//!
//! Each table and figure of the paper has a binary that regenerates it
//! (see DESIGN.md §3 for the full index):
//!
//! | Target | Regenerates |
//! |---|---|
//! | `cargo run -p leqa-bench --bin table1 --release` | Table 1 (physical parameters) |
//! | `cargo run -p leqa-bench --bin table2 --release` | Table 2 (accuracy: QSPR vs LEQA) |
//! | `cargo run -p leqa-bench --bin table3 --release` | Table 3 (runtimes and speedup) |
//! | `cargo run -p leqa-bench --bin scaling --release` | the prose scaling claim (QSPR ~ ops^1.5, LEQA linear) |
//! | `cargo run -p leqa-bench --bin shor_extrapolation --release` | the prose Shor-1024 extrapolation |
//! | `cargo run -p leqa-bench --bin ablations --release` | DESIGN.md §5 accuracy ablations |
//! | `cargo bench -p leqa-bench` | Criterion runtime benches per table row |
//!
//! The library part hosts the shared runner ([`run_benchmark`] for one row,
//! [`run_suite`] for many) and a tiny least-squares power-law fitter used
//! by the scaling study.
//!
//! # Profile reuse and the sweep benches
//!
//! LEQA's hot path is split into a per-program [`leqa::ProgramProfile`]
//! (IIG, zone statistics, uncongested-delay terms — `O(ops)`) and a cheap
//! per-fabric remainder. `benches/sweep_profile.rs` measures the payoff:
//! a 50-candidate [`leqa::sweep::sweep_fabrics`] over QFT-64 against 50
//! independent [`leqa::Estimator::estimate`] calls, asserting the sweep
//! engine's ≥5× speedup while `tests/differential.rs` (workspace root)
//! pins bit-identical estimates. End-to-end service timing belongs to
//! `perfbench/` at the workspace root. See PERF.md for the full API tour.
//!
//! # Recording baselines
//!
//! The criterion harness appends one JSON line per completed benchmark to
//! the file named by `BENCH_JSON`, so
//! `BENCH_JSON=BENCH_estimator.json cargo bench -p leqa-bench` records a
//! machine-readable baseline to diff across commits (PERF.md documents the
//! workflow).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use leqa::{Estimate, Estimator};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::Benchmark;
use qspr::{Mapper, MappingResult};

/// One measured row of the reproduction (the measured analogue of
/// [`leqa_workloads::PaperRow`]).
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Logical qubits after lowering.
    pub qubits: u64,
    /// FT ops after lowering.
    pub ops: u64,
    /// QSPR's simulated program latency, seconds.
    pub actual_s: f64,
    /// LEQA's estimated program latency, seconds.
    pub estimated_s: f64,
    /// Absolute error, percent.
    pub error_pct: f64,
    /// QSPR wall-clock runtime, seconds.
    pub qspr_runtime_s: f64,
    /// LEQA wall-clock runtime, seconds.
    pub leqa_runtime_s: f64,
    /// Runtime speedup (QSPR / LEQA).
    pub speedup: f64,
}

/// Lowers a benchmark, runs both QSPR and LEQA on the DAC'13 fabric, and
/// measures wall-clock runtimes.
///
/// LEQA's runtime includes QODG→IIG traversal and the critical-path pass,
/// as in the paper (the two tools "share the same parsers", so parsing is
/// excluded on both sides; QODG construction is shared and excluded too).
///
/// # Panics
///
/// Panics if the benchmark cannot be lowered or mapped (cannot happen for
/// the built-in suite on the DAC'13 fabric).
pub fn run_benchmark(bench: &Benchmark, dims: FabricDims, params: &PhysicalParams) -> RunRow {
    let circuit = bench.circuit();
    let qodg = Qodg::from(lower_to_ft(&circuit).expect("suite circuits lower cleanly"));

    let mapper = Mapper::new(dims, params.clone());
    let t0 = Instant::now();
    let actual: MappingResult = mapper.map(&qodg).expect("suite fits the fabric");
    let qspr_runtime_s = t0.elapsed().as_secs_f64();

    let estimator = Estimator::new(dims, params.clone());
    let t0 = Instant::now();
    let estimate: Estimate = estimator.estimate(&qodg).expect("suite fits the fabric");
    let leqa_runtime_s = t0.elapsed().as_secs_f64();

    let actual_s = actual.latency.as_secs();
    let estimated_s = estimate.latency.as_secs();
    RunRow {
        name: bench.name,
        qubits: qodg.num_qubits() as u64,
        ops: qodg.op_count() as u64,
        actual_s,
        estimated_s,
        error_pct: 100.0 * (estimated_s - actual_s).abs() / actual_s,
        qspr_runtime_s,
        leqa_runtime_s,
        speedup: qspr_runtime_s / leqa_runtime_s,
    }
}

/// Runs a set of suite benchmarks one after another, returning one row
/// per benchmark in input order. Rows run on the calling thread, so their
/// wall-clock columns are uncontended.
///
/// # Panics
///
/// Same as [`run_benchmark`].
pub fn run_suite(benches: &[&Benchmark], dims: FabricDims, params: &PhysicalParams) -> Vec<RunRow> {
    benches
        .iter()
        .map(|b| run_benchmark(b, dims, params))
        .collect()
}

impl RunRow {
    /// Serializes the row for machine-readable table output (the
    /// `--format json` path of the table binaries), using the same
    /// dependency-free JSON document model as the service layer.
    #[must_use]
    pub fn to_json(&self) -> leqa_api::json::Json {
        use leqa_api::json::Json;
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("qubits", Json::Num(self.qubits as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("actual_s", Json::Num(self.actual_s)),
            ("estimated_s", Json::Num(self.estimated_s)),
            ("error_pct", Json::Num(self.error_pct)),
            ("qspr_runtime_s", Json::Num(self.qspr_runtime_s)),
            ("leqa_runtime_s", Json::Num(self.leqa_runtime_s)),
            ("speedup", Json::Num(self.speedup)),
        ])
    }
}

/// Least-squares fit of `y = c·x^e` in log-log space; returns `(e, c)`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is
/// non-positive.
pub fn fit_power_law(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "power-law fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let exponent = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - exponent * sx) / n;
    (exponent, intercept.exp())
}

/// Formats a float in the paper's `1.617E+00` scientific style.
pub fn sci(x: f64) -> String {
    format!("{x:.3E}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_recovers_exact_exponent() {
        let pts: Vec<(f64, f64)> = (1..6)
            .map(|i| {
                let x = i as f64;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        let (e, c) = fit_power_law(&pts);
        assert!((e - 1.5).abs() < 1e-9);
        assert!((c - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn fit_needs_two_points() {
        fit_power_law(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn fit_rejects_nonpositive() {
        fit_power_law(&[(1.0, 1.0), (2.0, -1.0)]);
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(1.617), "1.617E0");
    }

    #[test]
    fn run_benchmark_smoke() {
        let b = leqa_workloads::Benchmark::by_name("8bitadder").unwrap();
        let row = run_benchmark(b, FabricDims::dac13(), &PhysicalParams::dac13());
        assert_eq!(row.qubits, 24);
        assert_eq!(row.ops, 822);
        assert!(row.actual_s > 0.0 && row.estimated_s > 0.0);
        assert!(row.error_pct < 50.0);
    }
}
