//! The headline claim of the paper, as a regression test: LEQA estimates
//! the mapped latency with single-digit average error and bounded maximum
//! error across the benchmark suite.
//!
//! The paper reports 2.11% average / <9% maximum against its Java QSPR;
//! against this workspace's mapper the measured figures are ~2.7% / ~6.2%
//! (`est_error_pct_mean`/`est_error_pct_max` of the `map_compare`
//! workload, recorded in perfbench/README.md). The assertions use looser
//! bounds so the test stays robust to platform noise while still catching
//! model regressions.

use leqa::Estimator;
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::{Benchmark, SUITE};
use qspr::Mapper;

fn error_pct(bench: &Benchmark) -> f64 {
    let dims = FabricDims::dac13();
    let params = PhysicalParams::dac13();
    let ft = lower_to_ft(&bench.circuit()).expect("suite lowers cleanly");
    let qodg = Qodg::from_ft_circuit(&ft);
    let actual = Mapper::new(dims, params.clone())
        .map(&qodg)
        .expect("fits")
        .latency
        .as_secs();
    let estimated = Estimator::new(dims, params)
        .estimate(&qodg)
        .expect("fits")
        .latency
        .as_secs();
    100.0 * (estimated - actual).abs() / actual
}

#[test]
fn small_and_mid_benchmarks_estimate_accurately() {
    // The fast two-thirds of the suite (everything below ~70k ops).
    let mut errors = Vec::new();
    for bench in SUITE.iter().filter(|b| b.paper.ops < 70_000) {
        let err = error_pct(bench);
        assert!(err < 15.0, "{}: error {err:.2}% exceeds 15%", bench.name);
        errors.push(err);
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(avg < 8.0, "average error {avg:.2}% exceeds 8%");
}

#[test]
#[ignore = "runs the full suite incl. the ~1M-op gf2^256mult; enable with --ignored"]
fn full_suite_reproduces_table2() {
    let mut errors = Vec::new();
    for bench in &SUITE {
        let err = error_pct(bench);
        assert!(err < 15.0, "{}: error {err:.2}% exceeds 15%", bench.name);
        errors.push(err);
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(avg < 8.0, "average error {avg:.2}% exceeds 8%");
}
