//! Regenerates the paper's prose scaling claim (§4.2): "QSPR runtime
//! scales super linearly with operation count (with degree of 1.5) whereas
//! LEQA runtime depends only linearly on this count".
//!
//! Sweeps the GF(2^n) multiplier family (whose op count grows as `15n²`),
//! measures both tools' wall-clock runtimes, and fits log-log power laws
//! runtime = c · ops^e.

use std::time::Instant;

use leqa::Estimator;
use leqa_bench::fit_power_law;
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::gf2::gf2_mult;
use qspr::Mapper;

fn main() {
    let dims = FabricDims::dac13();
    let params = PhysicalParams::dac13();
    let sizes = [16u32, 24, 32, 48, 64, 96, 128, 192, 256];

    println!("Runtime scaling over the gf2^n mult family");
    println!(
        "{:<6} {:>9} {:>12} {:>12} {:>9}",
        "n", "ops", "QSPR(s)", "LEQA(s)", "speedup"
    );
    println!("{}", "-".repeat(52));

    let mut qspr_points = Vec::new();
    let mut leqa_points = Vec::new();
    for &n in &sizes {
        let qodg = Qodg::from(lower_to_ft(&gf2_mult(n)).expect("gf2 lowers cleanly"));
        let ops = qodg.op_count() as f64;

        let t0 = Instant::now();
        Mapper::new(dims, params.clone())
            .map(&qodg)
            .expect("fits the fabric");
        let tq = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        Estimator::new(dims, params.clone())
            .estimate(&qodg)
            .expect("fits the fabric");
        let tl = t0.elapsed().as_secs_f64();

        println!(
            "{:<6} {:>9} {:>12.4} {:>12.5} {:>9.1}",
            n,
            ops,
            tq,
            tl,
            tq / tl
        );
        qspr_points.push((ops, tq));
        leqa_points.push((ops, tl));
    }

    let (qspr_exp, _) = fit_power_law(&qspr_points);
    let (leqa_exp, _) = fit_power_law(&leqa_points);
    println!("{}", "-".repeat(52));
    println!(
        "fitted exponents: QSPR runtime ~ ops^{qspr_exp:.2} (paper: ~1.5), \
         LEQA runtime ~ ops^{leqa_exp:.2} (paper: ~1.0)"
    );
    println!(
        "superlinear speedup growth: {}",
        if qspr_exp > leqa_exp {
            "confirmed"
        } else {
            "NOT observed"
        }
    );
}
