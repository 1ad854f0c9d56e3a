//! Validates the paper's analytic models against independent oracles
//! (the `leqa-validate` crate): Monte-Carlo zone dropping for Eq. 4,
//! event-driven queue simulation for Eqs. 9–11, and exact Held–Karp
//! Hamiltonian paths for Eq. 15.
//!
//! It checks the models the estimate is built from; the end-to-end
//! accuracy against the mapper (`est_error_pct_mean`/`est_error_pct_max`
//! of the `map_compare` workload) is recorded in perfbench/README.md.

use leqa_fabric::{FabricDims, Micros};
use leqa_validate::{coverage, hamiltonian, queueing};

fn main() {
    println!("Eq. 4 — E[S_q] vs Monte-Carlo zone dropping (15x15 fabric, 8 zones of side 3)");
    let dims = FabricDims::new(15, 15).expect("valid dims");
    let comparisons = coverage::compare_surfaces(dims, 8, 3, 6, 4_000, 1);
    println!(
        "{:>4} {:>12} {:>12} {:>8}",
        "q", "simulated", "analytic", "err(%)"
    );
    for (k, c) in comparisons.iter().enumerate() {
        // Relative error is meaningless on near-zero tail mass.
        let err = if c.measured.max(c.predicted) > 1e-3 {
            format!("{:8.2}", 100.0 * c.relative_error())
        } else {
            "  (tail)".to_string()
        };
        println!(
            "{:>4} {:>12.4} {:>12.4} {err}",
            k + 1,
            c.measured,
            c.predicted
        );
    }

    println!("\nEqs. 9–11 — M/M/1 queue vs event simulation (N_c = 5, d_uncong = 800 µs)");
    println!(
        "{:>4} {:>14} {:>14} {:>8}",
        "q", "simulated W", "Eq. 11 W", "err(%)"
    );
    for q in [1u64, 3, 6, 10, 20] {
        let c = queueing::compare_wait_time(5, Micros::new(800.0), q, 400_000, q);
        println!(
            "{:>4} {:>14.1} {:>14.1} {:>8.2}",
            q,
            c.measured,
            c.predicted,
            100.0 * c.relative_error()
        );
    }

    println!("\nEq. 15 — TSP-bound path estimate vs exact Held–Karp expectation");
    println!(
        "{:>4} {:>12} {:>12} {:>8}",
        "M_i", "exact E[l]", "Eq. 15", "err(%)"
    );
    for m in [2u64, 4, 6, 9, 12] {
        let c = hamiltonian::compare_expected_path(m, 400, m);
        println!(
            "{:>4} {:>12.4} {:>12.4} {:>8.2}",
            m,
            c.measured,
            c.predicted,
            100.0 * c.relative_error()
        );
    }
    println!(
        "\nthe TSP constants are asymptotic: expect Eq. 15 to run tight at \
         moderate M and loose at M ≤ 3 — slack the end-to-end 2–3% error \
         absorbs (Table 2)."
    );
}
