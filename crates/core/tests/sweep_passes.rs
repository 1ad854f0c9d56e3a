//! Pass-count gate for the path table. A cold 41-side sweep (sides 40 to
//! 80, Table 1 parameters, a fresh `ProfileData`) runs only a few full
//! critical-path passes per program, and every point equals a fresh
//! `Estimator::estimate`, field for field.
//!
//! Over these sides each gf2 multiplier selects 22 to 40 distinct node
//! paths, all with one op census: a table keyed by node path walks once
//! per side there, one keyed by census twice. Every other program keeps
//! its count: 2, and 7 on `hwb200ps`, whose two censuses cross inside its
//! 24 fitting sides.

use leqa::sweep::sweep_profile_squares;
use leqa::{Estimator, EstimatorOptions, ProfileData, ProgramProfile};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::PhysicalParams;
use leqa_workloads::{circuit_by_name, SUITE};

/// The most full passes a cold sweep may run on `name`.
fn pass_budget(name: &str) -> u64 {
    match name {
        "hwb200ps" => 7,
        gf2 if gf2.starts_with("gf2^") => 3,
        _ => 2,
    }
}

#[test]
fn a_cold_41_side_sweep_walks_a_few_times_per_program() {
    let params = PhysicalParams::dac13();
    let options = EstimatorOptions::default();
    let names =
        SUITE
            .iter()
            .map(|bench| bench.name)
            .chain(["qft_64", "shor_64", "random_16_60000"]);
    let mut over = Vec::new();
    for name in names {
        let circuit = circuit_by_name(name).unwrap_or_else(|| panic!("workload {name}"));
        let qodg = Qodg::from(lower_to_ft(&circuit).expect("workloads lower"));
        let data = ProfileData::new(&qodg);
        let profile = ProgramProfile::from_data(&qodg, &data);
        let points =
            sweep_profile_squares(&profile, &params, options, 40..=80).expect("valid sides");
        let passes = data.critical_path_passes();
        println!("{name}: {passes} full passes over 41 sides");
        if passes > pass_budget(name) {
            over.push(format!("{name}: {passes} > {}", pass_budget(name)));
        }
        for point in &points {
            let fresh = Estimator::with_options(point.dims, params.clone(), options)
                .estimate(&qodg)
                .ok();
            assert_eq!(
                format!("{:?}", point.estimate),
                format!("{fresh:?}"),
                "{name} at side {}",
                point.dims.width()
            );
        }
    }
    assert!(over.is_empty(), "over the pass budget: {over:?}");
}
