//! The sweep-engine acceptance bench: a 50-candidate fabric sweep over
//! QFT-64 through the [`ProgramProfile`]-based engine versus 50
//! independent `Estimator::estimate` calls.
//!
//! The engine amortises the program-dependent `O(ops)` work (IIG, zone
//! statistics, uncongested-delay terms, critical-path passes via the
//! profile's path table), so the sweep must come out ≥ 5× faster while
//! producing bit-identical estimates (`tests/differential.rs` pins the
//! bit-identity; this bench prints and checks the speedup).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use leqa::sweep::sweep_fabrics;
use leqa::{Estimator, EstimatorOptions, ProgramProfile};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::qft::qft;

/// QFT-64 (64 logical qubits ⇒ candidates need side ≥ 8).
fn qft64() -> Qodg {
    let ft = lower_to_ft(&qft(64, 16)).expect("qft lowers cleanly");
    Qodg::from_ft_circuit(&ft)
}

/// 50 square candidates, sides 8..=57.
fn candidates() -> Vec<FabricDims> {
    (8u32..58)
        .map(|s| FabricDims::new(s, s).expect("valid dims"))
        .collect()
}

fn bench_sweep_vs_independent(c: &mut Criterion) {
    let qodg = qft64();
    let params = PhysicalParams::dac13();
    let options = EstimatorOptions::default();
    let candidates = candidates();

    let mut group = c.benchmark_group("sweep_qft64_50");
    group.sample_size(10);

    group.bench_function(
        criterion::BenchmarkId::from_parameter("profile_sweep"),
        |b| {
            b.iter(|| sweep_fabrics(&qodg, &params, options, candidates.iter().copied()));
        },
    );

    group.bench_function(
        criterion::BenchmarkId::from_parameter("independent_estimates"),
        |b| {
            b.iter(|| {
                candidates
                    .iter()
                    .map(|&dims| {
                        Estimator::with_options(dims, params.clone(), options)
                            .estimate(&qodg)
                            .ok()
                    })
                    .collect::<Vec<_>>()
            });
        },
    );

    group.finish();

    // Headline number: median-of-5 wall-clock ratio, printed so the
    // acceptance criterion (≥ 5×) is visible in plain `cargo bench` output.
    let time_runs = |f: &dyn Fn()| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let sweep_s = time_runs(&|| {
        std::hint::black_box(sweep_fabrics(
            &qodg,
            &params,
            options,
            candidates.iter().copied(),
        ));
    });
    let independent_s = time_runs(&|| {
        std::hint::black_box(
            candidates
                .iter()
                .map(|&dims| {
                    Estimator::with_options(dims, params.clone(), options)
                        .estimate(&qodg)
                        .ok()
                })
                .collect::<Vec<_>>(),
        );
    });
    let speedup = independent_s / sweep_s;
    println!(
        "sweep_qft64_50 speedup: {speedup:.1}x (independent {:.2} ms vs sweep {:.2} ms) — target >= 5x: {}",
        independent_s * 1e3,
        sweep_s * 1e3,
        if speedup >= 5.0 { "MET" } else { "NOT MET" },
    );

    // The profile alone must also pay off for repeated single estimates.
    let profile = ProgramProfile::new(&qodg);
    let estimator = Estimator::with_options(candidates[40], params.clone(), options);
    let direct = estimator.estimate(&qodg).expect("fits");
    let via_profile = estimator.estimate_with_profile(&profile).expect("fits");
    assert_eq!(
        direct.latency, via_profile.latency,
        "profile path must be bit-identical"
    );
}

criterion_group!(benches, bench_sweep_vs_independent);
criterion_main!(benches);
