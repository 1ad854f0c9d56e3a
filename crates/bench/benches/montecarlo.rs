//! Monte Carlo yield-engine throughput: one batched `montecarlo`
//! experiment (profile loaded once, grid planned once, trials run
//! against the one session) against the hand-scripted alternative — a
//! fresh session and a single-trial spec per (density, trial) sample,
//! which is what a shell loop over `leqa experiment` invocations does.
//!
//! The claim: the engine amortises program loading, profile building
//! and plan validation across the whole density × trial grid, so the
//! batched study is never slower than the loop (target ≥ 1x).
//!
//! `BENCH_JSON=$PWD/BENCH_yield.json cargo bench -p leqa-bench --bench
//! montecarlo` appends one `montecarlo/speedup` JSON line. Set
//! `MONTECARLO_BENCH_SMOKE=1` for the reduced CI variant.

use std::io::Write as _;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use leqa_api::{FabricEntry, MonteCarloSpec, ScenarioSpec, Session};

fn smoke() -> bool {
    std::env::var("MONTECARLO_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn densities() -> Vec<f64> {
    if smoke() {
        vec![0.0, 0.15, 0.3]
    } else {
        vec![0.0, 0.05, 0.1, 0.2, 0.35, 0.5]
    }
}

fn trials() -> u32 {
    if smoke() {
        4
    } else {
        16
    }
}

/// The batched study: every (density, trial) sample in one request.
fn spec() -> ScenarioSpec {
    ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)]).with_montecarlo(MonteCarloSpec::new(
        densities(),
        trials(),
        7,
    ))
}

/// The hand-scripted loop: a fresh session and a one-sample spec per
/// (density, trial), as a shell loop over CLI invocations would run.
fn run_serial() -> usize {
    let mut samples = 0;
    for density in densities() {
        for trial in 0..trials() {
            let session = Session::builder().build().expect("default session");
            let one = ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
                .with_montecarlo(MonteCarloSpec::new([density], 1, 7 ^ u64::from(trial)));
            session.batch_experiment(&one).expect("single sample runs");
            samples += 1;
        }
    }
    samples
}

fn bench_montecarlo(c: &mut Criterion) {
    let spec = spec();
    let session = Session::builder().build().expect("default session");
    session.batch_experiment(&spec).expect("study runs");

    let mut group = c.benchmark_group("montecarlo");
    group.sample_size(10);
    group.bench_function(criterion::BenchmarkId::from_parameter("batched"), |b| {
        b.iter(|| session.batch_experiment(&spec).expect("study runs"))
    });
    group.bench_function(
        criterion::BenchmarkId::from_parameter("serial_samples"),
        |b| b.iter(run_serial),
    );
    group.finish();

    // Headline: median-of-5 batched vs hand-scripted wall-clock.
    let median = |f: &dyn Fn()| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let batched_s = median(&|| {
        std::hint::black_box(session.batch_experiment(&spec).expect("study runs"));
    });
    let samples = run_serial();
    let serial_s = median(&|| {
        std::hint::black_box(run_serial());
    });
    let speedup = serial_s / batched_s;
    let verdict = if speedup >= 1.0 { "MET" } else { "NOT MET" };
    println!(
        "montecarlo yield speedup: {speedup:.2}x (serial {:.2} ms vs batched {:.2} ms, {samples} samples) — amortisation target >= 1x: {verdict}",
        serial_s * 1e3,
        batched_s * 1e3,
    );

    if let Ok(path) = std::env::var("BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                file,
                "{{\"name\":\"montecarlo/speedup\",\"speedup\":{speedup:.4},\"serial_ms\":{:.4},\"batched_ms\":{:.4},\"samples\":{samples}}}",
                serial_s * 1e3,
                batched_s * 1e3,
            );
        }
    }
}

criterion_group!(benches, bench_montecarlo);
criterion_main!(benches);
