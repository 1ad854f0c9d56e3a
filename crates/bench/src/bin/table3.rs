//! Regenerates Table 3: benchmark sizes, QSPR vs LEQA runtimes and the
//! speedup, side by side with the paper's published numbers.
//!
//! Absolute runtimes are incomparable across machines and languages (the
//! paper used Java on a 2010 Pentium dual-core); what must reproduce is
//! the *shape*: the speedup grows with the operation count.
//!
//! LEQA's time is the cold estimate, split into its two stages: the
//! program profile (IIG and the Eq. 7/12 aggregates) and the fabric half
//! (Eqs. 1–11 and the critical path). Lowering is shared by both tools
//! and falls outside Table 3's timers, as in the paper; it is still
//! measured, as is a warm query (the fabric half again, with the critical
//! path already resolved). The QODG is a view that takes the lowered op
//! list over, so neither side has a graph build to time. Each stage
//! reports the median of five passes; every cold profile and cold fabric
//! half pass starts from a fresh `ProfileData`, since the fabric half
//! keeps the critical-path censuses it resolves.
//!
//! The design-loop rows put the cost claim in the form of the paper's use
//! case: one profile plus one cold sweep over the 41 sides 40 to 80,
//! against 41 maps (mapped latency barely depends on the side, so 41 maps
//! cost 41 times one). They report the sweep's full critical-path passes
//! and its median time. With `BENCH_JSON=FILE` each program appends one
//! JSON line to `FILE` with every stage and each ratio with its numerator
//! and denominator, the cost trajectory recorded in `BENCH_cost.json`.

use std::io::Write as _;
use std::time::Instant;

use leqa::sweep::sweep_profile_squares;
use leqa::{Estimator, EstimatorOptions, ProfileData, ProgramProfile};
use leqa_api::json::Json;
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::{Benchmark, SUITE};
use qspr::Mapper;

/// One program's stage timings, in milliseconds.
struct Stages {
    qubits: u64,
    ops: u64,
    lower_ms: f64,
    mapper_ms: f64,
    profile_ms: f64,
    fabric_half_ms: f64,
    /// The fabric half again, its critical path now resolved in the
    /// profile's path table: what a warm design-loop query pays.
    warm_ms: f64,
    /// A cold sweep over [`SWEEP_SIDES`] on a fresh profile.
    sweep_ms: f64,
    /// The full critical-path passes that sweep runs.
    sweep_passes: u64,
}

impl Stages {
    fn estimator_ms(&self) -> f64 {
        self.profile_ms + self.fabric_half_ms
    }

    /// Table 3's speedup: mapper over cold estimator.
    fn speedup(&self) -> f64 {
        self.mapper_ms / self.estimator_ms()
    }

    /// The design loop: one map per side over one profile and one cold
    /// sweep, as (numerator, denominator) in milliseconds.
    fn design_loop(&self) -> (f64, f64) {
        let sides = SWEEP_SIDES.count() as f64;
        (sides * self.mapper_ms, self.profile_ms + self.sweep_ms)
    }

    fn to_json(&self, name: &str) -> Json {
        let ratio = |numerator: f64, denominator: f64| {
            Json::obj(vec![
                ("value", Json::Num(numerator / denominator)),
                ("numerator_ms", Json::Num(numerator)),
                ("denominator_ms", Json::Num(denominator)),
            ])
        };
        Json::obj(vec![
            ("name", Json::str(format!("table3/{name}"))),
            ("qubits", Json::Num(self.qubits as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("lower_ms", Json::Num(self.lower_ms)),
            ("mapper_ms", Json::Num(self.mapper_ms)),
            ("estimator_ms", Json::Num(self.estimator_ms())),
            ("profile_ms", Json::Num(self.profile_ms)),
            ("fabric_half_ms", Json::Num(self.fabric_half_ms)),
            ("warm_ms", Json::Num(self.warm_ms)),
            ("sweep_ms", Json::Num(self.sweep_ms)),
            ("sweep_passes", Json::Num(self.sweep_passes as f64)),
            // Table 3's column: mapper over estimator.
            ("speedup", ratio(self.mapper_ms, self.estimator_ms())),
            // From the circuit: both sides also lower.
            (
                "cold_speedup",
                ratio(
                    self.lower_ms + self.mapper_ms,
                    self.lower_ms + self.estimator_ms(),
                ),
            ),
            // 41 maps against one profile and one cold 41-side sweep.
            ("design_loop_speedup", {
                let (maps, sweep) = self.design_loop();
                ratio(maps, sweep)
            }),
        ])
    }
}

/// Passes per stage; a stage reports the median.
const PASSES: usize = 5;

/// The design-loop sweep's square sides.
const SWEEP_SIDES: std::ops::RangeInclusive<u32> = 40..=80;

/// Runs `f` once, returning its wall time in milliseconds and its output.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs `pass` [`PASSES`] times, returning the median of the times it
/// reports and the last pass's output. Set-up inside `pass` but outside
/// its timer stays out of the figure.
fn median_of<T>(mut pass: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(PASSES);
    let mut last = None;
    for _ in 0..PASSES {
        let (ms, out) = pass();
        times.push(ms);
        last = Some(out);
    }
    times.sort_by(f64::total_cmp);
    (times[PASSES / 2], last.expect("at least one pass"))
}

/// Lowers, maps and estimates one program, timing every stage as the
/// median of [`PASSES`] passes.
fn measure(bench: &Benchmark, dims: FabricDims, params: &PhysicalParams) -> Stages {
    let circuit = bench.circuit();
    let (lower_ms, qodg) = median_of(|| {
        timed(|| Qodg::from(lower_to_ft(&circuit).expect("suite circuits lower cleanly")))
    });

    let mapper = Mapper::new(dims, params.clone());
    let (mapper_ms, mapped) = median_of(|| timed(|| mapper.map(&qodg)));
    mapped.expect("suite fits the fabric");

    let estimator = Estimator::new(dims, params.clone());
    let (profile_ms, data) = median_of(|| timed(|| ProfileData::new(&qodg)));
    let (fabric_half_ms, estimate) = median_of(|| {
        let fresh = ProfileData::new(&qodg);
        let profile = ProgramProfile::from_data(&qodg, &fresh);
        timed(|| estimator.estimate_with_profile(&profile))
    });
    estimate.expect("suite fits the fabric");
    // Warm: the path the first query resolves stays with the profile.
    let profile = ProgramProfile::from_data(&qodg, &data);
    estimator
        .estimate_with_profile(&profile)
        .expect("suite fits the fabric");
    let (warm_ms, warm) = median_of(|| timed(|| estimator.estimate_with_profile(&profile)));
    warm.expect("suite fits the fabric");
    let (sweep_ms, sweep_passes) = median_of(|| {
        let fresh = ProfileData::new(&qodg);
        let profile = ProgramProfile::from_data(&qodg, &fresh);
        let options = EstimatorOptions::default();
        let (ms, swept) = timed(|| sweep_profile_squares(&profile, params, options, SWEEP_SIDES));
        swept.expect("the sides are valid");
        (ms, fresh.critical_path_passes())
    });

    Stages {
        qubits: u64::from(qodg.num_qubits()),
        ops: qodg.op_count() as u64,
        lower_ms,
        mapper_ms,
        profile_ms,
        fabric_half_ms,
        warm_ms,
        sweep_ms,
        sweep_passes,
    }
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

fn main() {
    let dims = FabricDims::dac13();
    let params = PhysicalParams::dac13();

    println!("Table 3. Benchmark sizes and runtimes");
    println!(
        "{:<16} {:>7} {:>9} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "", "", "", "——", "this repro", "——", "——", "paper", "——"
    );
    println!(
        "{:<16} {:>7} {:>9} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "Benchmark",
        "Qubits",
        "Ops",
        "QSPR(s)",
        "LEQA(s)",
        "Speedup",
        "QSPR(s)",
        "LEQA(s)",
        "Speedup"
    );
    println!("{}", "-".repeat(110));

    // Always serial: this table's whole point is the wall-clock columns,
    // which concurrent rows would contend for (see `run_suite`'s docs).
    let mut first_speedup = None;
    let mut last_speedup = 0.0;
    let mut design_loop = Vec::new();
    for bench in &SUITE {
        let stages = measure(bench, dims, &params);
        let speedup = stages.speedup();
        first_speedup.get_or_insert(speedup);
        last_speedup = speedup;
        println!(
            "{:<16} {:>7} {:>9} | {:>9.4} {:>9.5} {:>8.1} | {:>9.1} {:>9.3} {:>8.1}",
            bench.name,
            stages.qubits,
            stages.ops,
            stages.mapper_ms / 1e3,
            stages.estimator_ms() / 1e3,
            speedup,
            bench.paper.qspr_runtime_s,
            bench.paper.leqa_runtime_s,
            bench.paper.speedup,
        );
        emit(&stages.to_json(bench.name).encode());
        design_loop.push((bench.name, stages));
    }
    println!("{}", "-".repeat(110));
    println!(
        "speedup trend: {:.1}x on the smallest benchmark -> {:.1}x on the largest \
         (paper: 8.2x -> 114.7x)",
        first_speedup.unwrap_or(0.0),
        last_speedup
    );

    println!("\nDesign loop: sides 40..=80, 41 maps against one profile and one cold sweep");
    println!(
        "{:<16} {:>7} {:>10} {:>12} {:>12} {:>8}",
        "Benchmark", "Passes", "Sweep(ms)", "41 maps(ms)", "LEQA(ms)", "Ratio"
    );
    for (name, stages) in &design_loop {
        let (maps, sweep) = stages.design_loop();
        println!(
            "{:<16} {:>7} {:>10.3} {:>12.1} {:>12.3} {:>8.1}",
            name,
            stages.sweep_passes,
            stages.sweep_ms,
            maps,
            sweep,
            maps / sweep
        );
    }
}
