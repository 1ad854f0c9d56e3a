//! Experiment-grid amortisation: the declarative engine
//! ([`Session::batch_experiment`]) against the equivalent serial loop of
//! single-cell `estimate` requests on the same grid.
//!
//! The engine's claim (PERF.md "The experiment-grid bench"): distinct
//! programs are profiled once through the session cache, each
//! (workload, params) group's fabric axis rides one sweep through the
//! program's path table, and router/movement variants replay the group's
//! points, while `crates/api/tests/experiment.rs` pins the rows
//! bit-identical to the serial loop.
//!
//! The headline is deterministic: the full critical-path passes
//! (`ProfileData::critical_path_passes`) the serial loop and the grid
//! each run on a fresh session, over the full grid. Their ratio is
//! appended to `BENCH_JSON` as an `experiment/pass_ratio` record, which
//! `scripts/perf_gate.sh` gates against `BENCH_throughput.json`. The
//! criterion group times both sides on a warm session for reference.
//!
//! `BENCH_JSON=$PWD/BENCH_throughput.json cargo bench -p leqa-bench
//! --bench experiment_grid`. Set `EXPERIMENT_BENCH_SMOKE=1` for the
//! reduced CI variant; it shrinks only the timed grid.

use std::io::Write as _;

use criterion::{criterion_group, criterion_main, Criterion};

use leqa_api::{EstimateRequest, FabricEntry, ProgramSpec, ScenarioSpec, Session};

fn smoke() -> bool {
    std::env::var("EXPERIMENT_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// An acceptance-shaped grid: workloads × sides × 2 routers.
struct Grid {
    workloads: &'static [&'static str],
    sides: (u32, u32, u32),
}

/// 3 workloads × 10 sides × 2 routers = 60 cells.
const FULL: Grid = Grid {
    workloads: &["qft_8", "qft_16", "8bitadder"],
    sides: (10, 55, 5),
};

const SMOKE: Grid = Grid {
    workloads: &["qft_8", "8bitadder"],
    sides: (10, 50, 10),
};

impl Grid {
    fn spec(&self) -> ScenarioSpec {
        let (min, max, step) = self.sides;
        ScenarioSpec::new(
            self.workloads.iter().copied(),
            [FabricEntry::Range { min, max, step }],
        )
        .with_routers([qspr::RouterStrategy::Xy, qspr::RouterStrategy::Yx])
    }

    /// The equivalent serial loop: one `estimate` request per cell, in the
    /// same cell order — what a user would hand-script without the engine.
    fn run_serial(&self, session: &Session) -> usize {
        let (min, max, step) = self.sides;
        let mut cells = 0;
        for &workload in self.workloads {
            for _router in ["xy", "yx"] {
                for side in (min..=max).step_by(step as usize) {
                    session
                        .estimate(
                            &EstimateRequest::new(ProgramSpec::bench(workload))
                                .with_fabric(side, side),
                        )
                        .expect("grid programs fit some fabric or report unfit");
                    cells += 1;
                }
            }
        }
        cells
    }

    /// Full critical-path passes run against the grid's programs.
    fn passes(&self, session: &Session) -> u64 {
        self.workloads
            .iter()
            .map(|&w| {
                session
                    .load(&ProgramSpec::bench(w))
                    .expect("grid programs load")
                    .profile_data()
                    .critical_path_passes()
            })
            .sum()
    }
}

fn bench_experiment_grid(c: &mut Criterion) {
    let grid = if smoke() { SMOKE } else { FULL };
    let spec = grid.spec();
    let session = Session::builder().build().expect("default session");
    // Warm the cache once: both sides then measure steady-state service
    // behaviour rather than first-touch lowering.
    session.batch_experiment(&spec).expect("grid runs");

    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function(criterion::BenchmarkId::from_parameter("grid"), |b| {
        b.iter(|| session.batch_experiment(&spec).expect("grid runs"))
    });
    group.bench_function(
        criterion::BenchmarkId::from_parameter("serial_cells"),
        |b| b.iter(|| grid.run_serial(&session)),
    );
    group.finish();

    // Headline: full passes on fresh sessions, over the full grid.
    let serial = Session::builder().build().expect("default session");
    let cells = FULL.run_serial(&serial);
    let serial_passes = FULL.passes(&serial);
    let engine = Session::builder().build().expect("default session");
    engine.batch_experiment(&FULL.spec()).expect("grid runs");
    let grid_passes = FULL.passes(&engine);
    let ratio = serial_passes as f64 / grid_passes.max(1) as f64;
    println!(
        "experiment grid full passes: serial {serial_passes} vs grid {grid_passes} over {cells} cells — {ratio:.2}x"
    );

    if let Ok(path) = std::env::var("BENCH_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                file,
                "{{\"name\":\"experiment/pass_ratio\",\"speedup\":{ratio:.4},\"serial_passes\":{serial_passes},\"grid_passes\":{grid_passes},\"cells\":{cells}}}",
            );
        }
    }
}

criterion_group!(benches, bench_experiment_grid);
criterion_main!(benches);
