//! Human-readable rendering of responses.
//!
//! The CLI's `--format text` output lives here, next to the DTOs it
//! formats, so the commands in `leqa-cli` stay pure adapters: build a
//! request, run it through a [`Session`](crate::Session), render. The
//! layouts are byte-compatible with the pre-API CLI output (asserted by
//! the CLI's unit tests).

use std::fmt::Write as _;

use crate::dto::{
    CompareResponse, EstimateResponse, MapResponse, ProgramSummary, Response, SweepResponse,
    ZonesResponse,
};
use crate::FabricSpec;

/// The standard program header line.
#[must_use]
pub fn header(program: &ProgramSummary, fabric: FabricSpec) -> String {
    format!(
        "{}: {} logical qubits, {} FT ops on a {}x{} fabric\n",
        program.label, program.qubits, program.ops, fabric.width, fabric.height
    )
}

/// Renders an estimate with every intermediate, as `leqa estimate` prints
/// it.
#[must_use]
pub fn estimate_text(resp: &EstimateResponse) -> String {
    let mut out = header(&resp.program, resp.fabric);
    let _ = writeln!(
        out,
        "estimated latency:  {:.6} s",
        resp.latency_us / 1_000_000.0
    );
    let _ = writeln!(out, "  L_CNOT^avg:       {:.1} µs", resp.l_cnot_avg_us);
    let _ = writeln!(out, "  L_g^avg:          {:.1} µs", resp.l_one_qubit_avg_us);
    let _ = writeln!(out, "  d_uncong:         {:.1} µs", resp.d_uncong_us);
    let _ = writeln!(out, "  avg zone area B:  {:.2}", resp.avg_zone_area);
    let _ = writeln!(out, "  zone side:        {}", resp.zone_side);
    let _ = writeln!(
        out,
        "  critical path:    {} CNOT + {} one-qubit ops",
        resp.critical_cnots, resp.critical_one_qubit
    );
    out
}

/// Renders a sweep table with the optimum, as `leqa sweep` prints it.
#[must_use]
pub fn sweep_text(resp: &SweepResponse) -> String {
    let mut out = format!(
        "{}: fabric-size sweep ({} qubits, {} ops)\n",
        resp.program.label, resp.program.qubits, resp.program.ops
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>14}",
        "fabric", "L_CNOT(µs)", "latency(s)"
    );
    let mut optimal_latency = None;
    for point in &resp.points {
        let side = point.side;
        match (point.l_cnot_avg_us, point.latency_us) {
            (Some(l_cnot), Some(latency_us)) => {
                let latency = latency_us / 1_000_000.0;
                let _ = writeln!(out, "{side:>6}x{side:<2} {l_cnot:>12.1} {latency:>14.6}");
                if resp.optimal_side == Some(side) {
                    optimal_latency = Some(latency);
                }
            }
            _ => {
                let _ = writeln!(out, "{side:>6}x{side:<2} (too small)");
            }
        }
    }
    if let (Some(side), Some(latency)) = (resp.optimal_side, optimal_latency) {
        let _ = writeln!(out, "optimal: {side}x{side} at {latency:.6} s");
    }
    out
}

/// Renders the per-qubit zone table, as `leqa zones` prints it (same
/// layout as [`leqa::report::format_report`]).
#[must_use]
pub fn zones_text(resp: &ZonesResponse) -> String {
    let mut out = header(&resp.program, resp.fabric);
    let _ = writeln!(
        out,
        "{:>6} {:>5} {:>9} {:>8} {:>10} {:>14}",
        "qubit", "M_i", "strength", "B_i", "E[l_ham]", "d_uncong(µs)"
    );
    for z in &resp.rows {
        let _ = writeln!(
            out,
            "{:>6} {:>5} {:>9} {:>8.1} {:>10.3} {:>14.1}",
            format!("q{}", z.qubit),
            z.degree,
            z.strength,
            z.zone_area,
            z.expected_path,
            z.uncongested_delay_us
        );
    }
    out
}

/// Renders the Table 2 comparison, as `leqa compare` prints it.
#[must_use]
pub fn compare_text(resp: &CompareResponse) -> String {
    let mut out = header(&resp.program, resp.fabric);
    let _ = writeln!(
        out,
        "actual (QSPR):      {:.6} s",
        resp.actual_us / 1_000_000.0
    );
    let _ = writeln!(
        out,
        "estimated (LEQA):   {:.6} s",
        resp.estimated_us / 1_000_000.0
    );
    if let Some(err) = resp.error_pct {
        let _ = writeln!(out, "absolute error:     {err:.2} %");
    }
    out
}

/// Renders the mapper statistics (and optional trace), as `leqa map`
/// prints them.
#[must_use]
pub fn map_text(resp: &MapResponse) -> String {
    let mut out = header(&resp.program, resp.fabric);
    let _ = writeln!(
        out,
        "actual latency:     {:.6} s",
        resp.latency_us / 1_000_000.0
    );
    let _ = writeln!(out, "  CNOTs routed:     {}", resp.cnot_ops);
    let _ = writeln!(
        out,
        "  avg CNOT distance:{:.2} hops",
        resp.avg_cnot_distance
    );
    let _ = writeln!(
        out,
        "  congestion wait:  {:.6} s (summed over qubits)",
        resp.congestion_wait_us / 1_000_000.0
    );
    let _ = writeln!(
        out,
        "  busiest channel:  {} traversals",
        resp.max_channel_load
    );
    if let Some(trace) = &resp.trace {
        let _ = writeln!(out, "\nlongest-running operations:");
        out.push_str(trace);
    }
    out
}

/// Renders the one-line grid description shared by the run header and
/// the CLI's `--dry-run` output.
#[must_use]
pub fn experiment_plan_text(plan: &crate::ExperimentPlan) -> String {
    let mut line = format!(
        "{} cells ({} workloads × {} params × {} routers × {} movements × {} sides), mode {}",
        plan.cells,
        plan.workloads.len(),
        plan.params.len(),
        plan.routers.len(),
        plan.movements.len(),
        plan.sides.len(),
        plan.mode.name(),
    );
    if let Some(mc) = &plan.montecarlo {
        let _ = write!(
            line,
            " ({} densities × {} trials)",
            mc.densities.len(),
            mc.trials
        );
    }
    line
}

/// Renders the table header of an experiment run, as `leqa experiment`
/// prints it.
#[must_use]
pub fn experiment_header_text(plan: &crate::ExperimentPlan) -> String {
    let mut out = format!("experiment: {}\n", experiment_plan_text(plan));
    let _ = writeln!(
        out,
        "{:>5} {:<18} {:<10} {:>8} {:>5} {:>6} {:>14}",
        "cell", "workload", "params", "router", "move", "side", "latency(s)"
    );
    out
}

/// Renders one experiment cell row, as `leqa experiment` prints it.
#[must_use]
pub fn experiment_cell_text(row: &crate::CellRow) -> String {
    use crate::wire::name_of;
    use qspr::{MovementModel, RouterStrategy};
    let latency = match row.metrics.primary_latency_us() {
        Some(us) => format!("{:>14.6}", us / 1_000_000.0),
        // An unroutable Monte Carlo trial *fit* the fabric; the defects
        // severed it. Everything else without a latency was too small.
        None if matches!(
            row.metrics,
            crate::CellMetrics::MonteCarlo {
                routable: Some(false),
                ..
            }
        ) =>
        {
            format!("{:>14}", "(unroutable)")
        }
        None => format!("{:>14}", "(too small)"),
    };
    format!(
        "{:>5} {:<18} {:<10} {:>8} {:>5} {:>6} {latency}\n",
        row.cell,
        row.workload,
        row.params,
        name_of(&RouterStrategy::NAMES, row.router),
        name_of(&MovementModel::NAMES, row.movement),
        row.side,
    )
}

/// Renders the experiment summary block, as `leqa experiment` prints it.
#[must_use]
pub fn experiment_summary_text(summary: &crate::ExperimentSummary) -> String {
    let mut out = format!(
        "\nsummary: {} cells, {} fit\n",
        summary.cells, summary.fit_cells
    );
    for w in &summary.workloads {
        match (w.min_latency_us, w.max_latency_us, w.argmin_side) {
            (Some(min), Some(max), Some(side)) => {
                let _ = writeln!(
                    out,
                    "  {:<18} min {:.6} s at {side}x{side}, max {:.6} s ({} fitting cells)",
                    w.workload,
                    min / 1_000_000.0,
                    max / 1_000_000.0,
                    w.fit_cells
                );
            }
            _ => {
                let _ = writeln!(out, "  {:<18} no fitting cells", w.workload);
            }
        }
    }
    if let Some(mc) = &summary.montecarlo {
        let _ = writeln!(out, "yield:");
        for d in &mc.densities {
            let rate = match (d.routability, d.ci_low, d.ci_high) {
                (Some(r), Some(lo), Some(hi)) => {
                    format!(
                        "{:>5.1}% routable (95% CI {:.1}%–{:.1}%)",
                        100.0 * r,
                        100.0 * lo,
                        100.0 * hi
                    )
                }
                _ => "no fitting trials".to_string(),
            };
            let p50 = match d.p50_latency_us {
                Some(us) => format!(", p50 {:.6} s", us / 1_000_000.0),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  density {:<6} {rate}{p50}  ({} trials)",
                d.density, d.trials
            );
        }
        match (mc.critical_density, mc.critical_ci_low, mc.critical_ci_high) {
            (Some(crit), Some(lo), Some(hi)) => {
                let _ = writeln!(
                    out,
                    "critical density (50% routability): {crit:.4} (95% CI {lo:.4}–{hi:.4})"
                );
            }
            _ => {
                let _ = writeln!(out, "critical density: not bracketed by the sweep");
            }
        }
    }
    let c = &summary.cache;
    let _ = writeln!(
        out,
        "cache: {} loads ({} hits, {} misses), {} profiles built",
        c.loads, c.cache_hits, c.cache_misses, c.profile_builds
    );
    out
}

/// Renders any response in its command's text layout.
#[must_use]
pub fn response_text(resp: &Response) -> String {
    match resp {
        Response::Estimate(r) => estimate_text(r),
        Response::Sweep(r) => sweep_text(r),
        Response::Zones(r) => zones_text(r),
        Response::Compare(r) => compare_text(r),
        Response::Map(r) => map_text(r),
    }
}
