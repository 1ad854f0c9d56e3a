//! Fabric-size exploration: Algorithm 1's stated use case ("this value
//! can be changed to find the optimal size for the fabric which results
//! in the minimum delay").
//!
//! # The sweep engine
//!
//! A sweep estimates one program on `N` candidate fabrics. Done naively
//! that costs `N` full runs of Algorithm 1; this module amortises all
//! program-dependent work instead:
//!
//! 1. **Profile reuse** — the IIG traversal, Eq. 7's zone average and
//!    Eq. 12's uncongested-delay terms are computed once per program
//!    ([`ProgramProfile`]) and shared by every candidate.
//! 2. **Compressed coverage** — per candidate, `E[S_q]` is evaluated over
//!    the run-length-compressed coverage histogram
//!    ([`crate::coverage::CoverageHistogram`], `O(terms · s²)` instead of
//!    `O(terms · A)`).
//! 3. **Path table** — Eq. 1 reads only the critical path's op census,
//!    which depends on the fabric only through the scalar `L_CNOT^avg`
//!    and is piecewise-constant in it. The profile's path table
//!    ([`crate::ProfileData`]) resolves the candidates' `L_CNOT^avg` values
//!    together: values an earlier query resolved are hits; a value between
//!    two resolved values that select the *same* census provably shares
//!    it (the longest-path envelope is convex in `L_CNOT^avg`), unless a
//!    known rival census comes within a 1e-12 guard; the rest take full
//!    `O(|V|+|E|)` passes, bisecting each unresolved run. What a sweep
//!    learns stays with the profile, so a repeat sweep on a warm profile
//!    walks nothing, and no candidate copies a node path.
//!
//! Every estimate produced this way is bit-identical to an independent
//! [`Estimator::estimate`] call on the same candidate (asserted per
//! workload by `tests/differential.rs`, on fresh and on warm profiles).
//!
//! With the `parallel` feature the per-candidate pricing loop runs on the
//! process-wide worker pool ([`crate::pool`]); candidate results are
//! identical either way.

use leqa_circuit::Qodg;
use leqa_fabric::{FabricDims, Micros, PhysicalParams};

use crate::estimator::{assemble_estimate, RoutingQuantities};
use crate::{Estimate, Estimator, EstimatorOptions, ProgramProfile};

/// Outcome of one fabric-size candidate.
///
/// `#[non_exhaustive]`: response-shaped — new per-candidate quantities may
/// be added without a breaking release.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepPoint {
    /// The candidate fabric.
    pub dims: FabricDims,
    /// The estimate on that fabric, or `None` when the program does not
    /// fit (fewer ULBs than logical qubits).
    pub estimate: Option<Estimate>,
}

/// Estimates a program across candidate fabrics and returns all points.
///
/// Builds the [`ProgramProfile`] once and runs the amortised engine above,
/// so an `N`-candidate sweep pays the `O(ops)` program traversals once
/// instead of `N` times. Candidates too small for the program yield
/// `estimate: None` rather than an error, so sweeps can span wide ranges.
pub fn sweep_fabrics(
    qodg: &Qodg,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: impl IntoIterator<Item = FabricDims>,
) -> Vec<SweepPoint> {
    sweep_profile(&ProgramProfile::new(qodg), params, options, candidates)
}

/// Like [`sweep_fabrics`] with a caller-owned [`ProgramProfile`] — the
/// entry point for callers sweeping the same program repeatedly (e.g.
/// across parameter sets as well as fabric sizes).
pub fn sweep_profile(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: impl IntoIterator<Item = FabricDims>,
) -> Vec<SweepPoint> {
    let candidates: Vec<FabricDims> = candidates.into_iter().collect();
    run_sweep(
        profile,
        params,
        options,
        candidates,
        cfg!(feature = "parallel"),
    )
}

/// Square-fabric convenience over [`sweep_profile`]: one point per side,
/// in input order — the reuse hook shared by the API's `sweep` endpoint
/// and the experiment engine's fabric axis, so both ride the same
/// path-table amortisation (and the same bit-identity contract).
///
/// # Errors
///
/// Returns the underlying [`FabricError`](leqa_fabric::FabricError) when a
/// side is not a valid fabric dimension (zero); sides merely too small for
/// the program still yield `estimate: None` points.
pub fn sweep_profile_squares(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    sides: impl IntoIterator<Item = u32>,
) -> Result<Vec<SweepPoint>, leqa_fabric::FabricError> {
    let candidates = sides
        .into_iter()
        .map(|side| FabricDims::new(side, side))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(sweep_profile(profile, params, options, candidates))
}

/// Like [`sweep_fabrics`], forcing the per-candidate loop onto the
/// worker pool ([`crate::pool`]) even when the `parallel` feature is off.
///
/// Estimation is CPU-bound and candidates are independent, so wide sweeps
/// — the paper's fabric-size exploration loop — scale with cores. Results
/// are identical to the serial engine's.
pub fn sweep_fabrics_parallel(
    qodg: &Qodg,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: impl IntoIterator<Item = FabricDims>,
) -> Vec<SweepPoint> {
    let candidates: Vec<FabricDims> = candidates.into_iter().collect();
    run_sweep(
        &ProgramProfile::new(qodg),
        params,
        options,
        candidates,
        true,
    )
}

/// Finds the latency-minimal square fabric among `sides`.
///
/// Returns `None` if no candidate fits the program.
///
/// # Examples
///
/// ```
/// use leqa::sweep::optimal_square_fabric;
/// use leqa::EstimatorOptions;
/// use leqa_circuit::{FtCircuit, Qodg, QubitId};
/// use leqa_fabric::PhysicalParams;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(3);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(1), QubitId(2))?;
/// let qodg = Qodg::from_ft_circuit(&ft);
///
/// let best = optimal_square_fabric(
///     &qodg,
///     &PhysicalParams::dac13(),
///     EstimatorOptions::default(),
///     [2, 4, 8, 16],
/// );
/// assert!(best.is_some());
/// # Ok(())
/// # }
/// ```
pub fn optimal_square_fabric(
    qodg: &Qodg,
    params: &PhysicalParams,
    options: EstimatorOptions,
    sides: impl IntoIterator<Item = u32>,
) -> Option<(FabricDims, Estimate)> {
    let candidates = sides.into_iter().filter_map(|s| FabricDims::new(s, s).ok());
    sweep_fabrics(qodg, params, options, candidates)
        .into_iter()
        .filter_map(|p| p.estimate.map(|e| (p.dims, e)))
        .min_by(|a, b| a.1.latency.as_f64().total_cmp(&b.1.latency.as_f64()))
}

// ── Engine internals ─────────────────────────────────────────────────────

fn run_sweep(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: Vec<FabricDims>,
    threaded: bool,
) -> Vec<SweepPoint> {
    // Phase 1: per-candidate congestion pricing (Algorithm 1 lines 1–18,
    // with lines 1–8 prepaid by the profile).
    let quantities = if threaded {
        quantities_threaded(profile, params, options, &candidates)
    } else {
        candidates
            .iter()
            .map(|&dims| candidate_quantities(profile, params, options, dims))
            .collect()
    };

    // Phase 2: resolve the routing-aware critical path of every fitting
    // candidate through the profile's path table, which bisects whatever
    // earlier queries left unresolved.
    let xs: Vec<Micros> = quantities
        .iter()
        .flatten()
        .map(|q: &RoutingQuantities| q.l_cnot_avg)
        .collect();
    let mut censuses = profile.critical_censuses(params, &options, &xs).into_iter();

    // Phase 3: assemble the estimates (Eq. 1) in candidate order.
    candidates
        .into_iter()
        .zip(quantities)
        .map(|(dims, quantities)| {
            let estimate = quantities.map(|q| {
                let census = censuses.next().expect("one census per fitting candidate");
                assemble_estimate(params, &options, q, census)
            });
            SweepPoint { dims, estimate }
        })
        .collect()
}

/// Phase 1 for one candidate; `None` when the program does not fit or the
/// options are invalid (mirrors the `.ok()` semantics sweeps always had).
fn candidate_quantities(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    dims: FabricDims,
) -> Option<RoutingQuantities> {
    Estimator::with_options(dims, params.clone(), options)
        .routing_quantities(profile)
        .ok()
}

/// Phase 1 on the worker pool.
fn quantities_threaded(
    profile: &ProgramProfile<'_>,
    params: &PhysicalParams,
    options: EstimatorOptions,
    candidates: &[FabricDims],
) -> Vec<Option<RoutingQuantities>> {
    crate::exec::parallel_map(candidates, |&dims| {
        candidate_quantities(profile, params, options, dims)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn dense_qodg() -> Qodg {
        let mut ft = FtCircuit::new(20);
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                ft.push_cnot(q(i), q(j)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn sweep_marks_undersized_fabrics() {
        let qodg = dense_qodg(); // 20 qubits
        let points = sweep_fabrics(
            &qodg,
            &PhysicalParams::dac13(),
            EstimatorOptions::default(),
            [
                FabricDims::new(4, 4).unwrap(),
                FabricDims::new(10, 10).unwrap(),
            ],
        );
        assert!(points[0].estimate.is_none()); // 16 < 20
        assert!(points[1].estimate.is_some());
    }

    #[test]
    fn optimum_is_the_sweep_minimum() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let sides = [5u32, 8, 15, 30, 60];
        let (best_dims, best) =
            optimal_square_fabric(&qodg, &params, opts, sides).expect("some fit");
        for p in sweep_fabrics(
            &qodg,
            &params,
            opts,
            sides.iter().filter_map(|&s| FabricDims::new(s, s).ok()),
        ) {
            if let Some(e) = p.estimate {
                assert!(best.latency.as_f64() <= e.latency.as_f64() + 1e-9);
            }
        }
        assert!(best_dims.area() >= 25);
    }

    #[test]
    fn squares_hook_matches_explicit_candidates() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let profile = ProgramProfile::new(&qodg);
        let from_sides = sweep_profile_squares(&profile, &params, opts, [4u32, 10, 20]).unwrap();
        let explicit = sweep_profile(
            &profile,
            &params,
            opts,
            [4u32, 10, 20].map(|s| FabricDims::new(s, s).unwrap()),
        );
        assert_eq!(from_sides.len(), explicit.len());
        for (a, b) in from_sides.iter().zip(&explicit) {
            assert_eq!(a.dims, b.dims);
            match (&a.estimate, &b.estimate) {
                (Some(x), Some(y)) => assert_eq!(x.latency, y.latency),
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
        assert!(sweep_profile_squares(&profile, &params, opts, [0u32]).is_err());
    }

    #[test]
    fn no_fit_returns_none() {
        let qodg = dense_qodg();
        assert!(optimal_square_fabric(
            &qodg,
            &PhysicalParams::dac13(),
            EstimatorOptions::default(),
            [2u32, 3, 4],
        )
        .is_none());
    }

    #[test]
    fn sweep_is_bit_identical_to_independent_estimates() {
        // The engine's contract: profile reuse, compressed coverage and
        // the path table change the cost, never the bits.
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let candidates: Vec<FabricDims> = (5..=60)
            .step_by(5)
            .map(|s| FabricDims::new(s, s).unwrap())
            .collect();
        let points = sweep_fabrics(&qodg, &params, opts, candidates.clone());
        for (point, dims) in points.iter().zip(&candidates) {
            let direct = Estimator::with_options(*dims, params.clone(), opts)
                .estimate(&qodg)
                .ok();
            match (&point.estimate, &direct) {
                (Some(sweep), Some(direct)) => {
                    assert_eq!(sweep.latency, direct.latency, "{dims:?}");
                    assert_eq!(sweep.l_cnot_avg, direct.l_cnot_avg, "{dims:?}");
                    assert_eq!(sweep.critical, direct.critical, "{dims:?}");
                    assert_eq!(sweep.esq, direct.esq, "{dims:?}");
                }
                (None, None) => {}
                other => panic!("{dims:?}: fit mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_without_critical_path_update_matches_too() {
        let qodg = dense_qodg();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions {
            update_critical_path: false,
            ..Default::default()
        };
        for point in sweep_fabrics(
            &qodg,
            &params,
            opts,
            [
                FabricDims::new(5, 5).unwrap(),
                FabricDims::new(40, 40).unwrap(),
            ],
        ) {
            let direct = Estimator::with_options(point.dims, params.clone(), opts)
                .estimate(&qodg)
                .unwrap();
            let sweep = point.estimate.expect("fits");
            assert_eq!(sweep.latency, direct.latency);
            assert_eq!(sweep.critical, direct.critical);
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use leqa_circuit::{FtCircuit, QubitId};

    #[test]
    fn parallel_sweep_matches_serial() {
        let mut ft = FtCircuit::new(12);
        for i in 0..11u32 {
            ft.push_cnot(QubitId(i), QubitId(i + 1)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let candidates: Vec<FabricDims> = [3u32, 4, 6, 10, 20, 40]
            .iter()
            .map(|&s| FabricDims::new(s, s).unwrap())
            .collect();

        let serial = sweep_fabrics(&qodg, &params, opts, candidates.clone());
        let parallel = sweep_fabrics_parallel(&qodg, &params, opts, candidates);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.dims, p.dims);
            match (&s.estimate, &p.estimate) {
                (Some(a), Some(b)) => assert_eq!(a.latency, b.latency),
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
    }
}
