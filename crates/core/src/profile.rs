//! Reusable per-program precomputation for the estimator.
//!
//! Algorithm 1 splits naturally into *program-dependent* work — the IIG
//! traversal, the presence-zone average `B` (Eq. 7) and the per-qubit
//! uncongested-delay terms (Eqs. 15–16) — and *fabric-dependent* work (the
//! coverage statistics, the M/M/1 pricing and the critical-path pass). A
//! [`ProgramProfile`] captures everything in the first group once per QODG,
//! so an `N`-candidate fabric sweep pays the `O(ops)` traversals once
//! instead of `N` times (see [`crate::sweep`] and PERF.md).
//!
//! The precomputation itself lives in the owned, borrow-free
//! [`ProfileData`], so long-lived callers (the `leqa-api` session cache)
//! can store it next to the program and re-attach it to the QODG with
//! [`ProgramProfile::from_data`] at zero cost per request. It also keeps
//! the program's path table ([`crate::paths`]), so every caller reusing
//! the data resolves each `L_CNOT^avg` once per delay model.

use std::borrow::Cow;

use leqa_circuit::{Iig, Qodg, QubitId};
use leqa_fabric::{Micros, PhysicalParams};

use crate::estimator::Census;
use crate::paths::PathTable;
use crate::{presence, tsp, EstimatorOptions};

/// The owned program-dependent precomputation of Algorithm 1 (lines 1–8):
/// the IIG, Eq. 7's zone average and Eq. 12's weighted uncongested-delay
/// terms with the qubit speed factored out.
///
/// Unlike [`ProgramProfile`] this holds no borrow of the QODG, so it can
/// be cached and moved freely; pair it back up with the program it was
/// computed from via [`ProgramProfile::from_data`].
///
/// It also carries the critical-path censuses resolved against the
/// program, a bounded cache shared by every caller holding the data. The cache is
/// left out of equality, starts empty in a clone and is never persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileData {
    iig: Iig,
    /// `B` (Eq. 7), `None` when the program has no two-qubit ops.
    avg_zone_area: Option<f64>,
    /// `Σ_i strength_i · (E[l_ham,i] / M_i)` — the speed-independent
    /// numerator of Eq. 12 (multiply by `1/v` to price it).
    uncong_numerator: f64,
    /// `Σ_i strength_i` over qubits with interactions (Eq. 12 denominator).
    strength_total: f64,
    /// Critical-path censuses resolved against this program.
    paths: PathTable,
}

impl ProfileData {
    /// Runs the program-dependent passes once for `qodg`.
    #[must_use]
    pub fn new(qodg: &Qodg) -> Self {
        ProfileData::with_iig(Iig::from_qodg(qodg))
    }

    /// Like [`new`](Self::new) with a caller-built IIG.
    #[must_use]
    pub fn with_iig(iig: Iig) -> Self {
        let avg_zone_area = presence::average_zone_area(&iig);
        let mut uncong_numerator = 0.0;
        let mut strength_total = 0.0;
        for i in 0..iig.num_qubits() {
            let q = QubitId(i);
            let strength = iig.strength(q) as f64;
            if strength > 0.0 {
                let m = iig.degree(q);
                // Eq. 16 numerator: E[l_ham,i] / M_i, speed factored out.
                let per_op = if m == 0 {
                    0.0
                } else {
                    tsp::expected_hamiltonian_path(m) / m as f64
                };
                uncong_numerator += strength * per_op;
                strength_total += strength;
            }
        }
        ProfileData {
            iig,
            avg_zone_area,
            uncong_numerator,
            strength_total,
            paths: PathTable::default(),
        }
    }

    /// The interaction intensity graph.
    #[inline]
    pub fn iig(&self) -> &Iig {
        &self.iig
    }

    /// `B` (Eq. 7): the strength-weighted average presence-zone area, or
    /// `None` when the program has no two-qubit operations.
    #[inline]
    pub fn avg_zone_area(&self) -> Option<f64> {
        self.avg_zone_area
    }

    /// `d_uncong` (Eq. 12) for a fabric with the given qubit speed `v`,
    /// or `None` when no two-qubit operations exist.
    pub fn uncongested_delay(&self, qubit_speed: f64) -> Option<Micros> {
        (self.strength_total > 0.0)
            .then(|| Micros::new(self.uncong_numerator / self.strength_total / qubit_speed))
    }

    /// Full critical-path passes (`O(|V|+|E|)` QODG walks) run against
    /// this data. Queries the path table answers without a walk leave it
    /// unchanged.
    #[inline]
    pub fn critical_path_passes(&self) -> u64 {
        self.paths.passes()
    }
}

/// Fabric-independent precomputation for one program (QODG).
///
/// # Examples
///
/// ```
/// use leqa::{Estimator, ProgramProfile};
/// use leqa_circuit::{FtCircuit, Qodg, QubitId};
/// use leqa_fabric::{FabricDims, PhysicalParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ft = FtCircuit::new(3);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(1), QubitId(2))?;
/// let qodg = Qodg::from_ft_circuit(&ft);
///
/// let profile = ProgramProfile::new(&qodg);
/// let estimator = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13());
/// // Bit-identical to `estimator.estimate(&qodg)?`, minus the profile cost.
/// let estimate = estimator.estimate_with_profile(&profile)?;
/// assert!(estimate.latency.as_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramProfile<'a> {
    qodg: &'a Qodg,
    data: Cow<'a, ProfileData>,
}

impl<'a> ProgramProfile<'a> {
    /// Runs the program-dependent passes of Algorithm 1 (lines 1–8) once:
    /// IIG construction, Eq. 7's zone average, and Eq. 12's weighted
    /// uncongested-delay terms with the qubit speed factored out.
    #[must_use]
    pub fn new(qodg: &'a Qodg) -> Self {
        ProgramProfile {
            qodg,
            data: Cow::Owned(ProfileData::new(qodg)),
        }
    }

    /// Like [`new`](Self::new) with a caller-built IIG (for callers that
    /// already have one).
    #[must_use]
    pub fn with_iig(qodg: &'a Qodg, iig: Iig) -> Self {
        ProgramProfile {
            qodg,
            data: Cow::Owned(ProfileData::with_iig(iig)),
        }
    }

    /// Re-attaches cached [`ProfileData`] to the program it was computed
    /// from. O(1) — no traversal happens; this is how the `leqa-api`
    /// session serves repeat requests without rebuilding the profile.
    ///
    /// The caller must pair the data with *its own* QODG; attaching a
    /// different program's data silently yields that other program's
    /// congestion quantities (a QODG of another size at least bypasses
    /// the data's path table).
    #[must_use]
    pub fn from_data(qodg: &'a Qodg, data: &'a ProfileData) -> Self {
        ProgramProfile {
            qodg,
            data: Cow::Borrowed(data),
        }
    }

    /// The program this profile was computed for.
    #[inline]
    pub fn qodg(&self) -> &'a Qodg {
        self.qodg
    }

    /// The owned program-dependent precomputation behind this profile.
    #[inline]
    pub fn data(&self) -> &ProfileData {
        &self.data
    }

    /// The interaction intensity graph.
    #[inline]
    pub fn iig(&self) -> &Iig {
        self.data.iig()
    }

    /// `Q`: logical qubits in the program.
    #[inline]
    pub fn qubit_count(&self) -> u64 {
        self.qodg.num_qubits() as u64
    }

    /// `B` (Eq. 7): the strength-weighted average presence-zone area, or
    /// `None` when the program has no two-qubit operations.
    #[inline]
    pub fn avg_zone_area(&self) -> Option<f64> {
        self.data.avg_zone_area()
    }

    /// Total interaction weight (two-qubit op count) of the program.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.data.iig.total_weight()
    }

    /// `d_uncong` (Eq. 12) for a fabric with the given qubit speed `v`, or
    /// `None` when no two-qubit operations exist. O(1): the traversal was
    /// paid at construction.
    pub fn uncongested_delay(&self, qubit_speed: f64) -> Option<Micros> {
        self.data.uncongested_delay(qubit_speed)
    }

    /// The census of the routing-aware critical path (Algorithm 1 line 19)
    /// at each `L_CNOT^avg` in `xs`, in order, through the data's path
    /// table.
    pub(crate) fn critical_censuses(
        &self,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        xs: &[Micros],
    ) -> Vec<Census> {
        self.data.paths.resolve(self.qodg, params, options, xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::FtCircuit;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn star_qodg() -> Qodg {
        let mut ft = FtCircuit::new(5);
        for i in 1..5 {
            ft.push_cnot(q(0), q(i)).unwrap();
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn profile_matches_direct_traversals() {
        let qodg = star_qodg();
        let profile = ProgramProfile::new(&qodg);
        let iig = Iig::from_qodg(&qodg);

        assert_eq!(
            profile.avg_zone_area(),
            presence::average_zone_area(&iig),
            "Eq. 7 must match the direct computation"
        );
        assert_eq!(profile.qubit_count(), 5);
        assert_eq!(profile.total_weight(), 4);

        // Eq. 12 agrees with the direct traversal to rounding.
        for v in [0.001, 0.01, 2.0] {
            let direct = tsp::uncongested_delay(&iig, v).unwrap().as_f64();
            let cached = profile.uncongested_delay(v).unwrap().as_f64();
            assert!(
                (direct - cached).abs() <= 1e-12 * direct.max(1.0),
                "v={v}: direct {direct} vs cached {cached}"
            );
        }
    }

    #[test]
    fn interaction_free_program_has_no_zone_quantities() {
        let ft = FtCircuit::new(4);
        let qodg = Qodg::from_ft_circuit(&ft);
        let profile = ProgramProfile::new(&qodg);
        assert_eq!(profile.avg_zone_area(), None);
        assert_eq!(profile.uncongested_delay(0.001), None);
        assert_eq!(profile.total_weight(), 0);
    }

    #[test]
    fn uncongested_delay_scales_inversely_with_speed() {
        let qodg = star_qodg();
        let profile = ProgramProfile::new(&qodg);
        let d1 = profile.uncongested_delay(0.001).unwrap().as_f64();
        let d2 = profile.uncongested_delay(0.002).unwrap().as_f64();
        assert!((d1 / d2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clones_start_with_an_empty_path_table() {
        let qodg = star_qodg();
        let data = ProfileData::new(&qodg);
        let estimator = crate::Estimator::new(
            leqa_fabric::FabricDims::new(4, 4).unwrap(),
            PhysicalParams::dac13(),
        );
        let warm = estimator
            .estimate_with_profile(&ProgramProfile::from_data(&qodg, &data))
            .unwrap();
        assert_eq!(data.critical_path_passes(), 1);

        let clone = data.clone();
        assert_eq!(clone, data, "the table is left out of equality");
        assert_eq!(clone.critical_path_passes(), 0);
        let cold = estimator
            .estimate_with_profile(&ProgramProfile::from_data(&qodg, &clone))
            .unwrap();
        assert_eq!(clone.critical_path_passes(), 1);
        assert_eq!(cold.critical, warm.critical);
    }

    #[test]
    fn detached_data_reattaches_bitwise_identically() {
        // The api session's caching pattern: compute once, detach, reuse.
        let qodg = star_qodg();
        let fresh = ProgramProfile::new(&qodg);
        let data = ProfileData::new(&qodg);
        let reattached = ProgramProfile::from_data(&qodg, &data);

        assert_eq!(fresh.avg_zone_area(), reattached.avg_zone_area());
        assert_eq!(fresh.total_weight(), reattached.total_weight());
        assert_eq!(
            fresh.uncongested_delay(0.001),
            reattached.uncongested_delay(0.001)
        );
    }
}
