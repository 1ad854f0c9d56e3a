//! Algorithm 1: the end-to-end LEQA estimator.
//!
//! The implementation is split along the paper's own structure: the
//! program-dependent passes live in [`ProgramProfile`], the
//! fabric-dependent quantities in [`Estimator::estimate_with_profile`] —
//! [`Estimator::estimate`] simply builds a throwaway profile first, so both
//! entry points produce bit-identical results (the sweep engine in
//! [`crate::sweep`] relies on this).

use std::sync::Arc;

use leqa_circuit::{stream_critical_path, CriticalPath, CriticalPathScratch, FtOp, Qodg, QodgNode};
use leqa_fabric::{FabricDims, FabricMap, Micros, OneQubitKind, PhysicalParams};

pub use crate::coverage::ZoneRounding;
use crate::coverage::{CoverageHistogram, DEFAULT_MAX_TERMS};
use crate::stream::invalid_stream;
use crate::{queue, EstimateError, ProgramProfile};

/// Tunables of the estimation procedure.
///
/// The defaults follow the paper: 20 `E[S_q]` terms, the routing-latency-
/// aware critical path of Algorithm 1 line 19, and ceiling rounding for the
/// zone side (where the paper's typography is ambiguous).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorOptions {
    /// Number of `E[S_q]` terms to evaluate (the paper uses 20; §3.1).
    pub max_esq_terms: usize,
    /// Integer rounding of the zone side `√B` in Eq. 5.
    pub zone_rounding: ZoneRounding,
    /// Whether to add the routing latencies to the node delays before the
    /// critical-path pass (Algorithm 1 line 19). Disabling this reproduces
    /// the naive estimate the paper argues against; it exists for the
    /// `ablation_critpath` bench.
    pub update_critical_path: bool,
}

impl Default for EstimatorOptions {
    fn default() -> Self {
        EstimatorOptions {
            max_esq_terms: DEFAULT_MAX_TERMS,
            zone_rounding: ZoneRounding::default(),
            update_critical_path: true,
        }
    }
}

/// The LEQA estimator for one fabric and parameter set.
///
/// See the [crate docs](crate) for a full example.
#[derive(Debug, Clone)]
pub struct Estimator {
    dims: FabricDims,
    params: PhysicalParams,
    options: EstimatorOptions,
    /// Defect/heterogeneity overlay; `None` (or a pristine map) keeps the
    /// legacy uniform-fabric arithmetic bit-identical.
    fabric_map: Option<Arc<FabricMap>>,
}

impl Estimator {
    /// Creates an estimator with the paper's default options.
    pub fn new(dims: FabricDims, params: PhysicalParams) -> Self {
        Estimator {
            dims,
            params,
            options: EstimatorOptions::default(),
            fabric_map: None,
        }
    }

    /// Creates an estimator with explicit options.
    pub fn with_options(
        dims: FabricDims,
        params: PhysicalParams,
        options: EstimatorOptions,
    ) -> Self {
        Estimator {
            dims,
            params,
            options,
            fabric_map: None,
        }
    }

    /// Attaches a fabric map: the Eq. 7 zone average is rescaled for the
    /// lost cells (`B · A / A_live` — the survivors crowd onto less
    /// fabric), Eq. 12 uses the live-cell mean qubit speed, the Eq. 8
    /// congestion law uses the *mean* usable channel capacity (dead
    /// channels count as zero), and `L_g^avg` uses the live-cell mean
    /// `T_move`. A pristine map is equivalent to none.
    #[must_use]
    pub fn with_fabric_map(mut self, map: Arc<FabricMap>) -> Self {
        self.fabric_map = Some(map);
        self
    }

    /// The attached fabric map, if any.
    pub fn fabric_map(&self) -> Option<&FabricMap> {
        self.fabric_map.as_deref()
    }

    /// The fabric dimensions in use.
    pub fn dims(&self) -> FabricDims {
        self.dims
    }

    /// The physical parameters in use.
    pub fn params(&self) -> &PhysicalParams {
        &self.params
    }

    /// The options in use.
    pub fn options(&self) -> &EstimatorOptions {
        &self.options
    }

    /// Runs Algorithm 1 on a QODG and returns the latency estimate with all
    /// intermediate quantities (C-INTERMEDIATE).
    ///
    /// Builds a throwaway [`ProgramProfile`]; callers estimating the same
    /// program on several fabrics should build the profile once and use
    /// [`estimate_with_profile`](Self::estimate_with_profile) (or the sweep
    /// helpers in [`crate::sweep`]) instead.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::FabricTooSmall`] if the program uses more
    /// logical qubits than the fabric has ULBs, and
    /// [`EstimateError::InvalidOption`] if `max_esq_terms` is zero.
    #[must_use = "the estimate (or its error) is the entire point of the call"]
    pub fn estimate(&self, qodg: &Qodg) -> Result<Estimate, EstimateError> {
        self.estimate_with_profile(&ProgramProfile::new(qodg))
    }

    /// Runs the fabric-dependent part of Algorithm 1 against a prebuilt
    /// [`ProgramProfile`]. Bit-identical to [`estimate`](Self::estimate) on
    /// the profile's QODG; the `O(ops)` program traversals are skipped, and
    /// so is the critical-path walk when the profile's path table already
    /// resolves the census at this `L_CNOT^avg` (a one-point resolve
    /// through the code the sweep engine uses).
    ///
    /// # Errors
    ///
    /// Same as [`estimate`](Self::estimate).
    #[must_use = "the estimate (or its error) is the entire point of the call"]
    pub fn estimate_with_profile(
        &self,
        profile: &ProgramProfile<'_>,
    ) -> Result<Estimate, EstimateError> {
        let correction = self.map_correction()?;
        let quantities = self.routing_quantities_corrected(
            profile.qubit_count(),
            profile.data(),
            correction.as_ref(),
        )?;
        let params = correction.as_ref().map_or(&self.params, |c| &c.params);
        let census = profile
            .critical_censuses(params, &self.options, &[quantities.l_cnot_avg])
            .pop()
            .expect("one census per value");
        Ok(assemble_estimate(params, &self.options, quantities, census))
    }

    /// Runs Algorithm 1 directly from a gate stream, never materializing
    /// the circuit, the QODG or the op list: the profile pass accumulates
    /// the CSR IIG and the Eq. 7 / Eq. 12 aggregates in bounded memory
    /// ([`crate::stream`]), then a second pass over a fresh iterator runs
    /// the routing-aware critical path with per-wire state only: the QODG
    /// walk's kernel with its per-op argmax off.
    ///
    /// Bit-identical to [`estimate`](Self::estimate) on the materialized
    /// equivalent of the same stream, field for field: both carry the
    /// critical path's census, its length as the census's line, and no
    /// node path.
    ///
    /// # Errors
    ///
    /// Everything [`estimate`](Self::estimate) returns, plus
    /// [`EstimateError::InvalidStream`] if the source yields an op
    /// inconsistent with its declared qubit count.
    #[must_use = "the estimate (or its error) is the entire point of the call"]
    pub fn estimate_stream<S: crate::stream::GateSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<Estimate, EstimateError> {
        let num_qubits = source.num_qubits();
        let mut builder = crate::stream::StreamingProfileBuilder::new(num_qubits);
        for op in source.gates() {
            builder.push(op);
        }
        let data = builder.finish()?;
        let correction = self.map_correction()?;
        let quantities =
            self.routing_quantities_corrected(num_qubits as u64, &data, correction.as_ref())?;
        // The IIG (the largest live structure at scale) is no longer
        // needed; free it before the critical-path pass allocates its
        // per-wire frontier, so their peaks don't stack.
        drop(data);
        let params = correction.as_ref().map_or(&self.params, |c| &c.params);
        let delays = OpDelays::new(params, &self.options, quantities.l_cnot_avg);
        let critical = stream_critical_path(num_qubits, source.gates(), |op| delays.of(op))
            .map_err(|e| invalid_stream(e, num_qubits))?;
        Ok(assemble_estimate(
            params,
            &self.options,
            quantities,
            Census::of(&critical),
        ))
    }

    /// The second half of [`estimate_stream`](Self::estimate_stream) for
    /// callers that already hold the stream's [`ProfileData`](crate::ProfileData) (e.g. a
    /// session cache): only the critical-path pass consumes `ops`.
    ///
    /// # Errors
    ///
    /// Same as [`estimate_stream`](Self::estimate_stream).
    #[must_use = "the estimate (or its error) is the entire point of the call"]
    pub fn estimate_stream_with_data(
        &self,
        num_qubits: u32,
        data: &crate::ProfileData,
        ops: impl Iterator<Item = FtOp>,
    ) -> Result<Estimate, EstimateError> {
        let correction = self.map_correction()?;
        let quantities =
            self.routing_quantities_corrected(num_qubits as u64, data, correction.as_ref())?;
        let params = correction.as_ref().map_or(&self.params, |c| &c.params);
        let delays = OpDelays::new(params, &self.options, quantities.l_cnot_avg);
        let critical = stream_critical_path(num_qubits, ops, |op| delays.of(op))
            .map_err(|e| invalid_stream(e, num_qubits))?;
        Ok(assemble_estimate(
            params,
            &self.options,
            quantities,
            Census::of(&critical),
        ))
    }

    /// Folds the attached fabric map (if any, and not pristine) into the
    /// derived quantities the corrected estimate needs. `Ok(None)` means
    /// the legacy uniform arithmetic applies unchanged.
    fn map_correction(&self) -> Result<Option<MapCorrection>, EstimateError> {
        let Some(map) = self.fabric_map.as_deref() else {
            return Ok(None);
        };
        let md = map.dims();
        if md != self.dims {
            return Err(EstimateError::FabricMapMismatch {
                dims: (self.dims.width(), self.dims.height()),
                map_dims: (md.width(), md.height()),
            });
        }
        if map.is_pristine() {
            return Ok(None);
        }
        let usable = map.live_cells();
        let params = self
            .params
            .to_builder()
            .t_move(Micros::new(
                map.mean_t_move_us(self.params.t_move().as_f64()),
            ))
            .qubit_speed(map.mean_qubit_speed(self.params.qubit_speed()))
            .build()
            .expect("live-cell means of valid parameters are valid");
        Ok(Some(MapCorrection {
            usable,
            area_scale: self.dims.area() as f64 / usable.max(1) as f64,
            capacity: map.mean_channel_capacity(self.params.channel_capacity()),
            params,
        }))
    }

    /// Lines 1–18 of Algorithm 1 for one fabric candidate: the congestion
    /// pricing quantities. Program-dependent inputs come from the profile;
    /// only the coverage statistics and the Eq. 2 average are computed here
    /// (`O(terms · s²)` via [`CoverageHistogram`]).
    pub(crate) fn routing_quantities(
        &self,
        profile: &ProgramProfile<'_>,
    ) -> Result<RoutingQuantities, EstimateError> {
        let correction = self.map_correction()?;
        self.routing_quantities_corrected(
            profile.qubit_count(),
            profile.data(),
            correction.as_ref(),
        )
    }

    /// Lines 1–18 from the owned [`ProfileData`] plus a qubit count — the
    /// shape both the materialized path ([`ProgramProfile`] wraps exactly
    /// these two things) and the streaming path (no QODG exists) share.
    fn routing_quantities_corrected(
        &self,
        qubit_count: u64,
        data: &crate::ProfileData,
        correction: Option<&MapCorrection>,
    ) -> Result<RoutingQuantities, EstimateError> {
        if self.options.max_esq_terms == 0 {
            return Err(EstimateError::InvalidOption {
                name: "max_esq_terms",
            });
        }
        let usable = correction.map_or(self.dims.area(), |c| c.usable);
        if qubit_count > usable {
            return Err(EstimateError::FabricTooSmall {
                qubits: qubit_count,
                area: usable,
            });
        }
        let params = correction.map_or(&self.params, |c| &c.params);

        let avg_zone_area = data.avg_zone_area();
        let (l_cnot_avg, d_uncong, esq, zone_side, b_eff) = match avg_zone_area {
            // No two-qubit ops at all: no CNOT routing exists.
            None => (Micros::ZERO, Micros::ZERO, Vec::new(), 0, 0.0),
            Some(b) => {
                // Eq. 7 on a defective fabric: the survivors crowd onto
                // `A_live` of the `A` cells, so zones dilate by `A/A_live`.
                let b = b * correction.map_or(1.0, |c| c.area_scale);
                // Lines 4–8: d_uncong (traversal prepaid by the profile).
                let d_uncong = data
                    .uncongested_delay(params.qubit_speed())
                    .expect("interactions exist, so the average is defined");
                // Lines 9–13: the P_{x,y} statistics, run-length compressed.
                let hist = CoverageHistogram::new(self.dims, b, self.options.zone_rounding);
                // Lines 14–17: E[S_q] and d_q.
                let esq = hist.expected_surfaces(qubit_count, self.options.max_esq_terms);
                // Line 18: L_CNOT^avg (Eq. 2). On a defective fabric the
                // Eq. 8 capacity is the mean usable capacity per channel
                // site (dead channels contribute zero), in general
                // fractional.
                let mut num = 0.0;
                let mut den = 0.0;
                for (k, &e) in esq.iter().enumerate() {
                    let q = (k + 1) as u64;
                    let d_q = match correction {
                        None => queue::routing_delay(q, self.params.channel_capacity(), d_uncong),
                        Some(c) => queue::routing_delay_frac(q, c.capacity, d_uncong),
                    };
                    num += e * d_q.as_f64();
                    den += e;
                }
                let l = if den > 0.0 {
                    Micros::new(num / den)
                } else {
                    Micros::ZERO
                };
                (l, d_uncong, esq, hist.zone_side(), b)
            }
        };

        Ok(RoutingQuantities {
            l_cnot_avg,
            d_uncong,
            esq,
            zone_side,
            avg_zone_area: b_eff,
            qubit_count,
        })
    }
}

/// The fabric-map-derived correction terms of the estimate (see
/// [`Estimator::with_fabric_map`]): computed once per estimate, absent on
/// uniform fabrics.
#[derive(Debug, Clone)]
struct MapCorrection {
    /// Live (usable) ULBs.
    usable: u64,
    /// `A / A_live ≥ 1`: the Eq. 7 zone dilation.
    area_scale: f64,
    /// Mean usable channel capacity (fractional; dead channels are zero).
    capacity: f64,
    /// Base parameters with `T_move` / qubit speed replaced by their
    /// live-cell means.
    params: PhysicalParams,
}

/// Line 19: the critical path with (or, per the options, without) the
/// routing latencies added to the node delays, as its length and census
/// (the argmax walk, naming no nodes).
///
/// A free function over `(params, options)` rather than an [`Estimator`]
/// method: it is fabric-independent by construction, and the path table
/// ([`crate::paths`]) calls it per full pass without inventing a
/// placeholder fabric.
pub(crate) fn routing_aware_critical_path(
    params: &PhysicalParams,
    options: &EstimatorOptions,
    qodg: &Qodg,
    l_cnot_avg: Micros,
    scratch: &mut CriticalPathScratch,
) -> CriticalPath {
    let delays = OpDelays::new(params, options, l_cnot_avg);
    qodg.critical_census(
        |node| match node {
            QodgNode::Op(op) => delays.of(op),
            _ => Micros::ZERO,
        },
        scratch,
    )
}

/// The op census of a critical path, `N_CNOT^critical` and `N_g^critical`
/// per one-qubit kind: all that Eq. 1 reads of the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Census {
    cnot_count: u64,
    one_qubit_counts: [u64; 8],
}

impl Census {
    pub(crate) fn of(path: &CriticalPath) -> Census {
        Census {
            cnot_count: path.cnot_count,
            one_qubit_counts: path.one_qubit_counts,
        }
    }
}

/// The per-op delay model of Algorithm 1 line 19 — gate time plus (per the
/// options) the average routing latency — shared bit-for-bit by the QODG
/// walk ([`routing_aware_critical_path`]), the streaming pass
/// ([`stream_critical_path`]) and the census lines of Eq. 1
/// ([`line`](Self::line)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpDelays {
    cnot: Micros,
    /// By [`OneQubitKind::index`].
    one_qubit: [Micros; 8],
}

impl OpDelays {
    pub(crate) fn new(
        params: &PhysicalParams,
        options: &EstimatorOptions,
        l_cnot_avg: Micros,
    ) -> Self {
        OpDelays::with_routing(params, options.update_critical_path, l_cnot_avg)
    }

    fn with_routing(params: &PhysicalParams, include_routing: bool, l_cnot_avg: Micros) -> Self {
        let delays = params.gate_delays();
        let (l_cnot, l_one) = if include_routing {
            (l_cnot_avg, params.one_qubit_routing_latency())
        } else {
            (Micros::ZERO, Micros::ZERO)
        };
        let mut one_qubit = [Micros::ZERO; 8];
        for kind in OneQubitKind::ALL {
            one_qubit[kind.index()] = delays.one_qubit(kind) + l_one;
        }
        OpDelays {
            cnot: delays.cnot() + l_cnot,
            one_qubit,
        }
    }

    /// The node delay for `op`.
    pub(crate) fn of(&self, op: &FtOp) -> Micros {
        match op {
            FtOp::Cnot { .. } => self.cnot,
            FtOp::OneQubit { kind, .. } => self.one_qubit[kind.index()],
        }
    }

    /// The length of every path with `census`: its op delays summed per
    /// kind, CNOTs first, in one fixed order. With the routing latencies
    /// in, this is Eq. 1.
    pub(crate) fn line(&self, census: &Census) -> Micros {
        let mut length = self.cnot * census.cnot_count as f64;
        for kind in OneQubitKind::ALL {
            length += self.one_qubit[kind.index()] * census.one_qubit_counts[kind.index()] as f64;
        }
        length
    }

    /// The delays' bits, CNOT first: the whole delay model of a pass.
    pub(crate) fn bits(&self) -> [u64; 9] {
        let mut bits = [self.cnot.as_f64().to_bits(); 9];
        for (bit, delay) in bits[1..].iter_mut().zip(self.one_qubit) {
            *bit = delay.as_f64().to_bits();
        }
        bits
    }
}

/// Line 20: Eq. 1 from the critical-path census. `latency` prices every
/// op with its routing latency; `critical.length` is the census's line
/// under the pass's own delay model, so the two agree bit for bit when
/// the routing latencies are in the node delays, and the ablation variant
/// reads the bare-gate length.
///
/// Fabric-independent (see [`routing_aware_critical_path`] on why it is a
/// free function).
pub(crate) fn assemble_estimate(
    params: &PhysicalParams,
    options: &EstimatorOptions,
    quantities: RoutingQuantities,
    census: Census,
) -> Estimate {
    let RoutingQuantities {
        l_cnot_avg,
        d_uncong,
        esq,
        zone_side,
        avg_zone_area,
        qubit_count,
    } = quantities;
    let latency = OpDelays::with_routing(params, true, l_cnot_avg).line(&census);
    let length = OpDelays::new(params, options, l_cnot_avg).line(&census);

    Estimate {
        latency,
        l_cnot_avg,
        l_one_qubit_avg: params.one_qubit_routing_latency(),
        d_uncong,
        avg_zone_area,
        zone_side,
        esq,
        critical: CriticalPath {
            length,
            cnot_count: census.cnot_count,
            one_qubit_counts: census.one_qubit_counts,
            path: Vec::new(),
        },
        qubit_count,
    }
}

/// Lines 1–18 of Algorithm 1 for one fabric candidate, bundled for the
/// sweep engine.
#[derive(Debug, Clone)]
pub(crate) struct RoutingQuantities {
    pub(crate) l_cnot_avg: Micros,
    pub(crate) d_uncong: Micros,
    pub(crate) esq: Vec<f64>,
    pub(crate) zone_side: u32,
    pub(crate) avg_zone_area: f64,
    pub(crate) qubit_count: u64,
}

/// The output of Algorithm 1, with every intermediate the paper names.
///
/// `#[non_exhaustive]`: response-shaped — new intermediates may be added
/// without a breaking release.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Estimate {
    /// `D` (Eq. 1): the estimated program latency.
    pub latency: Micros,
    /// `L_CNOT^avg` (Eq. 2): average CNOT routing latency.
    pub l_cnot_avg: Micros,
    /// `L_g^avg = 2·T_move`: average one-qubit-op routing latency.
    pub l_one_qubit_avg: Micros,
    /// `d_uncong` (Eq. 12): average uncongested routing latency.
    pub d_uncong: Micros,
    /// `B` (Eq. 7): average presence-zone area (0 when no CNOTs exist).
    pub avg_zone_area: f64,
    /// The integer zone side used in Eq. 5 (0 when no CNOTs exist).
    pub zone_side: u32,
    /// `E[S_q]` for `q = 1..` (Eq. 4), truncated per the options.
    pub esq: Vec<f64>,
    /// The routing-aware critical path (Algorithm 1 line 19) as Eq. 1
    /// reads it: its op-type census (`N^critical`) and its length, the
    /// census's line at `L_CNOT^avg`. `path` is empty;
    /// [`Qodg::critical_path`] names the nodes.
    pub critical: CriticalPath,
    /// `Q`: logical qubits in the program.
    pub qubit_count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_circuit::{decompose::lower_to_ft, Circuit, FtCircuit, Gate, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn small_qodg() -> Qodg {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(q(0), q(1), q(2)).unwrap()).unwrap();
        c.push(Gate::cnot(q(0), q(2)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        Qodg::from_ft_circuit(&ft)
    }

    fn dac13_estimator() -> Estimator {
        Estimator::new(FabricDims::dac13(), PhysicalParams::dac13())
    }

    #[test]
    fn estimate_is_positive_and_consistent() {
        let est = dac13_estimator().estimate(&small_qodg()).unwrap();
        assert!(est.latency.as_f64() > 0.0);
        // With the routing update on, Eq. 1 equals the critical-path length.
        assert!(
            (est.latency.as_f64() - est.critical.length.as_f64()).abs() < 1e-6,
            "Eq. 1 must equal the routing-aware critical path"
        );
    }

    #[test]
    fn one_qubit_only_circuit_has_no_cnot_latency() {
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let est = dac13_estimator().estimate(&qodg).unwrap();
        assert_eq!(est.l_cnot_avg, Micros::ZERO);
        assert_eq!(est.avg_zone_area, 0.0);
        assert!(est.esq.is_empty());
        // Critical path = the slower single op + its routing.
        assert_eq!(est.latency.as_f64(), 10940.0 + 200.0);
    }

    #[test]
    fn empty_program_estimates_zero() {
        let ft = FtCircuit::new(1);
        let qodg = Qodg::from_ft_circuit(&ft);
        let est = dac13_estimator().estimate(&qodg).unwrap();
        assert_eq!(est.latency, Micros::ZERO);
    }

    #[test]
    fn fabric_too_small_is_an_error() {
        let dims = FabricDims::new(2, 2).unwrap();
        let estimator = Estimator::new(dims, PhysicalParams::dac13());
        let mut ft = FtCircuit::new(5);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        assert!(matches!(
            estimator.estimate(&qodg),
            Err(EstimateError::FabricTooSmall { qubits: 5, area: 4 })
        ));
    }

    #[test]
    fn zero_terms_is_an_error() {
        let options = EstimatorOptions {
            max_esq_terms: 0,
            ..Default::default()
        };
        let estimator =
            Estimator::with_options(FabricDims::dac13(), PhysicalParams::dac13(), options);
        assert!(matches!(
            estimator.estimate(&small_qodg()),
            Err(EstimateError::InvalidOption {
                name: "max_esq_terms"
            })
        ));
    }

    #[test]
    fn routing_update_never_shortens_the_estimate() {
        let qodg = small_qodg();
        let with = dac13_estimator().estimate(&qodg).unwrap();
        let without = Estimator::with_options(
            FabricDims::dac13(),
            PhysicalParams::dac13(),
            EstimatorOptions {
                update_critical_path: false,
                ..Default::default()
            },
        )
        .estimate(&qodg)
        .unwrap();
        assert!(with.latency.as_f64() >= without.latency.as_f64() - 1e-9);
    }

    #[test]
    fn smaller_fabric_means_more_congestion() {
        // Build a circuit with heavy interaction so zones overlap more on a
        // smaller fabric, raising L_CNOT^avg.
        let mut ft = FtCircuit::new(24);
        for i in 0..24u32 {
            for j in (i + 1)..24 {
                ft.push_cnot(q(i), q(j)).unwrap();
            }
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let small = Estimator::new(FabricDims::new(6, 6).unwrap(), PhysicalParams::dac13())
            .estimate(&qodg)
            .unwrap();
        let large = Estimator::new(FabricDims::new(60, 60).unwrap(), PhysicalParams::dac13())
            .estimate(&qodg)
            .unwrap();
        assert!(
            small.l_cnot_avg.as_f64() > large.l_cnot_avg.as_f64(),
            "small fabric {} vs large {}",
            small.l_cnot_avg,
            large.l_cnot_avg
        );
    }

    #[test]
    fn esq_terms_truncate() {
        let mut ft = FtCircuit::new(40);
        for i in 0..39u32 {
            ft.push_cnot(q(i), q(i + 1)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        let est = dac13_estimator().estimate(&qodg).unwrap();
        assert_eq!(est.esq.len(), 20);
    }

    #[test]
    fn accessors() {
        let e = dac13_estimator();
        assert_eq!(e.dims().area(), 3600);
        assert_eq!(e.params().channel_capacity(), 5);
        assert_eq!(e.options().max_esq_terms, 20);
    }

    fn dense_qodg(n: u32) -> Qodg {
        let mut ft = FtCircuit::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                ft.push_cnot(q(i), q(j)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    #[test]
    fn pristine_map_estimate_is_bit_identical() {
        let dims = FabricDims::new(12, 12).unwrap();
        let qodg = dense_qodg(16);
        let plain = Estimator::new(dims, PhysicalParams::dac13())
            .estimate(&qodg)
            .unwrap();
        let mapped = Estimator::new(dims, PhysicalParams::dac13())
            .with_fabric_map(Arc::new(FabricMap::pristine(dims)))
            .estimate(&qodg)
            .unwrap();
        assert_eq!(plain.latency, mapped.latency);
        assert_eq!(plain.l_cnot_avg, mapped.l_cnot_avg);
        assert_eq!(plain.d_uncong, mapped.d_uncong);
        assert_eq!(plain.avg_zone_area, mapped.avg_zone_area);
        assert_eq!(plain.esq, mapped.esq);
    }

    #[test]
    fn dead_cells_dilate_zones_and_raise_the_estimate() {
        let dims = FabricDims::new(8, 8).unwrap();
        let qodg = dense_qodg(20);
        let plain = Estimator::new(dims, PhysicalParams::dac13())
            .estimate(&qodg)
            .unwrap();
        let mut map = FabricMap::pristine(dims);
        // Kill a quarter of the fabric: zones dilate by 4/3.
        for y in 0..4 {
            for x in 0..4 {
                map.disable_cell(leqa_fabric::Ulb::new(x, y)).unwrap();
            }
        }
        let damaged = Estimator::new(dims, PhysicalParams::dac13())
            .with_fabric_map(Arc::new(map))
            .estimate(&qodg)
            .unwrap();
        assert!(
            damaged.avg_zone_area > plain.avg_zone_area,
            "dead cells must dilate B: {} vs {}",
            damaged.avg_zone_area,
            plain.avg_zone_area
        );
        assert!((damaged.avg_zone_area / plain.avg_zone_area - 64.0 / 48.0).abs() < 1e-9);
        assert!(damaged.latency >= plain.latency);
    }

    #[test]
    fn dead_channels_lower_effective_capacity() {
        let dims = FabricDims::new(8, 8).unwrap();
        let qodg = dense_qodg(24);
        let plain = Estimator::new(dims, PhysicalParams::dac13())
            .estimate(&qodg)
            .unwrap();
        // Dead channels only: B and d_uncong are untouched, but the mean
        // capacity (and so L_CNOT^avg) degrades.
        let map = FabricMap::with_random_defects(dims, 0.0, 0.4, 3).unwrap();
        assert!(map.dead_channels() > 0);
        let damaged = Estimator::new(dims, PhysicalParams::dac13())
            .with_fabric_map(Arc::new(map))
            .estimate(&qodg)
            .unwrap();
        assert_eq!(damaged.avg_zone_area, plain.avg_zone_area);
        assert_eq!(damaged.d_uncong, plain.d_uncong);
        assert!(
            damaged.l_cnot_avg >= plain.l_cnot_avg,
            "capacity loss cannot speed up routing: {} vs {}",
            damaged.l_cnot_avg,
            plain.l_cnot_avg
        );
    }

    #[test]
    fn overlay_t_move_raises_one_qubit_routing() {
        let dims = FabricDims::new(6, 6).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.push_overlay(leqa_fabric::RegionOverlay {
            x0: 0,
            y0: 0,
            x1: 5,
            y1: 5,
            t_move_us: Some(400.0), // 4x the dac13 base
            qubit_speed: None,
            channel_capacity: None,
        })
        .unwrap();
        let est = Estimator::new(dims, PhysicalParams::dac13())
            .with_fabric_map(Arc::new(map))
            .estimate(&small_qodg())
            .unwrap();
        assert_eq!(est.l_one_qubit_avg, Micros::new(800.0));
    }

    #[test]
    fn map_fit_check_uses_live_cells() {
        let dims = FabricDims::new(3, 3).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.disable_cell(leqa_fabric::Ulb::new(1, 1)).unwrap();
        let mut ft = FtCircuit::new(9);
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let err = Estimator::new(dims, PhysicalParams::dac13())
            .with_fabric_map(Arc::new(map))
            .estimate(&qodg)
            .unwrap_err();
        assert_eq!(err, EstimateError::FabricTooSmall { qubits: 9, area: 8 });
    }

    #[test]
    fn mismatched_map_dims_is_an_error() {
        let est = Estimator::new(FabricDims::new(5, 5).unwrap(), PhysicalParams::dac13())
            .with_fabric_map(Arc::new(FabricMap::pristine(
                FabricDims::new(4, 4).unwrap(),
            )));
        assert_eq!(
            est.estimate(&small_qodg()).unwrap_err(),
            EstimateError::FabricMapMismatch {
                dims: (5, 5),
                map_dims: (4, 4)
            }
        );
    }
}
