//! Chunked, memory-bounded profile construction from a gate stream.
//!
//! The materialized pipeline (`Circuit` → `lower_to_ft` →
//! [`Qodg`](leqa_circuit::Qodg) → [`ProfileData::new`]) holds the whole
//! op list in memory at once, 12 bytes per op. At cryptographic scale
//! (`shor_2048` lowers to tens of millions of FT ops) that costs gigabytes
//! for quantities that are, mathematically, *streaming aggregates*: the
//! Eq. 7 zone average and Eq. 12 numerators are per-qubit sums over the
//! IIG, the IIG itself is a multiset of CNOT endpoint pairs, and the
//! routing-aware critical path (Algorithm 1 line 19) needs only the
//! frontier distance per wire.
//!
//! This module computes all three directly from a [`GateSource`] — an
//! iterator of [`FtOp`]s plus a declared register width — in memory
//! bounded by `O(qubits + unique IIG edges)`, never by the op count:
//!
//! - [`IigAccumulator`] buffers normalized CNOT endpoint pairs in fixed
//!   chunks, counts each chunk into a sorted weighted run with the same
//!   kernel the materialized IIG uses ([`count_edges`]), and merges the
//!   runs geometrically (LSM-style) so the final single run is the same
//!   sorted unique edge list a whole-stream sort+dedup would produce.
//! - [`StreamingProfileBuilder`] feeds the accumulator and finishes into a
//!   [`ProfileData`] via [`Iig::from_weighted_edges`] — *bit-identical* to
//!   [`ProfileData::new`] on the materialized QODG of the same stream,
//!   regardless of chunk size (the differential suite in
//!   `tests/streaming.rs` pins this).
//! - [`stream_critical_path`](leqa_circuit::stream_critical_path), the
//!   kernel of the QODG's own census pass, replays the stream once more
//!   and updates each op's wires where they lie, keeping only a per-wire
//!   distance, census and touched flag, so the resulting latency census
//!   is byte-identical.
//!
//! The [`Estimator`](crate::Estimator) front door is
//! [`estimate_stream`](crate::Estimator::estimate_stream); `leqa-api`
//! auto-selects it above a session-configurable op-count threshold.

use leqa_circuit::{count_edges, CircuitError, FtCircuit, FtOp, Iig};

use crate::{EstimateError, ProfileData};

/// Default pair-buffer capacity for [`IigAccumulator`]: 64 Ki pairs
/// (512 KiB) — large enough that chunk counting is a rounding error next
/// to gate generation, small enough to be irrelevant to peak RSS.
pub const DEFAULT_CHUNK_PAIRS: usize = 64 * 1024;

/// A replayable stream of lowered FT ops with a declared register width.
///
/// The contract mirrors a materialized [`FtCircuit`]: every op must touch
/// only qubits below [`num_qubits`](Self::num_qubits), and repeated
/// [`gates`](Self::gates) calls must yield the same sequence (the
/// estimator takes two passes — profile, then critical path).
pub trait GateSource {
    /// The declared register width (`Q` in the paper).
    fn num_qubits(&self) -> u32;

    /// A fresh pass over the op sequence.
    fn gates(&self) -> impl Iterator<Item = FtOp>;
}

/// The trivial source: a materialized circuit replayed from its op slice.
impl GateSource for FtCircuit {
    fn num_qubits(&self) -> u32 {
        FtCircuit::num_qubits(self)
    }

    fn gates(&self) -> impl Iterator<Item = FtOp> {
        self.ops().iter().copied()
    }
}

/// Adapts a generator closure into a [`GateSource`], for workloads that
/// produce their op stream lazily (e.g. `shor_1024` in `leqa-workloads`)
/// and never hold it in memory.
///
/// # Examples
///
/// ```
/// use leqa::stream::{FnSource, GateSource};
/// use leqa_circuit::{FtOp, QubitId};
///
/// let source = FnSource::new(3, || {
///     (0..2).map(|i| FtOp::Cnot {
///         control: QubitId(i),
///         target: QubitId(i + 1),
///     })
/// });
/// assert_eq!(source.num_qubits(), 3);
/// assert_eq!(source.gates().count(), 2);
/// assert_eq!(source.gates().count(), 2, "replayable");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnSource<F> {
    num_qubits: u32,
    make: F,
}

impl<F, I> FnSource<F>
where
    F: Fn() -> I,
    I: Iterator<Item = FtOp>,
{
    /// Wraps `make`, which must yield the same sequence on every call.
    pub fn new(num_qubits: u32, make: F) -> Self {
        FnSource { num_qubits, make }
    }
}

impl<F, I> GateSource for FnSource<F>
where
    F: Fn() -> I,
    I: Iterator<Item = FtOp>,
{
    fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    fn gates(&self) -> impl Iterator<Item = FtOp> {
        (self.make)()
    }
}

/// Incremental CSR-IIG construction: buffered chunks of normalized CNOT
/// endpoint pairs, each counted into a sorted weighted run on flush (by
/// [`count_edges`], the materialized builders' kernel), with the runs
/// merged geometrically so live memory stays proportional to the
/// *unique* edge count.
///
/// The final [`finish`](Self::finish) produces an [`Iig`] bit-identical to
/// [`Iig::from_qodg`] on the materialized program: a single sorted unique
/// `(lo, hi, weight)` run is the canonical form both paths normalize to.
#[derive(Debug, Clone)]
pub struct IigAccumulator {
    num_qubits: u32,
    /// Unsorted normalized `(lo, hi)` pairs awaiting a chunk flush.
    chunk: Vec<(u32, u32)>,
    chunk_pairs: usize,
    /// Sorted unique weighted runs, newest last, merged geometrically.
    runs: Vec<Vec<(u32, u32, u64)>>,
    /// First stream violation seen; reported once at [`finish`](Self::finish).
    invalid: Option<EstimateError>,
}

impl IigAccumulator {
    /// An empty accumulator for a `num_qubits`-wide register with the
    /// default chunk size.
    #[must_use]
    pub fn new(num_qubits: u32) -> Self {
        IigAccumulator::with_chunk_pairs(num_qubits, DEFAULT_CHUNK_PAIRS)
    }

    /// Like [`new`](Self::new) with an explicit chunk capacity in pairs
    /// (clamped to at least 1). Chunk size never changes the finished
    /// IIG — only the sort/merge schedule.
    #[must_use]
    pub fn with_chunk_pairs(num_qubits: u32, chunk_pairs: usize) -> Self {
        let chunk_pairs = chunk_pairs.max(1);
        IigAccumulator {
            num_qubits,
            chunk: Vec::with_capacity(chunk_pairs),
            chunk_pairs,
            runs: Vec::new(),
            invalid: None,
        }
    }

    /// Records one op. Only CNOTs contribute edges; one-qubit ops are
    /// still range-checked so a malformed stream cannot slip through the
    /// profile pass unnoticed.
    pub fn push(&mut self, op: FtOp) {
        if self.invalid.is_some() {
            return;
        }
        match op {
            FtOp::OneQubit { target, .. } => {
                if target.0 >= self.num_qubits {
                    self.invalid = Some(EstimateError::InvalidStream {
                        qubit: target.0,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            FtOp::Cnot { control, target } => {
                let (c, t) = (control.0, target.0);
                if c >= self.num_qubits || t >= self.num_qubits || c == t {
                    self.invalid = Some(EstimateError::InvalidStream {
                        qubit: if c >= self.num_qubits || c == t { c } else { t },
                        num_qubits: self.num_qubits,
                    });
                    return;
                }
                let pair = if c <= t { (c, t) } else { (t, c) };
                self.chunk.push(pair);
                if self.chunk.len() >= self.chunk_pairs {
                    self.flush_chunk();
                }
            }
        }
    }

    /// Counts the buffered chunk into a weighted run, then restores the
    /// geometric invariant (each run at least twice the size of the one
    /// stacked on it) by merging from the top.
    fn flush_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let chunk = &self.chunk;
        let run = count_edges(self.num_qubits, chunk.len(), || chunk.iter().copied());
        self.chunk.clear();
        self.runs.push(run);
        while self.runs.len() >= 2
            && self.runs[self.runs.len() - 2].len() <= 2 * self.runs[self.runs.len() - 1].len()
        {
            let top = self.runs.pop().expect("len checked");
            let below = self.runs.pop().expect("len checked");
            self.runs.push(merge_runs(below, top));
        }
    }

    /// Merges all runs and builds the CSR [`Iig`].
    ///
    /// # Errors
    ///
    /// [`EstimateError::InvalidStream`] if any pushed op referenced a
    /// qubit at or beyond `num_qubits`, or a CNOT was a self-loop.
    pub fn finish(mut self) -> Result<Iig, EstimateError> {
        if let Some(err) = self.invalid {
            return Err(err);
        }
        self.flush_chunk();
        let mut merged = self.runs.pop().unwrap_or_default();
        while let Some(below) = self.runs.pop() {
            merged = merge_runs(below, merged);
        }
        // `merged` is already sorted and unique, so the normalize/sort/
        // merge inside `from_weighted_edges` is a no-op: the CSR comes
        // out bit-identical to the circuit-built IIG (pinned by
        // `weighted_edges_round_trip_bit_identically` in leqa-circuit).
        Iig::from_weighted_edges(self.num_qubits, merged)
            .map_err(|e| invalid_stream(e, self.num_qubits))
    }
}

/// The [`EstimateError`] of a stream whose op broke `e`'s rule.
pub(crate) fn invalid_stream(e: CircuitError, num_qubits: u32) -> EstimateError {
    let qubit = match e {
        CircuitError::QubitOutOfRange { qubit, .. } | CircuitError::DuplicateOperand { qubit } => {
            qubit.0
        }
        // Stream checks report only the two arms above.
        _ => num_qubits,
    };
    EstimateError::InvalidStream { qubit, num_qubits }
}

/// Merges two sorted unique weighted runs, summing weights on equal keys.
fn merge_runs(a: Vec<(u32, u32, u64)>, b: Vec<(u32, u32, u64)>) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(&(xa, ya, _)), Some(&(xb, yb, _))) => {
                if (xa, ya) == (xb, yb) {
                    let (x, y, wa) = ai.next().expect("peeked");
                    let (_, _, wb) = bi.next().expect("peeked");
                    out.push((x, y, wa + wb));
                } else if (xa, ya) < (xb, yb) {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// One-pass construction of [`ProfileData`] from an op stream: Algorithm 1
/// lines 1–8 (IIG, Eq. 7 zone average, Eq. 12 numerators) without ever
/// materializing the op list or a QODG.
///
/// # Examples
///
/// ```
/// use leqa::stream::StreamingProfileBuilder;
/// use leqa::ProfileData;
/// use leqa_circuit::{FtCircuit, Qodg, QubitId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ft = FtCircuit::new(3);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// ft.push_cnot(QubitId(1), QubitId(2))?;
///
/// let mut builder = StreamingProfileBuilder::new(3);
/// for &op in ft.ops() {
///     builder.push(op);
/// }
/// let streamed = builder.finish()?;
/// let materialized = ProfileData::new(&Qodg::from_ft_circuit(&ft));
/// assert_eq!(streamed, materialized, "bit-identical, by construction");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingProfileBuilder {
    acc: IigAccumulator,
    ops: u64,
}

impl StreamingProfileBuilder {
    /// An empty builder for a `num_qubits`-wide register.
    #[must_use]
    pub fn new(num_qubits: u32) -> Self {
        StreamingProfileBuilder {
            acc: IigAccumulator::new(num_qubits),
            ops: 0,
        }
    }

    /// Like [`new`](Self::new) with an explicit accumulator chunk size
    /// (in pairs; the finished profile is chunk-size-independent).
    #[must_use]
    pub fn with_chunk_pairs(num_qubits: u32, chunk_pairs: usize) -> Self {
        StreamingProfileBuilder {
            acc: IigAccumulator::with_chunk_pairs(num_qubits, chunk_pairs),
            ops: 0,
        }
    }

    /// Feeds one op.
    pub fn push(&mut self, op: FtOp) {
        self.ops += 1;
        self.acc.push(op);
    }

    /// Ops pushed so far (for progress reporting and gates/sec metrics).
    #[must_use]
    pub fn ops_seen(&self) -> u64 {
        self.ops
    }

    /// Builds the [`ProfileData`].
    ///
    /// # Errors
    ///
    /// [`EstimateError::InvalidStream`] if any op was inconsistent with
    /// the declared register width.
    pub fn finish(self) -> Result<ProfileData, EstimateError> {
        Ok(ProfileData::with_iig(self.acc.finish()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{routing_aware_critical_path, EstimatorOptions, OpDelays};
    use crate::Estimator;
    use leqa_circuit::{Qodg, QubitId};
    use leqa_fabric::{FabricDims, Micros, OneQubitKind, PhysicalParams};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// A small circuit with ties, fan-in and an idle wire: enough
    /// structure to exercise every tie-breaking branch.
    fn mixed_circuit() -> FtCircuit {
        let mut ft = FtCircuit::new(6);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(2), q(3)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(3)).unwrap();
        ft.push_cnot(q(1), q(3)).unwrap();
        ft.push_cnot(q(3), q(1)).unwrap(); // repeated pair, reversed
        ft.push_one_qubit(OneQubitKind::X, q(4)).unwrap();
        ft.push_cnot(q(4), q(0)).unwrap();
        ft
    }

    #[test]
    fn streaming_profile_is_bit_identical_to_materialized() {
        let ft = mixed_circuit();
        let qodg = Qodg::from_ft_circuit(&ft);
        let materialized = ProfileData::new(&qodg);
        for chunk in [1, 2, 3, 4096] {
            let mut b = StreamingProfileBuilder::with_chunk_pairs(6, chunk);
            for &op in ft.ops() {
                b.push(op);
            }
            assert_eq!(b.ops_seen(), ft.ops().len() as u64);
            assert_eq!(b.finish().unwrap(), materialized, "chunk={chunk}");
        }
    }

    #[test]
    fn empty_and_cnot_free_streams_profile_identically() {
        for ft in [FtCircuit::new(4), {
            let mut ft = FtCircuit::new(4);
            ft.push_one_qubit(OneQubitKind::H, q(2)).unwrap();
            ft
        }] {
            let mut b = StreamingProfileBuilder::new(4);
            for &op in ft.ops() {
                b.push(op);
            }
            let materialized = ProfileData::new(&Qodg::from_ft_circuit(&ft));
            assert_eq!(b.finish().unwrap(), materialized);
        }
    }

    #[test]
    fn streaming_critical_path_matches_the_qodg_walk() {
        let ft = mixed_circuit();
        let qodg = Qodg::from_ft_circuit(&ft);
        let params = PhysicalParams::dac13();
        for update in [true, false] {
            let options = EstimatorOptions {
                update_critical_path: update,
                ..EstimatorOptions::default()
            };
            let l_cnot = Micros::new(3.25);
            let walked = routing_aware_critical_path(&params, &options, &qodg, l_cnot);
            let delays = OpDelays::new(&params, &options, l_cnot);
            let streamed =
                leqa_circuit::stream_critical_path(6, ft.ops().iter().copied(), |op| delays.of(op))
                    .unwrap();
            assert_eq!(streamed.length, walked.length);
            assert_eq!(streamed.cnot_count, walked.cnot_count);
            assert_eq!(streamed.one_qubit_counts, walked.one_qubit_counts);
            assert!(streamed.path.is_empty());
        }
    }

    #[test]
    fn estimate_stream_matches_estimate_exactly() {
        let ft = mixed_circuit();
        let qodg = Qodg::from_ft_circuit(&ft);
        let estimator = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13());
        let materialized = estimator.estimate(&qodg).unwrap();
        let streamed = estimator.estimate_stream(&ft).unwrap();
        assert_eq!(streamed.latency, materialized.latency);
        assert_eq!(streamed.l_cnot_avg, materialized.l_cnot_avg);
        assert_eq!(streamed.d_uncong, materialized.d_uncong);
        assert_eq!(streamed.avg_zone_area, materialized.avg_zone_area);
        assert_eq!(streamed.zone_side, materialized.zone_side);
        assert_eq!(streamed.esq, materialized.esq);
        assert_eq!(streamed.qubit_count, materialized.qubit_count);
        assert_eq!(streamed.critical, materialized.critical);
    }

    #[test]
    fn malformed_streams_get_a_typed_error() {
        // Out-of-range one-qubit target, reported at finish.
        let mut b = StreamingProfileBuilder::new(2);
        b.push(FtOp::OneQubit {
            kind: OneQubitKind::H,
            target: q(2),
        });
        assert_eq!(
            b.finish().unwrap_err(),
            EstimateError::InvalidStream {
                qubit: 2,
                num_qubits: 2
            }
        );

        // Self-loop CNOT.
        let mut b = StreamingProfileBuilder::new(2);
        b.push(FtOp::Cnot {
            control: q(1),
            target: q(1),
        });
        assert!(matches!(
            b.finish().unwrap_err(),
            EstimateError::InvalidStream { qubit: 1, .. }
        ));

        // Same violations through the critical-path pass.
        let estimator = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13());
        let data = StreamingProfileBuilder::new(2).finish().unwrap();
        for (control, target) in [(0, 7), (1, 1)] {
            let bad = [FtOp::Cnot {
                control: q(control),
                target: q(target),
            }];
            assert_eq!(
                estimator
                    .estimate_stream_with_data(2, &data, bad.into_iter())
                    .unwrap_err(),
                EstimateError::InvalidStream {
                    qubit: target,
                    num_qubits: 2
                }
            );
        }
    }

    #[test]
    fn fn_source_replays_and_estimates() {
        let ft = mixed_circuit();
        let ops: Vec<FtOp> = ft.ops().to_vec();
        let source = FnSource::new(6, move || ops.clone().into_iter());
        let estimator = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13());
        let a = estimator.estimate_stream(&source).unwrap();
        let b = estimator.estimate_stream(&ft).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.critical, b.critical);
    }

    #[test]
    fn run_merging_is_associative_with_the_weights() {
        let a = vec![(0, 1, 2), (1, 2, 1)];
        let b = vec![(0, 1, 1), (2, 3, 4)];
        assert_eq!(
            merge_runs(a.clone(), b.clone()),
            vec![(0, 1, 3), (1, 2, 1), (2, 3, 4)]
        );
        assert_eq!(merge_runs(a.clone(), b.clone()), merge_runs(b, a));
    }
}
