//! The paper's decomposition pipeline (§4.1):
//!
//! 1. `n`-input Toffoli and Fredkin gates (`n > 3`) are decomposed to
//!    3-input gates by the simple Nielsen–Chuang construction, **adding
//!    ancillary qubits with no ancilla sharing** between decomposed gates;
//! 2. each 3-input Fredkin is replaced by **three 3-input Toffoli gates**;
//! 3. each 3-input Toffoli is decomposed to the fault-tolerant set
//!    `{H, T, T†, CNOT}` by the Shende–Markov network (Fig. 2a): 15 gates —
//!    2 H, 4 T, 3 T†, 6 CNOT.
//!
//! The result is an [`FtCircuit`] whose op count is the paper's
//! "operation count" and whose width (`Q`) includes the added ancillas.

use std::collections::VecDeque;

use leqa_fabric::OneQubitKind;

use crate::{Circuit, CircuitError, FtCircuit, FtOp, Gate, QubitId};

/// Number of FT ops a single 3-input Toffoli lowers to.
pub const FT_OPS_PER_TOFFOLI: usize = 15;

/// Lowers a reversible circuit to fault-tolerant operations, allocating
/// ancillas as needed (no sharing).
///
/// # Errors
///
/// Returns [`CircuitError::TooManyQubits`] if ancilla allocation overflows
/// the qubit index space. Gate-level validation errors cannot occur for
/// gates that entered the circuit through [`Circuit::push`].
///
/// # Examples
///
/// ```
/// use leqa_circuit::{Circuit, Gate, QubitId};
/// use leqa_circuit::decompose::{lower_to_ft, FT_OPS_PER_TOFFOLI};
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut c = Circuit::new(3);
/// c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
/// let ft = lower_to_ft(&c)?;
/// assert_eq!(ft.ops().len(), FT_OPS_PER_TOFFOLI);
/// # Ok(())
/// # }
/// ```
pub fn lower_to_ft(circuit: &Circuit) -> Result<FtCircuit, CircuitError> {
    // Pass 1: reduce everything to {one-qubit, CNOT, 3-input Toffoli},
    // allocating fresh ancillas per multi-controlled gate.
    let mut next_qubit = circuit.num_qubits();
    let mut simple: Vec<SimpleGate> = Vec::with_capacity(circuit.gates().len() * 2);
    for gate in circuit.gates() {
        expand_gate(gate, &mut next_qubit, &mut simple)?;
    }

    // Pass 2: lower 3-input Toffolis to the FT set, into an op list
    // sized once.
    let mut ft = FtCircuit::new(next_qubit);
    if let Some(name) = circuit.name() {
        ft.set_name(name);
    }
    ft.reserve_exact(
        simple
            .iter()
            .map(|g| match g {
                SimpleGate::Toffoli(..) => FT_OPS_PER_TOFFOLI,
                SimpleGate::One(..) | SimpleGate::Cnot(..) => 1,
            })
            .sum(),
    );
    for g in simple {
        match g {
            SimpleGate::One(kind, q) => ft.push_one_qubit(kind, q)?,
            SimpleGate::Cnot(c, t) => ft.push_cnot(c, t)?,
            SimpleGate::Toffoli(a, b, t) => emit_toffoli_ft(&mut ft, a, b, t)?,
        }
    }
    Ok(ft)
}

/// Runs only the first lowering pass: multi-controlled gates become
/// 3-input Toffolis (via ancilla ladders) and Fredkins become Toffoli
/// triples, but Toffolis are **not** expanded to the FT gate set.
///
/// The output circuit computes the same Boolean function as the input on
/// its original wires (ancillas start and end at 0) — a property the test
/// suite verifies exhaustively on small circuits via [`classical`].
///
/// # Errors
///
/// Returns [`CircuitError::TooManyQubits`] on ancilla index overflow.
///
/// [`classical`]: crate::classical
pub fn to_toffoli_circuit(circuit: &Circuit) -> Result<Circuit, CircuitError> {
    let mut next_qubit = circuit.num_qubits();
    let mut simple: Vec<SimpleGate> = Vec::with_capacity(circuit.gates().len() * 2);
    for gate in circuit.gates() {
        expand_gate(gate, &mut next_qubit, &mut simple)?;
    }
    let mut out = Circuit::new(next_qubit);
    if let Some(name) = circuit.name() {
        out.set_name(name);
    }
    for g in simple {
        let gate = match g {
            SimpleGate::One(kind, q) => Gate::one_qubit(kind, q),
            SimpleGate::Cnot(c, t) => Gate::cnot(c, t)?,
            SimpleGate::Toffoli(a, b, t) => Gate::toffoli(a, b, t)?,
        };
        out.push(gate)?;
    }
    Ok(out)
}

/// Intermediate gate alphabet between the two lowering passes.
#[derive(Debug, Clone, Copy)]
enum SimpleGate {
    One(OneQubitKind, QubitId),
    Cnot(QubitId, QubitId),
    Toffoli(QubitId, QubitId, QubitId),
}

fn allocate(next_qubit: &mut u32) -> Result<QubitId, CircuitError> {
    let id = QubitId(*next_qubit);
    *next_qubit = next_qubit
        .checked_add(1)
        .ok_or(CircuitError::TooManyQubits)?;
    Ok(id)
}

fn expand_gate(
    gate: &Gate,
    next_qubit: &mut u32,
    out: &mut Vec<SimpleGate>,
) -> Result<(), CircuitError> {
    match gate {
        Gate::OneQubit { kind, target } => out.push(SimpleGate::One(*kind, *target)),
        Gate::Cnot { control, target } => out.push(SimpleGate::Cnot(*control, *target)),
        Gate::Toffoli { c1, c2, target } => out.push(SimpleGate::Toffoli(*c1, *c2, *target)),
        Gate::Fredkin { control, a, b } => expand_fredkin(*control, *a, *b, out),
        Gate::Mct { controls, target } => {
            let top = reduce_controls(controls, next_qubit, out)?;
            out.push(SimpleGate::Toffoli(top.0, top.1, *target));
            uncompute_controls(controls, top.2, out);
        }
        Gate::Mcf { controls, a, b } => {
            let top = reduce_controls(controls, next_qubit, out)?;
            // A Fredkin whose control is the AND of all controls: realize the
            // AND on one more ancilla, apply a plain Fredkin, uncompute.
            let and_all = allocate(next_qubit)?;
            out.push(SimpleGate::Toffoli(top.0, top.1, and_all));
            expand_fredkin(and_all, *a, *b, out);
            out.push(SimpleGate::Toffoli(top.0, top.1, and_all));
            uncompute_controls(controls, top.2, out);
        }
    }
    Ok(())
}

/// Fredkin → three Toffolis (§4.1): controlled-swap as a conjugated
/// controlled-NOT sandwich where every layer is a Toffoli.
fn expand_fredkin(control: QubitId, a: QubitId, b: QubitId, out: &mut Vec<SimpleGate>) {
    out.push(SimpleGate::Toffoli(control, a, b));
    out.push(SimpleGate::Toffoli(control, b, a));
    out.push(SimpleGate::Toffoli(control, a, b));
}

/// Nielsen–Chuang ladder: ANDs `k ≥ 3` controls pairwise into fresh
/// ancillas so that the caller can apply a 3-input gate controlled by the
/// final pair. Returns the final control pair and the list of computed
/// ancilla Toffolis for uncomputation.
///
/// For `k` controls this emits `k − 2` Toffolis and allocates `k − 2`
/// ancillas; with the mirrored uncomputation the full `k`-controlled NOT
/// costs `2(k − 2) + 1 = 2k − 3` Toffolis, the textbook figure.
fn reduce_controls(
    controls: &[QubitId],
    next_qubit: &mut u32,
    out: &mut Vec<SimpleGate>,
) -> Result<(QubitId, QubitId, Vec<SimpleGate>), CircuitError> {
    debug_assert!(controls.len() >= 2, "callers pass at least a control pair");
    if controls.len() == 2 {
        // Already a pair: no ladder needed (the 2-control MCF case).
        return Ok((controls[0], controls[1], Vec::new()));
    }
    let mut computed: Vec<SimpleGate> = Vec::with_capacity(controls.len() - 2);
    let mut carry = controls[0];
    for &c in &controls[1..controls.len() - 1] {
        let anc = allocate(next_qubit)?;
        let tof = SimpleGate::Toffoli(carry, c, anc);
        out.push(tof);
        computed.push(tof);
        carry = anc;
    }
    Ok((carry, *controls.last().expect("≥3 controls"), computed))
}

/// Mirrors the compute ladder to restore the ancillas.
fn uncompute_controls(_controls: &[QubitId], computed: Vec<SimpleGate>, out: &mut Vec<SimpleGate>) {
    for tof in computed.into_iter().rev() {
        out.push(tof);
    }
}

/// The Shende–Markov 15-gate Toffoli network over `{H, T, T†, CNOT}`
/// (Fig. 2a of the paper; \[21\]), as a fixed op array shared by the
/// materialized and streaming lowerings.
fn toffoli_ft_ops(a: QubitId, b: QubitId, t: QubitId) -> [FtOp; FT_OPS_PER_TOFFOLI] {
    use OneQubitKind::{Tdg, H, T};
    let one = |kind, target| FtOp::OneQubit { kind, target };
    let cnot = |control, target| FtOp::Cnot { control, target };
    [
        one(H, t),
        cnot(b, t),
        one(Tdg, t),
        cnot(a, t),
        one(T, t),
        cnot(b, t),
        one(Tdg, t),
        cnot(a, t),
        one(T, b),
        one(T, t),
        one(H, t),
        cnot(a, b),
        one(T, a),
        one(Tdg, b),
        cnot(a, b),
    ]
}

fn emit_toffoli_ft(
    ft: &mut FtCircuit,
    a: QubitId,
    b: QubitId,
    t: QubitId,
) -> Result<(), CircuitError> {
    for op in toffoli_ft_ops(a, b, t) {
        ft.push(op)?;
    }
    Ok(())
}

/// A single-pass streaming lowering: yields exactly the [`FtOp`] sequence
/// [`lower_to_ft`] would materialize (same op order, same ancilla
/// numbering), holding only a bounded per-gate buffer in memory.
///
/// Ancillas are allocated in program order exactly as the two-pass
/// materialized lowering does, so the two paths are bit-identical — a
/// property pinned by this crate's differential tests. Gates are trusted
/// to be well-formed (operands distinct and on-circuit), the invariant
/// every gate admitted through [`Circuit::push`] already satisfies; only
/// ancilla-index overflow is reported as an error.
///
/// # Examples
///
/// ```
/// use leqa_circuit::{Circuit, Gate, QubitId};
/// use leqa_circuit::decompose::{lower_to_ft, LoweredGates};
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut c = Circuit::new(3);
/// c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
/// let streamed: Vec<_> = LoweredGates::new(c.num_qubits(), c.gates().iter().cloned())
///     .collect::<Result<_, _>>()?;
/// assert_eq!(streamed, lower_to_ft(&c)?.ops());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LoweredGates<I> {
    gates: I,
    next_qubit: u32,
    /// FT ops expanded from the current gate, drained before the next
    /// gate is pulled. Bounded by the largest single-gate expansion.
    buf: VecDeque<FtOp>,
    /// Scratch for the first lowering pass, reused across gates.
    simple: Vec<SimpleGate>,
    failed: bool,
}

impl<I: Iterator<Item = Gate>> LoweredGates<I> {
    /// Starts a streaming lowering of `gates` over `num_qubits` original
    /// wires; ancillas are numbered from `num_qubits` upward.
    pub fn new(num_qubits: u32, gates: impl IntoIterator<Item = Gate, IntoIter = I>) -> Self {
        LoweredGates {
            gates: gates.into_iter(),
            next_qubit: num_qubits,
            buf: VecDeque::new(),
            simple: Vec::new(),
            failed: false,
        }
    }

    /// The wire count so far: original wires plus every ancilla allocated
    /// by the gates consumed up to this point. After the iterator is
    /// drained this equals the lowered circuit's qubit count.
    pub fn qubits_so_far(&self) -> u32 {
        self.next_qubit
    }
}

impl<I: Iterator<Item = Gate>> Iterator for LoweredGates<I> {
    type Item = Result<FtOp, CircuitError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(op) = self.buf.pop_front() {
                return Some(Ok(op));
            }
            if self.failed {
                return None;
            }
            let gate = self.gates.next()?;
            self.simple.clear();
            if let Err(e) = expand_gate(&gate, &mut self.next_qubit, &mut self.simple) {
                self.failed = true;
                return Some(Err(e));
            }
            for g in self.simple.drain(..) {
                match g {
                    SimpleGate::One(kind, target) => {
                        self.buf.push_back(FtOp::OneQubit { kind, target })
                    }
                    SimpleGate::Cnot(control, target) => {
                        self.buf.push_back(FtOp::Cnot { control, target })
                    }
                    SimpleGate::Toffoli(a, b, t) => self.buf.extend(toffoli_ft_ops(a, b, t)),
                }
            }
        }
    }
}

/// Counts the FT ops a reversible circuit will lower to, without building
/// the lowered circuit (used by workload generators to hit target op
/// counts cheaply).
pub fn lowered_op_count(circuit: &Circuit) -> u64 {
    circuit
        .gates()
        .iter()
        .map(|g| match g {
            Gate::OneQubit { .. } => 1,
            Gate::Cnot { .. } => 1,
            Gate::Toffoli { .. } => FT_OPS_PER_TOFFOLI as u64,
            Gate::Fredkin { .. } => 3 * FT_OPS_PER_TOFFOLI as u64,
            Gate::Mct { controls, .. } => {
                let k = controls.len() as u64;
                (2 * k - 3) * FT_OPS_PER_TOFFOLI as u64
            }
            Gate::Mcf { controls, .. } => {
                let k = controls.len() as u64;
                // compute ladder + AND + Fredkin(3 Toffolis) + AND + ladder
                (2 * (k - 2) + 2 + 3) * FT_OPS_PER_TOFFOLI as u64
            }
        })
        .sum()
}

/// Counts the ancilla qubits lowering will add.
pub fn lowered_ancilla_count(circuit: &Circuit) -> u64 {
    circuit
        .gates()
        .iter()
        .map(|g| match g {
            Gate::Mct { controls, .. } => controls.len() as u64 - 2,
            Gate::Mcf { controls, .. } => controls.len() as u64 - 1,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtOp;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn toffoli_lowers_to_fig2_multiset() {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(q(0), q(1), q(2)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(ft.ops().len(), 15);
        assert_eq!(ft.cnot_count(), 6);
        let counts = ft.one_qubit_counts();
        assert_eq!(counts[OneQubitKind::H.index()], 2);
        assert_eq!(counts[OneQubitKind::T.index()], 4);
        assert_eq!(counts[OneQubitKind::Tdg.index()], 3);
        assert_eq!(ft.num_qubits(), 3); // no ancillas
    }

    #[test]
    fn fredkin_is_three_toffolis() {
        let mut c = Circuit::new(3);
        c.push(Gate::fredkin(q(0), q(1), q(2)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(ft.ops().len(), 3 * 15);
        assert_eq!(ft.num_qubits(), 3);
    }

    #[test]
    fn mct_ancilla_and_toffoli_counts() {
        // 5 controls: 2k-3 = 7 Toffolis, k-2 = 3 ancillas.
        let controls: Vec<QubitId> = (0..5).map(q).collect();
        let mut c = Circuit::new(6);
        c.push(Gate::mct(controls, q(5)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(ft.ops().len(), 7 * 15);
        assert_eq!(ft.num_qubits(), 6 + 3);
    }

    #[test]
    fn no_ancilla_sharing_between_gates() {
        let mut c = Circuit::new(5);
        let controls: Vec<QubitId> = (0..4).map(q).collect();
        c.push(Gate::mct(controls.clone(), q(4)).unwrap()).unwrap();
        c.push(Gate::mct(controls, q(4)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        // Each 4-control MCT adds 2 ancillas; the paper's flow does not share.
        assert_eq!(ft.num_qubits(), 5 + 2 + 2);
    }

    #[test]
    fn mcf_expands_and_restores_ancillas() {
        let controls: Vec<QubitId> = (0..3).map(q).collect();
        let mut c = Circuit::new(5);
        c.push(Gate::mcf(controls, q(3), q(4)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        // ladder (1 Toffoli) + and (1) + fredkin (3) + and (1) + ladder (1) = 7
        assert_eq!(ft.ops().len(), 7 * 15);
        // k-2 = 1 ladder ancilla + 1 AND ancilla
        assert_eq!(ft.num_qubits(), 5 + 2);
    }

    #[test]
    fn predicted_counts_match_lowering() {
        let mut c = Circuit::new(8);
        c.push(Gate::not(q(0))).unwrap();
        c.push(Gate::cnot(q(0), q(1)).unwrap()).unwrap();
        c.push(Gate::toffoli(q(0), q(1), q(2)).unwrap()).unwrap();
        c.push(Gate::fredkin(q(3), q(4), q(5)).unwrap()).unwrap();
        c.push(Gate::mct((0..5).map(q).collect(), q(5)).unwrap())
            .unwrap();
        c.push(Gate::mcf((0..3).map(q).collect(), q(6), q(7)).unwrap())
            .unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(ft.ops().len() as u64, lowered_op_count(&c));
        assert_eq!(
            ft.num_qubits() as u64,
            c.num_qubits() as u64 + lowered_ancilla_count(&c)
        );
    }

    #[test]
    fn one_qubit_gates_pass_through() {
        let mut c = Circuit::new(1);
        c.push(Gate::one_qubit(OneQubitKind::H, q(0))).unwrap();
        c.push(Gate::one_qubit(OneQubitKind::Sdg, q(0))).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(
            ft.ops(),
            &[
                FtOp::OneQubit {
                    kind: OneQubitKind::H,
                    target: q(0)
                },
                FtOp::OneQubit {
                    kind: OneQubitKind::Sdg,
                    target: q(0)
                },
            ]
        );
    }

    /// A circuit hitting every expansion arm (one-qubit, CNOT, Toffoli,
    /// Fredkin, MCT ladder, MCF), so the streaming/materialized
    /// differential covers all ancilla-allocation paths.
    fn every_arm() -> Circuit {
        let mut c = Circuit::new(8);
        c.push(Gate::not(q(0))).unwrap();
        c.push(Gate::cnot(q(0), q(1)).unwrap()).unwrap();
        c.push(Gate::toffoli(q(0), q(1), q(2)).unwrap()).unwrap();
        c.push(Gate::fredkin(q(3), q(4), q(5)).unwrap()).unwrap();
        c.push(Gate::mct((0..5).map(q).collect(), q(5)).unwrap())
            .unwrap();
        c.push(Gate::mcf((0..3).map(q).collect(), q(6), q(7)).unwrap())
            .unwrap();
        c.push(Gate::mct((0..4).map(q).collect(), q(4)).unwrap())
            .unwrap();
        c
    }

    #[test]
    fn streaming_lowering_is_bit_identical_to_materialized() {
        let c = every_arm();
        let ft = lower_to_ft(&c).unwrap();
        let mut stream = LoweredGates::new(c.num_qubits(), c.gates().iter().cloned());
        let ops: Vec<FtOp> = (&mut stream).collect::<Result<_, _>>().unwrap();
        assert_eq!(ops, ft.ops());
        assert_eq!(stream.qubits_so_far(), ft.num_qubits());
    }

    #[test]
    fn streaming_lowering_tracks_ancillas_incrementally() {
        let mut c = Circuit::new(5);
        c.push(Gate::mct((0..4).map(q).collect(), q(4)).unwrap())
            .unwrap();
        let mut stream = LoweredGates::new(c.num_qubits(), c.gates().iter().cloned());
        assert_eq!(stream.qubits_so_far(), 5);
        assert!(stream.next().is_some());
        // Pulling the first op expanded the whole gate: both ladder
        // ancillas are now allocated.
        assert_eq!(stream.qubits_so_far(), 7);
    }

    #[test]
    fn gate_order_is_preserved() {
        let mut c = Circuit::new(3);
        c.push(Gate::cnot(q(0), q(1)).unwrap()).unwrap();
        c.push(Gate::toffoli(q(0), q(1), q(2)).unwrap()).unwrap();
        c.push(Gate::cnot(q(1), q(2)).unwrap()).unwrap();
        let ft = lower_to_ft(&c).unwrap();
        assert_eq!(
            ft.ops()[0],
            FtOp::Cnot {
                control: q(0),
                target: q(1)
            }
        );
        assert_eq!(
            *ft.ops().last().unwrap(),
            FtOp::Cnot {
                control: q(1),
                target: q(2)
            }
        );
        assert_eq!(ft.ops().len(), 17);
    }
}
