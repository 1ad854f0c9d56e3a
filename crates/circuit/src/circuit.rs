//! Circuit containers: the reversible-level [`Circuit`] and the lowered
//! [`FtCircuit`].

use leqa_fabric::OneQubitKind;

use crate::{CircuitError, FtOp, Gate, QubitId};

/// A synthesized reversible circuit: an ordered list of [`Gate`]s over a
/// fixed set of wires.
///
/// The gate order is preserved through lowering ("it is assumed that the
/// order of gates does not change after the synthesis step", §2).
///
/// # Examples
///
/// ```
/// use leqa_circuit::{Circuit, Gate, QubitId};
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut c = Circuit::with_name(3, "ham3");
/// c.push(Gate::cnot(QubitId(0), QubitId(1))?)?;
/// c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
/// assert_eq!(c.gates().len(), 2);
/// assert_eq!(c.name(), Some("ham3"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
    name: Option<String>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` wires.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: None,
        }
    }

    /// Creates an empty, named circuit (names appear in reports).
    pub fn with_name(num_qubits: u32, name: impl Into<String>) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: Some(name.into()),
        }
    }

    /// The circuit name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Number of wires.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The gate sequence.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate, validating that all its operands are on-circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if the gate touches a wire
    /// at or beyond [`num_qubits`](Self::num_qubits).
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        if let Some(qubit) = gate.operands().find(|q| q.0 >= self.num_qubits) {
            return Err(CircuitError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Grows the circuit by one fresh (ancilla) wire and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::TooManyQubits`] on index overflow.
    pub fn allocate_qubit(&mut self) -> Result<QubitId, CircuitError> {
        let id = QubitId(self.num_qubits);
        self.num_qubits = self
            .num_qubits
            .checked_add(1)
            .ok_or(CircuitError::TooManyQubits)?;
        Ok(id)
    }

    /// Summary statistics of the gate list.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats::default();
        for g in &self.gates {
            match g {
                Gate::OneQubit { .. } => s.one_qubit += 1,
                Gate::Cnot { .. } => s.cnot += 1,
                Gate::Toffoli { .. } => s.toffoli += 1,
                Gate::Fredkin { .. } => s.fredkin += 1,
                Gate::Mct { .. } => s.mct += 1,
                Gate::Mcf { .. } => s.mcf += 1,
            }
        }
        s
    }
}

/// Gate-type histogram of a reversible circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// One-qubit FT gates at the reversible level.
    pub one_qubit: u64,
    /// CNOT gates.
    pub cnot: u64,
    /// 3-input Toffoli gates.
    pub toffoli: u64,
    /// 3-input Fredkin gates.
    pub fredkin: u64,
    /// Multi-controlled Toffoli gates (≥ 3 controls).
    pub mct: u64,
    /// Multi-controlled Fredkin gates (≥ 2 controls).
    pub mcf: u64,
}

impl CircuitStats {
    /// Total gate count.
    pub fn total(&self) -> u64 {
        self.one_qubit + self.cnot + self.toffoli + self.fredkin + self.mct + self.mcf
    }
}

/// A fully lowered fault-tolerant circuit: an ordered list of [`FtOp`]s.
///
/// This is the input representation for QODG construction and for both the
/// estimator and the detailed mapper. Its length is the paper's
/// "operation count" (Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtCircuit {
    num_qubits: u32,
    ops: Vec<FtOp>,
    name: Option<String>,
}

impl FtCircuit {
    /// Creates an empty FT circuit over `num_qubits` wires.
    pub fn new(num_qubits: u32) -> Self {
        FtCircuit {
            num_qubits,
            ops: Vec::new(),
            name: None,
        }
    }

    /// The circuit name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Number of wires (the paper's logical qubit count `Q`).
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The op sequence.
    #[inline]
    pub fn ops(&self) -> &[FtOp] {
        &self.ops
    }

    /// Makes room for exactly `additional` more ops.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.ops.reserve_exact(additional);
    }

    /// Appends an op, validating operands.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] for off-circuit wires and
    /// [`CircuitError::DuplicateOperand`] for a CNOT with `control ==
    /// target`.
    pub fn push(&mut self, op: FtOp) -> Result<(), CircuitError> {
        if let FtOp::Cnot { control, target } = op {
            if control == target {
                return Err(CircuitError::DuplicateOperand { qubit: control });
            }
        }
        for q in op.qubits() {
            if q.0 >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        self.ops.push(op);
        Ok(())
    }

    /// Convenience: appends a one-qubit op.
    ///
    /// # Errors
    ///
    /// Same as [`push`](Self::push).
    pub fn push_one_qubit(
        &mut self,
        kind: OneQubitKind,
        target: QubitId,
    ) -> Result<(), CircuitError> {
        self.push(FtOp::OneQubit { kind, target })
    }

    /// Convenience: appends a CNOT.
    ///
    /// # Errors
    ///
    /// Same as [`push`](Self::push).
    pub fn push_cnot(&mut self, control: QubitId, target: QubitId) -> Result<(), CircuitError> {
        self.push(FtOp::Cnot { control, target })
    }

    /// Number of CNOT ops.
    pub fn cnot_count(&self) -> u64 {
        self.ops.iter().filter(|op| op.is_cnot()).count() as u64
    }

    /// Number of one-qubit ops of each kind, indexed by
    /// [`OneQubitKind::index`].
    pub fn one_qubit_counts(&self) -> [u64; 8] {
        let mut counts = [0u64; 8];
        for op in &self.ops {
            if let FtOp::OneQubit { kind, .. } = op {
                counts[kind.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_range() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::not(QubitId(1))).is_ok());
        assert!(matches!(
            c.push(Gate::not(QubitId(2))),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn push_names_the_first_offending_operand() {
        let q = QubitId;
        let gates = [
            (Gate::toffoli(q(0), q(8), q(5)).unwrap(), q(8)),
            (Gate::mct(vec![q(0), q(6), q(1), q(9)], q(7)).unwrap(), q(6)),
            (Gate::mct(vec![q(0), q(2), q(1)], q(7)).unwrap(), q(7)),
            (Gate::mcf(vec![q(0), q(1)], q(9), q(3)).unwrap(), q(9)),
            (Gate::mcf(vec![q(0), q(1)], q(3), q(11)).unwrap(), q(11)),
        ];
        for (gate, first) in gates {
            let expected = *gate.qubits().iter().find(|x| x.0 >= 4).unwrap();
            assert_eq!(expected, first);
            assert_eq!(
                Circuit::new(4).push(gate),
                Err(CircuitError::QubitOutOfRange {
                    qubit: first,
                    num_qubits: 4
                })
            );
        }
    }

    #[test]
    fn allocate_extends_width() {
        let mut c = Circuit::new(2);
        let anc = c.allocate_qubit().unwrap();
        assert_eq!(anc, QubitId(2));
        assert_eq!(c.num_qubits(), 3);
        assert!(c.push(Gate::not(anc)).is_ok());
    }

    #[test]
    fn stats_histogram() {
        let mut c = Circuit::new(6);
        c.push(Gate::not(QubitId(0))).unwrap();
        c.push(Gate::cnot(QubitId(0), QubitId(1)).unwrap()).unwrap();
        c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2)).unwrap())
            .unwrap();
        c.push(Gate::fredkin(QubitId(0), QubitId(1), QubitId(2)).unwrap())
            .unwrap();
        c.push(Gate::mct(vec![QubitId(0), QubitId(1), QubitId(2)], QubitId(3)).unwrap())
            .unwrap();
        let s = c.stats();
        assert_eq!(
            (s.one_qubit, s.cnot, s.toffoli, s.fredkin, s.mct, s.mcf),
            (1, 1, 1, 1, 1, 0)
        );
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn ft_circuit_validates() {
        let mut ft = FtCircuit::new(2);
        assert!(ft.push_cnot(QubitId(0), QubitId(1)).is_ok());
        assert!(matches!(
            ft.push_cnot(QubitId(1), QubitId(1)),
            Err(CircuitError::DuplicateOperand { .. })
        ));
        assert!(matches!(
            ft.push_one_qubit(OneQubitKind::H, QubitId(5)),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn ft_counts() {
        let mut ft = FtCircuit::new(3);
        ft.push_cnot(QubitId(0), QubitId(1)).unwrap();
        ft.push_cnot(QubitId(1), QubitId(2)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, QubitId(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, QubitId(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, QubitId(2)).unwrap();
        assert_eq!(ft.cnot_count(), 2);
        let counts = ft.one_qubit_counts();
        assert_eq!(counts[OneQubitKind::T.index()], 2);
        assert_eq!(counts[OneQubitKind::H.index()], 1);
        assert_eq!(counts[OneQubitKind::X.index()], 0);
    }

    #[test]
    fn names() {
        let mut c = Circuit::with_name(1, "demo");
        assert_eq!(c.name(), Some("demo"));
        c.set_name("other");
        assert_eq!(c.name(), Some("other"));
        let mut ft = FtCircuit::new(1);
        assert_eq!(ft.name(), None);
        ft.set_name("ft");
        assert_eq!(ft.name(), Some("ft"));
    }
}
