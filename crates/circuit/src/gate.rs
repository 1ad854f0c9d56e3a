//! Gate types: reversible-level [`Gate`]s and lowered fault-tolerant
//! [`FtOp`]s.

use leqa_fabric::OneQubitKind;

use crate::CircuitError;

/// Identifier of a logical qubit (a wire in the circuit), 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QubitId(pub u32);

impl QubitId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for QubitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A gate of the synthesized reversible circuit, before FT lowering.
///
/// Reversible logic synthesis emits NOT, CNOT and Toffoli gates (§2, \[8\]);
/// benchmark circuits additionally contain Fredkin (controlled-swap) and
/// multi-controlled variants, which the paper decomposes before mapping
/// (§4.1). One-qubit FT gates are also allowed so that already-lowered
/// circuits (such as Fig. 2's ham3) can be expressed at this level.
///
/// Construct gates through the checked constructors ([`Gate::cnot`],
/// [`Gate::toffoli`], …), which reject duplicate operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub enum Gate {
    /// A one-qubit FT gate applied directly at the reversible level.
    OneQubit {
        /// Which FT operation.
        kind: OneQubitKind,
        /// The wire it acts on.
        target: QubitId,
    },
    /// Controlled NOT.
    Cnot {
        /// Control wire.
        control: QubitId,
        /// Target wire.
        target: QubitId,
    },
    /// 3-input Toffoli (two controls, one target).
    Toffoli {
        /// First control.
        c1: QubitId,
        /// Second control.
        c2: QubitId,
        /// Target wire.
        target: QubitId,
    },
    /// 3-input Fredkin: controlled swap of `a` and `b`.
    Fredkin {
        /// Control wire.
        control: QubitId,
        /// First swapped wire.
        a: QubitId,
        /// Second swapped wire.
        b: QubitId,
    },
    /// Multi-controlled Toffoli (`n`-input Toffoli with `n − 1 ≥ 3`
    /// controls).
    Mct {
        /// Control wires (at least one; 1 and 2 controls are normalized to
        /// [`Gate::Cnot`] / [`Gate::Toffoli`] by [`Gate::mct`]).
        controls: Vec<QubitId>,
        /// Target wire.
        target: QubitId,
    },
    /// Multi-controlled Fredkin (`n`-input Fredkin, controls plus a swapped
    /// pair).
    Mcf {
        /// Control wires (at least two; a single control is normalized to
        /// [`Gate::Fredkin`] by [`Gate::mcf`]).
        controls: Vec<QubitId>,
        /// First swapped wire.
        a: QubitId,
        /// Second swapped wire.
        b: QubitId,
    },
}

/// Rejects a wire that appears twice in `head` followed by `tail`,
/// naming the first operand that recurs later in that order.
fn ensure_distinct(head: &[QubitId], tail: &[QubitId]) -> Result<(), CircuitError> {
    for (i, q) in head.iter().enumerate() {
        if head[i + 1..].contains(q) || tail.contains(q) {
            return Err(CircuitError::DuplicateOperand { qubit: *q });
        }
    }
    for (i, q) in tail.iter().enumerate() {
        if tail[i + 1..].contains(q) {
            return Err(CircuitError::DuplicateOperand { qubit: *q });
        }
    }
    Ok(())
}

impl Gate {
    /// A NOT gate (Pauli X).
    pub fn not(target: QubitId) -> Gate {
        Gate::OneQubit {
            kind: OneQubitKind::X,
            target,
        }
    }

    /// A one-qubit FT gate.
    pub fn one_qubit(kind: OneQubitKind, target: QubitId) -> Gate {
        Gate::OneQubit { kind, target }
    }

    /// A CNOT gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateOperand`] if `control == target`.
    pub fn cnot(control: QubitId, target: QubitId) -> Result<Gate, CircuitError> {
        ensure_distinct(&[control, target], &[])?;
        Ok(Gate::Cnot { control, target })
    }

    /// A 3-input Toffoli gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateOperand`] if any two operands
    /// coincide.
    pub fn toffoli(c1: QubitId, c2: QubitId, target: QubitId) -> Result<Gate, CircuitError> {
        ensure_distinct(&[c1, c2, target], &[])?;
        Ok(Gate::Toffoli { c1, c2, target })
    }

    /// A 3-input Fredkin (controlled-swap) gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateOperand`] if any two operands
    /// coincide.
    pub fn fredkin(control: QubitId, a: QubitId, b: QubitId) -> Result<Gate, CircuitError> {
        ensure_distinct(&[control, a, b], &[])?;
        Ok(Gate::Fredkin { control, a, b })
    }

    /// A multi-controlled Toffoli, normalized: 1 control becomes
    /// [`Gate::Cnot`], 2 controls become [`Gate::Toffoli`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyControls`] with no controls, or
    /// [`CircuitError::DuplicateOperand`] if operands repeat.
    pub fn mct(controls: Vec<QubitId>, target: QubitId) -> Result<Gate, CircuitError> {
        if controls.is_empty() {
            return Err(CircuitError::EmptyControls);
        }
        ensure_distinct(&controls, &[target])?;
        Ok(match controls.len() {
            1 => Gate::Cnot {
                control: controls[0],
                target,
            },
            2 => Gate::Toffoli {
                c1: controls[0],
                c2: controls[1],
                target,
            },
            _ => Gate::Mct { controls, target },
        })
    }

    /// A multi-controlled Fredkin, normalized: 1 control becomes
    /// [`Gate::Fredkin`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyControls`] with no controls, or
    /// [`CircuitError::DuplicateOperand`] if operands repeat.
    pub fn mcf(controls: Vec<QubitId>, a: QubitId, b: QubitId) -> Result<Gate, CircuitError> {
        if controls.is_empty() {
            return Err(CircuitError::EmptyControls);
        }
        ensure_distinct(&controls, &[a, b])?;
        Ok(match controls.len() {
            1 => Gate::Fredkin {
                control: controls[0],
                a,
                b,
            },
            _ => Gate::Mcf { controls, a, b },
        })
    }

    /// All wires this gate touches, controls first.
    pub fn qubits(&self) -> Vec<QubitId> {
        self.operands().collect()
    }

    /// The wires of [`qubits`](Self::qubits), in the same order, without
    /// allocating.
    pub(crate) fn operands(&self) -> impl Iterator<Item = QubitId> + '_ {
        let (controls, rest): (&[QubitId], [Option<QubitId>; 3]) = match self {
            Gate::OneQubit { target, .. } => (&[], [Some(*target), None, None]),
            Gate::Cnot { control, target } => (&[], [Some(*control), Some(*target), None]),
            Gate::Toffoli { c1, c2, target } => (&[], [Some(*c1), Some(*c2), Some(*target)]),
            Gate::Fredkin { control, a, b } => (&[], [Some(*control), Some(*a), Some(*b)]),
            Gate::Mct { controls, target } => (controls, [Some(*target), None, None]),
            Gate::Mcf { controls, a, b } => (controls, [Some(*a), Some(*b), None]),
        };
        controls.iter().copied().chain(rest.into_iter().flatten())
    }

    /// The largest qubit index this gate touches.
    pub fn max_qubit(&self) -> QubitId {
        self.operands()
            .max()
            .expect("every gate touches at least one qubit")
    }
}

/// A lowered fault-tolerant operation: the node payload of the QODG.
///
/// The paper's Eq. 1 treats the (only) two-qubit FT op, CNOT, separately
/// from the one-qubit ops, and so does this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FtOp {
    /// A one-qubit FT operation.
    OneQubit {
        /// Which FT operation.
        kind: OneQubitKind,
        /// The wire it acts on.
        target: QubitId,
    },
    /// The two-qubit CNOT FT operation.
    Cnot {
        /// Control wire (the *control edge* of the QODG node).
        control: QubitId,
        /// Target wire (the *target edge* of the QODG node).
        target: QubitId,
    },
}

impl FtOp {
    /// Whether this is the two-qubit CNOT.
    #[inline]
    pub fn is_cnot(self) -> bool {
        matches!(self, FtOp::Cnot { .. })
    }

    /// The wires this op touches (1 or 2).
    #[inline]
    pub fn qubits(self) -> impl Iterator<Item = QubitId> {
        let (a, b) = match self {
            FtOp::OneQubit { target, .. } => (target, None),
            FtOp::Cnot { control, target } => (control, Some(target)),
        };
        std::iter::once(a).chain(b)
    }
}

impl std::fmt::Display for FtOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtOp::OneQubit { kind, target } => write!(f, "{kind} {target}"),
            FtOp::Cnot { control, target } => write!(f, "CNOT {control} {target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_reject_duplicates() {
        assert!(Gate::cnot(QubitId(1), QubitId(1)).is_err());
        assert!(Gate::toffoli(QubitId(0), QubitId(0), QubitId(1)).is_err());
        assert!(Gate::fredkin(QubitId(0), QubitId(1), QubitId(1)).is_err());
        assert!(Gate::mct(vec![QubitId(0), QubitId(1)], QubitId(1)).is_err());
        assert!(Gate::mcf(vec![QubitId(0)], QubitId(1), QubitId(0)).is_err());
    }

    /// The duplicate check as it stood before: scan the concatenated
    /// operand list for the first wire that recurs later.
    fn first_repeat(all: &[QubitId]) -> Option<QubitId> {
        (0..all.len())
            .find(|&i| all[i + 1..].contains(&all[i]))
            .map(|i| all[i])
    }

    #[test]
    fn multi_controlled_duplicates_are_named_like_the_concatenated_scan() {
        // Every operand list of length 3 to 5 over 4 wires.
        for len in 3..=5u32 {
            for code in 0..4u32.pow(len) {
                let all: Vec<QubitId> = (0..len).map(|i| QubitId(code / 4u32.pow(i) % 4)).collect();
                let expected =
                    first_repeat(&all).map(|qubit| CircuitError::DuplicateOperand { qubit });
                let n = all.len();
                let mct = Gate::mct(all[..n - 1].to_vec(), all[n - 1]);
                assert_eq!(mct.err(), expected, "mct {all:?}");
                let mcf = Gate::mcf(all[..n - 2].to_vec(), all[n - 2], all[n - 1]);
                assert_eq!(mcf.err(), expected, "mcf {all:?}");
            }
        }
    }

    #[test]
    fn mct_normalizes_small_cases() {
        assert!(matches!(
            Gate::mct(vec![QubitId(0)], QubitId(1)).unwrap(),
            Gate::Cnot { .. }
        ));
        assert!(matches!(
            Gate::mct(vec![QubitId(0), QubitId(1)], QubitId(2)).unwrap(),
            Gate::Toffoli { .. }
        ));
        assert!(matches!(
            Gate::mct(vec![QubitId(0), QubitId(1), QubitId(2)], QubitId(3)).unwrap(),
            Gate::Mct { .. }
        ));
    }

    #[test]
    fn mcf_normalizes_single_control() {
        assert!(matches!(
            Gate::mcf(vec![QubitId(0)], QubitId(1), QubitId(2)).unwrap(),
            Gate::Fredkin { .. }
        ));
        assert!(matches!(
            Gate::mcf(vec![QubitId(0), QubitId(1)], QubitId(2), QubitId(3)).unwrap(),
            Gate::Mcf { .. }
        ));
    }

    #[test]
    fn empty_controls_rejected() {
        assert_eq!(
            Gate::mct(vec![], QubitId(0)),
            Err(CircuitError::EmptyControls)
        );
        assert_eq!(
            Gate::mcf(vec![], QubitId(0), QubitId(1)),
            Err(CircuitError::EmptyControls)
        );
    }

    #[test]
    fn qubits_lists_controls_first() {
        let g = Gate::toffoli(QubitId(4), QubitId(2), QubitId(7)).unwrap();
        assert_eq!(g.qubits(), vec![QubitId(4), QubitId(2), QubitId(7)]);
        assert_eq!(g.max_qubit(), QubitId(7));
    }

    #[test]
    fn ft_op_qubits() {
        let one = FtOp::OneQubit {
            kind: OneQubitKind::H,
            target: QubitId(3),
        };
        assert_eq!(one.qubits().collect::<Vec<_>>(), vec![QubitId(3)]);
        assert!(!one.is_cnot());

        let two = FtOp::Cnot {
            control: QubitId(1),
            target: QubitId(2),
        };
        assert_eq!(
            two.qubits().collect::<Vec<_>>(),
            vec![QubitId(1), QubitId(2)]
        );
        assert!(two.is_cnot());
    }

    #[test]
    fn ft_op_display() {
        let op = FtOp::Cnot {
            control: QubitId(0),
            target: QubitId(5),
        };
        assert_eq!(op.to_string(), "CNOT q0 q5");
        let op = FtOp::OneQubit {
            kind: OneQubitKind::Tdg,
            target: QubitId(2),
        };
        assert_eq!(op.to_string(), "T+ q2");
    }
}
