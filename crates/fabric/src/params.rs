//! Physical parameters of the TQA (Table 1 of the paper).
//!
//! Gate delays come from a ULB fabric-designer tool for an ion-trap fabric
//! with the \[\[7,1,3\]\] Steane code: the non-transversal `T`/`T†` gates are the
//! slowest. These numbers are plain inputs to both the estimator and the
//! detailed mapper; swapping them retargets the whole suite to another
//! technology or QECC ("does not limit the functionality of LEQA", §4.1).

use crate::{FabricError, Micros};

/// The one-qubit fault-tolerant operation types of the paper's universal set
/// `{CNOT, H, T, T†, S, S†, X, Y, Z}` (§2), minus the two-qubit CNOT which is
/// treated separately throughout (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OneQubitKind {
    /// Hadamard.
    H,
    /// π/4 rotation.
    T,
    /// −π/4 rotation (T-dagger).
    Tdg,
    /// Phase gate.
    S,
    /// Inverse phase gate.
    Sdg,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl OneQubitKind {
    /// All one-qubit kinds, in a fixed order (usable as a dense index).
    pub const ALL: [OneQubitKind; 8] = [
        OneQubitKind::H,
        OneQubitKind::T,
        OneQubitKind::Tdg,
        OneQubitKind::S,
        OneQubitKind::Sdg,
        OneQubitKind::X,
        OneQubitKind::Y,
        OneQubitKind::Z,
    ];

    /// Dense index into [`OneQubitKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OneQubitKind::H => 0,
            OneQubitKind::T => 1,
            OneQubitKind::Tdg => 2,
            OneQubitKind::S => 3,
            OneQubitKind::Sdg => 4,
            OneQubitKind::X => 5,
            OneQubitKind::Y => 6,
            OneQubitKind::Z => 7,
        }
    }

    /// Short mnemonic as used in circuit listings (`H`, `T`, `T+`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OneQubitKind::H => "H",
            OneQubitKind::T => "T",
            OneQubitKind::Tdg => "T+",
            OneQubitKind::S => "S",
            OneQubitKind::Sdg => "S+",
            OneQubitKind::X => "X",
            OneQubitKind::Y => "Y",
            OneQubitKind::Z => "Z",
        }
    }
}

impl std::fmt::Display for OneQubitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Per-operation logical gate delays (the `d_g` and `d_CNOT` of Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDelays {
    one_qubit: [Micros; 8],
    cnot: Micros,
}

impl GateDelays {
    /// Builds a delay table from a per-kind closure and a CNOT delay.
    pub fn from_fn(mut one_qubit: impl FnMut(OneQubitKind) -> Micros, cnot: Micros) -> Self {
        let mut table = [Micros::ZERO; 8];
        for kind in OneQubitKind::ALL {
            table[kind.index()] = one_qubit(kind);
        }
        GateDelays {
            one_qubit: table,
            cnot,
        }
    }

    /// Delay of a one-qubit FT operation (`d_g`).
    #[inline]
    pub fn one_qubit(&self, kind: OneQubitKind) -> Micros {
        self.one_qubit[kind.index()]
    }

    /// Delay of the CNOT FT operation (`d_CNOT`).
    #[inline]
    pub fn cnot(&self) -> Micros {
        self.cnot
    }

    /// Whether every delay is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.cnot.is_valid() && self.one_qubit.iter().all(|d| d.is_valid())
    }
}

/// The full physical parameter set of Table 1.
///
/// # Examples
///
/// ```
/// use leqa_fabric::{Micros, OneQubitKind, PhysicalParams};
///
/// let p = PhysicalParams::dac13();
/// assert_eq!(p.gate_delays().one_qubit(OneQubitKind::H), Micros::new(5440.0));
/// assert_eq!(p.gate_delays().cnot(), Micros::new(4930.0));
/// assert_eq!(p.t_move(), Micros::new(100.0));
/// assert_eq!(p.channel_capacity(), 5);
/// assert_eq!(p.qubit_speed(), 0.001);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalParams {
    gate_delays: GateDelays,
    t_move: Micros,
    channel_capacity: u32,
    qubit_speed: f64,
}

impl PhysicalParams {
    /// The parameter set of Table 1 (ion trap, \[\[7,1,3\]\] Steane code).
    ///
    /// `d_S`/`d_S†` are not listed in Table 1; they are transversal in the
    /// Steane code like the Paulis, so we use the Pauli delay (5240 µs) and
    /// record the choice in DESIGN.md.
    pub fn dac13() -> Self {
        let delays = GateDelays::from_fn(
            |kind| match kind {
                OneQubitKind::H => Micros::new(5440.0),
                OneQubitKind::T | OneQubitKind::Tdg => Micros::new(10940.0),
                OneQubitKind::S
                | OneQubitKind::Sdg
                | OneQubitKind::X
                | OneQubitKind::Y
                | OneQubitKind::Z => Micros::new(5240.0),
            },
            Micros::new(4930.0),
        );
        PhysicalParams {
            gate_delays: delays,
            t_move: Micros::new(100.0),
            channel_capacity: 5,
            qubit_speed: 0.001,
        }
    }

    /// Starts building a custom parameter set from this one.
    pub fn to_builder(&self) -> PhysicalParamsBuilder {
        PhysicalParamsBuilder {
            inner: self.clone(),
        }
    }

    /// The logical gate delay table.
    #[inline]
    pub fn gate_delays(&self) -> &GateDelays {
        &self.gate_delays
    }

    /// `T_move`: the time for a logical qubit to hop between neighbouring
    /// ULBs/channels/crossbars.
    #[inline]
    pub fn t_move(&self) -> Micros {
        self.t_move
    }

    /// `N_c`: the capacity of a routing channel (qubits that can use it
    /// concurrently without congestion).
    #[inline]
    pub fn channel_capacity(&self) -> u32 {
        self.channel_capacity
    }

    /// `v`: speed of a logical qubit through the routing channels, in ULB
    /// edges per microsecond. Also the knob that tunes LEQA to a particular
    /// mapper (§3.2).
    #[inline]
    pub fn qubit_speed(&self) -> f64 {
        self.qubit_speed
    }

    /// The empirical average routing latency of a one-qubit operation,
    /// `L_g^avg = 2 · T_move` (§3).
    #[inline]
    pub fn one_qubit_routing_latency(&self) -> Micros {
        self.t_move * 2.0
    }
}

/// Builder for [`PhysicalParams`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use leqa_fabric::{Micros, PhysicalParams};
///
/// # fn main() -> Result<(), leqa_fabric::FabricError> {
/// let fast_movement = PhysicalParams::dac13()
///     .to_builder()
///     .t_move(Micros::new(50.0))
///     .qubit_speed(0.002)
///     .build()?;
/// assert_eq!(fast_movement.t_move(), Micros::new(50.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalParamsBuilder {
    inner: PhysicalParams,
}

impl PhysicalParamsBuilder {
    /// Replaces the gate delay table.
    pub fn gate_delays(mut self, delays: GateDelays) -> Self {
        self.inner.gate_delays = delays;
        self
    }

    /// Sets `T_move`.
    pub fn t_move(mut self, t_move: Micros) -> Self {
        self.inner.t_move = t_move;
        self
    }

    /// Sets the channel capacity `N_c`.
    pub fn channel_capacity(mut self, capacity: u32) -> Self {
        self.inner.channel_capacity = capacity;
        self
    }

    /// Sets the qubit speed `v`.
    pub fn qubit_speed(mut self, v: f64) -> Self {
        self.inner.qubit_speed = v;
        self
    }

    /// Validates and finishes the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidParameter`] if a delay is negative or
    /// non-finite, the channel capacity is zero, or the qubit speed is not a
    /// positive finite number.
    pub fn build(self) -> Result<PhysicalParams, FabricError> {
        let p = self.inner;
        if !p.gate_delays.is_valid() {
            return Err(FabricError::InvalidParameter {
                name: "gate_delays",
            });
        }
        if !p.t_move.is_valid() {
            return Err(FabricError::InvalidParameter { name: "t_move" });
        }
        if p.channel_capacity == 0 {
            return Err(FabricError::InvalidParameter {
                name: "channel_capacity",
            });
        }
        if !(p.qubit_speed.is_finite() && p.qubit_speed > 0.0) {
            return Err(FabricError::InvalidParameter {
                name: "qubit_speed",
            });
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let p = PhysicalParams::dac13();
        let d = p.gate_delays();
        assert_eq!(d.one_qubit(OneQubitKind::H).as_f64(), 5440.0);
        assert_eq!(d.one_qubit(OneQubitKind::T).as_f64(), 10940.0);
        assert_eq!(d.one_qubit(OneQubitKind::Tdg).as_f64(), 10940.0);
        assert_eq!(d.one_qubit(OneQubitKind::X).as_f64(), 5240.0);
        assert_eq!(d.one_qubit(OneQubitKind::Y).as_f64(), 5240.0);
        assert_eq!(d.one_qubit(OneQubitKind::Z).as_f64(), 5240.0);
        assert_eq!(d.cnot().as_f64(), 4930.0);
        assert_eq!(p.t_move().as_f64(), 100.0);
        assert_eq!(p.channel_capacity(), 5);
        assert_eq!(p.qubit_speed(), 0.001);
    }

    #[test]
    fn l_g_avg_is_twice_t_move() {
        let p = PhysicalParams::dac13();
        assert_eq!(p.one_qubit_routing_latency().as_f64(), 200.0);
    }

    #[test]
    fn builder_overrides() {
        let p = PhysicalParams::dac13()
            .to_builder()
            .channel_capacity(2)
            .qubit_speed(0.01)
            .build()
            .unwrap();
        assert_eq!(p.channel_capacity(), 2);
        assert_eq!(p.qubit_speed(), 0.01);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(matches!(
            PhysicalParams::dac13()
                .to_builder()
                .channel_capacity(0)
                .build(),
            Err(FabricError::InvalidParameter {
                name: "channel_capacity"
            })
        ));
        assert!(matches!(
            PhysicalParams::dac13()
                .to_builder()
                .qubit_speed(f64::NAN)
                .build(),
            Err(FabricError::InvalidParameter {
                name: "qubit_speed"
            })
        ));
        assert!(matches!(
            PhysicalParams::dac13()
                .to_builder()
                .t_move(Micros::new(-1.0))
                .build(),
            Err(FabricError::InvalidParameter { name: "t_move" })
        ));
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, k) in OneQubitKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = OneQubitKind::ALL.iter().map(|k| k.mnemonic()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
