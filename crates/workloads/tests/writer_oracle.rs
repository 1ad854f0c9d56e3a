//! Byte identity of the canonical circuit writer (`parser::write`) against
//! the `fmt`-based writer it replaced, kept here as the oracle. The
//! canonical text is the session's cache key and part of every snapshot,
//! so not one byte may move: random circuits over every gate variant
//! (multi-controlled gates with up to 12 controls, ids up to the top of
//! the `u32` range, `.name` headers) and every named workload family must
//! render identically, round-trip through `parse`, and fill their buffer
//! exactly.

use leqa_circuit::parser::{parse, write};
use leqa_circuit::{Circuit, Gate, OneQubitKind, QubitId};
use leqa_workloads::{circuit_by_name, SUITE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The writer as it stood before exact sizing: `fmt` per gate.
fn oracle_write(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(name) = circuit.name() {
        let _ = writeln!(out, ".name {name}");
    }
    let _ = writeln!(out, ".qubits {}", circuit.num_qubits());
    for gate in circuit.gates() {
        match gate {
            Gate::OneQubit { kind, target } => {
                let mnemonic = match kind {
                    OneQubitKind::Tdg => "tdg",
                    OneQubitKind::Sdg => "sdg",
                    k => {
                        let _ = writeln!(out, "{} {}", k.mnemonic().to_ascii_lowercase(), target.0);
                        continue;
                    }
                };
                let _ = writeln!(out, "{mnemonic} {}", target.0);
            }
            Gate::Cnot { control, target } => {
                let _ = writeln!(out, "cnot {} {}", control.0, target.0);
            }
            Gate::Toffoli { c1, c2, target } => {
                let _ = writeln!(out, "toffoli {} {} {}", c1.0, c2.0, target.0);
            }
            Gate::Fredkin { control, a, b } => {
                let _ = writeln!(out, "fredkin {} {} {}", control.0, a.0, b.0);
            }
            Gate::Mct { controls, target } => {
                let list: Vec<String> = controls.iter().map(|q| q.0.to_string()).collect();
                let _ = writeln!(out, "mct {} {}", list.join(" "), target.0);
            }
            Gate::Mcf { controls, a, b } => {
                let list: Vec<String> = controls.iter().map(|q| q.0.to_string()).collect();
                let _ = writeln!(out, "mcf {} : {} {}", list.join(" "), a.0, b.0);
            }
            other => panic!("the oracle predates gate {other:?}"),
        }
    }
    out
}

fn assert_identical(circuit: &Circuit, what: &str) {
    let text = write(circuit);
    assert!(text == oracle_write(circuit), "{what}: bytes differ");
    assert_eq!(
        text.capacity(),
        text.len(),
        "{what}: text not sized exactly"
    );
}

/// `n` distinct wires below `qubits`, drawn mostly from the bottom and
/// the top of the range so short and ten-digit ids both appear.
fn distinct(rng: &mut StdRng, qubits: u32, n: usize) -> Vec<QubitId> {
    let mut picked: Vec<QubitId> = Vec::with_capacity(n);
    while picked.len() < n {
        let id = match rng.gen_range(0..3) {
            0 => rng.gen_range(0..qubits.min(16)),
            1 => qubits - 1 - rng.gen_range(0..qubits.min(16)),
            _ => rng.gen_range(0..qubits),
        };
        if !picked.contains(&QubitId(id)) {
            picked.push(QubitId(id));
        }
    }
    picked
}

fn random_gate(rng: &mut StdRng, qubits: u32) -> Gate {
    match rng.gen_range(0..6) {
        0 => {
            let kind = OneQubitKind::ALL[rng.gen_range(0..8)];
            Gate::one_qubit(kind, distinct(rng, qubits, 1)[0])
        }
        1 => {
            let q = distinct(rng, qubits, 2);
            Gate::cnot(q[0], q[1]).unwrap()
        }
        2 => {
            let q = distinct(rng, qubits, 3);
            Gate::toffoli(q[0], q[1], q[2]).unwrap()
        }
        3 => {
            let q = distinct(rng, qubits, 3);
            Gate::fredkin(q[0], q[1], q[2]).unwrap()
        }
        4 => {
            let controls = rng.gen_range(3..=12);
            let mut q = distinct(rng, qubits, controls + 1);
            let target = q.pop().unwrap();
            let gate = Gate::mct(q, target).unwrap();
            assert!(matches!(gate, Gate::Mct { .. }));
            gate
        }
        _ => {
            let controls = rng.gen_range(2..=12);
            let mut q = distinct(rng, qubits, controls + 2);
            let b = q.pop().unwrap();
            let a = q.pop().unwrap();
            let gate = Gate::mcf(q, a, b).unwrap();
            assert!(matches!(gate, Gate::Mcf { .. }));
            gate
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn writer_matches_the_fmt_oracle(
        seed in 0u64..u64::MAX,
        width in 0u32..3,
        gates in 0usize..80,
        named in 0u32..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qubits = match width {
            0 => rng.gen_range(14..=64),
            1 => rng.gen_range(14..=u32::MAX),
            _ => u32::MAX,
        };
        let mut circuit = Circuit::new(qubits);
        match named {
            0 => {}
            1 => circuit.set_name(""),
            _ => circuit.set_name(format!("prog {} v{}", rng.gen_range(0..1000u32), seed % 7)),
        }
        for _ in 0..gates {
            circuit.push(random_gate(&mut rng, qubits)).unwrap();
        }
        assert_identical(&circuit, "random circuit");
        prop_assert_eq!(parse(&write(&circuit)).unwrap(), circuit);
    }
}

#[test]
fn every_named_workload_renders_identically() {
    let mut names: Vec<String> = SUITE.iter().map(|b| b.name.to_string()).collect();
    names.extend(
        [
            "qft_8",
            "qft_64",
            "qft_32_4",
            "shor_64",
            "random_16_2000",
            "random_24_256_3",
            "random_64_5000_11",
        ]
        .map(String::from),
    );
    for name in &names {
        let circuit = circuit_by_name(name).unwrap_or_else(|| panic!("`{name}` resolves"));
        assert_identical(&circuit, name);
    }
}
