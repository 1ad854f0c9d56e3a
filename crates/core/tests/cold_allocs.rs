//! Allocation gate for the cold path: canonical write, circuit building,
//! lowering and the IIG build must not allocate per gate; a lowered
//! program holds only its op list, a node-path pass adds a 4-byte argmax
//! per op, and a census pass only per-wire state. Allocation counts and
//! live bytes repeat exactly for the same input, so unlike timings they
//! can be asserted.
//!
//! The binary installs [`CountingAlloc`] as its global allocator and holds
//! a single test, so no other test's allocations land in a measurement.

use leqa::meter::CountingAlloc;
use leqa_circuit::decompose::lower_to_ft;
use leqa_circuit::{
    parser, Circuit, CriticalPathScratch, FtCircuit, Gate, Iig, NodeId, Qodg, QodgNode, QubitId,
};
use leqa_fabric::{Micros, OneQubitKind};
use leqa_workloads::circuit_by_name;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.allocations();
    let out = f();
    (out, ALLOC.allocations() - before)
}

/// The allocations of `Iig::from_qodg` on a circuit over `qubits` wires
/// whose CNOT list is one fixed set of pairs played `repeats` times,
/// padded with one-qubit ops to `ops` ops.
fn iig_allocs(qubits: u32, repeats: usize, ops: usize) -> (usize, usize) {
    let mut ft = FtCircuit::new(qubits);
    for _ in 0..repeats {
        for a in 0..qubits.min(40) {
            // Both wire counts are even and `6a + 3` is odd, so `7a + 3`
            // never wraps back onto `a`: no self-loops.
            ft.push_cnot(QubitId(a), QubitId((a * 7 + 3) % qubits))
                .unwrap();
        }
    }
    while ft.ops().len() < ops {
        ft.push_one_qubit(OneQubitKind::H, QubitId(0)).unwrap();
    }
    let qodg = Qodg::from_ft_circuit(&ft);
    let (iig, allocs) = counted(|| Iig::from_qodg(&qodg));
    (allocs, iig.edge_count())
}

#[test]
fn cold_path_allocations_do_not_grow_with_the_gate_count() {
    let circuit = circuit_by_name("gf2^64mult").expect("suite program");

    // Canonical write: measured, then written into one exact buffer.
    let (text, allocs) = counted(|| parser::write(&circuit));
    println!(
        "parser::write gf2^64mult: {allocs} allocations, {} bytes",
        text.len()
    );
    assert!(allocs <= 2, "parser::write made {allocs} allocations");

    // Building through `Circuit::push` allocates only as the gate vector
    // grows: exactly what pushing the same gates into a plain `Vec` does.
    let gates: Vec<Gate> = circuit.gates().to_vec();
    let (_, vec_growth) = counted(|| {
        let mut plain: Vec<Gate> = Vec::new();
        for gate in gates.iter().cloned() {
            plain.push(gate);
        }
        plain
    });
    let (built, push_allocs) = counted(|| {
        let mut built = Circuit::new(circuit.num_qubits());
        for gate in gates.iter().cloned() {
            built.push(gate).expect("operands in range");
        }
        built
    });
    println!(
        "Circuit::push x{}: {push_allocs} allocations (plain Vec growth: {vec_growth})",
        gates.len()
    );
    assert_eq!(built.gates(), circuit.gates());
    assert_eq!(push_allocs, vec_growth, "Circuit::push allocated per gate");

    // The IIG build's allocations are the same whether each interaction
    // happens once or a hundred times, on both kernel layouts: dense (64
    // wires, Q² ≤ 2·ops) and bucketed (5,000 wires).
    for (qubits, ops) in [(64, 4096), (5000, 0)] {
        let (once, edges_once) = iig_allocs(qubits, 1, ops);
        let (many, edges_many) = iig_allocs(qubits, 100, ops);
        println!("Iig::from_qodg over {qubits} wires: {once} allocations for 1x, {many} for 100x");
        assert_eq!(edges_once, edges_many);
        assert_eq!(
            once, many,
            "Iig::from_qodg allocations grew with the CNOT count"
        );
    }
    // Lowering sizes its op list once: the simple-gate list, the name and
    // the op list, however many ops the Toffolis expand to.
    let (ft, allocs) = counted(|| lower_to_ft(&circuit).unwrap());
    println!(
        "lower_to_ft gf2^64mult: {allocs} allocations for {} ops",
        ft.ops().len()
    );
    assert!(allocs <= 3, "lower_to_ft made {allocs} allocations");

    let qodg = Qodg::from_ft_circuit(&ft);
    let (_, allocs) = counted(|| Iig::from_qodg(&qodg));
    println!("Iig::from_qodg gf2^64mult: {allocs} allocations");
    assert!(allocs <= 8, "Iig::from_qodg made {allocs} allocations");
    drop(qodg);

    // Resident bytes: the QODG is its op list, 12 bytes per op.
    let ops = ft.ops().len();
    let wires = ft.num_qubits() as usize;
    let slack = 32 * wires + 1024;
    let before = ALLOC.live_bytes();
    let qodg = Qodg::from_ft_circuit(&ft);
    let held = ALLOC.live_bytes() - before;
    println!(
        "Qodg gf2^64mult: {held} bytes for {ops} ops ({:.1} B/op)",
        held as f64 / ops as f64
    );
    assert!(
        held <= 12 * ops + slack,
        "the QODG holds {held} bytes for {ops} ops"
    );

    // A full pass with the node path: its scratch keeps per-wire state
    // and a 4-byte argmax per op, and nothing else is built on the way.
    let delay = |node: &QodgNode| match node {
        QodgNode::Op(op) if op.is_cnot() => Micros::new(3.0),
        _ => Micros::new(1.0),
    };
    let mut scratch = CriticalPathScratch::new();
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let cp = qodg.critical_path_reuse(delay, &mut scratch);
    let path_bytes = cp.path.capacity() * std::mem::size_of::<NodeId>();
    let kept = ALLOC.live_bytes() - before - path_bytes;
    let peak = ALLOC.peak_bytes() - before;
    println!(
        "critical-path pass gf2^64mult: {kept} scratch bytes ({:.1} B/op), \
         peak {peak} with a {}-node path",
        kept as f64 / ops as f64,
        cp.path.len()
    );
    assert!(
        kept <= 4 * ops + slack,
        "the pass keeps {kept} scratch bytes for {ops} ops"
    );
    assert!(
        peak <= 4 * ops + slack + 3 * path_bytes,
        "the pass peaked at {peak} bytes for {ops} ops"
    );

    // A census pass carries each wire's census where it lies (81 bytes
    // per wire): nothing per op, and nothing left behind.
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let census = qodg.critical_census(delay);
    let kept = ALLOC.live_bytes() - before;
    let peak = ALLOC.peak_bytes() - before;
    println!(
        "census pass gf2^64mult: peak {peak} bytes over {wires} wires ({:.1} B/wire), {kept} kept",
        peak as f64 / wires as f64
    );
    assert_eq!(
        (census.length, census.cnot_count, census.one_qubit_counts),
        (cp.length, cp.cnot_count, cp.one_qubit_counts)
    );
    assert_eq!(kept, 0, "the census pass kept {kept} bytes");
    assert!(
        peak <= 96 * wires + 1024,
        "the census pass peaked at {peak} bytes for {wires} wires and {ops} ops"
    );
}
