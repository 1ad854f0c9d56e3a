//! The critical-path kernel against the graph walk it replaced.
//!
//! The oracle is the walk `Qodg::critical_path_reuse` ran before the QODG
//! became a view over its op list: a distance and an argmax per node,
//! over the predecessor lists that `Qodg::preds` now builds on first
//! call. Those lists are themselves checked against the construction
//! that used to sit in the QODG builder. On random op streams over 1 to
//! 64 wires (mixed, CNOT-only, one-qubit-only and empty) and delays that
//! make ties common (all zero, all equal, a few small values), the kernel
//! must give the oracle's length bits, census and node path with the
//! argmax on, and its length bits and census when it only counts the
//! census or runs with the argmax off.

use leqa_circuit::{
    stream_critical_path, CriticalPath, CriticalPathScratch, FtCircuit, FtOp, NodeId, OneQubitKind,
    Qodg, QodgNode, QubitId,
};
use leqa_fabric::Micros;
use proptest::prelude::*;

/// The pre-view predecessor lists: per-wire last pointers, each op's
/// candidates in operand order with parallel edges merged, then `end`'s
/// in wire-index order (`start` alone for an empty program).
fn oracle_preds(ft: &FtCircuit) -> Vec<Vec<NodeId>> {
    let mut preds = vec![Vec::new()];
    let mut last: Vec<Option<NodeId>> = vec![None; ft.num_qubits() as usize];
    for op in ft.ops() {
        let id = NodeId(preds.len());
        let mut node = Vec::new();
        for q in op.qubits() {
            let pred = last[q.index()].unwrap_or(NodeId(0));
            if !node.contains(&pred) {
                node.push(pred);
            }
            last[q.index()] = Some(id);
        }
        preds.push(node);
    }
    let mut end = Vec::new();
    for l in last.iter().flatten() {
        if !end.contains(l) {
            end.push(*l);
        }
    }
    if end.is_empty() {
        end.push(NodeId(0));
    }
    preds.push(end);
    preds
}

/// The graph walk: the first predecessor wins and a later one replaces it
/// only on a strictly greater distance; the census is read back from
/// `end` along the argmax chain.
fn oracle_walk(qodg: &Qodg, delay: impl Fn(&QodgNode) -> Micros) -> CriticalPath {
    let n = qodg.node_count();
    let mut dist = vec![Micros::ZERO; n];
    let mut argmax: Vec<Option<NodeId>> = vec![None; n];
    for i in 0..n {
        let node = qodg.node(NodeId(i));
        let mut best = Micros::ZERO;
        let mut best_pred = None;
        for &p in qodg.preds(NodeId(i)) {
            if best_pred.is_none() || dist[p.0] > best {
                best = dist[p.0];
                best_pred = Some(p);
            }
        }
        let own = match node {
            QodgNode::Start | QodgNode::End => Micros::ZERO,
            QodgNode::Op(_) => delay(&node),
        };
        dist[i] = best + own;
        argmax[i] = best_pred;
    }

    let mut cnot_count = 0u64;
    let mut one_qubit_counts = [0u64; 8];
    let mut path = Vec::new();
    let mut cur = Some(qodg.end());
    while let Some(id) = cur {
        path.push(id);
        match qodg.node(id) {
            QodgNode::Op(FtOp::Cnot { .. }) => cnot_count += 1,
            QodgNode::Op(FtOp::OneQubit { kind, .. }) => one_qubit_counts[kind.index()] += 1,
            QodgNode::Start | QodgNode::End => {}
        }
        cur = argmax[id.0];
    }
    path.reverse();
    CriticalPath {
        length: dist[n - 1],
        cnot_count,
        one_qubit_counts,
        path,
    }
}

/// SplitMix64: a seeded stream of draws below `n`.
fn draw(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % n
}

/// A random lowered program: `shape` 0 mixes CNOTs and one-qubit ops,
/// 1 is CNOT-only (empty on one wire), 2 is one-qubit-only. Operands
/// come from a small pool when `narrow`, so wires are reused and
/// parallel edges are common.
fn random_program(seed: u64, qubits: u32, ops: u64, shape: u32, narrow: bool) -> FtCircuit {
    let mut state = seed;
    let mut ft = FtCircuit::new(qubits);
    let pool = if narrow { qubits.min(3) } else { qubits };
    for _ in 0..ops {
        let cnot = match shape {
            0 => draw(&mut state, 2) == 0,
            1 => true,
            _ => false,
        };
        let a = draw(&mut state, u64::from(pool)) as u32;
        if cnot {
            if qubits < 2 {
                continue;
            }
            let b = (a + 1 + draw(&mut state, u64::from(qubits - 1)) as u32) % qubits;
            ft.push_cnot(QubitId(a), QubitId(b)).unwrap();
        } else {
            let kind = OneQubitKind::ALL[draw(&mut state, 8) as usize];
            ft.push_one_qubit(kind, QubitId(a)).unwrap();
        }
    }
    ft
}

/// Per-op delays: 0 all zero, 1 all equal, 2 a few small values by kind.
fn delay_of(mode: u32, op: &FtOp) -> Micros {
    match (mode, op) {
        (0, _) => Micros::ZERO,
        (1, _) => Micros::new(1.0),
        (_, FtOp::Cnot { .. }) => Micros::new(2.0),
        (_, FtOp::OneQubit { kind, .. }) => Micros::new((kind.index() % 3) as f64),
    }
}

fn assert_same_length_and_census(kernel: &CriticalPath, oracle: &CriticalPath, label: &str) {
    assert_eq!(
        kernel.length.as_f64().to_bits(),
        oracle.length.as_f64().to_bits(),
        "{label}: length"
    );
    assert_eq!(kernel.cnot_count, oracle.cnot_count, "{label}: CNOTs");
    assert_eq!(
        kernel.one_qubit_counts, oracle.one_qubit_counts,
        "{label}: one-qubit census"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn kernel_matches_the_graph_walk(
        seed in 0u64..u64::MAX,
        qubits in 1u32..=64,
        ops in 0u64..300,
        shape in 0u32..3,
        narrow in 0u32..2,
        mode in 0u32..3,
    ) {
        let ft = random_program(seed, qubits, ops, shape, narrow == 1);
        let label = format!("seed={seed} qubits={qubits} ops={ops} shape={shape} mode={mode}");
        let expected_preds = oracle_preds(&ft);
        let qodg = Qodg::from(ft);

        for (i, preds) in expected_preds.iter().enumerate() {
            prop_assert_eq!(qodg.preds(NodeId(i)), preds.as_slice(), "{}: node {}", label, i);
        }
        prop_assert_eq!(qodg.edge_count(), expected_preds.iter().map(Vec::len).sum::<usize>());

        let delay = |node: &QodgNode| match node {
            QodgNode::Op(op) => delay_of(mode, op),
            _ => Micros::ZERO,
        };
        let oracle = oracle_walk(&qodg, delay);

        // Argmax on, through a scratch that served other programs.
        let mut scratch = CriticalPathScratch::new();
        let _ = Qodg::from(random_program(!seed, 64, 200, 0, false))
            .critical_path_reuse(delay, &mut scratch);
        let with_path = qodg.critical_path_reuse(delay, &mut scratch);
        assert_same_length_and_census(&with_path, &oracle, &label);
        prop_assert_eq!(&with_path.path, &oracle.path, "{}: path", label);

        // Argmax on, census only.
        let census = qodg.critical_census(delay, &mut scratch);
        assert_same_length_and_census(&census, &oracle, &label);
        prop_assert!(census.path.is_empty());

        // Argmax off.
        let streamed = stream_critical_path(
            qodg.num_qubits(),
            qodg.circuit().ops().iter().copied(),
            |op| delay_of(mode, op),
        )
        .unwrap();
        assert_same_length_and_census(&streamed, &oracle, &label);
        prop_assert!(streamed.path.is_empty());
    }
}
