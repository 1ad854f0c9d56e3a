//! Property tests for the greedy list scheduler.
//!
//! Whatever the circuit, the mapper must produce a *legal* schedule:
//! every QODG dependency edge respected (no op starts before its
//! predecessors finish) and every operation executed exactly once — both
//! at Table 1 parameters and with channel capacity squeezed to 1, where
//! the channel calendars queue the most.

use std::collections::HashMap;

use leqa_circuit::decompose::lower_to_ft;
use leqa_circuit::{NodeId, Qodg, QodgNode};
use leqa_fabric::{FabricDims, PhysicalParams};
use proptest::prelude::*;
use qspr::Mapper;

/// Lowers a seeded random workload to its QODG.
fn random_qodg(qubits: u32, gates: u32, seed: u32) -> Qodg {
    let name = format!("random_{qubits}_{gates}_{seed}");
    let circuit = leqa_workloads::circuit_by_name(&name).expect("random workload");
    let ft = lower_to_ft(&circuit).expect("lowerable");
    Qodg::from_ft_circuit(&ft)
}

/// Asserts the trace is a legal schedule of `qodg`: one record per op
/// node, and no op starts before every predecessor op has finished.
fn assert_schedule_legal(qodg: &Qodg, trace: &qspr::Trace) {
    let mut by_node: HashMap<NodeId, (f64, f64)> = HashMap::new();
    for r in trace.records() {
        let clash = by_node.insert(r.node, (r.start.as_f64(), r.end.as_f64()));
        assert!(clash.is_none(), "node {:?} executed twice", r.node);
    }
    assert_eq!(
        by_node.len(),
        qodg.op_count(),
        "every op executes exactly once"
    );
    for i in 0..qodg.node_count() {
        let id = NodeId(i);
        if !matches!(qodg.node(id), QodgNode::Op(_)) {
            continue;
        }
        let (start, _) = by_node[&id];
        for &pred in qodg.preds(id) {
            if !matches!(qodg.node(pred), QodgNode::Op(_)) {
                continue;
            }
            let (_, pred_end) = by_node[&pred];
            assert!(
                start >= pred_end - 1e-9,
                "dependency violated: node {:?} starts at {start} before \
                 predecessor {:?} ends at {pred_end}",
                id,
                pred
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every schedule the greedy engine emits respects every QODG
    /// dependency edge and executes each op exactly once.
    #[test]
    fn greedy_respects_every_dependency_edge(
        qubits in 3u32..12,
        gates in 1u32..40,
        seed in 0u32..100,
    ) {
        let qodg = random_qodg(qubits, gates, seed);
        let mapper = Mapper::new(FabricDims::new(8, 8).unwrap(), PhysicalParams::dac13());
        let (_, trace) = mapper.map_with_trace(&qodg).unwrap();
        assert_schedule_legal(&qodg, &trace);
    }

    /// Dependencies hold even when channel capacity is squeezed to 1 —
    /// queueing at saturated channels delays ops but never reorders a
    /// dependency.
    #[test]
    fn greedy_stays_legal_under_capacity_1(
        qubits in 3u32..10,
        gates in 1u32..30,
        seed in 0u32..50,
    ) {
        let qodg = random_qodg(qubits, gates, seed);
        let params = PhysicalParams::dac13()
            .to_builder()
            .channel_capacity(1)
            .build()
            .unwrap();
        let mapper = Mapper::new(FabricDims::new(6, 6).unwrap(), params);
        let (result, trace) = mapper.map_with_trace(&qodg).unwrap();
        assert_schedule_legal(&qodg, &trace);
        prop_assert!(result.latency.as_f64().is_finite());
    }
}
