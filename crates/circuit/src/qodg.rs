//! The quantum operation dependency graph (QODG, §2 and Fig. 2b).
//!
//! Nodes are FT operations plus synthetic `start`/`end` nodes; edges capture
//! data dependencies between consecutive operations on the same wire. Two
//! parallel edges between the same node pair (a CNOT followed immediately by
//! another CNOT on the same two qubits) are merged, and fan-out is impossible
//! by construction (no-cloning).
//!
//! The QODG is a DAG whose node order is already topological (ops are added
//! in program order), which makes the longest-path (critical path)
//! computation a single linear sweep — the `O(|V| + |E|)` step of the
//! paper's Algorithm 1, line 19.
//!
//! # Representation
//!
//! Predecessor lists live in compressed sparse row (CSR) form: a flat
//! `pred_edges` arena indexed by a `pred_offsets` table, appended to in one
//! pass during construction — no per-node `Vec` allocations. The
//! critical-path sweep can likewise reuse a caller-owned
//! [`CriticalPathScratch`] so repeated passes (fabric sweeps) allocate
//! nothing but the result path.

use leqa_fabric::Micros;

use crate::{FtCircuit, FtOp, QubitId};

/// Index of a node in a [`Qodg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Payload of a QODG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QodgNode {
    /// The synthetic source node feeding every first-level op.
    Start,
    /// The synthetic sink node fed by every last-level op.
    End,
    /// An FT operation.
    Op(FtOp),
}

/// The quantum operation dependency graph.
///
/// # Examples
///
/// ```
/// use leqa_circuit::{FtCircuit, FtOp, OneQubitKind, Qodg, QubitId};
/// use leqa_fabric::Micros;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(2);
/// ft.push_one_qubit(OneQubitKind::H, QubitId(0))?;
/// ft.push_cnot(QubitId(0), QubitId(1))?;
///
/// let qodg = Qodg::from_ft_circuit(&ft);
/// assert_eq!(qodg.op_count(), 2);
///
/// // Critical path with unit delays: start → H → CNOT → end.
/// let cp = qodg.critical_path(|_| Micros::new(1.0));
/// assert_eq!(cp.length, Micros::new(2.0));
/// assert_eq!(cp.cnot_count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qodg {
    nodes: Vec<QodgNode>,
    /// CSR offsets into `pred_edges`; node `i`'s predecessors are
    /// `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]`. Node order is
    /// topological by construction.
    pred_offsets: Vec<u32>,
    /// Flat predecessor arena, in the order edges were discovered.
    pred_edges: Vec<NodeId>,
    num_qubits: u32,
}

impl Qodg {
    /// Builds the QODG of a lowered circuit (Algorithm 1's input).
    pub fn from_ft_circuit(circuit: &FtCircuit) -> Self {
        Qodg::from_gates(circuit.num_qubits(), circuit.ops().iter().copied())
    }

    /// Builds the QODG from a raw op stream over `num_qubits` wires —
    /// the same graph [`from_ft_circuit`](Self::from_ft_circuit) builds,
    /// without requiring the ops to be materialized in an [`FtCircuit`]
    /// first (generator-backed workloads hand their lowered stream
    /// straight in).
    pub fn from_gates(num_qubits: u32, ops: impl IntoIterator<Item = FtOp>) -> Self {
        let ops = ops.into_iter();
        let n_ops = ops.size_hint().0;
        let mut nodes = Vec::with_capacity(n_ops + 2);
        let mut pred_offsets: Vec<u32> = Vec::with_capacity(n_ops + 3);
        // Each op contributes at most two merged predecessor edges.
        let mut pred_edges: Vec<NodeId> = Vec::with_capacity(2 * n_ops + 2);

        nodes.push(QodgNode::Start);
        pred_offsets.push(0);
        pred_offsets.push(0); // start has no predecessors
        let start = NodeId(0);

        let mut last: Vec<Option<NodeId>> = vec![None; num_qubits as usize];

        for op in ops {
            let id = NodeId(nodes.len());
            nodes.push(QodgNode::Op(op));
            let first = pred_edges.len();
            for q in op.qubits() {
                let pred = last[q.index()].unwrap_or(start);
                // Merge parallel edges (the paper combines duplicate edges).
                if !pred_edges[first..].contains(&pred) {
                    pred_edges.push(pred);
                }
                last[q.index()] = Some(id);
            }
            pred_offsets.push(pred_edges.len() as u32);
        }

        let end = NodeId(nodes.len());
        nodes.push(QodgNode::End);
        let first = pred_edges.len();
        for l in last.iter().flatten() {
            if !pred_edges[first..].contains(l) {
                pred_edges.push(*l);
            }
        }
        if pred_edges.len() == first {
            // Empty program: keep start connected to end so the graph stays
            // a single component.
            pred_edges.push(start);
        }
        pred_offsets.push(pred_edges.len() as u32);
        debug_assert_eq!(end.0 + 1, nodes.len());
        debug_assert_eq!(pred_offsets.len(), nodes.len() + 1);

        Qodg {
            nodes,
            pred_offsets,
            pred_edges,
            num_qubits,
        }
    }

    /// Total node count `|V|`, including `start` and `end`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of operation nodes (excludes `start`/`end`).
    #[inline]
    pub fn op_count(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Total edge count `|E|` after duplicate-edge merging.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.pred_edges.len()
    }

    /// The number of logical qubits the underlying circuit uses (`Q`).
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The start node.
    #[inline]
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The end node.
    #[inline]
    pub fn end(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// The payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> QodgNode {
        self.nodes[id.0]
    }

    /// Predecessors of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let lo = self.pred_offsets[id.0] as usize;
        let hi = self.pred_offsets[id.0 + 1] as usize;
        &self.pred_edges[lo..hi]
    }

    /// Iterates over operation nodes in topological (program) order.
    pub fn op_nodes(&self) -> impl Iterator<Item = (NodeId, FtOp)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            QodgNode::Op(op) => Some((NodeId(i), *op)),
            _ => None,
        })
    }

    /// Longest path from `start` to `end` where each node costs
    /// `delay(node)` (`start`/`end` are free). Returns the path length and
    /// the op-type census along the path — the `N^critical` values of Eq. 1.
    ///
    /// Runs in `O(|V| + |E|)` (supplemental, line 19).
    pub fn critical_path(&self, delay: impl Fn(&QodgNode) -> Micros) -> CriticalPath {
        self.critical_path_reuse(delay, &mut CriticalPathScratch::new())
    }

    /// Like [`critical_path`](Self::critical_path), reusing caller-owned
    /// scratch buffers so repeated passes (one per fabric candidate in a
    /// sweep) allocate nothing but the returned path.
    pub fn critical_path_reuse(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
    ) -> CriticalPath {
        let n = self.nodes.len();
        scratch.dist.clear();
        scratch.dist.resize(n, Micros::ZERO);
        scratch.argmax.clear();
        scratch.argmax.resize(n, None);
        let dist = &mut scratch.dist;
        let argmax = &mut scratch.argmax;

        for i in 0..n {
            let node = &self.nodes[i];
            let mut best = Micros::ZERO;
            let mut best_pred = None;
            for &p in self.preds(NodeId(i)) {
                if best_pred.is_none() || dist[p.0] > best {
                    best = dist[p.0];
                    best_pred = Some(p);
                }
            }
            let own = match node {
                QodgNode::Start | QodgNode::End => Micros::ZERO,
                QodgNode::Op(_) => delay(node),
            };
            dist[i] = best + own;
            argmax[i] = best_pred;
        }

        // Walk back from `end`, collecting the census.
        let mut cnot_count = 0u64;
        let mut one_qubit_counts = [0u64; 8];
        let mut path = Vec::new();
        let mut cur = Some(self.end());
        while let Some(id) = cur {
            path.push(id);
            if let QodgNode::Op(op) = self.nodes[id.0] {
                match op {
                    FtOp::Cnot { .. } => cnot_count += 1,
                    FtOp::OneQubit { kind, .. } => one_qubit_counts[kind.index()] += 1,
                }
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

    /// The set of wires an op node touches (empty for `start`/`end`).
    pub fn node_qubits(&self, id: NodeId) -> Vec<QubitId> {
        match self.nodes[id.0] {
            QodgNode::Op(op) => op.qubits().collect(),
            _ => Vec::new(),
        }
    }
}

/// Reusable buffers for [`Qodg::critical_path_reuse`]. One instance can
/// serve any number of passes over any number of graphs.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    dist: Vec<Micros>,
    argmax: Vec<Option<NodeId>>,
}

impl CriticalPathScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        CriticalPathScratch::default()
    }
}

/// Result of a critical-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Length of the longest path (sum of node delays along it).
    pub length: Micros,
    /// `N_CNOT^critical`: CNOT nodes on the path.
    pub cnot_count: u64,
    /// `N_g^critical` per one-qubit kind, indexed by
    /// [`OneQubitKind::index`](leqa_fabric::OneQubitKind::index).
    pub one_qubit_counts: [u64; 8],
    /// The path itself, `start` to `end`.
    pub path: Vec<NodeId>,
}

impl CriticalPath {
    /// Total op nodes on the path.
    pub fn op_count(&self) -> u64 {
        self.cnot_count + self.one_qubit_counts.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// A two-wire circuit: H(0); CNOT(0,1); T(1)  — serial chain.
    fn chain() -> FtCircuit {
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::T, q(1)).unwrap();
        ft
    }

    #[test]
    fn node_and_edge_counts() {
        let qodg = Qodg::from_ft_circuit(&chain());
        // start + 3 ops + end
        assert_eq!(qodg.node_count(), 5);
        assert_eq!(qodg.op_count(), 3);
        // start→H, start→CNOT (wire 1 first touch), H→CNOT, CNOT→T,
        // T→end, CNOT? wire0's last op is CNOT → end. Total 6.
        assert_eq!(qodg.edge_count(), 6);
    }

    #[test]
    fn parallel_edges_are_merged() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        // Second CNOT has both operands coming from the first: one merged
        // edge, not two.
        assert_eq!(qodg.preds(NodeId(2)), &[NodeId(1)]);
        // start→c1 (x2 operands merged? No: both wires' first touch is c1 →
        // two candidate edges start→c1, merged to one).
        assert_eq!(qodg.preds(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn critical_path_counts_types() {
        let qodg = Qodg::from_ft_circuit(&chain());
        let cp = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(cp.length, Micros::new(3.0));
        assert_eq!(cp.cnot_count, 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::H.index()], 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::T.index()], 1);
        assert_eq!(cp.op_count(), 3);
        assert_eq!(cp.path.len(), 5); // start, 3 ops, end
        assert_eq!(cp.path[0], qodg.start());
        assert_eq!(*cp.path.last().unwrap(), qodg.end());
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        // Two independent wires: wire0 has one slow op, wire1 has two fast
        // ops. Delay(T)=10 makes wire0 critical.
        let mut ft = FtCircuit::new(2);
        ft.push_one_qubit(OneQubitKind::T, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let cp = qodg.critical_path(|n| match n {
            QodgNode::Op(FtOp::OneQubit {
                kind: OneQubitKind::T,
                ..
            }) => Micros::new(10.0),
            _ => Micros::new(1.0),
        });
        assert_eq!(cp.length, Micros::new(10.0));
        assert_eq!(cp.one_qubit_counts[OneQubitKind::T.index()], 1);
        assert_eq!(cp.one_qubit_counts[OneQubitKind::H.index()], 0);
    }

    #[test]
    fn delays_can_flip_the_critical_path() {
        // The paper's motivation for line 19: routing latency added to CNOTs
        // may re-route the critical path.
        let mut ft = FtCircuit::new(4);
        // Branch A: 3 one-qubit ops on wire 0.
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        // Branch B: 2 CNOTs on wires 2,3.
        ft.push_cnot(q(2), q(3)).unwrap();
        ft.push_cnot(q(3), q(2)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);

        // Without routing latency, branch A (3) beats branch B (2).
        let no_routing = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(no_routing.length, Micros::new(3.0));
        assert_eq!(no_routing.cnot_count, 0);

        // Adding routing latency to CNOTs flips it: 2*(1+1) > 3.
        let with_routing = qodg.critical_path(|n| match n {
            QodgNode::Op(FtOp::Cnot { .. }) => Micros::new(2.0),
            _ => Micros::new(1.0),
        });
        assert_eq!(with_routing.length, Micros::new(4.0));
        assert_eq!(with_routing.cnot_count, 2);
    }

    #[test]
    fn empty_circuit_has_start_end_edge() {
        let ft = FtCircuit::new(3);
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.node_count(), 2);
        assert_eq!(qodg.edge_count(), 1);
        let cp = qodg.critical_path(|_| Micros::new(1.0));
        assert_eq!(cp.length, Micros::ZERO);
    }

    #[test]
    fn op_nodes_iterate_in_program_order() {
        let qodg = Qodg::from_ft_circuit(&chain());
        let kinds: Vec<FtOp> = qodg.op_nodes().map(|(_, op)| op).collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(kinds[1], FtOp::Cnot { .. }));
    }

    #[test]
    fn preds_are_topologically_earlier() {
        let qodg = Qodg::from_ft_circuit(&chain());
        for i in 0..qodg.node_count() {
            for p in qodg.preds(NodeId(i)) {
                assert!(p.0 < i, "edges must point forward");
            }
        }
    }

    #[test]
    fn from_gates_matches_from_ft_circuit() {
        for ft in [chain(), FtCircuit::new(2), {
            let mut ft = FtCircuit::new(2);
            ft.push_cnot(q(0), q(1)).unwrap();
            ft.push_cnot(q(0), q(1)).unwrap();
            ft
        }] {
            let materialized = Qodg::from_ft_circuit(&ft);
            let streamed = Qodg::from_gates(ft.num_qubits(), ft.ops().iter().copied());
            assert_eq!(materialized, streamed);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = CriticalPathScratch::new();
        // Reuse the same scratch across two different graphs and delay
        // functions; results must match the allocating entry point.
        for ft in [chain(), FtCircuit::new(2)] {
            let qodg = Qodg::from_ft_circuit(&ft);
            for unit in [1.0, 2.5] {
                let fresh = qodg.critical_path(|_| Micros::new(unit));
                let reused = qodg.critical_path_reuse(|_| Micros::new(unit), &mut scratch);
                assert_eq!(fresh, reused);
            }
        }
    }
}

impl Qodg {
    /// Logical depth: the number of op nodes on the longest unit-delay
    /// path — the circuit's level count under unbounded parallelism.
    pub fn depth(&self) -> u64 {
        self.critical_path(|_| Micros::new(1.0)).op_count()
    }

    /// Average op-level parallelism: `op_count / depth` (1.0 for a fully
    /// serial program; 0.0 for an empty one).
    pub fn average_parallelism(&self) -> f64 {
        let depth = self.depth();
        if depth == 0 {
            0.0
        } else {
            self.op_count() as f64 / depth as f64
        }
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use crate::FtCircuit;
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn serial_chain_has_depth_equal_to_ops() {
        let mut ft = FtCircuit::new(1);
        for _ in 0..7 {
            ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 7);
        assert!((qodg.average_parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_wires_have_depth_one() {
        let mut ft = FtCircuit::new(5);
        for i in 0..5 {
            ft.push_one_qubit(OneQubitKind::T, q(i)).unwrap();
        }
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 1);
        assert!((qodg.average_parallelism() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_program_has_zero_depth() {
        let qodg = Qodg::from_ft_circuit(&FtCircuit::new(2));
        assert_eq!(qodg.depth(), 0);
        assert_eq!(qodg.average_parallelism(), 0.0);
    }

    #[test]
    fn cnots_join_wires_into_one_level_chain() {
        let mut ft = FtCircuit::new(2);
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(1), q(0)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_eq!(qodg.depth(), 2);
    }
}
