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
//! A [`Qodg`] is a view over the lowered op list, 12 bytes per op: node
//! `i + 1` is op `i`, `start` is node 0 and `end` is node `n + 1`. An op's
//! predecessors are the last earlier ops on its wires, so passes keep
//! per-wire state instead of edge arrays. One critical-path kernel keeps
//! each wire's distance and last node, plus a 4-byte argmax per op on a
//! QODG, walked back to name the path's nodes
//! ([`Qodg::critical_path_reuse`]) or only to count its census
//! ([`Qodg::critical_census`]); with the argmax off it walks an op stream
//! ([`stream_critical_path`]).
//! [`Qodg::for_each_edge`] derives the edges the same way.
//!
//! [`Qodg::preds`] and [`Qodg::edge_count`] build a compressed sparse row
//! (CSR) predecessor table on first call and keep it; no estimate, sweep
//! or mapping pass calls them.

use std::sync::OnceLock;

use leqa_fabric::Micros;

use crate::{CircuitError, FtCircuit, FtOp};

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
/// let qodg = Qodg::from(ft);
/// assert_eq!(qodg.op_count(), 2);
///
/// // Critical path with unit delays: start → H → CNOT → end.
/// let cp = qodg.critical_path(|_| Micros::new(1.0));
/// assert_eq!(cp.length, Micros::new(2.0));
/// assert_eq!(cp.cnot_count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qodg {
    circuit: FtCircuit,
    /// The predecessor CSR, built on first use: node `i`'s predecessors
    /// are `edges[offsets[i]..offsets[i + 1]]` of `(offsets, edges)`.
    preds: OnceLock<(Vec<u32>, Vec<NodeId>)>,
}

impl PartialEq for Qodg {
    /// Equal op lists, whether or not either side built its CSR.
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits() == other.num_qubits() && self.circuit.ops() == other.circuit.ops()
    }
}

impl Eq for Qodg {}

impl From<FtCircuit> for Qodg {
    /// Takes over the lowered circuit's op list without copying it.
    ///
    /// # Panics
    ///
    /// Panics if node ids do not fit `u32` (over four billion ops).
    fn from(circuit: FtCircuit) -> Self {
        let ops = circuit.ops().len();
        assert!(
            u32::try_from(ops + 2).is_ok(),
            "a {ops}-op QODG has node ids beyond u32"
        );
        Qodg {
            circuit,
            preds: OnceLock::new(),
        }
    }
}

impl Qodg {
    /// Builds the QODG of a lowered circuit (Algorithm 1's input) over a
    /// copy of its op list; [`Qodg::from`] takes the list over instead.
    pub fn from_ft_circuit(circuit: &FtCircuit) -> Self {
        Qodg::from(circuit.clone())
    }

    /// Total node count `|V|`, including `start` and `end`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.circuit.ops().len() + 2
    }

    /// Number of operation nodes (excludes `start`/`end`).
    #[inline]
    pub fn op_count(&self) -> usize {
        self.circuit.ops().len()
    }

    /// Total edge count `|E|` after duplicate-edge merging. Builds the
    /// predecessor CSR on first call.
    pub fn edge_count(&self) -> usize {
        self.pred_csr().1.len()
    }

    /// The number of logical qubits the underlying circuit uses (`Q`).
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.circuit.num_qubits()
    }

    /// The lowered circuit: node `i + 1` is its op `i`.
    #[inline]
    pub fn circuit(&self) -> &FtCircuit {
        &self.circuit
    }

    /// The start node.
    #[inline]
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The end node.
    #[inline]
    pub fn end(&self) -> NodeId {
        NodeId(self.circuit.ops().len() + 1)
    }

    /// The payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> QodgNode {
        match id.0 {
            0 => QodgNode::Start,
            i if i == self.circuit.ops().len() + 1 => QodgNode::End,
            i => QodgNode::Op(self.circuit.ops()[i - 1]),
        }
    }

    /// Predecessors of a node. Builds the predecessor CSR on first call;
    /// passes over the whole graph use
    /// [`for_each_edge`](Self::for_each_edge) instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let (offsets, edges) = self.pred_csr();
        &edges[offsets[id.0] as usize..offsets[id.0 + 1] as usize]
    }

    fn pred_csr(&self) -> &(Vec<u32>, Vec<NodeId>) {
        self.preds.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.node_count() + 1);
            let mut edges = Vec::with_capacity(2 * self.circuit.ops().len() + 1);
            offsets.push(0);
            self.for_each_edge(|pred, node| {
                while offsets.len() <= node.0 {
                    offsets.push(edges.len() as u32);
                }
                edges.push(pred);
            });
            offsets.push(edges.len() as u32);
            (offsets, edges)
        })
    }

    /// Calls `edge(pred, node)` once per edge, grouped by `node` in
    /// ascending order and, within a node, in [`preds`](Self::preds)
    /// order: operand order at an op, wire-index order at `end`. Derived
    /// from per-wire last pointers in `O(Q)` memory; an empty program has
    /// the single edge `start → end`.
    pub fn for_each_edge(&self, mut edge: impl FnMut(NodeId, NodeId)) {
        // The last node on each wire; 0 (start) while untouched.
        let mut last = vec![0u32; self.num_qubits() as usize];
        for (i, op) in self.circuit.ops().iter().enumerate() {
            let node = i as u32 + 1;
            let mut previous = None;
            for q in op.qubits() {
                let pred = std::mem::replace(&mut last[q.index()], node);
                // Merge parallel edges: both operands left the same node.
                if previous != Some(pred) {
                    edge(NodeId(pred as usize), NodeId(node as usize));
                }
                previous = Some(pred);
            }
        }
        for wire in 0..last.len() {
            let pred = last[wire];
            if pred != 0 {
                edge(NodeId(pred as usize), self.end());
                // A CNOT last on both its wires feeds `end` once.
                for q in self.circuit.ops()[pred as usize - 1].qubits() {
                    if last[q.index()] == pred {
                        last[q.index()] = 0;
                    }
                }
            }
        }
        if self.circuit.ops().is_empty() {
            edge(self.start(), self.end());
        }
    }

    /// Iterates over operation nodes in topological (program) order.
    pub fn op_nodes(&self) -> impl Iterator<Item = (NodeId, FtOp)> + '_ {
        (1..).map(NodeId).zip(self.circuit.ops().iter().copied())
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
    /// scratch buffers so repeated passes allocate nothing but the
    /// returned path. The scratch holds 24 bytes per wire and a 4-byte
    /// argmax per op.
    pub fn critical_path_reuse(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
    ) -> CriticalPath {
        let mut path = vec![self.end()];
        let mut cp = self.argmax_walk(delay, scratch, |node| path.push(node));
        path.push(self.start());
        path.reverse();
        cp.path = path;
        cp
    }

    /// Like [`critical_path_reuse`](Self::critical_path_reuse), naming no
    /// nodes: the same walk counts the census on its way back and returns
    /// an empty `path`, so it allocates nothing once `scratch` is sized.
    pub fn critical_census(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
    ) -> CriticalPath {
        self.argmax_walk(delay, scratch, |_| {})
    }

    /// The argmax kernel behind both critical-path passes: `visit` sees
    /// each op node of the path, from last to first.
    fn argmax_walk(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
        mut visit: impl FnMut(NodeId),
    ) -> CriticalPath {
        let CriticalPathScratch { wires, argmax } = scratch;
        argmax.clear();
        argmax.reserve_exact(self.circuit.ops().len());
        // A tag is a node id; each op records its argmax.
        let step = |_: &FtOp, best: u32| {
            argmax.push(best);
            argmax.len() as u32
        };
        let ops = self.circuit.ops().iter().copied();
        let (length, mut cur) = walk(
            self.num_qubits(),
            ops,
            |op| delay(&QodgNode::Op(*op)),
            step,
            wires,
        )
        .expect("a QODG's ops come from a validated FtCircuit");

        let mut census = Census::default();
        while cur != 0 {
            let op = cur as usize - 1;
            visit(NodeId(cur as usize));
            census = counted(census, &self.circuit.ops()[op]);
            cur = argmax[op];
        }
        path_of(length, census, Vec::new())
    }
}

/// The critical path of an op stream over `num_qubits` wires in `O(Q)`
/// memory: [`Qodg::critical_path_reuse`]'s kernel with the argmax off,
/// each wire carrying its path's census instead. Length and census are
/// bit-identical to the QODG's; `path` is empty.
///
/// # Errors
///
/// [`CircuitError::QubitOutOfRange`] for an operand at or beyond
/// `num_qubits` and [`CircuitError::DuplicateOperand`] for a CNOT on one
/// wire, at the first offending op.
pub fn stream_critical_path(
    num_qubits: u32,
    ops: impl IntoIterator<Item = FtOp>,
    delay: impl Fn(&FtOp) -> Micros,
) -> Result<CriticalPath, CircuitError> {
    let step = |op: &FtOp, best: Census| counted(best, op);
    let (length, census) = walk(num_qubits, ops, delay, step, &mut Vec::new())?;
    Ok(path_of(length, census, Vec::new()))
}

/// The `N^critical` counters of Eq. 1 along one path: CNOTs, and one-qubit
/// ops per kind.
type Census = (u64, [u64; 8]);

fn counted(mut census: Census, op: &FtOp) -> Census {
    match op {
        FtOp::Cnot { .. } => census.0 += 1,
        FtOp::OneQubit { kind, .. } => census.1[kind.index()] += 1,
    }
    census
}

fn path_of(
    length: Micros,
    (cnot_count, one_qubit_counts): Census,
    path: Vec<NodeId>,
) -> CriticalPath {
    CriticalPath {
        length,
        cnot_count,
        one_qubit_counts,
        path,
    }
}

/// The one critical-path kernel: the longest `start → end` path over `ops`.
/// Each wire holds the distance and tag of the best path ending at its
/// last op (`None` while untouched: `start`, with the default tag); `step`
/// tags an op from its best candidate's tag. Ties go as in the QODG walk:
/// candidates come in operand order at an op and in wire-index order at
/// `end`, and only a strictly greater distance replaces the first one.
/// Returns the length and the tag `end` selected.
fn walk<T: Copy + Default>(
    num_qubits: u32,
    ops: impl IntoIterator<Item = FtOp>,
    delay: impl Fn(&FtOp) -> Micros,
    mut step: impl FnMut(&FtOp, T) -> T,
    wires: &mut Vec<Option<(Micros, T)>>,
) -> Result<(Micros, T), CircuitError> {
    wires.clear();
    wires.resize(num_qubits as usize, None);
    for op in ops {
        let mut best: Option<(Micros, T)> = None;
        for qubit in op.qubits() {
            let Some(&state) = wires.get(qubit.index()) else {
                return Err(CircuitError::QubitOutOfRange { qubit, num_qubits });
            };
            let candidate = state.unwrap_or_default();
            if best.is_none_or(|(d, _)| candidate.0 > d) {
                best = Some(candidate);
            }
        }
        if let FtOp::Cnot { control, target } = op {
            if control == target {
                return Err(CircuitError::DuplicateOperand { qubit: control });
            }
        }
        let (dist, tag) = best.expect("every op has an operand");
        let next = Some((dist + delay(&op), step(&op, tag)));
        for qubit in op.qubits() {
            wires[qubit.index()] = next;
        }
    }
    let end = wires.iter().flatten().copied();
    let best = end.reduce(|best, c| if c.0 > best.0 { c } else { best });
    let (dist, tag) = best.unwrap_or_default();
    Ok((dist + Micros::ZERO, tag))
}

/// Reusable buffers for [`Qodg::critical_path_reuse`]: per-wire state and
/// one argmax slot per op. One instance can serve any number of passes
/// over any number of graphs.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    wires: Vec<Option<(Micros, u32)>>,
    argmax: Vec<u32>,
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
    use crate::QubitId;
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
    fn from_takes_the_op_list_and_equality_ignores_the_pred_table() {
        for ft in [chain(), FtCircuit::new(2), {
            let mut ft = FtCircuit::new(2);
            ft.push_cnot(q(0), q(1)).unwrap();
            ft.push_cnot(q(0), q(1)).unwrap();
            ft
        }] {
            let copied = Qodg::from_ft_circuit(&ft);
            let moved = Qodg::from(ft.clone());
            assert_eq!(moved.circuit().ops(), ft.ops());
            // Building one side's CSR leaves the two equal.
            let _ = copied.edge_count();
            assert_eq!(copied, moved);
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
    /// Counts along the op stream ([`stream_critical_path`]) in `O(Q)`
    /// memory, without a node path.
    pub fn depth(&self) -> u64 {
        let ops = self.circuit.ops().iter().copied();
        stream_critical_path(self.num_qubits(), ops, |_| Micros::new(1.0))
            .expect("a QODG's ops come from a validated FtCircuit")
            .op_count()
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
    use crate::{FtCircuit, QubitId};
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
