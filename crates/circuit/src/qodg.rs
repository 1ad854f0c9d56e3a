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
//! per-wire state instead of edge arrays. One critical-path kernel keeps,
//! as parallel arrays, each wire's distance, a tag for the best path
//! ending there, and whether the wire has an op yet, and updates an op's
//! wires where they lie. To name the path's nodes the tag is the last
//! node and each op records a 4-byte argmax, walked back from `end`
//! ([`Qodg::critical_path_reuse`]). Every other pass tags a wire with its
//! path's census and keeps nothing per op, over the op list
//! ([`Qodg::critical_census`], [`Qodg::depth`]) or an op stream
//! ([`stream_critical_path`]).
//! [`Qodg::for_each_edge`] derives the edges the same way.
//!
//! [`Qodg::preds`] and [`Qodg::edge_count`] build a compressed sparse row
//! (CSR) predecessor table on first call and keep it; no estimate, sweep
//! or mapping pass calls them.

use std::hint::select_unpredictable;
use std::sync::OnceLock;

use leqa_fabric::Micros;

use crate::{CircuitError, FtCircuit, FtOp, QubitId};

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
    /// returned path. The scratch holds 13 bytes per wire and a 4-byte
    /// argmax per op.
    pub fn critical_path_reuse(
        &self,
        delay: impl Fn(&QodgNode) -> Micros,
        scratch: &mut CriticalPathScratch,
    ) -> CriticalPath {
        let CriticalPathScratch { wires, argmax } = scratch;
        argmax.clear();
        argmax.reserve_exact(self.circuit.ops().len());
        // A tag is a node id; each op records its argmax.
        let step = |tag: &mut u32, _: &FtOp| {
            argmax.push(*tag);
            *tag = argmax.len() as u32;
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
        let mut path = vec![self.end()];
        while cur != 0 {
            let op = cur as usize - 1;
            path.push(NodeId(cur as usize));
            count(&mut census, &self.circuit.ops()[op]);
            cur = argmax[op];
        }
        path.push(self.start());
        path.reverse();
        path_of(length, census, path)
    }

    /// Like [`critical_path`](Self::critical_path), naming no nodes: the
    /// pass of [`stream_critical_path`] over the op list, each wire
    /// carrying its path's census. Length and census are bit-identical to
    /// the node path's; `path` is empty. It keeps nothing per op, only
    /// 81 bytes per wire for the length of the pass.
    pub fn critical_census(&self, delay: impl Fn(&QodgNode) -> Micros) -> CriticalPath {
        let ops = self.circuit.ops().iter().copied();
        stream_critical_path(self.num_qubits(), ops, |op| delay(&QodgNode::Op(*op)))
            .expect("a QODG's ops come from a validated FtCircuit")
    }
}

/// The critical path of an op stream over `num_qubits` wires in `O(Q)`
/// memory: [`Qodg::critical_path_reuse`]'s kernel with each wire carrying
/// its path's census instead of a node id, so nothing is kept per op.
/// Length and census are bit-identical to the QODG's; `path` is empty.
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
    let (length, census) = walk(num_qubits, ops, delay, count, &mut Wires::default())?;
    Ok(path_of(length, census, Vec::new()))
}

/// The `N^critical` counters of Eq. 1 along one path: CNOTs, and one-qubit
/// ops per kind.
type Census = (u64, [u64; 8]);

fn count(census: &mut Census, op: &FtOp) {
    match op {
        FtOp::Cnot { .. } => census.0 += 1,
        FtOp::OneQubit { kind, .. } => census.1[kind.index()] += 1,
    }
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

/// The kernel's per-wire state, as parallel arrays: the distance and tag
/// of the best path ending at each wire's last op, and whether the wire
/// has an op yet. An untouched wire reads as `start`: distance 0 and the
/// default tag.
#[derive(Debug, Default)]
struct Wires<T> {
    dist: Vec<Micros>,
    tag: Vec<T>,
    touched: Vec<bool>,
}

/// The one critical-path kernel: the longest `start → end` path over `ops`,
/// updating each op's wires where they lie. `step` advances the winning
/// wire's tag past an op; a CNOT's other wire takes a copy. Ties go as in
/// the QODG walk: a CNOT's control wins unless its target is strictly
/// farther, and `end` takes the first touched wire unless a later touched
/// one is strictly farther. Returns the length and the tag `end` selected.
fn walk<T: Copy + Default>(
    num_qubits: u32,
    ops: impl IntoIterator<Item = FtOp>,
    delay: impl Fn(&FtOp) -> Micros,
    mut step: impl FnMut(&mut T, &FtOp),
    wires: &mut Wires<T>,
) -> Result<(Micros, T), CircuitError> {
    let n = num_qubits as usize;
    let Wires { dist, tag, touched } = wires;
    dist.clear();
    dist.resize(n, Micros::ZERO);
    tag.clear();
    tag.resize(n, T::default());
    touched.clear();
    touched.resize(n, false);
    // Equal lengths let the compiler drop the bounds checks below.
    let (dist, tag, touched) = (&mut dist[..n], &mut tag[..n], &mut touched[..n]);
    let wire = |qubit: QubitId| match qubit.index() {
        w if w < n => Ok(w),
        _ => Err(CircuitError::QubitOutOfRange { qubit, num_qubits }),
    };
    for op in ops {
        match op {
            FtOp::OneQubit { target, .. } => {
                let w = wire(target)?;
                dist[w] += delay(&op);
                step(&mut tag[w], &op);
                touched[w] = true;
            }
            FtOp::Cnot { control, target } => {
                let (c, t) = (wire(control)?, wire(target)?);
                if c == t {
                    return Err(CircuitError::DuplicateOperand { qubit: control });
                }
                // Which operand is farther follows the data, not a pattern
                // a branch predictor could learn.
                let far = dist[t] > dist[c];
                let (win, lose) = (
                    select_unpredictable(far, t, c),
                    select_unpredictable(far, c, t),
                );
                let d = dist[win] + delay(&op);
                step(&mut tag[win], &op);
                tag[lose] = tag[win];
                (dist[c], dist[t]) = (d, d);
                (touched[c], touched[t]) = (true, true);
            }
        }
    }
    let mut end: Option<usize> = None;
    for w in (0..n).filter(|&w| touched[w]) {
        if end.is_none_or(|e| dist[w] > dist[e]) {
            end = Some(w);
        }
    }
    let (length, tag) = end.map_or((Micros::ZERO, T::default()), |w| (dist[w], tag[w]));
    Ok((length + Micros::ZERO, tag))
}

/// Reusable buffers for [`Qodg::critical_path_reuse`]: per-wire state, 13
/// bytes per wire (distance, last node, touched flag), and one 4-byte
/// argmax slot per op. One instance can serve any number of passes over
/// any number of graphs.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    wires: Wires<u32>,
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

    fn h(i: u32) -> FtOp {
        FtOp::OneQubit {
            kind: OneQubitKind::H,
            target: q(i),
        }
    }

    fn cnot(control: u32, target: u32) -> FtOp {
        FtOp::Cnot {
            control: q(control),
            target: q(target),
        }
    }

    #[test]
    fn stream_errors_name_the_first_offending_op() {
        let range = |i| CircuitError::QubitOutOfRange {
            qubit: q(i),
            num_qubits: 3,
        };
        let cases = [
            // Out-of-range control, in-range target.
            (cnot(5, 1), range(5)),
            // In-range control, out-of-range target.
            (cnot(1, 7), range(7)),
            // Both out of range: the control is named.
            (cnot(6, 8), range(6)),
            // Out-of-range self-loop: range comes before the self-loop.
            (cnot(4, 4), range(4)),
            (cnot(2, 2), CircuitError::DuplicateOperand { qubit: q(2) }),
            (h(3), range(3)),
        ];
        for (bad, expected) in cases {
            // Valid ops before, and later offenders of another kind after.
            let ops = [h(0), cnot(0, 1), bad, h(9), cnot(1, 1)];
            let got = stream_critical_path(3, ops, |_| Micros::new(1.0));
            assert_eq!(got, Err(expected), "{bad:?}");
        }
    }

    #[test]
    fn zero_length_paths_end_on_the_first_touched_wire() {
        // Every delay is 0 and wires 0 and 1 stay untouched. The CNOT's
        // control is fresh and its target is not strictly farther, so the
        // control's empty census wins; `end` then starts from wire 2.
        let ops = [h(3), h(3), cnot(2, 3), h(4), h(3)];
        let expected = CriticalPath {
            length: Micros::ZERO,
            cnot_count: 1,
            one_qubit_counts: [0; 8],
            path: Vec::new(),
        };
        let streamed = stream_critical_path(5, ops, |_| Micros::ZERO).unwrap();
        assert_eq!(streamed, expected);

        let mut ft = FtCircuit::new(5);
        for op in ops {
            ft.push(op).unwrap();
        }
        let qodg = Qodg::from(ft);
        let walked = qodg.critical_path(|_| Micros::ZERO);
        assert_eq!(walked.path, [qodg.start(), NodeId(3), qodg.end()]);
        assert_eq!(
            CriticalPath {
                path: vec![],
                ..walked
            },
            expected
        );
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
    /// Counts with the census pass ([`critical_census`](Self::critical_census))
    /// in `O(Q)` memory, without a node path.
    pub fn depth(&self) -> u64 {
        self.critical_census(|_| Micros::new(1.0)).op_count()
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
