//! Graphviz (DOT) export of the QODG and IIG, for papers-style figures
//! (Fig. 2b is exactly a rendered QODG) and for debugging circuit
//! structure.

use std::fmt::Write as _;

use crate::{FtOp, Iig, Qodg, QodgNode, QubitId};

/// Renders a QODG as a Graphviz digraph.
///
/// Nodes are labelled like the paper's Fig. 2b: `start`, `end`, and the
/// operation index with its mnemonic. CNOT nodes are boxes, one-qubit ops
/// are ellipses.
///
/// # Examples
///
/// ```
/// use leqa_circuit::{viz, FtCircuit, Qodg, QubitId};
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let mut ft = FtCircuit::new(2);
/// ft.push_cnot(QubitId(0), QubitId(1))?;
/// let dot = viz::qodg_to_dot(&Qodg::from_ft_circuit(&ft));
/// assert!(dot.starts_with("digraph qodg {"));
/// assert!(dot.contains("start"));
/// # Ok(())
/// # }
/// ```
pub fn qodg_to_dot(qodg: &Qodg) -> String {
    let mut out = String::from("digraph qodg {\n  rankdir=LR;\n");
    for i in 0..qodg.node_count() {
        let id = crate::NodeId(i);
        match qodg.node(id) {
            QodgNode::Start => {
                let _ = writeln!(out, "  n{i} [label=\"start\", shape=circle];");
            }
            QodgNode::End => {
                let _ = writeln!(out, "  n{i} [label=\"end\", shape=circle];");
            }
            QodgNode::Op(FtOp::Cnot { control, target }) => {
                let _ = writeln!(
                    out,
                    "  n{i} [label=\"{i}: CNOT {control},{target}\", shape=box];"
                );
            }
            QodgNode::Op(FtOp::OneQubit { kind, target }) => {
                let _ = writeln!(out, "  n{i} [label=\"{i}: {kind} {target}\"];");
            }
        }
    }
    qodg.for_each_edge(|pred, node| {
        let _ = writeln!(out, "  n{} -> n{};", pred.0, node.0);
    });
    out.push_str("}\n");
    out
}

/// Renders an IIG as a weighted undirected Graphviz graph; isolated
/// qubits are omitted.
///
/// Edge thickness scales with `w(e_ij)` so congested pairs stand out.
pub fn iig_to_dot(iig: &Iig) -> String {
    let mut out = String::from("graph iig {\n  layout=neato;\n");
    let max_w = (0..iig.num_qubits())
        .flat_map(|i| iig.neighbors(QubitId(i)).map(|(_, w)| w))
        .max()
        .unwrap_or(1)
        .max(1);
    for i in 0..iig.num_qubits() {
        let q = QubitId(i);
        if iig.degree(q) > 0 {
            let _ = writeln!(out, "  q{i} [label=\"q{i} (M={})\"];", iig.degree(q));
        }
    }
    for i in 0..iig.num_qubits() {
        let q = QubitId(i);
        for (other, w) in iig.neighbors(q) {
            if other.0 > i {
                let width = 1.0 + 4.0 * w as f64 / max_w as f64;
                let _ = writeln!(
                    out,
                    "  q{i} -- q{} [label=\"{w}\", penwidth={width:.2}];",
                    other.0
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtCircuit;
    use leqa_fabric::OneQubitKind;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn sample() -> FtCircuit {
        let mut ft = FtCircuit::new(3);
        ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(0), q(1)).unwrap();
        ft.push_cnot(q(1), q(2)).unwrap();
        ft
    }

    #[test]
    fn qodg_dot_contains_all_nodes_and_edges() {
        let qodg = Qodg::from_ft_circuit(&sample());
        let dot = qodg_to_dot(&qodg);
        assert!(dot.starts_with("digraph qodg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("start"));
        assert!(dot.contains("end"));
        assert_eq!(dot.matches("shape=box").count(), 3); // 3 CNOTs
        assert_eq!(dot.matches(" -> ").count(), qodg.edge_count());
    }

    #[test]
    fn iig_dot_deduplicates_undirected_edges() {
        let iig = Iig::from_ft_circuit(&sample());
        let dot = iig_to_dot(&iig);
        assert!(dot.starts_with("graph iig {"));
        // 2 distinct edges, each printed once.
        assert_eq!(dot.matches(" -- ").count(), 2);
        // The doubled q0–q1 edge carries weight 2.
        assert!(dot.contains("label=\"2\""));
    }

    #[test]
    fn isolated_qubits_are_omitted_from_iig() {
        let mut ft = FtCircuit::new(3);
        ft.push_cnot(q(0), q(1)).unwrap();
        let iig = Iig::from_ft_circuit(&ft);
        let dot = iig_to_dot(&iig);
        assert!(!dot.contains("q2"));
    }

    #[test]
    fn empty_graphs_render() {
        let ft = FtCircuit::new(1);
        let dot = qodg_to_dot(&Qodg::from_ft_circuit(&ft));
        assert!(dot.contains("start") && dot.contains("end"));
        let dot = iig_to_dot(&Iig::from_ft_circuit(&ft));
        assert!(dot.contains("graph iig"));
    }
}
