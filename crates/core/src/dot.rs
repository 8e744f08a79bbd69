//! Graphviz DOT rendering of violations, mirroring the paper's Figure 5
//! visuals: transactions as boxes listing their operations, dependency
//! types as line styles, uncertain dependencies dashed, restored
//! transactions highlighted.

use crate::interpret::{Certainty, Scenario};
use polysi_history::{History, Op, TxnId};
use polysi_polygraph::{Edge, Label};
use std::collections::HashSet;
use std::fmt::Write as _;

fn node_label(h: &History, t: TxnId) -> String {
    let txn = h.txn(t);
    let mut ops = String::new();
    for (i, op) in txn.ops.iter().enumerate() {
        if i > 0 {
            ops.push_str("\\n");
        }
        match *op {
            Op::Read { key, value } => write!(ops, "R({key},{value})").unwrap(),
            Op::Write { key, value } => write!(ops, "W({key},{value})").unwrap(),
        }
    }
    format!("{}\\n{}", txn.label(), ops)
}

fn edge_attrs(label: Label, certain: bool) -> String {
    let style = match (label, certain) {
        (Label::Rw(_), true) => "dotted",
        (Label::Ww(_), true) => "dashed",
        (_, true) => "solid",
        (_, false) => "dashed",
    };
    let color = if certain { "black" } else { "red" };
    format!("label=\"{label}\", style={style}, color={color}")
}

fn render(h: &History, edges: &[(Edge, Certainty)], highlight: &HashSet<TxnId>) -> String {
    let mut out =
        String::from("digraph violation {\n  node [shape=box, fontname=\"monospace\"];\n");
    let txns: HashSet<TxnId> = edges.iter().flat_map(|(e, _)| [e.from, e.to]).collect();
    let mut txns: Vec<TxnId> = txns.into_iter().collect();
    txns.sort_unstable();
    for t in txns {
        let fill = if highlight.contains(&t) { ", style=filled, fillcolor=palegreen" } else { "" };
        writeln!(out, "  t{} [label=\"{}\"{}];", t.0, node_label(h, t), fill).unwrap();
    }
    for &(e, c) in edges {
        writeln!(
            out,
            "  t{} -> t{} [{}];",
            e.from.0,
            e.to.0,
            edge_attrs(e.label, c == Certainty::Certain)
        )
        .unwrap();
    }
    out.push_str("}\n");
    out
}

/// Render a bare violating cycle.
pub fn cycle_to_dot(h: &History, cycle: &[Edge]) -> String {
    let edges: Vec<(Edge, Certainty)> = cycle.iter().map(|&e| (e, Certainty::Certain)).collect();
    render(h, &edges, &HashSet::new())
}

/// Render an interpreted scenario (recovered stage: tags shown).
pub fn scenario_to_dot(h: &History, s: &Scenario) -> String {
    let highlight: HashSet<TxnId> = s.restored.iter().copied().collect();
    render(h, &s.edges, &highlight)
}

/// Render only the finalized (cause-only) scenario.
pub fn finalized_to_dot(h: &History, s: &Scenario) -> String {
    let edges: Vec<(Edge, Certainty)> =
        s.finalized.iter().map(|&e| (e, Certainty::Certain)).collect();
    let highlight: HashSet<TxnId> = s.restored.iter().copied().collect();
    render(h, &edges, &highlight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, Value};

    #[test]
    fn dot_output_is_wellformed() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(1)).commit();
        b.session();
        b.begin().read(Key(1), Value(1)).commit();
        let h = b.build();
        let cycle = [
            Edge::new(TxnId(0), TxnId(1), Label::Wr(Key(1))),
            Edge::new(TxnId(1), TxnId(0), Label::Rw(Key(1))),
        ];
        let dot = cycle_to_dot(&h, &cycle);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("t0 -> t1"));
        assert!(dot.contains("WR(1)"));
        assert!(dot.contains("T:(0,0)"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn scenario_marks_restored_nodes() {
        use crate::interpret::interpret;
        use polysi_history::Facts;
        use polysi_polygraph::{ConstraintMode::Generalized, Polygraph, Semantics};
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(0), Value(4)).commit();
        b.begin().read(Key(0), Value(4)).write(Key(0), Value(5)).commit();
        b.session();
        b.begin().read(Key(0), Value(4)).write(Key(0), Value(13)).commit();
        let h = b.build();
        let facts = Facts::analyze(&h);
        let cycle = [
            Edge::new(TxnId(1), TxnId(2), Label::Ww(Key(0))),
            Edge::new(TxnId(2), TxnId(1), Label::Rw(Key(0))),
        ];
        let (g, _) = Polygraph::from_history_with(&h, &facts, Generalized, Semantics::Si);
        let s = interpret(&g, &facts, &cycle);
        let dot = scenario_to_dot(&h, &s);
        assert!(dot.contains("palegreen"), "restored node highlighted:\n{dot}");
        let fin = finalized_to_dot(&h, &s);
        assert!(!fin.contains("color=red"), "finalized has no uncertain edges");
    }
}
