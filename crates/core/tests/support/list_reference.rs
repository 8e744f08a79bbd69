//! The PolySI-List check body as it was before list histories went
//! through the engine's Prune → Encode → Solve runner (`check_si_list`,
//! SI only): its own early acyclicity test, its own layered SI encoding
//! and solve (no pruning), and a witness from the `either` resolution
//! only. It has no internal-consistency check. `list_prop.rs` asserts that
//! the shipped checker reaches the same verdict kind on every internally
//! consistent history. Two edits: the maps it iterates are ordered, as
//! the shipped checker's are, where the old body iterated hash maps — the
//! verdict kind never depended on that order, but its witness did, so the
//! count of witnesses that moved now repeats from run to run; and its
//! verdict type, `ListViolation`, lives here, where the shipped checker
//! reports the one `Outcome`.

use polysi_checker::list::{ListHistory, ListOp, ListTxn};
use polysi_checker::Anomaly;
use polysi_history::{Key, TxnId, TxnStatus, Value};
use polysi_polygraph::{ConstraintSet, Edge, KnownGraph, Label, Semantics};
use polysi_solver::{Lit, SolveResult, Solver};
use std::collections::{BTreeMap, HashMap};

/// Why the reference rejected a list history.
#[derive(Debug)]
pub enum ListViolation {
    /// Two observed lists for one key are not prefix-ordered.
    IncompatibleOrders { key: Key },
    /// A read observed a value never appended by a committed transaction.
    PhantomValue { key: Key, value: Value },
    /// Two transactions appended the same value to the same key.
    DuplicateAppend { key: Key, value: Value },
    /// The dependency graph contains a violating cycle.
    Cyclic { cycle: Vec<Edge>, anomaly: Anomaly },
}

/// Check `h` as the old body did. The flag says whether the check reached
/// the solver: constraints over an acyclic known graph.
pub fn reference(h: &ListHistory) -> (Result<(), ListViolation>, bool) {
    // Dense ids, session-major.
    let mut txns: Vec<&ListTxn> = Vec::new();
    let mut so_edges: Vec<(TxnId, TxnId)> = Vec::new();
    for sess in &h.sessions {
        let start = txns.len();
        for (i, t) in sess.iter().enumerate() {
            txns.push(t);
            if i > 0 {
                so_edges.push((TxnId((start + i - 1) as u32), TxnId((start + i) as u32)));
            }
        }
    }
    let n = txns.len();

    // Appender maps (committed appends only).
    let mut appender: HashMap<(Key, Value), TxnId> = HashMap::new();
    for (i, t) in txns.iter().enumerate() {
        if t.status != TxnStatus::Committed {
            continue;
        }
        for op in &t.ops {
            if let ListOp::Append { key, value } = *op {
                if appender.insert((key, value), TxnId(i as u32)).is_some() {
                    return (Err(ListViolation::DuplicateAppend { key, value }), false);
                }
            }
        }
    }

    // Longest observed list per key; verify prefix-compatibility.
    let mut longest: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
    for t in &txns {
        if t.status != TxnStatus::Committed {
            continue;
        }
        for op in &t.ops {
            if let ListOp::Read { key, list } = op {
                let best = longest.entry(*key).or_default();
                let (short, long) = if list.len() <= best.len() {
                    (&list[..], &best[..])
                } else {
                    (&best[..], &list[..])
                };
                if short != &long[..short.len()] {
                    return (Err(ListViolation::IncompatibleOrders { key: *key }), false);
                }
                if list.len() > best.len() {
                    *best = list.clone();
                }
            }
        }
    }

    // Per-key orders. The longest observed list fixes the order of every
    // *observed* value; appends nobody observed necessarily come after the
    // whole observed prefix (lists are append-only, so a value preceding an
    // observed one would have been observed too), but their order *among
    // themselves* is genuinely unknown — it becomes a constraint for the
    // solver, exactly like a register-history version order.
    let mut observed: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    let mut value_pos: HashMap<(Key, Value), usize> = HashMap::new();
    for (key, list) in &longest {
        let mut ws = Vec::with_capacity(list.len());
        for &v in list {
            let Some(&w) = appender.get(&(*key, v)) else {
                return (Err(ListViolation::PhantomValue { key: *key, value: v }), false);
            };
            value_pos.insert((*key, v), ws.len());
            ws.push(w);
        }
        observed.insert(*key, ws);
    }
    let mut unobserved: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    for (&(key, value), &w) in &appender {
        if !value_pos.contains_key(&(key, value)) {
            let slot = unobserved.entry(key).or_default();
            if !slot.contains(&w) {
                slot.push(w);
            }
        }
    }
    for ws in unobserved.values_mut() {
        ws.sort_unstable();
    }

    // Known edges.
    let mut edges: Vec<Edge> = Vec::new();
    for (a, b) in so_edges {
        edges.push(Edge::new(a, b, Label::So));
    }
    for (key, ws) in &observed {
        for w in ws.windows(2) {
            if w[0] != w[1] {
                edges.push(Edge::new(w[0], w[1], Label::Ww(*key)));
            }
        }
        // Every unobserved appender comes after the observed prefix.
        if let Some(&last) = ws.last() {
            for &u in unobserved.get(key).map(Vec::as_slice).unwrap_or(&[]) {
                if u != last {
                    edges.push(Edge::new(last, u, Label::Ww(*key)));
                }
            }
        }
    }
    for (i, t) in txns.iter().enumerate() {
        if t.status != TxnStatus::Committed {
            continue;
        }
        let reader = TxnId(i as u32);
        // Only the first (external) read of each key creates edges; later
        // reads repeat information.
        let mut seen: HashMap<Key, ()> = HashMap::new();
        for op in &t.ops {
            let ListOp::Read { key, list } = op else { continue };
            if seen.insert(*key, ()).is_some() {
                continue;
            }
            let obs = observed.get(key).map(Vec::as_slice).unwrap_or(&[]);
            let unobs = unobserved.get(key).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(&last) = list.last() {
                let pos = value_pos[&(*key, last)];
                let w = obs[pos];
                if w != reader {
                    edges.push(Edge::new(w, reader, Label::Wr(*key)));
                }
                if let Some(&next) = obs.get(pos + 1) {
                    // Overwritten by the next observed append.
                    if next != reader {
                        edges.push(Edge::new(reader, next, Label::Rw(*key)));
                    }
                } else {
                    // Read the full observed prefix: anti-depends on every
                    // unobserved append (their first is unknown).
                    for &u in unobs {
                        if u != reader {
                            edges.push(Edge::new(reader, u, Label::Rw(*key)));
                        }
                    }
                }
            } else if let Some(&first) = obs.first() {
                // Empty read: anti-depends on the first appender.
                if first != reader {
                    edges.push(Edge::new(reader, first, Label::Rw(*key)));
                }
            } else {
                // Empty read with no observed appends at all: every append
                // (necessarily unobserved) overwrote it.
                for &u in unobs {
                    if u != reader {
                        edges.push(Edge::new(reader, u, Label::Rw(*key)));
                    }
                }
            }
        }
    }

    // Constraints: mutual orders of unobserved appenders per key.
    let mut constraints = ConstraintSet::new();
    for (&key, ws) in &unobserved {
        for (i, &t) in ws.iter().enumerate() {
            for &s2 in &ws[i + 1..] {
                constraints.push(
                    key,
                    [Edge::new(t, s2, Label::Ww(key))],
                    [Edge::new(s2, t, Label::Ww(key))],
                );
            }
        }
    }

    if let Some(cycle) = KnownGraph::find_cycle(n, &edges, Semantics::Si) {
        let anomaly = Anomaly::classify(&cycle);
        return (Err(ListViolation::Cyclic { cycle, anomaly }), false);
    }
    if constraints.is_empty() {
        return (Ok(()), false);
    }
    // Residual solving: selector per unobserved pair on the layered graph.
    let mut solver = Solver::with_graph(Semantics::Si.layers() * n);
    for e in &edges {
        let (f, t) = (e.from.0, e.to.0);
        if e.label.is_dep() {
            solver.add_known_edge(f, t);
            solver.add_known_edge(f, n as u32 + t);
        } else {
            solver.add_known_edge(n as u32 + f, t);
        }
    }
    for cons in &constraints {
        let var = solver.new_var();
        let sel = Lit::pos(var);
        // Seed the phase toward the `either` side (ascending transaction
        // ids): a consistent per-key total order, so the first assignment
        // is near-acyclic.
        solver.set_phase(var, true);
        for (guard, side) in [(sel, cons.either), (!sel, cons.or)] {
            for e in side {
                let (f, t) = (e.from.0, e.to.0);
                solver.add_symbolic_edge(guard, f, t);
                solver.add_symbolic_edge(guard, f, n as u32 + t);
            }
        }
    }
    let verdict = match solver.solve() {
        SolveResult::Sat(_) => Ok(()),
        SolveResult::Unsat | SolveResult::Unknown => {
            // Every resolution is cyclic; materialize one for the witness.
            let mut all = edges;
            for cons in &constraints {
                all.extend_from_slice(cons.either);
            }
            let cycle = KnownGraph::find_cycle(n, &all, Semantics::Si)
                .expect("UNSAT list instance must be cyclic under a uniform resolution");
            let anomaly = Anomaly::classify(&cycle);
            Err(ListViolation::Cyclic { cycle, anomaly })
        }
    };
    (verdict, true)
}
