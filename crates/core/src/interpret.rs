//! The interpretation algorithm (Section 5.3, Appendix C): turn a bare
//! violating cycle into an understandable scenario by
//!
//! 1. **restoring** the "missing" transactions and dependencies behind every
//!    `RW` edge (the writer whose version was read, with its `WR` and `WW`
//!    dependencies),
//! 2. **resolving** uncertain dependencies with the pruning rule — an
//!    uncertain direction whose opposite would close a cycle with certain
//!    dependencies becomes certain (Figure 5c), and
//! 3. **finalizing** by dropping whatever stayed uncertain (Figure 5d),
//!    which yields the minimal cause-only counterexample (Theorem 20's
//!    minimal complete adjoining-cycle set, restricted to the depth-1
//!    search the paper itself reports sufficient in practice).

use polysi_history::{Facts, History, Key, TxnId, WrSource};
use polysi_polygraph::{ConstraintSet, Edge, Label};
use std::collections::{BTreeSet, HashSet};

/// Whether a scenario dependency is established or still a guess.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Certainty {
    /// Holds in every compatible graph (known, or resolved).
    Certain,
    /// Could not be resolved; removed by finalization.
    Uncertain,
}

/// The interpreted violation scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Recovered scenario: all collected dependencies with their tags
    /// (Figure 5b/5c).
    pub edges: Vec<(Edge, Certainty)>,
    /// The finalized, cause-only dependency set (Figure 5d).
    pub finalized: Vec<Edge>,
    /// All participating transactions.
    pub transactions: Vec<TxnId>,
    /// Transactions restored by interpretation (not on the original cycle).
    pub restored: Vec<TxnId>,
}

impl Scenario {
    /// The scenario with every transaction id translated by `f`, which
    /// must keep ids in order (as a component's local → global map does).
    pub(crate) fn map_txns(self, f: impl Fn(TxnId) -> TxnId) -> Scenario {
        let edge = |e: Edge| Edge::new(f(e.from), f(e.to), e.label);
        Scenario {
            edges: self.edges.into_iter().map(|(e, c)| (edge(e), c)).collect(),
            finalized: self.finalized.into_iter().map(edge).collect(),
            transactions: self.transactions.into_iter().map(&f).collect(),
            restored: self.restored.into_iter().map(&f).collect(),
        }
    }
}

/// Run interpretation for a violating `cycle` of history `h`.
pub fn interpret(h: &History, facts: &Facts, cycle: &[Edge]) -> Scenario {
    let mut edges: Vec<(Edge, Certainty)> = Vec::new();
    // Constraint pairs (key, writer, writer) that interpretation must
    // resolve, normalized to ascending transaction ids. Walked in sorted
    // order, so the scenario lists its edges the same way on every run.
    let mut pairs: BTreeSet<(Key, TxnId, TxnId)> = BTreeSet::new();

    let upsert = |edges: &mut Vec<(Edge, Certainty)>, e: Edge, c: Certainty| {
        if let Some(slot) = edges.iter_mut().find(|(x, _)| *x == e) {
            if c == Certainty::Certain {
                slot.1 = Certainty::Certain;
            }
        } else {
            edges.push((e, c));
        }
    };
    let register = |pairs: &mut BTreeSet<_>, key: Key, a: TxnId, b: TxnId| {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        pairs.insert((key, lo, hi));
    };

    // Step 1: restore missing participants (Algorithm 3, Restore).
    for &e in cycle {
        match e.label {
            Label::So | Label::Wr(_) => upsert(&mut edges, e, Certainty::Certain),
            Label::Ww(key) => {
                upsert(&mut edges, e, Certainty::Uncertain);
                register(&mut pairs, key, e.from, e.to);
            }
            Label::Rw(key) => {
                // e.from read `key` from some writer w; the RW edge exists
                // because w -WW-> e.to. Bring w back.
                match read_source(facts, e.from, key) {
                    Some(WrSource::Txn(w)) => {
                        upsert(&mut edges, e, Certainty::Uncertain);
                        upsert(
                            &mut edges,
                            Edge::new(w, e.from, Label::Wr(key)),
                            Certainty::Certain,
                        );
                        if w != e.to {
                            upsert(
                                &mut edges,
                                Edge::new(w, e.to, Label::Ww(key)),
                                Certainty::Uncertain,
                            );
                            register(&mut pairs, key, w, e.to);
                        }
                    }
                    // Reads of the initial value anti-depend on every
                    // writer unconditionally.
                    _ => upsert(&mut edges, e, Certainty::Certain),
                }
            }
        }
    }

    // The complete adjoining-cycle set arbitrates between *every* pair of
    // participating writers on the cycle's keys (Figure 5a shows both
    // orientations of both writer pairs), so register those pairs too.
    let participants: HashSet<TxnId> = edges.iter().flat_map(|(e, _)| [e.from, e.to]).collect();
    let cycle_keys: HashSet<Key> = cycle.iter().filter_map(|e| e.label.key()).collect();
    for &key in &cycle_keys {
        let writers: Vec<TxnId> =
            participants.iter().copied().filter(|&t| facts.writes_key(t, key)).collect();
        for (i, &t) in writers.iter().enumerate() {
            for &s in &writers[i + 1..] {
                register(&mut pairs, key, t, s);
            }
        }
    }

    // Figure 5b also shows the WR dependencies of the arbitrated writers to
    // the readers already in the picture — restore them so the scenario is
    // readable on its own.
    for &(key, t, s) in &pairs {
        for w in [t, s] {
            for &r in facts.readers_of(key, w) {
                if participants.contains(&r) {
                    upsert(&mut edges, Edge::new(w, r, Label::Wr(key)), Certainty::Certain);
                }
            }
        }
    }

    // Step 2: resolve uncertainties (Algorithm 3, Resolve) with the pruning
    // rule, to a fixpoint. Following Find_ACS, the adjoining cycles that
    // refute a direction may run through *any* known edge of the history
    // (`SO`, `WR`, init anti-dependencies), not just scenario edges — the
    // edges of each refuting cycle are pulled into the scenario so the
    // final picture is self-contained (Figure 5b/5c).
    let known = known_edges(h, facts);
    let mut unresolved: Vec<(Key, TxnId, TxnId)> = pairs.into_iter().collect();
    loop {
        let mut graph = SmallGraph::new();
        graph.add_edges(&known);
        for (e, c) in &edges {
            if *c == Certainty::Certain {
                graph.add_edges(std::slice::from_ref(e));
            }
        }
        let mut progressed = false;
        let mut still = Vec::new();
        for (key, t, s) in unresolved.drain(..) {
            let mut pair = ConstraintSet::new();
            pair.push_generalized(key, t, s, facts.readers_of(key, t), facts.readers_of(key, s));
            let cons = pair.get(0);
            let wit_either = side_witness(&graph, cons.either);
            let wit_or = side_witness(&graph, cons.or);
            // On a violation both sides may be blocked; pick the `either`
            // orientation so the scenario stays deterministic.
            let resolution = match (&wit_either, &wit_or) {
                (None, Some(w)) => Some((cons.either, w.clone())),
                (Some(w), None) => Some((cons.or, w.clone())),
                (Some(_), Some(w)) => Some((cons.either, w.clone())),
                (None, None) => None,
            };
            if let Some((side, witness)) = resolution {
                for &e in side {
                    upsert(&mut edges, e, Certainty::Certain);
                }
                for e in witness {
                    upsert(&mut edges, e, Certainty::Certain);
                }
                progressed = true;
            } else {
                still.push((key, t, s));
            }
        }
        unresolved = still;
        if !progressed || unresolved.is_empty() {
            break;
        }
    }

    // Step 3: finalize (Algorithm 3, Finalize): drop uncertain edges.
    let finalized: Vec<Edge> =
        edges.iter().filter(|(_, c)| *c == Certainty::Certain).map(|(e, _)| *e).collect();

    let cycle_txns: HashSet<TxnId> = cycle.iter().flat_map(|e| [e.from, e.to]).collect();
    let mut transactions: Vec<TxnId> = edges
        .iter()
        .flat_map(|(e, _)| [e.from, e.to])
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    transactions.sort_unstable();
    let mut restored: Vec<TxnId> =
        transactions.iter().copied().filter(|t| !cycle_txns.contains(t)).collect();
    restored.sort_unstable();

    let _ = h; // history is carried for future schema-aware rendering
    Scenario { edges, finalized, transactions, restored }
}

/// The source of `reader`'s external read of `key`.
fn read_source(facts: &Facts, reader: TxnId, key: Key) -> Option<WrSource> {
    facts.reads[reader.idx()].iter().find(|&&(k, _, _)| k == key).map(|&(_, _, s)| s)
}

/// All unconditionally-known edges of the history: session order,
/// write-read, and init-read anti-dependencies.
fn known_edges(h: &History, facts: &Facts) -> Vec<Edge> {
    let mut known: Vec<Edge> = Vec::new();
    for (a, b) in h.so_edges() {
        known.push(Edge::new(a, b, Label::So));
    }
    for (w, r, key) in facts.wr_edges() {
        known.push(Edge::new(w, r, Label::Wr(key)));
    }
    for (&key, readers) in &facts.init_readers {
        if let Some(writers) = facts.writers.get(&key) {
            for &r in readers {
                for &w in writers {
                    if w != r {
                        known.push(Edge::new(r, w, Label::Rw(key)));
                    }
                }
            }
        }
    }
    known
}

/// A small adjacency-listed dependency graph supporting induced-graph
/// reachability and path extraction even when cyclic (plain BFS on the
/// layered state space `(txn, at_boundary)`).
struct SmallGraph {
    adj: std::collections::HashMap<TxnId, Vec<Edge>>,
    dep_in: std::collections::HashMap<TxnId, Vec<Edge>>,
}

impl SmallGraph {
    fn new() -> Self {
        SmallGraph { adj: Default::default(), dep_in: Default::default() }
    }

    fn add_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.adj.entry(e.from).or_default().push(e);
            if e.label.is_dep() {
                self.dep_in.entry(e.to).or_default().push(e);
            }
        }
    }

    /// Shortest induced-graph path `a ⇝ b` as typed edges (`RW` only after
    /// a `Dep` edge).
    fn find_path(&self, a: TxnId, b: TxnId) -> Option<Vec<Edge>> {
        let start = (a, true);
        let mut parent: std::collections::HashMap<(TxnId, bool), ((TxnId, bool), Edge)> =
            Default::default();
        let mut queue = vec![start];
        let mut seen: HashSet<(TxnId, bool)> = queue.iter().copied().collect();
        let mut head = 0;
        let mut found = false;
        'bfs: while head < queue.len() {
            let (x, boundary) = queue[head];
            head += 1;
            for &e in self.adj.get(&x).map(Vec::as_slice).unwrap_or(&[]) {
                let nexts: &[(TxnId, bool)] = if boundary && e.label.is_dep() {
                    &[(e.to, true), (e.to, false)]
                } else if !boundary && !e.label.is_dep() {
                    &[(e.to, true)]
                } else {
                    &[]
                };
                for &st in nexts {
                    if seen.insert(st) {
                        parent.insert(st, ((x, boundary), e));
                        if st == (b, true) {
                            found = true;
                            break 'bfs;
                        }
                        queue.push(st);
                    }
                }
            }
        }
        if !found {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = (b, true);
        while cur != start {
            let &(prev, e) = parent.get(&cur)?;
            // Skip the duplicate edge of a (B, M) double-arrival.
            if path.last() != Some(&e) {
                path.push(e);
            }
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    #[cfg(test)]
    fn reaches(&self, a: TxnId, b: TxnId) -> bool {
        self.find_path(a, b).is_some()
    }
}

/// If some edge of `side` would close a cycle with the current certain
/// graph (the pruning rule of Figure 4), return the certain edges of that
/// refuting cycle.
fn side_witness(g: &SmallGraph, side: &[Edge]) -> Option<Vec<Edge>> {
    for &e in side {
        match e.label {
            Label::Rw(_) => {
                for &d in g.dep_in.get(&e.from).map(Vec::as_slice).unwrap_or(&[]) {
                    if d.from == e.to {
                        return Some(vec![d]);
                    }
                    if let Some(mut path) = g.find_path(e.to, d.from) {
                        path.push(d);
                        return Some(path);
                    }
                }
            }
            _ => {
                if let Some(path) = g.find_path(e.to, e.from) {
                    return Some(path);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Value};

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    /// The MariaDB-Galera lost-update shape of Figure 5: T:(1,4)=W(0,4);
    /// T:(1,5) and T:(2,13) both read 4 and overwrite key 0.
    fn galera_history() -> History {
        let mut b = HistoryBuilder::new();
        b.session(); // session 0: T0 = writer of 4, T1 = first updater
        b.begin().write(k(0), v(4)).commit();
        b.begin().read(k(0), v(4)).write(k(0), v(5)).commit();
        b.session(); // session 1: T2 = second updater
        b.begin().read(k(0), v(4)).write(k(0), v(13)).commit();
        b.build()
    }

    #[test]
    fn galera_lost_update_scenario() {
        let h = galera_history();
        let facts = Facts::analyze(&h);
        assert!(facts.axioms_ok());
        // The MonoSAT-style cycle: T1 -WW-> T2 -RW-> T1.
        let cycle = [
            Edge::new(TxnId(1), TxnId(2), Label::Ww(k(0))),
            Edge::new(TxnId(2), TxnId(1), Label::Rw(k(0))),
        ];
        let s = interpret(&h, &facts, &cycle);
        // The missing writer T0 is restored.
        assert_eq!(s.restored, vec![TxnId(0)]);
        assert_eq!(s.transactions, vec![TxnId(0), TxnId(1), TxnId(2)]);
        // Both WR edges from T0 are certain in the final scenario.
        assert!(s.finalized.contains(&Edge::new(TxnId(0), TxnId(1), Label::Wr(k(0)))));
        assert!(s.finalized.contains(&Edge::new(TxnId(0), TxnId(2), Label::Wr(k(0)))));
        // The resolved version order places T0 first.
        assert!(s.finalized.contains(&Edge::new(TxnId(0), TxnId(1), Label::Ww(k(0)))));
        assert!(s.finalized.contains(&Edge::new(TxnId(0), TxnId(2), Label::Ww(k(0)))));
        // Both cross anti-dependencies (readers of 4 vs. the other writer).
        assert!(s.finalized.contains(&Edge::new(TxnId(2), TxnId(1), Label::Rw(k(0)))));
        assert!(s.finalized.contains(&Edge::new(TxnId(1), TxnId(2), Label::Rw(k(0)))));
    }

    #[test]
    fn so_and_wr_edges_stay_certain() {
        let h = galera_history();
        let facts = Facts::analyze(&h);
        let cycle = [
            Edge::new(TxnId(0), TxnId(1), Label::So),
            Edge::new(TxnId(1), TxnId(0), Label::Rw(k(0))),
        ];
        let s = interpret(&h, &facts, &cycle);
        assert!(s.edges.iter().any(|&(e, c)| e.label == Label::So && c == Certainty::Certain));
    }

    #[test]
    fn init_rw_is_certain() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), Value::INIT).commit();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        let h = b.build();
        let facts = Facts::analyze(&h);
        let cycle = [Edge::new(TxnId(0), TxnId(1), Label::Rw(k(1)))];
        let s = interpret(&h, &facts, &cycle);
        assert_eq!(s.edges, vec![(cycle[0], Certainty::Certain)]);
        assert!(s.restored.is_empty());
    }

    /// The scenario's edge order must not depend on a hash set's
    /// iteration order (under `RandomState` that differs on every call).
    #[test]
    fn scenario_order_repeats_across_runs() {
        // Two keys, three writers each: six writer pairs, four restored
        // `WR` edges whose first insertion depends on the pair order.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).read(k(2), v(1)).write(k(1), v(2)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).read(k(2), v(1)).write(k(1), v(3)).write(k(2), v(3)).commit();
        let h = b.build();
        let facts = Facts::analyze(&h);
        assert!(facts.axioms_ok());
        let cycle = [
            Edge::new(TxnId(1), TxnId(2), Label::Ww(k(1))),
            Edge::new(TxnId(2), TxnId(1), Label::Rw(k(2))),
        ];
        let first = interpret(&h, &facts, &cycle);
        assert!(first.finalized.len() >= 6, "a multi-pair scenario: {:?}", first.finalized);
        for _ in 0..32 {
            let again = interpret(&h, &facts, &cycle);
            assert_eq!(again.edges, first.edges);
            assert_eq!(again.finalized, first.finalized);
        }
    }

    #[test]
    fn reaches_respects_rw_composition() {
        let mut g = SmallGraph::new();
        g.add_edges(&[
            Edge::new(TxnId(0), TxnId(1), Label::Wr(k(1))),
            Edge::new(TxnId(1), TxnId(2), Label::Rw(k(1))),
            Edge::new(TxnId(2), TxnId(3), Label::Rw(k(2))),
        ]);
        assert!(g.reaches(TxnId(0), TxnId(2)));
        assert!(!g.reaches(TxnId(0), TxnId(3)), "RW;RW must not compose");
        assert!(!g.reaches(TxnId(1), TxnId(2)), "bare RW does not compose");
        let p = g.find_path(TxnId(0), TxnId(2)).unwrap();
        assert_eq!(p.len(), 2);
    }
}
