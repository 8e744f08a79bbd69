//! The interpretation algorithm (Section 5.3, Appendix C): turn a bare
//! violating cycle into an understandable scenario by
//!
//! 1. **restoring** the "missing" transactions and dependencies behind every
//!    `RW` edge (the writer whose version was read, with its `WR` and `WW`
//!    dependencies),
//! 2. **resolving** uncertain dependencies with the pruning rule of the
//!    unit's level — an uncertain direction whose opposite would close a
//!    cycle with certain dependencies becomes certain (Figure 5c), and
//! 3. **finalizing** by dropping whatever stayed uncertain (Figure 5d),
//!    which yields the minimal cause-only counterexample (Theorem 20's
//!    minimal complete adjoining-cycle set, restricted to the depth-1
//!    search the paper itself reports sufficient in practice).

use polysi_history::{Facts, Key, TxnId, WrSource};
use polysi_polygraph::{ConstraintSet, DepGraph, Edge, Label, Polygraph};
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

/// Run interpretation for a violating `cycle` of the unit `g`, as
/// constructed (its known edges, before pruning added any), whose history
/// `facts` analyzed.
pub fn interpret(g: &Polygraph, facts: &Facts, cycle: &[Edge]) -> Scenario {
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
    // rule of the unit's level, to a fixpoint. Following Find_ACS, the
    // adjoining cycles that refute a direction may run through *any* known
    // edge of the unit (`SO`, `WR`, init anti-dependencies, and under SER
    // the read-modify-write `WW` edges), not just scenario edges — the
    // edges of each refuting cycle are pulled into the scenario so the
    // final picture is self-contained (Figure 5b/5c).
    let mut graph = DepGraph::new(g.n, &g.known, g.semantics);
    let mut unresolved: Vec<(Key, TxnId, TxnId)> = pairs.into_iter().collect();
    while !unresolved.is_empty() {
        graph.overlay(edges.iter().filter(|(_, c)| *c == Certainty::Certain).map(|(e, _)| *e));
        let before = unresolved.len();
        unresolved.retain(|&(key, t, s)| {
            let mut pair = ConstraintSet::new();
            pair.push_generalized(key, t, s, facts.readers_of(key, t), facts.readers_of(key, s));
            let cons = pair.get(0);
            // On a violation both sides may be refuted; a refuted `or`
            // picks `either` then, so the scenario stays deterministic.
            let resolved = match graph.refute(cons.or) {
                Some((_, path)) => Some((cons.either, path)),
                None => graph.refute(cons.either).map(|(_, path)| (cons.or, path)),
            };
            let Some((side, path)) = resolved else { return true };
            for &e in side.iter().chain(&path) {
                upsert(&mut edges, e, Certainty::Certain);
            }
            false
        });
        if unresolved.len() == before {
            break;
        }
    }

    // Step 3: finalize (Algorithm 3, Finalize): drop uncertain edges.
    let finalized: Vec<Edge> =
        edges.iter().filter(|(_, c)| *c == Certainty::Certain).map(|(e, _)| *e).collect();

    let cycle_txns: HashSet<TxnId> = cycle.iter().flat_map(|e| [e.from, e.to]).collect();
    let transactions: BTreeSet<TxnId> = edges.iter().flat_map(|(e, _)| [e.from, e.to]).collect();
    let restored = transactions.iter().copied().filter(|t| !cycle_txns.contains(t)).collect();
    let transactions = transactions.into_iter().collect();

    Scenario { edges, finalized, transactions, restored }
}

/// The source of `reader`'s external read of `key`.
fn read_source(facts: &Facts, reader: TxnId, key: Key) -> Option<WrSource> {
    facts.reads[reader.idx()].iter().find(|&&(k, _, _)| k == key).map(|&(_, _, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{History, HistoryBuilder, Value};
    use polysi_polygraph::{ConstraintMode, Semantics};

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    /// `h`'s facts and its polygraph under `semantics`, as constructed.
    fn unit(h: &History, semantics: Semantics) -> (Polygraph, Facts) {
        let facts = Facts::analyze(h);
        assert!(facts.axioms_ok());
        let (g, _) =
            Polygraph::from_history_with(h, &facts, ConstraintMode::Generalized, semantics);
        (g, facts)
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
        let (g, facts) = unit(&galera_history(), Semantics::Si);
        // The MonoSAT-style cycle: T1 -WW-> T2 -RW-> T1.
        let cycle = [
            Edge::new(TxnId(1), TxnId(2), Label::Ww(k(0))),
            Edge::new(TxnId(2), TxnId(1), Label::Rw(k(0))),
        ];
        let s = interpret(&g, &facts, &cycle);
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
        let (g, facts) = unit(&galera_history(), Semantics::Si);
        let cycle = [
            Edge::new(TxnId(0), TxnId(1), Label::So),
            Edge::new(TxnId(1), TxnId(0), Label::Rw(k(0))),
        ];
        let s = interpret(&g, &facts, &cycle);
        assert!(s.edges.iter().any(|&(e, c)| e.label == Label::So && c == Certainty::Certain));
    }

    #[test]
    fn init_rw_is_certain() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), Value::INIT).commit();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        let (g, facts) = unit(&b.build(), Semantics::Si);
        let cycle = [Edge::new(TxnId(0), TxnId(1), Label::Rw(k(1)))];
        let s = interpret(&g, &facts, &cycle);
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
        let (g, facts) = unit(&b.build(), Semantics::Si);
        let cycle = [
            Edge::new(TxnId(1), TxnId(2), Label::Ww(k(1))),
            Edge::new(TxnId(2), TxnId(1), Label::Rw(k(2))),
        ];
        let first = interpret(&g, &facts, &cycle);
        assert!(first.finalized.len() >= 6, "a multi-pair scenario: {:?}", first.finalized);
        for _ in 0..32 {
            let again = interpret(&g, &facts, &cycle);
            assert_eq!(again.edges, first.edges);
            assert_eq!(again.finalized, first.finalized);
        }
    }

    /// A SER counterexample is resolved by SER's rule. T0 and T1 read the
    /// initial versions that T1 and T2 overwrite: T0 -RW(2)-> T1 -RW(3)-> T2,
    /// which SI composes into nothing but SER into a path T0 ⇝ T2, so
    /// `T2 -WW(1)-> T0` is refuted and T3, reading T0's key 1, anti-depends
    /// on T2. SI's rule called that `WW` edge certain and missed the `RW`.
    #[test]
    fn ser_scenario_states_no_edge_ser_refutes() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(2), Value::INIT).write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(3), Value::INIT).write(k(2), v(1)).commit();
        b.session();
        b.begin().write(k(3), v(1)).write(k(1), v(2)).write(k(4), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).read(k(4), v(1)).commit();
        let (g, facts) = unit(&b.build(), Semantics::Ser);
        let (t2, t3) = (TxnId(2), TxnId(3));
        let cycle = [Edge::new(t3, t2, Label::Rw(k(1))), Edge::new(t2, t3, Label::Wr(k(4)))];
        let s = interpret(&g, &facts, &cycle);
        assert!(s.finalized.contains(&Edge::new(t2, t3, Label::Wr(k(4)))), "{:?}", s.finalized);
        assert!(s.finalized.contains(&Edge::new(t3, t2, Label::Rw(k(1)))), "{:?}", s.finalized);
        let refuted = Edge::new(t2, TxnId(0), Label::Ww(k(1)));
        assert!(!s.finalized.contains(&refuted), "{:?}", s.finalized);
    }
}
