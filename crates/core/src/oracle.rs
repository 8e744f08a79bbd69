//! A brute-force ground-truth oracle for the SI checking problem.
//!
//! Implements Theorem 6 literally: enumerate every combination of per-key
//! version orders (`WW`), derive the anti-dependencies (`RW`), and accept
//! iff some combination makes `(SO ∪ WR ∪ WW) ; RW?` acyclic. Exponential —
//! usable only on tiny histories — but independent of every data structure
//! the real checker uses, which makes it the anchor for the property tests
//! validating soundness and completeness.

use polysi_history::{Facts, History, TxnId};
use polysi_polygraph::{Edge, KnownGraph, Label, Semantics};

/// Decide SI by exhaustive enumeration. Panics if the search space exceeds
/// `limit` combinations (default guard: call [`oracle_check_si`]).
pub fn oracle_check_si_with_limit(h: &History, limit: u64) -> bool {
    let facts = Facts::analyze(h);
    if !facts.axioms_ok() {
        return false;
    }
    // Keys with at least two writers need an order chosen.
    let contended: Vec<(&polysi_history::Key, &Vec<TxnId>)> =
        facts.writers.iter().filter(|(_, ws)| ws.len() >= 2).collect();
    let combos: u64 = contended
        .iter()
        .map(|(_, ws)| (1..=ws.len() as u64).product::<u64>())
        .try_fold(1u64, u64::checked_mul)
        .expect("combination count overflow");
    assert!(combos <= limit, "oracle search space too large: {combos} > {limit}");

    // Fixed edges: SO, WR, and init-read anti-dependencies to first writers
    // (the initial version is first in every order).
    let mut base: Vec<Edge> = Vec::new();
    for (a, b) in h.so_edges() {
        base.push(Edge::new(a, b, Label::So));
    }
    for (w, r, key) in facts.wr_edges() {
        base.push(Edge::new(w, r, Label::Wr(key)));
    }

    // Enumerate orders per contended key via recursion over permutations.
    let mut orders: Vec<Vec<TxnId>> = contended.iter().map(|(_, ws)| (*ws).clone()).collect();
    let keys: Vec<polysi_history::Key> = contended.iter().map(|(k, _)| **k).collect();
    let single: Vec<(polysi_history::Key, Vec<TxnId>)> = facts
        .writers
        .iter()
        .filter(|(_, ws)| ws.len() == 1)
        .map(|(k, ws)| (*k, ws.clone()))
        .collect();

    fn acyclic_for(
        h: &History,
        facts: &Facts,
        base: &[Edge],
        keys: &[polysi_history::Key],
        orders: &[Vec<TxnId>],
        single: &[(polysi_history::Key, Vec<TxnId>)],
    ) -> bool {
        let mut edges = base.to_vec();
        let add_order = |key: polysi_history::Key, order: &[TxnId], edges: &mut Vec<Edge>| {
            for w in order.windows(2) {
                edges.push(Edge::new(w[0], w[1], Label::Ww(key)));
            }
            // Anti-dependencies: reader of order[i] → order[i+1]; init
            // readers → order[0].
            for (i, &w) in order.iter().enumerate() {
                if let Some(&next) = order.get(i + 1) {
                    for &r in facts.readers_of(key, w) {
                        if r != next {
                            edges.push(Edge::new(r, next, Label::Rw(key)));
                        }
                    }
                }
            }
            if let Some(readers) = facts.init_readers.get(&key) {
                for &r in readers {
                    if r != order[0] {
                        edges.push(Edge::new(r, order[0], Label::Rw(key)));
                    }
                }
            }
        };
        for (key, order) in single {
            add_order(*key, order, &mut edges);
        }
        for (key, order) in keys.iter().zip(orders) {
            add_order(*key, order, &mut edges);
        }
        KnownGraph::find_cycle(h.len(), &edges, Semantics::Si).is_none()
    }

    fn rec(
        h: &History,
        facts: &Facts,
        base: &[Edge],
        keys: &[polysi_history::Key],
        orders: &mut [Vec<TxnId>],
        single: &[(polysi_history::Key, Vec<TxnId>)],
        depth: usize,
    ) -> bool {
        if depth == orders.len() {
            return acyclic_for(h, facts, base, keys, orders, single);
        }
        // Heap's algorithm over orders[depth], recursing at each permutation.
        #[allow(clippy::too_many_arguments)]
        fn heaps(
            h: &History,
            facts: &Facts,
            base: &[Edge],
            keys: &[polysi_history::Key],
            orders: &mut [Vec<TxnId>],
            single: &[(polysi_history::Key, Vec<TxnId>)],
            depth: usize,
            k: usize,
        ) -> bool {
            if k <= 1 {
                return rec(h, facts, base, keys, orders, single, depth + 1);
            }
            for i in 0..k {
                if heaps(h, facts, base, keys, orders, single, depth, k - 1) {
                    return true;
                }
                if i < k - 1 {
                    if k.is_multiple_of(2) {
                        orders[depth].swap(i, k - 1);
                    } else {
                        orders[depth].swap(0, k - 1);
                    }
                }
            }
            false
        }
        let k = orders[depth].len();
        heaps(h, facts, base, keys, orders, single, depth, k)
    }

    rec(h, &facts, &base, &keys, &mut orders, &single, 0)
}

/// [`oracle_check_si_with_limit`] with a 1M-combination guard.
pub fn oracle_check_si(h: &History) -> bool {
    oracle_check_si_with_limit(h, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, Value};

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    #[test]
    fn serial_accepted() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        assert!(oracle_check_si(&b.build()));
    }

    #[test]
    fn lost_update_rejected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
        assert!(!oracle_check_si(&b.build()));
    }

    #[test]
    fn write_skew_accepted() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit();
        assert!(oracle_check_si(&b.build()));
    }

    #[test]
    fn long_fork_rejected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(10)).write(k(2), v(20)).commit();
        b.session();
        b.begin().write(k(1), v(11)).commit();
        b.session();
        b.begin().write(k(2), v(21)).commit();
        b.session();
        b.begin().read(k(1), v(11)).read(k(2), v(20)).commit();
        b.session();
        b.begin().read(k(1), v(10)).read(k(2), v(21)).commit();
        assert!(!oracle_check_si(&b.build()));
    }

    #[test]
    fn axiom_violations_rejected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), v(7)).commit(); // nobody wrote 7
        assert!(!oracle_check_si(&b.build()));
    }

    /// A read of the transaction's own later write: the oracle and the
    /// engine at both levels reject it.
    #[test]
    fn future_read_rejected() {
        use crate::engine::{check, EngineOptions, IsolationLevel};
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(1)).commit();
        let h = b.build();
        assert!(!oracle_check_si(&h));
        for level in [IsolationLevel::Si, IsolationLevel::Ser] {
            assert!(!check(&h, level, &EngineOptions::default()).accepted(), "{level:?}");
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn guard_trips_on_blowup() {
        let mut b = HistoryBuilder::new();
        b.session();
        for i in 0..12u64 {
            b.begin().write(k(1), v(i + 1)).commit();
        }
        let _ = oracle_check_si_with_limit(&b.build(), 100);
    }
}
