//! Property tests: after any random interleaving of
//! `KnownGraph::insert_edges` calls, the incremental oracle — which keeps
//! its graph *reachability-reduced*, absorbing every edge real paths
//! already imply — must be indistinguishable from a from-scratch
//! `KnownGraph::build_with` fed **every** edge: closure rows,
//! `rw_closes_cycle`, topo positions (as an order), cycle verdict, and
//! witness validity, under both SI and SER semantics and both closure
//! representations.

use polysi_history::{Key, TxnId};
use polysi_polygraph::{Edge, KnownGraph, KnownGraphResult, Label, OracleKind, Semantics};
use proptest::prelude::*;

/// A random edge set over `n` transactions plus a batch split plan.
#[derive(Debug, Clone)]
struct Plan {
    n: usize,
    edges: Vec<Edge>,
    /// How many edges go into the initial build; the rest arrive through
    /// `insert_edges` in batches of the given sizes (cycled).
    initial: usize,
    batch_sizes: Vec<usize>,
    semantics: Semantics,
}

fn edge_strategy(n: u32) -> impl Strategy<Value = Edge> {
    (0..n, 0..n - 1, 0u8..4, 0u64..3).prop_map(move |(f, t0, kind, key)| {
        // Skew `t` so self-edges never occur.
        let t = if t0 >= f { t0 + 1 } else { t0 };
        let label = match kind {
            0 => Label::So,
            1 => Label::Wr(Key(key)),
            2 => Label::Ww(Key(key)),
            _ => Label::Rw(Key(key)),
        };
        Edge::new(TxnId(f), TxnId(t), label)
    })
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (3u32..9, any::<bool>()).prop_flat_map(|(n, ser)| {
        let edges = prop::collection::vec(edge_strategy(n), 0..18);
        let batch_sizes = prop::collection::vec(1usize..4, 1..4);
        (edges, batch_sizes, 0usize..6).prop_map(move |(edges, batch_sizes, initial)| Plan {
            n: n as usize,
            initial: initial.min(edges.len()),
            edges,
            batch_sizes,
            semantics: if ser { Semantics::Ser } else { Semantics::Si },
        })
    })
}

/// Check a violating cycle: edges chain up, the cycle closes, every edge
/// is drawn from `allowed`, and under SI no two `RW` edges are adjacent.
fn assert_valid_cycle(cycle: &[Edge], allowed: &[Edge], semantics: Semantics) {
    assert!(!cycle.is_empty(), "empty witness");
    for (i, e) in cycle.iter().enumerate() {
        let next = &cycle[(i + 1) % cycle.len()];
        assert_eq!(e.to, next.from, "cycle does not chain: {cycle:?}");
        assert!(allowed.contains(e), "witness edge {e:?} was never inserted");
        if semantics == Semantics::Si {
            assert!(
                e.label.is_dep() || next.label.is_dep(),
                "adjacent RW edges in an SI witness: {cycle:?}"
            );
        }
    }
}

/// A finished incremental run: the flushed oracle and the edges it
/// materialised (the rest of the inserted edges were implied).
struct Reduced {
    g: Box<KnownGraph>,
    kept: Vec<Edge>,
}

/// Drive the incremental path over the plan — eagerly (closure flushed by
/// every `insert_edges` call) or deferred (every batch staged through
/// `insert_edges_deferred`, one `flush_closure` at the very end, so all
/// mid-run cycle checks run against a stale closure). Returns the
/// final (flushed) oracle plus its kept edges on acceptance, or the batch
/// end position plus the raw witness on violation. A witness may use only
/// edges the reduced graph materialised, plus the closing edge.
fn drive(plan: &Plan, kind: OracleKind, deferred: bool) -> Result<Reduced, (usize, Vec<Edge>)> {
    let initial = &plan.edges[..plan.initial];
    let mut g = match KnownGraph::build_with_oracle(plan.n, initial, plan.semantics, kind) {
        KnownGraphResult::Acyclic(g) => g,
        KnownGraphResult::Cyclic(cycle) => {
            assert_valid_cycle(&cycle, initial, plan.semantics);
            return Err((plan.initial, cycle));
        }
    };
    let mut next = plan.initial;
    let mut batch = 0;
    let mut kept = Vec::new();
    while next < plan.edges.len() {
        let size = plan.batch_sizes[batch % plan.batch_sizes.len()];
        batch += 1;
        let end = (next + size).min(plan.edges.len());
        let staged = if deferred {
            g.insert_edges_deferred(&plan.edges[next..end], &mut kept)
        } else {
            g.insert_edges(&plan.edges[next..end], &mut kept)
        };
        match staged {
            Ok(()) => next = end,
            Err(cycle) => {
                let mut allowed: Vec<Edge> = initial.iter().chain(&kept).copied().collect();
                let closing: Vec<Edge> =
                    cycle.iter().filter(|e| !allowed.contains(e)).copied().collect();
                assert_eq!(closing.len(), 1, "one closing edge, the rest materialised: {cycle:?}");
                assert!(plan.edges[next..end].contains(&closing[0]));
                allowed.push(closing[0]);
                assert_valid_cycle(&cycle, &allowed, plan.semantics);
                return Err((end, cycle));
            }
        }
    }
    g.flush_closure();
    Ok(Reduced { g, kept })
}

/// The first prefix length at which a from-scratch build over every edge
/// turns cyclic, if any — the reference cycle verdict.
fn first_cyclic_prefix(plan: &Plan) -> Option<usize> {
    (plan.initial..=plan.edges.len()).find(|&i| {
        matches!(
            KnownGraph::build_with(plan.n, &plan.edges[..i], plan.semantics),
            KnownGraphResult::Cyclic(_)
        )
    })
}

/// Every query the prune stage asks must answer alike on both oracles.
fn assert_same_answers(
    a: &KnownGraph,
    b: &KnownGraph,
    n: usize,
    semantics: Semantics,
) -> Result<(), TestCaseError> {
    for x in 0..n as u32 {
        for y in 0..n as u32 {
            let (x, y) = (TxnId(x), TxnId(y));
            prop_assert_eq!(a.reaches(x, y), b.reaches(x, y), "reaches({:?}, {:?})", x, y);
            if semantics == Semantics::Si && x != y {
                prop_assert_eq!(
                    a.rw_closes_cycle(x, y),
                    b.rw_closes_cycle(x, y),
                    "rw_closes_cycle({:?}, {:?})",
                    x,
                    y
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reduced incremental oracle against one fed every edge, on both
    /// closure representations: same cycle verdict at the same batch; on
    /// acceptance the same closure rows (bit for bit on the dense store,
    /// boundary and mid), the same query answers, a valid maintained
    /// order, every dropped edge implied, and the kept list alone
    /// rebuilding the same reachability — which is what lets
    /// `Polygraph::known` hold only the kept edges.
    #[test]
    fn incremental_equals_from_scratch(plan in plan_strategy()) {
        let cyclic_at = first_cyclic_prefix(&plan);
        for kind in [OracleKind::Dense, OracleKind::Chains] {
            let Reduced { g, kept } = match drive(&plan, kind, false) {
                Err((end, _)) => {
                    // Flagged within the batch ending at `end`: the first
                    // cyclic prefix of the full edge list lies in it.
                    let at = cyclic_at.expect("insert_edges reported a cycle no prefix rebuild sees");
                    prop_assert!(at <= end, "violation surfaced before the edge set turns cyclic");
                    let batch_start = if end == plan.initial { 0 } else { plan.initial };
                    prop_assert!(at >= batch_start);
                    continue;
                }
                Ok(r) => r,
            };
            prop_assert!(cyclic_at.is_none(), "incremental accepted a cyclic edge set");
            let full = match KnownGraph::build_with(plan.n, &plan.edges, plan.semantics) {
                KnownGraphResult::Acyclic(f) => f,
                KnownGraphResult::Cyclic(_) => unreachable!("no cyclic prefix"),
            };
            if kind == OracleKind::Dense {
                // Closure rows — boundary and mid — must be bit-identical.
                prop_assert_eq!(g.closure().count_ones(), full.closure().count_ones());
                for row in 0..2 * plan.n {
                    prop_assert_eq!(
                        g.closure().row(row),
                        full.closure().row(row),
                        "closure row {} diverged",
                        row
                    );
                }
            }
            assert_same_answers(&g, &full, plan.n, plan.semantics)?;
            // The maintained topo positions are a valid order for the
            // final reachability.
            let pos = g.topo_positions();
            for a in 0..plan.n as u32 {
                for w in 0..plan.n as u32 {
                    let (a, w) = (TxnId(a), TxnId(w));
                    if a != w && g.reaches(a, w) {
                        prop_assert!(
                            pos[a.idx()] < pos[w.idx()],
                            "positions contradict reachability {:?} -> {:?}",
                            a,
                            w
                        );
                    }
                }
            }
            // The kept edges are a sub-sequence of the inserted ones, the
            // dropped ones are implied by what stayed, and the reduced
            // list alone carries the whole reachability relation.
            let inserted = &plan.edges[plan.initial..];
            let mut rest = inserted.iter();
            for k in &kept {
                prop_assert!(rest.any(|e| e == k), "kept edges out of insertion order");
            }
            prop_assert_eq!(g.inserted_edges(), kept.len());
            for e in inserted {
                prop_assert!(g.implies(*e), "an inserted edge is not implied at the end: {:?}", e);
            }
            let reduced: Vec<Edge> =
                plan.edges[..plan.initial].iter().chain(&kept).copied().collect();
            let rebuilt = match KnownGraph::build_with(plan.n, &reduced, plan.semantics) {
                KnownGraphResult::Acyclic(r) => r,
                KnownGraphResult::Cyclic(c) => {
                    return Err(TestCaseError::fail(format!("reduced list is cyclic: {c:?}")));
                }
            };
            assert_same_answers(&rebuilt, &full, plan.n, plan.semantics)?;
        }
    }

    /// The deferred-batch path (stage every batch, flush once at the end)
    /// answers like the eager per-call path: same verdict at the same
    /// batch, valid witnesses (checked in `drive`), and — on acceptance —
    /// bit-identical closures. Which edges are *kept* may differ: the
    /// implied test reads the at-flush closure, so it depends on the
    /// flush points. This is what lets pruning batch closure propagation
    /// across a whole apply phase without changing results.
    #[test]
    fn deferred_batching_equals_eager(plan in plan_strategy()) {
        match (drive(&plan, OracleKind::Dense, false), drive(&plan, OracleKind::Dense, true)) {
            (Ok(eager), Ok(deferred)) => {
                let (eager, deferred) = (eager.g, deferred.g);
                prop_assert_eq!(eager.closure().count_ones(), deferred.closure().count_ones());
                for row in 0..2 * plan.n {
                    prop_assert_eq!(
                        eager.closure().row(row),
                        deferred.closure().row(row),
                        "closure row {} diverged between eager and deferred",
                        row
                    );
                }
            }
            (Err((e_end, _)), Err((d_end, _))) => {
                prop_assert_eq!(e_end, d_end, "violation surfaced at a different batch");
            }
            (eager, deferred) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts diverged: eager={:?} deferred={:?}",
                    eager.is_ok(), deferred.is_ok()
                )));
            }
        }
    }
}
