//! Property tests: after any random interleaving of
//! `KnownGraph::insert_edges` calls, the incremental oracle — which keeps
//! its graph *reachability-reduced*, absorbing every edge real paths
//! already imply — must be indistinguishable from a from-scratch
//! `KnownGraph::build` fed **every** edge: reachability from boundary and
//! mid nodes, `rw_closes_cycle`, topo positions (as an order), cycle
//! verdict, and witness validity, under both SI and SER semantics, both
//! closure representations and each flush policy.

use polysi_history::{Key, TxnId};
use polysi_polygraph::{Edge, KnownGraph, KnownGraphResult, Label, OracleKind, Semantics};
use proptest::prelude::*;
use support::{Policy, BULK, DEFERRED, EAGER};

mod support;

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

/// Drive the incremental path over the plan under `policy` (these plans
/// never reach 62 pending edges, so under `DEFERRED` every mid-run cycle
/// check runs against a stale closure). Returns the
/// final (flushed) oracle plus its kept edges on acceptance, or the batch
/// end position plus the raw witness on violation. A witness may use only
/// edges the reduced graph materialised, plus the closing edge.
fn drive(plan: &Plan, kind: OracleKind, policy: Policy) -> Result<Reduced, (usize, Vec<Edge>)> {
    let initial = &plan.edges[..plan.initial];
    let mut g = match KnownGraph::build_pinned(plan.n, initial.to_vec(), plan.semantics, kind) {
        KnownGraphResult::Acyclic(g) => g,
        KnownGraphResult::Cyclic { cycle, .. } => {
            assert_valid_cycle(&cycle, initial, plan.semantics);
            return Err((plan.initial, cycle));
        }
    };
    let mut next = plan.initial;
    let mut batch = 0;
    while next < plan.edges.len() {
        let size = plan.batch_sizes[batch % plan.batch_sizes.len()];
        batch += 1;
        let end = (next + size).min(plan.edges.len());
        match policy.insert(&mut g, &plan.edges[next..end]) {
            Ok(()) => next = end,
            Err(cycle) => {
                let mut allowed: Vec<Edge> = g.edges().to_vec();
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
    let kept = g.edges()[plan.initial..].to_vec();
    Ok(Reduced { g, kept })
}

/// The first prefix length at which a from-scratch build over every edge
/// turns cyclic, if any — the reference cycle verdict.
fn first_cyclic_prefix(plan: &Plan) -> Option<usize> {
    (plan.initial..=plan.edges.len())
        .find(|&i| KnownGraph::find_cycle(plan.n, &plan.edges[..i], plan.semantics).is_some())
}

/// Every query the prune stage asks must answer alike on both oracles —
/// which covers every closure row: boundary rows through `reaches`, mid
/// rows through `implies` of an `RW` edge (`M(x) ⇝ B(y)` under SI).
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
                let rw = Edge::new(x, y, Label::Rw(Key(0)));
                prop_assert_eq!(a.implies(rw), b.implies(rw), "mid row: {:?}", rw);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reduced incremental oracle against one fed every edge, on both
    /// closure representations: same cycle verdict at the same batch; on
    /// acceptance the same reachability (boundary and mid rows, all
    /// pairs), the same query answers, a valid maintained
    /// order, every dropped edge implied, and the kept list alone
    /// rebuilding the same reachability — which is what lets
    /// `Polygraph::known` hold only the kept edges.
    #[test]
    fn incremental_equals_from_scratch(plan in plan_strategy()) {
        let cyclic_at = first_cyclic_prefix(&plan);
        for kind in [OracleKind::Dense, OracleKind::Chains] {
            let Reduced { g, kept } = match drive(&plan, kind, EAGER) {
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
            let full = match KnownGraph::build(plan.n, plan.edges.clone(), plan.semantics) {
                KnownGraphResult::Acyclic(f) => f,
                KnownGraphResult::Cyclic { .. } => unreachable!("no cyclic prefix"),
            };
            prop_assert_eq!(full.oracle_kind(), OracleKind::Dense, "the reference is dense");
            assert_same_answers(&g, &full, plan.n, plan.semantics)?;
            // The maintained topo positions are a valid order for the
            // final reachability.
            let pos = g.layered_order();
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
            let rebuilt = match KnownGraph::build(plan.n, reduced, plan.semantics) {
                KnownGraphResult::Acyclic(r) => r,
                KnownGraphResult::Cyclic { cycle: c, .. } => {
                    return Err(TestCaseError::fail(format!("reduced list is cyclic: {c:?}")));
                }
            };
            assert_same_answers(&rebuilt, &full, plan.n, plan.semantics)?;
        }
    }

    /// The staged paths — the apply phase's (stage every batch, flush once
    /// at the very end) and a checkpoint delta's (one flush per call) —
    /// answer like the eager per-call path: same verdict at the same
    /// batch, valid witnesses (checked in `drive`), and — on acceptance —
    /// the same reachability from every boundary and mid node. Which edges
    /// are *kept* may differ: the implied test reads the at-flush closure,
    /// so it depends on the flush points. This is what lets pruning batch
    /// closure propagation across a whole apply phase without changing
    /// results.
    #[test]
    fn deferred_batching_equals_eager(plan in plan_strategy()) {
        let eager = drive(&plan, OracleKind::Dense, EAGER);
        for policy in [DEFERRED, BULK] {
            match (&eager, drive(&plan, OracleKind::Dense, policy)) {
                (Ok(eager), Ok(staged)) => {
                    assert_same_answers(&eager.g, &staged.g, plan.n, plan.semantics)?;
                }
                (Err((e_end, _)), Err((s_end, _))) => {
                    prop_assert_eq!(*e_end, s_end, "violation surfaced at a different batch");
                }
                (eager, staged) => {
                    return Err(TestCaseError::fail(format!(
                        "verdicts diverged: eager={:?} {:?}={:?}",
                        eager.is_ok(), policy, staged.is_ok()
                    )));
                }
            }
        }
    }
}
