//! Differential oracle property tests: the chain-decomposition closure
//! ([`OracleKind::Chains`]) must be *indistinguishable* from the dense
//! `BitMatrix` closure under any random interleaving of
//! `insert_edges` under each flush policy and `grow` — identical
//! reachability answers, identical topological validity,
//! identical cycle verdicts at identical points, byte-identical witness
//! cycles, identical *kept* (non-implied) edge lists, and identical
//! propagation counters — under both SI and SER semantics. Extends the
//! `incremental_prop` patterns (including the deferred≡eager check) to
//! the two-representation setting.
//!
//! A second family grows history-shaped graphs across the size threshold
//! of the representation rule: a [`KnownGraph::build`] oracle that starts
//! dense and converts to chains inside `grow` must be indistinguishable
//! from the dense oracle it replaced, from a chains oracle built that way,
//! and from a fresh chains build. It then states what the streaming
//! checker's compaction relies on: for a predecessor-closed keep set, the
//! uncompacted oracles answer every query on survivor pairs exactly as a
//! [`KnownGraph::build`] over the surviving edges does, whatever the two
//! kinds — and the rebuilt oracles keep growing alike.
//!
//! A third states that [`DepGraph`], the oracle-free graph a
//! counterexample's interpretation searches, asks prune's question: on a
//! random acyclic known graph its refutation of a random constraint side
//! names exactly the first edge the oracle rule calls impossible, and the
//! edge with its refuting path is a violating cycle.

use polysi_history::{Key, TxnId};
use polysi_polygraph::{
    DepGraph, Edge, KnownGraph, KnownGraphResult, Label, OracleKind, Semantics,
};
use proptest::prelude::*;
use support::{Policy, BULK, DEFERRED, EAGER};

mod support;

/// A random edge set plus an application schedule: initial build over a
/// (possibly smaller) vertex space, then batches of the given sizes and
/// flush policies, growing the oracle just-in-time when a batch references
/// transactions beyond the current space.
#[derive(Debug, Clone)]
struct Plan {
    n0: usize,
    edges: Vec<Edge>,
    initial: usize,
    batches: Vec<(usize, Policy)>,
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

fn policy_strategy() -> impl Strategy<Value = Policy> {
    (0usize..3).prop_map(|p| [EAGER, DEFERRED, BULK][p])
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (3u32..10, any::<bool>()).prop_flat_map(|(n, ser)| {
        let edges = prop::collection::vec(edge_strategy(n), 0..20);
        let batches = prop::collection::vec((1usize..5, policy_strategy()), 1..5);
        (edges, batches, 0usize..6, 1u32..n).prop_map(move |(edges, batches, initial, n0)| {
            let initial = initial.min(edges.len());
            // The initial vertex space must cover the initial build.
            let floor =
                edges[..initial].iter().map(|e| e.from.0.max(e.to.0) + 1).max().unwrap_or(1);
            Plan {
                n0: n0.max(floor) as usize,
                edges,
                initial,
                batches,
                semantics: if ser { Semantics::Ser } else { Semantics::Si },
            }
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

/// An accepting run: the final (flushed) oracle, its vertex count, and
/// the edges it kept (the rest were implied).
type Accepted = (Box<KnownGraph>, usize, Vec<Edge>);

/// Drive one oracle over the plan; `force` overrides every batch's policy.
/// Returns the final (flushed) oracle, its vertex count, and the edges it
/// kept (the rest were implied) on acceptance, or the edge position plus
/// the witness on violation. Witnesses are structurally validated here,
/// whichever representation produced them.
fn drive(
    plan: &Plan,
    kind: OracleKind,
    force: Option<Policy>,
) -> Result<Accepted, (usize, Vec<Edge>)> {
    let initial = &plan.edges[..plan.initial];
    let mut g = match KnownGraph::build_pinned(plan.n0, initial.to_vec(), plan.semantics, kind) {
        KnownGraphResult::Acyclic(g) => g,
        KnownGraphResult::Cyclic { cycle, .. } => {
            assert_valid_cycle(&cycle, initial, plan.semantics);
            return Err((plan.initial, cycle));
        }
    };
    let mut cur_n = plan.n0;
    let mut next = plan.initial;
    let mut b = 0;
    while next < plan.edges.len() {
        let (size, policy) = plan.batches[b % plan.batches.len()];
        let policy = force.unwrap_or(policy);
        b += 1;
        let end = (next + size).min(plan.edges.len());
        let batch = &plan.edges[next..end];
        let needed = batch.iter().map(|e| (e.from.0.max(e.to.0) + 1) as usize).max().unwrap_or(0);
        if needed > cur_n {
            g.flush_closure();
            g.grow(needed);
            cur_n = needed;
        }
        match policy.insert(&mut g, batch) {
            Ok(()) => next = end,
            Err(cycle) => {
                assert_valid_cycle(&cycle, &plan.edges[..end], plan.semantics);
                return Err((end, cycle));
            }
        }
    }
    g.flush_closure();
    let kept = g.edges()[plan.initial..].to_vec();
    Ok((g, cur_n, kept))
}

/// Every observable of the two oracles must agree: queries, counters,
/// maintained order.
fn assert_indistinguishable(
    dense: &KnownGraph,
    chains: &KnownGraph,
    n: usize,
    semantics: Semantics,
    plan: &Plan,
) -> Result<(), TestCaseError> {
    // Shared propagation-operation unit (satellite: oracle-neutral
    // `closure_updates`); chain suffixes absorb some dense row growth for
    // free, never the reverse.
    prop_assert!(
        chains.closure_updates() <= dense.closure_updates(),
        "chain oracle propagated more than dense ({} > {}); plan={:?}",
        chains.closure_updates(),
        dense.closure_updates(),
        plan
    );
    prop_assert_eq!(dense.inserted_edges(), chains.inserted_edges());
    prop_assert_eq!(dense.layered_order(), chains.layered_order());
    let pos = chains.layered_order();
    for a in 0..n as u32 {
        for w in 0..n as u32 {
            let (a, w) = (TxnId(a), TxnId(w));
            prop_assert_eq!(dense.reaches(a, w), chains.reaches(a, w), "reaches({:?}, {:?})", a, w);
            if semantics == Semantics::Si && a != w {
                prop_assert_eq!(
                    dense.rw_closes_cycle(a, w),
                    chains.rw_closes_cycle(a, w),
                    "rw_closes_cycle({:?}, {:?})",
                    a,
                    w
                );
            }
            if a != w && chains.reaches(a, w) {
                prop_assert!(
                    pos[a.idx()] < pos[w.idx()],
                    "positions contradict reachability {:?} -> {:?}",
                    a,
                    w
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline differential property: dense and chain oracles driven
    /// through the same random schedule are indistinguishable — same
    /// verdict at the same edge, byte-identical witnesses, identical
    /// queries and counters on acceptance. On acceptance the
    /// incrementally-grown chain oracle is additionally checked against a
    /// from-scratch chain build (cover-assigned chains vs append-assigned
    /// chains must answer identically).
    #[test]
    fn chain_oracle_is_indistinguishable_from_dense(plan in plan_strategy()) {
        match (drive(&plan, OracleKind::Dense, None), drive(&plan, OracleKind::Chains, None)) {
            (Ok((dense, n, dense_kept)), Ok((chains, n2, chains_kept))) => {
                prop_assert_eq!(n, n2);
                prop_assert_eq!(dense_kept, chains_kept, "the reduced edge list depends on the oracle");
                prop_assert_eq!(dense.oracle_kind(), OracleKind::Dense);
                prop_assert_eq!(chains.oracle_kind(), OracleKind::Chains);
                assert_indistinguishable(&dense, &chains, n, plan.semantics, &plan)?;
                // From-scratch chain build over the full edge set.
                let fresh = match KnownGraph::build_pinned(
                    n, plan.edges.clone(), plan.semantics, OracleKind::Chains,
                ) {
                    KnownGraphResult::Acyclic(f) => f,
                    KnownGraphResult::Cyclic { cycle: c, .. } => {
                        return Err(TestCaseError::fail(format!(
                            "incremental chains accepted a cyclic edge set: {c:?}"
                        )));
                    }
                };
                for a in 0..n as u32 {
                    for w in 0..n as u32 {
                        prop_assert_eq!(
                            chains.reaches(TxnId(a), TxnId(w)),
                            fresh.reaches(TxnId(a), TxnId(w)),
                            "grown vs fresh chain oracle: reaches({}, {})", a, w
                        );
                    }
                }
            }
            (Err((de, dc)), Err((ce, cc))) => {
                prop_assert_eq!(de, ce, "violation surfaced at a different edge");
                prop_assert_eq!(dc, cc, "witness cycles diverged");
            }
            (dense, chains) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts diverged: dense={:?} chains={:?}",
                    dense.is_ok(), chains.is_ok()
                )));
            }
        }
    }

    /// Deferred≡eager, on the chain oracle: staging whole batches and
    /// flushing late answers every query like flushing per call — the
    /// cycle checks search the staged adjacency and never depend on the
    /// chain rows' staleness. Which edges are *kept* may differ (the implied test
    /// reads the at-flush closure), so witnesses are compared for
    /// validity (in `drive`), not bytes.
    #[test]
    fn chain_oracle_deferred_equals_eager(plan in plan_strategy()) {
        match (
            drive(&plan, OracleKind::Chains, Some(EAGER)),
            drive(&plan, OracleKind::Chains, Some(DEFERRED)),
        ) {
            (Ok((eager, n, _)), Ok((deferred, n2, _))) => {
                prop_assert_eq!(n, n2);
                for a in 0..n as u32 {
                    for w in 0..n as u32 {
                        prop_assert_eq!(
                            eager.reaches(TxnId(a), TxnId(w)),
                            deferred.reaches(TxnId(a), TxnId(w)),
                            "reaches({}, {}) diverged between eager and deferred", a, w
                        );
                    }
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

// -- The representation follows growth ------------------------------------

/// xorshift64: the big plans derive everything from one proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A history-shaped graph over `n` vertices in arrival order: vertex `v`
/// belongs to session `v % sessions` (one `So` chain each), plus `extra`
/// random cross edges per vertex. Every edge points from the earlier
/// vertex to the later one, so the graph is acyclic and any id suffix is a
/// predecessor-closed keep set. Sorted by target, so a prefix of the list
/// is the graph of a prefix of the arrivals.
fn arrival_graph(rng: &mut Rng, n: usize, sessions: usize, extra: usize) -> Vec<Edge> {
    let mut edges = Vec::new();
    for t in 1..n {
        if t >= sessions {
            edges.push(Edge::new(TxnId((t - sessions) as u32), TxnId(t as u32), Label::So));
        }
        for _ in 0..extra {
            let f = TxnId(rng.below(t) as u32);
            let key = Key(rng.next() % 5);
            let label = [Label::Wr(key), Label::Ww(key), Label::Rw(key)][rng.below(3)];
            edges.push(Edge::new(f, TxnId(t as u32), label));
        }
    }
    edges
}

/// An oracle of the kind the rule picks (`None`) or of a pinned one.
fn build(
    n: usize,
    edges: &[Edge],
    semantics: Semantics,
    kind: Option<OracleKind>,
) -> Box<KnownGraph> {
    let built = match kind {
        None => KnownGraph::build(n, edges.to_vec(), semantics),
        Some(kind) => KnownGraph::build_pinned(n, edges.to_vec(), semantics, kind),
    };
    match built {
        KnownGraphResult::Acyclic(g) => g,
        KnownGraphResult::Cyclic { cycle: c, .. } => panic!("arrival graphs are acyclic: {c:?}"),
    }
}

/// Land `edges` on every oracle through the same schedule of batch sizes
/// under `policy`; returns the edges each oracle kept of them.
fn land(
    oracles: &mut [&mut KnownGraph],
    edges: &[Edge],
    policy: Policy,
    rng: &mut Rng,
) -> Vec<Vec<Edge>> {
    let held: Vec<usize> = oracles.iter().map(|g| g.edges().len()).collect();
    let mut at = 0;
    while at < edges.len() {
        let end = (at + 1 + rng.below(96)).min(edges.len());
        for g in oracles.iter_mut() {
            policy.insert(g, &edges[at..end]).expect("arrival graphs are acyclic");
        }
        at = end;
    }
    for g in oracles.iter_mut() {
        g.flush_closure();
    }
    oracles.iter().zip(held).map(|(g, held)| g.edges()[held..].to_vec()).collect()
}

/// `reaches` / `rw_closes_cycle` / `implies` / `closing_cycle` on sampled
/// pairs of `b`'s `n` vertices (both directions, so cycle-closing edges
/// are covered), asked of `a` about the same vertices `shift` ids up — `b`
/// may be built over the suffix `shift..` of `a`'s vertex space. Under
/// `same_order` (only with `shift` 0) the maintained orders and the
/// witnesses must be identical too.
fn assert_same_answers(
    a: &KnownGraph,
    b: &KnownGraph,
    n: usize,
    shift: usize,
    same_order: bool,
    rng: &mut Rng,
    ctx: &str,
) -> Result<(), TestCaseError> {
    if same_order {
        prop_assert_eq!(a.layered_order(), b.layered_order(), "{}: layered_order", ctx);
    }
    let up = |t: TxnId| TxnId(t.0 + shift as u32);
    for _ in 0..500 {
        let (x, y) = (TxnId(rng.below(n) as u32), TxnId(rng.below(n) as u32));
        let (ax, ay) = (up(x), up(y));
        prop_assert_eq!(a.reaches(ax, ay), b.reaches(x, y), "{}: reaches({:?}, {:?})", ctx, x, y);
        if x == y {
            continue;
        }
        if b.semantics() == Semantics::Si {
            prop_assert_eq!(a.rw_closes_cycle(ax, ay), b.rw_closes_cycle(x, y), "{}: rw", ctx);
        }
        let key = Key(rng.next() % 5);
        for label in [Label::So, Label::Ww(key), Label::Rw(key)] {
            let (ea, e) = (Edge::new(ax, ay, label), Edge::new(x, y, label));
            prop_assert_eq!(a.implies(ea), b.implies(e), "{}: implies({:?})", ctx, e);
            let (ca, cb) = (a.closing_cycle(ea), b.closing_cycle(e));
            if same_order {
                prop_assert_eq!(ca, cb, "{}: cycle({:?})", ctx, e);
            } else {
                prop_assert_eq!(ca.is_some(), cb.is_some(), "{}: cycle({:?})", ctx, e);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A rule-built oracle first built under the size threshold, then grown
    /// across it: `grow` converts it to chains, after which it answers
    /// exactly as the dense oracle it replaced (queries, witnesses, kept
    /// edges, order, counters), as an oracle that was chains from the
    /// start, and as a fresh chains build — under eager, deferred and bulk
    /// insertion. Pinned kinds never move. Then compaction, as the
    /// streaming checker does it: for a predecessor-closed keep set, each
    /// of the three answers on survivor pairs exactly as every build over
    /// the surviving edges, rule-built or pinned; and the rebuilt oracles
    /// keep growing alike. Arrivals land into grown vertices without a
    /// Pearce–Kelly reorder.
    #[test]
    fn auto_oracle_converts_on_growth_and_stays_indistinguishable(
        (seed, sessions, ser, policy) in
            (any::<u64>(), 2usize..24, any::<bool>(), policy_strategy())
    ) {
        let mut rng = Rng(seed | 1);
        let semantics = if ser { Semantics::Ser } else { Semantics::Si };
        let (n0, n1) = (700 + rng.below(300), 1024 + rng.below(200));
        let edges = arrival_graph(&mut rng, n1 + 150, sessions, 2);
        let upto = |n: usize| edges.partition_point(|e| e.to.idx() < n);

        let initial = &edges[..upto(n0)];
        let mut auto = build(n0, initial, semantics, None);
        let mut dense = build(n0, initial, semantics, Some(OracleKind::Dense));
        let mut chains = build(n0, initial, semantics, Some(OracleKind::Chains));
        prop_assert_eq!(auto.oracle_kind(), OracleKind::Dense, "under the threshold");

        // Across the threshold.
        for g in [&mut auto, &mut dense, &mut chains] {
            g.grow(n1);
        }
        prop_assert_eq!(auto.oracle_kind(), OracleKind::Chains, "{} sessions at n = {}", sessions, n1);
        prop_assert_eq!(dense.oracle_kind(), OracleKind::Dense);
        prop_assert!(auto.oracle_bytes() < dense.oracle_bytes());
        assert_same_answers(&auto, &dense, n1, 0, true, &mut rng, "converted vs dense")?;
        let kept = land(
            &mut [&mut auto, &mut dense, &mut chains],
            &edges[upto(n0)..upto(n1)],
            policy,
            &mut rng,
        );
        prop_assert_eq!(&kept[0], &kept[1], "the reduced edge list depends on the conversion");
        prop_assert_eq!(&kept[0], &kept[2]);
        // Every landed edge runs from an earlier arrival into a grown
        // vertex, which `grow` slotted behind it: no edge reorders.
        for g in [&auto, &dense, &chains] {
            prop_assert_eq!(g.reorders(), 0, "{:?} grown", g.oracle_kind());
        }
        prop_assert_eq!(auto.inserted_edges(), dense.inserted_edges());
        prop_assert!(auto.closure_updates() <= dense.closure_updates());
        prop_assert!(chains.closure_updates() <= auto.closure_updates());
        assert_same_answers(&auto, &dense, n1, 0, true, &mut rng, "grown vs dense")?;
        assert_same_answers(&auto, &chains, n1, 0, true, &mut rng, "grown vs chains")?;
        let fresh = build(n1, &edges[..upto(n1)], semantics, Some(OracleKind::Chains));
        assert_same_answers(&auto, &fresh, n1, 0, false, &mut rng, "grown vs fresh")?;

        // Through compaction. Every edge points to a later arrival, so
        // any id suffix is predecessor-closed. The surviving edges are
        // those the oracle holds — the build's and the kept ones, as a
        // compacted component's are — restricted to the suffix and
        // renumbered.
        let cut = n1 / 4 + rng.below(n1 / 2);
        let n2 = n1 - cut;
        let shift = |e: &Edge| {
            Edge::new(TxnId((e.from.idx() - cut) as u32), TxnId((e.to.idx() - cut) as u32), e.label)
        };
        let survivors: Vec<Edge> =
            auto.edges().iter().filter(|e| e.from.idx() >= cut).map(shift).collect();
        let rebuilt = [None, Some(OracleKind::Dense), Some(OracleKind::Chains)]
            .map(|kind| build(n2, &survivors, semantics, kind));
        prop_assert_eq!(rebuilt[0].oracle_kind(), OracleKind::Dense, "the rule at n = {}", n2);
        for (old, name) in [(&auto, "auto"), (&dense, "dense"), (&chains, "chains")] {
            for new in &rebuilt {
                let ctx = format!("{name} vs rebuilt {:?}", new.oracle_kind());
                assert_same_answers(old, new, n2, cut, false, &mut rng, &ctx)?;
            }
        }

        // And the rebuilt oracles keep growing alike.
        let [mut auto, mut dense, mut chains] = rebuilt;
        let n3 = n2 + 150;
        for g in [&mut auto, &mut dense, &mut chains] {
            g.grow(n3);
        }
        let tail: Vec<Edge> =
            edges[upto(n1)..].iter().filter(|e| e.from.idx() >= cut).map(shift).collect();
        let kept = land(&mut [&mut auto, &mut dense, &mut chains], &tail, policy, &mut rng);
        prop_assert_eq!(&kept[0], &kept[1]);
        prop_assert_eq!(&kept[0], &kept[2]);
        for g in [&auto, &dense, &chains] {
            prop_assert_eq!(g.reorders(), 0, "{:?} regrown", g.oracle_kind());
        }
        assert_same_answers(&auto, &dense, n3, 0, true, &mut rng, "regrown vs dense")?;
        assert_same_answers(&auto, &chains, n3, 0, true, &mut rng, "regrown vs chains")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`DepGraph::refute`] is the prune rule behind `edge_impossible`: an
    /// SI `RW` edge `f → t` is impossible iff the oracle says
    /// `rw_closes_cycle(f, t)`, any other edge iff its target reaches its
    /// source. The refutation names the side's first impossible edge, that
    /// edge and its path close a violating cycle over the graph's edges,
    /// and splitting the edges into a base and an overlay changes nothing.
    #[test]
    fn refutation_is_the_prune_rule(
        (n, edges, side, ser, split) in (3u32..10).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(edge_strategy(n), 0..20),
            prop::collection::vec(edge_strategy(n), 1..4),
            any::<bool>(),
            0usize..20,
        ))
    ) {
        let semantics = if ser { Semantics::Ser } else { Semantics::Si };
        let n = n as usize;
        let KnownGraphResult::Acyclic(kg) = KnownGraph::build(n, edges.clone(), semantics) else {
            return Ok(());
        };
        let impossible = |e: &Edge| match (semantics, e.label) {
            (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
            _ => kg.reaches(e.to, e.from),
        };
        let split = split.min(edges.len());
        let mut layered = DepGraph::new(n, &edges[..split], semantics);
        layered.overlay(edges[split..].iter().copied());
        let g = DepGraph::new(n, &edges, semantics);
        // The random side, then every single-edge side of either kind.
        let all = (0..n as u32).flat_map(|f| (0..n as u32).filter(move |&t| t != f).flat_map(
            move |t| [Label::Ww(Key(0)), Label::Rw(Key(0))].map(|l| vec![Edge::new(TxnId(f), TxnId(t), l)]),
        ));
        for side in std::iter::once(side).chain(all) {
            let refuted = g.refute(&side);
            let first = side.iter().copied().find(impossible);
            prop_assert_eq!(refuted.as_ref().map(|(e, _)| *e), first, "side {:?}", side);
            if let Some((e, path)) = &refuted {
                let cycle: Vec<Edge> = std::iter::once(*e).chain(path.iter().copied()).collect();
                assert_valid_cycle(&cycle, &[edges.as_slice(), &[*e]].concat(), semantics);
            }
            prop_assert_eq!(layered.refute(&side), refuted);
        }
    }
}

/// Under SI, `RW` composes only after a `Dep` edge: `WR;RW` is a path,
/// `RW;RW` and a bare `RW` are not.
#[test]
fn reaches_respects_rw_composition() {
    let edges = [
        Edge::new(TxnId(0), TxnId(1), Label::Wr(Key(1))),
        Edge::new(TxnId(1), TxnId(2), Label::Rw(Key(1))),
        Edge::new(TxnId(2), TxnId(3), Label::Rw(Key(2))),
    ];
    let g = DepGraph::new(4, &edges, Semantics::Si);
    assert_eq!(g.find_path(TxnId(0), TxnId(2)), Some(edges[..2].to_vec()));
    assert_eq!(g.find_path(TxnId(0), TxnId(3)), None, "RW;RW must not compose");
    assert_eq!(g.find_path(TxnId(1), TxnId(2)), None, "bare RW does not compose");
}
