//! The prune stage at the polygraph level: the reduced known-edge list,
//! the surviving constraints and the counterexample cycle are
//! byte-identical for every closure store and for every way of reaching
//! the first pass (constraints stored, generated, or resumed on a warm
//! oracle), and the pairs a first pass narrows away
//! (`ConstraintGen::covers`, a whole unit's and a stream delta's) change
//! no verdict. Shard-worker counts at the engine level are rows of the
//! mode matrix, checked with the counter digests in `tests/obs.rs`.

use materialized::{check_covers, check_delta_covers, prune_materialized};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::dbsim::{run, IsolationLevel as Store, SimConfig};
use polysi::history::{Facts, Key, ShardPlan, TxnId};
use polysi::polygraph::{
    ConstraintGen, ConstraintMode, ConstraintSet, Edge, Flush, KnownGraph, KnownGraphResult, Label,
    OracleKind, Polygraph, PruneResult, PruneStats, Semantics,
};
use polysi::workloads::{multi_component, GeneralParams, KeyDistribution};
use polysi_obs::Tracer;
use proptest::prelude::*;
use rebuild::prune_by_rebuild;

mod support;

/// The textbook Algorithm-1 loop the production prune is held against.
mod rebuild {
    include!("../../polygraph/tests/support/rebuild.rs");
}

/// The materialize-then-prune loop the fused first pass is held against.
mod materialized {
    include!("../../polygraph/tests/support/materialized.rs");
}

/// The constraint generator's other consumers: every constraint stored
/// (`pruning: false`) and the plain expansion (`ConstraintMode::Plain`,
/// pruned through the generated first pass) reach batch's verdicts.
#[test]
fn store_all_and_plain_rows_reach_batch_verdicts() {
    support::check_modes(&["no prune", "plain"], |_, _, _| {});
}

/// Only the first pass of a pruning check narrows the pairs: everything
/// that stores constraints without it keeps all k(k−1)/2 writer pairs of a
/// key — `ConstraintGen::store` and `Polygraph::from_history` (Table 3's
/// and Figure 10's input), `pruning: false` (Figure 10's "w/o P") and the
/// Cobra baselines. Two session-ordered chains of blind writers: 3 and 6
/// pairs, of which the pruning engine generates the 2 and 3 covers.
#[test]
fn only_the_first_pass_narrows_the_pairs() {
    use polysi::baselines::{cobra_check_ser, cobra_si_check, CobraOptions};
    use polysi::checker::engine::{check, EngineOptions, IsolationLevel};
    let mut b = polysi::history::HistoryBuilder::new();
    for (key, writers) in [(1u64, 3u64), (2, 4)] {
        b.session();
        for v in 1..=writers {
            b.begin().write(Key(key), polysi::history::Value(v)).commit();
        }
    }
    let h = b.build();
    let facts = Facts::analyze(&h);
    let every = 3 + 6;
    let gen =
        Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, Semantics::Si).1;
    assert_eq!(gen.store().len(), every);
    let mut table3 = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
    assert_eq!(table3.constraints.len(), every);
    let PruneResult::Pruned(stats) = table3.prune(&Tracer::disabled()).0 else {
        panic!("session-ordered writers are SI")
    };
    assert_eq!(stats.constraints_before, every);
    for (mode, pruning, constraints) in [
        (ConstraintMode::Generalized, true, 2 + 3),
        (ConstraintMode::Generalized, false, every),
        (ConstraintMode::Plain, false, every),
    ] {
        let opts = EngineOptions { mode, pruning, interpret: false, ..Default::default() };
        let report = check(&h, IsolationLevel::Si, &opts);
        assert!(report.accepted());
        match report.prune_stats {
            Some(stats) => assert_eq!(stats.constraints_before, constraints, "{mode:?}"),
            None => assert_eq!(report.encode_stats.vars, constraints, "{mode:?}"),
        }
    }
    assert_eq!(cobra_check_ser(&h, &CobraOptions::default()).1.constraints, every);
    assert_eq!(cobra_si_check(&h).1.constraints, every);
}

/// Polygraph-level: `Polygraph::known` after prune — the reduced list of
/// materialised edges, not just its length — is byte-identical for every
/// oracle representation, under SI and SER; and the
/// incremental oracle agrees with the unreduced rebuild loop on every
/// verdict and, on acceptance, on the surviving constraints and on the
/// reachability of the known graph.
#[test]
fn resolved_edge_sets_are_identical() {
    let tracer = Tracer::disabled();
    let mut violations = 0usize;
    let mut reduced = 0usize;
    for case in conformance_corpus(0xD15C_0C0A, 1, 16) {
        let facts = Facts::analyze(&case.history);
        if !facts.axioms_ok() {
            continue;
        }
        for semantics in [Semantics::Si, Semantics::Ser] {
            let (mut base, gen) = Polygraph::from_history_with(
                &case.history,
                &facts,
                ConstraintMode::Generalized,
                semantics,
            );
            base.constraints = gen.store();
            let outcome = |g: Polygraph, result: PruneResult| {
                let witness = match result {
                    PruneResult::Pruned(_) => None,
                    PruneResult::Violation(c) => Some(c),
                };
                (witness, g.known, g.constraints)
            };
            let mut g = base.clone();
            let pruned = g.prune(&tracer);
            let result = handed_back(&mut g, pruned);
            let seq = outcome(g, result);
            // Either store, pinned: a pre-built oracle resumed with every
            // transaction seeded sweeps exactly what `prune` sweeps over the
            // stored constraints, and what `prune_generated` sweeps over
            // none stored but all generated (both narrow the pairs).
            let generated = Polygraph { constraints: ConstraintSet::new(), ..base.clone() };
            let mut g = generated.clone();
            let pruned = g.prune_generated(&gen, &tracer);
            let result = handed_back(&mut g, pruned);
            let generated_seq = outcome(g, result);
            let inputs = [
                ("stored", &base, &ConstraintGen::default(), &seq),
                ("generated", &generated, &gen, &generated_seq),
            ];
            for kind in [OracleKind::Dense, OracleKind::Chains] {
                for (input, from, gen, want) in inputs {
                    let mut g = from.clone();
                    let known = std::mem::take(&mut g.known);
                    let result = match KnownGraph::build_pinned(g.n, known, semantics, kind) {
                        KnownGraphResult::Cyclic { cycle, known } => {
                            g.known = known;
                            PruneResult::Violation(cycle)
                        }
                        KnownGraphResult::Acyclic(kg) => {
                            assert_eq!(kg.oracle_kind(), kind);
                            let pruned = g.prune_resume(kg, &vec![true; base.n], gen, &tracer);
                            handed_back(&mut g, pruned)
                        }
                    };
                    assert!(
                        *want == outcome(g, result),
                        "{}: {semantics:?} oracle={kind:?} {input} diverged",
                        case.name
                    );
                }
            }
            let mut rebuild = base.clone();
            let accepted = prune_by_rebuild(&mut rebuild);
            assert_eq!(
                seq.0.is_none(),
                accepted,
                "{}: rebuild and incremental verdicts diverged",
                case.name
            );
            if accepted {
                assert!(
                    seq.2 == rebuild.constraints,
                    "{}: surviving constraints diverged",
                    case.name
                );
                assert!(seq.1.len() <= rebuild.known.len());
                reduced += (seq.1.len() < rebuild.known.len()) as usize;
                // The reduced list reaches what the full one does, from
                // boundary and mid nodes alike (on a sample of pairs).
                let oracle =
                    |known: &[Edge]| match KnownGraph::build(base.n, known.to_vec(), semantics) {
                        KnownGraphResult::Acyclic(g) => g,
                        KnownGraphResult::Cyclic { cycle, .. } => {
                            panic!("accepted prune left a cycle: {cycle:?}")
                        }
                    };
                let (reduced, full) = (oracle(&seq.1), oracle(&rebuild.known));
                let sample: Vec<u32> = (0..base.n as u32).step_by(base.n / 40 + 1).collect();
                for (&x, &y) in sample.iter().flat_map(|x| sample.iter().map(move |y| (x, y))) {
                    let (tx, ty) = (TxnId(x), TxnId(y));
                    assert_eq!(reduced.reaches(tx, ty), full.reaches(tx, ty), "{x} ⇝ {y}");
                    let rw = Edge::new(tx, ty, Label::Rw(Key(1)));
                    assert_eq!(reduced.implies(rw), full.implies(rw), "mid row of {x} ⇝ {y}");
                }
            } else {
                violations += 1;
            }
        }
    }
    assert!(violations > 0, "corpus exercised no prune-time violations");
    assert!(reduced > 0, "corpus exercised no implied resolved edge");
}

/// A stream checkpoint's resume: stored survivors plus a delta's pairs
/// (`ConstraintGen::delta`) prune exactly as the same survivors with the
/// pairs the warm oracle leaves to decide (`ConstraintGen::covers`) stored
/// after them, seeded with the endpoints of all the delta's pairs too —
/// the same stats, `known` list and surviving constraints, or the same
/// witness and what the failing pass kept. On every oracle store, under SI
/// and SER, each corpus history cut twice into a stored prefix and a delta
/// whose new writers pair with every earlier writer, and every third
/// prefix pair regenerated.
#[test]
fn a_delta_generator_resumes_as_if_stored_first() {
    let (mut accepted, mut violations, mut decided, mut omitted) = (0usize, 0usize, 0usize, 0);
    for case in conformance_corpus(0xDE17_A6E4, 1, 16) {
        let facts = Facts::analyze(&case.history);
        if !facts.axioms_ok() {
            continue;
        }
        for semantics in [Semantics::Si, Semantics::Ser] {
            let (base, _) = Polygraph::from_history_with(
                &case.history,
                &facts,
                ConstraintMode::Generalized,
                semantics,
            );
            for from in [base.n as u32 / 3, 2 * base.n as u32 / 3] {
                let mut writes: Vec<(Key, TxnId)> = Vec::new();
                let (mut prefix, mut regen) = (Vec::new(), Vec::new());
                for (&key, writers) in &facts.writers {
                    for (i, &s) in writers.iter().enumerate() {
                        if s.0 >= from {
                            writes.push((key, s));
                            continue;
                        }
                        for &t in &writers[..i] {
                            let pairs = if (t.0 + s.0) % 3 == 0 { &mut regen } else { &mut prefix };
                            pairs.push((key, t, s));
                        }
                    }
                }
                // Final writes arrive in transaction order.
                writes.sort_unstable_by_key(|&(key, w)| (w, key));
                regen.sort_unstable();
                let id = |t: TxnId| t;
                let stored = ConstraintGen::delta(&facts, [], &prefix, id).store();
                let delta = ConstraintGen::delta(&facts, writes, &regen, id);
                let seed: Vec<bool> = (0..base.n as u32).map(|t| t >= from).collect();
                let (mut seed_all, mut stored_all) = (seed.clone(), stored.clone());
                delta.mark_endpoints(&mut seed_all);
                let Ok(kg) = base.clone().known_graph() else { continue };
                let narrowed = delta.covers(&kg);
                omitted += narrowed.omitted();
                stored_all.extend(narrowed.store());
                for kind in [OracleKind::Dense, OracleKind::Chains] {
                    let label = format!("{}: {semantics:?} oracle={kind:?} from={from}", case.name);
                    let Some((got, got_known, got_left)) =
                        resume_pinned(&base, kind, &stored, &seed, &delta)
                    else {
                        continue;
                    };
                    let default = ConstraintGen::default();
                    let (want, want_known, want_left) =
                        resume_pinned(&base, kind, &stored_all, &seed_all, &default)
                            .expect("the same oracle");
                    assert!(got_known == want_known, "{label}: known lists diverged");
                    match (got, want) {
                        (PruneResult::Pruned(got), PruneResult::Pruned(want)) => {
                            assert_eq!(got, want, "{label}");
                            assert!(got_left == want_left, "{label}: survivors diverged");
                            accepted += 1;
                            decided += (got.constraints_stored < stored_all.len()) as usize;
                        }
                        (PruneResult::Violation(got), PruneResult::Violation(want)) => {
                            assert_eq!(got, want, "{label}");
                            // A first-pass violation stops before its
                            // survivors and keeps its stored input.
                            let kept = if want_left == stored_all { &stored } else { &want_left };
                            assert!(got_left == *kept, "{label}: kept constraints diverged");
                            violations += 1;
                        }
                        _ => panic!("{label}: verdicts diverged"),
                    }
                }
            }
        }
    }
    assert!(accepted > 0 && violations > 0, "{accepted} accepted, {violations} violations");
    assert!(decided > 0, "no first pass decided a constraint");
    assert!(omitted > 0, "no delta pair was narrowed away");
}

/// A prune's result, its oracle's known edges handed back to `g` (where
/// the reference loops leave theirs).
fn handed_back(
    g: &mut Polygraph,
    (result, kg): (PruneResult, Option<Box<KnownGraph>>),
) -> PruneResult {
    if let Some(kg) = kg {
        g.known = kg.into_edges();
    }
    result
}

/// `g` with `constraints` stored, resumed from its known graph pinned to
/// `kind`; `None` if that graph is cyclic.
fn resume_pinned(
    g: &Polygraph,
    kind: OracleKind,
    constraints: &ConstraintSet,
    seed: &[bool],
    gen: &ConstraintGen,
) -> Option<(PruneResult, Vec<Edge>, ConstraintSet)> {
    let mut g = Polygraph { constraints: constraints.clone(), ..g.clone() };
    let known = std::mem::take(&mut g.known);
    let KnownGraphResult::Acyclic(kg) = KnownGraph::build_pinned(g.n, known, g.semantics, kind)
    else {
        return None;
    };
    let pruned = g.prune_resume(kg, seed, gen, &Tracer::disabled());
    let result = handed_back(&mut g, pruned);
    Some((result, g.known, g.constraints))
}

/// A prune's witness (`None` on acceptance) and, on acceptance, its stats
/// with `constraints_stored` cleared (the reference has no storing pass)
/// and the surviving constraints, plus the known list either way. A
/// storing prune stored what survived and no more than was generated.
type Outcome = (Option<Vec<Edge>>, Option<(PruneStats, ConstraintSet)>, Vec<Edge>);

fn outcome(g: &Polygraph, result: PruneResult, storing: bool) -> Outcome {
    match result {
        PruneResult::Violation(cycle) => (Some(cycle), None, g.known.clone()),
        PruneResult::Pruned(stats) => {
            let (before, stored, after) =
                (stats.constraints_before, stats.constraints_stored, stats.constraints_after);
            assert!(!storing || (after <= stored && stored <= before), "{stats:?}");
            let stats = PruneStats { constraints_stored: 0, ..stats };
            (None, Some((stats, g.constraints.clone())), g.known.clone())
        }
    }
}

/// Every unit of `h` as the engine constructs it: the whole history, and
/// each component's own history when it shards.
fn units(
    h: &polysi::history::History,
    facts: &Facts,
    mode: ConstraintMode,
    semantics: Semantics,
) -> Vec<(Polygraph, ConstraintGen)> {
    let mut units = vec![Polygraph::from_history_with(h, facts, mode, semantics)];
    let plan = ShardPlan::analyze(h);
    if plan.is_shardable() {
        units.extend(plan.components.iter().map(|comp| {
            let h = h.restrict(&comp.sessions);
            Polygraph::from_history_with(&h, &Facts::analyze(&h), mode, semantics)
        }));
    }
    units
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A component's own history and facts — the unit a sharded check
    /// builds — give the polygraph that the whole history's facts give for
    /// the component (`Polygraph::from_component`, the stream's
    /// construction): the same known edges and stored constraints, in the
    /// same order and the same local ids, under SI and SER.
    #[test]
    fn a_component_history_builds_what_the_whole_facts_build(
        seed in 0u64..1 << 32,
        components in 2usize..5,
    ) {
        let base = GeneralParams {
            sessions: 2 + (seed % 3) as usize,
            txns_per_session: 4 + (seed % 10) as usize,
            ops_per_txn: 2 + (seed % 4) as usize,
            keys: 4 + seed % 12,
            read_pct: 30 + (seed % 50) as u32,
            dist: KeyDistribution::Uniform,
            seed,
        };
        let store = SimConfig::new(Store::SnapshotIsolation, seed);
        let h = run(&multi_component(&base, components), &store).history;
        let facts = Facts::analyze(&h);
        prop_assume!(facts.axioms_ok());
        let plan = ShardPlan::analyze(&h);
        for comp in &plan.components {
            let own = h.restrict(&comp.sessions);
            let own_facts = Facts::analyze(&own);
            let so: Vec<_> =
                comp.txns.iter().filter_map(|&t| h.so_successor(t).map(|s| (t, s))).collect();
            let local = |t: TxnId| comp.local(t).expect("a transaction of the component");
            for semantics in [Semantics::Si, Semantics::Ser] {
                let mode = ConstraintMode::Generalized;
                let (mut a, gen_a) = Polygraph::from_history_with(&own, &own_facts, mode, semantics);
                let (mut b, gen_b) =
                    Polygraph::from_component(&so, &facts, mode, semantics, comp, &local);
                (a.constraints, b.constraints) = (gen_a.store(), gen_b.store());
                prop_assert_eq!((a.n, &a.known, &a.constraints), (b.n, &b.known, &b.constraints));
            }
        }
    }

    /// The fused first pass — the pairs its oracle leaves to decide
    /// generated, tested, and stored only when undecided — is the
    /// materialize-then-prune loop over those pairs: the same witness,
    /// `known` list, surviving constraints and stats, under SI and SER,
    /// generalized and plain; and `Polygraph::prune` over every pair
    /// stored is that loop over every pair.
    #[test]
    fn fused_first_pass_is_materialize_then_prune(
        seed in 0u64..1 << 32,
        components in 1usize..4,
        level in 0usize..4,
    ) {
        let store = [Store::SnapshotIsolation, Store::Serializable, Store::StaleSnapshot,
            Store::NoWriteConflictDetection][level];
        let base = GeneralParams {
            sessions: 2 + (seed % 4) as usize,
            txns_per_session: 4 + (seed % 12) as usize,
            ops_per_txn: 2 + (seed % 5) as usize,
            keys: 6 + seed % 24,
            read_pct: 30 + (seed % 50) as u32,
            dist: if seed % 2 == 0 { KeyDistribution::Uniform } else { KeyDistribution::Zipfian },
            seed,
        };
        let h = run(&multi_component(&base, components), &SimConfig::new(store, seed)).history;
        let facts = Facts::analyze(&h);
        prop_assume!(facts.axioms_ok());
        let tracer = Tracer::disabled();
        for semantics in [Semantics::Si, Semantics::Ser] {
            for mode in [ConstraintMode::Generalized, ConstraintMode::Plain] {
                for (g, gen) in units(&h, &facts, mode, semantics) {
                    let reference = |constraints: ConstraintSet| {
                        let mut reference = Polygraph { constraints, ..g.clone() };
                        let result = prune_materialized(&mut reference);
                        outcome(&reference, result, false)
                    };
                    let mut stored = g.clone();
                    stored.constraints = gen.store();
                    let want = reference(stored.constraints.clone());
                    let covers = match g.clone().known_graph() {
                        Ok(kg) => gen.covers(&kg).store(),
                        Err(_) => ConstraintSet::new(),
                    };
                    let want_fused = reference(covers);
                    let label = format!("{semantics:?} {mode:?}");
                    let mut fused = g.clone();
                    let pruned = fused.prune_generated(&gen, &tracer);
                    let result = handed_back(&mut fused, pruned);
                    prop_assert_eq!(&outcome(&fused, result, true), &want_fused, "{}", label);
                    let mut again = stored.clone();
                    let pruned = again.prune(&tracer);
                    let result = handed_back(&mut again, pruned);
                    prop_assert_eq!(&outcome(&again, result, true), &want, "{} stored", label);
                }
            }
        }
    }
}

/// Soundness of the narrowed first pass: on random SI and SER histories
/// (simulated under four store levels, so some violate), generalized and
/// plain, pruning the pairs `ConstraintGen::covers` keeps reaches the
/// verdict, the survivors and the `B`-to-`B` reachability that pruning
/// every pair reaches, and every edge an omitted pair would have forced is
/// implied by the final oracle or redundant (`materialized::check_covers`).
#[test]
fn covers_prune_as_every_pair_does() {
    let mut seen = materialized::CoversSeen::default();
    let mut rng = 0x00C0_7E25u64;
    for case in 0..48u64 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let seed = rng >> 16;
        let store = [
            Store::SnapshotIsolation,
            Store::Serializable,
            Store::StaleSnapshot,
            Store::NoWriteConflictDetection,
        ][case as usize % 4];
        let base = GeneralParams {
            sessions: 2 + (seed % 4) as usize,
            txns_per_session: 6 + (seed % 16) as usize,
            ops_per_txn: 2 + (seed % 4) as usize,
            keys: 3 + seed % 8,
            read_pct: 30 + (seed % 50) as u32,
            dist: if seed.is_multiple_of(2) {
                KeyDistribution::Uniform
            } else {
                KeyDistribution::Zipfian
            },
            seed,
        };
        let h = run(&multi_component(&base, 1), &SimConfig::new(store, seed)).history;
        let facts = Facts::analyze(&h);
        if !facts.axioms_ok() {
            continue;
        }
        for semantics in [Semantics::Si, Semantics::Ser] {
            for mode in [ConstraintMode::Generalized, ConstraintMode::Plain] {
                let (g, gen) = Polygraph::from_history_with(&h, &facts, mode, semantics);
                let one = check_covers(&g, &gen).unwrap_or_else(|e| {
                    panic!("seed {seed} {store:?} {semantics:?} {mode:?}: {e}")
                });
                seen.omitted += one.omitted;
                seen.implied += one.implied;
                seen.redundant += one.redundant;
            }
        }
    }
    eprintln!("{seen:?}");
    assert!(seen.omitted > 0 && seen.implied > 0, "nothing omitted: {seen:?}");
    assert!(seen.redundant > 0, "no omitted edge needed the redundancy argument: {seen:?}");
}

/// Soundness of a narrowed stream delta (`Polygraph::prune_resume` over
/// `ConstraintGen::covers` of a `ConstraintGen::delta`), two checkpoints at
/// the polygraph level: on random SI and SER histories (simulated under
/// four store levels, so some violate), the pairs of the writers before a
/// cut are pruned first, narrowed, as earlier checkpoints would have (so
/// some are settled without being generated); then the writers from the
/// cut on arrive as one delta, and every third survivor still open is
/// regenerated. Pruning the delta's kept pairs reaches the verdict that
/// pruning all its pairs reaches, and every edge an omitted delta pair
/// would have forced is implied by the final oracle or redundant
/// (`materialized::check_delta_covers`). The delta pairs omitted include
/// ones whose new writer is ordered before an old one.
#[test]
fn delta_covers_prune_as_every_pair_does() {
    let (mut seen, mut settled) = (materialized::CoversSeen::default(), 0);
    let mut rng = 0x0DE1_7A5Eu64;
    for case in 0..32u64 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let seed = rng >> 16;
        let store = [
            Store::SnapshotIsolation,
            Store::Serializable,
            Store::StaleSnapshot,
            Store::NoWriteConflictDetection,
        ][case as usize % 4];
        let base = GeneralParams {
            sessions: 2 + (seed % 4) as usize,
            txns_per_session: 6 + (seed % 12) as usize,
            ops_per_txn: 2 + (seed % 4) as usize,
            keys: 3 + seed % 6,
            read_pct: 30 + (seed % 50) as u32,
            dist: if seed.is_multiple_of(2) {
                KeyDistribution::Uniform
            } else {
                KeyDistribution::Zipfian
            },
            seed,
        };
        let h = run(&multi_component(&base, 1), &SimConfig::new(store, seed)).history;
        let facts = Facts::analyze(&h);
        if !facts.axioms_ok() {
            continue;
        }
        let id = |t: TxnId| t;
        for semantics in [Semantics::Si, Semantics::Ser] {
            let (base, _) =
                Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, semantics);
            for from in [base.n as u32 / 2, 3 * base.n as u32 / 4] {
                let (mut old, mut writes) = (Vec::new(), Vec::new());
                for (&key, writers) in &facts.writers {
                    for (i, &s) in writers.iter().enumerate() {
                        if s.0 >= from {
                            writes.push((key, s));
                        } else {
                            old.extend(writers[..i].iter().map(|&t| (key, t, s)));
                        }
                    }
                }
                writes.sort_unstable_by_key(|&(key, w)| (w, key));
                // The earlier checkpoints: the old pairs, narrowed.
                let mut g = base.clone();
                let earlier = ConstraintGen::delta(&facts, [], &old, id);
                let (PruneResult::Pruned(_), Some(kg)) =
                    g.prune_generated(&earlier, &Tracer::disabled())
                else {
                    continue;
                };
                settled += earlier.covers(&kg).omitted();
                // Open pairs that gained a reader are dropped and regenerated.
                let mut regen = Vec::new();
                g.constraints.retain(|i, c| {
                    let ww = c.either[0];
                    let open = !kg.reaches(ww.from, ww.to) && !kg.reaches(ww.to, ww.from);
                    let again = open && i % 3 == 0;
                    if again {
                        regen.push((c.key, ww.from.min(ww.to), ww.from.max(ww.to)));
                    }
                    !again
                });
                regen.sort_unstable();
                // The component's known edges, as its oracle holds them.
                g.known = kg.into_edges();
                let delta = ConstraintGen::delta(&facts, writes, &regen, id);
                let touched: Vec<bool> = (0..base.n as u32).map(|t| t >= from).collect();
                let one = check_delta_covers(&g, &touched, &delta).unwrap_or_else(|e| {
                    panic!("seed {seed} {store:?} {semantics:?} from={from}: {e}")
                });
                seen.omitted += one.omitted;
                seen.implied += one.implied;
                seen.redundant += one.redundant;
                seen.later_first += one.later_first;
            }
        }
    }
    eprintln!("{seen:?}, {settled} settled earlier");
    assert!(seen.omitted > 0 && seen.implied > 0, "nothing omitted: {seen:?}");
    assert!(settled > 0, "no earlier pair was settled without being generated");
    assert!(seen.later_first > 0, "no omitted pair put its new writer first: {seen:?}");
}
