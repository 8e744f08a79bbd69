//! Determinism of the parallel Solve stage: `--solve-threads 1`, `4`, and
//! `auto` — and the explicit cube / portfolio modes — must produce
//! byte-identical verdicts, witness cycles, and report digests across the
//! conformance corpus and the solver-stress templates, for both isolation
//! levels, sharded or not. A SAT cube is a model of the instance and an
//! UNSAT witness is extracted from the polygraph (never from worker
//! state), so worker count is purely a performance knob. This suite is
//! also CI's `--solve-threads auto` conformance run.
//!
//! The solver-stress templates (`polysi::dbsim::corpus`) are additionally
//! anchored against the independent brute-force Theorem-6 oracle and the
//! Cobra baselines — their singleton-session structure defeats the
//! operational replay search, but two writers per cell keep the oracle's
//! version-order enumeration tiny.

use polysi::baselines::{cobra_check_ser, cobra_si_check, CobraOptions, SerVerdict, SiVerdict};
use polysi::checker::engine::{
    check, EngineOptions, IsolationLevel, Sharding, SolveMode, SolveThreads,
};
use polysi::checker::solve::{solve_polygraph, solve_polygraph_with, SolvePlan};
use polysi::checker::Outcome;
use polysi::dbsim::corpus::{overlapping_clique, write_skew_lattice};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::{Facts, History, Key, TxnId};
use polysi::polygraph::{
    ConstraintMode, ConstraintSet, Edge, KnownGraph, KnownGraphResult, Label, Polygraph, Semantics,
};
use proptest::prelude::*;

const SEED: u64 = 0x50_17E;

fn corpus() -> &'static [polysi::dbsim::testkit::ConformanceCase] {
    static CORPUS: std::sync::OnceLock<Vec<polysi::dbsim::testkit::ConformanceCase>> =
        std::sync::OnceLock::new();
    CORPUS.get_or_init(|| conformance_corpus(SEED, 1, 16))
}

/// The solver-stress histories swept alongside the corpus.
fn stress_cases() -> Vec<(String, History)> {
    vec![
        ("stress/write-skew-lattice-3".into(), write_skew_lattice(0, 3)),
        ("stress/write-skew-lattice-9".into(), write_skew_lattice(100_000, 9)),
        ("stress/overlapping-clique-4".into(), overlapping_clique(200_000, 4)),
        ("stress/overlapping-clique-12".into(), overlapping_clique(300_000, 12)),
    ]
}

/// A comparable digest of everything a check run decides.
fn digest(report: &polysi::checker::CheckReport) -> (bool, String, Option<(usize, usize)>, usize) {
    let cycle = match &report.outcome {
        Outcome::CyclicViolation(v) => format!("{:?}", v.cycle),
        Outcome::AxiomViolations(vs) => format!("{vs:?}"),
        Outcome::Si => String::new(),
    };
    (
        report.is_si(),
        cycle,
        report.prune_stats.map(|s| (s.constraints_after, s.unknown_deps_after)),
        report.encode_stats.vars,
    )
}

#[test]
fn solve_threads_are_deterministic_across_corpus() {
    let mut histories: Vec<(String, History)> = stress_cases();
    for case in corpus() {
        histories.push((case.name.clone(), case.history.clone()));
    }
    for (name, h) in &histories {
        for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
            for sharding in [Sharding::Off, Sharding::Auto] {
                let run = |threads: SolveThreads, mode: SolveMode| {
                    let opts = EngineOptions {
                        sharding,
                        interpret: false,
                        solve_threads: threads,
                        solve_mode: mode,
                        ..Default::default()
                    };
                    digest(&check(h, isolation, &opts))
                };
                let seq = run(SolveThreads::Fixed(1), SolveMode::Auto);
                for threads in [SolveThreads::Fixed(4), SolveThreads::Auto] {
                    for mode in [SolveMode::Auto, SolveMode::Cube, SolveMode::Portfolio] {
                        assert_eq!(
                            seq,
                            run(threads, mode),
                            "{name}: {isolation:?}/{sharding:?}/{threads:?}/{mode:?} \
                             diverged from sequential",
                        );
                    }
                }
            }
        }
    }
}

/// The stress templates do what their docs promise: constraints survive
/// pruning in cell count, SI accepts both, SER rejects the lattice at the
/// solve stage (a write-skew classification) and accepts the clique — and
/// the independent Theorem-6 oracle plus the Cobra baselines agree.
#[test]
fn solver_stress_templates_have_anchored_verdicts() {
    use polysi::checker::{check_si, oracle::oracle_check_si_with_limit, CheckOptions};
    let opts = EngineOptions { interpret: false, ..Default::default() };

    let lattice = write_skew_lattice(0, 5);
    let si = check(&lattice, IsolationLevel::Si, &opts);
    assert!(si.is_si(), "the lattice is SI-valid");
    assert_eq!(
        si.prune_stats.map(|s| s.constraints_after),
        Some(5),
        "one surviving constraint per lattice cell"
    );
    assert!(si.solver_stats.is_some(), "the verdict must come from the solve stage");
    let ser = check(&lattice, IsolationLevel::Ser, &opts);
    assert!(!ser.is_si(), "the lattice is not serializable");
    assert!(
        ser.solver_stats.is_some() && ser.prune_stats.is_some(),
        "the SER rejection must come from the solve stage, not pruning: {:?}",
        ser.prune_stats
    );
    match &ser.outcome {
        Outcome::CyclicViolation(v) => {
            assert!(v.cycle.len() >= 4, "frustration cycles span two cells: {:?}", v.cycle)
        }
        Outcome::Si => panic!("SER must reject the lattice"),
        Outcome::AxiomViolations(vs) => panic!("unexpected axiom violations: {vs:?}"),
    }

    let clique = overlapping_clique(1_000_000, 6);
    let si = check(&clique, IsolationLevel::Si, &opts);
    assert!(si.is_si(), "the clique is SI-valid");
    assert_eq!(si.prune_stats.map(|s| s.constraints_after), Some(7));
    // Search counters depend on which portfolio worker wins; only the
    // sequential solver's count is a function of the instance.
    let seq = EngineOptions { solve_threads: SolveThreads::Fixed(1), ..opts };
    let stats = check(&clique, IsolationLevel::Si, &seq).solver_stats.expect("solved");
    assert!(stats.conflicts >= 6, "the hub cascade must cost one conflict per satellite");
    assert!(check(&clique, IsolationLevel::Ser, &opts).is_si(), "the clique is serializable");

    // Independent anchors.
    for (h, expect_si, expect_ser) in [(&lattice, true, false), (&clique, true, true)] {
        assert_eq!(oracle_check_si_with_limit(h, 20_000), expect_si, "Theorem-6 oracle");
        assert_eq!(check_si(h, &CheckOptions::default()).is_si(), expect_si);
        assert_eq!(cobra_si_check(h).0 == SiVerdict::Si, expect_si, "CobraSI");
        assert_eq!(
            cobra_check_ser(h, &CobraOptions::default()).0 == SerVerdict::Serializable,
            expect_ser,
            "Cobra SER"
        );
    }
}

/// The cube ranking provably puts the clique's hub selector first, and a
/// cube run resolves the instance with a fraction of the sequential
/// conflicts (the assumption-level conflict effect the solve bench
/// measures at scale).
#[test]
fn clique_cube_run_beats_sequential_conflicts() {
    let h = overlapping_clique(0, 24);
    let facts = Facts::analyze(&h);
    assert!(facts.axioms_ok());
    let mut g = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
    assert!(matches!(g.prune(), polysi::polygraph::PruneResult::Pruned(_)));
    let degrees: Vec<u32> =
        (0..h.len() as u32).map(|i| facts.txn_degree(TxnId(i)) as u32).collect();
    let seq = solve_polygraph_with(
        &g,
        true,
        Some(&degrees),
        &SolvePlan { mode: SolveMode::Sequential, threads: 1 },
    );
    let cube = solve_polygraph_with(
        &g,
        true,
        Some(&degrees),
        &SolvePlan { mode: SolveMode::Cube, threads: 1 },
    );
    assert!(seq.0 && cube.0, "both accept");
    assert!(
        cube.1.solver.conflicts * 4 <= seq.1.solver.conflicts,
        "cube ({}) must need far fewer conflicts than sequential ({})",
        cube.1.solver.conflicts,
        seq.1.solver.conflicts
    );
}

// -- cube ≡ sequential on random polygraphs --------------------------------

#[derive(Debug, Clone)]
struct RandomPolygraph {
    n: usize,
    known: Vec<Edge>,
    constraints: Vec<(Vec<Edge>, Vec<Edge>)>,
    semantics: Semantics,
}

fn edge_strategy(n: u32) -> impl Strategy<Value = Edge> {
    (0..n, 0..n - 1, 0u8..4, 0u64..3).prop_map(move |(f, t0, kind, key)| {
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

fn polygraph_strategy() -> impl Strategy<Value = RandomPolygraph> {
    (4u32..10, any::<bool>()).prop_flat_map(|(n, ser)| {
        let known = prop::collection::vec(edge_strategy(n), 0..10);
        let constraints = prop::collection::vec(
            (
                prop::collection::vec(edge_strategy(n), 1..3),
                prop::collection::vec(edge_strategy(n), 1..3),
            ),
            0..9,
        );
        (known, constraints).prop_map(move |(known, constraints)| RandomPolygraph {
            n: n as usize,
            known,
            constraints,
            semantics: if ser { Semantics::Ser } else { Semantics::Si },
        })
    })
}

fn build(rp: &RandomPolygraph) -> Polygraph {
    let mut constraints = ConstraintSet::new();
    for (either, or) in &rp.constraints {
        constraints.push(Key(0), either.iter().copied(), or.iter().copied());
    }
    Polygraph { n: rp.n, known: rp.known.clone(), constraints, semantics: rp.semantics }
}

/// Ground truth by enumeration: some resolution of the constraints is
/// acyclic (Definition 15 — the instance is SAT iff one exists).
fn enumerate_sat(g: &Polygraph) -> bool {
    let c = g.constraints.len();
    assert!(c <= 12, "enumeration bound");
    (0..(1u32 << c)).any(|mask| {
        let mut edges = g.known.clone();
        for (i, cons) in g.constraints.iter().enumerate() {
            edges.extend_from_slice(if mask >> i & 1 == 0 { cons.either } else { cons.or });
        }
        matches!(KnownGraph::build_with(g.n, &edges, g.semantics), KnownGraphResult::Acyclic(_))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cube-and-conquer and the portfolio decide exactly what the
    /// sequential solver decides — which is exactly the existence of an
    /// acyclic resolution — on random polygraphs under both semantics,
    /// at several worker counts. Model validity on SAT is enforced
    /// internally (the solver cross-checks every model against the full
    /// theory before returning it).
    #[test]
    fn cube_and_portfolio_equal_sequential(rp in polygraph_strategy()) {
        let g = build(&rp);
        let truth = enumerate_sat(&g);
        let seq = solve_polygraph(&g, true, &SolvePlan { mode: SolveMode::Sequential, threads: 1 });
        prop_assert_eq!(seq.0, truth, "sequential solver diverged from enumeration");
        for mode in [SolveMode::Cube, SolveMode::Portfolio] {
            for threads in [1usize, 3] {
                let par = solve_polygraph(&g, true, &SolvePlan { mode, threads });
                prop_assert_eq!(par.0, truth, "{:?}/{} diverged", mode, threads);
            }
        }
        // Phase seeding off exercises the unseeded cube polarities too.
        let unseeded = solve_polygraph(&g, false, &SolvePlan { mode: SolveMode::Cube, threads: 2 });
        prop_assert_eq!(unseeded.0, truth);
    }
}
