//! Determinism of the parallel prune sweep: `--prune-threads 1` and
//! `auto`/fixed-N must produce byte-identical verdicts, known-edge
//! lists, and counterexample cycles across the conformance corpus — the
//! sweep is read-only against the shared oracle and resolutions are
//! applied in constraint order, so thread count is purely a performance
//! knob. This suite is also CI's `--prune-threads auto` conformance run:
//! it exercises the parallel path on every corpus history.

use polysi::checker::engine::{check, EngineOptions, IsolationLevel, PruneThreads, Sharding};
use polysi::checker::Outcome;
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::Facts;
use polysi::polygraph::{
    ConstraintMode, Edge, KnownGraph, KnownGraphResult, Label, OracleKind, Polygraph, PruneOptions,
    PruneResult, Semantics,
};
use polysi_obs::Tracer;
use rebuild::prune_by_rebuild;

/// The textbook Algorithm-1 loop the production prune is held against.
mod rebuild {
    include!("../../polygraph/tests/support/rebuild.rs");
}

const SEED: u64 = 0xD15C_0C0A;

fn corpus() -> &'static [polysi::dbsim::testkit::ConformanceCase] {
    static CORPUS: std::sync::OnceLock<Vec<polysi::dbsim::testkit::ConformanceCase>> =
        std::sync::OnceLock::new();
    CORPUS.get_or_init(|| conformance_corpus(SEED, 1, 16))
}

/// A comparable digest of everything a check run decides, and of the
/// search effort the solver spent deciding it.
fn digest(report: &polysi::checker::CheckReport) -> (bool, String, Option<(usize, usize)>, String) {
    let cycle = match &report.outcome {
        Outcome::CyclicViolation(v) => format!("{:?}", v.cycle),
        Outcome::AxiomViolations(vs) => format!("{vs:?}"),
        Outcome::Si => String::new(),
    };
    (
        report.is_si(),
        cycle,
        report.prune_stats.map(|s| (s.constraints_after, s.unknown_deps_after)),
        format!("{:?}", report.solver_stats),
    )
}

/// Engine-level: thread counts never change verdicts, witness cycles,
/// surviving-constraint counts, or solver counters, sharded or not, for
/// either isolation level.
#[test]
fn prune_threads_are_deterministic_across_corpus() {
    for case in corpus() {
        for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
            for sharding in [Sharding::Off, Sharding::Auto] {
                let run = |threads: PruneThreads| {
                    let opts = EngineOptions {
                        sharding,
                        interpret: false,
                        prune_threads: threads,
                        ..Default::default()
                    };
                    digest(&check(&case.history, isolation, &opts))
                };
                let seq = run(PruneThreads::Fixed(1));
                for threads in [PruneThreads::Fixed(4), PruneThreads::Auto] {
                    assert_eq!(
                        seq,
                        run(threads),
                        "{}: {isolation:?}/{sharding:?}/{threads:?} diverged from sequential",
                        case.name
                    );
                }
            }
        }
    }
}

/// Polygraph-level: `Polygraph::known` after prune — the reduced list of
/// materialised edges, not just its length — is byte-identical for every
/// thread count, chunk size, and oracle representation, under SI and SER;
/// and the incremental oracle agrees with the unreduced rebuild loop on
/// every verdict and, on acceptance, on the surviving constraints.
#[test]
fn resolved_edge_sets_are_identical() {
    let tracer = Tracer::disabled();
    let mut violations = 0usize;
    let mut reduced = 0usize;
    for case in corpus() {
        let facts = Facts::analyze(&case.history);
        if !facts.axioms_ok() {
            continue;
        }
        for semantics in [Semantics::Si, Semantics::Ser] {
            let base = Polygraph::from_history_with(
                &case.history,
                &facts,
                ConstraintMode::Generalized,
                semantics,
            );
            let outcome = |g: Polygraph, result: PruneResult| {
                let witness = match result {
                    PruneResult::Pruned(_) => None,
                    PruneResult::Violation(c) => Some(c),
                };
                (witness, g.known, g.constraints)
            };
            let run = |opts: PruneOptions| {
                let mut g = base.clone();
                let result = g.prune(&opts, &tracer).0;
                outcome(g, result)
            };
            let seq = run(PruneOptions::default());
            for threads in [2usize, 4, 8] {
                // `forced_parallel` runs the threaded sweep on these small
                // corpus worklists; the size cutoff would otherwise route
                // every case through the sequential fallback and compare
                // sequential against sequential.
                for chunk_size in [0usize, 1, 7] {
                    assert!(
                        seq == run(PruneOptions::forced_parallel(threads, chunk_size)),
                        "{}: {semantics:?} threads={threads} chunk={chunk_size} diverged",
                        case.name
                    );
                }
            }
            // Either store, pinned: a pre-built oracle resumed with every
            // transaction seeded sweeps exactly what `prune` sweeps.
            for kind in [OracleKind::Dense, OracleKind::Chains] {
                let mut g = base.clone();
                let result = match KnownGraph::build_pinned(g.n, &g.known, semantics, kind) {
                    KnownGraphResult::Cyclic(cycle) => PruneResult::Violation(cycle),
                    KnownGraphResult::Acyclic(kg) => {
                        assert_eq!(kg.oracle_kind(), kind);
                        let opts = PruneOptions::forced_parallel(4, 0);
                        g.prune_resume(kg, &vec![true; base.n], &opts, &tracer).0
                    }
                };
                assert!(
                    seq == outcome(g, result),
                    "{}: {semantics:?} oracle={kind:?} diverged",
                    case.name
                );
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
            } else {
                violations += 1;
            }
        }
    }
    assert!(violations > 0, "corpus exercised no prune-time violations");
    assert!(reduced > 0, "corpus exercised no implied resolved edge");
}
