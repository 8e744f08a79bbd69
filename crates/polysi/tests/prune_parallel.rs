//! Determinism of the parallel prune sweep at the polygraph level: the
//! reduced known-edge list, the surviving constraints and the
//! counterexample cycle are byte-identical for every thread count and
//! closure store (the sweep is read-only against the shared oracle and
//! resolutions are applied in constraint order). Thread counts at the
//! engine level are rows of the mode matrix: the unsharded ones here, the
//! sharded ones with the counter digests in `tests/obs.rs`.

use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::Facts;
use polysi::polygraph::{
    ConstraintMode, Edge, KnownGraph, KnownGraphResult, Label, OracleKind, Polygraph, PruneOptions,
    PruneResult, Semantics,
};
use polysi_obs::json::Value;
use polysi_obs::Tracer;
use rebuild::prune_by_rebuild;
use support::Proj;

mod support;

/// The textbook Algorithm-1 loop the production prune is held against.
mod rebuild {
    include!("../../polygraph/tests/support/rebuild.rs");
}

/// The unsharded prune-thread rows of the mode matrix: one and four sweep
/// threads give byte-identical reports and counter digests, under SI and
/// SER, on every history of the matrix corpus — including histories whose
/// cycle the prune itself finds.
#[test]
fn prune_threads_are_deterministic_across_corpus() {
    let mut prune_cycles = 0usize;
    support::check_modes(&["prune 1 unsharded", "prune 4 unsharded"], |_, _, runs| {
        // A cycle pruning found leaves the unit without prune counters.
        let unsharded = support::run_of(runs, "batch unsharded").trail[0].view(Proj::Exact);
        prune_cycles += (unsharded.get("verdict").and_then(Value::as_str)
            == Some("cyclic_violation")
            && unsharded.get("prune") == Some(&Value::Null)) as usize;
    });
    assert!(prune_cycles > 0, "pruning never found the violation");
}

/// Polygraph-level: `Polygraph::known` after prune — the reduced list of
/// materialised edges, not just its length — is byte-identical for every
/// thread count and oracle representation, under SI and SER; and the
/// incremental oracle agrees with the unreduced rebuild loop on every
/// verdict and, on acceptance, on the surviving constraints.
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
                assert!(
                    seq == run(PruneOptions::forced_parallel(threads)),
                    "{}: {semantics:?} threads={threads} diverged",
                    case.name
                );
            }
            // Either store, pinned: a pre-built oracle resumed with every
            // transaction seeded sweeps exactly what `prune` sweeps.
            for kind in [OracleKind::Dense, OracleKind::Chains] {
                let mut g = base.clone();
                let result = match KnownGraph::build_pinned(g.n, &g.known, semantics, kind) {
                    KnownGraphResult::Cyclic(cycle) => PruneResult::Violation(cycle),
                    KnownGraphResult::Acyclic(kg) => {
                        assert_eq!(kg.oracle_kind(), kind);
                        let opts = PruneOptions::forced_parallel(4);
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
