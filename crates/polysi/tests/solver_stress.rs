//! The solver-stress templates (`polysi::dbsim::corpus`) decide at the
//! Solve stage, and their verdicts are anchored against the independent
//! brute-force Theorem-6 oracle and the Cobra baselines — their
//! singleton-session structure defeats the operational replay search, but
//! two writers per cell keep the oracle's version-order enumeration tiny.

use polysi::baselines::{cobra_check_ser, cobra_si_check, CobraOptions, SerVerdict, SiVerdict};
use polysi::checker::engine::{check, EngineOptions, IsolationLevel, PruneThreads};
use polysi::checker::Outcome;
use polysi::dbsim::corpus::{overlapping_clique, write_skew_lattice};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::dbsim::{self, SimConfig};
use polysi::workloads::{generate, GeneralParams};

/// The stress templates do what their docs promise: constraints survive
/// pruning in cell count, SI accepts both, SER rejects the lattice at the
/// solve stage (a write-skew classification) and accepts the clique — and
/// the independent Theorem-6 oracle plus the Cobra baselines agree.
#[test]
fn solver_stress_templates_have_anchored_verdicts() {
    use polysi::checker::{
        check, oracle::oracle_check_si_with_limit, EngineOptions, IsolationLevel,
    };
    let opts = EngineOptions { interpret: false, ..Default::default() };

    let lattice = write_skew_lattice(0, 5);
    let si = check(&lattice, IsolationLevel::Si, &opts);
    assert!(si.accepted(), "the lattice is SI-valid");
    assert_eq!(
        si.prune_stats.map(|s| s.constraints_after),
        Some(5),
        "one surviving constraint per lattice cell"
    );
    assert!(si.solver_stats.is_some(), "the verdict must come from the solve stage");
    let ser = check(&lattice, IsolationLevel::Ser, &opts);
    assert!(!ser.accepted(), "the lattice is not serializable");
    assert!(
        ser.solver_stats.is_some() && ser.prune_stats.is_some(),
        "the SER rejection must come from the solve stage, not pruning: {:?}",
        ser.prune_stats
    );
    match &ser.outcome {
        Outcome::CyclicViolation(v) => {
            assert!(v.cycle.len() >= 4, "frustration cycles span two cells: {:?}", v.cycle)
        }
        other => panic!("SER must reject the lattice with a cycle: {other:?}"),
    }

    let clique = overlapping_clique(1_000_000, 6);
    let si = check(&clique, IsolationLevel::Si, &opts);
    assert!(si.accepted(), "the clique is SI-valid");
    assert_eq!(si.prune_stats.map(|s| s.constraints_after), Some(7));
    let stats = si.solver_stats.expect("solved");
    assert!(stats.conflicts >= 6, "the hub cascade must cost one conflict per satellite");
    assert!(check(&clique, IsolationLevel::Ser, &opts).accepted(), "the clique is serializable");

    // Independent anchors.
    for (h, expect_si, expect_ser) in [(&lattice, true, false), (&clique, true, true)] {
        assert_eq!(oracle_check_si_with_limit(h, 20_000), expect_si, "Theorem-6 oracle");
        assert_eq!(check(h, IsolationLevel::Si, &EngineOptions::default()).accepted(), expect_si);
        assert_eq!(cobra_si_check(h).0 == SiVerdict::Si, expect_si, "CobraSI");
        assert_eq!(
            cobra_check_ser(h, &CobraOptions::default()).0 == SerVerdict::Serializable,
            expect_ser,
            "Cobra SER"
        );
    }
}

/// The solver's theory propagation opens at the first restart (100
/// conflicts) and ends both cascades there: the full-size lattice — 1 999
/// conflicts and a quarter of a million decisions when the theory only
/// detects — and a 640-satellite clique — one conflict per satellite —
/// are decided within a few conflicts of the gate, with the same verdicts,
/// witnesses and search counters at every prune thread count.
#[test]
fn theory_propagation_ends_the_stress_cascades_at_the_first_restart() {
    let lattice = write_skew_lattice(1, 999);
    let clique = overlapping_clique(1_000_000, 640);
    let run = |threads: PruneThreads| {
        let opts = EngineOptions { interpret: false, prune_threads: threads, ..Default::default() };
        let ser = check(&lattice, IsolationLevel::Ser, &opts);
        let Outcome::CyclicViolation(v) = &ser.outcome else {
            panic!("SER must reject the lattice with a cycle")
        };
        assert!(v.cycle.len() >= 4, "frustration cycles span two cells: {:?}", v.cycle);
        let mut digest = vec![format!("{:?}", v.cycle)];
        for (report, what) in [
            (ser, "lattice SER"),
            (check(&clique, IsolationLevel::Si, &opts), "clique SI"),
            (check(&clique, IsolationLevel::Ser, &opts), "clique SER"),
        ] {
            assert_eq!(report.accepted(), what != "lattice SER", "{what}");
            let stats = report.solver_stats.expect("decided by the solver");
            assert!(stats.conflicts <= 110 && stats.restarts == 1, "{what}: {stats:?}");
            assert!(stats.theory_propagations > 0, "{what}: {stats:?}");
            digest.push(format!("{stats:?}"));
        }
        digest
    };
    let sequential = run(PruneThreads::Fixed(1));
    for threads in [PruneThreads::Fixed(4), PruneThreads::Auto] {
        assert_eq!(sequential, run(threads), "{threads:?} diverged from sequential");
    }
}

/// The downside of propagating is bounded by construction, in counts: a
/// search that never restarts does none of it (the whole conformance
/// corpus, both levels), and one that does spends at most
/// `PROPAGATION_PASSES` = 16 passes over its theory graph per restart —
/// shown on the paper's "w/o pruning" ablation of a general history, whose
/// 10⁵-edge graph would cost an unbudgeted propagation minutes.
#[test]
fn theory_propagation_is_gated_by_restarts_and_bounded_by_its_budget() {
    for case in conformance_corpus(0xD15C_0C0A, 1, 16) {
        for level in [IsolationLevel::Si, IsolationLevel::Ser] {
            for pruning in [true, false] {
                let opts = EngineOptions { interpret: false, pruning, ..Default::default() };
                let Some(stats) = check(&case.history, level, &opts).solver_stats else { continue };
                assert!(
                    stats.restarts > 0 || stats.theory_propagations + stats.theory_visits == 0,
                    "{} {level:?} pruning={pruning}: {stats:?}",
                    case.name
                );
            }
        }
    }

    let params = GeneralParams { txns_per_session: 250, ..Default::default() };
    let config = SimConfig::new(dbsim::IsolationLevel::SnapshotIsolation, params.seed);
    let h = dbsim::run(&generate(&params), &config).history;
    let opts = EngineOptions { interpret: false, pruning: false, ..Default::default() };
    let report = check(&h, IsolationLevel::Si, &opts);
    assert!(report.accepted());
    let stats = report.solver_stats.expect("no pruning: the solver decides");
    assert!(stats.restarts >= 1, "the ablation is hard enough to restart: {stats:?}");
    // The SI theory graph has two nodes per transaction.
    let size = 2 * h.len() + report.encode_stats.known_edges + report.encode_stats.symbolic_edges;
    assert!(
        stats.theory_visits <= 16 * stats.restarts * size as u64,
        "{stats:?} over a theory graph of {size} entries"
    );
}
