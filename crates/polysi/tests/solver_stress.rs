//! The solver-stress templates (`polysi::dbsim::corpus`) decide at the
//! Solve stage, and their verdicts are anchored against the independent
//! brute-force Theorem-6 oracle and the Cobra baselines — their
//! singleton-session structure defeats the operational replay search, but
//! two writers per cell keep the oracle's version-order enumeration tiny.

use polysi::baselines::{cobra_check_ser, cobra_si_check, CobraOptions, SerVerdict, SiVerdict};
use polysi::checker::engine::{check, EngineOptions, IsolationLevel};
use polysi::checker::Outcome;
use polysi::dbsim::corpus::{overlapping_clique, write_skew_lattice};

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
    let stats = si.solver_stats.expect("solved");
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
