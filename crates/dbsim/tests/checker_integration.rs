//! Cross-validation between the simulator and the PolySI checker:
//! correct isolation levels must always be accepted; each fault class must
//! eventually be caught, with the right anomaly classification.

use polysi_checker::{check, Anomaly, EngineOptions, IsolationLevel as Level, Outcome};
use polysi_dbsim::{run, IsolationLevel, SimConfig};
use polysi_workloads::{generate, GeneralParams};

fn contended(seed: u64) -> GeneralParams {
    GeneralParams {
        sessions: 6,
        txns_per_session: 25,
        ops_per_txn: 4,
        keys: 8,
        read_pct: 50,
        seed,
        ..Default::default()
    }
}

#[test]
fn snapshot_isolation_histories_always_accepted() {
    for seed in 0..10 {
        let plan = generate(&contended(seed));
        let out = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, seed));
        let report = check(&out.history, Level::Si, &EngineOptions::default());
        assert!(
            report.accepted(),
            "seed {seed}: SI simulator produced a rejected history:\n{:?}",
            out.history
        );
    }
}

#[test]
fn serializable_histories_always_accepted() {
    for seed in 0..10 {
        let plan = generate(&contended(seed));
        let out = run(&plan, &SimConfig::new(IsolationLevel::Serializable, seed));
        assert!(
            check(&out.history, Level::Si, &EngineOptions::default()).accepted(),
            "seed {seed}"
        );
    }
}

/// Run a fault level over seeds; return how many runs were rejected and the
/// anomaly classes observed.
fn hunt(level: IsolationLevel, seeds: std::ops::Range<u64>) -> (usize, Vec<Anomaly>) {
    let mut rejected = 0;
    let mut anomalies = Vec::new();
    for seed in seeds {
        let plan = generate(&contended(seed));
        let out = run(&plan, &SimConfig::new(level, seed));
        let report = check(&out.history, Level::Si, &EngineOptions::default());
        match report.outcome {
            Outcome::Si | Outcome::Inconclusive(_) => {}
            Outcome::CyclicViolation(v) => {
                rejected += 1;
                anomalies.push(v.anomaly);
            }
            Outcome::AxiomViolations(_) => rejected += 1,
        }
    }
    (rejected, anomalies)
}

#[test]
fn lost_update_fault_is_caught_as_lost_update() {
    let (rejected, anomalies) = hunt(IsolationLevel::NoWriteConflictDetection, 0..15);
    assert!(rejected >= 10, "only {rejected}/15 runs rejected");
    assert!(
        anomalies.contains(&Anomaly::LostUpdate),
        "no lost-update classification in {anomalies:?}"
    );
}

#[test]
fn stale_snapshot_fault_is_caught() {
    let (rejected, anomalies) = hunt(IsolationLevel::StaleSnapshot, 0..15);
    assert!(rejected >= 8, "only {rejected}/15 runs rejected");
    assert!(
        anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::CausalityViolation | Anomaly::WriteReadCycle)),
        "no causality-flavoured classification in {anomalies:?}"
    );
}

#[test]
fn per_key_snapshot_fault_is_caught() {
    let (rejected, _) = hunt(IsolationLevel::PerKeySnapshot, 0..15);
    assert!(rejected >= 8, "only {rejected}/15 runs rejected");
}

#[test]
fn read_committed_fault_is_caught() {
    let (rejected, _) = hunt(IsolationLevel::ReadCommitted, 0..15);
    assert!(rejected >= 8, "only {rejected}/15 runs rejected");
}

#[test]
fn read_uncommitted_fault_yields_axiom_violations() {
    let mut axiom_hits = 0;
    for seed in 0..15 {
        let plan = generate(&contended(seed));
        let out = run(&plan, &SimConfig::new(IsolationLevel::ReadUncommitted, seed));
        if let Outcome::AxiomViolations(_) =
            check(&out.history, Level::Si, &EngineOptions::default()).outcome
        {
            axiom_hits += 1;
        }
    }
    assert!(axiom_hits >= 5, "only {axiom_hits}/15 runs hit axiom violations");
}

#[test]
fn checker_and_operational_replay_agree_on_small_runs() {
    use polysi_dbsim::{replay_check_si, ReplayResult};
    for seed in 0..30 {
        for level in [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::NoWriteConflictDetection,
            IsolationLevel::StaleSnapshot,
        ] {
            let plan = generate(&GeneralParams {
                sessions: 3,
                txns_per_session: 4,
                ops_per_txn: 3,
                keys: 3,
                seed,
                ..Default::default()
            });
            let out = run(&plan, &SimConfig::new(level, seed));
            let poly = check(&out.history, Level::Si, &EngineOptions::default()).accepted();
            match replay_check_si(&out.history, 2_000_000) {
                ReplayResult::Si => assert!(poly, "seed {seed} {level:?}: replay=SI polysi=No"),
                ReplayResult::NotSi => {
                    assert!(!poly, "seed {seed} {level:?}: replay=NotSi polysi=SI")
                }
                ReplayResult::Budget => {}
            }
        }
    }
}
