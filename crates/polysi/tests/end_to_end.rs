//! End-to-end integration tests spanning the whole workspace:
//! workload generation → database simulation → (de)serialization →
//! checking → interpretation.

use polysi::checker::{check, EngineOptions, IsolationLevel as Level, Outcome};
use polysi::dbsim::{run, table2_profiles, IsolationLevel, SimConfig};
use polysi::history::{codec, stats::HistoryStats};
use polysi::workloads::{generate, GeneralParams, KeyDistribution};

fn params(seed: u64) -> GeneralParams {
    GeneralParams {
        sessions: 5,
        txns_per_session: 20,
        ops_per_txn: 5,
        keys: 12,
        read_pct: 50,
        seed,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_accepts_si_databases() {
    for dist in [KeyDistribution::Uniform, KeyDistribution::Zipfian, KeyDistribution::Hotspot] {
        let plan = generate(&GeneralParams { dist, ..params(1) });
        let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 1));
        assert!(check(&sim.history, Level::Si, &EngineOptions::default()).accepted(), "{dist:?}");
    }
}

#[test]
fn histories_survive_codec_round_trip_with_same_verdict() {
    for seed in 0..5 {
        for level in [IsolationLevel::SnapshotIsolation, IsolationLevel::NoWriteConflictDetection] {
            let plan = generate(&params(seed));
            let sim = run(&plan, &SimConfig::new(level, seed));
            let text = codec::encode(&sim.history);
            let parsed = codec::decode(&text).expect("round trip");
            assert_eq!(sim.history, parsed);
            let a = check(&sim.history, Level::Si, &EngineOptions::default()).accepted();
            let b = check(&parsed, Level::Si, &EngineOptions::default()).accepted();
            assert_eq!(a, b);
        }
    }
}

#[test]
fn every_table2_profile_is_caught_within_bounded_runs() {
    for profile in table2_profiles() {
        let mut caught = false;
        for seed in 0..40u64 {
            let plan = generate(&GeneralParams { keys: 8, ..params(seed) });
            let sim = run(&plan, &SimConfig::new(profile.level, seed));
            if !check(&sim.history, Level::Si, &EngineOptions::default()).accepted() {
                caught = true;
                break;
            }
        }
        assert!(caught, "{} never produced a detectable violation", profile.name);
    }
}

#[test]
fn interpretation_scenarios_reference_real_transactions() {
    let plan = generate(&GeneralParams { keys: 6, read_pct: 40, ..params(3) });
    let sim = run(&plan, &SimConfig::new(IsolationLevel::NoWriteConflictDetection, 3));
    let report = check(&sim.history, Level::Si, &EngineOptions::default());
    if let Outcome::CyclicViolation(v) = &report.outcome {
        let s = v.scenario.as_ref().expect("interpretation on by default");
        let n = sim.history.len() as u32;
        for t in &s.transactions {
            assert!(t.0 < n, "scenario references out-of-range transaction {t:?}");
        }
        // Finalized edges connect scenario participants.
        for e in &s.finalized {
            assert!(s.transactions.contains(&e.from));
            assert!(s.transactions.contains(&e.to));
        }
        // The DOT render mentions every participant.
        let dot = polysi::checker::dot::scenario_to_dot(&sim.history, s);
        for t in &s.transactions {
            assert!(dot.contains(&format!("t{} ", t.0)), "node t{} missing", t.0);
        }
    }
}

#[test]
fn stats_reflect_generated_workload_shape() {
    let p = GeneralParams { read_pct: 80, ..params(9) };
    let plan = generate(&p);
    let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 9));
    let stats = HistoryStats::of(&sim.history);
    assert_eq!(stats.sessions, p.sessions);
    assert_eq!(stats.txns, p.sessions * p.txns_per_session);
    assert!((stats.read_fraction() - 0.8).abs() < 0.1);
}

#[test]
fn higher_isolation_levels_nest() {
    // Every serializable run must also pass the SI checker — SER is
    // strictly stronger (Figure 1 of the paper).
    for seed in 0..5 {
        let plan = generate(&params(seed));
        let ser = run(&plan, &SimConfig::new(IsolationLevel::Serializable, seed));
        assert!(
            check(&ser.history, Level::Si, &EngineOptions::default()).accepted(),
            "seed {seed}"
        );
    }
}
