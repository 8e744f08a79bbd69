//! Cross-checker agreement: PolySI, dbcop, and CobraSI must return the same
//! SI verdict on simulator histories; Cobra's SER verdict must imply SI
//! (the isolation-level hierarchy of the paper's Figure 1).

use polysi_baselines::{
    cobra_check_ser, cobra_si_check, dbcop_check_si, CobraOptions, DbcopVerdict, SerVerdict,
    SiVerdict,
};
use polysi_checker::{check, EngineOptions, IsolationLevel as Level};
use polysi_dbsim::{run, IsolationLevel, SimConfig};
use polysi_workloads::{generate, GeneralParams};

fn sims() -> impl Iterator<Item = polysi_history::History> {
    let levels = [
        IsolationLevel::Serializable,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::NoWriteConflictDetection,
        IsolationLevel::StaleSnapshot,
        IsolationLevel::PerKeySnapshot,
        IsolationLevel::ReadCommitted,
    ];
    (0..12u64).flat_map(move |seed| {
        levels.into_iter().map(move |level| {
            let plan = generate(&GeneralParams {
                sessions: 3,
                txns_per_session: 5,
                ops_per_txn: 3,
                keys: 4,
                read_pct: 50,
                seed,
                ..Default::default()
            });
            run(&plan, &SimConfig::new(level, seed)).history
        })
    })
}

#[test]
fn polysi_dbcop_cobrasi_agree() {
    for (i, h) in sims().enumerate() {
        let poly = check(&h, Level::Si, &EngineOptions::default()).accepted();
        let dbcop = dbcop_check_si(&h, 5_000_000);
        let cobrasi = cobra_si_check(&h).0;
        match dbcop.verdict {
            DbcopVerdict::Si => assert!(poly, "case {i}: dbcop=Si polysi=NotSi\n{h:?}"),
            DbcopVerdict::NotSi => assert!(!poly, "case {i}: dbcop=NotSi polysi=Si\n{h:?}"),
            DbcopVerdict::Timeout => {}
        }
        assert_eq!(
            cobrasi == SiVerdict::Si,
            poly,
            "case {i}: CobraSI disagrees with PolySI\n{h:?}"
        );
    }
}

#[test]
fn serializability_implies_si() {
    for (i, h) in sims().enumerate() {
        let (ser, _) = cobra_check_ser(&h, &CobraOptions::default());
        if ser == SerVerdict::Serializable {
            assert!(
                check(&h, Level::Si, &EngineOptions::default()).accepted(),
                "case {i}: SER but not SI — hierarchy violated\n{h:?}"
            );
        }
    }
}

#[test]
fn serializable_sim_runs_pass_cobra() {
    for seed in 0..10u64 {
        let plan = generate(&GeneralParams {
            sessions: 4,
            txns_per_session: 10,
            ops_per_txn: 4,
            keys: 6,
            seed,
            ..Default::default()
        });
        let out = run(&plan, &SimConfig::new(IsolationLevel::Serializable, seed));
        let (verdict, _) = cobra_check_ser(&out.history, &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::Serializable, "seed {seed}");
    }
}

/// The engine's first-class SER mode and the independent Cobra baseline
/// must agree on every simulated history — the baselines crate's own
/// differential anchor for the isolation-level promotion.
#[test]
fn engine_ser_mode_agrees_with_cobra() {
    use polysi_checker::engine::{check, EngineOptions, IsolationLevel as Level};
    let opts = EngineOptions { interpret: false, ..Default::default() };
    for (i, h) in sims().enumerate() {
        let engine = check(&h, Level::Ser, &opts).accepted();
        let (cobra, _) = cobra_check_ser(&h, &CobraOptions::default());
        assert_eq!(
            engine,
            cobra == SerVerdict::Serializable,
            "case {i}: engine SER disagrees with Cobra\n{h:?}"
        );
    }
}

#[test]
fn si_sim_runs_can_violate_ser_but_not_si() {
    // Write skew should eventually appear: SI accepts, SER rejects.
    let mut saw_skew = false;
    for seed in 0..25u64 {
        let plan = generate(&GeneralParams {
            sessions: 4,
            txns_per_session: 10,
            ops_per_txn: 4,
            keys: 4,
            read_pct: 60,
            seed,
            ..Default::default()
        });
        let out = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, seed));
        assert!(
            check(&out.history, Level::Si, &EngineOptions::default()).accepted(),
            "seed {seed}"
        );
        let (ser, _) = cobra_check_ser(&out.history, &CobraOptions::default());
        if ser == SerVerdict::NotSerializable {
            saw_skew = true;
        }
    }
    assert!(saw_skew, "no SI-but-not-SER run in 25 seeds (write skew expected)");
}
