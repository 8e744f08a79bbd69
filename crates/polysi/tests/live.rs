//! The live ingest service's delivery contract, property-tested:
//!
//! * **tolerable faults heal exactly** — duplicated deliveries and
//!   bounded within-session reorder produce checkpoint digests
//!   byte-identical to clean delivery, across random interleavings,
//!   cadences, and fault seeds (on the corpus, one row of the mode matrix
//!   per tolerable fault);
//! * **structural faults degrade loudly** — torn transactions, pushes
//!   after seal, empty transactions, reorder beyond the window, and seal
//!   mismatches surface as typed `IngestError`s (zero panics, zero silent
//!   skips) while every other session's verdict is unaffected;
//! * the concurrent [`LiveService`] (one bounded queue, backpressure,
//!   drain thread) reaches the same final verdict as a synchronous run,
//!   and delivers in send order: commit-order sending gets checkpoints
//!   that all accept.

use polysi::checker::engine::{EngineOptions, IsolationLevel};
use polysi::checker::live::Delivery;
use polysi::checker::{LiveChecker, LiveConfig, LiveService};
use polysi::dbsim::faults::{clean_script, FaultPlan, ScriptStep};
use polysi::history::{IngestError, Key, Op, SessionId, TxnId, TxnStatus, Value};
use polysi_obs::Obs;
use proptest::prelude::*;
use std::time::Duration;
use support::{Contract, Proj};

mod support;

/// The live rows of the mode matrix: clean delivery through the hub is
/// checked against batch on every prefix, and duplicated or reordered
/// delivery heals to the clean trail byte for byte, under SI and SER, on
/// every history of the matrix corpus — the deterministic anchor for the
/// proptest below.
#[test]
fn tolerable_faults_heal_to_clean_digests_on_corpus() {
    support::check_modes(&["live", "live duplicates", "live reorders"], |_, _, _| {});
}

// Tolerable faults heal to the clean trail under proptest-chosen
// interleavings, cadences, and fault seeds, both isolation levels.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn tolerable_faults_heal_across_interleavings_and_cadences(
        case_idx in 0usize..1000,
        interleave_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        checkpoints in 1usize..6,
        dup in 0u16..400,
        reorder in 0u16..400,
        ser in any::<bool>(),
    ) {
        let (name, h) = &support::corpus()[case_idx % support::corpus().len()];
        let level = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
        let clean = clean_script(h, checkpoints, interleave_seed);
        let faulty =
            FaultPlan::tolerable(fault_seed, dup, reorder).script(h, checkpoints, interleave_seed);
        let (creport, clean) = support::live(h, level, &clean);
        let (freport, faulty) = support::live(h, level, &faulty);
        prop_assert!(freport.faults.is_empty(), "tolerable faults must be healed");
        let label = format!("{name}/{level:?}/faulty");
        Contract::Same(Proj::Exact, "live").assert(&faulty, &[("live", clean)], level, &label);
        // Healing is visible in the stats whenever the plan actually
        // perturbed something.
        let clean_stats = creport.stats;
        let fault_stats = freport.stats;
        prop_assert_eq!(clean_stats.ingested, fault_stats.ingested);
        prop_assert!(fault_stats.duplicates + fault_stats.healed
            >= fault_stats.delivered.saturating_sub(clean_stats.delivered));
    }
}

// Structural-fault sweep: torn clients, stalled sessions, and malformed
// transactions produce typed errors and abandoned-session reports — and
// never a panic — across proptest-chosen corpora and seeds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn structural_faults_surface_as_typed_errors(
        case_idx in 0usize..1000,
        interleave_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        torn in 0u32..2,
        stalled in 0u32..2,
        malformed in 0u16..300,
    ) {
        let h = &support::corpus()[case_idx % support::corpus().len()].1;
        prop_assume!(h.num_sessions() >= 2 && h.len() >= 4);
        let plan = FaultPlan {
            seed: fault_seed,
            torn_sessions: torn,
            stalled_sessions: stalled,
            malformed,
            ..FaultPlan::clean()
        };
        let steps = plan.script(h, 2, interleave_seed);
        let (report, _) = support::live(h, IsolationLevel::Si, &steps);
        // Every torn delivery in the script surfaced as a TornTransaction.
        let torn_sent = steps
            .iter()
            .filter(|s| matches!(s, ScriptStep::Deliver { msg: Delivery::Torn { .. }, .. }))
            .count();
        let torn_seen = report
            .faults
            .iter()
            .filter(|(_, e)| matches!(e, IngestError::TornTransaction { .. }))
            .count();
        prop_assert_eq!(torn_sent, torn_seen);
        // Stalled sessions (delivered but never sealed) are reported
        // abandoned; torn ones were closed at the crash, every healthy
        // session sealed — so the abandoned list is exactly the stalled
        // set.
        prop_assert_eq!(report.abandoned.len(), stalled as usize);
        // Malformed (empty) transactions are typed, not skipped silently.
        let empty_sent = steps
            .iter()
            .filter(|s| matches!(s, ScriptStep::Deliver { msg: Delivery::Txn { ops, .. }, .. }
                if ops.is_empty()))
            .count();
        let empty_seen = report
            .faults
            .iter()
            .filter(|(_, e)| matches!(e, IngestError::EmptyTransaction { .. }))
            .count();
        prop_assert_eq!(empty_sent, empty_seen);
    }
}

/// Each structural error variant, provoked directly at the hub boundary.
#[test]
fn hub_types_every_structural_fault() {
    let opts = EngineOptions { interpret: false, ..Default::default() };
    let cfg = LiveConfig { checkpoint_every: 0, reorder_window: 2, ..LiveConfig::default() };
    let wop = |k: u64, v: u64| Op::Write { key: Key(k), value: Value(v) };
    let commit = TxnStatus::Committed;

    // Unknown session.
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let err = hub.deliver(SessionId(9), Delivery::Seal { count: 0 });
    assert!(matches!(err, Err(IngestError::UnknownSession { .. })), "{err:?}");

    // Push after seal (a *new* seq; duplicates of old seqs stay fine).
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s = hub.session();
    hub.deliver(s, Delivery::Txn { seq: 0, ops: vec![wop(1, 10)], status: commit }).unwrap();
    hub.deliver(s, Delivery::Seal { count: 1 }).unwrap();
    hub.deliver(s, Delivery::Txn { seq: 0, ops: vec![wop(1, 10)], status: commit })
        .expect("duplicate of an ingested seq is tolerable even after seal");
    let err = hub.deliver(s, Delivery::Txn { seq: 1, ops: vec![wop(1, 11)], status: commit });
    assert!(matches!(err, Err(IngestError::SealedSession { .. })), "{err:?}");

    // Empty transaction: typed, slot consumed, session continues.
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s = hub.session();
    let err = hub.deliver(s, Delivery::Txn { seq: 0, ops: vec![], status: commit });
    assert!(matches!(err, Err(IngestError::EmptyTransaction { .. })), "{err:?}");
    hub.deliver(s, Delivery::Txn { seq: 1, ops: vec![wop(1, 10)], status: commit })
        .expect("the session survives a malformed transaction");
    hub.deliver(s, Delivery::Seal { count: 2 }).expect("seal counts the consumed slot");

    // Reorder beyond the window.
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s = hub.session();
    let err = hub.deliver(s, Delivery::Txn { seq: 5, ops: vec![wop(1, 10)], status: commit });
    assert!(
        matches!(err, Err(IngestError::ReorderBeyondWindow { expected: 0, seq: 5, .. })),
        "{err:?}"
    );

    // Seal mismatch (declared more than delivered).
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s = hub.session();
    hub.deliver(s, Delivery::Txn { seq: 0, ops: vec![wop(1, 10)], status: commit }).unwrap();
    let err = hub.deliver(s, Delivery::Seal { count: 3 });
    assert!(
        matches!(err, Err(IngestError::SealMismatch { declared: 3, delivered: 1, .. })),
        "{err:?}"
    );

    // Torn transaction: abandoned at the last good txn, other sessions
    // unaffected.
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s1 = hub.session();
    let s2 = hub.session();
    hub.deliver(s1, Delivery::Txn { seq: 0, ops: vec![wop(1, 10)], status: commit }).unwrap();
    let err = hub.deliver(s1, Delivery::Torn { seq: 1, ops: vec![wop(2, 20)] });
    assert!(matches!(err, Err(IngestError::TornTransaction { seq: 1, .. })), "{err:?}");
    hub.deliver(s2, Delivery::Txn { seq: 0, ops: vec![wop(3, 30)], status: commit })
        .expect("other sessions continue past a crash");
    hub.deliver(s2, Delivery::Seal { count: 1 }).unwrap();
    let report = hub.finish();
    assert_eq!(report.faults.len(), 1);
    assert!(report.verdict().accepted(), "the surviving prefix is clean");
}

/// Buffered empty transactions drained behind their gap filler are each
/// one fault, recorded once and not returned by the filler's `deliver`;
/// every `ingest.*` counter equals its `LiveStats` field.
#[test]
fn buffered_faults_are_recorded_once() {
    let opts = EngineOptions { interpret: false, ..Default::default() };
    let cfg = LiveConfig { checkpoint_every: 0, ..LiveConfig::default() };
    let obs = Obs::default();
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg).with_obs(obs.clone());
    let s = hub.session();
    let commit = TxnStatus::Committed;
    for seq in [1, 2] {
        hub.deliver(s, Delivery::Txn { seq, ops: vec![], status: commit })
            .expect("ahead of sequence: buffered");
    }
    let filler = vec![Op::Write { key: Key(1), value: Value(10) }];
    hub.deliver(s, Delivery::Txn { seq: 0, ops: filler, status: commit })
        .expect("the gap filler itself is well formed");
    hub.deliver(s, Delivery::Seal { count: 3 }).expect("both empty slots are consumed");
    let report = hub.finish();
    let empty =
        |(_, e): &(SessionId, IngestError)| matches!(e, IngestError::EmptyTransaction { .. });
    assert_eq!(report.faults.len(), 2, "{:?}", report.faults);
    assert!(report.faults.iter().all(empty));

    let counters = obs.metrics.snapshot().counters;
    let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
    let st = report.stats;
    assert_eq!(counter("ingest.faults"), 2);
    assert_eq!(
        ["delivered", "ingested", "duplicates", "healed", "sealed"]
            .map(|f| counter(&format!("ingest.{f}"))),
        [st.delivered, st.ingested, st.duplicates, st.healed, st.sealed].map(|v| v as u64),
    );
    assert_eq!((st.delivered, st.ingested, st.healed, st.sealed), (4, 1, 0, 1));
}

/// The stall watchdog: with the cadence due but a reorder gap open, the
/// checkpoint is deferred up to the patience budget, then fires degraded
/// (flagged, with the stalled session listed).
#[test]
fn stall_watchdog_defers_then_degrades() {
    let opts = EngineOptions { interpret: false, ..Default::default() };
    let cfg = LiveConfig {
        checkpoint_every: 2,
        reorder_window: 8,
        stall_patience: 3,
        ..LiveConfig::default()
    };
    let wop = |k: u64, v: u64| Op::Write { key: Key(k), value: Value(v) };
    let commit = TxnStatus::Committed;
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let s1 = hub.session();
    let s2 = hub.session();
    // s1's seq 0 is missing: seq 1 waits in the buffer.
    hub.deliver(s1, Delivery::Txn { seq: 1, ops: vec![wop(1, 11)], status: commit }).unwrap();
    // s2 keeps delivering; the cadence (every 2 ingests) comes due while
    // s1's gap is open — deferred for `stall_patience` deliveries.
    for i in 0..5u64 {
        hub.deliver(s2, Delivery::Txn { seq: i, ops: vec![wop(10 + i, 100 + i)], status: commit })
            .unwrap();
    }
    let degraded: Vec<_> = hub.checkpoints().iter().filter(|c| c.degraded).collect();
    assert_eq!(degraded.len(), 1, "patience exhausted exactly once");
    assert_eq!(degraded[0].stalled, vec![s1], "the wedged session is named");
    // The gap filler arrives: healing resumes and the next checkpoint is
    // clean again.
    hub.deliver(s1, Delivery::Txn { seq: 0, ops: vec![wop(2, 21)], status: commit }).unwrap();
    let report = hub.finish();
    assert!(!report.checkpoints.last().unwrap().degraded);
    assert_eq!(report.stats.healed, 1);
    assert!(report.verdict().accepted());
}

/// The concurrent service: producers on scoped threads push through the
/// bounded queue (two slots per session — real backpressure) while the
/// drain thread checks; the final verdict digest equals a synchronous
/// clean run's, and no faults are recorded.
#[test]
fn live_service_matches_synchronous_run_under_backpressure() {
    let corpus = support::corpus().iter().filter(|(_, h)| h.num_sessions() >= 2 && !h.is_empty());
    for (name, h) in corpus.take(6) {
        let opts = EngineOptions { interpret: false, ..Default::default() };
        let cfg = LiveConfig {
            checkpoint_every: 8,
            queue_capacity: 2,
            stall_timeout: Duration::from_millis(20),
            ..LiveConfig::default()
        };
        let (service, clients) =
            LiveService::spawn(IsolationLevel::Si, opts, cfg, h.num_sessions());
        let sessions: Vec<Vec<TxnId>> = h
            .sessions()
            .map(|s| (0..s.txns.len() as u32).map(|i| TxnId(s.first.0 + i)).collect())
            .collect();
        std::thread::scope(|scope| {
            for (mut client, txns) in clients.into_iter().zip(sessions) {
                scope.spawn(move || {
                    for id in txns {
                        let t = h.txn(id);
                        client.push(t.ops.clone(), t.status);
                    }
                    client.seal();
                });
            }
        });
        let live = service.finish();
        assert!(live.faults.is_empty(), "{name}: clean concurrent delivery");
        assert!(live.abandoned.is_empty(), "{name}: every session sealed");
        assert_eq!(live.stats.ingested, h.len(), "{name}: every txn ingested");

        // Synchronous reference: the clean script, one final checkpoint.
        // The acceptance decision is interleave-independent; the rejection
        // *classification* may legitimately differ (it is canonical per
        // detecting prefix, and the concurrent run's cadence checkpoints
        // land on different prefixes than the single final one).
        let (sync, _) = support::live(h, IsolationLevel::Si, &clean_script(h, 1, 0));
        assert_eq!(
            live.verdict().accepted(),
            sync.verdict().accepted(),
            "{name}: concurrent final verdict diverged"
        );
    }
}

/// One producer sending a general SI history in commit order — Kahn's
/// algorithm over `SO ∪ WR`, smallest ready id first — through the
/// service: the drain thread delivers in send order, so every cadence
/// checkpoint sees a commit-consistent prefix and accepts, and none is
/// degraded.
#[test]
fn live_service_in_commit_order_accepts_every_checkpoint() {
    use polysi::history::Facts;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let plan = polysi::workloads::generate(&polysi::workloads::GeneralParams {
        txns_per_session: 100,
        ..Default::default()
    });
    let config = polysi::dbsim::SimConfig::new(polysi::dbsim::IsolationLevel::SnapshotIsolation, 7);
    let h = polysi::dbsim::run(&plan, &config).history;
    let facts = Facts::analyze(&h);
    let (mut succs, mut blockers) = (vec![Vec::new(); h.len()], vec![0u32; h.len()]);
    for (from, to) in h.so_edges().chain(facts.wr_edges().map(|(w, r, _)| (w, r))) {
        succs[from.idx()].push(to);
        blockers[to.idx()] += 1;
    }
    let mut ready: BinaryHeap<Reverse<TxnId>> =
        (0..h.len() as u32).map(TxnId).filter(|t| blockers[t.idx()] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(h.len());
    while let Some(Reverse(t)) = ready.pop() {
        order.push(t);
        for &s in &succs[t.idx()] {
            blockers[s.idx()] -= 1;
            if blockers[s.idx()] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    assert_eq!(order.len(), h.len(), "SO ∪ WR of an SI history is acyclic");

    let cfg = LiveConfig { checkpoint_every: h.len() / 8, ..LiveConfig::default() };
    let (service, mut clients) =
        LiveService::spawn(IsolationLevel::Si, EngineOptions::default(), cfg, h.num_sessions());
    for t in order {
        let txn = h.txn(t);
        clients[txn.session.0 as usize].push(txn.ops.clone(), txn.status);
    }
    clients.into_iter().for_each(|client| client.seal());
    let report = service.finish();
    let cadence = h.len() / cfg.checkpoint_every;
    assert_eq!(report.checkpoints.len(), cadence + 1, "the cadence's and the final one");
    for (i, cp) in report.checkpoints.iter().enumerate() {
        let verdict = cp.report.verdict.kind();
        assert!(cp.report.verdict.accepted() && !cp.degraded, "checkpoint {}: {verdict}", i + 1);
    }
}

/// The persisted fault-shaped fixtures byte-match their generating
/// templates (set `POLYSI_WRITE_FIXTURES=1` to regenerate).
#[test]
fn fault_fixtures_match_their_templates() {
    use polysi::dbsim::corpus::{duplicate_delivery_lost_update, stalled_session_long_fork};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, h) in [
        ("duplicate_delivery_lost_update.txt", duplicate_delivery_lost_update(0)),
        ("stalled_session_long_fork.txt", stalled_session_long_fork(0)),
    ] {
        let want = polysi::history::codec::encode(&h);
        let path = dir.join(file);
        if std::env::var_os("POLYSI_WRITE_FIXTURES").is_some() {
            std::fs::write(&path, &want).unwrap();
        }
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file}: {e} (regenerate with POLYSI_WRITE_FIXTURES=1)"));
        assert_eq!(got, want, "{file} drifted from its template");
    }
}

/// A hub built with `LiveChecker::new` and no `with_obs` reports what its
/// checkpoints did through `hub.obs()`: the checker under the hub records
/// into the hub's own registry, so the prune and solver counters of a
/// checkpoint that solves reach it.
#[test]
fn a_default_hub_sees_its_checkpoints_counters() {
    let opts = EngineOptions { interpret: false, ..Default::default() };
    let cfg = LiveConfig { checkpoint_every: 0, ..LiveConfig::default() };
    let mut hub = LiveChecker::new(IsolationLevel::Si, opts, cfg);
    let commit = TxnStatus::Committed;
    // Two blind writers of one key in two sessions: pruning cannot order
    // them, so the checkpoint asks the solver.
    for v in [1, 2] {
        let s = hub.session();
        let ops = vec![Op::Write { key: Key(1), value: Value(v) }];
        hub.deliver(s, Delivery::Txn { seq: 0, ops, status: commit }).unwrap();
    }
    assert!(hub.checkpoint_now().report.verdict.accepted());
    let counter = |name: &str| hub.obs().metrics.counter(name).total();
    assert_eq!(counter("prune.constraints_before"), 1);
    assert!(counter("solver.decisions") > 0, "the checkpoint solved");
}
