//! Streaming ≡ batch: the `StreamingChecker`'s verdict at *every*
//! checkpoint must equal the batch `CheckEngine` verdict on the same
//! prefix — including the axiom-violation list on broken prefixes and the
//! full canonical report (witness included) on the first rejection — for
//! both isolation levels, sharded and not, across the conformance corpus
//! and across proptest-chosen interleavings and checkpoint placements.

use polysi::checker::engine::{check, EngineOptions, IsolationLevel, Sharding};
use polysi::checker::{CheckReport, Outcome, StreamVerdict, StreamingChecker};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::{History, SessionId, TxnId};
use proptest::prelude::*;

/// A stable digest of a batch report's verdict, the finalized scenario of
/// the interpretation included (where interpretation ran).
fn digest(report: &CheckReport) -> String {
    match &report.outcome {
        Outcome::Si => "ok".into(),
        Outcome::AxiomViolations(vs) => format!("axioms:{vs:?}"),
        Outcome::CyclicViolation(v) => format!(
            "cycle:{}:{:?}:{:?}",
            v.anomaly,
            v.cycle,
            v.scenario.as_ref().map(|s| &s.finalized)
        ),
    }
}

/// The matching digest of a streaming checkpoint verdict.
fn stream_digest(verdict: &StreamVerdict, checker: &StreamingChecker) -> String {
    match verdict {
        StreamVerdict::Accepted => "ok".into(),
        StreamVerdict::AxiomViolations { violations, .. } => format!("axioms:{violations:?}"),
        StreamVerdict::Rejected { .. } => {
            digest(&checker.rejection().expect("rejected stream has a canonical report").report)
        }
    }
}

/// Replay `h` into a fresh checker along `order` (arrival positions into
/// the session-major id space), checkpointing after the transaction
/// counts in `stops`; at every checkpoint assert the streaming digest
/// equals the batch digest on the snapshot prefix. Stops early on the
/// (terminal) first rejection, asserting batch rejects the full history
/// too.
fn assert_replay_matches_batch(
    h: &History,
    order: &[TxnId],
    stops: &[usize],
    isolation: IsolationLevel,
    opts: EngineOptions,
    label: &str,
) {
    let mut checker = StreamingChecker::new(isolation, opts);
    let sessions: Vec<SessionId> = (0..h.num_sessions()).map(|_| checker.session()).collect();
    let mut next_stop = 0usize;
    for (i, &id) in order.iter().enumerate() {
        let txn = h.txn(id);
        checker.push_transaction(sessions[txn.session.0 as usize], txn.ops.clone(), txn.status);
        while next_stop < stops.len() && i + 1 == stops[next_stop] {
            next_stop += 1;
            let (prefix, _) = checker.stream().snapshot();
            let batch = check(&prefix, isolation, &opts);
            let cp = checker.checkpoint();
            assert_eq!(
                stream_digest(&cp.verdict, &checker),
                digest(&batch),
                "{label}: checkpoint {} ({} txns) diverged from batch",
                cp.seq,
                cp.txns
            );
            if matches!(cp.verdict, StreamVerdict::Rejected { .. }) {
                // Terminal: the stable witness stands; batch must still
                // reject every longer prefix (monotonicity).
                assert!(
                    !check(h, isolation, &opts).accepted(),
                    "{label}: stream rejected a prefix of a batch-accepted history"
                );
                return;
            }
        }
    }
}

/// Round-robin replay order (one transaction per session per round) —
/// the CLI's `--stream` order.
fn round_robin(h: &History) -> Vec<TxnId> {
    let per_session: Vec<Vec<TxnId>> = h
        .sessions()
        .map(|s| (0..s.txns.len() as u32).map(|i| TxnId(s.first.0 + i)).collect())
        .collect();
    let mut cursors = vec![0usize; per_session.len()];
    let mut order = Vec::with_capacity(h.len());
    loop {
        let mut progressed = false;
        for (s, txns) in per_session.iter().enumerate() {
            if cursors[s] < txns.len() {
                order.push(txns[cursors[s]]);
                cursors[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return order;
        }
    }
}

/// Evenly spaced checkpoint stops (always including the final prefix).
fn cadence(total: usize, checkpoints: usize) -> Vec<usize> {
    let interval = total.div_ceil(checkpoints.max(1)).max(1);
    let mut stops: Vec<usize> = (1..=checkpoints).map(|i| (i * interval).min(total)).collect();
    stops.dedup();
    stops
}

fn corpus() -> &'static [polysi::dbsim::testkit::ConformanceCase] {
    static CORPUS: std::sync::OnceLock<Vec<polysi::dbsim::testkit::ConformanceCase>> =
        std::sync::OnceLock::new();
    CORPUS.get_or_init(|| conformance_corpus(0x5712EA, 1, 14))
}

/// Checkpoint-by-checkpoint equivalence on the conformance corpus, Si and
/// Ser, sharded and not, at a 4-checkpoint cadence over the CLI's
/// round-robin replay order.
#[test]
fn streaming_checkpoints_match_batch_on_conformance_corpus() {
    for case in corpus() {
        let h = &case.history;
        if h.is_empty() {
            continue;
        }
        let order = round_robin(h);
        let stops = cadence(h.len(), 4);
        for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
            for sharding in [Sharding::Auto, Sharding::Off] {
                let opts = EngineOptions { sharding, interpret: false, ..Default::default() };
                let label = format!("{}/{:?}/{:?}", case.name, isolation, sharding);
                assert_replay_matches_batch(h, &order, &stops, isolation, opts, &label);
            }
        }
    }
}

/// The *final* streaming verdict is byte-identical to the batch verdict
/// on the complete history: a single checkpoint at the end makes the
/// final checkpoint the first one, so the digest comparison is strict
/// for every outcome kind.
#[test]
fn final_streaming_verdict_is_byte_identical_to_batch() {
    for case in corpus() {
        let h = &case.history;
        if h.is_empty() {
            continue;
        }
        let order = round_robin(h);
        for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
            let opts = EngineOptions::default();
            let label = format!("{}/{:?}/final", case.name, isolation);
            assert_replay_matches_batch(h, &order, &[h.len()], isolation, opts, &label);
        }
    }
}

/// The streaming fixtures flip exactly at the tail: accept at every
/// checkpoint before the final transaction, reject at the final one.
#[test]
fn streaming_fixtures_flip_at_the_tail() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, anomaly) in
        [("late_arriving_anomaly.txt", "long fork"), ("checkpoint_flip.txt", "lost update")]
    {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        let h = polysi::history::codec::decode(&text).unwrap();
        let mut checker = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let sessions: Vec<SessionId> = (0..h.num_sessions()).map(|_| checker.session()).collect();
        // Session-major replay: the anomaly-closing tail arrives last.
        for (id, txn) in h.iter() {
            let _ = id;
            checker.push_transaction(sessions[txn.session.0 as usize], txn.ops.clone(), txn.status);
            let cp = checker.checkpoint();
            if cp.txns < h.len() {
                assert!(cp.verdict.accepted(), "{file}: rejected before the tail");
            } else {
                let StreamVerdict::Rejected { first_violation_op, .. } = cp.verdict else {
                    panic!("{file}: tail must reject");
                };
                assert_eq!(first_violation_op, h.num_ops());
                let rej = checker.rejection().unwrap();
                let Outcome::CyclicViolation(v) = &rej.report.outcome else {
                    panic!("{file}: rejection must be cyclic");
                };
                assert_eq!(v.anomaly.name(), anomaly, "{file}");
            }
        }
    }
}

// Property test: any session-order-respecting interleaving, any
// checkpoint placement, both isolation levels — streaming equals batch
// at every checkpoint.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn streaming_matches_batch_on_random_interleavings(
        case_idx in 0usize..1000,
        picks in prop::collection::vec(0u8..8, 0..96),
        checkpoints in 1usize..6,
        ser in any::<bool>(),
    ) {
        let cases = corpus();
        let case = &cases[case_idx % cases.len()];
        let h = &case.history;
        prop_assume!(!h.is_empty());
        // A seeded session-order-respecting interleaving: each pick
        // selects among the sessions that still have transactions.
        let per_session: Vec<Vec<TxnId>> = h
            .sessions()
            .map(|s| (0..s.txns.len() as u32).map(|i| TxnId(s.first.0 + i)).collect())
            .collect();
        let mut cursors = vec![0usize; per_session.len()];
        let mut order = Vec::with_capacity(h.len());
        let mut pick_i = 0usize;
        while order.len() < h.len() {
            let open: Vec<usize> = (0..per_session.len())
                .filter(|&s| cursors[s] < per_session[s].len())
                .collect();
            let choice = if pick_i < picks.len() { picks[pick_i] as usize } else { pick_i };
            pick_i += 1;
            let s = open[choice % open.len()];
            order.push(per_session[s][cursors[s]]);
            cursors[s] += 1;
        }
        let isolation = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
        let opts = EngineOptions { interpret: false, ..Default::default() };
        let stops = cadence(h.len(), checkpoints);
        let label = format!("{}/{:?}/prop", case.name, isolation);
        assert_replay_matches_batch(h, &order, &stops, isolation, opts, &label);
    }
}
