//! Streaming ≡ batch: the `StreamingChecker`'s verdict at every checkpoint
//! equals the batch verdict on the same prefix, and its first rejection is
//! the batch report itself (the mode matrix's `Prefixes` contract), across
//! proptest-chosen interleavings and checkpoint placements and for a stream
//! first checked at its end; the streaming fixtures flip at their tail.

use polysi::checker::engine::{CompactMode, EngineOptions, IsolationLevel};
use polysi::checker::{Outcome, StreamingChecker};
use polysi::dbsim::faults::clean_script;
use proptest::prelude::*;
use support::Contract;

mod support;

/// Corpus case `case` streamed along the seeded interleave with
/// `checkpoints` checkpoints, checked against batch on every prefix.
fn assert_stream_matches_batch(case: usize, seed: u64, checkpoints: usize, ser: bool) {
    let (name, h) = &support::corpus()[case % support::corpus().len()];
    let level = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
    let run = support::stream(h, level, CompactMode::Off, &clean_script(h, checkpoints, seed));
    Contract::Prefixes.assert(&run, &[], level, &format!("{name}/{level:?}/{checkpoints}"));
}

/// The stream row of the mode matrix: the corpus streamed session by
/// session with five checkpoints, under SI and SER, checked against batch
/// on every prefix.
#[test]
fn streaming_checkpoints_match_batch_on_conformance_corpus() {
    support::check_modes(&["stream"], |_, _, _| {});
}

/// One checkpoint at the end is the stream's first, so a rejection there
/// is byte-identical to batch on the complete history.
#[test]
fn final_streaming_verdict_is_byte_identical_to_batch() {
    for case in 0..support::corpus().len() {
        assert_stream_matches_batch(case, 0, 1, false);
        assert_stream_matches_batch(case, 0, 1, true);
    }
}

/// The streaming fixtures flip exactly at the tail: accept at every
/// checkpoint before the final transaction, reject at the final one.
#[test]
fn streaming_fixtures_flip_at_the_tail() {
    for (file, anomaly) in
        [("late_arriving_anomaly.txt", "long fork"), ("checkpoint_flip.txt", "lost update")]
    {
        let h = support::fixture(file);
        let mut checker = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        for _ in 0..h.num_sessions() {
            checker.session();
        }
        // Session-major replay: the anomaly-closing tail arrives last.
        for (_, txn) in h.iter() {
            checker.push_transaction(txn.session, txn.ops.clone(), txn.status);
            let cp = checker.checkpoint();
            if cp.txns < h.len() {
                assert!(cp.verdict.accepted(), "{file}: rejected before the tail");
            } else {
                let Outcome::CyclicViolation(v) = &cp.verdict else {
                    panic!("{file}: tail must reject with a cycle");
                };
                assert_eq!(v.anomaly.name(), anomaly, "{file}");
                assert!(cp.terminal);
                assert_eq!(checker.rejection().unwrap().op_index, h.num_ops());
            }
        }
    }
}

// Any session-order-respecting interleaving, any checkpoint placement,
// both isolation levels.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn streaming_matches_batch_on_random_interleavings(
        case in 0usize..1000,
        seed in any::<u64>(),
        checkpoints in 1usize..6,
        ser in any::<bool>(),
    ) {
        assert_stream_matches_batch(case, seed, checkpoints, ser);
    }
}
