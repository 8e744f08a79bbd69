//! Round-trip equivalence of the two on-disk history formats.
//!
//! The binary columnar format (`binfmt`, `.pbh`) must be a lossless
//! re-encoding of the text format: for any history — every corpus
//! template, fault-injected runs, solver-stress shapes, and edge cases
//! (aborted transactions, empty histories, `u64::MAX` keys that force the
//! fixed-width column fallback) — decoding `encode(h)` reproduces `h`
//! byte-for-byte as a `History` snapshot, the re-encoded *text* is
//! byte-identical to the original text encoding, and the checker reaches
//! the same verdict from either format under both isolation levels.

use polysi::checker::engine::{check, EngineOptions, IsolationLevel};
use polysi::dbsim::corpus::{generate_corpus, overlapping_clique, write_skew_lattice};
use polysi::history::{binfmt, codec, History, HistoryBuilder, Key, Op, TxnStatus, Value};
use polysi_obs::json::Value as Json;
use proptest::prelude::*;
use support::Proj;

mod support;

/// The exact digest of a default check of `h`.
fn verdict(h: &History, level: IsolationLevel) -> Json {
    support::digest(&check(h, level, &EngineOptions::default()), level, Proj::Exact)
}

/// One full round trip: text ↔ binary ↔ text, plus verdict agreement.
fn assert_round_trips(name: &str, h: &History) {
    let bin = binfmt::encode(h);
    let back = binfmt::decode(&bin).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(&back, h, "{name}: binary round trip changed the history");

    // Text → binary → text is byte-identical (both encoders are
    // deterministic functions of the history).
    let text = codec::encode(h);
    let reparsed = codec::decode(&text).unwrap_or_else(|e| panic!("{name}: text reparse: {e}"));
    assert_eq!(codec::encode(&back), text, "{name}: text re-encoding diverged");
    assert_eq!(binfmt::encode(&reparsed), bin, "{name}: binary re-encoding diverged");

    for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
        assert_eq!(
            verdict(h, isolation),
            verdict(&back, isolation),
            "{name}: verdict diverged between formats under {isolation:?}"
        );
    }
}

/// Every corpus template and fault-injected draw round trips; and, as the
/// round-trip rows of the mode matrix, the matrix corpus read back through
/// either format checks byte-identically to plain batch.
#[test]
fn corpus_round_trips_across_formats() {
    support::check_modes(&["text", ".pbh"], |_, _, _| {});
    // 40 entries = every one of the 20 templates once, interleaved with 20
    // fault-injected draws.
    let entries = generate_corpus(40, 0xB1AF_0001);
    let templates: std::collections::BTreeSet<&str> = entries
        .iter()
        .filter(|e| e.source.starts_with("template:"))
        .map(|e| e.source.as_str())
        .collect();
    assert_eq!(templates.len(), 20, "sweep must cover every corpus template");
    for entry in &entries {
        assert_round_trips(&entry.source, &entry.history);
    }
}

#[test]
fn stress_shapes_round_trip() {
    assert_round_trips("write-skew-lattice", &write_skew_lattice(50_000, 3));
    assert_round_trips("overlapping-clique", &overlapping_clique(900_000, 2));
}

#[test]
fn edge_cases_round_trip() {
    assert_round_trips("empty", &History::new());

    // Aborted transactions, wide keys/values (fixed-width column
    // fallback), and a session that is entirely aborted.
    let mut b = HistoryBuilder::new();
    b.session();
    b.begin().write(Key(u64::MAX), Value(u64::MAX)).commit();
    b.begin().read(Key(u64::MAX), Value(u64::MAX)).write(Key(1), Value(7)).abort();
    b.session();
    b.begin().write(Key(1), Value(8)).abort();
    assert_round_trips("edge-cases", &b.build());

    let mut wide = History::new();
    wide.push_session(vec![(
        vec![
            Op::Write { key: Key(u64::MAX - 1), value: Value(0) },
            Op::Read { key: Key(0), value: Value(u64::MAX) },
        ],
        TxnStatus::Committed,
    )]);
    assert_round_trips("wide-values", &wide);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random corpus draws round trip and agree on the verdict from either
    /// format, under a random isolation level.
    #[test]
    fn random_corpus_histories_round_trip(
        seed in any::<u64>(),
        index in 0usize..8,
        ser in any::<bool>(),
    ) {
        let entries = generate_corpus(8, seed);
        let entry = &entries[index % entries.len()];
        let h = &entry.history;
        let bin = binfmt::encode(h);
        let back = binfmt::decode(&bin).expect("random corpus history decodes");
        prop_assert_eq!(&back, h);
        prop_assert_eq!(codec::encode(&back), codec::encode(h));
        let isolation = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
        prop_assert_eq!(verdict(h, isolation), verdict(&back, isolation));
    }
}
