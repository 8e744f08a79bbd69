//! Compaction ≡ no-compaction: watermark GC must be verdict-invisible.
//!
//! Streams that compact (`CompactMode::On` / `Auto`) are replayed next to
//! one that never does — same arrival interleaving, same session seals,
//! same checkpoint cadence — and must agree with it checkpoint by
//! checkpoint on the verdict kind and axiom classes (the mode matrix's
//! `Fenced` contract), with exactly one sanctioned exception: a
//! transaction that reads below the watermark — the initial value of a key
//! whose writers were dropped, or a dropped writer's value — is refused
//! by the compacting run, which is then inconclusive: never answered
//! silently, never called a violation.
//!
//! The deterministic tests pin the two watermark corpus shapes: the
//! settled-prefix anomaly (witness entirely above the watermark —
//! compaction engages *and* the lost update is still caught) and the
//! straddling anomaly (an unbroken RMW chain pins the watermark — the
//! quiescence guard refuses to drop anything rather than compact away
//! evidence).

use polysi::checker::engine::{check, CompactMode, EngineOptions, IsolationLevel};
use polysi::checker::{CheckpointReport, Inconclusive, Outcome, StreamingChecker};
use polysi::dbsim::corpus::{settled_prefix_late_anomaly, watermark_straddle_anomaly};
use polysi::dbsim::faults::{clean_script, ScriptStep};
use polysi::history::live::Delivery;
use polysi::history::{History, HistoryBuilder, Key, Op, SessionId, TxnId, TxnStatus, Value};
use proptest::prelude::*;
use support::Contract;

mod support;

/// Deliver `steps` to a stream that never compacts and to one per
/// compacting mode, asserting the `Fenced` contract; returns the
/// transactions the compacting runs dropped and the resolved or delta
/// edges their cached known graphs absorbed as already implied.
fn assert_compaction_invisible(
    h: &History,
    steps: &[ScriptStep],
    level: IsolationLevel,
    label: &str,
) -> (u64, u64) {
    let runs = [("stream", support::stream(h, level, CompactMode::Off, steps))];
    let (mut dropped, mut implied) = (0, 0);
    for mode in [CompactMode::On, CompactMode::Auto] {
        let run = support::stream(h, level, mode, steps);
        Contract::Fenced("stream").assert(&run, &runs, level, &format!("{label}/{mode:?}"));
        let metrics = run.metrics.expect("a stream has a registry");
        dropped += metrics.counter("compact.dropped_txns").total();
        implied += metrics.counter("prune.implied_edges").total();
    }
    (dropped, implied)
}

/// The compacting rows of the mode matrix: streams under `CompactMode::On`
/// and `Auto` keep the `Fenced` contract against the stream that never
/// compacts, under SI and SER, on every history of the matrix corpus — and
/// the corpus really compacts and fences.
#[test]
fn compaction_is_verdict_invisible_on_conformance_corpus() {
    let (mut compacted, mut fenced) = (0, 0);
    support::check_modes(&["stream compact on", "stream compact auto"], |_, _, runs| {
        for mode in ["stream compact on", "stream compact auto"] {
            let run = support::run_of(runs, mode);
            compacted += run.counter("compact.dropped_txns");
            fenced += run.trail.iter().filter(|cp| cp.fenced).count();
        }
    });
    assert!(compacted > 0, "no stream compacted");
    assert!(fenced > 0, "no compaction left a fence");
}

/// Stream `h` with compaction on: its first session, sealed, and a
/// checkpoint; then the other sessions and a second checkpoint, which must
/// catch a lost update. Returns the first checkpoint.
fn settle_then_reject(h: &History) -> CheckpointReport {
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    for _ in 0..h.num_sessions() {
        checker.session();
    }
    let (first, rest): (Vec<_>, Vec<_>) = h.iter().map(|(_, t)| t).partition(|t| t.session.0 == 0);
    for t in first {
        checker.push_transaction(t.session, t.ops.clone(), t.status);
    }
    checker.seal_session(SessionId(0));
    let settled = checker.checkpoint();
    assert!(settled.verdict.accepted());
    for t in rest {
        checker.push_transaction(t.session, t.ops.clone(), t.status);
    }
    assert!(!checker.checkpoint().verdict.accepted(), "the lost update is not caught");
    let Outcome::CyclicViolation(v) = &checker.rejection().unwrap().report.outcome else {
        panic!("rejection must be cyclic");
    };
    assert_eq!(v.anomaly.name(), "lost update");
    settled
}

/// The settled-prefix shape end to end: the sealed blind-write session
/// compacts down to its final writer, and the lost update arriving
/// entirely above the watermark is still caught, as batch catches it.
#[test]
fn settled_prefix_compacts_and_still_catches_the_late_anomaly() {
    let h = settled_prefix_late_anomaly(70);
    let cp = settle_then_reject(&h);
    assert_eq!(cp.compacted, 5, "six blind writes must compact to the final writer");
    assert_eq!(cp.live_txns, 1);
    assert!(!check(&h, IsolationLevel::Si, &EngineOptions::default()).accepted());
}

/// The straddling shape: the unbroken RMW chain keeps every version
/// read by a retained transaction, so the quiescence guard refuses to
/// drop anything — and the straddling stale RMW is then caught with its
/// full witness.
#[test]
fn straddling_reads_pin_the_watermark() {
    let cp = settle_then_reject(&watermark_straddle_anomaly(90));
    assert_eq!(cp.compacted, 0, "the guard must refuse to compact across the chain's open reads");
}

/// Reading the initial version of a key whose writers were compacted is
/// refused terminally: the verdict is inconclusive — never silently
/// accepted, never a violation — and stable across further checkpoints.
#[test]
fn init_read_below_the_watermark_is_refused_loudly() {
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    let writer = checker.session();
    let k = Key(7);
    for v in 1..=4u64 {
        let ops = vec![Op::Write { key: k, value: Value(v) }];
        checker.push_transaction(writer, ops, TxnStatus::Committed);
    }
    checker.seal_session(writer);
    let cp = checker.checkpoint();
    assert!(cp.verdict.accepted());
    assert_eq!(cp.compacted, 3);
    // A late session claims it saw no write at all: below the watermark.
    let late = checker.session();
    checker.push_transaction(
        late,
        vec![Op::Read { key: k, value: Value::INIT }],
        TxnStatus::Committed,
    );
    let cp = checker.checkpoint();
    let refused = Inconclusive::Fenced(vec![(TxnId(1), k, Value::INIT)]);
    assert!(
        matches!(&cp.verdict, Outcome::Inconclusive(why) if *why == refused),
        "fenced init read must be inconclusive: {:?}",
        cp.verdict
    );
    assert!(checker.stream().axiom_state().0.is_empty());
    let again = checker.checkpoint();
    assert!(again.terminal, "the fence refusal must be stable");
    assert_eq!(format!("{:?}", again.verdict), format!("{:?}", cp.verdict));
}

/// The watermark templates, streamed prefix-first so compaction engages
/// before the anomaly arrives, still reject identically across modes —
/// and the sweep really does compact on the settled-prefix shape.
#[test]
fn watermark_templates_survive_every_mode() {
    let mut dropped = 0;
    for h in [settled_prefix_late_anomaly(70), watermark_straddle_anomaly(90)] {
        // A checkpoint after every transaction.
        let steps = support::session_major(&h, 1);
        dropped += assert_compaction_invisible(&h, &steps, IsolationLevel::Si, "template").0;
    }
    assert!(dropped > 0, "the settled-prefix replay must actually compact");
}

/// Waves of sealed sessions over a small key set: each wave opens with
/// one read-modify-write of every key against the previous wave's final
/// versions, then overwrites every key blindly `blind` times. Almost
/// every edge pruning resolves is already implied by session order plus
/// the wave-to-wave `WR` edges, so the cached `poly.known` stays a small
/// fraction of the resolved set while the watermark drops each settled
/// wave. With `anomaly`, two closing sessions lose an update on key 0.
fn sealed_waves(waves: usize, keys: u64, blind: usize, anomaly: bool) -> History {
    let mut b = HistoryBuilder::new();
    let mut last = vec![Value::INIT; keys as usize];
    let mut next = 1u64;
    let mut fresh = || {
        next += 1;
        Value(next)
    };
    for _ in 0..waves {
        b.session();
        b.begin();
        for k in 0..keys {
            let v = fresh();
            b.read(Key(k), last[k as usize]).write(Key(k), v);
            last[k as usize] = v;
        }
        b.commit();
        for _ in 0..blind {
            for k in 0..keys {
                let v = fresh();
                b.begin().write(Key(k), v).commit();
                last[k as usize] = v;
            }
        }
    }
    if anomaly {
        for _ in 0..2 {
            b.session();
            let v = fresh();
            b.begin().read(Key(0), last[0]).write(Key(0), v).commit();
        }
    }
    b.build()
}

/// Compacted ≡ uncompacted over a *reduced* `poly.known`: the cached
/// component polygraphs hold only the edges their oracle did not already
/// imply, and the watermark's retained set is a forward closure over
/// exactly that list. Every implied edge is covered by a typed-edge path,
/// so the closure — and with it every later verdict — must match the run
/// that never compacts: on the accepting waves, and when a lost update
/// arrives above a watermark that has already dropped most of the stream.
#[test]
fn compaction_agrees_over_a_reduced_known_graph() {
    for (level, anomaly) in [
        (IsolationLevel::Si, false),
        (IsolationLevel::Si, true),
        (IsolationLevel::Ser, false),
        (IsolationLevel::Ser, true),
    ] {
        let h = sealed_waves(6, 3, 4, anomaly);
        // A checkpoint after every wave of 1 + 4 · 3 transactions.
        let steps = support::session_major(&h, 13);
        let label = format!("sealed-waves/{level:?}/anomaly={anomaly}");
        let (dropped, implied) = assert_compaction_invisible(&h, &steps, level, &label);
        assert!(dropped > 0, "{label}: the settled waves must compact");
        assert!(implied > 0, "{label}: no edge was implied — known was not reduced");
        assert_eq!(
            check(&h, level, &EngineOptions::default()).accepted(),
            !anomaly,
            "{label}: batch verdict"
        );
    }
}

// Property test: random seal masks, random session-order-respecting
// arrival interleavings, random cadences, both isolation levels — the
// compacting runs are indistinguishable from the uncompacted one except
// for loud fence refusals.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn compaction_equivalence_on_random_interleavings(
        case_idx in 0usize..1000,
        seed in any::<u64>(),
        seal_bits in any::<u16>(),
        checkpoints in 1usize..7,
        ser in any::<bool>(),
    ) {
        let (name, h) = &support::corpus()[case_idx % support::corpus().len()];
        let mut steps = clean_script(h, checkpoints, seed);
        steps.retain(|step| !matches!(step, ScriptStep::Deliver { session, msg: Delivery::Seal { .. } }
            if seal_bits & (1 << (session % 16)) == 0));
        let level = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
        assert_compaction_invisible(h, &steps, level, &format!("{name}/{level:?}/prop"));
    }
}
