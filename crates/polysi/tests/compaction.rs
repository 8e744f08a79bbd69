//! Compaction ≡ no-compaction: watermark GC must be verdict-invisible.
//!
//! Two `StreamingChecker`s consume the identical stream — same arrival
//! interleaving, same session seals, same checkpoint cadence — one with
//! `CompactMode::Off`, one compacting. At every checkpoint their verdict
//! digests and monotone counters must agree, with exactly one sanctioned
//! exception: a transaction that reads the *initial* version of a key
//! whose writers were compacted away is refused loudly (`FencedRead`) by
//! the compacting run, never answered silently. Watermark-respecting
//! streams (nothing above the frontier reads below it) never hit the
//! fence, so for them the equivalence is unconditional.
//!
//! The deterministic tests pin the two watermark corpus shapes: the
//! settled-prefix anomaly (witness entirely above the watermark —
//! compaction engages *and* the lost update is still caught) and the
//! straddling anomaly (an unbroken RMW chain pins the watermark — the
//! quiescence guard refuses to drop anything rather than compact away
//! evidence).

use polysi::checker::engine::{check, CompactMode, EngineOptions, IsolationLevel};
use polysi::checker::{Outcome, StreamVerdict, StreamingChecker};
use polysi::dbsim::corpus::{settled_prefix_late_anomaly, watermark_straddle_anomaly};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::{History, HistoryBuilder, Key, SessionId, TxnId, Value};
use proptest::prelude::*;

/// The class name of an axiom violation (ids excluded: compaction
/// renumbers surviving transactions, so the two runs' violation *texts*
/// legitimately differ while their classes must not).
fn axiom_class(v: &polysi::history::AxiomViolation) -> &'static str {
    use polysi::history::AxiomViolation as A;
    match v {
        A::Int { .. } => "int violation",
        A::AbortedRead { .. } => "aborted read",
        A::IntermediateRead { .. } => "intermediate read",
        A::DuplicateWrite { .. } => "unique-value violation",
        A::UnknownValueRead { .. } => "unknown-value read",
        A::WroteInitValue { .. } => "wrote-init-value",
        A::FencedRead { .. } => "fenced read",
        // Same class as `DuplicateWrite` on purpose: a compacting run that
        // catches a duplicate via the key's fence record must digest
        // identically to the uncompacted run that still has the writer.
        A::CompactedDuplicateWrite { .. } => "unique-value violation",
    }
}

/// A verdict digest that is stable under compaction's transaction-id
/// renumbering: the monotone counters, the outcome kind, and axiom
/// *classes*. Cyclic rejections digest as bare `cycle`: the canonical
/// witness is extracted from differently-numbered (and, compacted,
/// differently-sized) graphs, so the specific cycle — and on histories
/// with several coexisting anomalies even its classification — is not
/// part of the equivalence contract. The deterministic template tests
/// below pin exact anomaly classes where the history has only one.
fn digest(cp: &polysi::checker::CheckpointReport, checker: &StreamingChecker) -> String {
    let verdict = match &cp.verdict {
        StreamVerdict::Accepted => "ok".into(),
        StreamVerdict::AxiomViolations { violations, healable } => {
            let mut classes: Vec<&str> = violations.iter().map(axiom_class).collect();
            classes.sort_unstable();
            classes.dedup();
            format!("axioms(healable={healable}):{classes:?}")
        }
        StreamVerdict::Rejected { .. } => {
            let report = &checker.rejection().expect("rejected stream has a report").report;
            match &report.outcome {
                Outcome::Si => unreachable!("rejection with an SI outcome"),
                Outcome::CyclicViolation(_) => "cycle".into(),
                Outcome::AxiomViolations(vs) => {
                    let mut classes: Vec<&str> = vs.iter().map(axiom_class).collect();
                    classes.sort_unstable();
                    classes.dedup();
                    format!("axioms(terminal):{classes:?}")
                }
            }
        }
    };
    format!("txns={} ops={} {verdict}", cp.txns, cp.ops)
}

fn fence_engaged(checker: &StreamingChecker) -> bool {
    !checker.stream().facts().watermark_violations().is_empty()
}

/// What a replay exercised, summed over the compacting runs.
#[derive(Default)]
struct Engaged {
    /// Transactions dropped by the watermark.
    compacted: usize,
    /// Resolved or delta edges the cached known graphs absorbed as
    /// already implied (`prune.implied_edges`) — non-zero means the
    /// watermark's forward closure ran over a *reduced* `poly.known`.
    implied: u64,
}

/// Replay `h` along `order` into checkers for every `CompactMode`,
/// sealing each session the moment its last transaction is pushed
/// (sessions with `seal[s] == false` are never sealed, freezing their
/// components' watermarks), checkpointing at `stops`. All modes must
/// produce identical digests at every checkpoint unless the compacting
/// run hits the fence — then it must be refusing loudly.
fn assert_compaction_invisible(
    h: &History,
    order: &[TxnId],
    seal: &[bool],
    stops: &[usize],
    isolation: IsolationLevel,
    label: &str,
) -> Engaged {
    let mk = |mode: CompactMode| {
        let opts = EngineOptions { compact: mode, interpret: false, ..Default::default() };
        let mut c = StreamingChecker::new(isolation, opts);
        let sessions: Vec<SessionId> = (0..h.num_sessions()).map(|_| c.session()).collect();
        (c, sessions)
    };
    let (mut off, off_sessions) = mk(CompactMode::Off);
    let (mut on, on_sessions) = mk(CompactMode::On);
    let (mut auto, auto_sessions) = mk(CompactMode::Auto);
    let mut remaining: Vec<usize> = h.sessions().map(|s| s.txns.len()).collect();
    let mut next_stop = 0usize;
    let mut compacted = 0usize;
    let engaged = |compacted: usize, on: &StreamingChecker, auto: &StreamingChecker| Engaged {
        compacted,
        implied: [on, auto]
            .iter()
            .map(|c| c.obs().metrics.counter("prune.implied_edges").total())
            .sum(),
    };
    for (i, &id) in order.iter().enumerate() {
        let txn = h.txn(id);
        let s = txn.session.0 as usize;
        off.push_transaction(off_sessions[s], txn.ops.clone(), txn.status);
        on.push_transaction(on_sessions[s], txn.ops.clone(), txn.status);
        auto.push_transaction(auto_sessions[s], txn.ops.clone(), txn.status);
        remaining[s] -= 1;
        if remaining[s] == 0 && seal[s] {
            off.seal_session(off_sessions[s]);
            on.seal_session(on_sessions[s]);
            auto.seal_session(auto_sessions[s]);
        }
        while next_stop < stops.len() && i + 1 == stops[next_stop] {
            next_stop += 1;
            let cp_off = off.checkpoint();
            let cp_on = on.checkpoint();
            let cp_auto = auto.checkpoint();
            assert_eq!(cp_off.compacted, 0, "{label}: CompactMode::Off compacted");
            compacted += cp_on.compacted + cp_auto.compacted;
            let d_off = digest(&cp_off, &off);
            for (cp, checker, mode) in [(&cp_on, &on, "on"), (&cp_auto, &auto, "auto")] {
                let d = digest(cp, checker);
                if d == d_off {
                    continue;
                }
                // The only sanctioned divergence is the fence: a stream
                // that reads below the watermark — the initial version of
                // a fenced key (terminal `FencedRead`) or a value whose
                // writer was dropped (permanently unresolved, classified
                // as an unknown-value read) — is refused *loudly*, never
                // silently accepted, and never via a spurious cycle.
                let facts = checker.stream().facts();
                assert!(
                    !facts.fences().is_empty() || !facts.watermark_violations().is_empty(),
                    "{label}/{mode}: verdict diverged without any fenced key: {d} vs {d_off}"
                );
                assert!(
                    !cp.verdict.accepted(),
                    "{label}/{mode}: compacting run accepted where Off said {d_off}"
                );
                assert!(
                    d.contains("fenced read") || d.contains("unknown-value read"),
                    "{label}/{mode}: divergence not attributable to the fence: {d} vs {d_off}"
                );
            }
            if matches!(cp_off.verdict, StreamVerdict::Rejected { .. }) {
                return engaged(compacted, &on, &auto);
            }
        }
    }
    engaged(compacted, &on, &auto)
}

fn session_major(h: &History) -> Vec<TxnId> {
    h.iter().map(|(id, _)| id).collect()
}

fn cadence(total: usize, checkpoints: usize) -> Vec<usize> {
    let interval = total.div_ceil(checkpoints.max(1)).max(1);
    let mut stops: Vec<usize> = (1..=checkpoints).map(|i| (i * interval).min(total)).collect();
    stops.dedup();
    stops
}

fn corpus() -> &'static [polysi::dbsim::testkit::ConformanceCase] {
    static CORPUS: std::sync::OnceLock<Vec<polysi::dbsim::testkit::ConformanceCase>> =
        std::sync::OnceLock::new();
    CORPUS.get_or_init(|| conformance_corpus(0x57A7_7E1E, 1, 12))
}

/// The settled-prefix shape end to end: the sealed blind-write session
/// compacts down to its final writer, and the lost update arriving
/// entirely above the watermark is still caught, identically to batch.
#[test]
fn settled_prefix_compacts_and_still_catches_the_late_anomaly() {
    let h = settled_prefix_late_anomaly(70);
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    let sessions: Vec<SessionId> = (0..h.num_sessions()).map(|_| checker.session()).collect();
    // Push the prefix session, seal it, checkpoint: the watermark drops
    // everything but the final writer.
    let txns: Vec<_> = h.iter().collect();
    for (_, txn) in txns.iter().filter(|(_, t)| t.session.0 == 0) {
        checker.push_transaction(sessions[0], txn.ops.clone(), txn.status);
    }
    checker.seal_session(sessions[0]);
    let cp = checker.checkpoint();
    assert!(cp.verdict.accepted());
    assert_eq!(cp.compacted, 5, "six blind writes must compact to the final writer");
    assert_eq!(cp.live_txns, 1);
    // The anomaly arrives above the watermark; the verdict matches batch.
    for (_, txn) in txns.iter().filter(|(_, t)| t.session.0 != 0) {
        checker.push_transaction(sessions[txn.session.0 as usize], txn.ops.clone(), txn.status);
    }
    let cp = checker.checkpoint();
    let StreamVerdict::Rejected { .. } = cp.verdict else {
        panic!("late lost update not caught after compaction");
    };
    let rejection = checker.rejection().unwrap();
    let Outcome::CyclicViolation(v) = &rejection.report.outcome else {
        panic!("rejection must be cyclic");
    };
    assert_eq!(v.anomaly.name(), "lost update");
    assert!(!check(&h, IsolationLevel::Si, &opts).accepted(), "batch must agree");
}

/// The straddling shape: the unbroken RMW chain keeps every version
/// read by a retained transaction, so the quiescence guard refuses to
/// drop anything — and the straddling stale RMW is then caught with its
/// full witness.
#[test]
fn straddling_reads_pin_the_watermark() {
    let h = watermark_straddle_anomaly(90);
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    let sessions: Vec<SessionId> = (0..h.num_sessions()).map(|_| checker.session()).collect();
    let txns: Vec<_> = h.iter().collect();
    for (_, txn) in txns.iter().filter(|(_, t)| t.session.0 == 0) {
        checker.push_transaction(sessions[0], txn.ops.clone(), txn.status);
    }
    checker.seal_session(sessions[0]);
    let cp = checker.checkpoint();
    assert!(cp.verdict.accepted());
    assert_eq!(cp.compacted, 0, "the guard must refuse to compact across the chain's open reads");
    for (_, txn) in txns.iter().filter(|(_, t)| t.session.0 != 0) {
        checker.push_transaction(sessions[txn.session.0 as usize], txn.ops.clone(), txn.status);
    }
    let cp = checker.checkpoint();
    assert!(!cp.verdict.accepted(), "straddling lost update not caught");
    let rejection = checker.rejection().unwrap();
    let Outcome::CyclicViolation(v) = &rejection.report.outcome else {
        panic!("rejection must be cyclic");
    };
    assert_eq!(v.anomaly.name(), "lost update");
}

/// Reading the initial version of a key whose writers were compacted is
/// refused loudly and terminally — never silently accepted, and stable
/// across further checkpoints.
#[test]
fn init_read_below_the_watermark_is_refused_loudly() {
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    let writer = checker.session();
    let k = polysi::history::Key(7);
    for v in 1..=4u64 {
        checker.push_transaction(
            writer,
            vec![polysi::history::Op::Write { key: k, value: polysi::history::Value(v) }],
            polysi::history::TxnStatus::Committed,
        );
    }
    checker.seal_session(writer);
    let cp = checker.checkpoint();
    assert!(cp.verdict.accepted());
    assert_eq!(cp.compacted, 3);
    // A late session claims it saw no write at all: below the watermark.
    let late = checker.session();
    checker.push_transaction(
        late,
        vec![polysi::history::Op::Read { key: k, value: polysi::history::Value::INIT }],
        polysi::history::TxnStatus::Committed,
    );
    let cp = checker.checkpoint();
    assert!(!cp.verdict.accepted(), "fenced init read must not be accepted");
    assert!(fence_engaged(&checker));
    let again = checker.checkpoint();
    assert!(!again.verdict.accepted(), "the fence refusal must be stable");
}

/// Deterministic corpus sweep: session-major and round-robin replays of
/// every conformance case at two cadences, all seals on — compaction
/// invisible (or loudly fenced) everywhere.
#[test]
fn compaction_is_verdict_invisible_on_conformance_corpus() {
    for case in corpus() {
        let h = &case.history;
        if h.is_empty() {
            continue;
        }
        let seal = vec![true; h.num_sessions()];
        for checkpoints in [2usize, 5] {
            let stops = cadence(h.len(), checkpoints);
            for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
                let label = format!("{}/{isolation:?}/{checkpoints}", case.name);
                assert_compaction_invisible(h, &session_major(h), &seal, &stops, isolation, &label);
            }
        }
    }
}

/// The watermark templates, streamed prefix-first so compaction engages
/// before the anomaly arrives, still reject identically across modes —
/// and the sweep really does compact on the settled-prefix shape.
#[test]
fn watermark_templates_survive_every_mode() {
    let mut engaged = 0usize;
    for h in [settled_prefix_late_anomaly(70), watermark_straddle_anomaly(90)] {
        let seal = vec![true; h.num_sessions()];
        let stops = cadence(h.len(), h.len()); // checkpoint after every txn
        engaged += assert_compaction_invisible(
            &h,
            &session_major(&h),
            &seal,
            &stops,
            IsolationLevel::Si,
            "watermark-template",
        )
        .compacted;
    }
    assert!(engaged > 0, "the settled-prefix replay must actually compact");
}

/// Waves of sealed sessions over a small key set: each wave opens with
/// one read-modify-write of every key against the previous wave's final
/// versions, then overwrites every key blindly `blind` times. Almost
/// every edge pruning resolves is already implied by session order plus
/// the wave-to-wave `WR` edges, so the cached `poly.known` stays a small
/// fraction of the resolved set while the watermark drops each settled
/// wave. With `anomaly`, two closing sessions lose an update on key 0.
/// Returns the history and the checkpoint stops (one per wave).
fn sealed_waves(waves: usize, keys: u64, blind: usize, anomaly: bool) -> (History, Vec<usize>) {
    let mut b = HistoryBuilder::new();
    let mut last = vec![Value::INIT; keys as usize];
    let mut next = 1u64;
    let mut fresh = || {
        next += 1;
        Value(next)
    };
    let (mut txns, mut stops) = (0usize, Vec::new());
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
        txns += 1 + blind * keys as usize;
        stops.push(txns);
    }
    if anomaly {
        for _ in 0..2 {
            b.session();
            let v = fresh();
            b.begin().read(Key(0), last[0]).write(Key(0), v).commit();
        }
        stops.push(txns + 2);
    }
    (b.build(), stops)
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
    for (isolation, anomaly) in [
        (IsolationLevel::Si, false),
        (IsolationLevel::Si, true),
        (IsolationLevel::Ser, false),
        (IsolationLevel::Ser, true),
    ] {
        let (h, stops) = sealed_waves(6, 3, 4, anomaly);
        let seal = vec![true; h.num_sessions()];
        let label = format!("sealed-waves/{isolation:?}/anomaly={anomaly}");
        let engaged =
            assert_compaction_invisible(&h, &session_major(&h), &seal, &stops, isolation, &label);
        assert!(engaged.compacted > 0, "{label}: the settled waves must compact");
        assert!(engaged.implied > 0, "{label}: no edge was implied — known was not reduced");
        assert_eq!(
            check(&h, isolation, &EngineOptions::default()).accepted(),
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
        picks in prop::collection::vec(0u8..8, 0..96),
        seal_bits in any::<u16>(),
        checkpoints in 1usize..7,
        ser in any::<bool>(),
    ) {
        let cases = corpus();
        let case = &cases[case_idx % cases.len()];
        let h = &case.history;
        prop_assume!(!h.is_empty());
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
        let seal: Vec<bool> =
            (0..h.num_sessions()).map(|s| seal_bits & (1 << (s % 16)) != 0).collect();
        let isolation = if ser { IsolationLevel::Ser } else { IsolationLevel::Si };
        let stops = cadence(h.len(), checkpoints);
        let label = format!("{}/{isolation:?}/prop", case.name);
        assert_compaction_invisible(h, &order, &seal, &stops, isolation, &label);
    }
}
