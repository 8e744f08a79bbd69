//! One workload, measured: set-up passes, untraced timed reps (the
//! end-to-end metrics), and — with `--trace` — extra traced reps whose spans
//! and returned reports give the per-layer ledger.
//!
//! Everything is measured from outside the checker: wall time around calls
//! into public functions, and the public report structs those calls return.
//! The load generator is this one thread; the checker's own `Auto` thread
//! choices are part of the program under test and stay at
//! `EngineOptions::default()`, except in [`soak_options`].

use crate::alloc;
use crate::metrics::PER_LAYER;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Trace};
use crate::workload::{
    build, BatchInput, Encoded, Expect, Input, LiveScript, SoakScript, Workload, SOAK_SLOTS,
    SOAK_WAVE_TXNS,
};
use polysi::checker::engine::CompactMode;
use polysi::checker::live::Delivery;
use polysi::checker::{
    CheckEngine, CheckReport, CheckpointReport, EngineOptions, IsolationLevel, LiveChecker,
    LiveConfig, LiveService, Outcome as Verdict, PruneThreads, StreamingChecker,
};
use polysi::history::{binfmt, codec, Facts, HistoryStream, SessionId, ShardPlan, TxnStatus};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Untraced reps repeat until their summed wall time reaches this.
    pub seconds: f64,
    pub trace: bool,
    /// Tenth-size inputs, one set-up pass, two reps: a smoke test whose
    /// numbers compare with nothing.
    pub quick: bool,
}

pub struct Outcome {
    pub workload: Workload,
    pub quick: bool,
    pub reps: usize,
    /// Operations (verdicts requested) in one rep.
    pub ops_per_rep: u64,
    /// Operations over all timed and traced reps.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Option<Vec<(&'static str, f64)>>,
}

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Timed reps never stop short of this, so that across the reps of the
/// online workloads at least ten checkpoints lie beyond the p90 (5 × 1024,
/// 5 × 21).
const MIN_REPS: usize = 5;
const TRACED_REPS: usize = 2;

/// Named sums read off the reports the checker returns. Names ending in
/// `_max` merge by maximum, all others add.
type Ledger = BTreeMap<&'static str, f64>;

fn merge(into: &mut Ledger, from: &Ledger) {
    for (&name, &v) in from {
        let slot = into.entry(name).or_insert(0.0);
        *slot = if name.ends_with("_max") { slot.max(v) } else { *slot + v };
    }
}

struct Rep {
    wall: Duration,
    /// Allocator high-water mark above the level at rep start.
    peak_bytes: usize,
    /// Latency of each operation (one verdict requested), in ms.
    op_ms: Vec<f64>,
    failures: Vec<String>,
    counts: Ledger,
}

fn open(
    tr: &mut Option<&mut Trace>,
    name: &'static str,
    parent: Option<SpanId>,
    rep: u32,
) -> Option<SpanId> {
    tr.as_mut().map(|t| t.open(name, parent, rep))
}

fn close(tr: &mut Option<&mut Trace>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.close(id);
    }
}

/// Progress goes to standard error; standard output carries only results.
fn progress(w: Workload, what: &str) {
    eprintln!("[{}] {what}", w.name());
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn one_rep(w: Workload, input: &Input, tr: Option<&mut Trace>, rep: u32) -> Rep {
    match input {
        Input::Batch(b) => batch_rep(b, w.expect(), tr, rep),
        Input::Soak(s) => soak_rep(s, soak_options(), tr, rep),
        Input::Live(l) => live_rep(l, tr, rep),
    }
}

/// Compare a batch report with the known answer.
fn verify_batch(report: &CheckReport, expect: Expect) -> Result<(), String> {
    let ok = match (&report.outcome, expect) {
        (Verdict::Si, Expect::Accept) => true,
        (Verdict::CyclicViolation(v), Expect::RejectInSolve) => {
            !v.cycle.is_empty()
                && report.prune_stats.is_some()
                && report.solver_stats.is_some_and(|s| s.conflicts > 0)
        }
        (Verdict::CyclicViolation(v), Expect::RejectWithWitness) => {
            !v.cycle.is_empty() && v.scenario.is_some()
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "expected {expect:?}, got `{}` (prune completed: {}, solver ran: {})",
            report.outcome.kind(),
            report.prune_stats.is_some(),
            report.solver_stats.is_some()
        ))
    }
}

/// Bytes in memory → decode → `CheckEngine::check` → verdict compared with
/// the known answer. Witness interpretation is part of `check`.
fn batch_rep(input: &BatchInput, expect: Expect, mut tr: Option<&mut Trace>, rep: u32) -> Rep {
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    let root = open(&mut tr, "rep", None, rep);
    let h = match &input.bytes {
        Encoded::Text(text) => {
            let span = open(&mut tr, "codec.decode", root, rep);
            let h = codec::decode(text).expect("the benchmark's own text encoding decodes");
            close(&mut tr, span);
            h
        }
        Encoded::Pbh(bytes) => {
            let span = open(&mut tr, "binfmt.decode", root, rep);
            let h = binfmt::decode(bytes).expect("the benchmark's own .pbh encoding decodes");
            close(&mut tr, span);
            h
        }
    };
    let check = open(&mut tr, "engine.check", root, rep);
    let report = CheckEngine::new(input.level, EngineOptions::default()).check(&h);
    close(&mut tr, check);
    let verdict = verify_batch(&report, expect);
    close(&mut tr, root);
    let wall = t0.elapsed();
    let peak_bytes = alloc::peak() - base;

    let mut counts = Ledger::new();
    let bytes_name = match input.bytes {
        Encoded::Text(_) => "codec.bytes",
        Encoded::Pbh(_) => "binfmt.bytes",
    };
    counts.insert(bytes_name, input.bytes.len() as f64);
    if let Some(s) = report.shard_stats {
        counts.insert("shard.components", s.components as f64);
        counts.insert("shard.largest", s.largest as f64);
    }
    if let Some(p) = report.prune_stats {
        counts.insert("construct.constraints", p.constraints_before as f64);
        counts.insert("prune.passes", p.iterations as f64);
        counts.insert("prune.constraints_left", p.constraints_after as f64);
        counts.insert("prune.closure_updates", p.closure_updates as f64);
    }
    counts.insert("encode.vars", report.encode_stats.vars as f64);
    counts.insert("encode.clauses", report.encode_stats.clauses as f64);
    if let Some(s) = report.solve_stats {
        counts.insert("solve.units", s.units as f64);
    }
    if let Some(s) = report.solver_stats {
        counts.insert("solver.conflicts", s.conflicts as f64);
        counts.insert("solver.decisions", s.decisions as f64);
        counts.insert("solver.propagations", s.propagations as f64);
    }

    if let (Some(trace), Some(check)) = (tr, check) {
        // The report folds `Facts::analyze` into `constructing` and leaves
        // `ShardPlan::analyze` out altogether, so both are timed here, on
        // the same history, right after the rep.
        let t = Instant::now();
        let facts = Facts::analyze(&h);
        let facts_time = t.elapsed();
        counts.insert("facts.wr_edges", facts.num_wr_edges() as f64);
        drop(facts);
        let t = Instant::now();
        let plan = ShardPlan::analyze(&h);
        let plan_time = t.elapsed();
        drop(plan);
        let tm = report.timings;
        trace.synthesize(
            check,
            Some(Duration::ZERO),
            &[
                ("facts.analyze", facts_time),
                ("shard.plan", plan_time),
                ("construct.busy", tm.constructing.saturating_sub(facts_time)),
                ("prune.busy", tm.pruning),
                ("encode.busy", tm.encoding),
                ("solve.busy", tm.solving),
            ],
        );
        if let Encoded::Pbh(bytes) = &input.bytes {
            // Diagnostic, off the verdict path: what the same file costs
            // when it feeds a stream (`StreamFacts`) instead of a `History`.
            let mut stream = HistoryStream::new();
            let before = alloc::current();
            let span = trace.open("binfmt.read_into_stream", None, rep);
            binfmt::read_into_stream(bytes, &mut stream).expect("the .pbh bytes feed a stream");
            trace.close(span);
            let grown = alloc::current().saturating_sub(before);
            counts.insert("stream.bytes_per_txn", grown as f64 / stream.len().max(1) as f64);
        }
    }
    Rep {
        wall,
        peak_bytes,
        op_ms: vec![ms(wall)],
        failures: verdict.err().into_iter().collect(),
        counts,
    }
}

/// Add one checkpoint to the `[checkpoints, dirty, rebuilt]` counters named.
fn count_checkpoint(counts: &mut Ledger, names: [&'static str; 3], cp: &CheckpointReport) {
    let [checkpoints, dirty, rebuilt] = names;
    *counts.entry(checkpoints).or_insert(0.0) += 1.0;
    *counts.entry(dirty).or_insert(0.0) += cp.dirty as f64;
    *counts.entry(rebuilt).or_insert(0.0) += cp.rebuilt as f64;
}

/// `stream_soak` runs with compaction on and the prune sweep on one thread.
/// `PruneThreads::Auto` resolves to both vCPUs and then spawns and joins
/// workers inside every 1.4 ms checkpoint: that costs ≈35 % of the workload
/// and, on this container, moved its run-to-run spread from 1 % to 5–29 % —
/// past any bound the benchmark may declare. The default is still measured,
/// as the diagnostic `stream.auto_threads_s`.
fn soak_options() -> EngineOptions {
    EngineOptions {
        compact: CompactMode::On,
        prune_threads: PruneThreads::Fixed(1),
        ..Default::default()
    }
}

/// Waves of push ×256 → seal ×8 → checkpoint through a `StreamingChecker`;
/// the clock runs from the first push to the last checkpoint's verdict.
fn soak_rep(script: &SoakScript, opts: EngineOptions, mut tr: Option<&mut Trace>, rep: u32) -> Rep {
    let base = alloc::reset_peak();
    let mut op_ms = Vec::with_capacity(script.waves);
    let mut failures = Vec::new();
    let mut counts = Ledger::new();
    let (mut live_txns_max, mut live_bytes_max) = (0usize, 0usize);
    let t0 = Instant::now();
    let root = open(&mut tr, "rep", None, rep);
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    for wave in 0..script.waves {
        let sessions: [SessionId; SOAK_SLOTS] = std::array::from_fn(|_| checker.session());
        let span = open(&mut tr, "stream.push", root, rep);
        for txn in script.wave(wave) {
            // Materializing the owned `Vec<Op>` the API takes is the load
            // generator's hand-over and is timed with the push.
            checker.push_transaction(sessions[txn.slot as usize], txn.ops(), TxnStatus::Committed);
        }
        close(&mut tr, span);
        let span = open(&mut tr, "stream.seal", root, rep);
        for s in sessions {
            checker.seal_session(s);
        }
        close(&mut tr, span);
        let span = open(&mut tr, "stream.checkpoint", root, rep);
        let cp = checker.checkpoint();
        close(&mut tr, span);
        op_ms.push(ms(cp.elapsed));
        if !cp.verdict.accepted() {
            failures.push(format!("wave {wave}: checkpoint `{}`", cp.verdict.kind()));
        } else if cp.live_txns > SOAK_WAVE_TXNS {
            failures.push(format!("wave {wave}: {} live txns escaped compaction", cp.live_txns));
        }
        count_checkpoint(
            &mut counts,
            ["stream.checkpoints", "stream.dirty", "stream.rebuilt"],
            &cp,
        );
        *counts.entry("stream.compacted_txns").or_insert(0.0) += cp.compacted as f64;
        live_txns_max = live_txns_max.max(cp.live_txns);
        live_bytes_max = live_bytes_max.max(alloc::current().saturating_sub(base));
    }
    close(&mut tr, root);
    let wall = t0.elapsed();
    let peak_bytes = alloc::peak() - base;
    counts.insert("stream.live_txns_max", live_txns_max as f64);
    counts.insert("stream.live_bytes_max", live_bytes_max as f64);
    Rep { wall, peak_bytes, op_ms, failures, counts }
}

fn live_config(script: &LiveScript) -> LiveConfig {
    LiveConfig { checkpoint_every: script.checkpoint_every, ..Default::default() }
}

/// The deliveries of a live script, in order: every transaction, then one
/// `Seal` per session.
fn deliveries(script: &LiveScript) -> impl Iterator<Item = (usize, Delivery)> + '_ {
    let h = &script.history;
    let txns = script.order.iter().map(move |&t| {
        let txn = h.txn(t);
        let msg = Delivery::Txn {
            seq: u64::from(txn.index_in_session),
            ops: txn.ops.clone(),
            status: txn.status,
        };
        (txn.session.0 as usize, msg)
    });
    let seals =
        h.sessions().map(|s| (s.id.0 as usize, Delivery::Seal { count: s.txns.len() as u64 }));
    txns.chain(seals)
}

/// The script through the deterministic hub: `deliver` per message, then
/// `finish`; the clock runs from the first delivery to the final verdict.
fn live_rep(script: &LiveScript, mut tr: Option<&mut Trace>, rep: u32) -> Rep {
    let base = alloc::reset_peak();
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let root = open(&mut tr, "rep", None, rep);
    let mut hub =
        LiveChecker::new(IsolationLevel::Si, EngineOptions::default(), live_config(script));
    let sessions: Vec<SessionId> =
        (0..script.history.num_sessions()).map(|_| hub.session()).collect();
    // Traced reps cut the deliveries into one span per checkpoint: the
    // deliveries since the previous one, with the checkpoint that the last
    // of them triggered as a child (its length read from its report).
    let mut segment = open(&mut tr, "live.deliver", root, rep);
    let mut seen = 0;
    let mut cut = |tr: &mut Option<&mut Trace>, hub: &LiveChecker, reopen: bool| {
        let Some(trace) = tr.as_mut() else { return };
        let done = hub.checkpoints();
        if done.len() == seen {
            return;
        }
        let span = segment.expect("a traced rep has an open segment");
        trace.close(span);
        let parts: Vec<_> =
            done[seen..].iter().map(|c| ("live.checkpoint", c.report.elapsed)).collect();
        trace.synthesize(span, None, &parts);
        seen = done.len();
        segment = reopen.then(|| trace.open("live.deliver", root, rep));
    };
    for (session, msg) in deliveries(script) {
        if let Err(e) = hub.deliver(sessions[session], msg) {
            failures.push(format!("ingest fault on session {session}: {e}"));
        }
        cut(&mut tr, &hub, true);
    }
    let report = hub.finish();
    cut(&mut tr, &hub, false);
    close(&mut tr, root);
    let wall = t0.elapsed();
    let peak_bytes = alloc::peak() - base;

    let mut counts = Ledger::new();
    let mut op_ms = Vec::with_capacity(report.checkpoints.len());
    for (i, c) in report.checkpoints.iter().enumerate() {
        op_ms.push(ms(c.report.elapsed));
        if !c.report.verdict.accepted() || c.degraded {
            failures.push(format!(
                "checkpoint {}: `{}`{}",
                i + 1,
                c.report.verdict.kind(),
                if c.degraded { " (degraded)" } else { "" }
            ));
        }
        count_checkpoint(
            &mut counts,
            ["live.checkpoints", "live.dirty", "live.rebuilt"],
            &c.report,
        );
    }
    let expected = script.order.len() / script.checkpoint_every + 1;
    if report.checkpoints.len() != expected {
        failures.push(format!("{} checkpoints, expected {expected}", report.checkpoints.len()));
    }
    if !report.faults.is_empty() || !report.abandoned.is_empty() {
        failures.push(format!(
            "{} faults, {} abandoned sessions",
            report.faults.len(),
            report.abandoned.len()
        ));
    }
    counts.insert("live.final_checkpoint_ms", *op_ms.last().expect("finish checkpoints"));
    Rep { wall, peak_bytes, op_ms, failures, counts }
}

/// Diagnostic, never gating: the live script through the threaded
/// `LiveService` from one producer thread, closed loop on the bounded
/// queues. The drain thread interleaves sessions round-robin, so prefixes it
/// checkpoints need not be commit-consistent; `accepted_share` records how
/// often they were. Only the final verdict is a known answer.
fn service_run(script: &LiveScript, trace: &mut Trace, layers: &mut Ledger) -> Result<(), String> {
    let cfg = live_config(script);
    let n = script.history.num_sessions();
    let root = trace.open("service.verdict", None, 0);
    let (service, mut clients) =
        LiveService::spawn(IsolationLevel::Si, EngineOptions::default(), cfg, n);
    let mut in_send = Duration::ZERO;
    for &t in &script.order {
        let txn = script.history.txn(t);
        let ops = txn.ops.clone();
        let t = Instant::now();
        clients[txn.session.0 as usize].push(ops, txn.status);
        in_send += t.elapsed();
    }
    for client in clients.drain(..) {
        client.seal();
    }
    let wait = trace.open("service.finish_wait", Some(root), 0);
    let report = service.finish();
    trace.close(wait);
    trace.close(root);
    let accepted = report.checkpoints.iter().filter(|c| c.report.verdict.accepted()).count();
    layers.insert("service.verdict_s", trace.total_s("service.verdict"));
    layers.insert("service.finish_wait_s", trace.total_s("service.finish_wait"));
    layers.insert("service.send_blocked_s", in_send.as_secs_f64());
    layers.insert("service.accepted_share", accepted as f64 / report.checkpoints.len() as f64);
    if report.verdict().accepted() && report.faults.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "LiveService final verdict `{}`, {} faults",
            report.verdict().kind(),
            report.faults.len()
        ))
    }
}

/// Per-layer time metrics read off the spans: `(metric, span, self time?)`.
const SPAN_METRICS: [(&str, &str, bool); 16] = [
    ("codec.decode_s", "codec.decode", false),
    ("binfmt.decode_s", "binfmt.decode", false),
    ("binfmt.read_into_stream_s", "binfmt.read_into_stream", false),
    ("facts.analyze_s", "facts.analyze", false),
    ("shard.plan_s", "shard.plan", false),
    ("construct.busy_s", "construct.busy", false),
    ("prune.busy_s", "prune.busy", false),
    ("encode.busy_s", "encode.busy", false),
    ("solve.busy_s", "solve.busy", false),
    ("engine.check_s", "engine.check", false),
    ("engine.unattributed_s", "engine.check", true),
    ("stream.push_s", "stream.push", false),
    ("stream.seal_s", "stream.seal", false),
    ("stream.checkpoint_s", "stream.checkpoint", false),
    ("live.deliver_s", "live.deliver", true),
    ("live.checkpoint_s", "live.checkpoint", false),
];

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced reps and what they yield: every per-layer metric, in ledger
/// order, and the Chrome trace file. Operations and failures of these reps
/// are added to the run's totals.
fn traced_ledger(
    w: Workload,
    input: &Input,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut trace = Trace::new();
    let mut sums = Ledger::new();
    let mut traced_pool = Vec::new();
    // Each traced rep follows an untraced one, and only those pairs are
    // compared: the machine's speed drifts by more between the timed
    // reps and now than tracing costs.
    let (mut traced_s, mut paired_s) = (0.0, 0.0);
    for i in 0..TRACED_REPS {
        for tr in [None, Some(&mut trace)] {
            let traced = tr.is_some();
            let rep = one_rep(w, input, tr, i as u32);
            *attempted += rep.op_ms.len() as u64;
            failures.extend(rep.failures);
            if traced {
                traced_s += rep.wall.as_secs_f64();
                merge(&mut sums, &rep.counts);
                traced_pool.extend(rep.op_ms);
            } else {
                paired_s += rep.wall.as_secs_f64();
            }
        }
    }
    let n = TRACED_REPS as f64;
    let mut layers = Ledger::new();
    for (&name, &v) in &sums {
        layers.insert(name, if name.ends_with("_max") { v } else { v / n });
    }
    for (metric, span, self_time) in SPAN_METRICS {
        let total = if self_time { trace.self_s(span) } else { trace.total_s(span) };
        layers.insert(metric, total / n);
    }
    let get = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let before = get("construct.constraints");
    layers.insert("prune.resolved_share", share(before - get("prune.constraints_left"), before));
    layers.insert(
        "stream.dirty_per_checkpoint",
        share(get("stream.dirty"), get("stream.checkpoints")),
    );
    layers.insert("stream.rebuilt_share", share(get("stream.rebuilt"), get("stream.dirty")));
    layers.insert("live.rebuilt_share", share(get("live.rebuilt"), get("live.dirty")));
    if let Input::Soak(script) = input {
        layers.insert("stream.checkpoint_p99_ms", percentile(&mut traced_pool, 99.0));
        progress(w, "diagnostic rep: the checker's default thread choices");
        let auto = EngineOptions { prune_threads: PruneThreads::Auto, ..soak_options() };
        let rep = soak_rep(script, auto, None, 0);
        *attempted += rep.op_ms.len() as u64;
        failures.extend(rep.failures);
        layers.insert("stream.auto_threads_s", rep.wall.as_secs_f64());
    }
    // A rep is covered where a named layer span lies over it; the
    // engine call's own self time is, by definition, not attributed.
    let rep_s = trace.total_s("rep");
    let uncovered = trace.self_s("rep") + trace.self_s("engine.check");
    layers.insert("trace.coverage_share", 1.0 - share(uncovered, rep_s));
    layers.insert("trace.overhead_share", (traced_s - paired_s) / paired_s);
    if let Input::Live(script) = input {
        progress(w, "diagnostic runs: LiveService, and the batch check of the same history");
        *attempted += 2;
        if let Err(e) = service_run(script, &mut trace, &mut layers) {
            failures.push(e);
        }
        // What `live_hub`'s verdict costs offline: the online tax is
        // `verdict_s` over this.
        let span = trace.open("live.batch_check", None, 0);
        let report =
            CheckEngine::new(IsolationLevel::Si, EngineOptions::default()).check(&script.history);
        trace.close(span);
        layers.insert("live.batch_check_s", trace.total_s("live.batch_check"));
        failures.extend(verify_batch(&report, Expect::Accept).err());
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.trace.json", w.name());
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    progress(w, &format!("{} spans written to {path}", trace.spans.len()));
    Ok(PER_LAYER
        .iter()
        .map(|&(name, _)| (name, layers.get(name).copied().unwrap_or(0.0)))
        .collect())
}

/// Run one workload.
pub fn run(w: Workload, cfg: Config) -> Result<Outcome, String> {
    // Set-up: generate, encode, cross-check the known answer, warm up. Done
    // several times over so that `setup_s` is a median, not one sample.
    let passes = if cfg.quick { 1 } else { SETUP_PASSES };
    let warmups = if matches!(w, Workload::StreamSoak | Workload::LiveHub) { 1 } else { 2 };
    let mut setup_s = Vec::with_capacity(passes);
    let mut input = None;
    for pass in 0..passes {
        progress(w, &format!("set-up pass {}/{passes}", pass + 1));
        drop(input.take());
        let t = Instant::now();
        let built = build(w, cfg.seed, cfg.quick)?;
        for _ in 0..warmups {
            let rep = one_rep(w, &built, None, 0);
            if let Some(f) = rep.failures.first() {
                return Err(format!("warm-up rep disagrees with the known answer: {f}"));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        input = Some(built);
    }
    let input = input.expect("at least one set-up pass");

    // Timed reps, untraced: every end-to-end metric comes from these.
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    loop {
        let done = match cfg.quick {
            true => reps.len() >= 2,
            false => reps.len() >= MIN_REPS && measured >= cfg.seconds,
        };
        if done {
            break;
        }
        let rep = one_rep(w, &input, None, reps.len() as u32);
        measured += rep.wall.as_secs_f64();
        reps.push(rep);
    }
    let each: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall.as_secs_f64())).collect();
    progress(w, &format!("{} timed reps in {measured:.2} s: {}", reps.len(), each.join(" ")));

    let mut walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let verdict_s = median(&mut walls);
    let peak = reps.iter().map(|r| r.peak_bytes).max().expect("timed reps ran");
    // Percentiles are taken inside each rep and the median over reps is
    // reported: a noisy few seconds on the machine then spoil one rep's
    // tail, not the metric. A batch rep is one operation, so there both
    // percentiles are the median check time.
    let over_reps = |p: f64| {
        median(&mut reps.iter().map(|r| percentile(&mut r.op_ms.clone(), p)).collect::<Vec<_>>())
    };
    let end_to_end = vec![
        ("setup_s", median(&mut setup_s)),
        ("verdict_s", verdict_s),
        ("peak_mib", peak as f64 / (1u64 << 20) as f64),
        ("checkpoint_p50_ms", over_reps(50.0)),
        ("checkpoint_p90_ms", over_reps(90.0)),
    ];
    let ops_per_rep = reps[0].op_ms.len() as u64;
    let mut attempted: u64 = reps.iter().map(|r| r.op_ms.len() as u64).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.iter().cloned()).collect();

    let per_layer = match cfg.trace {
        true => Some(traced_ledger(w, &input, &mut attempted, &mut failures)?),
        false => None,
    };

    Ok(Outcome {
        workload: w,
        quick: cfg.quick,
        reps: reps.len(),
        ops_per_rep,
        attempted,
        failures,
        end_to_end,
        per_layer,
    })
}
