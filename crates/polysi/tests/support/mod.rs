//! The mode matrix: one [`digest`] of a check report and one [`modes`]
//! table of the ways a history reaches the checker. PolySI's verdict is
//! sound and complete however the history is fed in (Thm. 6), so every row
//! agrees with plain batch `check(h, level, &EngineOptions::default())` by
//! the [`Contract`] in its row, and a new mode is a new row. Each suite
//! checks the rows of its subject with [`check_modes`].
#![allow(dead_code)] // each test target uses its own part of the module

use polysi::checker::engine::{
    CheckEngine, CompactMode, EngineOptions, IsolationLevel, PruneThreads, Sharding,
};
use polysi::checker::report::check_report_json;
use polysi::checker::{
    CheckReport, CheckpointReport, LiveChecker, LiveConfig, LiveReport, Outcome, StreamingChecker,
};
use polysi::dbsim::corpus::{overlapping_clique, write_skew_lattice};
use polysi::dbsim::faults::{FaultPlan, ScriptStep};
use polysi::dbsim::testkit::conformance_corpus;
use polysi::history::live::Delivery;
use polysi::history::{binfmt, codec, fasthash, History, SessionId};
use polysi_obs::json::{parse, Value};
use polysi_obs::{Metrics, Obs};
use std::time::Duration;

/// How much of a report a contract compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proj {
    /// The whole digest.
    Exact,
    /// Outcome, witness (anomaly, cycle, finalized scenario) and axiom list.
    Verdict,
    /// Outcome kind and the set of axiom classes, or the reason of an
    /// inconclusive outcome.
    Class,
}

/// The one digest of a report: the `polysi.check.v4` body without
/// `timings`, `wall_us` and `metrics`, plus the interpretation's finalized
/// edges, cut down to `proj`. `Class` counts a duplicate write of a value a
/// compaction dropped as the duplicate write it is.
pub fn digest(report: &CheckReport, level: IsolationLevel, proj: Proj) -> Value {
    if proj == Proj::Class {
        let mut classes: Vec<String> = match &report.outcome {
            Outcome::AxiomViolations(vs) => {
                vs.iter().map(|v| v.kind().replace("compacted_", "")).collect()
            }
            Outcome::Inconclusive(why) => vec![why.reason().to_string()],
            _ => Vec::new(),
        };
        classes.sort_unstable();
        classes.dedup();
        let kind = report.outcome.kind().to_string();
        return Value::Arr(std::iter::once(kind).chain(classes).map(Value::Str).collect());
    }
    let finalized = match &report.outcome {
        Outcome::CyclicViolation(v) => v.scenario.as_ref().map(|s| &s.finalized),
        _ => None,
    };
    let finalized = ("finalized".to_string(), Value::Str(format!("{finalized:?}")));
    let json = check_report_json(report, level, Duration::ZERO, None);
    let Ok(Value::Obj(body)) = parse(&json) else { panic!("a report is a JSON object: {json}") };
    let body =
        body.into_iter().filter(|(key, _)| !matches!(&**key, "timings" | "wall_us" | "metrics"));
    let exact = Value::Obj(body.chain([finalized]).collect());
    match proj {
        Proj::Exact => exact,
        _ => verdict_of(&exact),
    }
}

/// An `Exact` digest cut down to `Verdict`.
fn verdict_of(exact: &Value) -> Value {
    split(exact, true)
}

/// An `Exact` digest without its `Verdict` fields: the stage objects.
fn stages_of(exact: &Value) -> Value {
    split(exact, false)
}

/// The fields of an `Exact` digest that are (`verdict`) or are not its
/// `Verdict` fields.
fn split(exact: &Value, verdict: bool) -> Value {
    let Value::Obj(body) = exact else { unreachable!("a digest is a JSON object") };
    let keep = |key: &str| {
        verdict == matches!(key, "verdict" | "anomaly" | "axiom_violations" | "cycle" | "finalized")
    };
    Value::Obj(body.iter().filter(|(key, _)| keep(key)).cloned().collect())
}

/// One verdict of a mode.
#[derive(Clone)]
pub struct Checkpoint {
    /// What the verdict is about: the input of a batch mode, the stream's
    /// snapshot (its rejecting prefix once rejected) of an online one.
    pub prefix: History,
    /// The history whose stage objects a terminal report holds: that of
    /// the sessions the stream re-checked.
    pub rechecked: Option<History>,
    /// [`digest`] under `Exact`, `Verdict` and `Class`, in that order.
    views: [Value; 3],
    /// The interpreted scenario of a cyclic violation, whole, in its
    /// `Debug` form (`Exact` holds only its finalized edges).
    pub scenario: String,
    /// A terminal state, reported by the canonical batch report.
    pub terminal: bool,
    /// The compacting stream's fence holds a record.
    pub fenced: bool,
}

impl Checkpoint {
    fn new(prefix: History, report: &CheckReport, level: IsolationLevel) -> Checkpoint {
        let exact = digest(report, level, Proj::Exact);
        let verdict = verdict_of(&exact);
        let views = [exact, verdict, digest(report, level, Proj::Class)];
        let scenario = match &report.outcome {
            Outcome::CyclicViolation(v) => format!("{:?}", v.scenario),
            _ => String::new(),
        };
        Checkpoint { prefix, rechecked: None, views, scenario, terminal: false, fenced: false }
    }

    pub fn view(&self, proj: Proj) -> &Value {
        &self.views[proj as usize]
    }

    /// The outcome's kind (`ok`, `axiom_violation`, …).
    pub fn kind(&self) -> &str {
        match self.view(Proj::Class) {
            Value::Arr(class) => class[0].as_str().expect("a class opens with the kind"),
            _ => unreachable!("a class is an array"),
        }
    }
}

/// The checkpoint `cp` that `c` just took over `prefix`, after the
/// checkpoints of `trail`: a terminal state's is the one that reached it.
fn online(
    c: &StreamingChecker,
    level: IsolationLevel,
    prefix: History,
    cp: &CheckpointReport,
    trail: &[Checkpoint],
) -> Checkpoint {
    let mut out = if cp.terminal {
        let rej = c.rejection().expect("a terminal stream keeps its canonical report");
        assert_eq!(format!("{:?}", rej.report.outcome), format!("{:?}", cp.verdict));
        if let Some(first) = trail.iter().find(|cp| cp.terminal) {
            return first.clone();
        }
        let rechecked = Some(c.stream().history_of(&rej.sessions).0);
        Checkpoint { terminal: true, rechecked, ..Checkpoint::new(prefix, &rej.report, level) }
    } else {
        let report = CheckReport {
            outcome: cp.verdict.clone(),
            timings: Default::default(),
            prune_stats: None,
            encode_stats: Default::default(),
            solver_stats: None,
            solve_stats: None,
            shard_stats: None,
            oracles: Default::default(),
        };
        Checkpoint::new(prefix, &report, level)
    };
    out.fenced = !c.stream().facts().fences().is_empty();
    out
}

/// What a mode made of a history: its verdicts in order (one for a batch
/// mode) and the registry the checker recorded into (none for a live hub,
/// whose ingest counters depend on the delivery).
pub struct Run {
    pub trail: Vec<Checkpoint>,
    pub metrics: Option<Metrics>,
}

impl Run {
    /// The total of the registry counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.as_ref().expect("the mode keeps a registry").counter(name).total()
    }
}

/// A batch check of `h`.
pub fn batch(h: &History, level: IsolationLevel, opts: EngineOptions) -> Run {
    let obs = Obs::default();
    let report = CheckEngine::new(level, opts).with_obs(obs.clone()).check(h);
    Run { trail: vec![Checkpoint::new(h.clone(), &report, level)], metrics: Some(obs.metrics) }
}

/// A clean delivery script that sends `h` session by session, sealing each
/// session after its last transaction, with a checkpoint marker after every
/// `every` transactions.
pub fn session_major(h: &History, every: usize) -> Vec<ScriptStep> {
    let mut steps = Vec::new();
    for (s, session) in (0u32..).zip(h.sessions()) {
        for (seq, t) in (0u64..).zip(session.txns) {
            let msg = Delivery::Txn { seq, ops: t.ops.clone(), status: t.status };
            steps.push(ScriptStep::Deliver { session: s, msg });
            if seq + 1 == session.txns.len() as u64 {
                steps.push(ScriptStep::Deliver {
                    session: s,
                    msg: Delivery::Seal { count: seq + 1 },
                });
            }
            let sent = session.first.0 as usize + seq as usize + 1;
            if sent.is_multiple_of(every) && sent < h.len() {
                steps.push(ScriptStep::Checkpoint);
            }
        }
    }
    steps
}

/// `h` delivered by the clean script `steps` into a streaming checker that
/// compacts by `compact`, checkpointing at the script's markers and at the
/// end.
pub fn stream(
    h: &History,
    level: IsolationLevel,
    compact: CompactMode,
    steps: &[ScriptStep],
) -> Run {
    let obs = Obs::default();
    let opts = EngineOptions { compact, ..Default::default() };
    let mut c = StreamingChecker::new(level, opts).with_obs(obs.clone());
    for _ in 0..h.num_sessions() {
        c.session();
    }
    let mut trail = Vec::new();
    for step in steps.iter().chain([&ScriptStep::Checkpoint]) {
        match step {
            ScriptStep::Deliver { session, msg: Delivery::Txn { ops, status, .. } } => {
                c.push_transaction(SessionId(*session), ops.clone(), *status);
            }
            ScriptStep::Deliver { session, .. } => c.seal_session(SessionId(*session)),
            ScriptStep::Checkpoint => {
                let prefix = c.stream().snapshot().0;
                let cp = c.checkpoint();
                let cp = online(&c, level, prefix, &cp, &trail);
                trail.push(cp);
            }
        }
    }
    Run { trail, metrics: Some(obs.metrics) }
}

/// A delivery script for `h` driven through a live hub that checkpoints at
/// the script's markers and when it finishes.
pub fn live(h: &History, level: IsolationLevel, steps: &[ScriptStep]) -> (LiveReport, Run) {
    let opts = EngineOptions { compact: CompactMode::Off, ..Default::default() };
    let cfg = LiveConfig { checkpoint_every: 0, ..LiveConfig::default() };
    let mut hub = LiveChecker::new(level, opts, cfg);
    for _ in 0..h.num_sessions() {
        hub.session();
    }
    let mut trail = Vec::new();
    for step in steps {
        match step {
            ScriptStep::Deliver { session, msg } => {
                let _ = hub.deliver(SessionId(*session), msg.clone());
            }
            ScriptStep::Checkpoint => {
                let prefix = hub.checker().stream().snapshot().0;
                let cp = hub.checkpoint_now().report.clone();
                let cp = online(hub.checker(), level, prefix, &cp, &trail);
                trail.push(cp);
            }
        }
    }
    let prefix = hub.checker().stream().snapshot().0;
    let report = hub.finish();
    let last = &report.checkpoints.last().expect("finish checkpoints").report;
    let last = online(hub.checker(), level, prefix, last, &trail);
    trail.push(last);
    (report, Run { trail, metrics: None })
}

/// How a mode's verdicts relate to the run of the mode it names (`"batch"`
/// is plain batch).
#[derive(Clone, Copy, Debug)]
pub enum Contract {
    /// The same histories with equal digests, checkpoint by checkpoint,
    /// and under `Exact` equal counter digests where both have a registry.
    Same(Proj, &'static str),
    /// Every checkpoint `Verdict`-equal to plain batch on its prefix. A
    /// terminal state's stage objects equal plain batch's on the sessions
    /// it re-checked, so it is `Exact` where those hold the whole prefix.
    Prefixes,
    /// `Class`-equal checkpoint by checkpoint, or inconclusive on the reads
    /// this run's fence refused.
    Fenced(&'static str),
}

impl Contract {
    /// The mode this contract compares against, if it is not plain batch
    /// on each prefix.
    fn of(self) -> Option<&'static str> {
        match self {
            Contract::Same(_, of) | Contract::Fenced(of) => Some(of),
            Contract::Prefixes => None,
        }
    }

    /// Assert that `run` keeps the contract; `runs` holds the run of the
    /// mode it names.
    pub fn assert(self, run: &Run, runs: &[(&str, Run)], level: IsolationLevel, label: &str) {
        let (proj, of) = match self {
            Contract::Same(proj, of) => (proj, of),
            Contract::Fenced(of) => (Proj::Class, of),
            Contract::Prefixes => {
                for cp in &run.trail {
                    let of = batch(&cp.prefix, level, EngineOptions::default());
                    let at = cp.prefix.len();
                    let (got, want) = (cp.view(Proj::Verdict), of.trail[0].view(Proj::Verdict));
                    assert_eq!(got, want, "{label}: {at} txns");
                    let Some(rechecked) = &cp.rechecked else { continue };
                    let of = if rechecked.len() == at {
                        of
                    } else {
                        batch(rechecked, level, EngineOptions::default())
                    };
                    let (got, want) = (cp.view(Proj::Exact), of.trail[0].view(Proj::Exact));
                    assert_eq!(stages_of(got), stages_of(want), "{label}: {at} txns, stages");
                }
                return;
            }
        };
        let of = &runs.iter().find(|(mode, _)| *mode == of).expect("the named mode ran").1;
        assert_eq!(run.trail.len(), of.trail.len(), "{label}: checkpoint count");
        for (i, (a, b)) in run.trail.iter().zip(&of.trail).enumerate() {
            let (got, want) = (a.view(proj), b.view(proj));
            if let Contract::Same(..) = self {
                assert!(a.prefix == b.prefix, "{label}: checkpoint {i} is about another history");
                assert_eq!(got, want, "{label}: checkpoint {i}");
            } else if got != want {
                let fenced = Value::Arr(vec![
                    Value::Str("inconclusive".into()),
                    Value::Str("fenced".into()),
                ]);
                assert_eq!(got, &fenced, "{label}: checkpoint {i} is neither {want:?} nor fenced");
            }
        }
        if let (Proj::Exact, Some(a), Some(b)) = (proj, &run.metrics, &of.metrics) {
            assert_eq!(a.counter_digest(), b.counter_digest(), "{label}: counter digest");
        }
    }
}

/// A mode: a history and a level to the run.
pub type Runner = Box<dyn Fn(&History, IsolationLevel) -> Run>;

/// The mode matrix: name, mode, contract.
pub fn modes() -> Vec<(&'static str, Runner, Contract)> {
    use polysi::polygraph::ConstraintMode::Plain;
    use Contract::{Fenced, Prefixes, Same};
    use Proj::{Class, Exact};
    let batched = |sharding, prune_threads| -> Runner {
        let opts = EngineOptions { sharding, prune_threads, ..Default::default() };
        Box::new(move |h, level| batch(h, level, opts))
    };
    let with = |opts: EngineOptions| -> Runner { Box::new(move |h, level| batch(h, level, opts)) };
    let reread = |read: fn(&History) -> History| -> Runner {
        Box::new(move |h, level| batch(&read(h), level, EngineOptions::default()))
    };
    let seeded = |seed: u64| -> Runner {
        Box::new(move |h, level| {
            fasthash::force_process_seed(seed);
            batch(h, level, EngineOptions::default())
        })
    };
    let streamed = |compact| -> Runner {
        Box::new(move |h, level| {
            stream(h, level, compact, &session_major(h, h.len().div_ceil(5).max(1)))
        })
    };
    let delivered = |plan: FaultPlan| -> Runner {
        Box::new(move |h, level| {
            let (report, run) = live(h, level, &plan.script(h, 3, 7));
            assert!(report.faults.is_empty(), "tolerable faults heal: {:?}", report.faults);
            run
        })
    };
    let (sharded, unsharded, fixed) = (Sharding::Auto, Sharding::Off, PruneThreads::Fixed);
    vec![
        ("batch unsharded", batched(unsharded, PruneThreads::Auto), Same(Class, "batch")),
        ("prune 1", batched(sharded, fixed(1)), Same(Exact, "batch")),
        ("prune 4", batched(sharded, fixed(4)), Same(Exact, "batch")),
        (
            "no prune",
            with(EngineOptions { pruning: false, ..Default::default() }),
            Same(Class, "batch"),
        ),
        ("plain", with(EngineOptions { mode: Plain, ..Default::default() }), Same(Class, "batch")),
        ("hash seed a", seeded(0x0123_4567_89ab_cdef), Same(Exact, "batch")),
        ("hash seed b", seeded(0xfeed_f00d_dead_beef), Same(Exact, "batch")),
        ("text", reread(|h| codec::decode(&codec::encode(h)).unwrap()), Same(Exact, "batch")),
        (".pbh", reread(|h| binfmt::decode(&binfmt::encode(h)).unwrap()), Same(Exact, "batch")),
        ("stream", streamed(CompactMode::Off), Prefixes),
        ("stream compact on", streamed(CompactMode::On), Fenced("stream")),
        ("stream compact auto", streamed(CompactMode::Auto), Fenced("stream")),
        ("live", delivered(FaultPlan::clean()), Prefixes),
        ("live duplicates", delivered(FaultPlan::tolerable(13, 400, 0)), Same(Exact, "live")),
        ("live reorders", delivered(FaultPlan::tolerable(13, 0, 400)), Same(Exact, "live")),
    ]
}

/// The runs of one history: plain batch first, if it ran, then modes in
/// table order.
pub type Runs = Vec<(&'static str, Run)>;

/// The run of `mode` among `runs`.
pub fn run_of<'a>(runs: &'a Runs, mode: &str) -> &'a Run {
    &runs.iter().find(|(row, _)| *row == mode).expect("the mode ran").1
}

/// Check the matrix rows named in `rows` under SI and SER on every history
/// of the matrix corpus, each by its contract and none calling a history
/// plain batch accepts a violation, and hand each history's runs to
/// `observe`: plain batch, the named rows and the rows their contracts
/// compare against.
pub fn check_modes(rows: &[&str], mut observe: impl FnMut(&str, IsolationLevel, &Runs)) {
    let modes = modes();
    for row in rows {
        assert!(modes.iter().any(|(mode, ..)| mode == row), "no row {row:?} in the matrix");
    }
    // A row's contract names an earlier row, so one backward pass closes
    // the set.
    let mut needed = rows.to_vec();
    for (mode, _, contract) in modes.iter().rev() {
        if let (true, Some(of)) = (needed.contains(mode), contract.of()) {
            needed.push(of);
        }
    }
    for (name, h) in corpus() {
        for level in [IsolationLevel::Si, IsolationLevel::Ser] {
            let mut runs = vec![("batch", batch(h, level, EngineOptions::default()))];
            let accepted = runs[0].1.trail[0].kind() == "ok";
            for (mode, run, contract) in modes.iter().filter(|(mode, ..)| needed.contains(mode)) {
                let run = run(h, level);
                if rows.contains(mode) {
                    let label = format!("{name}/{level:?}/{mode}");
                    contract.assert(&run, &runs, level, &label);
                    let last = run.trail.last().expect("a run has a verdict").kind();
                    let violation = matches!(last, "axiom_violation" | "cyclic_violation");
                    assert!(!(accepted && violation), "{label}: a violation batch does not see");
                }
                runs.push((*mode, run));
            }
            observe(name, level, &runs);
        }
    }
}

/// The path of a fixture in `tests/fixtures`.
pub fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A fixture history.
pub fn fixture(name: &str) -> History {
    let text = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
    codec::decode(&text).expect("fixture parses")
}

/// A cycle that only a healed read closes, whatever the delivery order.
/// Two sessions blind-write key 1 eight times each (an online checker
/// caches their one component on the way); then `b` reads key 2 from `d`
/// and writes key 1 = 7, `c` reads that 7, and `d` follows `c` in its
/// session: b →WR c →SO d →WR b. `b` before `d` makes `b`'s read wait
/// for `d`; `c` before `b` makes `c`'s read wait for `b` — so in every
/// order a read on the cycle heals after a checkpoint that accepted.
pub fn healed_read_cycle() -> History {
    use polysi::history::{HistoryBuilder, Key, Value};
    let mut h = HistoryBuilder::new();
    let blind_writes = |h: &mut HistoryBuilder, from: u64| {
        for v in from..from + 8 {
            h.begin().write(Key(1), Value(v)).commit();
        }
    };
    h.session();
    blind_writes(&mut h, 100);
    h.begin().read(Key(2), Value(1)).write(Key(1), Value(7)).commit(); // b
    h.session();
    blind_writes(&mut h, 200);
    h.begin().read(Key(1), Value(7)).commit(); // c
    h.begin().write(Key(2), Value(1)).commit(); // d
    h.build()
}

/// The matrix corpus, each history with its name: a conformance corpus,
/// the fixture table, the solver-stress templates and
/// [`healed_read_cycle`].
pub fn corpus() -> &'static [(String, History)] {
    static CORPUS: std::sync::OnceLock<Vec<(String, History)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let cases = conformance_corpus(0xC0F_FEE, 1, 14).into_iter().map(|c| (c.name, c.history));
        let dir = std::fs::read_dir(fixture_path("")).expect("fixtures");
        let mut files: Vec<String> =
            dir.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
        files.sort();
        let fixtures = files.into_iter().map(|file| (file.clone(), fixture(&file)));
        let built = [
            ("stress/write-skew-lattice-5".into(), write_skew_lattice(0, 5)),
            ("stress/overlapping-clique-6".into(), overlapping_clique(1_000_000, 6)),
            ("healed-read-cycle".into(), healed_read_cycle()),
        ];
        cases.chain(fixtures).chain(built).collect()
    })
}
