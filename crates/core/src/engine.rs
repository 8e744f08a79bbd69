//! The staged `CheckEngine`: Algorithm 1/2 of the paper factored into
//! explicit, reusable stages, parameterized by isolation level and sharded
//! by key connectivity.
//!
//! # Stages
//!
//! Every check runs the same five [`Stage`]s, each mapping back to the
//! paper's pseudocode:
//!
//! | Stage | Paper | What happens |
//! |---|---|---|
//! | [`Stage::Axioms`] | Algorithm 1, lines 2–4 (`CheckNonCyclicAxioms`) | `Int`, aborted/intermediate reads, UniqueValue via [`Facts::analyze`] on the unit's own history; once a unit fails, every unit still runs them but skips the graph stages |
//! | [`Stage::Construct`] | Algorithm 2 (`CreateKnownGraph` + `GenerateConstraints`) | known `SO ∪ WR` (+ init-read `RW`, + RMW-inferred `WW` under SER) edges and the per-key writer-pair constraint generator (with `pruning: false`, every constraint stored) |
//! | [`Stage::Prune`] | Algorithm 1, lines 10–32 (`PruneConstraints`) | worklist-driven fixpoint resolving constraints whose one side closes a known cycle; the first pass generates each constraint and stores only the undecided ones; the reachability oracle updates incrementally across passes — closure propagation batched per apply phase — and the per-pass sweep can fan out over its share of the [`PruneThreads`] budget |
//! | [`Stage::Encode`] | Algorithm 1, lines 5–7 (encoding, Section 4.4) | one selector variable per surviving constraint guarding graph edges in the SAT-modulo-acyclicity solver |
//! | [`Stage::Solve`] | Algorithm 1, lines 8–9 (solving + counterexample) | one CDCL-modulo-acyclicity solver call on the encoded instance; on UNSAT a violating cycle is extracted from the polygraph, classified, and interpreted |
//!
//! Prune → Encode → Solve is one runner (`run_unit`), shared with the streaming
//! checker and list histories ([`CheckEngine::check_list`]), which construct
//! their polygraphs their own way; a batch unit and a list history extract a
//! witness on UNSAT, a stream component does not. Its solve is the checker's
//! only match on a solver result. Encode and Solve cost the constraints that
//! *survive* pruning: a unit whose pruning ran and left none is accepted
//! without building a solver — the known graph is then the only compatible
//! graph, and the prune oracle already holds it acyclic. `solve.units`
//! ([`SolveStats`]) therefore counts the solver calls actually made; with
//! `pruning: false` every unit is encoded. Every stage time is its span's
//! duration, and a unit's times and stats are one tally that shards merge and
//! the metrics registry records.
//!
//! # Isolation levels
//!
//! [`IsolationLevel::Si`] runs the paper's pipeline on the layered
//! `(SO ∪ WR ∪ WW);RW?` graph. [`IsolationLevel::Ser`] reuses the same
//! construction, pruning, encoding, and solving machinery under
//! [`Semantics::Ser`]: plain acyclicity over `SO ∪ WR ∪ WW ∪ RW` plus
//! Cobra's read-modify-write version-order inference — the logic of the
//! `cobra` baseline promoted into the main API, with cycle classification
//! and interpretation support.
//!
//! # Sharding
//!
//! With [`Sharding::Auto`] the engine first partitions the history into
//! key-connectivity components ([`ShardPlan`]): transaction sets sharing
//! no keys and no session edges. Each component is then a unit of its own,
//! checked on one of the scoped shard workers: the history of its sessions
//! in component-local ids ([`History::restrict`]), its own [`Facts`] and
//! axioms, then construct, prune, encode and solve; its facts are dropped
//! before the worker takes the next component, so no analysis is sized by
//! the whole history. The axioms may run per component because every
//! axiom witness lies inside one: the plan unions the key of every
//! operation, aborted ones included, so a read and every write of its key
//! share a component. The components' violations merge, by
//! [`AxiomViolation::position`], into the list [`Facts`] gives the whole
//! history; a cyclic violation is the lowest-numbered violating
//! component's, interpreted on that component and translated to global
//! ids. Stage timings and counters are merged into the single
//! [`CheckReport`]. The [`PruneThreads`] budget is the whole check's. When
//! key components are bridged by sessions the `SO` edges between them are
//! cross-shard constraints and the engine falls back to whole-history
//! checking ([`ShardFallback::CrossShardSessions`]); that one unit is the
//! history itself, without a copy, and reuses the plan's key index.

use crate::anomaly::Anomaly;
use crate::check::{CheckReport, EncodeStats, Outcome, SolveStats, Tally, Violation};
use crate::interpret::interpret;
use crate::list::{self, ListHistory};
use polysi_history::{
    AxiomViolation, Facts, History, KeyIndex, ShardComponent, ShardFallback, ShardPlan, TxnId,
};
use polysi_obs::{kv, Obs, SpanGuard, Tracer};
use polysi_polygraph::{
    ConstraintGen, ConstraintMode, Edge, KnownGraph, KnownGraphResult, Label, Polygraph,
    PruneOptions, PruneResult, Semantics,
};
use polysi_solver::{Lit, SolveResult, Solver, SolverStats};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The isolation level a history is checked against (the *policy*; the
/// graph-level *mechanism* is [`Semantics`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IsolationLevel {
    /// (Strong session) snapshot isolation — the paper's subject.
    #[default]
    Si,
    /// Serializability, Cobra-style, on the same polygraph/solver
    /// machinery.
    Ser,
}

impl IsolationLevel {
    /// Short stable name (`"si"` / `"ser"`), as accepted by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::Si => "si",
            IsolationLevel::Ser => "ser",
        }
    }

    /// Human-readable name for verdict messages.
    pub fn long_name(self) -> &'static str {
        match self {
            IsolationLevel::Si => "snapshot isolation",
            IsolationLevel::Ser => "serializability",
        }
    }

    /// The edge-composition semantics implementing this level.
    pub fn semantics(self) -> Semantics {
        match self {
            IsolationLevel::Si => Semantics::Si,
            IsolationLevel::Ser => Semantics::Ser,
        }
    }
}

/// Whether the engine may partition the history by key connectivity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Sharding {
    /// Always check the whole history as one unit.
    Off,
    /// Shard when the history splits into two or more independent
    /// components; fall back to whole-history checking otherwise.
    #[default]
    Auto,
}

/// The thread budget of a check (CLI `--prune-threads`): a sharded check
/// runs `min(budget, components)` shard workers, each unit's Prune sweep
/// on `budget / workers` threads (at least one; the `check` span records
/// both); an unsharded unit or a stream component sweeps on all of it.
/// Any setting produces byte-identical reports and counters, so this is
/// purely a performance knob.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PruneThreads {
    /// The machine's available parallelism.
    #[default]
    Auto,
    /// Exactly `n` threads (1 = a sequential check).
    Fixed(usize),
}

/// The machine's available parallelism, read once per process: the
/// standard library re-derives it on every call (on Linux from the cgroup
/// files — ≈15 µs), and the streaming checker resolves its thread knobs at
/// every sub-millisecond checkpoint.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

impl PruneThreads {
    /// The budget as a thread count. `Fixed` is capped at a small multiple
    /// of the machine's parallelism — an absurd `--prune-threads` value
    /// must degrade to oversubscription, not exhaust the thread limit.
    pub(crate) fn budget(self) -> usize {
        let cores = cores();
        match self {
            PruneThreads::Fixed(n) => n.clamp(1, cores.saturating_mul(4).max(64)),
            PruneThreads::Auto => cores,
        }
    }
}

/// Watermark compaction of the streaming checker's settled prefix
/// (CLI `--compact`). Batch checks ignore it; with streaming, any setting
/// yields the same checkpoint verdicts, violation lists, and witnesses as
/// `Off` for histories that respect the watermark contract (no reads below
/// the fence) — property-tested by `crates/polysi/tests/compaction.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompactMode {
    /// Compact every settled component at every accepted checkpoint.
    On,
    /// Never compact; memory grows with the stream (the PR-5 behavior).
    Off,
    /// Compact when a component's settled prefix is large enough to be
    /// worth the remap (the default). Since compaction engages only for
    /// components whose sessions were all sealed via `seal_session`,
    /// streams that never seal are unaffected.
    #[default]
    Auto,
}

impl CompactMode {
    /// Short stable name, as accepted by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            CompactMode::On => "on",
            CompactMode::Off => "off",
            CompactMode::Auto => "auto",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<CompactMode> {
        match s {
            "on" => Some(CompactMode::On),
            "off" => Some(CompactMode::Off),
            "auto" => Some(CompactMode::Auto),
            _ => None,
        }
    }
}

/// One stage of the pipeline (see the module docs for the mapping back to
/// Algorithm 1/2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Non-cyclic axioms (Algorithm 1, lines 2–4).
    Axioms,
    /// Polygraph construction (Algorithm 2).
    Construct,
    /// Constraint pruning (Algorithm 1, lines 10–32).
    Prune,
    /// SAT-modulo-acyclicity encoding (Section 4.4).
    Encode,
    /// Solving and counterexample extraction.
    Solve,
}

impl Stage {
    /// Stage name as printed in traces and figures.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Axioms => "axioms",
            Stage::Construct => "construct",
            Stage::Prune => "prune",
            Stage::Encode => "encode",
            Stage::Solve => "solve",
        }
    }

    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Axioms, Stage::Construct, Stage::Prune, Stage::Encode, Stage::Solve];
}

/// Engine knobs (everything but the isolation level, which is a
/// first-class argument of [`check`] / [`CheckEngine::new`]).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Key-connectivity sharding.
    pub sharding: Sharding,
    /// Constraint representation (generalized vs. plain).
    pub mode: ConstraintMode,
    /// Run constraint pruning before encoding.
    pub pruning: bool,
    /// Run the interpretation algorithm on cyclic violations.
    pub interpret: bool,
    /// The check's thread budget: shard workers × prune sweep threads.
    pub prune_threads: PruneThreads,
    /// Watermark compaction of the streaming checker's settled prefix
    /// ([`CompactMode`]); ignored by batch checks.
    pub compact: CompactMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            sharding: Sharding::Auto,
            mode: ConstraintMode::Generalized,
            pruning: true,
            interpret: true,
            prune_threads: PruneThreads::Auto,
            compact: CompactMode::Auto,
        }
    }
}

/// How the sharding stage partitioned (or declined to partition) the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Components checked independently (1 = whole-history).
    pub components: usize,
    /// Components under key connectivity alone; larger than `components`
    /// when session edges forced a merge.
    pub key_components: usize,
    /// Transactions in the largest component.
    pub largest: usize,
    /// Why the engine fell back to whole-history checking, if it did.
    pub fallback: Option<ShardFallback>,
}

/// Check `h` against `isolation` with the staged engine.
///
/// Sound and complete for both levels (Theorems 18/19 for SI; the Cobra
/// reduction for SER), assuming determinate transactions.
pub fn check(h: &History, isolation: IsolationLevel, opts: &EngineOptions) -> CheckReport {
    CheckEngine::new(isolation, *opts).check(h)
}

/// The staged, shardable checking engine. Construct once, reuse across
/// histories.
pub struct CheckEngine {
    isolation: IsolationLevel,
    opts: EngineOptions,
    obs: Obs,
}

/// What one pipeline unit (the whole history, or one shard) reports to
/// the merge: its axiom violations in global ids, the duration of its
/// axioms, and the tally of its graph stages when they ran.
#[derive(Default)]
struct UnitReport {
    violations: Vec<AxiomViolation>,
    axioms: Duration,
    tally: Option<Tally>,
}

/// A violating cycle in the ids of the unit that found it, with the
/// unit's history and facts, which interpret it.
struct Witness<'h> {
    unit: usize,
    history: Cow<'h, History>,
    facts: Facts,
    cycle: Vec<Edge>,
}

/// What the units of one check share: whether a unit's axioms failed, the
/// reports, and the lowest-numbered unit's witness so far.
#[derive(Default)]
struct Units<'h> {
    failed: AtomicBool,
    reports: Mutex<Vec<(usize, UnitReport)>>,
    witness: Mutex<Option<Witness<'h>>>,
}

impl Units<'_> {
    fn push(&self, i: usize, unit: UnitReport) {
        self.reports.lock().expect("shard worker panicked").push((i, unit));
    }
}

impl CheckEngine {
    /// An engine for `isolation` with the given knobs.
    pub fn new(isolation: IsolationLevel, opts: EngineOptions) -> Self {
        CheckEngine { isolation, opts, obs: Obs::default() }
    }

    /// Attach observability handles (span tracer + metrics registry). The
    /// default engine carries a disabled tracer and a private registry, so
    /// this is opt-in for the CLI / tests / benches that scrape them.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The engine's observability handles.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The engine's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Run the staged pipeline on a history.
    pub fn check(&self, h: &History) -> CheckReport {
        self.checked(h.len(), |span| self.check_inner(h, span))
    }

    /// Run the pipeline on a list-append history (PolySI-List, the paper's
    /// Appendix F) at the engine's level. Its front half, one `construct`
    /// span, reports the first list-specific [`AxiomViolation`] or builds
    /// the polygraph ([`crate::list`]) for Prune → Encode → Solve. Of the
    /// options, `pruning` and `prune_threads` apply; `sharding`, `mode`,
    /// `interpret` and `compact` do not, so a cycle carries no scenario.
    pub fn check_list(&self, h: &ListHistory) -> CheckReport {
        self.checked(h.len(), |_| {
            let span = self.obs.tracer.span("construct");
            let g = list::polygraph(h, self.isolation.semantics());
            let constructing = span.finish();
            let (cycle, tally) = match g {
                Ok(mut g) => {
                    let prune = self.opts.pruning.then_some(Prune::Scratch(None));
                    let prune_opts = PruneOptions::new(self.opts.prune_threads.budget());
                    self.run_graph(&mut g, prune, prune_opts, constructing)
                }
                Err(violation) => {
                    let mut tally = Tally::default();
                    tally.timings.constructing = constructing;
                    return (Outcome::AxiomViolations(vec![violation]), tally, None);
                }
            };
            let violation = |cycle: Vec<Edge>| {
                Outcome::CyclicViolation(Violation {
                    anomaly: Anomaly::classify(&cycle),
                    cycle,
                    scenario: None,
                })
            };
            (cycle.map_or(Outcome::Si, violation), tally, None)
        })
    }

    /// One check of `txns` transactions under a `check` span, recorded in
    /// the metrics registry.
    fn checked(
        &self,
        txns: usize,
        inner: impl FnOnce(&mut SpanGuard) -> (Outcome, Tally, Option<ShardStats>),
    ) -> CheckReport {
        let mut span =
            self.obs.tracer.span_kv("check", kv! { isolation: self.isolation.name(), txns: txns });
        let (outcome, mut tally, shard_stats) = inner(&mut span);
        span.attr("verdict", outcome.kind());
        // A batch report always carries an `encode` object (zeros when no
        // unit reached Encode), and so does the registry.
        tally.encode_stats.get_or_insert_default();
        self.record_metrics(txns, &outcome, &tally);
        tally.report(outcome, shard_stats)
    }

    fn check_inner(
        &self,
        h: &History,
        check_span: &mut SpanGuard,
    ) -> (Outcome, Tally, Option<ShardStats>) {
        // The plan comes first, so that no analysis is ever sized by more
        // than one unit. A plan that does not shard is dropped, and the one
        // unit, `h` itself, reuses the keys it interned.
        let (plan, index) = match self.opts.sharding {
            Sharding::Off => (None, None),
            Sharding::Auto => {
                let (plan, index) = self.shard_plan(h);
                (Some(plan), Some(index))
            }
        };
        let shard_stats = plan.as_ref().map(|plan| ShardStats {
            components: plan.components.len().max(1),
            key_components: plan.key_components.max(1),
            largest: plan.largest().max(if plan.is_shardable() { 0 } else { h.len() }),
            fallback: plan.fallback(),
        });
        let plan = plan.filter(ShardPlan::is_shardable);
        let index = index.filter(|_| plan.is_none());
        let budget = self.opts.prune_threads.budget();
        let workers = plan.as_ref().map_or(1, |plan| budget.min(plan.components.len()));
        let sweep_threads = (budget / workers).max(1);
        check_span.attr("workers", workers);
        check_span.attr("sweep_threads", sweep_threads);
        let prune_opts = PruneOptions::new(sweep_threads);

        // Every unit runs the axioms; once one has failed, the rest skip
        // the graph stages, and the lowest-numbered unit that found a
        // violating cycle keeps what interprets it.
        let units = Units::default();
        match &plan {
            None => units.push(0, self.check_unit(h, None, index, prune_opts, &units)),
            Some(plan) => self.check_shards(h, plan, workers, prune_opts, &units),
        }
        let mut reports = units.reports.into_inner().expect("shard worker panicked");
        reports.sort_by_key(|&(i, _)| i);

        // Axiom witnesses never span components (the plan unions the key of
        // every operation, aborted ones included), so the global list is
        // the units' lists in the order `Facts` gives one history.
        let mut violations: Vec<AxiomViolation> =
            reports.iter_mut().flat_map(|(_, unit)| std::mem::take(&mut unit.violations)).collect();
        let mut tally = Tally::default();
        if !violations.is_empty() {
            violations.sort_by_key(AxiomViolation::position);
            tally.timings.constructing = reports.iter().map(|(_, unit)| unit.axioms).sum();
            return (Outcome::AxiomViolations(violations), tally, None);
        }
        for (_, unit) in reports {
            tally.merge(unit.tally.expect("with no axiom failure every unit ran its graph"));
        }

        let witness = units.witness.into_inner().expect("shard worker panicked");
        let outcome = match witness {
            None => Outcome::Si,
            Some(Witness { unit, history, facts, mut cycle }) => {
                let _span = self.obs.tracer.span("interpret");
                let global = |t: TxnId| plan.as_ref().map_or(t, |p| p.components[unit].global(t));
                let scenario = self
                    .opts
                    .interpret
                    .then(|| interpret(&history, &facts, &cycle).map_txns(global));
                drop((history, facts));
                for e in &mut cycle {
                    (e.from, e.to) = (global(e.from), global(e.to));
                }
                let anomaly = Anomaly::classify(&cycle);
                Outcome::CyclicViolation(Violation { cycle, anomaly, scenario })
            }
        };
        (outcome, tally, shard_stats)
    }

    /// The key-connectivity plan and the key index it was computed from,
    /// under a `shard.plan` span whose duration the `check.shard_plan_us`
    /// histogram records (no stage includes it).
    fn shard_plan(&self, h: &History) -> (ShardPlan, KeyIndex) {
        let mut span = self.obs.tracer.span("shard.plan");
        let index = KeyIndex::build(h);
        let plan = ShardPlan::analyze_with(h, &index);
        span.attr("components", plan.components.len());
        span.attr("keys", index.len());
        span.attr("largest", plan.largest());
        let took = span.finish();
        self.obs.metrics.histogram_us("check.shard_plan_us").observe_duration(took);
        (plan, index)
    }

    /// Check every component on `workers` scoped threads, each under a
    /// `shard` span.
    fn check_shards<'h>(
        &self,
        h: &'h History,
        plan: &ShardPlan,
        workers: usize,
        prune_opts: PruneOptions,
        units: &Units<'h>,
    ) {
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(comp) = plan.components.get(i) else { break };
            let _span = self.obs.tracer.span_kv("shard", kv! { component: i, txns: comp.len() });
            units.push(i, self.check_unit(h, Some((i, comp)), None, prune_opts, units));
        };
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }

    /// One unit — the whole history (`comp == None`; `index` is its keys,
    /// when the plan interned them) or the history of one component's
    /// sessions, in component-local ids: Stage::Axioms on its own facts,
    /// then, unless a unit's axioms failed, Stage::Construct and the shared
    /// Prune → Encode → Solve runner, and on UNSAT the witness. The unit's
    /// facts are dropped on return unless its cycle is the check's witness
    /// so far.
    fn check_unit<'h>(
        &self,
        h: &'h History,
        comp: Option<(usize, &ShardComponent)>,
        index: Option<KeyIndex>,
        prune_opts: PruneOptions,
        units: &Units<'h>,
    ) -> UnitReport {
        let tracer = &self.obs.tracer;
        let mut span =
            tracer.span_kv("axioms", kv! { txns: comp.map_or(h.len(), |(_, c)| c.len()) });
        let history = match comp {
            None => Cow::Borrowed(h),
            Some((_, c)) => Cow::Owned(h.restrict(&c.sessions)),
        };
        let index = index.unwrap_or_else(|| KeyIndex::build(&history));
        span.attr("ops", index.op_ids().len());
        span.attr("keys", index.len());
        let facts = Facts::analyze_with(&history, &index);
        drop(index);
        let axioms = span.finish();
        self.obs.metrics.histogram_us("check.axioms_us").observe_duration(axioms);
        let mut unit = UnitReport { axioms, ..UnitReport::default() };
        if !facts.axioms_ok() {
            units.failed.store(true, Ordering::Relaxed);
            let global = |t: TxnId| comp.map_or(t, |(_, c)| c.global(t));
            unit.violations = facts.violations.into_iter().map(|v| v.map_txns(global)).collect();
            return unit;
        }
        if units.failed.load(Ordering::Relaxed) {
            return unit;
        }

        let span = tracer.span("construct");
        let semantics = self.isolation.semantics();
        let (mut g, gen) =
            Polygraph::from_history_with(&history, &facts, self.opts.mode, semantics);
        // Without pruning every constraint is stored here; with it, the
        // first prune pass generates them and stores only the undecided.
        if !self.opts.pruning {
            g.constraints = gen.store();
        }
        let constructing = span.finish();

        let prune = self.opts.pruning.then_some(Prune::Scratch(Some(gen)));
        let (cycle, tally) = self.run_graph(&mut g, prune, prune_opts, axioms + constructing);
        unit.tally = Some(tally);
        if let Some(cycle) = cycle {
            let i = comp.map_or(0, |(i, _)| i);
            let mut witness = units.witness.lock().expect("shard worker panicked");
            if witness.as_ref().is_none_or(|w| i < w.unit) {
                *witness = Some(Witness { unit: i, history, facts, cycle });
            }
        }
        unit
    }

    /// [`run_unit`] on a constructed unit, and on UNSAT its witness, timed
    /// as part of the Solve stage: the violating cycle, if any, and the
    /// unit's tally, whose `constructing` is given.
    fn run_graph(
        &self,
        g: &mut Polygraph,
        prune: Option<Prune<'_>>,
        prune_opts: PruneOptions,
        constructing: Duration,
    ) -> (Option<Vec<Edge>>, Tally) {
        let tracer = &self.obs.tracer;
        let (verdict, mut tally, _oracle) = run_unit(g, prune, &prune_opts, tracer);
        tally.timings.constructing = constructing;
        let cycle = match verdict {
            UnitVerdict::Accepted => None,
            UnitVerdict::PruneCycle(cycle) => Some(cycle),
            UnitVerdict::Unsat => {
                let span = tracer.span("solve.witness");
                let cycle = extract_cycle(g);
                tally.timings.solving += span.finish();
                Some(cycle)
            }
        };
        (cycle, tally)
    }

    /// Fold a finished check of `txns` transactions into the metrics
    /// registry: the run counters, the tally's stage counters, and the
    /// stage times as histograms. Plain counters carry only
    /// scheduling-independent totals (the digest contract).
    fn record_metrics(&self, txns: usize, outcome: &Outcome, tally: &Tally) {
        let m = &self.obs.metrics;
        m.counter("check.runs").inc();
        m.counter("check.txns").add(txns as u64);
        match outcome {
            Outcome::Si | Outcome::Inconclusive(_) => {}
            Outcome::AxiomViolations(v) => m.counter("check.axiom_violations").add(v.len() as u64),
            Outcome::CyclicViolation(_) => m.counter("check.cyclic_violations").inc(),
        }
        tally.record(m);
        let t = &tally.timings;
        m.histogram_us("check.total_us").observe_duration(t.total());
        m.histogram_us("check.construct_us").observe_duration(t.constructing);
        m.histogram_us("check.prune_us").observe_duration(t.pruning);
        m.histogram_us("check.encode_us").observe_duration(t.encoding);
        m.histogram_us("check.solve_us").observe_duration(t.solving);
    }
}

/// Where a unit's Prune stage starts.
pub(crate) enum Prune<'a> {
    /// From scratch: a batch unit or a rebuilt stream component, whose
    /// first pass generates its constraints; with `None`, a list history
    /// ([`CheckEngine::check_list`]), whose first pass reads the
    /// constraints its front half stored.
    Scratch(Option<ConstraintGen>),
    /// From a stream component's warm oracle, seeded with the transactions
    /// its delta `touched`, whose first pass generates the delta's
    /// constraints after the stored ones; the stage spans are then
    /// `delta.*`.
    Resume(Box<KnownGraph>, &'a [bool], ConstraintGen),
}

/// What the Prune → Encode → Solve runner concluded about one unit.
pub(crate) enum UnitVerdict {
    /// Some resolution of the surviving constraints is acyclic.
    Accepted,
    /// Pruning closed this known cycle (the unit's local ids).
    PruneCycle(Vec<Edge>),
    /// No resolution is acyclic; a witness is the caller's to extract.
    Unsat,
}

/// Stages Prune (skipped when `prune` is `None`) → Encode → Solve for one
/// unit whose polygraph the caller constructed: a batch unit, or a dirty
/// stream component, rebuilt or extended by its delta. Returns the
/// verdict, the unit's tally (`constructing` is the caller's) and, when
/// pruning completed, the reachability oracle it maintained.
///
/// When pruning completed and left no constraint, the unit is accepted
/// without a solver. That is sound because [`PruneResult::Pruned`] means
/// every known edge sits in an acyclic oracle, and with no constraint left
/// the known graph is the only compatible graph; it is also what the
/// solver would answer. Without an oracle — `pruning: false` — the known
/// graph has not been checked, so the unit is encoded whatever it holds.
pub(crate) fn run_unit(
    g: &mut Polygraph,
    prune: Option<Prune<'_>>,
    prune_opts: &PruneOptions,
    tracer: &Tracer,
) -> (UnitVerdict, Tally, Option<Box<KnownGraph>>) {
    let delta = matches!(prune, Some(Prune::Resume(..)));
    let [prune_name, encode_name, solve_name] = if delta {
        ["delta.prune", "delta.encode", "delta.solve"]
    } else {
        ["prune", "encode", "solve"]
    };
    let mut tally = Tally::default();
    let mut oracle = None;
    if let Some(from) = prune {
        let mut span = tracer.span(prune_name);
        let constraints = match &from {
            Prune::Scratch(Some(gen)) | Prune::Resume(_, _, gen) => {
                g.constraints.len() + gen.counts().0
            }
            Prune::Scratch(None) => g.constraints.len(),
        };
        span.attr("constraints", constraints);
        let (result, kg) = match from {
            Prune::Scratch(Some(gen)) => g.prune_generated(&gen, prune_opts, tracer),
            Prune::Scratch(None) => g.prune(prune_opts, tracer),
            Prune::Resume(kg, seed, gen) => g.prune_resume(kg, seed, &gen, prune_opts, tracer),
        };
        span.attr("remaining", g.constraints.len());
        if let Some(kg) = &kg {
            tally.oracles.record(kg.oracle_kind());
            // What the representation rule picked, its two inputs (the
            // second costs a pass over the graph) and what the store holds.
            if tracer.is_enabled() {
                span.attr("oracle", kg.oracle_kind().name());
                span.attr("n", g.n);
                span.attr("chains", kg.rule_chains());
                span.attr("bytes", kg.oracle_bytes());
            }
        }
        tally.timings.pruning = span.finish();
        match result {
            PruneResult::Violation(cycle) => return (UnitVerdict::PruneCycle(cycle), tally, None),
            PruneResult::Pruned(stats) => {
                tally.prune_stats = Some(stats);
                oracle = kg;
            }
        }
    }

    let span = tracer.span(encode_name);
    let decided = oracle.is_some() && g.constraints.is_empty();
    // Phase seeding reuses the oracle pruning just maintained (it reflects
    // every resolved edge) instead of paying a second from-scratch closure
    // build.
    let encoded = (!decided).then(|| encode(g, oracle.as_deref()));
    tally.timings.encoding = span.finish();
    let mut span = tracer.span(solve_name);
    span.attr("vars", g.constraints.len());
    let (sat, encode_stats, solver_stats) = match encoded {
        None => (true, EncodeStats::default(), None),
        Some((mut solver, encode_stats)) => {
            solver.set_tracer(tracer.clone());
            let (sat, solver_stats) = solve(solver);
            (sat, encode_stats, Some(solver_stats))
        }
    };
    tally.timings.solving = span.finish();
    tally.encode_stats = Some(encode_stats);
    tally.solver_stats = solver_stats;
    tally.solve_stats = Some(SolveStats { units: solver_stats.is_some() as usize });
    let verdict = if sat { UnitVerdict::Accepted } else { UnitVerdict::Unsat };
    (verdict, tally, oracle)
}

/// Encode a polygraph into the SAT-modulo-acyclicity solver. Under SI the
/// theory graph is the layered one (2n nodes, `Dep` edges fan out to
/// boundary + mid images); under SER it is the plain n-node graph with
/// every edge direct. Selector phases are seeded from a topological order
/// of the known graph so the solver's first full assignment is already
/// near-acyclic; `oracle` (the reachability oracle pruning handed back,
/// when it ran) supplies that order without a rebuild.
fn encode(g: &Polygraph, oracle: Option<&KnownGraph>) -> (Solver, EncodeStats) {
    let n = g.n;
    let semantics = g.semantics;
    let topo: Option<Vec<u32>> = match oracle {
        Some(kg) => Some(kg.topo_positions()),
        None => match g.known_graph() {
            KnownGraphResult::Acyclic(kg) => Some(kg.topo_positions()),
            KnownGraphResult::Cyclic(_) => None, // solver will report Unsat
        },
    };
    let mut solver = Solver::with_graph(semantics.layers() * n);
    let mut encode_stats = EncodeStats::default();
    for e in &g.known {
        add_known(&mut solver, n, e, semantics);
        encode_stats.known_edges += edge_count(e, semantics);
    }
    for cons in &g.constraints {
        let var = solver.new_var();
        let s = Lit::pos(var);
        encode_stats.vars += 1;
        if let Some(topo) = &topo {
            solver.set_phase(var, phase_along_topo(topo, cons, semantics));
        }
        for e in cons.either {
            add_symbolic(&mut solver, n, s, e, semantics);
            encode_stats.symbolic_edges += edge_count(e, semantics);
        }
        for e in cons.or {
            add_symbolic(&mut solver, n, !s, e, semantics);
            encode_stats.symbolic_edges += edge_count(e, semantics);
        }
    }
    (solver, encode_stats)
}

/// Stage::Solve proper: whether the encoded instance is satisfiable, i.e.
/// some resolution of the surviving constraints is acyclic, and what the
/// search cost. Consumes the solver, so its clauses are freed before the
/// caller builds a witness.
fn solve(mut solver: Solver) -> (bool, SolverStats) {
    let sat = match solver.solve() {
        SolveResult::Sat(_) => true,
        SolveResult::Unsat => false,
        SolveResult::Unknown => unreachable!("the engine sets no conflict budget"),
    };
    (sat, *solver.stats())
}

/// On UNSAT, every resolution of the constraints is cyclic (Definition 15),
/// so resolving everything one way and extracting a cycle yields a genuine
/// counterexample. We try both uniform resolutions and keep the shorter
/// cycle. A pure function of the polygraph, never of solver state.
pub(crate) fn extract_cycle(g: &Polygraph) -> Vec<Edge> {
    let mut best: Option<Vec<Edge>> = None;
    for either in [true, false] {
        let mut edges = g.known.clone();
        for c in &g.constraints {
            edges.extend_from_slice(if either { c.either } else { c.or });
        }
        if let Some(cycle) = KnownGraph::find_cycle(g.n, &edges, g.semantics) {
            if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                best = Some(cycle);
            }
        }
    }
    best.expect("UNSAT instance must be cyclic under a uniform resolution")
}

/// Prefer the constraint side whose edges agree with the known topological
/// order. Under SI only `WW` edges vote (the `RW` companions follow them);
/// under SER every edge is a plain edge and votes.
fn phase_along_topo(
    topo: &[u32],
    cons: polysi_polygraph::ConstraintRef<'_>,
    sem: Semantics,
) -> bool {
    let agreement = |side: &[Edge]| -> i64 {
        side.iter()
            .filter(|e| sem == Semantics::Ser || matches!(e.label, Label::Ww(_)))
            .map(|e| if topo[e.from.idx()] < topo[e.to.idx()] { 1i64 } else { -1 })
            .sum()
    };
    agreement(cons.either) >= agreement(cons.or)
}

/// Theory edges contributed by one typed edge.
#[inline]
fn edge_count(e: &Edge, sem: Semantics) -> usize {
    if sem == Semantics::Si && e.label.is_dep() {
        2
    } else {
        1
    }
}

/// Add a known edge's theory image. Under SI, the layered mapping (see
/// [`KnownGraph`]): `Dep i→k` becomes `B(i)→B(k)` and `B(i)→M(k)`;
/// `RW k→j` becomes `M(k)→B(j)`. Under SER, one direct edge.
fn add_known(solver: &mut Solver, n: usize, e: &Edge, sem: Semantics) {
    let (f, t) = (e.from.0, e.to.0);
    match sem {
        Semantics::Ser => solver.add_known_edge(f, t),
        Semantics::Si => {
            if e.label.is_dep() {
                solver.add_known_edge(f, t);
                solver.add_known_edge(f, n as u32 + t);
            } else {
                solver.add_known_edge(n as u32 + f, t);
            }
        }
    }
}

fn add_symbolic(solver: &mut Solver, n: usize, guard: Lit, e: &Edge, sem: Semantics) {
    let (f, t) = (e.from.0, e.to.0);
    match sem {
        Semantics::Ser => solver.add_symbolic_edge(guard, f, t),
        Semantics::Si => {
            if e.label.is_dep() {
                solver.add_symbolic_edge(guard, f, t);
                solver.add_symbolic_edge(guard, f, n as u32 + t);
            } else {
                solver.add_symbolic_edge(guard, n as u32 + f, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, TxnId, Value};
    use polysi_polygraph::ConstraintSet;
    use proptest::prelude::*;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    /// Three-way write skew: every transaction reads one key and writes the
    /// next. SI accepts (the cycle is all-RW); SER rejects.
    fn write_skew_chain() -> polysi_history::History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).write(k(3), v(3)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(3), v(33)).commit();
        b.session();
        b.begin().read(k(3), v(3)).write(k(1), v(11)).commit();
        b.build()
    }

    /// Two disjoint groups: group A is a clean serial chain, group B a lost
    /// update.
    fn two_components_one_bad() -> polysi_history::History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().write(k(10), v(100)).commit();
        b.session();
        b.begin().read(k(10), v(100)).write(k(10), v(101)).commit();
        b.session();
        b.begin().read(k(10), v(100)).write(k(10), v(102)).commit();
        b.build()
    }

    #[test]
    fn ser_rejects_what_si_accepts() {
        let h = write_skew_chain();
        let opts = EngineOptions::default();
        assert!(check(&h, IsolationLevel::Si, &opts).accepted());
        let ser = check(&h, IsolationLevel::Ser, &opts);
        assert!(!ser.accepted());
        match &ser.outcome {
            Outcome::CyclicViolation(viol) => {
                assert!(!viol.cycle.is_empty());
                assert!(viol.scenario.is_some(), "interpretation must run under SER too");
            }
            _ => panic!("SER violation must be cyclic"),
        }
    }

    #[test]
    fn sharded_violation_translates_to_global_ids() {
        let h = two_components_one_bad();
        let report = check(&h, IsolationLevel::Si, &EngineOptions::default());
        let stats = report.shard_stats.expect("auto sharding records stats");
        assert_eq!(stats.components, 2);
        assert_eq!(stats.fallback, None);
        match &report.outcome {
            Outcome::CyclicViolation(viol) => {
                assert_eq!(viol.anomaly, Anomaly::LostUpdate);
                // All cycle endpoints are the *global* ids of group B.
                for e in &viol.cycle {
                    assert!(e.from.0 >= 2 && e.to.0 >= 2, "cycle uses local ids: {:?}", viol.cycle);
                }
            }
            _ => panic!("the lost-update component must be rejected"),
        }
        // Off agrees.
        let off = EngineOptions { sharding: Sharding::Off, ..Default::default() };
        assert!(!check(&h, IsolationLevel::Si, &off).accepted());
    }

    /// The components' axiom violations merge into the whole history's
    /// list: every transaction's own violations, then the unresolved reads,
    /// each group in global order — so the first component's aborted read
    /// follows the second component's `Int` violation.
    #[test]
    fn sharded_axiom_violations_merge_in_whole_history_order() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).abort();
        b.session();
        b.begin().read(k(1), v(1)).commit();
        b.session();
        b.begin().write(k(10), v(10)).read(k(10), v(11)).commit();
        b.begin().write(k(10), v(11)).commit();
        let h = b.build();
        assert_eq!(ShardPlan::analyze(&h).components.len(), 2);
        let off = EngineOptions { sharding: Sharding::Off, ..Default::default() };
        let (auto, off) = (
            check(&h, IsolationLevel::Si, &Default::default()),
            check(&h, IsolationLevel::Si, &off),
        );
        assert!(auto.shard_stats.is_none(), "an axiom failure reports no partition");
        let (Outcome::AxiomViolations(sharded), Outcome::AxiomViolations(whole)) =
            (&auto.outcome, &off.outcome)
        else {
            panic!("both checks must fail the axioms")
        };
        assert_eq!(sharded, whole);
        assert!(matches!(
            sharded[..],
            [
                AxiomViolation::Int { txn: TxnId(2), .. },
                AxiomViolation::AbortedRead { reader: TxnId(1), writer: TxnId(0), .. }
            ]
        ));
    }

    #[test]
    fn sharded_and_whole_history_stats_both_flow() {
        let h = two_components_one_bad();
        let auto = check(&h, IsolationLevel::Ser, &EngineOptions::default());
        assert!(auto.shard_stats.is_some());
        assert!(!auto.accepted(), "a lost update is not serializable");
        let off = check(
            &h,
            IsolationLevel::Ser,
            &EngineOptions { sharding: Sharding::Off, ..Default::default() },
        );
        assert!(off.shard_stats.is_none());
        assert_eq!(auto.accepted(), off.accepted());
    }

    #[test]
    fn fallback_reported_for_bridging_sessions() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().write(k(10), v(100)).commit();
        b.session();
        b.begin().read(k(1), v(1)).commit();
        b.begin().read(k(10), v(100)).commit();
        let report = check(&b.build(), IsolationLevel::Si, &EngineOptions::default());
        assert!(report.accepted());
        let stats = report.shard_stats.unwrap();
        assert_eq!(stats.components, 1);
        assert_eq!(stats.key_components, 2);
        assert_eq!(stats.fallback, Some(ShardFallback::CrossShardSessions));
    }

    #[test]
    fn prune_threads_do_not_change_reports() {
        let histories = [write_skew_chain(), two_components_one_bad()];
        for h in &histories {
            for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
                let run = |threads: PruneThreads| {
                    let opts = EngineOptions { prune_threads: threads, ..Default::default() };
                    check(h, isolation, &opts)
                };
                let seq = run(PruneThreads::Fixed(1));
                for threads in [PruneThreads::Fixed(4), PruneThreads::Auto] {
                    let par = run(threads);
                    assert_eq!(seq.accepted(), par.accepted(), "{isolation:?} {threads:?}");
                    let cycles = |r: &crate::check::CheckReport| match &r.outcome {
                        Outcome::CyclicViolation(v) => format!("{:?}", v.cycle),
                        _ => String::new(),
                    };
                    assert_eq!(cycles(&seq), cycles(&par), "{isolation:?} {threads:?}");
                    assert_eq!(
                        seq.prune_stats.map(|s| (s.constraints_after, s.unknown_deps_after)),
                        par.prune_stats.map(|s| (s.constraints_after, s.unknown_deps_after)),
                    );
                }
            }
        }
    }

    /// `solve_stats.units` counts the solver calls actually made: one per
    /// component that reaches the Solve stage with a constraint pruning
    /// could not resolve. A component pruning decides completely is
    /// accepted without a solver — unless pruning is off, when nothing
    /// vouches for its known graph and every component is encoded.
    #[test]
    fn solve_units_count_components_that_reach_solve() {
        // Three read-modify-write components: the `WR` edge decides the
        // one writer pair of each. With `blind`, two more whose writers
        // never read: either order is possible, so the pair survives.
        let history = |blind: bool| {
            let mut b = HistoryBuilder::new();
            for base in [0, 10, 20] {
                b.session();
                b.begin().write(k(base), v(1)).commit();
                b.session();
                b.begin().read(k(base), v(1)).write(k(base), v(2)).commit();
            }
            for base in [30, 40].into_iter().filter(|_| blind) {
                b.session();
                b.begin().write(k(base), v(1)).commit();
                b.session();
                b.begin().write(k(base), v(2)).commit();
            }
            b.build()
        };
        let (decided, h) = (history(false), history(true));

        let report = check(&h, IsolationLevel::Si, &EngineOptions::default());
        assert!(report.accepted());
        assert_eq!(report.shard_stats.map(|s| s.components), Some(5));
        assert_eq!(report.prune_stats.map(|p| p.constraints_after), Some(2));
        assert_eq!(report.solve_stats.map(|s| s.units), Some(2));
        assert_eq!(report.encode_stats.vars, 2);
        let off = EngineOptions { sharding: Sharding::Off, ..Default::default() };
        assert_eq!(check(&h, IsolationLevel::Si, &off).solve_stats.map(|s| s.units), Some(1));

        // Nothing survives: no solver is built, whole or sharded.
        for opts in [EngineOptions::default(), off] {
            let report = check(&decided, IsolationLevel::Si, &opts);
            assert!(report.accepted());
            assert_eq!(report.prune_stats.map(|p| p.constraints_after), Some(0));
            assert_eq!(report.solve_stats.map(|s| s.units), Some(0));
            assert!(report.solver_stats.is_none());
            assert_eq!((report.encode_stats.vars, report.encode_stats.known_edges), (0, 0));
        }
        let unpruned = EngineOptions { pruning: false, ..Default::default() };
        let report = check(&decided, IsolationLevel::Si, &unpruned);
        assert!(report.accepted());
        assert_eq!(report.solve_stats.map(|s| s.units), Some(3));
        assert_eq!(report.encode_stats.vars, 3);
    }

    #[test]
    fn prune_threads_resolve() {
        assert_eq!(PruneThreads::Fixed(3).budget(), 3);
        assert_eq!(PruneThreads::Fixed(0).budget(), 1);
        assert_eq!(
            PruneThreads::Fixed(usize::MAX).budget(),
            cores().saturating_mul(4).max(64),
            "absurd --prune-threads values must be capped, not spawned"
        );
        assert_eq!(PruneThreads::Auto.budget(), cores());
    }

    #[test]
    fn stage_names_cover_the_pipeline() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["axioms", "construct", "prune", "encode", "solve"]);
        assert_eq!(IsolationLevel::Ser.name(), "ser");
        assert_eq!(IsolationLevel::Si.long_name(), "snapshot isolation");
    }

    // -- encode + solve ≡ enumerated ground truth on random polygraphs ------

    #[derive(Debug, Clone)]
    struct RandomPolygraph {
        n: usize,
        known: Vec<Edge>,
        constraints: Vec<(Vec<Edge>, Vec<Edge>)>,
        semantics: Semantics,
    }

    fn edge_strategy(n: u32) -> impl Strategy<Value = Edge> {
        (0..n, 0..n - 1, 0u8..4, 0u64..3).prop_map(move |(f, t0, kind, key)| {
            let t = if t0 >= f { t0 + 1 } else { t0 };
            let label = match kind {
                0 => Label::So,
                1 => Label::Wr(Key(key)),
                2 => Label::Ww(Key(key)),
                _ => Label::Rw(Key(key)),
            };
            Edge::new(TxnId(f), TxnId(t), label)
        })
    }

    fn polygraph_strategy() -> impl Strategy<Value = RandomPolygraph> {
        (4u32..10, any::<bool>()).prop_flat_map(|(n, ser)| {
            let known = prop::collection::vec(edge_strategy(n), 0..10);
            let constraints = prop::collection::vec(
                (
                    prop::collection::vec(edge_strategy(n), 1..3),
                    prop::collection::vec(edge_strategy(n), 1..3),
                ),
                0..9,
            );
            (known, constraints).prop_map(move |(known, constraints)| RandomPolygraph {
                n: n as usize,
                known,
                constraints,
                semantics: if ser { Semantics::Ser } else { Semantics::Si },
            })
        })
    }

    fn build(rp: &RandomPolygraph) -> Polygraph {
        let mut constraints = ConstraintSet::new();
        for (either, or) in &rp.constraints {
            constraints.push(Key(0), either.iter().copied(), or.iter().copied());
        }
        Polygraph { n: rp.n, known: rp.known.clone(), constraints, semantics: rp.semantics }
    }

    /// Ground truth by enumeration: some resolution of the constraints is
    /// acyclic (Definition 15 — the instance is SAT iff one exists).
    fn enumerate_sat(g: &Polygraph) -> bool {
        let c = g.constraints.len();
        assert!(c <= 12, "enumeration bound");
        (0..(1u32 << c)).any(|mask| {
            let mut edges = g.known.clone();
            for (i, cons) in g.constraints.iter().enumerate() {
                edges.extend_from_slice(if mask >> i & 1 == 0 { cons.either } else { cons.or });
            }
            KnownGraph::find_cycle(g.n, &edges, g.semantics).is_none()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The Solve stage decides exactly the existence of an acyclic
        /// resolution, on random polygraphs under both semantics. Model
        /// validity on SAT is enforced internally (the solver cross-checks
        /// every model against the full theory before returning it).
        #[test]
        fn encode_and_solve_match_enumeration(rp in polygraph_strategy()) {
            let g = build(&rp);
            let truth = enumerate_sat(&g);
            let (solver, _) = encode(&g, None);
            prop_assert_eq!(solve(solver).0, truth);
        }

        /// The shared Prune → Encode → Solve runner: its verdict is the
        /// ground truth, it builds a solver exactly when a constraint
        /// survived pruning, and where it accepts without one the solver,
        /// run on the same pruned polygraph, accepts too.
        #[test]
        fn tail_without_survivors_accepts_exactly_like_the_solver(rp in polygraph_strategy()) {
            let mut g = build(&rp);
            let truth = enumerate_sat(&g);
            let (opts, tracer) = (PruneOptions::default(), Tracer::disabled());
            let (verdict, tally, oracle) = run_unit(&mut g, Some(Prune::Scratch(None)), &opts, &tracer);
            if let UnitVerdict::PruneCycle(_) = verdict {
                prop_assert!(!truth, "pruning rejected a satisfiable polygraph");
                return Ok(());
            }
            prop_assert_eq!(matches!(verdict, UnitVerdict::Accepted), truth);
            prop_assert_eq!(tally.solver_stats.is_none(), g.constraints.is_empty());
            if g.constraints.is_empty() {
                let known_edges = tally.encode_stats.map(|e| e.known_edges);
                prop_assert_eq!(known_edges, Some(0), "nothing was encoded");
                let (solver, _) = encode(&g, oracle.as_deref());
                prop_assert!(solve(solver).0, "the solver rejects what the runner accepted");
                // Without an oracle nothing vouches for the known graph.
                let (unpruned, tally, _) = run_unit(&mut g, None, &opts, &tracer);
                let solved = tally.solver_stats.is_some();
                prop_assert!(matches!(unpruned, UnitVerdict::Accepted) && solved);
            }
        }
    }
}
