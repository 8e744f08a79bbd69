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
//! | [`Stage::Axioms`] | Algorithm 1, lines 2–4 (`CheckNonCyclicAxioms`) | `Int`, aborted/intermediate reads, UniqueValue via [`Facts::analyze`]; on failure the graph stages are skipped |
//! | [`Stage::Construct`] | Algorithm 2 (`CreateKnownGraph` + `GenerateConstraints`) | known `SO ∪ WR` (+ init-read `RW`, + RMW-inferred `WW` under SER) edges and per-key writer-pair constraints |
//! | [`Stage::Prune`] | Algorithm 1, lines 10–32 (`PruneConstraints`) | worklist-driven fixpoint resolving constraints whose one side closes a known cycle; the reachability oracle updates incrementally across passes — closure propagation batched per apply phase — and the per-pass sweep can fan out over [`PruneThreads`] scoped threads |
//! | [`Stage::Encode`] | Algorithm 1, lines 5–7 (encoding, Section 4.4) | one selector variable per surviving constraint guarding graph edges in the SAT-modulo-acyclicity solver |
//! | [`Stage::Solve`] | Algorithm 1, lines 8–9 (solving + counterexample) | one CDCL-modulo-acyclicity solver call on the encoded instance; on UNSAT a violating cycle is extracted from the polygraph, classified, and interpreted |
//!
//! Encode and Solve are one function (`encode_and_solve`, shared with the
//! streaming checker) and cost the constraints that *survive* pruning: a
//! unit whose pruning ran and left no constraint is accepted without
//! building a solver — the known graph is then the only compatible graph,
//! and the prune oracle already holds it acyclic. `solve.units`
//! ([`SolveStats`]) therefore counts the solver calls actually made, not
//! the units that got that far; with `pruning: false` every unit is
//! encoded.
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
//! With [`Sharding::Auto`] the engine partitions the history into
//! key-connectivity components ([`ShardPlan`]): transaction sets sharing
//! no keys and no session edges. Each component is constructed, pruned,
//! encoded, and solved independently on scoped threads (axioms always run
//! once, globally); stage timings and counters are merged into the single
//! [`CheckReport`]. When key components are bridged by sessions the `SO`
//! edges between them are cross-shard constraints and the engine falls
//! back to whole-history checking
//! ([`ShardFallback::CrossShardSessions`]).

use crate::anomaly::Anomaly;
use crate::check::{
    CheckReport, EncodeStats, OracleCounts, Outcome, SolveStats, StageTimings, Violation,
};
use crate::interpret::interpret;
use polysi_history::{Facts, History, KeyIndex, ShardFallback, ShardPlan};
use polysi_obs::{kv, Metrics, Obs, Tracer};
use polysi_polygraph::{
    ConstraintMode, Edge, KnownGraph, KnownGraphResult, Label, Polygraph, PruneOptions,
    PruneResult, PruneStats, Semantics,
};
use polysi_solver::{Lit, SolveResult, Solver, SolverStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

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

/// Worker threads for the intra-component constraint sweep of the Prune
/// stage. Any setting produces byte-identical verdicts, resolved-edge
/// sets, and counterexample cycles — the sweep is read-only against the
/// shared reachability oracle and resolutions are applied in constraint
/// order — so this is purely a performance knob (CLI `--prune-threads`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PruneThreads {
    /// Use the machine's available parallelism, divided across concurrent
    /// shard pipelines when the history is sharded.
    #[default]
    Auto,
    /// Exactly `n` sweep threads per pruning unit (1 = sequential).
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
    /// Resolve to a concrete thread count for one of `units` concurrently
    /// pruning pipeline units. `Fixed` is capped at a small multiple of
    /// the machine's parallelism — an absurd `--prune-threads` value must
    /// degrade to oversubscription, not exhaust the process thread limit.
    pub(crate) fn resolve(self, units: usize) -> usize {
        let cores = cores();
        match self {
            PruneThreads::Fixed(n) => n.clamp(1, cores.saturating_mul(4).max(64)),
            PruneThreads::Auto => (cores / units.max(1)).max(1),
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
    /// Seed solver decision phases along a topological order of the known
    /// graph.
    pub phase_seeding: bool,
    /// Intra-component parallelism of the Prune stage's constraint sweep.
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
            phase_seeding: true,
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

/// What one pipeline unit (the whole history, or one shard) produced.
/// Cycles are in *global* transaction ids.
#[derive(Default)]
struct UnitReport {
    cycle: Option<Vec<Edge>>,
    oracles: OracleCounts,
    timings: StageTimings,
    prune_stats: Option<PruneStats>,
    encode_stats: EncodeStats,
    solver_stats: Option<SolverStats>,
    solve_stats: Option<SolveStats>,
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
        let mut span = self
            .obs
            .tracer
            .span_kv("check", kv! { isolation: self.isolation.name(), txns: h.len() });
        let report = self.check_inner(h);
        span.attr("verdict", report.outcome.kind());
        self.record_metrics(h, &report);
        report
    }

    fn check_inner(&self, h: &History) -> CheckReport {
        let mut timings = StageTimings::default();
        let t0 = Instant::now();

        // Stage::Axioms — run once, globally: axiom witnesses (e.g. an
        // aborted write read in another session) may span what would
        // otherwise be distinct shards. Its time is folded into
        // `constructing`, as in the original pipeline.
        // The key index both analyses read is built here, once.
        let (index, facts) = {
            let mut span = self.obs.tracer.span_kv("axioms", kv! { txns: h.len() });
            let index = KeyIndex::build(h);
            span.attr("ops", index.op_ids().len());
            span.attr("keys", index.len());
            let facts = Facts::analyze_with(h, &index);
            (index, facts)
        };
        let axioms_time = t0.elapsed();
        self.obs.metrics.histogram_us("check.axioms_us").observe_duration(axioms_time);
        if !facts.axioms_ok() {
            timings.constructing = axioms_time;
            return CheckReport {
                outcome: Outcome::AxiomViolations(facts.violations),
                timings,
                prune_stats: None,
                encode_stats: EncodeStats::default(),
                solver_stats: None,
                solve_stats: None,
                shard_stats: None,
                oracles: OracleCounts::default(),
            };
        }

        let plan = match self.opts.sharding {
            Sharding::Off => None,
            Sharding::Auto => Some(self.shard_plan(h, &index)),
        };
        drop(index);
        let shard_stats = plan.as_ref().map(|plan| ShardStats {
            components: plan.components.len().max(1),
            key_components: plan.key_components.max(1),
            largest: plan.largest().max(if plan.is_shardable() { 0 } else { h.len() }),
            fallback: plan.fallback(),
        });
        let mut unit = match plan.filter(ShardPlan::is_shardable) {
            Some(plan) => self.check_shards(h, &facts, &plan),
            None => self.check_unit(h, &facts, None, self.prune_options(1)),
        };

        unit.timings.constructing += axioms_time;

        let outcome = match unit.cycle {
            None => Outcome::Si,
            Some(cycle) => {
                let scenario = self.opts.interpret.then(|| interpret(h, &facts, &cycle));
                let anomaly = Anomaly::classify(&cycle);
                Outcome::CyclicViolation(Violation { cycle, anomaly, scenario })
            }
        };
        CheckReport {
            outcome,
            timings: unit.timings,
            prune_stats: unit.prune_stats,
            encode_stats: unit.encode_stats,
            solver_stats: unit.solver_stats,
            solve_stats: unit.solve_stats,
            shard_stats,
            oracles: unit.oracles,
        }
    }

    /// The key-connectivity plan, under a `shard.plan` span and the
    /// `check.shard_plan_us` histogram. No [`StageTimings`] field includes
    /// this time.
    fn shard_plan(&self, h: &History, index: &KeyIndex) -> ShardPlan {
        let t = Instant::now();
        let mut span = self.obs.tracer.span("shard.plan");
        let plan = ShardPlan::analyze_with(h, index);
        span.attr("components", plan.components.len());
        span.attr("keys", index.len());
        span.attr("largest", plan.largest());
        drop(span);
        self.obs.metrics.histogram_us("check.shard_plan_us").observe_duration(t.elapsed());
        plan
    }

    /// Check every component on scoped worker threads and merge the
    /// results. The reported violation (if any) is the one from the
    /// lowest-numbered violating component, so sharded runs stay
    /// deterministic regardless of scheduling.
    fn check_shards(&self, h: &History, facts: &Facts, plan: &ShardPlan) -> UnitReport {
        let ncomp = plan.components.len();
        let workers = cores().clamp(1, ncomp);
        // Shard pipelines run `workers`-wide, so each unit's intra-prune
        // sweep gets a proportional share of the machine.
        let prune_opts = self.prune_options(workers);
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, UnitReport)>> = Mutex::new(Vec::with_capacity(ncomp));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ncomp {
                        break;
                    }
                    let _span = self
                        .obs
                        .tracer
                        .span_kv("shard", kv! { component: i, txns: plan.components[i].len() });
                    let unit = self.check_unit(h, facts, Some((plan, i)), prune_opts);
                    results.lock().expect("shard worker panicked").push((i, unit));
                });
            }
        });
        let mut units = results.into_inner().expect("shard worker panicked");
        units.sort_by_key(|&(i, _)| i);

        let mut merged = UnitReport::default();
        for (_, u) in units {
            if merged.cycle.is_none() {
                merged.cycle = u.cycle;
            }
            merged.oracles.dense += u.oracles.dense;
            merged.oracles.chains += u.oracles.chains;
            merged.timings.constructing += u.timings.constructing;
            merged.timings.pruning += u.timings.pruning;
            merged.timings.encoding += u.timings.encoding;
            merged.timings.solving += u.timings.solving;
            merged.prune_stats = match (merged.prune_stats, u.prune_stats) {
                (Some(a), Some(b)) => Some(a.merge(b)),
                (a, b) => a.or(b),
            };
            merged.encode_stats.vars += u.encode_stats.vars;
            merged.encode_stats.clauses += u.encode_stats.clauses;
            merged.encode_stats.known_edges += u.encode_stats.known_edges;
            merged.encode_stats.symbolic_edges += u.encode_stats.symbolic_edges;
            merged.solver_stats = match (merged.solver_stats, u.solver_stats) {
                (Some(a), Some(b)) => Some(merge_solver_stats(a, b)),
                (a, b) => a.or(b),
            };
            merged.solve_stats = match (merged.solve_stats, u.solve_stats) {
                (Some(a), Some(b)) => Some(SolveStats { units: a.units + b.units }),
                (a, b) => a.or(b),
            };
        }
        merged
    }

    /// Prune options for one pipeline unit, `units` of which prune
    /// concurrently.
    fn prune_options(&self, units: usize) -> PruneOptions {
        PruneOptions::new(self.opts.prune_threads.resolve(units))
    }

    /// Stages Construct → Prune → Encode → Solve for one unit: the whole
    /// history (`shard == None`) or one key-connectivity component.
    fn check_unit(
        &self,
        h: &History,
        facts: &Facts,
        shard: Option<(&ShardPlan, usize)>,
        prune_opts: PruneOptions,
    ) -> UnitReport {
        let comp = shard.map(|(plan, i)| &plan.components[i]);
        let semantics = self.isolation.semantics();
        let mut timings = StageTimings::default();
        let translate = |mut cycle: Vec<Edge>| {
            if let Some(c) = comp {
                for e in &mut cycle {
                    e.from = c.global(e.from);
                    e.to = c.global(e.to);
                }
            }
            cycle
        };

        // Stage::Construct.
        let t = Instant::now();
        let mut g = {
            let _span = self.obs.tracer.span("construct");
            match shard {
                None => Polygraph::from_history_with(h, facts, self.opts.mode, semantics),
                Some((plan, i)) => {
                    Polygraph::from_component(h, facts, self.opts.mode, semantics, plan, i)
                }
            }
        };
        timings.constructing = t.elapsed();

        // Stage::Prune.
        let mut prune_stats = None;
        let mut oracle = None;
        let mut oracles = OracleCounts::default();
        if self.opts.pruning {
            let t = Instant::now();
            let (pr, orc) = {
                let mut span =
                    self.obs.tracer.span_kv("prune", kv! { constraints: g.constraints.len() });
                let r = g.prune(&prune_opts, &self.obs.tracer);
                span.attr("remaining", g.constraints.len());
                if let Some(kg) = &r.1 {
                    oracles.record(kg.oracle_kind());
                    // What the representation rule picked, and its two
                    // inputs (the second costs a pass over the graph).
                    if self.obs.tracer.is_enabled() {
                        span.attr("oracle", kg.oracle_kind().name());
                        span.attr("n", g.n);
                        span.attr("chains", kg.rule_chains());
                    }
                }
                r
            };
            timings.pruning = t.elapsed();
            match pr {
                PruneResult::Pruned(stats) => {
                    prune_stats = Some(stats);
                    oracle = orc;
                }
                PruneResult::Violation(cycle) => {
                    return UnitReport {
                        cycle: Some(translate(cycle)),
                        oracles,
                        timings,
                        ..Default::default()
                    };
                }
            }
        }

        // Stages Encode → Solve (the counterexample is part of the Solve
        // stage's time, as it always was).
        let tail = encode_and_solve(
            &g,
            &self.opts,
            oracle.as_deref(),
            &self.obs.tracer,
            ["encode", "solve"],
        );
        timings.encoding = tail.encoding;
        let t = Instant::now();
        let cycle = (!tail.sat).then(|| {
            let _span = self.obs.tracer.span("solve.witness");
            translate(extract_cycle(&g))
        });
        timings.solving = tail.solving + t.elapsed();
        UnitReport {
            cycle,
            oracles,
            timings,
            prune_stats,
            encode_stats: tail.encode_stats,
            solver_stats: tail.solver_stats,
            solve_stats: Some(SolveStats { units: tail.solver_stats.is_some() as usize }),
        }
    }

    /// Fold a finished report into the metrics registry. Plain counters
    /// carry only scheduling-independent totals (the digest contract);
    /// stage latencies go into histograms.
    fn record_metrics(&self, h: &History, report: &CheckReport) {
        let m = &self.obs.metrics;
        m.counter("check.runs").inc();
        m.counter("check.txns").add(h.len() as u64);
        match &report.outcome {
            Outcome::Si => {}
            Outcome::AxiomViolations(v) => m.counter("check.axiom_violations").add(v.len() as u64),
            Outcome::CyclicViolation(_) => m.counter("check.cyclic_violations").inc(),
        }
        if let Some(p) = &report.prune_stats {
            record_prune_stats(m, p);
        }
        record_instance_stats(m, &report.encode_stats, report.solver_stats.as_ref());
        let t = &report.timings;
        m.histogram_us("check.total_us").observe_duration(t.total());
        m.histogram_us("check.construct_us").observe_duration(t.constructing);
        m.histogram_us("check.prune_us").observe_duration(t.pruning);
        m.histogram_us("check.encode_us").observe_duration(t.encoding);
        m.histogram_us("check.solve_us").observe_duration(t.solving);
    }
}

/// Fold the counters of one prune call (batch: the merged report's; stream:
/// one call per dirty component) into the registry. Per-component work is
/// identical for any worker count, so the totals stay deterministic.
pub(crate) fn record_prune_stats(m: &Metrics, p: &PruneStats) {
    m.counter("prune.constraints_before").add(p.constraints_before as u64);
    m.counter("prune.constraints_after").add(p.constraints_after as u64);
    m.counter("prune.closure_updates").add(p.closure_updates as u64);
    m.counter("prune.incremental_edges").add(p.incremental_edges as u64);
    m.counter("prune.implied_edges").add(p.implied_edges as u64);
    m.counter("prune.graph_builds").add(p.graph_builds as u64);
}

/// Fold the size of the encoded instances and the solver's search counters
/// into the registry (batch: the merged report's; stream: one call per
/// dirty component's tail).
pub(crate) fn record_instance_stats(m: &Metrics, e: &EncodeStats, s: Option<&SolverStats>) {
    m.counter("encode.vars").add(e.vars as u64);
    m.counter("encode.clauses").add(e.clauses as u64);
    m.counter("encode.known_edges").add(e.known_edges as u64);
    m.counter("encode.symbolic_edges").add(e.symbolic_edges as u64);
    if let Some(s) = s {
        m.counter("solver.decisions").add(s.decisions);
        m.counter("solver.propagations").add(s.propagations);
        m.counter("solver.conflicts").add(s.conflicts);
        m.counter("solver.theory_conflicts").add(s.theory_conflicts);
        m.counter("solver.learned_clauses").add(s.learned_clauses);
        m.counter("solver.restarts").add(s.restarts);
        m.counter("solver.theory_propagations").add(s.theory_propagations);
        m.counter("solver.theory_visits").add(s.theory_visits);
    }
}

fn merge_solver_stats(a: SolverStats, b: SolverStats) -> SolverStats {
    SolverStats {
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        conflicts: a.conflicts + b.conflicts,
        theory_conflicts: a.theory_conflicts + b.theory_conflicts,
        learned_clauses: a.learned_clauses + b.learned_clauses,
        restarts: a.restarts + b.restarts,
        theory_propagations: a.theory_propagations + b.theory_propagations,
        theory_visits: a.theory_visits + b.theory_visits,
    }
}

/// What the Encode → Solve tail of one pipeline unit produced.
pub(crate) struct Tail {
    /// Whether some resolution of the surviving constraints is acyclic.
    pub sat: bool,
    /// Size of the encoded instance (all zero when none was built).
    pub encode_stats: EncodeStats,
    /// The solver's search counters; `None` when no solver was called.
    pub solver_stats: Option<SolverStats>,
    /// Wall-clock of the Encode stage.
    pub encoding: Duration,
    /// Wall-clock of the Solve stage proper (no counterexample).
    pub solving: Duration,
}

/// Stages Encode → Solve for one pipeline unit — a batch unit or one dirty
/// component of a streaming checkpoint — under the two span names given.
///
/// The tail costs the constraints that survived pruning: when pruning ran
/// (`oracle` is the reachability oracle it handed back) and left none, the
/// unit is accepted here and no solver is built. That is sound because
/// [`PruneResult::Pruned`] means every known edge sits in an acyclic
/// oracle, and with no constraint left the known graph is the only
/// compatible graph; it is also what the solver would answer (`finalize`
/// on the known edges alone). Without an oracle — `pruning: false` — the
/// known graph has not been checked, so the unit is encoded whatever it
/// holds.
pub(crate) fn encode_and_solve(
    g: &Polygraph,
    opts: &EngineOptions,
    oracle: Option<&KnownGraph>,
    tracer: &Tracer,
    spans: [&'static str; 2],
) -> Tail {
    let t = Instant::now();
    let encoded = {
        let _span = tracer.span(spans[0]);
        let decided = oracle.is_some() && g.constraints.is_empty();
        // Phase seeding reuses the oracle pruning just maintained (it
        // reflects every resolved edge) instead of paying a second
        // from-scratch closure build.
        (!decided).then(|| encode(g, opts.phase_seeding, oracle))
    };
    let encoding = t.elapsed();
    let t = Instant::now();
    let mut span = tracer.span(spans[1]);
    span.attr("vars", g.constraints.len());
    let (sat, encode_stats, solver_stats) = match encoded {
        None => (true, EncodeStats::default(), None),
        Some((mut solver, encode_stats)) => {
            solver.set_tracer(tracer.clone());
            let (sat, solver_stats) = solve(solver);
            (sat, encode_stats, Some(solver_stats))
        }
    };
    Tail { sat, encode_stats, solver_stats, encoding, solving: t.elapsed() }
}

/// Encode a polygraph into the SAT-modulo-acyclicity solver. Under SI the
/// theory graph is the layered one (2n nodes, `Dep` edges fan out to
/// boundary + mid images); under SER it is the plain n-node graph with
/// every edge direct. Selector phases are seeded from a topological order
/// of the known graph so the solver's first full assignment is already
/// near-acyclic; `oracle` (the reachability oracle pruning handed back,
/// when it ran) supplies that order without a rebuild.
fn encode(
    g: &Polygraph,
    phase_seeding: bool,
    oracle: Option<&KnownGraph>,
) -> (Solver, EncodeStats) {
    let n = g.n;
    let semantics = g.semantics;
    let topo: Option<Vec<u32>> = if phase_seeding {
        match oracle {
            Some(kg) => Some(kg.topo_positions()),
            None => match g.known_graph() {
                KnownGraphResult::Acyclic(kg) => Some(kg.topo_positions()),
                KnownGraphResult::Cyclic(_) => None, // solver will report Unsat
            },
        }
    } else {
        None
    };
    let nodes = match semantics {
        Semantics::Si => 2 * n,
        Semantics::Ser => n,
    };
    let mut solver = Solver::with_graph(nodes);
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
        assert!(check(&h, IsolationLevel::Si, &opts).is_si());
        let ser = check(&h, IsolationLevel::Ser, &opts);
        assert!(!ser.is_si());
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
        assert!(!check(&h, IsolationLevel::Si, &off).is_si());
    }

    #[test]
    fn sharded_and_whole_history_stats_both_flow() {
        let h = two_components_one_bad();
        let auto = check(&h, IsolationLevel::Ser, &EngineOptions::default());
        assert!(auto.shard_stats.is_some());
        assert!(!auto.is_si(), "a lost update is not serializable");
        let off = check(
            &h,
            IsolationLevel::Ser,
            &EngineOptions { sharding: Sharding::Off, ..Default::default() },
        );
        assert!(off.shard_stats.is_none());
        assert_eq!(auto.is_si(), off.is_si());
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
        assert!(report.is_si());
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
                    assert_eq!(seq.is_si(), par.is_si(), "{isolation:?} {threads:?}");
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
        assert!(report.is_si());
        assert_eq!(report.shard_stats.map(|s| s.components), Some(5));
        assert_eq!(report.prune_stats.map(|p| p.constraints_after), Some(2));
        assert_eq!(report.solve_stats.map(|s| s.units), Some(2));
        assert_eq!(report.encode_stats.vars, 2);
        let off = EngineOptions { sharding: Sharding::Off, ..Default::default() };
        assert_eq!(check(&h, IsolationLevel::Si, &off).solve_stats.map(|s| s.units), Some(1));

        // Nothing survives: no solver is built, whole or sharded.
        for opts in [EngineOptions::default(), off] {
            let report = check(&decided, IsolationLevel::Si, &opts);
            assert!(report.is_si());
            assert_eq!(report.prune_stats.map(|p| p.constraints_after), Some(0));
            assert_eq!(report.solve_stats.map(|s| s.units), Some(0));
            assert!(report.solver_stats.is_none());
            assert_eq!((report.encode_stats.vars, report.encode_stats.known_edges), (0, 0));
        }
        let unpruned = EngineOptions { pruning: false, ..Default::default() };
        let report = check(&decided, IsolationLevel::Si, &unpruned);
        assert!(report.is_si());
        assert_eq!(report.solve_stats.map(|s| s.units), Some(3));
        assert_eq!(report.encode_stats.vars, 3);
    }

    #[test]
    fn prune_threads_resolve() {
        assert_eq!(PruneThreads::Fixed(3).resolve(8), 3);
        assert_eq!(PruneThreads::Fixed(0).resolve(1), 1);
        assert_eq!(
            PruneThreads::Fixed(usize::MAX).resolve(1),
            cores().saturating_mul(4).max(64),
            "absurd --prune-threads values must be capped, not spawned"
        );
        assert!(PruneThreads::Auto.resolve(1) >= 1);
        assert!(PruneThreads::Auto.resolve(usize::MAX) >= 1);
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
        /// resolution, on random polygraphs under both semantics, with
        /// and without phase seeding. Model validity on SAT is enforced
        /// internally (the solver cross-checks every model against the
        /// full theory before returning it).
        #[test]
        fn encode_and_solve_match_enumeration(rp in polygraph_strategy()) {
            let g = build(&rp);
            let truth = enumerate_sat(&g);
            for phase_seeding in [true, false] {
                let (solver, _) = encode(&g, phase_seeding, None);
                prop_assert_eq!(solve(solver).0, truth, "phase seeding {}", phase_seeding);
            }
        }

        /// The shared Encode → Solve tail after pruning: its verdict is
        /// the ground truth, it builds a solver exactly when a constraint
        /// survived, and where it accepts without one the solver, run on
        /// the same pruned polygraph, accepts too.
        #[test]
        fn tail_without_survivors_accepts_exactly_like_the_solver(rp in polygraph_strategy()) {
            let mut g = build(&rp);
            let truth = enumerate_sat(&g);
            let (pruned, oracle) = g.prune(&PruneOptions::default(), &Tracer::disabled());
            if let PruneResult::Violation(_) = pruned {
                prop_assert!(!truth, "pruning rejected a satisfiable polygraph");
                return Ok(());
            }
            let opts = EngineOptions::default();
            let tracer = Tracer::disabled();
            let tail = encode_and_solve(&g, &opts, oracle.as_deref(), &tracer, ["encode", "solve"]);
            prop_assert_eq!(tail.sat, truth);
            prop_assert_eq!(tail.solver_stats.is_none(), g.constraints.is_empty());
            if g.constraints.is_empty() {
                prop_assert_eq!(tail.encode_stats.known_edges, 0, "nothing was encoded");
                let (solver, _) = encode(&g, true, oracle.as_deref());
                prop_assert!(solve(solver).0, "the solver rejects what the tail accepted");
                // Without an oracle nothing vouches for the known graph.
                let unpruned = encode_and_solve(&g, &opts, None, &tracer, ["encode", "solve"]);
                prop_assert!(unpruned.sat && unpruned.solver_stats.is_some());
            }
        }
    }
}
