//! What a check run reports (Algorithm 1/2 of the paper): the verdict with
//! its witness, per-stage timing for the decomposition analysis (Section
//! 5.4.2) and the stage counters. The pipeline that fills them in is the
//! staged [`crate::engine::CheckEngine`]; each pipeline unit's share is one
//! [`Tally`], which shards merge and the metrics registry records.

use crate::anomaly::Anomaly;
use crate::engine::ShardStats;
use crate::interpret::Scenario;
use polysi_history::{AxiomViolation, Key, TxnId, Value};
use polysi_obs::Metrics;
use polysi_polygraph::{Edge, OracleKind, PruneStats};
use polysi_solver::SolverStats;
use std::time::Duration;

/// Wall-clock duration of each pipeline stage (Figure 9): the durations of
/// the stage's spans (`axioms` + `construct`, `prune`, `encode`, `solve` +
/// `solve.witness`). For sharded runs these are summed across components
/// (CPU time, not wall-clock — the components run concurrently).
/// Interpretation belongs to no stage: its `interpret` span runs once per
/// check, after the units' stages, and no field or [`Self::total`] counts
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Axiom checks + polygraph construction.
    pub constructing: Duration,
    /// Constraint pruning.
    pub pruning: Duration,
    /// SAT encoding.
    pub encoding: Duration,
    /// Solver run (including counterexample extraction on violation, but
    /// not its interpretation).
    pub solving: Duration,
}

impl StageTimings {
    /// Total checking time.
    pub fn total(&self) -> Duration {
        self.constructing + self.pruning + self.encoding + self.solving
    }
}

/// Size of the encoded SAT instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeStats {
    /// Boolean variables created (one selector per constraint).
    pub vars: usize,
    /// Clauses added.
    pub clauses: usize,
    /// Unconditional theory edges.
    pub known_edges: usize,
    /// Guard-conditional theory edges.
    pub symbolic_edges: usize,
}

/// How often the Solve stage ran.
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Solver calls actually made: pipeline units (the whole history, or
    /// one shard each) that reached the Solve stage with a constraint
    /// pruning had not resolved (or without pruning). A unit pruning
    /// decided completely is accepted without a solver and counts 0.
    /// Added up across shards.
    pub units: usize,
}

/// The verdict of a check — of a batch run, a stream checkpoint or a live
/// run. It claims only what the checker proved.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The history satisfies the checked isolation level, SI or SER (named
    /// for the original SI-only pipeline).
    Si,
    /// A non-cyclic axiom failed (`Int`, aborted read, intermediate read,
    /// UniqueValue, …); the history violates the level and graph analysis
    /// was skipped.
    AxiomViolations(Vec<AxiomViolation>),
    /// A cyclic violation with its witness.
    CyclicViolation(Violation),
    /// The checker could not decide: a limit of the checker, not a
    /// property of the history.
    Inconclusive(Inconclusive),
}

impl Outcome {
    /// Whether the history was accepted.
    pub fn accepted(&self) -> bool {
        matches!(self, Outcome::Si)
    }

    /// Stable machine-readable kind, used by span attributes and the
    /// `--report json` schemas: `ok` / `axiom_violation` /
    /// `cyclic_violation` / `inconclusive`.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Si => "ok",
            Outcome::AxiomViolations(_) => "axiom_violation",
            Outcome::CyclicViolation(_) => "cyclic_violation",
            Outcome::Inconclusive(_) => "inconclusive",
        }
    }
}

/// Why a check could not decide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inconclusive {
    /// A compacting stream refused these committed reads `(txn, key,
    /// value)` of a version below its watermark, whose edges to the
    /// dropped writers it can no longer build (ids of the checked prefix).
    Fenced(Vec<(TxnId, Key, Value)>),
    /// The stream's delta detector rejected a prefix that the batch engine
    /// accepts: a checker bug, reported instead of either answer.
    Disagreement,
}

impl Inconclusive {
    /// Stable machine-readable reason: `fenced` / `disagreement`.
    pub fn reason(&self) -> &'static str {
        match self {
            Inconclusive::Fenced(_) => "fenced",
            Inconclusive::Disagreement => "disagreement",
        }
    }

    /// The refused reads (none unless [`Inconclusive::Fenced`]).
    pub fn reads(&self) -> &[(TxnId, Key, Value)] {
        match self {
            Inconclusive::Fenced(reads) => reads,
            Inconclusive::Disagreement => &[],
        }
    }
}

/// A cyclic isolation violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violating cycle: typed dependency edges. Under SI no two `RW`
    /// edges are adjacent (so the cycle survives the `(Dep);RW?` induce
    /// rule of Theorem 6); under SER any dependency cycle violates.
    pub cycle: Vec<Edge>,
    /// Heuristic anomaly classification of the cycle.
    pub anomaly: Anomaly,
    /// The interpreted scenario (restored participants, resolved
    /// uncertainties, minimal finalized cause), when interpretation ran.
    pub scenario: Option<Scenario>,
}

impl Violation {
    /// The violation with every transaction id translated by `f`, which
    /// must keep ids in order (as a unit's local → global map does).
    pub(crate) fn map_txns(self, f: impl Fn(TxnId) -> TxnId) -> Violation {
        let edge = |e: Edge| Edge::new(f(e.from), f(e.to), e.label);
        let scenario = self.scenario.map(|s| Scenario {
            edges: s.edges.into_iter().map(|(e, c)| (edge(e), c)).collect(),
            finalized: s.finalized.into_iter().map(edge).collect(),
            transactions: s.transactions.into_iter().map(&f).collect(),
            restored: s.restored.into_iter().map(&f).collect(),
        });
        let cycle = self.cycle.into_iter().map(edge).collect();
        Violation { cycle, anomaly: self.anomaly, scenario }
    }
}

/// Everything a check run produces.
pub struct CheckReport {
    /// The verdict.
    pub outcome: Outcome,
    /// Per-stage times (summed across shards on sharded runs).
    pub timings: StageTimings,
    /// Pruning counters (Table 3), when pruning ran and completed; merged
    /// across shards on sharded runs.
    pub prune_stats: Option<PruneStats>,
    /// Encoded instance size.
    pub encode_stats: EncodeStats,
    /// Solver counters, when a solver was called; summed across shards on
    /// sharded runs.
    pub solver_stats: Option<SolverStats>,
    /// Solve-stage counters, when a unit reached the Solve stage.
    pub solve_stats: Option<SolveStats>,
    /// Sharding decision, when the engine ran with `Sharding::Auto`.
    pub shard_stats: Option<ShardStats>,
    /// Which reachability-oracle representation the Prune stage picked,
    /// per pipeline unit.
    pub oracles: OracleCounts,
}

/// Pipeline units (the whole history, or one shard each) whose Prune stage
/// built a reachability oracle, by the representation `KnownGraph::build`
/// picked for it ([`OracleKind`]). A unit whose known graph is cyclic
/// before any oracle exists, or that runs with `pruning: false`, counts
/// under neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleCounts {
    /// Units on the dense bit-matrix closure.
    pub dense: usize,
    /// Units on the session-chain decomposition.
    pub chains: usize,
}

impl OracleCounts {
    /// Count one unit's oracle.
    pub(crate) fn record(&mut self, kind: OracleKind) {
        match kind {
            OracleKind::Dense => self.dense += 1,
            OracleKind::Chains => self.chains += 1,
        }
    }
}

/// What one pipeline unit's stages produced and cost — a batch unit (the
/// whole history or one shard) or one dirty stream component. A stat is
/// `None` when its stage did not run (prune: did not complete; solver: was
/// not called).
#[derive(Default)]
pub(crate) struct Tally {
    pub timings: StageTimings,
    pub prune_stats: Option<PruneStats>,
    pub encode_stats: Option<EncodeStats>,
    pub solver_stats: Option<SolverStats>,
    pub solve_stats: Option<SolveStats>,
    pub oracles: OracleCounts,
}

impl Tally {
    /// Add another unit's tally: counts and times add up (a stat present
    /// on either side is present in the sum).
    pub(crate) fn merge(&mut self, u: Tally) {
        fn sum<T>(a: Option<T>, b: Option<T>, add: impl FnOnce(T, T) -> T) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(add(a, b)),
                (a, b) => a.or(b),
            }
        }
        let (t, ut) = (&mut self.timings, u.timings);
        t.constructing += ut.constructing;
        t.pruning += ut.pruning;
        t.encoding += ut.encoding;
        t.solving += ut.solving;
        self.prune_stats = sum(self.prune_stats, u.prune_stats, PruneStats::merge);
        self.encode_stats = sum(self.encode_stats, u.encode_stats, |a, b| EncodeStats {
            vars: a.vars + b.vars,
            clauses: a.clauses + b.clauses,
            known_edges: a.known_edges + b.known_edges,
            symbolic_edges: a.symbolic_edges + b.symbolic_edges,
        });
        self.solver_stats = sum(self.solver_stats, u.solver_stats, |a, b| SolverStats {
            decisions: a.decisions + b.decisions,
            propagations: a.propagations + b.propagations,
            conflicts: a.conflicts + b.conflicts,
            theory_conflicts: a.theory_conflicts + b.theory_conflicts,
            learned_clauses: a.learned_clauses + b.learned_clauses,
            restarts: a.restarts + b.restarts,
            theory_propagations: a.theory_propagations + b.theory_propagations,
            theory_visits: a.theory_visits + b.theory_visits,
        });
        self.solve_stats =
            sum(self.solve_stats, u.solve_stats, |a, b| SolveStats { units: a.units + b.units });
        self.oracles.dense += u.oracles.dense;
        self.oracles.chains += u.oracles.chains;
    }

    /// Fold the stage counters into the registry: the one place the
    /// `prune.*`, `encode.*` and `solver.*` counters are written. A family
    /// is registered only when its stat is present (registration shows in
    /// `Metrics::counter_digest`).
    pub(crate) fn record(&self, m: &Metrics) {
        if let Some(p) = &self.prune_stats {
            m.counter("prune.constraints_before").add(p.constraints_before as u64);
            m.counter("prune.constraints_stored").add(p.constraints_stored as u64);
            m.counter("prune.constraints_after").add(p.constraints_after as u64);
            m.counter("prune.closure_updates").add(p.closure_updates as u64);
            m.counter("prune.incremental_edges").add(p.incremental_edges as u64);
            m.counter("prune.implied_edges").add(p.implied_edges as u64);
            m.counter("prune.graph_builds").add(p.graph_builds as u64);
        }
        if let Some(e) = &self.encode_stats {
            m.counter("encode.vars").add(e.vars as u64);
            m.counter("encode.clauses").add(e.clauses as u64);
            m.counter("encode.known_edges").add(e.known_edges as u64);
            m.counter("encode.symbolic_edges").add(e.symbolic_edges as u64);
        }
        if let Some(s) = &self.solver_stats {
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

    /// The report of a check whose units this tally sums.
    pub(crate) fn report(self, outcome: Outcome, shard_stats: Option<ShardStats>) -> CheckReport {
        CheckReport {
            outcome,
            timings: self.timings,
            prune_stats: self.prune_stats,
            encode_stats: self.encode_stats.unwrap_or_default(),
            solver_stats: self.solver_stats,
            solve_stats: self.solve_stats,
            shard_stats,
            oracles: self.oracles,
        }
    }
}

impl CheckReport {
    /// Whether the history satisfies the checked isolation level.
    pub fn accepted(&self) -> bool {
        self.outcome.accepted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EngineOptions, IsolationLevel};
    use polysi_history::{History, HistoryBuilder};
    use polysi_polygraph::ConstraintMode;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    fn check(h: &History) -> CheckReport {
        engine::check(h, IsolationLevel::Si, &EngineOptions::default())
    }

    #[test]
    fn empty_history_is_si() {
        assert!(check(&History::new()).accepted());
    }

    #[test]
    fn serial_history_is_si() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.begin().read(k(1), v(2)).commit();
        assert!(check(&b.build()).accepted());
    }

    #[test]
    fn lost_update_rejected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
        let report = check(&b.build());
        match &report.outcome {
            Outcome::CyclicViolation(viol) => {
                assert_eq!(viol.anomaly, Anomaly::LostUpdate);
                assert!(!viol.cycle.is_empty());
            }
            _ => panic!("lost update must be rejected"),
        }
    }

    #[test]
    fn long_fork_rejected() {
        // Paper Figure 3: T3 sees x=1,y=0; T4 sees x=0,y=1.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(10)).write(k(2), v(20)).commit(); // T0
        b.begin().write(k(1), v(12)).commit(); // T5
        b.session();
        b.begin().write(k(1), v(11)).commit(); // T1
        b.session();
        b.begin().write(k(2), v(21)).commit(); // T2
        b.session();
        b.begin().read(k(1), v(11)).read(k(2), v(20)).commit(); // T3
        b.session();
        b.begin().read(k(1), v(10)).read(k(2), v(21)).commit(); // T4
        let report = check(&b.build());
        match &report.outcome {
            Outcome::CyclicViolation(viol) => {
                assert_eq!(viol.anomaly, Anomaly::LongFork, "cycle: {:?}", viol.cycle);
            }
            _ => panic!("long fork must be rejected"),
        }
    }

    #[test]
    fn write_skew_accepted() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit();
        assert!(check(&b.build()).accepted(), "write skew is allowed under SI");
    }

    #[test]
    fn causality_violation_rejected() {
        // Session order forces T0 before T1, but T2 reads T1's write and
        // then (same session) an older value of the key T0 wrote.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit(); // T0
        b.begin().write(k(2), v(2)).commit(); // T1
        b.session();
        b.begin().read(k(2), v(2)).read(k(1), Value::INIT).commit(); // T2
        let report = check(&b.build());
        match &report.outcome {
            Outcome::CyclicViolation(viol) => {
                assert_eq!(viol.anomaly, Anomaly::CausalityViolation, "cycle: {:?}", viol.cycle);
            }
            _ => panic!("causality violation must be rejected"),
        }
    }

    #[test]
    fn aborted_read_rejected_without_graph_analysis() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).abort();
        b.session();
        b.begin().read(k(1), v(1)).commit();
        let report = check(&b.build());
        match &report.outcome {
            Outcome::AxiomViolations(vs) => {
                assert!(matches!(vs[0], AxiomViolation::AbortedRead { .. }));
            }
            _ => panic!("aborted read must fail the axioms"),
        }
    }

    #[test]
    fn read_committed_prefix_is_si() {
        // Two sessions ping-ponging reads of each other's committed writes
        // in a consistent order.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.begin().read(k(2), v(2)).commit();
        b.session();
        b.begin().write(k(2), v(2)).commit();
        b.begin().read(k(1), v(1)).commit();
        assert!(check(&b.build()).accepted());
    }

    #[test]
    fn variants_agree_on_verdicts() {
        let build = || {
            let mut b = HistoryBuilder::new();
            b.session();
            b.begin().write(k(1), v(1)).commit();
            b.session();
            b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
            b.session();
            b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
            b.build()
        };
        let h = build();
        let run = |opts: EngineOptions| engine::check(&h, IsolationLevel::Si, &opts);
        let full = run(EngineOptions::default());
        // The paper's two ablations: "w/o P" and "w/o C+P".
        let no_p = run(EngineOptions { pruning: false, ..Default::default() });
        let no_cp = run(EngineOptions {
            mode: ConstraintMode::Plain,
            pruning: false,
            ..Default::default()
        });
        assert!(!full.accepted() && !no_p.accepted() && !no_cp.accepted());
    }

    #[test]
    fn report_carries_stage_metadata() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(2)).write(k(1), v(4)).commit();
        let report = check(&b.build());
        assert!(report.accepted());
        assert!(report.prune_stats.is_some());
        assert!(report.timings.total() > Duration::ZERO);
        assert_eq!(report.oracles, OracleCounts { dense: 1, chains: 0 });
    }

    #[test]
    fn repeated_lost_update_pairs_all_detected() {
        // Several independent lost-update pairs on distinct keys: still
        // rejected, and the cycle stays on a single key.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(11)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(12)).commit();
        let report = check(&b.build());
        assert!(!report.accepted());
    }
}
