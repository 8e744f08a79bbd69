//! Machine-readable (JSON) report emission for every pipeline mode.
//!
//! Each writer produces a single self-describing JSON object whose first
//! field is a `schema` tag with an explicit version:
//!
//! | schema             | producer                                   |
//! |--------------------|--------------------------------------------|
//! | `polysi.check.v4`  | batch check ([`check_report_json`])        |
//! | `polysi.stream.v4` | streaming check ([`stream_report_json`])   |
//! | `polysi.live.v4`   | live ingest run ([`live_report_json`])     |
//! | `polysi.stats.v1`  | history statistics ([`stats_json`])        |
//!
//! One writer emits every verdict — the check body, each checkpoint, a
//! run's `final` — as the fields `verdict` ([`Outcome::kind`]),
//! `accepted`, `anomaly`, `axiom_violations`, `cycle` and `inconclusive`
//! (`null`, or `{"reason", "reads": [{"txn", "key", "value"}]}`).
//!
//! The schemas are **append-only**: new optional fields may be added
//! within a version; removing or re-typing a field bumps it (`v2`: the
//! check body's `solve` object shrank to `{"units": N}`; `v3`: its oracle
//! setting gave way to the `oracles` the Prune stage picked; `v4`: the
//! `inconclusive` field, checkpoints and `final` carry the verdict fields
//! in place of their own `{"kind", …}` object, a checkpoint says whether
//! it is `terminal`, and the live schema drops its always-`null`
//! `rejection`). All durations are integer microseconds with a `_us`
//! suffix; absent sub-reports (e.g. solver counters on an axiom rejection)
//! are `null`, never omitted. The output is strict JSON — it round-trips
//! through [`polysi_obs::json::parse`], which the CLI tests rely on.
//!
//! See the README "Observability" section for a worked example.

use crate::check::{CheckReport, Outcome, Violation};
use crate::engine::{IsolationLevel, ShardStats};
use crate::live::LiveReport;
use crate::stream::{CheckpointReport, StreamRejection};
use polysi_history::stats::HistoryStats;
use polysi_history::{AxiomViolation, ShardFallback};
use polysi_obs::json::JsonWriter;
use polysi_obs::MetricsSnapshot;
use polysi_polygraph::{Edge, PruneStats};
use polysi_solver::SolverStats;
use std::time::Duration;

fn us(d: Duration) -> u64 {
    d.as_micros() as u64
}

fn write_axiom_violations(w: &mut JsonWriter, violations: &[AxiomViolation]) {
    w.begin_array();
    for v in violations {
        w.begin_object();
        w.field_str("kind", v.kind());
        w.field_str("message", &v.to_string());
        w.end_object();
    }
    w.end_array();
}

fn write_cycle(w: &mut JsonWriter, cycle: &[Edge]) {
    w.begin_array();
    for e in cycle {
        w.begin_object();
        w.field_u64("from", e.from.0 as u64);
        w.field_u64("to", e.to.0 as u64);
        w.field_str("label", &e.label.to_string());
        w.end_object();
    }
    w.end_array();
}

fn write_prune_stats(w: &mut JsonWriter, p: &PruneStats) {
    w.begin_object();
    w.field_u64("iterations", p.iterations as u64);
    w.field_u64("constraints_before", p.constraints_before as u64);
    w.field_u64("constraints_stored", p.constraints_stored as u64);
    w.field_u64("constraints_after", p.constraints_after as u64);
    w.field_u64("unknown_deps_before", p.unknown_deps_before as u64);
    w.field_u64("unknown_deps_after", p.unknown_deps_after as u64);
    w.field_u64("graph_builds", p.graph_builds as u64);
    w.field_u64("closure_updates", p.closure_updates as u64);
    w.field_u64("incremental_edges", p.incremental_edges as u64);
    w.field_u64("implied_edges", p.implied_edges as u64);
    w.end_object();
}

fn write_solver_stats(w: &mut JsonWriter, s: &SolverStats) {
    w.begin_object();
    w.field_u64("decisions", s.decisions);
    w.field_u64("propagations", s.propagations);
    w.field_u64("conflicts", s.conflicts);
    w.field_u64("theory_conflicts", s.theory_conflicts);
    w.field_u64("learned_clauses", s.learned_clauses);
    w.field_u64("restarts", s.restarts);
    w.field_u64("theory_propagations", s.theory_propagations);
    w.field_u64("theory_visits", s.theory_visits);
    w.end_object();
}

fn write_shard_stats(w: &mut JsonWriter, s: &ShardStats) {
    w.begin_object();
    w.field_u64("components", s.components as u64);
    w.field_u64("key_components", s.key_components as u64);
    w.field_u64("largest", s.largest as u64);
    match s.fallback {
        Some(ShardFallback::SingleComponent) => {
            w.field_str("fallback", "single_component");
        }
        Some(ShardFallback::CrossShardSessions) => {
            w.field_str("fallback", "cross_shard_sessions");
        }
        None => {
            w.field_null("fallback");
        }
    }
    w.end_object();
}

fn write_metrics(w: &mut JsonWriter, metrics: Option<&MetricsSnapshot>) {
    w.key("metrics");
    match metrics {
        Some(snap) => snap.write_json(w),
        None => {
            w.null();
        }
    }
}

/// The one verdict writer: an [`Outcome`] as the fields `verdict`,
/// `accepted`, `anomaly`, `axiom_violations`, `cycle` and `inconclusive`
/// of the enclosing object.
fn write_verdict(w: &mut JsonWriter, outcome: &Outcome) {
    w.field_str("verdict", outcome.kind());
    w.field_bool("accepted", outcome.accepted());
    match outcome {
        Outcome::CyclicViolation(Violation { anomaly, .. }) => {
            w.field_str("anomaly", anomaly.name())
        }
        _ => w.field_null("anomaly"),
    };
    w.key("axiom_violations");
    write_axiom_violations(w, if let Outcome::AxiomViolations(vs) = outcome { vs } else { &[] });
    match outcome {
        Outcome::CyclicViolation(Violation { cycle, .. }) => {
            w.key("cycle");
            write_cycle(w, cycle);
        }
        _ => {
            w.field_null("cycle");
        }
    }
    w.key("inconclusive");
    match outcome {
        Outcome::Inconclusive(why) => {
            w.begin_object();
            w.field_str("reason", why.reason());
            w.key("reads");
            w.begin_array();
            for &(txn, key, value) in why.reads() {
                w.begin_object();
                w.field_u64("txn", txn.0 as u64);
                w.field_u64("key", key.0);
                w.field_u64("value", value.0);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        _ => {
            w.null();
        }
    }
}

/// Write the body of a `polysi.check.v4` report (everything after the
/// opening brace and schema tag is shared with the nested rejection
/// report of the stream schema).
fn write_check_body(w: &mut JsonWriter, report: &CheckReport, isolation: IsolationLevel) {
    w.field_str("isolation", isolation.name());
    write_verdict(w, &report.outcome);
    w.key("timings");
    w.begin_object();
    w.field_u64("construct_us", us(report.timings.constructing));
    w.field_u64("prune_us", us(report.timings.pruning));
    w.field_u64("encode_us", us(report.timings.encoding));
    w.field_u64("solve_us", us(report.timings.solving));
    w.field_u64("total_us", us(report.timings.total()));
    w.end_object();
    w.key("prune");
    match &report.prune_stats {
        Some(p) => write_prune_stats(w, p),
        None => {
            w.null();
        }
    }
    w.key("encode");
    w.begin_object();
    w.field_u64("vars", report.encode_stats.vars as u64);
    w.field_u64("clauses", report.encode_stats.clauses as u64);
    w.field_u64("known_edges", report.encode_stats.known_edges as u64);
    w.field_u64("symbolic_edges", report.encode_stats.symbolic_edges as u64);
    w.end_object();
    w.key("solver");
    match &report.solver_stats {
        Some(s) => write_solver_stats(w, s),
        None => {
            w.null();
        }
    }
    w.key("solve");
    match &report.solve_stats {
        Some(s) => {
            w.begin_object();
            w.field_u64("units", s.units as u64);
            w.end_object();
        }
        None => {
            w.null();
        }
    }
    w.key("shards");
    match &report.shard_stats {
        Some(s) => write_shard_stats(w, s),
        None => {
            w.null();
        }
    }
    w.key("oracles");
    w.begin_object();
    w.field_u64("dense", report.oracles.dense as u64);
    w.field_u64("chains", report.oracles.chains as u64);
    w.end_object();
}

/// The batch check report as a `polysi.check.v4` JSON document.
///
/// `wall` is the end-to-end wall-clock of the run (load + check);
/// `metrics` embeds a registry snapshot when observability was on.
pub fn check_report_json(
    report: &CheckReport,
    isolation: IsolationLevel,
    wall: Duration,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "polysi.check.v4");
    write_check_body(&mut w, report, isolation);
    w.field_u64("wall_us", us(wall));
    write_metrics(&mut w, metrics);
    w.end_object();
    w.finish()
}

fn write_checkpoint(w: &mut JsonWriter, cp: &CheckpointReport) {
    w.begin_object();
    w.field_u64("seq", cp.seq as u64);
    w.field_u64("txns", cp.txns as u64);
    w.field_u64("live_txns", cp.live_txns as u64);
    w.field_u64("compacted", cp.compacted as u64);
    w.field_u64("ops", cp.ops as u64);
    w.field_u64("components", cp.components as u64);
    w.field_u64("dirty", cp.dirty as u64);
    w.field_u64("rebuilt", cp.rebuilt as u64);
    w.field_u64("elapsed_us", us(cp.elapsed));
    w.field_bool("terminal", cp.terminal);
    write_verdict(w, &cp.verdict);
    w.end_object();
}

/// A run's `final` key: its last checkpoint's verdict, `null` without one.
fn write_final(w: &mut JsonWriter, last: Option<&CheckpointReport>) {
    w.key("final");
    match last {
        Some(cp) => {
            w.begin_object();
            write_verdict(w, &cp.verdict);
            w.end_object();
        }
        None => {
            w.null();
        }
    }
}

fn write_rejection(w: &mut JsonWriter, rej: Option<&StreamRejection>, isolation: IsolationLevel) {
    w.key("rejection");
    match rej {
        Some(r) => {
            w.begin_object();
            w.field_u64("checkpoint", r.checkpoint as u64);
            w.field_u64("op_index", r.op_index as u64);
            w.field_u64("txn_count", r.txn_count as u64);
            w.key("report");
            w.begin_object();
            write_check_body(w, &r.report, isolation);
            w.end_object();
            w.end_object();
        }
        None => {
            w.null();
        }
    }
}

/// A streaming run as a `polysi.stream.v4` JSON document: the checkpoint
/// trail, the final verdict, and (in the terminal state) the canonical
/// report of the checkpoint that reached it ([`StreamRejection::report`]).
pub fn stream_report_json(
    checkpoints: &[CheckpointReport],
    rejection: Option<&StreamRejection>,
    isolation: IsolationLevel,
    wall: Duration,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "polysi.stream.v4");
    w.field_str("isolation", isolation.name());
    w.key("checkpoints");
    w.begin_array();
    for cp in checkpoints {
        write_checkpoint(&mut w, cp);
    }
    w.end_array();
    write_final(&mut w, checkpoints.last());
    write_rejection(&mut w, rejection, isolation);
    w.field_u64("wall_us", us(wall));
    write_metrics(&mut w, metrics);
    w.end_object();
    w.finish()
}

/// A live ingest run as a `polysi.live.v4` JSON document: the stream
/// schema's checkpoint trail plus degradation flags, ingest counters, and
/// the typed fault log. Its `final` verdict carries the witness of a
/// rejection.
pub fn live_report_json(
    live: &LiveReport,
    isolation: IsolationLevel,
    wall: Duration,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "polysi.live.v4");
    w.field_str("isolation", isolation.name());
    w.key("checkpoints");
    w.begin_array();
    for cp in &live.checkpoints {
        w.begin_object();
        w.field_bool("degraded", cp.degraded);
        w.key("stalled_sessions");
        w.begin_array();
        for sid in &cp.stalled {
            w.u64(sid.0 as u64);
        }
        w.end_array();
        w.key("checkpoint");
        write_checkpoint(&mut w, &cp.report);
        w.end_object();
    }
    w.end_array();
    write_final(&mut w, live.checkpoints.last().map(|cp| &cp.report));
    w.key("ingest");
    w.begin_object();
    w.field_u64("delivered", live.stats.delivered as u64);
    w.field_u64("ingested", live.stats.ingested as u64);
    w.field_u64("duplicates", live.stats.duplicates as u64);
    w.field_u64("healed", live.stats.healed as u64);
    w.field_u64("sealed", live.stats.sealed as u64);
    w.end_object();
    w.key("faults");
    w.begin_array();
    for (sid, fault) in &live.faults {
        w.begin_object();
        w.field_u64("session", sid.0 as u64);
        w.field_str("kind", fault.kind());
        w.field_str("message", &fault.to_string());
        w.end_object();
    }
    w.end_array();
    w.key("abandoned_sessions");
    w.begin_array();
    for sid in &live.abandoned {
        w.u64(sid.0 as u64);
    }
    w.end_array();
    w.field_u64("wall_us", us(wall));
    write_metrics(&mut w, metrics);
    w.end_object();
    w.finish()
}

/// History statistics as a `polysi.stats.v1` JSON document.
pub fn stats_json(stats: &HistoryStats) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "polysi.stats.v1");
    w.field_u64("sessions", stats.sessions as u64);
    w.field_u64("txns", stats.txns as u64);
    w.field_u64("committed", stats.committed as u64);
    w.field_u64("ops", stats.ops as u64);
    w.field_u64("reads", stats.reads as u64);
    w.field_u64("writes", stats.writes as u64);
    w.field_u64("keys", stats.keys as u64);
    w.field_u64("wr_edges", stats.wr_edges as u64);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckEngine, EngineOptions};
    use polysi_history::HistoryBuilder;
    use polysi_obs::json::{parse, Value};
    use polysi_obs::Obs;

    fn tiny_history() -> polysi_history::History {
        let mut b = HistoryBuilder::new();
        b.session();
        use polysi_history::{Key, Value};
        b.begin().write(Key(0), Value(1)).read(Key(0), Value(1)).commit();
        b.build()
    }

    #[test]
    fn check_report_round_trips() {
        let h = tiny_history();
        let engine =
            CheckEngine::new(IsolationLevel::Si, EngineOptions::default()).with_obs(Obs::enabled());
        let report = engine.check(&h);
        let json = check_report_json(
            &report,
            IsolationLevel::Si,
            Duration::from_millis(1),
            Some(&engine.obs().metrics.snapshot()),
        );
        let v = parse(&json).expect("report must be valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("polysi.check.v4"));
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("accepted").and_then(Value::as_bool), Some(true));
        assert!(v.get("timings").and_then(|t| t.get("total_us")).is_some());
        assert!(v.get("metrics").and_then(|m| m.get("counters")).is_some());
    }

    /// A list check reports like a history check: the one verdict writer
    /// and the registry's run counters.
    #[test]
    fn a_list_rejection_reports_its_axiom_kind() {
        use crate::list::{ListHistory, ListOp, ListTxn};
        use polysi_history::{Key, TxnStatus};
        let txn = |op| ListTxn { ops: vec![op], status: TxnStatus::Committed };
        let list = vec![polysi_history::Value(1); 2];
        let h = ListHistory {
            sessions: vec![
                vec![txn(ListOp::Append { key: Key(1), value: polysi_history::Value(1) })],
                vec![txn(ListOp::Read { key: Key(1), list })],
            ],
        };
        let engine =
            CheckEngine::new(IsolationLevel::Si, EngineOptions::default()).with_obs(Obs::enabled());
        let report = engine.check_list(&h);
        let metrics = engine.obs().metrics.snapshot();
        let json = check_report_json(&report, IsolationLevel::Si, Duration::ZERO, Some(&metrics));
        let v = parse(&json).expect("report must be valid JSON");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("axiom_violation"));
        let violations = v.get("axiom_violations").and_then(Value::as_array).expect("a list");
        let kinds: Vec<_> =
            violations.iter().map(|a| a.get("kind").and_then(Value::as_str)).collect();
        assert_eq!(kinds, [Some("incompatible_orders")]);
        let counter = |name: &str| engine.obs().metrics.counter(name).total();
        let runs = ["check.runs", "check.txns", "check.axiom_violations"].map(counter);
        assert_eq!(runs, [1, 2, 1]);
    }

    #[test]
    fn stats_round_trips() {
        let h = tiny_history();
        let json = stats_json(&HistoryStats::of(&h));
        let v = parse(&json).expect("stats must be valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("polysi.stats.v1"));
        assert_eq!(v.get("txns").and_then(Value::as_u64), Some(1));
    }
}
