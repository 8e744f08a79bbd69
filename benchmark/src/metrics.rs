//! The names, units and regression bounds of every metric the benchmark
//! reports. `BENCHMARK.json` at the repository root lists the same names; a
//! unit test keeps the two in step.

/// End-to-end metrics, all lower-is-better: `(name, unit, bound)`. The bound
/// is the share of the parent's median by which the metric may worsen
/// before a change counts as a regression.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("verdict_s", "s", 0.25),
    ("peak_mib", "MiB", 0.05),
    ("checkpoint_p50_ms", "ms", 0.25),
    ("checkpoint_p90_ms", "ms", 0.25),
];

/// Per-layer metrics, in ledger order: `(name, unit)`. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("codec.decode_s", "s"),
    ("codec.bytes", "B"),
    ("binfmt.decode_s", "s"),
    ("binfmt.bytes", "B"),
    ("binfmt.read_into_stream_s", "s"),
    ("stream.bytes_per_txn", "B"),
    ("facts.analyze_s", "s"),
    ("facts.wr_edges", "count"),
    ("shard.plan_s", "s"),
    ("shard.components", "count"),
    ("shard.largest", "count"),
    ("construct.busy_s", "s"),
    ("construct.constraints", "count"),
    ("prune.busy_s", "s"),
    ("prune.passes", "count"),
    ("prune.constraints_left", "count"),
    ("prune.resolved_share", "share"),
    ("prune.closure_updates", "count"),
    ("encode.busy_s", "s"),
    ("encode.vars", "count"),
    ("encode.clauses", "count"),
    ("solve.busy_s", "s"),
    ("solve.units", "count"),
    ("solver.conflicts", "count"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("engine.check_s", "s"),
    ("engine.unattributed_s", "s"),
    ("stream.push_s", "s"),
    ("stream.seal_s", "s"),
    ("stream.checkpoint_s", "s"),
    ("stream.checkpoint_p99_ms", "ms"),
    ("stream.dirty_per_checkpoint", "count"),
    ("stream.rebuilt_share", "share"),
    ("stream.compacted_txns", "count"),
    ("stream.live_txns_max", "count"),
    ("stream.live_bytes_max", "B"),
    ("stream.auto_threads_s", "s"),
    ("live.deliver_s", "s"),
    ("live.checkpoint_s", "s"),
    ("live.final_checkpoint_ms", "ms"),
    ("live.checkpoints", "count"),
    ("live.rebuilt_share", "share"),
    ("live.batch_check_s", "s"),
    ("service.verdict_s", "s"),
    ("service.send_blocked_s", "s"),
    ("service.finish_wait_s", "s"),
    ("service.accepted_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
];

/// Counts that must repeat exactly between two runs on one seed
/// (`selfcheck`, next to the operations per rep). Solver search counters are
/// left out: they legitimately vary when parallel solve workers cancel each
/// other.
pub const EXACT: [&str; 7] = [
    "codec.bytes",
    "binfmt.bytes",
    "construct.constraints",
    "prune.constraints_left",
    "shard.components",
    "stream.compacted_txns",
    "live.checkpoints",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0));
        let workloads = crate::workload::Workload::ALL.into_iter().map(|w| w.name());
        for name in names.chain(workloads) {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} is not listed");
        }
        let listed = json.matches("\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 6, "BENCHMARK.json lists extras");
        for (name, unit, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "{entry} differs from BENCHMARK.json");
        }
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name} is not a per-layer metric");
        }
    }
}
