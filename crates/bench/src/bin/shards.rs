//! Sharded vs. whole-history checking: wall-clock sweep over
//! multi-component workloads (`polysi_workloads::multi_component`) at a
//! fixed total size, varying how many independent key-range components the
//! workload splits into.
//!
//! Per-shard work is superlinear in component size (reachability closure,
//! solver search), so `--shards auto` wins twice: smaller units *and*
//! scoped-thread parallelism across them. The `speedup` column is
//! whole-history seconds over sharded seconds; `plan (s)` is the part of
//! the sharded run spent computing the partition (the engine's
//! `shard.plan` span), which runs on one thread before any shard starts.
//!
//! Run with `POLYSI_SCALE=1` for larger workloads; the default scale is
//! 0.25.

use polysi_bench::{csv_append, scale, scaled, CountingAllocator};
use polysi_checker::engine::{CheckEngine, EngineOptions, IsolationLevel, Sharding};
use polysi_dbsim::{run, IsolationLevel as SimLevel, SimConfig};
use polysi_obs::span::span_forest;
use polysi_obs::Obs;
use polysi_workloads::{multi_component, GeneralParams};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let seed = 0x5AAD_5EED;
    let total_sessions = 8usize;
    println!("# Sharded vs whole-history wall-clock (scale {})", scale());
    println!(
        "{:<12} {:>7} {:>7} {:>12} {:>12} {:>10} {:>8}",
        "components", "txns", "shards", "off (s)", "auto (s)", "plan (s)", "speedup"
    );
    let mut rows = Vec::new();
    for &components in &[1usize, 2, 4, 8] {
        let base = GeneralParams {
            sessions: (total_sessions / components).max(1),
            txns_per_session: scaled(1600),
            ops_per_txn: 8,
            keys: 40,
            read_pct: 50,
            seed,
            ..Default::default()
        };
        let plan = multi_component(&base, components);
        let sim = run(&plan, &SimConfig::new(SimLevel::SnapshotIsolation, seed));
        let h = sim.history;

        let mut opts = EngineOptions { interpret: false, ..Default::default() };
        opts.sharding = Sharding::Off;
        let t = Instant::now();
        let off = CheckEngine::new(IsolationLevel::Si, opts).check(&h);
        let off_s = t.elapsed().as_secs_f64();

        opts.sharding = Sharding::Auto;
        let obs = Obs::enabled();
        let t = Instant::now();
        let auto = CheckEngine::new(IsolationLevel::Si, opts).with_obs(obs.clone()).check(&h);
        let auto_s = t.elapsed().as_secs_f64();
        let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
        let check = forest.iter().find(|n| n.name == "check").expect("check root span");
        let plan = check.children.iter().find(|n| n.name == "shard.plan").expect("plan span");
        let plan_s = plan.duration_us() as f64 / 1e6;

        assert_eq!(off.is_si(), auto.is_si(), "sharding changed the verdict");
        let shards = auto.shard_stats.map_or(1, |s| s.components);
        println!(
            "{:<12} {:>7} {:>7} {:>12.3} {:>12.3} {:>10.4} {:>7.2}x",
            components,
            h.len(),
            shards,
            off_s,
            auto_s,
            plan_s,
            off_s / auto_s
        );
        rows.push(format!(
            "{components},{},{shards},{off_s:.6},{auto_s:.6},{},{plan_s:.6}",
            h.len(),
            off.is_si()
        ));
    }
    // `plan_seconds` goes last: a `shards.csv` from before the column
    // keeps its header, and a trailing extra field is the mildest mismatch.
    csv_append(
        "shards",
        "components,txns,shards,off_seconds,auto_seconds,verdict_si,plan_seconds",
        &rows,
    );
    println!("\nCSV appended to bench_results/shards.csv");
}
