//! Prune-stage wall-clock: rebuild-vs-incremental reachability oracle ×
//! sweep thread count, on 3200-txn `general` and `multi_component`
//! workloads.
//!
//! The rebuild row is the pre-incremental loop (a from-scratch Kahn sort +
//! closure per pass, every resolved edge kept); `batched` (the engine
//! default) maintains the oracle across passes, stages each apply phase
//! through `insert_edges_deferred`, propagates closure rows once per phase
//! frontier, and materialises only the resolved edges the known graph did
//! not already imply — `known_after` / `implied` report what that saved.
//! At `threads > 1` the per-pass constraint sweep additionally fans out
//! over scoped threads. Following the scaling-paradox lesson of "When
//! More Cores Hurts", every row reports its speedup against the
//! *sequential batched* baseline as well as against the rebuild loop — a
//! configuration that loses to either is a regression, not a win.
//!
//! `--quick` shrinks the workload and the thread sweep for CI smoke runs.

use polysi_bench::{CountingAllocator, CsvSink};
use polysi_dbsim::{run, IsolationLevel as SimLevel, SimConfig};
use polysi_history::{Facts, History, HistoryBuilder, Key, Value};
use polysi_polygraph::{ConstraintMode, OracleKind, Polygraph, PruneOptions, PruneResult};
use polysi_workloads::{multi_component, GeneralParams};
use std::time::Instant;

/// The shape per-phase closure batching exists for: a long serial chain
/// feeding a hot key that `siblings` stale read-modify-writes then
/// contend on. The first prune pass forces every (chain-tail, sibling)
/// constraint at once, and each forced side's edges grow the closure rows
/// of the *entire* chain — once per batched flush, not once per edge.
fn hot_chain(chain: usize, siblings: usize) -> History {
    let h = Key(1);
    let mut b = HistoryBuilder::new();
    b.session();
    for i in 0..chain {
        b.begin().write(Key(100 + i as u64), Value(1000 + i as u64)).commit();
    }
    b.begin().write(h, Value(1)).commit();
    for s in 0..siblings {
        b.session();
        b.begin().read(h, Value(1)).write(h, Value(10 + s as u64)).commit();
    }
    b.build()
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One timed prune run.
struct Timed {
    secs: f64,
    accepted: bool,
    /// Constraints left for the solver.
    survivors: usize,
    /// `Polygraph::known` after pruning.
    known_after: usize,
    /// Resolved edges the known graph already implied (not materialised).
    implied: usize,
}

fn timed(base: &Polygraph, opts: &PruneOptions) -> Timed {
    let mut g = base.clone();
    let t = Instant::now();
    let result = g.prune_with(opts);
    let secs = t.elapsed().as_secs_f64();
    let (accepted, implied) = match result {
        PruneResult::Pruned(stats) => (true, stats.implied_edges),
        PruneResult::Violation(_) => (false, 0),
    };
    Timed { secs, accepted, survivors: g.constraints.len(), known_after: g.known.len(), implied }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 0x009C_EEED;
    let total_sessions = 8usize;
    let txns = if quick { 480 } else { 3200 };
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    println!("# Prune stage: rebuild vs incremental × threads × oracle ({txns} txns)");
    println!(
        "{:<16} {:>7} {:>9} {:<12} {:<7} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "workload",
        "txns",
        "cons",
        "mode",
        "oracle",
        "threads",
        "secs",
        "vs-reb",
        "vs-seq",
        "known",
        "implied"
    );
    let mut csv = CsvSink::new(
        "prune",
        "workload,txns,constraints,mode,oracle,threads,seconds,speedup_vs_rebuild,speedup_vs_seq,accepted,known_after,implied",
    );
    let mut workloads: Vec<(&str, History)> = Vec::new();
    for (name, components) in [("general", 1usize), ("multi_component", 4)] {
        let base = GeneralParams {
            sessions: (total_sessions / components).max(1),
            txns_per_session: txns / total_sessions,
            ops_per_txn: 8,
            keys: 40,
            read_pct: 50,
            seed,
            ..Default::default()
        };
        let plan = multi_component(&base, components);
        let sim = run(&plan, &SimConfig::new(SimLevel::SnapshotIsolation, seed));
        workloads.push((name, sim.history));
    }
    workloads.push((
        "hot_chain",
        hot_chain(if quick { 400 } else { 1600 }, if quick { 24 } else { 48 }),
    ));
    for (name, h) in workloads {
        let facts = Facts::analyze(&h);
        assert!(facts.axioms_ok(), "{name}: axioms failed");
        let g = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
        let cons = g.constraints.len();

        // The historical ablation rows pin the dense oracle so they stay
        // comparable across runs; the chains row isolates the oracle swap
        // at the engine-default (batched, sequential) configuration.
        let dense = PruneOptions { oracle: OracleKind::Dense, ..Default::default() };
        let mut measurements = vec![(
            "rebuild",
            "dense",
            1usize,
            timed(&g, &PruneOptions { incremental: false, ..dense }),
        )];
        for &t in threads {
            let m = timed(&g, &PruneOptions { threads: t, ..dense });
            measurements.push(("batched", "dense", t, m));
        }
        measurements.push((
            "batched",
            "chains",
            1usize,
            timed(&g, &PruneOptions { oracle: OracleKind::Chains, ..Default::default() }),
        ));
        let rebuild_secs = measurements[0].3.secs;
        let seq = &measurements[1].3;
        let (seq_secs, seq_known) = (seq.secs, (seq.known_after, seq.implied));
        let reference = (measurements[0].3.accepted, measurements[0].3.survivors);
        for (mode, oracle, nthreads, m) in measurements {
            assert_eq!(
                reference,
                (m.accepted, m.survivors),
                "{name}/{mode}/{oracle}/{nthreads} diverged from the rebuild loop"
            );
            if mode == "batched" {
                assert_eq!(
                    seq_known,
                    (m.known_after, m.implied),
                    "{name}/{oracle}/{nthreads}: the reduced known graph depends on the mode"
                );
            }
            let vs_rebuild = rebuild_secs / m.secs;
            let vs_seq = seq_secs / m.secs;
            println!(
                "{name:<16} {:>7} {cons:>9} {mode:<12} {oracle:<7} {nthreads:>7} {:>10.3} {vs_rebuild:>8.2}x {vs_seq:>8.2}x {:>9} {:>9}",
                h.len(),
                m.secs,
                m.known_after,
                m.implied
            );
            csv.row([
                name.to_string(),
                h.len().to_string(),
                cons.to_string(),
                mode.to_string(),
                oracle.to_string(),
                nthreads.to_string(),
                format!("{:.6}", m.secs),
                format!("{vs_rebuild:.3}"),
                format!("{vs_seq:.3}"),
                m.accepted.to_string(),
                m.known_after.to_string(),
                m.implied.to_string(),
            ]);
        }
    }

    // The quadratic wall (ROADMAP): one giant single-component history.
    // The dense oracle's closure matrix alone is (2n)²/8 bytes — 1.25 GiB
    // at 50k txns — while the chain oracle stays at 2n × chains × 4.
    // Dense runs only when its predicted matrix fits inside 10× the
    // chains run's measured peak; otherwise the row is skipped with the
    // arithmetic printed.
    {
        let mono_txns = if quick { 1_024usize } else { 50_000 };
        let h = hot_chain(mono_txns - 49, 48);
        assert_eq!(h.len(), mono_txns);
        let facts = Facts::analyze(&h);
        assert!(facts.axioms_ok(), "mono_chain: axioms failed");
        let g = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
        let cons = g.constraints.len();
        let name = "mono_chain";

        CountingAllocator::reset_peak();
        let chains_opts = PruneOptions { oracle: OracleKind::Chains, ..Default::default() };
        let chains = timed(&g, &chains_opts);
        let chains_secs = chains.secs;
        let chains_peak = CountingAllocator::peak();
        println!(
            "{name:<16} {mono_txns:>7} {cons:>9} {:<12} {:<7} {:>7} {chains_secs:>10.3} {:>8.2}x {:>8.2}x {:>9} {:>9}",
            "batched", "chains", 1, 1.0, 1.0, chains.known_after, chains.implied
        );
        csv.row([
            name.to_string(),
            mono_txns.to_string(),
            cons.to_string(),
            "batched".to_string(),
            "chains".to_string(),
            "1".to_string(),
            format!("{chains_secs:.6}"),
            "1.000".to_string(),
            "1.000".to_string(),
            chains.accepted.to_string(),
            chains.known_after.to_string(),
            chains.implied.to_string(),
        ]);

        let dense_predicted = (2 * mono_txns) * (2 * mono_txns) / 8;
        let budget = 10 * chains_peak;
        if dense_predicted <= budget {
            let dense_opts = PruneOptions { oracle: OracleKind::Dense, ..Default::default() };
            let d = timed(&g, &dense_opts);
            assert_eq!(
                (chains.accepted, chains.survivors, chains.known_after, chains.implied),
                (d.accepted, d.survivors, d.known_after, d.implied),
                "{name}: dense diverged from chains"
            );
            let dense_secs = d.secs;
            let vs = dense_secs / chains_secs;
            println!(
                "{name:<16} {mono_txns:>7} {cons:>9} {:<12} {:<7} {:>7} {dense_secs:>10.3} {:>8.2}x {:>8.2}x {:>9} {:>9}",
                "batched", "dense", 1, 1.0 / vs, 1.0 / vs, d.known_after, d.implied
            );
            csv.row([
                name.to_string(),
                mono_txns.to_string(),
                cons.to_string(),
                "batched".to_string(),
                "dense".to_string(),
                "1".to_string(),
                format!("{dense_secs:.6}"),
                format!("{:.3}", 1.0 / vs),
                format!("{:.3}", 1.0 / vs),
                d.accepted.to_string(),
                d.known_after.to_string(),
                d.implied.to_string(),
            ]);
        } else {
            println!(
                "{name:<16} {mono_txns:>7} {cons:>9} {:<12} {:<7} {:>7} {:>10}",
                "batched", "dense", 1, "skipped"
            );
            println!(
                "# {name}: dense skipped — closure matrix alone needs {} MiB, over 10× the \
                 chains run's {} MiB peak",
                dense_predicted >> 20,
                chains_peak >> 20
            );
        }
    }
    println!();
    csv.finish();
}
