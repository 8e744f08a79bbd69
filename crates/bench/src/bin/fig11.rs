//! Figure 11: PolySI scalability on large workloads. The paper runs one
//! billion keys and one million transactions (hours, ~40 GB); this
//! reproduction runs the same workload *shape* — 20 sessions, short (15-op)
//! and long transactions mixed, sweeping read proportion and long-
//! transaction size — scaled via `POLYSI_SCALE` (see the README's "Scaling
//! and substitutions" for the scaling argument). The expected shape: time grows roughly linearly
//! with transaction size, memory stays flat.

use polysi_bench::{csv_append, measure, scale, scaled, Checker, CountingAllocator, Timeout};
use polysi_dbsim::{run, IsolationLevel, SimConfig};
use polysi_workloads::{generate, GeneralParams, KeyDistribution, OpIntent, Plan};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Build the paper's mixed short/long-transaction workload.
fn mixed_plan(read_pct: u32, long_ops: usize, seed: u64) -> Plan {
    let sessions = 20;
    let txns = scaled(1_000); // paper: 50k per session
    let keys = scaled(1_000_000) as u64; // paper: one billion
    let base = generate(&GeneralParams {
        sessions,
        txns_per_session: txns,
        ops_per_txn: 15,
        read_pct,
        keys,
        dist: KeyDistribution::Zipfian,
        seed,
    });
    // Every 20th transaction becomes a long one: repeat its ops pattern up
    // to `long_ops` operations.
    let mut plan = base;
    for sess in &mut plan.sessions {
        for (i, txn) in sess.iter_mut().enumerate() {
            if i % 20 == 0 {
                let mut ops: Vec<OpIntent> = Vec::with_capacity(long_ops);
                while ops.len() < long_ops {
                    ops.extend(txn.iter().copied());
                }
                ops.truncate(long_ops);
                *txn = ops;
            }
        }
    }
    plan
}

fn main() {
    println!("# Figure 11: scalability (scale {}); paper: 1M txns / 1G keys", scale());
    let timeout = Timeout::default();
    let mut rows = Vec::new();

    println!("\n== (a,b) sweep read proportion (long txns: 150 ops) ==");
    println!("{:<10} {:>12} {:>12} {:>10}", "reads%", "time(s)", "mem(MB)", "txns");
    for read_pct in [20u32, 40, 60, 80] {
        let plan = mixed_plan(read_pct, 150, 11);
        let txns = plan.num_txns();
        let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 11));
        let m = measure(Checker::PolySi, &sim.history, &timeout);
        println!(
            "{:<10} {:>12.2} {:>12.1} {:>10}",
            read_pct,
            m.elapsed.as_secs_f64(),
            m.peak_bytes as f64 / 1e6,
            txns
        );
        rows.push(format!(
            "read_pct,{read_pct},{:.6},{},{txns}",
            m.elapsed.as_secs_f64(),
            m.peak_bytes
        ));
        assert_eq!(m.verdict, Some(true));
    }

    println!("\n== (c,d) sweep ops per long transaction (50% reads) ==");
    println!("{:<10} {:>12} {:>12} {:>10}", "long-ops", "time(s)", "mem(MB)", "txns");
    for long_ops in [50usize, 100, 150, 200] {
        let plan = mixed_plan(50, long_ops, 12);
        let txns = plan.num_txns();
        let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 12));
        let m = measure(Checker::PolySi, &sim.history, &timeout);
        println!(
            "{:<10} {:>12.2} {:>12.1} {:>10}",
            long_ops,
            m.elapsed.as_secs_f64(),
            m.peak_bytes as f64 / 1e6,
            txns
        );
        rows.push(format!(
            "long_ops,{long_ops},{:.6},{},{txns}",
            m.elapsed.as_secs_f64(),
            m.peak_bytes
        ));
        assert_eq!(m.verdict, Some(true));
    }

    csv_append("fig11", "sweep,x,seconds,peak_bytes,txns", &rows);
    println!("\nCSV appended to bench_results/fig11.csv");
}
