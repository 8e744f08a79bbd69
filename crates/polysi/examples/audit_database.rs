//! Audit a database black-box style, the way the paper audits production
//! systems (Section 5.2.2): generate a workload, run it against a database
//! claiming snapshot isolation — here the simulator configured with the
//! MariaDB-Galera defect (no write-write conflict detection across nodes) —
//! and check the observed history, retrying seeds until a violation shows.
//!
//! ```sh
//! cargo run --example audit_database
//! ```

use polysi::checker::{check, EngineOptions, IsolationLevel as Level, Outcome};
use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::stats::HistoryStats;
use polysi::workloads::{generate, GeneralParams};

fn main() {
    let level = IsolationLevel::NoWriteConflictDetection;
    println!("auditing a database with isolation behaviour `{}`...\n", level.name());

    for seed in 0..100u64 {
        let params = GeneralParams {
            sessions: 6,
            txns_per_session: 30,
            ops_per_txn: 4,
            keys: 10,
            read_pct: 50,
            seed,
            ..Default::default()
        };
        let plan = generate(&params);
        let sim = run(&plan, &SimConfig::new(level, seed));
        let stats = HistoryStats::of(&sim.history);
        let report = check(&sim.history, Level::Si, &EngineOptions::default());
        match report.outcome {
            Outcome::Si => {
                println!("run {seed:>3}: {stats} — OK");
            }
            Outcome::Inconclusive(why) => {
                println!("run {seed:>3}: {stats} — INCONCLUSIVE: {}", why.reason());
                return;
            }
            Outcome::AxiomViolations(vs) => {
                println!("run {seed:>3}: {stats} — AXIOM VIOLATION: {}", vs[0]);
                return;
            }
            Outcome::CyclicViolation(v) => {
                println!("run {seed:>3}: {stats} — VIOLATION");
                println!("\nanomaly class: {}", v.anomaly);
                println!("cycle ({} edges):", v.cycle.len());
                for e in &v.cycle {
                    println!(
                        "  {} {} -> {}",
                        e.label,
                        sim.history.txn(e.from).label(),
                        sim.history.txn(e.to).label()
                    );
                }
                if let Some(s) = &v.scenario {
                    println!(
                        "scenario: {} participants, {} restored by interpretation",
                        s.transactions.len(),
                        s.restored.len()
                    );
                    println!("checking took {:.1} ms", report.timings.total().as_secs_f64() * 1e3);
                }
                return;
            }
        }
    }
    println!("no violation in 100 runs — try more seeds or higher contention");
}
