//! Ablation of this implementation's own design choices (beyond the
//! paper's Figure 10): the pruning / constraint-compaction combinations,
//! measured on the write-heavy workload where solving dominates. Solver
//! phases are always seeded along the known topological order; the
//! seeding-off measurement that settled it is recorded under `trials/`.

use polysi_bench::{csv_append, scale, scaled, CountingAllocator};
use polysi_checker::{check, EngineOptions};
use polysi_dbsim::{run, IsolationLevel, SimConfig};
use polysi_polygraph::ConstraintMode;
use polysi_workloads::{general_wh, generate};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    println!("# Ablation: implementation design choices on GeneralWH (scale {})", scale());
    let mut params = general_wh(77);
    params.txns_per_session = scaled(params.txns_per_session);
    let plan = generate(&params);
    let sim = run(&plan, &SimConfig::new(IsolationLevel::Serializable, 77));

    let configs: [(&str, EngineOptions); 3] = [
        ("full", EngineOptions { interpret: false, ..Default::default() }),
        ("no pruning", EngineOptions { interpret: false, pruning: false, ..Default::default() }),
        (
            "plain constraints",
            EngineOptions { interpret: false, mode: ConstraintMode::Plain, ..Default::default() },
        ),
    ];
    println!("{:<22} {:>10} {:>12} {:>14}", "configuration", "time(s)", "conflicts", "decisions");
    let mut rows = Vec::new();
    for (name, opts) in configs {
        let t0 = Instant::now();
        let report = check(&sim.history, polysi_checker::IsolationLevel::Si, &opts);
        let elapsed = t0.elapsed();
        let (conflicts, decisions) =
            report.solver_stats.map(|s| (s.conflicts, s.decisions)).unwrap_or((0, 0));
        println!(
            "{:<22} {:>10.3} {:>12} {:>14}",
            name,
            elapsed.as_secs_f64(),
            conflicts,
            decisions
        );
        rows.push(format!("{name},{:.6},{conflicts},{decisions}", elapsed.as_secs_f64()));
        assert!(report.accepted(), "{name}: valid history rejected");
    }
    csv_append("ablation", "configuration,seconds,conflicts,decisions", &rows);
    println!("\nCSV appended to bench_results/ablation.csv");
}
