//! Table 3: number of constraints and unknown dependencies before and
//! after pruning, for the six benchmarks.

use polysi_bench::sweeps::six_benchmarks;
use polysi_bench::{csv_append, scale, CountingAllocator};
use polysi_dbsim::IsolationLevel;
use polysi_history::Facts;
use polysi_obs::Tracer;
use polysi_polygraph::{ConstraintMode, Polygraph, PruneResult};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    println!(
        "# Table 3: constraints / unknown dependencies before & after pruning (scale {})",
        scale()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "benchmark", "#cons before", "#cons after", "#unk before", "#unk after"
    );
    let mut rows = Vec::new();
    for (name, h) in six_benchmarks(IsolationLevel::SnapshotIsolation, 3) {
        let facts = Facts::analyze(&h);
        assert!(facts.axioms_ok(), "{name}: axioms failed");
        let mut g = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
        match g.prune(&Tracer::disabled()).0 {
            PruneResult::Pruned(s) => {
                println!(
                    "{:<12} {:>12} {:>12} {:>14} {:>14}",
                    name,
                    s.constraints_before,
                    s.constraints_after,
                    s.unknown_deps_before,
                    s.unknown_deps_after
                );
                rows.push(format!(
                    "{name},{},{},{},{}",
                    s.constraints_before,
                    s.constraints_after,
                    s.unknown_deps_before,
                    s.unknown_deps_after
                ));
            }
            PruneResult::Violation(_) => println!("{name}: unexpected violation"),
        }
    }
    csv_append(
        "table3",
        "benchmark,constraints_before,constraints_after,unknown_before,unknown_after",
        &rows,
    );
    println!("\nCSV appended to bench_results/table3.csv");
}
