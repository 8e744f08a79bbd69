//! Figure 9: decomposition of PolySI's checking time into constructing /
//! pruning / encoding / solving stages on the six benchmarks.

use polysi_bench::sweeps::six_benchmarks;
use polysi_bench::{csv_append, scale, CountingAllocator};
use polysi_checker::{check, EngineOptions};
use polysi_dbsim::IsolationLevel;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    println!("# Figure 9: PolySI stage decomposition, seconds (scale {})", scale());
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "constructing", "pruning", "encoding", "solving", "total"
    );
    let mut rows = Vec::new();
    for (name, h) in six_benchmarks(IsolationLevel::SnapshotIsolation, 9) {
        let opts = EngineOptions { interpret: false, ..Default::default() };
        let report = check(&h, polysi_checker::IsolationLevel::Si, &opts);
        let t = report.timings;
        println!(
            "{:<12} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            t.constructing.as_secs_f64(),
            t.pruning.as_secs_f64(),
            t.encoding.as_secs_f64(),
            t.solving.as_secs_f64(),
            t.total().as_secs_f64()
        );
        rows.push(format!(
            "{name},{:.6},{:.6},{:.6},{:.6}",
            t.constructing.as_secs_f64(),
            t.pruning.as_secs_f64(),
            t.encoding.as_secs_f64(),
            t.solving.as_secs_f64()
        ));
        assert!(report.accepted(), "{name}: valid history rejected");
    }
    csv_append("fig9", "benchmark,constructing,pruning,encoding,solving", &rows);
    println!("\nCSV appended to bench_results/fig9.csv");
}
