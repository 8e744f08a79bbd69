//! Figure 15 (Appendix F): PolySI-List on Elle-style list-append histories,
//! under the same six sweeps as Figure 6. With lists, observed appends fix
//! most version orders; only the appends no read observed stay
//! constraints (411 at the default point, 1 510 at 25 % reads), and
//! pruning leaves a handful of them (5 and 7) for the solver — times are
//! sub-second across the board, as the paper reports. Every generated
//! history is valid, so a rejection fails the run.

use polysi_bench::sweeps::fig6_sweeps;
use polysi_bench::{csv_append, scale, CountingAllocator};
use polysi_checker::list::{ListHistory, ListOp, ListTxn};
use polysi_checker::{CheckEngine, EngineOptions, IsolationLevel};
use polysi_workloads::list_append::{generate_list_history, ListOpRecord};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn to_checker_history(rec: &polysi_workloads::list_append::ListHistoryRecord) -> ListHistory {
    ListHistory {
        sessions: rec
            .sessions
            .iter()
            .map(|sess| {
                sess.iter()
                    .map(|t| ListTxn {
                        ops: t
                            .ops
                            .iter()
                            .map(|op| match op {
                                ListOpRecord::Append { key, value } => {
                                    ListOp::Append { key: *key, value: *value }
                                }
                                ListOpRecord::Read { key, list } => {
                                    ListOp::Read { key: *key, list: list.clone() }
                                }
                            })
                            .collect(),
                        status: t.status,
                    })
                    .collect()
            })
            .collect(),
    }
}

fn main() {
    println!("# Figure 15: PolySI-List checking time (s) under sweeps (scale {})", scale());
    let mut rows = Vec::new();
    let engine = CheckEngine::new(IsolationLevel::Si, EngineOptions::default());
    for (sweep, points) in fig6_sweeps(15) {
        println!("\n== sweep: {sweep} ==");
        println!("{:<10} {:>12}", "x", "PolySI-List");
        for pt in points {
            if sweep == "read_pct" && pt.params.read_pct < 20 {
                continue; // Figure 15(d) sweeps 20-100% reads
            }
            let rec = generate_list_history(&pt.params);
            let h = to_checker_history(&rec);
            let report = engine.check_list(&h);
            assert!(report.accepted(), "valid list history rejected at {sweep}={}", pt.x);
            println!("{:<10} {:>12.4}", pt.x, report.timings.total().as_secs_f64());
            rows.push(format!("{sweep},{},{:.6}", pt.x, report.timings.total().as_secs_f64()));
        }
    }
    csv_append("fig15", "sweep,x,seconds", &rows);
    println!("\nCSV appended to bench_results/fig15.csv");
}
