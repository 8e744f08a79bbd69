//! Run all the checkers of the paper's evaluation side by side on one
//! workload: PolySI (full and the two differential variants), dbcop,
//! CobraSI, and Cobra (which checks the stronger serializability).
//!
//! ```sh
//! cargo run --release --example compare_checkers
//! ```

use polysi::baselines::{
    cobra_check_ser, cobra_si_check, dbcop_check_si, CobraOptions, DbcopVerdict, SerVerdict,
    SiVerdict,
};
use polysi::checker::{check, EngineOptions};
use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::stats::HistoryStats;
use polysi::polygraph::ConstraintMode;
use polysi::workloads::{generate, GeneralParams};
use std::time::Instant;

fn main() {
    let params = GeneralParams {
        sessions: 10,
        txns_per_session: 50,
        ops_per_txn: 8,
        keys: 200,
        read_pct: 50,
        seed: 1,
        ..Default::default()
    };
    let plan = generate(&params);
    let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 1));
    println!("workload: {}\n", HistoryStats::of(&sim.history));
    println!("{:<18} {:>12} {:>12}", "checker", "verdict", "time");

    let timed = |name: &str, f: &mut dyn FnMut() -> String| {
        let t = Instant::now();
        let verdict = f();
        println!("{:<18} {:>12} {:>9.1} ms", name, verdict, t.elapsed().as_secs_f64() * 1e3);
    };

    // Full PolySI and the paper's two ablations (Figure 10).
    let polysi = |pruning: bool, mode: ConstraintMode| -> String {
        let o = EngineOptions { interpret: false, pruning, mode, ..Default::default() };
        if check(&sim.history, polysi::checker::IsolationLevel::Si, &o).accepted() {
            "SI".into()
        } else {
            "violation".into()
        }
    };
    timed("PolySI", &mut || polysi(true, ConstraintMode::Generalized));
    timed("PolySI w/o P", &mut || polysi(false, ConstraintMode::Generalized));
    timed("PolySI w/o C+P", &mut || polysi(false, ConstraintMode::Plain));
    timed("dbcop", &mut || match dbcop_check_si(&sim.history, 20_000_000).verdict {
        DbcopVerdict::Si => "SI".into(),
        DbcopVerdict::NotSi => "violation".into(),
        DbcopVerdict::Timeout => "timeout".into(),
    });
    timed("CobraSI", &mut || {
        if cobra_si_check(&sim.history).0 == SiVerdict::Si {
            "SI".into()
        } else {
            "violation".into()
        }
    });
    timed("Cobra (SER)", &mut || {
        if cobra_check_ser(&sim.history, &CobraOptions::default()).0 == SerVerdict::Serializable {
            "SER".into()
        } else {
            "not SER".into()
        }
    });
    println!("\nNote: \"not SER\" with \"SI\" above is write skew — allowed under");
    println!("snapshot isolation, forbidden under serializability (Figure 1).");
}
