//! PolySI-List (Appendix F): checking Elle-style list-append histories,
//! where reads expose whole lists and therefore the order of every observed
//! append. Only appends no read observed stay unordered, one constraint per
//! pair of their appenders, and pruning decides nearly all of them. The
//! engine is the one that checks register histories, and so is the verdict.
//! Exits non-zero on an unexpected verdict.
//!
//! ```sh
//! cargo run --example list_append
//! ```

use polysi::checker::list::{ListHistory, ListOp, ListTxn};
use polysi::checker::{CheckEngine, EngineOptions, IsolationLevel, Outcome};
use polysi::history::{Key, TxnStatus, Value};

fn txn(ops: Vec<ListOp>) -> ListTxn {
    ListTxn { ops, status: TxnStatus::Committed }
}

fn unexpected(outcome: &Outcome) -> ! {
    eprintln!("unexpected verdict: {outcome:?}");
    std::process::exit(1);
}

fn main() {
    let k = Key(1);
    let append = |v: u64| ListOp::Append { key: k, value: Value(v) };
    let read = |vs: &[u64]| ListOp::Read { key: k, list: vs.iter().map(|&v| Value(v)).collect() };
    let engine = CheckEngine::new(IsolationLevel::Si, EngineOptions::default());

    // A valid run: appends 1, 2 observed in order.
    let good = ListHistory {
        sessions: vec![
            vec![txn(vec![append(1)]), txn(vec![read(&[1]), append(2)])],
            vec![txn(vec![read(&[1, 2])])],
        ],
    };
    let report = engine.check_list(&good);
    if !report.accepted() {
        unexpected(&report.outcome);
    }
    println!("valid list history: SI holds ({} µs)", report.timings.total().as_micros());

    // A lost update on lists: both updaters read [1] and appended; the
    // final read exposes the order, revealing each missed the other.
    let bad = ListHistory {
        sessions: vec![
            vec![txn(vec![append(1)])],
            vec![txn(vec![read(&[1]), append(2)])],
            vec![txn(vec![read(&[1]), append(3)])],
            vec![txn(vec![read(&[1, 2, 3])])],
        ],
    };
    match engine.check_list(&bad).outcome {
        Outcome::CyclicViolation(v) => {
            println!("anomalous list history: {} via {} edges:", v.anomaly, v.cycle.len());
            for e in v.cycle {
                println!("  {} T{} -> T{}", e.label, e.from.0, e.to.0);
            }
        }
        other => unexpected(&other),
    }

    // Incompatible observations: no single order explains both reads.
    let fork = ListHistory {
        sessions: vec![
            vec![txn(vec![append(1)])],
            vec![txn(vec![append(2)])],
            vec![txn(vec![read(&[1, 2])])],
            vec![txn(vec![read(&[2, 1])])],
        ],
    };
    match engine.check_list(&fork).outcome {
        Outcome::AxiomViolations(vs) if vs[0].kind() == "incompatible_orders" => {
            println!("{}", vs[0]);
        }
        other => unexpected(&other),
    }
}
