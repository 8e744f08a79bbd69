//! PolySI-List (Appendix F): checking Elle-style list-append histories,
//! where reads expose whole lists and therefore the per-key version order —
//! no constraint solving needed at all.
//!
//! ```sh
//! cargo run --example list_append
//! ```

use polysi::checker::list::{check_si_list, ListHistory, ListOp, ListTxn, ListViolation};
use polysi::history::{Key, TxnStatus, Value};

fn txn(ops: Vec<ListOp>) -> ListTxn {
    ListTxn { ops, status: TxnStatus::Committed }
}

fn main() {
    let k = Key(1);
    let append = |v: u64| ListOp::Append { key: k, value: Value(v) };
    let read = |vs: &[u64]| ListOp::Read { key: k, list: vs.iter().map(|&v| Value(v)).collect() };

    // A valid run: appends 1, 2 observed in order.
    let good = ListHistory {
        sessions: vec![
            vec![txn(vec![append(1)]), txn(vec![read(&[1]), append(2)])],
            vec![txn(vec![read(&[1, 2])])],
        ],
    };
    let report = check_si_list(&good);
    println!(
        "valid list history: {} ({} µs)",
        if report.accepted() { "SI holds" } else { "violation" },
        report.elapsed.as_micros()
    );

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
    match check_si_list(&bad).violation {
        Some(ListViolation::Cyclic { cycle, anomaly }) => {
            println!("anomalous list history: {anomaly} via {} edges:", cycle.len());
            for e in cycle {
                println!("  {} T{} -> T{}", e.label, e.from.0, e.to.0);
            }
        }
        other => println!("unexpected outcome: {other:?}"),
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
    match check_si_list(&fork).violation {
        Some(ListViolation::IncompatibleOrders { key }) => {
            println!("incompatible list orders observed on key {key:?}");
        }
        other => println!("unexpected outcome: {other:?}"),
    }
}
