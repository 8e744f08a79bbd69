//! Quickstart: build the paper's Figure 3 "long fork" history by hand,
//! check it against snapshot isolation, and print the violating cycle and
//! the interpreted counterexample.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use polysi::checker::{check, dot, EngineOptions, IsolationLevel, Outcome};
use polysi::history::{HistoryBuilder, Key, Value};

fn main() {
    // Figure 3: T0 initializes x and y (and T5 later updates x in the same
    // session); T1 and T2 concurrently update x and y; T3 sees only T1's
    // write, T4 sees only T2's — two irreconcilable forks.
    let (x, y) = (Key(1), Key(2));
    let mut b = HistoryBuilder::new();
    b.session(); // session 0: T0, T5
    b.begin().write(x, Value(10)).write(y, Value(20)).commit();
    b.begin().write(x, Value(12)).commit();
    b.session(); // T1
    b.begin().write(x, Value(11)).commit();
    b.session(); // T2
    b.begin().write(y, Value(21)).commit();
    b.session(); // T3: x from T1, y from T0
    b.begin().read(x, Value(11)).read(y, Value(20)).commit();
    b.session(); // T4: x from T0, y from T2
    b.begin().read(x, Value(10)).read(y, Value(21)).commit();
    let history = b.build();

    println!("checking {} transactions against snapshot isolation...\n", history.len());
    let report = check(&history, IsolationLevel::Si, &EngineOptions::default());

    match &report.outcome {
        Outcome::Si => println!("history satisfies SI (unexpected for this example!)"),
        Outcome::Inconclusive(why) => println!("inconclusive: {}", why.reason()),
        Outcome::AxiomViolations(vs) => {
            println!("non-cyclic axiom violations:");
            for v in vs {
                println!("  - {v}");
            }
        }
        Outcome::CyclicViolation(v) => {
            println!("violation found: {}", v.anomaly);
            println!("\nviolating cycle:");
            for e in &v.cycle {
                println!(
                    "  {} {} -> {}",
                    e.label,
                    history.txn(e.from).label(),
                    history.txn(e.to).label()
                );
            }
            if let Some(s) = &v.scenario {
                println!(
                    "\ninterpreted scenario ({} transactions, {} restored):",
                    s.transactions.len(),
                    s.restored.len()
                );
                for e in &s.finalized {
                    println!(
                        "  {} {} -> {}",
                        e.label,
                        history.txn(e.from).label(),
                        history.txn(e.to).label()
                    );
                }
                println!("\nGraphviz (render with `dot -Tpng`):\n");
                println!("{}", dot::finalized_to_dot(&history, s));
            }
        }
    }
    println!("stage timings: {:?}", report.timings);
}
