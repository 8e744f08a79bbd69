//! The paper's motivating Example 2: Dan and Emma share a bank account
//! holding 10 dollars; both deposit 50 concurrently; the balance ends up
//! 60 — one deposit is lost. We express the scenario as a history, let
//! PolySI detect the lost update, and show that a *correct* SI database
//! (first-committer-wins) cannot produce it.
//!
//! ```sh
//! cargo run --example banking
//! ```

use polysi::checker::{check, EngineOptions, IsolationLevel as Level, Outcome};
use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::{HistoryBuilder, Key, Value};
use polysi::workloads::{OpIntent, Plan};

fn main() {
    let account = Key(7);

    // The broken outcome, recorded as a client-observed history. Values are
    // unique per write (UniqueValue): 10 = initial deposit, 60a/60b the two
    // conflicting balances.
    let mut b = HistoryBuilder::new();
    b.session(); // the bank initializes the account
    b.begin().write(account, Value(10)).commit();
    b.session(); // Dan: read 10, deposit 50 → write 60 (value id 601)
    b.begin().read(account, Value(10)).write(account, Value(601)).commit();
    b.session(); // Emma: read 10, deposit 50 → write 60 (value id 602)
    b.begin().read(account, Value(10)).write(account, Value(602)).commit();
    let history = b.build();

    println!("— the anomalous outcome —");
    match check(&history, Level::Si, &EngineOptions::default()).outcome {
        Outcome::CyclicViolation(v) => {
            println!("PolySI verdict: VIOLATION ({})", v.anomaly);
            println!("one of the deposits was lost: both read balance 10 and");
            println!("blindly overwrote it; under SI, first-committer-wins must");
            println!("have aborted one of them.\n");
        }
        _ => println!("unexpectedly accepted!\n"),
    }

    // The same intents on a correct SI engine: one deposit aborts (the
    // client would then retry on the fresh balance).
    println!("— the same workload on a correct SI engine —");
    let plan = Plan {
        sessions: vec![
            vec![vec![OpIntent::Write(account)]],
            vec![vec![OpIntent::Read(account), OpIntent::Write(account)]],
            vec![vec![OpIntent::Read(account), OpIntent::Write(account)]],
        ],
    };
    let sim = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 42));
    println!("simulator: {} transaction(s) aborted by write-conflict detection", sim.aborts);
    let verdict = check(&sim.history, Level::Si, &EngineOptions::default());
    println!(
        "PolySI verdict on the recorded history: {}",
        if verdict.accepted() { "SI holds" } else { "violation" }
    );
}
