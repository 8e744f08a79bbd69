//! Soundness & completeness property tests: the full PolySI pipeline must
//! agree with the brute-force Theorem-6 oracle on random small histories,
//! in every configuration (with/without pruning, generalized/plain
//! constraints).

use polysi_checker::{check, oracle::oracle_check_si, EngineOptions, IsolationLevel, Outcome};
use polysi_history::{History, HistoryBuilder, Key, Value};
use proptest::prelude::*;

/// A compact random-history description: a few sessions of transactions,
/// each op choosing read-or-write over a tiny key space. Values are made
/// unique per key by construction; reads pick from already-written values
/// (or the initial value), *including* values that make the history
/// inconsistent — that is the point.
#[derive(Debug, Clone)]
struct Spec {
    sessions: Vec<Vec<Vec<(bool, u64, u64)>>>, // (is_read, key, value_choice)
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let op = (any::<bool>(), 0u64..3, 0u64..5);
    let txn = prop::collection::vec(op, 1..4);
    let session = prop::collection::vec(txn, 1..4);
    prop::collection::vec(session, 1..4).prop_map(|sessions| Spec { sessions })
}

/// Instantiate a spec into a well-formed history: writes get globally
/// unique values per key; each read's `value_choice` picks one of the
/// values written anywhere to that key so far in generation order (or
/// init), which yields both consistent and inconsistent histories.
fn build(spec: &Spec) -> History {
    let mut b = HistoryBuilder::new();
    let mut counter = 1u64;
    // Pre-pass: assign each write op its unique value, in generation order.
    let mut written: Vec<Vec<u64>> = vec![vec![0]; 3]; // 0 = INIT per key
    let mut assigned: Vec<Vec<Vec<u64>>> = Vec::new();
    for sess in &spec.sessions {
        let mut sv = Vec::new();
        for txn in sess {
            let mut tv = Vec::new();
            for &(is_read, key, _) in txn {
                if is_read {
                    tv.push(0);
                } else {
                    written[key as usize].push(counter);
                    tv.push(counter);
                    counter += 1;
                }
            }
            sv.push(tv);
        }
        assigned.push(sv);
    }
    for (si, sess) in spec.sessions.iter().enumerate() {
        b.session();
        for (ti, txn) in sess.iter().enumerate() {
            b.begin();
            for (oi, &(is_read, key, choice)) in txn.iter().enumerate() {
                if is_read {
                    let pool = &written[key as usize];
                    let v = pool[(choice as usize) % pool.len()];
                    b.read(Key(key), Value(v));
                } else {
                    b.write(Key(key), Value(assigned[si][ti][oi]));
                }
            }
            b.commit();
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checker_matches_oracle(spec in spec_strategy()) {
        let h = build(&spec);
        let expected = oracle_check_si(&h);
        let got = check(&h, IsolationLevel::Si, &EngineOptions::default());
        prop_assert_eq!(got.accepted(), expected, "history: {:?}", h);
    }

    #[test]
    fn pruning_and_compaction_preserve_verdicts(spec in spec_strategy()) {
        let h = build(&spec);
        let full = check(&h, IsolationLevel::Si, &EngineOptions::default()).accepted();
        let run = |pruning: bool, mode: polysi_polygraph::ConstraintMode| {
            let opts = EngineOptions { pruning, mode, ..Default::default() };
            check(&h, IsolationLevel::Si, &opts).accepted()
        };
        let no_p = run(false, polysi_polygraph::ConstraintMode::Generalized);
        let no_cp = run(false, polysi_polygraph::ConstraintMode::Plain);
        let plain_p = run(true, polysi_polygraph::ConstraintMode::Plain);
        prop_assert_eq!(full, no_p, "pruning changed the verdict: {:?}", h);
        prop_assert_eq!(full, no_cp, "compaction changed the verdict: {:?}", h);
        prop_assert_eq!(full, plain_p, "plain+pruning changed the verdict: {:?}", h);
    }

    #[test]
    fn violations_come_with_valid_cycles(spec in spec_strategy()) {
        let h = build(&spec);
        let report = check(&h, IsolationLevel::Si, &EngineOptions::default());
        if let Outcome::CyclicViolation(viol) = &report.outcome {
            // The cycle closes and no two RW edges are adjacent (cyclically).
            let c = &viol.cycle;
            prop_assert!(c.len() >= 2);
            for i in 0..c.len() {
                let next = &c[(i + 1) % c.len()];
                prop_assert_eq!(c[i].to, next.from, "cycle must close: {:?}", c);
                prop_assert!(
                    c[i].label.is_dep() || next.label.is_dep(),
                    "two adjacent RW edges do not witness an SI violation: {:?}",
                    c
                );
            }
            // Every SO/WR edge on the cycle is a real history edge.
            let facts = polysi_history::Facts::analyze(&h);
            for e in c {
                match e.label {
                    polysi_polygraph::Label::So => {
                        prop_assert!(h.so_before(e.from, e.to));
                    }
                    polysi_polygraph::Label::Wr(key) => {
                        prop_assert!(facts
                            .wr_edges()
                            .any(|(w, r, x)| w == e.from && r == e.to && x == key));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn scenario_finalized_is_nonempty_on_cyclic_violations(spec in spec_strategy()) {
        let h = build(&spec);
        let report = check(&h, IsolationLevel::Si, &EngineOptions::default());
        if let Outcome::CyclicViolation(viol) = &report.outcome {
            let s = viol.scenario.as_ref().expect("interpret defaults on");
            prop_assert!(!s.edges.is_empty());
            prop_assert!(!s.transactions.is_empty());
        }
    }
}
