//! Counterexample-quality integration tests: every violation witness must
//! itself be a genuine violation (validity), and the finalized scenario
//! must be minimal in the sense of Theorem 20 — removing any of its
//! certain dependencies leaves a graph that no longer demonstrates the
//! violation on its own cycle structure.

use polysi::checker::{check, EngineOptions, IsolationLevel as Level, Outcome};
use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::polygraph::{Edge, KnownGraph, Semantics};
use polysi::workloads::{generate, GeneralParams};

fn violating_runs() -> Vec<(polysi::history::History, Vec<Edge>, Vec<Edge>)> {
    let mut out = Vec::new();
    for seed in 0..12u64 {
        for level in [
            IsolationLevel::NoWriteConflictDetection,
            IsolationLevel::StaleSnapshot,
            IsolationLevel::PerKeySnapshot,
        ] {
            let plan = generate(&GeneralParams {
                sessions: 4,
                txns_per_session: 12,
                ops_per_txn: 4,
                keys: 6,
                read_pct: 50,
                seed,
                ..Default::default()
            });
            let sim = run(&plan, &SimConfig::new(level, seed));
            if let Outcome::CyclicViolation(v) =
                check(&sim.history, Level::Si, &EngineOptions::default()).outcome
            {
                let scenario = v.scenario.expect("interpret on");
                out.push((sim.history, v.cycle, scenario.finalized));
            }
        }
    }
    assert!(out.len() >= 5, "expected several violating runs, got {}", out.len());
    out
}

/// The layered graph over `edges` must contain a violating cycle.
fn is_violating(n: usize, edges: &[Edge]) -> bool {
    KnownGraph::find_cycle(n, edges, Semantics::Si).is_some()
}

#[test]
fn cycles_are_well_formed() {
    for (h, cycle, _) in violating_runs() {
        assert!(cycle.len() >= 2);
        for i in 0..cycle.len() {
            let next = &cycle[(i + 1) % cycle.len()];
            assert_eq!(cycle[i].to, next.from, "cycle must close: {cycle:?}");
            assert!(
                cycle[i].label.is_dep() || next.label.is_dep(),
                "adjacent RW edges are not a violation: {cycle:?}"
            );
        }
        // The cycle itself is a violating graph.
        assert!(is_violating(h.len(), &cycle));
    }
}

#[test]
fn finalized_scenarios_demonstrate_the_violation() {
    for (h, _, finalized) in violating_runs() {
        assert!(
            is_violating(h.len(), &finalized),
            "finalized scenario must contain a violating cycle: {finalized:?}"
        );
    }
}

#[test]
fn finalized_scenarios_are_lean() {
    // Minimality in the large: the scenario must stay within a small
    // multiple of the cycle size rather than dragging in the whole history.
    for (h, cycle, finalized) in violating_runs() {
        let participants: std::collections::HashSet<_> =
            finalized.iter().flat_map(|e| [e.from, e.to]).collect();
        assert!(
            participants.len() <= cycle.len() * 3 + 4,
            "scenario too large: {} participants for a {}-edge cycle (history: {} txns)",
            participants.len(),
            cycle.len(),
            h.len()
        );
    }
}

#[test]
fn handcrafted_lost_update_yields_galera_shape() {
    use polysi::history::{HistoryBuilder, Key, Value};
    // Figure 5's shape: writer + two read-modify-write updaters.
    let mut b = HistoryBuilder::new();
    b.session();
    b.begin().write(Key(0), Value(4)).commit();
    b.begin().read(Key(0), Value(4)).write(Key(0), Value(5)).commit();
    b.session();
    b.begin().read(Key(0), Value(4)).write(Key(0), Value(13)).commit();
    let h = b.build();
    let report = check(&h, Level::Si, &EngineOptions::default());
    let Outcome::CyclicViolation(v) = report.outcome else {
        panic!("lost update must be rejected")
    };
    assert_eq!(v.anomaly, polysi::checker::Anomaly::LostUpdate);
    let s = v.scenario.expect("scenario");
    // All three transactions participate; the finalized scenario holds the
    // two WR edges from the original writer, its two WW orderings, and the
    // two crossing anti-dependencies — exactly Figure 5(d).
    assert_eq!(s.transactions.len(), 3);
    use polysi::history::TxnId;
    use polysi::polygraph::Label;
    let expect = [
        Edge::new(TxnId(0), TxnId(1), Label::Wr(Key(0))),
        Edge::new(TxnId(0), TxnId(2), Label::Wr(Key(0))),
        Edge::new(TxnId(0), TxnId(1), Label::Ww(Key(0))),
        Edge::new(TxnId(0), TxnId(2), Label::Ww(Key(0))),
        Edge::new(TxnId(1), TxnId(2), Label::Rw(Key(0))),
        Edge::new(TxnId(2), TxnId(1), Label::Rw(Key(0))),
    ];
    for e in expect {
        assert!(s.finalized.contains(&e), "missing {e:?} in {:?}", s.finalized);
    }
    // Crucially, the unresolvable WW between the two updaters was dropped
    // (Figure 5d removes it as an "effect", not a "cause").
    assert!(!s.finalized.iter().any(|e| matches!(e.label, Label::Ww(_)) && e.from != TxnId(0)));
}
