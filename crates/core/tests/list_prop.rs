//! Property tests for PolySI-List: serially-generated list histories are
//! always accepted, under SI and SER; targeted mutations (swapping observed
//! elements, fabricating values) are rejected; and on mutated histories the
//! checker agrees with the reference body it replaced.

#[path = "support/list_reference.rs"]
mod list_reference;

use list_reference::ListViolation;
use polysi_checker::list::{ListHistory, ListOp, ListTxn};
use polysi_checker::{CheckEngine, CheckReport, EngineOptions, IsolationLevel, Outcome};
use polysi_history::{AxiomViolation, TxnStatus, Value};
use polysi_workloads::list_append::{generate_list_history, ListOpRecord};
use polysi_workloads::{GeneralParams, KeyDistribution};
use proptest::prelude::*;

fn convert(rec: &polysi_workloads::list_append::ListHistoryRecord) -> ListHistory {
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
                        status: TxnStatus::Committed,
                    })
                    .collect()
            })
            .collect(),
    }
}

fn check(h: &ListHistory, level: IsolationLevel) -> CheckReport {
    CheckEngine::new(level, EngineOptions::default()).check_list(h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_list_histories_are_si(
        seed in 0u64..10_000,
        sessions in 2usize..5,
        txns in 2usize..8,
        read_pct in 20u32..80,
    ) {
        let rec = generate_list_history(&GeneralParams {
            sessions,
            txns_per_session: txns,
            ops_per_txn: 4,
            keys: 4,
            read_pct,
            dist: KeyDistribution::Uniform,
            seed,
        });
        let h = convert(&rec);
        for level in [IsolationLevel::Si, IsolationLevel::Ser] {
            let report = check(&h, level);
            prop_assert!(report.accepted(), "{level:?} violation: {:?}", report.outcome);
        }
    }

    #[test]
    fn reversed_observations_are_rejected(seed in 0u64..10_000) {
        let rec = generate_list_history(&GeneralParams {
            sessions: 3,
            txns_per_session: 8,
            ops_per_txn: 4,
            keys: 2,
            read_pct: 50,
            dist: KeyDistribution::Uniform,
            seed,
        });
        let mut h = convert(&rec);
        // Find a read with >= 2 elements and reverse it: no consistent
        // order can explain both it and the straight observations.
        let mut mutated = false;
        'outer: for sess in &mut h.sessions {
            for t in sess {
                for op in &mut t.ops {
                    if let ListOp::Read { list, .. } = op {
                        if list.len() >= 2 {
                            list.reverse();
                            mutated = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        prop_assume!(mutated);
        prop_assert!(!check(&h, IsolationLevel::Si).accepted());
    }

    #[test]
    fn phantom_values_are_rejected(seed in 0u64..10_000) {
        let rec = generate_list_history(&GeneralParams {
            sessions: 3,
            txns_per_session: 5,
            ops_per_txn: 3,
            keys: 2,
            read_pct: 60,
            dist: KeyDistribution::Uniform,
            seed,
        });
        let mut h = convert(&rec);
        let mut mutated = false;
        'outer: for sess in &mut h.sessions {
            for t in sess {
                for op in &mut t.ops {
                    if let ListOp::Read { list, .. } = op {
                        list.push(Value(999_999_999));
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
        prop_assume!(mutated);
        prop_assert!(!check(&h, IsolationLevel::Si).accepted());
    }
}

/// splitmix64: the mutation schedule's randomness, a function of the case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random mutation of five kinds: truncate a read, drop a
/// transaction's reads, swap two transactions of a session, move a
/// transaction to another session, abort a transaction.
fn mutate(h: &mut ListHistory, rng: &mut Mix) {
    let s = rng.below(h.sessions.len());
    if h.sessions[s].is_empty() {
        return;
    }
    let t = rng.below(h.sessions[s].len());
    match rng.below(5) {
        0 => {
            let reads: Vec<usize> = h.sessions[s][t]
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, ListOp::Read { list, .. } if !list.is_empty()))
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = reads.get(rng.below(reads.len())) {
                if let ListOp::Read { list, .. } = &mut h.sessions[s][t].ops[i] {
                    list.truncate(rng.below(list.len()));
                }
            }
        }
        1 => h.sessions[s][t].ops.retain(|op| matches!(op, ListOp::Append { .. })),
        2 => {
            let u = rng.below(h.sessions[s].len());
            h.sessions[s].swap(t, u);
        }
        3 => {
            let txn = h.sessions[s].remove(t);
            let to = rng.below(h.sessions.len());
            let at = rng.below(h.sessions[to].len() + 1);
            h.sessions[to].insert(at, txn);
        }
        _ => h.sessions[s][t].status = TxnStatus::Aborted,
    }
}

/// The checker's verdict in the reference's terms: the map from
/// [`AxiomViolation::kind`] onto the reference's variants. `list_int` and
/// `future_read` have no counterpart (the reference has no
/// internal-consistency check), nor do the variants the reference never
/// reports; a repeated list element does not arise from the mutations.
fn kind(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Si => "accept",
        Outcome::AxiomViolations(vs) => match vs[0].kind() {
            "incompatible_orders" => "incompatible",
            "unknown_value_read" => "phantom",
            "duplicate_write" => "duplicate",
            "list_int" | "future_read" => "internal",
            other => panic!("a list check reported {other}"),
        },
        Outcome::CyclicViolation(_) => "cyclic",
        Outcome::Inconclusive(_) => panic!("a list check is never inconclusive"),
    }
}

/// The reference's verdict kind.
fn reference_kind(v: &Option<ListViolation>) -> &'static str {
    match v {
        None => "accept",
        Some(ListViolation::IncompatibleOrders { .. }) => "incompatible",
        Some(ListViolation::PhantomValue { .. }) => "phantom",
        Some(ListViolation::DuplicateAppend { .. }) => "duplicate",
        Some(ListViolation::Cyclic { .. }) => "cyclic",
    }
}

/// The checker against the body it replaced, on generated list histories
/// under one to three random mutations: the same verdict kind on every
/// internally consistent case (the reference has no internal check), and
/// the same key (and value) in an axiom violation. Witnesses may move on
/// rejections: where the reference found a cycle only by search, pruning
/// now finds one, and the two can differ (they are counted, not
/// compared). SER rejects every case SI rejects.
#[test]
fn same_verdict_kind_as_the_reference_body() {
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    let (mut solved, mut searched, mut cycle_moves, mut class_moves) = (0, 0, 0, 0);
    for case in 0..6_000u64 {
        let mut rng = Mix(case);
        let rec = generate_list_history(&GeneralParams {
            sessions: 2 + rng.below(4),
            txns_per_session: 2 + rng.below(8),
            ops_per_txn: 1 + rng.below(5),
            keys: 1 + rng.below(5) as u64,
            read_pct: 20 + rng.below(61) as u32,
            dist: KeyDistribution::Uniform,
            seed: case,
        });
        let mut h = convert(&rec);
        for _ in 0..1 + rng.below(3) {
            mutate(&mut h, &mut rng);
        }
        let got = check(&h, IsolationLevel::Si).outcome;
        assert!(
            got.accepted() || !check(&h, IsolationLevel::Ser).accepted(),
            "case {case}: SER accepts what SI rejects: {got:?}"
        );
        *counts.entry(kind(&got)).or_default() += 1;
        if kind(&got) == "internal" {
            continue;
        }
        let (want, reached_solver) = list_reference::reference(&h);
        let want = want.err();
        solved += reached_solver as usize;
        searched += (reached_solver && want.is_some()) as usize;
        assert_eq!(
            kind(&got),
            reference_kind(&want),
            "case {case}: {got:?} vs the reference's {want:?}"
        );
        match (&got, &want) {
            (Outcome::CyclicViolation(v), Some(ListViolation::Cyclic { cycle, anomaly })) => {
                cycle_moves += (&v.cycle != cycle) as usize;
                class_moves += (&v.anomaly != anomaly) as usize;
            }
            (Outcome::AxiomViolations(vs), Some(want)) => {
                let key_value = match (&vs[0], want) {
                    (
                        AxiomViolation::IncompatibleOrders { key, .. },
                        ListViolation::IncompatibleOrders { key: want },
                    ) => key == want,
                    (
                        AxiomViolation::UnknownValueRead { key, value, .. },
                        ListViolation::PhantomValue { key: k, value: v },
                    )
                    | (
                        AxiomViolation::DuplicateWrite { key, value, .. },
                        ListViolation::DuplicateAppend { key: k, value: v },
                    ) => (key, value) == (k, v),
                    _ => false,
                };
                assert!(key_value, "case {case}: {vs:?} vs the reference's {want:?}");
            }
            _ => {}
        }
    }
    println!(
        "verdicts {counts:?}; the reference reached its solver on {solved} and rejected \
         {searched} of them; {cycle_moves} cyclic rejections got another cycle, \
         {class_moves} another anomaly class"
    );
    assert!(solved > 0, "no case carried constraints over an acyclic known graph");
}
