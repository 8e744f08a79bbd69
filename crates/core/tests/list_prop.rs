//! Property tests for PolySI-List: serially-generated list histories are
//! always accepted; targeted mutations (swapping observed elements,
//! fabricating values) are rejected.

use polysi_checker::list::{check_si_list, ListHistory, ListOp, ListTxn};
use polysi_history::{TxnStatus, Value};
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
        let report = check_si_list(&h);
        prop_assert!(report.accepted(), "violation: {:?}", report.violation);
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
        prop_assert!(!check_si_list(&h).accepted());
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
        prop_assert!(!check_si_list(&h).accepted());
    }
}
