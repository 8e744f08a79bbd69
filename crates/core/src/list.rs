//! PolySI-List (Appendix F): checking SI over Elle-style *list-append*
//! histories.
//!
//! With the list data model, each key holds a list; transactions append
//! unique values and reads return the whole list. Observed lists fix the
//! order of every observed append (every read is a prefix of the final
//! order); only appends no read observed stay unordered among themselves,
//! one single-edge `WW` constraint per pair of their appenders. This module
//! is a front end: it checks what is specific to lists, derives the known
//! edges and those constraints, and hands the polygraph to the engine's
//! Prune → Encode → Solve runner. At Figure 15's default point (500
//! transactions) that is 411 constraints, of which pruning leaves 5.

use crate::anomaly::Anomaly;
use crate::engine::{extract_cycle, run_unit, Prune, PruneThreads, UnitVerdict};
use polysi_history::{Key, TxnId, TxnStatus, Value};
use polysi_obs::Tracer;
use polysi_polygraph::{ConstraintSet, Edge, Label, Polygraph, PruneOptions, Semantics};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// An operation over list-valued keys.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ListOp {
    /// Append `value` to `key`'s list.
    Append {
        /// Target key.
        key: Key,
        /// Appended (globally unique per key) value.
        value: Value,
    },
    /// Read `key`'s full list.
    Read {
        /// Target key.
        key: Key,
        /// The observed list.
        list: Vec<Value>,
    },
}

/// A transaction over list-valued keys.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ListTxn {
    /// Operations in program order.
    pub ops: Vec<ListOp>,
    /// Commit status.
    pub status: TxnStatus,
}

/// A list-append history: sessions of list transactions.
#[derive(Clone, Default, Debug)]
pub struct ListHistory {
    /// Sessions, each a sequence of transactions in session order.
    pub sessions: Vec<Vec<ListTxn>>,
}

impl ListHistory {
    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a list history was rejected.
#[derive(Debug)]
pub enum ListViolation {
    /// Two observed lists for one key are not prefix-ordered — there is no
    /// single version order (Elle's "incompatible orders").
    IncompatibleOrders {
        /// The key with conflicting observations.
        key: Key,
    },
    /// A read observed a value never appended by a committed transaction.
    PhantomValue {
        /// The key read.
        key: Key,
        /// The unexplained value.
        value: Value,
    },
    /// Two transactions appended the same value to the same key.
    DuplicateAppend {
        /// The key appended.
        key: Key,
        /// The duplicated value.
        value: Value,
    },
    /// A committed transaction's read disagrees with its own earlier
    /// operations on the key (Elle's internal consistency): a repeated
    /// read is not the previous read plus the appends since, or a first
    /// read does not end with the transaction's own appends so far.
    Internal {
        /// The key read.
        key: Key,
        /// The reading transaction (dense id, session-major).
        txn: TxnId,
        /// The list the read returned.
        list: Vec<Value>,
    },
    /// The fully-known dependency graph contains a violating cycle.
    Cyclic {
        /// The violating cycle.
        cycle: Vec<Edge>,
        /// Its anomaly classification.
        anomaly: Anomaly,
    },
}

/// Result of checking a list history.
pub struct ListReport {
    /// `None` means the history satisfies SI.
    pub violation: Option<ListViolation>,
    /// Checking time: the duration of the `list` span around the check.
    pub elapsed: Duration,
}

impl ListReport {
    /// Whether the history was accepted.
    pub fn accepted(&self) -> bool {
        self.violation.is_none()
    }
}

/// Check a list-append history against snapshot isolation.
pub fn check_si_list(h: &ListHistory) -> ListReport {
    let tracer = Tracer::disabled();
    let span = tracer.span("list");
    let violation = run(h, &tracer).err();
    ListReport { violation, elapsed: span.finish() }
}

fn run(h: &ListHistory, tracer: &Tracer) -> Result<(), ListViolation> {
    // Dense ids, session-major.
    let mut txns: Vec<&ListTxn> = Vec::new();
    let mut so_edges: Vec<(TxnId, TxnId)> = Vec::new();
    for sess in &h.sessions {
        let start = txns.len();
        for (i, t) in sess.iter().enumerate() {
            txns.push(t);
            if i > 0 {
                so_edges.push((TxnId((start + i - 1) as u32), TxnId((start + i) as u32)));
            }
        }
    }
    let n = txns.len();

    // Appender maps (committed appends only).
    let mut appender: HashMap<(Key, Value), TxnId> = HashMap::new();
    for (i, t) in txns.iter().enumerate() {
        if t.status != TxnStatus::Committed {
            continue;
        }
        for op in &t.ops {
            if let ListOp::Append { key, value } = *op {
                if appender.insert((key, value), TxnId(i as u32)).is_some() {
                    return Err(ListViolation::DuplicateAppend { key, value });
                }
            }
        }
    }

    // Longest observed list per key; verify prefix-compatibility. The maps
    // iterated below are ordered, so a verdict's key and witness repeat
    // from run to run.
    let mut longest: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
    for t in &txns {
        if t.status != TxnStatus::Committed {
            continue;
        }
        for op in &t.ops {
            if let ListOp::Read { key, list } = op {
                let best = longest.entry(*key).or_default();
                let (short, long) = if list.len() <= best.len() {
                    (&list[..], &best[..])
                } else {
                    (&best[..], &list[..])
                };
                if short != &long[..short.len()] {
                    return Err(ListViolation::IncompatibleOrders { key: *key });
                }
                if list.len() > best.len() {
                    *best = list.clone();
                }
            }
        }
    }

    // Per-key orders. The longest observed list fixes the order of every
    // *observed* value; appends nobody observed necessarily come after the
    // whole observed prefix (lists are append-only, so a value preceding an
    // observed one would have been observed too), but their order *among
    // themselves* is genuinely unknown — it becomes a constraint, exactly
    // like a register-history version order.
    let mut observed: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    let mut value_pos: HashMap<(Key, Value), usize> = HashMap::new();
    for (key, list) in &longest {
        let mut ws = Vec::with_capacity(list.len());
        for &v in list {
            let Some(&w) = appender.get(&(*key, v)) else {
                return Err(ListViolation::PhantomValue { key: *key, value: v });
            };
            value_pos.insert((*key, v), ws.len());
            ws.push(w);
        }
        observed.insert(*key, ws);
    }
    let mut unobserved: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    for (&(key, value), &w) in &appender {
        if !value_pos.contains_key(&(key, value)) {
            let slot = unobserved.entry(key).or_default();
            if !slot.contains(&w) {
                slot.push(w);
            }
        }
    }
    for ws in unobserved.values_mut() {
        ws.sort_unstable();
    }

    // Known edges.
    let mut edges: Vec<Edge> = Vec::new();
    for (a, b) in so_edges {
        edges.push(Edge::new(a, b, Label::So));
    }
    for (key, ws) in &observed {
        for w in ws.windows(2) {
            if w[0] != w[1] {
                edges.push(Edge::new(w[0], w[1], Label::Ww(*key)));
            }
        }
        // Every unobserved appender comes after the observed prefix.
        if let Some(&last) = ws.last() {
            for &u in unobserved.get(key).map(Vec::as_slice).unwrap_or(&[]) {
                if u != last {
                    edges.push(Edge::new(last, u, Label::Ww(*key)));
                }
            }
        }
    }
    for (i, t) in txns.iter().enumerate() {
        if t.status != TxnStatus::Committed {
            continue;
        }
        let reader = TxnId(i as u32);
        // Per key, whether the transaction has read it and what its next
        // read must show: before the first read, its own appends so far
        // (the read must end with them); after, the last read plus the
        // appends since (the read must equal it). Only the first
        // (external) read of each key creates edges; later reads repeat
        // information.
        let mut own: HashMap<Key, (bool, Vec<Value>)> = HashMap::new();
        for op in &t.ops {
            let (key, list) = match op {
                ListOp::Append { key, value } => {
                    own.entry(*key).or_default().1.push(*value);
                    continue;
                }
                ListOp::Read { key, list } => (key, list),
            };
            let (read, expect) = own.entry(*key).or_default();
            let consistent = if *read { list == expect } else { list.ends_with(expect) };
            if !consistent {
                return Err(ListViolation::Internal { key: *key, txn: reader, list: list.clone() });
            }
            expect.clone_from(list);
            if std::mem::replace(read, true) {
                continue;
            }
            let obs = observed.get(key).map(Vec::as_slice).unwrap_or(&[]);
            let unobs = unobserved.get(key).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(&last) = list.last() {
                let pos = value_pos[&(*key, last)];
                let w = obs[pos];
                if w != reader {
                    edges.push(Edge::new(w, reader, Label::Wr(*key)));
                }
                if let Some(&next) = obs.get(pos + 1) {
                    // Overwritten by the next observed append.
                    if next != reader {
                        edges.push(Edge::new(reader, next, Label::Rw(*key)));
                    }
                } else {
                    // Read the full observed prefix: anti-depends on every
                    // unobserved append (their first is unknown).
                    for &u in unobs {
                        if u != reader {
                            edges.push(Edge::new(reader, u, Label::Rw(*key)));
                        }
                    }
                }
            } else if let Some(&first) = obs.first() {
                // Empty read: anti-depends on the first appender.
                if first != reader {
                    edges.push(Edge::new(reader, first, Label::Rw(*key)));
                }
            } else {
                // Empty read with no observed appends at all: every append
                // (necessarily unobserved) overwrote it.
                for &u in unobs {
                    if u != reader {
                        edges.push(Edge::new(reader, u, Label::Rw(*key)));
                    }
                }
            }
        }
    }

    // Constraints: mutual orders of unobserved appenders per key.
    let mut constraints = ConstraintSet::new();
    for (&key, ws) in &unobserved {
        for (i, &t) in ws.iter().enumerate() {
            for &s2 in &ws[i + 1..] {
                constraints.push(
                    key,
                    [Edge::new(t, s2, Label::Ww(key))],
                    [Edge::new(s2, t, Label::Ww(key))],
                );
            }
        }
    }

    // The engine's runner: prune decides most pairs; the rest are solved.
    let mut g = Polygraph { n, known: edges, constraints, semantics: Semantics::Si };
    let opts = PruneOptions::new(PruneThreads::default().budget());
    let cycle = match run_unit(&mut g, Some(Prune::Scratch(None)), &opts, tracer).0 {
        UnitVerdict::Accepted => return Ok(()),
        UnitVerdict::PruneCycle(cycle) => cycle,
        UnitVerdict::Unsat => extract_cycle(&g),
    };
    let anomaly = Anomaly::classify(&cycle);
    Err(ListViolation::Cyclic { cycle, anomaly })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }
    fn append(key: Key, value: Value) -> ListOp {
        ListOp::Append { key, value }
    }
    fn read(key: Key, list: &[u64]) -> ListOp {
        ListOp::Read { key, list: list.iter().map(|&x| Value(x)).collect() }
    }
    fn txn(ops: Vec<ListOp>) -> ListTxn {
        ListTxn { ops, status: TxnStatus::Committed }
    }

    #[test]
    fn serial_appends_accepted() {
        let h = ListHistory {
            sessions: vec![vec![
                txn(vec![append(k(1), v(1))]),
                txn(vec![read(k(1), &[1]), append(k(1), v(2))]),
                txn(vec![read(k(1), &[1, 2])]),
            ]],
        };
        assert!(check_si_list(&h).accepted());
    }

    #[test]
    fn incompatible_orders_rejected() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![append(k(1), v(2))])],
                vec![txn(vec![read(k(1), &[1, 2])])],
                vec![txn(vec![read(k(1), &[2, 1])])],
            ],
        };
        match check_si_list(&h).violation {
            Some(ListViolation::IncompatibleOrders { key }) => assert_eq!(key, k(1)),
            other => panic!("expected incompatible orders, got {other:?}"),
        }
    }

    #[test]
    fn phantom_value_rejected() {
        let h = ListHistory { sessions: vec![vec![txn(vec![read(k(1), &[9])])]] };
        assert!(matches!(check_si_list(&h).violation, Some(ListViolation::PhantomValue { .. })));
    }

    #[test]
    fn duplicate_append_rejected() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![append(k(1), v(1))])],
            ],
        };
        assert!(matches!(check_si_list(&h).violation, Some(ListViolation::DuplicateAppend { .. })));
    }

    #[test]
    fn lost_update_on_lists_rejected() {
        // Both sessions read [1] and append: the version order is exposed by
        // a later read [1,2,3], and each updater missed the other.
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![read(k(1), &[1]), append(k(1), v(2))])],
                vec![txn(vec![read(k(1), &[1]), append(k(1), v(3))])],
                vec![txn(vec![read(k(1), &[1, 2, 3])])],
            ],
        };
        match check_si_list(&h).violation {
            Some(ListViolation::Cyclic { anomaly, .. }) => {
                assert_eq!(anomaly, Anomaly::LostUpdate);
            }
            other => panic!("expected cyclic violation, got {other:?}"),
        }
    }

    #[test]
    fn long_fork_on_lists_rejected() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![append(k(2), v(2))])],
                vec![txn(vec![read(k(1), &[1]), read(k(2), &[])])],
                vec![txn(vec![read(k(1), &[]), read(k(2), &[2])])],
            ],
        };
        match check_si_list(&h).violation {
            Some(ListViolation::Cyclic { anomaly, .. }) => assert_eq!(anomaly, Anomaly::LongFork),
            other => panic!("expected cyclic violation, got {other:?}"),
        }
    }

    #[test]
    fn write_skew_on_lists_accepted() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))]), txn(vec![append(k(2), v(2))])],
                vec![txn(vec![read(k(1), &[1]), append(k(2), v(22))])],
                vec![txn(vec![read(k(2), &[2]), append(k(1), v(11))])],
            ],
        };
        assert!(check_si_list(&h).accepted());
    }

    #[test]
    fn aborted_appends_invisible() {
        let h = ListHistory {
            sessions: vec![
                vec![ListTxn { ops: vec![append(k(1), v(1))], status: TxnStatus::Aborted }],
                vec![txn(vec![read(k(1), &[])])],
            ],
        };
        assert!(check_si_list(&h).accepted());
        // Reading the aborted value is a phantom.
        let h2 = ListHistory {
            sessions: vec![
                vec![ListTxn { ops: vec![append(k(1), v(1))], status: TxnStatus::Aborted }],
                vec![txn(vec![read(k(1), &[1])])],
            ],
        };
        assert!(matches!(check_si_list(&h2).violation, Some(ListViolation::PhantomValue { .. })));
    }

    #[test]
    fn reread_without_append_must_repeat_the_read() {
        // T3 reads [1], then [1, 2] with no append in between: a
        // non-repeatable read, which no snapshot explains.
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![append(k(1), v(2))])],
                vec![txn(vec![read(k(1), &[1]), read(k(1), &[1, 2])])],
            ],
        };
        match check_si_list(&h).violation {
            Some(ListViolation::Internal { key, txn, list }) => {
                assert_eq!((key, txn, list), (k(1), TxnId(2), vec![v(1), v(2)]));
            }
            other => panic!("expected an internal violation, got {other:?}"),
        }
    }

    #[test]
    fn read_must_end_with_own_appends() {
        // T appends 1 to k, then reads k = []: it misses its own write.
        let h =
            ListHistory { sessions: vec![vec![txn(vec![append(k(1), v(1)), read(k(1), &[])])]] };
        assert!(matches!(
            check_si_list(&h).violation,
            Some(ListViolation::Internal { key, .. }) if key == k(1)
        ));
    }

    #[test]
    fn reads_that_follow_own_appends_accepted() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![
                    append(k(1), v(2)),
                    read(k(1), &[1, 2]),
                    append(k(1), v(3)),
                    read(k(1), &[1, 2, 3]),
                ])],
            ],
        };
        assert!(check_si_list(&h).accepted());
    }

    #[test]
    fn unobserved_appends_do_not_block_acceptance() {
        let h = ListHistory {
            sessions: vec![
                vec![txn(vec![append(k(1), v(1))])],
                vec![txn(vec![append(k(1), v(2))])],
                vec![txn(vec![read(k(1), &[1])])],
            ],
        };
        assert!(check_si_list(&h).accepted());
    }
}
