//! PolySI-List (Appendix F): Elle-style *list-append* histories, checked
//! by [`CheckEngine::check_list`](crate::CheckEngine::check_list).
//!
//! With the list data model, each key holds a list; transactions append
//! unique values and reads return the whole list. Observed lists fix the
//! order of every observed append (every read is a prefix of the final
//! order); only appends no read observed stay unordered among themselves,
//! one single-edge `WW` constraint per pair of their appenders. This module
//! is the engine's front half for lists: it checks what is specific to
//! lists, as [`AxiomViolation`]s, and derives the known edges and those
//! constraints; Prune → Encode → Solve are a history's. At Figure 15's
//! default point (500 transactions) that is 411 constraints, of which
//! pruning leaves 5.
//!
//! The polygraph serves SER as it is: unobserved values have no readers,
//! so no `RW` edge depends on how a constraint is resolved, and every `RW`
//! edge is known — SER is plain acyclicity over the same polygraph.

use polysi_history::{AxiomViolation, Key, TxnId, TxnStatus, Value};
use polysi_polygraph::{ConstraintSet, Edge, Label, Polygraph, Semantics};
use std::collections::{BTreeMap, HashMap};

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

/// The polygraph of `h` under `semantics`, or the first list-specific
/// violation found, in this order: a value appended twice
/// ([`AxiomViolation::DuplicateWrite`]); two reads of a key that are not
/// prefix-ordered ([`AxiomViolation::IncompatibleOrders`]); per key, a
/// value of the longest read that no committed transaction appended
/// ([`AxiomViolation::UnknownValueRead`]) or that it repeats
/// (`IncompatibleOrders` of its reader with itself); per committed
/// transaction in program order, a read that disagrees with its own
/// earlier operations on the key ([`AxiomViolation::ListInt`]) or that
/// lists a value it appends only later ([`AxiomViolation::FutureRead`]).
pub(crate) fn polygraph(
    h: &ListHistory,
    semantics: Semantics,
) -> Result<Polygraph, AxiomViolation> {
    // Dense ids, session-major; the session order is the first known edges.
    let mut txns: Vec<&ListTxn> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for sess in &h.sessions {
        let start = txns.len() as u32;
        for (i, t) in (start..).zip(sess) {
            txns.push(t);
            if i > start {
                edges.push(Edge::new(TxnId(i - 1), TxnId(i), Label::So));
            }
        }
    }
    let committed = || {
        (0..).map(TxnId).zip(txns.iter().copied()).filter(|(_, t)| t.status == TxnStatus::Committed)
    };

    // Appender maps (committed appends only).
    let mut appender: HashMap<(Key, Value), TxnId> = HashMap::new();
    for (id, t) in committed() {
        for op in &t.ops {
            if let ListOp::Append { key, value } = *op {
                if let Some(first) = appender.insert((key, value), id) {
                    return Err(AxiomViolation::DuplicateWrite { key, value, first, second: id });
                }
            }
        }
    }

    // Longest observed list per key, and its reader; verify
    // prefix-compatibility. The maps iterated below are ordered, so a
    // verdict's key and witness repeat from run to run.
    let mut longest: BTreeMap<Key, (TxnId, &[Value])> = BTreeMap::new();
    for (id, t) in committed() {
        for (key, list) in reads(t) {
            let (holder, best) = longest.entry(key).or_insert((id, &[]));
            let short = list.len().min(best.len());
            if list[..short] != best[..short] {
                return Err(AxiomViolation::IncompatibleOrders { key, first: *holder, second: id });
            }
            if list.len() > best.len() {
                (*holder, *best) = (id, list);
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
    for (&key, &(holder, list)) in &longest {
        let mut ws = Vec::with_capacity(list.len());
        for (i, &value) in list.iter().enumerate() {
            match appender.remove(&(key, value)) {
                Some(w) => ws.push(w),
                None if list[..i].contains(&value) => {
                    return Err(AxiomViolation::IncompatibleOrders {
                        key,
                        first: holder,
                        second: holder,
                    })
                }
                None => {
                    let listed =
                        |t: &ListTxn| reads(t).any(|(k, l)| k == key && l.contains(&value));
                    let (txn, _) =
                        committed().find(|&(_, t)| listed(t)).expect("a reader listed it");
                    return Err(AxiomViolation::UnknownValueRead { txn, key, value });
                }
            }
        }
        observed.insert(key, ws);
    }
    // What is left of the appenders appended what nobody observed.
    let mut unobserved: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    for ((key, _), w) in appender {
        unobserved.entry(key).or_default().push(w);
    }
    for ws in unobserved.values_mut() {
        ws.sort_unstable();
        ws.dedup();
    }
    let unobs = |key: &Key| unobserved.get(key).map_or(&[][..], Vec::as_slice);

    // Known edges.
    for (key, ws) in &observed {
        for w in ws.windows(2) {
            if w[0] != w[1] {
                edges.push(Edge::new(w[0], w[1], Label::Ww(*key)));
            }
        }
        // Every unobserved appender comes after the observed prefix.
        if let Some(&last) = ws.last() {
            for &u in unobs(key).iter().filter(|&&u| u != last) {
                edges.push(Edge::new(last, u, Label::Ww(*key)));
            }
        }
    }
    for (reader, t) in committed() {
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
                ListOp::Read { key, list } => (*key, list),
            };
            let (read, expect) = own.entry(key).or_default();
            let consistent = if *read { list == expect } else { list.ends_with(expect) };
            if !consistent {
                return Err(AxiomViolation::ListInt { txn: reader, key, got: list[..].into() });
            }
            let external = list.len() - expect.len();
            expect.clone_from(list);
            if std::mem::replace(read, true) {
                continue;
            }
            // The read is a prefix of the observed order: what precedes
            // its own appends, other transactions appended.
            let obs = observed.get(&key).map_or(&[][..], Vec::as_slice);
            if let Some(i) = (0..external).find(|&i| obs[i] == reader) {
                return Err(AxiomViolation::FutureRead { txn: reader, key, value: list[i] });
            }
            // It read from its last element's appender and was overwritten
            // by the next observed append or, past the observed prefix, by
            // every unobserved one (their first is unknown).
            let len = list.len();
            if len > 0 && obs[len - 1] != reader {
                edges.push(Edge::new(obs[len - 1], reader, Label::Wr(key)));
            }
            let overwriters = obs.get(len).map_or(unobs(&key), std::slice::from_ref);
            for &u in overwriters.iter().filter(|&&u| u != reader) {
                edges.push(Edge::new(reader, u, Label::Rw(key)));
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
    Ok(Polygraph { n: txns.len(), known: edges, constraints, semantics })
}

/// A transaction's reads, in program order.
fn reads(t: &ListTxn) -> impl Iterator<Item = (Key, &[Value])> + '_ {
    t.ops.iter().filter_map(|op| match op {
        ListOp::Read { key, list } => Some((*key, &list[..])),
        ListOp::Append { .. } => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckEngine, EngineOptions, IsolationLevel};
    use crate::Outcome;

    fn append(key: u64, value: u64) -> ListOp {
        ListOp::Append { key: Key(key), value: Value(value) }
    }
    fn read(key: u64, list: &[u64]) -> ListOp {
        ListOp::Read { key: Key(key), list: list.iter().map(|&x| Value(x)).collect() }
    }
    fn txn(ops: Vec<ListOp>) -> ListTxn {
        ListTxn { ops, status: TxnStatus::Committed }
    }
    fn aborted(ops: Vec<ListOp>) -> ListTxn {
        ListTxn { ops, status: TxnStatus::Aborted }
    }
    /// One transaction per session.
    fn sessions(txns: Vec<ListTxn>) -> ListHistory {
        ListHistory { sessions: txns.into_iter().map(|t| vec![t]).collect() }
    }

    fn check(h: &ListHistory, level: IsolationLevel) -> Outcome {
        CheckEngine::new(level, EngineOptions::default()).check_list(h).outcome
    }

    fn write_skew() -> ListHistory {
        ListHistory {
            sessions: vec![
                vec![txn(vec![append(1, 1)]), txn(vec![append(2, 2)])],
                vec![txn(vec![read(1, &[1]), append(2, 22)])],
                vec![txn(vec![read(2, &[2]), append(1, 11)])],
            ],
        }
    }

    /// The list verdict table: each row is a test named `$name` asserting
    /// that `$history` checked at `$level`, with and without pruning, gives
    /// `Outcome::kind()` `$kind` and the violation kind `$violation` (an
    /// axiom's [`AxiomViolation::kind`], a cycle's anomaly, `""` for an
    /// accept).
    macro_rules! verdicts {
        ($($name:ident: $level:ident, $kind:literal, $violation:literal, $history:expr;)*) => {$(
            #[test]
            fn $name() {
                for pruning in [true, false] {
                    let opts = EngineOptions { pruning, ..EngineOptions::default() };
                    let engine = CheckEngine::new(IsolationLevel::$level, opts);
                    let outcome = engine.check_list(&$history).outcome;
                    let violation = match &outcome {
                        Outcome::AxiomViolations(vs) => vs[0].kind(),
                        Outcome::CyclicViolation(v) => v.anomaly.name(),
                        Outcome::Si | Outcome::Inconclusive(_) => "",
                    };
                    let got = (outcome.kind(), violation);
                    assert_eq!(got, ($kind, $violation), "pruning {pruning}: {outcome:?}");
                }
            }
        )*};
    }

    verdicts! {
        serial_appends_accepted: Si, "ok", "", ListHistory {
            sessions: vec![vec![
                txn(vec![append(1, 1)]),
                txn(vec![read(1, &[1]), append(1, 2)]),
                txn(vec![read(1, &[1, 2])]),
            ]],
        };
        incompatible_orders_rejected: Si, "axiom_violation", "incompatible_orders", sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(1, 2)]),
            txn(vec![read(1, &[1, 2])]),
            txn(vec![read(1, &[2, 1])]),
        ]);
        repeated_element_rejected: Si, "axiom_violation", "incompatible_orders",
            sessions(vec![txn(vec![append(1, 1)]), txn(vec![read(1, &[1, 1])])]);
        phantom_value_rejected: Si, "axiom_violation", "unknown_value_read",
            sessions(vec![txn(vec![read(1, &[9])])]);
        duplicate_append_rejected: Si, "axiom_violation", "duplicate_write",
            sessions(vec![txn(vec![append(1, 1)]), txn(vec![append(1, 1)])]);
        // Both updaters read [1] and append: a later read [1, 2, 3] exposes
        // the order, and each missed the other.
        lost_update_on_lists_rejected: Si, "cyclic_violation", "lost update", sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![read(1, &[1]), append(1, 2)]),
            txn(vec![read(1, &[1]), append(1, 3)]),
            txn(vec![read(1, &[1, 2, 3])]),
        ]);
        long_fork_on_lists_rejected: Si, "cyclic_violation", "long fork", sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(2, 2)]),
            txn(vec![read(1, &[1]), read(2, &[])]),
            txn(vec![read(1, &[]), read(2, &[2])]),
        ]);
        write_skew_on_lists_accepted: Si, "ok", "", write_skew();
        write_skew_on_lists_rejected_under_ser: Ser, "cyclic_violation", "write skew",
            write_skew();
        aborted_appends_invisible: Si, "ok", "",
            sessions(vec![aborted(vec![append(1, 1)]), txn(vec![read(1, &[])])]);
        reading_an_aborted_append_rejected: Si, "axiom_violation", "unknown_value_read",
            sessions(vec![aborted(vec![append(1, 1)]), txn(vec![read(1, &[1])])]);
        // [1], then [1, 2] with no append in between: a non-repeatable read,
        // which no snapshot explains.
        reread_without_append_must_repeat_the_read: Si, "axiom_violation", "list_int",
            sessions(vec![
                txn(vec![append(1, 1)]),
                txn(vec![append(1, 2)]),
                txn(vec![read(1, &[1]), read(1, &[1, 2])]),
            ]);
        read_must_end_with_own_appends: Si, "axiom_violation", "list_int",
            sessions(vec![txn(vec![append(1, 1), read(1, &[])])]);
        read_of_own_later_append_rejected: Si, "axiom_violation", "future_read",
            sessions(vec![txn(vec![read(1, &[1]), append(1, 1)])]);
        reads_that_follow_own_appends_accepted: Si, "ok", "", sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(1, 2), read(1, &[1, 2]), append(1, 3), read(1, &[1, 2, 3])]),
        ]);
        unobserved_appends_do_not_block_acceptance: Si, "ok", "", sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(1, 2)]),
            txn(vec![read(1, &[1])]),
        ]);
    }

    /// A list axiom names its transactions, key and list; a phantom's
    /// reader is the first committed one that listed it.
    #[test]
    fn list_violations_name_their_witness() {
        let axioms = |h: &ListHistory| match check(h, IsolationLevel::Si) {
            Outcome::AxiomViolations(vs) => vs,
            other => panic!("expected an axiom violation, got {other:?}"),
        };
        let reread = sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(1, 2)]),
            txn(vec![read(1, &[1]), read(1, &[1, 2])]),
        ]);
        let got = vec![Value(1), Value(2)].into_boxed_slice();
        assert_eq!(axioms(&reread), [AxiomViolation::ListInt { txn: TxnId(2), key: Key(1), got }]);
        let orders = sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![append(1, 2)]),
            txn(vec![read(1, &[1, 2])]),
            txn(vec![read(1, &[2, 1])]),
        ]);
        assert_eq!(
            axioms(&orders),
            [AxiomViolation::IncompatibleOrders { key: Key(1), first: TxnId(2), second: TxnId(3) }]
        );
        let phantom = sessions(vec![
            txn(vec![append(1, 1)]),
            txn(vec![read(1, &[1, 9])]),
            txn(vec![read(1, &[1, 9, 8])]),
        ]);
        assert_eq!(
            axioms(&phantom),
            [AxiomViolation::UnknownValueRead { txn: TxnId(1), key: Key(1), value: Value(9) }]
        );
    }
}
