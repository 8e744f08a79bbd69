//! Histories and ergonomic construction.

use crate::ids::{Key, SessionId, TxnId, Value};
use crate::op::{Op, TxnStatus};
use std::fmt;
use std::ops::Range;

/// A transaction: a sequence of operations (the program order) plus its
/// determinate status. Session membership is recorded on the transaction so
/// counterexamples can print the paper's `T:(session, index)` notation.
#[derive(Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Session issuing this transaction.
    pub session: SessionId,
    /// Zero-based position within the session (the `n` of `T:(s,n)`).
    pub index_in_session: u32,
    /// Operations in program order.
    pub ops: Vec<Op>,
    /// Commit/abort status.
    pub status: TxnStatus,
}

impl Transaction {
    /// Whether the transaction committed.
    #[inline]
    pub fn committed(&self) -> bool {
        self.status == TxnStatus::Committed
    }

    /// The paper's `T:(s,n)` label.
    pub fn label(&self) -> String {
        format!("T:({},{})", self.session.0, self.index_in_session)
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.label(), self.ops)?;
        if self.status == TxnStatus::Aborted {
            write!(f, "[aborted]")?;
        }
        Ok(())
    }
}

/// A history `H = (T, SO)`: transactions partitioned into sessions, each
/// session totally ordered. Transactions are stored session-major, so the
/// session order is `TxnId(i) → TxnId(i+1)` within each session range.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct History {
    txns: Vec<Transaction>,
    session_ranges: Vec<Range<u32>>,
}

/// A borrowed view of one session's transactions.
#[derive(Clone, Copy)]
pub struct SessionView<'a> {
    /// The session identifier.
    pub id: SessionId,
    /// The transactions of the session, in session order.
    pub txns: &'a [Transaction],
    /// The id of the first transaction of the session.
    pub first: TxnId,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transactions (committed and aborted).
    #[inline]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the history has no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Number of sessions.
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.session_ranges.len()
    }

    /// Total number of operations across all transactions.
    pub fn num_ops(&self) -> usize {
        self.txns.iter().map(|t| t.ops.len()).sum()
    }

    /// The transaction with the given id.
    #[inline]
    pub fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[id.idx()]
    }

    /// All transactions, indexable by `TxnId`.
    #[inline]
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Iterate over `(TxnId, &Transaction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &Transaction)> {
        self.txns.iter().enumerate().map(|(i, t)| (TxnId(i as u32), t))
    }

    /// Iterate over the sessions.
    pub fn sessions(&self) -> impl Iterator<Item = SessionView<'_>> {
        self.session_ranges.iter().enumerate().map(|(sid, r)| SessionView {
            id: SessionId(sid as u32),
            txns: &self.txns[r.start as usize..r.end as usize],
            first: TxnId(r.start),
        })
    }

    /// The immediate session-order successor of `id`, if any.
    pub fn so_successor(&self, id: TxnId) -> Option<TxnId> {
        let r = &self.session_ranges[self.txn(id).session.0 as usize];
        let next = id.0 + 1;
        (next < r.end).then_some(TxnId(next))
    }

    /// Session-order edges `(pred, succ)` between *consecutive* transactions
    /// of each session (the transitive reduction of `SO`).
    pub fn so_edges(&self) -> impl Iterator<Item = (TxnId, TxnId)> + '_ {
        self.session_ranges
            .iter()
            .flat_map(|r| (r.start..r.end.saturating_sub(1)).map(|i| (TxnId(i), TxnId(i + 1))))
    }

    /// Whether `a` precedes `b` in session order.
    pub fn so_before(&self, a: TxnId, b: TxnId) -> bool {
        self.txn(a).session == self.txn(b).session && a.0 < b.0
    }

    /// The history of `sessions` alone, given ascending (as a
    /// [`ShardComponent`](crate::ShardComponent) lists them): sessions and
    /// transactions are renumbered densely in their order here, so the
    /// `i`-th transaction of the result is the `i`-th of those sessions.
    pub fn restrict(&self, sessions: &[SessionId]) -> History {
        let range = |s: SessionId| {
            let r = &self.session_ranges[s.0 as usize];
            r.start as usize..r.end as usize
        };
        let mut h = History::new();
        h.txns.reserve_exact(sessions.iter().map(|&s| range(s).len()).sum());
        h.session_ranges.reserve_exact(sessions.len());
        for &s in sessions {
            let (sid, start) = (SessionId(h.session_ranges.len() as u32), h.txns.len() as u32);
            h.txns.extend(self.txns[range(s)].iter().map(|t| Transaction {
                session: sid,
                index_in_session: t.index_in_session,
                ops: t.ops.clone(),
                status: t.status,
            }));
            h.session_ranges.push(start..h.txns.len() as u32);
        }
        h
    }

    /// Append a session built from complete transactions. Returns its id.
    ///
    /// This is the low-level entry point; prefer [`HistoryBuilder`].
    pub fn push_session(&mut self, txns: Vec<(Vec<Op>, TxnStatus)>) -> SessionId {
        let sid = SessionId(self.session_ranges.len() as u32);
        let start = self.txns.len() as u32;
        for (n, (ops, status)) in txns.into_iter().enumerate() {
            self.txns.push(Transaction { session: sid, index_in_session: n as u32, ops, status });
        }
        let end = self.txns.len() as u32;
        self.session_ranges.push(start..end);
        sid
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "History[{} sessions, {} txns]", self.num_sessions(), self.len())?;
        for s in self.sessions() {
            writeln!(f, "  session {}:", s.id.0)?;
            for t in s.txns {
                writeln!(f, "    {t:?}")?;
            }
        }
        Ok(())
    }
}

/// Builder for histories in tests, examples, and workload drivers.
///
/// ```
/// use polysi_history::{HistoryBuilder, Key, Value};
///
/// let mut b = HistoryBuilder::new();
/// b.session();
/// b.begin();
/// b.write(Key(1), Value(10));
/// b.commit();
/// b.session();
/// b.begin();
/// b.read(Key(1), Value(10));
/// b.commit();
/// let h = b.build();
/// assert_eq!(h.len(), 2);
/// assert_eq!(h.num_sessions(), 2);
/// ```
#[derive(Default)]
pub struct HistoryBuilder {
    sessions: Vec<Vec<(Vec<Op>, TxnStatus)>>,
    current_ops: Option<Vec<Op>>,
}

impl HistoryBuilder {
    /// A fresh builder with no sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new session; subsequent transactions belong to it.
    pub fn session(&mut self) -> SessionId {
        assert!(self.current_ops.is_none(), "session() inside an open transaction");
        self.sessions.push(Vec::new());
        SessionId(self.sessions.len() as u32 - 1)
    }

    /// Begin a transaction in the current session.
    pub fn begin(&mut self) -> &mut Self {
        assert!(!self.sessions.is_empty(), "begin() before any session()");
        assert!(self.current_ops.is_none(), "begin() inside an open transaction");
        self.current_ops = Some(Vec::new());
        self
    }

    /// Record a read observing `value` (use [`Value::INIT`] for the initial
    /// value).
    pub fn read(&mut self, key: Key, value: Value) -> &mut Self {
        self.op(Op::Read { key, value })
    }

    /// Record a write of `value`.
    pub fn write(&mut self, key: Key, value: Value) -> &mut Self {
        self.op(Op::Write { key, value })
    }

    /// Record an arbitrary operation.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.current_ops.as_mut().expect("operation outside a transaction").push(op);
        self
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> &mut Self {
        self.finish(TxnStatus::Committed)
    }

    /// Abort the open transaction (its writes must be invisible).
    pub fn abort(&mut self) -> &mut Self {
        self.finish(TxnStatus::Aborted)
    }

    fn finish(&mut self, status: TxnStatus) -> &mut Self {
        let ops = self.current_ops.take().expect("commit/abort without begin");
        assert!(!ops.is_empty(), "transactions must be non-empty (Definition 3)");
        self.sessions.last_mut().unwrap().push((ops, status));
        self
    }

    /// Finalize into a [`History`].
    pub fn build(mut self) -> History {
        assert!(self.current_ops.is_none(), "build() with an open transaction");
        let mut h = History::new();
        for s in self.sessions.drain(..) {
            h.push_session(s);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_session_history() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).commit();
        b.begin().write(Key(1), Value(11)).commit();
        b.session();
        b.begin().read(Key(1), Value(10)).commit();
        b.build()
    }

    #[test]
    fn builder_assigns_session_major_ids() {
        let h = two_session_history();
        assert_eq!(h.len(), 3);
        assert_eq!(h.txn(TxnId(0)).session, SessionId(0));
        assert_eq!(h.txn(TxnId(1)).session, SessionId(0));
        assert_eq!(h.txn(TxnId(2)).session, SessionId(1));
        assert_eq!(h.txn(TxnId(1)).index_in_session, 1);
        assert_eq!(h.txn(TxnId(2)).index_in_session, 0);
    }

    #[test]
    fn so_edges_are_per_session() {
        let h = two_session_history();
        let so: Vec<_> = h.so_edges().collect();
        assert_eq!(so, vec![(TxnId(0), TxnId(1))]);
        assert!(h.so_before(TxnId(0), TxnId(1)));
        assert!(!h.so_before(TxnId(1), TxnId(0)));
        assert!(!h.so_before(TxnId(0), TxnId(2)));
        assert_eq!(h.so_successor(TxnId(0)), Some(TxnId(1)));
        assert_eq!(h.so_successor(TxnId(1)), None);
        assert_eq!(h.so_successor(TxnId(2)), None);
    }

    #[test]
    fn labels_match_paper_notation() {
        let h = two_session_history();
        assert_eq!(h.txn(TxnId(1)).label(), "T:(0,1)");
        assert_eq!(h.txn(TxnId(2)).label(), "T:(1,0)");
    }

    #[test]
    fn num_ops_counts_everything() {
        let h = two_session_history();
        assert_eq!(h.num_ops(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_transactions_rejected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().commit();
    }

    #[test]
    fn sessions_iterate_in_order() {
        let h = two_session_history();
        let sess: Vec<_> = h.sessions().collect();
        assert_eq!(sess.len(), 2);
        assert_eq!(sess[0].txns.len(), 2);
        assert_eq!(sess[1].txns.len(), 1);
        assert_eq!(sess[1].first, TxnId(2));
    }

    #[test]
    fn restrict_renumbers_the_chosen_sessions() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).commit();
        b.session();
        b.begin().write(Key(2), Value(20)).commit();
        b.begin().read(Key(2), Value(20)).abort();
        b.session();
        b.begin().read(Key(1), Value(10)).commit();
        let h = b.build();
        let r = h.restrict(&[SessionId(1), SessionId(2)]);
        assert_eq!(r.num_sessions(), 2);
        assert_eq!(
            r.txns().iter().map(|t| &t.ops).collect::<Vec<_>>(),
            [&h.txn(TxnId(1)).ops, &h.txn(TxnId(2)).ops, &h.txn(TxnId(3)).ops]
        );
        assert_eq!(r.txn(TxnId(1)).index_in_session, 1);
        assert!(!r.txn(TxnId(1)).committed());
        assert_eq!(r.txn(TxnId(2)).session, SessionId(1));
        assert_eq!(r.so_edges().collect::<Vec<_>>(), [(TxnId(0), TxnId(1))]);
        assert_eq!(h.restrict(&[]), History::new());
    }

    #[test]
    fn aborted_status_tracked() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(5)).abort();
        let h = b.build();
        assert!(!h.txn(TxnId(0)).committed());
    }
}
