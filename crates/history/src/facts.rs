//! Derived facts of a history: transaction effects, the `WR` relation, and
//! the non-cyclic axioms (`Int`, aborted reads, intermediate reads,
//! UniqueValue).
//!
//! Terminology follows Section 2.2 of the paper: `T ⊢ W(x, v)` when `v` is
//! the *last* value `T` writes to `x`, and `T ⊢ R(x, v)` when `v` is the
//! value returned by the first read of `x` that precedes any write of `T`
//! to `x` (an *external* read).
//!
//! # How the analysis runs
//!
//! There is one builder, [`StreamFacts`](crate::StreamFacts), and
//! [`Facts::analyze`] is "push every transaction in id order, then
//! finish". A push walks the transaction once in program order (the
//! [`TxnEffects`] scratch): `Int` and `WroteInitValue` are decided on the
//! spot, its final writes join `writes[t]` and the per-key writer lists,
//! a duplicate of a committed `(key, value)` is reported, and each
//! external read is resolved against the committed final writes seen so
//! far, or waits in its reader's list for a writer still to come (which
//! heals it in place). Appending a fact probes hash maps only.
//!
//! What is still unresolved at the end — aborted, intermediate,
//! unknown-value and future reads — is classified only when a list is
//! asked for: one walk over the transactions in session-major order finds
//! the aborted and intermediate writers of the waiting `(key, value)`
//! pairs, the last one in that order winning. A history whose reads all
//! resolve pays nothing for it.
//!
//! # Ordering guarantees
//!
//! Nothing below depends on the iteration order of a hash map, so two runs
//! on the same history produce equal `Facts`, whatever the hash seed:
//!
//! * `reads[t]` is in program order, `writes[t]` in key order;
//! * every per-key and per-`(key, writer)` list ascends by transaction id;
//!   the per-key maps are hashed, and their readers take the keys in
//!   ascending order ([`Facts::by_key`], [`Facts::written_keys`]);
//! * `violations` lists, transaction by transaction, first the `Int` /
//!   `WroteInitValue` violations in program order, then the transaction's
//!   `DuplicateWrite`s in **key order**; after all of those come the
//!   unresolvable reads, reader by reader, in program order.

use crate::fasthash::FastMap;
use crate::history::{History, Transaction};
use crate::ids::{Key, TxnId, Value};
use crate::op::Op;
use crate::stream::StreamFacts;
use std::fmt;

/// Where an external read's value came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WrSource {
    /// The initial value ([`Value::INIT`]): the key had not been written.
    Init,
    /// The committed transaction whose final write produced the value.
    Txn(TxnId),
}

/// A violation of a non-cyclic axiom, detected before graph analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AxiomViolation {
    /// Internal consistency: a read inside `txn` returned `got` although the
    /// latest preceding operation of `txn` on `key` produced `expected`.
    Int { txn: TxnId, key: Key, expected: Value, got: Value },
    /// A committed transaction read a value written by an aborted one.
    AbortedRead { reader: TxnId, writer: TxnId, key: Key, value: Value },
    /// A transaction read a value the writer itself later overwrote.
    IntermediateRead { reader: TxnId, writer: TxnId, key: Key, value: Value },
    /// Two committed transactions installed the same value on the same key,
    /// breaking the UniqueValue assumption the analysis relies on.
    DuplicateWrite { key: Key, value: Value, first: TxnId, second: TxnId },
    /// A read returned a value no transaction wrote (and not the initial
    /// value); in a black-box test this indicates data corruption.
    UnknownValueRead { txn: TxnId, key: Key, value: Value },
    /// A read returned a value that its own transaction writes only later:
    /// no snapshot taken at the transaction's start holds it.
    FutureRead { txn: TxnId, key: Key, value: Value },
    /// A transaction wrote the reserved initial value.
    WroteInitValue { txn: TxnId, key: Key },
    /// A committed write below the compaction watermark: `txn` re-wrote a
    /// `(key, value)` pair whose original writer was already compacted
    /// away (streaming only — batch analysis reports this shape as a
    /// [`AxiomViolation::DuplicateWrite`]). The key's fence record kept
    /// across compaction (a [`crate::KeyFence`], see
    /// `StreamFacts::fences`) preserves the UniqueValue evidence the
    /// writers themselves no longer carry.
    CompactedDuplicateWrite { txn: TxnId, key: Key, value: Value },
    /// List histories: no single append order explains what `first` and
    /// `second` read of `key` (Elle's incompatible orders) — their lists
    /// are not prefix-ordered, or, with `first == second`, one list repeats
    /// a value.
    IncompatibleOrders { key: Key, first: TxnId, second: TxnId },
    /// List histories: a read inside `txn` returned `got`, which is not
    /// its earlier read plus its appends since, or, for its first read of
    /// `key`, does not end with its appends so far (Elle's internal
    /// consistency; the list-valued [`AxiomViolation::Int`]).
    ListInt { txn: TxnId, key: Key, got: Box<[Value]> },
}

impl fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomViolation::Int { txn, key, expected, got } => write!(
                f,
                "Int violation in {txn}: read of key {key} returned {got}, expected {expected}"
            ),
            AxiomViolation::AbortedRead { reader, writer, key, value } => write!(
                f,
                "aborted read: {reader} read value {value} of key {key} written by aborted {writer}"
            ),
            AxiomViolation::IntermediateRead { reader, writer, key, value } => write!(
                f,
                "intermediate read: {reader} read value {value} of key {key}, \
                 overwritten inside {writer}"
            ),
            AxiomViolation::DuplicateWrite { key, value, first, second } => write!(
                f,
                "UniqueValue broken: {first} and {second} both wrote value {value} to key {key}"
            ),
            AxiomViolation::UnknownValueRead { txn, key, value } => {
                write!(f, "unknown value: {txn} read value {value} of key {key} that nobody wrote")
            }
            AxiomViolation::FutureRead { txn, key, value } => write!(
                f,
                "future read: {txn} read value {value} of key {key}, which it writes only later"
            ),
            AxiomViolation::WroteInitValue { txn, key } => {
                write!(f, "{txn} wrote the reserved initial value to key {key}")
            }
            AxiomViolation::CompactedDuplicateWrite { txn, key, value } => {
                write!(
                    f,
                    "UniqueValue broken: {txn} re-wrote value {value} to key {key}, \
                     first written below the compaction watermark"
                )
            }
            AxiomViolation::IncompatibleOrders { key, first, second } if first == second => {
                write!(f, "incompatible orders: {first} read a list of key {key} repeating a value")
            }
            AxiomViolation::IncompatibleOrders { key, first, second } => write!(
                f,
                "incompatible orders: {first} and {second} read lists of key {key} \
                 that are not prefix-ordered"
            ),
            AxiomViolation::ListInt { txn, key, got } => write!(
                f,
                "Int violation in {txn}: read of key {key} returned {got:?}, not its own earlier \
                 reads and appends"
            ),
        }
    }
}

impl AxiomViolation {
    /// A stable machine-readable tag for this violation kind (used in JSON
    /// reports).
    pub fn kind(&self) -> &'static str {
        match self {
            AxiomViolation::Int { .. } => "int",
            AxiomViolation::AbortedRead { .. } => "aborted_read",
            AxiomViolation::IntermediateRead { .. } => "intermediate_read",
            AxiomViolation::DuplicateWrite { .. } => "duplicate_write",
            AxiomViolation::UnknownValueRead { .. } => "unknown_value_read",
            AxiomViolation::WroteInitValue { .. } => "wrote_init_value",
            AxiomViolation::CompactedDuplicateWrite { .. } => "compacted_duplicate_write",
            AxiomViolation::FutureRead { .. } => "future_read",
            AxiomViolation::IncompatibleOrders { .. } => "incompatible_orders",
            AxiomViolation::ListInt { .. } => "list_int",
        }
    }

    /// Where the violation stands in [`Facts::violations`]: its group (0
    /// for a transaction's own `Int` / `WroteInitValue` / duplicate writes,
    /// 1 for an unresolved or future read) and the transaction it is
    /// listed under.
    /// A stable sort by it merges the lists of key-disjoint parts of a
    /// history, in global ids, into the list of the whole.
    pub fn position(&self) -> (u8, TxnId) {
        match *self {
            AxiomViolation::Int { txn, .. }
            | AxiomViolation::WroteInitValue { txn, .. }
            | AxiomViolation::CompactedDuplicateWrite { txn, .. }
            | AxiomViolation::ListInt { txn, .. } => (0, txn),
            AxiomViolation::DuplicateWrite { second, .. } => (0, second),
            AxiomViolation::AbortedRead { reader, .. }
            | AxiomViolation::IntermediateRead { reader, .. }
            | AxiomViolation::IncompatibleOrders { second: reader, .. } => (1, reader),
            AxiomViolation::UnknownValueRead { txn, .. }
            | AxiomViolation::FutureRead { txn, .. } => (1, txn),
        }
    }

    /// The violation with every transaction id translated by `f`.
    pub fn map_txns(self, f: impl Fn(TxnId) -> TxnId) -> AxiomViolation {
        match self {
            AxiomViolation::Int { txn, key, expected, got } => {
                AxiomViolation::Int { txn: f(txn), key, expected, got }
            }
            AxiomViolation::AbortedRead { reader, writer, key, value } => {
                AxiomViolation::AbortedRead { reader: f(reader), writer: f(writer), key, value }
            }
            AxiomViolation::IntermediateRead { reader, writer, key, value } => {
                AxiomViolation::IntermediateRead {
                    reader: f(reader),
                    writer: f(writer),
                    key,
                    value,
                }
            }
            AxiomViolation::DuplicateWrite { key, value, first, second } => {
                AxiomViolation::DuplicateWrite { key, value, first: f(first), second: f(second) }
            }
            AxiomViolation::UnknownValueRead { txn, key, value } => {
                AxiomViolation::UnknownValueRead { txn: f(txn), key, value }
            }
            AxiomViolation::WroteInitValue { txn, key } => {
                AxiomViolation::WroteInitValue { txn: f(txn), key }
            }
            AxiomViolation::CompactedDuplicateWrite { txn, key, value } => {
                AxiomViolation::CompactedDuplicateWrite { txn: f(txn), key, value }
            }
            AxiomViolation::FutureRead { txn, key, value } => {
                AxiomViolation::FutureRead { txn: f(txn), key, value }
            }
            AxiomViolation::IncompatibleOrders { key, first, second } => {
                AxiomViolation::IncompatibleOrders { key, first: f(first), second: f(second) }
            }
            AxiomViolation::ListInt { txn, key, got } => {
                AxiomViolation::ListInt { txn: f(txn), key, got }
            }
        }
    }
}

/// An external read: `(key, value, source)`.
pub type ReadFact = (Key, Value, WrSource);

/// Derived facts of a history. Indexes are dense over `TxnId`; entries for
/// aborted transactions are empty (the formal analysis is over committed
/// transactions only — Definition 4).
pub struct Facts {
    /// Per-transaction external reads with their resolved sources, in
    /// program order.
    pub reads: Vec<Vec<ReadFact>>,
    /// Per-transaction final writes `(key, value)`, in key order.
    pub writes: Vec<Vec<(Key, Value)>>,
    /// Committed writers per key (`WriteTx_x`), in transaction-id order.
    /// Look keys up, or take them from [`Facts::by_key`]; the map's
    /// iteration order means nothing.
    pub writers: FastMap<Key, Vec<TxnId>>,
    /// Readers of each committed final write: `(key, writer) → readers`, in
    /// transaction-id order. Look entries up ([`Facts::readers_of`]); the
    /// map's iteration order means nothing.
    pub readers: FastMap<(Key, TxnId), Vec<TxnId>>,
    /// Readers that observed the initial value, per key, in transaction-id
    /// order. Look keys up, or take them from [`Facts::by_key`].
    pub init_readers: FastMap<Key, Vec<TxnId>>,
    /// All detected axiom violations: first, transaction by transaction,
    /// its `Int` / `WroteInitValue` violations in program order and then its
    /// `DuplicateWrite`s in key order; after those, reader by reader, the
    /// reads that resolve to no committed final write, in program order.
    pub violations: Vec<AxiomViolation>,
}

/// One touched key of the transaction a [`TxnEffects`] last walked.
struct Touched {
    key: Key,
    /// The latest value read from or written to the key.
    last: Value,
    /// The latest value written to the key, if any was.
    written: Option<Value>,
    /// Index of the first operation on the key.
    first_op: u32,
}

/// The effects of one transaction — the program-order walk of
/// `StreamFacts::push`, and of its classification of unresolved reads. One
/// value is reused across transactions, so a walk allocates nothing once
/// its vectors have grown to the largest transaction seen.
#[derive(Default)]
pub(crate) struct TxnEffects {
    /// Touched keys, in first-touch order.
    touched: Vec<Touched>,
    /// `key → touched index`, kept only while the transaction has touched
    /// more than [`TxnEffects::LINEAR_MAX`] keys.
    slots: FastMap<Key, u32>,
    /// External reads `(key, value, operation index)`, in program order.
    pub(crate) ext_reads: Vec<(Key, Value, u32)>,
    /// Final writes `(key, value, index of the first operation on the
    /// key)`, in key order.
    pub(crate) final_writes: Vec<(Key, Value, u32)>,
    /// Values the transaction wrote and then overwrote itself, in program
    /// order.
    pub(crate) overwritten: Vec<(Key, Value)>,
}

impl TxnEffects {
    /// Up to this many touched keys are found by scanning `touched`;
    /// transactions touch a handful of keys, and a scan of that many
    /// beats hashing. Beyond it `slots` takes over.
    const LINEAR_MAX: usize = 32;

    fn slot(&self, key: Key) -> Option<usize> {
        if self.touched.len() <= Self::LINEAR_MAX {
            self.touched.iter().position(|t| t.key == key)
        } else {
            self.slots.get(&key).map(|&i| i as usize)
        }
    }

    fn touch(&mut self, t: Touched) {
        let at = self.touched.len();
        if at > Self::LINEAR_MAX {
            self.slots.insert(t.key, at as u32);
        }
        self.touched.push(t);
        if at == Self::LINEAR_MAX {
            self.slots.extend(self.touched.iter().enumerate().map(|(i, t)| (t.key, i as u32)));
        }
    }

    /// Walk `txn` in program order: fill `ext_reads`, `final_writes` and
    /// `overwritten`, and — for a committed transaction — append its `Int`
    /// and `WroteInitValue` violations to `violations`, in program order.
    pub(crate) fn walk(
        &mut self,
        id: TxnId,
        txn: &Transaction,
        violations: &mut Vec<AxiomViolation>,
    ) {
        self.touched.clear();
        self.slots.clear();
        self.ext_reads.clear();
        self.final_writes.clear();
        self.overwritten.clear();
        let committed = txn.committed();
        for (i, op) in txn.ops.iter().enumerate() {
            let slot = self.slot(op.key());
            match *op {
                Op::Read { key, value } => match slot {
                    Some(s) => {
                        let prev = std::mem::replace(&mut self.touched[s].last, value);
                        if prev != value && committed {
                            violations.push(AxiomViolation::Int {
                                txn: id,
                                key,
                                expected: prev,
                                got: value,
                            });
                        }
                    }
                    None => {
                        self.ext_reads.push((key, value, i as u32));
                        self.touch(Touched { key, last: value, written: None, first_op: i as u32 });
                    }
                },
                Op::Write { key, value } => {
                    if value.is_init() && committed {
                        violations.push(AxiomViolation::WroteInitValue { txn: id, key });
                    }
                    match slot {
                        Some(s) => {
                            let t = &mut self.touched[s];
                            t.last = value;
                            if let Some(prev) = t.written.replace(value) {
                                self.overwritten.push((key, prev));
                            }
                        }
                        None => self.touch(Touched {
                            key,
                            last: value,
                            written: Some(value),
                            first_op: i as u32,
                        }),
                    }
                }
            }
        }
        self.final_writes.extend(
            self.touched.iter().filter_map(|t| t.written.map(|value| (t.key, value, t.first_op))),
        );
        self.final_writes.sort_unstable_by_key(|&(key, _, _)| key);
    }
}

impl Facts {
    /// Analyze a history: compute effects, resolve `WR`, and check the
    /// non-cyclic axioms. The stream's builder takes every transaction in
    /// id order and finishes (see the module docs).
    pub fn analyze(h: &History) -> Facts {
        let mut builder = StreamFacts::with_capacity(h.len());
        for (id, txn) in h.iter() {
            builder.push(id, txn);
        }
        builder.finish(h.iter())
    }

    /// The lists of a per-key map (`writers`, `init_readers`), keys
    /// ascending.
    pub fn by_key(map: &FastMap<Key, Vec<TxnId>>) -> Vec<(Key, &[TxnId])> {
        let mut lists: Vec<(Key, &[TxnId])> =
            map.iter().map(|(&key, list)| (key, list.as_slice())).collect();
        lists.sort_unstable_by_key(|&(key, _)| key);
        lists
    }

    /// The keys with a committed writer, ascending.
    pub fn written_keys(&self) -> impl Iterator<Item = Key> + '_ {
        Self::by_key(&self.writers).into_iter().map(|(key, _)| key)
    }

    /// Whether all non-cyclic axioms hold (i.e. graph analysis is meaningful
    /// and the checker may still accept the history).
    pub fn axioms_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Iterate over `WR` edges `(writer, reader, key)` between *distinct*
    /// committed transactions.
    pub fn wr_edges(&self) -> impl Iterator<Item = (TxnId, TxnId, Key)> + '_ {
        self.reads.iter().enumerate().flat_map(|(idx, rs)| {
            let reader = TxnId(idx as u32);
            rs.iter().filter_map(move |&(key, _, src)| match src {
                WrSource::Txn(w) if w != reader => Some((w, reader, key)),
                _ => None,
            })
        })
    }

    /// The transactions that read key `x` from writer `t` (`WR(x)(t)` in the
    /// paper's constraint-generation notation). Excludes `t` itself.
    pub fn readers_of(&self, key: Key, t: TxnId) -> &[TxnId] {
        self.readers.get(&(key, t)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether transaction `t` finally writes key `x` (`T ∈ WriteTx_x`).
    pub fn writes_key(&self, t: TxnId, key: Key) -> bool {
        self.writes[t.idx()].binary_search_by_key(&key, |&(k, _)| k).is_ok()
    }

    /// Total number of `WR` edges.
    pub fn num_wr_edges(&self) -> usize {
        self.wr_edges().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    #[test]
    fn wr_resolution_basic() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(10)).commit();
        b.session();
        b.begin().read(k(1), v(10)).commit();
        let f = Facts::analyze(&b.build());
        assert!(f.axioms_ok());
        let wr: Vec<_> = f.wr_edges().collect();
        assert_eq!(wr, vec![(TxnId(0), TxnId(1), k(1))]);
        assert_eq!(f.readers_of(k(1), TxnId(0)), &[TxnId(1)]);
    }

    #[test]
    fn init_reads_resolved() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(9), Value::INIT).commit();
        let f = Facts::analyze(&b.build());
        assert!(f.axioms_ok());
        assert_eq!(f.init_readers[&k(9)], vec![TxnId(0)]);
        assert_eq!(f.num_wr_edges(), 0);
    }

    #[test]
    fn int_violation_read_after_write() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).read(k(1), v(7)).commit();
        b.session();
        b.begin().write(k(1), v(7)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(
            f.violations[0],
            AxiomViolation::Int { txn: TxnId(0), expected: Value(5), got: Value(7), .. }
        ));
    }

    #[test]
    fn int_violation_two_reads_disagree() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        b.begin().write(k(1), v(6)).commit();
        b.session();
        b.begin().read(k(1), v(5)).read(k(1), v(6)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(f.violations[0], AxiomViolation::Int { txn: TxnId(2), .. }));
    }

    #[test]
    fn repeatable_internal_read_ok() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        b.session();
        b.begin().read(k(1), v(5)).read(k(1), v(5)).write(k(1), v(6)).read(k(1), v(6)).commit();
        let f = Facts::analyze(&b.build());
        assert!(f.axioms_ok(), "violations: {:?}", f.violations);
        // only the first read is external
        assert_eq!(f.reads[1].len(), 1);
    }

    #[test]
    fn aborted_read_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).abort();
        b.session();
        b.begin().read(k(1), v(5)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(
            f.violations[0],
            AxiomViolation::AbortedRead { reader: TxnId(1), writer: TxnId(0), .. }
        ));
    }

    #[test]
    fn intermediate_read_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).write(k(1), v(6)).commit();
        b.session();
        b.begin().read(k(1), v(5)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(
            f.violations[0],
            AxiomViolation::IntermediateRead { reader: TxnId(1), writer: TxnId(0), .. }
        ));
    }

    #[test]
    fn duplicate_write_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(f.violations[0], AxiomViolation::DuplicateWrite { .. }));
    }

    /// A transaction re-writing several taken `(key, value)` pairs reports
    /// them in key order, after its program-order violations — the same
    /// list on every run (the old walk iterated a `RandomState` map here).
    #[test]
    fn duplicate_writes_of_one_transaction_come_in_key_order() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).write(k(2), v(6)).write(k(3), v(7)).write(k(4), v(8)).commit();
        b.session();
        b.begin()
            .write(k(3), v(7))
            .write(k(9), Value::INIT)
            .write(k(1), v(5))
            .write(k(4), v(8))
            .write(k(2), v(6))
            .commit();
        let h = b.build();
        let dup = |key, value| AxiomViolation::DuplicateWrite {
            key: k(key),
            value: v(value),
            first: TxnId(0),
            second: TxnId(1),
        };
        let expected = vec![
            AxiomViolation::WroteInitValue { txn: TxnId(1), key: k(9) },
            dup(1, 5),
            dup(2, 6),
            dup(3, 7),
            dup(4, 8),
        ];
        for _ in 0..32 {
            assert_eq!(Facts::analyze(&h).violations, expected);
        }
    }

    /// Past `TxnEffects::LINEAR_MAX` touched keys the walk switches from
    /// scanning to its map; effects must not change at the switch.
    #[test]
    fn wide_transactions_take_the_map_fallback() {
        let width = 3 * TxnEffects::LINEAR_MAX as u64;
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin();
        for i in 0..width {
            b.write(k(i), v(100 + i));
        }
        b.commit();
        b.session();
        b.begin();
        for i in (0..width).rev() {
            b.read(k(i), v(100 + i)); // external
        }
        for i in 0..width {
            b.read(k(i), v(100 + i)).write(k(i), v(500 + i)).write(k(i), v(900 + i));
        }
        b.read(k(width - 1), v(1)).commit(); // Int: expected 900 + width - 1
        let f = Facts::analyze(&b.build());
        assert_eq!(
            f.violations,
            vec![AxiomViolation::Int {
                txn: TxnId(1),
                key: k(width - 1),
                expected: v(900 + width - 1),
                got: v(1),
            }]
        );
        assert_eq!(f.reads[1].len(), width as usize);
        assert_eq!(f.reads[1][0], (k(width - 1), v(100 + width - 1), WrSource::Txn(TxnId(0))));
        let finals: Vec<_> = (0..width).map(|i| (k(i), v(900 + i))).collect();
        assert_eq!(f.writes[1], finals);
        assert_eq!(f.writers[&k(40)], vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn unknown_value_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), v(42)).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(f.violations[0], AxiomViolation::UnknownValueRead { .. }));
    }

    /// A transaction that reads the value it writes only later read from
    /// no snapshot: the read leaves the facts as a violation.
    #[test]
    fn future_read_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(1)).commit();
        let f = Facts::analyze(&b.build());
        assert_eq!(
            f.violations,
            [AxiomViolation::FutureRead { txn: TxnId(0), key: k(1), value: v(1) }]
        );
        assert!(f.reads[0].is_empty());
        assert_eq!(f.violations[0].position(), (1, TxnId(0)));
    }

    /// The list-valued `ListInt` is boxed so that no variant outgrows `Int`.
    #[test]
    fn a_violation_is_32_bytes() {
        assert_eq!(std::mem::size_of::<AxiomViolation>(), 32);
    }

    #[test]
    fn wrote_init_value_detected() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), Value::INIT).commit();
        let f = Facts::analyze(&b.build());
        assert!(matches!(f.violations[0], AxiomViolation::WroteInitValue { .. }));
    }

    #[test]
    fn aborted_txn_effects_excluded_from_graph_facts() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).abort();
        b.begin().write(k(1), v(6)).commit();
        let f = Facts::analyze(&b.build());
        assert!(f.axioms_ok());
        assert_eq!(f.writers[&k(1)], vec![TxnId(1)]);
        assert!(f.writes[0].is_empty());
    }

    #[test]
    fn read_modify_write_effects() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        let f = Facts::analyze(&b.build());
        assert!(f.axioms_ok());
        assert_eq!(f.reads[1], vec![(k(1), v(1), WrSource::Txn(TxnId(0)))]);
        assert_eq!(f.writes[1], vec![(k(1), v(2))]);
        assert!(f.writes_key(TxnId(1), k(1)));
        assert!(!f.writes_key(TxnId(1), k(2)));
    }

    /// The list ascends by `position`: a transaction's own violations, all
    /// of them, before any unresolved read, whatever the transaction ids.
    #[test]
    fn violations_ascend_by_position() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(5)).abort();
        b.session();
        b.begin().read(k(1), v(5)).commit();
        b.begin().write(k(2), v(6)).read(k(2), v(7)).commit();
        let violations = Facts::analyze(&b.build()).violations;
        assert_eq!(
            violations.iter().map(AxiomViolation::position).collect::<Vec<_>>(),
            [(0, TxnId(2)), (1, TxnId(1))]
        );
        let shifted = violations[1].clone().map_txns(|t| TxnId(t.0 + 10));
        assert_eq!(
            shifted,
            AxiomViolation::AbortedRead {
                reader: TxnId(11),
                writer: TxnId(10),
                key: k(1),
                value: v(5)
            }
        );
    }

    #[test]
    fn violation_display_is_readable() {
        let msg = AxiomViolation::DuplicateWrite {
            key: k(1),
            value: v(5),
            first: TxnId(0),
            second: TxnId(1),
        }
        .to_string();
        assert!(msg.contains("UniqueValue"));
    }
}
