//! Generalized constraints (Definition 9) and their plain, uncompacted
//! counterparts (Definition 8 extended with write-order totality), held in
//! one flat store: a single edge arena plus one offset record per
//! constraint.

use crate::edge::{Edge, Label};
use crate::polygraph::ConstraintMode;
use polysi_history::{Facts, Key, TxnId};
use std::fmt;

/// A borrowed view of one constraint `⟨either, or⟩`: exactly one of the two
/// edge sets is present in any compatible graph (Definition 12).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ConstraintRef<'a> {
    /// The key whose version order the constraint arbitrates.
    pub key: Key,
    /// Edges present if the first possibility holds.
    pub either: &'a [Edge],
    /// Edges present if the second possibility holds.
    pub or: &'a [Edge],
}

impl<'a> ConstraintRef<'a> {
    /// Number of uncertain dependency edges this constraint carries.
    pub fn num_edges(&self) -> usize {
        self.either.len() + self.or.len()
    }

    /// Every edge of the constraint, `either` side first.
    pub fn edges(&self) -> impl Iterator<Item = &'a Edge> {
        self.either.iter().chain(self.or)
    }

    /// Whether any endpoint of the constraint's edges lies in the
    /// `touched` transaction set — the worklist retest criterion of
    /// `Polygraph::prune`.
    pub fn incident(&self, touched: &[bool]) -> bool {
        self.edges().any(|e| touched[e.from.idx()] || touched[e.to.idx()])
    }
}

impl fmt::Debug for ConstraintRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨either {:?}, or {:?}⟩", self.either, self.or)
    }
}

/// Where one constraint's edges sit in the arena: `either` is
/// `edges[start..mid]`, `or` is `edges[mid..end]`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Record {
    key: Key,
    start: u32,
    mid: u32,
    end: u32,
}

/// Convert an arena length to a record offset. Offsets are `u32` to keep a
/// record at 24 bytes; a store past 2³² edges (≈100 GiB of arena) is far
/// outside what the checker can hold, so overflow is a loud failure rather
/// than a silent wrap.
fn offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("constraint arena overflow: {len} edges exceed the u32 offset range")
    })
}

/// The edges saying `w` precedes `other` in `key`'s version order: the `WW`
/// edge, then every reader of `w` preceding `other` too.
fn ordered_side(
    key: Key,
    w: TxnId,
    other: TxnId,
    readers_w: &[TxnId],
) -> impl Iterator<Item = Edge> + '_ {
    let rw = readers_w.iter().filter(move |&&r| r != other);
    std::iter::once(Edge::new(w, other, Label::Ww(key)))
        .chain(rw.map(move |&r| Edge::new(r, other, Label::Rw(key))))
}

/// An ordered set of constraints in one flat store.
///
/// Every constraint's edges live back to back in one arena (`either` side
/// first), in constraint order and with no gaps, so the store is two heap
/// blocks however many constraints it holds, `num_edges` is the arena
/// length, and equal contents mean equal stores. [`ConstraintSet::retain`]
/// keeps that true by compacting the arena as it drops records.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    edges: Vec<Edge>,
    records: Vec<Record>,
}

impl ConstraintSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The constraints between every two writers of each of `keys`, in key
    /// then writer-pair order (procedure `GenerateConstraints` of
    /// Algorithm 2): one generalized constraint per pair, or its plain
    /// expansion under [`ConstraintMode::Plain`].
    ///
    /// A counting pre-pass looks each `(key, writer)` reader list up once
    /// and sizes the arena exactly, so construction allocates a fixed
    /// number of blocks regardless of how many constraints come out.
    pub fn from_facts(
        facts: &Facts,
        keys: impl Iterator<Item = Key>,
        mode: ConstraintMode,
    ) -> Self {
        let mut per_key: Vec<(Key, &[TxnId])> = Vec::new();
        let mut readers: Vec<&[TxnId]> = Vec::new();
        let (mut constraints, mut edges) = (0usize, 0usize);
        for key in keys {
            let Some(writers) = facts.writers.get(&key) else { continue };
            per_key.push((key, writers));
            let from = readers.len();
            readers.extend(writers.iter().map(|&w| facts.readers_of(key, w)));
            let m = writers.len();
            let pairs = m * m.saturating_sub(1) / 2;
            // Each reader meets every other writer of the key once, except
            // itself when it writes the key too (no `RW` self-edge).
            // Writer lists ascend; were one not to, the search would only
            // miss and leave the capacity generous.
            let mine = readers[from..].iter().flat_map(|list| list.iter());
            let (all, writing) = mine.fold((0usize, 0usize), |(all, writing), r| {
                (all + 1, writing + writers.binary_search(r).is_ok() as usize)
            });
            let reader_edges = m.saturating_sub(1) * all - writing;
            match mode {
                ConstraintMode::Generalized => {
                    constraints += pairs;
                    edges += 2 * pairs + reader_edges;
                }
                ConstraintMode::Plain => {
                    constraints += pairs + reader_edges;
                    edges += 2 * (pairs + reader_edges);
                }
            }
        }
        let mut set = ConstraintSet {
            edges: Vec::with_capacity(edges),
            records: Vec::with_capacity(constraints),
        };
        let mut readers = readers.as_slice();
        for (key, writers) in per_key {
            let (mine, rest) = readers.split_at(writers.len());
            readers = rest;
            for (i, &t) in writers.iter().enumerate() {
                for (j, &s) in writers.iter().enumerate().skip(i + 1) {
                    match mode {
                        ConstraintMode::Generalized => {
                            set.push_generalized(key, t, s, mine[i], mine[j]);
                        }
                        ConstraintMode::Plain => set.push_plain(key, t, s, mine[i], mine[j]),
                    }
                }
            }
        }
        set
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set holds no constraint.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total uncertain dependency edges across all constraints.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Every edge of every constraint, in constraint order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The `i`-th constraint. Panics if out of range.
    pub fn get(&self, i: usize) -> ConstraintRef<'_> {
        self.view(self.records[i])
    }

    fn view(&self, r: Record) -> ConstraintRef<'_> {
        ConstraintRef {
            key: r.key,
            either: &self.edges[r.start as usize..r.mid as usize],
            or: &self.edges[r.mid as usize..r.end as usize],
        }
    }

    /// The constraints, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, records: self.records.iter() }
    }

    /// Append a constraint with explicit sides.
    pub fn push(
        &mut self,
        key: Key,
        either: impl IntoIterator<Item = Edge>,
        or: impl IntoIterator<Item = Edge>,
    ) {
        let start = offset(self.edges.len());
        self.edges.extend(either);
        let mid = offset(self.edges.len());
        self.edges.extend(or);
        let end = offset(self.edges.len());
        self.records.push(Record { key, start, mid, end });
    }

    /// Append the generalized constraint between writers `t` and `s` on
    /// `key` (Definition 9): `either` orders `t` before `s` (plus the
    /// implied anti-dependencies from `t`'s readers), `or` the reverse.
    ///
    /// `readers_t` / `readers_s` are the transactions reading `key` from
    /// `t` / `s`.
    pub fn push_generalized(
        &mut self,
        key: Key,
        t: TxnId,
        s: TxnId,
        readers_t: &[TxnId],
        readers_s: &[TxnId],
    ) {
        self.push(key, ordered_side(key, t, s, readers_t), ordered_side(key, s, t, readers_s));
    }

    /// Append the *plain* (uncompacted) constraints for the same writer
    /// pair: one binary constraint per reader, as in classic polygraphs
    /// (Definition 8), plus one totality constraint fixing the `WW`
    /// direction. Semantically equivalent to
    /// [`ConstraintSet::push_generalized`] but with more constraints — the
    /// paper's "PolySI w/o C" differential variant (Section 5.4.3).
    ///
    /// Note Definition 8 alone fixes no version order between unread writes;
    /// the totality constraint keeps the encoding complete for SI, where
    /// `WW` edges participate in the induced graph.
    pub fn push_plain(
        &mut self,
        key: Key,
        t: TxnId,
        s: TxnId,
        readers_t: &[TxnId],
        readers_s: &[TxnId],
    ) {
        let (ts, st) = (Edge::new(t, s, Label::Ww(key)), Edge::new(s, t, Label::Ww(key)));
        self.push(key, [ts], [st]);
        // Reader r of t: either t→s (then r must precede s) or s→t.
        for &r in readers_t.iter().filter(|&&r| r != s) {
            self.push(key, [Edge::new(r, s, Label::Rw(key))], [st]);
        }
        for &r in readers_s.iter().filter(|&&r| r != t) {
            self.push(key, [Edge::new(r, t, Label::Rw(key))], [ts]);
        }
    }

    /// Append every constraint of `other`, in order.
    pub fn extend(&mut self, other: ConstraintSet) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = offset(self.edges.len());
        self.edges.extend_from_slice(&other.edges);
        // The largest shifted offset is the new arena length.
        offset(self.edges.len());
        self.records.extend(other.records.iter().map(|r| Record {
            key: r.key,
            start: base + r.start,
            mid: base + r.mid,
            end: base + r.end,
        }));
    }

    /// Keep only the constraints for which `keep(index, constraint)` holds,
    /// preserving their order. One forward pass moves the survivors'
    /// records and edges down over the dropped ones, so the arena stays
    /// gap-free and no per-constraint memory is freed; a store left mostly
    /// empty hands its blocks back.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, ConstraintRef<'_>) -> bool) {
        // Survivors slide down by the edges dropped before them.
        let (mut kept, mut shift) = (0usize, 0u32);
        for i in 0..self.records.len() {
            let r = self.records[i];
            if !keep(i, self.view(r)) {
                shift += r.end - r.start;
                continue;
            }
            if shift > 0 {
                self.edges
                    .copy_within(r.start as usize..r.end as usize, (r.start - shift) as usize);
            }
            self.records[kept] = Record {
                key: r.key,
                start: r.start - shift,
                mid: r.mid - shift,
                end: r.end - shift,
            };
            kept += 1;
        }
        self.records.truncate(kept);
        self.edges.truncate(self.edges.len() - shift as usize);
        if self.edges.len() < self.edges.capacity() / 4 {
            self.edges.shrink_to_fit();
            self.records.shrink_to_fit();
        }
    }

    /// Rewrite both endpoints of every edge through `map`, in place — the
    /// global→component-local translation and the compaction renumbering.
    pub fn remap(&mut self, mut map: impl FnMut(TxnId) -> TxnId) {
        for e in &mut self.edges {
            e.from = map(e.from);
            e.to = map(e.to);
        }
    }
}

/// Iterator over the constraints of a [`ConstraintSet`], in order.
pub struct Iter<'a> {
    set: &'a ConstraintSet,
    records: std::slice::Iter<'a, Record>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = ConstraintRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.records.next().map(|&r| self.set.view(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = ConstraintRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ww(f: u32, t: u32, key: u64) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Ww(Key(key)))
    }
    fn rw(f: u32, t: u32, key: u64) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Rw(Key(key)))
    }

    #[test]
    fn generalized_includes_reader_antideps() {
        // Writers T0, T1 on key 5; T2 and T3 read from T0.
        let mut cs = ConstraintSet::new();
        cs.push_generalized(Key(5), TxnId(0), TxnId(1), &[TxnId(2), TxnId(3)], &[]);
        let c = cs.get(0);
        assert_eq!(c.key, Key(5));
        assert_eq!(c.either, [ww(0, 1, 5), rw(2, 1, 5), rw(3, 1, 5)]);
        assert_eq!(c.or, [ww(1, 0, 5)]);
        assert_eq!(c.num_edges(), 4);
        assert_eq!((cs.len(), cs.num_edges()), (1, 4));
    }

    #[test]
    fn reader_equal_to_other_writer_skipped() {
        // T1 reads key from T0 and also writes it: no RW self-edge T1→T1.
        let mut cs = ConstraintSet::new();
        cs.push_generalized(Key(5), TxnId(0), TxnId(1), &[TxnId(1)], &[]);
        assert_eq!(cs.get(0).either.len(), 1);
    }

    #[test]
    fn plain_expands_per_reader() {
        let mut cs = ConstraintSet::new();
        cs.push_plain(Key(5), TxnId(0), TxnId(1), &[TxnId(2), TxnId(3)], &[]);
        // 1 totality + 2 reader constraints.
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.get(0).num_edges(), 2);
        assert!(cs.iter().skip(1).all(|c| c.either == [rw(c.either[0].from.0, 1, 5)]));
        assert!(cs.iter().all(|c| c.or == [ww(1, 0, 5)]));
    }

    /// The counting pre-pass is exact — including the `RW` self-edges a
    /// read-modify-write chain skips — so construction never regrows.
    #[test]
    fn from_facts_sizes_the_arena_exactly() {
        use polysi_history::{HistoryBuilder, Value};
        let mut b = HistoryBuilder::new();
        b.session();
        for i in 0..6u64 {
            let seen = if i == 0 { Value::INIT } else { Value(i) };
            b.begin().read(Key(1), seen).write(Key(1), Value(i + 1)).commit();
        }
        b.session();
        b.begin().read(Key(1), Value(3)).write(Key(2), Value(1)).commit();
        let facts = Facts::analyze(&b.build());
        for mode in [ConstraintMode::Generalized, ConstraintMode::Plain] {
            let set = ConstraintSet::from_facts(&facts, facts.writers.keys().copied(), mode);
            assert!(set.len() >= 15, "{mode:?}: {} constraints", set.len());
            assert_eq!(set.edges.capacity(), set.edges.len(), "{mode:?}");
            assert_eq!(set.records.capacity(), set.records.len(), "{mode:?}");
        }
    }

    #[test]
    fn retain_compacts_in_order() {
        let mut cs = ConstraintSet::new();
        for i in 0..6u32 {
            cs.push(Key(i as u64), (0..=i).map(|j| ww(i, j, 0)), [ww(9, i, 0)]);
        }
        let before: Vec<_> = cs.iter().map(|c| (c.key, c.either.to_vec(), c.or.to_vec())).collect();
        cs.retain(|i, c| {
            assert_eq!(c.key, Key(i as u64), "retain sees the pre-compaction views");
            i % 2 == 1
        });
        let after: Vec<_> = cs.iter().map(|c| (c.key, c.either.to_vec(), c.or.to_vec())).collect();
        assert_eq!(after, [before[1].clone(), before[3].clone(), before[5].clone()]);
        assert_eq!(cs.num_edges(), after.iter().map(|(_, e, o)| e.len() + o.len()).sum::<usize>());
        // Equal contents are equal stores, whatever the history.
        let mut fresh = ConstraintSet::new();
        for (key, either, or) in after {
            fresh.push(key, either, or);
        }
        assert_eq!(cs, fresh);
    }

    #[test]
    fn extend_and_remap() {
        let mut a = ConstraintSet::new();
        a.push(Key(1), [ww(0, 1, 1)], [ww(1, 0, 1)]);
        let mut b = ConstraintSet::new();
        b.push(Key(2), [ww(2, 3, 2), rw(4, 3, 2)], [ww(3, 2, 2)]);
        a.extend(b);
        a.remap(|t| TxnId(t.0 + 10));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0).either, [ww(10, 11, 1)]);
        assert_eq!(a.get(1).either, [ww(12, 13, 2), rw(14, 13, 2)]);
        assert_eq!(a.get(1).or, [ww(13, 12, 2)]);
        assert_eq!(a.edges().len(), 5);
    }

    #[test]
    fn incident_reads_both_sides() {
        let mut cs = ConstraintSet::new();
        cs.push(Key(1), [ww(0, 1, 1)], [ww(1, 0, 1), rw(2, 0, 1)]);
        let mut touched = vec![false; 3];
        assert!(!cs.get(0).incident(&touched));
        touched[2] = true;
        assert!(cs.get(0).incident(&touched));
    }

    #[test]
    fn offsets_are_checked() {
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "constraint arena overflow")]
    fn offset_overflow_panics() {
        offset(u32::MAX as usize + 1);
    }

    #[test]
    fn debug_is_readable() {
        let mut cs = ConstraintSet::new();
        cs.push_generalized(Key(1), TxnId(0), TxnId(1), &[], &[]);
        let s = format!("{cs:?}");
        assert!(s.contains("either") && s.contains("or"));
    }
}
