//! Generalized constraints (Definition 9) and their plain, uncompacted
//! counterparts (Definition 8 extended with write-order totality), held in
//! one flat store: a single edge arena plus one offset record per
//! constraint.

use crate::edge::{Edge, Label};
use crate::polygraph::ConstraintMode;
use polysi_history::{Facts, Key, TxnId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

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

/// The constraints between every two writers of each key of one unit,
/// before any is stored (procedure `GenerateConstraints` of Algorithm 2):
/// per key, its writers and their readers in unit-local ids. Each writer is
/// a *row*. A whole unit's generator yields, row by row, each writer's
/// pairs with the later writers of its key, in key, then writer-pair order;
/// a delta's ([`ConstraintGen::delta`]) yields only the pairs its *runs*
/// name. Either goes to one of two consumers: [`ConstraintGen::store`]
/// keeps every constraint, and the first pass of
/// [`crate::Polygraph::prune_generated`] (a delta's:
/// [`crate::Polygraph::prune_resume`]) stores only the undecided ones.
#[derive(Clone, Debug, Default)]
pub struct ConstraintGen {
    mode: ConstraintMode,
    /// Each key and its first row, in key order, then the row count.
    keys: Vec<(Key, u32)>,
    /// The writer of each row.
    writers: Vec<TxnId>,
    /// Row `r`'s readers are `readers[reader_at[r]..reader_at[r + 1]]`.
    reader_at: Vec<u32>,
    readers: Vec<TxnId>,
    /// A delta's pairs, in yield order; `None` for a whole unit, whose
    /// rows pair with their later rows.
    runs: Option<Vec<Run>>,
    constraints: usize,
    edges: usize,
}

/// A delta's unit of generation: the constraints between row `s` and each
/// of the earlier rows `ts` of its key, `ts` in row order, each oriented
/// with its `ts` writer first.
#[derive(Clone, Debug)]
struct Run {
    key: Key,
    s: u32,
    ts: (u32, u32),
}

impl ConstraintGen {
    /// The constraints of `keys` under `mode`, every transaction id
    /// translated by `local`, which must keep ids in order (as a
    /// component's dense renumbering does). Their counts are exact.
    pub fn new(
        facts: &Facts,
        keys: impl Iterator<Item = Key>,
        mode: ConstraintMode,
        local: impl Fn(TxnId) -> TxnId,
    ) -> Self {
        let mut gen = ConstraintGen { mode, reader_at: vec![0], ..Default::default() };
        for key in keys {
            let Some(writers) = facts.writers.get(&key).filter(|ws| ws.len() > 1) else { continue };
            gen.keys.push((key, offset(gen.writers.len())));
            gen.push_rows(facts, key, writers, &local);
            // Each reader meets every other writer of the key once, except
            // itself when it writes the key too (no `RW` self-edge).
            let (mut all, mut writing) = (0usize, 0usize);
            for &w in writers {
                let readers = facts.readers_of(key, w);
                all += readers.len();
                writing += readers.iter().filter(|r| writers.binary_search(r).is_ok()).count();
            }
            let m = writers.len();
            let (pairs, reader_edges) = (m * (m - 1) / 2, (m - 1) * all - writing);
            let (constraints, edges) = match mode {
                ConstraintMode::Generalized => (pairs, 2 * pairs + reader_edges),
                ConstraintMode::Plain => (pairs + reader_edges, 2 * (pairs + reader_edges)),
            };
            gen.constraints += constraints;
            gen.edges += edges;
        }
        gen.keys.push((Key(0), offset(gen.writers.len())));
        gen
    }

    /// The generalized constraints a stream delta adds, ids translated by
    /// `local` as in [`ConstraintGen::new`], over the current reader sets:
    /// first one run per final write in `writes` (a new writer against
    /// every earlier writer of its key, in `writes` order), then one per
    /// pair `(key, t, s)` of `regen` (earlier writer `t`), in the given
    /// order. Rows are built for the keys the runs name. Its counts are
    /// exact.
    pub fn delta(
        facts: &Facts,
        writes: impl IntoIterator<Item = (Key, TxnId)>,
        regen: &[(Key, TxnId, TxnId)],
        local: impl Fn(TxnId) -> TxnId,
    ) -> Self {
        let mut gen = ConstraintGen { reader_at: vec![0], ..Default::default() };
        let (mut runs, mut first_rows) = (Vec::new(), BTreeMap::new());
        let pairs = regen.iter().map(|&(key, t, s)| (key, Some(t), s));
        for (key, t, s) in writes.into_iter().map(|(key, s)| (key, None, s)).chain(pairs) {
            let writers = &facts.writers[&key];
            let position = |w: TxnId| writers.binary_search(&w).expect("a writer of the key");
            // A new writer pairs with every earlier one; a regenerated
            // pair is one of them.
            let si = position(s);
            let ts = t.map_or(0..si, |t| position(t)..position(t) + 1);
            if ts.is_empty() {
                continue;
            }
            let first = *first_rows.entry(key).or_insert_with(|| {
                gen.push_rows(facts, key, writers, &local);
                gen.writers.len() - writers.len()
            });
            let (s, ts) = (first + si, first + ts.start..first + ts.end);
            let (ws, readers_s) = (&gen.writers[ts.clone()], gen.readers(s));
            let readers_t: usize = ts
                .clone()
                .map(|t| gen.readers(t).iter().filter(|&&r| r != gen.writers[s]).count())
                .sum();
            let writing = readers_s.iter().filter(|r| ws.binary_search(r).is_ok()).count();
            let edges = 2 * ts.len() + readers_t + ts.len() * readers_s.len() - writing;
            gen.constraints += ts.len();
            gen.edges += edges;
            runs.push(Run { key, s: offset(s), ts: (offset(ts.start), offset(ts.end)) });
        }
        gen.runs = Some(runs);
        gen
    }

    /// Append a row per writer of `key`, with its readers.
    fn push_rows(
        &mut self,
        facts: &Facts,
        key: Key,
        writers: &[TxnId],
        local: &impl Fn(TxnId) -> TxnId,
    ) {
        for &w in writers {
            self.writers.push(local(w));
            self.readers.extend(facts.readers_of(key, w).iter().map(|&r| local(r)));
            self.reader_at.push(offset(self.readers.len()));
        }
    }

    /// The constraints it yields and their uncertain edges, in total.
    pub fn counts(&self) -> (usize, usize) {
        (self.constraints, self.edges)
    }

    /// Mark every endpoint of the edges it yields: each yielding row's
    /// writer and readers.
    pub fn mark_endpoints(&self, marks: &mut [bool]) {
        let mut mark = |row: usize| {
            marks[self.writers[row].idx()] = true;
            self.readers(row).iter().for_each(|r| marks[r.idx()] = true);
        };
        match &self.runs {
            // Every key of a whole unit has two writers or more.
            None => (0..self.writers.len()).for_each(mark),
            Some(runs) => {
                for run in runs {
                    mark(run.s as usize);
                    (run.ts.0 as usize..run.ts.1 as usize).for_each(&mut mark);
                }
            }
        }
    }

    /// Every constraint, stored: the store-all consumer, for callers whose
    /// constraints no first prune pass filters (`pruning: false`, the
    /// baselines, tests). The counts size the store exactly, so it takes a
    /// fixed number of allocations however many constraints come out.
    pub fn store(&self) -> ConstraintSet {
        let mut set = ConstraintSet {
            edges: Vec::with_capacity(self.edges),
            records: Vec::with_capacity(self.constraints),
        };
        self.visit(0..self.len(), &mut set, &mut |_| Some(true));
        set
    }

    /// Its units of generation: rows, or a delta's runs.
    fn len(&self) -> usize {
        self.runs.as_ref().map_or(self.writers.len(), Vec::len)
    }

    fn readers(&self, row: usize) -> &[TxnId] {
        &self.readers[self.reader_at[row] as usize..self.reader_at[row + 1] as usize]
    }

    /// Generate the constraints of rows `t` before `s` of `key` into the
    /// scratch store `pair` and feed them to `test`, as
    /// [`Source::visit`] does.
    fn visit_pair(
        &self,
        key: Key,
        (t, s): (usize, usize),
        pair: &mut ConstraintSet,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        pair.edges.clear();
        pair.records.clear();
        let (wt, ws, rt, rs) = (self.writers[t], self.writers[s], self.readers(t), self.readers(s));
        match self.mode {
            ConstraintMode::Generalized => pair.push_generalized(key, wt, ws, rt, rs),
            ConstraintMode::Plain => pair.push_plain(key, wt, ws, rt, rs),
        }
        pair.visit(0..pair.len(), open, test)
    }
}

/// What the first prune pass reads: a generator, or constraints already
/// stored. A *unit* (a generator's row or run, a stored constraint) is
/// what its chunks split at.
pub(crate) trait Source: Sync {
    /// Consecutive unit ranges covering every unit, each yielding about
    /// `target` constraints.
    fn chunks(&self, target: usize) -> Vec<Range<usize>>;

    /// Feed the constraints of `units` to `test` in order, appending those
    /// it answers `Some(true)` to `open`; `false` if it stopped at a
    /// `None`.
    fn visit(
        &self,
        units: Range<usize>,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool;
}

impl Source for ConstraintGen {
    fn chunks(&self, target: usize) -> Vec<Range<usize>> {
        // What each unit of generation yields (approximate under `Plain`:
        // chunking only balances work).
        let yields: Box<dyn Iterator<Item = usize> + '_> = match &self.runs {
            None => Box::new(self.keys.windows(2).flat_map(|key| {
                let (first, end) = (key[0].1 as usize, key[1].1 as usize);
                (first..end).map(move |row| end - row - 1)
            })),
            Some(runs) => Box::new(runs.iter().map(|run| (run.ts.1 - run.ts.0) as usize)),
        };
        let (mut out, mut start, mut yielded) = (Vec::new(), 0, 0usize);
        for (unit, n) in yields.enumerate() {
            yielded += n;
            if yielded >= target {
                out.push(start..unit + 1);
                (start, yielded) = (unit + 1, 0);
            }
        }
        if start < self.len() {
            out.push(start..self.len());
        }
        out
    }

    fn visit(
        &self,
        units: Range<usize>,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        // One writer pair's constraints at a time: a decided constraint is
        // never stored.
        let mut pair = ConstraintSet::new();
        if let Some(runs) = &self.runs {
            for run in &runs[units] {
                for t in run.ts.0 as usize..run.ts.1 as usize {
                    if !self.visit_pair(run.key, (t, run.s as usize), &mut pair, open, test) {
                        return false;
                    }
                }
            }
            return true;
        }
        let mut k = self.keys.partition_point(|&(_, first)| first as usize <= units.start);
        for row in units {
            while self.keys[k].1 as usize <= row {
                k += 1;
            }
            let (key, end) = (self.keys[k - 1].0, self.keys[k].1 as usize);
            for s in row + 1..end {
                if !self.visit_pair(key, (row, s), &mut pair, open, test) {
                    return false;
                }
            }
        }
        true
    }
}

impl Source for ConstraintSet {
    fn chunks(&self, target: usize) -> Vec<Range<usize>> {
        let len = self.len();
        (0..len).step_by(target).map(|start| start..start.saturating_add(target).min(len)).collect()
    }

    fn visit(
        &self,
        units: Range<usize>,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        for c in units.map(|i| self.get(i)) {
            match test(c) {
                Some(true) => open.push(c.key, c.either.iter().copied(), c.or.iter().copied()),
                Some(false) => {}
                None => return false,
            }
        }
        true
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
            let set =
                ConstraintGen::new(&facts, facts.writers.keys().copied(), mode, |t| t).store();
            assert!(set.len() >= 15, "{mode:?}: {} constraints", set.len());
            assert_eq!(set.edges.capacity(), set.edges.len(), "{mode:?}");
            assert_eq!(set.records.capacity(), set.records.len(), "{mode:?}");
        }
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
