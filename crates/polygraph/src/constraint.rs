//! Generalized constraints (Definition 9) and their plain, uncompacted
//! counterparts (Definition 8 extended with write-order totality), held in
//! one flat store: a single edge arena plus one offset record per
//! constraint.

use crate::edge::{Edge, Label};
use crate::graph::KnownGraph;
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

/// The constraints between the writers of each key of one unit, before any
/// is stored (procedure `GenerateConstraints` of Algorithm 2): per key, its
/// writers and their readers in unit-local ids. Each writer is a *row*. A
/// whole unit's generator pairs every two writers of a key: row by row,
/// each writer with the later writers of its key, in key, then writer-pair
/// order; a delta's ([`ConstraintGen::delta`]) yields only the pairs its
/// *runs* name. [`ConstraintGen::store`] keeps every constraint. The first
/// pass of [`crate::Polygraph::prune_generated`] (a delta's:
/// [`crate::Polygraph::prune_resume`]) narrows the pairs to those its
/// oracle leaves to decide ([`ConstraintGen::covers`]) and stores only the
/// undecided ones.
#[derive(Clone, Debug, Default)]
pub struct ConstraintGen {
    mode: ConstraintMode,
    /// Each key and its first row, in row order, then the row count.
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
/// of the earlier rows `ts` of key `keys[key]`, `ts` in row order, each
/// oriented with its `ts` writer first.
#[derive(Clone, Debug)]
struct Run {
    key: u32,
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
        let (mut runs, mut key_at) = (Vec::new(), BTreeMap::new());
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
            let k = *key_at.entry(key).or_insert_with(|| {
                gen.keys.push((key, offset(gen.writers.len())));
                gen.push_rows(facts, key, writers, &local);
                gen.keys.len() - 1
            });
            let first = gen.keys[k].1 as usize;
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
            runs.push(Run { key: offset(k), s: offset(s), ts: (offset(ts.start), offset(ts.end)) });
        }
        gen.keys.push((Key(0), offset(gen.writers.len())));
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
        store(self, self.counts())
    }

    fn readers(&self, row: usize) -> &[TxnId] {
        &self.readers[self.reader_at[row] as usize..self.reader_at[row + 1] as usize]
    }

    /// Its units of generation, in yield order, as (key index, anchor row,
    /// the rows the anchor pairs with): a whole unit's rows, each with its
    /// key's later rows, or a delta's runs, each new writer `s` with its
    /// rows `ts`.
    fn units(&self) -> Box<dyn Iterator<Item = (usize, usize, Range<usize>)> + '_> {
        match &self.runs {
            None => Box::new(self.keys.windows(2).enumerate().flat_map(|(k, key)| {
                let end = key[1].1 as usize;
                (key[0].1 as usize..end).map(move |row| (k, row, row + 1..end))
            })),
            Some(runs) => Box::new(runs.iter().map(|run| {
                (run.key as usize, run.s as usize, run.ts.0 as usize..run.ts.1 as usize)
            })),
        }
    }

    /// The pairs narrowed to those the fixed oracle `kg` leaves to decide:
    /// a writer pair of a key is generated if `kg` orders neither writer
    /// before the other (*incomparable*), or if it is a *cover*, `wᵢ ⇝ wⱼ`
    /// with no third writer `wₘ` of the key between them (`wᵢ ⇝ wₘ ⇝ wⱼ`).
    /// An omitted pair is ordered, so a first prune pass would force its
    /// side `wᵢ` first, and that side follows from the sides its cover
    /// chain `wᵢ = c₀ ⇝ c₁ ⇝ … ⇝ c_L = wⱼ` forces (each edge of a forced
    /// side ends up inserted or implied):
    ///
    /// * `WW wᵢ→wⱼ`: the forced `WW c_{L-1}→wⱼ` leaves a `Dep` predecessor
    ///   `p` of `wⱼ` that is `c_{L-1}` or reached from it, and
    ///   `wᵢ ⇝ c_{L-1}`, so both layered images are implied;
    /// * `RW r→wⱼ` for a reader `r ≠ c₁` of `wᵢ`: the forced `RW r→c₁`
    ///   and `c₁ ⇝ wⱼ` give `M(r) ⇝ B(wⱼ)`;
    /// * `RW c₁→wⱼ` when `c₁` reads the key from `wᵢ` (and writes it):
    ///   not implied, and not needed. A cycle through its image
    ///   `M(c₁) → B(wⱼ)` enters `M(c₁)` from some `B(x)` by a `Dep` edge
    ///   `x → c₁`, whose other image `B(x) → B(c₁)` and `c₁ ⇝ wⱼ` close
    ///   the same cycle without it; so no verdict, no pruning decision and
    ///   no `B`-to-`B` reachability depends on it. Under SER the edge is
    ///   `c₁ → wⱼ` and `c₁ ⇝ wⱼ` implies it.
    ///
    /// An omitted pair both of whose sides are impossible makes its chain's
    /// first pair `(wᵢ, c₁)` contradictory too: an `RW r→wⱼ` that closes a
    /// cycle makes `RW r→c₁` close one through `c₁ ⇝ wⱼ`. And every endpoint
    /// of an omitted pair's forced side is one of a generated pair's, so
    /// the pass marks the transactions it would have. The survivors and
    /// the verdict are therefore those of every pair.
    ///
    /// A delta's covers are taken among every writer of the key, old and
    /// new, and a run keeps the pairs of its new writer `s` with the
    /// earlier rows that are incomparable to `s` or its covers, above or
    /// below it (a regenerated pair is open, so incomparable, and stays).
    /// The argument needs only the forced sides of a chain's first and
    /// last pairs, and in a delta each of them is
    ///
    /// * generated now, if it holds a new writer: the later of its two
    ///   writers by id names it (two new writers of one delta pair in the
    ///   later one's run, and a new writer ordered before old ones pairs
    ///   with its covers above as with those below);
    /// * stored: each run marks every earlier writer of its key, so the
    ///   resumed first pass sweeps it and, as it is ordered, forces it;
    /// * or settled at an earlier checkpoint, decided there or omitted by
    ///   this same argument: its side is implied or redundant, and stays
    ///   so as the oracle grows, and readers that arrived since gain
    ///   their `RW` edge to every writer their writer reaches as a known
    ///   edge (the stream's follow-on edges).
    ///
    /// A settled first pair is in the acyclic oracle, so it is not
    /// contradictory, and neither is the omitted pair. Only the marking
    /// argument fails: a settled pair marks nothing, so later passes may
    /// retest less and leave more to the solver, whose verdict is the
    /// same.
    ///
    /// The search needs no session data, so it serves SI and SER and both
    /// modes alike. Per key, the rows (ascending ids) split into maximal
    /// runs in which each row reaches the next; of a run, the rows reaching
    /// a writer form a prefix and the rows it reaches a suffix, so two
    /// binary searches per run give a writer its incomparable rows and one
    /// candidate cover on each side, and the candidates another candidate
    /// dominates are dropped, visiting them in `kg`'s topological order.
    pub fn covers(&self, kg: &KnownGraph) -> Covers<'_> {
        let reaches = |a: usize, b: usize| kg.reaches(self.writers[a], self.writers[b]);
        let ord = |row: usize| kg.layered_order()[self.writers[row].idx()];
        // Per key of three rows or more, its runs' bounds:
        // `bounds[bounds_at[k]..bounds_at[k + 1]]`. Two writers are always
        // kept: incomparable or a cover.
        let mut bounds = Vec::with_capacity(self.writers.len() + self.keys.len());
        let mut bounds_at = Vec::with_capacity(self.keys.len());
        bounds_at.push(0);
        for key in self.keys.windows(2) {
            let (first, end) = (key[0].1 as usize, key[1].1 as usize);
            if end - first > 2 {
                bounds.push(first);
                bounds.extend((first + 1..end).filter(|&r| !reaches(r - 1, r)));
                bounds.push(end);
            }
            bounds_at.push(bounds.len());
        }
        let units = self.runs.as_ref().map_or(self.writers.len(), Vec::len);
        let mut covers = Covers {
            gen: self,
            at: Vec::with_capacity(units + 1),
            partners: Vec::new(),
            constraints: 0,
            edges: 0,
            omitted: 0,
        };
        // Scratch for the largest key: the candidates below and above a
        // row, and the undominated ones.
        let most = self.keys.windows(2).map(|w| (w[1].1 - w[0].1) as usize).max().unwrap_or(0);
        let [mut below, mut above, mut kept] = [(); 3].map(|_| Vec::with_capacity(most));
        covers.at.push(0);
        for (k, row, want) in self.units() {
            let start = covers.partners.len();
            covers.omitted += want.len();
            let runs = &bounds[bounds_at[k]..bounds_at[k + 1]];
            if runs.is_empty() {
                covers.partners.extend(want.map(offset));
            } else {
                below.clear();
                above.clear();
                for run in runs.windows(2) {
                    let (s, e) = (run[0], run[1]);
                    let (p, q) = if (s..e).contains(&row) {
                        (row, row + 1)
                    } else {
                        let p = prefix_end(s..e, |x| reaches(x, row));
                        (p, prefix_end(p..e, |x| !reaches(row, x)))
                    };
                    below.extend((p > s).then(|| p - 1));
                    above.extend((q < e).then_some(q));
                    covers.partners.extend((p.max(want.start)..q.min(want.end)).map(offset));
                }
                // The nearest candidates first: a candidate is dominated
                // iff it lies beyond one that is not.
                below.sort_unstable_by_key(|&c| std::cmp::Reverse(ord(c)));
                above.sort_unstable_by_key(|&c| ord(c));
                for (cands, up) in [(&below, true), (&above, false)] {
                    kept.clear();
                    for &c in cands.iter() {
                        let beyond = |&m: &usize| if up { reaches(c, m) } else { reaches(m, c) };
                        if !kept.iter().any(beyond) {
                            kept.push(c);
                        }
                    }
                    covers
                        .partners
                        .extend(kept.iter().filter(|c| want.contains(c)).map(|&c| offset(c)));
                }
                covers.partners[start..].sort_unstable();
            }
            for &p in &covers.partners[start..] {
                let (constraints, edges) = self.pair_counts(row, p as usize);
                covers.constraints += constraints;
                covers.edges += edges;
            }
            covers.at.push(offset(covers.partners.len()));
        }
        covers.omitted -= covers.partners.len();
        covers
    }

    /// The constraints and edges of the pair of rows `t` and `s`.
    fn pair_counts(&self, t: usize, s: usize) -> (usize, usize) {
        let other = |row: usize, w: usize| {
            let readers = self.readers(row);
            readers.len() - readers.contains(&self.writers[w]) as usize
        };
        let readers = other(t, s) + other(s, t);
        match self.mode {
            ConstraintMode::Generalized => (1, 2 + readers),
            ConstraintMode::Plain => (1 + readers, 2 * (1 + readers)),
        }
    }

    /// Generate the constraints between the anchor row `anchor` of key
    /// `keys[k]` and row `other`, the earlier row first, into the scratch
    /// store `pair` and feed them to `test`, as [`Source::visit`] does.
    fn visit_pair(
        &self,
        (k, anchor, other): (usize, usize, usize),
        pair: &mut ConstraintSet,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        pair.edges.clear();
        pair.records.clear();
        let (t, s) = (anchor.min(other), anchor.max(other));
        let (wt, ws, rt, rs) = (self.writers[t], self.writers[s], self.readers(t), self.readers(s));
        let key = self.keys[k].0;
        match self.mode {
            ConstraintMode::Generalized => pair.push_generalized(key, wt, ws, rt, rs),
            ConstraintMode::Plain => pair.push_plain(key, wt, ws, rt, rs),
        }
        pair.visit(open, test)
    }
}

/// What the first prune pass reads: a generator, or constraints already
/// stored.
pub(crate) trait Source {
    /// Feed its constraints to `test` in order, appending those it answers
    /// `Some(true)` to `open`; `false` if it stopped at a `None`.
    fn visit(
        &self,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool;
}

impl Source for ConstraintGen {
    fn visit(
        &self,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        // One writer pair's constraints at a time: a decided constraint is
        // never stored.
        let mut pair = ConstraintSet::new();
        self.units().all(|(k, anchor, others)| {
            others
                .into_iter()
                .all(|other| self.visit_pair((k, anchor, other), &mut pair, open, test))
        })
    }
}

/// A generator narrowed to the pairs a fixed oracle leaves to decide
/// ([`ConstraintGen::covers`]), in the generator's order.
#[derive(Debug)]
pub struct Covers<'g> {
    gen: &'g ConstraintGen,
    /// The generator's `u`-th unit pairs its anchor row with rows
    /// `partners[at[u]..at[u + 1]]`, ascending.
    at: Vec<u32>,
    partners: Vec<u32>,
    constraints: usize,
    edges: usize,
    omitted: usize,
}

impl Covers<'_> {
    /// The constraints it yields and their uncertain edges, in total.
    pub fn counts(&self) -> (usize, usize) {
        (self.constraints, self.edges)
    }

    /// The writer pairs it yields.
    pub fn pairs(&self) -> usize {
        self.partners.len()
    }

    /// The writer pairs of the generator it omits: comparable, not covers.
    pub fn omitted(&self) -> usize {
        self.omitted
    }

    /// Every constraint it yields, stored.
    pub fn store(&self) -> ConstraintSet {
        store(self, self.counts())
    }
}

impl Source for Covers<'_> {
    fn visit(
        &self,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        let mut pair = ConstraintSet::new();
        self.gen.units().zip(self.at.windows(2)).all(|((k, anchor, _), at)| {
            self.partners[at[0] as usize..at[1] as usize].iter().all(|&other| {
                self.gen.visit_pair((k, anchor, other as usize), &mut pair, open, test)
            })
        })
    }
}

/// Every constraint of `source`, stored, sized by its exact `counts`.
fn store(source: &dyn Source, (constraints, edges): (usize, usize)) -> ConstraintSet {
    let mut set = ConstraintSet {
        edges: Vec::with_capacity(edges),
        records: Vec::with_capacity(constraints),
    };
    source.visit(&mut set, &mut |_| Some(true));
    set
}

/// The end of the prefix of `range` on which `holds` holds.
fn prefix_end(range: Range<usize>, holds: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl Source for ConstraintSet {
    fn visit(
        &self,
        open: &mut ConstraintSet,
        test: &mut dyn FnMut(ConstraintRef<'_>) -> Option<bool>,
    ) -> bool {
        for c in self.iter() {
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
            let set = ConstraintGen::new(&facts, facts.written_keys(), mode, |t| t).store();
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
