//! The *known* part of the induced SI graph (`KI` in Algorithm 1) and its
//! reachability.
//!
//! The induced SI graph composes edges by the rule
//! `(SO ∪ WR ∪ WW) ; RW?` (Definition 11). Materializing the composition
//! `Dep ; AntiDep` is quadratic in the worst case, so we use a *layered*
//! view instead: every transaction `i` becomes two nodes, a boundary node
//! `B(i)` and a mid node `M(i)`; a `Dep` edge `i → k` yields
//! `B(i) → B(k)` and `B(i) → M(k)`, and an `RW` edge `k → j` yields
//! `M(k) → B(j)`. Paths `B(a) ⇝ B(b)` in the layered graph are exactly the
//! paths of the induced SI graph, and layered cycles are exactly the
//! violating cycles (every `RW` edge is immediately preceded by a `Dep`
//! edge — i.e. no two adjacent `RW` edges).
//!
//! Serializability composes nothing, so under [`Semantics::Ser`] the graph
//! has one layer: transaction `i` is node `i` and every edge is direct.
//! Every per-node structure is sized by [`Semantics::layers`] — `2n` nodes
//! under SI, `n` under SER — as the solver's theory graph is.
//!
//! The layout is flat: the adjacency, its reverse and the chain store's
//! `Dep` predecessor lists are each one `Csr` — an offset per node and
//! one entry array, filled by a counting sort — and an adjacency entry is
//! 8 bytes, (target node, index into the graph's one edge list). A build
//! allocates a fixed number of blocks whatever the graph's size. What
//! [`KnownGraph::insert_edges`] adds goes to an arena of linked entries
//! behind each list, read after its built part (so every list stays in
//! edge order), and is folded in once it has grown to a quarter of the
//! built part; [`KnownGraph::grow`] widens the index in place, arena and
//! all.

use crate::bitset::{BitMatrix, ChainRows};
use crate::edge::{Edge, Label};
use crate::polygraph::Semantics;
use polysi_history::TxnId;

/// Which reachability representation a [`KnownGraph`] stores.
///
/// The dense oracle keeps one `n`-bit closure row per layered node, and
/// under SI an `n × n` bit `Dep` index besides: 3n²/8 bytes under SI and
/// n²/8 under SER (≈ 895 and 298 MiB at 50k transactions). That is exact
/// for any graph, but walls components around ~10⁴ transactions. The
/// chain oracle exploits the history's
/// session structure: session order is a *path cover*, so per-node
/// reachability collapses to one minimum-reachable-position `u32` per
/// chain (`O(n·sessions)`), with identical query answers, cycle
/// verdicts, witnesses, and propagation schedules.
///
/// Nobody sets this: [`KnownGraph::build`] decides from the graph (chains
/// iff n ≥ 1024 and a `4·chains`-byte chain row undercuts an `n/8`-byte
/// bit row), [`KnownGraph::grow`] decides again while the graph is still
/// dense, and [`KnownGraph::oracle_kind`] reports the choice. Both stay
/// because each loses badly on the other's ground: chains on the
/// session-poor 7 992-transaction lattice of the benchmark's `batch_solver`
/// cost 19× the time and 28× the memory (`trials/oracle_rule_34.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// The dense `BitMatrix` closure.
    Dense,
    /// The session-chain decomposition.
    Chains,
}

impl OracleKind {
    /// Stable lowercase name (span attributes, report keys).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Dense => "dense",
            OracleKind::Chains => "chains",
        }
    }
}

/// Chain placement of the boundary transactions: which chain each node
/// sits on and where. Nodes start *unplaced* ([`ChainIndex::NONE`]) —
/// equivalently, on a virtual singleton chain no row references — and
/// acquire a real chain column lazily, either by extending a session
/// chain (staging its `So` edge) or on first becoming reachable. Columns
/// are only ever added: the vertex space only grows in place, and a
/// smaller one is a fresh [`KnownGraph::build`].
struct ChainIndex {
    /// Chain id per transaction (`NONE` = unplaced).
    chain_of: Vec<u32>,
    /// Position within the chain (0 for unplaced nodes).
    pos: Vec<u32>,
    /// Tail transaction per allocated chain.
    tail: Vec<u32>,
}

impl ChainIndex {
    const NONE: u32 = u32::MAX;

    /// Columns a store over this cover ends up with: the multi-node chains
    /// plus one per node that is still unplaced.
    fn estimated_chains(&self) -> usize {
        self.tail.len() + self.chain_of.iter().filter(|&&c| c == Self::NONE).count()
    }

    /// Allocate a fresh chain column.
    fn alloc(&mut self, rows: &mut ChainRows) -> u32 {
        let c = rows.push_chain() as u32;
        debug_assert_eq!(c as usize, self.tail.len());
        self.tail.push(Self::NONE);
        c
    }

    /// The chain column of `v`, placing `v` on a fresh singleton chain
    /// if it is still unplaced (first reachability reference).
    fn ensure_chain(&mut self, v: usize, rows: &mut ChainRows) -> u32 {
        let c = self.chain_of[v];
        if c != Self::NONE {
            return c;
        }
        let c = self.alloc(rows);
        self.chain_of[v] = c;
        self.pos[v] = 0;
        self.tail[c as usize] = v as u32;
        c
    }
}

/// Greedy session-order path cover: link `So f → t` when `f` has no
/// chain successor and `t` no chain predecessor yet. Consecutive chain
/// positions are therefore always joined by a real graph edge, which is
/// what makes per-chain reachability *up-closed* — reaching position `p`
/// implies reaching every later position — so one minimum per chain is
/// an exact row. Nodes not on a multi-node chain stay unplaced.
fn chain_cover(n: usize, known: &[Edge]) -> ChainIndex {
    let mut succ = vec![u32::MAX; n];
    let mut has_pred = vec![false; n];
    let mut has_succ = vec![false; n];
    for e in known {
        if matches!(e.label, Label::So) {
            let (f, t) = (e.from.idx(), e.to.idx());
            if !has_succ[f] && !has_pred[t] {
                succ[f] = e.to.0;
                has_succ[f] = true;
                has_pred[t] = true;
            }
        }
    }
    let mut idx =
        ChainIndex { chain_of: vec![ChainIndex::NONE; n], pos: vec![0; n], tail: Vec::new() };
    for h in 0..n {
        if has_pred[h] || !has_succ[h] {
            continue;
        }
        let c = idx.tail.len() as u32;
        idx.tail.push(ChainIndex::NONE);
        let (mut v, mut p) = (h as u32, 0u32);
        loop {
            idx.chain_of[v as usize] = c;
            idx.pos[v as usize] = p;
            idx.tail[c as usize] = v;
            if succ[v as usize] == u32::MAX {
                break;
            }
            v = succ[v as usize];
            p += 1;
        }
    }
    idx
}

/// Closure + `Dep`-predecessor storage behind [`KnownGraph`]'s queries,
/// in one of the [`OracleKind`] representations. Queries agree bit for
/// bit at every point outside a flush: chain appends are deferred to the
/// flush that propagates the `So` edge, so implicit suffix reachability
/// never races ahead of the dense bits. Mutators report "changed"
/// conservatively — a chain minimum decrease always means a new dense
/// bit, but a new dense bit already implied by a chain suffix is *free*
/// for the chain store — so the chain flush wave visits a subset of the
/// rows the dense wave grows (`closure_updates` ≤ dense; that gap is the
/// algorithmic win) while converging to the same fixpoint.
enum ClosureStore {
    Dense {
        /// Closure rows over layered nodes (`layers·n` × n columns,
        /// boundary targets).
        closure: BitMatrix,
        /// `dep_in.row(j)` = transactions with a known `Dep` edge into `j`
        /// (n × n under SI; empty under SER, which never asks).
        dep_in: BitMatrix,
    },
    Chains {
        /// Min-reachable-position rows over layered nodes (`layers·n` ×
        /// chains).
        rows: ChainRows,
        /// Chain placement of the boundary transactions.
        idx: ChainIndex,
        /// Sorted `Dep` predecessors per transaction (the sparse
        /// `dep_in`; ascending, so witness selection matches the dense
        /// row iteration order bit for bit; no rows under SER).
        dep_preds: Csr<u32>,
    },
}

/// Per-node lists in compressed sparse row form: the one index behind
/// [`KnownGraph`]'s layered adjacency, its reverse and its chain store's
/// `Dep` predecessor lists, [`KnownGraph::find_cycle`] and [`DepGraph`].
/// Node `u`'s list is its *built* entries `out[first[u]..first[u + 1]]`,
/// then what [`Csr::push`] added since the last [`Csr::fold`], in push
/// order — so a list reads "build order, then insertion order" however
/// often it is folded. A build is one counting sort into two arrays, and
/// pushes go to one arena, whatever the node count.
struct Csr<T> {
    first: Vec<u32>,
    out: Vec<T>,
    /// Entries pushed since the last fold, in push order, each linked to
    /// the next and the previous one of its node's list.
    more: Vec<Pushed<T>>,
    /// Per node, the first and the last of its pushed entries ([`NONE`]
    /// when it has none); no rows (and no allocation) until the first push.
    ends: Vec<(u32, u32)>,
}

/// "No entry" in [`Csr`]'s links.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Pushed<T> {
    x: T,
    next: u32,
    prev: u32,
}

/// The pushed part of one node's list in a [`Csr`], along its links.
struct Links<'a, T> {
    more: &'a [Pushed<T>],
    at: u32,
}

impl<'a, T> Iterator for Links<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        let p = self.more.get(self.at as usize)?;
        self.at = p.next;
        Some(&p.x)
    }
}

impl<T: Copy + Default> Csr<T> {
    /// The lists of `nodes` nodes holding the `(node, entry)` pairs of
    /// `entries()` (walked twice), each list in the order given.
    fn build<I: Iterator<Item = (u32, T)>>(nodes: usize, entries: impl Fn() -> I) -> Self {
        let mut first = vec![0u32; nodes + 1];
        entries().for_each(|(u, _)| first[u as usize + 1] += 1);
        for u in 1..=nodes {
            first[u] += first[u - 1];
        }
        let mut out = vec![T::default(); first[nodes] as usize];
        // `first[u]` is node `u`'s fill cursor; filled, it holds the start
        // of node `u + 1`, so one rotation puts every start back in place.
        for (u, x) in entries() {
            out[first[u as usize] as usize] = x;
            first[u as usize] += 1;
        }
        first.rotate_right(1);
        first[0] = 0;
        Csr { first, out, more: Vec::new(), ends: Vec::new() }
    }

    fn nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Entries of all lists, built and pushed.
    fn len(&self) -> usize {
        self.out.len() + self.more.len()
    }

    /// Node `u`'s built entries.
    #[inline]
    fn row(&self, u: usize) -> &[T] {
        &self.out[self.first[u] as usize..self.first[u + 1] as usize]
    }

    /// Whether node `u` has entries pushed since the last fold.
    #[inline]
    fn has_pushed(&self, u: usize) -> bool {
        self.ends.get(u).is_some_and(|&(head, _)| head != NONE)
    }

    /// Node `u`'s list.
    #[inline]
    fn iter(&self, u: usize) -> std::iter::Chain<std::slice::Iter<'_, T>, Links<'_, T>> {
        self.row(u).iter().chain(self.pushed(u))
    }

    /// Node `u`'s entries pushed since the last fold; on a folded index,
    /// none, without a read of its list ends.
    #[inline]
    fn pushed(&self, u: usize) -> Links<'_, T> {
        let at = if self.more.is_empty() {
            NONE
        } else {
            self.ends.get(u).map_or(NONE, |&(head, _)| head)
        };
        Links { more: &self.more, at }
    }

    /// Whether some entry pushed to node `u` since the last fold is `hit`:
    /// on a folded index, a test of one length.
    #[inline]
    fn any_pushed(&self, u: usize, hit: impl FnMut(&T) -> bool) -> bool {
        self.pushed(u).any(hit)
    }

    /// Every entry of every list.
    fn all(&self) -> impl Iterator<Item = &T> {
        self.out.iter().chain(self.more.iter().map(|p| &p.x))
    }

    /// Append `x` to node `u`'s list.
    fn push(&mut self, u: usize, x: T) {
        if self.ends.is_empty() {
            self.ends = vec![(NONE, NONE); self.nodes()];
        }
        let at = self.more.len() as u32;
        let (head, tail) = self.ends[u];
        self.more.push(Pushed { x, next: NONE, prev: tail });
        match self.more.get_mut(tail as usize) {
            Some(last) => last.next = at,
            None => debug_assert_eq!(head, NONE),
        }
        self.ends[u] = (if head == NONE { at } else { head }, at);
    }

    /// Remove the entry pushed last overall, which is node `u`'s last.
    fn pop(&mut self, u: usize) -> Option<T> {
        let (head, tail) = *self.ends.get(u)?;
        debug_assert_eq!(tail as usize + 1, self.more.len(), "pops undo the latest push");
        let p = self.more.pop()?;
        match self.more.get_mut(p.prev as usize) {
            Some(prev) => prev.next = NONE,
            None => debug_assert_eq!(head, tail),
        }
        self.ends[u] = if p.prev == NONE { (NONE, NONE) } else { (head, p.prev) };
        Some(p.x)
    }

    /// Once the pushed entries number a quarter of the built ones, move
    /// them into the built arrays, each behind its node's built entries
    /// (lists keep their order), and `settle` each list that grew. A fold
    /// moves every entry, so waiting for the quarter keeps it at a few
    /// moves per push however often it is asked for.
    fn fold(&mut self, settle: impl Fn(&mut [T])) {
        if self.more.is_empty() || 4 * self.more.len() < self.out.len() {
            return;
        }
        let mut out = Vec::with_capacity(self.len());
        for u in 0..self.nodes() {
            let start = out.len();
            out.extend(self.iter(u));
            if self.has_pushed(u) {
                settle(&mut out[start..]);
            }
            self.first[u] = start as u32;
        }
        *self.first.last_mut().expect("a sentinel offset") = out.len() as u32;
        (self.out, self.more, self.ends) = (out, Vec::new(), Vec::new());
    }

    /// Insert `count` empty lists before node `at`.
    fn insert_rows(&mut self, at: usize, count: usize) {
        let start = self.first[at];
        self.first.reserve_exact(count);
        self.first.splice(at..at, std::iter::repeat_n(start, count));
        if !self.ends.is_empty() {
            self.ends.splice(at..at, std::iter::repeat_n((NONE, NONE), count));
        }
    }

    /// Apply `f` to every entry, built or pushed.
    fn remap(&mut self, f: impl Fn(&mut T)) {
        self.out.iter_mut().for_each(&f);
        self.more.iter_mut().for_each(|p| f(&mut p.x));
    }

    /// Bytes of the offsets, the entries and the pushed entries with their
    /// links.
    fn bytes(&self) -> usize {
        4 * self.first.len()
            + std::mem::size_of::<T>() * self.out.len()
            + std::mem::size_of::<Pushed<T>>() * self.more.len()
            + 8 * self.ends.len()
    }
}

impl Csr<u32> {
    /// The ascending, duplicate-free `Dep` predecessor lists of `deps`
    /// over `n` transactions: [`dep_rows`] lists, `to`'s holding each `from`.
    fn dep_lists<I: Iterator<Item = Edge>>(
        n: usize,
        semantics: Semantics,
        deps: impl Fn() -> I,
    ) -> Csr<u32> {
        let si = semantics == Semantics::Si;
        let mut lists = Csr::build(dep_rows(n, semantics), || {
            deps().filter(move |_| si).map(|e| (e.to.0, e.from.0))
        });
        let (mut kept, mut s) = (0, 0);
        for u in 0..lists.nodes() {
            let e = lists.first[u + 1] as usize;
            lists.out[s..e].sort_unstable();
            for i in s..e {
                if i == s || lists.out[i] != lists.out[i - 1] {
                    lists.out[kept] = lists.out[i];
                    kept += 1;
                }
            }
            lists.first[u + 1] = kept as u32;
            s = e;
        }
        lists.out.truncate(kept);
        lists
    }

    /// Whether node `u`'s list holds `x` (its built part is ascending).
    #[inline]
    fn contains(&self, u: usize, x: u32) -> bool {
        self.row(u).binary_search(&x).is_ok() || self.any_pushed(u, |&y| y == x)
    }

    /// Add `x` to node `u`'s list unless it is there; a fold that sorts
    /// keeps the list ascending.
    fn insert_new(&mut self, u: usize, x: u32) {
        if !self.contains(u, x) {
            self.push(u, x);
        }
    }
}

/// The representation rule: chains iff the component is big enough to
/// matter (n ≥ 1024) and `chains` columns keep a `u32` chain row cheaper
/// than an `n`-bit dense row (`4·chains ≤ n/8`).
fn chains_pay(n: usize, chains: usize) -> bool {
    n >= 1024 && chains * 32 <= n
}

/// Rows of the `Dep`-predecessor index over `n` transactions: one per
/// transaction under SI, none under SER, whose queries never read it.
fn dep_rows(n: usize, semantics: Semantics) -> usize {
    if semantics == Semantics::Si {
        n
    } else {
        0
    }
}

impl ClosureStore {
    /// Build a store with no closure rows yet and the `Dep` index of
    /// `known`: of the kind [`chains_pay`] picks for the session cover of
    /// `known`, unless `pinned` names one.
    fn new(
        n: usize,
        known: &[Edge],
        semantics: Semantics,
        pinned: Option<OracleKind>,
    ) -> ClosureStore {
        let idx = chain_cover(n, known);
        let by_rule = if chains_pay(n, idx.estimated_chains()) {
            OracleKind::Chains
        } else {
            OracleKind::Dense
        };
        let deps = || known.iter().copied().filter(|e| e.label.is_dep());
        match pinned.unwrap_or(by_rule) {
            OracleKind::Dense => {
                let mut dep_in = BitMatrix::new(dep_rows(n, semantics));
                if semantics == Semantics::Si {
                    deps().for_each(|e| dep_in.set(e.to.idx(), e.from.idx()));
                }
                ClosureStore::Dense { closure: BitMatrix::rect(0, 0), dep_in }
            }
            OracleKind::Chains => ClosureStore::chains(idx, Csr::dep_lists(n, semantics, deps)),
        }
    }

    /// A chain store over the transactions placed by `idx`, with no
    /// closure rows yet.
    fn chains(idx: ChainIndex, dep_preds: Csr<u32>) -> ClosureStore {
        ClosureStore::Chains { rows: ChainRows::rect(0, 0), idx, dep_preds }
    }

    fn kind(&self) -> OracleKind {
        match self {
            ClosureStore::Dense { .. } => OracleKind::Dense,
            ClosureStore::Chains { .. } => OracleKind::Chains,
        }
    }

    /// Allocate the closure rows of `nodes` layered nodes over `n`
    /// transactions (post-topo-sort).
    fn alloc_rows(&mut self, nodes: usize, n: usize) {
        match self {
            ClosureStore::Dense { closure, .. } => *closure = BitMatrix::rect(nodes, n),
            ClosureStore::Chains { rows, idx, .. } => {
                *rows = ChainRows::rect(nodes, idx.tail.len())
            }
        }
    }

    /// Whether layered node `src` reaches boundary transaction `dst`.
    #[inline]
    fn reach(&self, src: usize, dst: usize) -> bool {
        match self {
            ClosureStore::Dense { closure, .. } => closure.get(src, dst),
            ClosureStore::Chains { rows, idx, .. } => {
                let c = idx.chain_of[dst];
                c != ChainIndex::NONE && rows.get(src, c as usize) <= idx.pos[dst]
            }
        }
    }

    /// Record the direct edge target `dst` in `src`'s row; returns
    /// whether the row grew.
    #[inline]
    fn set_fresh(&mut self, src: usize, dst: usize) -> bool {
        match self {
            ClosureStore::Dense { closure, .. } => closure.set_fresh(src, dst),
            ClosureStore::Chains { rows, idx, .. } => {
                let c = idx.ensure_chain(dst, rows);
                rows.min_set(src, c as usize, idx.pos[dst])
            }
        }
    }

    /// Absorb `src`'s row into `dst`'s; returns whether `dst` grew.
    #[inline]
    fn merge_rows(&mut self, src: usize, dst: usize) -> bool {
        match self {
            ClosureStore::Dense { closure, .. } => closure.or_row_into(src, dst),
            ClosureStore::Chains { rows, .. } => rows.min_row_into(src, dst),
        }
    }

    /// Record a known `Dep` edge `from → to`.
    fn record_dep(&mut self, from: usize, to: usize) {
        match self {
            ClosureStore::Dense { dep_in, .. } => dep_in.set(to, from),
            ClosureStore::Chains { dep_preds, .. } => dep_preds.insert_new(to, from as u32),
        }
    }

    /// Whether `p` has a known `Dep` edge into `of`.
    #[inline]
    fn is_dep_pred(&self, of: usize, p: usize) -> bool {
        match self {
            ClosureStore::Dense { dep_in, .. } => dep_in.get(of, p),
            ClosureStore::Chains { dep_preds, .. } => dep_preds.contains(of, p as u32),
        }
    }

    /// Whether layered node `src` reaches some `Dep` predecessor of `of`.
    fn reaches_dep_pred(&self, src: usize, of: usize) -> bool {
        match self {
            ClosureStore::Dense { closure, dep_in } => closure.row_intersects(src, dep_in.row(of)),
            ClosureStore::Chains { rows, idx, dep_preds } => {
                let reached = |&p: &u32| {
                    let c = idx.chain_of[p as usize];
                    c != ChainIndex::NONE && rows.get(src, c as usize) <= idx.pos[p as usize]
                };
                dep_preds.row(of).iter().any(reached) || dep_preds.any_pushed(of, reached)
            }
        }
    }

    /// The `Dep` predecessors of `of`, ascending (witness selection
    /// order — identical in both representations).
    fn dep_pred_iter<'a>(&'a self, of: usize) -> Box<dyn Iterator<Item = usize> + 'a> {
        match self {
            ClosureStore::Dense { dep_in, .. } => Box::new(dep_in.iter_row(of)),
            ClosureStore::Chains { dep_preds, .. } if !dep_preds.has_pushed(of) => {
                Box::new(dep_preds.row(of).iter().map(|&p| p as usize))
            }
            ClosureStore::Chains { dep_preds, .. } => {
                let mut preds: Vec<usize> = dep_preds.iter(of).map(|&p| p as usize).collect();
                preds.sort_unstable();
                Box::new(preds.into_iter())
            }
        }
    }

    /// Fold the `Dep` lists' insertions into their built form, as
    /// [`Csr::fold`] does.
    fn fold(&mut self) {
        if let ClosureStore::Chains { dep_preds, .. } = self {
            dep_preds.fold(<[u32]>::sort_unstable);
        }
    }

    /// Extend a session chain: when flushing the `So` edge `f → t` and
    /// `t` is still unplaced — no closure row references it, so moving
    /// it is free — append `t` after `f` (placing `f` first if needed;
    /// an unplaced `f` is trivially its own tail). The flushed edge
    /// itself is the chain link that keeps per-chain reachability
    /// up-closed. Streamed transactions join their session's chain this
    /// way instead of accumulating singleton columns.
    fn try_chain_append(&mut self, f: usize, t: usize) {
        if let ClosureStore::Chains { rows, idx, .. } = self {
            if idx.chain_of[t] != ChainIndex::NONE {
                return;
            }
            let cf = match idx.chain_of[f] {
                ChainIndex::NONE => {
                    let c = idx.alloc(rows);
                    idx.chain_of[f] = c;
                    idx.pos[f] = 0;
                    idx.tail[c as usize] = f as u32;
                    c
                }
                c if idx.tail[c as usize] == f as u32 => c,
                _ => return,
            };
            idx.chain_of[t] = cf;
            idx.pos[t] = idx.pos[f] + 1;
            idx.tail[cf as usize] = t as u32;
        }
    }

    /// Bytes of the closure rows and the dense `Dep` bit index (memory
    /// accounting; the chain store's `Dep` lists count in
    /// [`Self::list_bytes`]).
    fn bytes(&self) -> usize {
        match self {
            ClosureStore::Dense { closure, dep_in } => closure.bytes() + dep_in.bytes(),
            ClosureStore::Chains { rows, .. } => rows.bytes(),
        }
    }

    /// Bytes of the chain store's `Dep` lists.
    fn list_bytes(&self) -> usize {
        match self {
            ClosureStore::Dense { .. } => 0,
            ClosureStore::Chains { dep_preds, .. } => dep_preds.bytes(),
        }
    }
}

/// Reachability oracle over the known induced SI graph.
///
/// The oracle is *incremental*: [`KnownGraph::insert_edges`] extends it with
/// newly known edges in time proportional to the affected region — the
/// layered topological order is maintained Pearce–Kelly style (the order the
/// solver's acyclicity theory starts from, [`KnownGraph::layered_order`])
/// and closure rows are updated by propagating the target's row into the
/// ancestors of the source over the reverse adjacency — instead of the
/// from-scratch Kahn sort + reverse-topological closure sweep of
/// [`KnownGraph::build`]. Constraint pruning leans on this: passes
/// after the first touch `O(affected)` closure rows rather than
/// `O(n·m/64)`.
///
/// Incremental insertion keeps the graph *reachability-reduced*: an edge
/// that real paths already imply ([`KnownGraph::implies`]) is absorbed
/// without entering the adjacency. The oracle owns the typed edges it
/// holds ([`KnownGraph::edges`]): a unit's known edges live here, and only
/// here, from the build on.
pub struct KnownGraph {
    n: usize,
    /// Edge-composition semantics the graph was built under.
    semantics: Semantics,
    /// The typed edges the graph holds: the build's, then each one
    /// [`KnownGraph::insert_edges`] materialised, in order.
    edges: Vec<Edge>,
    /// Layered adjacency: node `u`'s out-edges as (target node, index into
    /// `edges`), in edge order.
    adj: Images,
    /// Reverse layered adjacency (sources per node): the ancestor
    /// iteration order of incremental closure updates.
    radj: Csr<u32>,
    /// Closure rows + `Dep` predecessor index, in one of the
    /// [`OracleKind`] representations.
    store: ClosureStore,
    /// Whether the representation was picked by the rule (and so follows
    /// the graph as it grows) rather than pinned by a test.
    follows_growth: bool,
    /// Topological priority of each layered node (a permutation of
    /// `0..layers·n`), maintained dynamically across insertions: a build's
    /// Kahn order, then each [`KnownGraph::grow`]'s new transactions in
    /// arrival order, a transaction's layered nodes in adjacent slots.
    ord: Vec<u32>,
    /// Closure rows grown by incremental updates (performance counter).
    closure_updates: usize,
    /// Pearce–Kelly insertions that reordered (performance counter).
    reorders: usize,
    /// Typed edges materialised by [`KnownGraph::insert_edges`] (implied
    /// ones are absorbed and not counted).
    inserted_edges: usize,
    /// Layered edges already applied to the adjacency, order, and `dep_in`
    /// but whose closure propagation is deferred to the next
    /// [`KnownGraph::flush_closure`]. While non-empty the closure
    /// under-approximates reachability; cycle checks stay exact because
    /// Pearce–Kelly searches the adjacency, not the closure.
    pending: Vec<(u32, u32)>,
    /// Session-chain extensions (`So f → t`) staged alongside [`Self::pending`]
    /// and applied at the start of the next flush. Deferring the append
    /// keeps the chain store bit-equivalent to the dense closure at every
    /// stage-time query point: appending `t` to `f`'s chain makes every
    /// row that reaches `f` implicitly reach `t`, which is exactly what
    /// the flush's propagation wave for that edge establishes — never
    /// earlier.
    pending_chain: Vec<(u32, u32)>,
    // Pearce–Kelly DFS scratch (stamped to avoid clearing; see
    // `next_stamp`).
    stamp: u32,
    visited: Vec<u32>,
    /// Flush scratch: `grown[v] == stamp` marks rows grown this flush.
    grown: Vec<u32>,
    /// Pearce–Kelly scratch, kept so that a reorder allocates nothing:
    /// the DFS stack, the affected regions and their pooled priorities.
    stack: Vec<u32>,
    delta_f: Vec<u32>,
    delta_b: Vec<u32>,
    slots: Vec<u32>,
    /// Flush scratch: the propagation heap (empty between flushes).
    heap: std::collections::BinaryHeap<(u32, u32)>,
}

/// Result of building the known graph.
pub enum KnownGraphResult {
    /// The known induced graph is acyclic; queries may proceed.
    Acyclic(Box<KnownGraph>),
    /// The known edges alone contain a violating `cycle`, given as the
    /// typed edge sequence (no two adjacent `RW` edges); the build hands
    /// the `known` edges it was given back.
    Cyclic { cycle: Vec<Edge>, known: Vec<Edge> },
}

#[inline]
fn b(i: u32) -> u32 {
    i
}

/// When [`KnownGraph::insert_edges`] propagates what it stages into the
/// closure rows. The implied-edge test reads the closure as of the last
/// flush, so *which* edges are kept is a deterministic function of the edge
/// sequence and the flush points; cycle detection is exact either way
/// (Pearce–Kelly searches the staged adjacency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flush {
    /// Flush whenever this many layered edges are pending; what is still
    /// staged when the call returns waits for a later call or for
    /// [`KnownGraph::flush_closure`]. A row a whole batch feeds is
    /// recomputed once per flush, not per edge (the prune apply phase).
    Every(usize),
    /// Stage the whole batch, however large, and flush once before
    /// returning. Edges implied only *within* the batch are kept —
    /// harmless, they propagate nothing (a checkpoint delta).
    AtEnd,
}

/// The layered images of `e` over `n` transactions, as (source node,
/// target node). Under [`Semantics::Si`] a `Dep` edge `i → k` is
/// `B(i) → B(k)` then `B(i) → M(k)` and an `RW` edge leaves its source's
/// mid node; under [`Semantics::Ser`] there are no mid nodes and every
/// edge is boundary-to-boundary. The solver's theory graph is made of these.
pub fn layered_images(n: usize, e: Edge, semantics: Semantics) -> impl Iterator<Item = (u32, u32)> {
    let (f, t, n) = (e.from.0, e.to.0, n as u32);
    debug_assert_ne!(f, t, "self edges are malformed: {e:?}");
    let (si, dep) = (semantics == Semantics::Si, e.label.is_dep());
    let first = if si && !dep { (n + f, b(t)) } else { (b(f), b(t)) };
    std::iter::once(first).chain((si && dep).then_some((b(f), n + t)))
}

/// Layered images by source node, as (target node, index into an edge
/// list).
type Images = Csr<(u32, u32)>;

/// The layered images of `edges` over `n` transactions by source node:
/// node `u`'s are (target node, index into `edges`), in edge order.
fn layered(n: usize, edges: &[Edge], semantics: Semantics) -> Images {
    Csr::build(semantics.layers() * n, || {
        let indexed = (0u32..).zip(edges);
        indexed
            .flat_map(move |(i, &e)| layered_images(n, e, semantics).map(move |(u, v)| (u, (v, i))))
    })
}

/// Kahn topological sort over a layered adjacency; `None` if cyclic.
fn topological_order(adj: &Images) -> Option<Vec<u32>> {
    let total = adj.nodes();
    let mut indeg = vec![0u32; total];
    for &(v, _) in adj.all() {
        indeg[v as usize] += 1;
    }
    let mut order: Vec<u32> = (0..total as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(v, _) in adj.iter(u as usize) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                order.push(v);
            }
        }
    }
    (order.len() == total).then_some(order)
}

impl KnownGraph {
    /// Build the reachability oracle over `known`, or return the violating
    /// cycle the known edges already contain. Under [`Semantics::Si`] the
    /// graph is layered as described above; under [`Semantics::Ser`] it has
    /// one layer and every edge — `RW` included — is a plain edge, so paths
    /// and cycles are those of the ordinary dependency graph
    /// `SO ∪ WR ∪ WW ∪ RW`. The SI-specific queries
    /// ([`Self::rw_closes_cycle`], [`Self::witness_pred`],
    /// [`Self::dep_edge_between`]) are meaningful only for SI-built graphs;
    /// a SER graph keeps no `Dep` index for them.
    /// The closure representation is picked from the graph ([`OracleKind`])
    /// and is invisible to every query, witness and propagation counter.
    /// The oracle takes `known` as its edge list ([`Self::edges`]).
    pub fn build(n: usize, known: Vec<Edge>, semantics: Semantics) -> KnownGraphResult {
        Self::build_inner(n, known, semantics, None)
    }

    /// [`KnownGraph::build`] with the representation forced, for the
    /// equivalence suites that hold one store against the other. A pinned
    /// graph keeps its kind for life ([`KnownGraph::grow`] never converts
    /// it).
    #[doc(hidden)]
    pub fn build_pinned(
        n: usize,
        known: Vec<Edge>,
        semantics: Semantics,
        kind: OracleKind,
    ) -> KnownGraphResult {
        Self::build_inner(n, known, semantics, Some(kind))
    }

    /// The violating cycle `edges` contain, if any — the cyclic half of
    /// [`KnownGraph::build`] (same adjacency, same sort, same cycle)
    /// without the oracle: no closure store is allocated, so callers that
    /// only want a verdict or a witness pay `O(n + m)`.
    pub fn find_cycle(n: usize, edges: &[Edge], semantics: Semantics) -> Option<Vec<Edge>> {
        let adj = layered(n, edges, semantics);
        topological_order(&adj).is_none().then(|| extract_cycle(n, &adj, edges))
    }

    fn build_inner(
        n: usize,
        known: Vec<Edge>,
        semantics: Semantics,
        pinned: Option<OracleKind>,
    ) -> KnownGraphResult {
        let adj = layered(n, &known, semantics);
        let Some(order) = topological_order(&adj) else {
            let cycle = extract_cycle(n, &adj, &known);
            return KnownGraphResult::Cyclic { cycle, known };
        };
        let nodes = adj.nodes();
        let radj = Csr::build(nodes, || {
            (0..nodes as u32).flat_map(|u| adj.row(u as usize).iter().map(move |&(v, _)| (v, u)))
        });
        let store = ClosureStore::new(n, &known, semantics, pinned);
        let mut ord = vec![0; nodes];
        for (pos, &node) in order.iter().enumerate() {
            ord[node as usize] = pos as u32;
        }
        let mut g = KnownGraph {
            n,
            semantics,
            edges: known,
            adj,
            radj,
            store,
            follows_growth: pinned.is_none(),
            ord,
            closure_updates: 0,
            reorders: 0,
            inserted_edges: 0,
            pending: Vec::new(),
            pending_chain: Vec::new(),
            stamp: 0,
            visited: vec![0; nodes],
            grown: vec![0; nodes],
            stack: Vec::new(),
            delta_f: Vec::new(),
            delta_b: Vec::new(),
            slots: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
        };
        g.compute_closure(&order);
        KnownGraphResult::Acyclic(Box::new(g))
    }

    /// Reverse-topological DP: `closure[u]` = boundary transactions
    /// reachable from layered node `u`.
    fn compute_closure(&mut self, order: &[u32]) {
        self.store.alloc_rows(self.adj.nodes(), self.n);
        for &u in order.iter().rev() {
            for &(v, _) in self.adj.iter(u as usize) {
                if (v as usize) < self.n {
                    self.store.set_fresh(u as usize, v as usize);
                }
                self.store.merge_rows(v as usize, u as usize);
            }
        }
    }

    /// The typed edges the graph holds: the build's, then each one
    /// [`Self::insert_edges`] materialised, in order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The graph's typed edges ([`Self::edges`]), handed back as the
    /// oracle is dropped.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Every layered node's priority in the one maintained topological order.
    pub fn layered_order(&self) -> &[u32] {
        &self.ord
    }

    /// Targets of layered node `x`'s edges, in the order of their typed edges.
    #[inline]
    pub fn layered_out(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        self.adj.iter(x as usize).map(|&(v, _)| v)
    }

    /// Sources of layered node `x`'s edges.
    #[inline]
    pub fn layered_in(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        self.radj.iter(x as usize).copied()
    }

    /// Number of layered edges.
    pub fn layered_edges(&self) -> usize {
        self.adj.len()
    }

    /// The semantics the graph was built under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Closure rows grown by incremental updates so far.
    pub fn closure_updates(&self) -> usize {
        self.closure_updates
    }

    /// Pearce–Kelly insertions so far that found their edge against the
    /// maintained order and reordered its affected region (an edge already
    /// in order costs one comparison and is not counted).
    pub fn reorders(&self) -> usize {
        self.reorders
    }

    /// Typed edges materialised by [`KnownGraph::insert_edges`] so far
    /// (implied ones are absorbed and not counted).
    pub fn inserted_edges(&self) -> usize {
        self.inserted_edges
    }

    /// The closure representation this oracle stores.
    pub fn oracle_kind(&self) -> OracleKind {
        self.store.kind()
    }

    /// The session-chain count of the graph as it stands — with the vertex
    /// count, the two inputs of the rule behind [`Self::oracle_kind`]. A
    /// dense store recomputes its session cover for the answer (`O(n + m)`),
    /// so this is for explaining a run, not for a hot path.
    pub fn rule_chains(&self) -> usize {
        match &self.store {
            ClosureStore::Dense { .. } => self.session_cover().estimated_chains(),
            ClosureStore::Chains { idx, .. } => idx.estimated_chains(),
        }
    }

    /// The typed edges the graph holds whose label `keep`s, by their
    /// boundary images only (under SI a `Dep` edge also has a mid image).
    fn held(&self, keep: fn(Label) -> bool) -> impl Iterator<Item = Edge> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(|u| self.adj.iter(u))
            .map(|&(v, i)| (v, self.edges[i as usize]))
            .filter(move |&(v, e)| (v as usize) < n && keep(e.label))
            .map(|(_, e)| e)
    }

    /// The chain cover of the `So` edges the graph holds.
    fn session_cover(&self) -> ChainIndex {
        let so: Vec<Edge> = self.held(|l| matches!(l, Label::So)).collect();
        chain_cover(self.n, &so)
    }

    /// Bytes of the closure store: its rows, and under the dense store the
    /// `Dep` bit index (memory accounting; the figure the representation
    /// rule is about).
    pub fn oracle_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Bytes of the layered index: the offsets and entries of the
    /// adjacency and its reverse, the edge list the entries index, the
    /// chain store's `Dep` lists, and what insertions pushed since the last
    /// [`Self::settle`] (memory accounting; with [`Self::oracle_bytes`],
    /// the whole oracle but its per-node scratch). Counts entries, not
    /// spare capacity.
    pub fn graph_bytes(&self) -> usize {
        self.adj.bytes()
            + self.radj.bytes()
            + self.edges.len() * std::mem::size_of::<Edge>()
            + self.store.list_bytes()
    }

    /// Extend the vertex space to `n2` transactions (`n2 ≥ n`), adding
    /// isolated vertices — the streaming checker grows a component's
    /// oracle this way when new transactions arrive, then feeds their
    /// edges through [`KnownGraph::insert_edges`]. Equivalent to a
    /// from-scratch build over `n2` vertices with the same edges: the
    /// layered layout keeps boundary nodes at `0..n2` and, under SI, mid
    /// nodes at `n2..2·n2`, so existing mid indices shift and every
    /// index-carrying structure is remapped (under SER nothing shifts).
    /// Existing topological priorities are kept and the new vertices take
    /// the fresh tail slots in arrival order, each transaction's layered
    /// nodes adjacent: `B(n), M(n), B(n + 1), …`. Isolated, they may go in
    /// any order; in this one every edge from an earlier arrival to a later
    /// one — a `Dep` into `B(t)` or `M(t)`, an `RW` out of `M(f)` — is
    /// already in order, and Pearce–Kelly takes it in O(1). Requires a
    /// flushed oracle.
    ///
    /// The representation follows the growth: a graph that is still dense
    /// re-applies the build-time rule here — for the new size, with the
    /// chain count of the graph as it stands — and moves to chains once
    /// that pays, so a component that was first seen small does not carry
    /// `n²/4` bytes of bit matrix to whatever size it reaches. One-way, and
    /// invisible to every query like the kind itself.
    pub fn grow(&mut self, n2: usize) {
        assert!(self.pending.is_empty(), "grow on an unflushed oracle");
        let n = self.n;
        assert!(n2 >= n, "the vertex space never shrinks");
        if n2 == n {
            return;
        }
        self.follow_growth(n2);
        let layers = self.semantics.layers();
        let node = |old: usize| if old < n { old } else { old - n + n2 };
        // Widen in place: each layer's new rows go in behind its old ones,
        // so boundary rows stay and mid rows shift by `n2 − n`, and one
        // sequential pass remaps the targets.
        for layer in 0..layers {
            self.adj.insert_rows(layer * n2 + n, n2 - n);
            self.radj.insert_rows(layer * n2 + n, n2 - n);
        }
        if layers > 1 {
            self.adj.remap(|(v, _)| *v = node(*v as usize) as u32);
            self.radj.remap(|v| *v = node(*v as usize) as u32);
        }
        let mut ord = vec![0u32; layers * n2];
        for (i, &p) in self.ord.iter().enumerate() {
            ord[node(i)] = p;
        }
        // New transactions in arrival order, each one's layers adjacent.
        let fresh = (n..n2).flat_map(|i| (0..layers).map(move |layer| layer * n2 + i));
        for (next, i) in ((layers * n) as u32..).zip(fresh) {
            ord[i] = next;
        }
        self.ord = ord;
        let layered_src = |r: usize| {
            if r < n2 {
                (r < n).then_some(r)
            } else {
                (r - n2 < n).then_some(r - n2 + n)
            }
        };
        match &mut self.store {
            ClosureStore::Dense { closure, dep_in } => {
                let rows = dep_rows(n2, self.semantics);
                *dep_in = dep_in.remapped(rows, rows, |r| (r < n).then_some(r));
                *closure = closure.remapped(layers * n2, n2, layered_src);
            }
            ClosureStore::Chains { rows, idx, dep_preds } => {
                // Chain columns are index-stable; only the rows remap.
                // New transactions stay unplaced until their session `So`
                // edge (or first reachability reference) arrives.
                *rows = rows.remapped(layers * n2, layered_src);
                idx.chain_of.resize(n2, ChainIndex::NONE);
                idx.pos.resize(n2, 0);
                let nodes = dep_preds.nodes();
                dep_preds.insert_rows(nodes, dep_rows(n2, self.semantics) - nodes);
            }
        }
        self.visited = vec![0; layers * n2];
        self.grown = vec![0; layers * n2];
        self.n = n2;
    }

    /// Re-resolve the representation for a vertex space about to reach
    /// `n2` (never a pinned one): the rule of [`ClosureStore::new`], with
    /// the chain count of the graph as it stands — the vertices being added
    /// are still unplaced and join chains when their `So` edges land, so
    /// they are not columns yet. On dense → chains the store is re-derived
    /// from the graph's own typed adjacency: the cover of the `So` edges it
    /// holds, the `Dep` predecessor lists, and the closure by the
    /// reverse-topological sweep of a fresh build run along the
    /// *maintained* order — so the order, the counters, and with them every
    /// query, witness and propagation schedule carry over.
    fn follow_growth(&mut self, n2: usize) {
        if !self.follows_growth || n2 < 1024 || !matches!(self.store, ClosureStore::Dense { .. }) {
            return;
        }
        let n = self.n;
        let idx = self.session_cover();
        if !chains_pay(n2, idx.estimated_chains()) {
            return;
        }
        let deps = Csr::dep_lists(n, self.semantics, || self.held(Label::is_dep));
        self.store = ClosureStore::chains(idx, deps);
        let mut order: Vec<u32> = (0..self.adj.nodes() as u32).collect();
        order.sort_unstable_by_key(|&x| self.ord[x as usize]);
        self.compute_closure(&order);
    }

    /// Extend the oracle with newly known typed edges, maintaining the
    /// topological order and the closure incrementally.
    ///
    /// The known graph stays *reachability-reduced*: an edge the graph
    /// already [implies](Self::implies) is absorbed without a trace, and
    /// only the others are materialised — appended to [`Self::edges`], in
    /// batch order.
    ///
    /// Each edge is *staged*: the adjacency, `Dep` predecessor index and
    /// layered topological order are updated at once (so
    /// [`Self::layered_order`], witness paths and the cycle checks of later
    /// edges stay exact), while closure rows wait for the next flush, which
    /// `flush` schedules. Until then the closure under-approximates, so
    /// callers must [`KnownGraph::flush_closure`] before a read-only
    /// query (the prune loop settles its oracle before each sweep).
    ///
    /// Edges are applied in order; the first edge that would close a
    /// violating cycle aborts the batch and returns that cycle (typed, no
    /// two adjacent `RW` under SI). The accepted prefix has then been
    /// applied and flushed — the witness is built from plain closure
    /// queries — and the oracle holds that prefix, for interpretation to
    /// read. On `Ok`, once flushed, every query answers exactly as a
    /// from-scratch [`KnownGraph::build`] over the union of edges.
    pub fn insert_edges(&mut self, batch: &[Edge], flush: Flush) -> Result<(), Vec<Edge>> {
        let flush_limit = match flush {
            Flush::Every(pending) => pending,
            Flush::AtEnd => usize::MAX,
        };
        for &e in batch {
            if !self.stage(e) {
                self.flush_closure();
                let cycle = self
                    .closing_cycle(e)
                    .expect("Pearce-Kelly found a cycle, so the closure queries must too");
                return Err(cycle);
            }
            if self.pending.len() >= flush_limit {
                self.flush_closure();
            }
        }
        if flush == Flush::AtEnd {
            self.flush_closure();
        }
        Ok(())
    }

    /// Propagate all staged edges' closure updates in one sweep: mark the
    /// pending sources and their ancestors over the reverse adjacency (the
    /// per-phase frontier), then walk the marked nodes once, in reverse
    /// topological order. A node's row is touched only when it must grow —
    /// it has a *staged* out-edge (whose target's row it never absorbed)
    /// or an out-neighbour whose row grew earlier in this flush — so the
    /// work matches the per-edge propagation's change-driven BFS, but a
    /// row that k edges of the phase feed is recomputed once instead of up
    /// to k times. `closure_updates` counts the rows that actually grew.
    /// No-op when nothing is pending.
    pub fn flush_closure(&mut self) {
        if self.pending.is_empty() {
            debug_assert!(self.pending_chain.is_empty(), "chain append without a staged edge");
            return;
        }
        // Extend session chains for the `So` edges of this batch before
        // propagating them: the implicit suffix reachability the append
        // grants is exactly what the wave below establishes densely.
        for (f, t) in std::mem::take(&mut self.pending_chain) {
            self.store.try_chain_append(f as usize, t as usize);
        }
        let stamp = self.next_stamp();
        // Push-based propagation over a max-heap on topological priority:
        // a node pops only after every grown successor (all higher
        // priority) has pushed its row in, so each row is finalized —
        // and its predecessors re-OR'd — at most once per flush, however
        // many staged edges feed it. Work matches the per-edge BFS's
        // change-driven propagation (untouched rows cost nothing), minus
        // the per-edge re-walks this batching exists to amortize.
        let mut heap = std::mem::take(&mut self.heap);
        // Staged edges grouped by source (sorting the pending list is
        // safe: it is cleared when the flush completes), so each popped
        // node scans its own range instead of the whole phase — bulk
        // insertions stage thousands of edges per flush.
        self.pending.sort_unstable_by_key(|&(lu, _)| lu);
        for &(lu, _) in &self.pending {
            if self.visited[lu as usize] != stamp {
                self.visited[lu as usize] = stamp;
                heap.push((self.ord[lu as usize], lu));
            }
        }
        while let Some((_, u)) = heap.pop() {
            let u = u as usize;
            // Absorb this node's staged out-edges; pushes from grown
            // successors have already landed (they popped earlier).
            let mut grew = self.grown[u] == stamp;
            let start = self.pending.partition_point(|&(lu, _)| (lu as usize) < u);
            for idx in start..self.pending.len() {
                let (lu, lv) = self.pending[idx];
                if lu as usize != u {
                    break;
                }
                let v = lv as usize;
                if v < self.n {
                    grew |= self.store.set_fresh(u, v);
                }
                grew |= self.store.merge_rows(v, u);
            }
            if !grew {
                continue;
            }
            self.grown[u] = stamp;
            self.closure_updates += 1;
            for &w in self.radj.iter(u) {
                let w = w as usize;
                if self.store.merge_rows(u, w) && self.grown[w] != stamp {
                    self.grown[w] = stamp;
                    if self.visited[w] != stamp {
                        self.visited[w] = stamp;
                        heap.push((self.ord[w], w as u32));
                    }
                }
            }
        }
        self.heap = heap;
        self.pending.clear();
    }

    /// A mark no live entry of `visited` / `grown` carries: the stamp
    /// restarts, and the marks are cleared, once it has used every `u32`.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.visited.fill(0);
            self.grown.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Flush, then fold the lists whose insertions have grown to a quarter
    /// of their built part, so that a read-only sweep mostly reads one
    /// slice per list (the prune loop settles its oracle after each apply
    /// phase). Changes no list's order, and so no query, witness or
    /// schedule.
    pub fn settle(&mut self) {
        self.flush_closure();
        self.adj.fold(|_| {});
        self.radj.fold(|_| {});
        self.store.fold();
    }

    /// The violating cycle that adding `e` to the known graph would close,
    /// if any — the incremental counterpart of the cyclicity check in
    /// [`KnownGraph::build`]. Read-only; requires a flushed oracle.
    /// Witness paths run over the materialised edges only — every implied
    /// edge has such a path.
    pub fn closing_cycle(&self, e: Edge) -> Option<Vec<Edge>> {
        let (f, t) = (e.from, e.to);
        debug_assert_ne!(f, t, "self edges are malformed: {e:?}");
        if self.semantics == Semantics::Si && !e.label.is_dep() {
            // RW f→t closes a cycle iff some Dep predecessor of `f` is
            // reached from (or equals) `t` (Figure 4b).
            if !self.rw_closes_cycle(f, t) {
                return None;
            }
            let prec = self.witness_pred(f, t);
            let mut cycle = vec![self.dep_edge_between(prec, f), e];
            if t != prec {
                cycle.extend(self.find_path(t, prec).expect("witness_pred reachability"));
            }
            return Some(cycle);
        }
        // Plain edge (SER) or Dep boundary image (SI): t ⇝ f.
        if self.reaches(t, f) {
            let mut cycle = vec![e];
            cycle.extend(self.find_path(t, f).expect("reaches held"));
            return Some(cycle);
        }
        // Dep i→k under SI also adds B(i)→M(k); a path M(k) ⇝ B(i) — an
        // `RW` out of `k` composing back — closes a cycle the boundary
        // image misses.
        if self.semantics == Semantics::Si && self.store.reach(self.n + t.idx(), f.idx()) {
            for &(j, i) in self.adj.iter(self.n + t.idx()) {
                let (j, rw) = (TxnId(j), self.edges[i as usize]);
                if j == f {
                    return Some(vec![e, rw]);
                }
                if self.reaches(j, f) {
                    let mut cycle = vec![e, rw];
                    cycle.extend(self.find_path(j, f).expect("closure row held"));
                    return Some(cycle);
                }
            }
            unreachable!("M-node closure bit without a witnessing RW successor");
        }
        None
    }

    /// Whether the known graph already *implies* `e`: real paths cover
    /// every layered image of the edge, so materialising it could change
    /// no closure row now or after any later insertion (reachability is
    /// monotone), could close no cycle (the graph is acyclic, so the
    /// reverse path cannot also exist), and would never be needed as a
    /// witness edge (the covering path serves). By edge kind:
    ///
    /// * SI `Dep f → t` (`SO`/`WR`/`WW`): some known `Dep` edge `p → t`
    ///   has `p = f` or `B(f) ⇝ B(p)` — both images `B(f) → B(t)` and
    ///   `B(f) → M(t)` are then paths through `B(p)`, and `p` serves
    ///   wherever `f` would as a `Dep` predecessor of `t`;
    /// * SI `RW f → t`: `M(f) ⇝ B(t)`;
    /// * SER: `f ⇝ t`.
    ///
    /// These are *path* conditions, never row inclusion: a `Dep` edge
    /// whose target's `M` row merely happens to be covered today must be
    /// kept, or a later `RW` out of the target would not reach the source.
    ///
    /// Reads the closure as of the last flush, which under-approximates
    /// while edges are staged — `false` then only means "keep it".
    pub fn implies(&self, e: Edge) -> bool {
        let (f, t) = (e.from.idx(), e.to.idx());
        match (self.semantics, e.label.is_dep()) {
            (Semantics::Ser, _) => self.store.reach(f, t),
            (Semantics::Si, true) => {
                self.store.is_dep_pred(t, f) || self.store.reaches_dep_pred(f, t)
            }
            (Semantics::Si, false) => self.store.reach(self.n + f, t),
        }
    }

    /// Stage one typed edge unless the graph already [implies](Self::implies)
    /// it: push the layered images, restore the topological order
    /// (Pearce–Kelly affected-region reordering), and queue the closure
    /// propagation for the next flush. Returns `false` — with the
    /// partially staged images undone — when the edge would close a
    /// violating cycle: the PK forward search discovers exactly the
    /// layered cycles, so the hot path needs no separate reachability
    /// precheck; callers flush and build the canonical witness afterwards
    /// through [`Self::closing_cycle`].
    fn stage(&mut self, e: Edge) -> bool {
        if self.implies(e) {
            return true;
        }
        let (f, t) = (e.from.idx(), e.to.idx());
        let (staged_from, index) = (self.pending.len(), self.edges.len() as u32);
        for (lu, lv) in layered_images(self.n, e, self.semantics) {
            if !self.pk_insert(lu, lv) {
                // Unwind the already-applied image (the entries are the
                // trailing ones); its order perturbation is a valid
                // topological order either way.
                while self.pending.len() > staged_from {
                    let (plu, plv) = self.pending.pop().expect("applied images are pending");
                    self.adj.pop(plu as usize);
                    self.radj.pop(plv as usize);
                }
                return false;
            }
            self.adj.push(lu as usize, (lv, index));
            self.radj.push(lv as usize, lu);
            self.pending.push((lu, lv));
        }
        self.edges.push(e);
        if self.semantics == Semantics::Si && e.label.is_dep() {
            self.store.record_dep(f, t);
        }
        if matches!(e.label, Label::So) && matches!(self.store, ClosureStore::Chains { .. }) {
            // Applied when the edge's closure propagation flushes — see
            // the `pending_chain` field docs for why not here.
            self.pending_chain.push((f as u32, t as u32));
        }
        self.inserted_edges += 1;
        true
    }

    /// Pearce–Kelly: accommodate the layered edge `u → v` in `ord`, or
    /// report a cycle (`false`, nothing mutated). In-order insertions are
    /// O(1); otherwise the affected region — forward from `v` below
    /// `ord[u]`, backward from `u` above `ord[v]` — is discovered by a
    /// double DFS and its priorities are pooled and redistributed, as the
    /// solver's acyclicity theory then goes on doing from the same order;
    /// the forward search doubles as the insertion's cycle check.
    fn pk_insert(&mut self, u: u32, v: u32) -> bool {
        let (lb, ub) = (self.ord[v as usize], self.ord[u as usize]);
        if ub < lb {
            return true;
        }
        // Forward DFS from v over nodes with ord <= ub; finding `u` means
        // the new edge closes a cycle (this doubles as the insertion's
        // cycle check — `ord` is untouched until the search completes).
        let stamp = self.next_stamp();
        self.delta_f.clear();
        self.stack.clear();
        self.stack.push(v);
        self.visited[v as usize] = stamp;
        while let Some(x) = self.stack.pop() {
            if x == u {
                return false;
            }
            self.delta_f.push(x);
            for &(y, _) in self.adj.iter(x as usize) {
                if self.ord[y as usize] <= ub && self.visited[y as usize] != stamp {
                    self.visited[y as usize] = stamp;
                    self.stack.push(y);
                }
            }
        }
        // Backward DFS from u over nodes with ord >= lb.
        let bstamp = self.next_stamp();
        self.delta_b.clear();
        self.stack.push(u);
        self.visited[u as usize] = bstamp;
        while let Some(x) = self.stack.pop() {
            self.delta_b.push(x);
            for &y in self.radj.iter(x as usize) {
                if self.ord[y as usize] >= lb && self.visited[y as usize] != bstamp {
                    self.visited[y as usize] = bstamp;
                    self.stack.push(y);
                }
            }
        }
        // δB (sources) must precede δF (sinks): pool their current
        // priorities and redistribute.
        let ord = &mut self.ord;
        self.delta_b.sort_unstable_by_key(|&x| ord[x as usize]);
        self.delta_f.sort_unstable_by_key(|&x| ord[x as usize]);
        let region = || self.delta_b.iter().chain(&self.delta_f);
        self.slots.clear();
        self.slots.extend(region().map(|&x| ord[x as usize]));
        self.slots.sort_unstable();
        for (&node, &slot) in region().zip(&self.slots) {
            ord[node as usize] = slot;
        }
        self.reorders += 1;
        true
    }

    /// Whether `a` reaches `b` in the known induced SI graph (non-reflexive:
    /// `reaches(a, a)` is true only on a real cycle, which cannot happen for
    /// an acyclic graph).
    /// Reads the closure directly and therefore requires a flushed oracle
    /// (no deferred batch pending).
    #[inline]
    pub fn reaches(&self, a: TxnId, w: TxnId) -> bool {
        debug_assert!(self.pending.is_empty(), "query on an unflushed oracle");
        self.store.reach(b(a.0) as usize, w.0 as usize)
    }

    /// Whether adding the `RW` edge `from → to` would close a cycle:
    /// `∃ prec` with a known `Dep` edge `prec → from` such that
    /// `to == prec` or `to ⇝ prec` (Figure 4b of the paper).
    pub fn rw_closes_cycle(&self, from: TxnId, to: TxnId) -> bool {
        debug_assert!(self.pending.is_empty(), "query on an unflushed oracle");
        debug_assert_eq!(self.semantics, Semantics::Si, "an SI query on a SER oracle");
        if self.store.is_dep_pred(from.idx(), to.idx()) {
            return true;
        }
        self.store.reaches_dep_pred(b(to.0) as usize, from.idx())
    }

    /// Some `Dep` predecessor of `from` that `to` can reach (or equals),
    /// for witness construction. Must be called only if
    /// [`Self::rw_closes_cycle`] holds.
    pub fn witness_pred(&self, from: TxnId, to: TxnId) -> TxnId {
        debug_assert_eq!(self.semantics, Semantics::Si, "an SI query on a SER oracle");
        if self.store.is_dep_pred(from.idx(), to.idx()) {
            return to;
        }
        self.store
            .dep_pred_iter(from.idx())
            .map(|p| TxnId(p as u32))
            .find(|&p| self.reaches(to, p))
            .expect("rw_closes_cycle held")
    }

    /// The known `Dep` edge `prec → from` used in a witness.
    pub fn dep_edge_between(&self, prec: TxnId, from: TxnId) -> Edge {
        self.adj
            .iter(b(prec.0) as usize)
            .map(|&(v, i)| (v, self.edges[i as usize]))
            .find(|&(v, e)| v == b(from.0) && e.label.is_dep())
            .map(|(_, e)| e)
            .expect("dep_in recorded this edge")
    }

    /// Shortest path `a ⇝ b` in the induced graph, as the underlying typed
    /// edge sequence. Allows `a == b` (shortest cycle through `a`).
    pub fn find_path(&self, a: TxnId, target: TxnId) -> Option<Vec<Edge>> {
        let succ = |u: u32| self.adj.iter(u as usize).map(|&(v, i)| (v, self.edges[i as usize]));
        find_path(self.adj.nodes(), succ, a, target)
    }
}

/// Breadth-first shortest path `B(a) ⇝ B(target)` over a layered graph of
/// `nodes` nodes whose out-edges `succ` lists in a fixed order, as the
/// typed edge sequence; `a == target` asks for the shortest cycle through
/// `a`. The first arrival at a node is its parent, kept as the parent's
/// node and the slot in its successor list — 8 bytes a node, the edge
/// read back from `succ` on the way home.
fn find_path<I: Iterator<Item = (u32, Edge)>>(
    nodes: usize,
    succ: impl Fn(u32) -> I,
    a: TxnId,
    target: TxnId,
) -> Option<Vec<Edge>> {
    const UNSEEN: u32 = u32::MAX;
    let (start, goal) = (b(a.0), b(target.0));
    let mut parent: Vec<(u32, u32)> = vec![(UNSEEN, 0); nodes];
    let mut queue = vec![start];
    // `start` stays unseen so that a path may return to it (cycle search
    // when a == target); it is never queued twice.
    let mut head = 0;
    let mut found = false;
    'bfs: while head < queue.len() {
        let u = queue[head];
        head += 1;
        for (slot, (v, _)) in (0u32..).zip(succ(u)) {
            if v == goal {
                parent[v as usize] = (u, slot);
                found = true;
                break 'bfs;
            }
            if parent[v as usize].0 == UNSEEN && v != start {
                parent[v as usize] = (u, slot);
                queue.push(v);
            }
        }
    }
    if !found {
        return None;
    }
    // Walk parents from the goal back to the first return to start.
    let mut path = Vec::new();
    let mut cur = goal;
    loop {
        let (prev, slot) = parent[cur as usize];
        path.push(succ(prev).nth(slot as usize).expect("a parent's slot is in its list").1);
        cur = prev;
        if cur == start {
            break;
        }
    }
    path.reverse();
    Some(path)
}

/// A layered graph over edges that may close cycles, for the searches a
/// counterexample's interpretation makes: [`DepGraph::find_path`] is
/// [`KnownGraph::find_path`]'s search over the same layered images, and
/// [`DepGraph::refute`] is the prune rule without an oracle. Its edges are
/// a borrowed base, indexed once (8 bytes a layered image), and an overlay
/// of the few edges a caller adds on top, which [`DepGraph::overlay`]
/// replaces whole; base edges come before overlay edges, each part in the
/// order given.
pub struct DepGraph<'e> {
    n: usize,
    semantics: Semantics,
    base: (&'e [Edge], Images),
    overlay: (Vec<Edge>, Images),
}

impl<'e> DepGraph<'e> {
    /// The layered graph of `edges` over `n` transactions.
    pub fn new(n: usize, edges: &'e [Edge], semantics: Semantics) -> Self {
        let overlay = (Vec::new(), layered(n, &[], semantics));
        DepGraph { n, semantics, base: (edges, layered(n, edges, semantics)), overlay }
    }

    /// Replace the overlay by `edges`.
    pub fn overlay(&mut self, edges: impl IntoIterator<Item = Edge>) {
        let edges: Vec<Edge> = edges.into_iter().collect();
        let images = layered(self.n, &edges, self.semantics);
        self.overlay = (edges, images);
    }

    fn parts(&self) -> [(&[Edge], &Images); 2] {
        [(self.base.0, &self.base.1), (&self.overlay.0, &self.overlay.1)]
    }

    /// Shortest path `a ⇝ b`, as [`KnownGraph::find_path`] finds it.
    pub fn find_path(&self, a: TxnId, b: TxnId) -> Option<Vec<Edge>> {
        let succ = |u: u32| {
            self.parts().into_iter().flat_map(move |(edges, images)| {
                images.row(u as usize).iter().map(move |&(v, i)| (v, edges[i as usize]))
            })
        };
        find_path(self.semantics.layers() * self.n, succ, a, b)
    }

    /// The prune rule's refutation of a constraint side: the first edge of
    /// `side` that would close a cycle with this graph, and the edges of
    /// the graph that close it, in cycle order after that edge. Under SI an
    /// `RW` edge `f → t` is refuted through the `Dep` edges `p → f`, in
    /// order (that edge alone when `p = t`, else a path `t ⇝ p` and then
    /// the edge); any other edge, and under SER every edge, by a path from
    /// its target to its source.
    pub fn refute(&self, side: &[Edge]) -> Option<(Edge, Vec<Edge>)> {
        side.iter().find_map(|&e| {
            let path = if self.semantics == Semantics::Si && !e.label.is_dep() {
                let edges = self.parts().into_iter().flat_map(|(edges, _)| edges);
                edges.filter(|d| d.label.is_dep() && d.to == e.from).find_map(|&d| {
                    let mut path =
                        if d.from == e.to { Vec::new() } else { self.find_path(e.to, d.from)? };
                    path.push(d);
                    Some(path)
                })
            } else {
                self.find_path(e.to, e.from)
            };
            path.map(|path| (e, path))
        })
    }
}

/// Extract some violating cycle from the cyclic layered adjacency `adj` of
/// `edges` over `n` transactions, shortened by a BFS through one of its
/// nodes.
fn extract_cycle(n: usize, adj: &Images, edges: &[Edge]) -> Vec<Edge> {
    // Iterative DFS for a back edge.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let total = adj.nodes();
    let mut color = vec![Color::White; total];
    for s in 0..total as u32 {
        if color[s as usize] != Color::White {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(s, 0)];
        color[s as usize] = Color::Gray;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if let Some(&(v, _)) = adj.row(u as usize).get(*next) {
                *next += 1;
                match color[v as usize] {
                    Color::Gray => {
                        // Back edge u→v: the DFS path v..u plus this edge
                        // is a cycle. Pick a *boundary* node on it (mid
                        // nodes only have boundary successors, so if v is
                        // a mid node then u is boundary) and shorten by
                        // BFS.
                        let bnode = if (v as usize) < n { v } else { u };
                        debug_assert!((bnode as usize) < n);
                        let succ = |u: u32| {
                            adj.row(u as usize).iter().map(|&(v, i)| (v, edges[i as usize]))
                        };
                        return find_path(total, succ, TxnId(bnode), TxnId(bnode))
                            .expect("boundary node lies on a cycle");
                    }
                    Color::White => {
                        color[v as usize] = Color::Gray;
                        stack.push((v, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[u as usize] = Color::Black;
                stack.pop();
            }
        }
    }
    unreachable!("extract_cycle called on an acyclic graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Label;
    use polysi_history::Key;

    fn so(f: u32, t: u32) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::So)
    }
    fn wr(f: u32, t: u32) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Wr(Key(0)))
    }
    fn ww(f: u32, t: u32) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Ww(Key(0)))
    }
    fn rw(f: u32, t: u32) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Rw(Key(0)))
    }

    fn acyclic(n: usize, edges: &[Edge]) -> Box<KnownGraph> {
        match KnownGraph::build(n, edges.to_vec(), Semantics::Si) {
            KnownGraphResult::Acyclic(g) => g,
            KnownGraphResult::Cyclic { cycle: c, .. } => panic!("unexpected cycle {c:?}"),
        }
    }

    fn pinned(n: usize, edges: &[Edge], semantics: Semantics, kind: OracleKind) -> Box<KnownGraph> {
        match KnownGraph::build_pinned(n, edges.to_vec(), semantics, kind) {
            KnownGraphResult::Acyclic(g) => g,
            KnownGraphResult::Cyclic { cycle: c, .. } => panic!("unexpected cycle {c:?}"),
        }
    }

    /// The apply phase's flush policy.
    const STAGED: Flush = Flush::Every(62);

    /// Insert and flush: the closure is current when the call returns.
    fn insert(g: &mut KnownGraph, edges: &[Edge]) -> Result<(), Vec<Edge>> {
        let staged = g.insert_edges(edges, STAGED);
        g.flush_closure();
        staged
    }

    /// Every node's list against a model of per-node vectors.
    fn assert_lists(lists: &Csr<u32>, model: &[Vec<u32>], ctx: &str) {
        assert_eq!(lists.nodes(), model.len(), "{ctx}: nodes");
        for (u, want) in model.iter().enumerate() {
            let got: Vec<u32> = lists.iter(u).copied().collect();
            assert_eq!(&got, want, "{ctx}: node {u}");
        }
        let mut all: Vec<u32> = lists.all().copied().collect();
        let mut want: Vec<u32> = model.concat();
        all.sort_unstable();
        want.sort_unstable();
        assert_eq!(all, want, "{ctx}: every entry once");
    }

    #[test]
    fn a_list_is_its_built_entries_in_order_then_its_pushes_in_order() {
        // Built by one counting sort: each node's entries in the order
        // given, whatever order the nodes come in.
        let built = [(2, 10), (0, 11), (2, 12), (1, 13), (0, 14), (2, 15)];
        let mut lists = Csr::build(3, || built.iter().copied());
        let mut model = vec![vec![11, 14], vec![13], vec![10, 12, 15]];
        assert_lists(&lists, &model, "build");
        // Pushes, and pops of the latest pushes (`stage` unwinding the
        // images of an edge that closes a cycle).
        enum Op {
            Push(usize, u32),
            Pop(usize),
        }
        let ops = [
            Op::Push(0, 20),
            Op::Push(1, 21),
            Op::Push(0, 22),
            Op::Pop(0),
            Op::Push(2, 23),
            Op::Push(2, 24),
            Op::Pop(2),
            Op::Pop(2),
            Op::Push(2, 25),
            Op::Push(0, 26),
            Op::Push(1, 27),
            Op::Pop(1),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push(u, x) => {
                    lists.push(u, x);
                    model[u].push(x);
                }
                Op::Pop(u) => assert_eq!(lists.pop(u), model[u].pop(), "pop {i}"),
            }
            assert_lists(&lists, &model, &format!("op {i}"));
        }
        // Widened as `grow` widens a layer, pushes and all: empty lists go
        // in before node 1 and at the end, the others keep their entries,
        // and every entry, built or pushed, is remapped in place.
        lists.insert_rows(1, 2);
        lists.insert_rows(5, 1);
        model.splice(1..1, [vec![], vec![]]);
        model.push(vec![]);
        assert_lists(&lists, &model, "widen");
        lists.remap(|x| *x += 100);
        model.iter_mut().flatten().for_each(|x| *x += 100);
        lists.push(1, 30);
        model[1].push(30);
        lists.push(5, 31);
        model[5].push(31);
        assert_lists(&lists, &model, "push after widen");
        // Six pushes on six built entries: a fold is due and moves them
        // behind the built entries — same lists, one slice each.
        assert!(lists.has_pushed(0));
        lists.fold(|_| {});
        assert!(!lists.has_pushed(0));
        assert_lists(&lists, &model, "fold");
        assert!((0..model.len()).all(|u| lists.row(u) == model[u].as_slice()));
        // Two pushes on twelve built entries: not yet.
        lists.push(4, 32);
        model[4].push(32);
        lists.push(0, 33);
        model[0].push(33);
        lists.fold(|_| {});
        assert!(lists.has_pushed(0));
        assert_lists(&lists, &model, "push after fold");
        // 7 offsets, 12 built entries, 2 pushed ones with their two links,
        // and the first and last push of each of the 6 nodes.
        assert_eq!(lists.bytes(), 4 * 7 + 4 * 12 + 12 * 2 + 8 * 6);
    }

    #[test]
    fn dep_lists_are_ascending_without_duplicates_through_insertions() {
        let deps = [wr(3, 1), so(0, 1), ww(3, 1), wr(2, 0), so(1, 2)];
        let mut lists = Csr::dep_lists(4, Semantics::Si, || deps.iter().copied());
        assert_lists(&lists, &[vec![2], vec![0, 3], vec![1], vec![]], "build");
        for (to, from) in [(1, 2), (1, 0), (3, 2), (1, 2)] {
            lists.insert_new(to, from);
        }
        assert!(lists.contains(1, 2) && lists.contains(1, 3) && !lists.contains(2, 0));
        // Two pushes on four built entries: a fold is due, and sorts.
        lists.fold(<[u32]>::sort_unstable);
        assert!(!lists.has_pushed(1));
        assert_lists(&lists, &[vec![2], vec![0, 2, 3], vec![1], vec![2]], "fold");
        assert_eq!(Csr::dep_lists(4, Semantics::Ser, || deps.iter().copied()).nodes(), 0);
    }

    #[test]
    fn dep_chain_reachability() {
        let g = acyclic(4, &[so(0, 1), wr(1, 2), ww(2, 3)]);
        assert!(g.reaches(TxnId(0), TxnId(3)));
        assert!(g.reaches(TxnId(1), TxnId(3)));
        assert!(!g.reaches(TxnId(3), TxnId(0)));
        assert!(!g.reaches(TxnId(0), TxnId(0)));
    }

    #[test]
    fn rw_composes_only_after_dep() {
        // RW 0→1 alone gives no induced edge (needs a preceding Dep).
        let g = acyclic(3, &[rw(0, 1)]);
        assert!(!g.reaches(TxnId(0), TxnId(1)));
        // Dep 2→0 then RW 0→1 induces 2→1.
        let g = acyclic(3, &[wr(2, 0), rw(0, 1)]);
        assert!(g.reaches(TxnId(2), TxnId(1)));
        assert!(!g.reaches(TxnId(0), TxnId(1)), "0 itself does not reach 1");
    }

    #[test]
    fn two_adjacent_rw_not_composed() {
        // Classic write skew: Dep 0→1, RW 1→2, RW 2→3: 0 reaches 2 (via
        // Dep;RW) but not 3 (that would need RW;RW).
        let g = acyclic(4, &[wr(0, 1), rw(1, 2), rw(2, 3)]);
        assert!(g.reaches(TxnId(0), TxnId(2)));
        assert!(!g.reaches(TxnId(0), TxnId(3)));
    }

    #[test]
    fn dep_cycle_detected() {
        match KnownGraph::build(2, vec![wr(0, 1), ww(1, 0)], Semantics::Si) {
            KnownGraphResult::Cyclic { cycle: c, .. } => {
                assert_eq!(c.len(), 2);
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn dep_rw_cycle_detected() {
        // 0 -WR-> 1 -RW-> 0 is a violating cycle (single RW).
        match KnownGraph::build(2, vec![wr(0, 1), rw(1, 0)], Semantics::Si) {
            KnownGraphResult::Cyclic { cycle: c, .. } => {
                assert_eq!(c.len(), 2);
                assert!(c.iter().any(|e| !e.label.is_dep()));
            }
            _ => panic!("expected cycle"),
        }
    }

    #[test]
    fn pure_rw_cycle_is_allowed() {
        // RW 0→1, RW 1→0 with deps feeding them: write-skew shape, no
        // violating cycle (the two RW edges are adjacent).
        let edges = vec![wr(2, 0), wr(3, 1), rw(0, 1), rw(1, 0)];
        match KnownGraph::build(4, edges, Semantics::Si) {
            KnownGraphResult::Acyclic(g) => {
                assert!(g.reaches(TxnId(2), TxnId(1)));
                assert!(g.reaches(TxnId(3), TxnId(0)));
            }
            KnownGraphResult::Cyclic { cycle: c, .. } => {
                panic!("write skew wrongly flagged: {c:?}")
            }
        }
    }

    #[test]
    fn rw_closes_cycle_detection() {
        // Dep 0→1; candidate RW 1→0 would close 0→1→0.
        let g = acyclic(2, &[wr(0, 1)]);
        assert!(g.rw_closes_cycle(TxnId(1), TxnId(0)));
        assert_eq!(g.witness_pred(TxnId(1), TxnId(0)), TxnId(0));
        // Candidate RW 1→... with `to` unable to reach a pred: no cycle.
        let g = acyclic(3, &[wr(0, 1), so(0, 2)]);
        assert!(!g.rw_closes_cycle(TxnId(1), TxnId(2)));
    }

    #[test]
    fn rw_closes_cycle_via_path() {
        // Dep 0→1, path 2→0 known; RW 1→2: 2 ⇝ 0 = pred of 1 → cycle.
        let g = acyclic(3, &[wr(0, 1), so(2, 0)]);
        assert!(g.rw_closes_cycle(TxnId(1), TxnId(2)));
        assert_eq!(g.witness_pred(TxnId(1), TxnId(2)), TxnId(0));
        assert_eq!(g.dep_edge_between(TxnId(0), TxnId(1)), wr(0, 1));
    }

    #[test]
    fn find_path_returns_typed_edges() {
        let g = acyclic(4, &[so(0, 1), wr(1, 2), rw(2, 3)]);
        let p = g.find_path(TxnId(0), TxnId(3)).unwrap();
        assert_eq!(p, vec![so(0, 1), wr(1, 2), rw(2, 3)]);
        assert!(g.find_path(TxnId(3), TxnId(0)).is_none());
    }

    #[test]
    fn insert_edges_matches_rebuild() {
        let initial = [so(0, 1), wr(1, 2)];
        let extra = [ww(2, 3), rw(3, 4), wr(0, 4)];
        let mut g = acyclic(5, &initial);
        insert(&mut g, &extra).expect("acyclic");
        let all: Vec<Edge> = initial.iter().chain(&extra).copied().collect();
        let full = acyclic(5, &all);
        assert_oracles_agree(&g, &full, 5, "incremental vs rebuild");
        assert_eq!(g.inserted_edges(), 3);
        assert!(g.closure_updates() > 0);
        assert_order_is_topological(&g, 5);
    }

    #[test]
    fn implied_edges_are_absorbed_and_the_rest_reported() {
        let mut g = acyclic(4, &[so(0, 1), wr(1, 2), rw(2, 3)]);
        // ww(0, 2): B(0) ⇝ B(1) and 1 is a Dep predecessor of 2 — implied.
        // wr(1, 2) again: 1 already is a Dep predecessor of 2 — implied.
        // rw(2, 3) under another key: M(2) ⇝ B(3) — implied.
        // ww(0, 3): 0 ⇝ 3, but 3 has no Dep predecessor yet — kept.
        let other_rw = Edge::new(TxnId(2), TxnId(3), Label::Rw(Key(9)));
        insert(&mut g, &[ww(0, 2), wr(1, 2), other_rw, ww(0, 3)]).expect("acyclic");
        assert_eq!(g.edges()[3..], [ww(0, 3)]);
        assert_eq!(g.inserted_edges(), 1);
        let full = acyclic(4, &[so(0, 1), wr(1, 2), rw(2, 3), ww(0, 2), other_rw, ww(0, 3)]);
        assert_oracles_agree(&g, &full, 4, "reduced vs every edge");
    }

    #[test]
    fn dep_edge_with_a_covered_mid_row_but_no_dep_pred_path_is_kept() {
        // The row-inclusion trap. Dep 0→1, RW 1→2 give 0 ⇝ 2 while 2 has
        // no Dep predecessor; M(2)'s row is empty — a subset of B(0)'s —
        // so by row inclusion WW 0→2 would change nothing *today*. It is
        // not implied, though: no path enters M(2) from B(0), and a later
        // RW out of 2 must still propagate to 0.
        for kind in [OracleKind::Dense, OracleKind::Chains] {
            let mut g = pinned(4, &[wr(0, 1), rw(1, 2)], Semantics::Si, kind);
            assert!(g.reaches(TxnId(0), TxnId(2)));
            assert!(!g.implies(ww(0, 2)), "no Dep-pred path: the edge must be kept");
            insert(&mut g, &[ww(0, 2)]).expect("acyclic");
            assert_eq!(g.edges()[2..], [ww(0, 2)]);
            insert(&mut g, &[rw(2, 3)]).expect("acyclic");
            assert!(g.reaches(TxnId(0), TxnId(3)), "RW out of the target must reach the source");
            // With a real Dep-pred path the same edge *is* implied, and
            // later RWs out of the target still reach the source.
            assert!(g.implies(ww(0, 2)));
            assert!(!g.implies(rw(3, 0)), "a cycle-closing edge is never implied");
        }
    }

    #[test]
    fn insert_detects_dep_cycle() {
        let mut g = acyclic(3, &[wr(0, 1), ww(1, 2)]);
        let err = insert(&mut g, &[ww(2, 0)]).unwrap_err();
        assert_eq!(err.len(), 3);
        assert_eq!(err[0], ww(2, 0));
    }

    #[test]
    fn insert_detects_rw_composition_cycle() {
        // Dep 0→1 known; RW 1→0 closes 0→1→0.
        let mut g = acyclic(2, &[wr(0, 1)]);
        let err = insert(&mut g, &[rw(1, 0)]).unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(err.contains(&rw(1, 0)));
    }

    #[test]
    fn insert_dep_detects_mid_path_cycle() {
        // RW 1→0 is fine on its own (no Dep predecessor of 1 yet), but a
        // later Dep 0→1 composes with it into the cycle 0 -WR-> 1 -RW-> 0 —
        // visible only through the mid-node image of the new Dep edge.
        let mut g = acyclic(2, &[]);
        insert(&mut g, &[rw(1, 0)]).expect("lone RW composes with nothing");
        let err = insert(&mut g, &[wr(0, 1)]).unwrap_err();
        assert_eq!(err, vec![wr(0, 1), rw(1, 0)]);
    }

    #[test]
    fn insert_batch_applies_prefix_before_failing() {
        let mut g = acyclic(3, &[so(0, 1)]);
        let err = insert(&mut g, &[ww(1, 2), ww(2, 0)]).unwrap_err();
        assert_eq!(err[0], ww(2, 0));
        // The first batch edge landed before the violation.
        assert!(g.reaches(TxnId(0), TxnId(2)));
    }

    #[test]
    fn deferred_cycle_checks_are_exact_mid_batch() {
        // Stage a chain without flushing; a closing edge staged in the
        // same logical phase must be rejected by the Pearce–Kelly search
        // over the staged adjacency (the closure still reflects only
        // `so(0, 1)`), and the witness built after the error-path flush.
        let mut g = acyclic(4, &[so(0, 1)]);
        g.insert_edges(&[ww(1, 2), ww(2, 3)], STAGED).expect("chain is acyclic");
        let err = g.insert_edges(&[ww(3, 0)], STAGED).unwrap_err();
        assert_eq!(err[0], ww(3, 0));
    }

    #[test]
    fn deferred_rw_composition_detected_before_flush() {
        // The mid-node Dep;RW composition must fire against *staged* RW
        // edges too: RW 1→0 staged, then Dep 0→1 staged in the same batch.
        let mut g = acyclic(2, &[]);
        g.insert_edges(&[rw(1, 0)], STAGED).expect("lone RW composes with nothing");
        let err = g.insert_edges(&[wr(0, 1)], STAGED).unwrap_err();
        assert_eq!(err, vec![wr(0, 1), rw(1, 0)]);
    }

    #[test]
    fn deferred_flush_equals_eager_insertion() {
        let initial = [so(0, 1), wr(1, 2)];
        let batches: [&[Edge]; 3] = [&[ww(2, 3)], &[rw(3, 4), wr(0, 4)], &[ww(1, 3)]];
        let mut eager = acyclic(5, &initial);
        let mut deferred = acyclic(5, &initial);
        for batch in batches {
            insert(&mut eager, batch).expect("acyclic");
            deferred.insert_edges(batch, STAGED).expect("acyclic");
        }
        deferred.flush_closure();
        assert_oracles_agree(&eager, &deferred, 5, "eager vs deferred");
        // One flush for three staged batches: closure rows were each
        // touched at most once, so the update counter stays below the
        // per-call propagation's.
        assert!(deferred.closure_updates() <= eager.closure_updates());
        assert!(deferred.closure_updates() > 0);
    }

    #[test]
    fn grow_matches_fresh_build() {
        let initial = [so(0, 1), wr(1, 2), rw(2, 3)];
        let mut g = acyclic(4, &initial);
        g.grow(4); // no-op
        g.grow(7);
        let extra = [ww(3, 5), wr(5, 6), rw(6, 4)];
        insert(&mut g, &extra).expect("acyclic after growth");
        let all: Vec<Edge> = initial.iter().chain(&extra).copied().collect();
        let full = acyclic(7, &all);
        // Boundary rows, the remapped mid rows and the SI-specific queries.
        assert_oracles_agree(&g, &full, 7, "grown vs rebuild");
        assert_order_is_topological(&g, 7);
        // A cycle through old and new vertices is still caught.
        let err = insert(&mut g, &[ww(6, 1)]).unwrap_err();
        assert!(!err.is_empty());
    }

    /// `grow` gives each new transaction's layered nodes adjacent slots
    /// behind every earlier arrival's, so an edge from an earlier arrival
    /// into a grown vertex — `Dep` into `B(t)` and `M(t)`, `RW` out of
    /// `M(f)` — is already in order: no label reorders, under either
    /// semantics or store.
    #[test]
    fn edges_into_grown_vertices_never_reorder() {
        let arrivals = [
            so(1, 3),
            wr(2, 3),
            rw(0, 4),
            ww(3, 4),
            so(4, 5),
            rw(3, 5),
            wr(2, 6),
            rw(5, 6),
            ww(0, 6),
        ];
        for semantics in [Semantics::Si, Semantics::Ser] {
            for kind in [OracleKind::Dense, OracleKind::Chains] {
                let ctx = format!("{semantics:?} {kind:?}");
                let mut g = pinned(3, &[so(0, 1), wr(1, 2)], semantics, kind);
                g.grow(7);
                insert(&mut g, &arrivals).expect("arrival order is acyclic");
                assert_eq!(g.reorders(), 0, "{ctx}");
                assert_order_is_topological(&g, 7);
            }
        }
    }

    /// The DFS marks are stamped. A stamp that has used every `u32`
    /// starts over on cleared marks rather than wrapping onto marks that
    /// read as the current search's, so a reorder at the last stamps and a
    /// cycle the forward search must find after it are both exact.
    #[test]
    fn the_stamp_starts_over_instead_of_wrapping() {
        let mut g = acyclic(2, &[]);
        g.stamp = u32::MAX - 1;
        // Against the build's order B(0), B(1), M(0), M(1): the boundary
        // image reorders (two stamps), and the flush takes a third.
        insert(&mut g, &[so(1, 0)]).expect("acyclic");
        assert_eq!(g.reorders(), 1);
        assert!(g.stamp < 3, "the stamp started over at {}", g.stamp);
        let err = insert(&mut g, &[wr(0, 1)]).unwrap_err();
        assert_eq!(err, [wr(0, 1), so(1, 0)]);
    }

    #[test]
    fn insert_edges_under_ser_semantics() {
        let mut g = pinned(3, &[wr(0, 1)], Semantics::Ser, OracleKind::Dense);
        // Under SER an RW edge is a plain edge: it extends reachability...
        insert(&mut g, &[rw(1, 2)]).expect("chain");
        assert!(g.reaches(TxnId(0), TxnId(2)));
        // ...and a back edge closes a plain cycle.
        let err = insert(&mut g, &[rw(2, 0)]).unwrap_err();
        assert_eq!(err.len(), 3);
    }

    fn acyclic_chains(n: usize, edges: &[Edge]) -> Box<KnownGraph> {
        pinned(n, edges, Semantics::Si, OracleKind::Chains)
    }

    /// The maintained order is topological for the induced graph.
    fn assert_order_is_topological(g: &KnownGraph, n: usize) {
        let pos = g.layered_order();
        for (a, w) in (0..n).flat_map(|a| (0..n).map(move |w| (a, w))) {
            if g.reaches(TxnId(a as u32), TxnId(w as u32)) {
                assert!(pos[a] < pos[w], "order violates reachability {a} -> {w}");
            }
        }
    }

    /// All-pairs agreement on what the closure rows hold: boundary rows
    /// through `reaches`, mid rows through `implies` of an `RW` edge
    /// (`M(x) ⇝ B(y)` on these SI graphs).
    fn assert_oracles_agree(a: &KnownGraph, b: &KnownGraph, n: usize, ctx: &str) {
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                assert_eq!(
                    a.reaches(TxnId(x), TxnId(y)),
                    b.reaches(TxnId(x), TxnId(y)),
                    "{ctx}: reaches({x}, {y})"
                );
                if x != y {
                    assert_eq!(
                        a.rw_closes_cycle(TxnId(x), TxnId(y)),
                        b.rw_closes_cycle(TxnId(x), TxnId(y)),
                        "{ctx}: rw_closes_cycle({x}, {y})"
                    );
                    assert_eq!(a.implies(rw(x, y)), b.implies(rw(x, y)), "{ctx}: mid row {x}, {y}");
                }
            }
        }
    }

    #[test]
    fn chain_oracle_matches_dense_build() {
        // Two session chains plus cross-session dependencies and a
        // session-free transaction (5).
        let edges =
            [so(0, 1), so(1, 2), so(3, 4), wr(0, 3), wr(2, 4), rw(4, 5), wr(1, 5), rw(2, 3)];
        let dense = acyclic(6, &edges);
        let chains = acyclic_chains(6, &edges);
        assert_eq!(chains.oracle_kind(), OracleKind::Chains);
        assert_eq!(dense.oracle_kind(), OracleKind::Dense);
        assert_oracles_agree(&dense, &chains, 6, "build");
    }

    #[test]
    fn chain_oracle_incremental_matches_dense() {
        let initial = [so(0, 1), so(2, 3), wr(1, 2)];
        let extra = [ww(3, 4), rw(4, 5), wr(0, 5), ww(1, 4)];
        let mut dense = acyclic(6, &initial);
        let mut chains = acyclic_chains(6, &initial);
        insert(&mut dense, &extra).expect("acyclic");
        insert(&mut chains, &extra).expect("acyclic");
        assert_oracles_agree(&dense, &chains, 6, "incremental");
        // Same propagation-operation unit, but chain suffixes absorb some
        // dense row growth for free — never the other way around.
        assert!(chains.closure_updates() <= dense.closure_updates(), "neutral counter");
        assert!(chains.closure_updates() > 0);
        assert_eq!(dense.inserted_edges(), chains.inserted_edges());
        assert_eq!(dense.layered_order(), chains.layered_order());
    }

    #[test]
    fn chain_oracle_rejects_same_cycles_with_same_witness() {
        let initial = [so(0, 1), wr(1, 2)];
        let closing = [ww(2, 3), rw(3, 0)];
        let mut dense = acyclic(4, &initial);
        let mut chains = acyclic_chains(4, &initial);
        let e1 = insert(&mut dense, &closing).unwrap_err();
        let e2 = insert(&mut chains, &closing).unwrap_err();
        assert_eq!(e1, e2, "witness cycles must be byte-identical");
    }

    #[test]
    fn chain_oracle_grow_appends_sessions() {
        let initial = [so(0, 1), wr(1, 2)];
        let mut dense = acyclic(3, &initial);
        let mut chains = acyclic_chains(3, &initial);
        dense.grow(6);
        chains.grow(6);
        // Session 0 continues into the new vertex space; 4, 5 start a
        // new session; cross edges tie them in.
        let extra = [so(1, 3), so(4, 5), wr(3, 4), ww(2, 4), rw(2, 5)];
        insert(&mut dense, &extra).expect("acyclic after growth");
        insert(&mut chains, &extra).expect("acyclic after growth");
        assert_oracles_agree(&dense, &chains, 6, "grow");
        assert!(chains.closure_updates() <= dense.closure_updates());
        // The chain oracle keeps its column budget near the session
        // count: 2 sessions + the lone txn 2, not one column per node.
        assert!(chains.oracle_bytes() < dense.oracle_bytes() * 8);
    }

    #[test]
    fn chain_oracle_bulk_and_deferred_match_dense() {
        let initial = [so(0, 1), so(1, 2), so(3, 4)];
        let batch = [wr(0, 3), rw(4, 1), ww(2, 5), wr(3, 5)];
        let mut dense = acyclic(6, &initial);
        let mut chains = acyclic_chains(6, &initial);
        dense.insert_edges(&batch, Flush::AtEnd).expect("acyclic");
        chains.insert_edges(&batch, Flush::AtEnd).expect("acyclic");
        assert_oracles_agree(&dense, &chains, 6, "bulk");

        let mut dense_d = acyclic(6, &initial);
        let mut chains_d = acyclic_chains(6, &initial);
        dense_d.insert_edges(&batch, STAGED).expect("acyclic");
        chains_d.insert_edges(&batch, STAGED).expect("acyclic");
        dense_d.flush_closure();
        chains_d.flush_closure();
        assert_oracles_agree(&dense_d, &chains_d, 6, "deferred");
    }

    #[test]
    fn auto_resolution_follows_the_memory_heuristic() {
        // Small component: dense regardless of session shape.
        let g = acyclic(3, &[so(0, 1)]);
        assert_eq!((g.oracle_kind(), g.rule_chains()), (OracleKind::Dense, 2));
        // Large two-session component: chains win (2 chains × 4 bytes
        // vs 2000-bit rows).
        let n = 2000;
        let mut edges = Vec::new();
        for s in [0u32, 1] {
            for i in 0..(n as u32 / 2 - 1) {
                edges.push(so(s * n as u32 / 2 + i, s * n as u32 / 2 + i + 1));
            }
        }
        let g = acyclic(n, &edges);
        assert_eq!((g.oracle_kind(), g.rule_chains()), (OracleKind::Chains, 2));
        // As large, but session-poor (every transaction its own chain):
        // a chain row would be 4 bytes per transaction against one bit.
        let g = acyclic(n, &[wr(0, 1)]);
        assert_eq!((g.oracle_kind(), g.rule_chains()), (OracleKind::Dense, n));
        assert_eq!(OracleKind::Chains.name(), "chains");
    }

    #[test]
    fn find_cycle_is_the_cyclic_half_of_build() {
        let cyclic = [so(0, 1), wr(1, 2), rw(2, 3), ww(3, 1), wr(2, 0)];
        for semantics in [Semantics::Si, Semantics::Ser] {
            for upto in 0..=cyclic.len() {
                let found = KnownGraph::find_cycle(4, &cyclic[..upto], semantics);
                match KnownGraph::build(4, cyclic[..upto].to_vec(), semantics) {
                    KnownGraphResult::Acyclic(_) => assert_eq!(found, None),
                    KnownGraphResult::Cyclic { cycle: c, .. } => assert_eq!(found, Some(c)),
                }
            }
            assert!(KnownGraph::find_cycle(4, &cyclic, semantics).is_some());
        }
    }

    #[test]
    fn auto_oracle_follows_growth_and_pinned_kinds_stay() {
        // Two sessions of 500 with cross dependencies: under the size
        // threshold, so the rule starts dense.
        let half = 500u32;
        let mut edges = Vec::new();
        for s in [0, half] {
            edges.extend((0..half - 1).map(|i| so(s + i, s + i + 1)));
        }
        edges.extend((0..half - 1).step_by(7).map(|i| wr(i, half + i + 1)));
        edges.extend((0..half - 1).step_by(11).map(|i| rw(half + i, i + 1)));
        let mut auto = acyclic(1000, &edges);
        let mut dense = pinned(1000, &edges, Semantics::Si, OracleKind::Dense);
        assert_eq!(auto.oracle_kind(), OracleKind::Dense);
        // Still under the threshold: nothing moves.
        auto.grow(1010);
        dense.grow(1010);
        assert_eq!(auto.oracle_kind(), OracleKind::Dense);
        // Across it: two chains against 1100-bit rows.
        let dense_bytes = auto.oracle_bytes();
        let before = (auto.closure_updates(), auto.inserted_edges(), auto.layered_order().to_vec());
        auto.grow(1100);
        dense.grow(1100);
        assert_eq!(auto.oracle_kind(), OracleKind::Chains);
        assert_eq!(dense.oracle_kind(), OracleKind::Dense, "a pinned kind stays for life");
        assert!(auto.oracle_bytes() * 8 < dense_bytes);
        assert_eq!((auto.closure_updates(), auto.inserted_edges()), (before.0, before.1));
        assert_eq!(auto.layered_order()[..1010], before.2[..1010]);
        // The new vertices continue session 0 and tie into session 1; the
        // converted oracle keeps answering like the dense one.
        let mut extra = vec![so(499, 1010)];
        extra.extend((1010..1099).map(|i| so(i, i + 1)));
        extra.extend([wr(999, 1050), rw(600, 1020)]);
        auto.insert_edges(&extra, Flush::AtEnd).expect("acyclic");
        dense.insert_edges(&extra, Flush::AtEnd).expect("acyclic");
        assert_eq!(auto.edges(), dense.edges());
        assert_eq!(auto.layered_order(), dense.layered_order());
        for (x, y) in
            (0..1100u32).step_by(13).flat_map(|x| (0..1100).step_by(17).map(move |y| (x, y)))
        {
            let (x, y) = (TxnId(x), TxnId(y));
            assert_eq!(auto.reaches(x, y), dense.reaches(x, y), "reaches({x}, {y})");
            if x != y {
                assert_eq!(auto.rw_closes_cycle(x, y), dense.rw_closes_cycle(x, y));
                assert_eq!(auto.closing_cycle(ww(x.0, y.0)), dense.closing_cycle(ww(x.0, y.0)));
            }
        }
        assert_eq!(
            insert(&mut auto, &[ww(1099, 0)]).unwrap_err(),
            insert(&mut dense, &[ww(1099, 0)]).unwrap_err(),
        );
    }

    #[test]
    fn chain_oracle_under_ser_semantics() {
        let edges = [so(0, 1), so(1, 2), wr(2, 3)];
        let mut g = pinned(4, &edges, Semantics::Ser, OracleKind::Chains);
        insert(&mut g, &[rw(3, 0)]).unwrap_err();
        assert!(g.reaches(TxnId(0), TxnId(3)));
    }

    #[test]
    fn long_fork_cycle_shape() {
        // Figure 3e of the paper: T1 -WR-> T3 -RW-> T2 -WR-> T4 -RW-> T1.
        let edges = vec![
            wr(1, 3),
            Edge::new(TxnId(3), TxnId(2), Label::Rw(Key(1))),
            Edge::new(TxnId(2), TxnId(4), Label::Wr(Key(1))),
            rw(4, 1),
        ];
        match KnownGraph::build(5, edges, Semantics::Si) {
            KnownGraphResult::Cyclic { cycle: c, .. } => {
                assert_eq!(c.len(), 4);
                let rw_count = c.iter().filter(|e| !e.label.is_dep()).count();
                assert_eq!(rw_count, 2, "long fork has two non-adjacent RW edges");
            }
            _ => panic!("long fork must be cyclic"),
        }
    }
}
