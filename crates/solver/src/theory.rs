//! The graph-acyclicity theory.
//!
//! This is the monotonic theory PolySI needs from MonoSAT: a directed graph
//! whose edges are either *known* (unconditionally present) or *symbolic*
//! (present iff a guard literal is true), with the hard assertion that the
//! graph stays acyclic.
//!
//! **Detection** is incremental à la Pearce–Kelly: the theory maintains a
//! topological order of all nodes under the currently-present edges.
//! Inserting an edge `u → v` with `ord(u) < ord(v)` costs O(1) — the common
//! case once the solver seeds decision phases along the known topological
//! order. An out-of-order insertion triggers a bounded double DFS of the
//! affected region, either producing the reordering or a cycle; a cycle
//! yields the conflict clause `¬g₁ ∨ … ∨ ¬gₖ` over the guards of the
//! symbolic edges on it (known edges contribute no literals — they are
//! facts). Edge deletion (solver backtracking) is O(1): removing edges
//! never invalidates a topological order. Detection is complete and is the
//! judge: [`AcyclicityTheory::activate`] reports every cycle, whatever
//! propagation did or did not do.
//!
//! **Propagation** ([`AcyclicityTheory::propagate`]) is the accelerator on
//! top: once `u → v` is in, every symbolic edge `a → b` with `v ⇝ a` and
//! `b ⇝ u` would close a cycle, so its guard is implied false, with the
//! cycle's guards as the reason. It costs graph searches the detection does
//! not need, so the caller hands it a work budget; every adjacency and
//! candidate entry touched is charged, and a search that runs dry is
//! abandoned — that costs time only, never a verdict.
//!
//! **Layout.** The theory does not own the known edges: it reads them
//! through a [`KnownEdges`] view and starts from the view's topological
//! order. A caller that holds its known graph already (the checker's
//! reachability oracle) lends it; [`Staged`], the default, is a graph the
//! theory owns, its edges added one at a time. Everything else is flat:
//! symbolic edges are indexed by guard literal and by source node in two
//! CSRs; the active symbolic edges of a node live in a fixed region of one
//! array (a node's region has room for every symbolic edge incident to
//! it), so activating and rolling back are a store and a decrement, and
//! `activate` allocates nothing unless it has a conflict to report.

use crate::types::{LBool, Lit};

/// The known edges of a theory graph, as [`AcyclicityTheory`] reads them.
pub trait KnownEdges {
    /// Number of nodes.
    fn nodes(&self) -> usize;
    /// Number of known edges.
    fn edges(&self) -> usize;
    /// Targets of `x`'s known edges.
    fn out(&self, x: u32) -> impl Iterator<Item = u32> + '_;
    /// Sources of `x`'s known edges.
    fn inn(&self, x: u32) -> impl Iterator<Item = u32> + '_;
    /// The order the theory starts from: each node's priority in a
    /// topological order of the known edges, a permutation of
    /// `0..nodes()`, whichever one; `None` when they have a cycle. Asked
    /// once, before any neighbour is read.
    fn order(&mut self) -> Option<Vec<u32>>;
}

/// The staged view: known edges added one at a time
/// ([`Staged::add_edge`]), then counting-sorted into out- and in-CSR and
/// ordered by Kahn's algorithm when the theory starts.
pub struct Staged {
    n: usize,
    /// Known edges in insertion order, until [`KnownEdges::order`] sorts
    /// them into `out` / `inn` (each node's list in insertion order).
    staged: Vec<(u32, u32)>,
    out: (Vec<u32>, Vec<u32>),
    inn: (Vec<u32>, Vec<u32>),
}

impl Staged {
    /// `n` nodes and no edge.
    pub fn new(n: usize) -> Self {
        let empty = (vec![0; n + 1], Vec::new());
        Staged { n, staged: Vec::new(), out: empty.clone(), inn: empty }
    }

    /// Add the known edge `u → v`; edges are added before the theory starts.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        debug_assert!(self.out.1.is_empty(), "known edges must be added before the theory starts");
        self.staged.push((u, v));
    }
}

impl KnownEdges for Staged {
    fn nodes(&self) -> usize {
        self.n
    }

    fn edges(&self) -> usize {
        self.staged.len() + self.out.1.len()
    }

    fn out(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        row(&self.out, x).iter().copied()
    }

    fn inn(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        row(&self.inn, x).iter().copied()
    }

    /// Kahn's order over the staged edges, once they are sorted into
    /// out- and in-CSR.
    fn order(&mut self) -> Option<Vec<u32>> {
        let staged = std::mem::take(&mut self.staged);
        self.out = bucket(self.n, &staged, |e| e.0, |e| e.1);
        self.inn = bucket(self.n, &staged, |e| e.1, |e| e.0);
        let mut indeg: Vec<u32> =
            (0..self.n as u32).map(|v| row(&self.inn, v).len() as u32).collect();
        let mut order: Vec<u32> = (0..self.n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut ord = vec![0; self.n];
        for head in 0.. {
            let Some(&u) = order.get(head) else { break };
            ord[u as usize] = head as u32;
            for &v in row(&self.out, u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    order.push(v);
                }
            }
        }
        (order.len() == self.n).then_some(ord)
    }
}

/// Node `x`'s list in a CSR given as (offsets, entries).
fn row(csr: &(Vec<u32>, Vec<u32>), x: u32) -> &[u32] {
    let x = x as usize;
    &csr.1[csr.0[x] as usize..csr.0[x + 1] as usize]
}

/// Stable counting sort of `items` into `buckets` buckets: the offsets
/// (`buckets + 1` of them) and `value` of every item in bucket order,
/// items of one bucket in their original order.
fn bucket<T, V: Copy>(
    buckets: usize,
    items: &[T],
    key: impl Fn(&T) -> u32,
    value: impl Fn(&T) -> V,
) -> (Vec<u32>, Vec<V>) {
    let mut start = vec![0u32; buckets + 1];
    let Some(first) = items.first() else { return (start, Vec::new()) };
    for item in items {
        start[key(item) as usize + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    // Fill with `start[b]` as bucket b's cursor; afterwards it holds the
    // bucket's end, i.e. the start of b + 1: shift back by one.
    let mut values = vec![value(first); items.len()];
    for item in items {
        let cursor = &mut start[key(item) as usize];
        values[*cursor as usize] = value(item);
        *cursor += 1;
    }
    start.copy_within(0..buckets, 1);
    start[0] = 0;
    (start, values)
}

/// One direction (out or in) of the active symbolic edges: per node a
/// fixed region of one array, oldest activation first.
struct Active {
    /// Offsets (`n + 1`) of each node's region: one slot per symbolic edge
    /// incident to the node in this direction.
    start: Vec<u32>,
    /// `(neighbour, guard)`; the first `len[x]` slots of `x`'s region are
    /// live.
    edges: Vec<(u32, Lit)>,
    len: Vec<u32>,
}

impl Active {
    fn new(n: usize) -> Self {
        Active { start: vec![0; n + 1], edges: Vec::new(), len: vec![0; n] }
    }

    fn of(&self, x: u32) -> &[(u32, Lit)] {
        let start = self.start[x as usize] as usize;
        &self.edges[start..start + self.len[x as usize] as usize]
    }

    fn push(&mut self, x: u32, y: u32, guard: Lit) {
        let len = &mut self.len[x as usize];
        debug_assert!(
            self.start[x as usize] + *len < self.start[x as usize + 1],
            "a guard was activated twice without a rollback"
        );
        self.edges[(self.start[x as usize] + *len) as usize] = (y, guard);
        *len += 1;
    }

    /// Drop the newest active edge of `x`; returns its neighbour.
    fn pop(&mut self, x: u32) -> u32 {
        let len = &mut self.len[x as usize];
        *len -= 1;
        self.edges[(self.start[x as usize] + *len) as usize].0
    }

    /// Lay the regions out afresh along `start`, all empty.
    fn reset(&mut self, start: Vec<u32>, slots: usize) {
        self.start = start;
        self.edges.clear();
        self.edges.resize(slots, (0, Lit::from_idx(0)));
        self.len.fill(0);
    }
}

/// The acyclicity theory state, over the known edges of `K`.
pub struct AcyclicityTheory<K = Staged> {
    pub(crate) known: K,
    n: usize,
    out: Active,
    inn: Active,
    /// Topological priority of each node (unique): the known edges' order
    /// from [`Self::start`] on, then Pearce–Kelly's.
    ord: Vec<u32>,
    /// Symbolic edges `(guard, u, v)` in registration order.
    symbolic: Vec<(Lit, u32, u32)>,
    /// How many of `symbolic` the indexes below (and the regions of `out` /
    /// `inn`) cover; `activate` re-indexes when edges were added.
    indexed: usize,
    /// CSR by guard: `Lit::idx()` → the `(u, v)` it enables.
    guard_start: Vec<u32>,
    guard_edges: Vec<(u32, u32)>,
    /// `(guard, target)` of every symbolic edge by source node — the
    /// candidates of `propagate`; its offsets are `out.start`.
    source_edges: Vec<(Lit, u32)>,
    /// LIFO log of activations: `(trail_pos, guard, u, v)`.
    activations: Vec<(usize, Lit, u32, u32)>,
    // Search scratch, reused by every `insert` and `propagate`: nodes and
    // guards are marked with a stamp instead of being cleared.
    stamp: u32,
    visited: Vec<u32>,
    /// Forward search tree: `(predecessor, guard of the edge from it)`.
    parent: Vec<(u32, Option<Lit>)>,
    /// Backward search tree: `(successor, guard of the edge to it)`.
    back: Vec<(u32, Option<Lit>)>,
    stack: Vec<u32>,
    delta_f: Vec<u32>,
    delta_b: Vec<u32>,
    slots: Vec<u32>,
    candidates: Vec<(Lit, u32, u32)>,
    /// Per guard: the `propagate` call that last implied it false.
    implied: Vec<u32>,
}

impl<K: KnownEdges> AcyclicityTheory<K> {
    /// A theory over the nodes and known edges of `known`, with no
    /// symbolic edge.
    pub fn with_known(known: K) -> Self {
        let n = known.nodes();
        AcyclicityTheory {
            known,
            n,
            out: Active::new(n),
            inn: Active::new(n),
            ord: Vec::new(),
            symbolic: Vec::new(),
            indexed: 0,
            guard_start: Vec::new(),
            guard_edges: Vec::new(),
            source_edges: Vec::new(),
            activations: Vec::new(),
            stamp: 0,
            visited: vec![0; n],
            parent: vec![(0, None); n],
            back: vec![(0, None); n],
            stack: Vec::new(),
            delta_f: Vec::new(),
            delta_b: Vec::new(),
            slots: Vec::new(),
            candidates: Vec::new(),
            implied: Vec::new(),
        }
    }

    /// Nodes + known edges + symbolic edges: what one pass over the whole
    /// graph touches, the unit a propagation budget is granted in.
    pub fn size(&self) -> usize {
        self.n + self.known.edges() + self.symbolic.len()
    }

    /// Guard literals that have at least one edge attached, ascending.
    pub fn guard_lits(&self) -> impl Iterator<Item = Lit> {
        let mut guards: Vec<Lit> = self.symbolic.iter().map(|&(g, _, _)| g).collect();
        guards.sort_unstable();
        guards.dedup();
        guards.into_iter()
    }

    /// Add a symbolic edge `u → v` guarded by `lit` (present iff `lit` is
    /// true in the assignment).
    pub fn add_symbolic_edge(&mut self, lit: Lit, u: u32, v: u32) {
        self.symbolic.push((lit, u, v));
    }

    /// Take the known edges' order ([`KnownEdges::order`]) as the one to
    /// maintain, unless it was taken already; before the first activation.
    /// `false` when the known edges alone close a cycle: the instance is
    /// then unsatisfiable whatever the symbolic edges.
    pub fn start(&mut self) -> bool {
        if self.ord.len() != self.n {
            let Some(ord) = self.known.order() else { return false };
            self.ord = ord;
        }
        true
    }

    /// Rebuild the by-guard and by-source indexes and the active regions
    /// over every registered symbolic edge. Edges already active keep their
    /// per-node activation order: the log is replayed into the new regions.
    fn index_symbolic(&mut self) {
        let lits = self.symbolic.iter().map(|e| e.0.idx() + 1).max().unwrap_or(0);
        let n = self.n;
        (self.guard_start, self.guard_edges) =
            bucket(lits, &self.symbolic, |e| e.0.idx() as u32, |e| (e.1, e.2));
        let (by_source, source_edges) = bucket(n, &self.symbolic, |e| e.1, |e| (e.0, e.2));
        let (by_target, _) = bucket(n, &self.symbolic, |e| e.2, |_| ());
        self.source_edges = source_edges;
        self.out.reset(by_source, self.symbolic.len());
        self.inn.reset(by_target, self.symbolic.len());
        for &(_, guard, u, v) in &self.activations {
            self.out.push(u, v, guard);
            self.inn.push(v, u, guard);
        }
        self.implied.clear();
        self.implied.resize(lits, 0);
        self.indexed = self.symbolic.len();
    }

    /// The range of `guard_edges` that `lit` enables.
    fn guard_range(&self, lit: Lit) -> std::ops::Range<usize> {
        match self.guard_start.get(lit.idx()..lit.idx() + 2) {
            Some(bounds) => bounds[0] as usize..bounds[1] as usize,
            None => 0..0,
        }
    }

    /// A mark no live entry of `visited` / `implied` carries.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.visited.fill(0);
            self.implied.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Activate every edge guarded by `lit` (which just became true at main
    /// trail position `trail_pos`). On a cycle, returns the conflict clause
    /// (guards of the cycle's symbolic edges, negated).
    pub fn activate(&mut self, lit: Lit, trail_pos: usize) -> Option<Vec<Lit>> {
        if self.indexed != self.symbolic.len() {
            self.index_symbolic();
        }
        for e in self.guard_range(lit) {
            let (u, v) = self.guard_edges[e];
            if u == v {
                return Some(vec![!lit]);
            }
            if let Some(mut clause) = self.insert(u, v) {
                clause.push(!lit);
                clause.sort_unstable();
                clause.dedup();
                return Some(clause);
            }
            self.out.push(u, v, lit);
            self.inn.push(v, u, lit);
            self.activations.push((trail_pos, lit, u, v));
        }
        None
    }

    /// Pearce–Kelly insertion check for edge `u → v` (not yet inserted):
    /// `None` if the order can accommodate it (reordering applied),
    /// `Some(guards)` if it closes a cycle (guards of the path `v ⇝ u`).
    fn insert(&mut self, u: u32, v: u32) -> Option<Vec<Lit>> {
        let (lb, ub) = (self.ord[v as usize], self.ord[u as usize]);
        if ub < lb {
            return None; // already in order
        }
        // Forward DFS from v over nodes with ord <= ub.
        let stamp = self.next_stamp();
        self.delta_f.clear();
        self.stack.clear();
        self.stack.push(v);
        self.visited[v as usize] = stamp;
        self.parent[v as usize] = (v, None);
        while let Some(x) = self.stack.pop() {
            self.delta_f.push(x);
            // Known neighbours first, then those over active edges (`guard`
            // is the edge's), the order every search visits them in.
            let known = self.known.out(x).map(|y| (y, None));
            for (y, guard) in known.chain(self.out.of(x).iter().map(|&(y, g)| (y, Some(g)))) {
                if y == u {
                    // Cycle: u → v ⇝ x → u. Collect guards along v ⇝ x,
                    // plus this closing edge's guard.
                    let mut clause = Vec::new();
                    if let Some(g) = guard {
                        clause.push(!g);
                    }
                    let mut cur = x;
                    while cur != v {
                        let (prev, g) = self.parent[cur as usize];
                        if let Some(g) = g {
                            clause.push(!g);
                        }
                        cur = prev;
                    }
                    return Some(clause);
                }
                if self.ord[y as usize] <= ub && self.visited[y as usize] != stamp {
                    self.visited[y as usize] = stamp;
                    self.parent[y as usize] = (x, guard);
                    self.stack.push(y);
                }
            }
        }
        // Backward DFS from u over nodes with ord >= lb. (No cycle is
        // possible here: it would have been found forward.)
        self.reach(false, u, lb, &mut { u64::MAX });
        // Reorder: δB (sources) must precede δF (sinks). Pool their current
        // priorities and redistribute.
        let ord = &mut self.ord;
        self.delta_b.sort_unstable_by_key(|&x| ord[x as usize]);
        self.delta_f.sort_unstable_by_key(|&x| ord[x as usize]);
        self.slots.clear();
        self.slots.extend(self.delta_b.iter().chain(&self.delta_f).map(|&x| ord[x as usize]));
        self.slots.sort_unstable();
        for (node, slot) in self.delta_b.iter().chain(&self.delta_f).zip(&self.slots) {
            ord[*node as usize] = *slot;
        }
        None
    }

    /// Undo all activations performed at main-trail positions `>= trail_len`.
    /// Removing edges keeps the topological order valid.
    pub fn rollback(&mut self, trail_len: usize) {
        while let Some(&(pos, _, u, v)) = self.activations.last() {
            if pos < trail_len {
                break;
            }
            self.activations.pop();
            let target = self.out.pop(u);
            debug_assert_eq!(target, v);
            let source = self.inn.pop(v);
            debug_assert_eq!(source, u);
        }
    }

    /// Theory propagation for `lit`, whose edges [`Self::activate`] has just
    /// put in without a conflict. For each such edge `u → v`: every
    /// symbolic edge `a → b` with `v ⇝ a` and `b ⇝ u` (over known ∪ active
    /// edges) would close a cycle, so unless `value` already has its guard
    /// `g` false a lemma `[¬g, ¬lit, ¬(guards on v ⇝ a), ¬(guards on
    /// b ⇝ u)]` is pushed onto `lemmas` — at most one per guard and call.
    /// Under an assignment that makes `lit` and the activated guards true,
    /// every literal of a lemma but the first is false: the caller implies
    /// `¬g` with the lemma as reason when `g` is unassigned, and has a
    /// conflict when `g` is true (assigned, not yet activated).
    ///
    /// Every node, adjacency entry and candidate entry touched takes one
    /// unit from `budget`. When it reaches zero the search is abandoned
    /// where it stands; lemmas already pushed are sound, the rest are simply
    /// not found — [`Self::activate`] still detects every cycle.
    pub fn propagate(
        &mut self,
        lit: Lit,
        value: impl Fn(Lit) -> LBool,
        budget: &mut u64,
        lemmas: &mut Vec<Vec<Lit>>,
    ) {
        let call = self.next_stamp();
        for e in self.guard_range(lit) {
            let (u, v) = self.guard_edges[e];
            if !self.reach(true, v, 0, budget) {
                return;
            }
            // Candidates: symbolic edges leaving the forward set whose
            // target the order does not already put after `u`.
            self.candidates.clear();
            let limit = self.ord[u as usize];
            let mut floor = u32::MAX;
            for &a in &self.delta_f {
                let from = self.out.start[a as usize] as usize;
                let to = self.out.start[a as usize + 1] as usize;
                if !charge(budget, to - from) {
                    return;
                }
                for &(g, b) in &self.source_edges[from..to] {
                    let pos = self.ord[b as usize];
                    if pos <= limit && self.implied[g.idx()] != call && value(g) != LBool::False {
                        self.candidates.push((g, a, b));
                        floor = floor.min(pos);
                    }
                }
            }
            if self.candidates.is_empty() {
                continue;
            }
            // A path b ⇝ u runs through positions ord(b) ..= ord(u) only.
            if !self.reach(false, u, floor, budget) {
                return;
            }
            let backward = self.stamp;
            for i in 0..self.candidates.len() {
                let (g, a, b) = self.candidates[i];
                if self.visited[b as usize] != backward || self.implied[g.idx()] == call {
                    continue;
                }
                self.implied[g.idx()] = call;
                let mut lemma = vec![!g, !lit];
                let mut path_guard = |guard: Option<Lit>| match guard {
                    Some(p) if p != lit => lemma.push(!p),
                    _ => {}
                };
                let mut cur = a;
                while cur != v {
                    let (prev, guard) = self.parent[cur as usize];
                    path_guard(guard);
                    cur = prev;
                }
                let mut cur = b;
                while cur != u {
                    let (next, guard) = self.back[cur as usize];
                    path_guard(guard);
                    cur = next;
                }
                lemma[2..].sort_unstable();
                lemma.dedup();
                lemmas.push(lemma);
            }
        }
    }

    /// Depth-first search from `from` — forward along out-edges into
    /// `delta_f` / `parent`, or backward along in-edges into `delta_b` /
    /// `back` — over nodes at positions `>= floor`, marking `visited` with
    /// a fresh stamp (left in `self.stamp`). Charges `budget` one unit per
    /// node and adjacency entry, once the node's entries are walked; `false`
    /// when it ran dry mid-search (what the search left is then unused).
    fn reach(&mut self, forward: bool, from: u32, floor: u32, budget: &mut u64) -> bool {
        let stamp = self.next_stamp();
        let Self { known, ord, visited, stack, out, inn, parent, back, delta_f, delta_b, .. } =
            self;
        let (active, tree, reached) =
            if forward { (out, parent, delta_f) } else { (inn, back, delta_b) };
        reached.clear();
        stack.clear();
        stack.push(from);
        visited[from as usize] = stamp;
        while let Some(x) = stack.pop() {
            reached.push(x);
            let mut degree = 0;
            let mut visit = |y: u32, guard: Option<Lit>| {
                degree += 1;
                if ord[y as usize] >= floor && visited[y as usize] != stamp {
                    visited[y as usize] = stamp;
                    tree[y as usize] = (x, guard);
                    stack.push(y);
                }
            };
            if forward {
                known.out(x).for_each(|y| visit(y, None));
            } else {
                known.inn(x).for_each(|y| visit(y, None));
            }
            active.of(x).iter().for_each(|&(y, g)| visit(y, Some(g)));
            if !charge(budget, 1 + degree) {
                return false;
            }
        }
        true
    }

    /// The *order certificate* of a complete assignment: whether the
    /// maintained topological priorities put the source of every known edge,
    /// and of every edge whose guard `is_true`, strictly before its target.
    ///
    /// `true` proves known ∪ enabled acyclic — `ord` is a permutation
    /// (the known edges' order is one, Pearce–Kelly only redistributes slots), and
    /// a cycle cannot descend strictly all the way round — at the cost of
    /// one pass over the edges and no allocation. The enabled edges are read
    /// from the registered edge list, not from the activation log, so the
    /// check does not trust the bookkeeping it certifies: a guard that is
    /// true but was never activated, or any other way of leaving the order
    /// stale, makes it answer `false`, never `true` wrongly. It answers
    /// `true` exactly when every true guard has been activated without
    /// conflict, which is the state the solver is in when it reports a
    /// model; the tests hold it against a rebuild-and-sort reference.
    pub fn order_certifies(&self, is_true: impl Fn(Lit) -> bool) -> bool {
        let in_order = |u: u32, v: u32| self.ord[u as usize] < self.ord[v as usize];
        let known = (0..self.n as u32).all(|u| self.known.out(u).all(|v| in_order(u, v)));
        known && self.symbolic.iter().filter(|e| is_true(e.0)).all(|&(_, u, v)| in_order(u, v))
    }
}

/// Take `cost` units from `budget`; `false` (and an empty budget) when it
/// does not hold that many.
fn charge(budget: &mut u64, cost: usize) -> bool {
    match budget.checked_sub(cost as u64) {
        Some(left) => {
            *budget = left;
            true
        }
        None => {
            *budget = 0;
            false
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(i: u32) -> Lit {
        Lit::pos(Var(i))
    }

    /// A theory over `n` nodes, its known edges staged.
    pub(crate) fn theory(n: usize) -> AcyclicityTheory {
        AcyclicityTheory::with_known(Staged::new(n))
    }

    /// The order-independent reference for a *complete* assignment: with
    /// `is_true(lit)` deciding guard truth, rebuild the full graph (known +
    /// all enabled symbolic edges) and sort it topologically.
    pub(crate) fn validate_model(t: &AcyclicityTheory, is_true: impl Fn(Lit) -> bool) -> bool {
        let mut out: Vec<Vec<u32>> = (0..t.n as u32).map(|u| t.known.out(u).collect()).collect();
        for &(u, v) in &t.known.staged {
            out[u as usize].push(v);
        }
        for &(guard, u, v) in &t.symbolic {
            if is_true(guard) {
                out[u as usize].push(v);
            }
        }
        let mut indeg = vec![0u32; t.n];
        for outs in &out {
            for &v in outs {
                indeg[v as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..t.n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &out[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        queue.len() == t.n
    }

    /// `propagate` with every other guard unassigned and no budget limit.
    fn propagate_all(t: &mut AcyclicityTheory, l: Lit) -> Vec<Vec<Lit>> {
        let (mut budget, mut lemmas) = (u64::MAX, Vec::new());
        t.propagate(
            l,
            |g| if g == l { LBool::True } else { LBool::Undef },
            &mut budget,
            &mut lemmas,
        );
        lemmas
    }

    #[test]
    fn bucket_is_a_stable_counting_sort() {
        let items = [(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e')];
        let (start, values) = bucket(4, &items, |e| e.0, |e| e.1);
        assert_eq!(start, vec![0, 2, 3, 5, 5]);
        assert_eq!(values, vec!['b', 'e', 'd', 'a', 'c']);
        let (start, values) = bucket(2, &[] as &[(u32, char)], |e| e.0, |e| e.1);
        assert_eq!((start, values), (vec![0, 0, 0], vec![]));
    }

    #[test]
    fn known_dag_starts() {
        let mut t = theory(3);
        t.known.add_edge(0, 1);
        t.known.add_edge(1, 2);
        assert!(t.start());
    }

    #[test]
    fn staging_keeps_each_node_s_edges_in_insertion_order() {
        let mut t = theory(4);
        for (u, v) in [(2, 3), (0, 3), (0, 1), (2, 0), (0, 2), (1, 3)] {
            t.known.add_edge(u, v);
        }
        // 2 → 0 → 2 is a cycle; the layout is what is under test.
        assert!(!t.start());
        assert_eq!(t.known.out(0).collect::<Vec<_>>(), [3, 1, 2]);
        assert_eq!(t.known.out(2).collect::<Vec<_>>(), [3, 0]);
        assert_eq!(t.known.inn(3).collect::<Vec<_>>(), [2, 0, 1]);
        assert_eq!(t.known.inn(0).collect::<Vec<_>>(), [2]);
        assert_eq!(t.size(), 4 + 6);
    }

    #[test]
    fn known_cycle_fails_the_start() {
        let mut t = theory(4);
        t.known.add_edge(0, 1);
        t.known.add_edge(1, 2);
        t.known.add_edge(2, 1);
        assert!(!t.start(), "1 → 2 → 1 is a known cycle");
    }

    #[test]
    fn symbolic_edge_closing_known_path_conflicts() {
        let mut t = theory(3);
        t.known.add_edge(0, 1);
        t.known.add_edge(1, 2);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 2, 0);
        assert_eq!(t.activate(lit(0), 0), Some(vec![!lit(0)]));
    }

    #[test]
    fn two_symbolic_edges_conflict_lists_both_guards() {
        let mut t = theory(3);
        t.known.add_edge(0, 1);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 2, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        let clause = t.activate(lit(1), 1).expect("cycle");
        let mut expect = vec![!lit(0), !lit(1)];
        expect.sort_unstable();
        assert_eq!(clause, expect);
    }

    #[test]
    fn rollback_removes_edges() {
        let mut t = theory(2);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 0, 1);
        t.add_symbolic_edge(lit(1), 1, 0);
        assert_eq!(t.activate(lit(0), 5), None);
        t.rollback(5);
        assert_eq!(t.activate(lit(1), 6), None);
        // And re-adding the first edge now conflicts again.
        let clause = t.activate(lit(0), 7).expect("cycle after re-activation");
        assert!(clause.contains(&!lit(0)));
    }

    #[test]
    fn self_loop_is_immediate_conflict() {
        let mut t = theory(1);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 0, 0);
        assert_eq!(t.activate(lit(0), 0), Some(vec![!lit(0)]));
    }

    #[test]
    fn validate_model_agrees() {
        let mut t = theory(3);
        t.known.add_edge(0, 1);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 2, 0);
        assert!(validate_model(&t, |l| l == lit(0)));
        assert!(!validate_model(&t, |_| true));
    }

    #[test]
    fn order_certificate_passes_activated_models_and_fails_stale_orders() {
        let mut t = theory(3);
        t.known.add_edge(0, 1);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 2, 0);
        // A true guard that was never activated: nothing ordered its edges.
        assert!(t.order_certifies(|_| false));
        assert!(!t.order_certifies(|l| l == lit(1)), "2 → 0 runs against the known order");
        // Activated: Pearce–Kelly has made room for the edge.
        assert_eq!(t.activate(lit(1), 0), None);
        assert!(t.order_certifies(|l| l == lit(1)));
        assert!(validate_model(&t, |l| l == lit(1)));
        // A cyclic assignment has no order at all.
        assert!(!t.order_certifies(|_| true));
        // One known edge reversed in the order: the certificate fails even
        // though the graph itself is still acyclic.
        t.ord.swap(0, 1);
        assert!(validate_model(&t, |l| l == lit(1)));
        assert!(!t.order_certifies(|l| l == lit(1)));
    }

    #[test]
    fn guard_lits_enumerates() {
        let mut t = theory(2);
        t.add_symbolic_edge(lit(3), 0, 1);
        t.add_symbolic_edge(!lit(0), 1, 0);
        t.add_symbolic_edge(lit(3), 1, 0);
        t.add_symbolic_edge(lit(0), 0, 1);
        assert_eq!(t.guard_lits().collect::<Vec<_>>(), vec![lit(0), !lit(0), lit(3)]);
    }

    #[test]
    fn reordering_keeps_later_insertions_cheap() {
        // Insert edges against the initial order, then verify a long chain
        // of further in-order edges is accepted.
        let mut t = theory(6);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 5, 0);
        t.add_symbolic_edge(lit(1), 0, 3);
        t.add_symbolic_edge(lit(2), 3, 1);
        t.add_symbolic_edge(lit(3), 1, 4);
        t.add_symbolic_edge(lit(4), 4, 2);
        for i in 0..5 {
            assert_eq!(t.activate(lit(i), i as usize), None, "edge {i}");
        }
        // The full chain is 5→0→3→1→4→2; closing it must conflict with all
        // guards.
        t.add_symbolic_edge(lit(5), 2, 5);
        let clause = t.activate(lit(5), 9).expect("cycle");
        assert_eq!(clause.len(), 6);
    }

    #[test]
    fn edges_added_after_activations_keep_the_active_ones() {
        // Two active edges out of node 0, then a re-index: both survive, in
        // activation order, and roll back in LIFO order.
        let mut t = theory(4);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 0, 2);
        t.add_symbolic_edge(lit(1), 0, 1);
        assert_eq!(t.activate(lit(1), 0), None);
        assert_eq!(t.activate(lit(0), 1), None);
        t.add_symbolic_edge(lit(2), 0, 3);
        t.add_symbolic_edge(lit(3), 2, 0);
        assert_eq!(t.activate(lit(2), 2), None);
        assert_eq!(t.out.of(0), [(1, lit(1)), (2, lit(0)), (3, lit(2))]);
        assert_eq!(t.inn.of(2), [(0, lit(0))]);
        assert_eq!(t.activate(lit(3), 3), Some(vec![!lit(0), !lit(3)]));
        t.rollback(1);
        assert_eq!(t.out.of(0), [(1, lit(1))]);
        assert_eq!(t.activate(lit(3), 1), None);
    }

    #[test]
    fn mixed_known_and_symbolic_cycle_reports_only_guards() {
        let mut t = theory(4);
        t.known.add_edge(0, 1);
        t.known.add_edge(2, 3);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 3, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        let clause = t.activate(lit(1), 1).expect("cycle");
        let mut expect = vec![!lit(0), !lit(1)];
        expect.sort_unstable();
        assert_eq!(clause, expect, "known edges contribute no literals");
    }

    #[test]
    fn propagation_implies_the_guards_that_would_close_a_cycle() {
        // Known 0 → 1 and 2 → 3; x0 guards 1 → 2. Once it is in, x1 (3 → 0)
        // would close 0 → 1 → 2 → 3 → 0 and x2 (3 → 1) the shorter cycle;
        // x3 (0 → 3) runs along the order and stays free.
        let mut t = theory(4);
        t.known.add_edge(0, 1);
        t.known.add_edge(2, 3);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 3, 0);
        t.add_symbolic_edge(lit(2), 3, 1);
        t.add_symbolic_edge(lit(3), 0, 3);
        assert_eq!(t.activate(lit(0), 0), None);
        let lemmas = propagate_all(&mut t, lit(0));
        assert_eq!(lemmas, vec![vec![!lit(1), !lit(0)], vec![!lit(2), !lit(0)]]);
        // The lazy check agrees with both lemmas.
        assert!(t.activate(lit(1), 1).is_some());
        t.rollback(1);
        assert!(t.activate(lit(2), 1).is_some());
    }

    #[test]
    fn propagation_reasons_carry_the_guards_of_both_paths() {
        // Chain of symbolic edges 0 → 1 → 2 → 3 activated out of order, so
        // the last activation (1 → 2) has guards before and behind it.
        let mut t = theory(4);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 0, 1);
        t.add_symbolic_edge(lit(1), 1, 2);
        t.add_symbolic_edge(lit(2), 2, 3);
        t.add_symbolic_edge(lit(3), 3, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        assert_eq!(t.activate(lit(2), 1), None);
        assert_eq!(propagate_all(&mut t, lit(2)), Vec::<Vec<Lit>>::new());
        assert_eq!(t.activate(lit(1), 2), None);
        assert_eq!(
            propagate_all(&mut t, lit(1)),
            vec![vec![!lit(3), !lit(1), !lit(0), !lit(2)]],
            "implied literal first, the activated guard second, path guards ascending"
        );
    }

    #[test]
    fn propagation_skips_false_guards_and_reports_true_ones() {
        let mut t = theory(2);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 0, 1);
        t.add_symbolic_edge(lit(1), 1, 0);
        t.add_symbolic_edge(lit(2), 1, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        let (mut budget, mut lemmas) = (u64::MAX, Vec::new());
        let value = |g: Lit| if g == lit(1) { LBool::False } else { LBool::True };
        t.propagate(lit(0), value, &mut budget, &mut lemmas);
        assert_eq!(lemmas, vec![vec![!lit(2), !lit(0)]], "x1 is false already; x2 is a conflict");
    }

    #[test]
    fn propagation_charges_what_it_touches_and_stops_when_dry() {
        let mut t = theory(4);
        t.known.add_edge(0, 1);
        t.known.add_edge(2, 3);
        assert!(t.start());
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 3, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        // Forward from 2: nodes 2, 3 and the edge 2 → 3; candidates: the
        // source entries of 2 (none) and 3 (one); backward from 1 down to
        // position ord(0): nodes 1, 0 and the edge 0 → 1.
        let full = 3 + 1 + 3;
        let mut budget = 100;
        let mut lemmas = Vec::new();
        t.propagate(lit(0), |_| LBool::Undef, &mut budget, &mut lemmas);
        assert_eq!((100 - budget, lemmas.len()), (full, 1));
        for granted in 0..full {
            let (mut budget, mut lemmas) = (granted, Vec::new());
            t.propagate(lit(0), |_| LBool::Undef, &mut budget, &mut lemmas);
            assert_eq!((budget, lemmas.len()), (0, 0), "abandoned at {granted} of {full}");
        }
    }
}
