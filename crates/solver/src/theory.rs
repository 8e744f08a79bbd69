//! The graph-acyclicity theory.
//!
//! This is the monotonic theory PolySI needs from MonoSAT: a directed graph
//! whose edges are either *known* (unconditionally present) or *symbolic*
//! (present iff a guard literal is true), with the hard assertion that the
//! graph stays acyclic.
//!
//! Cycle detection is incremental à la Pearce–Kelly: the theory maintains a
//! topological order of all nodes under the currently-present edges.
//! Inserting an edge `u → v` with `ord(u) < ord(v)` costs O(1) — the common
//! case once the solver seeds decision phases along the known topological
//! order. An out-of-order insertion triggers a bounded double DFS of the
//! affected region, either producing the reordering or a cycle; a cycle
//! yields the conflict clause `¬g₁ ∨ … ∨ ¬gₖ` over the guards of the
//! symbolic edges on it (known edges contribute no literals — they are
//! facts). Edge deletion (solver backtracking) is O(1): removing edges
//! never invalidates a topological order.

use crate::types::Lit;
use std::collections::HashMap;

/// Result of finalizing the known subgraph.
#[derive(Debug, PartialEq, Eq)]
pub enum KnownGraph {
    /// The known edges form a DAG; solving may proceed.
    Acyclic,
    /// The known edges already contain a cycle (listed as node ids);
    /// the instance is unsatisfiable regardless of the symbolic edges.
    Cyclic(Vec<u32>),
}

/// The acyclicity theory state.
#[derive(Clone)]
pub struct AcyclicityTheory {
    n: usize,
    /// Out-edges: `(target, guard)`; `None` = known edge (permanent).
    out: Vec<Vec<(u32, Option<Lit>)>>,
    /// In-edges, mirroring `out`.
    inn: Vec<Vec<(u32, Option<Lit>)>>,
    /// Topological priority of each node (unique).
    ord: Vec<u32>,
    /// Guard literal → edges it enables.
    edges_of_lit: HashMap<Lit, Vec<(u32, u32)>>,
    /// LIFO log of activations: `(trail_len_at_activation, u, v)`.
    activations: Vec<(usize, u32, u32)>,
    finalized: bool,
    // DFS scratch (stamped to avoid clearing).
    stamp: u32,
    visited: Vec<u32>,
    parent: Vec<(u32, Option<Lit>)>,
}

impl AcyclicityTheory {
    /// A theory over `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        AcyclicityTheory {
            n,
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            ord: (0..n as u32).collect(),
            edges_of_lit: HashMap::new(),
            activations: Vec::new(),
            finalized: false,
            stamp: 0,
            visited: vec![0; n],
            parent: vec![(0, None); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Whether any symbolic edge is registered.
    pub fn has_symbolic_edges(&self) -> bool {
        !self.edges_of_lit.is_empty()
    }

    /// Guard literals that have at least one edge attached.
    pub fn guard_lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.edges_of_lit.keys().copied()
    }

    /// Add an unconditional edge `u → v`. Must precede [`Self::finalize`].
    pub fn add_known_edge(&mut self, u: u32, v: u32) {
        debug_assert!(!self.finalized, "known edges must be added before finalize");
        self.out[u as usize].push((v, None));
        self.inn[v as usize].push((u, None));
    }

    /// Add a symbolic edge `u → v` guarded by `lit` (present iff `lit` is
    /// true in the assignment).
    pub fn add_symbolic_edge(&mut self, lit: Lit, u: u32, v: u32) {
        self.edges_of_lit.entry(lit).or_default().push((u, v));
    }

    /// Topologically order the known subgraph. Returns
    /// [`KnownGraph::Cyclic`] with a witness cycle if the known edges alone
    /// are cyclic.
    pub fn finalize(&mut self) -> KnownGraph {
        self.finalized = true;
        let mut indeg = vec![0u32; self.n];
        for outs in &self.out {
            for &(v, _) in outs {
                indeg[v as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..self.n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &(v, _) in &self.out[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    order.push(v);
                }
            }
        }
        if order.len() < self.n {
            return KnownGraph::Cyclic(self.find_known_cycle(&indeg));
        }
        for (pos, &node) in order.iter().enumerate() {
            self.ord[node as usize] = pos as u32;
        }
        KnownGraph::Acyclic
    }

    /// Extract some cycle among known edges via an iterative DFS that looks
    /// for a back edge (restricted to nodes Kahn could not process).
    fn find_known_cycle(&self, indeg: &[u32]) -> Vec<u32> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.n];
        for start in 0..self.n {
            if indeg[start] == 0 || color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
            let mut path: Vec<u32> = vec![start as u32];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if let Some(&(v, _)) = self.out[u as usize].get(*next) {
                    *next += 1;
                    match color[v as usize] {
                        Color::Gray => {
                            let pos = path.iter().position(|&x| x == v).unwrap();
                            return path[pos..].to_vec();
                        }
                        Color::White => {
                            color[v as usize] = Color::Gray;
                            stack.push((v, 0));
                            path.push(v);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u as usize] = Color::Black;
                    stack.pop();
                    path.pop();
                }
            }
        }
        unreachable!("Kahn reported a cycle, so a DFS back edge must exist")
    }

    /// Activate every edge guarded by `lit` (which just became true at main
    /// trail position `trail_pos`). On a cycle, returns the conflict clause
    /// (guards of the cycle's symbolic edges, negated).
    pub fn activate(&mut self, lit: Lit, trail_pos: usize) -> Option<Vec<Lit>> {
        let edges = self.edges_of_lit.get(&lit)?.clone();
        for (u, v) in edges {
            if u == v {
                return Some(vec![!lit]);
            }
            if let Some(mut clause) = self.insert(u, v) {
                clause.push(!lit);
                clause.sort_unstable();
                clause.dedup();
                return Some(clause);
            }
            self.out[u as usize].push((v, Some(lit)));
            self.inn[v as usize].push((u, Some(lit)));
            self.activations.push((trail_pos, u, v));
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
        self.stamp += 1;
        let stamp = self.stamp;
        let mut delta_f: Vec<u32> = Vec::new();
        let mut stack = vec![v];
        self.visited[v as usize] = stamp;
        self.parent[v as usize] = (v, None);
        while let Some(x) = stack.pop() {
            delta_f.push(x);
            for i in 0..self.out[x as usize].len() {
                let (y, guard) = self.out[x as usize][i];
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
                    stack.push(y);
                }
            }
        }
        // Backward DFS from u over nodes with ord >= lb. (No cycle is
        // possible here: it would have been found forward.)
        let mut delta_b: Vec<u32> = Vec::new();
        let mut stack = vec![u];
        // Reuse stamps with a second marker value by bumping again.
        self.stamp += 1;
        let bstamp = self.stamp;
        self.visited[u as usize] = bstamp;
        while let Some(x) = stack.pop() {
            delta_b.push(x);
            for i in 0..self.inn[x as usize].len() {
                let (y, _) = self.inn[x as usize][i];
                if self.ord[y as usize] >= lb && self.visited[y as usize] != bstamp {
                    self.visited[y as usize] = bstamp;
                    stack.push(y);
                }
            }
        }
        // Reorder: δB (sources) must precede δF (sinks). Pool their current
        // priorities and redistribute.
        delta_b.sort_unstable_by_key(|&x| self.ord[x as usize]);
        delta_f.sort_unstable_by_key(|&x| self.ord[x as usize]);
        let mut slots: Vec<u32> =
            delta_b.iter().chain(delta_f.iter()).map(|&x| self.ord[x as usize]).collect();
        slots.sort_unstable();
        for (node, slot) in delta_b.iter().chain(delta_f.iter()).zip(slots) {
            self.ord[*node as usize] = slot;
        }
        None
    }

    /// Undo all activations performed at main-trail positions `>= trail_len`.
    /// Removing edges keeps the topological order valid.
    pub fn rollback(&mut self, trail_len: usize) {
        while let Some(&(pos, u, v)) = self.activations.last() {
            if pos < trail_len {
                break;
            }
            self.activations.pop();
            let popped = self.out[u as usize].pop();
            debug_assert_eq!(popped.map(|(t, _)| t), Some(v));
            let popped = self.inn[v as usize].pop();
            debug_assert_eq!(popped.map(|(s, _)| s), Some(u));
        }
    }

    /// The *order certificate* of a complete assignment: whether the
    /// maintained topological priorities put the source of every known edge,
    /// and of every edge whose guard `is_true`, strictly before its target.
    ///
    /// `true` proves known ∪ enabled acyclic — `ord` is a permutation
    /// (`finalize` assigns one, Pearce–Kelly only redistributes slots), and
    /// a cycle cannot descend strictly all the way round — at the cost of
    /// one pass over the edges and no allocation. The enabled edges are read
    /// from the guard index, not from the activation log, so the check does
    /// not trust the bookkeeping it certifies: a guard that is true but was
    /// never activated, or any other way of leaving the order stale, makes
    /// it answer `false`, never `true` wrongly. It answers `true` exactly
    /// when every true guard has been activated without conflict, which is
    /// the state the solver is in when it reports a model;
    /// [`Self::validate_model`] is the order-independent reference.
    pub fn order_certifies(&self, is_true: impl Fn(Lit) -> bool) -> bool {
        let in_order = |u: u32, v: u32| self.ord[u as usize] < self.ord[v as usize];
        let known = self.out.iter().enumerate().all(|(u, es)| {
            es.iter().filter(|(_, g)| g.is_none()).all(|&(v, _)| in_order(u as u32, v))
        });
        known
            && self
                .edges_of_lit
                .iter()
                .filter(|(&lit, _)| is_true(lit))
                .all(|(_, edges)| edges.iter().all(|&(u, v)| in_order(u, v)))
    }

    /// Check a *complete* assignment: with `is_true(lit)` deciding guard
    /// truth, verify the full graph (known + all enabled symbolic edges) is
    /// acyclic by rebuilding it and sorting it topologically. The solver
    /// certifies its models with [`Self::order_certifies`]; this is the
    /// reference the tests hold that certificate against.
    pub fn validate_model(&self, is_true: impl Fn(Lit) -> bool) -> bool {
        let mut out: Vec<Vec<u32>> = self
            .out
            .iter()
            .map(|es| es.iter().filter(|(_, g)| g.is_none()).map(|&(t, _)| t).collect())
            .collect();
        for (&lit, edges) in &self.edges_of_lit {
            if is_true(lit) {
                for &(u, v) in edges {
                    out[u as usize].push(v);
                }
            }
        }
        let mut indeg = vec![0u32; self.n];
        for outs in &out {
            for &v in outs {
                indeg[v as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..self.n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut seen = queue.len();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &out[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                    seen += 1;
                }
            }
        }
        seen == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(i: u32) -> Lit {
        Lit::pos(Var(i))
    }

    #[test]
    fn known_dag_finalizes() {
        let mut t = AcyclicityTheory::new(3);
        t.add_known_edge(0, 1);
        t.add_known_edge(1, 2);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
    }

    #[test]
    fn known_cycle_detected_with_witness() {
        let mut t = AcyclicityTheory::new(4);
        t.add_known_edge(0, 1);
        t.add_known_edge(1, 2);
        t.add_known_edge(2, 1);
        match t.finalize() {
            KnownGraph::Cyclic(c) => {
                assert_eq!(c.len(), 2);
                assert!(c.contains(&1) && c.contains(&2));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_edge_closing_known_path_conflicts() {
        let mut t = AcyclicityTheory::new(3);
        t.add_known_edge(0, 1);
        t.add_known_edge(1, 2);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
        t.add_symbolic_edge(lit(0), 2, 0);
        assert_eq!(t.activate(lit(0), 0), Some(vec![!lit(0)]));
    }

    #[test]
    fn two_symbolic_edges_conflict_lists_both_guards() {
        let mut t = AcyclicityTheory::new(3);
        t.add_known_edge(0, 1);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
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
        let mut t = AcyclicityTheory::new(2);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
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
        let mut t = AcyclicityTheory::new(1);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
        t.add_symbolic_edge(lit(0), 0, 0);
        assert_eq!(t.activate(lit(0), 0), Some(vec![!lit(0)]));
    }

    #[test]
    fn validate_model_agrees() {
        let mut t = AcyclicityTheory::new(3);
        t.add_known_edge(0, 1);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 2, 0);
        assert!(t.validate_model(|l| l == lit(0)));
        assert!(!t.validate_model(|_| true));
    }

    #[test]
    fn order_certificate_passes_activated_models_and_fails_stale_orders() {
        let mut t = AcyclicityTheory::new(3);
        t.add_known_edge(0, 1);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 2, 0);
        // A true guard that was never activated: nothing ordered its edges.
        assert!(t.order_certifies(|_| false));
        assert!(!t.order_certifies(|l| l == lit(1)), "2 → 0 runs against the known order");
        // Activated: Pearce–Kelly has made room for the edge.
        assert_eq!(t.activate(lit(1), 0), None);
        assert!(t.order_certifies(|l| l == lit(1)));
        assert!(t.validate_model(|l| l == lit(1)));
        // A cyclic assignment has no order at all.
        assert!(!t.order_certifies(|_| true));
        // One known edge reversed in the order: the certificate fails even
        // though the graph itself is still acyclic.
        t.ord.swap(0, 1);
        assert!(t.validate_model(|l| l == lit(1)));
        assert!(!t.order_certifies(|l| l == lit(1)));
    }

    #[test]
    fn guard_lits_enumerates() {
        let mut t = AcyclicityTheory::new(2);
        t.add_symbolic_edge(lit(0), 0, 1);
        assert!(t.has_symbolic_edges());
        assert_eq!(t.guard_lits().collect::<Vec<_>>(), vec![lit(0)]);
    }

    #[test]
    fn reordering_keeps_later_insertions_cheap() {
        // Insert edges against the initial order, then verify a long chain
        // of further in-order edges is accepted.
        let mut t = AcyclicityTheory::new(6);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
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
    fn mixed_known_and_symbolic_cycle_reports_only_guards() {
        let mut t = AcyclicityTheory::new(4);
        t.add_known_edge(0, 1);
        t.add_known_edge(2, 3);
        assert_eq!(t.finalize(), KnownGraph::Acyclic);
        t.add_symbolic_edge(lit(0), 1, 2);
        t.add_symbolic_edge(lit(1), 3, 0);
        assert_eq!(t.activate(lit(0), 0), None);
        let clause = t.activate(lit(1), 1).expect("cycle");
        let mut expect = vec![!lit(0), !lit(1)];
        expect.sort_unstable();
        assert_eq!(clause, expect, "known edges contribute no literals");
    }
}
