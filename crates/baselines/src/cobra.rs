//! A Cobra-style serializability checker \[Tan et al., OSDI'20\].
//!
//! Cobra checks **SER**: it searches for an acyclic dependency graph over
//! `SO ∪ WR ∪ WW ∪ RW` — *plain* acyclicity, no `(Dep);RW?` composition.
//! The pipeline mirrors PolySI's: build the polygraph, infer what can be
//! inferred, prune constraints by reachability, and hand the rest to the
//! SAT-modulo-acyclicity solver over a *single-layer* graph.
//!
//! Two Cobra optimizations are implemented:
//!
//! * **RMW inference**: if `T'` reads `x` from `T` and also writes `x`,
//!   then `T` immediately precedes `T'` in `x`'s version order under SER
//!   (any interposed writer would have been read instead), so
//!   `WW(T → T')` is a known edge. On TPC-C-like workloads this resolves
//!   nearly every constraint (Section 5.4.1 of the PolySI paper).
//! * **Reachability pruning**: a constraint side whose edge `(u, v)` has a
//!   known path `v ⇝ u` is impossible.
//!
//! No GPU acceleration exists in this environment; this corresponds to the
//! paper's "CobraSI w/o GPU" configuration (see the README's "Scaling and
//! substitutions").
//!
//! The same SER semantics (plain acyclicity + RMW inference) is also a
//! first-class mode of the main pipeline
//! (`polysi_checker::engine::IsolationLevel::Ser`, built on
//! `polysi_polygraph::Semantics::Ser`) with interpretation and sharding
//! support. This module deliberately keeps its own independent closure and
//! pruning implementation so the two can be differentially tested against
//! each other (see `tests/agreement.rs` and the conformance harness).

use polysi_history::{Facts, History};
use polysi_polygraph::{ConstraintGen, ConstraintMode, Edge, Label};
use polysi_solver::{Lit, SolveResult, Solver};
use std::collections::HashSet;

/// Outcome of a Cobra run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerVerdict {
    /// The history is serializable.
    Serializable,
    /// The history is not serializable (or fails the non-cyclic axioms).
    NotSerializable,
}

/// Statistics of a Cobra run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CobraStats {
    /// Constraints generated.
    pub constraints: usize,
    /// Constraints resolved by RMW inference + pruning.
    pub resolved: usize,
    /// Solver decisions.
    pub decisions: u64,
}

/// Options for the Cobra baseline.
#[derive(Debug, Clone, Copy)]
pub struct CobraOptions {
    /// Apply the read-modify-write version-order inference.
    pub rmw_inference: bool,
    /// Apply reachability-based constraint pruning.
    pub pruning: bool,
    /// Constraint representation.
    pub mode: ConstraintMode,
}

impl Default for CobraOptions {
    fn default() -> Self {
        CobraOptions { rmw_inference: true, pruning: true, mode: ConstraintMode::Generalized }
    }
}

/// Check a history for serializability, Cobra-style.
pub fn cobra_check_ser(h: &History, opts: &CobraOptions) -> (SerVerdict, CobraStats) {
    let facts = Facts::analyze(h);
    let mut stats = CobraStats::default();
    if !facts.axioms_ok() {
        return (SerVerdict::NotSerializable, stats);
    }
    let n = h.len();

    // Known edges: SO, WR, init-read anti-dependencies (under SER these are
    // plain edges too), plus RMW-inferred WW edges.
    let mut known: Vec<Edge> = Vec::new();
    for (a, b) in h.so_edges() {
        known.push(Edge::new(a, b, Label::So));
    }
    for (w, r, key) in facts.wr_edges() {
        known.push(Edge::new(w, r, Label::Wr(key)));
        if opts.rmw_inference && facts.writes_key(r, key) {
            known.push(Edge::new(w, r, Label::Ww(key)));
        }
    }
    for (key, readers) in Facts::by_key(&facts.init_readers) {
        if let Some(writers) = facts.writers.get(&key) {
            for &r in readers {
                for &w in writers {
                    if w != r {
                        known.push(Edge::new(r, w, Label::Rw(key)));
                    }
                }
            }
        }
    }

    // Constraints per key per writer pair (as in the polygraph).
    let mut constraints =
        ConstraintGen::new(&facts, facts.written_keys(), opts.mode, |t| t).store();
    stats.constraints = constraints.len();

    // Iterative reachability pruning over the plain known graph.
    if opts.pruning {
        loop {
            let Some(reach) = plain_closure(n, &known) else {
                // The known graph is already cyclic: not serializable.
                return (SerVerdict::NotSerializable, stats);
            };
            let resolved_before = stats.resolved;
            let mut contradiction = false;
            constraints.retain(|_, cons| {
                if contradiction {
                    return true;
                }
                let bad = |side: &[Edge]| side.iter().any(|e| reach.contains(&(e.to.0, e.from.0)));
                let forced = match (bad(cons.either), bad(cons.or)) {
                    (true, true) => {
                        contradiction = true;
                        return true;
                    }
                    (true, false) => cons.or,
                    (false, true) => cons.either,
                    (false, false) => return true,
                };
                known.extend_from_slice(forced);
                stats.resolved += 1;
                false
            });
            if contradiction {
                return (SerVerdict::NotSerializable, stats);
            }
            if stats.resolved == resolved_before {
                break;
            }
        }
    }

    // Encode: single-layer graph, every edge direct. Seed phases along a
    // topological order of the known graph (Cobra's "coalescing" analogue).
    let topo = plain_topo_positions(n, &known);
    let mut solver = Solver::with_graph(n);
    for e in &known {
        solver.add_known_edge(e.from.0, e.to.0);
    }
    for cons in &constraints {
        let var = solver.new_var();
        let s = Lit::pos(var);
        if let Some(topo) = &topo {
            let score = |side: &[Edge]| -> i64 {
                side.iter()
                    .map(|e| if topo[e.from.idx()] < topo[e.to.idx()] { 1i64 } else { -1 })
                    .sum()
            };
            solver.set_phase(var, score(cons.either) >= score(cons.or));
        }
        for e in cons.either {
            solver.add_symbolic_edge(s, e.from.0, e.to.0);
        }
        for e in cons.or {
            solver.add_symbolic_edge(!s, e.from.0, e.to.0);
        }
    }
    let verdict = match solver.solve() {
        SolveResult::Sat(_) => SerVerdict::Serializable,
        SolveResult::Unsat | SolveResult::Unknown => SerVerdict::NotSerializable,
    };
    stats.decisions = solver.stats().decisions;
    (verdict, stats)
}

/// Topological positions of the plain known graph; `None` if cyclic.
fn plain_topo_positions(n: usize, edges: &[Edge]) -> Option<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    for e in edges {
        adj[e.from.0 as usize].push(e.to.0);
        indeg[e.to.0 as usize] += 1;
    }
    let mut order: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in &adj[u as usize] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() < n {
        return None;
    }
    let mut pos = vec![0u32; n];
    for (p, &v) in order.iter().enumerate() {
        pos[v as usize] = p as u32;
    }
    Some(pos)
}

/// Transitive closure (as a pair set) of the plain known graph; `None` if
/// cyclic.
fn plain_closure(n: usize, edges: &[Edge]) -> Option<HashSet<(u32, u32)>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    for e in edges {
        adj[e.from.0 as usize].push(e.to.0);
        indeg[e.to.0 as usize] += 1;
    }
    let mut order: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in &adj[u as usize] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() < n {
        return None;
    }
    // Reverse-topological reach sets via bitsets.
    let mut reach = polysi_polygraph::bitset::BitMatrix::new(n);
    for &u in order.iter().rev() {
        for &v in &adj[u as usize] {
            reach.set(u as usize, v as usize);
            reach.or_row_into(v as usize, u as usize);
        }
    }
    let mut pairs = HashSet::new();
    for u in 0..n {
        for v in reach.iter_row(u) {
            pairs.insert((u as u32, v as u32));
        }
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, Value};

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    #[test]
    fn serial_history_serializable() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        let (verdict, _) = cobra_check_ser(&b.build(), &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::Serializable);
    }

    #[test]
    fn write_skew_not_serializable() {
        // Write skew is SI-allowed but not serializable: Cobra must reject.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit();
        let (verdict, _) = cobra_check_ser(&b.build(), &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::NotSerializable);
    }

    #[test]
    fn lost_update_not_serializable() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
        let (verdict, _) = cobra_check_ser(&b.build(), &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::NotSerializable);
    }

    #[test]
    fn rmw_inference_resolves_chains() {
        // A serial chain of read-modify-writes: with RMW inference, zero
        // constraints should survive pruning.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(2)).write(k(1), v(3)).commit();
        let h = b.build();
        let (verdict, stats) = cobra_check_ser(&h, &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::Serializable);
        assert_eq!(stats.resolved, stats.constraints);
    }

    #[test]
    fn concurrent_blind_writes_serializable() {
        // Two blind writes with a later read establishing the order.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(2)).commit();
        let (verdict, _) = cobra_check_ser(&b.build(), &CobraOptions::default());
        assert_eq!(verdict, SerVerdict::Serializable);
    }

    #[test]
    fn options_do_not_change_verdicts() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit();
        let h = b.build();
        let base = cobra_check_ser(&h, &CobraOptions::default()).0;
        for rmw in [false, true] {
            for pruning in [false, true] {
                for mode in [ConstraintMode::Generalized, ConstraintMode::Plain] {
                    let o = CobraOptions { rmw_inference: rmw, pruning, mode };
                    assert_eq!(cobra_check_ser(&h, &o).0, base, "opts {o:?}");
                }
            }
        }
    }
}
