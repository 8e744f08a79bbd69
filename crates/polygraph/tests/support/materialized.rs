// `PruneConstraints` over constraints all stored before the first pass:
// the same staged passes as the production prune — a read-only sweep of
// the worklist against the pass oracle, resolutions applied in constraint
// order through `KnownGraph::insert_edges`, the forced constraints dropped
// from the store — sequential, as the production sweep's results do not
// depend on its thread count. The reference the generated first pass is
// held against; `include!`d by the facade's `tests/prune_parallel.rs` in a
// module whose parent has the polygraph types in scope.

use super::{
    Edge, Flush, KnownGraph, KnownGraphResult, Label, Polygraph, PruneResult, PruneStats, Semantics,
};

/// Prune `g`, whose constraints are all stored, to the worklist fixpoint.
/// `constraints_stored` is left 0: this loop has no first pass that stores.
pub fn prune_materialized(g: &mut Polygraph) -> PruneResult {
    let semantics = g.semantics;
    let impossible = |kg: &KnownGraph, e: &Edge| match (semantics, e.label) {
        (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
        _ => kg.reaches(e.to, e.from),
    };
    let mut kg = match KnownGraph::build(g.n, &g.known, semantics) {
        KnownGraphResult::Acyclic(kg) => kg,
        KnownGraphResult::Cyclic(cycle) => return PruneResult::Violation(cycle),
    };
    let mut stats = PruneStats {
        constraints_before: g.constraints.len(),
        unknown_deps_before: g.constraints.num_edges(),
        graph_builds: 1,
        ..Default::default()
    };
    let (updates_before, edges_before) = (kg.closure_updates(), kg.inserted_edges());
    let mut touched: Option<Vec<bool>> = None;
    loop {
        stats.iterations += 1;
        // Sweep: (constraint, forced side, its edges the oracle does not
        // imply), up to the first contradiction.
        let mut forced: Vec<(usize, &[Edge], Vec<Edge>)> = Vec::new();
        let mut contradiction = None;
        for (i, c) in g.constraints.iter().enumerate() {
            if touched.as_ref().is_some_and(|t| !c.incident(t)) {
                continue;
            }
            let bad = |side: &[Edge]| side.iter().any(|e| impossible(&kg, e));
            let side = match (bad(c.either), bad(c.or)) {
                (false, false) => continue,
                (true, true) => {
                    let e = c.either.iter().find(|e| impossible(&kg, e)).expect("impossible");
                    contradiction = Some(kg.closing_cycle(*e).expect("a witness"));
                    break;
                }
                (true, false) => c.or,
                (false, true) => c.either,
            };
            let kept = side.iter().copied().filter(|&e| !kg.implies(e)).collect();
            forced.push((i, side, kept));
        }
        // Apply, in constraint order.
        let mut touched_now = vec![false; g.n];
        let mut resolved = vec![false; g.constraints.len()];
        let (known_before, mut side_edges) = (g.known.len(), 0usize);
        for (i, side, kept) in forced {
            for e in side {
                touched_now[e.from.idx()] = true;
                touched_now[e.to.idx()] = true;
            }
            side_edges += side.len();
            if let Err(cycle) = kg.insert_edges(&kept, &mut g.known, Flush::Every(62)) {
                return PruneResult::Violation(cycle);
            }
            resolved[i] = true;
        }
        if let Some(witness) = contradiction {
            return PruneResult::Violation(witness);
        }
        stats.implied_edges += side_edges - (g.known.len() - known_before);
        kg.flush_closure();
        if !resolved.contains(&true) {
            break;
        }
        g.constraints.retain(|i, _| !resolved[i]);
        touched = Some(touched_now);
    }
    stats.closure_updates = kg.closure_updates() - updates_before;
    stats.incremental_edges = kg.inserted_edges() - edges_before;
    stats.constraints_after = g.constraints.len();
    stats.unknown_deps_after = g.constraints.num_edges();
    PruneResult::Pruned(stats)
}
