// `PruneConstraints` (Algorithm 1, lines 10–32) the plain way: the
// reference `Polygraph::prune` is held against. Shared by the crate's unit
// tests and the facade's corpus sweep: each wraps an `include!` of this file
// in a module whose parent has the polygraph types in scope.

use super::{Edge, KnownGraph, KnownGraphResult, Label, Polygraph, Semantics};

/// Prune `g` to the worklist fixpoint; `false` if it violates its level.
///
/// Every pass rebuilds the reachability oracle from the *full* known list —
/// a resolved side is kept whole, nothing is dropped as implied — tests the
/// worklist against it, and lets the resolutions take effect at the next
/// pass's rebuild. Same worklist rule as the production loop (after the
/// first pass, only constraints incident to what the previous pass touched),
/// so on acceptance the surviving constraints are the production loop's
/// exactly, and `known` is a superset with the same reachability; a
/// violation may surface at a different point, so only the verdict compares.
pub fn prune_by_rebuild(g: &mut Polygraph) -> bool {
    let semantics = g.semantics;
    let impossible = |kg: &KnownGraph, side: &[Edge]| {
        side.iter().any(|e| match (semantics, e.label) {
            (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
            _ => kg.reaches(e.to, e.from),
        })
    };
    let mut touched: Option<Vec<bool>> = None;
    loop {
        let KnownGraphResult::Acyclic(kg) = KnownGraph::build(g.n, g.known.clone(), semantics) else {
            return false;
        };
        let mut touched_now = vec![false; g.n];
        let mut forced: Vec<Edge> = Vec::new();
        let mut contradiction = false;
        g.constraints.retain(|_, c| {
            if contradiction || touched.as_ref().is_some_and(|t| !c.incident(t)) {
                return true;
            }
            let side = match (impossible(&kg, c.either), impossible(&kg, c.or)) {
                (false, false) => return true,
                (true, true) => {
                    contradiction = true;
                    return true;
                }
                (true, false) => c.or,
                (false, true) => c.either,
            };
            for e in side {
                touched_now[e.from.idx()] = true;
                touched_now[e.to.idx()] = true;
            }
            forced.extend_from_slice(side);
            false
        });
        if contradiction {
            return false;
        }
        if forced.is_empty() {
            return true;
        }
        g.known.extend(forced);
        touched = Some(touched_now);
    }
}
