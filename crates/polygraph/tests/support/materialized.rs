// `PruneConstraints` over constraints all stored before the first pass:
// the same staged passes as the production prune — a read-only sweep of
// the worklist against the pass oracle, resolutions applied in constraint
// order through `KnownGraph::insert_edges`, the forced constraints dropped
// from the store. The reference the generated first pass is held against,
// over the pairs it generates (`ConstraintGen::covers`); and, over every
// pair, the reference those pairs are held against (`check_covers`, and
// `check_delta_covers` for a stream delta's). `include!`d by the facade's
// `tests/prune_parallel.rs` in a module whose parent has the polygraph
// types in scope.

use super::{
    ConstraintGen, ConstraintSet, Edge, Flush, KnownGraph, KnownGraphResult, Label,
    Polygraph, PruneResult, PruneStats, Semantics, Tracer, TxnId,
};

/// What [`check_covers`] saw on one unit.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoversSeen {
    /// Writer pairs omitted.
    pub omitted: usize,
    /// Forced edges of omitted pairs that the final oracle implies.
    pub implied: usize,
    /// Forced `RW f→t` edges of omitted pairs that it does not imply,
    /// where `B(f) ⇝ B(t)` makes them redundant.
    pub redundant: usize,
    /// Omitted pairs whose forced side puts the later writer by id first
    /// (in a delta: the new writer ordered before an old one).
    pub later_first: usize,
}

/// `g` (no constraint stored) pruned over every pair of `gen` and over the
/// pairs [`ConstraintGen::covers`] keeps, both through the reference loop:
/// the same verdict, and on acceptance the same survivors and the same
/// `B`-to-`B` reachability between every two transactions. Every edge an
/// omitted pair would have forced is implied by the narrowed run's final
/// oracle, or is an `RW f→t` edge with `B(f) ⇝ B(t)` there.
pub fn check_covers(g: &Polygraph, gen: &ConstraintGen) -> Result<CoversSeen, String> {
    let oracle = |known: &[Edge]| match KnownGraph::build(g.n, known.to_vec(), g.semantics) {
        KnownGraphResult::Acyclic(kg) => Some(kg),
        KnownGraphResult::Cyclic { .. } => None,
    };
    let Some(kg) = oracle(&g.known) else { return Ok(CoversSeen::default()) };
    let covers = gen.covers(&kg);
    let (every, kept) = (gen.store(), covers.store());
    let run = |constraints: &ConstraintSet| {
        let mut g = Polygraph { constraints: constraints.clone(), ..g.clone() };
        let accepted = matches!(prune_materialized(&mut g), PruneResult::Pruned(_));
        (accepted, g)
    };
    let ((accepted, full), (narrowed_accepted, narrowed)) = (run(&every), run(&kept));
    if accepted != narrowed_accepted {
        return Err(format!("verdicts: every pair {accepted}, covers {narrowed_accepted}"));
    }
    let mut seen = CoversSeen { omitted: covers.omitted(), ..Default::default() };
    if !accepted {
        return Ok(seen);
    }
    if full.constraints != narrowed.constraints {
        return Err("survivors diverged".into());
    }
    let (kg_full, kg_narrowed) = (oracle(&full.known), oracle(&narrowed.known));
    let (kg_full, kg_narrowed) = kg_full.zip(kg_narrowed).ok_or("an accepted prune left a cycle")?;
    for (a, b) in (0..g.n as u32).flat_map(|a| (0..g.n as u32).map(move |b| (TxnId(a), TxnId(b)))) {
        if kg_full.reaches(a, b) != kg_narrowed.reaches(a, b) {
            return Err(format!("{a} ⇝ {b} diverged"));
        }
    }
    omitted_edges(g.semantics, &kg, &kg_narrowed, (&every, &kept), &mut seen)?;
    Ok(seen)
}

/// A stream delta's narrowing: `g`, whose stored constraints an earlier
/// prune left open, resumed on its known graph seeded with `seed`, over
/// the pairs of `delta` that [`ConstraintGen::covers`] keeps
/// (`Polygraph::prune_resume`) and over every pair (stored after the
/// survivors and seeded with their endpoints): the same verdict. On
/// acceptance every edge an omitted pair would have forced is implied by
/// the narrowed run's final oracle, or is an `RW f→t` edge with
/// `B(f) ⇝ B(t)` there.
pub fn check_delta_covers(
    g: &Polygraph,
    seed: &[bool],
    delta: &ConstraintGen,
) -> Result<CoversSeen, String> {
    let oracle = || match KnownGraph::build(g.n, g.known.clone(), g.semantics) {
        KnownGraphResult::Acyclic(kg) => Some(kg),
        KnownGraphResult::Cyclic { .. } => None,
    };
    let Some(kg) = oracle() else { return Ok(CoversSeen::default()) };
    let covers = delta.covers(&kg);
    let (every, kept) = (delta.store(), covers.store());
    let tracer = Tracer::disabled();
    let mut narrowed = g.clone();
    let (result, final_kg) = narrowed.prune_resume(oracle().expect("acyclic"), seed, delta, &tracer);
    let mut full = g.clone();
    full.constraints.extend(every.clone());
    let mut seed_all = seed.to_vec();
    delta.mark_endpoints(&mut seed_all);
    let default = ConstraintGen::default();
    let (full_result, _) = full.prune_resume(oracle().expect("acyclic"), &seed_all, &default, &tracer);
    let accepted = matches!(result, PruneResult::Pruned(_));
    if accepted != matches!(full_result, PruneResult::Pruned(_)) {
        return Err(format!("verdicts: every pair {}, covers {accepted}", !accepted));
    }
    let mut seen = CoversSeen { omitted: covers.omitted(), ..Default::default() };
    if !accepted {
        return Ok(seen);
    }
    let final_kg = final_kg.expect("an accepting prune returns its oracle");
    omitted_edges(g.semantics, &kg, &final_kg, (&every, &kept), &mut seen)?;
    Ok(seen)
}

/// Hold every constraint of `every` that `kept`, a subsequence of it,
/// skips against `fin`: the initial oracle `kg` orders each such pair, so
/// a first pass finds one side impossible (an accepted run, not both) and
/// forces the other, each edge of which `fin` must imply, or, an `RW f→t`
/// edge, make redundant by `B(f) ⇝ B(t)`.
fn omitted_edges(
    semantics: Semantics,
    kg: &KnownGraph,
    fin: &KnownGraph,
    (every, kept): (&ConstraintSet, &ConstraintSet),
    seen: &mut CoversSeen,
) -> Result<(), String> {
    let impossible = |side: &[Edge]| {
        side.iter().any(|e| match (semantics, e.label) {
            (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
            _ => kg.reaches(e.to, e.from),
        })
    };
    let mut kept = kept.iter().peekable();
    for c in every.iter() {
        if kept.next_if_eq(&c).is_some() {
            continue;
        }
        let forced = match (impossible(c.either), impossible(c.or)) {
            (true, false) => c.or,
            (false, true) => c.either,
            sides => return Err(format!("an omitted constraint is not ordered: {sides:?} {c:?}")),
        };
        seen.later_first += (forced[0].from > forced[0].to) as usize;
        for &e in forced {
            if fin.implies(e) {
                seen.implied += 1;
            } else if matches!(e.label, Label::Rw(_)) && fin.reaches(e.from, e.to) {
                seen.redundant += 1;
            } else {
                return Err(format!("omitted edge {e:?} of {c:?} is neither implied nor redundant"));
            }
        }
    }
    Ok(())
}

/// Prune `g`, whose constraints are all stored, to the worklist fixpoint.
/// `constraints_stored` is left 0: this loop has no first pass that stores.
/// `g.known` ends as the last oracle's edges.
pub fn prune_materialized(g: &mut Polygraph) -> PruneResult {
    let semantics = g.semantics;
    let impossible = |kg: &KnownGraph, e: &Edge| match (semantics, e.label) {
        (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
        _ => kg.reaches(e.to, e.from),
    };
    let mut kg = match g.known_graph() {
        Ok(kg) => kg,
        Err(cycle) => return PruneResult::Violation(cycle),
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
        let (inserted_before, mut side_edges) = (kg.inserted_edges(), 0usize);
        for (i, side, kept) in forced {
            for e in side {
                touched_now[e.from.idx()] = true;
                touched_now[e.to.idx()] = true;
            }
            side_edges += side.len();
            if let Err(cycle) = kg.insert_edges(&kept, Flush::Every(62)) {
                g.known = kg.into_edges();
                return PruneResult::Violation(cycle);
            }
            resolved[i] = true;
        }
        if let Some(witness) = contradiction {
            g.known = kg.into_edges();
            return PruneResult::Violation(witness);
        }
        stats.implied_edges += side_edges - (kg.inserted_edges() - inserted_before);
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
    g.known = kg.into_edges();
    PruneResult::Pruned(stats)
}
