//! CobraSI: checking SI by reduction to a serializability-style acyclicity
//! problem, as the PolySI paper does to obtain an SI baseline from Cobra
//! (Section 5.4: "the incremental algorithm [7, Section 4.3] for reducing
//! checking SI to checking serializability").
//!
//! The reduction doubles every transaction into a read point and a write
//! point; in our infrastructure that is exactly the *layered* graph of
//! `polysi_polygraph::KnownGraph` (boundary/mid nodes), so CobraSI here is:
//! plain (uncompacted) constraints + Cobra's optimizations (RMW inference,
//! WW reachability pruning — *without* PolySI's anti-dependency pruning
//! rule of Figure 4b) + the same SAT-modulo-acyclicity backend on the
//! doubled graph. It is sound and complete for SI but carries more
//! constraints and prunes less than PolySI, which is what the paper's
//! Figure 6 measures. No GPU variant exists here (README, "Scaling and
//! substitutions").

use polysi_history::{Facts, History};
use polysi_polygraph::{
    ConstraintGen, ConstraintMode, Edge, KnownGraph, KnownGraphResult, Label, Semantics,
};
use polysi_solver::{Lit, SolveResult, Solver};

/// Outcome of a CobraSI run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiVerdict {
    /// The history satisfies SI.
    Si,
    /// The history violates SI (or fails the non-cyclic axioms).
    NotSi,
}

/// Statistics of a CobraSI run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CobraSiStats {
    /// Constraints generated (plain form).
    pub constraints: usize,
    /// Constraints resolved by inference + pruning.
    pub resolved: usize,
    /// Solver decisions.
    pub decisions: u64,
}

/// Check SI via the doubled-graph reduction.
pub fn cobra_si_check(h: &History) -> (SiVerdict, CobraSiStats) {
    let mut stats = CobraSiStats::default();
    let facts = Facts::analyze(h);
    if !facts.axioms_ok() {
        return (SiVerdict::NotSi, stats);
    }
    let n = h.len();

    let mut known: Vec<Edge> = Vec::new();
    for (a, b) in h.so_edges() {
        known.push(Edge::new(a, b, Label::So));
    }
    for (w, r, key) in facts.wr_edges() {
        known.push(Edge::new(w, r, Label::Wr(key)));
        // RMW inference holds under SI too: first-committer-wins forces the
        // read version to immediately precede the reader's own write.
        if facts.writes_key(r, key) {
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

    let mut constraints =
        ConstraintGen::new(&facts, facts.written_keys(), ConstraintMode::Plain, |t| t).store();
    stats.constraints = constraints.len();

    // Cobra-style pruning: only the direct reachability rule, applied to
    // WW edges over the doubled graph, each round on an oracle rebuilt over
    // the known edges and what the last round forced. The oracle of the
    // round that forces nothing holds the known graph the solver gets.
    let kg = loop {
        let kg = match KnownGraph::build(n, known, Semantics::Si) {
            KnownGraphResult::Acyclic(g) => g,
            KnownGraphResult::Cyclic { .. } => return (SiVerdict::NotSi, stats),
        };
        let mut forced_edges: Vec<Edge> = Vec::new();
        let mut contradiction = false;
        constraints.retain(|_, cons| {
            if contradiction {
                return true;
            }
            let bad = |side: &[Edge]| {
                side.iter().any(|e| matches!(e.label, Label::Ww(_)) && kg.reaches(e.to, e.from))
            };
            let forced = match (bad(cons.either), bad(cons.or)) {
                (true, true) => {
                    contradiction = true;
                    return true;
                }
                (true, false) => cons.or,
                (false, true) => cons.either,
                (false, false) => return true,
            };
            forced_edges.extend_from_slice(forced);
            stats.resolved += 1;
            false
        });
        if contradiction {
            return (SiVerdict::NotSi, stats);
        }
        if forced_edges.is_empty() {
            break kg;
        }
        known = kg.into_edges();
        known.extend(forced_edges);
    };

    // Encode on the doubled (layered) graph; seed phases along the known
    // topological order.
    let topo = kg.layered_order();
    let mut solver = Solver::with_graph(Semantics::Si.layers() * n);
    let add_known = |solver: &mut Solver, e: &Edge| {
        let (f, t) = (e.from.0, e.to.0);
        if e.label.is_dep() {
            solver.add_known_edge(f, t);
            solver.add_known_edge(f, n as u32 + t);
        } else {
            solver.add_known_edge(n as u32 + f, t);
        }
    };
    let add_sym = |solver: &mut Solver, guard: Lit, e: &Edge| {
        let (f, t) = (e.from.0, e.to.0);
        if e.label.is_dep() {
            solver.add_symbolic_edge(guard, f, t);
            solver.add_symbolic_edge(guard, f, n as u32 + t);
        } else {
            solver.add_symbolic_edge(guard, n as u32 + f, t);
        }
    };
    for e in kg.edges() {
        add_known(&mut solver, e);
    }
    for cons in &constraints {
        let var = solver.new_var();
        let s = Lit::pos(var);
        let score = |side: &[Edge]| -> i64 {
            side.iter()
                .filter(|e| matches!(e.label, Label::Ww(_)))
                .map(|e| if topo[e.from.idx()] < topo[e.to.idx()] { 1i64 } else { -1 })
                .sum()
        };
        solver.set_phase(var, score(cons.either) >= score(cons.or));
        for e in cons.either {
            add_sym(&mut solver, s, e);
        }
        for e in cons.or {
            add_sym(&mut solver, !s, e);
        }
    }
    // The solver holds its own copy of the known graph.
    drop(kg);
    let verdict = match solver.solve() {
        SolveResult::Sat(_) => SiVerdict::Si,
        SolveResult::Unsat | SolveResult::Unknown => SiVerdict::NotSi,
    };
    stats.decisions = solver.stats().decisions;
    (verdict, stats)
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
    fn write_skew_is_si() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit();
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit();
        assert_eq!(cobra_si_check(&b.build()).0, SiVerdict::Si);
    }

    #[test]
    fn lost_update_is_not_si() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
        assert_eq!(cobra_si_check(&b.build()).0, SiVerdict::NotSi);
    }

    #[test]
    fn long_fork_is_not_si() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(10)).write(k(2), v(20)).commit();
        b.session();
        b.begin().write(k(1), v(11)).commit();
        b.session();
        b.begin().write(k(2), v(21)).commit();
        b.session();
        b.begin().read(k(1), v(11)).read(k(2), v(20)).commit();
        b.session();
        b.begin().read(k(1), v(10)).read(k(2), v(21)).commit();
        assert_eq!(cobra_si_check(&b.build()).0, SiVerdict::NotSi);
    }

    #[test]
    fn plain_constraints_outnumber_generalized() {
        // Sanity: CobraSI carries at least as many constraints as PolySI
        // would (the paper's compaction argument, Section 3.1).
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(2)).write(k(1), v(3)).commit();
        let h = b.build();
        let (_, stats) = cobra_si_check(&h);
        assert!(stats.constraints >= 3);
    }
}
