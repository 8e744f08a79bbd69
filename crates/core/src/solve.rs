//! The parallel Solve stage: deterministic cube-and-conquer and a seeded
//! portfolio over the constraint-selector encoding.
//!
//! After pruning, every surviving constraint is one Boolean *selector*
//! whose polarity picks a side of the constraint. That structure admits
//! two classic parallelization strategies, both implemented here over
//! cheap clones of the encoded pre-solve [`Solver`] state:
//!
//! * **Cube-and-conquer** ([`SolveMode::Cube`]): rank the selectors by how
//!   contended their constraints are (transaction-degree heuristic), fix
//!   the polarities of the top `k` as assumption literals, and solve the
//!   resulting `2^k` *cubes* — a partition of the assignment space — on a
//!   scoped thread pool. Cube 0 follows the seeded phases (the
//!   most-likely-SAT subspace); cube `i` flips the seeded polarity of
//!   selector bit `b` iff bit `b` of `i` is set.
//! * **Portfolio** ([`SolveMode::Portfolio`]): race identical copies of
//!   the whole instance whose search trajectories are deterministically
//!   perturbed per worker ([`Solver::reseed`]; worker 0 is the unseeded
//!   sequential solver). The first finisher cancels the rest.
//!
//! # Determinism contract
//!
//! Any [`SolveThreads`] setting — and either parallel mode — produces
//! **byte-identical verdicts and counterexample cycles**:
//!
//! * a cube is a restriction of the instance, and every model falls in
//!   exactly the cube matching its top-`k` polarities, so *some cube is
//!   SAT iff the instance is SAT* (the run accepts on the first SAT cube
//!   and rejects only when all cubes are UNSAT);
//! * portfolio workers all decide the *same* instance, so every finisher
//!   returns the same verdict (tie-break for the reported winner: lowest
//!   conflict count, then lowest worker index);
//! * on UNSAT the counterexample cycle is extracted from the *polygraph*
//!   (every uniform constraint resolution is cyclic — Definition 15), not
//!   from any worker's solver state.
//!
//! Solver *counters* ([`SolveStats::solver`]) are deterministic for
//! sequential runs and for cube runs at one thread; with racing workers
//! the set of units that finish before cancellation — and therefore the
//! merged counters and the reported winner — may vary run to run. The
//! verdict and witness never do.

use polysi_polygraph::Polygraph;
use polysi_solver::{Lit, SolveResult, Solver, SolverStats, Var};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which solve strategy to run (CLI: implied by `--solve-threads`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolveMode {
    /// Pick per instance: sequential at one thread or with no selectors,
    /// cube-and-conquer when enough selectors survive pruning to split
    /// on, portfolio for the few-selector instances cube splitting cannot
    /// help.
    #[default]
    Auto,
    /// Single sequential solver (the pre-parallel pipeline).
    Sequential,
    /// Deterministic cube-and-conquer over top-ranked selectors.
    Cube,
    /// Seeded portfolio over the whole instance.
    Portfolio,
}

/// Worker threads for the Solve stage. Purely a performance knob: any
/// setting yields byte-identical verdicts and counterexample cycles (see
/// the module docs for why). CLI `--solve-threads N|auto`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolveThreads {
    /// Use the machine's available parallelism, divided across concurrent
    /// shard pipelines when the history is sharded.
    #[default]
    Auto,
    /// Exactly `n` solver workers per pipeline unit (1 = sequential).
    Fixed(usize),
}

impl SolveThreads {
    /// Resolve to a concrete worker count for one of `units` concurrent
    /// pipeline units. Like `PruneThreads`, absurd fixed values degrade to
    /// oversubscription rather than exhausting the process thread limit.
    pub fn resolve(self, units: usize) -> usize {
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        match self {
            SolveThreads::Fixed(n) => n.clamp(1, cores.saturating_mul(4).max(64)),
            SolveThreads::Auto => (cores / units.max(1)).max(1),
        }
    }
}

/// The strategy actually run on one pipeline unit (recorded in
/// [`SolveStats`]; shard merging can mix them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveModeUsed {
    /// One sequential solver.
    Sequential,
    /// Cube-and-conquer.
    Cube,
    /// Seeded portfolio.
    Portfolio,
    /// Sharded run whose components used different strategies.
    Mixed,
}

impl SolveModeUsed {
    /// Stable lowercase name (CSV columns, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            SolveModeUsed::Sequential => "sequential",
            SolveModeUsed::Cube => "cube",
            SolveModeUsed::Portfolio => "portfolio",
            SolveModeUsed::Mixed => "mixed",
        }
    }
}

/// Counters of one Solve-stage run (merged across shards like the other
/// stage stats: counts add, the winner survives only if unambiguous).
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Strategy that ran.
    pub mode: SolveModeUsed,
    /// Worker threads resolved for the run.
    pub threads: usize,
    /// Cubes (cube mode) or workers (portfolio) launched or skipped.
    pub units: usize,
    /// Selectors fixed per cube (`k`; 0 outside cube mode).
    pub split_selectors: usize,
    /// The deciding unit: the first SAT cube observed, or the portfolio
    /// winner (lowest conflict count, then lowest index). `None` for
    /// sequential runs and all-UNSAT cube runs.
    pub winner: Option<usize>,
    /// Units that completed SAT.
    pub sat_units: usize,
    /// Units that completed UNSAT.
    pub unsat_units: usize,
    /// Units skipped or interrupted once the verdict was already decided.
    pub cancelled_units: usize,
    /// Solver counters summed over completed units.
    pub solver: SolverStats,
}

impl SolveStats {
    fn sequential(threads: usize, solver: SolverStats) -> SolveStats {
        SolveStats {
            mode: SolveModeUsed::Sequential,
            threads,
            units: 1,
            split_selectors: 0,
            winner: None,
            sat_units: 0,
            unsat_units: 0,
            cancelled_units: 0,
            solver,
        }
    }

    /// Merge per-shard stats: counts add up, `threads`/`split_selectors`
    /// take the maximum, the mode degrades to [`SolveModeUsed::Mixed`]
    /// when components disagree, and the winner survives only when
    /// exactly one side has one.
    pub fn merge(self, other: SolveStats) -> SolveStats {
        SolveStats {
            mode: if self.mode == other.mode { self.mode } else { SolveModeUsed::Mixed },
            threads: self.threads.max(other.threads),
            units: self.units + other.units,
            split_selectors: self.split_selectors.max(other.split_selectors),
            winner: match (self.winner, other.winner) {
                (Some(w), None) => Some(w),
                (None, Some(w)) => Some(w),
                _ => None,
            },
            sat_units: self.sat_units + other.sat_units,
            unsat_units: self.unsat_units + other.unsat_units,
            cancelled_units: self.cancelled_units + other.cancelled_units,
            solver: merge_solver_stats(self.solver, other.solver),
        }
    }
}

pub(crate) fn merge_solver_stats(a: SolverStats, b: SolverStats) -> SolverStats {
    SolverStats {
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        conflicts: a.conflicts + b.conflicts,
        theory_conflicts: a.theory_conflicts + b.theory_conflicts,
        learned_clauses: a.learned_clauses + b.learned_clauses,
        restarts: a.restarts + b.restarts,
    }
}

/// Resolved per-unit solve configuration (the engine computes this once
/// per check from `EngineOptions`).
#[derive(Clone, Copy, Debug)]
pub struct SolvePlan {
    /// Requested strategy ([`SolveMode::Auto`] decides per instance).
    pub mode: SolveMode,
    /// Concrete worker count (≥ 1).
    pub threads: usize,
}

impl Default for SolvePlan {
    fn default() -> Self {
        SolvePlan { mode: SolveMode::Auto, threads: 1 }
    }
}

/// Below this many surviving selectors, cube splitting cannot carve a
/// meaningful partition and `Auto` races a portfolio instead.
const CUBE_MIN_SELECTORS: usize = 8;

/// Bounds of the adaptive cube depth: at least `2^3` cubes (the former
/// fixed split) and at most `2^6` — beyond that the per-cube clone cost
/// dominates anything assumption-level pruning can recover.
const CUBE_SPLIT_MIN: usize = 3;
const CUBE_SPLIT_MAX: usize = 6;

/// Selectors fixed per cube (`2^k` cubes), adapted to the instance: the
/// depth grows logarithmically with the surviving selector count (big
/// instances can amortize more cubes), plus one when the ranking scores
/// are sharply skewed (a dominant selector means the top few decisions
/// really decompose the search — the overlapping-clique shape) — and
/// shrinks by one when the spread is flat (equal scores make extra splits
/// near-redundant subspaces). A pure function of the polygraph and the
/// degree hints, never of the thread count, so the cube set — and with it
/// every per-cube result — is the same for any `--solve-threads`.
fn cube_depth(selectors: usize, ranked: &[usize], score: impl Fn(usize) -> u64) -> usize {
    debug_assert!(selectors >= 1 && ranked.len() == selectors);
    // floor(log2(selectors)) - 2: 8..15 → 1, …, 1024.. → 8, then clamped.
    let log2 = usize::BITS as usize - 1 - selectors.leading_zeros() as usize;
    let mut k = log2.saturating_sub(2);
    let top = score(ranked[0]).max(1);
    let mid = score(ranked[selectors / 2]).max(1);
    if top >= 4 * mid {
        k += 1;
    } else if top <= 2 * mid {
        k = k.saturating_sub(1);
    }
    k.clamp(CUBE_SPLIT_MIN, CUBE_SPLIT_MAX).min(selectors)
}

/// Solve the encoded instance of `g`. `solver` must be the freshly
/// encoded pre-solve state (one selector variable per surviving
/// constraint, in constraint order); `degrees` optionally supplies
/// transaction degrees (unit-local ids) for the cube ranking — absent,
/// degrees are derived from the polygraph's own constraint edges.
///
/// Returns the SAT verdict and the run's [`SolveStats`]. On UNSAT the
/// caller extracts the counterexample from `g`, never from solver state.
pub fn run_solve(
    g: &Polygraph,
    solver: Solver,
    degrees: Option<&[u32]>,
    plan: &SolvePlan,
) -> (bool, SolveStats) {
    let selectors = g.constraints.len();
    let mode = match plan.mode {
        SolveMode::Auto => {
            if plan.threads <= 1 || selectors == 0 {
                SolveMode::Sequential
            } else if selectors >= CUBE_MIN_SELECTORS {
                SolveMode::Cube
            } else {
                SolveMode::Portfolio
            }
        }
        explicit => explicit,
    };
    match mode {
        SolveMode::Cube if selectors > 0 => cube_solve(g, solver, degrees, plan.threads),
        SolveMode::Portfolio => portfolio_solve(solver, plan.threads),
        _ => {
            let mut solver = solver;
            let sat = match solver.solve() {
                SolveResult::Sat(_) => true,
                SolveResult::Unsat => false,
                SolveResult::Unknown => unreachable!("the engine sets no conflict budget"),
            };
            (sat, SolveStats::sequential(plan.threads, *solver.stats()))
        }
    }
}

/// Encode `g` (with optional phase seeding) and solve it under `plan` —
/// the standalone entry point used by the `solve` bench's mode ablation
/// and the cube≡sequential property tests. The engine itself encodes once
/// (reusing the prune oracle for phase seeding) and calls [`run_solve`]
/// directly.
pub fn solve_polygraph(g: &Polygraph, phase_seeding: bool, plan: &SolvePlan) -> (bool, SolveStats) {
    solve_polygraph_with(g, phase_seeding, None, plan)
}

/// [`solve_polygraph`] with explicit transaction-degree hints for the
/// cube ranking (what the engine supplies from `Facts::txn_degree`;
/// without them the ranking falls back to degrees derived from the
/// constraint edges alone).
pub fn solve_polygraph_with(
    g: &Polygraph,
    phase_seeding: bool,
    degrees: Option<&[u32]>,
    plan: &SolvePlan,
) -> (bool, SolveStats) {
    let (solver, _) =
        crate::engine::encode(g, phase_seeding, None, polysi_polygraph::OracleKind::Auto);
    run_solve(g, solver, degrees, plan)
}

/// Encode `g` into a fresh pre-solve [`Solver`] (one selector variable
/// per constraint, phases seeded along the known graph's topological
/// order when requested) — the state [`run_solve`] consumes. Exposed for
/// the `solve` bench, which encodes once and clones per measured
/// configuration so the timed interval is the solve stage alone.
pub fn encode_polygraph(g: &Polygraph, phase_seeding: bool) -> Solver {
    crate::engine::encode(g, phase_seeding, None, polysi_polygraph::OracleKind::Auto).0
}

/// Rank selectors for cube splitting: a selector scores the summed
/// transaction degree over its constraint's edge endpoints — the most
/// contended constraints interact with the most others, so fixing them
/// first decomposes the search best. Ties break toward the lower
/// constraint index; the ranking is a pure function of the polygraph (and
/// the optional degree hints), never of thread count or timing.
fn rank_selectors(g: &Polygraph, deg: &[u32]) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..g.constraints.len()).collect();
    ranked.sort_by_key(|&ci| (std::cmp::Reverse(selector_score(g, deg, ci)), ci));
    ranked
}

/// Fallback transaction degrees when the caller supplies no hints:
/// endpoint counts over the constraint edges alone.
fn derive_degrees(g: &Polygraph) -> Vec<u32> {
    let mut d = vec![0u32; g.n];
    for e in g.constraints.edges() {
        d[e.from.idx()] += 1;
        d[e.to.idx()] += 1;
    }
    d
}

/// One selector's ranking score: summed transaction degree over its
/// constraint's edge endpoints.
fn selector_score(g: &Polygraph, deg: &[u32], ci: usize) -> u64 {
    g.constraints.get(ci).edges().map(|e| deg[e.from.idx()] as u64 + deg[e.to.idx()] as u64).sum()
}

/// What one cube/portfolio unit reported.
enum UnitOutcome {
    Sat,
    Unsat,
    Cancelled,
}

/// Deterministic cube-and-conquer (see the module docs).
fn cube_solve(
    g: &Polygraph,
    base: Solver,
    degrees: Option<&[u32]>,
    threads: usize,
) -> (bool, SolveStats) {
    let selectors = g.constraints.len();
    debug_assert_eq!(
        base.num_vars(),
        selectors,
        "encode allocates exactly one selector var per constraint"
    );
    let derived: Vec<u32>;
    let deg: &[u32] = match degrees {
        Some(d) => d,
        None => {
            derived = derive_degrees(g);
            &derived
        }
    };
    let ranked = rank_selectors(g, deg);
    let k = cube_depth(selectors, &ranked, |ci| selector_score(g, deg, ci));
    let split: Vec<Var> = ranked[..k].iter().map(|&ci| Var(ci as u32)).collect();
    let cubes = 1usize << k;
    // Cube i: selector bit b keeps its seeded phase iff bit b of i is 0.
    let cube_lits = |i: usize| -> Vec<Lit> {
        split
            .iter()
            .enumerate()
            .map(|(b, &v)| Lit::new(v, base.phase(v) ^ (i >> b & 1 == 1)))
            .collect()
    };
    let sat_found = Arc::new(AtomicBool::new(false));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, UnitOutcome, SolverStats)>> =
        Mutex::new(Vec::with_capacity(cubes));
    let workers = threads.min(cubes).max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cubes {
                    break;
                }
                // A SAT cube decides the run: later cubes are skipped, not
                // solved (accept on first SAT).
                if sat_found.load(Ordering::Relaxed) {
                    results.lock().expect("cube worker panicked").push((
                        i,
                        UnitOutcome::Cancelled,
                        SolverStats::default(),
                    ));
                    continue;
                }
                let mut solver = base.clone();
                solver.set_interrupt(Arc::clone(&sat_found));
                let outcome = match solver.solve_with_assumptions(&cube_lits(i)) {
                    SolveResult::Sat(_) => {
                        sat_found.store(true, Ordering::Relaxed);
                        UnitOutcome::Sat
                    }
                    SolveResult::Unsat => UnitOutcome::Unsat,
                    SolveResult::Unknown => UnitOutcome::Cancelled,
                };
                results.lock().expect("cube worker panicked").push((i, outcome, *solver.stats()));
            });
        }
    });
    let mut units = results.into_inner().expect("cube worker panicked");
    units.sort_by_key(|&(i, _, _)| i);
    finish_units(SolveModeUsed::Cube, threads, k, units)
}

/// Seeded portfolio: `threads` deterministic variations race the whole
/// instance; the first finisher cancels the rest.
fn portfolio_solve(base: Solver, threads: usize) -> (bool, SolveStats) {
    let workers = threads.max(1);
    let done = Arc::new(AtomicBool::new(false));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, UnitOutcome, SolverStats)>> =
        Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= workers {
                    break;
                }
                if done.load(Ordering::Relaxed) {
                    results.lock().expect("portfolio worker panicked").push((
                        i,
                        UnitOutcome::Cancelled,
                        SolverStats::default(),
                    ));
                    continue;
                }
                let mut solver = base.clone();
                solver.reseed(i as u64);
                solver.set_interrupt(Arc::clone(&done));
                let outcome = match solver.solve() {
                    SolveResult::Sat(_) => UnitOutcome::Sat,
                    SolveResult::Unsat => UnitOutcome::Unsat,
                    SolveResult::Unknown => UnitOutcome::Cancelled,
                };
                if !matches!(outcome, UnitOutcome::Cancelled) {
                    done.store(true, Ordering::Relaxed);
                }
                results.lock().expect("portfolio worker panicked").push((
                    i,
                    outcome,
                    *solver.stats(),
                ));
            });
        }
    });
    let mut units = results.into_inner().expect("portfolio worker panicked");
    units.sort_by_key(|&(i, _, _)| i);
    finish_units(SolveModeUsed::Portfolio, threads, 0, units)
}

/// Fold per-unit outcomes into the verdict and merged stats. Cube mode:
/// SAT iff any cube completed SAT (all cubes UNSAT otherwise — cancelled
/// units only ever exist when the verdict was already decided).
/// Portfolio: every completed unit agrees; the winner is the completed
/// unit with the fewest conflicts, lowest index on ties.
fn finish_units(
    mode: SolveModeUsed,
    threads: usize,
    split: usize,
    units: Vec<(usize, UnitOutcome, SolverStats)>,
) -> (bool, SolveStats) {
    let mut stats = SolveStats {
        mode,
        threads,
        units: units.len(),
        split_selectors: split,
        winner: None,
        sat_units: 0,
        unsat_units: 0,
        cancelled_units: 0,
        solver: SolverStats::default(),
    };
    let mut best: Option<(u64, usize)> = None;
    for (i, outcome, solver) in &units {
        match outcome {
            UnitOutcome::Sat => stats.sat_units += 1,
            UnitOutcome::Unsat => stats.unsat_units += 1,
            UnitOutcome::Cancelled => {
                stats.cancelled_units += 1;
                continue;
            }
        }
        stats.solver = merge_solver_stats(stats.solver, *solver);
        let key = (solver.conflicts, *i);
        match mode {
            // First SAT cube in index order.
            SolveModeUsed::Cube => {
                if matches!(outcome, UnitOutcome::Sat) && stats.winner.is_none() {
                    stats.winner = Some(*i);
                }
            }
            // Lowest conflicts, then lowest index, among finishers.
            _ => {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    stats.winner = Some(*i);
                }
            }
        }
    }
    let sat = stats.sat_units > 0;
    debug_assert!(
        mode != SolveModeUsed::Portfolio || stats.sat_units == 0 || stats.unsat_units == 0,
        "portfolio workers decided the same instance differently"
    );
    debug_assert!(
        stats.sat_units + stats.unsat_units > 0,
        "at least one unit must complete before cancellation can start"
    );
    (sat, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::TxnId;
    use polysi_polygraph::{ConstraintSet, Edge, Label, Semantics};

    fn ww(f: u32, t: u32) -> Edge {
        Edge::new(TxnId(f), TxnId(t), Label::Ww(polysi_history::Key(0)))
    }

    /// A polygraph whose solver instance is SAT: a ring of WW choices
    /// (acyclic orientations exist).
    fn ring(n: u32) -> Polygraph {
        let mut constraints = ConstraintSet::new();
        for i in 0..n {
            constraints.push(polysi_history::Key(0), [ww(i, (i + 1) % n)], [ww((i + 1) % n, i)]);
        }
        Polygraph { n: n as usize, known: Vec::new(), constraints, semantics: Semantics::Si }
    }

    fn encode(g: &Polygraph) -> Solver {
        crate::engine::encode(g, true, None, polysi_polygraph::OracleKind::Auto).0
    }

    #[test]
    fn auto_picks_by_selector_count_and_threads() {
        let g = ring(12);
        let seq = run_solve(&g, encode(&g), None, &SolvePlan { mode: SolveMode::Auto, threads: 1 });
        assert!(seq.0);
        assert_eq!(seq.1.mode, SolveModeUsed::Sequential);
        let cube =
            run_solve(&g, encode(&g), None, &SolvePlan { mode: SolveMode::Auto, threads: 4 });
        assert!(cube.0);
        assert_eq!(cube.1.mode, SolveModeUsed::Cube);
        let small = ring(3);
        let port = run_solve(
            &small,
            encode(&small),
            None,
            &SolvePlan { mode: SolveMode::Auto, threads: 4 },
        );
        assert!(port.0);
        assert_eq!(port.1.mode, SolveModeUsed::Portfolio);
    }

    #[test]
    fn cube_and_portfolio_agree_with_sequential_on_unsat() {
        // Make the ring unsatisfiable: known edges force both directions
        // between 0 and 1, so every orientation of the 0↔1 constraint
        // closes a cycle.
        let mut g = ring(10);
        g.known.push(ww(0, 1));
        g.known.push(ww(1, 0));
        for mode in [SolveMode::Sequential, SolveMode::Cube, SolveMode::Portfolio] {
            for threads in [1usize, 4] {
                let (sat, stats) = run_solve(&g, encode(&g), None, &SolvePlan { mode, threads });
                assert!(!sat, "{mode:?}/{threads} accepted an UNSAT instance");
                if stats.mode == SolveModeUsed::Cube {
                    assert_eq!(stats.winner, None, "all-UNSAT cube runs have no winner");
                    assert_eq!(stats.unsat_units + stats.cancelled_units, stats.units);
                }
            }
        }
    }

    #[test]
    fn cube_set_is_thread_independent() {
        let g = ring(16);
        for threads in [1usize, 2, 8] {
            let (sat, stats) =
                run_solve(&g, encode(&g), None, &SolvePlan { mode: SolveMode::Cube, threads });
            assert!(sat);
            // ring(16): equal scores (flat spread) → the minimum depth.
            assert_eq!(stats.split_selectors, CUBE_SPLIT_MIN);
            assert_eq!(stats.units, 1 << CUBE_SPLIT_MIN);
        }
    }

    #[test]
    fn cube_depth_adapts_to_size_and_spread() {
        let flat = |_: usize| 10u64;
        let ranked: Vec<usize> = (0..8).collect();
        assert_eq!(cube_depth(8, &ranked, flat), CUBE_SPLIT_MIN);
        let ranked: Vec<usize> = (0..64).collect();
        // log2(64)-2 = 4, flat spread → 3.
        assert_eq!(cube_depth(64, &ranked, flat), 3);
        // A dominant top selector deepens the split by one.
        let skew = |ci: usize| if ci == 0 { 100u64 } else { 10 };
        assert_eq!(cube_depth(64, &ranked, skew), 5);
        // Large instances saturate at the cap.
        let ranked: Vec<usize> = (0..4096).collect();
        assert_eq!(cube_depth(4096, &ranked, flat), CUBE_SPLIT_MAX);
        assert_eq!(cube_depth(4096, &ranked, skew), CUBE_SPLIT_MAX);
        // Never more splits than selectors (explicit Cube mode on tiny
        // instances).
        let ranked: Vec<usize> = (0..2).collect();
        assert_eq!(cube_depth(2, &ranked, flat), 2);
    }

    /// Adaptive depth keeps the determinism contract: identical verdicts
    /// for every thread count at every instance size the depth rule can
    /// pick differently.
    #[test]
    fn cube_depths_agree_with_sequential_across_sizes() {
        for n in [8u32, 20, 40, 70] {
            let g = ring(n);
            let (seq, _) = run_solve(
                &g,
                encode(&g),
                None,
                &SolvePlan { mode: SolveMode::Sequential, threads: 1 },
            );
            for threads in [1usize, 4] {
                let (sat, stats) =
                    run_solve(&g, encode(&g), None, &SolvePlan { mode: SolveMode::Cube, threads });
                assert_eq!(sat, seq, "ring({n}) cube/{threads} diverged");
                assert_eq!(stats.units, 1 << stats.split_selectors);
            }
        }
    }

    #[test]
    fn ranking_is_deterministic_and_degree_driven() {
        let mut g = ring(8);
        // Tie-break: equal scores rank by index (derived degrees).
        assert_eq!(rank_selectors(&g, &derive_degrees(&g))[0], 0);
        // A hub transaction boosts every constraint touching it.
        g.constraints.push(polysi_history::Key(1), [ww(0, 4)], [ww(4, 0)]);
        let degrees: Vec<u32> = (0..8).map(|i| if i == 4 { 100 } else { 1 }).collect();
        let ranked = rank_selectors(&g, &degrees);
        let top = ranked[0];
        let touches_hub = |ci: usize| {
            g.constraints.get(ci).edges().any(|e| e.from == TxnId(4) || e.to == TxnId(4))
        };
        assert!(touches_hub(top), "top selector must touch the high-degree txn");
    }

    #[test]
    fn portfolio_winner_reported() {
        let g = ring(4);
        let (sat, stats) =
            run_solve(&g, encode(&g), None, &SolvePlan { mode: SolveMode::Portfolio, threads: 1 });
        assert!(sat);
        // One thread: worker 0 finishes first and wins outright.
        assert_eq!(stats.winner, Some(0));
        assert_eq!(stats.sat_units, 1);
    }

    #[test]
    fn solve_threads_resolve() {
        assert_eq!(SolveThreads::Fixed(3).resolve(8), 3);
        assert_eq!(SolveThreads::Fixed(0).resolve(1), 1);
        assert!(SolveThreads::Auto.resolve(1) >= 1);
        assert!(SolveThreads::Auto.resolve(usize::MAX) >= 1);
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        assert_eq!(SolveThreads::Fixed(usize::MAX).resolve(1), cores.saturating_mul(4).max(64));
    }
}
