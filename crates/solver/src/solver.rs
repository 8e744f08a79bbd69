//! A CDCL SAT solver with an attached graph-acyclicity theory.
//!
//! The Boolean core is MiniSat-shaped: two-watched-literal propagation,
//! first-UIP conflict analysis, VSIDS decision order with activity decay,
//! phase saving, and Luby restarts.
//!
//! The theory (see [`crate::theory`]) **detects** after every Boolean
//! propagation fixpoint: the newly true guard literals activate their graph
//! edges; a cycle yields a theory conflict clause which is analyzed like
//! any other conflict (each learned clause is asserting, so the loop
//! terminates). Detection is complete and is the only judge — a model is
//! reported once every true guard is activated without a cycle, and the
//! theory's maintained order certifies it.
//!
//! The theory also **propagates** — a guard whose edge would close a cycle
//! is implied false, with the cycle's guards as a learned reason clause,
//! before the SAT core tries it — but only for a search that has shown it
//! needs it. The gate is a rule the solver observes on itself: propagation
//! is off until the search's first restart (`RESTART_BASE` conflicts; an
//! instance decided before that pays one branch per activation), and every
//! restart grants `PROPAGATION_PASSES` passes over the theory graph as a
//! work budget. Every graph entry a propagation touches is charged; a
//! search that runs the budget dry is abandoned and the solver stays lazy
//! until the next restart. Propagation is an accelerator: skipped or
//! abandoned, it costs conflicts, never a verdict. Boolean and theory
//! propagation alternate to a common fixpoint before each decision.
//!
//! Clause learning keeps every learned clause (no database reduction): the
//! instances produced by polygraph encoding after pruning are small, and the
//! simplicity pays for itself in auditability.

use crate::heap::ActivityHeap;
use crate::theory::{AcyclicityTheory, KnownEdges, Staged};
use crate::types::{LBool, Lit, Var};

/// Outcome of [`Solver::solve`].
#[derive(Debug)]
pub enum SolveResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The conflict budget ([`Solver::set_conflict_budget`]) was exhausted
    /// before a decision was reached.
    Unknown,
}

impl SolveResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    assigns: Vec<bool>,
}

impl Model {
    /// Value of a variable.
    pub fn value(&self, v: Var) -> bool {
        self.assigns[v.idx()]
    }

    /// Truth of a literal.
    pub fn lit_true(&self, l: Lit) -> bool {
        self.value(l.var()) == l.is_pos()
    }
}

/// Counters exposed for the evaluation's decomposition analysis.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of conflicts (Boolean + theory).
    pub conflicts: u64,
    /// Number of conflicts reported by the acyclicity theory.
    pub theory_conflicts: u64,
    /// Number of learned clauses retained.
    pub learned_clauses: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of literals implied by theory propagation.
    pub theory_propagations: u64,
    /// Graph entries (nodes, adjacency entries, candidate edges) theory
    /// propagation touched, i.e. what it charged to its work budget.
    pub theory_visits: u64,
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watcher need not be inspected.
    blocker: Lit,
}

enum Conflict {
    Clause(u32),
    Theory(Vec<Lit>),
}

/// The solver, reading its graph's known edges through `K`. See the module docs.
pub struct Solver<K = Staged> {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    theory_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    theory: Option<AcyclicityTheory<K>>,
    ok: bool,
    budget: Option<u64>,
    /// Theory-propagation work left until the next restart; zero (the gate
    /// is closed) until the first one.
    propagation_budget: u64,
    /// `stats.conflicts` when the first restart opened the gate.
    eager_from: Option<u64>,
    /// Whether a granted propagation budget ran dry.
    budget_exhausted: bool,
    /// Lemmas of one theory propagation (scratch).
    lemmas: Vec<Vec<Lit>>,
    stats: SolverStats,
    /// Span tracer ([`polysi_obs`]); disabled by default.
    tracer: polysi_obs::Tracer,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESTART_BASE: u64 = 100;
/// Theory-propagation work granted per restart, in passes over the theory
/// graph ([`AcyclicityTheory::size`] entries each).
const PROPAGATION_PASSES: u64 = 16;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// A pure-SAT solver (no graph).
    pub fn new() -> Self {
        Self::with_theory(None)
    }

    /// A solver whose model must additionally keep a graph over `n_nodes`
    /// nodes acyclic, its known edges added by [`Solver::add_known_edge`].
    pub fn with_graph(n_nodes: usize) -> Self {
        Self::with_known(Staged::new(n_nodes))
    }

    /// Add an unconditional graph edge `u → v` (must precede `solve`).
    pub fn add_known_edge(&mut self, u: u32, v: u32) {
        self.theory.as_mut().expect("graph edges require Solver::with_graph").known.add_edge(u, v);
    }
}

impl<K: KnownEdges> Solver<K> {
    /// A solver whose model must additionally keep the graph of `known`
    /// (its nodes and known edges, read in place) acyclic.
    pub fn with_known(known: K) -> Self {
        Self::with_theory(Some(AcyclicityTheory::with_known(known)))
    }

    fn with_theory(theory: Option<AcyclicityTheory<K>>) -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            theory_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: ActivityHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            theory,
            ok: true,
            budget: None,
            propagation_budget: 0,
            eager_from: None,
            budget_exhausted: false,
            lemmas: Vec::new(),
            stats: SolverStats::default(),
            tracer: polysi_obs::Tracer::default(),
        }
    }

    /// Allocate a fresh variable (initial phase: false).
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Solver statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Record a `sat.solve` span per [`Solver::solve`] call into `tracer`.
    pub fn set_tracer(&mut self, tracer: polysi_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Abort `solve` with [`SolveResult::Unknown`] once this many conflicts
    /// have occurred ([`SolverStats::conflicts`] is then exactly the budget;
    /// zero means the first conflict aborts) — a deterministic timeout.
    pub fn set_conflict_budget(&mut self, max_conflicts: u64) {
        self.budget = Some(max_conflicts);
    }

    /// Set the initial decision phase of a variable. A good initial phase
    /// (e.g. orienting write-order selectors along a topological order of
    /// the known graph) makes the first full assignment near-acyclic and
    /// cuts conflicts dramatically.
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v.idx()] = phase;
    }

    /// Add a graph edge `u → v` present iff `lit` is true.
    pub fn add_symbolic_edge(&mut self, lit: Lit, u: u32, v: u32) {
        self.theory.as_mut().expect("graph edges require a graph").add_symbolic_edge(lit, u, v);
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        lit_value(&self.assigns, l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause (pre-solve, at decision level 0). Duplicate literals are
    /// removed and tautologies dropped. Returns `false` if the solver became
    /// trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added pre-solve");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology or satisfied-at-0 check; drop false-at-0 literals.
        let mut out = Vec::with_capacity(c.len());
        for &l in &c {
            if c.binary_search(&!l).is_ok() {
                return true; // tautology: l and ¬l both present
            }
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                // Propagation of level-0 units happens in solve(); detect
                // immediate contradictions here.
                self.ok
            }
            _ => {
                self.attach_clause(out);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> u32 {
        debug_assert!(lits.len() >= 2);
        let ci = self.clauses.len() as u32;
        let w0 = Watcher { clause: ci, blocker: lits[1] };
        let w1 = Watcher { clause: ci, blocker: lits[0] };
        self.watches[(!lits[0]).idx()].push(w0);
        self.watches[(!lits[1]).idx()].push(w1);
        self.clauses.push(Clause { lits });
        ci
    }

    /// Assign `l` true with an optional reason clause. Returns `false` on
    /// contradiction with the current assignment.
    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.value(l) {
            LBool::True => true,
            LBool::False => {
                if self.decision_level() == 0 {
                    self.ok = false;
                }
                false
            }
            LBool::Undef => {
                let v = l.var();
                self.assigns[v.idx()] = LBool::from_bool(l.is_pos());
                self.level[v.idx()] = self.decision_level();
                self.reason[v.idx()] = reason;
                self.phase[v.idx()] = l.is_pos();
                self.trail.push(l);
                true
            }
        }
    }

    /// Boolean unit propagation to fixpoint. Returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.idx()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == LBool::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Ensure the false literal (¬p) sits at position 1.
                let false_lit = !p;
                {
                    let lits = &mut self.clauses[ci].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[kept] = Watcher { clause: w.clause, blocker: first };
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement = (2..self.clauses[ci].lits.len())
                    .find(|&k| self.value(self.clauses[ci].lits[k]) != LBool::False);
                if let Some(k) = replacement {
                    self.clauses[ci].lits.swap(1, k);
                    let new_watch = self.clauses[ci].lits[1];
                    self.watches[(!new_watch).idx()]
                        .push(Watcher { clause: w.clause, blocker: first });
                    continue; // watcher moved away from p's list
                }
                // Clause is unit or conflicting.
                ws[kept] = Watcher { clause: w.clause, blocker: first };
                kept += 1;
                if !self.enqueue(first, Some(w.clause)) {
                    // Conflict: keep the remaining watchers and bail.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                }
            }
            ws.truncate(kept);
            self.watches[p.idx()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Run the theory over trail entries not yet processed: activate each
    /// (detection) and, while the gate is open, propagate from it. Hands
    /// back to Boolean propagation as soon as the theory implied a literal.
    fn theory_check(&mut self) -> Option<Vec<Lit>> {
        if self.theory.is_none() {
            self.theory_head = self.trail.len();
            return None;
        }
        while self.theory_head < self.trail.len() && self.qhead == self.trail.len() {
            let l = self.trail[self.theory_head];
            let theory = self.theory.as_mut().expect("checked above");
            let mut conflict = theory.activate(l, self.theory_head);
            if conflict.is_none() {
                self.theory_head += 1;
                if self.propagation_budget > 0 {
                    conflict = self.theory_propagate(l);
                }
            }
            if conflict.is_some() {
                self.stats.theory_conflicts += 1;
                return conflict;
            }
        }
        None
    }

    /// Theory propagation from `l`, just activated: every lemma implies its
    /// first literal (attached as a learned clause, which is its reason) or,
    /// when that literal is already false, is the conflict returned. The
    /// second literal `¬l` is false at the current decision level — every
    /// trail entry the theory has not processed is — and the rest are false
    /// at or below it, so watching the first two keeps the watch invariant
    /// and `analyze` finds the implied literal first in its reason.
    fn theory_propagate(&mut self, l: Lit) -> Option<Vec<Lit>> {
        let theory = self.theory.as_mut().expect("theory_check found a theory");
        let mut lemmas = std::mem::take(&mut self.lemmas);
        let granted = self.propagation_budget;
        let assigns = &self.assigns;
        theory.propagate(l, |g| lit_value(assigns, g), &mut self.propagation_budget, &mut lemmas);
        self.stats.theory_visits += granted - self.propagation_budget;
        self.budget_exhausted |= self.propagation_budget == 0;
        let mut conflict = None;
        for lemma in lemmas.drain(..) {
            match self.value(lemma[0]) {
                LBool::True => {}
                LBool::False => {
                    conflict = Some(lemma);
                    break;
                }
                LBool::Undef => {
                    let implied = lemma[0];
                    let ci = self.attach_clause(lemma);
                    self.stats.learned_clauses += 1;
                    self.stats.theory_propagations += 1;
                    self.enqueue(implied, Some(ci));
                }
            }
        }
        self.lemmas = lemmas;
        conflict
    }

    /// Boolean and theory propagation to their common fixpoint.
    fn propagate_all(&mut self) -> Option<Conflict> {
        loop {
            if let Some(ci) = self.propagate() {
                return Some(Conflict::Clause(ci));
            }
            if let Some(clause) = self.theory_check() {
                return Some(Conflict::Theory(clause));
            }
            if self.qhead == self.trail.len() {
                return None;
            }
        }
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.idx()] += self.var_inc;
        if self.activity[v.idx()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();

        // Absorb the literals of one clause into the analysis state.
        macro_rules! absorb {
            ($lits:expr, $skip_first:expr) => {
                for &q in $lits.iter().skip(if $skip_first { 1 } else { 0 }) {
                    let v = q.var();
                    if !self.seen[v.idx()] && self.level[v.idx()] > 0 {
                        self.seen[v.idx()] = true;
                        to_clear.push(v);
                        self.bump(v);
                        if self.level[v.idx()] >= current {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            };
        }

        match &conflict {
            Conflict::Clause(ci) => {
                let lits = std::mem::take(&mut self.clauses[*ci as usize].lits);
                absorb!(lits, false);
                self.clauses[*ci as usize].lits = lits;
            }
            Conflict::Theory(lits) => absorb!(lits, false),
        }
        debug_assert!(counter > 0, "conflict must involve the current level");

        loop {
            // Find the next marked literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().idx()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var().idx()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p;
                break;
            }
            let ci = self.reason[p.var().idx()].expect("non-UIP implied var has a reason");
            let lits = std::mem::take(&mut self.clauses[ci as usize].lits);
            debug_assert_eq!(lits[0], p);
            absorb!(lits, true);
            self.clauses[ci as usize].lits = lits;
        }

        for v in to_clear {
            self.seen[v.idx()] = false;
        }

        // Backjump level: highest level among the non-asserting literals;
        // also move that literal to slot 1 so it gets watched.
        let blevel = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().idx()] > self.level[learnt[max_i].var().idx()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().idx()]
        };
        (learnt, blevel)
    }

    /// Undo assignments above `target_level`.
    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let new_len = self.trail_lim[target_level as usize];
        if let Some(t) = self.theory.as_mut() {
            t.rollback(new_len);
        }
        for i in (new_len..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.idx()] = LBool::Undef;
            self.reason[v.idx()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = new_len;
        self.theory_head = self.theory_head.min(new_len);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.idx()] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.idx()]));
            }
        }
        None
    }

    /// Solve the instance.
    pub fn solve(&mut self) -> SolveResult {
        if !self.tracer.is_enabled() {
            return self.solve_inner();
        }
        let tracer = self.tracer.clone();
        let mut span = tracer.span_kv("sat.solve", polysi_obs::kv! { vars: self.num_vars() });
        let before = self.stats;
        let result = self.solve_inner();
        span.attr(
            "result",
            match result {
                SolveResult::Sat(_) => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        span.attr("conflicts", self.stats.conflicts - before.conflicts);
        span.attr("propagations", self.stats.propagations - before.propagations);
        span.attr(
            "theory_propagations",
            self.stats.theory_propagations - before.theory_propagations,
        );
        if let Some(conflicts) = self.eager_from {
            span.attr("eager_from_conflict", conflicts);
        }
        span.attr("budget_exhausted", self.budget_exhausted);
        result
    }

    /// The CDCL search loop behind [`Solver::solve`].
    fn solve_inner(&mut self) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.theory.as_mut().is_some_and(|t| !t.start()) {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = RESTART_BASE * luby(self.stats.restarts + 1);
        loop {
            match self.propagate_all() {
                Some(conflict) => {
                    if self.budget.is_some_and(|b| self.stats.conflicts >= b) {
                        // Back to a state `solve` can be called on again.
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let (learnt, blevel) = self.analyze(conflict);
                    self.cancel_until(blevel);
                    let assert_lit = learnt[0];
                    if learnt.len() == 1 {
                        self.enqueue(assert_lit, None);
                    } else {
                        let ci = self.attach_clause(learnt);
                        self.stats.learned_clauses += 1;
                        self.enqueue(assert_lit, Some(ci));
                    }
                    self.var_inc *= VAR_DECAY;
                }
                None => {
                    if conflicts_since_restart >= restart_budget {
                        self.stats.restarts += 1;
                        conflicts_since_restart = 0;
                        restart_budget = RESTART_BASE * luby(self.stats.restarts + 1);
                        self.cancel_until(0);
                        if let Some(t) = &self.theory {
                            self.propagation_budget = PROPAGATION_PASSES * t.size() as u64;
                            self.eager_from.get_or_insert(self.stats.conflicts);
                        }
                        continue;
                    }
                    match self.pick_branch() {
                        Some(l) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, None);
                        }
                        None => {
                            let model = Model {
                                assigns: self.assigns.iter().map(|&a| a == LBool::True).collect(),
                            };
                            // Every variable is assigned and the theory has
                            // seen the whole trail, so every true guard is
                            // activated: the maintained order certifies the
                            // model without rebuilding its graph.
                            if let Some(t) = &self.theory {
                                assert!(
                                    t.order_certifies(|l| model.lit_true(l)),
                                    "internal error: model violates acyclicity"
                                );
                            }
                            return SolveResult::Sat(model);
                        }
                    }
                }
            }
        }
    }
}

#[inline]
fn lit_value(assigns: &[LBool], l: Lit) -> LBool {
    let v = assigns[l.var().idx()];
    if l.is_pos() {
        v
    } else {
        v.negate()
    }
}

/// The Luby restart sequence (1-based): 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(i: u64) -> u64 {
    let mut x = i - 1;
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: u32) -> Lit {
        Lit::pos(Var(i))
    }

    fn solver_with_vars(n: u32) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn luby_prefix() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_instance_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(0)]);
        s.add_clause(&[!lit(0), lit(1)]);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var(0)));
                assert!(m.value(Var(1)));
            }
            SolveResult::Unsat | SolveResult::Unknown => panic!("expected SAT"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(0)]);
        s.add_clause(&[!lit(0)]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(&[]));
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause(&[lit(0), !lit(0)]));
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn three_sat_example() {
        // (a ∨ b)(¬a ∨ c)(¬b ∨ c)(¬c ∨ d)(¬c ∨ ¬d) is UNSAT:
        // c is forced by a∨b, then d and ¬d conflict.
        let mut s = solver_with_vars(4);
        let (a, b, c, d) = (lit(0), lit(1), lit(2), lit(3));
        s.add_clause(&[a, b]);
        s.add_clause(&[!a, c]);
        s.add_clause(&[!b, c]);
        s.add_clause(&[!c, d]);
        s.add_clause(&[!c, !d]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: u32, j: u32| lit(i * 2 + j);
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn satisfiable_model_satisfies_all_clauses() {
        let mut s = solver_with_vars(5);
        let cls: Vec<Vec<Lit>> = vec![
            vec![lit(0), lit(1), lit(2)],
            vec![!lit(0), lit(3)],
            vec![!lit(1), !lit(3), lit(4)],
            vec![!lit(2), lit(4)],
            vec![!lit(4), lit(0), lit(1)],
        ];
        for c in &cls {
            s.add_clause(c);
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for c in &cls {
                    assert!(c.iter().any(|&l| m.lit_true(l)), "clause {c:?} unsatisfied");
                }
            }
            SolveResult::Unsat | SolveResult::Unknown => panic!("expected SAT"),
        }
    }

    #[test]
    fn graph_only_unsat_on_symbolic_cycle_forced() {
        let mut s = Solver::with_graph(2);
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_symbolic_edge(a, 0, 1);
        s.add_symbolic_edge(b, 1, 0);
        s.add_clause(&[a]);
        s.add_clause(&[b]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn graph_choice_resolved_to_avoid_cycle() {
        // Known 0→1; either 1→2 & 2→0 (cycle) or 1→2 only.
        let mut s = Solver::with_graph(3);
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_known_edge(0, 1);
        s.add_symbolic_edge(a, 1, 2);
        s.add_symbolic_edge(b, 2, 0);
        s.add_clause(&[a]);
        s.add_clause(&[a, b]); // satisfiable with b=false
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.lit_true(a));
                assert!(!m.lit_true(b));
            }
            SolveResult::Unsat | SolveResult::Unknown => panic!("expected SAT"),
        }
    }

    #[test]
    fn known_cycle_is_unsat() {
        let mut s = Solver::with_graph(2);
        s.add_known_edge(0, 1);
        s.add_known_edge(1, 0);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn exactly_one_direction_per_pair() {
        // Classic polygraph pattern: for nodes {0,1,2} pairwise choose an
        // orientation; any assignment of a DAG exists, so SAT.
        let mut s = Solver::with_graph(3);
        let mut pairs = Vec::new();
        for i in 0..3u32 {
            for j in (i + 1)..3u32 {
                let f = Lit::pos(s.new_var());
                let r = Lit::pos(s.new_var());
                s.add_symbolic_edge(f, i, j);
                s.add_symbolic_edge(r, j, i);
                s.add_clause(&[f, r]);
                s.add_clause(&[!f, !r]);
                pairs.push((i, j, f, r));
            }
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for (_, _, f, r) in pairs {
                    assert_ne!(m.lit_true(f), m.lit_true(r));
                }
            }
            SolveResult::Unsat | SolveResult::Unknown => panic!("expected SAT"),
        }
    }

    #[test]
    fn forced_total_order_with_back_edge_unsat() {
        // Chain 0→1→2→3 known, plus a symbolic 3→0 forced true.
        let mut s = Solver::with_graph(4);
        let e = Lit::pos(s.new_var());
        s.add_known_edge(0, 1);
        s.add_known_edge(1, 2);
        s.add_known_edge(2, 3);
        s.add_symbolic_edge(e, 3, 0);
        s.add_clause(&[e]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn stats_populated() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(0), lit(1)]);
        s.add_clause(&[!lit(0), lit(2)]);
        s.solve();
        assert!(s.stats().decisions > 0 || s.stats().propagations > 0);
    }

    #[test]
    fn negative_guard_literal_activates_edge() {
        // Edge guarded by ¬x: forcing x=false must activate the edge.
        let mut s = Solver::with_graph(2);
        let x = s.new_var();
        s.add_known_edge(0, 1);
        s.add_symbolic_edge(Lit::neg(x), 1, 0);
        s.add_clause(&[Lit::neg(x)]);
        assert!(!s.solve().is_sat());
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;

    /// Pigeonhole 6-into-5: unsatisfiable, and only after many conflicts.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole() -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> =
            (0..6).map(|_| (0..5).map(|_| Lit::pos(s.new_var())).collect()).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..5 {
            for a in 0..6 {
                for b in (a + 1)..6 {
                    s.add_clause(&[!p[a][j], !p[b][j]]);
                }
            }
        }
        s
    }

    /// The budget is exact: `Unknown` arrives with exactly that many
    /// conflicts analysed (zero: none), and leaves the solver in a state
    /// a larger budget can resume from.
    #[test]
    fn conflict_budget_reports_unknown() {
        for budget in [0, 1, 7] {
            let mut s = pigeonhole();
            s.set_conflict_budget(budget);
            assert!(matches!(s.solve(), SolveResult::Unknown), "budget {budget}");
            assert_eq!(s.stats().conflicts, budget);
            assert_eq!(s.stats().learned_clauses, budget, "every counted conflict was analysed");
            s.set_conflict_budget(budget + 3);
            assert!(matches!(s.solve(), SolveResult::Unknown));
            assert_eq!(s.stats().conflicts, budget + 3);
            s.set_conflict_budget(u64::MAX);
            assert!(matches!(s.solve(), SolveResult::Unsat), "resumed after budget {budget}");
        }
    }

    #[test]
    fn generous_budget_still_decides() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        s.add_clause(&[a]);
        s.set_conflict_budget(1_000);
        assert!(s.solve().is_sat());
    }
}

/// Theory propagation with the gate forced open — the private budget field
/// is the only switch there is — against brute force.
#[cfg(test)]
mod eager_tests {
    use super::*;
    use crate::theory::tests::validate_model;
    use proptest::prelude::*;

    /// CNF over `nv` variables plus known and symbolic edges over `nn` nodes.
    #[derive(Debug, Clone)]
    struct Instance {
        nv: u32,
        nn: u32,
        clauses: Vec<Vec<Lit>>,
        known: Vec<(u32, u32)>,
        symbolic: Vec<(Lit, u32, u32)>,
    }

    fn instance() -> impl Strategy<Value = Instance> {
        (2u32..7, 2u32..6).prop_flat_map(|(nv, nn)| {
            let lit = move || (0..nv, any::<bool>()).prop_map(|(v, s)| Lit::new(Var(v), s));
            let clauses = prop::collection::vec(prop::collection::vec(lit(), 1..4), 0..5);
            let known = prop::collection::vec((0..nn, 0..nn), 0..3);
            let symbolic = prop::collection::vec((lit(), 0..nn, 0..nn), 0..14);
            (clauses, known, symbolic).prop_map(move |(clauses, known, symbolic)| Instance {
                nv,
                nn,
                clauses,
                known,
                symbolic,
            })
        })
    }

    fn theory_of(inst: &Instance) -> AcyclicityTheory {
        let mut t = AcyclicityTheory::with_known(Staged::new(inst.nn as usize));
        for &(u, v) in &inst.known {
            t.known.add_edge(u, v);
        }
        for &(l, u, v) in &inst.symbolic {
            t.add_symbolic_edge(l, u, v);
        }
        t
    }

    fn eager_solver(inst: &Instance) -> Solver {
        let mut s = Solver::with_graph(inst.nn as usize);
        for _ in 0..inst.nv {
            s.new_var();
        }
        for c in &inst.clauses {
            s.add_clause(c);
        }
        s.theory = Some(theory_of(inst));
        s.propagation_budget = u64::MAX;
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Propagating from the first decision with no budget limit, the
        /// solver enumerates (model, blocking clause, again) exactly the
        /// models brute force counts — one lemma that is not a consequence
        /// would lose one — and every model satisfies the clauses, carries
        /// the order certificate and passes the rebuild-and-sort reference.
        #[test]
        fn forced_propagation_finds_exactly_the_brute_force_models(inst in instance()) {
            let reference = theory_of(&inst);
            let expected = (0u32..1 << inst.nv)
                .filter(|bits| {
                    let holds = |l: Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
                    inst.clauses.iter().all(|c| c.iter().any(|&l| holds(l)))
                        && validate_model(&reference, holds)
                })
                .count();
            let mut s = eager_solver(&inst);
            let mut found = 0;
            while let SolveResult::Sat(m) = s.solve() {
                found += 1;
                prop_assert!(found <= expected, "more models than brute force: {:?}", inst);
                for c in &inst.clauses {
                    prop_assert!(c.iter().any(|&l| m.lit_true(l)), "clause {:?}", c);
                }
                let theory = s.theory.as_ref().expect("with_graph");
                prop_assert!(theory.order_certifies(|l| m.lit_true(l)));
                prop_assert!(validate_model(theory, |l| m.lit_true(l)));
                s.cancel_until(0);
                let block: Vec<Lit> =
                    (0..inst.nv).map(|v| Lit::new(Var(v), !m.value(Var(v)))).collect();
                s.add_clause(&block);
            }
            prop_assert_eq!(found, expected, "models lost: {:?}", inst);
        }
    }

    /// Known 0 → 1, `a` guards 1 → 2 and is a unit: with the gate open `b`
    /// (2 → 0) is implied false at level 0 by the theory, where the lazy
    /// solver may decide it true first and pay a conflict.
    #[test]
    fn forced_propagation_implies_instead_of_conflicting() {
        let build = || {
            let mut s = Solver::with_graph(3);
            let (a, b) = (Lit::pos(s.new_var()), Lit::pos(s.new_var()));
            s.add_known_edge(0, 1);
            s.add_symbolic_edge(a, 1, 2);
            s.add_symbolic_edge(b, 2, 0);
            s.add_clause(&[a]);
            s.set_phase(b.var(), true);
            (s, b)
        };
        let (mut lazy, b) = build();
        assert!(matches!(lazy.solve(), SolveResult::Sat(m) if !m.lit_true(b)));
        assert_eq!((lazy.stats().conflicts, lazy.stats().theory_propagations), (1, 0));
        assert_eq!(lazy.stats().theory_visits, 0, "the gate never opened");

        let (mut eager, b) = build();
        eager.propagation_budget = u64::MAX;
        assert!(matches!(eager.solve(), SolveResult::Sat(m) if !m.lit_true(b)));
        assert_eq!((eager.stats().conflicts, eager.stats().theory_propagations), (0, 1));
        assert_eq!(eager.stats().decisions, 0);
        assert!(eager.stats().theory_visits > 0);
    }

    /// The gate is the first restart, and each restart's grant is
    /// `PROPAGATION_PASSES` graph passes: a ring of two-cell frustrations
    /// long enough to need a restart propagates only after it, and never
    /// spends more than the restarts granted.
    #[test]
    fn the_gate_opens_at_the_first_restart_and_the_budget_bounds_the_work() {
        // Cells i = 0..n: selector s_i orients a pair; s_i and s_{i+1} true
        // together close a cycle, as do ¬s_i and ¬s_{i+1} (an odd ring of
        // these is unsatisfiable, and only two-selector lemmas say why).
        let n = 301u32;
        let mut s = Solver::with_graph(4 * n as usize);
        let cells: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
        for i in 0..n {
            let j = (i + 1) % n;
            let (a, b, c, d) = (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3);
            let (ja, jb, jc, jd) = (4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3);
            s.add_symbolic_edge(cells[i as usize], a, b);
            s.add_symbolic_edge(!cells[i as usize], c, d);
            // b_i → a_j and b_j → a_i: both cells true closes a_i b_i a_j b_j.
            s.add_known_edge(b, ja);
            s.add_known_edge(jb, a);
            s.add_known_edge(d, jc);
            s.add_known_edge(jd, c);
        }
        assert!(matches!(s.solve(), SolveResult::Unsat));
        let stats = *s.stats();
        assert!(stats.restarts >= 1, "{stats:?}");
        assert_eq!(s.eager_from, Some(RESTART_BASE));
        assert!(stats.theory_propagations > 0, "{stats:?}");
        let size = s.theory.as_ref().expect("with_graph").size() as u64;
        assert!(stats.theory_visits <= PROPAGATION_PASSES * stats.restarts * size, "{stats:?}");
    }
}
