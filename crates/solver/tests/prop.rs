//! Property tests: the CDCL solver with the acyclicity theory must agree
//! with brute-force enumeration on random small instances, over the staged
//! view of the known edges and over a borrowed one that starts the theory
//! from a shuffled topological order.

use polysi_solver::theory::{AcyclicityTheory, KnownEdges, Staged};
use polysi_solver::{LBool, Lit, Model, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random instance: CNF over `nv` vars plus symbolic edges over `nn` nodes.
#[derive(Debug, Clone)]
struct Instance {
    nv: u32,
    nn: u32,
    clauses: Vec<Vec<Lit>>,
    known_edges: Vec<(u32, u32)>,
    sym_edges: Vec<(Lit, u32, u32)>,
}

fn lit_strategy(nv: u32) -> impl Strategy<Value = Lit> {
    (0..nv, any::<bool>()).prop_map(|(v, s)| Lit::new(Var(v), s))
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2u32..6, 2u32..6).prop_flat_map(|(nv, nn)| {
        let clause = prop::collection::vec(lit_strategy(nv), 1..4);
        let clauses = prop::collection::vec(clause, 0..8);
        let known = prop::collection::vec((0..nn, 0..nn), 0..4);
        let sym = prop::collection::vec((lit_strategy(nv), 0..nn, 0..nn), 0..6);
        (clauses, known, sym).prop_map(move |(clauses, known_edges, sym_edges)| Instance {
            nv,
            nn,
            clauses,
            known_edges,
            sym_edges,
        })
    })
}

/// Ground truth: try all 2^nv assignments; check clauses and acyclicity.
fn brute_force_sat(inst: &Instance) -> bool {
    let nv = inst.nv;
    'assignments: for bits in 0u32..(1 << nv) {
        let lit_true = |l: Lit| {
            let b = bits >> l.var().0 & 1 == 1;
            b == l.is_pos()
        };
        for c in &inst.clauses {
            if !c.iter().any(|&l| lit_true(l)) {
                continue 'assignments;
            }
        }
        // Cycle check over known + enabled symbolic edges (Kahn).
        let n = inst.nn as usize;
        let mut out = vec![Vec::new(); n];
        for &(u, v) in &inst.known_edges {
            out[u as usize].push(v as usize);
        }
        for &(l, u, v) in &inst.sym_edges {
            if lit_true(l) {
                out[u as usize].push(v as usize);
            }
        }
        let mut indeg = vec![0usize; n];
        for o in &out {
            for &v in o {
                indeg[v] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &out[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if queue.len() == n {
            return true;
        }
    }
    false
}

/// The known edges of `nn` nodes as the staged view holds them.
fn staged(nn: u32, known_edges: &[(u32, u32)]) -> Staged {
    let mut known = Staged::new(nn as usize);
    for &(u, v) in known_edges {
        known.add_edge(u, v);
    }
    known
}

/// The same known edges as adjacency lists a [`Shuffled`] view borrows.
struct Lists {
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
}

impl Lists {
    fn of(nn: u32, known_edges: &[(u32, u32)]) -> Lists {
        let mut lists =
            Lists { out: vec![Vec::new(); nn as usize], inn: vec![Vec::new(); nn as usize] };
        for &(u, v) in known_edges {
            lists.out[u as usize].push(v);
            lists.inn[v as usize].push(u);
        }
        lists
    }

    fn shuffled(&self, seed: u64) -> Shuffled<'_> {
        Shuffled { lists: self, seed }
    }
}

/// A borrowed view whose order is a topological order Kahn's FIFO would
/// not pick: each step takes a ready node at random (`seed`), so the
/// theory is held to any valid starting order, not to Kahn's.
struct Shuffled<'a> {
    lists: &'a Lists,
    seed: u64,
}

impl KnownEdges for Shuffled<'_> {
    fn nodes(&self) -> usize {
        self.lists.out.len()
    }

    fn edges(&self) -> usize {
        self.lists.out.iter().map(Vec::len).sum()
    }

    fn out(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        self.lists.out[x as usize].iter().copied()
    }

    fn inn(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        self.lists.inn[x as usize].iter().copied()
    }

    fn order(&mut self) -> Option<Vec<u32>> {
        let n = self.nodes();
        let mut indeg: Vec<usize> = self.lists.inn.iter().map(Vec::len).collect();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let (mut ord, mut next) = (vec![u32::MAX; n], 0);
        while !ready.is_empty() {
            // splitmix64
            self.seed = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let u = ready.swap_remove((z ^ (z >> 31)) as usize % ready.len());
            ord[u as usize] = next;
            next += 1;
            for &v in &self.lists.out[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    ready.push(v);
                }
            }
        }
        (next as usize == n).then_some(ord)
    }
}

fn solve<K: KnownEdges>(inst: &Instance, mut s: Solver<K>) -> SolveResult {
    for _ in 0..inst.nv {
        s.new_var();
    }
    for c in &inst.clauses {
        s.add_clause(c);
    }
    for &(l, u, v) in &inst.sym_edges {
        s.add_symbolic_edge(l, u, v);
    }
    s.solve()
}

/// The instance solved over each view: the staged one and, with `seed`,
/// the shuffled one.
fn run_solver(inst: &Instance, seed: u64) -> [SolveResult; 2] {
    let lists = Lists::of(inst.nn, &inst.known_edges);
    [
        solve(inst, Solver::with_known(staged(inst.nn, &inst.known_edges))),
        solve(inst, Solver::with_known(lists.shuffled(seed))),
    ]
}

/// A random theory-only instance: a graph skeleton whose symbolic edges
/// are guarded by literals over `nv` variables (several edges may share a
/// guard, and a guard may appear in both polarities).
#[derive(Debug, Clone)]
struct TheoryInstance {
    nv: u32,
    nn: u32,
    known_edges: Vec<(u32, u32)>,
    sym_edges: Vec<(Lit, u32, u32)>,
}

fn theory_instance_strategy() -> impl Strategy<Value = TheoryInstance> {
    (1u32..4, 2u32..6).prop_flat_map(|(nv, nn)| {
        let known = prop::collection::vec((0..nn, 0..nn), 0..5);
        let sym = prop::collection::vec((lit_strategy(nv), 0..nn, 0..nn), 0..7);
        (known, sym).prop_map(move |(known_edges, sym_edges)| TheoryInstance {
            nv,
            nn,
            known_edges,
            sym_edges,
        })
    })
}

/// Theory instances dense enough in guards for propagation to have reasons:
/// more variables and symbolic edges over few nodes, so that a guard is
/// regularly implied through paths that run over other guards' edges.
fn guard_dense_instance_strategy() -> impl Strategy<Value = TheoryInstance> {
    (3u32..6, 3u32..6).prop_flat_map(|(nv, nn)| {
        let known = prop::collection::vec((0..nn, 0..nn), 0..3);
        let sym = prop::collection::vec((lit_strategy(nv), 0..nn, 0..nn), 3..12);
        (known, sym).prop_map(move |(known_edges, sym_edges)| TheoryInstance {
            nv,
            nn,
            known_edges,
            sym_edges,
        })
    })
}

/// Ground truth for the theory: Kahn toposort over an explicit edge list.
fn naive_acyclic(nn: u32, edges: &[(u32, u32)]) -> bool {
    let n = nn as usize;
    let mut out = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for &(u, v) in edges {
        out[u as usize].push(v as usize);
        indeg[v as usize] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in &out[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    queue.len() == n
}

/// The order-independent reference the order certificate is held against:
/// the full graph of a complete assignment (known + enabled symbolic
/// edges), rebuilt and sorted topologically.
fn validate_model(inst: &TheoryInstance, is_true: impl Fn(Lit) -> bool) -> bool {
    let mut enabled = inst.known_edges.clone();
    enabled.extend(inst.sym_edges.iter().filter(|e| is_true(e.0)).map(|&(_, u, v)| (u, v)));
    naive_acyclic(inst.nn, &enabled)
}

/// The theory of an instance over the view `known` of its known edges,
/// started, and whether the known subgraph alone was acyclic.
fn build_theory<K: KnownEdges>(inst: &TheoryInstance, known: K) -> (AcyclicityTheory<K>, bool) {
    let mut th = AcyclicityTheory::with_known(known);
    for &(l, u, v) in &inst.sym_edges {
        th.add_symbolic_edge(l, u, v);
    }
    let known_ok = th.start();
    (th, known_ok)
}

/// Drive `AcyclicityTheory` directly (no SAT core): for every guard
/// assignment, incremental activation must report a conflict exactly when
/// enumerate-and-toposort finds the enabled graph cyclic, and any conflict
/// clause must be falsified by the assignment.
fn theory_matches_enumeration<K: KnownEdges>(
    inst: &TheoryInstance,
    known: impl Fn() -> K,
) -> Result<(), TestCaseError> {
    for bits in 0u32..(1 << inst.nv) {
        let lit_true = |l: Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
        let (mut th, known_ok) = build_theory(inst, known());
        prop_assert_eq!(
            known_ok,
            naive_acyclic(inst.nn, &inst.known_edges),
            "the start disagrees on the known subgraph: {:?}",
            inst
        );
        if !known_ok {
            continue; // Unsat regardless of the assignment.
        }

        let guards: Vec<Lit> = th.guard_lits().collect();
        let mut conflict = None;
        for (pos, &l) in guards.iter().filter(|&&l| lit_true(l)).enumerate() {
            if let Some(clause) = th.activate(l, pos) {
                conflict = Some(clause);
                break;
            }
        }

        prop_assert_eq!(
            conflict.is_none(),
            validate_model(inst, lit_true),
            "theory verdict diverged under bits={:#b}: {:?}",
            bits,
            inst
        );
        if let Some(clause) = conflict {
            prop_assert!(!clause.is_empty(), "empty conflict clause");
            for l in clause {
                prop_assert!(
                    !lit_true(l),
                    "conflict clause not falsified by the assignment: {:?}",
                    inst
                );
            }
        }
    }
    Ok(())
}

/// The order certificate the solver proves its models with agrees with
/// the rebuild-and-sort reference on every assignment the theory can be
/// driven to: after activating the true guards (up to the first
/// conflict), `order_certifies` holds exactly when `validate_model` does.
/// An acyclic assignment is fully activated, so its order covers every
/// enabled edge; a cyclic one stops at the conflict and leaves the order
/// stale, which the certificate must report, not trust.
fn certificate_matches_reference<K: KnownEdges>(
    inst: &TheoryInstance,
    known: impl Fn() -> K,
) -> Result<(), TestCaseError> {
    for bits in 0u32..(1 << inst.nv) {
        let lit_true = |l: Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
        let (mut th, known_ok) = build_theory(inst, known());
        if !known_ok {
            continue;
        }
        // Nothing activated yet: only assignments whose enabled edges
        // already run along the known order may pass.
        prop_assert!(
            !th.order_certifies(lit_true) || validate_model(inst, lit_true),
            "a never-activated assignment passed wrongly: {:?}",
            inst
        );
        let guards: Vec<Lit> = th.guard_lits().collect();
        for (pos, &l) in guards.iter().filter(|&&l| lit_true(l)).enumerate() {
            if th.activate(l, pos).is_some() {
                break;
            }
        }
        prop_assert_eq!(
            th.order_certifies(lit_true),
            validate_model(inst, lit_true),
            "certificate and reference diverged under bits={:#b}: {:?}",
            bits,
            inst
        );
    }
    Ok(())
}

/// Mirror a model into a theory over `known`, activate the model's true
/// guards, and both checks accept.
fn certificate_accepts<K: KnownEdges>(
    theory: &TheoryInstance,
    known: K,
    m: &Model,
) -> Result<(), TestCaseError> {
    let (mut th, known_ok) = build_theory(theory, known);
    prop_assert!(known_ok, "a SAT instance has an acyclic known graph");
    let guards: Vec<Lit> = th.guard_lits().filter(|&l| m.lit_true(l)).collect();
    for (pos, &l) in guards.iter().enumerate() {
        prop_assert_eq!(th.activate(l, pos), None, "a model's guards cannot conflict");
    }
    prop_assert!(th.order_certifies(|l| m.lit_true(l)), "certificate rejected a model");
    prop_assert!(validate_model(theory, |l| m.lit_true(l)), "reference rejected a model");
    Ok(())
}

/// Theory propagation, driven directly: activate the true guards of an
/// acyclic assignment one by one, propagating after each with every other
/// guard unassigned. Every lemma is *sound* — enabling its head's guard
/// together with the guards of its reason is cyclic — and has the shape
/// the solver relies on (head unassigned, second literal the negation of
/// the guard just activated, the rest negations of guards activated
/// before). With no budget limit the lemmas are *complete for single-edge
/// closure*: every unassigned guard owning an edge that closes a cycle
/// with the activated edges (and not with the known edges alone — no
/// activation triggers that one) heads some lemma. Under a budget,
/// propagation finds a subset and spends exactly what it was granted or
/// less.
fn propagation_is_sound_and_complete<K: KnownEdges>(
    inst: &TheoryInstance,
    known: impl Fn() -> K,
    budget: u64,
) -> Result<(), TestCaseError> {
    for bits in 0u32..(1 << inst.nv) {
        let lit_true = |l: Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
        if !validate_model(inst, lit_true) {
            continue; // Not a conflict-free activation sequence.
        }
        for limit in [u64::MAX, budget] {
            let (mut th, _) = build_theory(inst, known());
            let sequence: Vec<Lit> = th.guard_lits().filter(|&l| lit_true(l)).collect();
            let mut heads: Vec<Lit> = Vec::new();
            for (pos, &l) in sequence.iter().enumerate() {
                prop_assert_eq!(th.activate(l, pos), None);
                let active = &sequence[..=pos];
                let value = |g: Lit| {
                    if active.contains(&g) {
                        LBool::True
                    } else if active.contains(&!g) {
                        LBool::False
                    } else {
                        LBool::Undef
                    }
                };
                let (mut left, mut lemmas) = (limit, Vec::new());
                th.propagate(l, value, &mut left, &mut lemmas);
                prop_assert!(left <= limit);
                for lemma in lemmas {
                    prop_assert!(lemma.len() >= 2 && lemma[1] == !l, "shape: {:?}", lemma);
                    prop_assert_eq!(value(lemma[0]), LBool::Undef, "head: {:?}", lemma);
                    prop_assert!(
                        lemma[2..].iter().all(|&r| r != !l && active.contains(&!r)),
                        "reason of {:?} is not among the activated guards",
                        lemma
                    );
                    prop_assert!(
                        !validate_model(inst, |g| lemma.contains(&!g)),
                        "unsound lemma {:?}: {:?}",
                        lemma,
                        inst
                    );
                    heads.push(lemma[0]);
                }
            }
            if limit != u64::MAX {
                continue;
            }
            for &(g, a, b) in &inst.sym_edges {
                if sequence.contains(&g) || sequence.contains(&!g) {
                    continue; // Assigned.
                }
                let closes = |with: &dyn Fn(Lit) -> bool| {
                    let mut edges = vec![(a, b)];
                    edges.extend(inst.known_edges.iter().copied());
                    edges.extend(
                        inst.sym_edges.iter().filter(|e| with(e.0)).map(|&(_, u, v)| (u, v)),
                    );
                    !naive_acyclic(inst.nn, &edges)
                };
                if closes(&|l| sequence.contains(&l)) && !closes(&|_| false) {
                    prop_assert!(
                        heads.contains(&!g),
                        "{:?} ({} → {}) closes a cycle and was not implied, bits={:#b}: {:?}",
                        g,
                        a,
                        b,
                        bits,
                        inst
                    );
                }
            }
        }
    }
    Ok(())
}

/// Rollback restores the pre-activation state exactly: an activation
/// sequence that was conflict-free stays conflict-free when replayed in
/// reverse after a full rollback.
fn rollback_is_order_independent<K: KnownEdges>(
    inst: &TheoryInstance,
    known: K,
) -> Result<(), TestCaseError> {
    let bits = u32::MAX; // All-positive guards on.
    let lit_true = |l: Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
    let (mut th, known_ok) = build_theory(inst, known);
    prop_assume!(known_ok);
    let guards: Vec<Lit> = th.guard_lits().filter(|&l| lit_true(l)).collect();
    let forward_conflicted =
        guards.iter().enumerate().any(|(pos, &l)| th.activate(l, pos).is_some());
    th.rollback(0);
    let reverse_conflicted =
        guards.iter().rev().enumerate().any(|(pos, &l)| th.activate(l, pos).is_some());
    prop_assert_eq!(
        forward_conflicted,
        reverse_conflicted,
        "conflict status depends on activation order after rollback: {:?}",
        inst
    );
    Ok(())
}

/// An independent acyclicity re-check of a model: its clauses hold and
/// known + enabled edges sort topologically.
fn model_is_valid(inst: &Instance, m: &Model) -> Result<(), TestCaseError> {
    for c in &inst.clauses {
        prop_assert!(c.iter().any(|&l| m.lit_true(l)), "unsatisfied clause");
    }
    let mut enabled = inst.known_edges.clone();
    enabled.extend(inst.sym_edges.iter().filter(|e| m.lit_true(e.0)).map(|&(_, u, v)| (u, v)));
    prop_assert!(naive_acyclic(inst.nn, &enabled), "model graph has a cycle");
    Ok(())
}

// Every property runs over both views: the staged one, and the shuffled
// one seeded by `seed`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn acyclicity_theory_matches_enumerate_and_toposort(
        inst in theory_instance_strategy(),
        seed in any::<u64>(),
    ) {
        let lists = Lists::of(inst.nn, &inst.known_edges);
        theory_matches_enumeration(&inst, || staged(inst.nn, &inst.known_edges))?;
        theory_matches_enumeration(&inst, || lists.shuffled(seed))?;
    }

    #[test]
    fn order_certificate_agrees_with_validate_model(
        inst in theory_instance_strategy(),
        seed in any::<u64>(),
    ) {
        let lists = Lists::of(inst.nn, &inst.known_edges);
        certificate_matches_reference(&inst, || staged(inst.nn, &inst.known_edges))?;
        certificate_matches_reference(&inst, || lists.shuffled(seed))?;
    }

    /// The same agreement on the models the solver itself returns, under
    /// either view.
    #[test]
    fn order_certificate_accepts_every_sat_model(inst in instance_strategy(), seed in any::<u64>()) {
        let theory = TheoryInstance {
            nv: inst.nv,
            nn: inst.nn,
            known_edges: inst.known_edges.clone(),
            sym_edges: inst.sym_edges.clone(),
        };
        let lists = Lists::of(inst.nn, &inst.known_edges);
        for result in run_solver(&inst, seed) {
            let SolveResult::Sat(m) = result else { continue };
            certificate_accepts(&theory, staged(inst.nn, &inst.known_edges), &m)?;
            certificate_accepts(&theory, lists.shuffled(seed), &m)?;
        }
    }

    #[test]
    fn theory_propagation_is_sound_and_complete_for_single_edges(
        inst in guard_dense_instance_strategy(),
        budget in 0u64..64,
        seed in any::<u64>(),
    ) {
        let lists = Lists::of(inst.nn, &inst.known_edges);
        propagation_is_sound_and_complete(&inst, || staged(inst.nn, &inst.known_edges), budget)?;
        propagation_is_sound_and_complete(&inst, || lists.shuffled(seed), budget)?;
    }

    #[test]
    fn acyclicity_theory_rollback_is_order_independent(
        inst in theory_instance_strategy(),
        seed in any::<u64>(),
    ) {
        let lists = Lists::of(inst.nn, &inst.known_edges);
        rollback_is_order_independent(&inst, staged(inst.nn, &inst.known_edges))?;
        rollback_is_order_independent(&inst, lists.shuffled(seed))?;
    }

    #[test]
    fn solver_matches_brute_force(inst in instance_strategy(), seed in any::<u64>()) {
        let expected = brute_force_sat(&inst);
        for got in run_solver(&inst, seed) {
            prop_assert_eq!(got.is_sat(), expected, "instance: {:?}", inst);
        }
    }

    #[test]
    fn sat_models_satisfy_clauses_and_acyclicity(inst in instance_strategy(), seed in any::<u64>()) {
        for result in run_solver(&inst, seed) {
            if let SolveResult::Sat(m) = result {
                model_is_valid(&inst, &m)?;
            }
        }
    }

    #[test]
    fn pure_sat_matches_brute_force(
        (nv, clauses) in (2u32..7).prop_flat_map(|nv| {
            let clause = prop::collection::vec(lit_strategy(nv), 1..4);
            (Just(nv), prop::collection::vec(clause, 0..12))
        })
    ) {
        let inst = Instance { nv, nn: 1, clauses, known_edges: vec![], sym_edges: vec![] };
        let expected = brute_force_sat(&inst);
        prop_assert_eq!(run_solver(&inst, 0)[0].is_sat(), expected);
    }
}
