//! Generalized polygraph construction (Section 4.2) and constraint pruning
//! (Section 4.3, Algorithm 1), for both SI and SER edge semantics and for
//! whole histories as well as key-connectivity shards.

use crate::constraint::{ConstraintGen, ConstraintRef, ConstraintSet, Covers, Source};
use crate::edge::{Edge, Label};
use crate::graph::{Flush, KnownGraph, KnownGraphResult};
use polysi_history::{Facts, History, Key, ShardComponent, TxnId, WrSource};
use polysi_obs::Tracer;

/// Which constraint representation to generate (Section 5.4.3's
/// differential variants).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConstraintMode {
    /// Generalized constraints (Definition 9): one per writer pair per key.
    #[default]
    Generalized,
    /// Plain, uncompacted constraints (Definition 8 + totality): several
    /// binary constraints per writer pair. The "PolySI w/o C" baseline.
    Plain,
}

/// Edge-composition semantics of the induced dependency graph — the
/// *mechanism* behind an isolation level (the *policy* lives in
/// `polysi_checker::engine::IsolationLevel`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Semantics {
    /// Snapshot isolation: cycles of the induced graph
    /// `(SO ∪ WR ∪ WW) ; RW?` (Definition 11) — no two adjacent `RW`
    /// edges, realized by the layered [`KnownGraph`].
    #[default]
    Si,
    /// Serializability: plain acyclicity over `SO ∪ WR ∪ WW ∪ RW`
    /// (Cobra-style). Construction additionally applies read-modify-write
    /// version-order inference, which is sound only under SER.
    Ser,
}

impl Semantics {
    /// Theory-graph nodes per transaction: 2 under SI (a boundary and a
    /// mid node, which realise the `; RW?` composition), 1 under SER (no
    /// composition, so no mid node). The reachability oracle and the
    /// solver's acyclicity theory both size their vertex space by it.
    pub fn layers(self) -> usize {
        match self {
            Semantics::Si => 2,
            Semantics::Ser => 1,
        }
    }
}

/// A generalized polygraph `G = (V, E, C)` over the transactions of one
/// history (or one of its key-connectivity shards): known typed edges plus
/// unresolved constraints.
#[derive(Clone)]
pub struct Polygraph {
    /// Number of transactions (vertex count).
    pub n: usize,
    /// Known edges as constructed: `SO ∪ WR` plus the anti-dependencies
    /// implied by reads of initial values (plus RMW-inferred `WW` edges
    /// under [`Semantics::Ser`]), until [`Polygraph::known_graph`] moves
    /// them into the oracle that owns them from then on.
    pub known: Vec<Edge>,
    /// Unresolved constraints.
    pub constraints: ConstraintSet,
    /// Edge-composition semantics used by pruning and reachability.
    pub semantics: Semantics,
}

/// Counters reported in the paper's Table 3, plus the oracle-maintenance
/// counters of this implementation's prune stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Constraints before pruning.
    pub constraints_before: usize,
    /// Uncertain dependency edges before pruning.
    pub unknown_deps_before: usize,
    /// Constraints stored after the first pass: those it left open (of
    /// the ones [`Polygraph::prune_generated`] and
    /// [`Polygraph::prune_resume`] generate, the only ones ever stored).
    pub constraints_stored: usize,
    /// Constraints remaining after pruning.
    pub constraints_after: usize,
    /// Uncertain dependency edges remaining after pruning.
    pub unknown_deps_after: usize,
    /// From-scratch reachability-oracle builds: 1 for [`Polygraph::prune`],
    /// 0 for a [`Polygraph::prune_resume`] on a warm oracle.
    pub graph_builds: usize,
    /// Closure propagation operations: rows grown by this prune call's
    /// `insert_edges` updates (a resumed oracle's earlier work
    /// is not counted again). Oracle-neutral in unit (one grown row is
    /// one propagation op in either representation), so dense-vs-chains
    /// bench rows compare directly; the chain oracle's implicit session
    /// suffixes typically make its count *smaller* on the same input.
    pub closure_updates: usize,
    /// Typed edges this prune call materialised in the oracle (resolved
    /// constraint edges the known graph did not already imply).
    pub incremental_edges: usize,
    /// Resolved constraint edges *not* materialised because real paths of
    /// the known graph already implied them ([`KnownGraph::implies`]).
    pub implied_edges: usize,
}

impl PruneStats {
    /// Merge per-shard counters into whole-run stats: counts add up;
    /// `iterations` takes the maximum because shards prune concurrently.
    pub fn merge(self, other: PruneStats) -> PruneStats {
        PruneStats {
            iterations: self.iterations.max(other.iterations),
            constraints_before: self.constraints_before + other.constraints_before,
            unknown_deps_before: self.unknown_deps_before + other.unknown_deps_before,
            constraints_stored: self.constraints_stored + other.constraints_stored,
            constraints_after: self.constraints_after + other.constraints_after,
            unknown_deps_after: self.unknown_deps_after + other.unknown_deps_after,
            graph_builds: self.graph_builds + other.graph_builds,
            closure_updates: self.closure_updates + other.closure_updates,
            incremental_edges: self.incremental_edges + other.incremental_edges,
            implied_edges: self.implied_edges + other.implied_edges,
        }
    }
}

/// Result of [`Polygraph::prune`].
pub enum PruneResult {
    /// Pruning finished; remaining constraints go to the solver.
    Pruned(PruneStats),
    /// The known part of the induced SI graph is already cyclic (or a
    /// constraint lost both possibilities): the history violates SI. The
    /// witness is a violating cycle of typed edges (no two adjacent `RW`).
    Violation(Vec<Edge>),
}

impl Polygraph {
    /// Build the generalized polygraph of a history (procedures
    /// `CreateKnownGraph` and `GenerateConstraints` of Algorithm 2) under
    /// SI semantics, every constraint stored.
    ///
    /// `facts` must come from [`Facts::analyze`] on the same history and be
    /// free of axiom violations.
    pub fn from_history(h: &History, facts: &Facts, mode: ConstraintMode) -> Self {
        let (mut g, gen) = Self::from_history_with(h, facts, mode, Semantics::Si);
        g.constraints = gen.store();
        g
    }

    /// The known graph of a history under explicit edge semantics, and its
    /// constraints as a generator: [`ConstraintGen::store`] stores them
    /// all, [`Polygraph::prune_generated`] only what its first pass leaves
    /// undecided.
    pub fn from_history_with(
        h: &History,
        facts: &Facts,
        mode: ConstraintMode,
        semantics: Semantics,
    ) -> (Self, ConstraintGen) {
        let so = h.so_edges().map(|(a, b)| Edge::new(a, b, Label::So)).collect();
        build_polygraph_from(so, facts, mode, semantics, None, h.len())
    }

    /// [`Polygraph::from_history_with`] for one key-connectivity component
    /// of facts that cover more than the component: the streaming
    /// checker's, which it maintains incrementally for the whole stream.
    /// (A batch check analyses each component's own history instead.)
    /// `so_edges` are the session-order successor pairs restricted to the
    /// component, in any deterministic order; `local` maps the component's
    /// transactions to their dense local ids ([`ShardComponent::local`]),
    /// the vertices — translate cycles back with
    /// [`ShardComponent::global`]. Cost is proportional to the component,
    /// not the history.
    pub fn from_component(
        so_edges: &[(TxnId, TxnId)],
        facts: &Facts,
        mode: ConstraintMode,
        semantics: Semantics,
        comp: &ShardComponent,
        local: &dyn Fn(TxnId) -> TxnId,
    ) -> (Self, ConstraintGen) {
        let so = so_edges.iter().map(|&(a, b)| Edge::new(a, b, Label::So)).collect();
        build_polygraph_from(so, facts, mode, semantics, Some((comp, local)), comp.len())
    }

    /// Total uncertain dependency edges across unresolved constraints.
    pub fn unknown_deps(&self) -> usize {
        self.constraints.num_edges()
    }

    /// Apply a watermark-compaction id map (old id → new id in `0..n2`,
    /// `u32::MAX` = dropped) to the polygraph and its oracle `kg`: known
    /// edges with a dropped endpoint disappear, surviving edges and
    /// constraints are renumbered, the vertex count shrinks to `n2`, and
    /// the oracle is rebuilt over the surviving edges. The caller
    /// guarantees no live constraint references a dropped transaction —
    /// the watermark guard retains every constraint endpoint — and a
    /// violated guard panics here, at the cause. For a predecessor-closed
    /// keep set, the new oracle answers every query among survivors as
    /// `kg` did.
    pub fn compact(&mut self, kg: Box<KnownGraph>, map: &[u32], n2: usize) -> Box<KnownGraph> {
        debug_assert_eq!(map.len(), self.n);
        let mut known = kg.into_edges();
        known.retain(|e| map[e.from.idx()] != u32::MAX && map[e.to.idx()] != u32::MAX);
        for e in &mut known {
            e.from = TxnId(map[e.from.idx()]);
            e.to = TxnId(map[e.to.idx()]);
        }
        self.constraints.remap(|t| {
            let to = map[t.idx()];
            assert!(to != u32::MAX, "live constraint references compacted transaction {t}");
            TxnId(to)
        });
        self.n = n2;
        self.known = known;
        self.known_graph().expect("a restriction of an acyclic known graph is acyclic")
    }

    /// Build the reachability oracle over the known edges, which move
    /// into it; or, if the known part is already cyclic, return a
    /// violating cycle and keep the edges.
    pub fn known_graph(&mut self) -> Result<Box<KnownGraph>, Vec<Edge>> {
        match KnownGraph::build(self.n, std::mem::take(&mut self.known), self.semantics) {
            KnownGraphResult::Acyclic(kg) => Ok(kg),
            KnownGraphResult::Cyclic { cycle, known } => {
                self.known = known;
                Err(cycle)
            }
        }
    }

    /// Prune constraints to a fixpoint (procedure `PruneConstraints`,
    /// Algorithm 1 lines 10–32), worklist-driven, recording one
    /// `prune.pass` span per fixpoint pass into `tracer`.
    ///
    /// A constraint possibility is *impossible* when adding any one of its
    /// edges would close a cycle in the known induced graph `KI`; the
    /// constraint then resolves to the other side, whose edges become known
    /// — materialised only where the known graph does not already imply
    /// them ([`KnownGraph::implies`]; usually the very path that made the
    /// first side impossible implies most of the second). If both sides
    /// are impossible the history violates the isolation level.
    ///
    /// Each pass is staged: a read-only *sweep* tests the worklist against
    /// the pass oracle and emits the forced sides' not-yet-implied edges
    /// and the constraints left open; the *apply* phase then feeds those
    /// edges, in constraint order, to the oracle via
    /// [`KnownGraph::insert_edges`], which re-tests them against what
    /// earlier resolutions added, and stores the open constraints afresh.
    /// The first contradiction ends the sweep.
    ///
    /// After the first full pass, only constraints *incident* to a
    /// transaction touched by edges resolved in the previous pass are
    /// re-tested. This is a sound under-approximation of the full fixpoint
    /// (reachability added between two untouched transactions can be
    /// missed); whatever survives goes to the solver, so verdicts are
    /// unaffected. A violation leaves the constraints the failing pass
    /// started from.
    ///
    /// The reachability oracle is handed back whenever one was built. It
    /// owns the known edges ([`KnownGraph::edges`]): the constructed ones
    /// and the resolved ones it materialised, up to a violation if any.
    pub fn prune(&mut self, tracer: &Tracer) -> (PruneResult, Option<Box<KnownGraph>>) {
        self.prune_loop(None, None, tracer)
    }

    /// [`Polygraph::prune`] whose first pass generates the constraints of a
    /// whole unit's `gen` that its oracle leaves to decide
    /// ([`ConstraintGen::covers`], under a `prune.covers` span carrying the
    /// writer `pairs` kept and `omitted`), tests them as they are generated
    /// and stores only the undecided ones (`constraints` must be empty).
    /// Decisions, stats and the oracle are those of [`Polygraph::prune`] on
    /// `gen.covers(oracle).store()`; its verdict and survivors are those on
    /// `gen.store()`. A cyclic known graph generates nothing.
    pub fn prune_generated(
        &mut self,
        gen: &ConstraintGen,
        tracer: &Tracer,
    ) -> (PruneResult, Option<Box<KnownGraph>>) {
        debug_assert!(self.constraints.is_empty(), "generated constraints join a stored set");
        self.prune_loop(Some(gen), None, tracer)
    }

    /// Resume pruning with a *warm* oracle — the streaming checker's delta
    /// path. `kg` must already hold every known edge (the caller fed the
    /// delta through [`KnownGraph::insert_edges`]); `seed`
    /// marks the transactions touched by that delta, and `gen` generates
    /// the delta's constraints ([`ConstraintGen::delta`]). The first pass
    /// sweeps the stored constraints incident to the seed or to an endpoint
    /// of `gen`'s pairs (the same sound under-approximation as the later
    /// worklist passes — anything untested simply survives to the solver),
    /// then the pairs of `gen` the warm oracle leaves to decide
    /// ([`ConstraintGen::covers`], as in [`Polygraph::prune_generated`]),
    /// storing only those it leaves open. From there the worklist fixpoint
    /// proceeds exactly as in [`Polygraph::prune`]. Decisions, stats and
    /// the oracle are those of a resume over the stored constraints
    /// followed by `gen.covers(kg).store()`, seeded with `seed` and
    /// [`ConstraintGen::mark_endpoints`].
    pub fn prune_resume(
        &mut self,
        kg: Box<KnownGraph>,
        seed: &[bool],
        gen: &ConstraintGen,
        tracer: &Tracer,
    ) -> (PruneResult, Option<Box<KnownGraph>>) {
        debug_assert_eq!(seed.len(), self.n, "seed must cover the vertex space");
        self.prune_loop(Some(gen), Some((kg, seed)), tracer)
    }

    /// The shared pass loop: a fresh oracle and a full first pass, or a
    /// `resume`d oracle and a first pass restricted to the seeded worklist.
    /// The first pass reads the stored constraints, then the pairs of `gen`
    /// its oracle leaves to decide.
    fn prune_loop(
        &mut self,
        gen: Option<&ConstraintGen>,
        resume: Option<(Box<KnownGraph>, &[bool])>,
        tracer: &Tracer,
    ) -> (PruneResult, Option<Box<KnownGraph>>) {
        let semantics = self.semantics;
        let (mut kg, seed) = match resume {
            Some((mut kg, seed)) => {
                kg.settle();
                (kg, Some(seed))
            }
            None => match self.known_graph() {
                Ok(kg) => (kg, None),
                Err(cycle) => return (PruneResult::Violation(cycle), None),
            },
        };
        let covers = gen.map(|gen| {
            let mut span = tracer.span("prune.covers");
            let covers = gen.covers(&kg);
            span.attr("pairs", covers.pairs());
            span.attr("omitted", covers.omitted());
            covers
        });
        let generated = covers.as_ref().map_or((0, 0), Covers::counts);
        let (constraints_before, unknown_deps_before) =
            (self.constraints.len() + generated.0, self.unknown_deps() + generated.1);
        let mut stats = PruneStats {
            constraints_before,
            unknown_deps_before,
            graph_builds: seed.is_none() as usize,
            ..Default::default()
        };
        // The oracle's counters are lifetime totals; a resumed oracle has
        // a past, and this call reports only its own work.
        let (updates_before, edges_before) = (kg.closure_updates(), kg.inserted_edges());
        // Transactions incident to edges resolved in the previous pass:
        // the worklist filter of every pass but a full first one.
        let mut touched = seed.map(<[bool]>::to_vec);
        if let (Some(t), Some(gen)) = (&mut touched, gen) {
            gen.mark_endpoints(t);
        }
        let mut first = covers.as_ref();
        loop {
            stats.iterations += 1;
            let input = std::mem::take(&mut self.constraints);
            let covers = first.take();
            let filter = touched.as_deref();
            // Every generated constraint is incident to the seed.
            let worklist = covers.map_or(0, |_| generated.0)
                + match filter {
                    None => input.len(),
                    Some(t) => input.iter().filter(|c| c.incident(t)).count(),
                };
            let mut pass_span = tracer.span_kv(
                "prune.pass",
                polysi_obs::kv! { pass: stats.iterations, worklist: worklist },
            );
            let (mut sweep, mut open) = (Sweep::new(self.n), ConstraintSet::new());
            let mut test = |cons: ConstraintRef<'_>| {
                if filter.is_some_and(|t| !cons.incident(t)) {
                    return Some(true);
                }
                sweep.test(&kg, semantics, cons)
            };
            let _ = input.visit(&mut open, &mut test)
                && covers.is_none_or(|covers| covers.visit(&mut open, &mut test));
            let inserted_before = kg.inserted_edges();
            let applied = kg.insert_edges(&sweep.edges, APPLY_FLUSH);
            // An insert cycle: an earlier resolution of this apply phase
            // made a forced side impossible too. A contradiction: neither
            // possibility can hold (line 57/65).
            if let Some(cycle) = applied.err().or(sweep.contradiction) {
                self.constraints = input;
                return (PruneResult::Violation(cycle), Some(kg));
            }
            self.constraints = open;
            stats.implied_edges += sweep.side_edges - (kg.inserted_edges() - inserted_before);
            pass_span.attr("resolved", sweep.forced);
            // One closure propagation for what the apply phase left
            // staged, from the frontier of everything just inserted, and
            // the lists folded for the next sweep.
            kg.settle();
            if stats.iterations == 1 {
                stats.constraints_stored = self.constraints.len();
            }
            if sweep.forced == 0 {
                break;
            }
            touched = Some(sweep.touched);
        }
        stats.closure_updates = kg.closure_updates() - updates_before;
        stats.incremental_edges = kg.inserted_edges() - edges_before;
        stats.constraints_after = self.constraints.len();
        stats.unknown_deps_after = self.unknown_deps();
        (PruneResult::Pruned(stats), Some(kg))
    }
}

/// How the apply phase of a prune pass schedules closure propagation: one
/// phase's resolutions propagate in batches of at most 62 staged (layered)
/// edges, so a row the whole batch feeds is recomputed once instead of per
/// edge, while the implied-edge test — which reads the closure as of the
/// last flush — never lags far behind what the phase has already inserted.
const APPLY_FLUSH: Flush = Flush::Every(62);

/// One pass's sweep, in constraint order: a decided constraint leaves only
/// its forced side's not-yet-implied edges.
struct Sweep {
    /// Constraints decided, and their forced sides' edges, implied or not.
    forced: usize,
    side_edges: usize,
    /// The forced sides' not-yet-implied edges, back to back.
    edges: Vec<Edge>,
    /// Every endpoint of a forced side: the next pass's worklist filter.
    touched: Vec<bool>,
    /// The violating cycle of the `either` side of the first constraint
    /// with both sides impossible. The sweep ends there: the apply phase
    /// stops at a contradiction, so nothing after it is read.
    contradiction: Option<Vec<Edge>>,
}

impl Sweep {
    fn new(n: usize) -> Self {
        Sweep {
            forced: 0,
            side_edges: 0,
            edges: Vec::new(),
            touched: vec![false; n],
            contradiction: None,
        }
    }

    /// Test `cons` against the pass oracle (read-only): `Some(true)` if
    /// neither side is impossible; `Some(false)` if one is, and then the
    /// other side's edges the oracle does not imply join `edges` and all its
    /// endpoints mark `touched` (what gets re-tested must not depend on what
    /// happened to be materialised); `None` if both are, the witness kept.
    fn test(
        &mut self,
        kg: &KnownGraph,
        semantics: Semantics,
        cons: ConstraintRef<'_>,
    ) -> Option<bool> {
        let bad_either = side_impossible(kg, cons.either, semantics);
        let bad_or = side_impossible(kg, cons.or, semantics);
        let side = match (bad_either, bad_or) {
            (false, false) => return Some(true),
            (true, true) => {
                self.contradiction = Some(
                    witness_cycle(kg, cons.either, semantics)
                        .expect("side_impossible implies a witness"),
                );
                return None;
            }
            (true, false) => cons.or,
            (false, true) => cons.either,
        };
        for e in side {
            self.touched[e.from.idx()] = true;
            self.touched[e.to.idx()] = true;
        }
        self.forced += 1;
        self.side_edges += side.len();
        self.edges.extend(side.iter().filter(|&&e| !kg.implies(e)));
        Some(false)
    }
}

/// The shared constructor: everything but the session-order edges `so`
/// derives from `facts` alone, which lets the streaming checker construct
/// component polygraphs from incrementally maintained facts without
/// materializing a [`History`]. `scope` restricts the build to one
/// component and names its global → local id translation; `None` builds
/// the whole history over `n_whole` vertices.
fn build_polygraph_from(
    so: Vec<Edge>,
    facts: &Facts,
    mode: ConstraintMode,
    semantics: Semantics,
    scope: Option<(&ShardComponent, &dyn Fn(TxnId) -> TxnId)>,
    n_whole: usize,
) -> (Polygraph, ConstraintGen) {
    let comp = scope.map(|(c, _)| c);
    let n = comp.map_or(n_whole, ShardComponent::len);
    let mut known: Vec<Edge> = so;
    // Write-read edges; under SER also the read-modify-write inference:
    // a reader of `x` that writes `x` immediately follows its source in
    // `x`'s version order (any interposed writer would have been read
    // instead), so the `WW` edge is known. Keys never span components, so
    // every source stays inside `comp`.
    let readers: Box<dyn Iterator<Item = TxnId> + '_> = match comp {
        None => Box::new((0..n_whole as u32).map(TxnId)),
        Some(c) => Box::new(c.txns.iter().copied()),
    };
    for r in readers {
        for &(key, _, src) in &facts.reads[r.idx()] {
            if let WrSource::Txn(w) = src {
                if w != r {
                    known.push(Edge::new(w, r, Label::Wr(key)));
                    if semantics == Semantics::Ser && facts.writes_key(r, key) {
                        known.push(Edge::new(w, r, Label::Ww(key)));
                    }
                }
            }
        }
    }
    // Reads of the initial value: the initial version precedes every
    // write, so such readers have known anti-dependencies to *all* writers
    // of the key. A component probes each per-key map once per key of its
    // own, so its cost stays proportional to the shard.
    let init_readers: Vec<(Key, &[TxnId])> = match comp {
        None => Facts::by_key(&facts.init_readers),
        Some(c) => c
            .keys
            .iter()
            .filter_map(|&key| facts.init_readers.get(&key).map(|rs| (key, rs.as_slice())))
            .collect(),
    };
    for (key, readers) in init_readers {
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
    // Constraints per key per writer pair (keys nobody writes yield none),
    // generated later, in component-local ids.
    let translate = |t: TxnId| scope.map_or(t, |(_, local)| local(t));
    let gen = match comp {
        None => ConstraintGen::new(facts, facts.written_keys(), mode, translate),
        Some(c) => ConstraintGen::new(facts, c.keys.iter().copied(), mode, translate),
    };
    if let Some((_, local)) = scope {
        for e in &mut known {
            e.from = local(e.from);
            e.to = local(e.to);
        }
    }
    (Polygraph { n, known, constraints: ConstraintSet::new(), semantics }, gen)
}

/// Whether adding `e` closes a cycle in `KI`. Under SI (Figure 4 of the
/// paper) `WW` edges test plain reachability and `RW` edges look for a
/// `Dep` predecessor of the source; under SER every edge tests plain
/// reachability.
/// Figure 4 leaves out a `WW` edge's mid image `B(f) → M(t)` on purpose:
/// testing it too decides more but breaks the paper's Figure 4 and 5(d)
/// outcomes (`trials/mid_image_rule_43.json`).
fn edge_impossible(kg: &KnownGraph, e: &Edge, semantics: Semantics) -> bool {
    match (semantics, e.label) {
        (Semantics::Si, Label::Rw(_)) => kg.rw_closes_cycle(e.from, e.to),
        _ => kg.reaches(e.to, e.from),
    }
}

/// Whether adding any single edge of `side` closes a cycle in `KI`.
fn side_impossible(kg: &KnownGraph, side: &[Edge], semantics: Semantics) -> bool {
    side.iter().any(|e| edge_impossible(kg, e, semantics))
}

/// The violating cycle witnessing that `side` is impossible: the one its
/// first impossible edge closes.
fn witness_cycle(kg: &KnownGraph, side: &[Edge], semantics: Semantics) -> Option<Vec<Edge>> {
    side.iter().find(|e| edge_impossible(kg, e, semantics)).and_then(|&e| kg.closing_cycle(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_history::{HistoryBuilder, Key, Value};
    use rebuild::prune_by_rebuild;

    mod rebuild {
        include!("../tests/support/rebuild.rs");
    }

    /// `prune` with the default options and no tracer, oracle dropped.
    fn prune(g: &mut Polygraph) -> PruneResult {
        g.prune(&Tracer::disabled()).0
    }

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    /// The paper's Figure 3 "long fork" history.
    fn long_fork() -> History {
        let mut b = HistoryBuilder::new();
        b.session(); // session 0: T0, T5
        b.begin().write(k(1), v(10)).write(k(2), v(20)).commit(); // T0: x=0,y=0
        b.begin().write(k(1), v(12)).commit(); // T5: x=2
        b.session();
        b.begin().write(k(1), v(11)).commit(); // T1: x=1
        b.session();
        b.begin().write(k(2), v(21)).commit(); // T2: y=1
        b.session();
        b.begin().read(k(1), v(11)).read(k(2), v(20)).commit(); // T3
        b.session();
        b.begin().read(k(1), v(10)).read(k(2), v(21)).commit(); // T4
        b.build()
    }

    #[test]
    fn construction_counts() {
        let h = long_fork();
        let f = Facts::analyze(&h);
        assert!(f.axioms_ok());
        let g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        assert_eq!(g.n, 6);
        // SO: T0→T5. WR: T1→T3 (x), T0→T3 (y), T0→T4 (x), T2→T4 (y).
        let so = g.known.iter().filter(|e| e.label == Label::So).count();
        let wr = g.known.iter().filter(|e| matches!(e.label, Label::Wr(_))).count();
        assert_eq!(so, 1);
        assert_eq!(wr, 4);
        // Writers of x: {T0, T5, T1} → 3 constraints; of y: {T0, T2} → 1.
        assert_eq!(g.constraints.len(), 4);
    }

    /// Under SER a transaction that reads `x` from `w` and writes `x`
    /// directly follows `w` in `x`'s version order (Cobra's
    /// read-modify-write inference), so construction knows that `WW` edge
    /// beside the `WR` one; a plain reader gets none, and SI infers none.
    #[test]
    fn ser_read_modify_write_infers_a_known_ww_edge() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).commit();
        let h = b.build();
        let f = Facts::analyze(&h);
        let known = |semantics| {
            Polygraph::from_history_with(&h, &f, ConstraintMode::Generalized, semantics).0.known
        };
        let (w, rmw, reader) = (TxnId(0), TxnId(1), TxnId(2));
        let wr = [Edge::new(w, rmw, Label::Wr(k(1))), Edge::new(w, reader, Label::Wr(k(1)))];
        assert_eq!(known(Semantics::Si), wr);
        assert_eq!(known(Semantics::Ser), [wr[0], Edge::new(w, rmw, Label::Ww(k(1))), wr[1]]);
    }

    #[test]
    fn long_fork_pruning_detects_violation() {
        // Pruning alone resolves enough constraints that the long-fork cycle
        // surfaces either during pruning or later in solving; Figure 3
        // resolves three of four constraints by pruning. Here we just check
        // pruning resolves those three and keeps T1-vs-T5 (or finds the
        // violation directly).
        let h = long_fork();
        let f = Facts::analyze(&h);
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        match prune(&mut g) {
            PruneResult::Pruned(stats) => {
                assert_eq!(stats.constraints_before, 4);
                assert!(stats.constraints_after <= 1, "stats: {stats:?}");
            }
            PruneResult::Violation(cycle) => {
                // Also acceptable: the violation is already exposed.
                assert!(cycle.len() >= 2);
            }
        }
    }

    #[test]
    fn prune_resolves_via_so_cycle() {
        // Figure 3b: T0 -SO-> T5 forces WW(x): T0 before T5 (the long
        // fork minus its second reader, so pruning accepts). The SO edge
        // that forces the WW also implies it: the constraint goes, the
        // oracle orders the pair, and no WW edge enters `known`.
        let mut b = HistoryBuilder::new();
        b.session(); // session 0: T0, T5
        b.begin().write(k(1), v(10)).write(k(2), v(20)).commit();
        b.begin().write(k(1), v(12)).commit();
        b.session();
        b.begin().write(k(1), v(11)).commit(); // T1
        b.session();
        b.begin().read(k(1), v(11)).read(k(2), v(20)).commit(); // T3
        let h = b.build();
        let f = Facts::analyze(&h);
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        let (t0, t5) = (TxnId(0), TxnId(1));
        let between = |e: &Edge| (e.from == t0 && e.to == t5) || (e.from == t5 && e.to == t0);
        let open = |g: &Polygraph| g.constraints.iter().any(|c| c.either.iter().any(between));
        assert!(open(&g));
        let (result, oracle) = g.prune(&Tracer::disabled());
        let stats = match result {
            PruneResult::Pruned(stats) => stats,
            PruneResult::Violation(c) => panic!("an SI history was rejected: {c:?}"),
        };
        assert!(!open(&g), "T0-vs-T5 on x should be resolved; left: {:?}", g.constraints);
        let oracle = oracle.expect("an accepting prune returns its oracle");
        assert!(oracle.reaches(t0, t5));
        assert!(!oracle.edges().iter().any(|e| matches!(e.label, Label::Ww(_)) && between(e)));
        assert!(stats.implied_edges > 0, "the forced WW is implied by SO: {stats:?}");
    }

    #[test]
    fn clean_serial_history_prunes_to_empty() {
        // One session, serial increments: every constraint resolvable by SO.
        let mut b = HistoryBuilder::new();
        b.session();
        for i in 0..5u64 {
            b.begin()
                .read(k(1), if i == 0 { Value::INIT } else { v(i) })
                .write(k(1), v(i + 1))
                .commit();
        }
        let h = b.build();
        let f = Facts::analyze(&h);
        assert!(f.axioms_ok());
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        match prune(&mut g) {
            PruneResult::Pruned(s) => {
                assert_eq!(s.constraints_after, 0);
                assert_eq!(s.unknown_deps_after, 0);
                assert!(s.constraints_before > 0);
            }
            PruneResult::Violation(c) => panic!("serial history flagged: {c:?}"),
        }
    }

    #[test]
    fn lost_update_prunes_to_final_constraint() {
        // T0 writes x=1. T1 and T2 both read x=1 and write x: a lost update.
        // The paper's pruning rule (Figure 4) only sees cycles that close
        // through *existing* KI paths, so it resolves the T0-vs-T1 and
        // T0-vs-T2 constraints and leaves the T1-vs-T2 one for the solver
        // (which will report UNSAT — tested in the checker crate).
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(3)).commit();
        let h = b.build();
        let f = Facts::analyze(&h);
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        let (result, kg) = g.prune(&Tracer::disabled());
        match result {
            PruneResult::Pruned(s) => {
                assert_eq!(s.constraints_before, 3);
                assert_eq!(s.constraints_after, 1);
                // The resolved constraints made both cross anti-dependencies
                // known: RW(T2→T1) and RW(T1→T2).
                let kg = kg.expect("pruning hands its oracle back");
                let rw: Vec<_> = kg.edges().iter().filter(|e| !e.label.is_dep()).collect();
                assert_eq!(rw.len(), 2);
            }
            PruneResult::Violation(c) => {
                panic!("pruning alone should not resolve this; got {c:?}")
            }
        }
    }

    #[test]
    fn plain_mode_generates_more_constraints() {
        let h = long_fork();
        let f = Facts::analyze(&h);
        let gen = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        let plain = Polygraph::from_history(&h, &f, ConstraintMode::Plain);
        assert!(plain.constraints.len() > gen.constraints.len());
    }

    #[test]
    fn init_readers_get_known_antidependencies() {
        // T0 reads x=init; T1 writes x. Known RW edge T0→T1.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().read(k(1), Value::INIT).commit();
        b.session();
        b.begin().write(k(1), v(5)).commit();
        let h = b.build();
        let f = Facts::analyze(&h);
        let g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        assert!(g
            .known
            .iter()
            .any(|e| e.label == Label::Rw(k(1)) && e.from == TxnId(0) && e.to == TxnId(1)));
    }

    /// Pruning builds its oracle once and records the closure-update
    /// counters; the rebuild reference keeps every resolved edge.
    #[test]
    fn incremental_prune_builds_once() {
        let mut b = HistoryBuilder::new();
        b.session();
        for i in 0..6u64 {
            b.begin()
                .read(k(1), if i == 0 { Value::INIT } else { v(i) })
                .write(k(1), v(i + 1))
                .commit();
        }
        let h = b.build();
        let f = Facts::analyze(&h);
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        let mut rebuild = g.clone();
        let (result, kg) = g.prune(&Tracer::disabled());
        match result {
            PruneResult::Pruned(s) => {
                assert_eq!(s.graph_builds, 1);
                assert!(s.incremental_edges > 0, "resolutions must flow through insert_edges");
                assert!(s.closure_updates > 0);
                assert!(s.iterations >= 2, "a serial RMW chain needs a cascade");
                assert!(prune_by_rebuild(&mut rebuild), "serial chain flagged by the reference");
                let kg = kg.expect("pruning hands its oracle back");
                assert_eq!(rebuild.known.len() - kg.edges().len(), s.implied_edges);
            }
            PruneResult::Violation(c) => panic!("serial chain flagged: {c:?}"),
        }
    }

    /// A resumed prune reports its own oracle work, not the oracle's
    /// lifetime totals: the first prune, the delta landed between the two
    /// and the resume each account for their share exactly once.
    #[test]
    fn resumed_prune_stats_are_deltas_of_the_oracle_counters() {
        let ww = |f, t| Edge::new(TxnId(f), TxnId(t), Label::Ww(k(1)));
        let rw = |f, t| Edge::new(TxnId(f), TxnId(t), Label::Rw(k(1)));
        let so = |f, t| Edge::new(TxnId(f), TxnId(t), Label::So);
        // Writers `a → b` in session order, each with one reader: the
        // reverse order is impossible, and of the forced side the `WW` edge
        // is implied while the reader's `RW` edge is new.
        let pair = |a, b, ra, rb| ([ww(a, b), rw(ra, b)], [ww(b, a), rw(rb, a)]);
        let mut constraints = ConstraintSet::new();
        let (either, or) = pair(0, 1, 2, 3);
        constraints.push(k(1), either, or);
        let mut g =
            Polygraph { n: 8, known: vec![so(0, 1)], constraints, semantics: Semantics::Si };
        let (first, kg) = g.prune(&Tracer::disabled());
        let PruneResult::Pruned(first) = first else { panic!("acyclic") };
        let mut kg = kg.expect("pruning hands its oracle back");
        assert_eq!((first.incremental_edges, first.implied_edges), (1, 1));
        assert!(first.closure_updates > 0);
        assert_eq!((first.closure_updates, 1), (kg.closure_updates(), kg.inserted_edges()));
        // The streaming delta: new known edges land outside any prune call.
        kg.insert_edges(&[so(1, 4), so(4, 5)], Flush::AtEnd).expect("acyclic");
        let landed = (kg.closure_updates(), kg.inserted_edges());
        assert!(landed.0 > first.closure_updates && landed.1 == 3);
        let (either, or) = pair(4, 5, 6, 7);
        g.constraints.push(k(1), either, or);
        let seed = [false, false, false, false, true, true, true, true];
        let (resumed, kg) =
            g.prune_resume(kg, &seed, &ConstraintGen::default(), &Tracer::disabled());
        let PruneResult::Pruned(resumed) = resumed else { panic!("acyclic") };
        let kg = kg.expect("pruning hands its oracle back");
        assert_eq!((resumed.incremental_edges, resumed.implied_edges), (1, 1));
        assert!(resumed.closure_updates > 0);
        assert_eq!(resumed.closure_updates, kg.closure_updates() - landed.0);
        assert_eq!(resumed.incremental_edges, kg.inserted_edges() - landed.1);
        assert!(first.closure_updates + resumed.closure_updates < kg.closure_updates());
        assert!(g.constraints.is_empty());
    }

    /// T0 -SO-> T1, with T1-vs-T2 on x still open.
    fn open_pair() -> Polygraph {
        let ww = |f, t| Edge::new(TxnId(f), TxnId(t), Label::Ww(k(1)));
        let mut constraints = ConstraintSet::new();
        constraints.push(k(1), [ww(1, 2)], [ww(2, 1)]);
        let known = vec![Edge::new(TxnId(0), TxnId(1), Label::So)];
        Polygraph { n: 3, known, constraints, semantics: Semantics::Si }
    }

    /// `open_pair` and its oracle, which holds the known edge.
    fn open_pair_and_oracle() -> (Polygraph, Box<KnownGraph>) {
        let mut g = open_pair();
        let kg = g.known_graph().expect("acyclic");
        (g, kg)
    }

    #[test]
    fn compact_drops_and_renumbers() {
        let (mut g, kg) = open_pair_and_oracle();
        let kg = g.compact(kg, &[u32::MAX, 0, 1], 2);
        assert_eq!(g.n, 2);
        assert!(kg.edges().is_empty(), "the SO edge lost its source: {:?}", kg.edges());
        assert_eq!(kg.layered_order().len(), 4, "the oracle spans the survivors");
        let c = g.constraints.get(0);
        assert_eq!((c.either[0].from, c.either[0].to), (TxnId(0), TxnId(1)));
        assert_eq!((c.or[0].from, c.or[0].to), (TxnId(1), TxnId(0)));
    }

    /// A violated watermark guard fails at the cause, in every profile.
    #[test]
    #[should_panic(expected = "live constraint references compacted transaction T1")]
    fn compact_refuses_to_drop_a_constraint_endpoint() {
        let (mut g, kg) = open_pair_and_oracle();
        g.compact(kg, &[0, u32::MAX, 1], 2);
    }

    #[test]
    fn write_skew_passes_pruning_and_has_no_violation() {
        // T1: r(x) w(y); T2: r(y) w(x) — write skew is allowed under SI.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).write(k(2), v(2)).commit(); // T0 init
        b.session();
        b.begin().read(k(1), v(1)).write(k(2), v(22)).commit(); // T1
        b.session();
        b.begin().read(k(2), v(2)).write(k(1), v(11)).commit(); // T2
        let h = b.build();
        let f = Facts::analyze(&h);
        let mut g = Polygraph::from_history(&h, &f, ConstraintMode::Generalized);
        let (result, kg) = g.prune(&Tracer::disabled());
        match result {
            PruneResult::Pruned(_) => {
                // The remaining graph must be satisfiable; the known part is
                // acyclic.
                let kg = kg.expect("pruning hands its oracle back");
                let known = kg.into_edges();
                assert!(KnownGraph::find_cycle(g.n, &known, g.semantics).is_none());
            }
            PruneResult::Violation(c) => panic!("write skew wrongly flagged: {c:?}"),
        }
    }
}
