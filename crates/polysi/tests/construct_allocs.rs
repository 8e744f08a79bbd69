//! Construction and the first prune pass must not pay the allocator per
//! constraint. Construction builds the known edges and a constraint
//! generator (per key, its writers and their readers), so its allocations
//! do not grow with the constraint count; the first prune pass generates
//! each constraint into one reused scratch store, tests it, and stores
//! only the undecided ones, so it allocates what a prune over constraints
//! already stored does, plus a fixed few blocks. Nor does a whole check
//! ever hold the constraint arena a store-all construction would: its
//! peak live bytes stay below the 24 bytes an `Edge` costs times the edges
//! generated, a streaming checkpoint never holds what storing its delta's
//! constraints would, and a sharded check never holds the whole history's
//! `Facts`. Likewise the history analyses in front of it
//! must not pay per
//! *operation*: `Facts::analyze` allocates its output lists (a few per
//! transaction and per key) and `ShardPlan::analyze` a fixed number of
//! arrays per history and component; and the known-graph oracle the first
//! prune pass builds takes a fixed number of blocks whatever its size.
//! This test binary installs its own counting allocator (hence its own
//! file).

use polysi::checker::engine::{CheckEngine, EngineOptions, IsolationLevel as Level, PruneThreads};
use polysi::checker::{Outcome, StreamingChecker};
use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::{Facts, FastSet, History, Key, Op, ShardPlan, TxnStatus, Value};
use polysi::polygraph::{ConstraintMode, Edge, Polygraph, PruneResult, Semantics};
use polysi::workloads::{generate, multi_component, GeneralParams, KeyDistribution};
use polysi_obs::{Obs, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Allocation calls (`alloc` + `realloc`) made by this thread. Const
    /// initialised and without a destructor, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// A block size to watch, and how many new blocks of that size (by
    /// `alloc`, not the `realloc` that grows a block) this thread asked for.
    static WATCHED: Cell<(usize, u64)> = const { Cell::new((0, 0)) };
}

/// Live heap bytes across all threads, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Held by every test, so that one test's peak sees no other's bytes.
static SERIAL: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct CountingAllocator;

// SAFETY: defers entirely to the system allocator; the bookkeeping is a
// thread-local counter bump and relaxed atomics, none of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        WATCHED.with(|c| {
            let (size, count) = c.get();
            c.set((size, count + (size == layout.size()) as u64));
        });
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The general history with `txns_per_session` transactions in each of
/// 20 sessions.
fn general(txns_per_session: usize) -> History {
    let plan = generate(&GeneralParams { txns_per_session, ..Default::default() });
    run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 7)).history
}

/// Constraints generated for the general 20 × `txns_per_session` history,
/// allocation calls of its construction, and how many more allocation
/// calls its generated prune (which generates only the pairs its oracle
/// leaves to decide) makes than a prune over all its constraints stored
/// (which allocates for the oracle what the generated one does).
fn construct(txns_per_session: usize) -> (usize, u64, i64) {
    let h = general(txns_per_session);
    let facts = Facts::analyze(&h);
    assert!(facts.axioms_ok());
    let tracer = Tracer::disabled();
    let mode = ConstraintMode::Generalized;
    let ((mut g, gen), construct) =
        allocs_of(|| Polygraph::from_history_with(&h, &facts, mode, Semantics::Si));
    let mut stored = g.clone();
    stored.constraints = gen.store();
    let (_, generated) = allocs_of(|| g.prune_generated(&gen, &tracer));
    let (_, from_store) = allocs_of(|| stored.prune(&tracer));
    assert_eq!(g.constraints, stored.constraints);
    (gen.counts().0, construct, generated as i64 - from_store as i64)
}

#[test]
fn construction_allocations_do_not_grow_with_constraints() {
    let _serial = serial();
    let (constraints, allocs, extra) = construct(100);
    assert!(constraints > 10_000, "the general 20×100 history has {constraints} constraints");
    assert!(
        (allocs as usize) < constraints / 100,
        "{allocs} allocations for {constraints} constraints"
    );
    // Four times the constraints cost only the extra doublings of the
    // `known` edge list and the generator's lists, not a block apiece.
    let (more, more_allocs, more_extra) = construct(200);
    assert!(more > 3 * constraints, "{more} vs {constraints} constraints");
    assert!(more_allocs <= allocs + 8, "{allocs} allocations grew to {more_allocs}");
    // Generating and testing them in the first pass costs a fixed few
    // blocks beyond what pruning stored constraints costs.
    for (constraints, extra) in [(constraints, extra), (more, more_extra)] {
        assert!(extra.abs() <= 16, "{extra} more allocations for {constraints} constraints");
    }
}

/// A whole check of the general 20 × 200 history never holds what a
/// store-all construction would: its peak live bytes stay below 24 bytes
/// per generated edge, the size of that store's edge arena alone.
#[test]
fn a_check_never_holds_the_constraint_arena() {
    let _serial = serial();
    let h = general(200);
    let facts = Facts::analyze(&h);
    let (_, gen) =
        Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, Semantics::Si);
    let (constraints, edges) = gen.counts();
    drop((facts, gen));
    assert!(constraints > 50_000, "the general 20×200 history has {constraints} constraints");
    let engine = CheckEngine::new(Level::Si, EngineOptions::default());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = engine.check(&h);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(report.accepted());
    let arena = edges * std::mem::size_of::<Edge>();
    assert!(peak < arena, "peak {peak} B vs the {arena} B arena of {edges} edges");
}

/// The unit's oracle takes over its known edges: building and pruning a
/// unit of `E` constructed edges allocates no new block of `24·E` bytes,
/// the size of a copy of them, under SI and SER; what pruning adds grows
/// the one list in place. Nor does the polygraph keep a list: dropping the
/// oracle frees every known edge.
#[test]
fn pruning_allocates_no_second_known_edge_list() {
    let _serial = serial();
    let plan = generate(&GeneralParams { txns_per_session: 100, ..Default::default() });
    let tracer = Tracer::disabled();
    for (semantics, store) in [
        (Semantics::Si, IsolationLevel::SnapshotIsolation),
        (Semantics::Ser, IsolationLevel::Serializable),
    ] {
        let h = run(&plan, &SimConfig::new(store, 7)).history;
        let facts = Facts::analyze(&h);
        let (mut g, gen) =
            Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, semantics);
        let list = std::mem::size_of_val(g.known.as_slice());
        let held = g.known.capacity() * std::mem::size_of::<Edge>();
        WATCHED.with(|c| c.set((list, 0)));
        let before = LIVE.load(Ordering::Relaxed);
        let (result, oracle) = g.prune_generated(&gen, &tracer);
        let copies = WATCHED.with(|c| c.replace((0, 0))).1;
        assert!(matches!(result, PruneResult::Pruned(_)));
        let oracle = oracle.expect("pruning hands its oracle back");
        let resolved = std::mem::size_of_val(oracle.edges()) - list;
        assert!(resolved > 0, "{semantics:?}: pruning materialised no edge");
        assert_eq!(copies, 0, "{semantics:?}: {copies} new blocks of the {list} B known list");
        drop(oracle);
        // What is left of the prune is the constraints it stored.
        let kept = LIVE.load(Ordering::Relaxed) as i64 - (before - held) as i64;
        assert!(g.known.is_empty());
        assert!(kept < (list + resolved) as i64, "{semantics:?}: the unit keeps {kept} B");
    }
}

/// Interpretation is never a check's peak: on a rejected stale-snapshot
/// history, a check that interprets its counterexample peaks exactly where
/// one that does not interpret it peaks (in pruning). One prune thread, so
/// the peak does not depend on scheduling.
#[test]
fn interpretation_is_never_the_peak() {
    let _serial = serial();
    let plan = generate(&GeneralParams { txns_per_session: 200, ..Default::default() });
    let h = run(&plan, &SimConfig::new(IsolationLevel::StaleSnapshot, 7)).history;
    let peak = |interpret: bool| {
        let opts = EngineOptions {
            interpret,
            prune_threads: PruneThreads::Fixed(1),
            ..Default::default()
        };
        let engine = CheckEngine::new(Level::Si, opts);
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let report = engine.check(&h);
        let peak = PEAK.load(Ordering::Relaxed) - base;
        let Outcome::CyclicViolation(v) = &report.outcome else {
            panic!("the stale-snapshot history is rejected by a cycle: {:?}", report.outcome)
        };
        assert_eq!(v.scenario.is_some(), interpret);
        peak
    };
    let (with, without) = (peak(true), peak(false));
    eprintln!("peak {with} B interpreting, {without} B not");
    assert_eq!(
        with,
        without,
        "interpretation raised the peak by {} B",
        with as i64 - without as i64
    );
}

/// A checkpoint whose delta adds `W` writers to a key that already has `M`
/// generates, of each new writer's pairs, only those its fixed oracle
/// leaves to decide — here, where session order decides every pair, the
/// one with the writer just before it — and stores only those it leaves
/// open: none. Its peak live bytes above its start stay below 24 bytes per
/// uncertain edge of all the delta's pairs, the size of a store-all delta
/// arena alone.
#[test]
fn a_checkpoint_never_holds_its_delta_arena() {
    let _serial = serial();
    const M: u64 = 300;
    const W: u64 = 100;
    let obs = Obs::default();
    let mut c = StreamingChecker::new(Level::Si, EngineOptions::default()).with_obs(obs.clone());
    let s = c.session();
    let write = |v: u64| vec![Op::Write { key: Key(1), value: Value(v) }];
    for v in 1..=M {
        c.push_transaction(s, write(v), TxnStatus::Committed);
    }
    assert!(c.checkpoint().verdict.accepted());
    for v in M + 1..=M + W {
        c.push_transaction(s, write(v), TxnStatus::Committed);
    }
    // Each new writer would pair with every earlier one; a pair of blind
    // writers has one `WW` edge a side.
    let pairs = W * M + W * (W - 1) / 2;
    let edges = 2 * pairs as usize;
    let before = obs.metrics.counter("prune.constraints_before").total();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let cp = c.checkpoint();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(cp.verdict.accepted() && cp.rebuilt == 0, "the delta path checked it");
    assert_eq!(obs.metrics.counter("prune.constraints_before").total() - before, W);
    assert_eq!(obs.metrics.counter("prune.constraints_stored").total(), 0);
    let arena = edges * std::mem::size_of::<Edge>();
    assert!(peak < arena, "peak {peak} B vs the {arena} B arena of {edges} delta edges");
}

/// `components` key-disjoint copies of a 4-session × 100-transaction
/// workload over `keys` keys each.
fn sharded_history(ops_per_txn: usize, keys: u64, components: usize) -> History {
    let base = GeneralParams {
        sessions: 4,
        txns_per_session: 100,
        ops_per_txn,
        keys,
        read_pct: 80,
        dist: KeyDistribution::Uniform,
        seed: 7,
    };
    let sim = SimConfig::new(IsolationLevel::SnapshotIsolation, 7);
    run(&multi_component(&base, components), &sim).history
}

/// A sharded check analyses each component on its own and drops its
/// facts before it takes the next, so on 32 components and two workers its
/// peak live bytes above the history stay below what the whole history's
/// `Facts` alone holds (about twice that peak).
#[test]
fn a_sharded_check_never_holds_the_whole_facts() {
    let _serial = serial();
    let h = sharded_history(8, 150, 32);
    let base = LIVE.load(Ordering::Relaxed);
    let facts = Facts::analyze(&h);
    let whole = LIVE.load(Ordering::Relaxed) - base;
    drop(facts);
    let opts = EngineOptions { prune_threads: PruneThreads::Fixed(2), ..Default::default() };
    let engine = CheckEngine::new(Level::Si, opts);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = engine.check(&h);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(report.accepted());
    assert_eq!(report.shard_stats.map(|s| s.components), Some(32));
    assert!(peak < whole, "peak {peak} B vs the {whole} B of the whole history's facts");
}

fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The reachability oracle is a few flat arrays — the layered adjacency
/// and its reverse in CSR form, the edge list their entries index, the
/// `Dep` lists, the closure rows and the per-node order and scratch — so
/// building it over four times the transactions costs no more blocks, bar
/// a few doublings of the lists whose length the session cover decides.
#[test]
fn an_oracle_build_allocates_a_fixed_number_of_blocks() {
    let _serial = serial();
    let build = |txns_per_session: usize| {
        let h = general(txns_per_session);
        let facts = Facts::analyze(&h);
        let (mut g, _) =
            Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, Semantics::Si);
        let (oracle, allocs) = allocs_of(|| g.known_graph());
        assert!(oracle.is_ok());
        (h.len(), allocs)
    };
    let ((small, few), (large, more)) = (build(100), build(400));
    eprintln!("oracle build: {few} allocations at {small} txns, {more} at {large}");
    assert_eq!((small, large), (2_000, 8_000));
    assert!(few < 100 && more < 100, "{few} and {more} allocations");
    assert!(more.abs_diff(few) <= 8, "{few} allocations grew to {more}");
}

#[test]
fn history_analyses_do_not_allocate_per_operation() {
    let _serial = serial();
    let h = sharded_history(8, 1000, 16);
    let keys: FastSet<Key> = h.iter().flat_map(|(_, t)| t.ops.iter().map(|op| op.key())).collect();
    let (txns, keys) = (h.len() as u64, keys.len() as u64);
    assert!(txns == 6400 && keys > 12_000, "{txns} txns, {keys} keys");

    // Facts: its output lists and little else — no map per transaction, no
    // node per fact.
    let (facts, allocs) = allocs_of(|| Facts::analyze(&h));
    assert!(facts.axioms_ok());
    assert!(allocs <= 3 * txns + 3 * keys, "{allocs} allocations for {txns} txns, {keys} keys");

    // The plan: the same blocks for twice the operations on the same
    // sessions and keys (150 a component: few enough that every key is
    // touched whatever the transaction length).
    let h = sharded_history(8, 150, 16);
    let (plan, allocs) = allocs_of(|| ShardPlan::analyze(&h));
    assert_eq!(plan.components.len(), 16);
    let longer = sharded_history(16, 150, 16);
    assert!(longer.num_ops() >= 2 * h.num_ops());
    let (longer_plan, longer_allocs) = allocs_of(|| ShardPlan::analyze(&longer));
    assert_eq!(longer_plan.components.len(), 16);
    assert_eq!(longer_plan.components[3].keys, plan.components[3].keys);
    assert_eq!(longer_allocs, allocs, "plan allocations follow the operation count");
    assert!(allocs < 120, "{allocs} allocations for 16 components");
}
