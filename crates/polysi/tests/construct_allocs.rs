//! Construction must not pay the allocator per constraint: the constraint
//! store is one edge arena plus one record array, sized by a counting
//! pre-pass, so `Polygraph::from_history` performs a number of heap
//! allocations that does not grow with the constraint count. Likewise the
//! history analyses in front of it must not pay per *operation*:
//! `Facts::analyze` allocates its output lists (a few per transaction and
//! per key) and `ShardPlan::analyze` a fixed number of arrays per history
//! and component. This test binary installs its own counting allocator
//! (hence its own file).

use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::{Facts, History, KeyIndex, ShardPlan};
use polysi::polygraph::{ConstraintMode, Polygraph};
use polysi::workloads::{generate, multi_component, GeneralParams, KeyDistribution};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc` + `realloc`) made by this thread. Const
    /// initialised and without a destructor, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers entirely to the system allocator; the bookkeeping is a
// thread-local counter bump that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Constraints and allocation calls of one construction of the general
/// history with `txns_per_session` transactions in each of 20 sessions.
fn construct(txns_per_session: usize) -> (usize, u64) {
    let plan = generate(&GeneralParams { txns_per_session, ..Default::default() });
    let h = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 7)).history;
    let facts = Facts::analyze(&h);
    assert!(facts.axioms_ok());
    let before = ALLOCS.with(Cell::get);
    let g = Polygraph::from_history(&h, &facts, ConstraintMode::Generalized);
    let allocs = ALLOCS.with(Cell::get) - before;
    (g.constraints.len(), allocs)
}

#[test]
fn construction_allocations_do_not_grow_with_constraints() {
    let (constraints, allocs) = construct(100);
    assert!(constraints > 10_000, "the general 20×100 history has {constraints} constraints");
    assert!(
        (allocs as usize) < constraints / 100,
        "{allocs} allocations for {constraints} constraints"
    );
    // Four times the constraints cost only the extra doublings of the
    // `known` edge list and the pre-pass scratch, not a block apiece.
    let (more, more_allocs) = construct(200);
    assert!(more > 3 * constraints, "{more} vs {constraints} constraints");
    assert!(more_allocs <= allocs + 8, "{allocs} allocations grew to {more_allocs}");
}

/// Sixteen key-disjoint copies of a 4-session × 100-transaction workload
/// over `keys` keys each.
fn sharded_history(ops_per_txn: usize, keys: u64) -> History {
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
    run(&multi_component(&base, 16), &sim).history
}

fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn history_analyses_do_not_allocate_per_operation() {
    let h = sharded_history(8, 1000);
    let (txns, keys) = (h.len() as u64, KeyIndex::build(&h).len() as u64);
    assert!(txns == 6400 && keys > 12_000, "{txns} txns, {keys} keys");

    // Facts: its output lists and little else — no map per transaction, no
    // node per fact.
    let (facts, allocs) = allocs_of(|| Facts::analyze(&h));
    assert!(facts.axioms_ok());
    assert!(allocs <= 3 * txns + 3 * keys, "{allocs} allocations for {txns} txns, {keys} keys");

    // The plan: the same blocks for twice the operations on the same
    // sessions and keys (150 a component: few enough that every key is
    // touched whatever the transaction length).
    let h = sharded_history(8, 150);
    let (plan, allocs) = allocs_of(|| ShardPlan::analyze(&h));
    assert_eq!(plan.components.len(), 16);
    let longer = sharded_history(16, 150);
    assert!(longer.num_ops() >= 2 * h.num_ops());
    let (longer_plan, longer_allocs) = allocs_of(|| ShardPlan::analyze(&longer));
    assert_eq!(longer_plan.components.len(), 16);
    assert_eq!(longer_plan.components[3].keys, plan.components[3].keys);
    assert_eq!(longer_allocs, allocs, "plan allocations follow the operation count");
    assert!(allocs < 120, "{allocs} allocations for 16 components");
}
