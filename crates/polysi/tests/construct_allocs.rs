//! Construction must not pay the allocator per constraint: the constraint
//! store is one edge arena plus one record array, sized by a counting
//! pre-pass, so `Polygraph::from_history` performs a number of heap
//! allocations that does not grow with the constraint count. This test
//! binary installs its own counting allocator (hence its own file).

use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::Facts;
use polysi::polygraph::{ConstraintMode, Polygraph};
use polysi::workloads::{generate, GeneralParams};
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
