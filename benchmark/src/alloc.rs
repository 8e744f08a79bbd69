//! The benchmark's own byte-counting global allocator: `peak_mib`,
//! `stream.bytes_per_txn` and `stream.live_bytes_max` are read from it.
//! Wraps the system allocator; the counters are statistics only, so relaxed
//! atomics suffice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

/// Live heap bytes right now.
pub fn current() -> usize {
    CURRENT.load(Relaxed)
}

/// Restart the high-water mark at the current level and return that level.
pub fn reset_peak() -> usize {
    let now = current();
    PEAK.store(now, Relaxed);
    now
}

/// High-water mark since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

fn grow(n: usize) {
    PEAK.fetch_max(CURRENT.fetch_add(n, Relaxed) + n, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping only touches atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `main.rs` installs the allocator for the test binary too. Other test
    // threads allocate concurrently, so only one-sided bounds are exact.
    #[test]
    fn counts_live_bytes_and_keeps_the_high_water_mark() {
        const BIG: usize = 64 << 20;
        let base = reset_peak();
        let block = vec![1u8; BIG];
        assert!(current() >= BIG);
        assert!(peak() >= base.min(current()) && peak() >= BIG);
        drop(std::hint::black_box(block));
        assert!(peak() >= BIG, "the peak must survive the free");
        assert!(current() < peak());
        let mut v: Vec<u8> = Vec::with_capacity(BIG);
        v.push(1);
        v.reserve_exact(2 * BIG);
        assert!(peak() >= 2 * BIG, "realloc growth must be counted");
    }
}
