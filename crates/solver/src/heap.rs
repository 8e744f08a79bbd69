//! An indexed max-heap over variable activities (the VSIDS order).

use crate::types::Var;

/// Binary max-heap keyed by an external activity array, with an index map
/// for `decrease/increase`-key and membership tests (MiniSat's `VarOrder`).
#[derive(Default)]
pub struct ActivityHeap {
    heap: Vec<Var>,
    /// Position of each var in `heap`, or `usize::MAX` if absent.
    index: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure the index map covers `n` variables.
    pub fn grow(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize(n, ABSENT);
        }
    }

    /// Whether the heap is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `v` is in the heap.
    pub fn contains(&self, v: Var) -> bool {
        self.index[v.idx()] != ABSENT
    }

    /// Insert `v` (no-op if present).
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.index[v.idx()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Remove and return the var with maximal activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.index[top.idx()] = ABSENT;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.idx()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restore heap order after `v`'s activity increased.
    pub fn bumped(&mut self, v: Var, activity: &[f64]) {
        let pos = self.index[v.idx()];
        if pos != ABSENT {
            self.sift_up(pos, activity);
        }
    }

    fn sift_up(&mut self, mut pos: usize, act: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if act[self.heap[pos].idx()] <= act[self.heap[parent].idx()] {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize, act: &[f64]) {
        loop {
            let l = 2 * pos + 1;
            let r = 2 * pos + 2;
            let mut best = pos;
            if l < self.heap.len() && act[self.heap[l].idx()] > act[self.heap[best].idx()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].idx()] > act[self.heap[best].idx()] {
                best = r;
            }
            if best == pos {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].idx()] = a;
        self.index[self.heap[b].idx()] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let act = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = ActivityHeap::new();
        h.grow(5);
        for i in 0..5 {
            h.insert(Var(i), &act);
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop(&act)).collect();
        assert_eq!(order, vec![Var(1), Var(3), Var(2), Var(4), Var(0)]);
        assert!(h.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let act = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.grow(2);
        h.insert(Var(0), &act);
        h.insert(Var(0), &act);
        assert_eq!(h.pop(&act), Some(Var(0)));
        assert_eq!(h.pop(&act), None);
    }

    #[test]
    fn bumped_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        h.grow(3);
        for i in 0..3 {
            h.insert(Var(i), &act);
        }
        act[0] = 10.0;
        h.bumped(Var(0), &act);
        assert_eq!(h.pop(&act), Some(Var(0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let act = vec![1.0];
        let mut h = ActivityHeap::new();
        h.grow(1);
        assert!(!h.contains(Var(0)));
        h.insert(Var(0), &act);
        assert!(h.contains(Var(0)));
        h.pop(&act);
        assert!(!h.contains(Var(0)));
    }
}
