//! Compact bit matrices for dense reachability.
//!
//! A [`BitMatrix`] with `n` rows of `n` bits backs the dense closure of the
//! known-graph oracle that constraint pruning queries (Algorithm 1, line 15
//! — the paper uses Floyd–Warshall; we BFS in reverse topological order,
//! which is `O(V·E/64)` instead of `O(V³)`), and [`ChainRows`] its
//! session-chain closure; the Cobra baseline's reach sets use the former.

/// A bit matrix stored row-major in 64-bit words.
#[derive(Clone)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An `n × n` matrix of zeros.
    pub fn new(n: usize) -> Self {
        Self::rect(n, n)
    }

    /// A `rows × cols` matrix of zeros.
    pub fn rect(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix { rows, cols, words_per_row, bits: vec![0; rows * words_per_row] }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is zero-dimensional.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes of backing storage (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Test bit `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words_per_row + col / 64] >> (col % 64) & 1 == 1
    }

    /// Set bit `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    /// The words of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// `self[dst] |= self[src]`; returns whether `dst` changed.
    pub fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        debug_assert_ne!(src, dst);
        let w = self.words_per_row;
        let (a, b) = if src < dst {
            let (lo, hi) = self.bits.split_at_mut(dst * w);
            (&lo[src * w..src * w + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.bits.split_at_mut(src * w);
            (&hi[..w], &mut lo[dst * w..dst * w + w])
        };
        let mut changed = false;
        for (d, &s) in b.iter_mut().zip(a) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// Whether a row shares any set bit with a raw word slice of the same
    /// width (e.g. a row of another matrix over the same column space).
    #[inline]
    pub fn row_intersects(&self, row: usize, other: &[u64]) -> bool {
        self.row(row).iter().zip(other).any(|(&a, &b)| a & b != 0)
    }

    /// Set bit `(row, col)`; returns whether it was newly set. The
    /// incremental closure update uses this to decide whether a row change
    /// must propagate further.
    #[inline]
    pub fn set_fresh(&mut self, row: usize, col: usize) -> bool {
        let w = &mut self.bits[row * self.words_per_row + col / 64];
        let mask = 1u64 << (col % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Iterate over the set columns of a row.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        iter_bits(self.row(row))
    }

    /// A copy of the matrix with new (non-smaller) dimensions and remapped
    /// rows: row `r` of the result is row `src_row(r)` of `self` (all
    /// zeros when `None`); column bits keep their index. Incremental
    /// structures whose node space grows — e.g. a reachability oracle
    /// accepting streamed transactions — use this to extend closure
    /// matrices without recomputing them.
    pub fn remapped(
        &self,
        rows: usize,
        cols: usize,
        src_row: impl Fn(usize) -> Option<usize>,
    ) -> BitMatrix {
        debug_assert!(cols >= self.cols, "columns must not shrink");
        let mut out = BitMatrix::rect(rows, cols);
        let w = out.words_per_row;
        for r in 0..rows {
            if let Some(src) = src_row(r) {
                let row = self.row(src);
                out.bits[r * w..r * w + row.len()].copy_from_slice(row);
            }
        }
        out
    }

    /// Count of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Per-chain reachability rows: the sparse counterpart of [`BitMatrix`]
/// for graphs carrying a *path cover* (PolySI histories: session order).
///
/// Row `r` holds, per chain, the minimum chain position reachable from
/// node `r` ([`ChainRows::NONE`] when the chain is untouched). Because
/// consecutive chain positions are linked by a real graph edge,
/// reachability within a chain is up-closed — reaching position `p`
/// implies reaching every position after it — so the single minimum fully
/// characterizes the reachable set and a row costs `O(chains)` `u32`s
/// instead of `O(n)` bits. The mutators mirror the [`BitMatrix`] closure
/// ops one-for-one (`min_set` ↔ `set_fresh`, `min_row_into` ↔
/// `or_row_into`) and report "changed" under exactly the same conditions,
/// so incremental closure maintenance can drive either representation
/// through one code path with identical propagation schedules.
#[derive(Clone)]
pub struct ChainRows {
    rows: usize,
    chains: usize,
    /// Allocated columns per row (`≥ chains`, grows by doubling).
    stride: usize,
    ents: Vec<u32>,
}

impl ChainRows {
    /// Entry value meaning "no position of this chain is reachable".
    pub const NONE: u32 = u32::MAX;

    /// A `rows × chains` table with every entry [`ChainRows::NONE`].
    pub fn rect(rows: usize, chains: usize) -> Self {
        let stride = chains.next_power_of_two().max(4);
        ChainRows { rows, chains, stride, ents: vec![Self::NONE; rows * stride] }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table is zero-dimensional.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of allocated chains (columns).
    #[inline]
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Bytes of backing storage (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.ents.len() * 4
    }

    /// Minimum reachable position of `chain` from `row`'s node.
    #[inline]
    pub fn get(&self, row: usize, chain: usize) -> u32 {
        self.ents[row * self.stride + chain]
    }

    /// Lower `(row, chain)` to at most `pos`; returns whether the entry
    /// decreased — the exact analogue of [`BitMatrix::set_fresh`]: a
    /// decrease means some chain position became newly reachable.
    #[inline]
    pub fn min_set(&mut self, row: usize, chain: usize, pos: u32) -> bool {
        let e = &mut self.ents[row * self.stride + chain];
        let fresh = pos < *e;
        if fresh {
            *e = pos;
        }
        fresh
    }

    /// Elementwise `self[dst] = min(self[dst], self[src])`; returns whether
    /// `dst` changed (the analogue of [`BitMatrix::or_row_into`]).
    pub fn min_row_into(&mut self, src: usize, dst: usize) -> bool {
        debug_assert_ne!(src, dst);
        let w = self.stride;
        let (a, b) = if src < dst {
            let (lo, hi) = self.ents.split_at_mut(dst * w);
            (&lo[src * w..src * w + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.ents.split_at_mut(src * w);
            (&hi[..w], &mut lo[dst * w..dst * w + w])
        };
        let mut changed = false;
        for (d, &s) in b.iter_mut().zip(a) {
            if s < *d {
                *d = s;
                changed = true;
            }
        }
        changed
    }

    /// Allocate one more chain column (all [`ChainRows::NONE`]), growing
    /// the stride by doubling when exhausted; returns the new chain index.
    pub fn push_chain(&mut self) -> usize {
        if self.chains == self.stride {
            let stride = (self.stride * 2).max(4);
            let mut ents = vec![Self::NONE; self.rows * stride];
            for r in 0..self.rows {
                ents[r * stride..r * stride + self.chains]
                    .copy_from_slice(&self.ents[r * self.stride..r * self.stride + self.chains]);
            }
            self.stride = stride;
            self.ents = ents;
        }
        self.chains += 1;
        self.chains - 1
    }

    /// A copy with `rows` rows, row `r` taken from row `src_row(r)` of
    /// `self` (all-[`ChainRows::NONE`] when `None`); chain columns keep
    /// their index. The growable oracle's counterpart of
    /// [`BitMatrix::remapped`].
    pub fn remapped(&self, rows: usize, src_row: impl Fn(usize) -> Option<usize>) -> ChainRows {
        let mut out =
            ChainRows { rows, chains: self.chains, stride: self.stride, ents: Vec::new() };
        out.ents = vec![Self::NONE; rows * out.stride];
        for r in 0..rows {
            if let Some(src) = src_row(r) {
                out.ents[r * out.stride..(r + 1) * out.stride]
                    .copy_from_slice(&self.ents[src * self.stride..(src + 1) * self.stride]);
            }
        }
        out
    }

    /// Count of finite entries (diagnostics).
    pub fn finite_count(&self) -> usize {
        self.ents.iter().filter(|&&e| e != Self::NONE).count()
    }
}

/// A single growable bit row (visited sets and similar).
#[derive(Clone, Default)]
pub struct BitRow {
    words: Vec<u64>,
}

impl BitRow {
    /// A row with capacity for `n` bits, all zero.
    pub fn new(n: usize) -> Self {
        BitRow { words: vec![0; n.div_ceil(64)] }
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i`; returns whether it was newly set.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self |= other`, where `other` is a raw word slice of the same width.
    pub fn or_words(&mut self, other: &[u64]) {
        for (d, &s) in self.words.iter_mut().zip(other) {
            *d |= s;
        }
    }

    /// The set bits of `other & !self`, i.e. the bits that would be new.
    pub fn fresh_bits<'a>(&'a self, other: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().zip(other).enumerate().flat_map(|(wi, (&mine, &theirs))| {
            let mut novel = theirs & !mine;
            std::iter::from_fn(move || {
                if novel == 0 {
                    None
                } else {
                    let b = novel.trailing_zeros() as usize;
                    novel &= novel - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterate over set bits.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        iter_bits(&self.words)
    }
}

fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rem = w;
        std::iter::from_fn(move || {
            if rem == 0 {
                None
            } else {
                let b = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_set_get() {
        let mut m = BitMatrix::new(130);
        assert!(!m.get(100, 129));
        m.set(100, 129);
        assert!(m.get(100, 129));
        assert!(!m.get(129, 100));
        assert_eq!(m.count_ones(), 1);
        assert_eq!(m.len(), 130);
        assert!(!m.is_empty());
    }

    #[test]
    fn or_row_into_merges() {
        let mut m = BitMatrix::new(70);
        m.set(0, 3);
        m.set(0, 69);
        m.set(1, 5);
        assert!(m.or_row_into(0, 1));
        assert!(m.get(1, 3) && m.get(1, 5) && m.get(1, 69));
        // second merge is a no-op
        assert!(!m.or_row_into(0, 1));
        // works in the other split direction too
        assert!(m.or_row_into(1, 0));
        assert!(m.get(0, 5));
    }

    #[test]
    fn iter_row_yields_sorted_columns() {
        let mut m = BitMatrix::new(200);
        for c in [199, 0, 64, 65] {
            m.set(7, c);
        }
        let cols: Vec<_> = m.iter_row(7).collect();
        assert_eq!(cols, vec![0, 64, 65, 199]);
    }

    #[test]
    fn row_intersects_and_set_fresh() {
        let mut m = BitMatrix::new(130);
        let mut other = BitMatrix::new(130);
        m.set(0, 129);
        other.set(1, 129);
        assert!(m.row_intersects(0, other.row(1)));
        assert!(!m.row_intersects(0, other.row(0)));
        assert!(m.set_fresh(2, 65));
        assert!(!m.set_fresh(2, 65));
        assert!(m.get(2, 65));
    }

    #[test]
    fn bitrow_set_fresh() {
        let mut r = BitRow::new(100);
        assert!(r.set(99));
        assert!(!r.set(99));
        assert!(r.get(99));
        r.clear();
        assert!(!r.get(99));
    }

    #[test]
    fn bitrow_fresh_bits() {
        let mut r = BitRow::new(128);
        r.set(1);
        r.set(64);
        let mut other = BitRow::new(128);
        other.set(1);
        other.set(2);
        other.set(127);
        let fresh: Vec<_> = r.fresh_bits(&other.words).collect();
        assert_eq!(fresh, vec![2, 127]);
        r.or_words(&other.words);
        assert!(r.get(2) && r.get(127) && r.get(64));
    }

    #[test]
    fn bitrow_iter() {
        let mut r = BitRow::new(70);
        r.set(0);
        r.set(69);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    fn matrix_bytes_accounting() {
        let m = BitMatrix::new(64);
        assert_eq!(m.bytes(), 64 * 8);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;

    #[test]
    fn min_set_reports_decreases_only() {
        let mut c = ChainRows::rect(3, 2);
        assert_eq!(c.get(0, 1), ChainRows::NONE);
        assert!(c.min_set(0, 1, 7));
        assert!(!c.min_set(0, 1, 7), "equal position is not fresh");
        assert!(!c.min_set(0, 1, 9), "higher position is absorbed");
        assert!(c.min_set(0, 1, 3));
        assert_eq!(c.get(0, 1), 3);
        assert_eq!(c.finite_count(), 1);
    }

    #[test]
    fn min_row_into_merges_elementwise() {
        let mut c = ChainRows::rect(3, 3);
        c.min_set(0, 0, 5);
        c.min_set(0, 2, 1);
        c.min_set(1, 0, 2);
        assert!(c.min_row_into(0, 1));
        assert_eq!(c.get(1, 0), 2, "existing lower entry wins");
        assert_eq!(c.get(1, 2), 1);
        assert!(!c.min_row_into(0, 1), "second merge is a no-op");
        // Other split direction.
        assert!(c.min_row_into(1, 2));
        assert_eq!(c.get(2, 0), 2);
    }

    #[test]
    fn push_chain_grows_stride_and_preserves_entries() {
        let mut c = ChainRows::rect(2, 4);
        for ch in 0..4 {
            c.min_set(1, ch, ch as u32);
        }
        let new = c.push_chain();
        assert_eq!(new, 4);
        assert_eq!(c.chains(), 5);
        for ch in 0..4 {
            assert_eq!(c.get(1, ch), ch as u32, "entry survived the stride doubling");
        }
        assert_eq!(c.get(1, new), ChainRows::NONE);
        assert_eq!(c.get(0, new), ChainRows::NONE);
    }

    #[test]
    fn remapped_moves_rows_keeps_columns() {
        let mut c = ChainRows::rect(2, 2);
        c.min_set(0, 0, 4);
        c.min_set(1, 1, 6);
        let g = c.remapped(4, |r| match r {
            0 => Some(0),
            3 => Some(1),
            _ => None,
        });
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(0, 0), 4);
        assert_eq!(g.get(3, 1), 6);
        assert_eq!(g.get(1, 0), ChainRows::NONE);
        assert_eq!(g.finite_count(), 2);
    }

    #[test]
    fn bytes_accounting() {
        let c = ChainRows::rect(4, 3);
        // stride rounds 3 up to 4 columns of u32.
        assert_eq!(c.bytes(), 4 * 4 * 4);
    }
}

#[cfg(test)]
mod rect_tests {
    use super::*;

    #[test]
    fn rectangular_dimensions() {
        let mut m = BitMatrix::rect(3, 200);
        m.set(2, 199);
        assert!(m.get(2, 199));
        assert_eq!(m.len(), 3);
        assert_eq!(m.cols(), 200);
        assert_eq!(m.count_ones(), 1);
    }
}
