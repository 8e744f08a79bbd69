//! What watermark compaction leaves of a key's dropped writers: the exact
//! set of committed values they installed. A later committed re-write of
//! one of those values must still be refused (UniqueValue), so the set is
//! evidence that lives as long as the stream — and is therefore stored
//! compact.
//!
//! A [`KeyFence`] keeps its values sorted, in fixed blocks of [`BLOCK`]
//! values. A block's first value is its *head*, kept uncompressed in one
//! array that a probe binary-searches; the rest of the block is the LEB128
//! gaps between consecutive values, all blocks back to back in one byte
//! array (dictionary + delta encoding, as in a columnar page). Values that
//! grow like a counter — each key's writes a few dozen apart — cost about
//! one byte each; a gap never takes more than ten, and a block adds
//! sixteen bytes of head and offset.

use crate::binfmt::put_varint;
use crate::fasthash::FastMap;
use crate::ids::{Key, Value};

/// Values per block: one head, then `BLOCK - 1` gaps.
const BLOCK: usize = 64;

/// One key's fence record: the committed values its dropped writers
/// installed, exactly (see the module docs for the encoding). Each dropped
/// writer installed one final value of the key, so [`KeyFence::len`] is
/// also the key's dropped-writer count.
#[derive(Clone, Debug, Default)]
pub struct KeyFence {
    /// First value of each block, ascending.
    heads: Vec<u64>,
    /// Where each block's gaps start in `gaps`.
    starts: Vec<usize>,
    /// LEB128 gap from each non-head value to its predecessor.
    gaps: Vec<u8>,
    len: usize,
    /// The largest value held (unused while empty).
    max: u64,
}

impl KeyFence {
    /// Number of dropped values (= dropped writers) of the key.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the record holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a dropped writer of the key installed `value`. A value above
    /// the largest one held is answered without decoding; any other costs a
    /// binary search over the heads and the decode of at most one block.
    pub fn contains(&self, value: Value) -> bool {
        let v = value.0;
        if self.len == 0 || v > self.max {
            return false;
        }
        match self.heads.partition_point(|&h| h <= v) {
            0 => false,
            b => self.block(b - 1).find(|&x| x >= v) == Some(v),
        }
    }

    /// Heap bytes the record holds (capacities, not lengths).
    fn heap_bytes(&self) -> usize {
        self.heads.capacity() * size_of::<u64>()
            + self.starts.capacity() * size_of::<usize>()
            + self.gaps.capacity()
    }

    fn block(&self, b: usize) -> Block<'_> {
        let end = self.starts.get(b + 1).copied().unwrap_or(self.gaps.len());
        Block { next: Some(self.heads[b]), gaps: &self.gaps[self.starts[b]..end] }
    }

    /// The values of block `b` and every later block, ascending.
    fn values_from(&self, b: usize) -> impl Iterator<Item = u64> + '_ {
        (b..self.heads.len()).flat_map(|b| self.block(b))
    }

    /// Add `batch` (ascending, duplicate-free). A batch above the current
    /// maximum appends; any other re-encodes from the first block it
    /// touches.
    fn insert_sorted(&mut self, batch: &[u64]) {
        let Some(&first) = batch.first() else { return };
        if self.len == 0 || first > self.max {
            batch.iter().for_each(|&v| self.push(v));
            return;
        }
        let b = self.heads.partition_point(|&h| h <= first).saturating_sub(1);
        let mut merged: Vec<u64> = self.values_from(b).collect();
        merged.extend_from_slice(batch);
        merged.sort_unstable();
        merged.dedup();
        self.gaps.truncate(self.starts[b]);
        self.heads.truncate(b);
        self.starts.truncate(b);
        self.len = b * BLOCK;
        merged.into_iter().for_each(|v| self.push(v));
    }

    /// Append `v`, which must exceed every value of the current block.
    fn push(&mut self, v: u64) {
        if self.len.is_multiple_of(BLOCK) {
            self.heads.push(v);
            self.starts.push(self.gaps.len());
        } else {
            debug_assert!(v > self.max, "fence values must ascend");
            put_varint(&mut self.gaps, v - self.max);
        }
        self.max = v;
        self.len += 1;
    }
}

/// Decoder of one block: its head, then one value per gap.
struct Block<'a> {
    next: Option<u64>,
    gaps: &'a [u8],
}

impl Iterator for Block<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let cur = self.next?;
        self.next = None;
        let (mut gap, mut shift) = (0u64, 0);
        while let Some((&byte, rest)) = self.gaps.split_first() {
            self.gaps = rest;
            gap |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.next = Some(cur + gap);
                break;
            }
            shift += 7;
        }
        Some(cur)
    }
}

/// Every fenced key's [`KeyFence`]: the keys that lost at least one writer
/// to compaction.
#[derive(Clone, Debug, Default)]
pub struct Fences {
    keys: FastMap<Key, KeyFence>,
    /// Sum of the records' [`KeyFence::heap_bytes`].
    heap: usize,
}

impl Fences {
    /// The fence record of `key`, if compaction dropped one of its writers.
    pub fn get(&self, key: Key) -> Option<&KeyFence> {
        self.keys.get(&key)
    }

    /// Whether `value` of `key` was installed by a dropped writer.
    pub fn contains(&self, key: Key, value: Value) -> bool {
        self.keys.get(&key).is_some_and(|f| f.contains(value))
    }

    /// Whether no key is fenced.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Heap bytes held by the records and the table that indexes them.
    pub fn heap_bytes(&self) -> usize {
        self.heap + self.keys.capacity() * (size_of::<(Key, KeyFence)>() + 1)
    }

    /// Fold one compaction's dropped `(key, value)` pairs (any order,
    /// repeats allowed) into the per-key records.
    pub(crate) fn record(&mut self, dropped: &mut [(Key, Value)]) {
        dropped.sort_unstable();
        let mut values = Vec::new();
        for run in dropped.chunk_by(|a, b| a.0 == b.0) {
            values.clear();
            values.extend(run.iter().map(|&(_, v)| v.0));
            values.dedup();
            let fence = self.keys.entry(run[0].0).or_default();
            self.heap -= fence.heap_bytes();
            fence.insert_sorted(&values);
            self.heap += fence.heap_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn fences_of(pairs: &[(u64, u64)]) -> Fences {
        let mut f = Fences::default();
        f.record(&mut pairs.iter().map(|&(k, v)| (Key(k), Value(v))).collect::<Vec<_>>());
        f
    }

    /// Counter-like values (a key's writes 32 apart, as when 32 keys share
    /// one value counter) cost about a byte each, heads included.
    #[test]
    fn counter_like_values_cost_about_a_byte_each() {
        let mut f = Fences::default();
        for batch in 0..128u64 {
            let mut dropped: Vec<(Key, Value)> =
                (0..64).map(|i| (Key(7), Value(1 + 32 * (64 * batch + i)))).collect();
            f.record(&mut dropped);
        }
        let fence = f.get(Key(7)).expect("fenced");
        assert_eq!(fence.len(), 8192);
        let encoded = fence.heads.len() * 8 + fence.starts.len() * 8 + fence.gaps.len();
        assert!(encoded < 8192 * 5 / 4, "{encoded} B for 8 192 values");
        assert!(f.heap_bytes() < 8192 * 2 + 512, "{} B held", f.heap_bytes());
        assert!(fence.contains(Value(1 + 32 * 4000)));
        assert!(!fence.contains(Value(2 + 32 * 4000)));
    }

    /// A batch above the maximum leaves the bytes already written alone.
    #[test]
    fn a_batch_above_the_maximum_appends() {
        let mut f = fences_of(&[(1, 10), (1, 20), (1, 30)]);
        let before = f.get(Key(1)).unwrap().gaps.clone();
        f.record(&mut [(Key(1), Value(40)), (Key(1), Value(35))]);
        let fence = f.get(Key(1)).unwrap();
        assert_eq!(fence.gaps[..before.len()], before[..]);
        assert_eq!(fence.values_from(0).collect::<Vec<_>>(), [10, 20, 30, 35, 40]);
    }

    /// One step of the property test below: a batch of values for one key,
    /// shaped by `mode` from a per-batch seed.
    fn batch(mode: u8, seed: u64, n: usize, max: u64) -> Vec<u64> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let above = |start: u64, step: u64| -> Vec<u64> {
            (1..=n as u64).map_while(|i| start.checked_add(i.checked_mul(step)?)).collect()
        };
        match mode {
            // Monotone, gap 1 (and across block boundaries: n up to 3 blocks).
            0 => above(max, 1),
            // Monotone, gaps of at least 2^32.
            1 => above(max, (1 << 32) + next() % 1000),
            // Out of order: anywhere below twice the current maximum.
            2 => (0..n).map(|_| 1 + next() % max.saturating_mul(2).max(64)).collect(),
            // Repeats of values already seen (and of each other).
            3 => (0..n).map(|_| 1 + next() % max.max(1)).collect(),
            // Near u64::MAX: ten-byte gaps from small values.
            4 => (0..n).map(|_| u64::MAX - next() % 256).collect(),
            // Random 64-bit values.
            _ => (0..n).map(|_| next()).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The encoded per-key sets against the plain `(key, value)` set
        /// they replaced: equal contents after every batch, equal answers
        /// to every membership probe at the end.
        #[test]
        fn fences_match_a_hash_set_reference(
            steps in prop::collection::vec((0u8..6, 0u64..3, any::<u64>(), 1usize..160), 1..12),
        ) {
            let mut fences = Fences::default();
            let mut reference: HashSet<(Key, Value)> = HashSet::new();
            for (mode, key, seed, n) in steps {
                let max = reference.iter().filter(|p| p.0 == Key(key)).map(|p| p.1 .0).max();
                let values = batch(mode, seed, n, max.unwrap_or(0));
                // The same values land under a second key every other step.
                let keys: &[u64] = if seed % 2 == 0 { &[key] } else { &[key, key + 1] };
                let mut dropped: Vec<(Key, Value)> = keys
                    .iter()
                    .flat_map(|&k| values.iter().map(move |&v| (Key(k), Value(v))))
                    .collect();
                reference.extend(dropped.iter().copied());
                fences.record(&mut dropped);

                let mut expected: Vec<(Key, Value)> = reference.iter().copied().collect();
                expected.sort_unstable();
                let mut held: Vec<(Key, Value)> = fences
                    .keys
                    .iter()
                    .flat_map(|(&k, f)| f.values_from(0).map(move |v| (k, Value(v))))
                    .collect();
                held.sort_unstable();
                prop_assert_eq!(&held, &expected);
                let mut heap = 0;
                for (&k, f) in &fences.keys {
                    prop_assert_eq!(f.len(), expected.iter().filter(|p| p.0 == k).count());
                    heap += f.heap_bytes();
                }
                prop_assert_eq!(fences.heap, heap);
            }
            for (&k, f) in &fences.keys {
                // Every held value and its neighbours, every head, the ends
                // of the range.
                let probes = f
                    .values_from(0)
                    .flat_map(|v| [v.wrapping_sub(1), v, v.wrapping_add(1)])
                    .chain(f.heads.iter().copied())
                    .chain([0, 1, u64::MAX, f.max.wrapping_add(1)]);
                for v in probes {
                    prop_assert_eq!(
                        fences.contains(k, Value(v)),
                        reference.contains(&(k, Value(v))),
                        "key {:?} value {}", k, v
                    );
                }
            }
            prop_assert!(!fences.contains(Key(99), Value(1)));
        }
    }
}
