//! The hasher behind every key-indexed map of this crate's analyses.
//!
//! [`Facts`](crate::Facts) and the key index of a
//! [`ShardPlan`](crate::ShardPlan) hash one or two machine words per probe
//! — a [`Key`](crate::Key), a `(Key, Value)` or a `(Key, TxnId)` — a few
//! million times per check. SipHash spends most of
//! its rounds on the fixed-size finalisation there; a *fold-multiply* step
//! (the 128-bit product of the running state and an odd constant, high half
//! xored into the low half) mixes a word in one multiplication and leaves
//! every output bit depending on every input bit, which is what
//! `std::collections::HashMap` needs (it takes the bucket from the low bits
//! and the control tag from the top seven).
//!
//! Keys come from outside the program, so the state starts from a seed drawn
//! once per process from the standard library's randomness
//! ([`RandomState`]): colliding key sets cannot be computed in advance.
//! Each [`FastBuild`] copies the seed when it is made, so a map stays
//! consistent for its whole life; nothing in the crate may depend on the
//! iteration order of a [`FastMap`], exactly as under `RandomState`.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A `HashMap` on the fold-multiply hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` on the fold-multiply hasher.
pub type FastSet<T> = HashSet<T, FastBuild>;

/// An odd 64-bit constant with no structure (digits of π, as in the
/// Blowfish P-array).
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// The per-process seed; `0` until first use. It publishes no other data,
/// so `Relaxed` suffices: racing first users agree through the
/// compare-exchange.
static PROCESS_SEED: AtomicU64 = AtomicU64::new(0);

fn process_seed() -> u64 {
    let seed = PROCESS_SEED.load(Ordering::Relaxed);
    if seed != 0 {
        return seed;
    }
    let fresh = RandomState::new().hash_one(0x706f_6c79_7369u64) | 1;
    match PROCESS_SEED.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(winner) => winner,
    }
}

/// Test hook: make every [`FastBuild`] created from now on start from
/// `seed` (maps that already exist keep theirs). Results must not depend on
/// the seed; the conformance suite runs under two forced seeds to show it.
/// Not an option of the checker — nothing outside tests calls this.
#[doc(hidden)]
pub fn force_process_seed(seed: u64) {
    PROCESS_SEED.store(seed | 1, Ordering::Relaxed);
}

/// Builds [`FastHasher`]s that start from the process seed as it was when
/// this value was created.
#[derive(Clone, Copy, Debug)]
pub struct FastBuild {
    seed: u64,
}

impl Default for FastBuild {
    fn default() -> Self {
        FastBuild { seed: process_seed() }
    }
}

impl BuildHasher for FastBuild {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// One fold-multiply per written word (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FastHasher {
    state: u64,
}

#[inline]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold_multiply(self.state ^ word, MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Derived `Hash` writes an enum's discriminant as an `isize`, which
    /// the default methods hand on to this one.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// The byte-slice fallback (no key type of this crate reaches it):
    /// eight bytes per step, the length folded in so `"a"` and `"a\0"`
    /// differ.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Key, TxnId, Value};

    fn build(seed: u64) -> FastBuild {
        FastBuild { seed }
    }

    /// The largest number of `keys` that share one 16-slot probe group of a
    /// table with `groups` groups (a power of two), i.e. that agree on the
    /// low bits `HashMap` picks the bucket from.
    fn max_group_load(keys: impl Iterator<Item = u64>, groups: usize, seed: u64) -> usize {
        let mut load = vec![0usize; groups];
        for k in keys {
            load[(build(seed).hash_one(Key(k)) as usize) & (groups - 1)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// 65 536 keys over 8 192 groups: 8 per group on average. A uniform
    /// hash stays under 32 with overwhelming probability; a hash that keeps
    /// the input's structure piles thousands into a few groups.
    const KEYS: u64 = 1 << 16;
    const GROUPS: usize = 1 << 13;
    const BOUND: usize = 32;

    #[test]
    fn sequential_keys_spread() {
        for seed in [1, 0xdead_beef_cafe_f00d] {
            assert!(max_group_load(0..KEYS, GROUPS, seed) <= BOUND);
            assert!(max_group_load((0..KEYS).map(|k| 100_000 + k), GROUPS, seed) <= BOUND);
        }
    }

    #[test]
    fn keys_that_differ_only_above_bit_32_spread() {
        for seed in [1, 0xdead_beef_cafe_f00d] {
            assert!(max_group_load((0..KEYS).map(|k| k << 32), GROUPS, seed) <= BOUND);
            assert!(max_group_load((0..KEYS).map(|k| (k << 40) | 7), GROUPS, seed) <= BOUND);
        }
    }

    #[test]
    fn multiples_of_powers_of_two_spread() {
        for seed in [1, 0xdead_beef_cafe_f00d] {
            for shift in [1, 4, 8, 13, 16, 20, 47] {
                let load = max_group_load((0..KEYS).map(|k| k << shift), GROUPS, seed);
                assert!(load <= BOUND, "multiples of 2^{shift}: {load} keys in one group");
            }
        }
    }

    #[test]
    fn top_bits_spread_too() {
        // The control tag comes from the top seven bits.
        let mut tags = [0usize; 128];
        for k in 0..KEYS {
            tags[(build(1).hash_one(Key(k)) >> 57) as usize] += 1;
        }
        let expected = (KEYS / 128) as usize;
        assert!(tags.iter().all(|&t| t > expected / 2 && t < expected * 2), "{tags:?}");
    }

    #[test]
    fn tuples_hash_both_halves() {
        let b = build(1);
        let base = b.hash_one((Key(5), Value(9)));
        assert_ne!(base, b.hash_one((Key(6), Value(9))));
        assert_ne!(base, b.hash_one((Key(5), Value(10))));
        assert_ne!(base, b.hash_one((Key(9), Value(5))), "halves are not interchangeable");
        let base = b.hash_one((Key(5), TxnId(9)));
        assert_ne!(base, b.hash_one((Key(6), TxnId(9))));
        assert_ne!(base, b.hash_one((Key(5), TxnId(10))));
        // Fixing either half, the other still spreads over the groups.
        for seed in [1, 0xdead_beef_cafe_f00d] {
            let mut by_value = vec![0usize; GROUPS];
            let mut by_txn = vec![0usize; GROUPS];
            for i in 0..KEYS {
                by_value[(build(seed).hash_one((Key(77), Value(i))) as usize) & (GROUPS - 1)] += 1;
                by_txn[(build(seed).hash_one((Key(i), TxnId(3))) as usize) & (GROUPS - 1)] += 1;
            }
            assert!(by_value.into_iter().max() <= Some(BOUND));
            assert!(by_txn.into_iter().max() <= Some(BOUND));
        }
    }

    #[test]
    fn seeds_change_the_hash_and_builders_keep_theirs() {
        assert_ne!(build(1).hash_one(Key(42)), build(3).hash_one(Key(42)));
        let b = FastBuild::default();
        let before = b.hash_one(Key(42));
        assert_eq!(before, b.hash_one(Key(42)));
        assert_eq!(before, FastBuild::default().hash_one(Key(42)), "one seed per process");
    }

    #[test]
    fn byte_slices_include_their_length() {
        let b = build(1);
        assert_ne!(b.hash_one("a"), b.hash_one("a\0"));
        assert_ne!(b.hash_one([1u8, 2, 3].as_slice()), b.hash_one([1u8, 2, 3, 0].as_slice()));
    }
}
