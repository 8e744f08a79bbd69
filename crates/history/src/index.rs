//! Key interning: one hash lookup per operation, once per history.
//!
//! A [`KeyIndex`] gives each key of a history a dense `u32` id in
//! *first-touch* order and records the id of every operation, so
//! [`ShardPlan`](crate::ShardPlan)'s union–find indexes plain vectors
//! instead of probing a map per operation. (The facts need no index: their
//! builder takes transactions one at a time, as a stream delivers them.)
//!
//! Ids follow the order operations appear in, which depends on nothing but
//! the history; ascending-*key* order, which the component key lists are
//! built in, comes from [`KeyIndex::ids_by_key`] (one sort of the distinct
//! keys).

use crate::fasthash::FastMap;
use crate::history::{History, Transaction};
use crate::ids::{Key, TxnId};
use std::collections::hash_map::Entry;

/// Dense key ids of one history (see the module docs).
pub(crate) struct KeyIndex {
    /// `keys[id]`: first-touch order.
    keys: Vec<Key>,
    /// The key id of every operation, in history order (transactions by
    /// id, operations in program order).
    op_ids: Vec<u32>,
    /// All ids, by ascending key.
    by_key: Vec<u32>,
}

impl KeyIndex {
    /// Intern the keys of `h`.
    pub(crate) fn build(h: &History) -> KeyIndex {
        let mut ids: FastMap<Key, u32> = FastMap::default();
        let mut keys: Vec<Key> = Vec::new();
        let mut op_ids: Vec<u32> = Vec::with_capacity(h.num_ops());
        for (_, txn) in h.iter() {
            for op in &txn.ops {
                op_ids.push(match ids.entry(op.key()) {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(slot) => {
                        let id = u32::try_from(keys.len()).expect("more than 2^32 distinct keys");
                        keys.push(op.key());
                        *slot.insert(id)
                    }
                });
            }
        }
        // Only the ids outlive the build; free the table before sorting.
        drop(ids);
        keys.shrink_to_fit();
        let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
        by_key.sort_unstable_by_key(|&id| keys[id as usize]);
        KeyIndex { keys, op_ids, by_key }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The key with the given id.
    #[inline]
    pub(crate) fn key(&self, id: u32) -> Key {
        self.keys[id as usize]
    }

    /// All key ids, by ascending key.
    pub(crate) fn ids_by_key(&self) -> &[u32] {
        &self.by_key
    }

    /// Pair each transaction of `h` with the key ids of its operations.
    /// Panics if the index was built from a history of another shape.
    pub(crate) fn per_txn<'a>(
        &'a self,
        h: &'a History,
    ) -> impl Iterator<Item = (TxnId, &'a Transaction, &'a [u32])> {
        let mut rest = self.op_ids.as_slice();
        h.iter().map(move |(id, txn)| {
            let (mine, tail) = rest.split_at(txn.ops.len());
            rest = tail;
            (id, txn, mine)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::Value;

    #[test]
    fn ids_follow_first_touch_and_order_follows_keys() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(30), Value(1)).read(Key(10), Value::INIT).commit();
        b.session();
        b.begin().read(Key(30), Value(1)).write(Key(20), Value(2)).write(Key(30), Value(3)).abort();
        let h = b.build();
        let index = KeyIndex::build(&h);
        assert_eq!(index.len(), 3);
        assert_eq!([index.key(0), index.key(1), index.key(2)], [Key(30), Key(10), Key(20)]);
        assert_eq!(index.ids_by_key(), &[1, 2, 0]);
        let per_txn: Vec<&[u32]> = index.per_txn(&h).map(|(_, _, ids)| ids).collect();
        assert_eq!(per_txn, [&[0u32, 1][..], &[0, 2, 0][..]]);
    }

    #[test]
    fn empty_history_has_an_empty_index() {
        let index = KeyIndex::build(&History::new());
        assert_eq!(index.len(), 0);
        assert!(index.op_ids.is_empty() && index.ids_by_key().is_empty());
    }
}
