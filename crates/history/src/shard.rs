//! Key-connectivity sharding analysis.
//!
//! A history decomposes into independently checkable *components* when its
//! transactions can be partitioned so that no two components share a key
//! and no session spans two components. Within the paper's formalism every
//! dependency edge (`SO`, `WR`, `WW`, `RW`) and every constraint is then
//! local to one component, so the induced SI (or SER) graph is the disjoint
//! union of the per-component graphs and the history satisfies the
//! isolation level iff every component does. The staged `CheckEngine`
//! (`polysi_checker::engine`) uses this to check components in parallel.
//!
//! The partition is computed with a union–find over *sessions* and *keys*:
//! every transaction unions its session with every key it touches (aborted
//! transactions included — their writes may still matter to the non-cyclic
//! axioms, and being conservative only merges components, never splits
//! them). The resulting components are maximal, i.e. this is the finest
//! partition with the independence property above.
//!
//! The plan also reports how many components *key connectivity alone*
//! would yield ([`ShardPlan::key_components`]): when sessions bridge
//! otherwise key-disjoint transaction groups, the history collapses into a
//! single component and the engine must fall back to whole-history
//! checking ([`ShardFallback::CrossShardSessions`]).
//!
//! The union–find runs on the dense key ids of a `KeyIndex` — sessions
//! are unioned with key ids as the operations are met, roots map to
//! components through a vector — so apart from building the index the plan
//! costs two array steps per operation and allocates a fixed number of
//! blocks per history and component. Its output is ordered by construction,
//! not by sorting: components by their first session, `sessions` and `txns`
//! ascending (sessions are id ranges), `keys` ascending (filled by one sweep
//! of `KeyIndex::ids_by_key`). A component's local ids are positions in
//! its `txns`, which is also how [`History::restrict`] numbers the history
//! of its sessions, the unit the engine analyses and checks.

use crate::history::History;
use crate::ids::{Key, SessionId, TxnId};
use crate::index::KeyIndex;

/// One independently checkable component of a history.
#[derive(Clone, Debug)]
pub struct ShardComponent {
    /// The sessions of the component (whole sessions — `SO` never crosses
    /// component boundaries).
    pub sessions: Vec<SessionId>,
    /// The component's transactions, ascending (session-major order, so
    /// consecutive ids within a session stay consecutive).
    pub txns: Vec<TxnId>,
    /// The keys touched by the component's transactions, ascending. Keys
    /// never appear in more than one component.
    pub keys: Vec<Key>,
}

impl ShardComponent {
    /// Number of transactions in the component.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the component has no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Whether the component contains `t`.
    pub fn contains(&self, t: TxnId) -> bool {
        self.txns.binary_search(&t).is_ok()
    }

    /// The component-local id of global transaction `t`, if it belongs to
    /// this component. Local ids are dense `0..len()` in global order.
    pub fn local(&self, t: TxnId) -> Option<TxnId> {
        self.txns.binary_search(&t).ok().map(|i| TxnId(i as u32))
    }

    /// The global id of component-local transaction `local`.
    pub fn global(&self, local: TxnId) -> TxnId {
        self.txns[local.idx()]
    }
}

/// Why a [`ShardPlan`] offers no usable partition (fewer than two
/// components).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardFallback {
    /// The history is connected through shared keys alone; no finer
    /// partition exists under any session layout.
    SingleComponent,
    /// Key connectivity alone would split the history, but at least one
    /// session spans several key components, so its `SO` edges are
    /// cross-shard constraints and the engine must check the whole history.
    CrossShardSessions,
}

/// The key-connectivity partition of a history.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Maximal independent components, ordered by first session id.
    pub components: Vec<ShardComponent>,
    /// Component index of each transaction (dense over `TxnId`).
    pub component_of: Vec<u32>,
    /// Number of components under key connectivity alone (ignoring
    /// sessions). `key_components > components.len()` means session edges
    /// merged otherwise independent shards.
    pub key_components: usize,
}

impl ShardPlan {
    /// Compute the finest independent partition of `h`. Apart from
    /// interning the keys (`KeyIndex`), the work per operation is two
    /// union–find steps on dense ids, and the number of allocations depends
    /// on the sessions and components only.
    pub fn analyze(h: &History) -> ShardPlan {
        let index = &KeyIndex::build(h);
        let nsess = h.num_sessions();
        let nkeys = index.len();

        // Union–find 1: sessions ∪ keys (nodes 0..nsess are sessions,
        // nsess.. are keys) — the partition the engine shards by.
        let mut uf = UnionFind::new(nsess + nkeys);
        // Union–find 2: keys linked only through single transactions — the
        // partition key connectivity alone would give.
        let mut kf = UnionFind::new(nkeys);
        for (_, txn, key_ids) in index.per_txn(h) {
            let sess = txn.session.0 as usize;
            for &k in key_ids {
                uf.union(sess, nsess + k as usize);
                kf.union(key_ids[0] as usize, k as usize);
            }
        }

        // Components, ordered by first session: map union-find roots to
        // dense component indices. A session without transactions touches
        // no key and has nothing to check, so it opens no component.
        let mut comp_of_root = vec![u32::MAX; nsess + nkeys];
        let mut components: Vec<ShardComponent> = Vec::new();
        let mut sizes: Vec<(usize, usize)> = Vec::new(); // (txns, keys) per component
        for s in h.sessions().filter(|s| !s.txns.is_empty()) {
            let root = uf.find(s.id.0 as usize);
            if comp_of_root[root] == u32::MAX {
                comp_of_root[root] = components.len() as u32;
                components.push(ShardComponent {
                    sessions: Vec::new(),
                    txns: Vec::new(),
                    keys: Vec::new(),
                });
                sizes.push((0, 0));
            }
            let c = comp_of_root[root] as usize;
            components[c].sessions.push(s.id);
            sizes[c].0 += s.txns.len();
        }
        let comp_of_key: Vec<u32> = (0..nkeys).map(|k| comp_of_root[uf.find(nsess + k)]).collect();
        for &c in &comp_of_key {
            sizes[c as usize].1 += 1;
        }
        for (comp, &(txns, keys)) in components.iter_mut().zip(&sizes) {
            comp.txns.reserve_exact(txns);
            comp.keys.reserve_exact(keys);
        }

        // Sessions are id ranges, so walking them in order visits the
        // transactions ascending; `ids_by_key` visits the keys ascending.
        let mut component_of = vec![0u32; h.len()];
        for s in h.sessions().filter(|s| !s.txns.is_empty()) {
            let c = comp_of_root[uf.find(s.id.0 as usize)];
            let txns = &mut components[c as usize].txns;
            for i in 0..s.txns.len() {
                let id = TxnId(s.first.0 + i as u32);
                component_of[id.idx()] = c;
                txns.push(id);
            }
        }
        for &kid in index.ids_by_key() {
            components[comp_of_key[kid as usize] as usize].keys.push(index.key(kid));
        }

        // Every key is touched by some transaction and a transaction's keys
        // share one root, so the key-only components are the roots of `kf`.
        let key_components = (0..nkeys).filter(|&k| kf.find(k) == k).count();

        ShardPlan { components, component_of, key_components }
    }

    /// Whether the partition is worth sharding over (two or more
    /// components).
    pub fn is_shardable(&self) -> bool {
        self.components.len() >= 2
    }

    /// Why the plan is not shardable, or `None` when it is.
    pub fn fallback(&self) -> Option<ShardFallback> {
        if self.is_shardable() {
            None
        } else if self.key_components >= 2 {
            Some(ShardFallback::CrossShardSessions)
        } else {
            Some(ShardFallback::SingleComponent)
        }
    }

    /// Transactions of the largest component.
    pub fn largest(&self) -> usize {
        self.components.iter().map(ShardComponent::len).max().unwrap_or(0)
    }
}

/// Union–find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::Value;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }

    /// Two sessions on key 1, two on key 10 — two components.
    fn two_component_history() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().write(k(10), v(100)).commit();
        b.session();
        b.begin().read(k(10), v(100)).commit();
        b.build()
    }

    #[test]
    fn disjoint_keys_split_into_components() {
        let h = two_component_history();
        let plan = ShardPlan::analyze(&h);
        assert!(plan.is_shardable());
        assert_eq!(plan.components.len(), 2);
        assert_eq!(plan.key_components, 2);
        assert_eq!(plan.fallback(), None);
        let a = &plan.components[0];
        let b = &plan.components[1];
        assert_eq!(a.txns, vec![TxnId(0), TxnId(1)]);
        assert_eq!(b.txns, vec![TxnId(2), TxnId(3)]);
        assert_eq!(a.keys, vec![k(1)]);
        assert_eq!(b.keys, vec![k(10)]);
        assert_eq!(plan.component_of, vec![0, 0, 1, 1]);
        assert_eq!(plan.largest(), 2);
    }

    #[test]
    fn local_global_roundtrip() {
        let h = two_component_history();
        let plan = ShardPlan::analyze(&h);
        let b = &plan.components[1];
        assert_eq!(b.local(TxnId(2)), Some(TxnId(0)));
        assert_eq!(b.local(TxnId(3)), Some(TxnId(1)));
        assert_eq!(b.local(TxnId(0)), None);
        assert_eq!(b.global(TxnId(1)), TxnId(3));
        assert!(b.contains(TxnId(3)) && !b.contains(TxnId(1)));
        // The history of the component's sessions numbers its transactions
        // by the same local ids.
        let restricted = h.restrict(&b.sessions);
        assert_eq!(restricted.len(), b.len());
        for &t in &b.txns {
            assert_eq!(restricted.txn(b.local(t).unwrap()).ops, h.txn(t).ops);
        }
    }

    #[test]
    fn shared_key_merges_components() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        // Touches both key groups inside one transaction.
        b.begin().read(k(1), v(1)).write(k(10), v(100)).commit();
        b.session();
        b.begin().read(k(10), v(100)).commit();
        let plan = ShardPlan::analyze(&b.build());
        assert_eq!(plan.components.len(), 1);
        assert_eq!(plan.key_components, 1);
        assert_eq!(plan.fallback(), Some(ShardFallback::SingleComponent));
    }

    #[test]
    fn bridging_session_forces_cross_shard_fallback() {
        // Key groups {1} and {10} are disjoint, but session 2's two
        // transactions touch one group each: the SO edge between them is a
        // cross-shard constraint.
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.session();
        b.begin().write(k(10), v(100)).commit();
        b.session();
        b.begin().read(k(1), v(1)).commit();
        b.begin().read(k(10), v(100)).commit();
        let plan = ShardPlan::analyze(&b.build());
        assert_eq!(plan.components.len(), 1);
        assert_eq!(plan.key_components, 2);
        assert_eq!(plan.fallback(), Some(ShardFallback::CrossShardSessions));
    }

    #[test]
    fn aborted_transactions_keep_their_component() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).abort();
        b.begin().write(k(1), v(2)).commit();
        b.session();
        b.begin().write(k(10), v(100)).commit();
        let plan = ShardPlan::analyze(&b.build());
        assert_eq!(plan.components.len(), 2);
        assert_eq!(plan.components[0].txns, vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn empty_sessions_open_no_component() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(1)).commit();
        b.begin().read(k(1), v(1)).write(k(1), v(2)).commit();
        b.session();
        b.begin().read(k(1), v(2)).commit();
        b.session();
        let plan = ShardPlan::analyze(&b.build());
        assert_eq!(plan.components.len(), 1);
        assert_eq!(plan.components[0].sessions, vec![SessionId(0), SessionId(1)]);
        assert_eq!(plan.fallback(), Some(ShardFallback::SingleComponent));
    }

    #[test]
    fn empty_history_has_no_components() {
        let plan = ShardPlan::analyze(&History::new());
        assert!(plan.components.is_empty());
        assert!(!plan.is_shardable());
        assert_eq!(plan.fallback(), Some(ShardFallback::SingleComponent));
        assert_eq!(plan.largest(), 0);
    }
}
