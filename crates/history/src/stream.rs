//! Streaming history ingestion: the one builder of [`Facts`], and the
//! key-connectivity [`crate::ShardPlan`] grown online, over a
//! session-ordered transaction stream.
//!
//! A [`HistoryStream`] accepts transactions one at a time
//! ([`HistoryStream::push_transaction`]), in session order *within* each
//! session but interleaved arbitrarily *across* sessions — the shape a
//! live workload produces. Internally transactions are identified by
//! **arrival order** (`TxnId(0)` is the first transaction pushed): unlike
//! the session-major ids of a batch [`History`], arrival ids are stable as
//! the stream grows, which is what lets per-component polygraphs and
//! reachability oracles extend in place. [`HistoryStream::history_of`]
//! materializes chosen sessions as an ordinary session-major [`History`],
//! [`HistoryStream::snapshot`] every session, so any batch machinery can
//! be run on the prefix or a part of it.
//!
//! Two incremental structures are maintained per push:
//!
//! * [`StreamFacts`] — the fact builder. `Facts::analyze` is this builder
//!   fed a whole history in id order and finished, so the stream's facts
//!   are the batch facts of its prefix by construction. Reads of values
//!   whose writer has not arrived yet are *unresolved*: they wait in their
//!   reader's one read list; while any exist (or any violation that never
//!   heals was seen) the prefix fails the non-cyclic axioms exactly as the
//!   batch analysis would, and graph work is skipped. A later write
//!   resolves them in place. The lists are the snapshot's: of what waits
//!   ([`HistoryStream::read_violations`]), or of a prefix that never heals
//!   ([`HistoryStream::axiom_state`]).
//! * [`StreamShards`] — the sessions∪keys union–find of
//!   [`crate::ShardPlan`], grown online. Components carry a stable
//!   [`RootInfo::tag`] that changes only when two transaction-bearing
//!   components merge — the signal that a checker's cached per-component
//!   state must be rebuilt rather than extended.
//!
//! The delta a streaming checker consumes between two checkpoints is not
//! stored: [`StreamFacts::delta`] derives it from the facts as the
//! [`FactEvent`]s of every transaction from a cursor on. That is exact
//! because a checker moves its cursor only past a prefix whose axioms
//! hold, where no read waits; a read that heals later therefore belongs to
//! a transaction at or after the cursor, and its `WR` edge is emitted at
//! its writer's turn.

use crate::facts::{AxiomViolation, Facts, ReadFact, TxnEffects, WrSource};
use crate::fasthash::{FastMap, FastSet};
use crate::fence::Fences;
use crate::history::{History, Transaction};
use crate::ids::{Key, SessionId, TxnId, Value};
use crate::live::IngestError;
use crate::op::{Op, TxnStatus};
use std::collections::hash_map::Entry;

/// One fact of a graph delta ([`StreamFacts::delta`]): everything a
/// checker needs to extend component polygraphs between two checkpoints.
/// Each transaction yields its facts in a canonical order — the
/// transaction itself, then its final writes, then the older reads its
/// writes healed, then its own reads in program order — so replaying a
/// delta is deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FactEvent {
    /// A transaction arrived (any status; aborted transactions occupy a
    /// vertex but contribute no edges).
    Txn {
        /// Arrival id.
        id: TxnId,
    },
    /// A committed transaction's final write on `key` became visible:
    /// `writer` joined `WriteTx_key`, making one new constraint per
    /// already-known writer of the key.
    FinalWrite {
        /// The written key.
        key: Key,
        /// The writing transaction.
        writer: TxnId,
    },
    /// An external read resolved to its source: the `WR(key)` edge
    /// `writer → reader` is now known (`writer ≠ reader`). Yielded at the
    /// reader's turn when the writer arrived first, or at the writer's
    /// turn when the read had been waiting.
    Wr {
        /// The read key.
        key: Key,
        /// The source transaction.
        writer: TxnId,
        /// The reading transaction.
        reader: TxnId,
    },
    /// An external read observed the initial value: `reader` gains a
    /// known anti-dependency to every writer of `key`, present and
    /// future.
    InitRead {
        /// The read key.
        key: Key,
        /// The reading transaction.
        reader: TxnId,
    },
}

/// The source of a read still waiting for its writer. No transaction has
/// this id, and no read carries it while [`StreamFacts::axioms_ok`] holds.
const PENDING: WrSource = WrSource::Txn(TxnId(u32::MAX));

/// The fact builder (see the module docs): push transactions, then
/// [`StreamFacts::facts`] while the axioms hold, or a classified list of
/// what breaks them. The embedded [`Facts`] value is the state of the
/// current prefix: its `reads` lists hold every external read in program
/// order, a read still waiting for its writer with a placeholder source
/// (resolved in place when the writer lands) and a read of the reader's
/// own later write with the reader as its source; its `violations` hold the
/// violations of the transactions themselves (`Int`, `WroteInitValue`,
/// `DuplicateWrite`), which never heal. Fences are stream state: they are
/// empty in a batch analysis.
pub struct StreamFacts {
    facts: Facts,
    /// `(key, value) → writer` for committed final writes (first wins, as
    /// in the batch analysis). Aborted and intermediate writes are not
    /// indexed: a read is resolved against a committed final write or
    /// *unresolved*, and only a list of violations classifies it (see
    /// [`StreamFacts::read_violations`]).
    final_writer: FastMap<(Key, Value), TxnId>,
    /// Readers waiting on a committed final write of `(key, value)`.
    unresolved: FastMap<(Key, Value), Vec<TxnId>>,
    unresolved_count: usize,
    /// Readers of their own later final write, once per such read: a
    /// future read, which never heals.
    future_readers: Vec<TxnId>,
    /// One fence record per key with at least one writer dropped by
    /// compaction: the committed values those writers installed, which
    /// refuse later reads below the fence and re-writes of a dropped value
    /// (see [`HistoryStream::compact`]).
    fences: Fences,
    /// Watermark violations seen so far: duplicate writes of compacted
    /// values. They never heal, and they are streaming-only (a batch
    /// analysis of the compacted snapshot cannot know about dropped
    /// values).
    watermark_violations: Vec<AxiomViolation>,
    /// Committed reads refused below the fence, `(reader, key, value)`:
    /// terminal, but a limit of the checker, not a violation.
    fenced_reads: Vec<(TxnId, Key, Value)>,
    /// Scratch of the per-transaction walk.
    effects: TxnEffects,
}

impl StreamFacts {
    /// An empty builder, with room for `txns` transactions.
    pub(crate) fn with_capacity(txns: usize) -> Self {
        StreamFacts {
            facts: Facts {
                reads: Vec::with_capacity(txns),
                writes: Vec::with_capacity(txns),
                writers: FastMap::default(),
                readers: FastMap::default(),
                init_readers: FastMap::default(),
                violations: Vec::new(),
            },
            final_writer: FastMap::default(),
            unresolved: FastMap::default(),
            unresolved_count: 0,
            future_readers: Vec::new(),
            fences: Fences::default(),
            watermark_violations: Vec::new(),
            fenced_reads: Vec::new(),
            effects: TxnEffects::default(),
        }
    }

    /// The resolved facts of the current prefix. Field contents match
    /// `Facts::analyze` on the snapshot, up to the id mapping, whenever
    /// [`StreamFacts::axioms_ok`] holds (list *orders* inside
    /// `writers`/`readers`/`init_readers` follow arrival rather than
    /// session-major id order — verdict-neutral for graph construction). A
    /// debug build refuses to hand them out while a read waits for its
    /// writer.
    pub fn facts(&self) -> &Facts {
        debug_assert_eq!(self.unresolved_count, 0, "a read waiting for its writer is visible");
        &self.facts
    }

    /// Whether the current prefix passes the non-cyclic axioms — i.e.
    /// batch `Facts::analyze` on the snapshot would find no violation —
    /// and the fence refused no read. Unresolved reads count as broken
    /// (the batch analysis classifies them as aborted/intermediate/
    /// unknown-value reads); they may heal when the writer arrives,
    /// monotone violations never do.
    pub fn axioms_ok(&self) -> bool {
        self.unresolved_count == 0 && self.axioms_can_heal()
    }

    /// Whether the axioms can still heal: no violation of a transaction
    /// itself, no future read, no watermark violation and no fenced read
    /// has occurred (any breakage is reads waiting for their writer).
    pub fn axioms_can_heal(&self) -> bool {
        self.facts.violations.is_empty()
            && self.future_readers.is_empty()
            && self.watermark_violations.is_empty()
            && self.fenced_reads.is_empty()
    }

    /// The keys fenced by compaction (at least one dropped writer), each
    /// with its [`crate::KeyFence`]: the committed values the dropped
    /// writers installed — the uniqueness evidence the duplicate-write
    /// axiom consults after the writers themselves are gone.
    pub fn fences(&self) -> &Fences {
        &self.fences
    }

    /// The graph delta of the transactions with arrival id `from` and
    /// later, derived from the facts: per transaction, in ascending order,
    /// [`FactEvent::Txn`], a [`FactEvent::FinalWrite`] per final write in
    /// key order, a [`FactEvent::Wr`] per older read those writes healed,
    /// and its own reads in program order — an [`FactEvent::InitRead`], or
    /// a [`FactEvent::Wr`] from an earlier writer. `from` must have moved
    /// only past prefixes whose axioms held (see the module docs).
    pub fn delta(&self, from: usize) -> impl Iterator<Item = FactEvent> + '_ {
        let facts = self.facts();
        (from..facts.reads.len()).flat_map(move |t| {
            let id = TxnId(t as u32);
            let writes = &facts.writes[t];
            let final_writes =
                writes.iter().map(move |&(key, _)| FactEvent::FinalWrite { key, writer: id });
            // A reader below its writer read the value before it was
            // written: its read waited and healed at the writer's push.
            // Readers are in id order, so those come first.
            let healed = writes.iter().flat_map(move |&(key, _)| {
                let readers = facts.readers_of(key, id).iter();
                readers.take_while(move |&&r| r < id).map(move |&r| {
                    debug_assert!(r.idx() >= from, "a read healed below the cursor");
                    FactEvent::Wr { key, writer: id, reader: r }
                })
            });
            let reads = facts.reads[t].iter().filter_map(move |&(key, _, source)| match source {
                WrSource::Init => Some(FactEvent::InitRead { key, reader: id }),
                WrSource::Txn(w) if w < id => Some(FactEvent::Wr { key, writer: w, reader: id }),
                WrSource::Txn(_) => None, // healed at its writer's turn
            });
            std::iter::once(FactEvent::Txn { id }).chain(final_writes).chain(healed).chain(reads)
        })
    }

    /// Ingest one complete transaction: its own violations, its final
    /// writes (healing the reads that waited for them), then its external
    /// reads, each resolved, waiting, or a future read. A committed
    /// transaction's lists are reserved at their exact length.
    pub(crate) fn push(&mut self, id: TxnId, txn: &Transaction) {
        let mut fx = std::mem::take(&mut self.effects);
        fx.walk(id, txn, &mut self.facts.violations);
        let committed = txn.committed();
        let (reads, writes) =
            if committed { (fx.ext_reads.len(), fx.final_writes.len()) } else { (0, 0) };
        self.facts.reads.push(Vec::with_capacity(reads));
        self.facts.writes.push(Vec::with_capacity(writes));
        if committed {
            for &(key, value, _) in &fx.final_writes {
                self.push_write(id, key, value);
            }
            for &(key, value, _) in &fx.ext_reads {
                self.push_read(id, key, value);
            }
        }
        self.effects = fx;
    }

    /// A committed final write, registered before any read of its
    /// transaction is resolved (so a read of its own later write is seen
    /// as one).
    fn push_write(&mut self, id: TxnId, key: Key, value: Value) {
        if self.fences.contains(key, value) {
            // The first writer of this value was compacted away; its
            // `final_writer` entry is gone, but the value is still taken.
            // Registering the re-write would silently diverge from an
            // uncompacted run's DuplicateWrite.
            self.watermark_violations.push(AxiomViolation::CompactedDuplicateWrite {
                txn: id,
                key,
                value,
            });
            return;
        }
        self.facts.writes[id.idx()].push((key, value));
        self.facts.writers.entry(key).or_default().push(id);
        match self.final_writer.entry((key, value)) {
            Entry::Occupied(first) => {
                let first = *first.get();
                self.facts.violations.push(AxiomViolation::DuplicateWrite {
                    key,
                    value,
                    first,
                    second: id,
                });
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
                // Heal the older reads that were waiting on this write.
                let Some(waiting) = self.unresolved.remove(&(key, value)) else { return };
                self.unresolved_count -= waiting.len();
                for &r in &waiting {
                    let read = self.facts.reads[r.idx()]
                        .iter_mut()
                        .find(|read| **read == (key, value, PENDING))
                        .expect("a waiting reader holds its read");
                    read.2 = WrSource::Txn(id);
                }
                self.facts.readers.insert((key, id), waiting);
            }
        }
    }

    /// A committed external read: refused at the fence, or resolved, or
    /// left waiting for its writer.
    fn push_read(&mut self, id: TxnId, key: Key, value: Value) {
        // A read of the initial value of a fenced key or of a dropped
        // value: its edges to the dropped writers cannot be built any more
        // — refuse it instead of under-checking it.
        if self.fences.get(key).is_some_and(|f| value.is_init() || f.contains(value)) {
            self.fenced_reads.push((id, key, value));
            return;
        }
        let source = if value.is_init() {
            self.facts.init_readers.entry(key).or_default().push(id);
            WrSource::Init
        } else {
            match self.final_writer.get(&(key, value)) {
                // A read of its own later write never heals.
                Some(&w) if w == id => {
                    self.future_readers.push(id);
                    WrSource::Txn(id)
                }
                Some(&w) => {
                    self.facts.readers.entry((key, w)).or_default().push(id);
                    WrSource::Txn(w)
                }
                // No committed final writer yet: a future write may heal it.
                None => {
                    self.unresolved.entry((key, value)).or_default().push(id);
                    self.unresolved_count += 1;
                    PENDING
                }
            }
        };
        self.facts.reads[id.idx()].push((key, value, source));
    }

    /// The violations of the reads still unresolved — aborted,
    /// intermediate, unknown-value and future reads — as the batch analysis
    /// of the live transactions lists them: reader by reader in
    /// session-major order, each reader's in program order, with every id
    /// session-major. `live` yields the live transactions in session-major
    /// order with their arrival ids. One walk over them finds the aborted
    /// and intermediate writers of the waiting `(key, value)` pairs, the
    /// last in that order winning; a committed writer dropped by compaction
    /// is not found, so its readers read an unknown value, as in the batch
    /// analysis of the compacted snapshot. Nothing is walked while every
    /// read is resolved.
    fn read_violations<'a>(
        &self,
        live: impl Iterator<Item = (TxnId, &'a Transaction)>,
    ) -> Vec<AxiomViolation> {
        if self.unresolved_count == 0 && self.future_readers.is_empty() {
            return Vec::new();
        }
        let mut rank = vec![u32::MAX; self.facts.reads.len()];
        let mut aborted: FastMap<(Key, Value), TxnId> = FastMap::default();
        let mut intermediate: FastMap<(Key, Value), TxnId> = FastMap::default();
        let (mut fx, mut ignored) = (TxnEffects::default(), Vec::new());
        for (i, (id, txn)) in live.enumerate() {
            let at = TxnId(i as u32);
            rank[id.idx()] = at.0;
            if self.unresolved.is_empty() {
                continue;
            }
            fx.walk(at, txn, &mut ignored);
            ignored.clear();
            let waits = |pair: &(Key, Value)| self.unresolved.contains_key(pair);
            if !txn.committed() {
                let finals = fx.final_writes.iter().map(|&(key, value, _)| (key, value));
                aborted.extend(finals.filter(waits).map(|pair| (pair, at)));
            }
            intermediate.extend(fx.overwritten.iter().copied().filter(waits).map(|p| (p, at)));
        }
        let waiting = self.unresolved.values().flatten().chain(&self.future_readers);
        let mut readers: Vec<(u32, TxnId)> = waiting.map(|&r| (rank[r.idx()], r)).collect();
        readers.sort_unstable();
        readers.dedup();
        let mut violations = Vec::new();
        for (at, r) in readers {
            let reader = TxnId(at);
            for &(key, value, source) in &self.facts.reads[r.idx()] {
                violations.push(if source == WrSource::Txn(r) {
                    AxiomViolation::FutureRead { txn: reader, key, value }
                } else if source != PENDING {
                    continue;
                } else if let Some(&writer) = aborted.get(&(key, value)) {
                    AxiomViolation::AbortedRead { reader, writer, key, value }
                } else if let Some(&writer) = intermediate.get(&(key, value)) {
                    AxiomViolation::IntermediateRead { reader, writer, key, value }
                } else {
                    AxiomViolation::UnknownValueRead { txn: reader, key, value }
                });
            }
        }
        violations
    }

    /// The facts of what was pushed, which `txns` yields again as pushed:
    /// unresolved reads join the violations, then the watermark violations.
    pub(crate) fn finish<'a>(
        mut self,
        txns: impl Iterator<Item = (TxnId, &'a Transaction)>,
    ) -> Facts {
        let found = self.read_violations(txns);
        for &r in self.unresolved.values().flatten().chain(&self.future_readers) {
            let resolved =
                |&(_, _, source): &ReadFact| source != PENDING && source != WrSource::Txn(r);
            self.facts.reads[r.idx()].retain(resolved);
        }
        self.facts.violations.extend(found);
        self.facts.violations.append(&mut self.watermark_violations);
        self.facts
    }

    /// Drop the transactions whose `map` entry is `u32::MAX` and renumber
    /// the survivors (`map[old] = new`, order-preserving). The caller
    /// guarantees the drop set is *forward-closed out of*: no surviving
    /// transaction has a known dependency edge into a dropped one — in
    /// particular every reader of a dropped writer is itself dropped and
    /// every `WR` source of a surviving reader survives — so the compacted
    /// facts are exactly `Facts::analyze` of the compacted snapshot. The
    /// values of the dropped writers join their keys' fence records (see
    /// [`StreamFacts::fences`]).
    fn compact(&mut self, map: &[u32]) {
        assert!(
            self.unresolved.is_empty() && self.unresolved_count == 0,
            "compact with unresolved reads"
        );
        let live = |id: TxnId| map[id.idx()] != u32::MAX;
        let remap = |id: TxnId| TxnId(map[id.idx()]);

        // Dense per-transaction vectors: survivors keep their relative
        // order, so retained index == map value.
        fn retain_live<T>(column: &mut Vec<T>, map: &[u32]) {
            let mut i = 0;
            column.retain(|_| {
                i += 1;
                map[i - 1] != u32::MAX
            });
        }
        retain_live(&mut self.facts.reads, map);
        retain_live(&mut self.facts.writes, map);
        for read in self.facts.reads.iter_mut().flatten() {
            if let WrSource::Txn(w) = &mut read.2 {
                debug_assert!(live(*w), "surviving reader kept a dropped WR source");
                *w = remap(*w);
            }
        }

        let mut dropped = Vec::new();
        self.final_writer.retain(|&(key, value), w| {
            if live(*w) {
                *w = remap(*w);
                true
            } else {
                dropped.push((key, value));
                false
            }
        });
        // Each writer of a key registered exactly one final value of it, so
        // the dropped values are the dropped writers, key by key.
        let mut dropped_writers = 0;
        self.facts.writers.retain(|_, ws| {
            let before = ws.len();
            ws.retain(|&w| live(w));
            dropped_writers += before - ws.len();
            for w in ws.iter_mut() {
                *w = remap(*w);
            }
            !ws.is_empty()
        });
        debug_assert_eq!(dropped_writers, dropped.len(), "a dropped writer without its value");
        self.fences.record(&mut dropped);
        let mut readers =
            FastMap::with_capacity_and_hasher(self.facts.readers.len(), Default::default());
        for ((key, w), mut rs) in self.facts.readers.drain() {
            if !live(w) {
                debug_assert!(rs.iter().all(|&r| !live(r)), "surviving reader of a dropped writer");
                continue;
            }
            debug_assert!(rs.iter().all(|&r| live(r)), "dropped reader of a surviving writer");
            for r in rs.iter_mut() {
                *r = remap(*r);
            }
            readers.insert((key, remap(w)), rs);
        }
        self.facts.readers = readers;
        self.facts.init_readers.retain(|_, rs| {
            rs.retain(|&r| live(r));
            for r in rs.iter_mut() {
                *r = remap(*r);
            }
            !rs.is_empty()
        });
    }
}

/// Per-component payload of [`StreamShards`]. Lists grow by appending;
/// `txns` is kept ascending (merges sort once), so a checker extending a
/// component polygraph can keep dense local ids stable.
#[derive(Clone, Debug)]
pub struct RootInfo {
    /// Stable component identity: unchanged while the component only
    /// *grows*, refreshed whenever two transaction-bearing components
    /// merge (cached per-component state must then be rebuilt).
    pub tag: u64,
    /// Member transactions (arrival ids), ascending.
    pub txns: Vec<TxnId>,
    /// Member sessions that have not retired (see
    /// [`HistoryStream::compact`]), in discovery order.
    pub sessions: Vec<SessionId>,
    /// Keys touched by the component, in discovery order.
    pub keys: Vec<Key>,
}

/// The sessions∪keys union–find of [`crate::ShardPlan`], maintained
/// online. Nodes are created on first contact (a new session, a new key);
/// every pushed transaction unions its session with each key it touches —
/// aborted transactions included, exactly as in the batch analysis.
pub struct StreamShards {
    parent: Vec<u32>,
    size: Vec<u32>,
    session_node: Vec<u32>,
    key_node: FastMap<Key, u32>,
    info: FastMap<u32, RootInfo>,
    next_tag: u64,
}

impl StreamShards {
    fn new() -> Self {
        StreamShards {
            parent: Vec::new(),
            size: Vec::new(),
            session_node: Vec::new(),
            key_node: FastMap::default(),
            info: FastMap::default(),
            next_tag: 1,
        }
    }

    fn new_node(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    fn find(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn find_compress(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Union two roots, merging their payloads. A merge of two
    /// transaction-bearing components refreshes the tag and re-sorts the
    /// member list; unions that only attach an empty node (a fresh key, an
    /// empty session) keep the surviving component's identity.
    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find_compress(a), self.find_compress(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        let loser = self.info.remove(&rb);
        let winner = self.info.remove(&ra);
        let merged = match (winner, loser) {
            (None, None) => return,
            (Some(i), None) | (None, Some(i)) => i,
            (Some(mut w), Some(l)) => {
                let real_merge = !w.txns.is_empty() && !l.txns.is_empty();
                w.txns.extend(l.txns);
                w.sessions.extend(l.sessions);
                w.keys.extend(l.keys);
                if real_merge {
                    w.txns.sort_unstable();
                    w.tag = self.next_tag;
                    self.next_tag += 1;
                }
                w
            }
        };
        self.info.insert(ra, merged);
    }

    fn ensure_session(&mut self, s: SessionId) -> u32 {
        debug_assert_eq!(s.0 as usize, self.session_node.len());
        let node = self.new_node();
        self.session_node.push(node);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.info
            .insert(node, RootInfo { tag, txns: Vec::new(), sessions: vec![s], keys: Vec::new() });
        node
    }

    fn ensure_key(&mut self, k: Key) -> u32 {
        if let Some(&node) = self.key_node.get(&k) {
            return node;
        }
        let node = self.new_node();
        self.key_node.insert(k, node);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.info
            .insert(node, RootInfo { tag, txns: Vec::new(), sessions: Vec::new(), keys: vec![k] });
        node
    }

    /// Remove retired sessions from their components' member lists. Their
    /// nodes stay: a node may be its component's root, and a retired
    /// session still has a component to answer for.
    fn retire(&mut self, retired: &FastSet<SessionId>) {
        let mut roots: Vec<u32> =
            retired.iter().map(|s| self.find_compress(self.session_node[s.0 as usize])).collect();
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            let info = self.info.get_mut(&root).expect("a root has info");
            info.sessions.retain(|s| !retired.contains(s));
        }
    }

    /// The component a session currently belongs to — that of every key
    /// its transactions touched.
    pub fn component_of_session(&self, s: SessionId) -> &RootInfo {
        &self.info[&self.find(self.session_node[s.0 as usize])]
    }

    /// Iterate over the current components (arbitrary order; identify and
    /// sort by [`RootInfo::tag`] for determinism).
    pub fn components(&self) -> impl Iterator<Item = &RootInfo> {
        self.info.values()
    }
}

/// A session-ordered transaction stream with incrementally maintained
/// facts and shard structure (see the module docs).
pub struct HistoryStream {
    txns: Vec<Transaction>,
    /// Per live session, the arrival ids of its live transactions, in
    /// session order. A retired session (see [`HistoryStream::compact`])
    /// has no entry.
    session_txns: FastMap<SessionId, Vec<TxnId>>,
    /// Per session ever opened, whether it is sealed.
    sealed: Vec<bool>,
    ops: usize,
    /// Transactions dropped by watermark compaction (monotone; `ops` and
    /// `total_pushed` likewise never decrease, so progress counters agree
    /// between compacted and uncompacted runs of the same stream).
    compacted_txns: usize,
    /// Sessions retired by compaction so far (monotone).
    retired_sessions: usize,
    facts: StreamFacts,
    shards: StreamShards,
    /// Span tracer ([`polysi_obs`]); disabled by default. The streaming
    /// checker shares its tracer here so compaction shows up on the same
    /// timeline as the checkpoints that trigger it.
    tracer: polysi_obs::Tracer,
}

impl Default for HistoryStream {
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryStream {
    /// An empty stream.
    pub fn new() -> Self {
        HistoryStream {
            txns: Vec::new(),
            session_txns: FastMap::default(),
            sealed: Vec::new(),
            ops: 0,
            compacted_txns: 0,
            retired_sessions: 0,
            facts: StreamFacts::with_capacity(0),
            shards: StreamShards::new(),
            tracer: polysi_obs::Tracer::default(),
        }
    }

    /// Record compaction spans into `tracer` (disabled by default).
    pub fn set_tracer(&mut self, tracer: polysi_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Open a new session; returns its id. Sessions must be opened before
    /// transactions are pushed to them.
    pub fn session(&mut self) -> SessionId {
        let id = SessionId(self.sealed.len() as u32);
        self.session_txns.insert(id, Vec::new());
        self.sealed.push(false);
        self.shards.ensure_session(id);
        id
    }

    /// Append one complete transaction to `session`. Transactions arrive
    /// in session order within each session; arrival order across sessions
    /// is free. Returns the transaction's stable **arrival id**.
    ///
    /// Infallible wrapper over [`HistoryStream::try_push_transaction`] for
    /// batch/file replay paths where a contract violation is a programming
    /// error: panics with the [`IngestError`] message.
    pub fn push_transaction(
        &mut self,
        session: SessionId,
        ops: Vec<Op>,
        status: TxnStatus,
    ) -> TxnId {
        match self.try_push_transaction(session, ops, status) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible ingest boundary: append one complete transaction to
    /// `session`, or report the delivery-contract violation as a typed
    /// [`IngestError`] (unknown session, push after seal, empty
    /// transaction) without touching the stream. Live delivery paths use
    /// this; nothing here panics.
    pub fn try_push_transaction(
        &mut self,
        session: SessionId,
        ops: Vec<Op>,
        status: TxnStatus,
    ) -> Result<TxnId, IngestError> {
        let (id, index_in_session) = self.admit(session, ops.len())?;
        self.push_prepared(Transaction { session, index_in_session, ops, status }, id);
        Ok(id)
    }

    /// Borrowed-slice variant of [`HistoryStream::try_push_transaction`]:
    /// the zero-copy ingest entry point for decoders that reuse one op
    /// buffer across transactions (see [`crate::binfmt`]). Validates the
    /// delivery contract first, then copies the slice exactly once (a
    /// single memcpy — `Op` is `Copy`) into the owned transaction.
    pub fn try_push_transaction_slice(
        &mut self,
        session: SessionId,
        ops: &[Op],
        status: TxnStatus,
    ) -> Result<TxnId, IngestError> {
        let (id, index_in_session) = self.admit(session, ops.len())?;
        let txn = Transaction { session, index_in_session, ops: ops.to_vec(), status };
        self.push_prepared(txn, id);
        Ok(id)
    }

    /// Shared head of the two push paths: check the delivery contract,
    /// then give the transaction its arrival id and its place in the
    /// session. A retired session is sealed, so a push to it is refused
    /// like any push after a seal.
    fn admit(&mut self, session: SessionId, ops: usize) -> Result<(TxnId, u32), IngestError> {
        match self.sealed.get(session.0 as usize) {
            None => return Err(IngestError::UnknownSession { session }),
            Some(true) => return Err(IngestError::SealedSession { session }),
            Some(false) if ops == 0 => return Err(IngestError::EmptyTransaction { session }),
            Some(false) => {}
        }
        let id = TxnId(self.txns.len() as u32);
        self.ops += ops;
        let txns = self.session_txns.get_mut(&session).expect("an unsealed session is live");
        txns.push(id);
        Ok((id, txns.len() as u32 - 1))
    }

    /// Shared tail of the two push paths: union the session with every
    /// touched key in the shard structure, ingest the facts, store.
    fn push_prepared(&mut self, txn: Transaction, id: TxnId) {
        let snode = self.shards.session_node[txn.session.0 as usize];
        for op in &txn.ops {
            let knode = self.shards.ensure_key(op.key());
            self.shards.union(snode, knode);
        }
        let root = self.shards.find_compress(snode);
        self.shards.info.get_mut(&root).expect("session root has info").txns.push(id);
        self.facts.push(id, &txn);
        self.txns.push(txn);
    }

    /// Seal a session: no further transactions will arrive on it. Sealing
    /// is what lets watermark compaction ([`HistoryStream::compact`])
    /// consider the session's settled prefix droppable.
    ///
    /// Infallible wrapper over [`HistoryStream::try_seal_session`]; panics
    /// on an unknown session.
    pub fn seal_session(&mut self, session: SessionId) {
        if let Err(e) = self.try_seal_session(session) {
            panic!("{e}");
        }
    }

    /// Fallible seal: mark that no further transactions will arrive on
    /// `session`. Sealing an already-sealed session is idempotent (a
    /// duplicated `Seal` delivery is a tolerable fault, not an error);
    /// sealing a session that was never opened is an
    /// [`IngestError::UnknownSession`].
    pub fn try_seal_session(&mut self, session: SessionId) -> Result<(), IngestError> {
        match self.sealed.get_mut(session.0 as usize) {
            Some(s) => {
                *s = true;
                Ok(())
            }
            None => Err(IngestError::UnknownSession { session }),
        }
    }

    /// Whether `session` has been sealed.
    pub fn is_sealed(&self, session: SessionId) -> bool {
        self.sealed[session.0 as usize]
    }

    /// Number of **live** transactions (pushed minus compacted); live
    /// arrival ids are `0..len()`.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Transactions dropped by compaction so far.
    pub fn compacted_txns(&self) -> usize {
        self.compacted_txns
    }

    /// Total transactions ever pushed (monotone across compaction).
    pub fn total_pushed(&self) -> usize {
        self.txns.len() + self.compacted_txns
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Number of opened sessions (retired ones included).
    pub fn num_sessions(&self) -> usize {
        self.sealed.len()
    }

    /// Sessions retired by compaction so far (see
    /// [`HistoryStream::compact`]).
    pub fn retired_sessions(&self) -> usize {
        self.retired_sessions
    }

    /// Total operations pushed.
    pub fn num_ops(&self) -> usize {
        self.ops
    }

    /// The transaction with the given arrival id.
    pub fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[id.idx()]
    }

    /// The arrival id of `id`'s immediate session-order predecessor.
    pub fn session_predecessor(&self, id: TxnId) -> Option<TxnId> {
        let t = &self.txns[id.idx()];
        let idx = t.index_in_session as usize;
        (idx > 0).then(|| self.session_txns[&t.session][idx - 1])
    }

    /// Watermark compaction: drop the transactions with `drop[id] == true`
    /// and renumber the survivors densely, returning the old→new arrival-id
    /// map (`u32::MAX` for dropped ids). `ops`, `total_pushed`, and
    /// `compacted_txns` stay monotone; `len` shrinks.
    ///
    /// The caller (the streaming checker) must pass a settled,
    /// forward-closed drop set:
    ///
    /// * every dropped transaction belongs to a **sealed** session, and the
    ///   dropped transactions of each session form a session-order
    ///   **prefix** (asserted here);
    /// * no surviving transaction has a known dependency edge into a
    ///   dropped one — every reader of a dropped writer is dropped, every
    ///   `WR` source of a survivor survives, and no live constraint touches
    ///   a dropped endpoint (the checker computes this closure; the facts
    ///   compaction debug-asserts the read/write half).
    ///
    /// Under that contract the compacted stream behaves exactly like a
    /// fresh stream of the surviving suffix, with two loud exceptions at
    /// the fence: later committed reads of a version below it — a *dropped
    /// value*, or the *initial value* of a key with dropped writers — are
    /// refused for good ([`HistoryStream::axiom_state`]: their edges to the
    /// dropped writers cannot be built), and later committed re-*writes*
    /// of a dropped value are refused as terminal
    /// [`AxiomViolation::CompactedDuplicateWrite`]s (see
    /// [`StreamFacts::fences`]: per fenced key one [`crate::KeyFence`],
    /// the exact, gap-encoded set of the dropped writers' values).
    ///
    /// A sealed session whose last live transaction is dropped **retires**:
    /// its transaction list is freed and it leaves its component's
    /// [`RootInfo::sessions`], so no later compaction or checkpoint visits
    /// it. What it keeps is its seal bit and its union–find node; its
    /// [`SessionId`] stays valid — a push is refused as
    /// [`IngestError::SealedSession`], a seal is an idempotent `Ok`, and
    /// [`HistoryStream::snapshot`] emits it as an empty session.
    ///
    /// The work is linear in the live transactions and the live sessions,
    /// never in the sessions ever opened: the session prefixes come from
    /// the dropped transactions, the per-session lists from those dropped
    /// and kept.
    pub fn compact(&mut self, drop: &[bool]) -> Vec<u32> {
        assert_eq!(drop.len(), self.txns.len(), "drop mask must cover the live transactions");
        let mut span =
            self.tracer.span_kv("history.compact", polysi_obs::kv! { txns: self.txns.len() });
        // Old → new ids, and the length of each session's dropped prefix.
        // Session-order edges point forward, so a forward-closed drop set
        // is a prefix of every session; a session's transactions arrive in
        // session order, so that holds iff its k-th dropped one is its
        // k-th live one.
        let mut map = vec![u32::MAX; self.txns.len()];
        let mut prefix: FastMap<SessionId, u32> = FastMap::default();
        let mut next = 0u32;
        for (i, &d) in drop.iter().enumerate() {
            if !d {
                map[i] = next;
                next += 1;
                continue;
            }
            let t = &self.txns[i];
            let session = t.session;
            assert!(
                self.sealed[session.0 as usize],
                "compact a transaction of unsealed session {session:?}"
            );
            let p = prefix.entry(session).or_insert(0);
            assert!(
                t.index_in_session == *p,
                "dropped transactions of session {session:?} are not a session prefix"
            );
            *p += 1;
        }
        let dropped = self.txns.len() - next as usize;
        span.attr("dropped", dropped);
        if dropped == 0 {
            return map;
        }
        let mut kept = Vec::with_capacity(next as usize);
        for (i, mut t) in std::mem::take(&mut self.txns).into_iter().enumerate() {
            if drop[i] {
                continue;
            }
            t.index_in_session -= prefix.get(&t.session).copied().unwrap_or(0);
            kept.push(t);
        }
        self.txns = kept;
        let mut retired: FastSet<SessionId> = FastSet::default();
        for (&s, &p) in &prefix {
            let txns = self.session_txns.get_mut(&s).expect("a session with live transactions");
            if p as usize == txns.len() {
                self.session_txns.remove(&s);
                retired.insert(s);
            } else {
                txns.drain(..p as usize);
            }
        }
        for txns in self.session_txns.values_mut() {
            for id in txns.iter_mut() {
                *id = TxnId(map[id.idx()]);
            }
        }
        self.shards.retire(&retired);
        self.retired_sessions += retired.len();
        self.facts.compact(&map);
        for info in self.shards.info.values_mut() {
            info.txns.retain(|id| !drop[id.idx()]);
            for id in info.txns.iter_mut() {
                *id = TxnId(map[id.idx()]);
            }
        }
        self.compacted_txns += dropped;
        map
    }

    /// The incremental facts.
    pub fn facts(&self) -> &StreamFacts {
        &self.facts
    }

    /// The incremental shard structure.
    pub fn shards(&self) -> &StreamShards {
        &self.shards
    }

    /// Every session ever opened, in id order, with its live
    /// transactions (none for a retired session): the session-major order
    /// of [`HistoryStream::snapshot`].
    fn live_sessions(&self) -> impl Iterator<Item = &[TxnId]> + '_ {
        (0..self.sealed.len() as u32)
            .map(|s| self.session_txns.get(&SessionId(s)).map_or(&[][..], Vec::as_slice))
    }

    /// The history of `sessions` (ascending) alone, numbered as
    /// [`History::restrict`] numbers the snapshot's, and the snapshot id of
    /// each of its transactions.
    pub fn history_of(&self, sessions: &[SessionId]) -> (History, Vec<TxnId>) {
        let (mut start, mut at) = (Vec::with_capacity(self.sealed.len()), 0u32);
        for txns in self.live_sessions() {
            start.push(at);
            at += txns.len() as u32;
        }
        let (mut h, mut ids) = (History::new(), Vec::new());
        for &s in sessions {
            let txns = self.session_txns.get(&s).map_or(&[][..], Vec::as_slice);
            ids.extend((start[s.0 as usize]..).take(txns.len()).map(TxnId));
            let txns = txns.iter().map(|&id| &self.txns[id.idx()]);
            h.push_session(txns.map(|t| (t.ops.clone(), t.status)).collect());
        }
        (h, ids)
    }

    /// Materialize the current prefix as a session-major [`History`], plus
    /// the arrival-id → session-major-id mapping: the history of every
    /// session ever opened, a retired one as an empty session, so session
    /// ids match the stream's. `Facts::analyze` / `ShardPlan::analyze` /
    /// the batch engine on the result see exactly this prefix.
    pub fn snapshot(&self) -> (History, Vec<TxnId>) {
        let all: Vec<SessionId> = (0..self.sealed.len() as u32).map(SessionId).collect();
        let (h, _) = self.history_of(&all);
        let mut map = vec![TxnId(0); self.len()];
        for (major, &id) in self.live_sessions().flatten().enumerate() {
            map[id.idx()] = TxnId(major as u32);
        }
        (h, map)
    }

    /// The violations of the reads the facts left unresolved — aborted,
    /// intermediate, unknown-value and future reads — in session-major ids:
    /// while [`StreamFacts::axioms_can_heal`] holds, exactly the list
    /// `Facts::analyze` gives for [`HistoryStream::snapshot`], without
    /// materializing it.
    pub fn read_violations(&self) -> Vec<AxiomViolation> {
        let live = self.live_sessions().flatten().map(|&id| (id, &self.txns[id.idx()]));
        self.facts.read_violations(live)
    }

    /// The axiom state of the live transactions, in snapshot ids: the
    /// violations (watermark ones last) and the reads the fence refuses, as
    /// one builder finds them taking the transactions in session-major
    /// order under the stream's fences. No [`History`] is built.
    pub fn axiom_state(&self) -> (Vec<AxiomViolation>, Vec<(TxnId, Key, Value)>) {
        let live = || {
            let txns = self.live_sessions().flatten().map(|&id| &self.txns[id.idx()]);
            (0u32..).map(TxnId).zip(txns)
        };
        let mut builder = StreamFacts::with_capacity(self.len());
        builder.fences = self.facts.fences.clone();
        for (id, txn) in live() {
            builder.push(id, txn);
        }
        let fenced = std::mem::take(&mut builder.fenced_reads);
        (builder.finish(live()).violations, fenced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fence::KeyFence;
    use crate::history::HistoryBuilder;
    use crate::shard::ShardPlan;

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }
    fn w(key: Key, value: Value) -> Op {
        Op::Write { key, value }
    }
    fn r(key: Key, value: Value) -> Op {
        Op::Read { key, value }
    }

    /// The stream's axioms hold, as the batch analysis of its snapshot's
    /// do, and both know the same WR relation modulo the id mapping.
    fn assert_wr_matches_batch(s: &HistoryStream) {
        assert!(s.facts().axioms_ok());
        let (h, map) = s.snapshot();
        let batch = Facts::analyze(&h);
        assert!(batch.axioms_ok());
        let wr = s.facts().facts().wr_edges().map(|(a, b, key)| (map[a.idx()], map[b.idx()], key));
        let mut stream_wr: Vec<_> = wr.collect();
        let mut batch_wr: Vec<_> = batch.wr_edges().collect();
        stream_wr.sort_unstable_by_key(|&(a, b, key)| (a.0, b.0, key.0));
        batch_wr.sort_unstable_by_key(|&(a, b, key)| (a.0, b.0, key.0));
        assert_eq!(stream_wr, batch_wr);
    }

    /// Interleaved pushes; facts match the batch analysis on the snapshot.
    #[test]
    fn incremental_facts_match_batch_on_snapshot() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(10))], TxnStatus::Committed);
        s.push_transaction(s1, vec![r(k(1), v(10)), w(k(1), v(11))], TxnStatus::Committed);
        s.push_transaction(s0, vec![r(k(1), v(11))], TxnStatus::Committed);
        assert_wr_matches_batch(&s);
    }

    /// A read arriving before its writer breaks the axioms exactly while
    /// the batch analysis would, and heals when the writer lands.
    #[test]
    fn pending_reads_heal_when_writer_arrives() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![r(k(1), v(5))], TxnStatus::Committed);
        assert!(!s.facts().axioms_ok());
        assert!(s.facts().axioms_can_heal());
        let (h, _) = s.snapshot();
        assert!(!Facts::analyze(&h).axioms_ok(), "batch agrees the prefix is broken");
        s.push_transaction(s1, vec![w(k(1), v(5))], TxnStatus::Committed);
        assert!(s.facts().axioms_ok());
        let (h, _) = s.snapshot();
        assert!(Facts::analyze(&h).axioms_ok(), "batch agrees the prefix healed");
        // The delta yields the late WR edge at the writer's turn, once.
        let (t0, t1) = (TxnId(0), TxnId(1));
        assert_eq!(
            s.facts().delta(0).collect::<Vec<_>>(),
            [
                FactEvent::Txn { id: t0 },
                FactEvent::Txn { id: t1 },
                FactEvent::FinalWrite { key: k(1), writer: t1 },
                FactEvent::Wr { key: k(1), writer: t1, reader: t0 },
            ]
        );
    }

    /// Monotone violations (here: a duplicate committed write) never heal.
    #[test]
    fn monotone_violations_are_sticky() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(5))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(5))], TxnStatus::Committed);
        assert!(!s.facts().axioms_ok());
        assert!(!s.facts().axioms_can_heal());
    }

    /// Components merge when a transaction bridges two key groups; the
    /// tag changes exactly then.
    #[test]
    fn shard_tags_survive_growth_and_refresh_on_merge() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s1, vec![w(k(10), v(2))], TxnStatus::Committed);
        let tag0 = s.shards().component_of_session(s0).tag;
        let tag1 = s.shards().component_of_session(s1).tag;
        assert_ne!(tag0, tag1);
        // Growth inside a component keeps the tag.
        s.push_transaction(s0, vec![w(k(1), v(3))], TxnStatus::Committed);
        assert_eq!(s.shards().component_of_session(s0).tag, tag0);
        // A bridging transaction merges the components under a fresh tag.
        s.push_transaction(s0, vec![r(k(1), v(3)), r(k(10), v(2))], TxnStatus::Committed);
        let merged = s.shards().component_of_session(s0);
        assert_ne!(merged.tag, tag0);
        assert_ne!(merged.tag, tag1);
        assert_eq!(merged.txns, vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)]);
        assert_eq!(s.shards().component_of_session(s1).tag, merged.tag);
        // Membership agrees with the batch plan on the snapshot.
        let (h, map) = s.snapshot();
        let plan = ShardPlan::analyze(&h);
        for t in 0..s.len() {
            for u in 0..s.len() {
                let same_stream =
                    s.shards().component_of_session(s.txn(TxnId(t as u32)).session).tag
                        == s.shards().component_of_session(s.txn(TxnId(u as u32)).session).tag;
                let same_batch = plan.component_of[map[t].idx()] == plan.component_of[map[u].idx()];
                assert_eq!(same_stream, same_batch, "membership diverged for {t},{u}");
            }
        }
    }

    /// Snapshot round-trips to the equivalent builder-made history.
    #[test]
    fn snapshot_is_session_major() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s1, vec![w(k(2), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Aborted);
        s.push_transaction(s0, vec![w(k(1), v(3))], TxnStatus::Committed);
        let (h, map) = s.snapshot();

        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(k(1), v(2)).abort();
        b.begin().write(k(1), v(3)).commit();
        b.session();
        b.begin().write(k(2), v(1)).commit();
        assert_eq!(h, b.build());
        // Arrival 0 (session 1's first txn) maps to session-major id 2.
        assert_eq!(map, vec![TxnId(2), TxnId(0), TxnId(1)]);
        assert_eq!(s.session_predecessor(TxnId(2)), Some(TxnId(1)));
        assert_eq!(s.session_predecessor(TxnId(1)), None);
        assert_eq!(s.num_ops(), 3);
    }

    /// Compacting a settled prefix leaves a stream equivalent to a fresh
    /// stream of the surviving suffix: facts match the batch analysis on
    /// the compacted snapshot, ids are renumbered densely, and later
    /// pushes resolve against survivors as usual.
    #[test]
    fn compact_behaves_like_fresh_stream_of_suffix() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed); // T0: dropped
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed); // T1: last writer
        s.push_transaction(s1, vec![r(k(1), v(2))], TxnStatus::Committed); // T2: reads T1
        s.seal_session(s0);
        assert!(s.facts().axioms_ok());

        // Drop T0 only: the last writer of key 1 and its reader survive,
        // no survivor depends on T0 (forward-closed).
        let map = s.compact(&[true, false, false]);
        assert_eq!(map, vec![u32::MAX, 0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.compacted_txns(), 1);
        assert_eq!(s.total_pushed(), 3);
        assert_eq!(s.num_ops(), 3, "ops stay monotone across compaction");
        assert_eq!(
            s.facts().delta(0).collect::<Vec<_>>(),
            [
                FactEvent::Txn { id: TxnId(0) },
                FactEvent::FinalWrite { key: k(1), writer: TxnId(0) },
                FactEvent::Txn { id: TxnId(1) },
                FactEvent::Wr { key: k(1), writer: TxnId(0), reader: TxnId(1) },
            ],
            "the read's source is renumbered in place"
        );
        assert_eq!(s.facts().fences().get(k(1)).map(KeyFence::len), Some(1));
        assert_eq!(s.session_predecessor(TxnId(0)), None, "T1 is now a session head");
        // Facts equal the batch analysis of the compacted snapshot.
        assert_wr_matches_batch(&s);

        // Later pushes get dense ids and resolve against survivors.
        let id = s.push_transaction(s1, vec![r(k(1), v(2)), w(k(1), v(3))], TxnStatus::Committed);
        assert_eq!(id, TxnId(2));
        assert!(s.facts().axioms_ok());
        assert_eq!(
            s.facts().delta(2).collect::<Vec<_>>(),
            [
                FactEvent::Txn { id },
                FactEvent::FinalWrite { key: k(1), writer: id },
                FactEvent::Wr { key: k(1), writer: TxnId(0), reader: id },
            ]
        );
        // Compaction of nothing is the identity.
        let map = s.compact(&[false, false, false]);
        assert_eq!(map, vec![0, 1, 2]);
        assert_eq!(s.compacted_txns(), 1);
    }

    /// A sealed session whose last live transaction is compacted retires:
    /// it leaves the per-session lists and its component's member list,
    /// while its id keeps every contract of a sealed session and the
    /// snapshot still shows it, empty.
    #[test]
    fn a_fully_compacted_sealed_session_retires() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        let s2 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.push_transaction(s1, vec![w(k(1), v(3))], TxnStatus::Committed);
        s.push_transaction(s2, vec![r(k(1), v(3))], TxnStatus::Committed);
        s.seal_session(s0);
        assert_eq!(s.shards().component_of_session(s1).sessions.len(), 3);

        let map = s.compact(&[true, true, false, false]);
        assert_eq!(map, vec![u32::MAX, u32::MAX, 0, 1]);
        assert_eq!((s.retired_sessions(), s.num_sessions()), (1, 3));
        assert!(!s.session_txns.contains_key(&s0), "the retired session's list is freed");
        let component = s.shards().component_of_session(s1);
        assert_eq!(component.sessions.len(), 2);
        assert!(!component.sessions.contains(&s0));
        assert_eq!(s.shards().component_of_session(s0).tag, component.tag);

        // The id keeps the contracts of a sealed session.
        assert_eq!(
            s.try_push_transaction(s0, vec![w(k(1), v(4))], TxnStatus::Committed),
            Err(IngestError::SealedSession { session: s0 })
        );
        assert_eq!(
            s.try_push_transaction_slice(s0, &[w(k(1), v(4))], TxnStatus::Committed),
            Err(IngestError::SealedSession { session: s0 })
        );
        assert_eq!(s.try_seal_session(s0), Ok(()));
        assert!(s.is_sealed(s0));
        assert_eq!((s.len(), s.num_sessions(), s.total_pushed()), (2, 3, 4));

        // The snapshot shows it as an empty session, and the stream keeps
        // growing around it.
        s.push_transaction(s1, vec![r(k(1), v(3)), w(k(1), v(5))], TxnStatus::Committed);
        let (h, map) = s.snapshot();
        let mut b = HistoryBuilder::new();
        b.session();
        b.session();
        b.begin().write(k(1), v(3)).commit();
        b.begin().read(k(1), v(3)).write(k(1), v(5)).commit();
        b.session();
        b.begin().read(k(1), v(3)).commit();
        assert_eq!(h, b.build());
        assert_eq!(map, vec![TxnId(0), TxnId(2), TxnId(1)]);
        assert_eq!(s.session_predecessor(TxnId(2)), Some(TxnId(0)));
        assert!(s.facts().axioms_ok());
    }

    /// A later initial-value read of a fenced key (one with dropped
    /// writers) is refused for good.
    #[test]
    fn init_reads_below_the_fence_are_terminal() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.seal_session(s0);
        s.compact(&[true, false]);
        // An init read of an *unfenced* key is fine.
        s.push_transaction(s1, vec![r(k(7), Value::INIT)], TxnStatus::Committed);
        assert!(s.facts().axioms_ok());
        // An init read of the fenced key is refused for good.
        s.push_transaction(s1, vec![r(k(1), Value::INIT)], TxnStatus::Committed);
        assert!(!s.facts().axioms_ok());
        assert!(!s.facts().axioms_can_heal());
        let (violations, fenced) = s.axiom_state();
        assert_eq!(fenced, [(TxnId(2), k(1), Value::INIT)]);
        assert!(violations.is_empty(), "a limitation, not a violation");
        assert!(!s.facts.facts.init_readers.contains_key(&k(1)), "a refused read has no edges");
    }

    /// A later committed re-write of a *dropped value* is refused via the
    /// key's fence record — the stream-level half of closing the
    /// watermark's duplicate-write gap (an uncompacted run reports `DuplicateWrite`
    /// here; a compacted one must not silently accept).
    #[test]
    fn rewrites_of_dropped_values_are_terminal() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.seal_session(s0);
        s.compact(&[true, false]);
        assert_eq!(s.facts().fences().get(k(1)).map(KeyFence::len), Some(1));
        // Re-writing the *surviving* value's key with a fresh value is fine.
        s.push_transaction(s1, vec![w(k(1), v(3))], TxnStatus::Committed);
        assert!(s.facts().axioms_ok());
        // The re-write of the dropped value is refused for good, and must
        // not pose as the value's writer: a later read of the value is
        // refused at the fence rather than resolved to the re-write.
        s.push_transaction(s1, vec![w(k(1), v(1))], TxnStatus::Committed);
        assert!(!s.facts().axioms_ok());
        assert!(!s.facts().axioms_can_heal());
        let rewrite =
            AxiomViolation::CompactedDuplicateWrite { txn: TxnId(2), key: k(1), value: v(1) };
        assert_eq!(s.axiom_state(), (vec![rewrite.clone()], vec![]));
        s.push_transaction(s1, vec![r(k(1), v(1))], TxnStatus::Committed);
        assert_eq!(s.axiom_state(), (vec![rewrite], vec![(TxnId(3), k(1), v(1))]));
        let facts = &s.facts.facts;
        assert!(facts.reads[3].is_empty());
        assert!(facts.readers_of(k(1), TxnId(2)).is_empty());
    }

    /// A later read of a *dropped value* is refused at the fence, for good
    /// — not left waiting for a writer, which would pose as an
    /// unknown-value read (the batch verdict on the compacted snapshot,
    /// which no longer holds the value's writer).
    #[test]
    fn reads_of_dropped_values_are_refused() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        let s1 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.seal_session(s0);
        s.compact(&[true, false]);
        s.push_transaction(s1, vec![r(k(1), v(1))], TxnStatus::Committed);
        assert!(!s.facts().axioms_ok());
        assert!(!s.facts().axioms_can_heal(), "refused, not waiting");
        assert_eq!(s.axiom_state(), (vec![], vec![(TxnId(1), k(1), v(1))]));
        assert_eq!(s.facts.unresolved_count, 0);
        let (h, _) = s.snapshot();
        assert!(!Facts::analyze(&h).axioms_ok(), "the compacted snapshot calls the value unknown");
    }

    #[test]
    #[should_panic(expected = "unsealed session")]
    fn compact_requires_sealed_sessions() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.compact(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "not a session prefix")]
    fn compact_requires_session_prefixes() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
        s.seal_session(s0);
        s.compact(&[false, true]);
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn sealed_sessions_reject_pushes() {
        let mut s = HistoryStream::new();
        let s0 = s.session();
        s.push_transaction(s0, vec![w(k(1), v(1))], TxnStatus::Committed);
        s.seal_session(s0);
        s.push_transaction(s0, vec![w(k(1), v(2))], TxnStatus::Committed);
    }
}
