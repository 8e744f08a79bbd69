//! `Facts::analyze` and `ShardPlan::analyze` against their straightforward
//! references.
//!
//! The facts come from the stream's one builder (pushes that resolve each
//! read against the writes seen so far, a reused per-transaction scratch,
//! hashed per-key lists) and the plan from interned key ids; what they must
//! compute is easier to read off the plain versions below — two passes,
//! one map per transaction, one `BTreeMap` probe per operation — written
//! against the public API only. Histories come from the
//! `workloads` generators run on the `dbsim` stores, then get the shapes
//! the axioms exist for injected: aborted, intermediate, unknown-value and
//! future reads (a value's aborted or overwriting writers two at a time
//! included), duplicate and `INIT` writes, `Int` breaks, keys repeated
//! inside a transaction, and transactions wide enough (> 32 touched keys) to leave
//! the scratch's scanning path.
//!
//! Also here: the builder fed in random session-respecting orders, as a
//! stream is, against the reference facts of each prefix's snapshot — the
//! builder's only check that it does not share with itself.

use polysi::dbsim::{run, IsolationLevel, SimConfig};
use polysi::history::{
    AxiomViolation, Facts, History, HistoryStream, Key, Op, SessionId, ShardFallback, ShardPlan,
    TxnId, TxnStatus, Value, WrSource,
};
use polysi::workloads::{multi_component, GeneralParams, KeyDistribution};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

type ReadFact = (Key, Value, WrSource);

/// The fields of `Facts`, `readers` in a comparable container.
#[derive(PartialEq, Debug)]
struct RefFacts {
    reads: Vec<Vec<ReadFact>>,
    writes: Vec<Vec<(Key, Value)>>,
    writers: BTreeMap<Key, Vec<TxnId>>,
    readers: BTreeMap<(Key, TxnId), Vec<TxnId>>,
    init_readers: BTreeMap<Key, Vec<TxnId>>,
    violations: Vec<AxiomViolation>,
}

impl RefFacts {
    fn of(f: Facts) -> RefFacts {
        RefFacts {
            reads: f.reads,
            writes: f.writes,
            writers: f.writers.into_iter().collect(),
            readers: f.readers.into_iter().collect(),
            init_readers: f.init_readers.into_iter().collect(),
            violations: f.violations,
        }
    }
}

/// The straightforward analysis: two fresh maps per transaction, a copy of
/// the raw external reads, one `entry` per fact. Final writes are visited
/// in key order (the order `Facts` documents for `DuplicateWrite`s).
fn reference_facts(h: &History) -> RefFacts {
    let n = h.len();
    let mut violations = Vec::new();
    let mut reads_raw: Vec<Vec<(Key, Value)>> = vec![Vec::new(); n];
    let mut writes: Vec<Vec<(Key, Value)>> = vec![Vec::new(); n];
    let mut final_writer: HashMap<(Key, Value), TxnId> = HashMap::new();
    let mut intermediate_writer: HashMap<(Key, Value), TxnId> = HashMap::new();
    let mut aborted_writer: HashMap<(Key, Value), TxnId> = HashMap::new();

    for (id, txn) in h.iter() {
        let mut last_seen: HashMap<Key, Value> = HashMap::new();
        let mut written: BTreeMap<Key, Value> = BTreeMap::new();
        let mut ext_reads: Vec<(Key, Value)> = Vec::new();
        for op in &txn.ops {
            match *op {
                Op::Read { key, value } => {
                    if let Some(&prev) = last_seen.get(&key) {
                        if prev != value && txn.committed() {
                            violations.push(AxiomViolation::Int {
                                txn: id,
                                key,
                                expected: prev,
                                got: value,
                            });
                        }
                    } else {
                        ext_reads.push((key, value));
                    }
                    last_seen.insert(key, value);
                }
                Op::Write { key, value } => {
                    if value.is_init() && txn.committed() {
                        violations.push(AxiomViolation::WroteInitValue { txn: id, key });
                    }
                    if let Some(prev) = written.insert(key, value) {
                        intermediate_writer.insert((key, prev), id);
                    }
                    last_seen.insert(key, value);
                }
            }
        }
        for (&key, &value) in &written {
            if txn.committed() {
                if let Some(&first) = final_writer.get(&(key, value)) {
                    violations.push(AxiomViolation::DuplicateWrite {
                        key,
                        value,
                        first,
                        second: id,
                    });
                } else {
                    final_writer.insert((key, value), id);
                }
                writes[id.idx()].push((key, value));
            } else {
                aborted_writer.insert((key, value), id);
            }
        }
        if txn.committed() {
            reads_raw[id.idx()] = ext_reads;
        }
    }

    let mut reads: Vec<Vec<ReadFact>> = vec![Vec::new(); n];
    let mut readers: BTreeMap<(Key, TxnId), Vec<TxnId>> = BTreeMap::new();
    let mut init_readers: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    for (idx, ext) in reads_raw.iter().enumerate() {
        let reader = TxnId(idx as u32);
        for &(key, value) in ext {
            let source = if value.is_init() {
                init_readers.entry(key).or_default().push(reader);
                Some(WrSource::Init)
            } else if final_writer.get(&(key, value)) == Some(&reader) {
                violations.push(AxiomViolation::FutureRead { txn: reader, key, value });
                None
            } else if let Some(&w) = final_writer.get(&(key, value)) {
                readers.entry((key, w)).or_default().push(reader);
                Some(WrSource::Txn(w))
            } else if let Some(&w) = aborted_writer.get(&(key, value)) {
                violations.push(AxiomViolation::AbortedRead { reader, writer: w, key, value });
                None
            } else if let Some(&w) = intermediate_writer.get(&(key, value)) {
                violations.push(AxiomViolation::IntermediateRead { reader, writer: w, key, value });
                None
            } else {
                violations.push(AxiomViolation::UnknownValueRead { txn: reader, key, value });
                None
            };
            if let Some(source) = source {
                reads[idx].push((key, value, source));
            }
        }
    }

    let mut writers: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
    for (idx, ws) in writes.iter().enumerate() {
        for &(key, _) in ws {
            writers.entry(key).or_default().push(TxnId(idx as u32));
        }
    }
    RefFacts { reads, writes, writers, readers, init_readers, violations }
}

/// What a `ShardPlan` says, in comparable form.
#[derive(PartialEq, Debug)]
struct RefPlan {
    /// `(sessions, txns, keys)` per component.
    components: Vec<(Vec<SessionId>, Vec<TxnId>, Vec<Key>)>,
    component_of: Vec<u32>,
    key_components: usize,
    fallback: Option<ShardFallback>,
}

impl RefPlan {
    fn of(plan: &ShardPlan) -> RefPlan {
        RefPlan {
            components: plan
                .components
                .iter()
                .map(|c| (c.sessions.clone(), c.txns.clone(), c.keys.clone()))
                .collect(),
            component_of: plan.component_of.clone(),
            key_components: plan.key_components,
            fallback: plan.fallback(),
        }
    }
}

/// Naive union–find: `find` walks to the root, `union` hangs one root
/// under the other.
fn find(parent: &[usize], mut x: usize) -> usize {
    while parent[x] != x {
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra] = rb;
}

/// The straightforward plan: key ids from a `BTreeMap` probed per
/// operation, roots mapped through a `BTreeMap`.
fn reference_plan(h: &History) -> RefPlan {
    let nsess = h.num_sessions();
    let mut key_ids: BTreeMap<Key, usize> = BTreeMap::new();
    for (_, txn) in h.iter() {
        for op in &txn.ops {
            let next = key_ids.len();
            key_ids.entry(op.key()).or_insert(next);
        }
    }
    let nkeys = key_ids.len();
    let mut uf: Vec<usize> = (0..nsess + nkeys).collect();
    let mut kf: Vec<usize> = (0..nkeys).collect();
    for (_, txn) in h.iter() {
        let first = key_ids[&txn.ops[0].key()];
        for op in &txn.ops {
            let k = key_ids[&op.key()];
            union(&mut uf, txn.session.0 as usize, nsess + k);
            union(&mut kf, first, k);
        }
    }
    let mut comp_of_root: BTreeMap<usize, u32> = BTreeMap::new();
    let mut components: Vec<(Vec<SessionId>, Vec<TxnId>, Vec<Key>)> = Vec::new();
    for s in h.sessions().filter(|s| !s.txns.is_empty()) {
        let next = components.len() as u32;
        let c = *comp_of_root.entry(find(&uf, s.id.0 as usize)).or_insert(next);
        if c == next {
            components.push(Default::default());
        }
        components[c as usize].0.push(s.id);
    }
    let mut component_of = vec![0u32; h.len()];
    for (id, txn) in h.iter() {
        let c = comp_of_root[&find(&uf, txn.session.0 as usize)];
        component_of[id.idx()] = c;
        components[c as usize].1.push(id);
    }
    for (&key, &kid) in &key_ids {
        components[comp_of_root[&find(&uf, nsess + kid)] as usize].2.push(key);
    }
    let mut key_roots: Vec<usize> =
        h.iter().map(|(_, txn)| find(&kf, key_ids[&txn.ops[0].key()])).collect();
    key_roots.sort_unstable();
    key_roots.dedup();
    let key_components = key_roots.len();
    let fallback = match (components.len() >= 2, key_components >= 2) {
        (true, _) => None,
        (false, true) => Some(ShardFallback::CrossShardSessions),
        (false, false) => Some(ShardFallback::SingleComponent),
    };
    RefPlan { components, component_of, key_components, fallback }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

type Sessions = Vec<Vec<(Vec<Op>, TxnStatus)>>;

fn rebuild(sessions: Sessions) -> History {
    let mut h = History::new();
    for s in sessions {
        h.push_session(s);
    }
    h
}

/// Rewrite `rounds` random transactions of `h` so the axioms have something
/// to find. Values at or above `FRESH` are never handed out by the stores.
fn inject(h: &History, seed: u64, rounds: usize) -> History {
    const FRESH: u64 = 1 << 40;
    let mut rng = SplitMix64(seed);
    let mut sessions: Sessions =
        h.sessions().map(|s| s.txns.iter().map(|t| (t.ops.clone(), t.status)).collect()).collect();
    let all_writes: Vec<(Key, Value)> = h
        .iter()
        .flat_map(|(_, t)| t.ops.iter().filter(|op| !op.is_read()).map(|op| (op.key(), op.value())))
        .collect();
    let all_keys: Vec<Key> = h
        .iter()
        .flat_map(|(_, t)| t.ops.iter().map(|op| op.key()))
        .collect::<BTreeSet<Key>>()
        .into_iter()
        .collect();
    let mut fresh = FRESH;
    let mut fresh_value = || {
        fresh += 1;
        Value(fresh)
    };
    for _ in 0..rounds {
        let s = rng.below(sessions.len());
        if sessions[s].is_empty() {
            continue;
        }
        let t = rng.below(sessions[s].len());
        let (ops, status) = &mut sessions[s][t];
        let at = rng.below(ops.len());
        let (key, value) = (ops[at].key(), ops[at].value());
        match rng.below(12) {
            // Its readers (if any) become aborted reads.
            0 => *status = TxnStatus::Aborted,
            // A write followed by an overwrite: whoever read `value` from
            // elsewhere now reads an intermediate value or a duplicate.
            1 => {
                ops.insert(at, Op::Write { key, value });
                ops.push(Op::Write { key, value: fresh_value() });
            }
            // A read of a value nobody wrote.
            2 => ops.insert(0, Op::Read { key, value: fresh_value() }),
            // A second committed writer of a taken pair, possibly two.
            3 if !all_writes.is_empty() => {
                for _ in 0..1 + rng.below(3) {
                    let (key, value) = all_writes[rng.below(all_writes.len())];
                    ops.push(Op::Write { key, value });
                }
            }
            // A write of the reserved initial value.
            4 => ops.push(Op::Write { key, value: Value::INIT }),
            // An internal read that disagrees with the operation before it.
            5 => ops.insert(at + 1, Op::Read { key, value: fresh_value() }),
            // The same keys again: reads that agree, then an overwrite.
            6 => {
                let again: Vec<Op> =
                    ops.iter().map(|op| Op::Read { key: op.key(), value: op.value() }).collect();
                ops.extend(again);
                ops.push(Op::Write { key, value: fresh_value() });
            }
            // A wide transaction: 40–100 further keys, each read at its
            // initial value or written, some touched twice.
            7 => {
                for _ in 0..40 + rng.below(60) {
                    let key = all_keys[rng.below(all_keys.len())];
                    ops.push(match rng.below(3) {
                        0 => Op::Read { key, value: Value::INIT },
                        _ => Op::Write { key, value: fresh_value() },
                    });
                    if rng.below(4) == 0 {
                        ops.push(Op::Write { key, value: fresh_value() });
                    }
                }
            }
            // A read, first of all, of the transaction's own last write:
            // a future read.
            9 => {
                if let Some(&Op::Write { key, value }) = ops.iter().rev().find(|op| !op.is_read()) {
                    ops.insert(0, Op::Read { key, value });
                }
            }
            // A committed read of a fresh value that two other
            // transactions write: both abort (10), or both overwrite it
            // (11). The read names the session-major last of them.
            kind @ (10 | 11) => {
                let value = fresh_value();
                ops.insert(0, Op::Read { key, value });
                *status = TxnStatus::Committed;
                for _ in 0..2 {
                    let w = rng.below(sessions.len());
                    if sessions[w].is_empty() {
                        continue;
                    }
                    let u = rng.below(sessions[w].len());
                    if (w, u) == (s, t) {
                        continue;
                    }
                    let (ops, status) = &mut sessions[w][u];
                    ops.push(Op::Write { key, value });
                    match kind {
                        10 => *status = TxnStatus::Aborted,
                        _ => ops.push(Op::Write { key, value: fresh_value() }),
                    }
                }
            }
            // A read of a value some other transaction overwrote or wrote.
            _ if !all_writes.is_empty() => {
                let (key, value) = all_writes[rng.below(all_writes.len())];
                ops.insert(0, Op::Read { key, value });
            }
            _ => {}
        }
    }
    rebuild(sessions)
}

/// A generated history: `components` key-disjoint copies of a small general
/// workload on the store at `level`.
fn base_history(seed: u64, components: usize, level: IsolationLevel) -> History {
    let base = GeneralParams {
        sessions: 1 + (seed % 4) as usize,
        txns_per_session: 6 + (seed % 20) as usize,
        ops_per_txn: 2 + (seed % 7) as usize,
        keys: 8 + seed % 40,
        read_pct: 30 + (seed % 60) as u32,
        dist: if seed.is_multiple_of(2) {
            KeyDistribution::Uniform
        } else {
            KeyDistribution::Zipfian
        },
        seed,
    };
    run(&multi_component(&base, components), &SimConfig::new(level, seed)).history
}

const LEVELS: [IsolationLevel; 5] = [
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::Serializable,
    IsolationLevel::StaleSnapshot,
    IsolationLevel::ReadCommitted,
    IsolationLevel::ReadUncommitted,
];

fn assert_analyses_match(h: &History, label: &str) {
    assert_eq!(RefFacts::of(Facts::analyze(h)), reference_facts(h), "{label}: Facts::analyze");

    let plan = ShardPlan::analyze(h);
    assert_eq!(RefPlan::of(&plan), reference_plan(h), "{label}: ShardPlan::analyze");
    for comp in &plan.components {
        for (i, &t) in comp.txns.iter().enumerate() {
            assert_eq!(comp.local(t), Some(TxnId(i as u32)), "{label}: local({t})");
            assert_eq!(comp.global(TxnId(i as u32)), t, "{label}: global({i})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated histories, as the stores produce them.
    #[test]
    fn analyses_match_the_reference_on_generated_histories(
        seed in 0u64..1 << 32,
        components in 1usize..5,
        level in 0usize..LEVELS.len(),
    ) {
        let h = base_history(seed, components, LEVELS[level]);
        assert_analyses_match(&h, &format!("seed {seed} × {components} at {:?}", LEVELS[level]));
    }

    /// The same histories with axiom violations injected.
    #[test]
    fn analyses_match_the_reference_on_broken_histories(
        seed in 0u64..1 << 32,
        components in 1usize..4,
        level in 0usize..LEVELS.len(),
        rounds in 1usize..12,
    ) {
        let h = inject(&base_history(seed, components, LEVELS[level]), seed ^ 0xfa17, rounds);
        assert_analyses_match(&h, &format!("seed {seed} × {components}, {rounds} injections"));
    }

    /// The builder fed in a random session-respecting order, checked
    /// after every push against the reference facts of the prefix's
    /// snapshot, in session-major ids: while the axioms fail its violation
    /// list (healable, or the axiom state of one that never heals), and
    /// while they hold its facts, the
    /// lists in each field up to order (a read that waited for its writer
    /// joins the writer's readers when the writer arrives).
    #[test]
    fn stream_facts_match_the_reference_in_random_delivery_orders(
        seed in 0u64..1 << 32,
        components in 1usize..4,
        level in 0usize..LEVELS.len(),
        rounds in 0usize..3,
    ) {
        let h = inject(&base_history(seed, components, LEVELS[level]), seed ^ 0x57e4, rounds);
        let mut stream = HistoryStream::new();
        let mut pending: Vec<(SessionId, std::collections::VecDeque<_>)> =
            h.sessions().map(|s| (stream.session(), s.txns.iter().collect())).collect();
        pending.retain(|(_, txns)| !txns.is_empty());
        let mut rng = SplitMix64(seed ^ 0x0de1);
        while !pending.is_empty() {
            let at = rng.below(pending.len());
            let (session, txns) = &mut pending[at];
            let t = txns.pop_front().expect("a session with transactions left");
            stream.push_transaction(*session, t.ops.clone(), t.status);
            if txns.is_empty() {
                pending.swap_remove(at);
            }
            let (prefix, map) = stream.snapshot();
            let expected = reference_facts(&prefix);
            let facts = stream.facts();
            prop_assert_eq!(facts.axioms_ok(), expected.violations.is_empty());
            if facts.axioms_ok() {
                prop_assert_eq!(mapped(facts.facts(), &map), unordered(expected));
            } else if facts.axioms_can_heal() {
                prop_assert_eq!(stream.read_violations(), expected.violations);
            } else {
                prop_assert_eq!(stream.axiom_state(), (expected.violations, Vec::new()));
            }
        }
    }
}

/// `f`, in arrival ids, as the reference lists it in session-major ids
/// (`map`), every list of transactions sorted.
fn mapped(f: &Facts, map: &[TxnId]) -> RefFacts {
    let id = |t: TxnId| map[t.idx()];
    let ids = |ts: &[TxnId]| -> Vec<TxnId> { ts.iter().map(|&t| id(t)).collect() };
    let mut out = RefFacts {
        reads: vec![Vec::new(); map.len()],
        writes: vec![Vec::new(); map.len()],
        writers: f.writers.iter().map(|(&key, ws)| (key, ids(ws))).collect(),
        readers: f.readers.iter().map(|(&(key, w), rs)| ((key, id(w)), ids(rs))).collect(),
        init_readers: f.init_readers.iter().map(|(&key, rs)| (key, ids(rs))).collect(),
        violations: f.violations.clone(),
    };
    for (t, (reads, writes)) in f.reads.iter().zip(&f.writes).enumerate() {
        let source = |s: WrSource| match s {
            WrSource::Txn(w) => WrSource::Txn(id(w)),
            WrSource::Init => WrSource::Init,
        };
        out.reads[map[t].idx()] = reads.iter().map(|&(k, v, s)| (k, v, source(s))).collect();
        out.writes[map[t].idx()] = writes.clone();
    }
    unordered(out)
}

/// `f` with every list of transactions sorted.
fn unordered(mut f: RefFacts) -> RefFacts {
    let lists = f.writers.values_mut().chain(f.readers.values_mut());
    lists.chain(f.init_readers.values_mut()).for_each(|ts| ts.sort_unstable());
    f
}

/// Transactions with more than 32 touched keys, deterministically (the
/// injected ones above are a matter of chance).
#[test]
fn analyses_match_the_reference_on_wide_transactions() {
    let base = GeneralParams {
        sessions: 3,
        txns_per_session: 12,
        ops_per_txn: 120,
        keys: 90,
        read_pct: 50,
        dist: KeyDistribution::Uniform,
        seed: 11,
    };
    for level in LEVELS {
        let h = run(&multi_component(&base, 2), &SimConfig::new(level, 11)).history;
        let widest =
            h.iter().map(|(_, t)| t.ops.iter().map(|op| op.key()).collect::<BTreeSet<_>>().len());
        assert!(widest.max() > Some(32), "no transaction leaves the scanning path");
        assert_analyses_match(&h, &format!("wide at {level:?}"));
        assert_analyses_match(&inject(&h, 5, 20), &format!("wide, broken, at {level:?}"));
    }
}

/// The injections are only worth something if they produce every kind of
/// violation the batch analysis can report, several per history included.
#[test]
fn injections_reach_every_axiom() {
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut several_duplicates_in_one_txn = false;
    for seed in 0..40u64 {
        let level = LEVELS[seed as usize % LEVELS.len()];
        let h = inject(&base_history(seed, 2, level), seed, 10);
        assert_analyses_match(&h, &format!("coverage seed {seed}"));
        let violations = Facts::analyze(&h).violations;
        for v in &violations {
            *kinds.entry(v.kind()).or_default() += 1;
        }
        several_duplicates_in_one_txn |= violations.windows(2).any(|w| {
            matches!(
                (&w[0], &w[1]),
                (
                    AxiomViolation::DuplicateWrite { second: a, .. },
                    AxiomViolation::DuplicateWrite { second: b, .. }
                ) if a == b
            )
        });
    }
    for kind in [
        "int",
        "aborted_read",
        "intermediate_read",
        "duplicate_write",
        "unknown_value_read",
        "wrote_init_value",
        "future_read",
    ] {
        assert!(kinds.get(kind).is_some_and(|&n| n >= 3), "{kind}: {kinds:?}");
    }
    assert!(several_duplicates_in_one_txn, "no transaction re-wrote two taken pairs");
}
