//! Differential test of a stream delta's constraint generator: on random
//! interleavings of random histories, checkpointed at random points,
//! `ConstraintGen::delta` yields exactly the constraints that a store-first
//! delta path generated — one fresh constraint per new writer pair, in
//! event order, then the open pairs that gained a reader, regenerated in
//! sorted order — with the same orientation and edges, exact counts and
//! endpoints. And the arrival-id freshness test (a pair is new when its
//! later writer arrived at the delta's first transaction or after) names
//! exactly the pairs that the new-pair set held.

use polysi_history::{FactEvent, Facts, FastSet, HistoryStream, Key, Op, TxnId, TxnStatus, Value};
use polysi_polygraph::{ConstraintGen, ConstraintSet};

/// SplitMix64: a seeded stream of pseudo-random words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A writer pair of one key, earlier writer first.
type Pair = (Key, TxnId, TxnId);

/// A planned transaction: the keys it reads, then the values it writes.
type Plan = (Vec<Key>, Vec<(Key, Value)>);

/// The store-first delta path's constraint step, kept as the reference:
/// the new pairs of each final write, generated over the current readers,
/// then the `regen` pairs in sorted order, ids translated by `local`.
/// Returns the constraints and the new-pair set.
fn reference(
    facts: &Facts,
    events: &[FactEvent],
    regen: &FastSet<Pair>,
    local: impl Fn(TxnId) -> TxnId,
) -> (ConstraintSet, FastSet<Pair>) {
    let mut new_pairs: Vec<Pair> = Vec::new();
    for &ev in events {
        if let FactEvent::FinalWrite { key, writer } = ev {
            let writers = &facts.writers[&key];
            let seen = writers.partition_point(|&w| w < writer);
            new_pairs.extend(writers[..seen].iter().map(|&w2| (key, w2, writer)));
        }
    }
    let mut constraints = ConstraintSet::new();
    let mut generate = |key: Key, t: TxnId, s: TxnId| {
        let (rt, rs) = (facts.readers_of(key, t), facts.readers_of(key, s));
        constraints.push_generalized(key, t, s, rt, rs);
    };
    for &(key, t, s) in &new_pairs {
        generate(key, t, s);
    }
    let mut regen: Vec<Pair> = regen.iter().copied().collect();
    regen.sort_unstable();
    for (key, t, s) in regen {
        generate(key, t, s);
    }
    constraints.remap(local);
    (constraints, new_pairs.into_iter().collect())
}

/// What the random cases covered.
#[derive(Default, Debug)]
struct Coverage {
    deltas: usize,
    /// Deltas with two or more new writers of one key.
    multi_writer: usize,
    regen_pairs: usize,
    healed_reads: usize,
    constraints: usize,
}

/// One random history pushed in one random interleaving, every
/// checkpointable delta compared.
fn case(seed: u64, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let (sessions, keys) = (2 + rng.below(3) as usize, 1 + rng.below(3));
    // Plan every transaction: reads first (one per key), then writes of
    // fresh values, so every written value is a final write.
    let mut value = 0u64;
    let mut plans: Vec<Vec<Plan>> = vec![Vec::new(); sessions];
    let mut written: Vec<(Key, Value)> = Vec::new();
    for plan in plans.iter_mut() {
        for _ in 0..3 + rng.below(8) {
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for k in 0..keys {
                match rng.below(4) {
                    0 => reads.push(Key(k)),
                    1 | 2 => {
                        value += 1;
                        writes.push((Key(k), Value(value)));
                    }
                    _ => {}
                }
            }
            if reads.is_empty() && writes.is_empty() {
                value += 1;
                writes.push((Key(0), Value(value)));
            }
            written.extend(&writes);
            plan.push((reads, writes));
        }
    }
    // Each read sees the initial value or any planned write of its key —
    // one later in the push order waits and heals at its writer's turn.
    let mut txns: Vec<Vec<Vec<Op>>> = Vec::new();
    for plan in &plans {
        let mut session = Vec::new();
        for (reads, writes) in plan {
            let mut ops = Vec::new();
            for &key in reads {
                let candidates: Vec<Value> =
                    written.iter().filter(|&&(k, _)| k == key).map(|&(_, v)| v).collect();
                let pick = rng.below(candidates.len() as u64 + 1) as usize;
                let value = candidates.get(pick).copied().unwrap_or(Value::INIT);
                ops.push(Op::Read { key, value });
            }
            ops.extend(writes.iter().map(|&(key, value)| Op::Write { key, value }));
            session.push(ops);
        }
        txns.push(session);
    }

    let mut stream = HistoryStream::new();
    let ids: Vec<_> = (0..sessions).map(|_| stream.session()).collect();
    let mut next = vec![0usize; sessions];
    let mut cursor = 0usize;
    let local = |t: TxnId| TxnId(2 * t.0 + 1);
    loop {
        let open: Vec<usize> = (0..sessions).filter(|&s| next[s] < txns[s].len()).collect();
        if open.is_empty() {
            break;
        }
        let s = open[rng.below(open.len() as u64) as usize];
        stream.push_transaction(ids[s], txns[s][next[s]].clone(), TxnStatus::Committed);
        next[s] += 1;
        let last = open.len() == 1 && next[s] == txns[s].len();
        if !(last || rng.below(3) == 0) || !stream.facts().axioms_ok() {
            continue;
        }
        let from = TxnId(cursor as u32);
        let events: Vec<FactEvent> = stream.facts().delta(cursor).collect();
        cursor = stream.len();
        let facts = stream.facts().facts();

        // Reader growth against pre-existing pairs picks the regenerated
        // pairs: here every other such pair (the checker picks the open
        // ones), so both new and regenerated runs occur.
        let mut growth: Vec<(Key, TxnId, TxnId)> = Vec::new();
        let mut new_writers: Vec<Key> = Vec::new();
        for &ev in &events {
            match ev {
                FactEvent::Wr { key, writer, reader } => {
                    cov.healed_reads += (reader < writer) as usize;
                    growth.push((key, writer, reader));
                }
                FactEvent::FinalWrite { key, .. } => new_writers.push(key),
                _ => {}
            }
        }
        new_writers.sort_unstable();
        cov.multi_writer += new_writers.windows(2).any(|w| w[0] == w[1]) as usize;
        let mut regen: FastSet<Pair> = FastSet::default();
        for &(key, w, _) in &growth {
            for &w2 in &facts.writers[&key] {
                let pair = if w < w2 { (key, w, w2) } else { (key, w2, w) };
                let every_other = (pair.1 .0 + pair.2 .0 + seed as u32).is_multiple_of(2);
                if w2 != w && w.max(w2) < from && every_other {
                    regen.insert(pair);
                }
            }
        }
        let (want, fresh) = reference(facts, &events, &regen, local);

        // The freshness test names the new-pair set, on every pair of
        // every key.
        for (&key, writers) in &facts.writers {
            for (i, &t) in writers.iter().enumerate() {
                for &s in &writers[i + 1..] {
                    assert_eq!(fresh.contains(&(key, t, s)), s >= from, "seed {seed}: {key:?}");
                }
            }
        }

        let mut regen: Vec<Pair> = regen.into_iter().collect();
        regen.sort_unstable();
        let writes = events.iter().filter_map(|ev| match *ev {
            FactEvent::FinalWrite { key, writer } => Some((key, writer)),
            _ => None,
        });
        let gen = ConstraintGen::delta(facts, writes, &regen, local);
        let got = gen.store();
        assert_eq!(got, want, "seed {seed}: delta at {from:?}");
        assert_eq!(gen.counts(), (want.len(), want.num_edges()), "seed {seed}");
        let n = 2 * stream.len() + 1;
        let (mut marked, mut endpoints) = (vec![false; n], vec![false; n]);
        gen.mark_endpoints(&mut marked);
        for e in want.edges() {
            endpoints[e.from.idx()] = true;
            endpoints[e.to.idx()] = true;
        }
        assert_eq!(marked, endpoints, "seed {seed}: endpoints");
        cov.deltas += 1;
        cov.regen_pairs += regen.len();
        cov.constraints += want.len();
    }
}

#[test]
fn delta_generator_is_the_store_first_delta_path() {
    let mut cov = Coverage::default();
    for seed in 0..400 {
        case(seed, &mut cov);
    }
    assert!(cov.deltas > 800, "{cov:?}");
    assert!(cov.multi_writer > 300, "{cov:?}");
    assert!(cov.regen_pairs > 500, "{cov:?}");
    assert!(cov.healed_reads > 500, "{cov:?}");
    assert!(cov.constraints > 20_000, "{cov:?}");
}
