//! The six named workloads: how each input is generated from the seed, the
//! hand-written known answer for it, and the two scripts (soak waves, the
//! commit-consistent live delivery order) the checker does not generate
//! itself.

use polysi::baselines::{cobra_check_ser, cobra_si_check, CobraOptions, SerVerdict, SiVerdict};
use polysi::checker::IsolationLevel;
use polysi::dbsim::{self, corpus, SimConfig};
use polysi::history::{binfmt, codec, Facts, History, Key, Op, TxnId, Value};
use polysi::workloads::{generate, multi_component, GeneralParams, KeyDistribution};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BatchGeneral,
    BatchSharded,
    BatchSolver,
    BatchReject,
    StreamSoak,
    LiveHub,
}

/// What a correct checker answers on a workload's input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// The batch check accepts.
    Accept,
    /// The batch check rejects, and only the solver can find out: pruning
    /// completes, the SAT search ends UNSAT after real conflicts.
    RejectInSolve,
    /// The batch check rejects with a cycle, an anomaly class and an
    /// interpreted scenario.
    RejectWithWitness,
    /// Every checkpoint accepts and no ingest fault is recorded.
    EveryCheckpointAccepted,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BatchGeneral,
        Workload::BatchSharded,
        Workload::BatchSolver,
        Workload::BatchReject,
        Workload::StreamSoak,
        Workload::LiveHub,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchGeneral => "batch_general",
            Workload::BatchSharded => "batch_sharded",
            Workload::BatchSolver => "batch_solver",
            Workload::BatchReject => "batch_reject",
            Workload::StreamSoak => "stream_soak",
            Workload::LiveHub => "live_hub",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The known-answer table. Accepts hold by construction of the `dbsim`
    /// SI store (and of the soak waves, which only ever read the latest
    /// write); the lattice rejects under SER by its template's odd-ring
    /// proof; the stale-snapshot store breaks session causality. The two
    /// rejecting inputs are additionally confirmed by an independent
    /// baseline checker at set-up.
    pub fn expect(self) -> Expect {
        match self {
            Workload::BatchGeneral | Workload::BatchSharded => Expect::Accept,
            Workload::BatchSolver => Expect::RejectInSolve,
            Workload::BatchReject => Expect::RejectWithWitness,
            Workload::StreamSoak | Workload::LiveHub => Expect::EveryCheckpointAccepted,
        }
    }
}

/// Encoded history bytes, as a file on disk would hold them.
pub enum Encoded {
    Text(String),
    Pbh(Vec<u8>),
}

impl Encoded {
    pub fn len(&self) -> usize {
        match self {
            Encoded::Text(s) => s.len(),
            Encoded::Pbh(b) => b.len(),
        }
    }
}

pub struct BatchInput {
    pub bytes: Encoded,
    pub level: IsolationLevel,
}

/// A history plus the order its transactions are delivered in.
pub struct LiveScript {
    pub history: History,
    pub order: Vec<TxnId>,
    pub checkpoint_every: usize,
}

pub enum Input {
    Batch(BatchInput),
    Soak(SoakScript),
    Live(LiveScript),
}

/// Every history-shaped input has one fixed structure, generated from this
/// seed; `--seed` picks an isomorphic copy of it ([`relabel`]). Histories of
/// one generator differ in checking cost by 20–50 % from seed to seed
/// (constraint counts follow the hot keys' writer counts, and a violation
/// turns up early or late), which would drown any regression bound, so the
/// structure is pinned and the seed varies what the checker must not depend
/// on: ids, key and value names, session order.
pub const STRUCTURE_SEED: u64 = 7;

pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The copy of `h` that `seed` picks: sessions in a shuffled order (so every
/// transaction id changes), every key moved by one offset and every written
/// value by another. Offsets lie in `[100_000, 200_000)`: above every name the
/// generators hand out, so each renamed key and value has six digits and
/// three varint bytes and encoded sizes do not depend on the seed. Also
/// returns the new id of each old transaction.
pub fn relabel(h: &History, seed: u64) -> (History, Vec<TxnId>) {
    let mut rng = SplitMix64(seed);
    let key_offset = 100_000 + rng.next() % 100_000;
    let value_offset = 100_000 + rng.next() % 100_000;
    let rename = |op: &Op| {
        let key = Key(op.key().0 + key_offset);
        let value = match op.value() {
            Value::INIT => Value::INIT,
            Value(v) => Value(v + value_offset),
        };
        if op.is_read() {
            Op::Read { key, value }
        } else {
            Op::Write { key, value }
        }
    };
    let mut sessions: Vec<_> = h.sessions().collect();
    for i in (1..sessions.len()).rev() {
        sessions.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut copy = History::new();
    let mut new_id = vec![TxnId(0); h.len()];
    for s in sessions {
        for i in 0..s.txns.len() {
            new_id[s.first.idx() + i] = TxnId((copy.len() + i) as u32);
        }
        copy.push_session(
            s.txns.iter().map(|t| (t.ops.iter().map(rename).collect(), t.status)).collect(),
        );
    }
    (copy, new_id)
}

/// The paper's default general workload (20 sessions, 15 ops/txn, 10k keys,
/// zipfian, 50 % reads) run on the simulated store at `level`.
fn general_history(txns_per_session: usize, level: dbsim::IsolationLevel) -> History {
    let seed = STRUCTURE_SEED;
    let plan = generate(&GeneralParams { txns_per_session, seed, ..Default::default() });
    dbsim::run(&plan, &SimConfig::new(level, seed)).history
}

/// The lattice template derives five key ranges from `base`, 1000 apart, so
/// a ring of 1000 or more cells aliases them and rejects for the wrong
/// reason (in prune).
pub const LATTICE_MAX_CELLS: usize = 999;

/// Generate the input of `w` from `seed` and confirm the rejecting ones
/// with an independent baseline. `quick` makes tenth-size inputs.
pub fn build(w: Workload, seed: u64, quick: bool) -> Result<Input, String> {
    let shrink = if quick { 10 } else { 1 };
    let si = dbsim::IsolationLevel::SnapshotIsolation;
    Ok(match w {
        Workload::BatchGeneral => {
            let (h, _) = relabel(&general_history(500 / shrink, si), seed);
            Input::Batch(BatchInput {
                bytes: Encoded::Text(codec::encode(&h)),
                level: IsolationLevel::Si,
            })
        }
        Workload::BatchSharded => {
            let base = GeneralParams {
                sessions: 4,
                txns_per_session: 400 / shrink,
                ops_per_txn: 8,
                keys: 2000,
                read_pct: 90,
                dist: KeyDistribution::Uniform,
                seed: STRUCTURE_SEED,
            };
            let sim = SimConfig::new(si, STRUCTURE_SEED);
            let (h, _) = relabel(&dbsim::run(&multi_component(&base, 64), &sim).history, seed);
            Input::Batch(BatchInput {
                bytes: Encoded::Pbh(binfmt::encode(&h)),
                level: IsolationLevel::Si,
            })
        }
        Workload::BatchSolver => {
            let cells = LATTICE_MAX_CELLS / shrink;
            assert!(cells <= LATTICE_MAX_CELLS, "lattice key ranges alias beyond 999 cells");
            let (h, _) = relabel(&corpus::write_skew_lattice(1, cells), seed);
            if cobra_check_ser(&h, &CobraOptions::default()).0 != SerVerdict::NotSerializable {
                return Err(format!("seed {seed}: the Cobra baseline accepts the lattice"));
            }
            Input::Batch(BatchInput {
                bytes: Encoded::Text(codec::encode(&h)),
                level: IsolationLevel::Ser,
            })
        }
        Workload::BatchReject => {
            let stale = general_history(500 / shrink, dbsim::IsolationLevel::StaleSnapshot);
            let (h, _) = relabel(&stale, seed);
            if cobra_si_check(&h).0 != SiVerdict::NotSi {
                return Err(format!(
                    "structure seed {STRUCTURE_SEED}: this stale-snapshot history happens to \
                     satisfy SI (CobraSI baseline); batch_reject needs a violating input"
                ));
            }
            Input::Batch(BatchInput {
                bytes: Encoded::Pbh(binfmt::encode(&h)),
                level: IsolationLevel::Si,
            })
        }
        Workload::StreamSoak => Input::Soak(SoakScript::generate(seed, 1024 / shrink)),
        Workload::LiveHub => {
            // The delivery order is fixed on the structure, then carried
            // over to the copy, so every seed checkpoints the same prefixes.
            let base = general_history(250 / shrink, si);
            let (history, new_id) = relabel(&base, seed);
            let order = commit_order(&base).into_iter().map(|t| new_id[t.idx()]).collect();
            Input::Live(LiveScript { history, order, checkpoint_every: 250 / shrink })
        }
    })
}

/// A delivery order consistent with commit order: a topological order of
/// `SO ∪ WR` (Kahn's algorithm, smallest ready transaction id first, so the
/// order is a function of the history alone). Every transaction appears
/// once, after its session predecessor and after the writer of every value
/// it reads, which is what lets every prefix checkpoint accept.
pub fn commit_order(h: &History) -> Vec<TxnId> {
    let n = h.len();
    let facts = Facts::analyze(h);
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut blockers = vec![0u32; n];
    let edges = h.so_edges().chain(facts.wr_edges().map(|(w, r, _)| (w, r)));
    for (from, to) in edges {
        succs[from.idx()].push(to.0);
        blockers[to.idx()] += 1;
    }
    let mut ready: BinaryHeap<Reverse<u32>> =
        (0..n as u32).filter(|&t| blockers[t as usize] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(t)) = ready.pop() {
        order.push(TxnId(t));
        for &s in &succs[t as usize] {
            blockers[s as usize] -= 1;
            if blockers[s as usize] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    assert_eq!(order.len(), n, "SO ∪ WR of a history from the SI store must be acyclic");
    order
}

/// Sessions per soak wave; each owns `SOAK_KEYS_PER_SLOT` keys for ever.
pub const SOAK_SLOTS: usize = 8;
pub const SOAK_KEYS_PER_SLOT: usize = 4;
/// Transactions each session pushes before its wave seals.
pub const SOAK_TXNS_PER_SESSION: usize = 32;
pub const SOAK_WAVE_TXNS: usize = SOAK_SLOTS * SOAK_TXNS_PER_SESSION;

/// One scripted soak transaction: an optional read, then a write.
#[derive(Clone, Copy, Debug)]
pub struct SoakTxn {
    /// Which of the wave's sessions pushes it.
    pub slot: u8,
    pub read: Option<Op>,
    pub write: Op,
}

impl SoakTxn {
    /// The owned operation list `push_transaction` takes.
    pub fn ops(&self) -> Vec<Op> {
        match self.read {
            Some(r) => vec![r, self.write],
            None => vec![self.write],
        }
    }
}

/// The soak stream, in push order: `waves` waves of [`SOAK_WAVE_TXNS`]
/// transactions (the shape of `bench --bin soak`). Each wave opens eight
/// fresh sessions; a session's first write to each of its keys reads the
/// previous wave's final version first, which orients the cross-wave
/// version order so the previous wave settles and compacts; about one later
/// transaction in eight reads another slot's current-wave value, which keeps
/// the slots in one component. Reads only ever name the latest write.
pub struct SoakScript {
    pub waves: usize,
    pub txns: Vec<SoakTxn>,
}

impl SoakScript {
    pub fn generate(seed: u64, waves: usize) -> SoakScript {
        let mut rng = SplitMix64(seed);
        let key_base = 1 + (seed % 4096) * 64;
        let key_of = |slot: usize, i: usize| Key(key_base + (slot * SOAK_KEYS_PER_SLOT + i) as u64);
        let mut last_val: HashMap<Key, Value> = HashMap::new();
        let mut next_val = 1u64;
        let mut txns = Vec::with_capacity(waves * SOAK_WAVE_TXNS);
        for _ in 0..waves {
            for t in 0..SOAK_TXNS_PER_SESSION {
                for slot in 0..SOAK_SLOTS {
                    let key = key_of(slot, t % SOAK_KEYS_PER_SLOT);
                    let read_key = if t < SOAK_KEYS_PER_SLOT {
                        Some(key)
                    } else {
                        // By now every key has a current-wave writer, so a
                        // cross-slot read never reaches into a settled wave.
                        let r = rng.next();
                        r.is_multiple_of(8).then(|| {
                            let other =
                                (slot + 1 + (r >> 8) as usize % (SOAK_SLOTS - 1)) % SOAK_SLOTS;
                            key_of(other, (r >> 16) as usize % SOAK_KEYS_PER_SLOT)
                        })
                    };
                    let read = read_key
                        .and_then(|k| last_val.get(&k).map(|&value| Op::Read { key: k, value }));
                    let value = Value(next_val);
                    next_val += 1;
                    last_val.insert(key, value);
                    txns.push(SoakTxn { slot: slot as u8, read, write: Op::Write { key, value } });
                }
            }
        }
        SoakScript { waves, txns }
    }

    pub fn wave(&self, w: usize) -> &[SoakTxn] {
        &self.txns[w * SOAK_WAVE_TXNS..(w + 1) * SOAK_WAVE_TXNS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_round_trip_and_every_workload_has_a_known_answer() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let _ = w.expect();
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn relabel_picks_an_isomorphic_copy_by_seed() {
        let h = general_history(20, dbsim::IsolationLevel::SnapshotIsolation);
        let (copy, new_id) = relabel(&h, 5);
        assert_eq!((copy.len(), copy.num_sessions(), copy.num_ops()), (h.len(), 20, h.num_ops()));
        assert_eq!(new_id.iter().collect::<HashSet<_>>().len(), h.len(), "ids must be a bijection");
        let offset =
            |a: &Op, b: &Op| (b.key().0 - a.key().0, b.value().0.wrapping_sub(a.value().0));
        let first = offset(&h.txns()[0].ops[0], &copy.txn(new_id[0]).ops[0]).0;
        for (id, txn) in h.iter() {
            let twin = copy.txn(new_id[id.idx()]);
            assert_eq!((twin.index_in_session, twin.status), (txn.index_in_session, txn.status));
            assert_eq!(twin.ops.len(), txn.ops.len());
            for (a, b) in txn.ops.iter().zip(&twin.ops) {
                assert_eq!(a.is_read(), b.is_read());
                assert_eq!(offset(a, b).0, first, "one key offset for the whole history");
                assert_eq!(a.value() == Value::INIT, b.value() == Value::INIT);
            }
        }
        // Same structure, same sizes on disk, different bytes.
        assert_eq!(Facts::analyze(&copy).num_wr_edges(), Facts::analyze(&h).num_wr_edges());
        let other = relabel(&h, 6).0;
        assert_ne!(codec::encode(&copy), codec::encode(&other));
        assert_eq!(codec::encode(&copy).len(), codec::encode(&other).len());
        assert_eq!(binfmt::encode(&copy).len(), binfmt::encode(&other).len());
        assert_eq!(relabel(&h, 5).0, copy, "the same seed gives the same input");
    }

    #[test]
    fn commit_order_delivers_every_txn_once_after_its_dependencies() {
        let h = general_history(40, dbsim::IsolationLevel::SnapshotIsolation);
        let order = commit_order(&h);
        assert_eq!(order.len(), h.len());
        assert_eq!(order.iter().collect::<HashSet<_>>().len(), h.len(), "a txn was repeated");
        let mut position = vec![0usize; h.len()];
        for (i, t) in order.iter().enumerate() {
            position[t.idx()] = i;
        }
        for (a, b) in h.so_edges() {
            assert!(position[a.idx()] < position[b.idx()], "session order broken at {a:?}->{b:?}");
        }
        let facts = Facts::analyze(&h);
        assert!(facts.num_wr_edges() > 0);
        for (w, r, key) in facts.wr_edges() {
            assert!(position[w.idx()] < position[r.idx()], "{r:?} reads {key:?} before {w:?}");
        }
        assert_eq!(order, commit_order(&h), "the order must be a function of the history");
    }

    #[test]
    fn soak_reads_always_name_the_latest_write() {
        let script = SoakScript::generate(11, 6);
        assert_eq!(script.txns.len(), 6 * SOAK_WAVE_TXNS);
        let mut latest: HashMap<Key, Value> = HashMap::new();
        let (mut reads, mut cross_slot) = (0, 0);
        for (i, txn) in script.txns.iter().enumerate() {
            if let Some(Op::Read { key, value }) = txn.read {
                assert_eq!(latest.get(&key), Some(&value), "txn {i} reads a stale {key:?}");
                reads += 1;
                cross_slot += usize::from(key != txn.write.key());
            }
            let Op::Write { key, value } = txn.write else { panic!("txn {i} does not write") };
            assert!(latest.insert(key, value).is_none_or(|old| old < value));
            assert!((txn.slot as usize) < SOAK_SLOTS && txn.ops().len() <= 2);
        }
        assert_eq!(latest.len(), SOAK_SLOTS * SOAK_KEYS_PER_SLOT, "32 keys, reused for ever");
        // Every wave but the first re-reads all 32 keys; cross-slot reads
        // come on top and differ between seeds.
        assert!(reads >= 5 * 32 && cross_slot > 0);
        let other = SoakScript::generate(12, 6);
        assert!(script.txns.iter().zip(&other.txns).any(|(a, b)| a.read != b.read));
    }

    #[test]
    fn quick_rejecting_inputs_pass_their_baseline_cross_check() {
        for w in [Workload::BatchSolver, Workload::BatchReject] {
            assert!(build(w, 7, true).is_ok(), "{}", w.name());
        }
    }
}
