//! Every small history, four SI deciders: the engine (`check`), the
//! streaming checker with a checkpoint after every transaction (each
//! checkpoint after the first resumes on a delta), the Theorem-6 oracle
//! (`oracle_check_si`, by enumeration of version orders) and Berenson et
//! al.'s operational SI (`replay_check_si`) agree on every history of
//! exactly three committed transactions in at most three sessions, within
//! a bound on keys and operations per transaction. Past that bound, the
//! stream and the engine agree on simulated histories delivered in random
//! session-respecting orders, whose checkpoints land several transactions
//! as one delta.
//!
//! Histories are canonical: session sizes are non-increasing, the n-th
//! write of a key writes value n, and each read picks the initial value or
//! any write of its key (future, own and overwritten writes included, so
//! axiom violations are enumerated too). Exhaustion up to a small bound
//! finds what sampling misses (the small-scope hypothesis).

use polysi::checker::engine::{check, EngineOptions, IsolationLevel};
use polysi::checker::oracle::oracle_check_si;
use polysi::checker::StreamingChecker;
use polysi::dbsim::{replay_check_si, run, IsolationLevel as Store, ReplayResult, SimConfig};
use polysi::history::{History, Key, Op, TxnStatus, Value};
use polysi::workloads::{generate, GeneralParams, KeyDistribution};

/// One operation of a transaction's shape: a read or a write of a key.
#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u64),
    Write(u64),
}

/// Every transaction shape of 1 to `max_ops` steps over `keys` keys.
fn shapes(keys: u64, max_ops: usize) -> Vec<Vec<Step>> {
    let steps: Vec<Step> = (0..keys).flat_map(|k| [Step::Read(k), Step::Write(k)]).collect();
    let mut out: Vec<Vec<Step>> = vec![Vec::new()];
    let mut all = Vec::new();
    for _ in 0..max_ops {
        out =
            out.iter().flat_map(|s| steps.iter().map(move |&x| [&s[..], &[x]].concat())).collect();
        all.extend(out.iter().cloned());
    }
    all
}

/// The session layouts of three transactions: session sizes, non-increasing.
const LAYOUTS: [&[usize]; 3] = [&[3], &[2, 1], &[1, 1, 1]];

/// Call `visit` on every canonical history of three committed transactions
/// laid out in sessions as one of `layouts` says, whose transactions have 1
/// to `max_ops` steps over `keys` keys. Returns how many it visited.
fn for_each_history(
    keys: u64,
    max_ops: usize,
    layouts: &[&[usize]],
    mut visit: impl FnMut(&History),
) -> usize {
    let shapes = shapes(keys, max_ops);
    let mut visited = 0;
    for &sessions in layouts {
        for a in &shapes {
            for b in &shapes {
                for c in &shapes {
                    let txns = [a, b, c];
                    let mut writes = vec![0u64; keys as usize];
                    for step in txns.iter().flat_map(|t| t.iter()) {
                        if let Step::Write(k) = step {
                            writes[*k as usize] += 1;
                        }
                    }
                    // Each read's choice, 0 for the initial value: an
                    // odometer over every read of the three transactions.
                    let reads: Vec<u64> = txns
                        .iter()
                        .flat_map(|t| t.iter())
                        .filter_map(|s| match s {
                            Step::Read(k) => Some(writes[*k as usize] + 1),
                            Step::Write(_) => None,
                        })
                        .collect();
                    let mut choice = vec![0u64; reads.len()];
                    loop {
                        visit(&build(sessions, &txns, &choice, keys));
                        visited += 1;
                        let Some(i) = (0..choice.len()).find(|&i| choice[i] + 1 < reads[i]) else {
                            break;
                        };
                        choice[i] += 1;
                        choice[..i].iter_mut().for_each(|c| *c = 0);
                    }
                }
            }
        }
    }
    visited
}

/// The history of `txns`, laid out in sessions of the given sizes, each
/// read taking its entry of `choice` (0: the initial value, n: the n-th
/// write of its key).
fn build(sessions: &[usize], txns: &[&Vec<Step>; 3], choice: &[u64], keys: u64) -> History {
    let (mut h, mut next) = (History::new(), txns.iter().copied());
    let (mut written, mut reads) = (vec![0u64; keys as usize], choice.iter());
    for &size in sessions {
        let session = next
            .by_ref()
            .take(size)
            .map(|t| {
                let ops = t
                    .iter()
                    .map(|&step| match step {
                        Step::Read(k) => {
                            let v = match reads.next().copied() {
                                Some(0) | None => Value::INIT,
                                Some(n) => Value(n),
                            };
                            Op::Read { key: Key(k), value: v }
                        }
                        Step::Write(k) => {
                            written[k as usize] += 1;
                            Op::Write { key: Key(k), value: Value(written[k as usize]) }
                        }
                    })
                    .collect();
                (ops, TxnStatus::Committed)
            })
            .collect();
        h.push_session(session);
    }
    h
}

/// The streaming checker fed `h` in session-major order with a checkpoint
/// after every transaction: whether its last checkpoint accepts.
fn stream_accepts(h: &History) -> bool {
    let mut checker = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
    let mut accepted = true;
    for session in h.sessions() {
        let id = checker.session();
        for t in session.txns {
            checker.push_transaction(id, t.ops.clone(), t.status);
            accepted = checker.checkpoint().verdict.accepted();
        }
    }
    accepted
}

/// Run the four deciders on every history within the bound and of the
/// given layouts; panics on the first disagreement. Returns the histories
/// checked and the accepted ones.
fn deciders_agree(keys: u64, max_ops: usize, layouts: &[&[usize]]) -> (usize, usize) {
    let opts = EngineOptions::default();
    let mut accepted = 0;
    let visited = for_each_history(keys, max_ops, layouts, |h| {
        let engine = check(h, IsolationLevel::Si, &opts).accepted();
        let stream = stream_accepts(h);
        let oracle = oracle_check_si(h);
        let replay = match replay_check_si(h, 100_000) {
            ReplayResult::Si => true,
            ReplayResult::NotSi => false,
            ReplayResult::Budget => panic!("replay ran out of budget on {h:?}"),
        };
        assert!(
            engine == stream && engine == oracle && oracle == replay,
            "engine {engine}, stream {stream}, oracle {oracle}, replay {replay} on {h:?}"
        );
        accepted += engine as usize;
    });
    (visited, accepted)
}

/// One key, one or two steps a transaction: 15 138 histories, among them
/// every one in which all three transactions write the key (the smallest
/// case where the first prune pass omits a writer pair, and where a
/// stream delta's does: a third writer after two it follows). One test per
/// session layout, so the harness runs them side by side: a layout does
/// not change which transactions and reads are enumerated, so each visits
/// 5 046 histories, and the three 15 138.
fn one_key(layout: &[usize]) {
    let (visited, accepted) = deciders_agree(1, 2, &[layout]);
    assert_eq!(visited, 5_046);
    assert!(accepted > 0 && accepted < visited, "{accepted} of {visited} accepted");
}

#[test]
fn three_transactions_on_one_key_in_one_session() {
    one_key(&[3]);
}

#[test]
fn three_transactions_on_one_key_in_two_sessions() {
    one_key(&[2, 1]);
}

#[test]
fn three_transactions_on_one_key_in_three_sessions() {
    one_key(&[1, 1, 1]);
}

/// Two keys, one or two steps a transaction: 205 872 histories (a few
/// seconds in a release build: `cargo test --release -p polysi --test
/// small_histories -- --ignored`).
#[test]
#[ignore]
fn three_transactions_on_two_keys() {
    let (visited, accepted) = deciders_agree(2, 2, &LAYOUTS);
    assert_eq!(visited, 205_872);
    assert!(accepted > 0 && accepted < visited, "{accepted} of {visited} accepted");
}

/// The streaming checker fed `h` in the session-respecting order that
/// `seed` draws, with a checkpoint after each transaction with odds 1 in 4
/// and one at the end: whether the last accepts. The first terminal
/// checkpoint's whole outcome (witness, anomaly, scenario or axiom list) is
/// `check`'s on the snapshot there. A checkpoint's delta can
/// hold several transactions of several sessions, so a new writer can
/// arrive with the transactions that order it before an old one
/// (`W_new →SO T →RW W_old`).
fn stream_accepts_in_random_order(h: &History, mut seed: u64) -> bool {
    let mut draw = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as usize
    };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
    let sessions: Vec<_> = h.sessions().collect();
    let ids: Vec<_> = sessions.iter().map(|_| checker.session()).collect();
    let mut next = vec![0; sessions.len()];
    let mut terminal = false;
    let mut checkpoint = |checker: &mut StreamingChecker| {
        let cp = checker.checkpoint();
        if cp.terminal && !terminal {
            terminal = true;
            let (prefix, _) = checker.stream().snapshot();
            let batch = check(&prefix, IsolationLevel::Si, &EngineOptions::default());
            let (got, want) = (format!("{:?}", cp.verdict), format!("{:?}", batch.outcome));
            assert_eq!(got, want, "the terminal outcome is batch's on {prefix:?}");
        }
        cp.verdict.accepted()
    };
    loop {
        let open: Vec<usize> =
            (0..sessions.len()).filter(|&s| next[s] < sessions[s].txns.len()).collect();
        if open.is_empty() {
            return checkpoint(&mut checker);
        }
        let s = open[draw() % open.len()];
        let t = &sessions[s].txns[next[s]];
        next[s] += 1;
        checker.push_transaction(ids[s], t.ops.clone(), t.status);
        if draw() % 4 == 0 {
            checkpoint(&mut checker);
        }
    }
}

/// 4 000 simulated histories of 2–4 sessions of 2–5 transactions over 2–4
/// keys (stale-snapshot and lost-update stores as well as SI, so about a
/// fifth violate), each streamed in four random orders: every last
/// checkpoint has the engine's verdict, and every first terminal one the
/// engine's whole outcome on its prefix (about two seconds in a release
/// build).
#[test]
#[ignore]
fn random_deliveries_of_simulated_histories() {
    let opts = EngineOptions::default();
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..4_000u64 {
        let store =
            [Store::StaleSnapshot, Store::NoWriteConflictDetection, Store::SnapshotIsolation]
                [seed as usize % 3];
        let params = GeneralParams {
            sessions: 2 + (seed % 3) as usize,
            txns_per_session: 2 + (seed / 3 % 4) as usize,
            ops_per_txn: 1 + (seed / 7 % 4) as usize,
            keys: 2 + seed / 11 % 3,
            read_pct: 50,
            dist: KeyDistribution::Uniform,
            seed,
        };
        let h = run(&generate(&params), &SimConfig::new(store, seed)).history;
        let engine = check(&h, IsolationLevel::Si, &opts).accepted();
        for order in 0..4 {
            let stream = stream_accepts_in_random_order(&h, seed * 31 + order);
            assert_eq!(stream, engine, "seed {seed} order {order}: {h:?}");
        }
        (accepted, rejected) =
            if engine { (accepted + 1, rejected) } else { (accepted, rejected + 1) };
    }
    assert!(accepted > 2_000 && rejected > 500, "{accepted} accepted, {rejected} rejected");
}
