//! Soak: an unbounded stream checked at bounded memory.
//!
//! Waves of fresh sessions write fresh values over a fixed key working set
//! through a compacting `StreamingChecker`: the head of a wave reads the
//! previous wave's final version of each key before overwriting it (which
//! orients the cross-wave version order and lets the settled prefix drop),
//! then the wave seals its sessions and checkpoints. Every checkpoint
//! therefore finds the previous wave settled. The same shape as the
//! benchmark's `stream_soak` workload, which carries the timings; this is
//! its deterministic half. Installs the counting allocator, hence its own
//! test binary.

use polysi_bench::CountingAllocator;
use polysi_checker::engine::{check, CompactMode, EngineOptions, IsolationLevel};
use polysi_checker::StreamingChecker;
use polysi_history::{Key, Op, TxnStatus, Value};
use std::collections::HashMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Sessions per wave; each owns a fixed disjoint slice of the key space.
const SLOTS: usize = 8;
/// Keys owned by each slot (stable across waves — keys are reused forever).
const KEYS_PER_SLOT: usize = 4;
/// Transactions each session pushes before its wave seals.
const TXNS_PER_SESSION: usize = 32;
const WAVE_TXNS: usize = SLOTS * TXNS_PER_SESSION;
const WAVES: usize = 96;
/// Batch re-check of the compacted snapshot every this many waves.
const EQUIV_EVERY: usize = 32;

fn key_of(slot: usize, i: usize) -> Key {
    Key(1 + (slot * KEYS_PER_SLOT + i) as u64)
}

#[test]
fn a_sealed_wave_stream_is_checked_at_bounded_memory() {
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts);
    let mut last_val: HashMap<Key, Value> = HashMap::new();
    let mut next_val = 1u64;
    let (mut pushed, mut compacted) = (0usize, 0usize);
    let mut live_bytes_by_wave = Vec::with_capacity(WAVES);
    for wave in 0..WAVES {
        let sessions: Vec<_> = (0..SLOTS).map(|_| checker.session()).collect();
        for t in 0..TXNS_PER_SESSION {
            for (slot, &session) in sessions.iter().enumerate() {
                let key = key_of(slot, t % KEYS_PER_SLOT);
                // First write to this key this wave: read the previous
                // wave's final version, so the old wave settles. Later, an
                // occasional cross-slot read of a current-wave value keeps
                // the slots one component without pinning history.
                let read = if t < KEYS_PER_SLOT {
                    Some(key)
                } else {
                    (t % 8 == 3).then(|| key_of((slot + 1) % SLOTS, t % KEYS_PER_SLOT))
                };
                let mut ops = Vec::with_capacity(2);
                if let Some((key, &value)) = read.and_then(|k| last_val.get_key_value(&k)) {
                    ops.push(Op::Read { key: *key, value });
                }
                let value = Value(next_val);
                next_val += 1;
                ops.push(Op::Write { key, value });
                checker.push_transaction(session, ops, TxnStatus::Committed);
                last_val.insert(key, value);
                pushed += 1;
            }
        }
        for &s in &sessions {
            checker.seal_session(s);
        }

        let cp = checker.checkpoint();
        assert!(cp.verdict.accepted(), "wave {wave}: {:?}", cp.verdict);
        assert_eq!(cp.txns, pushed, "wave {wave}: monotone txn counter drifted");
        compacted += cp.compacted;
        // Bounded frontier: two waves plus the retained boundary facts,
        // however long the stream runs.
        assert!(cp.live_txns <= 2 * WAVE_TXNS + 64, "wave {wave}: {} live txns", cp.live_txns);
        live_bytes_by_wave.push(CountingAllocator::current());

        if wave % EQUIV_EVERY == EQUIV_EVERY - 1 {
            let (snapshot, _) = checker.stream().snapshot();
            let report = check(&snapshot, IsolationLevel::Si, &opts);
            assert!(report.accepted(), "wave {wave}: batch disagrees on the compacted snapshot");
        }
    }
    // Flat, not merely bounded: between the half mark and the final wave
    // the footprint may grow by what a wave must leave behind for good —
    // its 256 dropped values, gap-encoded at about a byte each, and eight
    // retired sessions' seal bits and union–find nodes — plus `Vec`
    // doubling steps. Keeping every settled session's transaction list and
    // the dropped values in hash sets grew it by 4.5 KiB per wave.
    let (half, last) = (WAVES / 2, WAVES - 1);
    let (at_half, at_last) = (live_bytes_by_wave[half], live_bytes_by_wave[last]);
    let slope = (at_last as f64 - at_half as f64) / (last - half) as f64;
    println!("live bytes: {at_half} at wave {half}, {at_last} at wave {last}: {slope:.0} B/wave");
    assert!(slope <= 1536.0, "live bytes grow {slope:.0} B per wave ({at_half} → {at_last})");
    assert!(compacted * 2 >= pushed, "compaction dropped {compacted} of {pushed} txns");
}
