//! Probe: duplicate write of a compacted-away value must reject under
//! compaction exactly as without it.
//!
//! This was the known gap of the first watermark GC: compaction dropped
//! settled writers, and with them the value evidence the duplicate-write
//! axiom needs — `CompactMode::Off` rejected the re-write of `(key 1,
//! value 10)` below while `On` silently accepted it. Closed by the per-key
//! fence record (`StreamFacts::fences`, a gap-encoded `KeyFence` per key):
//! a committed re-write of a compacted value is now a terminal
//! `AxiomViolation::CompactedDuplicateWrite`, so both modes agree at every
//! checkpoint — wherever the value sits in the record.
use polysi::checker::engine::{CompactMode, EngineOptions, IsolationLevel};
use polysi::checker::StreamingChecker;
use polysi::history::{Key, Op, TxnStatus, Value};

fn w(k: u64, v: u64) -> Op {
    Op::Write { key: Key(k), value: Value(v) }
}
fn r(k: u64, v: u64) -> Op {
    Op::Read { key: Key(k), value: Value(v) }
}

/// `writes` blind writes of `10, 20, …` to key 1 on one sealed session and
/// a checkpoint (where a compacting run drops all but the last writer),
/// then a committed write of `value` to key 1 on a fresh session and a read
/// that resolves to it, checkpointing after each. Returns the verdicts and
/// how many values the key's fence record holds at the end.
fn run(mode: CompactMode, writes: u64, value: u64) -> (Vec<bool>, usize) {
    let opts = EngineOptions { compact: mode, ..EngineOptions::default() };
    let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
    let s0 = c.session();
    for i in 1..=writes {
        c.push_transaction(s0, vec![w(1, 10 * i)], TxnStatus::Committed);
    }
    c.seal_session(s0);
    let mut verdicts = vec![c.checkpoint().verdict.accepted()];
    let s1 = c.session();
    c.push_transaction(s1, vec![w(1, value)], TxnStatus::Committed);
    verdicts.push(c.checkpoint().verdict.accepted());
    c.push_transaction(s1, vec![r(1, value)], TxnStatus::Committed);
    verdicts.push(c.checkpoint().verdict.accepted());
    let fenced = c.stream().facts().fences().get(Key(1)).map_or(0, |f| f.len());
    (verdicts, fenced)
}

#[test]
fn dup_write_probe() {
    // `(writes, value, accepted)`. Three writes: the re-write of the first
    // (compacted) value. 150 writes leave 149 dropped values, in three
    // blocks of the fence record with heads 10, 650 and 1 290: re-writes
    // of the first value, of a block head, of a value inside a block below
    // the key's maximum, of the largest dropped value and of the live final
    // writer's value all reject; a fresh value between two dropped ones is
    // accepted by both modes.
    let cases = [
        (3, 10, false),
        (150, 10, false),
        (150, 650, false),
        (150, 700, false),
        (150, 1490, false),
        (150, 1500, false),
        (150, 655, true),
    ];
    for (writes, value, accepted) in cases {
        let (off, _) = run(CompactMode::Off, writes, value);
        let (on, fenced) = run(CompactMode::On, writes, value);
        println!("{writes} writes, re-write of {value}: off={off:?} on={on:?}");
        assert_eq!(off, on, "compacted run diverges from uncompacted on a write of {value}");
        assert_eq!(on, [true, accepted, accepted], "write of {value}");
        assert_eq!(fenced, writes as usize - 1, "the compacting run must drop the settled writers");
    }
}
