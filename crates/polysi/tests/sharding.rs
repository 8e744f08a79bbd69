//! Sharded checking must be invisible in verdicts: `Sharding::Auto` and
//! `Sharding::Off` agree on proptest-generated multi-component histories,
//! for both isolation levels, including histories that force the
//! cross-shard fallback path. On the corpus the pair is the unsharded row
//! of the mode matrix.

use polysi::checker::engine::{check, EngineOptions, IsolationLevel, Sharding};
use polysi::checker::{Outcome, ShardFallback};
use polysi::history::{History, HistoryBuilder, Key, Value};
use polysi_obs::json::Value as Json;
use proptest::prelude::*;
use support::Proj;

mod support;

fn auto() -> EngineOptions {
    EngineOptions { sharding: Sharding::Auto, interpret: false, ..Default::default() }
}

fn off() -> EngineOptions {
    EngineOptions { sharding: Sharding::Off, interpret: false, ..Default::default() }
}

/// The unsharded row of the mode matrix: `Sharding::Off` reaches the
/// verdict class of sharded plain batch, under SI and SER, on every history
/// of the matrix corpus — and some of them really split.
#[test]
fn sharded_verdicts_match_whole_history_on_conformance_corpus() {
    let mut sharded_runs = 0usize;
    support::check_modes(&["batch unsharded"], |_, _, runs| {
        let batch = support::run_of(runs, "batch").trail[0].view(Proj::Exact);
        let components = batch.get("shards").and_then(|s| s.get("components"));
        sharded_runs += (components.and_then(Json::as_u64) >= Some(2)) as usize;
    });
    assert!(sharded_runs > 0, "no corpus case exercised multi-component checking");
}

/// A compact random multi-component history description: up to three
/// groups of sessions, each group confined to its own key range. Reads
/// pick from values written anywhere to the key so far — including values
/// that make the history inconsistent (a write an aborted transaction made,
/// or one its writer overwrote); that is the point.
#[derive(Debug, Clone)]
struct MultiSpec {
    #[allow(clippy::type_complexity)]
    groups: Vec<Vec<Vec<Vec<(bool, u64, u64)>>>>, // group→session→txn→(is_read, key, choice)
    /// Per group→session→txn, in generation order: whether it aborts.
    aborts: Vec<bool>,
}

const KEYS_PER_GROUP: u64 = 3;

fn spec_strategy() -> impl Strategy<Value = MultiSpec> {
    let op = (any::<bool>(), 0u64..KEYS_PER_GROUP, 0u64..5);
    let txn = prop::collection::vec(op, 1..4);
    let session = prop::collection::vec(txn, 1..3);
    let group = prop::collection::vec(session, 1..3);
    // One transaction in six aborts.
    let aborts = prop::collection::vec((0u8..6).prop_map(|d| d == 0), 24);
    (prop::collection::vec(group, 1..4), aborts)
        .prop_map(|(groups, aborts)| MultiSpec { groups, aborts })
}

/// Instantiate a spec: group `g` owns keys `g*KEYS_PER_GROUP ..`, written
/// values are globally unique, and each read's `choice` indexes the values
/// written to the key so far in generation order (or the initial value).
fn build(spec: &MultiSpec) -> History {
    let nkeys = (spec.groups.len() as u64) * KEYS_PER_GROUP;
    let mut written: Vec<Vec<u64>> = vec![vec![0]; nkeys as usize];
    let mut counter = 1u64;
    // Pre-pass: assign unique values to writes, in generation order.
    let mut assigned: Vec<Vec<Vec<Vec<u64>>>> = Vec::new();
    for (gi, group) in spec.groups.iter().enumerate() {
        let mut gv = Vec::new();
        for sess in group {
            let mut sv = Vec::new();
            for txn in sess {
                let mut tv = Vec::new();
                for &(is_read, key, _) in txn {
                    let key = gi as u64 * KEYS_PER_GROUP + key;
                    if is_read {
                        tv.push(0);
                    } else {
                        written[key as usize].push(counter);
                        tv.push(counter);
                        counter += 1;
                    }
                }
                sv.push(tv);
            }
            gv.push(sv);
        }
        assigned.push(gv);
    }
    let mut aborts = spec.aborts.iter().copied().cycle();
    let mut b = HistoryBuilder::new();
    for (gi, group) in spec.groups.iter().enumerate() {
        for (si, sess) in group.iter().enumerate() {
            b.session();
            for (ti, txn) in sess.iter().enumerate() {
                b.begin();
                for (oi, &(is_read, key, choice)) in txn.iter().enumerate() {
                    let key = gi as u64 * KEYS_PER_GROUP + key;
                    if is_read {
                        let pool = &written[key as usize];
                        b.read(Key(key), Value(pool[(choice as usize) % pool.len()]));
                    } else {
                        b.write(Key(key), Value(assigned[gi][si][ti][oi]));
                    }
                }
                if aborts.next() == Some(true) {
                    b.abort();
                } else {
                    b.commit();
                }
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sharded_verdict_equals_whole_history_verdict(spec in spec_strategy()) {
        let h = build(&spec);
        for isolation in [IsolationLevel::Si, IsolationLevel::Ser] {
            let a = check(&h, isolation, &auto());
            let b = check(&h, isolation, &off());
            prop_assert_eq!(
                a.accepted(),
                b.accepted(),
                "sharding changed the {} verdict on {:?}",
                isolation.name(),
                h
            );
            // Each component's axiom violations merge into the list the
            // whole history's analysis gives, element for element.
            if let Outcome::AxiomViolations(sharded) = &a.outcome {
                let Outcome::AxiomViolations(whole) = &b.outcome else {
                    panic!("only the sharded check failed an axiom")
                };
                prop_assert_eq!(sharded, whole, "{}", isolation.name());
            }
            // When the graph stages ran, the partition is recorded, and it
            // is at least as fine as the key-disjoint groups (a group's
            // sessions may split further). (An axiom failure reports no
            // partition.)
            match a.shard_stats {
                Some(stats) => prop_assert!(
                    stats.components >= spec.groups.len(),
                    "only {} components for {} key-disjoint groups",
                    stats.components,
                    spec.groups.len()
                ),
                None => prop_assert!(matches!(a.outcome, Outcome::AxiomViolations(_))),
            }
        }
    }
}

/// Forcing the cross-shard fallback: key groups are disjoint but one
/// session bridges them, so the engine must check the whole history — and
/// still agree with `Sharding::Off`.
#[test]
fn cross_shard_fallback_path_is_taken_and_agrees() {
    // The bridging session reads stale values of both groups; the second
    // group hides a lost update so the verdict is a rejection.
    let mut b = HistoryBuilder::new();
    b.session();
    b.begin().write(Key(1), Value(1)).commit();
    b.session();
    b.begin().write(Key(10), Value(100)).commit();
    b.session();
    b.begin().read(Key(10), Value(100)).write(Key(10), Value(101)).commit();
    b.session();
    b.begin().read(Key(10), Value(100)).write(Key(10), Value(102)).commit();
    // Bridge: one session, two single-group transactions.
    b.session();
    b.begin().read(Key(1), Value(1)).commit();
    b.begin().read(Key(10), Value(100)).commit();
    let h = b.build();

    let a = check(&h, IsolationLevel::Si, &auto());
    let stats = a.shard_stats.expect("auto records stats");
    assert_eq!(stats.components, 1, "the bridge must merge the components");
    assert!(stats.key_components >= 2);
    assert_eq!(stats.fallback, Some(ShardFallback::CrossShardSessions));
    assert_eq!(a.accepted(), check(&h, IsolationLevel::Si, &off()).accepted());
    assert!(!a.accepted(), "the lost update must still be caught on the fallback path");
}
