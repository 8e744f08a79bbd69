//! Observability contract tests: counter digests, well-nested span trees
//! and machine-readable reports.
//!
//! * **Counter digest** — the sharded prune-thread rows of the mode matrix
//!   keep `Metrics::counter_digest` equal to plain batch, on a corpus that
//!   moves the reduced known graph and the solver.
//! * **One clock** — every stage time of a report is the sum of its spans'
//!   durations and every checkpoint's `elapsed` its span's.
//! * **One thread budget** — the `check` span records how the budget split
//!   into shard workers and sweep threads.
//! * **One table** — the README's metrics table names exactly what the
//!   registry holds after a batch, a stream and a live run.
//! * **Span coverage** — a traced batch check on the solver-stress
//!   fixture produces one well-nested `check` root covering ≥95% of the
//!   measured wall time, with the pipeline stages as ordered children.
//! * **Checkpoint attribution** — a delta checkpoint's `component` span
//!   is covered by its `delta.*` phase children and `compact` by its
//!   `compact.*` / `history.compact` ones, so the online path's ledger can
//!   be read from `--trace-out`; a disabled tracer records nothing.
//! * **Report schema** — the CLI's `--report json` output (batch, stream,
//!   live, stats) round-trips through the in-repo strict JSON parser and
//!   carries the documented top-level keys; `--trace-out` emits valid
//!   Chrome trace-event JSON.

use polysi::checker::engine::{CheckEngine, CompactMode, EngineOptions, IsolationLevel, Sharding};
use polysi::checker::{CheckpointReport, LiveConfig, LiveService, StreamingChecker};
use polysi::history::History;
use polysi::polygraph::{ConstraintMode, Edge, Polygraph};
use polysi_obs::json::{parse, Value};
use polysi_obs::span::{span_forest, AttrValue, SpanNode};
use polysi_obs::{Metrics, Obs};
use std::collections::BTreeSet;
use std::process::Command;
use support::{fixture, fixture_path};

mod support;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polysi"))
}

#[test]
fn counter_digest_is_thread_count_invariant() {
    let (mut implied, mut decisions) = (0u64, 0u64);
    support::check_modes(&["prune 1", "prune 4"], |_, _, runs| {
        let batch = support::run_of(runs, "batch");
        implied += batch.counter("prune.implied_edges");
        decisions += batch.counter("solver.decisions");
    });
    // The digest covers `prune.implied_edges` and `solver.*` only if the
    // corpus makes them move: the reduced known graph must have absorbed
    // something, and the solver must have searched.
    assert!(implied > 0, "corpus never exercised the reduced known graph");
    assert!(decisions > 0, "corpus never made the solver decide");
}

#[test]
fn spans_cover_the_check_and_nest_the_stages() {
    let h = fixture("solver_stress_clique.txt");
    // Scheduler noise outside the engine can only *inflate* the measured
    // wall (the run is a few hundred µs), so take the best of a few
    // attempts before judging coverage.
    let mut best = None;
    for attempt in 0..5 {
        let obs = Obs::enabled();
        let opts = EngineOptions { sharding: Sharding::Off, ..Default::default() };
        let t0 = std::time::Instant::now();
        CheckEngine::new(IsolationLevel::Si, opts).with_obs(obs.clone()).check(&h);
        let wall_us = t0.elapsed().as_micros() as u64;
        let covered = {
            let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
            let root = forest.iter().find(|n| n.name == "check").expect("check root");
            root.duration_us() * 100 >= wall_us.saturating_mul(95)
        };
        best = Some((obs, wall_us));
        if covered || attempt == 4 {
            break;
        }
    }
    let (obs, wall_us) = best.unwrap();

    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let roots: Vec<_> = forest.iter().filter(|n| n.name == "check").collect();
    assert_eq!(roots.len(), 1, "exactly one check root span");
    let root = roots[0];
    assert!(
        root.duration_us() * 100 >= wall_us.saturating_mul(95),
        "check span covers {}us of {}us wall (<95%)",
        root.duration_us(),
        wall_us
    );

    // The pipeline stages appear as children of the root, in order.
    let stage_names: Vec<&str> = root
        .children
        .iter()
        .map(|c| c.name)
        .filter(|n| ["axioms", "construct", "prune", "encode", "solve"].contains(n))
        .collect();
    assert_eq!(
        stage_names,
        ["axioms", "construct", "prune", "encode", "solve"],
        "stages must run once each, in pipeline order"
    );
    // Stage intervals sit inside the root (well-nested by construction,
    // but assert the containment the trace viewer depends on).
    for c in &root.children {
        assert!(c.start_us >= root.start_us && c.end_us <= root.end_us, "{} escapes root", c.name);
    }
}

/// A traced, uninterpreted check with the default options: the report, the
/// attribute lookup of the first span called `span`, and the registry.
fn traced_check(
    h: &History,
    level: IsolationLevel,
    span: &str,
) -> (polysi::checker::CheckReport, impl Fn(&str) -> Option<AttrValue>, Obs) {
    fn find<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
        nodes.iter().find_map(|n| if n.name == name { Some(n) } else { find(&n.children, name) })
    }
    let obs = Obs::enabled();
    let opts = EngineOptions { interpret: false, ..Default::default() };
    let report = CheckEngine::new(level, opts).with_obs(obs.clone()).check(h);
    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let attrs = find(&forest, span).unwrap_or_else(|| panic!("no {span} span")).attrs.clone();
    let attr = move |key: &str| attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
    (report, attr, obs)
}

/// The solver's one automatic decision explains itself: a `sat.solve` span
/// says how many literals the theory implied, at which conflict the first
/// restart opened theory propagation (absent when it never did) and whether
/// a granted work budget ran dry, and the registry carries the totals.
#[test]
fn sat_solve_span_explains_the_propagation_gate() {
    let traced = |h: &History, level: IsolationLevel| {
        let (report, attr, obs) = traced_check(h, level, "sat.solve");
        (report, attr, move |name: &str| obs.metrics.counter(name).total())
    };

    // 999 cells at SER: 100 conflicts to the first restart, then the theory
    // implies its way round the ring.
    let lattice = polysi::dbsim::corpus::write_skew_lattice(1, 999);
    let (report, attr, counter) = traced(&lattice, IsolationLevel::Ser);
    let stats = report.solver_stats.expect("decided by the solver");
    assert!(!report.accepted() && stats.theory_propagations > 0, "{stats:?}");
    assert_eq!(attr("theory_propagations"), Some(AttrValue::U64(stats.theory_propagations)));
    assert_eq!(attr("eager_from_conflict"), Some(AttrValue::U64(100)));
    assert_eq!(attr("budget_exhausted"), Some(AttrValue::Bool(false)));
    assert_eq!(counter("solver.theory_propagations"), stats.theory_propagations);
    assert_eq!(counter("solver.theory_visits"), stats.theory_visits);
    assert!(stats.theory_visits > 0);

    // A corpus accept decided by the solver long before any restart.
    let clique = fixture("solver_stress_clique.txt");
    let (report, attr, counter) = traced(&clique, IsolationLevel::Si);
    assert!(report.accepted() && report.solver_stats.is_some_and(|s| s.conflicts > 0));
    assert_eq!(attr("theory_propagations"), Some(AttrValue::U64(0)));
    assert_eq!(attr("eager_from_conflict"), None);
    assert_eq!(attr("budget_exhausted"), Some(AttrValue::Bool(false)));
    assert_eq!(counter("solver.theory_propagations") + counter("solver.theory_visits"), 0);
}

/// The one decision nobody can pin any more explains itself: the `prune`
/// span names the closure store `KnownGraph::build` picked with the two
/// inputs of the rule (n ≥ 1024 and 32·chains ≤ n → chains), the bytes it
/// holds and the bytes of the layered index it queries, and the report
/// counts the stores per pipeline unit.
#[test]
fn prune_span_says_which_oracle_the_rule_picked() {
    use polysi::checker::OracleCounts;
    let traced = |h: &History, level: IsolationLevel| {
        let (report, attr, _) = traced_check(h, level, "prune");
        let bytes = (attr("bytes"), attr("graph_bytes"));
        (report.oracles, attr("oracle"), attr("n"), attr("chains"), bytes)
    };
    // One `n`-bit closure row per theory-graph node, in 64-bit words.
    let rows = |nodes: usize, n: usize| AttrValue::U64((nodes * n.div_ceil(64) * 8) as u64);
    let (dense, chains) = (AttrValue::Str("dense".into()), AttrValue::Str("chains".into()));

    // The paper-default general history: 20 sessions × 500 transactions.
    let plan = polysi::workloads::generate(&polysi::workloads::GeneralParams {
        txns_per_session: 500,
        ..Default::default()
    });
    let config = polysi::dbsim::SimConfig::new(polysi::dbsim::IsolationLevel::SnapshotIsolation, 7);
    let general = polysi::dbsim::run(&plan, &config).history;
    let (oracles, oracle, n, sessions, _) = traced(&general, IsolationLevel::Si);
    assert_eq!(oracles, OracleCounts { dense: 0, chains: 1 });
    assert_eq!((oracle, n), (Some(chains), Some(AttrValue::U64(general.len() as u64))));
    assert!(matches!(sessions, Some(AttrValue::U64(c)) if c * 32 <= general.len() as u64));

    // The 999-cell lattice: big enough, but session-poor — the row that
    // keeps the dense store. Under SER it is one layer with no `Dep` index:
    // n rows of closure.
    let lattice = polysi::dbsim::corpus::write_skew_lattice(1, 999);
    let (oracles, oracle, n, sessions, (bytes, _)) = traced(&lattice, IsolationLevel::Ser);
    assert_eq!(oracles, OracleCounts { dense: 1, chains: 0 });
    assert_eq!((oracle, n), (Some(dense.clone()), Some(AttrValue::U64(lattice.len() as u64))));
    assert!(lattice.len() >= 1024);
    assert!(matches!(sessions, Some(AttrValue::U64(c)) if c * 32 > lattice.len() as u64));
    assert_eq!(bytes, Some(rows(lattice.len(), lattice.len())));

    // A corpus accept: small, so dense whatever its sessions. Under SI the
    // store is 2n closure rows (boundary and mid) plus the n-row `Dep` index.
    let clique = fixture("solver_stress_clique.txt");
    let (oracles, oracle, n, _, (bytes, graph_bytes)) = traced(&clique, IsolationLevel::Si);
    assert_eq!((oracles, oracle), (OracleCounts { dense: 1, chains: 0 }, Some(dense)));
    let Some(AttrValue::U64(n)) = n else { panic!("prune.n is {n:?}") };
    assert_eq!(n as usize, clique.len(), "one unit");
    assert_eq!(bytes, Some(rows(3 * n as usize, n as usize)));
    // The layered index, as its layout implies: an offset per layered node
    // (2n of them, plus an end) for the adjacency and for its reverse, an
    // 8-byte entry and a 4-byte reverse entry per layered image (two for a
    // `Dep` edge, one for an `RW` edge) and the 24-byte edges the entries
    // index. All four constraints survive pruning, so the edges are those
    // construction knows and no insertion is pending a fold.
    let facts = polysi::history::Facts::analyze(&clique);
    let known = Polygraph::from_history(&clique, &facts, ConstraintMode::Generalized).known;
    let images: usize = known.iter().map(|e| if e.label.is_dep() { 2 } else { 1 }).sum();
    let offsets = 2 * 4 * (2 * clique.len() + 1);
    let index = offsets + 12 * images + std::mem::size_of::<Edge>() * known.len();
    assert_eq!(graph_bytes, Some(AttrValue::U64(index as u64)));
}

/// A rejection's classification and interpretation are a span of their
/// own under `check`, which an accept does not open.
#[test]
fn a_rejection_traces_its_interpretation() {
    let interpreted = |name: &str| {
        let obs = Obs::enabled();
        let report = CheckEngine::new(IsolationLevel::Si, EngineOptions::default())
            .with_obs(obs.clone())
            .check(&fixture(name));
        let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
        let root = forest.iter().find(|n| n.name == "check").expect("check root");
        let under_check = root.children.iter().filter(|c| c.name == "interpret").count();
        let anywhere = all_spans(&forest).iter().filter(|n| n.name == "interpret").count();
        (report.accepted(), under_check, anywhere)
    };
    assert_eq!(interpreted("long_fork.txt"), (false, 1, 1));
    assert_eq!(interpreted("solver_stress_clique.txt"), (true, 0, 0));
}

/// A sharded check plans first and analyses per component: `shard.plan`
/// opens before any `shard` with the partition's shape, and each `shard`
/// runs one `axioms` span on its own component, which together cover the
/// history's transactions, operations and keys once. `check.axioms_us`
/// records one sample per unit and `constructing` is the `axioms` plus
/// `construct` spans.
#[test]
fn axioms_and_shard_plan_are_traced_and_timed() {
    let us = |d: std::time::Duration| d.as_nanos() as f64 / 1e3;
    let h = fixture("shard_disjoint_components.txt");
    let obs = Obs::enabled();
    let report = CheckEngine::new(IsolationLevel::Si, EngineOptions::default())
        .with_obs(obs.clone())
        .check(&h);
    let stats = report.shard_stats.expect("sharding is on by default");
    assert!(stats.components >= 2, "fixture no longer shards");

    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let root = forest.iter().find(|n| n.name == "check").expect("check root");
    let u64_attr = |node: &SpanNode, key: &str| {
        node.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
            AttrValue::U64(n) => *n,
            other => panic!("{}.{key} is {other:?}", node.name),
        })
    };
    assert_eq!(root.children.first().map(|c| c.name), Some("shard.plan"));
    let plan = &root.children[0];
    assert!(root.children.iter().all(|c| c.name != "axioms"), "no whole-history axioms");
    let keys = u64_attr(plan, "keys").expect("shard.plan.keys");
    assert!(keys >= 2);
    assert_eq!(u64_attr(plan, "components"), Some(stats.components as u64));
    assert_eq!(u64_attr(plan, "largest"), Some(stats.largest as u64));

    let spans = all_spans(&forest);
    let shards: Vec<_> = spans.iter().filter(|n| n.name == "shard").collect();
    assert_eq!(shards.len(), stats.components);
    let (mut txns, mut ops, mut shard_keys) = (0, 0, 0);
    for shard in &shards {
        assert!(shard.start_us >= plan.end_us, "a shard opened before the plan closed");
        let axioms: Vec<_> = shard.children.iter().filter(|c| c.name == "axioms").collect();
        assert_eq!(axioms.len(), 1, "one axioms span per shard");
        assert_eq!(u64_attr(axioms[0], "txns"), u64_attr(shard, "txns"));
        txns += u64_attr(axioms[0], "txns").expect("axioms.txns");
        ops += u64_attr(axioms[0], "ops").expect("axioms.ops");
        shard_keys += u64_attr(axioms[0], "keys").expect("axioms.keys");
    }
    assert_eq!((txns, ops, shard_keys), (h.len() as u64, h.num_ops() as u64, keys));

    let snapshot = obs.metrics.snapshot();
    let count = |name: &str| snapshot.histograms.iter().find(|h| h.name == name).map(|h| h.count);
    assert_eq!(count("check.axioms_us"), Some(stats.components as u64), "one per unit");
    for name in ["check.shard_plan_us", "check.construct_us"] {
        assert_eq!(count(name), Some(1), "{name}");
    }
    // The plan's time is its own: `constructing` means axioms plus
    // polygraph construction, summed over the shards.
    let of: Vec<_> = spans.iter().filter(|n| ["axioms", "construct"].contains(&n.name)).collect();
    assert_eq!(of.len(), 2 * stats.components);
    let traced: u64 = of.iter().map(|n| n.duration_us()).sum();
    let diff = (us(report.timings.constructing) - traced as f64).abs();
    assert!(diff <= of.len() as f64, "{:?} vs {traced} µs", report.timings.constructing);

    // Unsharded, the one unit's axioms sit under `check`, over the history.
    let unsharded = EngineOptions { sharding: Sharding::Off, ..Default::default() };
    let obs = Obs::enabled();
    CheckEngine::new(IsolationLevel::Si, unsharded).with_obs(obs.clone()).check(&h);
    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let spans = all_spans(&forest);
    assert!(spans.iter().all(|n| n.name != "shard.plan" && n.name != "shard"));
    let root = forest.iter().find(|n| n.name == "check").expect("check root");
    let axioms: Vec<_> = root.children.iter().filter(|c| c.name == "axioms").collect();
    assert_eq!(axioms.len(), 1);
    assert_eq!(u64_attr(axioms[0], "txns"), Some(h.len() as u64));
    assert_eq!(u64_attr(axioms[0], "keys"), Some(keys));
    let snapshot = obs.metrics.snapshot();
    assert!(snapshot.histograms.iter().all(|h| h.name != "check.shard_plan_us"));
    let axioms_us = snapshot.histograms.iter().find(|h| h.name == "check.axioms_us");
    assert_eq!(axioms_us.map(|h| h.count), Some(1));
}

/// One thread budget for the whole check: `Fixed(1)` makes a sharded
/// check sequential — every shard on one thread — and `Auto` runs
/// `min(cores, components)` shard workers, as the `check` span records;
/// every unit prunes on its worker's thread.
#[test]
fn one_budget_sizes_the_shard_workers() {
    use polysi::checker::engine::PruneThreads;
    use polysi::history::{HistoryBuilder, Key, Value};
    let mut b = HistoryBuilder::new();
    for key in (0..50).step_by(10).map(Key) {
        b.session();
        b.begin().write(key, Value(1)).commit();
        b.session();
        b.begin().read(key, Value(1)).write(key, Value(2)).commit();
    }
    let h = b.build();
    let run = |prune_threads| {
        let obs = Obs::enabled();
        let opts = EngineOptions { prune_threads, ..Default::default() };
        let report = CheckEngine::new(IsolationLevel::Si, opts).with_obs(obs.clone()).check(&h);
        assert_eq!(report.shard_stats.map(|s| s.components), Some(5));
        let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
        let check = forest.iter().find(|n| n.name == "check").expect("check root");
        let attr = |key: &str| check.attrs.iter().find(|(k, _)| *k == key).map(|a| a.1.clone());
        let shards: Vec<_> = forest.iter().filter(|n| n.name == "shard").collect();
        assert_eq!(shards.len(), 5, "every shard span is a worker's root");
        for shard in &shards {
            let axioms = shard.children.iter().filter(|c| c.name == "axioms").count();
            assert_eq!(axioms, 1, "each shard analyses its own component");
        }
        assert!(check.children.iter().all(|c| c.name != "axioms"));
        let tids: BTreeSet<u32> = shards.iter().map(|n| n.tid).collect();
        assert_eq!(attr("sweep_threads"), None, "no unit sweeps on threads of its own");
        for shard in &shards {
            let prunes: Vec<_> = shard.children.iter().filter(|c| c.name == "prune").collect();
            assert!(prunes.iter().all(|p| p.tid == shard.tid), "a unit prunes on its worker");
        }
        (attr("workers"), tids)
    };
    let u = |n: usize| Some(AttrValue::U64(n as u64));
    let (workers, tids) = run(PruneThreads::Fixed(1));
    assert_eq!((workers, tids.len()), (u(1), 1));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.min(5);
    let (w, tids) = run(PruneThreads::Auto);
    assert_eq!(w, u(workers));
    assert!(!tids.is_empty() && tids.len() <= workers, "{tids:?}");
}

/// Three checkpoints over a serial execution dealt to six sessions (every
/// read names the latest write, so every prefix is valid): five sessions
/// update twelve contended keys, the sixth overwrites a key of its own
/// blindly so that sealing lets compaction drop something. Returns the
/// verdicts.
fn three_checkpoint_stream(obs: Obs) -> Vec<bool> {
    use polysi::history::{Key, Op, TxnStatus, Value};
    let opts = EngineOptions { compact: CompactMode::On, ..Default::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts).with_obs(obs);
    let sessions: Vec<_> = (0..6).map(|_| checker.session()).collect();
    let mut latest = std::collections::HashMap::new();
    let mut verdicts = Vec::new();
    for j in 0..1500u64 {
        let s = (j % 6) as usize;
        let value = Value(j + 1);
        let ops = if s == 5 {
            vec![Op::Write { key: Key(100), value }]
        } else {
            let (key, other) = (Key((j / 6 + j) % 12), Key((j / 6 * 5 + j * 3) % 12));
            let read =
                |k: Key| Op::Read { key: k, value: latest.get(&k).copied().unwrap_or(Value(0)) };
            let ops = vec![read(key), read(other), Op::Write { key, value }];
            latest.insert(key, value);
            ops
        };
        checker.push_transaction(sessions[s], ops, TxnStatus::Committed);
        if (j + 1) % 500 == 0 {
            if j + 1 == 1500 {
                sessions.iter().for_each(|&s| checker.seal_session(s));
            }
            verdicts.push(checker.checkpoint().verdict.accepted());
        }
    }
    verdicts
}

#[test]
fn delta_checkpoints_are_attributed_to_their_phases() {
    const PHASES: [&str; 7] = [
        "delta.events",
        "delta.grow",
        "delta.insert",
        "delta.constraints",
        "delta.prune",
        "delta.encode",
        "delta.solve",
    ];
    let names =
        |n: &polysi_obs::span::SpanNode| n.children.iter().map(|c| c.name).collect::<Vec<_>>();
    // Coverage compares microsecond timestamps; scheduler noise between
    // two spans only lowers it, so judge the best of a few runs.
    let mut best = 0;
    for _ in 0..4 {
        let obs = Obs::enabled();
        assert_eq!(three_checkpoint_stream(obs.clone()), [true; 3]);
        let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
        let checkpoints: Vec<_> = forest.iter().filter(|n| n.name == "checkpoint").collect();
        assert_eq!(checkpoints.len(), 3);
        let (mut parents, mut covered) = (0, 0);
        let mut grows = Vec::new();
        for (i, cp) in checkpoints.iter().enumerate() {
            assert_eq!(cp.children.first().map(|c| c.name), Some("checkpoint.group"));
            let components: Vec<_> = cp.children.iter().filter(|c| c.name == "component").collect();
            assert_eq!(components.len(), 2, "checkpoint {}", i + 1);
            for comp in components {
                let rebuilt = comp.attrs.iter().any(|a| *a == ("rebuilt", true.into()));
                assert_eq!(rebuilt, i == 0, "only first sight rebuilds");
                if rebuilt {
                    assert_eq!(names(comp), ["construct", "prune", "encode", "solve"]);
                    continue;
                }
                assert_eq!(names(comp), PHASES, "checkpoint {}", i + 1);
                for c in &comp.children {
                    assert!(c.start_us >= comp.start_us && c.end_us <= comp.end_us, "{}", c.name);
                }
                grows.push(comp.children[1].attrs.clone());
                parents += comp.duration_us();
                covered += comp.children.iter().map(|c| c.duration_us()).sum::<u64>();
            }
            // Compaction: the selection always runs; the stream's own span
            // and the remap only when something is dropped (the sealed
            // third checkpoint).
            let compact = cp.children.last().expect("an accepted checkpoint compacts");
            assert_eq!(compact.name, "compact");
            if i < 2 {
                assert_eq!(names(compact), ["compact.select"]);
            } else {
                assert_eq!(names(compact), ["compact.select", "history.compact", "compact.remap"]);
                assert!(compact.attrs.iter().any(|(k, v)| *k == "dropped" && *v != 0u64.into()));
            }
        }
        // The first recorded `Auto` decisions: the five-session component
        // crosses 1 024 transactions at the third checkpoint and moves to
        // chains there; the one-session component stays dense.
        grows.sort_by_key(|attrs| format!("{attrs:?}"));
        let decision = |kind: &str, converted: bool| {
            vec![("kind", kind.into()), ("converted", converted.into())]
        };
        assert_eq!(
            grows,
            [
                decision("chains", true),
                decision("dense", false),
                decision("dense", false),
                decision("dense", false)
            ]
        );
        best = best.max(covered * 100 / parents.max(1));
        if best >= 90 {
            break;
        }
    }
    assert!(best >= 90, "delta.* spans cover only {best}% of their component spans");

    // Disabled tracing is a branch per span: nothing is recorded, nothing
    // changes.
    let obs = Obs::default();
    assert_eq!(three_checkpoint_stream(obs.clone()), [true; 3]);
    assert!(!obs.tracer.is_enabled() && obs.tracer.events().is_empty());
}

/// A soak-shaped stream, compacting: `waves` waves of eight fresh sessions
/// over a fixed set of 32 keys, each wave reading the previous one's final
/// versions, sealed and checkpointed. Returns the checkpoints.
fn retiring_stream(obs: Obs, waves: usize) -> Vec<CheckpointReport> {
    use polysi::history::{Key, Op, TxnStatus, Value};
    let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
    let mut checker = StreamingChecker::new(IsolationLevel::Si, opts).with_obs(obs);
    let key = |slot: u64, i: u64| Key(1 + slot * 4 + i % 4);
    let mut latest = std::collections::HashMap::new();
    let mut value = 0u64;
    let mut checkpoints = Vec::new();
    for _wave in 0..waves {
        let sessions: Vec<_> = (0..8).map(|_| checker.session()).collect();
        for t in 0..32u64 {
            for (slot, &s) in (0u64..).zip(&sessions) {
                let k = key(slot, t);
                let read =
                    if t < 4 { Some(k) } else { (t % 8 == 3).then(|| key((slot + 1) % 8, t)) };
                let mut ops: Vec<Op> = read
                    .and_then(|r| latest.get(&r).map(|&v| Op::Read { key: r, value: v }))
                    .into_iter()
                    .collect();
                value += 1;
                ops.push(Op::Write { key: k, value: Value(value) });
                latest.insert(k, Value(value));
                checker.push_transaction(s, ops, TxnStatus::Committed);
            }
        }
        sessions.iter().for_each(|&s| checker.seal_session(s));
        let cp = checker.checkpoint();
        assert!(cp.verdict.accepted());
        checkpoints.push(cp);
    }
    checkpoints
}

/// Compaction says what it freed. The soak-shaped stream retires every
/// session of the wave before, once settled: the `compact` span counts
/// them in `retired` (as the `compact.retired_sessions` counter does), and
/// its `evidence_bytes` — the heap of the duplicate-write evidence — grows
/// by less than 16 B per value dropped.
#[test]
fn compaction_reports_retired_sessions_and_evidence_bytes() {
    let obs = Obs::enabled();
    let dropped: Vec<u64> =
        retiring_stream(obs.clone(), 16).iter().map(|cp| cp.compacted as u64).collect();
    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let attr = |node: &SpanNode, key: &str| match node.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::U64(n))) => *n,
        other => panic!("{}.{key} is {other:?}", node.name),
    };
    let compacts: Vec<&SpanNode> = forest
        .iter()
        .filter(|n| n.name == "checkpoint")
        .map(|cp| cp.children.last().filter(|c| c.name == "compact").expect("compact span"))
        .collect();
    let retired: Vec<u64> = compacts.iter().map(|c| attr(c, "retired")).collect();
    let evidence: Vec<u64> = compacts.iter().map(|c| attr(c, "evidence_bytes")).collect();
    println!("dropped {dropped:?}\nretired {retired:?}\nevidence_bytes {evidence:?}");
    assert_eq!(retired[0], 0, "the first wave's final writers are still live");
    assert_eq!(retired[1..], [8; 15], "each checkpoint retires the wave before");
    assert_eq!(
        obs.metrics.counter("compact.retired_sessions").total(),
        retired.iter().sum::<u64>()
    );
    let growth = evidence[15] - evidence[0];
    let values: u64 = dropped[1..].iter().sum();
    assert!(values > 0 && growth < 16 * values, "{growth} B for {values} dropped values");
}

/// Every span below `nodes`, depth first.
fn all_spans(nodes: &[SpanNode]) -> Vec<&SpanNode> {
    nodes.iter().flat_map(|n| std::iter::once(n).chain(all_spans(&n.children))).collect()
}

/// One clock: a report's stage times are the sums of its spans' durations
/// — to within the microsecond each span's timestamps are truncated to —
/// sharded and not, on a fixture whose components reach Solve; and a
/// stream checkpoint's `elapsed` is its `checkpoint` span's.
#[test]
fn stage_timings_are_the_spans_durations() {
    let us = |d: std::time::Duration| d.as_nanos() as f64 / 1e3;
    let h = fixture("shard_component_lost_update.txt");
    for sharding in [Sharding::Auto, Sharding::Off] {
        let obs = Obs::enabled();
        let opts = EngineOptions { sharding, ..Default::default() };
        let report = CheckEngine::new(IsolationLevel::Si, opts).with_obs(obs.clone()).check(&h);
        assert!(report.solve_stats.is_some_and(|s| s.units > 0), "{sharding:?} skips Solve");
        let components = report.shard_stats.map_or(1, |s| s.components);
        assert_eq!(components > 1, sharding == Sharding::Auto, "{sharding:?}");
        let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
        let spans = all_spans(&forest);
        // One `axioms` span per unit: in each `shard`, or under `check`.
        let unit_span = if sharding == Sharding::Auto { "shard" } else { "check" };
        let units: Vec<_> = spans.iter().filter(|n| n.name == unit_span).collect();
        assert_eq!(units.len(), components, "{sharding:?}");
        for unit in &units {
            let axioms = unit.children.iter().filter(|c| c.name == "axioms").count();
            assert_eq!(axioms, 1, "{sharding:?} {}", unit.name);
        }
        let axioms = spans.iter().filter(|n| n.name == "axioms").count();
        assert_eq!(axioms, components, "{sharding:?}");
        let t = report.timings;
        for (took, names) in [
            (t.constructing, &["axioms", "construct"][..]),
            (t.pruning, &["prune"]),
            (t.encoding, &["encode"]),
            (t.solving, &["solve", "solve.witness"]),
        ] {
            let of: Vec<_> = spans.iter().filter(|n| names.contains(&n.name)).collect();
            let traced: u64 = of.iter().map(|n| n.duration_us()).sum();
            let (diff, bound) = ((us(took) - traced as f64).abs(), of.len() as f64);
            assert!(diff <= bound, "{sharding:?} {names:?}: {took:?} vs {traced} µs");
        }
    }

    let obs = Obs::enabled();
    let checkpoints = retiring_stream(obs.clone(), 3);
    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let spans: Vec<_> = forest.iter().filter(|n| n.name == "checkpoint").collect();
    assert_eq!(spans.len(), checkpoints.len());
    for (cp, span) in checkpoints.iter().zip(spans) {
        let diff = (us(cp.elapsed) - span.duration_us() as f64).abs();
        assert!(
            diff <= 1.0,
            "checkpoint {}: {:?} vs {} µs",
            cp.seq,
            cp.elapsed,
            span.duration_us()
        );
    }
}

/// The README's metrics table is the registry's: every name that a batch
/// check (sharded, an SER rejection by the solver, an axiom rejection), a
/// compacting stream that retires sessions and a live run register is in
/// the table with its kind, and every name in the table is registered by
/// one of them or marked "on first use".
#[test]
fn readme_metrics_table_names_every_registered_metric() {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README");
    let mut table: BTreeSet<(String, String)> = BTreeSet::new();
    let mut first_use: BTreeSet<String> = BTreeSet::new();
    let rows = readme.lines().skip_while(|l| !l.starts_with("| metric")).skip(2);
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let (name, kind) = (cells[1].trim_matches('`'), cells[2]);
        let names: Vec<String> = match name.split_once('{') {
            None => vec![name.to_string()],
            Some((prefix, rest)) => {
                let (alternatives, suffix) = rest.split_once('}').expect("closing brace");
                alternatives.split(',').map(|a| format!("{prefix}{a}{suffix}")).collect()
            }
        };
        for name in names {
            if cells[3].contains("on first use") {
                first_use.insert(name.clone());
            }
            table.insert((name, kind.to_string()));
        }
    }
    assert!(table.len() > 40, "the README metrics table is gone: {table:?}");

    let names = |m: &Metrics| -> BTreeSet<(String, String)> {
        let snap = m.snapshot();
        let counters = snap.counters.into_iter().map(|(n, _)| (n, "counter".to_string()));
        let gauges = snap.gauges.into_iter().map(|(n, _)| (n, "gauge".to_string()));
        let histograms = snap.histograms.into_iter().map(|h| (h.name, "histogram".to_string()));
        counters.chain(gauges).chain(histograms).collect()
    };
    let mut registered = BTreeSet::new();
    let obs = Obs::default();
    let si = CheckEngine::new(IsolationLevel::Si, EngineOptions::default()).with_obs(obs.clone());
    let sharded = si.check(&fixture("shard_disjoint_components.txt")).shard_stats;
    assert!(sharded.is_some_and(|s| s.fallback.is_none() && s.components > 1));
    assert!(!si.check(&fixture("aborted_read.txt")).accepted());
    let ser = CheckEngine::new(IsolationLevel::Ser, EngineOptions::default()).with_obs(obs.clone());
    let lattice = ser.check(&fixture("solver_stress_lattice.txt"));
    assert!(!lattice.accepted() && lattice.solver_stats.is_some());
    registered.extend(names(&obs.metrics));

    let obs = Obs::default();
    retiring_stream(obs.clone(), 3);
    registered.extend(names(&obs.metrics));
    let retired = ("compact.retired_sessions".to_string(), "counter".to_string());
    assert!(registered.contains(&retired), "the stream must retire sessions");

    let obs = Obs::default();
    let h = fixture("serializable.txt");
    let (service, clients) = LiveService::spawn_with_obs(
        IsolationLevel::Si,
        EngineOptions::default(),
        LiveConfig { checkpoint_every: 2, ..LiveConfig::default() },
        h.num_sessions(),
        obs.clone(),
    );
    for (mut client, session) in clients.into_iter().zip(h.sessions()) {
        session.txns.iter().for_each(|t| client.push(t.ops.clone(), t.status));
        client.seal();
    }
    assert!(service.finish().verdict().accepted());
    registered.extend(names(&obs.metrics));

    let unlisted: Vec<_> = registered.difference(&table).collect();
    assert!(unlisted.is_empty(), "registered but not in the README table: {unlisted:?}");
    let unregistered: Vec<_> =
        table.difference(&registered).filter(|(name, _)| !first_use.contains(name)).collect();
    assert!(unregistered.is_empty(), "in the README table, never registered: {unregistered:?}");
}

#[test]
fn cli_check_report_json_round_trips() {
    let out = bin()
        .arg("check")
        .arg(fixture_path("solver_stress_clique.txt"))
        .args(["--report", "json"])
        .output()
        .expect("run check");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("polysi.check.v4"));
    for key in [
        "isolation",
        "verdict",
        "accepted",
        "anomaly",
        "axiom_violations",
        "cycle",
        "inconclusive",
        "timings",
        "prune",
        "encode",
        "solver",
        "solve",
        "shards",
        "oracles",
        "wall_us",
        "metrics",
    ] {
        assert!(v.get(key).is_some(), "missing key {key}");
    }
    assert_eq!(v.get("accepted").and_then(Value::as_bool), Some(true));
    // v2: the solve object is the number of solver calls and nothing else.
    assert!(text.contains("\"solve\":{\"units\":1}"), "solve object: {text}");
    // v3: which closure store the prune stage picked, per pipeline unit, in
    // place of the oracle-kind setting that no longer exists.
    assert!(text.contains("\"oracles\":{\"dense\":1,\"chains\":0}"), "oracles object: {text}");
    // Append-only: `implied_edges` closes the prune object, after every
    // key a v1 consumer already knows, and the registry carries its twin.
    let prune = v.get("prune").expect("prune stats");
    assert!(prune.get("incremental_edges").and_then(Value::as_u64).is_some());
    assert!(prune.get("implied_edges").and_then(Value::as_u64).is_some());
    let (inc, imp) = (text.find("\"incremental_edges\""), text.find("\"implied_edges\""));
    assert!(inc.is_some() && inc < imp, "implied_edges must follow incremental_edges");
    let counters = v.get("metrics").and_then(|m| m.get("counters")).expect("counters");
    assert!(counters.get("prune.implied_edges").and_then(Value::as_u64).is_some());
    // The solver's search counters are plain, digest-covered counters.
    assert!(counters.get("solver.conflicts").and_then(Value::as_u64).is_some_and(|c| c > 0));
}

#[test]
fn cli_check_report_json_carries_the_violation() {
    let out = bin()
        .arg("check")
        .arg(fixture_path("long_fork.txt"))
        .args(["--report", "json"])
        .output()
        .expect("run check");
    assert_eq!(out.status.code(), Some(1));
    let v = parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("cyclic_violation"));
    assert_eq!(v.get("anomaly").and_then(Value::as_str), Some("long fork"));
    let cycle = v.get("cycle").and_then(Value::as_array).expect("cycle array");
    assert!(!cycle.is_empty());
    assert!(cycle[0].get("label").and_then(Value::as_str).is_some());
}

#[test]
fn cli_stream_and_live_report_json_round_trip() {
    for (mode, schema) in [("--stream", "polysi.stream.v4"), ("--live", "polysi.live.v4")] {
        let out = bin()
            .arg("check")
            .arg(fixture_path("serializable.txt"))
            .arg(mode)
            .args(["--report", "json"])
            .output()
            .expect("run check");
        assert!(out.status.success(), "{mode} failed");
        let v = parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(schema), "{mode}");
        let cps = v.get("checkpoints").and_then(Value::as_array).expect("checkpoints");
        assert!(!cps.is_empty(), "{mode}: no checkpoints");
        assert!(v.get("final").is_some() && v.get("metrics").is_some());
        // v4: a checkpoint and `final` carry the check body's verdict
        // fields, written by the same writer.
        let last = v.get("final").unwrap();
        assert_eq!(last.get("verdict").and_then(Value::as_str), Some("ok"), "{mode}");
        let first = cps[0].get("checkpoint").unwrap_or(&cps[0]); // live nests it
        for verdict in [first, last] {
            for key in
                ["verdict", "accepted", "anomaly", "axiom_violations", "cycle", "inconclusive"]
            {
                assert!(verdict.get(key).is_some(), "{mode}: missing key {key}");
            }
        }
        let counters = v.get("metrics").and_then(|m| m.get("counters")).expect("counters");
        assert!(
            counters.get("prune.implied_edges").and_then(Value::as_u64).is_some(),
            "{mode}: the registry snapshot must carry prune.implied_edges"
        );
        if mode == "--live" {
            let ingest = v.get("ingest").expect("ingest counters");
            assert!(ingest.get("ingested").and_then(Value::as_u64).unwrap() > 0);
            assert_eq!(v.get("faults").and_then(Value::as_array).map(<[_]>::len), Some(0));
        }
    }
}

/// A rejecting `--live` run's `final` verdict carries its witness, as a
/// batch report does, and `polysi.live.v4` has no `rejection` key.
#[test]
fn cli_live_report_json_carries_the_witness() {
    let out = bin()
        .arg("check")
        .arg(fixture_path("long_fork.txt"))
        .args(["--live", "--report", "json"])
        .output()
        .expect("run check");
    assert_eq!(out.status.code(), Some(1));
    let v = parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert!(v.get("rejection").is_none());
    let verdict = v.get("final").expect("final verdict");
    assert_eq!(verdict.get("verdict").and_then(Value::as_str), Some("cyclic_violation"));
    assert_eq!(verdict.get("anomaly").and_then(Value::as_str), Some("long fork"));
    let cycle = verdict.get("cycle").and_then(Value::as_array).expect("cycle array");
    assert!(cycle.len() >= 2 && cycle[0].get("label").and_then(Value::as_str).is_some());
}

#[test]
fn cli_stats_report_json_round_trips() {
    let out = bin()
        .arg("stats")
        .arg(fixture_path("long_fork.txt"))
        .args(["--report", "json"])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let v = parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("polysi.stats.v1"));
    for key in ["sessions", "txns", "committed", "ops", "reads", "writes", "keys", "wr_edges"] {
        assert!(v.get(key).and_then(Value::as_u64).is_some(), "missing count {key}");
    }
}

#[test]
fn cli_trace_out_emits_covering_chrome_trace() {
    let dir = std::env::temp_dir().join("polysi-obs-test-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .arg("check")
        .arg(fixture_path("solver_stress_clique.txt"))
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("run check");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let v = parse(&text).expect("trace is valid JSON");
    let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(!events.is_empty());

    // The check span must cover ≥95% of the event range, and the stage
    // begin events must appear in pipeline order inside it.
    let ts = |e: &Value| e.get("ts").and_then(Value::as_u64).expect("ts");
    let of = |name: &str, ph: &str| {
        events
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some(name)
                    && e.get("ph").and_then(Value::as_str) == Some(ph)
            })
            .map(ts)
    };
    let first = events.iter().map(ts).min().unwrap();
    let last = events.iter().map(ts).max().unwrap();
    let (check_b, check_e) = (of("check", "B").unwrap(), of("check", "E").unwrap());
    assert!(
        (check_e - check_b) * 100 >= (last - first) * 95,
        "check span covers {} of {}us event range",
        check_e - check_b,
        last - first
    );
    let mut prev = check_b;
    for stage in ["axioms", "construct", "prune", "encode", "solve"] {
        let b = of(stage, "B").unwrap_or_else(|| panic!("missing {stage} span"));
        assert!(b >= prev, "{stage} begins out of order");
        prev = b;
    }
}

/// The first prune pass says, in its `prune.covers` span, how many writer
/// pairs it generated and how many comparable, non-cover pairs it left
/// out, in a batch check and in a stream delta alike: three blind writers
/// of one key in session order make a chain, whose two covers are
/// generated and whose outer pair is omitted; the third writer, arriving
/// in a delta, pairs with its cover and not with the first writer. The
/// `prune` / `delta.prune` span's `constraints` counts what that pass
/// tested (`prune.constraints_before`), not every pair.
#[test]
fn the_first_prune_pass_counts_generated_and_omitted_pairs() {
    use polysi::history::{Key, Op, TxnStatus, Value};
    let mut b = polysi::history::HistoryBuilder::new();
    b.session();
    for v in 1..=3 {
        b.begin().write(Key(1), Value(v)).commit();
    }
    let h = b.build();
    let (report, attr, obs) = traced_check(&h, IsolationLevel::Si, "prune.covers");
    assert!(report.accepted());
    assert_eq!(attr("pairs"), Some(AttrValue::U64(2)));
    assert_eq!(attr("omitted"), Some(AttrValue::U64(1)));
    // Tracer-only: the registry holds no counter for either.
    let counters = obs.metrics.snapshot().counters;
    assert!(!counters.iter().any(|(n, _)| n.contains("pairs") || n.contains("omitted")));
    let (_, attr, obs) = traced_check(&h, IsolationLevel::Si, "prune");
    assert_eq!(obs.metrics.counter("prune.constraints_before").total(), 2);
    assert_eq!(attr("constraints"), Some(AttrValue::U64(2)), "the two covers, not 3 pairs");
    // The stream: two writers, a checkpoint, then the third as a delta.
    let obs = Obs::enabled();
    let mut checker =
        StreamingChecker::new(IsolationLevel::Si, EngineOptions::default()).with_obs(obs.clone());
    let session = checker.session();
    for v in 1..=3 {
        let write = Op::Write { key: Key(1), value: Value(v) };
        checker.push_transaction(session, vec![write], TxnStatus::Committed);
        if v >= 2 {
            assert!(checker.checkpoint().verdict.accepted());
        }
    }
    let forest = span_forest(&obs.tracer.events()).expect("span log is well-nested");
    let spans = |name: &str| all_spans(&forest).into_iter().filter(|n| n.name == name).collect();
    let attrs = |spans: Vec<&SpanNode>, keys: &[&str]| -> Vec<Vec<Option<AttrValue>>> {
        let attr =
            |n: &SpanNode, k: &str| n.attrs.iter().find(|(a, _)| *a == k).map(|a| a.1.clone());
        spans.iter().map(|n| keys.iter().map(|k| attr(n, k)).collect()).collect()
    };
    let u = |n: u64| Some(AttrValue::U64(n));
    let covers = attrs(spans("prune.covers"), &["pairs", "omitted"]);
    assert_eq!(covers, [[u(1), u(0)], [u(1), u(1)]]);
    // The delta's pass tests the third writer's cover, not its two pairs.
    let tested =
        [attrs(spans("prune"), &["constraints"]), attrs(spans("delta.prune"), &["constraints"])];
    assert_eq!(tested, [[[u(1)]], [[u(1)]]]);
    assert_eq!(obs.metrics.counter("prune.constraints_before").total(), 2);
}
