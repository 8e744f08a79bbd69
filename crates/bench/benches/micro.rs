//! Criterion micro-benchmarks for the building blocks of the checker:
//! the history analyses, polygraph construction, pruning, the end-to-end
//! pipeline, the acyclicity solver, and PolySI-List inference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polysi_checker::{check, EngineOptions, IsolationLevel as Level};
use polysi_dbsim::{run, IsolationLevel, SimConfig};
use polysi_history::{Facts, ShardPlan};
use polysi_obs::Tracer;
use polysi_polygraph::{ConstraintMode, Polygraph, PruneOptions};
use polysi_solver::{Lit, Solver};
use polysi_workloads::{generate, multi_component, GeneralParams, KeyDistribution};

fn history(sessions: usize, txns: usize) -> polysi_history::History {
    let plan = generate(&GeneralParams {
        sessions,
        txns_per_session: txns,
        ops_per_txn: 8,
        keys: 500,
        read_pct: 50,
        seed: 42,
        ..Default::default()
    });
    run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 42)).history
}

/// The serial front of every check — `Facts::analyze` and
/// `ShardPlan::analyze`, each building its own key index — on the
/// benchmark's two batch shapes: `batch_sharded` (64 components, 102 400
/// transactions, 819 200 operations, mostly reads of many keys) and
/// `batch_general` (paper defaults, 20 × 500, one component, hot keys).
fn bench_history_analyze(c: &mut Criterion) {
    let mut g = c.benchmark_group("history-analyze");
    g.sample_size(10);
    let sharded = GeneralParams {
        sessions: 4,
        txns_per_session: 400,
        ops_per_txn: 8,
        keys: 2000,
        read_pct: 90,
        dist: KeyDistribution::Uniform,
        seed: 7,
    };
    let general = GeneralParams { txns_per_session: 500, ..Default::default() };
    let sim = SimConfig::new(IsolationLevel::SnapshotIsolation, 7);
    let shapes = [
        ("batch_sharded-64x1600", multi_component(&sharded, 64)),
        ("batch_general-20x500", generate(&general)),
    ];
    for (name, plan) in shapes {
        let h = run(&plan, &sim).history;
        g.bench_with_input(BenchmarkId::new("facts", name), &(), |b, _| {
            b.iter(|| Facts::analyze(&h))
        });
        g.bench_with_input(BenchmarkId::new("shard-plan", name), &(), |b, _| {
            b.iter(|| ShardPlan::analyze(&h))
        });
    }
    g.finish();
}

fn bench_construct(c: &mut Criterion) {
    let mut g = c.benchmark_group("polygraph-construct");
    for &txns in &[25usize, 50, 100] {
        let h = history(10, txns);
        let facts = Facts::analyze(&h);
        g.bench_with_input(BenchmarkId::from_parameter(10 * txns), &txns, |b, _| {
            b.iter(|| Polygraph::from_history(&h, &facts, ConstraintMode::Generalized))
        });
    }
    // The benchmark's `batch_general` shape (paper defaults, 20 × 500):
    // ~570 k constraints over ~3 M edges, where the constraint store is
    // what construction costs.
    let plan = generate(&GeneralParams { txns_per_session: 500, ..Default::default() });
    let h = run(&plan, &SimConfig::new(IsolationLevel::SnapshotIsolation, 42)).history;
    let facts = Facts::analyze(&h);
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::from_parameter("batch_general-20x500"), &(), |b, _| {
        b.iter(|| Polygraph::from_history(&h, &facts, ConstraintMode::Generalized))
    });
    g.finish();
}

fn bench_prune(c: &mut Criterion) {
    let mut g = c.benchmark_group("polygraph-prune");
    for &txns in &[25usize, 50, 100] {
        let h = history(10, txns);
        let facts = Facts::analyze(&h);
        g.bench_with_input(BenchmarkId::from_parameter(10 * txns), &txns, |b, _| {
            b.iter_batched(
                || Polygraph::from_history(&h, &facts, ConstraintMode::Generalized),
                |mut pg| pg.prune(&PruneOptions::default(), &Tracer::disabled()).0,
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_check_si(c: &mut Criterion) {
    let mut g = c.benchmark_group("check-si-end-to-end");
    g.sample_size(10);
    for &txns in &[25usize, 50, 100] {
        let h = history(10, txns);
        let opts = EngineOptions { interpret: false, ..Default::default() };
        g.bench_with_input(BenchmarkId::from_parameter(10 * txns), &txns, |b, _| {
            b.iter(|| check(&h, Level::Si, &opts))
        });
    }
    g.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver-acyclicity");
    for &n in &[50u32, 100, 200] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                // A chain of n nodes with per-pair orientation choices on a
                // band of width 3: SAT, exercises theory propagation.
                let mut s = Solver::with_graph(n as usize);
                for i in 0..n - 1 {
                    s.add_known_edge(i, i + 1);
                }
                for i in 0..n.saturating_sub(3) {
                    let f = Lit::pos(s.new_var());
                    s.add_symbolic_edge(f, i, i + 3);
                    s.add_symbolic_edge(!f, i + 3, i);
                }
                assert!(matches!(s.solve(), polysi_solver::SolveResult::Sat(_)));
            })
        });
    }
    g.finish();
}

fn bench_list_mode(c: &mut Criterion) {
    use polysi_checker::list::{ListHistory, ListOp, ListTxn};
    use polysi_checker::CheckEngine;
    use polysi_workloads::list_append::{generate_list_history, ListOpRecord};
    let rec = generate_list_history(&GeneralParams {
        sessions: 10,
        txns_per_session: 100,
        ops_per_txn: 8,
        keys: 200,
        seed: 5,
        ..Default::default()
    });
    let h = ListHistory {
        sessions: rec
            .sessions
            .iter()
            .map(|sess| {
                sess.iter()
                    .map(|t| ListTxn {
                        ops: t
                            .ops
                            .iter()
                            .map(|op| match op {
                                ListOpRecord::Append { key, value } => {
                                    ListOp::Append { key: *key, value: *value }
                                }
                                ListOpRecord::Read { key, list } => {
                                    ListOp::Read { key: *key, list: list.clone() }
                                }
                            })
                            .collect(),
                        status: t.status,
                    })
                    .collect()
            })
            .collect(),
    };
    let engine = CheckEngine::new(Level::Si, EngineOptions::default());
    c.bench_function("polysi-list-1k-txns", |b| b.iter(|| engine.check_list(&h)));
}

criterion_group!(
    benches,
    bench_history_analyze,
    bench_construct,
    bench_prune,
    bench_check_si,
    bench_solver,
    bench_list_mode
);
criterion_main!(benches);
