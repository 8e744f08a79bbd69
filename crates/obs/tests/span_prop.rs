//! Property test: span logs are well-nested — every span end matches the
//! innermost open span on its thread — for arbitrary nesting scripts
//! executed across scoped-thread workers, mirroring how the engine's
//! shard workers and prune sweep trace under a shared `Tracer`.

use proptest::prelude::*;

use polysi_obs::span::{span_forest, SpanNode};
use polysi_obs::{kv, Tracer};

/// Run one thread's script: a list of nesting depths. For each depth we
/// open that many nested spans (RAII guards on a stack) and close them all.
fn run_script(tracer: &Tracer, worker: usize, script: &[usize]) {
    let _w = tracer.span_kv("worker", kv! { idx: worker });
    for (step, &depth) in script.iter().enumerate() {
        let mut guards = Vec::new();
        for level in 0..depth {
            let mut g = tracer.span_kv("unit", kv! { step: step, level: level });
            g.attr("done", true);
            guards.push(g);
            if level % 2 == 1 {
                tracer.instant("tick", kv! { level: level });
            }
        }
        // Guards drop innermost-first (Vec drops front-to-back, but each
        // guard only records its own end; nesting comes from open order) —
        // drop explicitly in reverse to model strict LIFO scopes.
        while let Some(g) = guards.pop() {
            drop(g);
        }
    }
}

fn max_depth(node: &SpanNode) -> usize {
    1 + node.children.iter().map(max_depth).max().unwrap_or(0)
}

fn count_spans(nodes: &[SpanNode]) -> usize {
    nodes.iter().map(|n| 1 + count_spans(&n.children)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn scoped_thread_span_logs_are_well_nested(
        scripts in prop::collection::vec(prop::collection::vec(0usize..6, 0..8), 1..5),
    ) {
        let tracer = Tracer::enabled();
        {
            let _root = tracer.span("check");
            std::thread::scope(|s| {
                for (worker, script) in scripts.iter().enumerate() {
                    let tracer = tracer.clone();
                    s.spawn(move || run_script(&tracer, worker, script));
                }
            });
        }
        let events = tracer.events();
        let forest = span_forest(&events);
        prop_assert!(forest.is_ok(), "not well-nested: {:?}", forest.err());
        let forest = forest.unwrap();

        // Exactly one root per thread that traced: the spawning thread's
        // "check" plus one "worker" per script.
        let workers = forest.iter().filter(|n| n.name == "worker").count();
        prop_assert_eq!(workers, scripts.len());
        prop_assert_eq!(forest.iter().filter(|n| n.name == "check").count(), 1);

        // Span count matches the scripts: one worker span + sum of depths.
        let expected_units: usize = scripts.iter().flatten().sum();
        prop_assert_eq!(count_spans(&forest), 1 + scripts.len() + expected_units);

        // Each worker's max nesting depth matches its script's max depth.
        for node in forest.iter().filter(|n| n.name == "worker") {
            let idx = match &node.attrs[0].1 {
                polysi_obs::AttrValue::U64(v) => *v as usize,
                other => return Err(TestCaseError::Fail(format!("bad idx attr {other:?}"))),
            };
            let script_max = scripts[idx].iter().copied().max().unwrap_or(0);
            prop_assert_eq!(max_depth(node), 1 + script_max);
            // Parent intervals contain child intervals.
            fn contained(n: &SpanNode) -> bool {
                n.children.iter().all(|c| {
                    n.start_us <= c.start_us && c.end_us <= n.end_us && contained(c)
                })
            }
            prop_assert!(contained(node));
        }
    }
}
