//! The `polysi` command-line checker: read a history — the line-oriented
//! text format (see `polysi_history::codec`) or the binary columnar
//! `.pbh` format (see `polysi_history::binfmt`), auto-detected by
//! content — and report the isolation verdict, the anomaly class, and
//! optionally the interpreted counterexample as Graphviz DOT.
//!
//! ```sh
//! polysi check history.txt                  # SI verdict + anomaly + cycle
//! polysi check history.pbh                  # same, from the binary format
//! polysi check history.txt --isolation ser  # serializability instead of SI
//! polysi check history.txt --shards off     # one unit (default: shard by key connectivity)
//! polysi check history.txt --prune-threads 4  # thread budget: shard workers × sweep threads
//! polysi check history.txt --stream          # online checkpoints over a replay
//! polysi check history.txt --live            # concurrent ingest via one bounded queue
//! polysi check history.txt --dot out.dot
//! polysi check history.txt --no-pruning
//! polysi stats history.txt                  # workload statistics only
//! polysi convert history.txt history.pbh    # text -> binary (and back)
//! polysi demo                               # run the built-in long-fork demo
//! ```

use polysi::checker::engine::{
    check, CheckEngine, CompactMode, EngineOptions, IsolationLevel, PruneThreads, Sharding,
};
use polysi::checker::report::{
    check_report_json, live_report_json, stats_json, stream_report_json,
};
use polysi::checker::{dot, LiveConfig, LiveService, Outcome, StreamVerdict, StreamingChecker};
use polysi::history::{binfmt, codec, stats::HistoryStats, History};
use polysi_obs::{trace::chrome_trace_json, Obs, Tracer};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  polysi check <history.txt|.pbh> [--isolation si|ser] [--shards auto|off]\n               [--prune-threads N|auto]   (defaults: si, auto, auto)\n               [--stream] [--live] [--checkpoints N]\n               [--compact on|off|auto]\n               [--report json] [--trace-out <trace.json>]\n               [--dot <out.dot>] [--no-pruning] [--plain] [--quiet]\n  polysi stats <history.txt|.pbh> [--report json]\n  polysi convert <in.txt|.pbh> <out.pbh|.txt>   (input auto-detected; output\n               format by extension: .pbh binary, anything else text)\n  polysi demo"
    );
    ExitCode::from(2)
}

/// Write the Chrome trace-event export of a run's spans (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>).
fn write_trace(path: &str, tracer: &Tracer) {
    if let Err(e) = std::fs::write(path, chrome_trace_json(tracer)) {
        eprintln!("error writing {path}: {e}");
    }
}

/// `polysi check --stream`: replay the history as a session-ordered
/// stream (round-robin across sessions), checkpointing `checkpoints`
/// times; report per-checkpoint verdicts and timings, and on violation
/// the first-violation op index plus the canonical witness.
fn stream_check(
    history: &History,
    isolation: IsolationLevel,
    opts: EngineOptions,
    checkpoints: usize,
    quiet: bool,
    obs: &Obs,
    report_json: bool,
) -> ExitCode {
    let t0 = std::time::Instant::now();
    let mut checker = StreamingChecker::new(isolation, opts).with_obs(obs.clone());
    let sessions: Vec<_> = (0..history.num_sessions()).map(|_| checker.session()).collect();
    // Per-session (first txn id, length): the replay indexes the history
    // directly and clones each transaction's ops once, at push time.
    let ranges: Vec<(u32, usize)> = history.sessions().map(|s| (s.first.0, s.txns.len())).collect();
    let total = history.len();
    let interval = total.div_ceil(checkpoints.max(1)).max(1);
    let mut cursors = vec![0usize; ranges.len()];
    let mut pushed = 0usize;
    let mut since_checkpoint = 0usize;
    let report = |cp: &polysi::checker::CheckpointReport, quiet: bool| {
        if !quiet {
            let verdict = match &cp.verdict {
                StreamVerdict::Accepted => "ok".to_string(),
                StreamVerdict::AxiomViolations { healable, .. } => {
                    format!("axioms broken ({})", if *healable { "healable" } else { "terminal" })
                }
                StreamVerdict::Rejected { .. } => "VIOLATION".to_string(),
            };
            println!(
                "  checkpoint {}: {}/{} txns, {} components ({} dirty, {} rebuilt), {}, {:?}",
                cp.seq, cp.txns, total, cp.components, cp.dirty, cp.rebuilt, verdict, cp.elapsed
            );
        }
    };
    let mut trail: Vec<polysi::checker::CheckpointReport> = Vec::new();
    let mut last_verdict = StreamVerdict::Accepted;
    'replay: loop {
        let mut progressed = false;
        for (s, &(first, len)) in ranges.iter().enumerate() {
            if cursors[s] >= len {
                continue;
            }
            let txn = history.txn(polysi::history::TxnId(first + cursors[s] as u32));
            checker.push_transaction(sessions[s], txn.ops.clone(), txn.status);
            cursors[s] += 1;
            if cursors[s] == len {
                // The session is exhausted: sealing it lets watermark
                // compaction treat its settled transactions as droppable.
                checker.seal_session(sessions[s]);
            }
            pushed += 1;
            since_checkpoint += 1;
            progressed = true;
            if since_checkpoint >= interval && pushed < total {
                since_checkpoint = 0;
                let cp = checker.checkpoint();
                report(&cp, quiet || report_json);
                last_verdict = cp.verdict.clone();
                trail.push(cp);
                if matches!(last_verdict, StreamVerdict::Rejected { .. }) {
                    break 'replay;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if !matches!(last_verdict, StreamVerdict::Rejected { .. }) {
        let cp = checker.checkpoint();
        report(&cp, quiet || report_json);
        last_verdict = cp.verdict.clone();
        trail.push(cp);
    }
    if report_json {
        let json = stream_report_json(
            &trail,
            checker.rejection(),
            isolation,
            t0.elapsed(),
            Some(&obs.metrics.snapshot()),
        );
        println!("{json}");
        return if last_verdict.accepted() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    match last_verdict {
        StreamVerdict::Accepted => {
            println!("OK: history satisfies {} (streaming)", isolation.long_name());
            if !quiet {
                println!("  {}", HistoryStats::of(history));
            }
            ExitCode::SUCCESS
        }
        StreamVerdict::AxiomViolations { violations, .. } => {
            println!("VIOLATION: non-cyclic axioms failed");
            for v in violations.iter().take(if quiet { 1 } else { usize::MAX }) {
                println!("  - {v}");
            }
            ExitCode::FAILURE
        }
        StreamVerdict::Rejected { anomaly, first_violation_op } => {
            let rej = checker.rejection().expect("rejected streams record the canonical report");
            match anomaly {
                Some(a) => println!("VIOLATION: {a}"),
                None => println!("VIOLATION: non-cyclic axioms failed"),
            }
            println!(
                "  detected by op {first_violation_op} (checkpoint {}, {} txns ingested)",
                rej.checkpoint, rej.txn_count
            );
            if !quiet {
                match &rej.report.outcome {
                    Outcome::CyclicViolation(v) => {
                        for e in &v.cycle {
                            println!(
                                "  {} {} -> {}",
                                e.label,
                                rej.prefix.txn(e.from).label(),
                                rej.prefix.txn(e.to).label()
                            );
                        }
                    }
                    Outcome::AxiomViolations(vs) => {
                        for v in vs {
                            println!("  - {v}");
                        }
                    }
                    Outcome::Si => unreachable!("canonical report of a rejection"),
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// `polysi check --live`: replay the history through the concurrent live
/// ingest service — one producer thread per session, all sending on the
/// service's one bounded queue, the drain thread checkpointing on a count
/// cadence — and report the
/// checkpoint trail (degraded ones flagged), any ingest faults, and the
/// final verdict.
fn live_check(
    history: &History,
    isolation: IsolationLevel,
    opts: EngineOptions,
    checkpoints: usize,
    quiet: bool,
    obs: &Obs,
    report_json: bool,
) -> ExitCode {
    let t0 = std::time::Instant::now();
    let total = history.len();
    let cfg = LiveConfig {
        checkpoint_every: total.div_ceil(checkpoints.max(1)).max(1),
        ..LiveConfig::default()
    };
    let (service, clients) =
        LiveService::spawn_with_obs(isolation, opts, cfg, history.num_sessions(), obs.clone());
    let report = std::thread::scope(|scope| {
        for (client, session) in clients.into_iter().zip(history.sessions()) {
            let mut client = client;
            scope.spawn(move || {
                for txn in session.txns {
                    client.push(txn.ops.clone(), txn.status);
                }
                client.seal();
            });
        }
        service.finish()
    });
    if report_json {
        let json =
            live_report_json(&report, None, isolation, t0.elapsed(), Some(&obs.metrics.snapshot()));
        println!("{json}");
        return if report.verdict().accepted() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if !quiet {
        for cp in &report.checkpoints {
            let verdict = match &cp.report.verdict {
                StreamVerdict::Accepted => "ok".to_string(),
                StreamVerdict::AxiomViolations { healable, .. } => {
                    format!("axioms broken ({})", if *healable { "healable" } else { "terminal" })
                }
                StreamVerdict::Rejected { .. } => "VIOLATION".to_string(),
            };
            println!(
                "  checkpoint {}: {}/{} txns, {} components ({} dirty, {} rebuilt), {}{}, {:?}",
                cp.report.seq,
                cp.report.txns,
                total,
                cp.report.components,
                cp.report.dirty,
                cp.report.rebuilt,
                verdict,
                if cp.degraded { " [degraded]" } else { "" },
                cp.report.elapsed
            );
        }
        let s = &report.stats;
        println!(
            "  ingest: {} delivered, {} ingested, {} duplicates, {} healed, {} sealed",
            s.delivered, s.ingested, s.duplicates, s.healed, s.sealed
        );
    }
    for (sid, err) in &report.faults {
        println!("  ingest fault on session {}: {err}", sid.0);
    }
    match report.verdict() {
        StreamVerdict::Accepted => {
            println!("OK: history satisfies {} (live)", isolation.long_name());
            ExitCode::SUCCESS
        }
        StreamVerdict::AxiomViolations { violations, .. } => {
            println!("VIOLATION: non-cyclic axioms failed");
            for v in violations.iter().take(if quiet { 1 } else { usize::MAX }) {
                println!("  - {v}");
            }
            ExitCode::FAILURE
        }
        StreamVerdict::Rejected { anomaly, first_violation_op } => {
            match anomaly {
                Some(a) => println!("VIOLATION: {a}"),
                None => println!("VIOLATION: non-cyclic axioms failed"),
            }
            println!("  detected by op {first_violation_op}");
            ExitCode::FAILURE
        }
    }
}

/// Load a history, auto-detecting the format by content: the `.pbh`
/// magic selects the binary columnar reader, anything else parses as the
/// line-oriented text format.
fn load(path: &str) -> Result<History, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if binfmt::is_binary(&bytes) {
        return binfmt::decode(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(bytes).map_err(|e| format!("{path}: {e}"))?;
    codec::decode(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            let Some(path) = args.get(1) else { return usage() };
            let mut opts = EngineOptions::default();
            let mut isolation = IsolationLevel::Si;
            let mut dot_path: Option<String> = None;
            let mut trace_out: Option<String> = None;
            let mut report_json = false;
            let mut quiet = false;
            let mut stream = false;
            let mut live = false;
            let mut checkpoints = 8usize;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--no-pruning" => opts.pruning = false,
                    "--report" => {
                        i += 1;
                        match args.get(i).map(String::as_str) {
                            Some("json") => report_json = true,
                            other => {
                                eprintln!("--report takes json, got {other:?}");
                                return usage();
                            }
                        }
                    }
                    "--trace-out" => {
                        i += 1;
                        trace_out = args.get(i).cloned();
                        if trace_out.is_none() {
                            eprintln!("--trace-out takes a path");
                            return usage();
                        }
                    }
                    "--plain" => opts.mode = polysi::polygraph::ConstraintMode::Plain,
                    "--quiet" => quiet = true,
                    "--stream" => stream = true,
                    "--live" => live = true,
                    "--checkpoints" => {
                        i += 1;
                        checkpoints = match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                            Some(n) if n >= 1 => n,
                            _ => {
                                eprintln!("--checkpoints takes a positive count");
                                return usage();
                            }
                        };
                    }
                    "--isolation" => {
                        i += 1;
                        isolation = match args.get(i).map(String::as_str) {
                            Some("si") => IsolationLevel::Si,
                            Some("ser") => IsolationLevel::Ser,
                            other => {
                                eprintln!("--isolation takes si|ser, got {other:?}");
                                return usage();
                            }
                        };
                    }
                    "--shards" => {
                        i += 1;
                        opts.sharding = match args.get(i).map(String::as_str) {
                            Some("auto") => Sharding::Auto,
                            Some("off") => Sharding::Off,
                            other => {
                                eprintln!("--shards takes auto|off, got {other:?}");
                                return usage();
                            }
                        };
                    }
                    "--prune-threads" => {
                        i += 1;
                        opts.prune_threads = match args.get(i).map(String::as_str) {
                            Some("auto") => PruneThreads::Auto,
                            Some(n) => match n.parse::<usize>() {
                                Ok(n) if n >= 1 => PruneThreads::Fixed(n),
                                _ => {
                                    eprintln!("--prune-threads takes N|auto, got {n:?}");
                                    return usage();
                                }
                            },
                            None => {
                                eprintln!("--prune-threads takes N|auto");
                                return usage();
                            }
                        };
                    }
                    "--compact" => {
                        i += 1;
                        opts.compact = match args.get(i).and_then(|s| CompactMode::parse(s)) {
                            Some(mode) => mode,
                            None => {
                                eprintln!("--compact takes on|off|auto, got {:?}", args.get(i));
                                return usage();
                            }
                        };
                    }
                    "--dot" => {
                        i += 1;
                        dot_path = args.get(i).cloned();
                        if dot_path.is_none() {
                            return usage();
                        }
                    }
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
                i += 1;
            }
            let history = match load(path) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            // Spans are recorded only when a trace sink was requested
            // (disabled tracing stays zero-cost); metrics are always live.
            let obs = if trace_out.is_some() { Obs::enabled() } else { Obs::default() };
            if stream || live {
                if !opts.pruning || opts.mode != polysi::polygraph::ConstraintMode::Generalized {
                    let mode = if live { "--live" } else { "--stream" };
                    eprintln!("{mode} requires pruning and generalized constraints");
                    return usage();
                }
                if !quiet && !report_json {
                    println!(
                        "{} check: {} txns, {} sessions, {} checkpoints",
                        if live { "live" } else { "streaming" },
                        history.len(),
                        history.num_sessions(),
                        checkpoints
                    );
                }
                let code = if live {
                    live_check(&history, isolation, opts, checkpoints, quiet, &obs, report_json)
                } else {
                    stream_check(&history, isolation, opts, checkpoints, quiet, &obs, report_json)
                };
                if let Some(path) = &trace_out {
                    write_trace(path, &obs.tracer);
                }
                return code;
            }
            // Wall-clock as observed here: `report.timings` sums per-shard
            // CPU time on sharded runs, which overstates elapsed time.
            let t0 = std::time::Instant::now();
            let report = CheckEngine::new(isolation, opts).with_obs(obs.clone()).check(&history);
            let elapsed = t0.elapsed();
            if let Some(path) = &trace_out {
                write_trace(path, &obs.tracer);
            }
            if report_json {
                let json =
                    check_report_json(&report, isolation, elapsed, Some(&obs.metrics.snapshot()));
                println!("{json}");
                return if report.accepted() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            let shard_line = report.shard_stats.map(|s| match s.fallback {
                None => {
                    format!("sharded into {} components (largest {} txns)", s.components, s.largest)
                }
                Some(f) => {
                    format!("whole-history check ({f:?}, {} key components)", s.key_components)
                }
            });
            match &report.outcome {
                Outcome::Si => {
                    println!("OK: history satisfies {}", isolation.long_name());
                    if !quiet {
                        println!("  {}", HistoryStats::of(&history));
                        if let Some(line) = &shard_line {
                            println!("  {line}");
                        }
                        println!("  checked in {elapsed:?}");
                    }
                    ExitCode::SUCCESS
                }
                Outcome::AxiomViolations(vs) => {
                    println!("VIOLATION: non-cyclic axioms failed");
                    for v in vs.iter().take(if quiet { 1 } else { usize::MAX }) {
                        println!("  - {v}");
                    }
                    ExitCode::FAILURE
                }
                Outcome::CyclicViolation(v) => {
                    println!("VIOLATION: {}", v.anomaly);
                    if !quiet {
                        if let Some(line) = &shard_line {
                            println!("  {line}");
                        }
                        for e in &v.cycle {
                            println!(
                                "  {} {} -> {}",
                                e.label,
                                history.txn(e.from).label(),
                                history.txn(e.to).label()
                            );
                        }
                    }
                    if let (Some(out), Some(s)) = (&dot_path, &v.scenario) {
                        if let Err(e) = std::fs::write(out, dot::scenario_to_dot(&history, s)) {
                            eprintln!("error writing {out}: {e}");
                        } else if !quiet {
                            println!("  scenario written to {out}");
                        }
                    }
                    ExitCode::FAILURE
                }
            }
        }
        Some("stats") => {
            let Some(path) = args.get(1) else { return usage() };
            let report_json = match args.get(2..).unwrap_or_default() {
                [] => false,
                [flag, value] if flag == "--report" && value == "json" => true,
                _ => return usage(),
            };
            match load(path) {
                Ok(h) => {
                    let stats = HistoryStats::of(&h);
                    if report_json {
                        println!("{}", stats_json(&stats));
                    } else {
                        println!("{stats}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("convert") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else { return usage() };
            let history = match load(input) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let binary = output.ends_with(".pbh");
            let bytes = if binary {
                binfmt::encode(&history)
            } else {
                codec::encode(&history).into_bytes()
            };
            if let Err(e) = std::fs::write(output, &bytes) {
                eprintln!("error: {output}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "converted {input} -> {output} ({}): {} sessions, {} txns, {} ops, {} bytes",
                if binary { "binary" } else { "text" },
                history.num_sessions(),
                history.len(),
                history.num_ops(),
                bytes.len()
            );
            ExitCode::SUCCESS
        }
        Some("demo") => {
            use polysi::history::{HistoryBuilder, Key, Value};
            let mut b = HistoryBuilder::new();
            b.session();
            b.begin().write(Key(1), Value(10)).write(Key(2), Value(20)).commit();
            b.session();
            b.begin().write(Key(1), Value(11)).commit();
            b.session();
            b.begin().write(Key(2), Value(21)).commit();
            b.session();
            b.begin().read(Key(1), Value(11)).read(Key(2), Value(20)).commit();
            b.session();
            b.begin().read(Key(1), Value(10)).read(Key(2), Value(21)).commit();
            let h = b.build();
            println!("{}", codec::encode(&h));
            match check(&h, IsolationLevel::Si, &EngineOptions::default()).outcome {
                Outcome::CyclicViolation(v) => println!("# verdict: VIOLATION ({})", v.anomaly),
                _ => println!("# verdict: OK"),
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
