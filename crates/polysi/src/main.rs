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
//! polysi check history.txt --prune-threads 4  # thread budget: shard workers
//! polysi check history.txt --stream          # online checkpoints over a replay
//! polysi check history.txt --live            # concurrent ingest via one bounded queue
//! polysi check history.txt --dot out.dot
//! polysi check history.txt --no-pruning
//! polysi stats history.txt                  # workload statistics only
//! polysi convert history.txt history.pbh    # text -> binary (and back)
//! polysi demo                               # run the built-in long-fork demo
//! ```
//!
//! Every mode prints its verdict through one printer and maps it to one
//! exit code: 0 accepted, 1 violation, 2 usage or input error, 3
//! inconclusive (the checker could not decide — a compacting stream
//! refused a read below its watermark, or the stream's delta detector
//! disagreed with the batch engine).

use polysi::checker::engine::{
    check, CheckEngine, CompactMode, EngineOptions, IsolationLevel, PruneThreads, Sharding,
};
use polysi::checker::report::{
    check_report_json, live_report_json, stats_json, stream_report_json,
};
use polysi::checker::{
    dot, CheckpointReport, LiveConfig, LiveService, Outcome, StreamingChecker, Violation,
};
use polysi::history::{binfmt, codec, stats::HistoryStats, History, TxnId};
use polysi_obs::{trace::chrome_trace_json, Obs, Tracer};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  polysi check <history.txt|.pbh> [--isolation si|ser] [--shards auto|off]\n               [--prune-threads N|auto]   (defaults: si, auto, auto)\n               [--stream] [--live] [--checkpoints N]\n               [--compact on|off|auto]\n               [--report json] [--trace-out <trace.json>]\n               [--dot <out.dot>] [--no-pruning] [--plain] [--quiet]\n               exit: 0 accepted, 1 violation, 2 usage or input error, 3 inconclusive\n  polysi stats <history.txt|.pbh> [--report json]\n  polysi convert <in.txt|.pbh> <out.pbh|.txt>   (input auto-detected; output\n               format by extension: .pbh binary, anything else text)\n  polysi demo"
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

/// How a check reports besides its verdict line and exit code: `--quiet`,
/// `--report json` and `--dot`.
#[derive(Clone, Copy)]
struct Output<'a> {
    quiet: bool,
    json: bool,
    dot: Option<&'a str>,
}

impl Output<'_> {
    /// Write the interpreted scenario of `outcome`, whose ids are
    /// `history`'s, to the `--dot` path, if one was given.
    fn dot(self, outcome: &Outcome, history: &History) {
        let (Some(path), Outcome::CyclicViolation(Violation { scenario: Some(s), .. })) =
            (self.dot, outcome)
        else {
            return;
        };
        match std::fs::write(path, dot::scenario_to_dot(history, s)) {
            Err(e) => eprintln!("error writing {path}: {e}"),
            Ok(()) if !self.quiet && !self.json => println!("  scenario written to {path}"),
            Ok(()) => {}
        }
    }
}

/// `polysi check --stream`: replay the history as a session-ordered
/// stream (round-robin across sessions), checkpointing `checkpoints`
/// times; report per-checkpoint verdicts and timings, and in the terminal
/// state where it was reached plus the canonical witness, whose scenario
/// `--dot` renders over the rejecting prefix.
fn stream_check(
    history: &History,
    isolation: IsolationLevel,
    opts: EngineOptions,
    checkpoints: usize,
    obs: &Obs,
    out: Output,
) -> ExitCode {
    let t0 = std::time::Instant::now();
    let mut checker = StreamingChecker::new(isolation, opts).with_obs(obs.clone());
    for _ in 0..history.num_sessions() {
        checker.session();
    }
    let total = history.len();
    let interval = total.div_ceil(checkpoints.max(1)).max(1);
    // Round `i` pushes the `i`-th transaction of every session that has
    // one, with whether it is the session's last.
    let longest = history.sessions().map(|s| s.txns.len()).max().unwrap_or(0);
    let replay = (0..longest).flat_map(|i| {
        history.sessions().filter_map(move |s| Some((s.id, s.txns.get(i)?, i + 1 == s.txns.len())))
    });
    let mut trail: Vec<CheckpointReport> = Vec::new();
    let mut checkpoint = |checker: &mut StreamingChecker| {
        let cp = checker.checkpoint();
        if !out.quiet && !out.json {
            print_checkpoint(&cp, total, false);
        }
        let terminal = cp.terminal;
        trail.push(cp);
        terminal
    };
    let mut terminal = false;
    for (pushed, (session, txn, last)) in (1..).zip(replay) {
        checker.push_transaction(session, txn.ops.clone(), txn.status);
        if last {
            // The session is exhausted: sealing it lets watermark
            // compaction treat its settled transactions as droppable.
            checker.seal_session(session);
        }
        if pushed % interval == 0 && pushed < total {
            terminal = checkpoint(&mut checker);
            if terminal {
                break;
            }
        }
    }
    if !terminal {
        checkpoint(&mut checker);
    }
    let last_verdict = &trail.last().expect("the replay ends in a checkpoint").verdict;
    let rej = checker.rejection();
    let snapshot = rej.map(|_| checker.stream().snapshot().0);
    let code = if out.json {
        let metrics = obs.metrics.snapshot();
        println!("{}", stream_report_json(&trail, rej, isolation, t0.elapsed(), Some(&metrics)));
        exit_code(last_verdict)
    } else {
        let notes = match rej {
            Some(r) => vec![format!(
                "detected by op {} (checkpoint {}, {} txns ingested)",
                r.op_index, r.checkpoint, r.txn_count
            )],
            None if out.quiet => Vec::new(),
            None => vec![HistoryStats::of(history).to_string()],
        };
        let labels = snapshot.as_ref().unwrap_or(history);
        print_outcome(last_verdict, isolation, Some("streaming"), &notes, Some(labels), out.quiet)
    };
    if let (Some(r), Some(prefix)) = (rej, &snapshot) {
        out.dot(&r.report.outcome, prefix);
    }
    code
}

/// One `--stream` / `--live` checkpoint line of a `total`-transaction
/// replay; `degraded` flags a live checkpoint taken while reorder gaps
/// were open.
fn print_checkpoint(cp: &CheckpointReport, total: usize, degraded: bool) {
    println!(
        "  checkpoint {}: {}/{} txns, {} components ({} dirty, {} rebuilt), {}{}{}, {:?}",
        cp.seq,
        cp.txns,
        total,
        cp.components,
        cp.dirty,
        cp.rebuilt,
        cp.verdict.kind(),
        if cp.terminal { " (terminal)" } else { "" },
        if degraded { " [degraded]" } else { "" },
        cp.elapsed
    );
}

/// A verdict's exit code: 0 accepted, 1 violation, 3 inconclusive (2 is a
/// usage or input error, decided before any verdict).
fn exit_code(outcome: &Outcome) -> ExitCode {
    match outcome {
        Outcome::Si => ExitCode::SUCCESS,
        Outcome::AxiomViolations(_) | Outcome::CyclicViolation(_) => ExitCode::FAILURE,
        Outcome::Inconclusive(_) => ExitCode::from(3),
    }
}

/// Every mode's verdict printer; returns the verdict's exit code. The
/// heading names an online run's `mode` on an accept; `notes` follow it;
/// then come the axiom violations, the cycle or the refused reads, whose
/// transactions are labelled from `labels`, the history the verdict is
/// about (plain ids without it). `quiet` keeps the first axiom violation
/// or refused read and drops the cycle.
fn print_outcome(
    outcome: &Outcome,
    isolation: IsolationLevel,
    mode: Option<&str>,
    notes: &[String],
    labels: Option<&History>,
    quiet: bool,
) -> ExitCode {
    match outcome {
        Outcome::Si => {
            let how = mode.map(|m| format!(" ({m})")).unwrap_or_default();
            println!("OK: history satisfies {}{how}", isolation.long_name());
        }
        Outcome::AxiomViolations(_) => println!("VIOLATION: non-cyclic axioms failed"),
        Outcome::CyclicViolation(v) => println!("VIOLATION: {}", v.anomaly),
        Outcome::Inconclusive(why) => println!("INCONCLUSIVE: {}", why.reason()),
    }
    for note in notes {
        println!("  {note}");
    }
    let label = |t: TxnId| labels.map_or_else(|| t.to_string(), |h| h.txn(t).label());
    let first = if quiet { 1 } else { usize::MAX };
    match outcome {
        Outcome::AxiomViolations(vs) => vs.iter().take(first).for_each(|v| println!("  - {v}")),
        Outcome::CyclicViolation(v) if !quiet => {
            for e in &v.cycle {
                println!("  {} {} -> {}", e.label, label(e.from), label(e.to));
            }
        }
        Outcome::Inconclusive(why) => {
            for &(t, key, value) in why.reads().iter().take(first) {
                let t = label(t);
                println!("  - {t} read value {value} of key {key} below the compaction watermark");
            }
        }
        _ => {}
    }
    exit_code(outcome)
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
    obs: &Obs,
    out: Output,
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
    if out.json {
        let json =
            live_report_json(&report, isolation, t0.elapsed(), Some(&obs.metrics.snapshot()));
        println!("{json}");
        return exit_code(report.verdict());
    }
    if !out.quiet {
        for cp in &report.checkpoints {
            print_checkpoint(&cp.report, total, cp.degraded);
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
    print_outcome(report.verdict(), isolation, Some("live"), &[], None, out.quiet)
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
            if live && dot_path.is_some() {
                eprintln!("--dot needs the checked history, which --live does not keep");
                return usage();
            }
            let out = Output { quiet, json: report_json, dot: dot_path.as_deref() };
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
                    live_check(&history, isolation, opts, checkpoints, &obs, out)
                } else {
                    stream_check(&history, isolation, opts, checkpoints, &obs, out)
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
                out.dot(&report.outcome, &history);
                return exit_code(&report.outcome);
            }
            let shard_line = report.shard_stats.map(|s| match s.fallback {
                None => {
                    format!("sharded into {} components (largest {} txns)", s.components, s.largest)
                }
                Some(f) => {
                    format!("whole-history check ({f:?}, {} key components)", s.key_components)
                }
            });
            let mut notes = Vec::new();
            if !quiet {
                if report.accepted() {
                    notes.push(HistoryStats::of(&history).to_string());
                }
                notes.extend(shard_line);
                if report.accepted() {
                    notes.push(format!("checked in {elapsed:?}"));
                }
            }
            let code =
                print_outcome(&report.outcome, isolation, None, &notes, Some(&history), quiet);
            out.dot(&report.outcome, &history);
            code
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
