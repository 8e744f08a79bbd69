//! `polysi-benchmark`: the repository's one benchmark harness. See
//! `README.md` for the metric glossary, the workloads and the baseline.
//!
//! ```text
//! polysi-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! polysi-benchmark all       [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! polysi-benchmark selfcheck [--seed N] [--seconds S] [--quick]
//! ```
//!
//! Standard output carries one JSON object per workload and nothing else;
//! progress and the human-readable metric table go to standard error.

mod alloc;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use metrics::{END_TO_END, EXACT, PER_LAYER};
use run::{Config, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: polysi-benchmark <run --workload NAME | all | selfcheck> \
                     [--seed N] [--seconds S] [--trace [0|1]] [--quick]";

struct Args {
    command: String,
    workload: Option<Workload>,
    cfg: Config,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or(USAGE)?;
    let cfg = Config { seed: 7, seconds: 10.0, trace: false, quick: false };
    let mut args = Args { command, workload: None, cfg };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or(format!("unknown workload `{name}` (one of: {known})"))?,
                );
            }
            "--seed" => {
                args.cfg.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.cfg.seconds = seconds;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.cfg.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => args.cfg.quick = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    let units = END_TO_END.iter().map(|m| (m.0, m.1)).chain(PER_LAYER);
    units.into_iter().find(|m| m.0 == name).expect("a declared metric").1
}

/// The result line. `run` prints exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`: the end-to-end metrics, or with `--trace` the
/// per-layer ones. `all` and `selfcheck` put the workload's name in front,
/// and `--quick` marks its numbers as comparable with nothing.
fn result_json(o: &Outcome, with_name: bool) -> String {
    let mut out = String::from("{");
    if with_name {
        let _ = write!(out, "\"workload\": \"{}\", ", o.workload.name());
    }
    if o.quick {
        out.push_str("\"comparable\": false, ");
    }
    let _ = write!(
        out,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len()
    );
    let metrics = o.per_layer.as_ref().unwrap_or(&o.end_to_end);
    for (i, (name, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not a number");
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name));
    }
    out.push_str("}}");
    out
}

/// Every metric by name with its unit, for a person, on standard error.
fn print_table(o: &Outcome) {
    eprintln!(
        "[{}] {} reps x {} ops, {} attempted, {} failed{}",
        o.workload.name(),
        o.reps,
        o.ops_per_rep,
        o.attempted,
        o.failures.len(),
        if o.quick { "  (--quick: NOT COMPARABLE with full-size runs)" } else { "" }
    );
    for f in o.failures.iter().take(10) {
        eprintln!("  FAILED: {f}");
    }
    let mut bypassed = Vec::new();
    for &(name, value) in o.end_to_end.iter().chain(o.per_layer.iter().flatten()) {
        if value == 0.0 {
            bypassed.push(name);
        } else {
            eprintln!("  {name:<28} {value:>16.6} {}", unit_of(name));
        }
    }
    if !bypassed.is_empty() {
        eprintln!("  0 (layer bypassed): {}", bypassed.join(" "));
    }
}

fn run_one(workload: Workload, cfg: Config) -> Result<Outcome, String> {
    let outcome = run::run(workload, cfg)?;
    print_table(&outcome);
    Ok(outcome)
}

/// Run every workload twice on one seed; the two runs must agree on every
/// end-to-end metric within its bound and exactly on the repeatable counts.
fn selfcheck(cfg: Config) -> Result<bool, String> {
    let cfg = Config { trace: true, ..cfg };
    let mut agree = true;
    for w in Workload::ALL {
        let a = run_one(w, cfg)?;
        let b = run_one(w, cfg)?;
        for o in [&a, &b] {
            println!("{}", result_json(o, true));
            agree &= o.failures.is_empty();
        }
        let mut differ = |what: &str, x: f64, y: f64, bound: f64| {
            let gap = if x == y { 0.0 } else { (x - y).abs() / x.abs().min(y.abs()) };
            let ok = gap <= bound;
            let mark = if ok { "ok" } else { "DIFFERS" };
            eprintln!(
                "[selfcheck] {:<14} {what:<24} {x:>14.6} {y:>14.6} {gap:>8.4} {mark}",
                w.name()
            );
            agree &= ok;
        };
        for (i, &(name, _, bound)) in END_TO_END.iter().enumerate() {
            differ(name, a.end_to_end[i].1, b.end_to_end[i].1, bound);
        }
        differ("ops per rep", a.ops_per_rep as f64, b.ops_per_rep as f64, 0.0);
        let layer = |o: &Outcome, name: &str| {
            let layers = o.per_layer.as_ref().expect("selfcheck traces");
            layers.iter().find(|m| m.0 == name).expect("a declared metric").1
        };
        for name in EXACT {
            differ(name, layer(&a, name), layer(&b, name), 0.0);
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.command.as_str(), args.workload) {
        ("run", Some(w)) => run_one(w, args.cfg).map(|o| {
            println!("{}", result_json(&o, false));
            o.failures.is_empty()
        }),
        ("run", None) => Err(format!("run needs --workload\n{USAGE}")),
        ("all", _) => Workload::ALL.into_iter().try_fold(true, |ok, w| {
            let o = run_one(w, args.cfg)?;
            println!("{}", result_json(&o, true));
            Ok(ok & o.failures.is_empty())
        }),
        ("selfcheck", _) => selfcheck(args.cfg),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
