//! Table 2 + Section 5.2.2: detect SI violations in the simulated
//! production-database profiles, classify them, and emit the interpreted
//! counterexample of the MariaDB-Galera analogue (the paper's Figure 5) as
//! Graphviz DOT files. Exits non-zero when a profile's runs never show its
//! expected anomaly family.

use polysi_bench::{csv_append, CountingAllocator};
use polysi_checker::{check, dot, Anomaly, EngineOptions, IsolationLevel, Outcome};
use polysi_dbsim::{run, table2_profiles, ExpectedAnomaly, SimConfig};
use polysi_workloads::{generate, GeneralParams};

/// Whether a detected anomaly matches the defect class injected in the
/// profile.
fn matches_expected(expected: ExpectedAnomaly, found: &Outcome) -> bool {
    match (expected, found) {
        (ExpectedAnomaly::DirtyRead, Outcome::AxiomViolations(_)) => true,
        (ExpectedAnomaly::LostUpdate, Outcome::CyclicViolation(v)) => {
            v.anomaly == Anomaly::LostUpdate
        }
        (ExpectedAnomaly::CausalityViolation, Outcome::CyclicViolation(v)) => {
            matches!(v.anomaly, Anomaly::CausalityViolation | Anomaly::WriteReadCycle)
        }
        (ExpectedAnomaly::LongFork, Outcome::CyclicViolation(v)) => {
            matches!(v.anomaly, Anomaly::LongFork | Anomaly::FracturedRead)
        }
        _ => false,
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    println!("# Table 2: violations detected in simulated database profiles");
    println!(
        "{:<30} {:<12} {:<12} {:<10} {:<22} runs-to-detect",
        "database", "kind", "release", "new?", "anomaly found"
    );
    let mut rows = Vec::new();
    for profile in table2_profiles() {
        let found = (0..80u64).find_map(|attempt| {
            let plan = generate(&GeneralParams {
                sessions: 6,
                txns_per_session: 30,
                ops_per_txn: 4,
                keys: 10,
                read_pct: 50,
                seed: attempt,
                ..Default::default()
            });
            let sim = run(&plan, &SimConfig::new(profile.level, attempt));
            let report = check(&sim.history, IsolationLevel::Si, &EngineOptions::default());
            if !matches_expected(profile.expected, &report.outcome) {
                return None;
            }
            Some(match &report.outcome {
                Outcome::Si | Outcome::Inconclusive(_) => unreachable!("no anomaly is expected"),
                Outcome::AxiomViolations(vs) => {
                    (format!("dirty read ({})", vs[0]), attempt + 1, None)
                }
                Outcome::CyclicViolation(v) => {
                    let dot_out = v.scenario.as_ref().map(|s| {
                        (
                            dot::scenario_to_dot(&sim.history, s),
                            dot::finalized_to_dot(&sim.history, s),
                        )
                    });
                    (v.anomaly.to_string(), attempt + 1, dot_out)
                }
            })
        });
        let Some((anomaly, attempts, dot_out)) = found else {
            eprintln!("{}: no run of 80 shows {:?}", profile.name, profile.expected);
            std::process::exit(1);
        };
        println!(
            "{:<30} {:<12} {:<12} {:<10} {:<22} {}",
            profile.name,
            profile.kind,
            profile.release,
            if profile.new_finding { "new" } else { "known" },
            anomaly,
            attempts
        );
        rows.push(format!(
            "{},{},{},{},{},{}",
            profile.name, profile.kind, profile.release, profile.new_finding, anomaly, attempts
        ));
        if let Some((recovered, finalized)) = dot_out {
            let slug: String = profile
                .name
                .chars()
                .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
                .collect();
            std::fs::create_dir_all("bench_results").unwrap();
            std::fs::write(format!("bench_results/{slug}-recovered.dot"), recovered).unwrap();
            std::fs::write(format!("bench_results/{slug}-finalized.dot"), finalized).unwrap();
        }
    }
    csv_append("table2", "database,kind,release,new_finding,anomaly,runs_to_detect", &rows);
    println!("\nCSV appended to bench_results/table2.csv; counterexample DOT files written.");
}
