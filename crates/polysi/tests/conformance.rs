//! Differential conformance harness: every checker in the workspace must
//! agree on every history in the shared conformance corpus
//! ([`polysi::dbsim::testkit`]).
//!
//! Checkers under test:
//!
//! * `check` — the PolySI pipeline (default options and `--no-pruning`);
//! * the brute-force Theorem-6 `oracle` (on cases where its exponential
//!   search space is feasible);
//! * `dbcop` — interleaving search (a generous state budget stands in for
//!   the paper's timeout; a budget exhaustion is "no opinion", not a
//!   disagreement, and is only tolerated on non-corpus cases);
//! * `cobra_si` — the doubled-graph CobraSI reduction;
//! * `cobra` — serializability; its verdict relates to SI through the
//!   isolation hierarchy (SER ⊆ SI) rather than by equality.
//!
//! Beyond verdict agreement, every known-anomalous corpus entry must be
//! *detected* (rejected by all SI checkers) and *classified* into the
//! anomaly classes its provenance allows.
//!
//! The modes of the PolySI pipeline itself — sharding, prune threads, hash
//! seeds, the two history formats, streaming with each compaction mode,
//! the live hub under each tolerable delivery fault — are the rows of the
//! mode matrix ([`support::modes`]), each checked against plain batch by
//! its contract in the suite of its subject; the hash-seed rows are
//! checked here.

use polysi::baselines::{
    cobra_check_ser, cobra_si_check, dbcop_check_si_deepening, CobraOptions, DbcopVerdict,
    SerVerdict, SiVerdict,
};
use polysi::checker::engine::{check, EngineOptions, IsolationLevel, Sharding};
use polysi::checker::{oracle::oracle_check_si_with_limit, Outcome};
use polysi::dbsim::testkit::{conformance_corpus, ConformanceCase, Expectation};
use polysi::history::{AxiomViolation, Facts, History};

mod support;

const CORPUS_SEED: u64 = 0xC0F_FEE;
const SEEDS_PER_CONFIG: u64 = 2;
const CORPUS_ANOMALIES: usize = 24;
/// dbcop's iterative-deepening schedule: most corpus cases decide at the
/// small initial budget; the hard cases re-search with doubled budgets up
/// to the cap (the flat budget used to be 2M states for every case).
const DBCOP_INITIAL_BUDGET: usize = 250_000;
const DBCOP_BUDGET_CAP: usize = 4_000_000;
const ORACLE_COMBO_LIMIT: u64 = 20_000;

/// Built once and shared: the three tests sweep the same corpus, and
/// generation (48 simulator runs + 24 replay draws) dominates their cost.
fn corpus() -> &'static [ConformanceCase] {
    static CORPUS: std::sync::OnceLock<Vec<ConformanceCase>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let cases = conformance_corpus(CORPUS_SEED, SEEDS_PER_CONFIG, CORPUS_ANOMALIES);
        assert!(cases.len() >= 50, "conformance corpus too small: {} cases", cases.len());
        cases
    })
}

/// The anomaly-class names a check report exhibits (cyclic classification
/// or axiom-level classes).
fn observed_classes(outcome: &Outcome) -> Vec<&'static str> {
    match outcome {
        Outcome::Si | Outcome::Inconclusive(_) => vec![],
        Outcome::CyclicViolation(v) => vec![v.anomaly.name()],
        Outcome::AxiomViolations(vs) => vs
            .iter()
            .map(|v| match v {
                AxiomViolation::Int { .. } => "int violation",
                AxiomViolation::AbortedRead { .. } => "aborted read",
                AxiomViolation::IntermediateRead { .. } => "intermediate read",
                AxiomViolation::DuplicateWrite { .. } => "unique-value violation",
                AxiomViolation::UnknownValueRead { .. } => "unknown-value read",
                AxiomViolation::WroteInitValue { .. } => "wrote-init-value",
                AxiomViolation::CompactedDuplicateWrite { .. } => "unique-value violation",
            })
            .collect(),
    }
}

/// Whether the Theorem-6 oracle's per-key version-order enumeration is
/// small enough to run (it panics above its limit otherwise).
fn oracle_feasible(h: &History) -> bool {
    let facts = Facts::analyze(h);
    let mut combos: u64 = 1;
    for ws in facts.writers.values() {
        let perms: u64 = match (1..=ws.len() as u64).try_fold(1u64, u64::checked_mul) {
            Some(p) => p,
            None => return false,
        };
        combos = match combos.checked_mul(perms) {
            Some(c) if c <= ORACLE_COMBO_LIMIT => c,
            _ => return false,
        };
    }
    true
}

/// All SI deciders agree on every corpus case; the oracle anchors the
/// verdict wherever it is feasible.
#[test]
fn all_si_checkers_agree_on_conformance_corpus() {
    let mut oracle_runs = 0usize;
    let mut dbcop_timeouts = 0usize;
    let cases = corpus();
    let total = cases.len();

    for case in cases {
        let h = &case.history;
        let polysi = check(h, IsolationLevel::Si, &EngineOptions::default());
        let verdict = polysi.accepted();

        // The pipeline's own ablations may not change the verdict.
        let no_pruning = EngineOptions { pruning: false, ..Default::default() };
        let no_pruning = check(h, IsolationLevel::Si, &no_pruning).accepted();
        assert_eq!(verdict, no_pruning, "{}: pruning changed the verdict", case.name);

        let (cobrasi, _) = cobra_si_check(h);
        assert_eq!(
            cobrasi == SiVerdict::Si,
            verdict,
            "{}: CobraSI disagrees with PolySI",
            case.name
        );

        match dbcop_check_si_deepening(h, DBCOP_INITIAL_BUDGET, DBCOP_BUDGET_CAP).verdict {
            DbcopVerdict::Si => {
                assert!(verdict, "{}: dbcop=Si but PolySI rejects", case.name)
            }
            DbcopVerdict::NotSi => {
                assert!(!verdict, "{}: dbcop=NotSi but PolySI accepts", case.name)
            }
            DbcopVerdict::Timeout => {
                assert!(
                    !matches!(case.expected, Expectation::Anomalous { .. }),
                    "{}: dbcop budget exhausted on a corpus replay",
                    case.name
                );
                dbcop_timeouts += 1;
            }
        }

        if oracle_feasible(h) {
            oracle_runs += 1;
            assert_eq!(
                oracle_check_si_with_limit(h, ORACLE_COMBO_LIMIT),
                verdict,
                "{}: brute-force oracle disagrees with PolySI",
                case.name
            );
        }

        // Ground truth where the corpus knows it a priori.
        match case.expected {
            Expectation::Si { .. } => {
                assert!(verdict, "{}: correct-level history rejected", case.name)
            }
            Expectation::Anomalous { .. } => {
                assert!(!verdict, "{}: known anomaly not detected", case.name)
            }
            Expectation::FaultInjected { .. } => {}
        }
    }

    // The sweep must really exercise the oracle and rarely lose dbcop.
    assert!(
        oracle_runs * 3 >= total,
        "oracle feasible on only {oracle_runs}/{total} cases — corpus drifted too large"
    );
    // ≤5% budget exhaustion (tightened from 8%): iterative deepening
    // doubles the state budget on exhaustion up to a 4M-state cap, so the
    // hard tail gets twice the old flat budget while the cheap majority
    // still decides at the 250k initial budget.
    assert!(
        dbcop_timeouts * 100 <= total * 5,
        "dbcop timed out on {dbcop_timeouts}/{total} cases — budget or corpus miscalibrated"
    );
}

/// Every injected anomaly is caught and classified into the classes its
/// provenance allows; every fault-injected rejection classifies likewise.
#[test]
fn injected_anomalies_are_caught_and_classified() {
    let mut anomalous = 0usize;
    for case in corpus() {
        let allowed = match case.expected {
            Expectation::Anomalous { classes } => {
                anomalous += 1;
                classes
            }
            Expectation::FaultInjected { classes } => classes,
            Expectation::Si { .. } => continue,
        };
        let report = check(&case.history, IsolationLevel::Si, &EngineOptions::default());
        let observed = observed_classes(&report.outcome);
        if matches!(case.expected, Expectation::Anomalous { .. }) {
            assert!(!observed.is_empty(), "{}: known anomaly not detected (verdict SI)", case.name);
        }
        for class in &observed {
            assert!(
                allowed.contains(class),
                "{}: classified as {class:?}, allowed classes {allowed:?}",
                case.name
            );
        }
    }
    assert!(anomalous >= CORPUS_ANOMALIES, "only {anomalous} anomalous cases swept");
}

/// The engine's first-class SER mode is differentially tested against the
/// independent Cobra baseline on the full conformance corpus: zero verdict
/// disagreements, sharded or not.
#[test]
fn engine_ser_mode_agrees_with_cobra_on_corpus() {
    for case in corpus() {
        let cobra = cobra_check_ser(&case.history, &CobraOptions::default()).0;
        for sharding in [Sharding::Off, Sharding::Auto] {
            let opts = EngineOptions { sharding, interpret: false, ..Default::default() };
            let engine = check(&case.history, IsolationLevel::Ser, &opts);
            assert_eq!(
                engine.accepted(),
                cobra == SerVerdict::Serializable,
                "{}: engine SER ({sharding:?}) disagrees with Cobra",
                case.name
            );
        }
        // The hierarchy inside the engine itself: SER acceptance implies
        // SI acceptance.
        let opts =
            EngineOptions { sharding: Sharding::Off, interpret: false, ..Default::default() };
        if check(&case.history, IsolationLevel::Ser, &opts).accepted() {
            assert!(
                check(&case.history, IsolationLevel::Si, &opts).accepted(),
                "{}: engine says SER but not SI",
                case.name
            );
        }
    }
}

/// Cobra's serializability verdict respects the isolation hierarchy on
/// the whole corpus: SER implies SI, and serial executions are SER.
#[test]
fn serializability_hierarchy_holds_on_corpus() {
    for case in corpus() {
        let (ser, _) = cobra_check_ser(&case.history, &CobraOptions::default());
        if ser == SerVerdict::Serializable {
            assert!(
                check(&case.history, IsolationLevel::Si, &EngineOptions::default()).accepted(),
                "{}: serializable but not SI — hierarchy violated",
                case.name
            );
        }
        if let Expectation::Si { serializable: true } = case.expected {
            assert_eq!(
                ser,
                SerVerdict::Serializable,
                "{}: serial execution rejected by Cobra",
                case.name
            );
        }
    }
}

/// The hash-seed rows of the mode matrix: a check under either of two
/// forced process hash seeds is byte-identical to plain batch, under SI and
/// SER, on every history of the matrix corpus.
#[test]
fn reports_do_not_depend_on_the_hash_seed() {
    support::check_modes(&["hash seed a", "hash seed b"], |_, _, _| {});
}
