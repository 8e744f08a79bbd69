//! Every canonical anomaly template of the corpus must be rejected with
//! the classification its name promises — the "informative" criterion of
//! SIEGE+ made testable.

use polysi::checker::{check, Anomaly, EngineOptions, IsolationLevel, Outcome};
use polysi::dbsim::corpus::generate_corpus;

#[test]
fn corpus_templates_classified_as_named() {
    // Enough entries to include at least one instance of each of the
    // twenty templates (they alternate with fault-injected draws).
    let corpus = generate_corpus(40, 5);
    let mut seen = std::collections::HashSet::new();
    for entry in corpus {
        let Some(template) = entry.source.strip_prefix("template:") else {
            continue;
        };
        seen.insert(template.to_string());
        let report = check(&entry.history, IsolationLevel::Si, &EngineOptions::default());
        match (template, &report.outcome) {
            (
                "lost-update"
                | "sharded-lost-update"
                | "so-chain-lost-update"
                | "cascade-lost-update"
                | "checkpoint-flip"
                | "session-braid"
                | "monolithic-session"
                | "settled-prefix-late-anomaly"
                | "watermark-straddle-anomaly"
                | "duplicate-delivery-lost-update",
                Outcome::CyclicViolation(v),
            ) => {
                assert_eq!(v.anomaly, Anomaly::LostUpdate)
            }
            (
                "long-fork"
                | "sharded-long-fork"
                | "so-chain-long-fork"
                | "late-arriving-anomaly"
                | "stalled-session-long-fork",
                Outcome::CyclicViolation(v),
            ) => {
                assert_eq!(v.anomaly, Anomaly::LongFork)
            }
            ("causality-violation" | "so-cascade-causality", Outcome::CyclicViolation(v)) => {
                assert!(
                    matches!(v.anomaly, Anomaly::CausalityViolation | Anomaly::WriteReadCycle),
                    "got {:?}",
                    v.anomaly
                )
            }
            ("fractured-read", Outcome::CyclicViolation(v)) => {
                assert!(
                    matches!(v.anomaly, Anomaly::FracturedRead | Anomaly::CausalityViolation),
                    "got {:?}",
                    v.anomaly
                )
            }
            ("aborted-read" | "intermediate-read", Outcome::AxiomViolations(_)) => {}
            (t, _) => panic!("template {t} produced the wrong outcome kind"),
        }
    }
    assert_eq!(seen.len(), 20, "all twenty templates exercised: {seen:?}");
}

#[test]
fn whole_corpus_is_rejected() {
    for entry in generate_corpus(60, 11) {
        assert!(
            !check(&entry.history, IsolationLevel::Si, &EngineOptions::default()).accepted(),
            "corpus entry {} wrongly accepted",
            entry.source
        );
    }
}
