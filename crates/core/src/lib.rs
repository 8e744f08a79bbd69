//! # polysi-checker — the PolySI snapshot-isolation checker
//!
//! A complete reimplementation of the PolySI pipeline (VLDB 2023):
//!
//! 1. **Axioms** — `Int`, aborted reads, intermediate reads, UniqueValue
//!    (via [`polysi_history::Facts`]);
//! 2. **Construction** — the generalized polygraph of the history
//!    ([`polysi_polygraph::Polygraph`]);
//! 3. **Pruning** — resolve constraints whose one side closes a cycle in
//!    the known induced graph (Algorithm 1);
//! 4. **Encoding + solving** — remaining constraints become selector
//!    variables guarding layered graph edges in a SAT-modulo-acyclicity
//!    solver ([`polysi_solver::Solver`]);
//! 5. **Interpretation** — on violation, restore the missing participants
//!    and produce a minimal, classified counterexample
//!    ([`interpret::interpret`], [`anomaly::Anomaly`]).
//!
//! The crate also ships a brute-force [`oracle`] (Theorem 6 executed
//! literally) used by the property-test suite to validate soundness and
//! completeness, a Graphviz [`dot`] renderer, and the PolySI-List extension
//! ([`list`]) for Elle-style list-append histories.
//!
//! ```
//! use polysi_checker::{check, EngineOptions, IsolationLevel, Outcome};
//! use polysi_history::{HistoryBuilder, Key, Value};
//!
//! let mut b = HistoryBuilder::new();
//! b.session();
//! b.begin().write(Key(1), Value(10)).commit();
//! b.session();
//! b.begin().read(Key(1), Value(10)).write(Key(1), Value(11)).commit();
//! b.session();
//! b.begin().read(Key(1), Value(10)).write(Key(1), Value(12)).commit();
//!
//! let report = check(&b.build(), IsolationLevel::Si, &EngineOptions::default());
//! match report.outcome {
//!     Outcome::CyclicViolation(v) => {
//!         println!("anomaly: {}", v.anomaly); // "lost update"
//!     }
//!     _ => unreachable!("this is a lost update"),
//! }
//! ```

pub mod anomaly;
mod check;
pub mod dot;
pub mod engine;
pub mod interpret;
pub mod list;
pub mod live;
pub mod oracle;
pub mod report;
pub mod stream;

pub use anomaly::Anomaly;
pub use check::{
    CheckReport, EncodeStats, Inconclusive, OracleCounts, Outcome, SolveStats, StageTimings,
    Violation,
};
pub use engine::{
    check, CheckEngine, EngineOptions, IsolationLevel, PruneThreads, ShardStats, Sharding, Stage,
};
pub use interpret::{Certainty, Scenario};
pub use list::{check_si_list, ListHistory, ListOp, ListReport, ListTxn, ListViolation};
pub use live::{
    LiveChecker, LiveCheckpoint, LiveClient, LiveConfig, LiveReport, LiveService, LiveStats,
};
pub use polysi_history::ShardFallback;
pub use polysi_polygraph::OracleKind;
pub use stream::{CheckpointReport, StreamRejection, StreamingChecker};
