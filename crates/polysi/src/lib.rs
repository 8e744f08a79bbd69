//! # polysi — black-box snapshot isolation checking
//!
//! A facade crate re-exporting the full PolySI-rs workspace: a from-scratch
//! Rust reproduction of *"Efficient Black-box Checking of Snapshot Isolation
//! in Databases"* (PVLDB 16(6), 2023).
//!
//! The typical pipeline:
//!
//! 1. generate a workload ([`workloads`]) and run it against a database —
//!    here the deterministic MVCC simulator ([`dbsim`]) — collecting a
//!    client-observed [`history::History`];
//! 2. check the history against snapshot isolation with
//!    [`checker::check`], which builds a generalized polygraph
//!    ([`polygraph`]), prunes constraints, and decides acyclicity of the
//!    induced SI graph with a SAT-modulo-acyclicity solver ([`solver`]);
//! 3. on violation, interpret the counterexample
//!    ([`checker::interpret`]) into a minimal, classified scenario.
//!
//! Baseline checkers from the paper's evaluation (dbcop, Cobra, CobraSI)
//! live in [`baselines`].
//!
//! ```
//! use polysi::history::{HistoryBuilder, Key, Value};
//! use polysi::checker::{check, EngineOptions, IsolationLevel};
//!
//! // Lost update: both transactions read 10 and blindly overwrite it.
//! let mut b = HistoryBuilder::new();
//! b.session();
//! b.begin().write(Key(1), Value(10)).commit();
//! b.session();
//! b.begin().read(Key(1), Value(10)).write(Key(1), Value(11)).commit();
//! b.session();
//! b.begin().read(Key(1), Value(10)).write(Key(1), Value(12)).commit();
//!
//! let outcome = check(&b.build(), IsolationLevel::Si, &EngineOptions::default());
//! assert!(!outcome.accepted());
//! ```

pub use polysi_baselines as baselines;
pub use polysi_checker as checker;
pub use polysi_dbsim as dbsim;
pub use polysi_history as history;
pub use polysi_polygraph as polygraph;
pub use polysi_solver as solver;
pub use polysi_workloads as workloads;
