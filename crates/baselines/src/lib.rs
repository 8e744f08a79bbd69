//! # polysi-baselines — the competing checkers of the PolySI evaluation
//!
//! Reimplementations of the baselines PolySI is compared against in
//! Section 5.4:
//!
//! * [`dbcop`] — the most efficient solver-free black-box SI checker:
//!   explicit memoized search over begin/commit interleavings;
//! * [`cobra`] — the state-of-the-art SAT-based **serializability**
//!   checker (plain acyclicity over `SO ∪ WR ∪ WW ∪ RW`, RMW inference,
//!   reachability pruning);
//! * [`cobra_si`] — SI checking by reduction to the doubled-graph
//!   acyclicity problem fed to the Cobra machinery (the paper's CobraSI;
//!   no GPU acceleration exists in this environment).
//!
//! All three share the verdict-level contract with
//! `polysi_checker::check` and are cross-validated against it in this
//! crate's test suite.

pub mod cobra;
pub mod cobra_si;
pub mod dbcop;

pub use cobra::{cobra_check_ser, CobraOptions, CobraStats, SerVerdict};
pub use cobra_si::{cobra_si_check, CobraSiStats, SiVerdict};
pub use dbcop::{dbcop_check_si, dbcop_check_si_deepening, DbcopReport, DbcopVerdict};
