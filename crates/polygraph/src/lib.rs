//! # polysi-polygraph — generalized polygraphs for SI checking
//!
//! The data structure at the heart of PolySI (Section 3 of the paper): a
//! *generalized polygraph* captures, in one compact object, every dependency
//! graph a history could extend to — known `SO`/`WR` edges plus
//! `⟨either, or⟩` constraints over the unknown per-key version orders.
//!
//! This crate provides:
//!
//! * [`Edge`]/[`Label`] — typed dependency edges;
//! * [`ConstraintSet`] — generalized (Definition 9) and plain
//!   (Definition 8) constraints in one flat edge arena, read through
//!   borrowed [`ConstraintRef`] views;
//! * [`ConstraintGen`] — a unit's constraints before any is stored, to be
//!   stored whole or fed straight into the first prune pass, which
//!   generates only the pairs its oracle leaves to decide ([`Covers`]);
//! * [`Polygraph::from_history`] — construction from a history's
//!   [`polysi_history::Facts`];
//! * [`Polygraph::prune`] / [`Polygraph::prune_generated`] — the paper's
//!   Algorithm 1: iteratively resolve constraints whose one possibility
//!   would close a cycle in the known induced graph, the generated variant
//!   storing only what its first pass leaves undecided;
//!   [`Polygraph::prune_resume`] is the generated variant on a warm oracle,
//!   for a stream delta ([`ConstraintGen::delta`]);
//! * [`KnownGraph`] — a reachability oracle over the known induced SI graph
//!   `Dep ∪ (Dep ; AntiDep)`, implemented on a layered graph so the
//!   quadratic composition is never materialized;
//! * [`DepGraph`] — the same layered graph without an oracle, for path
//!   searches over edges that may close cycles (a counterexample's
//!   interpretation) and the prune rule's refutation of a constraint side;
//! * [`Semantics`] — the edge-composition rule: SI's `(Dep);RW?` layered
//!   graph or SER's plain acyclicity over all dependency edges;
//! * [`Polygraph::from_component`] — construction over one
//!   key-connectivity component ([`polysi_history::ShardComponent`]) of
//!   facts that cover more than it (a stream's), at cost proportional to
//!   the component.

pub mod bitset;
mod constraint;
mod edge;
mod graph;
mod polygraph;

pub use constraint::{ConstraintGen, ConstraintRef, ConstraintSet, Covers};
pub use edge::{Edge, Label};
pub use graph::{layered_images, DepGraph, Flush, KnownGraph, KnownGraphResult, OracleKind};
pub use polygraph::{ConstraintMode, Polygraph, PruneResult, PruneStats, Semantics};
