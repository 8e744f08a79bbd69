//! # polysi-solver — SAT modulo graph acyclicity
//!
//! A from-scratch replacement for the MonoSAT solver \[Bayless et al.,
//! AAAI'15\] in the role PolySI uses it: deciding whether the Boolean
//! constraints of a (generalized) polygraph admit an assignment whose
//! induced edge set is **acyclic**.
//!
//! Two layers:
//!
//! * [`Solver`] — a CDCL SAT core (watched literals, VSIDS, first-UIP
//!   learning, phase saving, Luby restarts);
//! * [`theory::AcyclicityTheory`] — a monotonic graph theory: known edges
//!   are facts read through a [`theory::KnownEdges`] view (the caller's own
//!   graph, or one staged in the solver), symbolic edges are guarded by
//!   literals. It *detects*: any cycle produces a conflict clause over the
//!   guards of the symbolic edges on the cycle, found incrementally
//!   (Pearce–Kelly) as guards become true. And it *propagates*: a guard
//!   whose edge would close a cycle is implied false before it is tried.
//!
//! Detection is complete and is the judge; propagation is an accelerator
//! the solver gates on its own behaviour — off until the search's first
//! restart, then a work budget of 16 passes over the theory graph per
//! restart, abandoned when it runs dry — so an instance decided in a few
//! conflicts pays nothing for it and no instance pays more than a bounded
//! multiple of its graph per restart. There is no switch for it.
//!
//! ```
//! use polysi_solver::{Lit, Solver};
//!
//! // 0 → 1 known; choose between 1 → 2 and 2 → 0; forcing both directions
//! // of the triangle closed is unsatisfiable.
//! let mut s = Solver::with_graph(3);
//! let a = Lit::pos(s.new_var());
//! let b = Lit::pos(s.new_var());
//! s.add_known_edge(0, 1);
//! s.add_symbolic_edge(a, 1, 2);
//! s.add_symbolic_edge(b, 2, 0);
//! s.add_clause(&[a]);
//! s.add_clause(&[b]);
//! assert!(!s.solve().is_sat());
//! ```

mod heap;
mod solver;
pub mod theory;
mod types;

pub use solver::{Model, SolveResult, Solver, SolverStats};
pub use types::{LBool, Lit, Var};
