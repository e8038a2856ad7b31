//! # pug-sat — CDCL SAT solver substrate
//!
//! The PUGpara verifier discharges its verification conditions through an
//! SMT layer ([`pug-smt`](../pug_smt/index.html)) that bit-blasts bit-vector
//! formulas down to propositional CNF. This crate is the propositional
//! engine underneath: a conflict-driven clause-learning (CDCL) solver with
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP conflict analysis and basic learnt-clause minimization,
//! * VSIDS variable activities with phase saving,
//! * Luby-sequence restarts,
//! * activity/LBD-driven learnt-clause database reduction,
//! * incremental solving under assumptions with failed-assumption cores, and
//! * resource budgets (conflicts / clause bytes / a cancellation token that
//!   carries the wall-clock deadline) so the verifier can report the
//!   paper's "T.O" outcome instead of hanging.
//!
//! The paper used Z3; this crate plus `pug-smt` is the from-scratch
//! replacement covering the exact QF_ABV fragment PUGpara emits (see
//! DESIGN.md §2 for the substitution argument).
//!
//! ## Example
//!
//! ```
//! use pug_sat::{Budget, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.pos(), b.pos()]);
//! s.add_clause(&[a.neg()]);
//! assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
//! assert!(s.model_value(b));
//! ```

pub mod budget;
mod clause;
pub mod dimacs;
pub mod failpoints;
mod heap;
pub mod solver;
pub mod types;

pub use budget::{Budget, CancelToken};
pub use dimacs::Cnf;
pub use solver::simplify::SimplifyConfig;
pub use solver::{SolveResult, Solver, Stats};
pub use types::{LBool, Lit, Var};
