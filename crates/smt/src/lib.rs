//! # pug-smt — bit-vector + array SMT layer
//!
//! The SMT solver substrate of the PUGpara reproduction (the paper used Z3;
//! see DESIGN.md §2 for the substitution argument). Pipeline:
//!
//! 1. **Terms** ([`term::Ctx`]): hash-consed QF_ABV DAG with simplifying
//!    constructors (constant folding, algebraic identities, power-of-two
//!    strength reduction).
//! 2. **Array elimination** ([`arrays`]): store-chain reduction
//!    `select(store(a,i,v),j) → ite(i=j,v,select(a,j))` plus Ackermann
//!    expansion of base-array reads.
//! 3. **Bit-blasting** ([`bitblast`]): Tseitin encoding of the remaining
//!    QF_BV formula into CNF.
//! 4. **CDCL** ([`pug_sat`]): the from-scratch SAT core, with resource
//!    budgets that surface as the paper's "T.O" entries.
//!
//! Counterexamples come back as [`Model`]s over the *original* variables,
//! with array values reconstructed from the Ackermann reads — the verifier
//! uses these to print bug witnesses (offending thread ids, configuration
//! and input values).
//!
//! ## Example
//!
//! ```
//! use pug_smt::{check, Budget, Ctx, SmtResult, Sort};
//!
//! let mut ctx = Ctx::new();
//! let x = ctx.mk_var("x", Sort::BitVec(8));
//! let seven = ctx.mk_bv_const(7, 8);
//! let lt = ctx.mk_bv_ult(x, seven);
//! let gt = ctx.mk_bv_ult(seven, x);
//! // x < 7 and 7 < x cannot hold together
//! assert!(matches!(check(&mut ctx, &[lt, gt], &Budget::unlimited()), SmtResult::Unsat));
//! ```

pub mod arrays;
pub mod bitblast;
pub mod eval;
pub mod model;
pub mod normalize;
pub mod session;
pub mod smtlib;
pub mod sort;
pub mod term;

mod solver;

pub use eval::{Env, Value};
pub use model::Model;
pub use normalize::Normalizer;
pub use pug_sat::failpoints;
pub use pug_sat::{Budget, CancelToken, ResourceBudget, SimplifyConfig};
pub use session::{assert_fingerprint, canonical_hash, SolveSession};
pub use solver::{check, check_detailed, check_detailed_with, check_valid, CheckStats, SmtResult};
pub use sort::Sort;
pub use term::{Ctx, Op, TermId};
