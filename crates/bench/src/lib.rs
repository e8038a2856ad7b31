//! # pug-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation (§V): **Table II** (equivalence
//! checking of bug-free SDK kernels, non-parameterized at n = 4…32 vs
//! parameterized, with and without concretization "+C.") and **Table III**
//! (the same comparison on seeded-bug versions). Every cell is one
//! [`cells::Outcome`]: SMT time on success, `*`-marked time when the
//! checker (correctly) reports non-equivalence, or `T.O` on budget
//! exhaustion — exactly the notation of the paper's tables.
//!
//! Absolute times differ from the paper's 2012 laptop + Z3; the *shape*
//! (parameterized ≪ non-parameterized, blow-up in n and bit width,
//! concretization rescuing hard instances) is the reproduction target. See
//! EXPERIMENTS.md for the side-by-side record.

pub mod cells;
pub mod observe;
pub mod tables;

pub use cells::Outcome;
pub use observe::{explain_corpus, explain_rows};
pub use tables::{render_rows, scaling_rows, table2_rows, table3_rows, TableRow};
