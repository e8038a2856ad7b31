//! # pugpara — parameterized verification of GPU kernel programs
//!
//! A from-scratch implementation of **PUGpara** (Li & Gopalakrishnan,
//! *Parameterized Verification of GPU Kernel Programs*, IPPS 2012): an
//! automated symbolic verifier that checks CUDA kernels **for an arbitrary
//! number of threads** and fully symbolic inputs.
//!
//! ## What it checks
//!
//! * **Functional equivalence** of a kernel and its optimized version
//!   ([`equiv::check_equivalence_param`]) — the paper's headline
//!   application, debugging memory-coalescing and bank-conflict-elimination
//!   optimizations. The non-parameterized §III baseline
//!   ([`equiv::check_equivalence_nonparam`]) serializes a concrete thread
//!   count and is the comparison point of the paper's Tables II/III.
//! * **Post-conditions / assertions** ([`postcond`]) — the §III assertion
//!   language with implicitly-quantified specification variables.
//! * **Data races** ([`race`]) — parameterized, two symbolic threads.
//! * **Performance defects** ([`perf`]) — shared-memory bank conflicts and
//!   non-coalesced global accesses.
//!
//! ## How the parameterized encoding works (§IV)
//!
//! Only one symbolic thread is modeled. Each barrier interval yields
//! *conditional assignments* `p(t) ? v[e(t)] := w(t)` ([`param`]); the value
//! of an output cell is resolved by instantiating CAs at fresh thread
//! variables and chaining them across barrier intervals with matching
//! constraints ([`resolve`], the paper's Figures 1–2 and §IV-C). The
//! residual quantified formulas ("no thread wrote this cell") are
//! discharged by witness correspondences or the monotone-map elimination of
//! [`qelim`] (§IV-D); in [`equiv::Mode::FastBugHunt`] they are dropped —
//! reported bugs are then still real, while proofs become
//! under-approximate ([`Soundness::UnderApprox`], §IV-A "Formal Status").
//! Loops preserved by the optimization are compared body-to-body after
//! header alignment (§IV-E).
//!
//! ## Example
//!
//! ```
//! use pugpara::equiv::{check_equivalence_param, CheckOptions};
//! use pugpara::KernelUnit;
//! use pug_ir::GpuConfig;
//!
//! let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
//! let opt = KernelUnit::load(pug_kernels::transpose::OPTIMIZED).unwrap();
//! // Arbitrary number of threads: the configuration stays symbolic.
//! let cfg = GpuConfig::symbolic_2d(8);
//! let report = check_equivalence_param(&naive, &opt, &cfg, &CheckOptions::default()).unwrap();
//! assert!(report.verdict.is_verified());
//! ```

pub mod capabilities;
pub mod equiv;
pub mod error;
pub mod explain;
pub mod kernel;
pub mod nonparam;
pub mod param;
pub mod perf;
pub mod portfolio;
pub mod postcond;
pub mod presburger;
pub mod qelim;
pub mod race;
pub mod resolve;
pub mod runner;
pub mod spec;
pub mod verdict;

pub use equiv::{
    check_equivalence_nonparam, check_equivalence_param, CheckOptions, Mode, QueryStat, Report,
};
pub use error::Error;
pub use explain::{explain_report, explain_with, ExplainOptions};
pub use kernel::KernelUnit;
pub use perf::{check_bank_conflicts, check_coalescing, PerfReport};
pub use portfolio::{
    run_portfolio, verify_all, verify_all_on, PortfolioOptions, QueryCache, QueryCacheStats,
    ShardStats, VerifyTask, WorkerPool, DEFAULT_QUERY_CACHE_CAPACITY,
    DEFAULT_QUERY_CACHE_SHARDS,
};
pub use postcond::{check_postcondition_nonparam, check_postcondition_param};
pub use pug_smt::failpoints;
pub use race::check_races;
pub use runner::{
    run_resilient, PassRecord, Provenance, ResilientReport, Rung, RungOutcome, RungRecord,
    RunnerOptions, Watchdog,
};
pub use verdict::{BugKind, BugReport, RaceClass, Soundness, Verdict};
