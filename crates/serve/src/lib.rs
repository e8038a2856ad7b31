//! # pug-serve — a fault-tolerant persistent verification service
//!
//! The in-process runner (`pugpara::runner::run_resilient`) answers "check
//! this pair once"; this crate answers "keep a verifier *warm* and let
//! many clients submit kernel pairs over time". A long-lived daemon owns
//! one shared worker pool, which runs each job's degradation ladder as one
//! pool job, one process-wide bounded [`pugpara::QueryCache`] and one
//! `pug-obs` [`pug_obs::MetricsRegistry`]; jobs arrive as line-delimited
//! JSON over TCP, in the shared [`pug_obs::Json`] codec (the build is
//! offline, so no serde/tokio/hyper).
//!
//! The four properties the daemon guarantees (see [`server`] for the
//! mechanics, and `DESIGN.md` §6 for the rationale):
//!
//! * **Admission control & backpressure** — the job queue is bounded by
//!   process-wide memory caps divided into per-job slices; beyond it, jobs
//!   are shed *immediately* with `overloaded` + `retry_after_ms`, never
//!   queued unboundedly.
//! * **Per-job fault isolation** — each admitted request is one job on the
//!   pool, under a child [`pug_smt::CancelToken`] that carries the job's
//!   hard deadline and under its own `catch_unwind`; a panicking, hung or
//!   cancelled job answers for itself and nothing else. A disconnected
//!   client cancels exactly its own jobs.
//! * **Graceful shutdown** — SIGTERM/ctrl-c (or the wire `shutdown` op)
//!   stops admission, drains in-flight jobs to a deadline, then cancels
//!   stragglers; aborted jobs still answer with their partial rung
//!   provenance.
//! * **Warm shared state** — the cross-job unsat cache makes repeat
//!   submissions of a kernel family dramatically cheaper; `GET /metrics`
//!   exposes the registry; `explain` narratives stream on request.

pub mod client;
pub mod corpus;
mod pool;
pub mod protocol;
pub mod server;
pub mod signal;
mod wire;

pub use client::{http_metrics, Client};
pub use protocol::{parse_request, KernelSpec, Request, VerifyRequest};
pub use server::{start, DrainReport, ServeConfig, ServerHandle};
