//! # pug-obs — structured tracing and metrics for the PUGpara pipeline
//!
//! Zero-dependency observability layer shared by `pug-sat`, `pug-smt` and
//! `pugpara`:
//!
//! - [`TraceSink`] / [`TraceSpan`]: hierarchical spans
//!   (`verify > rung:Param > bi:2 > query:race[out#2]`) with wall-clock
//!   timestamps, buffered in memory and exported as JSONL. The
//!   [`TraceSink::disabled`] fast path is a niche-optimised `None` — one
//!   branch per call site, measured ≤ 3% on the repro-tables aggregate.
//! - [`MetricsRegistry`]: named counters, gauges and log-bucketed duration
//!   histograms fed by the SAT core (conflicts, propagations, learnt
//!   clauses, restarts), the SMT layer (session epochs, Ackermann selects,
//!   CNF size, cache hits) and the runner (rung outcomes, CA instantiation
//!   chains, residual obligations proved by a witness thread).
//! - [`parse_jsonl`] / [`validate`]: round-trip and structural checks for
//!   trace dumps, used by the trace-parity and metrics-consistency tests.
//! - [`Json`]: the workspace's one JSON codec. It renders and parses the
//!   trace JSONL and the `pug-serve` wire protocol.
//!
//! The crate deliberately knows nothing about kernels or verdicts; the
//! `explain` narrative renderer lives in `pugpara`, next to the
//! `ResilientReport` it narrates.

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS};
pub use trace::{
    parse_jsonl, validate, AttrValue, Attrs, EventKind, SpanGuard, SpanId, TraceEvent, TraceSink,
    TraceSpan, TraceSummary,
};
