//! `repro-tables --trace PATH` / `--explain` — the observability surface.
//!
//! * [`trace_smoke`] runs one traced equivalence check (the transpose
//!   pair with concretized dimensions, auxiliary passes on), writes the
//!   JSONL event stream to a file, re-parses it, and structurally
//!   validates the span tree — the CI-facing proof that the exporter and
//!   the parser agree and that every span closes exactly once.
//! * [`explain_rows`] runs the racing grid's kernel pairs through the
//!   sequential ladder and renders each [`ResilientReport`] as a verdict
//!   narrative via [`pugpara::explain_report`].

use pug_ir::GpuConfig;
use pug_obs::{parse_jsonl, validate, MetricsRegistry, TraceSink};
use pugpara::runner::{run_resilient, ResilientReport, RunnerOptions};
use pugpara::KernelUnit;
use std::time::Duration;

/// The explain corpus: the racing grid's pairs, run sequentially.
/// `aux_passes` adds the race/bank-conflict/coalescing passes to each
/// narrative; the golden snapshot suite runs without them (on the hard
/// transpose rows their budgeted queries sit near the deadline boundary,
/// so their summaries are not run-to-run stable).
pub fn explain_corpus(quick: bool, aux_passes: bool) -> Vec<(String, ResilientReport)> {
    crate::portfolio::grid(quick)
        .into_iter()
        .map(|p| {
            let opts = if aux_passes { p.opts.with_aux_passes() } else { p.opts };
            let report = run_resilient(&p.src, &p.tgt, &p.cfg, &opts);
            (p.name.to_string(), report)
        })
        .collect()
}

/// Render the explain narrative (with times) for every corpus pair.
pub fn explain_rows(quick: bool) -> String {
    let mut out = String::new();
    for (name, report) in explain_corpus(quick, true) {
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&pugpara::explain_report(&report));
        out.push('\n');
    }
    out
}

/// Run one fully traced verification, write the JSONL stream to `path`,
/// re-parse and validate it, and return a human-readable summary. `Err`
/// means the trace was structurally broken — CI fails on it.
pub fn trace_smoke(path: &str) -> Result<String, String> {
    let load = |s: &str| KernelUnit::load(s).expect("bundled kernel loads");
    let src = load(pug_kernels::transpose::NAIVE);
    let tgt = load(pug_kernels::transpose::OPTIMIZED);
    let cfg = GpuConfig::symbolic_2d(8);

    let sink = TraceSink::recording();
    let metrics = MetricsRegistry::new();
    let opts = RunnerOptions {
        rung_timeout: Some(Duration::from_secs(2)),
        concretize: [("width".to_string(), 8), ("height".to_string(), 8)]
            .into_iter()
            .collect(),
        ..RunnerOptions::default()
    }
    .with_trace(sink.clone())
    .with_metrics(metrics.clone())
    .with_aux_passes();
    let report = run_resilient(&src, &tgt, &cfg, &opts);

    let jsonl = sink.to_jsonl();
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;

    // Round-trip: what we wrote must parse back and form a well-shaped
    // span tree (balanced opens/closes, strictly increasing sequence).
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
    let events = parse_jsonl(&text)?;
    let summary = validate(&events)?;
    if sink.is_truncated() {
        return Err("trace sink overflowed its event cap during the smoke".into());
    }

    let queries = metrics.snapshot().counter("queries.total");
    let mut out = format!(
        "trace smoke: verdict `{}`, {} events -> {path}\n\
         span tree: {} spans, {} points, max depth {} — structurally valid\n",
        report.verdict,
        events.len(),
        summary.spans,
        summary.points,
        summary.max_depth,
    );
    out.push_str(&format!("metrics: {queries} queries recorded\n"));
    out.push_str("\nmetrics snapshot:\n");
    out.push_str(&metrics.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_smoke_round_trips() {
        let path = std::env::temp_dir().join("pug-trace-smoke-test.jsonl");
        let summary = trace_smoke(path.to_str().unwrap()).expect("smoke validates");
        assert!(summary.contains("structurally valid"));
        assert!(summary.contains("queries.total"));
        let _ = std::fs::remove_file(path);
    }
}
