//! Metrics self-consistency: the counters, histograms, trace, and
//! provenance are four views of the same run and must agree exactly.
//!
//! For each of 100 KernelGen-fuzzed verification runs (SplitMix64 seeds,
//! basic and extended grammars, kernels writing one to four output arrays)
//! with a recording sink and a live registry:
//!
//! * the trace validates structurally — every opened span closed exactly
//!   once, sequence numbers strictly increasing;
//! * `queries.total` == number of `query:` spans in the trace
//!   == the `query_us` histogram's count
//!   == the sum of per-rung (and per-pass) `QueryStat` records;
//! * `queries.valid + queries.counterexample + queries.timeout` ==
//!   `queries.total` (a cache hit counts as valid), and
//!   `queries.cached <= queries.valid`;
//! * the per-lookup cache counters close the loop in-process:
//!   `cache.lookup_hits == queries.cached` and every non-discharged query
//!   performs exactly one lookup —
//!   `cache.lookup_hits + cache.lookup_misses ==
//!    queries.total − queries.discharged_by_rewrite`;
//! * rung-outcome counters sum to the number of rung records;
//! * race classification partitions: `races.provable + races.potential ==
//!   races.reported`;
//! * qelim counters: with the generalized elimination on (the default) no
//!   residual formula is ever dropped (`qelim.residual_dropped == 0`), and
//!   the drop/generalize counters only move when the ladder actually ran.

use pug_obs::{validate, EventKind, MetricsRegistry, TraceSink};
use pugpara::runner::{run_resilient, RunnerOptions};
use pugpara::KernelUnit;
use pug_ir::GpuConfig;
use pug_testutil::KernelGen;

fn fuzz_cfg() -> GpuConfig {
    GpuConfig {
        bits: 8,
        bdim: [pug_ir::Extent::Sym, pug_ir::Extent::Const(1), pug_ir::Extent::Const(1)],
        gdim: [pug_ir::Extent::Const(1), pug_ir::Extent::Const(1)],
    }
}

#[test]
fn metrics_agree_with_trace_and_provenance_on_fuzzed_runs() {
    for i in 0..100u64 {
        // Split the budget over both grammars; odd runs turn the auxiliary
        // passes on so their queries are covered by the invariant too.
        // Each pair of runs draws the next output-array count in 1–4, so
        // the per-array obligation loop is covered beyond one iteration.
        let arrays = 1 + (i as usize / 2) % 4;
        let (name, text) = if i < 50 {
            let mut g = KernelGen::basic(i * 13 + 1);
            let text = if arrays > 1 { g.multi_output_kernel(arrays) } else { g.kernel() };
            (format!("basic seed {i} ({arrays} arrays)"), text)
        } else {
            let mut g = KernelGen::extended(i * 71 + 9);
            let text = if arrays > 1 { g.multi_output_kernel(arrays) } else { g.kernel() };
            (format!("extended seed {i} ({arrays} arrays)"), text)
        };
        let unit = KernelUnit::load(&text).unwrap();
        let sink = TraceSink::recording();
        let metrics = MetricsRegistry::new();
        let mut opts = RunnerOptions::default()
            .with_trace(sink.clone())
            .with_metrics(metrics.clone());
        if i % 2 == 1 {
            opts = opts.with_aux_passes();
        }
        let report = run_resilient(&unit, &unit, &fuzz_cfg(), &opts);

        // Structural validity: spans balanced, seq strictly increasing.
        let events = sink.events();
        let summary = validate(&events)
            .unwrap_or_else(|e| panic!("{name}: broken trace: {e}\n{text}"));
        assert!(summary.spans > 0, "{name}: no spans recorded");

        let snap = metrics.snapshot();
        let total = snap.counter("queries.total");

        // View 1: trace — one query span per query.
        let query_spans = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Open) && e.name.starts_with("query:"))
            .count() as u64;
        assert_eq!(
            total, query_spans,
            "{name}: queries.total != query spans in trace\n{text}"
        );

        // View 2: histogram — one observation per query.
        let hist = snap
            .histogram("query_us")
            .unwrap_or_else(|| panic!("{name}: no query_us histogram"));
        assert_eq!(total, hist.count, "{name}: histogram count != queries.total");

        // View 3: provenance — every query ends up in some record. (Rungs
        // that crash lose their stats vector; fuzzed self-pairs never
        // crash, so equality is exact here.)
        let in_rungs: usize = report.provenance.rungs.iter().map(|r| r.stats.len()).sum();
        let in_passes: usize = report.provenance.passes.iter().map(|p| p.stats.len()).sum();
        assert_eq!(
            total as usize,
            in_rungs + in_passes,
            "{name}: provenance lost queries\n{}",
            report.provenance.render()
        );

        // Outcome counters partition the total; cache hits count as valid.
        let valid = snap.counter("queries.valid");
        let cex = snap.counter("queries.counterexample");
        let timeout = snap.counter("queries.timeout");
        let cached = snap.counter("queries.cached");
        assert_eq!(total, valid + cex + timeout, "{name}: outcome counters do not partition");
        assert!(cached <= valid, "{name}: cached > valid");

        // Per-lookup cache counters (the runner shares one QueryCache with
        // every rung and aux pass, so these are wired for the whole run):
        // a hit is exactly a `valid (cached)` outcome, and every query
        // that was not discharged by rewriting does exactly one lookup.
        let hits = snap.counter("cache.lookup_hits");
        let misses = snap.counter("cache.lookup_misses");
        let discharged = snap.counter("queries.discharged_by_rewrite");
        assert_eq!(hits, cached, "{name}: cache.lookup_hits != queries.cached");
        assert!(discharged <= valid, "{name}: discharged > valid");
        assert_eq!(
            hits + misses,
            total - discharged,
            "{name}: lookups do not cover the non-discharged queries\n{text}"
        );

        // Rung-outcome counters cover every ladder record.
        let rung_total: u64 = [
            "runner.rung.answered",
            "runner.rung.timeout",
            "runner.rung.crashed",
            "runner.rung.failed",
            "runner.rung.skipped",
            "runner.rung.abandoned",
        ]
        .iter()
        .map(|k| snap.counter(k))
        .sum();
        assert_eq!(
            rung_total as usize,
            report.provenance.rungs.len(),
            "{name}: rung counters != ladder records\n{}",
            report.provenance.render()
        );

        // Race classification partitions the reported races (the aux race
        // pass classifies every Sat race as provable or potential).
        let reported = snap.counter("races.reported");
        let provable = snap.counter("races.provable");
        let potential = snap.counter("races.potential");
        assert_eq!(
            reported,
            provable + potential,
            "{name}: race classes do not partition races.reported"
        );
        if report.provenance.passes.is_empty() {
            assert_eq!(reported, 0, "{name}: races reported without an aux pass");
        }

        // Qelim counters: the generalized elimination is on by default, so
        // the legacy residual-drop path must never fire.
        assert_eq!(
            snap.counter("qelim.residual_dropped"),
            0,
            "{name}: residual dropped while the generalized elimination is enabled"
        );
    }
}
