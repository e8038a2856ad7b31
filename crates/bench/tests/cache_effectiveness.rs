//! Cache-effectiveness regression vs the committed PR 7 baseline
//! (`BENCH_pr7.json`, the last pre-canonicalization bench run).
//!
//! Canonicalization changes the cross-rung `QueryCache` economics in one
//! direction only: obligations that collapse under rewriting are
//! discharged *before* the cache lookup, so they stop generating misses
//! (and occasionally stop generating hits — a row discharged in both the
//! hunt and the prove phase never touches the cache at all). The
//! measurable claims, asserted here against a fresh quick-grid run:
//!
//! * no common row's incremental miss count grows;
//! * at least one row's miss count strictly shrinks;
//! * the aggregate hit *rate* over the common rows strictly improves;
//! * at least one obligation is discharged by rewriting alone.

use pug_obs::Json;
use std::time::Duration;

/// Per-row incremental cache metrics of a bench JSON document.
#[derive(Debug, PartialEq)]
struct RowCache {
    name: String,
    hits: u64,
    misses: u64,
    discharged: u64,
}

fn parse_row_caches(json: &str) -> Vec<RowCache> {
    let doc = Json::parse(json).expect("bench document is JSON");
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or_default();
    rows.iter()
        .filter_map(|row| {
            let inc = row.get("incremental")?;
            Some(RowCache {
                name: row.str_field("name")?.to_string(),
                hits: inc.u64_field("cache_hits")?,
                misses: inc.u64_field("cache_misses")?,
                // Absent from `BENCH_pr7.json` and older: those rows could
                // not discharge.
                discharged: inc.u64_field("discharged_by_rewrite").unwrap_or(0),
            })
        })
        .collect()
}

#[test]
fn canonicalization_improves_cache_effectiveness_vs_pr7_baseline() {
    let baseline_json = include_str!("../../../BENCH_pr7.json");
    let baseline = parse_row_caches(baseline_json);
    assert!(!baseline.is_empty(), "baseline has no parsable rows");

    let report = pug_bench::bench_json_report(Duration::from_secs(60), true);
    let fresh = parse_row_caches(&report.json);
    assert!(!fresh.is_empty(), "fresh run has no parsable rows:\n{}", report.json);

    let mut old_hits = 0u64;
    let mut old_lookups = 0u64;
    let mut new_hits = 0u64;
    let mut new_lookups = 0u64;
    let mut discharged = 0u64;
    let mut any_fewer_misses = false;
    let mut common = 0usize;
    for new in &fresh {
        let Some(old) = baseline.iter().find(|r| r.name == new.name) else {
            continue; // the quick grid drops the heavyweight row
        };
        common += 1;
        assert!(
            new.misses <= old.misses,
            "{}: canonicalization added cache misses ({} -> {})",
            new.name,
            old.misses,
            new.misses
        );
        if new.misses < old.misses {
            any_fewer_misses = true;
        }
        old_hits += old.hits;
        old_lookups += old.hits + old.misses;
        new_hits += new.hits;
        new_lookups += new.hits + new.misses;
        discharged += new.discharged;
    }
    assert!(common >= 4, "only {common} rows in common with the baseline");
    assert!(
        any_fewer_misses,
        "no row's miss count shrank — rewriting discharged nothing the cache used to miss"
    );
    assert!(discharged >= 1, "expected at least one rewrite-discharged obligation");

    // Aggregate hit rate strictly improves: discharges remove former
    // misses from the lookup stream (measured on the committed corpus:
    // 4/44 -> 3/29).
    let old_rate = old_hits as f64 / old_lookups.max(1) as f64;
    let new_rate = new_hits as f64 / new_lookups.max(1) as f64;
    assert!(
        new_rate > old_rate,
        "aggregate hit rate did not improve: {old_hits}/{old_lookups} -> {new_hits}/{new_lookups}"
    );
}
