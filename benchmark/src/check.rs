//! `pugbench check A.json… -- B.json…`: compare two sets of runs, per
//! workload and end-to-end metric, against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A metric's regression bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(bench: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(bench)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .str_field("name")
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.str_field("better") == Some("lower"),
                bound: m.num_field("bound").ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Per workload: metric → values, input → median latencies, and the
/// percentile each run took its tail at.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, Vec<f64>>,
    inputs: BTreeMap<String, Vec<f64>>,
    tail_percentiles: Vec<f64>,
}

/// Whether every run of both sets took its tail at the same percentile;
/// tails at different percentiles do not compare.
fn same_tail(a: &Side, b: &Side) -> bool {
    let first = a.tail_percentiles.first();
    a.tail_percentiles
        .iter()
        .chain(&b.tail_percentiles)
        .all(|p| Some(p) == first)
}

fn load_side(files: &[PathBuf]) -> Result<BTreeMap<String, Side>, String> {
    let mut out: BTreeMap<String, Side> = BTreeMap::new();
    for f in files {
        let doc = read_json(f)?;
        let workload = doc
            .get("header")
            .and_then(|h| h.str_field("workload"))
            .ok_or_else(|| format!("{}: not a pugbench result file", f.display()))?;
        let side = out.entry(workload.to_string()).or_default();
        side.tail_percentiles
            .extend(doc.num_field("tail_percentile"));
        for (name, m) in doc.get("metrics").map(Json::fields).unwrap_or_default() {
            if let Some(v) = m.num_field("value") {
                side.metrics.entry(name.clone()).or_default().push(v);
            }
        }
        for row in doc.get("inputs").map(Json::as_arr).unwrap_or_default() {
            if let (Some(n), Some(ms)) = (row.str_field("name"), row.num_field("median_ms")) {
                if row.num_field("jobs").unwrap_or(0.0) > 0.0 {
                    side.inputs.entry(n.to_string()).or_default().push(ms);
                }
            }
        }
    }
    Ok(out)
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Better,
    Regression,
    Unresolved,
}

/// Compare baseline values `a` with change values `b` under `bound`; a
/// set whose spread exceeds `spread_limit` leaves the result unresolved.
/// Returns the status and the signed change of the median, positive when
/// the change is worse.
fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_limit: f64,
) -> (Status, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if ma == 0.0 {
        if mb == ma {
            0.0
        } else {
            f64::INFINITY.copysign(if lower_is_better { mb - ma } else { ma - mb })
        }
    } else if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let better_everywhere = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    let status = if stats::spread(a).max(stats::spread(b)) > spread_limit {
        if better_everywhere {
            Status::Better
        } else {
            Status::Unresolved
        }
    } else if worse > bound {
        Status::Regression
    } else if worse < -bound {
        Status::Better
    } else {
        Status::Ok
    };
    (status, worse)
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(bench: &Path, base: &[PathBuf], change: &[PathBuf]) -> Result<bool, String> {
    let bounds = bounds(bench)?;
    let (a, b) = (load_side(base)?, load_side(change)?);
    let workloads: BTreeSet<&String> = a.keys().filter(|w| b.contains_key(*w)).collect();
    if workloads.is_empty() {
        return Err("the two run sets share no workload".into());
    }
    let mut clean = true;
    for w in workloads {
        let (sa, sb) = (&a[w], &b[w]);
        println!("== {w}");
        println!(
            "  {:<18} {:>12} {:>12} {:>8} {:>7} {:>7}  status",
            "metric", "base", "change", "worse", "spread", "bound"
        );
        for m in &bounds {
            let (Some(va), Some(vb)) = (sa.metrics.get(&m.name), sb.metrics.get(&m.name)) else {
                println!("  {:<18} missing", m.name);
                continue;
            };
            // Set-up is tens of ms of process start and one answer, and
            // follows the machine's speed from one minute to the next, so
            // its spread across seeds is the widest (see the README). Only
            // its median shift is gated.
            let spread_limit = if m.name == "setup_s" {
                f64::INFINITY
            } else {
                m.bound
            };
            let (mut status, worse) = judge(va, vb, m.lower_is_better, m.bound, spread_limit);
            if m.name == "latency_tail_ms" && !same_tail(sa, sb) {
                status = Status::Unresolved;
            }
            clean &= status != Status::Regression;
            println!(
                "  {:<18} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>6.1}%  {status:?}",
                m.name,
                stats::median(va),
                stats::median(vb),
                worse * 100.0,
                stats::spread(va).max(stats::spread(vb)) * 100.0,
                m.bound * 100.0
            );
        }
        let ratios: Vec<f64> = sa
            .inputs
            .iter()
            .filter_map(|(name, la)| {
                let lb = sb.inputs.get(name)?;
                let (ma, mb) = (stats::median(la), stats::median(lb));
                (ma > 0.0 && mb > 0.0).then(|| mb / ma)
            })
            .collect();
        println!(
            "  per-input latency: geometric mean change/base = {:.4} over {} inputs (runs: {} vs {})",
            stats::geomean(&ratios),
            ratios.len(),
            sa.metrics.values().next().map_or(0, Vec::len),
            sb.metrics.values().next().map_or(0, Vec::len)
        );
    }
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_against_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let j = |a: &[f64], b: &[f64], lower| judge(a, b, lower, 0.1, 0.1).0;
        assert_eq!(
            j(&base, &[100.0, 102.0, 101.0, 100.0, 99.0], true),
            Status::Ok
        );
        assert_eq!(
            j(&base, &[120.0, 121.0, 119.0, 120.0, 122.0], true),
            Status::Regression
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            j(&base, &[80.0, 81.0, 79.0, 80.0, 80.0], false),
            Status::Regression
        );
        assert_eq!(
            j(&base, &[80.0, 81.0, 79.0, 80.0, 80.0], true),
            Status::Better
        );
        // Wider spread than the limit: unresolved, not unchanged.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(j(&noisy, &base, true), Status::Unresolved);
        // Without a spread limit only the median shift counts.
        let median_only = |a: &[f64], b: &[f64]| judge(a, b, true, 0.1, f64::INFINITY).0;
        assert_eq!(median_only(&noisy, &base), Status::Ok);
        assert_eq!(
            median_only(&noisy, &[150.0, 160.0, 120.0, 200.0, 130.0]),
            Status::Regression
        );
        let (_, worse) = judge(&[0.0], &[0.0], true, 0.1, 0.1);
        assert_eq!(worse, 0.0);
    }

    #[test]
    fn tails_at_different_percentiles_do_not_compare() {
        let side = |ps: &[f64]| Side {
            tail_percentiles: ps.to_vec(),
            ..Side::default()
        };
        assert!(same_tail(&side(&[99.0, 99.0]), &side(&[99.0])));
        assert!(!same_tail(&side(&[99.0, 99.0]), &side(&[99.9])));
        assert!(!same_tail(&side(&[75.0, 50.0]), &side(&[75.0])));
    }
}
