//! Order statistics used by every report: medians, nearest-rank
//! percentiles, the tail rule, quartiles and geometric means.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps exact ranks such as 99.9% of 10 000 from rounding
    // up through binary floating-point error.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100); 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its rank among `n`; `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method) computes them. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// samples or a zero median.
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Geometric mean of positive ratios; 1 for none.
pub fn geomean(ratios: &[f64]) -> f64 {
    let logs: Vec<f64> = ratios
        .iter()
        .filter(|r| **r > 0.0)
        .map(|r| r.ln())
        .collect();
    if logs.is_empty() {
        return 1.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 has rank 90 and exactly 10 beyond; p99 only 1.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(percentile(&seq(100), 90.0), 90.0);
        // 99 samples: p90 has rank 90 and 9 beyond, so the tail is p75.
        assert_eq!(tail_percentile(99), Some(75.0));
        // 1000 samples reach p99 (rank 990, 10 beyond).
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 20 samples: median rank 10, 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // Too few for any rung.
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn percentiles_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&seq(10));
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
