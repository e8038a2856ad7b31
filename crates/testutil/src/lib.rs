//! # pug-testutil — deterministic test helpers
//!
//! The workspace builds in fully offline environments, so the test suites
//! cannot pull `rand`/`proptest` from a registry. This crate provides the
//! small slice of that functionality the suites actually use: a seedable,
//! deterministic PRNG with range/bool sampling.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood; the seeding generator
//! of xoshiro): 64-bit state, full-period, passes BigCrush for the scales
//! used here. Determinism matters more than statistical perfection: every
//! failure reproduces from the printed seed.
//!
//! [`check_golden`] is the snapshot comparison every golden-file suite
//! shares.

use std::fs;
use std::ops::{Range, RangeInclusive};
use std::path::Path;

pub mod kernelgen;
pub use kernelgen::{GenProfile, KernelGen};

/// Deterministic seedable PRNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the generator. Equal seeds give equal streams forever.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn gen_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform sample from a range (`lo..hi` or `lo..=hi`).
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        // 53 uniform mantissa bits, exactly how `rand` derives its f64s.
        let x = (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }

    /// Uniform `u64` below `bound` (debiased by rejection).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire-style rejection: retry in the biased zone.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.gen_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

/// Ranges [`TestRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut TestRng) -> T;
}

macro_rules! impl_sample {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_signed {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_sample_signed!(i32, i64);

/// Compare `actual` with the golden file at `path`, or, when the
/// `UPDATE_GOLDEN` environment variable is set, write it there. A mismatch
/// lists every differing line with its expected and actual text.
pub fn check_golden(path: &Path, actual: &str) -> Result<(), String> {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let dir = path.parent().expect("a golden file lives in a directory");
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        return fs::write(path, actual)
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let expected = fs::read_to_string(path).map_err(|e| {
        format!("cannot read {} ({e}); run with UPDATE_GOLDEN=1 to record", path.display())
    })?;
    if expected == actual {
        return Ok(());
    }
    Err(format!(
        "output drifted from golden file {}:\n{}",
        path.display(),
        line_diff(&expected, actual)
    ))
}

/// The lines at which `expected` and `actual` differ, position by position.
fn line_diff(expected: &str, actual: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    for i in 0..old.len().max(new.len()) {
        let (e, a) = (old.get(i), new.get(i));
        if e != a {
            diff.push_str(&format!("line {}:\n", i + 1));
            if let Some(e) = e {
                diff.push_str(&format!("- {e}\n"));
            }
            if let Some(a) = a {
                diff.push_str(&format!("+ {a}\n"));
            }
        }
    }
    if diff.is_empty() {
        diff.push_str("(the texts differ only in line endings)\n");
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u64 = rng.gen_range(5..=5);
            assert_eq!(y, 5);
            let z: u32 = rng.gen_range(0..2);
            assert!(z < 2);
        }
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut rng = TestRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn golden_diff_names_each_changed_line() {
        let diff = line_diff("a\nb\nc\n", "a\nB\nc\nd\n");
        assert_eq!(diff, "line 2:\n- b\n+ B\nline 4:\n+ d\n");
        assert_eq!(line_diff("a\n", "a"), "(the texts differ only in line endings)\n");
    }

    #[test]
    fn range_distribution_covers_values() {
        let mut rng = TestRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
