//! Individual table cells: one equivalence check each, with the paper's
//! outcome notation. A cell's wall-clock limit is its check's
//! [`CheckOptions::timeout`], which the check turns into a deadline on its
//! cancellation token.

use pugpara::equiv::{check_equivalence_nonparam, check_equivalence_param, CheckOptions};
use pugpara::runner::panic_message;
use pugpara::{KernelUnit, Verdict};
use pug_ir::{Extent, GpuConfig};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Outcome of one cell, rendered in the paper's notation: SMT seconds,
/// `s*` when the checker (correctly) reports non-equivalence, `T.O` on
/// budget exhaustion.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Equivalence verified (SMT time).
    Verified(Duration),
    /// Non-equivalence / bug reported (SMT time) — the `*` cells.
    Starred(Duration),
    /// Budget exhausted.
    Timeout,
    /// Checker error (e.g. alignment failure) — not expected in the grid.
    Error(String),
    /// The checker panicked; the cell was isolated and the run continued.
    Crash(String),
}

impl Outcome {
    fn from_report(r: &pugpara::Report) -> Outcome {
        let t = r.solver_time();
        match &r.verdict {
            Verdict::Verified(_) => Outcome::Verified(t),
            Verdict::Bug(_) => Outcome::Starred(t),
            Verdict::Timeout => Outcome::Timeout,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Verified(d) => write!(f, "{:.2}", d.as_secs_f64()),
            Outcome::Starred(d) => write!(f, "{:.2}*", d.as_secs_f64()),
            Outcome::Timeout => write!(f, "T.O"),
            Outcome::Error(e) => write!(f, "ERR({e})"),
            Outcome::Crash(_) => write!(f, "CRASH"),
        }
    }
}

/// Fault boundary for one table cell.
///
/// The cell body runs under [`catch_unwind`]: if the checker panics, the
/// payload is captured and the cell resolves as `CRASH`. A check that runs
/// out of time resolves as `T.O` through its own deadline. Either way the
/// remaining cells still run — one bad cell no longer kills `repro-tables`.
pub fn run_cell<F>(f: F) -> Outcome
where
    F: FnOnce() -> Outcome,
{
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Outcome::Crash(panic_message(&*payload)))
}

/// Map the paper's thread counts to 2-D transpose blocks: 4 → 2×2,
/// 8 → 4×2 (non-square: the `*` rows), 16 → 4×4, 32 → 8×4 (non-square).
pub fn transpose_block(n: u64) -> (u64, u64) {
    match n {
        4 => (2, 2),
        8 => (4, 2),
        16 => (4, 4),
        32 => (8, 4),
        64 => (8, 8),
        144 => (12, 12),
        196 => (14, 14),
        other => {
            let side = (other as f64).sqrt() as u64;
            if side * side == other {
                (side, side)
            } else {
                (other / 2, 2)
            }
        }
    }
}

/// Transpose, non-parameterized, n threads (§III baseline). Uses the
/// unconstrained optimized kernel so non-square blocks are (correctly)
/// reported as non-equivalent — the paper's `*` entries.
pub fn transpose_nonparam(bits: u32, n: u64, concretize: bool, timeout: Duration) -> Outcome {
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).expect("corpus parses");
    let opt = KernelUnit::load(pug_kernels::transpose::OPTIMIZED_UNCONSTRAINED)
        .expect("corpus parses");
    let (bx, by) = transpose_block(n);
    let cfg = GpuConfig::concrete_2d(bits, bx, by);
    let mut o = CheckOptions::with_timeout(timeout);
    if concretize {
        o = o.concretized("width", bx).concretized("height", by);
    }
    match check_equivalence_nonparam(&naive, &opt, &cfg, &o) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Transpose, parameterized (§IV): symbolic 2-D configuration; "+C." pins
/// the matrix sizes.
pub fn transpose_param(bits: u32, concretize: bool, timeout: Duration) -> Outcome {
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).expect("corpus parses");
    let opt = KernelUnit::load(pug_kernels::transpose::OPTIMIZED).expect("corpus parses");
    let cfg = GpuConfig::symbolic_2d(bits);
    let mut o = CheckOptions::with_timeout(timeout);
    if concretize {
        o = o.concretized("width", 8).concretized("height", 8);
    }
    match check_equivalence_param(&naive, &opt, &cfg, &o) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

fn reduction_pair(bits: u32, buggy: bool) -> (KernelUnit, KernelUnit) {
    let bound = pug_kernels::reduction::safe_block_bound(bits);
    let v0 = KernelUnit::load(&pug_kernels::reduction::v0_bounded(bound)).expect("corpus parses");
    // The seeded *index* bug corrupts the output sum, so both encoders can
    // see it. (The guard bug writes out of bounds without reaching
    // `sdata[0]`: only the parameterized coverage check detects it — see
    // the integration tests.)
    let other = if buggy {
        pug_kernels::reduction::buggy_index_bounded(bound)
    } else {
        pug_kernels::reduction::v1_bounded(bound)
    };
    (v0, KernelUnit::load(&other).expect("corpus parses"))
}

/// Reduction (v0 vs v1), non-parameterized, n-thread block. The loop bound
/// depends on n, so the formula grows in both the unroll depth and the
/// store-chain length — the paper's "generic method blows up on n" rows.
pub fn reduction_nonparam(bits: u32, n: u64, timeout: Duration) -> Outcome {
    let (v0, v1) = reduction_pair(bits, false);
    let cfg = GpuConfig::concrete_1d(bits, n);
    match check_equivalence_nonparam(&v0, &v1, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Reduction v0 vs v2 (sequential addressing), non-parameterized. Unlike
/// v0/v1 — whose unrolled reduction trees are *identical* terms, letting
/// the rewriter discharge the goal syntactically — v0 and v2 build
/// different trees over the same inputs, so the solver must actually prove
/// the sums equal; the cost grows steeply with n.
pub fn reduction_v2_nonparam(bits: u32, n: u64, timeout: Duration) -> Outcome {
    let bound = pug_kernels::reduction::safe_block_bound(bits);
    let v0 = KernelUnit::load(&pug_kernels::reduction::v0_bounded(bound)).expect("corpus parses");
    let v2 = KernelUnit::load(&pug_kernels::reduction::v2_bounded(bound)).expect("corpus parses");
    let cfg = GpuConfig::concrete_1d(bits, n);
    match check_equivalence_nonparam(&v0, &v2, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Reduction, parameterized via loop alignment (§IV-E). "+C." pins the
/// block size (the paper's downscaling remark) while inputs stay symbolic.
pub fn reduction_param(bits: u32, concretize: bool, timeout: Duration) -> Outcome {
    let (v0, v1) = reduction_pair(bits, false);
    let cfg = if concretize {
        GpuConfig {
            bits,
            bdim: [Extent::Const(8), Extent::Const(1), Extent::Const(1)],
            gdim: [Extent::Sym, Extent::Const(1)],
        }
    } else {
        GpuConfig::symbolic_1d(bits)
    };
    match check_equivalence_param(&v0, &v1, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Buggy transpose (seeded address bug), non-parameterized.
pub fn transpose_buggy_nonparam(bits: u32, n: u64, timeout: Duration) -> Outcome {
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).expect("corpus parses");
    let buggy = KernelUnit::load(pug_kernels::transpose::BUGGY_ADDR).expect("corpus parses");
    let (bx, by) = transpose_block(n);
    let cfg = GpuConfig::concrete_2d(bits, bx, by);
    match check_equivalence_nonparam(&naive, &buggy, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Buggy transpose, parameterized (fast bug hunting, §IV-D).
pub fn transpose_buggy_param(bits: u32, timeout: Duration) -> Outcome {
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).expect("corpus parses");
    let buggy = KernelUnit::load(pug_kernels::transpose::BUGGY_ADDR).expect("corpus parses");
    let cfg = GpuConfig::symbolic_2d(bits);
    let o = CheckOptions::with_timeout(timeout).fast_bug_hunt();
    match check_equivalence_param(&naive, &buggy, &cfg, &o) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Buggy reduction (seeded guard bug), non-parameterized.
pub fn reduction_buggy_nonparam(bits: u32, n: u64, timeout: Duration) -> Outcome {
    let (v0, buggy) = reduction_pair(bits, true);
    let cfg = GpuConfig::concrete_1d(bits, n);
    match check_equivalence_nonparam(&v0, &buggy, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Buggy reduction, parameterized.
pub fn reduction_buggy_param(bits: u32, timeout: Duration) -> Outcome {
    let (v0, buggy) = reduction_pair(bits, true);
    let cfg = GpuConfig::symbolic_1d(bits);
    match check_equivalence_param(&v0, &buggy, &cfg, &CheckOptions::with_timeout(timeout)) {
        Ok(r) => Outcome::from_report(&r),
        Err(e) => Outcome::Error(e.to_string()),
    }
}
