//! Loop alignment (paper §IV-E).
//!
//! Typical CUDA optimizations (memory coalescing, bank-conflict elimination)
//! preserve loop structure, so PUGpara compares loop *bodies* under a single
//! symbolic iteration variable instead of unrolling. That needs the two loop
//! headers to be normalized to the same iteration space. The paper's
//! motivating pair is the reduction kernel:
//!
//! ```text
//! for (k = bdim.x/2; k > 0; k >>= 1)   // modulo-free, descending
//! for (k = 1; k < bdim.x; k *= 2)      // naive,       ascending
//! ```
//!
//! Both iterate k over the powers of two below `bdim.x` (when `bdim.x` is a
//! power of two) — in opposite orders, which is sound to ignore only when
//! the combining operation is commutative and associative (`+=` in the
//! corpus). This module recognizes geometric and linear headers, normalizes
//! them, and reports whether two headers align and at what cost.

use pug_cuda::ast::{BinOp, Expr, Stmt};

/// Normalized iteration spaces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoopSpace {
    /// `k = start; k < bound; k *= ratio` (ascending geometric).
    GeometricUp { start: Expr, bound: Expr, ratio: u64 },
    /// `k = start; k > 0; k /= ratio` (descending geometric).
    GeometricDown { start: Expr, ratio: u64 },
    /// `k = start; k < bound (or <=); k += step`.
    LinearUp { start: Expr, bound: Expr, step: u64, inclusive: bool },
    /// `k = start; k < bound (or <=); k += step` with a *symbolic* step
    /// (e.g. the grid-stride idiom `i += bdim.x`). Only checkers that state
    /// membership as a divisibility constraint can use this space; others
    /// must treat it like an unrecognized header.
    LinearUpSym { start: Expr, bound: Expr, step: Expr, inclusive: bool },
}

/// A normalized loop header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Header {
    /// The loop variable.
    pub var: String,
    pub space: LoopSpace,
}

/// How two loops align.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Alignment {
    /// Identical iteration spaces traversed in the same order.
    SameOrder,
    /// Same iteration *set* traversed in opposite orders; sound only for
    /// commutative-associative accumulation, and only when `pow2_bound` is a
    /// power of two (added as a verification-side assumption).
    Reversed { pow2_bound: Expr },
}

/// Extract and normalize a `for` header. Returns `None` when the header is
/// outside the recognized forms (the caller falls back to full unrolling).
pub fn normalize_header(init: &Stmt, cond: &Expr, update: &Stmt) -> Option<Header> {
    let (var, start) = match init {
        Stmt::Decl { name, init: Some(e), dims, .. } if dims.is_empty() => (name.clone(), e.clone()),
        Stmt::Assign { lhs, op: None, rhs, .. } if lhs.indices.is_empty() => {
            (lhs.name.clone(), rhs.clone())
        }
        _ => return None,
    };
    let (upd_op, upd_rhs) = match update {
        Stmt::Assign { lhs, op: Some(op), rhs, .. }
            if lhs.name == var && lhs.indices.is_empty() =>
        {
            (*op, rhs)
        }
        _ => return None,
    };
    match upd_op {
        // k *= r  or  k <<= s
        BinOp::Mul | BinOp::Shl => {
            let step_const = const_of(upd_rhs)?;
            let ratio = if upd_op == BinOp::Shl { 1u64.checked_shl(step_const as u32)? } else { step_const };
            if ratio < 2 {
                return None;
            }
            let (bound, strict) = upper_bound(cond, &var)?;
            if !strict {
                return None;
            }
            Some(Header { var, space: LoopSpace::GeometricUp { start, bound, ratio } })
        }
        // k /= r  or  k >>= s
        BinOp::Div | BinOp::Shr => {
            let step_const = const_of(upd_rhs)?;
            let ratio = if upd_op == BinOp::Shr { 1u64.checked_shl(step_const as u32)? } else { step_const };
            if ratio < 2 {
                return None;
            }
            // condition must be k > 0 (or k >= 1)
            if !is_positive_guard(cond, &var) {
                return None;
            }
            Some(Header { var, space: LoopSpace::GeometricDown { start, ratio } })
        }
        // k += c  (constant step)  or  k += e  (symbolic step)
        BinOp::Add => {
            let (bound, strict) = upper_bound(cond, &var)?;
            let space = match const_of(upd_rhs) {
                Some(step_const) => {
                    LoopSpace::LinearUp { start, bound, step: step_const, inclusive: !strict }
                }
                None => LoopSpace::LinearUpSym {
                    start,
                    bound,
                    step: upd_rhs.clone(),
                    inclusive: !strict,
                },
            };
            Some(Header { var, space })
        }
        _ => None,
    }
}

/// Decide whether two normalized headers describe the same iteration space.
pub fn align_headers(a: &Header, b: &Header) -> Option<Alignment> {
    if a.space == b.space {
        return Some(Alignment::SameOrder);
    }
    // Ascending {start=1, <bound, ×r} vs descending {start=bound/r, ÷r}:
    // both are the powers of r below bound when bound is a power of r.
    let matched = |up: &LoopSpace, down: &LoopSpace| -> Option<Expr> {
        let LoopSpace::GeometricUp { start, bound, ratio } = up else { return None };
        let LoopSpace::GeometricDown { start: dstart, ratio: dratio } = down else { return None };
        if ratio != dratio || const_of(start) != Some(1) {
            return None;
        }
        if is_quotient_of(dstart, bound, *ratio) {
            Some(bound.clone())
        } else {
            None
        }
    };
    if let Some(bound) = matched(&a.space, &b.space).or_else(|| matched(&b.space, &a.space)) {
        return Some(Alignment::Reversed { pow2_bound: bound });
    }
    None
}

fn const_of(e: &Expr) -> Option<u64> {
    match e {
        Expr::Int(n) => Some(*n),
        _ => None,
    }
}

/// Match `var < e` / `var <= e` / `e > var` / `e >= var`; returns
/// (bound, strict).
fn upper_bound(cond: &Expr, var: &str) -> Option<(Expr, bool)> {
    let Expr::Binary { op, lhs, rhs } = cond else { return None };
    let is_var = |e: &Expr| matches!(e, Expr::Ident(n) if n == var);
    match op {
        BinOp::Lt if is_var(lhs) => Some(((**rhs).clone(), true)),
        BinOp::Le if is_var(lhs) => Some(((**rhs).clone(), false)),
        BinOp::Gt if is_var(rhs) => Some(((**lhs).clone(), true)),
        BinOp::Ge if is_var(rhs) => Some(((**lhs).clone(), false)),
        _ => None,
    }
}

/// Match `var > 0` or `var >= 1`.
fn is_positive_guard(cond: &Expr, var: &str) -> bool {
    let Expr::Binary { op, lhs, rhs } = cond else { return false };
    let is_var = |e: &Expr| matches!(e, Expr::Ident(n) if n == var);
    match op {
        BinOp::Gt => is_var(lhs) && const_of(rhs) == Some(0),
        BinOp::Ge => is_var(lhs) && const_of(rhs) == Some(1),
        BinOp::Lt => is_var(rhs) && const_of(lhs) == Some(0),
        _ => false,
    }
}

/// Does `e` syntactically equal `bound / ratio` (or the shift equivalent)?
fn is_quotient_of(e: &Expr, bound: &Expr, ratio: u64) -> bool {
    let Expr::Binary { op, lhs, rhs } = e else { return false };
    if **lhs != *bound {
        return false;
    }
    match op {
        BinOp::Div => const_of(rhs) == Some(ratio),
        BinOp::Shr => const_of(rhs).map(|s| 1u64 << s) == Some(ratio),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pug_cuda::parser::parse_kernel;

    fn header_of(src: &str) -> Header {
        let k = parse_kernel(src).unwrap();
        let Stmt::For { init, cond, update, .. } = &k.body[0] else { panic!("expected for") };
        normalize_header(init, cond, update).expect("normalizable")
    }

    #[test]
    fn ascending_pow2() {
        let h = header_of("void k(int *d) { for (unsigned int s = 1; s < bdim.x; s *= 2) { d[s] = 0; } }");
        assert!(matches!(h.space, LoopSpace::GeometricUp { ratio: 2, .. }));
    }

    #[test]
    fn descending_shift() {
        let h = header_of(
            "void k(int *d) { for (unsigned int s = bdim.x / 2; s > 0; s >>= 1) { d[s] = 0; } }",
        );
        assert!(matches!(h.space, LoopSpace::GeometricDown { ratio: 2, .. }));
    }

    #[test]
    fn paper_reduction_pair_aligns_reversed() {
        let up = header_of(
            "void k(int *d) { for (unsigned int s = 1; s < bdim.x; s *= 2) { d[s] = 0; } }",
        );
        let down = header_of(
            "void k(int *d) { for (unsigned int s = bdim.x / 2; s > 0; s >>= 1) { d[s] = 0; } }",
        );
        let al = align_headers(&up, &down).expect("aligns");
        assert!(matches!(al, Alignment::Reversed { .. }));
        // and alignment is symmetric
        assert_eq!(align_headers(&down, &up), Some(al));
    }

    #[test]
    fn identical_linear_headers_align_same_order() {
        let a = header_of("void k(int *d) { for (int i = 0; i < bdim.x; i += 1) { d[i] = 0; } }");
        let b = header_of("void k(int *d) { for (int i = 0; i < bdim.x; i += 1) { d[i] = 1; } }");
        assert_eq!(align_headers(&a, &b), Some(Alignment::SameOrder));
    }

    #[test]
    fn symbolic_stride_header_normalizes_and_aligns() {
        let a = header_of(
            "void k(int *d) { for (unsigned int i = 0; i < bdim.x * 4; i += bdim.x) { d[i] = 0; } }",
        );
        assert!(matches!(a.space, LoopSpace::LinearUpSym { .. }));
        let b = header_of(
            "void k(int *d) { for (unsigned int i = 0; i < bdim.x * 4; i += bdim.x) { d[i] = 1; } }",
        );
        assert_eq!(align_headers(&a, &b), Some(Alignment::SameOrder));
    }

    #[test]
    fn different_ratios_do_not_align() {
        let a = header_of("void k(int *d) { for (int s = 1; s < bdim.x; s *= 2) { d[s] = 0; } }");
        let b = header_of("void k(int *d) { for (int s = 1; s < bdim.x; s *= 4) { d[s] = 0; } }");
        assert_eq!(align_headers(&a, &b), None);
    }

    #[test]
    fn different_bounds_do_not_align() {
        let a = header_of("void k(int *d) { for (int s = 1; s < bdim.x; s *= 2) { d[s] = 0; } }");
        let b = header_of("void k(int *d) { for (int s = 1; s < bdim.y; s *= 2) { d[s] = 0; } }");
        assert_eq!(align_headers(&a, &b), None);
    }
}
