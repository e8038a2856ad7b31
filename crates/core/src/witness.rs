//! Witness correspondences: how the parameterized checks discharge the
//! residual ∀-formula of paper §IV-D.
//!
//! Resolving a read through a CA chain leaves the residue "some thread
//! wrote this cell" (for output coverage: "the other kernel writes every
//! cell this one writes"). The paper eliminates that quantifier for a
//! monotone address map, or drops it. This verifier names the writer
//! instead: a *witness* thread built from the reference thread
//! ([`WitnessKind`]), whose instantiated write condition must cover the
//! cell. [`search`] tries the shapes in order and the SMT solver proves the
//! substituted cover valid, so a wrong witness can fail to prove but never
//! proves something false. This is the one way a check discharges the
//! residue.
//!
//! The affine shape and the symbolic-stride loops rest on a small term
//! bridge: [`affine_decompose`] reads an index map as `c·x + d (mod 2^w)`,
//! [`invert_affine`] inverts it at an address, and [`stride_membership`]
//! states membership in a symbolic-stride iteration space without a
//! quantifier.
//!
//! ## Domain constraint and trust story
//!
//! The verifier's terms live in **w-bit arithmetic modulo 2^w**, and the
//! bridge computes in it. The modular inverse used by [`invert_affine`] is
//! exact: for odd `c` the map `x ↦ c·x + d (mod 2^w)` is a bijection with
//! inverse `x = c⁻¹·(a − d)`; for `c = 2^s·c'` (odd `c'`) the inverse holds
//! under the explicit divisibility side condition `(a − d) mod 2^s = 0`,
//! which is emitted as part of the witness. No bridge answer reaches a
//! verdict directly: every witness and membership constraint is checked by
//! the bit-vector solver, which models wrap-around exactly, so a bridge bug
//! can cost a proof (the rung falls back down the degradation ladder) but
//! never soundness.

use crate::param::thread_range;
use crate::resolve::{CoverageObligation, Instantiation, ThreadRef};
use crate::session::Session;
use pug_ir::BoundConfig;
use pug_smt::{Ctx, Model, Op, SmtResult, Sort, TermId};

/// Witness correspondences between a reference thread and writer threads.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WitnessKind {
    /// Writer = reference thread.
    Identity,
    /// Writer = reference thread with `tid.x`/`tid.y` swapped, same block —
    /// the transpose correspondence of §IV-B (the tile keeps its block; the
    /// thread roles swap through the reassigned `xIndex`/`yIndex`).
    SwapTid,
    /// Writer = reference thread with x/y swapped on both `tid` and `bid`.
    SwapBoth,
    /// Writer's `tid.x` inverted from the address: for CAs writing at
    /// `c · τ.x` (or `τ.x << c`, or plain `τ.x`), the witness thread has
    /// `tid.x := addr / c` — the reduction correspondence.
    InvertX,
    /// General affine inversion: for CAs writing at any affine map
    /// `c·τ.x + d`, the witness thread is `tid.x := c⁻¹·(addr − d)`
    /// (modular inverse), with a divisibility side condition when `c` is
    /// even. The side condition is conjoined into the cover so the SMT
    /// solver re-validates the inversion in modular arithmetic.
    Affine,
}

/// The witness shapes [`search`] tries after [`WitnessKind::Identity`], in
/// order.
const WITNESSES: [WitnessKind; 4] =
    [WitnessKind::SwapTid, WitnessKind::SwapBoth, WitnessKind::InvertX, WitnessKind::Affine];

/// Outcome of a witness search.
pub(crate) enum Coverage {
    /// A witness covers the cell.
    Proven,
    /// Every witness that applies failed; the last counterexample.
    Unproven(Model),
    /// A query ran out of budget.
    Timeout,
}

/// Search for a witness that the cell `addr`, seen by thread `reference`,
/// is written by one of `writers`, whose addresses are phrased over the
/// canonical `tau_x`. Each shape's cover is a query under `premises`,
/// labelled `label(kind)`, until one is valid.
///
/// The identity witness applies to every instantiation, so the search
/// starts from its answer and tries the next shape that applies while the
/// answer is a counterexample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    sess: &mut Session,
    bound: &BoundConfig,
    writers: &[Instantiation],
    tau_x: TermId,
    reference: ThreadRef,
    addr: TermId,
    premises: &[TermId],
    label: impl Fn(WitnessKind) -> String,
) -> Coverage {
    let mut identity = sess.ctx.mk_false();
    for inst in writers {
        let branch = cover_branch(&mut sess.ctx, bound, inst, reference, None);
        identity = sess.ctx.mk_or(identity, branch);
    }
    let mut answer = discharge(sess, WitnessKind::Identity, &label, premises, identity);
    for kind in WITNESSES {
        if !matches!(answer, Coverage::Unproven(_)) {
            break;
        }
        if let Some(cover) =
            witness_cover(&mut sess.ctx, bound, kind, writers, tau_x, reference, addr)
        {
            answer = discharge(sess, kind, &label, premises, cover);
        }
    }
    answer
}

/// Query whether the `kind` witness's `cover` holds under `premises`.
fn discharge(
    sess: &mut Session,
    kind: WitnessKind,
    label: impl Fn(WitnessKind) -> String,
    premises: &[TermId],
    cover: TermId,
) -> Coverage {
    match sess.query(&label(kind), premises, cover) {
        SmtResult::Unsat => {
            sess.note_witness_proved();
            if matches!(kind, WitnessKind::Affine) {
                sess.note_witness_generalized();
            }
            Coverage::Proven
        }
        SmtResult::Unknown => Coverage::Timeout,
        SmtResult::Sat(m) => Coverage::Unproven(m),
    }
}

/// Read-coverage obligation: under `context` and the read's guard, some
/// witnessed writer covers the read address. `tau_x` is the canonical τ.x
/// of the region the obligation came from.
pub(crate) fn obligation_check(
    sess: &mut Session,
    bound: &BoundConfig,
    ob: &CoverageObligation,
    tau_x: TermId,
    context: &[TermId],
) -> Coverage {
    let premises = [context, &[ob.guard]].concat();
    let label = |kind| format!("read-coverage[{}:{kind:?}]", ob.array);
    search(sess, bound, &ob.insts, tau_x, ob.reader, ob.addr, &premises, label)
}

/// One disjunct of a cover: `inst`'s `cond ∧ range` with its fresh thread
/// replaced by the witness thread `w`, and the inversion's `side`
/// condition conjoined.
fn cover_branch(
    ctx: &mut Ctx,
    bound: &BoundConfig,
    inst: &Instantiation,
    w: ThreadRef,
    side: Option<TermId>,
) -> TermId {
    let cond_w = inst.thread.subst(ctx, inst.cond, w);
    let range_w = thread_range(ctx, bound, w.tid, w.bid);
    let branch = ctx.mk_and(cond_w, range_w);
    match side {
        Some(side) => ctx.mk_and(branch, side),
        None => branch,
    }
}

/// The witnessed cover for `insts`: the disjunction over instantiations of
/// [`cover_branch`] at the `kind` witness built from `reference` (and from
/// `addr` for the inversions). `tau_x` is the τ.x the CA addresses are
/// phrased over. Returns `None` when the witness shape does not apply.
fn witness_cover(
    ctx: &mut Ctx,
    bound: &BoundConfig,
    kind: WitnessKind,
    insts: &[Instantiation],
    tau_x: TermId,
    reference: ThreadRef,
    addr: TermId,
) -> Option<TermId> {
    let r = reference;
    let mut disj = ctx.mk_false();
    for inst in insts {
        let (wthread, side) = match kind {
            WitnessKind::Identity => (r, None),
            WitnessKind::SwapTid => {
                (ThreadRef { tid: [r.tid[1], r.tid[0], r.tid[2]], bid: r.bid }, None)
            }
            WitnessKind::SwapBoth => (
                ThreadRef { tid: [r.tid[1], r.tid[0], r.tid[2]], bid: [r.bid[1], r.bid[0]] },
                None,
            ),
            WitnessKind::InvertX | WitnessKind::Affine => {
                let a = inst.canonical_addr;
                let (x, side) = match kind {
                    WitnessKind::InvertX => (invert_x(ctx, a, tau_x, addr)?, None),
                    _ => invert_affine(ctx, a, tau_x, addr)?,
                };
                (ThreadRef { tid: [x, r.tid[1], r.tid[2]], bid: r.bid }, side)
            }
        };
        let branch = cover_branch(ctx, bound, inst, wthread, side);
        disj = ctx.mk_or(disj, branch);
    }
    Some(disj)
}

/// Invert a canonical CA address `c·τx`, `τx·c`, `τx << c` or `τx` at the
/// concrete read address `addr`, yielding the witness `tid.x`.
pub(crate) fn invert_x(
    ctx: &mut Ctx,
    canonical_addr: TermId,
    tau_x: TermId,
    addr: TermId,
) -> Option<TermId> {
    if canonical_addr == tau_x {
        return Some(addr);
    }
    match ctx.op(canonical_addr).clone() {
        Op::BvMul => {
            let a = ctx.args(canonical_addr).to_vec();
            let coeff = if a[0] == tau_x {
                a[1]
            } else if a[1] == tau_x {
                a[0]
            } else {
                return None;
            };
            Some(ctx.mk_bv_udiv(addr, coeff))
        }
        Op::BvShl => {
            let a = ctx.args(canonical_addr).to_vec();
            if a[0] != tau_x {
                return None;
            }
            Some(ctx.mk_bv_lshr(addr, a[1]))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Term bridge: affine bit-vector index maps
// ---------------------------------------------------------------------------

/// An index map decomposed as `coeff · x + offset (mod 2^w)` where
/// `offset` does not mention `x`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AffineX {
    pub(crate) coeff: u64,
    pub(crate) offset: TermId,
}

fn contains_var(ctx: &Ctx, t: TermId, x: TermId) -> bool {
    // Iterative DFS over the DAG; no memo needed at index-map sizes.
    let mut stack = vec![t];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if t == x {
            return true;
        }
        if seen.insert(t) {
            stack.extend(ctx.args(t).iter().copied());
        }
    }
    false
}

/// Decompose `t` as `coeff·x + offset (mod 2^w)` with `offset` free of
/// `x`. Returns `None` when `t` is not affine in `x` (e.g. `x` under a
/// division, select, or non-constant multiplier).
pub(crate) fn affine_decompose(ctx: &mut Ctx, t: TermId, x: TermId) -> Option<AffineX> {
    let Sort::BitVec(w) = ctx.sort(t) else { return None };
    let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
    if t == x {
        let zero = ctx.mk_bv_const(0, w);
        return Some(AffineX { coeff: 1, offset: zero });
    }
    if !contains_var(ctx, t, x) {
        return Some(AffineX { coeff: 0, offset: t });
    }
    match ctx.op(t).clone() {
        Op::BvAdd => {
            let args = ctx.args(t).to_vec();
            let l = affine_decompose(ctx, args[0], x)?;
            let r = affine_decompose(ctx, args[1], x)?;
            let offset = ctx.mk_bv_add(l.offset, r.offset);
            Some(AffineX { coeff: l.coeff.wrapping_add(r.coeff) & mask, offset })
        }
        Op::BvSub => {
            let args = ctx.args(t).to_vec();
            let l = affine_decompose(ctx, args[0], x)?;
            let r = affine_decompose(ctx, args[1], x)?;
            let offset = ctx.mk_bv_sub(l.offset, r.offset);
            Some(AffineX { coeff: l.coeff.wrapping_sub(r.coeff) & mask, offset })
        }
        Op::BvNeg => {
            let args = ctx.args(t).to_vec();
            let a = affine_decompose(ctx, args[0], x)?;
            let offset = ctx.mk_bv_neg(a.offset);
            Some(AffineX { coeff: a.coeff.wrapping_neg() & mask, offset })
        }
        Op::BvMul => {
            let args = ctx.args(t).to_vec();
            let (c, sub) = if let Some(c) = ctx.const_bv(args[0]) {
                (c, args[1])
            } else if let Some(c) = ctx.const_bv(args[1]) {
                (c, args[0])
            } else {
                return None;
            };
            let a = affine_decompose(ctx, sub, x)?;
            let cterm = ctx.mk_bv_const(c, w);
            let offset = ctx.mk_bv_mul(cterm, a.offset);
            Some(AffineX { coeff: a.coeff.wrapping_mul(c) & mask, offset })
        }
        Op::BvShl => {
            let args = ctx.args(t).to_vec();
            let s = ctx.const_bv(args[1])?;
            if s >= u64::from(w) {
                return None;
            }
            let a = affine_decompose(ctx, args[0], x)?;
            let offset = ctx.mk_bv_shl(a.offset, args[1]);
            Some(AffineX { coeff: a.coeff.wrapping_shl(s as u32) & mask, offset })
        }
        _ => None,
    }
}

/// Multiplicative inverse of odd `c` modulo `2^w` (Newton/Hensel lifting:
/// each step doubles the number of correct low bits).
pub(crate) fn mod_inverse(c: u64, w: u32) -> u64 {
    debug_assert!(c % 2 == 1);
    let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut inv = c; // correct mod 2^3 already (c·c ≡ 1 mod 8 for odd c)
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
    }
    inv & mask
}

/// Invert the affine map `t = coeff·x + offset` at the concrete address
/// `addr`: returns the witness term for `x` plus an optional side
/// condition that must hold for the inversion to be exact.
///
/// * odd `coeff`: `x = coeff⁻¹·(addr − offset)` — a bijection mod 2^w, no
///   side condition;
/// * `coeff = 2^s·c'` with odd `c'`: `x = c'⁻¹·((addr − offset) >> s)`
///   under the divisibility side condition `(addr − offset) & (2^s−1) = 0`;
/// * `coeff = 0` (or a non-affine map): no inversion.
pub(crate) fn invert_affine(
    ctx: &mut Ctx,
    t: TermId,
    x: TermId,
    addr: TermId,
) -> Option<(TermId, Option<TermId>)> {
    let Sort::BitVec(w) = ctx.sort(t) else { return None };
    let aff = affine_decompose(ctx, t, x)?;
    if aff.coeff == 0 {
        return None;
    }
    let diff = ctx.mk_bv_sub(addr, aff.offset);
    let s = aff.coeff.trailing_zeros();
    if s == 0 {
        let inv = mod_inverse(aff.coeff, w);
        let invt = ctx.mk_bv_const(inv, w);
        let wit = ctx.mk_bv_mul(invt, diff);
        return Some((wit, None));
    }
    if s >= w {
        return None;
    }
    let odd = aff.coeff >> s;
    let inv = mod_inverse(odd, w);
    let invt = ctx.mk_bv_const(inv, w);
    let st = ctx.mk_bv_const(u64::from(s), w);
    let shifted = ctx.mk_bv_lshr(diff, st);
    let wit = ctx.mk_bv_mul(invt, shifted);
    // Divisibility: the low s bits of (addr − offset) must be zero.
    let lowmask = ctx.mk_bv_const((1u64 << s) - 1, w);
    let low = ctx.mk_bv_and(diff, lowmask);
    let zero = ctx.mk_bv_const(0, w);
    let side = ctx.mk_eq(low, zero);
    Some((wit, Some(side)))
}

/// Quantifier-free membership constraint for a symbolic-stride iteration
/// space: `k ∈ {start, start+step, …}` bounded by `bound`. Emits
/// `start ≤ k ∧ k < bound (or ≤) ∧ (k − start) mod step = 0 ∧ step ≠ 0`,
/// which the solver checks in modular arithmetic.
pub(crate) fn stride_membership(
    ctx: &mut Ctx,
    k: TermId,
    start: TermId,
    bound: TermId,
    step: TermId,
    inclusive: bool,
) -> TermId {
    let ge = ctx.mk_bv_ule(start, k);
    let ub = if inclusive { ctx.mk_bv_ule(k, bound) } else { ctx.mk_bv_ult(k, bound) };
    let diff = ctx.mk_bv_sub(k, start);
    let rem = ctx.mk_bv_urem(diff, step);
    let Sort::BitVec(w) = ctx.sort(k) else { unreachable!("stride var is a bit-vector") };
    let zero = ctx.mk_bv_const(0, w);
    let aligned = ctx.mk_eq(rem, zero);
    let step_nz = ctx.mk_neq(step, zero);
    let c1 = ctx.mk_and(ge, ub);
    let c2 = ctx.mk_and(aligned, step_nz);
    ctx.mk_and(c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_inverse_is_exact_at_every_width() {
        for w in [4u32, 8, 16, 32, 64] {
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            for c in [1u64, 3, 5, 7, 0x55, 0xABCDEF1, u64::MAX] {
                let c = (c & mask) | 1;
                let inv = mod_inverse(c, w);
                assert_eq!(c.wrapping_mul(inv) & mask, 1, "c={c:#x} w={w}");
            }
        }
    }

    #[test]
    fn affine_decompose_and_invert_roundtrip() {
        let mut ctx = Ctx::default();
        let x = ctx.mk_var("x", Sort::BitVec(8));
        let three = ctx.mk_bv_const(3, 8);
        let seven = ctx.mk_bv_const(7, 8);
        let mul = ctx.mk_bv_mul(three, x);
        let t = ctx.mk_bv_add(mul, seven); // 3x + 7
        let aff = affine_decompose(&mut ctx, t, x).unwrap();
        assert_eq!(aff.coeff, 3);
        // Invert at addr = 3·5 + 7 = 22: witness must fold to 5.
        let addr = ctx.mk_bv_const(22, 8);
        let (wit, side) = invert_affine(&mut ctx, t, x, addr).unwrap();
        assert!(side.is_none(), "odd coefficient needs no side condition");
        assert_eq!(ctx.const_bv(wit), Some(5));
    }

    #[test]
    fn invert_even_coefficient_has_divisibility_side() {
        let mut ctx = Ctx::default();
        let x = ctx.mk_var("x", Sort::BitVec(8));
        let four = ctx.mk_bv_const(4, 8);
        let one = ctx.mk_bv_const(1, 8);
        let mul = ctx.mk_bv_mul(four, x);
        let t = ctx.mk_bv_add(mul, one); // 4x + 1
        // addr = 4·6 + 1 = 25 inverts to 6 with the side condition true.
        let addr = ctx.mk_bv_const(25, 8);
        let (wit, side) = invert_affine(&mut ctx, t, x, addr).unwrap();
        assert_eq!(ctx.const_bv(wit), Some(6));
        let side = side.expect("even coefficient requires a side condition");
        assert_eq!(ctx.const_bool(side), Some(true));
        // addr = 24 is not in the image of 4x + 1: side condition is false.
        let addr = ctx.mk_bv_const(24, 8);
        let (_, side) = invert_affine(&mut ctx, t, x, addr).unwrap();
        assert_eq!(ctx.const_bool(side.unwrap()), Some(false));
    }

    #[test]
    fn non_affine_maps_are_rejected() {
        let mut ctx = Ctx::default();
        let x = ctx.mk_var("x", Sort::BitVec(8));
        let sq = ctx.mk_bv_mul(x, x);
        assert!(affine_decompose(&mut ctx, sq, x).is_none());
        let y = ctx.mk_var("y", Sort::BitVec(8));
        let div = ctx.mk_bv_udiv(x, y);
        assert!(affine_decompose(&mut ctx, div, x).is_none());
    }
}
