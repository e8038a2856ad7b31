//! Equality-saturation-lite term canonicalization.
//!
//! The simplifying constructors in [`crate::term`] are *local*: they fold
//! constants, order the two operands of a commutative node, and reduce
//! strength, but they only ever look one level deep. Two obligations that
//! differ by an associativity regrouping (`(a+b)+c` vs `a+(b+c)`), an `ite`
//! condition polarity, or a store-chain permutation therefore hash-cons to
//! *different* nodes, miss the cross-rung `QueryCache`, and blast to
//! different CNF.
//!
//! This module closes that gap with a memoized bottom-up pass in the
//! egg-smol `TermDag` style: terms are rewritten to one canonical
//! representative per equivalence class (for the rule families below)
//! before fingerprinting and bit-blasting. The rules are deliberately a
//! strict subset of full equality saturation — each one is a directed,
//! terminating rewrite whose soundness is fuzzed against the reference
//! interpreter in `tests/normalize_props.rs`:
//!
//! * **AC chains** (`∧ ∨ ⊕ + * & | ^`): nested same-operator chains are
//!   flattened into their full operand multiset, constants are folded
//!   first (so the constructors' identity/annihilator rules fire), and the
//!   rest re-folded in `TermId` order — one canonical association for
//!   every permutation/regrouping of the same operands. Idempotent chains
//!   (`∧ ∨ & |`) drop duplicate operands and annihilate on a complementary
//!   pair *anywhere* in the chain; cancellative chains (`⊕`) cancel
//!   identical operands pairwise and absorb negations (`¬x ≡ x ⊕ ⊤`,
//!   `~x ≡ x ⊕ −1`) into one accumulated constant. Strength-reduced
//!   factors (`x << k` for `x · 2ᵏ`) are re-expanded while flattening `*`
//!   chains so the power-of-two rejoins the constant fold no matter where
//!   the constructors' local reduction fired.
//! * **`ite` normalization**: `ite(¬c, a, b) → ite(c, b, a)` (condition
//!   polarity), with branch dedup and constant-branch collapse delegated
//!   to the constructor.
//! * **Store chains**: writes fully shadowed by an outer write to the same
//!   (syntactic) address are dropped, and maximal runs of pairwise-distinct
//!   *constant*-address writes are sorted by address value. Symbolic
//!   addresses act as reorder barriers — commuting across them is only
//!   sound when the addresses are provably distinct.
//! * Everything the constructors already do (constant folding, `x*2ⁿ →
//!   x<<n`, `x+0 → x`, `x^x → 0`, pairwise commutative ordering) re-fires
//!   on every rebuilt node.
//!
//! On top of the per-term pass, [`facts_refute`] does one round of bounded
//! fact propagation across a whole assert set: asserted conjuncts (and
//! constants pinned by asserted equalities) are substituted into the
//! negated goal, so obligations that follow *syntactically* from their
//! premises collapse to `⊥` and are discharged with **zero SAT calls**.

use crate::term::{Ctx, Op, TermId};
use pug_sat::failpoints;
use std::collections::{HashMap, HashSet};

/// Counters for one normalizer's lifetime (one verification session).
#[derive(Clone, Copy, Debug, Default)]
pub struct NormalizeStats {
    /// Terms whose canonical form differs from the input node.
    pub rewritten: u64,
    /// Distinct nodes visited (memo entries).
    pub visited: u64,
}

/// Memoized canonicalizer. The term DAG is append-only and every rule is
/// deterministic, so memo entries never go stale — one normalizer serves a
/// whole session (the same `Ctx`) across all of its queries.
#[derive(Default)]
pub struct Normalizer {
    memo: HashMap<TermId, TermId>,
    pub stats: NormalizeStats,
}

impl Normalizer {
    pub fn new() -> Normalizer {
        Normalizer::default()
    }

    /// Canonical form of `t`. Idempotent: `normalize(normalize(t)) ==
    /// normalize(t)` (fuzzed in `tests/normalize_props.rs`).
    pub fn normalize(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        // Iterative post-order so deep store/arithmetic chains cannot
        // overflow the stack.
        let mut stack = vec![t];
        while let Some(&cur) = stack.last() {
            if self.memo.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let args: Vec<TermId> = ctx.args(cur).to_vec();
            let mut pending = false;
            for &a in &args {
                if !self.memo.contains_key(&a) {
                    stack.push(a);
                    pending = true;
                }
            }
            if pending {
                continue;
            }
            let n = self.rewrite(ctx, cur, &args);
            self.stats.visited += 1;
            if n != cur {
                self.stats.rewritten += 1;
            }
            self.memo.insert(cur, n);
            stack.pop();
        }
        self.memo[&t]
    }

    /// Canonicalize one node whose children are already canonical.
    fn rewrite(&mut self, ctx: &mut Ctx, t: TermId, args: &[TermId]) -> TermId {
        let nargs: Vec<TermId> = args.iter().map(|a| self.memo[a]).collect();
        let op = ctx.op(t).clone();
        match op {
            Op::And
            | Op::Or
            | Op::Xor
            | Op::BvAdd
            | Op::BvMul
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor => rewrite_ac(ctx, &op, &nargs),
            // `x << k` is the constructors' strength-reduced spelling of
            // `x · 2ᵏ`: route it through the multiplication chain so both
            // spellings share one canonical form (`k < w` is guaranteed —
            // the constructor folds wider shifts to the zero literal).
            Op::BvShl if ctx.const_bv(nargs[1]).is_some() => {
                let k = ctx.const_bv(nargs[1]).expect("guarded by the match arm");
                let w = ctx.width(t);
                let f = ctx.mk_bv_const(1u64 << k, w);
                rewrite_ac(ctx, &Op::BvMul, &[nargs[0], f])
            }
            Op::Ite => {
                let (mut c, mut a, mut b) = (nargs[0], nargs[1], nargs[2]);
                if matches!(ctx.op(c), Op::Not) {
                    c = ctx.args(c)[0];
                    std::mem::swap(&mut a, &mut b);
                }
                ctx.mk_ite(c, a, b)
            }
            Op::Store => rewrite_store(ctx, nargs[0], nargs[1], nargs[2]),
            _ => {
                if nargs == args {
                    t
                } else {
                    ctx.rebuild(&op, &nargs)
                }
            }
        }
    }
}

/// One-off normalization with a throwaway memo (tests, small terms).
pub fn normalize(ctx: &mut Ctx, t: TermId) -> TermId {
    Normalizer::new().normalize(ctx, t)
}

/// Failpoint-guarded normalization: `None` when the `smt::normalize` site
/// is armed with a non-panic fault — the caller must degrade to the
/// un-normalized term (sound either way; the two are equivalence-preserving
/// rewrites of each other) instead of poisoning the session.
pub fn try_normalize(norm: &mut Normalizer, ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if failpoints::trip("smt::normalize").is_some() {
        return None;
    }
    Some(norm.normalize(ctx, t))
}

fn is_const(ctx: &Ctx, t: TermId) -> bool {
    matches!(ctx.op(t), Op::True | Op::False | Op::BvConst { .. })
}

/// Flatten a same-operator chain into its operand multiset and re-fold in
/// canonical order: constants first (the constructors fold them pairwise
/// into one, then apply identity/annihilator rules), the rest ascending by
/// `TermId`. Every permutation and regrouping of the same operands reaches
/// the same fold, so commuted/reassociated twins become one node.
///
/// The naive fold alone is *not* canonical: the constructors' local rules
/// (`x∧x → x`, `x∧¬x → ⊥`, `x·2ᵏ → x≪k`) fire in one grouping and not in
/// another, so duplicates, complements and strength-reduced factors are
/// handled over the whole multiset here before folding.
fn rewrite_ac(ctx: &mut Ctx, op: &Op, nargs: &[TermId]) -> TermId {
    // ⊕ is cancellative, not idempotent — it gets its own normal form.
    match op {
        Op::Xor => return rewrite_xor_bool(ctx, nargs),
        Op::BvXor => return rewrite_xor_bv(ctx, nargs),
        _ => {}
    }
    let mut leaves: Vec<TermId> = Vec::new();
    let mut work: Vec<TermId> = nargs.to_vec();
    while let Some(x) = work.pop() {
        if ctx.op(x) == op {
            work.extend(ctx.args(x).iter().copied());
        } else if *op == Op::BvMul
            && matches!(ctx.op(x), Op::BvShl)
            && ctx.const_bv(ctx.args(x)[1]).is_some()
        {
            // Strength-reduced factor: `t << k ≡ t · 2ᵏ`. Re-expand so the
            // power-of-two rejoins the constant fold (and `t`, which may
            // itself be a `*` chain, keeps flattening).
            let base = ctx.args(x)[0];
            let k = ctx.const_bv(ctx.args(x)[1]).expect("guarded above");
            let w = ctx.width(x);
            work.push(base);
            leaves.push(ctx.mk_bv_const(1u64 << k, w));
        } else {
            leaves.push(x);
        }
    }
    if matches!(op, Op::And | Op::Or | Op::BvAnd | Op::BvOr) {
        // Idempotent: duplicate operands collapse no matter where they sit.
        leaves.sort_unstable();
        leaves.dedup();
        // A complementary pair anywhere in the chain annihilates it.
        let set: HashSet<TermId> = leaves.iter().copied().collect();
        let contradict = leaves.iter().any(|&l| match ctx.op(l) {
            Op::Not | Op::BvNot => set.contains(&ctx.args(l)[0]),
            _ => false,
        });
        if contradict {
            return match op {
                Op::And => ctx.mk_false(),
                Op::Or => ctx.mk_true(),
                Op::BvAnd => {
                    let w = ctx.width(leaves[0]);
                    ctx.mk_bv_const(0, w)
                }
                _ => {
                    let w = ctx.width(leaves[0]);
                    let m = crate::sort::mask(w);
                    ctx.mk_bv_const(m, w)
                }
            };
        }
    }
    // `(not-a-constant, id)`: constants sort to the front, the rest by id.
    leaves.sort_unstable_by_key(|&l| (!is_const(ctx, l), l));
    let mut acc = leaves[0];
    for &l in &leaves[1..] {
        acc = apply_ac(ctx, op, acc, l);
    }
    acc
}

/// Canonical form for a Boolean `⊕` chain: negations are `⊕ ⊤` and fold
/// into one parity bit, identical operands cancel pairwise, and the parity
/// resurfaces as a single outer `¬`. Expanding a `¬` can uncover a nested
/// `⊕` chain, so flattening and expansion run in one worklist.
fn rewrite_xor_bool(ctx: &mut Ctx, nargs: &[TermId]) -> TermId {
    let mut flip = false;
    let mut rest: Vec<TermId> = Vec::new();
    let mut work: Vec<TermId> = nargs.to_vec();
    while let Some(l) = work.pop() {
        match ctx.op(l) {
            Op::Xor => work.extend(ctx.args(l).iter().copied()),
            Op::True => flip = !flip,
            Op::False => {}
            Op::Not => {
                flip = !flip;
                work.push(ctx.args(l)[0]);
            }
            _ => rest.push(l),
        }
    }
    rest.sort_unstable();
    let kept = cancel_pairs(&rest);
    let Some((&first, more)) = kept.split_first() else {
        return ctx.mk_bool(flip);
    };
    let mut acc = first;
    for &l in more {
        acc = ctx.mk_xor(acc, l);
    }
    if flip {
        ctx.mk_not(acc)
    } else {
        acc
    }
}

/// Canonical form for a bit-vector `^` chain: complements are `^ −1` and
/// constants accumulate into one value, identical operands cancel
/// pairwise, and an all-ones accumulator resurfaces as a single outer `~`.
fn rewrite_xor_bv(ctx: &mut Ctx, nargs: &[TermId]) -> TermId {
    let w = ctx.width(nargs[0]);
    let m = crate::sort::mask(w);
    let mut cval = 0u64;
    let mut rest: Vec<TermId> = Vec::new();
    let mut work: Vec<TermId> = nargs.to_vec();
    while let Some(l) = work.pop() {
        match ctx.op(l) {
            Op::BvXor => work.extend(ctx.args(l).iter().copied()),
            Op::BvConst { value, .. } => cval ^= *value,
            Op::BvNot => {
                cval ^= m;
                work.push(ctx.args(l)[0]);
            }
            _ => rest.push(l),
        }
    }
    cval &= m;
    let flip = cval == m && w > 0;
    if flip {
        cval = 0;
    }
    rest.sort_unstable();
    let mut kept = cancel_pairs(&rest);
    if cval != 0 || kept.is_empty() {
        kept.insert(0, ctx.mk_bv_const(cval, w));
    }
    let mut acc = kept[0];
    for &l in &kept[1..] {
        acc = ctx.mk_bv_xor(acc, l);
    }
    if flip {
        ctx.mk_bv_not(acc)
    } else {
        acc
    }
}

/// Drop pairs of identical adjacent entries from a sorted slice — the
/// multiset modulo `x ⊕ x = identity`.
fn cancel_pairs(sorted: &[TermId]) -> Vec<TermId> {
    let mut kept = Vec::with_capacity(sorted.len());
    let mut i = 0;
    while i < sorted.len() {
        if i + 1 < sorted.len() && sorted[i] == sorted[i + 1] {
            i += 2;
        } else {
            kept.push(sorted[i]);
            i += 1;
        }
    }
    kept
}

fn apply_ac(ctx: &mut Ctx, op: &Op, a: TermId, b: TermId) -> TermId {
    match op {
        Op::And => ctx.mk_and(a, b),
        Op::Or => ctx.mk_or(a, b),
        Op::Xor => ctx.mk_xor(a, b),
        Op::BvAdd => ctx.mk_bv_add(a, b),
        Op::BvMul => ctx.mk_bv_mul(a, b),
        Op::BvAnd => ctx.mk_bv_and(a, b),
        Op::BvOr => ctx.mk_bv_or(a, b),
        Op::BvXor => ctx.mk_bv_xor(a, b),
        _ => unreachable!("not an AC operator: {op:?}"),
    }
}

/// Canonicalize a store chain whose children are already canonical.
fn rewrite_store(ctx: &mut Ctx, arr: TermId, idx: TermId, val: TermId) -> TermId {
    // Collect the chain outermost-first down to the non-store base.
    let mut writes: Vec<(TermId, TermId)> = vec![(idx, val)];
    let mut base = arr;
    while matches!(ctx.op(base), Op::Store) {
        let a = ctx.args(base);
        let (b, i, v) = (a[0], a[1], a[2]);
        writes.push((i, v));
        base = b;
    }
    // Shadowed-write elimination: an outer write to the same syntactic
    // address wins regardless of anything written in between.
    let mut seen: HashSet<TermId> = HashSet::new();
    writes.retain(|&(i, _)| seen.insert(i));
    // Innermost-first for the rebuild; sort maximal runs of constant
    // addresses (pairwise distinct after dedup, hence commuting) by value.
    writes.reverse();
    let mut out: Vec<(TermId, TermId)> = Vec::with_capacity(writes.len());
    let mut run: Vec<(TermId, TermId)> = Vec::new();
    for w in writes {
        if ctx.const_bv(w.0).is_some() {
            run.push(w);
        } else {
            flush_run(ctx, &mut run, &mut out);
            out.push(w);
        }
    }
    flush_run(ctx, &mut run, &mut out);
    let mut acc = base;
    for (i, v) in out {
        acc = ctx.mk_store(acc, i, v);
    }
    acc
}

fn flush_run(ctx: &Ctx, run: &mut Vec<(TermId, TermId)>, out: &mut Vec<(TermId, TermId)>) {
    run.sort_unstable_by_key(|&(i, _)| ctx.const_bv(i).expect("run holds constant addresses"));
    out.append(run);
}

/// One round of bounded fact propagation across an assert set: does the
/// premise set *syntactically* refute `neg_goal`?
///
/// Facts are the premises' top-level conjuncts. Every fact is true in
/// every model of the set, so substituting `fact → ⊤` (and `g → ⊥` for a
/// fact `¬g`, and `x → c` for a fact `x = c`) into the remaining asserts
/// preserves their value in every model. If the negated goal collapses to
/// `⊥` under that substitution — or the facts contradict each other
/// outright — the whole set is unsatisfiable and the obligation is valid
/// with zero SAT calls.
///
/// Returns `true` only on a *definite* refutation; `false` means "solve
/// it", never "satisfiable".
pub fn facts_refute(ctx: &mut Ctx, premises: &[TermId], neg_goal: TermId) -> bool {
    if ctx.const_bool(neg_goal) == Some(false) {
        return true;
    }
    if premises.iter().any(|&p| ctx.const_bool(p) == Some(false)) {
        // Contradictory premises: the set is unsat (the obligation holds
        // vacuously); the caller surfaces this as a rewrite discharge.
        return true;
    }
    let tru = ctx.mk_true();
    let fls = ctx.mk_false();
    // Split conjunctions into individual facts.
    let mut facts: Vec<TermId> = Vec::new();
    let mut work: Vec<TermId> = premises.to_vec();
    while let Some(f) = work.pop() {
        match ctx.op(f) {
            Op::And => work.extend(ctx.args(f).iter().copied()),
            Op::True => {}
            _ => facts.push(f),
        }
    }
    // fact → ⊤, ¬g → g ↦ ⊥, x = const → x ↦ const. A conflicting binding
    // is a direct premise contradiction: refuted.
    let mut map: HashMap<TermId, TermId> = HashMap::new();
    let bind = |map: &mut HashMap<TermId, TermId>, k: TermId, v: TermId| -> bool {
        match map.insert(k, v) {
            Some(old) => old != v,
            None => false,
        }
    };
    for &f in &facts {
        if bind(&mut map, f, tru) {
            return true;
        }
        match ctx.op(f) {
            Op::Not => {
                let g = ctx.args(f)[0];
                if bind(&mut map, g, fls) {
                    return true;
                }
            }
            Op::Eq => {
                let (a, b) = (ctx.args(f)[0], ctx.args(f)[1]);
                match (is_const(ctx, a), is_const(ctx, b)) {
                    (true, false) if bind(&mut map, b, a) => return true,
                    (false, true) if bind(&mut map, a, b) => return true,
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if map.is_empty() {
        return false;
    }
    let propagated = ctx.substitute(neg_goal, &map);
    ctx.const_bool(propagated) == Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn reassociated_sums_share_one_canonical_form() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let z = c.mk_var("z", Sort::BitVec(8));
        let xy = c.mk_bv_add(x, y);
        let l = c.mk_bv_add(xy, z);
        let yz = c.mk_bv_add(y, z);
        let r = c.mk_bv_add(x, yz);
        assert_ne!(l, r, "constructors alone must not merge regroupings");
        let nl = normalize(&mut c, l);
        let nr = normalize(&mut c, r);
        assert_eq!(nl, nr);
    }

    #[test]
    fn ite_polarity_is_canonical() {
        let mut c = Ctx::new();
        let p = c.mk_var("p", Sort::Bool);
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let np = c.mk_not(p);
        let a = c.mk_ite(np, x, y);
        let b = c.mk_ite(p, y, x);
        let na = normalize(&mut c, a);
        let nb = normalize(&mut c, b);
        assert_eq!(na, nb);
    }

    #[test]
    fn shadowed_and_permuted_stores_merge() {
        let mut c = Ctx::new();
        let arr = c.mk_var("a", Sort::Array { index: 8, elem: 8 });
        let (i0, i1) = (c.mk_bv_const(0, 8), c.mk_bv_const(1, 8));
        let (v0, v1, v2) = (c.mk_bv_const(10, 8), c.mk_bv_const(11, 8), c.mk_bv_const(12, 8));
        // store(store(store(a,0,10),1,11),0,12): the inner write to 0 is dead.
        let s1 = c.mk_store(arr, i0, v0);
        let s2 = c.mk_store(s1, i1, v1);
        let l = c.mk_store(s2, i0, v2);
        // store(store(a,1,11),0,12): same function.
        let t1 = c.mk_store(arr, i1, v1);
        let r = c.mk_store(t1, i0, v2);
        let nl = normalize(&mut c, l);
        let nr = normalize(&mut c, r);
        assert_eq!(nl, nr);
    }

    #[test]
    fn facts_refute_discharges_an_implied_disjunct() {
        let mut c = Ctx::new();
        let p = c.mk_var("p", Sort::Bool);
        let q = c.mk_var("q", Sort::Bool);
        let r = c.mk_var("r", Sort::Bool);
        // premises: p, q  —  goal: r ∨ (p ∧ q); ¬goal must collapse.
        let pq = c.mk_and(p, q);
        let goal = c.mk_or(r, pq);
        let ng = c.mk_not(goal);
        assert!(facts_refute(&mut c, &[p, q], ng));
        // p alone does not refute it.
        assert!(!facts_refute(&mut c, &[p], ng));
    }
}
