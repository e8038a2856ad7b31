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
//! On top of the per-term pass, [`propagate`] discharges an obligation
//! with **zero SAT calls** when one round of fact propagation across its
//! whole assert set refutes the negated goal. Two rules decide it:
//!
//! * **Equality substitution.** Asserted conjuncts become `⊤`, and the
//!   sides of asserted equalities join a union-find whose classes are
//!   rewritten to one representative: the class's constant, or else its
//!   variable with the smallest `TermId` (a compound side is rewritten to
//!   its variable's representative). One pass of [`Ctx::substitute`]
//!   rebuilds the negated goal through the constructors. The matching
//!   constraints of the parameterized encoding (`k = s.x`, `k = t.x`) make
//!   `s.x` and `t.x` one variable this way, so both sides of a value
//!   obligation often become the same term and the goal folds to `⊥`.
//! * **Polynomial identity.** When the rewritten negated goal is
//!   `¬(a = b)` over bit-vectors, `a` and `b` are read as polynomials over
//!   ℤ/2^w: `+ − neg ~ *` and `<<` by a constant are ring operations, and
//!   every other node is an atom keyed by its `TermId`. Identical
//!   polynomials make the obligation valid, e.g. `(x+n)·(x−n)` against
//!   `x·x − n·n`. A polynomial holds at most 64 monomials, each of
//!   degree at most 64.
//!
//! The polynomial form is only compared, never built as a term. A query
//! these rules leave open keeps its asserts for the fingerprint and the
//! cache, but the blaster gets the class-substituted set that
//! [`propagate`] returns: every fact rebuilt over its arguments'
//! representatives, one equation per replaced class member, and the
//! rewritten negated goal. It has exactly the original's models, and
//! whatever the classes bind to a constant (a unit thread extent's `x = 0`,
//! through the `a <u 1 → a = 0` fold in [`Ctx::mk_bv_ult`]) is blasted as
//! that constant, so `blockIdx.x * blockDim.x` over a one-block grid is no
//! multiplier.

use crate::term::{Ctx, Op, TermId};
use pug_sat::failpoints;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// What one round of fact propagation makes of an assert set
/// `premises ∧ neg_goal` ([`propagate`]).
#[derive(Debug)]
pub enum Propagation {
    /// The facts refute the set: the obligation is valid without SAT.
    Refuted,
    /// The set to solve in place of the original. It has exactly the
    /// original's models, and every term in it is rewritten over the
    /// classes' representatives.
    Open(Vec<TermId>),
}

/// One round of bounded fact propagation across an assert set: refute it
/// without a SAT call, or rewrite it into the set to blast.
///
/// Facts are the premises' top-level conjuncts, and every fact holds in
/// every model of the set. Facts join terms into classes whose members are
/// equal in every such model: a fact joins `⊤`, the `g` of a fact `¬g`
/// joins `⊥`, and the two sides of a fact `a = b` join each other. A
/// class's representative is its constant, or else its variable with the
/// smallest `TermId` (a class of compound terms alone has none), and one
/// pass of [`Ctx::substitute`] rewrites every other member to it. The
/// rewritten negated goal has the value of `neg_goal` in every model of
/// the set, so the set is [`Propagation::Refuted`] when
///
/// * a class holds two different constants (the facts contradict each
///   other);
/// * the rewritten negated goal folds to `⊥` in the constructors; or
/// * it is `¬(a = b)` over bit-vectors and `a` and `b` are the same
///   polynomial over ℤ/2^w (see the module doc).
///
/// Otherwise the [`Propagation::Open`] set holds, in this order, each fact
/// of a premise `i` with `fresh(i)` rebuilt over its arguments'
/// representatives, one equation `m′ = rep` for each class member `m`
/// that has a representative and is not itself a fact (`m′` is `m`
/// rebuilt the same way), and the rewritten negated goal. Each member is
/// replaced by a term equal to it in every model of the premises, and the
/// equations restore the classes, so the set has exactly the original's
/// models. The facts of the premises without `fresh(i)` are left out: the
/// caller asserts those premises elsewhere (a committed prefix), and with
/// them the set again has exactly the original's models.
pub fn propagate(
    ctx: &mut Ctx,
    premises: &[TermId],
    fresh: impl Fn(usize) -> bool,
    neg_goal: TermId,
) -> Propagation {
    if ctx.const_bool(neg_goal) == Some(false)
        || premises.iter().any(|&p| ctx.const_bool(p) == Some(false))
    {
        // A contradictory premise makes the set unsat (the obligation holds
        // vacuously); the caller surfaces this as a rewrite discharge.
        return Propagation::Refuted;
    }
    let tru = ctx.mk_true();
    let fls = ctx.mk_false();
    let mut classes = Classes::default();
    // Split conjunctions into individual facts, keeping each fact's premise.
    let mut facts: Vec<(usize, TermId)> = Vec::new();
    for (i, &p) in premises.iter().enumerate() {
        let mut work = vec![p];
        while let Some(f) = work.pop() {
            match ctx.op(f) {
                Op::And => work.extend(ctx.args(f).iter().copied()),
                Op::True => {}
                op => {
                    classes.union(f, tru);
                    match op {
                        Op::Not => classes.union(ctx.args(f)[0], fls),
                        Op::Eq => classes.union(ctx.args(f)[0], ctx.args(f)[1]),
                        _ => {}
                    }
                    facts.push((i, f));
                }
            }
        }
    }
    let Some(map) = classes.bindings(ctx) else {
        return Propagation::Refuted;
    };
    let mut memo = HashMap::new();
    let goal = ctx.substitute_cached(neg_goal, &map, &mut memo);
    if ctx.const_bool(goal) == Some(false) || ring_identity(ctx, goal) {
        return Propagation::Refuted;
    }
    let mut set = Vec::new();
    for &(i, f) in &facts {
        if fresh(i) {
            set.push(rebuild_over(ctx, f, &map, &mut memo));
        }
    }
    let is_fact: HashSet<TermId> = facts.iter().map(|&(_, f)| f).collect();
    let mut members: Vec<(TermId, TermId)> =
        map.iter().map(|(&m, &r)| (m, r)).filter(|(m, _)| !is_fact.contains(m)).collect();
    members.sort_unstable();
    for (m, r) in members {
        let m2 = rebuild_over(ctx, m, &map, &mut memo);
        set.push(ctx.mk_eq(m2, r));
    }
    set.push(goal);
    Propagation::Open(set)
}

/// Does one round of fact propagation refute `premises ∧ neg_goal`
/// ([`propagate`])? `true` only on a *definite* refutation; `false` means
/// "solve it", never "satisfiable".
pub fn facts_refute(ctx: &mut Ctx, premises: &[TermId], neg_goal: TermId) -> bool {
    matches!(propagate(ctx, premises, |_| true, neg_goal), Propagation::Refuted)
}

/// `t` rebuilt over its arguments' representatives: the substitution
/// applied below `t`, never to `t` itself (a fact's own binding is `⊤`).
fn rebuild_over(
    ctx: &mut Ctx,
    t: TermId,
    map: &HashMap<TermId, TermId>,
    memo: &mut HashMap<TermId, TermId>,
) -> TermId {
    let args: Vec<TermId> = ctx.args(t).to_vec();
    let new: Vec<TermId> = args.iter().map(|&a| ctx.substitute_cached(a, map, memo)).collect();
    if new == args {
        t
    } else {
        let op = ctx.op(t).clone();
        ctx.rebuild(&op, &new)
    }
}

/// Union-find over the terms that facts equate; [`Classes::bindings`]
/// picks each class's representative.
#[derive(Default)]
struct Classes {
    parent: HashMap<TermId, TermId>,
}

impl Classes {
    fn find(&mut self, t: TermId) -> TermId {
        let mut root = *self.parent.entry(t).or_insert(t);
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        let mut cur = t;
        while cur != root {
            cur = self.parent.insert(cur, root).expect("a visited term is a member");
        }
        root
    }

    fn union(&mut self, a: TermId, b: TermId) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent.insert(ra.max(rb), ra.min(rb));
    }

    /// Every member's representative, or `None` when a class holds two
    /// different constants. Representatives are constants, else variables;
    /// members of a class that has neither are left alone.
    fn bindings(mut self, ctx: &Ctx) -> Option<HashMap<TermId, TermId>> {
        // Constants rank first, then variables, each by `TermId`.
        let rank = |t: TermId| match ctx.op(t) {
            Op::True | Op::False | Op::BvConst { .. } => (0, t),
            Op::Var { .. } => (1, t),
            _ => (2, t),
        };
        let members: Vec<TermId> = self.parent.keys().copied().collect();
        let mut rep: HashMap<TermId, TermId> = HashMap::new();
        for &m in &members {
            let r = rep.entry(self.find(m)).or_insert(m);
            if rank(m).0 == 0 && rank(*r).0 == 0 && m != *r {
                return None;
            }
            if rank(m) < rank(*r) {
                *r = m;
            }
        }
        let mut map = HashMap::new();
        for m in members {
            let r = rep[&self.find(m)];
            if m != r && rank(r).0 < 2 {
                map.insert(m, r);
            }
        }
        Some(map)
    }
}

/// Most monomials a polynomial may hold, and the highest degree of one.
const MAX_MONOMIALS: usize = 64;
const MAX_DEGREE: usize = 64;

/// A polynomial over ℤ/2^w: each monomial (a sorted multiset of atoms; the
/// empty one is the constant term) with its non-zero coefficient.
type Poly = BTreeMap<Vec<TermId>, u64>;

/// Is `neg_goal` the negation of a bit-vector equality `a = b` whose sides
/// are the same polynomial over ℤ/2^w? Then `a = b` holds under every
/// assignment. The polynomials are only compared, never built as terms.
fn ring_identity(ctx: &Ctx, neg_goal: TermId) -> bool {
    if !matches!(ctx.op(neg_goal), Op::Not) {
        return false;
    }
    let eq = ctx.args(neg_goal)[0];
    if !matches!(ctx.op(eq), Op::Eq) || !ctx.sort(ctx.args(eq)[0]).is_bv() {
        return false;
    }
    let (a, b) = (ctx.args(eq)[0], ctx.args(eq)[1]);
    let m = crate::sort::mask(ctx.width(a));
    let mut memo = HashMap::new();
    match (polynomial(ctx, a, m, &mut memo), polynomial(ctx, b, m, &mut memo)) {
        (Some(pa), Some(pb)) => pa == pb,
        _ => false,
    }
}

/// The operands of `t` that are ring operands: all of them for `+ − *`,
/// the first for `neg`, `~` and `<<` by a constant, none for an atom.
fn ring_args(ctx: &Ctx, t: TermId) -> &[TermId] {
    let args = ctx.args(t);
    match ctx.op(t) {
        Op::BvAdd | Op::BvSub | Op::BvMul => args,
        Op::BvNeg | Op::BvNot => &args[..1],
        Op::BvShl if ctx.const_bv(args[1]).is_some() => &args[..1],
        _ => &[],
    }
}

/// `t` as a polynomial over ℤ/2^w, where `m` is the width's mask, or
/// `None` when a subterm's polynomial exceeds the size bound. Every node
/// that is not a ring operation or a constant is an atom keyed by its
/// `TermId`. Iterative post-order, memoized per DAG node.
fn polynomial(ctx: &Ctx, t: TermId, m: u64, memo: &mut HashMap<TermId, Poly>) -> Option<Poly> {
    // `−1` is `m` in the ring, so `−x = m·x` and `~x = −x − 1 = m·x + m`.
    let minus_one = constant(m, m);
    let mut stack = vec![t];
    while let Some(&cur) = stack.last() {
        if memo.contains_key(&cur) {
            stack.pop();
            continue;
        }
        let pending: Vec<TermId> =
            ring_args(ctx, cur).iter().copied().filter(|a| !memo.contains_key(a)).collect();
        if !pending.is_empty() {
            stack.extend(pending);
            continue;
        }
        let arg = |i: usize| &memo[&ctx.args(cur)[i]];
        let atom = || Poly::from([(vec![cur], 1)]);
        let p = match ctx.op(cur) {
            Op::BvConst { value, .. } => constant(*value, m),
            Op::BvAdd => add(arg(0), arg(1), m),
            Op::BvSub => add(arg(0), &mul(arg(1), &minus_one, m), m),
            Op::BvNeg => mul(arg(0), &minus_one, m),
            Op::BvNot => add(&mul(arg(0), &minus_one, m), &minus_one, m),
            Op::BvMul => mul(arg(0), arg(1), m),
            Op::BvShl => match ctx.const_bv(ctx.args(cur)[1]) {
                // `k < w`: the constructor folds wider shifts to zero.
                Some(k) => mul(arg(0), &constant(1u64 << k, m), m),
                None => atom(),
            },
            _ => atom(),
        };
        if p.len() > MAX_MONOMIALS || p.keys().any(|mono| mono.len() > MAX_DEGREE) {
            return None;
        }
        memo.insert(cur, p);
        stack.pop();
    }
    Some(memo[&t].clone())
}

/// `p + q` over ℤ/2^w.
fn add(p: &Poly, q: &Poly, m: u64) -> Poly {
    let mut sum = p.clone();
    for (mono, &k) in q {
        accumulate(&mut sum, mono.clone(), k, m);
    }
    sum
}

/// `p · q` over ℤ/2^w.
fn mul(p: &Poly, q: &Poly, m: u64) -> Poly {
    let mut product = Poly::new();
    for (a, &ka) in p {
        for (b, &kb) in q {
            let mut mono: Vec<TermId> = a.iter().chain(b).copied().collect();
            mono.sort_unstable();
            accumulate(&mut product, mono, ka.wrapping_mul(kb), m);
        }
    }
    product
}

/// The constant polynomial `c`.
fn constant(c: u64, m: u64) -> Poly {
    let mut p = Poly::new();
    accumulate(&mut p, Vec::new(), c, m);
    p
}

/// Add `k · mono` into `p`, dropping the monomial if its coefficient
/// becomes zero.
fn accumulate(p: &mut Poly, mono: Vec<TermId>, k: u64, m: u64) {
    match p.entry(mono) {
        Entry::Vacant(e) => {
            if k & m != 0 {
                e.insert(k & m);
            }
        }
        Entry::Occupied(mut e) => {
            let c = e.get().wrapping_add(k) & m;
            if c == 0 {
                e.remove();
            } else {
                *e.get_mut() = c;
            }
        }
    }
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

    #[test]
    fn equal_variables_substitute_but_never_contradict() {
        let mut c = Ctx::new();
        let [x, y, z, u] = ["x", "y", "z", "u"].map(|n| c.mk_var(n, Sort::BitVec(8)));
        let arr = c.mk_var("a", Sort::Array { index: 8, elem: 8 });
        let (xy, xz) = (c.mk_eq(x, y), c.mk_eq(x, z));
        // x = y ∧ x = z: f(y) = f(z) follows.
        let (fy, fz) = (c.mk_select(arr, y), c.mk_select(arr, z));
        let ng = c.mk_neq(fy, fz);
        assert!(facts_refute(&mut c, &[xy, xz], ng));
        // Two different variable bindings of x are no contradiction.
        let tru = c.mk_true();
        assert!(!facts_refute(&mut c, &[xy, xz], tru));
        let xu = c.mk_neq(x, u);
        assert!(!facts_refute(&mut c, &[xy, xz], xu));
        // A compound side is rewritten to its variable's representative:
        // y + 1 = z turns (y + 1)·u into z·u.
        let one = c.mk_bv_const(1, 8);
        let y1 = c.mk_bv_add(y, one);
        let y1z = c.mk_eq(y1, z);
        let (lhs, rhs) = (c.mk_bv_mul(z, u), c.mk_bv_mul(y1, u));
        let ng = c.mk_neq(lhs, rhs);
        assert!(facts_refute(&mut c, &[xy, y1z], ng));
        // x = y = u ∧ y + 1 = z: y + 1 = u is false in every model.
        let yu = c.mk_eq(y, u);
        let ng = c.mk_neq(y1, u);
        assert!(!facts_refute(&mut c, &[xy, y1z, yu], ng));
    }

    #[test]
    fn a_class_with_a_constant_maps_its_members_to_it() {
        let mut c = Ctx::new();
        let [x, y] = ["x", "y"].map(|n| c.mk_var(n, Sort::BitVec(8)));
        let [five, six] = [5, 6].map(|v| c.mk_bv_const(v, 8));
        let (xy, y5, y6) = (c.mk_eq(x, y), c.mk_eq(y, five), c.mk_eq(y, six));
        // x = y ∧ y = 5 ⊨ x + 1 = 6.
        let one = c.mk_bv_const(1, 8);
        let x1 = c.mk_bv_add(x, one);
        let ng = c.mk_neq(x1, six);
        assert!(facts_refute(&mut c, &[xy, y5], ng));
        let tru = c.mk_true();
        assert!(!facts_refute(&mut c, &[xy, y5], tru));
        // Two constants in one class: the facts contradict each other.
        let x6 = c.mk_eq(x, six);
        assert!(facts_refute(&mut c, &[xy, y5, x6], tru));
        assert!(facts_refute(&mut c, &[y5, y6], tru));
    }

    /// `¬(a = b)` with `a` and `b` built over fresh variables of width `w`.
    fn ring_goal(w: u32, build: impl Fn(&mut Ctx, TermId, TermId) -> (TermId, TermId)) -> bool {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(w));
        let y = c.mk_var("y", Sort::BitVec(w));
        let (a, b) = build(&mut c, x, y);
        let ng = c.mk_neq(a, b);
        facts_refute(&mut c, &[], ng)
    }

    #[test]
    fn difference_of_squares_is_discharged_at_every_width() {
        for w in [1, 8, 64] {
            let discharged = ring_goal(w, |c, x, _| {
                let one = c.mk_bv_const(1, w);
                let (xp, xm) = (c.mk_bv_add(x, one), c.mk_bv_sub(x, one));
                let xx = c.mk_bv_mul(x, x);
                (c.mk_bv_mul(xp, xm), c.mk_bv_sub(xx, one))
            });
            assert!(discharged, "(x+1)·(x−1) = x·x − 1 at width {w}");
        }
    }

    #[test]
    fn a_product_off_by_one_is_not_discharged() {
        let discharged = ring_goal(8, |c, x, y| {
            let one = c.mk_bv_const(1, 8);
            let yx = c.mk_bv_mul(y, x);
            (c.mk_bv_mul(x, y), c.mk_bv_add(yx, one))
        });
        assert!(!discharged, "x·y = y·x + 1 is false");
    }

    #[test]
    fn repeated_squaring_stops_at_the_degree_bound() {
        // x^(2^40) as a DAG of 40 shared squarings: its one monomial would
        // hold 2^40 atoms, so the check gives up instead.
        let discharged = ring_goal(8, |c, x, _| {
            let mut t = x;
            for _ in 0..40 {
                t = c.mk_bv_mul(t, t);
            }
            let two = c.mk_bv_const(2, 8);
            (c.mk_bv_mul(t, two), c.mk_bv_add(t, t))
        });
        assert!(!discharged);
    }

    #[test]
    fn non_ring_operators_stay_atoms() {
        type Mk = fn(&mut Ctx, TermId, TermId) -> TermId;
        let ops: [(&str, Mk); 7] = [
            ("udiv", Ctx::mk_bv_udiv),
            ("urem", Ctx::mk_bv_urem),
            ("&", Ctx::mk_bv_and),
            ("|", Ctx::mk_bv_or),
            ("^", Ctx::mk_bv_xor),
            ("<< y", Ctx::mk_bv_shl),
            (">> y", Ctx::mk_bv_lshr),
        ];
        for (name, mk) in ops {
            let mut c = Ctx::new();
            let x = c.mk_var("x", Sort::BitVec(8));
            let y = c.mk_var("y", Sort::BitVec(8));
            let t = mk(&mut c, x, y);
            let m = crate::sort::mask(8);
            let p = polynomial(&c, t, m, &mut HashMap::new());
            assert_eq!(p, Some(Poly::from([(vec![t], 1)])), "x {name} y is one atom");
            // Ring operations around the atom still apply.
            let two = c.mk_bv_const(2, 8);
            let (t2, tt) = (c.mk_bv_add(t, t), c.mk_bv_mul(t, two));
            let ng = c.mk_neq(t2, tt);
            assert!(facts_refute(&mut c, &[], ng), "x {name} y twice");
        }
    }
}
