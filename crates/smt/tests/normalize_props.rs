//! Property-based tests of the canonicalization pass (`pug_smt::normalize`).
//!
//! Every rule family — AC chains, constant folding / strength reduction,
//! `ite` normalization, store-chain normalization — is fuzzed against the
//! reference interpreter in `pug_smt::eval`: for ≥200 random well-sorted
//! terms per family, the canonical form must (1) evaluate identically to
//! the input under random assignments, (2) be a fixpoint of the pass
//! (idempotence), and (3) coincide for commuted/reassociated/permuted
//! twins of the same term.
//!
//! The two rules of `facts_refute` are fuzzed the same way: equality
//! substitution never refutes a premise set that a model satisfies
//! together with the negated goal, and the polynomial identity check
//! finds ring-law twins equal, and equal twins evaluate equal. The set
//! `propagate` hands the solver evaluates like the original set under
//! every assignment, alone and after a committed prefix.

use pug_smt::eval::eval;
use pug_smt::normalize::{facts_refute, normalize, propagate, Propagation};
use pug_smt::{Ctx, Env, Op, Sort, TermId, Value};
use pug_testutil::TestRng;
use std::collections::HashMap;

const W: u32 = 8;
const CASES: u32 = 256; // per rule family — the issue floor is 200
const ENVS: usize = 4; // random assignments checked per term

/// The fixed variable pool every fuzzed term draws from.
struct Vars {
    bv: Vec<TermId>,
    bools: Vec<TermId>,
    arr: TermId,
}

fn mk_vars(ctx: &mut Ctx) -> Vars {
    Vars {
        bv: (0..4).map(|i| ctx.mk_var(&format!("v{i}"), Sort::BitVec(W))).collect(),
        bools: (0..3).map(|i| ctx.mk_var(&format!("p{i}"), Sort::Bool)).collect(),
        arr: ctx.mk_var("a", Sort::Array { index: W, elem: W }),
    }
}

/// A complete random assignment for the pool (eval panics on unbound vars).
fn random_env(rng: &mut TestRng, vars: &Vars) -> Env {
    let mut env = Env::new();
    for &v in &vars.bv {
        env.insert(v, Value::Bv(rng.gen_u64() & 0xff, W));
    }
    for &p in &vars.bools {
        env.insert(p, Value::Bool(rng.gen_bool(0.5)));
    }
    let mut entries = HashMap::new();
    for _ in 0..4 {
        entries.insert(rng.gen_u64() & 0xff, rng.gen_u64() & 0xff);
    }
    env.insert(
        vars.arr,
        Value::Array { entries, default: rng.gen_u64() & 0xff, index_width: W, elem_width: W },
    );
    env
}

/// The two core properties every rule family must satisfy: the canonical
/// form is semantically identical under random assignments, and it is a
/// fixpoint of the pass. Returns the canonical form for twin checks.
fn check_sound_and_idempotent(
    ctx: &mut Ctx,
    t: TermId,
    vars: &Vars,
    rng: &mut TestRng,
    case: u32,
) -> TermId {
    let n = normalize(ctx, t);
    let n2 = normalize(ctx, n);
    assert_eq!(n, n2, "case {case}: normalize must be idempotent");
    for _ in 0..ENVS {
        let env = random_env(rng, vars);
        assert_eq!(
            eval(ctx, t, &env),
            eval(ctx, n, &env),
            "case {case}: canonical form changed the term's value"
        );
    }
    n
}

/// Random right-to-left association of `items` under an AC operator —
/// each call picks a different grouping of the same operand list.
fn fold_random(ctx: &mut Ctx, rng: &mut TestRng, op: u32, items: &[TermId]) -> TermId {
    if items.len() == 1 {
        return items[0];
    }
    let split = rng.gen_range(1..items.len());
    let l = fold_random(ctx, rng, op, &items[..split]);
    let r = fold_random(ctx, rng, op, &items[split..]);
    apply_bv_ac(ctx, op, l, r)
}

fn apply_bv_ac(ctx: &mut Ctx, op: u32, a: TermId, b: TermId) -> TermId {
    match op {
        0 => ctx.mk_bv_add(a, b),
        1 => ctx.mk_bv_mul(a, b),
        2 => ctx.mk_bv_and(a, b),
        3 => ctx.mk_bv_or(a, b),
        _ => ctx.mk_bv_xor(a, b),
    }
}

/// Fisher–Yates on the deterministic test rng.
fn shuffle(rng: &mut TestRng, items: &mut [TermId]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

// --- Rule family 1: AC chains --------------------------------------------

/// Permuted + reassociated bit-vector AC chains normalize to one node and
/// keep their value.
#[test]
fn ac_bv_twins_share_canonical_form() {
    let mut rng = TestRng::seed_from_u64(0xac_b1);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let op = rng.gen_range(0u32..5);
        let n_leaves = rng.gen_range(3usize..=6);
        let mut leaves: Vec<TermId> = (0..n_leaves)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    ctx.mk_bv_const(rng.gen_u64() & 0xff, W)
                } else {
                    vars.bv[rng.gen_range(0..vars.bv.len())]
                }
            })
            .collect();
        let a = fold_random(&mut ctx, &mut rng, op, &leaves);
        shuffle(&mut rng, &mut leaves);
        let b = fold_random(&mut ctx, &mut rng, op, &leaves);
        let na = check_sound_and_idempotent(&mut ctx, a, &vars, &mut rng, case);
        let nb = check_sound_and_idempotent(&mut ctx, b, &vars, &mut rng, case);
        assert_eq!(na, nb, "case {case}: twins must share one canonical form (op {op})");
    }
}

/// Same property for the Boolean AC operators (`∧ ∨ ⊕`).
#[test]
fn ac_bool_twins_share_canonical_form() {
    let mut rng = TestRng::seed_from_u64(0xac_b001);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let op = rng.gen_range(0u32..3);
        let n_leaves = rng.gen_range(3usize..=6);
        let mut leaves: Vec<TermId> = (0..n_leaves)
            .map(|_| {
                let p = vars.bools[rng.gen_range(0..vars.bools.len())];
                if rng.gen_bool(0.3) {
                    ctx.mk_not(p)
                } else {
                    p
                }
            })
            .collect();
        let fold = |ctx: &mut Ctx, rng: &mut TestRng, items: &[TermId]| -> TermId {
            let mut acc = items[0];
            for &l in &items[1..] {
                acc = match op {
                    0 => ctx.mk_and(acc, l),
                    1 => ctx.mk_or(acc, l),
                    _ => ctx.mk_xor(acc, l),
                };
                let _ = rng; // grouping is linear here; permutation is the twin
            }
            acc
        };
        let a = fold(&mut ctx, &mut rng, &leaves);
        shuffle(&mut rng, &mut leaves);
        let b = fold(&mut ctx, &mut rng, &leaves);
        let na = check_sound_and_idempotent(&mut ctx, a, &vars, &mut rng, case);
        let nb = check_sound_and_idempotent(&mut ctx, b, &vars, &mut rng, case);
        assert_eq!(na, nb, "case {case}: boolean twins must share one canonical form (op {op})");
    }
}

// --- Rule family 2: constant folding / strength reduction ----------------

/// Constant-heavy random expressions stay semantically identical under
/// normalization, and chains whose operands are all constants collapse to
/// a literal.
#[test]
fn const_folding_preserves_value_and_closes() {
    let mut rng = TestRng::seed_from_u64(0xc0_157);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        // Random expression over {+ * & | ^ << - ¬} with ~60% constant leaves.
        let t = arb_bv_expr(&mut ctx, &mut rng, &vars, 4, 0.6);
        check_sound_and_idempotent(&mut ctx, t, &vars, &mut rng, case);

        // Fully-constant chains must fold to a single literal.
        let op = rng.gen_range(0u32..5);
        let consts: Vec<TermId> =
            (0..rng.gen_range(3usize..=5)).map(|_| ctx.mk_bv_const(rng.gen_u64() & 0xff, W)).collect();
        let chain = fold_random(&mut ctx, &mut rng, op, &consts);
        let n = normalize(&mut ctx, chain);
        assert!(
            ctx.const_bv(n).is_some(),
            "case {case}: all-constant chain must fold to a literal"
        );
    }
}

/// `x * 2ⁿ` and `x << n` share a canonical form (strength reduction),
/// wherever the multiplication sits in a larger chain.
#[test]
fn strength_reduction_is_canonical() {
    let mut rng = TestRng::seed_from_u64(0x57_0e26);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let x = vars.bv[rng.gen_range(0..vars.bv.len())];
        let y = vars.bv[rng.gen_range(0..vars.bv.len())];
        let sh = rng.gen_range(1u64..4);
        let pw = ctx.mk_bv_const(1 << sh, W);
        let shc = ctx.mk_bv_const(sh, W);
        let mul = ctx.mk_bv_mul(x, pw);
        let shl = ctx.mk_bv_shl(x, shc);
        let a = ctx.mk_bv_add(mul, y);
        let b = ctx.mk_bv_add(y, shl);
        let na = check_sound_and_idempotent(&mut ctx, a, &vars, &mut rng, case);
        let nb = check_sound_and_idempotent(&mut ctx, b, &vars, &mut rng, case);
        assert_eq!(na, nb, "case {case}: x*{} and x<<{sh} must canonicalize together", 1u64 << sh);
    }
}

fn arb_bv_expr(ctx: &mut Ctx, rng: &mut TestRng, vars: &Vars, depth: usize, p_const: f64) -> TermId {
    if depth == 0 || rng.gen_bool(0.25) {
        return if rng.gen_bool(p_const) {
            ctx.mk_bv_const(rng.gen_u64() & 0xff, W)
        } else {
            vars.bv[rng.gen_range(0..vars.bv.len())]
        };
    }
    let a = arb_bv_expr(ctx, rng, vars, depth - 1, p_const);
    let b = arb_bv_expr(ctx, rng, vars, depth - 1, p_const);
    match rng.gen_range(0u32..8) {
        0 => ctx.mk_bv_add(a, b),
        1 => ctx.mk_bv_mul(a, b),
        2 => ctx.mk_bv_and(a, b),
        3 => ctx.mk_bv_or(a, b),
        4 => ctx.mk_bv_xor(a, b),
        5 => ctx.mk_bv_shl(a, b),
        6 => ctx.mk_bv_sub(a, b),
        _ => ctx.mk_bv_not(a),
    }
}

// --- Rule family 3: ite normalization ------------------------------------

/// `ite(¬c, a, b)` and `ite(c, b, a)` share a canonical form, including
/// when nested, and normalization never changes the selected value.
#[test]
fn ite_polarity_twins_share_canonical_form() {
    let mut rng = TestRng::seed_from_u64(0x17e);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        // A random (possibly nested) ite with a randomly-negated condition.
        let (a, b) = build_ite_twins(&mut ctx, &mut rng, &vars, 2);
        let na = check_sound_and_idempotent(&mut ctx, a, &vars, &mut rng, case);
        let nb = check_sound_and_idempotent(&mut ctx, b, &vars, &mut rng, case);
        assert_eq!(na, nb, "case {case}: polarity twins must share one canonical form");
    }
}

/// Build `ite(¬c, x, y)` and its flipped twin `ite(c, y, x)` where the
/// branches themselves recursively contain twinned ites.
fn build_ite_twins(
    ctx: &mut Ctx,
    rng: &mut TestRng,
    vars: &Vars,
    depth: usize,
) -> (TermId, TermId) {
    let (x, x2, y, y2) = if depth > 0 && rng.gen_bool(0.5) {
        let (x, x2) = build_ite_twins(ctx, rng, vars, depth - 1);
        let (y, y2) = build_ite_twins(ctx, rng, vars, depth - 1);
        (x, x2, y, y2)
    } else {
        let x = vars.bv[rng.gen_range(0..vars.bv.len())];
        let y = if rng.gen_bool(0.3) {
            ctx.mk_bv_const(rng.gen_u64() & 0xff, W)
        } else {
            vars.bv[rng.gen_range(0..vars.bv.len())]
        };
        (x, x, y, y)
    };
    let c = vars.bools[rng.gen_range(0..vars.bools.len())];
    let nc = ctx.mk_not(c);
    if rng.gen_bool(0.5) {
        (ctx.mk_ite(nc, x, y), ctx.mk_ite(c, y2, x2))
    } else {
        (ctx.mk_ite(c, x, y), ctx.mk_ite(nc, y2, x2))
    }
}

// --- Rule family 4: store-chain normalization ----------------------------

/// Random store chains: permuting distinct constant-address writes and
/// shadowing earlier writes to the same address both normalize away, and
/// a `select` over the chain reads the same value before and after.
#[test]
fn store_chain_twins_share_canonical_form() {
    let mut rng = TestRng::seed_from_u64(0x5702e);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);

        // Innermost-first write list: constant addresses (sortable), one
        // optional symbolic barrier, occasional shadowing duplicates.
        let n_writes = rng.gen_range(3usize..=6);
        let mut writes: Vec<(TermId, TermId)> = Vec::new();
        for _ in 0..n_writes {
            let addr = if rng.gen_bool(0.2) {
                vars.bv[rng.gen_range(0..vars.bv.len())]
            } else {
                ctx.mk_bv_const(rng.gen_range(0u64..4), W)
            };
            let val = if rng.gen_bool(0.5) {
                ctx.mk_bv_const(rng.gen_u64() & 0xff, W)
            } else {
                vars.bv[rng.gen_range(0..vars.bv.len())]
            };
            writes.push((addr, val));
        }

        // Twin: swap one adjacent pair of *distinct constant* addresses —
        // the only reorder the pass itself is allowed to perform.
        let mut twin = writes.clone();
        for i in 0..twin.len() - 1 {
            let (a0, a1) = (twin[i].0, twin[i + 1].0);
            match (ctx.const_bv(a0), ctx.const_bv(a1)) {
                (Some(c0), Some(c1)) if c0 != c1 => {
                    twin.swap(i, i + 1);
                    break;
                }
                _ => {}
            }
        }

        let chain = |ctx: &mut Ctx, ws: &[(TermId, TermId)]| -> TermId {
            let mut acc = vars.arr;
            for &(i, v) in ws {
                acc = ctx.mk_store(acc, i, v);
            }
            acc
        };
        let a = chain(&mut ctx, &writes);
        let b = chain(&mut ctx, &twin);

        // Compare through a select so the family is bv-valued for eval.
        let j = vars.bv[rng.gen_range(0..vars.bv.len())];
        let ra = ctx.mk_select(a, j);
        let rb = ctx.mk_select(b, j);
        let na = check_sound_and_idempotent(&mut ctx, ra, &vars, &mut rng, case);
        let nb = check_sound_and_idempotent(&mut ctx, rb, &vars, &mut rng, case);
        assert_eq!(na, nb, "case {case}: store twins must share one canonical form");

        // The array chain itself also canonicalizes soundly: its canonical
        // form reads identically at every probed index.
        let nchain = normalize(&mut ctx, a);
        for _ in 0..ENVS {
            let env = random_env(&mut rng, &vars);
            let idx = rng.gen_u64() & 0xff;
            let i = ctx.mk_bv_const(idx, W);
            let before = ctx.mk_select(a, i);
            let after = ctx.mk_select(nchain, i);
            assert_eq!(
                eval(&ctx, before, &env),
                eval(&ctx, after, &env),
                "case {case}: canonical chain must read identically at {idx}"
            );
        }
    }
}

/// An outer write to the same syntactic address shadows the inner one:
/// the canonical chain is strictly shorter and still reads identically.
#[test]
fn shadowed_writes_are_eliminated() {
    let mut rng = TestRng::seed_from_u64(0x5ad0);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let addr = ctx.mk_bv_const(rng.gen_range(0u64..4), W);
        let v1 = ctx.mk_bv_const(rng.gen_u64() & 0xff, W);
        let v2 = ctx.mk_bv_const(rng.gen_u64() & 0xff, W);
        let mid = if rng.gen_bool(0.5) {
            let other = ctx.mk_bv_const(4 + rng.gen_range(0u64..4), W);
            let ov = vars.bv[rng.gen_range(0..vars.bv.len())];
            let s = ctx.mk_store(vars.arr, addr, v1);
            ctx.mk_store(s, other, ov)
        } else {
            ctx.mk_store(vars.arr, addr, v1)
        };
        let t = ctx.mk_store(mid, addr, v2);
        let n = normalize(&mut ctx, t);
        assert!(
            store_depth(&ctx, n) < store_depth(&ctx, t),
            "case {case}: the shadowed write must be dropped"
        );
        for _ in 0..ENVS {
            let env = random_env(&mut rng, &vars);
            let idx = rng.gen_u64() & 0xff;
            let i = ctx.mk_bv_const(idx, W);
            let before = ctx.mk_select(t, i);
            let after = ctx.mk_select(n, i);
            assert_eq!(eval(&ctx, before, &env), eval(&ctx, after, &env), "case {case}");
        }
    }
}

fn store_depth(ctx: &Ctx, mut t: TermId) -> usize {
    let mut d = 0;
    while matches!(ctx.op(t), Op::Store) {
        d += 1;
        t = ctx.args(t)[0];
    }
    d
}

// --- facts_refute: equality substitution ---------------------------------

/// Random premise sets of var = var and compound = var equalities that
/// hold in a random model, with goals that rename variables to ones the
/// model makes equal: whenever the model also satisfies the negated goal,
/// `facts_refute` must not refute the set.
#[test]
fn equality_substitution_never_refutes_a_model() {
    let mut rng = TestRng::seed_from_u64(0xe9_5b);
    let (mut checked, mut refuted) = (0, 0);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let mut vars = mk_vars(&mut ctx);
        let mut env = random_env(&mut rng, &vars);
        // A tiny value domain, so that variables often agree.
        for &v in &vars.bv {
            env.insert(v, Value::Bv(rng.gen_range(0u64..3), W));
        }
        let mut premises = Vec::new();
        // compound = var: a defined variable takes the compound's value.
        for i in 0..2 {
            let c = arb_bv_expr(&mut ctx, &mut rng, &vars, 2, 0.3);
            let d = ctx.mk_var(&format!("d{i}"), Sort::BitVec(W));
            env.insert(d, eval(&ctx, c, &env));
            premises.push(ctx.mk_eq(c, d));
            vars.bv.push(d);
        }
        // var = var, kept when the model makes them equal.
        for _ in 0..5 {
            let a = vars.bv[rng.gen_range(0..vars.bv.len())];
            let b = vars.bv[rng.gen_range(0..vars.bv.len())];
            if eval(&ctx, a, &env) == eval(&ctx, b, &env) {
                premises.push(ctx.mk_eq(a, b));
            }
        }
        shuffle(&mut rng, &mut premises);
        for &p in &premises {
            assert!(eval(&ctx, p, &env).as_bool(), "case {case}: a premise is false in the model");
        }
        // Goal: a term against its copy with variables renamed to ones of
        // the same value, or against an unrelated term.
        let lhs = arb_bv_expr(&mut ctx, &mut rng, &vars, 3, 0.3);
        let rhs = if rng.gen_bool(0.6) {
            let mut rename = HashMap::new();
            for &v in &vars.bv {
                let same: Vec<TermId> = vars
                    .bv
                    .iter()
                    .copied()
                    .filter(|&u| eval(&ctx, u, &env) == eval(&ctx, v, &env))
                    .collect();
                rename.insert(v, same[rng.gen_range(0..same.len())]);
            }
            ctx.substitute(lhs, &rename)
        } else {
            arb_bv_expr(&mut ctx, &mut rng, &vars, 3, 0.3)
        };
        let ng = ctx.mk_neq(lhs, rhs);
        let discharged = facts_refute(&mut ctx, &premises, ng);
        if eval(&ctx, ng, &env).as_bool() {
            checked += 1;
            assert!(!discharged, "case {case}: refuted a set its model satisfies");
        }
        refuted += usize::from(discharged);
    }
    assert!(checked >= 20, "only {checked} cases had a model of the negated goal");
    assert!(refuted >= 20, "only {refuted} cases were refuted: substitution went unexercised");
}

// --- facts_refute: polynomial identity -----------------------------------

/// A random ring expression: `+ − * neg ~` and `<<` by a constant over
/// variables, constants and non-ring atoms (`& | ^ udiv`).
fn arb_ring_expr(ctx: &mut Ctx, rng: &mut TestRng, vars: &Vars, depth: usize) -> TermId {
    let var = |rng: &mut TestRng| vars.bv[rng.gen_range(0..vars.bv.len())];
    if depth == 0 || rng.gen_bool(0.2) {
        return match rng.gen_range(0u32..6) {
            0 => ctx.mk_bv_const(rng.gen_u64() & 0xff, W),
            1 => {
                let (x, y) = (var(rng), var(rng));
                match rng.gen_range(0u32..4) {
                    0 => ctx.mk_bv_and(x, y),
                    1 => ctx.mk_bv_or(x, y),
                    2 => ctx.mk_bv_xor(x, y),
                    _ => ctx.mk_bv_udiv(x, y),
                }
            }
            _ => var(rng),
        };
    }
    let a = arb_ring_expr(ctx, rng, vars, depth - 1);
    match rng.gen_range(0u32..6) {
        0 => {
            let b = arb_ring_expr(ctx, rng, vars, depth - 1);
            ctx.mk_bv_add(a, b)
        }
        1 => {
            let b = arb_ring_expr(ctx, rng, vars, depth - 1);
            ctx.mk_bv_sub(a, b)
        }
        2 => {
            let b = arb_ring_expr(ctx, rng, vars, depth - 1);
            ctx.mk_bv_mul(a, b)
        }
        3 => ctx.mk_bv_neg(a),
        4 => ctx.mk_bv_not(a),
        _ => {
            let k = ctx.mk_bv_const(rng.gen_range(1u64..W as u64), W);
            ctx.mk_bv_shl(a, k)
        }
    }
}

/// `t` spelled differently by ring laws over ℤ/2^W: commuted sums,
/// added-and-subtracted constants, distributed products, coefficients
/// split into two that wrap around, `−x = ~x + 1`, `~x = −x − 1` and
/// `x << k = x·2ᵏ⁻¹ + x·2ᵏ⁻¹`. Atoms are kept as they are.
fn respell(ctx: &mut Ctx, rng: &mut TestRng, t: TermId) -> TermId {
    let args = ctx.args(t).to_vec();
    let one = ctx.mk_bv_const(1, W);
    match ctx.op(t).clone() {
        Op::BvAdd => {
            let (a, b) = (respell(ctx, rng, args[0]), respell(ctx, rng, args[1]));
            let c = ctx.mk_bv_const(rng.gen_u64() & 0xff, W);
            let (ac, bc) = (ctx.mk_bv_add(a, c), ctx.mk_bv_sub(b, c));
            ctx.mk_bv_add(bc, ac)
        }
        Op::BvSub => {
            let (a, b) = (respell(ctx, rng, args[0]), respell(ctx, rng, args[1]));
            let nb = ctx.mk_bv_neg(b);
            ctx.mk_bv_add(a, nb)
        }
        Op::BvMul => {
            let (a, b) = (respell(ctx, rng, args[0]), respell(ctx, rng, args[1]));
            if matches!(ctx.op(a), Op::BvAdd) {
                let (a0, a1) = (ctx.args(a)[0], ctx.args(a)[1]);
                let (p, q) = (ctx.mk_bv_mul(a0, b), ctx.mk_bv_mul(a1, b));
                ctx.mk_bv_add(p, q)
            } else {
                let k = rng.gen_u64() & 0xff;
                let (k0, k1) = (ctx.mk_bv_const(k, W), ctx.mk_bv_const(1u64.wrapping_sub(k), W));
                let (ak0, ak1) = (ctx.mk_bv_mul(a, k0), ctx.mk_bv_mul(a, k1));
                let (p, q) = (ctx.mk_bv_mul(ak0, b), ctx.mk_bv_mul(ak1, b));
                ctx.mk_bv_add(p, q)
            }
        }
        Op::BvNeg => {
            let a = respell(ctx, rng, args[0]);
            let na = ctx.mk_bv_not(a);
            ctx.mk_bv_add(na, one)
        }
        Op::BvNot => {
            let a = respell(ctx, rng, args[0]);
            let na = ctx.mk_bv_neg(a);
            ctx.mk_bv_sub(na, one)
        }
        Op::BvShl if ctx.const_bv(args[1]).is_some() => {
            let a = respell(ctx, rng, args[0]);
            let k = ctx.const_bv(args[1]).expect("guarded by the match arm");
            let half = ctx.mk_bv_const(1 << (k - 1), W);
            let h = ctx.mk_bv_mul(a, half);
            ctx.mk_bv_add(h, h)
        }
        _ => t,
    }
}

/// Random ring-term twins: `b` is `a` respelled by ring laws over ℤ/2^W,
/// and in half the cases perturbed so that it differs from `a`, by a
/// constant or by reading a non-ring operator as a ring operator. Every
/// unperturbed twin is the same polynomial, and whenever `facts_refute`
/// finds the twins the same polynomial they evaluate equal under random
/// assignments.
#[test]
fn ring_identity_twins_evaluate_equal() {
    let mut rng = TestRng::seed_from_u64(0x9017);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let a = arb_ring_expr(&mut ctx, &mut rng, &vars, 3);
        let mut b = respell(&mut ctx, &mut rng, a);
        let perturbed = rng.gen_bool(0.5);
        if perturbed {
            let (x, y) = (vars.bv[0], vars.bv[1]);
            let (atom, ring) = match rng.gen_range(0u32..4) {
                0 => (ctx.mk_bv_const(rng.gen_range(1u64..0x100), W), ctx.mk_bv_const(0, W)),
                1 => (ctx.mk_bv_xor(x, y), ctx.mk_bv_add(x, y)),
                2 => (ctx.mk_bv_and(x, y), ctx.mk_bv_mul(x, y)),
                _ => (ctx.mk_bv_shl(x, y), ctx.mk_bv_mul(x, y)),
            };
            let diff = ctx.mk_bv_sub(atom, ring);
            b = ctx.mk_bv_add(b, diff);
        }
        let ng = ctx.mk_neq(a, b);
        let identical = facts_refute(&mut ctx, &[], ng);
        assert!(identical || perturbed, "case {case}: ring-law twins are one polynomial");
        if identical {
            for _ in 0..ENVS {
                let env = random_env(&mut rng, &vars);
                assert_eq!(
                    eval(&ctx, a, &env),
                    eval(&ctx, b, &env),
                    "case {case}: twins found identical evaluate differently"
                );
            }
        }
    }
}

// --- propagate: the class-substituted set ----------------------------------

/// A random fact: var = var, var = const, compound = var, an unsigned or
/// signed comparison, a Boolean variable, or the negation `¬g` of one of
/// them. Constants come from {0, 1, 2}, so that `x <u 1` and `x ≤u 0` fold
/// to equalities.
fn arb_fact(ctx: &mut Ctx, rng: &mut TestRng, vars: &Vars, negate: bool) -> TermId {
    let var = |rng: &mut TestRng| vars.bv[rng.gen_range(0..vars.bv.len())];
    let f = match rng.gen_range(0u32..6) {
        0 => {
            let (a, b) = (var(rng), var(rng));
            ctx.mk_eq(a, b)
        }
        1 => {
            let (a, k) = (var(rng), ctx.mk_bv_const(rng.gen_range(0u64..3), W));
            ctx.mk_eq(a, k)
        }
        2 => {
            let c = arb_bv_expr(ctx, rng, vars, 2, 0.3);
            let a = var(rng);
            ctx.mk_eq(c, a)
        }
        3 => {
            let a = var(rng);
            let b = if rng.gen_bool(0.5) {
                var(rng)
            } else {
                ctx.mk_bv_const(rng.gen_range(0u64..3), W)
            };
            match rng.gen_range(0u32..3) {
                0 => ctx.mk_bv_ult(a, b),
                1 => ctx.mk_bv_ule(a, b),
                _ => ctx.mk_bv_slt(b, a),
            }
        }
        4 => vars.bools[rng.gen_range(0..vars.bools.len())],
        _ => {
            let g = arb_fact(ctx, rng, vars, false);
            ctx.mk_not(g)
        }
    };
    if negate {
        ctx.mk_not(f)
    } else {
        f
    }
}

/// Random premise sets of the facts above (a fifth of them conjunctions of
/// two), a random negated goal, and a random committed prefix. Under every
/// assignment the set `propagate` returns evaluates like the original set,
/// and so does the committed prefix with the delta that leaves its facts
/// out; a refuted set is false under every assignment.
#[test]
fn class_substitution_keeps_every_model() {
    let mut rng = TestRng::seed_from_u64(0xc1_a55);
    let (mut open, mut refuted, mut satisfied) = (0, 0, 0);
    for case in 0..CASES {
        let mut ctx = Ctx::new();
        let vars = mk_vars(&mut ctx);
        let premises: Vec<TermId> = (0..rng.gen_range(1usize..=4))
            .map(|_| {
                let f = arb_fact(&mut ctx, &mut rng, &vars, false);
                if rng.gen_bool(0.2) {
                    let g = arb_fact(&mut ctx, &mut rng, &vars, false);
                    ctx.mk_and(f, g)
                } else {
                    f
                }
            })
            .collect();
        let ng = arb_fact(&mut ctx, &mut rng, &vars, true);
        let committed: Vec<bool> = premises.iter().map(|_| rng.gen_bool(0.5)).collect();
        let whole = propagate(&mut ctx, &premises, |_| true, ng);
        let split = propagate(&mut ctx, &premises, |i| !committed[i], ng);
        let prefix: Vec<TermId> =
            premises.iter().zip(&committed).filter(|(_, &c)| c).map(|(&p, _)| p).collect();
        let holds = |env: &Env, set: &[TermId]| set.iter().all(|&t| eval(&ctx, t, env).as_bool());
        for _ in 0..4 * ENVS {
            let mut env = random_env(&mut rng, &vars);
            // A tiny value domain, so that the equalities often hold.
            for &v in &vars.bv {
                env.insert(v, Value::Bv(rng.gen_range(0u64..3), W));
            }
            let original = holds(&env, &premises) && holds(&env, &[ng]);
            satisfied += usize::from(original);
            match (&whole, &split) {
                (Propagation::Refuted, Propagation::Refuted) => {
                    assert!(!original, "case {case}: refuted a set the assignment satisfies");
                }
                (Propagation::Open(set), Propagation::Open(delta)) => {
                    assert_eq!(holds(&env, set), original, "case {case}: the rewritten set");
                    assert_eq!(
                        holds(&env, &prefix) && holds(&env, delta),
                        original,
                        "case {case}: the committed prefix with the delta"
                    );
                }
                _ => panic!("case {case}: the committed prefix changed whether the set is refuted"),
            }
        }
        match whole {
            Propagation::Refuted => refuted += 1,
            Propagation::Open(_) => open += 1,
        }
    }
    assert!(open >= 100, "only {open} sets were left open");
    assert!(refuted >= 10, "only {refuted} sets were refuted");
    assert!(satisfied >= 100, "only {satisfied} assignments satisfied a set");
}
