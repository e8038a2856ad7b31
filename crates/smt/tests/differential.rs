//! Differential testing of the full SMT pipeline (rewrite → array
//! elimination → bit-blast → CDCL) against the reference evaluator.
//!
//! Strategy: generate random terms, pick random concrete inputs, compute the
//! expected value with `eval`, then assert `term == expected` and check the
//! solver (a) finds it satisfiable and (b) returns a model under which the
//! original term evaluates to the expected value. Also assert
//! `term != expected` under fully fixed inputs and expect Unsat.

use pug_smt::{check, Budget, Ctx, Env, SmtResult, Sort, TermId, Value};
use pug_testutil::TestRng;

struct Gen {
    rng: TestRng,
    vars: Vec<(TermId, u64)>,
    width: u32,
}

impl Gen {
    fn new(seed: u64, width: u32, ctx: &mut Ctx, nvars: usize) -> Gen {
        let mut rng = TestRng::seed_from_u64(seed);
        let vars = (0..nvars)
            .map(|i| {
                let v = ctx.mk_var(&format!("v{i}_{width}_{seed}"), Sort::BitVec(width));
                let val = rng.gen_u64() & pug_smt::sort::mask(width);
                (v, val)
            })
            .collect();
        Gen { rng, vars, width }
    }

    fn env(&self) -> Env {
        self.vars.iter().map(|&(v, x)| (v, Value::Bv(x, self.width))).collect()
    }

    /// Random bit-vector term of bounded depth.
    fn bv_term(&mut self, ctx: &mut Ctx, depth: usize) -> TermId {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return if self.rng.gen_bool(0.5) {
                self.vars[self.rng.gen_range(0..self.vars.len())].0
            } else {
                let v = self.rng.gen_u64();
                ctx.mk_bv_const(v, self.width)
            };
        }
        let a = self.bv_term(ctx, depth - 1);
        let b = self.bv_term(ctx, depth - 1);
        match self.rng.gen_range(0..14) {
            0 => ctx.mk_bv_add(a, b),
            1 => ctx.mk_bv_sub(a, b),
            2 => ctx.mk_bv_mul(a, b),
            3 => ctx.mk_bv_udiv(a, b),
            4 => ctx.mk_bv_urem(a, b),
            5 => ctx.mk_bv_and(a, b),
            6 => ctx.mk_bv_or(a, b),
            7 => ctx.mk_bv_xor(a, b),
            8 => ctx.mk_bv_shl(a, b),
            9 => ctx.mk_bv_lshr(a, b),
            10 => ctx.mk_bv_ashr(a, b),
            11 => ctx.mk_bv_not(a),
            12 => ctx.mk_bv_neg(a),
            _ => {
                let c = self.bool_term(ctx, depth - 1);
                ctx.mk_ite(c, a, b)
            }
        }
    }

    /// Random Boolean term of bounded depth.
    fn bool_term(&mut self, ctx: &mut Ctx, depth: usize) -> TermId {
        if depth == 0 {
            let a = self.bv_term(ctx, 0);
            let b = self.bv_term(ctx, 0);
            return ctx.mk_bv_ult(a, b);
        }
        match self.rng.gen_range(0..7) {
            0 => {
                let a = self.bv_term(ctx, depth - 1);
                let b = self.bv_term(ctx, depth - 1);
                ctx.mk_bv_ult(a, b)
            }
            1 => {
                let a = self.bv_term(ctx, depth - 1);
                let b = self.bv_term(ctx, depth - 1);
                ctx.mk_bv_sle(a, b)
            }
            2 => {
                let a = self.bv_term(ctx, depth - 1);
                let b = self.bv_term(ctx, depth - 1);
                ctx.mk_eq(a, b)
            }
            3 => {
                let a = self.bool_term(ctx, depth - 1);
                let b = self.bool_term(ctx, depth - 1);
                ctx.mk_and(a, b)
            }
            4 => {
                let a = self.bool_term(ctx, depth - 1);
                let b = self.bool_term(ctx, depth - 1);
                ctx.mk_or(a, b)
            }
            5 => {
                let a = self.bool_term(ctx, depth - 1);
                ctx.mk_not(a)
            }
            _ => {
                let a = self.bool_term(ctx, depth - 1);
                let b = self.bool_term(ctx, depth - 1);
                ctx.mk_xor(a, b)
            }
        }
    }

    /// Constraints pinning every variable to its concrete value.
    fn pin_vars(&self, ctx: &mut Ctx) -> Vec<TermId> {
        self.vars
            .iter()
            .map(|&(v, x)| {
                let c = ctx.mk_bv_const(x, self.width);
                ctx.mk_eq(v, c)
            })
            .collect()
    }
}

fn run_width(width: u32, rounds: u64) {
    let mut ctx = Ctx::new();
    for seed in 0..rounds {
        let mut g = Gen::new(seed * 7919 + width as u64, width, &mut ctx, 3);
        let t = g.bv_term(&mut ctx, 3);
        let expected = pug_smt::eval::eval(&ctx, t, &g.env()).as_bv();
        let expected_c = ctx.mk_bv_const(expected, width);

        // (a) t == expected is satisfiable, and any model is consistent.
        let eq = ctx.mk_eq(t, expected_c);
        match check(&mut ctx, &[eq], &Budget::unlimited()) {
            SmtResult::Sat(m) => {
                let got = m.eval_bv(&ctx, t);
                let want = m.eval_bv(&ctx, expected_c);
                assert_eq!(got, want, "model does not satisfy assertion (w={width}, seed={seed})");
            }
            other => panic!("expected Sat for w={width} seed={seed}, got {other:?}"),
        }

        // (b) under pinned inputs, t != expected is unsatisfiable.
        let mut asserts = g.pin_vars(&mut ctx);
        let neq = ctx.mk_neq(t, expected_c);
        asserts.push(neq);
        let r = check(&mut ctx, &asserts, &Budget::unlimited());
        assert!(
            r.is_unsat(),
            "pinned disequality must be Unsat (w={width}, seed={seed}), got {r:?}"
        );
    }
}

#[test]
fn differential_width_4() {
    run_width(4, 60);
}

#[test]
fn differential_width_8() {
    run_width(8, 40);
}

#[test]
fn differential_width_13() {
    run_width(13, 25);
}

#[test]
fn differential_width_32() {
    run_width(32, 12);
}

#[test]
fn differential_bool_formulas() {
    let mut ctx = Ctx::new();
    for seed in 0..40u64 {
        let mut g = Gen::new(seed + 10_000, 6, &mut ctx, 3);
        let t = g.bool_term(&mut ctx, 3);
        let expected = pug_smt::eval::eval(&ctx, t, &g.env()).as_bool();
        let mut asserts = g.pin_vars(&mut ctx);
        let lit = if expected { ctx.mk_not(t) } else { t };
        asserts.push(lit);
        let r = check(&mut ctx, &asserts, &Budget::unlimited());
        assert!(r.is_unsat(), "bool formula mismatch at seed {seed}: {r:?}");
    }
}

#[test]
fn arrays_differential() {
    // Random store chains + symbolic reads, cross-checked against eval.
    let mut ctx = Ctx::new();
    let w = 8;
    for seed in 0..30u64 {
        let mut rng = TestRng::seed_from_u64(seed + 999);
        let arr = ctx.mk_var(&format!("arr{seed}"), Sort::Array { index: w, elem: w });
        let base_entries: std::collections::HashMap<u64, u64> =
            (0..4).map(|_| (rng.gen_range(0..16), rng.gen_range(0..256))).collect();
        let mut cur = arr;
        let mut writes = Vec::new();
        for _ in 0..rng.gen_range(1..5) {
            let i = rng.gen_range(0..16u64);
            let v = rng.gen_range(0..256u64);
            let it = ctx.mk_bv_const(i, w);
            let vt = ctx.mk_bv_const(v, w);
            cur = ctx.mk_store(cur, it, vt);
            writes.push((i, v));
        }
        let k = ctx.mk_var(&format!("k{seed}"), Sort::BitVec(w));
        let kv = rng.gen_range(0..16u64);
        let read = ctx.mk_select(cur, k);

        let env: Env = Env::from([
            (
                arr,
                Value::Array {
                    entries: base_entries.clone(),
                    default: 0,
                    index_width: w,
                    elem_width: w,
                },
            ),
            (k, Value::Bv(kv, w)),
        ]);
        let expected = pug_smt::eval::eval(&ctx, read, &env).as_bv();

        // Pin k, pin the base array entries via select constraints, then
        // assert the read differs from the expected value: must be Unsat.
        let kc = ctx.mk_bv_const(kv, w);
        let mut asserts = vec![ctx.mk_eq(k, kc)];
        for (&i, &v) in &base_entries {
            let it = ctx.mk_bv_const(i, w);
            let vt = ctx.mk_bv_const(v, w);
            let sel = ctx.mk_select(arr, it);
            asserts.push(ctx.mk_eq(sel, vt));
        }
        // If kv hits an unpinned base index the default is unconstrained, so
        // only run the Unsat direction when kv is covered by a write or pin.
        let covered = writes.iter().any(|&(i, _)| i == kv) || base_entries.contains_key(&kv);
        if covered {
            let ec = ctx.mk_bv_const(expected, w);
            let neq = ctx.mk_neq(read, ec);
            asserts.push(neq);
            let r = check(&mut ctx, &asserts, &Budget::unlimited());
            assert!(r.is_unsat(), "array read mismatch at seed {seed}: {r:?}");
        }
    }
}

/// Every comparison at widths 1–4, exhaustively: `a ⋈ b` for `ult`, `ule`,
/// `slt` and `sle` between a variable pinned to `a` and a variable pinned
/// to `b`, and with either operand the constant itself, which reaches the
/// constructors' folds at 0, 1 and all-ones. The solver must agree with
/// `eval` in both polarities.
#[test]
fn comparisons_agree_with_eval_exhaustively() {
    type Cmp = fn(&mut Ctx, TermId, TermId) -> TermId;
    let cmps: [(&str, Cmp); 4] = [
        ("ult", Ctx::mk_bv_ult),
        ("ule", Ctx::mk_bv_ule),
        ("slt", Ctx::mk_bv_slt),
        ("sle", Ctx::mk_bv_sle),
    ];
    let mut ctx = Ctx::new();
    for w in 1..=4u32 {
        let x = ctx.mk_var(&format!("x{w}"), Sort::BitVec(w));
        let y = ctx.mk_var(&format!("y{w}"), Sort::BitVec(w));
        for a in 0..1u64 << w {
            for b in 0..1u64 << w {
                let (ka, kb) = (ctx.mk_bv_const(a, w), ctx.mk_bv_const(b, w));
                let pins = [ctx.mk_eq(x, ka), ctx.mk_eq(y, kb)];
                let env = Env::from([(x, Value::Bv(a, w)), (y, Value::Bv(b, w))]);
                for (name, cmp) in cmps {
                    for (l, r) in [(x, y), (x, kb), (ka, y)] {
                        let t = cmp(&mut ctx, l, r);
                        let holds = pug_smt::eval::eval(&ctx, t, &env).as_bool();
                        let nt = ctx.mk_not(t);
                        let (yes, no) = if holds { (t, nt) } else { (nt, t) };
                        let at = format!("{a} {name} {b} at width {w}");
                        let r_yes = check(&mut ctx, &[pins[0], pins[1], yes], &Budget::unlimited());
                        assert!(r_yes.is_sat(), "{at} must read {holds}, got {r_yes:?}");
                        let r_no = check(&mut ctx, &[pins[0], pins[1], no], &Budget::unlimited());
                        assert!(r_no.is_unsat(), "{at} must not read {}, got {r_no:?}", !holds);
                    }
                }
            }
        }
    }
}
