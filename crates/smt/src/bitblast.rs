//! Tseitin bit-blasting of (array-free) terms into CNF over `pug-sat`.
//!
//! Bit-vectors are encoded LSB-first as vectors of literals. Circuits:
//! ripple-carry adders, shift-add multipliers, barrel shifters, restoring
//! long division (matching SMT-LIB division-by-zero semantics) and
//! carry-based unsigned comparison.

use crate::term::{Ctx, Op, TermId};
use pug_sat::{Budget, Lit, Solver};
use std::collections::HashMap;

/// Terms blasted between budget polls. Each poll costs an `Instant::now`
/// plus an atomic load, so it stays off the per-gate path.
const BUDGET_POLL_INTERVAL: u64 = 256;

/// Structural-hashing key for a Tseitin gate: the kind plus its operand
/// literals *after* commutativity/polarity normalization, so equivalent
/// gates anywhere in the circuit share one output variable (AIG-style).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum GateKey {
    /// Operands sorted ascending.
    And(Lit, Lit),
    /// Operands polarity-normalized to positive and sorted; the caller
    /// re-applies the folded-out negations to the output.
    Xor(Lit, Lit),
    /// Condition normalized positive (swapping the branches), then-branch
    /// normalized positive (negating the output).
    Mux(Lit, Lit, Lit),
}

/// Incremental bit-blaster bound to one SAT solver instance.
pub struct BitBlaster {
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    /// Structural gate cache. Entries stay valid even across budget aborts:
    /// the key is the (already-encoded) operand literals and the defining
    /// clauses are added before insertion, so a hit never depends on state
    /// an abort could have skipped.
    gate_cache: HashMap<GateKey, Lit>,
    gates_hashconsed: u64,
    true_lit: Lit,
    /// Budget honoured during encoding (deadline, cancellation, clause-DB
    /// byte cap). Defaults to unlimited.
    budget: Budget,
    steps: u64,
    aborted: bool,
}

impl BitBlaster {
    /// Create a blaster; allocates the distinguished constant-true variable.
    pub fn new(solver: &mut Solver) -> BitBlaster {
        let t = solver.new_var().pos();
        solver.add_clause(&[t]);
        BitBlaster {
            bool_cache: HashMap::new(),
            bv_cache: HashMap::new(),
            gate_cache: HashMap::new(),
            gates_hashconsed: 0,
            true_lit: t,
            budget: Budget::unlimited(),
            steps: 0,
            aborted: false,
        }
    }

    /// Number of gate constructions answered from the structural cache
    /// (each one saved a fresh variable and its defining clauses).
    pub fn gates_hashconsed(&self) -> u64 {
        self.gates_hashconsed
    }

    /// Honour `budget` while encoding: large circuits (wide multipliers /
    /// dividers over many threads) can blow past a deadline before the SAT
    /// search even starts, so the blaster itself polls the deadline, the
    /// cancellation token and the clause-DB byte cap.
    pub fn set_budget(&mut self, budget: &Budget) {
        self.budget = budget.clone();
    }

    /// True once encoding was cut short by the budget. The CNF handed to the
    /// solver is then incomplete and the only sound answer is `Unknown`.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Budget poll shared by the two encoding entry points. On exhaustion
    /// the recursion collapses: every further term maps to a constant dummy
    /// that is *not* cached, so a later retry under a fresh budget re-encodes
    /// correctly.
    fn out_of_budget(&mut self, solver: &Solver) -> bool {
        if self.aborted {
            return true;
        }
        self.steps += 1;
        if self.steps.is_multiple_of(BUDGET_POLL_INTERVAL)
            && (self.budget.interrupted()
                || self.budget.clause_bytes_exhausted(solver.clause_db_bytes()))
        {
            self.aborted = true;
        }
        self.aborted
    }

    /// The literal fixed to true.
    pub fn lit_true(&self) -> Lit {
        self.true_lit
    }

    /// The literal fixed to false.
    pub fn lit_false(&self) -> Lit {
        !self.true_lit
    }

    fn lit_of_bool(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// Assert a Boolean term.
    pub fn assert_term(&mut self, ctx: &Ctx, solver: &mut Solver, t: TermId) {
        let l = self.bool_lit(ctx, solver, t);
        solver.add_clause(&[l]);
    }

    /// Literal encoding a Boolean term.
    pub fn bool_lit(&mut self, ctx: &Ctx, solver: &mut Solver, t: TermId) -> Lit {
        debug_assert!(ctx.sort(t).is_bool(), "bool_lit on non-Bool term");
        if let Some(&l) = self.bool_cache.get(&t) {
            return l;
        }
        if self.out_of_budget(solver) {
            return self.true_lit; // dummy; caller must consult `aborted()`
        }
        let args = ctx.args(t).to_vec();
        let l = match ctx.op(t).clone() {
            Op::True => self.true_lit,
            Op::False => !self.true_lit,
            Op::Var { .. } => solver.new_var().pos(),
            Op::Not => {
                let a = self.bool_lit(ctx, solver, args[0]);
                !a
            }
            Op::And => {
                let a = self.bool_lit(ctx, solver, args[0]);
                let b = self.bool_lit(ctx, solver, args[1]);
                self.and_gate(solver, a, b)
            }
            Op::Or => {
                let a = self.bool_lit(ctx, solver, args[0]);
                let b = self.bool_lit(ctx, solver, args[1]);
                self.or_gate(solver, a, b)
            }
            Op::Xor => {
                let a = self.bool_lit(ctx, solver, args[0]);
                let b = self.bool_lit(ctx, solver, args[1]);
                self.xor_gate(solver, a, b)
            }
            Op::Implies => {
                let a = self.bool_lit(ctx, solver, args[0]);
                let b = self.bool_lit(ctx, solver, args[1]);
                self.or_gate(solver, !a, b)
            }
            Op::Ite => {
                let c = self.bool_lit(ctx, solver, args[0]);
                let a = self.bool_lit(ctx, solver, args[1]);
                let b = self.bool_lit(ctx, solver, args[2]);
                self.mux_gate(solver, c, a, b)
            }
            Op::Eq => {
                if ctx.sort(args[0]).is_bool() {
                    let a = self.bool_lit(ctx, solver, args[0]);
                    let b = self.bool_lit(ctx, solver, args[1]);
                    !self.xor_gate(solver, a, b)
                } else {
                    let a = self.bv_lits(ctx, solver, args[0]);
                    let b = self.bv_lits(ctx, solver, args[1]);
                    self.bv_eq(solver, &a, &b)
                }
            }
            Op::BvUlt => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                self.bv_ult(solver, &a, &b)
            }
            Op::BvUle => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                let gt = self.bv_ult(solver, &b, &a);
                !gt
            }
            Op::BvSlt => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                let (fa, fb) = (self.flip_msb(&a), self.flip_msb(&b));
                self.bv_ult(solver, &fa, &fb)
            }
            Op::BvSle => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                let (fa, fb) = (self.flip_msb(&a), self.flip_msb(&b));
                let gt = self.bv_ult(solver, &fb, &fa);
                !gt
            }
            op => unreachable!("non-Boolean operator {op:?} at Bool sort"),
        };
        if !self.aborted {
            // A result built on top of dummy sub-encodings must not persist.
            self.bool_cache.insert(t, l);
        }
        l
    }

    /// LSB-first literal vector encoding a bit-vector term.
    pub fn bv_lits(&mut self, ctx: &Ctx, solver: &mut Solver, t: TermId) -> Vec<Lit> {
        debug_assert!(ctx.sort(t).is_bv(), "bv_lits on non-BitVec term");
        if let Some(ls) = self.bv_cache.get(&t) {
            return ls.clone();
        }
        let w = ctx.width(t) as usize;
        if self.out_of_budget(solver) {
            return vec![self.lit_false(); w]; // dummy; caller checks `aborted()`
        }
        let args = ctx.args(t).to_vec();
        let ls: Vec<Lit> = match ctx.op(t).clone() {
            Op::BvConst { value, .. } => {
                (0..w).map(|i| self.lit_of_bool(value >> i & 1 == 1)).collect()
            }
            Op::Var { .. } => (0..w).map(|_| solver.new_var().pos()).collect(),
            Op::Ite => {
                let c = self.bool_lit(ctx, solver, args[0]);
                let a = self.bv_lits(ctx, solver, args[1]);
                let b = self.bv_lits(ctx, solver, args[2]);
                (0..w).map(|i| self.mux_gate(solver, c, a[i], b[i])).collect()
            }
            Op::BvAdd => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                self.adder(solver, &a, &b, self.lit_false()).0
            }
            Op::BvSub => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
                self.adder(solver, &a, &nb, self.lit_true()).0
            }
            Op::BvNeg => {
                // -a = ¬a + 1
                let a = self.bv_lits(ctx, solver, args[0]);
                let na: Vec<Lit> = a.iter().map(|&l| !l).collect();
                let zeros = vec![self.lit_false(); w];
                self.adder(solver, &na, &zeros, self.lit_true()).0
            }
            Op::BvMul => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                self.multiplier(solver, &a, &b)
            }
            Op::BvUdiv => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                self.divider(solver, &a, &b).0
            }
            Op::BvUrem => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                self.divider(solver, &a, &b).1
            }
            Op::BvAnd => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                (0..w).map(|i| self.and_gate(solver, a[i], b[i])).collect()
            }
            Op::BvOr => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                (0..w).map(|i| self.or_gate(solver, a[i], b[i])).collect()
            }
            Op::BvXor => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let b = self.bv_lits(ctx, solver, args[1]);
                (0..w).map(|i| self.xor_gate(solver, a[i], b[i])).collect()
            }
            Op::BvNot => {
                let a = self.bv_lits(ctx, solver, args[0]);
                a.iter().map(|&l| !l).collect()
            }
            Op::BvShl => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let s = self.bv_lits(ctx, solver, args[1]);
                self.barrel_shift(solver, &a, &s, ShiftKind::Left)
            }
            Op::BvLshr => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let s = self.bv_lits(ctx, solver, args[1]);
                self.barrel_shift(solver, &a, &s, ShiftKind::LogicalRight)
            }
            Op::BvAshr => {
                let a = self.bv_lits(ctx, solver, args[0]);
                let s = self.bv_lits(ctx, solver, args[1]);
                self.barrel_shift(solver, &a, &s, ShiftKind::ArithRight)
            }
            Op::ZeroExt { .. } => {
                let mut a = self.bv_lits(ctx, solver, args[0]);
                a.resize(w, self.lit_false());
                a
            }
            Op::SignExt { .. } => {
                let mut a = self.bv_lits(ctx, solver, args[0]);
                let msb = *a.last().expect("non-empty bit-vector");
                a.resize(w, msb);
                a
            }
            Op::Extract { hi, lo } => {
                let a = self.bv_lits(ctx, solver, args[0]);
                a[lo as usize..=hi as usize].to_vec()
            }
            Op::Concat => {
                let hi = self.bv_lits(ctx, solver, args[0]);
                let lo = self.bv_lits(ctx, solver, args[1]);
                let mut out = lo;
                out.extend_from_slice(&hi);
                out
            }
            Op::Select | Op::Store => {
                unreachable!("arrays must be eliminated before bit-blasting")
            }
            op => unreachable!("non-bit-vector operator {op:?} at BitVec sort"),
        };
        debug_assert_eq!(ls.len(), w);
        if !self.aborted {
            self.bv_cache.insert(t, ls.clone());
        }
        ls
    }

    // -------------------------------------------------------- model reading

    /// Model value of a bit-vector term after a `Sat` answer. Returns 0 for
    /// terms never handed to the blaster (they are unconstrained).
    pub fn model_bv(&self, solver: &Solver, t: TermId) -> u64 {
        match self.bv_cache.get(&t) {
            Some(ls) => ls
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &l)| acc | (u64::from(solver.model_lit(l)) << i)),
            None => 0,
        }
    }

    /// Model value of a Boolean term after a `Sat` answer.
    pub fn model_bool(&self, solver: &Solver, t: TermId) -> bool {
        match self.bool_cache.get(&t) {
            Some(&l) => solver.model_lit(l),
            None => false,
        }
    }

    // ------------------------------------------------------------- gates

    fn fresh(&self, solver: &mut Solver) -> Lit {
        solver.new_var().pos()
    }

    fn and_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() || b == self.lit_false() {
            return self.lit_false();
        }
        if a == self.lit_true() {
            return b;
        }
        if b == self.lit_true() {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false();
        }
        let key = GateKey::And(a.min(b), a.max(b));
        if let Some(&g) = self.gate_cache.get(&key) {
            self.gates_hashconsed += 1;
            return g;
        }
        let g = self.fresh(solver);
        solver.add_clause(&[!g, a]);
        solver.add_clause(&[!g, b]);
        solver.add_clause(&[g, !a, !b]);
        self.gate_cache.insert(key, g);
        g
    }

    fn or_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        let g = self.and_gate(solver, !a, !b);
        !g
    }

    fn xor_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == self.lit_true() {
            return !b;
        }
        if b == self.lit_true() {
            return !a;
        }
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true();
        }
        // xor(¬x, y) = ¬xor(x, y): fold operand negations into the output
        // so all four polarity combinations share one gate.
        let flip = !a.is_positive() ^ !b.is_positive();
        let x = if a.is_positive() { a } else { !a };
        let y = if b.is_positive() { b } else { !b };
        let key = GateKey::Xor(x.min(y), x.max(y));
        if let Some(&g) = self.gate_cache.get(&key) {
            self.gates_hashconsed += 1;
            return if flip { !g } else { g };
        }
        let g = self.fresh(solver);
        solver.add_clause(&[!g, x, y]);
        solver.add_clause(&[!g, !x, !y]);
        solver.add_clause(&[g, !x, y]);
        solver.add_clause(&[g, x, !y]);
        self.gate_cache.insert(key, g);
        if flip {
            !g
        } else {
            g
        }
    }

    /// `mux(c, a, b)`: `a` when `c`, else `b`.
    fn mux_gate(&mut self, solver: &mut Solver, c: Lit, a: Lit, b: Lit) -> Lit {
        if a == b {
            return a;
        }
        if c == self.lit_true() {
            return a;
        }
        if c == self.lit_false() {
            return b;
        }
        // Constant-branch absorption: collapse to a single AND/OR gate
        // (which the structural cache then shares).
        if a == self.lit_true() {
            return self.or_gate(solver, c, b);
        }
        if a == self.lit_false() {
            return self.and_gate(solver, !c, b);
        }
        if b == self.lit_true() {
            return self.or_gate(solver, !c, a);
        }
        if b == self.lit_false() {
            return self.and_gate(solver, c, a);
        }
        // mux(c, a, ¬a) = ¬(c ⊕ a)
        if a == !b {
            let x = self.xor_gate(solver, c, a);
            return !x;
        }
        // mux(¬c, a, b) = mux(c, b, a); mux(c, ¬a, ¬b) = ¬mux(c, a, b).
        let (c, a, b) = if c.is_positive() { (c, a, b) } else { (!c, b, a) };
        let (a, b, flip) = if a.is_positive() { (a, b, false) } else { (!a, !b, true) };
        let key = GateKey::Mux(c, a, b);
        if let Some(&g) = self.gate_cache.get(&key) {
            self.gates_hashconsed += 1;
            return if flip { !g } else { g };
        }
        let g = self.fresh(solver);
        solver.add_clause(&[!c, !a, g]);
        solver.add_clause(&[!c, a, !g]);
        solver.add_clause(&[c, !b, g]);
        solver.add_clause(&[c, b, !g]);
        // Redundant but propagation-strengthening clauses.
        solver.add_clause(&[!a, !b, g]);
        solver.add_clause(&[a, b, !g]);
        self.gate_cache.insert(key, g);
        if flip {
            !g
        } else {
            g
        }
    }

    fn full_adder(&mut self, solver: &mut Solver, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(solver, a, b);
        let sum = self.xor_gate(solver, axb, cin);
        let c1 = self.and_gate(solver, a, b);
        let c2 = self.and_gate(solver, axb, cin);
        let cout = self.or_gate(solver, c1, c2);
        (sum, cout)
    }

    /// Ripple-carry adder; returns (sum bits, carry out).
    fn adder(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(solver, a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    /// Shift-add multiplier, truncated to the operand width.
    fn multiplier(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.lit_false(); w];
        for i in 0..w {
            // addend = (b << i) masked by a[i], truncated to w bits
            if a[i] == self.lit_false() {
                continue;
            }
            let addend: Vec<Lit> = (0..w)
                .map(|j| {
                    if j < i {
                        self.lit_false()
                    } else {
                        self.and_gate(solver, a[i], b[j - i])
                    }
                })
                .collect();
            acc = self.adder(solver, &acc, &addend, self.lit_false()).0;
        }
        acc
    }

    /// Restoring long division; returns (quotient, remainder). For a zero
    /// divisor this yields all-ones quotient and the dividend as remainder,
    /// matching SMT-LIB `bvudiv`/`bvurem`.
    fn divider(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        // Remainder register is w+1 bits so the trial subtract cannot wrap.
        let mut r: Vec<Lit> = vec![self.lit_false(); w + 1];
        let mut bx: Vec<Lit> = b.to_vec();
        bx.push(self.lit_false());
        let mut q = vec![self.lit_false(); w];
        for i in (0..w).rev() {
            // r = (r << 1) | a[i]
            let mut r2 = Vec::with_capacity(w + 1);
            r2.push(a[i]);
            r2.extend_from_slice(&r[..w]);
            // trial subtract: r2 - bx
            let nb: Vec<Lit> = bx.iter().map(|&l| !l).collect();
            let (diff, carry) = self.adder(solver, &r2, &nb, self.lit_true());
            // carry == 1 ⟺ r2 >= bx
            q[i] = carry;
            r = (0..w + 1).map(|j| self.mux_gate(solver, carry, diff[j], r2[j])).collect();
        }
        (q, r[..w].to_vec())
    }

    fn flip_msb(&self, a: &[Lit]) -> Vec<Lit> {
        let mut out = a.to_vec();
        let last = out.len() - 1;
        out[last] = !out[last];
        out
    }

    /// `a < b` unsigned: no carry out of `a + ¬b + 1`.
    fn bv_ult(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let (_, carry) = self.adder(solver, a, &nb, self.lit_true());
        !carry
    }

    fn bv_eq(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.lit_true();
        for i in 0..a.len() {
            let x = self.xor_gate(solver, a[i], b[i]);
            acc = self.and_gate(solver, acc, !x);
        }
        acc
    }

    fn barrel_shift(
        &mut self,
        solver: &mut Solver,
        a: &[Lit],
        s: &[Lit],
        kind: ShiftKind,
    ) -> Vec<Lit> {
        let w = a.len();
        let fill_base = match kind {
            ShiftKind::ArithRight => a[w - 1],
            _ => self.lit_false(),
        };
        let mut cur = a.to_vec();
        #[allow(clippy::needless_range_loop)] // `k` is the shift exponent, not just an index
        for k in 0..s.len() {
            let dist = 1usize << k.min(31);
            let shifted: Vec<Lit> = (0..w)
                .map(|j| match kind {
                    ShiftKind::Left => {
                        if k >= 31 || dist > j {
                            self.lit_false()
                        } else {
                            cur[j - dist]
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                        if k >= 31 || j + dist >= w {
                            fill_base_or(fill_base, kind, self)
                        } else {
                            cur[j + dist]
                        }
                    }
                })
                .collect();
            cur = (0..w).map(|j| self.mux_gate(solver, s[k], shifted[j], cur[j])).collect();
        }
        cur
    }
}

fn fill_base_or(fill: Lit, kind: ShiftKind, bb: &BitBlaster) -> Lit {
    match kind {
        ShiftKind::ArithRight => fill,
        _ => bb.lit_false(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}
