//! Hash-consed term DAG for the QF_ABV fragment, with rewriting built into
//! the constructors.
//!
//! Every term lives in a [`Ctx`] and is identified by a [`TermId`]; building
//! the same term twice yields the same id, so structural equality is pointer
//! equality. Constructors apply local simplifications (constant folding,
//! algebraic identities, power-of-two strength reduction) so the encoder can
//! build formulas naively and still hand reasonably small problems to the
//! bit-blaster — this mirrors how PUGpara leans on Z3's preprocessing.

use crate::sort::{mask, to_signed, truncate, Sort};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Identifier of a term inside a [`Ctx`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub u32);

impl TermId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned variable name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymbolId(pub u32);

/// Term operators. Argument counts are enforced by the constructors.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Boolean constant `true`.
    True,
    /// Boolean constant `false`.
    False,
    /// Bit-vector constant (value already truncated to the width).
    BvConst { value: u64, width: u32 },
    /// Free variable (Bool, BitVec or Array sorted).
    Var { name: SymbolId },
    Not,
    And,
    Or,
    Xor,
    Implies,
    /// `ite(cond, then, else)`; branches may be Bool or BitVec.
    Ite,
    /// Equality on Bool or BitVec terms (array equality is rejected;
    /// the verifier compares arrays at a fresh symbolic index instead).
    Eq,
    BvAdd,
    BvSub,
    BvMul,
    BvUdiv,
    BvUrem,
    BvNeg,
    BvAnd,
    BvOr,
    BvXor,
    BvNot,
    BvShl,
    BvLshr,
    BvAshr,
    BvUlt,
    BvUle,
    BvSlt,
    BvSle,
    ZeroExt { by: u32 },
    SignExt { by: u32 },
    Extract { hi: u32, lo: u32 },
    Concat,
    /// `select(array, index)`.
    Select,
    /// `store(array, index, value)`.
    Store,
}

/// A node of the term DAG.
#[derive(Clone, Debug)]
pub struct Node {
    pub op: Op,
    pub args: Vec<TermId>,
    pub sort: Sort,
}

/// Term context: owns the DAG, the hash-cons table and the symbol interner.
#[derive(Default)]
pub struct Ctx {
    nodes: Vec<Node>,
    /// Hash-cons table keyed by a structural hash of `(op, args)`; each
    /// bucket holds the (almost always ≤ 1) terms with that hash. Keying by
    /// hash instead of by `(Op, Vec<TermId>)` means a lookup never clones
    /// the operator or allocates an argument vector: the hit path is
    /// allocation-free.
    table: HashMap<u64, Vec<TermId>>,
    sym_names: Vec<String>,
    sym_table: HashMap<String, SymbolId>,
    var_sorts: HashMap<SymbolId, Sort>,
    fresh_counter: u64,
}

/// FNV-1a, used for the hash-cons key. The keys are tiny (an operator plus
/// at most three term ids), so a short multiply-xor loop beats SipHash.
struct FnvHasher(u64);

impl FnvHasher {
    fn new() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn node_hash(op: &Op, args: &[TermId]) -> u64 {
    let mut h = FnvHasher::new();
    op.hash(&mut h);
    for &a in args {
        h.write_u32(a.0);
    }
    h.finish()
}

impl Ctx {
    /// Empty context.
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// Number of distinct terms created.
    pub fn num_terms(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a term id.
    #[inline]
    pub fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.index()]
    }

    /// The operator of a term.
    #[inline]
    pub fn op(&self, t: TermId) -> &Op {
        &self.nodes[t.index()].op
    }

    /// The argument list of a term.
    #[inline]
    pub fn args(&self, t: TermId) -> &[TermId] {
        &self.nodes[t.index()].args
    }

    /// The sort of a term.
    #[inline]
    pub fn sort(&self, t: TermId) -> Sort {
        self.nodes[t.index()].sort
    }

    /// Bit width of a bit-vector term.
    #[track_caller]
    pub fn width(&self, t: TermId) -> u32 {
        self.sort(t).bv_width()
    }

    /// The interned name string of a symbol.
    pub fn symbol_name(&self, s: SymbolId) -> &str {
        &self.sym_names[s.0 as usize]
    }

    fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&s) = self.sym_table.get(name) {
            return s;
        }
        let s = SymbolId(self.sym_names.len() as u32);
        self.sym_names.push(name.to_string());
        self.sym_table.insert(name.to_string(), s);
        s
    }

    fn hashcons(&mut self, op: Op, args: &[TermId], sort: Sort) -> TermId {
        let h = node_hash(&op, args);
        let bucket = self.table.entry(h).or_default();
        for &t in bucket.iter() {
            let n = &self.nodes[t.index()];
            if n.op == op && n.args == args {
                return t;
            }
        }
        let t = TermId(self.nodes.len() as u32);
        bucket.push(t);
        self.nodes.push(Node { op, args: args.to_vec(), sort });
        t
    }

    // ---------------------------------------------------------------- leaves

    /// Boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> TermId {
        let op = if b { Op::True } else { Op::False };
        self.hashcons(op, &[], Sort::Bool)
    }

    /// `true`.
    pub fn mk_true(&mut self) -> TermId {
        self.mk_bool(true)
    }

    /// `false`.
    pub fn mk_false(&mut self) -> TermId {
        self.mk_bool(false)
    }

    /// Bit-vector constant, truncated to `width` bits.
    pub fn mk_bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "unsupported width {width}");
        let value = truncate(value, width);
        self.hashcons(Op::BvConst { value, width }, &[], Sort::BitVec(width))
    }

    /// Free variable. Re-declaring the same name must use the same sort.
    #[track_caller]
    pub fn mk_var(&mut self, name: &str, sort: Sort) -> TermId {
        let s = self.intern(name);
        match self.var_sorts.get(&s) {
            Some(&prev) => assert_eq!(
                prev, sort,
                "variable {name} re-declared at a different sort"
            ),
            None => {
                self.var_sorts.insert(s, sort);
            }
        }
        self.hashcons(Op::Var { name: s }, &[], sort)
    }

    /// Fresh variable with a unique generated name based on `prefix`.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        self.fresh_counter += 1;
        let name = format!("{prefix}!{}", self.fresh_counter);
        self.mk_var(&name, sort)
    }

    /// Constant value when the term is a bit-vector constant.
    pub fn const_bv(&self, t: TermId) -> Option<u64> {
        match self.op(t) {
            Op::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Constant value when the term is a Boolean constant.
    pub fn const_bool(&self, t: TermId) -> Option<bool> {
        match self.op(t) {
            Op::True => Some(true),
            Op::False => Some(false),
            _ => None,
        }
    }

    // --------------------------------------------------------------- boolean

    /// Logical negation.
    pub fn mk_not(&mut self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        match self.op(a) {
            Op::True => self.mk_false(),
            Op::False => self.mk_true(),
            Op::Not => self.args(a)[0],
            _ => self.hashcons(Op::Not, &[a], Sort::Bool),
        }
    }

    /// Logical conjunction.
    pub fn mk_and(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        match (self.const_bool(a), self.const_bool(b)) {
            (Some(false), _) | (_, Some(false)) => return self.mk_false(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.is_negation_of(a, b) {
            return self.mk_false();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::And, &[a, b], Sort::Bool)
    }

    /// Conjunction of many terms.
    pub fn mk_and_many(&mut self, ts: &[TermId]) -> TermId {
        let mut acc = self.mk_true();
        for &t in ts {
            acc = self.mk_and(acc, t);
        }
        acc
    }

    /// Logical disjunction.
    pub fn mk_or(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        match (self.const_bool(a), self.const_bool(b)) {
            (Some(true), _) | (_, Some(true)) => return self.mk_true(),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.is_negation_of(a, b) {
            return self.mk_true();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::Or, &[a, b], Sort::Bool)
    }

    /// Disjunction of many terms.
    pub fn mk_or_many(&mut self, ts: &[TermId]) -> TermId {
        let mut acc = self.mk_false();
        for &t in ts {
            acc = self.mk_or(acc, t);
        }
        acc
    }

    /// Exclusive or.
    pub fn mk_xor(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.const_bool(a), self.const_bool(b)) {
            (Some(x), Some(y)) => return self.mk_bool(x ^ y),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.mk_not(b),
            (_, Some(true)) => return self.mk_not(a),
            _ => {}
        }
        if a == b {
            return self.mk_false();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::Xor, &[a, b], Sort::Bool)
    }

    /// Implication `a ⇒ b`, rewritten to `¬a ∨ b`.
    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.mk_not(a);
        self.mk_or(na, b)
    }

    fn is_negation_of(&self, a: TermId, b: TermId) -> bool {
        matches!(self.op(a), Op::Not if self.args(a)[0] == b)
            || matches!(self.op(b), Op::Not if self.args(b)[0] == a)
    }

    /// If-then-else; branches must have equal (Bool or BitVec) sorts.
    #[track_caller]
    pub fn mk_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        debug_assert!(self.sort(c).is_bool());
        let st = self.sort(t);
        assert_eq!(st, self.sort(e), "ite branch sorts differ");
        assert!(!st.is_array(), "ite over arrays is not supported");
        match self.const_bool(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        if st.is_bool() {
            // ite(c, true, false) = c ; ite(c, false, true) = ¬c
            match (self.const_bool(t), self.const_bool(e)) {
                (Some(true), Some(false)) => return c,
                (Some(false), Some(true)) => return self.mk_not(c),
                (Some(true), None) => return self.mk_or(c, e),
                (Some(false), None) => {
                    let nc = self.mk_not(c);
                    return self.mk_and(nc, e);
                }
                (None, Some(true)) => {
                    let nc = self.mk_not(c);
                    return self.mk_or(nc, t);
                }
                (None, Some(false)) => return self.mk_and(c, t),
                _ => {}
            }
        }
        self.hashcons(Op::Ite, &[c, t, e], st)
    }

    /// Equality on Bool or BitVec terms.
    #[track_caller]
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        let sa = self.sort(a);
        assert_eq!(sa, self.sort(b), "eq sorts differ");
        assert!(
            !sa.is_array(),
            "array equality must be phrased via a fresh symbolic index"
        );
        if a == b {
            return self.mk_true();
        }
        if let (Some(x), Some(y)) = (self.const_bv(a), self.const_bv(b)) {
            return self.mk_bool(x == y);
        }
        if sa.is_bool() {
            match (self.const_bool(a), self.const_bool(b)) {
                (Some(x), Some(y)) => return self.mk_bool(x == y),
                (Some(true), None) => return b,
                (None, Some(true)) => return a,
                (Some(false), None) => return self.mk_not(b),
                (None, Some(false)) => return self.mk_not(a),
                _ => {}
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::Eq, &[a, b], Sort::Bool)
    }

    /// Disequality.
    pub fn mk_neq(&mut self, a: TermId, b: TermId) -> TermId {
        let eq = self.mk_eq(a, b);
        self.mk_not(eq)
    }

    // ------------------------------------------------------------ bit-vector

    #[track_caller]
    fn bv2(&self, a: TermId, b: TermId) -> u32 {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "bit-vector widths differ");
        w
    }

    /// Addition modulo 2^w.
    pub fn mk_bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x.wrapping_add(y), w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::BvAdd, &[a, b], Sort::BitVec(w))
    }

    /// Subtraction modulo 2^w.
    pub fn mk_bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_bv_const(0, w);
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x.wrapping_sub(y), w),
            (_, Some(0)) => return a,
            _ => {}
        }
        self.hashcons(Op::BvSub, &[a, b], Sort::BitVec(w))
    }

    /// Two's-complement negation.
    pub fn mk_bv_neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(x) = self.const_bv(a) {
            return self.mk_bv_const(x.wrapping_neg(), w);
        }
        self.hashcons(Op::BvNeg, &[a], Sort::BitVec(w))
    }

    /// Multiplication modulo 2^w. Constant power-of-two factors are reduced
    /// to shifts (the transpose/reduction kernels are full of `*` by
    /// block-dimension values, and this keeps the blasted circuits small
    /// when those are concretized).
    pub fn mk_bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x.wrapping_mul(y), w),
            (Some(0), _) | (_, Some(0)) => return self.mk_bv_const(0, w),
            (Some(1), _) => return b,
            (_, Some(1)) => return a,
            (Some(x), _) if x.is_power_of_two() => {
                let sh = self.mk_bv_const(x.trailing_zeros() as u64, w);
                return self.mk_bv_shl(b, sh);
            }
            (_, Some(y)) if y.is_power_of_two() => {
                let sh = self.mk_bv_const(y.trailing_zeros() as u64, w);
                return self.mk_bv_shl(a, sh);
            }
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::BvMul, &[a, b], Sort::BitVec(w))
    }

    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    pub fn mk_bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => {
                let r = x.checked_div(y).unwrap_or(mask(w));
                return self.mk_bv_const(r, w);
            }
            (_, Some(1)) => return a,
            (_, Some(y)) if y.is_power_of_two() => {
                let sh = self.mk_bv_const(y.trailing_zeros() as u64, w);
                return self.mk_bv_lshr(a, sh);
            }
            _ => {}
        }
        self.hashcons(Op::BvUdiv, &[a, b], Sort::BitVec(w))
    }

    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    pub fn mk_bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => {
                let r = if y == 0 { x } else { x % y };
                return self.mk_bv_const(r, w);
            }
            (_, Some(1)) => return self.mk_bv_const(0, w),
            (_, Some(y)) if y.is_power_of_two() => {
                let m = self.mk_bv_const(y - 1, w);
                return self.mk_bv_and(a, m);
            }
            _ => {}
        }
        self.hashcons(Op::BvUrem, &[a, b], Sort::BitVec(w))
    }

    /// Bitwise and.
    pub fn mk_bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return a;
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x & y, w),
            (Some(0), _) | (_, Some(0)) => return self.mk_bv_const(0, w),
            (Some(m), _) if m == mask(w) => return b,
            (_, Some(m)) if m == mask(w) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::BvAnd, &[a, b], Sort::BitVec(w))
    }

    /// Bitwise or.
    pub fn mk_bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return a;
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x | y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            (Some(m), _) | (_, Some(m)) if m == mask(w) => return self.mk_bv_const(mask(w), w),
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::BvOr, &[a, b], Sort::BitVec(w))
    }

    /// Bitwise xor.
    pub fn mk_bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_bv_const(0, w);
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bv_const(x ^ y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.hashcons(Op::BvXor, &[a, b], Sort::BitVec(w))
    }

    /// Bitwise complement.
    pub fn mk_bv_not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(x) = self.const_bv(a) {
            return self.mk_bv_const(!x, w);
        }
        if matches!(self.op(a), Op::BvNot) {
            return self.args(a)[0];
        }
        self.hashcons(Op::BvNot, &[a], Sort::BitVec(w))
    }

    /// Left shift; shifting by ≥ w yields zero.
    pub fn mk_bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => {
                let r = if y >= w as u64 { 0 } else { x << y };
                return self.mk_bv_const(r, w);
            }
            (_, Some(0)) => return a,
            (Some(0), _) => return a,
            (_, Some(y)) if y >= w as u64 => return self.mk_bv_const(0, w),
            _ => {}
        }
        self.hashcons(Op::BvShl, &[a, b], Sort::BitVec(w))
    }

    /// Logical right shift; shifting by ≥ w yields zero.
    pub fn mk_bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => {
                let r = if y >= w as u64 { 0 } else { x >> y };
                return self.mk_bv_const(r, w);
            }
            (_, Some(0)) => return a,
            (Some(0), _) => return a,
            (_, Some(y)) if y >= w as u64 => return self.mk_bv_const(0, w),
            _ => {}
        }
        self.hashcons(Op::BvLshr, &[a, b], Sort::BitVec(w))
    }

    /// Arithmetic right shift; shifting by ≥ w yields the sign fill.
    pub fn mk_bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => {
                let s = to_signed(x, w);
                let sh = y.min(w as u64 - 1) as u32;
                return self.mk_bv_const((s >> sh) as u64, w);
            }
            (_, Some(0)) => return a,
            (Some(0), _) => return a,
            _ => {}
        }
        self.hashcons(Op::BvAshr, &[a, b], Sort::BitVec(w))
    }

    /// Unsigned less-than.
    pub fn mk_bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_false();
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bool(x < y),
            (_, Some(0)) => return self.mk_false(),
            (Some(m), _) if m == mask(w) => return self.mk_false(),
            _ => {}
        }
        self.hashcons(Op::BvUlt, &[a, b], Sort::Bool)
    }

    /// Unsigned less-or-equal.
    pub fn mk_bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_true();
        }
        match (self.const_bv(a), self.const_bv(b)) {
            (Some(x), Some(y)) => return self.mk_bool(x <= y),
            (Some(0), _) => return self.mk_true(),
            (_, Some(m)) if m == mask(w) => return self.mk_true(),
            _ => {}
        }
        self.hashcons(Op::BvUle, &[a, b], Sort::Bool)
    }

    /// Signed less-than.
    pub fn mk_bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_false();
        }
        if let (Some(x), Some(y)) = (self.const_bv(a), self.const_bv(b)) {
            return self.mk_bool(to_signed(x, w) < to_signed(y, w));
        }
        self.hashcons(Op::BvSlt, &[a, b], Sort::Bool)
    }

    /// Signed less-or-equal.
    pub fn mk_bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv2(a, b);
        if a == b {
            return self.mk_true();
        }
        if let (Some(x), Some(y)) = (self.const_bv(a), self.const_bv(b)) {
            return self.mk_bool(to_signed(x, w) <= to_signed(y, w));
        }
        self.hashcons(Op::BvSle, &[a, b], Sort::Bool)
    }

    /// Unsigned greater-than (sugar).
    pub fn mk_bv_ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_ult(b, a)
    }

    /// Unsigned greater-or-equal (sugar).
    pub fn mk_bv_uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_ule(b, a)
    }

    /// Zero extension by `by` bits.
    pub fn mk_zero_ext(&mut self, a: TermId, by: u32) -> TermId {
        let w = self.width(a);
        assert!(w + by <= 64, "width overflow");
        if by == 0 {
            return a;
        }
        if let Some(x) = self.const_bv(a) {
            return self.mk_bv_const(x, w + by);
        }
        self.hashcons(Op::ZeroExt { by }, &[a], Sort::BitVec(w + by))
    }

    /// Sign extension by `by` bits.
    pub fn mk_sign_ext(&mut self, a: TermId, by: u32) -> TermId {
        let w = self.width(a);
        assert!(w + by <= 64, "width overflow");
        if by == 0 {
            return a;
        }
        if let Some(x) = self.const_bv(a) {
            return self.mk_bv_const(to_signed(x, w) as u64, w + by);
        }
        self.hashcons(Op::SignExt { by }, &[a], Sort::BitVec(w + by))
    }

    /// Bit extraction `a[hi:lo]`, inclusive on both ends.
    #[track_caller]
    pub fn mk_extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(a);
        assert!(lo <= hi && hi < w, "bad extract range [{hi}:{lo}] on width {w}");
        if lo == 0 && hi == w - 1 {
            return a;
        }
        let nw = hi - lo + 1;
        if let Some(x) = self.const_bv(a) {
            return self.mk_bv_const(x >> lo, nw);
        }
        self.hashcons(Op::Extract { hi, lo }, &[a], Sort::BitVec(nw))
    }

    /// Concatenation; `a` supplies the high bits.
    pub fn mk_concat(&mut self, a: TermId, b: TermId) -> TermId {
        let (wa, wb) = (self.width(a), self.width(b));
        assert!(wa + wb <= 64, "width overflow");
        if let (Some(x), Some(y)) = (self.const_bv(a), self.const_bv(b)) {
            return self.mk_bv_const(x << wb | y, wa + wb);
        }
        self.hashcons(Op::Concat, &[a, b], Sort::BitVec(wa + wb))
    }

    // ---------------------------------------------------------------- arrays

    /// Array read.
    #[track_caller]
    pub fn mk_select(&mut self, array: TermId, index: TermId) -> TermId {
        let Sort::Array { index: iw, elem } = self.sort(array) else {
            panic!("select on non-array term");
        };
        assert_eq!(self.width(index), iw, "index width mismatch");
        // select(store(a, i, v), j): resolve when i and j are syntactically
        // equal or both constant — the general case is handled by the
        // store-chain reduction pass before bit-blasting.
        if matches!(self.op(array), Op::Store) {
            let (a, i, v) = {
                let args = self.args(array);
                (args[0], args[1], args[2])
            };
            if i == index {
                return v;
            }
            if let (Some(x), Some(y)) = (self.const_bv(i), self.const_bv(index)) {
                if x != y {
                    return self.mk_select(a, index);
                }
            }
        }
        self.hashcons(Op::Select, &[array, index], Sort::BitVec(elem))
    }

    /// Array write.
    #[track_caller]
    pub fn mk_store(&mut self, array: TermId, index: TermId, value: TermId) -> TermId {
        let sort @ Sort::Array { index: iw, elem } = self.sort(array) else {
            panic!("store on non-array term");
        };
        assert_eq!(self.width(index), iw, "index width mismatch");
        assert_eq!(self.width(value), elem, "value width mismatch");
        self.hashcons(Op::Store, &[array, index, value], sort)
    }

    // ------------------------------------------------------------- utilities

    /// Substitute terms bottom-up: every occurrence of a key of `map` is
    /// replaced by its value. Used by the parameterized encoder to
    /// instantiate the symbolic thread id with fresh per-CA thread variables
    /// (the paper's s₁, s₂, … in Fig. 2).
    pub fn substitute(&mut self, t: TermId, map: &HashMap<TermId, TermId>) -> TermId {
        let mut cache: HashMap<TermId, TermId> = HashMap::new();
        self.substitute_cached(t, map, &mut cache)
    }

    /// [`Ctx::substitute`] with a caller-owned memo table, for applying the
    /// same substitution to many roots.
    pub fn substitute_cached(
        &mut self,
        t: TermId,
        map: &HashMap<TermId, TermId>,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = map.get(&t) {
            return r;
        }
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let node = self.node(t).clone();
        let mut new_args = Vec::with_capacity(node.args.len());
        let mut changed = false;
        for &a in &node.args {
            let na = self.substitute_cached(a, map, cache);
            changed |= na != a;
            new_args.push(na);
        }
        let result = if !changed { t } else { self.rebuild(&node.op, &new_args) };
        cache.insert(t, result);
        result
    }

    /// Rebuild a node through the simplifying constructors.
    pub fn rebuild(&mut self, op: &Op, args: &[TermId]) -> TermId {
        match op {
            Op::True => self.mk_true(),
            Op::False => self.mk_false(),
            Op::BvConst { value, width } => self.mk_bv_const(*value, *width),
            Op::Var { name } => {
                let sort = self.var_sorts[name];
                let n = self.symbol_name(*name).to_string();
                self.mk_var(&n, sort)
            }
            Op::Not => self.mk_not(args[0]),
            Op::And => self.mk_and(args[0], args[1]),
            Op::Or => self.mk_or(args[0], args[1]),
            Op::Xor => self.mk_xor(args[0], args[1]),
            Op::Implies => self.mk_implies(args[0], args[1]),
            Op::Ite => self.mk_ite(args[0], args[1], args[2]),
            Op::Eq => self.mk_eq(args[0], args[1]),
            Op::BvAdd => self.mk_bv_add(args[0], args[1]),
            Op::BvSub => self.mk_bv_sub(args[0], args[1]),
            Op::BvMul => self.mk_bv_mul(args[0], args[1]),
            Op::BvUdiv => self.mk_bv_udiv(args[0], args[1]),
            Op::BvUrem => self.mk_bv_urem(args[0], args[1]),
            Op::BvNeg => self.mk_bv_neg(args[0]),
            Op::BvAnd => self.mk_bv_and(args[0], args[1]),
            Op::BvOr => self.mk_bv_or(args[0], args[1]),
            Op::BvXor => self.mk_bv_xor(args[0], args[1]),
            Op::BvNot => self.mk_bv_not(args[0]),
            Op::BvShl => self.mk_bv_shl(args[0], args[1]),
            Op::BvLshr => self.mk_bv_lshr(args[0], args[1]),
            Op::BvAshr => self.mk_bv_ashr(args[0], args[1]),
            Op::BvUlt => self.mk_bv_ult(args[0], args[1]),
            Op::BvUle => self.mk_bv_ule(args[0], args[1]),
            Op::BvSlt => self.mk_bv_slt(args[0], args[1]),
            Op::BvSle => self.mk_bv_sle(args[0], args[1]),
            Op::ZeroExt { by } => self.mk_zero_ext(args[0], *by),
            Op::SignExt { by } => self.mk_sign_ext(args[0], *by),
            Op::Extract { hi, lo } => self.mk_extract(args[0], *hi, *lo),
            Op::Concat => self.mk_concat(args[0], args[1]),
            Op::Select => self.mk_select(args[0], args[1]),
            Op::Store => self.mk_store(args[0], args[1], args[2]),
        }
    }

    /// All free variables (including array variables) in `t`.
    pub fn free_vars(&self, t: TermId) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            if matches!(self.op(x), Op::Var { .. }) {
                out.push(x);
            }
            stack.extend_from_slice(self.args(x));
        }
        out.sort();
        out
    }

    /// Number of DAG nodes reachable from `t` (a size metric used by the
    /// benchmark harness to report encoding sizes).
    pub fn dag_size(&self, t: TermId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![t];
        let mut n = 0;
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            n += 1;
            stack.extend_from_slice(self.args(x));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let a = c.mk_bv_add(x, y);
        let b = c.mk_bv_add(y, x); // commutative normalization
        assert_eq!(a, b);
    }

    #[test]
    fn constant_folding() {
        let mut c = Ctx::new();
        let a = c.mk_bv_const(200, 8);
        let b = c.mk_bv_const(100, 8);
        let s = c.mk_bv_add(a, b);
        assert_eq!(c.const_bv(s), Some(44)); // 300 mod 256
        let m = c.mk_bv_mul(a, b);
        assert_eq!(c.const_bv(m), Some(truncate(200 * 100, 8)));
    }

    #[test]
    fn bool_identities() {
        let mut c = Ctx::new();
        let p = c.mk_var("p", Sort::Bool);
        let np = c.mk_not(p);
        let t = c.mk_true();
        assert_eq!(c.mk_and(p, t), p);
        assert_eq!(c.mk_and(p, np), c.mk_false());
        assert_eq!(c.mk_or(p, np), c.mk_true());
        assert_eq!(c.mk_not(np), p);
        let q = c.mk_var("q", Sort::Bool);
        let imp = c.mk_implies(p, q);
        // p ⇒ q becomes ¬p ∨ q
        assert!(matches!(c.op(imp), Op::Or));
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(16));
        let four = c.mk_bv_const(4, 16);
        let m = c.mk_bv_mul(x, four);
        assert!(matches!(c.op(m), Op::BvShl));
        let d = c.mk_bv_udiv(x, four);
        assert!(matches!(c.op(d), Op::BvLshr));
        let r = c.mk_bv_urem(x, four);
        assert!(matches!(c.op(r), Op::BvAnd));
    }

    #[test]
    fn select_over_store_resolution() {
        let mut c = Ctx::new();
        let arr = c.mk_var("a", Sort::Array { index: 8, elem: 8 });
        let i = c.mk_var("i", Sort::BitVec(8));
        let v = c.mk_var("v", Sort::BitVec(8));
        let st = c.mk_store(arr, i, v);
        assert_eq!(c.mk_select(st, i), v);
        let c0 = c.mk_bv_const(0, 8);
        let c1 = c.mk_bv_const(1, 8);
        let st2 = c.mk_store(arr, c0, v);
        let sel = c.mk_select(st2, c1);
        // distinct constant indices skip the store
        assert!(matches!(c.op(sel), Op::Select));
        assert_eq!(c.args(sel)[0], arr);
    }

    #[test]
    fn substitution_instantiates_thread_ids() {
        let mut c = Ctx::new();
        let tid = c.mk_var("tid", Sort::BitVec(8));
        let s1 = c.mk_var("s1", Sort::BitVec(8));
        let one = c.mk_bv_const(1, 8);
        let addr = c.mk_bv_add(tid, one); // tid + 1
        let map = HashMap::from([(tid, s1)]);
        let inst = c.mk_bv_add(s1, one);
        assert_eq!(c.substitute(addr, &map), inst);
    }

    #[test]
    fn free_vars_collects_all() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let arr = c.mk_var("a", Sort::Array { index: 8, elem: 8 });
        let sel = c.mk_select(arr, x);
        let t = c.mk_bv_add(sel, y);
        let fv = c.free_vars(t);
        assert_eq!(fv.len(), 3);
        assert!(fv.contains(&x) && fv.contains(&y) && fv.contains(&arr));
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn sort_clash_panics() {
        let mut c = Ctx::new();
        c.mk_var("x", Sort::BitVec(8));
        c.mk_var("x", Sort::Bool);
    }

    #[test]
    fn ite_simplifications() {
        let mut c = Ctx::new();
        let p = c.mk_var("p", Sort::Bool);
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let t = c.mk_true();
        assert_eq!(c.mk_ite(t, x, y), x);
        assert_eq!(c.mk_ite(p, x, x), x);
        let tt = c.mk_true();
        let ff = c.mk_false();
        assert_eq!(c.mk_ite(p, tt, ff), p);
    }

    #[test]
    fn shift_saturation() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(8));
        let big = c.mk_bv_const(9, 8);
        let shl = c.mk_bv_shl(x, big);
        let lshr = c.mk_bv_lshr(x, big);
        assert_eq!(c.const_bv(shl), Some(0));
        assert_eq!(c.const_bv(lshr), Some(0));
    }
}
