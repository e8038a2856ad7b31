//! Symbolic execution of barrier-interval bodies.
//!
//! One [`Machine`] executes straight-line (barrier-free) statement lists for
//! one thread whose coordinates are bound in its [`Env`]. Branches are
//! *merged*, not forked: both arms execute on cloned environments and the
//! locals are joined with `ite` — exactly the paper's Γ translation of
//! conditionals (§III-A). Loops are unrolled on the fly when their condition
//! folds to a constant; a symbolic bound raises
//! [`IrError::SymbolicLoopBound`], which the verifier answers with loop
//! alignment (§IV-E) or concretization ("+C.").
//!
//! Shared/global memory goes through the [`Memory`] trait so the two
//! encoders can plug in different models: the non-parameterized encoder uses
//! [`StoreMemory`] (serialized store chains, §III), the parameterized one a
//! conditional-assignment collector (§IV).

use crate::config::BoundConfig;
use crate::error::IrError;
use pug_cuda::ast::{BinOp, Builtin, Expr, LValue, Stmt, UnOp};
use pug_cuda::typecheck::{TypeInfo, VarInfo};
use pug_smt::{Ctx, Sort, TermId};
use std::collections::HashMap;

/// Memory model plugged into the executor.
pub trait Memory {
    /// Read `array[index]` under `guard` (the current path condition).
    fn read(&mut self, ctx: &mut Ctx, array: &str, index: TermId, guard: TermId) -> TermId;
    /// Write `array[index] = value` under `guard`.
    fn write(&mut self, ctx: &mut Ctx, array: &str, index: TermId, value: TermId, guard: TermId);
}

/// A typed symbolic value: Bool or bit-vector with C signedness.
#[derive(Clone, Copy, Debug)]
pub enum Val {
    Bool(TermId),
    Bv { term: TermId, signed: bool },
}

impl Val {
    /// Coerce to a Boolean term (`x != 0` for bit-vectors).
    pub fn as_bool(self, ctx: &mut Ctx) -> TermId {
        match self {
            Val::Bool(t) => t,
            Val::Bv { term, .. } => {
                let w = ctx.width(term);
                let zero = ctx.mk_bv_const(0, w);
                ctx.mk_neq(term, zero)
            }
        }
    }

    /// Coerce to a bit-vector term (`ite(b, 1, 0)` for Booleans).
    pub fn as_bv(self, ctx: &mut Ctx, width: u32) -> TermId {
        match self {
            Val::Bv { term, .. } => term,
            Val::Bool(b) => {
                let one = ctx.mk_bv_const(1, width);
                let zero = ctx.mk_bv_const(0, width);
                ctx.mk_ite(b, one, zero)
            }
        }
    }

    fn signed(self) -> bool {
        match self {
            Val::Bool(_) => false,
            Val::Bv { signed, .. } => signed,
        }
    }
}

/// Per-thread execution environment: thread coordinates and scalar locals.
#[derive(Clone, Debug)]
pub struct Env {
    /// `tid.x/y/z` terms for this thread.
    pub tid: [TermId; 3],
    /// `bid.x/y` terms for this thread's block.
    pub bid: [TermId; 2],
    locals: HashMap<String, Val>,
}

impl Env {
    /// Environment for a thread at the given coordinates.
    pub fn new(tid: [TermId; 3], bid: [TermId; 2]) -> Env {
        Env { tid, bid, locals: HashMap::new() }
    }

    /// Current value of a scalar local, if any.
    pub fn local(&self, name: &str) -> Option<Val> {
        self.locals.get(name).copied()
    }

    /// Bind a scalar local.
    pub fn bind(&mut self, name: &str, v: Val) {
        self.locals.insert(name.to_string(), v);
    }
}

/// Obligations and assumptions gathered during execution.
#[derive(Clone, Debug, Default)]
pub struct ExecOutputs {
    /// `assume`/`requires` facts: `path ⇒ cond` terms to be assumed.
    pub assumptions: Vec<TermId>,
    /// `assert` obligations: `path ⇒ cond` terms to be proved.
    pub asserts: Vec<TermId>,
    /// `postcond` terms (free spec variables already bound to fresh symbols).
    pub postconds: Vec<TermId>,
}

/// One logged shared/global memory access (for race / performance checks).
#[derive(Clone, Debug)]
pub struct Access {
    pub array: String,
    pub index: TermId,
    pub is_write: bool,
    pub guard: TermId,
}

/// The symbolic executor.
pub struct Machine<'a, M: Memory> {
    pub ctx: &'a mut Ctx,
    pub mem: &'a mut M,
    pub cfg: &'a BoundConfig,
    pub types: &'a TypeInfo,
    /// Prefix for fresh symbols (uninitialized locals), distinct per thread.
    pub name_prefix: String,
    /// Unroll budget for dynamically unrolled loops.
    pub max_unroll: usize,
    /// Whether `postcond` statements are collected. Postconditions are
    /// global properties, so encoders typically enable this for a single
    /// representative thread to avoid duplicate obligations.
    pub collect_postconds: bool,
    /// Concretized scalar parameters (the paper's "+C."): a parameter named
    /// here binds to the constant instead of a symbolic input, which also
    /// lets data-dependent loops unroll.
    pub concrete_params: HashMap<String, u64>,
    /// Collected spec obligations.
    pub outputs: ExecOutputs,
    /// Every shared/global access, for the race and performance checkers.
    pub log: Vec<Access>,
    /// Dimension extents of multi-dimensional arrays (filled by decls; can be
    /// pre-seeded via [`Machine::seed_array_dims`]).
    array_dims: HashMap<String, Vec<TermId>>,
}

impl<'a, M: Memory> Machine<'a, M> {
    /// New machine over a context, memory model and configuration.
    pub fn new(
        ctx: &'a mut Ctx,
        mem: &'a mut M,
        cfg: &'a BoundConfig,
        types: &'a TypeInfo,
    ) -> Machine<'a, M> {
        Machine {
            ctx,
            mem,
            cfg,
            types,
            name_prefix: String::new(),
            max_unroll: 4096,
            collect_postconds: true,
            concrete_params: HashMap::new(),
            outputs: ExecOutputs::default(),
            log: Vec::new(),
            array_dims: HashMap::new(),
        }
    }

    /// Pre-register a multi-dimensional array's extents (needed when a later
    /// barrier interval is executed without re-running the declaring one).
    pub fn seed_array_dims(&mut self, name: &str, dims: Vec<TermId>) {
        self.array_dims.insert(name.to_string(), dims);
    }

    /// Known extents of an array, if declared with explicit dimensions.
    pub fn array_dims(&self, name: &str) -> Option<&[TermId]> {
        self.array_dims.get(name).map(|v| v.as_slice())
    }

    fn width(&self) -> u32 {
        self.cfg.bits
    }

    /// Execute a (barrier-free) statement list under `path`.
    pub fn exec_block(&mut self, stmts: &[Stmt], env: &mut Env, path: TermId) -> Result<(), IrError> {
        for s in stmts {
            self.exec_stmt(s, env, path)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env, path: TermId) -> Result<(), IrError> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Barrier { .. } => Err(IrError::Internal {
                detail: "barrier reached inside a barrier interval — split_segments must run first"
                    .into(),
            }),
            Stmt::Decl { ty, name, dims, init, .. } => {
                if !dims.is_empty() {
                    // Array declaration: record extents for index flattening.
                    let mut ds = Vec::with_capacity(dims.len());
                    for d in dims {
                        let v = self.eval(d, env, path)?;
                        let w = self.width();
                        ds.push(v.as_bv(self.ctx, w));
                    }
                    self.array_dims.insert(name.clone(), ds);
                    return Ok(());
                }
                let v = match init {
                    Some(e) => {
                        let v = self.eval(e, env, path)?;
                        self.coerce_decl(v, *ty)
                    }
                    None => {
                        // Uninitialized local: fresh symbolic value.
                        let prefix = format!("{}{}", self.name_prefix, name);
                        let w = self.width();
                        let t = self.ctx.fresh_var(&prefix, Sort::BitVec(w));
                        Val::Bv { term: t, signed: ty.is_signed() }
                    }
                };
                env.bind(name, v);
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs, .. } => self.exec_assign(lhs, *op, rhs, env, path),
            Stmt::If { cond, then, els, .. } => {
                let c = self.eval(cond, env, path)?;
                let cb = c.as_bool(self.ctx);
                match self.ctx.const_bool(cb) {
                    Some(true) => self.exec_block(then, env, path),
                    Some(false) => self.exec_block(els, env, path),
                    None => {
                        let then_path = self.ctx.mk_and(path, cb);
                        let ncb = self.ctx.mk_not(cb);
                        let else_path = self.ctx.mk_and(path, ncb);
                        let mut env_t = env.clone();
                        let mut env_e = env.clone();
                        self.exec_block(then, &mut env_t, then_path)?;
                        self.exec_block(els, &mut env_e, else_path)?;
                        // Γ-style merge: synchronize SSA views of the locals.
                        let mut names: Vec<String> = env_t
                            .locals
                            .keys()
                            .chain(env_e.locals.keys())
                            .cloned()
                            .collect();
                        names.sort();
                        names.dedup();
                        for name in names {
                            let tv = env_t.locals.get(&name).copied();
                            let ev = env_e.locals.get(&name).copied();
                            match (tv, ev) {
                                (Some(a), Some(b)) => {
                                    let merged = self.merge_vals(cb, a, b);
                                    env.bind(&name, merged);
                                }
                                // declared in only one arm: scoped to it
                                (Some(_), None) | (None, Some(_)) => {}
                                (None, None) => {}
                            }
                        }
                        Ok(())
                    }
                }
            }
            Stmt::While { cond, body, .. } => {
                for _ in 0..self.max_unroll {
                    let c = self.eval(cond, env, path)?;
                    let cb = c.as_bool(self.ctx);
                    match self.ctx.const_bool(cb) {
                        Some(true) => self.exec_block(body, env, path)?,
                        Some(false) => return Ok(()),
                        None => {
                            return Err(IrError::SymbolicLoopBound {
                                detail: "while condition does not fold to a constant".into(),
                            })
                        }
                    }
                }
                Err(IrError::UnrollBudget { max: self.max_unroll })
            }
            Stmt::For { init, cond, update, body, .. } => {
                self.exec_stmt(init, env, path)?;
                for _ in 0..self.max_unroll {
                    let c = self.eval(cond, env, path)?;
                    let cb = c.as_bool(self.ctx);
                    match self.ctx.const_bool(cb) {
                        Some(true) => {
                            self.exec_block(body, env, path)?;
                            self.exec_stmt(update, env, path)?;
                        }
                        Some(false) => return Ok(()),
                        None => {
                            return Err(IrError::SymbolicLoopBound {
                                detail: "for condition does not fold to a constant".into(),
                            })
                        }
                    }
                }
                Err(IrError::UnrollBudget { max: self.max_unroll })
            }
            Stmt::Assert { cond, .. } => {
                let c = self.eval(cond, env, path)?;
                let cb = c.as_bool(self.ctx);
                let ob = self.ctx.mk_implies(path, cb);
                self.outputs.asserts.push(ob);
                Ok(())
            }
            Stmt::Assume { cond, .. } | Stmt::Requires { cond, .. } => {
                let c = self.eval(cond, env, path)?;
                let cb = c.as_bool(self.ctx);
                let f = self.ctx.mk_implies(path, cb);
                self.outputs.assumptions.push(f);
                Ok(())
            }
            Stmt::Postcond { cond, .. } => {
                if self.collect_postconds {
                    let c = self.eval(cond, env, path)?;
                    let cb = c.as_bool(self.ctx);
                    self.outputs.postconds.push(cb);
                }
                Ok(())
            }
        }
    }

    fn merge_vals(&mut self, cond: TermId, a: Val, b: Val) -> Val {
        match (a, b) {
            (Val::Bool(x), Val::Bool(y)) => Val::Bool(self.ctx.mk_ite(cond, x, y)),
            (x, y) => {
                let w = self.width();
                let xt = x.as_bv(self.ctx, w);
                let yt = y.as_bv(self.ctx, w);
                Val::Bv {
                    term: self.ctx.mk_ite(cond, xt, yt),
                    signed: x.signed() && y.signed(),
                }
            }
        }
    }

    fn coerce_decl(&mut self, v: Val, ty: pug_cuda::Scalar) -> Val {
        let w = self.width();
        match ty {
            pug_cuda::Scalar::Bool => Val::Bool(v.as_bool(self.ctx)),
            t => Val::Bv { term: v.as_bv(self.ctx, w), signed: t.is_signed() },
        }
    }

    fn exec_assign(
        &mut self,
        lhs: &LValue,
        op: Option<BinOp>,
        rhs: &Expr,
        env: &mut Env,
        path: TermId,
    ) -> Result<(), IrError> {
        let rv = self.eval(rhs, env, path)?;
        match self.types.vars.get(&lhs.name) {
            Some(VarInfo::Scalar { ty, .. }) => {
                let new = match op {
                    None => self.coerce_decl(rv, *ty),
                    Some(bop) => {
                        let old = self.lookup_scalar(&lhs.name, *ty, env);
                        self.apply_binop(bop, old, rv)?
                    }
                };
                let new = self.coerce_decl(new, *ty);
                env.bind(&lhs.name, new);
                Ok(())
            }
            Some(VarInfo::GlobalArray { elem })
            | Some(VarInfo::SharedArray { elem, .. })
            | Some(VarInfo::LocalArray { elem, .. }) => {
                let elem_signed = elem.is_signed();
                let idx = self.flatten_index(&lhs.name, &lhs.indices, env, path)?;
                let w = self.width();
                let value = match op {
                    None => rv.as_bv(self.ctx, w),
                    Some(bop) => {
                        let raw = self.mem.read(self.ctx, &lhs.name, idx, path);
                        self.log.push(Access {
                            array: lhs.name.clone(),
                            index: idx,
                            is_write: false,
                            guard: path,
                        });
                        let old = Val::Bv { term: raw, signed: elem_signed };
                        let new = self.apply_binop(bop, old, rv)?;
                        new.as_bv(self.ctx, w)
                    }
                };
                self.mem.write(self.ctx, &lhs.name, idx, value, path);
                self.log.push(Access {
                    array: lhs.name.clone(),
                    index: idx,
                    is_write: true,
                    guard: path,
                });
                Ok(())
            }
            None => Err(IrError::Internal { detail: format!("assignment to unknown `{}`", lhs.name) }),
        }
    }

    fn lookup_scalar(&mut self, name: &str, ty: pug_cuda::Scalar, env: &mut Env) -> Val {
        if let Some(v) = env.local(name) {
            return v;
        }
        // Kernel parameter or implicitly-quantified spec variable: bind a
        // symbolic input named after the variable itself (shared across the
        // whole query so both kernels of an equivalence check see the same
        // input values when the encoder arranges equal names).
        let w = self.width();
        if let Some(&v) = self.concrete_params.get(name) {
            let t = self.ctx.mk_bv_const(v, w);
            let val = Val::Bv { term: t, signed: ty.is_signed() };
            env.bind(name, val);
            return val;
        }
        let is_param = matches!(self.types.vars.get(name), Some(VarInfo::Scalar { is_param: true, .. }));
        let symbol = if is_param {
            format!("{}{name}", self.param_prefix())
        } else {
            name.to_string()
        };
        let t = self.ctx.mk_var(&symbol, Sort::BitVec(w));
        let v = Val::Bv { term: t, signed: ty.is_signed() };
        env.bind(name, v);
        v
    }

    /// Prefix for kernel-parameter symbols; empty so parameters are shared
    /// by name across kernels (equivalence checking needs `width`, `height`
    /// etc. to be the *same* symbols in both kernels).
    fn param_prefix(&self) -> &str {
        ""
    }

    /// Flatten (possibly multi-dimensional) indices to a single address term
    /// using the declared extents: `a[i][j] → i * dim1 + j`.
    fn flatten_index(
        &mut self,
        name: &str,
        indices: &[Expr],
        env: &mut Env,
        path: TermId,
    ) -> Result<TermId, IrError> {
        let w = self.width();
        let mut terms = Vec::with_capacity(indices.len());
        for e in indices {
            let v = self.eval(e, env, path)?;
            terms.push(v.as_bv(self.ctx, w));
        }
        if terms.len() == 1 {
            return Ok(terms[0]);
        }
        let dims = self.array_dims.get(name).cloned().ok_or_else(|| IrError::Internal {
            detail: format!("array `{name}` used before its declaration"),
        })?;
        if dims.len() != terms.len() {
            return Err(IrError::Internal { detail: format!("index arity mismatch on `{name}`") });
        }
        // Horner: ((i0 * d1 + i1) * d2 + i2) …
        let mut acc = terms[0];
        for k in 1..terms.len() {
            let scaled = self.ctx.mk_bv_mul(acc, dims[k]);
            acc = self.ctx.mk_bv_add(scaled, terms[k]);
        }
        Ok(acc)
    }

    /// Evaluate an expression to a typed symbolic value.
    pub fn eval(&mut self, e: &Expr, env: &mut Env, path: TermId) -> Result<Val, IrError> {
        let w = self.width();
        match e {
            Expr::Int(n) => Ok(Val::Bv { term: self.ctx.mk_bv_const(*n, w), signed: true }),
            Expr::Bool(b) => Ok(Val::Bool(self.ctx.mk_bool(*b))),
            Expr::Builtin(b) => Ok(Val::Bv { term: self.builtin_term(*b, env), signed: false }),
            Expr::Ident(name) => match self.types.vars.get(name).cloned() {
                Some(VarInfo::Scalar { ty, .. }) => Ok(self.lookup_scalar(name, ty, env)),
                _ => Err(IrError::Internal { detail: format!("non-scalar `{name}` in expression") }),
            },
            Expr::Index { base, indices } => {
                let elem_signed = match self.types.vars.get(base) {
                    Some(VarInfo::GlobalArray { elem })
                    | Some(VarInfo::SharedArray { elem, .. })
                    | Some(VarInfo::LocalArray { elem, .. }) => elem.is_signed(),
                    _ => {
                        return Err(IrError::Internal {
                            detail: format!("indexed non-array `{base}`"),
                        })
                    }
                };
                let idx = self.flatten_index(base, indices, env, path)?;
                let t = self.mem.read(self.ctx, base, idx, path);
                self.log.push(Access {
                    array: base.clone(),
                    index: idx,
                    is_write: false,
                    guard: path,
                });
                Ok(Val::Bv { term: t, signed: elem_signed })
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg, env, path)?;
                match op {
                    UnOp::Not => {
                        let b = v.as_bool(self.ctx);
                        Ok(Val::Bool(self.ctx.mk_not(b)))
                    }
                    UnOp::Neg => {
                        let t = v.as_bv(self.ctx, w);
                        Ok(Val::Bv { term: self.ctx.mk_bv_neg(t), signed: true })
                    }
                    UnOp::BitNot => {
                        let t = v.as_bv(self.ctx, w);
                        Ok(Val::Bv { term: self.ctx.mk_bv_not(t), signed: v.signed() })
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, env, path)?;
                let b = self.eval(rhs, env, path)?;
                self.apply_binop(*op, a, b)
            }
            Expr::Ternary { cond, then, els } => {
                let c = self.eval(cond, env, path)?;
                let cb = c.as_bool(self.ctx);
                let t = self.eval(then, env, path)?;
                let e2 = self.eval(els, env, path)?;
                Ok(self.merge_vals(cb, t, e2))
            }
            Expr::Call { name, args } => {
                let a = self.eval(&args[0], env, path)?;
                let b = self.eval(&args[1], env, path)?;
                let signed = a.signed() && b.signed();
                let at = a.as_bv(self.ctx, w);
                let bt = b.as_bv(self.ctx, w);
                let lt = if signed {
                    self.ctx.mk_bv_slt(at, bt)
                } else {
                    self.ctx.mk_bv_ult(at, bt)
                };
                let term = match name.as_str() {
                    "min" => self.ctx.mk_ite(lt, at, bt),
                    "max" => self.ctx.mk_ite(lt, bt, at),
                    other => {
                        return Err(IrError::Unsupported { detail: format!("call to `{other}`") })
                    }
                };
                Ok(Val::Bv { term, signed })
            }
        }
    }

    fn builtin_term(&self, b: Builtin, env: &Env) -> TermId {
        match b {
            Builtin::Tid(d) => env.tid[d.index()],
            Builtin::Bid(d) => env.bid[d.index().min(1)],
            Builtin::Bdim(d) => self.cfg.bdim[d.index()],
            Builtin::Gdim(d) => self.cfg.gdim[d.index().min(1)],
        }
    }

    fn apply_binop(&mut self, op: BinOp, a: Val, b: Val) -> Result<Val, IrError> {
        let ctx = &mut *self.ctx;
        let w = self.cfg.bits;
        // Boolean connectives.
        match op {
            BinOp::And => {
                let (x, y) = (a.as_bool(ctx), b.as_bool(ctx));
                return Ok(Val::Bool(ctx.mk_and(x, y)));
            }
            BinOp::Or => {
                let (x, y) = (a.as_bool(ctx), b.as_bool(ctx));
                return Ok(Val::Bool(ctx.mk_or(x, y)));
            }
            BinOp::Imp => {
                let (x, y) = (a.as_bool(ctx), b.as_bool(ctx));
                return Ok(Val::Bool(ctx.mk_implies(x, y)));
            }
            _ => {}
        }
        // Equality over Booleans stays Boolean.
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            if let (Val::Bool(x), Val::Bool(y)) = (a, b) {
                let eq = ctx.mk_eq(x, y);
                return Ok(Val::Bool(if op == BinOp::Ne { ctx.mk_not(eq) } else { eq }));
            }
        }
        let signed = a.signed() && b.signed();
        let x = a.as_bv(ctx, w);
        let y = b.as_bv(ctx, w);
        let out = match op {
            BinOp::Add => Val::Bv { term: ctx.mk_bv_add(x, y), signed },
            BinOp::Sub => Val::Bv { term: ctx.mk_bv_sub(x, y), signed },
            BinOp::Mul => Val::Bv { term: ctx.mk_bv_mul(x, y), signed },
            BinOp::Div => {
                if signed {
                    Val::Bv { term: signed_div(ctx, x, y).0, signed }
                } else {
                    Val::Bv { term: ctx.mk_bv_udiv(x, y), signed }
                }
            }
            BinOp::Rem => {
                if signed {
                    Val::Bv { term: signed_div(ctx, x, y).1, signed }
                } else {
                    Val::Bv { term: ctx.mk_bv_urem(x, y), signed }
                }
            }
            BinOp::BitAnd => Val::Bv { term: ctx.mk_bv_and(x, y), signed },
            BinOp::BitOr => Val::Bv { term: ctx.mk_bv_or(x, y), signed },
            BinOp::BitXor => Val::Bv { term: ctx.mk_bv_xor(x, y), signed },
            BinOp::Shl => Val::Bv { term: ctx.mk_bv_shl(x, y), signed },
            BinOp::Shr => {
                // C: arithmetic shift for signed, logical for unsigned.
                let t = if a.signed() { ctx.mk_bv_ashr(x, y) } else { ctx.mk_bv_lshr(x, y) };
                Val::Bv { term: t, signed: a.signed() }
            }
            BinOp::Eq => Val::Bool(ctx.mk_eq(x, y)),
            BinOp::Ne => Val::Bool(ctx.mk_neq(x, y)),
            BinOp::Lt => Val::Bool(if signed { ctx.mk_bv_slt(x, y) } else { ctx.mk_bv_ult(x, y) }),
            BinOp::Le => Val::Bool(if signed { ctx.mk_bv_sle(x, y) } else { ctx.mk_bv_ule(x, y) }),
            BinOp::Gt => Val::Bool(if signed { ctx.mk_bv_slt(y, x) } else { ctx.mk_bv_ult(y, x) }),
            BinOp::Ge => Val::Bool(if signed { ctx.mk_bv_sle(y, x) } else { ctx.mk_bv_ule(y, x) }),
            BinOp::And | BinOp::Or | BinOp::Imp => unreachable!("handled above"),
        };
        Ok(out)
    }
}

/// C99 truncated signed division built from unsigned division:
/// `(sdiv, srem)` with the sign fixes `sdiv = ±(|a| / |b|)`,
/// `srem = sign(a) · (|a| % |b|)`.
pub fn signed_div(ctx: &mut Ctx, a: TermId, b: TermId) -> (TermId, TermId) {
    let w = ctx.width(a);
    let zero = ctx.mk_bv_const(0, w);
    let sa = ctx.mk_bv_slt(a, zero);
    let sb = ctx.mk_bv_slt(b, zero);
    let na = ctx.mk_bv_neg(a);
    let nb = ctx.mk_bv_neg(b);
    let ua = ctx.mk_ite(sa, na, a);
    let ub = ctx.mk_ite(sb, nb, b);
    let q = ctx.mk_bv_udiv(ua, ub);
    let r = ctx.mk_bv_urem(ua, ub);
    let sign_differs = ctx.mk_xor(sa, sb);
    let nq = ctx.mk_bv_neg(q);
    let nr = ctx.mk_bv_neg(r);
    let sdiv = ctx.mk_ite(sign_differs, nq, q);
    let srem = ctx.mk_ite(sa, nr, r);
    (sdiv, srem)
}

/// Store-chain memory: the non-parameterized model of §III. Arrays are SMT
/// array terms; guarded writes become `store(a, i, ite(g, v, a[i]))` so the
/// chain stays array-sorted without array `ite`.
#[derive(Clone, Debug, Default)]
pub struct StoreMemory {
    arrays: HashMap<String, TermId>,
}

impl StoreMemory {
    /// Create with initial array terms (typically fresh array variables).
    pub fn new(arrays: HashMap<String, TermId>) -> StoreMemory {
        StoreMemory { arrays }
    }

    /// Register an array's initial term.
    pub fn insert(&mut self, name: &str, term: TermId) {
        self.arrays.insert(name.to_string(), term);
    }

    /// Current array term (tip of the store chain).
    pub fn current(&self, name: &str) -> Option<TermId> {
        self.arrays.get(name).copied()
    }
}

impl Memory for StoreMemory {
    fn read(&mut self, ctx: &mut Ctx, array: &str, index: TermId, _guard: TermId) -> TermId {
        let a = *self.arrays.get(array).unwrap_or_else(|| panic!("unknown array `{array}`"));
        ctx.mk_select(a, index)
    }

    fn write(&mut self, ctx: &mut Ctx, array: &str, index: TermId, value: TermId, guard: TermId) {
        let a = *self.arrays.get(array).unwrap_or_else(|| panic!("unknown array `{array}`"));
        let stored = match ctx.const_bool(guard) {
            Some(true) => value,
            _ => {
                let old = ctx.mk_select(a, index);
                ctx.mk_ite(guard, value, old)
            }
        };
        let next = ctx.mk_store(a, index, stored);
        self.arrays.insert(array.to_string(), next);
    }
}
