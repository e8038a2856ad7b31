//! Concrete reference interpreter for kernels under the natural-order
//! schedule.
//!
//! Executes a kernel for a fully concrete configuration and concrete
//! inputs, serializing threads in the same natural order as the
//! non-parameterized encoder (§III): within each barrier interval, thread 0
//! runs first, then thread 1, …. For race-free kernels this is the CUDA
//! semantics; for racy ones it is the canonical schedule the encoders
//! implement. Used as the ground truth for differential testing of the
//! symbolic pipeline.

use crate::config::GpuConfig;
use crate::consteval::ConstEnv;
use crate::error::IrError;
use crate::structure::{split_bis, unroll_barrier_loops};
use pug_cuda::ast::{BinOp, Builtin, Expr, LValue, Stmt, UnOp};
use pug_cuda::typecheck::{TypeInfo, VarInfo};
use pug_cuda::Kernel;
use pug_smt::sort::{mask, to_signed, truncate};
use std::collections::HashMap;

/// Concrete machine state: array contents (sparse, default 0).
#[derive(Clone, Debug, Default)]
pub struct ConcreteState {
    pub arrays: HashMap<String, HashMap<u64, u64>>,
}

impl ConcreteState {
    /// Read `array[idx]` (default 0).
    pub fn read(&self, array: &str, idx: u64) -> u64 {
        self.arrays.get(array).and_then(|a| a.get(&idx)).copied().unwrap_or(0)
    }

    /// Write `array[idx] = v`.
    pub fn write(&mut self, array: &str, idx: u64, v: u64) {
        self.arrays.entry(array.to_string()).or_default().insert(idx, v);
    }
}

/// Inputs to a concrete run: scalar parameters and initial array contents.
#[derive(Clone, Debug, Default)]
pub struct ConcreteInputs {
    pub scalars: HashMap<String, u64>,
    pub arrays: HashMap<String, HashMap<u64, u64>>,
}

/// One logged array access from a [`run_concrete_logged`] replay: which
/// thread touched which cell of which array, in which barrier interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteAccess {
    pub array: String,
    pub index: u64,
    pub is_write: bool,
    pub tid: [u64; 3],
    pub bid: [u64; 2],
    /// Barrier-interval ordinal (accesses in the same interval are
    /// unordered by any barrier — the race-witness replay keys on this).
    pub bi: usize,
}

/// Run `kernel` concretely; returns the final state. Assumption/assertion
/// statements are ignored (callers choose inputs satisfying them).
pub fn run_concrete(
    kernel: &Kernel,
    types: &TypeInfo,
    cfg: &GpuConfig,
    inputs: &ConcreteInputs,
) -> Result<ConcreteState, IrError> {
    run_impl(kernel, types, cfg, inputs, None)
}

/// [`run_concrete`] plus a full per-thread array access log — the concrete
/// oracle behind the provable-race classification: a witness schedule is
/// only *provable* when this replay exhibits the conflicting accesses.
pub fn run_concrete_logged(
    kernel: &Kernel,
    types: &TypeInfo,
    cfg: &GpuConfig,
    inputs: &ConcreteInputs,
) -> Result<(ConcreteState, Vec<ConcreteAccess>), IrError> {
    let mut log = Vec::new();
    let st = run_impl(kernel, types, cfg, inputs, Some(&mut log))?;
    Ok((st, log))
}

fn run_impl(
    kernel: &Kernel,
    types: &TypeInfo,
    cfg: &GpuConfig,
    inputs: &ConcreteInputs,
    mut log: Option<&mut Vec<ConcreteAccess>>,
) -> Result<ConcreteState, IrError> {
    let w = cfg.bits;
    let cenv = ConstEnv::from_config(cfg);
    let flat = unroll_barrier_loops(&kernel.body, &cenv)?;
    let bis = split_bis(&flat)?;

    let (bx, by, gx, gy) = match (cfg.bdim, cfg.gdim) {
        (
            [crate::Extent::Const(bx), crate::Extent::Const(by), crate::Extent::Const(_)],
            [crate::Extent::Const(gx), crate::Extent::Const(gy)],
        ) => (bx, by, gx, gy),
        _ => {
            return Err(IrError::Unsupported {
                detail: "concrete interpretation needs a fully concrete configuration".into(),
            })
        }
    };

    let mut state = ConcreteState { arrays: inputs.arrays.clone() };
    // Per-thread local environments persist across barrier intervals.
    let mut threads: Vec<Thread> = Vec::new();
    for byy in 0..gy {
        for bxx in 0..gx {
            for tyy in 0..by {
                for txx in 0..bx {
                    threads.push(Thread {
                        tid: [txx, tyy, 0],
                        bid: [bxx, byy],
                        locals: inputs.scalars.clone(),
                        dims: HashMap::new(),
                    });
                }
            }
        }
    }

    for (bi_ix, bi) in bis.iter().enumerate() {
        for t in &mut threads {
            let mut m = Interp {
                w,
                cfg,
                types,
                state: &mut state,
                thread: t,
                bi: bi_ix,
                log: log.as_deref_mut(),
            };
            m.block(bi)?;
        }
    }
    Ok(state)
}

struct Thread {
    tid: [u64; 3],
    bid: [u64; 2],
    locals: HashMap<String, u64>,
    dims: HashMap<String, Vec<u64>>,
}

struct Interp<'a> {
    w: u32,
    cfg: &'a GpuConfig,
    types: &'a TypeInfo,
    state: &'a mut ConcreteState,
    thread: &'a mut Thread,
    bi: usize,
    log: Option<&'a mut Vec<ConcreteAccess>>,
}

impl Interp<'_> {
    fn log_access(&mut self, array: &str, index: u64, is_write: bool) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(ConcreteAccess {
                array: array.to_string(),
                index,
                is_write,
                tid: self.thread.tid,
                bid: self.thread.bid,
                bi: self.bi,
            });
        }
    }
}

impl Interp<'_> {
    fn block(&mut self, stmts: &[Stmt]) -> Result<(), IrError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), IrError> {
        match s {
            Stmt::Nop | Stmt::Assume { .. } | Stmt::Requires { .. } | Stmt::Assert { .. }
            | Stmt::Postcond { .. } => Ok(()),
            Stmt::Barrier { .. } => Err(IrError::Internal {
                detail: "barrier inside interval during interpretation".into(),
            }),
            Stmt::Decl { name, dims, init, .. } => {
                if !dims.is_empty() {
                    let ds: Result<Vec<u64>, _> = dims.iter().map(|d| self.eval(d)).collect();
                    self.thread.dims.insert(name.clone(), ds?);
                    return Ok(());
                }
                let v = match init {
                    Some(e) => self.eval(e)?,
                    None => 0, // uninitialized locals read as zero
                };
                self.thread.locals.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs, .. } => {
                let rv = self.eval(rhs)?;
                match self.types.vars.get(&lhs.name) {
                    Some(VarInfo::Scalar { ty, .. }) => {
                        let new = match op {
                            None => rv,
                            Some(bop) => {
                                let old =
                                    self.thread.locals.get(&lhs.name).copied().unwrap_or(0);
                                self.binop(*bop, old, rv, ty.is_signed())
                            }
                        };
                        self.thread.locals.insert(lhs.name.clone(), truncate(new, self.w));
                        Ok(())
                    }
                    Some(VarInfo::GlobalArray { elem })
                    | Some(VarInfo::SharedArray { elem, .. })
                    | Some(VarInfo::LocalArray { elem, .. }) => {
                        let idx = self.index(lhs)?;
                        let new = match op {
                            None => rv,
                            Some(bop) => {
                                self.log_access(&lhs.name, idx, false);
                                let old = self.state.read(&lhs.name, idx);
                                self.binop(*bop, old, rv, elem.is_signed())
                            }
                        };
                        self.log_access(&lhs.name, idx, true);
                        self.state.write(&lhs.name, idx, truncate(new, self.w));
                        Ok(())
                    }
                    None => Err(IrError::Internal {
                        detail: format!("unknown lvalue `{}`", lhs.name),
                    }),
                }
            }
            Stmt::If { cond, then, els, .. } => {
                if self.eval(cond)? != 0 {
                    self.block(then)
                } else {
                    self.block(els)
                }
            }
            Stmt::While { cond, body, .. } => {
                let mut fuel = 1 << 16;
                while self.eval(cond)? != 0 {
                    self.block(body)?;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(IrError::UnrollBudget { max: 1 << 16 });
                    }
                }
                Ok(())
            }
            Stmt::For { init, cond, update, body, .. } => {
                self.stmt(init)?;
                let mut fuel = 1 << 16;
                while self.eval(cond)? != 0 {
                    self.block(body)?;
                    self.stmt(update)?;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(IrError::UnrollBudget { max: 1 << 16 });
                    }
                }
                Ok(())
            }
        }
    }

    fn index(&mut self, lv: &LValue) -> Result<u64, IrError> {
        let idxs: Result<Vec<u64>, _> = lv.indices.iter().map(|e| self.eval(e)).collect();
        let idxs = idxs?;
        if idxs.len() == 1 {
            return Ok(idxs[0]);
        }
        let dims = self.thread.dims.get(&lv.name).cloned().ok_or_else(|| IrError::Internal {
            detail: format!("array `{}` used before declaration", lv.name),
        })?;
        let mut acc = idxs[0];
        for k in 1..idxs.len() {
            acc = truncate(acc.wrapping_mul(dims[k]).wrapping_add(idxs[k]), self.w);
        }
        Ok(acc)
    }

    fn eval(&mut self, e: &Expr) -> Result<u64, IrError> {
        let w = self.w;
        let v = match e {
            Expr::Int(n) => truncate(*n, w),
            Expr::Bool(b) => u64::from(*b),
            Expr::Ident(name) => self.thread.locals.get(name).copied().unwrap_or(0),
            Expr::Builtin(b) => self.builtin(*b),
            Expr::Index { base, indices } => {
                let lv = LValue { name: base.clone(), indices: indices.clone() };
                let idx = self.index(&lv)?;
                self.log_access(base, idx, false);
                self.state.read(base, idx)
            }
            Expr::Unary { op, arg } => {
                let a = self.eval(arg)?;
                match op {
                    UnOp::Neg => truncate(a.wrapping_neg(), w),
                    UnOp::Not => u64::from(a == 0),
                    UnOp::BitNot => truncate(!a, w),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                // Signedness per the C rules the symbolic lowering applies.
                let signed = self.signedness(lhs) && self.signedness(rhs);
                self.binop(*op, a, b, signed)
            }
            Expr::Ternary { cond, then, els } => {
                if self.eval(cond)? != 0 {
                    self.eval(then)?
                } else {
                    self.eval(els)?
                }
            }
            Expr::Call { name, args } => {
                let a = self.eval(&args[0])?;
                let b = self.eval(&args[1])?;
                let signed = self.signedness(&args[0]) && self.signedness(&args[1]);
                let lt = if signed {
                    to_signed(a, w) < to_signed(b, w)
                } else {
                    a < b
                };
                match (name.as_str(), lt) {
                    ("min", true) | ("max", false) => a,
                    ("min", false) | ("max", true) => b,
                    _ => return Err(IrError::Unsupported { detail: format!("call `{name}`") }),
                }
            }
        };
        Ok(truncate(v, w))
    }

    /// C signedness of an expression (mirrors the symbolic lowering).
    fn signedness(&self, e: &Expr) -> bool {
        match e {
            Expr::Int(_) => true,
            Expr::Bool(_) => false,
            Expr::Builtin(_) => false,
            Expr::Ident(name) => match self.types.vars.get(name) {
                Some(VarInfo::Scalar { ty, .. }) => ty.is_signed(),
                _ => true,
            },
            Expr::Index { base, .. } => match self.types.vars.get(base) {
                Some(VarInfo::GlobalArray { elem })
                | Some(VarInfo::SharedArray { elem, .. })
                | Some(VarInfo::LocalArray { elem, .. }) => elem.is_signed(),
                _ => true,
            },
            Expr::Unary { op, arg } => match op {
                UnOp::Not => false,
                UnOp::Neg => true,
                UnOp::BitNot => self.signedness(arg),
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Shr | BinOp::Shl => self.signedness(lhs),
                _ if op.is_comparison() || op.is_logical() || *op == BinOp::Imp => false,
                _ => self.signedness(lhs) && self.signedness(rhs),
            },
            Expr::Ternary { then, els, .. } => self.signedness(then) && self.signedness(els),
            Expr::Call { args, .. } => args.iter().all(|a| self.signedness(a)),
        }
    }

    fn binop(&self, op: BinOp, a: u64, b: u64, signed: bool) -> u64 {
        let w = self.w;
        let (sa, sb) = (to_signed(a, w), to_signed(b, w));
        let v = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if signed {
                    if sb == 0 {
                        mask(w) // matches SMT-LIB semantics via |a|/0 path
                    } else {
                        truncate((sa.wrapping_div(sb)) as u64, w)
                    }
                } else {
                    a.checked_div(b).unwrap_or(mask(w))
                }
            }
            BinOp::Rem => {
                if signed {
                    if sb == 0 {
                        a
                    } else {
                        truncate((sa.wrapping_rem(sb)) as u64, w)
                    }
                } else if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            BinOp::Shl => {
                if b >= w as u64 {
                    0
                } else {
                    a << b
                }
            }
            BinOp::Shr => {
                if signed {
                    let sh = b.min(w as u64 - 1) as u32;
                    truncate((to_signed(a, w) >> sh) as u64, w)
                } else if b >= w as u64 {
                    0
                } else {
                    a >> b
                }
            }
            BinOp::Eq => u64::from(a == b),
            BinOp::Ne => u64::from(a != b),
            BinOp::Lt => u64::from(if signed { sa < sb } else { a < b }),
            BinOp::Le => u64::from(if signed { sa <= sb } else { a <= b }),
            BinOp::Gt => u64::from(if signed { sa > sb } else { a > b }),
            BinOp::Ge => u64::from(if signed { sa >= sb } else { a >= b }),
            BinOp::And => u64::from(a != 0 && b != 0),
            BinOp::Or => u64::from(a != 0 || b != 0),
            BinOp::Imp => u64::from(a == 0 || b != 0),
        };
        truncate(v, w)
    }

    fn builtin(&self, b: Builtin) -> u64 {
        let ext = |e: crate::Extent| match e {
            crate::Extent::Const(v) => v,
            crate::Extent::Sym => unreachable!("config checked concrete"),
        };
        match b {
            Builtin::Tid(d) => self.thread.tid[d.index()],
            Builtin::Bid(d) => self.thread.bid[d.index().min(1)],
            Builtin::Bdim(d) => ext(self.cfg.bdim[d.index()]),
            Builtin::Gdim(d) => ext(self.cfg.gdim[d.index().min(1)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pug_cuda::parse_kernel;

    fn run(src: &str, cfg: &GpuConfig, inputs: ConcreteInputs) -> ConcreteState {
        let k = parse_kernel(src).unwrap();
        let t = pug_cuda::check_kernel(&k).unwrap();
        run_concrete(&k, &t, cfg, &inputs).unwrap()
    }

    #[test]
    fn copies_elementwise() {
        let mut inputs = ConcreteInputs::default();
        inputs.arrays.insert("in".into(), HashMap::from([(0, 7), (1, 9)]));
        let st = run(
            "void k(int *out, int *in) { out[tid.x] = in[tid.x] + 1; }",
            &GpuConfig::concrete_1d(8, 2),
            inputs,
        );
        assert_eq!(st.read("out", 0), 8);
        assert_eq!(st.read("out", 1), 10);
    }

    #[test]
    fn reduction_sums() {
        let mut inputs = ConcreteInputs::default();
        inputs
            .arrays
            .insert("g_idata".into(), HashMap::from([(0, 1), (1, 2), (2, 3), (3, 4)]));
        let st = run(
            pug_kernels_src_reduce(),
            &GpuConfig::concrete_1d(8, 4),
            inputs,
        );
        assert_eq!(st.read("g_odata", 0), 10);
    }

    fn pug_kernels_src_reduce() -> &'static str {
        r#"
void reduce(int *g_odata, int *g_idata) {
    __shared__ int sdata[bdim.x];
    sdata[tid.x] = g_idata[tid.x];
    __syncthreads();
    for (unsigned int s = 1; s < bdim.x; s *= 2) {
        if ((tid.x % (2 * s)) == 0) { sdata[tid.x] += sdata[tid.x + s]; }
        __syncthreads();
    }
    if (tid.x == 0) g_odata[0] = sdata[0];
}
"#
    }

    #[test]
    fn natural_order_last_writer_wins() {
        let st = run(
            "void k(int *out) { out[0] = tid.x; }",
            &GpuConfig::concrete_1d(8, 4),
            ConcreteInputs::default(),
        );
        assert_eq!(st.read("out", 0), 3);
    }

    #[test]
    fn signed_guard_semantics() {
        // -1 < 3 holds as signed ints: 255 is negative at 8 bits.
        let st = run(
            "void k(int *out, int n) { int i = n; if (i < 3) out[0] = 1; }",
            &GpuConfig::concrete_1d(8, 1),
            ConcreteInputs {
                scalars: HashMap::from([("n".into(), 255u64)]),
                arrays: HashMap::new(),
            },
        );
        assert_eq!(st.read("out", 0), 1);
    }
}
