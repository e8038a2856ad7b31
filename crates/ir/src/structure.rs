//! Barrier-interval structure: loop unrolling around barriers and splitting
//! a kernel body into barrier intervals (BIs, paper §II / §IV-C).

use crate::consteval::ConstEnv;
use crate::error::IrError;
use pug_cuda::ast::{walk_stmts, Expr, LValue, Stmt};
use pug_cuda::token::Span;

/// Does this statement (recursively) contain a `__syncthreads()`?
pub fn contains_barrier(s: &Stmt) -> bool {
    walk_stmts(std::slice::from_ref(s)).any(|s| matches!(s, Stmt::Barrier { .. }))
}

/// Top-level structure of a kernel body for the parameterized encoder:
/// maximal barrier-free statement runs, interleaved with loops that contain
/// barriers (those are handled by loop alignment, §IV-E).
#[derive(Clone, Debug)]
pub enum Segment {
    /// Barrier-free statements forming (part of) a barrier interval.
    Straight(Vec<Stmt>),
    /// A `for` loop whose body contains barriers.
    Loop {
        init: Box<Stmt>,
        cond: Expr,
        update: Box<Stmt>,
        body: Vec<Stmt>,
        span: Span,
    },
}

/// Split a body into [`Segment`]s. Barriers under `if` are rejected
/// (barrier divergence); `while` loops with barriers are outside the subset.
pub fn split_segments(body: &[Stmt]) -> Result<Vec<Segment>, IrError> {
    let mut segments = Vec::new();
    let mut current: Vec<Stmt> = Vec::new();
    for s in body {
        match s {
            Stmt::Barrier { .. } => {
                segments.push(Segment::Straight(std::mem::take(&mut current)));
            }
            Stmt::If { span, .. } if contains_barrier(s) => {
                return Err(IrError::BarrierDivergence {
                    detail: format!("if-statement at {span} contains __syncthreads()"),
                });
            }
            Stmt::While { span, .. } if contains_barrier(s) => {
                return Err(IrError::Unsupported {
                    detail: format!("while-loop with a barrier at {span}; use a for-loop"),
                });
            }
            Stmt::For { init, cond, update, body: lb, span } if contains_barrier(s) => {
                if !current.is_empty() {
                    segments.push(Segment::Straight(std::mem::take(&mut current)));
                }
                segments.push(Segment::Loop {
                    init: init.clone(),
                    cond: cond.clone(),
                    update: update.clone(),
                    body: lb.clone(),
                    span: *span,
                });
            }
            other => current.push(other.clone()),
        }
    }
    if !current.is_empty() {
        segments.push(Segment::Straight(current));
    }
    Ok(segments)
}

/// Maximum loop-header iterations simulated during unrolling.
const MAX_HEADER_ITERS: usize = 1 << 16;

/// Replace every loop that contains a barrier by its unrolled iterations,
/// simulating the loop header numerically (requires the header to be
/// constant under `env` — i.e. a concrete configuration). Loop variables are
/// re-bound per iteration with explicit assignments. Barrier-free loops are
/// left intact (the executor unrolls them on the fly).
pub fn unroll_barrier_loops(body: &[Stmt], env: &ConstEnv) -> Result<Vec<Stmt>, IrError> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For { init, cond, update, body: lb, span } if contains_barrier(s) => {
                let (var, mut value) = init_binding(init, env)?;
                let mut iters = 0usize;
                loop {
                    let mut e = env.clone();
                    e.vars.insert(var.clone(), value);
                    match e.eval(cond) {
                        Some(0) => break,
                        Some(_) => {}
                        None => {
                            return Err(IrError::SymbolicLoopBound {
                                detail: format!("loop condition at {span}"),
                            })
                        }
                    }
                    iters += 1;
                    if iters > MAX_HEADER_ITERS {
                        return Err(IrError::UnrollBudget { max: MAX_HEADER_ITERS });
                    }
                    // Rebind the loop variable, then emit the (recursively
                    // unrolled) iteration body.
                    out.push(Stmt::Assign {
                        lhs: LValue { name: var.clone(), indices: vec![] },
                        op: None,
                        rhs: Expr::Int(value),
                        span: *span,
                    });
                    let mut inner_env = env.clone();
                    inner_env.vars.insert(var.clone(), value);
                    out.extend(unroll_barrier_loops(lb, &inner_env)?);
                    value = step(update, &var, value, &e, *span)?;
                }
            }
            Stmt::If { span, .. } if contains_barrier(s) => {
                return Err(IrError::BarrierDivergence {
                    detail: format!("if at {span} contains __syncthreads()"),
                });
            }
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

fn init_binding(init: &Stmt, env: &ConstEnv) -> Result<(String, u64), IrError> {
    match init {
        Stmt::Decl { name, init: Some(e), .. } => {
            let v = env.eval(e).ok_or_else(|| IrError::SymbolicLoopBound {
                detail: format!("initializer of `{name}`"),
            })?;
            Ok((name.clone(), v))
        }
        Stmt::Assign { lhs, op: None, rhs, .. } if lhs.indices.is_empty() => {
            let v = env.eval(rhs).ok_or_else(|| IrError::SymbolicLoopBound {
                detail: format!("initializer of `{}`", lhs.name),
            })?;
            Ok((lhs.name.clone(), v))
        }
        _ => Err(IrError::Unsupported {
            detail: "barrier-loop initializer must bind a single scalar".into(),
        }),
    }
}

fn step(update: &Stmt, var: &str, value: u64, env: &ConstEnv, span: Span) -> Result<u64, IrError> {
    match update {
        Stmt::Assign { lhs, op, rhs, .. } if lhs.name == var && lhs.indices.is_empty() => {
            let mut e = env.clone();
            e.vars.insert(var.to_string(), value);
            let r = e.eval(rhs).ok_or_else(|| IrError::SymbolicLoopBound {
                detail: format!("update of `{var}` at {span}"),
            })?;
            let w = e.bits;
            let v = match op {
                None => r,
                Some(bop) => {
                    let combined = Expr::bin(*bop, Expr::Int(value), Expr::Int(r));
                    e.eval(&combined).ok_or_else(|| IrError::SymbolicLoopBound {
                        detail: format!("update of `{var}` at {span}"),
                    })?
                }
            };
            Ok(v & pug_smt::sort::mask(w))
        }
        _ => Err(IrError::Unsupported {
            detail: format!("barrier-loop update must assign the loop variable `{var}`"),
        }),
    }
}

/// Split a flat (already unrolled) body into barrier intervals. Any barrier
/// still nested in control flow is an error.
pub fn split_bis(body: &[Stmt]) -> Result<Vec<Vec<Stmt>>, IrError> {
    let mut bis: Vec<Vec<Stmt>> = vec![Vec::new()];
    for s in body {
        match s {
            Stmt::Barrier { .. } => bis.push(Vec::new()),
            other if contains_barrier(other) => {
                return Err(IrError::BarrierDivergence {
                    detail: "barrier nested in control flow after unrolling".into(),
                })
            }
            other => bis.last_mut().expect("non-empty").push(other.clone()),
        }
    }
    // Drop empty trailing/leading intervals produced by adjacent barriers.
    Ok(bis.into_iter().filter(|b| !b.is_empty()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pug_cuda::parser::parse_kernel;

    fn body(src: &str) -> Vec<Stmt> {
        parse_kernel(src).unwrap().body
    }

    #[test]
    fn splits_two_bis() {
        let b = body(
            "void k(int *d) { d[tid.x] = 1; __syncthreads(); d[tid.x] = d[tid.x + 1]; }",
        );
        let bis = split_bis(&b).unwrap();
        assert_eq!(bis.len(), 2);
    }

    #[test]
    fn unrolls_reduction_loop() {
        let src = r#"
void k(int *d) {
    for (unsigned int s = 1; s < bdim.x; s *= 2) {
        if (tid.x % (2 * s) == 0) d[tid.x] += d[tid.x + s];
        __syncthreads();
    }
}
"#;
        let b = body(src);
        let mut env = ConstEnv::new(16);
        env.bdim[0] = Some(8);
        let flat = unroll_barrier_loops(&b, &env).unwrap();
        let bis = split_bis(&flat).unwrap();
        // s = 1, 2, 4 → three iterations, barrier at each end
        assert_eq!(bis.len(), 3);
        // each BI starts by pinning the loop variable
        for (i, bi) in bis.iter().enumerate() {
            let Stmt::Assign { lhs, rhs, .. } = &bi[0] else { panic!() };
            assert_eq!(lhs.name, "s");
            assert_eq!(*rhs, Expr::Int(1 << i));
        }
    }

    #[test]
    fn descending_shift_loop() {
        let src = r#"
void k(int *d) {
    for (unsigned int s = bdim.x / 2; s > 0; s >>= 1) {
        d[tid.x] += d[tid.x + s];
        __syncthreads();
    }
}
"#;
        let b = body(src);
        let mut env = ConstEnv::new(16);
        env.bdim[0] = Some(16);
        let flat = unroll_barrier_loops(&b, &env).unwrap();
        let bis = split_bis(&flat).unwrap();
        assert_eq!(bis.len(), 4); // s = 8,4,2,1
    }

    #[test]
    fn symbolic_bound_is_reported() {
        let src = r#"
void k(int *d) {
    for (int s = 1; s < bdim.x; s *= 2) { d[tid.x] += d[s]; __syncthreads(); }
}
"#;
        let b = body(src);
        let env = ConstEnv::new(16); // bdim unknown
        assert!(matches!(
            unroll_barrier_loops(&b, &env),
            Err(IrError::SymbolicLoopBound { .. })
        ));
    }

    #[test]
    fn barrier_under_if_rejected() {
        let b = body("void k(int *d) { if (tid.x < 4) { __syncthreads(); } }");
        assert!(matches!(split_segments(&b), Err(IrError::BarrierDivergence { .. })));
    }

    #[test]
    fn segments_separate_loop() {
        let src = r#"
void k(int *d) {
    d[tid.x] = 0;
    __syncthreads();
    for (int s = 1; s < bdim.x; s *= 2) { d[tid.x] += d[tid.x + s]; __syncthreads(); }
    d[tid.x] = d[0];
}
"#;
        let b = body(src);
        let segs = split_segments(&b).unwrap();
        assert_eq!(segs.len(), 3);
        assert!(matches!(segs[0], Segment::Straight(_)));
        assert!(matches!(segs[1], Segment::Loop { .. }));
        assert!(matches!(segs[2], Segment::Straight(_)));
    }
}
