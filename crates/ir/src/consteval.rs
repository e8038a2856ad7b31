//! Numeric constant evaluation of AST expressions, used to simulate loop
//! headers when unrolling loops that contain barriers (the non-parameterized
//! path needs fully concrete iteration counts).

use pug_cuda::ast::{BinOp, Builtin, Expr, UnOp};
use pug_smt::sort::{mask, to_signed, truncate};
use std::collections::HashMap;

/// Environment for numeric evaluation: known scalar values plus the concrete
/// parts of the launch configuration. `tid`/`bid` are never known here (they
/// differ per thread), so expressions touching them evaluate to `None`.
#[derive(Clone, Debug)]
pub struct ConstEnv {
    pub bits: u32,
    pub vars: HashMap<String, u64>,
    pub bdim: [Option<u64>; 3],
    pub gdim: [Option<u64>; 2],
}

impl ConstEnv {
    /// Environment with no known variables.
    pub fn new(bits: u32) -> ConstEnv {
        ConstEnv { bits, vars: HashMap::new(), bdim: [None; 3], gdim: [None; 2] }
    }

    /// Environment from a concrete configuration.
    pub fn from_config(cfg: &crate::config::GpuConfig) -> ConstEnv {
        use crate::config::Extent;
        let get = |e: Extent| match e {
            Extent::Const(v) => Some(v),
            Extent::Sym => None,
        };
        ConstEnv {
            bits: cfg.bits,
            vars: HashMap::new(),
            bdim: [get(cfg.bdim[0]), get(cfg.bdim[1]), get(cfg.bdim[2])],
            gdim: [get(cfg.gdim[0]), get(cfg.gdim[1])],
        }
    }

    /// Evaluate to a concrete value if every leaf is known.
    pub fn eval(&self, e: &Expr) -> Option<u64> {
        let w = self.bits;
        let v = match e {
            Expr::Int(n) => truncate(*n, w),
            Expr::Bool(b) => u64::from(*b),
            Expr::Ident(name) => *self.vars.get(name)?,
            Expr::Builtin(b) => match b {
                Builtin::Bdim(d) => self.bdim[d.index()]?,
                Builtin::Gdim(d) => self.gdim[d.index().min(1)]?,
                Builtin::Tid(_) | Builtin::Bid(_) => return None,
            },
            Expr::Index { .. } => return None,
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
                // Loop headers in the corpus use non-negative values; signed
                // comparison via the signed reinterpretation keeps C
                // semantics for the general case.
                let (sa, sb) = (to_signed(a, w), to_signed(b, w));
                match op {
                    BinOp::Add => truncate(a.wrapping_add(b), w),
                    BinOp::Sub => truncate(a.wrapping_sub(b), w),
                    BinOp::Mul => truncate(a.wrapping_mul(b), w),
                    BinOp::Div => {
                        if b == 0 {
                            return None;
                        }
                        truncate((sa / sb) as u64, w)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return None;
                        }
                        truncate((sa % sb) as u64, w)
                    }
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    BinOp::Shl => {
                        if b >= w as u64 {
                            0
                        } else {
                            truncate(a << b, w)
                        }
                    }
                    BinOp::Shr => {
                        if b >= w as u64 {
                            0
                        } else {
                            a >> b
                        }
                    }
                    BinOp::Eq => u64::from(a == b),
                    BinOp::Ne => u64::from(a != b),
                    BinOp::Lt => u64::from(sa < sb),
                    BinOp::Le => u64::from(sa <= sb),
                    BinOp::Gt => u64::from(sa > sb),
                    BinOp::Ge => u64::from(sa >= sb),
                    BinOp::And => u64::from(a != 0 && b != 0),
                    BinOp::Or => u64::from(a != 0 || b != 0),
                    BinOp::Imp => u64::from(a == 0 || b != 0),
                }
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
                let (sa, sb) = (to_signed(a, w), to_signed(b, w));
                match name.as_str() {
                    "min" => {
                        if sa < sb {
                            a
                        } else {
                            b
                        }
                    }
                    "max" => {
                        if sa > sb {
                            a
                        } else {
                            b
                        }
                    }
                    _ => return None,
                }
            }
        };
        Some(v & mask(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pug_cuda::parser::parse_expr;

    #[test]
    fn evaluates_loop_bound() {
        let mut env = ConstEnv::new(16);
        env.bdim[0] = Some(8);
        let e = parse_expr("bdim.x / 2").unwrap();
        assert_eq!(env.eval(&e), Some(4));
        let e2 = parse_expr("bdim.x >> 2").unwrap();
        assert_eq!(env.eval(&e2), Some(2));
    }

    #[test]
    fn tid_is_unknown() {
        let env = ConstEnv::new(16);
        let e = parse_expr("tid.x + 1").unwrap();
        assert_eq!(env.eval(&e), None);
    }

    #[test]
    fn wrapping_at_width() {
        let env = ConstEnv::new(8);
        let e = parse_expr("200 + 100").unwrap();
        assert_eq!(env.eval(&e), Some(44));
    }

    #[test]
    fn known_vars() {
        let mut env = ConstEnv::new(16);
        env.vars.insert("k".into(), 4);
        let e = parse_expr("k * 2 < 16").unwrap();
        assert_eq!(env.eval(&e), Some(1));
    }
}
