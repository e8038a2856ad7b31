//! SMT-LIB 2 term printing, for debugging encodings: the debug-assertion
//! model checks and the evaluator's unbound-variable panic print terms
//! with it.

use crate::term::{Ctx, Op, TermId};
use std::fmt::Write;

/// Render one term as an SMT-LIB 2 s-expression.
pub fn term_to_string(ctx: &Ctx, t: TermId) -> String {
    let mut out = String::new();
    write_term(ctx, t, &mut out);
    out
}

fn write_term(ctx: &Ctx, t: TermId, out: &mut String) {
    let args = ctx.args(t);
    match ctx.op(t) {
        Op::True => out.push_str("true"),
        Op::False => out.push_str("false"),
        Op::BvConst { value, width } => {
            let _ = write!(out, "(_ bv{value} {width})");
        }
        Op::Var { name } => out.push_str(&sanitize(ctx.symbol_name(*name))),
        Op::Not => write_app(ctx, "not", args, out),
        Op::And => write_app(ctx, "and", args, out),
        Op::Or => write_app(ctx, "or", args, out),
        Op::Xor => write_app(ctx, "xor", args, out),
        Op::Implies => write_app(ctx, "=>", args, out),
        Op::Ite => write_app(ctx, "ite", args, out),
        Op::Eq => write_app(ctx, "=", args, out),
        Op::BvAdd => write_app(ctx, "bvadd", args, out),
        Op::BvSub => write_app(ctx, "bvsub", args, out),
        Op::BvMul => write_app(ctx, "bvmul", args, out),
        Op::BvUdiv => write_app(ctx, "bvudiv", args, out),
        Op::BvUrem => write_app(ctx, "bvurem", args, out),
        Op::BvNeg => write_app(ctx, "bvneg", args, out),
        Op::BvAnd => write_app(ctx, "bvand", args, out),
        Op::BvOr => write_app(ctx, "bvor", args, out),
        Op::BvXor => write_app(ctx, "bvxor", args, out),
        Op::BvNot => write_app(ctx, "bvnot", args, out),
        Op::BvShl => write_app(ctx, "bvshl", args, out),
        Op::BvLshr => write_app(ctx, "bvlshr", args, out),
        Op::BvAshr => write_app(ctx, "bvashr", args, out),
        Op::BvUlt => write_app(ctx, "bvult", args, out),
        Op::BvUle => write_app(ctx, "bvule", args, out),
        Op::BvSlt => write_app(ctx, "bvslt", args, out),
        Op::BvSle => write_app(ctx, "bvsle", args, out),
        Op::ZeroExt { by } => {
            let _ = write!(out, "((_ zero_extend {by}) ");
            write_term(ctx, args[0], out);
            out.push(')');
        }
        Op::SignExt { by } => {
            let _ = write!(out, "((_ sign_extend {by}) ");
            write_term(ctx, args[0], out);
            out.push(')');
        }
        Op::Extract { hi, lo } => {
            let _ = write!(out, "((_ extract {hi} {lo}) ");
            write_term(ctx, args[0], out);
            out.push(')');
        }
        Op::Concat => write_app(ctx, "concat", args, out),
        Op::Select => write_app(ctx, "select", args, out),
        Op::Store => write_app(ctx, "store", args, out),
    }
}

fn write_app(ctx: &Ctx, name: &str, args: &[TermId], out: &mut String) {
    out.push('(');
    out.push_str(name);
    for &a in args {
        out.push(' ');
        write_term(ctx, a, out);
    }
    out.push(')');
}

fn sanitize(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || "_.!$".contains(c)) {
        name.to_string()
    } else {
        format!("|{name}|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn renders_sexpr() {
        let mut c = Ctx::new();
        let x = c.mk_var("x", Sort::BitVec(8));
        let one = c.mk_bv_const(1, 8);
        let t = c.mk_bv_add(x, one);
        let s = term_to_string(&c, t);
        assert!(s.contains("bvadd"));
        assert!(s.contains("(_ bv1 8)"));
    }

    #[test]
    fn odd_names_are_quoted() {
        assert_eq!(sanitize("a b"), "|a b|");
        assert_eq!(sanitize("sel!1"), "sel!1");
    }
}
