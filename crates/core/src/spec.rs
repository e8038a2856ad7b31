//! Post-hoc evaluation of `postcond` specifications.
//!
//! A post-condition describes the *final* state of the kernel, so it cannot
//! be evaluated while threads are still executing (mid-encoding array
//! versions would be observed instead). Both encoders therefore skip
//! `postcond` during execution and this module re-evaluates the collected
//! specification expressions against the final array terms. Free scalar
//! identifiers in a postcondition are bound to fresh symbols, which makes
//! them universally quantified in the validity check (paper §III).

use crate::error::Error;
use pug_cuda::ast::{walk_stmts, Expr, Stmt};
use pug_cuda::typecheck::TypeInfo;
use pug_ir::{BoundConfig, Env, Machine, StoreMemory};
use pug_smt::{Ctx, Sort, TermId};
use std::collections::HashMap;

/// Collect the expressions of all `postcond` statements in a body.
pub fn collect_postconds(body: &[Stmt]) -> Vec<Expr> {
    walk_stmts(body)
        .filter_map(|s| match s {
            Stmt::Postcond { cond, .. } => Some(cond.clone()),
            _ => None,
        })
        .collect()
}

/// Evaluate postcondition expressions against final array terms. Reads go
/// straight to the provided array terms; the caller resolves any version
/// variables afterwards (parameterized path) or relies on store chains
/// (non-parameterized path).
pub fn eval_postconds(
    ctx: &mut Ctx,
    types: &TypeInfo,
    bound: &BoundConfig,
    finals: &HashMap<String, TermId>,
    postconds: &[Expr],
    tag: &str,
) -> Result<Vec<TermId>, Error> {
    if postconds.is_empty() {
        return Ok(Vec::new());
    }
    let mut mem = StoreMemory::default();
    for (name, &term) in finals {
        mem.insert(name, term);
    }
    // Postconditions are global properties; thread builtins inside them are
    // bound to fresh symbols (universally quantified).
    let w = bound.bits;
    let v = |ctx: &mut Ctx, n: &str| ctx.mk_var(&format!("spec.{n}!{tag}"), Sort::BitVec(w));
    let tid = [v(ctx, "tid.x"), v(ctx, "tid.y"), v(ctx, "tid.z")];
    let bid = [v(ctx, "bid.x"), v(ctx, "bid.y")];
    let mut env = Env::new(tid, bid);

    let mut machine = Machine::new(ctx, &mut mem, bound, types);
    machine.name_prefix = format!("spec!{tag}!");
    let tru = machine.ctx.mk_true();
    let mut out = Vec::new();
    for e in postconds {
        let val = machine.eval(e, &mut env, tru)?;
        let b = val.as_bool(machine.ctx);
        out.push(b);
    }
    Ok(out)
}
