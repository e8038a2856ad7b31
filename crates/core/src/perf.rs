//! Performance-defect checks: shared-memory bank conflicts and
//! non-coalesced global accesses.
//!
//! These are the "performance bugs" of the PUG/GKLEE lineage (Table I;
//! §I lists coalescing and bank-conflict elimination as the optimizations
//! whose *correctness* PUGpara checks — these analyses detect when the
//! optimization is actually needed). Both are parameterized: the thread
//! pairs are symbolic.
//!
//! Model (compute-capability 1.x, as in the paper's CUDA 2.0 era):
//! * 16 shared-memory banks, one 32-bit word wide: bank = address mod 16;
//!   a conflict is two distinct addresses in one half-warp mapping to the
//!   same bank.
//! * A half-warp is 16 consecutive threads by linearized id
//!   `tid.x + tid.y * bdim.x`; a global access is coalesced when thread
//!   `t+1` touches `address(t) + 1`.

use crate::equiv::{segment_scope, CheckOptions, QueryStat};
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::param::{extract_region, thread_range, ExtractOptions};
use crate::resolve::ThreadRef;
use crate::session::Session;
use crate::verdict::{BugKind, BugReport};
use pug_cuda::typecheck::VarInfo;
use pug_ir::{split_bis, GpuConfig};
use pug_smt::{SmtResult, Sort, TermId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Findings of a performance analysis (not verdicts: these are warnings).
#[derive(Clone, Debug)]
pub struct PerfReport {
    pub findings: Vec<BugReport>,
    pub queries: Vec<QueryStat>,
    pub elapsed: Duration,
}

const BANKS: u64 = 16;
const HALF_WARP: u64 = 16;

/// Detect shared-memory bank conflicts, parametrically.
pub fn check_bank_conflicts(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<PerfReport, Error> {
    analyze(unit, cfg, opts, Analysis::BankConflicts)
}

/// Detect non-coalesced global-memory accesses, parametrically.
pub fn check_coalescing(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<PerfReport, Error> {
    analyze(unit, cfg, opts, Analysis::Coalescing)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Analysis {
    BankConflicts,
    Coalescing,
}

fn analyze(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
    which: Analysis,
) -> Result<PerfReport, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let bound = cfg.bind(&mut sess.ctx, "");
    let w = bound.bits;

    let mut findings = Vec::new();
    let segments = pug_ir::split_segments(&unit.kernel.body)?;
    let mut assumptions: Vec<TermId> = bound.constraints.clone();

    for (i, seg) in segments.iter().enumerate() {
        // One symbolic iteration for loop segments, as in the race checker;
        // perf analysis is best-effort, so an unrecognized loop is skipped.
        let Ok(Some(scope)) = segment_scope(&mut sess, &bound, unit, seg, &format!("k!perf{i}"))
        else {
            continue;
        };
        let region = extract_region(
            &mut sess.ctx,
            unit,
            &bound,
            &split_bis(scope.stmts)?,
            ExtractOptions {
                tag: &format!("p{i}"),
                entry_versions: HashMap::new(),
                extra_locals: scope.locals,
                region: format!("seg{i}"),
                concretize: sess.conc.clone(),
            },
        )?;
        assumptions.extend(region.outputs.assumptions.iter().copied());
        let mut extra = scope.membership;
        extra.extend(assumptions.iter().copied());

        // Two symbolic threads of the same block.
        let bid =
            ["bx", "by"].map(|c| sess.ctx.mk_var(&format!("p.{c}!perf{i}"), Sort::BitVec(w)));
        let t1 = ThreadRef::in_block(&mut sess.ctx, w, bid, |c| format!("p1.{c}!perf{i}"));
        let t2 = ThreadRef::in_block(&mut sess.ctx, w, bid, |c| format!("p2.{c}!perf{i}"));
        let r1 = thread_range(&mut sess.ctx, &bound, t1.tid, t1.bid);
        let r2 = thread_range(&mut sess.ctx, &bound, t2.tid, t2.bid);
        let canonical = region.thread;

        // Linearized thread ids and the same-half-warp / successor shapes.
        let lin = |sess: &mut Session, t: ThreadRef| -> TermId {
            let m = sess.ctx.mk_bv_mul(t.tid[1], bound.bdim[0]);
            sess.ctx.mk_bv_add(t.tid[0], m)
        };
        let lin1 = lin(&mut sess, t1);
        let lin2 = lin(&mut sess, t2);
        let hw = sess.ctx.mk_bv_const(HALF_WARP, w);
        let warp1 = sess.ctx.mk_bv_udiv(lin1, hw);
        let warp2 = sess.ctx.mk_bv_udiv(lin2, hw);
        let same_half_warp = sess.ctx.mk_eq(warp1, warp2);
        let one = sess.ctx.mk_bv_const(1, w);
        let lin1p = sess.ctx.mk_bv_add(lin1, one);
        let successors = sess.ctx.mk_eq(lin1p, lin2);

        sess.enter_seg(&format!("bi:{i}"));
        let mut reported: Vec<String> = Vec::new();
        for a in &region.log {
            let info = unit.types.vars.get(&a.array);
            let is_shared = matches!(info, Some(VarInfo::SharedArray { .. }));
            let is_global = matches!(info, Some(VarInfo::GlobalArray { .. }));
            let relevant = match which {
                Analysis::BankConflicts => is_shared,
                Analysis::Coalescing => is_global,
            };
            if !relevant || reported.contains(&a.array) {
                continue;
            }
            let addr1 = canonical.subst(&mut sess.ctx, a.index, t1);
            let g1 = canonical.subst(&mut sess.ctx, a.guard, t1);
            let addr2 = canonical.subst(&mut sess.ctx, a.index, t2);
            let g2 = canonical.subst(&mut sess.ctx, a.guard, t2);

            let mut asserts = extra.clone();
            asserts.extend([r1, r2, g1, g2]);
            let label = match which {
                Analysis::BankConflicts => {
                    let banks = sess.ctx.mk_bv_const(BANKS, w);
                    let b1 = sess.ctx.mk_bv_urem(addr1, banks);
                    let b2 = sess.ctx.mk_bv_urem(addr2, banks);
                    let same_bank = sess.ctx.mk_eq(b1, b2);
                    let diff_addr = sess.ctx.mk_neq(addr1, addr2);
                    asserts.extend([same_half_warp, same_bank, diff_addr]);
                    format!("bank-conflict[{}#{i}]", a.array)
                }
                Analysis::Coalescing => {
                    let addr1p = sess.ctx.mk_bv_add(addr1, one);
                    let non_contiguous = sess.ctx.mk_neq(addr1p, addr2);
                    asserts.extend([same_half_warp, successors, non_contiguous]);
                    format!("non-coalesced[{}#{i}]", a.array)
                }
            };
            let goal = sess.ctx.mk_false();
            match sess.query(&label, &asserts, goal) {
                SmtResult::Unsat => {}
                SmtResult::Unknown => break,
                SmtResult::Sat(model) => {
                    let kind = match which {
                        Analysis::BankConflicts => BugKind::BankConflict,
                        Analysis::Coalescing => BugKind::NonCoalesced,
                    };
                    let what = match which {
                        Analysis::BankConflicts => "bank conflict on",
                        Analysis::Coalescing => "non-coalesced access to",
                    };
                    findings.push(BugReport::new(
                        kind,
                        format!("{what} `{}` (segment {i})", a.array),
                        model,
                        &sess.ctx,
                    ));
                    reported.push(a.array.clone());
                }
            }
        }
        sess.exit_seg();
    }
    Ok(PerfReport { findings, queries: sess.take_queries(), elapsed: started.elapsed() })
}
