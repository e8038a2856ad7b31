//! Post-condition and assertion checking — the paper's property-checking
//! mode (§III "The Assertion Language", §IV-A).
//!
//! `postcond(e)` describes the final state; free scalars in `e` are
//! implicitly universally quantified. The non-parameterized checker unrolls
//! a concrete configuration; the parameterized checker resolves the
//! postcondition's array reads through instantiated CA chains exactly like
//! the equivalence checker, so the property is established for an arbitrary
//! number of threads.

use crate::equiv::{CheckOptions, Mode, Report};
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::param::{extract_region, thread_range, ExtractOptions};
use crate::resolve::{Resolver, ThreadRef};
use crate::session::Session;
use crate::verdict::{BugKind, BugReport, Soundness, Verdict};
use crate::witness::{obligation_check, Coverage};
use pug_ir::{split_bis, GpuConfig, Segment};
use pug_smt::SmtResult;
use std::collections::HashMap;
use std::time::Instant;

/// Check `postcond`/`assert` statements under a concrete configuration
/// (§III encoding).
pub fn check_postcondition_nonparam(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let enc = crate::nonparam::encode_with(&mut sess.ctx, unit, cfg, "s", &opts.concretize)?;

    let mut premises = enc.config_constraints.clone();
    premises.extend(enc.assumptions.iter().copied());
    let mut goals = enc.postconds.clone();
    goals.extend(enc.asserts.iter().copied());
    if goals.is_empty() {
        return Err(Error::BadConfig {
            detail: format!("kernel `{}` has no postcond/assert to check", unit.kernel.name),
        });
    }
    let goal = sess.ctx.mk_and_many(&goals);
    let verdict = match sess.query("postcond(nonparam)", &premises, goal) {
        SmtResult::Unsat => Verdict::Verified(Soundness::Sound),
        SmtResult::Unknown => Verdict::Timeout,
        SmtResult::Sat(model) => Verdict::Bug(BugReport::new(
            BugKind::AssertionViolation,
            format!("a postcondition/assertion of `{}` fails", unit.kernel.name),
            model,
            &sess.ctx,
        )),
    };
    Ok(sess.take_report(verdict, started))
}

/// Check `postcond`/`assert` statements parametrically (§IV encoding).
/// Loop-bearing kernels need concretization ("+C." through
/// [`CheckOptions::concretized`]) or the non-parameterized path.
pub fn check_postcondition_param(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let bound = cfg.bind(&mut sess.ctx, "");

    let segs = pug_ir::split_segments(&unit.kernel.body)?;
    if segs.iter().any(|s| matches!(s, Segment::Loop { .. })) {
        return Err(Error::Ir(pug_ir::IrError::SymbolicLoopBound {
            detail: "parameterized postcondition checking needs loop-free kernels; \
                     concretize the configuration or use the non-parameterized checker"
                .into(),
        }));
    }
    let bis = split_bis(&unit.kernel.body)?;
    let region = extract_region(
        &mut sess.ctx,
        unit,
        &bound,
        &bis,
        ExtractOptions {
            tag: "s",
            entry_versions: HashMap::new(),
            extra_locals: vec![],
            region: String::new(),
            concretize: sess.conc.clone(),
        },
    )?;

    // Evaluate specs against the final versions, then resolve the version
    // reads through CA chains.
    let postcond_exprs = crate::spec::collect_postconds(&unit.kernel.body);
    let raw = crate::spec::eval_postconds(
        &mut sess.ctx,
        &unit.types,
        &bound,
        &region.finals,
        &postcond_exprs,
        "s",
    )?;
    let mut raw_goals = raw;
    raw_goals.extend(region.outputs.asserts.iter().copied());
    if raw_goals.is_empty() {
        return Err(Error::BadConfig {
            detail: format!("kernel `{}` has no postcond/assert to check", unit.kernel.name),
        });
    }

    let (resolved, premises, obligations) = {
        let observer = ThreadRef::named(&mut sess.ctx, bound.bits, |c| format!("obs.{c}"));
        let mut r = Resolver::new(&mut sess.ctx, &region, "s");
        r.cover_all_reads = true;
        let tru = r.ctx.mk_true();
        let resolved: Vec<_> =
            raw_goals.iter().map(|&g| r.resolve(g, observer, tru)).collect();
        let mut premises = bound.constraints.clone();
        premises.extend(region.outputs.assumptions.iter().copied());
        // In-body asserts are phrased over the canonical thread: they must
        // hold for every *valid* thread, so its range is a premise.
        premises.push(region.range);
        premises.extend(r.all_premises());
        let range = thread_range(r.ctx, &bound, observer.tid, observer.bid);
        premises.push(range);
        (resolved, premises, r.obligations)
    };

    let goal = sess.ctx.mk_and_many(&resolved);
    match sess.query("postcond(param)", &premises, goal) {
        SmtResult::Unsat => {}
        SmtResult::Unknown => return Ok(sess.take_report(Verdict::Timeout, started)),
        SmtResult::Sat(model) => {
            let v = Verdict::Bug(BugReport::new(
                BugKind::AssertionViolation,
                format!("a postcondition/assertion of `{}` fails", unit.kernel.name),
                model,
                &sess.ctx,
            ));
            return Ok(sess.take_report(v, started));
        }
    }

    // Read-coverage obligations (prove mode): postconditions may read
    // output cells no thread wrote.
    if sess.mode() == Mode::Prove {
        for ob in &obligations {
            match obligation_check(&mut sess, &bound, ob, region.thread.tid[0], &premises) {
                Coverage::Proven => {}
                Coverage::Timeout => return Ok(sess.take_report(Verdict::Timeout, started)),
                Coverage::Unproven(model) if ob.uninit_base => {
                    let v = Verdict::Bug(BugReport::new(
                        BugKind::CoverageMismatch,
                        format!(
                            "a read of `{}` hits a cell no thread is witnessed to write (hidden \
                             configuration assumption violated)",
                            ob.array
                        ),
                        model,
                        &sess.ctx,
                    ));
                    return Ok(sess.take_report(v, started));
                }
                // Input-backed read without a witnessed writer: the
                // property was only checked on covered cells.
                Coverage::Unproven(_) => sess.soundness = Soundness::UnderApprox,
            }
        }
    }

    let soundness = sess.soundness;
    Ok(sess.take_report(Verdict::Verified(soundness), started))
}
