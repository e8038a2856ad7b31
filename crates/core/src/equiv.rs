//! Functional equivalence checking of a kernel and its optimized version —
//! the paper's headline application (§II, §IV-B, §V).
//!
//! Two encoders are provided:
//!
//! * [`check_equivalence_nonparam`] — the §III baseline: both kernels are
//!   serialized for a *concrete* thread count and the final arrays compared
//!   at a fresh symbolic index. Complete for that configuration, blows up
//!   with n.
//! * [`check_equivalence_param`] — the §IV contribution: one symbolic
//!   thread per kernel. Output cells are resolved through instantiated CA
//!   chains; kernels with structure-preserved loops are compared body-wise
//!   after loop alignment (§IV-E). Three query families are issued:
//!   1. **value** — on cells covered by both kernels, the written values
//!      agree (bugs found here are always real);
//!   2. **output coverage** — the two kernels write the same cell set,
//!      proven by witness correspondences between their threads;
//!   3. **read coverage** — every shared-memory read is covered by a
//!      writer, exposing hidden configuration assumptions (the non-square
//!      Transpose block of §IV-B).
//!
//! In [`Mode::FastBugHunt`] families 2–3 are skipped (the paper's §IV-D
//! fast bug hunting: reported bugs are real, proofs are under-approximate).

use crate::cache::QueryCache;
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::param::{extract_region, thread_range, ExtractOptions, ParamRegion};
use crate::resolve::{CoverageObligation, ResolvedOutput, Resolver, ThreadRef};
use crate::session::Session;
use crate::verdict::{BugKind, BugReport, Soundness, Verdict};
use crate::witness::{self, obligation_check, Coverage};
use pug_cuda::ast::{walk_stmts, BinOp, Builtin, Expr, Stmt};
use pug_cuda::typecheck::VarInfo;
use pug_ir::{
    align_headers, normalize_header, split_bis, Alignment, BoundConfig, GpuConfig, LoopSpace,
    Segment,
};
use pug_obs::{MetricsRegistry, TraceSpan};
use pug_smt::{CancelToken, CheckStats, SimplifyConfig, SmtResult, Sort, TermId};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Checking mode (paper §IV-A / §IV-D).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// Discharge coverage obligations too; a `Verified(Sound)` verdict is a
    /// proof (when witnesses succeed).
    #[default]
    Prove,
    /// Only the value queries — locate property violations quickly by
    /// ignoring the quantified formulas.
    FastBugHunt,
}

/// An engine stage replaced by the simpler reference path that its
/// differential suite checks the default against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ablation {
    /// A fresh solver per query instead of one persistent
    /// [`SolveSession`](pug_smt::SolveSession).
    OneShot,
    /// No SAT pre/inprocessing: queries solve the raw blasted CNF.
    NoSimplify,
    /// No term canonicalization (`pug_smt::normalize`) and so no
    /// obligation discharged by rewriting.
    NoNormalize,
}

/// The engine of one check: per-check resource caps and the ablated
/// stages. [`CheckOptions`] and [`crate::runner::RunnerOptions`] both embed
/// it, and the runner hands its copy to every rung and aux pass unchanged.
/// The default is the production engine with no caps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineConfig {
    /// SAT conflict cap per query.
    pub max_conflicts: Option<u64>,
    /// Memory cap on the SAT clause database, in bytes of literal storage.
    pub max_clause_bytes: Option<usize>,
    /// Memory cap on hash-consed term nodes in the SMT context.
    pub max_term_nodes: Option<usize>,
    /// One bit per [`Ablation`].
    ablations: u8,
}

impl EngineConfig {
    /// Is stage `a` replaced by its reference path?
    pub fn ablated(&self, a: Ablation) -> bool {
        self.ablations & (1 << a as u8) != 0
    }

    /// Replace stage `a` by its reference path.
    pub fn ablate(mut self, a: Ablation) -> EngineConfig {
        self.ablations |= 1 << a as u8;
        self
    }

    /// SAT pre/inprocessing settings for this engine.
    pub(crate) fn sat_config(&self) -> SimplifyConfig {
        if self.ablated(Ablation::NoSimplify) {
            SimplifyConfig::off()
        } else {
            SimplifyConfig::default()
        }
    }
}

/// Options shared by all checkers.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Wall-clock budget for the whole check (all queries share it); the
    /// paper used 5 minutes ("T.O" beyond that). It starts when the check
    /// does: each check becomes a deadline on a child of
    /// [`cancel`](CheckOptions::cancel).
    pub timeout: Option<Duration>,
    /// Prove vs fast-bug-hunt.
    pub mode: Mode,
    /// The paper's "+C." flag: scalar parameters to pin to concrete values.
    pub concretize: HashMap<String, u64>,
    /// Cooperative cancellation: tripping this token (from a supervising
    /// thread) or passing its deadline makes every layer of the pipeline
    /// yield `Unknown` within a bounded amount of work.
    pub cancel: CancelToken,
    /// Resource caps and ablated stages.
    pub engine: EngineConfig,
    /// Cross-rung cache of discharged obligations, shared by the rungs of
    /// one ladder run (and by every job of the `pug-serve` daemon); `None`
    /// disables caching.
    pub query_cache: Option<QueryCache>,
    /// Parent trace span: every query/segment span of this check opens
    /// under it. [`TraceSpan::disabled`] (the default) records nothing and
    /// costs one branch per query.
    pub trace: TraceSpan,
    /// Metrics registry fed by the check's queries (solver counters, cache
    /// hits, CA instantiations). Disabled by default.
    pub metrics: MetricsRegistry,
}

impl CheckOptions {
    /// With a wall-clock budget.
    pub fn with_timeout(timeout: Duration) -> CheckOptions {
        CheckOptions { timeout: Some(timeout), ..CheckOptions::default() }
    }

    /// Add a concretized parameter (the paper's "+C.").
    pub fn concretized(mut self, name: &str, value: u64) -> CheckOptions {
        self.concretize.insert(name.to_string(), value);
        self
    }

    /// Switch to fast bug hunting.
    pub fn fast_bug_hunt(mut self) -> CheckOptions {
        self.mode = Mode::FastBugHunt;
        self
    }

    /// Attach a cross-rung query cache.
    pub fn with_query_cache(mut self, cache: QueryCache) -> CheckOptions {
        self.query_cache = Some(cache);
        self
    }

    /// Replace engine stage `a` by its reference path.
    pub fn ablate(mut self, a: Ablation) -> CheckOptions {
        self.engine = self.engine.ablate(a);
        self
    }
}

/// Statistics of one SMT query issued during a check.
#[derive(Clone, Debug)]
pub struct QueryStat {
    pub label: String,
    pub outcome: String,
    pub duration: Duration,
    pub stats: CheckStats,
}

/// The full result of a check: verdict plus per-query statistics.
#[derive(Clone, Debug)]
pub struct Report {
    pub verdict: Verdict,
    pub queries: Vec<QueryStat>,
    pub elapsed: Duration,
}

impl Report {
    /// Total SMT solving time across queries.
    pub fn solver_time(&self) -> Duration {
        self.queries.iter().map(|q| q.duration).sum()
    }
}

/// Internal control flow: `Some` means stop with this verdict.
type Stop = Option<Verdict>;

// ---------------------------------------------------------------------------
// Non-parameterized equivalence (§III)
// ---------------------------------------------------------------------------

/// Check equivalence with the §III encoding for a concrete configuration.
pub fn check_equivalence_nonparam(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let enc_s = crate::nonparam::encode_with(&mut sess.ctx, src, cfg, "s", &opts.concretize)?;
    let enc_t = crate::nonparam::encode_with(&mut sess.ctx, tgt, cfg, "t", &opts.concretize)?;

    let mut premises = enc_s.config_constraints.clone();
    premises.extend(enc_s.assumptions.iter().copied());
    premises.extend(enc_t.assumptions.iter().copied());

    let mut outputs: Vec<String> = enc_s.written.clone();
    outputs.extend(enc_t.written.iter().cloned());
    outputs.sort();
    outputs.dedup();

    let mut goals = Vec::new();
    for name in &outputs {
        let k = sess.ctx.fresh_var(&format!("k!{name}"), Sort::BitVec(cfg.bits));
        let fs = enc_s.final_arrays[name];
        let ft = enc_t.final_arrays[name];
        let ss = sess.ctx.mk_select(fs, k);
        let st = sess.ctx.mk_select(ft, k);
        goals.push(sess.ctx.mk_eq(ss, st));
    }
    let goal = sess.ctx.mk_and_many(&goals);

    let verdict = match sess.query("equivalence(nonparam)", &premises, goal) {
        SmtResult::Unsat => Verdict::Verified(Soundness::Sound),
        SmtResult::Unknown => Verdict::Timeout,
        SmtResult::Sat(model) => Verdict::Bug(BugReport::new(
            BugKind::EquivalenceMismatch,
            format!(
                "outputs of `{}` and `{}` differ under the witness configuration",
                src.kernel.name, tgt.kernel.name
            ),
            model,
            &sess.ctx,
        )),
    };
    Ok(sess.take_report(verdict, started))
}

// ---------------------------------------------------------------------------
// Parameterized equivalence (§IV)
// ---------------------------------------------------------------------------

/// Check equivalence with the parameterized encoding (arbitrary thread
/// count; the configuration may be symbolic or partially concretized).
pub fn check_equivalence_param(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let bound = cfg.bind(&mut sess.ctx, "");

    let segs_s = pug_ir::split_segments(&src.kernel.body)?;
    let segs_t = pug_ir::split_segments(&tgt.kernel.body)?;
    let loops = |segs: &[Segment]| segs.iter().any(|s| matches!(s, Segment::Loop { .. }));

    let verdict = if !loops(&segs_s) && !loops(&segs_t) {
        whole_kernel_equiv(&mut sess, src, tgt, &bound)?
    } else {
        lockstep_equiv(&mut sess, src, tgt, &bound, &segs_s, &segs_t)?
    };
    let verdict = match verdict {
        Some(v) => v,
        None => Verdict::Verified(sess.soundness),
    };
    Ok(sess.take_report(verdict, started))
}

fn whole_kernel_equiv(
    sess: &mut Session,
    src: &KernelUnit,
    tgt: &KernelUnit,
    bound: &BoundConfig,
) -> Result<Stop, Error> {
    let bis_s = split_bis(&src.kernel.body)?;
    let bis_t = split_bis(&tgt.kernel.body)?;
    let region_s = extract_region(
        &mut sess.ctx,
        src,
        bound,
        &bis_s,
        ExtractOptions {
            tag: "s",
            entry_versions: HashMap::new(),
            extra_locals: vec![],
            region: String::new(),
            concretize: sess.conc.clone(),
        },
    )?;
    let region_t = extract_region(
        &mut sess.ctx,
        tgt,
        bound,
        &bis_t,
        ExtractOptions {
            tag: "t",
            entry_versions: HashMap::new(),
            extra_locals: vec![],
            region: String::new(),
            concretize: sess.conc.clone(),
        },
    )?;

    let mut outputs = src.written_globals();
    outputs.extend(tgt.written_globals());
    outputs.sort();
    outputs.dedup();

    let mut base = bound.constraints.clone();
    base.extend(region_s.outputs.assumptions.iter().copied());
    base.extend(region_t.outputs.assumptions.iter().copied());

    // Every query of this check carries `base` — commit it once.
    sess.commit_prefix(&base);
    compare_regions(sess, bound, &region_s, &region_t, &outputs, &base, &[])
}

/// The term-level plan for one output array's obligations: everything
/// [`check_array`] needs, built by [`resolve_array`].
struct ArrayPlan {
    array: String,
    k: TermId,
    out_s: ResolvedOutput,
    out_t: ResolvedOutput,
    prem_s: Vec<TermId>,
    prem_t: Vec<TermId>,
    obs_s: Vec<CoverageObligation>,
    obs_t: Vec<CoverageObligation>,
}

/// Build the [`ArrayPlan`] for `array`: fresh comparison index, one shared
/// observer thread, both sides' CA-chain resolution and the observer-range
/// premises. This is the only part of an array's check that allocates
/// fresh variables (`k!…`, `obs!…`, resolver internals); the query goals
/// themselves are built in [`check_array`].
fn resolve_array(
    sess: &mut Session,
    bound: &BoundConfig,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    array: &str,
) -> ArrayPlan {
    let k = sess.ctx.fresh_var(&format!("k!{array}"), Sort::BitVec(bound.bits));
    // One shared observer per output array: per-block shared memory is
    // compared block-for-block within the observer's (symbolic) block.
    let observer = ThreadRef::named(&mut sess.ctx, bound.bits, |c| format!("obs!{array}.{c}"));
    let mut resolve = |region, tag| {
        let mut r = Resolver::new(&mut sess.ctx, region, tag);
        let o = r.resolve_output(array, k, observer);
        (o, r.all_premises(), r.obligations)
    };
    let (out_s, mut prem_s, obs_s) = resolve(region_s, "s");
    let (out_t, mut prem_t, obs_t) = resolve(region_t, "t");
    // The observer must be a real thread; its range joins every premise
    // set for this array (value, asymmetry, coverage, obligations).
    let observer_range = thread_range(&mut sess.ctx, bound, observer.tid, observer.bid);
    prem_s.push(observer_range);
    prem_t.push(observer_range);
    ArrayPlan { array: array.to_string(), k, out_s, out_t, prem_s, prem_t, obs_s, obs_t }
}

/// Run all query families for one planned array: value, asymmetric
/// writes, output coverage and read-coverage obligations. `Ok(None)`
/// means the array is clean; anything else is decisive for the check.
#[allow(clippy::too_many_arguments)]
fn check_array(
    sess: &mut Session,
    bound: &BoundConfig,
    plan: &ArrayPlan,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    base: &[TermId],
    extra: &[TermId],
) -> Result<Stop, Error> {
    let ArrayPlan { array, k, out_s, out_t, prem_s, prem_t, obs_s, obs_t } = plan;
    let k = *k;

    // ---- value query: co-covered cells get equal values ----
    if !out_s.insts.is_empty() && !out_t.insts.is_empty() {
        let premises = [base, extra, prem_s, prem_t, &[out_s.cover, out_t.cover]].concat();
        let goal = sess.ctx.mk_eq(out_s.value, out_t.value);
        match sess.query(&format!("value[{array}]"), &premises, goal) {
            SmtResult::Unsat => {}
            SmtResult::Unknown => return Ok(Some(Verdict::Timeout)),
            SmtResult::Sat(model) => {
                return Ok(Some(Verdict::Bug(BugReport::new(
                    BugKind::EquivalenceMismatch,
                    format!("kernels write different values to `{array}` at the witness index"),
                    model,
                    &sess.ctx,
                ))))
            }
        }
    }

    if sess.mode() == Mode::FastBugHunt {
        return Ok(None);
    }

    // ---- asymmetric writes: one side writes, the other never does ----
    for (name, out, prem, other_writes) in [
        ("s", out_s, prem_s, !out_t.insts.is_empty()),
        ("t", out_t, prem_t, !out_s.insts.is_empty()),
    ] {
        if !out.insts.is_empty() && !other_writes {
            // The other kernel leaves `array[k]` at its entry value.
            let entry = region_s.entries.get(array).copied().unwrap_or_else(|| {
                region_t.entries[array]
            });
            let premises = [base, extra, prem, &[out.cover]].concat();
            let old = sess.ctx.mk_select(entry, k);
            let goal = sess.ctx.mk_eq(out.value, old);
            match sess.query(&format!("asym[{array},{name}]"), &premises, goal) {
                SmtResult::Unsat => {}
                SmtResult::Unknown => return Ok(Some(Verdict::Timeout)),
                SmtResult::Sat(model) => {
                    return Ok(Some(Verdict::Bug(BugReport::new(
                        BugKind::EquivalenceMismatch,
                        format!(
                            "kernel `{name}` modifies `{array}` at a cell the other kernel never writes"
                        ),
                        model,
                        &sess.ctx,
                    ))))
                }
            }
        }
    }

    // ---- output coverage: same cell set, via witness correspondences ----
    if !out_s.insts.is_empty() && !out_t.insts.is_empty() {
        for (dir, from, from_prem, to, to_region) in [
            ("s->t", out_s, prem_s, out_t, region_t),
            ("t->s", out_t, prem_t, out_s, region_s),
        ] {
            // Every cell `from` covers is covered by `to`: per writer of
            // `from`, some witness writer of `to`.
            let context = [base, extra, from_prem].concat();
            let (tau_x, label) = (to_region.thread.tid[0], |kind| format!("coverage[{kind:?}]"));
            for inst in &from.insts {
                let premises = [&context[..], &[inst.cond]].concat();
                match witness::search(
                    sess, bound, &to.insts, tau_x, inst.thread, k, &premises, label,
                ) {
                    Coverage::Proven => {}
                    Coverage::Timeout => return Ok(Some(Verdict::Timeout)),
                    Coverage::Unproven(model) => {
                        // A failed witness is not a proof of a bug for
                        // arbitrary kernels, but the model exhibits a cell
                        // covered by one kernel with no witnessed writer in
                        // the other — report it (the paper reports the
                        // analogous non-square-block case as a bug).
                        return Ok(Some(Verdict::Bug(BugReport::new(
                            BugKind::CoverageMismatch,
                            format!(
                                "output coverage of `{array}` differs ({dir}); \
                                 no thread correspondence witness covers the shown cell"
                            ),
                            model,
                            &sess.ctx,
                        ))));
                    }
                }
            }
        }
    }

    // ---- read coverage obligations (hidden assumptions) ----
    for (tag, obs, prem, region) in
        [("s", obs_s, prem_s, region_s), ("t", obs_t, prem_t, region_t)]
    {
        let context = [base, extra, prem].concat();
        for ob in obs {
            match obligation_check(sess, bound, ob, region.thread.tid[0], &context) {
                Coverage::Proven => {}
                Coverage::Timeout => return Ok(Some(Verdict::Timeout)),
                Coverage::Unproven(model) => {
                    return Ok(Some(Verdict::Bug(BugReport::new(
                        BugKind::CoverageMismatch,
                        format!(
                            "kernel `{tag}` reads `{}` at a cell no thread is witnessed \
                             to write — a hidden configuration assumption is violated \
                             (cf. the non-square Transpose block, paper §IV-B)",
                            ob.array
                        ),
                        model,
                        &sess.ctx,
                    ))));
                }
            }
        }
    }
    Ok(None)
}

/// Compare two extracted regions on the given output arrays, one array
/// after another in one solver context: each array is resolved, then its
/// value and coverage obligations are discharged, and the first decisive
/// outcome (bug, timeout) stops the comparison.
fn compare_regions(
    sess: &mut Session,
    bound: &BoundConfig,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    outputs: &[String],
    base: &[TermId],
    extra: &[TermId],
) -> Result<Stop, Error> {
    for array in outputs {
        let plan = resolve_array(sess, bound, region_s, region_t, array);
        sess.note_ca_chain(
            &plan.array,
            plan.out_s.insts.len(),
            plan.out_t.insts.len(),
            plan.obs_s.len() + plan.obs_t.len(),
        );
        if let Some(v) = check_array(sess, bound, &plan, region_s, region_t, base, extra)? {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Lockstep (loop-aligned) equivalence — §IV-E
// ---------------------------------------------------------------------------

fn lockstep_equiv(
    sess: &mut Session,
    src: &KernelUnit,
    tgt: &KernelUnit,
    bound: &BoundConfig,
    segs_s: &[Segment],
    segs_t: &[Segment],
) -> Result<Stop, Error> {
    if segs_s.len() != segs_t.len() {
        return Err(Error::AlignmentFailed {
            detail: format!(
                "segment counts differ: {} vs {}",
                segs_s.len(),
                segs_t.len()
            ),
        });
    }
    let w = bound.bits;
    let sort = Sort::Array { index: w, elem: w };

    // All arrays (globals by name; shared arrays must match by name).
    let mut arrays = src.global_arrays();
    arrays.extend(src.shared_arrays());
    {
        let mut t_arrays = tgt.global_arrays();
        t_arrays.extend(tgt.shared_arrays());
        let mut a = arrays.clone();
        a.sort();
        let mut b = t_arrays;
        b.sort();
        if a != b {
            return Err(Error::AlignmentFailed {
                detail: "kernels declare different array sets; lockstep comparison needs \
                         matching names"
                    .into(),
            });
        }
    }

    // `requires`/`assume` facts are configuration-level and accumulate
    // across segments (they are typically stated at the top of the kernel,
    // i.e. inside segment 0).
    let mut accumulated: Vec<TermId> = bound.constraints.clone();

    for (i, (ss, ts)) in segs_s.iter().zip(segs_t.iter()).enumerate() {
        // One solve-session epoch per segment: later segments never query
        // this segment's region premises again, so carrying their gate
        // clauses forward would only tax every later propagation.
        sess.begin_epoch();
        sess.enter_seg(&format!("bi:{i}"));
        // Segment-entry state: shared between the two kernels (the
        // inductive hypothesis). Kernel-entry shared memory stays
        // uninitialized per kernel.
        let mut entries: HashMap<String, TermId> = HashMap::new();
        for name in &arrays {
            let is_shared_mem = src.shared_arrays().contains(name);
            if i == 0 && is_shared_mem {
                continue; // uninitialized at kernel entry
            }
            let t = sess.ctx.mk_var(&format!("{name}@seg{i}"), sort);
            entries.insert(name.clone(), t);
        }

        // Straight code is one barrier interval. Loops are compared body
        // to body after header alignment, both loop variables bound to one
        // fresh `k` of the iteration space (the `extra` premises).
        let mut extra = Vec::new();
        let (bis_s, bis_t, locals_s, locals_t) = match (ss, ts) {
            (Segment::Straight(a), Segment::Straight(b)) => {
                (vec![a.clone()], vec![b.clone()], vec![], vec![])
            }
            (
                Segment::Loop { init: i_s, cond: c_s, update: u_s, body: b_s, .. },
                Segment::Loop { init: i_t, cond: c_t, update: u_t, body: b_t, .. },
            ) => {
                let h_s = normalize_header(i_s, c_s, u_s).ok_or_else(|| Error::AlignmentFailed {
                    detail: "source loop header is not in a recognized form".into(),
                })?;
                let h_t = normalize_header(i_t, c_t, u_t).ok_or_else(|| Error::AlignmentFailed {
                    detail: "target loop header is not in a recognized form".into(),
                })?;
                let alignment =
                    align_headers(&h_s, &h_t).ok_or_else(|| Error::AlignmentFailed {
                        detail: format!(
                            "loop headers do not align: {:?} vs {:?}",
                            h_s.space, h_t.space
                        ),
                    })?;
                let kvar = sess.ctx.mk_var(&format!("k!seg{i}"), Sort::BitVec(w));
                let params = scalar_params(&[src, tgt]);
                match &alignment {
                    Alignment::SameOrder => {
                        extra.push(space_constraint(sess, bound, &h_s.space, kvar, &params)?);
                    }
                    Alignment::Reversed { pow2_bound } => {
                        // Reversed traversal: sound only for commutative-
                        // associative accumulation, and the bound must be a
                        // power of two (else the iteration sets differ).
                        if !(all_writes_accumulate(b_s, src) && all_writes_accumulate(b_t, tgt)) {
                            return Err(Error::AlignmentFailed {
                                detail: "reversed loop order needs += accumulation bodies".into(),
                            });
                        }
                        sess.soundness = Soundness::UnderApprox;
                        let bterm = lower_config_expr(sess, bound, pow2_bound, &params)?;
                        let [nz, pow2] = pow2_constraint(sess, bterm);
                        extra.push(sess.ctx.mk_and(nz, pow2));
                        extra.push(space_constraint(
                            sess,
                            bound,
                            &LoopSpace::GeometricUp {
                                start: Expr::Int(1),
                                bound: pow2_bound.clone(),
                                ratio: 2,
                            },
                            kvar,
                            &params,
                        )?);
                    }
                }
                let locals_s = vec![(h_s.var.clone(), kvar, false)];
                let locals_t = vec![(h_t.var.clone(), kvar, false)];
                (split_bis(b_s)?, split_bis(b_t)?, locals_s, locals_t)
            }
            _ => {
                return Err(Error::AlignmentFailed {
                    detail: format!("segment {i} kinds differ (straight vs loop)"),
                })
            }
        };
        let region_s = extract_region(
            &mut sess.ctx,
            src,
            bound,
            &bis_s,
            ExtractOptions {
                tag: &format!("s{i}"),
                entry_versions: entries.clone(),
                extra_locals: locals_s,
                region: format!("seg{i}"),
                concretize: sess.conc.clone(),
            },
        )?;
        let region_t = extract_region(
            &mut sess.ctx,
            tgt,
            bound,
            &bis_t,
            ExtractOptions {
                tag: &format!("t{i}"),
                entry_versions: entries,
                extra_locals: locals_t,
                region: format!("seg{i}"),
                concretize: sess.conc.clone(),
            },
        )?;
        let outputs = written_in_regions(&region_s, &region_t);
        accumulated.extend(region_s.outputs.assumptions.iter().copied());
        accumulated.extend(region_t.outputs.assumptions.iter().copied());
        let base = accumulated.clone();
        // `accumulated` only ever grows, so each segment's base is
        // contained in every later segment's queries — safe to commit
        // incrementally (the delta is the new assumptions). The `extra`
        // premises are per-segment and must stay retractable.
        sess.commit_prefix(&base);
        if let Some(v) =
            compare_regions(sess, bound, &region_s, &region_t, &outputs, &base, &extra)?
        {
            return Ok(Some(v));
        }
        sess.exit_seg();
    }
    Ok(None)
}

/// Arrays written in either region (their finals differ from entries).
fn written_in_regions(a: &ParamRegion, b: &ParamRegion) -> Vec<String> {
    let mut out = Vec::new();
    for r in [a, b] {
        for (name, &f) in &r.finals {
            if r.entries.get(name) != Some(&f) {
                out.push(name.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Syntactic check: every assignment to an array in `body` is `+=`.
fn all_writes_accumulate(body: &[Stmt], unit: &KernelUnit) -> bool {
    walk_stmts(body).all(|s| match s {
        Stmt::Assign { lhs, op, .. } => {
            let is_array = matches!(
                unit.types.vars.get(&lhs.name),
                Some(VarInfo::GlobalArray { .. })
                    | Some(VarInfo::SharedArray { .. })
                    | Some(VarInfo::LocalArray { .. })
            );
            !is_array || *op == Some(BinOp::Add)
        }
        _ => true,
    })
}

/// Names of the scalar kernel parameters of `units` — the only identifiers
/// [`lower_config_expr`] may treat as loop bounds (locals are SSA-renamed
/// by the symbolic lowering and have no stable name to bind to).
pub(crate) fn scalar_params(units: &[&KernelUnit]) -> HashSet<String> {
    let mut out = HashSet::new();
    for u in units {
        for (name, info) in &u.types.vars {
            if matches!(info, VarInfo::Scalar { is_param: true, .. }) {
                out.insert(name.clone());
            }
        }
    }
    out
}

/// Lower a configuration-only expression (loop bounds) to a term.
fn lower_config_expr(
    sess: &mut Session,
    bound: &BoundConfig,
    e: &Expr,
    params: &HashSet<String>,
) -> Result<TermId, Error> {
    let w = bound.bits;
    let t = match e {
        Expr::Int(n) => sess.ctx.mk_bv_const(*n, w),
        Expr::Builtin(Builtin::Bdim(d)) => bound.bdim[d.index()],
        Expr::Builtin(Builtin::Gdim(d)) => bound.gdim[d.index().min(1)],
        // Scalar kernel parameters are sound bounds: the symbolic lowering
        // (`exec.rs`) binds them as free variables by the same name, so
        // `mk_var` here denotes the identical value.
        Expr::Ident(name) if params.contains(name) => match sess.conc.get(name).copied() {
            Some(v) => sess.ctx.mk_bv_const(v, w),
            None => sess.ctx.mk_var(name, Sort::BitVec(w)),
        },
        Expr::Binary { op, lhs, rhs } => {
            let a = lower_config_expr(sess, bound, lhs, params)?;
            let b = lower_config_expr(sess, bound, rhs, params)?;
            match op {
                BinOp::Add => sess.ctx.mk_bv_add(a, b),
                BinOp::Sub => sess.ctx.mk_bv_sub(a, b),
                BinOp::Mul => sess.ctx.mk_bv_mul(a, b),
                BinOp::Div => sess.ctx.mk_bv_udiv(a, b),
                BinOp::Rem => sess.ctx.mk_bv_urem(a, b),
                BinOp::Shl => sess.ctx.mk_bv_shl(a, b),
                BinOp::Shr => sess.ctx.mk_bv_lshr(a, b),
                _ => {
                    return Err(Error::AlignmentFailed {
                        detail: format!("unsupported operator in loop bound: {op:?}"),
                    })
                }
            }
        }
        other => {
            return Err(Error::AlignmentFailed {
                detail: format!("loop bound must be configuration-only, found {other:?}"),
            })
        }
    };
    Ok(t)
}

/// `b` is a non-zero power of two: the conjuncts `b ≠ 0` and
/// `b & (b − 1) = 0`. The callers conjoin them, and the geometric loop
/// spaces build their bound comparison first: the order in which terms are
/// created fixes the CNF, and so the solver's search.
fn pow2_constraint(sess: &mut Session, b: TermId) -> [TermId; 2] {
    let w = sess.ctx.width(b);
    let zero = sess.ctx.mk_bv_const(0, w);
    let one = sess.ctx.mk_bv_const(1, w);
    let nz = sess.ctx.mk_neq(b, zero);
    let bm1 = sess.ctx.mk_bv_sub(b, one);
    let and = sess.ctx.mk_bv_and(b, bm1);
    let p2 = sess.ctx.mk_eq(and, zero);
    [nz, p2]
}

/// Membership constraint `k ∈ space`.
pub(crate) fn space_constraint(
    sess: &mut Session,
    bound: &BoundConfig,
    space: &LoopSpace,
    k: TermId,
    params: &HashSet<String>,
) -> Result<TermId, Error> {
    let w = bound.bits;
    match space {
        LoopSpace::GeometricUp { start, bound: b, ratio: 2 } => {
            if !matches!(start, Expr::Int(1)) {
                return Err(Error::AlignmentFailed {
                    detail: "geometric loops must start at 1".into(),
                });
            }
            let bt = lower_config_expr(sess, bound, b, params)?;
            let [nz, pow2] = pow2_constraint(sess, k);
            let lt = sess.ctx.mk_bv_ult(k, bt);
            let a = sess.ctx.mk_and(nz, pow2);
            Ok(sess.ctx.mk_and(a, lt))
        }
        LoopSpace::GeometricDown { start, ratio: 2 } => {
            let st = lower_config_expr(sess, bound, start, params)?;
            let [nz, pow2] = pow2_constraint(sess, k);
            let le = sess.ctx.mk_bv_ule(k, st);
            let a = sess.ctx.mk_and(nz, pow2);
            Ok(sess.ctx.mk_and(a, le))
        }
        LoopSpace::LinearUp { start, bound: b, step, inclusive } => {
            let st = lower_config_expr(sess, bound, start, params)?;
            let bt = lower_config_expr(sess, bound, b, params)?;
            let ge = sess.ctx.mk_bv_ule(st, k);
            let ub = if *inclusive {
                sess.ctx.mk_bv_ule(k, bt)
            } else {
                sess.ctx.mk_bv_ult(k, bt)
            };
            let mut c = sess.ctx.mk_and(ge, ub);
            if *step > 1 {
                let stp = sess.ctx.mk_bv_const(*step, w);
                let diff = sess.ctx.mk_bv_sub(k, st);
                let rem = sess.ctx.mk_bv_urem(diff, stp);
                let zero = sess.ctx.mk_bv_const(0, w);
                let aligned = sess.ctx.mk_eq(rem, zero);
                c = sess.ctx.mk_and(c, aligned);
            }
            Ok(c)
        }
        // Symbolic stride (`i += bdim.x` and friends): membership is the
        // quantifier-free divisibility constraint of `stride_membership`.
        LoopSpace::LinearUpSym { start, bound: b, step, inclusive } => {
            let st = lower_config_expr(sess, bound, start, params)?;
            let bt = lower_config_expr(sess, bound, b, params)?;
            let stp = lower_config_expr(sess, bound, step, params)?;
            let c = witness::stride_membership(
                &mut sess.ctx,
                k,
                st,
                bt,
                stp,
                *inclusive,
            );
            sess.note_witness_generalized();
            Ok(c)
        }
        other => Err(Error::AlignmentFailed {
            detail: format!("unsupported iteration space {other:?}"),
        }),
    }
}

/// A segment as the checkers that look at one barrier interval at a time
/// (races, performance) see it: its statements and, for a barrier loop, one
/// symbolic iteration of the body. The loop variable is bound to a fresh
/// variable that the header's iteration space constrains; accesses of
/// different iterations are separated by the in-loop barrier.
pub(crate) struct SegmentScope<'a> {
    /// The straight statements, or the loop body.
    pub stmts: &'a [Stmt],
    /// The loop variable bound to the fresh iteration variable.
    pub locals: Vec<(String, TermId, bool)>,
    /// The iteration variable's membership in the loop's iteration space.
    pub membership: Vec<TermId>,
}

/// The [`SegmentScope`] of `seg`, naming a loop's iteration variable `k`.
/// `Ok(None)` when a loop header is in no recognized form.
pub(crate) fn segment_scope<'a>(
    sess: &mut Session,
    bound: &BoundConfig,
    unit: &KernelUnit,
    seg: &'a Segment,
    k: &str,
) -> Result<Option<SegmentScope<'a>>, Error> {
    match seg {
        Segment::Straight(stmts) => {
            Ok(Some(SegmentScope { stmts, locals: vec![], membership: vec![] }))
        }
        Segment::Loop { init, cond, update, body, .. } => {
            let Some(header) = normalize_header(init, cond, update) else { return Ok(None) };
            let kvar = sess.ctx.mk_var(k, Sort::BitVec(bound.bits));
            let params = scalar_params(&[unit]);
            let membership = space_constraint(sess, bound, &header.space, kvar, &params)?;
            Ok(Some(SegmentScope {
                stmts: body,
                locals: vec![(header.var, kvar, false)],
                membership: vec![membership],
            }))
        }
    }
}
