//! Parameterized race checking.
//!
//! The paper notes that PUG's race-checking techniques "easily accommodate
//! the use of symbolic thread identifiers" (§II-A): within one barrier
//! interval, instantiate the access set at two *distinct* symbolic threads
//! and ask the solver for an address collision where at least one access is
//! a write. A `Sat` answer is a real race with a concrete witness
//! (configuration, thread ids); `Unsat` over all pairs is a parameterized
//! race-freedom proof — the very assumption the equivalence encodings rest
//! on (§III "we assume that no data races occur").
//!
//! Each `Sat` race is additionally **classified** (after Liew et al.): the
//! witness is first *minimized* (the query re-solved under small
//! coordinate/extent bounds, so the launch fits the replay budget), then
//! the model is turned into a concrete configuration + thread pair and
//! replayed through the `pug-ir` interpreter with access logging. If the
//! replay exhibits the conflicting accesses, the race is *provable* and the
//! report carries the validated schedule; if the replay is blocked (e.g. a
//! barrier loop bounded by a scalar the interpreter cannot concretize) the
//! race stays *potential*. Classification never changes the verdict — a
//! `Sat` model is a real race under the symbolic semantics either way.

use crate::equiv::{segment_scope, CheckOptions, Report};
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::param::{extract_region, thread_range, ExtractOptions, ParamRegion};
use crate::resolve::ThreadRef;
use crate::session::Session;
use crate::verdict::{BugKind, BugReport, RaceClass, Verdict};
use pug_cuda::typecheck::VarInfo;
use pug_ir::{split_bis, BoundConfig, ConcreteInputs, Extent, GpuConfig};
use pug_smt::{Model, Sort, SmtResult, TermId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Replay refuses witness configurations launching more threads than this
/// (the classification must stay cheap relative to the SMT query).
const REPLAY_THREAD_CAP: u64 = 1024;

/// Check a kernel for intra-barrier-interval data races, parametrically.
pub fn check_races(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let bound = cfg.bind(&mut sess.ctx, "");

    let segments = pug_ir::split_segments(&unit.kernel.body)?;
    let mut assumptions: Vec<TermId> = bound.constraints.clone();

    for (i, seg) in segments.iter().enumerate() {
        let scope = segment_scope(&mut sess, &bound, unit, seg, &format!("k!race{i}"))?
            .ok_or_else(|| Error::AlignmentFailed {
                detail: "race checking needs a recognizable loop header".into(),
            })?;
        let region = extract_region(
            &mut sess.ctx,
            unit,
            &bound,
            &split_bis(scope.stmts)?,
            ExtractOptions {
                tag: &format!("r{i}"),
                entry_versions: HashMap::new(),
                extra_locals: scope.locals,
                region: format!("seg{i}"),
                concretize: sess.conc.clone(),
            },
        )?;
        assumptions.extend(region.outputs.assumptions.iter().copied());
        let extra = scope.membership;

        sess.enter_seg(&format!("bi:{i}"));
        if let Some(v) =
            race_in_region(&mut sess, &bound, unit, cfg, &region, &assumptions, &extra, i)?
        {
            return Ok(sess.take_report(v, started));
        }
        sess.exit_seg();
    }
    let soundness = sess.soundness;
    Ok(sess.take_report(Verdict::Verified(soundness), started))
}

#[allow(clippy::too_many_arguments)]
fn race_in_region(
    sess: &mut Session,
    bound: &BoundConfig,
    unit: &KernelUnit,
    cfg: &GpuConfig,
    region: &ParamRegion,
    assumptions: &[TermId],
    extra: &[TermId],
    seg_ix: usize,
) -> Result<Option<Verdict>, Error> {
    // Two distinct symbolic threads.
    let w = bound.bits;
    let t1 = ThreadRef::named(&mut sess.ctx, w, |c| format!("t1.{c}!race{seg_ix}"));
    let t2 = ThreadRef::named(&mut sess.ctx, w, |c| format!("t2.{c}!race{seg_ix}"));
    let r1 = thread_range(&mut sess.ctx, bound, t1.tid, t1.bid);
    let r2 = thread_range(&mut sess.ctx, bound, t2.tid, t2.bid);
    let canonical = region.thread;

    // Distinctness: some tid component differs (same-block case), or any
    // coordinate differs (cross-block, global arrays only).
    let tids_differ = {
        let mut d = sess.ctx.mk_false();
        for i in 0..3 {
            let ne = sess.ctx.mk_neq(t1.tid[i], t2.tid[i]);
            d = sess.ctx.mk_or(d, ne);
        }
        d
    };
    let same_block = {
        let bx = sess.ctx.mk_eq(t1.bid[0], t2.bid[0]);
        let by = sess.ctx.mk_eq(t1.bid[1], t2.bid[1]);
        sess.ctx.mk_and(bx, by)
    };
    let coords_differ = {
        let mut d = tids_differ;
        for i in 0..2 {
            let ne = sess.ctx.mk_neq(t1.bid[i], t2.bid[i]);
            d = sess.ctx.mk_or(d, ne);
        }
        d
    };

    let accesses = &region.log;
    for (ai, a) in accesses.iter().enumerate() {
        for b in accesses.iter().skip(ai) {
            if a.array != b.array || (!a.is_write && !b.is_write) {
                continue;
            }
            let shared = matches!(
                unit.types.vars.get(&a.array),
                Some(VarInfo::SharedArray { .. })
            );
            let addr1 = canonical.subst(&mut sess.ctx, a.index, t1);
            let g1 = canonical.subst(&mut sess.ctx, a.guard, t1);
            let addr2 = canonical.subst(&mut sess.ctx, b.index, t2);
            let g2 = canonical.subst(&mut sess.ctx, b.guard, t2);

            let mut asserts = assumptions.to_vec();
            asserts.extend(extra.iter().copied());
            asserts.push(r1);
            asserts.push(r2);
            if shared {
                asserts.push(same_block);
                asserts.push(tids_differ);
            } else {
                asserts.push(coords_differ);
            }
            asserts.push(g1);
            asserts.push(g2);
            let collide = sess.ctx.mk_eq(addr1, addr2);
            asserts.push(collide);

            // Satisfiability query (not validity): negate `false` as goal.
            let goal = sess.ctx.mk_false();
            match sess.query(&format!("race[{}#{seg_ix}]", a.array), &asserts, goal) {
                SmtResult::Unsat => {}
                SmtResult::Unknown => return Ok(Some(Verdict::Timeout)),
                SmtResult::Sat(model) => {
                    // The model is free to pick enormous coordinates for
                    // the witness threads; a replayable schedule wants a
                    // small launch. Prefer a model of the same query with
                    // every coordinate (and symbolic extent) bounded by a
                    // small constant — when the race only manifests at
                    // large coordinates, the original model stands and the
                    // replay cap decides.
                    let model = minimize_witness(
                        sess, bound, cfg, &asserts, t1, t2, seg_ix, &a.array,
                    )
                    .unwrap_or(model);
                    let kind = match (a.is_write, b.is_write) {
                        (true, true) => "write-write",
                        _ => "read-write",
                    };
                    let class = classify_race(sess, unit, cfg, bound, &model, &a.array, t1, t2);
                    sess.note_race(class.is_provable());
                    let tag = match &class {
                        RaceClass::Provable { .. } => "provable",
                        RaceClass::Potential { .. } => "potential",
                    };
                    let report = BugReport::new(
                        BugKind::DataRace,
                        format!(
                            "{kind} race on `{}` within a barrier interval (segment {seg_ix}, \
                             {tag})",
                            a.array
                        ),
                        model,
                        &sess.ctx,
                    )
                    .with_race(class);
                    return Ok(Some(Verdict::Bug(report)));
                }
            }
        }
    }
    Ok(None)
}

/// Re-solve a `Sat` race query with the witness coordinates and every
/// symbolic extent bounded by a small constant, so the witness launch
/// fits the replay cap. Two rounds with a growing bound; `None` when the
/// race needs coordinates larger than both (the caller keeps the
/// unbounded model).
#[allow(clippy::too_many_arguments)]
fn minimize_witness(
    sess: &mut Session,
    bound: &BoundConfig,
    cfg: &GpuConfig,
    asserts: &[TermId],
    t1: ThreadRef,
    t2: ThreadRef,
    seg_ix: usize,
    array: &str,
) -> Option<Model> {
    let w = bound.bits;
    // The second tier is sized so two symbolic extents (the common 1-D
    // symbolic launch) land exactly on the replay cap (32 × 32 = 1024),
    // and is large enough to reach index wraparound at 8-bit widths —
    // wrap collisions like `b·bdim + t ≡ t' (mod 2^8)` need coordinate
    // products past 256.
    for bnd in [4u64, 32] {
        let lim = sess.ctx.mk_bv_const(bnd, w);
        let mut asserts = asserts.to_vec();
        for t in [&t1, &t2] {
            for c in t.tid.iter().chain(t.bid.iter()) {
                let lt = sess.ctx.mk_bv_ult(*c, lim);
                asserts.push(lt);
            }
        }
        for i in 0..3 {
            if cfg.bdim[i] == Extent::Sym {
                let le = sess.ctx.mk_bv_ule(bound.bdim[i], lim);
                asserts.push(le);
            }
        }
        for i in 0..2 {
            if cfg.gdim[i] == Extent::Sym {
                let le = sess.ctx.mk_bv_ule(bound.gdim[i], lim);
                asserts.push(le);
            }
        }
        let goal = sess.ctx.mk_false();
        if let SmtResult::Sat(m) =
            sess.query(&format!("race-min[{array}#{seg_ix}<{bnd}]"), &asserts, goal)
        {
            return Some(m);
        }
    }
    None
}

/// Classify a `Sat` race model as *provable* or *potential* by replaying
/// the witness schedule through the concrete interpreter.
///
/// The classification pipeline: (1) read the two witness threads, a fully
/// concrete configuration and the scalar parameters off the model
/// (unconstrained variables default to 0; extents are clamped to ≥ 1 and
/// shrunk around the witness threads when the model's launch exceeds the
/// replay cap);
/// (2) replay the kernel under the natural-order schedule with access
/// logging; (3) search the log for a same-interval conflicting access pair
/// between exactly the two witness threads. Any failure along the way —
/// too many threads, an interpreter-unsupported construct, or a log with
/// no conflict — yields [`RaceClass::Potential`] with the blocker named.
#[allow(clippy::too_many_arguments)]
fn classify_race(
    sess: &mut Session,
    unit: &KernelUnit,
    cfg: &GpuConfig,
    bound: &BoundConfig,
    model: &Model,
    array: &str,
    t1: ThreadRef,
    t2: ThreadRef,
) -> RaceClass {
    // (1) Witness thread coordinates off the model.
    let coords = |sess: &mut Session, t: &ThreadRef| -> ([u64; 3], [u64; 2]) {
        (
            [
                model.eval_bv(&sess.ctx, t.tid[0]),
                model.eval_bv(&sess.ctx, t.tid[1]),
                model.eval_bv(&sess.ctx, t.tid[2]),
            ],
            [model.eval_bv(&sess.ctx, t.bid[0]), model.eval_bv(&sess.ctx, t.bid[1])],
        )
    };
    let c1 = coords(sess, &t1);
    let c2 = coords(sess, &t2);

    // Concrete configuration from the witness model. The model is free to
    // pick huge extents for dimensions nothing constrains; when the launch
    // would exceed the replay cap, shrink every *symbolic* extent to just
    // cover the two witness threads — the replay itself validates the
    // shrink (a race that only manifests at the larger extent simply fails
    // to reproduce and degrades to Potential).
    let ext = |sess: &mut Session, e: Extent, t: TermId| -> u64 {
        match e {
            Extent::Const(v) => v,
            Extent::Sym => model.eval_bv(&sess.ctx, t).max(1),
        }
    };
    let mut bdim = [
        ext(sess, cfg.bdim[0], bound.bdim[0]),
        ext(sess, cfg.bdim[1], bound.bdim[1]),
        ext(sess, cfg.bdim[2], bound.bdim[2]),
    ];
    let mut gdim =
        [ext(sess, cfg.gdim[0], bound.gdim[0]), ext(sess, cfg.gdim[1], bound.gdim[1])];
    let launch = |bdim: [u64; 3], gdim: [u64; 2]| {
        gdim.iter().fold(bdim.iter().fold(1u64, |a, &v| a.saturating_mul(v)), |a, &v| {
            a.saturating_mul(v)
        })
    };
    if launch(bdim, gdim) > REPLAY_THREAD_CAP {
        for (i, d) in bdim.iter_mut().enumerate() {
            if cfg.bdim[i] == Extent::Sym {
                *d = c1.0[i].max(c2.0[i]) + 1;
            }
        }
        for (i, d) in gdim.iter_mut().enumerate() {
            if cfg.gdim[i] == Extent::Sym {
                *d = c1.1[i].max(c2.1[i]) + 1;
            }
        }
    }
    let total = launch(bdim, gdim);
    if total > REPLAY_THREAD_CAP {
        return RaceClass::Potential {
            blocked: format!(
                "witness configuration launches {total} threads (replay cap \
                 {REPLAY_THREAD_CAP})"
            ),
        };
    }
    let [bx, by, bz] = bdim;
    let [gx, gy] = gdim;
    let ccfg = GpuConfig {
        bits: cfg.bits,
        bdim: [Extent::Const(bx), Extent::Const(by), Extent::Const(bz)],
        gdim: [Extent::Const(gx), Extent::Const(gy)],
    };

    // Scalar parameters: pinned values win, otherwise read off the model
    // (the lowering binds parameters by bare name, so `mk_var` resolves to
    // the same symbol the encoded constraints mention).
    let mut inputs = ConcreteInputs::default();
    let w = bound.bits;
    for (name, info) in &unit.types.vars {
        if matches!(info, VarInfo::Scalar { is_param: true, .. }) {
            let v = match sess.conc.get(name) {
                Some(&v) => v,
                None => {
                    let t = sess.ctx.mk_var(name, Sort::BitVec(w));
                    model.eval_bv(&sess.ctx, t)
                }
            };
            inputs.scalars.insert(name.clone(), v);
        }
    }

    // (2) Replay with access logging. Arrays start all-zero, matching both
    // the interpreter's sparse default and the model's default for
    // unconstrained input cells.
    let (_, log) = match pug_ir::run_concrete_logged(&unit.kernel, &unit.types, &ccfg, &inputs) {
        Ok(r) => r,
        Err(e) => {
            return RaceClass::Potential {
                blocked: format!("replay blocked by an unsupported construct: {e}"),
            }
        }
    };

    // (3) Find a same-interval conflicting pair between the two witness
    // threads on the reported array.
    let of_thread = |a: &pug_ir::ConcreteAccess, c: &([u64; 3], [u64; 2])| {
        a.array == array && a.tid == c.0 && a.bid == c.1
    };
    for a1 in log.iter().filter(|a| of_thread(a, &c1)) {
        for a2 in log.iter().filter(|a| of_thread(a, &c2)) {
            let distinct = a1.tid != a2.tid || a1.bid != a2.bid;
            if distinct && a1.bi == a2.bi && a1.index == a2.index && (a1.is_write || a2.is_write)
            {
                let mut schedule = String::new();
                let _ = writeln!(
                    schedule,
                    "  config: bdim=({bx},{by},{bz}) gdim=({gx},{gy})"
                );
                let mut scalars: Vec<_> = inputs.scalars.iter().collect();
                scalars.sort();
                for (name, v) in scalars {
                    let _ = writeln!(schedule, "  scalar: {name} = {v}");
                }
                let acc = |a: &pug_ir::ConcreteAccess| {
                    format!(
                        "block ({},{}) thread ({},{},{}) {} `{}`[{}]",
                        a.bid[0],
                        a.bid[1],
                        a.tid[0],
                        a.tid[1],
                        a.tid[2],
                        if a.is_write { "writes" } else { "reads" },
                        a.array,
                        a.index
                    )
                };
                let _ = writeln!(
                    schedule,
                    "  barrier interval #{}: {} and {} with no intervening barrier",
                    a1.bi,
                    acc(a1),
                    acc(a2)
                );
                return RaceClass::Provable { schedule };
            }
        }
    }
    RaceClass::Potential {
        blocked: "replay ran but did not reproduce the conflicting access pair under the \
                  natural-order schedule"
            .into(),
    }
}
