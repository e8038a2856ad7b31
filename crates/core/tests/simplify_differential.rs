//! Differential suite for SAT preprocessing: for every corpus kernel
//! pair and for fuzzed `KernelGen` kernels, checking with simplification
//! enabled (`CheckOptions::default()`: BVE + subsumption + hash-consed
//! blasting) must return the same verdict — and the same
//! per-query outcome sequence — as the plain CDCL path
//! (`Ablation::NoSimplify`), on both the incremental and one-shot
//! backends, with unlimited budgets and under failpoint-aborted
//! preprocessing.
//!
//! Witness soundness rides along for free: the harness builds in debug
//! mode, and both `check_detailed` and `SolveSession::check` debug-assert
//! that every Sat model satisfies the original assertions — so each bug
//! row here proves BVE model reconstruction end-to-end at the SMT level.

use pugpara::equiv::Ablation::{NoSimplify, OneShot};
use pugpara::equiv::{check_equivalence_param, CheckOptions, Report};
use pugpara::{KernelUnit, Verdict};
use pug_ir::GpuConfig;
use pug_smt::failpoints::{self, Fault};
use pug_testutil::KernelGen;
use std::time::Duration;

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).unwrap()
}

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

/// Verdicts must match exactly up to the bug witness (models may differ —
/// both configurations are free to pick any countermodel; validity of each
/// is debug-asserted inside the SMT layer).
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    match (a, b) {
        (Verdict::Verified(x), Verdict::Verified(y)) => x == y,
        (Verdict::Bug(x), Verdict::Bug(y)) => x.kind == y.kind,
        (Verdict::Timeout, Verdict::Timeout) => true,
        _ => false,
    }
}

fn assert_reports_agree(label: &str, on: &Report, off: &Report) {
    assert!(
        same_verdict(&on.verdict, &off.verdict),
        "{label}: simplify-on verdict {} != simplify-off verdict {}",
        on.verdict,
        off.verdict
    );
    // Simplification changes how queries are solved, never which queries
    // run or how they answer.
    assert_eq!(on.queries.len(), off.queries.len(), "{label}: query counts diverge");
    for (qa, qb) in on.queries.iter().zip(off.queries.iter()) {
        assert_eq!(qa.label, qb.label, "{label}: query order diverges");
        assert_eq!(
            qa.outcome, qb.outcome,
            "{label}: query `{}` outcome diverges",
            qa.label
        );
    }
}

fn differential(label: &str, src: &KernelUnit, tgt: &KernelUnit, cfg: &GpuConfig) {
    // Incremental backend: simplify on vs off.
    let on = check_equivalence_param(src, tgt, cfg, &opts()).unwrap();
    let off = check_equivalence_param(src, tgt, cfg, &opts().ablate(NoSimplify)).unwrap();
    assert_reports_agree(&format!("{label} (incremental)"), &on, &off);
    // One-shot backend: simplify on vs off (isolates preprocessing from
    // session/assumption interactions).
    let on1 = check_equivalence_param(src, tgt, cfg, &opts().ablate(OneShot)).unwrap();
    let off1_opts = opts().ablate(OneShot).ablate(NoSimplify);
    let off1 = check_equivalence_param(src, tgt, cfg, &off1_opts).unwrap();
    assert_reports_agree(&format!("{label} (one-shot)"), &on1, &off1);
    // And across backends with simplification enabled everywhere.
    assert_reports_agree(&format!("{label} (cross-backend)"), &on, &on1);
}

#[test]
fn corpus_pairs_agree() {
    let cases: &[(&str, &str, &str, GpuConfig)] = &[
        (
            "transpose ok",
            pug_kernels::transpose::NAIVE,
            pug_kernels::transpose::OPTIMIZED,
            GpuConfig::symbolic(8),
        ),
        (
            "transpose buggy addr",
            pug_kernels::transpose::NAIVE,
            pug_kernels::transpose::BUGGY_ADDR,
            GpuConfig::symbolic(8),
        ),
        (
            "transpose unconstrained",
            pug_kernels::transpose::NAIVE,
            pug_kernels::transpose::OPTIMIZED_UNCONSTRAINED,
            GpuConfig::symbolic(8),
        ),
        (
            "vector_add self",
            pug_kernels::vector_add::KERNEL,
            pug_kernels::vector_add::KERNEL,
            GpuConfig::symbolic_1d(8),
        ),
        (
            "vector_add buggy",
            pug_kernels::vector_add::KERNEL,
            pug_kernels::vector_add::BUGGY,
            GpuConfig::symbolic_1d(8),
        ),
    ];
    for (label, src, tgt, cfg) in cases {
        differential(label, &load(src), &load(tgt), cfg);
    }
}

#[test]
fn reduction_pair_agrees_concretized() {
    let v0 = load(pug_kernels::reduction::V0);
    let v1 = load(pug_kernels::reduction::V1);
    let cfg = GpuConfig::symbolic_1d(8);
    let o = opts().concretized("n", 8);
    let on = check_equivalence_param(&v0, &v1, &cfg, &o).unwrap();
    let off = check_equivalence_param(&v0, &v1, &cfg, &o.clone().ablate(NoSimplify)).unwrap();
    assert_reports_agree("reduction v0/v1 +C", &on, &off);
}

#[test]
fn fuzzed_kernels_agree_without_simplification() {
    // Self-equivalence of generated kernels: multiplier-heavy address
    // arithmetic with shared subcircuits — the profile the gate cache and
    // BVE target.
    for seed in 0..12u64 {
        let src = KernelGen::extended(seed).kernel();
        let unit = match KernelUnit::load(&src) {
            Ok(u) => u,
            Err(_) => continue, // generator stays in-subset; be lenient anyway
        };
        let cfg = GpuConfig::symbolic_1d(8);
        let on = match check_equivalence_param(&unit, &unit, &cfg, &opts()) {
            Ok(r) => r,
            Err(_) => continue, // alignment limits apply to both paths equally
        };
        let off = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(NoSimplify)).unwrap();
        assert_reports_agree(&format!("fuzz seed {seed}\n{src}"), &on, &off);
    }
}

#[test]
fn fuzzed_basic_profile_agrees() {
    for seed in 100..108u64 {
        let src = KernelGen::basic(seed).kernel();
        let Ok(unit) = KernelUnit::load(&src) else { continue };
        let cfg = GpuConfig::symbolic_1d(8);
        let Ok(on) = check_equivalence_param(&unit, &unit, &cfg, &opts()) else { continue };
        let off = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(NoSimplify)).unwrap();
        assert_reports_agree(&format!("fuzz basic seed {seed}\n{src}"), &on, &off);
    }
}

#[test]
fn aborted_preprocessing_is_sound_and_agrees() {
    // Failpoint-injected budget exhaustion inside `sat::simplify`: the
    // pre/inprocessing passes abort early (possibly half-done — some
    // variables eliminated, some clauses already strengthened), which must
    // be indistinguishable verdict-wise from never preprocessing at all.
    let naive = load(pug_kernels::transpose::NAIVE);
    let buggy = load(pug_kernels::transpose::BUGGY_ADDR);
    let cfg = GpuConfig::symbolic(8);

    failpoints::arm("sat::simplify", Fault::BudgetExhausted);
    let on = check_equivalence_param(&naive, &buggy, &cfg, &opts());
    let off = check_equivalence_param(&naive, &buggy, &cfg, &opts().ablate(NoSimplify));
    failpoints::reset();

    let on = on.unwrap();
    let off = off.unwrap();
    assert!(on.verdict.is_bug(), "aborted preprocessing hid the bug: {}", on.verdict);
    assert_reports_agree("faulted preprocessing (transpose bug)", &on, &off);

    // Clean registry: the same check still answers identically.
    let clean = check_equivalence_param(&naive, &buggy, &cfg, &opts()).unwrap();
    assert!(same_verdict(&clean.verdict, &on.verdict));
}

#[test]
fn tiny_conflict_cap_agrees() {
    // A starvation-level per-query conflict cap: verdicts may legitimately
    // be Timeout, but preprocessing must not flip any query's outcome
    // relative to the plain path (both configurations gate on the same
    // budget before and during search).
    let naive = load(pug_kernels::transpose::NAIVE);
    let opt = load(pug_kernels::transpose::OPTIMIZED);
    let cfg = GpuConfig::symbolic(8);
    let mut o = opts();
    o.engine.max_conflicts = Some(1);
    let on = check_equivalence_param(&naive, &opt, &cfg, &o).unwrap();
    // Budget-limited rows can answer differently with preprocessing (it may
    // solve within the cap what plain CDCL cannot), so only subset-check:
    // anything the plain path decided, the simplified path decides the same
    // way or better (never a contradicting verdict).
    let off = check_equivalence_param(&naive, &opt, &cfg, &o.clone().ablate(NoSimplify)).unwrap();
    let contradict = matches!(
        (&on.verdict, &off.verdict),
        (Verdict::Verified(_), Verdict::Bug(_)) | (Verdict::Bug(_), Verdict::Verified(_))
    );
    assert!(
        !contradict,
        "conflict-starved verdicts contradict: simplify-on {} vs off {}",
        on.verdict, off.verdict
    );
}

#[test]
fn sat_level_witness_models_agree_on_bug_instances() {
    // Direct SMT-level check of model reconstruction: a multiplier-heavy
    // Sat instance (the corpus bug-row shape) solved with simplification on
    // and off. Both must answer Sat, and each model must satisfy the
    // original assertions — the on-path model exercises Davis–Putnam
    // reconstruction of every BVE-eliminated variable.
    use pug_smt::{check_detailed_with, Budget, Ctx, SimplifyConfig, SmtResult, Sort};

    let mut c = Ctx::new();
    let x = c.mk_var("x", Sort::BitVec(8));
    let y = c.mk_var("y", Sort::BitVec(8));
    let prod = c.mk_bv_mul(x, y);
    let target = c.mk_bv_const(143, 8);
    let one = c.mk_bv_const(1, 8);
    let eq = c.mk_eq(prod, target);
    let nx = c.mk_bv_ult(one, x);
    let ny = c.mk_bv_ult(one, y);
    let asserts = [eq, nx, ny];

    // Preprocess eagerly (no conflict-count deferral): the point here is
    // Davis–Putnam reconstruction, so BVE must actually run.
    let eager = SimplifyConfig { preprocess_min_conflicts: 0, ..SimplifyConfig::default() };
    let (r_on, st_on) = check_detailed_with(&mut c, &asserts, &Budget::unlimited(), &eager);
    let (r_off, _) =
        check_detailed_with(&mut c, &asserts, &Budget::unlimited(), &SimplifyConfig::off());

    let SmtResult::Sat(m_on) = r_on else { panic!("simplify-on: expected Sat") };
    let SmtResult::Sat(m_off) = r_off else { panic!("simplify-off: expected Sat") };
    for &a in &asserts {
        assert!(m_on.eval_bool(&c, a), "simplify-on model violates an assertion");
        assert!(m_off.eval_bool(&c, a), "simplify-off model violates an assertion");
    }
    // The witness values themselves are genuine factorizations.
    let (xa, ya) = (m_on.eval_bv(&c, x), m_on.eval_bv(&c, y));
    assert_eq!((xa * ya) & 0xff, 143, "reconstructed witness is not a factorization");
    assert!(xa > 1 && ya > 1);
    // Simplification did real work on this instance (otherwise this test
    // proves nothing about reconstruction).
    assert!(
        st_on.sat.vars_eliminated > 0 || st_on.gates_hashconsed > 0,
        "expected BVE or hash-consing activity (eliminated={}, hashconsed={})",
        st_on.sat.vars_eliminated,
        st_on.gates_hashconsed
    );
}
