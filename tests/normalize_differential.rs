//! Differential suite for term canonicalization: for every corpus kernel
//! pair and for fuzzed `KernelGen` kernels, checking with normalization
//! enabled (`CheckOptions::default()`: AC canonicalization + fact
//! propagation before fingerprinting and bit-blasting) must return the
//! same verdict — and the same per-query outcome *class* — as the raw
//! path (`Ablation::NoNormalize`), on both the incremental and
//! one-shot backends, and under a failpoint-aborted normalization pass.
//!
//! Outcomes are compared by class, not string: canonicalization may turn
//! a `valid` row into `valid (rewrite)` (discharged with zero SAT calls)
//! or shift which rows are `valid (cached)`, but it must never move a row
//! across the valid / counterexample / timeout boundary, reorder queries,
//! or change the verdict.

use pug_ir::GpuConfig;
use pug_smt::failpoints::{self, Fault};
use pug_testutil::KernelGen;
use pugpara::equiv::Ablation::{NoNormalize, OneShot};
use pugpara::equiv::{check_equivalence_param, CheckOptions, Report};
use pugpara::runner::{run_resilient, RunnerOptions};
use pugpara::{KernelUnit, Verdict};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the failpoint test against the tests that assert rewrite
/// discharges actually happen (failpoints are process-global: an armed
/// `smt::normalize` site would silently disable discharges elsewhere).
static NORMALIZE_FAULT_LOCK: Mutex<()> = Mutex::new(());

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).unwrap()
}

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

/// Fold the performance-detail suffixes away: `valid`, `valid (cached)`
/// and `valid (rewrite)` all answer the obligation the same way.
fn outcome_class(outcome: &str) -> &'static str {
    match outcome {
        "valid" | "valid (cached)" | "valid (rewrite)" => "valid",
        "counterexample" => "counterexample",
        _ => "timeout",
    }
}

/// Verdicts must match up to the bug witness (models may differ — both
/// configurations are free to pick any countermodel; validity of each is
/// debug-asserted inside the SMT layer).
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
        "{label}: normalize-on verdict {} != normalize-off verdict {}",
        on.verdict,
        off.verdict
    );
    // Canonicalization changes how obligations are discharged, never which
    // obligations exist or how they answer.
    assert_eq!(on.queries.len(), off.queries.len(), "{label}: query counts diverge");
    for (qa, qb) in on.queries.iter().zip(off.queries.iter()) {
        assert_eq!(qa.label, qb.label, "{label}: query order diverges");
        assert_eq!(
            outcome_class(&qa.outcome),
            outcome_class(&qb.outcome),
            "{label}: query `{}` class diverges ({} vs {})",
            qa.label,
            qa.outcome,
            qb.outcome
        );
    }
}

/// Rows the canonicalizer + fact propagation proved without any SAT call.
fn rewrite_discharges(r: &Report) -> usize {
    r.queries.iter().filter(|q| q.outcome == "valid (rewrite)").count()
}

fn differential(label: &str, src: &KernelUnit, tgt: &KernelUnit, cfg: &GpuConfig) -> usize {
    // Incremental backend: normalize on vs off.
    let on = check_equivalence_param(src, tgt, cfg, &opts()).unwrap();
    let off = check_equivalence_param(src, tgt, cfg, &opts().ablate(NoNormalize)).unwrap();
    assert_reports_agree(&format!("{label} (incremental)"), &on, &off);
    assert_eq!(rewrite_discharges(&off), 0, "{label}: NoNormalize must never discharge");
    // One-shot backend: normalize on vs off (isolates canonicalization
    // from session/assumption interactions).
    let on1 = check_equivalence_param(src, tgt, cfg, &opts().ablate(OneShot)).unwrap();
    let off1_opts = opts().ablate(OneShot).ablate(NoNormalize);
    let off1 = check_equivalence_param(src, tgt, cfg, &off1_opts).unwrap();
    assert_reports_agree(&format!("{label} (one-shot)"), &on1, &off1);
    // And across backends with normalization enabled everywhere.
    assert_reports_agree(&format!("{label} (cross-backend)"), &on, &on1);
    rewrite_discharges(&on)
}

#[test]
fn corpus_pairs_agree() {
    let _guard = NORMALIZE_FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    let mut discharged = 0;
    for (label, src, tgt, cfg) in cases {
        discharged += differential(label, &load(src), &load(tgt), cfg);
    }
    // The acceptance floor: canonicalization + fact propagation discharge
    // at least one obligation on the corpus with zero SAT calls.
    assert!(discharged >= 1, "expected at least one rewrite-discharged obligation on the corpus");
}

#[test]
fn reduction_pair_agrees_concretized() {
    let _guard = NORMALIZE_FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let v0 = load(pug_kernels::reduction::V0);
    let v1 = load(pug_kernels::reduction::V1);
    let cfg = GpuConfig::symbolic_1d(8);
    let o = opts().concretized("n", 8);
    let on = check_equivalence_param(&v0, &v1, &cfg, &o).unwrap();
    let off = check_equivalence_param(&v0, &v1, &cfg, &o.clone().ablate(NoNormalize)).unwrap();
    assert_reports_agree("reduction v0/v1 +C", &on, &off);
}

#[test]
fn fuzzed_kernels_agree_without_normalization() {
    // Self-equivalence of generated kernels: multiplier-heavy address
    // arithmetic with reassociation-prone chains — the profile the AC
    // rules target.
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
        let off = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(NoNormalize)).unwrap();
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
        let off = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(NoNormalize)).unwrap();
        assert_reports_agree(&format!("fuzz basic seed {seed}\n{src}"), &on, &off);
    }
}

#[test]
fn aborted_normalization_is_sound_and_agrees() {
    // Failpoint-injected abort inside `smt::normalize`: the session must
    // degrade to the raw (un-canonicalized) terms — sound either way, the
    // two are equivalence-preserving rewrites of each other — without
    // poisoning the session or changing any verdict.
    let _guard = NORMALIZE_FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let naive = load(pug_kernels::transpose::NAIVE);
    let buggy = load(pug_kernels::transpose::BUGGY_ADDR);
    let cfg = GpuConfig::symbolic(8);

    failpoints::arm("smt::normalize", Fault::BudgetExhausted);
    let faulted = check_equivalence_param(&naive, &buggy, &cfg, &opts());
    let off = check_equivalence_param(&naive, &buggy, &cfg, &opts().ablate(NoNormalize));
    failpoints::reset();

    let faulted = faulted.unwrap();
    let off = off.unwrap();
    assert!(faulted.verdict.is_bug(), "aborted normalization hid the bug: {}", faulted.verdict);
    // Degraded ≡ disabled: with every normalize call aborted, the session
    // runs the raw terms — exactly the NoNormalize configuration.
    assert_reports_agree("faulted normalization (transpose bug)", &faulted, &off);
    assert_eq!(
        rewrite_discharges(&faulted),
        0,
        "aborted normalization must not claim rewrite discharges"
    );

    // Clean registry: the same check discharges normally again.
    let clean = check_equivalence_param(&naive, &buggy, &cfg, &opts()).unwrap();
    assert!(same_verdict(&clean.verdict, &faulted.verdict));
}

#[test]
fn resilient_runner_provenance_agrees() {
    // The full degradation ladder with normalization on vs off: same
    // verdict, same answering rung, same rung outcomes, same obligations
    // in the same order — only the outcome performance class may differ.
    let _guard = NORMALIZE_FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let naive = load(pug_kernels::transpose::NAIVE);
    let buggy = load(pug_kernels::transpose::BUGGY_ADDR);
    let cfg = GpuConfig::symbolic_2d(8);

    let on = run_resilient(&naive, &buggy, &cfg, &RunnerOptions::default());
    let raw = RunnerOptions::default().ablate(NoNormalize);
    let off = run_resilient(&naive, &buggy, &cfg, &raw);

    assert!(same_verdict(&on.verdict, &off.verdict), "{} vs {}", on.verdict, off.verdict);
    assert_eq!(on.provenance.answered_by, off.provenance.answered_by);
    assert_eq!(on.provenance.rungs.len(), off.provenance.rungs.len());
    for (ra, rb) in on.provenance.rungs.iter().zip(off.provenance.rungs.iter()) {
        assert_eq!(ra.rung, rb.rung);
        assert_eq!(
            std::mem::discriminant(&ra.outcome),
            std::mem::discriminant(&rb.outcome),
            "rung {} outcome kind diverges: {} vs {}",
            ra.rung,
            ra.outcome,
            rb.outcome
        );
        assert_eq!(ra.stats.len(), rb.stats.len(), "rung {} query counts diverge", ra.rung);
        for (qa, qb) in ra.stats.iter().zip(rb.stats.iter()) {
            assert_eq!(qa.label, qb.label, "rung {} query order diverges", ra.rung);
            assert_eq!(
                outcome_class(&qa.outcome),
                outcome_class(&qb.outcome),
                "rung {} query `{}` class diverges",
                ra.rung,
                qa.label
            );
        }
    }
}
