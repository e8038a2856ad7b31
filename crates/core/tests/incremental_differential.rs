//! Differential suite for the incremental SMT backend: for every corpus
//! kernel pair and for fuzzed `KernelGen` kernels, the persistent
//! `SolveSession` path (`CheckOptions::default()`, incremental on) must
//! return the same verdict — and the same per-query outcome sequence — as
//! the one-shot `check_detailed` path (`Ablation::OneShot`), both
//! with unlimited budgets and under failpoint-injected budget exhaustion
//! mid-session.

use pugpara::equiv::Ablation::OneShot;
use pugpara::equiv::{check_equivalence_param, CheckOptions, Report};
use pugpara::{KernelUnit, QueryCache, Soundness, Verdict};
use pug_ir::GpuConfig;
use pug_smt::failpoints::{self, Fault};
use pug_testutil::KernelGen;
use std::sync::{RwLock, RwLockReadGuard};
use std::time::Duration;

/// Failpoints are process-global and this binary's tests run concurrently:
/// the test that arms one holds this lock for writing, every other test
/// for reading, so an armed site never leaks into another test's checks.
static FAULT_LOCK: RwLock<()> = RwLock::new(());

fn no_faults() -> RwLockReadGuard<'static, ()> {
    FAULT_LOCK.read().unwrap_or_else(|e| e.into_inner())
}

/// Four independent output arrays: the per-array obligation loop runs
/// four times in one solver context (every corpus kernel writes a single
/// global, so it runs once there).
const MULTI_SRC: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * 3;
        b[i] = in[i] + in[i];
        c[i] = in[i] * in[i];
        d[i] = (in[i] + n) * 2;
    }
}
"#;

/// Equivalent rewrite of every array (reassociated / strength-reduced).
const MULTI_EQUIV: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] + in[i] + in[i];
        b[i] = in[i] * 2;
        c[i] = in[i] * in[i];
        d[i] = in[i] * 2 + n * 2;
    }
}
"#;

/// Array `c` differs; `a` and `b` before it are clean.
const MULTI_BUGGY: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * 3;
        b[i] = in[i] + in[i];
        c[i] = in[i] * in[i] + 1;
        d[i] = (in[i] + n) * 2;
    }
}
"#;

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).unwrap()
}

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

/// Verdicts must match exactly up to the bug witness (models may differ —
/// both solvers are free to pick any countermodel).
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    match (a, b) {
        (Verdict::Verified(x), Verdict::Verified(y)) => x == y,
        (Verdict::Bug(x), Verdict::Bug(y)) => x.kind == y.kind,
        (Verdict::Timeout, Verdict::Timeout) => true,
        _ => false,
    }
}

fn assert_reports_agree(label: &str, inc: &Report, one: &Report) {
    assert!(
        same_verdict(&inc.verdict, &one.verdict),
        "{label}: incremental verdict {} != one-shot verdict {}",
        inc.verdict,
        one.verdict
    );
    // The query streams must agree label-for-label and outcome-for-outcome:
    // the incremental path changes how queries are solved, never which
    // queries run or how they answer.
    assert_eq!(
        inc.queries.len(),
        one.queries.len(),
        "{label}: query counts diverge"
    );
    for (qi, qo) in inc.queries.iter().zip(one.queries.iter()) {
        assert_eq!(qi.label, qo.label, "{label}: query order diverges");
        assert_eq!(
            qi.outcome, qo.outcome,
            "{label}: query `{}` outcome diverges",
            qi.label
        );
    }
}

fn differential(label: &str, src: &KernelUnit, tgt: &KernelUnit, cfg: &GpuConfig) -> Report {
    let inc = check_equivalence_param(src, tgt, cfg, &opts()).unwrap();
    let one = check_equivalence_param(src, tgt, cfg, &opts().ablate(OneShot)).unwrap();
    assert_reports_agree(label, &inc, &one);
    inc
}

#[test]
fn corpus_pairs_agree() {
    let _faults = no_faults();
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

    let cfg = GpuConfig::symbolic_1d(8);
    let clean = differential(
        "multi-output equivalent",
        &load(MULTI_SRC),
        &load(MULTI_EQUIV),
        &cfg,
    );
    assert!(
        matches!(clean.verdict, Verdict::Verified(Soundness::Sound)),
        "multi-output equivalent: {}",
        clean.verdict
    );
    let buggy = differential(
        "multi-output buggy",
        &load(MULTI_SRC),
        &load(MULTI_BUGGY),
        &cfg,
    );
    match &buggy.verdict {
        Verdict::Bug(bug) => assert!(bug.detail.contains("`c`"), "{}", bug.detail),
        other => panic!("multi-output buggy: expected a bug in `c`, got {other}"),
    }
}

#[test]
fn reduction_pair_agrees_concretized() {
    let _faults = no_faults();
    let v0 = load(pug_kernels::reduction::V0);
    let v1 = load(pug_kernels::reduction::V1);
    let cfg = GpuConfig::symbolic_1d(8);
    let o = opts().concretized("n", 8);
    let inc = check_equivalence_param(&v0, &v1, &cfg, &o).unwrap();
    let one = check_equivalence_param(&v0, &v1, &cfg, &o.clone().ablate(OneShot)).unwrap();
    assert_reports_agree("reduction v0/v1 +C", &inc, &one);
}

#[test]
fn fuzzed_extended_profile_agrees() {
    let _faults = no_faults();
    // Self-equivalence of generated kernels: many obligations per check,
    // shared premise prefixes — exactly the profile the session optimizes.
    for seed in 0..12u64 {
        let src = KernelGen::extended(seed).kernel();
        let unit = match KernelUnit::load(&src) {
            Ok(u) => u,
            Err(_) => continue, // generator stays in-subset; be lenient anyway
        };
        let cfg = GpuConfig::symbolic_1d(8);
        let inc = match check_equivalence_param(&unit, &unit, &cfg, &opts()) {
            Ok(r) => r,
            Err(_) => continue, // alignment limits apply to both paths equally
        };
        let one = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(OneShot)).unwrap();
        assert_reports_agree(&format!("fuzz seed {seed}\n{src}"), &inc, &one);
    }
}

#[test]
fn fuzzed_basic_profile_agrees() {
    let _faults = no_faults();
    for seed in 100..108u64 {
        let src = KernelGen::basic(seed).kernel();
        let Ok(unit) = KernelUnit::load(&src) else { continue };
        let cfg = GpuConfig::symbolic_1d(8);
        let Ok(inc) = check_equivalence_param(&unit, &unit, &cfg, &opts()) else { continue };
        let one = check_equivalence_param(&unit, &unit, &cfg, &opts().ablate(OneShot)).unwrap();
        assert_reports_agree(&format!("fuzz basic seed {seed}\n{src}"), &inc, &one);
    }
}

#[test]
fn budget_exhaustion_mid_session_agrees() {
    let _faults = FAULT_LOCK.write().unwrap_or_else(|e| e.into_inner());
    // Failpoint-injected budget exhaustion at the SMT boundary: both paths
    // trip the same `smt::check` site on every query, so both degrade to
    // the same Timeout verdict instead of diverging or crashing.
    let naive = load(pug_kernels::transpose::NAIVE);
    let opt = load(pug_kernels::transpose::OPTIMIZED);
    let cfg = GpuConfig::symbolic(8);

    failpoints::arm("smt::check", Fault::BudgetExhausted);
    let inc = check_equivalence_param(&naive, &opt, &cfg, &opts());
    let one = check_equivalence_param(&naive, &opt, &cfg, &opts().ablate(OneShot));
    failpoints::reset();

    let inc = inc.unwrap();
    let one = one.unwrap();
    assert!(matches!(inc.verdict, Verdict::Timeout), "incremental: {}", inc.verdict);
    assert!(matches!(one.verdict, Verdict::Timeout), "one-shot: {}", one.verdict);
}

#[test]
fn tiny_conflict_cap_does_not_crash_session() {
    let _faults = no_faults();
    // A starvation-level per-query conflict cap: verdicts may legitimately
    // be Timeout, but the session must never panic, poison the process, or
    // report a bug/proof the one-shot path contradicts.
    let naive = load(pug_kernels::transpose::NAIVE);
    let opt = load(pug_kernels::transpose::OPTIMIZED);
    let cfg = GpuConfig::symbolic(8);
    let mut o = opts();
    o.engine.max_conflicts = Some(1);
    let inc = check_equivalence_param(&naive, &opt, &cfg, &o).unwrap();
    let one = check_equivalence_param(&naive, &opt, &cfg, &o.clone().ablate(OneShot)).unwrap();
    assert_reports_agree("conflict-starved transpose", &inc, &one);
}

#[test]
fn query_cache_short_circuits_repeat_checks() {
    let _faults = no_faults();
    // Two identical checks sharing one cache: the second run's obligations
    // are all cache hits, and the verdict is unchanged.
    let naive = load(pug_kernels::transpose::NAIVE);
    let opt = load(pug_kernels::transpose::OPTIMIZED);
    let cfg = GpuConfig::symbolic(8);
    let cache = QueryCache::new();

    let first =
        check_equivalence_param(&naive, &opt, &cfg, &opts().with_query_cache(cache.clone()))
            .unwrap();
    assert!(first.verdict.is_verified());
    let h0 = cache.hits();

    let second =
        check_equivalence_param(&naive, &opt, &cfg, &opts().with_query_cache(cache.clone()))
            .unwrap();
    assert!(second.verdict.is_verified());
    assert!(
        cache.hits() > h0,
        "second run must hit the cache (hits stayed at {h0})"
    );
    // Every unsat obligation discharged in the first run is answered from
    // the cache in the second (failed-witness Sat probes are re-solved —
    // only Unsat is cached).
    let cached = second.queries.iter().filter(|q| q.stats.cached).count();
    let valid_first = first.queries.iter().filter(|q| q.outcome == "valid").count();
    assert!(
        cached >= valid_first,
        "each discharged obligation should come back from the cache \
         ({cached} cached < {valid_first} discharged)"
    );
    // And the cross-mode agreement still holds with a cache in play.
    let one = check_equivalence_param(&naive, &opt, &cfg, &opts().ablate(OneShot)).unwrap();
    assert!(same_verdict(&second.verdict, &one.verdict));
}
