//! Post-condition checking tests — the paper's §III assertion language on
//! the corpus kernels.

use pugpara::equiv::CheckOptions;
use pugpara::postcond::{check_postcondition_nonparam, check_postcondition_param};
use pugpara::{KernelUnit, Soundness, Verdict};
use pug_ir::GpuConfig;
use std::time::Duration;

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

#[test]
fn vector_add_postcond_param() {
    let unit = KernelUnit::load(pug_kernels::vector_add::WITH_POSTCOND).unwrap();
    let cfg = GpuConfig::symbolic(8);
    let report = check_postcondition_param(&unit, &cfg, &opts()).unwrap();
    for q in &report.queries {
        eprintln!("  {}: {} in {:?}", q.label, q.outcome, q.duration);
    }
    // Under-approximate, not sound: the read-coverage obligation on `c`
    // gets a counterexample from every witness shape that applies, because
    // the writer of `c[j]` sits in block `j / blockDim.x` and no shape names
    // it. A witness that names it (a mixed-radix one) makes the proof
    // sound, and this assertion then fails to show the change.
    assert!(
        matches!(report.verdict, Verdict::Verified(Soundness::UnderApprox)),
        "got {}",
        report.verdict
    );
}

#[test]
fn vector_add_postcond_nonparam() {
    let unit = KernelUnit::load(pug_kernels::vector_add::WITH_POSTCOND).unwrap();
    let cfg = GpuConfig::concrete_1d(8, 4);
    let report = check_postcondition_nonparam(&unit, &cfg, &opts()).unwrap();
    assert!(report.verdict.is_verified(), "got {}", report.verdict);
}

#[test]
fn violated_postcond_gives_witness() {
    // c[i] = a[i] + b[i] but spec demands a[i] - b[i].
    let src = r#"
void k(int *c, int *a, int *b, int n) {
    requires(n <= gridDim.x * blockDim.x);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { c[i] = a[i] + b[i]; }
    int j;
    postcond(0 <= j && j < n => c[j] == a[j] - b[j]);
}
"#;
    let unit = KernelUnit::load(src).unwrap();
    let cfg = GpuConfig::symbolic(8);
    let report = check_postcondition_param(&unit, &cfg, &opts()).unwrap();
    let bug = report.verdict.bug().expect("must find the violated postcondition");
    assert_eq!(bug.kind, pugpara::BugKind::AssertionViolation);
    assert!(!bug.witness.is_empty());
}

#[test]
fn in_kernel_assert_checked() {
    // assert inside the kernel body: thread-local property.
    let src = r#"
void k(int *c) {
    int i = threadIdx.x;
    assert(i < blockDim.x);
    c[i] = i;
}
"#;
    let unit = KernelUnit::load(src).unwrap();
    let cfg = GpuConfig::symbolic(8);
    let report = check_postcondition_param(&unit, &cfg, &opts()).unwrap();
    assert!(report.verdict.is_verified(), "got {}", report.verdict);
}

#[test]
fn failing_assert_found() {
    let src = r#"
void k(int *c) {
    int i = threadIdx.x;
    assert(i < 4);
    c[i] = i;
}
"#;
    let unit = KernelUnit::load(src).unwrap();
    let cfg = GpuConfig::symbolic(8); // blockDim.x symbolic: i can be ≥ 4
    let report = check_postcondition_param(&unit, &cfg, &opts()).unwrap();
    assert!(report.verdict.is_bug(), "got {}", report.verdict);
}

#[test]
fn transpose_postcond_nonparam_concrete() {
    // The §II postcondition on the naive transpose, concrete 2×2 block and
    // concretized sizes (the matrix exactly covered by the grid).
    let unit = KernelUnit::load(pug_kernels::transpose::NAIVE_WITH_POSTCOND).unwrap();
    let cfg = GpuConfig::concrete_2d(8, 2, 2);
    let o = opts().concretized("width", 2).concretized("height", 2);
    let report = check_postcondition_nonparam(&unit, &cfg, &o).unwrap();
    assert!(report.verdict.is_verified(), "got {}", report.verdict);
}

#[test]
fn param_loops_need_concretization() {
    let unit = KernelUnit::load(pug_kernels::scan::NAIVE_WITH_POSTCOND).unwrap();
    let cfg = GpuConfig::symbolic(8);
    // Loop-bearing kernel: the parameterized postcondition path refuses.
    assert!(check_postcondition_param(&unit, &cfg, &opts()).is_err());
}

#[test]
fn scan_postcond_nonparam() {
    let unit = KernelUnit::load(pug_kernels::scan::NAIVE_WITH_POSTCOND).unwrap();
    let cfg = GpuConfig::concrete_1d(8, 4);
    let report = check_postcondition_nonparam(&unit, &cfg, &opts()).unwrap();
    assert!(report.verdict.is_verified(), "got {}", report.verdict);
}
