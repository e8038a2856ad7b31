//! Fault-injection integration suite: the resilient runner must survive
//! solver panics, injected budget exhaustion, spurious Unknowns and
//! external cancellation — descending the degradation ladder, carrying
//! provenance, and never aborting or hanging past the watchdog.
//!
//! Failpoints are process-global, so every test takes `FAULT_LOCK` and
//! resets the registry on drop (even on assertion failure).

use pugpara::failpoints::{self, Fault};
use pugpara::runner::{run_resilient, Rung, RungOutcome, RunnerOptions};
use pugpara::{KernelUnit, Soundness, Verdict};
use pug_ir::GpuConfig;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault tests and guarantees `failpoints::reset()` on exit.
struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultScope {
    fn armed(sites: &[(&str, Fault)]) -> FaultScope {
        let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoints::reset();
        for &(site, fault) in sites {
            failpoints::arm(site, fault);
        }
        FaultScope(guard)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

fn transpose_pair() -> (KernelUnit, KernelUnit) {
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let buggy = KernelUnit::load(pug_kernels::transpose::BUGGY_ADDR).unwrap();
    (naive, buggy)
}

fn outcome_of(report: &pugpara::ResilientReport, rung: Rung) -> &RungOutcome {
    &report
        .provenance
        .rungs
        .iter()
        .find(|r| r.rung == rung)
        .unwrap_or_else(|| panic!("no record for rung {rung}"))
        .outcome
}

/// A panicking Param rung is caught, recorded, and the ladder answers on a
/// lower rung with the soundness downgrade attached.
#[test]
fn ladder_survives_param_rung_panic() {
    let _scope = FaultScope::armed(&[("runner::param", Fault::Panic)]);
    let (naive, _) = transpose_pair();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert!(
        matches!(outcome_of(&report, Rung::Param), RungOutcome::Crashed(_)),
        "Param must be recorded as crashed: {}",
        report.provenance.render()
    );
    assert!(report.verdict.is_verified(), "{}", report.provenance.render());
    assert_eq!(report.provenance.answered_by, Some(Rung::NonParam { n: 4 }));
    assert!(
        report.provenance.soundness_note.is_some(),
        "a NonParam answer must carry a downgrade note"
    );
    assert!(matches!(
        report.verdict,
        pugpara::Verdict::Verified(pugpara::Soundness::UnderApprox)
    ));
}

/// Injected budget exhaustion at a rung behaves exactly like a timeout.
#[test]
fn injected_exhaustion_is_a_rung_timeout() {
    let _scope = FaultScope::armed(&[("runner::param", Fault::BudgetExhausted)]);
    let (naive, _) = transpose_pair();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert!(matches!(outcome_of(&report, Rung::Param), RungOutcome::Timeout));
    assert!(report.verdict.is_verified(), "{}", report.provenance.render());
    assert_eq!(report.provenance.answered_by, Some(Rung::NonParam { n: 4 }));
}

/// A panic *inside the SAT solver* (not at a runner site) is still caught
/// at the rung boundary and the ladder keeps descending. Rungs whose
/// queries the rewriter discharges without the SAT solver may still answer
/// (that is the degradation ladder working); the hard guarantees are that
/// every solver-reaching rung records a crash, nothing aborts the process,
/// and any adopted verdict is honestly downgraded.
#[test]
fn solver_panic_poisons_every_rung_but_never_aborts() {
    let _scope = FaultScope::armed(&[("sat::solve", Fault::Panic)]);
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let opt = KernelUnit::load(pug_kernels::transpose::OPTIMIZED).unwrap();
    let report =
        run_resilient(&naive, &opt, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    // The fully parameterized proof needs the solver, so rung one crashes.
    assert!(
        matches!(outcome_of(&report, Rung::Param), RungOutcome::Crashed(_)),
        "{}",
        report.provenance.render()
    );
    match report.provenance.answered_by {
        // A weaker rung got through without SAT: verdict must be downgraded.
        Some(rung) => {
            assert_ne!(rung, Rung::Param, "{}", report.provenance.render());
            assert!(report.provenance.soundness_note.is_some());
            assert!(!report.verdict.is_bug(), "no bug exists in this pair");
        }
        // Or every rung needed the solver: full history, Timeout verdict.
        None => {
            assert!(report.verdict.is_timeout(), "{}", report.provenance.render());
            for r in &report.provenance.rungs {
                assert!(
                    matches!(
                        r.outcome,
                        RungOutcome::Crashed(_) | RungOutcome::Timeout | RungOutcome::Skipped(_)
                    ),
                    "rung {} escaped the fault: {}",
                    r.rung,
                    r.outcome
                );
            }
        }
    }
}

/// Spurious Unknowns from the SMT layer look like timeouts on every rung;
/// disarming restores normal operation in the same process (sticky faults
/// do not leak).
#[test]
fn spurious_unknown_descends_then_recovers() {
    let (naive, _) = transpose_pair();
    let cfg = GpuConfig::symbolic_2d(8);
    {
        let _scope = FaultScope::armed(&[("smt::check", Fault::SpuriousUnknown)]);
        let report = run_resilient(&naive, &naive, &cfg, &RunnerOptions::default());
        assert!(report.verdict.is_timeout(), "{}", report.provenance.render());
        for r in &report.provenance.rungs {
            assert!(
                matches!(r.outcome, RungOutcome::Timeout | RungOutcome::Skipped(_)),
                "rung {}: {}",
                r.rung,
                r.outcome
            );
        }
    }
    // Registry is clean again: the very same check now proves on rung one.
    let _scope = FaultScope::armed(&[]);
    let report = run_resilient(&naive, &naive, &cfg, &RunnerOptions::default());
    assert_eq!(report.provenance.answered_by, Some(Rung::Param));
    assert!(report.verdict.is_verified());
    assert!(report.provenance.soundness_note.is_none());
}

/// Bugs found on a fallback rung are reported as bugs — a crash above must
/// not mask a real non-equivalence below.
#[test]
fn bug_survives_faulted_upper_rungs() {
    let _scope = FaultScope::armed(&[("runner::param", Fault::Panic)]);
    let (naive, buggy) = transpose_pair();
    let report =
        run_resilient(&naive, &buggy, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert!(report.verdict.is_bug(), "{}", report.provenance.render());
    assert!(matches!(report.provenance.answered_by, Some(Rung::NonParam { .. })));
}

/// The Param+C rung is exercised when concretizations are configured: with
/// Param faulted, the pinned-parameter rung answers and the verdict is
/// downgraded accordingly.
#[test]
fn concretized_rung_catches_param_fault() {
    let _scope = FaultScope::armed(&[("runner::param", Fault::BudgetExhausted)]);
    let (naive, _) = transpose_pair();
    let opts = RunnerOptions::default().concretized("width", 8).concretized("height", 8);
    let report = run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &opts);

    assert_eq!(
        report.provenance.answered_by,
        Some(Rung::ParamConcretized),
        "{}",
        report.provenance.render()
    );
    assert!(matches!(
        report.verdict,
        pugpara::Verdict::Verified(pugpara::Soundness::UnderApprox)
    ));
    assert!(report.provenance.soundness_note.as_deref().unwrap_or("").contains("pinned"));
}

/// A degradation fault inside SAT preprocessing (`sat::simplify`) aborts
/// the pass but never the answer: skipping BVE/subsumption is always
/// sound, so the Param rung still proves the pair — preprocessing
/// can stall neither the verdict nor the watchdog.
#[test]
fn aborted_preprocessing_still_answers_on_param() {
    let _scope = FaultScope::armed(&[("sat::simplify", Fault::BudgetExhausted)]);
    let (naive, _) = transpose_pair();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert_eq!(
        report.provenance.answered_by,
        Some(Rung::Param),
        "{}",
        report.provenance.render()
    );
    assert!(report.verdict.is_verified(), "{}", report.provenance.render());
    assert!(report.provenance.soundness_note.is_none());
}

/// A panic inside the preprocessing passes is caught at the rung boundary
/// exactly like a solver panic: the rung records a crash, the process never
/// aborts, and any adopted fallback verdict is honestly downgraded.
#[test]
fn simplify_panic_is_contained_at_the_rung_boundary() {
    let _scope = FaultScope::armed(&[("sat::simplify", Fault::Panic)]);
    let (naive, _) = transpose_pair();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert!(
        matches!(outcome_of(&report, Rung::Param), RungOutcome::Crashed(_)),
        "{}",
        report.provenance.render()
    );
    match report.provenance.answered_by {
        Some(rung) => {
            assert_ne!(rung, Rung::Param, "{}", report.provenance.render());
            assert!(report.provenance.soundness_note.is_some());
            assert!(!report.verdict.is_bug(), "no bug exists in this pair");
        }
        None => {
            assert!(report.verdict.is_timeout(), "{}", report.provenance.render());
        }
    }
}

/// Ladder runs are bounded in wall-clock even when every rung times out:
/// per-rung watchdog deadlines keep the whole descent under
/// rungs × (timeout + grace).
#[test]
fn faulted_ladder_finishes_promptly() {
    let _scope = FaultScope::armed(&[("smt::check", Fault::SpuriousUnknown)]);
    let (naive, _) = transpose_pair();
    let opts = RunnerOptions {
        rung_timeout: Some(Duration::from_secs(5)),
        ..RunnerOptions::default()
    };
    let started = std::time::Instant::now();
    let report = run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &opts);
    assert!(report.verdict.is_timeout());
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "faulted ladder took {:?}",
        started.elapsed()
    );
}

/// Param panics while NonParam exhausts its budget: both faults are
/// recorded on their own rungs and the last rung, FastBugHunt, still
/// answers with the honest under-approximate downgrade.
#[test]
fn fastbughunt_answers_below_two_faulted_rungs() {
    let _scope = FaultScope::armed(&[
        ("runner::param", Fault::Panic),
        ("runner::nonparam", Fault::BudgetExhausted),
    ]);
    let (naive, _) = transpose_pair();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());

    assert!(
        matches!(outcome_of(&report, Rung::Param), RungOutcome::Crashed(_)),
        "{}",
        report.provenance.render()
    );
    assert!(
        matches!(outcome_of(&report, Rung::NonParam { n: 4 }), RungOutcome::Timeout),
        "{}",
        report.provenance.render()
    );
    assert_eq!(report.provenance.answered_by, Some(Rung::FastBugHunt));
    assert!(matches!(report.verdict, Verdict::Verified(Soundness::UnderApprox)));
}

/// A parent token cancelled before the run starts stops every rung: the
/// pair that otherwise proves on Param answers on no rung at all.
#[test]
fn cancelled_parent_stops_every_rung() {
    let _scope = FaultScope::armed(&[]);
    let (naive, _) = transpose_pair();
    let opts = RunnerOptions::default();
    opts.cancel.cancel();
    let report = run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &opts);

    assert!(matches!(report.verdict, Verdict::Timeout), "{}", report.provenance.render());
    assert_eq!(report.provenance.answered_by, None);
    assert!(
        report.provenance.rungs.iter().all(|r| !matches!(r.outcome, RungOutcome::Answered)),
        "{}",
        report.provenance.render()
    );
}

/// 32-bit multiplication distributivity: every rung of this pair runs far
/// past a 200 ms budget, so each rung's watchdog trips.
const MUL_DIST_SRC: &str = r#"
__global__ void mulDist(int *d, int *a, int *b, int *c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = (a[i] + b[i]) * c[i];
    }
}
"#;
const MUL_DIST_TGT: &str = r#"
__global__ void mulDist(int *d, int *a, int *b, int *c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = a[i] * c[i] + b[i] * c[i];
    }
}
"#;

/// A rung's watchdog trips that rung's own token, never the parent: after
/// every rung timed out, the parent token is still live.
#[test]
fn rung_watchdog_never_cancels_the_parent() {
    let _scope = FaultScope::armed(&[]);
    let src = KernelUnit::load(MUL_DIST_SRC).unwrap();
    let tgt = KernelUnit::load(MUL_DIST_TGT).unwrap();
    let opts = RunnerOptions::with_rung_timeout(Duration::from_millis(200));
    let report = run_resilient(&src, &tgt, &GpuConfig::symbolic_1d(32), &opts);

    assert!(
        matches!(outcome_of(&report, Rung::Param), RungOutcome::Timeout),
        "{}",
        report.provenance.render()
    );
    assert!(!opts.cancel.is_cancelled(), "a rung watchdog cancelled the parent token");
}

/// The aux passes run under children of the parent token too: with the
/// parent cancelled, every pass finishes promptly. Live, the race pass on
/// this pair reports a write-write race on `d` (32-bit index wrap); here
/// it must report a timeout instead.
#[test]
fn cancelled_parent_stops_the_aux_passes() {
    let _scope = FaultScope::armed(&[]);
    let src = KernelUnit::load(MUL_DIST_SRC).unwrap();
    let tgt = KernelUnit::load(MUL_DIST_TGT).unwrap();
    let opts = RunnerOptions::with_rung_timeout(Duration::from_secs(60)).with_aux_passes();
    opts.cancel.cancel();
    let started = Instant::now();
    let report = run_resilient(&src, &tgt, &GpuConfig::symbolic_1d(32), &opts);

    assert_eq!(report.provenance.passes.len(), 3, "{}", report.provenance.render());
    for p in &report.provenance.passes {
        assert!(p.elapsed < Duration::from_secs(5), "{} took {:?}", p.pass, p.elapsed);
    }
    let race = &report.provenance.passes[0];
    assert_eq!(race.pass, "race");
    assert!(race.summary.contains("timeout"), "{}", report.provenance.render());
    assert!(started.elapsed() < Duration::from_secs(10), "took {:?}", started.elapsed());
}
