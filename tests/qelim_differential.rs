//! Differential suite for the generalized (Presburger) quantifier
//! elimination: the new engine must never *change* an answer — only move
//! it up the ladder.
//!
//! * On every corpus pair and on fuzzed `KernelGen` kernels, checking with
//!   `generalized_qelim` on and off (× incremental/one-shot backends)
//!   returns identically rendered verdicts at the `Param` rung whenever both sides can run it.
//! * The grid-stride pair is the rung-improvement witness: with the
//!   generalized elimination the `Param` rung proves it sound for every
//!   block size; without it the rung fails on the symbolic-stride loop and
//!   the ladder descends to `NonParam(4)` with downgrade provenance.
//! * The `core::qelim` failpoint aborts the elimination mid-run: the rung
//!   must degrade to the legacy residual-drop path (same downgrade note,
//!   `qelim.residual_dropped` counted), never to a wrong answer.
//!
//! Failpoints are process-global and this binary's tests run concurrently,
//! so every test takes `FAULT_LOCK` (armed or not).

use pug_ir::GpuConfig;
use pug_obs::MetricsRegistry;
use pug_testutil::KernelGen;
use pugpara::equiv::{check_equivalence_param, CheckOptions};
use pugpara::failpoints::{self, Fault};
use pugpara::runner::{run_resilient, Rung, RungOutcome, RunnerOptions};
use pugpara::{KernelUnit, Verdict};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

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

    fn clean() -> FaultScope {
        FaultScope::armed(&[])
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).unwrap()
}

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

/// Corpus pairs where the `Param` rung runs with the elimination both on
/// and off (no symbolic-stride loops — those are exercised separately,
/// because without the generalized elimination the rung *must* fail).
fn both_sides_corpus() -> Vec<(&'static str, KernelUnit, KernelUnit, GpuConfig)> {
    vec![
        (
            "transpose ok",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::OPTIMIZED),
            GpuConfig::symbolic(8),
        ),
        (
            "transpose buggy addr",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::BUGGY_ADDR),
            GpuConfig::symbolic(8),
        ),
        (
            "transpose unconstrained",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::OPTIMIZED_UNCONSTRAINED),
            GpuConfig::symbolic(8),
        ),
        (
            "reduction v0/v1",
            load(pug_kernels::reduction::V0),
            load(pug_kernels::reduction::V1),
            GpuConfig::symbolic_1d(8),
        ),
        (
            "vector_add self",
            load(pug_kernels::vector_add::KERNEL),
            load(pug_kernels::vector_add::KERNEL),
            GpuConfig::symbolic_1d(8),
        ),
        (
            "vector_add buggy",
            load(pug_kernels::vector_add::KERNEL),
            load(pug_kernels::vector_add::BUGGY),
            GpuConfig::symbolic_1d(8),
        ),
    ]
}

/// The full on/off × incremental/one-shot grid over corpus pairs:
/// rendered verdicts must agree cell by cell.
#[test]
fn corpus_grid_verdicts_identical() {
    let _scope = FaultScope::clean();
    for (label, src, tgt, cfg) in both_sides_corpus() {
        let reference = check_equivalence_param(&src, &tgt, &cfg, &opts()).unwrap();
        for one_shot in [false, true] {
            for qelim_off in [false, true] {
                let mut o = opts();
                if one_shot {
                    o = o.one_shot();
                }
                if qelim_off {
                    o = o.no_generalized_qelim();
                }
                let r = check_equivalence_param(&src, &tgt, &cfg, &o).unwrap();
                assert_eq!(
                    format!("{}", r.verdict),
                    format!("{}", reference.verdict),
                    "{label}: verdict diverges at one_shot={one_shot} qelim_off={qelim_off}"
                );
            }
        }
    }
}

/// Fuzzed kernels: self-equivalence through the ladder must agree with
/// the elimination on and off.
#[test]
fn kernelgen_grid_verdicts_identical() {
    let _scope = FaultScope::clean();
    for i in 0..12u64 {
        let src = if i % 2 == 0 {
            KernelGen::basic(i * 13 + 1).kernel()
        } else {
            KernelGen::extended(i * 71 + 9).kernel()
        };
        let unit = load(&src);
        let cfg = GpuConfig::symbolic_1d(8);
        let on = run_resilient(&unit, &unit, &cfg, &RunnerOptions::default());
        let off =
            run_resilient(&unit, &unit, &cfg, &RunnerOptions::default().no_generalized_qelim());
        assert_eq!(
            format!("{}", on.verdict),
            format!("{}", off.verdict),
            "seed {i}: ladder verdict diverges with the elimination off\n{src}"
        );
        for one_shot in [false, true] {
            let mut a = opts();
            let mut b = opts().no_generalized_qelim();
            if one_shot {
                a = a.one_shot();
                b = b.one_shot();
            }
            let ra = check_equivalence_param(&unit, &unit, &cfg, &a).unwrap();
            let rb = check_equivalence_param(&unit, &unit, &cfg, &b).unwrap();
            assert_eq!(
                format!("{}", ra.verdict),
                format!("{}", rb.verdict),
                "seed {i}: Param verdict diverges (one_shot={one_shot})\n{src}"
            );
        }
    }
}

/// The headline: the symbolic-stride pair answers at `Param` (sound, for
/// every block size) with the generalized elimination, and only at
/// `NonParam(4)` (with downgrade provenance) without it.
#[test]
fn stride_pair_improves_rung() {
    let _scope = FaultScope::clean();
    let src = load(pug_kernels::stride::GRID_STRIDE);
    let tgt = load(pug_kernels::stride::GRID_STRIDE_REASSOC);
    let cfg = GpuConfig::symbolic_1d(8);

    let on = run_resilient(&src, &tgt, &cfg, &RunnerOptions::default());
    assert_eq!(on.provenance.answered_by, Some(Rung::Param), "{}", on.provenance.render());
    assert!(
        matches!(on.verdict, Verdict::Verified(pugpara::Soundness::Sound)),
        "generalized elimination must prove the stride pair sound, got {}",
        on.verdict
    );
    assert!(on.provenance.soundness_note.is_none());

    let off = run_resilient(&src, &tgt, &cfg, &RunnerOptions::default().no_generalized_qelim());
    assert_eq!(
        off.provenance.answered_by,
        Some(Rung::NonParam { n: 4 }),
        "{}",
        off.provenance.render()
    );
    assert!(off.verdict.is_verified(), "got {}", off.verdict);
    let param = off.provenance.rungs.iter().find(|r| r.rung == Rung::Param).unwrap();
    match &param.outcome {
        RungOutcome::Failed(m) => assert!(
            m.contains("Presburger") || m.contains("configuration-only"),
            "Param failure must blame the missing elimination, got: {m}"
        ),
        o => panic!("Param rung must fail without the elimination, got {o}"),
    }
    let note = off.provenance.soundness_note.as_deref().unwrap();
    assert!(note.contains("n=4"), "downgrade note must pin the thread count, got: {note}");
}

/// Aborting the elimination mid-run via the `core::qelim` failpoint
/// degrades to the legacy residual-drop path: same downgrade provenance as
/// turning the flag off, and the drop is counted.
#[test]
fn qelim_failpoint_degrades_with_provenance() {
    let _scope = FaultScope::armed(&[("core::qelim", Fault::BudgetExhausted)]);
    let src = load(pug_kernels::stride::GRID_STRIDE);
    let tgt = load(pug_kernels::stride::GRID_STRIDE_REASSOC);
    let cfg = GpuConfig::symbolic_1d(8);
    let metrics = MetricsRegistry::new();
    let opts = RunnerOptions::default().with_metrics(metrics.clone());

    let r = run_resilient(&src, &tgt, &cfg, &opts);
    assert_eq!(
        r.provenance.answered_by,
        Some(Rung::NonParam { n: 4 }),
        "{}",
        r.provenance.render()
    );
    assert!(r.verdict.is_verified(), "got {}", r.verdict);
    let param = r.provenance.rungs.iter().find(|rr| rr.rung == Rung::Param).unwrap();
    assert!(
        matches!(param.outcome, RungOutcome::Failed(_)),
        "Param must fail when the elimination faults, got {}",
        param.outcome
    );
    let note = r.provenance.soundness_note.as_deref().unwrap();
    assert!(note.contains("n=4"), "downgrade note must pin the thread count, got: {note}");

    let snap = metrics.snapshot();
    assert!(
        snap.counter("qelim.residual_dropped") >= 1,
        "the aborted elimination must count its residual drops"
    );
    assert_eq!(snap.counter("qelim.generalized"), 0, "no elimination may succeed while faulted");
}
