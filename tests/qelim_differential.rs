//! Differential suite for the generalized (Presburger) quantifier
//! elimination: the new engine must never *change* an answer — only move
//! it up the ladder.
//!
//! * On every corpus pair and on fuzzed `KernelGen` kernels, checking with
//!   the elimination on and under `Ablation::NoGeneralizedQelim`
//!   (× incremental/one-shot backends) returns identically rendered
//!   verdicts at the `Param` rung whenever both sides can run it.
//! * The grid-stride pair is the rung-improvement witness: with the
//!   generalized elimination the `Param` rung proves it sound for every
//!   block size; without it the rung fails on the symbolic-stride loop and
//!   the ladder descends to `NonParam(4)` with downgrade provenance.
//! * With the elimination off, the rung degrades to the legacy
//!   residual-drop path (same downgrade note, `qelim.residual_dropped`
//!   counted), never to a wrong answer.

use pug_ir::GpuConfig;
use pug_obs::MetricsRegistry;
use pug_testutil::KernelGen;
use pugpara::equiv::Ablation::{NoGeneralizedQelim, OneShot};
use pugpara::equiv::{check_equivalence_param, CheckOptions};
use pugpara::runner::{run_resilient, Rung, RungOutcome, RunnerOptions};
use pugpara::{KernelUnit, Verdict};
use std::time::Duration;

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
    for (label, src, tgt, cfg) in both_sides_corpus() {
        let reference = check_equivalence_param(&src, &tgt, &cfg, &opts()).unwrap();
        for one_shot in [false, true] {
            for qelim_off in [false, true] {
                let mut o = opts();
                if one_shot {
                    o = o.ablate(OneShot);
                }
                if qelim_off {
                    o = o.ablate(NoGeneralizedQelim);
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
    for i in 0..12u64 {
        let src = if i % 2 == 0 {
            KernelGen::basic(i * 13 + 1).kernel()
        } else {
            KernelGen::extended(i * 71 + 9).kernel()
        };
        let unit = load(&src);
        let cfg = GpuConfig::symbolic_1d(8);
        let on = run_resilient(&unit, &unit, &cfg, &RunnerOptions::default());
        let off_opts = RunnerOptions::default().ablate(NoGeneralizedQelim);
        let off = run_resilient(&unit, &unit, &cfg, &off_opts);
        assert_eq!(
            format!("{}", on.verdict),
            format!("{}", off.verdict),
            "seed {i}: ladder verdict diverges with the elimination off\n{src}"
        );
        for one_shot in [false, true] {
            let mut a = opts();
            let mut b = opts().ablate(NoGeneralizedQelim);
            if one_shot {
                a = a.ablate(OneShot);
                b = b.ablate(OneShot);
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

    let off_opts = RunnerOptions::default().ablate(NoGeneralizedQelim);
    let off = run_resilient(&src, &tgt, &cfg, &off_opts);
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

/// Running the stride pair with the elimination off (the per-call switch
/// that replaced the process-wide `core::qelim` failpoint) degrades to the
/// legacy residual-drop path: the `Param` rung fails, the ladder answers at
/// `NonParam(4)` with downgrade provenance, and the drop is counted.
#[test]
fn qelim_failpoint_degrades_with_provenance() {
    let src = load(pug_kernels::stride::GRID_STRIDE);
    let tgt = load(pug_kernels::stride::GRID_STRIDE_REASSOC);
    let cfg = GpuConfig::symbolic_1d(8);
    let metrics = MetricsRegistry::new();
    let opts = RunnerOptions::default().ablate(NoGeneralizedQelim).with_metrics(metrics.clone());

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
        "Param must fail without the elimination, got {}",
        param.outcome
    );
    let note = r.provenance.soundness_note.as_deref().unwrap();
    assert!(note.contains("n=4"), "downgrade note must pin the thread count, got: {note}");

    let snap = metrics.snapshot();
    assert!(
        snap.counter("qelim.residual_dropped") >= 1,
        "the legacy path must count its residual drops"
    );
    assert_eq!(snap.counter("qelim.generalized"), 0, "no elimination may succeed while ablated");
}
