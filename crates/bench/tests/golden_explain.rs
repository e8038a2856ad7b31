//! Golden snapshots for the verdict-explanation renderer.
//!
//! Each case runs a real verification and pins the *stable* explain
//! rendering (`ExplainOptions::stable()` — no times, no counts on
//! budget-limited rungs) against `tests/golden_explain/<name>.txt`. The
//! narrative is part of the tool's user interface: a reworded residue
//! story, a lost ladder rung, or a dropped witness is a regression even
//! when the verdict is still right.
//!
//! Covered: every pair of the explain corpus (a sound Param proof, a
//! deadline-driven NonParam fallback, three bug classes), a FastBugHunt
//! bug found with every stronger rung exhausted, a budget-exhausted
//! Unknown, and an auxiliary-pass narrative.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pug-bench --test golden_explain
//! ```
//!
//! then review the diff like any other code change.

use pug_bench::explain_corpus;
use pugpara::failpoints::{self, Fault};
use pugpara::runner::{run_resilient, RunnerOptions};
use pugpara::{explain_report, explain_with, ExplainOptions, KernelUnit};
use pug_ir::GpuConfig;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

struct Scope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Scope {
    fn armed(sites: &[(&str, Fault)]) -> Scope {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoints::reset();
        for &(site, fault) in sites {
            failpoints::arm(site, fault);
        }
        Scope(guard)
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

/// Every golden case name, in one place: the corpus pair slugs plus the
/// scenario cases. The orphan check walks this list.
const CORPUS_CASES: &[&str] = &[
    "transpose_c_8b",
    "transpose_c_16b",
    "reduction_v0_v1_8b",
    "transpose_bug_16b",
    "reduction_bug_8b",
    "vectoradd_bug_8b",
];
const SCENARIO_CASES: &[&str] = &[
    "param_proof",
    "stride_param_proof",
    "fastbughunt_bug",
    "budget_exhausted_unknown",
    "aux_passes",
];

/// Grid pair name -> snapshot file stem.
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_explain")
        .join(format!("{name}.txt"))
}

/// Compare (or, under `UPDATE_GOLDEN=1`, record) one snapshot.
fn check_golden(name: &str, actual: &str) -> Result<(), String> {
    pug_testutil::check_golden(&golden_path(name), actual)
}

fn stable(report: &pugpara::ResilientReport) -> String {
    explain_with(report, &ExplainOptions::stable())
}

/// All six pairs of the explain corpus, ladder narratives only (no
/// auxiliary passes: on the deadline-bound rows their budgeted queries
/// are not run-to-run stable).
#[test]
fn corpus_pair_narratives_match_golden_files() {
    let _scope = Scope::armed(&[]);
    let corpus = explain_corpus(false, false);
    assert_eq!(corpus.len(), CORPUS_CASES.len(), "grid size drifted — update CORPUS_CASES");
    let mut failures = Vec::new();
    for (name, report) in &corpus {
        let stem = slug(name);
        assert!(
            CORPUS_CASES.contains(&stem.as_str()),
            "pair {name} (slug {stem}) missing from CORPUS_CASES"
        );
        if let Err(e) = check_golden(&stem, &stable(report)) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{} golden mismatches:\n{}", failures.len(), failures.join("\n"));
}

/// A sound parameterized proof: identical kernels, Param answers first.
#[test]
fn param_proof_narrative_matches_golden() {
    let _scope = Scope::armed(&[]);
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());
    assert!(report.verdict.is_verified(), "{}", explain_report(&report));
    check_golden("param_proof", &stable(&report)).unwrap();
}

/// A sound parameterized proof over a symbolic-stride loop: membership in
/// the grid-stride pair's iteration space is a divisibility constraint on
/// the block size, and this narrative pins the Param rung answering it.
#[test]
fn stride_param_proof_narrative_matches_golden() {
    let _scope = Scope::armed(&[]);
    let src = KernelUnit::load(pug_kernels::stride::GRID_STRIDE).unwrap();
    let tgt = KernelUnit::load(pug_kernels::stride::GRID_STRIDE_REASSOC).unwrap();
    let report = run_resilient(&src, &tgt, &GpuConfig::symbolic_1d(8), &RunnerOptions::default());
    assert!(report.verdict.is_verified(), "{}", explain_report(&report));
    assert!(report.provenance.soundness_note.is_none(), "{}", explain_report(&report));
    check_golden("stride_param_proof", &stable(&report)).unwrap();
}

/// FastBugHunt finds the bug with every stronger rung exhausted: the
/// narrative must walk the failed ladder and still render the witness.
#[test]
fn fastbughunt_bug_narrative_matches_golden() {
    let _scope = Scope::armed(&[
        ("runner::param", Fault::BudgetExhausted),
        ("runner::param_c", Fault::BudgetExhausted),
        ("runner::nonparam", Fault::BudgetExhausted),
    ]);
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let buggy = KernelUnit::load(pug_kernels::transpose::BUGGY_ADDR).unwrap();
    let report =
        run_resilient(&naive, &buggy, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());
    assert!(report.verdict.is_bug(), "{}", explain_report(&report));
    check_golden("fastbughunt_bug", &stable(&report)).unwrap();
}

/// Every rung exhausted: the narrative must state the Unknown honestly.
#[test]
fn budget_exhausted_narrative_matches_golden() {
    let _scope = Scope::armed(&[
        ("runner::param", Fault::BudgetExhausted),
        ("runner::param_c", Fault::BudgetExhausted),
        ("runner::nonparam", Fault::BudgetExhausted),
        ("runner::fastbughunt", Fault::BudgetExhausted),
    ]);
    let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
    let report =
        run_resilient(&naive, &naive, &GpuConfig::symbolic_2d(8), &RunnerOptions::default());
    assert!(report.verdict.is_timeout(), "{}", explain_report(&report));
    check_golden("budget_exhausted_unknown", &stable(&report)).unwrap();
}

/// Auxiliary passes in the narrative, on a pair cheap enough that every
/// pass answers well inside any budget.
#[test]
fn aux_pass_narrative_matches_golden() {
    let _scope = Scope::armed(&[]);
    let ok = KernelUnit::load(pug_kernels::vector_add::KERNEL).unwrap();
    let buggy = KernelUnit::load(pug_kernels::vector_add::BUGGY).unwrap();
    let opts = RunnerOptions::default().with_aux_passes();
    let report = run_resilient(&ok, &buggy, &GpuConfig::symbolic_1d(8), &opts);
    assert!(!report.provenance.passes.is_empty(), "aux passes did not run");
    check_golden("aux_passes", &stable(&report)).unwrap();
}

/// Meta-check: no orphaned golden files for deleted cases.
#[test]
fn no_orphaned_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_explain");
    let Ok(entries) = fs::read_dir(&dir) else {
        return; // nothing recorded yet
    };
    for entry in entries {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        assert!(
            CORPUS_CASES.contains(&stem.as_str()) || SCENARIO_CASES.contains(&stem.as_str()),
            "orphaned golden file {} — delete it or re-add its case",
            path.display()
        );
    }
}
