//! Verdict explanation reports.
//!
//! [`explain_report`] turns a [`ResilientReport`] into a human-readable
//! narrative: the verdict and its soundness, the degradation-ladder walk
//! (which rungs ran, which answered, which were skipped or failed),
//! the answering rung's query families, the disposition of the residual
//! quantified formulas, any counterexample witness, the auxiliary analysis
//! passes, and — optionally — where the wall-clock budget went.
//!
//! Two modes: [`ExplainOptions::default`] includes timing and search-effort
//! numbers; [`ExplainOptions::stable`] omits everything that varies from
//! run to run (times, query counts on budget-limited rungs, cache-hit
//! splits) so the output can be pinned by golden snapshot tests.

use crate::equiv::QueryStat;
use crate::runner::{PassRecord, ResilientReport, RungOutcome, RungRecord};
use crate::verdict::{Soundness, Verdict};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Rendering options for [`explain_with`].
#[derive(Clone, Copy, Debug)]
pub struct ExplainOptions {
    /// Include wall-clock times, per-rung budget breakdown, aggregate SAT
    /// search effort, and query counts on budget-limited rungs. All of
    /// these vary run-to-run; turn this off for snapshot-stable output.
    pub show_times: bool,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions { show_times: true }
    }
}

impl ExplainOptions {
    /// Deterministic output: no times, no counts on non-answered rungs.
    pub fn stable() -> Self {
        ExplainOptions { show_times: false }
    }
}

/// Render the full narrative with times (see [`explain_with`]).
pub fn explain_report(report: &ResilientReport) -> String {
    explain_with(report, &ExplainOptions::default())
}

/// Render a [`ResilientReport`] as a verdict narrative.
pub fn explain_with(report: &ResilientReport, opts: &ExplainOptions) -> String {
    let mut out = String::new();
    let prov = &report.provenance;

    // --- Verdict header -----------------------------------------------
    let _ = writeln!(out, "verdict: {}", report.verdict);
    if let Some(rung) = prov.answered_by {
        let _ = writeln!(out, "answered by: {rung}");
    }
    if let Some(note) = &prov.soundness_note {
        let _ = writeln!(out, "note: {note}");
    }

    // --- Ladder walk --------------------------------------------------
    let _ = writeln!(out, "\nladder:");
    for r in &prov.rungs {
        let _ = writeln!(out, "  {:<16} {}", r.rung.to_string(), rung_story(r, opts));
    }

    // --- Query families of the answering rung -------------------------
    if let Some(answered) = prov.answered_by {
        if let Some(r) = prov.rungs.iter().find(|r| r.rung == answered) {
            if !r.stats.is_empty() {
                let _ = writeln!(out, "\nqueries ({answered}):");
                out.push_str(&family_table(&r.stats, opts));
            }
        }
    }

    // --- Residual-formula disposition ---------------------------------
    let _ = writeln!(out, "\nresidual quantified formulas:");
    let _ = writeln!(out, "  {}", residue_story(&report.verdict));

    // --- Counterexample witness ---------------------------------------
    if let Verdict::Bug(bug) = &report.verdict {
        let _ = writeln!(out, "\ncounterexample:");
        for line in bug.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }

    // --- Auxiliary passes ---------------------------------------------
    if !prov.passes.is_empty() {
        let _ = writeln!(out, "\nauxiliary passes:");
        for p in &prov.passes {
            out.push_str(&pass_line(p, opts));
        }
    }

    // --- Budget -------------------------------------------------------
    if opts.show_times {
        let _ = writeln!(out, "\nbudget:");
        let mut effort = pug_sat::Stats::default();
        let mut gates_hashconsed: u64 = 0;
        let mut rewrite_discharged: u64 = 0;
        for r in &prov.rungs {
            if matches!(r.outcome, RungOutcome::Skipped(_)) {
                continue;
            }
            let solve: f64 = r.stats.iter().map(|q| q.duration.as_secs_f64()).sum();
            let _ = writeln!(
                out,
                "  {:<16} {:>7.2}s wall  {:>7.2}s in queries  ({})",
                r.rung.to_string(),
                r.elapsed.as_secs_f64(),
                solve,
                count_queries(r.queries),
            );
            for q in &r.stats {
                effort.merge(&q.stats.sat);
                gates_hashconsed += q.stats.gates_hashconsed;
                rewrite_discharged += u64::from(q.stats.discharged_by_rewrite);
            }
        }
        for p in &prov.passes {
            let solve: f64 = p.stats.iter().map(|q| q.duration.as_secs_f64()).sum();
            let _ = writeln!(
                out,
                "  pass {:<11} {:>7.2}s wall  {:>7.2}s in queries  ({})",
                p.pass,
                p.elapsed.as_secs_f64(),
                solve,
                count_queries(p.stats.len()),
            );
            for q in &p.stats {
                effort.merge(&q.stats.sat);
                gates_hashconsed += q.stats.gates_hashconsed;
                rewrite_discharged += u64::from(q.stats.discharged_by_rewrite);
            }
        }
        let _ = writeln!(out, "  total            {:>7.2}s wall", report.elapsed.as_secs_f64());
        let _ = writeln!(
            out,
            "  search effort: {} conflicts, {} propagations, {} learnt clauses, {} restarts",
            effort.conflicts,
            effort.propagations,
            effort.learnt_clauses,
            effort.restarts,
        );
        let _ = writeln!(
            out,
            "  simplification: {} vars eliminated, {} clauses subsumed, {} gates hash-consed",
            effort.vars_eliminated,
            effort.clauses_subsumed,
            gates_hashconsed,
        );
        let _ = writeln!(
            out,
            "  canonicalization: {rewrite_discharged} obligations discharged by rewriting",
        );
    }

    out
}

/// One-line narrative for a rung record.
fn rung_story(r: &RungRecord, opts: &ExplainOptions) -> String {
    match &r.outcome {
        RungOutcome::Answered => format!("answered after {}", count_queries(r.queries)),
        RungOutcome::Timeout => {
            if opts.show_times {
                format!("ran out of budget after {}", count_queries(r.queries))
            } else {
                "ran out of budget".to_string()
            }
        }
        RungOutcome::Crashed(m) => format!("crashed: {m}"),
        RungOutcome::Failed(m) => format!("error: {m}"),
        RungOutcome::Skipped(m) => format!("skipped: {m}"),
    }
}

fn count_queries(n: usize) -> String {
    if n == 1 {
        "1 query".to_string()
    } else {
        format!("{n} queries")
    }
}

/// Group query stats by label family (the prefix before `[`/`(`) and
/// tally outcomes. Cache hits count as `valid` — cachedness is a
/// performance detail, and folding it keeps the table deterministic.
/// Rewrite discharges also count as `valid`, but are surfaced even in
/// stable mode: which obligations collapse under canonicalization is a
/// deterministic property of the encoding, not of timing.
fn family_table(stats: &[QueryStat], opts: &ExplainOptions) -> String {
    #[derive(Default)]
    struct Tally {
        total: usize,
        valid: usize,
        cached: usize,
        rewrite: usize,
        cex: usize,
        timeout: usize,
    }
    let mut families: BTreeMap<String, Tally> = BTreeMap::new();
    for q in stats {
        let fam = q
            .label
            .split(['[', '('])
            .next()
            .unwrap_or(&q.label)
            .to_string();
        let t = families.entry(fam).or_default();
        t.total += 1;
        match q.outcome.as_str() {
            "valid" => t.valid += 1,
            "valid (cached)" => {
                t.valid += 1;
                t.cached += 1;
            }
            "valid (rewrite)" => {
                t.valid += 1;
                t.rewrite += 1;
            }
            "counterexample" => t.cex += 1,
            _ => t.timeout += 1,
        }
    }
    let mut out = String::new();
    for (fam, t) in &families {
        let mut story = if t.valid == t.total {
            "all valid".to_string()
        } else {
            let mut parts = Vec::new();
            if t.valid > 0 {
                parts.push(format!("{} valid", t.valid));
            }
            if t.cex > 0 {
                parts.push(format!("{} counterexample", t.cex));
            }
            if t.timeout > 0 {
                parts.push(format!("{} timeout", t.timeout));
            }
            parts.join(", ")
        };
        if t.rewrite > 0 {
            let _ = write!(story, " ({} discharged by rewriting)", t.rewrite);
        }
        if opts.show_times && t.cached > 0 {
            let _ = write!(story, " ({} cached)", t.cached);
        }
        let _ = writeln!(out, "  {:<16} x{:<4} {story}", fam, t.total);
    }
    out
}

/// Narrative for how the quantified write-coverage residue was handled.
fn residue_story(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Verified(Soundness::Sound) => {
            "all write-coverage obligations were discharged (for every \
             residual formula the solver proved that a witness thread writes \
             the cell); the proof is sound"
        }
        Verdict::Verified(Soundness::UnderApprox) => {
            "the answer comes from an encoding weaker than the parameterized \
             claim (a concrete thread count, skipped or unwitnessed coverage \
             obligations, or an assumed loop order); reported bugs are real, \
             but absence of bugs is not a proof"
        }
        Verdict::Bug(_) => {
            "not applicable — the counterexample is a concrete witness, and \
             bug reports are sound regardless of any dropped residue"
        }
        Verdict::Timeout => {
            "unknown — no rung answered within budget, so the residue was \
             never reached"
        }
    }
}

/// One line per auxiliary pass.
fn pass_line(p: &PassRecord, opts: &ExplainOptions) -> String {
    if opts.show_times {
        format!(
            "  {:<16} {}  ({:.2}s, {})\n",
            p.pass,
            p.summary,
            p.elapsed.as_secs_f64(),
            count_queries(p.stats.len()),
        )
    } else {
        format!("  {:<16} {}\n", p.pass, p.summary)
    }
}
