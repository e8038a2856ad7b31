//! Resilient verification runner: the graceful degradation ladder.
//!
//! A verification attempt can fail in ways the paper's tables gloss over:
//! the solver exhausts a budget ("T.O"), a panic escapes a checker, a
//! symbolic encoding is simply too hard. This module wraps every attempt in
//! a fault boundary and descends a ladder of progressively weaker — but
//! cheaper and more robust — encodings:
//!
//! 1. **Param** — the §IV parameterized encoding, fully symbolic
//!    configuration. Strongest claim: holds for *all* thread counts.
//! 2. **Param+C** — the same encoding with scalar parameters pinned
//!    (the paper's "+C." concretization). Holds for the pinned values with
//!    arbitrary remaining symbolics.
//! 3. **NonParam(n)** — the §III serialized baseline at a small concrete
//!    configuration. Holds for that `n` only.
//! 4. **FastBugHunt** — value queries only (§IV-D). Bugs found are real;
//!    a clean run proves nothing beyond an under-approximation.
//!
//! Each rung runs under [`std::panic::catch_unwind`] with its own
//! [`CancelToken`], whose deadline is the rung's wall-clock budget, so a
//! hung or crashing rung costs one rung, not the process. Every rung's
//! token is a child of [`RunnerOptions::cancel`]: cancelling that (or
//! passing its deadline) stops the whole run, while a rung's deadline trips
//! only its own rung. Every rung's fate is recorded in a [`Provenance`] so
//! the final verdict says *which* encoding answered, what was spent on the
//! way down, and how soundness degraded.

use crate::cache::QueryCache;
use crate::equiv::{
    check_equivalence_nonparam, check_equivalence_param, Ablation, CheckOptions, EngineConfig,
    Mode, QueryStat, Report,
};
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::verdict::{Soundness, Verdict};
use pug_ir::{Extent, GpuConfig};
use pug_obs::{MetricsRegistry, TraceSink, TraceSpan};
use pug_smt::failpoints::{self, Fault};
use pug_smt::CancelToken;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One rung of the degradation ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    /// Parameterized, fully symbolic configuration (§IV).
    Param,
    /// Parameterized with concretized scalar parameters ("+C.").
    ParamConcretized,
    /// Non-parameterized serialization at a concrete thread count (§III).
    NonParam { n: u64 },
    /// Parameterized value-queries-only mode (§IV-D).
    FastBugHunt,
}

impl Rung {
    /// Failpoint site name for this rung.
    fn site(&self) -> &'static str {
        match self {
            Rung::Param => "runner::param",
            Rung::ParamConcretized => "runner::param_c",
            Rung::NonParam { .. } => "runner::nonparam",
            Rung::FastBugHunt => "runner::fastbughunt",
        }
    }

    /// The soundness qualification a *clean* verdict from this rung carries.
    fn downgrade(&self) -> Option<String> {
        match self {
            Rung::Param => None,
            Rung::ParamConcretized => Some(
                "parameters pinned (+C.): the verdict holds for the concretized values only"
                    .into(),
            ),
            Rung::NonParam { n } => Some(format!(
                "non-parameterized fallback: the verdict holds for n={n} threads only"
            )),
            Rung::FastBugHunt => Some(
                "fast bug hunt: coverage obligations skipped; absence of bugs is not a proof"
                    .into(),
            ),
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::Param => write!(f, "Param"),
            Rung::ParamConcretized => write!(f, "Param+C"),
            Rung::NonParam { n } => write!(f, "NonParam(n={n})"),
            Rung::FastBugHunt => write!(f, "FastBugHunt"),
        }
    }
}

/// What happened on one rung.
#[derive(Clone, Debug)]
pub enum RungOutcome {
    /// The rung produced a definitive verdict (verified or bug).
    Answered,
    /// Budget exhausted (timeout / memory cap / cancellation).
    Timeout,
    /// The checker panicked; the message was captured.
    Crashed(String),
    /// The checker returned an error (e.g. alignment failure).
    Failed(String),
    /// The rung was not applicable (e.g. no "+C." values configured).
    Skipped(String),
}

impl fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungOutcome::Answered => write!(f, "answered"),
            RungOutcome::Timeout => write!(f, "timeout"),
            RungOutcome::Crashed(m) => write!(f, "crashed: {m}"),
            RungOutcome::Failed(m) => write!(f, "error: {m}"),
            RungOutcome::Skipped(m) => write!(f, "skipped: {m}"),
        }
    }
}

/// Record of one rung attempt.
#[derive(Clone, Debug)]
pub struct RungRecord {
    pub rung: Rung,
    pub outcome: RungOutcome,
    /// Wall-clock time spent on this rung (zero for skipped rungs).
    pub elapsed: Duration,
    /// SMT queries issued on this rung, when the checker got that far.
    pub queries: usize,
    /// Per-query statistics of this rung — kept even when the rung timed
    /// out, so traces and explanations can show where the budget went.
    pub stats: Vec<QueryStat>,
}

/// Record of one auxiliary analysis pass (races, bank conflicts,
/// coalescing) run alongside the equivalence ladder when
/// [`RunnerOptions::aux_passes`] is set.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// Pass name: `race`, `bank-conflict` or `coalescing`.
    pub pass: &'static str,
    /// One-line result: a verdict rendering, a findings count, or an error.
    pub summary: String,
    pub elapsed: Duration,
    /// The pass's SMT queries — previously dropped on the floor; threading
    /// them here is what makes the passes visible in traces and reports.
    pub stats: Vec<QueryStat>,
}

/// Where the final verdict came from and what it cost.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// Every rung attempted (or skipped), in ladder order.
    pub rungs: Vec<RungRecord>,
    /// The rung whose verdict was adopted, if any rung answered.
    pub answered_by: Option<Rung>,
    /// Human-readable soundness qualification of the adopted verdict, when
    /// the answering rung is weaker than the fully parameterized claim.
    pub soundness_note: Option<String>,
    /// Auxiliary analysis passes (races, bank conflicts, coalescing), when
    /// [`RunnerOptions::aux_passes`] requested them.
    pub passes: Vec<PassRecord>,
}

/// Verdict plus provenance: the runner's result.
#[derive(Clone, Debug)]
pub struct ResilientReport {
    /// The adopted verdict. [`Verdict::Timeout`] when every rung ran out of
    /// budget, crashed or failed.
    pub verdict: Verdict,
    pub provenance: Provenance,
    pub elapsed: Duration,
}

/// Ladder policy.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Wall-clock budget of every rung and aux pass, measured from its
    /// start as a deadline on its own token. `None` = no per-rung deadline.
    pub rung_timeout: Option<Duration>,
    /// Scalar parameters for the Param+C rung; empty skips that rung.
    pub concretize: HashMap<String, u64>,
    /// Concrete thread counts for the NonParam rungs (tried in order).
    pub fallback_ns: Vec<u64>,
    /// Resource caps and ablated stages of every rung and aux pass.
    pub engine: EngineConfig,
    /// Cross-rung cache of discharged obligations. `None` makes
    /// [`run_resilient`] create its own, so rungs of one run always share;
    /// supply one explicitly to share across runs.
    pub query_cache: Option<QueryCache>,
    /// Structured trace sink. [`TraceSink::disabled`] (the default) costs
    /// one branch per query; a recording sink captures the span tree
    /// `verify > rung:… > bi:… > query:…` for JSONL export.
    pub trace: TraceSink,
    /// Metrics registry fed across rungs; disabled by default.
    pub metrics: MetricsRegistry,
    /// Also run the auxiliary analyses (data races, shared-memory bank
    /// conflicts, global-memory coalescing) on the target kernel once the
    /// ladder resolves, attaching their query statistics to the provenance.
    pub aux_passes: bool,
    /// Parent of every rung's and aux pass's cancellation token: cancelling
    /// it, or passing its deadline, stops the running rung and every one
    /// after it. Each rung's deadline trips only that rung's child token,
    /// never this one. The default is a fresh root; `pug-serve` passes its
    /// job token, which carries the job's deadline.
    pub cancel: CancelToken,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            rung_timeout: None,
            concretize: HashMap::new(),
            fallback_ns: vec![4],
            engine: EngineConfig::default(),
            query_cache: None,
            trace: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            aux_passes: false,
            cancel: CancelToken::new(),
        }
    }
}

impl RunnerOptions {
    /// Flat per-rung wall-clock budget.
    pub fn with_rung_timeout(timeout: Duration) -> RunnerOptions {
        RunnerOptions { rung_timeout: Some(timeout), ..RunnerOptions::default() }
    }

    /// Add a concretized parameter (enables the Param+C rung).
    pub fn concretized(mut self, name: &str, value: u64) -> RunnerOptions {
        self.concretize.insert(name.to_string(), value);
        self
    }

    /// Record the run's span tree into `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> RunnerOptions {
        self.trace = sink;
        self
    }

    /// Feed counters/histograms into `metrics`.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> RunnerOptions {
        self.metrics = metrics;
        self
    }

    /// Enable the auxiliary race/perf passes.
    pub fn with_aux_passes(mut self) -> RunnerOptions {
        self.aux_passes = true;
        self
    }

    /// Replace engine stage `a` by its reference path on every rung and
    /// aux pass.
    pub fn ablate(mut self, a: Ablation) -> RunnerOptions {
        self.engine = self.engine.ablate(a);
        self
    }

    /// Checker options for one rung or aux pass, which starts now: the
    /// run's engine, cache, trace parent and metrics, under a child of
    /// [`RunnerOptions::cancel`] that expires [`RunnerOptions::rung_timeout`]
    /// from now. Aux passes share the run's cache and engine: their
    /// obligations fingerprint the same way, so the registry's per-lookup
    /// counters cover every query.
    fn check_options(&self, trace: TraceSpan) -> CheckOptions {
        CheckOptions {
            cancel: match self.rung_timeout {
                Some(t) => self.cancel.child_with_timeout(t),
                None => self.cancel.child(),
            },
            engine: self.engine,
            query_cache: self.query_cache.clone(),
            trace,
            metrics: self.metrics.clone(),
            ..CheckOptions::default()
        }
    }
}

/// Extract a printable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pin every symbolic extent of `cfg` to a concrete `n`-thread block
/// (near-square split when the block is 2-D), one block in the grid.
fn pin_config(cfg: &GpuConfig, n: u64) -> GpuConfig {
    let mut c = cfg.clone();
    let two_d = matches!(c.bdim[1], Extent::Sym);
    if matches!(c.bdim[0], Extent::Sym) {
        if two_d {
            let side = (1..=n).rev().find(|s| s * s <= n && n.is_multiple_of(*s)).unwrap_or(1);
            c.bdim[0] = Extent::Const(n / side);
            c.bdim[1] = Extent::Const(side);
        } else {
            c.bdim[0] = Extent::Const(n);
        }
    }
    for d in c.bdim.iter_mut().chain(c.gdim.iter_mut()) {
        if matches!(d, Extent::Sym) {
            *d = Extent::Const(1);
        }
    }
    c
}

/// Run one rung under its fault boundary: failpoint, deadline, panic
/// catch. The deadline trips the rung's own token, a child of
/// [`RunnerOptions::cancel`]. Returns the rung's record and, when it
/// answered, its verdict.
fn run_rung(
    rung: Rung,
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &RunnerOptions,
    trace: TraceSpan,
) -> (RungRecord, Option<Verdict>) {
    let started = Instant::now();
    let mut check = opts.check_options(trace);

    let outcome = catch_unwind(AssertUnwindSafe(move || {
        // Fault injection: `Panic` unwinds from inside the boundary, exactly
        // like a checker bug would.
        if let Some(Fault::BudgetExhausted | Fault::SpuriousUnknown) = failpoints::trip(rung.site())
        {
            return Ok(Report {
                verdict: Verdict::Timeout,
                queries: Vec::new(),
                elapsed: Duration::ZERO,
            });
        }
        match rung {
            Rung::Param => check_equivalence_param(src, tgt, cfg, &check),
            Rung::ParamConcretized => {
                check.concretize = opts.concretize.clone();
                check_equivalence_param(src, tgt, cfg, &check)
            }
            Rung::NonParam { n } => {
                check_equivalence_nonparam(src, tgt, &pin_config(cfg, n), &check)
            }
            Rung::FastBugHunt => {
                check.mode = Mode::FastBugHunt;
                check_equivalence_param(src, tgt, cfg, &check)
            }
        }
    }));
    let elapsed = started.elapsed();

    let (outcome, answer, stats) = match outcome {
        Err(payload) => (RungOutcome::Crashed(panic_message(&*payload)), None, Vec::new()),
        Ok(Err(e)) => (RungOutcome::Failed(e.to_string()), None, Vec::new()),
        // A timed-out rung still issued real queries; keep them so
        // provenance shows where the budget went.
        Ok(Ok(Report { verdict: Verdict::Timeout, queries, .. })) => {
            (RungOutcome::Timeout, None, queries)
        }
        Ok(Ok(report)) => (RungOutcome::Answered, Some(report.verdict), report.queries),
    };
    (RungRecord { rung, outcome, elapsed, queries: stats.len(), stats }, answer)
}

/// Run the full degradation ladder for the equivalence of `src` and `tgt`.
///
/// Descends `Param → Param+C → NonParam(n) → FastBugHunt` until a rung
/// produces a definitive verdict; rungs that time out, crash or error are
/// recorded and skipped past. When no rung answers, the verdict is
/// [`Verdict::Timeout`] with the full attempt history attached.
pub fn run_resilient(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &RunnerOptions,
) -> ResilientReport {
    let started = Instant::now();
    let mut prov = Provenance::default();

    // Ladder descent reuses discharged obligations: what the Param rung
    // proved before timing out, FastBugHunt need not prove again.
    let mut opts_with_cache;
    let opts = if opts.query_cache.is_none() {
        opts_with_cache = opts.clone();
        opts_with_cache.query_cache = Some(QueryCache::new());
        &opts_with_cache
    } else {
        opts
    };

    let mut ladder = vec![Rung::Param];
    if opts.concretize.is_empty() {
        let outcome = RungOutcome::Skipped("no concretized parameters configured".into());
        opts.metrics.incr(rung_outcome_key(&outcome));
        prov.rungs.push(RungRecord {
            rung: Rung::ParamConcretized,
            outcome,
            elapsed: Duration::ZERO,
            queries: 0,
            stats: Vec::new(),
        });
    } else {
        ladder.push(Rung::ParamConcretized);
    }
    ladder.extend(opts.fallback_ns.iter().map(|&n| Rung::NonParam { n }));
    ladder.push(Rung::FastBugHunt);

    let verify_span = if opts.trace.is_enabled() {
        TraceSpan::root(opts.trace.clone()).child_with(
            "verify",
            vec![
                ("src", src.kernel.name.as_str().into()),
                ("tgt", tgt.kernel.name.as_str().into()),
            ],
        )
    } else {
        TraceSpan::disabled()
    };

    let mut verdict = Verdict::Timeout;
    for rung in ladder {
        // Cancelled from outside (the daemon's disconnect or drain) or past
        // the parent's deadline (the daemon's job deadline): no further
        // rung starts.
        if opts.cancel.is_cancelled() {
            break;
        }
        let rung_span = if verify_span.is_enabled() {
            verify_span.child(&format!("rung:{rung}"))
        } else {
            TraceSpan::disabled()
        };
        let (record, answer) = run_rung(rung, src, tgt, cfg, opts, rung_span.clone());
        if rung_span.is_enabled() {
            rung_span.close_with(vec![
                ("outcome", record.outcome.to_string().into()),
                ("queries", record.queries.into()),
            ]);
        }
        opts.metrics.incr(rung_outcome_key(&record.outcome));
        prov.rungs.push(record);

        if let Some(answer) = answer {
            prov.answered_by = Some(rung);
            prov.soundness_note = rung.downgrade();
            // A clean verdict from a weaker rung is only an
            // under-approximate proof of the parameterized claim; bugs stay
            // bugs.
            verdict = match answer {
                Verdict::Verified(_) if prov.soundness_note.is_some() => {
                    Verdict::Verified(Soundness::UnderApprox)
                }
                v => v,
            };
            break;
        }
    }

    if opts.aux_passes {
        prov.passes = run_aux_passes(tgt, cfg, opts, &verify_span);
    }
    let closing = match prov.answered_by {
        Some(_) => verdict.to_string(),
        None => "timeout (no rung answered)".to_string(),
    };
    verify_span.close_with(vec![("verdict", closing.into())]);
    if let Some(cache) = &opts.query_cache {
        cache.publish(&opts.metrics);
    }
    ResilientReport { verdict, provenance: prov, elapsed: started.elapsed() }
}

/// Metrics counter name for a rung outcome.
fn rung_outcome_key(outcome: &RungOutcome) -> &'static str {
    match outcome {
        RungOutcome::Answered => "runner.rung.answered",
        RungOutcome::Timeout => "runner.rung.timeout",
        RungOutcome::Crashed(_) => "runner.rung.crashed",
        RungOutcome::Failed(_) => "runner.rung.failed",
        RungOutcome::Skipped(_) => "runner.rung.skipped",
    }
}

/// Run the auxiliary analyses (data races, bank conflicts, coalescing) on
/// the *target* kernel — the artifact actually shipped — under the same
/// caps as a rung, each inside its own fault boundary. Their `QueryStat`s
/// used to be dropped on the floor; they now ride in the provenance.
fn run_aux_passes(
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &RunnerOptions,
    parent: &TraceSpan,
) -> Vec<PassRecord> {
    type PassFn = fn(&KernelUnit, &GpuConfig, &CheckOptions) -> (String, Vec<QueryStat>);

    fn race_pass(u: &KernelUnit, c: &GpuConfig, o: &CheckOptions) -> (String, Vec<QueryStat>) {
        match crate::race::check_races(u, c, o) {
            Ok(rep) => (rep.verdict.to_string(), rep.queries),
            Err(e) => (format!("error: {e}"), Vec::new()),
        }
    }
    fn perf_summary(
        r: Result<crate::perf::PerfReport, Error>,
    ) -> (String, Vec<QueryStat>) {
        match r {
            Ok(rep) if rep.findings.is_empty() => ("clean".into(), rep.queries),
            Ok(rep) => (format!("{} finding(s)", rep.findings.len()), rep.queries),
            Err(e) => (format!("error: {e}"), Vec::new()),
        }
    }
    fn bank_pass(u: &KernelUnit, c: &GpuConfig, o: &CheckOptions) -> (String, Vec<QueryStat>) {
        perf_summary(crate::perf::check_bank_conflicts(u, c, o))
    }
    fn coalesce_pass(u: &KernelUnit, c: &GpuConfig, o: &CheckOptions) -> (String, Vec<QueryStat>) {
        perf_summary(crate::perf::check_coalescing(u, c, o))
    }

    let passes: [(&'static str, PassFn); 3] =
        [("race", race_pass), ("bank-conflict", bank_pass), ("coalescing", coalesce_pass)];

    let mut records = Vec::new();
    for (name, pass) in passes {
        let span = if parent.is_enabled() {
            parent.child(&format!("pass:{name}"))
        } else {
            TraceSpan::disabled()
        };
        let check = opts.check_options(span.clone());
        let started = Instant::now();
        let (summary, stats) =
            match catch_unwind(AssertUnwindSafe(|| pass(tgt, cfg, &check))) {
                Ok(r) => r,
                Err(payload) => (format!("crashed: {}", panic_message(&*payload)), Vec::new()),
            };
        span.close_with(vec![("summary", summary.as_str().into())]);
        records.push(PassRecord { pass: name, summary, elapsed: started.elapsed(), stats });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_config_1d_and_2d() {
        let c1 = pin_config(&GpuConfig::symbolic_1d(8), 4);
        assert_eq!(c1.bdim[0], Extent::Const(4));
        assert_eq!(c1.gdim[0], Extent::Const(1));
        let c2 = pin_config(&GpuConfig::symbolic_2d(8), 8);
        assert_eq!(c2.bdim[0], Extent::Const(4));
        assert_eq!(c2.bdim[1], Extent::Const(2));
        // already-concrete extents are untouched
        let c3 = pin_config(&GpuConfig::concrete_1d(8, 16), 4);
        assert_eq!(c3.bdim[0], Extent::Const(16));
    }

    #[test]
    fn ladder_answers_on_first_rung_for_easy_pair() {
        let naive = KernelUnit::load(pug_kernels::transpose::NAIVE).unwrap();
        let report = run_resilient(
            &naive,
            &naive,
            &GpuConfig::symbolic_2d(8),
            &RunnerOptions::default(),
        );
        assert!(report.verdict.is_verified(), "{}", crate::explain_report(&report));
        assert_eq!(report.provenance.answered_by, Some(Rung::Param));
        assert!(report.provenance.soundness_note.is_none());
    }

    /// Every query of a run: the rungs' first, then the aux passes'.
    fn all_stats(r: &ResilientReport) -> impl Iterator<Item = &QueryStat> {
        let rungs = r.provenance.rungs.iter().flat_map(|rr| &rr.stats);
        rungs.chain(r.provenance.passes.iter().flat_map(|p| &p.stats))
    }

    #[test]
    fn engine_reaches_every_rung_and_aux_pass() {
        let v0 = KernelUnit::load(pug_kernels::reduction::V0).unwrap();
        let v1 = KernelUnit::load(pug_kernels::reduction::V1).unwrap();
        let cfg = GpuConfig::symbolic_1d(8);
        let run = |opts: RunnerOptions| {
            let metrics = MetricsRegistry::new();
            let opts = opts.with_aux_passes().with_metrics(metrics.clone());
            let report = run_resilient(&v0, &v1, &cfg, &opts);
            (report, metrics.snapshot().counter("smt.epochs"))
        };
        let summaries = |r: &ResilientReport| -> Vec<String> {
            r.provenance.passes.iter().map(|p| p.summary.clone()).collect()
        };

        // Not vacuous: the default engine windows its session, reuses
        // clauses in every aux pass and discharges obligations by
        // rewriting on the rungs and in the passes.
        let (base, base_epochs) = run(RunnerOptions::default());
        let explained = crate::explain_report(&base);
        assert_eq!(base.provenance.answered_by, Some(Rung::Param), "{explained}");
        assert_eq!(base.provenance.passes.len(), 3);
        assert!(base_epochs > 0);
        for p in &base.provenance.passes {
            let reused: usize = p.stats.iter().map(|q| q.stats.clauses_reused).sum();
            assert!(reused > 0, "pass {} reused no clauses", p.pass);
        }
        let rewrites = |stats: &[QueryStat]| stats.iter().any(|q| q.stats.discharged_by_rewrite);
        assert!(base.provenance.rungs.iter().any(|rr| rewrites(&rr.stats)));
        assert!(base.provenance.passes.iter().any(|p| rewrites(&p.stats)));

        use Ablation::*;
        for a in [OneShot, NoSimplify, NoNormalize] {
            let (r, epochs) = run(RunnerOptions::default().ablate(a));
            assert_eq!(r.verdict.to_string(), base.verdict.to_string(), "{a:?}");
            assert_eq!(r.provenance.answered_by, Some(Rung::Param), "{a:?}");
            assert_eq!(summaries(&r), summaries(&base), "{a:?}");
            match a {
                OneShot => {
                    assert_eq!(epochs, 0);
                    assert!(all_stats(&r).all(|q| q.stats.clauses_reused == 0));
                }
                NoNormalize => assert!(!all_stats(&r).any(|q| q.stats.discharged_by_rewrite)),
                _ => {}
            }
        }
    }
}
