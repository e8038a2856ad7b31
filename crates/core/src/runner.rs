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
//! [`CancelToken`] armed by a [`Watchdog`] thread, so a hung or crashing
//! rung costs one rung, not the process. Every rung's fate is recorded in a
//! [`Provenance`] so the final verdict says *which* encoding answered, what
//! was spent on the way down, and how soundness degraded.

use crate::equiv::{
    check_equivalence_nonparam, check_equivalence_param, CheckOptions, QueryStat, Report,
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    pub(crate) fn downgrade(&self) -> Option<String> {
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
    /// Portfolio racing only: a higher-priority rung answered first and
    /// this rung was cancelled mid-flight. Its partial cost is still
    /// recorded in the [`RungRecord`].
    Abandoned,
}

impl fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungOutcome::Answered => write!(f, "answered"),
            RungOutcome::Timeout => write!(f, "timeout"),
            RungOutcome::Crashed(m) => write!(f, "crashed: {m}"),
            RungOutcome::Failed(m) => write!(f, "error: {m}"),
            RungOutcome::Skipped(m) => write!(f, "skipped: {m}"),
            RungOutcome::Abandoned => write!(f, "abandoned (lost the race)"),
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

impl Provenance {
    /// Multi-line rendering for logs / the benchmark harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rungs {
            out.push_str(&format!(
                "  {:<16} {:>8.2}s  {}\n",
                r.rung.to_string(),
                r.elapsed.as_secs_f64(),
                r.outcome
            ));
        }
        match &self.answered_by {
            Some(r) => out.push_str(&format!("  answered by {r}")),
            None => out.push_str("  no rung answered"),
        }
        if let Some(n) = &self.soundness_note {
            out.push_str(&format!("\n  note: {n}"));
        }
        for p in &self.passes {
            out.push_str(&format!(
                "\n  pass {:<12} {:>8.2}s  {}",
                p.pass,
                p.elapsed.as_secs_f64(),
                p.summary
            ));
        }
        out
    }

    /// Total wall-clock spent across attempted rungs.
    pub fn total_spent(&self) -> Duration {
        self.rungs.iter().map(|r| r.elapsed).sum()
    }

    /// Wall-clock spent on rungs that were cancelled after losing a
    /// portfolio race — the price of racing, separated out so batch
    /// reports can show what speculation cost.
    pub fn abandoned_cost(&self) -> Duration {
        self.rungs
            .iter()
            .filter(|r| matches!(r.outcome, RungOutcome::Abandoned))
            .map(|r| r.elapsed)
            .sum()
    }
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
    /// Wall-clock budget for the *first* rung; each descent multiplies it
    /// by `backoff`. `None` = no per-rung deadline (the watchdog is then
    /// not armed).
    pub rung_timeout: Option<Duration>,
    /// Per-descent timeout multiplier. `< 1` spends less on weaker rungs
    /// (they are cheaper); `1.0` keeps the budget flat.
    pub backoff: f64,
    /// Scalar parameters for the Param+C rung; empty skips that rung.
    pub concretize: HashMap<String, u64>,
    /// Concrete thread counts for the NonParam rungs (tried in order).
    pub fallback_ns: Vec<u64>,
    /// Memory cap on the SAT clause database, per rung.
    pub max_clause_bytes: Option<usize>,
    /// Memory cap on hash-consed term nodes, per rung.
    pub max_term_nodes: Option<usize>,
    /// Cross-rung cache of discharged obligations. `None` makes each
    /// runner/batch entry point create its own, so rungs of one run always
    /// share; supply one explicitly to share across runs.
    pub query_cache: Option<crate::portfolio::QueryCache>,
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
    /// Term canonicalization (`pug_smt::normalize`) on every rung and aux
    /// pass. On by default; differential suites turn it off.
    pub normalize: bool,
    /// Generalized (Presburger) quantifier elimination, forwarded to every
    /// rung and aux pass ([`CheckOptions::generalized_qelim`]). On by
    /// default; the differential suites turn it off to prove the ladder
    /// reaches identical verdicts through the legacy residual-drop path.
    pub generalized_qelim: bool,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            rung_timeout: None,
            backoff: 1.0,
            concretize: HashMap::new(),
            fallback_ns: vec![4],
            max_clause_bytes: None,
            max_term_nodes: None,
            query_cache: None,
            trace: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            aux_passes: false,
            normalize: true,
            generalized_qelim: true,
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

    /// Disable the generalized (Presburger) quantifier elimination on
    /// every rung and aux pass.
    pub fn no_generalized_qelim(mut self) -> RunnerOptions {
        self.generalized_qelim = false;
        self
    }
}

/// Watchdog: a thread that trips a [`CancelToken`] when a deadline passes.
///
/// Unlike a bare `thread::sleep`, the watchdog parks on a condvar and is
/// released the moment the guarded work finishes, so short checks never
/// leave sleeping threads behind. Dropping the watchdog signals completion
/// and joins the thread.
pub struct Watchdog {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Arm: trip `token` after `timeout` unless dropped first.
    pub fn arm(token: CancelToken, timeout: Duration) -> Watchdog {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let deadline = Instant::now() + timeout;
            let mut done = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*done {
                let now = Instant::now();
                if now >= deadline {
                    token.cancel();
                    return;
                }
                let (guard, _) = cv.wait_timeout(done, deadline - now).unwrap();
                done = guard;
            }
        });
        Watchdog { state, handle: Some(handle) }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
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

/// How one rung resolved, internally. Shared with [`crate::portfolio`].
pub(crate) enum RungResult {
    Verdict(Report),
    Timeout,
    Crashed(String),
    Failed(String),
}

/// Run one rung under its fault boundary: failpoint, watchdog, panic catch.
///
/// The caller supplies the rung's [`CancelToken`] so an external arbiter
/// (the portfolio scheduler) can retain a handle and cancel the rung
/// mid-flight; the sequential ladder passes a fresh token per rung.
pub(crate) fn run_rung<F>(
    rung: Rung,
    timeout: Option<Duration>,
    token: CancelToken,
    trace: TraceSpan,
    metrics: MetricsRegistry,
    f: F,
) -> (RungResult, Duration, Vec<QueryStat>)
where
    F: FnOnce(CheckOptions) -> Result<Report, Error>,
{
    let started = Instant::now();
    let _watchdog = timeout.map(|t| Watchdog::arm(token.clone(), t));

    let opts = CheckOptions { timeout, cancel: token, trace, metrics, ..CheckOptions::default() };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
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
        f(opts)
    }));
    let elapsed = started.elapsed();

    match outcome {
        Err(payload) => (RungResult::Crashed(panic_message(&*payload)), elapsed, Vec::new()),
        Ok(Err(e)) => (RungResult::Failed(e.to_string()), elapsed, Vec::new()),
        Ok(Ok(report)) => match report.verdict {
            // A timed-out rung still issued real queries; keep them so
            // provenance shows where the budget went.
            Verdict::Timeout => (RungResult::Timeout, elapsed, report.queries),
            _ => {
                let queries = report.queries.clone();
                (RungResult::Verdict(report), elapsed, queries)
            }
        },
    }
}

/// The runnable ladder for `opts`, in descending soundness order, plus the
/// pre-skipped records for rungs that are not applicable (Param+C without
/// concretized parameters). Shared by the sequential ladder and the
/// portfolio racer so both modes attempt — and arbitrate over — the exact
/// same rung set.
pub(crate) fn build_ladder(opts: &RunnerOptions) -> (Vec<Rung>, Vec<RungRecord>) {
    let mut ladder: Vec<Rung> = vec![Rung::Param];
    let mut skipped = Vec::new();
    if !opts.concretize.is_empty() {
        ladder.push(Rung::ParamConcretized);
    } else {
        skipped.push(RungRecord {
            rung: Rung::ParamConcretized,
            outcome: RungOutcome::Skipped("no concretized parameters configured".into()),
            elapsed: Duration::ZERO,
            queries: 0,
            stats: Vec::new(),
        });
    }
    ladder.extend(opts.fallback_ns.iter().map(|&n| Rung::NonParam { n }));
    ladder.push(Rung::FastBugHunt);
    (ladder, skipped)
}

/// Per-rung wall-clock budget: the first-rung timeout scaled by
/// `backoff^index` over the runnable ladder. Index-based (not
/// descent-based) so the racing scheduler hands out the same budgets the
/// sequential ladder would.
pub(crate) fn rung_timeout(opts: &RunnerOptions, index: usize) -> Option<Duration> {
    opts.rung_timeout.map(|t| t.mul_f64(opts.backoff.max(0.01).powi(index as i32)))
}

/// Dispatch one rung's check with the runner-level caps applied.
pub(crate) fn dispatch_rung(
    rung: Rung,
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &RunnerOptions,
    mut check_opts: CheckOptions,
) -> Result<Report, Error> {
    check_opts.max_clause_bytes = opts.max_clause_bytes;
    check_opts.max_term_nodes = opts.max_term_nodes;
    check_opts.query_cache = opts.query_cache.clone();
    check_opts.normalize = opts.normalize;
    check_opts.generalized_qelim = opts.generalized_qelim;
    match rung {
        Rung::Param => check_equivalence_param(src, tgt, cfg, &check_opts),
        Rung::ParamConcretized => {
            check_opts.concretize = opts.concretize.clone();
            check_equivalence_param(src, tgt, cfg, &check_opts)
        }
        Rung::NonParam { n } => {
            let pinned = pin_config(cfg, n);
            check_equivalence_nonparam(src, tgt, &pinned, &check_opts)
        }
        Rung::FastBugHunt => {
            check_opts.mode = crate::equiv::Mode::FastBugHunt;
            check_equivalence_param(src, tgt, cfg, &check_opts)
        }
    }
}

/// Soundness-downgrade a rung's verdict exactly as the sequential ladder
/// does: a clean verdict from a weaker rung is only an under-approximate
/// proof of the parameterized claim; bugs stay bugs.
pub(crate) fn adopt_verdict(verdict: Verdict, rung: Rung) -> Verdict {
    match (verdict, rung.downgrade()) {
        (Verdict::Verified(_), Some(_)) => Verdict::Verified(Soundness::UnderApprox),
        (v, _) => v,
    }
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
    let (ladder, skipped) = build_ladder(opts);
    if opts.metrics.is_enabled() {
        for r in &skipped {
            opts.metrics.incr(rung_outcome_key(&r.outcome));
        }
    }
    prov.rungs.extend(skipped);

    // Ladder descent reuses discharged obligations: what the Param rung
    // proved before timing out, FastBugHunt need not prove again.
    let mut opts_with_cache;
    let opts = if opts.query_cache.is_none() {
        opts_with_cache = opts.clone();
        opts_with_cache.query_cache = Some(crate::portfolio::QueryCache::new());
        &opts_with_cache
    } else {
        opts
    };

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

    for (index, rung) in ladder.into_iter().enumerate() {
        let timeout = rung_timeout(opts, index);
        let rung_span = if verify_span.is_enabled() {
            verify_span.child(&format!("rung:{rung}"))
        } else {
            TraceSpan::disabled()
        };
        let (result, elapsed, stats) = run_rung(
            rung,
            timeout,
            CancelToken::new(),
            rung_span.clone(),
            opts.metrics.clone(),
            |check_opts| dispatch_rung(rung, src, tgt, cfg, opts, check_opts),
        );

        let (outcome, answer) = match result {
            RungResult::Verdict(report) => (RungOutcome::Answered, Some(report)),
            RungResult::Timeout => (RungOutcome::Timeout, None),
            RungResult::Crashed(m) => (RungOutcome::Crashed(m), None),
            RungResult::Failed(m) => (RungOutcome::Failed(m), None),
        };
        note_rung_outcome(opts, &rung_span, &outcome, stats.len());
        prov.rungs.push(RungRecord { rung, outcome, elapsed, queries: stats.len(), stats });

        if let Some(report) = answer {
            prov.answered_by = Some(rung);
            prov.soundness_note = rung.downgrade();
            let verdict = adopt_verdict(report.verdict, rung);
            if opts.aux_passes {
                prov.passes = run_aux_passes(tgt, cfg, opts, &verify_span);
            }
            verify_span.close_with(vec![("verdict", verdict.to_string().into())]);
            if let Some(cache) = &opts.query_cache {
                cache.publish(&opts.metrics);
            }
            return ResilientReport { verdict, provenance: prov, elapsed: started.elapsed() };
        }
    }

    if opts.aux_passes {
        prov.passes = run_aux_passes(tgt, cfg, opts, &verify_span);
    }
    verify_span.close_with(vec![("verdict", "timeout (no rung answered)".into())]);
    if let Some(cache) = &opts.query_cache {
        cache.publish(&opts.metrics);
    }
    ResilientReport {
        verdict: Verdict::Timeout,
        provenance: prov,
        elapsed: started.elapsed(),
    }
}

/// Record a rung's fate in the trace and the outcome counters.
pub(crate) fn note_rung_outcome(
    opts: &RunnerOptions,
    rung_span: &TraceSpan,
    outcome: &RungOutcome,
    queries: usize,
) {
    if rung_span.is_enabled() {
        rung_span.close_with(vec![
            ("outcome", outcome.to_string().into()),
            ("queries", queries.into()),
        ]);
    }
    if opts.metrics.is_enabled() {
        opts.metrics.incr(rung_outcome_key(outcome));
    }
}

/// Metrics counter name for a rung outcome.
pub(crate) fn rung_outcome_key(outcome: &RungOutcome) -> &'static str {
    match outcome {
        RungOutcome::Answered => "runner.rung.answered",
        RungOutcome::Timeout => "runner.rung.timeout",
        RungOutcome::Crashed(_) => "runner.rung.crashed",
        RungOutcome::Failed(_) => "runner.rung.failed",
        RungOutcome::Skipped(_) => "runner.rung.skipped",
        RungOutcome::Abandoned => "runner.rung.abandoned",
    }
}

/// Run the auxiliary analyses (data races, bank conflicts, coalescing) on
/// the *target* kernel — the artifact actually shipped — under the same
/// caps as a rung, each inside its own fault boundary. Their `QueryStat`s
/// used to be dropped on the floor; they now ride in the provenance.
pub(crate) fn run_aux_passes(
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
        let check = CheckOptions {
            timeout: opts.rung_timeout,
            max_clause_bytes: opts.max_clause_bytes,
            max_term_nodes: opts.max_term_nodes,
            trace: span.clone(),
            metrics: opts.metrics.clone(),
            // Aux passes share the run's cache and canonicalization policy:
            // their obligations fingerprint the same way, so the registry's
            // per-lookup counters cover every query of the run.
            query_cache: opts.query_cache.clone(),
            normalize: opts.normalize,
            generalized_qelim: opts.generalized_qelim,
            ..CheckOptions::default()
        };
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
    fn watchdog_trips_after_deadline() {
        let token = CancelToken::new();
        let _w = Watchdog::arm(token.clone(), Duration::from_millis(20));
        assert!(!token.is_cancelled());
        std::thread::sleep(Duration::from_millis(120));
        assert!(token.is_cancelled());
    }

    #[test]
    fn watchdog_drop_does_not_trip() {
        let token = CancelToken::new();
        {
            let _w = Watchdog::arm(token.clone(), Duration::from_secs(30));
        } // dropped immediately: thread must exit without firing
        assert!(!token.is_cancelled());
    }

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
        assert!(report.verdict.is_verified(), "{}", report.provenance.render());
        assert_eq!(report.provenance.answered_by, Some(Rung::Param));
        assert!(report.provenance.soundness_note.is_none());
    }
}
