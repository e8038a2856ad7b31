//! Functional equivalence checking of a kernel and its optimized version —
//! the paper's headline application (§II, §IV-B, §V).
//!
//! Two encoders are provided:
//!
//! * [`check_equivalence_nonparam`] — the §III baseline: both kernels are
//!   serialized for a *concrete* thread count and the final arrays compared
//!   at a fresh symbolic index. Complete for that configuration, blows up
//!   with n.
//! * [`check_equivalence_param`] — the §IV contribution: one symbolic
//!   thread per kernel. Output cells are resolved through instantiated CA
//!   chains; kernels with structure-preserved loops are compared body-wise
//!   after loop alignment (§IV-E). Three query families are issued:
//!   1. **value** — on cells covered by both kernels, the written values
//!      agree (bugs found here are always real);
//!   2. **output coverage** — the two kernels write the same cell set,
//!      proven by witness correspondences between their threads;
//!   3. **read coverage** — every shared-memory read is covered by a
//!      writer, exposing hidden configuration assumptions (the non-square
//!      Transpose block of §IV-B).
//!
//! In [`Mode::FastBugHunt`] families 2–3 are skipped (the paper's §IV-D
//! fast bug hunting: reported bugs are real, proofs are under-approximate).

use crate::cache::QueryCache;
use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::param::{extract_region, thread_range, ExtractOptions, ParamRegion};
use crate::resolve::{CoverageObligation, Instantiation, ResolvedOutput, Resolver, ThreadRef};
use crate::verdict::{BugKind, BugReport, Soundness, Verdict};
use pug_cuda::ast::{BinOp, Builtin, Dim, Expr, Stmt};
use pug_cuda::typecheck::VarInfo;
use pug_ir::{
    align_headers, normalize_header, split_bis, Alignment, BoundConfig, GpuConfig, LoopSpace,
    Segment,
};
use pug_obs::{MetricsRegistry, TraceSpan};
use pug_smt::{
    assert_fingerprint, check_detailed_with, Budget, CancelToken, CheckStats, Ctx, Op,
    SimplifyConfig, SmtResult, SolveSession, Sort, TermId,
};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Checking mode (paper §IV-A / §IV-D).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mode {
    /// Discharge coverage obligations too; a `Verified(Sound)` verdict is a
    /// proof (when witnesses succeed).
    #[default]
    Prove,
    /// Only the value queries — locate property violations quickly by
    /// ignoring the quantified formulas.
    FastBugHunt,
}

/// An engine stage replaced by the simpler reference path that its
/// differential suite checks the default against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ablation {
    /// A fresh solver per query instead of one persistent [`SolveSession`].
    OneShot,
    /// No SAT pre/inprocessing: queries solve the raw blasted CNF.
    NoSimplify,
    /// No term canonicalization (`pug_smt::normalize`) and so no
    /// obligation discharged by rewriting.
    NoNormalize,
    /// No generalized (Presburger) quantifier elimination: symbolic-stride
    /// obligations take the residual-drop path and the rung downgrades.
    NoGeneralizedQelim,
}

/// The engine of one check: per-check resource caps and the ablated
/// stages. [`CheckOptions`] and [`crate::runner::RunnerOptions`] both embed
/// it, and the runner hands its copy to every rung and aux pass unchanged.
/// The default is the production engine with no caps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineConfig {
    /// SAT conflict cap per query.
    pub max_conflicts: Option<u64>,
    /// Memory cap on the SAT clause database, in bytes of literal storage.
    pub max_clause_bytes: Option<usize>,
    /// Memory cap on hash-consed term nodes in the SMT context.
    pub max_term_nodes: Option<usize>,
    /// One bit per [`Ablation`].
    ablations: u8,
}

impl EngineConfig {
    /// Is stage `a` replaced by its reference path?
    pub fn ablated(&self, a: Ablation) -> bool {
        self.ablations & (1 << a as u8) != 0
    }

    /// Replace stage `a` by its reference path.
    pub fn ablate(mut self, a: Ablation) -> EngineConfig {
        self.ablations |= 1 << a as u8;
        self
    }

    /// SAT pre/inprocessing settings for this engine.
    fn sat_config(&self) -> SimplifyConfig {
        if self.ablated(Ablation::NoSimplify) {
            SimplifyConfig::off()
        } else {
            SimplifyConfig::default()
        }
    }
}

/// Options shared by all checkers.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Wall-clock budget for the whole check (all queries share it); the
    /// paper used 5 minutes ("T.O" beyond that). It starts when the check
    /// does: each check becomes a deadline on a child of
    /// [`cancel`](CheckOptions::cancel).
    pub timeout: Option<Duration>,
    /// Prove vs fast-bug-hunt.
    pub mode: Mode,
    /// The paper's "+C." flag: scalar parameters to pin to concrete values.
    pub concretize: HashMap<String, u64>,
    /// Cooperative cancellation: tripping this token (from a supervising
    /// thread) or passing its deadline makes every layer of the pipeline
    /// yield `Unknown` within a bounded amount of work.
    pub cancel: CancelToken,
    /// Resource caps and ablated stages.
    pub engine: EngineConfig,
    /// Cross-rung cache of discharged obligations, shared by the rungs of
    /// one ladder run (and by every job of the `pug-serve` daemon); `None`
    /// disables caching.
    pub query_cache: Option<QueryCache>,
    /// Parent trace span: every query/segment span of this check opens
    /// under it. [`TraceSpan::disabled`] (the default) records nothing and
    /// costs one branch per query.
    pub trace: TraceSpan,
    /// Metrics registry fed by the check's queries (solver counters, cache
    /// hits, CA instantiations). Disabled by default.
    pub metrics: MetricsRegistry,
}

impl CheckOptions {
    /// With a wall-clock budget.
    pub fn with_timeout(timeout: Duration) -> CheckOptions {
        CheckOptions { timeout: Some(timeout), ..CheckOptions::default() }
    }

    /// Add a concretized parameter (the paper's "+C.").
    pub fn concretized(mut self, name: &str, value: u64) -> CheckOptions {
        self.concretize.insert(name.to_string(), value);
        self
    }

    /// Switch to fast bug hunting.
    pub fn fast_bug_hunt(mut self) -> CheckOptions {
        self.mode = Mode::FastBugHunt;
        self
    }

    /// Attach a cross-rung query cache.
    pub fn with_query_cache(mut self, cache: QueryCache) -> CheckOptions {
        self.query_cache = Some(cache);
        self
    }

    /// Replace engine stage `a` by its reference path.
    pub fn ablate(mut self, a: Ablation) -> CheckOptions {
        self.engine = self.engine.ablate(a);
        self
    }
}

/// Statistics of one SMT query issued during a check.
#[derive(Clone, Debug)]
pub struct QueryStat {
    pub label: String,
    pub outcome: String,
    pub duration: Duration,
    pub stats: CheckStats,
}

/// The full result of a check: verdict plus per-query statistics.
#[derive(Clone, Debug)]
pub struct Report {
    pub verdict: Verdict,
    pub queries: Vec<QueryStat>,
    pub elapsed: Duration,
}

impl Report {
    fn new(verdict: Verdict, queries: Vec<QueryStat>, started: Instant) -> Report {
        Report { verdict, queries, elapsed: started.elapsed() }
    }

    /// Total SMT solving time across queries.
    pub fn solver_time(&self) -> Duration {
        self.queries.iter().map(|q| q.duration).sum()
    }
}

/// Shared session state for one check.
pub(crate) struct Session {
    pub ctx: Ctx,
    budget: Budget,
    queries: Vec<QueryStat>,
    conc: HashMap<String, u64>,
    bits: u32,
    pub soundness: Soundness,
    mode: Mode,
    /// Resource caps (already folded into `budget`) and ablated stages.
    engine: EngineConfig,
    /// The persistent incremental solver, unused under
    /// [`Ablation::OneShot`].
    solve: SolveSession,
    /// Un-concretized ids of premises committed into the session's shared
    /// prefix; `query` subtracts these so only the delta is re-encoded.
    committed: HashSet<TermId>,
    cache: Option<QueryCache>,
    /// Memo for canonical fingerprints (the term DAG is append-only, so
    /// entries never go stale).
    canon_memo: HashMap<TermId, u128>,
    /// The check's root trace position plus the currently-open segment
    /// spans; queries open under the innermost. Leftover spans are closed
    /// on drop so traces stay balanced across early returns and errors.
    trace: TraceSpan,
    seg_stack: Vec<TraceSpan>,
    metrics: MetricsRegistry,
    /// Session-wide canonicalizer (memo keyed on the append-only term DAG,
    /// so entries stay valid across queries and epochs).
    norm: pug_smt::normalize::Normalizer,
}

/// Internal control flow: `Some` means stop with this verdict.
type Stop = Option<Verdict>;

impl Session {
    pub(crate) fn mode(&self) -> Mode {
        self.mode
    }

    pub(crate) fn take_report(&mut self, verdict: Verdict, started: Instant) -> Report {
        Report::new(verdict, std::mem::take(&mut self.queries), started)
    }

    pub(crate) fn take_queries(&mut self) -> Vec<QueryStat> {
        std::mem::take(&mut self.queries)
    }

    /// The "+C." map, for forwarding into extraction (loop unrolling).
    pub(crate) fn conc_map(&self) -> HashMap<String, u64> {
        self.conc.clone()
    }

    pub fn new(cfg: &GpuConfig, opts: &CheckOptions) -> Session {
        let engine = opts.engine;
        let budget = Budget {
            max_conflicts: engine.max_conflicts,
            max_clause_bytes: engine.max_clause_bytes,
            max_term_nodes: engine.max_term_nodes,
            cancel: match opts.timeout {
                Some(t) => opts.cancel.child_with_timeout(t),
                None => opts.cancel.clone(),
            },
        };
        Session {
            ctx: Ctx::new(),
            budget,
            queries: Vec::new(),
            conc: opts.concretize.clone(),
            bits: cfg.bits,
            // Fast bug hunting drops the coverage obligations up front, so
            // a clean run is an under-approximate proof by construction.
            soundness: match opts.mode {
                Mode::Prove => Soundness::Sound,
                Mode::FastBugHunt => Soundness::UnderApprox,
            },
            mode: opts.mode,
            engine,
            solve: SolveSession::with_config(engine.sat_config()),
            committed: HashSet::new(),
            cache: opts.query_cache.clone(),
            canon_memo: HashMap::new(),
            trace: opts.trace.clone(),
            seg_stack: Vec::new(),
            metrics: opts.metrics.clone(),
            norm: pug_smt::normalize::Normalizer::new(),
        }
    }

    /// Is the generalized (Presburger) elimination on? Off, the engine
    /// takes the pre-Presburger residual-drop path.
    pub(crate) fn qelim_enabled(&self) -> bool {
        !self.engine.ablated(Ablation::NoGeneralizedQelim)
    }

    /// The innermost open span (segment scope or the check root).
    fn current_span(&self) -> &TraceSpan {
        self.seg_stack.last().unwrap_or(&self.trace)
    }

    /// Open a named segment scope (e.g. `bi:2`); later queries nest under
    /// it until [`Session::exit_seg`]. Scopes left open by an early return
    /// or an error are closed when the session drops.
    pub(crate) fn enter_seg(&mut self, name: &str) {
        if self.trace.is_enabled() {
            let child = self.current_span().child(name);
            self.seg_stack.push(child);
        }
    }

    /// Close the innermost segment scope.
    pub(crate) fn exit_seg(&mut self) {
        if let Some(span) = self.seg_stack.pop() {
            span.close();
        }
    }

    /// Record a CA-chain resolution for an output array: how many
    /// conditional-assignment instantiations each side contributed and how
    /// many read obligations they induced (paper §IV, Fig. 2).
    pub(crate) fn note_ca_chain(&mut self, array: &str, insts_s: usize, insts_t: usize, obligations: usize) {
        if self.metrics.is_enabled() {
            self.metrics.add("resolve.ca_instantiations", (insts_s + insts_t) as u64);
            self.metrics.add("resolve.read_obligations", obligations as u64);
        }
        if self.trace.is_enabled() {
            self.current_span().point(
                &format!("ca-chain[{array}]"),
                vec![
                    ("insts_s", insts_s.into()),
                    ("insts_t", insts_t.into()),
                    ("obligations", obligations.into()),
                ],
            );
        }
    }

    /// A coverage obligation was discharged by a ∀-elimination witness.
    pub(crate) fn note_qelim_witnessed(&mut self) {
        self.metrics.incr("qelim.witnessed");
    }

    /// The generalized (Presburger) elimination produced the constraint or
    /// witness that made a formerly-residual obligation quantifier-free.
    pub(crate) fn note_qelim_generalized(&mut self) {
        self.metrics.incr("qelim.generalized");
    }

    /// A race report was classified ([`crate::verdict::RaceClass`]).
    pub(crate) fn note_race(&mut self, provable: bool) {
        self.metrics.incr("races.reported");
        self.metrics.incr(if provable { "races.provable" } else { "races.potential" });
    }

    /// No witness shape applied: the obligation was dropped and the proof
    /// downgraded to under-approximate.
    pub(crate) fn note_qelim_dropped(&mut self, array: &str) {
        self.metrics.incr("qelim.residual_dropped");
        if self.trace.is_enabled() {
            self.current_span().point(
                &format!("qelim-drop[{array}]"),
                vec![("effect", "soundness downgraded to under-approximate".into())],
            );
        }
    }

    /// Open a fresh solve-session epoch. The persistent session accumulates
    /// permanent Tseitin gates for every term it ever blasts, and each SAT
    /// call must assign and propagate the *whole* live CNF — so an unbounded
    /// session makes query N pay O(session age) even when the query itself
    /// is tiny. Lockstep callers window the session per segment: queries
    /// inside one segment share their (large) region premises through one
    /// epoch, while the next segment starts from a clean solver and
    /// re-commits only the small accumulated base.
    pub(crate) fn begin_epoch(&mut self) {
        if self.engine.ablated(Ablation::OneShot) {
            return;
        }
        self.metrics.incr("smt.epochs");
        self.solve = SolveSession::with_config(self.engine.sat_config());
        self.committed.clear();
    }

    /// Commit premises into the session's shared prefix: they are reduced,
    /// blasted and asserted permanently, so later queries pay only their
    /// delta. **Only premises contained in every later query of this check
    /// may be committed** — the callers pass the monotonically growing
    /// `base` premise sets, never per-segment `extra`s.
    pub(crate) fn commit_prefix(&mut self, terms: &[TermId]) {
        if self.engine.ablated(Ablation::OneShot) {
            return;
        }
        let mut fresh: Vec<TermId> = Vec::new();
        for &t in terms {
            if self.committed.insert(t) {
                let c = self.concretize(t);
                // Commit the *canonical* form: `query` normalizes its delta
                // the same way, so the subtraction stays consistent.
                let c = self.canon(c);
                fresh.push(c);
            }
        }
        if !fresh.is_empty() {
            self.solve.commit(&mut self.ctx, &fresh, &self.budget);
        }
    }

    /// Substitute concretized parameters ("+C.") into a term.
    fn concretize(&mut self, t: TermId) -> TermId {
        if self.conc.is_empty() {
            return t;
        }
        let mut map = HashMap::new();
        for (name, val) in &self.conc {
            let var = self.ctx.mk_var(name, Sort::BitVec(self.bits));
            let c = self.ctx.mk_bv_const(*val, self.bits);
            map.insert(var, c);
        }
        self.ctx.substitute(t, &map)
    }

    /// Canonical form of a (concretized) term, when normalization is on.
    /// A failpoint-aborted pass (`smt::normalize`) degrades to the raw
    /// term — sound, since every rule is equivalence-preserving — instead
    /// of poisoning the session.
    fn canon(&mut self, t: TermId) -> TermId {
        if self.engine.ablated(Ablation::NoNormalize) {
            return t;
        }
        match pug_smt::normalize::try_normalize(&mut self.norm, &mut self.ctx, t) {
            Some(n) => n,
            None => {
                self.metrics.incr("normalize.aborted");
                t
            }
        }
    }

    /// Run `premises ⇒ goal` as an UNSAT query, recording statistics.
    ///
    /// Callers always pass the *full* premise set; already-committed
    /// premises are subtracted here on the incremental path (they are
    /// permanent clauses in the session), and the cross-rung cache is
    /// consulted on the full concretized assert set before any solving.
    pub(crate) fn query(&mut self, label: &str, premises: &[TermId], goal: TermId) -> SmtResult {
        let started = Instant::now();
        // Span guard: closes on drop, so a panic unwinding through the
        // solver (into the rung's `catch_unwind`) still balances the trace.
        let qspan = if self.trace.is_enabled() {
            Some(self.current_span().child_guard(&format!("query:{label}")))
        } else {
            None
        };
        let mut asserts: Vec<TermId> = Vec::with_capacity(premises.len() + 1);
        let mut delta: Vec<TermId> = Vec::new();
        for &p in premises {
            let committed = self.committed.contains(&p);
            let c = self.concretize(p);
            let c = self.canon(c);
            asserts.push(c);
            if !committed {
                delta.push(c);
            }
        }
        let g = self.concretize(goal);
        let g = self.canon(g);
        let ng = self.ctx.mk_not(g);
        asserts.push(ng);
        delta.push(ng);

        // Rewrite discharge: canonicalization plus one round of fact
        // propagation collapsed the obligation to `⊥` — valid, zero SAT
        // calls, and no cache traffic (re-deriving it is cheaper than a
        // lookup would be). An armed `smt::check` failpoint disables the
        // shortcut: injected SMT-layer faults must hit every query, not
        // just the ones that happen to need the solver.
        if !self.engine.ablated(Ablation::NoNormalize)
            && pug_smt::failpoints::check("smt::check").is_none()
            && pug_smt::normalize::facts_refute(
                &mut self.ctx,
                &asserts[..asserts.len() - 1],
                ng,
            )
        {
            let duration = started.elapsed();
            let stats = CheckStats { discharged_by_rewrite: true, ..CheckStats::default() };
            if let Some(g) = qspan {
                g.finish(vec![
                    ("outcome", "valid (rewrite)".into()),
                    ("us", (duration.as_micros() as u64).into()),
                ]);
            }
            self.observe_query("valid (rewrite)", duration, &stats);
            self.queries.push(QueryStat {
                label: label.to_string(),
                outcome: "valid (rewrite)".into(),
                duration,
                stats,
            });
            return SmtResult::Unsat;
        }

        // Cross-rung cache: the fingerprint covers the full assert set, so
        // it is identical whichever path (or rung) would solve it.
        let fp = if self.cache.is_some() {
            Some(assert_fingerprint(&self.ctx, &asserts, &mut self.canon_memo))
        } else {
            None
        };
        if let (Some(cache), Some(f)) = (&self.cache, fp) {
            let hit = cache.lookup_unsat(f);
            if self.metrics.is_enabled() {
                // Per-lookup monotonic counters: the end-of-run
                // `cache.publish` gauges are overwritten by whoever
                // publishes last, so these are the only registry view that
                // survives shared registries (and the only one at all for
                // direct in-process checks that never publish).
                self.metrics.incr(if hit { "cache.lookup_hits" } else { "cache.lookup_misses" });
            }
            if hit {
                let duration = started.elapsed();
                let stats = CheckStats { cached: true, ..CheckStats::default() };
                if let Some(g) = qspan {
                    g.finish(vec![
                        ("outcome", "valid (cached)".into()),
                        ("us", (duration.as_micros() as u64).into()),
                    ]);
                }
                self.observe_query("valid (cached)", duration, &stats);
                self.queries.push(QueryStat {
                    label: label.to_string(),
                    outcome: "valid (cached)".into(),
                    duration,
                    stats,
                });
                return SmtResult::Unsat;
            }
        }

        let (r, stats) = if self.engine.ablated(Ablation::OneShot) {
            check_detailed_with(&mut self.ctx, &asserts, &self.budget, &self.engine.sat_config())
        } else {
            self.solve.check(&mut self.ctx, &delta, &self.budget)
        };
        if let (Some(cache), Some(f)) = (&self.cache, fp) {
            if r.is_unsat() {
                cache.record_unsat(f);
            }
        }
        let outcome = match &r {
            SmtResult::Unsat => "valid",
            SmtResult::Sat(_) => "counterexample",
            SmtResult::Unknown => "timeout",
        };
        let duration = started.elapsed();
        if let Some(g) = qspan {
            g.finish(vec![
                ("outcome", outcome.into()),
                ("us", (duration.as_micros() as u64).into()),
                ("conflicts", stats.sat.conflicts.into()),
                ("cnf_clauses", stats.cnf_clauses.into()),
            ]);
        }
        self.observe_query(outcome, duration, &stats);
        self.queries.push(QueryStat {
            label: label.to_string(),
            outcome: outcome.into(),
            duration,
            stats,
        });
        r
    }

    /// Feed one query's statistics into the metrics registry.
    fn observe_query(&self, outcome: &str, duration: Duration, stats: &CheckStats) {
        let m = &self.metrics;
        if !m.is_enabled() {
            return;
        }
        m.incr("queries.total");
        match outcome {
            "valid (cached)" => {
                m.incr("queries.cached");
                m.incr("queries.valid");
            }
            "valid (rewrite)" => {
                m.incr("queries.discharged_by_rewrite");
                m.incr("queries.valid");
            }
            "valid" => m.incr("queries.valid"),
            "counterexample" => m.incr("queries.counterexample"),
            _ => m.incr("queries.timeout"),
        }
        m.observe("query_us", duration);
        m.observe("solve_us", stats.solve_time);
        m.add("sat.conflicts", stats.sat.conflicts);
        m.add("sat.propagations", stats.sat.propagations);
        m.add("sat.decisions", stats.sat.decisions);
        m.add("sat.restarts", stats.sat.restarts);
        m.add("sat.learnt_clauses", stats.sat.learnt_clauses);
        m.add("sat.vars_eliminated", stats.sat.vars_eliminated);
        m.add("sat.clauses_subsumed", stats.sat.clauses_subsumed);
        m.add("smt.gates_hashconsed", stats.gates_hashconsed);
        m.add("smt.reduced_assertions", stats.reduced_assertions as u64);
        m.add("smt.clauses_reused", stats.clauses_reused as u64);
        m.add("smt.ack_selects", stats.ack_selects as u64);
        m.set_gauge("smt.cnf_vars", stats.cnf_vars as u64);
        m.set_gauge("smt.cnf_clauses", stats.cnf_clauses as u64);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Close any segment scopes left open by an early return (a bug
        // verdict mid-segment) or an error; the sink's structural validator
        // requires every span to close exactly once.
        while let Some(span) = self.seg_stack.pop() {
            span.close();
        }
    }
}

// ---------------------------------------------------------------------------
// Non-parameterized equivalence (§III)
// ---------------------------------------------------------------------------

/// Check equivalence with the §III encoding for a concrete configuration.
pub fn check_equivalence_nonparam(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let enc_s = crate::nonparam::encode_with(&mut sess.ctx, src, cfg, "s", &opts.concretize)?;
    let enc_t = crate::nonparam::encode_with(&mut sess.ctx, tgt, cfg, "t", &opts.concretize)?;

    let mut premises = enc_s.config_constraints.clone();
    premises.extend(enc_s.assumptions.iter().copied());
    premises.extend(enc_t.assumptions.iter().copied());

    let mut outputs: Vec<String> = enc_s.written.clone();
    outputs.extend(enc_t.written.iter().cloned());
    outputs.sort();
    outputs.dedup();

    let mut goals = Vec::new();
    for name in &outputs {
        let k = sess.ctx.fresh_var(&format!("k!{name}"), Sort::BitVec(cfg.bits));
        let fs = enc_s.final_arrays[name];
        let ft = enc_t.final_arrays[name];
        let ss = sess.ctx.mk_select(fs, k);
        let st = sess.ctx.mk_select(ft, k);
        goals.push(sess.ctx.mk_eq(ss, st));
    }
    let goal = sess.ctx.mk_and_many(&goals);

    let verdict = match sess.query("equivalence(nonparam)", &premises, goal) {
        SmtResult::Unsat => Verdict::Verified(Soundness::Sound),
        SmtResult::Unknown => Verdict::Timeout,
        SmtResult::Sat(model) => Verdict::Bug(BugReport::new(
            BugKind::EquivalenceMismatch,
            format!(
                "outputs of `{}` and `{}` differ under the witness configuration",
                src.kernel.name, tgt.kernel.name
            ),
            model,
            &sess.ctx,
        )),
    };
    Ok(sess.take_report(verdict, started))
}

// ---------------------------------------------------------------------------
// Parameterized equivalence (§IV)
// ---------------------------------------------------------------------------

/// Check equivalence with the parameterized encoding (arbitrary thread
/// count; the configuration may be symbolic or partially concretized).
pub fn check_equivalence_param(
    src: &KernelUnit,
    tgt: &KernelUnit,
    cfg: &GpuConfig,
    opts: &CheckOptions,
) -> Result<Report, Error> {
    let started = Instant::now();
    let mut sess = Session::new(cfg, opts);
    let bound = cfg.bind(&mut sess.ctx, "");

    let segs_s = pug_ir::split_segments(&src.kernel.body)?;
    let segs_t = pug_ir::split_segments(&tgt.kernel.body)?;
    let loops = |segs: &[Segment]| segs.iter().any(|s| matches!(s, Segment::Loop { .. }));

    let verdict = if !loops(&segs_s) && !loops(&segs_t) {
        whole_kernel_equiv(&mut sess, src, tgt, &bound)?
    } else {
        lockstep_equiv(&mut sess, src, tgt, &bound, &segs_s, &segs_t)?
    };
    let verdict = match verdict {
        Some(v) => v,
        None => Verdict::Verified(sess.soundness),
    };
    Ok(sess.take_report(verdict, started))
}

fn whole_kernel_equiv(
    sess: &mut Session,
    src: &KernelUnit,
    tgt: &KernelUnit,
    bound: &BoundConfig,
) -> Result<Stop, Error> {
    let bis_s = split_bis(&src.kernel.body)?;
    let bis_t = split_bis(&tgt.kernel.body)?;
    let conc = sess.conc_map();
    let region_s = extract_region(
        &mut sess.ctx,
        src,
        bound,
        &bis_s,
        ExtractOptions {
            tag: "s",
            entry_versions: HashMap::new(),
            extra_locals: vec![],
            region: String::new(),
            concretize: conc,
        },
    )?;
    let conc = sess.conc_map();
    let region_t = extract_region(
        &mut sess.ctx,
        tgt,
        bound,
        &bis_t,
        ExtractOptions {
            tag: "t",
            entry_versions: HashMap::new(),
            extra_locals: vec![],
            region: String::new(),
            concretize: conc,
        },
    )?;

    let mut outputs = src.written_globals();
    outputs.extend(tgt.written_globals());
    outputs.sort();
    outputs.dedup();

    let mut base = bound.constraints.clone();
    base.extend(region_s.outputs.assumptions.iter().copied());
    base.extend(region_t.outputs.assumptions.iter().copied());

    // Every query of this check carries `base` — commit it once.
    sess.commit_prefix(&base);
    compare_regions(sess, bound, &region_s, &region_t, &outputs, &base, &[])
}

/// The term-level plan for one output array's obligations: everything
/// [`check_array`] needs, built by [`resolve_array`].
struct ArrayPlan {
    array: String,
    k: TermId,
    out_s: ResolvedOutput,
    out_t: ResolvedOutput,
    prem_s: Vec<TermId>,
    prem_t: Vec<TermId>,
    obs_s: Vec<CoverageObligation>,
    obs_t: Vec<CoverageObligation>,
}

/// Build the [`ArrayPlan`] for `array`: fresh comparison index, one shared
/// observer thread, both sides' CA-chain resolution and the observer-range
/// premises. This is the only part of an array's check that allocates
/// fresh variables (`k!…`, `obs!…`, resolver internals); the query goals
/// themselves are built in [`check_array`].
fn resolve_array(
    sess: &mut Session,
    bound: &BoundConfig,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    array: &str,
) -> ArrayPlan {
    let k = sess.ctx.fresh_var(&format!("k!{array}"), Sort::BitVec(bound.bits));

    // One shared observer per output array: per-block shared memory is
    // compared block-for-block within the observer's (symbolic) block.
    let (out_s, prem_s, obs_s, observer) = {
        let mut r = Resolver::new(&mut sess.ctx, region_s, "s");
        let observer = r.observer(&format!("obs!{array}"));
        let o = r.resolve_output(array, k, observer);
        (o, r.all_premises(), r.obligations, observer)
    };
    let (out_t, prem_t, obs_t) = {
        let mut r = Resolver::new(&mut sess.ctx, region_t, "t");
        let o = r.resolve_output(array, k, observer);
        (o, r.all_premises(), r.obligations)
    };
    // The observer must be a real thread; its range joins every premise
    // set for this array (value, asymmetry, coverage, obligations).
    let observer_range = thread_range(&mut sess.ctx, bound, observer.tid, observer.bid);
    let mut prem_s = prem_s;
    let mut prem_t = prem_t;
    prem_s.push(observer_range);
    prem_t.push(observer_range);
    ArrayPlan { array: array.to_string(), k, out_s, out_t, prem_s, prem_t, obs_s, obs_t }
}

/// Run all query families for one planned array: value, asymmetric
/// writes, output coverage and read-coverage obligations. `Ok(None)`
/// means the array is clean; anything else is decisive for the check.
#[allow(clippy::too_many_arguments)]
fn check_array(
    sess: &mut Session,
    bound: &BoundConfig,
    plan: &ArrayPlan,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    base: &[TermId],
    extra: &[TermId],
) -> Result<Stop, Error> {
    let ArrayPlan { array, k, out_s, out_t, prem_s, prem_t, obs_s, obs_t } = plan;
    let k = *k;

    // ---- value query: co-covered cells get equal values ----
    if !out_s.insts.is_empty() && !out_t.insts.is_empty() {
        let mut premises = base.to_vec();
        premises.extend(extra.iter().copied());
        premises.extend(prem_s.iter().copied());
        premises.extend(prem_t.iter().copied());
        premises.push(out_s.cover);
        premises.push(out_t.cover);
        let goal = sess.ctx.mk_eq(out_s.value, out_t.value);
        match sess.query(&format!("value[{array}]"), &premises, goal) {
            SmtResult::Unsat => {}
            SmtResult::Unknown => return Ok(Some(Verdict::Timeout)),
            SmtResult::Sat(model) => {
                return Ok(Some(Verdict::Bug(BugReport::new(
                    BugKind::EquivalenceMismatch,
                    format!("kernels write different values to `{array}` at the witness index"),
                    model,
                    &sess.ctx,
                ))))
            }
        }
    }

    if sess.mode == Mode::FastBugHunt {
        return Ok(None);
    }

    // ---- asymmetric writes: one side writes, the other never does ----
    for (name, out, prem, other_writes) in [
        ("s", out_s, prem_s, !out_t.insts.is_empty()),
        ("t", out_t, prem_t, !out_s.insts.is_empty()),
    ] {
        if !out.insts.is_empty() && !other_writes {
            // The other kernel leaves `array[k]` at its entry value.
            let entry = region_s.entries.get(array).copied().unwrap_or_else(|| {
                region_t.entries[array]
            });
            let mut premises = base.to_vec();
            premises.extend(extra.iter().copied());
            premises.extend(prem.iter().copied());
            premises.push(out.cover);
            let old = sess.ctx.mk_select(entry, k);
            let goal = sess.ctx.mk_eq(out.value, old);
            match sess.query(&format!("asym[{array},{name}]"), &premises, goal) {
                SmtResult::Unsat => {}
                SmtResult::Unknown => return Ok(Some(Verdict::Timeout)),
                SmtResult::Sat(model) => {
                    return Ok(Some(Verdict::Bug(BugReport::new(
                        BugKind::EquivalenceMismatch,
                        format!(
                            "kernel `{name}` modifies `{array}` at a cell the other kernel never writes"
                        ),
                        model,
                        &sess.ctx,
                    ))))
                }
            }
        }
    }

    // ---- output coverage: same cell set, via witness correspondences ----
    if !out_s.insts.is_empty() && !out_t.insts.is_empty() {
        for (dir, from, from_prem, to, to_region) in [
            ("s->t", out_s, prem_s, out_t, region_t),
            ("t->s", out_t, prem_t, out_s, region_s),
        ] {
            match coverage_direction(sess, bound, from, from_prem, to, to_region, k, base, extra)? {
                DirectionOutcome::Proven => {}
                DirectionOutcome::Timeout => return Ok(Some(Verdict::Timeout)),
                DirectionOutcome::Unproven(model) => {
                    // A failed witness is not a proof of a bug for
                    // arbitrary kernels, but the model exhibits a cell
                    // covered by one kernel with no witnessed writer in
                    // the other — report it (the paper reports the
                    // analogous non-square-block case as a bug).
                    return Ok(Some(Verdict::Bug(BugReport::new(
                        BugKind::CoverageMismatch,
                        format!(
                            "output coverage of `{array}` differs ({dir}); \
                             no thread correspondence witness covers the shown cell"
                        ),
                        model,
                        &sess.ctx,
                    ))));
                }
            }
        }
    }

    // ---- read coverage obligations (hidden assumptions) ----
    for (tag, obs, prem, region) in
        [("s", obs_s, prem_s, region_s), ("t", obs_t, prem_t, region_t)]
    {
        for ob in obs.iter() {
            match obligation_check(sess, bound, ob, region, prem, base, extra)? {
                DirectionOutcome::Proven => {}
                DirectionOutcome::Timeout => return Ok(Some(Verdict::Timeout)),
                DirectionOutcome::Unproven(model) => {
                    return Ok(Some(Verdict::Bug(BugReport::new(
                        BugKind::CoverageMismatch,
                        format!(
                            "kernel `{tag}` reads `{}` at a cell no thread is witnessed \
                             to write — a hidden configuration assumption is violated \
                             (cf. the non-square Transpose block, paper §IV-B)",
                            ob.array
                        ),
                        model,
                        &sess.ctx,
                    ))));
                }
            }
        }
    }
    Ok(None)
}

/// Compare two extracted regions on the given output arrays, one array
/// after another in one solver context: each array is resolved, then its
/// value and coverage obligations are discharged, and the first decisive
/// outcome (bug, timeout) stops the comparison.
fn compare_regions(
    sess: &mut Session,
    bound: &BoundConfig,
    region_s: &ParamRegion,
    region_t: &ParamRegion,
    outputs: &[String],
    base: &[TermId],
    extra: &[TermId],
) -> Result<Stop, Error> {
    for array in outputs {
        let plan = resolve_array(sess, bound, region_s, region_t, array);
        sess.note_ca_chain(
            &plan.array,
            plan.out_s.insts.len(),
            plan.out_t.insts.len(),
            plan.obs_s.len() + plan.obs_t.len(),
        );
        if let Some(v) = check_array(sess, bound, &plan, region_s, region_t, base, extra)? {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

enum DirectionOutcome {
    Proven,
    Unproven(pug_smt::Model),
    Timeout,
}

/// Witness correspondences between a reference thread and writer threads.
#[derive(Clone, Copy, Debug)]
enum WitnessKind {
    /// Writer = reference thread.
    Identity,
    /// Writer = reference thread with `tid.x`/`tid.y` swapped, same block —
    /// the transpose correspondence of §IV-B (the tile keeps its block; the
    /// thread roles swap through the reassigned `xIndex`/`yIndex`).
    SwapTid,
    /// Writer = reference thread with x/y swapped on both `tid` and `bid`.
    SwapBoth,
    /// Writer's `tid.x` inverted from the address: for CAs writing at
    /// `c · τ.x` (or `τ.x << c`, or plain `τ.x`), the witness thread has
    /// `tid.x := addr / c` — the reduction correspondence.
    InvertX,
    /// General affine inversion via the Presburger bridge: for CAs writing
    /// at any affine map `c·τ.x + d`, the witness thread is
    /// `tid.x := c⁻¹·(addr − d)` (modular inverse), with a divisibility
    /// side condition when `c` is even. Only tried when the generalized
    /// qelim is enabled; the side condition is conjoined into the cover so
    /// the SMT solver re-validates the inversion in modular arithmetic.
    Affine,
}

const WITNESSES: [WitnessKind; 4] = [
    WitnessKind::Identity,
    WitnessKind::SwapTid,
    WitnessKind::SwapBoth,
    WitnessKind::InvertX,
];

const GENERALIZED_WITNESSES: [WitnessKind; 5] = [
    WitnessKind::Identity,
    WitnessKind::SwapTid,
    WitnessKind::SwapBoth,
    WitnessKind::InvertX,
    WitnessKind::Affine,
];

/// The witness shapes the session may try: the static shapes always, the
/// Presburger-backed affine inversion only when the generalized
/// elimination is usable.
fn witness_kinds(sess: &Session) -> &'static [WitnessKind] {
    if sess.qelim_enabled() {
        &GENERALIZED_WITNESSES
    } else {
        &WITNESSES
    }
}

/// Build the witnessed cover for `insts`: the disjunction over
/// instantiations of `cond ∧ range` with each instantiation's fresh thread
/// replaced by witness terms derived from `reference` (and `addr` for
/// inversion). `canonical_tid_x` is the τ.x the CA addresses are phrased
/// over. Returns `None` when the witness shape does not apply.
fn witness_cover(
    sess: &mut Session,
    bound: &BoundConfig,
    kind: WitnessKind,
    insts: &[Instantiation],
    canonical_tid_x: TermId,
    reference: ThreadRef,
    addr: TermId,
) -> Option<TermId> {
    let mut disj = sess.ctx.mk_false();
    for inst in insts {
        let (wthread, side) = match kind {
            WitnessKind::Identity => (reference, None),
            WitnessKind::SwapTid => (
                ThreadRef {
                    tid: [reference.tid[1], reference.tid[0], reference.tid[2]],
                    bid: reference.bid,
                },
                None,
            ),
            WitnessKind::SwapBoth => (
                ThreadRef {
                    tid: [reference.tid[1], reference.tid[0], reference.tid[2]],
                    bid: [reference.bid[1], reference.bid[0]],
                },
                None,
            ),
            WitnessKind::InvertX => {
                let inv = invert_x(sess, inst.canonical_addr, canonical_tid_x, addr)?;
                (
                    ThreadRef {
                        tid: [inv, reference.tid[1], reference.tid[2]],
                        bid: reference.bid,
                    },
                    None,
                )
            }
            WitnessKind::Affine => {
                let (inv, side) = crate::presburger::invert_affine(
                    &mut sess.ctx,
                    inst.canonical_addr,
                    canonical_tid_x,
                    addr,
                )?;
                (
                    ThreadRef {
                        tid: [inv, reference.tid[1], reference.tid[2]],
                        bid: reference.bid,
                    },
                    side,
                )
            }
        };
        let mut map = HashMap::new();
        for i in 0..3 {
            map.insert(inst.thread.tid[i], wthread.tid[i]);
        }
        for i in 0..2 {
            map.insert(inst.thread.bid[i], wthread.bid[i]);
        }
        let cond_w = sess.ctx.substitute(inst.cond, &map);
        let range_w = thread_range(&mut sess.ctx, bound, wthread.tid, wthread.bid);
        let mut branch = sess.ctx.mk_and(cond_w, range_w);
        if let Some(side) = side {
            branch = sess.ctx.mk_and(branch, side);
        }
        disj = sess.ctx.mk_or(disj, branch);
    }
    Some(disj)
}

/// Invert a canonical CA address `c·τx`, `τx·c`, `τx << c` or `τx` at the
/// concrete read address `addr`, yielding the witness `tid.x`.
fn invert_x(sess: &mut Session, canonical_addr: TermId, tau_x: TermId, addr: TermId) -> Option<TermId> {
    if canonical_addr == tau_x {
        return Some(addr);
    }
    match sess.ctx.op(canonical_addr).clone() {
        Op::BvMul => {
            let a = sess.ctx.args(canonical_addr).to_vec();
            let coeff = if a[0] == tau_x {
                a[1]
            } else if a[1] == tau_x {
                a[0]
            } else {
                return None;
            };
            Some(sess.ctx.mk_bv_udiv(addr, coeff))
        }
        Op::BvShl => {
            let a = sess.ctx.args(canonical_addr).to_vec();
            if a[0] != tau_x {
                return None;
            }
            Some(sess.ctx.mk_bv_lshr(addr, a[1]))
        }
        _ => None,
    }
}

/// Coverage direction check: every cell covered by `from` is covered by
/// `to`, using witness correspondences.
#[allow(clippy::too_many_arguments)]
fn coverage_direction(
    sess: &mut Session,
    bound: &BoundConfig,
    from: &ResolvedOutput,
    from_prem: &[TermId],
    to: &ResolvedOutput,
    to_region: &ParamRegion,
    k: TermId,
    base: &[TermId],
    extra: &[TermId],
) -> Result<DirectionOutcome, Error> {
    let mut last_model = None;
    'insts: for inst in &from.insts {
        for &kind in witness_kinds(sess) {
            let cover_w = witness_cover(
                sess,
                bound,
                kind,
                &to.insts,
                to_region.thread.tid[0],
                inst.thread,
                k,
            );
            let Some(cover_w) = cover_w else { continue };
            let mut premises = base.to_vec();
            premises.extend(extra.iter().copied());
            premises.extend(from_prem.iter().copied());
            premises.push(inst.cond);
            match sess.query(&format!("coverage[{kind:?}]"), &premises, cover_w) {
                SmtResult::Unsat => {
                    sess.note_qelim_witnessed();
                    if matches!(kind, WitnessKind::Affine) {
                        sess.note_qelim_generalized();
                    }
                    continue 'insts;
                }
                SmtResult::Unknown => return Ok(DirectionOutcome::Timeout),
                SmtResult::Sat(m) => last_model = Some(m),
            }
        }
        return Ok(DirectionOutcome::Unproven(last_model.expect("at least one witness ran")));
    }
    Ok(DirectionOutcome::Proven)
}

/// Read-coverage obligation: under the reading context, some witnessed
/// writer covers the read address.
fn obligation_check(
    sess: &mut Session,
    bound: &BoundConfig,
    ob: &CoverageObligation,
    region: &ParamRegion,
    resolver_prem: &[TermId],
    base: &[TermId],
    extra: &[TermId],
) -> Result<DirectionOutcome, Error> {
    let mut last_model = None;
    for &kind in witness_kinds(sess) {
        let cover_w = witness_cover(
            sess,
            bound,
            kind,
            &ob.insts,
            region.thread.tid[0],
            ob.reader,
            ob.addr,
        );
        let Some(cover_w) = cover_w else { continue };
        let mut premises = base.to_vec();
        premises.extend(extra.iter().copied());
        premises.extend(resolver_prem.iter().copied());
        premises.push(ob.guard);
        match sess.query(&format!("read-coverage[{}:{kind:?}]", ob.array), &premises, cover_w) {
            SmtResult::Unsat => {
                sess.note_qelim_witnessed();
                if matches!(kind, WitnessKind::Affine) {
                    sess.note_qelim_generalized();
                }
                return Ok(DirectionOutcome::Proven);
            }
            SmtResult::Unknown => return Ok(DirectionOutcome::Timeout),
            SmtResult::Sat(m) => last_model = Some(m),
        }
    }
    match last_model {
        Some(m) => Ok(DirectionOutcome::Unproven(m)),
        // No applicable witness shape: the obligation is unverified but
        // there is no evidence of a bug — downgrade soundness instead.
        None => {
            sess.note_qelim_dropped(&ob.array);
            sess.soundness = Soundness::UnderApprox;
            Ok(DirectionOutcome::Proven)
        }
    }
}

/// Obligation check for other checkers (postcondition, races): returns
/// `Some(verdict)` when checking must stop.
pub(crate) fn obligation_check_pub(
    sess: &mut Session,
    bound: &BoundConfig,
    ob: &CoverageObligation,
    region: &ParamRegion,
    premises: &[TermId],
) -> Result<Option<Verdict>, Error> {
    match obligation_check(sess, bound, ob, region, premises, &[], &[])? {
        DirectionOutcome::Proven => Ok(None),
        DirectionOutcome::Timeout => Ok(Some(Verdict::Timeout)),
        DirectionOutcome::Unproven(model) => Ok(Some(Verdict::Bug(BugReport::new(
            BugKind::CoverageMismatch,
            format!(
                "a read of `{}` hits a cell no thread is witnessed to write (hidden \
                 configuration assumption violated)",
                ob.array
            ),
            model,
            &sess.ctx,
        )))),
    }
}

// ---------------------------------------------------------------------------
// Lockstep (loop-aligned) equivalence — §IV-E
// ---------------------------------------------------------------------------

fn lockstep_equiv(
    sess: &mut Session,
    src: &KernelUnit,
    tgt: &KernelUnit,
    bound: &BoundConfig,
    segs_s: &[Segment],
    segs_t: &[Segment],
) -> Result<Stop, Error> {
    if segs_s.len() != segs_t.len() {
        return Err(Error::AlignmentFailed {
            detail: format!(
                "segment counts differ: {} vs {}",
                segs_s.len(),
                segs_t.len()
            ),
        });
    }
    let w = bound.bits;
    let sort = Sort::Array { index: w, elem: w };

    // All arrays (globals by name; shared arrays must match by name).
    let mut arrays = src.global_arrays();
    arrays.extend(src.shared_arrays());
    {
        let mut t_arrays = tgt.global_arrays();
        t_arrays.extend(tgt.shared_arrays());
        let mut a = arrays.clone();
        a.sort();
        let mut b = t_arrays;
        b.sort();
        if a != b {
            return Err(Error::AlignmentFailed {
                detail: "kernels declare different array sets; lockstep comparison needs \
                         matching names"
                    .into(),
            });
        }
    }

    // `requires`/`assume` facts are configuration-level and accumulate
    // across segments (they are typically stated at the top of the kernel,
    // i.e. inside segment 0).
    let mut accumulated: Vec<TermId> = bound.constraints.clone();

    for (i, (ss, ts)) in segs_s.iter().zip(segs_t.iter()).enumerate() {
        // One solve-session epoch per segment: later segments never query
        // this segment's region premises again, so carrying their gate
        // clauses forward would only tax every later propagation.
        sess.begin_epoch();
        sess.enter_seg(&format!("bi:{i}"));
        // Segment-entry state: shared between the two kernels (the
        // inductive hypothesis). Kernel-entry shared memory stays
        // uninitialized per kernel.
        let mut entries: HashMap<String, TermId> = HashMap::new();
        for name in &arrays {
            let is_shared_mem = src.shared_arrays().contains(name);
            if i == 0 && is_shared_mem {
                continue; // uninitialized at kernel entry
            }
            let t = sess.ctx.mk_var(&format!("{name}@seg{i}"), sort);
            entries.insert(name.clone(), t);
        }

        match (ss, ts) {
            (Segment::Straight(a), Segment::Straight(b)) => {
                let conc = sess.conc_map();
                let region_s = extract_region(
                    &mut sess.ctx,
                    src,
                    bound,
                    std::slice::from_ref(a),
                    ExtractOptions {
                        tag: &format!("s{i}"),
                        entry_versions: entries.clone(),
                        extra_locals: vec![],
                        region: format!("seg{i}"),
                        concretize: conc,
                    },
                )?;
                let conc = sess.conc_map();
                let region_t = extract_region(
                    &mut sess.ctx,
                    tgt,
                    bound,
                    std::slice::from_ref(b),
                    ExtractOptions {
                        tag: &format!("t{i}"),
                        entry_versions: entries,
                        extra_locals: vec![],
                        region: format!("seg{i}"),
                        concretize: conc,
                    },
                )?;
                let outputs = written_in_regions(&region_s, &region_t);
                accumulated.extend(region_s.outputs.assumptions.iter().copied());
                accumulated.extend(region_t.outputs.assumptions.iter().copied());
                let base = accumulated.clone();
                // `accumulated` only ever grows, so each segment's base is
                // contained in every later segment's queries — safe to
                // commit incrementally (the delta is the new assumptions).
                sess.commit_prefix(&base);
                if let Some(v) =
                    compare_regions(sess, bound, &region_s, &region_t, &outputs, &base, &[])?
                {
                    return Ok(Some(v));
                }
            }
            (
                Segment::Loop { init: i_s, cond: c_s, update: u_s, body: b_s, .. },
                Segment::Loop { init: i_t, cond: c_t, update: u_t, body: b_t, .. },
            ) => {
                let h_s = normalize_header(i_s, c_s, u_s).ok_or_else(|| Error::AlignmentFailed {
                    detail: "source loop header is not in a recognized form".into(),
                })?;
                let h_t = normalize_header(i_t, c_t, u_t).ok_or_else(|| Error::AlignmentFailed {
                    detail: "target loop header is not in a recognized form".into(),
                })?;
                let alignment =
                    align_headers(&h_s, &h_t).ok_or_else(|| Error::AlignmentFailed {
                        detail: format!(
                            "loop headers do not align: {:?} vs {:?}",
                            h_s.space, h_t.space
                        ),
                    })?;
                let mut extra = Vec::new();
                let kvar = sess.ctx.mk_var(&format!("k!seg{i}"), Sort::BitVec(w));
                let params = scalar_params(&[src, tgt]);
                match &alignment {
                    Alignment::SameOrder => {
                        extra.push(space_constraint(sess, bound, &h_s.space, kvar, &params)?);
                    }
                    Alignment::Reversed { pow2_bound } => {
                        // Reversed traversal: sound only for commutative-
                        // associative accumulation, and the bound must be a
                        // power of two (else the iteration sets differ).
                        if !(all_writes_accumulate(b_s, src) && all_writes_accumulate(b_t, tgt)) {
                            return Err(Error::AlignmentFailed {
                                detail: "reversed loop order needs += accumulation bodies".into(),
                            });
                        }
                        sess.soundness = Soundness::UnderApprox;
                        let bterm = lower_config_expr(sess, bound, pow2_bound, &params)?;
                        extra.push(pow2_constraint(sess, bterm));
                        extra.push(space_constraint(
                            sess,
                            bound,
                            &LoopSpace::GeometricUp {
                                start: Expr::Int(1),
                                bound: pow2_bound.clone(),
                                ratio: 2,
                            },
                            kvar,
                            &params,
                        )?);
                    }
                }
                let body_bis_s = split_bis(b_s)?;
                let body_bis_t = split_bis(b_t)?;
                let conc = sess.conc_map();
                let region_s = extract_region(
                    &mut sess.ctx,
                    src,
                    bound,
                    &body_bis_s,
                    ExtractOptions {
                        tag: &format!("s{i}"),
                        entry_versions: entries.clone(),
                        extra_locals: vec![(h_s.var.clone(), kvar, false)],
                        region: format!("seg{i}"),
                        concretize: conc,
                    },
                )?;
                let conc = sess.conc_map();
                let region_t = extract_region(
                    &mut sess.ctx,
                    tgt,
                    bound,
                    &body_bis_t,
                    ExtractOptions {
                        tag: &format!("t{i}"),
                        entry_versions: entries,
                        extra_locals: vec![(h_t.var.clone(), kvar, false)],
                        region: format!("seg{i}"),
                        concretize: conc,
                    },
                )?;
                let outputs = written_in_regions(&region_s, &region_t);
                accumulated.extend(region_s.outputs.assumptions.iter().copied());
                accumulated.extend(region_t.outputs.assumptions.iter().copied());
                let base = accumulated.clone();
                // Commit only `base`; the loop-space `extra` premises are
                // per-segment and must stay retractable.
                sess.commit_prefix(&base);
                if let Some(v) =
                    compare_regions(sess, bound, &region_s, &region_t, &outputs, &base, &extra)?
                {
                    return Ok(Some(v));
                }
            }
            _ => {
                return Err(Error::AlignmentFailed {
                    detail: format!("segment {i} kinds differ (straight vs loop)"),
                })
            }
        }
        sess.exit_seg();
    }
    Ok(None)
}

/// Arrays written in either region (their finals differ from entries).
fn written_in_regions(a: &ParamRegion, b: &ParamRegion) -> Vec<String> {
    let mut out = Vec::new();
    for r in [a, b] {
        for (name, &f) in &r.finals {
            if r.entries.get(name) != Some(&f) {
                out.push(name.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Syntactic check: every assignment to an array in `body` is `+=`.
fn all_writes_accumulate(body: &[Stmt], unit: &KernelUnit) -> bool {
    fn walk(stmts: &[Stmt], unit: &KernelUnit, ok: &mut bool) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, op, .. } => {
                    let is_array = matches!(
                        unit.types.vars.get(&lhs.name),
                        Some(VarInfo::GlobalArray { .. })
                            | Some(VarInfo::SharedArray { .. })
                            | Some(VarInfo::LocalArray { .. })
                    );
                    if is_array && *op != Some(BinOp::Add) {
                        *ok = false;
                    }
                }
                Stmt::If { then, els, .. } => {
                    walk(then, unit, ok);
                    walk(els, unit, ok);
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, unit, ok),
                _ => {}
            }
        }
    }
    let mut ok = true;
    walk(body, unit, &mut ok);
    ok
}

/// Names of the scalar kernel parameters of `units` — the only identifiers
/// [`lower_config_expr`] may treat as loop bounds (locals are SSA-renamed
/// by the symbolic lowering and have no stable name to bind to).
pub(crate) fn scalar_params(units: &[&KernelUnit]) -> HashSet<String> {
    let mut out = HashSet::new();
    for u in units {
        for (name, info) in &u.types.vars {
            if matches!(info, VarInfo::Scalar { is_param: true, .. }) {
                out.insert(name.clone());
            }
        }
    }
    out
}

/// Lower a configuration-only expression (loop bounds) to a term.
fn lower_config_expr(
    sess: &mut Session,
    bound: &BoundConfig,
    e: &Expr,
    params: &HashSet<String>,
) -> Result<TermId, Error> {
    let w = bound.bits;
    let t = match e {
        Expr::Int(n) => sess.ctx.mk_bv_const(*n, w),
        Expr::Builtin(Builtin::Bdim(d)) => bound.bdim[dim_ix(*d)],
        Expr::Builtin(Builtin::Gdim(d)) => bound.gdim[dim_ix(*d).min(1)],
        // Scalar kernel parameters are sound bounds: the symbolic lowering
        // (`exec.rs`) binds them as free variables by the same name, so
        // `mk_var` here denotes the identical value. Gated on the
        // generalized qelim so the legacy path keeps its exact behavior.
        Expr::Ident(name) if params.contains(name) && sess.qelim_enabled() => {
            match sess.conc.get(name).copied() {
                Some(v) => sess.ctx.mk_bv_const(v, w),
                None => sess.ctx.mk_var(name, Sort::BitVec(w)),
            }
        }
        Expr::Ident(name) if params.contains(name) => {
            sess.metrics.incr("qelim.residual_dropped");
            return Err(Error::AlignmentFailed {
                detail: format!("loop bound must be configuration-only, found {e:?}"),
            });
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = lower_config_expr(sess, bound, lhs, params)?;
            let b = lower_config_expr(sess, bound, rhs, params)?;
            match op {
                BinOp::Add => sess.ctx.mk_bv_add(a, b),
                BinOp::Sub => sess.ctx.mk_bv_sub(a, b),
                BinOp::Mul => sess.ctx.mk_bv_mul(a, b),
                BinOp::Div => sess.ctx.mk_bv_udiv(a, b),
                BinOp::Rem => sess.ctx.mk_bv_urem(a, b),
                BinOp::Shl => sess.ctx.mk_bv_shl(a, b),
                BinOp::Shr => sess.ctx.mk_bv_lshr(a, b),
                _ => {
                    return Err(Error::AlignmentFailed {
                        detail: format!("unsupported operator in loop bound: {op:?}"),
                    })
                }
            }
        }
        other => {
            return Err(Error::AlignmentFailed {
                detail: format!("loop bound must be configuration-only, found {other:?}"),
            })
        }
    };
    Ok(t)
}

fn dim_ix(d: Dim) -> usize {
    match d {
        Dim::X => 0,
        Dim::Y => 1,
        Dim::Z => 2,
    }
}

/// `b` is a non-zero power of two.
fn pow2_constraint(sess: &mut Session, b: TermId) -> TermId {
    let w = sess.ctx.width(b);
    let zero = sess.ctx.mk_bv_const(0, w);
    let one = sess.ctx.mk_bv_const(1, w);
    let nz = sess.ctx.mk_neq(b, zero);
    let bm1 = sess.ctx.mk_bv_sub(b, one);
    let and = sess.ctx.mk_bv_and(b, bm1);
    let p2 = sess.ctx.mk_eq(and, zero);
    sess.ctx.mk_and(nz, p2)
}

/// Membership constraint `k ∈ space` (shared with the race and perf
/// checkers).
pub(crate) fn space_constraint(
    sess: &mut Session,
    bound: &BoundConfig,
    space: &LoopSpace,
    k: TermId,
    params: &HashSet<String>,
) -> Result<TermId, Error> {
    let w = bound.bits;
    match space {
        LoopSpace::GeometricUp { start, bound: b, ratio: 2 } => {
            if !matches!(start, Expr::Int(1)) {
                return Err(Error::AlignmentFailed {
                    detail: "geometric loops must start at 1".into(),
                });
            }
            let bt = lower_config_expr(sess, bound, b, params)?;
            let zero = sess.ctx.mk_bv_const(0, w);
            let one = sess.ctx.mk_bv_const(1, w);
            let nz = sess.ctx.mk_neq(k, zero);
            let km1 = sess.ctx.mk_bv_sub(k, one);
            let kand = sess.ctx.mk_bv_and(k, km1);
            let pow2 = sess.ctx.mk_eq(kand, zero);
            let lt = sess.ctx.mk_bv_ult(k, bt);
            let a = sess.ctx.mk_and(nz, pow2);
            Ok(sess.ctx.mk_and(a, lt))
        }
        LoopSpace::GeometricDown { start, ratio: 2 } => {
            let st = lower_config_expr(sess, bound, start, params)?;
            let zero = sess.ctx.mk_bv_const(0, w);
            let one = sess.ctx.mk_bv_const(1, w);
            let nz = sess.ctx.mk_neq(k, zero);
            let km1 = sess.ctx.mk_bv_sub(k, one);
            let kand = sess.ctx.mk_bv_and(k, km1);
            let pow2 = sess.ctx.mk_eq(kand, zero);
            let le = sess.ctx.mk_bv_ule(k, st);
            let a = sess.ctx.mk_and(nz, pow2);
            Ok(sess.ctx.mk_and(a, le))
        }
        LoopSpace::LinearUp { start, bound: b, step, inclusive } => {
            let st = lower_config_expr(sess, bound, start, params)?;
            let bt = lower_config_expr(sess, bound, b, params)?;
            let ge = sess.ctx.mk_bv_ule(st, k);
            let ub = if *inclusive {
                sess.ctx.mk_bv_ule(k, bt)
            } else {
                sess.ctx.mk_bv_ult(k, bt)
            };
            let mut c = sess.ctx.mk_and(ge, ub);
            if *step > 1 {
                let stp = sess.ctx.mk_bv_const(*step, w);
                let diff = sess.ctx.mk_bv_sub(k, st);
                let rem = sess.ctx.mk_bv_urem(diff, stp);
                let zero = sess.ctx.mk_bv_const(0, w);
                let aligned = sess.ctx.mk_eq(rem, zero);
                c = sess.ctx.mk_and(c, aligned);
            }
            Ok(c)
        }
        // Symbolic stride (`i += bdim.x` and friends): the membership set
        // is no longer expressible by the monotone qelim machinery — it
        // needs the Presburger stride encoding. When the generalized
        // elimination is off (or failpoint-aborted) this degrades to the
        // pre-Presburger behavior: the obligation is dropped as residual
        // and the caller's rung fails over to the degradation ladder.
        LoopSpace::LinearUpSym { start, bound: b, step, inclusive } => {
            if !sess.qelim_enabled() {
                sess.metrics.incr("qelim.residual_dropped");
                return Err(Error::AlignmentFailed {
                    detail: "symbolic-stride loop needs the generalized (Presburger) \
                             quantifier elimination, which is disabled"
                        .into(),
                });
            }
            let st = lower_config_expr(sess, bound, start, params)?;
            let bt = lower_config_expr(sess, bound, b, params)?;
            let stp = lower_config_expr(sess, bound, step, params)?;
            let c = crate::presburger::stride_membership(
                &mut sess.ctx,
                k,
                st,
                bt,
                stp,
                *inclusive,
            );
            sess.note_qelim_generalized();
            Ok(c)
        }
        other => Err(Error::AlignmentFailed {
            detail: format!("unsupported iteration space {other:?}"),
        }),
    }
}
