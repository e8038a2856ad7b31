//! The state of one check: the solver context, its budget, the
//! incremental solve session, the cross-rung query cache, and the trace and
//! metrics every query feeds. All four parameterized checkers (equivalence,
//! postcondition, races, performance) issue their queries through
//! [`Session::query`].

use crate::cache::QueryCache;
use crate::equiv::{Ablation, CheckOptions, EngineConfig, Mode, QueryStat, Report};
use crate::verdict::{Soundness, Verdict};
use pug_ir::GpuConfig;
use pug_obs::{MetricsRegistry, TraceSpan};
use pug_smt::normalize::Propagation;
use pug_smt::{
    assert_fingerprint, check_detailed_with, Budget, CheckStats, Ctx, SmtResult, SolveSession,
    Sort, TermId,
};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Shared session state for one check.
pub(crate) struct Session {
    pub ctx: Ctx,
    budget: Budget,
    queries: Vec<QueryStat>,
    /// The "+C." map: scalar parameters pinned to concrete values.
    pub conc: HashMap<String, u64>,
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
    pub metrics: MetricsRegistry,
    /// Session-wide canonicalizer (memo keyed on the append-only term DAG,
    /// so entries stay valid across queries and epochs).
    norm: pug_smt::normalize::Normalizer,
}

impl Session {
    pub(crate) fn mode(&self) -> Mode {
        self.mode
    }

    pub(crate) fn take_report(&mut self, verdict: Verdict, started: Instant) -> Report {
        Report { verdict, queries: self.take_queries(), elapsed: started.elapsed() }
    }

    pub(crate) fn take_queries(&mut self) -> Vec<QueryStat> {
        std::mem::take(&mut self.queries)
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

    /// A coverage obligation was discharged by a witness correspondence.
    pub(crate) fn note_witness_proved(&mut self) {
        self.metrics.incr("witness.proved");
    }

    /// The affine witness or a symbolic-stride membership constraint made
    /// a residual obligation quantifier-free.
    pub(crate) fn note_witness_generalized(&mut self) {
        self.metrics.incr("witness.generalized");
    }

    /// A race report was classified ([`crate::verdict::RaceClass`]).
    pub(crate) fn note_race(&mut self, provable: bool) {
        self.metrics.incr("races.reported");
        self.metrics.incr(if provable { "races.provable" } else { "races.potential" });
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
    /// The solver gets the set that fact propagation rewrote over the
    /// premises' equality classes ([`pug_smt::normalize::propagate`]).
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
        for &p in premises {
            let c = self.concretize(p);
            asserts.push(self.canon(c));
        }
        let g = self.concretize(goal);
        let g = self.canon(g);
        let ng = self.ctx.mk_not(g);
        asserts.push(ng);
        let one_shot = self.engine.ablated(Ablation::OneShot);
        // The facts of committed premises are permanent clauses already: the
        // incremental delta leaves them out.
        let fresh = |i: usize| one_shot || !self.committed.contains(&premises[i]);

        // Fact propagation, unless normalization is ablated. An armed
        // `smt::check` failpoint disables it too: injected SMT-layer faults
        // must hit every query, not just the ones that need the solver.
        // When the facts refute the query it is valid with zero SAT calls
        // and no cache traffic (re-deriving it is cheaper than a lookup
        // would be); otherwise the solver gets the class-substituted set,
        // which has exactly the models of `asserts`.
        let propagation = (!self.engine.ablated(Ablation::NoNormalize)
            && pug_smt::failpoints::check("smt::check").is_none())
        .then(|| {
            pug_smt::normalize::propagate(&mut self.ctx, &asserts[..premises.len()], fresh, ng)
        });
        let rewritten = matches!(propagation, Some(Propagation::Refuted));
        let solved: Vec<TermId> = match propagation {
            Some(Propagation::Open(set)) => set,
            _ => {
                (0..premises.len()).filter(|&i| fresh(i)).map(|i| asserts[i]).chain([ng]).collect()
            }
        };

        // Cross-rung cache: the fingerprint covers the full original assert
        // set, so it is identical whichever path (or rung) would solve it.
        let fp = match &self.cache {
            Some(_) if !rewritten => {
                Some(assert_fingerprint(&self.ctx, &asserts, &mut self.canon_memo))
            }
            _ => None,
        };
        let mut hit = false;
        if let (Some(cache), Some(f)) = (&self.cache, fp) {
            hit = cache.lookup_unsat(f);
            if self.metrics.is_enabled() {
                // Per-lookup monotonic counters: the end-of-run
                // `cache.publish` gauges are overwritten by whoever
                // publishes last, so these are the only registry view that
                // survives shared registries (and the only one at all for
                // direct in-process checks that never publish).
                self.metrics.incr(if hit { "cache.lookup_hits" } else { "cache.lookup_misses" });
            }
        }

        let (r, stats) = if rewritten {
            (SmtResult::Unsat, CheckStats { discharged_by_rewrite: true, ..CheckStats::default() })
        } else if hit {
            (SmtResult::Unsat, CheckStats { cached: true, ..CheckStats::default() })
        } else {
            let (r, stats) = if one_shot {
                let sat = self.engine.sat_config();
                check_detailed_with(&mut self.ctx, &solved, &self.budget, &sat)
            } else {
                self.solve.check(&mut self.ctx, &solved, &self.budget)
            };
            if let (Some(cache), Some(f)) = (&self.cache, fp) {
                if r.is_unsat() {
                    cache.record_unsat(f);
                }
            }
            (r, stats)
        };
        // The solver checks its model against the set it was given; this
        // checks it against the query as posed.
        #[cfg(debug_assertions)]
        if let SmtResult::Sat(m) = &r {
            for &a in &asserts {
                debug_assert!(
                    m.eval_bool(&self.ctx, a),
                    "query {label}: the model does not satisfy {}",
                    pug_smt::smtlib::term_to_string(&self.ctx, a)
                );
            }
        }
        let outcome = match &r {
            SmtResult::Unsat if rewritten => "valid (rewrite)",
            SmtResult::Unsat if hit => "valid (cached)",
            SmtResult::Unsat => "valid",
            SmtResult::Sat(_) => "counterexample",
            SmtResult::Unknown => "timeout",
        };
        let duration = started.elapsed();
        if let Some(g) = qspan {
            let mut attrs =
                vec![("outcome", outcome.into()), ("us", (duration.as_micros() as u64).into())];
            if !(rewritten || hit) {
                attrs.push(("conflicts", stats.sat.conflicts.into()));
                attrs.push(("cnf_clauses", stats.cnf_clauses.into()));
            }
            g.finish(attrs);
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
