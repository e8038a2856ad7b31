//! CDCL SAT solver: two-watched-literal propagation, first-UIP learning with
//! basic clause minimization, VSIDS branching with phase saving, Luby
//! restarts and activity-driven learnt-clause deletion.
//!
//! Clauses live in one flat arena (the crate-private `clause` module): a
//! watcher leads propagation to a single contiguous block holding the
//! clause's length, id and literals. The arena is compacted, in clause
//! order, wherever the watch lists are rebuilt at decision level 0.
//!
//! The design follows MiniSat's architecture; everything is implemented from
//! scratch here because the verifier must run without an external solver.

use crate::budget::{Budget, CancelToken};
use crate::clause::{ClauseDb, ClauseRef, Watcher};
use crate::failpoints;
use crate::heap::VarHeap;
use crate::types::{LBool, Lit, Var};

pub mod simplify;

use simplify::Simp;

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; see [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource budget was exhausted — the paper's "T.O" outcome.
    Unknown,
}

/// Search statistics, cumulative over the solver's lifetime.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Stats {
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    pub deleted_clauses: u64,
    /// Variables removed by bounded variable elimination (preprocessing).
    pub vars_eliminated: u64,
    /// Clauses deleted or strengthened by (self-)subsumption.
    pub clauses_subsumed: u64,
    /// Always 0: clause vivification was removed. The field stays so
    /// existing readers keep compiling.
    pub clauses_vivified: u64,
}

impl Stats {
    /// Fold another solver's (or query's) statistics into this one.
    /// Aggregation over many queries is how the observability layer and
    /// the explain renderer total search effort per verification stage.
    pub fn merge(&mut self, other: &Stats) {
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.decisions += other.decisions;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.vars_eliminated += other.vars_eliminated;
        self.clauses_subsumed += other.clauses_subsumed;
        self.clauses_vivified += other.clauses_vivified;
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;
/// Propagations between cancellation-token polls. Small enough that a
/// tripped token (or a passed deadline) stops the solver within a bounded
/// (and tiny) amount of work; large enough that the atomic loads, and the
/// clock read when the token has a deadline, are invisible in profiles.
const CANCEL_POLL_INTERVAL: u64 = 64;

/// The CDCL solver.
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    saved_phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    seen: Vec<bool>,
    /// Scratch buffers of `analyze`, reused across conflicts: the learnt
    /// clause, and its literals before minimization (whose `seen` flags
    /// must all be cleared).
    learnt: Vec<Lit>,
    to_clear: Vec<Lit>,
    /// Per-decision-level stamp for counting a learnt clause's LBD; a level
    /// is counted once its entry equals `lbd_stamp`.
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    /// Per-variable assumed polarity of the current `solve_with` call
    /// (`Undef` = not an assumption). Lets `analyze_final` test assumption
    /// membership in O(1) instead of scanning the assumption slice.
    assumption_mark: Vec<LBool>,
    /// False once a top-level conflict has been derived.
    ok: bool,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,
    num_learnts: usize,
    max_learnts: f64,
    /// Set when the learnt DB outgrew its cap; reduction runs at the next
    /// restart so the watch lists are only rebuilt at decision level 0.
    reduce_pending: bool,
    /// Token of the budget currently being solved under, polled inside
    /// `propagate` so cancellation and the deadline land at propagation
    /// granularity.
    active_cancel: CancelToken,
    /// Propagation count at which the token is polled next.
    cancel_poll_at: u64,
    /// Set by `propagate` when the active token tripped mid-run.
    interrupted: bool,
    /// Preprocessing state (BVE elimination stack, frozen set); see the
    /// [`simplify`] module.
    simp: Simp,
    stats: Stats,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Fresh solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            saved_phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            assumption_mark: Vec::new(),
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            num_learnts: 0,
            max_learnts: 8192.0,
            reduce_pending: false,
            active_cancel: CancelToken::new(),
            cancel_poll_at: CANCEL_POLL_INTERVAL,
            interrupted: false,
            simp: Simp::new(),
            stats: Stats::default(),
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.saved_phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.assumption_mark.push(LBool::Undef);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.simp.on_new_var();
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of non-deleted clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.live()
    }

    /// The non-deleted clauses (original + learnt), in storage order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> {
        (0..self.db.slots()).filter(|&id| !self.db.meta(id).deleted).map(|id| self.db.clause(id))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Bytes of literal storage held by live clauses — the quantity capped
    /// by [`Budget::max_clause_bytes`].
    pub fn clause_db_bytes(&self) -> usize {
        self.db.bytes()
    }

    /// Whether the clause set is still possibly satisfiable (no top-level
    /// conflict derived yet).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    #[inline]
    fn value_var(&self, v: Var) -> LBool {
        self.assigns[v.index()]
    }

    /// Current value of a literal under the partial assignment.
    #[inline]
    pub fn value(&self, l: Lit) -> LBool {
        lit_value(&self.assigns, l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause (callable only at decision level 0, i.e. between solves).
    /// Returns `false` when the clause set became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at the top level");
        if !self.ok {
            return false;
        }
        // BVE soundness: a new clause over an eliminated variable invalidates
        // the elimination — restore the variable's removed clauses first.
        self.restore_referenced(lits);
        if !self.ok {
            return false;
        }
        self.simp.note_clause_added(lits);
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // Tautology / satisfied / falsified literal elimination at level 0.
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // contains l and ¬l: tautology
            }
            match self.value(l) {
                LBool::True => return true, // already satisfied forever
                LBool::False => {}          // drop the literal
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.assign(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new(&out, false, 0);
                true
            }
        }
    }

    fn attach_new(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let id = self.db.push(lits, learnt, lbd);
        let cref = self.db.meta(id).cref;
        self.watches[(!lits[0]).index()].push(Watcher { cref, blocker: lits[1] });
        self.watches[(!lits[1]).index()].push(Watcher { cref, blocker: lits[0] });
        if learnt {
            self.num_learnts += 1;
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    #[inline]
    fn assign(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if one arises.
    ///
    /// Polls the active cancellation token (flags and deadline) every
    /// [`CANCEL_POLL_INTERVAL`] propagations; on a trip it sets
    /// `self.interrupted` and returns with propagation incomplete (`qhead`
    /// marks the resume point, so the assignment stack stays consistent).
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            if self.stats.propagations >= self.cancel_poll_at {
                self.cancel_poll_at = self.stats.propagations + CANCEL_POLL_INTERVAL;
                if self.active_cancel.is_cancelled() {
                    self.interrupted = true;
                    return None;
                }
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Fast path: the blocker is already true.
                if self.value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // One arena block: make sure the false literal (¬p) sits at
                // position 1.
                let lits = self.db.lits_mut(cref);
                if lits[0] == !p {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], !p);
                let first = lits[0];
                if first != w.blocker && lit_value(&self.assigns, first) == LBool::True {
                    ws[i] = Watcher { cref, blocker: first };
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if lit_value(&self.assigns, lk) != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher { cref, blocker: first });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[i] = Watcher { cref, blocker: first };
                i += 1;
                if self.value(first) == LBool::False {
                    conflict = Some(cref);
                    break;
                }
                self.assign(first, Some(cref));
            }
            // Put the (possibly shrunk) watcher list back, preserving any
            // watchers not visited because of an early conflict exit.
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        let m = self.db.meta_mut(self.db.id(cref));
        if !m.learnt {
            return;
        }
        m.activity += self.cla_inc;
        if m.activity > RESCALE_LIMIT {
            for m in self.db.metas_mut() {
                m.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Writes the learnt clause (asserting
    /// literal first) into `learnt` and returns the backtrack level and the
    /// clause's LBD.
    fn analyze(&mut self, conflict: ClauseRef, learnt: &mut Vec<Lit>) -> (u32, u32) {
        learnt.clear();
        learnt.push(Lit::from_index(0)); // slot for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let current = self.decision_level();

        loop {
            self.cla_bump(cref);
            let start = usize::from(p.is_some());
            let n = self.db.lits(cref).len();
            for j in start..n {
                let q = self.db.lits(cref)[j];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            cref = self.reason[pl.var().index()].expect("non-decision literal has a reason");
            p = Some(pl);
        }
        learnt[0] = !p.expect("first UIP exists");

        // Basic clause minimization: a literal is redundant when its reason's
        // remaining literals are all already in the clause (seen) or fixed.
        // Keep the pre-minimization literals around: their `seen` flags must
        // all be cleared below even when the literal is dropped.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(learnt);
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.literal_redundant(l) {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);

        // Backtrack level: the second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // LBD = number of distinct decision levels in the clause.
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in learnt.iter() {
            let lv = self.level[l.var().index()] as usize;
            if self.level_stamp[lv] != self.lbd_stamp {
                self.level_stamp[lv] = self.lbd_stamp;
                lbd += 1;
            }
        }

        // Clear every seen flag set for this analysis (including literals
        // minimized away — leaking them would corrupt the next analysis).
        for &l in &self.to_clear {
            self.seen[l.var().index()] = false;
        }
        (bt_level, lbd)
    }

    /// Is `l` implied by the other literals of the learnt clause?
    fn literal_redundant(&self, l: Lit) -> bool {
        let Some(r) = self.reason[l.var().index()] else {
            return false;
        };
        self.db.lits(r).iter().skip(1).all(|q| {
            let v = q.var();
            self.seen[v.index()] || self.level[v.index()] == 0
        })
    }

    /// Undo assignments above `target` decision level.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.saved_phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.value_var(v) == LBool::Undef && !self.simp.is_eliminated(v) {
                return Some(Lit::new(v, self.saved_phase[v.index()]));
            }
        }
        None
    }

    /// Reduce the learnt-clause database: drop the lower-activity half,
    /// keeping binary clauses and low-LBD clauses, then simplify every
    /// remaining clause against the level-0 assignment and rebuild watches.
    ///
    /// Must run at decision level 0 — rebuilding watch lists mid-search
    /// would break the watched-literal invariant (both watches could be
    /// false while an unwatched literal is true).
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut cands: Vec<(usize, f64)> = (0..self.db.slots())
            .filter(|&id| {
                let m = self.db.meta(id);
                m.learnt && !m.deleted && self.db.clause(id).len() > 2 && m.lbd > 2
            })
            .map(|id| (id, self.db.meta(id).activity))
            .collect();
        cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let to_delete = cands.len() / 2;
        for &(i, _) in cands.iter().take(to_delete) {
            self.delete_clause(i);
        }
        self.simplify_level0();
        self.rebuild_watches();
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    fn delete_clause(&mut self, id: usize) {
        if self.db.meta(id).learnt {
            self.num_learnts -= 1;
        }
        self.db.delete(id);
        self.stats.deleted_clauses += 1;
    }

    /// Strip level-0-false literals from every clause and delete clauses
    /// satisfied at level 0. Runs only at decision level 0.
    fn simplify_level0(&mut self) {
        for id in 0..self.db.slots() {
            if self.db.meta(id).deleted {
                continue;
            }
            if self.db.clause(id).iter().any(|&l| self.value(l) == LBool::True) {
                self.delete_clause(id);
                continue;
            }
            let assigns = &self.assigns;
            match self.db.retain(id, |l| lit_value(assigns, l) == LBool::Undef) {
                0 => {
                    self.ok = false;
                    return;
                }
                1 => {
                    let unit = self.db.clause(id)[0];
                    self.delete_clause(id);
                    self.assign(unit, None);
                }
                _ => {}
            }
        }
    }

    /// Compact the clause arena and rebuild every watch list from it.
    /// Compaction moves clauses, so this runs only at decision level 0 and
    /// first drops the level-0 reasons (they are never dereferenced again).
    fn rebuild_watches(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            self.reason[v.index()] = None;
        }
        self.db.compact();
        for w in &mut self.watches {
            w.clear();
        }
        for id in 0..self.db.slots() {
            let c = self.db.clause(id);
            if c.len() < 2 {
                continue;
            }
            let cref = self.db.meta(id).cref;
            self.watches[(!c[0]).index()].push(Watcher { cref, blocker: c[1] });
            self.watches[(!c[1]).index()].push(Watcher { cref, blocker: c[0] });
        }
    }

    /// Is `l` one of the assumption literals of the active `solve_with`?
    #[inline]
    fn is_assumption(&self, l: Lit) -> bool {
        self.assumption_mark[l.var().index()] == LBool::from_bool(l.is_positive())
    }

    /// Collect the subset of assumptions responsible for falsifying `p`
    /// (a failed assumption) into `conflict_core`.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    if self.is_assumption(l) {
                        self.conflict_core.push(!l);
                    }
                }
                Some(r) => {
                    for &q in &self.db.lits(r)[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    /// Failed-assumption core from the last `Unsat` answer under assumptions.
    pub fn conflict_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Simplify the clause database against the level-0 assignment: delete
    /// satisfied clauses, strip false literals, rebuild the watch lists.
    /// Callable only between solves (decision level 0). Incremental clients
    /// should call this after retiring an assumption guard with a unit
    /// clause — the now-satisfied guarded clauses would otherwise stay on
    /// the watch lists and tax every later propagation.
    pub fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0, "simplify runs between solves");
        if !self.ok {
            return;
        }
        self.simplify_level0();
        if !self.ok {
            return;
        }
        self.rebuild_watches();
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Solve with no assumptions.
    pub fn solve(&mut self, budget: &Budget) -> SolveResult {
        self.solve_with(&[], budget)
    }

    /// Solve under the given assumption literals.
    pub fn solve_with(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveResult {
        self.cancel_until(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Fault injection: Panic aborts here (isolation layers catch it);
        // the other faults degrade to the budget-exhausted answer.
        if failpoints::trip("sat::solve").is_some() {
            return SolveResult::Unknown;
        }
        self.conflict_core.clear();
        self.active_cancel = budget.cancel.clone();
        self.cancel_poll_at = self.stats.propagations + CANCEL_POLL_INTERVAL;
        self.interrupted = false;
        // A budget dead on arrival (tripped token, past deadline, original
        // clauses already over the memory cap) never enters the search loop.
        if budget.interrupted() || budget.clause_bytes_exhausted(self.db.bytes()) {
            return SolveResult::Unknown;
        }
        // Restore any eliminated variables the assumptions mention, then run
        // the (gated) preprocessing pass. Both can derive a top-level
        // conflict; both run strictly at decision level 0.
        self.prepare_solve(assumptions, budget);
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            self.assumption_mark[a.var().index()] = LBool::from_bool(a.is_positive());
        }
        let result = self.solve_loop(assumptions, budget);
        for &a in assumptions {
            self.assumption_mark[a.var().index()] = LBool::Undef;
        }
        result
    }

    /// Restart loop of `solve_with`; assumption marks are set on entry and
    /// cleared by the caller on every exit path.
    fn solve_loop(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveResult {
        let mut restarts = 0u64;
        let start_conflicts = self.stats.conflicts;
        loop {
            if self.reduce_pending {
                self.reduce_pending = false;
                self.reduce_db();
                self.max_learnts *= 1.3;
                if !self.ok {
                    return SolveResult::Unsat;
                }
            }
            let limit = RESTART_BASE * luby(restarts);
            match self.search(limit, assumptions, budget) {
                Some(r) => {
                    self.cancel_until(0);
                    return r;
                }
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    // A preprocessing pass deferred at solve entry runs at
                    // the first restart after the call has spent enough
                    // conflicts to prove the query nontrivial.
                    if self.simp.deferred
                        && self.stats.conflicts.saturating_sub(start_conflicts)
                            >= self.simp.cfg.preprocess_min_conflicts
                    {
                        self.preprocess_pass(budget);
                        if !self.ok {
                            return SolveResult::Unsat;
                        }
                        if self.interrupted || budget.exhausted(self.stats.conflicts) {
                            return SolveResult::Unknown;
                        }
                    }
                }
            }
        }
    }

    /// Run CDCL until `conflict_limit` conflicts (→ `None`, meaning restart)
    /// or a definitive result.
    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget: &Budget,
    ) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                debug_assert!(
                    self.db.lits(confl).iter().all(|&l| self.value(l) == LBool::False),
                    "conflict clause must be fully falsified"
                );
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let mut learnt = std::mem::take(&mut self.learnt);
                let (bt, lbd) = self.analyze(confl, &mut learnt);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.assign(learnt[0], None);
                } else {
                    let cref = self.attach_new(&learnt, true, lbd);
                    self.assign(learnt[0], Some(cref));
                }
                self.learnt = learnt;
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if budget.exhausted(self.stats.conflicts)
                    || budget.clause_bytes_exhausted(self.db.bytes())
                {
                    return Some(SolveResult::Unknown);
                }
                if self.num_learnts as f64 > self.max_learnts {
                    self.reduce_pending = true;
                }
                if conflicts_here >= conflict_limit || self.reduce_pending {
                    self.cancel_until(0);
                    return None;
                }
            } else {
                if self.interrupted {
                    // Token tripped mid-propagation; `qhead` marks where to
                    // resume, so the partial state stays reusable.
                    return Some(SolveResult::Unknown);
                }
                // Decision: assumptions first, then VSIDS.
                let mut next = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        LBool::False => {
                            self.analyze_final(!a);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(l) => l,
                    None => match self.pick_branch_lit() {
                        Some(l) => l,
                        None => {
                            self.model = self.assigns.clone();
                            // Reconstruct values for BVE-eliminated variables
                            // so witnesses survive preprocessing.
                            self.extend_model();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.assign(next, None);
            }
        }
    }

    /// Export the live problem clauses (original clauses plus level-0 unit
    /// facts, not learnt clauses) as DIMACS CNF. After preprocessing the
    /// numbering has gaps at eliminated variables; callable only between
    /// solves.
    pub fn export_cnf(&self) -> crate::dimacs::Cnf {
        debug_assert_eq!(self.decision_level(), 0);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let level0 = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..level0] {
            clauses.push(vec![l]);
        }
        for id in 0..self.db.slots() {
            let m = self.db.meta(id);
            if !m.deleted && !m.learnt {
                clauses.push(self.db.clause(id).to_vec());
            }
        }
        crate::dimacs::Cnf { num_vars: self.num_vars(), clauses }
    }

    /// Model value of a variable after a `Sat` answer. Variables untouched by
    /// the search default to `False`.
    pub fn model_value(&self, v: Var) -> bool {
        self.model.get(v.index()).and_then(|b| b.as_bool()).unwrap_or(false)
    }

    /// Model value of a literal after a `Sat` answer.
    pub fn model_lit(&self, l: Lit) -> bool {
        self.model_value(l.var()) == l.is_positive()
    }
}

/// Value of `l` under the partial assignment `assigns`. A free function so
/// `propagate` can read the assignment while it holds a clause mutably.
#[inline]
fn lit_value(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].xor(!l.is_positive())
}

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].pos(), v[1].pos()]));
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.model_value(v[0]) || s.model_value(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].pos()]));
        assert!(!s.add_clause(&[v[0].neg()]));
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0].pos()]);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        s.add_clause(&[v[2].neg(), v[3].pos()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        for &x in &v {
            assert!(s.model_value(x));
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 xor x1 = 1, x1 xor x2 = 1, x0 xor x2 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[a.pos(), b.pos()]);
            s.add_clause(&[a.neg(), b.neg()]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor1(&mut s, v[0], v[2]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        assert_eq!(s.solve_with(&[v[0].pos(), v[1].neg()], &Budget::unlimited()), SolveResult::Unsat);
        // Without the conflicting assumption the formula is satisfiable.
        assert_eq!(s.solve_with(&[v[0].pos()], &Budget::unlimited()), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        // The failed-assumption core names only relevant assumptions.
        assert_eq!(s.solve_with(&[v[0].pos(), v[1].neg()], &Budget::unlimited()), SolveResult::Unsat);
        assert!(!s.conflict_core().is_empty());
    }

    #[test]
    fn assumption_marks_cleared_between_solves() {
        // The per-var assumption marks must not leak across solve_with
        // calls: a variable assumed in one call and not the next must not
        // show up in the next call's failed-assumption core.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[2].neg(), v[1].pos()]);
        assert_eq!(
            s.solve_with(&[v[0].pos(), v[1].neg()], &Budget::unlimited()),
            SolveResult::Unsat
        );
        // Second call assumes v2 instead of v0; the core must mention only
        // literals over the *current* assumption set.
        assert_eq!(
            s.solve_with(&[v[2].pos(), v[1].neg()], &Budget::unlimited()),
            SolveResult::Unsat
        );
        for &l in s.conflict_core() {
            assert_ne!(l.var(), v[0], "stale assumption mark leaked into the core");
        }
    }

    #[test]
    fn incremental_clause_addition_between_solves() {
        // Clauses may be added at level 0 between solve_with calls; learned
        // state and assignments must stay consistent.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.add_clause(&[v[0].neg()]));
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        assert!(s.add_clause(&[v[1].neg(), v[2].pos()]));
        assert_eq!(s.solve_with(&[v[2].neg()], &Budget::unlimited()), SolveResult::Unsat);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.model_value(v[2]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> =
            (0..3).map(|_| (0..2).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            s.add_clause(&[row[0].pos(), row[1].pos()]);
        }
        #[allow(clippy::needless_range_loop)] // h/i/j symmetry reads better indexed
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[p[i][h].neg(), p[j][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    }

    #[test]
    fn budget_yields_unknown() {
        // A hard instance with a zero-conflict budget must give Unknown
        // (unless solved purely by propagation, which PHP(5,4) is not).
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let p: Vec<Vec<Var>> =
            (0..n).map(|_| (0..m).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // h/i/j symmetry reads better indexed
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[p[i][h].neg(), p[j][h].neg()]);
                }
            }
        }
        let r = s.solve(&Budget::with_conflicts(1));
        assert_eq!(r, SolveResult::Unknown);
        // With a real budget it is proved unsatisfiable.
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    }
}
