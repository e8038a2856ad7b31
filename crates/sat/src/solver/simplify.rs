//! Preprocessing for the CDCL solver: SatELite-style bounded variable
//! elimination (BVE) and occurrence-list subsumption with self-subsuming
//! resolution.
//!
//! The design decisions that make this safe in an *incremental* solver:
//!
//! * **Model reconstruction.** Eliminating a variable by resolution removes
//!   it from the search, but bug-hunt witnesses must still assign it. Every
//!   elimination pushes the removed clauses onto an elimination stack;
//!   after a `Sat` answer the solver replays the stack in reverse and
//!   picks the unique polarity that satisfies the removed clauses
//!   (Davis–Putnam reconstruction), so [`Solver::model_value`] covers
//!   eliminated variables too.
//!
//! * **Restore on reuse.** BVE is only equivalence-preserving while no new
//!   constraint mentions an eliminated variable. Incremental clients add
//!   clauses and assumptions after preprocessing, so instead of rejecting
//!   such references the solver *restores* the variable: its removed
//!   clauses are re-added (cascading through any eliminated variables they
//!   mention) and the variable re-enters the search. The resolvents stay —
//!   they are implied, hence harmless. Frozen variables
//!   ([`Solver::freeze_var`]) are therefore a performance hint that avoids
//!   restore churn on known interface variables, not a soundness
//!   requirement.
//!
//! * **Bounded, interruptible work.** Every loop polls the solve budget's
//!   cancellation token and the `sat::simplify` failpoint, so preprocessing
//!   can never stall a watchdog: an interrupted pass simply leaves the
//!   remaining candidates untouched, which is always sound.

use crate::budget::Budget;
use crate::failpoints;
use crate::types::{LBool, Lit, Var};

use super::Solver;

/// Failpoint site armed by the fault-injection suite to abort or poison
/// preprocessing passes.
const SIMPLIFY_FAILPOINT: &str = "sat::simplify";

/// Iterations between budget/failpoint polls inside the elimination and
/// subsumption loops.
const POLL_INTERVAL: usize = 64;

/// Tuning knobs for preprocessing. The defaults are conservative enough
/// for the tiny CNFs of unit tests and effective on the multiplier-heavy
/// bit-blasted formulas the verifier produces.
#[derive(Clone, Debug)]
pub struct SimplifyConfig {
    /// Master switch; `false` restores the PR-4 textbook solver behavior.
    pub enabled: bool,
    /// Bounded variable elimination (preprocessing).
    pub bve: bool,
    /// Subsumption + self-subsuming resolution (preprocessing).
    pub subsumption: bool,
    /// Extra clauses a single elimination may add beyond the clauses it
    /// removes (0 = never grow the database).
    pub bve_grow: usize,
    /// Skip variables whose positive × negative occurrence product exceeds
    /// this (resolvent generation is quadratic in the occurrence counts).
    pub bve_occ_product: usize,
    /// Abort an elimination that would produce a resolvent longer than this.
    pub bve_max_resolvent_len: usize,
    /// Re-run preprocessing once this many clauses arrived since the last
    /// pass (the first solve always preprocesses).
    pub preprocess_min_new_clauses: usize,
    /// Defer a due preprocessing pass until the current solve call has spent
    /// this many conflicts (0 = preprocess eagerly at solve entry). Queries
    /// the existing clause database dispatches in a handful of conflicts
    /// never pay for BVE; a search that proves nontrivial runs the pass at
    /// its next restart and profits from it for the rest of the solve.
    pub preprocess_min_conflicts: u64,
}

impl Default for SimplifyConfig {
    fn default() -> SimplifyConfig {
        SimplifyConfig {
            enabled: true,
            bve: true,
            subsumption: true,
            bve_grow: 8,
            bve_occ_product: 2000,
            bve_max_resolvent_len: 32,
            preprocess_min_new_clauses: 256,
            preprocess_min_conflicts: 250,
        }
    }
}

impl SimplifyConfig {
    /// All simplification disabled — the differential suites solve every
    /// query twice, once with this and once with the default.
    pub fn off() -> SimplifyConfig {
        SimplifyConfig { enabled: false, ..SimplifyConfig::default() }
    }
}

/// One committed elimination: the variable and the clauses resolution
/// removed. `restored` marks records undone by restore-on-reuse; they are
/// skipped during model reconstruction.
struct ElimRecord {
    var: Var,
    clauses: Vec<Vec<Lit>>,
    restored: bool,
}

const NO_RECORD: u32 = u32::MAX;

/// Per-solver preprocessing state.
pub(crate) struct Simp {
    pub(crate) cfg: SimplifyConfig,
    /// Variables BVE must never eliminate (client interface variables and
    /// assumption variables seen so far).
    pub(crate) frozen: Vec<bool>,
    eliminated: Vec<bool>,
    /// Variables mentioned by clauses added since the last preprocessing
    /// pass — the BVE candidate set for incremental passes.
    touched: Vec<bool>,
    elim_stack: Vec<ElimRecord>,
    /// Latest elimination record per variable (`NO_RECORD` = live).
    elim_index: Vec<u32>,
    /// Count of currently-eliminated (not restored) variables.
    active_elims: usize,
    /// Clauses added since the last pass; gates re-preprocessing.
    pending_new: usize,
    /// A due pass was deferred at solve entry; the restart loop runs it once
    /// the call has spent `preprocess_min_conflicts` conflicts.
    pub(crate) deferred: bool,
    ran_once: bool,
    /// Clause id reached by the last subsumption pass.
    clause_cursor: usize,
}

impl Simp {
    pub(crate) fn new() -> Simp {
        Simp {
            cfg: SimplifyConfig::default(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            touched: Vec::new(),
            elim_stack: Vec::new(),
            elim_index: Vec::new(),
            active_elims: 0,
            pending_new: 0,
            deferred: false,
            ran_once: false,
            clause_cursor: 0,
        }
    }

    pub(crate) fn on_new_var(&mut self) {
        self.frozen.push(false);
        self.eliminated.push(false);
        self.touched.push(true);
        self.elim_index.push(NO_RECORD);
    }

    #[inline]
    pub(crate) fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    pub(crate) fn note_clause_added(&mut self, lits: &[Lit]) {
        self.pending_new += 1;
        for l in lits {
            self.touched[l.var().index()] = true;
        }
    }
}

/// Signature (Bloom filter over variable indices) for fast non-subset tests:
/// `sig(C) & !sig(D) != 0` proves C ⊄ D.
fn clause_sig(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

/// Outcome of testing clause C against clause D.
enum Sub {
    No,
    /// Every literal of C occurs in D: C subsumes D.
    Subsumes,
    /// Every literal of C occurs in D except this one, whose negation does:
    /// D can be strengthened by removing the negation (self-subsumption).
    Strengthen(Lit),
}

fn subsume_check(c: &[Lit], d: &[Lit]) -> Sub {
    let mut flipped: Option<Lit> = None;
    for &l in c {
        if d.contains(&l) {
            continue;
        }
        if d.contains(&!l) {
            if flipped.is_some() {
                return Sub::No;
            }
            flipped = Some(l);
            continue;
        }
        return Sub::No;
    }
    match flipped {
        None => Sub::Subsumes,
        Some(l) => Sub::Strengthen(l),
    }
}

/// Resolvent of `a` (containing `v`) and `b` (containing `¬v`) on `v`;
/// `None` for tautologies.
fn resolve_on(a: &[Lit], b: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(a.len() + b.len());
    for &l in a.iter().chain(b.iter()) {
        if l.var() != v {
            out.push(l);
        }
    }
    out.sort_unstable();
    out.dedup();
    // Complementary literals have adjacent codes, so a tautology shows up
    // as a consecutive pair after sorting.
    if out.windows(2).any(|w| w[1] == !w[0]) {
        return None;
    }
    Some(out)
}

impl Solver {
    /// Level-0 entry hook of `solve_with`: restore eliminated variables the
    /// assumptions mention, then run the (gated) preprocessing pass. Either
    /// step may set `ok = false`.
    pub(super) fn prepare_solve(&mut self, assumptions: &[Lit], budget: &Budget) {
        // Restoring referenced assumptions is a soundness requirement and
        // runs even when simplification has since been switched off.
        if self.simp.active_elims > 0 {
            let needed: Vec<Var> = assumptions
                .iter()
                .map(|l| l.var())
                .filter(|&v| self.simp.is_eliminated(v))
                .collect();
            if !needed.is_empty() {
                self.restore_vars(needed);
                if !self.ok {
                    return;
                }
            }
        }
        if !self.simp.cfg.enabled {
            return;
        }
        // Assumption variables stay frozen from here on: the same variables
        // tend to be assumed again (session guards), and eliminating them
        // would force a restore on the next call.
        for a in assumptions {
            self.simp.frozen[a.var().index()] = true;
        }
        // Incremental passes only pay off once enough new material arrived:
        // the absolute floor stops thrashing on tiny sessions, the
        // proportional term stops an N-clause database from being re-scanned
        // for every few hundred clauses a session query appends.
        self.simp.deferred = false;
        let threshold = self.simp.cfg.preprocess_min_new_clauses.max(self.db.slots() / 8);
        if self.simp.ran_once && self.simp.pending_new < threshold {
            return;
        }
        // A due pass still only runs once the search proves nontrivial:
        // queries the current database dispatches in a handful of conflicts
        // never pay for BVE. The restart loop picks the deferral up.
        if self.simp.cfg.preprocess_min_conflicts > 0 {
            self.simp.deferred = true;
            return;
        }
        self.preprocess_pass(budget);
    }

    /// Run one gated preprocessing pass and reset its bookkeeping. Called
    /// from `prepare_solve` (eager) or from the restart loop (deferred);
    /// both sites are strictly at decision level 0.
    pub(super) fn preprocess_pass(&mut self, budget: &Budget) {
        self.simp.deferred = false;
        self.preprocess(budget);
        self.simp.ran_once = true;
        self.simp.pending_new = 0;
        self.simp.clause_cursor = self.db.slots();
        for t in &mut self.simp.touched {
            *t = false;
        }
    }

    /// One preprocessing pass: level-0 cleanup, subsumption/self-subsuming
    /// resolution over the new clauses, then bounded variable elimination.
    /// Watch lists are stale throughout and rebuilt before any propagation.
    fn preprocess(&mut self, budget: &Budget) {
        debug_assert_eq!(self.decision_level(), 0);
        // Strip level-0-assigned literals first so occurrence lists and
        // resolvents only ever see unassigned literals.
        self.simplify();
        if !self.ok {
            return;
        }
        // Fault injection: Panic unwinds (rung isolation catches it); the
        // degradation faults abort the pass, which is always sound.
        if failpoints::trip(SIMPLIFY_FAILPOINT).is_some() {
            return;
        }

        let first = !self.simp.ran_once;
        let mut occs: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars()];
        let mut sigs: Vec<u64> = vec![0; self.db.slots()];
        for (i, sig) in sigs.iter_mut().enumerate() {
            let m = self.db.meta(i);
            if m.deleted || m.learnt {
                continue;
            }
            let c = self.db.clause(i);
            *sig = clause_sig(c);
            for &l in c {
                occs[l.var().index()].push(i as u32);
            }
        }
        if self.simp.cfg.subsumption {
            let mut queue: Vec<u32> = (0..self.db.slots())
                .filter(|&i| {
                    let m = self.db.meta(i);
                    (first || i >= self.simp.clause_cursor) && !m.deleted && !m.learnt
                })
                .map(|i| i as u32)
                .collect();
            self.subsumption_pass(&mut queue, &occs, &mut sigs, budget);
        }
        if self.ok && self.simp.cfg.bve && !budget.interrupted() {
            self.bve_pass(first, &mut occs, &mut sigs, budget);
        }
        self.finish_preprocess();
    }

    /// Commit a unit clause derived while the watch lists are down: assign
    /// it on the level-0 trail *now* (so later eliminations see the fact —
    /// BVE skips assigned variables) and let `finish_preprocess` re-close
    /// the clause set under propagation once watches are rebuilt.
    fn preprocess_unit(&mut self, u: Lit) {
        match self.value(u) {
            LBool::True => {}
            LBool::False => self.ok = false,
            LBool::Undef => self.assign(u, None),
        }
    }

    /// Backward subsumption and self-subsuming resolution seeded from the
    /// queued clauses. For each queued clause C, clauses containing C's
    /// rarest variable are tested: supersets of C are deleted, and near-
    /// supersets differing in one flipped literal are strengthened (the
    /// resolvent replaces them). Strengthened clauses re-enter the queue.
    fn subsumption_pass(
        &mut self,
        queue: &mut Vec<u32>,
        occs: &[Vec<u32>],
        sigs: &mut [u64],
        budget: &Budget,
    ) {
        let mut qi = 0;
        while qi < queue.len() {
            if qi % POLL_INTERVAL == 0
                && (budget.interrupted() || failpoints::trip(SIMPLIFY_FAILPOINT).is_some())
            {
                return;
            }
            let ci = queue[qi] as usize;
            qi += 1;
            if self.db.meta(ci).deleted {
                continue;
            }
            let lits = self.db.clause(ci).to_vec();
            let Some(best) = lits.iter().map(|l| l.var()).min_by_key(|v| occs[v.index()].len())
            else {
                continue;
            };
            let csig = clause_sig(&lits);
            for &k in &occs[best.index()] {
                let di = k as usize;
                if di == ci || self.db.meta(di).deleted || self.db.meta(ci).deleted {
                    continue;
                }
                if self.db.clause(di).len() < lits.len() || csig & !sigs[di] != 0 {
                    continue;
                }
                // Occurrence lists are hints (strengthening leaves stale
                // entries); the containment check tolerates them.
                match subsume_check(&lits, self.db.clause(di)) {
                    Sub::No => {}
                    Sub::Subsumes => {
                        self.delete_clause(di);
                        self.stats.clauses_subsumed += 1;
                    }
                    Sub::Strengthen(p) => {
                        self.strengthen_clause(di, !p, sigs);
                        if !self.ok {
                            return;
                        }
                        if !self.db.meta(di).deleted {
                            queue.push(di as u32);
                        }
                    }
                }
            }
        }
    }

    /// Remove one literal from a clause (self-subsuming resolution step).
    /// Runs with watches down; a unit result is committed to the trail.
    fn strengthen_clause(&mut self, di: usize, drop: Lit, sigs: &mut [u64]) {
        if !self.db.clause(di).contains(&drop) {
            return;
        }
        let len = self.db.retain(di, |l| l != drop);
        sigs[di] = clause_sig(self.db.clause(di));
        self.stats.clauses_subsumed += 1;
        match len {
            0 => self.ok = false,
            1 => {
                let unit = self.db.clause(di)[0];
                self.delete_clause(di);
                self.preprocess_unit(unit);
            }
            _ => {}
        }
    }

    /// Bounded variable elimination. A variable is eliminated when the set
    /// of non-tautological resolvents of its positive × negative occurrences
    /// is no larger than the clauses removed (plus the configured growth
    /// allowance) and no resolvent exceeds the length cap. The removed
    /// clauses go onto the elimination stack for model reconstruction and
    /// restore-on-reuse.
    fn bve_pass(
        &mut self,
        first: bool,
        occs: &mut [Vec<u32>],
        sigs: &mut Vec<u64>,
        budget: &Budget,
    ) {
        // Cheapest variables first: fewer occurrences means fewer and
        // shorter resolvents. Deterministic tie-break on the index.
        let mut cands: Vec<(usize, u32)> = (0..self.num_vars())
            .filter(|&i| {
                let v = Var(i as u32);
                (first || self.simp.touched[i])
                    && !self.simp.frozen[i]
                    && !self.simp.is_eliminated(v)
                    && self.value_var(v) == LBool::Undef
                    && !occs[i].is_empty()
            })
            .map(|i| (occs[i].len(), i as u32))
            .collect();
        cands.sort_unstable();

        for (step, &(_, vi)) in cands.iter().enumerate() {
            if step % POLL_INTERVAL == 0
                && (budget.interrupted() || failpoints::trip(SIMPLIFY_FAILPOINT).is_some())
            {
                return;
            }
            if budget.clause_bytes_exhausted(self.db.bytes()) {
                return;
            }
            let v = Var(vi);
            if self.value_var(v) != LBool::Undef {
                continue; // assigned by an earlier elimination's unit
            }
            // Partition the live occurrences by polarity, dropping stale
            // occurrence entries (deleted or strengthened clauses).
            let mut pos: Vec<u32> = Vec::new();
            let mut neg: Vec<u32> = Vec::new();
            for &ci in &occs[v.index()] {
                // A deleted clause reads as empty: no polarity matches.
                let c = self.db.clause(ci as usize);
                if c.contains(&v.pos()) {
                    pos.push(ci);
                } else if c.contains(&v.neg()) {
                    neg.push(ci);
                }
            }
            let total = pos.len() + neg.len();
            if total == 0 {
                continue; // unconstrained: leave it to the search
            }
            if pos.len() * neg.len() > self.simp.cfg.bve_occ_product {
                continue;
            }
            let limit = total + self.simp.cfg.bve_grow;
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut within_bounds = true;
            'gen: for &pi in &pos {
                for &ni in &neg {
                    let a = self.db.clause(pi as usize);
                    let b = self.db.clause(ni as usize);
                    if let Some(r) = resolve_on(a, b, v) {
                        if r.len() > self.simp.cfg.bve_max_resolvent_len
                            || resolvents.len() == limit
                        {
                            within_bounds = false;
                            break 'gen;
                        }
                        resolvents.push(r);
                    }
                }
            }
            if !within_bounds {
                continue;
            }
            // Commit: remove the occurrences, remember them, add resolvents.
            self.stats.vars_eliminated += 1;
            self.simp.eliminated[v.index()] = true;
            self.simp.active_elims += 1;
            let mut stored: Vec<Vec<Lit>> = Vec::with_capacity(total);
            for &ci in pos.iter().chain(neg.iter()) {
                stored.push(self.db.clause(ci as usize).to_vec());
                self.delete_clause(ci as usize);
            }
            self.simp.elim_index[v.index()] = self.simp.elim_stack.len() as u32;
            self.simp.elim_stack.push(ElimRecord { var: v, clauses: stored, restored: false });
            for r in resolvents {
                match r.len() {
                    0 => {
                        self.ok = false;
                        return;
                    }
                    1 => {
                        self.preprocess_unit(r[0]);
                        if !self.ok {
                            return;
                        }
                    }
                    _ => {
                        let idx = self.db.push(&r, false, 0) as u32;
                        sigs.push(clause_sig(&r));
                        for &l in &r {
                            occs[l.var().index()].push(idx);
                            // Neighbors became cheaper; revisit next pass.
                            self.simp.touched[l.var().index()] = true;
                        }
                    }
                }
            }
        }
    }

    /// Rebuild watches and re-close the clause set under level-0
    /// propagation after a preprocessing pass (units committed mid-pass sit
    /// unpropagated on the trail until here).
    fn finish_preprocess(&mut self) {
        // Learnt clauses over eliminated variables are deleted rather than
        // stored: they are implied, and the elimination stack must contain
        // exactly the defining (original) occurrences.
        if self.simp.active_elims > 0 {
            for i in 0..self.db.slots() {
                let m = self.db.meta(i);
                if m.deleted || !m.learnt {
                    continue;
                }
                if self.db.clause(i).iter().any(|l| self.simp.eliminated[l.var().index()]) {
                    self.delete_clause(i);
                }
            }
        }
        if !self.ok {
            return;
        }
        self.rebuild_watches();
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        // Strip any newly falsified/satisfied literals, then propagate the
        // units that stripping may itself have produced.
        self.simplify_level0();
        if !self.ok {
            return;
        }
        self.rebuild_watches();
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Restore any eliminated variables mentioned by a new clause. Called by
    /// `add_clause` before the clause is processed.
    pub(super) fn restore_referenced(&mut self, lits: &[Lit]) {
        if self.simp.active_elims == 0 {
            return;
        }
        let needed: Vec<Var> =
            lits.iter().map(|l| l.var()).filter(|&v| self.simp.is_eliminated(v)).collect();
        if !needed.is_empty() {
            self.restore_vars(needed);
        }
    }

    /// Un-eliminate the given variables: re-add their stored clauses and
    /// return them to the branching order. Cascades through eliminated
    /// variables the stored clauses mention. Runs at decision level 0.
    fn restore_vars(&mut self, seed: Vec<Var>) {
        debug_assert_eq!(self.decision_level(), 0);
        // Phase 1: transitive closure, marking everything live first so the
        // re-adds in phase 2 cannot re-trigger restoration.
        let mut work = seed;
        let mut to_restore: Vec<u32> = Vec::new();
        while let Some(v) = work.pop() {
            let ri = self.simp.elim_index[v.index()];
            if ri == NO_RECORD {
                continue;
            }
            debug_assert!(!self.simp.elim_stack[ri as usize].restored);
            self.simp.elim_stack[ri as usize].restored = true;
            self.simp.eliminated[v.index()] = false;
            self.simp.elim_index[v.index()] = NO_RECORD;
            self.simp.active_elims -= 1;
            self.simp.touched[v.index()] = true;
            self.order.insert(v, &self.activity);
            to_restore.push(ri);
            for ci in 0..self.simp.elim_stack[ri as usize].clauses.len() {
                for li in 0..self.simp.elim_stack[ri as usize].clauses[ci].len() {
                    let l = self.simp.elim_stack[ri as usize].clauses[ci][li];
                    if self.simp.eliminated[l.var().index()] {
                        work.push(l.var());
                    }
                }
            }
        }
        // Phase 2: re-add the defining clauses through the normal level-0
        // path (handles satisfied/falsified literals and unit propagation).
        for ri in to_restore {
            let clauses = std::mem::take(&mut self.simp.elim_stack[ri as usize].clauses);
            for cl in clauses {
                if !self.add_clause(&cl) {
                    return;
                }
            }
        }
    }

    /// Davis–Putnam model reconstruction: give every eliminated variable
    /// the polarity that satisfies its removed clauses. Replayed newest-
    /// first because a record's clauses may mention variables eliminated
    /// before it (never after — elimination removes all occurrences).
    pub(super) fn extend_model(&mut self) {
        for ri in (0..self.simp.elim_stack.len()).rev() {
            if self.simp.elim_stack[ri].restored {
                continue;
            }
            let v = self.simp.elim_stack[ri].var;
            let mut val = false;
            'clauses: for cl in &self.simp.elim_stack[ri].clauses {
                let mut positive = false;
                let mut satisfied_without_v = false;
                for &l in cl {
                    if l.var() == v {
                        positive = l.is_positive();
                    } else if self.model_lit(l) {
                        satisfied_without_v = true;
                    }
                }
                // A positive-occurrence clause with every other literal
                // false forces v true; the BVE resolvent closure guarantees
                // no negative-occurrence clause then breaks.
                if positive && !satisfied_without_v {
                    val = true;
                    break 'clauses;
                }
            }
            self.model[v.index()] = LBool::from_bool(val);
        }
    }
}

// Public configuration / inspection surface.
impl Solver {
    /// Replace the preprocessing configuration. Takes effect at the next
    /// solve; variables already eliminated stay eliminated (they restore
    /// lazily if referenced again).
    pub fn set_simplify_config(&mut self, cfg: SimplifyConfig) {
        self.simp.cfg = cfg;
    }

    /// The active preprocessing configuration.
    pub fn simplify_config(&self) -> &SimplifyConfig {
        &self.simp.cfg
    }

    /// Exempt `v` from variable elimination. Incremental clients freeze
    /// interface variables they will mention in later clauses or
    /// assumptions; referencing a non-frozen eliminated variable is still
    /// sound (restore-on-reuse) but pays the restoration.
    pub fn freeze_var(&mut self, v: Var) {
        self.simp.frozen[v.index()] = true;
    }

    /// Has `v` been eliminated by preprocessing (and not restored)?
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.simp.is_eliminated(v)
    }

    /// Number of currently-eliminated variables.
    pub fn num_eliminated(&self) -> usize {
        self.simp.active_elims
    }

    /// A satisfying assignment must satisfy the *defining* clauses of
    /// eliminated variables too; the differential suite uses this to prove
    /// model reconstruction correct. Returns `true` when every stored
    /// elimination clause evaluates true under the current model.
    pub fn model_satisfies_eliminated(&self) -> bool {
        self.simp
            .elim_stack
            .iter()
            .filter(|r| !r.restored)
            .all(|r| r.clauses.iter().all(|cl| cl.iter().any(|&l| self.model_lit(l))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::solver::SolveResult;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    /// Preprocess at solve entry rather than after the conflict-count
    /// deferral — these instances are trivial and would never reach the
    /// default `preprocess_min_conflicts` threshold.
    fn eager() -> SimplifyConfig {
        SimplifyConfig { preprocess_min_conflicts: 0, ..SimplifyConfig::default() }
    }

    /// Tseitin AND-gate chain: BVE should eliminate the internal gate
    /// variables and reconstruction must still produce a model of the
    /// original clauses.
    #[test]
    fn bve_eliminates_and_reconstructs() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 6);
        // g_i <-> a_i & b_i over three gates, then require all outputs.
        for i in 0..2 {
            let (a, b, g) = (v[i], v[i + 2], v[i + 4]);
            s.add_clause(&[g.neg(), a.pos()]);
            s.add_clause(&[g.neg(), b.pos()]);
            s.add_clause(&[g.pos(), a.neg(), b.neg()]);
        }
        s.add_clause(&[v[4].pos(), v[5].pos()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.stats().vars_eliminated > 0, "BVE should fire on gate variables");
        // Some output is true, and its AND semantics hold in the model.
        let g_true = if s.model_value(v[4]) { 0 } else { 1 };
        assert!(s.model_value(v[4 + g_true]));
        assert!(s.model_value(v[g_true]) && s.model_value(v[g_true + 2]));
        assert!(s.model_satisfies_eliminated());
    }

    /// Adding a clause over an eliminated variable restores it and stays
    /// sound: the combined formula's satisfiability is decided correctly.
    #[test]
    fn restore_on_reuse_add_clause() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 3);
        // x <-> a & b, nothing else constrains x: x is eliminated.
        let (a, b, x) = (v[0], v[1], v[2]);
        s.add_clause(&[x.neg(), a.pos()]);
        s.add_clause(&[x.neg(), b.pos()]);
        s.add_clause(&[x.pos(), a.neg(), b.neg()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        // Now force x true and a false: must be Unsat (x -> a).
        assert!(s.add_clause(&[x.pos()]));
        let r1 = s.add_clause(&[a.neg()]);
        let result = s.solve(&Budget::unlimited());
        assert!(!r1 || result == SolveResult::Unsat);
    }

    /// Assuming an eliminated variable restores it; flipping the assumption
    /// flips the answer.
    #[test]
    fn restore_on_reuse_assumption() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 3);
        let (a, b, x) = (v[0], v[1], v[2]);
        s.add_clause(&[x.neg(), a.pos()]);
        s.add_clause(&[x.neg(), b.pos()]);
        s.add_clause(&[x.pos(), a.neg(), b.neg()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert_eq!(s.solve_with(&[x.pos(), a.neg()], &Budget::unlimited()), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[x.pos()], &Budget::unlimited()), SolveResult::Sat);
        assert!(s.model_value(a) && s.model_value(b) && s.model_value(x));
    }

    /// Frozen variables are never eliminated.
    #[test]
    fn frozen_vars_survive() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 3);
        s.freeze_var(v[2]);
        s.add_clause(&[v[2].neg(), v[0].pos()]);
        s.add_clause(&[v[2].neg(), v[1].pos()]);
        s.add_clause(&[v[2].pos(), v[0].neg(), v[1].neg()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(!s.is_eliminated(v[2]));
    }

    /// Duplicate and superset clauses are removed by subsumption; a
    /// one-flipped-literal pair is strengthened.
    #[test]
    fn subsumption_and_strengthening() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let cfg = SimplifyConfig { bve: false, ..eager() };
        s.set_simplify_config(cfg);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.add_clause(&[v[0].pos(), v[1].pos(), v[2].pos()]); // subsumed
        s.add_clause(&[v[0].pos(), v[1].neg(), v[3].pos()]); // strengthened on v1
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        assert!(s.stats().clauses_subsumed >= 2, "stats: {:?}", s.stats());
    }

    /// The simplify failpoint aborts preprocessing without affecting the
    /// answer and without leaving the solver inconsistent.
    #[test]
    fn simplify_failpoint_aborts_cleanly() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        s.add_clause(&[v[2].neg(), v[3].pos()]);
        failpoints::arm("sat::simplify", failpoints::Fault::BudgetExhausted);
        let r = s.solve(&Budget::unlimited());
        failpoints::disarm("sat::simplify");
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(s.stats().vars_eliminated, 0, "pass must have been aborted");
        // Disarmed: the next solve preprocesses normally.
        assert!(s.add_clause(&[v[3].neg(), v[0].pos()]));
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
    }

    /// With simplification disabled the solver behaves exactly like the
    /// textbook version (no eliminations, no subsumption).
    #[test]
    fn disabled_config_is_inert() {
        let mut s = Solver::new();
        s.set_simplify_config(SimplifyConfig::off());
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
        let st = s.stats();
        assert_eq!(st.vars_eliminated, 0);
        assert_eq!(st.clauses_subsumed, 0);
    }

    /// Unsatisfiability discovered entirely inside preprocessing is
    /// reported as Unsat, not an inconsistent state.
    #[test]
    fn preprocessing_derives_unsat() {
        let mut s = Solver::new();
        s.set_simplify_config(eager());
        let v = vars(&mut s, 2);
        // (a∨b) (a∨¬b) (¬a∨b) (¬a∨¬b) — BVE/strengthening alone can refute.
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        s.add_clause(&[v[0].pos(), v[1].neg()]);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[0].neg(), v[1].neg()]);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
    }
}
