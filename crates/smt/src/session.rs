//! Incremental solving: a persistent [`SolveSession`] that keeps one
//! [`Solver`] + one [`BitBlaster`] + one [`IncrementalReducer`] alive across
//! the many obligations of a verification run.
//!
//! PUGpara's parameterized encoding turns one kernel pair into many SMT
//! queries that share the same barrier-interval premises. A session splits
//! each query into
//!
//! * a **committed prefix** ([`SolveSession::commit`]) — premises contained
//!   in every future query of the run. These are reduced, blasted and added
//!   as *permanent* clauses exactly once; and
//! * a **retractable goal** ([`SolveSession::check`]) — the per-obligation
//!   delta. Its clauses are guarded by a fresh assumption literal `g`
//!   (each goal clause is asserted as `¬g ∨ lit`), the query is solved
//!   under the assumption `g`, and afterwards `g` is *retired* with the
//!   permanent unit `¬g`, which satisfies every guard clause so level-0
//!   simplification can delete them.
//!
//! Obligation N+1 therefore pays only for its delta and inherits the CNF,
//! the Ackermann read closure and all learned clauses from obligations
//! 1..N. Ackermann congruence constraints are valid array axioms, so even
//! the ones triggered by a retractable goal are committed permanently.
//!
//! Budget semantics are per query: conflict / propagation / clause-byte
//! caps are offset by the session's cumulative counters at query entry, so
//! a cap of 1000 conflicts means 1000 conflicts *for this query*, exactly
//! as in the one-shot path. A budget abort during *encoding* of permanent
//! clauses poisons the session (the permanent CNF may be incomplete —
//! every later answer is `Unknown`); an abort during *search* does not.

use crate::arrays::IncrementalReducer;
use crate::bitblast::BitBlaster;
use crate::eval::Env;
use crate::model::Model;
use crate::solver::{build_model, CheckStats, SmtResult};
use crate::sort::Sort;
use crate::term::{Ctx, Op, TermId};
use pug_sat::{Budget, SolveResult, Solver, Stats};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Persistent incremental solver state (see module docs).
pub struct SolveSession {
    sat: Solver,
    blaster: BitBlaster,
    reducer: IncrementalReducer,
    /// Original (pre-reduction) committed terms, in commit order.
    committed: Vec<TermId>,
    committed_set: HashSet<TermId>,
    /// True once a committed term was non-trivial (so an empty goal must
    /// still be solved rather than answered `Sat` syntactically).
    committed_live: bool,
    /// Set when encoding of *permanent* clauses was cut short by a budget:
    /// the clause set may be incomplete, so every later answer is Unknown.
    poisoned: bool,
}

impl Default for SolveSession {
    fn default() -> SolveSession {
        SolveSession::new()
    }
}

impl SolveSession {
    /// Fresh session with an empty committed prefix.
    pub fn new() -> SolveSession {
        SolveSession::with_config(pug_sat::SimplifyConfig::default())
    }

    /// Fresh session with an explicit SAT pre/inprocessing configuration.
    /// Assumption guard variables are frozen automatically at each solve, so
    /// BVE never eliminates a live guard; retired guards become eligible
    /// once their permanent `¬g` unit is on the trail.
    pub fn with_config(simplify: pug_sat::SimplifyConfig) -> SolveSession {
        let mut sat = Solver::new();
        sat.set_simplify_config(simplify);
        let blaster = BitBlaster::new(&mut sat);
        SolveSession {
            sat,
            blaster,
            reducer: IncrementalReducer::new(),
            committed: Vec::new(),
            committed_set: HashSet::new(),
            committed_live: false,
            poisoned: false,
        }
    }

    /// True once a mid-encode budget abort has invalidated the session.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The committed prefix, in commit order.
    pub fn committed(&self) -> &[TermId] {
        &self.committed
    }

    /// Number of live clauses currently in the solver (a measure of how
    /// much encoding later queries inherit).
    pub fn num_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Add `terms` to the committed prefix: reduce, blast and assert them
    /// as permanent clauses. Only terms contained in **every** future query
    /// of this session may be committed — committing anything else changes
    /// later verdicts. Already committed terms are skipped.
    pub fn commit(&mut self, ctx: &mut Ctx, terms: &[TermId], budget: &Budget) {
        if self.poisoned {
            return;
        }
        let mut live: Vec<TermId> = Vec::new();
        for &t in terms {
            if !self.committed_set.insert(t) {
                continue;
            }
            self.committed.push(t);
            if ctx.const_bool(t) != Some(true) {
                live.push(t);
            }
        }
        if live.is_empty() || !self.sat.is_ok() {
            // Nothing non-trivial to add, or the prefix is already
            // unsatisfiable (every later query stays Unsat regardless).
            self.committed_live |= !live.is_empty();
            return;
        }
        self.committed_live = true;
        let delta = self.reducer.reduce(ctx, &live, budget);
        if delta.interrupted {
            self.poisoned = true;
            return;
        }
        self.blaster.set_budget(budget);
        for &a in delta.assertions.iter().chain(delta.congruence.iter()) {
            match ctx.const_bool(a) {
                Some(true) => {}
                Some(false) => {
                    let f = self.blaster.lit_false();
                    self.sat.add_clause(&[f]);
                }
                None => self.blaster.assert_term(ctx, &mut self.sat, a),
            }
        }
        if self.blaster.aborted() {
            self.poisoned = true;
        }
    }

    /// Per-query budget: offset cumulative caps by the session's counters
    /// at query entry, so caps keep their one-shot per-query meaning.
    fn query_budget(&self, budget: &Budget) -> Budget {
        let mut b = budget.clone();
        if let Some(m) = b.max_conflicts {
            b.max_conflicts = Some(m.saturating_add(self.sat.stats().conflicts));
        }
        if let Some(m) = b.max_clause_bytes {
            b.max_clause_bytes = Some(m.saturating_add(self.sat.clause_db_bytes()));
        }
        b
    }

    /// Decide satisfiability of `committed prefix ∧ asserts`. The asserts
    /// are retractable: their clauses are guarded by a fresh assumption
    /// literal and retired after the answer, so they do not constrain later
    /// queries. Congruence axioms for any *new* array reads they introduce
    /// are committed permanently (they are valid axioms).
    pub fn check(&mut self, ctx: &mut Ctx, asserts: &[TermId], budget: &Budget) -> (SmtResult, CheckStats) {
        let mut stats = CheckStats { clauses_reused: self.sat.num_clauses(), ..CheckStats::default() };

        // Fault-injection parity with `check_detailed`: the same site trips
        // in both paths, so the fault smokes exercise sessions identically.
        if pug_sat::failpoints::trip("smt::check").is_some() {
            return (SmtResult::Unknown, stats);
        }
        if self.poisoned {
            return (SmtResult::Unknown, stats);
        }

        // Trivial cases after constructor-level rewriting.
        let mut live: Vec<TermId> = Vec::new();
        for &a in asserts {
            match ctx.const_bool(a) {
                Some(true) => continue,
                Some(false) => return (SmtResult::Unsat, stats),
                None => live.push(a),
            }
        }
        if live.is_empty() && !self.committed_live {
            return (SmtResult::Sat(Model::new(Env::new())), stats);
        }
        if !self.sat.is_ok() {
            // The committed prefix is unsatisfiable; it is contained in
            // every query, so every query is too.
            return (SmtResult::Unsat, stats);
        }

        let qbudget = self.query_budget(budget);

        let selects_before: usize = self.reducer.base_selects().values().map(Vec::len).sum();
        let t0 = Instant::now();
        let delta = self.reducer.reduce(ctx, &live, &qbudget);
        stats.reduce_time = t0.elapsed();
        stats.reduced_assertions = delta.assertions.len() + delta.congruence.len();
        let selects_after: usize = self.reducer.base_selects().values().map(Vec::len).sum();
        stats.ack_selects = selects_after - selects_before;
        if delta.interrupted {
            // Nothing permanent was asserted (the congruence high-water mark
            // only advances on completion), so the session stays healthy.
            return (SmtResult::Unknown, stats);
        }

        let t1 = Instant::now();
        let gates_before = self.blaster.gates_hashconsed();
        self.blaster.set_budget(&qbudget);
        // New Ackermann congruence axioms: permanent.
        for &a in &delta.congruence {
            if ctx.const_bool(a) != Some(true) {
                self.blaster.assert_term(ctx, &mut self.sat, a);
            }
        }
        // Goal assertions: guarded by a fresh assumption literal.
        let guard = self.sat.new_var();
        let mut goal_unsat = false;
        for &a in &delta.assertions {
            match ctx.const_bool(a) {
                Some(true) => {}
                Some(false) => goal_unsat = true,
                None => {
                    let l = self.blaster.bool_lit(ctx, &mut self.sat, a);
                    self.sat.add_clause(&[guard.neg(), l]);
                }
            }
        }
        stats.blast_time = t1.elapsed();
        stats.cnf_vars = self.sat.num_vars();
        stats.cnf_clauses = self.sat.num_clauses();
        stats.gates_hashconsed = self.blaster.gates_hashconsed() - gates_before;
        if self.blaster.aborted() {
            // Permanent congruence clauses may be missing — poison.
            self.poisoned = true;
            self.sat.add_clause(&[guard.neg()]);
            return (SmtResult::Unknown, stats);
        }
        if goal_unsat {
            self.sat.add_clause(&[guard.neg()]);
            self.sat.simplify();
            return (SmtResult::Unsat, stats);
        }

        let t2 = Instant::now();
        let snap = self.sat.stats();
        let result = self.sat.solve_with(&[guard.pos()], &qbudget);
        stats.solve_time = t2.elapsed();
        stats.sat = stats_delta(self.sat.stats(), snap);

        let r = match result {
            SolveResult::Unsat => SmtResult::Unsat,
            SolveResult::Unknown => SmtResult::Unknown,
            SolveResult::Sat => {
                let mut original: Vec<TermId> = self.committed.clone();
                original.extend_from_slice(&live);
                let mut reduced = delta.assertions.clone();
                reduced.extend_from_slice(&delta.congruence);
                let model = build_model(
                    ctx,
                    &original,
                    &reduced,
                    self.reducer.base_selects(),
                    &self.blaster,
                    &self.sat,
                );
                #[cfg(debug_assertions)]
                for &a in live.iter().chain(self.committed.iter()) {
                    debug_assert!(
                        model.eval_bool(ctx, a),
                        "session model does not satisfy assertion: {}",
                        crate::smtlib::term_to_string(ctx, a)
                    );
                }
                SmtResult::Sat(model)
            }
        };
        // Retire the guard: the permanent unit ¬g satisfies every guard
        // clause of this query, and the immediate level-0 simplification
        // deletes them (and strengthens learnt clauses mentioning g), so
        // later queries do not pay watch-list drag for dead clauses.
        self.sat.add_clause(&[guard.neg()]);
        self.sat.simplify();
        (r, stats)
    }
}

fn stats_delta(after: Stats, before: Stats) -> Stats {
    Stats {
        conflicts: after.conflicts.saturating_sub(before.conflicts),
        propagations: after.propagations.saturating_sub(before.propagations),
        decisions: after.decisions.saturating_sub(before.decisions),
        restarts: after.restarts.saturating_sub(before.restarts),
        learnt_clauses: after.learnt_clauses.saturating_sub(before.learnt_clauses),
        deleted_clauses: after.deleted_clauses.saturating_sub(before.deleted_clauses),
        vars_eliminated: after.vars_eliminated.saturating_sub(before.vars_eliminated),
        clauses_subsumed: after.clauses_subsumed.saturating_sub(before.clauses_subsumed),
        clauses_vivified: after.clauses_vivified.saturating_sub(before.clauses_vivified),
    }
}

// ---------------------------------------------------------------------------
// Canonical fingerprints for the cross-rung query cache
// ---------------------------------------------------------------------------

/// Two independently seeded FNV-1a streams giving a 128-bit structural hash;
/// collisions at 128 bits are negligible for a per-batch cache.
struct Fnv128 {
    a: u64,
    b: u64,
}

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128 { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 }
    }

    fn finish128(&self) -> u128 {
        (self.a as u128) << 64 | self.b as u128
    }
}

impl Hasher for Fnv128 {
    fn finish(&self) -> u64 {
        self.a
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a ^= x as u64;
            self.a = self.a.wrapping_mul(0x100_0000_01b3);
            self.b ^= x as u64;
            self.b = self.b.wrapping_mul(0x3f7_be91_a8f9);
        }
    }
}

fn hash_sort(h: &mut Fnv128, s: Sort) {
    match s {
        Sort::Bool => h.write_u32(0),
        Sort::BitVec(w) => {
            h.write_u32(1);
            h.write_u32(w);
        }
        Sort::Array { index, elem } => {
            h.write_u32(2);
            h.write_u32(index);
            h.write_u32(elem);
        }
    }
}

/// Context-independent structural hash of a term: variables hash by *name*
/// (and sort), everything else by operator and child hashes, so the same
/// formula built in two different [`Ctx`]s — e.g. by two ladder rungs
/// encoding the same kernel pair — gets the same hash.
pub fn canonical_hash(ctx: &Ctx, t: TermId, memo: &mut HashMap<TermId, u128>) -> u128 {
    let mut stack = vec![t];
    while let Some(&x) = stack.last() {
        if memo.contains_key(&x) {
            stack.pop();
            continue;
        }
        let mut ready = true;
        for &a in ctx.args(x) {
            if !memo.contains_key(&a) {
                stack.push(a);
                ready = false;
            }
        }
        if !ready {
            continue;
        }
        stack.pop();
        let mut h = Fnv128::new();
        match ctx.op(x) {
            Op::Var { name } => {
                h.write_u8(1);
                h.write(ctx.symbol_name(*name).as_bytes());
            }
            op => {
                h.write_u8(2);
                op.hash(&mut h);
            }
        }
        hash_sort(&mut h, ctx.sort(x));
        for &a in ctx.args(x) {
            h.write_u128(memo[&a]);
        }
        memo.insert(x, h.finish128());
    }
    memo[&t]
}

/// Canonical fingerprint of an assert *set*: order- and duplication-
/// insensitive combination of the per-assert [`canonical_hash`]es. Two
/// queries with equal fingerprints assert the same set of formulas and
/// therefore have the same SAT answer.
pub fn assert_fingerprint(ctx: &Ctx, asserts: &[TermId], memo: &mut HashMap<TermId, u128>) -> u128 {
    let mut hashes: Vec<u128> = asserts.iter().map(|&a| canonical_hash(ctx, a, memo)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    let mut h = Fnv128::new();
    h.write_usize(hashes.len());
    for x in hashes {
        h.write_u128(x);
    }
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::check_detailed;

    fn ctx() -> Ctx {
        Ctx::new()
    }

    #[test]
    fn committed_prefix_shared_across_queries() {
        let mut c = ctx();
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let ten = c.mk_bv_const(10, 8);
        let five = c.mk_bv_const(5, 8);
        let prefix = c.mk_bv_ult(x, five); // x < 5
        let mut s = SolveSession::new();
        s.commit(&mut c, &[prefix], &Budget::unlimited());
        let clauses_after_commit = s.num_clauses();

        // Query 1: x < 5 ∧ x ≥ 10 is unsat.
        let g1 = c.mk_bv_ule(ten, x);
        let (r1, st1) = s.check(&mut c, &[g1], &Budget::unlimited());
        assert!(r1.is_unsat());
        assert!(st1.clauses_reused >= clauses_after_commit);

        // Query 2: x < 5 ∧ y = x is sat, and the model respects the prefix.
        let g2 = c.mk_eq(y, x);
        let (r2, _) = s.check(&mut c, &[g2], &Budget::unlimited());
        match r2 {
            SmtResult::Sat(m) => {
                assert!(m.eval_bv(&c, x) < 5);
                assert_eq!(m.eval_bv(&c, x), m.eval_bv(&c, y));
            }
            other => panic!("expected sat, got {other:?}"),
        }

        // Query 3: retired goals must not leak — x = 12 alone would clash
        // with query 1's goal but only the prefix is permanent.
        let twelve = c.mk_bv_const(12, 8);
        let g3 = c.mk_eq(x, twelve);
        let (r3, _) = s.check(&mut c, &[g3], &Budget::unlimited());
        assert!(r3.is_unsat(), "x < 5 ∧ x = 12 is unsat");
        let four = c.mk_bv_const(4, 8);
        let g4 = c.mk_eq(x, four);
        let (r4, _) = s.check(&mut c, &[g4], &Budget::unlimited());
        assert!(r4.is_sat(), "x < 5 ∧ x = 4 is sat; earlier goals retired");
    }

    #[test]
    fn unsat_prefix_makes_every_query_unsat() {
        let mut c = ctx();
        let f = c.mk_false();
        let x = c.mk_var("x", Sort::BitVec(8));
        let zero = c.mk_bv_const(0, 8);
        let mut s = SolveSession::new();
        s.commit(&mut c, &[f], &Budget::unlimited());
        let g = c.mk_eq(x, zero);
        let (r, _) = s.check(&mut c, &[g], &Budget::unlimited());
        assert!(r.is_unsat());
        let (r2, _) = s.check(&mut c, &[], &Budget::unlimited());
        assert!(r2.is_unsat());
    }

    #[test]
    fn empty_session_empty_query_is_sat() {
        let mut c = ctx();
        let mut s = SolveSession::new();
        let (r, _) = s.check(&mut c, &[], &Budget::unlimited());
        assert!(r.is_sat());
        let t = c.mk_true();
        let (r2, _) = s.check(&mut c, &[t], &Budget::unlimited());
        assert!(r2.is_sat());
    }

    #[test]
    fn search_budget_exhaustion_does_not_poison() {
        // PHP(5,4) as a single assert set: hard enough that a one-conflict
        // budget gives Unknown; the session must stay usable afterwards.
        let mut c = ctx();
        let n = 5usize;
        let m = 4usize;
        let mut asserts = Vec::new();
        let p: Vec<Vec<TermId>> = (0..n)
            .map(|i| (0..m).map(|j| c.mk_var(&format!("p{i}_{j}"), Sort::Bool)).collect())
            .collect();
        for row in &p {
            let any = c.mk_or_many(row);
            asserts.push(any);
        }
        for h in 0..m {
            for (i, pi) in p.iter().enumerate() {
                for pj in &p[i + 1..] {
                    let a = c.mk_and(pi[h], pj[h]);
                    let no = c.mk_not(a);
                    asserts.push(no);
                }
            }
        }
        let conj = c.mk_and_many(&asserts);
        let mut s = SolveSession::new();
        let (r, _) = s.check(&mut c, &[conj], &Budget::with_conflicts(1));
        assert!(r.is_unknown());
        assert!(!s.poisoned());
        let (r2, _) = s.check(&mut c, &[conj], &Budget::unlimited());
        assert!(r2.is_unsat());
    }

    #[test]
    fn per_query_conflict_caps_are_offset() {
        // After a query that burns conflicts, a fresh query with a conflict
        // cap must still get its full per-query allowance (an easy query
        // must not inherit exhaustion from a hard one).
        let mut c = ctx();
        let x = c.mk_var("x", Sort::BitVec(8));
        let y = c.mk_var("y", Sort::BitVec(8));
        let prod = c.mk_bv_mul(x, y);
        let big = c.mk_bv_const(143, 8);
        let one = c.mk_bv_const(1, 8);
        let eq = c.mk_eq(prod, big);
        let nx = c.mk_bv_ult(one, x);
        let ny = c.mk_bv_ult(one, y);
        let mut s = SolveSession::new();
        let hard = c.mk_and_many(&[eq, nx, ny]);
        let (r1, _) = s.check(&mut c, &[hard], &Budget::unlimited());
        assert!(r1.is_sat()); // 11 * 13
        let zero = c.mk_bv_const(0, 8);
        let easy = c.mk_eq(x, zero);
        let (r2, _) = s.check(&mut c, &[easy], &Budget::with_conflicts(100));
        assert!(r2.is_sat(), "easy query got {r2:?} under an offset conflict cap");
    }

    #[test]
    fn session_agrees_with_one_shot_on_arrays() {
        let mut c = ctx();
        let arr = c.mk_var("A", Sort::Array { index: 8, elem: 8 });
        let i = c.mk_var("i", Sort::BitVec(8));
        let j = c.mk_var("j", Sort::BitVec(8));
        let ri = c.mk_select(arr, i);
        let rj = c.mk_select(arr, j);
        let prem = c.mk_eq(i, j);
        let neq = c.mk_neq(ri, rj);

        let mut s = SolveSession::new();
        s.commit(&mut c, &[prem], &Budget::unlimited());
        let (r, _) = s.check(&mut c, &[neq], &Budget::unlimited());
        let (r1, _) = check_detailed(&mut c, &[prem, neq], &Budget::unlimited());
        // i = j forces A[i] = A[j] via the Ackermann axiom — both unsat.
        assert!(r.is_unsat());
        assert!(r1.is_unsat());

        // Reads discovered by a retractable goal stay usable later.
        let seven = c.mk_bv_const(7, 8);
        let g2 = c.mk_eq(ri, seven);
        let (r2, _) = s.check(&mut c, &[g2], &Budget::unlimited());
        match r2 {
            SmtResult::Sat(m) => assert_eq!(m.eval_bv(&c, ri), 7),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn canonical_hash_is_ctx_independent() {
        let mk = |c: &mut Ctx| {
            let x = c.mk_var("x", Sort::BitVec(8));
            let y = c.mk_var("y", Sort::BitVec(8));
            let s = c.mk_bv_add(x, y);
            let z = c.mk_bv_const(3, 8);
            c.mk_eq(s, z)
        };
        let mut c1 = ctx();
        // Pad c1 with unrelated terms so the TermIds differ between contexts.
        let _ = c1.mk_var("pad", Sort::Bool);
        let t1 = mk(&mut c1);
        let mut c2 = ctx();
        let t2 = mk(&mut c2);
        assert_ne!(t1, t2, "test needs differing term ids");
        let mut m1 = HashMap::new();
        let mut m2 = HashMap::new();
        assert_eq!(canonical_hash(&c1, t1, &mut m1), canonical_hash(&c2, t2, &mut m2));
        assert_eq!(
            assert_fingerprint(&c1, &[t1], &mut m1),
            assert_fingerprint(&c2, &[t2], &mut m2)
        );
        // Different formulas get different fingerprints.
        let w = c1.mk_var("w", Sort::BitVec(8));
        let z = c1.mk_bv_const(3, 8);
        let other = c1.mk_eq(w, z);
        assert_ne!(
            assert_fingerprint(&c1, &[t1], &mut m1),
            assert_fingerprint(&c1, &[other], &mut m1)
        );
    }

    #[test]
    fn fingerprint_is_order_and_duplicate_insensitive() {
        let mut c = ctx();
        let x = c.mk_var("x", Sort::Bool);
        let y = c.mk_var("y", Sort::Bool);
        let mut m = HashMap::new();
        let f1 = assert_fingerprint(&c, &[x, y], &mut m);
        let f2 = assert_fingerprint(&c, &[y, x, y], &mut m);
        assert_eq!(f1, f2);
    }
}
