//! Array elimination: store-chain reduction followed by Ackermann expansion.
//!
//! PUGpara's verification conditions mention arrays in two ways: symbolic
//! input arrays (`idata`, …) that are *only read*, and output arrays built by
//! chains of `store`s (one per serialized thread in the non-parameterized
//! encoding, one per conditional assignment in the parameterized one).
//!
//! This pass rewrites
//!
//! ```text
//! select(store(a, i, v), j)  →  ite(i = j, v, select(a, j))
//! ```
//!
//! until every `select` sits on a base array variable, replaces each distinct
//! `select(A, i)` by a fresh bit-vector variable, and adds the Ackermann
//! congruence constraints `i_m = i_n ⇒ v_m = v_n` for every pair of reads of
//! the same base array. The result is a pure QF_BV problem for the
//! bit-blaster, plus enough bookkeeping to reconstruct array values in
//! counterexample models.
//!
//! The pass is *incremental*: an [`IncrementalReducer`] keeps its rewrite
//! cache, its read-variable memo and a per-array high-water mark of already
//! emitted congruence pairs across calls, so a [`crate::SolveSession`]
//! feeding it one obligation at a time pays only for the new reads — the
//! quadratic pair closure extends monotonically instead of being recomputed
//! per query.

use crate::term::{Ctx, Op, TermId};
use pug_sat::Budget;
use std::collections::HashMap;

/// Transform steps between budget polls in the rewriting pass.
const BUDGET_POLL_INTERVAL: u64 = 256;

/// Result of one-shot array elimination.
pub struct ArrayReduction {
    /// The rewritten, array-free assertions (Ackermann constraints included).
    pub assertions: Vec<TermId>,
    /// Per base array variable: the (index term, fresh value variable) pairs
    /// introduced for its reads. Index terms are array-free.
    pub base_selects: HashMap<TermId, Vec<(TermId, TermId)>>,
    /// True when the pass was cut short by the budget (deadline, cancel
    /// token or term-node cap). The assertions are then incomplete and the
    /// caller must answer `Unknown`.
    pub interrupted: bool,
}

/// Result of one incremental [`IncrementalReducer::reduce`] call.
pub struct ReduceDelta {
    /// Rewritten (array-free) forms of the input assertions, in order.
    pub assertions: Vec<TermId>,
    /// Ackermann congruence constraints newly due for reads discovered by
    /// this call. These are valid array axioms — a session may assert them
    /// permanently even when the input assertions themselves are
    /// retractable.
    pub congruence: Vec<TermId>,
    /// True when this call was cut short by the budget; the delta is then
    /// incomplete and the caller must answer `Unknown`.
    pub interrupted: bool,
}

/// Eliminate arrays from `assertions` (see module docs), without limits.
pub fn reduce_arrays(ctx: &mut Ctx, assertions: &[TermId]) -> ArrayReduction {
    reduce_arrays_budgeted(ctx, assertions, &Budget::unlimited())
}

/// [`reduce_arrays`] honouring a budget: store-chain expansion is quadratic
/// in chain length and Ackermann expansion quadratic in read count, so on
/// adversarial inputs the rewrite itself can exhaust time or blow up the
/// hash-consed term DAG (`Budget::max_term_nodes`) long before bit-blasting.
pub fn reduce_arrays_budgeted(
    ctx: &mut Ctx,
    assertions: &[TermId],
    budget: &Budget,
) -> ArrayReduction {
    let mut pass = IncrementalReducer::new();
    let delta = pass.reduce(ctx, assertions, budget);
    let mut out = delta.assertions;
    out.extend(delta.congruence);
    ArrayReduction {
        assertions: out,
        base_selects: pass.base_selects,
        interrupted: delta.interrupted,
    }
}

/// Persistent store-chain / Ackermann pass (see module docs).
///
/// An aborted call leaves the reducer in a *consistent* state: rewrite
/// results are only cached when fully computed, and the congruence
/// high-water mark only advances for arrays whose pair closure was emitted
/// completely, so a later call under a fresh budget redoes exactly the
/// unfinished work (re-emitted pairs hash-cons to the same terms and are
/// harmless to re-assert).
#[derive(Default)]
pub struct IncrementalReducer {
    cache: HashMap<TermId, TermId>,
    /// Memo: (base array, index) → fresh value variable.
    select_vars: HashMap<(TermId, TermId), TermId>,
    base_selects: HashMap<TermId, Vec<(TermId, TermId)>>,
    /// Per base array: number of leading reads in `base_selects` whose
    /// congruence pairs (against every earlier read) were already emitted.
    congruence_done: HashMap<TermId, usize>,
    budget: Budget,
    steps: u64,
    aborted: bool,
}

impl IncrementalReducer {
    /// Fresh reducer with empty caches.
    pub fn new() -> IncrementalReducer {
        IncrementalReducer::default()
    }

    /// Whether the most recent `reduce` call was cut short by its budget.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// All reads of base arrays discovered so far (for model reconstruction).
    pub fn base_selects(&self) -> &HashMap<TermId, Vec<(TermId, TermId)>> {
        &self.base_selects
    }

    /// Rewrite a batch of assertions, extending the persistent caches.
    pub fn reduce(&mut self, ctx: &mut Ctx, assertions: &[TermId], budget: &Budget) -> ReduceDelta {
        self.budget = budget.clone();
        self.aborted = false;
        let out: Vec<TermId> = assertions.iter().map(|&t| self.transform(ctx, t)).collect();

        // Ackermann congruence: pair every read discovered by this call with
        // every earlier read of the same base array (and with each other).
        let mut congruence = Vec::new();
        // Deterministic emission order: hash-map order would permute the
        // congruence terms (and every TermId allocated for them) from run to
        // run, which permutes the CNF and with it the witness models.
        let mut arrays: Vec<TermId> = self.base_selects.keys().copied().collect();
        arrays.sort_unstable();
        'arrays: for array in arrays {
            let done = self.congruence_done.get(&array).copied().unwrap_or(0);
            let len = self.base_selects[&array].len();
            for n in done..len {
                if self.aborted
                    || budget.interrupted()
                    || budget.term_nodes_exhausted(ctx.num_terms())
                {
                    self.aborted = true;
                    break 'arrays;
                }
                for m in 0..n {
                    let (im, vm) = self.base_selects[&array][m];
                    let (in_, vn) = self.base_selects[&array][n];
                    let idx_eq = ctx.mk_eq(im, in_);
                    let val_eq = ctx.mk_eq(vm, vn);
                    let c = ctx.mk_implies(idx_eq, val_eq);
                    if ctx.const_bool(c) != Some(true) {
                        congruence.push(c);
                    }
                }
            }
            self.congruence_done.insert(array, len);
        }
        ReduceDelta { assertions: out, congruence, interrupted: self.aborted }
    }

    fn transform(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        if let Some(&r) = self.cache.get(&t) {
            return r;
        }
        if self.aborted {
            return t;
        }
        self.steps += 1;
        if self.steps.is_multiple_of(BUDGET_POLL_INTERVAL)
            && (self.budget.interrupted() || self.budget.term_nodes_exhausted(ctx.num_terms()))
        {
            // Collapse the recursion; the reduction is flagged interrupted so
            // the answer becomes Unknown.
            self.aborted = true;
            return t;
        }
        let node = ctx.node(t).clone();
        let result = match node.op {
            Op::Select => {
                let idx = self.transform(ctx, node.args[1]);
                self.expand_select(ctx, node.args[0], idx)
            }
            Op::Store => {
                unreachable!("store outside a select reached the array pass")
            }
            _ => {
                let mut args = Vec::with_capacity(node.args.len());
                let mut changed = false;
                for &a in &node.args {
                    let na = self.transform(ctx, a);
                    changed |= na != a;
                    args.push(na);
                }
                if changed {
                    ctx.rebuild(&node.op, &args)
                } else {
                    t
                }
            }
        };
        // Never memoize a result computed from an aborted (partially
        // rewritten) subterm: the cache must stay poison-free so a later
        // call under a fresh budget can redo the work correctly.
        if !self.aborted {
            self.cache.insert(t, result);
        }
        result
    }

    /// Resolve `select(array, idx)` where `idx` is already array-free.
    fn expand_select(&mut self, ctx: &mut Ctx, array: TermId, idx: TermId) -> TermId {
        match ctx.op(array).clone() {
            Op::Store => {
                let (base, i, v) = {
                    let a = ctx.args(array);
                    (a[0], a[1], a[2])
                };
                let i = self.transform(ctx, i);
                let v = self.transform(ctx, v);
                let cond = ctx.mk_eq(idx, i);
                // Short-circuit on syntactic (dis)equality folded by mk_eq.
                match ctx.const_bool(cond) {
                    Some(true) => v,
                    Some(false) => self.expand_select(ctx, base, idx),
                    None => {
                        let els = self.expand_select(ctx, base, idx);
                        ctx.mk_ite(cond, v, els)
                    }
                }
            }
            Op::Var { .. } => {
                if let Some(&var) = self.select_vars.get(&(array, idx)) {
                    return var;
                }
                let crate::sort::Sort::Array { elem, .. } = ctx.sort(array) else {
                    unreachable!("select base is not array-sorted");
                };
                // Named by the (array, index) pair rather than gensym'd: the
                // same read always maps to the same select var (Ackermann
                // consistency across repeated reductions), and reducing does
                // not bump the ctx-global fresh counter — so the names of
                // *later* fresh vars, which do enter query fingerprints,
                // stay identical across runs that issue different numbers of
                // queries (e.g. FastBugHunt vs Prove sharing a query cache).
                let name = format!("sel!{}!{}", array.index(), idx.index());
                let var = ctx.mk_var(&name, crate::sort::Sort::BitVec(elem));
                self.select_vars.insert((array, idx), var);
                self.base_selects.entry(array).or_default().push((idx, var));
                var
            }
            Op::Ite => {
                // ite over arrays is rejected by Ctx, so this is unreachable,
                // but keep a clear panic in case the invariant ever changes.
                unreachable!("ite over arrays is not supported")
            }
            op => unreachable!("unexpected array operator {op:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn setup() -> (Ctx, TermId, TermId) {
        let mut c = Ctx::new();
        let arr = c.mk_var("A", Sort::Array { index: 8, elem: 8 });
        let k = c.mk_var("k", Sort::BitVec(8));
        (c, arr, k)
    }

    #[test]
    fn store_chain_becomes_ite() {
        let (mut c, arr, k) = setup();
        let i0 = c.mk_bv_const(0, 8);
        let i1 = c.mk_bv_const(1, 8);
        let v0 = c.mk_var("v0", Sort::BitVec(8));
        let v1 = c.mk_var("v1", Sort::BitVec(8));
        let s1 = c.mk_store(arr, i0, v0);
        let s2 = c.mk_store(s1, i1, v1);
        let read = c.mk_select(s2, k);
        let zero = c.mk_bv_const(0, 8);
        let assertion = c.mk_eq(read, zero);
        let red = reduce_arrays(&mut c, &[assertion]);
        // one read of the base array (at k), store chain resolved into ite
        assert_eq!(red.base_selects[&arr].len(), 1);
        // no Select/Store ops remain anywhere in the output
        for &a in &red.assertions {
            let mut stack = vec![a];
            while let Some(t) = stack.pop() {
                assert!(
                    !matches!(c.op(t), Op::Select | Op::Store),
                    "array op survived reduction"
                );
                stack.extend_from_slice(c.args(t));
            }
        }
    }

    #[test]
    fn ackermann_constraints_added() {
        let (mut c, arr, k) = setup();
        let j = c.mk_var("j", Sort::BitVec(8));
        let r1 = c.mk_select(arr, k);
        let r2 = c.mk_select(arr, j);
        let a = c.mk_eq(r1, r2);
        let before = 1;
        let red = reduce_arrays(&mut c, &[a]);
        // two reads → one congruence constraint
        assert_eq!(red.base_selects[&arr].len(), 2);
        assert_eq!(red.assertions.len(), before + 1);
    }

    #[test]
    fn identical_selects_share_one_variable() {
        let (mut c, arr, k) = setup();
        let r1 = c.mk_select(arr, k);
        let r2 = c.mk_select(arr, k);
        assert_eq!(r1, r2);
        let a = c.mk_eq(r1, r2); // trivially true
        let red = reduce_arrays(&mut c, &[a]);
        assert!(red.base_selects.get(&arr).is_none_or(|v| v.len() <= 1));
    }

    #[test]
    fn incremental_congruence_extends_monotonically() {
        let (mut c, arr, k) = setup();
        let j = c.mk_var("j", Sort::BitVec(8));
        let l = c.mk_var("l", Sort::BitVec(8));
        let r1 = c.mk_select(arr, k);
        let r2 = c.mk_select(arr, j);
        let zero = c.mk_bv_const(0, 8);
        let a1 = c.mk_eq(r1, zero);
        let a2 = c.mk_eq(r2, zero);
        let mut red = IncrementalReducer::new();
        let d1 = red.reduce(&mut c, &[a1, a2], &Budget::unlimited());
        // two reads → one pair
        assert_eq!(d1.congruence.len(), 1);
        // A third read later pairs only against the two earlier reads.
        let r3 = c.mk_select(arr, l);
        let a3 = c.mk_eq(r3, zero);
        let d2 = red.reduce(&mut c, &[a3], &Budget::unlimited());
        assert_eq!(d2.congruence.len(), 2);
        assert_eq!(red.base_selects()[&arr].len(), 3);
        // Re-reducing an already seen assertion adds nothing.
        let d3 = red.reduce(&mut c, &[a1], &Budget::unlimited());
        assert!(d3.congruence.is_empty());
        assert_eq!(d3.assertions.len(), 1);
    }
}
