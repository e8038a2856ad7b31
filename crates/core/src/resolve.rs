//! Resolution of array reads against conditional assignments — the
//! paper's Figures 1 and 2, the embedded-ite combination of §IV-C, and the
//! premise/coverage machinery replacing the quantified formulas of §IV-D.
//!
//! To compute the value of `v[a]` where `v` is a non-base version, every CA
//! of the producing barrier interval is *instantiated* with fresh thread
//! variables (`s₁, s₂, …` in Fig. 2) and combined into a nested `ite`
//! (§IV-C); the else branch falls through to the previous version. Because
//! the fresh thread variables are universally quantified in an UNSAT-style
//! validity check, the resolver also emits **coverage premises**: the
//! checked property is asserted only for addresses actually covered by some
//! instantiation. The residual obligation — "every read is covered", the
//! paper's quantified formula — is recorded as a [`CoverageObligation`] and
//! discharged separately by witness correspondences (`crate::witness`), or
//! skipped in fast-bug-hunt mode (reported bugs stay real; §IV-D "Fast Bug
//! Hunting").

use crate::param::{ParamRegion, CA};
use pug_smt::{Ctx, Op, Sort, TermId};
use std::collections::HashMap;

/// A thread reference: concrete coordinate terms.
#[derive(Clone, Copy, Debug)]
pub struct ThreadRef {
    pub tid: [TermId; 3],
    pub bid: [TermId; 2],
}

impl ThreadRef {
    /// The thread whose coordinates are the `w`-bit variables `name(c)` for
    /// `c` in `x`, `y`, `z`, `bx`, `by`, created in that order. The same
    /// names give the same terms.
    pub fn named(ctx: &mut Ctx, w: u32, name: impl Fn(&str) -> String) -> ThreadRef {
        let mut v = |c: &str| ctx.mk_var(&name(c), Sort::BitVec(w));
        ThreadRef { tid: [v("x"), v("y"), v("z")], bid: [v("bx"), v("by")] }
    }

    /// Like [`ThreadRef::named`], but in block `bid`: only the variables
    /// for `x`, `y` and `z` are created.
    pub fn in_block(
        ctx: &mut Ctx,
        w: u32,
        bid: [TermId; 2],
        name: impl Fn(&str) -> String,
    ) -> ThreadRef {
        let mut v = |c: &str| ctx.mk_var(&name(c), Sort::BitVec(w));
        ThreadRef { tid: [v("x"), v("y"), v("z")], bid }
    }

    /// Substitution map sending this thread's coordinates to `to`'s.
    pub fn subst_map(&self, to: ThreadRef) -> HashMap<TermId, TermId> {
        self.tid.into_iter().zip(to.tid).chain(self.bid.into_iter().zip(to.bid)).collect()
    }

    /// `t` with this thread's coordinates replaced by `to`'s.
    pub fn subst(&self, ctx: &mut Ctx, t: TermId, to: ThreadRef) -> TermId {
        ctx.substitute(t, &self.subst_map(to))
    }
}

/// One CA instantiation (a fresh `sᵢ`).
#[derive(Clone, Debug)]
pub struct Instantiation {
    pub thread: ThreadRef,
    /// `addr == e(sᵢ) ∧ p(sᵢ)`.
    pub cond: TermId,
    /// The CA's address expression over the *canonical* thread — used by
    /// the coverage checker to derive inversion witnesses.
    pub canonical_addr: TermId,
}

/// A residual read-coverage obligation: under `guard`, the reader at
/// `reader` reads `addr` from an uninitialized-base chain; some
/// instantiation must cover it.
#[derive(Clone, Debug)]
pub struct CoverageObligation {
    pub array: String,
    pub addr: TermId,
    pub reader: ThreadRef,
    pub guard: TermId,
    /// Disjunction of the instantiated cover conditions.
    pub cover: TermId,
    /// The instantiations appearing in `cover` (witness substitution
    /// replaces their thread variables).
    pub insts: Vec<Instantiation>,
    /// Whether the chain bottoms out in *uninitialized* (shared-memory)
    /// state. Unprovable coverage of such a read is reported as a bug;
    /// for input-backed arrays it only downgrades soundness.
    pub uninit_base: bool,
}

/// The result of resolving one output cell.
#[derive(Clone, Debug)]
pub struct ResolvedOutput {
    /// The value term (fully resolved: only base-version selects remain).
    pub value: TermId,
    /// Coverage condition: some instantiation wrote the cell.
    pub cover: TermId,
    /// The top-level instantiations of the final-version chain.
    pub insts: Vec<Instantiation>,
}

/// Resolver over one extracted region.
pub struct Resolver<'a> {
    pub ctx: &'a mut Ctx,
    pub region: &'a ParamRegion,
    /// Tag making fresh instantiation variables unique per kernel.
    pub tag: String,
    /// Thread-range premises for every fresh instantiation.
    pub range_premises: Vec<TermId>,
    /// Guarded read-coverage premises (`guard ⇒ cover`) — the prove-mode
    /// assumption that reads hit writes; justified by the obligations.
    pub read_premises: Vec<TermId>,
    /// Residual obligations for the separate coverage check.
    pub obligations: Vec<CoverageObligation>,
    /// When set, *every* resolved read gets a coverage premise, not just
    /// reads bottoming out in uninitialized shared memory. Postcondition
    /// checking uses this: without it, the universally-quantified fresh
    /// writer lets the chain take the stale-value branch adversarially.
    pub cover_all_reads: bool,
    /// Width of the thread coordinates.
    bits: u32,
    fresh: u32,
    memo: HashMap<(TermId, [TermId; 2]), TermId>,
}

impl<'a> Resolver<'a> {
    /// All premises (ranges + guarded read coverage), for the value query.
    pub fn all_premises(&self) -> Vec<TermId> {
        let mut v = self.range_premises.clone();
        v.extend(self.read_premises.iter().copied());
        v
    }

    /// New resolver for `region`.
    pub fn new(ctx: &'a mut Ctx, region: &'a ParamRegion, tag: &str) -> Resolver<'a> {
        let Sort::BitVec(bits) = ctx.sort(region.thread.tid[0]) else {
            unreachable!("thread vars are bit-vectors")
        };
        Resolver {
            ctx,
            region,
            tag: tag.to_string(),
            range_premises: Vec::new(),
            read_premises: Vec::new(),
            obligations: Vec::new(),
            cover_all_reads: false,
            bits,
            fresh: 0,
            memo: HashMap::new(),
        }
    }

    /// Instantiate one CA at a fresh thread (Fig. 2). For shared (per-block)
    /// arrays the writer must be in the reader's block, so the block index
    /// is not fresh but the reader's.
    fn instantiate(
        &mut self,
        ca: &CA,
        addr: TermId,
        reader_bid: [TermId; 2],
        shared: bool,
    ) -> (Instantiation, TermId /* value */, ThreadRef) {
        self.fresh += 1;
        let (n, tag) = (self.fresh, &self.tag);
        let mut thread = ThreadRef::named(self.ctx, self.bits, |c| format!("s{n}.{c}!{tag}"));
        if shared {
            thread.bid = reader_bid;
        }
        let map = self.region.thread.subst_map(thread);
        let range = self.ctx.substitute(self.region.range, &map);
        self.range_premises.push(range);
        let e = self.ctx.substitute(ca.addr, &map);
        let p = self.ctx.substitute(ca.guard, &map);
        let wv = self.ctx.substitute(ca.value, &map);
        let addr_eq = self.ctx.mk_eq(addr, e);
        let cond = self.ctx.mk_and(addr_eq, p);
        (Instantiation { thread, cond, canonical_addr: ca.addr }, wv, thread)
    }

    /// Resolve every non-base version select inside `t`, with `reader` as
    /// the thread performing the enclosing computation and `guard` the
    /// condition under which it happens.
    pub fn resolve(&mut self, t: TermId, reader: ThreadRef, guard: TermId) -> TermId {
        if let Some(&r) = self.memo.get(&(t, reader.bid)) {
            return r;
        }
        let node = self.ctx.node(t).clone();
        let result = match node.op {
            Op::Select => {
                let base = node.args[0];
                let addr = self.resolve(node.args[1], reader, guard);
                if self.region.versions.contains_key(&base) {
                    self.resolve_read(base, addr, reader, guard)
                } else {
                    self.ctx.mk_select(base, addr)
                }
            }
            _ => {
                let mut args = Vec::with_capacity(node.args.len());
                let mut changed = false;
                for &a in &node.args {
                    let na = self.resolve(a, reader, guard);
                    changed |= na != a;
                    args.push(na);
                }
                if changed {
                    self.ctx.rebuild(&node.op, &args)
                } else {
                    t
                }
            }
        };
        self.memo.insert((t, reader.bid), result);
        result
    }

    /// Resolve `version[addr]` by chaining CA instantiations down the
    /// version history (embedded ite, §IV-C).
    fn resolve_read(
        &mut self,
        version: TermId,
        addr: TermId,
        reader: ThreadRef,
        guard: TermId,
    ) -> TermId {
        let (value, cover, insts, base) = self.chain(version, addr, reader, guard);
        let uninit = self.region.uninit_bases.contains(&base);
        if uninit || self.cover_all_reads {
            // Reads must hit a write: record the premise (prove mode rests
            // on it) and the residual obligation for the coverage check.
            let array = self.region.versions[&version].array.clone();
            let premise = self.ctx.mk_implies(guard, cover);
            self.read_premises.push(premise);
            self.obligations.push(CoverageObligation {
                array,
                addr,
                reader,
                guard,
                cover,
                insts,
                uninit_base: uninit,
            });
        }
        value
    }

    /// Build the nested-ite chain for `version[addr]`; returns
    /// (value, cover disjunction, instantiations, base version reached).
    pub fn chain(
        &mut self,
        version: TermId,
        addr: TermId,
        reader: ThreadRef,
        guard: TermId,
    ) -> (TermId, TermId, Vec<Instantiation>, TermId) {
        let Some(meta) = self.region.versions.get(&version).cloned() else {
            let val = self.ctx.mk_select(version, addr);
            let f = self.ctx.mk_false();
            return (val, f, Vec::new(), version);
        };
        let shared = self.region.shared_arrays.contains(&meta.array);
        // Instantiate this version's CAs.
        let mut branches: Vec<(TermId, TermId, ThreadRef)> = Vec::new();
        let mut insts: Vec<Instantiation> = Vec::new();
        for ca in &meta.cas {
            let (inst, raw_value, wthread) = self.instantiate(ca, addr, reader.bid, shared);
            branches.push((inst.cond, raw_value, wthread));
            insts.push(inst);
        }
        // Fall through to the previous version.
        let (else_val, else_cover, prev_insts, base) = self.chain(meta.prev, addr, reader, guard);
        insts.extend(prev_insts);

        // Value chain: the writer thread becomes the reader of its own
        // value expression (its reads resolve within its block).
        let mut value = else_val;
        let mut cover = else_cover;
        for (cond, raw_value, wthread) in branches.into_iter().rev() {
            let branch_guard = self.ctx.mk_and(guard, cond);
            let resolved = self.resolve(raw_value, wthread, branch_guard);
            value = self.ctx.mk_ite(cond, resolved, value);
            cover = self.ctx.mk_or(cond, cover);
        }
        (value, cover, insts, base)
    }

    /// Resolve the final value of `array[addr]` (output cells) as observed
    /// by `observer`: writers of global arrays get fully fresh coordinates;
    /// writers of per-block shared arrays are confined to the observer's
    /// block. Equivalence checks pass the *same* observer to both kernels so
    /// block-local state is compared block-for-block.
    pub fn resolve_output(
        &mut self,
        array: &str,
        addr: TermId,
        observer: ThreadRef,
    ) -> ResolvedOutput {
        let version = self.region.finals[array];
        let tru = self.ctx.mk_true();
        let (value, cover, insts, _base) = self.chain(version, addr, observer, tru);
        ResolvedOutput { value, cover, insts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelUnit;
    use crate::param::{extract_region, ExtractOptions};
    use pug_ir::GpuConfig;
    use pug_smt::{check, check_valid, Budget, SmtResult};

    fn setup(src: &str) -> (Ctx, ParamRegion, Vec<TermId>) {
        let unit = KernelUnit::load(src).unwrap();
        let mut ctx = Ctx::new();
        let cfg = GpuConfig::symbolic(8);
        let bound = cfg.bind(&mut ctx, "");
        let bis = pug_ir::split_bis(&unit.kernel.body).unwrap();
        let region = extract_region(
            &mut ctx,
            &unit,
            &bound,
            &bis,
            ExtractOptions {
                tag: "s",
                entry_versions: HashMap::new(),
                extra_locals: vec![],
                region: String::new(),
                concretize: HashMap::new(),
            },
        )
        .unwrap();
        (ctx, region, bound.constraints)
    }

    #[test]
    fn covered_copy_resolves_to_input() {
        // out[t] = in[t]: for covered k, value is in[k].
        let (mut ctx, region, mut premises) = setup("void k(int *out, int *in) { out[tid.x] = in[tid.x]; }");
        let k = ctx.mk_var("k", Sort::BitVec(8));
        let obs = ThreadRef::named(&mut ctx, 8, |c| format!("obs.{c}"));
        let mut r = Resolver::new(&mut ctx, &region, "s");
        let out = r.resolve_output("out", k, obs);
        premises.extend(r.all_premises());
        premises.push(out.cover);
        let base_in = region.entries["in"];
        let expected = ctx.mk_select(base_in, k);
        let goal = ctx.mk_eq(out.value, expected);
        let v = check_valid(&mut ctx, &premises, goal, &Budget::unlimited());
        assert!(v.is_unsat(), "covered copy must resolve to the input, got {v:?}");
    }

    #[test]
    fn instantiations_are_fresh_per_read() {
        // Fig. 2: two reads of v get distinct thread variables.
        let (mut ctx, region, _) = setup(
            r#"
void k(int *out, int *in) {
    __shared__ int v[bdim.x];
    v[tid.x] = in[tid.x];
    __syncthreads();
    out[tid.x] = v[tid.x] + v[tid.x + 1];
}
"#,
        );
        let k = ctx.mk_var("k", Sort::BitVec(8));
        let obs = ThreadRef::named(&mut ctx, 8, |c| format!("obs.{c}"));
        let mut r = Resolver::new(&mut ctx, &region, "s");
        let _out = r.resolve_output("out", k, obs);
        // one instantiation for the out CA + two for the two v reads
        assert!(
            r.range_premises.len() >= 3,
            "expected ≥3 range premises, got {}",
            r.range_premises.len()
        );
        // the two v reads are distinct addresses → two coverage obligations
        assert_eq!(r.obligations.len(), 2);
    }

    #[test]
    fn uncovered_cell_keeps_else_value() {
        // Only even cells written; cover for odd k must be falsifiable.
        let (mut ctx, region, mut premises) =
            setup("void k(int *out) { out[2 * tid.x] = 7; }");
        let k = ctx.mk_var("k", Sort::BitVec(8));
        let obs = ThreadRef::named(&mut ctx, 8, |c| format!("obs.{c}"));
        let mut r = Resolver::new(&mut ctx, &region, "s");
        let out = r.resolve_output("out", k, obs);
        premises.extend(r.all_premises());
        // k odd ∧ cover: unsatisfiable
        let one = ctx.mk_bv_const(1, 8);
        let kbit = ctx.mk_bv_and(k, one);
        let odd = ctx.mk_eq(kbit, one);
        premises.push(odd);
        premises.push(out.cover);
        let res = check(&mut ctx, &premises, &Budget::unlimited());
        assert!(matches!(res, SmtResult::Unsat), "odd cells cannot be covered");
    }

    #[test]
    fn shared_write_then_read_roundtrip() {
        // Through shared memory: out[k] == in[k] for covered k, assuming
        // read coverage (which holds with the identity correspondence).
        let (mut ctx, region, mut premises) = setup(
            r#"
void k(int *out, int *in) {
    __shared__ int buf[bdim.x];
    buf[tid.x] = in[tid.x];
    __syncthreads();
    out[tid.x] = buf[tid.x];
}
"#,
        );
        let k = ctx.mk_var("k", Sort::BitVec(8));
        let obs = ThreadRef::named(&mut ctx, 8, |c| format!("obs.{c}"));
        let mut r = Resolver::new(&mut ctx, &region, "s");
        let out = r.resolve_output("out", k, obs);
        premises.extend(r.all_premises());
        premises.push(out.cover);
        let base_in = region.entries["in"];
        let expected = ctx.mk_select(base_in, k);
        let goal = ctx.mk_eq(out.value, expected);
        let v = check_valid(&mut ctx, &premises, goal, &Budget::unlimited());
        assert!(v.is_unsat(), "copy through shared memory must round-trip, got {v:?}");
    }
}
