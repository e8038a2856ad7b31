//! Conditional-assignment (CA) extraction — the parameterized encoding of
//! paper §IV.
//!
//! Only **one symbolic thread** is modeled. Executing a barrier interval
//! with the canonical thread `τ` (fresh `tid`/`bid` variables) against a
//! CA-collecting memory yields, per shared/global array, the set of guarded
//! writes `p(τ) ? v[e(τ)] := w(τ)`. Reads inside a BI refer to the array
//! *version* at BI entry (race freedom guarantees no same-BI conflicts), so
//! values chain across barrier intervals through version variables — the
//! resolver ([`crate::resolve`]) later replaces those by instantiated CA
//! chains (Fig. 1 / Fig. 2).

use crate::error::Error;
use crate::kernel::KernelUnit;
use crate::resolve::ThreadRef;
use pug_ir::{BoundConfig, Env, Machine, Memory, Val};
use pug_smt::{Ctx, Sort, TermId};
use std::collections::{HashMap, HashSet};

/// A conditional assignment `guard ? array[addr] := value` over the
/// canonical thread variables.
#[derive(Clone, Debug)]
pub struct CA {
    pub array: String,
    pub guard: TermId,
    pub addr: TermId,
    pub value: TermId,
}

/// Metadata of one non-base array version: which array, the previous
/// version term, and the CAs that produced it.
#[derive(Clone, Debug)]
pub struct VersionMeta {
    pub array: String,
    pub prev: TermId,
    pub cas: Vec<CA>,
}

/// Result of parameterized extraction over a (possibly multi-BI) region.
#[derive(Clone, Debug)]
pub struct ParamRegion {
    /// Canonical thread variables the CA terms are expressed over.
    pub thread: ThreadRef,
    /// Range constraint over the canonical thread (`tid.* < bdim.*` etc.).
    pub range: TermId,
    /// Version metadata for every version produced in this region.
    pub versions: HashMap<TermId, VersionMeta>,
    /// Final version term per array touched in the region.
    pub finals: HashMap<String, TermId>,
    /// Entry (base) version term per array.
    pub entries: HashMap<String, TermId>,
    /// Base versions that are *uninitialized* (shared memory): reads
    /// reaching them need coverage justification.
    pub uninit_bases: HashSet<TermId>,
    /// Whether each array is `__shared__` (block-local) — writer
    /// instantiation must then stay within the reader's block.
    pub shared_arrays: HashSet<String>,
    /// Spec obligations gathered while executing with the canonical thread.
    pub outputs: pug_ir::ExecOutputs,
    /// Access log (race/performance checks reuse it).
    pub log: Vec<pug_ir::Access>,
}

/// CA-collecting memory: reads select from the entry version; writes are
/// recorded as CAs of the current BI.
struct CaMemory {
    versions: HashMap<String, TermId>,
    pending: Vec<CA>,
    /// First array referenced without a declaration. The `Memory` trait
    /// cannot return `Result`, so the read poisons the run instead of
    /// panicking; [`extract_region`] turns it into [`Error::UnknownArray`].
    missing: Option<String>,
}

impl Memory for CaMemory {
    fn read(&mut self, ctx: &mut Ctx, array: &str, index: TermId, _guard: TermId) -> TermId {
        let v = match self.versions.get(array) {
            Some(&v) => v,
            None => {
                if self.missing.is_none() {
                    self.missing = Some(array.to_string());
                }
                // Placeholder so execution can unwind to the error check.
                let w = ctx.width(index);
                ctx.mk_var(&format!("{array}@missing"), Sort::Array { index: w, elem: w })
            }
        };
        ctx.mk_select(v, index)
    }

    fn write(&mut self, _ctx: &mut Ctx, array: &str, index: TermId, value: TermId, guard: TermId) {
        self.pending.push(CA { array: array.to_string(), guard, addr: index, value });
    }
}

/// Make the canonical thread for a kernel tag, with its range constraint.
pub fn canonical_thread(ctx: &mut Ctx, bound: &BoundConfig, tag: &str) -> (ThreadRef, TermId) {
    let w = bound.bits;
    let v = |ctx: &mut Ctx, n: &str| ctx.mk_var(&format!("{n}!{tag}"), Sort::BitVec(w));
    let tid = [v(ctx, "tau.x"), v(ctx, "tau.y"), v(ctx, "tau.z")];
    let bid = [v(ctx, "taub.x"), v(ctx, "taub.y")];
    let range = thread_range(ctx, bound, tid, bid);
    (ThreadRef { tid, bid }, range)
}

/// `tid.* < bdim.* ∧ bid.* < gdim.*` for arbitrary thread coordinate terms.
pub fn thread_range(
    ctx: &mut Ctx,
    bound: &BoundConfig,
    tid: [TermId; 3],
    bid: [TermId; 2],
) -> TermId {
    let mut cs = Vec::new();
    for (t, b) in tid.iter().zip(&bound.bdim) {
        cs.push(ctx.mk_bv_ult(*t, *b));
    }
    for (t, g) in bid.iter().zip(&bound.gdim) {
        cs.push(ctx.mk_bv_ult(*t, *g));
    }
    ctx.mk_and_many(&cs)
}

/// Options for one extraction run.
pub struct ExtractOptions<'a> {
    /// Kernel tag ("s" / "t") namespacing canonical and private symbols.
    pub tag: &'a str,
    /// Pre-bound entry version term per array. Missing arrays get fresh
    /// entry variables (global arrays: the shared input symbol).
    pub entry_versions: HashMap<String, TermId>,
    /// Extra scalar bindings (e.g. the aligned loop variable).
    pub extra_locals: Vec<(String, TermId, bool)>,
    /// Version-name prefix (distinguishes segments / loop bodies).
    pub region: String,
    /// Concretized scalar parameters ("+C."), forwarded to the executor so
    /// data-dependent loops can unroll.
    pub concretize: HashMap<String, u64>,
}

/// Extract CAs for a straight-line region: a sequence of barrier intervals
/// (each BI a barrier-free statement list).
pub fn extract_region(
    ctx: &mut Ctx,
    unit: &KernelUnit,
    bound: &BoundConfig,
    bis: &[Vec<pug_cuda::Stmt>],
    opts: ExtractOptions<'_>,
) -> Result<ParamRegion, Error> {
    let w = bound.bits;
    let sort = Sort::Array { index: w, elem: w };
    let (thread, range) = canonical_thread(ctx, bound, opts.tag);

    let mut entries: HashMap<String, TermId> = HashMap::new();
    let mut uninit_bases: HashSet<TermId> = HashSet::new();
    let mut shared_arrays: HashSet<String> = HashSet::new();
    let mut mem = CaMemory { versions: HashMap::new(), pending: Vec::new(), missing: None };

    for name in unit.global_arrays() {
        let t = *opts
            .entry_versions
            .get(&name)
            .unwrap_or(&ctx.mk_var(&name, sort));
        entries.insert(name.clone(), t);
        mem.versions.insert(name.clone(), t);
    }
    for name in unit.shared_arrays() {
        shared_arrays.insert(name.clone());
        let t = match opts.entry_versions.get(&name) {
            Some(&t) => t,
            None => {
                let t = ctx.mk_var(&format!("{name}@0!{}", opts.tag), sort);
                uninit_bases.insert(t);
                t
            }
        };
        entries.insert(name.clone(), t);
        mem.versions.insert(name.clone(), t);
    }

    let mut env = Env::new(thread.tid, thread.bid);
    let mut versions: HashMap<TermId, VersionMeta> = HashMap::new();

    let mut machine = Machine::new(ctx, &mut mem, bound, &unit.types);
    // postconds are evaluated post-hoc against final versions (see spec.rs)
    machine.collect_postconds = false;
    machine.concrete_params = opts.concretize.clone();
    machine.name_prefix = format!("{}!", opts.tag);
    for (name, term, signed) in &opts.extra_locals {
        env.bind(name, Val::Bv { term: *term, signed: *signed });
    }

    // Multi-dimensional arrays may be declared in an earlier segment than
    // the one being extracted: pre-seed every declared extent so index
    // flattening works in any region.
    seed_declared_dims(&mut machine, &unit.kernel.body, &mut env)?;

    let tru = machine.ctx.mk_true();
    for (bi_ix, bi) in bis.iter().enumerate() {
        machine.exec_block(bi, &mut env, tru)?;
        if let Some(array) = machine.mem.missing.take() {
            return Err(Error::UnknownArray { array });
        }
        // Seal the BI: arrays with pending CAs get a new version.
        let pending = std::mem::take(&mut machine.mem.pending);
        let mut by_array: HashMap<String, Vec<CA>> = HashMap::new();
        for ca in pending {
            by_array.entry(ca.array.clone()).or_default().push(ca);
        }
        for (array, cas) in by_array {
            let prev = machine.mem.versions[&array];
            let next = machine.ctx.mk_var(
                &format!("{array}@{}b{}!{}", opts.region, bi_ix + 1, opts.tag),
                sort,
            );
            versions.insert(next, VersionMeta { array: array.clone(), prev, cas });
            machine.mem.versions.insert(array, next);
        }
    }

    let outputs = machine.outputs.clone();
    let log = machine.log.clone();
    let finals = mem.versions.clone();

    Ok(ParamRegion {
        thread,
        range,
        versions,
        finals,
        entries,
        uninit_bases,
        shared_arrays,
        outputs,
        log,
    })
}

/// Register the extents of every multi-dimensional array declaration in
/// the kernel body with the machine, in statement order (extents are
/// configuration expressions).
fn seed_declared_dims<M: Memory>(
    machine: &mut Machine<'_, M>,
    body: &[pug_cuda::Stmt],
    env: &mut Env,
) -> Result<(), Error> {
    use pug_cuda::Stmt;
    for s in pug_cuda::ast::walk_stmts(body) {
        let Stmt::Decl { name, dims, .. } = s else { continue };
        if dims.len() < 2 {
            continue;
        }
        let w = machine.cfg.bits;
        let mut ds = Vec::with_capacity(dims.len());
        let tru = machine.ctx.mk_true();
        for d in dims {
            let v = machine.eval(d, env, tru)?;
            ds.push(v.as_bv(machine.ctx, w));
        }
        machine.seed_array_dims(name, ds);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pug_ir::GpuConfig;

    fn extract(src: &str) -> (Ctx, ParamRegion) {
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
        (ctx, region)
    }

    #[test]
    fn single_ca_from_guarded_write() {
        let (ctx, region) = extract(
            "void k(int *out, int *in, int n) { if (tid.x < n) out[tid.x] = in[tid.x]; }",
        );
        assert_eq!(region.versions.len(), 1);
        let meta = region.versions.values().next().unwrap();
        assert_eq!(meta.array, "out");
        assert_eq!(meta.cas.len(), 1);
        // guard mentions the canonical thread, not a constant
        assert!(ctx.const_bool(meta.cas[0].guard).is_none());
    }

    #[test]
    fn two_bis_chain_versions() {
        let (_ctx, region) = extract(
            r#"
void k(int *out, int *in) {
    __shared__ int buf[bdim.x];
    buf[tid.x] = in[tid.x];
    __syncthreads();
    out[tid.x] = buf[tid.x];
}
"#,
        );
        // buf gets version 1 (BI 1), out gets version 1 (BI 2)
        assert_eq!(region.versions.len(), 2);
        let arrays: Vec<&str> =
            region.versions.values().map(|m| m.array.as_str()).collect();
        assert!(arrays.contains(&"buf") && arrays.contains(&"out"));
        // the out CA's value reads buf's *written* version
        let out_meta = region.versions.values().find(|m| m.array == "out").unwrap();
        let buf_final = region.finals["buf"];
        let mut found = false;
        let mut stack = vec![out_meta.cas[0].value];
        let ctx = &_ctx;
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            if t == buf_final {
                found = true;
            }
            stack.extend_from_slice(ctx.args(t));
        }
        assert!(found, "out's value must reference buf's BI-1 version");
        // shared array base is marked uninitialized
        assert_eq!(region.uninit_bases.len(), 1);
        assert!(region.shared_arrays.contains("buf"));
    }

    #[test]
    fn flattened_branch_gives_multiple_cas() {
        let (_, region) = extract(
            r#"
void k(int *out) {
    if (tid.x < 4) out[tid.x] = 1;
    else out[tid.x + 4] = 2;
}
"#,
        );
        let meta = region.versions.values().next().unwrap();
        assert_eq!(meta.cas.len(), 2, "two write sites, two CAs");
    }

    #[test]
    fn unknown_array_poisons_instead_of_panicking() {
        // A read of an undeclared array used to panic mid-extraction; now it
        // records the name so extract_region returns Error::UnknownArray.
        let mut ctx = Ctx::new();
        let mut mem =
            CaMemory { versions: HashMap::new(), pending: Vec::new(), missing: None };
        let idx = ctx.mk_bv_const(0, 8);
        let tru = ctx.mk_true();
        let _ = mem.read(&mut ctx, "ghost", idx, tru);
        assert_eq!(mem.missing.as_deref(), Some("ghost"));
        let err = Error::UnknownArray { array: "ghost".into() };
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn compound_assignment_reads_entry_state() {
        let (ctx, region) = extract("void k(int *d) { d[tid.x] += 5; }");
        let meta = region.versions.values().next().unwrap();
        // value = select(d@entry, tid.x) + 5
        let v = meta.cas[0].value;
        assert!(matches!(ctx.op(v), pug_smt::Op::BvAdd));
    }
}
