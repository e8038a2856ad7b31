//! The verdict oracle: the known answer for every input the benchmark
//! times, from sources independent of the checker under test.
//!
//! * Corpus inputs are judged from the table below. Its answers come from
//!   the `pug-kernels` documentation (Table II clean pairs, Table III
//!   `buggy_*` variants, the hidden square-block assumption of
//!   `optimized_unconstrained`) and the expectations pinned in
//!   `crates/core/tests/races.rs`. Where the bounded-width model disagrees
//!   with the prose, the table records the model's answer and says why.
//! * Generated inputs are judged by running the `pug-ir` reference
//!   interpreter on seeded concrete configurations and inputs. A kernel
//!   whose run shows a race is outside the equivalence method's domain
//!   (§III assumes race freedom), so its pairs are unjudged; a race-free
//!   self pair must not be reported as a bug; a race-free cross pair whose
//!   outputs differ is a bug. Anything else is unjudged, never wrong.
//!
//! The oracle runs after the timed loop, so it costs no measured time.

use crate::workloads::{Input, Origin, Task};
use pug_cuda::ast::Expr;
use pug_cuda::Stmt;
use pug_ir::{ConcreteInputs, ConcreteState, Extent, GpuConfig};
use pug_testutil::TestRng;
use pugpara::KernelUnit;
use std::collections::{BTreeSet, HashMap};

/// The property a job checks: equivalence for pairs, race freedom for
/// single kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Holds,
    Violated,
    Unjudged,
}

/// What the program answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Verified; `sound` is false for an under-approximate proof.
    Holds { sound: bool },
    /// A bug (equivalence mismatch, coverage violation or race).
    Violated,
    /// Timeout, or a structured "unsupported" error.
    Undecided,
}

impl Answer {
    pub fn label(self) -> &'static str {
        match self {
            Answer::Holds { sound: true } => "holds",
            Answer::Holds { sound: false } => "holds-underapprox",
            Answer::Violated => "violated",
            Answer::Undecided => "undecided",
        }
    }

    /// Classify a wire verdict string (the canonical `Verdict` rendering).
    pub fn from_wire(verdict: &str) -> Answer {
        if verdict.starts_with("verified") {
            Answer::Holds { sound: true }
        } else if verdict.starts_with("no bug found") {
            Answer::Holds { sound: false }
        } else if verdict.starts_with("bug") {
            Answer::Violated
        } else {
            Answer::Undecided
        }
    }
}

impl Expect {
    pub fn label(self) -> &'static str {
        match self {
            Expect::Holds => "holds",
            Expect::Violated => "violated",
            Expect::Unjudged => "unjudged",
        }
    }
}

/// A verdict contradicts a known answer. Undecided never does.
pub fn is_wrong(expect: Expect, answer: Answer) -> bool {
    matches!(
        (expect, answer),
        (Expect::Holds, Answer::Violated) | (Expect::Violated, Answer::Holds { .. })
    )
}

use Expect::{Holds, Violated};

/// Known answers for corpus inputs, by input name.
const CORPUS: &[(&str, Expect, &str)] = &[
    // Equivalence pairs.
    ("transpose/naive~optimized@5", Holds, "Table II clean pair (square blocks required)"),
    ("transpose/naive~optimized_unconstrained@5", Violated, "hidden square-block assumption (§IV-B)"),
    ("transpose/naive~buggy_addr@5", Violated, "Table III seeded address bug"),
    ("transpose/naive~buggy_guard@5", Violated, "Table III seeded guard bug"),
    ("scalar_product/self@8", Holds, "self pair of a race-free kernel"),
    ("scalar_product/self@7", Holds, "self pair of a race-free kernel"),
    (
        "scalar_product/kernel~unconstrained@8",
        Holds,
        "one body; only the power-of-two requires differs, so both compute the same for every block",
    ),
    ("quads/original~rewritten@7", Holds, "ring identities hold modulo 2^w"),
    ("reduction/v0~v1@16", Holds, "Table II clean pair"),
    ("reduction/v0~v1@8", Holds, "Table II clean pair"),
    ("reduction/v0~buggy_index@8", Violated, "Table III seeded index bug"),
    ("reduction/v0~buggy_guard@8", Violated, "Table III seeded guard bug"),
    ("vector_add/self@8", Holds, "self pair"),
    ("vector_add/kernel~buggy@8", Violated, "seeded off-by-one read"),
    ("scan/self@8", Holds, "self pair (documented clean)"),
    ("grid_stride/original~reassoc@8", Holds, "reassociated address arithmetic"),
    ("bitonic/self@8", Holds, "self pair"),
    ("matmul/naive~tiled@8", Holds, "documented equivalent; no rung answers today"),
    // Race checks at the kernel-checks configurations.
    ("race/transpose_naive@5", Holds, "race-free (races.rs pins the optimized kernel)"),
    ("race/transpose_optimized@5", Holds, "races.rs: transpose_optimized_race_free"),
    (
        "race/transpose_optimized_unconstrained@5",
        Violated,
        "non-square blocks make two threads write one odata cell",
    ),
    ("race/transpose_buggy_addr@5", Violated, "the +1 output shift makes neighbours collide"),
    ("race/transpose_buggy_guard@5", Violated, "the swapped guard lets two threads write one cell"),
    ("race/reduction_v0@8", Holds, "races.rs: reduction_v0_race_free_parameterized"),
    ("race/reduction_v1@8", Holds, "races.rs: reduction_v1_race_free_parameterized"),
    ("race/reduction_v2@8", Holds, "sequential addressing keeps reads and writes disjoint"),
    ("race/reduction_buggy_index@8", Holds, "the index bug corrupts the sum without a conflict"),
    ("race/reduction_buggy_guard@8", Holds, "the guard bug writes out of range without a conflict"),
    ("race/scan_naive@8", Violated, "model: read-write race on temp within one interval"),
    ("race/scalar_product@8", Holds, "barrier-separated tree reduction"),
    ("race/matmul_naive@8", Holds, "one writer per output cell; the checker reports unsupported"),
    ("race/matmul_tiled@8", Holds, "barrier-separated tiles; the checker reports unsupported"),
    ("race/bitonic_sort@8", Holds, "barrier-separated compare-exchange; unsupported today"),
    ("race/grid_stride@8", Holds, "disjoint strided cells"),
    ("race/grid_stride_reassoc@8", Holds, "disjoint strided cells"),
    ("race/param_race@8", Violated, "seeded potential race (stride.rs)"),
    (
        "race/vector_add@8",
        Violated,
        "model: documented race-free, but at 8 bits the global index wraps across blocks",
    ),
    ("race/vector_add_buggy@8", Violated, "model: the same 8-bit index wrap"),
];

/// The known answer for a corpus input name, with its justification.
pub fn corpus(name: &str) -> Option<(Expect, &'static str)> {
    CORPUS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, e, why)| (e, why))
}

/// The known answer for `input`, with a one-line reason.
pub fn expectation(input: &Input, seed: u64) -> (Expect, String) {
    match input.origin {
        Origin::Corpus => match corpus(&input.name) {
            Some((e, why)) => (e, why.to_string()),
            None => (Expect::Unjudged, "no oracle entry".into()),
        },
        Origin::GenSelf | Origin::Gen => {
            judge_generated(&input.task, &input.cfg, input.origin, seed)
        }
    }
}

/// Concrete launch shapes sampled for a configuration: single-block
/// configurations vary the block only; symbolic grids also vary the grid.
fn sample_configs(cfg: &GpuConfig) -> Vec<GpuConfig> {
    let blocks: &[u64] = &[1, 2, 3, 5, 8, 13, 40];
    let grids: &[u64] = if matches!(cfg.gdim[0], Extent::Sym) {
        &[1, 2, 3]
    } else {
        &[1]
    };
    let mut out = Vec::new();
    for &g in grids {
        for &b in blocks {
            out.push(GpuConfig {
                bits: cfg.bits,
                bdim: [Extent::Const(b), Extent::Const(1), Extent::Const(1)],
                gdim: [Extent::Const(g), Extent::Const(1)],
            });
        }
    }
    out
}

/// Seeded scalar parameters and initial contents of every global array
/// of `units`, wide enough for every thread of `cfg` plus a margin.
fn concrete_inputs(units: &[&KernelUnit], cfg: &GpuConfig, rng: &mut TestRng) -> ConcreteInputs {
    let mask = if cfg.bits >= 64 {
        u64::MAX
    } else {
        (1u64 << cfg.bits) - 1
    };
    let cells = cfg.threads_per_block().unwrap_or(1) * cfg.num_blocks().unwrap_or(1) + 16;
    let mut inputs = ConcreteInputs::default();
    for unit in units {
        for name in unit.global_arrays() {
            inputs
                .arrays
                .entry(name)
                .or_insert_with(|| (0..cells).map(|i| (i, rng.gen_u64() & mask)).collect());
        }
        for p in unit.kernel.scalar_params() {
            inputs
                .scalars
                .entry(p.to_string())
                .or_insert_with(|| rng.gen_u64() & mask);
        }
    }
    inputs
}

/// Run `unit` concretely; `Err` when the interpreter cannot, `Ok(None)`
/// when the run races, `Ok(Some(state))` otherwise.
fn run(
    unit: &KernelUnit,
    cfg: &GpuConfig,
    inputs: &ConcreteInputs,
) -> Result<Option<ConcreteState>, String> {
    let (state, log) = pug_ir::run_concrete_logged(&unit.kernel, &unit.types, cfg, inputs)
        .map_err(|e| e.to_string())?;
    // Two accesses from distinct threads to one cell in one barrier
    // interval, at least one a write.
    type Access<'a> = (&'a [u64; 3], &'a [u64; 2], bool);
    let mut cells: HashMap<(&str, u64, usize), Vec<Access>> = HashMap::new();
    for a in &log {
        cells
            .entry((a.array.as_str(), a.index, a.bi))
            .or_default()
            .push((&a.tid, &a.bid, a.is_write));
    }
    let racy = cells.values().any(|accs| {
        accs.iter().enumerate().any(|(i, x)| {
            accs[i + 1..]
                .iter()
                .any(|y| (x.0 != y.0 || x.1 != y.1) && (x.2 || y.2))
        })
    });
    Ok(if racy { None } else { Some(state) })
}

/// Whether `src` runs race-free on every sampled launch of `cfg`.
pub fn race_free_on_samples(src: &str, cfg: &GpuConfig, seed: u64) -> bool {
    let Ok(unit) = KernelUnit::load(src) else {
        return false;
    };
    let mut rng = TestRng::seed_from_u64(seed);
    sample_configs(cfg).iter().all(|c| {
        let inputs = concrete_inputs(&[&unit], c, &mut rng);
        matches!(run(&unit, c, &inputs), Ok(Some(_)))
    })
}

/// Whether `src` is a self pair the oracle can judge: race-free on every
/// sampled launch, with no blocker from [`self_pair_blocker`].
pub fn judgeable_self(src: &str, cfg: &GpuConfig, seed: u64) -> bool {
    KernelUnit::load(src).is_ok_and(|u| self_pair_blocker(&u).is_none())
        && race_free_on_samples(src, cfg, seed)
}

/// Why a race-free-looking self pair cannot be judged `Holds`, if it
/// cannot:
/// * an access to a written array sits behind a guard, or at an index,
///   that depends on inputs or locals: a race that needs particular input
///   values escapes random sampling, so race freedom is not established;
/// * a global array is written in two barrier intervals: on such
///   race-free kernels the parameterized checker reports a spurious bug
///   for the self pair (minimal case in the README), a known defect.
pub fn self_pair_blocker(unit: &KernelUnit) -> Option<&'static str> {
    let body = &unit.kernel.body;
    let mut written = BTreeSet::new();
    array_writes(body, &mut written);
    if !accesses_oblivious(body, &written, true) {
        return Some(DATA_DEPENDENT);
    }
    let globals = unit.kernel.array_params();
    let Ok(bis) = pug_ir::split_bis(body) else {
        return Some(DATA_DEPENDENT);
    };
    let mut seen = BTreeSet::new();
    let rewrites = bis.iter().any(|bi| {
        let mut w = BTreeSet::new();
        array_writes(bi, &mut w);
        w.retain(|a| globals.contains(&a.as_str()));
        let again = w.iter().any(|a| seen.contains(a));
        seen.extend(w);
        again
    });
    rewrites.then_some(KNOWN_DEFECT)
}

/// Reasons recorded for self pairs the oracle leaves unjudged.
pub const KNOWN_DEFECT: &str = "known defect: global array written in two barrier intervals";
pub const DATA_DEPENDENT: &str = "data-dependent accesses: race freedom not established";

/// Names of the arrays `stmts` assign to.
fn array_writes(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, .. } if !lhs.indices.is_empty() => {
                out.insert(lhs.name.clone());
            }
            Stmt::If { then, els, .. } => {
                array_writes(then, out);
                array_writes(els, out);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => array_writes(body, out),
            _ => {}
        }
    }
}

/// An expression over constants and thread/launch builtins only.
fn oblivious(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Bool(_) | Expr::Builtin(_) => true,
        Expr::Ident(_) | Expr::Index { .. } => false,
        Expr::Unary { arg, .. } => oblivious(arg),
        Expr::Binary { lhs, rhs, .. } => oblivious(lhs) && oblivious(rhs),
        Expr::Ternary { cond, then, els } => oblivious(cond) && oblivious(then) && oblivious(els),
        Expr::Call { args, .. } => args.iter().all(oblivious),
    }
}

/// Every read of a written array in `e` is at an oblivious index and,
/// with `guard_ok`, under oblivious guards.
fn reads_oblivious(e: &Expr, written: &BTreeSet<String>, guard_ok: bool) -> bool {
    match e {
        Expr::Int(_) | Expr::Bool(_) | Expr::Builtin(_) | Expr::Ident(_) => true,
        Expr::Index { base, indices } => {
            (!written.contains(base) || (guard_ok && indices.iter().all(oblivious)))
                && indices
                    .iter()
                    .all(|i| reads_oblivious(i, written, guard_ok))
        }
        Expr::Unary { arg, .. } => reads_oblivious(arg, written, guard_ok),
        Expr::Binary { lhs, rhs, .. } => {
            reads_oblivious(lhs, written, guard_ok) && reads_oblivious(rhs, written, guard_ok)
        }
        Expr::Ternary { cond, then, els } => {
            let inner = guard_ok && oblivious(cond);
            reads_oblivious(cond, written, guard_ok)
                && reads_oblivious(then, written, inner)
                && reads_oblivious(els, written, inner)
        }
        Expr::Call { args, .. } => args.iter().all(|a| reads_oblivious(a, written, guard_ok)),
    }
}

/// Every access to a written array in `stmts` is input-independent: the
/// kernel's access pattern is then a function of the launch alone.
fn accesses_oblivious(stmts: &[Stmt], written: &BTreeSet<String>, guard_ok: bool) -> bool {
    stmts.iter().all(|s| match s {
        Stmt::Assign { lhs, rhs, .. } => {
            let target = lhs.indices.is_empty()
                || !written.contains(&lhs.name)
                || (guard_ok && lhs.indices.iter().all(oblivious));
            target
                && lhs
                    .indices
                    .iter()
                    .all(|i| reads_oblivious(i, written, guard_ok))
                && reads_oblivious(rhs, written, guard_ok)
        }
        Stmt::Decl { init, .. } => init
            .as_ref()
            .is_none_or(|e| reads_oblivious(e, written, guard_ok)),
        Stmt::If {
            cond, then, els, ..
        } => {
            let inner = guard_ok && oblivious(cond);
            reads_oblivious(cond, written, guard_ok)
                && accesses_oblivious(then, written, inner)
                && accesses_oblivious(els, written, inner)
        }
        Stmt::For { .. } | Stmt::While { .. } => false,
        _ => true,
    })
}

fn judge_generated(task: &Task, cfg: &GpuConfig, origin: Origin, seed: u64) -> (Expect, String) {
    let load = |s: &str| KernelUnit::load(s).map_err(|e| e.to_string());
    let (units, is_pair) = match task {
        Task::Equiv { src, tgt } => match (load(src), load(tgt)) {
            (Ok(a), Ok(b)) => (vec![a, b], true),
            _ => return (Expect::Unjudged, "does not load".into()),
        },
        Task::Checks { src } => match load(src) {
            Ok(a) => (vec![a], false),
            Err(_) => return (Expect::Unjudged, "does not load".into()),
        },
    };
    let refs: Vec<&KernelUnit> = units.iter().collect();
    let mut rng = TestRng::seed_from_u64(seed ^ 0x0a11_c1e5);
    let mut differs = None;
    for c in sample_configs(cfg) {
        let inputs = concrete_inputs(&refs, &c, &mut rng);
        let mut states = Vec::new();
        for u in &units {
            match run(u, &c, &inputs) {
                Err(e) => return (Expect::Unjudged, format!("interpreter: {e}")),
                Ok(None) => {
                    let at = format!("block {:?} grid {:?}", c.bdim[0], c.gdim[0]);
                    return if is_pair {
                        (
                            Expect::Unjudged,
                            format!("racy at {at}: outside the method's domain"),
                        )
                    } else {
                        (Expect::Violated, format!("concrete race at {at}"))
                    };
                }
                Ok(Some(s)) => states.push(s),
            }
        }
        if is_pair && differs.is_none() && outputs_differ(&units, &states[0], &states[1]) {
            differs = Some(format!(
                "outputs differ at block {:?} grid {:?}",
                c.bdim[0], c.gdim[0]
            ));
        }
    }
    match (is_pair, origin, differs) {
        (true, Origin::GenSelf, _) if self_pair_blocker(&units[0]).is_some() => (
            Expect::Unjudged,
            self_pair_blocker(&units[0]).unwrap_or_default().into(),
        ),
        (true, Origin::GenSelf, _) => (
            Expect::Holds,
            "race-free on every sampled launch: self pair".into(),
        ),
        (true, _, Some(why)) => (Expect::Violated, why),
        (true, _, None) => (
            Expect::Unjudged,
            "race-free and equal on the samples".into(),
        ),
        (false, _, _) => (Expect::Unjudged, "no race on the samples".into()),
    }
}

/// Whether any global array either kernel writes ends up different.
fn outputs_differ(units: &[KernelUnit], a: &ConcreteState, b: &ConcreteState) -> bool {
    let written: BTreeSet<String> = units.iter().flat_map(|u| u.written_globals()).collect();
    written.iter().any(|arr| {
        let keys: BTreeSet<u64> = [a, b]
            .iter()
            .flat_map(|s| {
                s.arrays
                    .get(arr)
                    .into_iter()
                    .flat_map(|m| m.keys().copied())
            })
            .collect();
        keys.iter().any(|&i| a.read(arr, i) != b.read(arr, i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{inputs, KERNEL_CHECKS, MANY_SMALL, PROOF_HEAVY};

    #[test]
    fn every_corpus_input_has_an_oracle_entry() {
        for w in [PROOF_HEAVY, MANY_SMALL, KERNEL_CHECKS] {
            for input in inputs(w, 1).unwrap() {
                if input.origin == Origin::Corpus {
                    assert!(
                        corpus(&input.name).is_some(),
                        "{w}: no oracle entry for {}",
                        input.name
                    );
                }
            }
        }
        for (name, ..) in crate::serve::CORPUS_PAIRS {
            assert!(
                corpus(name).is_some(),
                "serve-mixed: no oracle entry for {name}"
            );
        }
    }

    #[test]
    fn wrongness_needs_a_contradiction() {
        assert!(is_wrong(Expect::Holds, Answer::Violated));
        assert!(is_wrong(Expect::Violated, Answer::Holds { sound: false }));
        assert!(!is_wrong(Expect::Holds, Answer::Undecided));
        assert!(!is_wrong(Expect::Unjudged, Answer::Violated));
        assert_eq!(
            Answer::from_wire("verified (sound)"),
            Answer::Holds { sound: true }
        );
        assert_eq!(
            Answer::from_wire("no bug found (under-approximate proof)"),
            Answer::Holds { sound: false }
        );
        assert_eq!(Answer::from_wire("bug: data race"), Answer::Violated);
        assert_eq!(Answer::from_wire("timeout (T.O)"), Answer::Undecided);
    }

    #[test]
    fn concrete_judge_finds_races_and_differences() {
        let racy = Task::Checks {
            src: "void k(int *out) { out[0] = tid.x; }".into(),
        };
        let cfg = crate::workloads::one_block(8);
        assert_eq!(
            judge_generated(&racy, &cfg, Origin::Gen, 1).0,
            Expect::Violated
        );
        let src = "void k(int *out, int *in) { out[tid.x] = in[tid.x]; }";
        let clean = Task::Equiv {
            src: src.into(),
            tgt: src.into(),
        };
        assert_eq!(
            judge_generated(&clean, &cfg, Origin::GenSelf, 1).0,
            Expect::Holds
        );
        // The known-defect shape stays unjudged.
        let twice =
            "void k(int *out, int *in) { out[tid.x] = 1; __syncthreads(); out[tid.x] = in[0]; }";
        let task = Task::Equiv {
            src: twice.into(),
            tgt: twice.into(),
        };
        assert_eq!(
            judge_generated(&task, &cfg, Origin::GenSelf, 1),
            (Expect::Unjudged, KNOWN_DEFECT.into())
        );
        let guarded = "void k(int *out, int *in, int p) { if (p == 3) out[0] = tid.x; }";
        let task = Task::Equiv {
            src: guarded.into(),
            tgt: guarded.into(),
        };
        assert_eq!(
            judge_generated(&task, &cfg, Origin::GenSelf, 1),
            (Expect::Unjudged, DATA_DEPENDENT.into())
        );
        let other = Task::Equiv {
            src: src.into(),
            tgt: "void k(int *out, int *in) { out[tid.x] = in[tid.x] + 1; }".into(),
        };
        assert_eq!(
            judge_generated(&other, &cfg, Origin::Gen, 1).0,
            Expect::Violated
        );
    }
}
