//! The benchmark's inputs: which kernel pairs or kernels each in-process
//! workload runs, built deterministically from the run's seed.
//!
//! Why each workload exists, and its final mix, is recorded in the README;
//! the comments here say only what the code cannot.

use crate::oracle;
use pug_cuda::ast::{BinOp, Expr, Stmt};
use pug_ir::{Extent, GpuConfig};
use pug_kernels as k;
use pug_testutil::{KernelGen, TestRng};

pub const PROOF_HEAVY: &str = "proof-heavy";
pub const MANY_SMALL: &str = "many-small";
pub const KERNEL_CHECKS: &str = "kernel-checks";
pub const SERVE_MIXED: &str = "serve-mixed";

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [PROOF_HEAVY, MANY_SMALL, KERNEL_CHECKS, SERVE_MIXED];

/// The percentile `latency_tail_ms` is taken at: the tail rule applied to
/// the samples a 20 s run with one caller had when the benchmark was first
/// calibrated. A fixed count, not the run's own, so a faster or slower
/// program is measured at the same percentile. serve-mixed reports p90,
/// the percentile its latency limit is set on.
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        PROOF_HEAVY => crate::stats::tail_percentile(58),
        MANY_SMALL | KERNEL_CHECKS => crate::stats::tail_percentile(5000),
        _ => Some(90.0),
    }
    .expect("at least 20 reference samples")
}

/// Closed-loop callers of an in-process workload. On a shared machine one
/// CPU can run a quarter slower than usual for tens of seconds at a time,
/// independently of the other; one caller measured whichever CPU it sat
/// on, two cover both.
pub const LOAD_THREADS: usize = 2;

/// What one job does with its source text.
#[derive(Clone, Debug)]
pub enum Task {
    /// Equivalence of two kernels through `run_resilient`.
    Equiv { src: String, tgt: String },
    /// Races, bank conflicts and coalescing of one kernel.
    Checks { src: String },
}

/// Where an input came from, which decides how the oracle judges it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A `pug-kernels` entry: judged from the oracle's table.
    Corpus,
    /// A `KernelGen` pair of one kernel with itself.
    GenSelf,
    /// Two different `KernelGen` kernels, or one generated kernel alone.
    Gen,
}

/// One distinct input of a workload.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub task: Task,
    pub cfg: GpuConfig,
    pub origin: Origin,
    /// Jobs per closed-loop round.
    pub weight: usize,
}

impl Input {
    /// The kernel sources this input loads, in job order.
    pub fn sources(&self) -> Vec<&str> {
        match &self.task {
            Task::Equiv { src, tgt } => vec![src, tgt],
            Task::Checks { src } => vec![src],
        }
    }
}

/// Equivalence pair of `pug-kernels` sources under the oracle-table name.
fn pair(name: &str, src: &str, tgt: &str, cfg: GpuConfig) -> Input {
    let task = Task::Equiv {
        src: src.to_string(),
        tgt: tgt.to_string(),
    };
    Input {
        name: name.to_string(),
        task,
        cfg,
        origin: Origin::Corpus,
        weight: 1,
    }
}

/// A symbolic 1-D block in a single-block grid. Generated kernels index by
/// `tid.x` only, so a symbolic grid would make almost every one of them
/// race across blocks; one block keeps race-free kernels in the mix.
pub fn one_block(bits: u32) -> GpuConfig {
    GpuConfig {
        bits,
        bdim: [Extent::Sym, Extent::Const(1), Extent::Const(1)],
        gdim: [Extent::Const(1), Extent::Const(1)],
    }
}

/// The 4-output pair of `examples/obligation_scaling.rs`: four
/// multiplier chains, so the only timed input that forks pool sessions.
const QUADS: &str = r#"
__global__ void quads(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * in[i];
        b[i] = in[i] * (in[i] + 1);
        c[i] = (in[i] + n) * (in[i] - n);
        d[i] = in[i] * in[i] * in[i];
    }
}
"#;

const QUADS_REWRITTEN: &str = r#"
__global__ void quads(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * in[i];
        b[i] = in[i] * in[i] + in[i];
        c[i] = in[i] * in[i] - n * n;
        d[i] = in[i] * (in[i] * in[i]);
    }
}
"#;

/// The distinct inputs of an in-process workload.
pub fn inputs(workload: &str, seed: u64) -> Option<Vec<Input>> {
    match workload {
        PROOF_HEAVY => Some(proof_heavy()),
        MANY_SMALL => Some(many_small(seed)),
        KERNEL_CHECKS => Some(kernel_checks(seed)),
        _ => None,
    }
}

/// The input a set-up answers: the workload's first input, a corpus input
/// of a few tens of ms that does not depend on the seed (long enough that
/// process start-up noise does not dominate `setup_s`).
pub fn probe_input(workload: &str) -> Option<Input> {
    let first = |v: Vec<Input>| v.into_iter().next();
    match workload {
        PROOF_HEAVY => first(proof_heavy()),
        MANY_SMALL => first(many_small_corpus()),
        KERNEL_CHECKS => first(kernel_check_corpus()),
        _ => None,
    }
}

fn proof_heavy() -> Vec<Input> {
    let b16 = k::reduction::safe_block_bound(16);
    vec![
        pair(
            "transpose/naive~optimized@5",
            k::transpose::NAIVE,
            k::transpose::OPTIMIZED,
            GpuConfig::symbolic_2d(5),
        ),
        pair(
            "scalar_product/self@8",
            k::scalar_product::KERNEL,
            k::scalar_product::KERNEL,
            GpuConfig::symbolic_1d(8),
        ),
        pair(
            "scalar_product/kernel~unconstrained@8",
            k::scalar_product::KERNEL,
            k::scalar_product::UNCONSTRAINED,
            GpuConfig::symbolic_1d(8),
        ),
        // Twice per round, so the tail (p75 at this run length) falls
        // inside the quads jobs rather than on a group boundary.
        Input {
            weight: 2,
            ..pair(
                "quads/original~rewritten@7",
                QUADS,
                QUADS_REWRITTEN,
                GpuConfig::symbolic_1d(7),
            )
        },
        pair(
            "reduction/v0~v1@16",
            &k::reduction::v0_bounded(b16),
            &k::reduction::v1_bounded(b16),
            GpuConfig::symbolic_1d(16),
        ),
    ]
}

/// Generated pairs per profile in many-small. Many, so that the cost mix
/// of a run hardly depends on which kernels its seed drew.
const GEN_PAIRS_PER_PROFILE: usize = 96;

/// How a generated pair is drawn. A raw draw is not paired with itself:
/// most raw draws race, and proving a racy kernel equal to itself cost
/// 30–500 ms on one draw in a few hundred, which moved a run's throughput
/// by up to half, while the oracle cannot judge such a pair.
#[derive(Clone, Copy)]
enum Draw {
    /// Two raw draws.
    Cross,
    /// A race-free, judgeable draw paired with itself.
    FreeSelf,
    /// Two race-free draws.
    FreeCross,
}

/// Draws tried for one race-free kernel before taking the last one.
const RACE_FREE_ATTEMPTS: usize = 400;

fn many_small_corpus() -> Vec<Input> {
    let b8 = k::reduction::safe_block_bound(8);
    let c1 = || GpuConfig::symbolic_1d(8);
    let c2 = || GpuConfig::symbolic_2d(5);
    vec![
        // The two slowest pairs run three times per round, so the tail
        // (p99) falls inside their jobs rather than on the boundary to the
        // next-slowest input.
        Input {
            weight: 3,
            ..pair(
                "transpose/naive~buggy_guard@5",
                k::transpose::NAIVE,
                k::transpose::BUGGY_GUARD,
                c2(),
            )
        },
        Input {
            weight: 3,
            ..pair(
                "transpose/naive~optimized_unconstrained@5",
                k::transpose::NAIVE,
                k::transpose::OPTIMIZED_UNCONSTRAINED,
                c2(),
            )
        },
        pair(
            "vector_add/self@8",
            k::vector_add::KERNEL,
            k::vector_add::KERNEL,
            c1(),
        ),
        pair(
            "vector_add/kernel~buggy@8",
            k::vector_add::KERNEL,
            k::vector_add::BUGGY,
            c1(),
        ),
        pair(
            "transpose/naive~buggy_addr@5",
            k::transpose::NAIVE,
            k::transpose::BUGGY_ADDR,
            c2(),
        ),
        pair(
            "reduction/v0~buggy_index@8",
            &k::reduction::v0_bounded(b8),
            &k::reduction::buggy_index_bounded(b8),
            c1(),
        ),
        pair(
            "reduction/v0~buggy_guard@8",
            &k::reduction::v0_bounded(b8),
            &k::reduction::buggy_guard_bounded(b8),
            c1(),
        ),
        pair(
            "grid_stride/original~reassoc@8",
            k::stride::GRID_STRIDE,
            k::stride::GRID_STRIDE_REASSOC,
            c1(),
        ),
        pair(
            "bitonic/self@8",
            k::bitonic::KERNEL,
            k::bitonic::KERNEL,
            c1(),
        ),
        pair(
            "matmul/naive~tiled@8",
            k::matmul::NAIVE,
            k::matmul::TILED,
            GpuConfig::symbolic_2d(8),
        ),
    ]
}

fn many_small(seed: u64) -> Vec<Input> {
    let mut v = many_small_corpus();
    type Gen = fn(u64) -> String;
    use Draw::{Cross, FreeCross, FreeSelf};
    // (name, generator, size cap, the kinds of pair drawn in turn).
    // Race-free extended self pairs are left out: they are full proofs
    // costing up to hundreds of ms, the proof-heavy workload's business,
    // and one of them would swing a run. Multi-output kernels are longer
    // for the same work (four chains) and practically never race-free.
    let profiles: [(&str, Gen, usize, &[Draw]); 3] = [
        (
            "basic",
            basic,
            MAX_SMALL_SOURCE,
            &[Cross, FreeSelf, FreeCross],
        ),
        ("extended", extended, MAX_SMALL_SOURCE, &[Cross, FreeCross]),
        (
            "multi4",
            |s| KernelGen::extended(s).multi_output_kernel(4),
            MAX_SMALL_SOURCE * 3 / 2,
            &[Cross],
        ),
    ];
    for (p, &(profile, gen, cap, kinds)) in profiles.iter().enumerate() {
        // Raw draws are mostly racy (outside the method's domain, so the
        // oracle leaves them unjudged); race-free draws give judged self
        // proofs and judged cross pairs.
        let mut draws = small_draws(seed, p as u64, gen, cap);
        let race_free = |draws: &mut dyn Iterator<Item = u64>| {
            let mut last = 0;
            for s in draws.take(RACE_FREE_ATTEMPTS) {
                last = s;
                if oracle::judgeable_self(&gen(s), &one_block(8), s) {
                    break;
                }
            }
            last
        };
        for i in 0..GEN_PAIRS_PER_PROFILE {
            let (kind, a, b) = match kinds[i % kinds.len()] {
                Cross => ("cross", draws.next().unwrap_or(0), draws.next()),
                FreeSelf => ("free-self", race_free(&mut draws), None),
                FreeCross => (
                    "free-cross",
                    race_free(&mut draws),
                    Some(race_free(&mut draws)),
                ),
            };
            let (tgt, origin) = match b {
                None => (gen(a), Origin::GenSelf),
                Some(b) => (gen(b), Origin::Gen),
            };
            v.push(Input {
                name: format!("gen/{profile}/{kind}/{a}"),
                task: Task::Equiv { src: gen(a), tgt },
                cfg: one_block(8),
                origin,
                weight: 1,
            });
        }
    }
    v
}

/// Generated kernels per sweep in kernel-checks.
const GEN_CHECK_KERNELS: u64 = 400;

fn kernel_check_corpus() -> Vec<Input> {
    let mut v: Vec<Input> = k::all_kernels()
        .into_iter()
        .map(|e| {
            let cfg = if e.name.starts_with("transpose") {
                GpuConfig::symbolic_2d(5)
            } else if e.name.starts_with("matmul") {
                GpuConfig::symbolic_2d(8)
            } else {
                GpuConfig::symbolic_1d(8)
            };
            let bits = cfg.bits;
            // The slowest checks run several times per round, so the tail
            // (p99) falls inside the slowest kernel's jobs.
            let weight = match e.name {
                "transpose_optimized" => 4,
                "transpose_naive" => 2,
                _ => 1,
            };
            Input {
                name: format!("race/{}@{bits}", e.name),
                task: Task::Checks {
                    src: e.source.to_string(),
                },
                cfg,
                origin: Origin::Corpus,
                weight,
            }
        })
        .collect();
    let probe = v
        .iter()
        .position(|i| i.name == "race/transpose_naive@5")
        .expect("corpus has transpose_naive");
    v.swap(0, probe);
    v
}

fn kernel_checks(seed: u64) -> Vec<Input> {
    let mut v = kernel_check_corpus();
    // Half raw draws (nearly all racy: bugs), half drawn race-free on the
    // sampled launches (the checker has to prove them).
    let mut draws = small_draws(seed, 7, extended, MAX_SMALL_SOURCE);
    for i in 0..GEN_CHECK_KERNELS {
        let mut s = draws.next().unwrap_or(0);
        if i % 2 == 1 {
            for _ in 0..RACE_FREE_ATTEMPTS {
                if oracle::race_free_on_samples(&extended(s), &one_block(8), s) {
                    break;
                }
                s = draws.next().unwrap_or(0);
            }
        }
        v.push(Input {
            name: format!("gen/extended/race/{s}"),
            task: Task::Checks { src: extended(s) },
            cfg: one_block(8),
            origin: Origin::Gen,
            weight: 1,
        });
    }
    v
}

/// Largest generated kernel source, in bytes, the generated draws accept.
/// Every generated job above 15 ms seen while calibrating had a longer
/// source; those few jobs set a run's peak memory and swung its
/// throughput, and the workloads that draw generated kernels are about
/// small jobs.
pub const MAX_SMALL_SOURCE: usize = 200;

pub fn basic(seed: u64) -> String {
    KernelGen::basic(seed).kernel()
}

pub fn extended(seed: u64) -> String {
    KernelGen::extended(seed).kernel()
}

/// Seeds of stream `stream` whose kernel under `gen` is at most `cap`
/// bytes long and [`linear`].
pub fn small_draws(
    seed: u64,
    stream: u64,
    gen: fn(u64) -> String,
    cap: usize,
) -> impl Iterator<Item = u64> {
    (0u64..)
        .map(move |n| gen_seed(seed, stream, n))
        .filter(move |&s| {
            let src = gen(s);
            src.len() <= cap && linear(&src)
        })
}

/// Whether every `*` in `src` has a constant operand and every `/` and `%`
/// a constant divisor. A product of two symbolic values, or a symbolic
/// divisor (`4 % tid.x`), bit-blasts into a multiplier or divider circuit
/// whose proof costs hundreds of ms even in a tiny kernel: the proof-heavy
/// workload's business, and one such job swung a whole many-small run.
pub fn linear(src: &str) -> bool {
    fn constant(e: &Expr) -> bool {
        match e {
            Expr::Int(_) | Expr::Bool(_) => true,
            Expr::Unary { arg, .. } => constant(arg),
            Expr::Binary { lhs, rhs, .. } => constant(lhs) && constant(rhs),
            _ => false,
        }
    }
    fn expr(e: &Expr) -> bool {
        match e {
            Expr::Binary { op, lhs, rhs } => {
                let nonlinear = match op {
                    BinOp::Mul => !constant(lhs) && !constant(rhs),
                    BinOp::Div | BinOp::Rem => !constant(rhs),
                    _ => false,
                };
                !nonlinear && expr(lhs) && expr(rhs)
            }
            Expr::Unary { arg, .. } => expr(arg),
            Expr::Index { indices, .. } => indices.iter().all(expr),
            Expr::Ternary { cond, then, els } => expr(cond) && expr(then) && expr(els),
            Expr::Call { args, .. } => args.iter().all(expr),
            Expr::Int(_) | Expr::Bool(_) | Expr::Ident(_) | Expr::Builtin(_) => true,
        }
    }
    fn stmts(body: &[Stmt]) -> bool {
        body.iter().all(|s| match s {
            Stmt::Assign { lhs, rhs, .. } => lhs.indices.iter().all(expr) && expr(rhs),
            Stmt::Decl { dims, init, .. } => {
                dims.iter().all(expr) && init.as_ref().is_none_or(expr)
            }
            Stmt::If {
                cond, then, els, ..
            } => expr(cond) && stmts(then) && stmts(els),
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                stmts(std::slice::from_ref(init))
                    && expr(cond)
                    && stmts(std::slice::from_ref(update))
                    && stmts(body)
            }
            Stmt::While { cond, body, .. } => expr(cond) && stmts(body),
            _ => true,
        })
    }
    pug_cuda::parse_kernel(src).is_ok_and(|k| stmts(&k.body))
}

/// Generator seed of the `i`-th kernel of stream `stream` for run `seed`.
pub fn gen_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let key =
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ i;
    TestRng::seed_from_u64(key).gen_u64() >> 16
}

/// One closed-loop round: every input `weight` times, in a seeded order.
pub fn round(rng: &mut TestRng, inputs: &[Input]) -> Vec<usize> {
    shuffled(
        rng,
        inputs
            .iter()
            .enumerate()
            .flat_map(|(i, x)| std::iter::repeat_n(i, x.weight))
            .collect(),
    )
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffled(rng: &mut TestRng, mut order: Vec<usize>) -> Vec<usize> {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in [PROOF_HEAVY, MANY_SMALL, KERNEL_CHECKS] {
            let a = inputs(w, 3).unwrap();
            let b = inputs(w, 3).unwrap();
            let names = |v: &[Input]| v.iter().map(|i| i.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(&a), names(&b), "{w}");
            assert_eq!(
                a[0].name,
                probe_input(w).unwrap().name,
                "{w}: the set-up answers the first input"
            );
        }
        let names = |s| {
            inputs(MANY_SMALL, s)
                .unwrap()
                .iter()
                .map(|i| i.name.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(names(3), names(4), "generated pairs follow the seed");
        assert!(inputs(SERVE_MIXED, 3).is_none());
    }

    #[test]
    fn every_input_loads() {
        for w in [PROOF_HEAVY, MANY_SMALL, KERNEL_CHECKS] {
            for input in inputs(w, 11).unwrap() {
                for src in input.sources() {
                    pugpara::KernelUnit::load(src)
                        .unwrap_or_else(|e| panic!("{}: {e}", input.name));
                }
            }
        }
    }

    #[test]
    fn linear_rejects_products_of_symbolic_values() {
        assert!(linear("void k(int *out, int *in, int p) { out[tid.x] = (in[0] * 3) + (p / 5) + (tid.x % 7); }"));
        assert!(!linear(
            "void k(int *out, int *in, int p) { out[tid.x] = in[0] * p; }"
        ));
        assert!(!linear(
            "void k(int *out, int *in, int p) { if ((p % tid.x) > 1) { out[0] = 1; } }"
        ));
        assert!(!linear(
            "void k(int *out, int *in, int p) { out[tid.x] = (4 % tid.x); }"
        ));
        assert!(linear(
            "void k(int *out, int *in, int p) { out[tid.x] = (4 * tid.x); }"
        ));
    }

    #[test]
    fn tail_percentile_is_fixed_per_workload() {
        let p: Vec<f64> = WORKLOADS.iter().map(|w| tail_percentile(w)).collect();
        assert_eq!(p, [75.0, 99.0, 99.0, 90.0]);
    }

    #[test]
    fn round_repeats_each_input_by_weight() {
        let mut rng = TestRng::seed_from_u64(9);
        let inputs = proof_heavy();
        let mut o = round(&mut rng, &inputs);
        o.sort();
        assert_eq!(o, [0, 1, 2, 3, 3, 4]);
    }
}
