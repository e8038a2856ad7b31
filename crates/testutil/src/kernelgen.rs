//! Random CUDA-subset kernel generation for differential and property
//! testing.
//!
//! Promoted out of the workspace differential suite so every layer can
//! fuzz against the same corpus. Two profiles:
//!
//! * [`KernelGen::basic`] — the original generator: straight-line integer
//!   statements over `tid.x`, the scalar `p`, reads of `in`, writes of
//!   `out`, if/else nesting, and an optional second barrier round. This is
//!   the §III differential-testing workhorse (kernels stay cheap to
//!   interpret concretely).
//! * [`KernelGen::extended`] — adds the constructs the §IV *parameterized*
//!   encoding is built around: `__shared__` arrays written per-thread and
//!   read back across a `__syncthreads()` (conditional-assignment chains
//!   across barrier intervals), thread-guarded global writes (the
//!   `p(t) ? v[e(t)] := w(t)` shape), and extra barrier rounds (multi-BI
//!   instantiation chains).
//!
//! Generated source always stays inside the supported CUDA subset:
//! callers may `KernelUnit::load` every output. Determinism is absolute —
//! equal seed and profile give equal source, so any failure reproduces
//! from the printed seed.

use crate::TestRng;

/// Which language constructs the generator may emit.
#[derive(Clone, Copy, Debug)]
pub struct GenProfile {
    /// Declare `__shared__ int s[bdim.x]`, write it per-thread, and read
    /// it back after a barrier.
    pub shared_arrays: bool,
    /// Emit thread-guarded global writes (`if (tid-guard) out[..] = ..`).
    pub guarded_writes: bool,
    /// Allow up to two extra `__syncthreads()` rounds rewriting `out`.
    pub extra_barrier_rounds: bool,
}

impl GenProfile {
    /// The original differential-testing subset.
    pub fn basic() -> GenProfile {
        GenProfile { shared_arrays: false, guarded_writes: false, extra_barrier_rounds: false }
    }

    /// Everything on: fuzzes the §IV parameterized encoding too.
    pub fn extended() -> GenProfile {
        GenProfile { shared_arrays: true, guarded_writes: true, extra_barrier_rounds: true }
    }
}

/// A tiny random kernel generator over the supported CUDA subset.
#[derive(Clone, Debug)]
pub struct KernelGen {
    rng: TestRng,
    profile: GenProfile,
}

impl KernelGen {
    pub fn new(seed: u64, profile: GenProfile) -> KernelGen {
        KernelGen { rng: TestRng::seed_from_u64(seed), profile }
    }

    /// Original-profile generator (bit-compatible stream with the old
    /// inline `Gen` of the differential suite).
    pub fn basic(seed: u64) -> KernelGen {
        KernelGen::new(seed, GenProfile::basic())
    }

    /// Extended-profile generator: barriers, shared arrays, guarded writes.
    pub fn extended(seed: u64) -> KernelGen {
        KernelGen::new(seed, GenProfile::extended())
    }

    /// The underlying PRNG, for tests that sample configurations and
    /// inputs from the same seeded stream as the kernel itself.
    pub fn rng_mut(&mut self) -> &mut TestRng {
        &mut self.rng
    }

    /// Integer expressions over `tid.x`, the scalar `p`, reads of `in`,
    /// and small constants.
    pub fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return match self.rng.gen_range(0..4) {
                0 => "tid.x".into(),
                1 => "p".into(),
                2 => format!("{}", self.rng.gen_range(0..8)),
                _ => format!("in[{}]", self.idx(0)),
            };
        }
        let a = self.expr(depth - 1);
        let b = self.expr(depth - 1);
        let op = ["+", "-", "*", "&", "|", "^", "%", "/"][self.rng.gen_range(0..8usize)];
        format!("({a} {op} {b})")
    }

    /// Small index expressions (kept in range by masking).
    pub fn idx(&mut self, depth: usize) -> String {
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => "tid.x".into(),
                1 => format!("{}", self.rng.gen_range(0..8)),
                _ => "(tid.x + 1)".into(),
            };
        }
        format!("(({}) & 7)", self.expr(depth - 1))
    }

    /// Comparison conditions.
    pub fn cond(&mut self) -> String {
        let a = self.expr(1);
        let b = self.expr(1);
        let op = ["<", "<=", "==", "!=", ">", ">="][self.rng.gen_range(0..6usize)];
        format!("({a}) {op} ({b})")
    }

    /// One statement; `depth` bounds if/else nesting.
    pub fn stmt(&mut self, depth: usize) -> String {
        self.stmt_for("out", depth)
    }

    /// One statement writing `dst`; same choice stream as [`Self::stmt`],
    /// so `stmt_for("out", d)` is bit-compatible with the original
    /// generator.
    fn stmt_for(&mut self, dst: &str, depth: usize) -> String {
        // The guarded-write variant is sampled *first* (extended profile
        // only) so the basic profile's choice stream stays identical to
        // the original generator.
        if self.profile.guarded_writes && self.rng.gen_bool(0.2) {
            // The paper's conditional-assignment shape: a thread-dependent
            // guard over a per-thread write.
            let bound = self.rng.gen_range(1..8);
            return format!(
                "if ((tid.x % 8) < {bound}) {dst}[{}] = {};",
                self.idx(1),
                self.expr(2)
            );
        }
        match self.rng.gen_range(0..6usize) {
            0 => format!("{dst}[{}] = {};", self.idx(1), self.expr(2)),
            1 => format!("int l{} = {};", self.rng.gen_range(0..3), self.expr(2)),
            2 if depth > 0 => {
                format!(
                    "if ({}) {{ {} }} else {{ {} }}",
                    self.cond(),
                    self.stmt_for(dst, depth - 1),
                    self.stmt_for(dst, depth - 1)
                )
            }
            3 => format!("{dst}[{}] += {};", self.idx(1), self.expr(1)),
            4 => {
                let v = self.rng.gen_range(0..3);
                format!("int l{v} = {}; {dst}[{}] = l{v};", self.expr(1), self.idx(1))
            }
            _ => format!("{dst}[{}] = in[{}];", self.idx(1), self.idx(1)),
        }
    }

    /// A complete kernel over `(int *out, int *in, int p)`.
    pub fn kernel(&mut self) -> String {
        let n = self.rng.gen_range(1..5);
        let body: Vec<String> = (0..n).map(|_| self.stmt(2)).collect();
        let barrier = if self.rng.gen_bool(0.4) {
            // a second round reading what the first wrote
            format!(
                "__syncthreads();\nout[{}] = out[{}] + 1;",
                self.idx(0),
                self.idx(0)
            )
        } else {
            String::new()
        };

        let mut decls = String::new();
        let mut tail = String::new();
        if self.profile.shared_arrays && self.rng.gen_bool(0.7) {
            // Per-thread write, barrier, then a read that is always
            // covered: every thread wrote `s[tid.x]`, and thread 0 wrote
            // `s[0]`. This is the canonical one-CA barrier interval of
            // §IV, so the parameterized resolver must chain through it.
            decls.push_str("__shared__ int s[bdim.x];\n");
            let val = self.expr(1);
            let read = if self.rng.gen_bool(0.5) { "s[tid.x]" } else { "s[0]" };
            tail.push_str(&format!(
                "s[tid.x] = {val};\n__syncthreads();\nout[{}] = {read};\n",
                self.idx(0)
            ));
        }
        if self.profile.extra_barrier_rounds {
            for _ in 0..self.rng.gen_range(0..3u32) {
                // Additional barrier intervals: the §IV-C multi-BI
                // backward-instantiation chains get real depth.
                tail.push_str(&format!(
                    "__syncthreads();\nout[{}] = out[{}] ^ {};\n",
                    self.idx(0),
                    self.idx(0),
                    self.expr(1)
                ));
            }
        }
        format!(
            "void k(int *out, int *in, int p) {{\n{decls}{}\n{barrier}\n{tail}}}",
            body.join("\n")
        )
    }

    /// A kernel over `arrays` independent output arrays `o0..o{k-1}` —
    /// one obligation chain per array, so the per-array obligation loop
    /// runs more than once. Statements come from the same
    /// grammar as [`Self::kernel`] (profile constructs included), just
    /// re-targeted per array; determinism per (seed, profile, arrays) is
    /// absolute.
    pub fn multi_output_kernel(&mut self, arrays: usize) -> String {
        let arrays = arrays.max(1);
        let params: String = (0..arrays).map(|a| format!("int *o{a}, ")).collect();
        let mut body = String::new();
        for a in 0..arrays {
            let dst = format!("o{a}");
            // Guaranteed write first — grammar statements may be pure
            // declarations, and an array that is never written yields no
            // obligation chain at all.
            body.push_str(&format!("{dst}[{}] = {};\n", self.idx(1), self.expr(2)));
            for _ in 0..self.rng.gen_range(0..2u32) {
                body.push_str(&self.stmt_for(&dst, 1));
                body.push('\n');
            }
        }
        format!("void k({params}int *in, int p) {{\n{body}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_kernels() {
        for seed in 0..20 {
            assert_eq!(KernelGen::basic(seed).kernel(), KernelGen::basic(seed).kernel());
            assert_eq!(KernelGen::extended(seed).kernel(), KernelGen::extended(seed).kernel());
        }
    }

    #[test]
    fn basic_profile_never_emits_extended_constructs() {
        for seed in 0..50 {
            let src = KernelGen::basic(seed).kernel();
            assert!(!src.contains("__shared__"), "seed {seed}:\n{src}");
            assert!(!src.contains("% 8)"), "seed {seed}:\n{src}");
        }
    }

    #[test]
    fn multi_output_kernels_write_every_array() {
        for seed in 0..30 {
            let src = KernelGen::extended(seed).multi_output_kernel(4);
            for a in 0..4 {
                assert!(src.contains(&format!("int *o{a}, ")), "seed {seed}:\n{src}");
                assert!(src.contains(&format!("o{a}[")), "seed {seed}: o{a} never written\n{src}");
            }
            assert_eq!(
                src,
                KernelGen::extended(seed).multi_output_kernel(4),
                "seed {seed} not deterministic"
            );
        }
    }

    #[test]
    fn extended_profile_reaches_all_constructs() {
        let (mut shared, mut guarded, mut multi_barrier) = (0, 0, 0);
        for seed in 0..50 {
            let src = KernelGen::extended(seed).kernel();
            if src.contains("__shared__") {
                shared += 1;
            }
            if src.contains("% 8)") {
                guarded += 1;
            }
            if src.matches("__syncthreads()").count() >= 2 {
                multi_barrier += 1;
            }
        }
        assert!(shared > 10, "shared arrays in {shared}/50");
        assert!(guarded > 5, "guarded writes in {guarded}/50");
        assert!(multi_barrier > 5, "multi-BI kernels in {multi_barrier}/50");
    }
}
