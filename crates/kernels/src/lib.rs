//! # pug-kernels — the evaluation corpus
//!
//! Re-implementations of the CUDA SDK 2.0 kernels the paper evaluates on
//! (§II, §V), plus seeded-bug variants for Table III and the
//! hidden-assumption experiments:
//!
//! * **Transpose** — the naive and optimized (coalesced, padded shared
//!   memory) kernels printed verbatim in §II, with address/guard-bug
//!   variants and a non-`requires`d variant exposing the square-block
//!   assumption (§IV-B).
//! * **Reduction** — modulo-arithmetic v0 and strided v1 (the §IV-E pair),
//!   the sequential-addressing v2, and buggy variants.
//! * **Scan**, **Scalar product**, **Matrix multiply**, **Bitonic sort**,
//!   **Vector add** — the remaining kernels named by the paper (GKLEE's
//!   BitonicSort blow-up example, the ACCN power-of-two assumption of the
//!   scalar-product kernel, the SDK matrix-multiply of \[8\]).
//!
//! Each kernel is a `&str` of CUDA C source accepted by `pug-cuda`.
//! `requires(...)` lines encode the validity assumptions the paper
//! discusses ("valid configurations"): non-degenerate sizes, no index
//! overflow at the model's bit width, square blocks where the optimization
//! demands it.

pub mod bitonic;
pub mod matmul;
pub mod reduction;
pub mod scalar_product;
pub mod scan;
pub mod stride;
pub mod transpose;
pub mod vector_add;

/// A corpus entry: name, source, and whether it is a seeded-bug variant.
#[derive(Clone, Copy, Debug)]
pub struct CorpusEntry {
    pub name: &'static str,
    pub source: &'static str,
    pub buggy: bool,
}

/// Every kernel in the corpus (for parser/typechecker sweep tests).
pub fn all_kernels() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry { name: "transpose_naive", source: transpose::NAIVE, buggy: false },
        CorpusEntry { name: "transpose_optimized", source: transpose::OPTIMIZED, buggy: false },
        CorpusEntry {
            name: "transpose_optimized_unconstrained",
            source: transpose::OPTIMIZED_UNCONSTRAINED,
            buggy: false,
        },
        CorpusEntry { name: "transpose_buggy_addr", source: transpose::BUGGY_ADDR, buggy: true },
        CorpusEntry { name: "transpose_buggy_guard", source: transpose::BUGGY_GUARD, buggy: true },
        CorpusEntry { name: "reduction_v0", source: reduction::V0, buggy: false },
        CorpusEntry { name: "reduction_v1", source: reduction::V1, buggy: false },
        CorpusEntry { name: "reduction_v2", source: reduction::V2, buggy: false },
        CorpusEntry { name: "reduction_buggy_index", source: reduction::BUGGY_INDEX, buggy: true },
        CorpusEntry { name: "reduction_buggy_guard", source: reduction::BUGGY_GUARD, buggy: true },
        CorpusEntry { name: "scan_naive", source: scan::NAIVE, buggy: false },
        CorpusEntry { name: "scalar_product", source: scalar_product::KERNEL, buggy: false },
        CorpusEntry { name: "matmul_naive", source: matmul::NAIVE, buggy: false },
        CorpusEntry { name: "matmul_tiled", source: matmul::TILED, buggy: false },
        CorpusEntry { name: "bitonic_sort", source: bitonic::KERNEL, buggy: false },
        CorpusEntry { name: "grid_stride", source: stride::GRID_STRIDE, buggy: false },
        CorpusEntry {
            name: "grid_stride_reassoc",
            source: stride::GRID_STRIDE_REASSOC,
            buggy: false,
        },
        CorpusEntry { name: "param_race", source: stride::PARAM_RACE, buggy: true },
        CorpusEntry { name: "vector_add", source: vector_add::KERNEL, buggy: false },
        CorpusEntry { name: "vector_add_buggy", source: vector_add::BUGGY, buggy: true },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_corpus_parses_and_typechecks() {
        for e in all_kernels() {
            let kernels = pug_cuda::parse_program(e.source)
                .unwrap_or_else(|err| panic!("{} fails to parse: {err}", e.name));
            for k in &kernels {
                pug_cuda::check_kernel(k)
                    .unwrap_or_else(|err| panic!("{} fails to type-check: {err}", e.name));
            }
        }
    }

    #[test]
    fn corpus_has_bug_pairs() {
        let entries = all_kernels();
        assert!(entries.iter().filter(|e| e.buggy).count() >= 4);
        assert!(entries.len() >= 15);
    }
}
