//! Grid-stride copy — a loop whose stride is the (symbolic) block size.
//!
//! The loop header `for (base = 0; base < blockDim.x * 4; base += blockDim.x)`
//! has a *configuration-dependent* step, so its iteration space is not a
//! constant-stride progression (`LoopSpace::LinearUpSym`). Membership in it
//! is the quantifier-free divisibility constraint
//! `(base − 0) mod blockDim.x == 0`, which the solver checks in modular
//! arithmetic, and the `Param` rung proves the pair equivalent for *every*
//! block size.
//!
//! `blockDim.x <= 16` keeps `blockDim.x * 4` (max 64) and every address
//! (max 3·16+15 = 63) inside the smallest (8-bit) model width, as
//! elsewhere in the corpus. The `__syncthreads()` in the loop body makes
//! it a *barrier loop* — the segment splitter's aligned-loop path, the
//! only one compared header-to-header (barrier-free loops are unrolled
//! and need constant trip counts).
//!
//! [`PARAM_RACE`] is the seeded *potential*-race kernel: the racy write
//! sits in a barrier loop bounded by the scalar parameter `p`, so the
//! race model cannot be replayed concretely (the interpreter's
//! barrier-loop unrolling needs a configuration-only bound) and the race
//! classifies as potential, never provable.

/// Grid-stride copy, canonical operand order `base + threadIdx.x`.
pub const GRID_STRIDE: &str = r#"
__global__ void strideCopy(int *out, int *in) {
    requires(blockDim.x >= 1 && blockDim.x <= 16);
    requires(blockDim.y == 1 && blockDim.z == 1);
    requires(gridDim.x == 1 && gridDim.y == 1);
    for (unsigned int base = 0; base < blockDim.x * 4; base += blockDim.x) {
        out[base + threadIdx.x] = in[base + threadIdx.x];
        __syncthreads();
    }
}
"#;

/// The same copy with reassociated addressing (`threadIdx.x + base`) and a
/// temporary — semantically identical, syntactically distinct, so the
/// equivalence proof has real obligations to discharge.
pub const GRID_STRIDE_REASSOC: &str = r#"
__global__ void strideCopyReassoc(int *out, int *in) {
    requires(blockDim.x >= 1 && blockDim.x <= 16);
    requires(blockDim.y == 1 && blockDim.z == 1);
    requires(gridDim.x == 1 && gridDim.y == 1);
    for (unsigned int base = 0; base < blockDim.x * 4; base += blockDim.x) {
        int v = in[threadIdx.x + base];
        out[threadIdx.x + base] = v;
        __syncthreads();
    }
}
"#;

/// Seeded bug: every thread writes `out[i]` in a barrier loop bounded by
/// the scalar parameter `p` — a real write-write race, but one whose
/// witness schedule cannot be validated by concrete replay (the
/// interpreter cannot unroll a barrier loop with a non-configuration
/// bound), so it must classify as a *potential* race.
pub const PARAM_RACE: &str = r#"
__global__ void paramRace(int *out, int p) {
    requires(blockDim.x >= 2 && blockDim.x <= 16);
    requires(blockDim.y == 1 && blockDim.z == 1);
    requires(gridDim.x == 1 && gridDim.y == 1);
    requires(p >= 1 && p <= 4);
    for (unsigned int i = 0; i < p; i += 1) {
        out[i] = threadIdx.x;
        __syncthreads();
    }
}
"#;
