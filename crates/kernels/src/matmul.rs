//! Matrix multiplication — the CUDA Programming Guide kernel the paper
//! cites for arbitrarily-sized blocks (\[8\], §IV-E "Symmetry Reduction").

/// Naive matmul: every thread computes one output element from global
/// memory. `wA` is the shared inner dimension (A is hA×wA, B is wA×wB).
pub const NAIVE: &str = r#"
__global__ void matMulNaive(int *C, int *A, int *B, int wA, int wB) {
    requires(wA > 0 && wA <= 8 && wB > 0 && wB <= 8);
    requires(blockDim.z == 1);
    requires((gridDim.x * blockDim.x) / blockDim.x == gridDim.x);
    requires((gridDim.y * blockDim.y) / blockDim.y == gridDim.y);
    requires(gridDim.x * blockDim.x <= 8 && gridDim.y * blockDim.y <= 8);
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    int col = blockIdx.x * blockDim.x + threadIdx.x;

    int acc = 0;
    for (int k = 0; k < wA; k += 1) {
        acc += A[row * wA + k] * B[k * wB + col];
    }
    C[row * wB + col] = acc;
}
"#;

/// Tiled matmul: one shared-memory tile per block and a barrier-separated
/// accumulation loop. The tile loop bound depends on `wA`, so the
/// parameterized path needs concretization of `wA` (the "+C." flag), as the
/// paper does for the loop-bound-dependent kernels.
pub const TILED: &str = r#"
__global__ void matMulTiled(int *C, int *A, int *B, int wA, int wB) {
    requires(wA > 0 && wA <= 8 && wB > 0 && wB <= 8);
    requires(blockDim.z == 1);
    requires((gridDim.x * blockDim.x) / blockDim.x == gridDim.x);
    requires((gridDim.y * blockDim.y) / blockDim.y == gridDim.y);
    requires(gridDim.x * blockDim.x <= 8 && gridDim.y * blockDim.y <= 8);
    requires(blockDim.x == blockDim.y);
    __shared__ int As[blockDim.y][blockDim.x];
    __shared__ int Bs[blockDim.y][blockDim.x];

    int row = blockIdx.y * blockDim.y + threadIdx.y;
    int col = blockIdx.x * blockDim.x + threadIdx.x;

    int acc = 0;
    for (int m = 0; m < wA / blockDim.x; m += 1) {
        As[threadIdx.y][threadIdx.x] = A[row * wA + (m * blockDim.x + threadIdx.x)];
        Bs[threadIdx.y][threadIdx.x] = B[(m * blockDim.x + threadIdx.y) * wB + col];
        __syncthreads();
        for (int k = 0; k < blockDim.x; k += 1) {
            acc += As[threadIdx.y][k] * Bs[k][threadIdx.x];
        }
        __syncthreads();
    }
    C[row * wB + col] = acc;
}
"#;
