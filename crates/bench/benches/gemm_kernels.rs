//! The GEMM kernel gate: two assertions about the single-threaded kernels,
//! nothing printed beyond them and nothing written. How fast the forwards
//! are is `benchmark/`'s to say (`nn.forward_m1/m64/m256_us`).
//!
//! 1. The runtime-dispatched SIMD kernel is never slower than the scalar
//!    fallback on 256×256×256 — a blocked/packed SIMD path losing to its own
//!    fallback on the shape it is tiled for is a kernel regression, not
//!    runner noise.
//! 2. At m = 1 the pack-free GEMV path is never slower (5 % headroom for
//!    timer noise) than the blocked/packed path — the whole justification of
//!    routing `m <= GEMV_MAX_M` to it.
//!
//! Every product runs single-threaded on a forced kernel and core: dividing
//! both sides by the same thread count would only add noise to a per-core
//! ratio.

use lmkg_nn::gemm::{self, Kernel};
use lmkg_nn::tensor::{matmul_forced, MatOp, MatPath};
use lmkg_nn::test_support::seeded_matrix;
use lmkg_nn::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Best of `REPS` samples of `inner` back-to-back calls, in seconds per
/// call: the minimum is the cleanest estimate of achievable time on a
/// shared runner.
fn best_of(inner: usize, f: impl Fn() -> Matrix) -> f64 {
    const REPS: usize = 5;
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let (a, b) = (seeded_matrix(256, 256, 1), seeded_matrix(256, 256, 2));
    let blocked = |kernel| best_of(1, || matmul_forced(kernel, MatOp::NN, MatPath::Blocked, &a, &b));
    let scalar_s = blocked(Kernel::Scalar);
    match gemm::available_kernels().iter().find(|&&k| k != Kernel::Scalar) {
        Some(&simd) => {
            let speedup = scalar_s / blocked(simd);
            println!("gemm_kernels: {} is {speedup:.2}x scalar on 256x256x256", simd.name());
            assert!(
                speedup >= 1.0,
                "SIMD GEMM slower than scalar on 256x256x256 ({speedup:.2}x) — kernel regression"
            );
        }
        None => println!("gemm_kernels: no SIMD kernel on this host, scalar only"),
    }

    // The serving dense layer (512→128) and a square mid-size layer.
    for (k, n) in [(512, 128), (256, 256)] {
        let (a, b) = (seeded_matrix(1, k, 1), seeded_matrix(k, n, 2));
        for &kernel in gemm::available_kernels() {
            let gemv_s = best_of(32, || matmul_forced(kernel, MatOp::NN, MatPath::Gemv, &a, &b));
            let blocked_s = best_of(32, || matmul_forced(kernel, MatOp::NN, MatPath::Blocked, &a, &b));
            println!(
                "gemm_kernels: 1x{k}x{n} [{}] gemv is {:.2}x blocked",
                kernel.name(),
                blocked_s / gemv_s
            );
            assert!(
                gemv_s <= blocked_s * 1.05,
                "GEMV slower than the blocked path at 1x{k}x{n} [{}]: {:.4} ms > {:.4} ms — small-M routing regression",
                kernel.name(),
                gemv_s * 1e3,
                blocked_s * 1e3
            );
        }
    }
}
