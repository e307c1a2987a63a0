//! Pack-free small-`M` kernel: the serving fast path.
//!
//! The blocked core in [`crate::gemm`] is tuned for large batches — it
//! copies both operands into cache-tiled strips before the microkernel
//! touches them. At serving shapes (`M ≤ 8` query rows against a frozen
//! weight matrix) that packing traffic dominates: the whole product is one
//! pass over `B`, so copying `B` first doubles the memory traffic of a
//! memory-bound operation. This module computes the same product directly
//! from the strided `MatRef` views, streaming each row of `B` exactly
//! once.
//!
//! Two kernels mirror [`crate::gemm`]'s dispatch:
//!
//! * an AVX2+FMA kernel holding `m × NB` independent vector accumulators
//!   (the `k` recurrence has 4–5 cycles of FMA latency, so at `m = 1` eight
//!   independent column chunks are needed to keep the FMA pipes busy), and
//! * a portable scalar kernel doing the same fused multiply-adds with
//!   [`f32::mul_add`].
//!
//! Kernel selection and the scalar override are shared with [`crate::gemm`]
//! — there is one switch for both paths.
//!
//! # Bitwise parity with the blocked core
//!
//! Routing must never change results, so every kernel reproduces the
//! blocked microkernel's per-element operation sequence exactly: a single
//! accumulator updated by one fused multiply-add per ascending `k` step. The
//! AVX2 tile does it eight lanes at a time (SIMD lanes are independent
//! accumulators); column tails, strided-`B` views and the whole scalar
//! kernel do it one element at a time with [`f32::mul_add`], the same
//! correctly-rounded operation. The scalar kernel's zero-`A` skip is exact
//! under [`crate::gemm`]'s determinism contract.
//!
//! Hence `matmul` results are bitwise-invariant to whether the GEMV or the
//! blocked path ran, and to the kernel — the batch/serve/concurrent parity
//! suites hold unchanged, enforced by the tests below and the small-M
//! proptest in `tests/prop_nn.rs`.

use crate::gemm::{Kernel, MatRef};

/// Largest number of `A` rows routed to the pack-free GEMV path by
/// [`crate::tensor`]'s dispatchers (single-threaded products only; larger
/// or threaded products use the blocked core).
pub const GEMV_MAX_M: usize = 8;

/// `c += a · b` over a row-major `c` of exactly `a.rows() × b.cols()`
/// elements, without packing. Requires `a.rows() <= GEMV_MAX_M`. Bitwise
/// equal to [`crate::gemm::gemm_serial`] with the same kernel.
pub(crate) fn gemv_serial(kernel: Kernel, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert!(m <= GEMV_MAX_M, "gemv_serial requires m <= {GEMV_MAX_M}");
    assert_eq!(a.cols(), b.rows(), "gemv inner dimensions must agree");
    assert_eq!(c.len(), m * n, "gemv output buffer must be m*n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match kernel {
        Kernel::Scalar => gemv_scalar(a, b, c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kernel::Avx2Fma` is only ever constructed after
        // `is_x86_feature_detected!("avx2")`/`("fma")` both succeed.
        Kernel::Avx2Fma => unsafe { gemv_avx2(a, b, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2Fma => gemv_scalar(a, b, c),
    }
}

/// Scalar GEMV: the blocked microkernel's fused multiply-add per ascending
/// `k` step, with the scalar microkernel's zero-`A` skip, streaming each
/// contiguous row of `B` once; strided-`B` views take the per-element loop.
fn gemv_scalar(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.cs() != 1 {
        gemv_mul_add_cols(a, b, c, 0, n);
        return;
    }
    for r in 0..m {
        let crow = &mut c[r * n..(r + 1) * n];
        for kk in 0..k {
            let av = a.at(r, kk);
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in crow.iter_mut().zip(b.contiguous_row(kk)) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Fused per-element dot products for column ranges the vector tiles cannot
/// cover: `n % 8` tails and strided-`B` views (the `matmul_nt` case), on
/// either kernel. [`f32::mul_add`] is the same correctly-rounded fused
/// multiply-add the AVX2 kernels execute, so results stay bitwise-equal to
/// the blocked path.
fn gemv_mul_add_cols(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], j_lo: usize, j_hi: usize) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for r in 0..m {
        for j in j_lo..j_hi {
            let mut acc = c[r * n + j];
            for kk in 0..k {
                acc = a.at(r, kk).mul_add(b.at(kk, j), acc);
            }
            c[r * n + j] = acc;
        }
    }
}

/// How many 8-lane column chunks to accumulate per row so the kernel always
/// has ~8 independent FMA chains in flight.
#[cfg(target_arch = "x86_64")]
fn chunks_per_row(m: usize) -> usize {
    match m {
        1 => 8,
        2 => 4,
        3 | 4 => 2,
        _ => 1,
    }
}

/// AVX2+FMA GEMV driver: vector tiles over contiguous `B` rows, fused
/// scalar fallback for tails and strided views.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_avx2(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    let (m, n) = (a.rows(), b.cols());
    if b.cs() != 1 {
        gemv_mul_add_cols(a, b, c, 0, n);
        return;
    }
    let wide = chunks_per_row(m) * 8;
    let mut j = 0;
    while j + wide <= n {
        gemv_tile_dispatch(m, true, a, b, c, j);
        j += wide;
    }
    while j + 8 <= n {
        gemv_tile_dispatch(m, false, a, b, c, j);
        j += 8;
    }
    if j < n {
        gemv_mul_add_cols(a, b, c, j, n);
    }
}

/// Monomorphized tile selection: `wide` tiles use [`chunks_per_row`] chunks,
/// remainder strips use one chunk per row.
///
/// # Safety
/// Caller must ensure AVX2+FMA support, `1 <= m <= GEMV_MAX_M`, `b.cs() == 1`,
/// and that columns `j0..j0 + chunks*8` are in range.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_tile_dispatch(m: usize, wide: bool, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], j0: usize) {
    match (m, wide) {
        (1, true) => gemv_tile::<1, 8>(a, b, c, j0),
        (2, true) => gemv_tile::<2, 4>(a, b, c, j0),
        (3, true) => gemv_tile::<3, 2>(a, b, c, j0),
        (4, true) => gemv_tile::<4, 2>(a, b, c, j0),
        (1, false) => gemv_tile::<1, 1>(a, b, c, j0),
        (2, false) => gemv_tile::<2, 1>(a, b, c, j0),
        (3, false) => gemv_tile::<3, 1>(a, b, c, j0),
        (4, false) => gemv_tile::<4, 1>(a, b, c, j0),
        (5, _) => gemv_tile::<5, 1>(a, b, c, j0),
        (6, _) => gemv_tile::<6, 1>(a, b, c, j0),
        (7, _) => gemv_tile::<7, 1>(a, b, c, j0),
        (8, _) => gemv_tile::<8, 1>(a, b, c, j0),
        _ => unreachable!("gemv tile called with m > GEMV_MAX_M"),
    }
}

/// One `MB`-row × `NB*8`-column tile: accumulators load the current `C`
/// values, take one broadcast-FMA per ascending `k` step per element —
/// exactly the blocked AVX2 microkernel's per-element sequence — and store
/// back.
///
/// # Safety
/// Caller must ensure AVX2+FMA support, `a.rows() == MB`, `b.cs() == 1`,
/// and that columns `j0..j0 + NB*8` are in range.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_tile<const MB: usize, const NB: usize>(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], j0: usize) {
    use std::arch::x86_64::*;
    let k = a.cols();
    let n = b.cols();
    debug_assert!(a.rows() == MB && j0 + NB * 8 <= n);
    let cp = c.as_mut_ptr();
    let mut acc = [[_mm256_setzero_ps(); NB]; MB];
    for (r, row) in acc.iter_mut().enumerate() {
        for (t, slot) in row.iter_mut().enumerate() {
            *slot = _mm256_loadu_ps(cp.add(r * n + j0 + t * 8));
        }
    }
    for kk in 0..k {
        let brow = b.contiguous_row(kk).as_ptr().add(j0);
        let mut bv = [_mm256_setzero_ps(); NB];
        for (t, slot) in bv.iter_mut().enumerate() {
            *slot = _mm256_loadu_ps(brow.add(t * 8));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(a.at(r, kk));
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = _mm256_fmadd_ps(av, bv[t], *slot);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (t, slot) in row.iter().enumerate() {
            _mm256_storeu_ps(cp.add(r * n + j0 + t * 8), *slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::available_kernels;
    use crate::tensor::{matmul_forced, MatOp, MatPath};
    use crate::test_support::seeded_matrix as test_matrix;

    /// Small-M shapes hitting every tile width, remainder strip, and scalar
    /// tail: n below 8, exact chunk multiples, and ragged overhangs.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 5),
        (1, 512, 128),
        (1, 64, 64),
        (1, 300, 67),
        (2, 96, 33),
        (3, 17, 40),
        (4, 128, 128),
        (5, 31, 9),
        (6, 256, 64),
        (7, 13, 100),
        (8, 512, 128),
        (8, 1, 1),
    ];

    #[test]
    fn gemv_is_bitwise_equal_to_blocked_matmul() {
        for &kernel in available_kernels() {
            for &(m, k, n) in SHAPES {
                let a = test_matrix(m, k, m as u64 * 31 + 1);
                let b = test_matrix(k, n, n as u64 * 17 + 2);
                let gemv = matmul_forced(kernel, MatOp::NN, MatPath::Gemv, &a, &b);
                let blocked = matmul_forced(kernel, MatOp::NN, MatPath::Blocked, &a, &b);
                assert_eq!(
                    gemv.as_slice(),
                    blocked.as_slice(),
                    "kernel {} shape {m}x{k}x{n}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn gemv_nt_is_bitwise_equal_to_blocked() {
        // The Bᵀ view has non-unit column stride: exercises the fused
        // per-element loop both kernels fall back to.
        for &kernel in available_kernels() {
            for &(m, k, n) in SHAPES {
                let a = test_matrix(m, k, 3);
                let bt = test_matrix(n, k, 4);
                let gemv = matmul_forced(kernel, MatOp::NT, MatPath::Gemv, &a, &bt);
                let blocked = matmul_forced(kernel, MatOp::NT, MatPath::Blocked, &a, &bt);
                assert_eq!(
                    gemv.as_slice(),
                    blocked.as_slice(),
                    "kernel {} shape {m}x{k}x{n}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn gemv_tn_is_bitwise_equal_to_blocked() {
        // The Aᵀ view has non-unit row access on A (scalar loads), B stays
        // contiguous: the vector tiles run against a strided A.
        for &kernel in available_kernels() {
            for &(m, k, n) in SHAPES {
                let at = test_matrix(k, m, 5);
                let b = test_matrix(k, n, 6);
                let gemv = matmul_forced(kernel, MatOp::TN, MatPath::Gemv, &at, &b);
                let blocked = matmul_forced(kernel, MatOp::TN, MatPath::Blocked, &at, &b);
                assert_eq!(
                    gemv.as_slice(),
                    blocked.as_slice(),
                    "kernel {} shape {m}x{k}x{n}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn gemv_cols_is_bitwise_equal_to_blocked_and_full_slice() {
        for &kernel in available_kernels() {
            let a = test_matrix(2, 96, 7);
            let b = test_matrix(96, 120, 8);
            let full = matmul_forced(kernel, MatOp::NN, MatPath::Gemv, &a, &b);
            for &(lo, hi) in &[(0usize, 120usize), (8, 40), (3, 11), (100, 120), (55, 56)] {
                let gemv = matmul_forced(kernel, MatOp::Cols(lo, hi), MatPath::Gemv, &a, &b);
                let blocked = matmul_forced(kernel, MatOp::Cols(lo, hi), MatPath::Blocked, &a, &b);
                assert_eq!(gemv.as_slice(), blocked.as_slice(), "kernel {}", kernel.name());
                for r in 0..a.rows() {
                    assert_eq!(gemv.row(r), &full.row(r)[lo..hi], "slice {lo}..{hi} row {r}");
                }
            }
        }
    }

    #[test]
    fn routed_matmul_uses_gemv_result_at_small_m() {
        // The public entry points must agree bitwise with both forced paths
        // (they are bitwise-equal to each other, so this pins the routing).
        for &(m, k, n) in SHAPES {
            let a = test_matrix(m, k, 9);
            let b = test_matrix(k, n, 10);
            let routed = a.matmul(&b);
            let forced = matmul_forced(crate::gemm::active_kernel(), MatOp::NN, MatPath::Gemv, &a, &b);
            assert_eq!(routed.as_slice(), forced.as_slice(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "gemv_serial requires m <=")]
    fn forced_gemv_rejects_large_m() {
        let a = test_matrix(GEMV_MAX_M + 1, 4, 1);
        let b = test_matrix(4, 4, 2);
        matmul_forced(Kernel::Scalar, MatOp::NN, MatPath::Gemv, &a, &b);
    }
}
