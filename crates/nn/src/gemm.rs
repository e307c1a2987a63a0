//! Blocked, packed GEMM core shared by every matmul entry point in
//! [`crate::tensor`].
//!
//! The classic three-level cache tiling (BLIS-style): output columns are
//! processed in [`NC`]-wide panels, the reduction dimension in [`KC`]-deep
//! blocks, and output rows in [`MC`]-tall blocks. For each (panel, block)
//! pair the operands are *packed* — copied into contiguous strips laid out
//! exactly as the register microkernel consumes them — so the innermost loop
//! streams sequentially regardless of the caller's storage order. Packing is
//! what lets one core serve `A·B`, `A·Bᵀ`, `Aᵀ·B`, and the column-sliced
//! `A·B[:, lo..hi]`: the four variants differ only in the strides of the
//! `MatRef` views handed to the pack routines.
//!
//! Two register microkernels compute [`MR`]`×`[`NR`] output tiles:
//!
//! * an x86-64 AVX2+FMA kernel (`std::arch`, 12 vector accumulators), picked
//!   at runtime via `is_x86_feature_detected!`, and
//! * a portable scalar kernel doing the same fused multiply-adds one lane at
//!   a time with [`f32::mul_add`] (a native instruction where the target has
//!   FMA, a libm call where it does not).
//!
//! The choice is made once per process ([`active_kernel`]) and can be pinned
//! to the scalar kernel with the scalar override ([`force_scalar_requested`]).
//!
//! # Determinism contract
//!
//! Every output element is produced by a *single* accumulator folded over
//! `k` in ascending order: the microkernel loads the current `C` tile into
//! its accumulators, fuses `kc` multiply-adds into them, and stores the tile
//! back, so splitting `k` into [`KC`] blocks never reassociates a sum. Lanes
//! of a SIMD register are independent accumulators. Consequently results are
//! bitwise-invariant to the batch size `m`, to the `lo..hi` column slice a
//! column lands in, to the tile constants, and to how many threads the
//! caller splits the output rows across. The batched-estimation and serving
//! parity suites rely on exactly this property.
//!
//! Every kernel rounds once per step (`fma(a, b, acc)`), so results are also
//! bitwise-invariant to the kernel. The scalar microkernel and the scalar
//! GEMV's contiguous loop skip zero `A` entries (most of a one-hot input),
//! which the vector kernels cannot; the skip is
//! exact because `fma(0, b, acc) == acc` whenever `b` is finite and `acc` is
//! not `−0`. Every entry point accumulates into a `+0`-zeroed `C`
//! (`Matrix::zeros`, `Workspace::take`), and from `+0` an accumulator can
//! only reach `−0` through a step whose exact result is negative and below
//! the smallest f32 subnormal. The contract therefore holds for finite
//! operands whose steps never underflow to zero.

use std::sync::OnceLock;

/// Rows per register tile. Six rows × two 8-lane vectors = 12 accumulator
/// registers in the AVX2 microkernel, leaving three of the sixteen `ymm`
/// registers for the two `B` vectors and the broadcast `A` scalar.
pub const MR: usize = 6;

/// Columns per register tile (two 8-lane f32 vectors).
pub const NR: usize = 16;

/// Rows per cache block: the packed `MC×KC` slab of `A` (~96 KiB) stays
/// L2-resident while a full `B` panel streams against it.
pub const MC: usize = 96;

/// Reduction depth per cache block: `KC×NR` strips of packed `B` (~16 KiB)
/// fit L1 alongside the `A` strip the microkernel is consuming.
pub const KC: usize = 256;

/// Columns per cache panel: the packed `KC×NC` slab of `B` (~512 KiB) is
/// sized for L3 so it is packed once per `KC` block and reused by every row
/// block. Must be a multiple of [`NR`], as [`MC`] must be of [`MR`].
pub const NC: usize = 512;

/// A GEMM microkernel implementation, selected once per process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Portable scalar microkernel ([`f32::mul_add`] per lane).
    Scalar,
    /// Runtime-detected x86-64 AVX2 + FMA microkernel.
    Avx2Fma,
}

impl Kernel {
    /// Stable human-readable name (metric labels, test messages).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2+fma",
        }
    }
}

/// Whether the scalar override is requested via the `LMKG_FORCE_SCALAR`
/// environment variable (`1`, `true`, `yes`, or `on`, case-insensitive).
/// Read once per process.
pub fn force_scalar_requested() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("LMKG_FORCE_SCALAR")
            .map(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "yes" | "on"))
            .unwrap_or(false)
    })
}

/// The kernels usable on this machine, fastest first. [`Kernel::Scalar`] is
/// always present; [`Kernel::Avx2Fma`] is listed when the CPU supports it
/// (the scalar override does not remove it from this list — tests and
/// benches use it to compare both kernels in one process).
pub fn available_kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let mut ks = Vec::new();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            ks.push(Kernel::Avx2Fma);
        }
        ks.push(Kernel::Scalar);
        ks
    })
}

/// The microkernel every matmul in this process dispatches to: the fastest
/// available one, unless the scalar override pins [`Kernel::Scalar`].
/// Detected once and cached.
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if force_scalar_requested() {
            Kernel::Scalar
        } else {
            available_kernels()[0]
        }
    })
}

/// A read-only strided view of an `f32` matrix: element `(r, c)` lives at
/// `data[off + r*rs + c*cs]`. Strides express transposition and column
/// slicing without copying, so all four matmul variants share one driver.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    off: usize,
    rs: usize,
    cs: usize,
    rows: usize,
    cols: usize,
}

impl<'a> MatRef<'a> {
    /// A view with explicit geometry. `off` is the index of element (0, 0).
    pub(crate) fn new(data: &'a [f32], off: usize, rs: usize, cs: usize, rows: usize, cols: usize) -> Self {
        if rows > 0 && cols > 0 {
            let last = off + (rows - 1) * rs + (cols - 1) * cs;
            assert!(last < data.len(), "MatRef geometry out of bounds");
        }
        Self {
            data,
            off,
            rs,
            cs,
            rows,
            cols,
        }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Column stride ([`crate::gemv`] picks its inner loop by whether rows
    /// of `B` are contiguous).
    #[inline]
    pub(crate) fn cs(&self) -> usize {
        self.cs
    }

    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f32 {
        self.data[self.off + r * self.rs + c * self.cs]
    }

    /// Row `r` as a contiguous slice. Only valid when `cs == 1`.
    #[inline]
    pub(crate) fn contiguous_row(&self, r: usize) -> &'a [f32] {
        debug_assert_eq!(self.cs, 1, "contiguous_row requires unit column stride");
        let start = self.off + r * self.rs;
        &self.data[start..start + self.cols]
    }

    /// The sub-view of `nrows` rows starting at `r0`.
    pub(crate) fn row_window(&self, r0: usize, nrows: usize) -> Self {
        debug_assert!(r0 + nrows <= self.rows);
        Self {
            off: self.off + r0 * self.rs,
            rows: nrows,
            ..*self
        }
    }
}

/// `c += a · b` over a row-major `c` of exactly `a.rows() × b.cols()`
/// elements, single-threaded. `c` must be zeroed by the caller for a plain
/// product. Callers parallelize by splitting `a`/`c` into row windows.
pub(crate) fn gemm_serial(kernel: Kernel, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(a.cols(), b.rows(), "gemm inner dimensions must agree");
    assert_eq!(c.len(), m * n, "gemm output buffer must be m*n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    // Pack buffers sized for one cache block each, reused across blocks.
    let kc_max = KC.min(k);
    let mc_max = MC.min(m.next_multiple_of(MR));
    let nc_max = NC.min(n.next_multiple_of(NR));
    let mut apack = vec![0.0f32; mc_max * kc_max];
    let mut bpack = vec![0.0f32; kc_max * nc_max];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, pc, jc, kc, nc, &mut bpack);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(a, ic, pc, mc, kc, &mut apack);
                let mut jr = 0;
                while jr < nc {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * NR * kc..][..NR * kc];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * MR * kc..][..MR * kc];
                        let c_tile = &mut c[(ic + ir) * n + jc + jr..];
                        microkernel(kernel, kc, ap, bp, c_tile, n, mr, nr);
                        ir += MR;
                    }
                    jr += NR;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs the `mc×kc` block of `a` at `(ic, pc)` into [`MR`]-row strips:
/// strip `s` holds rows `ic+s*MR..`, stored k-major so the microkernel reads
/// `MR` consecutive `A` values per `k` step. Rows past `mc` pack as zeros.
fn pack_a(a: MatRef<'_>, ic: usize, pc: usize, mc: usize, kc: usize, apack: &mut [f32]) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let r0 = s * MR;
        let strip = &mut apack[s * MR * kc..(s + 1) * MR * kc];
        for (kk, chunk) in strip.chunks_exact_mut(MR).enumerate() {
            for (t, slot) in chunk.iter_mut().enumerate() {
                *slot = if r0 + t < mc { a.at(ic + r0 + t, pc + kk) } else { 0.0 };
            }
        }
    }
}

/// Packs the `kc×nc` block of `b` at `(pc, jc)` into [`NR`]-column strips:
/// strip `s` holds columns `jc+s*NR..`, stored k-major so the microkernel
/// loads two contiguous vectors per `k` step. Columns past `nc` pack as
/// zeros (their lanes compute garbage that is never stored).
fn pack_b(b: MatRef<'_>, pc: usize, jc: usize, kc: usize, nc: usize, bpack: &mut [f32]) {
    let strips = nc.div_ceil(NR);
    for s in 0..strips {
        let c0 = s * NR;
        let strip = &mut bpack[s * NR * kc..(s + 1) * NR * kc];
        for (kk, chunk) in strip.chunks_exact_mut(NR).enumerate() {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = if c0 + j < nc { b.at(pc + kk, jc + c0 + j) } else { 0.0 };
            }
        }
    }
}

/// Dispatches one `mr×nr` output tile (`mr ≤ MR`, `nr ≤ NR`) to the selected
/// microkernel. `c` addresses the tile's (0, 0) element with row stride
/// `ldc`; the tile is loaded, accumulated over `kc` steps, and stored back.
#[allow(clippy::too_many_arguments)]
fn microkernel(kernel: Kernel, kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    match kernel {
        Kernel::Scalar => microkernel_scalar(kc, ap, bp, c, ldc, mr, nr),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kernel::Avx2Fma` is only ever constructed after
        // `is_x86_feature_detected!("avx2")`/`("fma")` both succeed.
        Kernel::Avx2Fma => unsafe { microkernel_avx2(kc, ap, bp, c, ldc, mr, nr) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2Fma => microkernel_scalar(kc, ap, bp, c, ldc, mr, nr),
    }
}

/// Portable microkernel: the AVX2 kernel's fused multiply-add per element
/// per ascending `k` step, one lane at a time. Zero `A` entries are skipped
/// (bit-exact under the determinism contract), which is what keeps one-hot
/// inputs cheap when `mul_add` is a libm call.
#[allow(clippy::too_many_arguments)]
fn microkernel_scalar(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
    }
    for kk in 0..kc {
        let bs = &bp[kk * NR..(kk + 1) * NR];
        let avals = &ap[kk * MR..(kk + 1) * MR];
        for (row, &a) in acc.iter_mut().zip(avals) {
            if a == 0.0 {
                continue;
            }
            for (o, &bv) in row.iter_mut().zip(bs) {
                *o = a.mul_add(bv, *o);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

/// AVX2+FMA microkernel: 6×16 tile in twelve `ymm` accumulators, one fused
/// multiply-add per element per `k` step. Edge tiles round-trip through a
/// zero-padded scratch tile so the hot path stays branch-free.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    if mr == MR && nr == NR {
        microkernel_avx2_full(kc, ap, bp, c, ldc);
    } else {
        let mut scratch = [0.0f32; MR * NR];
        for r in 0..mr {
            scratch[r * NR..r * NR + nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
        microkernel_avx2_full(kc, ap, bp, &mut scratch, NR);
        for r in 0..mr {
            c[r * ldc..r * ldc + nr].copy_from_slice(&scratch[r * NR..r * NR + nr]);
        }
    }
}

/// The full-tile AVX2 body: loads the 6×16 `C` tile, runs `kc` broadcast-FMA
/// steps from the packed strips, stores the tile back.
///
/// # Safety
/// Caller must ensure AVX2+FMA support, `ap.len() >= kc*MR`,
/// `bp.len() >= kc*NR`, and that `c` covers a 6-row × 16-column tile with
/// row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2_full(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let cp = c.as_mut_ptr();
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(cp.add(r * ldc));
        row[1] = _mm256_loadu_ps(cp.add(r * ldc + 8));
    }
    let a_ptr = ap.as_ptr();
    let b_ptr = bp.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(b_ptr.add(kk * NR));
        let b1 = _mm256_loadu_ps(b_ptr.add(kk * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*a_ptr.add(kk * MR + r));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(cp.add(r * ldc), row[0]);
        _mm256_storeu_ps(cp.add(r * ldc + 8), row[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{matmul_forced, MatOp, MatPath};
    use crate::test_support::seeded_matrix as test_matrix;
    use crate::Matrix;

    /// `A·B` on `kernel` through the blocked core.
    fn blocked(kernel: Kernel, a: &Matrix, b: &Matrix) -> Matrix {
        matmul_forced(kernel, MatOp::NN, MatPath::Blocked, a, b)
    }

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f64;
                for k in 0..a.cols() {
                    acc += f64::from(a.get(i, k)) * f64::from(b.get(k, j));
                }
                c.set(i, j, acc as f32);
            }
        }
        c
    }

    /// Relative tolerance scaled by the reduction depth: each of `k` steps
    /// can shift the rounding by ~1 ulp, so `k` ulps of headroom covers any
    /// kernel against the f64 reference.
    fn assert_close(got: &Matrix, want: &Matrix, k: usize) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        let tol = f32::EPSILON * (k as f32 + 4.0);
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let scale = 1.0f32.max(x.abs()).max(y.abs());
            assert!((x - y).abs() <= tol * scale, "element {i}: {x} vs {y} (k={k})");
        }
    }

    /// Shapes chosen to hit every edge: unit dims, sub-tile, exact MR/NR/MC/
    /// KC/NC multiples, and ragged overhangs of each.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 5),
        (3, 4, 2),
        (6, 8, 16),
        (7, 13, 17),
        (12, 256, 32),
        (13, 257, 33),
        (96, 10, 512),
        (97, 300, 523),
        (5, 600, 40),
    ];

    #[test]
    fn every_kernel_matches_f64_reference() {
        for &kernel in available_kernels() {
            for &(m, k, n) in SHAPES {
                let a = test_matrix(m, k, m as u64 + 1);
                let b = test_matrix(k, n, n as u64 + 2);
                assert_close(&blocked(kernel, &a, &b), &naive(&a, &b), k);
            }
        }
    }

    #[test]
    fn kernels_agree_bitwise() {
        // Zeroing every third `A` entry exercises the scalar zero skip.
        for &(m, k, n) in SHAPES {
            let mut a = test_matrix(m, k, 11);
            a.as_mut_slice().iter_mut().step_by(3).for_each(|x| *x = 0.0);
            let b = test_matrix(k, n, 13);
            let bits = |c: Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let scalar = bits(blocked(Kernel::Scalar, &a, &b));
            for &kernel in available_kernels() {
                assert_eq!(
                    bits(blocked(kernel, &a, &b)),
                    scalar,
                    "kernel {} {m}x{k}x{n}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn result_is_bitwise_invariant_to_batch_size() {
        // The parity suites depend on row i of a batched product being
        // bitwise equal to the same row computed alone (on either core), for
        // every kernel.
        for &kernel in available_kernels() {
            let a = test_matrix(23, 37, 3);
            let b = test_matrix(37, 29, 4);
            let full = blocked(kernel, &a, &b);
            for i in [0usize, 5, 22] {
                let single = Matrix::from_rows(&[a.row(i)]);
                for path in [MatPath::Blocked, MatPath::Gemv] {
                    let got = matmul_forced(kernel, MatOp::NN, path, &single, &b);
                    assert_eq!(got.row(0), full.row(i), "kernel {} {path:?} row {i}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn scalar_kernel_always_available_and_named() {
        let ks = available_kernels();
        assert!(ks.contains(&Kernel::Scalar));
        assert!(ks.iter().all(|k| !k.name().is_empty()));
        assert!(ks.contains(&active_kernel()) || active_kernel() == Kernel::Scalar);
    }
}
