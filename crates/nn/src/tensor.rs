//! Dense row-major `f32` matrices and the handful of BLAS-like kernels the
//! models need. Batches are rows; features are columns.
//!
//! The matmul variants cover a full MLP training step without explicit
//! transposes:
//! * [`Matrix::matmul`]      — `C = A·B`            (forward pass),
//! * [`Matrix::matmul_nt`]   — `C = A·Bᵀ`           (input gradient: `dX = dY·Wᵀ`),
//! * [`Matrix::matmul_tn`]   — `C = Aᵀ·B`           (weight gradient: `dW = Xᵀ·dY`),
//! * [`Matrix::matmul_cols`] — `C = A·B[:, lo..hi]` (autoregressive sampler).
//!
//! All four are strided views into one blocked, packed GEMM core
//! ([`crate::gemm`]) with a runtime-dispatched AVX2+FMA microkernel and a
//! scalar fallback that rounds the same way. Large multiplications split
//! output rows across OS threads sized from
//! [`std::thread::available_parallelism`]; small ones stay single-threaded
//! because thread spawn/join overhead dominates below a fixed work size
//! (`PARALLEL_MIN_WORK`). Results are bitwise-identical regardless of
//! kernel, tiling, batch shape, column slicing, and thread count (see the
//! determinism contract in [`crate::gemm`]).

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::gemm::{self, Kernel, MatRef};
use crate::gemv;

/// Minimum work size (`m·k·n` multiply-adds) before a matmul is split
/// across threads.
///
/// Rationale: spawning and joining a scoped thread costs on the order of
/// 10–50 µs; a single core sustains roughly 1 multiply-add per cycle on
/// this scalar kernel, so `2²² ≈ 4.2 M` multiply-adds ≈ 1–2 ms of work —
/// enough that even a 2-way split recoups the spawn cost more than 10×
/// over. Below the threshold the sequential kernel is strictly faster.
pub(crate) const PARALLEL_MIN_WORK: usize = 1 << 22;

/// Number of worker threads for a kernel doing `work` multiply-adds over
/// `rows` independent output rows: 1 below the threshold, otherwise scaled
/// so each worker gets at least one threshold's worth of work, capped by
/// the machine's available parallelism and the row count.
fn thread_budget(work: usize, rows: usize) -> usize {
    if work < PARALLEL_MIN_WORK || rows < 2 {
        return 1;
    }
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    (work / PARALLEL_MIN_WORK + 1).min(available).min(rows)
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a generator over `(row, col)`.
    ///
    /// The generator runs strictly in row-major order — stateful closures
    /// (weight-init RNGs in particular) depend on that sequence.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size must be rows*cols");
        Self { rows, cols, data }
    }

    /// Stacks equal-length row slices into a matrix.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination `f(self, other)` into a new matrix.
    pub fn zip_map(&self, other: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Adds a row vector to every row (bias broadcast).
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Column sums (bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, x) in sums.iter_mut().zip(self.row(r)) {
                *s += x;
            }
        }
        sums
    }

    /// `C = self · other`; `self` is `m×k`, `other` is `k×n`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        matmul_dispatch(MatOp::NN, self, other)
    }

    /// `C = self · otherᵀ`; `self` is `m×k`, `other` is `n×k`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        matmul_dispatch(MatOp::NT, self, other)
    }

    /// `C = selfᵀ · other`; `self` is `b×m`, `other` is `b×n`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        matmul_dispatch(MatOp::TN, self, other)
    }

    /// `C = self · other[:, lo..hi]` — matmul against a column slice of
    /// `other`, avoiding computation of unneeded output columns. Used by the
    /// autoregressive sampler, which needs one logit segment per step.
    /// Bitwise equal to the corresponding column slice of the full
    /// [`Matrix::matmul`] product, and threaded by the same budget.
    pub fn matmul_cols(&self, other: &Matrix, lo: usize, hi: usize) -> Matrix {
        matmul_dispatch(MatOp::Cols(lo, hi), self, other)
    }

    /// Consumes the matrix, returning its row-major buffer (workspace
    /// recycling).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Maximum absolute element (grad-norm diagnostics).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

/// Which of the four products a matmul entry point computes. All four are
/// strided views into the one GEMM core, so an op is only a pair of views.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatOp {
    /// `A·B`; `A` is `m×k`, `B` is `k×n`.
    NN,
    /// `A·Bᵀ`; `A` is `m×k`, `B` is `n×k`.
    NT,
    /// `Aᵀ·B`; `A` is `b×m`, `B` is `b×n`.
    TN,
    /// `A·B[:, lo..hi]`; `A` is `m×k`, `B` is `k×n` with `hi <= n`.
    Cols(usize, usize),
}

impl MatOp {
    /// The operand views of this product over `a` and `b` (no copies),
    /// after checking that the shapes agree.
    fn views<'a>(self, a: &'a Matrix, b: &'a Matrix) -> (MatRef<'a>, MatRef<'a>) {
        let plain = |m: &'a Matrix| MatRef::new(&m.data, 0, m.cols, 1, m.rows, m.cols);
        match self {
            MatOp::NN => {
                assert_eq!(a.cols, b.rows, "matmul inner dimensions must agree");
                (plain(a), plain(b))
            }
            MatOp::NT => {
                assert_eq!(a.cols, b.cols, "matmul_nt inner dimensions must agree");
                // Element (kk, j) of Bᵀ is b[j*k + kk].
                (plain(a), MatRef::new(&b.data, 0, 1, b.cols, b.cols, b.rows))
            }
            MatOp::TN => {
                assert_eq!(a.rows, b.rows, "matmul_tn batch dimensions must agree");
                // Element (i, kk) of Aᵀ is a[kk*m + i].
                (MatRef::new(&a.data, 0, 1, a.cols, a.cols, a.rows), plain(b))
            }
            MatOp::Cols(lo, hi) => {
                assert_eq!(a.cols, b.rows, "matmul inner dimensions must agree");
                assert!(lo <= hi && hi <= b.cols, "column slice out of range");
                // A column-offset view: element (kk, j) is b[kk*cols + lo + j].
                (plain(a), MatRef::new(&b.data, lo, b.cols, 1, b.rows, hi - lo))
            }
        }
    }
}

/// Which serial core a [`matmul_forced`] product runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatPath {
    /// The pack-free small-`M` kernel of [`crate::gemv`]; panics if the
    /// product has more than [`gemv::GEMV_MAX_M`] output rows.
    Gemv,
    /// The blocked packed core of [`crate::gemm`].
    Blocked,
}

/// `op(A, B)` into a new matrix — the [`Matrix`] products.
fn matmul_dispatch(op: MatOp, a: &Matrix, b: &Matrix) -> Matrix {
    let (av, bv) = op.views(a, b);
    let mut out = Matrix::zeros(av.rows(), bv.cols());
    gemm_threaded(av, bv, &mut out.data);
    out
}

/// `out += op(A, B)` into a caller-provided (zeroed) output on the active
/// kernel — the allocation-free entry point behind
/// [`crate::workspace::Workspace`]'s products.
pub(crate) fn matmul_into(op: MatOp, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (av, bv) = op.views(a, b);
    assert_eq!(
        (out.rows, out.cols),
        (av.rows(), bv.cols()),
        "output shape must match the product"
    );
    gemm_threaded(av, bv, &mut out.data);
}

/// `op(A, B)` through an explicitly chosen kernel **and** serial core,
/// single-threaded, bypassing the row-count routing — the one forced-path
/// surface of the tests and benches. Production code calls the [`Matrix`]
/// products, which pick the core themselves; the two cores are bitwise
/// equal (see [`crate::gemv`]), which is what this entry point lets the
/// parity suites prove.
pub fn matmul_forced(kernel: Kernel, op: MatOp, path: MatPath, a: &Matrix, b: &Matrix) -> Matrix {
    let (av, bv) = op.views(a, b);
    let mut out = Matrix::zeros(av.rows(), bv.cols());
    match path {
        MatPath::Gemv => gemv::gemv_serial(kernel, av, bv, &mut out.data),
        MatPath::Blocked => gemm::gemm_serial(kernel, av, bv, &mut out.data),
    }
    out
}

/// `out += a·b` on the active kernel: splits the output rows into
/// contiguous chunks, one scoped thread each as [`thread_budget`] allows,
/// and runs the serial core on every chunk. Each output element is produced
/// by exactly one thread with the same ascending-`k` accumulation order, so
/// the thread count never changes results.
fn gemm_threaded(a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let kernel = gemm::active_kernel();
    let (m, n) = (a.rows(), b.cols());
    let threads = thread_budget(m * a.cols() * n, m);
    if threads > 1 {
        let chunk = m.div_ceil(threads);
        std::thread::scope(|s| {
            let mut rest = out;
            let mut row0 = 0usize;
            while row0 + chunk < m {
                let (head, tail) = rest.split_at_mut(chunk * n);
                rest = tail;
                let a_part = a.row_window(row0, chunk);
                s.spawn(move || gemm_serial_auto(kernel, a_part, b, head));
                row0 += chunk;
            }
            gemm_serial_auto(kernel, a.row_window(row0, m - row0), b, rest);
        });
    } else {
        gemm_serial_auto(kernel, a, b, out);
    }
}

/// Serial core selection: row windows of at most [`gemv::GEMV_MAX_M`] rows
/// take the pack-free GEMV fast path, everything else the blocked packed
/// core. The two are bitwise-equal (see [`crate::gemv`]), so this is purely
/// a performance decision.
fn gemm_serial_auto(kernel: Kernel, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32]) {
    let use_gemv = a.rows() <= gemv::GEMV_MAX_M;
    crate::profile::note_dispatch(use_gemv, kernel, a.rows(), a.cols(), b.cols());
    if use_gemv {
        gemv::gemv_serial(kernel, a, b, out);
    } else {
        gemm::gemm_serial(kernel, a, b, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    use crate::test_support::seeded_matrix as test_matrix;

    #[test]
    fn matmul_matches_naive() {
        let a = test_matrix(7, 5, 1);
        let b = test_matrix(5, 9, 2);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_nt_matches_naive_transpose() {
        let a = test_matrix(4, 6, 3);
        let b = test_matrix(8, 6, 4);
        assert!(approx_eq(&a.matmul_nt(&b), &naive_matmul(&a, &b.transpose()), 1e-4));
    }

    #[test]
    fn matmul_tn_matches_naive_transpose() {
        let a = test_matrix(6, 4, 5);
        let b = test_matrix(6, 7, 6);
        assert!(approx_eq(&a.matmul_tn(&b), &naive_matmul(&a.transpose(), &b), 1e-4));
    }

    #[test]
    fn parallel_path_matches_naive() {
        // Force the threaded path with a matrix above the threshold.
        let a = test_matrix(260, 130, 7);
        let b = test_matrix(130, 140, 8);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-2));
        let bt = test_matrix(140, 130, 9);
        assert!(approx_eq(&a.matmul_nt(&bt), &naive_matmul(&a, &bt.transpose()), 1e-2));
        let c = test_matrix(260, 140, 10);
        assert!(approx_eq(&a.matmul_tn(&c), &naive_matmul(&a.transpose(), &c), 1e-2));
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_vector(&[1.0, 2.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(m.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![4.0, 3.0, 2.0, 1.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.as_slice(), &[5.0; 4]);
        let d = a.zip_map(&b, |x, y| x * y);
        assert_eq!(d.as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        let e = a.map(|x| x * 2.0);
        assert_eq!(e.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn from_rows_builds_expected_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn max_abs_works() {
        let m = Matrix::from_vec(1, 3, vec![-5.0, 2.0, 4.0]);
        assert_eq!(m.max_abs(), 5.0);
    }

    #[test]
    fn thread_budget_respects_bounds() {
        let threshold = PARALLEL_MIN_WORK;
        assert_eq!(thread_budget(threshold - 1, 1024), 1);
        assert_eq!(thread_budget(threshold * 16, 1), 1);
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        let t = thread_budget(threshold * 16, 1024);
        if avail >= 2 {
            assert!(t >= 2, "above-threshold work must parallelize on a multi-core box");
        }
        assert!(t <= avail, "budget {t} must not exceed available parallelism {avail}");
        assert!(
            thread_budget(threshold * 1000, 3) <= 3,
            "budget must not exceed row count"
        );
    }

    #[test]
    fn matmul_cols_slice_is_bitwise_equal_to_full_product_columns() {
        // Large enough that the sliced work alone (512·256·64 ≈ 8.4 M
        // multiply-adds) crosses the parallel threshold, so on multi-core
        // machines the sliced path runs threaded — the seed implementation
        // ignored `thread_budget` entirely. Bitwise equality with the full
        // product's column slice is the GEMM core's determinism contract.
        let a = test_matrix(512, 256, 21);
        let b = test_matrix(256, 256, 22);
        let (lo, hi) = (97, 161);
        assert!(a.rows() * a.cols() * (hi - lo) > PARALLEL_MIN_WORK);
        let sliced = a.matmul_cols(&b, lo, hi);
        let full = a.matmul(&b);
        assert_eq!((sliced.rows(), sliced.cols()), (a.rows(), hi - lo));
        for i in 0..a.rows() {
            assert_eq!(
                sliced.row(i),
                &full.row(i)[lo..hi],
                "row {i} diverged from the full product"
            );
        }
    }

    #[test]
    fn matmul_cols_edge_slices() {
        let a = test_matrix(5, 11, 23);
        let b = test_matrix(11, 19, 24);
        let full = a.matmul(&b);
        // Empty slice.
        let empty = a.matmul_cols(&b, 7, 7);
        assert_eq!((empty.rows(), empty.cols()), (5, 0));
        // Full-width slice equals the plain product bitwise.
        assert_eq!(a.matmul_cols(&b, 0, 19), full);
        // Last column alone.
        let last = a.matmul_cols(&b, 18, 19);
        for i in 0..5 {
            assert_eq!(last.get(i, 0), full.get(i, 18));
        }
    }

    #[test]
    fn parallel_chunked_path_matches_naive_many_threads() {
        // A tall matmul whose work is many multiples of the threshold, so
        // the chunked scope spawns as many workers as the machine allows.
        let a = test_matrix(1024, 96, 11);
        let b = test_matrix(96, 200, 12);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-2));
    }
}
