//! Reusable scratch buffers for the shared-read (`&self`) inference path.
//!
//! Training forwards cache activations inside the layers, which is why
//! [`crate::layers::Layer::forward`] takes `&mut self`. Inference needs no
//! caches — but it does need output buffers, and allocating a fresh matrix
//! per layer per call is measurable on the serving hot path. A [`Workspace`]
//! is the caller-provided home for those buffers: every
//! [`forward_infer`](crate::layers::Layer::forward_infer) call draws its
//! outputs from the workspace pool and recycles its inputs back into it.
//! Reuse pays off within a call — across the layers of one forward, the
//! chunks of one batched prediction, the autoregressive steps of one
//! sampling pass — and callers that keep a workspace alive across calls
//! amortize further, while the model itself stays shared and immutable.
//!
//! The contract:
//! * a workspace is plain scratch — it carries **no** numeric state between
//!   calls, so any workspace (including a fresh one) produces bitwise
//!   identical results;
//! * workspaces are *not* shared between threads; each concurrent caller
//!   owns one (`Workspace` is `Send`, so it can move with its worker);
//! * matrices handed out by [`Workspace::take`] are zeroed, matching the
//!   accumulate-into-zeroed-output contract of the GEMM core;
//! * matrices handed out by [`Workspace::take_full`] have **unspecified**
//!   contents — stale data from earlier recycles included — and are only
//!   for callers that overwrite every element before reading any
//!   (elementwise activation outputs, input copies). GEMM outputs must
//!   keep using [`Workspace::take`].

use crate::tensor::{self, MatOp, Matrix};

/// A pool of reusable `f32` buffers backing inference-time activations.
#[derive(Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    /// Bytes ever allocated through this workspace's buffers (growth only —
    /// recycling returns capacity, it never shrinks). Folded into the
    /// process-wide high-water mark in [`crate::profile`].
    bytes: u64,
}

impl Workspace {
    /// An empty workspace. Buffers are created on first use and reused after
    /// [`Workspace::recycle`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently pooled (diagnostic).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// A zeroed `rows × cols` matrix, backed by a pooled buffer when one is
    /// available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut buf = self.pool.pop().unwrap_or_default();
        let cap_before = buf.capacity();
        buf.clear();
        buf.resize(len, 0.0);
        self.note_growth(cap_before, buf.capacity());
        Matrix::from_vec(rows, cols, buf)
    }

    /// A `rows × cols` matrix with **unspecified** contents, backed by a
    /// pooled buffer when one is available. Skips the zero fill of
    /// [`Workspace::take`], so it is only correct for callers that write
    /// every element before reading any — the dense forward paths use it
    /// for outputs they fully overwrite (activation maps, input copies).
    pub fn take_full(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut buf = self.pool.pop().unwrap_or_default();
        let cap_before = buf.capacity();
        buf.resize(len, 0.0);
        self.note_growth(cap_before, buf.capacity());
        Matrix::from_vec(rows, cols, buf)
    }

    /// Account buffer growth against this workspace and fold the footprint
    /// into the process-wide high-water mark. One branch on the hot path;
    /// the atomic is only touched when an allocation actually happened.
    #[inline]
    fn note_growth(&mut self, cap_before: usize, cap_after: usize) {
        if cap_after > cap_before {
            self.bytes += ((cap_after - cap_before) * std::mem::size_of::<f32>()) as u64;
            crate::profile::note_workspace_bytes(self.bytes);
        }
    }

    /// Returns a matrix's buffer to the pool for reuse.
    pub fn recycle(&mut self, m: Matrix) {
        self.pool.push(m.into_vec());
    }

    /// `A·B` into a pooled output buffer — the workspace counterpart of
    /// [`Matrix::matmul`], bitwise identical to it.
    pub fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = self.take(a.rows(), b.cols());
        tensor::matmul_into(MatOp::NN, a, b, &mut out);
        out
    }

    /// `A·B[:, lo..hi]` into a pooled output buffer — the workspace
    /// counterpart of [`Matrix::matmul_cols`], bitwise identical to it.
    pub fn matmul_cols(&mut self, a: &Matrix, b: &Matrix, lo: usize, hi: usize) -> Matrix {
        let mut out = self.take(a.rows(), hi - lo);
        tensor::matmul_into(MatOp::Cols(lo, hi), a, b, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::seeded_matrix;

    #[test]
    fn take_returns_zeroed_buffers_and_reuses_them() {
        let mut ws = Workspace::new();
        let mut m = ws.take(3, 4);
        assert_eq!(m.as_slice(), &[0.0; 12]);
        m.fill(7.0);
        ws.recycle(m);
        assert_eq!(ws.pooled(), 1);
        // Recycled storage comes back zeroed even at a different shape.
        let again = ws.take(2, 5);
        assert_eq!(ws.pooled(), 0);
        assert_eq!(again.as_slice(), &[0.0; 10]);
    }

    #[test]
    fn workspace_matmuls_are_bitwise_identical_to_matrix_matmuls() {
        let a = seeded_matrix(9, 17, 1);
        let b = seeded_matrix(17, 13, 2);
        let mut ws = Workspace::new();
        assert_eq!(ws.matmul(&a, &b), a.matmul(&b));
        assert_eq!(ws.matmul_cols(&a, &b, 3, 11), a.matmul_cols(&b, 3, 11));
        // And again through recycled buffers.
        let y = ws.matmul(&a, &b);
        ws.recycle(y);
        assert_eq!(ws.matmul(&a, &b), a.matmul(&b));
    }
}
