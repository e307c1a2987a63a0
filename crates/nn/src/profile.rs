//! Cheap, always-on profiling counters for the GEMM core.
//!
//! The serving stack wants to know *which* compute paths a workload is
//! exercising — GEMV fast path vs. blocked packed core, SIMD vs. scalar
//! microkernel — plus cumulative FLOP counts and the workspace memory
//! high-water mark, without nn depending on any observability crate. The
//! answer is a handful of process-global relaxed atomics: recording is one
//! `fetch_add` per matmul dispatch (noise next to the matmul itself), and
//! scrapers pull a [`snapshot`] whenever they render metrics.
//!
//! Counters are cumulative since process start (or the last [`reset`], which
//! exists for tests and benches). They deliberately count only the
//! *auto-dispatched* serial core — the serving path — not the forced-path
//! bench entry points, so dispatch counts answer "what did real traffic
//! run", not "what did a parity harness run".

// ORDERING (max 15): Relaxed fetch_adds on process-global kernel profiling counters; snapshots are
// monotone and tolerate torn cross-counter reads by design
use std::sync::atomic::{AtomicU64, Ordering};

use crate::gemm::Kernel;

static GEMV_SCALAR: AtomicU64 = AtomicU64::new(0);
static GEMV_SIMD: AtomicU64 = AtomicU64::new(0);
static BLOCKED_SCALAR: AtomicU64 = AtomicU64::new(0);
static BLOCKED_SIMD: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static WORKSPACE_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the profiling counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Auto-dispatched matmuls that took the GEMV fast path, scalar kernel.
    pub gemv_scalar: u64,
    /// Auto-dispatched matmuls that took the GEMV fast path, SIMD kernel.
    pub gemv_simd: u64,
    /// Auto-dispatched matmuls that took the blocked packed core, scalar kernel.
    pub blocked_scalar: u64,
    /// Auto-dispatched matmuls that took the blocked packed core, SIMD kernel.
    pub blocked_simd: u64,
    /// Cumulative floating-point operations (2·m·k·n per dispatch).
    pub flops: u64,
    /// Largest buffer-pool footprint (bytes) any single [`crate::workspace::Workspace`]
    /// has grown to.
    pub workspace_high_water_bytes: u64,
}

impl ProfileSnapshot {
    /// Dispatch counts as `(path, kernel, count)` rows, every combination
    /// present (zeros included) so exposition series are stable.
    pub fn dispatch_rows(&self) -> [(&'static str, &'static str, u64); 4] {
        [
            ("gemv", "scalar", self.gemv_scalar),
            ("gemv", "avx2+fma", self.gemv_simd),
            ("blocked", "scalar", self.blocked_scalar),
            ("blocked", "avx2+fma", self.blocked_simd),
        ]
    }
}

/// Record one auto-dispatched serial matmul: which core ran, under which
/// kernel, and its `2·m·k·n` FLOP cost.
#[inline]
pub(crate) fn note_dispatch(gemv: bool, kernel: Kernel, m: usize, k: usize, n: usize) {
    let counter = match (gemv, kernel) {
        (true, Kernel::Scalar) => &GEMV_SCALAR,
        (true, Kernel::Avx2Fma) => &GEMV_SIMD,
        (false, Kernel::Scalar) => &BLOCKED_SCALAR,
        (false, Kernel::Avx2Fma) => &BLOCKED_SIMD,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    FLOPS.fetch_add(2 * (m as u64) * (k as u64) * (n as u64), Ordering::Relaxed);
}

/// Fold one workspace's current buffer-pool footprint into the global
/// high-water mark.
#[inline]
pub(crate) fn note_workspace_bytes(bytes: u64) {
    WORKSPACE_HIGH_WATER.fetch_max(bytes, Ordering::Relaxed);
}

/// Copy the current counter values.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot {
        gemv_scalar: GEMV_SCALAR.load(Ordering::Relaxed),
        gemv_simd: GEMV_SIMD.load(Ordering::Relaxed),
        blocked_scalar: BLOCKED_SCALAR.load(Ordering::Relaxed),
        blocked_simd: BLOCKED_SIMD.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
        workspace_high_water_bytes: WORKSPACE_HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// Zero all counters. For tests and bench harnesses; racing concurrent
/// matmuls may land increments on either side of the reset.
pub fn reset() {
    GEMV_SCALAR.store(0, Ordering::Relaxed);
    GEMV_SIMD.store(0, Ordering::Relaxed);
    BLOCKED_SCALAR.store(0, Ordering::Relaxed);
    BLOCKED_SIMD.store(0, Ordering::Relaxed);
    FLOPS.store(0, Ordering::Relaxed);
    WORKSPACE_HIGH_WATER.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global; this single test exercises dispatch,
    // FLOP accounting, and the workspace high-water mark in one sequential
    // body so parallel test threads in *this* module can't interleave.
    // (Other test binaries' matmuls only ever add counts, which the >=
    // assertions tolerate.)
    #[test]
    fn dispatch_flops_and_high_water_accumulate() {
        let before = snapshot();

        // 2x3 · 3x4: m=2 <= GEMV_MAX_M, so this is a GEMV dispatch.
        let a = crate::tensor::Matrix::from_vec(2, 3, vec![1.0; 6]);
        let b = crate::tensor::Matrix::from_vec(3, 4, vec![1.0; 12]);
        let _ = a.matmul(&b);

        // 16x3 · 3x4: m=16 > GEMV_MAX_M, so this is a blocked dispatch.
        let big = crate::tensor::Matrix::from_vec(16, 3, vec![1.0; 48]);
        let _ = big.matmul(&b);

        let after = snapshot();
        let gemv_delta = (after.gemv_scalar + after.gemv_simd) - (before.gemv_scalar + before.gemv_simd);
        let blocked_delta = (after.blocked_scalar + after.blocked_simd) - (before.blocked_scalar + before.blocked_simd);
        assert!(gemv_delta >= 1, "small-M matmul must count as a GEMV dispatch");
        assert!(blocked_delta >= 1, "large-M matmul must count as a blocked dispatch");
        // 2*2*3*4 + 2*16*3*4 = 48 + 384.
        assert!(after.flops - before.flops >= 432, "FLOP accounting undercounts");

        let mut ws = crate::workspace::Workspace::new();
        let m = ws.take(64, 64);
        ws.recycle(m);
        assert!(
            snapshot().workspace_high_water_bytes >= 64 * 64 * 4,
            "workspace growth must raise the high-water mark"
        );

        // Rows cover every (path, kernel) combination, zeros included.
        assert_eq!(snapshot().dispatch_rows().len(), 4);
    }
}
