//! Constant-memory log-bucketed histograms.
//!
//! The serving stack needs latency distributions that can be recorded on the
//! hot path (no allocation, no locks) and scraped cheaply (O(buckets), not
//! O(samples)). The classic answer is a log-bucket histogram: bucket `i`
//! covers the half-open interval `(base^(i-1), base^i]`, so the number of
//! buckets needed to span microseconds-to-days is fixed at compile time and
//! every recorded value lands within a bounded *relative* error of its
//! bucket's upper bound.
//!
//! We use `base = 2^(1/8)`: eight sub-buckets per octave. Reporting a
//! bucket's upper bound therefore over-estimates any value in the bucket by
//! at most `2^(1/8) - 1 ≈ 9.05%`, which is [`RELATIVE_ERROR_BOUND`]. With
//! [`NUM_BUCKETS`]` = 322` buckets (one underflow bucket for values ≤ 1, 320
//! log buckets spanning `(1, 2^40]`, one overflow bucket) a histogram covers
//! one microsecond to ~12.7 days of latency in ~2.5 KiB of atomics.
//!
//! Two flavours share the bucketing:
//!
//! - [`Histogram`]: atomic buckets, `&self` recording from any thread.
//! - [`ShardedHistogram`]: one [`Histogram`] per worker shard so concurrent
//!   recorders never contend on the same cache lines; shards are merged at
//!   scrape time ([`ShardedHistogram::snapshot`]).
//!
//! Histograms are mergeable: recording a stream into two histograms and
//! adding them bucket-wise is exactly recording the concatenated stream into
//! one (the property tests pin this down).

// ORDERING (max 10): Relaxed per-shard bucket fetch_adds; merge sums monotone counters and no
// reader orders itself on a bucket value
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two: the bucket base is `2^(1/SUB_PER_OCTAVE)`.
pub const SUB_PER_OCTAVE: usize = 8;

/// Number of log buckets above the underflow bucket (spans `(1, 2^40]`).
const LOG_BUCKETS: usize = 40 * SUB_PER_OCTAVE;

/// Total bucket count: underflow (`v <= 1`) + log buckets + overflow.
pub const NUM_BUCKETS: usize = LOG_BUCKETS + 2;

/// Worst-case relative over-estimate when reporting a bucket's upper bound
/// for a value inside the bucket: `2^(1/8) - 1`.
pub const RELATIVE_ERROR_BOUND: f64 = 0.090_507_732_665_257_66;

/// Upper bound of bucket `i` (inclusive). Bucket 0 is the underflow bucket
/// with bound 1.0; the final bucket is the overflow bucket, reported as the
/// largest representable bound.
#[inline]
pub fn bucket_bound(i: usize) -> f64 {
    let i = i.min(NUM_BUCKETS - 1);
    (i as f64 / SUB_PER_OCTAVE as f64).exp2()
}

/// Map a value to its bucket index such that
/// `bucket_bound(i - 1) < v <= bucket_bound(i)` for in-range values.
///
/// Non-finite and non-positive values land in the underflow bucket; values
/// above `2^40` land in the overflow bucket. The `log2`-based index is
/// corrected against the exact bounds so float rounding near bucket edges
/// never misplaces a value.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 1.0 {
        return 0;
    }
    let mut i = (v.log2() * SUB_PER_OCTAVE as f64).ceil() as usize;
    i = i.clamp(1, NUM_BUCKETS - 1);
    // Guard against log2 rounding at bucket edges: enforce the invariant
    // bound(i-1) < v <= bound(i). At most one step in either direction.
    while i > 1 && bucket_bound(i - 1) >= v {
        i -= 1;
    }
    while i < NUM_BUCKETS - 1 && bucket_bound(i) < v {
        i += 1;
    }
    i
}

/// An immutable copy of a histogram's state, taken at scrape time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts, indexed like [`bucket_bound`].
    pub buckets: Vec<u64>,
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of recorded values, truncated to integer units per sample.
    pub sum: u64,
}

impl HistSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket-wise merge of another snapshot into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the upper
    /// bound of the bucket holding the rank-th smallest sample. Returns 0.0
    /// for an empty snapshot. The result over-estimates the exact sample
    /// quantile by at most [`RELATIVE_ERROR_BOUND`] (values ≤ 1 are floored
    /// to the underflow bound of 1.0).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(NUM_BUCKETS - 1)
    }

    /// Mean of the recorded values (from the truncated sum), 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A lock-free log-bucket histogram. Recording is three relaxed atomic adds;
/// scraping copies the fixed bucket array.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram with all buckets empty.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value. Never allocates; safe from any thread through
    /// `&self`. The `_sum` series truncates each value to integer units.
    #[inline]
    pub fn record(&self, v: f64) {
        let i = bucket_index(v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum
            .fetch_add(if v > 0.0 { v as u64 } else { 0 }, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state. Buckets are read individually with relaxed
    /// ordering, so a snapshot taken during concurrent recording is a
    /// consistent-enough view: every sample is counted exactly once by some
    /// snapshot at or after its record.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Reset all buckets to zero (tests and bench harnesses only — resets
    /// racing concurrent recorders may strand a sample in `count` vs its
    /// bucket).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A set of per-thread [`Histogram`] shards merged at scrape time.
///
/// Each recording thread (e.g. a batcher worker) owns one shard index and
/// records through [`ShardedHistogram::shard`], so concurrent recorders touch
/// disjoint atomics. Threads without a reserved shard can still record
/// through any index — correctness never depends on exclusivity, only cache
/// behaviour does.
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: Vec<Histogram>,
}

impl ShardedHistogram {
    /// A sharded histogram with `shards.max(1)` independent shards.
    pub fn new(shards: usize) -> Self {
        ShardedHistogram {
            shards: (0..shards.max(1)).map(|_| Histogram::new()).collect(),
        }
    }

    /// The shard for recorder `i` (wraps around, so any index is valid).
    #[inline]
    pub fn shard(&self, i: usize) -> &Histogram {
        &self.shards[i % self.shards.len()]
    }

    /// Record into recorder `i`'s shard.
    #[inline]
    pub fn record(&self, i: usize, v: f64) {
        self.shard(i).record(v);
    }

    /// Total sample count across all shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count()).sum()
    }

    /// Merge all shards into one snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut merged = HistSnapshot::empty();
        for s in &self.shards {
            merged.merge(&s.snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact() {
        // Exact powers of two sit on bucket upper bounds.
        for oct in 0..40 {
            let v = (oct as f64).exp2();
            let i = bucket_index(v);
            assert_eq!(bucket_bound(i), v, "2^{oct} must map to its own bound");
        }
        // The invariant bound(i-1) < v <= bound(i) holds around edges.
        for i in 1..NUM_BUCKETS - 1 {
            let b = bucket_bound(i);
            assert_eq!(bucket_index(b), i);
            assert_eq!(bucket_index(b * 1.000001), i + 1);
        }
    }

    #[test]
    fn degenerate_values_go_to_underflow() {
        for v in [0.0, -3.0, 0.5, 1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(bucket_index(v), 0, "{v} should underflow");
        }
        assert_eq!(bucket_index(f64::INFINITY), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1e30), NUM_BUCKETS - 1);
    }

    #[test]
    fn percentile_bounds_a_known_stream() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // Exact p50 (nearest rank) is 5.0; reported value is its bucket
        // bound, within the relative error bound.
        let p50 = s.percentile(50.0);
        assert!((5.0..=5.0 * (1.0 + RELATIVE_ERROR_BOUND)).contains(&p50), "p50 {p50}");
        let p100 = s.percentile(100.0);
        assert!(
            (10.0..=10.0 * (1.0 + RELATIVE_ERROR_BOUND)).contains(&p100),
            "p100 {p100}"
        );
        assert_eq!(s.percentile(0.0), s.percentile(10.0), "rank floors at the first sample");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn sharded_merge_equals_total() {
        let sh = ShardedHistogram::new(4);
        for i in 0..100 {
            sh.record(i, (i + 1) as f64);
        }
        assert_eq!(sh.count(), 100);
        assert_eq!(sh.snapshot().count, 100);
    }
}
