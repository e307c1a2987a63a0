//! Streaming latency percentiles: a fixed-capacity sliding window of the
//! most recent per-request latencies, summarized as p50/p95/p99 on demand.
//!
//! The window keeps recency semantics (exactly the last *N* requests count,
//! older ones are forgotten) but stores each sample as its [`lmkg_obs`]
//! log-bucket index rather than its raw value: a `u16` ring for eviction
//! order plus a fixed bucket-count array. Recording is O(1), and
//! summarizing walks the fixed bucket array — O(buckets), not the
//! O(N log N) sort-a-copy the first implementation paid per scrape. The
//! price is resolution: a reported percentile is the upper bound of the
//! bucket holding the exact rank, at most
//! [`lmkg_obs::RELATIVE_ERROR_BOUND`] (≈9.05%) above the exact sample value
//! (with sub-microsecond samples floored to 1µs).

use std::collections::VecDeque;
use std::fmt;

use lmkg_obs::hist::{bucket_bound, bucket_index, HistSnapshot, NUM_BUCKETS};

/// Nearest-rank percentile of an ascending-sorted slice. `p` is in percent
/// (e.g. `99.0`). Returns 0.0 for an empty slice. This is the *exact*
/// reference the bucketed [`SlidingWindow`] is tested against, for callers
/// that have the full sample vector in hand.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bounded window of the most recent latency samples (microseconds),
/// bucketed on ingest.
#[derive(Debug)]
pub struct SlidingWindow {
    cap: usize,
    ring: VecDeque<u16>,
    counts: Vec<u32>,
}

impl SlidingWindow {
    /// Creates a window retaining the last `cap` samples.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be positive");
        Self {
            cap,
            ring: VecDeque::with_capacity(cap),
            counts: vec![0; NUM_BUCKETS],
        }
    }

    /// Records one sample, evicting the oldest when full. O(1): one bucket
    /// lookup, one ring push, two array updates.
    pub fn record(&mut self, micros: f64) {
        if self.ring.len() == self.cap {
            if let Some(evicted) = self.ring.pop_front() {
                self.counts[evicted as usize] -= 1;
            }
        }
        let idx = bucket_index(micros) as u16;
        self.ring.push_back(idx);
        self.counts[idx as usize] += 1;
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// (p50, p95, p99) over the current window, in microseconds. One walk
    /// over the fixed bucket array resolves all three ranks.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        let n = self.ring.len() as u64;
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        let rank = |p: f64| (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let (r50, r95, r99) = (rank(50.0), rank(95.0), rank(99.0));
        let (mut p50, mut p95, mut p99) = (None, None, None);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c as u64;
            let bound = bucket_bound(i);
            if p50.is_none() && seen >= r50 {
                p50 = Some(bound);
            }
            if p95.is_none() && seen >= r95 {
                p95 = Some(bound);
            }
            if p99.is_none() && seen >= r99 {
                p99 = Some(bound);
                break;
            }
        }
        let last = bucket_bound(NUM_BUCKETS - 1);
        (p50.unwrap_or(last), p95.unwrap_or(last), p99.unwrap_or(last))
    }

    /// The window's bucket counts as a mergeable snapshot (for the METRICS
    /// exposition, which renders the recent-window latency distribution as
    /// a histogram). `sum` is approximated from bucket bounds — the raw
    /// values are not retained.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut sum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            sum += (bucket_bound(i) as u64).saturating_mul(c as u64);
        }
        HistSnapshot {
            buckets: self.counts.iter().map(|&c| c as u64).collect(),
            count: self.ring.len() as u64,
            sum,
        }
    }
}

/// A point-in-time summary of a serving run: request counters plus the
/// latency percentiles of the sliding window. This is what a `STATS` request
/// returns and what the server prints at shutdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests answered with an estimate.
    pub served: u64,
    /// Requests shed by admission control (queue full).
    pub shed: u64,
    /// Batched forwards executed (`served / batches` = mean batch size).
    pub batches: u64,
    /// Retrain events: times the adapter published an extended model set.
    pub retrains: u64,
    /// Models added across all retrain events.
    pub models_added: u64,
    /// Models evicted to stay under the tenant's memory budget.
    pub evicted: u64,
    /// Generation of the last model-store snapshot published for this
    /// tenant (0 when the tenant has no store, or before the first publish).
    pub generation: u64,
    /// Memory footprint of the currently published model, bytes — reflects
    /// quantized deployments honestly (it shrinks when a quantized framework
    /// is served) and follows adapter swaps.
    pub model_bytes: u64,
    /// Total-variation distance of the last drift evaluation (0 before one).
    pub drift_tv: f64,
    /// Uncovered-query share of the last drift evaluation (0 before one).
    pub drift_uncovered: f64,
    /// Median latency over the window, microseconds (log-bucket resolution).
    pub p50_us: f64,
    /// 95th-percentile latency over the window, microseconds (log-bucket
    /// resolution).
    pub p95_us: f64,
    /// 99th-percentile latency over the window, microseconds (log-bucket
    /// resolution).
    pub p99_us: f64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served={} shed={} batches={} retrains={} added={} evicted={} gen={} model={} tv={} uncovered={} p50us={} p95us={} p99us={}",
            self.served,
            self.shed,
            self.batches,
            self.retrains,
            self.models_added,
            self.evicted,
            self.generation,
            self.model_bytes,
            self.drift_tv,
            self.drift_uncovered,
            self.p50_us,
            self.p95_us,
            self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_obs::RELATIVE_ERROR_BOUND;

    /// Reported percentile must bracket the exact value from above within
    /// one bucket's relative error (exact values ≤ 1µs floor to 1.0).
    fn assert_within_bucket(reported: f64, exact: f64) {
        let exact = exact.max(1.0);
        assert!(reported >= exact, "reported {reported} < exact {exact}");
        assert!(
            reported <= exact * (1.0 + RELATIVE_ERROR_BOUND),
            "reported {reported} exceeds exact {exact} by more than one bucket"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn window_slides() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.record(x);
        }
        // 1.0 evicted: window = [2, 3, 4]; exact p50 is 3.0, p95/p99 are 4.0.
        assert_eq!(w.len(), 3);
        let (p50, p95, p99) = w.percentiles();
        assert_within_bucket(p50, 3.0);
        assert_within_bucket(p95, 4.0);
        assert_within_bucket(p99, 4.0);
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn window_percentiles_track_exact_within_error_bound() {
        let mut w = SlidingWindow::new(256);
        let mut samples: Vec<f64> = Vec::new();
        // A skewed stream with the head shifted out of the window.
        for i in 0..400 {
            let v = 1.0 + (i % 97) as f64 * 13.7 + if i % 50 == 0 { 5000.0 } else { 0.0 };
            w.record(v);
            samples.push(v);
        }
        let recent = &samples[samples.len() - 256..];
        let mut sorted = recent.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p50, p95, p99) = w.percentiles();
        assert_within_bucket(p50, percentile(&sorted, 50.0));
        assert_within_bucket(p95, percentile(&sorted, 95.0));
        assert_within_bucket(p99, percentile(&sorted, 99.0));
    }

    #[test]
    fn window_snapshot_counts_match() {
        let mut w = SlidingWindow::new(4);
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            w.record(x);
        }
        let s = w.snapshot();
        assert_eq!(s.count, 4, "eviction must be reflected in the snapshot");
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn snapshot_displays_all_fields() {
        let s = StatsSnapshot {
            served: 10,
            shed: 2,
            batches: 3,
            retrains: 1,
            models_added: 2,
            evicted: 4,
            generation: 6,
            model_bytes: 4096,
            drift_tv: 0.75,
            drift_uncovered: 0.5,
            p50_us: 1.5,
            p95_us: 2.5,
            p99_us: 3.5,
        };
        assert_eq!(
            s.to_string(),
            "served=10 shed=2 batches=3 retrains=1 added=2 evicted=4 gen=6 model=4096 tv=0.75 uncovered=0.5 p50us=1.5 p95us=2.5 p99us=3.5"
        );
    }
}
