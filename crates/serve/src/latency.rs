//! The `STATS` summary: [`StatsSnapshot`], the request counters and the
//! p50/p95/p99 of the server's one request-latency instrument — the
//! per-worker [`lmkg_obs::ShardedHistogram`] the batcher records every
//! submit-to-reply time into. The percentiles are cumulative since start and
//! carry the histogram's resolution: the upper bound of the bucket holding
//! the exact rank, at most [`lmkg_obs::RELATIVE_ERROR_BOUND`] (≈9.05%) above
//! the exact sample value (with sub-microsecond samples floored to 1µs).

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fmt;

/// A point-in-time summary of a serving run: request counters plus the
/// since-start percentiles of the request-latency histogram. This is what a
/// `STATS` request returns and what the server prints at shutdown.
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
    /// Median latency since start, microseconds (log-bucket resolution).
    pub p50_us: f64,
    /// 95th-percentile latency since start, microseconds (log-bucket
    /// resolution).
    pub p95_us: f64,
    /// 99th-percentile latency since start, microseconds (log-bucket
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
