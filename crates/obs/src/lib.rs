//! # lmkg-obs — lock-free observability core for the LMKG serving stack
//!
//! A dependency-free metrics layer built for a latency-sensitive serving
//! path: everything a request touches is wait-free (relaxed atomics, no
//! allocation), and everything expensive (merging, rendering, the event
//! ring's mutex) happens at scrape time or on rare operational events.
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] — single atomics with relaxed ordering.
//! - [`Histogram`] — constant-memory log-bucket histogram (base `2^(1/8)`,
//!   so scraped percentiles over-estimate exact sample quantiles by at most
//!   [`RELATIVE_ERROR_BOUND`] ≈ 9.05%). Mergeable by bucket-wise addition.
//! - [`ShardedHistogram`] — per-thread recorder shards merged at scrape
//!   time, so concurrent workers never share a cache line.
//! - [`StageTimer`] — span-style lap timer: consecutive laps tile a
//!   request's life into admission → batch → forward → reply stages.
//! - [`EventLog`] — fixed-capacity ring of structured events (shed, swap,
//!   retrain, parse error, shutdown) with per-kind counters and a leveled
//!   `LMKG_LOG` stderr filter.
//! - [`Expo`] — Prometheus-style text exposition renderer for all of the
//!   above, one family at a time from its [`MetricDef`] (name, kind, help).
//!
//! The crate is intentionally free of LMKG-specific names: the serving
//! crate declares its families as a table of [`MetricDef`]s and decides
//! what the series are called.

// No unsafe anywhere in this crate — enforced so the `SAFETY:` lints and
// the sanitizer jobs only ever have the nn kernels and the serve signal
// shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod expo;
pub mod hist;
pub mod metrics;

pub use events::{Event, EventLog, Level};
pub use expo::{Expo, MetricDef, MetricKind};
pub use hist::{
    bucket_bound, bucket_index, HistSnapshot, Histogram, ShardedHistogram, NUM_BUCKETS, RELATIVE_ERROR_BOUND,
    SUB_PER_OCTAVE,
};
pub use metrics::{Counter, Gauge, HighWater, StageTimer};
