//! The `METRICS` exposition: every observable the serving stack records,
//! rendered as Prometheus-style text.
//!
//! This is the composition point between the generic [`lmkg_obs`]
//! primitives and LMKG's own series, which are named, typed and described
//! only in [`crate::metrics_registry`]: each family here is one row handed
//! a value. One call to [`render_metrics`] scrapes:
//!
//! - the request counters and the submit-to-reply latency distribution
//!   ([`ServeStats`]),
//! - the four pipeline stage histograms (`admission`/`batch`/`forward`/
//!   `reply`) and the batch-size distribution,
//! - session, byte, and parse-error counters plus the queue-depth gauge,
//! - the model lifecycle: published model bytes, retrain / added / evicted
//!   counters, the persisted snapshot generation, the adapter's drift gauges
//!   and retrain-duration histogram,
//! - `lmkg-nn`'s process-global profiling counters (kernel dispatches by
//!   path and kernel, FLOPs, workspace high-water mark),
//! - the structured event ring (per-kind counters, then `# EVENT` lines).
//!
//! The returned text has no trailing `# EOF`; the protocol layer's
//! [`crate::protocol::Reply::Metrics`] appends the sentinel when framing.

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::batcher::{ServeStats, STAGE_NAMES};
use crate::metrics_registry as m;
use lmkg_obs::Expo;

/// Render the unlabeled (v1) exposition for one server — the `default`
/// tenant's view, byte-compatible with pre-v2 scrapers.
pub fn render_metrics(stats: &ServeStats) -> String {
    render_metrics_for(None, stats)
}

/// Render the exposition for one tenant's stats shard. With
/// `tenant = Some(name)` every per-tenant series carries a
/// `tenant="name"` label (what a v2 `METRICS <tenant> <id>` request
/// scrapes); with `None` the series are unlabeled and the process-global
/// kernel-profile section is appended — those counters are shared by every
/// tenant (one GEMM core serves them all), so they only belong in the
/// unlabeled exposition where they can't be misread as per-tenant.
///
/// Every family is rendered from its [`crate::metrics_registry`] row. All
/// scrapes are snapshots — concurrent traffic keeps flowing while this
/// walks the fixed bucket arrays.
pub fn render_metrics_for(tenant: Option<&str>, stats: &ServeStats) -> String {
    let scope = match tenant {
        Some(name) => format!("tenant=\"{name}\","),
        None => String::new(),
    };
    let scope = scope.as_str();
    let snapshot = stats.snapshot();
    let mut e = Expo::new();

    e.scalar(&m::UPTIME_SECONDS, scope, stats.uptime_seconds());
    e.scalar(&m::REQUESTS_SERVED, scope, snapshot.served);
    e.scalar(&m::REQUESTS_SHED, scope, snapshot.shed);
    e.scalar(&m::PARSE_ERRORS, scope, stats.parse_errors.get());
    e.scalar(&m::BATCHES, scope, snapshot.batches);
    e.scalar(&m::SESSIONS, scope, stats.sessions.get());
    e.scalar(&m::SESSIONS_ACTIVE, scope, stats.sessions_active.get());
    e.scalar(&m::BYTES_READ, scope, stats.bytes_in.get());
    e.scalar(&m::BYTES_WRITTEN, scope, stats.bytes_out.get());

    e.scalar(&m::QUEUE_DEPTH, scope, stats.queue_len());
    e.scalar(&m::QUEUE_CAPACITY, scope, stats.queue_capacity());

    e.scalar(&m::MODEL_BYTES, scope, snapshot.model_bytes);
    e.scalar(&m::RETRAINS, scope, snapshot.retrains);
    e.scalar(&m::MODELS_ADDED, scope, snapshot.models_added);
    e.scalar(&m::MODELS_EVICTED, scope, snapshot.evicted);
    e.scalar(&m::SNAPSHOT_GENERATION, scope, snapshot.generation);
    e.scalar(&m::DRIFT_TV, scope, snapshot.drift_tv);
    e.scalar(&m::DRIFT_UNCOVERED, scope, snapshot.drift_uncovered);

    // Stage-level latency: one histogram family, one label value per stage
    // (the tenant scope, when present, prefixes each stage label).
    let stages: Vec<(String, _)> = STAGE_NAMES
        .iter()
        .zip(&stats.stages)
        .map(|(stage, hist)| (format!("{scope}stage=\"{stage}\","), hist.snapshot()))
        .collect();
    e.histogram(&m::STAGE_US, &stages);
    e.histogram(&m::BATCH_SIZE, &[(scope.to_string(), stats.batch_size.snapshot())]);
    e.histogram(
        &m::REQUEST_LATENCY_US,
        &[(scope.to_string(), stats.request_us.snapshot())],
    );
    e.histogram(
        &m::RETRAIN_DURATION_US,
        &[(scope.to_string(), stats.retrain_us.snapshot())],
    );

    if tenant.is_none() {
        // lmkg-nn's process-global profiling counters. Process-wide by
        // design: training, adaptation, and serving for every tenant all
        // flow through the same GEMM core — so these render only in the
        // unlabeled exposition, never under a tenant label.
        let profile = lmkg_nn::profile::snapshot();
        let dispatch: Vec<(String, u64)> = profile
            .dispatch_rows()
            .iter()
            .map(|(path, kernel, n)| (format!("path=\"{path}\",kernel=\"{kernel}\","), *n))
            .collect();
        e.family(&m::KERNEL_DISPATCH, &dispatch);
        e.scalar(&m::KERNEL_FLOPS, "", profile.flops);
        e.scalar(&m::WORKSPACE_HIGH_WATER_BYTES, "", profile.workspace_high_water_bytes);
        e.info(&m::KERNEL_ACTIVE, lmkg_nn::gemm::active_kernel().name());
    }

    e.events(&m::EVENTS, &m::EVENTS_BY_LEVEL, scope, stats.events());
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{BatchConfig, Job, MicroBatcher};
    use crate::protocol::Reply;
    use lmkg::CardinalityEstimator;
    use lmkg_store::{NodeTerm, PredTerm, Query, TriplePattern, VarId};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    struct One;
    impl CardinalityEstimator for One {
        fn name(&self) -> &str {
            "one"
        }
        fn estimate(&self, _q: &Query) -> f64 {
            1.0
        }
        fn memory_bytes(&self) -> usize {
            64
        }
    }

    fn tiny_query() -> Query {
        Query::new(vec![TriplePattern::new(
            NodeTerm::Var(VarId(0)),
            PredTerm::Bound(lmkg_store::PredId(0)),
            NodeTerm::Var(VarId(1)),
        )])
    }

    /// Serve a few requests through an instrumented batcher and check the
    /// exposition carries every series family.
    #[test]
    fn exposition_covers_all_series_families() {
        let batcher = MicroBatcher::start(
            Arc::new(One),
            BatchConfig {
                max_batch: 4,
                queue_depth: 64,
                workers: 2,
            },
            None,
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..6 {
            batcher
                .submit(Job::new(format!("q{i}"), tiny_query(), tx.clone()))
                .unwrap();
        }
        for _ in 0..6 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = batcher.stats();
        stats.note_parse_error("EST with no id");
        stats.note_session_start();

        let text = render_metrics(&stats);
        for needle in [
            "# TYPE lmkg_requests_served_total counter",
            "lmkg_requests_served_total 6",
            "lmkg_parse_errors_total 1",
            "lmkg_sessions_active 1",
            "lmkg_queue_capacity 64",
            "lmkg_stage_us_bucket{stage=\"admission\",le=",
            "lmkg_stage_us_count{stage=\"batch\"}",
            "lmkg_stage_us_count{stage=\"forward\"} ",
            "lmkg_stage_us_count{stage=\"reply\"} ",
            "lmkg_batch_size_count ",
            "lmkg_request_latency_us_count 6",
            "lmkg_kernel_dispatch_total{path=\"gemv\",kernel=\"scalar\"}",
            "lmkg_kernel_flops_total",
            "lmkg_workspace_high_water_bytes",
            "lmkg_events_total{kind=\"shed\"} 0",
            "lmkg_events_total{kind=\"parse_error\"} 1",
            "# EVENTS",
        ] {
            assert!(text.contains(needle), "exposition missing {needle:?}\n---\n{text}");
        }
        assert!(!text.contains("# EOF"), "the protocol layer owns the terminator");

        // Every forward is traced: the forward stage family saw samples.
        let forward_count: u64 = text
            .lines()
            .find(|l| l.starts_with("lmkg_stage_us_count{stage=\"forward\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(forward_count >= 1, "forward stage recorded no batches");

        // The exposition is parseable line-by-line: every non-comment line
        // is `name{labels} value` with a numeric value.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable sample value in {line:?}");
        }

        // A METRICS reply wraps this text with the framing header and EOF.
        let reply = Reply::Metrics { id: "m".into(), text };
        let wire = reply.to_string();
        assert!(wire.starts_with("METRICS m lines="));
        assert!(wire.ends_with("# EOF"));
    }

    /// The per-tenant exposition labels every series with `tenant="…"` and
    /// omits the process-global kernel-profile section (those counters are
    /// shared across tenants).
    #[test]
    fn tenant_exposition_labels_every_series() {
        let batcher = MicroBatcher::start(
            Arc::new(One),
            BatchConfig {
                max_batch: 4,
                queue_depth: 64,
                workers: 1,
            },
            None,
        );
        let (tx, rx) = mpsc::channel();
        batcher.submit(Job::new("q0".into(), tiny_query(), tx.clone())).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();

        let text = render_metrics_for(Some("lubm"), &batcher.stats());
        for needle in [
            "lmkg_requests_served_total{tenant=\"lubm\"} 1",
            "lmkg_queue_capacity{tenant=\"lubm\"} 64",
            "lmkg_stage_us_bucket{tenant=\"lubm\",stage=\"forward\",le=",
            "lmkg_stage_us_count{tenant=\"lubm\",stage=\"reply\"}",
            "lmkg_batch_size_count{tenant=\"lubm\"} 1",
            "lmkg_request_latency_us_count{tenant=\"lubm\"} 1",
            "lmkg_events_total{tenant=\"lubm\",kind=\"shed\"} 0",
        ] {
            assert!(
                text.contains(needle),
                "labeled exposition missing {needle:?}\n---\n{text}"
            );
        }
        // Every real sample line (not a comment) carries the tenant label.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            assert!(
                line.contains("tenant=\"lubm\""),
                "unlabeled sample in tenant exposition: {line:?}"
            );
        }
        // Kernel profiling is process-global — unlabeled exposition only.
        assert!(!text.contains("lmkg_kernel_dispatch_total"));
        assert!(!text.contains("lmkg_kernel_active"));
        assert!(render_metrics(&batcher.stats()).contains("lmkg_kernel_flops_total"));
    }
}
