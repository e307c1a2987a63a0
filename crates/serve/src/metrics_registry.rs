//! The single source of truth for every `lmkg_*` series the stack can
//! expose. Renderers ([`crate::expose`], the event families in
//! `lmkg-obs`, the kernel profile) construct names ad hoc; this table is
//! what keeps them honest:
//!
//! * `lmkg-xtask check` (L4) statically cross-checks every name built in
//!   a renderer string literal against this table, both directions — an
//!   unregistered series or an orphaned registry row fails the lint.
//! * `tests/tests/metrics_surface.rs` asserts a live `METRICS` scrape
//!   carries exactly these families, so the table can't drift from the
//!   runtime either.
//!
//! Adding a metric therefore takes two edits (renderer + this table) and
//! removing one takes two as well — the lint fails on a one-sided edit.

/// Exposition kind of a series family, mirroring the `# TYPE` header
/// (`Info` families render a `# HELP` line only, with no samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count; renders `# TYPE <name> counter`.
    Counter,
    /// Point-in-time value; renders `# TYPE <name> gauge`.
    Gauge,
    /// Log-bucketed distribution with `_bucket`/`_sum`/`_count` samples.
    Histogram,
    /// Help-only family (a `# HELP` line, no samples).
    Info,
}

impl MetricKind {
    /// The `# TYPE` keyword, or `None` for help-only info families.
    pub fn type_keyword(self) -> Option<&'static str> {
        match self {
            MetricKind::Counter => Some("counter"),
            MetricKind::Gauge => Some("gauge"),
            MetricKind::Histogram => Some("histogram"),
            MetricKind::Info => None,
        }
    }
}

/// One registered series family.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The family name as it appears on the wire (`lmkg_*`).
    pub name: &'static str,
    /// Exposition kind (the `# TYPE` keyword).
    pub kind: MetricKind,
    /// What the family measures — a reader-facing summary, not the
    /// exposition help text (that lives next to the renderer call).
    pub help: &'static str,
}

use MetricKind::{Counter, Gauge, Histogram, Info};

/// Every series family any exposition in the workspace may render.
pub const REGISTRY: &[MetricDef] = &[
    MetricDef {
        name: "lmkg_uptime_seconds",
        kind: Gauge,
        help: "seconds since the service started",
    },
    MetricDef {
        name: "lmkg_requests_served_total",
        kind: Counter,
        help: "estimates returned",
    },
    MetricDef {
        name: "lmkg_requests_shed_total",
        kind: Counter,
        help: "requests shed by admission control",
    },
    MetricDef {
        name: "lmkg_parse_errors_total",
        kind: Counter,
        help: "request lines that failed to parse",
    },
    MetricDef {
        name: "lmkg_batches_total",
        kind: Counter,
        help: "micro-batches forwarded",
    },
    MetricDef {
        name: "lmkg_sessions_total",
        kind: Counter,
        help: "sessions accepted",
    },
    MetricDef {
        name: "lmkg_sessions_active",
        kind: Gauge,
        help: "sessions currently open",
    },
    MetricDef {
        name: "lmkg_bytes_read_total",
        kind: Counter,
        help: "request bytes read",
    },
    MetricDef {
        name: "lmkg_bytes_written_total",
        kind: Counter,
        help: "reply bytes written",
    },
    MetricDef {
        name: "lmkg_queue_depth",
        kind: Gauge,
        help: "admission queue occupancy",
    },
    MetricDef {
        name: "lmkg_queue_capacity",
        kind: Gauge,
        help: "admission queue bound",
    },
    MetricDef {
        name: "lmkg_model_bytes",
        kind: Gauge,
        help: "resident model memory",
    },
    MetricDef {
        name: "lmkg_retrains_total",
        kind: Counter,
        help: "adaptation retrains published",
    },
    MetricDef {
        name: "lmkg_models_added_total",
        kind: Counter,
        help: "models added by adaptation",
    },
    MetricDef {
        name: "lmkg_models_evicted_total",
        kind: Counter,
        help: "models dropped by memory-budget eviction",
    },
    MetricDef {
        name: "lmkg_snapshot_generation",
        kind: Gauge,
        help: "model-store generation holding the served set",
    },
    MetricDef {
        name: "lmkg_drift_tv",
        kind: Gauge,
        help: "workload drift, total-variation distance",
    },
    MetricDef {
        name: "lmkg_drift_uncovered",
        kind: Gauge,
        help: "workload share not covered by a model",
    },
    MetricDef {
        name: "lmkg_stage_us",
        kind: Histogram,
        help: "per-stage latency (admission/batch/forward/reply)",
    },
    MetricDef {
        name: "lmkg_batch_size",
        kind: Histogram,
        help: "coalesced batch sizes",
    },
    MetricDef {
        name: "lmkg_request_latency_us",
        kind: Histogram,
        help: "submit-to-reply latency of served requests",
    },
    MetricDef {
        name: "lmkg_retrain_duration_us",
        kind: Histogram,
        help: "adaptation retrain wall time",
    },
    MetricDef {
        name: "lmkg_kernel_dispatch_total",
        kind: Counter,
        help: "matmuls by compute path and kernel",
    },
    MetricDef {
        name: "lmkg_kernel_flops_total",
        kind: Counter,
        help: "floating-point ops issued by matmuls",
    },
    MetricDef {
        name: "lmkg_workspace_high_water_bytes",
        kind: Gauge,
        help: "largest inference-workspace footprint",
    },
    MetricDef {
        name: "lmkg_kernel_active",
        kind: Info,
        help: "which SIMD kernel runtime dispatch selected",
    },
    MetricDef {
        name: "lmkg_events_total",
        kind: Counter,
        help: "structured events by kind",
    },
    MetricDef {
        name: "lmkg_events_by_level_total",
        kind: Counter,
        help: "structured events by severity",
    },
];

/// Looks up a family by exact name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate registry entries");
    }

    #[test]
    fn every_name_is_a_well_formed_lmkg_series() {
        for d in REGISTRY {
            assert!(
                d.name.starts_with("lmkg_")
                    && d.name
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "bad series name {:?}",
                d.name
            );
            assert!(!d.help.is_empty(), "{} has no help text", d.name);
        }
    }

    #[test]
    fn lookup_finds_registered_families() {
        assert_eq!(lookup("lmkg_stage_us").map(|d| d.kind), Some(MetricKind::Histogram));
        assert!(lookup("lmkg_nope").is_none());
    }
}
