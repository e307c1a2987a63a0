//! The single source of truth for every `lmkg_*` series the stack can
//! expose: each row names a family, gives its exposition kind and carries
//! the exact `# HELP` text `METRICS` sends. [`crate::expose`] renders every
//! family from its row through [`lmkg_obs::Expo`], so no renderer spells a
//! series name or a help string, and
//! `tests/tests/metrics_surface.rs` asserts a live `METRICS` scrape carries
//! exactly these families with exactly these help lines.
//!
//! Adding a metric is one row here plus the render call that supplies its
//! value.

pub use lmkg_obs::{MetricDef, MetricKind};

/// Declares one `pub const` [`MetricDef`] per row (documented by its help
/// text) and [`REGISTRY`], the rows in exposition order.
macro_rules! registry {
    ($($id:ident: $kind:ident $name:literal $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: MetricDef = MetricDef {
                name: $name,
                kind: MetricKind::$kind,
                help: $help,
            };
        )*
        /// Every series family any exposition in the workspace may render.
        pub const REGISTRY: &[MetricDef] = &[$($id),*];
    };
}

registry! {
    UPTIME_SECONDS: Gauge "lmkg_uptime_seconds"
        "Seconds since the serving stats were created";
    REQUESTS_SERVED: Counter "lmkg_requests_served_total"
        "Requests answered with an estimate";
    REQUESTS_SHED: Counter "lmkg_requests_shed_total"
        "Requests shed by admission control";
    PARSE_ERRORS: Counter "lmkg_parse_errors_total"
        "Request lines rejected by the protocol parser";
    BATCHES: Counter "lmkg_batches_total"
        "Batched forwards executed";
    SESSIONS: Counter "lmkg_sessions_total"
        "Sessions opened since start";
    SESSIONS_ACTIVE: Gauge "lmkg_sessions_active"
        "Sessions currently open";
    BYTES_READ: Counter "lmkg_bytes_read_total"
        "Request bytes read from all transports";
    BYTES_WRITTEN: Counter "lmkg_bytes_written_total"
        "Reply bytes written to all transports";
    QUEUE_DEPTH: Gauge "lmkg_queue_depth"
        "Admitted jobs currently waiting in the bounded queue";
    QUEUE_CAPACITY: Gauge "lmkg_queue_capacity"
        "Configured admission-queue capacity (the tenant's quota)";
    MODEL_BYTES: Gauge "lmkg_model_bytes"
        "Memory footprint of the currently published model";
    RETRAINS: Counter "lmkg_retrains_total"
        "Adapter retrain events that published an extended model";
    MODELS_ADDED: Counter "lmkg_models_added_total"
        "Models added across all retrain events";
    MODELS_EVICTED: Counter "lmkg_models_evicted_total"
        "Models dropped by memory-budget eviction, startup included";
    SNAPSHOT_GENERATION: Gauge "lmkg_snapshot_generation"
        "Model-store generation holding the served set (0 = not persisted)";
    DRIFT_TV: Gauge "lmkg_drift_tv"
        "Total-variation distance of the last drift evaluation";
    DRIFT_UNCOVERED: Gauge "lmkg_drift_uncovered"
        "Uncovered-query share of the last drift evaluation";
    STAGE_US: Histogram "lmkg_stage_us"
        "Per-stage request latency breakdown, microseconds (admission/batch/forward/reply laps tile the request's life)";
    BATCH_SIZE: Histogram "lmkg_batch_size"
        "Requests coalesced per batched forward";
    REQUEST_LATENCY_US: Histogram "lmkg_request_latency_us"
        "Submit-to-reply latency of every served request, microseconds";
    RETRAIN_DURATION_US: Histogram "lmkg_retrain_duration_us"
        "Wall-clock duration of adapter retrain cycles, microseconds";
    KERNEL_DISPATCH: Counter "lmkg_kernel_dispatch_total"
        "Auto-dispatched serial matmuls by compute path (gemv fast path vs blocked packed core) and kernel";
    KERNEL_FLOPS: Counter "lmkg_kernel_flops_total"
        "Floating-point operations issued by auto-dispatched matmuls (2*m*k*n each)";
    WORKSPACE_HIGH_WATER_BYTES: Gauge "lmkg_workspace_high_water_bytes"
        "Largest buffer-pool footprint any single inference workspace has grown to";
    KERNEL_ACTIVE: Info "lmkg_kernel_active"
        "The runtime-dispatched kernel";
    EVENTS: Counter "lmkg_events_total"
        "Structured events recorded, by kind (including evicted ring entries)";
    EVENTS_BY_LEVEL: Counter "lmkg_events_by_level_total"
        "Structured events recorded, by severity level";
}

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
