//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics. `BENCHMARK.json` at the root of
//! the repository states the same lists; a test keeps the two in step.

pub const PACED: &str = "paced";
pub const PIPELINED: &str = "pipelined";
pub const CHURN: &str = "churn";
pub const BULK_S: &str = "bulk-s";
pub const BULK_U: &str = "bulk-u";
pub const WORKLOADS: [&str; 5] = [PACED, PIPELINED, CHURN, BULK_S, BULK_U];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// before it counts as a regression (absolute for `failed_share`).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// Reported by every workload, never zero: the set `BENCHMARK.json` lists.
///
/// The bounds of the four timing metrics are as wide as the benchmark
/// contract allows: on the shared reference box their run-to-run spread
/// (quartile distance over ten seeds) reaches 13 % on the noisiest workload,
/// and a bound has to clear that. The quality and size metrics repeat
/// exactly.
pub const END_TO_END: [EndToEnd; 8] = [
    lower("setup_s", "s", 0.25),
    lower("est_p50_us", "us", 0.25),
    lower("est_p99_us", "us", 0.25),
    EndToEnd {
        name: "est_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    lower("qerror_p50", "ratio", 0.02),
    lower("qerror_p95", "ratio", 0.02),
    lower("model_bytes", "B", 0.01),
    lower("rss_peak_mb", "MB", 0.10),
];

/// Also printed, written to `result.json` and compared, but outside
/// `BENCHMARK.json`: `failed_share` is zero on a healthy run, the session
/// times exist on `churn` only, and `cpu_us_per_est` cannot be held to any
/// bound the contract allows (at most 25 %). Where the server mostly sleeps
/// (`churn`, `paced`) its CPU time is thread wake-ups, and what a wake-up
/// costs follows the state of the shared host: the median of ten `churn` runs
/// read 131 us and, forty minutes later, 196 us on the same binary.
pub const END_TO_END_EXTRA: [EndToEnd; 4] = [
    lower("failed_share", "ratio", 0.001),
    lower("session_p50_us", "us", 0.25),
    lower("session_p99_us", "us", 0.25),
    lower("cpu_us_per_est", "us", 0.30),
];

/// Latency limit on `paced`: `est_p99_us` above this marks the run.
pub const PACED_P99_LIMIT_US: f64 = 5_000.0;
/// The open-loop sender may run this late (p99) before a `paced` run is
/// marked invalid.
pub const SEND_LAG_LIMIT_US: f64 = 1_000.0;

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn t(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

/// Per-layer metrics, all from the traced run. Layers are this repository's
/// crates; a layer that does no work on a workload (the serving crates on
/// `bulk-*`) reports 0 there.
pub const PER_LAYER: [Layer; 66] = [
    // serve::server — wire probes against a cold-started server, and the
    // workload server's own counters.
    t("serve.server.control_rtt_us", "us"),
    t("serve.server.first_reply_us", "us"),
    t("serve.server.metrics_scrape_us", "us"),
    t("serve.server.coldstart_ms", "ms"),
    t("serve.server.outside_us_p50", "us"),
    t("serve.server.sessions", "count"),
    t("serve.server.bytes_read", "count"),
    t("serve.server.bytes_written", "count"),
    t("serve.server.parse_errors", "count"),
    // serve::batcher — the reply's us= field, the stage histograms, and
    // in-process round trips through ServeBuilder + handle_line.
    t("serve.batcher.inside_us_p50", "us"),
    t("serve.batcher.admission_us_p50", "us"),
    t("serve.batcher.batch_us_p50", "us"),
    t("serve.batcher.forward_us_p50", "us"),
    t("serve.batcher.reply_us_p50", "us"),
    Layer {
        name: "serve.batcher.batch_size_mean",
        unit: "count",
        higher_is_better: true,
    },
    t("serve.batcher.batches", "count"),
    t("serve.batcher.shed", "count"),
    t("serve.batcher.idle_roundtrip_us", "us"),
    t("serve.batcher.burst64_roundtrip_us", "us"),
    t("serve.batcher.handle_line_ns", "ns"),
    // serve::protocol, serve::expose, obs
    t("serve.protocol.request_parse_ns", "ns"),
    t("serve.protocol.reply_format_ns", "ns"),
    t("serve.protocol.reply_parse_ns", "ns"),
    t("serve.expose.render_metrics_us", "us"),
    t("obs.hist_record_ns", "ns"),
    // store
    t("store.sparql_parse_ns", "ns"),
    t("store.sparql_format_ns", "ns"),
    t("store.exact_count_us", "us"),
    // encoder
    t("encoder.encode_row_ns", "ns"),
    t("encoder.encode_batch256_ns_per_row", "ns"),
    // nn
    t("nn.forward_m1_us", "us"),
    t("nn.forward_m64_us", "us"),
    t("nn.forward_m256_us", "us"),
    t("nn.forward_int8_m1_us", "us"),
    t("nn.forward_int8_m256_us", "us"),
    t("nn.gemv_dispatches", "count"),
    t("nn.blocked_dispatches", "count"),
    t("nn.flops_per_est", "count"),
    // core
    t("core.predict_one_us", "us"),
    t("core.predict_batch64_us_per_est", "us"),
    t("core.predict_batch256_us_per_est", "us"),
    t("core.decompose_us_per_est", "us"),
    t("core.decompose_parts_mean", "count"),
    t("core.lmkgu_estimate_ms", "ms"),
    t("core.lmkgu_batch16_ms_per_est", "ms"),
    t("core.build_s", "s"),
    t("core.build_lmkgu_s", "s"),
    t("core.quantize_ms", "ms"),
    t("core.snapshot_save_ms", "ms"),
    t("core.snapshot_load_ms", "ms"),
    t("core.snapshot_bytes", "B"),
    // data, modelstore
    t("data.graph_generate_ms", "ms"),
    t("data.workload_generate_ms", "ms"),
    t("modelstore.publish_ms", "ms"),
    t("modelstore.load_latest_ms", "ms"),
    // The load generator itself: validity checks, not product layers.
    t("loadgen.send_lag_us_p99", "us"),
    t("loadgen.cpu_share", "ratio"),
    t("loadgen.trace_overhead_ratio", "ratio"),
    // The budget: the traced median minus the layer medians on its
    // blocking path, and each part of that sum.
    t("budget.total_us", "us"),
    t("budget.transport_us", "us"),
    t("budget.sparql_parse_us", "us"),
    t("budget.admission_us", "us"),
    t("budget.batch_us", "us"),
    t("budget.forward_us", "us"),
    t("budget.reply_us", "us"),
    t("budget.unattributed_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn text<'a>(object: &'a Value, key: &str) -> &'a str {
        match object.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("{key} is {other:?}, not a string"),
        }
    }

    fn names(list: &[Value]) -> Vec<&str> {
        list.iter().map(|m| text(m, "name")).collect()
    }

    /// `BENCHMARK.json` and these tables must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        assert_eq!(names(doc.get("workloads").unwrap().as_array()), WORKLOADS);

        let e2e = doc.get("end_to_end").unwrap().as_array();
        assert_eq!(names(e2e), END_TO_END.map(|m| m.name));
        for (listed, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(ours.bound),
                "{}",
                ours.name
            );
            assert_eq!(
                text(listed, "better") == "higher",
                ours.higher_is_better,
                "{}",
                ours.name
            );
        }

        let layers = doc.get("per_layer").unwrap().as_array();
        assert_eq!(names(layers), PER_LAYER.map(|m| m.name));
        for (listed, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(
                text(listed, "better") == "higher",
                ours.higher_is_better,
                "{}",
                ours.name
            );
        }
    }

    #[test]
    fn names_follow_the_contract() {
        let ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(&END_TO_END_EXTRA).map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(all.iter().all(|n| ok(n)));
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }
}
