//! The observability-overhead gate: the same saturated closed loop over
//! `EstimationService::handle_line`, served with stage tracing on
//! (`BatchConfig::obs`, the default) and off (`serve … --no-obs`; the
//! request-latency histogram stays on either way), fails when tracing costs
//! more than 5% of throughput. Every other serving
//! number — latency, throughput, per-layer budget — is `benchmark/run.sh`'s.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, Scale};
use lmkg_serve::{BatchConfig, Reply, ServeBuilder, SharedEstimator, TenantSpec, DEFAULT_TENANT};
use lmkg_store::{sparql, KnowledgeGraph, QueryShape};
use std::sync::{mpsc, Arc};
use std::time::Instant;

const REQUESTS: usize = 100_000;
/// Requests in flight: the `pipelined` benchmark workload's 2 x 256, and
/// well inside the default admission queue, so nothing sheds.
const IN_FLIGHT: usize = 512;

/// Estimates per second of a closed loop that keeps `IN_FLIGHT` requests
/// outstanding: one reply in, one request out, no pacing.
fn saturated_qps(graph: &Arc<KnowledgeGraph>, estimator: &SharedEstimator, lines: &[String], obs: bool) -> f64 {
    let svc = ServeBuilder::new()
        .batch(BatchConfig {
            obs,
            ..BatchConfig::default()
        })
        .tenant(TenantSpec::new(
            DEFAULT_TENANT,
            Arc::clone(graph),
            Arc::clone(estimator),
        ))
        .build()
        .expect("one default tenant builds");
    let (tx, rx) = mpsc::channel();
    let answered = || {
        let reply = rx.recv().expect("every request is answered");
        assert!(matches!(reply, Reply::Estimate { .. }), "unexpected reply {reply}");
    };
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        if i >= IN_FLIGHT {
            answered();
        }
        svc.handle_line(line, &tx);
    }
    for _ in 0..IN_FLIGHT.min(lines.len()) {
        answered();
    }
    lines.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let graph = Arc::new(Dataset::LubmLike.generate(Scale::Ci, 7));
    let mut queries = Vec::new();
    for (shape, size) in [(QueryShape::Star, 2), (QueryShape::Chain, 3), (QueryShape::Star, 3)] {
        let mut wl = WorkloadConfig::test_default(shape, size, 17);
        wl.count = 120;
        queries.extend(workload::generate(&graph, &wl).into_iter().map(|lq| lq.query));
    }
    let lines: Vec<String> = (0..REQUESTS)
        .map(|i| format!("EST q{i} {}", sparql::format_query(&queries[i % queries.len()], &graph)))
        .collect();

    // Training depth is irrelevant for throughput; architecture is what costs.
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2, 3],
        queries_per_size: 300,
        s_config: LmkgSConfig {
            hidden: vec![256, 256],
            epochs: 3,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 5,
    };
    let estimator: SharedEstimator = Arc::new(Lmkg::build(&graph, &cfg));

    // Best of three per side, interleaved, so one noisy round (or a slow
    // drift of the machine) cannot fail the gate on its own.
    let (mut on, mut off) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        on = on.max(saturated_qps(&graph, &estimator, &lines, true));
        off = off.max(saturated_qps(&graph, &estimator, &lines, false));
    }
    let overhead_pct = (1.0 - on / off) * 100.0;
    println!(
        "serve_latency: observability overhead at saturation {overhead_pct:.2}% \
         ({on:.0} qps instrumented vs {off:.0} qps with --no-obs, {} core(s))",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // The observability layer is a handful of relaxed atomic bumps, two
    // clock reads per batch and one clock read plus a histogram record per
    // request; more than 5% of saturated throughput means something on the
    // hot path regressed.
    assert!(
        overhead_pct <= 5.0,
        "observability overhead {overhead_pct:.2}% exceeds the 5% budget"
    );
}
