//! End-to-end workload-shift adaptation (paper §IV, Model choice): serve a
//! workload the model set does not cover, let the adapter detect the drift,
//! train the missing model, and swap it in under live traffic — then prove
//! the loop closed *exactly*:
//!
//! * `covers()` turns true for the dominant uncovered cell;
//! * served post-swap estimates are **bitwise-equal** to a directly-built
//!   estimator containing that model (`Lmkg::extend` run outside the
//!   server) — training is deterministic, so the adapter's model and the
//!   direct one are the same weights;
//! * zero replies are dropped, and every reply during the transition is one
//!   of the two legal snapshots (old model's decomposition fallback or new
//!   model's direct estimate) — never garbage from a torn swap;
//! * a tenant served from a quantized set stays at one precision: what the
//!   adapter publishes is bitwise the f32 extension frozen at the tenant's
//!   mode, not int8 base cells next to an f32 retrained cell.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::{CardinalityEstimator, QuantMode};
use lmkg_integration_tests::{small_lubm, test_queries};
use lmkg_serve::{AdapterConfig, BatchConfig, LmkgTenant, Reply, ServeBuilder, DEFAULT_TENANT};
use lmkg_store::{sparql, KnowledgeGraph, Query, QueryShape};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

fn base_config() -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2], // deliberately narrow: star-4 is uncovered
        queries_per_size: 200,
        s_config: LmkgSConfig {
            hidden: vec![64],
            epochs: 10,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 3,
    }
}

/// The graph and the f32 framework trained on it, shared by both tests.
fn trained_base() -> (Arc<KnowledgeGraph>, Arc<Lmkg>) {
    static BASE: OnceLock<(Arc<KnowledgeGraph>, Arc<Lmkg>)> = OnceLock::new();
    let (graph, base) = BASE.get_or_init(|| {
        let graph = Arc::new(small_lubm());
        let base = Arc::new(Lmkg::build(&graph, &base_config()));
        (graph, base)
    });
    (Arc::clone(graph), Arc::clone(base))
}

#[test]
fn adapter_closes_the_workload_shift_loop_bitwise() {
    workload_shift_loop_closes_bitwise(None);
}

/// `Lmkg::extend` trains f32 entries whatever the set it extends holds, so
/// the publish step has to freeze them: otherwise the post-swap estimates
/// below come from an f32 star-4 model, and re-quantizing the published set
/// shrinks it.
#[test]
fn quantized_adaptive_tenant_publishes_one_precision() {
    workload_shift_loop_closes_bitwise(Some(QuantMode::Int8));
}

/// Serves the shifted workload from the trained base frozen at `mode` (f32
/// when `None`) until the adapter has retrained, and checks every reply.
fn workload_shift_loop_closes_bitwise(mode: Option<QuantMode>) {
    let freeze = |set: Lmkg| match mode {
        Some(m) => set.quantized(m),
        None => set,
    };
    let (graph, base_f32) = trained_base();
    let cfg = base_config();
    let base = match mode {
        Some(m) => Arc::new(base_f32.quantized(m)),
        None => Arc::clone(&base_f32),
    };
    let shift_cell = (QueryShape::Star, 4);
    assert!(!base.covers(shift_cell.0, shift_cell.1), "star-4 must start uncovered");

    // The shifted workload nobody trained for.
    let queries: Vec<Query> = test_queries(&graph, QueryShape::Star, 4, 12)
        .into_iter()
        .map(|lq| lq.query)
        .collect();
    assert!(queries.len() >= 6, "workload too small: {}", queries.len());
    let lines: Vec<String> = queries.iter().map(|q| sparql::format_query(q, &graph)).collect();

    // The reference: a *directly built* estimator containing the star-4
    // model, via the same extension path the adapter uses. Pre-swap traffic
    // must match `base` (decomposition fallback), post-swap traffic must
    // match `expected` — bitwise, through the whole serving stack.
    // Training is deterministic in `(graph, cfg, cell)`, so extending the f32
    // base and freezing the result is what a quantized tenant must publish.
    let expected = freeze(base_f32.extend(&graph, &[shift_cell], &cfg));
    assert!(expected.covers(shift_cell.0, shift_cell.1));
    let pre_expected: Vec<u64> = base.estimate_batch(&queries).iter().map(|e| e.to_bits()).collect();
    let post_expected: Vec<u64> = expected.estimate_batch(&queries).iter().map(|e| e.to_bits()).collect();
    assert_ne!(
        pre_expected, post_expected,
        "decomposition and direct-model estimates must be distinguishable for this assertion to bite"
    );

    let mut tenant = LmkgTenant::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::clone(&base), cfg.clone());
    tenant.quantized = mode;
    let (svc, adapter) = ServeBuilder::new()
        .batch(BatchConfig {
            max_batch: 8,
            queue_depth: 8192,
            workers: 2,
        })
        .lmkg_tenant(tenant)
        .build_adaptive(Some(AdapterConfig {
            interval: Duration::from_millis(50),
            window: 64,
            min_observed: 16,
            tv_threshold: 0.3,
            uncovered_threshold: 0.2,
            max_models: 8,
            max_new_per_cycle: 2,
        }))
        .unwrap();

    // Live traffic: waves of the shifted workload until the adapter has
    // retrained and swapped, then one more wave that must land entirely on
    // the new model.
    let (tx, rx) = mpsc::channel::<Reply>();
    let mut sent = 0usize;
    let wave = |sent: &mut usize| {
        for line in &lines {
            svc.handle_line(&format!("EST g{} {line}", *sent), &tx);
            *sent += 1;
        }
    };
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        wave(&mut sent);
        if svc.stats().retrains >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "adapter never fired; stats: {}", svc.stats());
        std::thread::sleep(Duration::from_millis(100));
    }
    // The swap is published before `retrains` ticks, so every batch formed
    // from here on resolves the extended model.
    let post_swap_start = sent;
    wave(&mut sent);

    // Collect exactly one reply per request — zero dropped, zero shed.
    let mut replies: Vec<Option<u64>> = vec![None; sent];
    for _ in 0..sent {
        match rx
            .recv_timeout(Duration::from_secs(60))
            .expect("no reply may be dropped")
        {
            Reply::Estimate { id, estimate, .. } => {
                let j: usize = id.strip_prefix('g').unwrap().parse().unwrap();
                assert!(
                    replies[j].replace(estimate.to_bits()).is_none(),
                    "duplicate reply for g{j}"
                );
            }
            other => panic!("unexpected reply during adaptation: {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.shed, 0, "nothing may shed at this depth: {stats}");
    assert!(stats.retrains >= 1 && stats.models_added >= 1, "stats: {stats}");
    // `drift_uncovered` may already be back to 0 (the tick after the swap
    // sees the cell covered), but the mix shift persists in `drift_tv`.
    assert!(stats.drift_tv > 0.3, "the drift that fired must be recorded: {stats}");

    // Every reply is one of the two legal snapshots, never a mix-up.
    for (j, bits) in replies.iter().enumerate() {
        let bits = bits.expect("every request answered");
        let i = j % queries.len();
        assert!(
            bits == pre_expected[i] || bits == post_expected[i],
            "request g{j} (query {i}): estimate {} is neither the pre-swap nor the post-swap value",
            f64::from_bits(bits)
        );
    }
    // The final wave is entirely post-swap: bitwise the directly-built
    // extended estimator.
    for (j, bits) in replies.iter().enumerate().skip(post_swap_start) {
        let i = j % queries.len();
        assert_eq!(
            bits.unwrap(),
            post_expected[i],
            "post-swap request g{j} (query {i}) must be served by the new model, bitwise"
        );
    }

    // The adapter's published framework covers the cell and grew by exactly
    // the star-4 model.
    let published = adapter.stop();
    assert!(
        published.covers(shift_cell.0, shift_cell.1),
        "covers() must flip for the shifted cell"
    );
    assert_eq!(published.model_count(), base.model_count() + 1);
    // And it answers the shifted workload bitwise like the direct build.
    assert_eq!(
        published
            .estimate_batch(&queries)
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>(),
        post_expected,
        "published and directly-built extended estimators must agree bitwise"
    ); // Nothing in the published set is left to freeze.
    if let Some(m) = mode {
        assert_eq!(
            published.quantized(m).total_memory_bytes(),
            published.total_memory_bytes(),
            "the published set must already be at the tenant's precision"
        );
        assert_eq!(svc.stats().model_bytes, published.memory_bytes() as u64);
    }
}
