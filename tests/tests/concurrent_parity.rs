//! Cross-crate concurrency-parity suite for the shared-read inference API:
//! N threads holding clones of one `Arc`-shared frozen model, each
//! estimating a slice of the same workload, must together produce
//! **bitwise-identical** results to a single-threaded run over the whole
//! workload — no interior mutability, no hidden call-order state, no
//! workspace cross-talk.
//!
//! Every GEMM kernel computes the same bits (`kernel_parity.rs`), so one run
//! on whichever kernel is active covers them all.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::unsupervised::{LmkgU, LmkgUConfig};
use lmkg::CardinalityEstimator;
use lmkg_data::SamplingStrategy;
use lmkg_integration_tests::{small_lubm, test_queries};
use lmkg_store::{KnowledgeGraph, Query, QueryShape};
use std::sync::Arc;

const THREADS: usize = 4;

/// Covered star-2/chain-2 queries plus oversized stars that exercise the
/// rejection/decomposition paths.
fn workload(graph: &KnowledgeGraph) -> Vec<Query> {
    let mut queries: Vec<Query> = Vec::new();
    for (shape, size, count) in [
        (QueryShape::Star, 2, 20),
        (QueryShape::Chain, 2, 20),
        (QueryShape::Star, 4, 8),
    ] {
        queries.extend(test_queries(graph, shape, size, count).into_iter().map(|lq| lq.query));
    }
    queries
}

/// Sequential reference first, then `THREADS` threads sharing one `Arc`:
/// each estimates a contiguous slice (per-query and batched), and every
/// result must match the sequential run bit for bit.
fn assert_concurrent_parity<E>(estimator: E, queries: &[Query])
where
    E: CardinalityEstimator + Send + Sync + 'static,
{
    let sequential: Vec<u64> = queries.iter().map(|q| estimator.estimate(q).to_bits()).collect();
    let sequential_batched: Vec<u64> = estimator.estimate_batch(queries).iter().map(|e| e.to_bits()).collect();

    let shared: Arc<E> = Arc::new(estimator);
    let chunk = queries.len().div_ceil(THREADS);
    let threaded: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|slice| {
                let model = Arc::clone(&shared);
                scope.spawn(move || {
                    let looped: Vec<u64> = slice.iter().map(|q| model.estimate(q).to_bits()).collect();
                    let batched = model.estimate_batch(slice);
                    looped
                        .into_iter()
                        .zip(batched.into_iter().map(|e| e.to_bits()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("estimation thread panicked"))
            .collect()
    });

    let mut i = 0usize;
    for part in threaded {
        for (looped, batched) in part {
            assert_eq!(
                looped, sequential[i],
                "query {i}: concurrent per-query estimate diverged from sequential"
            );
            assert_eq!(
                batched, sequential_batched[i],
                "query {i}: concurrent batched estimate diverged from sequential"
            );
            i += 1;
        }
    }
    assert_eq!(i, queries.len(), "every query estimated exactly once");
}

#[test]
fn lmkg_framework_concurrent_parity() {
    let g = small_lubm();
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2],
        queries_per_size: 200,
        s_config: LmkgSConfig {
            hidden: vec![48],
            epochs: 10,
            dropout: 0.0,
            ..Default::default()
        },
        u_config: LmkgUConfig::default(),
        workload_seed: 5,
    };
    let queries = workload(&g);
    assert_concurrent_parity(Lmkg::build(&g, &cfg), &queries);
}

#[test]
fn lmkg_u_concurrent_parity() {
    let g = small_lubm();
    let mut model = LmkgU::new(
        &g,
        QueryShape::Star,
        2,
        LmkgUConfig {
            hidden: 32,
            blocks: 1,
            embed_dim: 8,
            epochs: 2,
            train_samples: 1500,
            particles: 64,
            strategy: SamplingStrategy::Uniform,
            ..Default::default()
        },
    )
    .expect("domain fits");
    model.train(&g);
    let queries = workload(&g);
    assert_concurrent_parity(model, &queries);
}
