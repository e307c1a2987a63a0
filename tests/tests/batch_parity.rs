//! Cross-crate parity suite for the batched estimation path: for every
//! estimator with a batched override — and for representative baselines on
//! the default loop — `estimate_batch` must return **bitwise-identical**
//! results to looping `estimate` over the same slice. For the learned
//! models `estimate` is a batch of one, so this checks that a query's
//! estimate does not depend on what shares its batch.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use lmkg::unsupervised::{LmkgU, LmkgUConfig};
use lmkg::CardinalityEstimator;
use lmkg_baselines::{CharacteristicSets, SumRdf, SumRdfConfig};
use lmkg_data::SamplingStrategy;
use lmkg_encoder::SgEncoder;
use lmkg_integration_tests::{small_lubm, test_queries};
use lmkg_store::{KnowledgeGraph, Query, QueryShape};
use std::sync::OnceLock;

/// The graph every test estimates over and its [`mixed_workload`],
/// generated once for the whole suite.
fn fixture() -> (&'static KnowledgeGraph, &'static [Query]) {
    static FIXTURE: OnceLock<(KnowledgeGraph, Vec<Query>)> = OnceLock::new();
    let (graph, queries) = FIXTURE.get_or_init(|| {
        let graph = small_lubm();
        let queries = mixed_workload(&graph);
        (graph, queries)
    });
    (graph, queries)
}

/// A mixed workload: covered star-2 / chain-2 queries plus an oversized
/// star that exercises rejection/decomposition paths.
fn mixed_workload(graph: &KnowledgeGraph) -> Vec<Query> {
    let mut queries: Vec<Query> = Vec::new();
    queries.extend(
        test_queries(graph, QueryShape::Star, 2, 25)
            .into_iter()
            .map(|lq| lq.query),
    );
    queries.extend(
        test_queries(graph, QueryShape::Chain, 2, 25)
            .into_iter()
            .map(|lq| lq.query),
    );
    queries.extend(
        test_queries(graph, QueryShape::Star, 4, 5)
            .into_iter()
            .map(|lq| lq.query),
    );
    queries
}

/// Asserts bitwise equality between the batched path and the looped path.
///
/// The looped reference runs *first*, which also proves estimation does not
/// depend on hidden call-order state (the derived-RNG contract of LMKG-U).
fn assert_parity(est: &dyn CardinalityEstimator, queries: &[Query]) {
    let looped: Vec<f64> = queries.iter().map(|q| est.estimate(q)).collect();
    let batched = est.estimate_batch(queries);
    assert_eq!(batched.len(), queries.len());
    for (i, (b, l)) in batched.iter().zip(&looped).enumerate() {
        assert!(
            b.to_bits() == l.to_bits(),
            "{}: query {i} diverged (batched {b}, looped {l})",
            est.name()
        );
    }
}

#[test]
fn lmkg_s_batch_parity() {
    let (g, queries) = fixture();
    let enc = QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 2));
    let mut model = LmkgS::new(
        enc,
        LmkgSConfig {
            hidden: vec![64],
            epochs: 15,
            dropout: 0.0,
            ..Default::default()
        },
    );
    let train = test_queries(g, QueryShape::Star, 2, 200);
    model.train(&train);
    assert_parity(&model, queries);
}

#[test]
fn lmkg_u_batch_parity() {
    let (g, queries) = fixture();
    let mut model = LmkgU::new(
        g,
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
    model.train(g);
    assert_parity(&model, queries);
}

#[test]
fn lmkg_framework_batch_parity() {
    let (g, queries) = fixture();
    let mut cfg = LmkgConfig {
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
    let lmkg = Lmkg::build(g, &cfg);
    assert_parity(&lmkg, queries);

    // And the unsupervised framework configuration.
    cfg.model_type = ModelType::Unsupervised;
    cfg.u_config = LmkgUConfig {
        hidden: 24,
        blocks: 1,
        embed_dim: 8,
        epochs: 1,
        train_samples: 800,
        particles: 32,
        ..Default::default()
    };
    let lmkg_u = Lmkg::build(g, &cfg);
    assert_parity(&lmkg_u, queries);
}

#[test]
fn cset_baseline_batch_parity() {
    let (g, queries) = fixture();
    let cset = CharacteristicSets::build(g);
    assert_parity(&cset, queries);
}

#[test]
fn sumrdf_baseline_batch_parity() {
    let (g, queries) = fixture();
    let sumrdf = SumRdf::build(g, SumRdfConfig::default());
    assert_parity(&sumrdf, queries);
}
