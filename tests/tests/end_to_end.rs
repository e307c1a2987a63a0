//! End-to-end pipelines across crates: dataset generation → workload
//! labeling → model training → estimation → metric aggregation.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use lmkg::unsupervised::{LmkgU, LmkgUConfig};
use lmkg::GraphSummary;
use lmkg_data::{Dataset, SamplingStrategy, Scale};
use lmkg_encoder::SgEncoder;
use lmkg_integration_tests::{evaluate, small_lubm, small_swdf, test_queries};
use lmkg_store::{KnowledgeGraph, QueryShape};
use std::sync::OnceLock;

/// The LUBM-like graph the supervised tests train on, generated once.
fn lubm() -> &'static KnowledgeGraph {
    static GRAPH: OnceLock<KnowledgeGraph> = OnceLock::new();
    GRAPH.get_or_init(small_lubm)
}

/// The star/chain x sizes 2/3 training recipe the grouping tests compare.
fn grouped(grouping: Grouping) -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2, 3],
        queries_per_size: 400,
        s_config: quick_s(),
        u_config: quick_u(),
        workload_seed: 13,
    }
}

/// The single-model framework over [`grouped`], trained once and shared by
/// the two tests that evaluate it.
fn single_model() -> &'static Lmkg {
    static MODEL: OnceLock<Lmkg> = OnceLock::new();
    MODEL.get_or_init(|| Lmkg::build(lubm(), &grouped(Grouping::Single)))
}

fn quick_s() -> LmkgSConfig {
    LmkgSConfig {
        hidden: vec![96],
        epochs: 100,
        dropout: 0.0,
        ..Default::default()
    }
}

fn quick_u() -> LmkgUConfig {
    LmkgUConfig {
        hidden: 48,
        blocks: 1,
        embed_dim: 12,
        epochs: 10,
        train_samples: 4000,
        particles: 200,
        strategy: SamplingStrategy::Uniform,
        ..Default::default()
    }
}

#[test]
fn supervised_pipeline_beats_independence_baseline() {
    let g = lubm();
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2],
        queries_per_size: 600,
        s_config: quick_s(),
        u_config: quick_u(),
        workload_seed: 5,
    };
    let lmkg = Lmkg::build(g, &cfg);
    let queries = test_queries(g, QueryShape::Star, 2, 200);

    let lmkg_stats = evaluate(&lmkg, &queries);

    // Independence baseline via the statistics block.
    let summary = GraphSummary::build(g);
    let indep_pairs: Vec<(f64, u64)> = queries
        .iter()
        .map(|lq| (summary.estimate_query_independent(&lq.query), lq.cardinality))
        .collect();
    let indep_stats = lmkg::QErrorStats::from_pairs(indep_pairs).unwrap();

    assert!(
        lmkg_stats.geometric_mean < indep_stats.geometric_mean,
        "LMKG-S gmean {} should beat independence gmean {}",
        lmkg_stats.geometric_mean,
        indep_stats.geometric_mean
    );
}

#[test]
fn unsupervised_pipeline_on_skewed_data() {
    let g = small_swdf();
    let mut model = LmkgU::new(&g, QueryShape::Star, 2, quick_u()).expect("domain fits");
    model.train(&g);
    let queries = test_queries(&g, QueryShape::Star, 2, 120);
    let mut finite = 0usize;
    let mut pairs = Vec::new();
    for lq in &queries {
        if let Ok(est) = model.estimate_query(&lq.query) {
            assert!(est.is_finite() && est >= 1.0);
            finite += 1;
            pairs.push((est, lq.cardinality));
        }
    }
    assert!(finite > queries.len() / 2, "too many unsupported queries");
    let stats = lmkg::QErrorStats::from_pairs(pairs).unwrap();
    assert!(stats.median < 25.0, "median q-error {}", stats.median);
}

#[test]
fn yago_like_domain_breaks_lmkg_u_but_not_lmkg_s() {
    // The paper's YAGO finding: the autoregressive model cannot scale to a
    // domain where entities ≈ triples, while LMKG-S (binary encodings) can.
    let g = Dataset::YagoLike.generate(Scale::Ci, 1);
    let mut u_cfg = quick_u();
    u_cfg.max_node_domain = g.num_nodes() / 2; // the guard the framework uses
    assert!(LmkgU::new(&g, QueryShape::Star, 2, u_cfg).is_err());

    let train = test_queries(&g, QueryShape::Star, 2, 300);
    let enc = QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 2));
    let mut s = LmkgS::new(enc, quick_s());
    s.train(&train);
    let est = s.predict(&train[0].query).unwrap();
    assert!(est >= 1.0 && est.is_finite());
}

#[test]
fn single_model_answers_both_topologies() {
    let (g, lmkg) = (lubm(), single_model());
    assert_eq!(lmkg.model_count(), 1);
    for shape in [QueryShape::Star, QueryShape::Chain] {
        for size in [2usize, 3] {
            let queries = test_queries(g, shape, size, 40);
            let stats = evaluate(lmkg, &queries);
            assert!(stats.median.is_finite(), "{shape} size {size}");
        }
    }
}

#[test]
fn specialized_beats_single_model_in_sample() {
    // Fig. 7's headline: "For almost every case, the specialized model ...
    // produces the best estimates. The single model ... has the lowest
    // estimation accuracy."
    let g = lubm();
    let specialized = Lmkg::build(g, &grouped(Grouping::Specialized));
    let queries = test_queries(g, QueryShape::Star, 2, 150);
    let spec_stats = evaluate(&specialized, &queries);
    let single_stats = evaluate(single_model(), &queries);
    assert!(
        spec_stats.geometric_mean <= single_stats.geometric_mean * 1.5,
        "specialized gmean {} vs single gmean {}",
        spec_stats.geometric_mean,
        single_stats.geometric_mean
    );
}
