//! Shared helpers for the LMKG integration-test suite.

use lmkg::metrics::QErrorStats;
use lmkg::CardinalityEstimator;
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, LabeledQuery, Scale};
use lmkg_store::{KnowledgeGraph, QueryShape};

/// A small LUBM-like graph for fast integration tests.
pub fn small_lubm() -> KnowledgeGraph {
    Dataset::LubmLike.generate(Scale::Ci, 42)
}

/// A small SWDF-like graph (skewed / interconnected).
pub fn small_swdf() -> KnowledgeGraph {
    Dataset::SwdfLike.generate(Scale::Ci, 42)
}

/// A test workload of the given shape and size.
pub fn test_queries(graph: &KnowledgeGraph, shape: QueryShape, size: usize, count: usize) -> Vec<LabeledQuery> {
    let mut cfg = WorkloadConfig::test_default(shape, size, 1234);
    cfg.count = count;
    workload::generate(graph, &cfg)
}

/// Path of a committed golden snapshot file, `fixtures/lmkgset1_<set>.<ext>`
/// (see `tests/model_lifecycle.rs` for what they hold and how to regenerate
/// them).
pub fn golden_fixture_path(set: &str, ext: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(format!("lmkgset1_{set}.{ext}"))
}

/// Runs an estimator over labeled queries and aggregates q-errors.
pub fn evaluate(est: &dyn CardinalityEstimator, queries: &[LabeledQuery]) -> QErrorStats {
    let pairs: Vec<(f64, u64)> = queries
        .iter()
        .map(|lq| (est.estimate(&lq.query), lq.cardinality))
        .collect();
    QErrorStats::from_pairs(pairs).expect("non-empty workload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_usable_fixtures() {
        let g = small_lubm();
        assert!(g.num_triples() > 100);
        let qs = test_queries(&g, QueryShape::Star, 2, 50);
        assert!(qs.len() >= 30);
    }
}
