//! The estimator interface shared by LMKG models and all baselines.

use lmkg_store::{counter, KnowledgeGraph, Query};

/// A cardinality estimator.
///
/// Estimation takes `&self`: a trained model is **frozen** — forward passes
/// thread per-call scratch buffers instead of mutating layer caches, and the
/// sampling baselines derive a per-query RNG from a stored seed instead of
/// advancing shared RNG state. Estimators that are also `Send + Sync` (all
/// of the in-tree ones) can therefore be shared behind one `Arc` by any
/// number of threads running estimates concurrently — the shape the serving
/// layer relies on. Mutation (training, buffer fills) stays on inherent
/// `&mut self` methods of the concrete types.
///
/// Method calls on a `Box<dyn CardinalityEstimator>` or an `Arc<dyn …>`
/// reach the trait through deref; neither smart pointer implements it.
pub trait CardinalityEstimator {
    /// Human-readable estimator name (used in experiment tables).
    fn name(&self) -> &str;

    /// Estimates the cardinality of `query`. Estimates are floored at 1.0 —
    /// every query in our workloads has at least one match, and a floor
    /// keeps q-errors finite for all estimators (G-CARE does the same).
    fn estimate(&self, query: &Query) -> f64;

    /// Estimates a whole workload slice, returning one estimate per query
    /// in order.
    ///
    /// The default implementation loops over [`estimate`](Self::estimate),
    /// so every estimator supports the batched entry point; the learned
    /// models override it to run one network forward per batch instead of
    /// per query, which is where their sub-millisecond amortized latency
    /// comes from (LMKG-S, LMKG-U and the framework answer `estimate` as a
    /// batch of one). Either way a query's estimate must not depend on the
    /// rest of the batch (the cross-crate parity suite enforces this for
    /// the deterministic estimators).
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }

    /// Approximate memory footprint of the estimator state in bytes
    /// (model parameters or summary size — Table II).
    fn memory_bytes(&self) -> usize;
}

/// The exact counter wrapped as an estimator (sanity baseline: q-error 1).
pub struct ExactEstimator<'g> {
    graph: &'g KnowledgeGraph,
}

impl<'g> ExactEstimator<'g> {
    /// Wraps a graph reference.
    pub fn new(graph: &'g KnowledgeGraph) -> Self {
        Self { graph }
    }
}

impl CardinalityEstimator for ExactEstimator<'_> {
    fn name(&self) -> &str {
        "exact"
    }

    fn estimate(&self, query: &Query) -> f64 {
        (counter::cardinality(self.graph, query) as f64).max(1.0)
    }

    fn memory_bytes(&self) -> usize {
        self.graph.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::q_error;
    use lmkg_store::{GraphBuilder, NodeTerm, PredTerm, TriplePattern, VarId};
    use std::sync::Arc;

    fn one_triple_fixture() -> (KnowledgeGraph, Query) {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        let q = Query::new(vec![TriplePattern::new(
            NodeTerm::Var(VarId(0)),
            PredTerm::Bound(lmkg_store::PredId(0)),
            NodeTerm::Var(VarId(1)),
        )]);
        (g, q)
    }

    /// Method calls through the smart pointer reach the trait by deref.
    #[test]
    fn boxed_estimator_forwards_the_trait() {
        let (g, q) = one_triple_fixture();
        let direct = ExactEstimator::new(&g);
        let expected = direct.estimate(&q);
        let boxed: Box<dyn CardinalityEstimator + '_> = Box::new(ExactEstimator::new(&g));
        assert_eq!(boxed.name(), "exact");
        assert_eq!(boxed.estimate(&q), expected);
        assert_eq!(boxed.estimate_batch(std::slice::from_ref(&q)), vec![expected]);
        assert!(boxed.memory_bytes() > 0);
    }

    /// Method calls through the smart pointer reach the trait by deref.
    #[test]
    fn arc_estimator_forwards_the_trait() {
        let (g, q) = one_triple_fixture();
        let direct = ExactEstimator::new(&g);
        let expected = direct.estimate(&q);
        let shared: Arc<dyn CardinalityEstimator + '_> = Arc::new(ExactEstimator::new(&g));
        assert_eq!(shared.name(), "exact");
        assert_eq!(shared.estimate(&q), expected);
        assert_eq!(shared.estimate_batch(std::slice::from_ref(&q)), vec![expected]);
        assert!(shared.memory_bytes() > 0);
        // Two handles to one frozen estimator answer identically — the
        // property the concurrent serving path is built on.
        let clone = Arc::clone(&shared);
        assert_eq!(clone.estimate(&q).to_bits(), shared.estimate(&q).to_bits());
    }

    #[test]
    fn exact_estimator_has_q_error_one() {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        b.add("a", "p", "c");
        let g = b.build();
        let q = Query::new(vec![TriplePattern::new(
            NodeTerm::Var(VarId(0)),
            PredTerm::Bound(lmkg_store::PredId(0)),
            NodeTerm::Var(VarId(1)),
        )]);
        let est = ExactEstimator::new(&g);
        assert_eq!(est.name(), "exact");
        assert_eq!(q_error(est.estimate(&q), 2), 1.0);
        assert!(est.memory_bytes() > 0);
    }
}
