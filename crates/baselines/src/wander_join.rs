//! WanderJoin (Li, Wu, Yi & Zhao, SIGMOD 2016) adapted to RDF graphs as in
//! G-CARE: "performs random walks directly on top of the KG by considering
//! each triple as a vertex and a join as an edge" (paper §VIII).
//!
//! One walk: pick a uniform triple matching the first pattern, then for each
//! subsequent pattern pick a uniform triple among those consistent with the
//! current bindings. The Horvitz–Thompson estimate of one successful walk is
//! the product of the candidate counts along the way; failed walks score 0.
//! The final estimate averages the walks of `runs` independent runs (G-CARE
//! runs every sampler 30 times and averages).

use crate::common;
use lmkg::CardinalityEstimator;
use lmkg_store::{KnowledgeGraph, Query};

/// WanderJoin configuration.
#[derive(Debug, Clone)]
pub struct WanderJoinConfig {
    /// Independent runs averaged into the final estimate (G-CARE: 30).
    pub runs: usize,
    /// Random walks per run.
    pub walks_per_run: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WanderJoinConfig {
    fn default() -> Self {
        Self {
            runs: 30,
            walks_per_run: 100,
            seed: 0,
        }
    }
}

/// The WanderJoin estimator. Holds a graph reference: sampling baselines
/// draw directly from the data (which is why Table II credits them no
/// summary memory). No mutable walk state — each estimate derives its RNG
/// from the stored seed and the query (see [`common::derived_rng`]), so
/// estimation is `&self` and deterministic per query.
pub struct WanderJoin<'g> {
    graph: &'g KnowledgeGraph,
    cfg: WanderJoinConfig,
}

impl<'g> WanderJoin<'g> {
    /// Creates the estimator.
    pub fn new(graph: &'g KnowledgeGraph, cfg: WanderJoinConfig) -> Self {
        Self { graph, cfg }
    }

    /// Full estimate: mean walk weight over all runs, each step weighed by
    /// its exact candidate count.
    pub fn estimate_query(&self, query: &Query) -> f64 {
        let walks = self.cfg.runs * self.cfg.walks_per_run;
        common::walk(self.graph, query, self.cfg.seed, walks, |_, _, count| count as f64)
    }
}

impl CardinalityEstimator for WanderJoin<'_> {
    fn name(&self) -> &str {
        "wj"
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_query(query).max(1.0)
    }

    fn memory_bytes(&self) -> usize {
        // Sampling approaches "use the KG for drawing samples" (Table II):
        // only the walk state is their own.
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{counter, GraphBuilder, NodeTerm, PredId, PredTerm, TriplePattern, VarId};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add(&format!("s{i}"), "p", &format!("m{}", i % 3));
        }
        for j in 0..3 {
            b.add(&format!("m{j}"), "q", "end");
            b.add(&format!("m{j}"), "q", &format!("t{j}"));
        }
        b.build()
    }

    fn cfg() -> WanderJoinConfig {
        WanderJoinConfig {
            runs: 30,
            walks_per_run: 200,
            seed: 7,
        }
    }

    #[test]
    fn unbiased_on_chain_join() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let q_pred = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        let q = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), q_pred, v(2)),
        ]);
        let exact = counter::cardinality(&g, &q) as f64;
        let wj = WanderJoin::new(&g, cfg());
        let est = wj.estimate_query(&q);
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 1.3, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn exact_for_single_pattern() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let q = Query::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let wj = WanderJoin::new(&g, cfg());
        // A single pattern's walk weight is always the exact count.
        assert_eq!(wj.estimate_query(&q), 10.0);
    }

    #[test]
    fn zero_matches_floors_to_one_via_trait() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        // end q ?x — no matches.
        let end = lmkg_store::NodeId(g.nodes().get("end").unwrap());
        let q = Query::new(vec![TriplePattern::new(NodeTerm::Bound(end), p, v(0))]);
        let wj = WanderJoin::new(&g, cfg());
        assert_eq!(wj.estimate_query(&q), 0.0);
        assert_eq!(wj.estimate(&q), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = graph();
        let p = PredTerm::Bound(PredId(0));
        let q_pred = PredTerm::Bound(PredId(1));
        let q = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), q_pred, v(2)),
        ]);
        let a = WanderJoin::new(&g, cfg()).estimate_query(&q);
        let b = WanderJoin::new(&g, cfg()).estimate_query(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn star_queries_work() {
        let g = graph();
        let q_pred = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        let q = Query::new(vec![
            TriplePattern::new(v(0), q_pred, v(1)),
            TriplePattern::new(v(0), q_pred, v(2)),
        ]);
        let exact = counter::cardinality(&g, &q) as f64;
        let wj = WanderJoin::new(&g, cfg());
        let est = wj.estimate_query(&q);
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 1.3, "estimate {est} vs exact {exact}");
    }
}
