//! IMPR (Chen & Lui, ICDM 2016) — random-walk graphlet counting, adapted to
//! query-pattern counting as in G-CARE ("uses random walks for estimating
//! graphlet counts", paper §VIII).
//!
//! The adaptation keeps the estimator's statistical core: a random walk over
//! the (undirected view of the) graph whose stationary distribution is
//! degree-proportional supplies anchor nodes; for each anchor the number of
//! pattern matches rooted at it is counted locally and re-weighted by the
//! inverse stationary probability (Horvitz–Thompson):
//!
//! ```text
//! ĉ = mean_i [ c(vᵢ) · 2|E| / deg(vᵢ) ]  with  c(v) = #matches anchored at v
//! ```
//!
//! Anchoring uses the star center (star queries) or the walk start (chains),
//! and the local count is exact via the store's counting oracle on the
//! anchored query.

use crate::common;
use lmkg::CardinalityEstimator;
use lmkg_store::{counter, KnowledgeGraph, NodeId, NodeTerm, Query};
use rand::rngs::StdRng;
use rand::Rng;

/// IMPR configuration.
#[derive(Debug, Clone)]
pub struct ImprConfig {
    /// Independent runs averaged into the final estimate (G-CARE: 30).
    pub runs: usize,
    /// Anchor samples per run.
    pub samples_per_run: usize,
    /// Burn-in steps of the mixing walk before the first anchor is taken.
    pub burn_in: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImprConfig {
    fn default() -> Self {
        Self {
            runs: 30,
            samples_per_run: 30,
            burn_in: 16,
            seed: 0,
        }
    }
}

/// The IMPR estimator. No mutable walk state — each estimate derives its
/// RNG from the stored seed and the query (see [`common::derived_rng`]), so
/// estimation is `&self` and deterministic per query.
pub struct Impr<'g> {
    graph: &'g KnowledgeGraph,
    cfg: ImprConfig,
    /// 2|E| — the normalizing constant of the degree-proportional stationary
    /// distribution on the undirected view.
    two_m: f64,
}

impl<'g> Impr<'g> {
    /// Creates the estimator.
    pub fn new(graph: &'g KnowledgeGraph, cfg: ImprConfig) -> Self {
        Self {
            graph,
            cfg,
            two_m: 2.0 * graph.num_triples() as f64,
        }
    }

    fn total_degree(&self, v: NodeId) -> usize {
        self.graph.out_degree(v) + self.graph.in_degree(v)
    }

    /// One step of the undirected random walk.
    fn step(&self, v: NodeId, rng: &mut StdRng) -> NodeId {
        let out = self.graph.out_degree(v);
        let inc = self.graph.in_degree(v);
        let total = out + inc;
        if total == 0 {
            return v;
        }
        let idx = rng.gen_range(0..total);
        if idx < out {
            self.graph.out_edges(v)[idx].1
        } else {
            self.graph.in_edges(v)[idx - out].1
        }
    }

    /// Exact number of matches of `query` with the anchor term bound to `v`.
    fn anchored_count(&self, query: &Query, v: NodeId) -> u64 {
        let mut anchored = query.clone();
        let anchor_term = anchored.triples[0].s;
        match anchor_term {
            NodeTerm::Bound(b) => {
                // Anchor already bound: only that node contributes.
                if b == v {
                    counter::cardinality(self.graph, &anchored)
                } else {
                    0
                }
            }
            NodeTerm::Var(var) => {
                for t in &mut anchored.triples {
                    if t.s == NodeTerm::Var(var) {
                        t.s = NodeTerm::Bound(v);
                    }
                    if t.o == NodeTerm::Var(var) {
                        t.o = NodeTerm::Bound(v);
                    }
                }
                counter::cardinality(self.graph, &anchored)
            }
        }
    }

    /// Full estimate.
    pub fn estimate_query(&self, query: &Query) -> f64 {
        if query.triples.is_empty() {
            return 0.0;
        }
        // When the anchor is already bound, the local count is the answer.
        if let NodeTerm::Bound(b) = query.triples[0].s {
            return self.anchored_count(query, b) as f64;
        }

        let n = self.graph.num_nodes();
        if n == 0 {
            return 0.0;
        }
        let mut rng = common::derived_rng(self.cfg.seed, query);
        let total_samples = self.cfg.runs * self.cfg.samples_per_run;
        let mut sum = 0.0f64;
        let mut taken = 0usize;
        'runs: for _ in 0..self.cfg.runs {
            // Fresh start per run; burn in to approach stationarity.
            let mut v = NodeId(rng.gen_range(0..n as u32));
            for _ in 0..self.cfg.burn_in {
                v = self.step(v, &mut rng);
            }
            for _ in 0..self.cfg.samples_per_run {
                let deg = self.total_degree(v);
                if deg > 0 {
                    let c = self.anchored_count(query, v) as f64;
                    sum += c * self.two_m / deg as f64;
                    taken += 1;
                } else {
                    // Isolated node: resample a start.
                    v = NodeId(rng.gen_range(0..n as u32));
                    continue;
                }
                v = self.step(v, &mut rng);
                if taken >= total_samples {
                    break 'runs;
                }
            }
        }
        if taken == 0 {
            0.0
        } else {
            sum / taken as f64
        }
    }
}

impl CardinalityEstimator for Impr<'_> {
    fn name(&self) -> &str {
        "impr"
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_query(query).max(1.0)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{GraphBuilder, PredId, PredTerm, TriplePattern, VarId};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for i in 0..12 {
            b.add(&format!("s{i}"), "p", &format!("h{}", i % 2));
            b.add(&format!("s{i}"), "r", "sink");
        }
        b.build()
    }

    fn cfg() -> ImprConfig {
        ImprConfig {
            runs: 40,
            samples_per_run: 50,
            burn_in: 8,
            seed: 3,
        }
    }

    #[test]
    fn star_estimate_is_in_the_right_ballpark() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let r = PredTerm::Bound(PredId(g.preds().get("r").unwrap()));
        let q = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(0), r, v(2)),
        ]);
        let exact = counter::cardinality(&g, &q) as f64; // 12
        let impr = Impr::new(&g, cfg());
        let est = impr.estimate_query(&q);
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 2.5, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn anchored_bound_subject_is_exact() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let s0 = NodeId(g.nodes().get("s0").unwrap());
        let q = Query::new(vec![TriplePattern::new(NodeTerm::Bound(s0), p, v(0))]);
        let impr = Impr::new(&g, cfg());
        assert_eq!(impr.estimate_query(&q), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = graph();
        let p = PredTerm::Bound(PredId(0));
        let q = Query::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let a = Impr::new(&g, cfg()).estimate_query(&q);
        let b = Impr::new(&g, cfg()).estimate_query(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn chain_estimates_are_positive() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let q = Query::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let impr = Impr::new(&g, cfg());
        let est = impr.estimate(&q);
        assert!(est >= 1.0 && est.is_finite());
    }
}
