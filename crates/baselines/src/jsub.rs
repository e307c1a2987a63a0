//! JSUB — join sampling with upper bounds (Zhao, Christensen, Li, Hu & Yi,
//! SIGMOD 2018), adapted for graphs in G-CARE as a "random walk sampling
//! approach ... producing estimates of the upper bound of the cardinality"
//! (paper §VIII).
//!
//! Like WanderJoin, a walk samples one triple per pattern; but instead of the
//! exact per-step candidate count, JSUB charges the *worst-case* extension
//! bound for every step after the first (the maximum join fan-out of the
//! predicate). Completed walks therefore estimate an upper bound; the paper's
//! figures show it overestimating correspondingly.

use crate::common;
use lmkg::CardinalityEstimator;
use lmkg_store::{KnowledgeGraph, Query};

/// JSUB configuration.
#[derive(Debug, Clone)]
pub struct JsubConfig {
    /// Independent runs averaged into the final estimate (G-CARE: 30).
    pub runs: usize,
    /// Walks per run.
    pub walks_per_run: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for JsubConfig {
    fn default() -> Self {
        Self {
            runs: 30,
            walks_per_run: 100,
            seed: 0,
        }
    }
}

/// The JSUB estimator. Holds no mutable walk state: each estimate derives
/// its RNG from the stored seed and the query (see
/// [`common::derived_rng`]), so estimation is `&self`, deterministic per
/// query, and safe to share across threads.
pub struct Jsub<'g> {
    graph: &'g KnowledgeGraph,
    cfg: JsubConfig,
    /// Per predicate: max objects per (s, p) — forward join bound.
    max_fanout_fwd: Vec<u64>,
    /// Per predicate: max subjects per (p, o) — backward join bound.
    max_fanout_bwd: Vec<u64>,
}

impl<'g> Jsub<'g> {
    /// Creates the estimator, precomputing per-predicate fan-out bounds.
    pub fn new(graph: &'g KnowledgeGraph, cfg: JsubConfig) -> Self {
        let np = graph.num_preds();
        let mut max_fanout_fwd = vec![0u64; np];
        let mut max_fanout_bwd = vec![0u64; np];
        for p in graph.pred_ids() {
            let pairs = graph.pred_pairs(p);
            // pairs sorted by (s, o): run lengths are per-subject fanouts.
            let mut run = 0u64;
            let mut last = None;
            for &(s, _) in pairs {
                if Some(s) == last {
                    run += 1;
                } else {
                    run = 1;
                    last = Some(s);
                }
                max_fanout_fwd[p.index()] = max_fanout_fwd[p.index()].max(run);
            }
            // Backward: count per object.
            let mut by_obj: Vec<u32> = pairs.iter().map(|&(_, o)| o.0).collect();
            by_obj.sort_unstable();
            let mut run = 0u64;
            let mut last = None;
            for o in by_obj {
                if Some(o) == last {
                    run += 1;
                } else {
                    run = 1;
                    last = Some(o);
                }
                max_fanout_bwd[p.index()] = max_fanout_bwd[p.index()].max(run);
            }
        }
        Self {
            graph,
            cfg,
            max_fanout_fwd,
            max_fanout_bwd,
        }
    }

    /// Upper bound on how many triples pattern `idx` can contribute per
    /// binding of the already-walked patterns.
    fn step_bound(&self, query: &Query, idx: usize) -> f64 {
        let pat = &query.triples[idx];
        match pat.p.bound() {
            Some(p) => {
                let fwd = self.max_fanout_fwd[p.index()].max(1);
                let bwd = self.max_fanout_bwd[p.index()].max(1);
                // The join may come through the subject or the object side;
                // take the looser bound to stay an upper bound.
                fwd.max(bwd) as f64
            }
            None => {
                let fwd = self.max_fanout_fwd.iter().max().copied().unwrap_or(1).max(1);
                let bwd = self.max_fanout_bwd.iter().max().copied().unwrap_or(1).max(1);
                fwd.max(bwd) as f64
            }
        }
    }

    /// Full estimate: mean walk weight over all runs ([`common::walk`]),
    /// the first step weighed by its exact candidate count and every later
    /// one by its upper bound.
    pub fn estimate_query(&self, query: &Query) -> f64 {
        let walks = self.cfg.runs * self.cfg.walks_per_run;
        common::walk(self.graph, query, self.cfg.seed, walks, |step, idx, count| {
            if step == 0 {
                count as f64
            } else {
                self.step_bound(query, idx)
            }
        })
    }
}

impl CardinalityEstimator for Jsub<'_> {
    fn name(&self) -> &str {
        "jsub"
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_query(query).max(1.0)
    }

    fn memory_bytes(&self) -> usize {
        (self.max_fanout_fwd.len() + self.max_fanout_bwd.len()) * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{counter, GraphBuilder, NodeTerm, PredId, PredTerm, TriplePattern, VarId};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    fn graph() -> lmkg_store::KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add(&format!("s{i}"), "p", &format!("m{}", i % 2));
        }
        b.add("m0", "q", "x");
        b.add("m0", "q", "y");
        b.add("m1", "q", "x");
        b.build()
    }

    #[test]
    fn estimate_is_upper_biased_on_joins() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let qp = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        let q = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), qp, v(2)),
        ]);
        let exact = counter::cardinality(&g, &q) as f64;
        let jsub = Jsub::new(
            &g,
            JsubConfig {
                runs: 30,
                walks_per_run: 100,
                seed: 1,
            },
        );
        let est = jsub.estimate_query(&q);
        // All walks survive here, so the estimate equals the deterministic
        // bound: 8 (first hop) × max fanout of q (2) = 16 ≥ exact (12).
        assert!(est >= exact, "JSUB must overestimate: {est} vs {exact}");
    }

    #[test]
    fn fanout_bounds_computed() {
        let g = graph();
        let jsub = Jsub::new(&g, JsubConfig::default());
        let qp = PredId(g.preds().get("q").unwrap());
        assert_eq!(jsub.max_fanout_fwd[qp.index()], 2); // m0 emits two q-edges
        assert_eq!(jsub.max_fanout_bwd[qp.index()], 2); // x receives two
    }

    #[test]
    fn single_pattern_is_exact() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let q = Query::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let jsub = Jsub::new(&g, JsubConfig::default());
        assert_eq!(jsub.estimate_query(&q), 8.0);
    }

    #[test]
    fn dead_walks_reduce_estimate() {
        let g = graph();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        // Chain whose second hop requires the nonexistent predicate edge from
        // most intermediates: ?x p ?y . ?y p ?z — m0/m1 emit no p.
        let q = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), p, v(2)),
        ]);
        let jsub = Jsub::new(&g, JsubConfig::default());
        assert_eq!(jsub.estimate_query(&q), 0.0);
        assert_eq!(jsub.estimate(&q), 1.0);
    }
}
