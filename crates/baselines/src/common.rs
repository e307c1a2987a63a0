//! The one sampled walk of the walk-based baselines (WanderJoin, JSUB), with
//! its per-query RNG stream and pattern order.
//!
//! The walk owns no graph-pattern rule of its own: binding a pattern under
//! partial bindings is `lmkg_store::matcher`'s ([`resolve`], [`try_bind`]),
//! and counting and picking the candidates of a binding case is
//! [`KnowledgeGraph`]'s (`count_single`, `nth_match`). What differs between
//! the estimators is only the weight each step charges.

use lmkg_store::matcher::{resolve, try_bind};
use lmkg_store::{KnowledgeGraph, Query, TriplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG stream driving one query's sampling, derived from the
/// estimator's stored seed and the query's structural fingerprint.
///
/// Deriving per call — instead of advancing one shared RNG — is what makes
/// the sampling baselines `&self`: an estimate never depends on how many
/// estimates preceded it, so the same (seed, query) pair always reproduces
/// the same walks, from any thread, in any order.
pub fn derived_rng(seed: u64, query: &Query) -> StdRng {
    use std::hash::{Hash, Hasher};
    let mut h = lmkg_store::fxhash::FxHasher::default();
    query.hash(&mut h);
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h.finish())
}

/// The mean weight of `walks` sampled walks over `query`, drawn from the
/// stream [`derived_rng`]`(seed, query)` in [`walk_order`].
///
/// One walk binds the patterns in order: at each step it counts the triples
/// matching the pattern under the bindings so far, draws one uniformly
/// (`rng.gen_range(0..count)`, the walk's only use of the stream), and binds
/// it. The walk's weight is the product of `step_weight(step, pattern,
/// count)` over its steps — the exact `count` at every step is WanderJoin's
/// Horvitz–Thompson weight. A step with no candidate, or a drawn triple the
/// pattern's repeated variables reject, fails the walk, which weighs 0.
pub fn walk(
    graph: &KnowledgeGraph,
    query: &Query,
    seed: u64,
    walks: usize,
    step_weight: impl Fn(usize, usize, u64) -> f64,
) -> f64 {
    let mut rng = derived_rng(seed, query);
    let order = walk_order(graph, &query.triples);
    let mut bindings = vec![None; query.var_table_size()];
    let mut sum = 0.0f64;
    'walks: for _ in 0..walks {
        bindings.iter_mut().for_each(|b| *b = None);
        let mut weight = 1.0f64;
        for (step, &idx) in order.iter().enumerate() {
            let pat = &query.triples[idx];
            let r = resolve(pat, &bindings);
            let count = graph.count_single(r.s, r.p, r.o);
            if count == 0 {
                continue 'walks;
            }
            let n = rng.gen_range(0..count) as usize;
            let t = graph.nth_match(r.s, r.p, r.o, n).expect("n < count");
            if try_bind(pat, t, &mut bindings).is_none() {
                continue 'walks;
            }
            weight *= step_weight(step, idx, count);
        }
        sum += weight;
    }
    sum / walks.max(1) as f64
}

/// Orders patterns for walking: start at the most selective pattern (by
/// `count_single` over its bound terms), then repeatedly append the first
/// remaining pattern that shares a variable with the walked ones;
/// disconnected patterns (cartesian) come last.
pub fn walk_order(g: &KnowledgeGraph, patterns: &[TriplePattern]) -> Vec<usize> {
    let n = patterns.len();
    let base_count = |i: usize| {
        let t = &patterns[i];
        g.count_single(t.s.bound(), t.p.bound(), t.o.bound())
    };
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    // Most selective first.
    remaining.sort_by_key(|&i| base_count(i));
    order.push(remaining.remove(0));
    while !remaining.is_empty() {
        let connected = |i: usize| {
            patterns[i]
                .vars()
                .any(|v| order.iter().any(|&j| patterns[j].vars().any(|w| w == v)))
        };
        let pos = remaining.iter().position(|&i| connected(i)).unwrap_or(0);
        order.push(remaining.remove(pos));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{GraphBuilder, NodeId, NodeTerm, PredId, PredTerm, VarId};
    use std::cell::Cell;

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "x");
        b.add("a", "p", "y");
        b.add("b", "p", "x");
        b.add("a", "q", "x");
        b.build()
    }

    /// Each p-edge leads to a node with a different number of q-edges, so
    /// the second step's candidate count names the first step's draw.
    #[test]
    fn walk_draws_candidates_uniformly() {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "m1");
        b.add("a", "p", "m2");
        b.add("b", "p", "m3");
        for (m, fanout) in [("m1", 1), ("m2", 2), ("m3", 3)] {
            for e in 0..fanout {
                b.add(m, "q", &format!("e{e}"));
            }
        }
        let g = b.build();
        let p = PredTerm::Bound(PredId(g.preds().get("p").unwrap()));
        let q = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        let query = Query::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), q, v(2)),
        ]);
        let seen: [Cell<u32>; 3] = Default::default();
        let walks = 3000;
        walk(&g, &query, 0, walks, |step, _, count| {
            if step == 1 {
                seen[count as usize - 1].set(seen[count as usize - 1].get() + 1);
            }
            1.0
        });
        for c in &seen {
            assert!((c.get() as f64 / walks as f64 - 1.0 / 3.0).abs() < 0.05, "{seen:?}");
        }
    }

    #[test]
    fn walk_fails_where_a_step_has_no_candidates() {
        let g = graph();
        // b q ?x has no match: every walk fails at its first step.
        let b = NodeTerm::Bound(NodeId(g.nodes().get("b").unwrap()));
        let q = PredTerm::Bound(PredId(g.preds().get("q").unwrap()));
        let query = Query::new(vec![TriplePattern::new(b, q, v(0))]);
        let steps = Cell::new(0);
        let mean = walk(&g, &query, 0, 50, |_, _, _| {
            steps.set(steps.get() + 1);
            1.0
        });
        assert_eq!(mean, 0.0);
        assert_eq!(steps.get(), 0, "a failed step charges no weight");
    }

    #[test]
    fn walk_order_starts_selective_and_stays_connected() {
        let g = graph();
        // t0: ?x p ?y (3 matches), t1: ?z q ?x (1 match).
        let pats = vec![
            TriplePattern::new(v(0), PredTerm::Bound(PredId(0)), v(1)),
            TriplePattern::new(v(2), PredTerm::Bound(PredId(1)), v(0)),
        ];
        let order = walk_order(&g, &pats);
        assert_eq!(order[0], 1); // q has 1 triple < p's 3
        assert_eq!(order.len(), 2);
    }
}
