//! Query-workload generation: masking bound patterns into queries, exact
//! labeling, log-base-5 result-size bucketing, and balanced selection
//! (paper §VIII, "Generation of Test Queries").

use crate::sampler::{ChainSampler, ChainTuple, SamplingStrategy, StarSampler, StarTuple};
use lmkg_store::counter;
use lmkg_store::fxhash::FxHashSet;
use lmkg_store::{KnowledgeGraph, NodeTerm, PredTerm, Query, QueryShape, TriplePattern, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A query with its exact cardinality (the supervised label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledQuery {
    /// The query pattern.
    pub query: Query,
    /// Exact result size under homomorphism semantics.
    pub cardinality: u64,
}

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Star or Chain (the two shapes LMKG supports, §V).
    pub shape: QueryShape,
    /// Query size = number of triple patterns (paper uses 2, 3, 5, 8).
    pub size: usize,
    /// Number of labeled queries to produce.
    pub count: usize,
    /// Probability that an object position stays bound.
    pub object_bound_prob: f64,
    /// Probability that a chain endpoint stays bound.
    pub endpoint_bound_prob: f64,
    /// Keep all predicates bound (required when comparing against the
    /// G-CARE competitors, which cannot answer unbound predicates).
    pub predicates_bound: bool,
    /// Bound-pattern sampling strategy.
    pub strategy: SamplingStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's test-workload settings for a shape/size pair.
    pub fn test_default(shape: QueryShape, size: usize, seed: u64) -> Self {
        Self {
            shape,
            size,
            count: 600,
            object_bound_prob: 0.5,
            endpoint_bound_prob: 0.5,
            predicates_bound: true,
            strategy: SamplingStrategy::RandomWalk,
            seed,
        }
    }

    /// Training-workload settings (larger, allows some unbound predicates —
    /// LMKG-S "training data consists of graph patterns … can include
    /// unbound variables", §IV).
    pub fn train_default(shape: QueryShape, size: usize, count: usize, seed: u64) -> Self {
        Self {
            shape,
            size,
            count,
            object_bound_prob: 0.5,
            endpoint_bound_prob: 0.5,
            predicates_bound: true,
            strategy: SamplingStrategy::RandomWalk,
            seed,
        }
    }
}

/// Builds a star query from a bound tuple, masking positions to variables.
/// The center subject is always a variable (the defining join variable).
pub fn mask_star(tuple: &StarTuple, rng: &mut StdRng, cfg: &WorkloadConfig) -> Query {
    let center = NodeTerm::Var(VarId(0));
    let mut next_var = 1u16;
    let triples = tuple
        .pairs
        .iter()
        .map(|&(p, o)| {
            let pred = if cfg.predicates_bound || rng.gen_bool(0.8) {
                PredTerm::Bound(p)
            } else {
                let v = PredTerm::Var(VarId(next_var));
                next_var += 1;
                v
            };
            let obj = if rng.gen_bool(cfg.object_bound_prob) {
                NodeTerm::Bound(o)
            } else {
                let v = NodeTerm::Var(VarId(next_var));
                next_var += 1;
                v
            };
            TriplePattern::new(center, pred, obj)
        })
        .collect();
    Query::new(triples)
}

/// Builds a chain query from a bound walk. Interior nodes are always join
/// variables; endpoints are bound with `endpoint_bound_prob`.
pub fn mask_chain(tuple: &ChainTuple, rng: &mut StdRng, cfg: &WorkloadConfig) -> Query {
    let k = tuple.preds.len();
    let mut next_var = 0u16;
    let fresh = |next_var: &mut u16| {
        let v = VarId(*next_var);
        *next_var += 1;
        v
    };

    // Node terms along the walk: endpoints may be bound, interior nodes are
    // variables (otherwise the pattern degenerates into independent triples).
    let mut node_terms = Vec::with_capacity(k + 1);
    for (i, &n) in tuple.nodes.iter().enumerate() {
        let is_endpoint = i == 0 || i == k;
        let term = if is_endpoint && rng.gen_bool(cfg.endpoint_bound_prob) {
            NodeTerm::Bound(n)
        } else {
            NodeTerm::Var(fresh(&mut next_var))
        };
        node_terms.push(term);
    }
    // Guarantee at least one unbound variable.
    if node_terms.iter().all(|t| t.is_bound()) {
        node_terms[0] = NodeTerm::Var(fresh(&mut next_var));
    }

    let triples = (0..k)
        .map(|i| {
            let pred = if cfg.predicates_bound || rng.gen_bool(0.8) {
                PredTerm::Bound(tuple.preds[i])
            } else {
                PredTerm::Var(fresh(&mut next_var))
            };
            TriplePattern::new(node_terms[i], pred, node_terms[i + 1])
        })
        .collect();
    Query::new(triples)
}

/// Generates a deduplicated, exactly labeled workload.
///
/// Over-samples bound patterns, masks them into queries, drops duplicates,
/// and labels each with the exact cardinality from the counting oracle.
/// Returns fewer than `count` queries only if the graph cannot produce
/// enough distinct patterns.
pub fn generate(graph: &KnowledgeGraph, cfg: &WorkloadConfig) -> Vec<LabeledQuery> {
    assert!(
        matches!(cfg.shape, QueryShape::Star | QueryShape::Chain),
        "workloads are star- or chain-shaped"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut seen: FxHashSet<Query> = FxHashSet::default();
    let mut out = Vec::with_capacity(cfg.count);
    let max_attempts = cfg.count.saturating_mul(30).max(1000);

    match cfg.shape {
        QueryShape::Star => {
            let sampler = StarSampler::new(graph, cfg.size, cfg.strategy);
            for _ in 0..max_attempts {
                if out.len() >= cfg.count {
                    break;
                }
                let tuple = sampler.sample(&mut rng);
                let query = mask_star(&tuple, &mut rng, cfg);
                if seen.insert(query.clone()) {
                    let cardinality = counter::cardinality(graph, &query);
                    debug_assert!(cardinality >= 1, "masked pattern must match its source");
                    out.push(LabeledQuery { query, cardinality });
                }
            }
        }
        QueryShape::Chain => {
            let sampler = ChainSampler::new(graph, cfg.size, cfg.strategy);
            for _ in 0..max_attempts {
                if out.len() >= cfg.count {
                    break;
                }
                let Some(tuple) = sampler.sample(&mut rng) else {
                    continue;
                };
                let query = mask_chain(&tuple, &mut rng, cfg);
                if seen.insert(query.clone()) {
                    let cardinality = counter::cardinality(graph, &query);
                    debug_assert!(cardinality >= 1, "masked pattern must match its source");
                    out.push(LabeledQuery { query, cardinality });
                }
            }
        }
        _ => unreachable!(),
    }
    out
}

/// Buckets queries by result size into log-base-5 buckets
/// (`[5^0, 5^1), [5^1, 5^2), …` — paper Table I / Fig. 9). Bucket `i` of the
/// returned vector corresponds to exponent `i`; trailing buckets may be
/// empty.
pub fn bucket_by_result_size(queries: &[LabeledQuery], base: u64) -> Vec<Vec<LabeledQuery>> {
    let mut buckets: Vec<Vec<LabeledQuery>> = Vec::new();
    for q in queries {
        let mut b = 0usize;
        let mut v = q.cardinality;
        while v >= base {
            v /= base;
            b += 1;
        }
        if buckets.len() <= b {
            buckets.resize_with(b + 1, Vec::new);
        }
        buckets[b].push(q.clone());
    }
    buckets
}

/// Selects up to `total` queries spread as evenly as possible across result-
/// size buckets ("we try to select the same number of queries from each
/// bucket", §VIII). Under-full buckets contribute what they have.
pub fn balanced_select(queries: &[LabeledQuery], total: usize, base: u64, seed: u64) -> Vec<LabeledQuery> {
    let mut buckets = bucket_by_result_size(queries, base);
    buckets.retain(|b| !b.is_empty());
    if buckets.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for b in &mut buckets {
        // Fisher–Yates so selection within a bucket is unbiased.
        for i in (1..b.len()).rev() {
            b.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut out = Vec::with_capacity(total);
    let mut cursor = vec![0usize; buckets.len()];
    while out.len() < total {
        let mut progressed = false;
        for (i, b) in buckets.iter().enumerate() {
            if out.len() >= total {
                break;
            }
            if cursor[i] < b.len() {
                out.push(b[cursor[i]].clone());
                cursor[i] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lubm::{generate as lubm, LubmConfig};
    use crate::scale::Scale;
    use lmkg_store::matcher;

    fn graph() -> KnowledgeGraph {
        lubm(&LubmConfig::at_scale(Scale::Ci, 1))
    }

    #[test]
    fn star_workload_shape_and_labels() {
        let g = graph();
        let cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 7);
        let w = generate(&g, &cfg);
        assert!(w.len() >= 100, "only {} queries generated", w.len());
        for lq in w.iter().take(30) {
            assert_eq!(lq.query.shape(), QueryShape::Star);
            assert_eq!(lq.query.size(), 2);
            assert!(lq.cardinality >= 1);
            assert_eq!(lq.cardinality, matcher::count(&g, &lq.query));
        }
    }

    /// The sampler layout, the masking and LMKG-U's position map are one
    /// layout: every masked sample is a point set of its tuple space
    /// (`counter::tuple_bounds` is `Ok`), and each bound position holds the
    /// value the sampled tuple's `to_ids()` has there.
    #[test]
    fn masked_samples_bind_their_own_tuple_positions() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(11);
        for strategy in [SamplingStrategy::RandomWalk, SamplingStrategy::Uniform] {
            for k in 1..=4 {
                for predicates_bound in [true, false] {
                    let cfg = WorkloadConfig {
                        predicates_bound,
                        strategy,
                        ..WorkloadConfig::test_default(QueryShape::Star, k, 0)
                    };
                    let stars = StarSampler::new(&g, k, strategy);
                    let chains = ChainSampler::new(&g, k, strategy);
                    for _ in 0..25 {
                        let star = stars.sample(&mut rng);
                        let mut masked = vec![(QueryShape::Star, star.to_ids(), mask_star(&star, &mut rng, &cfg))];
                        if let Some(chain) = chains.sample(&mut rng) {
                            masked.push((QueryShape::Chain, chain.to_ids(), mask_chain(&chain, &mut rng, &cfg)));
                        }
                        for (shape, ids, query) in masked {
                            let bounds = counter::tuple_bounds(shape, k, &query)
                                .unwrap_or_else(|e| panic!("{shape} k={k} {query:?}: {e}"));
                            assert_eq!(bounds.len(), ids.len());
                            for (pos, (bound, id)) in bounds.iter().zip(&ids).enumerate() {
                                assert!(bound.is_none_or(|b| b == *id), "{shape} k={k} position {pos}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_workload_shape_and_labels() {
        let g = graph();
        let cfg = WorkloadConfig::test_default(QueryShape::Chain, 3, 7);
        let w = generate(&g, &cfg);
        assert!(w.len() >= 50, "only {} queries generated", w.len());
        for lq in w.iter().take(20) {
            assert_eq!(lq.query.shape(), QueryShape::Chain);
            assert_eq!(lq.query.size(), 3);
            assert!(lq.cardinality >= 1);
            assert_eq!(lq.cardinality, matcher::count(&g, &lq.query));
        }
    }

    #[test]
    fn workload_has_no_duplicates() {
        let g = graph();
        let cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 3);
        let w = generate(&g, &cfg);
        let set: FxHashSet<&Query> = w.iter().map(|lq| &lq.query).collect();
        assert_eq!(set.len(), w.len());
    }

    #[test]
    fn all_queries_have_an_unbound_variable() {
        let g = graph();
        for shape in [QueryShape::Star, QueryShape::Chain] {
            let mut cfg = WorkloadConfig::test_default(shape, 2, 11);
            cfg.endpoint_bound_prob = 1.0; // stress the guarantee
            cfg.object_bound_prob = 1.0;
            let w = generate(&g, &cfg);
            for lq in &w {
                assert!(lq.query.has_unbound(), "query without variables: {:?}", lq.query);
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let g = graph();
        let cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 5);
        assert_eq!(generate(&g, &cfg), generate(&g, &cfg));
    }

    #[test]
    fn bucketing_respects_log5_bounds() {
        let queries: Vec<LabeledQuery> = [1u64, 4, 5, 24, 25, 125, 3000]
            .iter()
            .map(|&c| LabeledQuery {
                query: Query::new(vec![TriplePattern::new(
                    NodeTerm::Var(VarId(0)),
                    PredTerm::Bound(lmkg_store::PredId(0)),
                    NodeTerm::Bound(lmkg_store::NodeId(c as u32 % 3)),
                )]),
                cardinality: c,
            })
            .collect();
        let buckets = bucket_by_result_size(&queries, 5);
        assert_eq!(buckets[0].len(), 2); // 1, 4
        assert_eq!(buckets[1].len(), 2); // 5, 24
        assert_eq!(buckets[2].len(), 1); // 25
        assert_eq!(buckets[3].len(), 1); // 125
        assert_eq!(buckets[4].len(), 1); // 3000
    }

    #[test]
    fn balanced_select_draws_across_buckets() {
        let mut queries = Vec::new();
        for c in [1u64, 2, 3, 4, 6, 7, 8, 30, 31, 200] {
            queries.push(LabeledQuery {
                query: Query::new(vec![TriplePattern::new(
                    NodeTerm::Var(VarId(0)),
                    PredTerm::Bound(lmkg_store::PredId((c % 7) as u32)),
                    NodeTerm::Bound(lmkg_store::NodeId(c as u32)),
                )]),
                cardinality: c,
            });
        }
        let sel = balanced_select(&queries, 4, 5, 1);
        assert_eq!(sel.len(), 4);
        let buckets = bucket_by_result_size(&sel, 5);
        // One from each populated bucket before any second draws.
        assert!(buckets.iter().filter(|b| !b.is_empty()).count() >= 3);
    }

    #[test]
    fn balanced_select_handles_small_pools() {
        let queries: Vec<LabeledQuery> = (0..3)
            .map(|i| LabeledQuery {
                query: Query::new(vec![TriplePattern::new(
                    NodeTerm::Var(VarId(0)),
                    PredTerm::Bound(lmkg_store::PredId(i)),
                    NodeTerm::Var(VarId(1)),
                )]),
                cardinality: 1 + i as u64,
            })
            .collect();
        assert_eq!(balanced_select(&queries, 100, 5, 0).len(), 3);
        assert!(balanced_select(&[], 10, 5, 0).is_empty());
    }

    #[test]
    fn workload_cardinalities_are_skewed() {
        // Fig. 4: the vast majority of queries have small cardinality.
        let g = graph();
        let cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 13);
        let w = generate(&g, &cfg);
        let buckets = bucket_by_result_size(&w, 5);
        let small: usize = buckets.iter().take(2).map(|b| b.len()).sum();
        assert!(small * 2 > w.len(), "expected skew towards small cardinalities");
    }
}
