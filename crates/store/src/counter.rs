//! Exact cardinality counting, and the one definition of LMKG's tuple spaces.
//!
//! The tuple space of star patterns of size `k` is
//! `{(s, p1, o1, …, pk, ok) : every (pi, oi) is an out-edge of s}` with
//! `N_star(k) = Σ_s outdeg(s)^k`; for chains it is the set of directed walks
//! of length `k`, counted by dynamic programming. Both lay a tuple out as
//! `[n, p, n, p, …]`: the first subject, then each triple's predicate and
//! object.
//!
//! [`tuple_bounds`] is the one rule for which queries are point sets of a
//! tuple space, and it maps them onto that layout: a star or chain query
//! whose free positions hold pairwise-distinct variables matches exactly the
//! tuples that agree with its bound positions, so under homomorphism (bag)
//! semantics its cardinality is the number of such tuples — the identity
//! that makes LMKG-U's `card = P(query) · N` exact. [`cardinality`] takes its
//! linear star and frontier-DP chain counters exactly for those queries, and
//! LMKG-U maps its queries through the same function.

use crate::dict::NodeId;
use crate::fxhash::FxHashMap;
use crate::graph::KnowledgeGraph;
use crate::matcher;
use crate::triple::{NodeTerm, Query, QueryShape, VarId};

/// Why a query is not a point set of a `(shape, k)` tuple space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleBoundsError {
    /// The query's topology is not the tuple space's.
    WrongShape {
        /// Tuple-space topology.
        expected: QueryShape,
        /// Query topology.
        actual: QueryShape,
    },
    /// The query's size is not the tuple size.
    WrongSize {
        /// Tuple size `k`.
        expected: usize,
        /// Query size.
        actual: usize,
    },
    /// A variable occupies two free positions of the tuple (e.g. the same
    /// variable as two objects), which no set of bound positions expresses.
    RepeatedVariable,
}

impl std::fmt::Display for TupleBoundsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TupleBoundsError::WrongShape { expected, actual } => {
                write!(f, "tuple space holds {expected} queries, got {actual}")
            }
            TupleBoundsError::WrongSize { expected, actual } => {
                write!(f, "tuple space holds size-{expected} queries, got size {actual}")
            }
            TupleBoundsError::RepeatedVariable => {
                write!(f, "a variable repeats across free tuple positions")
            }
        }
    }
}

impl std::error::Error for TupleBoundsError {}

/// The bound values of `query` in the `[n, p, n, p, …]` layout of the
/// `(shape, k)` tuple space (`None` = free position), when the query's
/// cardinality equals the number of tuples matching them.
///
/// Star and chain spaces take queries of their own shape and size `k`; a
/// single-pattern query is the size-1 tuple of either, and `Single` names
/// that space itself (`k = 1`). `Other` has no tuple space. The free
/// positions — the first subject and every predicate and object — must hold
/// pairwise-distinct variables; the structural repeats (a star's center, a
/// chain's links) are implied by the shape. Never panics.
pub fn tuple_bounds(shape: QueryShape, k: usize, query: &Query) -> Result<Vec<Option<usize>>, TupleBoundsError> {
    let actual = query.shape();
    let compatible = match shape {
        QueryShape::Star | QueryShape::Chain => actual == shape || (actual == QueryShape::Single && k == 1),
        QueryShape::Single => actual == QueryShape::Single,
        QueryShape::Other => false,
    };
    if !compatible {
        return Err(TupleBoundsError::WrongShape {
            expected: shape,
            actual,
        });
    }
    if query.size() != k {
        return Err(TupleBoundsError::WrongSize {
            expected: k,
            actual: query.size(),
        });
    }
    let mut bounds = Vec::with_capacity(2 * k + 1);
    let mut free_vars: Vec<VarId> = Vec::with_capacity(2 * k + 1);
    let mut free = |var: Option<VarId>| match var {
        Some(v) if free_vars.contains(&v) => Err(TupleBoundsError::RepeatedVariable),
        Some(v) => {
            free_vars.push(v);
            Ok(())
        }
        None => Ok(()),
    };
    for (i, t) in query.triples.iter().enumerate() {
        if i == 0 {
            free(t.s.var())?;
            bounds.push(t.s.bound().map(NodeId::index));
        }
        free(t.p.var())?;
        bounds.push(t.p.bound().map(|p| p.index()));
        free(t.o.var())?;
        bounds.push(t.o.bound().map(NodeId::index));
    }
    Ok(bounds)
}

/// Exact cardinality of `query` in `graph`.
///
/// A star or chain query for which [`tuple_bounds`] succeeds is counted by
/// a linear-time star counter or a frontier-DP chain counter; every other
/// query by the generic backtracking matcher. All paths agree (see
/// proptests).
pub fn cardinality(graph: &KnowledgeGraph, query: &Query) -> u64 {
    let shape = query.shape();
    let point_set = tuple_bounds(shape, query.size(), query).is_ok();
    match shape {
        QueryShape::Star if point_set => count_star(graph, query),
        QueryShape::Chain if point_set => count_chain(graph, query),
        _ => matcher::count(graph, query),
    }
}

/// Total number of star tuples of size `k`: `Σ_s outdeg(s)^k` (f64 to avoid
/// overflow — for k=8 even modest hubs overflow u64).
pub fn star_tuple_total(graph: &KnowledgeGraph, k: usize) -> f64 {
    graph
        .node_ids()
        .map(|s| (graph.out_degree(s) as f64).powi(k as i32))
        .sum()
}

/// Total number of directed walks with `k` edges (the chain tuple space).
pub fn chain_tuple_total(graph: &KnowledgeGraph, k: usize) -> f64 {
    walk_counts(graph, k).last().map(|lvl| lvl.iter().sum()).unwrap_or(0.0)
}

/// `walk_counts(g, k)[i][v]` = number of directed walks with `i` edges
/// starting at node `v`. Level 0 is all-ones. Used for exact uniform walk
/// sampling and for `chain_tuple_total`.
pub fn walk_counts(graph: &KnowledgeGraph, k: usize) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut levels = Vec::with_capacity(k + 1);
    levels.push(vec![1.0f64; n]);
    for _ in 0..k {
        let prev = levels.last().expect("at least level 0");
        let mut next = vec![0.0f64; n];
        for (v, nx) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(_, o) in graph.out_edges(NodeId(v as u32)) {
                acc += prev[o.index()];
            }
            *nx = acc;
        }
        levels.push(next);
    }
    levels
}

fn count_star(graph: &KnowledgeGraph, query: &Query) -> u64 {
    let center = query.triples[0].s;
    match center {
        NodeTerm::Bound(s) => star_product(graph, query, s),
        NodeTerm::Var(_) => {
            // Drive candidates from the most selective fully bound (p, o)
            // pair; its subjects are unique because triples are deduped.
            let anchor = query
                .triples
                .iter()
                .filter(|t| t.p.bound().is_some() && t.o.bound().is_some())
                .min_by_key(|t| graph.count_single(None, t.p.bound(), t.o.bound()));
            let mut candidates: Vec<NodeId> = Vec::new();
            match anchor {
                Some(t) => graph.for_each_match(None, t.p.bound(), t.o.bound(), |m| candidates.push(m.s)),
                None => candidates.extend(graph.subjects_iter()),
            }
            candidates.into_iter().map(|s| star_product(graph, query, s)).sum()
        }
    }
}

/// Number of matches of a star with bound center `s`: the product over triple
/// patterns of per-pattern edge counts (valid because [`tuple_bounds`]
/// guarantees object/predicate variables are independent).
fn star_product(graph: &KnowledgeGraph, query: &Query, s: NodeId) -> u64 {
    let mut prod = 1u64;
    for t in &query.triples {
        let f = graph.count_single(Some(s), t.p.bound(), t.o.bound());
        if f == 0 {
            return 0;
        }
        prod = prod.saturating_mul(f);
    }
    prod
}

fn count_chain(graph: &KnowledgeGraph, query: &Query) -> u64 {
    // Frontier over the current link node → number of partial walks.
    let mut frontier: FxHashMap<NodeId, u64> = FxHashMap::default();

    // First hop: enumerate matches of t1 directly from the indexes.
    let t0 = &query.triples[0];
    graph.for_each_match(t0.s.bound(), t0.p.bound(), t0.o.bound(), |t| {
        *frontier.entry(t.o).or_insert(0) += 1;
    });

    for t in &query.triples[1..] {
        if frontier.is_empty() {
            return 0;
        }
        let mut next: FxHashMap<NodeId, u64> = FxHashMap::default();
        for (&node, &cnt) in &frontier {
            graph.for_each_match(Some(node), t.p.bound(), t.o.bound(), |m| {
                *next.entry(m.o).or_insert(0) += cnt;
            });
        }
        frontier = next;
    }
    frontier.values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::PredId;
    use crate::graph::GraphBuilder;
    use crate::triple::{PredTerm, TriplePattern};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }
    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn pr(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        // a(0) knows(0) b(1), a knows c(2), b knows c, a likes(1) c, c likes a,
        // c knows d(3), d likes a.
        b.add("a", "knows", "b");
        b.add("a", "knows", "c");
        b.add("b", "knows", "c");
        b.add("a", "likes", "c");
        b.add("c", "likes", "a");
        b.add("c", "knows", "d");
        b.add("d", "likes", "a");
        b.build()
    }

    #[test]
    fn star_counter_agrees_with_matcher() {
        let g = graph();
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(0), pr(1), v(2)),
        ]);
        assert_eq!(q.shape(), QueryShape::Star);
        assert_eq!(
            tuple_bounds(QueryShape::Star, 2, &q),
            Ok(vec![None, Some(0), None, Some(1), None])
        );
        assert_eq!(cardinality(&g, &q), matcher::count(&g, &q));
    }

    #[test]
    fn star_with_bound_center() {
        let g = graph();
        let q = Query::new(vec![
            TriplePattern::new(n(0), pr(0), v(0)),
            TriplePattern::new(n(0), pr(1), v(1)),
        ]);
        // a: 2 knows × 1 likes = 2.
        assert_eq!(cardinality(&g, &q), 2);
    }

    #[test]
    fn star_with_bound_objects() {
        let g = graph();
        // ?x knows c . ?x likes c → a only (b knows c but b likes nothing).
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), n(2)),
            TriplePattern::new(v(0), pr(1), n(2)),
        ]);
        assert_eq!(cardinality(&g, &q), 1);
        assert_eq!(matcher::count(&g, &q), 1);
    }

    #[test]
    fn star_repeated_object_var_falls_back() {
        let g = graph();
        // ?x knows ?y . ?x likes ?y — same object var: not fast-path.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(0), pr(1), v(1)),
        ]);
        assert_eq!(
            tuple_bounds(QueryShape::Star, 2, &q),
            Err(TupleBoundsError::RepeatedVariable)
        );
        assert_eq!(cardinality(&g, &q), matcher::count(&g, &q));
        assert_eq!(cardinality(&g, &q), 1); // a knows c & a likes c
    }

    #[test]
    fn chain_counter_agrees_with_matcher() {
        let g = graph();
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(1), v(2)),
        ]);
        assert_eq!(q.shape(), QueryShape::Chain);
        assert_eq!(
            tuple_bounds(QueryShape::Chain, 2, &q),
            Ok(vec![None, Some(0), None, Some(1), None])
        );
        assert_eq!(cardinality(&g, &q), matcher::count(&g, &q));
    }

    #[test]
    fn chain_with_bound_intermediate() {
        let g = graph();
        // ?x knows c . c likes ?z → x ∈ {a, b}, z = a → 2.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), n(2)),
            TriplePattern::new(n(2), pr(1), v(1)),
        ]);
        assert_eq!(cardinality(&g, &q), 2);
        assert_eq!(matcher::count(&g, &q), 2);
    }

    #[test]
    fn chain_length_three() {
        let g = graph();
        // ?a knows ?b . ?b knows ?c . ?c likes ?d
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(0), v(2)),
            TriplePattern::new(v(2), pr(1), v(3)),
        ]);
        assert_eq!(cardinality(&g, &q), matcher::count(&g, &q));
    }

    #[test]
    fn cycle_falls_back_to_generic() {
        let g = graph();
        // ?x knows ?y . ?y likes ?x — end var reused: not a chain fast path.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(1), v(0)),
        ]);
        assert_eq!(
            tuple_bounds(QueryShape::Chain, 2, &q),
            Err(TupleBoundsError::RepeatedVariable)
        );
        assert_eq!(cardinality(&g, &q), matcher::count(&g, &q));
    }

    #[test]
    fn star_tuple_total_matches_definition() {
        let g = graph();
        // outdegs: a=3, b=1, c=2, d=1.
        assert_eq!(star_tuple_total(&g, 1), 3.0 + 1.0 + 2.0 + 1.0);
        assert_eq!(star_tuple_total(&g, 2), 9.0 + 1.0 + 4.0 + 1.0);
    }

    #[test]
    fn chain_tuple_total_matches_walk_enumeration() {
        let g = graph();
        // Walks of length 1 = number of edges.
        assert_eq!(chain_tuple_total(&g, 1), g.num_triples() as f64);
        // Walks of length 2: brute force.
        let mut walks2 = 0u64;
        for &t1 in g.triples() {
            for &t2 in g.triples() {
                if t1.o == t2.s {
                    walks2 += 1;
                }
            }
        }
        assert_eq!(chain_tuple_total(&g, 2), walks2 as f64);
    }

    #[test]
    fn walk_counts_level_zero_is_ones() {
        let g = graph();
        let w = walk_counts(&g, 3);
        assert_eq!(w.len(), 4);
        assert!(w[0].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn star_total_equals_sum_of_fullvar_star_cardinalities() {
        let g = graph();
        // The full-variable star of size 2 should count exactly N_star(2).
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Var(VarId(3)), v(1)),
            TriplePattern::new(v(0), PredTerm::Var(VarId(4)), v(2)),
        ]);
        assert_eq!(cardinality(&g, &q) as f64, star_tuple_total(&g, 2));
    }

    #[test]
    fn chain_total_equals_fullvar_chain_cardinality() {
        let g = graph();
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Var(VarId(4)), v(1)),
            TriplePattern::new(v(1), PredTerm::Var(VarId(5)), v(2)),
        ]);
        assert_eq!(cardinality(&g, &q) as f64, chain_tuple_total(&g, 2));
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let g = graph();
        // b likes ?x (no matches) then ?x knows ?y.
        let q = Query::new(vec![
            TriplePattern::new(n(1), pr(1), v(0)),
            TriplePattern::new(v(0), pr(0), v(1)),
        ]);
        assert_eq!(cardinality(&g, &q), 0);
    }

    #[test]
    fn tuple_bounds_is_total_over_shapes_and_sizes() {
        let single = Query::new(vec![TriplePattern::new(n(0), pr(1), v(0))]);
        let star = Query::new(vec![
            TriplePattern::new(v(0), pr(0), n(1)),
            TriplePattern::new(v(0), pr(1), v(1)),
        ]);
        let other = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(2), pr(1), v(3)),
        ]);
        let empty = Query::new(vec![]);
        // A single pattern is the size-1 tuple of every tuple space.
        for shape in [QueryShape::Star, QueryShape::Chain, QueryShape::Single] {
            assert_eq!(tuple_bounds(shape, 1, &single), Ok(vec![Some(0), Some(1), None]));
            assert!(tuple_bounds(shape, 2, &single).is_err());
        }
        assert!(matches!(
            tuple_bounds(QueryShape::Single, 2, &single),
            Err(TupleBoundsError::WrongSize { expected: 2, actual: 1 })
        ));
        assert_eq!(
            tuple_bounds(QueryShape::Star, 2, &star),
            Ok(vec![None, Some(0), Some(1), Some(1), None])
        );
        assert!(matches!(
            tuple_bounds(QueryShape::Chain, 2, &star),
            Err(TupleBoundsError::WrongShape { .. })
        ));
        assert!(matches!(
            tuple_bounds(QueryShape::Single, 2, &star),
            Err(TupleBoundsError::WrongShape { .. })
        ));
        // `Other` has no tuple space, whatever the query or size.
        for q in [&single, &star, &other, &empty] {
            for k in 0..3 {
                assert!(matches!(
                    tuple_bounds(QueryShape::Other, k, q),
                    Err(TupleBoundsError::WrongShape { .. })
                ));
            }
        }
        for shape in [QueryShape::Star, QueryShape::Chain, QueryShape::Single] {
            assert!(tuple_bounds(shape, 0, &empty).is_err());
            assert!(tuple_bounds(shape, 2, &other).is_err());
        }
    }

    #[test]
    fn tuple_bounds_refuses_a_predicate_variable_reused_as_a_node() {
        // Invalid as a query, and no tuple either.
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Var(VarId(0)), v(1)),
            TriplePattern::new(v(0), pr(1), v(2)),
        ]);
        assert_eq!(
            tuple_bounds(QueryShape::Star, 2, &q),
            Err(TupleBoundsError::RepeatedVariable)
        );
    }
}
