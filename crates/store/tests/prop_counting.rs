//! Property tests: the specialized counters, the generic matcher, and the
//! exponential brute-force enumerator must all agree on random graphs and
//! random queries. This is the correctness anchor for every experiment,
//! since `counter::cardinality` is the ground-truth oracle.
//!
//! It is also the tuple-space oracle LMKG-U is judged by: wherever
//! `counter::tuple_bounds` maps a query onto a tuple space, the query's
//! cardinality is the number of enumerated tuples that agree with its bound
//! positions — the identity behind `card = P(bound terms) · N`.

use lmkg_store::counter;
use lmkg_store::matcher;
use lmkg_store::{
    GraphBuilder, KnowledgeGraph, NodeId, NodeTerm, PredId, PredTerm, Query, QueryShape, TriplePattern, VarId,
};
use proptest::prelude::*;

const MAX_NODES: u32 = 6;
const MAX_PREDS: u32 = 3;

fn arb_graph() -> impl Strategy<Value = KnowledgeGraph> {
    prop::collection::vec((0..MAX_NODES, 0..MAX_PREDS, 0..MAX_NODES), 0..18).prop_map(|edges| {
        let mut b = GraphBuilder::new();
        // Intern the full id ranges so bound terms in queries always exist.
        for i in 0..MAX_NODES {
            b.node(&format!("n{i}"));
        }
        for i in 0..MAX_PREDS {
            b.pred(&format!("p{i}"));
        }
        for (s, p, o) in edges {
            b.add_ids(NodeId(s), PredId(p), NodeId(o));
        }
        b.build()
    })
}

/// Node term: bound node, or one of 4 node variables.
fn arb_node_term() -> impl Strategy<Value = NodeTerm> {
    prop_oneof![
        (0..MAX_NODES).prop_map(|n| NodeTerm::Bound(NodeId(n))),
        (0u16..4).prop_map(|v| NodeTerm::Var(VarId(v))),
    ]
}

/// Predicate term: bound, or one of 2 predicate variables (ids 8, 9 — kept
/// disjoint from node variable ids to satisfy `Query::validate`).
fn arb_pred_term() -> impl Strategy<Value = PredTerm> {
    prop_oneof![
        (0..MAX_PREDS).prop_map(|p| PredTerm::Bound(PredId(p))),
        (8u16..10).prop_map(|v| PredTerm::Var(VarId(v))),
    ]
}

fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    (arb_node_term(), arb_pred_term(), arb_node_term()).prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
}

fn arb_query(max_patterns: usize) -> impl Strategy<Value = Query> {
    prop::collection::vec(arb_pattern(), 1..=max_patterns).prop_map(Query::new)
}

/// A random star query: one center (var 0 or bound), k pairs.
fn arb_star_query() -> impl Strategy<Value = Query> {
    let center = prop_oneof![
        Just(NodeTerm::Var(VarId(0))),
        (0..MAX_NODES).prop_map(|n| NodeTerm::Bound(NodeId(n))),
    ];
    let pair = (arb_pred_term(), arb_node_term());
    (center, prop::collection::vec(pair, 2..5)).prop_map(|(c, pairs)| {
        let triples = pairs.into_iter().map(|(p, o)| TriplePattern::new(c, p, o)).collect();
        Query::new(triples)
    })
}

/// A random chain query with fresh link variables (vars 1..), possibly bound
/// endpoints and intermediate nodes.
fn arb_chain_query() -> impl Strategy<Value = Query> {
    (
        2usize..5,
        prop::collection::vec((arb_pred_term(), any::<bool>(), 0..MAX_NODES), 4),
    )
        .prop_map(|(k, spec)| {
            let mut triples = Vec::with_capacity(k);
            let mut prev = NodeTerm::Var(VarId(1));
            for i in 0..k {
                let (p, bind, node) = spec[i % spec.len()];
                let next = if bind && i + 1 < k {
                    NodeTerm::Bound(NodeId(node))
                } else {
                    NodeTerm::Var(VarId(2 + i as u16))
                };
                triples.push(TriplePattern::new(prev, p, next));
                prev = next;
            }
            Query::new(triples)
        })
}

/// Every tuple of the size-`k` star or chain tuple space of `g`, in the
/// `[n, p, n, p, …]` layout: a star tuple is a node and `k` of its
/// out-edges (with repetition), a chain tuple a directed walk of `k` edges.
fn enumerate_tuples(g: &KnowledgeGraph, shape: QueryShape, k: usize) -> Vec<Vec<usize>> {
    fn extend(g: &KnowledgeGraph, star: bool, k: usize, tuple: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let steps = tuple.len() / 2;
        if steps == k {
            out.push(tuple.clone());
            return;
        }
        let from = if star { tuple[0] } else { tuple[tuple.len() - 1] };
        for &(p, o) in g.out_edges(NodeId(from as u32)) {
            tuple.extend([p.index(), o.index()]);
            extend(g, star, k, tuple, out);
            tuple.truncate(tuple.len() - 2);
        }
    }
    let mut out = Vec::new();
    for n in g.node_ids() {
        extend(g, shape == QueryShape::Star, k, &mut vec![n.index()], &mut out);
    }
    out
}

/// Queries over node vars only are valid; mixed-role variables are rejected
/// by `validate`. Filter those out.
fn is_valid(q: &Query) -> bool {
    q.validate().is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generic_count_matches_brute_force(g in arb_graph(), q in arb_query(3)) {
        prop_assume!(is_valid(&q));
        prop_assert_eq!(matcher::count(&g, &q), matcher::brute_force_count(&g, &q));
    }

    #[test]
    fn cardinality_matches_brute_force(g in arb_graph(), q in arb_query(3)) {
        prop_assume!(is_valid(&q));
        prop_assert_eq!(counter::cardinality(&g, &q), matcher::brute_force_count(&g, &q));
    }

    #[test]
    fn star_counter_matches_generic(g in arb_graph(), q in arb_star_query()) {
        prop_assume!(is_valid(&q));
        prop_assert_eq!(counter::cardinality(&g, &q), matcher::count(&g, &q));
    }

    #[test]
    fn chain_counter_matches_generic(g in arb_graph(), q in arb_chain_query()) {
        prop_assume!(is_valid(&q));
        prop_assert_eq!(counter::cardinality(&g, &q), matcher::count(&g, &q));
    }

    /// The tuple-space oracle: where `tuple_bounds` accepts a query, its
    /// exact count is the number of enumerated tuples agreeing with every
    /// bound position. A single pattern is the size-1 tuple of both spaces.
    #[test]
    fn cardinality_counts_the_tuples_matching_tuple_bounds(
        g in arb_graph(),
        q in prop_oneof![arb_star_query(), arb_chain_query(), arb_query(1)],
    ) {
        prop_assume!(is_valid(&q));
        let spaces: &[QueryShape] = match q.shape() {
            QueryShape::Single => &[QueryShape::Star, QueryShape::Chain],
            QueryShape::Star => &[QueryShape::Star],
            QueryShape::Chain => &[QueryShape::Chain],
            QueryShape::Other => &[],
        };
        for &shape in spaces {
            let Ok(bounds) = counter::tuple_bounds(shape, q.size(), &q) else { continue };
            prop_assert_eq!(bounds.len(), 2 * q.size() + 1);
            let matching = enumerate_tuples(&g, shape, q.size())
                .iter()
                .filter(|t| t.iter().zip(&bounds).all(|(&v, b)| b.is_none_or(|b| b == v)))
                .count() as u64;
            prop_assert_eq!(counter::cardinality(&g, &q), matching);
        }
    }

    /// `tuple_bounds` is total: any query, any tuple space, any size.
    #[test]
    fn tuple_bounds_never_panics(
        q in prop_oneof![arb_query(4), Just(Query::new(vec![]))],
        shape in prop_oneof![
            Just(QueryShape::Star),
            Just(QueryShape::Chain),
            Just(QueryShape::Single),
            Just(QueryShape::Other),
        ],
        k in 0usize..6,
    ) {
        if let Ok(bounds) = counter::tuple_bounds(shape, k, &q) {
            prop_assert_eq!(bounds.len(), 2 * k + 1);
            prop_assert!(shape != QueryShape::Other);
        }
    }

    #[test]
    fn evaluate_len_equals_count(g in arb_graph(), q in arb_query(2)) {
        prop_assume!(is_valid(&q));
        let rows = matcher::evaluate(&g, &q, None);
        prop_assert_eq!(rows.len() as u64, matcher::count(&g, &q));
    }

    #[test]
    fn star_tuple_total_equals_unbound_star(g in arb_graph(), k in 1usize..4) {
        // The all-variable star of size k has cardinality N_star(k).
        let mut triples = Vec::new();
        for i in 0..k {
            triples.push(TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Var(VarId(10 + i as u16)),
                NodeTerm::Var(VarId(1 + i as u16)),
            ));
        }
        let q = Query::new(triples);
        let exact = if k == 1 { matcher::count(&g, &q) } else { counter::cardinality(&g, &q) };
        prop_assert_eq!(exact as f64, counter::star_tuple_total(&g, k));
    }

    #[test]
    fn chain_tuple_total_equals_unbound_chain(g in arb_graph(), k in 1usize..4) {
        let mut triples = Vec::new();
        for i in 0..k {
            triples.push(TriplePattern::new(
                NodeTerm::Var(VarId(i as u16)),
                PredTerm::Var(VarId(10 + i as u16)),
                NodeTerm::Var(VarId(i as u16 + 1)),
            ));
        }
        let q = Query::new(triples);
        let exact = counter::cardinality(&g, &q);
        prop_assert_eq!(exact as f64, counter::chain_tuple_total(&g, k));
    }

    #[test]
    fn count_single_is_exact(g in arb_graph(),
                             s in prop::option::of(0..MAX_NODES),
                             p in prop::option::of(0..MAX_PREDS),
                             o in prop::option::of(0..MAX_NODES)) {
        let s = s.map(NodeId);
        let p = p.map(PredId);
        let o = o.map(NodeId);
        let expected = g
            .triples()
            .iter()
            .filter(|t| s.is_none_or(|s| s == t.s) && p.is_none_or(|p| p == t.p) && o.is_none_or(|o| o == t.o))
            .count() as u64;
        prop_assert_eq!(g.count_single(s, p, o), expected);
    }
}
