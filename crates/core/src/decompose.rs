//! Query decomposition (paper §IV, Fig. 1 "Query Decomposition"): queries
//! whose type or size no model covers are split into star/chain subpatterns
//! that the existing models can answer; the sub-estimates are combined under
//! join uniformity in the framework.

use lmkg_store::{NodeTerm, Query, TriplePattern};

/// Splits `query` into subqueries, each of a recognized shape (star, chain,
/// or single triple) and at most `max_size` triples.
///
/// Strategy: extract maximal subject-stars first (largest groups first),
/// then stitch the remaining triples into chains along `o → s` links, and
/// leave whatever remains as single-triple queries. The union of the
/// subqueries' triples is exactly the input's triples.
pub fn decompose(query: &Query, max_size: usize) -> Vec<Query> {
    assert!(max_size >= 1);
    let mut remaining: Vec<TriplePattern> = query.triples.clone();
    let mut out = Vec::new();

    // 1. Subject stars.
    while let Some(center) = best_star_center(&remaining) {
        let (star, rest): (Vec<_>, Vec<_>) = remaining.into_iter().partition(|t| t.s == center);
        remaining = rest;
        for chunk in star.chunks(max_size) {
            out.push(Query::new(chunk.to_vec()));
        }
    }

    // 2. Chains along o→s links.
    while !remaining.is_empty() {
        let mut chain = vec![remaining.swap_remove(0)];
        // Extend forward.
        loop {
            let tail = chain.last().expect("chain non-empty").o;
            match remaining.iter().position(|t| t.s == tail) {
                Some(i) if chain.len() < max_size => chain.push(remaining.swap_remove(i)),
                _ => break,
            }
        }
        // Extend backward.
        loop {
            let head = chain[0].s;
            match remaining.iter().position(|t| t.o == head) {
                Some(i) if chain.len() < max_size => chain.insert(0, remaining.swap_remove(i)),
                _ => break,
            }
        }
        out.push(Query::new(chain));
    }
    out
}

/// The subject term shared by the most (≥ 2) remaining triples.
fn best_star_center(triples: &[TriplePattern]) -> Option<NodeTerm> {
    let mut best: Option<(NodeTerm, usize)> = None;
    for t in triples {
        let count = triples.iter().filter(|u| u.s == t.s).count();
        if count >= 2 && best.is_none_or(|(_, c)| count > c) {
            best = Some((t.s, count));
        }
    }
    best.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{NodeId, PredId, PredTerm, QueryShape, VarId};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }
    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn p(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }

    fn total_triples(parts: &[Query]) -> usize {
        parts.iter().map(|q| q.size()).sum()
    }

    #[test]
    fn big_star_is_chunked() {
        let q = Query::new(
            (0..5)
                .map(|i| TriplePattern::new(v(0), p(i), v(1 + i as u16)))
                .collect(),
        );
        let parts = decompose(&q, 2);
        assert_eq!(total_triples(&parts), 5);
        assert!(parts.iter().all(|part| part.size() <= 2));
        // All parts are stars or singles centered on ?0.
        for part in &parts {
            assert!(matches!(part.shape(), QueryShape::Star | QueryShape::Single));
            assert_eq!(part.triples[0].s, v(0));
        }
    }

    #[test]
    fn long_chain_is_chunked() {
        let q = Query::new(
            (0..6)
                .map(|i| TriplePattern::new(v(i as u16), p(0), v(i as u16 + 1)))
                .collect(),
        );
        let parts = decompose(&q, 3);
        assert_eq!(total_triples(&parts), 6);
        for part in &parts {
            assert!(part.size() <= 3);
            assert!(matches!(part.shape(), QueryShape::Chain | QueryShape::Single));
        }
    }

    #[test]
    fn composite_star_chain_splits_into_both() {
        // Star at ?0 (two triples) + chain hanging off ?1.
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), n(5)),
            TriplePattern::new(v(1), p(2), v(2)),
        ]);
        assert_eq!(q.shape(), QueryShape::Other);
        let parts = decompose(&q, 4);
        assert_eq!(total_triples(&parts), 3);
        let shapes: Vec<QueryShape> = parts.iter().map(|p| p.shape()).collect();
        assert!(shapes.contains(&QueryShape::Star));
        assert!(shapes.contains(&QueryShape::Single));
    }

    #[test]
    fn decompose_preserves_all_triples() {
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(2)),
            TriplePattern::new(v(2), p(0), v(3)),
            TriplePattern::new(v(0), p(2), v(4)),
        ]);
        let parts = decompose(&q, 8);
        let mut collected: Vec<TriplePattern> = parts.iter().flat_map(|p| p.triples.clone()).collect();
        let mut original = q.triples.clone();
        collected.sort_by_key(|t| format!("{t:?}"));
        original.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(collected, original);
    }

    #[test]
    fn already_small_star_is_untouched() {
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), v(2)),
        ]);
        let parts = decompose(&q, 4);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], q);
    }

    #[test]
    fn chain_stitching_follows_links_backward_too() {
        // Triples given out of order; decomposition should still form a chain.
        let q = Query::new(vec![
            TriplePattern::new(v(1), p(0), v(2)),
            TriplePattern::new(v(0), p(0), v(1)),
        ]);
        let parts = decompose(&q, 4);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].shape(), QueryShape::Chain);
        assert_eq!(parts[0].triples[0].s, v(0));
    }
}
