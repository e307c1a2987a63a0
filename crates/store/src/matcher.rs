//! Generic basic-graph-pattern matching and exact counting.
//!
//! Matching follows SPARQL *homomorphism* (bag) semantics: every assignment
//! of variables to graph terms that makes all triple patterns present in the
//! graph counts, and two variables may map to the same term. This is the same
//! semantics LMKG's tuple spaces use, so exact counts and model estimates are
//! directly comparable.
//!
//! This module owns the binding rules every join in the workspace uses:
//! [`resolve`] turns a pattern under partial bindings into the
//! single-pattern lookup it asks for ([`Resolved`]), and [`try_bind`] /
//! [`undo_bind`] extend and retract bindings with one matching triple. The
//! sampling baselines walk with the same three functions.
//!
//! The counter is a backtracking join with two standard optimizations:
//! * **greedy ordering** — at every step the remaining pattern with the
//!   fewest index-estimated candidates is expanded next;
//! * **free-variable counting** — a pattern whose unbound variables occur
//!   nowhere else contributes a closed-form factor `count_single(...)`
//!   instead of being enumerated.

use crate::dict::{NodeId, PredId};
use crate::graph::KnowledgeGraph;
use crate::triple::{NodeTerm, PredTerm, Query, Triple, TriplePattern, VarId};

/// A variable assignment produced by [`evaluate`]: `(variable, raw term id)`.
/// Node variables carry node ids, predicate variables predicate ids.
pub type Binding = Vec<(VarId, u32)>;

/// Exact number of matches (homomorphisms) of `query` in `graph`.
///
/// Panics if the query is invalid (see [`Query::validate`]).
pub fn count(graph: &KnowledgeGraph, query: &Query) -> u64 {
    query.validate().expect("invalid query");
    let mut bindings = vec![None; query.var_table_size()];
    let mut remaining: Vec<usize> = (0..query.triples.len()).collect();
    count_rec(graph, query, &mut remaining, &mut bindings)
}

/// Materializes variable bindings of `query` in `graph`, up to `limit`
/// results (`None` = all). Intended for tests, examples, and small queries.
pub fn evaluate(graph: &KnowledgeGraph, query: &Query, limit: Option<usize>) -> Vec<Binding> {
    query.validate().expect("invalid query");
    let mut bindings = vec![None; query.var_table_size()];
    let mut remaining: Vec<usize> = (0..query.triples.len()).collect();
    let mut out = Vec::new();
    let vars = query.vars();
    evaluate_rec(graph, query, &mut remaining, &mut bindings, &vars, limit, &mut out);
    out
}

/// Reference brute-force counter: enumerates all `|T|^k` triple combinations.
/// Exponential — only for cross-checking on tiny graphs in tests.
pub fn brute_force_count(graph: &KnowledgeGraph, query: &Query) -> u64 {
    query.validate().expect("invalid query");
    let mut bindings = vec![None; query.var_table_size()];
    brute_rec(graph, &query.triples, 0, &mut bindings)
}

fn brute_rec(g: &KnowledgeGraph, pats: &[TriplePattern], i: usize, bindings: &mut [Option<u32>]) -> u64 {
    if i == pats.len() {
        return 1;
    }
    let mut total = 0;
    for &t in g.triples() {
        if let Some(undo) = try_bind(&pats[i], t, bindings) {
            total += brute_rec(g, pats, i + 1, bindings);
            undo_bind(undo, bindings);
        }
    }
    total
}

/// One pattern under partial bindings: each position's bound term —
/// constant, or a variable's current value — or `None` where the position
/// is still free. It names the single-pattern lookup
/// ([`KnowledgeGraph::count_single`], [`KnowledgeGraph::for_each_match`],
/// [`KnowledgeGraph::nth_match`]) the pattern asks for at this point of a
/// join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Bound subject.
    pub s: Option<NodeId>,
    /// Bound predicate.
    pub p: Option<PredId>,
    /// Bound object.
    pub o: Option<NodeId>,
}

/// Resolves `pat` under `bindings` (indexed by variable id).
pub fn resolve(pat: &TriplePattern, bindings: &[Option<u32>]) -> Resolved {
    let node = |term: NodeTerm| match term {
        NodeTerm::Bound(n) => Some(n),
        NodeTerm::Var(v) => bindings[v.index()].map(NodeId),
    };
    Resolved {
        s: node(pat.s),
        p: match pat.p {
            PredTerm::Bound(p) => Some(p),
            PredTerm::Var(v) => bindings[v.index()].map(PredId),
        },
        o: node(pat.o),
    }
}

/// Binds pattern variables against a concrete triple; returns the list of
/// variables newly bound (for [`undo_bind`]), or `None` on mismatch — a
/// pattern that repeats a variable (`?x :p ?x`) rejects triples whose two
/// positions differ.
pub fn try_bind(pat: &TriplePattern, t: Triple, bindings: &mut [Option<u32>]) -> Option<Vec<VarId>> {
    let mut bound = Vec::new();
    let mut ok = true;

    let bind_node = |term: NodeTerm, val: NodeId, bindings: &mut [Option<u32>], bound: &mut Vec<VarId>| match term {
        NodeTerm::Bound(n) => n == val,
        NodeTerm::Var(v) => match bindings[v.index()] {
            Some(existing) => existing == val.0,
            None => {
                bindings[v.index()] = Some(val.0);
                bound.push(v);
                true
            }
        },
    };

    ok &= bind_node(pat.s, t.s, bindings, &mut bound);
    if ok {
        ok &= match pat.p {
            PredTerm::Bound(p) => p == t.p,
            PredTerm::Var(v) => match bindings[v.index()] {
                Some(existing) => existing == t.p.0,
                None => {
                    bindings[v.index()] = Some(t.p.0);
                    bound.push(v);
                    true
                }
            },
        };
    }
    if ok {
        ok &= bind_node(pat.o, t.o, bindings, &mut bound);
    }

    if ok {
        Some(bound)
    } else {
        undo_bind(bound, bindings);
        None
    }
}

/// Undoes the bindings [`try_bind`] created.
pub fn undo_bind(bound: Vec<VarId>, bindings: &mut [Option<u32>]) {
    for v in bound {
        bindings[v.index()] = None;
    }
}

/// Picks the remaining pattern with the smallest estimated candidate count.
fn pick_next(g: &KnowledgeGraph, query: &Query, remaining: &[usize], bindings: &[Option<u32>]) -> (usize, u64) {
    let mut best = (0usize, u64::MAX);
    for (slot, &idx) in remaining.iter().enumerate() {
        let r = resolve(&query.triples[idx], bindings);
        let est = g.count_single(r.s, r.p, r.o);
        if est < best.1 {
            best = (slot, est);
        }
    }
    best
}

/// Whether `pat`'s matches factor out of the rest of the join: its unbound
/// variables occur in no *other* remaining pattern, and no unbound variable
/// occurs twice within it (`?x :p ?x` is not counted by `count_single`).
fn closed_form(query: &Query, remaining: &[usize], pat: &TriplePattern, bindings: &[Option<u32>]) -> bool {
    let unbound = |v: &VarId| bindings[v.index()].is_none();
    let repeated = pat.s.var().filter(unbound).is_some_and(|v| pat.o.var() == Some(v));
    !repeated
        && pat
            .vars()
            .filter(unbound)
            .all(|v| remaining.iter().all(|&i| !query.triples[i].vars().any(|w| w == v)))
}

fn count_rec(g: &KnowledgeGraph, query: &Query, remaining: &mut Vec<usize>, bindings: &mut Vec<Option<u32>>) -> u64 {
    if remaining.is_empty() {
        return 1;
    }
    let (slot, est) = pick_next(g, query, remaining, bindings);
    if est == 0 {
        return 0;
    }
    let idx = remaining.swap_remove(slot);
    let pat = query.triples[idx];
    let r = resolve(&pat, bindings);

    let total = if closed_form(query, remaining, &pat, bindings) {
        // Closed form: candidates factor out.
        let factor = g.count_single(r.s, r.p, r.o);
        if factor == 0 {
            0
        } else {
            factor * count_rec(g, query, remaining, bindings)
        }
    } else {
        let mut sum = 0u64;
        // Enumerate candidates and recurse. We must collect matching triples
        // because `for_each_match` borrows the graph immutably while the
        // recursion also reads it — cheap: candidate lists are the smallest
        // available by construction.
        let mut candidates = Vec::with_capacity(est.min(1024) as usize);
        g.for_each_match(r.s, r.p, r.o, |t| candidates.push(t));
        for t in candidates {
            if let Some(undo) = try_bind(&pat, t, bindings) {
                sum += count_rec(g, query, remaining, bindings);
                undo_bind(undo, bindings);
            }
        }
        sum
    };

    remaining.push(idx);
    let last = remaining.len() - 1;
    remaining.swap(slot, last);
    total
}

#[allow(clippy::too_many_arguments)]
fn evaluate_rec(
    g: &KnowledgeGraph,
    query: &Query,
    remaining: &mut Vec<usize>,
    bindings: &mut Vec<Option<u32>>,
    vars: &[VarId],
    limit: Option<usize>,
    out: &mut Vec<Binding>,
) {
    if limit.is_some_and(|l| out.len() >= l) {
        return;
    }
    if remaining.is_empty() {
        let row: Binding = vars
            .iter()
            .map(|&v| (v, bindings[v.index()].expect("all vars bound at leaf")))
            .collect();
        out.push(row);
        return;
    }
    let (slot, _) = pick_next(g, query, remaining, bindings);
    let idx = remaining.swap_remove(slot);
    let pat = query.triples[idx];
    let r = resolve(&pat, bindings);

    let mut candidates = Vec::new();
    g.for_each_match(r.s, r.p, r.o, |t| candidates.push(t));
    for t in candidates {
        if let Some(undo) = try_bind(&pat, t, bindings) {
            evaluate_rec(g, query, remaining, bindings, vars, limit, out);
            undo_bind(undo, bindings);
        }
    }

    remaining.push(idx);
    let last = remaining.len() - 1;
    remaining.swap(slot, last);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn pr(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }
    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    /// a --knows--> b, a --knows--> c, b --knows--> c, a --likes--> c,
    /// c --likes--> a. ids: a=0, b=1, c=2; knows=0, likes=1.
    fn g() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add("a", "knows", "b");
        b.add("a", "knows", "c");
        b.add("b", "knows", "c");
        b.add("a", "likes", "c");
        b.add("c", "likes", "a");
        b.build()
    }

    #[test]
    fn single_pattern_counts() {
        let g = g();
        let q = Query::new(vec![TriplePattern::new(v(0), pr(0), v(1))]);
        assert_eq!(count(&g, &q), 3);
        assert_eq!(brute_force_count(&g, &q), 3);
    }

    #[test]
    fn star_query_count() {
        let g = g();
        // ?x knows ?y . ?x likes ?z  → x=a: 2 knows × 1 likes = 2.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(0), pr(1), v(2)),
        ]);
        assert_eq!(count(&g, &q), 2);
        assert_eq!(brute_force_count(&g, &q), 2);
    }

    #[test]
    fn chain_query_count() {
        let g = g();
        // ?x knows ?y . ?y likes ?z → (a,c,a), (b,c,a) = 2.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(1), v(2)),
        ]);
        assert_eq!(count(&g, &q), 2);
        assert_eq!(brute_force_count(&g, &q), 2);
    }

    #[test]
    fn repeated_var_within_pattern() {
        let mut b = GraphBuilder::new();
        b.add("x", "self", "x");
        b.add("x", "self", "y");
        let g = b.build();
        // ?a self ?a → only the loop.
        let q = Query::new(vec![TriplePattern::new(v(0), pr(0), v(0))]);
        assert_eq!(count(&g, &q), 1);
        assert_eq!(brute_force_count(&g, &q), 1);
    }

    #[test]
    fn cycle_query() {
        let g = g();
        // ?x knows ?y . ?y likes ?x → need y likes x: (a knows c)&(c likes a) = 1.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(1), v(0)),
        ]);
        assert_eq!(count(&g, &q), 1);
        assert_eq!(brute_force_count(&g, &q), 1);
    }

    #[test]
    fn homomorphism_semantics_allow_same_value_for_two_vars() {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        // ?x p ?y . ?z p ?y — x and z may both be a.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(2), pr(0), v(1)),
        ]);
        assert_eq!(count(&g, &q), 1);
        assert_eq!(brute_force_count(&g, &q), 1);
    }

    #[test]
    fn fully_bound_query() {
        let g = g();
        let q = Query::new(vec![TriplePattern::new(n(0), pr(0), n(1))]);
        assert_eq!(count(&g, &q), 1);
        let q2 = Query::new(vec![TriplePattern::new(n(1), pr(1), n(0))]);
        assert_eq!(count(&g, &q2), 0);
    }

    #[test]
    fn predicate_variable() {
        let g = g();
        // a ?p c → knows + likes = 2.
        let q = Query::new(vec![TriplePattern::new(n(0), PredTerm::Var(VarId(0)), n(2))]);
        assert_eq!(count(&g, &q), 2);
        assert_eq!(brute_force_count(&g, &q), 2);
    }

    #[test]
    fn shared_predicate_variable_across_patterns() {
        let g = g();
        // ?x ?p ?y . ?y ?p ?z — same predicate both hops.
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Var(VarId(3)), v(1)),
            TriplePattern::new(v(1), PredTerm::Var(VarId(3)), v(2)),
        ]);
        assert_eq!(count(&g, &q), brute_force_count(&g, &q));
    }

    #[test]
    fn zero_matches() {
        let g = g();
        // b likes ?x → none.
        let q = Query::new(vec![TriplePattern::new(n(1), pr(1), v(0))]);
        assert_eq!(count(&g, &q), 0);
    }

    #[test]
    fn evaluate_returns_bindings() {
        let g = g();
        let q = Query::new(vec![TriplePattern::new(v(0), pr(1), v(1))]);
        let rows = evaluate(&g, &q, None);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.len(), 2);
            let s = row.iter().find(|(var, _)| *var == VarId(0)).unwrap().1;
            let o = row.iter().find(|(var, _)| *var == VarId(1)).unwrap().1;
            assert!(g.contains(NodeId(s), PredId(1), NodeId(o)));
        }
    }

    #[test]
    fn evaluate_respects_limit() {
        let g = g();
        let q = Query::new(vec![TriplePattern::new(v(0), pr(0), v(1))]);
        assert_eq!(evaluate(&g, &q, Some(1)).len(), 1);
        assert_eq!(evaluate(&g, &q, Some(0)).len(), 0);
    }

    #[test]
    fn count_matches_evaluate_len() {
        let g = g();
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), v(1)),
            TriplePattern::new(v(1), pr(1), v(2)),
        ]);
        assert_eq!(count(&g, &q) as usize, evaluate(&g, &q, None).len());
    }

    #[test]
    fn larger_star_with_bound_objects() {
        let g = g();
        // ?x knows b . ?x knows c . ?x likes c → x = a.
        let q = Query::new(vec![
            TriplePattern::new(v(0), pr(0), n(1)),
            TriplePattern::new(v(0), pr(0), n(2)),
            TriplePattern::new(v(0), pr(1), n(2)),
        ]);
        assert_eq!(count(&g, &q), 1);
        assert_eq!(brute_force_count(&g, &q), 1);
    }

    #[test]
    fn resolve_uses_bindings() {
        let pat = TriplePattern::new(v(0), pr(0), v(1));
        let mut bindings = vec![None, None];
        assert_eq!(
            resolve(&pat, &bindings),
            Resolved {
                s: None,
                p: Some(PredId(0)),
                o: None
            }
        );
        bindings[0] = Some(2);
        assert_eq!(resolve(&pat, &bindings).s, Some(NodeId(2)));
        let pred_var = TriplePattern::new(n(1), PredTerm::Var(VarId(1)), v(0));
        assert_eq!(
            resolve(&pred_var, &[Some(2), Some(1)]),
            Resolved {
                s: Some(NodeId(1)),
                p: Some(PredId(1)),
                o: Some(NodeId(2))
            }
        );
    }

    #[test]
    fn try_bind_and_undo() {
        let pat = TriplePattern::new(v(0), pr(0), v(1));
        let mut bindings = vec![None, None];
        let t = Triple::new(NodeId(0), PredId(0), NodeId(2));
        let undo = try_bind(&pat, t, &mut bindings).unwrap();
        assert_eq!(bindings, vec![Some(0), Some(2)]);
        undo_bind(undo, &mut bindings);
        assert_eq!(bindings, vec![None, None]);
    }

    #[test]
    fn try_bind_rejects_mismatch() {
        // Same variable twice: a q x has s = a(0), o = x(2), so var 0 can't
        // be both, and the partial binding of s is rolled back.
        let pat = TriplePattern::new(v(0), pr(1), v(0));
        let mut bindings = vec![None];
        let t = Triple::new(NodeId(0), PredId(1), NodeId(2));
        assert!(try_bind(&pat, t, &mut bindings).is_none());
        assert_eq!(bindings, vec![None]);
        // A bound constant that differs rejects too.
        let bound = TriplePattern::new(n(1), pr(1), v(0));
        assert!(try_bind(&bound, t, &mut bindings).is_none());
        assert_eq!(bindings, vec![None]);
    }
}
