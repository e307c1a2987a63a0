//! Triples, triple patterns, and query (basic graph pattern) types.

use crate::dict::{NodeId, PredId};
use std::fmt;

/// A fully bound RDF triple `(subject, predicate, object)` over dense ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject node.
    pub s: NodeId,
    /// Predicate (edge label).
    pub p: PredId,
    /// Object node (may represent a literal interned in the node space).
    pub o: NodeId,
}

impl Triple {
    /// Convenience constructor.
    #[inline]
    pub fn new(s: NodeId, p: PredId, o: NodeId) -> Self {
        Self { s, p, o }
    }
}

/// Identifier of a query variable (`?x` in SPARQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

impl VarId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?v{}", self.0)
    }
}

/// A node position in a triple pattern: bound to a node or an unbound variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeTerm {
    /// Bound to a concrete graph node.
    Bound(NodeId),
    /// An unbound variable.
    Var(VarId),
}

/// A predicate position in a triple pattern: bound or an unbound variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredTerm {
    /// Bound to a concrete predicate.
    Bound(PredId),
    /// An unbound variable.
    Var(VarId),
}

impl NodeTerm {
    /// The bound node, if any.
    #[inline]
    pub fn bound(self) -> Option<NodeId> {
        match self {
            NodeTerm::Bound(n) => Some(n),
            NodeTerm::Var(_) => None,
        }
    }

    /// The variable, if unbound.
    #[inline]
    pub fn var(self) -> Option<VarId> {
        match self {
            NodeTerm::Bound(_) => None,
            NodeTerm::Var(v) => Some(v),
        }
    }

    /// Whether this position is bound.
    #[inline]
    pub fn is_bound(self) -> bool {
        matches!(self, NodeTerm::Bound(_))
    }
}

impl PredTerm {
    /// The bound predicate, if any.
    #[inline]
    pub fn bound(self) -> Option<PredId> {
        match self {
            PredTerm::Bound(p) => Some(p),
            PredTerm::Var(_) => None,
        }
    }

    /// The variable, if unbound.
    #[inline]
    pub fn var(self) -> Option<VarId> {
        match self {
            PredTerm::Bound(_) => None,
            PredTerm::Var(v) => Some(v),
        }
    }

    /// Whether this position is bound.
    #[inline]
    pub fn is_bound(self) -> bool {
        matches!(self, PredTerm::Bound(_))
    }
}

/// A single triple pattern with possibly unbound positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub s: NodeTerm,
    /// Predicate position.
    pub p: PredTerm,
    /// Object position.
    pub o: NodeTerm,
}

impl TriplePattern {
    /// Convenience constructor.
    #[inline]
    pub fn new(s: NodeTerm, p: PredTerm, o: NodeTerm) -> Self {
        Self { s, p, o }
    }

    /// Variables appearing in this pattern, in (s, p, o) order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        [self.s.var(), self.p.var(), self.o.var()].into_iter().flatten()
    }

    /// Whether a fully bound triple matches this pattern ignoring variables
    /// (i.e. treating every variable as a wildcard).
    pub fn matches_wildcard(&self, t: &Triple) -> bool {
        self.s.bound().is_none_or(|s| s == t.s)
            && self.p.bound().is_none_or(|p| p == t.p)
            && self.o.bound().is_none_or(|o| o == t.o)
    }
}

/// The topology class of a basic graph pattern (paper §V).
///
/// The derived ordering (declaration order: star < chain < single < other)
/// exists so `(shape, size)` workload cells sort deterministically — the
/// workload monitor tie-breaks equal-frequency cells by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryShape {
    /// All triples share one central subject (subject star).
    Star,
    /// Triples form a directed path: object of triple *i* is subject of *i+1*.
    Chain,
    /// A single triple pattern.
    Single,
    /// Anything else (tree, cycle, composite, …).
    Other,
}

impl fmt::Display for QueryShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryShape::Star => "star",
            QueryShape::Chain => "chain",
            QueryShape::Single => "single",
            QueryShape::Other => "other",
        };
        f.write_str(s)
    }
}

/// A basic graph pattern (conjunctive SPARQL query) over triple patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Query {
    /// Triple patterns, in query order (order matters for chain encodings).
    pub triples: Vec<TriplePattern>,
}

impl Query {
    /// Builds a query from triple patterns.
    pub fn new(triples: Vec<TriplePattern>) -> Self {
        Self { triples }
    }

    /// Number of triple patterns (the paper's "query size" = number of joins).
    pub fn size(&self) -> usize {
        self.triples.len()
    }

    /// The number of distinct variables.
    pub fn var_count(&self) -> usize {
        let mut vars: Vec<VarId> = self.triples.iter().flat_map(|t| t.vars()).collect();
        vars.sort_unstable();
        vars.dedup();
        vars.len()
    }

    /// All distinct variables in first-occurrence order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for t in &self.triples {
            for v in t.vars() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The highest variable index + 1 (size of a binding table).
    pub fn var_table_size(&self) -> usize {
        self.triples
            .iter()
            .flat_map(|t| t.vars())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Whether at least one position is an unbound variable.
    pub fn has_unbound(&self) -> bool {
        self.triples.iter().any(|t| t.vars().next().is_some())
    }

    /// Classifies the query topology.
    ///
    /// * `Star`: ≥2 triples, all sharing the identical subject term (bound or
    ///   the same variable), with no other reuse of the center as object.
    /// * `Chain`: ≥2 triples where `o_i == s_{i+1}` (same bound node or same
    ///   variable) and no other term sharing.
    /// * `Single`: exactly one triple pattern.
    /// * `Other`: everything else.
    pub fn shape(&self) -> QueryShape {
        match self.triples.len() {
            0 => QueryShape::Other,
            1 => QueryShape::Single,
            _ => {
                if self.is_subject_star() {
                    QueryShape::Star
                } else if self.is_chain() {
                    QueryShape::Chain
                } else {
                    QueryShape::Other
                }
            }
        }
    }

    /// Whether all triples share the same subject term (paper's subject star).
    pub fn is_subject_star(&self) -> bool {
        if self.triples.len() < 2 {
            return false;
        }
        let center = self.triples[0].s;
        self.triples.iter().all(|t| t.s == center)
    }

    /// Whether the triples form a chain in query order: `o_i == s_{i+1}`.
    pub fn is_chain(&self) -> bool {
        if self.triples.len() < 2 {
            return false;
        }
        self.triples.windows(2).all(|w| w[0].o == w[1].s)
    }

    /// Validates structural invariants:
    /// * a variable is not used both as node and as predicate;
    /// * the query is non-empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.triples.is_empty() {
            return Err("empty query".into());
        }
        let mut node_vars = Vec::new();
        let mut pred_vars = Vec::new();
        for t in &self.triples {
            if let Some(v) = t.s.var() {
                node_vars.push(v);
            }
            if let Some(v) = t.o.var() {
                node_vars.push(v);
            }
            if let Some(v) = t.p.var() {
                pred_vars.push(v);
            }
        }
        for v in &pred_vars {
            if node_vars.contains(v) {
                return Err(format!("variable {v} used in both node and predicate position"));
            }
        }
        Ok(())
    }
}

/// Builder for constructing queries with automatic variable allocation.
#[derive(Debug, Default)]
pub struct QueryBuilder {
    triples: Vec<TriplePattern>,
    next_var: u16,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn var(&mut self) -> VarId {
        let v = VarId(self.next_var);
        self.next_var += 1;
        v
    }

    /// Adds a triple pattern.
    pub fn triple(&mut self, s: NodeTerm, p: PredTerm, o: NodeTerm) -> &mut Self {
        self.triples.push(TriplePattern::new(s, p, o));
        self
    }

    /// Finishes building.
    pub fn build(self) -> Query {
        Query::new(self.triples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn p(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }
    fn nv(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }

    #[test]
    fn star_shape_detected() {
        let q = Query::new(vec![
            TriplePattern::new(nv(0), p(1), n(5)),
            TriplePattern::new(nv(0), p(2), n(6)),
        ]);
        assert_eq!(q.shape(), QueryShape::Star);
    }

    #[test]
    fn chain_shape_detected() {
        let q = Query::new(vec![
            TriplePattern::new(nv(0), p(1), nv(1)),
            TriplePattern::new(nv(1), p(2), n(9)),
        ]);
        assert_eq!(q.shape(), QueryShape::Chain);
    }

    #[test]
    fn single_and_other_shapes() {
        let q1 = Query::new(vec![TriplePattern::new(nv(0), p(1), n(5))]);
        assert_eq!(q1.shape(), QueryShape::Single);

        // ?a p ?b . ?c p ?b — object-shared, neither star nor chain.
        let q2 = Query::new(vec![
            TriplePattern::new(nv(0), p(1), nv(1)),
            TriplePattern::new(nv(2), p(1), nv(1)),
        ]);
        assert_eq!(q2.shape(), QueryShape::Other);
    }

    #[test]
    fn bound_star_center_is_star() {
        let q = Query::new(vec![
            TriplePattern::new(n(3), p(1), nv(0)),
            TriplePattern::new(n(3), p(2), nv(1)),
        ]);
        assert_eq!(q.shape(), QueryShape::Star);
    }

    #[test]
    fn var_accounting() {
        let q = Query::new(vec![
            TriplePattern::new(nv(0), p(1), nv(1)),
            TriplePattern::new(nv(1), p(2), nv(3)),
        ]);
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.var_table_size(), 4);
        assert_eq!(q.vars(), vec![VarId(0), VarId(1), VarId(3)]);
        assert!(q.has_unbound());
    }

    #[test]
    fn validate_rejects_role_mixing() {
        let q = Query::new(vec![TriplePattern::new(
            NodeTerm::Var(VarId(0)),
            PredTerm::Var(VarId(0)),
            n(1),
        )]);
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty() {
        assert!(Query::new(vec![]).validate().is_err());
    }

    #[test]
    fn builder_allocates_fresh_vars() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let y = b.var();
        assert_ne!(x, y);
        b.triple(NodeTerm::Var(x), p(0), NodeTerm::Var(y));
        let q = b.build();
        assert_eq!(q.size(), 1);
    }

    #[test]
    fn pattern_wildcard_matching() {
        let pat = TriplePattern::new(nv(0), p(1), n(2));
        assert!(pat.matches_wildcard(&Triple::new(NodeId(7), PredId(1), NodeId(2))));
        assert!(!pat.matches_wildcard(&Triple::new(NodeId(7), PredId(0), NodeId(2))));
        assert!(!pat.matches_wildcard(&Triple::new(NodeId(7), PredId(1), NodeId(3))));
    }
}
