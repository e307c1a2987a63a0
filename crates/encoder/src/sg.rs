//! SG-Encoding (paper §V-A1): the novel subgraph encoding
//! `SG = (A, X, E)` that can represent *any* query topology — star, chain,
//! tree, cycle, or composites — in one fixed-size featurization, enabling a
//! single model over multiple query types.
//!
//! For a capacity of `n` query nodes and `e` query edges:
//! * `A ∈ {0,1}^{n×n×e}` — adjacency tensor over the query-local node/edge
//!   ordering: `A[i][j][l] = 1` iff the query contains a triple whose subject
//!   is node-slot `i`, object is node-slot `j`, and predicate is edge-slot
//!   `l`;
//! * `X ∈ {0,1}^{n×⌈log2(d+1)⌉}` — binary encoding of each node slot's bound
//!   term (zeros for variables);
//! * `E ∈ {0,1}^{e×⌈log2(b+1)⌉}` — binary encoding of each edge slot's bound
//!   predicate (zeros for variables).
//!
//! Node slots are assigned in first-occurrence order over `(s, o)` positions;
//! two occurrences of the same bound node or the same variable share a slot
//! (the single shared node space is what lets chains express `oᵢ = sᵢ₊₁`).
//! Edge slots are assigned per *distinct predicate term*, so two triples with
//! the same bound predicate share an edge slot (they remain distinguishable
//! through different `(i, j)` cells of `A`).

use crate::term::TermCodec;
use lmkg_store::{NodeTerm, PredTerm, Query};

/// Why a query does not fit an encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The query has more distinct nodes or predicates than the encoder
    /// has slots for.
    TooLarge {
        /// Encoder capacity.
        capacity: usize,
        /// What the query needs.
        actual: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooLarge { capacity, actual } => {
                write!(f, "query size {actual} exceeds encoder capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Fixed-capacity SG encoder.
#[derive(Debug, Clone, Copy)]
pub struct SgEncoder {
    codec: TermCodec,
    /// Maximum number of distinct query nodes (`n`).
    pub max_nodes: usize,
    /// Maximum number of distinct query predicates (`e`).
    pub max_edges: usize,
}

/// Slot assignment of one query under an [`SgEncoder`] (exposed for tests
/// and for model introspection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgLayout {
    /// Distinct node terms in slot order.
    pub node_slots: Vec<NodeTerm>,
    /// Distinct predicate terms in slot order.
    pub edge_slots: Vec<PredTerm>,
    /// `(subject slot, object slot, edge slot)` per triple.
    pub triples: Vec<(usize, usize, usize)>,
}

impl SgEncoder {
    /// Creates an encoder with node capacity `max_nodes` and edge capacity
    /// `max_edges` over the graph's domains. X and E use the compact binary
    /// term codec (the paper's preferred variant).
    pub fn new(node_domain: usize, pred_domain: usize, max_nodes: usize, max_edges: usize) -> Self {
        assert!(max_nodes >= 1 && max_edges >= 1);
        Self {
            codec: TermCodec::new(node_domain, pred_domain),
            max_nodes,
            max_edges,
        }
    }

    /// Node-term domain size the codec was built over (snapshot persistence
    /// rebuilds an identical encoder from these).
    pub fn node_domain(&self) -> usize {
        self.codec.node_domain
    }

    /// Predicate-term domain size the codec was built over.
    pub fn pred_domain(&self) -> usize {
        self.codec.pred_domain
    }

    /// Width of the flattened `A` tensor.
    pub fn a_width(&self) -> usize {
        self.max_nodes * self.max_nodes * self.max_edges
    }

    /// Width of the flattened `X` matrix.
    pub fn x_width(&self) -> usize {
        self.max_nodes * self.codec.node_width()
    }

    /// Width of the flattened `E` matrix.
    pub fn e_width(&self) -> usize {
        self.max_edges * self.codec.pred_width()
    }

    /// Total encoded width (`A` ‖ `X` ‖ `E`, flattened and concatenated —
    /// exactly the concatenation the LMKG-S input layer consumes, Fig. 3).
    pub fn width(&self) -> usize {
        self.a_width() + self.x_width() + self.e_width()
    }

    /// Computes the slot layout of a query.
    pub fn layout(&self, query: &Query) -> Result<SgLayout, EncodeError> {
        let mut node_slots: Vec<NodeTerm> = Vec::new();
        let mut edge_slots: Vec<PredTerm> = Vec::new();
        let mut triples = Vec::with_capacity(query.triples.len());

        let node_slot = |term: NodeTerm, slots: &mut Vec<NodeTerm>| -> usize {
            match slots.iter().position(|&t| t == term) {
                Some(i) => i,
                None => {
                    slots.push(term);
                    slots.len() - 1
                }
            }
        };

        for t in &query.triples {
            let si = node_slot(t.s, &mut node_slots);
            let oi = node_slot(t.o, &mut node_slots);
            let ei = match edge_slots.iter().position(|&p| p == t.p) {
                Some(i) => i,
                None => {
                    edge_slots.push(t.p);
                    edge_slots.len() - 1
                }
            };
            triples.push((si, oi, ei));
        }

        if node_slots.len() > self.max_nodes {
            return Err(EncodeError::TooLarge {
                capacity: self.max_nodes,
                actual: node_slots.len(),
            });
        }
        if edge_slots.len() > self.max_edges {
            return Err(EncodeError::TooLarge {
                capacity: self.max_edges,
                actual: edge_slots.len(),
            });
        }
        Ok(SgLayout {
            node_slots,
            edge_slots,
            triples,
        })
    }

    /// Encodes `query` into `out` (length [`Self::width`]).
    pub fn encode(&self, query: &Query, out: &mut [f32]) -> Result<(), EncodeError> {
        assert_eq!(out.len(), self.width(), "output buffer width mismatch");
        out.iter_mut().for_each(|x| *x = 0.0);
        let layout = self.layout(query)?;

        // A: index (i * n + j) * e + l.
        let (n, e) = (self.max_nodes, self.max_edges);
        for &(i, j, l) in &layout.triples {
            out[(i * n + j) * e + l] = 1.0;
        }

        // X.
        let nw = self.codec.node_width();
        let x_base = self.a_width();
        for (slot, term) in layout.node_slots.iter().enumerate() {
            let off = x_base + slot * nw;
            self.codec.encode_node(term.bound(), &mut out[off..off + nw]);
        }

        // E.
        let pw = self.codec.pred_width();
        let e_base = x_base + self.x_width();
        for (slot, term) in layout.edge_slots.iter().enumerate() {
            let off = e_base + slot * pw;
            self.codec.encode_pred(term.bound(), &mut out[off..off + pw]);
        }
        Ok(())
    }

    /// Encodes into a freshly allocated vector.
    pub fn encode_vec(&self, query: &Query) -> Result<Vec<f32>, EncodeError> {
        let mut out = vec![0.0f32; self.width()];
        self.encode(query, &mut out)?;
        Ok(out)
    }

    /// Capacity sufficient for any star or chain query of `k` triples:
    /// stars need `k+1` nodes, chains need `k+1` nodes; both need ≤ `k`
    /// distinct predicates.
    pub fn capacity_for_size(node_domain: usize, pred_domain: usize, k: usize) -> Self {
        Self::new(node_domain, pred_domain, k + 1, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{NodeId, PredId, QueryShape, TriplePattern, VarId};

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }
    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn p(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }

    /// The paper's Fig. 2 star: ?Book :hasAuthor :StephenKing ;
    /// :genre :Horror — n = 3, e = 2.
    fn fig2_query() -> Query {
        Query::new(vec![
            TriplePattern::new(v(0), p(2), n(0)), // ?book hasAuthor StephenKing
            TriplePattern::new(v(0), p(1), n(3)), // ?book genre Horror
        ])
    }

    fn encoder() -> SgEncoder {
        // Fig. 2: 5 nodes, 3 predicates, n = 3, e = 2.
        SgEncoder::new(5, 3, 3, 2)
    }

    #[test]
    fn fig2_layout() {
        let e = encoder();
        let layout = e.layout(&fig2_query()).unwrap();
        // Node order: ?book, StephenKing, Horror.
        assert_eq!(layout.node_slots.len(), 3);
        assert_eq!(layout.node_slots[0], v(0));
        assert_eq!(layout.node_slots[1], n(0));
        assert_eq!(layout.node_slots[2], n(3));
        // Edge order: hasAuthor, genre.
        assert_eq!(layout.edge_slots, vec![p(2), p(1)]);
        // Triples: (book→king, hasAuthor), (book→horror, genre).
        assert_eq!(layout.triples, vec![(0, 1, 0), (0, 2, 1)]);
    }

    #[test]
    fn fig2_adjacency_cells() {
        let e = encoder();
        let out = e.encode_vec(&fig2_query()).unwrap();
        // A001 = 1: node 0 → node 1 via edge 0 (paper: "we set A001 = 1").
        let idx = |i: usize, j: usize, l: usize| (i * 3 + j) * 2 + l;
        assert_eq!(out[idx(0, 1, 0)], 1.0);
        assert_eq!(out[idx(0, 2, 1)], 1.0);
        // Exactly two cells set in A.
        let a_ones: usize = out[..e.a_width()].iter().filter(|&&x| x == 1.0).count();
        assert_eq!(a_ones, 2);
    }

    #[test]
    fn x_and_e_binary_blocks() {
        let e = encoder();
        let out = e.encode_vec(&fig2_query()).unwrap();
        let nw = 3; // ⌈log2 6⌉ = 3 bits for 5 nodes
        let x = &out[e.a_width()..e.a_width() + e.x_width()];
        // Slot 0 is the variable → zeros.
        assert!(x[..nw].iter().all(|&b| b == 0.0));
        // Slot 1 is node id 0 → code 1 → [001].
        assert_eq!(&x[nw..2 * nw], &[0.0, 0.0, 1.0]);
        // Slot 2 is node id 3 → code 4 → [100].
        assert_eq!(&x[2 * nw..3 * nw], &[1.0, 0.0, 0.0]);
        // E: pred 2 → code 3 → [11]; pred 1 → code 2 → [10].
        let eb = &out[e.a_width() + e.x_width()..];
        assert_eq!(eb, &[1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn chain_shares_link_slots() {
        let e = SgEncoder::new(10, 4, 3, 2);
        // ?x p0 ?y . ?y p1 ?z — the link ?y must be one slot.
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(2)),
        ]);
        let layout = e.layout(&q).unwrap();
        assert_eq!(layout.node_slots.len(), 3);
        assert_eq!(layout.triples, vec![(0, 1, 0), (1, 2, 1)]);
    }

    #[test]
    fn repeated_bound_predicate_shares_edge_slot() {
        let e = SgEncoder::new(10, 4, 3, 2);
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(2), n(1)),
            TriplePattern::new(v(0), p(2), n(2)),
        ]);
        let layout = e.layout(&q).unwrap();
        assert_eq!(layout.edge_slots.len(), 1);
        // Two A cells in the same edge slice keep the triples distinct.
        let out = e.encode_vec(&q).unwrap();
        let a_ones: usize = out[..e.a_width()].iter().filter(|&&x| x == 1.0).count();
        assert_eq!(a_ones, 2);
    }

    #[test]
    fn composite_topologies_encode() {
        // Star + chain composite (the case a topology-specific encoding
        // cannot express).
        let e = SgEncoder::new(10, 4, 4, 3);
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), n(2)),
            TriplePattern::new(v(1), p(2), v(3)),
        ]);
        assert_eq!(q.shape(), QueryShape::Other);
        assert!(e.encode_vec(&q).is_ok());
        // Cycles too.
        let cyc = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(0)),
        ]);
        assert!(e.encode_vec(&cyc).is_ok());
    }

    #[test]
    fn capacity_exceeded_is_rejected() {
        let e = SgEncoder::new(10, 4, 2, 1);
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(2)),
        ]);
        assert!(matches!(e.encode_vec(&q), Err(EncodeError::TooLarge { .. })));
    }

    #[test]
    fn distinct_topologies_encode_distinctly() {
        let e = SgEncoder::new(10, 4, 3, 2);
        let star = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), v(2)),
        ]);
        let chain = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(2)),
        ]);
        assert_ne!(e.encode_vec(&star).unwrap(), e.encode_vec(&chain).unwrap());
    }

    #[test]
    fn width_formula() {
        let e = SgEncoder::new(1000, 20, 9, 8);
        // A: 9*9*8 = 648; X: 9*10 = 90; E: 8*5 = 40.
        assert_eq!(e.width(), 648 + 90 + 40);
        assert_eq!(e.width(), e.a_width() + e.x_width() + e.e_width());
    }

    #[test]
    fn capacity_for_size_fits_stars_and_chains() {
        let e = SgEncoder::capacity_for_size(100, 10, 3);
        let star = Query::new(
            (0..3)
                .map(|i| TriplePattern::new(v(0), p(i as u32), NodeTerm::Var(VarId(1 + i as u16))))
                .collect(),
        );
        let chain = Query::new(
            (0..3)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(i as u16)),
                        p(i as u32),
                        NodeTerm::Var(VarId(i as u16 + 1)),
                    )
                })
                .collect(),
        );
        assert!(e.encode_vec(&star).is_ok());
        assert!(e.encode_vec(&chain).is_ok());
    }
}
