//! The in-memory knowledge-graph store.
//!
//! Triples are dictionary-encoded and kept in three compressed sparse row
//! (CSR) indexes — by subject, by object, and by predicate — which together
//! answer every single-triple-pattern lookup and count in `O(log deg)`:
//!
//! * `out`  — per subject, `(predicate, object)` pairs sorted by `(p, o)`;
//! * `inc`  — per object, `(predicate, subject)` pairs sorted by `(p, s)`;
//! * `byp`  — per predicate, `(subject, object)` pairs sorted by `(s, o)`.
//!
//! This module is the only place that maps a single-pattern binding case —
//! which of `(s, p, o)` are bound — onto one of those indexes:
//! [`KnowledgeGraph::count_single`] counts the matches,
//! [`KnowledgeGraph::for_each_match`] visits them, and
//! [`KnowledgeGraph::nth_match`] picks one by position, all in the same
//! order. Joins, exact counters and samplers go through these three.

use crate::dict::{Dictionary, NodeId, PredId};
use crate::triple::Triple;

/// An immutable, fully indexed RDF knowledge graph.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    nodes: Dictionary,
    preds: Dictionary,
    triples: Vec<Triple>,

    out_offsets: Vec<u32>,
    out_edges: Vec<(PredId, NodeId)>,

    in_offsets: Vec<u32>,
    in_edges: Vec<(PredId, NodeId)>,

    pred_offsets: Vec<u32>,
    pred_pairs: Vec<(NodeId, NodeId)>,
}

impl KnowledgeGraph {
    /// Number of distinct nodes (subjects ∪ objects).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct predicates.
    #[inline]
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// Number of (deduplicated) triples.
    #[inline]
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// The node dictionary.
    #[inline]
    pub fn nodes(&self) -> &Dictionary {
        &self.nodes
    }

    /// The predicate dictionary.
    #[inline]
    pub fn preds(&self) -> &Dictionary {
        &self.preds
    }

    /// All triples, sorted by `(s, p, o)`.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Out-degree of a node (number of triples with this subject).
    #[inline]
    pub fn out_degree(&self, s: NodeId) -> usize {
        let i = s.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// In-degree of a node (number of triples with this object).
    #[inline]
    pub fn in_degree(&self, o: NodeId) -> usize {
        let i = o.index();
        (self.in_offsets[i + 1] - self.in_offsets[i]) as usize
    }

    /// Number of triples with predicate `p`.
    #[inline]
    pub fn pred_count(&self, p: PredId) -> usize {
        let i = p.index();
        (self.pred_offsets[i + 1] - self.pred_offsets[i]) as usize
    }

    /// `(predicate, object)` pairs leaving subject `s`, sorted by `(p, o)`.
    #[inline]
    pub fn out_edges(&self, s: NodeId) -> &[(PredId, NodeId)] {
        let i = s.index();
        &self.out_edges[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// `(predicate, subject)` pairs entering object `o`, sorted by `(p, s)`.
    #[inline]
    pub fn in_edges(&self, o: NodeId) -> &[(PredId, NodeId)] {
        let i = o.index();
        &self.in_edges[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// `(subject, object)` pairs of predicate `p`, sorted by `(s, o)`.
    #[inline]
    pub fn pred_pairs(&self, p: PredId) -> &[(NodeId, NodeId)] {
        let i = p.index();
        &self.pred_pairs[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Objects reachable from `s` via predicate `p` (sorted).
    pub fn objects(&self, s: NodeId, p: PredId) -> &[(PredId, NodeId)] {
        sub_range_by_pred(self.out_edges(s), p)
    }

    /// Subjects reaching `o` via predicate `p` (sorted).
    pub fn subjects(&self, o: NodeId, p: PredId) -> &[(PredId, NodeId)] {
        sub_range_by_pred(self.in_edges(o), p)
    }

    /// Number of triples `(s, p, ?)`.
    #[inline]
    pub fn sp_count(&self, s: NodeId, p: PredId) -> usize {
        self.objects(s, p).len()
    }

    /// Number of triples `(?, p, o)`.
    #[inline]
    pub fn po_count(&self, p: PredId, o: NodeId) -> usize {
        self.subjects(o, p).len()
    }

    /// Whether the triple `(s, p, o)` is present.
    pub fn contains(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        self.objects(s, p).binary_search_by_key(&o, |&(_, obj)| obj).is_ok()
    }

    /// Number of triples matching a single wildcard pattern, where `None`
    /// means "any". This is exact and `O(log deg)` except the `(s, ?, o)`
    /// case, which scans the out-edges of `s`.
    pub fn count_single(&self, s: Option<NodeId>, p: Option<PredId>, o: Option<NodeId>) -> u64 {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => u64::from(self.contains(s, p, o)),
            (Some(s), Some(p), None) => self.sp_count(s, p) as u64,
            (Some(s), None, Some(o)) => self.out_edges(s).iter().filter(|&&(_, obj)| obj == o).count() as u64,
            (Some(s), None, None) => self.out_degree(s) as u64,
            (None, Some(p), Some(o)) => self.po_count(p, o) as u64,
            (None, Some(p), None) => self.pred_count(p) as u64,
            (None, None, Some(o)) => self.in_degree(o) as u64,
            (None, None, None) => self.num_triples() as u64,
        }
    }

    /// Invokes `f` for every triple matching the wildcard pattern, choosing
    /// the cheapest index.
    pub fn for_each_match<F: FnMut(Triple)>(&self, s: Option<NodeId>, p: Option<PredId>, o: Option<NodeId>, mut f: F) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.contains(s, p, o) {
                    f(Triple::new(s, p, o));
                }
            }
            (Some(s), Some(p), None) => {
                for &(_, obj) in self.objects(s, p) {
                    f(Triple::new(s, p, obj));
                }
            }
            (Some(s), None, Some(o)) => {
                for &(pred, obj) in self.out_edges(s) {
                    if obj == o {
                        f(Triple::new(s, pred, o));
                    }
                }
            }
            (Some(s), None, None) => {
                for &(pred, obj) in self.out_edges(s) {
                    f(Triple::new(s, pred, obj));
                }
            }
            (None, Some(p), Some(o)) => {
                for &(_, subj) in self.subjects(o, p) {
                    f(Triple::new(subj, p, o));
                }
            }
            (None, Some(p), None) => {
                for &(subj, obj) in self.pred_pairs(p) {
                    f(Triple::new(subj, p, obj));
                }
            }
            (None, None, Some(o)) => {
                for &(pred, subj) in self.in_edges(o) {
                    f(Triple::new(subj, pred, o));
                }
            }
            (None, None, None) => {
                for &t in &self.triples {
                    f(t);
                }
            }
        }
    }

    /// The `n`-th triple (from 0) that [`KnowledgeGraph::for_each_match`]
    /// visits for the same pattern, or `None` when fewer than `n + 1`
    /// match. `O(log deg)` except the `(s, ?, o)` case, which scans the
    /// out-edges of `s`.
    pub fn nth_match(&self, s: Option<NodeId>, p: Option<PredId>, o: Option<NodeId>, n: usize) -> Option<Triple> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (n == 0 && self.contains(s, p, o)).then(|| Triple::new(s, p, o)),
            (Some(s), Some(p), None) => self.objects(s, p).get(n).map(|&(_, obj)| Triple::new(s, p, obj)),
            (Some(s), None, Some(o)) => self
                .out_edges(s)
                .iter()
                .filter(|&&(_, obj)| obj == o)
                .nth(n)
                .map(|&(pred, _)| Triple::new(s, pred, o)),
            (Some(s), None, None) => self.out_edges(s).get(n).map(|&(pred, obj)| Triple::new(s, pred, obj)),
            (None, Some(p), Some(o)) => self.subjects(o, p).get(n).map(|&(_, subj)| Triple::new(subj, p, o)),
            (None, Some(p), None) => self.pred_pairs(p).get(n).map(|&(subj, obj)| Triple::new(subj, p, obj)),
            (None, None, Some(o)) => self.in_edges(o).get(n).map(|&(pred, subj)| Triple::new(subj, pred, o)),
            (None, None, None) => self.triples.get(n).copied(),
        }
    }

    /// Node ids with at least one outgoing edge.
    pub fn subjects_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(move |&n| self.out_degree(n) > 0)
    }

    /// All node ids (including object-only nodes).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// All predicate ids.
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.num_preds() as u32).map(PredId)
    }

    /// Approximate heap memory of the store (dictionaries + indexes), bytes.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
            + self.preds.heap_bytes()
            + self.triples.len() * std::mem::size_of::<Triple>()
            + (self.out_offsets.len() + self.in_offsets.len() + self.pred_offsets.len()) * 4
            + (self.out_edges.len() + self.in_edges.len()) * std::mem::size_of::<(PredId, NodeId)>()
            + self.pred_pairs.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }
}

/// Binary-search the `(key, value)` slice (sorted by key) for the sub-slice
/// with the given key.
fn sub_range_by_pred(edges: &[(PredId, NodeId)], p: PredId) -> &[(PredId, NodeId)] {
    let lo = edges.partition_point(|&(pred, _)| pred < p);
    let hi = edges.partition_point(|&(pred, _)| pred <= p);
    &edges[lo..hi]
}

/// Mutable builder accumulating triples before indexing.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Dictionary,
    preds: Dictionary,
    triples: Vec<Triple>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with triple capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Dictionary::new(),
            preds: Dictionary::new(),
            triples: Vec::with_capacity(n),
        }
    }

    /// Interns a node term.
    pub fn node(&mut self, term: &str) -> NodeId {
        NodeId(self.nodes.intern(term))
    }

    /// Interns a predicate term.
    pub fn pred(&mut self, term: &str) -> PredId {
        PredId(self.preds.intern(term))
    }

    /// Adds a triple by string terms.
    pub fn add(&mut self, s: &str, p: &str, o: &str) -> &mut Self {
        let t = Triple::new(self.node(s), self.pred(p), self.node(o));
        self.triples.push(t);
        self
    }

    /// Adds a triple by pre-interned ids.
    pub fn add_ids(&mut self, s: NodeId, p: PredId, o: NodeId) -> &mut Self {
        assert!(s.index() < self.nodes.len(), "unknown subject id");
        assert!(p.index() < self.preds.len(), "unknown predicate id");
        assert!(o.index() < self.nodes.len(), "unknown object id");
        self.triples.push(Triple::new(s, p, o));
        self
    }

    /// Number of triples added so far (before dedup).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether no triples were added.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Finalizes the graph: sorts, deduplicates, and builds all indexes.
    pub fn build(self) -> KnowledgeGraph {
        let GraphBuilder {
            nodes,
            preds,
            mut triples,
        } = self;
        triples.sort_unstable();
        triples.dedup();

        let n = nodes.len();
        let np = preds.len();

        // out CSR (sorted input order is already (s, p, o)).
        let mut out_offsets = vec![0u32; n + 1];
        for t in &triples {
            out_offsets[t.s.index() + 1] += 1;
        }
        prefix_sum(&mut out_offsets);
        let out_edges: Vec<(PredId, NodeId)> = triples.iter().map(|t| (t.p, t.o)).collect();

        // in CSR.
        let mut by_obj: Vec<Triple> = triples.clone();
        by_obj.sort_unstable_by_key(|t| (t.o, t.p, t.s));
        let mut in_offsets = vec![0u32; n + 1];
        for t in &by_obj {
            in_offsets[t.o.index() + 1] += 1;
        }
        prefix_sum(&mut in_offsets);
        let in_edges: Vec<(PredId, NodeId)> = by_obj.iter().map(|t| (t.p, t.s)).collect();

        // predicate CSR.
        let mut by_pred: Vec<Triple> = triples.clone();
        by_pred.sort_unstable_by_key(|t| (t.p, t.s, t.o));
        let mut pred_offsets = vec![0u32; np + 1];
        for t in &by_pred {
            pred_offsets[t.p.index() + 1] += 1;
        }
        prefix_sum(&mut pred_offsets);
        let pred_pairs: Vec<(NodeId, NodeId)> = by_pred.iter().map(|t| (t.s, t.o)).collect();

        KnowledgeGraph {
            nodes,
            preds,
            triples,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            pred_offsets,
            pred_pairs,
        }
    }
}

fn prefix_sum(v: &mut [u32]) {
    let mut acc = 0u32;
    for x in v.iter_mut() {
        acc += *x;
        *x = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add("a", "knows", "b");
        b.add("a", "knows", "c");
        b.add("b", "knows", "c");
        b.add("a", "likes", "c");
        b.add("c", "likes", "a");
        b.build()
    }

    #[test]
    fn builds_and_counts() {
        let g = small_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_preds(), 2);
        assert_eq!(g.num_triples(), 5);
    }

    #[test]
    fn dedup_on_build() {
        let mut b = GraphBuilder::new();
        b.add("x", "p", "y");
        b.add("x", "p", "y");
        let g = b.build();
        assert_eq!(g.num_triples(), 1);
    }

    #[test]
    fn degrees() {
        let g = small_graph();
        let a = NodeId(g.nodes().get("a").unwrap());
        let c = NodeId(g.nodes().get("c").unwrap());
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(c), 3);
        assert_eq!(g.out_degree(c), 1);
    }

    #[test]
    fn sp_and_po_counts() {
        let g = small_graph();
        let a = NodeId(g.nodes().get("a").unwrap());
        let c = NodeId(g.nodes().get("c").unwrap());
        let knows = PredId(g.preds().get("knows").unwrap());
        assert_eq!(g.sp_count(a, knows), 2);
        assert_eq!(g.po_count(knows, c), 2);
    }

    #[test]
    fn contains_works() {
        let g = small_graph();
        let a = NodeId(g.nodes().get("a").unwrap());
        let b = NodeId(g.nodes().get("b").unwrap());
        let knows = PredId(g.preds().get("knows").unwrap());
        let likes = PredId(g.preds().get("likes").unwrap());
        assert!(g.contains(a, knows, b));
        assert!(!g.contains(b, likes, a));
    }

    #[test]
    fn count_single_all_cases() {
        let g = small_graph();
        let a = NodeId(g.nodes().get("a").unwrap());
        let c = NodeId(g.nodes().get("c").unwrap());
        let knows = PredId(g.preds().get("knows").unwrap());
        assert_eq!(g.count_single(Some(a), Some(knows), Some(c)), 1);
        assert_eq!(g.count_single(Some(a), Some(knows), None), 2);
        assert_eq!(g.count_single(Some(a), None, Some(c)), 2); // knows + likes
        assert_eq!(g.count_single(Some(a), None, None), 3);
        assert_eq!(g.count_single(None, Some(knows), Some(c)), 2);
        assert_eq!(g.count_single(None, Some(knows), None), 3);
        assert_eq!(g.count_single(None, None, Some(c)), 3);
        assert_eq!(g.count_single(None, None, None), 5);
    }

    #[test]
    fn for_each_match_agrees_with_count_single() {
        let g = small_graph();
        let cases: Vec<(Option<NodeId>, Option<PredId>, Option<NodeId>)> = vec![
            (None, None, None),
            (Some(NodeId(0)), None, None),
            (None, Some(PredId(0)), None),
            (None, None, Some(NodeId(2))),
            (Some(NodeId(0)), Some(PredId(0)), None),
            (Some(NodeId(0)), None, Some(NodeId(2))),
            (None, Some(PredId(0)), Some(NodeId(2))),
            (Some(NodeId(0)), Some(PredId(0)), Some(NodeId(1))),
        ];
        for (s, p, o) in cases {
            let mut n = 0u64;
            g.for_each_match(s, p, o, |_| n += 1);
            assert_eq!(n, g.count_single(s, p, o), "case {s:?} {p:?} {o:?}");
        }
    }

    /// `nth_match` picks exactly what `for_each_match` visits, in its
    /// order, for all 8 (s, p, o) binding cases — over every bound value,
    /// so empty and fully bound misses are covered too.
    #[test]
    fn nth_match_agrees_with_for_each_match() {
        let g = small_graph();
        let nodes = || std::iter::once(None).chain(g.node_ids().map(Some));
        for s in nodes() {
            for p in std::iter::once(None).chain(g.pred_ids().map(Some)) {
                for o in nodes() {
                    let mut visited = Vec::new();
                    g.for_each_match(s, p, o, |t| visited.push(t));
                    let picked: Vec<Triple> = (0..).map_while(|n| g.nth_match(s, p, o, n)).collect();
                    assert_eq!(picked, visited, "case {s:?} {p:?} {o:?}");
                    assert_eq!(picked.len() as u64, g.count_single(s, p, o));
                }
            }
        }
    }

    #[test]
    fn matched_triples_exist_in_graph() {
        let g = small_graph();
        g.for_each_match(None, Some(PredId(0)), None, |t| {
            assert!(g.contains(t.s, t.p, t.o));
            assert_eq!(t.p, PredId(0));
        });
    }

    #[test]
    fn out_edges_sorted_by_pred_then_obj() {
        let g = small_graph();
        for s in g.node_ids() {
            let e = g.out_edges(s);
            assert!(e.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn add_ids_rejects_unknown() {
        let mut b = GraphBuilder::new();
        let s = b.node("s");
        let p = b.pred("p");
        let o = b.node("o");
        b.add_ids(s, p, o);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = GraphBuilder::new();
            b2.add_ids(NodeId(5), PredId(0), NodeId(0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_triples(), 0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.count_single(None, None, None), 0);
    }
}
