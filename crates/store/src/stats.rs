//! Graph statistics: the dataset specifications of Table I and the degree /
//! skew measurements that drive model sizing and the Fig. 4 analysis.

use crate::dict::PredId;
use crate::graph::KnowledgeGraph;

/// Summary statistics for a knowledge graph (paper Table I plus degree data).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of triples.
    pub triples: usize,
    /// Number of distinct entities (nodes: subjects ∪ objects).
    pub entities: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// Number of nodes that appear as subjects.
    pub subjects: usize,
    /// Number of nodes that appear as objects.
    pub objects: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Mean out-degree over subject nodes.
    pub mean_out_degree: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &KnowledgeGraph) -> Self {
        let mut subjects = 0usize;
        let mut objects = 0usize;
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        for v in graph.node_ids() {
            let od = graph.out_degree(v);
            let id = graph.in_degree(v);
            if od > 0 {
                subjects += 1;
            }
            if id > 0 {
                objects += 1;
            }
            max_out = max_out.max(od);
            max_in = max_in.max(id);
        }
        let mean_out = if subjects == 0 {
            0.0
        } else {
            graph.num_triples() as f64 / subjects as f64
        };
        Self {
            triples: graph.num_triples(),
            entities: graph.num_nodes(),
            predicates: graph.num_preds(),
            subjects,
            objects,
            max_out_degree: max_out,
            max_in_degree: max_in,
            mean_out_degree: mean_out,
        }
    }
}

/// A histogram over `log`-spaced buckets, used for cardinality and degree
/// distributions (paper Fig. 4 buckets are powers of 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    base: u32,
    /// `counts[i]` holds values in `[base^i, base^(i+1))`; `counts[0]` also
    /// holds zero values when `include_zero` was used.
    pub counts: Vec<u64>,
    /// Number of zero-valued observations (kept separate from bucket 0).
    pub zeros: u64,
}

impl LogHistogram {
    /// Creates an empty histogram with logarithm base `base` (≥ 2).
    pub fn new(base: u32) -> Self {
        assert!(base >= 2, "histogram base must be ≥ 2");
        Self {
            base,
            counts: Vec::new(),
            zeros: 0,
        }
    }

    /// The bucket index of `value` (`None` for zero).
    pub fn bucket_of(&self, value: u64) -> Option<usize> {
        if value == 0 {
            return None;
        }
        let mut b = 0usize;
        let bound = self.base as u64;
        let mut v = value;
        while v >= bound {
            v /= bound;
            b += 1;
        }
        Some(b)
    }

    /// Adds an observation.
    pub fn add(&mut self, value: u64) {
        match self.bucket_of(value) {
            None => self.zeros += 1,
            Some(b) => {
                if self.counts.len() <= b {
                    self.counts.resize(b + 1, 0);
                }
                self.counts[b] += 1;
            }
        }
    }

    /// Total observations, including zeros.
    pub fn total(&self) -> u64 {
        self.zeros + self.counts.iter().sum::<u64>()
    }

    /// Human-readable bucket label `[base^i, base^{i+1})`.
    pub fn label(&self, bucket: usize) -> String {
        format!("[{}^{}, {}^{})", self.base, bucket, self.base, bucket + 1)
    }
}

/// Per-predicate triple counts, descending.
pub fn predicate_frequencies(graph: &KnowledgeGraph) -> Vec<(PredId, usize)> {
    let mut freqs: Vec<(PredId, usize)> = graph.pred_ids().map(|p| (p, graph.pred_count(p))).collect();
    freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    freqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        b.add("a", "p", "c");
        b.add("a", "q", "d");
        b.add("b", "p", "c");
        b.build()
    }

    #[test]
    fn stats_basics() {
        let s = GraphStats::compute(&graph());
        assert_eq!(s.triples, 4);
        assert_eq!(s.entities, 4);
        assert_eq!(s.predicates, 2);
        assert_eq!(s.subjects, 2);
        assert_eq!(s.objects, 3);
        assert_eq!(s.max_out_degree, 3);
        assert!((s.mean_out_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_powers_of_five() {
        let mut h = LogHistogram::new(5);
        assert_eq!(h.bucket_of(0), None);
        assert_eq!(h.bucket_of(1), Some(0));
        assert_eq!(h.bucket_of(4), Some(0));
        assert_eq!(h.bucket_of(5), Some(1));
        assert_eq!(h.bucket_of(24), Some(1));
        assert_eq!(h.bucket_of(25), Some(2));
        assert_eq!(h.bucket_of(124), Some(2));
        assert_eq!(h.bucket_of(125), Some(3));
        h.add(0);
        h.add(1);
        h.add(7);
        h.add(7);
        assert_eq!(h.zeros, 1);
        assert_eq!(h.counts, vec![1, 2]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_label() {
        let h = LogHistogram::new(5);
        assert_eq!(h.label(0), "[5^0, 5^1)");
        assert_eq!(h.label(3), "[5^3, 5^4)");
    }

    #[test]
    fn predicate_frequencies_sorted() {
        let f = predicate_frequencies(&graph());
        assert_eq!(f.len(), 2);
        assert!(f[0].1 >= f[1].1);
        assert_eq!(f[0].1, 3); // "p"
    }
}
