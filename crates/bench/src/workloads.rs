//! Test-workload construction for the sweep: per
//! (shape, size) cells with the paper's bucket-balanced selection
//! ("we select 600 queries where each query is drawn from a bucket for a
//! specific result size", §VIII).

use crate::BenchConfig;
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::LabeledQuery;
use lmkg_store::{KnowledgeGraph, QueryShape};

/// One evaluation cell: shape, size, and its labeled queries.
pub struct Cell {
    /// Query topology.
    pub shape: QueryShape,
    /// Query size (number of triple patterns).
    pub size: usize,
    /// Bucket-balanced labeled queries.
    pub queries: Vec<LabeledQuery>,
}

/// Generates all evaluation cells for a graph.
pub fn test_cells(graph: &KnowledgeGraph, cfg: &BenchConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &shape in &[QueryShape::Star, QueryShape::Chain] {
        for &size in &cfg.sizes {
            // Over-generate, then balance across log-5 result-size buckets.
            let mut wl = WorkloadConfig::test_default(shape, size, cfg.seed ^ ((size as u64) << 17));
            wl.count = cfg.queries_per_cell * 3;
            let raw = workload::generate(graph, &wl);
            let queries = workload::balanced_select(&raw, cfg.queries_per_cell, 5, cfg.seed);
            if !queries.is_empty() {
                cells.push(Cell { shape, size, queries });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_data::{Dataset, Scale};

    #[test]
    fn cells_cover_shapes_and_sizes() {
        let g = Dataset::LubmLike.generate(Scale::Ci, 1);
        let mut cfg = BenchConfig::ci(1);
        cfg.sizes = vec![2, 3];
        cfg.queries_per_cell = 40;
        let cells = test_cells(&g, &cfg);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(!c.queries.is_empty());
            assert!(c.queries.iter().all(|q| q.query.size() == c.size));
        }
    }
}
