//! The three benchmark datasets as a uniform facade (paper Table I).

use crate::lubm::{self, LubmConfig};
use crate::scale::Scale;
use crate::swdf::{self, SwdfConfig};
use crate::yago::{self, YagoConfig};
use lmkg_store::KnowledgeGraph;

/// One of the paper's three evaluation datasets (synthetic analogues — see
/// DESIGN.md §1 for the substitution table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Semantic Web Dog Food analogue: small, densely interconnected,
    /// 171 predicates.
    SwdfLike,
    /// LUBM-20 analogue: regular university schema, 19 predicates.
    LubmLike,
    /// YAGO analogue: enormous distinct-term domain, 91 predicates.
    YagoLike,
}

/// Paper-reported dataset statistics (Table I), printed next to ours by `lmkg-bench table1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStats {
    /// Approximate triple count.
    pub triples: usize,
    /// Approximate entity count.
    pub entities: usize,
    /// Distinct predicates.
    pub predicates: usize,
}

impl Dataset {
    /// All three datasets in paper order.
    pub const ALL: [Dataset; 3] = [Dataset::SwdfLike, Dataset::LubmLike, Dataset::YagoLike];

    /// Dataset display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::SwdfLike => "SWDF",
            Dataset::LubmLike => "LUBM20",
            Dataset::YagoLike => "YAGO",
        }
    }

    /// Table I numbers from the paper.
    pub fn paper_stats(self) -> PaperStats {
        match self {
            Dataset::SwdfLike => PaperStats {
                triples: 250_000,
                entities: 76_000,
                predicates: 171,
            },
            Dataset::LubmLike => PaperStats {
                triples: 2_700_000,
                entities: 663_000,
                predicates: 19,
            },
            Dataset::YagoLike => PaperStats {
                triples: 15_000_000,
                entities: 12_000_000,
                predicates: 91,
            },
        }
    }

    /// Generates the dataset at the given scale with a deterministic seed.
    pub fn generate(self, scale: Scale, seed: u64) -> KnowledgeGraph {
        match self {
            Dataset::SwdfLike => swdf::generate(&SwdfConfig::at_scale(scale, seed)),
            Dataset::LubmLike => lubm::generate(&LubmConfig::at_scale(scale, seed)),
            Dataset::YagoLike => yago::generate(&YagoConfig::at_scale(scale, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_stats() {
        assert_eq!(Dataset::SwdfLike.name(), "SWDF");
        assert_eq!(Dataset::LubmLike.paper_stats().predicates, 19);
        assert_eq!(Dataset::YagoLike.paper_stats().predicates, 91);
    }

    #[test]
    fn all_generate_at_ci_scale() {
        for d in Dataset::ALL {
            let g = d.generate(Scale::Ci, 42);
            assert!(g.num_triples() > 100, "{} too small: {}", d.name(), g.num_triples());
            assert_eq!(
                g.num_preds(),
                d.paper_stats().predicates,
                "{} predicate count",
                d.name()
            );
        }
    }

    #[test]
    fn predicate_counts_match_paper_at_default_scale() {
        for d in [Dataset::SwdfLike, Dataset::LubmLike] {
            let g = d.generate(Scale::Ci, 7);
            assert_eq!(g.num_preds(), d.paper_stats().predicates);
        }
    }
}
