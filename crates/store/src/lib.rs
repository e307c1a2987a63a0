//! # lmkg-store
//!
//! The RDF knowledge-graph substrate underpinning the LMKG reproduction:
//! dictionary-encoded triples, CSR indexes, basic-graph-pattern matching
//! under SPARQL homomorphism semantics, exact cardinality counting (the
//! ground-truth oracle for all experiments), tuple-space totals for the
//! unsupervised estimator, an N-Triples reader/writer, and graph statistics.
//!
//! ```
//! use lmkg_store::{GraphBuilder, Query, TriplePattern, NodeTerm, PredTerm, VarId, counter};
//!
//! let mut b = GraphBuilder::new();
//! b.add(":shining", ":hasAuthor", ":stephen_king");
//! b.add(":shining", ":genre", ":horror");
//! b.add(":it", ":hasAuthor", ":stephen_king");
//! b.add(":it", ":genre", ":horror");
//! let g = b.build();
//!
//! // ?book :hasAuthor :stephen_king . ?book :genre :horror
//! let author = PredTerm::Bound(lmkg_store::PredId(g.preds().get(":hasAuthor").unwrap()));
//! let genre = PredTerm::Bound(lmkg_store::PredId(g.preds().get(":genre").unwrap()));
//! let king = NodeTerm::Bound(lmkg_store::NodeId(g.nodes().get(":stephen_king").unwrap()));
//! let horror = NodeTerm::Bound(lmkg_store::NodeId(g.nodes().get(":horror").unwrap()));
//! let book = NodeTerm::Var(VarId(0));
//! let q = Query::new(vec![
//!     TriplePattern::new(book, author, king),
//!     TriplePattern::new(book, genre, horror),
//! ]);
//! assert_eq!(counter::cardinality(&g, &q), 2);
//! ```

// No unsafe anywhere in this crate — enforced so the `SAFETY:` lints and
// the sanitizer jobs only ever have the nn kernels and the serve signal
// shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod dict;
pub mod fxhash;
pub mod graph;
pub mod matcher;
pub mod ntriples;
pub mod sparql;
pub mod stats;
pub mod triple;

pub use dict::{Dictionary, NodeId, PredId};
pub use graph::{GraphBuilder, KnowledgeGraph};
pub use stats::{GraphStats, LogHistogram};
pub use triple::{NodeTerm, PredTerm, Query, QueryBuilder, QueryShape, Triple, TriplePattern, VarId};
