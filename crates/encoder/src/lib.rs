//! # lmkg-encoder
//!
//! Query featurization for LMKG (paper §V): the binary term codec, the
//! *SG-Encoding* `(A, X, E)` that represents arbitrary subgraph topologies in
//! one fixed-size input, and the log/min-max cardinality scaler used by the
//! supervised model.
//!
//! ```
//! use lmkg_encoder::SgEncoder;
//! use lmkg_store::{NodeId, NodeTerm, PredId, PredTerm, Query, TriplePattern, VarId};
//!
//! // ?book :hasAuthor :king . ?book :genre :horror   (Fig. 2)
//! let q = Query::new(vec![
//!     TriplePattern::new(NodeTerm::Var(VarId(0)), PredTerm::Bound(PredId(2)), NodeTerm::Bound(NodeId(0))),
//!     TriplePattern::new(NodeTerm::Var(VarId(0)), PredTerm::Bound(PredId(1)), NodeTerm::Bound(NodeId(3))),
//! ]);
//!
//! let sg = SgEncoder::new(5, 3, 3, 2);
//! let features = sg.encode_vec(&q).unwrap();
//! assert_eq!(features.len(), sg.width());
//!
//! // A batch is one contiguous row-major buffer, one row per accepted query.
//! let mut rows = Vec::new();
//! let statuses = sg.encode_batch([&q, &q], &mut rows);
//! assert!(statuses.iter().all(Result::is_ok));
//! assert_eq!(rows.len(), 2 * sg.width());
//! ```

// No unsafe anywhere in this crate — enforced so the `SAFETY:` lints and
// the sanitizer jobs only ever have the nn kernels and the serve signal
// shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod scaler;
pub mod sg;
pub mod term;

pub use scaler::CardinalityScaler;
pub use sg::{EncodeError, SgEncoder, SgLayout};
pub use term::{binary_width, TermCodec};
