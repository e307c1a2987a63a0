//! # lmkg-data
//!
//! Dataset and workload substrate for the LMKG reproduction:
//!
//! * seeded generators for the paper's three evaluation datasets (SWDF-like,
//!   LUBM-like, YAGO-like) preserving their Table-I shape statistics at a
//!   configurable [`Scale`];
//! * bound-pattern samplers — the paper's random-walk sampling plus exact
//!   uniform tuple-space sampling as an ablation (§VII-A);
//! * query-workload generation with exact cardinality labels and the
//!   log-base-5 result-size bucketing of §VIII.
//!
//! ```
//! use lmkg_data::{Dataset, Scale};
//! use lmkg_data::workload::{self, WorkloadConfig};
//! use lmkg_store::QueryShape;
//!
//! let graph = Dataset::LubmLike.generate(Scale::Ci, 42);
//! let cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 1);
//! let queries = workload::generate(&graph, &cfg);
//! assert!(queries.iter().all(|q| q.cardinality >= 1));
//! ```

// No unsafe anywhere in this crate — enforced so the lmkg-xtask L1 lint
// and the sanitizer jobs only ever have the nn kernels and the serve
// signal shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod graph_sample;
pub mod lubm;
pub mod sampler;
pub mod scale;
pub mod swdf;
pub mod workload;
pub mod yago;
pub mod zipf;

pub use dataset::Dataset;
pub use graph_sample::{sample_subgraph, RwSampleConfig};
pub use sampler::{ChainSampler, ChainTuple, SamplingStrategy, StarSampler, StarTuple};
pub use scale::Scale;
pub use workload::{LabeledQuery, WorkloadConfig};
pub use zipf::Zipf;
