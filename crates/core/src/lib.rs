//! # lmkg
//!
//! **LMKG: Learned Models for Cardinality Estimation in Knowledge Graphs**
//! (Davitkova, Gjurovski & Michel, EDBT 2022) — the core crate of the
//! reproduction.
//!
//! Two learned estimator families over the `lmkg-store` substrate:
//!
//! * [`LmkgS`] — a supervised MLP over the SG-Encoding with
//!   log/min-max-scaled targets and mean q-error loss (§VI-A);
//! * [`LmkgU`] — an unsupervised ResMADE over bound
//!   subgraph patterns, answering queries with unbound terms via
//!   likelihood-weighted forward sampling and tuple-space totals (§VI-B);
//!
//! plus the [`Lmkg`] framework that groups models
//! (single / by type / by size / specialized, §VII-B), routes queries, and
//! decomposes queries no model covers (§IV).
//!
//! ```
//! use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
//! use lmkg::supervised::LmkgSConfig;
//! use lmkg_data::{workload, Dataset, Scale, WorkloadConfig};
//! use lmkg_store::QueryShape;
//!
//! let graph = Dataset::LubmLike.generate(Scale::Ci, 42);
//! let mut cfg = LmkgConfig::supervised_default();
//! cfg.sizes = vec![2];
//! cfg.queries_per_size = 200;
//! cfg.s_config = LmkgSConfig { hidden: vec![32], epochs: 10, ..Default::default() };
//! let mut lmkg = Lmkg::build(&graph, &cfg);
//!
//! let queries = workload::generate(&graph, &WorkloadConfig::test_default(QueryShape::Star, 2, 1));
//! let estimate = lmkg.estimate_query(&queries[0].query);
//! assert!(estimate >= 1.0);
//! ```

// No unsafe anywhere in this crate — enforced so the lmkg-xtask L1 lint
// and the sanitizer jobs only ever have the nn kernels and the serve
// signal shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod estimator;
pub mod framework;
pub mod metrics;
pub mod monitor;
pub mod outliers;
pub mod snapshot;
pub mod summary;
pub mod supervised;
pub mod unsupervised;

pub use estimator::{CardinalityEstimator, ExactEstimator};
pub use framework::{trainable_cell, Grouping, Lmkg, LmkgConfig, ModelKey, ModelType};
pub use lmkg_nn::quant::QuantMode;
pub use metrics::{q_error, GroupedQErrors, QErrorStats};
pub use monitor::{Cell, DriftReport, WorkloadMonitor};
pub use snapshot::SnapshotError;
pub use summary::GraphSummary;
pub use supervised::{EpochStats, LmkgS, LmkgSConfig, QueryEncoder};
pub use unsupervised::{LmkgU, LmkgUConfig, LmkgUError};
