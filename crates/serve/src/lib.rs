//! # lmkg-serve
//!
//! A long-lived, **multi-tenant** estimation server on top of the batched
//! inference contract (`CardinalityEstimator::estimate_batch`, PR 1): the
//! paper's sub-millisecond learned estimates, exercised the way practical
//! deployments of learned estimators are evaluated — as an online service
//! under load, with latency percentiles, not as an offline loop. One
//! process serves many knowledge graphs at once: each **tenant** is a
//! namespace with its own graph, model set, batcher, stats, and admission
//! quota, assembled through [`server::ServeBuilder`].
//!
//! The pieces, bottom-up:
//!
//! * [`protocol`] — the line-based wire protocol, v2: namespace-routed
//!   `EST <tenant> <id> <sparql>` / `STATS <tenant> <id>` /
//!   `METRICS <tenant> <id>` requests plus a `TENANTS <id>` listing verb;
//!   `OK`/`ERR code=<kebab-code>`/`OVERLOADED`/`STATS`/`TENANTS` replies
//!   out, plus the framed multi-line `METRICS` exposition. v1 lines (no
//!   tenant token) still parse and route to the `default` tenant. Requests
//!   and replies round-trip through parse/format.
//! * [`latency`] — [`StatsSnapshot`]: the request counters plus the
//!   since-start p50/p95/p99 of the one request-latency histogram,
//!   printable on demand (`STATS`) and at shutdown.
//! * [`expose`] — the `METRICS` renderer: every counter, stage histogram,
//!   kernel-profile reading, and structured event the stack records,
//!   composed into one Prometheus-style text exposition — unlabeled for v1
//!   scrapes, `tenant="…"`-labeled when a namespace is addressed
//!   ([`expose::render_metrics_for`]).
//! * [`batcher`] — the micro-batcher: a bounded admission queue
//!   (shed-on-overflow with a structured `OVERLOADED` reply) feeding worker
//!   threads that take what is already queued, up to a max batch size,
//!   into **single** `estimate_batch` forwards. Workers share one
//!   frozen model behind an `Arc` (estimation takes `&self`) through a
//!   swappable [`batcher::ModelHandle`], so forwards run concurrently and a
//!   retraining loop can publish new models under live traffic. Every
//!   tenant owns its batcher, so batches are keyed by tenant by
//!   construction — one forward never mixes models.
//! * [`adapter`] — the model lifecycle (paper §IV, Model choice), in one
//!   path: a tenant is described once as an [`adapter::LmkgTenant`] (graph,
//!   base `Lmkg`, the configuration it extends with, store, memory budget,
//!   quant mode, quota); [`adapter::LmkgTenant::load_or_train`] obtains the
//!   base — a cold start from the tenant's `lmkg-modelstore` directory, or
//!   `Lmkg::build` — and startup is the lifecycle's *tick zero*: budget
//!   enforced, whatever is not on disk persisted. With an
//!   [`adapter::AdapterConfig`] one background thread runs the same stages
//!   for every tenant on every later tick, behind a drift-driven retrain:
//!   the batcher observes every admitted query into a `WorkloadMonitor`, the
//!   thread trains models for the dominant uncovered `(shape, size)` cells
//!   via `Lmkg::extend` (only the missing cells; existing entries are reused
//!   by reference) and publishes through the `ModelHandle` while workers
//!   keep serving the old snapshot.
//! * [`server`] — [`server::ServeBuilder`] (tenants in, running service —
//!   and its [`adapter::Adapter`] — out) and the transports: a stdin/stdout
//!   pipe mode and a TCP listener mode, both speaking the same protocol
//!   through the same service object.
//!   The TCP accept loop shuts down gracefully on a [`server::ShutdownFlag`]
//!   (wired to SIGINT/SIGTERM by the `serve` binary): in-flight sessions
//!   drain their replies before the loop returns.
//!
//! Measuring the server is not this crate's job: the `benchmark/` workspace
//! at the repository root drives the real `serve tcp` binary (open- and
//! closed-loop, client-side clocks) and reconciles its numbers against the
//! `METRICS` this crate exposes.
//!
//! ```
//! use lmkg::GraphSummary;
//! use lmkg_serve::{BatchConfig, ServeBuilder, TenantSpec};
//! use lmkg_store::GraphBuilder;
//! use std::sync::{mpsc, Arc};
//!
//! let mut b = GraphBuilder::new();
//! b.add(":a", ":p", ":b");
//! let graph = Arc::new(b.build());
//! let summary = GraphSummary::build(&graph);
//! let svc = ServeBuilder::new()
//!     .batch(BatchConfig::default())
//!     .tenant(TenantSpec::new("default", graph, Arc::new(summary)))
//!     .build()
//!     .unwrap();
//! let (tx, rx) = mpsc::channel();
//! // v1 (no tenant token) routes to the default tenant; v2 addresses it.
//! svc.handle_line("EST q1 SELECT * WHERE { ?x :p ?y . }", &tx);
//! svc.handle_line("EST default q2 SELECT * WHERE { ?x :p ?y . }", &tx);
//! for expected in ["OK q1 ", "OK q2 "] {
//!     assert!(rx.recv().unwrap().to_string().starts_with(expected));
//! }
//! ```

#![warn(missing_docs)]

pub mod adapter;
pub mod batcher;
pub mod expose;
pub mod latency;
pub mod metrics_registry;
pub mod protocol;
pub mod server;

pub use adapter::{Adapter, AdapterConfig, LmkgTenant, Origin};
pub use batcher::{
    BatchConfig, Job, MicroBatcher, ModelHandle, ServeStats, SharedEstimator, SharedMonitor, EVENT_KINDS, STAGE_NAMES,
};
pub use expose::{render_metrics, render_metrics_for};
pub use latency::StatsSnapshot;
pub use metrics_registry::{MetricDef, MetricKind, REGISTRY};
pub use protocol::{ErrorCode, ProtocolError, Reply, Request, DEFAULT_TENANT};
pub use server::{
    is_valid_tenant_name, serve_stream, serve_tcp, BuildError, EstimationService, LineOutcome, ServeBuilder,
    ShutdownFlag, TenantSpec,
};
