//! Transports and the tenant-routed serving core.
//!
//! [`ServeBuilder`] assembles an [`EstimationService`] out of tenants — a
//! [`TenantSpec`] around any estimator, or an [`LmkgTenant`] whose model set
//! the [`adapter`](crate::adapter) lifecycle manages: each tenant is one
//! namespace with its **own** graph, estimator behind a swappable
//! `ModelHandle`, micro-batcher (workers + bounded admission queue), and
//! [`ServeStats`].
//! Batches are keyed by tenant *by construction* — every tenant owns its
//! batcher, so one `estimate_batch` forward can never mix models — and a
//! tenant's admission quota is its queue depth: a tenant at quota sheds its
//! own requests with `OVERLOADED` without starving anyone else.
//!
//! [`EstimationService::handle_line`] is the whole per-line state machine —
//! parse, route to the addressed tenant (v1 lines go to the `default`
//! namespace), admit (or shed), or answer control requests directly.
//! [`serve_stream`] runs a session over any `BufRead`/`Write` pair (the pipe
//! mode is exactly `stdin`/`stdout`), and [`serve_tcp`] accepts connections
//! and runs one session thread per client over the same code path, so both
//! modes behave identically by construction.

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::adapter::{Adapter, AdapterConfig, LmkgTenant};
use crate::batcher::{BatchConfig, Job, MicroBatcher, ServeStats, SharedEstimator};
use crate::latency::StatsSnapshot;
use crate::protocol::{ErrorCode, Reply, Request, DEFAULT_TENANT};
use lmkg_store::{sparql, KnowledgeGraph};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
// ORDERING (max 2): SeqCst ShutdownFlag: trigger() must be visible to the accept loop's next
// is_triggered() poll with no weaker-order surprises at shutdown
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// What [`EstimationService::handle_line`] decided about the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading lines.
    Continue,
    /// The client asked to end the session (`QUIT`).
    Quit,
}

/// One namespace of a multi-tenant server: a graph, the estimator serving
/// it, and the tenant's admission quota. For an estimator that is an `Lmkg`
/// framework — loaded or trained, budgeted, persisted, adapted — describe the
/// tenant as an [`LmkgTenant`] instead.
pub struct TenantSpec {
    /// The namespace token requests address this tenant by.
    pub name: String,
    /// The graph this tenant's queries resolve against.
    pub graph: Arc<KnowledgeGraph>,
    /// The tenant's frozen, `Arc`-shared estimator.
    pub estimator: SharedEstimator,
    /// Admission quota: overrides [`BatchConfig::queue_depth`] for this
    /// tenant. `Some(0)` suspends the namespace — estimates are refused
    /// with `ERR code=quota` instead of queued.
    pub quota: Option<usize>,
}

impl TenantSpec {
    /// A tenant with the builder-wide batch configuration.
    pub fn new(name: impl Into<String>, graph: Arc<KnowledgeGraph>, estimator: SharedEstimator) -> Self {
        Self {
            name: name.into(),
            graph,
            estimator,
            quota: None,
        }
    }

    /// Cap this tenant's admission queue at `quota` jobs (0 = suspended).
    pub fn quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }
}

/// Why [`ServeBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The builder had no tenants at all.
    NoTenants,
    /// Two tenants claimed the same namespace token.
    DuplicateTenant(String),
    /// A tenant name breaks [`is_valid_tenant_name`].
    InvalidTenantName(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoTenants => write!(f, "a service needs at least one tenant"),
            BuildError::DuplicateTenant(name) => write!(f, "duplicate tenant name {name:?}"),
            BuildError::InvalidTenantName(name) => write!(
                f,
                "invalid tenant name {name:?} (must match [A-Za-z0-9_-]+ and not be \"SELECT\")"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The one tenant-name rule: one or more of `[A-Za-z0-9_-]`, and not the
/// reserved token `SELECT` (which would make `EST` lines ambiguous — the
/// protocol tells v1 from v2 by the leading query keyword). A name is
/// written verbatim into the `tenant="…"` exposition label and, by the
/// `serve` binary, as a directory under `--model-dir`, so it holds nothing
/// either would have to escape.
pub fn is_valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name != "SELECT"
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The one way to construct an [`EstimationService`]: collect tenants, set
/// the shared batch configuration, build.
///
/// ```
/// # use lmkg::GraphSummary;
/// # use lmkg_serve::{BatchConfig, ServeBuilder, TenantSpec};
/// # use lmkg_store::GraphBuilder;
/// # use std::sync::Arc;
/// # let mut b = GraphBuilder::new();
/// # b.add(":a", ":p", ":b");
/// # let graph = Arc::new(b.build());
/// # let summary: lmkg_serve::SharedEstimator = Arc::new(GraphSummary::build(&graph));
/// let svc = ServeBuilder::new()
///     .batch(BatchConfig::default())
///     .tenant(TenantSpec::new("lubm", Arc::clone(&graph), Arc::clone(&summary)))
///     .tenant(TenantSpec::new("swdf", graph, summary).quota(64))
///     .build()
///     .unwrap();
/// assert_eq!(svc.tenant_names(), ["lubm", "swdf"]);
/// ```
#[derive(Default)]
pub struct ServeBuilder {
    batch: BatchConfig,
    /// Each namespace, with the lifecycle description behind it when it was
    /// added as an [`LmkgTenant`].
    tenants: Vec<(TenantSpec, Option<LmkgTenant>)>,
}

impl ServeBuilder {
    /// An empty builder with the default [`BatchConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The batch configuration every tenant's batcher starts from (a
    /// tenant's `quota` overrides its queue depth).
    pub fn batch(mut self, cfg: BatchConfig) -> Self {
        self.batch = cfg;
        self
    }

    /// Adds one tenant namespace around any estimator.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push((spec, None));
        self
    }

    /// Adds one LMKG-backed tenant namespace: served from `tenant.base`, with
    /// its model set under the [`adapter`](crate::adapter) lifecycle.
    pub fn lmkg_tenant(mut self, tenant: LmkgTenant) -> Self {
        let spec = TenantSpec {
            name: tenant.name.clone(),
            graph: Arc::clone(&tenant.graph),
            estimator: Arc::clone(&tenant.base) as SharedEstimator,
            quota: tenant.quota,
        };
        self.tenants.push((spec, Some(tenant)));
        self
    }

    /// [`ServeBuilder::build_adaptive`] without adaptation, for callers with
    /// no use for the lifecycle handle.
    pub fn build(self) -> Result<EstimationService, BuildError> {
        self.build_adaptive(None).map(|(svc, _)| svc)
    }

    /// Validates the tenant set, starts every tenant's batcher workers, and
    /// runs every [`LmkgTenant`]'s lifecycle tick zero (budget, persist)
    /// before handing the service back. With `adapt`, the returned
    /// [`Adapter`] also holds the background thread that keeps those tenants'
    /// model sets tracking their workloads; it stops when dropped.
    pub fn build_adaptive(self, adapt: Option<AdapterConfig>) -> Result<(EstimationService, Adapter), BuildError> {
        if self.tenants.is_empty() {
            return Err(BuildError::NoTenants);
        }
        let mut index = HashMap::with_capacity(self.tenants.len());
        for (i, (spec, _)) in self.tenants.iter().enumerate() {
            if !is_valid_tenant_name(&spec.name) {
                return Err(BuildError::InvalidTenantName(spec.name.clone()));
            }
            if index.insert(spec.name.clone(), i).is_some() {
                return Err(BuildError::DuplicateTenant(spec.name.clone()));
            }
        }
        // v1 lines (no tenant token) route to the `default` namespace; a
        // single-tenant service is its own default whatever its name, so
        // pre-v2 clients work against it unchanged.
        let default_idx = match index.get(DEFAULT_TENANT) {
            Some(&i) => Some(i),
            None if self.tenants.len() == 1 => Some(0),
            None => None,
        };
        let batch = self.batch;
        let mut lifecycles = Vec::new();
        let tenants: Vec<TenantEntry> = self
            .tenants
            .into_iter()
            .map(|(spec, lmkg)| {
                let cfg = BatchConfig {
                    // A suspended tenant still gets a (never-fed) batcher:
                    // its stats surface stays live for STATS/METRICS.
                    queue_depth: spec.quota.filter(|&q| q > 0).unwrap_or(batch.queue_depth),
                    ..batch.clone()
                };
                let batcher = match lmkg {
                    Some(tenant) => {
                        let (batcher, lifecycle) = tenant.start(cfg, adapt.as_ref());
                        lifecycles.push(lifecycle);
                        batcher
                    }
                    None => MicroBatcher::start(spec.estimator, cfg, None),
                };
                TenantEntry {
                    name: spec.name,
                    graph: spec.graph,
                    batcher,
                    suspended: spec.quota == Some(0),
                }
            })
            .collect();
        let service = EstimationService {
            tenants,
            index,
            default_idx,
        };
        Ok((service, Adapter::start(lifecycles, adapt)))
    }
}

/// One running tenant: its graph plus its private batcher (workers, queue,
/// stats, model handle).
struct TenantEntry {
    name: String,
    graph: Arc<KnowledgeGraph>,
    batcher: MicroBatcher,
    suspended: bool,
}

/// The serving core shared by every transport: parses request lines, routes
/// them to the addressed tenant, and feeds that tenant's micro-batcher.
pub struct EstimationService {
    tenants: Vec<TenantEntry>,
    index: HashMap<String, usize>,
    /// Where v1 lines (no tenant token) route: the tenant named `default`,
    /// or the only tenant of a single-tenant service. `None` on a
    /// multi-tenant service without a `default` namespace — v1 lines are
    /// then refused with `ERR code=unknown-tenant`.
    default_idx: Option<usize>,
}

impl fmt::Debug for EstimationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EstimationService")
            .field("tenants", &self.tenant_names())
            .field("default", &self.default_idx.map(|i| self.tenants[i].name.as_str()))
            .finish()
    }
}

impl EstimationService {
    /// The entry v1 lines route to, falling back to the first tenant for
    /// transport-level accounting (sessions, bytes, malformed lines carry
    /// no tenant token to attribute them better).
    fn accounting_entry(&self) -> &TenantEntry {
        &self.tenants[self.default_idx.unwrap_or(0)]
    }

    /// The tenant a request addresses — `None` (a v1 line) is the default
    /// tenant. A request nobody serves is answered on `out` right here, under
    /// its own `id`, with `ERR code=unknown-tenant` naming the live tenants.
    fn resolve(&self, tenant: Option<&str>, id: &str, out: &mpsc::Sender<Reply>) -> Option<&TenantEntry> {
        let idx = match tenant {
            Some(name) => self.index.get(name).copied(),
            None => self.default_idx,
        };
        if idx.is_none() {
            let mut names = self.tenant_names();
            names.truncate(8);
            let _ = out.send(Reply::error(
                id,
                ErrorCode::UnknownTenant,
                match tenant {
                    Some(name) => format!("unknown tenant {:?} (serving: {})", name, names.join(", ")),
                    None => format!("no default tenant on this server; address one of: {}", names.join(", ")),
                },
            ));
        }
        idx.map(|i| &self.tenants[i])
    }

    /// The served namespaces, sorted ascending (the `TENANTS` reply body).
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.iter().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }

    /// One tenant's point-in-time serving summary.
    pub fn tenant_stats(&self, name: &str) -> Option<StatsSnapshot> {
        self.index
            .get(name)
            .map(|&i| self.tenants[i].batcher.stats().snapshot())
    }

    /// One tenant's live counter block.
    pub fn tenant_serve_stats(&self, name: &str) -> Option<Arc<ServeStats>> {
        self.index.get(name).map(|&i| self.tenants[i].batcher.stats())
    }

    /// The default tenant's point-in-time serving summary (the `STATS`
    /// reply body of a v1 `STATS` line).
    pub fn stats(&self) -> StatsSnapshot {
        self.accounting_entry().batcher.stats().snapshot()
    }

    /// The default tenant's live counter block (shared with its adapter,
    /// which records drift evaluations and retrain events into it). Also
    /// where transport-level accounting (sessions, bytes, malformed lines)
    /// lands — those carry no tenant token.
    pub fn serve_stats(&self) -> Arc<ServeStats> {
        self.accounting_entry().batcher.stats()
    }

    /// Processes one raw input line. Estimate replies arrive on `out`
    /// asynchronously (from the addressed tenant's batcher workers); error,
    /// overload, stats, and tenant-listing replies are sent on `out` before
    /// this returns. Blank lines and `#` comments are ignored.
    pub fn handle_line(&self, line: &str, out: &mpsc::Sender<Reply>) -> LineOutcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return LineOutcome::Continue;
        }
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                self.accounting_entry().batcher.stats().note_parse_error(&e.message);
                let _ = out.send(Reply::error("-", ErrorCode::Parse, e.message));
                return LineOutcome::Continue;
            }
        };
        match request {
            Request::Quit => LineOutcome::Quit,
            Request::Tenants { id } => {
                let _ = out.send(Reply::Tenants {
                    id,
                    names: self.tenant_names(),
                });
                LineOutcome::Continue
            }
            Request::Stats { tenant, id } => {
                if let Some(entry) = self.resolve(tenant.as_deref(), &id, out) {
                    let _ = out.send(Reply::Stats {
                        id,
                        snapshot: entry.batcher.stats().snapshot(),
                    });
                }
                LineOutcome::Continue
            }
            Request::Metrics { tenant, id } => {
                // The exposition carries a tenant="…" label exactly when the
                // request addressed a namespace explicitly; a v1 line gets
                // the v1 (unlabeled) exposition, byte-compatible with pre-v2
                // scrapers.
                let label = tenant.as_deref();
                if let Some(entry) = self.resolve(label, &id, out) {
                    let _ = out.send(Reply::Metrics {
                        id,
                        text: crate::expose::render_metrics_for(label, &entry.batcher.stats()),
                    });
                }
                LineOutcome::Continue
            }
            Request::Estimate { tenant, id, sparql } => {
                let Some(entry) = self.resolve(tenant.as_deref(), &id, out) else {
                    return LineOutcome::Continue;
                };
                if entry.suspended {
                    let _ = out.send(Reply::error(
                        id,
                        ErrorCode::Quota,
                        format!("tenant {:?} is suspended (quota 0)", entry.name),
                    ));
                    return LineOutcome::Continue;
                }
                match sparql::parse(&sparql, &entry.graph) {
                    Ok(parsed) => {
                        let job = Job::new(id, parsed.query, out.clone());
                        if let Err(job) = entry.batcher.submit(job) {
                            let _ = out.send(Reply::Overloaded {
                                id: job.id,
                                depth: entry.batcher.queue_depth(),
                            });
                        }
                    }
                    Err(e) => {
                        let _ = out.send(Reply::error(id, ErrorCode::Parse, e.message));
                    }
                }
                LineOutcome::Continue
            }
        }
    }
}

/// The most reply bytes the session writer gathers into one write.
const REPLY_BUFFER_CAP: usize = 64 * 1024;

/// Runs one session: reads request lines from `reader` until EOF or `QUIT`,
/// writes reply lines to `writer` as they complete (a writer thread drains
/// the reply channel, so slow clients never block the batcher workers).
/// Each wake-up of the writer makes one `write_all` and one `flush`: the
/// reply that woke it plus every reply already waiting, each with its
/// `'\n'`, up to 64 KiB.
/// Returns the writer once every admitted request has been answered — tests
/// recover their output buffer through it.
pub fn serve_stream<R, W>(svc: &EstimationService, reader: R, writer: W) -> W
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let stats = svc.serve_stats();
    stats.note_session_start();
    let (tx, rx) = mpsc::channel::<Reply>();
    #[expect(
        clippy::expect_used,
        reason = "session setup, not per-request: without a writer thread the session cannot reply at all, and the panic is confined to this session's thread"
    )]
    let writer_thread = std::thread::Builder::new()
        .name("lmkg-serve-writer".into())
        .spawn({
            let stats = Arc::clone(&stats);
            move || {
                use std::fmt::Write as _;
                let mut writer = writer;
                let mut buf = String::new();
                while let Ok(reply) = rx.recv() {
                    // Flushed per wake-up, never held for more replies: an
                    // interactive client sees each reply immediately, and a
                    // pipelining one gets the backlog in one write.
                    buf.clear();
                    let _ = writeln!(buf, "{reply}");
                    while buf.len() < REPLY_BUFFER_CAP {
                        let Ok(reply) = rx.try_recv() else { break };
                        let _ = writeln!(buf, "{reply}");
                    }
                    let sent = writer.write_all(buf.as_bytes()).and_then(|()| writer.flush());
                    if sent.is_err() {
                        break; // client hung up; drain silently
                    }
                    stats.bytes_out.add(buf.len() as u64);
                }
                writer
            }
        })
        .expect("spawn writer thread");

    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            // The bytes up to the newline are already consumed, so a
            // non-UTF-8 line is just one malformed request — reply ERR and
            // keep the session alive, like any other garbage input.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                stats.note_parse_error("request line is not valid UTF-8");
                let _ = tx.send(Reply::error("-", ErrorCode::Parse, "request line is not valid UTF-8"));
                continue;
            }
            Err(_) => break, // transport failure: end the session
        };
        stats.bytes_in.add(line.len() as u64 + 1);
        if svc.handle_line(&line, &tx) == LineOutcome::Quit {
            break;
        }
    }
    // Close our sender; in-flight jobs hold clones, so the writer exits
    // exactly when the last outstanding reply has been written.
    drop(tx);
    #[expect(
        clippy::expect_used,
        reason = "join only fails if the writer panicked, and its W (the session's write half) is unrecoverable then — re-raising on the session thread is the honest outcome"
    )]
    let writer = writer_thread.join().expect("writer thread panicked");
    stats.note_session_end();
    writer
}

/// A cloneable signal that asks the TCP accept loop to shut down
/// gracefully. The `serve` binary wires it to SIGINT/SIGTERM; tests trigger
/// it directly.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown. Idempotent; safe from any thread (the `serve`
    /// binary's signal watcher calls it).
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// How often the accept loop polls for new connections, finished sessions,
/// and the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Accepts TCP connections and serves each on its own thread. With
/// `max_conns = Some(n)` the accept loop returns after `n` connections
/// (tests use 1); `None` accepts until `shutdown` triggers.
///
/// Shutdown is graceful: once `shutdown` fires, no new connection is
/// accepted and every live session's read half is closed
/// (`Shutdown::Read`), which reads like a client EOF — the session stops
/// taking requests, every already-admitted job still gets its reply written,
/// and the session thread exits. The loop joins all session threads before
/// returning, so when this function is back the caller can run
/// `Batcher::shutdown` (drop the service) and join the adapter without
/// killing anything mid-swap.
pub fn serve_tcp(
    svc: &Arc<EstimationService>,
    listener: TcpListener,
    max_conns: Option<usize>,
    shutdown: &ShutdownFlag,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut sessions: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    let mut accepted = 0usize;
    let mut fatal: Option<std::io::Error> = None;
    loop {
        if shutdown.is_triggered() {
            break;
        }
        // Reap sessions that ended on their own (QUIT / EOF) on every
        // iteration — not just when idle — so sustained connection churn
        // cannot accumulate dead handles and their control fds unboundedly.
        sessions.retain(|(handle, _)| !handle.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                // The listener is non-blocking so the loop can watch the
                // flag; sessions themselves block on reads as before.
                if let Err(e) = stream.set_nonblocking(false) {
                    // Same contract as any other fatal accept-loop error:
                    // drain live sessions below, then propagate.
                    fatal = Some(e);
                    break;
                }
                let _ = stream.set_nodelay(true); // one-line replies; don't batch in the kernel
                let control = stream.try_clone();
                let session_svc = Arc::clone(svc);
                let spawned = std::thread::Builder::new()
                    .name("lmkg-serve-session".into())
                    .spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(read_half) => BufReader::new(read_half),
                            Err(_) => return,
                        };
                        let stream = serve_stream(&session_svc, reader, stream);
                        // Send the FIN now: the accept loop's control clone
                        // keeps the socket open until its next reap, a poll
                        // tick away.
                        let _ = stream.shutdown(Shutdown::Both);
                    });
                let handle = match spawned {
                    Ok(handle) => handle,
                    Err(e) => {
                        // Thread exhaustion must not kill the accept loop:
                        // dropping the closure closes this one connection
                        // (the stream moved into it), every live session
                        // keeps running, and the next accept retries.
                        if let Ok(control) = &control {
                            let _ = control.shutdown(Shutdown::Both);
                        }
                        svc.serve_stats().event(
                            lmkg_obs::Level::Warn,
                            "session",
                            format!("refused: cannot spawn session thread: {e}"),
                        );
                        continue;
                    }
                };
                match control {
                    // Keep a handle on the socket so shutdown can drain it.
                    Ok(control) => sessions.push((handle, control)),
                    Err(_) => drop(handle), // session still runs; just not drainable early
                }
                accepted += 1;
                if max_conns.is_some_and(|max| accepted >= max) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A connection that died between arriving and being accepted is
            // the peer's problem, not the listener's.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
            // Anything else (EMFILE, a dead listener, …) is fatal for the
            // accept loop — but live sessions still drain below before the
            // error propagates, exactly as on a shutdown signal.
            Err(e) => {
                fatal = Some(e);
                break;
            }
        }
    }
    if shutdown.is_triggered() || fatal.is_some() {
        for (_, stream) in &sessions {
            // EOF the request side; in-flight replies still flush.
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    for (handle, _) in sessions {
        let _ = handle.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg::GraphSummary;
    use lmkg_store::GraphBuilder;

    fn book_graph() -> Arc<KnowledgeGraph> {
        let mut b = GraphBuilder::new();
        b.add(":shining", ":hasAuthor", ":StephenKing");
        b.add(":it", ":hasAuthor", ":StephenKing");
        b.add(":StephenKing", ":bornIn", ":USA");
        Arc::new(b.build())
    }

    fn service(cfg: BatchConfig) -> EstimationService {
        let graph = book_graph();
        let summary = GraphSummary::build(&graph);
        ServeBuilder::new()
            .batch(cfg)
            .tenant(TenantSpec::new(DEFAULT_TENANT, graph, Arc::new(summary)))
            .build()
            .unwrap()
    }

    /// A second graph with a disjoint vocabulary, so routing mix-ups
    /// surface as unknown-term errors instead of silently wrong numbers.
    fn city_graph() -> Arc<KnowledgeGraph> {
        let mut b = GraphBuilder::new();
        b.add(":berlin", ":locatedIn", ":germany");
        b.add(":munich", ":locatedIn", ":germany");
        Arc::new(b.build())
    }

    fn two_tenant_service(cfg: BatchConfig) -> EstimationService {
        let books = book_graph();
        let cities = city_graph();
        let books_est: SharedEstimator = Arc::new(GraphSummary::build(&books));
        let cities_est: SharedEstimator = Arc::new(GraphSummary::build(&cities));
        ServeBuilder::new()
            .batch(cfg)
            .tenant(TenantSpec::new("books", books, books_est))
            .tenant(TenantSpec::new("cities", cities, cities_est))
            .build()
            .unwrap()
    }

    #[test]
    fn handle_line_answers_estimates_errors_and_stats() {
        let svc = service(BatchConfig::default().per_request());
        let (tx, rx) = mpsc::channel();

        // Blank lines and comments are ignored without replies.
        assert_eq!(svc.handle_line("", &tx), LineOutcome::Continue);
        assert_eq!(svc.handle_line("   # warmup file header", &tx), LineOutcome::Continue);

        svc.handle_line("EST q1 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap() {
            Reply::Estimate { id, estimate, .. } => {
                assert_eq!(id, "q1");
                assert!(estimate >= 1.0);
            }
            other => panic!("expected an estimate, got {other:?}"),
        }

        // Unknown term → structured ERR carrying the request id and the
        // parse code.
        svc.handle_line("EST q2 SELECT * WHERE { ?x :hasAuthor :Nobody . }", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, message } => {
                assert_eq!(id, "q2");
                assert_eq!(code, Some(ErrorCode::Parse));
                assert!(message.contains("unknown node term"));
            }
            other => panic!("expected ERR, got {other:?}"),
        }

        // Malformed line → ERR with the placeholder id.
        svc.handle_line("ESTIMATE q3 whatever", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, .. } => {
                assert_eq!(id, "-");
                assert_eq!(code, Some(ErrorCode::Parse));
            }
            other => panic!("expected ERR, got {other:?}"),
        }

        svc.handle_line("STATS s1", &tx);
        match rx.recv().unwrap() {
            Reply::Stats { id, snapshot } => {
                assert_eq!(id, "s1");
                assert_eq!(snapshot.served, 1);
            }
            other => panic!("expected STATS, got {other:?}"),
        }

        assert_eq!(svc.handle_line("QUIT", &tx), LineOutcome::Quit);
    }

    #[test]
    fn tenant_routing_resolves_terms_per_namespace() {
        let svc = two_tenant_service(BatchConfig::default().per_request());
        let (tx, rx) = mpsc::channel();

        // Each tenant resolves its own vocabulary …
        svc.handle_line("EST books q1 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Estimate { id, estimate, .. } => {
                assert_eq!(id, "q1");
                assert!(estimate >= 1.0);
            }
            other => panic!("expected an estimate, got {other:?}"),
        }
        svc.handle_line("EST cities q2 SELECT * WHERE { ?x :locatedIn :germany . }", &tx);
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Estimate { id, .. } => assert_eq!(id, "q2"),
            other => panic!("expected an estimate, got {other:?}"),
        }

        // … and a query routed to the wrong tenant fails term resolution.
        svc.handle_line("EST cities q3 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, .. } => {
                assert_eq!(id, "q3");
                assert_eq!(code, Some(ErrorCode::Parse));
            }
            other => panic!("expected ERR, got {other:?}"),
        }

        // Unknown namespaces are a structured error naming the live ones.
        svc.handle_line("EST nope q4 SELECT * WHERE { ?x :p ?y . }", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, message } => {
                assert_eq!(id, "q4");
                assert_eq!(code, Some(ErrorCode::UnknownTenant));
                assert!(message.contains("books") && message.contains("cities"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }

        // Two tenants, neither named `default`: v1 lines have no home.
        svc.handle_line("EST q5 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, message } => {
                assert_eq!(id, "q5");
                assert_eq!(code, Some(ErrorCode::UnknownTenant));
                assert!(message.contains("no default tenant"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }

        // TENANTS lists both, sorted.
        svc.handle_line("TENANTS t0", &tx);
        match rx.recv().unwrap() {
            Reply::Tenants { id, names } => {
                assert_eq!(id, "t0");
                assert_eq!(names, ["books", "cities"]);
            }
            other => panic!("expected TENANTS, got {other:?}"),
        }

        // Per-tenant STATS count independently.
        svc.handle_line("STATS books sb", &tx);
        svc.handle_line("STATS cities sc", &tx);
        for (expected_id, expected_served) in [("sb", 1), ("sc", 1)] {
            match rx.recv().unwrap() {
                Reply::Stats { id, snapshot } => {
                    assert_eq!(id, expected_id);
                    assert_eq!(snapshot.served, expected_served);
                }
                other => panic!("expected STATS, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_tenant_service_is_its_own_default_whatever_its_name() {
        let graph = book_graph();
        let est: SharedEstimator = Arc::new(GraphSummary::build(&graph));
        let svc = ServeBuilder::new()
            .batch(BatchConfig::default().per_request())
            .tenant(TenantSpec::new("lubm", graph, est))
            .build()
            .unwrap();
        let (tx, rx) = mpsc::channel();
        // A v1 line routes to the only tenant even though it is not named
        // `default` — pre-v2 clients keep working against any single-tenant
        // server.
        svc.handle_line("EST q1 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Estimate { id, .. } => assert_eq!(id, "q1"),
            other => panic!("expected an estimate, got {other:?}"),
        }
    }

    #[test]
    fn suspended_tenant_refuses_with_quota_code() {
        let graph = book_graph();
        let est: SharedEstimator = Arc::new(GraphSummary::build(&graph));
        let svc = ServeBuilder::new()
            .batch(BatchConfig::default().per_request())
            .tenant(TenantSpec::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::clone(&est)))
            .tenant(TenantSpec::new("paused", graph, est).quota(0))
            .build()
            .unwrap();
        let (tx, rx) = mpsc::channel();
        svc.handle_line("EST paused q1 SELECT * WHERE { ?x :hasAuthor ?y . }", &tx);
        match rx.recv().unwrap() {
            Reply::Error { id, code, message } => {
                assert_eq!(id, "q1");
                assert_eq!(code, Some(ErrorCode::Quota));
                assert!(message.contains("suspended"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        // STATS on the suspended namespace still answers (nothing served).
        svc.handle_line("STATS paused s1", &tx);
        match rx.recv().unwrap() {
            Reply::Stats { snapshot, .. } => assert_eq!(snapshot.served, 0),
            other => panic!("expected STATS, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_bad_tenant_sets() {
        let graph = book_graph();
        let est: SharedEstimator = Arc::new(GraphSummary::build(&graph));
        assert_eq!(ServeBuilder::new().build().unwrap_err(), BuildError::NoTenants);
        let dup = ServeBuilder::new()
            .tenant(TenantSpec::new("a", Arc::clone(&graph), Arc::clone(&est)))
            .tenant(TenantSpec::new("a", Arc::clone(&graph), Arc::clone(&est)))
            .build()
            .unwrap_err();
        assert_eq!(dup, BuildError::DuplicateTenant("a".into()));
        for bad in ["", "has space", "SELECT", "a\"b", "a\\b", "../x", "a.b"] {
            let err = ServeBuilder::new()
                .tenant(TenantSpec::new(bad, Arc::clone(&graph), Arc::clone(&est)))
                .build()
                .unwrap_err();
            assert_eq!(err, BuildError::InvalidTenantName(bad.into()), "name {bad:?}");
        }
    }

    #[test]
    fn serve_stream_session_end_to_end() {
        let svc = service(BatchConfig::default());
        let input = "\
# a tiny session
EST a SELECT * WHERE { ?x :hasAuthor :StephenKing . }
EST b SELECT * WHERE { ?x :hasAuthor ?a . ?a :bornIn :USA . }
garbage line
STATS s
QUIT
EST never SELECT * WHERE { ?x :hasAuthor ?y . }
";
        let out = serve_stream(&svc, input.as_bytes(), Vec::new());
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Estimate replies may be reordered relative to the direct ERR/STATS
        // replies; QUIT stops the session before the final request.
        assert_eq!(lines.len(), 4, "unexpected session transcript: {text}");
        assert!(lines.iter().any(|l| l.starts_with("OK a ")));
        assert!(lines.iter().any(|l| l.starts_with("OK b ")));
        assert!(lines.iter().any(|l| l.starts_with("ERR - code=parse ")));
        assert!(lines.iter().any(|l| l.starts_with("STATS s ")));
        assert!(!text.contains("never"));
    }

    #[test]
    fn non_utf8_line_gets_err_without_killing_the_session() {
        let svc = service(BatchConfig::default());
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"EST a SELECT * WHERE { ?x :hasAuthor :StephenKing . }\n");
        input.extend_from_slice(b"\xe9\xff not utf-8\n");
        input.extend_from_slice(b"EST b SELECT * WHERE { ?x :bornIn :USA . }\n");
        input.extend_from_slice(b"QUIT\n");
        let out = serve_stream(&svc, input.as_slice(), Vec::new());
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "unexpected transcript: {text}");
        assert!(lines.iter().any(|l| l.starts_with("OK a ")));
        assert!(l_starts(&lines, "ERR - ") == 1, "one ERR for the bad line: {text}");
        // The request *after* the bad bytes was still served.
        assert!(
            lines.iter().any(|l| l.starts_with("OK b ")),
            "session must survive: {text}"
        );
    }

    /// A session writer that keeps every `write` call it receives apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The writer never splits a reply from its newline: every write it
    /// makes ends on a line boundary, and `bytes_out` counts what was
    /// written.
    #[test]
    fn every_write_ends_on_a_reply_boundary() {
        let svc = service(BatchConfig::default());
        let input = "\
EST a SELECT * WHERE { ?x :hasAuthor :StephenKing . }
EST b SELECT * WHERE { ?x :hasAuthor ?a . ?a :bornIn :USA . }
garbage line
STATS s
METRICS m
QUIT
";
        let log = serve_stream(&svc, input.as_bytes(), WriteLog::default());
        assert!(!log.0.is_empty(), "nothing written");
        for write in &log.0 {
            assert_eq!(
                write.last(),
                Some(&b'\n'),
                "a write ends mid-reply: {:?}",
                String::from_utf8_lossy(write)
            );
        }
        let text = String::from_utf8(log.0.concat()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for prefix in ["OK a ", "OK b ", "ERR - code=parse ", "STATS s ", "METRICS m lines="] {
            assert_eq!(l_starts(&lines, prefix), 1, "one {prefix:?} reply: {text}");
        }
        assert_eq!(svc.serve_stats().bytes_out.get(), text.len() as u64);
    }

    fn l_starts(lines: &[&str], prefix: &str) -> usize {
        lines.iter().filter(|l| l.starts_with(prefix)).count()
    }

    #[test]
    fn serve_tcp_round_trip() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;

        let svc = Arc::new(service(BatchConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || serve_tcp(&svc, listener, Some(1), &ShutdownFlag::new()).unwrap()
        });

        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"EST t1 SELECT * WHERE { ?x :hasAuthor :StephenKing . }\nQUIT\n")
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK t1 "), "unexpected reply {reply:?}");
        // After QUIT the server closes the connection.
        let mut rest = String::new();
        reader.read_line(&mut rest).unwrap();
        assert!(rest.is_empty());
        server.join().unwrap();
    }

    /// A client that sent `QUIT` reads EOF as soon as its session ends,
    /// not when the accept loop next wakes to reap the session.
    #[test]
    fn quit_closes_the_connection_before_the_next_accept_poll() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;
        use std::time::Instant;

        let svc = Arc::new(service(BatchConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flag = ShutdownFlag::new();
        let server = std::thread::spawn({
            let svc = Arc::clone(&svc);
            let flag = flag.clone();
            move || serve_tcp(&svc, listener, None, &flag).unwrap()
        });

        let mut waits = Vec::new();
        for i in 0..5 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            client
                .write_all(format!("EST e{i} SELECT * WHERE {{ ?x :hasAuthor :StephenKing . }}\n").as_bytes())
                .unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.starts_with(&format!("OK e{i} ")), "unexpected reply {reply:?}");
            let replied = Instant::now();
            client.write_all(b"QUIT\n").unwrap();
            let mut rest = String::new();
            assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF, read {rest:?}");
            waits.push(replied.elapsed());
        }
        flag.trigger();
        server.join().unwrap();
        waits.sort();
        assert!(
            waits[waits.len() / 2] < ACCEPT_POLL / 2,
            "reply → EOF waits {waits:?} track the {ACCEPT_POLL:?} accept poll"
        );
    }

    #[test]
    fn tcp_shutdown_drains_in_flight_sessions() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;

        // A slow estimator so the request is still in the batcher when
        // shutdown triggers — the reply must arrive anyway.
        struct SlowEstimator;
        impl lmkg::CardinalityEstimator for SlowEstimator {
            fn name(&self) -> &str {
                "slow"
            }
            fn estimate(&self, _q: &lmkg_store::Query) -> f64 {
                std::thread::sleep(std::time::Duration::from_millis(300));
                42.0
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }

        let mut b = GraphBuilder::new();
        b.add(":a", ":p", ":b");
        let graph = Arc::new(b.build());
        let svc = Arc::new(
            ServeBuilder::new()
                .batch(BatchConfig::default().per_request())
                .tenant(TenantSpec::new(
                    DEFAULT_TENANT,
                    Arc::clone(&graph),
                    Arc::new(SlowEstimator),
                ))
                .build()
                .unwrap(),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flag = ShutdownFlag::new();
        let server = std::thread::spawn({
            let svc = Arc::clone(&svc);
            let flag = flag.clone();
            move || serve_tcp(&svc, listener, None, &flag).unwrap()
        });

        // No QUIT: the session would block on the open connection forever
        // without the shutdown path closing its read half.
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"EST d1 SELECT * WHERE { ?x :p ?y . }\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100)); // request admitted, forward running
        flag.trigger();

        // The in-flight request drains: its reply is written before the
        // session closes, and the accept loop joins the session and returns.
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK d1 42 "), "in-flight reply must flush: {reply:?}");
        server.join().unwrap();
        assert_eq!(svc.stats().served, 1);
    }
}
