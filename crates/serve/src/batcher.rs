//! The micro-batcher: the piece that turns the batched inference contract
//! into a serving win.
//!
//! Requests enter a **bounded** admission queue (`try_send`; a full queue
//! sheds the request with a structured `OVERLOADED` reply instead of letting
//! latency grow without bound). Worker threads pull from the queue and
//! batch what is already waiting, never waiting for more: a worker blocks
//! for the first request, then takes whatever else is queued, without
//! blocking, until `max_batch` requests are in hand or the queue is empty.
//! The whole batch runs through **one** `estimate_batch` forward, which is
//! where the amortization comes from — one routing pass, one encode pass,
//! one network forward per covering model, instead of one of each per
//! request. Requests that arrive while a forward runs wait in the queue and
//! become the next batch, so batches grow with the backlog: a lone request
//! on an idle server is estimated at once, and a saturated server still
//! flushes full batches.
//!
//! With more than one worker, collection and estimation overlap **and**
//! estimation itself runs concurrently: estimation takes `&self` over a
//! frozen model, so every worker holds a clone of one
//! `Arc<dyn CardinalityEstimator + Send + Sync>` and runs its own
//! `estimate_batch` forward with no lock in between. The shared handle is a
//! [`ModelHandle`] — a swappable slot — so a retraining loop can publish a
//! new model atomically while traffic keeps flowing; workers pick it up at
//! their next batch. Per-query results are bitwise independent of the
//! worker count (the concurrency-parity suite enforces this).
//!
//! `BatchConfig::per_request()` degenerates the same machinery into
//! classical one-request-per-forward serving (batch 1, one worker).
//!
//! In a multi-tenant service every tenant owns one `MicroBatcher` — its own
//! queue, workers, stats, and model handle — so batches are keyed by
//! tenant *by construction*: a forward can never mix two tenants'
//! models, a tenant's queue depth is its admission quota (a tenant at quota
//! sheds its own requests without starving anyone else), and a retraining
//! loop swaps each tenant's handle independently.

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::latency::StatsSnapshot;
use crate::protocol::Reply;
use lmkg::{CardinalityEstimator, WorkloadMonitor};
use lmkg_obs::{Counter, EventLog, Gauge, Histogram, Level, ShardedHistogram, StageTimer};
use lmkg_store::Query;
// ORDERING (max 22): Relaxed serving counters (gauges and monotone totals), except
// note_retrain/snapshot use SeqCst so retrains>=1 implies the swapped model is visible
// (swap-before-counter, documented at note_retrain)
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Structured events kept in the recent-event ring for `METRICS`.
const EVENT_RING_CAPACITY: usize = 256;

/// Event kinds with dedicated counters: their `lmkg_events_total{kind=...}`
/// series render even before the first occurrence, so dashboards and smoke
/// tests can assert on them unconditionally.
pub const EVENT_KINDS: &[&str] = &[
    "shed",
    "swap",
    "retrain",
    "drift",
    "parse_error",
    "session",
    "shutdown",
    "evict",
    "save",
    "load",
];

/// The request pipeline stages measured by the batcher, in order: admission
/// wait (submit → picked up by a worker), batch assembly (first job in hand
/// → queue drained or batch full), forward (the batched `estimate_batch`
/// call), and reply delivery (forward done → every reply handed to its
/// session writer).
pub const STAGE_NAMES: [&str; 4] = ["admission", "batch", "forward", "reply"];

/// Micro-batching and admission-control knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The most requests one forward takes. A worker flushes when it holds
    /// this many or the queue is empty, whichever comes first.
    pub max_batch: usize,
    /// Bounded admission-queue depth; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Worker threads. More than one overlaps queue collection with
    /// estimation and runs forwards concurrently: every worker estimates
    /// through its own clone of the shared, frozen model, with no lock.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_depth: 1024,
            workers: 2,
        }
    }
}

impl BatchConfig {
    /// The per-request preset: no coalescing, one forward per request,
    /// **one** worker — classical serving, and the deterministic
    /// configuration tests use. A single worker is forced because workers
    /// estimate concurrently: N of them would run N single-query forwards
    /// at once, not one request per forward. Queue depth is kept.
    pub fn per_request(mut self) -> Self {
        self.max_batch = 1;
        self.workers = 1;
        self
    }
}

/// One admitted request: the parsed query plus everything needed to reply.
#[derive(Debug)]
pub struct Job {
    /// Reply-matching token from the request line.
    pub id: String,
    /// The parsed query.
    pub query: Query,
    /// Admission time; the latency reporter measures submit→reply.
    pub submitted: Instant,
    /// Where the reply goes (the session's writer channel).
    pub out: mpsc::Sender<Reply>,
}

impl Job {
    /// Stamps a new job with the current time.
    pub fn new(id: String, query: Query, out: mpsc::Sender<Reply>) -> Self {
        Self {
            id,
            query,
            submitted: Instant::now(),
            out,
        }
    }
}

/// Shared serving counters and the full observability surface: the
/// request-latency and stage histograms, session/byte/parse counters, the
/// queue-depth gauge, and the structured event ring.
#[derive(Debug)]
pub struct ServeStats {
    served: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    retrains: AtomicU64,
    models_added: AtomicU64,
    models_evicted: AtomicU64,
    snapshot_generation: AtomicU64,
    model_bytes: AtomicU64,
    // Last drift evaluation, stored as f64 bit patterns.
    drift_tv_bits: AtomicU64,
    drift_uncovered_bits: AtomicU64,
    started: Instant,
    pub(crate) parse_errors: Counter,
    pub(crate) sessions: Counter,
    pub(crate) sessions_active: Gauge,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) queue_len: Gauge,
    queue_capacity: AtomicU64,
    /// Submit-to-reply latency of every served request, microseconds,
    /// cumulative since start; one shard per worker. The one latency
    /// instrument: `STATS` percentiles and `lmkg_request_latency_us` both
    /// read its merged snapshot.
    pub(crate) request_us: ShardedHistogram,
    /// Stage latencies, indexed like [`STAGE_NAMES`]; one shard per worker.
    pub(crate) stages: [ShardedHistogram; 4],
    pub(crate) batch_size: ShardedHistogram,
    pub(crate) retrain_us: Histogram,
    events: EventLog,
}

impl ServeStats {
    fn new(workers: usize) -> Self {
        Self {
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            models_added: AtomicU64::new(0),
            models_evicted: AtomicU64::new(0),
            snapshot_generation: AtomicU64::new(0),
            model_bytes: AtomicU64::new(0),
            drift_tv_bits: AtomicU64::new(0.0f64.to_bits()),
            drift_uncovered_bits: AtomicU64::new(0.0f64.to_bits()),
            started: Instant::now(),
            parse_errors: Counter::new(),
            sessions: Counter::new(),
            sessions_active: Gauge::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            queue_len: Gauge::new(),
            queue_capacity: AtomicU64::new(0),
            request_us: ShardedHistogram::new(workers),
            stages: [
                ShardedHistogram::new(workers),
                ShardedHistogram::new(workers),
                ShardedHistogram::new(workers),
                ShardedHistogram::new(workers),
            ],
            batch_size: ShardedHistogram::new(workers),
            retrain_us: Histogram::new(),
            events: EventLog::new(EVENT_RING_CAPACITY, EVENT_KINDS),
        }
    }

    /// Seconds since these stats were created (server start).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Record a structured event: counted by kind and level, kept in the
    /// recent-event ring for `METRICS`, and echoed to stderr when the
    /// `LMKG_LOG` filter admits `level`.
    pub fn event(&self, level: Level, kind: &'static str, message: String) {
        self.events.log(level, kind, message);
    }

    /// The structured event ring.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Counts one protocol parse error and records it as a `parse_error`
    /// event carrying the offending detail.
    pub fn note_parse_error(&self, detail: &str) {
        self.parse_errors.inc();
        self.event(Level::Warn, "parse_error", format!("parse error: {detail}"));
    }

    /// Counts a session opening (total + active gauge).
    pub fn note_session_start(&self) {
        self.sessions.inc();
        self.sessions_active.inc();
    }

    /// Counts a session closing.
    pub fn note_session_end(&self) {
        self.sessions_active.dec();
    }

    /// Records the duration of one adapter retrain cycle.
    pub fn note_retrain_duration(&self, duration: Duration) {
        self.retrain_us.record(duration.as_secs_f64() * 1e6);
    }

    /// The configured admission-queue capacity (0 until a batcher starts).
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity.load(Ordering::Relaxed)
    }

    /// Current admission-queue depth. Transiently high by the jobs between
    /// `submit`'s increment and its send, or between a worker's dequeue and
    /// its decrement — a gauge, not an invariant — but never negative: a job
    /// is counted before a worker can see it.
    pub fn queue_len(&self) -> i64 {
        self.queue_len.get()
    }

    /// Counts one shed request.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the memory footprint of the currently published model. The
    /// batcher sets it at startup; the lifecycle's publish routine, the one
    /// caller of [`ModelHandle::swap`], refreshes it alongside every swap.
    pub fn note_model_bytes(&self, bytes: u64) {
        self.model_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records the adapter's latest drift evaluation.
    pub fn note_drift(&self, tv: f64, uncovered: f64) {
        self.drift_tv_bits.store(tv.to_bits(), Ordering::Relaxed);
        self.drift_uncovered_bits.store(uncovered.to_bits(), Ordering::Relaxed);
    }

    /// Counts one retrain event that added `added` models.
    ///
    /// `SeqCst` on purpose: the adapter publishes the extended model
    /// (`ModelHandle::swap`) *before* calling this, so any thread that reads
    /// `retrains >= 1` from a snapshot is guaranteed that batches it submits
    /// afterwards resolve the new model.
    pub fn note_retrain(&self, added: usize) {
        self.models_added.fetch_add(added as u64, Ordering::SeqCst);
        self.retrains.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts models dropped by a budget-eviction pass. Relaxed is enough:
    /// the evicted set is published through `ModelHandle::swap` first, and
    /// nothing orders itself on this counter.
    pub fn note_evicted(&self, dropped: usize) {
        self.models_evicted.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Records the generation of the snapshot most recently published to
    /// (or cold-started from) the tenant's model store.
    pub fn note_generation(&self, generation: u64) {
        self.snapshot_generation.store(generation, Ordering::Relaxed);
    }

    fn note_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// A point-in-time summary (counters + since-start latency percentiles).
    pub fn snapshot(&self) -> StatsSnapshot {
        let latency = self.request_us.snapshot();
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            retrains: self.retrains.load(Ordering::SeqCst),
            models_added: self.models_added.load(Ordering::SeqCst),
            evicted: self.models_evicted.load(Ordering::Relaxed),
            generation: self.snapshot_generation.load(Ordering::Relaxed),
            model_bytes: self.model_bytes.load(Ordering::Relaxed),
            drift_tv: f64::from_bits(self.drift_tv_bits.load(Ordering::Relaxed)),
            drift_uncovered: f64::from_bits(self.drift_uncovered_bits.load(Ordering::Relaxed)),
            p50_us: latency.percentile(50.0),
            p95_us: latency.percentile(95.0),
            p99_us: latency.percentile(99.0),
        }
    }
}

/// The form every served model takes: frozen, `&self`-estimating, shareable.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// The workload monitor the batcher feeds and the adapter thread reads —
/// the observation half of the workload-shift loop (paper §IV, Model
/// choice). Admission pushes one `(shape, size)` cell under this mutex
/// (O(1), never held across a forward); the adapter locks it once per tick
/// to pull a drift report.
pub type SharedMonitor = Arc<Mutex<WorkloadMonitor>>;

/// The swappable model slot all workers read from.
///
/// `current()` is a read-lock plus an `Arc` clone — effectively free next to
/// a network forward, and never held across one. `swap()` atomically
/// publishes a replacement model: in-flight batches finish on the model they
/// already cloned, subsequent batches see the new one. This is the seam the
/// workload-shift retraining loop plugs into — train off to the side, then
/// `swap` under live traffic.
pub struct ModelHandle {
    slot: RwLock<SharedEstimator>,
}

impl ModelHandle {
    /// Wraps an estimator in a swappable slot.
    pub fn new(estimator: SharedEstimator) -> Self {
        Self {
            slot: RwLock::new(estimator),
        }
    }

    /// The currently published model.
    ///
    /// Poisoned-lock recovery on both accessors: the slot holds a bare
    /// `Arc` that is replaced in one assignment, so it is never torn —
    /// if an adapter thread panics mid-swap the slot still holds a whole
    /// model, and serving must keep estimating rather than propagate the
    /// panic into every worker.
    pub fn current(&self) -> SharedEstimator {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically publishes `estimator`, returning the model it replaced.
    pub fn swap(&self, estimator: SharedEstimator) -> SharedEstimator {
        std::mem::replace(
            &mut *self.slot.write().unwrap_or_else(PoisonError::into_inner),
            estimator,
        )
    }
}

/// The micro-batcher: bounded queue + coalescing worker threads over one
/// shared, swappable estimator. Dropping it (or calling
/// [`MicroBatcher::shutdown`]) closes the queue and joins the workers after
/// they drain it.
pub struct MicroBatcher {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    handle: Arc<ModelHandle>,
    stats: Arc<ServeStats>,
    monitor: Option<SharedMonitor>,
    queue_depth: usize,
}

impl MicroBatcher {
    /// Spawns the worker threads and returns the running batcher. With a
    /// `monitor`, every *admitted* query is also recorded into it — shed
    /// requests are not, since they were never served and retraining for a
    /// workload the queue rejects would chase load, not drift.
    pub fn start(estimator: SharedEstimator, cfg: BatchConfig, monitor: Option<SharedMonitor>) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_depth >= 1, "queue_depth must be at least 1");
        assert!(cfg.workers >= 1, "at least one worker is required");
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let stats = Arc::new(ServeStats::new(cfg.workers));
        stats.note_model_bytes(estimator.memory_bytes() as u64);
        stats.queue_capacity.store(cfg.queue_depth as u64, Ordering::Relaxed);
        let handle = Arc::new(ModelHandle::new(estimator));
        #[expect(
            clippy::expect_used,
            reason = "startup-only: a process that cannot spawn its worker pool cannot serve at all, so failing construction loudly is correct"
        )]
        let workers = (0..cfg.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handle = Arc::clone(&handle);
                let stats = Arc::clone(&stats);
                let max_batch = cfg.max_batch;
                std::thread::Builder::new()
                    .name(format!("lmkg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &handle, &stats, max_batch, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
            handle,
            stats,
            monitor,
            queue_depth: cfg.queue_depth,
        }
    }

    /// Admits a job, or sheds it when the bounded queue is full. The shed
    /// job is handed back so the caller can send the `OVERLOADED` reply.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        // `tx` is only `None` mid-shutdown, and `shutdown` consumes the
        // batcher — so this arm is unreachable today. Shed instead of
        // panicking so a future shared-ownership refactor degrades to an
        // `OVERLOADED` reply, not a crashed session.
        let Some(tx) = self.tx.as_ref() else {
            self.stats.note_shed();
            return Err(job);
        };
        // Classify before the job moves into the queue; only admitted
        // queries are observed.
        let cell = self.monitor.as_ref().map(|_| (job.query.shape(), job.query.size()));
        // Count the job before a worker can dequeue (and decrement) it.
        self.stats.queue_len.inc();
        match tx.try_send(job) {
            Ok(()) => {
                if let (Some(monitor), Some(cell)) = (&self.monitor, cell) {
                    // Counter increments can't tear; a panicked observer
                    // must not stop drift tracking for good.
                    monitor
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .observe_cell(cell);
                }
                Ok(())
            }
            Err(TrySendError::Full(job)) => {
                self.stats.queue_len.dec();
                self.stats.note_shed();
                self.stats.event(
                    Level::Debug,
                    "shed",
                    format!("shed: request {} rejected, queue full at {}", job.id, self.queue_depth),
                );
                Err(job)
            }
            // Workers only exit once the queue closes, so this arm is
            // unreachable while `tx` is alive; treat it like a shed anyway.
            Err(TrySendError::Disconnected(job)) => {
                self.stats.queue_len.dec();
                self.stats.note_shed();
                Err(job)
            }
        }
    }

    /// The configured admission-queue depth (reported in `OVERLOADED`).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The shared serving statistics.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// The swappable model slot (for live model publication).
    pub fn model(&self) -> Arc<ModelHandle> {
        Arc::clone(&self.handle)
    }

    /// Closes the queue, drains it, joins the workers, and hands the
    /// estimator back — so a caller can run several serving configurations
    /// over one (expensively trained) model.
    pub fn shutdown(mut self) -> SharedEstimator {
        self.finish();
        self.handle.current()
    }

    fn finish(&mut self) {
        if self.tx.take().is_some() {
            // Queue closed; workers drain and exit.
            let snapshot = self.stats.snapshot();
            self.stats.event(
                Level::Info,
                "shutdown",
                format!(
                    "shutdown: batcher draining, served={} shed={}",
                    snapshot.served, snapshot.shed
                ),
            );
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.finish();
    }
}

/// One worker: wait for a job, take what else is queued (up to
/// `max_batch`), run one batched forward, reply per job. Returns when the
/// queue closes and drains.
///
/// The worker also laps a [`lmkg_obs::StageTimer`] breakdown into its own
/// histogram shards: each job's admission wait on dequeue, then batch
/// assembly / forward / reply delivery per batch. The four laps tile the
/// request's life, so `admission + batch + forward + reply` ≈ the
/// end-to-end latency the reply reports.
fn worker_loop(rx: &Mutex<Receiver<Job>>, handle: &ModelHandle, stats: &ServeStats, max_batch: usize, worker: usize) {
    let admission = stats.stages[0].shard(worker);
    let assembly = stats.stages[1].shard(worker);
    let forward = stats.stages[2].shard(worker);
    let reply = stats.stages[3].shard(worker);
    let batch_size = stats.batch_size.shard(worker);
    let request_us = stats.request_us.shard(worker);
    let take = |batch: &mut Vec<Job>, job: Job| {
        admission.record(job.submitted.elapsed().as_secs_f64() * 1e6);
        stats.queue_len.dec();
        batch.push(job);
    };
    loop {
        let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
        let mut timer;
        {
            // Hold the queue while collecting so one worker owns the open
            // batch; estimation below happens outside this lock, which is
            // what lets another worker collect meanwhile.
            // If a sibling worker panicked while holding the queue, the
            // channel itself is still intact — keep draining it instead
            // of cascading the panic through every worker.
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            let Ok(job) = rx.recv() else {
                return; // queue closed and empty
            };
            take(&mut batch, job);
            timer = StageTimer::start();
            // Take only what is already queued: an empty queue (or a closed
            // one) flushes the batch in hand rather than waiting for more.
            while batch.len() < max_batch {
                let Ok(job) = rx.try_recv() else { break };
                take(&mut batch, job);
            }
        }

        // Batch assembly ends here; its lap started at the first job's
        // dequeue, so it is the cost of draining the queue, never a wait.
        timer.lap(assembly);
        batch_size.record(batch.len() as f64);

        // The jobs own their queries: split them out instead of cloning on
        // the hot path (a Query is a heap-backed Vec of triples).
        type JobMeta = (String, Instant, mpsc::Sender<Reply>);
        let (metas, queries): (Vec<JobMeta>, Vec<Query>) = batch
            .into_iter()
            .map(|job| ((job.id, job.submitted, job.out), job.query))
            .unzip();
        // Clone the current model handle and run the forward on it with no
        // lock held: workers estimate concurrently, and a model swapped in
        // mid-collection is picked up at the next batch.
        let estimator = handle.current();
        let estimates = estimator.estimate_batch(&queries);
        debug_assert_eq!(estimates.len(), queries.len());
        timer.lap(forward);
        stats.note_batch(queries.len());
        for ((id, submitted, out), estimate) in metas.into_iter().zip(estimates) {
            let micros = submitted.elapsed().as_secs_f64() * 1e6;
            request_us.record(micros);
            // A dead session (client hung up) is not an error for the server.
            let _ = out.send(Reply::Estimate { id, estimate, micros });
        }
        timer.lap(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{NodeTerm, PredTerm, TriplePattern, VarId};
    use std::collections::HashMap;
    use std::sync::mpsc::channel;

    /// A deterministic estimator that records every batch size it sees and
    /// optionally sleeps per forward (to simulate model latency). Also
    /// tracks how many forwards are in flight at once, to prove workers
    /// really estimate concurrently now that the estimator lock is gone.
    struct RecordingEstimator {
        batches: Arc<Mutex<Vec<usize>>>,
        delay: Duration,
        in_flight: std::sync::atomic::AtomicUsize,
        max_in_flight: std::sync::atomic::AtomicUsize,
    }

    impl CardinalityEstimator for RecordingEstimator {
        fn name(&self) -> &str {
            "recording"
        }

        fn estimate(&self, query: &Query) -> f64 {
            (query.size() * 10 + query.var_count()) as f64
        }

        fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            self.batches.lock().unwrap().push(queries.len());
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            queries.iter().map(|q| (q.size() * 10 + q.var_count()) as f64).collect()
        }

        fn memory_bytes(&self) -> usize {
            0
        }
    }

    fn query(size: usize) -> Query {
        Query::new(
            (0..size)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(lmkg_store::PredId(i as u32)),
                        NodeTerm::Var(VarId(1 + i as u16)),
                    )
                })
                .collect(),
        )
    }

    /// A job is counted before a worker can dequeue it, so no sample of the
    /// queue-depth gauge, from any thread, may read below zero.
    fn assert_queue_gauge_not_negative(stats: &ServeStats) {
        assert!(stats.queue_len() >= 0, "queue-depth gauge went negative");
    }

    fn recording(delay: Duration) -> (Arc<RecordingEstimator>, Arc<Mutex<Vec<usize>>>) {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let est = RecordingEstimator {
            batches: Arc::clone(&batches),
            delay,
            in_flight: std::sync::atomic::AtomicUsize::new(0),
            max_in_flight: std::sync::atomic::AtomicUsize::new(0),
        };
        (Arc::new(est), batches)
    }

    /// Blocks until `est` is inside a forward: with one worker, every job
    /// submitted from then on queues behind that forward.
    fn wait_for_forward(est: &RecordingEstimator) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while est.in_flight.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the forward never started");
            std::thread::yield_now();
        }
    }

    #[test]
    fn jobs_queued_during_a_forward_form_the_next_batch() {
        // 100 ms per forward, one worker. The first job is flushed alone —
        // nothing else is queued — and the five that arrive while its
        // forward runs are taken together as soon as the worker is free.
        let (est, batches) = recording(Duration::from_millis(100));
        let probe = Arc::clone(&est);
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 8,
                queue_depth: 16,
                workers: 1,
            },
            None,
        );
        let (tx, rx) = channel();
        batcher.submit(Job::new("first".into(), query(1), tx.clone())).unwrap();
        wait_for_forward(&probe);
        for i in 0..5 {
            batcher.submit(Job::new(format!("q{i}"), query(1), tx.clone())).unwrap();
        }
        for _ in 0..6 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(*batches.lock().unwrap(), vec![1, 5]);
        let snapshot = batcher.stats().snapshot();
        assert_eq!(snapshot.served, 6);
        assert_eq!(snapshot.batches, 2);
    }

    #[test]
    fn flush_on_full_does_not_wait_for_the_window() {
        // 100 ms per forward, one worker, batches capped at 2. Four jobs
        // queued behind the first one's forward must flow as [1, 2, 2]:
        // the backlog is cut at `max_batch`, and the rest waits its turn.
        let (est, batches) = recording(Duration::from_millis(100));
        let probe = Arc::clone(&est);
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 2,
                queue_depth: 16,
                workers: 1,
            },
            None,
        );
        let (tx, rx) = channel();
        batcher.submit(Job::new("first".into(), query(1), tx.clone())).unwrap();
        wait_for_forward(&probe);
        for i in 0..4 {
            batcher.submit(Job::new(format!("q{i}"), query(1), tx.clone())).unwrap();
        }
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(*batches.lock().unwrap(), vec![1, 2, 2]);
        let snapshot = batcher.stats().snapshot();
        assert_eq!(snapshot.served, 5);
        assert_eq!(snapshot.batches, 3);
    }

    #[test]
    fn a_lone_request_is_flushed_at_once() {
        // Nothing else is queued, so batch assembly ends with the first
        // job: no timer holds the batch open for arrivals that never come.
        let (est, batches) = recording(Duration::ZERO);
        let batcher = MicroBatcher::start(est, BatchConfig::default(), None);
        let (tx, rx) = channel();
        batcher.submit(Job::new("lone".into(), query(1), tx)).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(*batches.lock().unwrap(), vec![1]);
        let assembly = batcher.stats().stages[1].snapshot();
        assert_eq!(assembly.count, 1);
        let max_us = assembly.percentile(100.0);
        assert!(max_us < 50_000.0, "batch assembly took {max_us} us");
    }

    #[test]
    fn overflow_sheds_with_the_job_handed_back() {
        // One slow worker in per-request mode and a queue of 2: job 1 is in
        // service, jobs 2–3 fill the queue, job 4 must shed.
        let (est, _batches) = recording(Duration::from_millis(300));
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 1,
                queue_depth: 2,
                workers: 1,
            },
            None,
        );
        let (tx, rx) = channel();
        batcher
            .submit(Job::new("serving".into(), query(1), tx.clone()))
            .unwrap();
        std::thread::sleep(Duration::from_millis(100)); // worker now inside the forward
        batcher
            .submit(Job::new("queued1".into(), query(1), tx.clone()))
            .unwrap();
        batcher
            .submit(Job::new("queued2".into(), query(1), tx.clone()))
            .unwrap();
        let shed = batcher
            .submit(Job::new("shed-me".into(), query(1), tx.clone()))
            .expect_err("queue of 2 must shed the fourth concurrent job");
        assert_eq!(shed.id, "shed-me");
        assert!(batcher.stats().snapshot().shed >= 1);
        // The admitted jobs all still complete.
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(batcher.stats().snapshot().served, 3);
    }

    #[test]
    fn batched_replies_match_direct_estimate_batch() {
        let queries: Vec<Query> = (1..=20).map(|i| query(1 + i % 4)).collect();
        let (direct, _) = recording(Duration::ZERO);
        let expected = direct.estimate_batch(&queries);

        let (est, _) = recording(Duration::ZERO);
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 8,
                queue_depth: 64,
                workers: 2,
            },
            None,
        );
        let (tx, rx) = channel();
        for (i, q) in queries.iter().enumerate() {
            batcher
                .submit(Job::new(format!("q{i}"), q.clone(), tx.clone()))
                .unwrap();
        }
        let mut got = vec![f64::NAN; queries.len()];
        for _ in 0..queries.len() {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Reply::Estimate { id, estimate, .. } => {
                    let i: usize = id.strip_prefix('q').unwrap().parse().unwrap();
                    got[i] = estimate;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(
            got.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shutdown_returns_the_estimator() {
        let (est, batches) = recording(Duration::ZERO);
        let batcher = MicroBatcher::start(est, BatchConfig::default().per_request(), None);
        let (tx, rx) = channel();
        batcher.submit(Job::new("q".into(), query(2), tx)).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let est = batcher.shutdown();
        assert_eq!(est.name(), "recording");
        // Still usable directly, and the serving pass recorded its batch.
        // query(2) = 2 triples over 3 distinct variables → 2*10 + 3.
        assert_eq!(est.estimate(&query(2)), 23.0);
        assert_eq!(*batches.lock().unwrap(), vec![1]);
    }

    /// With the estimator lock gone, two workers must be able to sit inside
    /// `estimate_batch` at the same time.
    #[test]
    fn workers_run_forwards_concurrently() {
        let (est, _) = recording(Duration::from_millis(250));
        let probe = Arc::clone(&est);
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 1,
                queue_depth: 16,
                workers: 2,
            },
            None,
        );
        let (tx, rx) = channel();
        let stats = batcher.stats();
        for i in 0..4 {
            batcher.submit(Job::new(format!("q{i}"), query(1), tx.clone())).unwrap();
            assert_queue_gauge_not_negative(&stats);
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_queue_gauge_not_negative(&stats);
        }
        assert!(
            probe.max_in_flight.load(Ordering::SeqCst) >= 2,
            "two workers never overlapped inside estimate_batch"
        );
    }

    /// A deterministic stand-in "retrained" model for the swap test.
    struct ConstantEstimator(f64);

    impl CardinalityEstimator for ConstantEstimator {
        fn name(&self) -> &str {
            "constant"
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }

        fn memory_bytes(&self) -> usize {
            8
        }
    }

    /// Publishing a new model through the handle redirects subsequent
    /// batches without restarting the batcher — the retraining-loop seam.
    #[test]
    fn swap_model_takes_effect_for_subsequent_batches() {
        let (est, _) = recording(Duration::ZERO);
        let batcher = MicroBatcher::start(est, BatchConfig::default().per_request(), None);
        let (tx, rx) = channel();
        batcher.submit(Job::new("before".into(), query(2), tx.clone())).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Estimate { estimate, .. } => assert_eq!(estimate, 23.0),
            other => panic!("unexpected reply {other:?}"),
        }

        let old = batcher.model().swap(Arc::new(ConstantEstimator(77.0)));
        assert_eq!(old.name(), "recording");
        batcher.submit(Job::new("after".into(), query(2), tx.clone())).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Estimate { estimate, .. } => assert_eq!(estimate, 77.0),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(batcher.shutdown().name(), "constant");
    }

    /// A swappable snapshot stand-in whose replies encode *which forward*
    /// produced them: each `estimate_batch` call returns `tag + calls/1024`
    /// for every query in the batch and logs `(value, batch size)`. Replies
    /// from one forward therefore all carry one unique value, and a worker
    /// that resolved `current()` more than once per batch (a torn batch)
    /// would produce a reply multiset inconsistent with the log.
    struct SnapshotEstimator {
        tag: f64,
        calls: AtomicU64,
        log: Arc<Mutex<Vec<(u64, usize)>>>,
    }

    impl SnapshotEstimator {
        fn new(tag: f64, log: Arc<Mutex<Vec<(u64, usize)>>>) -> Self {
            Self {
                tag,
                calls: AtomicU64::new(0),
                log,
            }
        }
    }

    impl CardinalityEstimator for SnapshotEstimator {
        fn name(&self) -> &str {
            "snapshot"
        }

        #[allow(clippy::unreachable, reason = "test stub; clippy has no allow-unreachable-in-tests")]
        fn estimate(&self, _query: &Query) -> f64 {
            unreachable!("batched path only")
        }

        fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            let value = self.tag + call as f64 / 1024.0;
            self.log.lock().unwrap().push((value.to_bits(), queries.len()));
            vec![value; queries.len()]
        }

        fn memory_bytes(&self) -> usize {
            0
        }
    }

    /// Spamming `ModelHandle::swap` while workers serve a continuous stream
    /// must never tear a batch: every reply batch is consistent with exactly
    /// one model snapshot (each worker resolves `current()` once per batch),
    /// and no reply is dropped.
    #[test]
    fn swap_spam_never_tears_a_batch() {
        const JOBS: usize = 600;
        const SWAPS: usize = 200;

        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let batcher = MicroBatcher::start(
            Arc::new(SnapshotEstimator::new(0.0, Arc::clone(&log))),
            BatchConfig {
                max_batch: 8,
                queue_depth: JOBS,
                workers: 3,
            },
            None,
        );

        // Swapper: publish a fresh snapshot (tags 1000, 2000, …) as fast as
        // the workers can batch, while the submitter keeps the queue fed. It
        // also samples the queue-depth gauge from outside the submitter and
        // the workers, where a count-after-send race would be visible.
        let handle = batcher.model();
        let stats = batcher.stats();
        let swapper = {
            let log = Arc::clone(&log);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                for i in 1..=SWAPS {
                    handle.swap(Arc::new(SnapshotEstimator::new((i * 1000) as f64, Arc::clone(&log))));
                    assert_queue_gauge_not_negative(&stats);
                    std::thread::yield_now();
                }
            })
        };

        let (tx, rx) = channel();
        for i in 0..JOBS {
            batcher
                .submit(Job::new(format!("q{i}"), query(1 + i % 3), tx.clone()))
                .unwrap();
            assert_queue_gauge_not_negative(&stats);
        }
        let mut reply_counts: HashMap<u64, usize> = HashMap::new();
        for _ in 0..JOBS {
            match rx
                .recv_timeout(Duration::from_secs(30))
                .expect("no reply dropped during swaps")
            {
                Reply::Estimate { estimate, .. } => *reply_counts.entry(estimate.to_bits()).or_insert(0) += 1,
                other => panic!("unexpected reply {other:?}"),
            }
            assert_queue_gauge_not_negative(&stats);
        }
        swapper.join().unwrap();
        drop(batcher); // workers drain; the log is complete

        // Every reply value identifies one logged forward, and the number of
        // replies carrying it equals that forward's batch size — i.e. each
        // reply batch came from exactly one snapshot, uncut.
        let mut logged: HashMap<u64, usize> = HashMap::new();
        for &(value, size) in log.lock().unwrap().iter() {
            *logged.entry(value).or_insert(0) += size;
        }
        for (&value, &replies) in &reply_counts {
            assert_eq!(
                logged.get(&value),
                Some(&replies),
                "torn batch: value {} answered {replies} replies but the forward(s) served {:?}",
                f64::from_bits(value),
                logged.get(&value),
            );
        }
        assert_eq!(reply_counts.values().sum::<usize>(), JOBS);
    }

    /// Admitted queries land in the shared monitor; shed ones do not.
    #[test]
    fn admission_observes_into_the_monitor() {
        use lmkg::WorkloadMonitor;
        use lmkg_store::QueryShape;

        let monitor: SharedMonitor = Arc::new(Mutex::new(WorkloadMonitor::new(64, &[(QueryShape::Star, 2)])));
        let (est, _) = recording(Duration::from_millis(150));
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 1,
                queue_depth: 1,
                workers: 1,
            },
            Some(Arc::clone(&monitor)),
        );
        let (tx, rx) = channel();
        batcher.submit(Job::new("a".into(), query(2), tx.clone())).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // worker inside the forward
        batcher.submit(Job::new("b".into(), query(4), tx.clone())).unwrap();
        // Queue (depth 1) is now full; this one sheds and must not count.
        let _ = batcher
            .submit(Job::new("shed".into(), query(5), tx.clone()))
            .expect_err("third concurrent job must shed");
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let m = monitor.lock().unwrap();
        assert_eq!(m.observed(), 2, "two admitted, one shed");
        let report = m.report(|_| true);
        let cells: Vec<_> = report.dominant_cells.iter().map(|&(c, _)| c).collect();
        assert!(cells.contains(&(QueryShape::Star, 2)) && cells.contains(&(QueryShape::Star, 4)));
        assert!(!cells.contains(&(QueryShape::Star, 5)), "shed query observed");
    }

    /// One latency instrument: the `STATS` percentiles and the scraped
    /// `lmkg_request_latency_us` family are two views of the same per-worker
    /// histogram, and every served request is in it.
    #[test]
    fn stats_percentiles_are_the_scraped_latency_histogram() {
        const JOBS: u64 = 9;
        let delay = Duration::from_millis(20);
        let (est, _) = recording(delay);
        let batcher = MicroBatcher::start(
            est,
            BatchConfig {
                max_batch: 2,
                queue_depth: 16,
                workers: 2,
            },
            None,
        );
        let (tx, rx) = channel();
        for i in 0..JOBS {
            batcher.submit(Job::new(format!("q{i}"), query(1), tx.clone())).unwrap();
        }
        for _ in 0..JOBS {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = batcher.stats();
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.served, JOBS);

        let text = crate::expose::render_metrics(&stats);
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("lmkg_request_latency_us_count "))
            .expect("family scraped")
            .parse()
            .unwrap();
        assert_eq!(count, snapshot.served);
        // Nearest-rank p50 over the scraped cumulative buckets.
        let p50 = text
            .lines()
            .filter_map(|l| l.strip_prefix("lmkg_request_latency_us_bucket{le=\""))
            .filter_map(|l| l.split_once("\"} "))
            .find(|(_, cumulative)| cumulative.parse::<u64>().unwrap() >= count.div_ceil(2))
            .map(|(le, _)| le.parse::<f64>().unwrap())
            .expect("a bucket holds the median");
        assert_eq!(p50, snapshot.p50_us);
        assert!(
            p50 >= delay.as_secs_f64() * 1e6,
            "p50 {p50}us below the forward's {delay:?}"
        );
        assert!(snapshot.p50_us <= snapshot.p95_us && snapshot.p95_us <= snapshot.p99_us);
    }

    #[test]
    fn per_request_config_disables_coalescing_and_concurrency() {
        let cfg = BatchConfig::default().per_request();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_depth, BatchConfig::default().queue_depth);
    }
}
