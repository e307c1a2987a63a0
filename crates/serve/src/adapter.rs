//! The model lifecycle: how a model set comes to be served, and how it keeps
//! up with the workload afterwards.
//!
//! The paper's execution phase (§IV, Model choice) is a lifecycle, not one
//! training run: "If a change in the workload of queries is detected during
//! the execution phase, a new model may be created", and an unused one
//! dropped. This module owns that lifecycle for every LMKG-backed tenant, in
//! one path: **obtain** a model set → **fit** the memory budget → **persist**
//! → **publish** (swap + accounting).
//!
//! * A tenant is described once, as an [`LmkgTenant`]. Its base set comes from
//!   [`LmkgTenant::load_or_train`] — the newest generation of the tenant's
//!   [`ModelStore`] when one exists (a *cold start*: no training), else
//!   `Lmkg::build` — or from the caller ([`LmkgTenant::new`]); the typed
//!   [`Origin`] says which.
//! * [`ServeBuilder::build_adaptive`](crate::server::ServeBuilder::build_adaptive)
//!   starts the tenant's batcher on the base and runs **tick zero**,
//!   synchronously, before the service is handed back: the budget is enforced
//!   (the monitor is cold, so usage is empty and eviction is size-ordered)
//!   and whatever is not on disk yet — a freshly trained set, or a loaded one
//!   that just lost a model — is persisted as a new generation.
//! * With an [`AdapterConfig`], one background thread then runs the very same
//!   stages for every tenant on every later tick, with a drift-driven retrain
//!   in front of them:
//!
//!   1. the batcher records every admitted query's `(shape, size)` cell into
//!      the tenant's [`SharedMonitor`], which the builder creates (window
//!      from the config, baseline cells from the tenant's `build_cfg`);
//!   2. each [`AdapterConfig::interval`] the thread pulls a
//!      [`DriftReport`](lmkg::DriftReport) and records it in the serving
//!      stats (`STATS … tv=… uncovered=…`);
//!   3. when `should_retrain` fires, it trains models for the dominant
//!      *uncovered* cells via [`Lmkg::extend`] — existing entries are reused
//!      by reference, only the missing cells train, on scoped threads — while
//!      the workers keep serving the old snapshot;
//!   4. the new set is published: frozen at the tenant's quant mode if it has
//!      one (`Lmkg::extend` trains f32), swapped in through
//!      [`ModelHandle::swap`] — in-flight batches finish on the model they
//!      already resolved, the next batch sees the new one; no request is
//!      dropped, no batch is torn — and accounted in `STATS model=`;
//!   5. budget, then persist, exactly as at tick zero (now with the monitor's
//!      live counts: least workload share goes first, observed cells are
//!      pinned).
//!
//! One thread serves *all* tenants: each tick walks the tenant list and swaps
//! each tenant's [`ModelHandle`] independently — retraining tenant A never
//! pauses serving (or adaptation bookkeeping) for tenant B, because the
//! workers never block on the adapter in the first place. Training happens on
//! the adapter thread (plus the scoped training threads `Lmkg::extend`
//! spawns), never on a worker — the estimation path stays lock-free and
//! swap latency is one `RwLock` write for the pointer, not the training time.

use crate::batcher::{BatchConfig, MicroBatcher, ModelHandle, ServeStats, SharedEstimator, SharedMonitor};
use crate::protocol::DEFAULT_TENANT;
use lmkg::framework::{trainable_cell, Lmkg, LmkgConfig, ModelType};
use lmkg::{CardinalityEstimator, Cell, QuantMode, WorkloadMonitor};
use lmkg_modelstore::{ModelStore, StoreError};
use lmkg_obs::Level;
use lmkg_store::KnowledgeGraph;
use std::collections::HashSet;
use std::path::Path;
// ORDERING (max 4): SeqCst stop flag: trainer loop exit must observe the store from stop() before
// the joining thread waits, across the sleep/poll loop
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the adaptation loop.
#[derive(Debug, Clone)]
pub struct AdapterConfig {
    /// How often the adapter evaluates drift.
    pub interval: Duration,
    /// Sliding-window size of the workload monitor (observed queries).
    pub window: usize,
    /// Minimum observed queries before drift is evaluated at all — a cold
    /// window says nothing about the workload.
    pub min_observed: usize,
    /// Total-variation threshold of `DriftReport::should_retrain`.
    pub tv_threshold: f64,
    /// Uncovered-share threshold of `DriftReport::should_retrain`.
    pub uncovered_threshold: f64,
    /// Hard cap on the total model count; cells beyond it are not trained.
    pub max_models: usize,
    /// At most this many new models per retrain event, taken from the head
    /// of `dominant_cells` — the rest wait for the next tick, so one burst
    /// of exotic queries cannot monopolize the adapter.
    pub max_new_per_cycle: usize,
}

impl Default for AdapterConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            window: 512,
            min_observed: 64,
            tv_threshold: 0.3,
            uncovered_threshold: 0.2,
            max_models: 32,
            max_new_per_cycle: 4,
        }
    }
}

/// How a tenant's base model set came to be — what tick zero needs to know to
/// apply the persistence rule ("whatever is not on disk yet is persisted").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Trained in this process (or handed in by the caller): no generation of
    /// the tenant's store holds it yet.
    Trained,
    /// Loaded from the tenant's store without training: `generation` is the
    /// on-disk generation it is.
    ColdStarted {
        /// The generation the set was loaded from.
        generation: u64,
    },
}

/// One LMKG-backed tenant, described once. [`ServeBuilder::lmkg_tenant`]
/// takes it; the builder serves `base` under `name`, and the lifecycle in
/// this module (tick zero at build time, the adapter thread afterwards)
/// reads everything else.
///
/// [`ServeBuilder::lmkg_tenant`]: crate::server::ServeBuilder::lmkg_tenant
pub struct LmkgTenant {
    /// The namespace token requests address this tenant by (it also drives
    /// the event prefix: the `default` tenant logs plain `adapter:` lines,
    /// others `adapter[name]:`).
    pub name: String,
    /// The tenant's graph: queries resolve against it, extension models
    /// train on it.
    pub graph: Arc<KnowledgeGraph>,
    /// The model set serving starts from.
    pub base: Arc<Lmkg>,
    /// Whether `base` is already a generation of `store`.
    pub origin: Origin,
    /// The configuration extension models train with (the hyperparameters
    /// `base` was built with).
    pub build_cfg: LmkgConfig,
    /// Where every published set that differs from the newest on-disk
    /// generation is persisted, so a restart cold-starts from the adapted
    /// state. `None` disables persistence.
    pub store: Option<ModelStore>,
    /// Upper bound on the served set's `total_memory_bytes`: at tick zero
    /// and on every adapter tick, least-used covered cells are evicted until
    /// the set fits (see [`Lmkg::evict_to_budget`]). `None` disables eviction.
    pub memory_budget: Option<usize>,
    /// The weight store `base` is frozen at, if any. Every set published
    /// later is frozen the same way, so a retrain never mixes precisions.
    pub quantized: Option<QuantMode>,
    /// Admission quota, as [`TenantSpec::quota`](crate::server::TenantSpec::quota).
    pub quota: Option<usize>,
}

impl LmkgTenant {
    /// A tenant over a model set the caller built: f32, unbounded, not
    /// persisted, builder-wide quota. Set the public fields to change that.
    pub fn new(name: impl Into<String>, graph: Arc<KnowledgeGraph>, base: Arc<Lmkg>, build_cfg: LmkgConfig) -> Self {
        Self {
            name: name.into(),
            graph,
            base,
            origin: Origin::Trained,
            build_cfg,
            store: None,
            memory_budget: None,
            quantized: None,
            quota: None,
        }
    }

    /// Load-or-train: cold-starts from the newest generation under
    /// `model_dir` when one exists — no training, and the set is served at
    /// whatever precision it was saved — else builds the framework from
    /// `build_cfg` (frozen at `quantized`, if given). [`LmkgTenant::origin`]
    /// says which happened. A store that cannot be opened, or whose every
    /// generation is unreadable, is a typed error, never a silent retrain.
    pub fn load_or_train(
        name: impl Into<String>,
        graph: Arc<KnowledgeGraph>,
        build_cfg: LmkgConfig,
        model_dir: Option<&Path>,
        quantized: Option<QuantMode>,
    ) -> Result<Self, StoreError> {
        let name = name.into();
        let store = model_dir.map(ModelStore::open).transpose()?;
        let (base, origin) = match store.as_ref().map(|store| store.load_latest()) {
            Some(Ok((model, generation))) => (model, Origin::ColdStarted { generation }),
            Some(Err(StoreError::NoSnapshot)) | None => {
                let family = match build_cfg.model_type {
                    ModelType::Supervised => "LMKG-S",
                    ModelType::Unsupervised => "LMKG-U",
                };
                eprintln!(
                    "serve: building {family} for [{name}] (sizes {:?}, {} train queries/model) …",
                    build_cfg.sizes, build_cfg.queries_per_size
                );
                let trained = Lmkg::build(&graph, &build_cfg);
                let base = match quantized {
                    Some(mode) => trained.quantized(mode),
                    None => trained,
                };
                (base, Origin::Trained)
            }
            Some(Err(e)) => return Err(e),
        };
        Ok(Self {
            origin,
            store,
            quantized,
            ..Self::new(name, graph, Arc::new(base), build_cfg)
        })
    }

    /// Starts the tenant's batcher on `base` — observed by a fresh monitor
    /// when `adapt` is on — and returns it with the lifecycle state that
    /// [`Adapter::start`] drives.
    pub(crate) fn start(self, batch: BatchConfig, adapt: Option<&AdapterConfig>) -> (MicroBatcher, TenantState) {
        let monitor: Option<SharedMonitor> =
            adapt.map(|cfg| Arc::new(Mutex::new(WorkloadMonitor::new(cfg.window, &self.build_cfg.cells()))));
        let batcher = MicroBatcher::start(Arc::clone(&self.base) as SharedEstimator, batch, monitor.clone());
        let state = TenantState {
            prefix: if self.name == DEFAULT_TENANT {
                "adapter:".into()
            } else {
                format!("adapter[{}]:", self.name)
            },
            handle: batcher.model(),
            stats: batcher.stats(),
            monitor,
            failed: HashSet::new(),
            spec: self,
        };
        (batcher, state)
    }
}

/// One tenant's lifecycle state: its description and its serving seams (model
/// slot, stats, monitor). Owned by the adapter thread once it runs.
pub(crate) struct TenantState {
    /// The description, with `base` following what is served: every publish
    /// replaces it, so nothing here keeps an evicted model resident.
    spec: LmkgTenant,
    /// `"adapter:"` for the default tenant (pre-multi-tenant event format),
    /// `"adapter[name]:"` otherwise.
    prefix: String,
    handle: Arc<ModelHandle>,
    stats: Arc<ServeStats>,
    /// The admission path's observation feed; `None` without adaptation.
    monitor: Option<SharedMonitor>,
    /// Cells that were selected but yielded no model (e.g. the LMKG-U
    /// domain guard): never re-attempted, or a persistent exotic workload
    /// would make every tick a futile training run.
    failed: HashSet<Cell>,
}

/// The `(tenant name, most recently published framework)` slots the lifecycle
/// writes and [`Adapter::current_for`] reads. Every write replaces one
/// `Arc`, so a poisoned lock still guards valid data and is recovered with
/// `PoisonError::into_inner`, like the batcher recovers the monitor's.
type CurrentSlots = RwLock<Vec<(String, Arc<Lmkg>)>>;

/// The lifecycle handle [`ServeBuilder::build_adaptive`] returns next to the
/// service: the published model sets, and — when adaptation is on — the
/// background thread. Dropping it (or calling [`Adapter::stop`]) signals the
/// loop and joins it — never mid-swap, since the stop flag is only checked
/// between whole tenant iterations.
///
/// [`ServeBuilder::build_adaptive`]: crate::server::ServeBuilder::build_adaptive
pub struct Adapter {
    stop: Arc<AtomicBool>,
    current: Arc<CurrentSlots>,
    thread: Option<JoinHandle<()>>,
}

impl Adapter {
    /// Runs tick zero for every tenant on the calling thread, then — with a
    /// `cfg` — spawns the one adaptation thread that walks the tenant list
    /// every interval: each tenant's monitor is evaluated against that
    /// tenant's current framework and each tenant's `ModelHandle` is swapped
    /// independently, so live traffic on the other tenants keeps flowing
    /// (and keeps being answered) while one tenant trains.
    pub(crate) fn start(mut tenants: Vec<TenantState>, cfg: Option<AdapterConfig>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let current: Arc<CurrentSlots> = Arc::new(RwLock::new(
            tenants
                .iter()
                .map(|t| (t.spec.name.clone(), Arc::clone(&t.spec.base)))
                .collect(),
        ));
        for (idx, tenant) in tenants.iter_mut().enumerate() {
            tick_zero(tenant, idx, &current);
        }
        let thread = cfg.map(|cfg| {
            let stop = Arc::clone(&stop);
            let current = Arc::clone(&current);
            std::thread::Builder::new()
                .name("lmkg-serve-adapter".into())
                .spawn(move || adapter_loop(&mut tenants, &cfg, &stop, &current))
                .expect("spawn adapter thread")
        });
        Self { stop, current, thread }
    }

    /// The framework most recently published for `name` (the tenant's base
    /// until tick zero or a retrain replaces it), or `None` for a tenant
    /// that is not LMKG-backed. Unlike `ModelHandle::current`, this is the
    /// concrete `Lmkg`, so callers can ask `covers` questions.
    pub fn current_for(&self, name: &str) -> Option<Arc<Lmkg>> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, model)| Arc::clone(model))
    }

    /// The first LMKG-backed tenant's most recently published framework —
    /// for a single-tenant service, *the* framework.
    ///
    /// # Panics
    /// If the service has no LMKG-backed tenant.
    pub fn current(&self) -> Arc<Lmkg> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner)[0].1)
    }

    /// Signals the loop and joins the thread, returning what
    /// [`Adapter::current`] then holds.
    pub fn stop(mut self) -> Arc<Lmkg> {
        self.halt();
        self.current()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Adapter {
    fn drop(&mut self) {
        self.halt();
    }
}

fn adapter_loop(tenants: &mut [TenantState], cfg: &AdapterConfig, stop: &AtomicBool, current_slot: &CurrentSlots) {
    while !stop.load(Ordering::SeqCst) {
        // Sleep in short slices so stop() never waits out a long interval.
        let wake = Instant::now() + cfg.interval;
        while Instant::now() < wake {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(cfg.interval.min(Duration::from_millis(20)));
        }

        for (idx, tenant) in tenants.iter_mut().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let retrained = maybe_retrain(tenant, idx, cfg, current_slot);
            settle(tenant, idx, current_slot, retrained);
        }
    }
}

/// Startup, as the lifecycle's first iteration: the *obtain* stage already
/// ran ([`LmkgTenant::load_or_train`] or the caller), so what is left is the
/// stages every later tick ends with.
fn tick_zero(tenant: &mut TenantState, idx: usize, current_slot: &CurrentSlots) {
    if let (Origin::ColdStarted { generation }, Some(store)) = (tenant.spec.origin, &tenant.spec.store) {
        tenant.stats.note_generation(generation);
        tenant.stats.event(
            Level::Info,
            "load",
            format!(
                "{} cold-start — loaded generation {generation} from {} ({} model(s), {} bytes); training skipped",
                tenant.prefix,
                store.dir().display(),
                tenant.spec.base.model_count(),
                tenant.spec.base.total_memory_bytes()
            ),
        );
    }
    settle(tenant, idx, current_slot, tenant.spec.origin == Origin::Trained);
}

/// The stages every iteration ends with: fit the budget, then persist when
/// the served set is not the newest on-disk generation — `unsaved` says an
/// earlier stage of this iteration already made it so (a retrain, or at tick
/// zero a set that was trained rather than loaded), an eviction makes it so.
fn settle(tenant: &mut TenantState, idx: usize, current_slot: &CurrentSlots, unsaved: bool) {
    let evicted = enforce_budget(tenant, idx, current_slot);
    if unsaved || evicted {
        persist(tenant);
    }
}

/// The one publish routine: freeze `next` at the tenant's quant mode (frozen
/// entries are shared as they are, so this only touches what a retrain just
/// trained in f32), swap it into the tenant's model slot, and account for it
/// (`Adapter::current_for`, `STATS model=`).
fn publish(tenant: &mut TenantState, idx: usize, current_slot: &CurrentSlots, next: Lmkg) {
    let next = Arc::new(match tenant.spec.quantized {
        Some(mode) => next.quantized(mode),
        None => next,
    });
    tenant.handle.swap(Arc::clone(&next) as SharedEstimator);
    current_slot.write().unwrap_or_else(PoisonError::into_inner)[idx].1 = Arc::clone(&next);
    tenant.stats.note_model_bytes(next.memory_bytes() as u64);
    tenant.spec.base = next;
}

/// The drift-evaluate / retrain / publish stage. Returns whether a new
/// framework was published.
fn maybe_retrain(tenant: &mut TenantState, idx: usize, cfg: &AdapterConfig, current_slot: &CurrentSlots) -> bool {
    let Some(monitor) = &tenant.monitor else {
        return false;
    };
    let report = {
        // Recovered like `MicroBatcher::submit` does: one panicking observer
        // must not end adaptation for good.
        let m = monitor.lock().unwrap_or_else(PoisonError::into_inner);
        if m.observed() < cfg.min_observed {
            return false;
        }
        let model = &tenant.spec.base;
        m.report(|(shape, size)| model.covers(shape, size))
    };
    tenant.stats.note_drift(report.tv_distance, report.uncovered_share);
    if !report.should_retrain(cfg.tv_threshold, cfg.uncovered_threshold) {
        return false;
    }

    let budget = cfg
        .max_models
        .saturating_sub(tenant.spec.base.model_count())
        .min(cfg.max_new_per_cycle);
    let cells: Vec<Cell> = report
        .dominant_cells
        .iter()
        .map(|&(cell, _)| cell)
        .filter(|&cell| {
            trainable_cell(cell) && !tenant.failed.contains(&cell) && !tenant.spec.base.covers(cell.0, cell.1)
        })
        .take(budget)
        .collect();
    if cells.is_empty() {
        // Drift without a trainable target (pure mix shift over covered
        // cells, exotic shapes, or the model cap): nothing to create.
        return false;
    }

    // The dominant cells with their observed query counts, e.g.
    // `(star, 4)×37` — the drift event carries how much of the window
    // each selected cell accounted for.
    let cell_counts: Vec<String> = cells
        .iter()
        .map(|&(shape, size)| {
            let observed = report
                .dominant_cells
                .iter()
                .find(|&&(cell, _)| cell == (shape, size))
                .map_or(0, |&(_, k)| k);
            format!("({shape}, {size})\u{d7}{observed}")
        })
        .collect();
    tenant.stats.event(
        Level::Info,
        "drift",
        format!(
            "{} drift tv={:.3} uncovered={:.3} over {} queries — training {} model(s) for [{}]",
            tenant.prefix,
            report.tv_distance,
            report.uncovered_share,
            report.dominant_cells.iter().map(|&(_, k)| k).sum::<usize>(),
            cells.len(),
            cell_counts.join(", ")
        ),
    );
    let t0 = Instant::now();
    let spec = &tenant.spec;
    let extended = spec.base.extend(&spec.graph, &cells, &spec.build_cfg);
    let train_time = t0.elapsed();
    let added = extended.model_count().saturating_sub(tenant.spec.base.model_count());
    // Publish first, then bump the retrain counter: a SeqCst read of
    // `retrains` therefore implies later batches resolve the new model.
    publish(tenant, idx, current_slot, extended);
    let (prefix, stats, extended) = (&tenant.prefix, &tenant.stats, &tenant.spec.base);
    stats.note_retrain(added);
    stats.note_retrain_duration(train_time);
    stats.event(
        Level::Info,
        "swap",
        format!(
            "{prefix} swapped in extended model of {} bytes under live traffic",
            extended.memory_bytes()
        ),
    );
    for &(shape, size) in &cells {
        if extended.covers(shape, size) {
            stats.event(
                Level::Info,
                "retrain",
                format!("{prefix} cell ({shape}, {size}) now covered — direct model, no decomposition fallback"),
            );
        } else {
            tenant.failed.insert((shape, size));
            stats.event(
                Level::Warn,
                "retrain",
                format!("{prefix} cell ({shape}, {size}) could not be trained; keeping the fallback path"),
            );
        }
    }
    stats.event(
        Level::Info,
        "retrain",
        format!(
            "{prefix} published {} model(s) (+{added}) after {:.3}s of training, swap was atomic under live traffic",
            extended.model_count(),
            train_time.as_secs_f64()
        ),
    );
    true
}

/// The memory-budget stage: when the served framework exceeds the tenant's
/// budget (a retrain just grew it, or the budget sits below the base at
/// startup), evict least-used covered cells until it fits and publish the
/// smaller set through the same atomic swap. Usage is the monitor's
/// per-cell counts — empty at tick zero and without adaptation, which makes
/// eviction size-ordered. It never uncovers a cell the current window
/// observed (the fallback stays covered for live traffic — see
/// [`Lmkg::evict_to_budget`]), so it can legitimately stop above budget
/// under a workload that needs everything. Returns whether a smaller
/// framework was published.
fn enforce_budget(tenant: &mut TenantState, idx: usize, current_slot: &CurrentSlots) -> bool {
    let Some(budget) = tenant.spec.memory_budget else {
        return false;
    };
    if tenant.spec.base.total_memory_bytes() <= budget {
        return false;
    }
    // The monitor's full per-cell counts (not just uncovered cells): the
    // victim order is workload share, and observed cells are pinned.
    let usage: Vec<(Cell, u64)> = tenant.monitor.as_ref().map_or_else(Vec::new, |monitor| {
        let m = monitor.lock().unwrap_or_else(PoisonError::into_inner);
        m.report(|_| true)
            .dominant_cells
            .iter()
            .map(|&(cell, count)| (cell, count as u64))
            .collect()
    });
    let (smaller, dropped) = tenant.spec.base.evict_to_budget(budget, &usage);
    if dropped == 0 {
        // Everything left is the last cover of a live cell: respect the
        // workload over the budget rather than uncover live traffic.
        return false;
    }
    publish(tenant, idx, current_slot, smaller);
    tenant.stats.note_evicted(dropped);
    tenant.stats.event(
        Level::Info,
        "evict",
        format!(
            "{} evicted {dropped} model(s) — {} of {budget} bytes budget used ({} model(s) kept)",
            tenant.prefix,
            tenant.spec.base.total_memory_bytes(),
            tenant.spec.base.model_count()
        ),
    );
    true
}

/// The persistence stage: snapshot whatever `tenant.spec.base` now is into the
/// tenant's model store, so a restart cold-starts from the adapted state.
/// Failure is an event, never a panic — serving continues on the in-memory
/// set and the next publish retries.
fn persist(tenant: &TenantState) {
    let prefix = &tenant.prefix;
    let Some(store) = &tenant.spec.store else {
        return;
    };
    match store.publish(&tenant.spec.base) {
        Ok(generation) => {
            tenant.stats.note_generation(generation);
            tenant.stats.event(
                Level::Info,
                "save",
                format!(
                    "{prefix} published generation {generation} to {} ({} model(s))",
                    store.dir().display(),
                    tenant.spec.base.model_count()
                ),
            );
        }
        Err(err) => {
            tenant.stats.event(
                Level::Warn,
                "save",
                format!("{prefix} snapshot publish failed ({err}); serving continues on the in-memory set"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::QueryShape;

    #[test]
    fn trainable_filters_shapes_and_sizes() {
        assert!(trainable_cell((QueryShape::Star, 2)));
        assert!(trainable_cell((QueryShape::Chain, 8)));
        assert!(!trainable_cell((QueryShape::Star, 1)));
        assert!(!trainable_cell((QueryShape::Single, 1)));
        assert!(!trainable_cell((QueryShape::Other, 4)));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = AdapterConfig::default();
        assert!(cfg.interval > Duration::ZERO);
        assert!(cfg.min_observed <= cfg.window);
        assert!(cfg.max_new_per_cycle >= 1 && cfg.max_new_per_cycle <= cfg.max_models);
        assert!(cfg.tv_threshold > 0.0 && cfg.uncovered_threshold > 0.0);
    }

    /// A thread that panics while holding the shared monitor (or the
    /// published-model slots) poisons the mutex; the adapter must keep
    /// ticking — retrain, publish — and `current_for` must keep answering.
    #[test]
    fn poisoned_monitor_and_slots_do_not_stop_adaptation() {
        use lmkg::framework::Grouping;
        use lmkg::supervised::LmkgSConfig;
        use lmkg_data::{Dataset, Scale};

        let graph = Arc::new(Dataset::LubmLike.generate(Scale::Ci, 42));
        let build_cfg = LmkgConfig {
            model_type: ModelType::Supervised,
            grouping: Grouping::BySize,
            shapes: vec![QueryShape::Star],
            sizes: vec![2],
            queries_per_size: 60,
            s_config: LmkgSConfig {
                hidden: vec![8],
                epochs: 1,
                ..Default::default()
            },
            u_config: Default::default(),
            workload_seed: 3,
        };
        let base = Arc::new(Lmkg::build(&graph, &build_cfg));
        let shifted = (QueryShape::Star, 3);
        assert!(!base.covers(shifted.0, shifted.1));

        // The two calls `ServeBuilder::build_adaptive` makes per LMKG tenant.
        let cfg = AdapterConfig {
            interval: Duration::from_millis(10),
            window: 64,
            min_observed: 16,
            ..AdapterConfig::default()
        };
        let (batcher, state) =
            LmkgTenant::new(DEFAULT_TENANT, graph, base, build_cfg).start(BatchConfig::default(), Some(&cfg));
        let monitor = Arc::clone(state.monitor.as_ref().expect("adaptation is on"));
        let adapter = Adapter::start(vec![state], Some(cfg));

        let poisoner = {
            let monitor = Arc::clone(&monitor);
            let slots = Arc::clone(&adapter.current);
            std::thread::spawn(move || {
                let _monitor = monitor.lock().unwrap();
                let _slots = slots.write().unwrap();
                panic!("observer dies holding both locks");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(monitor.is_poisoned() && adapter.current.is_poisoned());

        // The drift that triggers a retrain arrives only after the poisoning.
        {
            let mut m = monitor.lock().unwrap_or_else(PoisonError::into_inner);
            for _ in 0..32 {
                m.observe_cell(shifted);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while batcher.stats().snapshot().retrains == 0 {
            assert!(Instant::now() < deadline, "adapter stopped ticking after the poisoning");
            std::thread::sleep(Duration::from_millis(10));
        }
        let current = adapter
            .current_for(DEFAULT_TENANT)
            .expect("the adapter drives this tenant");
        assert!(current.covers(shifted.0, shifted.1), "the retrained set was published");
        assert!(adapter.current_for("nobody").is_none());
    }
}
