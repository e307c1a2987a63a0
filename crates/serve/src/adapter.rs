//! The online adaptation loop: monitor → retrain → swap, under live traffic.
//!
//! The paper's execution phase (§IV, Model choice) calls for exactly this:
//! "If a change in the workload of queries is detected during the execution
//! phase, a new model may be created". The pieces have existed separately —
//! `WorkloadMonitor` detects the change, `Lmkg::extend` creates the missing
//! models, `ModelHandle::swap` publishes atomically — and this module is the
//! thread that closes the loop:
//!
//! 1. the batcher records every admitted query's `(shape, size)` cell into a
//!    [`SharedMonitor`](crate::batcher::SharedMonitor);
//! 2. the adapter thread wakes every [`AdapterConfig::interval`], pulls a
//!    [`DriftReport`](lmkg::DriftReport), and records it in the serving
//!    stats (`STATS … tv=… uncovered=…`);
//! 3. when `should_retrain` fires, it trains models for the dominant
//!    *uncovered* cells via [`Lmkg::extend`] — existing entries are reused
//!    by reference, only the missing cells train, on scoped threads — while
//!    the workers keep serving the old snapshot;
//! 4. the extended framework is published with
//!    [`ModelHandle::swap`](crate::batcher::ModelHandle::swap): in-flight
//!    batches finish on the model they already resolved, the next batch sees
//!    the new one. No request is dropped, no batch is torn.
//!
//! One adapter thread serves *all* tenants of a multi-tenant service
//! ([`Adapter::start`]): each tick it walks the tenant list, evaluates
//! each tenant's own monitor against that tenant's current framework, and
//! swaps each tenant's [`ModelHandle`] independently — retraining tenant A
//! never pauses serving (or adaptation bookkeeping) for tenant B, because
//! the workers never block on the adapter in the first place.
//!
//! Training happens on the adapter thread (plus the scoped training threads
//! `Lmkg::extend` spawns), never on a worker — the estimation path stays
//! lock-free and swap-latency is one `RwLock` write for the pointer, not the
//! training time.

use crate::batcher::{ModelHandle, ServeStats, SharedEstimator, SharedMonitor};
use crate::protocol::DEFAULT_TENANT;
use lmkg::framework::{trainable_cell, Lmkg, LmkgConfig};
use lmkg::{CardinalityEstimator, Cell};
use lmkg_modelstore::ModelStore;
use lmkg_obs::Level;
use lmkg_store::KnowledgeGraph;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
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

/// Everything the adapter needs to run one tenant's adaptation loop:
/// the tenant's graph, the framework its batcher currently serves,
/// the configuration it was built with (extensions train with its
/// hyperparameters and budget), and the tenant's serving seams — model
/// handle, monitor, stats (see
/// [`EstimationService::tenant_model`] et al.).
pub struct TenantAdapterSpec {
    /// The namespace this loop adapts (drives the event prefix: the
    /// `default` tenant logs plain `adapter:` lines, others
    /// `adapter[name]:`).
    pub name: String,
    /// The tenant's graph, queried when training extension models.
    pub graph: Arc<KnowledgeGraph>,
    /// The framework the tenant's batcher currently serves.
    pub base: Arc<Lmkg>,
    /// The configuration `base` was built with.
    pub build_cfg: LmkgConfig,
    /// The tenant's swappable model slot.
    pub handle: Arc<ModelHandle>,
    /// The monitor the tenant's admission path observes into.
    pub monitor: SharedMonitor,
    /// The tenant's counter block (drift gauges, retrain events).
    pub stats: Arc<ServeStats>,
    /// Where retrained (and evicted) model sets are persisted after each
    /// publish, so a restart cold-starts from the adapted state instead of
    /// the cold base. `None` disables persistence.
    pub store: Option<ModelStore>,
    /// Upper bound on the published framework's `total_memory_bytes`.
    /// After every publish — and on every tick, in case retraining pushed
    /// past it — the adapter evicts least-used covered cells until the set
    /// fits (see [`Lmkg::evict_to_budget`]). `None` disables eviction.
    pub memory_budget: Option<usize>,
}

/// One tenant's mutable loop state, private to the adapter thread.
struct TenantState {
    spec: TenantAdapterSpec,
    /// `"adapter:"` for the default tenant (pre-multi-tenant event format),
    /// `"adapter[name]:"` otherwise.
    prefix: String,
    current: Arc<Lmkg>,
    /// Cells that were selected but yielded no model (e.g. the LMKG-U
    /// domain guard): never re-attempted, or a persistent exotic workload
    /// would make every tick a futile training run.
    failed: HashSet<Cell>,
}

/// The `(tenant name, most recently published framework)` slots the adapter
/// thread writes and [`Adapter::current_for`] reads. Every write replaces one
/// `Arc`, so a poisoned lock still guards valid data and is recovered with
/// `PoisonError::into_inner`, like the batcher recovers the monitor's.
type CurrentSlots = RwLock<Vec<(String, Arc<Lmkg>)>>;

/// The background adaptation thread. Dropping it (or calling
/// [`Adapter::stop`]) signals the loop and joins it — never mid-swap, since
/// the stop flag is only checked between whole tenant iterations.
pub struct Adapter {
    stop: Arc<AtomicBool>,
    current: Arc<CurrentSlots>,
    thread: Option<JoinHandle<()>>,
}

impl Adapter {
    /// Spawns one adaptation thread over the given tenants (one spec for a
    /// single-tenant setup). Each tick walks the tenant list in order:
    /// every tenant's monitor is evaluated against that tenant's current
    /// framework, and each tenant's `ModelHandle` is swapped independently
    /// — live traffic on the other tenants keeps flowing (and keeps being
    /// answered) while one tenant trains.
    pub fn start(specs: Vec<TenantAdapterSpec>, cfg: AdapterConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let current = Arc::new(RwLock::new(
            specs
                .iter()
                .map(|s| (s.name.clone(), Arc::clone(&s.base)))
                .collect::<Vec<_>>(),
        ));
        let mut tenants: Vec<TenantState> = specs
            .into_iter()
            .map(|spec| TenantState {
                prefix: if spec.name == DEFAULT_TENANT {
                    "adapter:".into()
                } else {
                    format!("adapter[{}]:", spec.name)
                },
                current: Arc::clone(&spec.base),
                failed: HashSet::new(),
                spec,
            })
            .collect();
        let thread = {
            let stop = Arc::clone(&stop);
            let current = Arc::clone(&current);
            std::thread::Builder::new()
                .name("lmkg-serve-adapter".into())
                .spawn(move || adapter_loop(&mut tenants, &cfg, &stop, &current))
                .expect("spawn adapter thread")
        };
        Self {
            stop,
            current,
            thread: Some(thread),
        }
    }

    /// The framework the adapter most recently published for `name` (the
    /// tenant's base until its first retrain), or `None` for a tenant the
    /// adapter does not drive. Unlike `ModelHandle::current`, this is the
    /// concrete `Lmkg`, so callers can ask `covers` questions.
    pub fn current_for(&self, name: &str) -> Option<Arc<Lmkg>> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, model)| Arc::clone(model))
    }

    /// The first tenant's most recently published framework — for a
    /// single-tenant adapter, *the* framework.
    pub fn current(&self) -> Arc<Lmkg> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner)[0].1)
    }

    /// Signals the loop and joins the thread, returning the first tenant's
    /// final published framework.
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
            tenant_tick(tenant, idx, cfg, current_slot);
        }
    }
}

/// One tenant's adaptation iteration: drift-evaluate / retrain / swap, then
/// budget enforcement (eviction), then persistence — whatever was published
/// this tick (by either stage) is snapshotted to the tenant's model store.
fn tenant_tick(tenant: &mut TenantState, idx: usize, cfg: &AdapterConfig, current_slot: &CurrentSlots) {
    let retrained = maybe_retrain(tenant, idx, cfg, current_slot);
    let evicted = enforce_budget(tenant, idx, current_slot);
    if retrained || evicted {
        persist(tenant);
    }
}

/// The drift-evaluate / retrain / swap stage. Returns whether a new
/// framework was published.
fn maybe_retrain(tenant: &mut TenantState, idx: usize, cfg: &AdapterConfig, current_slot: &CurrentSlots) -> bool {
    let spec = &tenant.spec;
    let prefix = &tenant.prefix;
    let report = {
        // Recovered like `MicroBatcher::submit` does: one panicking observer
        // must not end adaptation for good.
        let m = spec.monitor.lock().unwrap_or_else(PoisonError::into_inner);
        if m.observed() < cfg.min_observed {
            return false;
        }
        let model = &tenant.current;
        m.report(|(shape, size)| model.covers(shape, size))
    };
    spec.stats.note_drift(report.tv_distance, report.uncovered_share);
    if !report.should_retrain(cfg.tv_threshold, cfg.uncovered_threshold) {
        return false;
    }

    let budget = cfg
        .max_models
        .saturating_sub(tenant.current.model_count())
        .min(cfg.max_new_per_cycle);
    let cells: Vec<Cell> = report
        .dominant_cells
        .iter()
        .map(|&(cell, _)| cell)
        .filter(|&cell| {
            trainable_cell(cell) && !tenant.failed.contains(&cell) && !tenant.current.covers(cell.0, cell.1)
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
    spec.stats.event(
        Level::Info,
        "drift",
        format!(
            "{prefix} drift tv={:.3} uncovered={:.3} over {} queries — training {} model(s) for [{}]",
            report.tv_distance,
            report.uncovered_share,
            report.dominant_cells.iter().map(|&(_, k)| k).sum::<usize>(),
            cells.len(),
            cell_counts.join(", ")
        ),
    );
    let t0 = Instant::now();
    let extended = Arc::new(tenant.current.extend(&spec.graph, &cells, &spec.build_cfg));
    let train_time = t0.elapsed();
    let added = extended.model_count().saturating_sub(tenant.current.model_count());
    // Publish first, then bump the retrain counter: a SeqCst read of
    // `retrains` therefore implies later batches resolve the new model.
    spec.handle.swap(Arc::clone(&extended) as SharedEstimator);
    current_slot.write().unwrap_or_else(PoisonError::into_inner)[idx].1 = Arc::clone(&extended);
    spec.stats.note_model_bytes(extended.memory_bytes() as u64);
    spec.stats.note_retrain(added);
    spec.stats.note_retrain_duration(train_time);
    spec.stats.event(
        Level::Info,
        "swap",
        format!(
            "{prefix} swapped in extended model of {} bytes under live traffic",
            extended.memory_bytes()
        ),
    );
    for &(shape, size) in &cells {
        if extended.covers(shape, size) {
            spec.stats.event(
                Level::Info,
                "retrain",
                format!("{prefix} cell ({shape}, {size}) now covered — direct model, no decomposition fallback"),
            );
        } else {
            tenant.failed.insert((shape, size));
            spec.stats.event(
                Level::Warn,
                "retrain",
                format!("{prefix} cell ({shape}, {size}) could not be trained; keeping the fallback path"),
            );
        }
    }
    spec.stats.event(
        Level::Info,
        "retrain",
        format!(
            "{prefix} published {} model(s) (+{added}) after {:.3}s of training, swap was atomic under live traffic",
            extended.model_count(),
            train_time.as_secs_f64()
        ),
    );
    tenant.current = extended;
    true
}

/// The memory-budget stage: when the published framework exceeds the
/// tenant's budget (a retrain just grew it, or the budget was set below the
/// base at startup), evict least-used covered cells until it fits and
/// publish the smaller set through the same atomic swap. Eviction never
/// uncovers a cell the current window observed (the fallback stays covered
/// for live traffic — see [`Lmkg::evict_to_budget`]), so it can legitimately
/// stop above budget under a workload that needs everything. Returns whether
/// a smaller framework was published.
fn enforce_budget(tenant: &mut TenantState, idx: usize, current_slot: &CurrentSlots) -> bool {
    let spec = &tenant.spec;
    let prefix = &tenant.prefix;
    let Some(budget) = spec.memory_budget else {
        return false;
    };
    if tenant.current.total_memory_bytes() <= budget {
        return false;
    }
    // Usage = the monitor's full per-cell counts (not just uncovered cells):
    // the victim order is workload share, and observed cells are pinned.
    let usage: Vec<(Cell, u64)> = {
        let m = spec.monitor.lock().unwrap_or_else(PoisonError::into_inner);
        m.report(|_| true)
            .dominant_cells
            .iter()
            .map(|&(cell, count)| (cell, count as u64))
            .collect()
    };
    let (smaller, dropped) = tenant.current.evict_to_budget(budget, &usage);
    if dropped == 0 {
        // Everything left is the last cover of a live cell: respect the
        // workload over the budget rather than uncover live traffic.
        return false;
    }
    let smaller = Arc::new(smaller);
    spec.handle.swap(Arc::clone(&smaller) as SharedEstimator);
    current_slot.write().unwrap_or_else(PoisonError::into_inner)[idx].1 = Arc::clone(&smaller);
    spec.stats.note_model_bytes(smaller.memory_bytes() as u64);
    spec.stats.note_evicted(dropped);
    spec.stats.event(
        Level::Info,
        "evict",
        format!(
            "{prefix} evicted {dropped} model(s) — {} bytes now within the {budget}-byte budget ({} model(s) kept)",
            smaller.total_memory_bytes(),
            smaller.model_count()
        ),
    );
    tenant.current = smaller;
    true
}

/// The persistence stage: snapshot whatever `tenant.current` now is into the
/// tenant's model store, so a restart cold-starts from the adapted state.
/// Failure is an event, never a panic — serving continues on the in-memory
/// set and the next publish retries.
fn persist(tenant: &TenantState) {
    let spec = &tenant.spec;
    let prefix = &tenant.prefix;
    let Some(store) = &spec.store else {
        return;
    };
    match store.publish(&tenant.current) {
        Ok(generation) => {
            spec.stats.note_generation(generation);
            spec.stats.event(
                Level::Info,
                "save",
                format!(
                    "{prefix} persisted {} model(s) as generation {generation} in {}",
                    tenant.current.model_count(),
                    store.dir().display()
                ),
            );
        }
        Err(err) => {
            spec.stats.event(
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
        use crate::batcher::{BatchConfig, MicroBatcher};
        use lmkg::framework::{Grouping, ModelType};
        use lmkg::supervised::LmkgSConfig;
        use lmkg::WorkloadMonitor;
        use lmkg_data::{Dataset, Scale};
        use std::sync::Mutex;

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

        let monitor: SharedMonitor = Arc::new(Mutex::new(WorkloadMonitor::new(64, &build_cfg.cells())));
        let batcher = MicroBatcher::start(
            Arc::clone(&base) as SharedEstimator,
            BatchConfig::default(),
            Some(Arc::clone(&monitor)),
        );
        let adapter = Adapter::start(
            vec![TenantAdapterSpec {
                name: DEFAULT_TENANT.into(),
                graph,
                base,
                build_cfg,
                handle: batcher.model(),
                monitor: Arc::clone(&monitor),
                stats: batcher.stats(),
                store: None,
                memory_budget: None,
            }],
            AdapterConfig {
                interval: Duration::from_millis(10),
                min_observed: 16,
                ..AdapterConfig::default()
            },
        );

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
