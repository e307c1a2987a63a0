//! The LMKG framework (paper §IV, Fig. 1): the creation phase trains a set
//! of grouped models; the execution phase routes queries to models,
//! decomposing queries no model covers and combining sub-estimates.

use crate::decompose;
use crate::estimator::CardinalityEstimator;
use crate::summary::{GraphSummary, JoinVar};
use crate::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use crate::unsupervised::{LmkgU, LmkgUConfig, LmkgUError};
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::LabeledQuery;
use lmkg_encoder::SgEncoder;
use lmkg_nn::quant::QuantMode;
use lmkg_store::{KnowledgeGraph, Query, QueryShape};
use std::sync::Arc;
use std::time::Instant;

/// Which learned model family the framework instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelType {
    /// LMKG-S (deep neural network).
    Supervised,
    /// LMKG-U (autoregressive model). Always grouped per (type, size) —
    /// the paper's configuration for LMKG-U (§VIII-B).
    Unsupervised,
}

/// Model grouping strategies (paper §VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// One model for every type and size.
    Single,
    /// One model per query type (star, chain), covering all sizes.
    ByType,
    /// One model per query size, covering all types.
    BySize,
    /// One model per (type, size) pair.
    Specialized,
}

/// Framework configuration (the paper's "Model Choice" inputs: number of
/// models, model type, encoding type — Fig. 1).
#[derive(Debug, Clone)]
pub struct LmkgConfig {
    /// Model family.
    pub model_type: ModelType,
    /// Grouping strategy (applies to LMKG-S; LMKG-U is always specialized).
    pub grouping: Grouping,
    /// Query shapes to support.
    pub shapes: Vec<QueryShape>,
    /// Query sizes to support (paper: 2, 3, 5, 8).
    pub sizes: Vec<usize>,
    /// Training-query budget **per model**, split evenly across the
    /// (shape, size) cells the model covers. Equal budgets make the grouping
    /// strategies directly comparable (the paper's "defined budget", §IV):
    /// a specialized model concentrates its budget on one cell, the single
    /// model spreads it over every cell — which is exactly why "a single
    /// model ... may lead to larger errors" (§VII-B).
    pub queries_per_size: usize,
    /// LMKG-S hyperparameters.
    pub s_config: LmkgSConfig,
    /// LMKG-U hyperparameters.
    pub u_config: LmkgUConfig,
    /// Seed for training-workload generation.
    pub workload_seed: u64,
}

impl LmkgConfig {
    /// A compact default: supervised, size-grouped, SG-encoded — the
    /// configuration the paper uses for its main comparison (§VIII-B).
    pub fn supervised_default() -> Self {
        Self {
            model_type: ModelType::Supervised,
            grouping: Grouping::BySize,
            shapes: vec![QueryShape::Star, QueryShape::Chain],
            sizes: vec![2, 3],
            queries_per_size: 1000,
            s_config: LmkgSConfig::default(),
            u_config: LmkgUConfig::default(),
            workload_seed: 7,
        }
    }

    /// Every `(shape, size)` cell this configuration trains for — the
    /// baseline cell mix a [`crate::monitor::WorkloadMonitor`] compares live
    /// traffic against.
    pub fn cells(&self) -> Vec<(QueryShape, usize)> {
        self.shapes
            .iter()
            .flat_map(|&shape| self.sizes.iter().map(move |&k| (shape, k)))
            .collect()
    }
}

/// Which queries a model answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelKey {
    /// `None` = any shape (single model with SG-Encoding).
    pub shape: Option<QueryShape>,
    /// Smallest query size covered.
    pub min_size: usize,
    /// Largest query size covered.
    pub max_size: usize,
}

impl ModelKey {
    /// The key of a model specialized to one `(shape, size)` cell.
    fn cell((shape, k): (QueryShape, usize)) -> Self {
        Self {
            shape: Some(shape),
            min_size: k,
            max_size: k,
        }
    }

    fn matches(&self, shape: QueryShape, size: usize, exact_size_only: bool) -> bool {
        let shape_ok = match self.shape {
            None => matches!(shape, QueryShape::Star | QueryShape::Chain | QueryShape::Single),
            Some(s) => s == shape || (shape == QueryShape::Single && self.min_size <= 1),
        };
        let size_ok = if exact_size_only {
            size == self.max_size
        } else {
            size >= self.min_size.min(1) && size <= self.max_size
        };
        shape_ok && size_ok
    }
}

/// Whether a training workload can be generated for a `(shape, size)` cell
/// at all: `lmkg-data` generates star and chain patterns of ≥ 2 triples,
/// while single triples and `Other` shapes stay on the
/// decomposition/statistics path. [`Lmkg::extend`] skips untrainable cells,
/// and the serving adapter filters retraining targets with this same
/// predicate — one definition, so the two sides cannot drift.
pub fn trainable_cell(cell: (QueryShape, usize)) -> bool {
    matches!(cell.0, QueryShape::Star | QueryShape::Chain) && cell.1 >= 2
}

/// One routed model: the two learned families of the paper. Which precision
/// its weights are stored at is the model's own business.
// The size gap between the two variants is irrelevant: a framework holds a
// handful of entries, each wrapping megabytes of parameters either way.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ModelEntry {
    S(LmkgS),
    U(LmkgU),
}

impl ModelEntry {
    /// LMKG-U entries answer exactly one query size.
    fn exact_size_only(&self) -> bool {
        matches!(self, ModelEntry::U(_))
    }

    /// Per-entry model size in bytes (the unit the eviction budget sums).
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            ModelEntry::S(m) => m.memory_bytes(),
            ModelEntry::U(m) => m.memory_bytes(),
        }
    }

    /// The entry with its weights frozen at `mode`; `None` when they already
    /// are (re-encoding quantized weights would only compound rounding).
    fn quantized(&self, mode: QuantMode) -> Option<ModelEntry> {
        match self {
            ModelEntry::S(m) => m.mode().is_none().then(|| ModelEntry::S(m.quantized(mode))),
            ModelEntry::U(m) => m.mode().is_none().then(|| ModelEntry::U(m.quantized(mode))),
        }
    }

    /// This model's answers to a slice through one batched forward, `None`
    /// where it rejects a query (encoder or shape/size mismatch).
    fn answer_batch(&self, queries: &[&Query]) -> Vec<Option<f64>> {
        match self {
            ModelEntry::S(m) => m.predict_batch(queries).into_iter().map(Result::ok).collect(),
            ModelEntry::U(m) => m.estimate_query_batch(queries).into_iter().map(Result::ok).collect(),
        }
    }
}

/// The LMKG framework: a compound of grouped learned models plus the
/// statistics block used for decomposition fallbacks.
///
/// Models and the summary are held behind `Arc`s so that
/// [`Lmkg::extend`] can produce a grown framework that *shares* the already
/// trained entries with the original — the workload-shift loop trains only
/// the missing cells while the original keeps serving traffic.
pub struct Lmkg {
    entries: Vec<(ModelKey, Arc<ModelEntry>)>,
    summary: Arc<GraphSummary>,
    max_covered_size: usize,
}

impl std::fmt::Debug for Lmkg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lmkg")
            .field("models", &self.entries.len())
            .field("max_covered_size", &self.max_covered_size)
            .field("bytes", &self.total_memory_bytes())
            .finish()
    }
}

impl Lmkg {
    /// Creation phase: decides the model set from the grouping, generates
    /// training data, and trains every model (Fig. 1, top).
    pub fn build(graph: &KnowledgeGraph, cfg: &LmkgConfig) -> Self {
        assert!(!cfg.shapes.is_empty() && !cfg.sizes.is_empty());
        let summary = Arc::new(GraphSummary::build(graph));
        let max_size = *cfg.sizes.iter().max().expect("non-empty sizes");
        let keys: Vec<ModelKey> = match (cfg.model_type, cfg.grouping) {
            // LMKG-U: always one model per (type, size) — §VIII-B.
            (ModelType::Unsupervised, _) | (_, Grouping::Specialized) => {
                cfg.cells().into_iter().map(ModelKey::cell).collect()
            }
            (_, Grouping::Single) => vec![ModelKey {
                shape: None,
                min_size: 1,
                max_size,
            }],
            (_, Grouping::ByType) => cfg
                .shapes
                .iter()
                .map(|&s| ModelKey {
                    shape: Some(s),
                    min_size: 1,
                    max_size,
                })
                .collect(),
            (_, Grouping::BySize) => cfg
                .sizes
                .iter()
                .map(|&k| ModelKey {
                    shape: None,
                    min_size: k,
                    max_size: k,
                })
                .collect(),
        };
        let entries = train_entries(graph, cfg, keys, "");

        Self {
            entries,
            summary,
            max_covered_size: max_size,
        }
    }

    /// Incremental creation phase (paper §IV, Model choice: when the
    /// workload changes, "a new model may be created"): trains models for
    /// the given `(shape, size)` cells only and returns a framework that
    /// covers them **in addition to** everything `self` covers.
    ///
    /// Existing model entries are reused by reference (`Arc` clones, no
    /// retraining, no full rebuild); only the missing cells are trained, on
    /// scoped threads like [`Lmkg::build`]. Cells already covered, cells
    /// with untrainable shapes (workload generation supports star and
    /// chain), and duplicates are skipped, so extending by an
    /// already-covered workload is a cheap no-op.
    ///
    /// `self` is untouched — an `Arc<Lmkg>` serving live traffic keeps
    /// answering on the old model set while this trains, and the result is
    /// published atomically afterwards (the serving layer's
    /// `ModelHandle::swap`). New entries are appended *after* the existing
    /// ones, so every query the old set answered routes identically
    /// (bitwise) in the extended set.
    ///
    /// Training is deterministic in `(graph, cfg, cell)`: extending two
    /// clones of a framework by the same cells yields bitwise-identical
    /// estimators, which is how the adaptation parity test pins the served
    /// post-swap estimates.
    pub fn extend(&self, graph: &KnowledgeGraph, cells: &[(QueryShape, usize)], cfg: &LmkgConfig) -> Self {
        let mut wanted: Vec<(QueryShape, usize)> = Vec::new();
        for &(shape, size) in cells {
            if trainable_cell((shape, size)) && !self.covers(shape, size) && !wanted.contains(&(shape, size)) {
                wanted.push((shape, size));
            }
        }
        let mut entries = self.entries.clone();
        if !wanted.is_empty() {
            let keys = wanted.into_iter().map(ModelKey::cell).collect();
            entries.extend(train_entries(graph, cfg, keys, " (extension)"));
        }

        // Decomposition granularity grows only with models that actually
        // exist: a skipped cell (LMKG-U domain guard) must not widen the
        // decomposition target, or queries of that size would stop being
        // split into covered parts.
        let max_covered_size = entries[self.entries.len()..]
            .iter()
            .map(|(key, _)| key.max_size)
            .fold(self.max_covered_size, usize::max);
        Self {
            entries,
            summary: Arc::clone(&self.summary),
            max_covered_size,
        }
    }

    /// Reassembles a framework from snapshot parts (see `crate::snapshot`).
    pub(crate) fn from_parts(
        entries: Vec<(ModelKey, Arc<ModelEntry>)>,
        summary: Arc<GraphSummary>,
        max_covered_size: usize,
    ) -> Self {
        Self {
            entries,
            summary,
            max_covered_size,
        }
    }

    /// The model entries in routing order (snapshot persistence).
    pub(crate) fn entries(&self) -> &[(ModelKey, Arc<ModelEntry>)] {
        &self.entries
    }

    /// The largest query size decomposition targets.
    pub fn max_covered_size(&self) -> usize {
        self.max_covered_size
    }

    /// The `(key, bytes)` footprint of every model entry in routing order —
    /// what the eviction policy ranks.
    pub fn entry_sizes(&self) -> Vec<(ModelKey, usize)> {
        self.entries.iter().map(|(key, e)| (*key, e.memory_bytes())).collect()
    }

    /// Memory-budgeted eviction (paper §IV: "an existing model may be
    /// dropped"): returns a framework whose model set fits `budget_bytes`
    /// (summary included) by dropping the entries least used by the observed
    /// workload, plus the number of entries dropped.
    ///
    /// `usage` is the per-cell query count a `WorkloadMonitor` observed
    /// (`DriftReport::cell_counts`-style pairs). Each entry's score is the
    /// total count over the cells its key covers; entries are dropped in
    /// ascending score order — the workload-dominant models go last. An entry
    /// is **never** dropped while it is the last remaining cover for a cell
    /// with nonzero observed count, so eviction may stop above budget rather
    /// than uncover live traffic. Ties break toward the larger entry (frees
    /// more per drop), then toward the later-added one (extension models
    /// before the base set).
    ///
    /// Surviving entries are shared by `Arc` and keep their relative routing
    /// order, so every query still answered routes to the same model and
    /// estimates stay bitwise-identical. `self` is untouched; the caller
    /// publishes the result atomically (`ModelHandle::swap`), exactly like a
    /// retrain.
    pub fn evict_to_budget(&self, budget_bytes: usize, usage: &[((QueryShape, usize), u64)]) -> (Lmkg, usize) {
        let mut live: Vec<usize> = (0..self.entries.len()).collect();
        let mut total = self.total_memory_bytes();
        let score = |i: usize| -> u64 {
            let (key, entry) = &self.entries[i];
            usage
                .iter()
                .filter(|&&((shape, size), _)| key.matches(shape, size, entry.exact_size_only()))
                .map(|&(_, count)| count)
                .sum()
        };
        let mut evicted = 0usize;
        while total > budget_bytes {
            // An entry is removable unless some nonzero-count cell it covers
            // would be left with no covering entry at all.
            let removable = |i: usize| -> bool {
                let (key, entry) = &self.entries[i];
                usage
                    .iter()
                    .filter(|&&((shape, size), count)| count > 0 && key.matches(shape, size, entry.exact_size_only()))
                    .all(|&((shape, size), _)| {
                        live.iter().any(|&j| {
                            j != i
                                && self.entries[j]
                                    .0
                                    .matches(shape, size, self.entries[j].1.exact_size_only())
                        })
                    })
            };
            let Some(&victim) = live.iter().filter(|&&i| removable(i)).min_by(|&&a, &&b| {
                score(a)
                    .cmp(&score(b))
                    .then(self.entries[b].1.memory_bytes().cmp(&self.entries[a].1.memory_bytes()))
                    .then(b.cmp(&a))
            }) else {
                break; // Every remaining entry is the last cover for live traffic.
            };
            total -= self.entries[victim].1.memory_bytes();
            live.retain(|&i| i != victim);
            evicted += 1;
        }
        let entries = live
            .iter()
            .map(|&i| (self.entries[i].0, Arc::clone(&self.entries[i].1)))
            .collect();
        (
            // The decomposition target is left unchanged: surviving-model
            // routing stays bitwise-identical, and queries whose model was
            // dropped decompose exactly as before (summary fallback).
            Lmkg {
                entries,
                summary: Arc::clone(&self.summary),
                max_covered_size: self.max_covered_size,
            },
            evicted,
        )
    }

    /// Number of trained models.
    pub fn model_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether some model directly covers `(shape, size)` — the coverage
    /// predicate the workload monitor (§IV) uses to decide when a new model
    /// should be created.
    pub fn covers(&self, shape: QueryShape, size: usize) -> bool {
        self.entries
            .iter()
            .any(|(key, entry)| key.matches(shape, size, entry.exact_size_only()))
    }

    /// The statistics block (exposed for diagnostics).
    pub fn summary(&self) -> &GraphSummary {
        &self.summary
    }

    /// Execution phase for one query: a batch of one through
    /// [`Lmkg::estimate_query_batch`]. Shared (`&self`) access: any number of
    /// threads can estimate over one `Lmkg` concurrently.
    pub fn estimate_query(&self, query: &Query) -> f64 {
        self.estimate_query_batch(std::slice::from_ref(query))[0]
    }

    /// Execution phase (Fig. 1, bottom): a query goes to the first model
    /// that covers its type and size and accepts it; otherwise it is
    /// decomposed and its parts' estimates are combined under join
    /// uniformity. The slice is grouped by covering model ([`ModelKey`]) and
    /// each group runs **one** batched forward. The sub-queries of the
    /// *whole batch*'s decomposed queries are grouped and forwarded the same
    /// way, so even a fully uncovered workload runs one forward per model,
    /// not one per sub-query. A query's estimate does not depend on the rest
    /// of the batch.
    pub fn estimate_query_batch(&self, queries: &[Query]) -> Vec<f64> {
        let refs: Vec<&Query> = queries.iter().collect();
        let mut out = self.route_batch(&refs);

        // Query Decomposition step for the queries every model rejected.
        let mut parts_all: Vec<Query> = Vec::new();
        // (query index, first part, part count) per decomposed query.
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..queries.len() {
            if out[i].is_some() {
                continue;
            }
            let parts = decompose::decompose(&queries[i], self.max_covered_size.max(1));
            if parts.len() == 1 {
                // Decomposition could not simplify (e.g. an unsupported
                // variable pattern at a covered size): statistics fallback.
                out[i] = Some(self.summary.estimate_query_independent(&queries[i]));
            } else {
                spans.push((i, parts_all.len(), parts.len()));
                parts_all.extend(parts);
            }
        }
        if !spans.is_empty() {
            // All sub-queries of all decomposed queries, batched by model.
            let part_refs: Vec<&Query> = parts_all.iter().collect();
            let part_ests = self.route_batch(&part_refs);
            for &(i, start, len) in &spans {
                let parts = &parts_all[start..start + len];
                out[i] = Some(self.combine_decomposed(parts, &part_ests[start..start + len]));
            }
        }
        out.into_iter().map(|v| v.expect("every query answered")).collect()
    }

    /// Combines sub-query estimates under join uniformity: the product of
    /// part estimates (statistics fallback where no model answered), with
    /// [`GraphSummary::join_uniformity`] applied to each part's distinct
    /// variables — so a variable shared by `n` parts divides by its domain
    /// size `n − 1` times.
    fn combine_decomposed(&self, parts: &[Query], ests: &[Option<f64>]) -> f64 {
        let mut product = 1.0f64;
        let mut vars: Vec<JoinVar> = Vec::new();
        for (part, est) in parts.iter().zip(ests) {
            let est = est.unwrap_or_else(|| self.summary.estimate_query_independent(part));
            product *= est.max(1e-12);
            let first = vars.len();
            for var in part.triples.iter().flat_map(JoinVar::of) {
                if !vars[first..].contains(&var) {
                    vars.push(var);
                }
            }
        }
        self.summary.join_uniformity(product, vars).max(1.0)
    }

    /// Routes a slice through the model entries, batching per entry: each
    /// entry batch-answers the still-unanswered queries its key covers. A
    /// query rejected by one model (encoder or shape/size mismatch) stays
    /// eligible for later entries. `None` means no model answered.
    fn route_batch(&self, queries: &[&Query]) -> Vec<Option<f64>> {
        let mut out: Vec<Option<f64>> = vec![None; queries.len()];
        let mut remaining: Vec<usize> = (0..queries.len()).collect();
        for (key, entry) in &self.entries {
            if remaining.is_empty() {
                break;
            }
            let exact = entry.exact_size_only();
            let (candidates, rest): (Vec<usize>, Vec<usize>) = remaining
                .iter()
                .partition(|&&i| key.matches(queries[i].shape(), queries[i].size(), exact));
            if candidates.is_empty() {
                continue;
            }
            let refs: Vec<&Query> = candidates.iter().map(|&i| queries[i]).collect();
            let mut failed: Vec<usize> = Vec::new();
            for (&i, result) in candidates.iter().zip(entry.answer_batch(&refs)) {
                match result {
                    Some(est) => out[i] = Some(est),
                    None => failed.push(i),
                }
            }
            remaining = rest;
            remaining.extend(failed);
            remaining.sort_unstable();
        }
        out
    }

    /// A quantized view of the framework: every model entry's weights are
    /// frozen at `mode` (int8 per-channel or bf16, f32 accumulation) and the
    /// summary is shared. The original is untouched — the serving layer swaps
    /// between the two `Lmkg`s atomically exactly like a retrain, and
    /// [`Lmkg::total_memory_bytes`] of the result reports the genuinely
    /// smaller footprint (the frozen entries own no f32 weights). Routing
    /// metadata (keys, order, coverage) is carried over verbatim, so every
    /// query routes to the same entry it would in the original.
    pub fn quantized(&self, mode: QuantMode) -> Lmkg {
        let entries = self
            .entries
            .iter()
            .map(|(key, entry)| {
                // Already frozen entries are shared as-is.
                let q = entry.quantized(mode).map_or_else(|| Arc::clone(entry), Arc::new);
                (*key, q)
            })
            .collect();
        Lmkg {
            entries,
            summary: Arc::clone(&self.summary),
            max_covered_size: self.max_covered_size,
        }
    }

    /// Total memory of all models plus the summary (Table II). Parameter
    /// walking is a read-only traversal, so this — like the trait's
    /// `memory_bytes`, which now reports the same total — takes `&self`.
    pub fn total_memory_bytes(&self) -> usize {
        let models: usize = self.entries.iter().map(|(_, e)| e.memory_bytes()).sum();
        models + self.summary.memory_bytes()
    }
}

impl CardinalityEstimator for Lmkg {
    fn name(&self) -> &str {
        "LMKG"
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_query(query).max(1.0)
    }

    /// Batched override: groups the slice by covering model and dispatches
    /// one batched forward per model via [`Lmkg::estimate_query_batch`].
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        self.estimate_query_batch(queries)
            .into_iter()
            .map(|est| est.max(1.0))
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.total_memory_bytes()
    }
}

/// Runs independent model-creation jobs on scoped threads — one thread per
/// job, results in job order — and logs the wall-clock win over sequential
/// execution (summed per-thread time ÷ wall time).
///
/// Training one grouped model never depends on another, so the creation
/// phase parallelizes freely; workload generation happens inside each job
/// and overlaps too.
fn build_models_parallel<T, F>(what: &str, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // ORDERING (max 1): Relaxed fetch_add hands out disjoint training-work indices; thread::join at
    // scope exit is the synchronization point for the results
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = jobs.len();
    // Bounded worker pool, not one thread per model: each training job
    // already fans its matmuls across `available_parallelism` threads, so
    // unbounded spawning on a large grouping (specialized × many sizes)
    // would only add contention and keep every model's training workload
    // resident at once. The floor of 4 keeps some overlap on containers
    // whose cgroup under-reports the usable cores.
    let workers = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
        .max(4)
        .min(n.max(1));
    let start = Instant::now();
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let results: Vec<Mutex<Option<(T, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i].lock().expect("job slot lock").take().expect("job taken once");
                let t = Instant::now();
                let out = job();
                *results[i].lock().expect("result slot lock") = Some((out, t.elapsed().as_secs_f64()));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let timed: Vec<(T, f64)> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("model-creation job completed")
        })
        .collect();
    let summed: f64 = timed.iter().map(|(_, secs)| secs).sum();
    eprintln!(
        "lmkg: creation phase trained {n} {what} model(s) on {workers} thread(s) in {wall:.3}s wall \
         ({summed:.3}s summed across threads, {:.2}x overlap)",
        summed / wall.max(1e-9)
    );
    timed.into_iter().map(|(model, _)| model).collect()
}

/// Trains one model per key — LMKG-S or LMKG-U by `cfg.model_type` — and
/// returns the routed entries in key order. The one place the creation phase
/// turns a key into a trained model: [`Lmkg::build`] decides the keys from
/// the grouping, [`Lmkg::extend`] from the cells it is missing (`label`
/// suffixes the family name in the creation-phase log line).
///
/// Grouped models are independent (each generates its own training
/// workload), so the keys fan out across scoped threads and are joined in
/// key order — the routing order stays identical to a sequential build.
fn train_entries(
    graph: &KnowledgeGraph,
    cfg: &LmkgConfig,
    keys: Vec<ModelKey>,
    label: &str,
) -> Vec<(ModelKey, Arc<ModelEntry>)> {
    let jobs: Vec<_> = keys
        .iter()
        .map(|&key| {
            move || match cfg.model_type {
                ModelType::Supervised => Some(ModelEntry::S(train_supervised(graph, cfg, key))),
                ModelType::Unsupervised => {
                    let shape = key.shape.expect("LMKG-U keys name their shape");
                    match LmkgU::new(graph, shape, key.max_size, cfg.u_config.clone()) {
                        Ok(mut model) => {
                            model.train(graph);
                            Some(ModelEntry::U(model))
                        }
                        // The YAGO case: skip, decomposition/summary
                        // fallback will answer (§VIII drops LMKG-U for
                        // YAGO entirely).
                        Err(LmkgUError::DomainTooLarge { .. }) => None,
                    }
                }
            }
        })
        .collect();
    let family = match cfg.model_type {
        ModelType::Supervised => "LMKG-S",
        ModelType::Unsupervised => "LMKG-U",
    };
    let models = build_models_parallel(&format!("{family}{label}"), jobs);
    keys.into_iter()
        .zip(models)
        .filter_map(|(key, model)| Some((key, Arc::new(model?))))
        .collect()
}

/// Trains one LMKG-S model for a key.
///
/// All groupings use the SG-Encoding (the paper's main LMKG-S configuration,
/// §VIII-B) so that grouping comparisons vary only the grouping — Fig. 7's
/// "same configuration" requirement.
fn train_supervised(graph: &KnowledgeGraph, cfg: &LmkgConfig, key: ModelKey) -> LmkgS {
    let encoder = QueryEncoder::Sg(SgEncoder::capacity_for_size(
        graph.num_nodes(),
        graph.num_preds(),
        key.max_size,
    ));
    let mut model = LmkgS::new(encoder, cfg.s_config.clone());
    model.train(&training_workload(graph, cfg, key));
    model
}

/// The labeled queries the LMKG-S model keyed `key` trains on: the per-model
/// budget `cfg.queries_per_size` split evenly across every (shape, size)
/// cell the key covers, each cell drawn with its own seed. The one
/// definition of a training workload — the experiment harness evaluates
/// Fig. 7 on it and trains MSCN on it ("always train on the same queries as
/// LMKG-S", §VIII), so neither can drift from what [`Lmkg::build`] uses.
pub fn training_workload(graph: &KnowledgeGraph, cfg: &LmkgConfig, key: ModelKey) -> Vec<LabeledQuery> {
    let shapes: Vec<QueryShape> = match key.shape {
        Some(s) => vec![s],
        None => cfg.shapes.clone(),
    };
    let mut sizes: Vec<usize> = cfg
        .sizes
        .iter()
        .copied()
        .filter(|&k| k >= key.min_size && k <= key.max_size)
        .collect();
    if sizes.is_empty() {
        // Extension keys (workload-shift retraining) target sizes outside
        // `cfg.sizes`; train on the key's own size band.
        sizes = vec![key.max_size];
    }
    let cells = (shapes.len() * sizes.len()).max(1);
    let per_cell = (cfg.queries_per_size / cells).max(1);
    let mut data = Vec::new();
    for &shape in &shapes {
        for &k in &sizes {
            let wl = WorkloadConfig::train_default(shape, k, per_cell, cfg.workload_seed ^ ((k as u64) << 8));
            data.extend(workload::generate(graph, &wl));
        }
    }
    data
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::QErrorStats;
    use lmkg_data::{Dataset, Scale};
    use lmkg_store::{NodeTerm, PredId, PredTerm, TriplePattern, VarId};
    use std::sync::OnceLock;

    /// The graph every framework and snapshot test runs on.
    pub(crate) fn graph() -> &'static KnowledgeGraph {
        static GRAPH: OnceLock<KnowledgeGraph> = OnceLock::new();
        GRAPH.get_or_init(|| Dataset::LubmLike.generate(Scale::Ci, 1))
    }

    fn quick_s_config() -> LmkgSConfig {
        LmkgSConfig {
            hidden: vec![64],
            epochs: 40,
            dropout: 0.0,
            outlier_buffer: 4,
            ..Default::default()
        }
    }

    fn quick_u_config() -> LmkgUConfig {
        LmkgUConfig {
            hidden: 32,
            blocks: 1,
            embed_dim: 8,
            epochs: 4,
            train_samples: 1500,
            particles: 64,
            ..Default::default()
        }
    }

    /// `quick_cfg(Supervised, BySize)` — one model covering size 2 of both
    /// shapes — built once and shared by every test (here and in
    /// `snapshot`) that only needs *a* trained supervised set.
    pub(crate) fn supervised_set() -> &'static Lmkg {
        static SET: OnceLock<Lmkg> = OnceLock::new();
        SET.get_or_init(|| Lmkg::build(graph(), &quick_cfg(ModelType::Supervised, Grouping::BySize)))
    }

    /// `quick_cfg(Unsupervised, _)` — a star-2 and a chain-2 LMKG-U — built
    /// once and shared likewise.
    pub(crate) fn unsupervised_set() -> &'static Lmkg {
        static SET: OnceLock<Lmkg> = OnceLock::new();
        SET.get_or_init(|| Lmkg::build(graph(), &quick_cfg(ModelType::Unsupervised, Grouping::Specialized)))
    }

    pub(crate) fn quick_cfg(model_type: ModelType, grouping: Grouping) -> LmkgConfig {
        LmkgConfig {
            model_type,
            grouping,
            shapes: vec![QueryShape::Star, QueryShape::Chain],
            sizes: vec![2],
            queries_per_size: 300,
            s_config: quick_s_config(),
            u_config: quick_u_config(),
            workload_seed: 3,
        }
    }

    #[test]
    fn supervised_specialized_builds_four_models() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::Specialized);
        cfg.sizes = vec![2, 3];
        let lmkg = Lmkg::build(g, &cfg);
        assert_eq!(lmkg.model_count(), 4); // 2 shapes × 2 sizes
    }

    #[test]
    fn grouping_controls_model_count() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::Single);
        cfg.sizes = vec![2, 3];
        assert_eq!(Lmkg::build(g, &cfg).model_count(), 1);
        cfg.grouping = Grouping::ByType;
        assert_eq!(Lmkg::build(g, &cfg).model_count(), 2);
        cfg.grouping = Grouping::BySize;
        assert_eq!(Lmkg::build(g, &cfg).model_count(), 2);
    }

    #[test]
    fn estimates_covered_queries_reasonably() {
        let g = graph();
        let lmkg = supervised_set();
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 99);
        let test = workload::generate(g, &wl);
        let pairs: Vec<(f64, u64)> = test
            .iter()
            .take(100)
            .map(|lq| (lmkg.estimate_query(&lq.query), lq.cardinality))
            .collect();
        let stats = QErrorStats::from_pairs(pairs).unwrap();
        assert!(stats.median < 8.0, "median q-error {}", stats.median);
    }

    #[test]
    fn uncovered_size_is_decomposed() {
        let g = graph();
        let lmkg = supervised_set(); // only size 2
                                     // Star of size 4 → decomposed into two size-2 stars.
        let q = Query::new(
            (0..4)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(PredId(i % g.num_preds() as u32)),
                        NodeTerm::Var(VarId(1 + i as u16)),
                    )
                })
                .collect(),
        );
        let est = lmkg.estimate_query(&q);
        assert!(est.is_finite() && est >= 1.0);
    }

    #[test]
    fn composite_query_is_decomposed() {
        let lmkg = supervised_set();
        // star(2) at ?0 + chain edge from ?1: shape Other.
        let q = Query::new(vec![
            TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Bound(PredId(0)),
                NodeTerm::Var(VarId(1)),
            ),
            TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Bound(PredId(1)),
                NodeTerm::Var(VarId(2)),
            ),
            TriplePattern::new(
                NodeTerm::Var(VarId(1)),
                PredTerm::Bound(PredId(2)),
                NodeTerm::Var(VarId(3)),
            ),
        ]);
        assert_eq!(q.shape(), QueryShape::Other);
        let est = lmkg.estimate_query(&q);
        assert!(est.is_finite() && est >= 1.0);
    }

    #[test]
    fn unsupervised_framework_routes_by_exact_size() {
        let g = graph();
        let lmkg = unsupervised_set();
        assert_eq!(lmkg.model_count(), 2); // star-2, chain-2
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 5);
        let test = workload::generate(g, &wl);
        let est = lmkg.estimate_query(&test[0].query);
        assert!(est.is_finite() && est >= 1.0);
    }

    #[test]
    fn unsupervised_domain_guard_skips_models() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Unsupervised, Grouping::Specialized);
        cfg.u_config.max_node_domain = 2; // force the YAGO path
        let lmkg = Lmkg::build(g, &cfg);
        assert_eq!(lmkg.model_count(), 0);
        // Still answers via the statistics fallback.
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 5);
        let test = workload::generate(g, &wl);
        assert!(lmkg.estimate_query(&test[0].query) >= 1.0);
    }

    #[test]
    fn batched_routing_matches_per_query_bitwise() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::BySize);
        cfg.sizes = vec![2, 3];
        let lmkg = Lmkg::build(g, &cfg);

        // Covered sizes, an uncovered size (decomposition), and a composite
        // shape (decomposition) all mixed into one batch.
        let mut queries: Vec<Query> = Vec::new();
        for (shape, size) in [(QueryShape::Star, 2), (QueryShape::Chain, 3), (QueryShape::Star, 3)] {
            let wl = WorkloadConfig::test_default(shape, size, 11);
            queries.extend(workload::generate(g, &wl).into_iter().take(8).map(|lq| lq.query));
        }
        queries.push(Query::new(
            (0..4)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(PredId(i % g.num_preds() as u32)),
                        NodeTerm::Var(VarId(1 + i as u16)),
                    )
                })
                .collect(),
        ));

        let looped: Vec<f64> = queries.iter().map(|q| lmkg.estimate_query(q)).collect();
        let batched = lmkg.estimate_query_batch(&queries);
        assert_eq!(batched, looped, "a batch must route each query as a batch of one does");
    }

    /// A star of `arms` bound-predicate triples around `?0`, predicates
    /// drawn cyclically from `base`.
    fn bound_star(arms: usize, base: u32) -> Query {
        let np = graph().num_preds() as u32;
        Query::new(
            (0..arms)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(PredId((base + i as u32) % np)),
                        NodeTerm::Var(VarId(1 + i as u16)),
                    )
                })
                .collect(),
        )
    }

    /// star(2) at `?0` plus a chain edge from `?1`: shape `Other`, three
    /// triples.
    fn composite() -> Query {
        Query::new(vec![
            TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Bound(PredId(0)),
                NodeTerm::Var(VarId(1)),
            ),
            TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Bound(PredId(1)),
                NodeTerm::Var(VarId(2)),
            ),
            TriplePattern::new(
                NodeTerm::Var(VarId(1)),
                PredTerm::Bound(PredId(2)),
                NodeTerm::Var(VarId(3)),
            ),
        ])
    }

    /// The first size-2 query of the `shape` test workload drawn with `seed`.
    fn first_test_query(shape: QueryShape, seed: u64) -> Query {
        let wl = WorkloadConfig::test_default(shape, 2, seed);
        workload::generate(graph(), &wl).swap_remove(0).query
    }

    #[test]
    fn batched_decomposition_matches_per_query_bitwise() {
        let g = graph();
        let lmkg = supervised_set(); // covers size 2 only

        // A batch dominated by queries no model covers: size-4 and size-6
        // stars (decomposed into covered size-2 stars), plus an `Other`-shaped
        // composite. All their sub-queries must flow through the *batched*
        // forwards and still reproduce, bitwise, each query estimated as a
        // batch of one.
        let mut queries = vec![
            bound_star(4, 0),
            bound_star(6, 1),
            bound_star(4, 2),
            bound_star(5, 0),
            composite(),
        ];
        // A couple of covered queries mixed in so both paths are active.
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 11);
        queries.extend(workload::generate(g, &wl).into_iter().take(4).map(|lq| lq.query));

        let looped: Vec<f64> = queries.iter().map(|q| lmkg.estimate_query(q)).collect();
        let batched = lmkg.estimate_query_batch(&queries);
        assert_eq!(
            batched.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            looped.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            "a batch must decompose each query as a batch of one does"
        );
    }

    /// Pins `Lmkg::estimate_query` on every execution branch: a covered
    /// star and chain, decomposed stars, the composite, the summary fallback
    /// (`?0 p0 ?1 . ?2 p1 ?0` is `Other`-shaped and decomposes into itself),
    /// and a covered LMKG-U query. The parity suites compare a batch with
    /// batches of one; these constants catch a drift both sides would share.
    /// Regenerate only for an intended numerics change.
    #[test]
    fn estimates_are_pinned() {
        let (s, u) = (supervised_set(), unsupervised_set());
        let fallback = Query::new(vec![
            TriplePattern::new(
                NodeTerm::Var(VarId(0)),
                PredTerm::Bound(PredId(0)),
                NodeTerm::Var(VarId(1)),
            ),
            TriplePattern::new(
                NodeTerm::Var(VarId(2)),
                PredTerm::Bound(PredId(1)),
                NodeTerm::Var(VarId(0)),
            ),
        ]);
        assert_eq!(decompose::decompose(&fallback, s.max_covered_size()).len(), 1);
        assert!(!s.covers(fallback.shape(), fallback.size()));
        let cases = [
            (s, first_test_query(QueryShape::Star, 11)),
            (s, first_test_query(QueryShape::Chain, 11)),
            (s, bound_star(4, 0)),
            (s, bound_star(6, 1)),
            (s, composite()),
            (s, fallback),
            (u, first_test_query(QueryShape::Star, 3)),
        ];
        let got: Vec<u64> = cases.iter().map(|(lmkg, q)| lmkg.estimate_query(q).to_bits()).collect();
        let want = [
            0x407c_2540_75f1_c846,
            0x4031_48cb_089a_ef1a,
            0x4062_3f17_44d4_3413,
            0x4029_8515_414f_1378,
            0x4059_f876_1f44_efb9,
            0x401e_e93f_c745_4400,
            0x407e_06ba_35e1_9cda,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    /// Parts that share a predicate variable divide by `num_preds` for it,
    /// and by `num_nodes` for a shared node variable: the one
    /// join-uniformity rule the summary also applies within a query.
    #[test]
    fn shared_predicate_variable_divides_by_the_predicate_domain() {
        let lmkg = supervised_set(); // covers size 2 only
        let p = PredTerm::Var(VarId(9));
        let arm = |p: PredTerm, o: u16| TriplePattern::new(NodeTerm::Var(VarId(0)), p, NodeTerm::Var(VarId(o)));
        let q = Query::new(vec![
            arm(p, 1),
            arm(PredTerm::Bound(PredId(0)), 2),
            arm(p, 3),
            arm(PredTerm::Bound(PredId(1)), 4),
        ]);
        let parts = decompose::decompose(&q, lmkg.max_covered_size());
        assert_eq!(parts.len(), 2);
        assert!(parts
            .iter()
            .all(|part| part.size() == 2 && part.triples.iter().any(|t| t.p == p)));
        let mut product = 1.0f64;
        for part in &parts {
            product *= lmkg.estimate_query(part).max(1e-12);
        }
        let summary = lmkg.summary();
        let want = product / summary.num_nodes() as f64 / summary.num_preds() as f64;
        assert!(want > 1.0, "the floor of 1 would hide the divisor: {want}");
        assert_eq!(lmkg.estimate_query(&q).to_bits(), want.to_bits(), "{want}");
    }

    #[test]
    fn parallel_creation_phase_is_deterministic() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::Specialized);
        cfg.sizes = vec![2, 3];
        let a = Lmkg::build(g, &cfg);
        let b = Lmkg::build(g, &cfg);
        assert_eq!(a.model_count(), b.model_count());
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 23);
        let queries: Vec<Query> = workload::generate(g, &wl)
            .into_iter()
            .take(16)
            .map(|lq| lq.query)
            .collect();
        let ea = a.estimate_query_batch(&queries);
        let eb = b.estimate_query_batch(&queries);
        assert_eq!(
            ea.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            eb.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            "scoped-thread training must not change results run to run"
        );
    }

    #[test]
    fn extend_trains_only_the_missing_cells() {
        let g = graph();
        let cfg = quick_cfg(ModelType::Supervised, Grouping::BySize); // covers size 2 only
        let base = supervised_set();
        assert!(!base.covers(QueryShape::Star, 4));

        let extended = base.extend(g, &[(QueryShape::Star, 4)], &cfg);
        assert_eq!(extended.model_count(), base.model_count() + 1);
        assert!(extended.covers(QueryShape::Star, 4));
        assert!(
            !extended.covers(QueryShape::Chain, 4),
            "only the requested cell is trained"
        );
        // The original framework is untouched (still serving the old set).
        assert!(!base.covers(QueryShape::Star, 4));

        // Everything the base covered routes identically in the extension —
        // the entries are shared, not retrained.
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 31);
        let covered: Vec<Query> = workload::generate(g, &wl)
            .into_iter()
            .take(12)
            .map(|lq| lq.query)
            .collect();
        assert_eq!(
            base.estimate_query_batch(&covered)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            extended
                .estimate_query_batch(&covered)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
        );

        // The new cell now answers through a model, and deterministically:
        // extending twice yields bitwise-identical estimators.
        let wl4 = WorkloadConfig::test_default(QueryShape::Star, 4, 31);
        let shifted: Vec<Query> = workload::generate(g, &wl4)
            .into_iter()
            .take(8)
            .map(|lq| lq.query)
            .collect();
        assert!(!shifted.is_empty());
        let again = base.extend(g, &[(QueryShape::Star, 4)], &cfg);
        assert_eq!(
            extended
                .estimate_query_batch(&shifted)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            again
                .estimate_query_batch(&shifted)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn extend_skips_covered_duplicate_and_untrainable_cells() {
        let g = graph();
        let cfg = quick_cfg(ModelType::Supervised, Grouping::BySize);
        let base = supervised_set();
        let extended = base.extend(
            g,
            &[
                (QueryShape::Star, 2),  // already covered
                (QueryShape::Other, 4), // untrainable shape
                (QueryShape::Single, 1),
                (QueryShape::Chain, 4), // the one real target…
                (QueryShape::Chain, 4), // …listed twice
            ],
            &cfg,
        );
        assert_eq!(extended.model_count(), base.model_count() + 1);
        assert!(extended.covers(QueryShape::Chain, 4));
    }

    #[test]
    fn extend_unsupervised_respects_domain_guard() {
        let g = graph();
        let cfg = quick_cfg(ModelType::Unsupervised, Grouping::Specialized);
        let base = unsupervised_set();
        assert_eq!(base.model_count(), 2);
        let extended = base.extend(g, &[(QueryShape::Star, 3)], &cfg);
        assert_eq!(extended.model_count(), 3);
        assert!(extended.covers(QueryShape::Star, 3));

        let mut guarded = cfg.clone();
        guarded.u_config.max_node_domain = 2; // force the YAGO skip path
        let skipped = base.extend(g, &[(QueryShape::Chain, 3)], &guarded);
        assert_eq!(
            skipped.model_count(),
            base.model_count(),
            "guarded cell is skipped, not panicked"
        );
        // A skipped cell must leave the framework untouched — in particular
        // the decomposition granularity: size-3+ queries still split exactly
        // as the base splits them (bitwise), instead of decomposing against
        // a phantom size-3 target no model serves.
        let wl = WorkloadConfig::test_default(QueryShape::Chain, 3, 19);
        let probes: Vec<Query> = workload::generate(g, &wl)
            .into_iter()
            .take(6)
            .map(|lq| lq.query)
            .collect();
        assert_eq!(
            base.estimate_query_batch(&probes)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            skipped
                .estimate_query_batch(&probes)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn config_cells_is_the_shape_size_product() {
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::BySize);
        cfg.sizes = vec![2, 3];
        assert_eq!(
            cfg.cells(),
            vec![
                (QueryShape::Star, 2),
                (QueryShape::Star, 3),
                (QueryShape::Chain, 2),
                (QueryShape::Chain, 3),
            ]
        );
    }

    /// `Lmkg::quantized` must preserve routing/coverage, keep estimates close
    /// to the f32 framework on covered queries, and genuinely shrink the
    /// reported model memory.
    #[test]
    fn quantized_framework_tracks_f32_and_shrinks() {
        let g = graph();
        let lmkg = supervised_set();
        let q = lmkg.quantized(lmkg_nn::quant::QuantMode::Int8);

        assert_eq!(q.model_count(), lmkg.model_count());
        assert_eq!(q.covers(QueryShape::Star, 2), lmkg.covers(QueryShape::Star, 2));
        assert!(
            (q.total_memory_bytes() - q.summary().memory_bytes()) * 3
                < lmkg.total_memory_bytes() - lmkg.summary().memory_bytes(),
            "quantized models must report >3× smaller: {} vs {}",
            q.total_memory_bytes(),
            lmkg.total_memory_bytes()
        );

        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 99);
        let test = workload::generate(g, &wl);
        for lq in test.iter().take(40) {
            let f = lmkg.estimate_query(&lq.query);
            let e = q.estimate_query(&lq.query);
            let ratio = (e / f).max(f / e);
            assert!(ratio < 1.15, "estimate {e} drifted {ratio}× from f32 {f}");
        }

        // Quantizing twice shares the already-quantized entries.
        let again = q.quantized(lmkg_nn::quant::QuantMode::Int8);
        assert_eq!(again.total_memory_bytes(), q.total_memory_bytes());
    }

    #[test]
    fn memory_accounting() {
        let lmkg = supervised_set();
        let mb = lmkg.total_memory_bytes();
        assert!(mb > 1000, "memory {mb}, models {}", lmkg.model_count());
    }

    #[test]
    fn covers_reflects_trained_models() {
        let lmkg = supervised_set(); // size 2 only
        assert!(lmkg.covers(QueryShape::Star, 2));
        assert!(lmkg.covers(QueryShape::Chain, 2));
        assert!(!lmkg.covers(QueryShape::Star, 8));
    }

    #[test]
    fn monitor_integration_detects_uncovered_workload() {
        use crate::monitor::WorkloadMonitor;
        let lmkg = supervised_set();
        let mut monitor = WorkloadMonitor::new(50, &[(QueryShape::Star, 2), (QueryShape::Chain, 2)]);
        // A workload of size-4 stars the models do not cover.
        let q = Query::new(
            (0..4)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(PredId(i)),
                        NodeTerm::Var(VarId(1 + i as u16)),
                    )
                })
                .collect(),
        );
        for _ in 0..50 {
            monitor.observe(&q);
        }
        let report = monitor.report(|(shape, size)| lmkg.covers(shape, size));
        assert!(report.should_retrain(0.3, 0.2), "drift must be detected: {report:?}");
    }
}
