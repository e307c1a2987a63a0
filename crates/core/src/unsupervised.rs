//! LMKG-U: the unsupervised, data-driven estimator (paper §VI-B).
//!
//! A ResMADE autoregressive model is trained on *bound* subgraph patterns
//! (star tuples or chain walks) with per-term embeddings. At query time, the
//! joint density of the query's bound terms — with unbound positions
//! marginalized by **likelihood-weighted forward sampling** — is multiplied
//! by the tuple-space total `N` to yield the cardinality:
//! `card(q) = P(bound terms of q) · N`. That sampler exists once
//! (`LmkgU::estimate_bounds`): [`LmkgU::estimate_query_batch`] loops it over
//! a slice with one shared inference workspace and one set of particle
//! buffers, and [`LmkgU::estimate_query`] is a batch of one.
//!
//! Particles whose decided prefixes are identical share one forward row and
//! one normaliser: every particle starts in one group (position 0 and every
//! bound position before the first sampled one forward a single row), and a
//! group splits only where its particles sample different values. The bits
//! are those of forwarding every particle on its own, because a forward row
//! depends only on its own ids (on every matmul path and weight store), the
//! uniforms are drawn one per particle in particle order, and a group's exps
//! and the walk's subtractions are the ones each particle would compute.
//!
//! Positions follow the term order of the paper's pattern-bound encoding
//! (§V-A2), `[n₁, p₁, n₂, …]` — identical for stars and chains; only the
//! tuple space differs. Which queries a `(shape, k)` model answers, and
//! where their bound terms sit, is the tuple space's rule and lives in the
//! store: [`counter::tuple_bounds`], the same function that decides when
//! the exact counter may count tuples. This module owns only the model and
//! its sampler.

use lmkg_data::sampler::{ChainSampler, SamplingStrategy, StarSampler};
use lmkg_nn::loss;
use lmkg_nn::optimizer::{Adam, Trainer};
use lmkg_nn::quant::QuantMode;
use lmkg_nn::workspace::Workspace;
use lmkg_nn::{Made, MadeConfig, Parameterized};
use lmkg_store::counter::{self, TupleBoundsError};
use lmkg_store::{KnowledgeGraph, Query, QueryShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why LMKG-U cannot be built over a graph. (A query it cannot answer is a
/// [`TupleBoundsError`]: the tuple space decides that, not the model.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LmkgUError {
    /// The node domain exceeds the configured limit — the YAGO situation:
    /// "LMKG-U is not able to learn the complete set of queries" (§VIII).
    DomainTooLarge {
        /// Number of distinct nodes in the graph.
        nodes: usize,
        /// Configured maximum.
        limit: usize,
    },
}

impl std::fmt::Display for LmkgUError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LmkgUError::DomainTooLarge { nodes, limit } => {
                write!(f, "node domain {nodes} exceeds LMKG-U limit {limit}")
            }
        }
    }
}

impl std::error::Error for LmkgUError {}

/// LMKG-U hyperparameters.
#[derive(Debug, Clone)]
pub struct LmkgUConfig {
    /// Hidden width of the ResMADE.
    pub hidden: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Term embedding dimensionality (paper: 32).
    pub embed_dim: usize,
    /// Training epochs (paper: 5).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of bound patterns sampled for training.
    pub train_samples: usize,
    /// Pattern sampling strategy (§VII-A; the paper uses random walks).
    pub strategy: SamplingStrategy,
    /// Particles for likelihood-weighted forward sampling.
    pub particles: usize,
    /// Refuse construction above this node-domain size (the YAGO guard).
    pub max_node_domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LmkgUConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            blocks: 2,
            embed_dim: 32,
            epochs: 5,
            batch_size: 256,
            learning_rate: 2e-3,
            train_samples: 10_000,
            strategy: SamplingStrategy::RandomWalk,
            particles: 256,
            max_node_domain: 500_000,
            seed: 0,
        }
    }
}

/// The most particles a snapshot may give an LMKG-U estimator: 8× the
/// largest preset (512). Every estimate sizes its sampler buffers by the
/// particle count, so a load refuses a larger stored count as corrupt.
pub const MAX_PARTICLES: usize = 4096;

/// Why a training entry point panics on an estimator without training state.
const FROZEN: &str = "LMKG-U is frozen to int8/bf16 weights: it carries no training state";

/// The unsupervised LMKG estimator for one `(shape, size)` pair — the
/// paper's LMKG-U grouping ("query size and type grouping", §VIII-B).
///
/// Trained (`&mut self`) once, then frozen: every estimation entry point
/// takes `&self` — the MADE forwards run through the shared-read inference
/// path with per-call workspaces, and the particle RNG is derived per query
/// (never shared state) — so a trained `LmkgU` behind an `Arc` serves
/// concurrent estimates without locks.
///
/// The ResMADE's weights are f32 while the estimator trains;
/// [`LmkgU::quantized`] returns the same estimator over int8/bf16 weights,
/// with the training state dropped — training a frozen estimator panics.
pub struct LmkgU {
    made: Made,
    shape: QueryShape,
    k: usize,
    n_total: f64,
    segments: Vec<usize>,
    /// Particles for likelihood-weighted forward sampling.
    particles: usize,
    /// Seed of the per-query particle RNG streams.
    seed: u64,
    /// Hyperparameters and the trainer (Adam and the sampling/shuffle RNG):
    /// present exactly while the weights are trainable f32.
    trainer: Option<(LmkgUConfig, Trainer)>,
}

impl LmkgU {
    /// Builds an untrained model for `shape` queries of exactly `k` triples.
    pub fn new(graph: &KnowledgeGraph, shape: QueryShape, k: usize, cfg: LmkgUConfig) -> Result<Self, LmkgUError> {
        assert!(
            matches!(shape, QueryShape::Star | QueryShape::Chain),
            "LMKG-U answers star/chain queries"
        );
        assert!(k >= 1);
        if graph.num_nodes() > cfg.max_node_domain {
            return Err(LmkgUError::DomainTooLarge {
                nodes: graph.num_nodes(),
                limit: cfg.max_node_domain,
            });
        }
        let n_total = match shape {
            QueryShape::Star => counter::star_tuple_total(graph, k),
            QueryShape::Chain => counter::chain_tuple_total(graph, k),
            _ => unreachable!(),
        };
        Ok(Self::from_parts(
            cfg,
            shape,
            k,
            n_total,
            graph.num_nodes(),
            graph.num_preds(),
        ))
    }

    /// Assembles an untrained f32 estimator: the architecture is built
    /// deterministically from `cfg` (same seed → same init → same parameter
    /// visitation order), with the graph-dependent inputs (`vocab_sizes`,
    /// `n_total`) supplied explicitly so a snapshot restore needs no
    /// [`KnowledgeGraph`] — it restores the trained weights afterwards via
    /// [`LmkgU::load_made_params`].
    pub(crate) fn from_parts(
        cfg: LmkgUConfig,
        shape: QueryShape,
        k: usize,
        n_total: f64,
        node_vocab: usize,
        pred_vocab: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let made = Made::new(&mut rng, made_config(&cfg, k, node_vocab, pred_vocab));
        let trainer = Trainer::new(Adam::new(cfg.learning_rate), rng, cfg.batch_size);
        Self {
            segments: made.segments().to_vec(),
            made,
            shape,
            k,
            n_total,
            particles: cfg.particles,
            seed: cfg.seed,
            trainer: Some((cfg, trainer)),
        }
    }

    /// Reassembles a frozen estimator from snapshot parts (the int8/bf16
    /// snapshot entries carry no training config; segments are recovered
    /// from the ResMADE itself).
    pub(crate) fn from_frozen_parts(
        made: Made,
        shape: QueryShape,
        k: usize,
        n_total: f64,
        particles: usize,
        seed: u64,
    ) -> Self {
        Self {
            segments: made.segments().to_vec(),
            made,
            shape,
            k,
            n_total,
            particles,
            seed,
            trainer: None,
        }
    }

    /// The hyperparameters this estimator trains with; `None` once the
    /// weights are frozen to int8/bf16.
    pub fn config(&self) -> Option<&LmkgUConfig> {
        self.trainer.as_ref().map(|(cfg, _)| cfg)
    }

    /// The reduced-precision store the weights are frozen in, `None` for
    /// trainable f32.
    pub fn mode(&self) -> Option<QuantMode> {
        self.made.quant_mode()
    }

    /// The underlying ResMADE (snapshots persist it).
    pub(crate) fn made(&self) -> &Made {
        &self.made
    }

    /// The node/predicate vocabulary sizes the ResMADE was built over.
    pub(crate) fn vocab_sizes(&self) -> (usize, usize) {
        let v = &self.made.config().vocab_sizes;
        (v[0], v[1])
    }

    /// Restores the ResMADE parameters from a byte slice (snapshot restore).
    pub(crate) fn load_made_params(&mut self, r: &mut &[u8]) -> Result<(), lmkg_nn::serialize::LoadError> {
        lmkg_nn::serialize::load_params(&mut self.made, r)
    }

    /// Particle count for likelihood-weighted sampling.
    pub(crate) fn particles(&self) -> usize {
        self.particles
    }

    /// The particle-RNG seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The tuple size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The model topology.
    pub fn shape(&self) -> QueryShape {
        self.shape
    }

    /// The tuple-space total `N` used to de-normalize densities.
    pub fn n_total(&self) -> f64 {
        self.n_total
    }

    /// Samples the training tuples per the configured strategy (§VII-A).
    pub fn sample_training_tuples(&mut self, graph: &KnowledgeGraph) -> Vec<Vec<usize>> {
        let (cfg, Trainer { rng, .. }) = self.trainer.as_mut().expect(FROZEN);
        let mut out = Vec::with_capacity(cfg.train_samples);
        match self.shape {
            QueryShape::Star => {
                let sampler = StarSampler::new(graph, self.k, cfg.strategy);
                for _ in 0..cfg.train_samples {
                    out.push(sampler.sample(rng).to_ids());
                }
            }
            QueryShape::Chain => {
                let sampler = ChainSampler::new(graph, self.k, cfg.strategy);
                let mut attempts = 0usize;
                while out.len() < cfg.train_samples && attempts < cfg.train_samples * 20 {
                    attempts += 1;
                    if let Some(t) = sampler.sample(rng) {
                        out.push(t.to_ids());
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    /// Runs one training epoch over a fresh `0..n` order of `tuples`;
    /// returns the mean NLL.
    pub fn train_epoch(&mut self, tuples: &[Vec<usize>]) -> f32 {
        let (_, trainer) = self.trainer.as_mut().expect(FROZEN);
        let segments = &self.segments;
        let mut order: Vec<usize> = (0..tuples.len()).collect();
        trainer.epoch(&mut self.made, &mut order, |made, chunk| {
            let batch: Vec<Vec<usize>> = chunk.iter().map(|&i| tuples[i].clone()).collect();
            let logits = made.forward_ids(&batch);
            let (l, grad) = loss::segmented_cross_entropy(&logits, segments, &batch);
            made.backward_ids(&grad);
            Some(l)
        })
    }

    /// Samples training data and trains for the configured epochs. Returns
    /// the per-epoch mean NLL. Adam's moments are released afterwards, so a
    /// trained model does not carry them.
    pub fn train(&mut self, graph: &KnowledgeGraph) -> Vec<f32> {
        let tuples = self.sample_training_tuples(graph);
        let epochs = self.config().expect(FROZEN).epochs;
        let losses = (0..epochs).map(|_| self.train_epoch(&tuples)).collect();
        self.trainer.as_mut().expect(FROZEN).1.opt.reset();
        losses
    }

    /// Maps a query onto per-position bound values: the tuple space's own
    /// rule, [`counter::tuple_bounds`].
    fn query_bounds(&self, query: &Query) -> Result<Vec<Option<usize>>, TupleBoundsError> {
        counter::tuple_bounds(self.shape, self.k, query)
    }
}

impl LmkgU {
    /// Estimates the cardinality of one query: a batch of one through
    /// [`LmkgU::estimate_query_batch`].
    pub fn estimate_query(&self, query: &Query) -> Result<f64, TupleBoundsError> {
        self.estimate_query_batch(&[query]).swap_remove(0)
    }

    /// Estimates a batch of queries via likelihood-weighted forward sampling
    /// (§VI-B): the per-query sampler, looped over the slice with **one**
    /// workspace and one set of particle buffers for the whole call. Each
    /// result — including shape/size rejections — is independent of the
    /// rest of the batch, because each query's particle RNG stream is
    /// derived from its own bounds (`particle_rng`) and neither a recycled
    /// workspace buffer nor the reset particle buffers carry values from one
    /// query into the next.
    pub fn estimate_query_batch(&self, queries: &[&Query]) -> Vec<Result<f64, TupleBoundsError>> {
        let mut ws = Workspace::new();
        let mut buffers = Particles::default();
        queries
            .iter()
            .map(|q| Ok(self.estimate_bounds(&self.query_bounds(q)?, &mut ws, &mut buffers)))
            .collect()
    }

    /// The progressive-sampling estimator over per-position bound values —
    /// the one place bound positions become a cardinality. Each group of
    /// particles with the same decided prefix is forwarded and normalised
    /// once per position (the module docs say why the bits are those of the
    /// per-particle sampler).
    fn estimate_bounds(&self, bounds: &[Option<usize>], ws: &mut Workspace, p: &mut Particles) -> f64 {
        assert_eq!(bounds.len(), self.segments.len());
        let Some(last_bound) = bounds.iter().rposition(Option::is_some) else {
            // No bound term: the query matches every tuple.
            return self.n_total.max(1.0);
        };
        let particles = self.particles.max(1);
        let mut rng = particle_rng(self.seed, bounds);
        p.reset(particles, self.segments.len());

        for (pos, &bound) in bounds[..=last_bound].iter().enumerate() {
            // Only the current position's logit segment is needed — the
            // sliced forward avoids materializing the full (huge) output
            // layer at every autoregressive step.
            let logits = self.made.forward_ids_segment(&p.rows[..p.groups.len()], pos, ws);
            match bound {
                Some(b) => {
                    for (g, group) in p.groups.iter_mut().enumerate() {
                        group.log_w += f64::from(log_softmax_at(logits.row(g), b));
                        p.rows[g][pos] = b;
                    }
                }
                None => {
                    for u in &mut p.uniforms {
                        *u = rng.gen::<f64>();
                    }
                    for g in 0..p.groups.len() {
                        p.sample_and_split(g, pos, logits.row(g));
                    }
                }
            }
            ws.recycle(logits);
        }

        for group in &p.groups {
            let w = group.log_w.exp();
            for m in &p.members[group.start..group.end] {
                p.weights[m.particle] = w;
            }
        }
        let mean_w: f64 = p.weights.iter().sum::<f64>() / particles as f64;
        (mean_w * self.n_total).max(1.0)
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.made.param_count()
    }

    /// Model size in bytes at the stored precision.
    pub fn memory_bytes(&self) -> usize {
        self.made.memory_bytes()
    }

    /// One-shot quantization of the trained estimator: the same estimator
    /// with the ResMADE's weights frozen to int8 (per-channel scales) or
    /// bf16. The tuple-space total, routing metadata and particle-RNG
    /// derivation carry over, so only the network forwards differ; the
    /// training state is not carried. Panics if already frozen.
    pub fn quantized(&self, mode: QuantMode) -> LmkgU {
        Self::from_frozen_parts(
            self.made.quantized(mode),
            self.shape,
            self.k,
            self.n_total,
            self.particles,
            self.seed,
        )
    }
}

/// The term space of each position of a size-`k` tuple, `[n, p, n, p, n,
/// …]`: 2k+1 alternating node (0) and predicate (1) positions.
pub(crate) fn tuple_spaces(k: usize) -> Vec<usize> {
    (0..2 * k + 1).map(|pos| pos % 2).collect()
}

/// The ResMADE an f32 estimator over `k`-triple tuples and these
/// vocabularies is built with ([`LmkgU::from_parts`]).
pub(crate) fn made_config(cfg: &LmkgUConfig, k: usize, node_vocab: usize, pred_vocab: usize) -> MadeConfig {
    MadeConfig {
        vocab_sizes: vec![node_vocab.max(1), pred_vocab.max(1)],
        spaces: tuple_spaces(k),
        hidden: cfg.hidden,
        blocks: cfg.blocks,
        embed_dim: cfg.embed_dim,
    }
}

/// The RNG stream driving likelihood-weighted sampling for one query.
///
/// Derived from the model seed and the query's bound pattern rather than
/// drawn from the shared training RNG, so the stream is a function of
/// `(seed, bounds)` only, never of call history — the property that makes
/// `estimate` reproducible and lets `estimate_batch` return exactly what a
/// per-query loop would.
fn particle_rng(seed: u64, bounds: &[Option<usize>]) -> StdRng {
    let mut h = seed ^ 0x517c_c1b7_2722_0a95;
    for b in bounds {
        let v = match b {
            Some(x) => *x as u64 + 1,
            None => 0,
        };
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
    }
    StdRng::seed_from_u64(h)
}

impl crate::estimator::CardinalityEstimator for LmkgU {
    fn name(&self) -> &str {
        match self.mode() {
            None => "LMKG-U",
            Some(QuantMode::Int8) => "LMKG-U-int8",
            Some(QuantMode::Bf16) => "LMKG-U-bf16",
        }
    }

    /// Estimates via [`LmkgU::estimate_query`]; queries this model cannot
    /// answer (wrong type/size, unsupported variable pattern) report the
    /// neutral estimate 1.
    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_query(query).unwrap_or(1.0)
    }

    /// Batched override: the per-query sampler over one shared workspace via
    /// [`LmkgU::estimate_query_batch`].
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        let refs: Vec<&Query> = queries.iter().collect();
        self.estimate_query_batch(&refs)
            .into_iter()
            .map(|r| r.unwrap_or(1.0))
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        LmkgU::memory_bytes(self)
    }
}

/// Stable `log softmax(seg)[target]`.
fn log_softmax_at(seg: &[f32], target: usize) -> f32 {
    let max = seg.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let sum: f32 = seg.iter().map(|&x| (x - max).exp()).sum();
    seg[target] - max - sum.ln()
}

/// The particle buffers of the progressive sampler, reset per query and
/// reused across the queries of one [`LmkgU::estimate_query_batch`] call.
///
/// Particles that have decided the same prefix `ids[..pos]` form a group:
/// the group holds one ids row (the forward's input) and one log-weight, and
/// its particles are the `members[start..end]` slice.
#[derive(Default)]
struct Particles {
    /// One ids row per group, in group order; undecided positions hold 0.
    /// Rows past `groups.len()` are spare capacity from earlier queries.
    rows: Vec<Vec<usize>>,
    groups: Vec<Group>,
    /// Every particle exactly once, each group's members contiguous.
    members: Vec<Member>,
    /// Per particle: its uniform draw at the current unbound position.
    uniforms: Vec<f64>,
    /// Per particle: its final likelihood weight.
    weights: Vec<f64>,
    /// `exp(x - max)` over the logit segment of the group being sampled.
    exps: Vec<f64>,
}

#[derive(Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
    log_w: f64,
}

struct Member {
    particle: usize,
    /// The value drawn at the last unbound position.
    pick: usize,
}

impl Particles {
    /// One group holding every particle, with an all-zero ids row of
    /// `width` positions.
    fn reset(&mut self, particles: usize, width: usize) {
        if self.rows.is_empty() {
            self.rows.push(Vec::new());
        }
        self.rows[0].clear();
        self.rows[0].resize(width, 0);
        self.groups.clear();
        self.groups.push(Group {
            start: 0,
            end: particles,
            log_w: 0.0,
        });
        self.members.clear();
        self.members
            .extend((0..particles).map(|particle| Member { particle, pick: 0 }));
        self.uniforms.resize(particles, 0.0);
        self.weights.resize(particles, 0.0);
    }

    /// Draws position `pos` for every member of group `g` from
    /// `softmax(seg)` with its own uniform, then splits the group by the
    /// drawn value: the first value keeps `g`, every further one becomes a
    /// new group appended after the existing ones.
    fn sample_and_split(&mut self, g: usize, pos: usize, seg: &[f32]) {
        let max = seg.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        self.exps.clear();
        self.exps.extend(seg.iter().map(|&x| f64::from((x - max).exp())));
        let total: f64 = self.exps.iter().fold(0.0, |t, &e| t + e);
        let Group { start, end, log_w } = self.groups[g];
        for m in &mut self.members[start..end] {
            let mut u = self.uniforms[m.particle] * total;
            m.pick = self.exps.len() - 1;
            for (i, &e) in self.exps.iter().enumerate() {
                u -= e;
                if u <= 0.0 {
                    m.pick = i;
                    break;
                }
            }
        }
        self.members[start..end].sort_unstable_by_key(|m| m.pick);
        let mut lo = start;
        while lo < end {
            let pick = self.members[lo].pick;
            let hi = lo + self.members[lo..end].iter().take_while(|m| m.pick == pick).count();
            let child = if lo == start {
                self.groups[g].end = hi;
                g
            } else {
                let child = self.groups.len();
                self.groups.push(Group {
                    start: lo,
                    end: hi,
                    log_w,
                });
                if self.rows.len() == child {
                    self.rows.push(Vec::new());
                }
                let (parents, spare) = self.rows.split_at_mut(child);
                spare[0].clone_from(&parents[g]);
                child
            };
            self.rows[child][pos] = pick;
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{GraphBuilder, NodeId, NodeTerm, PredId, PredTerm, TriplePattern, VarId};
    use std::sync::OnceLock;

    fn v(i: u16) -> NodeTerm {
        NodeTerm::Var(VarId(i))
    }
    fn n(i: u32) -> NodeTerm {
        NodeTerm::Bound(NodeId(i))
    }
    fn p(i: u32) -> PredTerm {
        PredTerm::Bound(PredId(i))
    }

    /// A small but structured graph: two "genres" with different popularity.
    fn graph() -> &'static lmkg_store::KnowledgeGraph {
        static GRAPH: OnceLock<lmkg_store::KnowledgeGraph> = OnceLock::new();
        GRAPH.get_or_init(|| {
            let mut b = GraphBuilder::new();
            for i in 0..12 {
                let book = format!("book{i}");
                let author = format!("author{}", i % 3);
                b.add(&book, "hasAuthor", &author);
                let genre = if i < 9 { "horror" } else { "fantasy" };
                b.add(&book, "genre", genre);
            }
            b.build()
        })
    }

    fn quick_cfg() -> LmkgUConfig {
        LmkgUConfig {
            hidden: 32,
            blocks: 1,
            embed_dim: 8,
            epochs: 40,
            batch_size: 128,
            learning_rate: 5e-3,
            train_samples: 4000,
            strategy: SamplingStrategy::Uniform,
            particles: 512,
            seed: 1,
            ..Default::default()
        }
    }

    fn train_star_model() -> LmkgU {
        let mut m = LmkgU::new(graph(), QueryShape::Star, 2, quick_cfg()).unwrap();
        m.train(graph());
        m
    }

    /// The star-2 model over [`graph`], trained once and shared by every
    /// test that only needs *a* trained estimator.
    fn trained_star_model() -> (&'static lmkg_store::KnowledgeGraph, &'static LmkgU) {
        static MODEL: OnceLock<LmkgU> = OnceLock::new();
        (graph(), MODEL.get_or_init(train_star_model))
    }

    /// A chain-2 model over a ring with chords (so walks of length 2 exist),
    /// trained once.
    fn trained_ring_chain_model() -> (&'static lmkg_store::KnowledgeGraph, &'static LmkgU) {
        static RING: OnceLock<(lmkg_store::KnowledgeGraph, LmkgU)> = OnceLock::new();
        let (ring, model) = RING.get_or_init(|| {
            let mut b = GraphBuilder::new();
            for i in 0..12 {
                b.add(
                    &format!("n{i}"),
                    if i % 2 == 0 { "even" } else { "odd" },
                    &format!("n{}", (i + 1) % 12),
                );
                b.add(&format!("n{i}"), "chord", &format!("n{}", (i + 5) % 12));
            }
            let ring = b.build();
            let cfg = LmkgUConfig {
                epochs: 5,
                train_samples: 500,
                particles: 64,
                ..quick_cfg()
            };
            let mut chain = LmkgU::new(&ring, QueryShape::Chain, 2, cfg).unwrap();
            chain.train(&ring);
            (ring, chain)
        });
        (ring, model)
    }

    #[test]
    fn n_total_matches_counter() {
        let g = graph();
        let m = LmkgU::new(g, QueryShape::Star, 2, quick_cfg()).unwrap();
        assert_eq!(m.n_total(), counter::star_tuple_total(g, 2));
        let c = LmkgU::new(g, QueryShape::Chain, 2, quick_cfg()).unwrap();
        assert_eq!(c.n_total(), counter::chain_tuple_total(g, 2));
    }

    #[test]
    fn training_reduces_nll() {
        let g = graph();
        let mut m = LmkgU::new(g, QueryShape::Star, 2, quick_cfg()).unwrap();
        let tuples = m.sample_training_tuples(g);
        // Mean negative log-likelihood of the first 500 tuples.
        let nll = |m: &LmkgU| {
            let head = &tuples[..500.min(tuples.len())];
            let logits = m.made.forward_ids_infer(head, &mut Workspace::new());
            loss::segmented_cross_entropy(&logits, &m.segments, head).0
        };
        let before = nll(&m);
        for _ in 0..10 {
            m.train_epoch(&tuples);
        }
        let after = nll(&m);
        assert!(after < before, "NLL {before} → {after}");
    }

    /// Pins the trained bits: tuple sampling, the shuffle stream, the
    /// chunking, the loss and every Adam step reach these estimates.
    /// Regenerate only for an intended numerics change.
    #[test]
    fn trained_estimates_are_pinned() {
        let (g, m) = trained_star_model();
        let pred = |name: &str| PredTerm::Bound(PredId(g.preds().get(name).unwrap()));
        let node = |name: &str| NodeTerm::Bound(NodeId(g.nodes().get(name).unwrap()));
        let queries = [
            [(pred("hasAuthor"), v(1)), (pred("genre"), node("horror"))],
            [(pred("hasAuthor"), node("author0")), (pred("genre"), node("horror"))],
            [(pred("hasAuthor"), node("author2")), (pred("genre"), v(2))],
        ];
        let got: Vec<u64> = queries
            .iter()
            .map(|arms| {
                let q = Query::new(arms.iter().map(|&(p, o)| TriplePattern::new(v(0), p, o)).collect());
                m.estimate_query(&q).unwrap().to_bits()
            })
            .collect();
        let want = [0x4023_c27a_8faf_f8ed, 0x400b_9e0c_b247_afb2, 0x400c_ad1b_bde3_544a];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn estimates_fully_unbound_query_as_n_total() {
        let (_, m) = trained_star_model();
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Var(VarId(5)), v(1)),
            TriplePattern::new(v(0), PredTerm::Var(VarId(6)), v(2)),
        ]);
        let est = m.estimate_query(&q).unwrap();
        assert_eq!(est, m.n_total());
    }

    #[test]
    fn estimates_star_query_close_to_exact() {
        let (g, m) = trained_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let genre = PredId(g.preds().get("genre").unwrap());
        let horror = NodeId(g.nodes().get("horror").unwrap());

        // ?x hasAuthor ?a . ?x genre horror  → exact = 9.
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
            TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
        ]);
        let exact = counter::cardinality(g, &q) as f64;
        let est = m.estimate_query(&q).unwrap();
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 2.0, "estimate {est} vs exact {exact} (q-error {qerr})");
    }

    #[test]
    fn estimates_bound_only_query() {
        let (g, m) = trained_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let genre = PredId(g.preds().get("genre").unwrap());
        let horror = NodeId(g.nodes().get("horror").unwrap());
        let a0 = NodeId(g.nodes().get("author0").unwrap());
        // ?x hasAuthor author0 . ?x genre horror → books by author0 in horror.
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Bound(has_author), NodeTerm::Bound(a0)),
            TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
        ]);
        let exact = counter::cardinality(g, &q) as f64;
        let est = m.estimate_query(&q).unwrap();
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 3.0, "estimate {est} vs exact {exact} (q-error {qerr})");
    }

    #[test]
    fn chain_model_estimates() {
        let g = graph();
        let mut m = LmkgU::new(g, QueryShape::Chain, 1, quick_cfg()).unwrap();
        m.train(g);
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        // Single triple (?x hasAuthor ?y) — chain of length 1; exact = 12.
        let q = Query::new(vec![TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1))]);
        let exact = counter::cardinality(g, &q) as f64;
        let est = m.estimate_query(&q).unwrap();
        let qerr = (est / exact).max(exact / est);
        assert!(qerr < 2.0, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn domain_guard_rejects_large_graphs() {
        let g = graph();
        let cfg = LmkgUConfig {
            max_node_domain: 3,
            ..quick_cfg()
        };
        match LmkgU::new(g, QueryShape::Star, 2, cfg) {
            Err(LmkgUError::DomainTooLarge { .. }) => {}
            Ok(_) => panic!("guard did not trigger"),
        }
    }

    #[test]
    fn shape_and_size_mismatches_error() {
        let (_, m) = trained_star_model();
        // Chain query against star model.
        let chain = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(1), p(1), v(2)),
        ]);
        assert!(matches!(
            m.estimate_query(&chain),
            Err(TupleBoundsError::WrongShape { .. })
        ));
        // Star of the wrong size.
        let star3 = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), v(2)),
            TriplePattern::new(v(0), p(0), v(3)),
        ]);
        assert!(matches!(
            m.estimate_query(&star3),
            Err(TupleBoundsError::WrongSize { .. })
        ));
    }

    #[test]
    fn repeated_object_variable_unsupported() {
        let (_, m) = trained_star_model();
        let q = Query::new(vec![
            TriplePattern::new(v(0), p(0), v(1)),
            TriplePattern::new(v(0), p(1), v(1)),
        ]);
        assert_eq!(m.estimate_query(&q), Err(TupleBoundsError::RepeatedVariable));
    }

    #[test]
    fn estimate_is_deterministic_for_seed() {
        // A second, independent training run must reproduce the shared one.
        let (g, a) = trained_star_model();
        let b = train_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let q = Query::new(vec![
            TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
            TriplePattern::new(v(0), PredTerm::Bound(has_author), n(2)),
        ]);
        assert_eq!(a.estimate_query(&q).unwrap(), b.estimate_query(&q).unwrap());
    }

    /// One `Workspace` crosses every query of a batch, whatever its bound
    /// pattern: a batch and its reversal (long / short / unbound / rejected
    /// queries interleaved) must agree with the per-query loop bit for bit —
    /// a buffer leaking values from one query's forwards into the next
    /// query's would show up in one of the two orders.
    fn assert_batch_matches_per_query(m: &LmkgU, mut queries: Vec<Query>) {
        for _ in 0..2 {
            let refs: Vec<&Query> = queries.iter().collect();
            let batched = m.estimate_query_batch(&refs);
            // Not vacuous: some sampled estimate sits above the 1.0 floor.
            assert!(batched.iter().flatten().any(|&e| e > 1.0 && e < m.n_total()));
            for (q, b) in queries.iter().zip(&batched) {
                let single = m.estimate_query(q);
                assert_eq!(single.as_ref().map(|e| e.to_bits()), b.as_ref().map(|e| e.to_bits()));
            }
            queries.reverse();
        }
    }

    #[test]
    fn batch_estimates_match_per_query_bitwise() {
        let (g, m) = trained_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let genre = PredId(g.preds().get("genre").unwrap());
        let horror = NodeId(g.nodes().get("horror").unwrap());
        let a0 = NodeId(g.nodes().get("author0").unwrap());
        let book3 = NodeId(g.nodes().get("book3").unwrap());
        let queries = vec![
            // Bound predicate + bound object: every position up to the last.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
            ]),
            // Wrong shape: must error identically in both paths.
            Query::new(vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(1), v(2)),
            ]),
            // Only the center bound: a single forward.
            Query::new(vec![
                TriplePattern::new(NodeTerm::Bound(book3), PredTerm::Var(VarId(5)), v(1)),
                TriplePattern::new(NodeTerm::Bound(book3), PredTerm::Var(VarId(6)), v(2)),
            ]),
            // Fully unbound: short-circuits to N.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Var(VarId(5)), v(1)),
                TriplePattern::new(v(0), PredTerm::Var(VarId(6)), v(2)),
            ]),
            // Everything but the center bound.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), NodeTerm::Bound(a0)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
            ]),
            // Bound predicates only.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), v(2)),
            ]),
        ];
        assert_batch_matches_per_query(m, queries.clone());
        // And through the trait, errors collapse to the neutral estimate.
        use crate::estimator::CardinalityEstimator;
        let trait_batched = m.estimate_batch(&queries);
        assert_eq!(trait_batched[1], 1.0);
        assert_eq!(trait_batched[3], m.n_total());

        // The same contract on the ring's chain model: first-triple-only,
        // unbound, fully bound and subject-only walks interleaved.
        let (ring, chain) = trained_ring_chain_model();
        let even = PredId(ring.preds().get("even").unwrap());
        let chord = PredId(ring.preds().get("chord").unwrap());
        let n4 = NodeId(ring.nodes().get("n4").unwrap());
        let n10 = NodeId(ring.nodes().get("n10").unwrap());
        let chain_queries = vec![
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(even), v(1)),
                TriplePattern::new(v(1), PredTerm::Var(VarId(7)), v(2)),
            ]),
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Var(VarId(7)), v(1)),
                TriplePattern::new(v(1), PredTerm::Var(VarId(8)), v(2)),
            ]),
            Query::new(vec![
                TriplePattern::new(NodeTerm::Bound(n4), PredTerm::Bound(even), v(1)),
                TriplePattern::new(v(1), PredTerm::Bound(chord), NodeTerm::Bound(n10)),
            ]),
            Query::new(vec![
                TriplePattern::new(NodeTerm::Bound(n4), PredTerm::Var(VarId(7)), v(1)),
                TriplePattern::new(v(1), PredTerm::Var(VarId(8)), v(2)),
            ]),
        ];
        assert_batch_matches_per_query(chain, chain_queries);
    }

    /// Samples an index from softmax(seg).
    fn sample_categorical<R: Rng>(seg: &[f32], rng: &mut R) -> usize {
        let max = seg.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut total = 0.0f64;
        for &x in seg {
            total += f64::from((x - max).exp());
        }
        let mut u = rng.gen::<f64>() * total;
        for (i, &x) in seg.iter().enumerate() {
            u -= f64::from((x - max).exp());
            if u <= 0.0 {
                return i;
            }
        }
        seg.len() - 1
    }

    /// The per-particle sampler the grouped `estimate_bounds` replaced, kept
    /// line for line as its bitwise oracle: every particle is forwarded and
    /// normalised on its own, at every position.
    fn per_particle_estimate(m: &LmkgU, query: &Query) -> Result<f64, TupleBoundsError> {
        let bounds = m.query_bounds(query)?;
        let ws = &mut Workspace::new();
        let Some(last_bound) = bounds.iter().rposition(Option::is_some) else {
            return Ok(m.n_total.max(1.0));
        };
        let particles = m.particles.max(1);
        let mut rng = particle_rng(m.seed, &bounds);
        let mut ids = vec![vec![0usize; m.segments.len()]; particles];
        let mut log_w = vec![0.0f64; particles];

        for pos in 0..=last_bound {
            let logits = m.made.forward_ids_segment(&ids, pos, ws);
            match bounds[pos] {
                Some(b) => {
                    for (r, ids_row) in ids.iter_mut().enumerate() {
                        log_w[r] += f64::from(log_softmax_at(logits.row(r), b));
                        ids_row[pos] = b;
                    }
                }
                None => {
                    for (r, ids_row) in ids.iter_mut().enumerate() {
                        ids_row[pos] = sample_categorical(logits.row(r), &mut rng);
                    }
                }
            }
            ws.recycle(logits);
        }

        let mean_w: f64 = log_w.iter().map(|&lw| lw.exp()).sum::<f64>() / particles as f64;
        Ok((mean_w * m.n_total).max(1.0))
    }

    /// `m`'s weights at `mode` (`None`: f32, copied through a parameter
    /// walk) under a different particle count.
    fn with_particles(m: &LmkgU, mode: Option<QuantMode>, particles: usize) -> LmkgU {
        match mode {
            Some(mode) => LmkgU::from_frozen_parts(m.made.quantized(mode), m.shape, m.k, m.n_total, particles, m.seed),
            None => {
                let cfg = LmkgUConfig {
                    particles,
                    ..m.config().unwrap().clone()
                };
                let (nodes, preds) = m.vocab_sizes();
                let mut copy = LmkgU::from_parts(cfg, m.shape, m.k, m.n_total, nodes, preds);
                let mut params = Vec::new();
                lmkg_nn::serialize::save_params(&m.made, &mut params).unwrap();
                copy.load_made_params(&mut params.as_slice()).unwrap();
                copy
            }
        }
    }

    /// The grouped sampler is the per-particle one, bit for bit — per query
    /// and through a batch that reuses its particle buffers — on both
    /// fixture models, all three weight stores and 1 / 64 / 512 particles.
    /// The bound patterns range from one group for the whole query (fully
    /// bound) or its first positions (a chain's bound start) to groups split
    /// at every unbound position.
    #[test]
    fn grouped_sampler_matches_per_particle_oracle_bitwise() {
        let (g, star) = trained_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let genre = PredId(g.preds().get("genre").unwrap());
        let horror = NodeId(g.nodes().get("horror").unwrap());
        let a0 = NodeId(g.nodes().get("author0").unwrap());
        let book3 = NodeTerm::Bound(NodeId(g.nodes().get("book3").unwrap()));
        let star_queries = vec![
            // Predicates only.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), v(2)),
            ]),
            // Fully bound.
            Query::new(vec![
                TriplePattern::new(book3, PredTerm::Bound(has_author), NodeTerm::Bound(a0)),
                TriplePattern::new(book3, PredTerm::Bound(genre), NodeTerm::Bound(horror)),
            ]),
            // Centre only.
            Query::new(vec![
                TriplePattern::new(book3, PredTerm::Var(VarId(5)), v(1)),
                TriplePattern::new(book3, PredTerm::Var(VarId(6)), v(2)),
            ]),
            // Unbound centre and first object, bound last object.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
            ]),
            // Unbound.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Var(VarId(5)), v(1)),
                TriplePattern::new(v(0), PredTerm::Var(VarId(6)), v(2)),
            ]),
        ];
        let (ring, chain) = trained_ring_chain_model();
        let even = PredId(ring.preds().get("even").unwrap());
        let chord = PredId(ring.preds().get("chord").unwrap());
        let n4 = NodeTerm::Bound(NodeId(ring.nodes().get("n4").unwrap()));
        let n10 = NodeTerm::Bound(NodeId(ring.nodes().get("n10").unwrap()));
        let chain_queries = vec![
            // Bound start: positions 0 and 1 forward one group.
            Query::new(vec![
                TriplePattern::new(n4, PredTerm::Bound(even), v(1)),
                TriplePattern::new(v(1), PredTerm::Bound(chord), v(2)),
            ]),
            // Predicates only.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(even), v(1)),
                TriplePattern::new(v(1), PredTerm::Bound(chord), v(2)),
            ]),
            // Fully bound.
            Query::new(vec![
                TriplePattern::new(n4, PredTerm::Bound(even), v(1)),
                TriplePattern::new(v(1), PredTerm::Bound(chord), n10),
            ]),
            // Start only.
            Query::new(vec![
                TriplePattern::new(n4, PredTerm::Var(VarId(7)), v(1)),
                TriplePattern::new(v(1), PredTerm::Var(VarId(8)), v(2)),
            ]),
            // Unbound.
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Var(VarId(7)), v(1)),
                TriplePattern::new(v(1), PredTerm::Var(VarId(8)), v(2)),
            ]),
        ];

        for (m, queries) in [(star, &star_queries), (chain, &chain_queries)] {
            let refs: Vec<&Query> = queries.iter().collect();
            for mode in [None, Some(QuantMode::Int8), Some(QuantMode::Bf16)] {
                for particles in [1, 64, 512] {
                    let model = with_particles(m, mode, particles);
                    let oracle: Vec<_> = queries
                        .iter()
                        .map(|q| per_particle_estimate(&model, q).map(f64::to_bits))
                        .collect();
                    // Not vacuous: some sampled estimate sits above the floor.
                    let sampled = |&e: &u64| f64::from_bits(e) > 1.0 && f64::from_bits(e) < model.n_total();
                    assert!(oracle.iter().flatten().any(sampled));
                    for (i, q) in queries.iter().enumerate() {
                        let got = model.estimate_query(q).map(f64::to_bits);
                        assert_eq!(got, oracle[i], "{mode:?}, {particles} particles, query {i}");
                    }
                    let batched: Vec<_> = model
                        .estimate_query_batch(&refs)
                        .into_iter()
                        .map(|e| e.map(f64::to_bits))
                        .collect();
                    assert_eq!(batched, oracle, "{mode:?}, {particles} particles, batched");
                }
            }
        }
    }

    /// Quantized LMKG-U must stay close to the f32 model on the fixture
    /// workload (within 10% on the measured q-errors), keep batch/per-query
    /// bitwise parity, and actually shrink.
    #[test]
    fn quantized_estimates_track_f32_with_parity_and_shrink() {
        let (g, m) = trained_star_model();
        let has_author = PredId(g.preds().get("hasAuthor").unwrap());
        let genre = PredId(g.preds().get("genre").unwrap());
        let horror = NodeId(g.nodes().get("horror").unwrap());
        let queries = vec![
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), NodeTerm::Bound(horror)),
            ]),
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Bound(has_author), v(1)),
                TriplePattern::new(v(0), PredTerm::Bound(genre), v(2)),
            ]),
            Query::new(vec![
                TriplePattern::new(v(0), PredTerm::Var(VarId(5)), v(1)),
                TriplePattern::new(v(0), PredTerm::Var(VarId(6)), v(2)),
            ]),
        ];

        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = m.quantized(mode);
            assert_eq!(q.k(), m.k());
            assert_eq!(q.n_total(), m.n_total());
            for query in &queries {
                let f = m.estimate_query(query).unwrap();
                let e = q.estimate_query(query).unwrap();
                let ratio = (e / f).max(f / e);
                assert!(ratio < 1.10, "{mode:?}: estimate {e} drifted {ratio}× from f32 {f}");
            }
            // Batch = per-query loop, bitwise, including the unbound
            // short-circuit (the trait collapses errors to 1.0).
            let refs: Vec<&Query> = queries.iter().collect();
            let batched = q.estimate_query_batch(&refs);
            for (query, b) in queries.iter().zip(&batched) {
                assert_eq!(&q.estimate_query(query), b);
            }
            assert_eq!(*batched[2].as_ref().unwrap(), q.n_total());
            // Memory honesty: the quantized model is reported smaller.
            match mode {
                QuantMode::Int8 => assert!(q.memory_bytes() * 3 < m.memory_bytes()),
                QuantMode::Bf16 => assert!(q.memory_bytes() * 2 <= m.memory_bytes() + m.param_count()),
            }
        }
    }

    /// A frozen estimator carries no training state: its training entry
    /// points panic instead of silently stepping nothing.
    #[test]
    #[should_panic(expected = "frozen to int8/bf16")]
    fn training_a_frozen_estimator_panics() {
        let (g, m) = trained_star_model();
        let mut frozen = m.quantized(QuantMode::Bf16);
        assert!(frozen.config().is_none());
        frozen.train(g);
    }

    #[test]
    fn memory_scales_with_domain() {
        let g = graph();
        let small = LmkgU::new(g, QueryShape::Star, 2, quick_cfg()).unwrap().param_count();
        let mut big_cfg = quick_cfg();
        big_cfg.hidden = 64;
        let big = LmkgU::new(g, QueryShape::Star, 2, big_cfg).unwrap().param_count();
        assert!(big > small);
    }
}
