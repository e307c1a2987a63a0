//! LMKG-S: the supervised estimator (paper §VI-A, Fig. 3).
//!
//! A multi-layer perceptron over the SG-Encoding. Targets are `log₂`-scaled
//! and min-max normalized; hidden layers use ReLU with optional dropout; the
//! output layer is a sigmoid; Adam trains it on the mean q-error.

use crate::outliers::OutlierBuffer;
use lmkg_data::LabeledQuery;
use lmkg_encoder::{CardinalityScaler, EncodeError, SgEncoder};
use lmkg_nn::layers::{Dense, Dropout, Layer, Relu, Sequential, Sigmoid};
use lmkg_nn::optimizer::Adam;
use lmkg_nn::quant::QuantMode;
use lmkg_nn::tensor::Matrix;
use lmkg_nn::workspace::Workspace;
use lmkg_nn::{loss, serialize};
use lmkg_store::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;

/// The featurization that feeds the network (paper §V): the general
/// SG-Encoding, with which one model can serve several topologies.
#[derive(Clone)]
pub enum QueryEncoder {
    /// The SG-Encoding.
    Sg(SgEncoder),
}

impl QueryEncoder {
    fn sg(&self) -> &SgEncoder {
        let QueryEncoder::Sg(e) = self;
        e
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.sg().width()
    }

    /// Encodes a query into `out`.
    pub fn encode(&self, query: &Query, out: &mut [f32]) -> Result<(), EncodeError> {
        self.sg().encode(query, out)
    }

    /// Encodes a whole batch in one pass, appending one row per accepted
    /// query to `rows` (see [`SgEncoder::encode_batch`]); returns one
    /// status per input query.
    pub fn encode_batch<'q, I>(&self, queries: I, rows: &mut Vec<f32>) -> Vec<Result<(), EncodeError>>
    where
        I: IntoIterator<Item = &'q Query>,
    {
        self.sg().encode_batch(queries, rows)
    }
}

/// LMKG-S hyperparameters.
#[derive(Debug, Clone)]
pub struct LmkgSConfig {
    /// Hidden layer widths ("2 or 3 layers of 512 neurons are often
    /// acceptable", §VIII-A).
    pub hidden: Vec<usize>,
    /// Dropout probability after the first hidden layer (Fig. 3).
    pub dropout: f32,
    /// Training epochs (paper: 200).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Exponent clamp of the q-error loss, in log₂ units.
    pub q_error_max_exp: f32,
    /// Elementwise gradient clip (0 = off) — stabilizes the exponential loss.
    pub grad_clip: f32,
    /// Capacity of the outlier buffer (§VIII-C "buffer list" improvement);
    /// 0 disables it, which is the paper's main configuration.
    pub outlier_buffer: usize,
    /// RNG seed for weight init, shuffling, and dropout.
    pub seed: u64,
}

impl Default for LmkgSConfig {
    fn default() -> Self {
        Self {
            hidden: vec![256, 256],
            dropout: 0.05,
            epochs: 200,
            batch_size: 128,
            learning_rate: 1e-3,
            q_error_max_exp: 16.0,
            grad_clip: 1.0,
            outlier_buffer: 0,
            seed: 0,
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss across batches.
    pub loss: f32,
}

/// Why a training entry point panics on an estimator without training state.
const FROZEN: &str = "LMKG-S is frozen to int8/bf16 weights: it carries no training state";

/// The supervised LMKG estimator.
///
/// Built (`&mut self`) once, then frozen: every prediction entry point takes
/// `&self` and runs the network through the shared-read inference path, so a
/// trained `LmkgS` behind an `Arc` serves concurrent estimates without locks.
///
/// The dense stack's weights are f32 while the estimator trains;
/// [`LmkgS::quantized`] returns the same estimator over int8/bf16 weights,
/// with the training state dropped — training a frozen estimator panics.
pub struct LmkgS {
    encoder: QueryEncoder,
    model: Sequential,
    scaler: Option<CardinalityScaler>,
    outliers: OutlierBuffer,
    /// Hyperparameters and the shuffle RNG: present exactly while the
    /// weights are trainable f32.
    trainer: Option<(LmkgSConfig, StdRng)>,
}

impl LmkgS {
    /// Builds the network for `encoder`'s feature width (Fig. 3: dense ReLU
    /// stack with dropout, sigmoid output).
    pub fn new(encoder: QueryEncoder, cfg: LmkgSConfig) -> Self {
        assert!(!cfg.hidden.is_empty(), "at least one hidden layer");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Sequential::new();
        let mut fan_in = encoder.width();
        for (i, &h) in cfg.hidden.iter().enumerate() {
            model.push(Dense::new_he(&mut rng, fan_in, h));
            model.push(Relu::new());
            if i == 0 && cfg.dropout > 0.0 {
                model.push(Dropout::new(cfg.dropout, cfg.seed ^ 0x00D1_2097));
            }
            fan_in = h;
        }
        model.push(Dense::new_xavier(&mut rng, fan_in, 1));
        model.push(Sigmoid::new());
        let outliers = OutlierBuffer::new(cfg.outlier_buffer);
        Self {
            encoder,
            model,
            scaler: None,
            outliers,
            trainer: Some((cfg, rng)),
        }
    }

    /// Reassembles a frozen estimator from snapshot parts (the int8/bf16
    /// snapshot entries carry no training config).
    pub(crate) fn from_frozen_parts(
        encoder: QueryEncoder,
        model: Sequential,
        scaler: CardinalityScaler,
        outliers: OutlierBuffer,
    ) -> Self {
        Self {
            encoder,
            model,
            scaler: Some(scaler),
            outliers,
            trainer: None,
        }
    }

    /// The configured encoder.
    pub fn encoder(&self) -> &QueryEncoder {
        &self.encoder
    }

    /// The fitted scaler (after training).
    pub fn scaler(&self) -> Option<&CardinalityScaler> {
        self.scaler.as_ref()
    }

    /// The hyperparameters this estimator trains with (snapshot restore
    /// rebuilds the identical architecture from them); `None` once the
    /// weights are frozen to int8/bf16.
    pub fn config(&self) -> Option<&LmkgSConfig> {
        self.trainer.as_ref().map(|(cfg, _)| cfg)
    }

    /// The reduced-precision store the weights are frozen in, `None` for
    /// trainable f32.
    pub fn mode(&self) -> Option<QuantMode> {
        self.model.quant_mode()
    }

    /// Encodes a batch of queries into a feature matrix, skipping queries
    /// the encoder rejects; returns row-aligned (features, cardinalities).
    fn encode_training_batch(&self, data: &[&LabeledQuery]) -> (Matrix, Vec<u64>) {
        let w = self.encoder.width();
        let mut rows = Vec::with_capacity(data.len() * w);
        let statuses = self.encoder.encode_batch(data.iter().map(|lq| &lq.query), &mut rows);
        let cards: Vec<u64> = data
            .iter()
            .zip(&statuses)
            .filter(|(_, s)| s.is_ok())
            .map(|(lq, _)| lq.cardinality)
            .collect();
        (Matrix::from_vec(cards.len(), w, rows), cards)
    }

    /// Fits the scaler and outlier buffer, then trains for the configured
    /// number of epochs. Returns per-epoch stats.
    pub fn train(&mut self, data: &[LabeledQuery]) -> Vec<EpochStats> {
        let epochs = self.config().expect(FROZEN).epochs;
        self.prepare(data);
        let mut out = Vec::with_capacity(epochs);
        let mut opt = self.make_optimizer();
        for epoch in 0..epochs {
            let loss = self.train_epoch(data, &mut opt);
            out.push(EpochStats { epoch, loss });
        }
        out
    }

    /// Fits scaler/outliers without training (used before manual epoch
    /// driving via [`LmkgS::train_epoch`]).
    pub fn prepare(&mut self, data: &[LabeledQuery]) {
        assert!(!data.is_empty(), "training data must be non-empty");
        self.scaler = Some(CardinalityScaler::fit(data.iter().map(|d| d.cardinality)));
        self.outliers.fill(data);
    }

    /// Creates the Adam optimizer matching the config.
    pub fn make_optimizer(&self) -> Adam {
        let cfg = self.config().expect(FROZEN);
        Adam::new(cfg.learning_rate).with_grad_clip(cfg.grad_clip)
    }

    /// Runs a single epoch; returns the mean batch loss. `prepare` must have
    /// been called.
    pub fn train_epoch(&mut self, data: &[LabeledQuery], opt: &mut Adam) -> f32 {
        let scaler = *self.scaler.as_ref().expect("prepare() before training");
        let (cfg, rng) = self.trainer.as_mut().expect(FROZEN);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        // Fisher–Yates shuffle.
        for i in (1..indices.len()).rev() {
            indices.swap(i, rng.gen_range(0..=i));
        }
        let (batch_size, max_exp) = (cfg.batch_size.max(1), cfg.q_error_max_exp);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(batch_size) {
            let batch: Vec<&LabeledQuery> = chunk.iter().map(|&i| &data[i]).collect();
            let (x, cards) = self.encode_training_batch(&batch);
            if x.rows() == 0 {
                continue;
            }
            let targets = Matrix::from_vec(cards.len(), 1, cards.iter().map(|&c| scaler.scale(c)).collect());
            let pred = self.model.forward(x);
            let (l, grad) = loss::q_error(&pred, &targets, scaler.log_range(), max_exp);
            self.model.backward(&grad);
            opt.step(&mut self.model);
            total += f64::from(l);
            batches += 1;
        }
        if batches == 0 {
            0.0
        } else {
            (total / batches as f64) as f32
        }
    }

    /// Predicts the cardinality of a query. Errors if the encoder rejects
    /// it. Allocates a one-shot [`Workspace`]; callers with a hot loop use
    /// [`LmkgS::predict_with`] to reuse one.
    pub fn predict(&self, query: &Query) -> Result<f64, EncodeError> {
        self.predict_with(query, &mut Workspace::new())
    }

    /// [`LmkgS::predict`] with a caller-provided workspace — the shared-read
    /// hot path: `&self` model access plus per-caller scratch buffers. The
    /// pipeline is outlier-buffer bypass → encode → one network forward →
    /// unscale.
    pub fn predict_with(&self, query: &Query, ws: &mut Workspace) -> Result<f64, EncodeError> {
        let scaler = *self.scaler.as_ref().expect("model is untrained");
        if let Some(card) = self.outliers.lookup(query) {
            return Ok(card as f64);
        }
        let mut buf = vec![0.0f32; self.encoder.width()];
        self.encoder.encode(query, &mut buf)?;
        let x = Matrix::from_vec(1, buf.len(), buf);
        let y = self.model.forward_infer(&x, ws);
        let out = scaler.unscale(y.get(0, 0)).max(1.0);
        ws.recycle(y);
        ws.recycle(x);
        Ok(out)
    }

    /// Predicts a whole batch with **one** network forward: queries are
    /// encoded into one feature matrix in a single pass, pushed through the
    /// model together, and unscaled row by row. Outlier-buffer hits bypass
    /// the network exactly as in [`LmkgS::predict`], and per-query encoder
    /// rejections surface as per-query errors. Row-independent kernels make
    /// the results bitwise-identical to looping `predict`.
    pub fn predict_batch(&self, queries: &[&Query]) -> Vec<Result<f64, EncodeError>> {
        let scaler = *self.scaler.as_ref().expect("model is untrained");
        let mut ws = Workspace::new();
        let w = self.encoder.width();
        // Outlier-buffer hits are answered exactly; the rest go to the net.
        let mut results: Vec<Option<Result<f64, EncodeError>>> = Vec::with_capacity(queries.len());
        let mut candidates: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match self.outliers.lookup(q) {
                Some(card) => results.push(Some(Ok(card as f64))),
                None => {
                    results.push(None);
                    candidates.push(i);
                }
            }
        }
        let mut rows = Vec::with_capacity(candidates.len() * w);
        let statuses = self
            .encoder
            .encode_batch(candidates.iter().map(|&i| queries[i]), &mut rows);
        let mut accepted: Vec<usize> = Vec::with_capacity(candidates.len());
        for (&i, status) in candidates.iter().zip(statuses) {
            match status {
                Ok(()) => accepted.push(i),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // Forward in micro-batches: large enough that a multi-core machine
        // still crosses the matmul parallelism threshold, small enough that
        // layer intermediates stay cache-resident instead of streaming
        // through DRAM. Row-independent kernels keep every result
        // bitwise-identical to any other chunking (including per-query).
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let micro_batch = 256 * cores;
        let mut done = 0usize;
        for chunk in accepted.chunks(micro_batch) {
            let x = Matrix::from_vec(chunk.len(), w, rows[done * w..(done + chunk.len()) * w].to_vec());
            done += chunk.len();
            let y = self.model.forward_infer(&x, &mut ws);
            for (row, &i) in chunk.iter().enumerate() {
                results[i] = Some(Ok(scaler.unscale(y.get(row, 0)).max(1.0)));
            }
            ws.recycle(y);
            ws.recycle(x);
        }
        results.into_iter().map(|r| r.expect("every query resolved")).collect()
    }

    /// One-shot quantization of the trained estimator: the same estimator
    /// with the dense stack's weights frozen to int8 (per-output-channel
    /// scales) or bf16. The encoder, scaler, and outlier buffer are carried
    /// over unchanged, so the result answers exactly the query set its f32
    /// original answers; the training state is not carried. Panics if the
    /// model is untrained or already frozen.
    pub fn quantized(&self, mode: QuantMode) -> LmkgS {
        let scaler = *self.scaler.as_ref().expect("model is untrained");
        Self::from_frozen_parts(
            self.encoder.clone(),
            self.model.quantized(mode),
            scaler,
            self.outliers.clone(),
        )
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.model.param_count()
    }

    /// Model size in bytes (parameters at their stored precision + outlier
    /// buffer).
    pub fn memory_bytes(&self) -> usize {
        self.model.memory_bytes() + self.outliers.memory_bytes()
    }

    /// Serializes the f32 parameters (not the scaler/config) to a writer;
    /// `InvalidInput` on a frozen estimator.
    pub fn save_params<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        serialize::save_params(&self.model, w)
    }

    /// Restores parameters from a reader (architecture must match); the
    /// scaler must be re-fit or carried separately.
    pub fn load_params<R: io::Read>(&mut self, r: &mut R) -> io::Result<()> {
        Ok(serialize::load_params(&mut self.model, r)?)
    }

    /// Sets the scaler explicitly (for parameter-file restore).
    pub fn set_scaler(&mut self, scaler: CardinalityScaler) {
        self.scaler = Some(scaler);
    }

    /// The network (snapshots persist a frozen one via its own format).
    pub(crate) fn model(&self) -> &Sequential {
        &self.model
    }

    /// The outlier buffer (read-only; snapshots persist its exact entries).
    pub fn outliers(&self) -> &OutlierBuffer {
        &self.outliers
    }

    /// Replaces the outlier buffer wholesale (snapshot restore).
    pub fn set_outliers(&mut self, outliers: OutlierBuffer) {
        self.outliers = outliers;
    }
}

impl crate::estimator::CardinalityEstimator for LmkgS {
    fn name(&self) -> &str {
        match self.mode() {
            None => "LMKG-S",
            Some(QuantMode::Int8) => "LMKG-S-int8",
            Some(QuantMode::Bf16) => "LMKG-S-bf16",
        }
    }

    /// Estimates via [`LmkgS::predict`]; queries the encoder rejects (wrong
    /// topology/size for this specific model) report the neutral estimate 1.
    fn estimate(&self, query: &Query) -> f64 {
        self.predict(query).unwrap_or(1.0)
    }

    /// Batched override: one forward pass per batch via
    /// [`LmkgS::predict_batch`].
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        let refs: Vec<&Query> = queries.iter().collect();
        self.predict_batch(&refs)
            .into_iter()
            .map(|r| r.unwrap_or(1.0))
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        LmkgS::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::CardinalityEstimator;
    use crate::metrics::QErrorStats;
    use lmkg_data::workload::{self, WorkloadConfig};
    use lmkg_data::{Dataset, Scale};
    use lmkg_store::{KnowledgeGraph, QueryShape};
    use std::sync::OnceLock;

    /// The graph and star-2 training workload every test here uses.
    fn small_setup() -> &'static (KnowledgeGraph, Vec<LabeledQuery>) {
        static SETUP: OnceLock<(KnowledgeGraph, Vec<LabeledQuery>)> = OnceLock::new();
        SETUP.get_or_init(|| {
            let g = Dataset::LubmLike.generate(Scale::Ci, 3);
            let cfg = WorkloadConfig::train_default(QueryShape::Star, 2, 400, 17);
            let data = workload::generate(&g, &cfg);
            (g, data)
        })
    }

    fn quick_cfg() -> LmkgSConfig {
        LmkgSConfig {
            hidden: vec![64, 64],
            epochs: 60,
            batch_size: 64,
            dropout: 0.0,
            ..Default::default()
        }
    }

    fn sg_encoder(g: &KnowledgeGraph) -> QueryEncoder {
        QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 2))
    }

    /// One SG-encoded model trained for the full `quick_cfg` schedule with a
    /// five-entry outlier buffer, plus its per-epoch stats — trained once
    /// and shared by every test that only needs *a* trained estimator.
    fn trained() -> &'static (LmkgS, Vec<EpochStats>) {
        static MODEL: OnceLock<(LmkgS, Vec<EpochStats>)> = OnceLock::new();
        MODEL.get_or_init(|| {
            let (g, data) = small_setup();
            let mut cfg = quick_cfg();
            cfg.outlier_buffer = 5;
            let mut model = LmkgS::new(sg_encoder(g), cfg);
            let stats = model.train(data);
            (model, stats)
        })
    }

    #[test]
    fn trains_and_fits_workload() {
        let (_, data) = small_setup();
        let (model, stats) = trained();
        assert_eq!(stats.len(), 60);
        assert!(stats.last().unwrap().loss < stats[0].loss, "loss should decrease");

        // In-sample accuracy must be strong (the paper notes LMKG-S slightly
        // overfits by design).
        let pairs: Vec<(f64, u64)> = data
            .iter()
            .take(200)
            .map(|lq| (model.predict(&lq.query).unwrap(), lq.cardinality))
            .collect();
        let qs = QErrorStats::from_pairs(pairs).unwrap();
        assert!(qs.median < 3.0, "median in-sample q-error {}", qs.median);
    }

    #[test]
    fn predictions_are_floored_at_one() {
        let (_, data) = small_setup();
        let (model, _) = trained();
        for lq in data.iter().take(50) {
            assert!(model.predict(&lq.query).unwrap() >= 1.0);
        }
    }

    #[test]
    fn oversized_query_is_rejected() {
        let (g, _) = small_setup();
        let (model, _) = trained();
        let big = workload::generate(g, &WorkloadConfig::train_default(QueryShape::Star, 5, 1, 3));
        assert!(model.predict(&big[0].query).is_err());
    }

    #[test]
    fn outlier_buffer_returns_exact_for_stored_queries() {
        let (_, data) = small_setup();
        let (model, _) = trained();
        // The largest-cardinality training query must be answered exactly.
        let top = data.iter().max_by_key(|lq| lq.cardinality).unwrap();
        assert_eq!(model.predict(&top.query).unwrap(), top.cardinality as f64);
    }

    #[test]
    fn training_is_deterministic_for_seed() {
        let (g, data) = small_setup();
        let build = || {
            LmkgS::new(
                sg_encoder(g),
                LmkgSConfig {
                    epochs: 3,
                    ..quick_cfg()
                },
            )
        };
        let mut a = build();
        let mut b = build();
        let sa = a.train(data);
        let sb = b.train(data);
        assert_eq!(sa, sb);
        assert_eq!(a.predict(&data[0].query).unwrap(), b.predict(&data[0].query).unwrap());
    }

    #[test]
    fn save_load_roundtrip() {
        let (g, data) = small_setup();
        let (a, _) = trained();
        let mut buf = Vec::new();
        a.save_params(&mut buf).unwrap();

        // Same architecture, different initial weights, never trained.
        let mut b = LmkgS::new(
            sg_encoder(g),
            LmkgSConfig {
                seed: 99,
                ..quick_cfg()
            },
        );
        b.load_params(&mut buf.as_slice()).unwrap();
        b.set_scaler(*a.scaler().unwrap());
        assert_eq!(a.predict(&data[1].query).unwrap(), b.predict(&data[1].query).unwrap());
    }

    /// The non-network pipeline is the same code on every weight store:
    /// batches match a per-query loop bitwise, outlier hits stay exact, and
    /// rejected queries report the neutral estimate.
    fn assert_batch_matches_per_query(model: &LmkgS, name: &str) {
        let (g, data) = small_setup();
        // A mix of coverable queries and one the encoder must reject.
        let mut queries: Vec<Query> = data.iter().take(40).map(|lq| lq.query.clone()).collect();
        let big = workload::generate(g, &WorkloadConfig::train_default(QueryShape::Star, 5, 1, 9));
        queries.insert(17, big[0].query.clone());

        let looped: Vec<f64> = queries.iter().map(|q| model.predict(q).unwrap_or(1.0)).collect();
        let batched = model.estimate_batch(&queries);
        assert_eq!(batched, looped, "{name}: batched estimates must be bitwise-identical");
        assert_eq!(batched[17], 1.0, "rejected query reports the neutral estimate");
        assert_eq!(model.name(), name);
        // Outlier hits bypass the network.
        let top = data.iter().max_by_key(|lq| lq.cardinality).unwrap();
        assert_eq!(model.predict(&top.query).unwrap(), top.cardinality as f64);
    }

    #[test]
    fn batch_predictions_match_per_query_bitwise() {
        assert_batch_matches_per_query(&trained().0, "LMKG-S");
    }

    #[test]
    fn quantized_batch_matches_per_query_bitwise() {
        let (model, _) = trained();
        assert_batch_matches_per_query(&model.quantized(QuantMode::Int8), "LMKG-S-int8");
        assert_batch_matches_per_query(&model.quantized(QuantMode::Bf16), "LMKG-S-bf16");
    }

    #[test]
    fn memory_accounting_positive() {
        let (g, _) = small_setup();
        let model = LmkgS::new(sg_encoder(g), quick_cfg());
        assert!(model.memory_bytes() > 1000);
        assert!(model.param_count() > 0);
        assert_eq!(
            model.memory_bytes(),
            model.param_count() * 4,
            "f32 store, empty outlier buffer"
        );
    }

    /// A frozen estimator carries no training state: its training entry
    /// points panic instead of silently stepping nothing.
    #[test]
    #[should_panic(expected = "frozen to int8/bf16")]
    fn training_a_frozen_estimator_panics() {
        let (_, data) = small_setup();
        let mut frozen = trained().0.quantized(QuantMode::Int8);
        assert!(frozen.config().is_none());
        frozen.train(data);
    }
}
