//! LMKG-S: the supervised estimator (paper §VI-A, Fig. 3).
//!
//! A multi-layer perceptron over the SG-Encoding. Targets are `log₂`-scaled
//! and min-max normalized; hidden layers use ReLU with optional dropout; the
//! output layer is a sigmoid; Adam trains it on the mean q-error.

use crate::outliers::OutlierBuffer;
use lmkg_data::LabeledQuery;
use lmkg_encoder::{CardinalityScaler, EncodeError, SgEncoder};
use lmkg_nn::layers::{Dense, Dropout, Layer, Parameterized, Relu, Sequential, Sigmoid};
use lmkg_nn::optimizer::{Adam, Trainer};
use lmkg_nn::quant::QuantMode;
use lmkg_nn::tensor::Matrix;
use lmkg_nn::workspace::Workspace;
use lmkg_nn::{loss, serialize};
use lmkg_store::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

    /// [`QueryEncoder::width`], or `None` where the SG width
    /// `max_nodes² · max_edges + …` overflows `usize` (a snapshot can store
    /// such capacities; a trained encoder never has them).
    pub(crate) fn checked_width(&self) -> Option<usize> {
        let sg = self.sg();
        let a = sg.max_nodes.checked_mul(sg.max_nodes)?.checked_mul(sg.max_edges)?;
        a.checked_add(sg.x_width())?.checked_add(sg.e_width())
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
    /// Hyperparameters and the trainer (Adam and the shuffle RNG): present
    /// exactly while the weights are trainable f32.
    trainer: Option<(LmkgSConfig, Trainer)>,
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
        let opt = Adam::new(cfg.learning_rate).with_grad_clip(cfg.grad_clip);
        let trainer = Trainer::new(opt, rng, cfg.batch_size);
        Self {
            encoder,
            model,
            scaler: None,
            outliers,
            trainer: Some((cfg, trainer)),
        }
    }

    /// Scalar parameters of the network [`LmkgS::new`] builds from
    /// `encoder` and `cfg`, or `None` if the count overflows `usize`. A
    /// snapshot load compares it with the bytes left before `new`
    /// allocates.
    pub(crate) fn param_count_for(encoder: &QueryEncoder, cfg: &LmkgSConfig) -> Option<usize> {
        let mut fan_in = encoder.checked_width()?;
        let mut count = 0usize;
        for &fan_out in cfg.hidden.iter().chain([&1]) {
            count = count.checked_add(fan_in.checked_mul(fan_out)?.checked_add(fan_out)?)?;
            fan_in = fan_out;
        }
        Some(count)
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

    /// Fits the scaler and outlier buffer, then trains for the configured
    /// number of epochs. Returns the per-epoch mean loss. Adam's moments are
    /// released afterwards, so a trained model does not carry them.
    pub fn train(&mut self, data: &[LabeledQuery]) -> Vec<f32> {
        let epochs = self.config().expect(FROZEN).epochs;
        self.prepare(data);
        let losses = (0..epochs).map(|_| self.train_epoch(data)).collect();
        self.trainer.as_mut().expect(FROZEN).1.opt.reset();
        losses
    }

    /// Fits scaler/outliers without training (used before manual epoch
    /// driving via [`LmkgS::train_epoch`]).
    pub fn prepare(&mut self, data: &[LabeledQuery]) {
        assert!(!data.is_empty(), "training data must be non-empty");
        self.scaler = Some(CardinalityScaler::fit(data.iter().map(|d| d.cardinality)));
        self.outliers.fill(data);
    }

    /// Runs a single epoch over a fresh `0..n` order; returns the mean
    /// batch loss. `prepare` must have been called. A chunk whose queries
    /// the encoder all rejects trains nothing and takes no step.
    pub fn train_epoch(&mut self, data: &[LabeledQuery]) -> f32 {
        let scaler = *self.scaler.as_ref().expect("prepare() before training");
        let (cfg, trainer) = self.trainer.as_mut().expect(FROZEN);
        let (encoder, max_exp) = (&self.encoder, cfg.q_error_max_exp);
        let mut order: Vec<usize> = (0..data.len()).collect();
        trainer.epoch(&mut self.model, &mut order, |model, chunk| {
            let mut rows = Vec::with_capacity(chunk.len() * encoder.width());
            let statuses = encoder.encode_batch(chunk.iter().map(|&i| &data[i].query), &mut rows);
            let targets: Vec<f32> = (chunk.iter().zip(&statuses))
                .filter(|(_, s)| s.is_ok())
                .map(|(&i, _)| scaler.scale(data[i].cardinality))
                .collect();
            if targets.is_empty() {
                return None;
            }
            let x = Matrix::from_vec(targets.len(), encoder.width(), rows);
            let targets = Matrix::from_vec(targets.len(), 1, targets);
            let pred = model.forward(x);
            let (l, grad) = loss::q_error(&pred, &targets, scaler.log_range(), max_exp);
            model.backward(&grad);
            Some(l)
        })
    }

    /// Predicts the cardinality of one query: a batch of one through
    /// [`LmkgS::predict_batch`]. Errors if the encoder rejects it.
    pub fn predict(&self, query: &Query) -> Result<f64, EncodeError> {
        self.predict_batch(&[query]).swap_remove(0)
    }

    /// Predicts a whole batch with **one** network forward — the shared-read
    /// hot path: `&self` model access plus per-call scratch buffers. The
    /// pipeline is outlier-buffer bypass → encode → one forward → unscale:
    /// outlier-buffer hits are answered exactly, the other queries are
    /// encoded into one feature matrix in a single pass, pushed through the
    /// model together, and unscaled row by row; per-query encoder rejections
    /// surface as per-query errors. Row-independent kernels make each result
    /// independent of the rest of the batch.
    pub fn predict_batch(&self, queries: &[&Query]) -> Vec<Result<f64, EncodeError>> {
        let scaler = *self.scaler.as_ref().expect("model is untrained");
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
        // One forward over every accepted row: row-independent kernels keep
        // each result bitwise-identical to a per-query forward.
        if !accepted.is_empty() {
            let x = Matrix::from_vec(accepted.len(), w, rows);
            let y = self.model.forward_infer(&x, &mut Workspace::new());
            for (row, &i) in accepted.iter().enumerate() {
                results[i] = Some(Ok(scaler.unscale(y.get(row, 0)).max(1.0)));
            }
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
    pub fn load_params(&mut self, r: &mut &[u8]) -> Result<(), serialize::LoadError> {
        serialize::load_params(&mut self.model, r)
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
    /// five-entry outlier buffer, plus its per-epoch losses — trained once
    /// and shared by every test that only needs *a* trained estimator.
    fn trained() -> &'static (LmkgS, Vec<f32>) {
        static MODEL: OnceLock<(LmkgS, Vec<f32>)> = OnceLock::new();
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
        let (model, losses) = trained();
        assert_eq!(losses.len(), 60);
        assert!(losses.last().unwrap() < &losses[0], "loss should decrease");

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

    /// Pins the trained bits: the shuffle stream, the chunking, the loss and
    /// every Adam step reach these predictions. Regenerate only for an
    /// intended numerics change.
    #[test]
    fn trained_predictions_are_pinned() {
        let (_, data) = small_setup();
        let (model, _) = trained();
        let got: Vec<u64> = [1, 2, 3, 5]
            .iter()
            .map(|&i| model.predict(&data[i].query).unwrap().to_bits())
            .collect();
        let want = [
            0x4050_76ee_a010_8c3e,
            0x405f_53d1_85b6_a05a,
            0x4042_9187_89cb_0be2,
            0x4087_0dea_5bba_204a,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
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
