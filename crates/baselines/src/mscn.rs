//! MSCN (Kipf et al., CIDR 2019) adapted to knowledge graphs as in the
//! paper's §VIII: "we perform self-joins over a single table to allow KG
//! queries and always train on the same queries as LMKG-S. We use two
//! variants, MSCN-0 and MSCN-1k with 0 and 1000 samples".
//!
//! Each triple pattern is a set element featurized with *single normalized
//! features per term* (the representation the paper criticizes: "MSCN
//! represents the predicate values with a single feature ... not adequate
//! for large domain values") plus per-element bitmaps over `n` materialized
//! sample triples. A shared MLP embeds every element; mean pooling over the
//! set feeds an output MLP with a sigmoid head over log/min-max-scaled
//! cardinalities.

use lmkg::CardinalityEstimator;
use lmkg_data::LabeledQuery;
use lmkg_encoder::CardinalityScaler;
use lmkg_nn::layers::{Dense, Layer, Param, Parameterized, Relu, Sequential, Sigmoid};
use lmkg_nn::loss;
use lmkg_nn::optimizer::{Adam, Trainer};
use lmkg_nn::tensor::Matrix;
use lmkg_nn::workspace::Workspace;
use lmkg_store::{KnowledgeGraph, Query, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MSCN's elementwise gradient clip. LMKG-S takes its clip from
/// `LmkgSConfig::grad_clip` (default also 1.0); whether the two should share
/// one value is ROADMAP item 3(ii)'s to decide.
const GRAD_CLIP: f32 = 1.0;

/// MSCN's q-error exponent clamp, in log₂ units. LMKG-S takes it from
/// `LmkgSConfig::q_error_max_exp` (default also 16.0); whether the two
/// should share one value is ROADMAP item 3(ii)'s to decide.
const Q_ERROR_MAX_EXP: f32 = 16.0;

/// MSCN configuration.
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Number of materialized sample triples (0 → MSCN-0, 1000 → MSCN-1k).
    pub samples: usize,
    /// Hidden width of both MLPs.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        Self {
            samples: 0,
            hidden: 64,
            epochs: 100,
            batch_size: 128,
            learning_rate: 1e-3,
            seed: 0,
        }
    }
}

/// Set-MLP + output-MLP container so one optimizer walks all parameters.
struct MscnNet {
    set_mlp: Sequential,
    out_mlp: Sequential,
}

impl Parameterized for MscnNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.set_mlp.visit_params(f);
        self.out_mlp.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.set_mlp.visit_params_ref(f);
        self.out_mlp.visit_params_ref(f);
    }
}

impl MscnNet {
    /// Training forward over a batch's stacked elements: per-element MLP →
    /// mean pool over each query's `counts` → output MLP. The layers cache
    /// what [`MscnNet::backward`] needs.
    fn forward(&mut self, elements: Matrix, counts: &[usize]) -> Matrix {
        let embedded = self.set_mlp.forward(elements);
        self.out_mlp.forward(mean_pool(&embedded, counts))
    }

    fn backward(&mut self, grad_pred: &Matrix, counts: &[usize]) {
        let grad_pooled = self.out_mlp.backward(grad_pred);
        let grad_elements = unpool(&grad_pooled, counts);
        self.set_mlp.backward(&grad_elements);
    }

    /// Shared-read (`&self`) counterpart of [`MscnNet::forward`]: the same
    /// set wiring through the workspace-backed inference path, bitwise
    /// identical to the training forward.
    fn forward_infer(&self, elements: Matrix, counts: &[usize], ws: &mut Workspace) -> Matrix {
        let embedded = self.set_mlp.forward_infer(&elements, ws);
        let pooled = mean_pool(&embedded, counts);
        ws.recycle(embedded);
        ws.recycle(elements);
        self.out_mlp.forward_infer(&pooled, ws)
    }
}

/// MSCN's featuriser: per-term features plus the sample bitmap.
struct Features {
    /// Per-element feature width: 6 term features + sample bitmap.
    width: usize,
    samples: Vec<Triple>,
    node_domain: usize,
    pred_domain: usize,
}

/// The MSCN estimator.
pub struct Mscn {
    net: MscnNet,
    features: Features,
    scaler: Option<CardinalityScaler>,
    cfg: MscnConfig,
    trainer: Trainer,
}

impl Mscn {
    /// Creates the model and materializes the sample triples.
    pub fn new(graph: &KnowledgeGraph, cfg: MscnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_samples = cfg.samples.min(graph.num_triples());
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let idx = rng.gen_range(0..graph.num_triples());
            samples.push(graph.triples()[idx]);
        }

        let in_w = 6 + cfg.samples;
        let mut set_mlp = Sequential::new();
        set_mlp.push(Dense::new_he(&mut rng, in_w, cfg.hidden));
        set_mlp.push(Relu::new());
        set_mlp.push(Dense::new_he(&mut rng, cfg.hidden, cfg.hidden));
        set_mlp.push(Relu::new());
        let mut out_mlp = Sequential::new();
        out_mlp.push(Dense::new_he(&mut rng, cfg.hidden, cfg.hidden));
        out_mlp.push(Relu::new());
        out_mlp.push(Dense::new_xavier(&mut rng, cfg.hidden, 1));
        out_mlp.push(Sigmoid::new());

        let opt = Adam::new(cfg.learning_rate).with_grad_clip(GRAD_CLIP);
        Self {
            net: MscnNet { set_mlp, out_mlp },
            features: Features {
                width: in_w,
                samples,
                node_domain: graph.num_nodes(),
                pred_domain: graph.num_preds(),
            },
            scaler: None,
            trainer: Trainer::new(opt, rng, cfg.batch_size),
            cfg,
        }
    }

    /// Trains on the same labeled queries as LMKG-S. One order is kept and
    /// reshuffled in place across epochs (LMKG-S shuffles a fresh `0..n`
    /// each epoch). Returns the per-epoch mean loss; Adam's moments are
    /// released afterwards.
    pub fn train(&mut self, data: &[LabeledQuery]) -> Vec<f32> {
        assert!(!data.is_empty());
        let scaler = CardinalityScaler::fit(data.iter().map(|d| d.cardinality));
        self.scaler = Some(scaler);
        let features = &self.features;
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            losses.push(self.trainer.epoch(&mut self.net, &mut order, |net, chunk| {
                let queries: Vec<&Query> = chunk.iter().map(|&i| &data[i].query).collect();
                let targets = chunk.iter().map(|&i| scaler.scale(data[i].cardinality)).collect();
                let targets = Matrix::from_vec(chunk.len(), 1, targets);
                let (elements, counts) = features.encode_batch(&queries);
                let pred = net.forward(elements, &counts);
                let (l, grad) = loss::q_error(&pred, &targets, scaler.log_range(), Q_ERROR_MAX_EXP);
                net.backward(&grad, &counts);
                Some(l)
            }));
        }
        self.trainer.opt.reset();
        losses
    }

    /// Predicts the cardinality of a query through the shared-read
    /// inference path.
    pub fn predict(&self, query: &Query) -> f64 {
        let scaler = *self.scaler.as_ref().expect("model is untrained");
        let (elements, counts) = self.features.encode_batch(&[query]);
        let pred = self.net.forward_infer(elements, &counts, &mut Workspace::new());
        scaler.unscale(pred.get(0, 0)).max(1.0)
    }

    /// Parameter count (read-only walk).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }
}

impl Features {
    /// Featurizes one triple pattern into `out`.
    fn encode_element(&self, t: &lmkg_store::TriplePattern, out: &mut [f32]) {
        out.iter_mut().for_each(|x| *x = 0.0);
        let nd = (self.node_domain + 1) as f32;
        let pd = (self.pred_domain + 1) as f32;
        if let Some(s) = t.s.bound() {
            out[0] = (s.0 + 1) as f32 / nd;
            out[3] = 1.0;
        }
        if let Some(p) = t.p.bound() {
            out[1] = (p.0 + 1) as f32 / pd;
            out[4] = 1.0;
        }
        if let Some(o) = t.o.bound() {
            out[2] = (o.0 + 1) as f32 / nd;
            out[5] = 1.0;
        }
        for (j, sample) in self.samples.iter().enumerate() {
            if t.matches_wildcard(sample) {
                out[6 + j] = 1.0;
            }
        }
    }

    /// Stacks all elements of a batch of queries; returns the element matrix
    /// and per-query element counts.
    fn encode_batch(&self, queries: &[&Query]) -> (Matrix, Vec<usize>) {
        let w = self.width;
        let total: usize = queries.iter().map(|q| q.triples.len()).sum();
        let mut data = vec![0.0f32; total * w];
        let mut counts = Vec::with_capacity(queries.len());
        let mut row = 0usize;
        for q in queries {
            for t in &q.triples {
                self.encode_element(t, &mut data[row * w..(row + 1) * w]);
                row += 1;
            }
            counts.push(q.triples.len());
        }
        (Matrix::from_vec(total, w, data), counts)
    }
}

/// Mean over consecutive row groups of sizes `counts`.
fn mean_pool(elements: &Matrix, counts: &[usize]) -> Matrix {
    let w = elements.cols();
    let mut out = Matrix::zeros(counts.len(), w);
    let mut row = 0usize;
    for (q, &c) in counts.iter().enumerate() {
        let out_row = out.row_mut(q);
        for _ in 0..c {
            for (o, &x) in out_row.iter_mut().zip(elements.row(row)) {
                *o += x;
            }
            row += 1;
        }
        if c > 0 {
            out_row.iter_mut().for_each(|x| *x /= c as f32);
        }
    }
    out
}

/// Adjoint of [`mean_pool`]: broadcasts each pooled gradient back to its
/// element rows, divided by the group size.
fn unpool(grad_pooled: &Matrix, counts: &[usize]) -> Matrix {
    let w = grad_pooled.cols();
    let total: usize = counts.iter().sum();
    let mut out = Matrix::zeros(total, w);
    let mut row = 0usize;
    for (q, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            for (o, &g) in out.row_mut(row).iter_mut().zip(grad_pooled.row(q)) {
                *o = g / c.max(1) as f32;
            }
            row += 1;
        }
    }
    out
}

impl CardinalityEstimator for Mscn {
    fn name(&self) -> &str {
        if self.cfg.samples > 0 {
            "mscn-1k"
        } else {
            "mscn-0"
        }
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.predict(query)
    }

    fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>() + self.features.samples.len() * std::mem::size_of::<Triple>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg::metrics::QErrorStats;
    use lmkg_data::workload::{self, WorkloadConfig};
    use lmkg_data::{Dataset, Scale};
    use lmkg_store::QueryShape;

    fn setup() -> (KnowledgeGraph, Vec<LabeledQuery>) {
        let g = Dataset::LubmLike.generate(Scale::Ci, 3);
        let data = workload::generate(&g, &WorkloadConfig::train_default(QueryShape::Star, 2, 300, 11));
        (g, data)
    }

    fn quick_cfg(samples: usize) -> MscnConfig {
        MscnConfig {
            samples,
            hidden: 32,
            epochs: 40,
            ..Default::default()
        }
    }

    #[test]
    fn trains_and_reduces_loss() {
        let (g, data) = setup();
        let mut m = Mscn::new(&g, quick_cfg(0));
        let losses = m.train(&data);
        assert!(losses.last().unwrap() < &losses[0]);
    }

    #[test]
    fn in_sample_accuracy_is_sane() {
        let (g, data) = setup();
        let mut m = Mscn::new(&g, quick_cfg(0));
        m.train(&data);
        let pairs: Vec<(f64, u64)> = data
            .iter()
            .take(100)
            .map(|lq| (m.predict(&lq.query), lq.cardinality))
            .collect();
        let stats = QErrorStats::from_pairs(pairs).unwrap();
        assert!(stats.median < 15.0, "median q-error {}", stats.median);
    }

    #[test]
    fn bitmap_variant_materializes_samples() {
        let (g, data) = setup();
        let mut m = Mscn::new(&g, quick_cfg(100));
        assert_eq!(m.features.samples.len(), 100);
        assert_eq!(m.features.width, 106);
        m.train(&data);
        assert!(m.predict(&data[0].query) >= 1.0);
    }

    /// Pins the trained bits of MSCN-0 and of MSCN with a sample bitmap:
    /// sampling, init, the one shuffle order kept across epochs, the loss
    /// and every Adam step reach these predictions. Regenerate only for an
    /// intended numerics change.
    #[test]
    fn trained_predictions_are_pinned() {
        let (g, data) = setup();
        let pins = |samples: usize| -> Vec<u64> {
            let mut m = Mscn::new(
                &g,
                MscnConfig {
                    epochs: 10,
                    seed: 5,
                    ..quick_cfg(samples)
                },
            );
            m.train(&data);
            [0, 1, 2].iter().map(|&i| m.predict(&data[i].query).to_bits()).collect()
        };
        let (mscn0, mscn100) = (pins(0), pins(100));
        assert_eq!(
            mscn0,
            [0x4027_e46b_5660_18ba, 0x4042_381f_6207_9815, 0x4013_a428_b07c_c792],
            "MSCN-0 got {mscn0:#018x?}"
        );
        assert_eq!(
            mscn100,
            [0x403a_385c_7ba1_285b, 0x4057_1768_50c4_5bc8, 0x4021_c048_be31_e87e],
            "MSCN-100 got {mscn100:#018x?}"
        );
    }

    #[test]
    fn names_distinguish_variants() {
        let (g, _) = setup();
        assert_eq!(Mscn::new(&g, quick_cfg(0)).name(), "mscn-0");
        assert_eq!(Mscn::new(&g, quick_cfg(100)).name(), "mscn-1k");
    }

    #[test]
    fn pool_unpool_roundtrip_shapes() {
        let elements = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let pooled = mean_pool(&elements, &[2, 1]);
        assert_eq!(pooled.rows(), 2);
        assert_eq!(pooled.row(0), &[2.0, 3.0]); // mean of rows 0-1
        assert_eq!(pooled.row(1), &[5.0, 6.0]);
        let grads = unpool(&pooled, &[2, 1]);
        assert_eq!(grads.rows(), 3);
        assert_eq!(grads.row(0), &[1.0, 1.5]); // divided by group size 2
    }

    #[test]
    fn mscn0_is_smaller_than_mscn1k() {
        let (g, _) = setup();
        let m0 = Mscn::new(&g, quick_cfg(0));
        let m1k = Mscn::new(&g, quick_cfg(1000));
        assert!(m0.memory_bytes() < m1k.memory_bytes());
    }

    #[test]
    fn handles_mixed_query_sizes_in_one_batch() {
        let (g, mut data) = setup();
        let chains = workload::generate(&g, &WorkloadConfig::train_default(QueryShape::Chain, 3, 100, 5));
        data.extend(chains);
        let mut m = Mscn::new(&g, quick_cfg(0));
        let losses = m.train(&data);
        assert!(losses.iter().all(|l| l.is_finite()));
    }
}
