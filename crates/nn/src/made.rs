//! ResMADE: a masked autoregressive density estimator with residual blocks.
//!
//! LMKG-U (paper §VI-B) uses "ResMADE, a modified version of MADE enhanced by
//! residual connections". For a position ordering `x₁ … x_K` the network's
//! logit block for position `i` depends only on inputs at positions `< i`,
//! so one forward pass yields every conditional
//! `P(x_i | x₁ … x_{i−1})` and their product is the tuple density.
//!
//! Implementation notes:
//! * positions take categorical ids, embedded per position through one
//!   table per term space (nodes vs. predicates, §VI-B);
//! * all hidden layers share one degree assignment (cycling `1..K−1`), which
//!   makes residual skip-connections autoregressive-safe;
//! * the output layer emits one logit segment per position, masked so that
//!   segment `i` sees only hidden units with degree `≤ i−1`; segment 1
//!   receives only its bias, i.e. the learned marginal of `x₁`;
//! * [`Made::forward_ids`] is the one training forward (it caches for
//!   [`Made::backward_ids`]); [`Made::forward_ids_infer`] and
//!   [`Made::forward_ids_segment`] are the `&self` inference forwards, and
//!   the first is bitwise the training forward's output.

use crate::bytes;
use crate::embedding::Embedding;
use crate::layers::{Dense, Layer, Param, Parameterized, Relu};
use crate::quant::{read_header, write_header, QuantMode};
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use rand::Rng;
use std::io::{self, Write};

/// Configuration of a [`Made`] network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MadeConfig {
    /// Vocabulary size per term space (e.g. `[num_nodes, num_preds]`).
    pub vocab_sizes: Vec<usize>,
    /// For each autoregressive position, the index of its term space.
    pub spaces: Vec<usize>,
    /// Hidden width (all hidden layers share it; required by residual skips).
    pub hidden: usize,
    /// Number of residual blocks after the input layer.
    pub blocks: usize,
    /// Embedding dimensionality (paper: 32); at least 1.
    pub embed_dim: usize,
}

impl MadeConfig {
    /// Number of autoregressive positions.
    pub fn positions(&self) -> usize {
        self.spaces.len()
    }

    /// Logit segment widths (vocab of each position's space).
    pub fn segments(&self) -> Vec<usize> {
        self.spaces.iter().map(|&s| self.vocab_sizes[s]).collect()
    }

    /// Scalar parameters of the [`Made`] this configuration builds (weights,
    /// biases, embeddings), or `None` if the count overflows `usize`. A
    /// loader compares it with the bytes that should hold those weights
    /// before [`Made::new`] allocates them.
    pub fn param_count(&self) -> Option<usize> {
        let (h, d) = (self.hidden, self.embed_dim);
        let dense = |fan_in: usize, fan_out: usize| fan_in.checked_mul(fan_out)?.checked_add(fan_out);
        let tables = checked_sum(self.vocab_sizes.iter().map(|&v| v.checked_mul(d)))?;
        let out = checked_sum(self.spaces.iter().map(|&s| self.vocab_sizes.get(s).copied()))?;
        let input = dense(self.positions().checked_mul(d)?, h);
        let blocks = dense(h, h)?.checked_mul(self.blocks)?.checked_mul(2);
        checked_sum([Some(tables), input, blocks, dense(h, out)])
    }

    fn validate(&self) {
        assert!(self.positions() >= 2, "MADE needs at least two positions");
        assert!(!self.vocab_sizes.is_empty(), "at least one term space");
        assert!(
            self.spaces.iter().all(|&s| s < self.vocab_sizes.len()),
            "space index out of range"
        );
        assert!(self.vocab_sizes.iter().all(|&v| v >= 1), "empty vocabulary");
        assert!(self.hidden >= 1, "hidden width must be positive");
        assert!(self.embed_dim >= 1, "embedding dimensionality must be positive");
    }
}

/// `Σ terms`, or `None` if a term is `None` or the sum overflows.
fn checked_sum(terms: impl IntoIterator<Item = Option<usize>>) -> Option<usize> {
    terms.into_iter().try_fold(0usize, |n, t| n.checked_add(t?))
}

/// One residual block: `y = relu(x + M₂(relu(M₁(x))))`.
struct ResBlock {
    l1: Dense,
    r1: Relu,
    l2: Dense,
    out_relu: Relu,
}

impl ResBlock {
    fn new(l1: Dense, l2: Dense) -> Self {
        Self {
            l1,
            r1: Relu::new(),
            l2,
            out_relu: Relu::new(),
        }
    }

    fn forward(&mut self, x: Matrix) -> Matrix {
        let a = self.l1.forward(x.clone());
        let b = self.r1.forward(a);
        let mut c = self.l2.forward(b);
        c.add_assign(&x);
        self.out_relu.forward(c)
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let a = self.l1.forward_infer(x, ws);
        let b = self.r1.forward_infer_owned(a, ws);
        let mut c = self.l2.forward_infer(&b, ws);
        ws.recycle(b);
        c.add_assign(x);
        self.out_relu.forward_infer_owned(c, ws)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let ds = self.out_relu.backward(grad_out);
        let db = self.l2.backward(&ds);
        let da = self.r1.backward(&db);
        let mut dx = self.l1.backward(&da);
        dx.add_assign(&ds); // skip path
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.l1.visit_params_ref(f);
        self.l2.visit_params_ref(f);
    }
}

/// A ResMADE density model over categorical positions. Its layers and
/// embedding tables hold their weights in a store that is either trainable
/// f32 or, after [`Made::quantized`], frozen int8/bf16 — the inference
/// surface (`forward_ids_infer` / `forward_ids_segment`) is the same code on
/// every store.
pub struct Made {
    cfg: MadeConfig,
    segments: Vec<usize>,
    /// One embedding table per term space.
    embeddings: Vec<Embedding>,
    input_layer: Dense,
    input_relu: Relu,
    blocks: Vec<ResBlock>,
    output_layer: Dense,
    /// Cached per-position input-gradient slices for embedding backward.
    cached_ids: Option<Vec<Vec<usize>>>,
}

impl Made {
    /// Builds a ResMADE with the given configuration.
    pub fn new<R: Rng>(rng: &mut R, cfg: MadeConfig) -> Self {
        cfg.validate();
        let k = cfg.positions();
        let segments = cfg.segments();
        let hidden = cfg.hidden;

        // Input unit degrees: position index (1-based) per embedding block.
        let input_width = k * cfg.embed_dim;
        let input_degrees: Vec<usize> = (0..input_width).map(|u| 1 + u / cfg.embed_dim).collect();

        // Hidden degrees cycle 1..=K-1 and are shared by every hidden layer.
        let max_deg = (k - 1).max(1);
        let hidden_degrees: Vec<usize> = (0..hidden).map(|i| 1 + (i % max_deg)).collect();

        let mask_in = Matrix::from_fn(input_width, hidden, |u, h| {
            if hidden_degrees[h] >= input_degrees[u] {
                1.0
            } else {
                0.0
            }
        });
        let mask_hh = Matrix::from_fn(hidden, hidden, |a, b| {
            if hidden_degrees[b] >= hidden_degrees[a] {
                1.0
            } else {
                0.0
            }
        });
        let out_width: usize = segments.iter().sum();
        let mut out_pos = Vec::with_capacity(out_width);
        for (pos, &seg) in segments.iter().enumerate() {
            out_pos.extend(std::iter::repeat_n(pos + 1, seg));
        }
        let mask_out = Matrix::from_fn(hidden, out_width, |h, o| {
            if out_pos[o] > hidden_degrees[h] {
                1.0
            } else {
                0.0
            }
        });

        let embeddings = cfg
            .vocab_sizes
            .iter()
            .map(|&v| Embedding::new(rng, v, cfg.embed_dim))
            .collect();

        let input_layer = Dense::masked(rng, mask_in);
        let blocks = (0..cfg.blocks)
            .map(|_| ResBlock::new(Dense::masked(rng, mask_hh.clone()), Dense::masked(rng, mask_hh.clone())))
            .collect();
        let output_layer = Dense::masked(rng, mask_out);

        Self {
            cfg,
            segments,
            embeddings,
            input_layer,
            input_relu: Relu::new(),
            blocks,
            output_layer,
            cached_ids: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MadeConfig {
        &self.cfg
    }

    /// Logit segment widths per position.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// Encodes a batch of id tuples into the network input matrix, drawing
    /// the buffer from `ws`.
    fn encode_input(&self, batch_ids: &[Vec<usize>], ws: &mut Workspace) -> Matrix {
        let k = self.cfg.positions();
        let dim = self.cfg.embed_dim;
        // Every row is fully overwritten (the position blocks tile it), so
        // the unspecified-contents buffer is safe here.
        let mut x = ws.take_full(batch_ids.len(), k * dim);
        for (r, ids) in batch_ids.iter().enumerate() {
            debug_assert_eq!(ids.len(), k);
            let row = x.row_mut(r);
            for (pos, &id) in ids.iter().enumerate() {
                let table = &self.embeddings[self.cfg.spaces[pos]];
                table.lookup_into(id, &mut row[pos * dim..(pos + 1) * dim]);
            }
        }
        x
    }

    /// Training forward over a batch of complete id tuples, returning logits
    /// (`batch × Σ segments`) and caching what [`Made::backward_ids`] needs.
    /// Positions the caller has not decided yet may hold any placeholder id
    /// — the autoregressive masks guarantee they cannot influence earlier
    /// segments.
    pub fn forward_ids(&mut self, batch_ids: &[Vec<usize>]) -> Matrix {
        let x = self.encode_input(batch_ids, &mut Workspace::new());
        self.cached_ids = Some(batch_ids.to_vec());
        let mut h = self.input_relu.forward(self.input_layer.forward(x));
        for b in &mut self.blocks {
            h = b.forward(h);
        }
        self.output_layer.forward(h)
    }

    /// Inference-only full forward over **shared** model state: no caching,
    /// buffers from the caller's [`Workspace`], safe to run from any number
    /// of threads concurrently. Bitwise identical to [`Made::forward_ids`].
    pub fn forward_ids_infer(&self, batch_ids: &[Vec<usize>], ws: &mut Workspace) -> Matrix {
        let h = self.hidden_infer(batch_ids, ws);
        let out = self.output_layer.forward_infer(&h, ws);
        ws.recycle(h);
        out
    }

    /// Inference-only forward returning just the logit segment of one
    /// position (`batch × segments[pos]`). Runs the hidden stack once and a
    /// column-sliced output layer — the fast path of the likelihood-weighted
    /// sampler, which needs exactly one segment per autoregressive step.
    /// Shared-state (`&self`) like [`Made::forward_ids_infer`].
    pub fn forward_ids_segment(&self, batch_ids: &[Vec<usize>], pos: usize, ws: &mut Workspace) -> Matrix {
        let h = self.hidden_infer(batch_ids, ws);
        let lo: usize = self.segments[..pos].iter().sum();
        let hi = lo + self.segments[pos];
        let out = self.output_layer.forward_columns_infer(&h, lo, hi, ws);
        ws.recycle(h);
        out
    }

    /// The shared hidden stack of the inference paths: encode → input layer
    /// → ReLU → residual blocks.
    fn hidden_infer(&self, batch_ids: &[Vec<usize>], ws: &mut Workspace) -> Matrix {
        let x = self.encode_input(batch_ids, ws);
        let mut h = self.input_layer.forward_infer(&x, ws);
        ws.recycle(x);
        h = self.input_relu.forward_infer_owned(h, ws);
        for b in &self.blocks {
            let next = b.forward_infer(&h, ws);
            ws.recycle(h);
            h = next;
        }
        h
    }

    /// Backward pass from logit gradients; accumulates gradients in all
    /// weights and embedding tables.
    pub fn backward_ids(&mut self, grad_logits: &Matrix) {
        let mut g = self.output_layer.backward(grad_logits);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        g = self.input_relu.backward(&g);
        let gx = self.input_layer.backward(&g);

        let ids = self.cached_ids.take().expect("backward_ids without forward_ids");
        let dim = self.cfg.embed_dim;
        for (r, row_ids) in ids.iter().enumerate() {
            let grow = gx.row(r);
            for (pos, &id) in row_ids.iter().enumerate() {
                let space = self.cfg.spaces[pos];
                self.embeddings[space].accumulate_grad(id, &grow[pos * dim..(pos + 1) * dim]);
            }
        }
    }

    /// Total scalar parameter count (weights, biases, embeddings).
    pub fn param_count(&self) -> usize {
        let tables: usize = self.embeddings.iter().map(|e| e.vocab() * e.dim()).sum();
        tables + self.dense_layers().map(Parameterized::param_count).sum::<usize>()
    }

    /// Model size in bytes at the stored precision.
    pub fn memory_bytes(&self) -> usize {
        let tables: usize = self.embeddings.iter().map(Embedding::memory_bytes).sum();
        tables + self.dense_layers().map(Dense::memory_bytes).sum::<usize>()
    }

    /// Every dense layer in forward (and parameter-walk) order.
    fn dense_layers(&self) -> impl Iterator<Item = &Dense> {
        std::iter::once(&self.input_layer)
            .chain(self.blocks.iter().flat_map(|b| [&b.l1, &b.l2]))
            .chain(std::iter::once(&self.output_layer))
    }

    /// Maximum |weight| over masked-out connections across all masked layers.
    /// Must remain zero under training (diagnostic).
    pub fn mask_violation(&self) -> f32 {
        self.dense_layers().fold(0.0f32, |v, l| v.max(l.mask_violation()))
    }

    /// One-shot quantization of the trained model: the same ResMADE with
    /// every masked layer's weights (masked entries are exactly zero, so
    /// they quantize to exactly zero and the autoregressive property
    /// survives) and every embedding table frozen at `mode`. The result
    /// owns no f32 weights.
    pub fn quantized(&self, mode: QuantMode) -> Made {
        Made {
            cfg: self.cfg.clone(),
            segments: self.segments.clone(),
            embeddings: self.embeddings.iter().map(|e| e.quantized(mode)).collect(),
            input_layer: self.input_layer.quantized(mode),
            input_relu: Relu::new(),
            blocks: self
                .blocks
                .iter()
                .map(|b| ResBlock::new(b.l1.quantized(mode), b.l2.quantized(mode)))
                .collect(),
            output_layer: self.output_layer.quantized(mode),
            cached_ids: None,
        }
    }

    /// Serializes a frozen (int8/bf16) ResMADE, self-describing — see
    /// [`QUANT_MADE_MAGIC`]: mode, routing metadata, embedding tables, and
    /// every layer in forward order. An f32 model is `InvalidInput`: it is
    /// persisted as a parameter walk by [`crate::serialize::save_params`].
    pub fn save_quantized<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        write_header(writer, QUANT_MADE_MAGIC, self.quant_mode())?;
        let write_usizes = |writer: &mut W, values: &[usize]| -> io::Result<()> {
            writer.write_all(&(values.len() as u32).to_le_bytes())?;
            for &v in values {
                writer.write_all(&(v as u32).to_le_bytes())?;
            }
            Ok(())
        };
        write_usizes(writer, &self.cfg.spaces)?;
        writer.write_all(&(self.cfg.embed_dim as u32).to_le_bytes())?;
        write_usizes(writer, &self.segments)?;
        writer.write_all(&(self.embeddings.len() as u32).to_le_bytes())?;
        for e in &self.embeddings {
            e.write_frozen(writer)?;
        }
        self.input_layer.write_frozen(writer)?;
        writer.write_all(&(self.blocks.len() as u32).to_le_bytes())?;
        for b in &self.blocks {
            b.l1.write_frozen(writer)?;
            b.l2.write_frozen(writer)?;
        }
        self.output_layer.write_frozen(writer)
    }

    /// Restores a model serialized by [`Made::save_quantized`]. Needs no
    /// graph or RNG: the frozen representation is self-contained (the
    /// [`MadeConfig`] is recovered from the stored shapes).
    pub fn load_quantized(reader: &mut &[u8]) -> io::Result<Self> {
        let mode = read_header(reader, QUANT_MADE_MAGIC, "quantized-MADE")?;
        let read_usizes = |r: &mut &[u8]| -> io::Result<Vec<usize>> {
            let n = bytes::u32(r)? as usize;
            (0..bytes::len(r, n, 4)?).map(|_| Ok(bytes::u32(r)? as usize)).collect()
        };
        let spaces = read_usizes(reader)?;
        let embed_dim = bytes::u32(reader)? as usize;
        if embed_dim == 0 {
            return Err(bytes::invalid("embedding dimensionality 0".into()));
        }
        let segments = read_usizes(reader)?;
        if spaces.len() != segments.len() || spaces.iter().any(|&s| s >= spaces.len()) {
            return Err(bytes::invalid(
                "positions, term spaces and logit segments disagree".into(),
            ));
        }
        let n_spaces = spaces.iter().map(|&s| s + 1).max().unwrap_or(0);
        let n_embeddings = bytes::u32(reader)? as usize;
        if n_embeddings != n_spaces {
            return Err(bytes::invalid(format!(
                "{n_embeddings} embedding tables for {n_spaces} term spaces"
            )));
        }
        let embeddings = (0..n_embeddings)
            .map(|_| Embedding::read_frozen(reader, mode))
            .collect::<io::Result<Vec<_>>>()?;
        let input_layer = Dense::read_frozen(reader, mode)?;
        if input_layer.fan_in() != spaces.len() * embed_dim {
            return Err(bytes::invalid(format!(
                "input layer fan-in {} for {} positions × {embed_dim}",
                input_layer.fan_in(),
                spaces.len()
            )));
        }
        let n_blocks = bytes::u32(reader)?;
        let blocks = (0..n_blocks)
            .map(|_| {
                Ok(ResBlock::new(
                    Dense::read_frozen(reader, mode)?,
                    Dense::read_frozen(reader, mode)?,
                ))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let output_layer = Dense::read_frozen(reader, mode)?;
        // A position's logit segment is its term space's vocabulary.
        let mut vocab_sizes = vec![1; spaces.iter().map(|&s| s + 1).max().unwrap_or(0)];
        for (&space, &segment) in spaces.iter().zip(&segments) {
            vocab_sizes[space] = segment;
        }
        Ok(Self {
            cfg: MadeConfig {
                vocab_sizes,
                spaces,
                hidden: input_layer.fan_out(),
                blocks: blocks.len(),
                embed_dim,
            },
            segments,
            embeddings,
            input_layer,
            input_relu: Relu::new(),
            blocks,
            output_layer,
            cached_ids: None,
        })
    }
}

/// Magic prefix of the frozen-ResMADE format (parallel to
/// [`crate::layers::QUANT_MAGIC`] for sequential stacks).
pub const QUANT_MADE_MAGIC: &[u8; 8] = b"LMKGQM1\0";

impl Parameterized for Made {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.embeddings {
            f(e.param_mut());
        }
        self.input_layer.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.output_layer.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for e in &self.embeddings {
            f(e.param());
        }
        self.input_layer.visit_params_ref(f);
        for b in &self.blocks {
            b.visit_params_ref(f);
        }
        self.output_layer.visit_params_ref(f);
    }

    fn param_count(&self) -> usize {
        Made::param_count(self)
    }

    fn quant_mode(&self) -> Option<QuantMode> {
        self.input_layer.quant_mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg(embed: usize) -> MadeConfig {
        MadeConfig {
            vocab_sizes: vec![4, 3],
            spaces: vec![0, 1, 0], // node, pred, node
            hidden: 16,
            blocks: 1,
            embed_dim: embed,
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut made = Made::new(&mut rng, tiny_cfg(4));
        assert_eq!(made.segments(), &[4, 3, 4]);
        let logits = made.forward_ids(&[vec![0, 1, 2], vec![3, 0, 0]]);
        assert_eq!((logits.rows(), logits.cols()), (2, 11));
    }

    /// Core MADE invariant: perturbing position j leaves segments ≤ j intact.
    #[test]
    fn autoregressive_property_embeddings() {
        let mut rng = StdRng::seed_from_u64(42);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let mut ws = Workspace::new();
        let base = vec![1usize, 2, 3];
        let logits0 = made.forward_ids_infer(std::slice::from_ref(&base), &mut ws);

        for pos in 0..3 {
            let mut perturbed = base.clone();
            perturbed[pos] = (perturbed[pos] + 1) % made.segments()[pos];
            let logits1 = made.forward_ids_infer(&[perturbed], &mut ws);

            let mut offset = 0;
            for (i, &seg) in made.segments().to_vec().iter().enumerate() {
                let a = &logits0.row(0)[offset..offset + seg];
                let b = &logits1.row(0)[offset..offset + seg];
                if i <= pos {
                    assert_eq!(a, b, "segment {i} changed after perturbing position {pos}");
                }
                offset += seg;
            }
        }
    }

    /// First segment must be input-independent (bias-only marginal).
    #[test]
    fn first_segment_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let mut ws = Workspace::new();
        let l1 = made.forward_ids_infer(&[vec![0, 0, 0]], &mut ws);
        let l2 = made.forward_ids_infer(&[vec![3, 2, 3]], &mut ws);
        assert_eq!(&l1.row(0)[..4], &l2.row(0)[..4]);
    }

    /// Training on a deterministic dependency must drive NLL near zero for
    /// the dependent positions.
    #[test]
    fn learns_simple_dependency() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MadeConfig {
            vocab_sizes: vec![4],
            spaces: vec![0, 0],
            hidden: 32,
            blocks: 1,
            embed_dim: 8,
        };
        let mut made = Made::new(&mut rng, cfg);
        let segments = made.segments().to_vec();

        // x2 = (x1 + 1) mod 4, x1 uniform.
        let data: Vec<Vec<usize>> = (0..64).map(|i| vec![i % 4, (i + 1) % 4]).collect();
        let mut opt = Adam::new(5e-3);
        let mut final_loss = f32::MAX;
        for _ in 0..150 {
            let logits = made.forward_ids(&data);
            let (l, grad) = loss::segmented_cross_entropy(&logits, &segments, &data);
            made.backward_ids(&grad);
            opt.step(&mut made);
            final_loss = l;
        }
        // Ideal NLL = H(x1) + H(x2|x1) = ln4 + 0 ≈ 1.386.
        assert!(final_loss < 1.5, "final NLL {final_loss}");

        // The conditional P(x2 | x1) must be concentrated on (x1+1)%4.
        let logits = made.forward_ids_infer(&[vec![2, 0]], &mut Workspace::new());
        let seg2 = &logits.row(0)[4..8];
        let mut probs = seg2.to_vec();
        loss::softmax_in_place(&mut probs);
        assert!(probs[3] > 0.9, "P(x2=3 | x1=2) = {}", probs[3]);
    }

    #[test]
    fn gradient_check_small_made() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MadeConfig {
            vocab_sizes: vec![3, 2],
            spaces: vec![0, 1],
            hidden: 8,
            blocks: 1,
            embed_dim: 3,
        };
        let mut made = Made::new(&mut rng, cfg);
        let segments = made.segments().to_vec();
        let data = vec![vec![1usize, 0], vec![2, 1]];

        let logits = made.forward_ids(&data);
        let (_, grad) = loss::segmented_cross_entropy(&logits, &segments, &data);
        made.zero_grads();
        made.backward_ids(&grad);

        // Collect analytic grads in visit order.
        let mut analytic = Vec::new();
        made.visit_params(&mut |p| analytic.push(p.grad.clone()));

        // eps must thread the needle between f32 rounding in the loss and
        // ReLU kink crossings; 1e-3 plus the filters below is reliable.
        let eps = 1e-3f32;
        let mut max_err = 0.0f32;
        let mut checked = 0;
        for (p_idx, analytic_grad) in analytic.iter().enumerate() {
            for elem in [0usize, 1, 2, 3, 5, 7] {
                if elem >= analytic_grad.len() {
                    continue;
                }
                let perturb = |made: &mut Made, delta: f32| {
                    let mut i = 0;
                    made.visit_params(&mut |p| {
                        if i == p_idx {
                            p.value.as_mut_slice()[elem] += delta;
                        }
                        i += 1;
                    });
                };
                let eval = |made: &mut Made| {
                    let logits = made.forward_ids_infer(&data, &mut Workspace::new());
                    loss::segmented_cross_entropy(&logits, &segments, &data).0
                };
                let central_diff = |made: &mut Made, eps: f32| {
                    perturb(made, eps);
                    let lp = eval(made);
                    perturb(made, -2.0 * eps);
                    let lm = eval(made);
                    perturb(made, eps);
                    (lp - lm) / (2.0 * eps)
                };
                let numeric = central_diff(&mut made, eps);
                let numeric_half = central_diff(&mut made, eps / 2.0);
                // Elements whose numeric estimate is eps-sensitive sit on a
                // ReLU kink — finite differences are meaningless there.
                if (numeric - numeric_half).abs() > 0.1 * numeric.abs().max(numeric_half.abs()).max(1e-3) {
                    continue;
                }
                let a = analytic_grad.as_slice()[elem];
                // Masked-out weights carry an exactly-zero analytic gradient
                // but DO perturb the loss (the mask is enforced on values and
                // gradients, not re-applied inside forward). Near-zero
                // gradients are dominated by kink artifacts. Skip both; the
                // dedicated mask-invariance test covers the former.
                if a.abs() < 0.02 {
                    continue;
                }
                max_err = max_err.max((a - numeric_half).abs() / a.abs());
                checked += 1;
            }
        }
        assert!(checked > 10, "too few checked gradients ({checked})");
        assert!(max_err < 0.08, "max relative grad error {max_err}");
    }

    /// The sliced segment forward must agree exactly with the corresponding
    /// slice of the full forward pass — and the shared-state (`&self`)
    /// inference forwards must reproduce the training forward bitwise.
    #[test]
    fn segment_forward_matches_full_forward() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut made = Made::new(&mut rng, tiny_cfg(4));
        let batch = vec![vec![0usize, 2, 1], vec![3, 0, 2]];
        let full = made.forward_ids(&batch);
        let mut ws = Workspace::new();
        assert_eq!(made.forward_ids_infer(&batch, &mut ws), full);
        let mut offset = 0;
        for pos in 0..made.segments().len() {
            let width = made.segments()[pos];
            let sliced = made.forward_ids_segment(&batch, pos, &mut ws);
            assert_eq!((sliced.rows(), sliced.cols()), (2, width));
            for r in 0..2 {
                assert_eq!(sliced.row(r), &full.row(r)[offset..offset + width], "pos {pos} row {r}");
            }
            offset += width;
        }
    }

    /// A row of the segment forward is a function of that row's ids alone,
    /// whatever else shares the batch: at every M the sampler forwards (the
    /// GEMV path up to 8 rows, the blocked core above, the threaded split
    /// once the output slice crosses `PARALLEL_MIN_WORK`) and on every
    /// weight store, each row of a batch with repeated rows is bitwise its
    /// own 1-row forward. The LMKG-U sampler forwards one row per distinct
    /// particle prefix on the strength of this.
    #[test]
    fn segment_forward_rows_are_independent_of_the_batch() {
        let cfg = MadeConfig {
            vocab_sizes: vec![300, 5],
            spaces: vec![0, 1, 0],
            hidden: 64,
            blocks: 1,
            embed_dim: 8,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let made = Made::new(&mut rng, cfg);
        let widest = *made.segments().iter().max().unwrap();
        assert!(300 * made.cfg.hidden * widest > crate::tensor::PARALLEL_MIN_WORK);
        let prefixes: Vec<Vec<usize>> = (0..11).map(|i| vec![(i * 37) % 300, i % 5, (i * 101) % 300]).collect();
        let mut ws = Workspace::new();
        for model in [made.quantized(QuantMode::Int8), made.quantized(QuantMode::Bf16), made] {
            for m in [1usize, 7, 9, 128, 300] {
                let batch: Vec<Vec<usize>> = (0..m).map(|r| prefixes[(r * 7) % prefixes.len()].clone()).collect();
                for pos in 0..model.segments().len() {
                    let rows = model.forward_ids_segment(&batch, pos, &mut ws);
                    for (r, ids) in batch.iter().enumerate() {
                        let alone = model.forward_ids_segment(std::slice::from_ref(ids), pos, &mut ws);
                        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(rows.row(r)),
                            bits(alone.row(0)),
                            "{:?}, M = {m}, pos {pos}, row {r}",
                            model.quant_mode()
                        );
                        ws.recycle(alone);
                    }
                    ws.recycle(rows);
                }
            }
        }
    }

    /// Masked weights must stay exactly zero across real training steps —
    /// otherwise the autoregressive property silently breaks.
    #[test]
    fn masked_weights_stay_zero_under_training() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut made = Made::new(&mut rng, tiny_cfg(4));
        let segments = made.segments().to_vec();
        let data: Vec<Vec<usize>> = (0..32).map(|i| vec![i % 4, i % 3, (i + 1) % 4]).collect();
        let mut opt = Adam::new(1e-2);
        for _ in 0..25 {
            let logits = made.forward_ids(&data);
            let (_, grad) = loss::segmented_cross_entropy(&logits, &segments, &data);
            made.backward_ids(&grad);
            opt.step(&mut made);
        }
        assert_eq!(made.mask_violation(), 0.0);
    }

    #[test]
    fn param_count_positive_and_memory() {
        let mut rng = StdRng::seed_from_u64(0);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let n = made.param_count();
        assert!(n > 0);
        assert_eq!(made.memory_bytes(), n * 4);
        let mut blocks3 = tiny_cfg(5);
        blocks3.blocks = 3;
        for cfg in [tiny_cfg(4), blocks3] {
            assert_eq!(cfg.param_count(), Some(Made::new(&mut rng, cfg.clone()).param_count()));
        }
        let huge = MadeConfig {
            hidden: usize::MAX / 2,
            ..tiny_cfg(4)
        };
        assert_eq!(huge.param_count(), None, "an overflowing count is None, not a panic");
    }

    /// Quantized inference must track the f32 model closely (it is not
    /// bitwise — the analytic error bound is `scale/2` per weight — but on a
    /// trained-scale random model the logit drift stays small) and the
    /// quantized model's own segment forward must slice its full forward
    /// bitwise.
    #[test]
    fn quantized_forward_tracks_f32_and_slices_consistently() {
        let mut rng = StdRng::seed_from_u64(17);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let batch = vec![vec![0usize, 2, 1], vec![3, 0, 2], vec![1, 1, 3]];
        let mut ws = Workspace::new();
        let full_f32 = made.forward_ids_infer(&batch, &mut ws);

        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = made.quantized(mode);
            assert_eq!(q.segments(), made.segments());
            let full_q = q.forward_ids_infer(&batch, &mut ws);
            assert_eq!((full_q.rows(), full_q.cols()), (full_f32.rows(), full_f32.cols()));
            for (a, b) in full_f32.as_slice().iter().zip(full_q.as_slice()) {
                assert!((a - b).abs() < 0.05, "mode {mode:?}: {a} vs {b}");
            }
            let mut offset = 0;
            for pos in 0..q.segments().len() {
                let width = q.segments()[pos];
                let sliced = q.forward_ids_segment(&batch, pos, &mut ws);
                for r in 0..batch.len() {
                    assert_eq!(sliced.row(r), &full_q.row(r)[offset..offset + width]);
                }
                offset += width;
            }
        }
    }

    /// Int8 quantization must shrink the model ≥ 3.5×, bf16 ≥ 2×.
    #[test]
    fn quantized_memory_shrinks_by_mode_ratio() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = MadeConfig {
            vocab_sizes: vec![64, 32],
            spaces: vec![0, 1, 0],
            hidden: 128,
            blocks: 2,
            embed_dim: 32,
        };
        let made = Made::new(&mut rng, cfg);
        let f32_bytes = made.memory_bytes();
        let int8 = made.quantized(QuantMode::Int8).memory_bytes();
        let bf16 = made.quantized(QuantMode::Bf16).memory_bytes();
        assert!(int8 * 7 <= f32_bytes * 2, "int8 {int8} vs f32 {f32_bytes}");
        // bf16 halves the weights but keeps f32 biases, so allow that margin.
        assert!(
            bf16 * 2 <= f32_bytes + made.param_count(),
            "bf16 {bf16} vs f32 {f32_bytes}"
        );
    }

    /// Serialized quantized ResMADEs must restore to bitwise-identical
    /// forwards, in both modes.
    #[test]
    fn quantized_made_save_load_roundtrips_bitwise() {
        let mut rng = StdRng::seed_from_u64(33);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let batch = vec![vec![0usize, 2, 1], vec![3, 0, 2]];
        let mut ws = Workspace::new();
        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = made.quantized(mode);
            let expected = q.forward_ids_infer(&batch, &mut ws);
            let mut buf = Vec::new();
            q.save_quantized(&mut buf).unwrap();
            let loaded = Made::load_quantized(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.quant_mode(), Some(mode));
            assert_eq!(loaded.segments(), q.segments());
            assert_eq!(loaded.memory_bytes(), q.memory_bytes());
            let got = loaded.forward_ids_infer(&batch, &mut ws);
            assert_eq!(got, expected, "mode {mode:?}");
            for pos in 0..q.segments().len() {
                assert_eq!(
                    loaded.forward_ids_segment(&batch, pos, &mut ws),
                    q.forward_ids_segment(&batch, pos, &mut ws),
                    "sliced forward at pos {pos}"
                );
            }
        }
    }

    #[test]
    fn quantized_made_load_rejects_bad_magic_and_truncation() {
        assert!(Made::load_quantized(&mut b"NOTAMADE".as_slice()).is_err());
        let mut rng = StdRng::seed_from_u64(33);
        let made = Made::new(&mut rng, tiny_cfg(4));
        let mut buf = Vec::new();
        made.quantized(QuantMode::Int8).save_quantized(&mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(Made::load_quantized(&mut buf.as_slice()).is_err());
    }

    /// Overwrites the `u32` field at `offset` of an int8 save of the
    /// `tiny_cfg(4)` ResMADE — checking that it holds `field` first — with
    /// `bad`, and asserts the load refuses the result as `InvalidData`.
    fn assert_patch_rejected(offset: usize, field: u32, bad: u32) {
        let made = Made::new(&mut StdRng::seed_from_u64(33), tiny_cfg(4));
        let mut buf = Vec::new();
        made.quantized(QuantMode::Int8).save_quantized(&mut buf).unwrap();
        assert_eq!(
            buf[offset..offset + 4],
            field.to_le_bytes(),
            "layout of the fixture moved"
        );
        buf[offset..offset + 4].copy_from_slice(&bad.to_le_bytes());
        let err = Made::load_quantized(&mut buf.as_slice())
            .err()
            .expect("a patched payload loaded");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Offsets in that save: magic + mode (9 bytes), spaces (count + 3),
    /// `embed_dim`, segments (count + 3), the table count, the 4×4 and 3×4
    /// int8 tables (shape, rows, one scale per row), the input layer's
    /// `fan_in`.
    const EMBED_DIM_AT: usize = 9 + 4 * 4;
    const TABLE_COUNT_AT: usize = EMBED_DIM_AT + 4 + 4 * 4;
    const FAN_IN_AT: usize = TABLE_COUNT_AT + 4 + (8 + 4 * 4 + 4 * 4) + (8 + 3 * 4 + 3 * 4);

    #[test]
    fn quantized_made_load_rejects_zero_embed_dim() {
        assert_patch_rejected(EMBED_DIM_AT, 4, 0);
    }

    #[test]
    fn quantized_made_load_rejects_table_count_mismatch() {
        assert_patch_rejected(TABLE_COUNT_AT, 2, 1);
        assert_patch_rejected(TABLE_COUNT_AT, 2, 3);
    }

    #[test]
    fn quantized_made_load_rejects_input_fan_in_mismatch() {
        assert_patch_rejected(FAN_IN_AT, 12, 11);
    }

    #[test]
    #[should_panic(expected = "at least two positions")]
    fn rejects_single_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Made::new(
            &mut rng,
            MadeConfig {
                vocab_sizes: vec![4],
                spaces: vec![0],
                hidden: 8,
                blocks: 1,
                embed_dim: 4,
            },
        );
    }
}
