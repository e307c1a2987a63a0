//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer has one training forward, which caches what it needs and is
//! consumed by `backward`, and one `&self` inference forward that caches
//! nothing. Parameters are exposed through [`Layer::visit_params`]
//! so optimizers and serializers can walk a model without knowing its shape.

use crate::init;
use crate::quant::{read_header, read_shape, write_header, QuantMode, ScaleAxis, Weights};
use crate::serialize::{read_f32s, read_u32, write_f32s};
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use rand::Rng;
use std::io::{self, Read, Write};

/// A trainable parameter: value plus gradient accumulator of identical shape.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Gradient accumulated by the last backward pass.
    pub grad: Matrix,
}

impl Param {
    /// Wraps an initialized value with a zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable layer operating on batched row-major matrices.
pub trait Layer {
    /// Training forward: computes outputs and caches what
    /// [`Layer::backward`] needs. Takes the input by value, so activations
    /// and dropout work in place and [`Dense`] keeps it as its cache without
    /// a copy.
    fn forward(&mut self, x: Matrix) -> Matrix;

    /// Inference-only forward over **shared** layer state: no activation is
    /// cached, so any number of threads may run `forward_infer` on one model
    /// concurrently. Output buffers come from the caller's [`Workspace`];
    /// results are bitwise identical to the training [`Layer::forward`] of a
    /// dropout-free stack.
    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix;

    /// Like [`Layer::forward_infer`] but takes ownership of the input,
    /// letting in-place layers (activations, dropout) reuse it as
    /// the output. The default recycles the input into the workspace after a
    /// borrowed forward. Numerically identical to [`Layer::forward_infer`].
    fn forward_infer_owned(&self, x: Matrix, ws: &mut Workspace) -> Matrix {
        let y = self.forward_infer(&x, ws);
        ws.recycle(x);
        y
    }

    /// Propagates `grad_out` backwards, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input. Must be called
    /// after a [`Layer::forward`].
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visits all trainable parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits all trainable parameters read-only, in the same stable order
    /// as [`Layer::visit_params`] — the shared-access walk behind `&self`
    /// parameter counting and memory accounting.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grad.fill(0.0));
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// The reduced-precision store this layer's weights are frozen in, or
    /// `None` while they are trainable f32. Training-only operations
    /// (`forward`, `backward`, the parameter walks) panic on a
    /// frozen layer; [`crate::serialize`] checks this first and returns
    /// `InvalidInput` instead.
    fn quant_mode(&self) -> Option<QuantMode> {
        None
    }
}

/// Fully connected layer `y = x·W + b`, optionally with a fixed binary
/// connectivity mask on the weights — the building block of MADE, where the
/// invariant `W = W ⊙ M` is maintained after every gradient update by
/// masking the gradient too.
///
/// The weights live in a weight store ([`crate::quant`]): trainable f32, or frozen
/// int8/bf16 after [`Dense::quantized`]. The bias is f32 in every store.
pub struct Dense {
    fan_in: usize,
    fan_out: usize,
    w: Weights,
    b: Param,
    /// `fan_in × fan_out` over {0,1}; `None` for an unmasked layer and for a
    /// frozen one (masked weights are exactly zero, which int8 and bf16 both
    /// represent exactly, so the store preserves the connectivity alone).
    mask: Option<Matrix>,
    cached_input: Option<Matrix>,
}

impl Dense {
    fn from_store(fan_in: usize, fan_out: usize, w: Weights, bias: Matrix, mask: Option<Matrix>) -> Self {
        Self {
            fan_in,
            fan_out,
            w,
            b: Param::new(bias),
            mask,
            cached_input: None,
        }
    }

    fn from_f32(w: Matrix, mask: Option<Matrix>) -> Self {
        let (fan_in, fan_out) = (w.rows(), w.cols());
        let store = Weights::F32(Param::new(w));
        Self::from_store(fan_in, fan_out, store, Matrix::zeros(1, fan_out), mask)
    }

    /// He-initialized dense layer (for ReLU stacks).
    pub fn new_he<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Self {
        Self::from_f32(init::he(rng, fan_in, fan_out), None)
    }

    /// Xavier-initialized dense layer (for sigmoid/linear outputs).
    pub fn new_xavier<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Self {
        Self::from_f32(init::xavier(rng, fan_in, fan_out), None)
    }

    /// He-initialized masked layer; `mask` is `fan_in × fan_out` over {0,1}.
    pub fn masked<R: Rng>(rng: &mut R, mask: Matrix) -> Self {
        let mut w = init::he(rng, mask.rows(), mask.cols());
        apply_mask(&mut w, &mask);
        Self::from_f32(w, Some(mask))
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The frozen copy of this trained layer at `mode`: int8 weights with
    /// one scale per output column, or bf16 weights; the bias is carried
    /// over. Panics if the layer is already frozen — re-encoding quantized
    /// weights would only compound rounding.
    pub fn quantized(&self, mode: QuantMode) -> Dense {
        let store = Weights::quantize(&self.w.param().value, mode, ScaleAxis::Cols);
        Self::from_store(self.fan_in, self.fan_out, store, self.b.value.clone(), None)
    }

    /// The weight matrix as f32: the stored values, or the dequantized
    /// `w' ≈ w` of a frozen layer (test/diagnostic surface for the analytic
    /// error bounds).
    pub fn weights_f32(&self) -> Matrix {
        self.w.to_f32(self.fan_in, self.fan_out, ScaleAxis::Cols)
    }

    /// Per-output-channel scales (int8 store only).
    pub fn scales(&self) -> Option<&[f32]> {
        self.w.scales()
    }

    /// Bytes held by this layer's parameters: the weight store plus the f32
    /// bias.
    pub fn memory_bytes(&self) -> usize {
        self.w.memory_bytes() + self.b.len() * std::mem::size_of::<f32>()
    }

    /// Inference-only forward computing just output columns `lo..hi`
    /// (`y = x·W[:, lo..hi] + b[lo..hi]`) into a workspace buffer. The
    /// autoregressive sampler uses this to evaluate one logit segment per
    /// step instead of the full output layer. No activations are cached.
    pub fn forward_columns_infer(&self, x: &Matrix, lo: usize, hi: usize, ws: &mut Workspace) -> Matrix {
        assert_eq!(x.cols(), self.fan_in, "input width must match fan_in");
        let bias = self.b.value.as_slice();
        let Weights::F32(w) = &self.w else {
            return self.w.frozen_forward(x, bias, lo, hi, ws);
        };
        let mut y = ws.matmul_cols(x, &w.value, lo, hi);
        y.add_row_vector(&bias[lo..hi]);
        y
    }

    /// Maximum |weight| over masked-out connections. Zero as long as the
    /// masking invariant holds (diagnostic for tests); zero without a mask.
    pub fn mask_violation(&self) -> f32 {
        let Some(mask) = &self.mask else { return 0.0 };
        self.w
            .param()
            .value
            .as_slice()
            .iter()
            .zip(mask.as_slice())
            .filter(|&(_, &m)| m == 0.0)
            .fold(0.0f32, |acc, (&w, _)| acc.max(w.abs()))
    }

    /// Serializes a frozen layer's payload (shape, weights, scales, bias) —
    /// shared by [`Sequential::save_quantized`] and
    /// [`crate::Made::save_quantized`].
    pub(crate) fn write_frozen<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(&(self.fan_in as u32).to_le_bytes())?;
        writer.write_all(&(self.fan_out as u32).to_le_bytes())?;
        self.w.write_frozen(writer)?;
        write_f32s(writer, self.b.value.as_slice())
    }

    /// Restores a payload written by [`Dense::write_frozen`] at `mode`.
    pub(crate) fn read_frozen<R: Read>(reader: &mut R, mode: QuantMode) -> io::Result<Self> {
        let (fan_in, fan_out) = read_shape(reader)?;
        let w = Weights::read_frozen(reader, mode, fan_in * fan_out, fan_out)?;
        let mut bias = vec![0.0f32; fan_out];
        read_f32s(reader, &mut bias)?;
        let bias = Matrix::from_vec(1, fan_out, bias);
        Ok(Self::from_store(fan_in, fan_out, w, bias, None))
    }
}

fn apply_mask(w: &mut Matrix, mask: &Matrix) {
    for (x, m) in w.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        *x *= m;
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.param().value);
        y.add_row_vector(self.b.value.as_slice());
        self.cached_input = Some(x);
        y
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let Weights::F32(w) = &self.w else {
            return self.forward_columns_infer(x, 0, self.fan_out, ws);
        };
        let mut y = ws.matmul(x, &w.value);
        y.add_row_vector(self.b.value.as_slice());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let w = self.w.param_mut();
        let x = self.cached_input.take().expect("backward without forward");
        {
            // Scoped so the weight-sized temporary is freed before the
            // input gradient below is allocated.
            let mut wg = x.matmul_tn(grad_out);
            if let Some(mask) = &self.mask {
                apply_mask(&mut wg, mask);
            }
            w.grad.add_assign(&wg);
        }
        let bias_grad = Matrix::from_vec(1, grad_out.cols(), grad_out.col_sums());
        self.b.grad.add_assign(&bias_grad);
        grad_out.matmul_nt(&w.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(self.w.param_mut());
        f(&mut self.b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(self.w.param());
        f(&self.b);
    }

    fn param_count(&self) -> usize {
        self.fan_in * self.fan_out + self.fan_out
    }

    fn quant_mode(&self) -> Option<QuantMode> {
        self.w.mode()
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    cached_output_mask: Option<Matrix>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Matrix) -> Matrix {
        self.cached_output_mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        x.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        x
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        // Every element is written before any is read, so the pooled buffer
        // can skip its zero fill.
        let mut y = ws.take_full(x.rows(), x.cols());
        for (o, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = v.max(0.0);
        }
        y
    }

    fn forward_infer_owned(&self, mut x: Matrix, _ws: &mut Workspace) -> Matrix {
        x.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        x
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.cached_output_mask.take().expect("backward without forward");
        grad_out.zip_map(&mask, |g, m| g * m)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Matrix>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, mut x: Matrix) -> Matrix {
        x.as_mut_slice().iter_mut().for_each(|v| *v = 1.0 / (1.0 + (-*v).exp()));
        self.cached_output = Some(x.clone());
        x
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take_full(x.rows(), x.cols());
        for (o, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = 1.0 / (1.0 + (-v).exp());
        }
        y
    }

    fn forward_infer_owned(&self, mut x: Matrix, _ws: &mut Workspace) -> Matrix {
        x.as_mut_slice().iter_mut().for_each(|v| *v = 1.0 / (1.0 + (-*v).exp()));
        x
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let y = self.cached_output.take().expect("backward without forward");
        grad_out.zip_map(&y, |g, s| g * s * (1.0 - s))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Inverted dropout: scales surviving activations by `1/(1-p)` at train time,
/// identity at inference (paper Fig. 3 includes a dropout stage in LMKG-S).
pub struct Dropout {
    p: f32,
    rng_state: u64,
    cached_mask: Option<Matrix>,
}

impl Dropout {
    /// `p` is the drop probability in `[0, 1)`. `seed` makes runs repeatable.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self {
            p,
            rng_state: seed | 1,
            cached_mask: None,
        }
    }

    #[inline]
    fn next_uniform(&mut self) -> f32 {
        // xorshift64*; light-weight, state-local, deterministic.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32) / (1u64 << 24) as f32
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut x: Matrix) -> Matrix {
        if self.p == 0.0 {
            return x;
        }
        let keep = 1.0 - self.p;
        let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
            if self.next_uniform() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        x.as_mut_slice()
            .iter_mut()
            .zip(mask.as_slice())
            .for_each(|(v, m)| *v *= m);
        self.cached_mask = Some(mask);
        x
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        // Inverted dropout is the identity at inference; the copy overwrites
        // the whole buffer, so no zero fill is needed.
        let mut y = ws.take_full(x.rows(), x.cols());
        y.as_mut_slice().copy_from_slice(x.as_slice());
        y
    }

    fn forward_infer_owned(&self, x: Matrix, _ws: &mut Workspace) -> Matrix {
        x
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self.cached_mask.take() {
            Some(mask) => grad_out.zip_map(&mask, |g, m| g * m),
            None => grad_out.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// One layer of a [`Sequential`]: the four kinds the workspace's dense
/// models are built from — and the four layer tags of the `LMKGQT1` format.
pub enum Stage {
    /// A [`Dense`] layer.
    Dense(Dense),
    /// A [`Relu`] activation.
    Relu(Relu),
    /// A [`Sigmoid`] activation.
    Sigmoid(Sigmoid),
    /// A [`Dropout`] stage (the identity at inference).
    Dropout(Dropout),
}

macro_rules! stage_from {
    ($($kind:ident),*) => {$(
        impl From<$kind> for Stage {
            fn from(layer: $kind) -> Self {
                Stage::$kind(layer)
            }
        }
    )*};
}
stage_from!(Dense, Relu, Sigmoid, Dropout);

impl Stage {
    fn layer(&self) -> &dyn Layer {
        match self {
            Stage::Dense(l) => l,
            Stage::Relu(l) => l,
            Stage::Sigmoid(l) => l,
            Stage::Dropout(l) => l,
        }
    }

    fn layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            Stage::Dense(l) => l,
            Stage::Relu(l) => l,
            Stage::Sigmoid(l) => l,
            Stage::Dropout(l) => l,
        }
    }
}

/// Magic prefix of the frozen sequential-model format (parallel to the f32
/// parameter format's `LMKGNN1\0` in [`crate::serialize`]).
pub const QUANT_MAGIC: &[u8; 8] = b"LMKGQT1\0";

/// A sequential stack of layers. Every stage is plain data, so whole models
/// can be shared behind `Arc` by concurrent inference threads.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Stage>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Into<Stage>) -> &mut Self {
        self.layers.push(layer.into());
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// One-shot post-training quantization of the trained stack: the same
    /// model with every dense layer's weights frozen at `mode` (see
    /// [`crate::quant`]). Panics if the stack is already frozen.
    pub fn quantized(&self, mode: QuantMode) -> Sequential {
        let layers = self
            .layers
            .iter()
            .map(|stage| match stage {
                Stage::Dense(d) => Stage::Dense(d.quantized(mode)),
                Stage::Relu(_) => Stage::Relu(Relu::new()),
                Stage::Sigmoid(_) => Stage::Sigmoid(Sigmoid::new()),
                // A frozen model never trains, and inverted dropout is the
                // identity at inference.
                Stage::Dropout(_) => Stage::Dropout(Dropout::new(0.0, 0)),
            })
            .collect();
        Sequential { layers }
    }

    /// Bytes held by the parameters at their stored precision.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|stage| match stage {
                Stage::Dense(d) => d.memory_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Serializes a frozen (int8/bf16) model, self-describing — see
    /// [`QUANT_MAGIC`]. An f32 model is `InvalidInput`: it is persisted as a
    /// parameter walk by [`crate::serialize::save_params`].
    pub fn save_quantized<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        write_header(writer, QUANT_MAGIC, self.quant_mode())?;
        writer.write_all(&(self.layers.len() as u32).to_le_bytes())?;
        for stage in &self.layers {
            match stage {
                Stage::Dense(d) => {
                    writer.write_all(&[0u8])?;
                    d.write_frozen(writer)?;
                }
                Stage::Relu(_) => writer.write_all(&[1u8])?,
                Stage::Sigmoid(_) => writer.write_all(&[2u8])?,
                Stage::Dropout(_) => writer.write_all(&[3u8])?,
            }
        }
        Ok(())
    }

    /// Restores a model serialized by [`Sequential::save_quantized`].
    pub fn load_quantized<R: Read>(reader: &mut R) -> io::Result<Self> {
        let mode = read_header(reader, QUANT_MAGIC, "quantized-model")?;
        let count = read_u32(reader)? as usize;
        let mut model = Sequential::new();
        for i in 0..count {
            let mut tag = [0u8; 1];
            reader.read_exact(&mut tag)?;
            match tag[0] {
                0 => model.push(Dense::read_frozen(reader, mode)?),
                1 => model.push(Relu::new()),
                2 => model.push(Sigmoid::new()),
                3 => model.push(Dropout::new(0.0, 0)),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("layer {i}: unknown layer tag {other}"),
                    ))
                }
            };
        }
        Ok(model)
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: Matrix) -> Matrix {
        self.layers.iter_mut().fold(x, |h, stage| stage.layer_mut().forward(h))
    }

    fn forward_infer(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let (first, rest) = match self.layers.split_first() {
            Some(split) => split,
            None => return x.clone(),
        };
        let mut h = first.layer().forward_infer(x, ws);
        for stage in rest {
            h = stage.layer().forward_infer_owned(h, ws);
        }
        h
    }

    fn forward_infer_owned(&self, x: Matrix, ws: &mut Workspace) -> Matrix {
        let mut h = x;
        for stage in &self.layers {
            h = stage.layer().forward_infer_owned(h, ws);
        }
        h
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for stage in self.layers.iter_mut().rev() {
            g = stage.layer_mut().backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for stage in &mut self.layers {
            stage.layer_mut().visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for stage in &self.layers {
            stage.layer().visit_params_ref(f);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|stage| stage.layer().param_count()).sum()
    }

    fn quant_mode(&self) -> Option<QuantMode> {
        self.layers.iter().find_map(|stage| stage.layer().quant_mode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new_he(&mut rng, 3, 2);
        d.b.value.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::zeros(4, 3);
        let y = d.forward(x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → output is exactly the bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn relu_clamps_and_gates_gradient() {
        let mut relu = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu.forward(x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let g = relu.backward(&Matrix::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Matrix::from_vec(1, 3, vec![-10.0, 0.0, 10.0]);
        let y = s.forward(x);
        assert!(y.as_slice()[0] < 1e-4);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-4);
        let g = s.backward(&Matrix::from_vec(1, 3, vec![1.0; 3]));
        // Max derivative at 0 is 0.25.
        assert!((g.as_slice()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let d = Dropout::new(0.5, 3);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut ws = Workspace::new();
        assert_eq!(d.forward_infer(&x, &mut ws), x);
        assert_eq!(d.forward_infer_owned(x.clone(), &mut ws), x);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        let mut d = Dropout::new(0.3, 7);
        let x = Matrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let y = d.forward(x);
        let mean = y.as_slice().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn masked_dense_respects_mask() {
        let mut rng = StdRng::seed_from_u64(0);
        let mask = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut md = Dense::masked(&mut rng, mask);
        // Masked entries are zero in the weights.
        assert_eq!(md.w.param().value.get(0, 1), 0.0);
        assert_eq!(md.w.param().value.get(1, 0), 0.0);
        // Input feature 0 can only influence output 0.
        let x0 = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let y0 = md.forward(x0);
        assert_eq!(y0.get(0, 1), md.b.value.get(0, 1));
        // Gradients stay masked after backward.
        let _ = md.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(md.w.param().grad.get(0, 1), 0.0);
        assert_eq!(md.w.param().grad.get(1, 0), 0.0);
    }

    #[test]
    fn sequential_composes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 4, 8));
        model.push(Relu::new());
        model.push(Dense::new_xavier(&mut rng, 8, 1));
        model.push(Sigmoid::new());
        let x = Matrix::zeros(2, 4);
        let y = model.forward(x);
        assert_eq!((y.rows(), y.cols()), (2, 1));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(model.param_count() > 0);
    }

    /// The `&self` inference path must reproduce the training forward of a
    /// dropout-free stack bitwise, with and without a warmed workspace pool,
    /// and the read-only parameter walk must agree with the mutable one.
    #[test]
    fn forward_infer_matches_training_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 6, 16));
        model.push(Relu::new());
        model.push(Dropout::new(0.0, 9));
        model.push(Dense::new_xavier(&mut rng, 16, 3));
        model.push(Sigmoid::new());

        let x = crate::test_support::seeded_matrix(5, 6, 31);
        let expected = model.forward(x.clone());
        let mut ws = Workspace::new();
        let cold = model.forward_infer(&x, &mut ws);
        assert_eq!(cold, expected);
        ws.recycle(cold);
        let warm = model.forward_infer(&x, &mut ws);
        assert_eq!(warm, expected, "recycled buffers must not change results");

        let mut mutable_count = 0;
        model.visit_params(&mut |p| mutable_count += p.len());
        assert_eq!(model.param_count(), mutable_count);
    }

    #[test]
    fn zero_grads_resets() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new_he(&mut rng, 2, 2);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let _ = d.forward(x);
        let _ = d.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert!(d.w.param().grad.max_abs() > 0.0);
        d.zero_grads();
        assert_eq!(d.w.param().grad.max_abs(), 0.0);
    }

    /// Numerical gradient check for a small Dense+ReLU+Dense stack under a
    /// squared-error loss.
    #[test]
    fn gradient_check_dense_stack() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 3, 5));
        model.push(Relu::new());
        model.push(Dense::new_xavier(&mut rng, 5, 1));

        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, 0.1, 0.4, -0.6]);
        let target = Matrix::from_vec(2, 1, vec![0.3, -0.7]);

        // Analytic gradient: L = mean((y - t)^2).
        let y = model.forward(x.clone());
        let n = y.len() as f32;
        let grad = y.zip_map(&target, |a, b| 2.0 * (a - b) / n);
        model.zero_grads();
        let _ = model.backward(&grad);

        let loss_fn = |model: &mut Sequential, x: &Matrix, t: &Matrix| -> f32 {
            let y = model.forward_infer(x, &mut Workspace::new());
            y.zip_map(t, |a, b| (a - b) * (a - b)).as_slice().iter().sum::<f32>() / y.len() as f32
        };

        // Spot-check several parameters with central differences.
        let eps = 1e-2f32;
        let mut checked = 0;
        let mut max_rel_err = 0.0f32;
        for p_idx in 0..4 {
            for elem in [0usize, 1] {
                let mut analytic = None;
                let mut i = 0;
                model.visit_params(&mut |p| {
                    if i == p_idx && elem < p.value.len() {
                        analytic = Some(p.grad.as_slice()[elem]);
                    }
                    i += 1;
                });
                let Some(analytic) = analytic else { continue };

                let perturb = |model: &mut Sequential, delta: f32| {
                    let mut i = 0;
                    model.visit_params(&mut |p| {
                        if i == p_idx && elem < p.value.len() {
                            p.value.as_mut_slice()[elem] += delta;
                        }
                        i += 1;
                    });
                };
                perturb(&mut model, eps);
                let lp = loss_fn(&mut model, &x, &target);
                perturb(&mut model, -2.0 * eps);
                let lm = loss_fn(&mut model, &x, &target);
                perturb(&mut model, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let denom = analytic.abs().max(numeric.abs()).max(1e-4);
                max_rel_err = max_rel_err.max((analytic - numeric).abs() / denom);
                checked += 1;
            }
        }
        assert!(checked >= 6);
        assert!(max_rel_err < 0.05, "max relative gradient error {max_rel_err}");
    }
}
