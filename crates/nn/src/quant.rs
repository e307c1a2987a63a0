//! The weight store: where a dense layer's or embedding table's weights
//! live — trainable `f32`, or frozen int8 / bf16 with f32 accumulation.
//!
//! At serving time the models are memory-bound (see [`crate::gemv`]): the
//! binding cost of an estimate is streaming the weight matrices. Shrinking
//! the weights shrinks that traffic — and the resident model — by 4× (int8)
//! or 2× (bf16). The transform is one-shot and offline: a trained `f32`
//! model is walked once ([`crate::Sequential::quantized`],
//! [`crate::Made::quantized`]) and comes back as **the same type** with
//! every weight store converted; the forward, routing and sampling code above
//! the store does not know which representation it runs on.
//!
//! A reduced-precision store is frozen. Everything training needs — the
//! training `forward`, `backward`, the mutable parameter walk behind the
//! optimizer and [`crate::serialize`] — panics on it ("weights are
//! frozen") instead of silently walking zero parameters, and
//! [`crate::serialize::save_params`] / `load_params` return `InvalidInput`.
//!
//! Numerics:
//!
//! * **Int8** is symmetric with one scale per channel — per output column
//!   of a dense layer, per row (vocabulary entry) of an embedding table:
//!   `q = round(w / scale)` clamped to `[-127, 127]` with
//!   `scale = max|w| / 127` over the channel, so every dequantized weight is
//!   within `scale / 2` of the original (the analytic bound the proptests
//!   enforce). The dense forward accumulates `Σ x·q` in f32 and applies the
//!   scale once per output: `y_j = scale_j · Σ_k x_k q_kj + b_j`.
//! * **Bf16** keeps the top 16 bits of the f32 representation
//!   (round-to-nearest-even), a ~2⁻⁸ relative error per weight; the forward
//!   pass widens each weight back to f32 and accumulates in f32.
//!
//! Unlike the GEMV/blocked split, int8/bf16 inference is **not** bitwise
//! equal to f32 inference — it is gated on estimator q-error instead
//! (`quantized_parity.rs`). Biases stay f32 in every store: they are
//! `O(width)` against `O(width²)` weights, and estimator accuracy is
//! sensitive to output offsets.

use crate::bytes;
use crate::layers::Param;
use crate::serialize::write_f32s;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use std::io::{self, Write};

/// Which reduced-precision representation a frozen weight store uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-channel int8 weights (4× smaller than f32).
    Int8,
    /// Truncated-mantissa bf16 weights (2× smaller than f32).
    Bf16,
}

impl QuantMode {
    /// Stable human-readable name (flags, logs, bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::Int8 => "int8",
            QuantMode::Bf16 => "bf16",
        }
    }

    /// Parses the [`QuantMode::name`] form (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "int8" => Some(QuantMode::Int8),
            "bf16" => Some(QuantMode::Bf16),
            _ => None,
        }
    }
}

/// Converts an `f32` to bf16 bits with round-to-nearest-even.
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep sign and a quiet payload so the value stays a NaN.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7FFF + ((bits >> 16) & 1);
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// Widens bf16 bits back to `f32` (exact).
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits(u32::from(h) << 16)
}

/// The per-channel int8 scale for a channel with maximum absolute value
/// `amax` (1.0 when the channel is all-zero, so `q = 0` round-trips
/// exactly).
pub fn int8_scale(amax: f32) -> f32 {
    if amax == 0.0 {
        1.0
    } else {
        amax / 127.0
    }
}

/// Why a training-only operation on an int8/bf16 store panics.
pub(crate) const FROZEN: &str =
    "int8/bf16 weights are frozen: training, optimizer steps and the f32 parameter walk need an f32 weight store";

/// Which axis of a weight matrix shares one int8 scale.
#[derive(Clone, Copy)]
pub(crate) enum ScaleAxis {
    /// One scale per column: the output channels of a dense layer.
    Cols,
    /// One scale per row: each vocabulary entry of an embedding table is one
    /// lookup unit, so its scale travels with the row.
    Rows,
}

impl ScaleAxis {
    fn channel(self, r: usize, c: usize) -> usize {
        match self {
            ScaleAxis::Cols => c,
            ScaleAxis::Rows => r,
        }
    }
}

/// The weights of one dense layer or embedding table, row-major in every
/// representation. The only place in the crate that knows which precision a
/// model is stored at.
pub(crate) enum Weights {
    /// Trainable f32 values with their gradient accumulator.
    F32(Param),
    /// `q = round(w / scale)` with one scale per channel.
    Int8 { q: Vec<i8>, scales: Vec<f32> },
    /// bf16 bit patterns of the original weights.
    Bf16 { h: Vec<u16> },
}

impl Weights {
    /// The reduced-precision mode, `None` for the trainable f32 store.
    pub(crate) fn mode(&self) -> Option<QuantMode> {
        match self {
            Weights::F32(_) => None,
            Weights::Int8 { .. } => Some(QuantMode::Int8),
            Weights::Bf16 { .. } => Some(QuantMode::Bf16),
        }
    }

    /// The f32 parameter; panics with [`FROZEN`] on an int8/bf16 store.
    pub(crate) fn param(&self) -> &Param {
        match self {
            Weights::F32(p) => p,
            _ => panic!("{FROZEN}"),
        }
    }

    /// Mutable [`Weights::param`]; panics with [`FROZEN`] likewise.
    pub(crate) fn param_mut(&mut self) -> &mut Param {
        match self {
            Weights::F32(p) => p,
            _ => panic!("{FROZEN}"),
        }
    }

    /// One-shot conversion of an f32 matrix to `mode`.
    pub(crate) fn quantize(w: &Matrix, mode: QuantMode, axis: ScaleAxis) -> Self {
        match mode {
            QuantMode::Int8 => {
                // One scale per column or per row: the extent of the scale axis.
                let mut scales = vec![0.0f32; axis.channel(w.rows(), w.cols())];
                for r in 0..w.rows() {
                    for (c, &v) in w.row(r).iter().enumerate() {
                        let s = &mut scales[axis.channel(r, c)];
                        *s = s.max(v.abs());
                    }
                }
                for s in &mut scales {
                    *s = int8_scale(*s);
                }
                let mut q = Vec::with_capacity(w.len());
                for r in 0..w.rows() {
                    for (c, &v) in w.row(r).iter().enumerate() {
                        q.push((v / scales[axis.channel(r, c)]).round().clamp(-127.0, 127.0) as i8);
                    }
                }
                Weights::Int8 { q, scales }
            }
            QuantMode::Bf16 => Weights::Bf16 {
                h: w.as_slice().iter().map(|&v| f32_to_bf16(v)).collect(),
            },
        }
    }

    /// The `rows × cols` weights as f32: the stored values, or the
    /// dequantized `w' ≈ w` of an int8/bf16 store.
    pub(crate) fn to_f32(&self, rows: usize, cols: usize, axis: ScaleAxis) -> Matrix {
        match self {
            Weights::F32(p) => p.value.clone(),
            Weights::Int8 { q, scales } => Matrix::from_fn(rows, cols, |r, c| {
                f32::from(q[r * cols + c]) * scales[axis.channel(r, c)]
            }),
            Weights::Bf16 { h } => Matrix::from_fn(rows, cols, |r, c| bf16_to_f32(h[r * cols + c])),
        }
    }

    /// Per-channel scales (int8 store only).
    pub(crate) fn scales(&self) -> Option<&[f32]> {
        match self {
            Weights::Int8 { scales, .. } => Some(scales),
            _ => None,
        }
    }

    /// Bytes actually held by the weights (and scales) — the honest number
    /// behind every `memory_bytes`. Gradient buffers are not model size.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Weights::F32(p) => p.len() * std::mem::size_of::<f32>(),
            Weights::Int8 { q, scales } => q.len() + scales.len() * 4,
            Weights::Bf16 { h } => h.len() * 2,
        }
    }

    /// Inference forward of a frozen `fan_in × fan_out` dense store over
    /// output columns `lo..hi`: `y = x·W'[:, lo..hi] + bias[lo..hi]` into a
    /// workspace buffer, accumulating in f32. A plain scalar loop on every
    /// kernel, so int8/bf16 estimates do not depend on SIMD dispatch. The
    /// f32 store goes through the GEMM core instead (see `Dense`).
    pub(crate) fn frozen_forward(&self, x: &Matrix, bias: &[f32], lo: usize, hi: usize, ws: &mut Workspace) -> Matrix {
        let n = bias.len();
        assert!(lo <= hi && hi <= n, "column slice out of range");
        let mut y = ws.take(x.rows(), hi - lo);
        for r in 0..x.rows() {
            let xrow = x.row(r);
            let orow = y.row_mut(r);
            match self {
                Weights::F32(_) => unreachable!("the f32 store runs through the GEMM core"),
                Weights::Int8 { q, scales } => {
                    for (kk, &xv) in xrow.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let wrow = &q[kk * n + lo..kk * n + hi];
                        for (o, &qv) in orow.iter_mut().zip(wrow) {
                            *o += xv * f32::from(qv);
                        }
                    }
                    for ((o, &s), &b) in orow.iter_mut().zip(&scales[lo..hi]).zip(&bias[lo..hi]) {
                        *o = *o * s + b;
                    }
                }
                Weights::Bf16 { h } => {
                    for (kk, &xv) in xrow.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let wrow = &h[kk * n + lo..kk * n + hi];
                        for (o, &hv) in orow.iter_mut().zip(wrow) {
                            *o += xv * bf16_to_f32(hv);
                        }
                    }
                    for (o, &b) in orow.iter_mut().zip(&bias[lo..hi]) {
                        *o += b;
                    }
                }
            }
        }
        y
    }

    /// Serializes a frozen store (int8 rows then scales, or bf16 bits) —
    /// the weight part of a dense-layer or embedding payload in the
    /// `LMKGQT1` / `LMKGQM1` formats. The [`QuantMode`] is carried by the
    /// container, not repeated per store.
    pub(crate) fn write_frozen<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        match self {
            Weights::F32(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "an f32 weight store is saved through serialize::save_params, not the quantized formats",
            )),
            Weights::Int8 { q, scales } => {
                let bytes: Vec<u8> = q.iter().map(|&v| v as u8).collect();
                writer.write_all(&bytes)?;
                write_f32s(writer, scales)
            }
            Weights::Bf16 { h } => {
                let mut bytes = Vec::with_capacity(h.len() * 2);
                for &v in h {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                writer.write_all(&bytes)
            }
        }
    }

    /// Restores a `rows × cols` store written after its `u32 rows, u32 cols`
    /// shape by [`Weights::write_frozen`] at `mode`, with one int8 scale per
    /// `axis` channel. Returns the shape with the store.
    pub(crate) fn read_frozen(r: &mut &[u8], mode: QuantMode, axis: ScaleAxis) -> io::Result<(usize, usize, Self)> {
        let rows = bytes::u32(r)? as usize;
        let cols = bytes::u32(r)? as usize;
        let weights = match mode {
            QuantMode::Int8 => Weights::Int8 {
                q: bytes::take(r, rows * cols)?.iter().map(|&v| v as i8).collect(),
                scales: bytes::f32s(r, axis.channel(rows, cols))?,
            },
            QuantMode::Bf16 => {
                let n = bytes::len(r, rows * cols, 2)?;
                let h = bytes::take(r, n * 2)?
                    .chunks_exact(2)
                    .map(|src| u16::from_le_bytes([src[0], src[1]]))
                    .collect();
                Weights::Bf16 { h }
            }
        };
        Ok((rows, cols, weights))
    }
}

/// Starts a frozen-model file: `magic`, then the one-byte mode tag. A model
/// whose weights are still f32 (`mode == None`) is `InvalidInput` — it is
/// persisted as a parameter walk by [`crate::serialize::save_params`].
pub(crate) fn write_header<W: Write>(writer: &mut W, magic: &[u8; 8], mode: Option<QuantMode>) -> io::Result<()> {
    let tag = match mode {
        Some(QuantMode::Int8) => 0u8,
        Some(QuantMode::Bf16) => 1u8,
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "save_quantized needs int8/bf16 weights; f32 models use serialize::save_params",
            ))
        }
    };
    writer.write_all(magic)?;
    writer.write_all(&[tag])
}

/// Reads what [`write_header`] wrote; `what` names the format in the
/// bad-magic error.
pub(crate) fn read_header(r: &mut &[u8], magic: &[u8; 8], what: &str) -> io::Result<QuantMode> {
    if bytes::take(r, magic.len())? != magic {
        return Err(bytes::invalid(format!("bad magic: not an LMKG {what} file")));
    }
    match bytes::u8(r)? {
        0 => Ok(QuantMode::Int8),
        1 => Ok(QuantMode::Bf16),
        other => Err(bytes::invalid(format!("unknown quantization mode tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::Embedding;
    use crate::layers::{Dense, Dropout, Layer, Parameterized, Relu, Sequential, Sigmoid};
    use crate::test_support::seeded_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture_model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(42);
        let mut m = Sequential::new();
        m.push(Dense::new_he(&mut rng, 12, 64));
        m.push(Relu::new());
        m.push(Dropout::new(0.1, 7));
        m.push(Dense::new_he(&mut rng, 64, 64));
        m.push(Relu::new());
        m.push(Dense::new_xavier(&mut rng, 64, 1));
        m.push(Sigmoid::new());
        m
    }

    #[test]
    fn bf16_roundtrip_is_exact_for_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -2.5, 0.15625, f32::INFINITY] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v);
        }
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_error_is_bounded_relative() {
        let m = seeded_matrix(50, 40, 5);
        for &v in m.as_slice() {
            let back = bf16_to_f32(f32_to_bf16(v));
            assert!((back - v).abs() <= v.abs() / 256.0, "{v} -> {back}");
        }
    }

    #[test]
    fn zero_columns_quantize_to_exact_zero() {
        let mut w = seeded_matrix(8, 3, 1);
        for r in 0..8 {
            w.set(r, 1, 0.0);
        }
        let store = Weights::quantize(&w, QuantMode::Int8, ScaleAxis::Cols);
        let wq = store.to_f32(8, 3, ScaleAxis::Cols);
        for r in 0..8 {
            assert_eq!(wq.get(r, 1), 0.0);
        }
        assert_eq!(store.scales().unwrap()[1], 1.0);
    }

    #[test]
    fn quantized_forward_tracks_f32_forward() {
        let model = fixture_model();
        let x = seeded_matrix(6, 12, 3);
        let mut ws = Workspace::new();
        let expected = model.forward_infer(&x, &mut ws);
        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = model.quantized(mode);
            assert_eq!(q.quant_mode(), Some(mode));
            let got = q.forward_infer(&x, &mut ws);
            for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
                assert!((g - e).abs() < 0.05, "{} mode: {g} vs {e}", mode.name());
            }
        }
    }

    /// Measured at serving-representative widths (fan_in ≥ 64). Narrower
    /// layers keep their f32 biases and per-column scales, which dominate
    /// below that and cap the achievable ratio — the analytic ratio for a
    /// dense layer is `(4·fan_in + 4) / (fan_in + 8)`.
    #[test]
    fn memory_shrinks_by_mode_ratio() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 64, 128));
        model.push(Relu::new());
        model.push(Dense::new_he(&mut rng, 128, 128));
        model.push(Relu::new());
        model.push(Dense::new_xavier(&mut rng, 128, 1));
        model.push(Sigmoid::new());
        let f32_bytes = model.param_count() * 4;
        assert_eq!(model.memory_bytes(), f32_bytes);
        let int8 = model.quantized(QuantMode::Int8).memory_bytes();
        let bf16 = model.quantized(QuantMode::Bf16).memory_bytes();
        assert!(
            int8 * 7 / 2 <= f32_bytes,
            "int8 {int8} bytes must be ≥3.5× smaller than {f32_bytes}"
        );
        assert!(
            bf16 * 2 <= f32_bytes + model.param_count(),
            "bf16 {bf16} vs {f32_bytes}"
        );
        assert_eq!(model.quantized(QuantMode::Int8).param_count(), model.param_count());
    }

    #[test]
    fn serialize_roundtrip_reproduces_outputs_bitwise() {
        let model = fixture_model();
        let x = seeded_matrix(4, 12, 8);
        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = model.quantized(mode);
            let mut ws = Workspace::new();
            let expected = q.forward_infer(&x, &mut ws);
            let mut buf = Vec::new();
            q.save_quantized(&mut buf).unwrap();
            let loaded = Sequential::load_quantized(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.quant_mode(), Some(mode));
            assert_eq!(loaded.len(), q.len());
            assert_eq!(loaded.memory_bytes(), q.memory_bytes());
            let got = loaded.forward_infer(&x, &mut ws);
            assert_eq!(got, expected, "{} roundtrip must be bitwise", mode.name());
            // The format is canonical: a loaded model re-saves identically.
            let mut again = Vec::new();
            loaded.save_quantized(&mut again).unwrap();
            assert_eq!(again, buf);
        }
    }

    #[test]
    fn load_rejects_bad_magic_and_bad_tags() {
        assert!(Sequential::load_quantized(&mut b"NOTQUANT".as_slice()).is_err());
        let mut buf = Vec::new();
        fixture_model()
            .quantized(QuantMode::Int8)
            .save_quantized(&mut buf)
            .unwrap();
        buf[8] = 9; // invalid mode tag
        assert!(Sequential::load_quantized(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn quantized_embedding_lookup_matches_dequantized_table() {
        let mut rng = StdRng::seed_from_u64(21);
        let f32_table = Embedding::new(&mut rng, 11, 16);
        let table = f32_table.values().clone();
        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let qe = f32_table.quantized(mode);
            assert_eq!((qe.vocab(), qe.dim()), (11, 16));
            let mut buf = vec![0.0f32; 16];
            for id in 0..11 {
                qe.lookup_into(id, &mut buf);
                let amax = table.row(id).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let bound = match mode {
                    QuantMode::Int8 => int8_scale(amax) / 2.0 + f32::EPSILON,
                    QuantMode::Bf16 => amax / 256.0,
                };
                for (got, &want) in buf.iter().zip(table.row(id)) {
                    assert!((got - want).abs() <= bound, "id {id}: {got} vs {want}");
                }
            }
            assert!(qe.memory_bytes() < 11 * 16 * 4);
        }
    }
}
