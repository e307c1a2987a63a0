//! Embedding tables: dense id → vector lookups with sparse-write gradients.
//!
//! LMKG-U applies a (default 32-dimensional) embedding to every term of a
//! bound pattern to keep the model small on heterogeneous KGs
//! (paper §VI-B). Tables are shared across positions of the same term space
//! (nodes share one table, predicates another).

use crate::init;
use crate::layers::Param;
use crate::quant::{bf16_to_f32, QuantMode, ScaleAxis, Weights};
use crate::tensor::Matrix;
use rand::Rng;
use std::io::{self, Write};

/// A `vocab × dim` embedding table over a weight store ([`crate::quant`]): trainable f32,
/// or frozen int8 (one scale per vocabulary row) / bf16 after
/// [`Embedding::quantized`].
pub struct Embedding {
    vocab: usize,
    dim: usize,
    table: Weights,
}

impl Embedding {
    /// A randomly initialized table.
    pub fn new<R: Rng>(rng: &mut R, vocab: usize, dim: usize) -> Self {
        Self {
            vocab,
            dim,
            table: Weights::F32(Param::new(init::embedding_init(rng, vocab, dim))),
        }
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    #[inline]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Writes the (dequantized) embedding of `id` into `out` (length `dim`).
    pub fn lookup_into(&self, id: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        let row = id * self.dim..(id + 1) * self.dim;
        match &self.table {
            Weights::F32(p) => out.copy_from_slice(p.value.row(id)),
            Weights::Int8 { q, scales } => {
                let s = scales[id];
                for (o, &v) in out.iter_mut().zip(&q[row]) {
                    *o = f32::from(v) * s;
                }
            }
            Weights::Bf16 { h } => {
                for (o, &v) in out.iter_mut().zip(&h[row]) {
                    *o = bf16_to_f32(v);
                }
            }
        }
    }

    /// Accumulates `grad` (length `dim`) into the gradient row of `id`.
    pub fn accumulate_grad(&mut self, id: usize, grad: &[f32]) {
        debug_assert_eq!(grad.len(), self.dim);
        for (g, &d) in self.table.param_mut().grad.row_mut(id).iter_mut().zip(grad) {
            *g += d;
        }
    }

    /// Access to the underlying parameter (for optimizers/serialization);
    /// panics on a frozen table.
    pub fn param_mut(&mut self) -> &mut Param {
        self.table.param_mut()
    }

    /// Read-only access to the underlying parameter (for `&self` parameter
    /// walks); panics on a frozen table.
    pub fn param(&self) -> &Param {
        self.table.param()
    }

    /// Read-only access to the f32 table values; panics on a frozen table.
    pub fn values(&self) -> &Matrix {
        &self.table.param().value
    }

    /// The frozen copy of this trained table at `mode`.
    pub fn quantized(&self, mode: QuantMode) -> Embedding {
        Embedding {
            vocab: self.vocab,
            dim: self.dim,
            table: Weights::quantize(self.values(), mode, ScaleAxis::Rows),
        }
    }

    /// Bytes held by the table at its stored precision.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// Serializes a frozen table's payload (shape + rows + scales); the
    /// [`QuantMode`] travels with the container.
    pub(crate) fn write_frozen<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(&(self.vocab as u32).to_le_bytes())?;
        writer.write_all(&(self.dim as u32).to_le_bytes())?;
        self.table.write_frozen(writer)
    }

    /// Restores a payload written by [`Embedding::write_frozen`] at `mode`.
    pub(crate) fn read_frozen(r: &mut &[u8], mode: QuantMode) -> io::Result<Self> {
        let (vocab, dim, table) = Weights::read_frozen(r, mode, ScaleAxis::Rows)?;
        Ok(Self { vocab, dim, table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_table_row() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, 10, 4);
        let mut buf = vec![0.0; 4];
        e.lookup_into(3, &mut buf);
        assert_eq!(buf.as_slice(), e.values().row(3));
    }

    #[test]
    fn grad_accumulates_per_row() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 5, 2);
        e.accumulate_grad(2, &[1.0, 2.0]);
        e.accumulate_grad(2, &[0.5, 0.5]);
        e.accumulate_grad(4, &[-1.0, 0.0]);
        let g = &e.param_mut().grad;
        assert_eq!(g.row(2), &[1.5, 2.5]);
        assert_eq!(g.row(4), &[-1.0, 0.0]);
        assert_eq!(g.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn dims_reported() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(&mut rng, 7, 3);
        assert_eq!(e.vocab(), 7);
        assert_eq!(e.dim(), 3);
    }
}
