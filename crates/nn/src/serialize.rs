//! Minimal binary (de)serialization of model parameters.
//!
//! No serde format crate is on the offline dependency list, so models are
//! persisted with a tiny explicit format:
//!
//! ```text
//! magic "LMKGNN1\0" | u32 param-count | per param: u32 rows, u32 cols, f32[rows*cols] LE
//! ```
//!
//! Loading walks the model's parameters in the same stable visitation order
//! used when saving, so the architecture must match exactly; any divergence
//! is a typed [`LoadError`] naming the offending parameter index.
//!
//! Values travel in bulk: the writer converts whole parameter matrices into
//! little-endian byte chunks and issues one `write_all` per chunk (a
//! serving-sized model is a handful of writes, not one per scalar). The
//! reader takes the bytes as a slice and reads through [`crate::bytes`], so
//! the parameter count and every `rows × cols` are checked against the
//! bytes left before anything is allocated for them.

use crate::bytes;
use crate::layers::Parameterized;
use crate::tensor::Matrix;
use std::fmt;
use std::io::{self, Write};

const MAGIC: &[u8; 8] = b"LMKGNN1\0";

/// Scalars converted per buffered write: 16 Ki f32 = 64 KiB of I/O per call,
/// large enough to amortize syscalls, small enough to stay cache-friendly.
const CHUNK: usize = 16 * 1024;

/// Why restoring parameters from a stream failed.
#[derive(Debug)]
pub enum LoadError {
    /// The underlying reader failed (including truncation mid-value).
    Io(io::Error),
    /// The stream does not begin with the `LMKGNN1\0` magic.
    BadMagic,
    /// Parameter `index`'s stored shape does not match the target model's —
    /// the architectures have drifted.
    ShapeMismatch {
        /// Position in the stable parameter visitation order.
        index: usize,
        /// Shape recorded in the file, `(rows, cols)`.
        file: (usize, usize),
        /// Shape of the target model's parameter, `(rows, cols)`.
        model: (usize, usize),
    },
    /// The file and the target model disagree on the number of parameters.
    ParamCount {
        /// Parameters recorded in the file.
        file: usize,
        /// Parameters the target model visits.
        model: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "read failed: {e}"),
            LoadError::BadMagic => write!(f, "bad magic: not an LMKG parameter file"),
            LoadError::ShapeMismatch { index, file, model } => write!(
                f,
                "param {index}: file {}×{} vs model {}×{}",
                file.0, file.1, model.0, model.1
            ),
            LoadError::ParamCount { file, model } => {
                write!(f, "file has {file} params, model has {model}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Writes `values` as little-endian f32 bytes in bulk chunks.
pub(crate) fn write_f32s<W: Write>(writer: &mut W, values: &[f32]) -> io::Result<()> {
    let mut buf = [0u8; CHUNK * 4];
    for chunk in values.chunks(CHUNK) {
        let bytes = &mut buf[..chunk.len() * 4];
        for (dst, &v) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        writer.write_all(bytes)?;
    }
    Ok(())
}

/// The parameter walk exists only on the f32 weight store: a model frozen to
/// int8/bf16 is `InvalidInput` here (an empty walk would write an empty file)
/// and persists through its own `save_quantized` format instead.
fn require_f32(model: &dyn Parameterized) -> io::Result<()> {
    match model.quant_mode() {
        None => Ok(()),
        Some(mode) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "model weights are frozen to {}; the LMKGNN1 parameter walk needs the f32 store",
                mode.name()
            ),
        )),
    }
}

/// Serializes all parameters of `model` to `writer`. Saving is a read-only
/// walk, so it works on a shared (frozen, possibly `Arc`-held) model.
pub fn save_params<W: Write>(model: &dyn Parameterized, writer: &mut W) -> io::Result<()> {
    require_f32(model)?;
    let mut params: Vec<Matrix> = Vec::new();
    model.visit_params_ref(&mut |p| params.push(p.value.clone()));
    writer.write_all(MAGIC)?;
    writer.write_all(&(params.len() as u32).to_le_bytes())?;
    for m in &params {
        writer.write_all(&(m.rows() as u32).to_le_bytes())?;
        writer.write_all(&(m.cols() as u32).to_le_bytes())?;
        write_f32s(writer, m.as_slice())?;
    }
    Ok(())
}

/// Restores parameters into `model` (must have the exact same architecture
/// as the model that was saved). Every stored shape is validated against the
/// target parameter before anything is assigned, so architecture drift fails
/// with a typed [`LoadError::ShapeMismatch`] instead of mis-assigning.
pub fn load_params(model: &mut dyn Parameterized, r: &mut &[u8]) -> Result<(), LoadError> {
    require_f32(model)?;
    if bytes::take(r, MAGIC.len())? != MAGIC {
        return Err(LoadError::BadMagic);
    }
    // Each parameter takes at least its 8-byte shape.
    let count = bytes::u32(r)? as usize;
    let count = bytes::len(r, count, 8)?;

    let mut loaded: Vec<Matrix> = Vec::with_capacity(count);
    for _ in 0..count {
        let rows = bytes::u32(r)? as usize;
        let cols = bytes::u32(r)? as usize;
        loaded.push(Matrix::from_vec(rows, cols, bytes::f32s(r, rows * cols)?));
    }

    // Validate every shape against the target model before assigning any
    // value, so a mismatch leaves the model untouched.
    let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(count);
    model.visit_params_ref(&mut |p| shapes.push((p.value.rows(), p.value.cols())));
    if shapes.len() != count {
        return Err(LoadError::ParamCount {
            file: count,
            model: shapes.len(),
        });
    }
    for (index, (m, &model_shape)) in loaded.iter().zip(&shapes).enumerate() {
        if (m.rows(), m.cols()) != model_shape {
            return Err(LoadError::ShapeMismatch {
                index,
                file: (m.rows(), m.cols()),
                model: model_shape,
            });
        }
    }

    let mut loaded = loaded.into_iter();
    model.visit_params(&mut |p| {
        p.value = loaded.next().expect("visit_params and visit_params_ref agree");
        p.grad.fill(0.0);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, Relu, Sequential};
    use crate::workspace::Workspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Dense::new_he(&mut rng, 4, 8));
        m.push(Relu::new());
        m.push(Dense::new_xavier(&mut rng, 8, 2));
        m
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let a = model(1);
        let mut b = model(2); // different weights

        let x = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.4]);
        let ws = &mut Workspace::new();
        let ya = a.forward_infer(&x, ws);
        assert_ne!(ya, b.forward_infer(&x, ws));

        let mut buf = Vec::new();
        save_params(&a, &mut buf).unwrap();
        load_params(&mut b, &mut buf.as_slice()).unwrap();
        assert_eq!(ya, b.forward_infer(&x, ws));
    }

    #[test]
    fn bulk_f32_io_roundtrips_bitwise_across_chunk_boundaries() {
        // Lengths straddling the chunk size: empty, tiny, exactly one chunk,
        // one chunk ± 1, and a multi-chunk run.
        for len in [0usize, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
            let values: Vec<f32> = (0..len).map(|i| (i as f32).sin() * 1e3).collect();
            let mut buf = Vec::new();
            write_f32s(&mut buf, &values).unwrap();
            assert_eq!(buf.len(), len * 4);
            let back = bytes::f32s(&mut buf.as_slice(), len).unwrap();
            assert_eq!(
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut m = model(1);
        let buf = b"NOTLMKG\0rest".to_vec();
        let err = load_params(&mut m, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_architecture_mismatch_with_param_index() {
        let a = model(1);
        let mut buf = Vec::new();
        save_params(&a, &mut buf).unwrap();

        let mut rng = StdRng::seed_from_u64(0);
        let mut other = Sequential::new();
        other.push(Dense::new_he(&mut rng, 3, 8)); // wrong fan-in
        other.push(Dense::new_he(&mut rng, 8, 2));
        let before: Vec<Vec<f32>> = {
            let mut v = Vec::new();
            other.visit_params_ref(&mut |p| v.push(p.value.as_slice().to_vec()));
            v
        };
        let err = load_params(&mut other, &mut buf.as_slice()).unwrap_err();
        match err {
            LoadError::ShapeMismatch { index, file, model } => {
                assert_eq!(index, 0);
                assert_eq!(file, (4, 8));
                assert_eq!(model, (3, 8));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("param 0"));
        // A failed load must not have assigned anything.
        let mut after = Vec::new();
        other.visit_params_ref(&mut |p| after.push(p.value.as_slice().to_vec()));
        assert_eq!(before, after, "mismatched load must leave the model untouched");
    }

    #[test]
    fn rejects_param_count_mismatch() {
        let a = model(1);
        let mut buf = Vec::new();
        save_params(&a, &mut buf).unwrap();

        let mut rng = StdRng::seed_from_u64(0);
        let mut fewer = Sequential::new();
        fewer.push(Dense::new_he(&mut rng, 4, 8)); // one dense instead of two
        let err = load_params(&mut fewer, &mut buf.as_slice()).unwrap_err();
        match err {
            LoadError::ParamCount { file, model } => {
                assert_eq!(file, 4);
                assert_eq!(model, 2);
            }
            other => panic!("expected ParamCount, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let a = model(1);
        let mut buf = Vec::new();
        save_params(&a, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut b = model(2);
        let err = load_params(&mut b, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }
}
