//! # lmkg-nn
//!
//! A deliberately small, dependency-free CPU neural-network library built for
//! the LMKG reproduction. The paper trains its models in TensorFlow on a GPU;
//! the offline Rust ecosystem has no mature training crates, so this crate
//! provides exactly the substrate the paper's two model families need:
//!
//! * dense MLPs with ReLU/sigmoid/dropout (LMKG-S, MSCN),
//! * masked autoregressive networks with residual blocks and per-position
//!   embeddings — ResMADE (LMKG-U),
//! * the Adam optimizer and the one mini-batch epoch loop around it
//!   ([`Trainer`]), the mean-q-error and segmented-cross-entropy losses,
//!   and a tiny binary parameter format.
//!
//! Every layer has one training forward (`forward` / `forward_ids`, which
//! caches for `backward`) and one `&self` inference forward
//! (`forward_infer` / `forward_ids_infer`, which caches nothing and is
//! bitwise the training forward of a dropout-free model). Everything is
//! gradient-checked against finite differences in the tests.
//!
//! ```
//! use lmkg_nn::layers::{Dense, Layer, Relu, Sequential, Sigmoid};
//! use lmkg_nn::optimizer::Adam;
//! use lmkg_nn::tensor::Matrix;
//! use lmkg_nn::workspace::Workspace;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Dense::new_he(&mut rng, 2, 16));
//! model.push(Relu::new());
//! model.push(Dense::new_xavier(&mut rng, 16, 1));
//! model.push(Sigmoid::new());
//!
//! // Targets are min-max-scaled log cardinalities over a log₂ range of 8.
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let t = Matrix::from_rows(&[&[0.9], &[0.1]]);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..200 {
//!     let y = model.forward(x.clone());
//!     let (_, grad) = lmkg_nn::loss::q_error(&y, &t, 8.0, 16.0);
//!     model.backward(&grad);
//!     opt.step(&mut model);
//! }
//! let y = model.forward_infer(&x, &mut Workspace::new());
//! assert!(y.get(0, 0) > 0.8 && y.get(1, 0) < 0.2);
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod embedding;
pub mod gemm;
pub mod gemv;
pub mod init;
pub mod layers;
pub mod loss;
pub mod made;
pub mod optimizer;
pub mod profile;
pub mod quant;
pub mod serialize;
pub mod tensor;
pub mod workspace;

pub use layers::{Dense, Dropout, Layer, Param, Parameterized, Relu, Sequential, Sigmoid, Stage};
pub use made::{Made, MadeConfig};
pub use optimizer::{Adam, Trainer};
pub use quant::QuantMode;
pub use tensor::Matrix;
pub use workspace::Workspace;

/// Deterministic input generation shared by the kernel tests, the committed
/// GEMM parity fixture, and the GEMM benches. Not part of the supported
/// API surface — only public so those consumers use one generator instead of
/// drifting copies (the parity fixture depends on this exact sequence).
#[doc(hidden)]
pub mod test_support {
    use crate::Matrix;

    /// A `rows×cols` matrix of values in [-0.5, 0.5] from a splitmix-seeded
    /// LCG, fully determined by `(rows, cols, seed)`.
    pub fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }
}
