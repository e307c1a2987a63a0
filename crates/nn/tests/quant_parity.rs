//! The analytic gates on the int8/bf16 weight store:
//!
//! * dequantization error: every int8 weight within `scale/2` of its
//!   original, every bf16 weight within `2⁻⁸` relative;
//! * frozen means frozen: the training-only operations on an int8/bf16 store
//!   panic or return `InvalidInput` — never a silent empty parameter walk
//!   that would let `Adam::step` no-op or `save_params` write an empty file.

use lmkg_nn::layers::{Dense, Layer, Relu, Sequential};
use lmkg_nn::made::{Made, MadeConfig};
use lmkg_nn::optimizer::Adam;
use lmkg_nn::quant::QuantMode;
use lmkg_nn::serialize::{load_params, save_params, LoadError};
use lmkg_nn::test_support::seeded_matrix;
use lmkg_nn::{Matrix, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn int8_dequantization_error_within_half_scale() {
    let mut rng = StdRng::seed_from_u64(9);
    let dense = Dense::new_he(&mut rng, 37, 23);
    let w = dense.weights_f32();
    let q = dense.quantized(QuantMode::Int8);
    let scales = q.scales().unwrap();
    let wq = q.weights_f32();
    for r in 0..w.rows() {
        for (c, &scale) in scales.iter().enumerate() {
            let err = (w.get(r, c) - wq.get(r, c)).abs();
            assert!(
                err <= scale / 2.0 + f32::EPSILON,
                "({r},{c}): err {err} vs scale/2 {}",
                scale / 2.0
            );
        }
    }
    let wh = dense.quantized(QuantMode::Bf16).weights_f32();
    for (&orig, &back) in w.as_slice().iter().zip(wh.as_slice()) {
        assert!((back - orig).abs() <= orig.abs() / 256.0, "bf16: {orig} -> {back}");
    }
}

fn tiny_stack() -> Sequential {
    let mut rng = StdRng::seed_from_u64(3);
    let mut model = Sequential::new();
    model.push(Dense::new_he(&mut rng, 4, 8));
    model.push(Relu::new());
    model.push(Dense::new_xavier(&mut rng, 8, 2));
    model
}

fn tiny_made() -> Made {
    let cfg = MadeConfig {
        vocab_sizes: vec![4, 3],
        spaces: vec![0, 1, 0],
        hidden: 8,
        blocks: 1,
        embed_dim: 4,
    };
    Made::new(&mut StdRng::seed_from_u64(5), cfg)
}

/// Runs `op` and asserts it panics with the frozen-store message.
fn assert_panics_frozen(what: &str, op: impl FnOnce()) {
    let err = catch_unwind(AssertUnwindSafe(op)).expect_err(what);
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("weights are frozen"), "{what}: unexpected panic {msg:?}");
}

#[test]
fn training_only_operations_panic_on_frozen_weights() {
    let x = seeded_matrix(3, 4, 1);
    let grad = Matrix::zeros(3, 2);
    let ids = vec![vec![0usize, 1, 2], vec![3, 0, 1]];
    for mode in [QuantMode::Int8, QuantMode::Bf16] {
        let mut stack = tiny_stack().quantized(mode);
        assert_eq!(stack.quant_mode(), Some(mode));
        // Inference keeps working; the training forward does not.
        assert_eq!(stack.forward_infer(&x, &mut Workspace::new()).cols(), 2);
        assert_panics_frozen("forward", || drop(stack.forward(x.clone())));
        assert_panics_frozen("backward", || drop(stack.backward(&grad)));
        assert_panics_frozen("Adam::step", || Adam::new(1e-3).step(&mut stack));
        assert_panics_frozen("quantizing twice", || drop(stack.quantized(mode)));

        let mut made = tiny_made().quantized(mode);
        assert_eq!(made.quant_mode(), Some(mode));
        assert_panics_frozen("forward_ids", || drop(made.forward_ids(&ids)));
        assert_panics_frozen("Adam::step on a ResMADE", || Adam::new(1e-3).step(&mut made));
    }
}

#[test]
fn parameter_files_reject_frozen_weights_as_invalid_input() {
    let mut f32_bytes = Vec::new();
    save_params(&tiny_stack(), &mut f32_bytes).unwrap();
    for mode in [QuantMode::Int8, QuantMode::Bf16] {
        let mut stack = tiny_stack().quantized(mode);
        let mut out = Vec::new();
        let err = save_params(&stack, &mut out).expect_err("an empty walk must not be written");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the writer");
        match load_params(&mut stack, &mut f32_bytes.as_slice()) {
            Err(LoadError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            other => panic!("loading f32 parameters into {mode:?} weights must fail, got {other:?}"),
        }
        let err = save_params(&tiny_made().quantized(mode), &mut out).expect_err("ResMADE too");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        // The converse: the frozen formats refuse an f32 store.
        let err = tiny_stack().save_quantized(&mut out).expect_err("f32 stack");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        let err = tiny_made().save_quantized(&mut out).expect_err("f32 ResMADE");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}
