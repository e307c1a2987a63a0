//! Property tests for the NN substrate: linear-algebra identities of the
//! matmul kernels, loss-gradient invariants, and the MADE autoregressive
//! property over randomized configurations.

use lmkg_nn::gemm::{available_kernels, Kernel};
use lmkg_nn::gemv;
use lmkg_nn::layers::{Dense, Layer, Relu, Sequential, Sigmoid};
use lmkg_nn::loss;
use lmkg_nn::made::{Made, MadeConfig};
use lmkg_nn::quant::int8_scale;
use lmkg_nn::tensor::{matmul_forced, MatOp, MatPath, Matrix};
use lmkg_nn::workspace::Workspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Shapes are proptest-driven; the data comes from the shared seeded LCG so
// dynamic sizes don't need size-coupled vec strategies.
use lmkg_nn::test_support::seeded_matrix;

/// Naive i-j-k triple loop in f64 — the reference the blocked kernels are
/// checked against within a `k`-ulp-scaled tolerance.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                acc += f64::from(a.get(i, k)) * f64::from(b.get(k, j));
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

/// `|x - y| ≤ (k+4)·ε·max(1, |x|, |y|)` — 1 ulp of headroom per accumulation
/// step, covering FMA-vs-two-roundings divergence for any reduction depth.
fn within_ulp_scaled(got: &Matrix, want: &Matrix, k: usize) -> Result<(), String> {
    let tol = f32::EPSILON * (k as f32 + 4.0);
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        if (x - y).abs() > tol * scale {
            return Err(format!("element {i}: {x} vs {y} exceeds {tol:e}·{scale}"));
        }
    }
    Ok(())
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols).prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Distributivity: A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes(a in arb_matrix(4, 5), b in arb_matrix(5, 3), c in arb_matrix(5, 3)) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
    }

    /// The fused variants agree with explicit transposes.
    #[test]
    fn matmul_variants_agree(a in arb_matrix(4, 6), b in arb_matrix(5, 6), c in arb_matrix(4, 3)) {
        // A·Bᵀ.
        let nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        prop_assert!(approx_eq(&nt, &explicit, 1e-4));
        // Aᵀ·C.
        let tn = a.matmul_tn(&c);
        let explicit = a.transpose().matmul(&c);
        prop_assert!(approx_eq(&tn, &explicit, 1e-4));
    }

    /// The blocked GEMM core matches the naive triple loop on ragged shapes
    /// (m, k, n deliberately not multiples of the MR/NR tile sizes; k ranges
    /// past KC=256 so the k-block resume path — reloading the partial C tile
    /// into accumulators — gets genuine block-boundary coverage).
    #[test]
    fn blocked_matmul_matches_naive_on_ragged_shapes(m in 1usize..23, k in 1usize..600,
                                                     n in 1usize..39, seed in 0u64..1000) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed.wrapping_add(1));
        let nn = within_ulp_scaled(&a.matmul(&b), &naive_matmul(&a, &b), k);
        prop_assert!(nn.is_ok(), "matmul {}x{}x{}: {:?}", m, k, n, nn);
        // The fused transpose variants against explicit transposes.
        let bt = seeded_matrix(n, k, seed.wrapping_add(2));
        let nt = within_ulp_scaled(&a.matmul_nt(&bt), &naive_matmul(&a, &bt.transpose()), k);
        prop_assert!(nt.is_ok(), "matmul_nt {}x{}x{}: {:?}", m, k, n, nt);
        let c = seeded_matrix(m, n, seed.wrapping_add(3));
        let tn = within_ulp_scaled(&a.matmul_tn(&c), &naive_matmul(&a.transpose(), &c), m);
        prop_assert!(tn.is_ok(), "matmul_tn {}x{}x{}: {:?}", m, k, n, tn);
    }

    /// `matmul_cols` is bitwise equal to the column slice of the full
    /// product for every lo/hi, including empty and full-width slices —
    /// the GEMM core's determinism contract for the sampler's fast path.
    #[test]
    fn matmul_cols_slice_is_bitwise_exact(m in 1usize..14, k in 1usize..30, n in 1usize..40,
                                          lo_w in 0usize..40, width in 0usize..40, seed in 0u64..1000) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed.wrapping_add(7));
        let lo = lo_w % n;
        let hi = (lo + width % (n - lo + 1)).min(n);
        let sliced = a.matmul_cols(&b, lo, hi);
        let full = a.matmul(&b);
        prop_assert_eq!((sliced.rows(), sliced.cols()), (m, hi - lo));
        for i in 0..m {
            prop_assert_eq!(sliced.row(i), &full.row(i)[lo..hi], "row {} of slice {}..{}", i, lo, hi);
        }
    }

    /// Softmax output is a probability vector.
    #[test]
    fn softmax_is_normalized(mut xs in prop::collection::vec(-30.0f32..30.0, 1..40)) {
        loss::softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(xs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Segmented cross-entropy gradients sum to zero within every segment
    /// (softmax Jacobian property) and the loss is non-negative.
    #[test]
    fn segmented_ce_invariants(logits_v in prop::collection::vec(-5.0f32..5.0, 7),
                               t1 in 0usize..3, t2 in 0usize..4) {
        let logits = Matrix::from_vec(1, 7, logits_v);
        let segments = [3usize, 4];
        let targets = vec![vec![t1, t2]];
        let (l, grad) = loss::segmented_cross_entropy(&logits, &segments, &targets);
        prop_assert!(l >= 0.0);
        let row = grad.row(0);
        prop_assert!(row[..3].iter().sum::<f32>().abs() < 1e-5);
        prop_assert!(row[3..].iter().sum::<f32>().abs() < 1e-5);
    }

    /// The q-error loss is minimized exactly at the target.
    #[test]
    fn q_error_minimum_at_target(t in 0.05f32..0.95, delta in 0.01f32..0.2) {
        let target = Matrix::from_vec(1, 1, vec![t]);
        let at = |v: f32| loss::q_error(&Matrix::from_vec(1, 1, vec![v]), &target, 10.0, 30.0).0;
        prop_assert!(at(t) <= at(t + delta));
        prop_assert!(at(t) <= at(t - delta));
    }

    /// MADE stays autoregressive for random widths/depths/embeddings.
    #[test]
    fn made_autoregressive_for_random_configs(hidden in 4usize..24,
                                              blocks in 0usize..3,
                                              embed in 0usize..6,
                                              seed in 0u64..1000) {
        let cfg = MadeConfig {
            vocab_sizes: vec![5, 3],
            spaces: vec![0, 1, 0],
            hidden,
            blocks,
            embed_dim: embed,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut made = Made::new(&mut rng, cfg);
        let base = vec![2usize, 1, 4];
        let logits0 = made.forward_ids(std::slice::from_ref(&base), false);
        for pos in 0..3 {
            let mut perturbed = base.clone();
            perturbed[pos] = (perturbed[pos] + 1) % made.segments()[pos];
            let logits1 = made.forward_ids(&[perturbed], false);
            let mut offset = 0;
            for (i, &seg) in made.segments().to_vec().iter().enumerate() {
                if i <= pos {
                    prop_assert_eq!(
                        &logits0.row(0)[offset..offset + seg],
                        &logits1.row(0)[offset..offset + seg],
                        "segment {} leaked from position {}", i, pos
                    );
                }
                offset += seg;
            }
        }
    }

    /// Every kernel on both serial cores is **bitwise** equal to the scalar
    /// kernel's blocked core, on every entry-point view, for all
    /// m ≤ GEMV_MAX_M and ragged k/n (k past the 8-wide chunk tiles, n past
    /// the register-blocked column strips). A seeded share of `A`'s entries
    /// is zeroed, as in one-hot rows, so the scalar kernels' zero skip runs.
    #[test]
    fn gemv_path_is_bitwise_equal_to_blocked(m in 1usize..=gemv::GEMV_MAX_M, k in 1usize..300,
                                             n in 1usize..70, zero_share in 0.0f32..1.0,
                                             seed in 0u64..1000) {
        let sparse = |mut x: Matrix, salt: u64| {
            let mask = seeded_matrix(x.rows(), x.cols(), seed.wrapping_add(salt));
            for (v, r) in x.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                if r + 0.5 < zero_share {
                    *v = 0.0;
                }
            }
            x
        };
        let a = sparse(seeded_matrix(m, k, seed), 4);
        let b = seeded_matrix(k, n, seed.wrapping_add(1));
        let bt = seeded_matrix(n, k, seed.wrapping_add(2));
        let at = sparse(seeded_matrix(k, m, seed.wrapping_add(3)), 5);
        let lo = (seed as usize) % n;
        let hi = lo + (seed as usize >> 3) % (n - lo) + 1;
        let ops = [
            ("matmul", MatOp::NN, &a, &b),
            ("matmul_nt", MatOp::NT, &a, &bt),
            ("matmul_tn", MatOp::TN, &at, &b),
            ("matmul_cols", MatOp::Cols(lo, hi), &a, &b),
        ];
        let bits = |c: Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, op, lhs, rhs) in ops {
            let want = bits(matmul_forced(Kernel::Scalar, op, MatPath::Blocked, lhs, rhs));
            for &kernel in available_kernels() {
                for path in [MatPath::Gemv, MatPath::Blocked] {
                    prop_assert_eq!(
                        &bits(matmul_forced(kernel, op, path, lhs, rhs)),
                        &want,
                        "{} {}x{}x{} [{}..{}] on {} {:?}", name, m, k, n, lo, hi, kernel.name(), path
                    );
                }
            }
        }
    }

    /// Symmetric int8 quantization reconstructs every weight within half a
    /// quantization step: `|w - scale·q| ≤ scale/2`.
    #[test]
    fn int8_dequant_error_is_within_half_scale(ws in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let amax = ws.iter().fold(0.0f32, |m, w| m.max(w.abs()));
        let scale = int8_scale(amax);
        prop_assert!(scale > 0.0);
        for &w in &ws {
            let q = (w / scale).round().clamp(-127.0, 127.0) as i8;
            let err = (w - scale * f32::from(q)).abs();
            prop_assert!(err <= scale / 2.0 + f32::EPSILON, "w {} q {} scale {} err {}", w, q, scale, err);
        }
    }

    /// Workspace scratch carries no numeric state: a workspace whose pool is
    /// poisoned with NaN-filled recycled buffers (which `take_full` hands
    /// back unzeroed) still reproduces a fresh run bitwise, through both the
    /// dense inference stack and the raw take/take_full surface.
    #[test]
    fn poisoned_workspace_inference_is_bitwise_clean(rows in 1usize..7, seed in 0u64..1000,
                                                     poison_bufs in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 9, 13));
        model.push(Relu::new());
        model.push(Dense::new_xavier(&mut rng, 13, 1));
        model.push(Sigmoid::new());
        let x = seeded_matrix(rows, 9, seed);

        let mut fresh = Workspace::new();
        let clean = model.forward_infer(&x, &mut fresh);

        let mut poisoned = Workspace::new();
        for i in 0..poison_bufs {
            let junk = Matrix::from_vec(3, 5 + i, vec![f32::NAN; 3 * (5 + i)]);
            poisoned.recycle(junk);
        }
        let got = model.forward_infer(&x, &mut poisoned);
        prop_assert_eq!(got.as_slice(), clean.as_slice());

        // take stays zeroed over a poisoned pool; take_full only promises
        // shape, so every element must be writable without UB-level surprises.
        let z = poisoned.take(2, 3);
        prop_assert_eq!(z.as_slice(), &[0.0f32; 6][..]);
        poisoned.recycle(z);
        let mut f = poisoned.take_full(2, 3);
        f.fill(1.5);
        prop_assert_eq!(f.as_slice(), &[1.5f32; 6][..]);
    }

    /// Bias broadcast + column sums are adjoint.
    #[test]
    fn bias_and_colsum_are_adjoint(m in arb_matrix(3, 4), bias in prop::collection::vec(-1.0f32..1.0, 4)) {
        // <m + 1·bᵀ, m + 1·bᵀ> grows by 2·<col_sums(m), b> + rows·<b,b>.
        let dot = |a: &Matrix, b: &Matrix| a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum::<f32>();
        let mut shifted = m.clone();
        shifted.add_row_vector(&bias);
        let lhs = dot(&shifted, &shifted) - dot(&m, &m);
        let col_sums = m.col_sums();
        let cross: f32 = col_sums.iter().zip(&bias).map(|(c, b)| c * b).sum();
        let bb: f32 = bias.iter().map(|b| b * b).sum();
        let rhs = 2.0 * cross + 3.0 * bb;
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "lhs {lhs} rhs {rhs}");
    }
}
