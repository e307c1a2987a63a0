//! Loss functions: the mean q-error the supervised models train on and the
//! segmented cross-entropy (tuple negative log-likelihood) of the ResMADE.
//!
//! Every function returns `(mean loss, gradient w.r.t. predictions)` so the
//! caller can feed the gradient straight into `Layer::backward`.
//!
//! The paper trains LMKG-S on the *mean q-error*
//! `q(y, ŷ) = max(ŷ/y, y/ŷ)` over log-scaled, min-max-normalized targets
//! (§VI-A). In normalized-log space that is `exp(r·ln2·|Δ|)` where `r` is the
//! log-range; we clamp the exponent to keep early-training gradients finite.

use crate::tensor::Matrix;

/// Sign that is zero at zero (`f32::signum` maps ±0.0 to ±1.0, which would
/// produce a non-zero gradient at the optimum).
#[inline]
fn sign(d: f32) -> f32 {
    if d > 0.0 {
        1.0
    } else if d < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Mean q-error over normalized-log predictions.
///
/// `pred` and `target` hold `minmax(log2(card))` values; `log_range` is the
/// span `max_log2 − min_log2` of the scaler, so that
/// `q = 2^(log_range·|pred−target|)`. The exponent is clamped at `max_exp`
/// (in log2 units) for numerical stability.
pub fn q_error(pred: &Matrix, target: &Matrix, log_range: f32, max_exp: f32) -> (f32, Matrix) {
    assert_eq!((pred.rows(), pred.cols()), (target.rows(), target.cols()));
    let n = pred.len() as f32;
    let ln2 = std::f32::consts::LN_2;
    let mut loss = 0.0f32;
    let grad = pred.zip_map(target, |p, t| {
        let d = p - t;
        let exponent = (log_range * d.abs()).min(max_exp);
        let q = exponent.exp2();
        loss += q;
        // dq/dp = ln2 · log_range · sign(d) · q, except where clamped (slope 0);
        // keep the clamped slope to preserve a descent direction.
        sign(d) * ln2 * log_range * q / n
    });
    (loss / n, grad)
}

/// Softmax cross-entropy over *segments* of the output vector.
///
/// Autoregressive models emit one logit block per position; `segments[i]`
/// is the width of block `i` and `targets[row][i]` the class index within
/// block `i`. Returns the mean (over rows) *sum* over blocks of per-block
/// CE — i.e. the negative log-likelihood of the tuple — plus the gradient.
pub fn segmented_cross_entropy(logits: &Matrix, segments: &[usize], targets: &[Vec<usize>]) -> (f32, Matrix) {
    let total: usize = segments.iter().sum();
    assert_eq!(logits.cols(), total, "logit width must equal sum of segments");
    assert_eq!(logits.rows(), targets.len(), "one target row per batch row");
    let batch = logits.rows();
    let mut grad = Matrix::zeros(batch, total);
    let mut loss = 0.0f64;

    for (r, target_row) in targets.iter().enumerate() {
        let row = logits.row(r);
        let grad_row = grad.row_mut(r);
        let mut offset = 0usize;
        for (i, &width) in segments.iter().enumerate() {
            let seg = &row[offset..offset + width];
            let target = target_row[i];
            assert!(
                target < width,
                "target {target} out of range for segment {i} (width {width})"
            );

            let max = seg.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            for &x in seg {
                sum += (x - max).exp();
            }
            let log_sum = sum.ln() + max;
            loss += f64::from(log_sum - seg[target]);

            let gseg = &mut grad_row[offset..offset + width];
            for (g, &x) in gseg.iter_mut().zip(seg) {
                *g = (x - log_sum).exp() / batch as f32;
            }
            gseg[target] -= 1.0 / batch as f32;
            offset += width;
        }
    }
    ((loss / batch as f64) as f32, grad)
}

/// Stable in-place softmax over a slice; returns nothing, mutates `xs`.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_one_at_optimum() {
        let p = Matrix::from_vec(1, 2, vec![0.25, 0.75]);
        let (l, g) = q_error(&p, &p, 20.0, 30.0);
        assert!((l - 1.0).abs() < 1e-6); // q-error of a perfect estimate is 1
        assert_eq!(g.max_abs(), 0.0);
    }

    #[test]
    fn q_error_matches_definition() {
        // Δ = 0.1 at range 10 → q = 2^1 = 2.
        let p = Matrix::from_vec(1, 1, vec![0.6]);
        let t = Matrix::from_vec(1, 1, vec![0.5]);
        let (l, _) = q_error(&p, &t, 10.0, 30.0);
        assert!((l - 2.0).abs() < 1e-4, "loss {l}");
    }

    #[test]
    fn q_error_clamps_exponent() {
        let p = Matrix::from_vec(1, 1, vec![1.0]);
        let t = Matrix::from_vec(1, 1, vec![0.0]);
        let (l, g) = q_error(&p, &t, 100.0, 10.0);
        assert!((l - 1024.0).abs() < 1e-2); // 2^10, not 2^100
        assert!(g.as_slice()[0].is_finite());
    }

    #[test]
    fn q_error_numeric_gradient() {
        let t = Matrix::from_vec(1, 1, vec![0.4]);
        let at = |v: f32| q_error(&Matrix::from_vec(1, 1, vec![v]), &t, 8.0, 30.0).0;
        let x = 0.55f32;
        let (_, g) = q_error(&Matrix::from_vec(1, 1, vec![x]), &t, 8.0, 30.0);
        let eps = 1e-3;
        let numeric = (at(x + eps) - at(x - eps)) / (2.0 * eps);
        let analytic = g.as_slice()[0];
        assert!(
            (numeric - analytic).abs() / numeric.abs().max(1e-3) < 0.02,
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn segmented_ce_uniform_logits() {
        // Two segments of widths 2 and 4, uniform logits → loss = ln2 + ln4.
        let logits = Matrix::zeros(1, 6);
        let (l, g) = segmented_cross_entropy(&logits, &[2, 4], &[vec![0, 1]]);
        let expected = (2.0f32).ln() + (4.0f32).ln();
        assert!((l - expected).abs() < 1e-5);
        // Gradient sums to zero per segment.
        let row = g.row(0);
        let s1: f32 = row[..2].iter().sum();
        let s2: f32 = row[2..].iter().sum();
        assert!(s1.abs() < 1e-6 && s2.abs() < 1e-6);
    }

    #[test]
    fn segmented_ce_peaked_logits_low_loss() {
        let mut logits = Matrix::zeros(1, 4);
        logits.set(0, 1, 20.0); // segment 0 (cols 0..2): class 1
        logits.set(0, 3, 20.0);
        let (l, _) = segmented_cross_entropy(&logits, &[2, 2], &[vec![1, 1]]);
        assert!(l < 1e-3, "loss {l}");
    }

    #[test]
    fn segmented_ce_numeric_gradient() {
        let logits = Matrix::from_vec(1, 5, vec![0.3, -0.2, 0.5, 0.1, -0.4]);
        let segs = [2usize, 3];
        let targets = vec![vec![1usize, 2]];
        let (_, g) = segmented_cross_entropy(&logits, &segs, &targets);
        let eps = 1e-2f32;
        for i in 0..5 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let numeric = (segmented_cross_entropy(&lp, &segs, &targets).0
                - segmented_cross_entropy(&lm, &segs, &targets).0)
                / (2.0 * eps);
            let analytic = g.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "elem {i}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn softmax_in_place_normalizes() {
        let mut xs = vec![1.0f32, 2.0, 3.0];
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }
}
