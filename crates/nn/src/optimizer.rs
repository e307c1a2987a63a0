//! The optimizer: Adam, which trains every model in the workspace.
//!
//! Adam keeps per-parameter state addressed by visitation order, which is
//! stable for a fixed model architecture (layers visit parameters in a
//! deterministic sequence).

use crate::layers::{Param, Parameterized};
use crate::tensor::Matrix;

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    /// Optional global gradient-value clamp applied before the update; `0`
    /// disables clamping. Stabilizes the exponential q-error loss.
    pub grad_clip: f32,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            grad_clip: 0.0,
        }
    }

    /// Sets elementwise gradient clamping (0 disables).
    pub fn with_grad_clip(mut self, clip: f32) -> Self {
        self.grad_clip = clip;
        self
    }

    /// Applies one update step using the gradients currently stored in the
    /// model's parameters, then zeroes the gradients.
    pub fn step(&mut self, model: &mut dyn Parameterized) {
        self.t += 1;
        let t = self.t as f32;
        let (lr, b1, b2, eps, clip) = (self.lr, self.beta1, self.beta2, self.eps, self.grad_clip);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let mut idx = 0;
        let (m_state, v_state) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |p: &mut Param| {
            if m_state.len() <= idx {
                m_state.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                v_state.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
            let m = &mut m_state[idx];
            let v = &mut v_state[idx];
            let pv = p.value.as_mut_slice();
            let pg = p.grad.as_mut_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            for i in 0..pv.len() {
                let mut g = pg[i];
                if clip > 0.0 {
                    g = g.clamp(-clip, clip);
                }
                ms[i] = b1 * ms[i] + (1.0 - b1) * g;
                vs[i] = b2 * vs[i] + (1.0 - b2) * g * g;
                let m_hat = ms[i] / bc1;
                let v_hat = vs[i] / bc2;
                pv[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                pg[i] = 0.0;
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, Relu, Sequential};
    use crate::loss;
    use crate::workspace::Workspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains y = 2x - 1 (min-max scaled into (0, 1)) with a tiny MLP on the
    /// q-error loss; the mean q-error must fall most of the way to 1.
    #[test]
    fn adam_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 1, 16));
        model.push(Relu::new());
        model.push(Dense::new_xavier(&mut rng, 16, 1));

        let xs: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 0.1 + 0.8 * x).collect();
        let x = Matrix::from_vec(64, 1, xs);
        let t = Matrix::from_vec(64, 1, ys);
        let q_error = |y: &Matrix| loss::q_error(y, &t, 4.0, 16.0);

        let excess = |model: &Sequential| q_error(&model.forward_infer(&x, &mut Workspace::new())).0 - 1.0;
        let initial = excess(&model);
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            let y = model.forward(x.clone());
            let (_, grad) = q_error(&y);
            model.backward(&grad);
            opt.step(&mut model);
        }
        let final_excess = excess(&model);
        assert!(final_excess < initial / 20.0, "initial {initial}, final {final_excess}");
    }

    #[test]
    fn adam_grad_clip_limits_updates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 1, 1));
        // Plant a huge gradient.
        model.visit_params(&mut |p| p.grad.fill(1e9));
        let mut before = Vec::new();
        model.visit_params(&mut |p| before.push(p.value.clone()));
        let mut opt = Adam::new(0.001).with_grad_clip(1.0);
        opt.step(&mut model);
        // With clipping the first Adam step magnitude is ≤ lr (unit m̂/√v̂).
        let mut i = 0;
        model.visit_params(&mut |p| {
            let delta = (p.value.as_slice()[0] - before[i].as_slice()[0]).abs();
            assert!(delta <= 0.0011, "step too large: {delta}");
            i += 1;
        });
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut rng, 2, 2));
        model.visit_params(&mut |p| p.grad.fill(1.0));
        Adam::new(0.1).step(&mut model);
        model.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }
}
