//! The optimizer, Adam, and the one mini-batch epoch loop, [`Trainer`],
//! that trains every model in the workspace (LMKG-S, LMKG-U and MSCN).
//!
//! Adam keeps per-parameter state addressed by visitation order, which is
//! stable for a fixed model architecture (layers visit parameters in a
//! deterministic sequence).

use crate::layers::{Param, Parameterized};
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

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

    /// Forgets the moment estimates and the step count, releasing their
    /// memory: the next step is the first step of a fresh `Adam`.
    pub fn reset(&mut self) {
        (self.t, self.m, self.v) = (0, Vec::new(), Vec::new());
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

/// The mini-batch epoch loop: shuffle, chunk, one caller-defined
/// forward/loss/backward per chunk, one Adam step per chunk that trained.
///
/// A model is its featuriser plus its network plus the `batch` closure
/// handed to [`Trainer::epoch`]; the shuffle, the chunking and the steps
/// are here.
pub struct Trainer {
    /// The optimizer; its moments live until the caller resets them.
    pub opt: Adam,
    /// The shuffle stream (LMKG-U also draws its training tuples from it).
    pub rng: StdRng,
    batch_size: usize,
}

impl Trainer {
    /// A trainer cutting epochs into chunks of `batch_size` (at least 1).
    pub fn new(opt: Adam, rng: StdRng, batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        Self { opt, rng, batch_size }
    }

    /// Runs one epoch over `order` and returns the mean loss of the chunks
    /// that took a step (0 if none did).
    ///
    /// `order` is Fisher–Yates-shuffled in place, then cut into chunks of
    /// the batch size. `batch` runs forward, loss and backward for one chunk
    /// of indices and returns its loss, or `None` if the chunk has nothing
    /// to train on; only a `Some` chunk takes an Adam step. The order is the
    /// caller's, so whether each epoch shuffles a fresh `0..n` or the
    /// previous epoch's order is the caller's choice.
    pub fn epoch<M: Parameterized>(
        &mut self,
        model: &mut M,
        order: &mut [usize],
        mut batch: impl FnMut(&mut M, &[usize]) -> Option<f32>,
    ) -> f32 {
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.gen_range(0..=i));
        }
        let (mut total, mut stepped) = (0.0f64, 0usize);
        for chunk in order.chunks(self.batch_size) {
            if let Some(loss) = batch(model, chunk) {
                self.opt.step(model);
                total += f64::from(loss);
                stepped += 1;
            }
        }
        (total / stepped.max(1) as f64) as f32
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

    fn tiny_model() -> Sequential {
        let mut model = Sequential::new();
        model.push(Dense::new_he(&mut StdRng::seed_from_u64(1), 1, 1));
        model
    }

    fn trainer(seed: u64, batch_size: usize) -> Trainer {
        Trainer::new(Adam::new(0.01), StdRng::seed_from_u64(seed), batch_size)
    }

    /// Every index reaches exactly one chunk, in `ceil(n / batch_size)`
    /// chunks, and each chunk that returns a loss takes one Adam step.
    #[test]
    fn epoch_hands_every_index_to_exactly_one_chunk() {
        let mut model = tiny_model();
        for (n, batch_size) in [(10, 4), (12, 4), (3, 8), (1, 1), (0, 5), (7, 0)] {
            let mut trainer = trainer(7, batch_size);
            let mut order: Vec<usize> = (0..n).collect();
            for epoch in 1..=3 {
                let (mut seen, mut chunks) = (Vec::new(), 0);
                trainer.epoch(&mut model, &mut order, |_, chunk| {
                    seen.extend_from_slice(chunk);
                    chunks += 1;
                    Some(1.0)
                });
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n {n}, batch {batch_size}");
                assert_eq!(chunks, n.div_ceil(batch_size.max(1)), "n {n}, batch {batch_size}");
                assert_eq!(trainer.opt.t, (epoch * chunks) as u64);
            }
        }
    }

    /// A `None` chunk takes no step and stays out of the mean; an epoch
    /// with no stepped chunk reports 0.
    #[test]
    fn none_chunks_take_no_step_and_leave_the_mean() {
        let mut model = tiny_model();
        let mut trainer = trainer(3, 2);
        let mut order: Vec<usize> = (0..6).collect();
        let mut losses = [Some(1.0), None, Some(4.0)].into_iter();
        let mean = trainer.epoch(&mut model, &mut order, |_, _| losses.next().unwrap());
        assert_eq!(mean, 2.5);
        assert_eq!(trainer.opt.t, 2);

        let mut before = Vec::new();
        model.visit_params(&mut |p| p.grad.fill(1.0));
        model.visit_params_ref(&mut |p| before.push(p.value.clone()));
        assert_eq!(trainer.epoch(&mut model, &mut order, |_, _| None), 0.0);
        assert_eq!(trainer.opt.t, 2, "no chunk trained, so no step");
        let mut i = 0;
        model.visit_params_ref(&mut |p| {
            assert_eq!(p.value, before[i], "weights untouched");
            assert_eq!(p.grad.max_abs(), 1.0, "gradients untouched");
            i += 1;
        });
    }

    /// The shuffle is the trainer's seeded stream: the same seed gives the
    /// same order every epoch, whether the caller keeps its order or not.
    #[test]
    fn same_seed_gives_same_orders() {
        let orders = |seed: u64| {
            let (mut model, mut trainer) = (tiny_model(), trainer(seed, 4));
            let mut kept: Vec<usize> = (0..20).collect();
            let mut out = Vec::new();
            for _ in 0..3 {
                let mut fresh: Vec<usize> = (0..20).collect();
                trainer.epoch(&mut model, &mut fresh, |_, _| Some(0.0));
                trainer.epoch(&mut model, &mut kept, |_, _| Some(0.0));
                out.push((fresh, kept.clone()));
            }
            out
        };
        assert_eq!(orders(9), orders(9));
        assert_ne!(orders(9), orders(10));
        let first = &orders(9)[0].0;
        assert_ne!(first, &(0..20).collect::<Vec<_>>(), "the order is shuffled");
    }

    #[test]
    fn reset_restarts_adam() {
        let step_once = |opt: &mut Adam| {
            let mut model = tiny_model();
            model.visit_params(&mut |p| p.grad.fill(0.5));
            opt.step(&mut model);
            let mut values = Vec::new();
            model.visit_params_ref(&mut |p| values.push(p.value.clone()));
            values
        };
        let mut opt = Adam::new(0.1);
        let fresh = step_once(&mut opt);
        step_once(&mut opt);
        opt.reset();
        assert_eq!((opt.t, opt.m.len(), opt.v.len()), (0, 0, 0));
        assert_eq!(step_once(&mut opt), fresh);
    }
}
