//! SGD with momentum and weight decay.
//!
//! §7.2's hyperparameters: momentum 0.9, weight decay 1e-4 (CNN) or 1e-7
//! (SVM), no learning-rate decay. Each decentralized worker owns one
//! optimizer instance (momentum state is local and is *not* exchanged
//! between workers, matching the paper's prototype).

use hop_tensor::ops::SgdStep;
use hop_tensor::ParamBlock;

/// Stochastic gradient descent with classical momentum and L2 weight decay.
///
/// Update rule per step:
/// `v = momentum * v + grad + weight_decay * params`;
/// `params -= lr * v`.
///
/// # Examples
///
/// ```
/// use hop_model::Sgd;
/// let mut opt = Sgd::new(0.1, 0.0, 0.0, 2);
/// let mut params = vec![1.0f32, -1.0];
/// opt.step(&mut params, &[1.0, -1.0]);
/// assert_eq!(params, vec![0.9, -0.9]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimizer for a parameter vector of length `param_len`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum` is outside `[0, 1)`, or
    /// `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, param_len: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: vec![0.0; param_len],
        }
    }

    /// Applies one update in place.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grad` length differs from the optimizer's.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), self.velocity.len(), "params length mismatch");
        assert_eq!(grad.len(), self.velocity.len(), "grad length mismatch");
        for ((v, p), g) in self.velocity.iter_mut().zip(params.iter_mut()).zip(grad) {
            *v = self.momentum * *v + g + self.weight_decay * *p;
            *p -= self.lr * *v;
        }
    }

    /// [`Self::step`] for protocols that apply the update to a
    /// *different* vector than the `params` its gradient was taken at
    /// (the parallel computation graph of Fig. 2b): the returned step,
    /// handed to `hop_tensor::ops::scaled_sum`, advances the velocity by
    /// `grad` and `params` and adds `-lr * v` to the Reduce's output in
    /// the same sweep — per element, the expressions [`Self::step`]
    /// rounds.
    pub fn step_onto<'a>(&'a mut self, params: &'a [f32], grad: &'a [f32]) -> SgdStep<'a> {
        SgdStep {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            grad,
            params,
            velocity: &mut self.velocity,
        }
    }

    /// [`Self::step`] on a shared [`ParamBlock`]: copy-on-write, so
    /// snapshots published to other workers before the step keep their
    /// values, while an unshared block is updated in place with no
    /// allocation.
    pub fn step_block(&mut self, params: &mut ParamBlock, grad: &[f32]) {
        self.step(params.make_mut(), grad);
    }

    /// Resets momentum state (used after a worker skips iterations and
    /// re-syncs its parameters, §5).
    pub fn reset_velocity(&mut self) {
        self.velocity.fill(0.0);
    }
}

/// Quasi-Global Momentum state (Lin et al., *Quasi-Global Momentum:
/// Accelerating Decentralized Deep Learning on Heterogeneous Data*).
///
/// Local momentum diverges across decentralized workers when their data
/// (or pace) is heterogeneous. QGM replaces it with a momentum buffer that
/// tracks the *locally estimated global parameter difference*: after each
/// gossip Reduce the worker measures how far the consensus actually moved
/// its parameters over the iteration and folds that displacement — not
/// its private gradient — into the buffer:
///
/// * local half-step: `x_{t+1/2} = x_t - lr * (g + mu * m_t + wd * x_t)`
/// * gossip Reduce:   `x_{t+1}   = mean of neighbor half-steps`
/// * momentum update: `m_{t+1}   = mu * m_t + beta * (x_t - x_{t+1}) / lr`
///
/// `mu` is the momentum factor (the paper reuses SGD's 0.9) and `beta`
/// the mixing weight of the fresh displacement (the paper's `1 - mu`).
///
/// # Examples
///
/// ```
/// use hop_model::QgmState;
/// let mut qgm = QgmState::new(0.9, 0.1, 2);
/// let mut x = vec![1.0f32, -1.0];
/// qgm.local_step(&mut x, &[0.5, -0.5], 0.1, 0.0);
/// assert!(x[0] < 1.0 && x[1] > -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QgmState {
    mu: f32,
    beta: f32,
    momentum: Vec<f32>,
}

impl QgmState {
    /// Creates QGM state for a parameter vector of length `param_len`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is outside `[0, 1)` or `beta < 0`.
    pub fn new(mu: f32, beta: f32, param_len: usize) -> Self {
        assert!((0.0..1.0).contains(&mu), "mu must be in [0,1)");
        assert!(beta >= 0.0, "beta must be non-negative");
        Self {
            mu,
            beta,
            momentum: vec![0.0; param_len],
        }
    }

    /// The current momentum buffer (the running estimate of the global
    /// parameter difference per unit learning rate).
    pub fn momentum(&self) -> &[f32] {
        &self.momentum
    }

    /// The local half-step before the gossip Reduce:
    /// `params -= lr * (grad + mu * m + weight_decay * params)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn local_step(&self, params: &mut [f32], grad: &[f32], lr: f32, weight_decay: f32) {
        assert_eq!(params.len(), self.momentum.len(), "params length mismatch");
        assert_eq!(grad.len(), self.momentum.len(), "grad length mismatch");
        for ((p, &g), &m) in params.iter_mut().zip(grad).zip(&self.momentum) {
            *p -= lr * (g + self.mu * m + weight_decay * *p);
        }
    }

    /// The post-Reduce momentum update: folds the observed displacement
    /// `(prev - reduced) / lr` — how far the half-step *plus consensus*
    /// actually moved this worker — into the buffer with weight `beta`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or `lr <= 0`.
    pub fn update_momentum(&mut self, prev: &[f32], reduced: &[f32], lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        assert_eq!(prev.len(), self.momentum.len(), "prev length mismatch");
        assert_eq!(
            reduced.len(),
            self.momentum.len(),
            "reduced length mismatch"
        );
        let inv_lr = 1.0 / lr;
        for ((m, &p), &r) in self.momentum.iter_mut().zip(prev).zip(reduced) {
            *m = self.mu * *m + self.beta * (p - r) * inv_lr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.5, 0.0, 0.0, 1);
        let mut p = vec![2.0f32];
        opt.step(&mut p, &[1.0]);
        assert_eq!(p, vec![1.5]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5, 0.0, 1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-1
        opt.step(&mut p, &[1.0]); // v=1.5, p=-2.5
        assert_eq!(p, vec![-2.5]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5, 1);
        let mut p = vec![1.0f32];
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    fn step_onto_the_same_params_is_step() {
        let mut a = Sgd::new(0.2, 0.9, 0.01, 3);
        let mut b = a.clone();
        let mut p1 = vec![1.0f32, -2.0, 0.5];
        let p2 = p1.clone();
        let g = vec![0.3, -0.1, 0.0];
        a.step(&mut p1, &g);
        // The Reduce of `p2` alone, `(0.0 + p2) * 1.0`, is `p2`.
        let mut out = vec![f32::NAN; 3];
        hop_tensor::ops::scaled_sum(
            &[&p2],
            None,
            1.0,
            Some(b.step_onto(&p2, &g)),
            None,
            &mut out,
        );
        assert_eq!(a, b, "same velocity");
        assert_eq!(p2, vec![1.0, -2.0, 0.5], "parameters untouched");
        assert_eq!(out, p1);
    }

    #[test]
    fn reset_velocity_clears_history() {
        let mut opt = Sgd::new(1.0, 0.9, 0.0, 1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]);
        opt.reset_velocity();
        let mut q = vec![0.0f32];
        opt.step(&mut q, &[1.0]);
        assert_eq!(q, vec![-1.0]); // as if fresh
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn validates_momentum() {
        Sgd::new(0.1, 1.0, 0.0, 1);
    }

    #[test]
    fn qgm_zero_momentum_is_plain_sgd() {
        let qgm = QgmState::new(0.9, 0.1, 2);
        let mut x = vec![1.0f32, -2.0];
        qgm.local_step(&mut x, &[0.5, 0.5], 0.1, 0.0);
        // Fresh buffer: the mu * m term vanishes.
        assert_eq!(x, vec![0.95, -2.05]);
    }

    #[test]
    fn qgm_tracks_parameter_difference() {
        let mut qgm = QgmState::new(0.5, 0.5, 1);
        // The consensus moved x from 2.0 to 1.0 under lr 0.5: the
        // displacement per unit lr is (2 - 1) / 0.5 = 2.
        qgm.update_momentum(&[2.0], &[1.0], 0.5);
        assert_eq!(qgm.momentum(), &[1.0]); // 0.5 * 0 + 0.5 * 2
        qgm.update_momentum(&[1.0], &[1.0], 0.5);
        assert_eq!(qgm.momentum(), &[0.5]); // decays when consensus stalls
                                            // The next local step leans in the remembered global direction.
        let mut x = vec![1.0f32];
        qgm.local_step(&mut x, &[0.0], 0.5, 0.0);
        assert_eq!(x, vec![1.0 - 0.5 * 0.5 * 0.5]);
    }

    #[test]
    fn qgm_weight_decay_shrinks_params() {
        let qgm = QgmState::new(0.0, 1.0, 1);
        let mut x = vec![1.0f32];
        qgm.local_step(&mut x, &[0.0], 0.1, 0.5);
        assert!((x[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "mu must be in [0,1)")]
    fn qgm_validates_mu() {
        QgmState::new(1.0, 0.1, 1);
    }
}
