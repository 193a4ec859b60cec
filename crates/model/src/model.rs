//! The `Model` trait: everything a decentralized worker needs from a model.

use hop_data::{Batch, Features};
use hop_util::Xoshiro256;

/// Reusable forward/backward scratch buffers for
/// [`Model::loss_grad_with`].
///
/// Each training worker owns one `GradScratch`; models write per-example
/// activations and backprop deltas into it instead of allocating fresh
/// `Vec`s per example, so a steady-state gradient step performs no heap
/// allocation. The buffer contents are transient — every call overwrites
/// what it reads — and carry no cross-call state, so reusing (or not
/// reusing) a scratch cannot change any computed value.
///
/// The layout is deliberately loose: [`GradScratch::stages`] holds one
/// buffer per forward stage (layer activations, pre-activations, pooled
/// maps…), and [`GradScratch::a`]/[`b`](GradScratch::b)/
/// [`c`](GradScratch::c) are generic delta buffers. Models size them via
/// [`resize_buf`] on entry.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    /// Per-stage forward buffers (activations, pre-activations…).
    pub stages: Vec<Vec<f32>>,
    /// Generic backprop buffer (e.g. the current layer's `dz`).
    pub a: Vec<f32>,
    /// Generic backprop buffer (e.g. the previous layer's `da`).
    pub b: Vec<f32>,
    /// Generic backprop buffer for models with a third intermediate
    /// (e.g. the CNN's `dconv`).
    pub c: Vec<f32>,
}

impl GradScratch {
    /// An empty scratch; buffers grow to the model's sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures [`Self::stages`] holds at least `n` buffers.
    pub fn ensure_stages(&mut self, n: usize) {
        if self.stages.len() < n {
            self.stages.resize_with(n, Vec::new);
        }
    }
}

/// Resizes a scratch buffer to `len` elements, zero-filled — equivalent
/// to a fresh `vec![0.0; len]` but reusing the allocation.
pub fn resize_buf(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// A differentiable model over a flat parameter vector.
///
/// Decentralized training exchanges raw parameter vectors between workers;
/// keeping the model stateless over `&[f32]` makes every protocol
/// implementation model-agnostic.
pub trait Model: Send + Sync {
    /// Length of the flat parameter vector.
    fn param_len(&self) -> usize;

    /// Draws initial parameters.
    fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32>;

    /// Computes the mean loss over `batch` and writes the mean gradient
    /// into `grad` (overwritten, not accumulated), using `scratch` for
    /// all per-example intermediates. Returns the loss.
    ///
    /// This is the allocation-free hot path: callers keep one
    /// [`GradScratch`] per worker and pass it to every call. Results are
    /// bit-identical regardless of the scratch's prior contents.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params` or `grad` have the wrong length
    /// or the batch is empty.
    fn loss_grad_with(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut [f32],
        scratch: &mut GradScratch,
    ) -> f32;

    /// Computes the mean loss over `batch` without gradients.
    fn loss(&self, params: &[f32], batch: &Batch<'_>) -> f32 {
        let mut grad = vec![0.0; self.param_len()];
        self.loss_grad_with(params, batch, &mut grad, &mut GradScratch::new())
    }

    /// Predicts the class of a single example.
    fn predict(&self, params: &[f32], features: &Features) -> u32;

    /// Classification accuracy over a batch.
    fn accuracy(&self, params: &[f32], batch: &Batch<'_>) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let correct = batch
            .examples
            .iter()
            .filter(|ex| self.predict(params, &ex.features) == ex.label)
            .count();
        correct as f64 / batch.len() as f64
    }
}

/// Checks an analytic gradient against central finite differences on a few
/// coordinates; used by every model's tests.
///
/// Returns the maximum relative error over the probed coordinates.
#[doc(hidden)]
pub fn finite_difference_check<M: Model>(
    model: &M,
    params: &[f32],
    batch: &Batch<'_>,
    probe: &[usize],
    eps: f32,
) -> f64 {
    let mut grad = vec![0.0; model.param_len()];
    model.loss_grad_with(params, batch, &mut grad, &mut GradScratch::new());
    let mut worst: f64 = 0.0;
    let mut p = params.to_vec();
    for &i in probe {
        let orig = p[i];
        p[i] = orig + eps;
        let up = model.loss(&p, batch) as f64;
        p[i] = orig - eps;
        let down = model.loss(&p, batch) as f64;
        p[i] = orig;
        let numeric = (up - down) / (2.0 * eps as f64);
        let analytic = grad[i] as f64;
        let denom = numeric.abs().max(analytic.abs()).max(1e-4);
        worst = worst.max((numeric - analytic).abs() / denom);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use hop_data::{Dataset, Example, InMemoryDataset};

    /// Quadratic toy model: loss = 0.5 * ||params - x||^2 summed over batch.
    struct Quadratic {
        dim: usize,
    }

    impl Model for Quadratic {
        fn param_len(&self) -> usize {
            self.dim
        }

        fn init_params(&self, _rng: &mut Xoshiro256) -> Vec<f32> {
            vec![0.0; self.dim]
        }

        fn loss_grad_with(
            &self,
            params: &[f32],
            batch: &Batch<'_>,
            grad: &mut [f32],
            _scratch: &mut GradScratch,
        ) -> f32 {
            assert_eq!(params.len(), self.dim);
            assert_eq!(grad.len(), self.dim);
            assert!(!batch.is_empty());
            grad.fill(0.0);
            let mut loss = 0.0;
            for ex in &batch.examples {
                let x = ex.features.as_dense().expect("dense");
                for k in 0..self.dim {
                    let d = params[k] - x[k];
                    loss += 0.5 * d * d;
                    grad[k] += d;
                }
            }
            let inv = 1.0 / batch.len() as f32;
            for g in grad.iter_mut() {
                *g *= inv;
            }
            loss * inv
        }

        fn predict(&self, _params: &[f32], _features: &Features) -> u32 {
            0
        }
    }

    fn dataset() -> InMemoryDataset {
        InMemoryDataset::new(
            vec![
                Example {
                    features: Features::Dense(vec![1.0, -1.0]),
                    label: 0,
                },
                Example {
                    features: Features::Dense(vec![3.0, 5.0]),
                    label: 0,
                },
            ],
            2,
            1,
        )
    }

    #[test]
    fn default_loss_matches_loss_grad() {
        let d = dataset();
        let m = Quadratic { dim: 2 };
        let batch = d.batch(&[0, 1]);
        let mut grad = vec![0.0; 2];
        let via_grad = m.loss_grad_with(&[0.0, 0.0], &batch, &mut grad, &mut GradScratch::new());
        let plain = m.loss(&[0.0, 0.0], &batch);
        assert_eq!(via_grad, plain);
        // Mean gradient of 0.5(p - x)^2 at p = 0 is -mean(x) = (-2, -2).
        assert_eq!(grad, vec![-2.0, -2.0]);
    }

    #[test]
    fn finite_difference_agrees_for_quadratic() {
        let d = dataset();
        let m = Quadratic { dim: 2 };
        let batch = d.batch(&[0, 1]);
        let err = finite_difference_check(&m, &[0.3, -0.7], &batch, &[0, 1], 1e-3);
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn accuracy_counts_matches() {
        let d = dataset();
        let m = Quadratic { dim: 2 };
        let batch = d.batch(&[0, 1]);
        // Quadratic always predicts 0 and all labels are 0.
        assert_eq!(m.accuracy(&[0.0, 0.0], &batch), 1.0);
    }
}
