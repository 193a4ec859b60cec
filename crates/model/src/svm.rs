//! Linear SVM with log loss (the paper's webspam workload).
//!
//! §7.2: "We use log loss for SVM instead of hinge loss", learning rate 10
//! and weight decay 1e-7. Labels are stored as `{0, 1}` in the dataset and
//! mapped to `{-1, +1}` here. The parameter vector is `[weights..., bias]`.

use crate::loss::log_loss;
use crate::model::{GradScratch, Model};
use hop_data::{Batch, Features};
use hop_util::Xoshiro256;

/// A binary linear classifier over dense or sparse features.
///
/// # Examples
///
/// ```
/// use hop_model::{svm::Svm, Model};
/// use hop_data::Features;
///
/// let svm = Svm::log_loss(4);
/// // weights favor feature 0 for class 1; bias 0.
/// let params = vec![1.0, 0.0, 0.0, 0.0, 0.0];
/// assert_eq!(svm.predict(&params, &Features::Dense(vec![2.0, 0.0, 0.0, 0.0])), 1);
/// assert_eq!(svm.predict(&params, &Features::Dense(vec![-2.0, 0.0, 0.0, 0.0])), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Svm {
    dim: usize,
}

impl Svm {
    /// Creates an SVM with log loss over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn log_loss(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { dim }
    }

    /// Feature dimension (excluding the bias slot).
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn margin(&self, params: &[f32], features: &Features) -> f32 {
        features.dot(&params[..self.dim]) + params[self.dim]
    }
}

impl Model for Svm {
    fn param_len(&self) -> usize {
        self.dim + 1
    }

    fn init_params(&self, _rng: &mut Xoshiro256) -> Vec<f32> {
        // Linear models conventionally start at zero.
        vec![0.0; self.dim + 1]
    }

    // The linear model needs no per-example intermediates; the scratch is
    // accepted (and ignored) so every model shares one hot-path entry.
    fn loss_grad_with(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut [f32],
        _scratch: &mut GradScratch,
    ) -> f32 {
        assert_eq!(params.len(), self.param_len(), "params length mismatch");
        assert_eq!(grad.len(), self.param_len(), "grad length mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let mut total = 0.0;
        for ex in &batch.examples {
            let y = if ex.label == 1 { 1.0 } else { -1.0 };
            let margin = self.margin(params, &ex.features);
            let (l, dmargin) = log_loss(margin, y);
            total += l;
            ex.features.axpy_into(dmargin, &mut grad[..self.dim]);
            grad[self.dim] += dmargin;
        }
        let inv = 1.0 / batch.len() as f32;
        for g in grad.iter_mut() {
            *g *= inv;
        }
        total * inv
    }

    fn predict(&self, params: &[f32], features: &Features) -> u32 {
        u32::from(self.margin(params, features) > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optimizer::Sgd;
    use hop_data::webspam::SyntheticWebspam;
    use hop_data::{BatchSampler, Dataset, Example, InMemoryDataset};

    fn toy() -> InMemoryDataset {
        InMemoryDataset::new(
            vec![
                Example {
                    features: Features::Dense(vec![1.0, 0.5]),
                    label: 1,
                },
                Example {
                    features: Features::Dense(vec![-1.0, -0.5]),
                    label: 0,
                },
                Example {
                    features: Features::Sparse(vec![(0, 2.0)]),
                    label: 1,
                },
            ],
            2,
            2,
        )
    }

    #[test]
    fn zero_params_give_ln2_loss() {
        let d = toy();
        let svm = Svm::log_loss(2);
        let batch = d.batch(&[0, 1, 2]);
        let loss = svm.loss(&[0.0, 0.0, 0.0], &batch);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_difference_log() {
        let d = toy();
        let svm = Svm::log_loss(2);
        let batch = d.batch(&[0, 1, 2]);
        let err = finite_difference_check(&svm, &[0.2, -0.4, 0.1], &batch, &[0, 1, 2], 1e-3);
        assert!(err < 5e-3, "relative error {err}");
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let data = SyntheticWebspam::generate(2048, 3);
        let svm = Svm::log_loss(data.feature_dim());
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut params = svm.init_params(&mut rng);
        let mut grad = vec![0.0; params.len()];
        let mut scratch = GradScratch::new();
        let mut opt = Sgd::new(0.5, 0.9, 1e-7, params.len());
        let mut sampler = BatchSampler::new(data.len(), 64, 1);
        for _ in 0..300 {
            let b = sampler.next_batch(&data);
            svm.loss_grad_with(&params, &b, &mut grad, &mut scratch);
            opt.step(&mut params, &grad);
        }
        let eval: Vec<usize> = (0..512).collect();
        let batch = data.batch(&eval);
        let acc = svm.accuracy(&params, &batch);
        assert!(acc > 0.85, "accuracy {acc}");
        assert!(svm.loss(&params, &batch) < 0.45);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn rejects_empty_batch() {
        let svm = Svm::log_loss(2);
        let batch = Batch { examples: vec![] };
        let mut g = vec![0.0; 3];
        svm.loss_grad_with(&[0.0, 0.0, 0.0], &batch, &mut g, &mut GradScratch::new());
    }
}
