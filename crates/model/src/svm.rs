//! Linear SVM with log loss (the paper's webspam workload).
//!
//! §7.2: "We use log loss for SVM instead of hinge loss", learning rate 10
//! and weight decay 1e-7. Labels are stored as `{0, 1}` in the dataset and
//! mapped to `{-1, +1}` here. The parameter vector is `[weights..., bias]`.

use crate::loss::log_loss;
use crate::model::{GradScratch, Gradient, Model};
use hop_data::{Batch, Features};
use hop_util::Xoshiro256;

/// [`Model::loss_grad_into`] writes a sparse gradient when the batch's
/// stored features number fewer than `1 / SPARSE_BELOW` of the weights.
/// Each entry the sparse path re-zeroes, marks and scales is a random
/// access, where the dense fill and scale stream; measured on a 2-core
/// x86-64 host (32-example batches), the sparse path costs 0.61× the
/// dense one at 1/64 of 64K dims and 0.94× at 1/32, but 1.40× at 1/16,
/// and at 1K dims 1.03× at 1/32 and 1.36× at 1/16. So 64K-dim webspam
/// batches of 32-feature rows (1 024 features, 1/64) are sparse, and the
/// same batches at 1K dims (1/1) dense.
const SPARSE_BELOW: usize = 32;

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

    fn check(&self, params: &[f32], grad: &[f32], batch: &Batch<'_>) {
        assert_eq!(params.len(), self.param_len(), "params length mismatch");
        assert_eq!(grad.len(), self.param_len(), "grad length mismatch");
        assert!(!batch.is_empty(), "empty batch");
    }

    /// The summed loss over `batch`, and the summed gradient added into
    /// `grad` (zero on entry); `touched` sees each example's features.
    /// Both paths of the gradient run this one loop.
    fn accumulate(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut [f32],
        mut touched: impl FnMut(&Features),
    ) -> f32 {
        let mut total = 0.0;
        for ex in &batch.examples {
            let y = if ex.label == 1 { 1.0 } else { -1.0 };
            let margin = self.margin(params, &ex.features);
            let (l, dmargin) = log_loss(margin, y);
            total += l;
            ex.features.axpy_into(dmargin, &mut grad[..self.dim]);
            grad[self.dim] += dmargin;
            touched(&ex.features);
        }
        total
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
        self.check(params, grad, batch);
        grad.fill(0.0);
        let total = self.accumulate(params, batch, grad, |_| {});
        let inv = 1.0 / batch.len() as f32;
        for g in grad.iter_mut() {
            *g *= inv;
        }
        total * inv
    }

    /// A sparse batch — stored features under 1/32 of the dimension —
    /// re-zeroes the previous gradient's support, adds into the entries
    /// its features touch and the bias, and scales each of those once;
    /// every other entry stays `+0.0`, the dense path's `0.0 * inv`. The
    /// rest take [`Model::loss_grad_with`].
    fn loss_grad_into(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut Gradient,
        scratch: &mut GradScratch,
    ) -> f32 {
        let nnz: usize = batch.examples.iter().map(|ex| ex.features.nnz()).sum();
        if nnz.saturating_mul(SPARSE_BELOW) >= self.dim {
            return self.loss_grad_with(params, batch, grad.dense_mut(), scratch);
        }
        // The support is at most the stored features and the bias.
        let (values, support) = grad.begin_sparse(self.dim / SPARSE_BELOW + 1);
        self.check(params, values, batch);
        let total = self.accumulate(params, batch, values, |features| match features {
            Features::Sparse(pairs) => pairs.iter().for_each(|&(j, _)| support.touch(j as usize)),
            // `axpy_into` took `dim` values from it: the batch is dense.
            Features::Dense(_) => unreachable!("a dense row in a sparse batch"),
        });
        support.touch(self.dim);
        let inv = 1.0 / batch.len() as f32;
        support.scale(inv, values);
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
    use proptest::prelude::*;

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

    /// `rows` examples of `nnz` stored features in total, each row's
    /// indices distinct and sorted, drawn from the first `pool` features
    /// (a small pool repeats indices across examples); values in
    /// [-2, 2], zeros among them.
    fn sparse_rows(rng: &mut Xoshiro256, rows: usize, nnz: usize, pool: usize) -> Vec<Example> {
        (0..rows)
            .map(|r| {
                let want = nnz / rows + usize::from(r < nnz % rows);
                let mut idx: Vec<u32> = Vec::new();
                while idx.len() < want.min(pool) {
                    let j = rng.index(pool) as u32;
                    if !idx.contains(&j) {
                        idx.push(j);
                    }
                }
                idx.sort_unstable();
                let value = |rng: &mut Xoshiro256| match rng.index(9) {
                    0 => 0.0,
                    _ => rng.next_f32() * 4.0 - 2.0,
                };
                Example {
                    features: Features::Sparse(idx.into_iter().map(|j| (j, value(rng))).collect()),
                    label: rng.index(2) as u32,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `loss_grad_into` on one reused buffer gives `loss_grad_with`'s
        /// loss and gradient bits over a random sequence of batches: sparse
        /// ones (indices repeated across examples), both sides of the
        /// dense-fallback edge, dense features, and sparse after dense.
        /// A sparse gradient lists each entry it wrote once, the bias
        /// among them, and every other entry is `+0.0`.
        #[test]
        fn the_support_path_gives_the_dense_bits(seed in 0u64..1 << 40, dim in 300usize..4_000) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let svm = Svm::log_loss(dim);
            let params: Vec<f32> = (0..=dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            // The smallest batch nnz that takes the dense path.
            let edge = dim.div_ceil(SPARSE_BELOW);
            let mut grad = Gradient::zeros(dim + 1);
            let mut scratch = GradScratch::new();
            for call in 0..8 {
                let rows = 1 + rng.index(8);
                let examples = match rng.index(5) {
                    0 => {
                        let x = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
                        vec![Example { features: Features::Dense(x), label: 1 }]
                    }
                    1 => sparse_rows(&mut rng, rows, edge, dim),
                    2 => sparse_rows(&mut rng, rows, edge - 1, dim),
                    k => {
                        let pool = if k == 3 { 3 + rng.index(12) } else { dim };
                        let nnz = rows + rng.index(edge - rows);
                        sparse_rows(&mut rng, rows, nnz, pool)
                    }
                };
                let nnz: usize = examples.iter().map(|e| e.features.nnz()).sum();
                let data = InMemoryDataset::new(examples, dim, 2);
                let all: Vec<usize> = (0..data.len()).collect();
                let batch = data.batch(&all);
                let mut dense = vec![f32::NAN; dim + 1];
                let expect = svm.loss_grad_with(&params, &batch, &mut dense, &mut scratch);
                let loss = svm.loss_grad_into(&params, &batch, &mut grad, &mut scratch);
                let at = format!("call {call}, nnz {nnz}, edge {edge}");
                prop_assert_eq!(loss.to_bits(), expect.to_bits());
                let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert!(bits(grad.as_slice()) == bits(&dense), "gradient bits, {at}");
                let sparse = nnz * SPARSE_BELOW < dim;
                prop_assert!(grad.support().is_some() == sparse, "path, {at}");
                if let Some(support) = grad.support() {
                    let mut listed = vec![false; dim + 1];
                    for &j in support {
                        prop_assert!(!listed[j as usize], "{j} listed twice, {at}");
                        listed[j as usize] = true;
                    }
                    prop_assert!(listed[dim], "the bias is not listed, {at}");
                    for (j, v) in grad.as_slice().iter().enumerate() {
                        prop_assert!(listed[j] || v.to_bits() == 0, "entry {j} is {v}, {at}");
                    }
                }
            }
        }
    }

    /// The support's list is sized for the largest sparse batch on its
    /// first use, so the steady state allocates nothing: the list keeps
    /// its buffer over batches of any sparse size, and over a dense one.
    #[test]
    fn the_support_is_allocated_once() {
        let dim = 4096;
        let svm = Svm::log_loss(dim);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let params: Vec<f32> = (0..=dim).map(|_| rng.next_f32() - 0.5).collect();
        let mut grad = Gradient::zeros(dim + 1);
        let mut scratch = GradScratch::new();
        let mut buffer = None;
        for nnz in [8, 127, 40, 0, 127, 1] {
            // nnz 0 stands for a dense batch.
            let examples = match nnz {
                0 => vec![Example {
                    features: Features::Dense(vec![0.5; dim]),
                    label: 0,
                }],
                _ => sparse_rows(&mut rng, 4, nnz, dim),
            };
            let data = InMemoryDataset::new(examples, dim, 2);
            let all: Vec<usize> = (0..data.len()).collect();
            svm.loss_grad_into(&params, &data.batch(&all), &mut grad, &mut scratch);
            let Some(support) = grad.support() else {
                assert_eq!(nnz, 0, "a sparse batch of {nnz} kept no support");
                continue;
            };
            assert_eq!(*buffer.get_or_insert(support.as_ptr()), support.as_ptr());
        }
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
