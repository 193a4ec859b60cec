//! Multi-layer perceptron with ReLU activations and softmax cross-entropy.
//!
//! Used as a middle-weight workload in tests and examples; the parameter
//! layout per layer is row-major `W (d_out x d_in)` followed by `b (d_out)`.

use crate::loss::softmax_cross_entropy;
use crate::model::{resize_buf, GradScratch, Model};
use hop_data::{Batch, Features};
use hop_tensor::ops;
use hop_util::Xoshiro256;

/// A fully connected ReLU network.
///
/// # Examples
///
/// ```
/// use hop_model::{mlp::Mlp, Model};
/// let mlp = Mlp::new(&[4, 8, 3]);
/// assert_eq!(mlp.param_len(), 4 * 8 + 8 + 8 * 3 + 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    sizes: Vec<usize>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`[input, ..., classes]`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 sizes are given or any size is 0.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Self {
            sizes: sizes.to_vec(),
        }
    }

    /// Layer sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn n_layers(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Offset of layer `l`'s weight block in the flat parameter vector.
    fn weight_offset(&self, layer: usize) -> usize {
        let mut off = 0;
        for l in 0..layer {
            off += self.sizes[l] * self.sizes[l + 1] + self.sizes[l + 1];
        }
        off
    }

    /// Forward pass for one dense example into caller-provided buffers:
    /// `acts[l]` receives layer `l`'s activation (`acts[0]` is the input)
    /// and `pre[l]` layer `l`'s pre-activation.
    fn forward_into(
        &self,
        params: &[f32],
        input: &[f32],
        acts: &mut [Vec<f32>],
        pre: &mut [Vec<f32>],
    ) {
        resize_buf(&mut acts[0], input.len());
        acts[0].copy_from_slice(input);
        for l in 0..self.n_layers() {
            let (d_in, d_out) = (self.sizes[l], self.sizes[l + 1]);
            let off = self.weight_offset(l);
            let w = &params[off..off + d_in * d_out];
            let b = &params[off + d_in * d_out..off + d_in * d_out + d_out];
            resize_buf(&mut pre[l], d_out);
            ops::gemv(w, d_out, d_in, &acts[l], &mut pre[l]);
            ops::axpy(1.0, b, &mut pre[l]);
            resize_buf(&mut acts[l + 1], d_out);
            acts[l + 1].copy_from_slice(&pre[l]);
            if l + 1 < self.n_layers() {
                ops::relu(&mut acts[l + 1]);
            }
        }
    }

    /// Splits a scratch into the per-layer activation and pre-activation
    /// buffers used by [`Self::forward_into`].
    fn scratch_stages<'s>(
        &self,
        scratch: &'s mut GradScratch,
    ) -> (&'s mut [Vec<f32>], &'s mut [Vec<f32>]) {
        let n_layers = self.n_layers();
        scratch.ensure_stages(2 * n_layers + 1);
        let (acts, rest) = scratch.stages.split_at_mut(n_layers + 1);
        (acts, &mut rest[..n_layers])
    }

    fn logits(&self, params: &[f32], features: &Features) -> Vec<f32> {
        let input = features.as_dense().expect("MLP requires dense features");
        let mut scratch = GradScratch::new();
        let (acts, pre) = self.scratch_stages(&mut scratch);
        self.forward_into(params, input, acts, pre);
        acts[self.n_layers()].clone()
    }
}

impl Model for Mlp {
    fn param_len(&self) -> usize {
        self.weight_offset(self.n_layers())
    }

    fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_len()];
        for l in 0..self.n_layers() {
            let (d_in, d_out) = (self.sizes[l], self.sizes[l + 1]);
            let off = self.weight_offset(l);
            // He initialization for ReLU layers.
            let std = (2.0 / d_in as f64).sqrt();
            for w in params[off..off + d_in * d_out].iter_mut() {
                *w = rng.normal_with(0.0, std) as f32;
            }
            // Biases stay zero.
        }
        params
    }

    fn loss_grad_with(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut [f32],
        scratch: &mut GradScratch,
    ) -> f32 {
        assert_eq!(params.len(), self.param_len(), "params length mismatch");
        assert_eq!(grad.len(), self.param_len(), "grad length mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let mut total = 0.0f32;
        let n_layers = self.n_layers();
        let max_width = *self.sizes.iter().max().expect("at least two layers");
        scratch.ensure_stages(2 * n_layers + 1);
        let GradScratch { stages, a, b, .. } = scratch;
        let (acts, pre) = stages.split_at_mut(n_layers + 1);
        let (dz_buf, da_buf) = (a, b);
        resize_buf(dz_buf, max_width);
        resize_buf(da_buf, max_width);
        for ex in &batch.examples {
            let input = ex.features.as_dense().expect("MLP requires dense features");
            self.forward_into(params, input, acts, pre);
            let logits = &acts[n_layers];
            total += softmax_cross_entropy(logits, ex.label as usize, &mut dz_buf[..logits.len()]);
            // Backpropagate.
            for l in (0..n_layers).rev() {
                let (d_in, d_out) = (self.sizes[l], self.sizes[l + 1]);
                let off = self.weight_offset(l);
                let dz = &dz_buf[..d_out];
                {
                    // dW += dz ⊗ a_{l-1}; db += dz.
                    let (gw, gb) = grad[off..off + d_in * d_out + d_out].split_at_mut(d_in * d_out);
                    for o in 0..d_out {
                        ops::axpy(dz[o], &acts[l], &mut gw[o * d_in..(o + 1) * d_in]);
                        gb[o] += dz[o];
                    }
                }
                if l > 0 {
                    // da_{l-1} = W^T dz, then mask by ReLU'.
                    let w = &params[off..off + d_in * d_out];
                    let da = &mut da_buf[..d_in];
                    ops::gemv_t(w, d_out, d_in, dz, da);
                    ops::relu_backward(&pre[l - 1], da);
                    std::mem::swap(dz_buf, da_buf);
                }
            }
        }
        let inv = 1.0 / batch.len() as f32;
        ops::scale(inv, grad);
        total * inv
    }

    fn predict(&self, params: &[f32], features: &Features) -> u32 {
        ops::argmax(&self.logits(params, features)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optimizer::Sgd;
    use hop_data::images::SyntheticImages;
    use hop_data::{BatchSampler, Dataset, Example, InMemoryDataset};

    fn toy() -> InMemoryDataset {
        InMemoryDataset::new(
            vec![
                Example {
                    features: Features::Dense(vec![1.0, 0.0, -0.5]),
                    label: 0,
                },
                Example {
                    features: Features::Dense(vec![-1.0, 0.5, 0.2]),
                    label: 1,
                },
            ],
            3,
            2,
        )
    }

    #[test]
    fn param_len_layout() {
        let m = Mlp::new(&[3, 5, 2]);
        assert_eq!(m.param_len(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(m.weight_offset(1), 3 * 5 + 5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let d = toy();
        let m = Mlp::new(&[3, 4, 2]);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let params = m.init_params(&mut rng);
        let batch = d.batch(&[0, 1]);
        // Probe a spread of coordinates across both layers.
        let probe: Vec<usize> = (0..m.param_len()).step_by(3).collect();
        let err = finite_difference_check(&m, &params, &batch, &probe, 1e-2);
        assert!(err < 2e-2, "relative error {err}");
    }

    #[test]
    fn training_learns_synthetic_images() {
        let data = SyntheticImages::generate(1024, 2);
        let m = Mlp::new(&[data.feature_dim(), 32, data.n_classes()]);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut params = m.init_params(&mut rng);
        let mut grad = vec![0.0; params.len()];
        let mut scratch = GradScratch::new();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4, params.len());
        let mut sampler = BatchSampler::new(data.len(), 64, 1);
        let eval: Vec<usize> = (0..256).collect();
        let initial = m.loss(&params, &data.batch(&eval));
        for _ in 0..200 {
            let b = sampler.next_batch(&data);
            m.loss_grad_with(&params, &b, &mut grad, &mut scratch);
            opt.step(&mut params, &grad);
        }
        let batch = data.batch(&eval);
        let final_loss = m.loss(&params, &batch);
        assert!(
            final_loss < initial * 0.6,
            "loss {initial} -> {final_loss} did not drop"
        );
        assert!(m.accuracy(&params, &batch) > 0.5);
    }

    #[test]
    fn deterministic_init() {
        let m = Mlp::new(&[4, 4, 2]);
        let a = m.init_params(&mut Xoshiro256::seed_from_u64(1));
        let b = m.init_params(&mut Xoshiro256::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn predict_returns_valid_class() {
        let m = Mlp::new(&[3, 4, 2]);
        let params = m.init_params(&mut Xoshiro256::seed_from_u64(3));
        let c = m.predict(&params, &Features::Dense(vec![0.1, 0.2, 0.3]));
        assert!(c < 2);
    }

    #[test]
    #[should_panic(expected = "dense features")]
    fn rejects_sparse_features() {
        let m = Mlp::new(&[3, 2]);
        let params = vec![0.0; m.param_len()];
        m.predict(&params, &Features::Sparse(vec![(0, 1.0)]));
    }
}
