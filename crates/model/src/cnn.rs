//! A small convolutional network (the paper's "CNN" workload stand-in).
//!
//! Architecture: 3×3 convolution (padding 1) over `C×H×W` input with `F`
//! filters → ReLU → 2×2 average pool → fully connected softmax classifier.
//! VGG11 itself is out of scale for this environment; the protocol code
//! only requires a non-convex dense-gradient model (see the README), and
//! this network keeps the convolution + pooling + dense code path of a
//! real CNN, with all backward passes written out explicitly.
//!
//! Parameter layout: `[conv_w (F*C*3*3), conv_b (F), fc_w (K * F*(H/2)*(W/2)), fc_b (K)]`.

use crate::loss::softmax_cross_entropy;
use crate::model::{resize_buf, GradScratch, Model};
use hop_data::{Batch, Features};
use hop_tensor::ops;
use hop_util::Xoshiro256;

/// Tiny CNN classifier.
///
/// # Examples
///
/// ```
/// use hop_model::{cnn::TinyCnn, Model};
/// let cnn = TinyCnn::for_synthetic_images(8);
/// assert_eq!(cnn.param_len(), 8 * 3 * 9 + 8 + 10 * 8 * 16 + 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TinyCnn {
    channels: usize,
    height: usize,
    width: usize,
    filters: usize,
    classes: usize,
}

impl TinyCnn {
    /// Creates a CNN for `channels x height x width` inputs with the given
    /// number of conv filters and output classes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `height`/`width` are odd (the
    /// 2×2 pool requires even spatial dimensions).
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        filters: usize,
        classes: usize,
    ) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0 && filters > 0 && classes > 0,
            "all dimensions must be positive"
        );
        assert!(
            height.is_multiple_of(2) && width.is_multiple_of(2),
            "height and width must be even for 2x2 pooling"
        );
        Self {
            channels,
            height,
            width,
            filters,
            classes,
        }
    }

    /// The configuration matching [`hop_data::images::SyntheticImages`]
    /// (3×8×8 input, 10 classes) with `filters` conv filters.
    pub fn for_synthetic_images(filters: usize) -> Self {
        Self::new(
            hop_data::images::CHANNELS,
            hop_data::images::HEIGHT,
            hop_data::images::WIDTH,
            filters,
            hop_data::images::N_CLASSES,
        )
    }

    fn conv_w_len(&self) -> usize {
        self.filters * self.channels * 9
    }

    fn pooled_len(&self) -> usize {
        self.filters * (self.height / 2) * (self.width / 2)
    }

    fn fc_w_len(&self) -> usize {
        self.classes * self.pooled_len()
    }

    fn fc_w_offset(&self) -> usize {
        self.conv_w_len() + self.filters
    }

    /// Conv forward: `out[f, y, x] = b[f] + sum_{c,ky,kx} w[f,c,ky,kx] *
    /// in[c, y+ky-1, x+kx-1]` with zero padding.
    fn conv_forward(&self, params: &[f32], input: &[f32], out: &mut [f32]) {
        let (h, w, c_in) = (self.height, self.width, self.channels);
        let conv_w = &params[..self.conv_w_len()];
        let conv_b = &params[self.conv_w_len()..self.conv_w_len() + self.filters];
        for f in 0..self.filters {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = conv_b[f];
                    for c in 0..c_in {
                        for ky in 0..3 {
                            let iy = y as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..3 {
                                let ix = x as isize + kx as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += conv_w[((f * c_in + c) * 3 + ky) * 3 + kx]
                                    * input[(c * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                    out[(f * h + y) * w + x] = acc;
                }
            }
        }
    }

    /// 2×2 average pool forward.
    fn pool_forward(&self, conv_out: &[f32], pooled: &mut [f32]) {
        let (h, w) = (self.height, self.width);
        let (ph, pw) = (h / 2, w / 2);
        for f in 0..self.filters {
            for py in 0..ph {
                for px in 0..pw {
                    let mut acc = 0.0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            acc += conv_out[(f * h + 2 * py + dy) * w + 2 * px + dx];
                        }
                    }
                    pooled[(f * ph + py) * pw + px] = acc / 4.0;
                }
            }
        }
    }

    /// Full forward pass into the scratch's stage buffers
    /// (`[conv_pre_relu, activated, pooled, logits]`).
    fn forward_into(&self, params: &[f32], input: &[f32], stages: &mut [Vec<f32>]) {
        let [conv, activated, pooled, logits] = &mut stages[..4] else {
            unreachable!("caller reserves 4 stage buffers");
        };
        resize_buf(conv, self.filters * self.height * self.width);
        self.conv_forward(params, input, conv);
        resize_buf(activated, conv.len());
        activated.copy_from_slice(conv);
        ops::relu(activated);
        resize_buf(pooled, self.pooled_len());
        self.pool_forward(activated, pooled);
        let fc_w = &params[self.fc_w_offset()..self.fc_w_offset() + self.fc_w_len()];
        let fc_b = &params[self.fc_w_offset() + self.fc_w_len()..];
        resize_buf(logits, self.classes);
        ops::gemv(fc_w, self.classes, self.pooled_len(), pooled, logits);
        ops::axpy(1.0, fc_b, logits);
    }
}

impl Model for TinyCnn {
    fn param_len(&self) -> usize {
        self.conv_w_len() + self.filters + self.fc_w_len() + self.classes
    }

    fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_len()];
        let conv_std = (2.0 / (self.channels as f64 * 9.0)).sqrt();
        for w in params[..self.conv_w_len()].iter_mut() {
            *w = rng.normal_with(0.0, conv_std) as f32;
        }
        let fc_std = (2.0 / self.pooled_len() as f64).sqrt();
        let off = self.fc_w_offset();
        for w in params[off..off + self.fc_w_len()].iter_mut() {
            *w = rng.normal_with(0.0, fc_std) as f32;
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
        let (h, w, c_in) = (self.height, self.width, self.channels);
        let (ph, pw) = (h / 2, w / 2);
        let mut total = 0.0f32;
        scratch.ensure_stages(4);
        let GradScratch { stages, a, b, c } = scratch;
        let (dlogits_buf, dpooled_buf, dconv_buf) = (a, b, c);
        for ex in &batch.examples {
            let input = ex.features.as_dense().expect("CNN requires dense features");
            assert_eq!(input.len(), c_in * h * w, "input size mismatch");
            self.forward_into(params, input, stages);
            let [conv_pre, _activated, pooled, logits] = &stages[..4] else {
                unreachable!("forward_into reserves 4 stage buffers");
            };
            resize_buf(dlogits_buf, self.classes);
            let dlogits = dlogits_buf.as_mut_slice();
            total += softmax_cross_entropy(logits, ex.label as usize, dlogits);
            // FC backward.
            let fc_off = self.fc_w_offset();
            let fc_w = &params[fc_off..fc_off + self.fc_w_len()];
            resize_buf(dpooled_buf, self.pooled_len());
            let dpooled = dpooled_buf.as_mut_slice();
            {
                let (gfc_w, gfc_b) = grad[fc_off..].split_at_mut(self.fc_w_len());
                for k in 0..self.classes {
                    ops::axpy(
                        dlogits[k],
                        pooled,
                        &mut gfc_w[k * self.pooled_len()..(k + 1) * self.pooled_len()],
                    );
                    gfc_b[k] += dlogits[k];
                }
                ops::gemv_t(fc_w, self.classes, self.pooled_len(), dlogits, dpooled);
            }
            // Pool backward: spread each pooled gradient over its 2x2 window.
            resize_buf(dconv_buf, self.filters * h * w);
            let dconv = dconv_buf.as_mut_slice();
            for f in 0..self.filters {
                for py in 0..ph {
                    for px in 0..pw {
                        let g = dpooled[(f * ph + py) * pw + px] / 4.0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                dconv[(f * h + 2 * py + dy) * w + 2 * px + dx] += g;
                            }
                        }
                    }
                }
            }
            // ReLU backward on the conv pre-activations.
            ops::relu_backward(conv_pre, dconv);
            // Conv backward (weights and bias only; input grads unused).
            let (gconv_w, rest) = grad.split_at_mut(self.conv_w_len());
            let gconv_b = &mut rest[..self.filters];
            for f in 0..self.filters {
                for y in 0..h {
                    for x in 0..w {
                        let g = dconv[(f * h + y) * w + x];
                        if g == 0.0 {
                            continue;
                        }
                        gconv_b[f] += g;
                        for c in 0..c_in {
                            for ky in 0..3 {
                                let iy = y as isize + ky as isize - 1;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..3 {
                                    let ix = x as isize + kx as isize - 1;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    gconv_w[((f * c_in + c) * 3 + ky) * 3 + kx] +=
                                        g * input[(c * h + iy as usize) * w + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
        let inv = 1.0 / batch.len() as f32;
        ops::scale(inv, grad);
        total * inv
    }

    fn predict(&self, params: &[f32], features: &Features) -> u32 {
        let input = features.as_dense().expect("CNN requires dense features");
        let mut scratch = GradScratch::new();
        scratch.ensure_stages(4);
        self.forward_into(params, input, &mut scratch.stages);
        ops::argmax(&scratch.stages[3]) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optimizer::Sgd;
    use hop_data::images::SyntheticImages;
    use hop_data::{BatchSampler, Dataset};

    #[test]
    fn param_len_matches_layout() {
        let cnn = TinyCnn::new(3, 8, 8, 4, 10);
        assert_eq!(cnn.param_len(), 4 * 3 * 9 + 4 + 10 * 4 * 16 + 10);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let data = SyntheticImages::generate(4, 7);
        let cnn = TinyCnn::for_synthetic_images(2);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let params = cnn.init_params(&mut rng);
        let batch = data.batch(&[0, 1, 2, 3]);
        let probe: Vec<usize> = (0..cnn.param_len()).step_by(37).collect();
        let err = finite_difference_check(&cnn, &params, &batch, &probe, 1e-2);
        assert!(err < 3e-2, "relative error {err}");
    }

    #[test]
    fn training_reduces_loss() {
        let data = SyntheticImages::generate(512, 5);
        let cnn = TinyCnn::for_synthetic_images(4);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut params = cnn.init_params(&mut rng);
        let mut grad = vec![0.0; params.len()];
        let mut scratch = GradScratch::new();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4, params.len());
        let mut sampler = BatchSampler::new(data.len(), 32, 1);
        let eval: Vec<usize> = (0..128).collect();
        let initial = cnn.loss(&params, &data.batch(&eval));
        for _ in 0..150 {
            let b = sampler.next_batch(&data);
            cnn.loss_grad_with(&params, &b, &mut grad, &mut scratch);
            opt.step(&mut params, &grad);
        }
        let final_loss = cnn.loss(&params, &data.batch(&eval));
        assert!(
            final_loss < initial * 0.7,
            "loss {initial} -> {final_loss} did not drop"
        );
    }

    #[test]
    fn conv_identity_filter_passes_through() {
        // A single filter with a 1 at the kernel center on channel 0 copies
        // channel 0 of the input.
        let cnn = TinyCnn::new(1, 4, 4, 1, 2);
        let mut params = vec![0.0; cnn.param_len()];
        params[4] = 1.0; // kernel center of (f=0, c=0): index (0*3+1)*3+1 = 4
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut out = vec![0.0; 16];
        cnn.conv_forward(&params, &input, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn pool_averages_windows() {
        let cnn = TinyCnn::new(1, 4, 4, 1, 2);
        let conv: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut pooled = vec![0.0; 4];
        cnn.pool_forward(&conv, &mut pooled);
        // Window (0,0): mean(0,1,4,5) = 2.5.
        assert_eq!(pooled[0], 2.5);
        assert_eq!(pooled[3], 12.5);
    }

    #[test]
    fn predict_valid_class() {
        let data = SyntheticImages::generate(2, 9);
        let cnn = TinyCnn::for_synthetic_images(2);
        let params = cnn.init_params(&mut Xoshiro256::seed_from_u64(2));
        let c = cnn.predict(&params, &data.example(0).features);
        assert!(c < 10);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn validates_even_dims() {
        TinyCnn::new(1, 5, 4, 1, 2);
    }
}
