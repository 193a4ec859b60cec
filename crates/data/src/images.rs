//! Synthetic multi-class image data (the CIFAR-10 stand-in).
//!
//! Each of the 10 classes gets a random smooth template image; examples
//! are the template plus per-pixel Gaussian noise, normalized to roughly
//! zero mean and unit variance like standard CIFAR preprocessing. The
//! classes overlap enough that a linear model cannot reach zero loss but a
//! small CNN steadily improves — which is all the protocol experiments
//! need from the workload.

use crate::dataset::{Example, Features, InMemoryDataset};
use hop_util::Xoshiro256;

/// Image geometry: 3 channels of 8×8 pixels.
pub const CHANNELS: usize = 3;
/// Image height in pixels.
pub const HEIGHT: usize = 8;
/// Image width in pixels.
pub const WIDTH: usize = 8;
/// Number of classes.
pub const N_CLASSES: usize = 10;
/// Flattened feature dimension.
pub const FEATURE_DIM: usize = CHANNELS * HEIGHT * WIDTH;

/// Generator for the synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticImages;

impl SyntheticImages {
    /// Generates `n` examples with the given seed.
    ///
    /// Class templates are drawn once from the seed, so two datasets with
    /// the same seed share the same underlying classification problem.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn generate(n: usize, seed: u64) -> InMemoryDataset {
        assert!(n > 0, "need at least one example");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        // Smooth templates: low-frequency sinusoids with random phase per
        // channel, scaled by a random per-class amplitude. "Smooth" matters:
        // it gives the conv filters of the CNN stand-in structure to learn.
        let mut templates = Vec::with_capacity(N_CLASSES);
        for _class in 0..N_CLASSES {
            let mut img = vec![0.0f32; FEATURE_DIM];
            for c in 0..CHANNELS {
                let fx = rng.range_f64(0.5, 2.0);
                let fy = rng.range_f64(0.5, 2.0);
                let px = rng.range_f64(0.0, std::f64::consts::TAU);
                let py = rng.range_f64(0.0, std::f64::consts::TAU);
                let amp = rng.range_f64(0.8, 1.6);
                for y in 0..HEIGHT {
                    for x in 0..WIDTH {
                        let v = amp
                            * ((fx * x as f64 / WIDTH as f64 * std::f64::consts::TAU + px).sin()
                                + (fy * y as f64 / HEIGHT as f64 * std::f64::consts::TAU + py)
                                    .cos())
                            / 2.0;
                        img[c * HEIGHT * WIDTH + y * WIDTH + x] = v as f32;
                    }
                }
            }
            templates.push(img);
        }
        let noise_std = 0.6f64;
        let examples = (0..n)
            .map(|_| {
                let label = rng.index(N_CLASSES) as u32;
                let mut pixels = templates[label as usize].clone();
                for p in pixels.iter_mut() {
                    *p += rng.normal_with(0.0, noise_std) as f32;
                }
                Example {
                    features: Features::Dense(pixels),
                    label,
                }
            })
            .collect();
        InMemoryDataset::new(examples, FEATURE_DIM, N_CLASSES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    #[test]
    fn generates_requested_size() {
        let d = SyntheticImages::generate(128, 1);
        assert_eq!(d.len(), 128);
        assert_eq!(d.feature_dim(), FEATURE_DIM);
        assert_eq!(d.n_classes(), N_CLASSES);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SyntheticImages::generate(16, 9);
        let b = SyntheticImages::generate(16, 9);
        assert_eq!(a, b);
        let c = SyntheticImages::generate(16, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn all_classes_appear() {
        let d = SyntheticImages::generate(2000, 3);
        let mut seen = [false; N_CLASSES];
        for ex in d.iter() {
            seen[ex.label as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pixels_are_roughly_standardized() {
        let d = SyntheticImages::generate(500, 4);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0usize;
        for ex in d.iter() {
            let x = ex.features.as_dense().expect("dense");
            for &p in x {
                sum += p as f64;
                sum_sq += (p as f64) * (p as f64);
                count += 1;
            }
        }
        let mean = sum / count as f64;
        let var = sum_sq / count as f64 - mean * mean;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!(var > 0.2 && var < 3.0, "var {var}");
    }

    #[test]
    fn class_templates_are_separable_on_average() {
        // Examples of the same class should be closer to their template
        // than to other templates more often than chance.
        let d = SyntheticImages::generate(400, 5);
        let templates = SyntheticImages::generate(N_CLASSES * 50, 5);
        // Estimate per-class means from a second sample of the same seed.
        let mut means = vec![vec![0.0f64; FEATURE_DIM]; N_CLASSES];
        let mut counts = vec![0usize; N_CLASSES];
        for ex in templates.iter() {
            let x = ex.features.as_dense().expect("dense");
            for (m, &v) in means[ex.label as usize].iter_mut().zip(x) {
                *m += v as f64;
            }
            counts[ex.label as usize] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f64;
            }
        }
        let mut correct = 0usize;
        for ex in d.iter() {
            let x = ex.features.as_dense().expect("dense");
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (k, m) in means.iter().enumerate() {
                let dist: f64 = x
                    .iter()
                    .zip(m)
                    .map(|(&a, &b)| (a as f64 - b) * (a as f64 - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = k;
                }
            }
            if best == ex.label as usize {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.5, "nearest-mean accuracy {acc} too low");
    }
}
