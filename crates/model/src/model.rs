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

/// A gradient buffer that knows which entries its last gradient wrote.
///
/// The contract: while [`Gradient::support`] is `Some(indices)`, every
/// entry it does not list is `+0.0` — the bits the dense computation
/// leaves there, `0.0 * (1 / n)` — so a reader may take
/// [`Gradient::as_slice`] as the whole gradient, and the model that
/// writes the next one re-zeroes only the listed entries instead of the
/// whole buffer. Only a sparse gradient keeps a support: a dense write
/// ([`Gradient::dense_mut`]) forgets it, and a buffer that never held a
/// sparse gradient stores none. The support's list and marks are sized
/// once, on the first sparse gradient, so later ones allocate nothing.
#[derive(Debug, Default)]
pub struct Gradient {
    values: Vec<f32>,
    support: Option<Box<Support>>,
}

/// Which entries of a [`Gradient`] a sparse computation wrote.
#[derive(Debug)]
pub(crate) struct Support {
    /// The entries written, each once, in the order first written.
    indices: Vec<u32>,
    /// Whether `indices` describes the values: false after a dense write.
    live: bool,
    /// One bit per entry, set for the listed ones while a gradient is
    /// being written and clear between gradients.
    marks: Vec<u64>,
}

impl Gradient {
    /// A zero gradient of `len` entries.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
            support: None,
        }
    }

    /// The gradient, every entry.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// The entries the last gradient wrote, if it was sparse: every other
    /// entry is `+0.0`. Each is listed once, in no particular order.
    pub fn support(&self) -> Option<&[u32]> {
        let support = self.support.as_deref().filter(|s| s.live)?;
        Some(&support.indices)
    }

    /// The values, for a dense write of the whole gradient: forgets the
    /// support (its allocation is kept for the next sparse gradient).
    pub fn dense_mut(&mut self) -> &mut [f32] {
        if let Some(support) = &mut self.support {
            support.live = false;
        }
        &mut self.values
    }

    /// The values, zero everywhere, and an empty support for a sparse
    /// write: the previous sparse gradient's entries are re-zeroed, or
    /// every entry after a dense write. The first call sizes the list for
    /// `max_support` entries and the marks for every entry.
    ///
    /// # Panics
    ///
    /// If the gradient has more entries than a `u32` indexes.
    pub(crate) fn begin_sparse(&mut self, max_support: usize) -> (&mut [f32], &mut Support) {
        let Gradient { values, support } = self;
        assert!(
            u32::try_from(values.len()).is_ok(),
            "a sparse gradient is indexed by u32"
        );
        let support = support.get_or_insert_with(|| {
            Box::new(Support {
                indices: Vec::with_capacity(max_support),
                live: false,
                marks: vec![0; values.len().div_ceil(64)],
            })
        });
        if support.live {
            for &j in &support.indices {
                values[j as usize] = 0.0;
            }
        } else {
            values.fill(0.0);
        }
        support.indices.clear();
        support.live = true;
        (values, support)
    }
}

impl Support {
    /// Lists entry `j`, unless it is listed already.
    #[inline]
    pub(crate) fn touch(&mut self, j: usize) {
        let (word, bit) = (j / 64, 1u64 << (j % 64));
        if self.marks[word] & bit == 0 {
            self.marks[word] |= bit;
            self.indices.push(j as u32);
        }
    }

    /// Multiplies each listed entry of `values` by `factor`, once, and
    /// clears the marks for the next gradient.
    pub(crate) fn scale(&mut self, factor: f32, values: &mut [f32]) {
        for &j in &self.indices {
            values[j as usize] *= factor;
            // Every mark set is a listed entry's: the word goes to zero.
            self.marks[j as usize / 64] = 0;
        }
    }
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

    /// [`Self::loss_grad_with`] into a [`Gradient`]: the same loss and
    /// the same gradient bits, written where the model can write less than
    /// the whole buffer. A model whose gradient of this batch touches few
    /// entries writes only those and records them as the support; the
    /// default writes densely.
    ///
    /// # Panics
    ///
    /// As [`Self::loss_grad_with`].
    fn loss_grad_into(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut Gradient,
        scratch: &mut GradScratch,
    ) -> f32 {
        self.loss_grad_with(params, batch, grad.dense_mut(), scratch)
    }

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
