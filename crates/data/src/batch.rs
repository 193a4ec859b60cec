//! Deterministic minibatch sampling.
//!
//! Each worker owns a [`BatchSampler`] seeded from the experiment seed and
//! its worker id, so decentralized runs are reproducible and workers draw
//! independent sample streams, matching the paper's i.i.d. sampling
//! assumption (`ξ_{k,i}` in Fig. 1).

use crate::dataset::{Batch, Dataset};
use hop_util::Xoshiro256;

/// Samples uniform random minibatches (with replacement across batches,
/// without replacement within a batch).
///
/// # Examples
///
/// ```
/// use hop_data::{BatchSampler, Dataset};
/// use hop_data::webspam::SyntheticWebspam;
///
/// let data = SyntheticWebspam::generate(100, 0);
/// let mut sampler = BatchSampler::new(data.len(), 8, 42);
/// let batch = sampler.next_batch(&data);
/// assert_eq!(batch.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSampler {
    n: usize,
    batch_size: usize,
    rng: Xoshiro256,
}

impl BatchSampler {
    /// Creates a sampler over `n` examples with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, seed: u64) -> Self {
        assert!(n > 0, "dataset must be non-empty");
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            n,
            batch_size: batch_size.min(n),
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// Creates the sampler for worker `worker` of an experiment seeded with
    /// `experiment_seed`; distinct workers get decorrelated streams.
    pub fn for_worker(n: usize, batch_size: usize, experiment_seed: u64, worker: usize) -> Self {
        let seed = experiment_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(worker as u64 + 1);
        Self::new(n, batch_size, seed)
    }

    /// The configured (possibly clamped) batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Draws the next batch's indices.
    pub fn next_indices(&mut self) -> Vec<usize> {
        self.rng.sample_indices(self.n, self.batch_size)
    }

    /// Draws the next batch from `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if `dataset.len()` differs from the sampler's `n`.
    pub fn next_batch<'a, D: Dataset + ?Sized>(&mut self, dataset: &'a D) -> Batch<'a> {
        self.next_batch_with(&mut Vec::new(), dataset)
    }

    /// [`BatchSampler::next_batch`], drawing the indices into `indices`
    /// (whose contents it replaces) instead of a fresh vector: the same
    /// batch, without the index allocation once the buffer has grown.
    ///
    /// # Panics
    ///
    /// Panics if `dataset.len()` differs from the sampler's `n`.
    pub fn next_batch_with<'a, D: Dataset + ?Sized>(
        &mut self,
        indices: &mut Vec<usize>,
        dataset: &'a D,
    ) -> Batch<'a> {
        assert_eq!(dataset.len(), self.n, "sampler/dataset size mismatch");
        self.rng
            .sample_indices_into(self.n, self.batch_size, indices);
        dataset.batch(indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webspam::SyntheticWebspam;

    #[test]
    fn batch_size_clamped_to_dataset() {
        let s = BatchSampler::new(3, 10, 0);
        assert_eq!(s.batch_size(), 3);
    }

    #[test]
    fn batches_are_deterministic() {
        let mut a = BatchSampler::new(100, 5, 9);
        let mut b = BatchSampler::new(100, 5, 9);
        for _ in 0..10 {
            assert_eq!(a.next_indices(), b.next_indices());
        }
    }

    #[test]
    fn distinct_workers_get_distinct_streams() {
        let mut a = BatchSampler::for_worker(100, 5, 7, 0);
        let mut b = BatchSampler::for_worker(100, 5, 7, 1);
        assert_ne!(a.next_indices(), b.next_indices());
    }

    #[test]
    fn indices_within_range_and_distinct() {
        let mut s = BatchSampler::new(50, 10, 3);
        for _ in 0..20 {
            let idx = s.next_indices();
            assert_eq!(idx.len(), 10);
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10);
            assert!(sorted.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn next_batch_with_draws_the_same_batches() {
        let d = SyntheticWebspam::generate(40, 1);
        let (mut a, mut b) = (BatchSampler::new(40, 6, 4), BatchSampler::new(40, 6, 4));
        let mut indices = Vec::new();
        for _ in 0..5 {
            let (x, y) = (a.next_batch(&d), b.next_batch_with(&mut indices, &d));
            assert!(x
                .examples
                .iter()
                .zip(&y.examples)
                .all(|(p, q)| std::ptr::eq(*p, *q)));
        }
    }

    #[test]
    fn next_batch_borrows_examples() {
        let d = SyntheticWebspam::generate(20, 1);
        let mut s = BatchSampler::new(20, 4, 2);
        let batch = s.next_batch(&d);
        assert_eq!(batch.len(), 4);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn next_batch_validates_dataset() {
        let d = SyntheticWebspam::generate(20, 1);
        let mut s = BatchSampler::new(30, 4, 2);
        let _ = s.next_batch(&d);
    }
}
