//! Deterministic pseudo-random number generation.
//!
//! Implements xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
//! plus the sampling helpers the rest of the workspace needs: uniform
//! ranges, Bernoulli trials, Gaussian variates (Box–Muller), shuffles and
//! weighted choice. The generator is intentionally independent of the
//! `rand` crate so results are stable across toolchain upgrades.

use std::cell::RefCell;

/// SplitMix64 step used to expand a 64-bit seed into generator state.
///
/// This is the seeding procedure recommended by the xoshiro authors: it
/// guarantees that even adjacent seeds produce well-distributed state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use hop_util::rng::Xoshiro256;
/// let mut a = Xoshiro256::seed_from_u64(7);
/// let mut b = Xoshiro256::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Xoshiro256 {
    s: [u64; 4],
    /// Cached second Gaussian variate from Box–Muller.
    gauss_spare: Option<f64>,
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated worker its own stream while keeping global determinism.
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal variate via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Uniformly chooses one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.index(items.len())]
    }

    /// Samples `k` distinct indices from `[0, n)`: the first `k` entries
    /// of a Fisher–Yates shuffle of `0..n`, in O(`k`) per call.
    ///
    /// The index vector is not built per call. Each thread keeps one
    /// identity table (`table[p] == p`, grown to the largest `n` it has
    /// seen — 8 bytes per index, until the thread ends); a call swaps in
    /// it as the shuffle would, reads the sample off its front, and puts
    /// back the at most `2k` positions it displaced.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        self.sample_indices_into(n, k, &mut out);
        out
    }

    /// [`Xoshiro256::sample_indices`] into `out`, whose contents it
    /// replaces: the same draws, and no allocation once `out` has held
    /// `k` indices.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        // Every draw (and any allocation) before the table is touched:
        // nothing below can unwind and leave it displaced.
        out.clear();
        out.extend((0..k).map(|i| i + self.index(n - i)));
        IDENTITY.with_borrow_mut(|table| {
            let have = table.len();
            table.extend(have..n);
            for (i, &j) in out.iter().enumerate() {
                table.swap(i, j);
            }
            // Back to front: no later step touched position `i`, so it
            // still holds the sample's `i`-th entry.
            for (i, o) in out.iter_mut().enumerate().rev() {
                let j = std::mem::replace(o, table[i]);
                (table[i], table[j]) = (i, j);
            }
        });
    }
}

thread_local! {
    /// [`Xoshiro256::sample_indices`]'s identity table.
    static IDENTITY: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256::seed_from_u64(123);
        let mut b = Xoshiro256::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_uniform_enough() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn next_below_one_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(rng.next_below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// [`Xoshiro256::sample_indices`] as first written: a partial
    /// Fisher–Yates over the whole index vector.
    fn sample_indices_dense(rng: &mut Xoshiro256, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    #[test]
    fn sample_indices_matches_the_dense_shuffle_draw_for_draw() {
        // Up and back down: the thread's identity table outlives a call,
        // so every call must leave it as it found it.
        for n in [1, 2, 33, 512, 1024, 512, 33, 2, 1] {
            for k in [1, n / 2, n] {
                for seed in 0..50 {
                    let mut sparse = Xoshiro256::seed_from_u64(seed);
                    let mut dense = sparse.clone();
                    // Back to back: a second sample starts from the state
                    // the first left. Odd rounds draw `_into` the buffer
                    // the round before filled, a stale sample.
                    let mut buffer = Vec::new();
                    for round in 0..4 {
                        let expected = sample_indices_dense(&mut dense, n, k);
                        if round % 2 == 0 {
                            buffer = sparse.sample_indices(n, k);
                        } else {
                            sparse.sample_indices_into(n, k, &mut buffer);
                        }
                        assert_eq!(buffer, expected, "n {n} k {k} seed {seed} round {round}");
                    }
                    assert_eq!(sparse.next_u64(), dense.next_u64(), "same draws");
                }
            }
        }
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Xoshiro256::seed_from_u64(42);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }
}
