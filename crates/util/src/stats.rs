//! Small statistics helpers.

/// Summary statistics over a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use hop_util::stats::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
    sum_sq: f64,
}

impl Summary {
    /// Builds a summary from a slice of samples.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn from_slice(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "summary sample contains NaN"
        );
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        let sum = values.iter().sum();
        let sum_sq = values.iter().map(|v| v * v).sum();
        Self {
            sorted,
            sum,
            sum_sq,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed summary).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.sorted.len() as f64
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        let n = self.sorted.len() as f64;
        let mean = self.mean();
        (self.sum_sq / n - mean * mean).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Linear-interpolated percentile, `q` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 100]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_slice(&[3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.median() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_variance() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let s = Summary::from_slice(&[0.0, 10.0]);
        assert!((s.percentile(25.0) - 2.5).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(100.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn summary_nan_panics() {
        Summary::from_slice(&[1.0, f64::NAN]);
    }
}
