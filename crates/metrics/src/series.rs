//! Time series for loss-vs-time and loss-vs-steps curves.

/// A monotone-time series of `(time, value)` points.
///
/// # Examples
///
/// ```
/// use hop_metrics::TimeSeries;
/// let mut s = TimeSeries::new();
/// s.push(0.0, 1.0);
/// s.push(1.0, 0.5);
/// s.push(2.0, 0.2);
/// assert_eq!(s.time_to_reach(0.5), Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with room for `points` points.
    pub fn with_capacity(points: usize) -> Self {
        Self {
            points: Vec::with_capacity(points),
        }
    }

    /// Builds a series from `(time, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if times are not non-decreasing.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0, "times must be non-decreasing");
        }
        Self { points }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded time.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "time went backwards: {time} < {last}");
        }
        self.points.push((time, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Last point, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// First time at which the value drops to `threshold` or below
    /// (loss curves decrease; this is "time to reach loss X").
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, v)| v <= threshold)
            .map(|&(t, _)| t)
    }

    /// Value at the given time by step interpolation (last point at or
    /// before `time`); `None` before the first point.
    ///
    /// Binary search over the monotone time axis, so merging many series
    /// (as `TrainingReport::mean_train_loss_time` does over the union of
    /// sample times) costs O(log n) per lookup instead of a linear scan.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(t, _)| t <= time);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn falling() -> TimeSeries {
        TimeSeries::from_points(vec![(0.0, 2.0), (1.0, 1.0), (3.0, 0.4), (4.0, 0.1)])
    }

    #[test]
    fn time_to_reach_interpolates_by_points() {
        let s = falling();
        assert_eq!(s.time_to_reach(1.0), Some(1.0));
        assert_eq!(s.time_to_reach(0.5), Some(3.0));
        assert_eq!(s.time_to_reach(0.01), None);
    }

    #[test]
    fn value_at_steps() {
        let s = falling();
        assert_eq!(s.value_at(0.5), Some(2.0));
        assert_eq!(s.value_at(3.5), Some(0.4));
        assert_eq!(s.value_at(-1.0), None);
    }

    /// The linear-scan definition `value_at` replaced; kept as the oracle
    /// for the binary-search implementation.
    fn value_at_scan(s: &TimeSeries, time: f64) -> Option<f64> {
        s.points()
            .iter()
            .take_while(|&&(t, _)| t <= time)
            .last()
            .map(|&(_, v)| v)
    }

    #[test]
    fn value_at_matches_linear_scan() {
        // Step-function fixtures with duplicate timestamps, negative
        // times, and a singleton — probed at boundaries, between samples,
        // and outside the span.
        let fixtures = [
            TimeSeries::new(),
            TimeSeries::from_points(vec![(0.0, 1.0)]),
            falling(),
            TimeSeries::from_points(vec![(-2.0, 5.0), (0.0, 3.0), (0.0, 2.0), (4.0, 1.0)]),
            TimeSeries::from_points(vec![(1.0, 9.0), (1.0, 8.0), (1.0, 7.0)]),
        ];
        for s in &fixtures {
            let mut probes: Vec<f64> = s.points().iter().map(|&(t, _)| t).collect();
            probes.extend(
                s.points()
                    .iter()
                    .flat_map(|&(t, _)| [t - 0.5, t + 0.5, t - f64::EPSILON]),
            );
            probes.extend([-10.0, 0.0, 0.25, 10.0]);
            for t in probes {
                assert_eq!(
                    s.value_at(t),
                    value_at_scan(s, t),
                    "divergence at t = {t} on {:?}",
                    s.points()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn push_validates_monotonic_time() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }
}
