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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_to_reach_interpolates_by_points() {
        let mut s = TimeSeries::new();
        for (t, v) in [(0.0, 2.0), (1.0, 1.0), (3.0, 0.4), (4.0, 0.1)] {
            s.push(t, v);
        }
        assert_eq!(s.time_to_reach(1.0), Some(1.0));
        assert_eq!(s.time_to_reach(0.5), Some(3.0));
        assert_eq!(s.time_to_reach(0.01), None);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn push_validates_monotonic_time() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }
}
