//! Per-iteration timing traces and iteration-gap accounting.
//!
//! Every simulated run records when each worker entered each iteration;
//! from that we derive iteration durations (Figs. 16, 18) and the maximum
//! observed iteration gap per worker pair, which the tests compare against
//! the theoretical bounds of Table 1.

use crate::events::SimTime;
use hop_util::Summary;

/// One completed iteration of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Worker index.
    pub worker: usize,
    /// Iteration index the worker *entered*.
    pub iter: u64,
    /// Virtual time at which the worker entered the iteration.
    pub time: SimTime,
}

/// An append-only log of iteration entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<IterationRecord>,
    n_workers: usize,
}

impl Trace {
    /// Creates an empty trace for `n_workers` workers.
    pub fn new(n_workers: usize) -> Self {
        Self {
            records: Vec::new(),
            n_workers,
        }
    }

    /// Creates an empty trace pre-sized for `records` iteration entries.
    ///
    /// A complete run appends one record per worker per iteration (plus
    /// the entry into iteration 0), so callers that know both counts can
    /// reserve the log up front and keep the hot recording path free of
    /// reallocation at 10k-worker scale.
    pub fn with_capacity(n_workers: usize, records: usize) -> Self {
        Self {
            records: Vec::with_capacity(records),
            n_workers,
        }
    }

    /// Records that `worker` entered `iter` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or `time` is not monotone over
    /// the whole log (the simulator appends in virtual-time order).
    pub fn record(&mut self, worker: usize, iter: u64, time: SimTime) {
        assert!(worker < self.n_workers, "worker out of range");
        if let Some(last) = self.records.last() {
            assert!(
                time >= last.time,
                "trace times must be non-decreasing: {time} < {}",
                last.time
            );
        }
        self.records.push(IterationRecord { worker, iter, time });
    }

    /// All records in time order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iteration durations of one worker (time between consecutive
    /// iteration entries).
    pub fn durations(&self, worker: usize) -> Vec<f64> {
        let mut times: Vec<SimTime> = self
            .records
            .iter()
            .filter(|r| r.worker == worker)
            .map(|r| r.time)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Summary of iteration durations across all workers.
    ///
    /// Returns `None` when fewer than 2 records per worker exist.
    pub fn duration_summary(&self) -> Option<Summary> {
        let mut all = Vec::new();
        for w in 0..self.n_workers {
            all.extend(self.durations(w));
        }
        if all.is_empty() {
            None
        } else {
            Some(Summary::from_slice(&all))
        }
    }

    /// Mean iteration duration across workers, or 0.0 if unknown.
    pub fn mean_iteration_duration(&self) -> f64 {
        self.duration_summary().map_or(0.0, |s| s.mean())
    }

    /// Sweeps the log in time order and returns the maximum observed value
    /// of `Iter(i) - Iter(j)` for every ordered pair `(i, j)`, as a
    /// row-major `n x n` matrix. Used to validate Table 1.
    pub fn max_pairwise_gap(&self) -> Vec<Vec<i64>> {
        let n = self.n_workers;
        let mut current = vec![0i64; n];
        let mut max_gap = vec![vec![i64::MIN; n]; n];
        // Before any record every worker is at iteration 0.
        for i in 0..n {
            for j in 0..n {
                max_gap[i][j] = 0;
            }
        }
        for r in &self.records {
            current[r.worker] = r.iter as i64;
            for other in 0..n {
                if other == r.worker {
                    continue;
                }
                let gap = current[r.worker] - current[other];
                if gap > max_gap[r.worker][other] {
                    max_gap[r.worker][other] = gap;
                }
                let rev = current[other] - current[r.worker];
                if rev > max_gap[other][r.worker] {
                    max_gap[other][r.worker] = rev;
                }
            }
        }
        max_gap
    }

    /// The largest entry of [`Trace::max_pairwise_gap`].
    pub fn max_gap(&self) -> i64 {
        self.max_pairwise_gap()
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_per_worker() {
        let mut t = Trace::new(2);
        t.record(0, 1, 1.0);
        t.record(1, 1, 1.5);
        t.record(0, 2, 3.0);
        assert_eq!(t.durations(0), vec![2.0]);
        assert!(t.durations(1).is_empty());
    }

    #[test]
    fn gap_tracking_simple() {
        let mut t = Trace::new(2);
        // Worker 0 sprints to iteration 3 while worker 1 sits at 0.
        t.record(0, 1, 1.0);
        t.record(0, 2, 2.0);
        t.record(0, 3, 3.0);
        t.record(1, 1, 4.0);
        let gaps = t.max_pairwise_gap();
        assert_eq!(gaps[0][1], 3);
        assert_eq!(gaps[1][0], 0);
        assert_eq!(t.max_gap(), 3);
    }

    #[test]
    fn duration_summary_averages() {
        let mut t = Trace::new(1);
        t.record(0, 1, 1.0);
        t.record(0, 2, 2.0);
        t.record(0, 3, 4.0);
        let s = t.duration_summary().expect("has durations");
        assert!((s.mean() - 1.5).abs() < 1e-12);
        assert_eq!(t.mean_iteration_duration(), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_regression() {
        let mut t = Trace::new(1);
        t.record(0, 1, 2.0);
        t.record(0, 2, 1.0);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new(3);
        assert!(t.is_empty());
        assert_eq!(t.max_gap(), 0);
        assert_eq!(t.mean_iteration_duration(), 0.0);
        assert!(t.duration_summary().is_none());
    }
}
