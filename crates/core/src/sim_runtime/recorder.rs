//! Shared loss/eval recording for the simulated runtimes.

use hop_data::{Dataset, InMemoryDataset};
use hop_metrics::TimeSeries;
use hop_model::Model;

/// Evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Evaluate every this many iterations of worker 0 (0 disables).
    pub every: u64,
    /// Number of dataset examples in the fixed evaluation batch.
    pub examples: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            every: 25,
            examples: 256,
        }
    }
}

/// Records per-worker training-loss curves and periodic evaluations of the
/// cross-worker parameter average.
///
/// Owned by [`super::engine::SimEngine`]; protocols reach it through the
/// engine to log minibatch losses and trigger evaluations.
pub struct Recorder {
    pub train_time: Vec<TimeSeries>,
    pub train_steps: Vec<TimeSeries>,
    pub eval_time: TimeSeries,
    pub eval_steps: TimeSeries,
    eval_cfg: EvalConfig,
    eval_indices: Vec<usize>,
    next_eval: u64,
    /// Reused averaged-parameter buffer for [`Self::evaluate`]; evaluation
    /// used to allocate a fresh vector per call, which was the last
    /// steady-state allocation on the eval path.
    avg_scratch: Vec<f32>,
}

impl Recorder {
    /// A recorder for `n_workers` workers whose loss series each have
    /// room for one point per iteration (`max_iters`), capped so that an
    /// absurd `max_iters` cannot pre-allocate gigabytes; past the cap a
    /// series grows normally.
    pub fn new(
        n_workers: usize,
        max_iters: u64,
        eval_cfg: EvalConfig,
        dataset: &InMemoryDataset,
    ) -> Self {
        let n_eval = eval_cfg.examples.min(dataset.len());
        let points = usize::try_from(max_iters)
            .unwrap_or(usize::MAX)
            .min((1 << 22) / n_workers.max(1));
        let series = || {
            (0..n_workers)
                .map(|_| TimeSeries::with_capacity(points))
                .collect()
        };
        Self {
            train_time: series(),
            train_steps: series(),
            eval_time: TimeSeries::new(),
            eval_steps: TimeSeries::new(),
            eval_cfg,
            eval_indices: (0..n_eval).collect(),
            next_eval: 0,
            avg_scratch: Vec::new(),
        }
    }

    /// Records worker `w`'s minibatch loss for iteration `iter` at `time`.
    pub fn train_loss(&mut self, w: usize, iter: u64, time: f64, loss: f32) {
        self.train_time[w].push(time, loss as f64);
        self.train_steps[w].push(iter as f64, loss as f64);
    }

    /// Whether an evaluation is due at worker-0 iteration `iter`.
    pub fn eval_due(&self, iter: u64) -> bool {
        self.eval_cfg.every > 0 && iter.is_multiple_of(self.eval_cfg.every)
    }

    /// Boundary-crossing variant for runtimes where a single worker's
    /// iteration counter can *skip over* eval multiples (§5): returns true
    /// the first time any worker's iteration reaches the next boundary.
    pub fn crossed_boundary(&mut self, iter: u64) -> bool {
        if self.eval_cfg.every == 0 {
            return false;
        }
        if iter >= self.next_eval {
            self.next_eval = iter - iter % self.eval_cfg.every + self.eval_cfg.every;
            true
        } else {
            false
        }
    }

    /// Evaluates the elementwise average of `all_params` on the fixed eval
    /// batch and records it at `(time, iter)`. The averaged-parameter
    /// buffer is reused across calls (bit-identical: `mean_into`
    /// zero-fills it before accumulating, so a recycled buffer is
    /// indistinguishable from a fresh one).
    pub fn evaluate(
        &mut self,
        model: &dyn Model,
        dataset: &InMemoryDataset,
        all_params: &[&[f32]],
        time: f64,
        iter: u64,
    ) {
        let mut avg = std::mem::take(&mut self.avg_scratch);
        avg.clear();
        avg.resize(all_params[0].len(), 0.0);
        hop_tensor::ops::mean_into(all_params, &mut avg);
        self.evaluate_params(model, dataset, &avg, time, iter);
        self.avg_scratch = avg;
    }

    /// Evaluates an already-averaged (or single) parameter vector on the
    /// fixed eval batch and records it at `(time, iter)` — the
    /// allocation-free entry point for callers that average into their own
    /// pooled scratch.
    pub fn evaluate_params(
        &mut self,
        model: &dyn Model,
        dataset: &InMemoryDataset,
        params: &[f32],
        time: f64,
        iter: u64,
    ) {
        let batch = dataset.batch(&self.eval_indices);
        let loss = model.loss(params, &batch) as f64;
        self.eval_time.push(time, loss);
        self.eval_steps.push(iter as f64, loss);
    }
}
