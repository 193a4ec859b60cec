//! Simulated ring all-reduce baseline (§2.1).
//!
//! Ring all-reduce is bulk-synchronous: every iteration all workers
//! exchange gradient chunks around the ring (2(n-1) steps of `bytes/n`
//! each) and end up with the global average. The round time is the
//! slowest worker's compute time plus the pipeline time dominated by the
//! slowest link — which is why stragglers and slow links hurt it (§2.3).
//!
//! Runs through the shared [`super::engine::SimEngine`] as one event per
//! round; the pipeline time is modeled analytically (per-step max over
//! ring hops), so bytes are accounted here rather than via the virtual
//! network. For the same reason the fault plane does not apply: there is
//! no per-message delivery to gate, and the only recorded protocol events
//! are iteration entries — chaos experiments use the per-message
//! protocols.

use crate::report::TrainingReport;
use crate::trainer::SimRun;
use hop_model::Sgd;
use hop_tensor::ParamBlock;

use super::engine::{SimEngine, WorkerProtocol};

/// Runs ring all-reduce training; the ring follows worker index order.
pub(crate) fn run(sim: &SimRun<'_>) -> TrainingReport {
    assert!(
        sim.exp.cluster.len() >= 2,
        "ring all-reduce needs at least 2 workers"
    );
    let engine = sim.engine();
    let mut proto = RingAllReduce::new(&engine);
    engine.drive(&mut proto)
}

struct Round {
    k: u64,
}

/// Bulk-synchronous ring all-reduce with an analytic pipeline model.
struct RingAllReduce {
    /// The single logical replica (all workers hold identical parameters
    /// after each all-reduce); never snapshotted, so updates stay
    /// in-place.
    params: ParamBlock,
    opt: Sgd,
    grad: Vec<f32>,
    mean_grad: Vec<f32>,
    /// Duration of one full all-reduce (2(n-1) pipeline steps).
    allreduce_time: f64,
    /// Wire bytes per chunk (`param_bytes / n`).
    chunk: f64,
    bytes_sent: u64,
}

impl RingAllReduce {
    fn new(eng: &SimEngine<'_, Round>) -> Self {
        let n = eng.workers.len();
        let dim = eng.init_params().len();
        // The shared analytic pipeline model: every worker forwards a
        // chunk to its ring successor simultaneously, each step gated by
        // the slowest hop (also used for Prague's intra-group reduces).
        let members: Vec<usize> = (0..n).collect();
        let allreduce_time = eng
            .net
            .spec()
            .ring_allreduce_time(&members, eng.param_bytes as f64);
        Self {
            params: eng.init_block(),
            opt: eng.new_opt(),
            grad: vec![0.0; dim],
            mean_grad: vec![0.0; dim],
            allreduce_time,
            chunk: eng.param_bytes as f64 / n as f64,
            bytes_sent: 0,
        }
    }
}

impl WorkerProtocol for RingAllReduce {
    type Event = Round;

    fn start(&mut self, eng: &mut SimEngine<'_, Round>) {
        eng.events.push(0.0, Round { k: 0 });
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Round>, now: f64, ev: Round) {
        let k = ev.k;
        let n = eng.workers.len();
        if k >= eng.max_iters {
            for w in 0..n {
                eng.finish_worker_at(w, k, now);
            }
            return;
        }
        for w in 0..n {
            eng.iters[w] = k;
            eng.record_enter(w, k, now);
        }
        let mut compute_max = 0.0f64;
        self.mean_grad.fill(0.0);
        for w in 0..n {
            let dur = eng.compute_duration(w, k);
            let loss = eng.sample_grad(w, &self.params, &mut self.grad);
            eng.recorder.train_loss(w, k, now + dur, loss);
            hop_tensor::ops::axpy(1.0 / n as f32, &self.grad, &mut self.mean_grad);
            compute_max = compute_max.max(dur);
        }
        self.opt.step_block(&mut self.params, &self.mean_grad);
        self.bytes_sent += (2 * (n - 1) * n) as u64 * (self.chunk as u64);
        let t = now + compute_max + self.allreduce_time;
        if eng.recorder.eval_due(k + 1) {
            let view: Vec<&[f32]> = vec![self.params.as_slice()];
            eng.recorder
                .evaluate(eng.model, eng.dataset, &view, t, k + 1);
        }
        eng.events.push(t, Round { k: k + 1 });
    }

    fn final_params(&mut self, eng: &SimEngine<'_, Round>) -> Vec<Vec<f32>> {
        // Report convention: one vector per worker. All workers hold the
        // global replica after the final all-reduce, so replicate it.
        vec![self.params.to_vec(); eng.workers.len()]
    }

    fn bytes_sent(&self, _eng: &SimEngine<'_, Round>) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::trainer::{Hyper, SimExperiment};
    use hop_data::webspam::SyntheticWebspam;
    use hop_graph::Topology;
    use hop_model::svm::Svm;
    use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};

    fn run_ring(slow: SlowdownModel, iters: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(256, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        SimExperiment {
            topology: Topology::ring(4),
            cluster: ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: slow,
            protocol: Protocol::RingAllReduce,
            hyper: Hyper {
                lr: 0.5,
                momentum: 0.9,
                weight_decay: 1e-7,
                batch_size: 16,
            },
            max_iters: iters,
            seed: 3,
            eval_every: 10,
            eval_examples: 64,
        }
        .run(&model, &dataset)
        .expect("valid ring experiment")
    }

    #[test]
    fn learns_and_is_synchronous() {
        let r = run_ring(SlowdownModel::None, 50);
        assert!(!r.deadlocked);
        let first = r.eval_time.points()[0].1;
        let last = r.eval_time.last().unwrap().1;
        assert!(last < first);
        // Lockstep rounds: the only gap the trace sweep sees is the
        // transient 1 while same-timestamp records are applied in order.
        assert!(r.trace.max_gap() <= 1);
    }

    #[test]
    fn straggler_stalls_the_ring() {
        let fast = run_ring(SlowdownModel::None, 30);
        let slow = run_ring(SlowdownModel::paper_straggler(4, 1, 6.0), 30);
        assert!(slow.wall_time > fast.wall_time * 3.0);
    }
}
