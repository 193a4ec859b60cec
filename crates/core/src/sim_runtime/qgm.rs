//! Simulated Quasi-Global Momentum gossip (Lin et al., *Quasi-Global
//! Momentum: Accelerating Decentralized Deep Learning on Heterogeneous
//! Data*).
//!
//! QGM keeps the communication pattern of standard synchronous gossip —
//! every iteration each worker exchanges parameters with its topology
//! neighbors and averages its in-neighborhood — but replaces local
//! momentum (which diverges across heterogeneous workers) with the
//! [`QgmState`] buffer tracking the *locally-estimated global parameter
//! difference*:
//!
//! 1. **Compute + half-step**: gradient on the worker's own replica,
//!    then `x_{t+1/2} = x_t - lr (g + mu m + wd x_t)`.
//! 2. **Gossip**: send the half-step snapshot to out-neighbors; wait for
//!    every external in-neighbor's half-step of the same iteration.
//! 3. **Reduce**: `x_{t+1} = mean` of the in-neighborhood half-steps
//!    (own included — the Eq. 1 uniform weights).
//! 4. **Momentum update** (*after* the Reduce, the paper's key move):
//!    `m_{t+1} = mu m_t + beta (x_t - x_{t+1}) / lr`.
//!
//! There is no global barrier: a worker waits only on its in-neighbors,
//! so a straggler's effect spreads one hop per iteration instead of
//! stalling every round the way ring all-reduce does. Neighbor half-steps
//! for future iterations are buffered per iteration (the gap is bounded
//! by the graph diameter, Theorem 1), and all parameter payloads travel
//! as zero-copy snapshots through the shared
//! [`super::engine::SimEngine`].

use crate::config::QgmConfig;
use crate::report::TrainingReport;
use crate::semantics;
use crate::trainer::SimRun;
use hop_graph::Topology;
use hop_model::QgmState;
use hop_tensor::ParamBlock;
use std::collections::HashMap;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerProtocol};

/// Runs QGM gossip training over the experiment's topology. Gossip waits
/// are engine-internal buffering, so only iteration entries are recorded.
///
/// # Panics
///
/// Panics on a cluster/topology size mismatch.
pub(crate) fn run(cfg: &QgmConfig, sim: &SimRun<'_>) -> TrainingReport {
    let topology = &sim.exp.topology;
    assert_eq!(
        sim.exp.cluster.len(),
        topology.len(),
        "cluster and topology sizes must match"
    );
    let engine = sim.engine();
    let dim = engine.init_params().len();
    let workers = (0..topology.len())
        .map(|_| WorkerSt {
            prev: engine.init_block(),
            inbox: HashMap::new(),
            waiting: false,
            qgm: QgmState::new(cfg.mu, cfg.beta, dim),
        })
        .collect();
    let mut plane = CompressionPlane::new(cfg.compression);
    plane.add_param_streams(topology.len(), engine.init_params());
    let mut proto = Qgm {
        topology,
        workers,
        plane,
    };
    engine.drive(&mut proto)
}

enum Ev {
    /// Worker `w` finished its iteration-`iter` gradient computation.
    ComputeDone { w: usize, iter: u64 },
    /// A neighbor's half-step parameters arrived (zero-copy snapshot).
    Update {
        to: usize,
        iter: u64,
        params: ParamBlock,
    },
}

/// Protocol-specific per-worker state; parameters, optimizer, sampler and
/// RNG live in the engine's `WorkerCommon`.
struct WorkerSt {
    /// `x_t` at iteration entry — the reference point of the post-Reduce
    /// momentum update (a snapshot, not a copy).
    prev: ParamBlock,
    /// Half-step snapshots from external in-neighbors, buffered by
    /// iteration (neighbors run at most `diameter` iterations ahead).
    inbox: HashMap<u64, Vec<ParamBlock>>,
    /// Blocked in the Recv of the current iteration.
    waiting: bool,
    qgm: QgmState,
}

/// The QGM gossip state machine.
struct Qgm<'a> {
    topology: &'a Topology,
    workers: Vec<WorkerSt>,
    /// One parameter stream per worker for the gossiped half-steps;
    /// inactive under the identity codec.
    plane: CompressionPlane,
}

impl Qgm<'_> {
    fn enter_iteration(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, iter: u64, now: f64) {
        eng.iters[w] = iter;
        eng.record_enter(w, iter, now);
        if eng.recorder.crossed_boundary(iter) {
            eng.evaluate_worker_average(now, iter);
        }
        if iter >= eng.max_iters {
            eng.finish_worker(w);
            return;
        }
        self.workers[w].prev = eng.workers[w].params.snapshot();
        self.workers[w].waiting = false;
        let dur = eng.compute_duration(w, iter);
        eng.events.push(now + dur, Ev::ComputeDone { w, iter });
    }

    fn on_compute_done(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, iter: u64, now: f64) {
        debug_assert_eq!(eng.iters[w], iter, "stale compute event");
        // Gradient on x_t, then the QGM local half-step.
        let mut grad = eng.pool.acquire_stale(eng.workers[w].params.len());
        eng.local_grad(w, now, &mut grad);
        let hyper = eng.hyper;
        self.workers[w].qgm.local_step(
            eng.workers[w].params.make_mut(),
            &grad,
            hyper.lr,
            hyper.weight_decay,
        );
        eng.pool.release(grad);
        // Gossip the half-step to out-neighbors as zero-copy snapshots;
        // with a lossy codec the neighbors receive the codec's
        // reconstruction at the encoded wire size, while this worker's
        // own Reduce keeps its exact half-step.
        let half = eng.workers[w].params.snapshot();
        let (wire, wire_bytes) = if self.plane.is_active() {
            self.plane
                .encode_params(w, half.as_slice(), None, &mut eng.pool)
        } else {
            (half.snapshot(), eng.param_bytes)
        };
        let externals = self.topology.external_out_neighbors(w);
        for &o in externals {
            // Fault gate: QGM's Reduce waits on every in-neighbor's
            // half-step, so a dropped gossip message stalls the receiver
            // at this iteration — the degradation the chaos benchmarks
            // measure, not something the protocol works around.
            if let Some(arrival) = eng.transfer_gated(w, o, wire_bytes, now, iter) {
                eng.events.push(
                    arrival,
                    Ev::Update {
                        to: o,
                        iter,
                        params: wire.snapshot(),
                    },
                );
            }
        }
        if self.plane.is_active() {
            self.plane
                .charge(externals.len() as u64, eng.param_bytes, wire_bytes);
        }
        eng.pool.reclaim(wire);
        eng.pool.reclaim(half);
        self.try_reduce(eng, w, now);
    }

    /// The Recv + Reduce + momentum update; blocks (`waiting`) until every
    /// external in-neighbor's half-step of the current iteration is here.
    fn try_reduce(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, now: f64) {
        let k = eng.iters[w];
        let need = self.topology.external_in_neighbors(w).len();
        let have = self.workers[w].inbox.get(&k).map_or(0, Vec::len);
        if have < need {
            self.workers[w].waiting = true;
            return;
        }
        let received = self.workers[w].inbox.remove(&k).unwrap_or_default();
        let own = eng.workers[w].params.snapshot();
        {
            let mut views: Vec<&[f32]> = Vec::with_capacity(received.len() + 1);
            views.push(own.as_slice());
            views.extend(received.iter().map(ParamBlock::as_slice));
            // Full overwrite: the old contents are not read, so snapshots
            // still in flight detach without copying.
            semantics::reduce_mean(
                &views,
                None,
                None,
                eng.workers[w].params.overwrite_mut(&mut eng.pool),
            );
        }
        eng.pool.reclaim(own);
        for p in received {
            eng.pool.reclaim(p);
        }
        // The paper's key step: momentum from the observed *global*
        // movement x_t -> x_{t+1}, not from the private gradient.
        let st = &mut self.workers[w];
        st.qgm.update_momentum(
            st.prev.as_slice(),
            eng.workers[w].params.as_slice(),
            eng.hyper.lr,
        );
        self.enter_iteration(eng, w, k + 1, now);
    }
}

impl WorkerProtocol for Qgm<'_> {
    type Event = Ev;

    fn start(&mut self, eng: &mut SimEngine<'_, Ev>) {
        for w in 0..self.workers.len() {
            self.enter_iteration(eng, w, 0, 0.0);
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Ev>, now: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { w, iter } => self.on_compute_done(eng, w, iter, now),
            Ev::Update { to, iter, params } => {
                self.workers[to].inbox.entry(iter).or_default().push(params);
                if self.workers[to].waiting && eng.iters[to] == iter {
                    self.try_reduce(eng, to, now);
                }
            }
        }
    }

    fn bytes_saved(&self, _eng: &SimEngine<'_, Ev>) -> u64 {
        self.plane.bytes_saved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::trainer::{Hyper, SimExperiment};
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};

    fn run_qgm(cfg: QgmConfig, slow: SlowdownModel, iters: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(256, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        SimExperiment {
            topology: Topology::ring(6),
            cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: slow,
            protocol: Protocol::Qgm(cfg),
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
        .expect("valid QGM experiment")
    }

    #[test]
    fn completes_and_learns() {
        let r = run_qgm(QgmConfig::default(), SlowdownModel::None, 50);
        assert!(!r.deadlocked);
        assert_eq!(r.final_params.len(), 6);
        let first = r.eval_time.points()[0].1;
        let last = r.eval_time.last().unwrap().1;
        assert!(last < first, "loss {first} -> {last}");
        for w in 0..6 {
            assert_eq!(r.trace.durations(w).len(), 50);
        }
    }

    #[test]
    fn gap_respects_gossip_bound() {
        // No tokens, standard gossip: Theorem 1 bounds the pairwise gap
        // by the path length.
        let r = run_qgm(QgmConfig::default(), SlowdownModel::paper_random(6), 40);
        let sp = hop_graph::ShortestPaths::new(&Topology::ring(6));
        let gaps = r.trace.max_pairwise_gap();
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let bound = hop_graph::bounds::standard(sp.dist(j, i));
                assert!(
                    bound.admits(gaps[i][j]),
                    "gap({i},{j}) = {} exceeds {bound}",
                    gaps[i][j]
                );
            }
        }
    }

    #[test]
    fn momentum_changes_the_trajectory() {
        // mu = 0 (and beta = 0) degenerates to plain decentralized SGD
        // half-steps; the default mu/beta must actually alter training.
        let plain = run_qgm(
            QgmConfig {
                mu: 0.0,
                beta: 0.0,
                ..QgmConfig::default()
            },
            SlowdownModel::None,
            30,
        );
        let qgm = run_qgm(QgmConfig::default(), SlowdownModel::None, 30);
        assert_ne!(plain.final_params, qgm.final_params);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_qgm(QgmConfig::default(), SlowdownModel::paper_random(6), 25);
        let b = run_qgm(QgmConfig::default(), SlowdownModel::paper_random(6), 25);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }

    #[test]
    fn no_global_barrier_under_straggler() {
        // The straggler's influence travels one hop per iteration; the
        // worker diametrically opposite it keeps sprinting ahead early in
        // the run instead of pacing at 6x from iteration 0.
        let slow = SlowdownModel::paper_straggler(6, 1, 6.0);
        let r = run_qgm(QgmConfig::default(), slow, 30);
        assert!(!r.deadlocked);
        let gaps = r.trace.max_pairwise_gap();
        // Worker 4 is 3 hops from worker 1 on the 6-ring: it can lead by
        // up to its distance, which a barrier would cap at ~1.
        assert!(
            gaps[4][1] >= 2,
            "opposite worker never outran the straggler: gap {}",
            gaps[4][1]
        );
    }
}
