//! Simulated AD-PSGD baseline (§5).
//!
//! AD-PSGD removes the iteration-gap bound entirely: each worker, after
//! computing a gradient, *atomically averages* its parameters with one
//! randomly chosen neighbor and moves on. The atomic pairwise averaging is
//! exactly what can deadlock: if worker A waits to average with busy B,
//! B waits for C and C waits for A, nobody progresses. The published fix
//! restricts the communication graph to be *bipartite* and lets only one
//! side initiate averaging — which §5 criticizes as constraining topology
//! choice. This module implements both behaviors so the deadlock is
//! demonstrable and the bipartite schedule testable.
//!
//! Runs through the shared [`super::engine::SimEngine`]; wait-cycle
//! detection aborts the pump, which surfaces as
//! [`TrainingReport::deadlocked`].

use crate::config::AdPsgdConfig;
use crate::report::TrainingReport;
use crate::trainer::SimRun;
use hop_graph::Topology;
use hop_tensor::ParamBlock;
use std::collections::VecDeque;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerCommon, WorkerProtocol};

enum Ev {
    ComputeDone {
        w: usize,
    },
    AvgDone {
        active: usize,
        passive: usize,
        /// With a lossy codec: the reconstructions each side shipped
        /// (`active`'s then `passive`'s), encoded at send time.
        recons: Option<(ParamBlock, ParamBlock)>,
    },
}

/// Protocol-specific per-worker state; parameters, optimizer, sampler and
/// RNG live in the engine's [`WorkerCommon`].
struct WorkerSt {
    /// Engaged in an averaging exchange (as either side).
    busy: bool,
    /// The neighbor this worker is queued on, if any.
    waiting_on: Option<usize>,
    /// Requesters waiting to average with this worker.
    wait_queue: VecDeque<usize>,
    /// Gradient computed this iteration (buffer from the engine pool),
    /// applied after averaging.
    pending_grad: Option<Vec<f32>>,
    /// Whether this worker initiates averaging (bipartite: one side only).
    initiates: bool,
}

/// Runs AD-PSGD. With `cfg.require_bipartite` the graph must 2-color and
/// only one color class initiates averaging (deadlock-free); otherwise all
/// workers initiate and the run may deadlock — reported via
/// [`TrainingReport::deadlocked`]. Pairwise averaging has no tagged
/// send/consume plane, so only iteration entries are recorded.
pub(crate) fn run(cfg: &AdPsgdConfig, sim: &SimRun<'_>) -> TrainingReport {
    let topology = &sim.exp.topology;
    let n = topology.len();
    assert_eq!(sim.exp.cluster.len(), n, "cluster/topology size mismatch");
    let bipartite_sides = two_color(topology);
    let engine = sim.engine();
    let workers = (0..n)
        .map(|w| WorkerSt {
            busy: false,
            waiting_on: None,
            wait_queue: VecDeque::new(),
            pending_grad: None,
            initiates: match (&bipartite_sides, cfg.require_bipartite) {
                (Some(colors), true) => colors[w] == 0,
                _ => true,
            },
        })
        .collect();
    let mut plane = CompressionPlane::new(cfg.compression);
    plane.add_param_streams(n, engine.init_params());
    let mut proto = AdPsgd {
        topology,
        workers,
        plane,
    };
    engine.drive(&mut proto)
}

/// The AD-PSGD atomic pairwise-averaging state machine.
struct AdPsgd<'a> {
    topology: &'a Topology,
    workers: Vec<WorkerSt>,
    /// One parameter stream per worker for the pairwise exchanges;
    /// inactive under the identity codec.
    plane: CompressionPlane,
}

impl AdPsgd<'_> {
    fn start_averaging(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        active: usize,
        passive: usize,
        now: f64,
    ) {
        self.workers[active].busy = true;
        self.workers[passive].busy = true;
        self.workers[active].waiting_on = None;
        // One round trip of parameters. With a lossy codec each side
        // encodes at send time and ships its reconstruction; the network
        // is charged the encoded sizes.
        let (recons, wire_a, wire_b) = if self.plane.is_active() {
            let snap_a = eng.workers[active].params.snapshot();
            let (recon_a, wa) =
                self.plane
                    .encode_params(active, snap_a.as_slice(), None, &mut eng.pool);
            eng.pool.reclaim(snap_a);
            let snap_b = eng.workers[passive].params.snapshot();
            let (recon_b, wb) =
                self.plane
                    .encode_params(passive, snap_b.as_slice(), None, &mut eng.pool);
            eng.pool.reclaim(snap_b);
            self.plane.charge(1, eng.param_bytes, wa);
            self.plane.charge(1, eng.param_bytes, wb);
            (Some((recon_a, recon_b)), wa, wb)
        } else {
            (None, eng.param_bytes, eng.param_bytes)
        };
        // Both legs of the round trip run behind the fault plane: losing
        // either aborts the exchange — atomic averaging is all-or-nothing
        // — and the active side falls back to a purely local step.
        let round_trip = eng
            .transfer_gated(active, passive, wire_a, now, eng.iters[active])
            .and_then(|there| {
                eng.transfer_gated(passive, active, wire_b, there, eng.iters[passive])
            });
        match round_trip {
            Some(back) => eng.events.push(
                back,
                Ev::AvgDone {
                    active,
                    passive,
                    recons,
                },
            ),
            None => {
                if let Some((recon_a, recon_b)) = recons {
                    eng.pool.reclaim(recon_a);
                    eng.pool.reclaim(recon_b);
                }
                self.workers[active].busy = false;
                self.workers[passive].busy = false;
                self.finish_iteration(eng, active, now);
                self.serve_waiters(eng, passive, active, now);
            }
        }
    }

    /// Hands each freed side to its next queued requester, if any.
    fn serve_waiters(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        passive: usize,
        active: usize,
        now: f64,
    ) {
        for side in [passive, active] {
            if self.workers[side].busy {
                continue;
            }
            if let Some(req) = self.workers[side].wait_queue.pop_front() {
                self.workers[req].waiting_on = None;
                self.start_averaging(eng, req, side, now);
            }
        }
    }

    fn finish_iteration(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, now: f64) {
        let grad = self.workers[w]
            .pending_grad
            .take()
            .expect("gradient pending");
        let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
        // Copy-on-write: detaches from a partner still sharing the
        // averaged block.
        opt.step_block(params, &grad);
        eng.pool.release(grad);
        eng.iters[w] += 1;
        let k = eng.iters[w];
        eng.record_enter(w, k, now);
        if k >= eng.max_iters {
            eng.finish_worker(w);
            return;
        }
        let dur = eng.compute_duration(w, k);
        eng.events.push(now + dur, Ev::ComputeDone { w });
    }

    fn has_wait_cycle(&self, start: usize) -> bool {
        let mut cur = start;
        let mut hops = 0;
        while let Some(next) = self.workers[cur].waiting_on {
            if next == start {
                return true;
            }
            cur = next;
            hops += 1;
            if hops > self.workers.len() {
                return true;
            }
        }
        false
    }
}

impl WorkerProtocol for AdPsgd<'_> {
    type Event = Ev;

    fn start(&mut self, eng: &mut SimEngine<'_, Ev>) {
        for w in 0..eng.workers.len() {
            eng.record_enter(w, 0, 0.0);
            let dur = eng.compute_duration(w, 0);
            eng.events.push(dur, Ev::ComputeDone { w });
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Ev>, now: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { w } => {
                let mut grad = eng.pool.acquire_stale(eng.workers[w].params.len());
                eng.local_grad(w, now, &mut grad);
                self.workers[w].pending_grad = Some(grad);
                if self.workers[w].initiates {
                    let neighbors = self.topology.external_out_neighbors(w);
                    let partner = *eng.workers[w].rng.choose(neighbors);
                    self.workers[w].busy = true;
                    if self.workers[partner].busy {
                        self.workers[partner].wait_queue.push_back(w);
                        self.workers[w].waiting_on = Some(partner);
                        if self.has_wait_cycle(w) {
                            eng.abort();
                        }
                    } else {
                        self.start_averaging(eng, w, partner, now);
                    }
                } else {
                    // Passive side: apply the gradient locally and continue;
                    // actives will average with it asynchronously.
                    self.finish_iteration(eng, w, now);
                }
            }
            Ev::AvgDone {
                active,
                passive,
                recons,
            } => {
                if let Some((recon_a, recon_b)) = recons {
                    // Compressed exchange: each side averages its own
                    // exact replica with the partner's reconstruction, so
                    // the two sides no longer share one block.
                    for (w, partner_recon) in [(active, &recon_b), (passive, &recon_a)] {
                        let mut mean = eng.pool.acquire_stale(eng.workers[w].params.len());
                        {
                            let own = eng.workers[w].params.as_slice();
                            let other = partner_recon.as_slice();
                            for ((m, &a), &b) in mean.iter_mut().zip(own).zip(other) {
                                *m = 0.5 * (a + b);
                            }
                        }
                        let old = std::mem::replace(
                            &mut eng.workers[w].params,
                            ParamBlock::from_vec(mean),
                        );
                        eng.pool.reclaim(old);
                    }
                    eng.pool.reclaim(recon_a);
                    eng.pool.reclaim(recon_b);
                } else {
                    // Atomic pairwise average: both sides take the mean.
                    // The mean is computed once into a pooled buffer and
                    // then *shared* by both replicas — they stay one
                    // allocation until either side's next write detaches
                    // it.
                    let mut mean = eng.pool.acquire_stale(eng.workers[active].params.len());
                    {
                        let pa = eng.workers[active].params.as_slice();
                        let pb = eng.workers[passive].params.as_slice();
                        for ((m, &a), &b) in mean.iter_mut().zip(pa).zip(pb) {
                            *m = 0.5 * (a + b);
                        }
                    }
                    let block = ParamBlock::from_vec(mean);
                    let old_a =
                        std::mem::replace(&mut eng.workers[active].params, block.snapshot());
                    let old_p = std::mem::replace(&mut eng.workers[passive].params, block);
                    eng.pool.reclaim(old_a);
                    eng.pool.reclaim(old_p);
                }
                self.workers[active].busy = false;
                self.workers[passive].busy = false;
                self.finish_iteration(eng, active, now);
                self.serve_waiters(eng, passive, active, now);
            }
        }
    }

    fn on_finish(&mut self, eng: &mut SimEngine<'_, Ev>) {
        // Always record one final evaluation of the parameter averages so
        // even eval-disabled runs report a terminal loss.
        let now = eng.events.now();
        let min_iter = eng.iters.iter().copied().min().unwrap_or(0);
        eng.evaluate_worker_average(now, min_iter);
    }

    fn bytes_saved(&self, _eng: &SimEngine<'_, Ev>) -> u64 {
        self.plane.bytes_saved()
    }
}

fn two_color(topology: &Topology) -> Option<Vec<u8>> {
    if !topology.is_bipartite() {
        return None;
    }
    let n = topology.len();
    let mut color = vec![u8::MAX; n];
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in topology.external_out_neighbors(u) {
                if color[v] == u8::MAX {
                    color[v] = 1 - color[u];
                    queue.push_back(v);
                }
            }
        }
    }
    Some(color)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::trainer::{Hyper, SimExperiment};
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};

    /// Panics with the trainer's rejection when the experiment is invalid.
    fn run_on(topo: &Topology, require_bipartite: bool, seed: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(128, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        SimExperiment {
            topology: topo.clone(),
            cluster: ClusterSpec::uniform(topo.len(), 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: SlowdownModel::None,
            protocol: Protocol::AdPsgd(AdPsgdConfig {
                require_bipartite,
                ..AdPsgdConfig::default()
            }),
            hyper: Hyper {
                lr: 0.5,
                momentum: 0.9,
                weight_decay: 1e-7,
                batch_size: 16,
            },
            max_iters: 30,
            seed,
            eval_every: 0,
            eval_examples: 32,
        }
        .run(&model, &dataset)
        .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn bipartite_ring_never_deadlocks() {
        let topo = Topology::ring(6); // even ring = bipartite
        for seed in 0..5 {
            let r = run_on(&topo, true, seed);
            assert!(!r.deadlocked, "seed {seed} deadlocked");
        }
    }

    #[test]
    fn bipartite_run_learns() {
        let topo = Topology::ring(6);
        let r = run_on(&topo, true, 1);
        let last = r.eval_time.last().unwrap().1;
        assert!(last < 0.69, "final loss {last} not below ln 2");
    }

    #[test]
    fn non_bipartite_can_deadlock() {
        // A triangle with every worker initiating: some seed deadlocks
        // quickly (the §5 argument for why AD-PSGD constrains topology).
        let topo = Topology::complete(3);
        let deadlocks = (0..20)
            .filter(|&s| run_on(&topo, false, s).deadlocked)
            .count();
        assert!(
            deadlocks > 0,
            "expected at least one deadlock across seeds on a non-bipartite graph"
        );
    }

    #[test]
    #[should_panic(expected = "bipartite")]
    fn require_bipartite_panics_on_triangle() {
        let topo = Topology::complete(3);
        let _ = run_on(&topo, true, 0);
    }
}
