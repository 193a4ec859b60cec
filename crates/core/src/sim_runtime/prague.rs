//! Simulated Prague-style partial all-reduce (Luo et al.,
//! *Heterogeneity-Aware Asynchronous Decentralized Training*).
//!
//! Prague replaces the global all-reduce with a *partial* one: each round
//! the workers are partitioned into small groups and every group
//! all-reduces (averages parameters) among only its own members. With
//! static-group scheduling the partition for a round is a pure function of
//! `(seed, round)` ([`hop_graph::groups::partition`]), so no coordination
//! is needed to agree on membership and — crucially — no worker ever
//! waits on a straggler outside its group: a 6× straggler delays at most
//! `group_size - 1` peers per round, while ring all-reduce stalls the
//! whole cluster. Randomized regeneration of the partition
//! ([`PragueConfig::regen_every`]) mixes information across groups over
//! rounds.
//!
//! Runs through the shared [`super::engine::SimEngine`]; the intra-group
//! all-reduce pipeline is modeled analytically (per-step max over the
//! group's logical ring), so bytes are accounted here rather than via the
//! virtual network. As with ring all-reduce there is no per-message
//! delivery to gate, so the fault plane does not apply and only
//! iteration entries are recorded.

use crate::config::PragueConfig;
use crate::report::TrainingReport;
use crate::trainer::SimRun;
use hop_graph::groups;
use hop_tensor::ParamBlock;
use std::collections::HashMap;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerCommon, WorkerProtocol};

/// Runs Prague partial all-reduce training over the experiment's workers.
pub(crate) fn run(cfg: &PragueConfig, sim: &SimRun<'_>) -> TrainingReport {
    let engine = sim.engine();
    let mut plane = CompressionPlane::new(cfg.compression);
    plane.add_param_streams(engine.workers.len(), engine.init_params());
    let mut proto = Prague {
        cfg: *cfg,
        rounds: HashMap::new(),
        bytes_sent: 0,
        plane,
    };
    engine.drive(&mut proto)
}

enum Ev {
    /// Worker `w` finished computing its iteration-`iter` gradient.
    ComputeDone { w: usize, iter: u64 },
    /// Group `group` of round `round` finished its intra-group
    /// all-reduce pipeline. Under a lossy codec `recons` carries each
    /// member's compressed-stream reconstruction (in member order); the
    /// reduce averages those instead of the exact replicas, so every
    /// member agrees on the mean of what was actually transmitted.
    GroupReduce {
        round: u64,
        group: usize,
        recons: Option<Vec<ParamBlock>>,
    },
}

/// Bookkeeping for one in-flight round: the (cached) partition and how
/// many members of each group still have to arrive.
struct RoundState {
    groups: Vec<Vec<usize>>,
    /// `membership[w]` = index into `groups` containing worker `w`.
    membership: Vec<usize>,
    /// Per group: members that have not yet finished this round's compute.
    pending: Vec<usize>,
    /// Groups whose reduce has not yet completed (round cleanup trigger).
    open_groups: usize,
}

/// The partial all-reduce state machine.
struct Prague {
    cfg: PragueConfig,
    rounds: HashMap<u64, RoundState>,
    bytes_sent: u64,
    plane: CompressionPlane,
}

impl Prague {
    /// The round's group partition, derived lazily from `(seed, epoch)`
    /// where `epoch = round / regen_every` (static-group scheduling: pure,
    /// no coordination).
    fn round_state(&mut self, eng: &SimEngine<'_, Ev>, round: u64) -> &mut RoundState {
        let n = eng.workers.len();
        let cfg = self.cfg;
        self.rounds.entry(round).or_insert_with(|| {
            let epoch = round / cfg.regen_every;
            let groups = groups::partition(n, cfg.group_size, eng.seed, epoch);
            let membership = groups::membership(&groups);
            let pending: Vec<usize> = groups.iter().map(Vec::len).collect();
            let open_groups = groups.len();
            RoundState {
                groups,
                membership,
                pending,
                open_groups,
            }
        })
    }

    /// Advances `w` out of `round` (after its group's reduce, or
    /// immediately for a singleton group).
    fn advance(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, round: u64, now: f64) {
        let new_iter = round + 1;
        eng.iters[w] = new_iter;
        eng.record_enter(w, new_iter, now);
        if eng.recorder.crossed_boundary(new_iter) {
            eng.evaluate_worker_average(now, new_iter);
        }
        if new_iter >= eng.max_iters {
            eng.finish_worker(w);
            return;
        }
        let dur = eng.compute_duration(w, new_iter);
        eng.events
            .push(now + dur, Ev::ComputeDone { w, iter: new_iter });
    }

    /// Closes one group of `round`; drops the round's bookkeeping once the
    /// last group has reduced.
    fn close_group(&mut self, round: u64) {
        let st = self.rounds.get_mut(&round).expect("round in flight");
        st.open_groups -= 1;
        if st.open_groups == 0 {
            self.rounds.remove(&round);
        }
    }
}

impl WorkerProtocol for Prague {
    type Event = Ev;

    fn start(&mut self, eng: &mut SimEngine<'_, Ev>) {
        for w in 0..eng.workers.len() {
            eng.record_enter(w, 0, 0.0);
            let dur = eng.compute_duration(w, 0);
            eng.events.push(dur, Ev::ComputeDone { w, iter: 0 });
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Ev>, now: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { w, iter } => {
                // Local gradient + SGD step on the worker's own replica.
                let mut grad = eng.pool.acquire_stale(eng.workers[w].params.len());
                eng.local_grad(w, now, &mut grad);
                let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
                opt.step_block(params, &grad);
                eng.pool.release(grad);
                // Join this round's group; the group's all-reduce starts
                // when its last member arrives (and only then — members of
                // other groups are never waited on).
                let st = self.round_state(eng, iter);
                let g = st.membership[w];
                st.pending[g] -= 1;
                if st.pending[g] > 0 {
                    return;
                }
                let members = st.groups[g].clone();
                if members.len() == 1 {
                    // Singleton remainder: nothing to reduce with.
                    self.close_group(iter);
                    self.advance(eng, w, iter, now);
                    return;
                }
                // Under a lossy codec every member encodes its replica
                // into its parameter stream here (once per round, when
                // the group forms); the pipeline then moves the *mean*
                // encoded size per step instead of the dense size.
                let (recons, chunk) = if self.plane.is_active() {
                    let mut recons = Vec::with_capacity(members.len());
                    let mut sum_wire = 0u64;
                    for &m in &members {
                        let snap = eng.workers[m].params.snapshot();
                        let (recon, wire) =
                            self.plane
                                .encode_params(m, snap.as_slice(), None, &mut eng.pool);
                        eng.pool.reclaim(snap);
                        sum_wire += wire;
                        recons.push(recon);
                    }
                    let chunk = sum_wire / members.len() as u64;
                    self.plane
                        .charge(2 * (members.len() as u64 - 1), eng.param_bytes, chunk);
                    (Some(recons), chunk)
                } else {
                    (None, eng.param_bytes)
                };
                self.bytes_sent += (members.len() as u64 - 1) * 2 * chunk;
                // The same analytic pipeline model as the ring baseline,
                // over the group's logical ring at chunk `bytes / g`.
                let done = now + eng.net.spec().ring_allreduce_time(&members, chunk as f64);
                eng.events.push(
                    done,
                    Ev::GroupReduce {
                        round: iter,
                        group: g,
                        recons,
                    },
                );
            }
            Ev::GroupReduce {
                round,
                group,
                recons,
            } => {
                let members = self.rounds[&round].groups[group].clone();
                // Partial all-reduce: every member ends up with the group
                // mean, shared as one allocation until the next write.
                // When compressed, the mean is over the transmitted
                // reconstructions — the only values all members saw.
                let mut mean = eng.pool.acquire_stale(eng.workers[members[0]].params.len());
                if let Some(recons) = recons {
                    {
                        let views: Vec<&[f32]> = recons.iter().map(|r| r.as_slice()).collect();
                        hop_tensor::ops::mean_into(&views, &mut mean);
                    }
                    for r in recons {
                        eng.pool.reclaim(r);
                    }
                } else {
                    let views: Vec<&[f32]> = members
                        .iter()
                        .map(|&m| eng.workers[m].params.as_slice())
                        .collect();
                    hop_tensor::ops::mean_into(&views, &mut mean);
                }
                let block = ParamBlock::from_vec(mean);
                for &m in &members {
                    let old = std::mem::replace(&mut eng.workers[m].params, block.snapshot());
                    eng.pool.reclaim(old);
                }
                self.close_group(round);
                for &m in &members {
                    self.advance(eng, m, round, now);
                }
            }
        }
    }

    fn bytes_sent(&self, _eng: &SimEngine<'_, Ev>) -> u64 {
        self.bytes_sent
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
    use hop_graph::Topology;
    use hop_model::svm::Svm;
    use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};

    fn run_prague(cfg: PragueConfig, slow: SlowdownModel, iters: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(256, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        SimExperiment {
            topology: Topology::ring(6),
            cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: slow,
            protocol: Protocol::Prague(cfg),
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
        .expect("valid Prague experiment")
    }

    #[test]
    fn completes_and_learns() {
        let r = run_prague(PragueConfig::default(), SlowdownModel::None, 50);
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
    fn straggler_only_delays_its_group() {
        // `group_size = n` degenerates to a global all-reduce barrier:
        // every worker pays the straggler plus the full 2(n-1)-step
        // pipeline every round. Small groups beat it on both fronts —
        // the run finishes sooner (the straggler's own rounds carry a
        // cheaper group pipeline) and the non-straggler workers stop
        // pacing at 6x (they only wait in rounds that co-group them).
        let slow = SlowdownModel::paper_straggler(6, 1, 6.0);
        let partial = run_prague(PragueConfig::with_group_size(2), slow.clone(), 30);
        let barrier = run_prague(PragueConfig::with_group_size(6), slow, 30);
        assert!(!partial.deadlocked && !barrier.deadlocked);
        assert!(
            partial.wall_time < barrier.wall_time,
            "partial {} vs barrier {}",
            partial.wall_time,
            barrier.wall_time
        );
        let finish_of = |r: &TrainingReport, w: usize| {
            r.trace
                .records()
                .iter()
                .filter(|rec| rec.worker == w)
                .map(|rec| rec.time)
                .fold(0.0f64, f64::max)
        };
        let sum_partial: f64 = (0..6).map(|w| finish_of(&partial, w)).sum();
        let sum_barrier: f64 = (0..6).map(|w| finish_of(&barrier, w)).sum();
        assert!(
            sum_partial < sum_barrier,
            "workers idled as if behind a global barrier: {sum_partial} vs {sum_barrier}"
        );
    }

    #[test]
    fn regeneration_mixes_replicas() {
        // With regeneration the replicas stay coupled: the spread across
        // final worker params is small relative to the params themselves.
        let r = run_prague(PragueConfig::with_group_size(3), SlowdownModel::None, 40);
        let dim = r.final_params[0].len();
        let mut max_spread = 0.0f32;
        for d in 0..dim {
            let vals: Vec<f32> = r.final_params.iter().map(|p| p[d]).collect();
            let mx = vals.iter().cloned().fold(f32::MIN, f32::max);
            let mn = vals.iter().cloned().fold(f32::MAX, f32::min);
            max_spread = max_spread.max(mx - mn);
        }
        assert!(
            max_spread < 1.0,
            "replicas drifted apart: spread {max_spread}"
        );
    }

    #[test]
    fn static_schedule_is_deterministic() {
        let a = run_prague(PragueConfig::default(), SlowdownModel::paper_random(6), 25);
        let b = run_prague(PragueConfig::default(), SlowdownModel::paper_random(6), 25);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }

    #[test]
    fn group_size_one_is_local_sgd() {
        let r = run_prague(
            PragueConfig {
                group_size: 1,
                ..PragueConfig::default()
            },
            SlowdownModel::None,
            10,
        );
        assert!(!r.deadlocked);
        assert_eq!(r.bytes_sent, 0, "singleton groups must not communicate");
    }
}
