//! The simulated decentralized runtime: Hop's protocol family plus the
//! NOTIFY-ACK baseline, as [`crate::machine`] workers over the
//! discrete-event network.
//!
//! Every worker is a [`HopWorker`]: the five operations of §3.2 (Compute,
//! Send, Recv, Reduce, Apply) in the serial or parallel order of Fig. 2,
//! synchronized by the rotating update queues of §6.1 and, when
//! configured, the token queues of §4.2, backup workers (Fig. 8), bounded
//! staleness (Fig. 9) and skipping iterations (§5). This module is its
//! simulation executor: it turns events into the machine's inputs and
//! carries out what the machine asks — a Send becomes network transfers
//! (with the §6.2(b) inquiry, byzantine corruption and the codec plane),
//! a grant or ACK a control message, a compute a job on the engine's
//! helper joined at a drawn completion time — and it hooks the engine's
//! recorder and crash/rejoin churn. The event pump, per-worker common
//! state and recording live in the shared [`super::engine::SimEngine`].

use crate::choreography::{self, SendStage, Step};
use crate::config::HopConfig;
use crate::machine::{Executor, HopWorker, Input, Parts, Shared};
use crate::report::TrainingReport;
use crate::semantics;
use crate::trainer::SimRun;
use hop_graph::Topology;
use hop_model::Gradient;
use hop_sim::Network;
use hop_tensor::ops::simd::prefetch;
use hop_tensor::ParamBlock;
use std::convert::Infallible;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerCommon, WorkerProtocol};

enum Ev {
    ComputeDone {
        w: usize,
        iter: u64,
    },
    Update {
        to: usize,
        from: usize,
        iter: u64,
        /// Zero-copy snapshot of the sender's parameters at send time.
        params: ParamBlock,
    },
    Tokens {
        to: usize,
        from: usize,
        count: u64,
        /// `from`'s slot among `to`'s external out-neighbors.
        slot: usize,
    },
    Ack {
        to: usize,
    },
}

/// Runs the decentralized protocol in the simulator.
///
/// # Panics
///
/// Panics on a cluster/topology size mismatch.
pub(crate) fn run(cfg: &HopConfig, sim: &SimRun<'_>) -> TrainingReport {
    let topology = &sim.exp.topology;
    assert_eq!(
        sim.exp.cluster.len(),
        topology.len(),
        "cluster and topology sizes must match"
    );
    let engine = sim.engine();
    let mut proto = Decentralized::new(cfg, topology, &engine);
    engine.drive(&mut proto)
}

/// The Hop/NOTIFY-ACK workers and what the simulation executor keeps
/// beside them.
struct Decentralized<'a> {
    cfg: &'a HopConfig,
    topology: &'a Topology,
    shared: Shared<'a>,
    workers: Vec<HopWorker>,
    /// Gradient buffer per worker; travels with the worker's compute job.
    grads: Vec<Gradient>,
    grants: Grants,
    skipped_sends: u64,
    /// One parameter stream per worker (see
    /// [`super::compression`]); inactive under the identity codec, in
    /// which case a Send takes the exact-snapshot path.
    plane: CompressionPlane,
}

impl<'a> Decentralized<'a> {
    fn new(cfg: &'a HopConfig, topology: &'a Topology, eng: &SimEngine<'_, Ev>) -> Self {
        let shared = Shared::new(cfg, topology, eng.max_iters);
        let dim = eng.init_params().len();
        let mut plane = CompressionPlane::new(cfg.compression);
        plane.add_param_streams(topology.len(), eng.init_params());
        Self {
            cfg,
            topology,
            workers: (0..topology.len())
                .map(|w| HopWorker::new(&shared, w))
                .collect(),
            shared,
            grads: (0..topology.len()).map(|_| Gradient::zeros(dim)).collect(),
            grants: Grants::new(topology, &eng.net),
            skipped_sends: 0,
            plane,
        }
    }

    /// Feeds `input` to worker `w` at virtual time `now`.
    fn feed(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, now: f64, input: Input) {
        let (worker, cx, mut exec) = self.split(eng, w, now);
        let Ok(()) = worker.on(cx, &mut exec, input);
    }

    /// Worker `w`'s machine, the shared half, and the executor that runs
    /// the machine at virtual time `now`.
    fn split<'e, 'g>(
        &'e mut self,
        eng: &'e mut SimEngine<'g, Ev>,
        w: usize,
        now: f64,
    ) -> (&'e mut HopWorker, &'e mut Shared<'a>, SimExec<'e, 'g>) {
        let exec = SimExec {
            eng,
            plane: &mut self.plane,
            grad: &mut self.grads[w],
            cfg: self.cfg,
            topology: self.topology,
            grants: &self.grants,
            skipped_sends: &mut self.skipped_sends,
            w,
            now,
        };
        (&mut self.workers[w], &mut self.shared, exec)
    }

    #[cfg(test)]
    fn skipped_send_count(&self) -> u64 {
        self.skipped_sends
    }
}

/// One edge a worker's grants travel: to external in-neighbor `to`,
/// among whose external out-neighbors the granter is the `slot`-th, on
/// control lane `lane` ([`hop_sim::Network::control_lane`]). A grant
/// carries the slot, so neither end looks anything up.
#[derive(Clone, Copy)]
struct GrantEdge {
    to: u32,
    slot: u32,
    lane: u8,
}

/// Every worker's grant edges, row `w` in
/// `topology.external_in_neighbors(w)` order.
struct Grants {
    edges: Vec<GrantEdge>,
    /// Row offsets, one per worker and one more.
    at: Vec<usize>,
}

impl Grants {
    fn new(topology: &Topology, net: &Network) -> Self {
        let narrow = |i: usize| u32::try_from(i).expect("fewer than 2^32 workers");
        let (mut edges, mut at) = (Vec::new(), vec![0]);
        for w in 0..topology.len() {
            edges.extend(topology.external_in_neighbors(w).iter().map(|&to| {
                let outs = topology.external_out_neighbors(to);
                let slot = outs.binary_search(&w).expect("an out-neighbor");
                let lane = net.control_lane(w, to);
                GrantEdge {
                    to: narrow(to),
                    slot: narrow(slot),
                    lane: u8::try_from(lane).expect("two control lanes"),
                }
            }));
            at.push(edges.len());
        }
        Self { edges, at }
    }

    fn row(&self, w: usize) -> &[GrantEdge] {
        &self.edges[self.at[w]..self.at[w + 1]]
    }
}

/// The simulation executor of worker `w` at virtual time `now`.
struct SimExec<'e, 'g> {
    eng: &'e mut SimEngine<'g, Ev>,
    plane: &'e mut CompressionPlane,
    grad: &'e mut Gradient,
    cfg: &'e HopConfig,
    topology: &'e Topology,
    grants: &'e Grants,
    skipped_sends: &'e mut u64,
    w: usize,
    now: f64,
}

impl Executor for SimExec<'_, '_> {
    type Error = Infallible;
    type Sink = Option<crate::conformance::ProtocolTrace>;
    const SENDER_ORDER: bool = false;
    /// The §6.1 rotation's purge, whose stale counts the digests pin.
    const EAGER_PURGE: bool = false;

    fn parts(&mut self) -> Parts<'_, Self::Sink> {
        let WorkerCommon { params, opt, .. } = &mut self.eng.workers[self.w];
        Parts {
            params,
            opt,
            pool: &mut self.eng.pool,
            sink: &mut self.eng.conformance,
            grad: self.grad.as_slice(),
            reference: self.plane.int8_reference(self.w),
        }
    }

    /// Records the entry, fires a crash scheduled for it (after the
    /// `Advance`, so this iteration's sends are already dead-endpoint
    /// losses) and evaluates at the recorder's boundaries.
    fn enter(&mut self, iter: u64) -> Result<(), Infallible> {
        let (eng, w, now) = (&mut *self.eng, self.w, self.now);
        eng.iters[w] = iter;
        eng.entered(w, iter, now);
        if eng.recorder.crossed_boundary(iter) {
            eng.evaluate_worker_average(now, iter);
        }
        Ok(())
    }

    fn alive(&self) -> bool {
        !self.eng.faults.is_dead(self.w)
    }

    /// The gradient depends only on the replica as it stands now: the job
    /// starts here, after this worker's own Send (whose sweeps the helper
    /// can then share), and is joined at the virtual completion time.
    /// Crashes fire only at entry, so a job begins iff its `ComputeDone`
    /// will be accepted.
    fn compute_ready(&mut self, _iter: u64) {
        if self.alive() {
            let grad = std::mem::take(self.grad);
            self.eng.begin_compute(self.w, grad);
        }
    }

    fn compute(&mut self, iter: u64) {
        let (w, now) = (self.w, self.now);
        let duration = self.eng.compute_duration(w, iter);
        self.eng
            .events
            .push(now + duration, Ev::ComputeDone { w, iter });
    }

    /// The external half of a Send, over the network (with the §6.2(b)
    /// inquiry when backup workers are in use). Every delivery carries a
    /// zero-copy snapshot — the wire bytes are simulated, no parameter
    /// bytes move.
    ///
    /// With a lossy codec externals receive the codec's reconstruction
    /// and the network is charged the encoded size (the self-delivery
    /// stays exact). The stream is encoded exactly once per Send however
    /// many sends the inquiry suppresses, so the codec state never
    /// depends on receivers' progress.
    fn send<S: SendStage>(
        &mut self,
        step: &Step<S>,
        params: &ParamBlock,
        max_delta: Option<f32>,
    ) -> Result<(), Infallible> {
        let (eng, w, now, iter) = (&mut *self.eng, self.w, self.now, step.iter());
        let (mut wire, wire_bytes) = if self.plane.is_active() {
            self.plane
                .encode_params(w, params.as_slice(), max_delta, &mut eng.pool)
        } else {
            (params.snapshot(), eng.param_bytes)
        };
        // Byzantine corruption hits the *outgoing* copy only: the worker's
        // own queue stays honest, receivers get the corrupted values.
        // Applied once per Send, so SignFlip cannot double-negate across
        // recipients. Guarded by a plan lookup so honest workers never pay
        // the copy-on-write detach.
        if !eng.faults.is_empty()
            && eng
                .faults
                .plan()
                .byzantine()
                .iter()
                .any(|b| b.worker == w && iter >= b.from_iter)
        {
            eng.faults.corrupt(w, iter, wire.make_mut());
        }
        let (inquiry, mut delivered) = (self.cfg.send_inquiry(), 0u64);
        for &o in self.topology.external_out_neighbors(w) {
            if inquiry && eng.iters[o] > iter {
                // The receiver has already passed this iteration; the
                // update would be dropped as stale on arrival (§6.2b).
                *self.skipped_sends += 1;
                continue;
            }
            step.send(&mut eng.conformance, o);
            // The wire is charged either way; only delivery is in doubt.
            delivered += 1;
            match eng.transfer_gated(w, o, wire_bytes, now, iter) {
                Some(arrival) => eng.events.push(
                    arrival,
                    Ev::Update {
                        to: o,
                        from: w,
                        iter,
                        params: wire.snapshot(),
                    },
                ),
                // Send-then-Lost keeps the oracle's outstanding-send
                // ledger balanced: the sender published in good faith,
                // the fault plane ate the message.
                None => choreography::lost_update(&mut eng.conformance, o, w, iter),
            }
        }
        if self.plane.is_active() {
            self.plane.charge(delivered, eng.param_bytes, wire_bytes);
        }
        eng.pool.reclaim(wire);
        Ok(())
    }

    /// Visibility is delayed by a control message.
    fn grant(&mut self, count: u64) -> Result<(), Infallible> {
        let (from, now) = (self.w, self.now);
        for edge in self.grants.row(from) {
            let grant = Ev::Tokens {
                to: edge.to as usize,
                from,
                count,
                slot: edge.slot as usize,
            };
            self.eng.push_control_on(usize::from(edge.lane), now, grant);
        }
        Ok(())
    }

    fn ack(&mut self) {
        for &to in self.topology.external_in_neighbors(self.w) {
            self.eng.push_control(self.w, to, self.now, Ev::Ack { to });
        }
    }

    fn finish(&mut self) {
        self.eng.finish_worker(self.w);
    }
}

impl WorkerProtocol for Decentralized<'_> {
    type Event = Ev;

    fn start(&mut self, eng: &mut SimEngine<'_, Ev>) {
        for w in 0..self.workers.len() {
            self.feed(eng, w, 0.0, Input::Start);
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Ev>, now: f64, ev: Ev) {
        let (w, input) = match ev {
            Ev::ComputeDone { w, iter } => {
                // A crashed worker's in-flight compute completion: the
                // iteration died with the worker (its `ComputeEnd` is
                // never emitted), and after a rejoin the counter has
                // moved past `iter`.
                if iter != eng.iters[w] || eng.faults.is_dead(w) {
                    return;
                }
                // The gradient math began with the virtual compute phase
                // and may have run beside the pump since; its result
                // enters the simulation only here, at the virtual
                // completion time.
                let (loss, grad) = eng.join_compute(w);
                eng.recorder.train_loss(w, iter, now, loss);
                self.grads[w] = grad;
                return self.feed(eng, w, now, Input::ComputeDone);
            }
            Ev::Update {
                to,
                from,
                iter,
                params,
            } => {
                // A message already in flight when its receiver crashed
                // arrives at a dead worker: it vanishes without an event.
                // (Messages *sent* while an endpoint is dead never get
                // here — the verdict gate drops them as licensed losses.)
                if eng.faults.is_dead(to) {
                    return eng.pool.reclaim(params);
                }
                (to, Input::Update { from, iter, params })
            }
            Ev::Tokens {
                to,
                from,
                count,
                slot,
            } => {
                // Recorded at visibility (not grant) time: the conformance
                // view of a token queue is exactly what the consumer can
                // observe.
                choreography::token_grant(&mut eng.conformance, from, to, count);
                (to, Input::Tokens { slot, count })
            }
            Ev::Ack { to } => (to, Input::Ack),
        };
        self.feed(eng, w, now, input);
        // A dead worker still *accrues* grants and ACKs (token
        // conservation: the queue exists whether or not its consumer is
        // awake) but cannot wake; the balance is spent at rejoin. A
        // computing or finished worker has nothing to resume.
        if self.workers[w].waiting() && !eng.faults.is_dead(w) {
            self.feed(eng, w, now, Input::Resume);
        }
    }

    /// Every event feeds one worker's machine. Only a compute completion
    /// steps it: the Reduce, the Send and the next compute read its
    /// gradient buffer and the engine's entries. An update, a grant or
    /// an ACK is usually admitted and no more.
    fn prefetch(&self, eng: &SimEngine<'_, Ev>, next: &Ev) {
        let w = match *next {
            Ev::ComputeDone { w, .. } => {
                eng.prefetch_worker(w);
                prefetch(&self.grads[w]);
                w
            }
            Ev::Update { to, .. } | Ev::Tokens { to, .. } | Ev::Ack { to } => to,
        };
        prefetch(&self.workers[w]);
    }

    fn stale_discarded(&self, _eng: &SimEngine<'_, Ev>) -> u64 {
        self.workers.iter().map(|w| w.queue.stale_discarded()).sum()
    }

    fn bytes_saved(&self, _eng: &SimEngine<'_, Ev>) -> u64 {
        self.plane.bytes_saved()
    }

    fn rejoin_floor(&self, eng: &SimEngine<'_, Ev>, w: usize) -> u64 {
        // Staleness mode keeps newest-wins slots that any future send
        // refreshes, so the default floor is enough. The rotating-queue
        // modes need, at every iteration `k >= target`, `quota - 1`
        // external updates *tagged* `k` (the self-update covers one quota
        // slot). Neighbor `o` only sends tag `k` when it enters `k`, i.e.
        // only if `iters[o] < k` now — earlier tags were dropped at the
        // dead endpoint. So the target must leave at least `quota - 1`
        // live in-neighbors strictly behind it: one more than the
        // `(quota - 1)`-th smallest of their iteration counters.
        if self.cfg.staleness.is_some() {
            return eng.iters[w] + 1;
        }
        let mut behind: Vec<u64> = self
            .topology
            .external_in_neighbors(w)
            .iter()
            .filter(|&&o| !eng.faults.is_dead(o))
            .map(|&o| eng.iters[o])
            .collect();
        behind.sort_unstable();
        let in_deg = self.topology.in_neighbors(w).len();
        let ext_needed = semantics::backup_quota(in_deg, self.cfg.n_backup).saturating_sub(1);
        if ext_needed == 0 {
            return eng.iters[w] + 1;
        }
        match behind.get(ext_needed - 1) {
            Some(&kth) => kth + 1,
            // Multi-crash left too few live in-neighbors to ever meet
            // the quota — best effort: the frontier of whoever is left.
            None => behind.last().map_or(eng.iters[w], |&top| top) + 1,
        }
    }

    fn rejoin_admissible(&self, eng: &SimEngine<'_, Ev>, w: usize, target: u64) -> bool {
        // Table 1 holds on every edge, a crashed neighbor counting at its
        // frozen iteration: re-entering at `target` more than `b0` ahead
        // of an in-neighbor, or while a live straggler sits more than
        // `max_ig` behind, would open an illegal gap with the rejoin's
        // first advance. Stay dead until the stragglers catch up.
        let in_ok = self.cfg.base_setting().b0().finite().is_none_or(|b0| {
            self.topology
                .external_in_neighbors(w)
                .iter()
                .all(|&u| target <= eng.iters[u] + b0)
        });
        let Some(max_ig) = self.cfg.max_ig() else {
            return in_ok;
        };
        let gap_ok = (0..eng.workers.len())
            .filter(|&o| o != w && !eng.faults.is_dead(o))
            .map(|o| eng.iters[o])
            .min()
            .is_none_or(|min_live| target <= min_live + max_ig);
        // The grants accrued while dead must fully cover the skipped
        // iterations on every outgoing edge — entering on credit (a
        // grant still in flight) would let the worker overtake the gap
        // bound by the time the grant lands. Same condition as `gap_ok`
        // up to visibility lag, checked on the observable ledger.
        let catchup = target - eng.iters[w];
        in_ok && gap_ok && self.workers[w].tokens_from.iter().all(|&t| t >= catchup)
    }

    fn on_rejoin(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, target: u64, now: f64) {
        // The oracle's `Rejoin` arm drains the same catch-up the machine
        // spends, keeping token conservation checked across churn.
        let (worker, cx, mut exec) = self.split(eng, w, now);
        let Ok(()) = worker.rejoin(cx, &mut exec, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComputeOrder, Protocol, SkipConfig};
    use crate::sim_runtime::recorder::EvalConfig;
    use crate::trainer::{Hyper, SimExperiment};
    use hop_data::webspam::{SyntheticWebspam, WebspamConfig};
    use hop_data::InMemoryDataset;
    use hop_model::svm::Svm;
    use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
    use hop_tensor::CompressionConfig;

    fn quick_setup() -> (Topology, ClusterSpec, InMemoryDataset, Svm, Hyper) {
        let topo = Topology::ring(4);
        let cluster = ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps());
        let dataset = SyntheticWebspam::generate(256, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let hyper = Hyper {
            lr: 0.5,
            momentum: 0.9,
            weight_decay: 1e-7,
            batch_size: 16,
        };
        (topo, cluster, dataset, model, hyper)
    }

    fn run_cfg(cfg: HopConfig, iters: u64, slow: SlowdownModel) -> TrainingReport {
        let (topology, cluster, dataset, model, hyper) = quick_setup();
        SimExperiment {
            topology,
            cluster,
            slowdown: slow,
            protocol: Protocol::Hop(cfg),
            hyper,
            max_iters: iters,
            seed: 11,
            eval_every: 10,
            eval_examples: 64,
        }
        .run(&model, &dataset)
        .expect("valid Hop experiment")
    }

    #[test]
    fn standard_completes_and_learns() {
        let report = run_cfg(HopConfig::standard(), 60, SlowdownModel::None);
        assert!(!report.deadlocked);
        let eval = &report.eval_time;
        assert!(eval.len() >= 2);
        let first = eval.points()[0].1;
        let last = eval.last().expect("non-empty").1;
        assert!(last < first, "loss {first} -> {last}");
        // Every worker reaches the final iteration.
        for w in 0..4 {
            assert_eq!(report.trace.durations(w).len(), 60);
        }
    }

    #[test]
    fn standard_gap_respects_theorem_1() {
        let report = run_cfg(HopConfig::standard(), 40, SlowdownModel::paper_random(4));
        let sp = hop_graph::ShortestPaths::new(&Topology::ring(4));
        let gaps = report.trace.max_pairwise_gap();
        for i in 0..4 {
            for j in 0..4 {
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
    fn token_queues_tighten_the_gap() {
        let slow = SlowdownModel::paper_straggler(4, 0, 8.0);
        let report = run_cfg(HopConfig::standard_with_tokens(2), 40, slow);
        assert!(!report.deadlocked);
        let gaps = report.trace.max_pairwise_gap();
        let sp = hop_graph::ShortestPaths::new(&Topology::ring(4));
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let bound = hop_graph::bounds::BaseSetting::Standard.pair_bound_with_tokens(
                    2,
                    sp.dist(j, i),
                    sp.dist(i, j),
                );
                assert!(
                    bound.admits(gaps[i][j]),
                    "gap({i},{j}) = {} exceeds token bound {bound}",
                    gaps[i][j]
                );
            }
        }
    }

    #[test]
    fn notify_ack_gap_is_tighter_than_standard() {
        let slow = SlowdownModel::paper_straggler(4, 0, 6.0);
        let report = run_cfg(HopConfig::notify_ack(), 30, slow);
        assert!(!report.deadlocked);
        let gaps = report.trace.max_pairwise_gap();
        // §3.3: adjacent gap bounded by 2 under NOTIFY-ACK.
        let topo = Topology::ring(4);
        for i in 0..4 {
            for &j in topo.external_in_neighbors(i) {
                assert!(
                    gaps[i][j] <= 2,
                    "notify-ack adjacent gap {} too large",
                    gaps[i][j]
                );
            }
        }
    }

    #[test]
    fn backup_workers_tolerate_random_slowdown() {
        // §7.3.3: backup workers target *random* heterogeneity; under a
        // deterministic straggler the token limit still gates everyone.
        let slow = SlowdownModel::paper_random(4);
        let standard = run_cfg(HopConfig::standard_with_tokens(5), 60, slow.clone());
        let backup = run_cfg(HopConfig::backup(1, 5), 60, slow);
        assert!(!backup.deadlocked);
        assert!(
            backup.wall_time < standard.wall_time,
            "backup {} vs standard {}",
            backup.wall_time,
            standard.wall_time
        );
    }

    #[test]
    fn backup_alone_cannot_beat_deterministic_straggler() {
        // The §7.3.3 caveat itself: with a permanent 6x straggler, backup
        // workers without skipping still crawl at the straggler's pace.
        let slow = SlowdownModel::paper_straggler(4, 0, 6.0);
        let standard = run_cfg(HopConfig::standard_with_tokens(5), 40, slow.clone());
        let backup = run_cfg(HopConfig::backup(1, 5), 40, slow);
        assert!(!backup.deadlocked);
        assert!(backup.wall_time > standard.wall_time * 0.8);
    }

    #[test]
    fn staleness_tolerates_random_slowdown() {
        let slow = SlowdownModel::paper_random(4);
        let standard = run_cfg(HopConfig::standard_with_tokens(6), 60, slow.clone());
        let stale = run_cfg(HopConfig::staleness(5, 6), 60, slow);
        assert!(!stale.deadlocked);
        assert!(stale.wall_time <= standard.wall_time * 1.01);
    }

    #[test]
    fn skip_iterations_rescues_deterministic_straggler() {
        let slow = SlowdownModel::paper_straggler(4, 0, 4.0);
        let no_skip = run_cfg(HopConfig::backup(1, 5), 60, slow.clone());
        let with_skip = run_cfg(
            HopConfig::backup(1, 5).with_skip(SkipConfig {
                max_jump: 10,
                trigger_behind: 2,
            }),
            60,
            slow,
        );
        assert!(!with_skip.deadlocked);
        // The straggler skipped: it entered fewer distinct iterations.
        let straggler_iters = with_skip.trace.durations(0).len();
        assert!(
            straggler_iters < 60,
            "straggler ran all {straggler_iters} iterations despite skipping"
        );
        // Everyone else still finished, faster than without skipping.
        assert!(with_skip.wall_time < no_skip.wall_time);
    }

    #[test]
    fn serial_and_parallel_both_converge() {
        for order in [ComputeOrder::Serial, ComputeOrder::Parallel] {
            let cfg = HopConfig {
                order,
                ..HopConfig::standard()
            };
            let report = run_cfg(cfg, 50, SlowdownModel::None);
            let first = report.eval_time.points()[0].1;
            let last = report.eval_time.last().expect("eval").1;
            assert!(last < first, "{order:?}: {first} -> {last}");
        }
    }

    #[test]
    fn homogeneous_workers_stay_in_lockstep_gap() {
        let report = run_cfg(HopConfig::standard(), 30, SlowdownModel::None);
        // With identical compute times on a symmetric graph the gap never
        // exceeds 1 (neighbors) / 2 (diameter).
        assert!(
            report.trace.max_gap() <= 2,
            "gap {}",
            report.trace.max_gap()
        );
    }

    #[test]
    fn send_inquiry_suppresses_stale_sends() {
        let (topo, cluster, dataset, model, hyper) = quick_setup();
        let slow = SlowdownModel::paper_straggler(4, 0, 6.0);
        let cfg = HopConfig::backup(1, 5);
        let engine = SimEngine::new(
            cluster,
            4,
            &slow,
            &model,
            &dataset,
            &hyper,
            40,
            3,
            EvalConfig {
                every: 0,
                examples: 16,
            },
        );
        let mut proto = Decentralized::new(&cfg, &topo, &engine);
        let report = engine.drive(&mut proto);
        assert!(!report.deadlocked);
        assert!(
            proto.skipped_send_count() > 0,
            "straggler should have skipped at least one stale send"
        );
    }

    /// The reference run's shape under top-1 %: after its cold encode a
    /// stream's selection floor serves at least 95 % of its Sends (each
    /// miss is one full-length histogram sweep), and — the exactness
    /// argument, end to end — forgetting the floor before every encode
    /// changes the sweep count and not one bit of the report.
    #[test]
    fn topk_floor_serves_the_reference_run_and_cannot_move_its_digest() {
        use super::super::compression::FORGET_FLOORS;

        let topo = Topology::ring_based(16);
        let cluster = ClusterSpec::uniform(16, 4, 0.05, LinkModel::ethernet_1gbps());
        let slow = SlowdownModel::paper_straggler(16, 0, 6.0);
        let config = WebspamConfig {
            dim: 64 * 1024,
            nnz_per_example: 32,
            label_noise: 0.05,
        };
        let dataset = SyntheticWebspam::generate_with(256, 1, config);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cfg = HopConfig::backup(1, 5)
            .with_skip(SkipConfig::with_max_jump(10))
            .with_compression(CompressionConfig::TopK { ratio: 0.01 });
        let run = |forget: bool| {
            let eval = EvalConfig {
                every: 20,
                examples: 64,
            };
            let hyper = Hyper::svm();
            let engine = SimEngine::new(
                cluster.clone(),
                16,
                &slow,
                &model,
                &dataset,
                &hyper,
                60,
                1,
                eval,
            );
            let mut proto = Decentralized::new(&cfg, &topo, &engine);
            FORGET_FLOORS.set(forget);
            let report = engine.drive(&mut proto);
            FORGET_FLOORS.set(false);
            assert!(!report.deadlocked && !report.budget_exhausted);
            let hints: Vec<_> = (0..16).map(|w| *proto.plane.selection(w)).collect();
            (report.digest(), hints)
        };
        let (digest, hints) = run(false);
        for (w, hint) in hints.iter().enumerate() {
            // The straggler skips ahead and sends a dozen times only, so
            // its cold encode is counted apart from the 5 %.
            let (encodes, misses) = (hint.encodes(), hint.histogram_passes() - 1);
            assert!(encodes >= 10, "worker {w} sent {encodes} times");
            assert!(
                20 * misses <= encodes,
                "worker {w}: {misses} warm misses in {encodes} encodes"
            );
        }
        let (forgetful_digest, forgetful) = run(true);
        for hint in &forgetful {
            assert_eq!(hint.histogram_passes(), hint.encodes());
        }
        assert_eq!(digest, forgetful_digest);
    }

    /// Every block a worker lets go returns to the engine's one pool,
    /// the stale updates its rotating queue purges included. So the
    /// reference run (`sim_ref16_int8`'s recipe on 256 examples) stops
    /// allocating 256 KB buffers once warm: as many fresh acquires after
    /// 100 iterations as after 150, about the blocks in flight at once.
    /// (A purge that dropped its blocks let them go outside the pool:
    /// 257 fresh acquires by iteration 110, still climbing.)
    #[test]
    fn the_reference_runs_pool_stops_allocating_once_warm() {
        use super::super::engine::POOL_STATS;

        let mut cluster = ClusterSpec::uniform(16, 4, 0.05, LinkModel::ethernet_1gbps());
        let mut rng = hop_util::Xoshiro256::seed_from_u64(1);
        for w in 0..16 {
            cluster.set_compute_time(w, 0.05 * (0.98 + 0.04 * rng.next_f64()));
        }
        let config = WebspamConfig {
            dim: 64 * 1024,
            nnz_per_example: 32,
            label_noise: 0.05,
        };
        let dataset = SyntheticWebspam::generate_with(256, 1, config);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cfg = HopConfig::backup(1, 5)
            .with_skip(SkipConfig::with_max_jump(10))
            .with_compression(CompressionConfig::Int8Uniform);
        let fresh = |max_iters| {
            let exp = SimExperiment {
                topology: Topology::ring_based(16),
                cluster: cluster.clone(),
                slowdown: SlowdownModel::paper_straggler(16, 0, 6.0),
                protocol: Protocol::Hop(cfg.clone()),
                hyper: Hyper::svm(),
                max_iters,
                seed: 1,
                eval_every: 10,
                eval_examples: 256,
            };
            let report = exp.run(&model, &dataset).expect("valid Hop experiment");
            assert!(!report.deadlocked);
            POOL_STATS.get().fresh
        };
        let (warm, later) = (fresh(100), fresh(150));
        assert_eq!(warm, later, "fresh buffers after 100 and 150 iterations");
        assert!(warm <= 100, "{warm} fresh buffers");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_cfg(HopConfig::standard(), 25, SlowdownModel::paper_random(4));
        let b = run_cfg(HopConfig::standard(), 25, SlowdownModel::paper_random(4));
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.trace.records(), b.trace.records());
    }
}
