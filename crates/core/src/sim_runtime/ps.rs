//! Simulated parameter-server baselines (§2.1): BSP, SSP and fully
//! asynchronous coordination.
//!
//! The server lives on its own machine (as in §7.3.2, which adds one
//! machine for the PS). All worker↔server traffic shares the server's
//! NICs, reproducing the communication hotspot that decentralized training
//! eliminates.
//!
//! Both coordination styles run through the shared
//! [`super::engine::SimEngine`]: BSP as a round-per-event protocol,
//! SSP/Async as a message-per-event protocol. The global parameter vector
//! and optimizer live in the protocol (there is one logical replica on the
//! server, not one per worker).

use crate::config::{PsConfig, PsMode};
use crate::report::TrainingReport;
use crate::trainer::SimRun;
use hop_model::Sgd;
use hop_tensor::ParamBlock;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerProtocol};

/// Runs a parameter-server experiment. The experiment's cluster describes
/// the workers only; the server node is appended on its own machine.
pub(crate) fn run(cfg: &PsConfig, sim: &SimRun<'_>) -> TrainingReport {
    let mut spec = sim.exp.cluster.clone();
    let server = spec.push_server_node(1e-3);
    // The engine's event type is fixed at construction, so each mode
    // builds its own engine over the same spec.
    match cfg.mode {
        PsMode::Bsp => {
            let engine = sim.engine_on(spec);
            let mut proto = BspServer::new(server, cfg.compression, &engine);
            engine.drive(&mut proto)
        }
        PsMode::Ssp(s) => {
            let engine = sim.engine_on(spec);
            let mut proto = AsyncServer::new(server, Some(s), cfg.compression, &engine);
            engine.drive(&mut proto)
        }
        PsMode::Async => {
            let engine = sim.engine_on(spec);
            let mut proto = AsyncServer::new(server, None, cfg.compression, &engine);
            engine.drive(&mut proto)
        }
    }
}

/// Server-side apply cost per round/update (seconds).
const APPLY_COST: f64 = 1e-3;

/// One BSP round: broadcast, compute everywhere, gather, apply. The
/// round starts at the event's scheduled time.
struct BspRound {
    k: u64,
}

/// Bulk-synchronous parameter server: a global barrier every iteration,
/// driven as one event per round.
struct BspServer {
    server: usize,
    /// The single global replica; never snapshotted (BSP broadcast is
    /// modeled analytically), so mutation always hits the fast in-place
    /// path.
    params: ParamBlock,
    opt: Sgd,
    grad: Vec<f32>,
    mean_grad: Vec<f32>,
    /// Stream 0: the broadcast (one stream — every worker receives the
    /// identical reconstruction). Streams `1..=n`: per-worker gradient
    /// pushes under plain error feedback.
    plane: CompressionPlane,
}

impl BspServer {
    fn new(
        server: usize,
        compression: hop_tensor::CompressionConfig,
        eng: &SimEngine<'_, BspRound>,
    ) -> Self {
        let dim = eng.init_params().len();
        let mut plane = CompressionPlane::new(compression);
        plane.add_param_streams(1, eng.init_params());
        plane.add_grad_streams(eng.workers.len());
        Self {
            server,
            params: eng.init_block(),
            opt: eng.new_opt(),
            grad: vec![0.0; dim],
            mean_grad: vec![0.0; dim],
            plane,
        }
    }
}

impl WorkerProtocol for BspServer {
    type Event = BspRound;

    fn start(&mut self, eng: &mut SimEngine<'_, BspRound>) {
        eng.events.push(0.0, BspRound { k: 0 });
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, BspRound>, now: f64, ev: BspRound) {
        let BspRound { k } = ev;
        let t = now;
        let n = eng.workers.len();
        if k >= eng.max_iters {
            for w in 0..n {
                eng.finish_worker_at(w, k, now);
            }
            return;
        }
        // Broadcast (serialized through the server's egress NIC). Under a
        // lossy codec the server encodes the round's step once and every
        // worker receives (and computes on) the same reconstruction.
        // The fault plane does not apply here: BSP/SSP rounds are
        // computed analytically (one event covers the whole round, there
        // is no per-message delivery to gate), hence `churn: false` in
        // the choreographies above — chaos experiments use the
        // per-message protocols.
        let (bcast, bcast_bytes) = if self.plane.is_active() {
            let (recon, wire) =
                self.plane
                    .encode_params(0, self.params.as_slice(), None, &mut eng.pool);
            self.plane.charge(n as u64, eng.param_bytes, wire);
            (Some(recon), wire)
        } else {
            (None, eng.param_bytes)
        };
        let arrivals: Vec<f64> = (0..n)
            .map(|w| eng.net.transfer(t, self.server, w, bcast_bytes))
            .collect();
        for (w, &a) in arrivals.iter().enumerate() {
            eng.iters[w] = k;
            eng.record_enter(w, k, a);
        }
        // Compute + push gradients; server ingress serializes the pushes.
        // Each push runs through its worker's gradient stream, so the
        // server averages the lossy reconstructions it actually received.
        self.mean_grad.fill(0.0);
        let mut round_end = t;
        for w in 0..n {
            let done = arrivals[w] + eng.compute_duration(w, k);
            let loss = eng.sample_grad(w, bcast.as_ref().unwrap_or(&self.params), &mut self.grad);
            eng.recorder.train_loss(w, k, done, loss);
            let push_bytes = if self.plane.is_active() {
                let wire = self.plane.encode_grad(1 + w, &mut self.grad, &mut eng.pool);
                self.plane.charge(1, eng.param_bytes, wire);
                wire
            } else {
                eng.param_bytes
            };
            hop_tensor::ops::axpy(1.0 / n as f32, &self.grad, &mut self.mean_grad);
            let grad_arrival = eng.net.transfer(done, w, self.server, push_bytes);
            round_end = round_end.max(grad_arrival);
        }
        if let Some(b) = bcast {
            eng.pool.reclaim(b);
        }
        let t = round_end + APPLY_COST;
        self.opt.step_block(&mut self.params, &self.mean_grad);
        if eng.recorder.eval_due(k + 1) {
            let view: Vec<&[f32]> = vec![self.params.as_slice()];
            eng.recorder
                .evaluate(eng.model, eng.dataset, &view, t, k + 1);
        }
        eng.events.push(t, BspRound { k: k + 1 });
    }

    fn final_params(&mut self, eng: &SimEngine<'_, BspRound>) -> Vec<Vec<f32>> {
        // Report convention: one vector per worker (all hold the server
        // replica after the final broadcast).
        vec![self.params.to_vec(); eng.workers.len()]
    }

    fn bytes_saved(&self, _eng: &SimEngine<'_, BspRound>) -> u64 {
        self.plane.bytes_saved()
    }
}

enum AsyncEv {
    /// Fresh parameters reached the worker; it starts computing. The
    /// payload is a zero-copy snapshot of the server replica at pull time.
    ParamsArrive { w: usize, params: ParamBlock },
    /// A worker's gradient reached the server (buffer from the engine
    /// pool, released after the server applies it).
    GradArrive {
        w: usize,
        grad: Vec<f32>,
        compute_done: f64,
        loss: f32,
    },
}

/// Asynchronous/SSP parameter server: workers pull, compute and push
/// independently; the server applies each gradient to the current
/// parameters (§2.1's asynchronous coordination) and re-issues parameters
/// subject to the staleness constraint.
struct AsyncServer {
    server: usize,
    staleness: Option<u64>,
    /// Global replica; every pull is a snapshot, every apply detaches
    /// copy-on-write from the snapshots still in flight.
    params: ParamBlock,
    opt: Sgd,
    blocked: Vec<bool>,
    /// Streams `0..n`: per-worker parameter pulls (pulls happen at
    /// different server states, so each worker tracks its own
    /// reconstruction). Streams `n..2n`: per-worker gradient pushes.
    plane: CompressionPlane,
}

impl AsyncServer {
    fn new(
        server: usize,
        staleness: Option<u64>,
        compression: hop_tensor::CompressionConfig,
        eng: &SimEngine<'_, AsyncEv>,
    ) -> Self {
        let n = eng.workers.len();
        let mut plane = CompressionPlane::new(compression);
        plane.add_param_streams(n, eng.init_params());
        plane.add_grad_streams(n);
        Self {
            server,
            staleness,
            params: eng.init_block(),
            opt: eng.new_opt(),
            blocked: vec![false; n],
            plane,
        }
    }

    /// Encodes worker `w`'s next parameter pull, or snapshots the exact
    /// replica under the identity codec. Returns the payload to ship and
    /// the wire bytes to charge the server's egress NIC.
    fn pull_payload(
        &mut self,
        w: usize,
        pool: &mut hop_tensor::BufferPool,
        param_bytes: u64,
    ) -> (ParamBlock, u64) {
        if self.plane.is_active() {
            let (snap, wire) = self
                .plane
                .encode_params(w, self.params.as_slice(), None, pool);
            self.plane.charge(1, param_bytes, wire);
            (snap, wire)
        } else {
            (self.params.snapshot(), param_bytes)
        }
    }
}

impl WorkerProtocol for AsyncServer {
    type Event = AsyncEv;

    fn start(&mut self, eng: &mut SimEngine<'_, AsyncEv>) {
        // Initial broadcast: every worker gets a snapshot of one
        // allocation (or, compressed, its stream's reconstruction).
        for w in 0..eng.workers.len() {
            let (snap, bytes) = self.pull_payload(w, &mut eng.pool, eng.param_bytes);
            // Fault gate: a dropped pull stalls the worker for good (the
            // async server has no retry) — the degradation chaos sweeps
            // measure.
            match eng.transfer_gated(self.server, w, bytes, 0.0, 0) {
                Some(a) => eng
                    .events
                    .push(a, AsyncEv::ParamsArrive { w, params: snap }),
                None => eng.pool.reclaim(snap),
            }
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, AsyncEv>, now: f64, ev: AsyncEv) {
        match ev {
            AsyncEv::ParamsArrive { w, params: snap } => {
                let k = eng.iters[w];
                eng.record_enter(w, k, now);
                let compute_done = now + eng.compute_duration(w, k);
                let mut grad = eng.pool.acquire_stale(snap.len());
                // The gradient is taken on the pulled (possibly stale)
                // snapshot, not on whatever the server holds by then.
                let loss = eng.sample_grad(w, &snap, &mut grad);
                eng.pool.reclaim(snap);
                // Push through the worker's gradient stream: the server
                // will apply the reconstruction it actually receives.
                let push_bytes = if self.plane.is_active() {
                    let n = eng.workers.len();
                    let wire = self.plane.encode_grad(n + w, &mut grad, &mut eng.pool);
                    self.plane.charge(1, eng.param_bytes, wire);
                    wire
                } else {
                    eng.param_bytes
                };
                match eng.transfer_gated(w, self.server, push_bytes, compute_done, k) {
                    Some(arrival) => eng.events.push(
                        arrival,
                        AsyncEv::GradArrive {
                            w,
                            grad,
                            compute_done,
                            loss,
                        },
                    ),
                    // A lost push strands the worker: the server never
                    // learns it finished, so no fresh pull is issued.
                    None => eng.pool.release(grad),
                }
            }
            AsyncEv::GradArrive {
                w,
                grad,
                compute_done,
                loss,
            } => {
                // The gradient was computed on (possibly stale) pulled
                // parameters but is applied to the current ones (§2.1's
                // asynchronous coordination).
                self.opt.step_block(&mut self.params, &grad);
                eng.pool.release(grad);
                eng.recorder.train_loss(w, eng.iters[w], compute_done, loss);
                eng.iters[w] += 1;
                if w == 0 && eng.recorder.eval_due(eng.iters[0]) {
                    let view: Vec<&[f32]> = vec![self.params.as_slice()];
                    let iter0 = eng.iters[0];
                    eng.recorder
                        .evaluate(eng.model, eng.dataset, &view, now, iter0);
                }
                if eng.iters[w] >= eng.max_iters {
                    eng.finish_worker_at(w, eng.iters[w], now);
                } else {
                    self.blocked[w] = true;
                }
                // Unblock every worker whose staleness constraint now holds.
                let min_iter = (0..eng.workers.len())
                    .filter(|&v| !eng.is_finished(v))
                    .map(|v| eng.iters[v])
                    .min()
                    .unwrap_or(eng.max_iters);
                for v in 0..eng.workers.len() {
                    if !self.blocked[v] || eng.is_finished(v) {
                        continue;
                    }
                    let ok = match self.staleness {
                        Some(s) => eng.iters[v] <= min_iter + s,
                        None => true,
                    };
                    if ok {
                        self.blocked[v] = false;
                        let (snap, bytes) = self.pull_payload(v, &mut eng.pool, eng.param_bytes);
                        match eng.transfer_gated(self.server, v, bytes, now, eng.iters[v]) {
                            Some(a) => eng
                                .events
                                .push(a, AsyncEv::ParamsArrive { w: v, params: snap }),
                            None => eng.pool.reclaim(snap),
                        }
                    }
                }
            }
        }
    }

    fn final_params(&mut self, eng: &SimEngine<'_, AsyncEv>) -> Vec<Vec<f32>> {
        // Report convention: one vector per worker.
        vec![self.params.to_vec(); eng.workers.len()]
    }

    fn bytes_saved(&self, _eng: &SimEngine<'_, AsyncEv>) -> u64 {
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

    fn run_mode(mode: PsMode, slow: SlowdownModel, iters: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(256, 7);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        SimExperiment {
            topology: Topology::ring(4),
            cluster: ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: slow,
            protocol: Protocol::Ps(PsConfig::new(mode)),
            hyper: Hyper {
                lr: 0.5,
                momentum: 0.9,
                weight_decay: 1e-7,
                batch_size: 16,
            },
            max_iters: iters,
            seed: 5,
            eval_every: 10,
            eval_examples: 64,
        }
        .run(&model, &dataset)
        .expect("valid PS experiment")
    }

    #[test]
    fn bsp_learns() {
        let r = run_mode(PsMode::Bsp, SlowdownModel::None, 60);
        assert!(!r.deadlocked);
        let first = r.eval_time.points()[0].1;
        let last = r.eval_time.last().unwrap().1;
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn bsp_rounds_are_lockstep() {
        let r = run_mode(PsMode::Bsp, SlowdownModel::None, 20);
        assert!(r.trace.max_gap() <= 1);
        // One entry per iteration 0..=max_iters, so max_iters durations.
        for w in 0..4 {
            assert_eq!(r.trace.durations(w).len(), 20);
        }
    }

    #[test]
    fn bsp_straggler_slows_every_round() {
        let fast = run_mode(PsMode::Bsp, SlowdownModel::None, 30);
        let slow = run_mode(PsMode::Bsp, SlowdownModel::paper_straggler(4, 0, 6.0), 30);
        // With one 6x straggler every BSP round waits for it.
        assert!(slow.wall_time > fast.wall_time * 3.0);
    }

    #[test]
    fn async_outpaces_bsp_under_straggler() {
        let slowdown = SlowdownModel::paper_straggler(4, 0, 6.0);
        let bsp = run_mode(PsMode::Bsp, slowdown.clone(), 30);
        let asy = run_mode(PsMode::Async, slowdown, 30);
        assert!(!asy.deadlocked);
        assert!(asy.wall_time < bsp.wall_time);
    }

    #[test]
    fn ssp_bounds_the_gap() {
        let slowdown = SlowdownModel::paper_straggler(4, 0, 6.0);
        let ssp = run_mode(PsMode::Ssp(3), slowdown, 40);
        assert!(!ssp.deadlocked);
        // SSP's global bound: fastest - slowest <= s + 1 at entry times.
        assert!(ssp.trace.max_gap() <= 4, "gap {}", ssp.trace.max_gap());
    }

    #[test]
    fn ssp_learns() {
        let r = run_mode(PsMode::Ssp(2), SlowdownModel::paper_random(4), 60);
        let first = r.eval_time.points()[0].1;
        let last = r.eval_time.last().unwrap().1;
        assert!(last < first);
    }
}
