//! The real runtimes' executor of the Hop worker machine.
//!
//! [`worker_loop`] runs one [`HopWorker`] (see [`crate::machine`], where
//! the iteration's rules live) for every runtime that executes workers
//! for real. Each worker owns its [`Inbox`]: what has arrived for it and
//! not yet been fed to its machine. What differs between threads and OS
//! processes is only how updates and token grants leave the worker and
//! get into a peer's inbox, and that is the [`Transport`] the executor is
//! generic over (static dispatch).
//!
//! The executor pumps the transport into the inbox and feeds the machine
//! every arrival, then a resume; the machine parks when its Recv, its
//! tokens or its renew are not there yet, and the executor then waits —
//! always in the one [`Inbox::wait`], until something arrives or the
//! parked wait's timeout passes, which becomes an explained stall built
//! from the machine's phase. The compute runs inline, when the machine
//! asks for it; the simulated compute time is the only other wait. The
//! executor also keeps the fault shim in front of per-receiver delivery
//! and the close handshake; the transports emit no events and make no
//! protocol decisions.
//!
//! Both runtimes share their front end too: [`validate`] is the one
//! check of what they can run, and [`assemble`] turns every worker's
//! outcome or error and its stamped events into the run's
//! [`RuntimeReport`] and merged trace — the partial trace, handed back
//! with the error, when the run failed.
//!
//! # Linearization
//!
//! Events are numbered as they are emitted (a shared sequence on threads,
//! the Lamport clock on processes). Every `Send` of iteration `k` is
//! stamped before [`Transport::deliver`] runs (the process transport
//! encodes one frame, reading the Lamport clock once, and fans it out),
//! token grants before [`Transport::grant`], and everything the machine
//! observes — admits, consumes, token takes — after the pump that moved
//! the data in, since the machine is fed only from the inbox: the
//! grant-before-op, observe-after-op discipline of [`crate::conformance`].

use crate::choreography::{self, EventSink, SendStage, Step};
use crate::config::{ComputeOrder, ConfigError, HopConfig, SyncMode};
use crate::conformance::{ProtocolEvent, ProtocolTrace};
use crate::machine::{Executor, HopWorker, Input, Parts, Phase, Shared};
use crate::report::{FailedRun, RuntimeError, RuntimeReport, StallDiag};
use crate::sim_runtime::compression::CompressionPlane;
use crate::trainer::Hyper;
use hop_data::{BatchSampler, Dataset, InMemoryDataset};
use hop_graph::Topology;
use hop_model::{GradScratch, Gradient, Model, Sgd};
use hop_queue::tagged::{Tag, TaggedEntry};
use hop_sim::{FaultEvent, FaultPlan};
use hop_tensor::{BufferPool, ParamBlock};
use std::time::{Duration, Instant};

/// How updates and token grants leave a worker, and how what arrives for
/// it gets into its [`Inbox`]: data in and out, nothing else. Indices are
/// positions in the worker's [`Topology::external_out_neighbors`]
/// (`deliver`, and the inbox's token counts) and
/// [`Topology::external_in_neighbors`] (`grant`) lists.
pub(crate) trait Transport {
    /// Empty pump rounds — a pump that does not block, then
    /// `thread::yield_now` — an [`Inbox::wait`] makes before its pumps
    /// block.
    const SPIN_ROUNDS: u32;

    /// Moves whatever has arrived into `inbox`, blocking up to `timeout`
    /// for the first arrival. Says whether anything moved.
    fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool;

    /// The transport's first failure (a link broke), once it knows that
    /// no wait can be satisfied any more: a wait then gives up at once,
    /// and a stall is reported as this, its cause.
    fn failure(&self) -> Option<RuntimeError> {
        None
    }

    /// Per-iteration health check at the entry of iteration `k`.
    fn check(&mut self, _k: u64) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Delivers this iteration's update, tagged `tag`, to the listed
    /// external out-neighbors (the ones the fault shim let through),
    /// stepping the worker's codec `plane` once however the transport
    /// ships the result; `max_delta` is the step's int8 maximum if the
    /// last Reduce measured it ([`Executor::send`]).
    fn deliver(
        &mut self,
        tag: Tag,
        params: &ParamBlock,
        max_delta: Option<f32>,
        receivers: &[usize],
        plane: &mut CompressionPlane,
        pool: &mut BufferPool,
    ) -> Result<(), RuntimeError>;

    /// Grants `n` tokens to the `idx`-th external in-neighbor.
    fn grant(&mut self, idx: usize, n: u64) -> Result<(), RuntimeError>;

    /// The close, after the final token flood: asked again after every
    /// pump of [`Inbox::close`] until it says the transport is closed.
    /// Fails with the transport's first failure.
    fn finish(&mut self) -> Result<bool, RuntimeError> {
        Ok(true)
    }
}

/// What has arrived for a worker and not yet been fed to its machine:
/// updates in arrival order, and the tokens granted into each
/// `TokenQ(o -> w)` per external out-neighbor `o` (no counts without
/// token queues). The worker owns it; only [`Transport::pump`] adds to it.
pub(crate) struct Inbox {
    pub(crate) updates: Vec<TaggedEntry<ParamBlock>>,
    pub(crate) tokens: Vec<u64>,
}

impl Inbox {
    /// An empty inbox with `token_queues` token counts.
    pub(crate) fn new(token_queues: usize) -> Self {
        Inbox {
            updates: Vec::new(),
            tokens: vec![0; token_queues],
        }
    }

    fn has_arrivals(&self) -> bool {
        !self.updates.is_empty() || self.tokens.iter().any(|&n| n > 0)
    }

    /// Pumps `transport` into the inbox until `ready` holds (asked before
    /// every round), the transport breaks, or `timeout` passes; says
    /// whether `ready` came to hold. The first [`Transport::SPIN_ROUNDS`]
    /// pumps that move nothing do not block, and each is followed by a
    /// yield.
    pub(crate) fn wait<T: Transport>(
        &mut self,
        transport: &mut T,
        timeout: Duration,
        mut ready: impl FnMut(&mut T, &Self) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut spins = 0;
        loop {
            if ready(transport, self) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if transport.failure().is_some() || left.is_zero() {
                return false;
            }
            if spins < T::SPIN_ROUNDS {
                if !transport.pump(self, Duration::ZERO) {
                    spins += 1;
                    std::thread::yield_now();
                }
            } else {
                transport.pump(self, left);
            }
        }
    }

    /// Closes `transport`: pumps until [`Transport::finish`] says it is
    /// closed, the transport fails, or `timeout` passes (a close that
    /// runs out of time without a failure is not one).
    pub(crate) fn close<T: Transport>(
        &mut self,
        transport: &mut T,
        timeout: Duration,
    ) -> Result<(), RuntimeError> {
        let mut failure = None;
        self.wait(transport, timeout, |t, _| {
            t.finish().unwrap_or_else(|e| {
                failure = Some(e);
                true
            })
        });
        failure.map_or(Ok(()), Err)
    }
}

/// One worker's share of an experiment.
pub(crate) struct WorkerJob<'a> {
    pub(crate) w: usize,
    pub(crate) cfg: &'a HopConfig,
    pub(crate) topo: &'a Topology,
    pub(crate) model: &'a dyn Model,
    pub(crate) dataset: &'a InMemoryDataset,
    pub(crate) hyper: Hyper,
    pub(crate) max_iters: u64,
    pub(crate) seed: u64,
    pub(crate) compute_sleep: Duration,
    pub(crate) timeout: Duration,
    /// Shared by all workers; the first write detaches copy-on-write.
    pub(crate) init_params: &'a ParamBlock,
    /// Loss + crash-as-send-omission shim (see [`crate::threaded`]); the
    /// empty plan injects nothing.
    pub(crate) faults: &'a FaultPlan,
}

/// What a worker that ran to completion hands back.
#[derive(Default)]
pub(crate) struct WorkerOutcome {
    pub(crate) params: Vec<f32>,
    /// Minibatch loss per computed (not skipped) iteration.
    pub(crate) losses: Vec<f32>,
    /// Every send the fault shim omitted.
    pub(crate) faults: Vec<FaultEvent>,
    /// Block payload bytes of every attempted external send (0 where
    /// nothing crosses a wire).
    pub(crate) wire_bytes: u64,
    /// Every input the machine was fed, in order, for an offline replay.
    #[cfg(test)]
    pub(crate) inputs: Vec<Input>,
}

/// The real executor of worker `job.w`: its replica, optimizer, compute
/// state and codec stream, and the inbox it pumps from `transport`.
struct Real<'j, 'a, T, S> {
    job: &'j WorkerJob<'a>,
    transport: &'j mut T,
    sink: &'j mut S,
    inbox: Inbox,
    params: ParamBlock,
    opt: Sgd,
    pool: BufferPool,
    /// One outgoing parameter stream: every external receiver gets the
    /// identical encoding, so the codec state is worker-local and
    /// lock-free. The self-send stays exact.
    plane: CompressionPlane,
    sampler: BatchSampler,
    grad: Gradient,
    scratch: GradScratch,
    indices: Vec<usize>,
    losses: Vec<f32>,
    faults: Vec<FaultEvent>,
    receivers: Vec<usize>,
    /// A gradient is computed and its `ComputeDone` not yet fed.
    computed: bool,
    #[cfg(test)]
    inputs: Vec<Input>,
}

impl<T: Transport, S: EventSink> Executor for Real<'_, '_, T, S> {
    type Error = RuntimeError;
    type Sink = S;
    /// Arrival order depends on the schedule; sender order makes a Reduce
    /// over the same set round the same way every run.
    const SENDER_ORDER: bool = true;
    /// A late update pins a block until it is purged; the real runtimes
    /// free it at the next Recv.
    const EAGER_PURGE: bool = true;

    fn parts(&mut self) -> Parts<'_, S> {
        Parts {
            params: &mut self.params,
            opt: &mut self.opt,
            pool: &mut self.pool,
            sink: self.sink,
            grad: self.grad.as_slice(),
            reference: self.plane.int8_reference(0),
        }
    }

    /// The transport's health check of an iteration to run — after the
    /// entry is on record, so that even a run that dies at its first
    /// check leaves a non-empty partial trace.
    fn enter(&mut self, iter: u64) -> Result<(), RuntimeError> {
        if iter < self.job.max_iters {
            self.transport.check(iter)?;
        }
        Ok(())
    }

    fn compute(&mut self, _iter: u64) {
        let job = self.job;
        if !job.compute_sleep.is_zero() {
            std::thread::sleep(job.compute_sleep);
        }
        let batch = self.sampler.next_batch_with(&mut self.indices, job.dataset);
        let loss = job.model.loss_grad_into(
            self.params.as_slice(),
            &batch,
            &mut self.grad,
            &mut self.scratch,
        );
        self.losses.push(loss);
        self.computed = true;
    }

    /// The fault shim, then the transport: a crash window omits every
    /// external send (the worker keeps running — from the outside that is
    /// what a dead worker looks like); otherwise the keyed loss draw
    /// decides. Each omission stays in the ledger as a Send + Lost pair
    /// and is logged so the oracle can license it.
    fn send<St: SendStage>(
        &mut self,
        step: &Step<St>,
        params: &ParamBlock,
        max_delta: Option<f32>,
    ) -> Result<(), RuntimeError> {
        let (job, k) = (self.job, step.iter());
        let w = job.w;
        let crashed = job
            .faults
            .crashes()
            .iter()
            .any(|c| c.worker == w && k >= c.at_iter && k < c.at_iter + c.down_iters);
        let rate = job.faults.loss();
        self.receivers.clear();
        for (idx, &o) in job.topo.external_out_neighbors(w).iter().enumerate() {
            step.send(self.sink, o);
            if crashed || (rate > 0.0 && hop_sim::faults::loss_draw(job.seed, w, o, k) < rate) {
                choreography::lost_update(self.sink, o, w, k);
                self.faults.push(FaultEvent::Loss {
                    from: w,
                    to: o,
                    iter: k,
                });
            } else {
                self.receivers.push(idx);
            }
        }
        let tag = Tag { iter: k, w_id: w };
        self.transport.deliver(
            tag,
            params,
            max_delta,
            &self.receivers,
            &mut self.plane,
            &mut self.pool,
        )
    }

    fn grant(&mut self, n: u64) -> Result<(), RuntimeError> {
        let w = self.job.w;
        for (idx, &j) in self.job.topo.external_in_neighbors(w).iter().enumerate() {
            choreography::token_grant(self.sink, w, j, n);
            self.transport.grant(idx, n)?;
        }
        Ok(())
    }
}

impl<'j, 'a, T: Transport, S: EventSink> Real<'j, 'a, T, S> {
    fn new(job: &'j WorkerJob<'a>, transport: &'j mut T, sink: &'j mut S) -> Self {
        let (w, cfg, hyper) = (job.w, job.cfg, job.hyper);
        let params = job.init_params.snapshot();
        let dim = params.len();
        let mut plane = CompressionPlane::new(cfg.compression);
        plane.add_param_streams(1, job.init_params.as_slice());
        let outs = job.topo.external_out_neighbors(w).len();
        Real {
            job,
            transport,
            sink,
            inbox: Inbox::new(cfg.max_ig().map_or(0, |_| outs)),
            params,
            opt: Sgd::new(hyper.lr, hyper.momentum, hyper.weight_decay, dim),
            pool: BufferPool::new(),
            plane,
            sampler: BatchSampler::for_worker(job.dataset.len(), hyper.batch_size, job.seed, w),
            grad: Gradient::zeros(dim),
            scratch: GradScratch::new(),
            indices: Vec::new(),
            losses: Vec::with_capacity(job.max_iters as usize),
            faults: Vec::new(),
            receivers: Vec::with_capacity(outs),
            computed: false,
            #[cfg(test)]
            inputs: Vec::new(),
        }
    }

    fn feed(
        &mut self,
        worker: &mut HopWorker,
        cx: &mut Shared<'_>,
        input: Input,
    ) -> Result<(), RuntimeError> {
        #[cfg(test)]
        self.inputs.push(input.clone());
        worker.on(cx, self, input)
    }

    /// Feeds the machine everything the pumps moved into the inbox.
    fn feed_arrivals(
        &mut self,
        worker: &mut HopWorker,
        cx: &mut Shared<'_>,
    ) -> Result<(), RuntimeError> {
        let mut arrived = std::mem::take(&mut self.inbox.updates);
        for TaggedEntry { value, tag } in arrived.drain(..) {
            let (from, iter) = (tag.w_id, tag.iter);
            let params = value;
            self.feed(worker, cx, Input::Update { from, iter, params })?;
        }
        self.inbox.updates = arrived;
        for slot in 0..self.inbox.tokens.len() {
            let count = std::mem::take(&mut self.inbox.tokens[slot]);
            if count > 0 {
                self.feed(worker, cx, Input::Tokens { slot, count })?;
            }
        }
        Ok(())
    }

    /// The explained stall of the wait `worker` is parked in (its Recv,
    /// its tokens or its renew; the real runtimes run no NOTIFY-ACK), with
    /// the state of the queue it waits on: a token wait shows every
    /// out-edge token queue, an update wait the update queue.
    fn stall(&self, worker: &HopWorker) -> RuntimeError {
        let (job, w) = (self.job, self.job.w);
        let waiting_for = match worker.phase {
            Phase::WaitTokens(_) => "tokens",
            Phase::JumpRecv(_) => "jump-renew updates",
            _ if job.cfg.staleness.is_some() => "a satisfactory update",
            _ => "updates",
        };
        let diag = if let Phase::WaitTokens(_) = worker.phase {
            let owners = job.topo.external_out_neighbors(w).iter().copied();
            StallDiag::Tokens {
                available: owners.zip(worker.tokens_from.iter().copied()).collect(),
            }
        } else {
            let mut pending: Vec<Tag> = worker.queue.iter().map(|e| e.tag).collect();
            let queue_depth = pending.len();
            pending.truncate(8);
            StallDiag::Updates {
                queue_depth,
                pending,
                last_consumed: worker.last_consumed,
            }
        };
        RuntimeError::Stalled {
            worker: w,
            iter: worker.iter,
            waiting_for,
            diag,
        }
    }
}

/// Runs worker `job.w` to `job.max_iters` over `transport`, emitting its
/// protocol events into `sink` (which the caller keeps, so a failed
/// run's partial log survives). A timed-out wait fails as the
/// transport's failure if it has one (a dead peer is the cause; the
/// stall is the symptom), else as the stall.
pub(crate) fn worker_loop<T: Transport>(
    job: &WorkerJob<'_>,
    transport: &mut T,
    sink: &mut impl EventSink,
) -> Result<WorkerOutcome, RuntimeError> {
    let mut run = Real::new(job, transport, sink);
    let mut cx = Shared::new(job.cfg, job.topo, job.max_iters);
    let mut worker = HopWorker::new(&cx, job.w);
    run.feed(&mut worker, &mut cx, Input::Start)?;
    // The parked wait and its deadline: a new one whenever the worker
    // parks anew.
    let mut wait = None;
    while !matches!(worker.phase, Phase::Finished) {
        if std::mem::take(&mut run.computed) {
            // What arrived during the compute, then its end.
            run.transport.pump(&mut run.inbox, Duration::ZERO);
            run.feed_arrivals(&mut worker, &mut cx)?;
            run.feed(&mut worker, &mut cx, Input::ComputeDone)?;
            continue;
        }
        let parked = (worker.iter, std::mem::discriminant(&worker.phase));
        let deadline = match wait {
            Some((was, deadline)) if was == parked => deadline,
            _ => {
                let deadline = Instant::now() + job.timeout;
                wait = Some((parked, deadline));
                deadline
            }
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if !run
            .inbox
            .wait(run.transport, left, |_, inbox| inbox.has_arrivals())
        {
            return Err(run
                .transport
                .failure()
                .unwrap_or_else(|| run.stall(&worker)));
        }
        run.feed_arrivals(&mut worker, &mut cx)?;
        run.feed(&mut worker, &mut cx, Input::Resume)?;
    }
    run.inbox.close(run.transport, job.timeout)?;
    Ok(WorkerOutcome {
        params: run.params.to_vec(),
        losses: run.losses,
        faults: run.faults,
        wire_bytes: 0,
        #[cfg(test)]
        inputs: run.inputs,
    })
}

/// What the real runtimes can run: a valid config and fault plan with
/// no byzantine worker, in the parallel order with queue-based
/// synchronization.
pub(crate) fn validate(
    cfg: &HopConfig,
    topo: &Topology,
    faults: &FaultPlan,
) -> Result<(), RuntimeError> {
    cfg.validate(topo).map_err(RuntimeError::Config)?;
    faults
        .validate()
        .and_then(|()| match faults.byzantine() {
            [] => Ok(()),
            _ => Err("byzantine corruption is simulator-only"),
        })
        .map_err(|why| RuntimeError::Config(ConfigError::InvalidFaultPlan(why)))?;
    if cfg.order != ComputeOrder::Parallel {
        return Err(RuntimeError::Unsupported("the serial compute order"));
    }
    if cfg.sync == SyncMode::NotifyAck {
        return Err(RuntimeError::Unsupported("NOTIFY-ACK synchronization"));
    }
    Ok(())
}

/// One worker's share of a finished run: its outcome or error, and its
/// stamped events (empty on an untraced run).
pub(crate) type WorkerRun = (
    Result<WorkerOutcome, RuntimeError>,
    Vec<(u64, ProtocolEvent)>,
);

/// The run's report from every worker's share, in worker order, and its
/// trace: every worker's events merged by `(stamp, worker)`. The run
/// fails if any worker did — lost workers first, all named in one
/// [`RuntimeError::PeerLost`], else the first failure in worker order —
/// and the merged partial trace goes with the error.
pub(crate) fn assemble(
    workers: Vec<WorkerRun>,
    elapsed: Duration,
) -> Result<(RuntimeReport, ProtocolTrace), FailedRun> {
    let mut report = RuntimeReport {
        elapsed,
        ..RuntimeReport::default()
    };
    let (mut lost, mut failed, mut events) = (Vec::new(), None, Vec::new());
    for (w, (outcome, stamped)) in workers.into_iter().enumerate() {
        events.extend(stamped.into_iter().map(|(stamp, event)| (stamp, w, event)));
        match outcome {
            Ok(outcome) => {
                report.final_params.push(outcome.params);
                report.losses.push(outcome.losses);
                report.update_wire_bytes.push(outcome.wire_bytes);
                for fault in outcome.faults {
                    report.fault_log.push(fault);
                }
            }
            Err(RuntimeError::PeerLost { failures }) => lost.extend(failures),
            Err(error) => {
                failed.get_or_insert(error);
            }
        }
    }
    events.sort_by_key(|&(stamp, w, _)| (stamp, w));
    let mut trace = ProtocolTrace::new();
    for (_, _, event) in events {
        trace.push(event);
    }
    let failure = if lost.is_empty() {
        failed
    } else {
        Some(RuntimeError::PeerLost { failures: lost })
    };
    match failure {
        None => Ok((report, trace)),
        Some(error) => Err(FailedRun { error, trace }),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::SkipConfig;
    use crate::threaded::ThreadedExperiment;
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use std::cell::RefCell;
    use std::sync::Arc;

    /// One worker of a threaded run: its input log, its events and its
    /// final parameters.
    type Recorded = (Vec<Input>, Vec<ProtocolEvent>, Vec<f32>);

    thread_local! {
        /// The workers of the threaded runs on this thread, while
        /// [`recorded`] collects them.
        static RUNS: RefCell<Option<Vec<Recorded>>> = const { RefCell::new(None) };
    }

    /// The threaded runtime's hook: keeps a finished worker's record, in
    /// worker order, if [`recorded`] is collecting.
    pub(crate) fn record_run(outcome: &WorkerOutcome, events: &[(u64, ProtocolEvent)]) {
        RUNS.with_borrow_mut(|runs| {
            if let Some(runs) = runs {
                let events = events.iter().map(|(_, e)| e.clone()).collect();
                runs.push((outcome.inputs.clone(), events, outcome.params.clone()));
            }
        });
    }

    /// A transport that logs each pump's timeout and whether it moved
    /// anything: its first `movers` non-blocking pumps bring a token each,
    /// a blocking pump one if `blocking_brings` (else it sleeps). As
    /// worker 0's 2-ring peer, its update for `k - 1` arrives *late*: at
    /// the entry of `k`, after the Recv that could have used it.
    #[derive(Default)]
    struct Fake<const SPIN: u32> {
        movers: u32,
        blocking_brings: bool,
        broken: bool,
        log: Vec<(Duration, bool)>,
        dim: usize,
        late: Option<(ParamBlock, Tag)>,
    }

    impl<const SPIN: u32> Transport for Fake<SPIN> {
        const SPIN_ROUNDS: u32 = SPIN;

        fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool {
            if let Some((value, tag)) = self.late.take() {
                inbox.updates.push(TaggedEntry { value, tag });
            }
            let moved = if timeout.is_zero() {
                let moved = self.movers > 0;
                self.movers -= u32::from(moved);
                moved
            } else {
                if !self.blocking_brings {
                    std::thread::sleep(timeout);
                }
                self.blocking_brings
            };
            inbox.tokens[0] += u64::from(moved);
            self.log.push((timeout, moved));
            moved
        }

        fn failure(&self) -> Option<RuntimeError> {
            self.broken
                .then(|| RuntimeError::Link("broken".to_string()))
        }

        fn check(&mut self, k: u64) -> Result<(), RuntimeError> {
            if let Some(iter) = k.checked_sub(1) {
                let late = ParamBlock::from_vec(vec![0.0; self.dim]);
                self.late = Some((late, Tag { iter, w_id: 1 }));
            }
            Ok(())
        }

        fn deliver(
            &mut self,
            _tag: Tag,
            _params: &ParamBlock,
            _max_delta: Option<f32>,
            _receivers: &[usize],
            _plane: &mut CompressionPlane,
            _pool: &mut BufferPool,
        ) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn grant(&mut self, _idx: usize, _n: u64) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    /// Worker `job.w` rebuilt offline from its recorded `inputs`: a fresh
    /// machine and executor over a transport that never brings anything
    /// (the inputs bring it all), with no scheduler. Returns the machine,
    /// its final parameters and its events.
    fn replay(job: &WorkerJob<'_>, inputs: Vec<Input>) -> (HopWorker, Vec<f32>, ProtocolTrace) {
        let (mut transport, mut sink) = (Fake::<0>::default(), ProtocolTrace::new());
        let mut exec = Real::new(job, &mut transport, &mut sink);
        let mut cx = Shared::new(job.cfg, job.topo, job.max_iters);
        let mut worker = HopWorker::new(&cx, job.w);
        for input in inputs {
            worker.on(&mut cx, &mut exec, input).expect("replays");
        }
        let params = exec.params.to_vec();
        (worker, params, sink)
    }

    #[test]
    fn late_backup_updates_are_dropped_not_hoarded() {
        // Regression: the backup-mode Recv only ever dequeued tag `k`, so
        // every update that arrived after its iteration stayed in the
        // inbox for the rest of the run, pinning a full block each.
        let max_iters = 6;
        let dataset = SyntheticWebspam::generate(64, 3);
        let model = Svm::log_loss(dataset.feature_dim());
        let init = ParamBlock::from_vec(vec![0.0; model.param_len()]);
        // Quota 1 of in-degree 2: the worker reduces on its own update
        // and never waits for the (always late) peer.
        let cfg = HopConfig::backup(1, 4);
        let topo = Topology::ring(2);
        let job = WorkerJob {
            w: 0,
            cfg: &cfg,
            topo: &topo,
            model: &model,
            dataset: &dataset,
            hyper: Hyper::svm(),
            max_iters,
            seed: 9,
            compute_sleep: Duration::ZERO,
            timeout: Duration::from_secs(5),
            init_params: &init,
            faults: &FaultPlan::none(),
        };
        let mut transport = Fake::<0> {
            blocking_brings: true,
            dim: init.len(),
            ..Fake::default()
        };
        let mut trace = ProtocolTrace::new();
        let outcome = worker_loop(&job, &mut transport, &mut trace).expect("runs");
        assert_eq!(outcome.losses.len(), max_iters as usize);
        // The machine behind the run, rebuilt from its inputs: the Recv
        // after each late arrival purged it, silently and counted.
        let (worker, _, _) = replay(&job, outcome.inputs);
        assert_eq!(worker.queue.stale_discarded(), 5, "one purge per late tag");
        assert!(worker.queue.is_empty(), "a late update was hoarded");
        // Every late update reached the inbox.
        assert!(transport.late.is_none(), "a late update was never pumped");
    }

    /// Runs `exp` on threads and returns each worker's record.
    fn recorded(
        exp: &ThreadedExperiment,
        model: &Arc<Svm>,
        dataset: &Arc<InMemoryDataset>,
    ) -> Vec<Recorded> {
        RUNS.set(Some(Vec::new()));
        let run = exp.run_traced(model.clone(), dataset.clone());
        let runs = RUNS.take().expect("collecting");
        run.unwrap_or_else(|e| panic!("{:?} on {:?}: {e}", exp.config, exp.topology));
        runs
    }

    /// Replays worker `w` of `exp` from `inputs` (see [`replay`]).
    fn replay_of(
        exp: &ThreadedExperiment,
        model: &Svm,
        dataset: &InMemoryDataset,
        w: usize,
        inputs: Vec<Input>,
    ) -> (HopWorker, Vec<f32>, ProtocolTrace) {
        let mut rng = hop_util::Xoshiro256::seed_from_u64(exp.seed);
        let init = ParamBlock::from_vec(model.init_params(&mut rng));
        replay(&exp.job(w, model, dataset, &init), inputs)
    }

    /// `cfg` on `topo` for 12 iterations; a straggling skip mode has a 15x
    /// straggler, worker 0.
    fn experiment(cfg: &HopConfig, topo: &Topology) -> ThreadedExperiment {
        let straggle = cfg.skip.is_some();
        ThreadedExperiment {
            config: cfg.clone(),
            topology: topo.clone(),
            max_iters: 12,
            seed: 17,
            hyper: Hyper::svm(),
            compute_sleep: if straggle {
                Duration::from_micros(300)
            } else {
                Duration::ZERO
            },
            slow_worker: straggle.then_some((0, 15)),
            stall_timeout: Duration::from_secs(30),
            faults: FaultPlan::none(),
        }
    }

    /// The threaded cells of the conformance grid: every mode on every
    /// topology, the straggling skip mode included.
    fn grid() -> Vec<(HopConfig, Topology)> {
        let modes = [
            HopConfig::standard(),
            HopConfig::standard_with_tokens(3),
            HopConfig::backup(1, 4),
            HopConfig::staleness(2, 4),
            HopConfig::backup(1, 4).with_skip(SkipConfig {
                max_jump: 6,
                trigger_behind: 2,
            }),
        ];
        let topologies = [
            Topology::ring(6),
            Topology::complete(5),
            Topology::torus(3, 3),
        ];
        modes
            .iter()
            .flat_map(|cfg| topologies.iter().map(|t| (cfg.clone(), t.clone())))
            .collect()
    }

    #[test]
    fn threaded_grid_replays_from_its_input_logs() {
        // A machine is a pure function of its inputs: each worker's
        // recorded inputs (arrivals in the order the schedule fed them)
        // replay offline, with no scheduler and a transport that brings
        // nothing, to the same events and the same parameters to the bit
        // (the executor recomputes each gradient from the replica, as the
        // run did).
        let dataset = Arc::new(SyntheticWebspam::generate(128, 5));
        let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
        for (cfg, topo) in grid() {
            let exp = experiment(&cfg, &topo);
            for (w, (inputs, events, params)) in
                recorded(&exp, &model, &dataset).into_iter().enumerate()
            {
                let (worker, replayed, trace) = replay_of(&exp, &model, &dataset, w, inputs);
                assert!(
                    matches!(worker.phase, Phase::Finished),
                    "{cfg:?}: worker {w} did not finish"
                );
                assert_eq!(trace.events(), events, "{cfg:?}: worker {w}'s events");
                let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&replayed),
                    bits(&params),
                    "{cfg:?}: worker {w}'s parameters"
                );
            }
        }
    }

    #[test]
    fn the_stragglers_late_updates_are_purged() {
        // §6.2(a) on real threads: under backup(1, ·) the straggler's
        // neighbors reduce without it, so its updates arrive late, and
        // the Recvs must purge them rather than hoard them. Each
        // neighbor's machine, replayed from its inputs, accounts for every
        // update it was fed from worker 0: consumed, still queued when the
        // run ended, or purged.
        let dataset = Arc::new(SyntheticWebspam::generate(256, 5));
        let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
        let mut exp = experiment(&HopConfig::backup(1, 4), &Topology::ring(6));
        exp.compute_sleep = Duration::from_micros(300);
        exp.slow_worker = Some((0, 15));
        exp.max_iters = 40;
        let runs = recorded(&exp, &model, &dataset);
        let mut purged = 0;
        for &o in exp.topology.external_out_neighbors(0) {
            let (inputs, events, _) = &runs[o];
            let fed = inputs
                .iter()
                .filter(|i| matches!(i, Input::Update { from: 0, .. }));
            let consume = format!("consume w={o} from=0 ");
            let consumed = events
                .iter()
                .filter(|e| e.to_string().starts_with(&consume));
            let (worker, _, _) = replay_of(&exp, &model, &dataset, o, inputs.clone());
            let queued = worker.queue.iter().filter(|e| e.tag.w_id == 0).count();
            purged += fed.count() - consumed.count() - queued;
        }
        assert!(
            purged > 0,
            "a 15x straggler's late updates were never purged"
        );
    }

    /// Waits up to `timeout` for `want` tokens in a one-queue inbox.
    fn wait_for<const SPIN: u32>(t: &mut Fake<SPIN>, want: u64, timeout: Duration) -> bool {
        let mut inbox = Inbox::new(1);
        inbox.wait(t, timeout, |_, inbox| inbox.tokens[0] >= want)
    }

    fn the_wait_honours<const SPIN: u32>() {
        let (spins, empty_spin) = (SPIN as usize, (Duration::ZERO, false));
        // Nothing arrives until the first blocking pump: exactly SPIN
        // empty non-blocking pumps come before it.
        let mut t = Fake::<SPIN> {
            blocking_brings: true,
            ..Fake::default()
        };
        assert!(wait_for(&mut t, 1, Duration::from_secs(10)));
        assert_eq!(t.log[..spins], vec![empty_spin; spins]);
        assert_eq!(t.log.len(), spins + 1, "SPIN_ROUNDS {SPIN}: {:?}", t.log);
        assert!(!t.log[spins].0.is_zero() && t.log[spins].1);

        // Three non-blocking pumps that each bring a token use up no
        // round: SPIN empty ones still follow before the wait blocks.
        let mut t = Fake::<SPIN> {
            movers: 3,
            blocking_brings: true,
            ..Fake::default()
        };
        assert!(wait_for(&mut t, 4, Duration::from_secs(10)));
        let first_block = t.log.iter().position(|(timeout, _)| !timeout.is_zero());
        let spun = &t.log[..first_block.expect("the wait blocked")];
        let brought = spun.iter().filter(|(_, moved)| *moved).count();
        assert_eq!(brought, if spins == 0 { 0 } else { 3 });
        assert_eq!(spun.iter().filter(|&&p| p == empty_spin).count(), spins);

        // A broken transport ends the wait at once, without a pump.
        let mut t = Fake::<SPIN> {
            broken: true,
            ..Fake::default()
        };
        let started = Instant::now();
        assert!(!wait_for(&mut t, 1, Duration::from_secs(10)));
        assert!(t.log.is_empty() && started.elapsed() < Duration::from_secs(1));

        // An unsatisfiable wait gives up within its timeout plus slack.
        let (timeout, started) = (Duration::from_millis(50), Instant::now());
        assert!(!wait_for(&mut Fake::<SPIN>::default(), 1, timeout));
        let late = started.elapsed().checked_sub(timeout);
        assert!(late.is_some_and(|late| late < Duration::from_secs(2)));
    }

    #[test]
    fn the_one_wait_spins_its_rounds_then_blocks() {
        the_wait_honours::<0>();
        the_wait_honours::<20>();
    }
}
