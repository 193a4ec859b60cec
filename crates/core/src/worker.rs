//! The Hop worker iteration, written once.
//!
//! One iteration is Send → Compute → Recv/Reduce → token advance (or the
//! §5 jump-and-renew). [`worker_loop`] is that iteration for every
//! runtime that executes workers for real. Each worker owns its
//! [`Inbox`] — the tagged update queue and token counts of §4, Fig. 8 —
//! and reads it here; what differs between threads and OS processes is
//! only how updates and token grants leave the worker and get into a
//! peer's inbox, and that is the [`Transport`] the loop is generic over
//! (static dispatch). The loop waits in exactly three places — the Recv's
//! quota of tagged updates (also the jump renew's), the staleness Recv's
//! next arrival, and a token — plus the close, and all of them are the
//! one [`Inbox::wait`]. The simulated compute time is the only other
//! wait, and it is the loop's own.
//!
//! The loop owns everything protocol-shaped — the choreography handles,
//! the fault shim in front of per-receiver delivery, the §6.2(a)
//! receiver-side stale discard, the skip decision — so the transports
//! emit no events and make no protocol decisions.
//!
//! # Linearization
//!
//! Every `Send` of iteration `k` is stamped before
//! [`Transport::deliver`] runs (the process transport encodes one frame,
//! reading the Lamport clock once, and fans it out), token grants are
//! stamped before [`Transport::grant`], and consumes / token takes /
//! drops after the inbox operation they observe, which comes after the
//! pump that moved the data in — the grant-before-op, observe-after-op
//! discipline of [`crate::conformance`].

use crate::choreography::{self, Arrival, Consuming, EventSink, Renew};
use crate::config::HopConfig;
use crate::semantics;
use crate::sim_runtime::compression::CompressionPlane;
use crate::threaded::{StallDiag, ThreadedError};
use crate::trainer::Hyper;
use hop_data::{BatchSampler, Dataset, InMemoryDataset};
use hop_graph::Topology;
use hop_model::{GradScratch, Model, Sgd};
use hop_queue::tagged::{Tag, TagFilter, TaggedEntry};
use hop_queue::TaggedQueue;
use hop_sim::{FaultEvent, FaultPlan};
use hop_tensor::ops::Tail;
use hop_tensor::{BufferPool, ParamBlock};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How updates and token grants leave a worker, and how what arrives for
/// it gets into its [`Inbox`]: data in and out, nothing else. Indices are
/// positions in the worker's [`Topology::external_out_neighbors`]
/// (`deliver`, and the inbox's token counts) and
/// [`Topology::external_in_neighbors`] (`grant`) lists.
pub(crate) trait Transport {
    /// What a failed operation or an explained stall becomes.
    type Error;

    /// Empty pump rounds — a pump that does not block, then
    /// `thread::yield_now` — an [`Inbox::wait`] makes before its pumps
    /// block.
    const SPIN_ROUNDS: u32;

    /// Moves whatever has arrived into `inbox`, blocking up to `timeout`
    /// for the first arrival. Says whether anything moved.
    fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool;

    /// Whether the transport knows that no wait can be satisfied any more
    /// (a link broke); a wait then gives up at once.
    fn broken(&self) -> bool {
        false
    }

    /// Per-iteration health check at the entry of iteration `k`.
    fn check(&mut self, _k: u64) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Delivers this iteration's update, tagged `tag`, to the listed
    /// external out-neighbors (the ones the fault shim let through),
    /// stepping the worker's codec `plane` once however the transport
    /// ships the result.
    fn deliver(
        &mut self,
        tag: Tag,
        params: &ParamBlock,
        receivers: &[usize],
        plane: &mut CompressionPlane,
        pool: &mut BufferPool,
    ) -> Result<(), Self::Error>;

    /// Grants `n` tokens to the `idx`-th external in-neighbor.
    fn grant(&mut self, idx: usize, n: u64) -> Result<(), Self::Error>;

    /// Turns a timed-out wait into the transport's diagnosis (a dead
    /// peer is the cause; the stall is the symptom).
    fn explain(&self, stall: ThreadedError) -> Self::Error;

    /// The close, after the final token flood: asked again after every
    /// pump of [`Inbox::close`] until it says the transport is closed.
    /// Fails with the transport's first failure.
    fn finish(&mut self) -> Result<bool, Self::Error> {
        Ok(true)
    }
}

/// A worker's receive side (§4, Fig. 8): its tagged update queue — its
/// self-sends and every in-neighbor's updates — and the tokens available
/// in `TokenQ(o -> w)` per external out-neighbor `o` (no counts without
/// token queues). The worker owns it and reads it here; only
/// [`Transport::pump`] adds to it from outside.
pub(crate) struct Inbox {
    pub(crate) updates: TaggedQueue<ParamBlock>,
    pub(crate) tokens: Vec<u64>,
}

impl Inbox {
    /// An empty inbox with `out_degree` token counts preloaded with
    /// `max_ig` each (none without token queues).
    pub(crate) fn new(max_ig: Option<u64>, out_degree: usize) -> Self {
        Inbox {
            updates: TaggedQueue::unbounded(),
            tokens: max_ig.map_or_else(Vec::new, |ig| vec![ig; out_degree]),
        }
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
            if transport.broken() || left.is_zero() {
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

    /// The Recv (Fig. 8): waits up to `timeout` for `quota` entries
    /// matching `filter`, then takes them plus up to `extra` more that
    /// have arrived by then.
    pub(crate) fn dequeue<T: Transport>(
        &mut self,
        transport: &mut T,
        filter: TagFilter,
        (quota, extra): (usize, usize),
        timeout: Duration,
    ) -> Option<Vec<TaggedEntry<ParamBlock>>> {
        let met = |_: &mut T, inbox: &Self| inbox.updates.size(filter) >= quota;
        if met(transport, self) {
            if extra > 0 {
                transport.pump(self, Duration::ZERO);
            }
        } else if !self.wait(transport, timeout, met) {
            return None;
        }
        let taken = quota.saturating_add(extra);
        Some(self.updates.dequeue_up_to(taken, filter))
    }

    /// Tokens available in every `TokenQ(o -> w)`, counting every grant
    /// that has arrived. Never blocks.
    fn token_counts(&mut self, transport: &mut impl Transport) -> Vec<u64> {
        transport.pump(self, Duration::ZERO);
        self.tokens.clone()
    }

    /// Waits up to `timeout` for `n` tokens in the `idx`-th queue and
    /// takes them.
    fn take_tokens(
        &mut self,
        transport: &mut impl Transport,
        idx: usize,
        n: u64,
        timeout: Duration,
    ) -> bool {
        let taken = self.wait(transport, timeout, |_, inbox| inbox.tokens[idx] >= n);
        if taken {
            self.tokens[idx] -= n;
        }
        taken
    }

    /// Closes `transport`: pumps until [`Transport::finish`] says it is
    /// closed, the transport fails, or `timeout` passes (a close that
    /// runs out of time without a failure is not one).
    pub(crate) fn close<T: Transport>(
        &mut self,
        transport: &mut T,
        timeout: Duration,
    ) -> Result<(), T::Error> {
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
pub(crate) struct WorkerOutcome {
    pub(crate) params: Vec<f32>,
    /// Minibatch loss per computed (not skipped) iteration.
    pub(crate) losses: Vec<f32>,
    /// Every send the fault shim omitted.
    pub(crate) faults: Vec<FaultEvent>,
}

/// Per-worker receive-side state shared by the Recv and renew helpers.
struct WorkerCtx<'a> {
    w: usize,
    cfg: &'a HopConfig,
    timeout: Duration,
    inbox: Inbox,
    /// Fig. 8: how many iteration-`k` updates (own included) a
    /// backup-mode Recv blocks for.
    quota: usize,
    pool: BufferPool,
    /// Staleness mode keeps only the newest update per sender.
    newest_from: HashMap<usize, (u64, ParamBlock)>,
    last_consumed: Option<Tag>,
}

impl WorkerCtx<'_> {
    /// The explained stall of a wait on the update queue, with enough
    /// queue state to debug it from the error alone.
    fn stall<T: Transport>(&self, iter: u64, waiting_for: &'static str, transport: &T) -> T::Error {
        let mut pending: Vec<Tag> = self.inbox.updates.iter().map(|e| e.tag).collect();
        let queue_depth = pending.len();
        pending.truncate(8);
        transport.explain(ThreadedError::Stalled {
            worker: self.w,
            iter,
            waiting_for,
            diag: StallDiag::Updates {
                queue_depth,
                pending,
                last_consumed: self.last_consumed,
            },
        })
    }

    /// Folds one queue arrival into `newest_from`, recycling the
    /// superseded (or stale-on-arrival) block; the staleness verdict is
    /// choreographed as a delivery-plane [`Arrival`] judgement.
    fn admit_entry(
        &mut self,
        entry: TaggedEntry<ParamBlock>,
        at_iter: u64,
        sink: &mut impl EventSink,
    ) {
        let Tag { iter, w_id: from } = entry.tag;
        let arrival = Arrival {
            worker: self.w,
            from,
            iter,
        };
        let admitted = self
            .newest_from
            .get(&from)
            .is_none_or(|&(have, _)| iter > have);
        let superseded = if admitted {
            self.newest_from
                .insert(from, (iter, entry.value))
                .map(|(_, old)| old)
        } else {
            Some(entry.value)
        };
        if let Some(block) = superseded {
            self.pool.reclaim(block);
        }
        arrival.judge(sink, admitted, at_iter);
    }

    /// The staleness-mode snapshot collection for the newest updates of
    /// `neighbors`; each is consumed through `step` (an exchanging
    /// [`Step`](choreography::Step) or a [`Renew`]), which is what pins
    /// the Consume events to the handle's iteration.
    fn collect_newest(
        &mut self,
        neighbors: &[usize],
        step: &mut impl Consuming,
        sink: &mut impl EventSink,
    ) -> Vec<(u64, ParamBlock)> {
        neighbors
            .iter()
            .map(|j| {
                let (iter, p) = &self.newest_from[j];
                let (iter, snap) = (*iter, p.snapshot());
                self.last_consumed = Some(Tag { iter, w_id: *j });
                step.consume(sink, *j, iter);
                (iter, snap)
            })
            .collect()
    }

    /// §6.2(a) receiver-side discard: queued updates tagged older than
    /// `iter` will never be consumed (a backup worker's late update, or
    /// the iterations a jump skipped), so recycle them instead of
    /// letting each pin a full block; a pump first lets late arrivals go
    /// at once. Observe-after-op.
    fn discard_older_than(
        &mut self,
        transport: &mut impl Transport,
        iter: u64,
        sink: &mut impl EventSink,
    ) {
        transport.pump(&mut self.inbox, Duration::ZERO);
        for entry in self.inbox.updates.drain_older_than(iter) {
            choreography::drop_update(sink, self.w, entry.tag.w_id, entry.tag.iter);
            self.pool.reclaim(entry.value);
        }
    }

    /// The backup-mode Recv of `quota` updates tagged `iter` (blocking),
    /// plus up to `extra` more that happen to be here already (Fig. 8
    /// line 5); each is consumed through `step`.
    fn recv_tagged(
        &mut self,
        transport: &mut impl Transport,
        iter: u64,
        quota_extra: (usize, usize),
        step: &mut impl Consuming,
        sink: &mut impl EventSink,
    ) -> Option<Vec<TaggedEntry<ParamBlock>>> {
        let entries =
            self.inbox
                .dequeue(transport, TagFilter::iter(iter), quota_extra, self.timeout)?;
        for entry in &entries {
            self.last_consumed = Some(entry.tag);
            step.consume(sink, entry.tag.w_id, entry.tag.iter);
        }
        Some(entries)
    }

    /// `params ← mean(entries ∪ own) [+ apply]`, recycling every consumed
    /// block. Full overwrite: shared blocks detach without copying. The
    /// entries are summed in sender order, whatever order they arrived
    /// in, so a Reduce over the same set rounds the same way every run;
    /// `own` (a renew's pre-jump replica) is summed last.
    fn reduce_mean(
        &mut self,
        mut entries: Vec<TaggedEntry<ParamBlock>>,
        own: Option<ParamBlock>,
        apply: Tail<'_>,
        params: &mut ParamBlock,
    ) {
        entries.sort_unstable_by_key(|e| e.tag.w_id);
        let mut views: Vec<&[f32]> = entries.iter().map(|e| e.value.as_slice()).collect();
        views.extend(own.as_ref().map(ParamBlock::as_slice));
        semantics::reduce_mean(&views, apply, params.overwrite_mut(&mut self.pool));
        drop(views);
        for block in entries.into_iter().map(|e| e.value).chain(own) {
            self.pool.reclaim(block);
        }
    }

    /// `params ← staleness-weighted mean(collected) [+ apply]` at Recv
    /// iteration `k` under window `s`.
    fn reduce_stale(
        &mut self,
        collected: &[(u64, ParamBlock)],
        k: u64,
        s: u64,
        apply: Tail<'_>,
        params: &mut ParamBlock,
    ) {
        let views: Vec<(u64, &[f32])> = collected
            .iter()
            .map(|(iter, p)| (*iter, p.as_slice()))
            .collect();
        semantics::reduce_staleness_with(
            self.cfg.staleness_weighting,
            &views,
            k,
            s,
            apply,
            params.overwrite_mut(&mut self.pool),
        );
    }
}

/// Stamps and performs a grant of `n` tokens to every external
/// in-neighbor.
fn grant_all<T: Transport>(
    transport: &mut T,
    sink: &mut impl EventSink,
    w: usize,
    externals_in: &[usize],
    n: u64,
) -> Result<(), T::Error> {
    for (idx, &j) in externals_in.iter().enumerate() {
        choreography::token_grant(sink, w, j, n);
        transport.grant(idx, n)?;
    }
    Ok(())
}

/// Runs worker `job.w` to `job.max_iters` over `transport`, emitting its
/// protocol events into `sink` (which the caller keeps, so a failed
/// run's partial log survives).
#[allow(clippy::too_many_lines)]
pub(crate) fn worker_loop<T: Transport>(
    job: &WorkerJob<'_>,
    transport: &mut T,
    sink: &mut impl EventSink,
) -> Result<WorkerOutcome, T::Error> {
    let (w, cfg, topo, hyper) = (job.w, job.cfg, job.topo, job.hyper);
    let (model, dataset, max_iters, seed) = (job.model, job.dataset, job.max_iters, job.seed);
    let mut params = job.init_params.snapshot();
    let mut opt = Sgd::new(hyper.lr, hyper.momentum, hyper.weight_decay, params.len());
    let mut sampler = BatchSampler::for_worker(dataset.len(), hyper.batch_size, seed, w);
    let mut grad = vec![0.0f32; params.len()];
    let mut scratch = GradScratch::new();
    let mut indices = Vec::new();
    let mut losses = Vec::with_capacity(max_iters as usize);
    let in_deg = topo.in_degree(w);
    let in_neighbors = topo.in_neighbors(w);
    let externals_in = topo.external_in_neighbors(w);
    let externals_out = topo.external_out_neighbors(w);
    let max_ig = cfg.max_ig();
    let mut ctx = WorkerCtx {
        w,
        cfg,
        timeout: job.timeout,
        inbox: Inbox::new(max_ig, externals_out.len()),
        quota: semantics::backup_quota(in_deg, cfg.n_backup),
        pool: BufferPool::new(),
        newest_from: HashMap::new(),
        last_consumed: None,
    };
    // One outgoing parameter stream per worker: every external receiver
    // gets the identical encoding, so the codec state is worker-local and
    // lock-free. The self-send stays exact.
    let mut plane = CompressionPlane::new(cfg.compression);
    plane.add_param_streams(1, job.init_params.as_slice());
    let mut fault_events: Vec<FaultEvent> = Vec::new();
    let mut receivers: Vec<usize> = Vec::with_capacity(externals_out.len());
    let mut k: u64 = 0;
    // Tokens granted to in-neighbors at the next iteration entry: the
    // k = 0 allotment is pre-loaded in the queues, a normal advance grants
    // 1, and a jump grants its whole distance immediately (so neighbors
    // are never starved during the renew) and zeroes this.
    let mut entry_tokens: u64 = 0;
    while k < max_iters {
        let step = choreography::begin_step(sink, w, k);
        // After the entry is on record, so that even a run that dies at
        // its first check leaves a non-empty partial trace.
        transport.check(k)?;
        if max_ig.is_some() && entry_tokens > 0 {
            grant_all(transport, sink, w, externals_in, entry_tokens)?;
        }
        // Send (parallel order): own inbox and all out-neighbors. The
        // self-send shares the current block — zero bytes copied.
        let tag = Tag { iter: k, w_id: w };
        step.send(sink, w);
        ctx.inbox
            .updates
            .enqueue(params.snapshot(), tag)
            .expect("unbounded");
        // Fault shim: a crash window omits every external send (the
        // worker keeps running — from the outside that is what a dead
        // worker looks like); otherwise the keyed loss draw decides.
        // Each omission stays in the ledger as a Send + Lost pair and is
        // logged so the oracle can license it.
        let crashed = job
            .faults
            .crashes()
            .iter()
            .any(|c| c.worker == w && k >= c.at_iter && k < c.at_iter + c.down_iters);
        let rate = job.faults.loss();
        receivers.clear();
        for (idx, &o) in externals_out.iter().enumerate() {
            step.send(sink, o);
            if crashed || (rate > 0.0 && hop_sim::faults::loss_draw(seed, w, o, k) < rate) {
                choreography::lost_update(sink, o, w, k);
                fault_events.push(FaultEvent::Loss {
                    from: w,
                    to: o,
                    iter: k,
                });
            } else {
                receivers.push(idx);
            }
        }
        transport.deliver(tag, &params, &receivers, &mut plane, &mut ctx.pool)?;
        // Compute.
        let step = step.begin_compute(sink);
        if !job.compute_sleep.is_zero() {
            std::thread::sleep(job.compute_sleep);
        }
        let batch = sampler.next_batch_with(&mut indices, dataset);
        let loss = model.loss_grad_with(params.as_slice(), &batch, &mut grad, &mut scratch);
        let mut step = step.end_compute(sink);
        losses.push(loss);
        opt.advance(params.as_slice(), &grad);
        // Recv + Reduce: both paths funnel through the handle, whose
        // `reduce` is the only way to emit the Reduce event; the Apply
        // (Fig. 2b: onto the reduced parameters) rides its sweep.
        let apply = Some(opt.step_term());
        let step = if let Some(s) = cfg.staleness {
            stale_recv(
                &mut ctx,
                transport,
                in_neighbors,
                k,
                s,
                "a satisfactory update",
                sink,
            )?;
            let collected = ctx.collect_newest(in_neighbors, &mut step, sink);
            let step = step.reduce(sink);
            ctx.reduce_stale(&collected, k, s, apply, &mut params);
            step
        } else {
            ctx.discard_older_than(transport, k, sink);
            let entries = ctx
                .recv_tagged(
                    transport,
                    k,
                    (ctx.quota, in_deg - ctx.quota),
                    &mut step,
                    sink,
                )
                .ok_or_else(|| ctx.stall(k, "updates", transport))?;
            let step = step.reduce(sink);
            ctx.reduce_mean(entries, None, apply, &mut params);
            step
        };
        // Advance: the §5 skip decision over the token queues, else one
        // token from every out-going neighbor's queue.
        let mut next = k + 1;
        entry_tokens = 1;
        if let (Some(ig), false) = (max_ig, externals_out.is_empty()) {
            let decision = cfg.skip.as_ref().and_then(|skip| {
                let counts = ctx.inbox.token_counts(transport);
                semantics::jump_before_end(&counts, ig, skip, k, max_iters)
                    .map(|jump| (jump, counts))
            });
            if let Some((jump, counts)) = decision {
                let renew = step.jump(sink, k + jump, &counts);
                for (i, &o) in externals_out.iter().enumerate() {
                    // Only this worker removes from TokenQ(o -> w), so
                    // the observed count cannot shrink under us.
                    assert!(
                        ctx.inbox.take_tokens(transport, i, jump, Duration::ZERO),
                        "observed tokens vanished from TokenQ({o} -> {w})"
                    );
                    renew.take_tokens(sink, o);
                }
                grant_all(transport, sink, w, externals_in, jump)?;
                entry_tokens = 0;
                next = k + jump;
                jump_renew(
                    &mut ctx,
                    transport,
                    externals_in,
                    &mut params,
                    &mut opt,
                    k,
                    renew,
                    sink,
                )?;
            } else {
                for (i, &o) in externals_out.iter().enumerate() {
                    if !ctx.inbox.take_tokens(transport, i, 1, job.timeout) {
                        // Snapshot every out-edge token queue, not the
                        // update queue: this wait is on tokens.
                        let counts = ctx.inbox.token_counts(transport);
                        return Err(transport.explain(ThreadedError::Stalled {
                            worker: w,
                            iter: k,
                            waiting_for: "tokens",
                            diag: StallDiag::Tokens {
                                available: externals_out.iter().copied().zip(counts).collect(),
                            },
                        }));
                    }
                    step.take_token(sink, o);
                }
                step.complete();
            }
        } else {
            step.complete();
        }
        k = next;
    }
    choreography::advance_only(sink, w, max_iters);
    // Final courtesy: release tokens so lagging neighbors can finish their
    // last iterations without waiting on a finished worker.
    if max_ig.is_some() {
        grant_all(transport, sink, w, externals_in, max_iters)?;
    }
    ctx.inbox.close(transport, job.timeout)?;
    Ok(WorkerOutcome {
        params: params.to_vec(),
        losses,
        faults: fault_events,
    })
}

/// The staleness-mode Recv: block until every listed neighbor's newest
/// update satisfies the window at `k` (the Recv's iteration, or
/// `target - 1` for a jump renew — `waiting_for` labels the stall).
fn stale_recv<T: Transport>(
    ctx: &mut WorkerCtx<'_>,
    transport: &mut T,
    neighbors: &[usize],
    k: u64,
    s: u64,
    waiting_for: &'static str,
    sink: &mut impl EventSink,
) -> Result<(), T::Error> {
    // Everything here already, then — until the window is satisfied — at
    // least one new arrival at a time.
    let mut quota = 0;
    loop {
        let arrived = ctx
            .inbox
            .dequeue(
                transport,
                TagFilter::any(),
                (quota, usize::MAX),
                ctx.timeout,
            )
            .ok_or_else(|| ctx.stall(k, waiting_for, transport))?;
        for entry in arrived {
            ctx.admit_entry(entry, k, sink);
        }
        let satisfied = neighbors.iter().all(|j| {
            ctx.newest_from
                .get(j)
                .is_some_and(|&(iter, _)| semantics::staleness_satisfied(iter, k, s))
        });
        if satisfied {
            return Ok(());
        }
        quota = 1;
    }
}

/// The §5 pre-jump renewal: `Recv(target - 1)` + Reduce so the
/// straggler's future updates are not hopelessly stale, then reset the
/// momentum (its history refers to an abandoned trajectory) and discard
/// queued updates for the skipped iterations.
#[allow(clippy::too_many_arguments)]
fn jump_renew<T: Transport>(
    ctx: &mut WorkerCtx<'_>,
    transport: &mut T,
    externals_in: &[usize],
    params: &mut ParamBlock,
    opt: &mut Sgd,
    k: u64,
    mut renew: Renew,
    sink: &mut impl EventSink,
) -> Result<(), T::Error> {
    let target = renew.target();
    let renew_iter = target - 1;
    if let Some(s) = ctx.cfg.staleness {
        stale_recv(
            ctx,
            transport,
            externals_in,
            renew_iter,
            s,
            "jump-renew updates",
            sink,
        )?;
        let mut collected = ctx.collect_newest(externals_in, &mut renew, sink);
        // Own (stale) parameters participate with clamped weight; the
        // snapshot keeps them readable while the replica is rewritten
        // (the renewing handle counts them into the Reduce itself).
        collected.push((k, params.snapshot()));
        renew.renew_reduce(sink);
        ctx.reduce_stale(&collected, renew_iter, s, None, params);
    } else {
        // Backup mode: collect the quota of iteration `target - 1` updates
        // from external in-neighbors (self never sent one).
        let ext = externals_in.len();
        let quota = semantics::renew_quota(ext, ctx.cfg.n_backup);
        let entries = ctx
            .recv_tagged(
                transport,
                renew_iter,
                (quota, ext - quota),
                &mut renew,
                sink,
            )
            .ok_or_else(|| ctx.stall(k, "jump-renew updates", transport))?;
        renew.renew_reduce(sink);
        let own = params.snapshot();
        ctx.reduce_mean(entries, Some(own), None, params);
        ctx.discard_older_than(transport, target, sink);
    }
    // Momentum history refers to a trajectory this worker abandoned.
    opt.reset_velocity();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::ProtocolTrace;
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;

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
        type Error = ThreadedError;
        const SPIN_ROUNDS: u32 = SPIN;

        fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool {
            if let Some((block, tag)) = self.late.take() {
                inbox.updates.enqueue(block, tag).expect("unbounded");
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

        fn broken(&self) -> bool {
            self.broken
        }

        fn check(&mut self, k: u64) -> Result<(), ThreadedError> {
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
            _receivers: &[usize],
            _plane: &mut CompressionPlane,
            _pool: &mut BufferPool,
        ) -> Result<(), ThreadedError> {
            Ok(())
        }

        fn grant(&mut self, _idx: usize, _n: u64) -> Result<(), ThreadedError> {
            Ok(())
        }

        fn explain(&self, stall: ThreadedError) -> ThreadedError {
            stall
        }
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
        let drops: Vec<String> = trace
            .events()
            .iter()
            .map(ToString::to_string)
            .filter(|line| line.starts_with("drop "))
            .collect();
        let expected: Vec<String> = (0..5)
            .map(|i| format!("drop w=0 from=1 iter={i}"))
            .collect();
        assert_eq!(drops, expected, "one Drop per late tag, in order");
        // Every late update reached the inbox and left it as a Drop.
        assert!(transport.late.is_none(), "a late update was never pumped");
    }

    /// Waits up to `timeout` for `want` tokens in a one-queue inbox.
    fn wait_for<const SPIN: u32>(t: &mut Fake<SPIN>, want: u64, timeout: Duration) -> bool {
        let mut inbox = Inbox::new(Some(0), 1);
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
