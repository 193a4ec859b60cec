//! The Hop worker, written once: one sans-IO state machine that the
//! simulator and both real runtimes run.
//!
//! A [`HopWorker`] holds one worker's protocol state — its phase with the
//! [`crate::choreography`] handle of the stage it is parked in, the
//! rotating update queue of §6.1, the newest update per in-neighbor
//! (Fig. 9), the tokens visible in each `TokenQ(o -> w)` (§4.2) and the
//! NOTIFY-ACK count — and the rules of an iteration: Send ∥ Compute, the
//! Recv/Reduce of Figs. 8–9, then a token advance or the §5 jump with its
//! renewing `Recv(target - 1)`. It is fed [`Input`]s and asks its
//! [`Executor`] for the rest: enter, compute, send, grant, ACK, finish. It
//! owns no clock, transport or thread, so it is a pure function of its
//! inputs and the replica its executor hands it. Two executors run it, by
//! static dispatch: the simulator's (`sim_runtime/decentralized.rs`,
//! inputs are virtual-time events) and the real runtimes'
//! (`worker.rs`, inputs come out of the worker's inbox).
//!
//! The executors differ in two constants. [`Executor::SENDER_ORDER`]: a
//! Reduce sums its updates in queue order under the simulator, whose
//! schedule is deterministic (its digests are pinned), and in sender order
//! under the real runtimes, whose arrival order is not (a standard-mode
//! run is exact per seed there too). [`Executor::EAGER_PURGE`]: a real
//! Recv first frees every update older than its iteration, where the
//! simulator keeps the §6.1 rotation's purge and its pinned stale counts.
//! Neither changes what a Recv takes.
//!
//! # Linearization
//!
//! The machine emits each event when it decides it, into the executor's
//! sink. The real sinks number events from a shared sequence (threads) or
//! a Lamport clock (processes), and the order stays causal by where the
//! calls sit: a `Send` is stamped before [`Executor::send`] hands the
//! update on (the process transport encodes one frame, reading the clock
//! once, and fans it out), a grant before it leaves, and what the machine
//! observes — admits, consumes, token takes — after the pump that moved
//! the data into the inbox, since inputs come only from there: the
//! grant-before-op, observe-after-op discipline of [`crate::conformance`].
//! The simulator stamps in pump order and records a grant when its
//! consumer can see it.

use crate::choreography::{self, Arrival, Computing, Consuming, EventSink, Exchanging};
use crate::choreography::{Reduced, Renew, SendStage, Step};
use crate::config::{ComputeOrder, HopConfig, SyncMode};
use crate::semantics;
use hop_graph::Topology;
use hop_model::Sgd;
use hop_queue::{RotatingQueues, Tag, TaggedEntry};
use hop_tensor::ops::SgdStep;
use hop_tensor::{BufferPool, ParamBlock};

/// What a [`HopWorker`] is fed.
#[derive(Debug, Clone)]
pub(crate) enum Input {
    /// Enter iteration 0.
    Start,
    /// The current iteration's gradient is computed.
    ComputeDone,
    /// An external in-neighbor's update tagged `iter` arrived (self-sends
    /// the machine delivers itself).
    Update {
        from: usize,
        iter: u64,
        params: ParamBlock,
    },
    /// `count` tokens arrived in `TokenQ(o -> w)`, `o` being the
    /// `slot`-th external out-neighbor.
    Tokens { slot: usize, count: u64 },
    /// An ACK arrived (NOTIFY-ACK).
    Ack,
    /// Make whatever progress the arrivals fed so far allow.
    Resume,
}

/// The executor's state the machine reads and writes: the replica, its
/// optimizer, the pool its blocks come from, the event sink, the last
/// gradient computed (the serial order applies it after the compute, the
/// parallel order in the Reduce), and the reference of the worker's
/// outgoing int8 stream (`None` under any other codec), against which a
/// parallel-order Reduce measures the next Send's scale.
pub(crate) struct Parts<'e, S> {
    pub(crate) params: &'e mut ParamBlock,
    pub(crate) opt: &'e mut Sgd,
    pub(crate) pool: &'e mut BufferPool,
    pub(crate) sink: &'e mut S,
    pub(crate) grad: &'e [f32],
    pub(crate) reference: Option<&'e [f32]>,
}

/// Whoever runs a [`HopWorker`]: what it asks for, carried out.
pub(crate) trait Executor {
    /// What a failed operation becomes.
    type Error;
    /// Where the worker's events go.
    type Sink: EventSink;
    /// Whether a Reduce sums its updates in sender order (else in queue
    /// order).
    const SENDER_ORDER: bool;
    /// Whether a Recv first purges every update older than its iteration
    /// (else a stale update goes when the rotating queue comes round to
    /// its sub-queue, §6.1).
    const EAGER_PURGE: bool;

    /// The state the machine reads and writes.
    fn parts(&mut self) -> Parts<'_, Self::Sink>;

    /// Iteration `iter` was entered; its `Advance` is on record.
    fn enter(&mut self, iter: u64) -> Result<(), Self::Error>;

    /// Whether the worker is up (a crashed simulated worker is not, and
    /// loses its own updates).
    fn alive(&self) -> bool {
        true
    }

    /// The replica is final for the gradient of `iter`. In parallel order
    /// this comes after the iteration's Send, which writes no parameter,
    /// so the Send's sweeps run before a helper takes the gradient (and
    /// can share them).
    fn compute_ready(&mut self, _iter: u64) {}

    /// Computes the gradient of `iter` (its `ComputeBegin` is on record)
    /// and feeds [`Input::ComputeDone`] once it is done.
    fn compute(&mut self, iter: u64);

    /// Sends this iteration's update to the external out-neighbors,
    /// emitting each `Send` through `step`. `max_delta` is `max|params -
    /// reference|` against [`Parts::reference`] when the last Reduce
    /// measured it, for the int8 encode to take instead of a sweep.
    fn send<S: SendStage>(
        &mut self,
        step: &Step<S>,
        params: &ParamBlock,
        max_delta: Option<f32>,
    ) -> Result<(), Self::Error>;

    /// Grants `n` tokens to every external in-neighbor.
    fn grant(&mut self, n: u64) -> Result<(), Self::Error>;

    /// NOTIFY-ACK: confirms the Recv to every external in-neighbor.
    fn ack(&mut self) {}

    /// The worker reached `max_iters`.
    fn finish(&mut self) {}
}

/// The worker's phase, carrying the typed handle of the stage it is
/// parked in — the only capability that can emit the stage's events, so a
/// phase/instrumentation mismatch cannot compile.
#[derive(Debug)]
pub(crate) enum Phase {
    /// Between inputs while a handler owns the handle.
    Stepping,
    Computing(Step<Computing>),
    WaitAck(Step<Exchanging>),
    WaitUpdates(Step<Exchanging>),
    WaitTokens(Step<Reduced>),
    JumpRecv(Renew),
    Finished,
}

/// What every worker machine of one run shares: the configuration, the
/// graph, and the list a Recv gathers into (kept for the next Recv, so the
/// steady state does not allocate it).
pub(crate) struct Shared<'a> {
    cfg: &'a HopConfig,
    topology: &'a Topology,
    max_iters: u64,
    /// The rotating queues' modulus, which must exceed any reachable
    /// iteration gap: `max_ig`, or without token queues the graph-diameter
    /// bound of Theorem 1 (standard/staleness modes only; backup mode
    /// without tokens is rejected by validation).
    window: u64,
    entries: Vec<TaggedEntry<ParamBlock>>,
}

impl<'a> Shared<'a> {
    pub(crate) fn new(cfg: &'a HopConfig, topology: &'a Topology, max_iters: u64) -> Self {
        let window = cfg.max_ig().unwrap_or_else(|| {
            let diameter =
                hop_graph::paths::diameter(topology).expect("validated: strongly connected") as u64;
            // Theorem 1 (or its staleness generalization).
            let per_hop = cfg.staleness.map_or(1, |s| s + 1);
            (per_hop * diameter.max(1)).max(1)
        });
        Self {
            cfg,
            topology,
            max_iters,
            window,
            entries: Vec::new(),
        }
    }
}

/// One worker's protocol state machine (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct HopWorker {
    w: usize,
    pub(crate) iter: u64,
    pub(crate) phase: Phase,
    pub(crate) queue: RotatingQueues<ParamBlock>,
    /// Newest update per in-neighbor (staleness mode, incl. self), dense:
    /// slot `p` is the update from `topology.in_neighbors(w)[p]`.
    newest_from: Vec<Option<(u64, ParamBlock)>>,
    /// Tokens visible in each `TokenQ(o -> w)`, dense in
    /// `topology.external_out_neighbors(w)` order — the order of the
    /// `Jump` event's count vector, which it therefore is.
    pub(crate) tokens_from: TokenCounts,
    /// NOTIFY-ACK: ACKs received for the last sent iteration.
    acks: usize,
    /// Tag of the last update consumed, for stall diagnostics.
    pub(crate) last_consumed: Option<Tag>,
    /// `max|replica - Parts::reference|`, measured by the last Reduce for
    /// the next Send; cleared by whatever else writes the replica.
    delta_max: Option<f32>,
}

/// Out-degrees whose token counts [`TokenCounts`] keeps inline: the
/// expander and ring-based graphs of the ledger have at most four.
const INLINE_OUTS: usize = 4;

/// A worker's token counts, one per external out-neighbor: inside the
/// machine itself up to [`INLINE_OUTS`] of them, so a grant or an
/// advance touches no other cache line, else on the heap.
#[derive(Clone)]
pub(crate) enum TokenCounts {
    Inline { len: u8, counts: [u64; INLINE_OUTS] },
    Spilled(Vec<u64>),
}

impl TokenCounts {
    /// `len` counts of `preload` each.
    fn new(len: usize, preload: u64) -> Self {
        match u8::try_from(len) {
            Ok(n) if len <= INLINE_OUTS => Self::Inline {
                len: n,
                counts: [preload; INLINE_OUTS],
            },
            _ => Self::Spilled(vec![preload; len]),
        }
    }
}

impl std::ops::Deref for TokenCounts {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Self::Inline { len, counts } => &counts[..usize::from(*len)],
            Self::Spilled(counts) => counts,
        }
    }
}

impl std::ops::DerefMut for TokenCounts {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Self::Inline { len, counts } => &mut counts[..usize::from(*len)],
            Self::Spilled(counts) => counts,
        }
    }
}

impl std::fmt::Debug for TokenCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl HopWorker {
    /// Worker `w` before its first iteration, with the `max_ig` token
    /// preload in every out-neighbor's queue.
    pub(crate) fn new(cx: &Shared<'_>, w: usize) -> Self {
        let outs = cx.topology.external_out_neighbors(w).len();
        Self {
            w,
            iter: 0,
            phase: Phase::Stepping,
            queue: RotatingQueues::new(cx.window),
            newest_from: vec![None; cx.topology.in_neighbors(w).len()],
            tokens_from: (cx.cfg.max_ig())
                .map_or(TokenCounts::new(0, 0), |ig| TokenCounts::new(outs, ig)),
            acks: 0,
            last_consumed: None,
            delta_max: None,
        }
    }

    /// Feeds one input.
    pub(crate) fn on<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        input: Input,
    ) -> Result<(), E::Error> {
        match input {
            Input::Start => return self.enter(cx, exec, 0, 0),
            Input::ComputeDone => return self.compute_done(cx, exec),
            Input::Update { from, iter, params } => self.admit(cx, exec, from, iter, params),
            Input::Tokens { slot, count } => self.tokens_from[slot] += count,
            Input::Ack => self.acks += 1,
            Input::Resume => return self.resume(cx, exec),
        }
        Ok(())
    }

    /// Re-enters a revived worker at `target` (simulator churn): the stage
    /// it died in is abandoned with its handle, and skipping from the
    /// crash point to `target` spends one grant per skipped iteration on
    /// every outgoing edge — the caller vouched the balance covers it —
    /// and grants as many to every in-neighbor, as a §5 jump does.
    pub(crate) fn rejoin<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        target: u64,
    ) -> Result<(), E::Error> {
        self.phase = Phase::Stepping;
        self.acks = 0;
        // The executor handed the worker a donor's replica.
        self.delta_max = None;
        let catchup = target - self.iter;
        for avail in self.tokens_from.iter_mut() {
            debug_assert!(*avail >= catchup, "rejoin admitted on token credit");
            *avail -= catchup.min(*avail);
        }
        self.enter(cx, exec, target, catchup)
    }

    /// Enters `iter`, granting `tokens` to every in-neighbor, then sends
    /// (parallel order) and computes — or finishes, at `max_iters`.
    fn enter<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        iter: u64,
        tokens: u64,
    ) -> Result<(), E::Error> {
        self.iter = iter;
        let step = choreography::begin_step(exec.parts().sink, self.w, iter);
        exec.enter(iter)?;
        let token_queues = cx.cfg.max_ig().is_some();
        if token_queues && tokens > 0 {
            exec.grant(tokens)?;
        }
        if iter >= cx.max_iters {
            step.retire();
            self.phase = Phase::Finished;
            exec.finish();
            // Release neighbors that might still need our tokens.
            return if token_queues {
                exec.grant(cx.max_iters + 1)
            } else {
                Ok(())
            };
        }
        if cx.cfg.order == ComputeOrder::Parallel {
            self.send(cx, exec, &step)?;
        }
        exec.compute_ready(iter);
        self.phase = Phase::Computing(step.begin_compute(exec.parts().sink));
        exec.compute(iter);
        Ok(())
    }

    /// The Send: the self-update is delivered here at once, an exact
    /// zero-copy snapshot; the executor sends the externals.
    fn send<E: Executor, S: SendStage>(
        &mut self,
        cx: &Shared<'_>,
        exec: &mut E,
        step: &Step<S>,
    ) -> Result<(), E::Error> {
        let Parts { params, sink, .. } = exec.parts();
        let params = params.snapshot();
        step.send(sink, self.w);
        if exec.alive() {
            self.admit(cx, exec, self.w, step.iter(), params.snapshot());
        }
        exec.send(step, &params, self.delta_max.take())?;
        exec.parts().pool.reclaim(params);
        Ok(())
    }

    /// An update arrives: staleness mode keeps it if it is the newest from
    /// its sender (judged as a delivery-plane [`Arrival`]) and recycles
    /// what loses; the other modes queue it by tag.
    fn admit<E: Executor>(
        &mut self,
        cx: &Shared<'_>,
        exec: &mut E,
        from: usize,
        iter: u64,
        params: ParamBlock,
    ) {
        if cx.cfg.staleness.is_none() {
            let tag = Tag { iter, w_id: from };
            self.queue
                .enqueue(params, tag)
                .expect("unbounded rotating queues");
            return;
        }
        let in_neighbors = cx.topology.in_neighbors(self.w);
        let slot = in_neighbors.binary_search(&from).expect("an in-neighbor");
        let newer = self.newest_from[slot]
            .as_ref()
            .is_none_or(|&(have, _)| iter > have);
        let Parts { pool, sink, .. } = exec.parts();
        let worker = self.w;
        Arrival { worker, from, iter }.judge(sink, newer, self.iter);
        let loser = if newer {
            self.newest_from[slot]
                .replace((iter, params))
                .map(|(_, old)| old)
        } else {
            Some(params)
        };
        if let Some(block) = loser {
            pool.reclaim(block);
        }
    }

    /// Whether the worker is parked in a wait that an arrival can end:
    /// only then does [`Input::Resume`] do anything.
    pub(crate) fn waiting(&self) -> bool {
        matches!(
            self.phase,
            Phase::WaitAck(_) | Phase::WaitUpdates(_) | Phase::WaitTokens(_) | Phase::JumpRecv(_)
        )
    }

    /// Makes whatever progress the phase allows with what has arrived.
    /// A worker that is computing or finished reads and writes nothing.
    fn resume<E: Executor>(&mut self, cx: &mut Shared<'_>, exec: &mut E) -> Result<(), E::Error> {
        if !self.waiting() {
            return Ok(());
        }
        let outs = cx.topology.external_out_neighbors(self.w).len();
        match std::mem::replace(&mut self.phase, Phase::Stepping) {
            Phase::WaitUpdates(step) => self.try_recv(cx, exec, step),
            Phase::JumpRecv(renew) => self.try_jump_recv(cx, exec, renew),
            Phase::WaitTokens(step) => self.attempt_advance(cx, exec, step),
            Phase::WaitAck(step) if self.acks >= outs => self.serial_send_then_recv(cx, exec, step),
            other => {
                self.phase = other;
                Ok(())
            }
        }
    }

    fn compute_done<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
    ) -> Result<(), E::Error> {
        let Phase::Computing(step) = std::mem::replace(&mut self.phase, Phase::Stepping) else {
            unreachable!("ComputeDone for a worker that is not computing");
        };
        let step = step.end_compute(exec.parts().sink);
        if cx.cfg.order == ComputeOrder::Parallel {
            // Fig. 2(b): the update is applied onto the reduced parameters.
            return self.try_recv(cx, exec, step);
        }
        // Fig. 2(a): apply to the same parameters, then send.
        // Copy-on-write: snapshots still in flight keep their values.
        let Parts {
            params, opt, grad, ..
        } = exec.parts();
        opt.step_block(params, grad);
        self.delta_max = None;
        let outs = cx.topology.external_out_neighbors(self.w).len();
        if cx.cfg.sync == SyncMode::NotifyAck && self.iter > 0 && self.acks < outs {
            self.phase = Phase::WaitAck(step);
            return Ok(());
        }
        self.serial_send_then_recv(cx, exec, step)
    }

    fn serial_send_then_recv<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        step: Step<Exchanging>,
    ) -> Result<(), E::Error> {
        self.acks = 0;
        self.send(cx, exec, &step)?;
        self.try_recv(cx, exec, step)
    }

    /// Gathers the Recv at iteration `at` into `cx.entries`, consuming
    /// each update through `handle`, if the mode's condition holds: the
    /// newest update of every in-neighbor within the staleness window
    /// (Fig. 9), or the quota of updates tagged `at` plus any extras
    /// already here (Fig. 8). A §5 renew (`renew`) draws on the external
    /// in-neighbors only, under the renew quota. The stale updates the
    /// rotating queue purges on the way go back to the pool.
    fn gather<S: EventSink>(
        &mut self,
        cx: &mut Shared<'_>,
        p: &mut Parts<'_, S>,
        at: u64,
        renew: bool,
        handle: &mut impl Consuming,
    ) -> bool {
        let (w, entries) = (self.w, &mut cx.entries);
        if let Some(s) = cx.cfg.staleness {
            let in_neighbors = cx.topology.in_neighbors(w);
            let slots = || {
                let slots = in_neighbors.iter().zip(&self.newest_from);
                slots.filter(move |&(&j, _)| !renew || j != w)
            };
            let fresh = |slot: &Option<(u64, ParamBlock)>| {
                slot.as_ref()
                    .is_some_and(|&(iter, _)| semantics::staleness_satisfied(iter, at, s))
            };
            if !slots().all(|(_, slot)| fresh(slot)) {
                return false;
            }
            for (&w_id, slot) in slots() {
                let (iter, block) = slot.as_ref().expect("checked fresh");
                let tag = Tag { iter: *iter, w_id };
                entries.push(TaggedEntry {
                    value: block.snapshot(),
                    tag,
                });
            }
        } else {
            let senders = cx.topology.in_degree(w) - usize::from(renew);
            let quota = if renew {
                semantics::renew_quota(senders, cx.cfg.n_backup)
            } else {
                semantics::backup_quota(senders, cx.cfg.n_backup)
            };
            let pool = &mut *p.pool;
            let recycle = |block| pool.reclaim(block);
            if !(self.queue).take_quota_into(quota, senders, at, entries, recycle) {
                return false;
            }
        }
        for entry in entries.iter() {
            handle.consume(p.sink, entry.tag.w_id, entry.tag.iter);
        }
        self.last_consumed = entries.last().map(|e| e.tag);
        true
    }

    /// The Recv + Reduce + Apply of the current iteration; parks (phase
    /// `WaitUpdates`) until the mode's condition is met.
    fn try_recv<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        mut step: Step<Exchanging>,
    ) -> Result<(), E::Error> {
        let mut p = exec.parts();
        if E::EAGER_PURGE {
            let pool = &mut *p.pool;
            self.queue
                .recycle_older_than(self.iter, |block| pool.reclaim(block));
        }
        if !self.gather(cx, &mut p, self.iter, false, &mut step) {
            self.phase = Phase::WaitUpdates(step);
            return Ok(());
        }
        let step = step.reduce(p.sink);
        // Parallel order: the SGD step rides the Reduce sweep. Its
        // gradient was taken at the replica the Reduce replaces, which
        // nothing wrote since; the snapshot (already shared with the
        // self-update) keeps it readable while the replica is rewritten.
        let parallel = cx.cfg.order == ComputeOrder::Parallel;
        let at = parallel.then(|| p.params.snapshot());
        let apply = at.as_ref().map(|at| p.opt.step_onto(at, p.grad));
        // Only the parallel order sends what the Reduce writes.
        let reference = p.reference.filter(|_| parallel);
        self.delta_max = reduce::<E>(cx, self.iter, None, apply, reference, p.params, p.pool);
        if let Some(at) = at {
            p.pool.reclaim(at);
        }
        if cx.cfg.sync == SyncMode::NotifyAck {
            exec.ack();
        }
        self.attempt_advance(cx, exec, step)
    }

    /// Token acquisition, the §5 skip decision, and the actual advance.
    fn attempt_advance<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        step: Step<Reduced>,
    ) -> Result<(), E::Error> {
        let k = self.iter;
        let outs = cx.topology.external_out_neighbors(self.w);
        let Some(max_ig) = cx.cfg.max_ig().filter(|_| !outs.is_empty()) else {
            step.complete();
            return self.enter(cx, exec, k + 1, 1);
        };
        let tokens = &mut self.tokens_from;
        let jump = (cx.cfg.skip.as_ref())
            .and_then(|skip| semantics::jump_before_end(tokens, max_ig, skip, k, cx.max_iters));
        let sink = exec.parts().sink;
        if let Some(jump) = jump {
            let renew = step.jump(sink, k + jump, tokens);
            // Take `jump` tokens from every out-going neighbor, and grant
            // as many to in-neighbors at once so they are never starved
            // while we renew.
            for (avail, &owner) in tokens.iter_mut().zip(outs) {
                *avail -= jump;
                renew.take_tokens(sink, owner);
            }
            exec.grant(jump)?;
            return self.try_jump_recv(cx, exec, renew);
        }
        if !tokens.iter().all(|&c| c >= 1) {
            self.phase = Phase::WaitTokens(step);
            return Ok(());
        }
        for (avail, &owner) in tokens.iter_mut().zip(outs) {
            *avail -= 1;
            step.take_token(sink, owner);
        }
        step.complete();
        self.enter(cx, exec, k + 1, 1)
    }

    /// §5: before jumping to `target`, renew parameters with
    /// `Recv(target - 1)` + Reduce so the straggler's future updates are
    /// not hopelessly stale, and reset the momentum (its history refers to
    /// a trajectory this worker abandoned). The updates of the skipped
    /// iterations are purged as stale (see [`Executor::EAGER_PURGE`]).
    fn try_jump_recv<E: Executor>(
        &mut self,
        cx: &mut Shared<'_>,
        exec: &mut E,
        mut renew: Renew,
    ) -> Result<(), E::Error> {
        let (target, at) = (renew.target(), renew.target() - 1);
        let mut p = exec.parts();
        if !self.gather(cx, &mut p, at, true, &mut renew) {
            self.phase = Phase::JumpRecv(renew);
            return Ok(());
        }
        // The renewing handle counts the worker's own (stale) parameters
        // into the Reduce; the snapshot keeps them readable while the
        // replica is rewritten.
        renew.renew_reduce(p.sink);
        let own = (self.iter, p.params.snapshot());
        let reference = p
            .reference
            .filter(|_| cx.cfg.order == ComputeOrder::Parallel);
        self.delta_max = reduce::<E>(cx, at, Some(own), None, reference, p.params, p.pool);
        p.opt.reset_velocity();
        self.enter(cx, exec, target, 0)
    }
}

/// `params ← mean(cx.entries ∪ own)`, then the SGD step `apply` if any —
/// staleness-weighted for
/// iteration `at` under the staleness mode; the entries in sender order if
/// [`Executor::SENDER_ORDER`], `own` (a renew's pre-jump replica and its
/// iteration) last — then recycles every block and leaves the entries
/// empty. Full overwrite: a shared replica detaches without copying. The
/// input lists are built by [`semantics::with_inline`], so an in-degree
/// of 16 or less allocates nothing. Returns `max|params - reference|` if
/// given a reference, measured in the same sweep.
fn reduce<E: Executor>(
    cx: &mut Shared<'_>,
    at: u64,
    own: Option<(u64, ParamBlock)>,
    apply: Option<SgdStep<'_>>,
    reference: Option<&[f32]>,
    params: &mut ParamBlock,
    pool: &mut BufferPool,
) -> Option<f32> {
    let entries = &mut cx.entries;
    if E::SENDER_ORDER {
        entries.sort_unstable_by_key(|e| e.tag.w_id);
    }
    let views = entries.iter().map(|e| (e.tag.iter, e.value.as_slice()));
    let views = views.chain(own.as_ref().map(|(iter, p)| (*iter, p.as_slice())));
    let out = params.overwrite_mut(pool);
    let weighting = cx.cfg.staleness_weighting;
    let max = match cx.cfg.staleness {
        Some(s) => semantics::with_inline(views, (0, &[][..]), |views| {
            semantics::reduce_staleness_with(weighting, views, at, s, apply, reference, out)
        }),
        None => semantics::with_inline(views.map(|(_, p)| p), &[][..], |views| {
            semantics::reduce_mean(views, apply, reference, out)
        }),
    };
    for block in entries
        .drain(..)
        .map(|e| e.value)
        .chain(own.map(|(_, p)| p))
    {
        pool.reclaim(block);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::ProtocolTrace;
    use std::convert::Infallible;

    /// An executor that carries out nothing and counts what it is asked.
    struct Probe {
        params: ParamBlock,
        opt: Sgd,
        pool: BufferPool,
        sink: ProtocolTrace,
        grad: Vec<f32>,
        calls: usize,
    }

    impl Probe {
        /// Everything an input could have changed: the machine, the
        /// replica and optimizer it was handed, the events emitted and
        /// the calls made.
        fn state(&self, worker: &HopWorker) -> String {
            format!(
                "{worker:?} {:?} {:?} {} {}",
                self.params,
                self.opt,
                self.sink.len(),
                self.calls
            )
        }
    }

    impl Executor for Probe {
        type Error = Infallible;
        type Sink = ProtocolTrace;
        const SENDER_ORDER: bool = false;
        const EAGER_PURGE: bool = false;

        fn parts(&mut self) -> Parts<'_, ProtocolTrace> {
            Parts {
                params: &mut self.params,
                opt: &mut self.opt,
                pool: &mut self.pool,
                sink: &mut self.sink,
                grad: &self.grad,
                reference: None,
            }
        }

        fn enter(&mut self, _iter: u64) -> Result<(), Infallible> {
            self.calls += 1;
            Ok(())
        }

        fn compute_ready(&mut self, _iter: u64) {
            self.calls += 1;
        }

        fn compute(&mut self, _iter: u64) {
            self.calls += 1;
        }

        fn send<S: SendStage>(
            &mut self,
            _step: &Step<S>,
            _params: &ParamBlock,
            _max_delta: Option<f32>,
        ) -> Result<(), Infallible> {
            self.calls += 1;
            Ok(())
        }

        fn grant(&mut self, _n: u64) -> Result<(), Infallible> {
            self.calls += 1;
            Ok(())
        }

        fn finish(&mut self) {
            self.calls += 1;
        }
    }

    #[test]
    fn token_counts_read_the_same_inline_and_spilled() {
        for len in [0, 3, INLINE_OUTS, INLINE_OUTS + 2] {
            let mut counts = TokenCounts::new(len, 5);
            assert_eq!(
                matches!(counts, TokenCounts::Inline { .. }),
                len <= INLINE_OUTS
            );
            assert_eq!(*counts, vec![5; len][..]);
            for (i, c) in counts.iter_mut().enumerate() {
                *c += i as u64;
            }
            let expect: Vec<u64> = (0..len as u64).map(|i| 5 + i).collect();
            assert_eq!(format!("{counts:?}"), format!("{expect:?}"));
        }
    }

    /// `Resume` is for a parked worker: fed to one that is computing (with
    /// an update queued meanwhile) or finished, it changes no field and
    /// emits nothing, so an executor may skip it there.
    #[test]
    fn a_resume_outside_a_wait_changes_nothing() {
        const DIM: usize = 4;
        let (cfg, topology) = (HopConfig::standard_with_tokens(2), Topology::ring(3));
        let mut cx = Shared::new(&cfg, &topology, 1);
        let mut worker = HopWorker::new(&cx, 0);
        let mut exec = Probe {
            params: ParamBlock::from_vec(vec![1.0; DIM]),
            opt: Sgd::new(0.1, 0.9, 0.0, DIM),
            pool: BufferPool::new(),
            sink: ProtocolTrace::new(),
            grad: vec![0.5; DIM],
            calls: 0,
        };
        let mut feed = |worker: &mut HopWorker, exec: &mut Probe, input| {
            let Ok(()) = worker.on(&mut cx, exec, input);
        };
        let update = |from| Input::Update {
            from,
            iter: 0,
            params: ParamBlock::from_vec(vec![from as f32; DIM]),
        };
        feed(&mut worker, &mut exec, Input::Start);
        feed(&mut worker, &mut exec, update(1));
        assert!(matches!(worker.phase, Phase::Computing(_)));
        assert!(!worker.waiting());
        let computing = exec.state(&worker);
        feed(&mut worker, &mut exec, Input::Resume);
        assert_eq!(exec.state(&worker), computing);
        // The Recv waits for the third update, which ends the run.
        feed(&mut worker, &mut exec, Input::ComputeDone);
        assert!(matches!(worker.phase, Phase::WaitUpdates(_)) && worker.waiting());
        feed(&mut worker, &mut exec, update(2));
        feed(&mut worker, &mut exec, Input::Resume);
        assert!(matches!(worker.phase, Phase::Finished));
        assert!(!worker.waiting());
        let finished = exec.state(&worker);
        feed(&mut worker, &mut exec, Input::Resume);
        assert_eq!(exec.state(&worker), finished);
    }
}
