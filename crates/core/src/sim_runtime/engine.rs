//! The shared discrete-event driver behind every simulated runtime.
//!
//! # The `SimEngine` / `WorkerProtocol` split
//!
//! Every simulated protocol (Hop's decentralized family, the
//! parameter-server baselines, AD-PSGD, ring all-reduce, Prague and
//! QGM) shares the same skeleton: seed a deterministic RNG, replicate
//! initial parameters, wire a [`BatchSampler`] and [`Sgd`] per worker,
//! pump an [`EventQueue`] until every worker finishes (or the run
//! deadlocks), draw compute times from the [`SlowdownModel`], and
//! record timing ([`Trace`]) and loss ([`Recorder`]) along the way.
//! Before this module existed each runtime hand-rolled that skeleton
//! (~1.7k LoC with heavy duplication); now it lives here exactly once.
//!
//! * [`SimEngine`] owns everything protocol-independent: the virtual
//!   [`Network`], the event heap, per-worker common state
//!   ([`WorkerCommon`]: parameters, optimizer, sampler, RNG, iteration
//!   counter), the trace/recorder hooks, compute-time draws and finish
//!   detection. Its [`SimEngine::drive`] method is the *only* event pump
//!   in the crate.
//! * [`WorkerProtocol`] is the plug-in surface: a protocol declares its
//!   event payload type, schedules its initial events in
//!   [`WorkerProtocol::start`], and decodes/handles each event in
//!   [`WorkerProtocol::on_event`] — updating worker state and scheduling
//!   follow-on events through the engine it is handed. Protocol-specific
//!   per-worker state (queues, phases, token counts…) stays inside the
//!   protocol struct, disjoint from the engine's common state, so both
//!   can be borrowed mutably at once. Hop's plug-in keeps none of its
//!   own rules: its workers are the crate's one sans-IO worker machine,
//!   which the threaded and process runtimes run too, and the plug-in is
//!   that machine's simulation executor.
//!
//! Adding a new baseline (e.g. Prague-style partial all-reduce or
//! quasi-global momentum) is now a ~150-line `WorkerProtocol`
//! implementation instead of a fork of `decentralized.rs`.
//!
//! # The zero-copy parameter plane
//!
//! Worker parameter replicas are [`ParamBlock`]s: `Arc`-shared flat
//! buffers whose [`snapshot`](ParamBlock::snapshot) is a refcount bump.
//! Protocols publish parameters (to event payloads, rotating queues,
//! staleness caches) by snapshotting — a steady-state message send copies
//! *zero* parameter bytes. Mutation is copy-on-write:
//! read-modify-write updates (optimizer steps, pairwise averaging) go
//! through [`ParamBlock::make_mut`], and full overwrites (`Reduce`) go
//! through [`ParamBlock::overwrite_mut`], which takes its buffer from the
//! engine-owned [`BufferPool`] instead of copying soon-discarded values.
//! Whoever replaces a block recycles it: `overwrite_mut` (like a codec
//! stream's step) retires the replaced block to the pool it drew from,
//! which reuses the buffer once the last in-flight snapshot is dropped;
//! a reader's [`reclaim`](BufferPool::reclaim) of that snapshot only
//! drops a reference. The simulator has one pool, so this changes no
//! buffer's home here; on the threaded runtime, where each worker thread
//! owns a pool, it keeps buffers from drifting between workers. The pool
//! also recycles per-event gradient scratch
//! ([`BufferPool::acquire_stale`]/[`release`](BufferPool::release)) and
//! reclaims snapshots nobody retired once their last holder drops them.
//! Every holder hands its snapshot back through
//! [`reclaim`](BufferPool::reclaim) — a Reduce its inputs, the rotating
//! queues the stale updates they purge — so a block the retired list
//! evicted (one pool serves sixteen workers' blocks here) still returns
//! to the pool, and a run stops allocating once warm.
//! Per-example forward/backward intermediates live in each worker's
//! [`GradScratch`], and the sampler draws each batch's indices into a
//! buffer the running thread keeps. A reader's last reclaim hands a
//! block back whole, `Arc` and all, and [`ParamBlock::overwrite_mut`]
//! takes such a block, so a Reduce output allocates nothing. The steady
//! state is not allocation-free: on the decentralized runtime a
//! worker-iteration costs 1.1 heap allocations, and
//! `tests/alloc_budget.rs` pins at most 1.15. What remains is the
//! `Batch` built from the sampler's indices, one per worker-iteration.
//!
//! # The pump
//!
//! The pump behind [`SimEngine::drive`] pops an event, peeks at the
//! next one ([`EventQueue::peek`], which moves nothing the pop order
//! depends on), lets the protocol prefetch what handling that
//! one will touch ([`WorkerProtocol::prefetch`]), and only then handles
//! the event it popped. At 10k workers the per-worker state is tens of
//! megabytes and a worker's next event comes thousands of events after
//! its last, so without this an event began with misses on its
//! worker's lines. Hop's plug-in prefetches the worker's machine for
//! every event, and for a compute completion, the one event that steps
//! the worker, also its gradient buffer and
//! [`SimEngine::prefetch_worker`]'s engine entries. Prefetching all of
//! them for every event (about 16 lines) put 7 % of the pump's samples
//! on the prefetch instructions and gained nothing beyond the noise.
//! Beside the prefetch, an event touches less: a `Resume`
//! goes only to a machine parked in a wait, the token counts sit inline
//! in the machine, a grant carries its slot among the receiver's
//! out-neighbors (no topology lookup), and a Recv purges its sub-queue
//! once, not three times.
//!
//! Measured on `sim_exp10k_ident` (2-core host, release): in-process A/B
//! runs of the 10k recipe that switch one part off at a time (12
//! interleaved pairs each, median wall time) put the prefetch at −11.5 %
//! (11 of 12 pairs faster), and the skipped resumes, the grant slots,
//! the single purge and the pooled `Arc` (below) each within the host's
//! noise (−4 % to +4 %); all five together at −21 % (11 of 12). The
//! queue is one binary heap on packed `u128` `(time, seq)` keys beside
//! the FIFO lanes that carry grants and acks. It replaced a calendar
//! queue (time buckets, each a heap) with throughput unchanged and peak
//! RSS 6 % lower; sorted-on-activation buckets, 24-byte keys with a
//! payload slab and bucket widths from 100 µs down to 2 µs had not made
//! the calendar faster either. Keys compared as an `f64` and a `u64`
//! cost 3.6–4.5 %, and sending grants and acks through the heap instead
//! of lanes cost 12 %. Two further prefetches changed nothing
//! measurable and are not here: a second level issued after each event
//! for the next one (the rotating queue's buffer, the replica's header,
//! the loss series' tails), and the Reduce's input blocks ahead of its
//! sweep. Heap pops were about a quarter of the pump's samples
//! under the calendar; the heap's share has not been profiled since.
//!
//! # Compute futures
//!
//! Hop's parallel computation graph (Fig. 2b) overlaps an iteration's
//! gradient with its Send/Recv. The simulator models that overlap in
//! virtual time and also runs it that way on the host: a protocol calls
//! `begin_compute` when a worker's virtual compute phase *starts* — the
//! snapshot the gradient is taken at is fixed from then on — and
//! `join_compute` when its completion event pops. Hop's parallel order
//! begins the job right after the iteration's Send, which writes no
//! parameter: the Send's encode runs while the helper is still free to
//! share it, and the gradient is the same either way. In between, the job
//! (draw the batch, `loss_grad_into` the worker's gradient buffer) waits
//! in the pump's outbox, and the outbox goes to one helper thread as a
//! single message — a *hand-off* — once the gradient work queued in it reaches
//! `OFFLOAD_MIN_PARAMS` parameters: a 64K-parameter job ships alone,
//! 65-parameter jobs ship 64 at a time, so the channel's cost is paid
//! per hand-off, never per small job. The helper runs a hand-off front
//! to back (begin order, which is roughly join order) and returns it as
//! one message; a join files returned jobs until its own is among them.
//! A join that finds its job still in the outbox takes it out and runs
//! it on the pump, so a run too small or too sparse to fill a hand-off
//! never waits for one; a run whose every worker together could not
//! fill one (`workers × params` below the threshold), a single-core
//! host, and the side-by-side points of a multi-threaded sweep get no
//! helper at all, and every job takes that route.
//!
//! Between hand-offs the helper also shares the pump's long sweeps.
//! `drive` creates a [`Board`] (`hop_tensor::sweep`) with the helper —
//! so wherever there is no helper there is no board either — and `pump`
//! installs it on its thread with a guard that uninstalls it however the
//! pump ends. Every sweep of at least [`sweep::SPLIT_MIN`] elements the
//! pump then runs through a splitting kernel — a Reduce with its SGD
//! step (`scaled_sum`, which under int8 also measures the scale of the
//! worker's next Send), an int8 encode (`quantize_advance` alone after
//! such a Reduce, else after a `max_abs_sum`; `quantize_feedback` on a
//! gradient stream), an evaluation's average — is posted in chunks: the
//! pump runs them from the front, the helper, polling the board in
//! `recv_spinning` while it waits for a hand-off, from the back; a
//! helper busy with a gradient job leaves every chunk to the pump. On
//! `sim_ref16_int8` that makes an iteration two sweeps on the pump, the
//! Reduce and the quantize. Splitting cannot change a bit: each output
//! element is computed by the same expression from the same-index inputs
//! on either thread, and the int8 scale's maximum is exact under any
//! grouping.
//! [`TrainingReport::sweep_chunks_helped`] counts the helper's chunks;
//! unlike the hand-off counters, it depends on the schedule.
//!
//! The helper is scoped to [`SimEngine::drive`], which moves the engine
//! into the scope: however the pump ends — a report, or a panic
//! unwinding through — the engine and its sender drop inside, the helper
//! sees the closed channel and exits, and the scope joins it before
//! `drive` returns. A job that panics ends the helper: the jobs ahead of
//! it in the hand-off come back done, the panic's payload comes back
//! with them, and the first join of a job that went down with it (its
//! own, or one behind it) re-raises that payload on the pump.
//!
//! While begun a job owns the worker's scratch and gradient buffer, the
//! sampler's stream (the join writes the advanced sampler back;
//! `sample_grad` / `local_grad` refuse a worker whose job is begun) and
//! an immutable snapshot of the replica. The optimizer stays with the
//! worker: the parallel order advances its velocity in the Reduce, after
//! the join, from the joined gradient and the replica it was taken at.
//! The pump owns everything else, always: event order, virtual
//! time, queues, tokens, recorder, conformance sink, fault plane, buffer
//! pool — and every snapshot's drop, so pool recycling is
//! schedule-independent too. There is no cancel path: crashes fire only
//! at iteration entry, so a worker alive when its compute begins is
//! alive when it completes, and `join_compute` asserts that a job was
//! begun.
//!
//! Determinism: the engine introduces no randomness of its own. Event
//! order is total (time, then insertion sequence), per-worker RNGs are
//! seeded from the master seed, and slowdowns are sampled from
//! `(seed, worker, iteration)` — so one seed yields one report,
//! bit-for-bit. The helper cannot change that: a job's inputs are fixed
//! when it begins and untouched until the join, its result enters the
//! simulation only at the join — an event the pump orders like any
//! other — and the arithmetic is the same sequential code on either
//! thread: the schedule decides *when* a gradient is ready, never *what*
//! it is or who sees it. Likewise it decides which thread writes a
//! chunk of a shared sweep, never what the chunk holds.
//! Sharing never changes values: snapshots are immutable,
//! copy-on-write detaches before any write, and pooled buffers are
//! handed out zero-filled, or — for a `Reduce` output or a stream's next
//! reference, which a kernel overwrites in full — never read before
//! they are written; so reports are bit-identical to an implementation
//! that deep-copied every message.

use crate::choreography;
use crate::conformance::ProtocolTrace;
use crate::report::TrainingReport;
use crate::sim_runtime::recorder::{EvalConfig, Recorder};
use crate::trainer::Hyper;
use hop_data::{BatchSampler, Dataset, InMemoryDataset};
use hop_model::{GradScratch, Gradient, Model, Sgd};
use hop_sim::{
    ClusterSpec, EventQueue, FaultEvent, NetModel, Network, SlowdownModel, Trace, Verdict,
};
use hop_tensor::ops::simd::prefetch;
use hop_tensor::sweep::{self, Board};
use hop_tensor::{BufferPool, ParamBlock};
use hop_util::Xoshiro256;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long either end of the hand-off polls before parking: in steady
/// state the next message is this close, so nobody pays a futex wake for it.
const SPIN: Duration = Duration::from_micros(200);

thread_local! {
    /// Fewest parameters of gradient work a hand-off to the compute
    /// helper carries, for runs driven on this thread (a smaller message
    /// costs more to pass than to compute). `usize::MAX` — never, so no
    /// helper — on a single-core host and on the threads of a
    /// multi-threaded [`crate::sweep::SweepRunner`], where run-level
    /// parallelism already fills the cores; tests force it.
    pub(crate) static OFFLOAD_MIN_PARAMS: Cell<usize> = Cell::new(
        match std::thread::available_parallelism().map_or(1, usize::from) {
            1 => usize::MAX,
            _ => 4096,
        },
    );

    /// Whether a run driven on this thread with a compute helper also
    /// shares the pump's long sweeps with it on a [`Board`]. Always, but
    /// for tests that compare runs with and without one.
    pub(crate) static SHARE_SWEEPS: Cell<bool> = const { Cell::new(true) };
}

#[cfg(test)]
thread_local! {
    /// The engine pool's counters when the last run driven on this
    /// thread ended, for tests that count its allocations.
    pub(crate) static POOL_STATS: Cell<hop_tensor::PoolStats> = Cell::new(Default::default());

    /// Whether a board shared with the helper waits for the helper's
    /// first claim ([`Board::awaiting_help`]), for tests that must see
    /// a helped chunk.
    pub(crate) static AWAIT_HELP: Cell<bool> = const { Cell::new(false) };
}

/// `rx.recv()` that polls for [`SPIN`] before it parks, calling `idle`
/// between polls; work `idle` reports doing restarts the [`SPIN`]. Only
/// a poll whose `idle` reported nothing parks, however long the thread
/// was descheduled since the last one.
fn recv_spinning<T>(rx: &Receiver<T>, mut idle: impl FnMut() -> bool) -> Result<T, RecvError> {
    let mut start = Instant::now();
    loop {
        match rx.try_recv() {
            Err(TryRecvError::Empty) if idle() => start = Instant::now(),
            Err(TryRecvError::Empty) if start.elapsed() < SPIN => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => return rx.recv(),
            settled => return settled.map_err(|_| RecvError),
        }
    }
}

/// The board a pump with a helper shares its sweeps on.
fn sweep_board() -> Board {
    #[cfg(test)]
    if AWAIT_HELP.get() {
        return Board::awaiting_help();
    }
    Board::new()
}

/// One iteration's gradient work for one worker, owning all it mutates.
struct GradJob {
    w: usize,
    /// The snapshot the gradient is taken at.
    params: ParamBlock,
    sampler: BatchSampler,
    scratch: GradScratch,
    grad: Gradient,
    loss: f32,
}

impl GradJob {
    /// Runs the job, drawing the batch's indices into the running
    /// thread's `indices` buffer.
    fn run(&mut self, model: &dyn Model, dataset: &InMemoryDataset, indices: &mut Vec<usize>) {
        let batch = self.sampler.next_batch_with(indices, dataset);
        self.loss = model.loss_grad_into(&self.params, &batch, &mut self.grad, &mut self.scratch);
    }
}

/// Where worker `w`'s gradient job is.
enum Slot {
    Idle,
    /// Begun and not shipped: in the outbox if there is a helper. Runs on
    /// the pump if the join comes first.
    Queued(GradJob),
    /// In a hand-off: with the helper, or on its way back.
    InFlight,
    /// Came back in a hand-off the pump received while joining another
    /// worker.
    Done(GradJob),
}

/// A panic's payload, as `catch_unwind` hands it over.
type Payload = Box<dyn Any + Send>;

/// The pump's end of the hand-off. What comes back is the jobs the
/// helper ran and, if the next one panicked, that panic's payload.
struct Helper {
    jobs: Sender<Vec<GradJob>>,
    results: Receiver<(Vec<GradJob>, Option<Payload>)>,
    /// Jobs to a hand-off: `OFFLOAD_MIN_PARAMS` in units of this model.
    per_handoff: usize,
    /// The workers whose job is [`Slot::Queued`], in begin order.
    outbox: Vec<usize>,
    /// A job's panic, for the first join that misses a job it took down.
    panic: Option<Payload>,
}

/// Protocol-independent per-worker state owned by the engine.
///
/// The event-pump-hot scalars live *outside* this struct, in dense
/// (structure-of-arrays) engine fields: iteration counters in
/// [`SimEngine::iters`] and the finished flags in a bitset behind
/// [`SimEngine::is_finished`]/[`SimEngine::all_finished`]. Protocols that
/// scan "every worker's iteration" each event (SSP's staleness gate,
/// AD-PSGD's gap metric) walk a flat `u64` array instead of striding
/// over these multi-hundred-byte structs, and the pump's every-event
/// finish check is O(1) instead of O(workers).
pub struct WorkerCommon {
    /// The worker's parameter replica, shared zero-copy with in-flight
    /// messages (see the [module docs](self)). Protocols with a single
    /// global parameter vector (parameter server, ring all-reduce) keep
    /// their own copy and ignore these.
    pub params: ParamBlock,
    /// Per-worker SGD state (momentum velocity).
    pub opt: Sgd,
    /// Deterministic minibatch sampler for this worker's data partition.
    pub sampler: BatchSampler,
    /// Per-worker RNG, seeded from the master seed and the worker id.
    pub rng: Xoshiro256,
    /// Reusable forward/backward scratch for this worker's gradient
    /// evaluations (no per-example allocation).
    pub scratch: GradScratch,
}

/// A simulated training protocol plugged into [`SimEngine::drive`].
///
/// Implementations keep their protocol-specific state (per-worker queues,
/// phases, token counts, a global parameter vector…) in `self`; common
/// state lives in the engine's [`WorkerCommon`] entries.
pub trait WorkerProtocol {
    /// The event payload this protocol schedules and decodes.
    type Event;

    /// Schedules the initial events (first compute completions, initial
    /// broadcast, first round…). Called once before the pump starts.
    fn start(&mut self, eng: &mut SimEngine<'_, Self::Event>);

    /// Handles one event at virtual time `now`: update worker state, do
    /// gradient math, schedule follow-on events.
    fn on_event(&mut self, eng: &mut SimEngine<'_, Self::Event>, now: f64, ev: Self::Event);

    /// Called once after the pump stops, before the report is assembled
    /// (e.g. a final evaluation).
    fn on_finish(&mut self, _eng: &mut SimEngine<'_, Self::Event>) {}

    /// Prefetches the state that handling `next`, the next pending
    /// event, will touch: the pump calls it before it handles the current
    /// one, so the next starts on warm lines (module docs, "The pump").
    /// The protocol names the worker `next` is for and prefetches its own
    /// per-worker state, and [`SimEngine::prefetch_worker`] the engine's
    /// if the event steps the worker. A hint: it must change nothing.
    /// Default: prefetches nothing.
    fn prefetch(&self, _eng: &SimEngine<'_, Self::Event>, _next: &Self::Event) {}

    /// The parameter vectors published in
    /// [`TrainingReport::final_params`]: by default every worker's
    /// replica. Protocols with one global parameter vector override it.
    fn final_params(&mut self, eng: &SimEngine<'_, Self::Event>) -> Vec<Vec<f32>> {
        eng.workers.iter().map(|wc| wc.params.to_vec()).collect()
    }

    /// Stale updates discarded over the run (rotating-queue protocols).
    fn stale_discarded(&self, _eng: &SimEngine<'_, Self::Event>) -> u64 {
        0
    }

    /// Total bytes put on the wire. Defaults to the network's accounting;
    /// protocols that model transfers analytically override this.
    fn bytes_sent(&self, eng: &SimEngine<'_, Self::Event>) -> u64 {
        eng.net.bytes_sent()
    }

    /// Bytes the configured compression codec avoided sending (dense
    /// minus encoded, summed over compressed messages). Protocols that
    /// run a compression plane override this; everything else reports 0.
    fn bytes_saved(&self, _eng: &SimEngine<'_, Self::Event>) -> u64 {
        0
    }

    /// The lowest iteration a revived `worker` can productively re-enter
    /// at. The engine raises the rejoin target to this floor (still
    /// clamped to `max_iters`). Protocols whose receive path needs
    /// updates *tagged* with the current iteration override this: a
    /// neighbor already past iteration `k` sent its tag-`k` update while
    /// the worker was dead (dropped at the dead endpoint), so a target
    /// with too few in-neighbors still behind it stalls forever. The
    /// default — the iteration after the one the worker died in — suits
    /// protocols whose receive state is refreshed by any future message.
    fn rejoin_floor(&self, eng: &SimEngine<'_, Self::Event>, worker: usize) -> u64 {
        eng.iters[worker] + 1
    }

    /// Whether a revived `worker` may re-enter at `target` *right now*.
    /// Protocols with a hard iteration-gap bound veto a target that
    /// would breach it against a live straggler; the engine then leaves
    /// the worker dead and retries after the next event, once the
    /// stragglers have advanced. Default: always admissible.
    fn rejoin_admissible(
        &self,
        _eng: &SimEngine<'_, Self::Event>,
        _worker: usize,
        _target: u64,
    ) -> bool {
        true
    }

    /// Called when the engine revives a crashed worker at `target` — the
    /// parameter replica is already rehydrated from a live donor and the
    /// `Rejoin` choreography event emitted. Implementations re-arm their
    /// per-worker protocol state (phases, queues, token ledgers) and
    /// schedule the events that put the worker back to work. The default
    /// leaves the worker idle; protocols without churn support are only
    /// ever driven with empty fault plans, where this hook never fires.
    fn on_rejoin(
        &mut self,
        _eng: &mut SimEngine<'_, Self::Event>,
        _worker: usize,
        _target: u64,
        _now: f64,
    ) {
    }
}

/// Shared driver for the simulated runtimes: event pump, common worker
/// state, compute-time draws, trace/recorder hooks and finish detection.
///
/// See the [module docs](self) for the design rationale.
pub struct SimEngine<'a, E> {
    /// Model under training (gradient oracle).
    pub model: &'a dyn Model,
    /// Training data; each worker samples its own partition.
    pub dataset: &'a InMemoryDataset,
    /// Heterogeneity model for compute-time draws.
    pub slowdown: &'a SlowdownModel,
    /// Optimizer hyperparameters.
    pub hyper: Hyper,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Master seed.
    pub seed: u64,
    /// Wire size of one parameter message.
    pub param_bytes: u64,
    /// The virtual network (NIC contention, latency, bandwidth).
    pub net: Network,
    /// The fault plane: per-message verdicts, churn state, byzantine
    /// corruption and the fault log. Built from the cluster spec's
    /// [`hop_sim::FaultPlan`]; with the (default) empty plan every hook
    /// short-circuits and the run is bit-identical to one without it.
    pub faults: NetModel,
    /// The event heap; protocols push their own event payloads.
    pub events: EventQueue<E>,
    /// Per-worker iteration timing records.
    pub trace: Trace,
    /// Loss/eval recording.
    pub recorder: Recorder,
    /// Protocol-independent per-worker state.
    pub workers: Vec<WorkerCommon>,
    /// Per-worker iteration counters, dense. Kept apart from
    /// [`SimEngine::workers`] (SoA) so per-event scans stay in cache at
    /// 10k+ workers.
    pub iters: Vec<u64>,
    /// Finished flags, one bit per worker.
    finished: Vec<u64>,
    /// Number of set bits in `finished` (O(1) [`SimEngine::all_finished`]).
    finished_count: usize,
    /// Recycled scratch buffers for per-event temporaries and
    /// full-overwrite parameter writes (see the [module docs](self)).
    pub pool: BufferPool,
    /// Overrides the default event budget of [`SimEngine::drive`]
    /// (`(max_iters + 2) * n_workers * 64 + 10_000`): the maximum number
    /// of events the pump will process (0 stops before the first event).
    /// Tests use tiny budgets to exercise the `budget_exhausted` path.
    pub event_budget: Option<u64>,
    /// Protocol-conformance recorder (`None`, recording nothing, unless
    /// [`SimEngine::with_conformance`] turned it on): protocols report
    /// structured [`crate::conformance::ProtocolEvent`]s into it — via the
    /// [`crate::choreography`] handles, the only API that can emit them —
    /// and the trace lands in [`TrainingReport::conformance`].
    pub conformance: Option<ProtocolTrace>,
    init_params: ParamBlock,
    aborted: bool,
    /// Per-worker gradient-job state (module docs, "Compute futures").
    slots: Vec<Slot>,
    /// `None` runs every job on the pump, at its join.
    helper: Option<Helper>,
    /// Where the pump shares its long sweeps with the helper, if it has
    /// one (module docs, "Compute futures").
    board: Option<Arc<Board>>,
    /// The batch sampler's index buffer, for the gradients the pump
    /// evaluates (the helper keeps its own).
    indices: Vec<usize>,
    /// [`TrainingReport::compute_handoffs`] so far.
    handoffs: u64,
    /// [`TrainingReport::inline_joins`] so far.
    inline_joins: u64,
}

impl<'a, E> SimEngine<'a, E> {
    /// Builds an engine over `spec` with `n_workers` workers (the spec may
    /// contain extra non-worker nodes, e.g. a parameter server).
    ///
    /// Parameter replicas are initialized identically from the master
    /// seed; sampler and RNG streams are per-worker.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has fewer than `n_workers` nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: ClusterSpec,
        n_workers: usize,
        slowdown: &'a SlowdownModel,
        model: &'a dyn Model,
        dataset: &'a InMemoryDataset,
        hyper: &Hyper,
        max_iters: u64,
        seed: u64,
        eval: EvalConfig,
    ) -> Self {
        assert!(
            spec.len() >= n_workers,
            "cluster spec has {} nodes but {n_workers} workers",
            spec.len()
        );
        let mut init_rng = Xoshiro256::seed_from_u64(seed);
        let init_params = ParamBlock::from_vec(model.init_params(&mut init_rng));
        let workers = (0..n_workers)
            .map(|w| WorkerCommon {
                // All replicas share the init allocation until first write.
                params: init_params.snapshot(),
                opt: Sgd::new(
                    hyper.lr,
                    hyper.momentum,
                    hyper.weight_decay,
                    init_params.len(),
                ),
                sampler: BatchSampler::for_worker(dataset.len(), hyper.batch_size, seed, w),
                // (w + 1) keeps worker 0's stream distinct from the
                // parameter-init RNG, which is seeded with the bare seed.
                rng: Xoshiro256::seed_from_u64(
                    seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                scratch: GradScratch::new(),
            })
            .collect();
        let faults = NetModel::new(spec.faults().clone(), seed, spec.len());
        Self {
            model,
            dataset,
            slowdown,
            hyper: *hyper,
            max_iters,
            seed,
            param_bytes: init_params.len() as u64 * 4,
            faults,
            net: Network::new(spec),
            // Pre-size the heap so steady-state pushes never reallocate:
            // pending events scale with workers × protocol fan-out (each
            // worker keeps a bounded number of sends/completions in
            // flight), never with total iterations — but a tiny run needs
            // no more slots than it has events, so cap by the event count.
            events: EventQueue::with_capacity(
                (n_workers * 64)
                    .min(n_workers.saturating_mul((max_iters as usize).saturating_add(2)))
                    .max(64),
            ),
            // One record per worker per iteration entered (0..=max_iters),
            // capped so absurd `max_iters` values cannot pre-allocate
            // gigabytes; past the cap the Vec grows normally.
            trace: Trace::with_capacity(
                n_workers,
                n_workers
                    .saturating_mul((max_iters as usize).saturating_add(1))
                    .min(1 << 22),
            ),
            recorder: Recorder::new(n_workers, max_iters, eval, dataset),
            workers,
            iters: vec![0; n_workers],
            finished: vec![0; n_workers.div_ceil(64)],
            finished_count: 0,
            pool: BufferPool::new(),
            event_budget: None,
            conformance: None,
            init_params,
            aborted: false,
            slots: (0..n_workers).map(|_| Slot::Idle).collect(),
            helper: None,
            board: None,
            indices: Vec::new(),
            handoffs: 0,
            inline_joins: 0,
        }
    }

    /// Enables conformance recording when `enabled` — the one place every
    /// protocol `run` routes its `conformance` flag through, so a new
    /// plug-in cannot ship with recording silently dead.
    #[must_use]
    pub fn with_conformance(mut self, enabled: bool) -> Self {
        self.conformance = enabled.then(ProtocolTrace::new);
        self
    }

    /// The shared initial parameter vector (for protocols keeping a global
    /// replica instead of per-worker ones).
    pub fn init_params(&self) -> &[f32] {
        self.init_params.as_slice()
    }

    /// A zero-copy snapshot of the initial parameters (for protocols
    /// keeping [`ParamBlock`] replicas of their own).
    pub fn init_block(&self) -> ParamBlock {
        self.init_params.snapshot()
    }

    /// A fresh optimizer sized for the model (for global-replica
    /// protocols).
    pub fn new_opt(&self) -> Sgd {
        Sgd::new(
            self.hyper.lr,
            self.hyper.momentum,
            self.hyper.weight_decay,
            self.init_params.len(),
        )
    }

    /// Duration of worker `w`'s iteration-`iter` gradient computation:
    /// the cluster's base compute time scaled by the slowdown draw.
    pub fn compute_duration(&self, w: usize, iter: u64) -> f64 {
        self.net.spec().base_compute(w) * self.slowdown.factor(self.seed, w, iter)
    }

    /// Draws worker `w`'s next minibatch and evaluates loss and gradient
    /// at `params` (which may be a protocol-owned vector), reusing the
    /// worker's [`GradScratch`]. Does not record the loss — pair with
    /// [`Recorder::train_loss`] at the time that fits the protocol's
    /// semantics.
    ///
    /// # Panics
    ///
    /// If a gradient job is begun for `w`: the job draws from the
    /// sampler's stream, and the join would overwrite this draw.
    pub fn sample_grad(&mut self, w: usize, params: &[f32], grad_out: &mut [f32]) -> f32 {
        self.assert_idle(w);
        let wc = &mut self.workers[w];
        let batch = wc.sampler.next_batch_with(&mut self.indices, self.dataset);
        self.model
            .loss_grad_with(params, &batch, grad_out, &mut wc.scratch)
    }

    /// [`Self::sample_grad`] on the worker's own replica, recording the
    /// minibatch loss at `now`.
    pub fn local_grad(&mut self, w: usize, now: f64, grad_out: &mut [f32]) -> f32 {
        self.assert_idle(w);
        let wc = &mut self.workers[w];
        let batch = wc.sampler.next_batch_with(&mut self.indices, self.dataset);
        let WorkerCommon {
            params, scratch, ..
        } = wc;
        let loss = self
            .model
            .loss_grad_with(params.as_slice(), &batch, grad_out, scratch);
        self.recorder.train_loss(w, self.iters[w], now, loss);
        loss
    }

    fn assert_idle(&self, w: usize) {
        assert!(
            matches!(self.slots[w], Slot::Idle),
            "worker {w}'s sampler and scratch are with its begun gradient job"
        );
    }

    /// Begins worker `w`'s gradient job at its current replica, into
    /// `grad` (module docs, "Compute futures"). Begin a job only if its
    /// completion will be accepted.
    ///
    /// # Panics
    ///
    /// If `w`'s previous job was not joined.
    pub(crate) fn begin_compute(&mut self, w: usize, grad: Gradient) {
        self.assert_idle(w);
        let wc = &mut self.workers[w];
        self.slots[w] = Slot::Queued(GradJob {
            w,
            params: wc.params.snapshot(),
            // A copy: the join writes the advanced stream back.
            sampler: wc.sampler.clone(),
            scratch: std::mem::take(&mut wc.scratch),
            grad,
            loss: 0.0,
        });
        let Some(helper) = &mut self.helper else {
            return;
        };
        helper.outbox.push(w);
        if helper.outbox.len() >= helper.per_handoff {
            let slots = &mut self.slots;
            let jobs = helper.outbox.drain(..).map(|o| {
                match std::mem::replace(&mut slots[o], Slot::InFlight) {
                    Slot::Queued(job) => job,
                    _ => unreachable!("the outbox lists exactly the queued jobs"),
                }
            });
            // Fails only once a panic killed the helper; the next join of
            // a job in flight finds the payload and re-raises it.
            let _ = helper.jobs.send(jobs.collect());
            self.handoffs += 1;
        }
    }

    /// Completes the job begun for `w` — running it here if it is still
    /// in the outbox, waiting for the helper if it is in flight (and
    /// filing the other jobs that come back meanwhile) — puts the
    /// worker's sampler and scratch back, and returns the minibatch loss
    /// (for the caller to record) and the gradient buffer.
    ///
    /// # Panics
    ///
    /// If no job was begun for `w`; re-raises, with its original payload,
    /// the panic (a model's assert) that took `w`'s job down.
    pub(crate) fn join_compute(&mut self, w: usize) -> (f32, Gradient) {
        let job = loop {
            match std::mem::replace(&mut self.slots[w], Slot::Idle) {
                Slot::Idle => panic!("worker {w} joined a compute phase it never began"),
                Slot::Queued(mut job) => {
                    if let Some(helper) = &mut self.helper {
                        // Joins come roughly in begin order: near the front.
                        let at = helper.outbox.iter().position(|&o| o == w);
                        helper
                            .outbox
                            .remove(at.expect("a queued job is in the outbox"));
                    }
                    self.inline_joins += 1;
                    job.run(self.model, self.dataset, &mut self.indices);
                    break job;
                }
                Slot::Done(job) => break job,
                Slot::InFlight => {
                    self.slots[w] = Slot::InFlight;
                    let helper = self.helper.as_mut().expect("a job in flight has a helper");
                    // Hand-offs come back in order and a panic's is the
                    // last: `w`'s job went down with it.
                    if let Some(payload) = helper.panic.take() {
                        resume_unwind(payload);
                    }
                    let (done, panic) = recv_spinning(&helper.results, || false)
                        .expect("the helper outlives the pump unless a job panics");
                    helper.panic = panic;
                    for job in done {
                        let other = job.w;
                        self.slots[other] = Slot::Done(job);
                    }
                }
            }
        };
        let wc = &mut self.workers[w];
        (wc.sampler, wc.scratch) = (job.sampler, job.scratch);
        (job.loss, job.grad)
    }

    /// Evaluates the element-wise average of all worker replicas at
    /// `(now, iter)`: one `mean_into` sweep into a recycled buffer.
    pub fn evaluate_worker_average(&mut self, now: f64, iter: u64) {
        let mut avg = self.pool.acquire_stale(self.workers[0].params.len());
        let replicas: Vec<&[f32]> = self.workers.iter().map(|wc| wc.params.as_slice()).collect();
        hop_tensor::ops::mean_into(&replicas, &mut avg);
        self.recorder
            .evaluate_params(self.model, self.dataset, &avg, now, iter);
        self.pool.release(avg);
    }

    /// Schedules control message `ev` (a token grant, an ACK) from `a` to
    /// `b`, sent at `now`, on its latency class's FIFO lane: one class
    /// has one latency, so the lane stays in time order.
    pub fn push_control(&mut self, a: usize, b: usize, now: f64, ev: E) {
        self.push_control_on(self.net.control_lane(a, b), now, ev);
    }

    /// [`Self::push_control`] for a protocol that knows the message's
    /// latency class ([`Network::control_lane`] of its endpoints), so
    /// no endpoint is looked up.
    pub fn push_control_on(&mut self, lane: usize, now: f64, ev: E) {
        let at = self.net.control_after(now, lane);
        self.events.push_fifo(lane, at, ev);
    }

    /// [`Network::transfer`] behind the fault plane. The sender's NIC is
    /// charged unconditionally — the bytes left the machine either way —
    /// then the [`NetModel`] verdict decides the fate: the physical
    /// arrival time, or `None` when the message is lost (loss draw or
    /// dead endpoint, logged as [`FaultEvent::Loss`]). With an empty plan
    /// this is exactly `net.transfer`.
    pub fn transfer_gated(
        &mut self,
        from: usize,
        to: usize,
        bytes: u64,
        now: f64,
        iter: u64,
    ) -> Option<f64> {
        let arrival = self.net.transfer(now, from, to, bytes);
        match self.faults.verdict(from, to, iter) {
            Verdict::Deliver => Some(arrival),
            Verdict::Drop => None,
        }
    }

    /// The iteration-entry hook for round-driven protocols (PS, AD-PSGD,
    /// ring, Prague, QGM) whose synchronization is engine-internal:
    /// records the conformance `Advance` (via
    /// [`choreography::advance_only`]) and the rest of the entry in one
    /// place, so the two views of "worker `w` entered iteration `iter`"
    /// can never diverge. Hop's workers emit their own `Advance` (their
    /// worker machine opens the iteration's step) and then record the
    /// rest of the entry through [`Self::entered`].
    pub fn record_enter(&mut self, w: usize, iter: u64, now: f64) {
        choreography::advance_only(&mut self.conformance, w, iter);
        self.entered(w, iter, now);
    }

    /// The rest of an iteration entry whose `Advance` is on record:
    /// records the timing trace entry and fires a crash scheduled for it —
    /// after the `Advance`, so the worker's sends for this iteration are
    /// already dead-endpoint losses.
    pub fn entered(&mut self, w: usize, iter: u64, now: f64) {
        self.trace.record(w, iter, now);
        if self.faults.try_crash(w, iter) {
            choreography::crash(&mut self.conformance, w, iter);
        }
    }

    /// Marks worker `w` finished; the pump stops once every worker is.
    /// Idempotent: finishing a finished worker is a no-op.
    pub fn finish_worker(&mut self, w: usize) {
        let (word, bit) = (w / 64, 1u64 << (w % 64));
        if self.finished[word] & bit == 0 {
            self.finished[word] |= bit;
            self.finished_count += 1;
        }
    }

    /// Whether worker `w` reached `max_iters`.
    pub fn is_finished(&self, w: usize) -> bool {
        self.finished[w / 64] & (1u64 << (w % 64)) != 0
    }

    /// [`Self::finish_worker`] plus the per-worker report convention:
    /// the worker's counter rests at `iter` (normally `max_iters`, never
    /// `max_iters - 1`) with a final trace entry at `now`. Protocols that
    /// record an entry for every iteration a worker *enters* (including
    /// the terminal one) already satisfy the convention and call
    /// [`Self::finish_worker`] directly; round-driven protocols whose
    /// terminal event covers many workers use this instead.
    pub fn finish_worker_at(&mut self, w: usize, iter: u64, now: f64) {
        self.iters[w] = iter;
        self.record_enter(w, iter, now);
        self.finish_worker(w);
    }

    /// Whether every worker reached `max_iters`. O(1): a counter
    /// maintained by [`SimEngine::finish_worker`], not a scan — this runs
    /// after every event.
    pub fn all_finished(&self) -> bool {
        self.finished_count == self.workers.len()
    }

    /// Aborts the pump at the end of the current event; the report comes
    /// back with [`TrainingReport::deadlocked`] set (AD-PSGD's wait-cycle
    /// detection).
    pub fn abort(&mut self) {
        self.aborted = true;
    }

    /// Runs the protocol to completion and assembles the report.
    ///
    /// Pumps events in deterministic order until every worker finishes,
    /// the protocol aborts, the event heap drains (a stall: some worker
    /// can never advance), or a generous safety budget is exhausted
    /// (runaway event storms). Every popped event is processed before the
    /// budget is checked, so the budget never silently drops work; budget
    /// exhaustion is reported distinctly via
    /// [`TrainingReport::budget_exhausted`] (with
    /// [`TrainingReport::deadlocked`] also set, since the run did not
    /// complete).
    /// A compute helper (module docs, "Compute futures") is joined before
    /// this returns, on every one of those exits.
    pub fn drive<P: WorkerProtocol<Event = E>>(mut self, proto: &mut P) -> TrainingReport {
        let (model, dataset) = (self.model, self.dataset);
        let per_handoff = OFFLOAD_MIN_PARAMS
            .get()
            .div_ceil(self.init_params.len().max(1))
            .max(1);
        // Fewer workers than that could never fill a hand-off.
        let offload = self.workers.len() >= per_handoff;
        std::thread::scope(move |scope| {
            if offload {
                let ((jobs, job_rx), (done, results)) = (channel::<Vec<GradJob>>(), channel());
                self.helper = Some(Helper {
                    jobs,
                    results,
                    per_handoff,
                    outbox: Vec::with_capacity(per_handoff),
                    panic: None,
                });
                let board = SHARE_SWEEPS.get().then(|| Arc::new(sweep_board()));
                self.board.clone_from(&board);
                // Between hand-offs the helper runs chunks of the pump's
                // sweeps (and, on a board awaiting help, keeps polling).
                let idle = move || board.as_ref().is_some_and(|b| b.help() || b.wants_help());
                // Until the engine drops its sender. A panicking job ends
                // the hand-off there — it and the jobs behind it are
                // dropped, its payload goes back — and ends the helper.
                scope.spawn(move || {
                    let mut indices = Vec::new();
                    while let Ok(mut batch) = recv_spinning(&job_rx, &idle) {
                        let mut ran = 0;
                        let panic = catch_unwind(AssertUnwindSafe(|| {
                            for job in &mut batch {
                                job.run(model, dataset, &mut indices);
                                ran += 1;
                            }
                        }))
                        .err();
                        batch.truncate(ran);
                        let failed = panic.is_some();
                        if done.send((batch, panic)).is_err() || failed {
                            return;
                        }
                    }
                });
            }
            self.pump(proto)
        })
    }

    fn pump<P: WorkerProtocol<Event = E>>(mut self, proto: &mut P) -> TrainingReport {
        // Uninstalled however the pump ends.
        let _sweeps = self.board.clone().map(sweep::install);
        proto.start(&mut self);
        let n = self.workers.len() as u64;
        let mut budget = self
            .event_budget
            .unwrap_or((self.max_iters + 2) * n * 64 + 10_000);
        // Events are only popped while budget remains, so an exhausted
        // budget never drops a popped event half-processed — and a budget
        // of 0 stops before the protocol mutates anything.
        let mut budget_exhausted = budget == 0;
        let mut events_processed = 0u64;
        while !budget_exhausted {
            let Some((now, ev)) = self.events.pop() else {
                break;
            };
            if let Some(next) = self.events.peek() {
                proto.prefetch(&self, next);
            }
            events_processed += 1;
            proto.on_event(&mut self, now, ev);
            if !self.faults.is_empty() {
                self.process_rejoins(proto, now);
            }
            if self.aborted || self.all_finished() {
                break;
            }
            budget -= 1;
            budget_exhausted = budget == 0;
        }
        let deadlocked = self.aborted || !self.all_finished();
        proto.on_finish(&mut self);
        #[cfg(test)]
        POOL_STATS.set(self.pool.stats());
        let fault_log = self.faults.take_log();
        let (mut messages_dropped, mut crashes, mut rejoins) = (0u64, 0u64, 0u64);
        for e in fault_log.events() {
            match e {
                FaultEvent::Loss { .. } => messages_dropped += 1,
                FaultEvent::Crash { .. } => crashes += 1,
                FaultEvent::Rejoin { .. } => rejoins += 1,
                FaultEvent::Byzantine { .. } => {}
            }
        }
        TrainingReport {
            conformance: self.conformance.take(),
            final_params: proto.final_params(&self),
            stale_discarded: proto.stale_discarded(&self),
            bytes_sent: proto.bytes_sent(&self),
            bytes_saved: proto.bytes_saved(&self),
            wall_time: self.events.now(),
            trace: self.trace,
            train_loss_time: self.recorder.train_time,
            train_loss_steps: self.recorder.train_steps,
            eval_time: self.recorder.eval_time,
            eval_steps: self.recorder.eval_steps,
            deadlocked,
            budget_exhausted,
            events_processed,
            compute_handoffs: self.handoffs,
            inline_joins: self.inline_joins,
            sweep_chunks_helped: self.board.as_ref().map_or(0, |b| b.chunks_helped()),
            messages_dropped,
            crashes,
            rejoins,
            fault_log,
        }
    }

    /// Prefetches the engine's entries for worker `w` that an iteration
    /// step reads and writes: its [`WorkerCommon`], iteration counter,
    /// gradient-job slot and the headers of its two loss series.
    pub fn prefetch_worker(&self, w: usize) {
        prefetch(&self.workers[w]);
        prefetch(&self.iters[w]);
        prefetch(&self.slots[w]);
        prefetch(&self.recorder.train_time[w]);
        prefetch(&self.recorder.train_steps[w]);
    }

    /// Revives every crashed worker whose rejoin condition is met: some
    /// live worker has progressed `down_iters` past the crash point. The
    /// rejoiner rehydrates its replica from the slowest live worker (the
    /// most conservative snapshot), gets a fresh optimizer, and re-enters
    /// at the protocol's [`WorkerProtocol::rejoin_floor`] (but never
    /// below the donor's iteration or its own + 1): far enough ahead
    /// that the updates it will need were not already dropped at its
    /// dead endpoint, never re-running an iteration it already entered.
    fn process_rejoins<P: WorkerProtocol<Event = E>>(&mut self, proto: &mut P, now: f64) {
        loop {
            let max_live = (0..self.workers.len())
                .filter(|&w| !self.faults.is_dead(w))
                .map(|w| self.iters[w])
                .max();
            let Some(max_live) = max_live else { return };
            let Some(w) = self.faults.due_rejoin(max_live) else {
                return;
            };
            let donor = (0..self.workers.len())
                .filter(|&o| o != w && !self.faults.is_dead(o))
                .min_by_key(|&o| self.iters[o])
                .expect("a live donor exists whenever max_live does");
            let target = proto
                .rejoin_floor(self, w)
                .max(self.iters[donor])
                .max(self.iters[w] + 1)
                .min(self.max_iters);
            if !proto.rejoin_admissible(self, w, target) {
                // Not `continue`: `due_rejoin` would yield the same
                // worker again. Leave it (and any later crashers) dead
                // and retry on the next pump step.
                return;
            }
            self.workers[w].params = self.workers[donor].params.snapshot();
            self.workers[w].opt = self.new_opt();
            choreography::rejoin(&mut self.conformance, w, target);
            self.faults.revive(w, target, donor);
            proto.on_rejoin(self, w, target, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use hop_sim::LinkModel;

    /// A trivial protocol: every worker computes (as a compute future),
    /// applies its own gradient, and loops — no communication at all.
    struct LocalSgd;

    struct Step {
        w: usize,
    }

    impl LocalSgd {
        fn compute(eng: &mut SimEngine<'_, Step>, w: usize, grad: Gradient, now: f64) {
            eng.begin_compute(w, grad);
            let at = now + eng.compute_duration(w, eng.iters[w]);
            eng.events.push(at, Step { w });
        }
    }

    impl WorkerProtocol for LocalSgd {
        type Event = Step;

        fn start(&mut self, eng: &mut SimEngine<'_, Step>) {
            for w in 0..eng.workers.len() {
                eng.record_enter(w, 0, 0.0);
                Self::compute(eng, w, Gradient::zeros(eng.init_params().len()), 0.0);
            }
        }

        fn on_event(&mut self, eng: &mut SimEngine<'_, Step>, now: f64, ev: Step) {
            let w = ev.w;
            let (loss, grad) = eng.join_compute(w);
            eng.recorder.train_loss(w, eng.iters[w], now, loss);
            let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
            opt.step_block(params, grad.as_slice());
            eng.iters[w] += 1;
            let k = eng.iters[w];
            eng.record_enter(w, k, now);
            if k >= eng.max_iters {
                eng.finish_worker(w);
            } else {
                Self::compute(eng, w, grad, now);
            }
        }
    }

    fn run_local(seed: u64) -> TrainingReport {
        let dataset = SyntheticWebspam::generate(128, 3);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cluster = ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps());
        let slowdown = SlowdownModel::paper_random(4);
        let eng = SimEngine::new(
            cluster,
            4,
            &slowdown,
            &model,
            &dataset,
            &Hyper::svm(),
            20,
            seed,
            EvalConfig {
                every: 0,
                examples: 32,
            },
        );
        eng.drive(&mut LocalSgd)
    }

    #[test]
    fn minimal_protocol_completes() {
        let report = run_local(5);
        assert!(!report.deadlocked);
        assert_eq!(report.final_params.len(), 4);
        for w in 0..4 {
            assert_eq!(report.trace.durations(w).len(), 20);
        }
        assert!(report.wall_time > 0.0);
    }

    #[test]
    fn engine_is_deterministic() {
        let a = run_local(9);
        let b = run_local(9);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.trace.records(), b.trace.records());
    }

    #[test]
    fn budget_exhaustion_is_distinct_and_processes_every_popped_event() {
        // With a compute helper: both budgets below leave begun jobs
        // unjoined, and `drive` must still join the helper and return.
        OFFLOAD_MIN_PARAMS.set(0);
        let dataset = SyntheticWebspam::generate(128, 3);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cluster = ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps());
        let slowdown = SlowdownModel::None;
        let mut eng = SimEngine::new(
            cluster,
            4,
            &slowdown,
            &model,
            &dataset,
            &Hyper::svm(),
            20,
            5,
            EvalConfig {
                every: 0,
                examples: 32,
            },
        );
        // LocalSgd needs exactly one event per worker-iteration; cap the
        // run after 6 of the 80 it wants.
        eng.event_budget = Some(6);
        let report = eng.drive(&mut LocalSgd);
        assert!(report.budget_exhausted, "tiny budget must trip the flag");
        assert!(report.deadlocked, "an exhausted run did not complete");
        // Process-then-check: all 6 popped events were handled, none were
        // silently dropped (each LocalSgd event appends one trace record
        // on top of the 4 initial ones).
        assert_eq!(report.trace.len(), 4 + 6);
        // A completed run of the same experiment reports neither flag.
        let full = run_local(5);
        assert!(!full.budget_exhausted);
        assert!(!full.deadlocked);
        // A zero budget stops before any event mutates protocol state.
        let mut eng = SimEngine::new(
            ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            4,
            &slowdown,
            &model,
            &dataset,
            &Hyper::svm(),
            20,
            5,
            EvalConfig {
                every: 0,
                examples: 32,
            },
        );
        eng.event_budget = Some(0);
        let report = eng.drive(&mut LocalSgd);
        assert!(report.budget_exhausted);
        assert_eq!(report.trace.len(), 4, "only the start() records remain");
    }

    #[test]
    #[should_panic(expected = "worker 1's sampler and scratch are with its begun")]
    fn a_gradient_beside_a_begun_job_is_refused() {
        /// Begins worker 1's job, then asks for a second gradient from
        /// the sampler the job already holds a copy of: the batch would
        /// be drawn twice, and the join would overwrite this draw.
        struct Greedy;
        impl WorkerProtocol for Greedy {
            type Event = ();
            fn start(&mut self, eng: &mut SimEngine<'_, ()>) {
                let mut grad = vec![0.0; eng.init_params().len()];
                eng.begin_compute(1, Gradient::zeros(grad.len()));
                eng.local_grad(0, 0.0, &mut grad);
                eng.local_grad(1, 0.0, &mut grad);
            }
            fn on_event(&mut self, _eng: &mut SimEngine<'_, ()>, _now: f64, _ev: ()) {}
        }
        let dataset = SyntheticWebspam::generate(64, 0);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cluster = ClusterSpec::uniform(2, 1, 0.01, LinkModel::ethernet_1gbps());
        let eng = SimEngine::new(
            cluster,
            2,
            &SlowdownModel::None,
            &model,
            &dataset,
            &Hyper::svm(),
            5,
            0,
            EvalConfig {
                every: 0,
                examples: 16,
            },
        );
        eng.drive(&mut Greedy);
    }

    #[test]
    fn empty_event_heap_reports_deadlock() {
        struct Stalled;
        impl WorkerProtocol for Stalled {
            type Event = ();
            fn start(&mut self, _eng: &mut SimEngine<'_, ()>) {}
            fn on_event(&mut self, _eng: &mut SimEngine<'_, ()>, _now: f64, _ev: ()) {}
        }
        let dataset = SyntheticWebspam::generate(64, 0);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let cluster = ClusterSpec::uniform(2, 1, 0.01, LinkModel::ethernet_1gbps());
        let eng = SimEngine::new(
            cluster,
            2,
            &SlowdownModel::None,
            &model,
            &dataset,
            &Hyper::svm(),
            5,
            0,
            EvalConfig {
                every: 0,
                examples: 16,
            },
        );
        let report = eng.drive(&mut Stalled);
        assert!(report.deadlocked);
        assert!(
            !report.budget_exhausted,
            "a drained heap is a stall, not an event storm"
        );
    }
}
