//! Session-typed protocol choreography: the legal event grammar of
//! [`crate::conformance`] as typestate handles, so an illegal protocol
//! step is a *compile* error rather than an Oracle violation.
//!
//! # Why
//!
//! The conformance [`Oracle`](crate::conformance::Oracle) replays a
//! finished trace and reports the first violation — after the fact. This
//! module moves the grammar the Oracle enforces into the type system:
//! every runtime (the simulator's `WorkerProtocol` plug-ins and the
//! threaded runtime) emits exchange events exclusively through the
//! handles below, whose move semantics make the per-iteration state
//! machine
//!
//! ```text
//!              begin_step (Advance)
//!   Reduced ───────────────────────────▶ Idle ──┐ send (parallel order)
//!      ▲                                  │  ◀──┘
//!      │                                  │ begin_compute (ComputeBegin)
//!      │                                  ▼
//!      │                              Computing
//!      │                                  │ end_compute (ComputeEnd)
//!      │                                  ▼
//!      │        reduce (Reduce)       Exchanging ──┐ send (serial order)
//!      └───────────────────────────────── │     ◀──┘ consume (Consume)
//!      │                                            ▲ │
//!      │ take_token (TokenTake, n=1)                └─┘
//!      │ complete / retire
//!      │
//!      │ jump (Jump)          take_tokens (TokenTake, n=jump)
//!      └───────────▶ Renewing ──┐   consume (Consume at target-1)
//!          ▲                 │◀─┘
//!          └─────────────────┘ renew_reduce (Reduce renew=1, own included)
//! ```
//!
//! the only path through an iteration. "Consume before the compute
//! ended", "reduce twice", "jump while still exchanging" and friends do
//! not type-check (see the `compile_fail` examples below). The handles
//! are the grammar; the Oracle checks what types cannot see (quotas,
//! windows, token budgets) on every recorded trace.
//!
//! # Delivery plane
//!
//! Arrival judgement ([`Arrival::judge`] → `StaleAdmit`/`StaleReject`)
//! and token visibility ([`token_grant`] → `TokenPass`) happen on the
//! *network's* schedule, in whatever phase the receiving worker occupies,
//! so they are free functions of the module rather than handle methods —
//! but they are still the only way to emit those events. (No runtime
//! emits `Drop`: the rotating queues purge stale updates silently.)
//!
//! # Forbidden transitions (compile-fail pins)
//!
//! Consuming before the compute has ended — [`Step::consume`] exists only
//! on `Step<Exchanging>`:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let mut step = begin_step(&mut sink, 0, 0);
//! step.consume(&mut sink, 1, 0); // ERROR: not Exchanging yet
//! ```
//!
//! Reducing before the compute has ended:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let step = begin_step(&mut sink, 0, 0).begin_compute(&mut sink);
//! let _ = step.reduce(&mut sink); // ERROR: no reduce on Step<Computing>
//! ```
//!
//! Reducing the same iteration twice — the handle is consumed by value:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let step = begin_step(&mut sink, 0, 0)
//!     .begin_compute(&mut sink)
//!     .end_compute(&mut sink);
//! let done = step.reduce(&mut sink);
//! let again = step.reduce(&mut sink); // ERROR: `step` was moved
//! ```
//!
//! Jumping mid-exchange (before the Reduce) — [`Step::jump`] exists only
//! on `Step<Reduced>`:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let step = begin_step(&mut sink, 0, 0)
//!     .begin_compute(&mut sink)
//!     .end_compute(&mut sink);
//! let _ = step.jump(&mut sink, 5, &[2, 2]); // ERROR: still Exchanging
//! ```
//!
//! Sending after the Reduce — [`SendStage`] covers `Idle`/`Exchanging`
//! only:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let step = begin_step(&mut sink, 0, 0)
//!     .begin_compute(&mut sink)
//!     .end_compute(&mut sink)
//!     .reduce(&mut sink);
//! step.send(&mut sink, 1); // ERROR: Reduced is not a SendStage
//! ```
//!
//! Taking the jump's token allotment without a recorded Jump —
//! [`Renew::take_tokens`] lives on [`Renew`], which only
//! [`Step::jump`] can construct:
//!
//! ```compile_fail
//! use hop_core::choreography::begin_step;
//! use hop_core::conformance::ProtocolTrace;
//! let mut sink = ProtocolTrace::new();
//! let step = begin_step(&mut sink, 0, 0)
//!     .begin_compute(&mut sink)
//!     .end_compute(&mut sink)
//!     .reduce(&mut sink);
//! step.take_tokens(&mut sink, 1); // ERROR: only `Renew` takes in bulk
//! ```
//!
//! Abandoning a jump's renew obligation ("advance while holding
//! un-renewed tokens") is pinned by `#[must_use]` on [`Renew`]: dropping
//! it without [`Renew::renew_reduce`] warns, and the clippy gate promotes
//! the warning to an error in CI.

#![warn(clippy::must_use_candidate)]

use crate::conformance::{ProtocolEvent, ProtocolTrace};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Event sinks
// ---------------------------------------------------------------------------

/// Where choreography handles emit their events.
///
/// `f` is only called when the sink actually records, so untraced runs
/// never build event payloads.
pub trait EventSink {
    /// Emits the event produced by `f` if this sink records.
    fn emit(&mut self, f: impl FnOnce() -> ProtocolEvent);
}

/// Collecting straight into a trace (the simulator's recorder, tests).
impl EventSink for ProtocolTrace {
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> ProtocolEvent) {
        self.push(f());
    }
}

/// `None` is a disabled sink: untraced runs drive the same handles with
/// no recording.
impl<S: EventSink> EventSink for Option<S> {
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> ProtocolEvent) {
        if let Some(sink) = self {
            sink.emit(f);
        }
    }
}

/// Per-thread event log ordered by a shared atomic sequence — the
/// threaded runtime's sink. Each worker thread owns one; the merged,
/// sequence-sorted logs form the run's [`ProtocolTrace`].
///
/// The linearization discipline (grant events numbered *before* the
/// queue operation, observe events *after*; see [`crate::conformance`])
/// is the caller's: it is preserved by placing the handle call on the
/// correct side of the queue operation.
#[derive(Debug)]
pub struct SeqSink<'a> {
    seq: &'a AtomicU64,
    events: Vec<(u64, ProtocolEvent)>,
}

impl<'a> SeqSink<'a> {
    /// A sink drawing sequence numbers from `seq`.
    pub fn new(seq: &'a AtomicU64) -> Self {
        Self {
            seq,
            events: Vec::new(),
        }
    }

    /// The recorded `(sequence, event)` pairs.
    #[must_use]
    pub fn into_events(self) -> Vec<(u64, ProtocolEvent)> {
        self.events
    }
}

impl EventSink for SeqSink<'_> {
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> ProtocolEvent) {
        let s = self.seq.fetch_add(1, Ordering::SeqCst);
        self.events.push((s, f()));
    }
}

// ---------------------------------------------------------------------------
// Typestate stages
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// A stage of the per-iteration state machine (sealed).
pub trait Stage: sealed::Sealed {}

/// Stages in which a worker may publish its update ([`Step::send`]):
/// `Idle` for the parallel order of Fig. 2(b) (send before compute) and
/// `Exchanging` for the serial order of Fig. 2(a) (send after apply).
pub trait SendStage: Stage {}

/// Entered the iteration; compute not started.
#[derive(Debug)]
pub struct Idle;
/// Gradient computation in flight.
#[derive(Debug)]
pub struct Computing;
/// Compute done; sending/consuming toward the Reduce.
#[derive(Debug)]
pub struct Exchanging;
/// Reduce done; acquiring tokens (or jumping) to advance.
#[derive(Debug)]
pub struct Reduced;

impl sealed::Sealed for Idle {}
impl Stage for Idle {}
impl SendStage for Idle {}
impl sealed::Sealed for Computing {}
impl Stage for Computing {}
impl sealed::Sealed for Exchanging {}
impl Stage for Exchanging {}
impl SendStage for Exchanging {}
impl sealed::Sealed for Reduced {}
impl Stage for Reduced {}

// ---------------------------------------------------------------------------
// The per-iteration handle
// ---------------------------------------------------------------------------

/// One worker's pass through one iteration, in stage `S`.
///
/// Constructed by [`begin_step`] (which emits the `Advance`); every
/// transition method consumes the handle and returns the next stage, so
/// the type system admits exactly the event orders the Oracle does. The
/// handle counts its `consume` calls and stamps the count into the
/// `Reduce` event — a protocol cannot lie about how many updates it
/// folded in.
#[must_use = "an abandoned step leaves the iteration's exchange incomplete"]
#[derive(Debug)]
pub struct Step<S: Stage> {
    worker: usize,
    iter: u64,
    consumed: usize,
    _stage: PhantomData<S>,
}

/// Enters iteration `iter` (emits `Advance`) and returns the step handle
/// that the rest of the iteration's events must flow through.
pub fn begin_step(sink: &mut impl EventSink, worker: usize, iter: u64) -> Step<Idle> {
    sink.emit(|| ProtocolEvent::Advance { worker, iter });
    Step {
        worker,
        iter,
        consumed: 0,
        _stage: PhantomData,
    }
}

/// Enters iteration `iter` (emits `Advance`) without opening a step —
/// for round-driven protocols (PS, AD-PSGD, ring, Prague, QGM) whose
/// synchronization lives outside the per-worker exchange vocabulary, and
/// for the terminal entry at `max_iters`.
pub fn advance_only(sink: &mut impl EventSink, worker: usize, iter: u64) {
    sink.emit(|| ProtocolEvent::Advance { worker, iter });
}

impl<S: Stage> Step<S> {
    /// The worker this step belongs to.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The iteration this step is passing through.
    #[must_use]
    pub fn iter(&self) -> u64 {
        self.iter
    }
}

impl<S: SendStage> Step<S> {
    /// Publishes this iteration's update to `to` (emits `Send` tagged
    /// with the step's iteration). Available before the compute (parallel
    /// order) and after it (serial order) — never after the Reduce.
    pub fn send(&self, sink: &mut impl EventSink, to: usize) {
        let (from, iter) = (self.worker, self.iter);
        sink.emit(|| ProtocolEvent::Send { from, to, iter });
    }
}

impl Step<Idle> {
    /// Starts the gradient computation (emits `ComputeBegin`).
    pub fn begin_compute(self, sink: &mut impl EventSink) -> Step<Computing> {
        let (worker, iter) = (self.worker, self.iter);
        sink.emit(|| ProtocolEvent::ComputeBegin { worker, iter });
        Step {
            worker,
            iter,
            consumed: self.consumed,
            _stage: PhantomData,
        }
    }

    /// Ends a terminal entry (the `Advance` at `max_iters` opens no
    /// exchange): consumes the handle without further events.
    pub fn retire(self) {}
}

impl Step<Computing> {
    /// Finishes the gradient computation (emits `ComputeEnd`).
    pub fn end_compute(self, sink: &mut impl EventSink) -> Step<Exchanging> {
        let (worker, iter) = (self.worker, self.iter);
        sink.emit(|| ProtocolEvent::ComputeEnd { worker, iter });
        Step {
            worker,
            iter,
            consumed: self.consumed,
            _stage: PhantomData,
        }
    }
}

impl Step<Exchanging> {
    /// Folds the update tagged `(from, iter)` into the upcoming Reduce
    /// (emits `Consume` at this step's iteration).
    pub fn consume(&mut self, sink: &mut impl EventSink, from: usize, iter: u64) {
        let (worker, at_iter) = (self.worker, self.iter);
        sink.emit(|| ProtocolEvent::Consume {
            worker,
            from,
            iter,
            at_iter,
        });
        self.consumed += 1;
    }

    /// Reduces everything consumed so far (emits `Reduce` with
    /// `n_updates` = the number of [`Self::consume`] calls).
    pub fn reduce(self, sink: &mut impl EventSink) -> Step<Reduced> {
        let (worker, iter, consumed) = (self.worker, self.iter, self.consumed);
        sink.emit(|| ProtocolEvent::Reduce {
            worker,
            iter,
            n_updates: consumed,
            renew: false,
        });
        Step {
            worker,
            iter,
            consumed,
            _stage: PhantomData,
        }
    }
}

impl Step<Reduced> {
    /// Removes one token from `TokenQ(owner -> self)` for a normal
    /// advance (emits `TokenTake` with count 1).
    pub fn take_token(&self, sink: &mut impl EventSink, owner: usize) {
        let consumer = self.worker;
        sink.emit(|| ProtocolEvent::TokenTake {
            owner,
            consumer,
            count: 1,
        });
    }

    /// §5: decides to skip to `target` having observed `token_counts`
    /// (emits `Jump`). The returned [`Renew`] carries the obligations the
    /// decision incurs — take the jump-sized token allotments and renew
    /// parameters at `target - 1` — and is `#[must_use]` so dropping them
    /// is flagged at compile time.
    pub fn jump(self, sink: &mut impl EventSink, target: u64, token_counts: &[u64]) -> Renew {
        let (worker, from_iter) = (self.worker, self.iter);
        sink.emit(|| ProtocolEvent::Jump {
            worker,
            from_iter,
            target,
            token_counts: token_counts.to_vec(),
        });
        Renew {
            worker,
            from_iter,
            target,
            consumed: 0,
        }
    }

    /// Ends a normal step: the next event for this worker is the next
    /// iteration's `Advance` (via [`begin_step`]).
    pub fn complete(self) {}
}

// ---------------------------------------------------------------------------
// The jump-renew handle
// ---------------------------------------------------------------------------

/// The obligations of a §5 jump decision: remove the jump-sized token
/// allotment from every out-going neighbor's queue and renew parameters
/// with a `Recv(target - 1)` + Reduce before entering `target`.
#[must_use = "a jump's renew obligation is outstanding: take the jump tokens and renew_reduce before advancing"]
#[derive(Debug)]
pub struct Renew {
    worker: usize,
    from_iter: u64,
    target: u64,
    consumed: usize,
}

impl Renew {
    /// The iteration the jump will enter.
    #[must_use]
    pub fn target(&self) -> u64 {
        self.target
    }

    /// `target - from_iter`: tokens owed per out-going neighbor.
    #[must_use]
    pub fn distance(&self) -> u64 {
        self.target - self.from_iter
    }

    /// Removes the jump-sized allotment from `TokenQ(owner -> self)`
    /// (emits `TokenTake` with the jump distance as count).
    pub fn take_tokens(&self, sink: &mut impl EventSink, owner: usize) {
        let (consumer, count) = (self.worker, self.distance());
        sink.emit(|| ProtocolEvent::TokenTake {
            owner,
            consumer,
            count,
        });
    }

    /// Folds the update tagged `(from, iter)` into the renewal Reduce
    /// (emits `Consume` at `target - 1`).
    pub fn consume(&mut self, sink: &mut impl EventSink, from: usize, iter: u64) {
        let (worker, at_iter) = (self.worker, self.target - 1);
        sink.emit(|| ProtocolEvent::Consume {
            worker,
            from,
            iter,
            at_iter,
        });
        self.consumed += 1;
    }

    /// The renewal Reduce at `target - 1` (emits `Reduce` with
    /// `renew = true` and `n_updates` = consumes + 1: the worker's own
    /// stale parameters always participate). Discharges the jump's
    /// obligations; the worker then enters `target` via [`begin_step`].
    pub fn renew_reduce(self, sink: &mut impl EventSink) {
        let (worker, iter, n_updates) = (self.worker, self.target - 1, self.consumed + 1);
        sink.emit(|| ProtocolEvent::Reduce {
            worker,
            iter,
            n_updates,
            renew: true,
        });
    }
}

/// Exchange stages that fold updates into a Reduce: `Step<Exchanging>`
/// (the normal Recv) and [`Renew`] (the pre-jump Recv at `target - 1`).
/// Lets collection helpers serve both paths generically.
pub trait Consuming {
    /// Emits the `Consume` for the update tagged `(from, iter)`.
    fn consume(&mut self, sink: &mut impl EventSink, from: usize, iter: u64);
}

impl Consuming for Step<Exchanging> {
    fn consume(&mut self, sink: &mut impl EventSink, from: usize, iter: u64) {
        Step::consume(self, sink, from, iter);
    }
}

impl Consuming for Renew {
    fn consume(&mut self, sink: &mut impl EventSink, from: usize, iter: u64) {
        Renew::consume(self, sink, from, iter);
    }
}

// ---------------------------------------------------------------------------
// Delivery plane
// ---------------------------------------------------------------------------

/// One network arrival awaiting its staleness judgement. Judged exactly
/// once — [`Self::judge`] consumes the value — in whatever phase the
/// receiver occupies.
#[must_use = "an arrival must be judged (admit or reject) exactly once"]
#[derive(Debug)]
pub struct Arrival {
    /// Receiving worker.
    pub worker: usize,
    /// Sender of the update.
    pub from: usize,
    /// Tag iteration of the update.
    pub iter: u64,
}

impl Arrival {
    /// Emits `StaleAdmit` (the arrival became the newest from its
    /// sender) or `StaleReject` (superseded on arrival), with the
    /// receiver at `at_iter`.
    pub fn judge(self, sink: &mut impl EventSink, admitted: bool, at_iter: u64) {
        let Self { worker, from, iter } = self;
        sink.emit(|| {
            if admitted {
                ProtocolEvent::StaleAdmit {
                    worker,
                    from,
                    iter,
                    at_iter,
                }
            } else {
                ProtocolEvent::StaleReject {
                    worker,
                    from,
                    iter,
                    at_iter,
                }
            }
        });
    }
}

/// `count` tokens became visible in `TokenQ(owner -> consumer)` (emits
/// `TokenPass`). The simulator calls this at consumer visibility, the
/// threaded runtime at owner-side grant — both before any consumption
/// they fund, per the linearization discipline.
pub fn token_grant(sink: &mut impl EventSink, owner: usize, consumer: usize, count: u64) {
    sink.emit(|| ProtocolEvent::TokenPass {
        owner,
        consumer,
        count,
    });
}

/// `worker` crashed on entering iteration `iter` (emits `Crash`). Like
/// the rest of the delivery plane, churn happens on the fault plane's
/// schedule — in whatever phase the worker occupies — so this is a free
/// function. The fault-aware oracle requires every `Crash` in a trace to
/// be licensed by a matching [`hop_sim::FaultLog`] entry.
pub fn crash(sink: &mut impl EventSink, worker: usize, iter: u64) {
    sink.emit(|| ProtocolEvent::Crash { worker, iter });
}

/// A crashed `worker` rejoined the run and will re-enter at `target`,
/// parameters rehydrated from a live neighbor's snapshot (emits
/// `Rejoin`).
pub fn rejoin(sink: &mut impl EventSink, worker: usize, target: u64) {
    sink.emit(|| ProtocolEvent::Rejoin { worker, target });
}

/// The network lost the update tagged `(from, iter)` on its way to
/// `worker` (emits `Lost`). Always paired with the preceding `Send` —
/// the sender published in good faith; the fault plane ate the message —
/// so replay's outstanding-send accounting stays balanced. The oracle
/// requires a licensing [`hop_sim::FaultEvent::Loss`] for each.
pub fn lost_update(sink: &mut impl EventSink, worker: usize, from: usize, iter: u64) {
    sink.emit(|| ProtocolEvent::Lost { worker, from, iter });
}

/// Drives the handles through `iters` lockstep iterations of the
/// standard protocol on a ring of `n` workers and returns the emitted
/// trace: a trace that *only* the typed API produced must satisfy the
/// Oracle for `HopConfig::standard()` on `Topology::ring(n)`.
#[cfg(test)]
pub(crate) fn reference_trace(n: usize, iters: u64) -> ProtocolTrace {
    let mut trace = ProtocolTrace::new();
    let topo = hop_graph::Topology::ring(n);
    for k in 0..iters {
        // Entry half-round: every worker advances, sends (parallel
        // order) and starts computing before anyone reduces, so no
        // consume can outrun its send.
        let steps: Vec<Step<Computing>> = (0..n)
            .map(|w| {
                let step = begin_step(&mut trace, w, k);
                for &o in topo.out_neighbors(w) {
                    step.send(&mut trace, o);
                }
                step.begin_compute(&mut trace)
            })
            .collect();
        // Exchange half-round: finish compute, consume every in-neighbor
        // update of this iteration, reduce.
        for step in steps {
            let w = step.worker();
            let mut step = step.end_compute(&mut trace);
            for &j in topo.in_neighbors(w) {
                step.consume(&mut trace, j, k);
            }
            step.reduce(&mut trace).complete();
        }
    }
    for w in 0..n {
        begin_step(&mut trace, w, iters).retire();
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HopConfig;
    use hop_graph::Topology;

    #[test]
    fn reference_trace_satisfies_the_oracle() {
        for n in 2usize..=6 {
            let trace = reference_trace(n, 4);
            let topo = Topology::ring(n);
            let cfg = HopConfig::standard();
            let oracle = crate::conformance::Oracle::new(&cfg, &topo, 4);
            let summary = oracle
                .check(&trace)
                .unwrap_or_else(|v| panic!("handle-driven trace violated the oracle: {v}"));
            assert_eq!(summary.advances, (n as u64) * 5);
            assert_eq!(summary.reduces, (n as u64) * 4);
        }
    }

    #[test]
    fn handle_counts_consumes_into_the_reduce() {
        let mut trace = ProtocolTrace::new();
        let mut step = begin_step(&mut trace, 3, 7)
            .begin_compute(&mut trace)
            .end_compute(&mut trace);
        step.consume(&mut trace, 2, 7);
        step.consume(&mut trace, 4, 6);
        step.reduce(&mut trace).complete();
        let last = trace.events().last().expect("reduce recorded");
        assert_eq!(
            *last,
            ProtocolEvent::Reduce {
                worker: 3,
                iter: 7,
                n_updates: 2,
                renew: false,
            }
        );
    }

    #[test]
    fn renew_counts_own_parameters_into_the_reduce() {
        let mut trace = ProtocolTrace::new();
        let step = begin_step(&mut trace, 0, 2)
            .begin_compute(&mut trace)
            .end_compute(&mut trace)
            .reduce(&mut trace);
        let mut renew = step.jump(&mut trace, 5, &[3, 4]);
        assert_eq!(renew.distance(), 3);
        renew.take_tokens(&mut trace, 1);
        renew.consume(&mut trace, 1, 4);
        renew.renew_reduce(&mut trace);
        let events = trace.events();
        assert_eq!(
            events[events.len() - 1],
            ProtocolEvent::Reduce {
                worker: 0,
                iter: 4,
                n_updates: 2,
                renew: true,
            }
        );
        assert_eq!(
            events[events.len() - 2],
            ProtocolEvent::Consume {
                worker: 0,
                from: 1,
                iter: 4,
                at_iter: 4,
            }
        );
        assert_eq!(
            events[events.len() - 3],
            ProtocolEvent::TokenTake {
                owner: 1,
                consumer: 0,
                count: 3,
            }
        );
    }

    #[test]
    fn disabled_sinks_never_build_payloads() {
        let mut sink: Option<ProtocolTrace> = None;
        let step = begin_step(&mut sink, 0, 0);
        step.send(&mut sink, 1);
        let step = step.begin_compute(&mut sink).end_compute(&mut sink);
        step.reduce(&mut sink).complete();
        assert!(sink.is_none());

        let mut none: Option<SeqSink<'_>> = None;
        advance_only(&mut none, 0, 0);
        assert!(none.is_none());
    }

    #[test]
    fn seq_sink_orders_across_sinks() {
        let seq = AtomicU64::new(0);
        let mut a = SeqSink::new(&seq);
        let mut b = SeqSink::new(&seq);
        advance_only(&mut a, 0, 0);
        advance_only(&mut b, 1, 0);
        advance_only(&mut a, 0, 1);
        let mut merged: Vec<(u64, ProtocolEvent)> =
            a.into_events().into_iter().chain(b.into_events()).collect();
        merged.sort_by_key(|&(s, _)| s);
        let seqs: Vec<u64> = merged.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
