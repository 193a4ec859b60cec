//! The simulated decentralized runtime: Hop's protocol family plus the
//! NOTIFY-ACK baseline, as worker state machines over the discrete-event
//! network.
//!
//! Every worker runs the five operations of §3.2 (Compute, Send, Recv,
//! Reduce, Apply) in either the serial or parallel order of Fig. 2, with
//! synchronization provided by the rotating update queues of §6.1 and,
//! when configured, the token queues of §4.2, backup workers (Fig. 8),
//! bounded staleness (Fig. 9) and skipping iterations (§5).
//!
//! The event pump, per-worker common state and recording live in the
//! shared [`super::engine::SimEngine`]; this module contributes only the
//! protocol state machine as a [`WorkerProtocol`] implementation. It
//! drives the full vocabulary of the [`crate::choreography`] handles —
//! the protocol they were extracted from.

use crate::choreography::{self, Arrival, Exchanging, Reduced, Renew, SendStage, Step};
use crate::config::{ComputeOrder, HopConfig, SyncMode};
use crate::report::TrainingReport;
use crate::semantics;
use crate::trainer::SimRun;
use hop_graph::Topology;
use hop_queue::{RotatingQueues, Tag, TaggedEntry};
use hop_tensor::ParamBlock;

use super::compression::CompressionPlane;
use super::engine::{SimEngine, WorkerCommon, WorkerProtocol};

/// When token queues are disabled, rotating queues still need a modulus;
/// this must exceed any reachable iteration gap. The runtime uses the
/// graph-diameter bound of Theorem 1 (standard/staleness modes only;
/// backup mode without tokens is rejected by validation).
fn rotation_window(cfg: &HopConfig, topology: &Topology) -> u64 {
    if let Some(max_ig) = cfg.max_ig() {
        return max_ig;
    }
    let sp = hop_graph::ShortestPaths::new(topology);
    let diameter = sp.diameter().expect("validated: strongly connected") as u64;
    let per_hop = cfg.staleness.map_or(1, |s| s + 1);
    // Theorem 1 (or its staleness generalization): gap <= per_hop * diameter.
    (per_hop * diameter.max(1)).max(1)
}

/// Worker phase, carrying the typed per-iteration handle for the stage
/// the worker is parked in — the only capability that can emit the
/// stage's exchange events, so a phase/instrumentation mismatch cannot
/// compile.
#[derive(Debug)]
enum Phase {
    /// Transient marker while an event handler owns the handle.
    Stepping,
    /// Gradient computation in flight (parallel: sends already issued).
    Computing(Step<choreography::Computing>),
    /// Serial/NOTIFY-ACK only: ready to send but waiting for ACKs.
    WaitAck(Step<Exchanging>),
    /// Waiting for the Recv condition of the current iteration.
    WaitUpdates(Step<Exchanging>),
    /// Reduce+Apply done; waiting for tokens to advance.
    WaitTokens(Step<Reduced>),
    /// Skip-iterations: waiting for `Recv(target - 1)` before jumping.
    JumpRecv(Renew),
    /// Reached `max_iters`.
    Finished,
}

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
    },
    Ack {
        to: usize,
    },
}

/// Protocol-specific per-worker state; common state (params, optimizer,
/// sampler, iteration counter) lives in the engine's [`WorkerCommon`].
struct WorkerSt {
    /// Gradient buffer; travels with the worker's compute job.
    grad: Vec<f32>,
    queue: RotatingQueues<ParamBlock>,
    /// Newest update seen per in-neighbor (staleness mode, incl. self),
    /// dense: slot `p` is the update from `topology.in_neighbors(w)[p]`.
    newest_from: Vec<Option<(u64, ParamBlock)>>,
    /// Tokens visible from each external out-neighbor's `TokenQ(o -> w)`,
    /// dense: slot `p` counts tokens from
    /// `topology.external_out_neighbors(w)[p]` — exactly the order the
    /// token-mode advance logic and the conformance `Jump` event use, so
    /// the per-event count vector needs no re-gathering.
    tokens_from: Vec<u64>,
    /// NOTIFY-ACK: ACKs received for the last sent iteration.
    acks_received: usize,
    phase: Phase,
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

/// The Hop/NOTIFY-ACK worker state machine.
struct Decentralized<'a> {
    cfg: &'a HopConfig,
    topology: &'a Topology,
    max_ig: Option<u64>,
    skipped_sends: u64,
    workers: Vec<WorkerSt>,
    /// One parameter stream per worker (see
    /// [`super::compression`]); inactive under the identity codec, in
    /// which case [`Self::do_send`] takes the exact-snapshot path.
    plane: CompressionPlane,
    /// The rotating-queue Recv's dequeued entries, kept for the next
    /// Recv so the steady state does not allocate them.
    recv_entries: Vec<TaggedEntry<ParamBlock>>,
}

/// Calls `f` with the payloads of `entries`, then `own` if given, as the
/// Reduce's input list ([`semantics::with_inline`]: no allocation for an
/// in-degree of 16 or less).
fn with_views<R>(
    entries: &[TaggedEntry<ParamBlock>],
    own: Option<&[f32]>,
    f: impl FnOnce(&[&[f32]]) -> R,
) -> R {
    let views = entries.iter().map(|e| e.value.as_slice()).chain(own);
    semantics::with_inline(views, &[][..], f)
}

impl<'a> Decentralized<'a> {
    fn new(cfg: &'a HopConfig, topology: &'a Topology, eng: &SimEngine<'_, Ev>) -> Self {
        let window = rotation_window(cfg, topology);
        let max_ig = cfg.max_ig();
        let dim = eng.init_params().len();
        let workers = (0..topology.len())
            .map(|w| {
                let tokens_from = match max_ig {
                    Some(ig) => vec![ig; topology.external_out_neighbors(w).len()],
                    None => Vec::new(),
                };
                WorkerSt {
                    grad: vec![0.0; dim],
                    queue: RotatingQueues::new(window),
                    newest_from: vec![None; topology.in_neighbors(w).len()],
                    tokens_from,
                    acks_received: 0,
                    phase: Phase::Stepping,
                }
            })
            .collect();
        let mut plane = CompressionPlane::new(cfg.compression);
        plane.add_param_streams(topology.len(), eng.init_params());
        Self {
            cfg,
            topology,
            max_ig,
            skipped_sends: 0,
            workers,
            plane,
            recv_entries: Vec::new(),
        }
    }

    /// Advances `w` into `new_iter`, inserting `token_steps` tokens for
    /// in-neighbors, issuing sends (parallel order) and scheduling compute.
    fn enter_iteration(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        w: usize,
        new_iter: u64,
        now: f64,
        token_steps: u64,
    ) {
        eng.iters[w] = new_iter;
        let step = eng.enter_step(w, new_iter, now);
        if self.max_ig.is_some() && token_steps > 0 {
            self.insert_tokens(eng, w, token_steps, now);
        }
        if eng.recorder.crossed_boundary(new_iter) {
            eng.evaluate_worker_average(now, new_iter);
        }
        if new_iter >= eng.max_iters {
            step.retire();
            self.finish_worker(eng, w, now);
            return;
        }
        // The gradient depends only on the replica as it stands now: the
        // job starts here, before this worker's own Send (the helper
        // overlaps that too), and is joined at the virtual completion
        // time. Crashes fire only in `enter_step`, so a job begins iff
        // its `ComputeDone` will be accepted.
        let parallel = self.cfg.order == ComputeOrder::Parallel;
        if !eng.faults.is_dead(w) {
            let grad = std::mem::take(&mut self.workers[w].grad);
            eng.begin_compute(w, grad, parallel);
        }
        if parallel {
            self.do_send(eng, w, new_iter, &step, now);
        }
        self.workers[w].phase = Phase::Computing(step.begin_compute(&mut eng.conformance));
        let duration = eng.compute_duration(w, new_iter);
        eng.events
            .push(now + duration, Ev::ComputeDone { w, iter: new_iter });
    }

    /// Dense slot of sender `from` in `w`'s `newest_from`: its position
    /// in the sorted `in_neighbors(w)` list.
    fn in_slot(&self, w: usize, from: usize) -> usize {
        self.topology
            .in_neighbors(w)
            .binary_search(&from)
            .expect("sender is not an in-neighbor")
    }

    /// Dense slot of token owner `owner` in `w`'s `tokens_from`: its
    /// position in the sorted `external_out_neighbors(w)` list.
    fn out_slot(&self, w: usize, owner: usize) -> usize {
        self.topology
            .external_out_neighbors(w)
            .binary_search(&owner)
            .expect("token owner is not an out-neighbor")
    }

    /// Grants `count` tokens to every external in-neighbor (they consume
    /// from `TokenQ(w -> j)`); visibility is delayed by a control message.
    fn insert_tokens(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, count: u64, now: f64) {
        for &j in self.topology.external_in_neighbors(w) {
            let ev = Ev::Tokens {
                to: j,
                from: w,
                count,
            };
            eng.push_control(w, j, now, ev);
        }
    }

    /// The Send of iteration `iter`: self-loop delivery is immediate;
    /// external sends go over the network (with the §6.2(b) inquiry
    /// optimization when enabled). Every delivery carries a zero-copy
    /// snapshot — the wire bytes are simulated, no parameter bytes move.
    ///
    /// With a lossy codec the self-delivery stays exact (the worker's own
    /// queue never crosses the wire) while externals receive the codec's
    /// reconstruction and the network is charged the encoded size. The
    /// stream is encoded exactly once per Send regardless of how many
    /// external sends the §6.2(b) inquiry suppresses, so the codec state
    /// never depends on receivers' progress.
    fn do_send<S: SendStage>(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        w: usize,
        iter: u64,
        step: &Step<S>,
        now: f64,
    ) {
        debug_assert_eq!(step.iter(), iter, "send handle is for another iteration");
        let params = eng.workers[w].params.snapshot();
        step.send(&mut eng.conformance, w);
        self.deliver_update(eng, w, w, iter, params.snapshot(), now);
        let (mut wire, wire_bytes) = if self.plane.is_active() {
            self.plane
                .encode_params(w, params.as_slice(), &mut eng.pool)
        } else {
            (params.snapshot(), eng.param_bytes)
        };
        // Byzantine corruption hits the *outgoing* copy only: the worker's
        // own queue (the self-delivery above) stays honest, receivers get
        // the corrupted values. Applied once per Send, so SignFlip cannot
        // double-negate across recipients. Guarded by a plan lookup so
        // honest workers never pay the copy-on-write detach.
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
        let inquiry = self.cfg.effective_send_inquiry();
        let mut delivered = 0u64;
        for &o in self.topology.external_out_neighbors(w) {
            if inquiry && eng.iters[o] > iter {
                // The receiver has already passed this iteration; the
                // update would be dropped as stale on arrival (§6.2b).
                self.skipped_sends += 1;
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
        eng.pool.reclaim(params);
    }

    fn deliver_update(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        to: usize,
        from: usize,
        iter: u64,
        params: ParamBlock,
        now: f64,
    ) {
        // A message already in flight when its receiver crashed arrives at
        // a dead worker: it vanishes without an event. (Messages *sent*
        // while an endpoint is dead never get here — the verdict gate
        // drops them as licensed losses.)
        if eng.faults.is_dead(to) {
            eng.pool.reclaim(params);
            return;
        }
        if self.cfg.staleness.is_some() {
            let slot = self.in_slot(to, from);
            let state = &mut self.workers[to];
            let newer = state.newest_from[slot]
                .as_ref()
                .is_none_or(|&(have, _)| iter > have);
            let arrival = Arrival {
                worker: to,
                from,
                iter,
            };
            arrival.judge(&mut eng.conformance, newer, eng.iters[to]);
            if newer {
                if let Some((_, old)) = state.newest_from[slot].replace((iter, params)) {
                    eng.pool.reclaim(old);
                }
            }
        } else {
            self.workers[to]
                .queue
                .enqueue(params, Tag { iter, w_id: from })
                .expect("unbounded rotating queues");
        }
        match std::mem::replace(&mut self.workers[to].phase, Phase::Stepping) {
            Phase::WaitUpdates(step) => self.try_recv(eng, to, step, now),
            Phase::JumpRecv(renew) => self.try_jump_recv(eng, to, renew, now),
            other => self.workers[to].phase = other,
        }
    }

    fn on_tokens(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        to: usize,
        from: usize,
        count: u64,
        now: f64,
    ) {
        // Recorded at visibility (not grant) time: the conformance view of
        // a token queue is exactly what the consumer can observe.
        choreography::token_grant(&mut eng.conformance, from, to, count);
        let slot = self.out_slot(to, from);
        self.workers[to].tokens_from[slot] += count;
        // A dead worker still *accrues* grants (token conservation: the
        // queue exists whether or not its consumer is awake) but cannot
        // wake; the balance is spent at rejoin.
        if eng.faults.is_dead(to) {
            return;
        }
        if matches!(self.workers[to].phase, Phase::WaitTokens(_)) {
            let Phase::WaitTokens(step) =
                std::mem::replace(&mut self.workers[to].phase, Phase::Stepping)
            else {
                unreachable!("just matched WaitTokens");
            };
            self.attempt_advance(eng, to, step, now);
        }
    }

    fn on_ack(&mut self, eng: &mut SimEngine<'_, Ev>, to: usize, now: f64) {
        self.workers[to].acks_received += 1;
        if eng.faults.is_dead(to) {
            return;
        }
        if matches!(self.workers[to].phase, Phase::WaitAck(_))
            && self.workers[to].acks_received >= self.topology.external_out_neighbors(to).len()
        {
            let Phase::WaitAck(step) =
                std::mem::replace(&mut self.workers[to].phase, Phase::Stepping)
            else {
                unreachable!("just matched WaitAck");
            };
            self.serial_send_then_recv(eng, to, step, now);
        }
    }

    fn on_compute_done(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, iter: u64, now: f64) {
        // A crashed worker's in-flight compute completion: the iteration
        // died with the worker (its `ComputeEnd` is never emitted), and
        // after a rejoin the counter has moved past `iter`.
        if iter != eng.iters[w] || eng.faults.is_dead(w) {
            return;
        }
        let Phase::Computing(step) = std::mem::replace(&mut self.workers[w].phase, Phase::Stepping)
        else {
            unreachable!("ComputeDone for a worker that is not computing");
        };
        let step = step.end_compute(&mut eng.conformance);
        // The gradient math began with the virtual compute phase and may
        // have run beside the pump since; its result enters the
        // simulation only here, at the virtual completion time.
        let (loss, grad) = eng.join_compute(w);
        eng.recorder.train_loss(w, iter, now, loss);
        self.workers[w].grad = grad;
        match self.cfg.order {
            // Fig. 2(b): the update is applied onto the reduced parameters.
            ComputeOrder::Parallel => self.try_recv(eng, w, step, now),
            ComputeOrder::Serial => {
                // Fig. 2(a): apply to the same parameters, then send.
                // Copy-on-write: snapshots still in flight keep their
                // values.
                let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
                opt.step_block(params, &self.workers[w].grad);
                let needs_ack = self.cfg.sync == SyncMode::NotifyAck
                    && iter > 0
                    && self.workers[w].acks_received
                        < self.topology.external_out_neighbors(w).len();
                if needs_ack {
                    self.workers[w].phase = Phase::WaitAck(step);
                } else {
                    self.serial_send_then_recv(eng, w, step, now);
                }
            }
        }
    }

    fn serial_send_then_recv(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        w: usize,
        step: Step<Exchanging>,
        now: f64,
    ) {
        let iter = eng.iters[w];
        self.workers[w].acks_received = 0;
        self.do_send(eng, w, iter, &step, now);
        self.try_recv(eng, w, step, now);
    }

    /// Whether every neighbor in `neighbors` has a satisfactory newest
    /// update for a worker renewing at iteration `k` (staleness mode's
    /// §5 jump-renew: `neighbors` are the externals, a subsequence of
    /// `newest_from`'s slots, so each is looked up).
    fn newest_satisfied(&self, w: usize, neighbors: &[usize], k: u64, s: u64) -> bool {
        neighbors.iter().all(|&j| {
            self.workers[w].newest_from[self.in_slot(w, j)]
                .as_ref()
                .is_some_and(|&(iter, _)| semantics::staleness_satisfied(iter, k, s))
        })
    }

    /// Gathers the newest update per listed in-neighbor as
    /// `(iteration, snapshot)` pairs — the collection step of the
    /// staleness-mode §5 jump-renew. Snapshots are refcount bumps, not
    /// copies.
    fn collect_newest(&self, w: usize, neighbors: &[usize]) -> Vec<(u64, ParamBlock)> {
        neighbors
            .iter()
            .map(|&j| {
                let (iter, params) = self.workers[w].newest_from[self.in_slot(w, j)]
                    .as_ref()
                    .expect("newest update missing for a satisfied neighbor");
                (*iter, params.snapshot())
            })
            .collect()
    }

    /// The Recv + Reduce + Apply of the current iteration. Blocks (phase
    /// `WaitUpdates`) until the mode's condition is met.
    fn try_recv(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        w: usize,
        mut step: Step<Exchanging>,
        now: f64,
    ) {
        let k = eng.iters[w];
        debug_assert_eq!(step.iter(), k, "recv handle is for another iteration");
        let in_deg = self.topology.in_degree(w);
        // Parallel order: the Apply rides the Reduce sweep as its tail.
        let parallel = self.cfg.order == ComputeOrder::Parallel;
        let step = if let Some(s) = self.cfg.staleness {
            // Fig. 9: newest satisfactory update per in-neighbor. Slot `p`
            // of `newest_from` is `in_neighbors(w)[p]`, so the walk needs
            // no look-ups, and the Reduce reads the slots in place.
            let newest = &self.workers[w].newest_from;
            let satisfied = newest.iter().all(|slot| {
                slot.as_ref()
                    .is_some_and(|&(iter, _)| semantics::staleness_satisfied(iter, k, s))
            });
            if !satisfied {
                self.workers[w].phase = Phase::WaitUpdates(step);
                return;
            }
            let views = newest.iter().map(|slot| {
                let (iter, params) = slot.as_ref().expect("checked satisfied");
                (*iter, params.as_slice())
            });
            semantics::with_inline(views, (0, &[][..]), |views| {
                for (&nbr, &(iter, _)) in self.topology.in_neighbors(w).iter().zip(views) {
                    step.consume(&mut eng.conformance, nbr, iter);
                }
                let step = step.reduce(&mut eng.conformance);
                // Full overwrite: the old contents are not read, so a
                // shared replica detaches without copying.
                let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
                semantics::reduce_staleness_with(
                    self.cfg.staleness_weighting,
                    views,
                    k,
                    s,
                    parallel.then(|| opt.step_term()),
                    params.overwrite_mut(&mut eng.pool),
                );
                step
            })
        } else {
            let quota = semantics::backup_quota(in_deg, self.cfg.n_backup);
            if self.workers[w].queue.size(k) < quota {
                self.workers[w].phase = Phase::WaitUpdates(step);
                return;
            }
            // Fig. 8: the needed updates plus any extras already here.
            let mut entries = std::mem::take(&mut self.recv_entries);
            self.workers[w]
                .queue
                .dequeue_up_to_into(in_deg, k, &mut entries);
            for entry in &entries {
                step.consume(&mut eng.conformance, entry.tag.w_id, entry.tag.iter);
            }
            let step = step.reduce(&mut eng.conformance);
            let WorkerCommon { opt, params, .. } = &mut eng.workers[w];
            with_views(&entries, None, |views| {
                semantics::reduce_mean(
                    views,
                    parallel.then(|| opt.step_term()),
                    params.overwrite_mut(&mut eng.pool),
                )
            });
            // The dequeued snapshots are done; recycle any whose last
            // holder this was.
            for entry in entries.drain(..) {
                eng.pool.reclaim(entry.value);
            }
            self.recv_entries = entries;
            step
        };
        // NOTIFY-ACK: confirm consumption to every external in-neighbor.
        if self.cfg.sync == SyncMode::NotifyAck {
            for &j in self.topology.external_in_neighbors(w) {
                eng.push_control(w, j, now, Ev::Ack { to: j });
            }
        }
        self.attempt_advance(eng, w, step, now);
    }

    /// Token acquisition, the §5 skip decision, and the actual advance.
    fn attempt_advance(
        &mut self,
        eng: &mut SimEngine<'_, Ev>,
        w: usize,
        step: Step<Reduced>,
        now: f64,
    ) {
        let k = eng.iters[w];
        let Some(max_ig) = self.max_ig else {
            step.complete();
            self.enter_iteration(eng, w, k + 1, now, 1);
            return;
        };
        let outs = self.topology.external_out_neighbors(w);
        if outs.is_empty() {
            step.complete();
            self.enter_iteration(eng, w, k + 1, now, 1);
            return;
        }
        // `tokens_from` is dense in `outs` order, so it *is* the count
        // vector — no per-event gather allocation.
        if let Some(skip) = &self.cfg.skip {
            let tokens = &self.workers[w].tokens_from;
            let jump = semantics::jump_before_end(tokens, max_ig, skip, k, eng.max_iters);
            if let Some(jump) = jump {
                let renew = step.jump(&mut eng.conformance, k + jump, tokens);
                // Obtain `jump` tokens from every out-going neighbor and
                // grant the same number to in-neighbors right away so they
                // are never starved while we renew parameters.
                for (slot, &owner) in outs.iter().enumerate() {
                    self.workers[w].tokens_from[slot] -= jump;
                    renew.take_tokens(&mut eng.conformance, owner);
                }
                self.insert_tokens(eng, w, jump, now);
                self.try_jump_recv(eng, w, renew, now);
                return;
            }
        }
        if self.workers[w].tokens_from.iter().all(|&c| c >= 1) {
            for (slot, &owner) in outs.iter().enumerate() {
                self.workers[w].tokens_from[slot] -= 1;
                step.take_token(&mut eng.conformance, owner);
            }
            step.complete();
            self.enter_iteration(eng, w, k + 1, now, 1);
        } else {
            self.workers[w].phase = Phase::WaitTokens(step);
        }
    }

    /// §5: before jumping to `target`, renew parameters with
    /// `Recv(target - 1)` + Reduce so the straggler's future updates are
    /// not hopelessly stale.
    fn try_jump_recv(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, mut renew: Renew, now: f64) {
        let target = renew.target();
        let renew_iter = target - 1;
        if let Some(s) = self.cfg.staleness {
            let externals = self.topology.external_in_neighbors(w);
            if !self.newest_satisfied(w, externals, renew_iter, s) {
                self.workers[w].phase = Phase::JumpRecv(renew);
                return;
            }
            let mut collected = self.collect_newest(w, externals);
            for (nbr, (iter, _)) in externals.iter().zip(&collected) {
                renew.consume(&mut eng.conformance, *nbr, *iter);
            }
            // Own (stale) parameters participate with clamped weight; the
            // snapshot keeps them readable while the replica is rewritten.
            collected.push((eng.iters[w], eng.workers[w].params.snapshot()));
            renew.renew_reduce(&mut eng.conformance);
            let views: Vec<(u64, &[f32])> = collected
                .iter()
                .map(|(iter, p)| (*iter, p.as_slice()))
                .collect();
            semantics::reduce_staleness_with(
                self.cfg.staleness_weighting,
                &views,
                renew_iter,
                s,
                None,
                eng.workers[w].params.overwrite_mut(&mut eng.pool),
            );
        } else {
            // Backup mode: collect the quota of iteration `target-1`
            // updates from external in-neighbors (self never sent one).
            let ext = self.topology.external_in_neighbors(w).len();
            let quota = semantics::renew_quota(ext, self.cfg.n_backup);
            if self.workers[w].queue.size(renew_iter) < quota {
                self.workers[w].phase = Phase::JumpRecv(renew);
                return;
            }
            let mut entries = std::mem::take(&mut self.recv_entries);
            self.workers[w]
                .queue
                .dequeue_up_to_into(ext, renew_iter, &mut entries);
            for entry in &entries {
                renew.consume(&mut eng.conformance, entry.tag.w_id, entry.tag.iter);
            }
            // Own (stale) parameters participate; the renewing handle
            // counts them into the Reduce itself.
            renew.renew_reduce(&mut eng.conformance);
            let own = eng.workers[w].params.snapshot();
            with_views(&entries, Some(own.as_slice()), |views| {
                semantics::reduce_mean(
                    views,
                    None,
                    eng.workers[w].params.overwrite_mut(&mut eng.pool),
                )
            });
            eng.pool.reclaim(own);
            for entry in entries.drain(..) {
                eng.pool.reclaim(entry.value);
            }
            self.recv_entries = entries;
        }
        // Momentum history refers to a trajectory this worker abandoned.
        eng.workers[w].opt.reset_velocity();
        self.enter_iteration(eng, w, target, now, 0);
    }

    /// Terminal bookkeeping: release neighbors that might still need our
    /// tokens.
    fn finish_worker(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, now: f64) {
        self.workers[w].phase = Phase::Finished;
        eng.finish_worker(w);
        if self.max_ig.is_some() {
            let flood = eng.max_iters + 1;
            self.insert_tokens(eng, w, flood, now);
        }
    }

    #[cfg(test)]
    fn skipped_send_count(&self) -> u64 {
        self.skipped_sends
    }
}

impl WorkerProtocol for Decentralized<'_> {
    type Event = Ev;

    fn start(&mut self, eng: &mut SimEngine<'_, Ev>) {
        for w in 0..self.workers.len() {
            self.enter_iteration(eng, w, 0, 0.0, 0);
        }
    }

    fn on_event(&mut self, eng: &mut SimEngine<'_, Ev>, now: f64, ev: Ev) {
        match ev {
            Ev::ComputeDone { w, iter } => self.on_compute_done(eng, w, iter, now),
            Ev::Update {
                to,
                from,
                iter,
                params,
            } => self.deliver_update(eng, to, from, iter, params, now),
            Ev::Tokens { to, from, count } => self.on_tokens(eng, to, from, count, now),
            Ev::Ack { to } => self.on_ack(eng, to, now),
        }
    }

    fn final_params(&mut self, eng: &SimEngine<'_, Ev>) -> Vec<Vec<f32>> {
        eng.workers.iter().map(|s| s.params.to_vec()).collect()
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
        // Table 1's gap bound holds among *live* workers: re-entering at
        // `target` while a live straggler sits more than `max_ig` behind
        // would open an illegal gap the moment the worker is no longer
        // exempt. Stay dead until the stragglers catch up.
        let Some(max_ig) = self.max_ig else {
            return true;
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
        gap_ok && self.workers[w].tokens_from.iter().all(|&t| t >= catchup)
    }

    fn on_rejoin(&mut self, eng: &mut SimEngine<'_, Ev>, w: usize, target: u64, now: f64) {
        let st = &mut self.workers[w];
        // Whatever stage the worker died in is abandoned; the typed
        // handle parked in `phase` is dropped with it.
        st.phase = Phase::Stepping;
        st.acks_received = 0;
        // Skipping from the crash point to `target` spends exactly one
        // grant per skipped iteration on every outgoing edge —
        // `rejoin_admissible` vouched the balance covers it — and the
        // oracle's `Rejoin` arm drains the same amount, keeping token
        // conservation checked across churn.
        let catchup = target - eng.iters[w];
        for avail in &mut st.tokens_from {
            debug_assert!(*avail >= catchup, "rejoin admitted on token credit");
            *avail -= catchup.min(*avail);
        }
        // In-neighbors get the grants those skipped iterations owe them,
        // exactly as a §5 jump grants its whole distance up front.
        self.enter_iteration(eng, w, target, now, catchup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protocol, SkipConfig};
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
        let mut cfg = HopConfig::backup(1, 5);
        cfg.send_inquiry = Some(true);
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

    #[test]
    fn deterministic_given_seed() {
        let a = run_cfg(HopConfig::standard(), 25, SlowdownModel::paper_random(4));
        let b = run_cfg(HopConfig::standard(), 25, SlowdownModel::paper_random(4));
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.trace.records(), b.trace.records());
    }
}
