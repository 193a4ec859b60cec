//! Training reports: what an experiment returns, and why a run on a
//! real runtime failed.

use crate::config::ConfigError;
use crate::conformance::ProtocolTrace;
use hop_metrics::TimeSeries;
use hop_queue::tagged::Tag;
use hop_sim::{FaultLog, Trace};
use hop_wire::WireError;
use std::fmt;
use std::time::Duration;

/// The outcome of one simulated (or threaded) training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Structured protocol-event trace, present when the run was executed
    /// with conformance recording enabled (see
    /// [`crate::trainer::SimExperiment::run_conformance`]). Deliberately
    /// excluded from [`TrainingReport::digest`]: recording must never
    /// change what the figures consume.
    pub conformance: Option<ProtocolTrace>,
    /// Iteration-entry trace (timing, gaps).
    pub trace: Trace,
    /// Per-worker minibatch training loss vs virtual time.
    pub train_loss_time: Vec<TimeSeries>,
    /// Per-worker minibatch training loss vs iteration index.
    pub train_loss_steps: Vec<TimeSeries>,
    /// Held-out loss of the parameter average across workers, vs time.
    pub eval_time: TimeSeries,
    /// Held-out loss of the parameter average across workers, vs steps
    /// (iteration of worker 0 at evaluation points).
    pub eval_steps: TimeSeries,
    /// Final parameters of every worker.
    pub final_params: Vec<Vec<f32>>,
    /// Virtual time at which the last worker finished.
    pub wall_time: f64,
    /// Stale updates discarded by rotating queues (§6.2).
    pub stale_discarded: u64,
    /// Payload bytes moved over the network. When a compression codec is
    /// configured this counts *encoded* bytes — what actually crossed the
    /// wire — not the dense size of the updates.
    pub bytes_sent: u64,
    /// Bytes the configured compression codec avoided sending: dense
    /// size minus encoded size, summed over every compressed message.
    /// Zero for the identity codec. Deliberately excluded from
    /// [`TrainingReport::digest`]: like `events_processed` it is
    /// diagnostic accounting, not something the paper's figures consume,
    /// and adding it to the stream would break every pinned digest for a
    /// pure bookkeeping counter.
    pub bytes_saved: u64,
    /// Whether the run ended in deadlock (event queue drained before all
    /// workers finished) — expected for AD-PSGD on non-bipartite graphs.
    pub deadlocked: bool,
    /// Whether the engine stopped because its event budget ran out (a
    /// runaway event storm) rather than a genuine stall. When set,
    /// `deadlocked` is also set: the run did not complete.
    pub budget_exhausted: bool,
    /// Total events the pump processed — throughput denominator for
    /// scaling benchmarks. Deliberately excluded from
    /// [`TrainingReport::digest`]: it is a property of the engine's
    /// scheduling, not of anything the paper's figures consume, and
    /// digests must stay comparable across engine-internal changes that
    /// alter event counts without altering results.
    pub events_processed: u64,
    /// Hand-offs of gradient jobs the simulator's pump shipped to its
    /// compute helper (`sim_runtime::engine`, "Compute futures"); 0 for
    /// a run without one. A function of event order alone — the same on
    /// every run of a seed on hosts that give the run a helper — and
    /// excluded from [`TrainingReport::digest`], which must not depend
    /// on whether a helper ran.
    pub compute_handoffs: u64,
    /// Gradient jobs the pump ran itself because their join came before
    /// their hand-off shipped: every job of a run without a helper, the
    /// tail of one with. Deterministic and digest-excluded like
    /// [`TrainingReport::compute_handoffs`].
    pub inline_joins: u64,
    /// Chunks of the pump's long sweeps (the Reduce, the int8 encode)
    /// that the simulator's compute helper ran between hand-offs
    /// (`sim_runtime::engine`, "Compute futures"); 0 for a run without
    /// one. Unlike the two counters above this depends on the two
    /// threads' schedule, so it is reported, never compared, and
    /// excluded from [`TrainingReport::digest`].
    pub sweep_chunks_helped: u64,
    /// Payload messages dropped by the fault plane (loss draws, cut/dead
    /// links). Diagnostic accounting, excluded from
    /// [`TrainingReport::digest`]: with an empty [`hop_sim::FaultPlan`]
    /// it is always zero, and chaos sweeps compare digests across fault
    /// configurations.
    pub messages_dropped: u64,
    /// Worker crashes the fault plane fired. Digest-excluded diagnostic,
    /// like [`TrainingReport::messages_dropped`].
    pub crashes: u64,
    /// Crashed workers that rehydrated and rejoined. Digest-excluded
    /// diagnostic, like [`TrainingReport::messages_dropped`].
    pub rejoins: u64,
    /// Ordered sidecar of every fault the plane injected — the licensing
    /// record [`crate::conformance::Oracle::check_with_faults`] replays
    /// next to the protocol trace. Digest-excluded diagnostic, like
    /// [`TrainingReport::conformance`].
    pub fault_log: FaultLog,
}

impl TrainingReport {
    /// Virtual time to bring the evaluation loss down to `threshold`.
    pub fn time_to_eval_loss(&self, threshold: f64) -> Option<f64> {
        self.eval_time.time_to_reach(threshold)
    }

    /// Average iteration duration across workers.
    pub fn mean_iteration_duration(&self) -> f64 {
        self.trace.mean_iteration_duration()
    }

    /// FNV-1a digest over every bit-exact field of the report: final
    /// parameters, wall time, byte/stale counts, the outcome flags, the
    /// full trace, and all loss curves (per-worker train loss vs time and
    /// steps, eval loss vs time and steps). Two runs produce the same
    /// digest iff they are bit-identical in everything the paper's
    /// figures consume — the determinism invariant the engine promises
    /// and the sweep runner must preserve at any thread count.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        // Every variable-size field is length-delimited before its
        // contents, so differently-shaped reports (e.g. one concatenated
        // final_params vector vs one per worker — exactly the
        // report-convention bug class PR 3 fixed) can never feed the
        // stream identical bytes.
        eat(&(self.final_params.len() as u64).to_le_bytes());
        for params in &self.final_params {
            eat(&(params.len() as u64).to_le_bytes());
            for v in params {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        eat(&self.wall_time.to_bits().to_le_bytes());
        eat(&self.bytes_sent.to_le_bytes());
        eat(&self.stale_discarded.to_le_bytes());
        eat(&[u8::from(self.deadlocked), u8::from(self.budget_exhausted)]);
        eat(&(self.trace.records().len() as u64).to_le_bytes());
        for r in self.trace.records() {
            eat(&(r.worker as u64).to_le_bytes());
            eat(&r.iter.to_le_bytes());
            eat(&r.time.to_bits().to_le_bytes());
        }
        eat(&(self.train_loss_time.len() as u64).to_le_bytes());
        eat(&(self.train_loss_steps.len() as u64).to_le_bytes());
        let curves = self
            .train_loss_time
            .iter()
            .chain(&self.train_loss_steps)
            .chain([&self.eval_time, &self.eval_steps]);
        for series in curves {
            eat(&(series.points().len() as u64).to_le_bytes());
            for &(t, v) in series.points() {
                eat(&t.to_bits().to_le_bytes());
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Elementwise average of all workers' final parameters.
    pub fn averaged_params(&self) -> Vec<f32> {
        assert!(!self.final_params.is_empty(), "no final parameters");
        mean_params(&self.final_params)
    }
}

/// Elementwise mean of per-worker parameter vectors (empty for none).
fn mean_params(params: &[Vec<f32>]) -> Vec<f32> {
    let views: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0f32; views.first().map_or(0, |v| v.len())];
    if !views.is_empty() {
        hop_tensor::ops::mean_into(&views, &mut out);
    }
    out
}

/// The outcome of a run on a runtime that executes workers for real:
/// OS threads ([`crate::threaded`]) or OS processes ([`crate::process`]).
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    /// Final parameters per worker.
    pub final_params: Vec<Vec<f32>>,
    /// Per-worker minibatch losses by iteration (skipped iterations have
    /// no loss entry).
    pub losses: Vec<Vec<f32>>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Every fault the threaded runtime's shim injected, merged across
    /// workers; feed it to [`crate::conformance::Oracle::check_with_faults`]
    /// alongside the run's trace. Empty on the process runtime, where a
    /// fault is a real connection failure and fails the run.
    pub fault_log: FaultLog,
    /// Per-worker update-block payload bytes framed onto the sockets —
    /// comparable 1:1 with the simulator's `bytes_sent`. All zero on the
    /// threaded runtime, where nothing crosses a wire.
    pub update_wire_bytes: Vec<u64>,
}

impl RuntimeReport {
    /// Elementwise average of the final parameters. Empty when the report
    /// holds no workers (no run produces that — configs validate against
    /// a non-empty topology — but a hand-built report must not panic).
    #[must_use]
    pub fn averaged_params(&self) -> Vec<f32> {
        mean_params(&self.final_params)
    }

    /// Total update bytes across all workers — the number that must
    /// equal the simulator's `bytes_sent` for the same grid point.
    #[must_use]
    pub fn total_update_wire_bytes(&self) -> u64 {
        self.update_wire_bytes.iter().sum()
    }
}

/// Why a run on a real runtime ([`crate::threaded`] or
/// [`crate::process`]) failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// The configuration or the fault plan is invalid for the topology.
    Config(ConfigError),
    /// The configuration names a feature the real runtimes do not
    /// implement: they run the parallel order with queue-based
    /// synchronization only.
    Unsupported(&'static str),
    /// A wait timed out (protocol stall), with enough queue state to
    /// debug the failure from the error alone.
    Stalled {
        /// Worker that stalled.
        worker: usize,
        /// Iteration at which it stalled.
        iter: u64,
        /// What it was waiting for.
        waiting_for: &'static str,
        /// Snapshot of the queue the wait was blocked on.
        diag: StallDiag,
    },
    /// A worker process's link to a peer failed (a corrupt ring or
    /// frame, or the peer gone without `Finished`), naming the peer.
    Link(String),
    /// An I/O operation on the coordinator side failed.
    Io {
        /// What the coordinator was doing.
        context: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A frame to or from a worker failed to encode, decode, or move.
    Wire {
        /// What the coordinator was doing.
        context: &'static str,
        /// The underlying error.
        error: WireError,
    },
    /// The worker fleet never finished connecting and identifying.
    Handshake(String),
    /// One or more worker processes died without sending a final
    /// summary — killed, crashed, or wedged past the summary deadline.
    PeerLost {
        /// `(worker, why its summary never arrived)` for every lost
        /// worker.
        failures: Vec<(usize, String)>,
    },
    /// A worker process finished the session but reported a protocol
    /// failure (stall, peer loss, corrupt frame) instead of a result.
    WorkerFailed {
        /// The failing worker.
        worker: usize,
        /// The worker's own error description.
        error: String,
    },
    /// A worker's stamped event log did not parse.
    Protocol(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "invalid config: {e}"),
            RuntimeError::Unsupported(what) => write!(f, "real runtimes do not support {what}"),
            RuntimeError::Stalled {
                worker,
                iter,
                waiting_for,
                diag,
            } => write!(
                f,
                "worker {worker} stalled at iteration {iter} waiting for {waiting_for} ({diag})"
            ),
            RuntimeError::Link(why) => write!(f, "{why}"),
            RuntimeError::Io { context, error } => write!(f, "{context}: {error}"),
            RuntimeError::Wire { context, error } => write!(f, "{context}: {error}"),
            RuntimeError::Handshake(why) => write!(f, "worker handshake failed: {why}"),
            RuntimeError::PeerLost { failures } => {
                write!(f, "lost worker process(es):")?;
                for (w, why) in failures {
                    write!(f, " [{w}: {why}]")?;
                }
                Ok(())
            }
            RuntimeError::WorkerFailed { worker, error } => {
                write!(f, "worker {worker} failed: {error}")
            }
            RuntimeError::Protocol(why) => write!(f, "merged trace is malformed: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A traced run on a real runtime that failed: the error, and the
/// protocol events its workers had emitted by then, merged as a
/// finished run's are. Write `trace` out with
/// [`ProtocolTrace::to_text`] to replay the failure offline.
#[derive(Debug)]
pub struct FailedRun {
    /// Why the run failed.
    pub error: RuntimeError,
    /// The merged partial trace; empty if no worker ran.
    pub trace: ProtocolTrace,
}

/// A run that failed before any worker ran: nothing to trace.
impl From<RuntimeError> for FailedRun {
    fn from(error: RuntimeError) -> Self {
        let trace = ProtocolTrace::new();
        FailedRun { error, trace }
    }
}

impl fmt::Display for FailedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for FailedRun {}

/// The queue state a stalled worker reports: the snapshot of whichever
/// queue the timed-out wait was actually blocked on. A token stall shows
/// token availability, not the (irrelevant) update queue's pending tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallDiag {
    /// The wait was on the worker's tagged update queue.
    Updates {
        /// Entries sitting in the update queue at stall time.
        queue_depth: usize,
        /// The first few pending tags in the queue (FIFO order,
        /// truncated).
        pending: Vec<Tag>,
        /// Tag of the last update this worker consumed, if any.
        last_consumed: Option<Tag>,
    },
    /// The wait was on the token queues of the worker's external
    /// out-going neighbors.
    Tokens {
        /// `(owner, tokens currently available)` for every
        /// `TokenQ(owner -> this worker)`, in
        /// [`hop_graph::Topology::external_out_neighbors`] order.
        available: Vec<(usize, u64)>,
    },
}

impl fmt::Display for StallDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallDiag::Updates {
                queue_depth,
                pending,
                last_consumed,
            } => {
                write!(f, "update-queue depth {queue_depth}, pending")?;
                if pending.is_empty() {
                    write!(f, " none")?;
                } else {
                    for tag in pending {
                        write!(f, " (iter {}, w {})", tag.iter, tag.w_id)?;
                    }
                }
                match last_consumed {
                    Some(tag) => write!(
                        f,
                        ", last consumed iter {} from worker {}",
                        tag.iter, tag.w_id
                    ),
                    None => write!(f, ", nothing consumed yet"),
                }
            }
            StallDiag::Tokens { available } => {
                write!(f, "token queues")?;
                for (owner, n) in available {
                    write!(f, " TokenQ({owner}): {n}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaged_params_mean() {
        let report = TrainingReport {
            final_params: vec![vec![1.0, 3.0], vec![3.0, 5.0]],
            ..Default::default()
        };
        assert_eq!(report.averaged_params(), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "no final parameters")]
    fn averaged_params_requires_workers() {
        TrainingReport::default().averaged_params();
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let report = TrainingReport {
            final_params: vec![vec![1.0, 2.0]],
            wall_time: 3.5,
            bytes_sent: 128,
            ..Default::default()
        };
        assert_eq!(report.digest(), report.digest());
        let mut tweaked = report.clone();
        tweaked.final_params[0][1] = f32::from_bits(tweaked.final_params[0][1].to_bits() + 1);
        assert_ne!(report.digest(), tweaked.digest());
        let mut flagged = report.clone();
        flagged.deadlocked = true;
        assert_ne!(report.digest(), flagged.digest());
        // Length delimiting: the same scalars split differently across
        // workers must not collide (the report-convention bug class).
        let mut reshaped = report.clone();
        reshaped.final_params = vec![vec![1.0], vec![2.0]];
        assert_ne!(report.digest(), reshaped.digest());
    }

    /// Audits exactly which fields [`TrainingReport::digest`] excludes.
    /// The excluded set is a contract: diagnostic accounting must never
    /// shift pinned digests, while every outcome flag must. If a field is
    /// added to the struct, this test is the checklist to extend.
    #[test]
    fn digest_exclusions_are_exactly_the_diagnostic_fields() {
        let report = TrainingReport {
            final_params: vec![vec![1.0, 2.0]],
            wall_time: 3.5,
            bytes_sent: 128,
            ..Default::default()
        };
        let base = report.digest();
        // Excluded: conformance recording must never change what the
        // figures consume. (The trace is built through the choreography
        // handles — the only API allowed to emit events.)
        let mut traced = report.clone();
        let mut trace = ProtocolTrace::new();
        crate::choreography::advance_only(&mut trace, 0, 0);
        traced.conformance = Some(trace);
        assert_eq!(base, traced.digest(), "conformance must be excluded");
        // Excluded: engine scheduling internals.
        let mut pumped = report.clone();
        pumped.events_processed = 12_345;
        (pumped.compute_handoffs, pumped.inline_joins) = (3124, 64);
        pumped.sweep_chunks_helped = 77;
        assert_eq!(base, pumped.digest(), "pump counters must be excluded");
        // Excluded: compression bookkeeping.
        let mut saved = report.clone();
        saved.bytes_saved = 9_876;
        assert_eq!(base, saved.digest(), "bytes_saved must be excluded");
        // Excluded: fault-plane accounting — chaos sweeps compare digests
        // across fault configurations, and the empty-plan default keeps
        // all of these at zero/empty anyway.
        let mut dropped = report.clone();
        dropped.messages_dropped = 42;
        assert_eq!(base, dropped.digest(), "messages_dropped must be excluded");
        let mut crashed = report.clone();
        crashed.crashes = 2;
        assert_eq!(base, crashed.digest(), "crashes must be excluded");
        let mut rejoined = report.clone();
        rejoined.rejoins = 2;
        assert_eq!(base, rejoined.digest(), "rejoins must be excluded");
        let mut logged = report.clone();
        logged
            .fault_log
            .push(hop_sim::FaultEvent::Crash { worker: 0, iter: 3 });
        assert_eq!(base, logged.digest(), "fault_log must be excluded");
        // Included: both outcome flags are figure-visible results.
        let mut exhausted = report.clone();
        exhausted.budget_exhausted = true;
        assert_ne!(
            base,
            exhausted.digest(),
            "budget_exhausted must be digested"
        );
        let mut dead = report.clone();
        dead.deadlocked = true;
        assert_ne!(base, dead.digest(), "deadlocked must be digested");
    }
}
