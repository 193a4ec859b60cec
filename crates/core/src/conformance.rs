//! Protocol conformance: a structured trace of protocol-level events and
//! an invariant oracle that replays it.
//!
//! The paper's correctness claims are *invariants*, not digests: the
//! bounded iteration gap of Theorems 1–2 (Table 1), the backup-worker
//! quota of Fig. 8, the bounded-staleness window of §4.4, and the §5 skip
//! rule that a straggler may never overtake its out-going neighbors. Both
//! runtimes — the deterministic [`crate::sim_runtime`] simulator and the
//! real [`crate::threaded`] runtime — emit the same [`ProtocolTrace`]
//! event stream, and the [`Oracle`] replays any such trace against a
//! `(HopConfig, Topology)` pair, reporting the first [`Violation`] it
//! finds. Because the oracle consumes only the trace, it cannot silently
//! drift with either implementation: if a runtime misbehaves, the replay
//! fails loudly with enough context to debug from the error alone.
//!
//! # Event linearization
//!
//! The simulator records events in virtual-time pump order, which is a
//! total order by construction. The threaded runtime tags each event with
//! a shared atomic sequence number following two rules that make the
//! merged order consistent with real-time causality: *grant* events
//! (update sends, token passes) take their sequence number **before** the
//! corresponding queue operation, and *observe* events (consumes, token
//! takes, iteration advances) take theirs **after** it. Any consumption
//! therefore appears after the grant that funded it, so token counts
//! never go negative in replay order and the gap bounds hold at every
//! prefix of the merged trace.
//!
//! # Serialization
//!
//! [`ProtocolTrace::to_text`] / [`ProtocolTrace::from_text`] give a
//! stable line-oriented format so an offending trace can be persisted as
//! a CI artifact and replayed offline against the oracle.

use crate::config::{ComputeOrder, HopConfig};
use crate::semantics;
use hop_graph::bounds::Bound;
use hop_graph::Topology;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// One protocol-level event, as emitted by either runtime.
///
/// Worker indices refer to the experiment's [`Topology`]; iterations are
/// the protocol's logical iteration counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// `worker` entered iteration `iter` (including the terminal entry at
    /// `max_iters`).
    Advance {
        /// Advancing worker.
        worker: usize,
        /// Iteration entered.
        iter: u64,
    },
    /// `worker` started its iteration-`iter` gradient computation.
    ComputeBegin {
        /// Computing worker.
        worker: usize,
        /// Iteration being computed.
        iter: u64,
    },
    /// `worker` finished its iteration-`iter` gradient computation.
    ComputeEnd {
        /// Computing worker.
        worker: usize,
        /// Iteration computed.
        iter: u64,
    },
    /// `from` sent its iteration-`iter` update to `to` (self-loops
    /// included).
    Send {
        /// Sending worker.
        from: usize,
        /// Receiving worker.
        to: usize,
        /// Tag iteration of the update.
        iter: u64,
    },
    /// `worker`, in its iteration `at_iter`, consumed the update tagged
    /// `(from, iter)` into a Reduce.
    Consume {
        /// Consuming worker.
        worker: usize,
        /// Sender of the consumed update.
        from: usize,
        /// Tag iteration of the consumed update.
        iter: u64,
        /// The consumer's iteration at consumption time (the Recv's `k`,
        /// or `target - 1` for a jump renew).
        at_iter: u64,
    },
    /// `worker` discarded the delivered-but-unconsumed update tagged
    /// `(from, iter)` (e.g. skipped-over iterations after a jump).
    Drop {
        /// Discarding worker.
        worker: usize,
        /// Sender of the dropped update.
        from: usize,
        /// Tag iteration of the dropped update.
        iter: u64,
    },
    /// `count` tokens became visible in `TokenQ(owner -> consumer)`.
    TokenPass {
        /// Queue owner (the consumer's out-going neighbor).
        owner: usize,
        /// Queue consumer.
        consumer: usize,
        /// Tokens granted.
        count: u64,
    },
    /// `consumer` removed `count` tokens from `TokenQ(owner -> consumer)`
    /// to advance (1 for a normal step, the jump distance for a jump).
    TokenTake {
        /// Queue owner.
        owner: usize,
        /// Queue consumer (the advancing worker).
        consumer: usize,
        /// Tokens removed.
        count: u64,
    },
    /// `worker` reduced `n_updates` parameter vectors at iteration
    /// `iter`. `renew` marks the §5 pre-jump parameter renewal
    /// (`Recv(target - 1)`), which draws from external in-neighbors plus
    /// the worker's own stale parameters.
    Reduce {
        /// Reducing worker.
        worker: usize,
        /// Iteration of the Reduce (`k`, or `target - 1` when renewing).
        iter: u64,
        /// Number of parameter vectors averaged (own included for
        /// renews).
        n_updates: usize,
        /// Whether this is a pre-jump renewal.
        renew: bool,
    },
    /// Bounded staleness: the arrival `(from, iter)` became `worker`'s
    /// newest update from `from`.
    StaleAdmit {
        /// Receiving worker.
        worker: usize,
        /// Sender.
        from: usize,
        /// Tag iteration of the admitted update.
        iter: u64,
        /// The receiver's iteration at admission time.
        at_iter: u64,
    },
    /// Bounded staleness: the arrival `(from, iter)` was already
    /// superseded by a newer update and was discarded.
    StaleReject {
        /// Receiving worker.
        worker: usize,
        /// Sender.
        from: usize,
        /// Tag iteration of the rejected update.
        iter: u64,
        /// The receiver's iteration at rejection time.
        at_iter: u64,
    },
    /// §5: `worker` decided to jump from `from_iter` to `target`, having
    /// observed `token_counts` tokens from its external out-going
    /// neighbors (in [`Topology::external_out_neighbors`] order).
    Jump {
        /// Jumping worker.
        worker: usize,
        /// Iteration the worker is leaving.
        from_iter: u64,
        /// Iteration it will enter next.
        target: u64,
        /// Observed token counts per external out-going neighbor.
        token_counts: Vec<u64>,
    },
    /// Fault plane: `worker` crashed on entering iteration `iter`. Must
    /// be licensed by a matching [`hop_sim::FaultEvent::Crash`] when
    /// checked with [`Oracle::check_with_faults`].
    Crash {
        /// Crashed worker.
        worker: usize,
        /// Iteration whose entry triggered the crash.
        iter: u64,
    },
    /// Fault plane: a crashed `worker` rejoined and will re-enter at
    /// `target` (parameters rehydrated from a live neighbor). Licenses
    /// the otherwise-illegal `Advance` to `target` that follows.
    Rejoin {
        /// Rejoining worker.
        worker: usize,
        /// Iteration the worker re-enters.
        target: u64,
    },
    /// Fault plane: the network lost the update tagged `(from, iter)` on
    /// its way to `worker`. Always paired with the preceding `Send`, so
    /// outstanding-send accounting stays balanced; must be licensed by a
    /// matching [`hop_sim::FaultEvent::Loss`].
    Lost {
        /// Intended receiver.
        worker: usize,
        /// Sender of the lost update.
        from: usize,
        /// Tag iteration of the lost update.
        iter: u64,
    },
}

impl fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolEvent::Advance { worker, iter } => write!(f, "advance w={worker} iter={iter}"),
            ProtocolEvent::ComputeBegin { worker, iter } => {
                write!(f, "compute_begin w={worker} iter={iter}")
            }
            ProtocolEvent::ComputeEnd { worker, iter } => {
                write!(f, "compute_end w={worker} iter={iter}")
            }
            ProtocolEvent::Send { from, to, iter } => {
                write!(f, "send from={from} to={to} iter={iter}")
            }
            ProtocolEvent::Consume {
                worker,
                from,
                iter,
                at_iter,
            } => write!(f, "consume w={worker} from={from} iter={iter} at={at_iter}"),
            ProtocolEvent::Drop { worker, from, iter } => {
                write!(f, "drop w={worker} from={from} iter={iter}")
            }
            ProtocolEvent::TokenPass {
                owner,
                consumer,
                count,
            } => write!(f, "token_pass owner={owner} consumer={consumer} n={count}"),
            ProtocolEvent::TokenTake {
                owner,
                consumer,
                count,
            } => write!(f, "token_take owner={owner} consumer={consumer} n={count}"),
            ProtocolEvent::Reduce {
                worker,
                iter,
                n_updates,
                renew,
            } => write!(
                f,
                "reduce w={worker} iter={iter} n={n_updates} renew={}",
                u8::from(*renew)
            ),
            ProtocolEvent::StaleAdmit {
                worker,
                from,
                iter,
                at_iter,
            } => write!(
                f,
                "stale_admit w={worker} from={from} iter={iter} at={at_iter}"
            ),
            ProtocolEvent::StaleReject {
                worker,
                from,
                iter,
                at_iter,
            } => write!(
                f,
                "stale_reject w={worker} from={from} iter={iter} at={at_iter}"
            ),
            ProtocolEvent::Jump {
                worker,
                from_iter,
                target,
                token_counts,
            } => {
                let counts: Vec<String> = token_counts.iter().map(u64::to_string).collect();
                write!(
                    f,
                    "jump w={worker} from={from_iter} target={target} tokens={}",
                    counts.join(",")
                )
            }
            ProtocolEvent::Crash { worker, iter } => write!(f, "crash w={worker} iter={iter}"),
            ProtocolEvent::Rejoin { worker, target } => {
                write!(f, "rejoin w={worker} target={target}")
            }
            ProtocolEvent::Lost { worker, from, iter } => {
                write!(f, "lost w={worker} from={from} iter={iter}")
            }
        }
    }
}

/// An ordered stream of [`ProtocolEvent`]s from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolTrace {
    events: Vec<ProtocolEvent>,
}

impl ProtocolTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: ProtocolEvent) {
        self.events.push(ev);
    }

    /// The events in linearized order.
    pub fn events(&self) -> &[ProtocolEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as one event per line (the format
    /// [`Self::from_text`] parses), suitable for persisting an offending
    /// trace as a CI artifact.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a trace serialized by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] (with the 1-based line number and the
    /// offending line's text) on any malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            events.push(parse_event(line).map_err(|why| TraceParseError {
                line: lineno + 1,
                text: line.to_string(),
                why,
            })?);
        }
        Ok(Self { events })
    }
}

/// Error from [`ProtocolTrace::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the malformed line.
    pub line: usize,
    /// The malformed line itself (trimmed), so a CI log is debuggable
    /// without re-opening the trace artifact.
    pub text: String,
    /// What was wrong with it.
    pub why: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {} `{}`: {}", self.line, self.text, self.why)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses one event line, as [`ProtocolEvent`]'s `Display` writes it.
pub(crate) fn parse_event(line: &str) -> Result<ProtocolEvent, String> {
    let mut parts = line.split_whitespace();
    let kind = parts.next().ok_or("empty line")?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for part in parts {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("field `{part}` is not key=value"))?;
        fields.insert(k, v);
    }
    let get_u64 = |key: &str| -> Result<u64, String> {
        fields
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?
            .parse::<u64>()
            .map_err(|e| format!("field `{key}`: {e}"))
    };
    let get_usize = |key: &str| -> Result<usize, String> { Ok(get_u64(key)? as usize) };
    Ok(match kind {
        "advance" => ProtocolEvent::Advance {
            worker: get_usize("w")?,
            iter: get_u64("iter")?,
        },
        "compute_begin" => ProtocolEvent::ComputeBegin {
            worker: get_usize("w")?,
            iter: get_u64("iter")?,
        },
        "compute_end" => ProtocolEvent::ComputeEnd {
            worker: get_usize("w")?,
            iter: get_u64("iter")?,
        },
        "send" => ProtocolEvent::Send {
            from: get_usize("from")?,
            to: get_usize("to")?,
            iter: get_u64("iter")?,
        },
        "consume" => ProtocolEvent::Consume {
            worker: get_usize("w")?,
            from: get_usize("from")?,
            iter: get_u64("iter")?,
            at_iter: get_u64("at")?,
        },
        "drop" => ProtocolEvent::Drop {
            worker: get_usize("w")?,
            from: get_usize("from")?,
            iter: get_u64("iter")?,
        },
        "token_pass" => ProtocolEvent::TokenPass {
            owner: get_usize("owner")?,
            consumer: get_usize("consumer")?,
            count: get_u64("n")?,
        },
        "token_take" => ProtocolEvent::TokenTake {
            owner: get_usize("owner")?,
            consumer: get_usize("consumer")?,
            count: get_u64("n")?,
        },
        "reduce" => ProtocolEvent::Reduce {
            worker: get_usize("w")?,
            iter: get_u64("iter")?,
            n_updates: get_usize("n")?,
            renew: get_u64("renew")? != 0,
        },
        "stale_admit" => ProtocolEvent::StaleAdmit {
            worker: get_usize("w")?,
            from: get_usize("from")?,
            iter: get_u64("iter")?,
            at_iter: get_u64("at")?,
        },
        "stale_reject" => ProtocolEvent::StaleReject {
            worker: get_usize("w")?,
            from: get_usize("from")?,
            iter: get_u64("iter")?,
            at_iter: get_u64("at")?,
        },
        "jump" => {
            let raw = fields.get("tokens").ok_or("missing field `tokens`")?;
            let token_counts = if raw.is_empty() {
                Vec::new()
            } else {
                raw.split(',')
                    .map(|c| c.parse::<u64>().map_err(|e| format!("token count: {e}")))
                    .collect::<Result<Vec<u64>, String>>()?
            };
            ProtocolEvent::Jump {
                worker: get_usize("w")?,
                from_iter: get_u64("from")?,
                target: get_u64("target")?,
                token_counts,
            }
        }
        "crash" => ProtocolEvent::Crash {
            worker: get_usize("w")?,
            iter: get_u64("iter")?,
        },
        "rejoin" => ProtocolEvent::Rejoin {
            worker: get_usize("w")?,
            target: get_u64("target")?,
        },
        "lost" => ProtocolEvent::Lost {
            worker: get_usize("w")?,
            from: get_usize("from")?,
            iter: get_u64("iter")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

/// What the oracle found wrong, with enough context to debug from the
/// message alone.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// The observed iteration gap between two adjacent workers exceeded
    /// its per-hop Table 1 bound.
    GapBound {
        /// The worker running ahead.
        ahead: usize,
        /// The neighbor it outran.
        behind: usize,
        /// Observed `Iter(ahead) - Iter(behind)`.
        gap: i64,
        /// The violated bound.
        bound: Bound,
    },
    /// A worker's iteration counter moved in a way no rule permits.
    IllegalAdvance {
        /// The worker.
        worker: usize,
        /// Its previous iteration.
        from: u64,
        /// The iteration it claimed to enter.
        to: u64,
    },
    /// A worker advanced without a Reduce of the iteration it completed.
    MissingReduce {
        /// The worker.
        worker: usize,
        /// The iteration entered without a preceding reduce.
        entered: u64,
        /// The iteration of its last recorded reduce, if any.
        last_reduce: Option<u64>,
    },
    /// A Reduce consumed fewer updates than the Fig. 8 quota
    /// `|Nin| - N_buw` (or more than `|Nin|`).
    QuotaViolated {
        /// The reducing worker.
        worker: usize,
        /// Iteration of the reduce.
        iter: u64,
        /// Updates consumed.
        got: usize,
        /// Minimum required.
        quota: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// A backup/standard-mode Reduce at iteration `at_iter` consumed an
    /// update tagged with a different iteration.
    TagLeak {
        /// The consuming worker.
        worker: usize,
        /// The reduce's iteration.
        at_iter: u64,
        /// Sender of the leaked update.
        from: usize,
        /// Its (mismatched) tag iteration.
        iter: u64,
    },
    /// A Reduce consumed two updates from the same sender, or from a
    /// non-neighbor.
    BadReduceSet {
        /// The reducing worker.
        worker: usize,
        /// Iteration of the reduce.
        iter: u64,
        /// What was wrong with the consumed set.
        why: String,
    },
    /// An update was consumed/admitted that was never sent (or was
    /// already consumed).
    UnknownUpdate {
        /// The consuming worker.
        worker: usize,
        /// Claimed sender.
        from: usize,
        /// Claimed tag iteration.
        iter: u64,
    },
    /// A consumed update fell outside the staleness window
    /// (`Iter(u) >= k - s`, §4.4).
    StaleWindow {
        /// The consuming worker.
        worker: usize,
        /// Sender of the over-stale update.
        from: usize,
        /// Its tag iteration.
        iter: u64,
        /// The reduce's iteration `k`.
        at_iter: u64,
        /// The staleness bound `s`.
        s: u64,
    },
    /// A staleness Reduce used an update that is not the sender's newest
    /// admitted one.
    NotNewest {
        /// The consuming worker.
        worker: usize,
        /// Sender.
        from: usize,
        /// The iteration the reduce claimed to use.
        used: u64,
        /// The newest admitted iteration, if any.
        newest: Option<u64>,
    },
    /// A token removal exceeded the tokens visible in the queue.
    TokenUnderflow {
        /// Queue owner.
        owner: usize,
        /// Queue consumer.
        consumer: usize,
        /// Tokens the consumer tried to remove.
        take: u64,
        /// Tokens actually available in replay.
        available: u64,
    },
    /// A token event on an edge with no token queue (wrong direction,
    /// non-neighbors, or tokens disabled).
    UnknownTokenEdge {
        /// Claimed owner.
        owner: usize,
        /// Claimed consumer.
        consumer: usize,
    },
    /// A jump that [`semantics::jump_decision`] does not permit for the
    /// observed token counts.
    IllegalJump {
        /// The jumping worker.
        worker: usize,
        /// Iteration it left.
        from: u64,
        /// Iteration it targeted.
        target: u64,
        /// What the decision rule allows (`None` = no jump at all).
        allowed: Option<u64>,
    },
    /// A jump target beyond an out-going neighbor's iteration — the §5
    /// "intuitive upper-bound": a straggler never overtakes its
    /// out-neighbors.
    JumpOvertakes {
        /// The jumping worker.
        worker: usize,
        /// The overtaken out-going neighbor.
        neighbor: usize,
        /// The jump target.
        target: u64,
        /// The neighbor's iteration at jump time.
        neighbor_iter: u64,
    },
    /// Compute begin/end events that do not pair up, repeat an
    /// iteration, or run at the wrong iteration.
    ComputeMismatch {
        /// The computing worker.
        worker: usize,
        /// What was inconsistent.
        why: String,
    },
    /// A Send or Reduce at an iteration other than the worker's current
    /// one.
    OutOfPlace {
        /// The worker.
        worker: usize,
        /// The event's iteration.
        iter: u64,
        /// The worker's current iteration in replay.
        current: u64,
        /// Which event was misplaced.
        what: &'static str,
    },
    /// A `Lost` event with no licensing loss in the fault log: the
    /// runtime claimed the network ate a message the fault plane never
    /// dropped.
    UnlicensedLoss {
        /// Intended receiver.
        worker: usize,
        /// Sender of the allegedly lost update.
        from: usize,
        /// Its tag iteration.
        iter: u64,
    },
    /// A `Crash`/`Rejoin` event with no licensing entry in the fault log:
    /// the runtime invented churn the fault plane never scheduled.
    UnlicensedChurn {
        /// The worker.
        worker: usize,
        /// Which churn event lacked a license (`"crash"`/`"rejoin"`).
        what: &'static str,
    },
}

/// A trace invariant violation: the first event the oracle rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the offending event in the trace.
    pub index: usize,
    /// The offending event, pre-rendered.
    pub event: String,
    /// What rule it broke.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event #{} `{}`: ", self.index, self.event)?;
        match &self.kind {
            ViolationKind::GapBound {
                ahead,
                behind,
                gap,
                bound,
            } => write!(
                f,
                "iteration gap Iter({ahead}) - Iter({behind}) = {gap} exceeds the Table 1 bound {bound}"
            ),
            ViolationKind::IllegalAdvance { worker, from, to } => write!(
                f,
                "worker {worker} advanced {from} -> {to} without a single step or a recorded jump"
            ),
            ViolationKind::MissingReduce {
                worker,
                entered,
                last_reduce,
            } => write!(
                f,
                "worker {worker} entered iteration {entered} but its last reduce was {last_reduce:?} (expected {})",
                entered.saturating_sub(1)
            ),
            ViolationKind::QuotaViolated {
                worker,
                iter,
                got,
                quota,
                max,
            } => write!(
                f,
                "worker {worker} reduced {got} updates at iteration {iter}, outside the Fig. 8 quota [{quota}, {max}]"
            ),
            ViolationKind::TagLeak {
                worker,
                at_iter,
                from,
                iter,
            } => write!(
                f,
                "worker {worker}'s iteration-{at_iter} reduce consumed a cross-iteration update (from={from}, iter={iter})"
            ),
            ViolationKind::BadReduceSet { worker, iter, why } => {
                write!(f, "worker {worker}'s iteration-{iter} reduce set is invalid: {why}")
            }
            ViolationKind::UnknownUpdate { worker, from, iter } => write!(
                f,
                "worker {worker} consumed update (from={from}, iter={iter}) that was never sent or was already consumed"
            ),
            ViolationKind::StaleWindow {
                worker,
                from,
                iter,
                at_iter,
                s,
            } => write!(
                f,
                "worker {worker} reduced update (from={from}, iter={iter}) at k={at_iter}, outside the staleness window s={s}"
            ),
            ViolationKind::NotNewest {
                worker,
                from,
                used,
                newest,
            } => write!(
                f,
                "worker {worker}'s staleness reduce used iter {used} from worker {from}, but the newest admitted is {newest:?}"
            ),
            ViolationKind::TokenUnderflow {
                owner,
                consumer,
                take,
                available,
            } => write!(
                f,
                "TokenQ({owner} -> {consumer}): removing {take} tokens with only {available} visible"
            ),
            ViolationKind::UnknownTokenEdge { owner, consumer } => {
                write!(f, "no token queue exists for edge {owner} -> {consumer}")
            }
            ViolationKind::IllegalJump {
                worker,
                from,
                target,
                allowed,
            } => write!(
                f,
                "worker {worker} jumped {from} -> {target}, but jump_decision allows {allowed:?} for the observed tokens"
            ),
            ViolationKind::JumpOvertakes {
                worker,
                neighbor,
                target,
                neighbor_iter,
            } => write!(
                f,
                "worker {worker}'s jump to {target} overtakes out-neighbor {neighbor} (at iteration {neighbor_iter})"
            ),
            ViolationKind::ComputeMismatch { worker, why } => {
                write!(f, "worker {worker} compute events inconsistent: {why}")
            }
            ViolationKind::OutOfPlace {
                worker,
                iter,
                current,
                what,
            } => write!(
                f,
                "worker {worker} recorded a {what} for iteration {iter} while at iteration {current}"
            ),
            ViolationKind::UnlicensedLoss { worker, from, iter } => write!(
                f,
                "update (from={from}, iter={iter}) to worker {worker} reported lost, but the fault log licenses no such loss"
            ),
            ViolationKind::UnlicensedChurn { worker, what } => write!(
                f,
                "worker {worker} recorded a {what} the fault log does not license"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Counters of what a successful replay actually exercised, so tests can
/// assert a trace was not vacuously empty (e.g. that a skip-mode run
/// really jumped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConformanceSummary {
    /// Total events replayed.
    pub events: usize,
    /// Iteration entries.
    pub advances: u64,
    /// Reduces (renews included).
    pub reduces: u64,
    /// Pre-jump renewal reduces.
    pub renew_reduces: u64,
    /// Updates consumed into reduces.
    pub consumed: u64,
    /// §5 jumps.
    pub jumps: u64,
    /// Tokens granted.
    pub tokens_passed: u64,
    /// Staleness-mode admissions.
    pub stale_admitted: u64,
    /// Staleness-mode rejections.
    pub stale_rejected: u64,
    /// Licensed crash events replayed.
    pub crashes: u64,
    /// Licensed rejoin events replayed.
    pub rejoins: u64,
    /// Licensed message losses replayed.
    pub messages_lost: u64,
}

/// Replays a [`ProtocolTrace`] against the invariants a
/// `(HopConfig, Topology)` pair implies.
///
/// Checks, in replay order:
///
/// * **(a) iteration gap** — after every `Advance`/`Jump` of `w`, Table 1
///   on the edges at `w`: `Iter(w) - Iter(u) <= b0` for each external
///   in-neighbor `u` (the base setting's per-hop bound, when finite) and
///   `Iter(w) - Iter(v) <= max_ig` for each external out-neighbor `v`
///   (with token queues). Every edge holds its per-hop bound exactly
///   when every ordered pair holds its [`hop_graph::bounds`] pair bound,
///   so the check keeps constant state per worker;
/// * **(b) backup quota** — every backup/standard `Reduce` consumed
///   between `|Nin| - N_buw` and `|Nin|` updates, all tagged with the
///   reduce's own iteration (no cross-iteration tag leaks), each from a
///   distinct in-neighbor, and each matching an outstanding `Send`;
/// * **(c) staleness window** — every staleness-mode `Reduce` used
///   exactly the newest admitted update per in-neighbor, all satisfying
///   [`semantics::staleness_satisfied`];
/// * **(d) jump legality** — every `Jump` agrees with
///   [`semantics::jump_decision`] on the observed token counts, stays
///   within the recorded token budget, and never overtakes an out-going
///   neighbor.
pub struct Oracle<'a> {
    cfg: &'a HopConfig,
    topology: &'a Topology,
    max_iters: u64,
}

impl<'a> Oracle<'a> {
    /// Builds an oracle for one experiment's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not a parallel-order queue-based configuration
    /// (the only family both runtimes trace) or fails validation against
    /// `topology`.
    pub fn new(cfg: &'a HopConfig, topology: &'a Topology, max_iters: u64) -> Self {
        cfg.validate(topology).expect("oracle needs a valid config");
        assert_eq!(
            cfg.order,
            ComputeOrder::Parallel,
            "the conformance oracle models the parallel order only"
        );
        Self {
            cfg,
            topology,
            max_iters,
        }
    }

    /// Replays `trace`, returning what it exercised or the first
    /// violation. Equivalent to [`Self::check_with_faults`] with an empty
    /// fault log: any `Crash`/`Rejoin`/`Lost` event in the trace is
    /// unlicensed and rejected.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] encountered, anchored to its event
    /// index.
    pub fn check(&self, trace: &ProtocolTrace) -> Result<ConformanceSummary, Violation> {
        self.check_with_faults(trace, &hop_sim::FaultLog::new())
    }

    /// Replays `trace` next to the run's [`hop_sim::FaultLog`] sidecar —
    /// the fault-aware check. The log tells the oracle which invariant
    /// breaks are *licensed*:
    ///
    /// * every `Lost` event must match a logged loss (else
    ///   [`ViolationKind::UnlicensedLoss`]), and every `Crash`/`Rejoin` a
    ///   logged churn entry (else [`ViolationKind::UnlicensedChurn`]);
    /// * a licensed `Rejoin` permits the following `Advance` straight to
    ///   the rejoin target, without the usual `+1`/reduce preconditions,
    ///   and mirrors the clamped token drain the runtime performs;
    /// * everything else — Table 1 gap bounds, backup quotas, staleness
    ///   windows, token conservation among live workers, jump legality —
    ///   must still hold under fire. A crashed worker sends and grants
    ///   nothing, so its frozen counter still bounds its neighbors: the
    ///   gap check keeps every edge, crashed endpoints included.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] encountered, anchored to its event
    /// index.
    pub fn check_with_faults(
        &self,
        trace: &ProtocolTrace,
        faults: &hop_sim::FaultLog,
    ) -> Result<ConformanceSummary, Violation> {
        let mut st = Replay::new(self.cfg, self.topology, self.max_iters, faults);
        let mut summary = ConformanceSummary {
            events: trace.len(),
            ..ConformanceSummary::default()
        };
        for (index, ev) in trace.events().iter().enumerate() {
            st.step(ev, &mut summary).map_err(|kind| Violation {
                index,
                event: ev.to_string(),
                kind,
            })?;
        }
        Ok(summary)
    }
}

/// One consumed update pending its Reduce.
struct Pending {
    from: usize,
    iter: u64,
    at_iter: u64,
}

/// Mutable replay state of one oracle pass.
struct Replay<'a> {
    cfg: &'a HopConfig,
    topology: &'a Topology,
    max_iters: u64,
    /// Logical iteration per worker: advanced eagerly at `Jump` (the
    /// runtime grants tokens for the whole jump before the renew
    /// completes, so neighbors legitimately treat the jumper as already
    /// at `target`).
    logical: Vec<u64>,
    /// Recorded (entered) iteration per worker.
    entered: Vec<u64>,
    started: Vec<bool>,
    pending_jump: Vec<Option<(u64, u64)>>,
    last_reduce: Vec<Option<u64>>,
    computing: Vec<Option<u64>>,
    last_computed: Vec<Option<u64>>,
    consumed: Vec<Vec<Pending>>,
    /// Outstanding sends: `(from, to, iter)` -> undelivered copies (a key
    /// leaves with its last copy).
    outstanding: HashMap<(usize, usize, u64), u32>,
    /// Staleness mode: newest admitted update per `(worker, from)`.
    newest: HashMap<(usize, usize), u64>,
    /// Token queues by `(owner, consumer)` edge; present iff `max_ig`.
    tokens: HashMap<(usize, usize), u64>,
    /// A licensed rejoin whose `Advance` to the target is still owed.
    rejoin_target: Vec<Option<u64>>,
    /// Licenses from the fault log: remaining loss credits per
    /// `(from, to, iter)`, and churn credits per `(worker, iter)`.
    loss_license: HashMap<(usize, usize, u64), u32>,
    crash_license: HashMap<(usize, u64), u32>,
    rejoin_license: HashMap<(usize, u64), u32>,
}

impl<'a> Replay<'a> {
    fn new(
        cfg: &'a HopConfig,
        topology: &'a Topology,
        max_iters: u64,
        faults: &hop_sim::FaultLog,
    ) -> Self {
        let n = topology.len();
        let mut tokens = HashMap::new();
        if let Some(ig) = cfg.max_ig() {
            for owner in 0..n {
                for &consumer in topology.external_in_neighbors(owner) {
                    tokens.insert((owner, consumer), ig);
                }
            }
        }
        let mut loss_license: HashMap<(usize, usize, u64), u32> = HashMap::new();
        let mut crash_license: HashMap<(usize, u64), u32> = HashMap::new();
        let mut rejoin_license: HashMap<(usize, u64), u32> = HashMap::new();
        for f in faults.events() {
            match *f {
                hop_sim::FaultEvent::Loss { from, to, iter } => {
                    *loss_license.entry((from, to, iter)).or_insert(0) += 1;
                }
                hop_sim::FaultEvent::Crash { worker, iter } => {
                    *crash_license.entry((worker, iter)).or_insert(0) += 1;
                }
                hop_sim::FaultEvent::Rejoin { worker, target, .. } => {
                    *rejoin_license.entry((worker, target)).or_insert(0) += 1;
                }
                hop_sim::FaultEvent::Byzantine { .. } => {
                    // Value corruption is invisible at the protocol-event
                    // level; nothing to license.
                }
            }
        }
        Self {
            cfg,
            topology,
            max_iters,
            logical: vec![0; n],
            entered: vec![0; n],
            started: vec![false; n],
            pending_jump: vec![None; n],
            last_reduce: vec![None; n],
            computing: vec![None; n],
            last_computed: vec![None; n],
            consumed: (0..n).map(|_| Vec::new()).collect(),
            outstanding: HashMap::new(),
            newest: HashMap::new(),
            tokens,
            rejoin_target: vec![None; n],
            loss_license,
            crash_license,
            rejoin_license,
        }
    }

    /// Gap check after `w`'s logical iteration moved up: only the edges
    /// at `w` with `w` ahead can have broken. Summing the per-hop bounds
    /// along a path gives Table 1's pair bound
    /// `min(b0 * path(j -> i), max_ig * path(i -> j))`, and adjacent
    /// workers are themselves a pair, so every edge holds its bound
    /// exactly when every ordered pair holds its pair bound.
    fn check_gaps(&self, w: usize) -> Result<(), ViolationKind> {
        let edges = [
            (
                self.cfg.base_setting().b0().finite(),
                self.topology.external_in_neighbors(w),
            ),
            (self.cfg.max_ig(), self.topology.external_out_neighbors(w)),
        ];
        for (bound, neighbors) in edges {
            let Some(bound) = bound else { continue };
            for &j in neighbors {
                let gap = self.logical[w] as i64 - self.logical[j] as i64;
                if gap > bound as i64 {
                    return Err(ViolationKind::GapBound {
                        ahead: w,
                        behind: j,
                        gap,
                        bound: Bound::Finite(bound),
                    });
                }
            }
        }
        Ok(())
    }

    fn take_send(&mut self, from: usize, to: usize, iter: u64) -> Result<(), ViolationKind> {
        match self.outstanding.entry((from, to, iter)) {
            Entry::Occupied(mut copies) => {
                *copies.get_mut() -= 1;
                if *copies.get() == 0 {
                    copies.remove();
                }
                Ok(())
            }
            Entry::Vacant(_) => Err(ViolationKind::UnknownUpdate {
                worker: to,
                from,
                iter,
            }),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        ev: &ProtocolEvent,
        summary: &mut ConformanceSummary,
    ) -> Result<(), ViolationKind> {
        match *ev {
            ProtocolEvent::Advance { worker, iter } => {
                summary.advances += 1;
                if iter > self.max_iters {
                    return Err(ViolationKind::IllegalAdvance {
                        worker,
                        from: self.entered[worker],
                        to: iter,
                    });
                }
                if !self.started[worker] {
                    if iter != 0 {
                        return Err(ViolationKind::IllegalAdvance {
                            worker,
                            from: 0,
                            to: iter,
                        });
                    }
                    self.started[worker] = true;
                } else if self.rejoin_target[worker] == Some(iter) {
                    // A licensed rejoin lands the worker directly at its
                    // rehydration target: the `prev + 1` and reduce-closure
                    // rules are suspended for exactly this one advance.
                    self.rejoin_target[worker] = None;
                    self.pending_jump[worker] = None;
                    self.last_reduce[worker] = None;
                } else {
                    let prev = self.entered[worker];
                    let jumped = self.pending_jump[worker] == Some((prev, iter));
                    if !jumped && iter != prev + 1 {
                        return Err(ViolationKind::IllegalAdvance {
                            worker,
                            from: prev,
                            to: iter,
                        });
                    }
                    if self.last_reduce[worker] != Some(iter - 1) {
                        return Err(ViolationKind::MissingReduce {
                            worker,
                            entered: iter,
                            last_reduce: self.last_reduce[worker],
                        });
                    }
                    if jumped {
                        self.pending_jump[worker] = None;
                    }
                }
                self.entered[worker] = iter;
                self.logical[worker] = self.logical[worker].max(iter);
                self.check_gaps(worker)?;
            }
            ProtocolEvent::ComputeBegin { worker, iter } => {
                if let Some(inflight) = self.computing[worker] {
                    return Err(ViolationKind::ComputeMismatch {
                        worker,
                        why: format!("begin({iter}) while iteration {inflight} is still computing"),
                    });
                }
                if iter != self.entered[worker] {
                    return Err(ViolationKind::ComputeMismatch {
                        worker,
                        why: format!("begin({iter}) while at iteration {}", self.entered[worker]),
                    });
                }
                if self.last_computed[worker].is_some_and(|last| iter <= last) {
                    return Err(ViolationKind::ComputeMismatch {
                        worker,
                        why: format!("iteration {iter} computed twice"),
                    });
                }
                self.computing[worker] = Some(iter);
            }
            ProtocolEvent::ComputeEnd { worker, iter } => {
                if self.computing[worker] != Some(iter) {
                    return Err(ViolationKind::ComputeMismatch {
                        worker,
                        why: format!(
                            "end({iter}) does not match in-flight {:?}",
                            self.computing[worker]
                        ),
                    });
                }
                self.computing[worker] = None;
                self.last_computed[worker] = Some(iter);
            }
            ProtocolEvent::Send { from, to, iter } => {
                if !self.topology.out_neighbors(from).contains(&to) {
                    return Err(ViolationKind::BadReduceSet {
                        worker: from,
                        iter,
                        why: format!("send to non-neighbor {to}"),
                    });
                }
                if iter != self.entered[from] {
                    return Err(ViolationKind::OutOfPlace {
                        worker: from,
                        iter,
                        current: self.entered[from],
                        what: "send",
                    });
                }
                *self.outstanding.entry((from, to, iter)).or_insert(0) += 1;
            }
            ProtocolEvent::Consume {
                worker,
                from,
                iter,
                at_iter,
            } => {
                summary.consumed += 1;
                if self.cfg.staleness.is_some() {
                    // Staleness mode consumes the newest *admitted* update
                    // (possibly reused across reduces).
                    let newest = self.newest.get(&(worker, from)).copied();
                    if newest != Some(iter) {
                        return Err(ViolationKind::NotNewest {
                            worker,
                            from,
                            used: iter,
                            newest,
                        });
                    }
                } else {
                    self.take_send(from, worker, iter)?;
                }
                self.consumed[worker].push(Pending {
                    from,
                    iter,
                    at_iter,
                });
            }
            ProtocolEvent::Drop { worker, from, iter } => {
                self.take_send(from, worker, iter)?;
            }
            ProtocolEvent::TokenPass {
                owner,
                consumer,
                count,
            } => {
                summary.tokens_passed += count;
                match self.tokens.get_mut(&(owner, consumer)) {
                    Some(avail) => *avail += count,
                    None => return Err(ViolationKind::UnknownTokenEdge { owner, consumer }),
                }
            }
            ProtocolEvent::TokenTake {
                owner,
                consumer,
                count,
            } => match self.tokens.get_mut(&(owner, consumer)) {
                Some(avail) if *avail >= count => *avail -= count,
                Some(avail) => {
                    return Err(ViolationKind::TokenUnderflow {
                        owner,
                        consumer,
                        take: count,
                        available: *avail,
                    })
                }
                None => return Err(ViolationKind::UnknownTokenEdge { owner, consumer }),
            },
            ProtocolEvent::StaleAdmit {
                worker,
                from,
                iter,
                at_iter: _,
            } => {
                summary.stale_admitted += 1;
                self.take_send(from, worker, iter)?;
                // An admitted arrival must be strictly newer than the
                // current newest; anything else should have been rejected.
                let newest = self.newest.get(&(worker, from)).copied();
                if newest.is_some_and(|h| iter <= h) {
                    return Err(ViolationKind::NotNewest {
                        worker,
                        from,
                        used: iter,
                        newest,
                    });
                }
                self.newest.insert((worker, from), iter);
            }
            ProtocolEvent::StaleReject {
                worker,
                from,
                iter,
                at_iter: _,
            } => {
                summary.stale_rejected += 1;
                self.take_send(from, worker, iter)?;
                // A rejected arrival must actually be superseded.
                let newest = self.newest.get(&(worker, from)).copied();
                if newest.is_none_or(|h| iter > h) {
                    return Err(ViolationKind::NotNewest {
                        worker,
                        from,
                        used: iter,
                        newest,
                    });
                }
            }
            ProtocolEvent::Reduce {
                worker,
                iter,
                n_updates,
                renew,
            } => {
                summary.reduces += 1;
                if renew {
                    summary.renew_reduces += 1;
                }
                let expected_iter = if renew {
                    match self.pending_jump[worker] {
                        Some((_, target)) => target - 1,
                        None => {
                            return Err(ViolationKind::OutOfPlace {
                                worker,
                                iter,
                                current: self.entered[worker],
                                what: "renew reduce (no jump pending)",
                            })
                        }
                    }
                } else {
                    self.entered[worker]
                };
                if iter != expected_iter {
                    return Err(ViolationKind::OutOfPlace {
                        worker,
                        iter,
                        current: expected_iter,
                        what: "reduce",
                    });
                }
                let consumed = std::mem::take(&mut self.consumed[worker]);
                // A renew reduce averages the worker's own (un-consumed)
                // parameters on top of the consumed set; otherwise the
                // recorded size must equal the consumes exactly.
                if n_updates != consumed.len() + usize::from(renew) {
                    return Err(ViolationKind::BadReduceSet {
                        worker,
                        iter,
                        why: format!(
                            "reduce claims {n_updates} updates but {} were consumed",
                            consumed.len()
                        ),
                    });
                }
                self.check_reduce_set(worker, iter, renew, &consumed)?;
                self.last_reduce[worker] = Some(iter);
            }
            ProtocolEvent::Jump {
                worker,
                from_iter,
                target,
                ref token_counts,
            } => {
                summary.jumps += 1;
                let skip = self.cfg.skip.as_ref().ok_or(ViolationKind::IllegalJump {
                    worker,
                    from: from_iter,
                    target,
                    allowed: None,
                })?;
                let max_ig = self.cfg.max_ig().expect("skip implies tokens (validated)");
                if from_iter != self.entered[worker] || target > self.max_iters {
                    return Err(ViolationKind::IllegalAdvance {
                        worker,
                        from: self.entered[worker],
                        to: target,
                    });
                }
                let outs = self.topology.external_out_neighbors(worker);
                if token_counts.len() != outs.len() {
                    return Err(ViolationKind::IllegalJump {
                        worker,
                        from: from_iter,
                        target,
                        allowed: None,
                    });
                }
                // Observed counts can lag (delayed visibility) but never
                // exceed what was actually granted.
                for (o, &observed) in outs.iter().zip(token_counts) {
                    let actual = self.tokens[&(*o, worker)];
                    if observed > actual {
                        return Err(ViolationKind::TokenUnderflow {
                            owner: *o,
                            consumer: worker,
                            take: observed,
                            available: actual,
                        });
                    }
                }
                let jump = target - from_iter;
                let allowed = semantics::jump_decision(token_counts, max_ig, skip);
                if !(2..=allowed.unwrap_or(0)).contains(&jump) {
                    return Err(ViolationKind::IllegalJump {
                        worker,
                        from: from_iter,
                        target,
                        allowed,
                    });
                }
                // §5's "intuitive upper-bound": never overtake an
                // out-going neighbor.
                for &o in outs {
                    if target > self.logical[o] {
                        return Err(ViolationKind::JumpOvertakes {
                            worker,
                            neighbor: o,
                            target,
                            neighbor_iter: self.logical[o],
                        });
                    }
                }
                self.pending_jump[worker] = Some((from_iter, target));
                self.logical[worker] = self.logical[worker].max(target);
                self.check_gaps(worker)?;
            }
            ProtocolEvent::Crash { worker, iter } => {
                summary.crashes += 1;
                match self.crash_license.get_mut(&(worker, iter)) {
                    Some(count) if *count > 0 => *count -= 1,
                    _ => {
                        return Err(ViolationKind::UnlicensedChurn {
                            worker,
                            what: "crash",
                        })
                    }
                }
                // In-flight compute and the consume set die with the
                // worker; its never-closed reduce is forgiven at rejoin.
                self.computing[worker] = None;
                self.consumed[worker].clear();
                self.pending_jump[worker] = None;
            }
            ProtocolEvent::Rejoin { worker, target } => {
                summary.rejoins += 1;
                match self.rejoin_license.get_mut(&(worker, target)) {
                    Some(count) if *count > 0 => *count -= 1,
                    _ => {
                        return Err(ViolationKind::UnlicensedChurn {
                            worker,
                            what: "rejoin",
                        })
                    }
                }
                self.rejoin_target[worker] = Some(target);
                // The crash fires at iteration entry, *before* the doomed
                // iteration's `ComputeBegin` (mid-iteration crash: the
                // worker enters, sends, begins compute, then the engine
                // discards the completion). That in-flight compute died
                // with the worker — forget it, or the revived worker's
                // first `ComputeBegin` would look nested.
                self.computing[worker] = None;
                self.consumed[worker].clear();
                // Mirror the engine's token drain: skipping from
                // `entered` to `target` spends exactly `target - entered`
                // grants per outgoing edge. A deficit means the engine
                // revived the worker on credit — the exact overdraft that
                // lets a rejoiner overtake the gap bound.
                let catchup = target.saturating_sub(self.entered[worker]);
                for &o in self.topology.external_out_neighbors(worker) {
                    if let Some(avail) = self.tokens.get_mut(&(o, worker)) {
                        if *avail < catchup {
                            return Err(ViolationKind::TokenUnderflow {
                                owner: o,
                                consumer: worker,
                                take: catchup,
                                available: *avail,
                            });
                        }
                        *avail -= catchup;
                    }
                }
            }
            ProtocolEvent::Lost { worker, from, iter } => {
                summary.messages_lost += 1;
                self.take_send(from, worker, iter)?;
                match self.loss_license.get_mut(&(from, worker, iter)) {
                    Some(count) if *count > 0 => *count -= 1,
                    _ => return Err(ViolationKind::UnlicensedLoss { worker, from, iter }),
                }
            }
        }
        Ok(())
    }

    /// Validates the consumed-update set closed by one Reduce.
    fn check_reduce_set(
        &self,
        worker: usize,
        iter: u64,
        renew: bool,
        consumed: &[Pending],
    ) -> Result<(), ViolationKind> {
        let mut seen: Vec<usize> = Vec::with_capacity(consumed.len());
        for c in consumed {
            if c.at_iter != iter {
                return Err(ViolationKind::OutOfPlace {
                    worker,
                    iter: c.at_iter,
                    current: iter,
                    what: "consume",
                });
            }
            if seen.contains(&c.from) {
                return Err(ViolationKind::BadReduceSet {
                    worker,
                    iter,
                    why: format!("two updates from sender {}", c.from),
                });
            }
            seen.push(c.from);
        }
        let allowed: &[usize] = if renew {
            self.topology.external_in_neighbors(worker)
        } else {
            self.topology.in_neighbors(worker)
        };
        for c in consumed {
            if !allowed.contains(&c.from) {
                return Err(ViolationKind::BadReduceSet {
                    worker,
                    iter,
                    why: format!("update from non-in-neighbor {}", c.from),
                });
            }
        }
        if let Some(s) = self.cfg.staleness {
            // (c) the staleness window, against exactly the newest update
            // per in-neighbor.
            for c in consumed {
                if !semantics::staleness_satisfied(c.iter, iter, s) {
                    return Err(ViolationKind::StaleWindow {
                        worker,
                        from: c.from,
                        iter: c.iter,
                        at_iter: iter,
                        s,
                    });
                }
            }
            if seen.len() != allowed.len() {
                return Err(ViolationKind::BadReduceSet {
                    worker,
                    iter,
                    why: format!(
                        "staleness reduce used {} of {} in-neighbors",
                        seen.len(),
                        allowed.len()
                    ),
                });
            }
        } else {
            // (b) the Fig. 8 quota, with no cross-iteration tag leaks.
            for c in consumed {
                if c.iter != iter {
                    return Err(ViolationKind::TagLeak {
                        worker,
                        at_iter: iter,
                        from: c.from,
                        iter: c.iter,
                    });
                }
            }
            let (quota, max) = if renew {
                let ext = allowed.len();
                (semantics::renew_quota(ext, self.cfg.n_backup), ext)
            } else {
                let in_deg = self.topology.in_degree(worker);
                (semantics::backup_quota(in_deg, self.cfg.n_backup), in_deg)
            };
            if consumed.len() < quota || consumed.len() > max {
                return Err(ViolationKind::QuotaViolated {
                    worker,
                    iter,
                    got: consumed.len(),
                    quota,
                    max,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkipConfig;

    fn ring4() -> Topology {
        Topology::ring(4)
    }

    /// A hand-built legal standard-mode trace on a 2-worker line:
    /// both workers run 2 iterations in lockstep.
    fn legal_standard_trace() -> ProtocolTrace {
        let mut t = ProtocolTrace::new();
        for w in 0..2 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
            t.push(ProtocolEvent::Send {
                from: w,
                to: w,
                iter: 0,
            });
            t.push(ProtocolEvent::Send {
                from: w,
                to: 1 - w,
                iter: 0,
            });
            t.push(ProtocolEvent::ComputeBegin { worker: w, iter: 0 });
        }
        for w in 0..2 {
            t.push(ProtocolEvent::ComputeEnd { worker: w, iter: 0 });
            t.push(ProtocolEvent::Consume {
                worker: w,
                from: w,
                iter: 0,
                at_iter: 0,
            });
            t.push(ProtocolEvent::Consume {
                worker: w,
                from: 1 - w,
                iter: 0,
                at_iter: 0,
            });
            t.push(ProtocolEvent::Reduce {
                worker: w,
                iter: 0,
                n_updates: 2,
                renew: false,
            });
            t.push(ProtocolEvent::Advance { worker: w, iter: 1 });
        }
        t
    }

    fn two_ring() -> Topology {
        Topology::ring(2)
    }

    #[test]
    fn legal_trace_passes() {
        let cfg = HopConfig::standard();
        let topo = two_ring();
        let oracle = Oracle::new(&cfg, &topo, 1);
        let summary = oracle.check(&legal_standard_trace()).expect("legal");
        assert_eq!(summary.advances, 4);
        assert_eq!(summary.reduces, 2);
        assert_eq!(summary.consumed, 4);
    }

    #[test]
    fn consume_without_send_is_flagged() {
        let cfg = HopConfig::standard();
        let topo = two_ring();
        let mut t = ProtocolTrace::new();
        t.push(ProtocolEvent::Advance { worker: 0, iter: 0 });
        t.push(ProtocolEvent::Consume {
            worker: 0,
            from: 1,
            iter: 0,
            at_iter: 0,
        });
        let v = Oracle::new(&cfg, &topo, 1).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::UnknownUpdate { .. }), "{v}");
    }

    #[test]
    fn tag_leak_is_flagged() {
        // Backup mode on a 4-ring (quota 2 of in-degree 3): worker 1
        // legally completes iteration 0 and sends its iteration-1 update;
        // worker 0 then smuggles that future-tagged update into its
        // iteration-0 reduce.
        let cfg = HopConfig::backup(1, 4);
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
            t.push(ProtocolEvent::Send {
                from: w,
                to: w,
                iter: 0,
            });
        }
        t.push(ProtocolEvent::Send {
            from: 0,
            to: 1,
            iter: 0,
        });
        for from in [1usize, 0] {
            t.push(ProtocolEvent::Consume {
                worker: 1,
                from,
                iter: 0,
                at_iter: 0,
            });
        }
        t.push(ProtocolEvent::Reduce {
            worker: 1,
            iter: 0,
            n_updates: 2,
            renew: false,
        });
        t.push(ProtocolEvent::Advance { worker: 1, iter: 1 });
        t.push(ProtocolEvent::Send {
            from: 1,
            to: 0,
            iter: 1,
        });
        for (from, iter) in [(0usize, 0u64), (1, 1)] {
            t.push(ProtocolEvent::Consume {
                worker: 0,
                from,
                iter,
                at_iter: 0,
            });
        }
        t.push(ProtocolEvent::Reduce {
            worker: 0,
            iter: 0,
            n_updates: 2,
            renew: false,
        });
        let v = Oracle::new(&cfg, &topo, 5).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::TagLeak { .. }), "{v}");
    }

    #[test]
    fn quota_underflow_is_flagged() {
        let cfg = HopConfig::backup(1, 4);
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
            t.push(ProtocolEvent::Send {
                from: w,
                to: w,
                iter: 0,
            });
        }
        // in_deg = 3, n_backup = 1 => quota 2; consuming only 1 must fail.
        t.push(ProtocolEvent::Consume {
            worker: 0,
            from: 0,
            iter: 0,
            at_iter: 0,
        });
        t.push(ProtocolEvent::Reduce {
            worker: 0,
            iter: 0,
            n_updates: 1,
            renew: false,
        });
        let v = Oracle::new(&cfg, &topo, 5).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::QuotaViolated { .. }), "{v}");
    }

    #[test]
    fn gap_bound_violation_is_flagged() {
        // Backup mode makes the per-reduce rules loose (quota 2 of 3 on a
        // 4-ring) so workers 0, 1, 2 can legally run forever on each
        // other's updates while worker 3 stays at iteration 0. Only the
        // token bound `max_ig * path` caps the pair gap — a runtime that
        // never takes tokens (this forged trace records none) must be
        // caught by the gap rule at iteration max_ig + 1.
        let cfg = HopConfig::backup(1, 5);
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
        }
        let v = 'outer: {
            for k in 0..7u64 {
                for w in [0usize, 1, 2] {
                    t.push(ProtocolEvent::Send {
                        from: w,
                        to: w,
                        iter: k,
                    });
                }
                t.push(ProtocolEvent::Send {
                    from: 1,
                    to: 0,
                    iter: k,
                });
                t.push(ProtocolEvent::Send {
                    from: 1,
                    to: 2,
                    iter: k,
                });
                t.push(ProtocolEvent::Send {
                    from: 2,
                    to: 1,
                    iter: k,
                });
                for (w, peer) in [(0usize, 1usize), (1, 2), (2, 1)] {
                    for from in [w, peer] {
                        t.push(ProtocolEvent::Consume {
                            worker: w,
                            from,
                            iter: k,
                            at_iter: k,
                        });
                    }
                    t.push(ProtocolEvent::Reduce {
                        worker: w,
                        iter: k,
                        n_updates: 2,
                        renew: false,
                    });
                    t.push(ProtocolEvent::Advance {
                        worker: w,
                        iter: k + 1,
                    });
                }
                if let Err(v) = Oracle::new(&cfg, &topo, 20).check(&t) {
                    break 'outer v;
                }
            }
            panic!("gap bound never fired");
        };
        assert!(matches!(v.kind, ViolationKind::GapBound { .. }), "{v}");
        // The bound that fired is the token bound over the idle worker.
        if let ViolationKind::GapBound { behind, gap, .. } = v.kind {
            assert_eq!(behind, 3);
            assert_eq!(gap, 6, "max_ig = 5 admits a gap of 5, not 6");
        }
    }

    #[test]
    fn token_underflow_is_flagged() {
        let cfg = HopConfig::standard_with_tokens(2);
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        t.push(ProtocolEvent::TokenTake {
            owner: 1,
            consumer: 0,
            count: 3,
        });
        let v = Oracle::new(&cfg, &topo, 5).check(&t).unwrap_err();
        assert!(
            matches!(v.kind, ViolationKind::TokenUnderflow { .. }),
            "{v}"
        );
    }

    #[test]
    fn illegal_jump_is_flagged() {
        let cfg = HopConfig::backup(1, 2).with_skip(SkipConfig::with_max_jump(5));
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
        }
        // Tokens observed = max_ig (2) on both edges: behind = 0, no jump
        // allowed.
        t.push(ProtocolEvent::Jump {
            worker: 0,
            from_iter: 0,
            target: 2,
            token_counts: vec![2, 2],
        });
        let v = Oracle::new(&cfg, &topo, 5).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::IllegalJump { .. }), "{v}");
    }

    #[test]
    fn overtaking_jump_is_flagged() {
        let cfg = HopConfig::backup(1, 2).with_skip(SkipConfig::with_max_jump(8));
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
        }
        // Forge token grants so the decision rule would allow the jump,
        // while the neighbors' recorded iterations stay at 0.
        for o in [1usize, 3] {
            t.push(ProtocolEvent::TokenPass {
                owner: o,
                consumer: 0,
                count: 4,
            });
        }
        t.push(ProtocolEvent::Jump {
            worker: 0,
            from_iter: 0,
            target: 4,
            token_counts: vec![6, 6],
        });
        let v = Oracle::new(&cfg, &topo, 10).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::JumpOvertakes { .. }), "{v}");
    }

    #[test]
    fn staleness_window_violation_is_flagged() {
        // s = 1 without tokens: worker 0's neighbors park at iteration 0.
        // Their iteration-0 updates satisfy the window at k = 0 and k = 1,
        // but consuming them again at k = 2 must trip the window rule.
        let cfg = HopConfig {
            staleness: Some(1),
            ..HopConfig::standard()
        };
        let topo = ring4();
        let mut t = ProtocolTrace::new();
        for w in 0..4 {
            t.push(ProtocolEvent::Advance { worker: w, iter: 0 });
        }
        for from in [1usize, 3] {
            t.push(ProtocolEvent::Send {
                from,
                to: 0,
                iter: 0,
            });
        }
        for k in 0..3u64 {
            t.push(ProtocolEvent::Send {
                from: 0,
                to: 0,
                iter: k,
            });
            t.push(ProtocolEvent::StaleAdmit {
                worker: 0,
                from: 0,
                iter: k,
                at_iter: k,
            });
            if k == 0 {
                for from in [1usize, 3] {
                    t.push(ProtocolEvent::StaleAdmit {
                        worker: 0,
                        from,
                        iter: 0,
                        at_iter: 0,
                    });
                }
            }
            for from in [0usize, 1, 3] {
                t.push(ProtocolEvent::Consume {
                    worker: 0,
                    from,
                    iter: if from == 0 { k } else { 0 },
                    at_iter: k,
                });
            }
            t.push(ProtocolEvent::Reduce {
                worker: 0,
                iter: k,
                n_updates: 3,
                renew: false,
            });
            t.push(ProtocolEvent::Advance {
                worker: 0,
                iter: k + 1,
            });
        }
        let v = Oracle::new(&cfg, &topo, 5).check(&t).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::StaleWindow { .. }), "{v}");
        if let ViolationKind::StaleWindow { at_iter, iter, .. } = v.kind {
            assert_eq!((iter, at_iter), (0, 2));
        }
    }

    #[test]
    fn serialization_round_trips() {
        let mut t = legal_standard_trace();
        t.push(ProtocolEvent::TokenPass {
            owner: 0,
            consumer: 1,
            count: 3,
        });
        t.push(ProtocolEvent::Jump {
            worker: 1,
            from_iter: 1,
            target: 3,
            token_counts: vec![5, 7],
        });
        t.push(ProtocolEvent::StaleReject {
            worker: 0,
            from: 1,
            iter: 2,
            at_iter: 3,
        });
        t.push(ProtocolEvent::Drop {
            worker: 0,
            from: 1,
            iter: 2,
        });
        t.push(ProtocolEvent::Crash { worker: 1, iter: 4 });
        t.push(ProtocolEvent::Rejoin {
            worker: 1,
            target: 6,
        });
        t.push(ProtocolEvent::Lost {
            worker: 0,
            from: 1,
            iter: 2,
        });
        let text = t.to_text();
        let back = ProtocolTrace::from_text(&text).expect("parses");
        assert_eq!(t, back);
    }

    /// The legal 2-worker trace with worker 1 crashing after its last
    /// advance, plus one of worker 0's sends to it declared lost.
    fn faulted_trace() -> ProtocolTrace {
        let mut t = legal_standard_trace();
        t.push(ProtocolEvent::Crash { worker: 1, iter: 1 });
        t.push(ProtocolEvent::Send {
            from: 0,
            to: 1,
            iter: 1,
        });
        t.push(ProtocolEvent::Lost {
            worker: 1,
            from: 0,
            iter: 1,
        });
        t
    }

    #[test]
    fn licensed_faults_pass_and_are_counted() {
        let cfg = HopConfig::standard();
        let topo = two_ring();
        let mut log = hop_sim::FaultLog::new();
        log.push(hop_sim::FaultEvent::Crash { worker: 1, iter: 1 });
        log.push(hop_sim::FaultEvent::Loss {
            from: 0,
            to: 1,
            iter: 1,
        });
        let summary = Oracle::new(&cfg, &topo, 2)
            .check_with_faults(&faulted_trace(), &log)
            .expect("licensed faults are legal");
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.messages_lost, 1);
        assert_eq!(summary.rejoins, 0);
    }

    #[test]
    fn unlicensed_crash_is_flagged() {
        let cfg = HopConfig::standard();
        let topo = two_ring();
        let mut t = legal_standard_trace();
        t.push(ProtocolEvent::Crash { worker: 1, iter: 1 });
        let v = Oracle::new(&cfg, &topo, 2).check(&t).unwrap_err();
        assert!(
            matches!(
                v.kind,
                ViolationKind::UnlicensedChurn {
                    worker: 1,
                    what: "crash"
                }
            ),
            "{v}"
        );
    }

    #[test]
    fn unlicensed_loss_is_flagged() {
        let cfg = HopConfig::standard();
        let topo = two_ring();
        // Only the crash is licensed; the loss is not.
        let mut log = hop_sim::FaultLog::new();
        log.push(hop_sim::FaultEvent::Crash { worker: 1, iter: 1 });
        let v = Oracle::new(&cfg, &topo, 2)
            .check_with_faults(&faulted_trace(), &log)
            .unwrap_err();
        assert!(
            matches!(
                v.kind,
                ViolationKind::UnlicensedLoss {
                    worker: 1,
                    from: 0,
                    iter: 1
                }
            ),
            "{v}"
        );
    }

    #[test]
    fn licensed_rejoin_resumes_at_target() {
        // Backup mode (quota 1 of in-degree 2): worker 1 crashes at
        // iteration 1, worker 0 keeps completing iterations alone, and
        // worker 1 rejoins landing directly on the rehydration target —
        // legal only because the rejoin suspends the +1 progression and
        // reduce-closure rules for exactly one advance.
        let cfg = HopConfig::backup(1, 8);
        let topo = two_ring();
        let mut t = legal_standard_trace();
        t.push(ProtocolEvent::Crash { worker: 1, iter: 1 });
        for iter in 1..3 {
            solo_iteration(&mut t, 0, iter);
        }
        t.push(ProtocolEvent::Rejoin {
            worker: 1,
            target: 3,
        });
        t.push(ProtocolEvent::Advance { worker: 1, iter: 3 });
        let mut log = hop_sim::FaultLog::new();
        log.push(hop_sim::FaultEvent::Crash { worker: 1, iter: 1 });
        log.push(hop_sim::FaultEvent::Rejoin {
            worker: 1,
            target: 3,
            donor: 0,
        });
        let summary = Oracle::new(&cfg, &topo, 4)
            .check_with_faults(&t, &log)
            .expect("licensed churn cycle is legal");
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.rejoins, 1);
    }

    /// One complete backup-mode iteration of `w` with its only live
    /// in-neighbor being itself: send everywhere, compute, consume the
    /// self-update, reduce with n = quota = 1, and advance.
    fn solo_iteration(t: &mut ProtocolTrace, w: usize, iter: u64) {
        t.push(ProtocolEvent::Send {
            from: w,
            to: w,
            iter,
        });
        t.push(ProtocolEvent::Send {
            from: w,
            to: 1 - w,
            iter,
        });
        t.push(ProtocolEvent::ComputeBegin { worker: w, iter });
        t.push(ProtocolEvent::ComputeEnd { worker: w, iter });
        t.push(ProtocolEvent::Consume {
            worker: w,
            from: w,
            iter,
            at_iter: iter,
        });
        t.push(ProtocolEvent::Reduce {
            worker: w,
            iter,
            n_updates: 1,
            renew: false,
        });
        t.push(ProtocolEvent::Advance {
            worker: w,
            iter: iter + 1,
        });
    }

    #[test]
    fn crashed_workers_still_bound_their_neighbors() {
        // A crashed worker grants no tokens, so its frozen counter keeps
        // bounding its neighbors: with worker 1 down at iteration 1,
        // worker 0 may run `max_ig = 2` ahead of it, and its third
        // iteration past the crash breaks the bound, crash or not.
        let cfg = HopConfig::backup(1, 2);
        let topo = two_ring();
        let ahead = |iters: u64, crash: bool| {
            let mut t = legal_standard_trace();
            if crash {
                t.push(ProtocolEvent::Crash { worker: 1, iter: 1 });
            }
            for iter in 1..=iters {
                solo_iteration(&mut t, 0, iter);
            }
            t
        };
        let mut log = hop_sim::FaultLog::new();
        log.push(hop_sim::FaultEvent::Crash { worker: 1, iter: 1 });
        let oracle = Oracle::new(&cfg, &topo, 16);
        oracle
            .check_with_faults(&ahead(2, true), &log)
            .expect("a gap of max_ig over the frozen counter is legal");
        let crashed = oracle.check_with_faults(&ahead(3, true), &log);
        for v in [crashed, oracle.check(&ahead(3, false))] {
            let v = v.unwrap_err();
            assert!(
                matches!(
                    v.kind,
                    ViolationKind::GapBound {
                        ahead: 0,
                        behind: 1,
                        gap: 3,
                        bound: Bound::Finite(2)
                    }
                ),
                "{v}"
            );
        }
    }

    #[test]
    fn edge_checks_accept_exactly_the_table_1_pair_bounds() {
        // Random iteration vectors: the per-edge check (run at every
        // worker) must accept exactly when every ordered pair satisfies
        // the closed forms of `hop_graph::bounds` over shortest paths.
        use hop_graph::bounds::BaseSetting;
        use hop_graph::ShortestPaths;
        let topologies = [
            Topology::ring(7),
            Topology::ring_based(8),
            Topology::torus(3, 3),
            Topology::expander(9, 4, 5),
            Topology::complete(5),
            Topology::from_edges(5, &[(0, 4), (4, 3), (3, 2), (2, 1), (1, 0), (0, 2)]),
        ];
        let bases = [
            (BaseSetting::Standard, None, 0),
            (BaseSetting::BoundedStaleness(2), Some(2), 0),
            (BaseSetting::BackupWorkers, None, 1),
            (BaseSetting::Hybrid, Some(2), 1),
        ];
        let settings: Vec<(BaseSetting, HopConfig)> = [None, Some(1), Some(3)]
            .into_iter()
            .flat_map(|max_ig| {
                bases.map(|(base, staleness, n_backup)| {
                    let cfg = HopConfig {
                        staleness,
                        n_backup,
                        sync: crate::config::SyncMode::Queues { max_ig },
                        ..HopConfig::standard()
                    };
                    (base, cfg)
                })
            })
            .collect();
        let mut rng = hop_util::rng::Xoshiro256::seed_from_u64(49);
        let (mut accepted, mut rejected) = (0, 0);
        let faults = hop_sim::FaultLog::new();
        for topo in &topologies {
            let sp = ShortestPaths::new(topo);
            let n = topo.len();
            for (base, cfg) in &settings {
                assert_eq!(cfg.base_setting(), *base);
                let pair = |i: usize, j: usize| match cfg.max_ig() {
                    Some(ig) => base.pair_bound_with_tokens(ig, sp.dist(j, i), sp.dist(i, j)),
                    None => base.pair_bound(sp.dist(j, i)),
                };
                let mut st = Replay::new(cfg, topo, 100, &faults);
                for _ in 0..300 {
                    let spread = rng.next_below(7);
                    for it in &mut st.logical {
                        *it = 10 + rng.next_below(spread + 1);
                    }
                    let edges_ok = (0..n).all(|w| st.check_gaps(w).is_ok());
                    let pairs_ok = (0..n).all(|i| {
                        (0..n).all(|j| {
                            i == j || pair(i, j).admits(st.logical[i] as i64 - st.logical[j] as i64)
                        })
                    });
                    assert_eq!(
                        edges_ok,
                        pairs_ok,
                        "{base:?} max_ig {:?} on {topo:?} at {:?}",
                        cfg.max_ig(),
                        st.logical
                    );
                    if edges_ok {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(
            accepted > 1000 && rejected > 1000,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = ProtocolTrace::from_text("advance w=0 iter=0\nbogus_kind x=1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.text, "bogus_kind x=1");
        assert!(format!("{err}").contains("bogus_kind"));
        let err = ProtocolTrace::from_text("advance w=zero iter=0\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn corrupted_multi_line_trace_pinpoints_the_bad_line() {
        // A realistic round-trip corruption: serialize a real trace, then
        // garble one line in the middle. The error must carry both the
        // 1-based line number of the damage and the damaged text itself.
        let trace = crate::choreography::reference_trace(3, 2);
        let text = trace.to_text();
        let n_lines = text.lines().count();
        assert!(n_lines > 10, "reference trace too small for this test");
        let bad_index = n_lines / 2;
        let corrupted: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                if i == bad_index {
                    // Damage the key=value structure, keeping the kind.
                    format!("{}\n", line.replace('=', "~"))
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let err = ProtocolTrace::from_text(&corrupted).unwrap_err();
        assert_eq!(err.line, bad_index + 1);
        assert_eq!(err.text, corrupted.lines().nth(bad_index).unwrap().trim());
        let shown = format!("{err}");
        assert!(
            shown.contains(&format!("line {}", bad_index + 1)) && shown.contains(&err.text),
            "{shown}"
        );
        // Undamaged text still round-trips.
        let reparsed = ProtocolTrace::from_text(&text).expect("clean trace parses");
        assert_eq!(reparsed.events(), trace.events());
    }

    #[test]
    fn violation_display_is_debuggable() {
        let v = Violation {
            index: 7,
            event: "reduce w=1 iter=3 n=1 renew=0".to_string(),
            kind: ViolationKind::QuotaViolated {
                worker: 1,
                iter: 3,
                got: 1,
                quota: 2,
                max: 3,
            },
        };
        let s = format!("{v}");
        assert!(s.contains("event #7"), "{s}");
        assert!(s.contains("quota [2, 3]"), "{s}");
    }
}
