//! The multi-process runtime: Hop's queue-based protocol across OS
//! *processes* over localhost TCP, speaking the [`hop_wire`]
//! length-prefixed frame format.
//!
//! A [`ProcessExperiment`] plays coordinator: it binds a listener,
//! re-execs the worker binary (`hop_worker --worker <addr> <id>`) once
//! per worker, hands each its spec text and peer ports, and collects one
//! [`Message::Summary`] per worker at the end. Workers connect to each
//! other directly — one TCP connection per directed external edge
//! `w -> o`, carrying `w`'s updates one way and `o`'s token grants the
//! other — and drive the one worker iteration loop (`crate::worker`,
//! shared with [`crate::threaded`]) over the socket transport defined
//! here. Outbound, delivering an update is one encoded frame fanned out
//! to the out-links and a token grant is a frame on an in-link. After
//! set-up a worker process runs one thread: its sockets are
//! non-blocking, a write the kernel cannot take whole keeps its tail in
//! the link's buffer, and whenever the loop waits — for its quota of
//! updates, the next staleness-mode arrival, or a token — the transport
//! pumps every link (`poll(2)`, one read per readable link, frames
//! decoded in place, unsent tails flushed) into the worker's own tagged
//! inbox and `TokenQ(o -> w)` counters until the wait is satisfied. No
//! write can block the loop, so two peers writing at each other cannot
//! deadlock. A wait first polls without blocking a few times, yielding
//! the core in between, and only then parks.
//!
//! # Wire accounting
//!
//! An update frame embeds its [`CompressedBlock`] in exactly
//! [`CompressedBlock::encoded_bytes`] payload bytes, and a worker counts
//! every *attempted* external send (exactly like the simulator's charge
//! to its virtual network), so the summed
//! [`RuntimeReport::update_wire_bytes`] equals the simulator's
//! `bytes_sent` for the same grid point by construction — the number is
//! measured on a real socket, not modeled.
//!
//! # Conformance
//!
//! Each worker stamps its events with a Lamport clock (a local counter
//! bumped on every emission and max-merged with the clock carried by
//! every incoming frame), so causally ordered cross-process events have
//! strictly ordered stamps. The coordinator merges the per-worker
//! stamped logs into one [`ProtocolTrace`] that replays through the
//! [`crate::conformance::Oracle`] exactly like the sim and threaded
//! traces.
//!
//! # Failure semantics
//!
//! Everything fails closed. The spec a worker receives is validated key
//! by key and against its own topology before anything runs; a rejected
//! spec comes back as a typed summary error, not a panic.
//!
//! Links close by handshake. A finished worker floods its final tokens,
//! writes `Finished` on every link, half-closes it (`shutdown(Write)`)
//! once that is flushed, and keeps pumping every link until the peer's
//! own `Finished` arrives (bounded by `stall_timeout`) before the
//! process exits: exiting with unread frames in a receive buffer resets
//! the connection, and the reset can destroy that very `Finished` in the
//! peer's buffer. The pump gives each link its verdict — the peer
//! finished, or the link broke (EOF without `Finished`, a read error, a
//! corrupt or unexpected frame) — and the first broken link fails the
//! wait in progress and every later transport call, naming the peer. A
//! write error is classified by reading that link once: a late token
//! grant to a peer that finished first is benign, while a peer that died
//! mid-run surfaces as a peer loss naming it, not as a bare I/O string
//! or a stall. The coordinator turns missing summaries into
//! [`ProcessError::PeerLost`] and — when
//! [`ProcessExperiment::failure_label`] is set — serializes the partial
//! merged trace to `target/conformance-failures/<label>.trace` for
//! offline replay.

use crate::choreography::{self, t, ChoreographySpec, EventKind, SeqSink, Transition};
use crate::config::{ComputeOrder, ConfigError, HopConfig, SkipConfig, SyncMode};
use crate::conformance::{ProtocolEvent, ProtocolTrace};
use crate::report::RuntimeReport;
use crate::semantics::StalenessWeighting;
use crate::sim_runtime::compression::CompressionPlane;
use crate::threaded::ThreadedError;
use crate::trainer::Hyper;
use crate::worker::{worker_loop, Transport, WorkerJob, WorkerOutcome};
use hop_data::webspam::SyntheticWebspam;
use hop_data::Dataset;
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::Model;
use hop_queue::tagged::{Tag, TagFilter, TaggedEntry};
use hop_queue::TaggedQueue;
use hop_sim::FaultPlan;
use hop_tensor::{BufferPool, CompressedBlock, CompressionConfig, ParamBlock};
use hop_wire::{read_message, write_message, Message, WireError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The process runtime's transition table: the full grammar minus the
/// fault plane — a real dead process cannot be choreographed as a
/// polite `Crash` event; it surfaces as a connection error instead.
pub const PROCESS_TRANSITIONS: &[Transition] = &[
    t("Reduced", EventKind::Advance, "Idle"),
    t("Idle", EventKind::Send, "Idle"),
    t("Idle", EventKind::ComputeBegin, "Computing"),
    t("Computing", EventKind::ComputeEnd, "Exchanging"),
    t("Exchanging", EventKind::Send, "Exchanging"),
    t("Exchanging", EventKind::Consume, "Exchanging"),
    t("Exchanging", EventKind::Reduce, "Reduced"),
    t("Reduced", EventKind::TokenTake, "Reduced"),
    t("Reduced", EventKind::Jump, "Renewing"),
    t("Renewing", EventKind::TokenTake, "Renewing"),
    t("Renewing", EventKind::Consume, "Renewing"),
    t("Renewing", EventKind::RenewReduce, "Reduced"),
    t("*", EventKind::TokenPass, "*"),
    t("*", EventKind::StaleAdmit, "*"),
    t("*", EventKind::StaleReject, "*"),
    t("*", EventKind::Drop, "*"),
];

/// The declared choreography of the process runtime: the threaded
/// grammar without churn (crashes are connection failures here, not
/// protocol events).
pub const CHOREOGRAPHY: ChoreographySpec = ChoreographySpec {
    protocol: "process",
    states: choreography::STATES,
    transitions: PROCESS_TRANSITIONS,
    tokens: true,
    staleness: true,
    jumps: true,
    churn: false,
};

/// Error from the process runtime's coordinator half.
#[derive(Debug)]
pub enum ProcessError {
    /// The configuration is invalid for the topology.
    Config(ConfigError),
    /// The configuration names a feature the process runtime does not
    /// implement (serial order, NOTIFY-ACK).
    Unsupported(&'static str),
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
    /// One or more workers died without sending a final summary —
    /// killed, crashed, or wedged past the summary deadline. Survivors'
    /// partial traces are merged and (with a failure label set) written
    /// to `target/conformance-failures/`.
    PeerLost {
        /// `(worker, why its summary never arrived)` for every lost
        /// worker.
        failures: Vec<(usize, String)>,
    },
    /// A worker finished the session but reported a protocol failure
    /// (stall, peer loss, corrupt frame) instead of a result.
    WorkerFailed {
        /// The failing worker.
        worker: usize,
        /// The worker's own error description.
        error: String,
    },
    /// The merged event log did not parse back into a trace.
    Protocol(String),
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Config(e) => write!(f, "invalid config: {e}"),
            ProcessError::Unsupported(what) => {
                write!(f, "process runtime does not support {what}")
            }
            ProcessError::Io { context, error } => write!(f, "{context}: {error}"),
            ProcessError::Wire { context, error } => write!(f, "{context}: {error}"),
            ProcessError::Handshake(why) => write!(f, "worker handshake failed: {why}"),
            ProcessError::PeerLost { failures } => {
                write!(f, "lost worker process(es):")?;
                for (w, why) in failures {
                    write!(f, " [{w}: {why}]")?;
                }
                Ok(())
            }
            ProcessError::WorkerFailed { worker, error } => {
                write!(f, "worker {worker} failed: {error}")
            }
            ProcessError::Protocol(why) => write!(f, "merged trace is malformed: {why}"),
        }
    }
}

impl std::error::Error for ProcessError {}

impl From<ConfigError> for ProcessError {
    fn from(e: ConfigError) -> Self {
        ProcessError::Config(e)
    }
}

/// A process-per-worker decentralized training run over localhost TCP.
///
/// The workload is the conformance suite's synthetic webspam SVM,
/// reconstructed identically on each worker from `(examples,
/// data_seed)` — a model cannot be shipped through a socket, but its
/// recipe can.
#[derive(Debug, Clone)]
pub struct ProcessExperiment {
    /// Protocol configuration (parallel order, queue-based sync).
    pub config: HopConfig,
    /// Communication graph.
    pub topology: Topology,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Master seed (parameter init and batch sampling, shared with the
    /// other runtimes).
    pub seed: u64,
    /// Optimizer hyperparameters.
    pub hyper: Hyper,
    /// Synthetic-webspam examples per worker dataset.
    pub examples: usize,
    /// Synthetic-webspam generator seed.
    pub data_seed: u64,
    /// Artificial per-iteration sleep (simulating compute).
    pub compute_sleep: Duration,
    /// Makes one worker a deterministic straggler: `(worker, factor)`
    /// multiplies its `compute_sleep`.
    pub slow_worker: Option<(usize, u32)>,
    /// Timeout for any single blocking queue operation in a worker
    /// before declaring a stall.
    pub stall_timeout: Duration,
    /// The worker binary to re-exec (`hop_worker`; tests use
    /// `env!("CARGO_BIN_EXE_hop_worker")`, the smoke mode uses
    /// `std::env::current_exe()`).
    pub worker_bin: PathBuf,
    /// Fault hook: `(worker, iter)` makes that worker `exit(101)` at the
    /// given iteration entry — no `Finished`, no summary — so tests can
    /// exercise the peer-loss path deterministically.
    pub die_at: Option<(usize, u64)>,
    /// When set and the run fails, the partial merged trace is written
    /// to `target/conformance-failures/<label>.trace`.
    pub failure_label: Option<String>,
}

impl ProcessExperiment {
    /// An experiment with the conformance suite's defaults; override
    /// fields as needed.
    #[must_use]
    pub fn new(config: HopConfig, topology: Topology, max_iters: u64, worker_bin: PathBuf) -> Self {
        Self {
            config,
            topology,
            max_iters,
            seed: 17,
            hyper: Hyper::svm(),
            examples: 96,
            data_seed: 5,
            compute_sleep: Duration::ZERO,
            slow_worker: None,
            stall_timeout: Duration::from_secs(20),
            worker_bin,
            die_at: None,
            failure_label: None,
        }
    }

    /// Runs the experiment with one OS process per worker.
    ///
    /// # Errors
    ///
    /// [`ProcessError::Config`] / [`ProcessError::Unsupported`] for bad
    /// configurations, [`ProcessError::Handshake`] when the fleet never
    /// assembles, [`ProcessError::PeerLost`] when a worker process dies
    /// mid-run, and [`ProcessError::WorkerFailed`] when a worker
    /// reports a protocol failure (e.g. a stall) in its summary.
    pub fn run(&self) -> Result<RuntimeReport, ProcessError> {
        Ok(self.run_inner(false)?.0)
    }

    /// [`Self::run`] with conformance recording: also returns the
    /// Lamport-merged [`ProtocolTrace`], ready for
    /// [`crate::conformance::Oracle::check`].
    ///
    /// # Errors
    ///
    /// Exactly [`Self::run`]'s errors, plus [`ProcessError::Protocol`]
    /// if the merged event log fails to parse.
    pub fn run_traced(&self) -> Result<(RuntimeReport, ProtocolTrace), ProcessError> {
        let (report, trace) = self.run_inner(true)?;
        Ok((report, trace.expect("tracing was enabled")))
    }

    fn run_inner(
        &self,
        traced: bool,
    ) -> Result<(RuntimeReport, Option<ProtocolTrace>), ProcessError> {
        self.config.validate(&self.topology)?;
        if self.config.order != ComputeOrder::Parallel {
            return Err(ProcessError::Unsupported("the serial compute order"));
        }
        if self.config.sync == SyncMode::NotifyAck {
            return Err(ProcessError::Unsupported("NOTIFY-ACK synchronization"));
        }
        let n = self.topology.len();
        let (listener, addr) = TcpListener::bind(("127.0.0.1", 0))
            .and_then(|listener| Ok((listener.local_addr()?, listener)))
            .map(|(addr, listener)| (listener, addr))
            .map_err(|error| ProcessError::Io {
                context: "bind coordinator listener",
                error,
            })?;
        let start = Instant::now();
        let mut children = Fleet(Vec::with_capacity(n));
        for w in 0..n {
            let child = Command::new(&self.worker_bin)
                .arg("--worker")
                .arg(addr.to_string())
                .arg(w.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|error| ProcessError::Io {
                    context: "spawn worker process",
                    error,
                })?;
            children.0.push(child);
        }
        // Accept and identify the whole fleet, watching for children that
        // die before saying hello.
        let ids: Vec<usize> = (0..n).collect();
        let handshake_deadline = Instant::now() + Duration::from_secs(60);
        let mut conns = accept_hellos(&listener, &ids, handshake_deadline, |slots| {
            for (w, child) in children.0.iter_mut().enumerate() {
                if let (None, Ok(Some(status))) = (&slots[w], child.try_wait()) {
                    return Err(format!("worker {w} exited during handshake ({status})"));
                }
            }
            Ok(())
        })
        .map_err(ProcessError::Handshake)?;
        // Hand every worker its spec and the listener ports of its
        // update receivers, then let the fleet run.
        for w in 0..n {
            let peers: Vec<(u32, u16)> = self
                .topology
                .external_out_neighbors(w)
                .iter()
                .map(|&o| (o as u32, conns[o].1))
                .collect();
            let spec = Message::Spec {
                text: self.spec_text(w, traced),
            };
            let stream = &mut conns[w].0;
            write_message(stream, &spec)
                .and_then(|_| write_message(stream, &Message::Peers { peers }))
                .map_err(|error| ProcessError::Wire {
                    context: "send worker spec and peer table",
                    error,
                })?;
        }
        // Collect one summary per worker within a budget derived from
        // the run's own knobs; a missing summary is a lost peer.
        let slow = self.slow_worker.map_or(1, |(_, f)| f.max(1));
        let iter_cap = u32::try_from(self.max_iters.min(100_000)).expect("capped");
        let budget =
            self.compute_sleep * slow * iter_cap + self.stall_timeout * 4 + Duration::from_secs(30);
        let deadline = Instant::now() + budget;
        // Per-worker stamped event logs (empty for a worker that never
        // reported), the report as it fills in worker order, lost workers,
        // and the first worker that reported a protocol failure.
        let mut logs = vec![String::new(); n];
        let mut report = RuntimeReport::default();
        let mut failures: Vec<(usize, String)> = Vec::new();
        let mut failed: Option<(usize, String)> = None;
        for (w, (stream, _)) in conns.iter_mut().enumerate() {
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(10));
            stream.set_read_timeout(Some(remaining)).ok();
            match read_message(stream) {
                Ok(Message::Summary {
                    worker,
                    ok,
                    error,
                    update_wire_bytes,
                    final_params,
                    losses,
                    events_text,
                }) if worker as usize == w => {
                    logs[w] = events_text;
                    report.final_params.push(final_params);
                    report.losses.push(losses);
                    report.update_wire_bytes.push(update_wire_bytes);
                    if !ok {
                        failed.get_or_insert((w, error));
                    }
                }
                Ok(other) => {
                    failures.push((w, format!("sent {other:?} instead of its summary")));
                }
                Err(e) => failures.push((w, e.to_string())),
            }
        }
        drop(children); // reap the fleet before reporting
        report.elapsed = start.elapsed();
        let merged_text = traced.then(|| merge_stamped_events(&logs)).transpose()?;
        if !failures.is_empty() || failed.is_some() {
            if let (Some(label), Some(text)) = (&self.failure_label, &merged_text) {
                let dir = std::path::Path::new("target/conformance-failures");
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join(format!("{label}.trace")), text);
            }
        }
        if !failures.is_empty() {
            return Err(ProcessError::PeerLost { failures });
        }
        if let Some((worker, error)) = failed {
            return Err(ProcessError::WorkerFailed { worker, error });
        }
        let trace = merged_text
            .map(|text| {
                ProtocolTrace::from_text(&text).map_err(|e| ProcessError::Protocol(e.to_string()))
            })
            .transpose()?;
        Ok((report, trace))
    }

    /// The text `key=value` specification shipped to worker `w`. Floats
    /// travel as hex bit patterns so both sides compute on identical
    /// values.
    fn spec_text(&self, w: usize, traced: bool) -> String {
        let cfg = &self.config;
        let opt = |v: Option<u64>| v.map_or_else(|| "none".to_string(), |x| x.to_string());
        let hex = |v: f32| format!("{:08x}", v.to_bits());
        let edges: Vec<String> = self
            .topology
            .external_edges()
            .iter()
            .map(|(u, v)| format!("{u}>{v}"))
            .collect();
        let sleep = match self.slow_worker {
            Some((slow, factor)) if slow == w => self.compute_sleep * factor,
            _ => self.compute_sleep,
        };
        let fields = [
            ("w", w.to_string()),
            ("n", self.topology.len().to_string()),
            ("max_iters", self.max_iters.to_string()),
            ("seed", self.seed.to_string()),
            ("edges", edges.join(";")),
            ("max_ig", opt(cfg.max_ig())),
            ("n_backup", cfg.n_backup.to_string()),
            ("staleness", opt(cfg.staleness)),
            (
                "skip",
                cfg.skip.as_ref().map_or_else(
                    || "none".into(),
                    |s| format!("{}:{}", s.max_jump, s.trigger_behind),
                ),
            ),
            ("send_inquiry", opt(cfg.send_inquiry.map(u64::from))),
            (
                "weighting",
                match cfg.staleness_weighting {
                    StalenessWeighting::Linear => "linear".into(),
                    StalenessWeighting::Uniform => "uniform".into(),
                    StalenessWeighting::Exponential { decay } => format!("exp:{}", hex(decay)),
                },
            ),
            (
                "compression",
                match cfg.compression {
                    CompressionConfig::Identity => "identity".into(),
                    CompressionConfig::TopK { ratio } => format!("topk:{}", hex(ratio)),
                    CompressionConfig::Int8Uniform => "int8".into(),
                },
            ),
            ("lr", hex(self.hyper.lr)),
            ("momentum", hex(self.hyper.momentum)),
            ("weight_decay", hex(self.hyper.weight_decay)),
            ("batch_size", self.hyper.batch_size.to_string()),
            ("examples", self.examples.to_string()),
            ("data_seed", self.data_seed.to_string()),
            ("sleep_us", sleep.as_micros().to_string()),
            ("stall_ms", self.stall_timeout.as_millis().to_string()),
            ("traced", u8::from(traced).to_string()),
            (
                "die_at",
                opt(self.die_at.and_then(|(dw, iter)| (dw == w).then_some(iter))),
            ),
        ];
        fields.iter().fold(String::new(), |mut out, (key, value)| {
            let _ = writeln!(out, "{key}={value}");
            out
        })
    }
}

/// The worker fleet, killed and reaped on drop so no code path leaks
/// child processes (a worker that already exited ignores the kill).
struct Fleet(Vec<Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Merges the per-worker `<stamp> <event>` logs into one event-per-line
/// text, ordered by Lamport stamp (ties broken by worker order, which
/// keeps the merge deterministic).
fn merge_stamped_events(logs: &[String]) -> Result<String, ProcessError> {
    let mut lines: Vec<(u64, usize, &str)> = Vec::new();
    for (idx, log) in logs.iter().enumerate() {
        for line in log.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (stamp, rest) = line.split_once(' ').ok_or_else(|| {
                ProcessError::Protocol(format!("worker {idx} sent unstamped event `{line}`"))
            })?;
            let stamp: u64 = stamp.parse().map_err(|e| {
                ProcessError::Protocol(format!("worker {idx} sent bad stamp `{line}`: {e}"))
            })?;
            lines.push((stamp, idx, rest));
        }
    }
    lines.sort_by_key(|&(stamp, idx, _)| (stamp, idx));
    Ok(lines
        .iter()
        .fold(String::new(), |out, (_, _, line)| out + line + "\n"))
}

/// Accepts connections on `listener` until every worker id in `expected`
/// has identified itself with a [`Message::Hello`], returning the
/// `(stream, advertised port)` pairs in `expected` order. Ids outside
/// `expected` and repeated ids are rejected. `idle` runs whenever no
/// connection is pending, with the slots filled so far, and at least
/// every `IDLE_EVERY` while none arrives.
fn accept_hellos(
    listener: &TcpListener,
    expected: &[usize],
    deadline: Instant,
    mut idle: impl FnMut(&[Option<(TcpStream, u16)>]) -> Result<(), String>,
) -> Result<Vec<(TcpStream, u16)>, String> {
    /// How long a quiet listener waits before `idle` looks again (the
    /// coordinator's check for a worker that died before its hello).
    const IDLE_EVERY: Duration = Duration::from_millis(50);
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("poll listener: {e}"))?;
    let mut slots: Vec<Option<(TcpStream, u16)>> = expected.iter().map(|_| None).collect();
    while slots.iter().any(Option::is_none) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("configure accepted socket: {e}"))?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let (id, port) = match read_message(&mut stream) {
                    Ok(Message::Hello { worker, port }) => (worker as usize, port),
                    Ok(other) => return Err(format!("expected a hello, got {other:?}")),
                    Err(e) => return Err(format!("bad hello: {e}")),
                };
                let slot = expected
                    .iter()
                    .position(|&x| x == id)
                    .ok_or_else(|| format!("hello from unexpected worker {id}"))?;
                if slots[slot].is_some() {
                    return Err(format!("two hellos from worker {id}"));
                }
                stream.set_read_timeout(None).ok();
                slots[slot] = Some((stream, port));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    let missing: Vec<usize> = expected
                        .iter()
                        .zip(&slots)
                        .filter_map(|(&id, slot)| slot.is_none().then_some(id))
                        .collect();
                    return Err(format!("timed out waiting for workers {missing:?}"));
                }
                idle(&slots)?;
                let mut pending = [sys::poll_fd(listener, sys::POLLIN)];
                sys::wait(&mut pending, left.min(IDLE_EVERY))
                    .map_err(|e| format!("poll listener: {e}"))?;
            }
            Err(e) => return Err(format!("accept connection: {e}")),
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

// ---------------------------------------------------------------------------
// Worker half
// ---------------------------------------------------------------------------

/// Everything a worker needs to run its half of the experiment, parsed
/// and validated from the coordinator's spec text.
#[derive(Debug, PartialEq)]
struct WorkerSpec {
    w: usize,
    topology: Topology,
    max_iters: u64,
    seed: u64,
    cfg: HopConfig,
    hyper: Hyper,
    examples: usize,
    data_seed: u64,
    compute_sleep: Duration,
    stall_timeout: Duration,
    traced: bool,
    die_at: Option<u64>,
}

/// A float shipped as its hex bit pattern.
fn hex_f32(raw: &str, what: &str) -> Result<f32, String> {
    u32::from_str_radix(raw, 16)
        .map(f32::from_bits)
        .map_err(|e| format!("spec `{what}`: {e}"))
}

impl WorkerSpec {
    /// Parses the spec text, failing closed: unknown, repeated or missing
    /// keys, out-of-range ids and sizes, and a config that does not
    /// validate against the shipped topology are all rejected with a
    /// message naming the offending key.
    #[allow(clippy::too_many_lines)]
    fn parse(text: &str) -> Result<Self, String> {
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("spec line `{line}` is not key=value"))?;
            if fields.insert(k, v).is_some() {
                return Err(format!("spec repeats `{k}`"));
            }
        }
        // Every key is taken exactly once; whatever is left over at the
        // end is a key this parser does not know.
        let fields = RefCell::new(fields);
        let get = |key: &str| -> Result<&str, String> {
            fields
                .borrow_mut()
                .remove(key)
                .ok_or_else(|| format!("spec is missing `{key}`"))
        };
        let parse_u64 = |key: &str, raw: &str| -> Result<u64, String> {
            raw.parse::<u64>().map_err(|e| format!("spec `{key}`: {e}"))
        };
        let get_u64 = |key: &str| parse_u64(key, get(key)?);
        let get_opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match get(key)? {
                "none" => Ok(None),
                raw => parse_u64(key, raw).map(Some),
            }
        };
        let get_usize = |key: &str| -> Result<usize, String> {
            usize::try_from(get_u64(key)?).map_err(|e| format!("spec `{key}`: {e}"))
        };
        let get_positive = |key: &str| -> Result<usize, String> {
            match get_usize(key)? {
                0 => Err(format!("spec `{key}` must be positive")),
                v => Ok(v),
            }
        };
        let n = get_positive("n")?;
        let w = get_usize("w")?;
        if w >= n {
            return Err(format!("spec `w`={w} is out of range for n={n}"));
        }
        let mut edges = Vec::new();
        for part in get("edges")?.split(';').filter(|p| !p.is_empty()) {
            let endpoints = part
                .split_once('>')
                .and_then(|(u, v)| Some((u.parse::<usize>().ok()?, v.parse::<usize>().ok()?)));
            match endpoints {
                Some((u, v)) if u < n && v < n => edges.push((u, v)),
                Some(_) => return Err(format!("spec edge `{part}` is out of range for n={n}")),
                None => return Err(format!("spec edge `{part}` is not u>v")),
            }
        }
        let topology = Topology::from_edges(n, &edges);
        let skip = match get("skip")? {
            "none" => None,
            raw => {
                let (j, b) = raw
                    .split_once(':')
                    .ok_or_else(|| format!("spec `skip`=`{raw}` is not max_jump:trigger"))?;
                Some(SkipConfig {
                    max_jump: parse_u64("skip", j)?,
                    trigger_behind: parse_u64("skip", b)?,
                })
            }
        };
        let send_inquiry = match get("send_inquiry")? {
            "none" => None,
            "0" => Some(false),
            "1" => Some(true),
            other => return Err(format!("spec `send_inquiry`=`{other}` is not none/0/1")),
        };
        let staleness_weighting = match get("weighting")? {
            "linear" => StalenessWeighting::Linear,
            "uniform" => StalenessWeighting::Uniform,
            raw => match raw.strip_prefix("exp:") {
                Some(bits) => StalenessWeighting::Exponential {
                    decay: hex_f32(bits, "weighting")?,
                },
                None => return Err(format!("spec has unknown `weighting`=`{raw}`")),
            },
        };
        let compression = match get("compression")? {
            "identity" => CompressionConfig::Identity,
            "int8" => CompressionConfig::Int8Uniform,
            raw => match raw.strip_prefix("topk:") {
                Some(bits) => CompressionConfig::TopK {
                    ratio: hex_f32(bits, "compression")?,
                },
                None => return Err(format!("spec has unknown `compression`=`{raw}`")),
            },
        };
        let cfg = HopConfig {
            order: ComputeOrder::Parallel,
            sync: SyncMode::Queues {
                max_ig: get_opt_u64("max_ig")?,
            },
            n_backup: get_usize("n_backup")?,
            staleness: get_opt_u64("staleness")?,
            skip,
            send_inquiry,
            staleness_weighting,
            compression,
        };
        cfg.validate(&topology)
            .map_err(|e| format!("spec config is invalid for its topology: {e}"))?;
        let spec = WorkerSpec {
            w,
            topology,
            max_iters: get_u64("max_iters")?,
            seed: get_u64("seed")?,
            cfg,
            hyper: Hyper {
                lr: hex_f32(get("lr")?, "lr")?,
                momentum: hex_f32(get("momentum")?, "momentum")?,
                weight_decay: hex_f32(get("weight_decay")?, "weight_decay")?,
                batch_size: get_positive("batch_size")?,
            },
            examples: get_positive("examples")?,
            data_seed: get_u64("data_seed")?,
            compute_sleep: Duration::from_micros(get_u64("sleep_us")?),
            stall_timeout: Duration::from_millis(get_u64("stall_ms")?),
            traced: get_u64("traced")? != 0,
            die_at: get_opt_u64("die_at")?,
        };
        let unknown = fields.borrow().keys().min().copied();
        match unknown {
            Some(k) => Err(format!("spec has unknown key `{k}`")),
            None => Ok(spec),
        }
    }
}

/// `poll(2)`, the one readiness call the worker's pump needs and std
/// does not wrap.
#[cfg(unix)]
mod sys {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    pub(super) const POLLIN: i16 = 0x1;
    pub(super) const POLLOUT: i16 = 0x4;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: i16,
        pub(super) revents: i16,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Interest in `events` on `socket`.
    pub(super) fn poll_fd(socket: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Blocks until one of `fds` is ready or `timeout` (rounded up to a
    /// whole millisecond) passes, and fills in every `revents`. A signal
    /// ends the wait early, as if nothing were ready.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        let nfds = Nfds::try_from(fds.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd`s and `nfds` is its length, so poll(2) reads and
        // writes only inside it and keeps no pointer to it after it
        // returns. An `fd` that is no longer open comes back as POLLNVAL;
        // it cannot make the call touch other memory.
        if unsafe { poll(fds.as_mut_ptr(), nfds, ms) } >= 0 {
            return Ok(());
        }
        match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            e => Err(e),
        }
    }
}

/// Without `poll(2)` every requested event is reported after a short
/// nap; the non-blocking calls that follow find out which were real.
#[cfg(not(unix))]
mod sys {
    use std::io;
    use std::time::Duration;

    pub(super) const POLLIN: i16 = 0x1;
    pub(super) const POLLOUT: i16 = 0x4;

    pub(super) struct PollFd {
        events: i16,
        pub(super) revents: i16,
    }

    pub(super) fn poll_fd<S>(_socket: &S, events: i16) -> PollFd {
        PollFd { events, revents: 0 }
    }

    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for fd in fds {
            fd.revents = fd.events;
        }
        Ok(())
    }
}

/// Empty pump rounds — a `poll` that does not block, then
/// `thread::yield_now` — a wait makes before it parks in a blocking
/// `poll`. In steady state the frame a worker waits for is this close:
/// catching it here spares both processes a sleep and a wake-up, and
/// yielding leaves the core to whoever is about to send it. Chosen from
/// the perf ledger's `proc_ring4_int8` on a 2-core host (worker
/// iterations per second, median of 4 runs; 42.9 k with a reader thread
/// per link): 0 rounds 51.6 k, 5 → 73.0 k, 20 → 79.3 k, 50 → 79.6 k,
/// 200 → 74.8 k.
const SPIN_ROUNDS: u32 = 20;

/// Free space a link's read buffer keeps for the next `read`: one read
/// takes in every small frame the kernel holds, a large frame arrives
/// over several.
const READ_CHUNK: usize = 64 * 1024;

/// Which frames a link carries to this worker.
#[allow(clippy::large_enum_variant)] // a few per worker, set up once
enum Inbound {
    /// An out-link `w -> o`: `o`'s grants into `TokenQ(o -> w)`.
    Tokens,
    /// An in-link `u -> w`: `u`'s updates, compressed ones reconstructed
    /// through this worker's mirror of `u`'s reference stream.
    Updates {
        plane: CompressionPlane,
        /// The mirror's buffers: a reconstruction the worker has consumed
        /// and dropped is the next one's storage.
        pool: BufferPool,
    },
}

/// One non-blocking TCP connection to a peer. On an out-link `w -> o`
/// this worker writes update frames and reads `o`'s token grants; on an
/// in-link `u -> w` it reads `u`'s updates and writes token grants back.
struct Link {
    peer: usize,
    stream: TcpStream,
    inbound: Inbound,
    /// Bytes read so far; `read[decoded..filled]` is not a whole frame
    /// yet.
    read: Vec<u8>,
    decoded: usize,
    filled: usize,
    /// Frame bytes the kernel has not taken yet, from `out[sent..]`.
    out: Vec<u8>,
    sent: usize,
    /// The peer said `Finished`: nothing more will arrive.
    finished: bool,
    /// This worker writes nothing more here: its own `Finished` is out
    /// and the link half-closed, or the peer finished and left.
    shut: bool,
    /// The link failed (the transport keeps why): neither read nor
    /// written again.
    broken: bool,
}

impl Link {
    fn new(peer: usize, stream: TcpStream, inbound: Inbound) -> Result<Link, String> {
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("configure peer socket: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Link {
            peer,
            stream,
            inbound,
            read: Vec::new(),
            decoded: 0,
            filled: 0,
            out: Vec::new(),
            sent: 0,
            finished: false,
            shut: false,
            broken: false,
        })
    }

    fn reading(&self) -> bool {
        !self.finished && !self.broken
    }

    fn writing(&self) -> bool {
        !self.out.is_empty() && !self.broken
    }

    /// Queues `frame` behind any bytes still unsent and writes what the
    /// kernel takes now. Never waits: the pump flushes the rest.
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.shut || self.broken {
            return Ok(());
        }
        if !self.out.is_empty() {
            self.out.extend_from_slice(frame);
            return self.flush();
        }
        let n = match (&self.stream).write(frame) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
            Err(e) => return Err(e),
        };
        self.out.extend_from_slice(&frame[n..]);
        Ok(())
    }

    /// Writes as much unsent output as the kernel takes now.
    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match (&self.stream).write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(())
    }

    /// One `read` into the buffer behind the undecoded bytes; `Ok(0)` is
    /// EOF.
    fn read_once(&mut self) -> io::Result<usize> {
        if self.read.len() - self.filled < READ_CHUNK {
            self.read.copy_within(self.decoded..self.filled, 0);
            self.filled -= self.decoded;
            self.decoded = 0;
            if self.read.len() < self.filled + READ_CHUNK {
                self.read.resize(self.filled + READ_CHUNK, 0);
            }
        }
        let n = (&self.stream).read(&mut self.read[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// What EOF now means, as [`read_message`] would have said it.
    fn eof(&self) -> WireError {
        match &self.read[self.decoded..self.filled] {
            [] => WireError::Closed,
            unread => WireError::Truncated {
                expected: unread
                    .first_chunk::<4>()
                    .map_or(4, |&prefix| 4 + u32::from_le_bytes(prefix) as usize),
                got: unread.len(),
            },
        }
    }

    /// Once this worker's `Finished` is queued: half-closes the link as
    /// soon as it is flushed, and says whether it is settled — shut with
    /// the peer's `Finished` in, or broken.
    fn settle(&mut self) -> bool {
        if !self.shut && !self.broken && self.out.is_empty() {
            let _ = self.stream.shutdown(Shutdown::Write);
            self.shut = true;
        }
        self.broken || (self.shut && self.finished)
    }
}

/// The socket [`Transport`]: one [`Link`] per directed external edge,
/// and no thread but the worker's own. Whenever the loop waits, the
/// transport pumps every link — reads what arrived into the inbox and
/// the token counts, flushes what is still unsent — until the wait is
/// satisfied, a link fails, or the wait times out.
struct SocketTransport<'a> {
    w: usize,
    /// Fault hook (see [`ProcessExperiment::die_at`]).
    die_at: Option<u64>,
    /// Bound on the teardown drain (`stall_timeout`).
    patience: Duration,
    /// Lamport clock, shared with the event sink.
    clock: &'a AtomicU64,
    /// The worker's self-sends and every update its in-links carried.
    inbox: TaggedQueue<ParamBlock>,
    /// `TokenQ(o -> w)` per out-link (empty without `max_ig`).
    tokens: Vec<u64>,
    /// Out-links in [`Topology::external_out_neighbors`] order, then
    /// in-links in [`Topology::external_in_neighbors`] order.
    links: Vec<Link>,
    out_links: usize,
    /// Parameters every update decodes to.
    dim: usize,
    /// The first link failure, naming the peer. Every later call fails
    /// with it.
    failure: Option<String>,
    /// The pump's `poll` set, and the link each entry watches.
    fds: Vec<sys::PollFd>,
    polled: Vec<usize>,
    dense_scratch: CompressedBlock,
    frame: Vec<u8>,
    /// Block payload bytes of every *attempted* external send.
    wire_bytes: u64,
}

impl<'a> SocketTransport<'a> {
    /// Worker `w`'s transport over `links`, the first `out_links` of them
    /// its out-links, for `dim`-parameter updates; no token queues, no
    /// fault hook and no teardown patience until set.
    fn new(w: usize, clock: &'a AtomicU64, links: Vec<Link>, out_links: usize, dim: usize) -> Self {
        SocketTransport {
            w,
            die_at: None,
            patience: Duration::ZERO,
            clock,
            inbox: TaggedQueue::unbounded(),
            tokens: Vec::new(),
            links,
            out_links,
            dim,
            failure: None,
            fds: Vec::new(),
            polled: Vec::new(),
            dense_scratch: CompressedBlock::Dense { values: Vec::new() },
            frame: Vec::new(),
            wire_bytes: 0,
        }
    }

    fn failed(&self) -> Result<(), String> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// Records why link `i` failed (the first failure of the run is the
    /// one reported) and stops using the link.
    fn fail(&mut self, i: usize, why: impl std::fmt::Display) {
        let link = &mut self.links[i];
        link.broken = true;
        let peer = link.peer;
        self.failure
            .get_or_insert_with(|| format!("peer link to worker {peer}: {why}"));
    }

    /// Writes the encoded `frame` to link `i`.
    fn send_frame(&mut self, i: usize) {
        if let Err(e) = self.links[i].send(&self.frame) {
            self.write_failed(i, &e);
        }
    }

    /// A write to link `i` failed, and only the peer's side of the link
    /// says what that means: read it once. A peer that said `Finished`
    /// has since left on its own, so the rest of what this worker writes
    /// there is dropped (the simulator likewise keeps charging sends to
    /// finished workers — delivery is the receiver's problem); otherwise
    /// the peer is lost.
    fn write_failed(&mut self, i: usize, e: &io::Error) {
        self.read_link(i);
        let link = &mut self.links[i];
        link.out.clear();
        link.sent = 0;
        link.shut = true;
        if !link.finished {
            let peer = link.peer;
            self.fail(i, format_args!("writing to worker {peer}: {e}"));
        }
    }

    /// Pumps until `ready` holds (asked before every round), a link
    /// fails, or `timeout` passes; says whether `ready` came to hold.
    /// The first [`SPIN_ROUNDS`] rounds that move nothing do not block.
    fn wait(&mut self, timeout: Duration, mut ready: impl FnMut(&mut Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut spins = 0;
        loop {
            if ready(self) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if self.failure.is_some() || left.is_zero() {
                return false;
            }
            if spins < SPIN_ROUNDS {
                if !self.pump(Duration::ZERO) {
                    spins += 1;
                    std::thread::yield_now();
                }
            } else {
                self.pump(left);
            }
        }
    }

    /// One pump round: waits up to `timeout` for a link with something to
    /// read (until the peer's `Finished`) or room for its unsent output,
    /// then reads each readable link once and flushes each writable one.
    /// Says whether any bytes moved.
    fn pump(&mut self, timeout: Duration) -> bool {
        self.fds.clear();
        self.polled.clear();
        for (i, link) in self.links.iter().enumerate() {
            let events = (if link.reading() { sys::POLLIN } else { 0 })
                | (if link.writing() { sys::POLLOUT } else { 0 });
            if events != 0 {
                self.fds.push(sys::poll_fd(&link.stream, events));
                self.polled.push(i);
            }
        }
        if let Err(e) = sys::wait(&mut self.fds, timeout) {
            self.failure
                .get_or_insert_with(|| format!("polling peer links: {e}"));
            return false;
        }
        let mut moved = false;
        for j in 0..self.polled.len() {
            let (i, ready) = (self.polled[j], self.fds[j].revents);
            // An error or a hang-up is reported whatever was asked for;
            // the read or write it wakes says which.
            if ready & !sys::POLLOUT != 0 {
                moved |= self.read_link(i);
            }
            if ready & !sys::POLLIN != 0 && self.links[i].writing() {
                moved = true;
                if let Err(e) = self.links[i].flush() {
                    self.write_failed(i, &e);
                }
            }
        }
        moved
    }

    /// Reads link `i` once (if it is still being read) and takes in every
    /// whole frame it has. EOF before the peer's `Finished` is a peer
    /// loss. Says whether anything arrived.
    fn read_link(&mut self, i: usize) -> bool {
        let link = &mut self.links[i];
        if !link.reading() {
            return false;
        }
        let peer = link.peer;
        match link.read_once() {
            Ok(0) => {
                let e = link.eof();
                self.fail(i, format_args!("worker {peer} died mid-stream: {e}"));
            }
            Ok(_) => {
                while self.links[i].reading() {
                    let link = &mut self.links[i];
                    match hop_wire::next_frame(&link.read[link.decoded..link.filled]) {
                        Ok(Some((msg, used))) => {
                            link.decoded += used;
                            if let Err(why) = self.take(i, msg) {
                                self.fail(i, why);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => self.fail(i, e),
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return false;
            }
            Err(e) => {
                let e = WireError::Io(e);
                self.fail(i, format_args!("worker {peer} died mid-stream: {e}"));
            }
        }
        true
    }

    /// Takes one frame from link `i` into the inbox or the token counts,
    /// max-merging the Lamport clock it carries. Fails closed on a frame
    /// the link may not carry: a mistyped, mis-sized or misattributed
    /// update, or a grant without token queues.
    fn take(&mut self, i: usize, msg: Message) -> Result<(), String> {
        let Self {
            links,
            inbox,
            tokens,
            clock,
            dim,
            ..
        } = self;
        let link = &mut links[i];
        let u = link.peer;
        match (msg, &mut link.inbound) {
            (Message::Finished { .. }, _) => link.finished = true,
            (Message::Token { count, clock: c }, Inbound::Tokens) => {
                let queue = tokens.get_mut(i).ok_or_else(|| {
                    format!("worker {u} granted tokens but the config has no token queues")
                })?;
                clock.fetch_max(c, Ordering::SeqCst);
                *queue += count;
            }
            (
                Message::Update {
                    tag,
                    clock: c,
                    block,
                },
                Inbound::Updates { plane, pool },
            ) => {
                if tag.w_id != u {
                    return Err(format!(
                        "update tagged from worker {}, expected {u}",
                        tag.w_id
                    ));
                }
                let kind_ok = matches!(
                    (plane.config(), &block),
                    (CompressionConfig::Identity, CompressedBlock::Dense { .. })
                        | (
                            CompressionConfig::TopK { .. },
                            CompressedBlock::Sparse { .. }
                        )
                        | (
                            CompressionConfig::Int8Uniform,
                            CompressedBlock::Quantized { .. }
                        )
                );
                if !kind_ok || block.decoded_len() != *dim {
                    return Err(format!(
                        "update block kind/size does not match the configured codec \
                         (got {block:?} for dim {dim})"
                    ));
                }
                let update = match block {
                    CompressedBlock::Dense { values } => ParamBlock::from_vec(values),
                    block => plane.apply_params_block(0, &block, pool),
                };
                clock.fetch_max(c, Ordering::SeqCst);
                inbox.enqueue(update, tag).expect("the inbox is unbounded");
            }
            (other, Inbound::Tokens) => {
                return Err(format!("unexpected {other:?} on a token link"));
            }
            (other, Inbound::Updates { .. }) => {
                return Err(format!("unexpected {other:?} on an update link"));
            }
        }
        Ok(())
    }
}

impl Transport for SocketTransport<'_> {
    type Error = String;

    fn enqueue(&mut self, block: ParamBlock, tag: Tag) {
        self.inbox
            .enqueue(block, tag)
            .expect("the inbox is unbounded");
    }

    fn dequeue(
        &mut self,
        filter: TagFilter,
        quota: usize,
        extra: usize,
        timeout: Duration,
    ) -> Option<Vec<TaggedEntry<ParamBlock>>> {
        let met = |t: &mut Self| t.inbox.size(filter) >= quota;
        if met(self) {
            if extra > 0 {
                // The extras are what has arrived by now, as on threads.
                self.pump(Duration::ZERO);
            }
        } else if !self.wait(timeout, met) {
            return None;
        }
        Some(
            self.inbox
                .dequeue_up_to(quota.saturating_add(extra), filter),
        )
    }

    fn drain_older_than(&mut self, iter: u64) -> Vec<TaggedEntry<ParamBlock>> {
        self.inbox.drain_older_than(iter)
    }

    fn pending(&self) -> Vec<Tag> {
        self.inbox.iter().map(|e| e.tag).collect()
    }

    fn token_counts(&mut self) -> Vec<u64> {
        self.pump(Duration::ZERO);
        self.tokens.clone()
    }

    fn take_tokens(&mut self, idx: usize, n: u64, timeout: Duration) -> bool {
        let taken = self.wait(timeout, |t| t.tokens[idx] >= n);
        if taken {
            self.tokens[idx] -= n;
        }
        taken
    }

    fn check(&mut self, k: u64) -> Result<(), String> {
        if self.die_at == Some(k) {
            // Fault hook: vanish without a Finished frame or a summary —
            // exactly what a crashed process looks like.
            std::process::exit(101);
        }
        self.failed()
    }

    fn deliver(
        &mut self,
        tag: Tag,
        params: &ParamBlock,
        receivers: &[usize],
        plane: &mut CompressionPlane,
        pool: &mut BufferPool,
    ) -> Result<(), String> {
        if self.out_links == 0 {
            return Ok(());
        }
        // One frame, encoded once (reading the clock after every Send
        // of this iteration was stamped) and fanned out.
        let block: &CompressedBlock = if plane.is_active() {
            plane.encode_params_block(0, params.as_slice(), pool).0
        } else {
            if let CompressedBlock::Dense { values } = &mut self.dense_scratch {
                values.clear();
                values.extend_from_slice(params.as_slice());
            }
            &self.dense_scratch
        };
        let clock = self.clock.load(Ordering::SeqCst);
        let block_bytes = hop_wire::encode_update_frame(tag, clock, block, &mut self.frame);
        for &r in receivers {
            self.wire_bytes += block_bytes;
            self.send_frame(r);
        }
        self.failed()
    }

    fn grant(&mut self, idx: usize, n: u64) -> Result<(), String> {
        let grant = Message::Token {
            count: n,
            clock: self.clock.load(Ordering::SeqCst),
        };
        hop_wire::encode_frame(&grant, &mut self.frame);
        self.send_frame(self.out_links + idx);
        self.failed()
    }

    fn explain(&self, stall: ThreadedError) -> String {
        self.failure.clone().unwrap_or_else(|| stall.to_string())
    }

    /// The close handshake: say `Finished` on every link, half-close it
    /// once that is flushed, and keep pumping until every peer's own
    /// `Finished` is in (or `patience` runs out). Exiting with unread
    /// frames in a receive buffer would turn the close into a reset,
    /// which can destroy our `Finished` in the peer's buffer and make its
    /// legal late token grant look like a peer loss.
    fn finish(&mut self) -> Result<(), String> {
        hop_wire::encode_frame(
            &Message::Finished {
                worker: self.w as u32,
            },
            &mut self.frame,
        );
        for i in 0..self.links.len() {
            self.send_frame(i);
        }
        let patience = self.patience;
        self.wait(patience, |t| {
            // Every link, not up to the first unsettled one: each gets
            // its half-close as soon as it is flushed.
            let mut settled = true;
            for link in &mut t.links {
                settled &= link.settle();
            }
            settled
        });
        self.failed()
    }
}

/// Entry point for `hop_worker --worker <coordinator> <id>`: runs the
/// worker half and returns the process exit code. Protocol failures —
/// a rejected spec included — are reported to the coordinator in the
/// summary frame (exit 0); only a failure to reach the coordinator at
/// all is a nonzero exit.
#[must_use]
pub fn worker_main(coordinator: &str, worker: usize) -> i32 {
    match worker_session(coordinator, worker) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("hop worker {worker}: {e}");
            1
        }
    }
}

fn worker_session(coordinator: &str, w: usize) -> Result<(), String> {
    let mut coord = TcpStream::connect(coordinator)
        .map_err(|e| format!("connect to coordinator {coordinator}: {e}"))?;
    coord.set_nodelay(true).ok();
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind peer listener: {e}"))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("peer listener addr: {e}"))?
        .port();
    let hello = Message::Hello {
        worker: w as u32,
        port,
    };
    write_message(&mut coord, &hello).map_err(|e| format!("send hello: {e}"))?;
    coord.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut events = Vec::new();
    let run = worker_run(&mut coord, w, &listener, &mut events);
    let (error, update_wire_bytes, final_params, losses) = match run {
        Ok((outcome, wire_bytes)) => (None, wire_bytes, outcome.params, outcome.losses),
        Err(error) => (Some(error), 0, Vec::new(), Vec::new()),
    };
    let mut events_text = String::new();
    for (stamp, ev) in &events {
        let _ = writeln!(events_text, "{stamp} {ev}");
    }
    let summary = Message::Summary {
        worker: w as u32,
        ok: error.is_none(),
        error: error.unwrap_or_default(),
        update_wire_bytes,
        final_params,
        losses,
        events_text,
    };
    write_message(&mut coord, &summary).map_err(|e| format!("send summary: {e}"))?;
    Ok(())
}

/// Dials `addr` until it accepts or the deadline passes (peers bind
/// their listeners before the coordinator releases the peer table, so
/// refusals here are transient).
fn connect_peer(addr: (&str, u16), deadline: Instant) -> Result<TcpStream, String> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(format!("connect to peer {}:{}: {e}", addr.0, addr.1));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// The worker's whole run: receive and validate the spec, wire up the
/// peer links, then drive the shared iteration loop over the socket
/// transport. The stamped event log lands in `events` whether or not the
/// run succeeds; on success also returns the update bytes put on the
/// wire.
fn worker_run(
    coord: &mut TcpStream,
    w: usize,
    listener: &TcpListener,
    events: &mut Vec<(u64, ProtocolEvent)>,
) -> Result<(WorkerOutcome, u64), String> {
    let spec = match read_message(coord).map_err(|e| format!("read spec: {e}"))? {
        Message::Spec { text } => WorkerSpec::parse(&text)?,
        other => return Err(format!("expected the spec, got {other:?}")),
    };
    if spec.w != w {
        return Err(format!(
            "spec addressed to worker {}, but this is worker {w}",
            spec.w
        ));
    }
    let peers = match read_message(coord).map_err(|e| format!("read peer table: {e}"))? {
        Message::Peers { peers } => peers,
        other => return Err(format!("expected the peer table, got {other:?}")),
    };
    let topo = &spec.topology;
    let deadline = Instant::now() + Duration::from_secs(30);

    // Reconstruct the workload and the shared initial parameters.
    let dataset = SyntheticWebspam::generate(spec.examples, spec.data_seed);
    let model = Svm::log_loss(dataset.feature_dim());
    let mut init_rng = hop_util::Xoshiro256::seed_from_u64(spec.seed);
    let init_params = ParamBlock::from_vec(model.init_params(&mut init_rng));

    // Dial every update receiver; their listener ports came from the
    // coordinator (which collected them during the hello round).
    let port_of: HashMap<u32, u16> = peers.iter().copied().collect();
    let mut links = Vec::new();
    for &o in topo.external_out_neighbors(w) {
        let port = *port_of
            .get(&(o as u32))
            .ok_or_else(|| format!("peer table is missing worker {o}"))?;
        let mut stream = connect_peer(("127.0.0.1", port), deadline)?;
        let hello = Message::Hello {
            worker: w as u32,
            port: 0,
        };
        write_message(&mut stream, &hello).map_err(|e| format!("hello to peer {o}: {e}"))?;
        links.push(Link::new(o, stream, Inbound::Tokens)?);
    }
    let out_links = links.len();
    // Accept one connection per update sender and identify it.
    let externals_in = topo.external_in_neighbors(w);
    let accepted = accept_hellos(listener, externals_in, deadline, |_| Ok(()))?;
    for (&u, (stream, _)) in externals_in.iter().zip(accepted) {
        let mut plane = CompressionPlane::new(spec.cfg.compression);
        plane.add_param_streams(1, init_params.as_slice());
        let pool = BufferPool::new();
        links.push(Link::new(u, stream, Inbound::Updates { plane, pool })?);
    }

    // The Lamport clock: the sink bumps it, every frame max-merges into it.
    let clock = AtomicU64::new(0);
    let mut transport = SocketTransport {
        die_at: spec.die_at,
        patience: spec.stall_timeout,
        tokens: spec
            .cfg
            .max_ig()
            .map_or_else(Vec::new, |ig| vec![ig; out_links]),
        ..SocketTransport::new(w, &clock, links, out_links, init_params.len())
    };
    let job = WorkerJob {
        w,
        cfg: &spec.cfg,
        topo,
        model: &model,
        dataset: &dataset,
        hyper: spec.hyper,
        max_iters: spec.max_iters,
        seed: spec.seed,
        compute_sleep: spec.compute_sleep,
        timeout: spec.stall_timeout,
        init_params: &init_params,
        // Faults here are real connection failures, not a plan.
        faults: &FaultPlan::none(),
    };
    let mut sink = spec.traced.then(|| SeqSink::new(&clock));
    let result = worker_loop(&job, &mut transport, &mut sink);
    *events = sink.map(SeqSink::into_events).unwrap_or_default();
    Ok((result?, transport.wire_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> ProcessExperiment {
        let mut exp = ProcessExperiment::new(
            HopConfig::backup(1, 4).with_skip(SkipConfig {
                max_jump: 6,
                trigger_behind: 2,
            }),
            Topology::ring(5),
            12,
            PathBuf::from("hop_worker"),
        );
        exp.hyper = Hyper {
            lr: 0.07,
            momentum: 0.9,
            weight_decay: 1e-4,
            batch_size: 24,
        };
        exp.slow_worker = Some((2, 15));
        exp.compute_sleep = Duration::from_micros(250);
        exp.die_at = Some((3, 7));
        exp
    }

    #[test]
    fn spec_text_round_trips_for_every_mode() {
        let base = experiment();
        let configs = [
            HopConfig::standard(),
            HopConfig::standard_with_tokens(3),
            HopConfig::backup(1, 4),
            HopConfig::staleness(2, 4),
            HopConfig::backup(1, 4).with_skip(SkipConfig {
                max_jump: 6,
                trigger_behind: 2,
            }),
            HopConfig::staleness(2, 4)
                .with_staleness_weighting(StalenessWeighting::Exponential { decay: 0.5 }),
            HopConfig::standard().with_compression(CompressionConfig::Int8Uniform),
            HopConfig::standard().with_compression(CompressionConfig::TopK { ratio: 0.25 }),
        ];
        for cfg in configs {
            let mut exp = base.clone();
            exp.config = cfg.clone();
            for w in [0, 2, 3] {
                let spec = WorkerSpec::parse(&exp.spec_text(w, true))
                    .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert_eq!(spec.w, w);
                assert_eq!(spec.topology.len(), 5);
                assert_eq!(spec.cfg, cfg, "config round trip for worker {w}");
                assert_eq!(spec.hyper, exp.hyper);
                assert_eq!(spec.max_iters, 12);
                assert_eq!(spec.seed, exp.seed);
                assert_eq!(spec.examples, exp.examples);
                assert_eq!(spec.data_seed, exp.data_seed);
                assert_eq!(spec.stall_timeout, exp.stall_timeout);
                assert!(spec.traced);
                // The straggler factor and the die hook apply only to
                // their own worker.
                let expected_sleep = if w == 2 {
                    exp.compute_sleep * 15
                } else {
                    exp.compute_sleep
                };
                assert_eq!(spec.compute_sleep, expected_sleep, "worker {w}");
                assert_eq!(spec.die_at, (w == 3).then_some(7), "worker {w}");
                assert_eq!(
                    spec.topology.external_edges(),
                    exp.topology.external_edges()
                );
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let good = experiment().spec_text(0, false);
        let swap = |from: &str, to: &str| {
            assert!(good.contains(from), "spec text lost its `{from}` line");
            good.replace(from, to)
        };
        for (broken, needle) in [
            ("w=0".to_string(), "missing `n`"),
            ("w=0\nnot a line".to_string(), "key=value"),
            (good.replace('>', "&"), "edge"),
            (
                swap("compression=identity", "compression=zip"),
                "compression",
            ),
            // Fail closed: repeated and unknown keys, ids and sizes out
            // of range, and a config its own topology cannot carry.
            (format!("{good}seed=3\n"), "repeats `seed`"),
            (format!("{good}colour=blue\n"), "unknown key `colour`"),
            (swap("n=5", "n=0"), "`n` must be positive"),
            (swap("w=0", "w=5"), "`w`=5 is out of range"),
            (
                swap("edges=0>1", "edges=0>9;0>1"),
                "edge `0>9` is out of range",
            ),
            (
                swap("batch_size=24", "batch_size=0"),
                "`batch_size` must be positive",
            ),
            (
                swap("examples=96", "examples=0"),
                "`examples` must be positive",
            ),
            (swap("n_backup=1", "n_backup=3"), "config is invalid"),
            (swap("max_ig=4", "max_ig=none"), "config is invalid"),
        ] {
            let err = WorkerSpec::parse(&broken).expect_err("must reject");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn peers_writing_megabytes_at_each_other_both_drain() {
        // Both ends of one loopback link queue 32 dense 64K-parameter
        // update frames (8 MB) before either reads — far more than the
        // two kernel socket buffers hold. A blocking write would wait for
        // a reader that is itself blocked writing; the pump keeps the
        // unsent tail and flushes it while it reads, so both drain, and
        // the close handshake completes.
        const FRAMES: usize = 32;
        const DIM: usize = 64 * 1024;
        let timeout = Duration::from_secs(20);
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (accepted, _) = listener.accept().expect("accept");
        let both_queued = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (me, stream) in [(0, dialed), (1, accepted)] {
                let both_queued = &both_queued;
                scope.spawn(move || {
                    let clock = AtomicU64::new(0);
                    let inbound = Inbound::Updates {
                        plane: CompressionPlane::new(CompressionConfig::Identity),
                        pool: BufferPool::new(),
                    };
                    let link = Link::new(1 - me, stream, inbound).expect("non-blocking");
                    let mut end = SocketTransport {
                        patience: timeout,
                        ..SocketTransport::new(me, &clock, vec![link], 0, DIM)
                    };
                    let block = CompressedBlock::Dense {
                        values: vec![1.0; DIM],
                    };
                    for iter in 0..FRAMES as u64 {
                        let tag = Tag { iter, w_id: me };
                        hop_wire::encode_update_frame(tag, 0, &block, &mut end.frame);
                        end.send_frame(0);
                    }
                    both_queued.wait();
                    assert_eq!(end.failed(), Ok(()), "end {me}");
                    assert!(!end.links[0].out.is_empty(), "end {me} never had to queue");
                    let started = Instant::now();
                    let got = end
                        .dequeue(TagFilter::any(), FRAMES, 0, timeout)
                        .unwrap_or_else(|| panic!("end {me} stalled: {:?}", end.failure));
                    assert_eq!(got.len(), FRAMES, "end {me}");
                    assert_eq!(end.finish(), Ok(()), "end {me}");
                    assert!(end.links[0].finished && end.links[0].out.is_empty());
                    assert!(started.elapsed() < timeout, "end {me} drained too late");
                });
            }
        });
    }

    #[test]
    fn process_spec_is_grammar_valid() {
        choreography::validate_spec(&CHOREOGRAPHY).expect("process spec validates");
    }

    #[test]
    fn stamped_event_merge_orders_by_lamport_stamp() {
        let summaries = [
            "0 advance w=0 iter=0\n5 send from=0 to=1 iter=0\n".to_string(),
            "7 consume w=1 from=0 iter=0 at=0\n0 advance w=1 iter=0\n".to_string(),
        ];
        let text = merge_stamped_events(&summaries).expect("merges");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "advance w=0 iter=0",
                "advance w=1 iter=0",
                "send from=0 to=1 iter=0",
                "consume w=1 from=0 iter=0 at=0",
            ]
        );
        let trace = ProtocolTrace::from_text(&text).expect("parses");
        assert_eq!(trace.len(), 4);
        // A worker that never reported (lost peer) just contributes
        // nothing; an unstamped line is a protocol error.
        let with_hole = ["3 advance w=0 iter=1\n".to_string(), String::new()];
        assert_eq!(
            merge_stamped_events(&with_hole).unwrap(),
            "advance w=0 iter=1\n"
        );
        let bad = ["advance w=0 iter=0\n".to_string()];
        assert!(matches!(
            merge_stamped_events(&bad),
            Err(ProcessError::Protocol(_))
        ));
    }
}
