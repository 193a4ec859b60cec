//! The multi-process runtime: Hop's queue-based protocol across OS
//! *processes* over localhost TCP, speaking the [`hop_wire`]
//! length-prefixed frame format.
//!
//! A [`ProcessExperiment`] plays coordinator: it binds a listener,
//! re-execs the worker binary (`hop_worker --worker <addr> <id>`) once
//! per worker, hands each its spec text and peer ports, and
//! collects one [`Message::Summary`] per worker at the end. Workers
//! connect to each other directly — one TCP connection per directed
//! external edge `w -> o`, carrying `w`'s updates one way and `o`'s
//! token grants the other — and drive the *same* iteration loop as the
//! threaded runtime ([`crate::threaded`]), through the same
//! [`crate::choreography`] typestate handles, over socket-fed mirrors
//! of the blocking queues.
//!
//! # Wire accounting
//!
//! An update frame embeds its [`CompressedBlock`] in exactly
//! [`CompressedBlock::encoded_bytes`] payload bytes, and a worker counts
//! every *attempted* external send (exactly like the simulator's charge
//! to its virtual network), so the summed
//! [`ProcessReport::update_wire_bytes`] equals the simulator's
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
//! Everything fails closed. A peer that dies mid-run surfaces as a
//! typed [`hop_wire::WireError`] on its readers (EOF without a
//! `Finished` frame), which the survivors report as a peer loss instead
//! of a bare stall; the coordinator turns missing summaries into
//! [`ProcessError::PeerLost`] and — when
//! [`ProcessExperiment::failure_label`] is set — serializes the partial
//! merged trace to `target/conformance-failures/<label>.trace` for
//! offline replay.

use crate::choreography::{self, t, ChoreographySpec, SeqSink, Transition};
use crate::config::{ComputeOrder, ConfigError, HopConfig, SkipConfig, SyncMode};
use crate::conformance::{ProtocolEvent, ProtocolTrace};
use crate::semantics::{self, StalenessWeighting};
use crate::sim_runtime::compression::CompressionPlane;
use crate::threaded::{jump_renew, stale_recv, WorkerCtx};
use crate::trainer::Hyper;
use hop_data::webspam::SyntheticWebspam;
use hop_data::{BatchSampler, Dataset};
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::{GradScratch, Model, Sgd};
use hop_queue::blocking::{SharedTaggedQueue, SharedTokenQueue};
use hop_queue::tagged::{Tag, TagFilter};
use hop_tensor::{BufferPool, CompressedBlock, CompressionConfig, ParamBlock};
use hop_wire::{read_message, write_message, Message, WireError};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The process runtime's transition table: the full grammar minus the
/// fault plane — a real dead process cannot be choreographed as a
/// polite `Crash` event; it surfaces as a connection error instead.
pub const PROCESS_TRANSITIONS: &[Transition] = &[
    t("Reduced", choreography::EventKind::Advance, "Idle"),
    t("Idle", choreography::EventKind::Send, "Idle"),
    t("Idle", choreography::EventKind::ComputeBegin, "Computing"),
    t(
        "Computing",
        choreography::EventKind::ComputeEnd,
        "Exchanging",
    ),
    t("Exchanging", choreography::EventKind::Send, "Exchanging"),
    t("Exchanging", choreography::EventKind::Consume, "Exchanging"),
    t("Exchanging", choreography::EventKind::Reduce, "Reduced"),
    t("Reduced", choreography::EventKind::TokenTake, "Reduced"),
    t("Reduced", choreography::EventKind::Jump, "Renewing"),
    t("Renewing", choreography::EventKind::TokenTake, "Renewing"),
    t("Renewing", choreography::EventKind::Consume, "Renewing"),
    t("Renewing", choreography::EventKind::RenewReduce, "Reduced"),
    t("*", choreography::EventKind::TokenPass, "*"),
    t("*", choreography::EventKind::StaleAdmit, "*"),
    t("*", choreography::EventKind::StaleReject, "*"),
    t("*", choreography::EventKind::Drop, "*"),
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

/// Result of a process-runtime run.
#[derive(Debug, Clone)]
pub struct ProcessReport {
    /// Final parameters per worker.
    pub final_params: Vec<Vec<f32>>,
    /// Per-worker minibatch losses by iteration (skipped iterations have
    /// no loss entry).
    pub losses: Vec<Vec<f32>>,
    /// Per-worker update-block payload bytes actually framed onto the
    /// sockets — comparable 1:1 with the simulator's `bytes_sent`.
    pub update_wire_bytes: Vec<u64>,
    /// Wall-clock duration of the run (spawn to last summary).
    pub elapsed: Duration,
}

impl ProcessReport {
    /// Total update bytes across all workers — the number that must
    /// equal the simulator's `bytes_sent` for the same grid point.
    #[must_use]
    pub fn total_update_wire_bytes(&self) -> u64 {
        self.update_wire_bytes.iter().sum()
    }

    /// Elementwise average of the final parameters (empty for an empty
    /// report).
    #[must_use]
    pub fn averaged_params(&self) -> Vec<f32> {
        let views: Vec<&[f32]> = self.final_params.iter().map(Vec::as_slice).collect();
        let Some(first) = views.first() else {
            return Vec::new();
        };
        let mut out = vec![0.0f32; first.len()];
        hop_tensor::ops::mean_into(&views, &mut out);
        out
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
    pub fn run(&self) -> Result<ProcessReport, ProcessError> {
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
    pub fn run_traced(&self) -> Result<(ProcessReport, ProtocolTrace), ProcessError> {
        let (report, trace) = self.run_inner(true)?;
        Ok((report, trace.expect("tracing was enabled")))
    }

    fn run_inner(
        &self,
        traced: bool,
    ) -> Result<(ProcessReport, Option<ProtocolTrace>), ProcessError> {
        self.config.validate(&self.topology)?;
        if self.config.order != ComputeOrder::Parallel {
            return Err(ProcessError::Unsupported("the serial compute order"));
        }
        if self.config.sync == SyncMode::NotifyAck {
            return Err(ProcessError::Unsupported("NOTIFY-ACK synchronization"));
        }
        let n = self.topology.len();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|error| ProcessError::Io {
            context: "bind coordinator listener",
            error,
        })?;
        let addr = listener.local_addr().map_err(|error| ProcessError::Io {
            context: "read coordinator address",
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
        let mut conns = accept_fleet(&listener, &mut children, n)?;
        // Hand every worker its spec and the listener ports of its
        // update receivers, then let the fleet run.
        for w in 0..n {
            let peers: Vec<(u32, u16)> = self
                .topology
                .external_out_neighbors(w)
                .iter()
                .map(|&o| (o as u32, conns_port(&conns, o)))
                .collect();
            let spec = Message::Spec {
                text: self.spec_text(w, traced),
            };
            let (stream, _) = conns[w].as_mut().expect("handshake filled every slot");
            write_message(stream, &spec).map_err(|error| ProcessError::Wire {
                context: "send worker spec",
                error,
            })?;
            write_message(stream, &Message::Peers { peers }).map_err(|error| {
                ProcessError::Wire {
                    context: "send peer table",
                    error,
                }
            })?;
        }
        // Collect one summary per worker within a budget derived from
        // the run's own knobs; a missing summary is a lost peer.
        let slow = self.slow_worker.map_or(1, |(_, f)| f.max(1));
        let iter_cap = u32::try_from(self.max_iters.min(100_000)).expect("capped");
        let budget =
            self.compute_sleep * slow * iter_cap + self.stall_timeout * 4 + Duration::from_secs(30);
        let deadline = Instant::now() + budget;
        let mut summaries: Vec<Option<Summary>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (w, slot) in conns.iter_mut().enumerate() {
            let (stream, _) = slot.as_mut().expect("handshake filled every slot");
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
                    summaries[w] = Some(Summary {
                        ok,
                        error,
                        update_wire_bytes,
                        final_params,
                        losses,
                        events_text,
                    });
                }
                Ok(other) => {
                    failures.push((w, format!("sent {other:?} instead of its summary")));
                }
                Err(e) => failures.push((w, e.to_string())),
            }
        }
        drop(children); // reap the fleet before reporting
        let elapsed = start.elapsed();
        let merged_text = traced
            .then(|| merge_stamped_events(&summaries))
            .transpose()?;
        let first_failed = summaries
            .iter()
            .enumerate()
            .find_map(|(w, s)| s.as_ref().filter(|s| !s.ok).map(|s| (w, s.error.clone())));
        if !failures.is_empty() || first_failed.is_some() {
            if let (Some(label), Some(text)) = (&self.failure_label, &merged_text) {
                let dir = std::path::Path::new("target/conformance-failures");
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join(format!("{label}.trace")), text);
            }
            if !failures.is_empty() {
                return Err(ProcessError::PeerLost { failures });
            }
            let (worker, error) = first_failed.expect("checked above");
            return Err(ProcessError::WorkerFailed { worker, error });
        }
        let trace = merged_text
            .map(|text| {
                ProtocolTrace::from_text(&text).map_err(|e| ProcessError::Protocol(e.to_string()))
            })
            .transpose()?;
        let mut report = ProcessReport {
            final_params: Vec::with_capacity(n),
            losses: Vec::with_capacity(n),
            update_wire_bytes: Vec::with_capacity(n),
            elapsed,
        };
        for s in summaries {
            let s = s.expect("no failure implies every summary arrived");
            report.final_params.push(s.final_params);
            report.losses.push(s.losses);
            report.update_wire_bytes.push(s.update_wire_bytes);
        }
        Ok((report, trace))
    }

    /// The text `key=value` specification shipped to worker `w`. Floats
    /// travel as hex bit patterns so both sides compute on identical
    /// values.
    fn spec_text(&self, w: usize, traced: bool) -> String {
        let cfg = &self.config;
        let mut out = String::new();
        let _ = writeln!(out, "w={w}");
        let _ = writeln!(out, "n={}", self.topology.len());
        let _ = writeln!(out, "max_iters={}", self.max_iters);
        let _ = writeln!(out, "seed={}", self.seed);
        let edges: Vec<String> = self
            .topology
            .external_edges()
            .iter()
            .map(|(u, v)| format!("{u}>{v}"))
            .collect();
        let _ = writeln!(out, "edges={}", edges.join(";"));
        let _ = writeln!(out, "max_ig={}", opt_u64(cfg.max_ig()));
        let _ = writeln!(out, "n_backup={}", cfg.n_backup);
        let _ = writeln!(out, "staleness={}", opt_u64(cfg.staleness));
        let _ = writeln!(
            out,
            "skip={}",
            cfg.skip.as_ref().map_or_else(
                || "none".into(),
                |s| format!("{}:{}", s.max_jump, s.trigger_behind)
            )
        );
        let _ = writeln!(
            out,
            "send_inquiry={}",
            cfg.send_inquiry
                .map_or_else(|| "none".into(), |b| u8::from(b).to_string())
        );
        let weighting = match cfg.staleness_weighting {
            StalenessWeighting::Linear => "linear".to_string(),
            StalenessWeighting::Uniform => "uniform".to_string(),
            StalenessWeighting::Exponential { decay } => format!("exp:{:08x}", decay.to_bits()),
        };
        let _ = writeln!(out, "weighting={weighting}");
        let compression = match cfg.compression {
            CompressionConfig::Identity => "identity".to_string(),
            CompressionConfig::TopK { ratio } => format!("topk:{:08x}", ratio.to_bits()),
            CompressionConfig::Int8Uniform => "int8".to_string(),
        };
        let _ = writeln!(out, "compression={compression}");
        let _ = writeln!(out, "lr={:08x}", self.hyper.lr.to_bits());
        let _ = writeln!(out, "momentum={:08x}", self.hyper.momentum.to_bits());
        let _ = writeln!(
            out,
            "weight_decay={:08x}",
            self.hyper.weight_decay.to_bits()
        );
        let _ = writeln!(out, "batch_size={}", self.hyper.batch_size);
        let _ = writeln!(out, "examples={}", self.examples);
        let _ = writeln!(out, "data_seed={}", self.data_seed);
        let sleep = match self.slow_worker {
            Some((slow, factor)) if slow == w => self.compute_sleep * factor,
            _ => self.compute_sleep,
        };
        let _ = writeln!(
            out,
            "sleep_us={}",
            u64::try_from(sleep.as_micros()).unwrap_or(u64::MAX)
        );
        let _ = writeln!(
            out,
            "stall_ms={}",
            u64::try_from(self.stall_timeout.as_millis()).unwrap_or(u64::MAX)
        );
        let _ = writeln!(out, "traced={}", u8::from(traced));
        let die = match self.die_at {
            Some((dw, iter)) if dw == w => opt_u64(Some(iter)),
            _ => "none".to_string(),
        };
        let _ = writeln!(out, "die_at={die}");
        out
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| x.to_string())
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

/// Accepts and identifies all `n` worker connections, watching for
/// children that die before saying hello.
fn accept_fleet(
    listener: &TcpListener,
    children: &mut Fleet,
    n: usize,
) -> Result<Vec<Option<(TcpStream, u16)>>, ProcessError> {
    listener
        .set_nonblocking(true)
        .map_err(|error| ProcessError::Io {
            context: "poll coordinator listener",
            error,
        })?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut conns: Vec<Option<(TcpStream, u16)>> = (0..n).map(|_| None).collect();
    let mut have = 0;
    while have < n {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|error| ProcessError::Io {
                        context: "configure worker socket",
                        error,
                    })?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let mut stream = stream;
                match read_message(&mut stream) {
                    Ok(Message::Hello { worker, port }) => {
                        let w = worker as usize;
                        if w >= n {
                            return Err(ProcessError::Handshake(format!(
                                "hello from out-of-range worker {w}"
                            )));
                        }
                        if conns[w].is_some() {
                            return Err(ProcessError::Handshake(format!(
                                "two hellos from worker {w}"
                            )));
                        }
                        conns[w] = Some((stream, port));
                        have += 1;
                    }
                    Ok(other) => {
                        return Err(ProcessError::Handshake(format!(
                            "expected a hello, got {other:?}"
                        )));
                    }
                    Err(e) => return Err(ProcessError::Handshake(format!("bad hello: {e}"))),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    let missing: Vec<usize> = (0..n).filter(|&w| conns[w].is_none()).collect();
                    return Err(ProcessError::Handshake(format!(
                        "timed out waiting for workers {missing:?}"
                    )));
                }
                for (w, child) in children.0.iter_mut().enumerate() {
                    if conns[w].is_none() {
                        if let Ok(Some(status)) = child.try_wait() {
                            return Err(ProcessError::Handshake(format!(
                                "worker {w} exited during handshake ({status})"
                            )));
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(error) => {
                return Err(ProcessError::Io {
                    context: "accept worker connection",
                    error,
                })
            }
        }
    }
    Ok(conns)
}

fn conns_port(conns: &[Option<(TcpStream, u16)>], w: usize) -> u16 {
    conns[w].as_ref().expect("handshake filled every slot").1
}

/// One worker's final report, as decoded from its summary frame.
struct Summary {
    ok: bool,
    error: String,
    update_wire_bytes: u64,
    final_params: Vec<f32>,
    losses: Vec<f32>,
    events_text: String,
}

/// Merges the per-worker `<stamp> <event>` logs into one event-per-line
/// text, ordered by Lamport stamp (ties broken by worker order, which
/// keeps the merge deterministic).
fn merge_stamped_events(summaries: &[Option<Summary>]) -> Result<String, ProcessError> {
    let mut lines: Vec<(u64, usize, &str)> = Vec::new();
    for (idx, summary) in summaries.iter().enumerate() {
        let Some(summary) = summary else { continue };
        for line in summary.events_text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
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
    let mut out = String::new();
    for (_, _, line) in lines {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Worker half
// ---------------------------------------------------------------------------

/// Everything a worker needs to run its half of the experiment, parsed
/// from the coordinator's spec text.
#[derive(Debug, PartialEq)]
struct WorkerSpec {
    w: usize,
    n: usize,
    max_iters: u64,
    seed: u64,
    edges: Vec<(usize, usize)>,
    cfg: HopConfig,
    hyper: Hyper,
    examples: usize,
    data_seed: u64,
    compute_sleep: Duration,
    stall_timeout: Duration,
    traced: bool,
    die_at: Option<u64>,
}

impl WorkerSpec {
    fn parse(text: &str) -> Result<Self, String> {
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("spec line `{line}` is not key=value"))?;
            fields.insert(k, v);
        }
        let get = |key: &str| -> Result<&str, String> {
            fields
                .get(key)
                .copied()
                .ok_or_else(|| format!("spec is missing `{key}`"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            get(key)?
                .parse::<u64>()
                .map_err(|e| format!("spec `{key}`: {e}"))
        };
        let get_opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            let raw = get(key)?;
            if raw == "none" {
                Ok(None)
            } else {
                raw.parse::<u64>()
                    .map(Some)
                    .map_err(|e| format!("spec `{key}`: {e}"))
            }
        };
        let get_f32 = |key: &str| -> Result<f32, String> {
            let raw = get(key)?;
            u32::from_str_radix(raw, 16)
                .map(f32::from_bits)
                .map_err(|e| format!("spec `{key}`: {e}"))
        };
        let mut edges = Vec::new();
        let raw_edges = get("edges")?;
        if !raw_edges.is_empty() {
            for part in raw_edges.split(';') {
                let (u, v) = part
                    .split_once('>')
                    .ok_or_else(|| format!("spec edge `{part}` is not u>v"))?;
                let u = u
                    .parse::<usize>()
                    .map_err(|e| format!("spec edge `{part}`: {e}"))?;
                let v = v
                    .parse::<usize>()
                    .map_err(|e| format!("spec edge `{part}`: {e}"))?;
                edges.push((u, v));
            }
        }
        let skip = match get("skip")? {
            "none" => None,
            raw => {
                let (j, b) = raw
                    .split_once(':')
                    .ok_or_else(|| format!("spec skip `{raw}` is not max_jump:trigger"))?;
                Some(SkipConfig {
                    max_jump: j.parse().map_err(|e| format!("spec skip: {e}"))?,
                    trigger_behind: b.parse().map_err(|e| format!("spec skip: {e}"))?,
                })
            }
        };
        let send_inquiry = match get("send_inquiry")? {
            "none" => None,
            "0" => Some(false),
            "1" => Some(true),
            other => return Err(format!("spec send_inquiry `{other}` is not none/0/1")),
        };
        let staleness_weighting = match get("weighting")? {
            "linear" => StalenessWeighting::Linear,
            "uniform" => StalenessWeighting::Uniform,
            raw => match raw.strip_prefix("exp:") {
                Some(bits) => StalenessWeighting::Exponential {
                    decay: u32::from_str_radix(bits, 16)
                        .map(f32::from_bits)
                        .map_err(|e| format!("spec weighting: {e}"))?,
                },
                None => return Err(format!("unknown weighting `{raw}`")),
            },
        };
        let compression = match get("compression")? {
            "identity" => CompressionConfig::Identity,
            "int8" => CompressionConfig::Int8Uniform,
            raw => match raw.strip_prefix("topk:") {
                Some(bits) => CompressionConfig::TopK {
                    ratio: u32::from_str_radix(bits, 16)
                        .map(f32::from_bits)
                        .map_err(|e| format!("spec compression: {e}"))?,
                },
                None => return Err(format!("unknown compression `{raw}`")),
            },
        };
        let cfg = HopConfig {
            order: ComputeOrder::Parallel,
            sync: SyncMode::Queues {
                max_ig: get_opt_u64("max_ig")?,
            },
            n_backup: usize::try_from(get_u64("n_backup")?).map_err(|e| e.to_string())?,
            staleness: get_opt_u64("staleness")?,
            skip,
            send_inquiry,
            staleness_weighting,
            compression,
        };
        Ok(WorkerSpec {
            w: usize::try_from(get_u64("w")?).map_err(|e| e.to_string())?,
            n: usize::try_from(get_u64("n")?).map_err(|e| e.to_string())?,
            max_iters: get_u64("max_iters")?,
            seed: get_u64("seed")?,
            edges,
            cfg,
            hyper: Hyper {
                lr: get_f32("lr")?,
                momentum: get_f32("momentum")?,
                weight_decay: get_f32("weight_decay")?,
                batch_size: usize::try_from(get_u64("batch_size")?).map_err(|e| e.to_string())?,
            },
            examples: usize::try_from(get_u64("examples")?).map_err(|e| e.to_string())?,
            data_seed: get_u64("data_seed")?,
            compute_sleep: Duration::from_micros(get_u64("sleep_us")?),
            stall_timeout: Duration::from_millis(get_u64("stall_ms")?),
            traced: get_u64("traced")? != 0,
            die_at: get_opt_u64("die_at")?,
        })
    }
}

/// Shared status of one peer link, written by its reader thread.
struct LinkState {
    peer: usize,
    /// The peer sent `Finished`: subsequent write errors on this link
    /// are benign (the simulator likewise keeps charging sends to
    /// finished workers — delivery is the receiver's problem).
    finished: AtomicBool,
    /// Why the link failed, if it did (EOF without `Finished`, corrupt
    /// frame, unexpected message).
    failed: Mutex<Option<String>>,
}

impl LinkState {
    fn new(peer: usize) -> Arc<Self> {
        Arc::new(LinkState {
            peer,
            finished: AtomicBool::new(false),
            failed: Mutex::new(None),
        })
    }

    fn fail(&self, why: String) {
        let mut slot = self.failed.lock().expect("link state lock");
        if slot.is_none() {
            *slot = Some(why);
        }
    }

    fn failure(&self) -> Option<String> {
        self.failed.lock().expect("link state lock").clone()
    }
}

/// An outgoing-update link `w -> o`: this worker writes update frames;
/// a reader thread mirrors `o`'s token grants into `tokens`.
struct OutLink {
    o: usize,
    stream: TcpStream,
    tokens: Option<Arc<SharedTokenQueue>>,
    state: Arc<LinkState>,
}

/// An incoming-update link `u -> w`: a reader thread feeds `u`'s
/// updates into the worker's own tagged queue; this worker writes token
/// grants back.
struct InLink {
    u: usize,
    stream: TcpStream,
    state: Arc<LinkState>,
}

/// The first failure across all links, if any — preferred over a bare
/// stall diagnosis, because a dead peer *causes* the stall.
fn link_failure(out_links: &[OutLink], in_links: &[InLink]) -> Option<String> {
    out_links
        .iter()
        .map(|l| &l.state)
        .chain(in_links.iter().map(|l| &l.state))
        .find_map(|s| {
            s.failure()
                .map(|why| format!("peer link to worker {}: {why}", s.peer))
        })
}

/// Entry point for `hop_worker --worker <coordinator> <id>`: runs the
/// worker half and returns the process exit code. Protocol failures are
/// reported to the coordinator in the summary frame (exit 0); only a
/// failure to reach the coordinator at all is a nonzero exit.
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
    write_message(
        &mut coord,
        &Message::Hello {
            worker: w as u32,
            port,
        },
    )
    .map_err(|e| format!("send hello: {e}"))?;
    coord.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let spec = match read_message(&mut coord).map_err(|e| format!("read spec: {e}"))? {
        Message::Spec { text } => WorkerSpec::parse(&text)?,
        other => return Err(format!("expected the spec, got {other:?}")),
    };
    if spec.w != w {
        return Err(format!(
            "spec addressed to worker {}, but this is worker {w}",
            spec.w
        ));
    }
    let peers = match read_message(&mut coord).map_err(|e| format!("read peer table: {e}"))? {
        Message::Peers { peers } => peers,
        other => return Err(format!("expected the peer table, got {other:?}")),
    };
    let summary = match worker_run(&spec, &listener, &peers) {
        Ok((final_params, losses, update_wire_bytes, events)) => Message::Summary {
            worker: w as u32,
            ok: true,
            error: String::new(),
            update_wire_bytes,
            final_params,
            losses,
            events_text: events_to_text(&events),
        },
        Err((error, events)) => Message::Summary {
            worker: w as u32,
            ok: false,
            error,
            update_wire_bytes: 0,
            final_params: Vec::new(),
            losses: Vec::new(),
            events_text: events_to_text(&events),
        },
    };
    write_message(&mut coord, &summary).map_err(|e| format!("send summary: {e}"))?;
    Ok(())
}

fn events_to_text(events: &[(u64, ProtocolEvent)]) -> String {
    let mut out = String::new();
    for (stamp, ev) in events {
        let _ = writeln!(out, "{stamp} {ev}");
    }
    out
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

type RunOutput = (Vec<f32>, Vec<f32>, u64, Vec<(u64, ProtocolEvent)>);
type RunFailure = (String, Vec<(u64, ProtocolEvent)>);

/// The worker's whole run: wire up the peer links, then drive the same
/// iteration loop as the threaded runtime over the socket-fed queues.
#[allow(clippy::too_many_lines)]
fn worker_run(
    spec: &WorkerSpec,
    listener: &TcpListener,
    peers: &[(u32, u16)],
) -> Result<RunOutput, RunFailure> {
    let setup = |e: String| (e, Vec::new());
    let w = spec.w;
    let topo = Topology::from_edges(spec.n, &spec.edges);
    let externals_out: Vec<usize> = topo.external_out_neighbors(w).to_vec();
    let externals_in: Vec<usize> = topo.external_in_neighbors(w).to_vec();
    let max_ig = spec.cfg.max_ig();
    let deadline = Instant::now() + Duration::from_secs(30);

    // Reconstruct the workload and the shared initial parameters.
    let dataset = SyntheticWebspam::generate(spec.examples, spec.data_seed);
    let model = Svm::log_loss(dataset.feature_dim());
    let mut init_rng = hop_util::Xoshiro256::seed_from_u64(spec.seed);
    let init = model.init_params(&mut init_rng);
    let dim = init.len();

    // Dial every update receiver; their listener ports came from the
    // coordinator (which collected them during the hello round).
    let port_of: HashMap<u32, u16> = peers.iter().copied().collect();
    let mut out_links = Vec::with_capacity(externals_out.len());
    for &o in &externals_out {
        let port = *port_of
            .get(&(o as u32))
            .ok_or_else(|| setup(format!("peer table is missing worker {o}")))?;
        let mut stream = connect_peer(("127.0.0.1", port), deadline).map_err(setup)?;
        stream.set_nodelay(true).ok();
        stream
            .set_write_timeout(Some(spec.stall_timeout + Duration::from_secs(5)))
            .ok();
        write_message(
            &mut stream,
            &Message::Hello {
                worker: w as u32,
                port: 0,
            },
        )
        .map_err(|e| setup(format!("hello to peer {o}: {e}")))?;
        out_links.push(OutLink {
            o,
            stream,
            tokens: max_ig.map(|ig| Arc::new(SharedTokenQueue::new(ig))),
            state: LinkState::new(o),
        });
    }

    // Accept one connection per update sender and identify it.
    listener
        .set_nonblocking(true)
        .map_err(|e| setup(format!("poll peer listener: {e}")))?;
    let mut in_links: Vec<InLink> = Vec::with_capacity(externals_in.len());
    while in_links.len() < externals_in.len() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| setup(format!("configure peer socket: {e}")))?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let mut stream = stream;
                let u = match read_message(&mut stream) {
                    Ok(Message::Hello { worker, .. }) => worker as usize,
                    Ok(other) => {
                        return Err(setup(format!("expected a peer hello, got {other:?}")))
                    }
                    Err(e) => return Err(setup(format!("bad peer hello: {e}"))),
                };
                if !externals_in.contains(&u) || in_links.iter().any(|l| l.u == u) {
                    return Err(setup(format!("unexpected peer hello from worker {u}")));
                }
                stream.set_read_timeout(None).ok();
                stream
                    .set_write_timeout(Some(spec.stall_timeout + Duration::from_secs(5)))
                    .ok();
                in_links.push(InLink {
                    u,
                    stream,
                    state: LinkState::new(u),
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    let have: Vec<usize> = in_links.iter().map(|l| l.u).collect();
                    return Err(setup(format!(
                        "timed out accepting peers (have {have:?}, want {externals_in:?})"
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(setup(format!("accept peer connection: {e}"))),
        }
    }

    // The worker's own tagged update queue (fed by its self-send and the
    // reader threads) and the Lamport clock shared with them.
    let queue: Arc<SharedTaggedQueue<ParamBlock>> = Arc::new(SharedTaggedQueue::new());
    let clock = Arc::new(AtomicU64::new(0));
    for link in &out_links {
        let stream = link
            .stream
            .try_clone()
            .map_err(|e| setup(format!("clone peer socket: {e}")))?;
        std::thread::spawn(token_reader(
            stream,
            link.o,
            link.tokens.clone(),
            Arc::clone(&clock),
            Arc::clone(&link.state),
        ));
    }
    for link in &in_links {
        let stream = link
            .stream
            .try_clone()
            .map_err(|e| setup(format!("clone peer socket: {e}")))?;
        std::thread::spawn(update_reader(
            stream,
            link.u,
            dim,
            spec.cfg.compression,
            init.clone(),
            Arc::clone(&queue),
            Arc::clone(&clock),
            Arc::clone(&link.state),
        ));
    }

    // --- the iteration loop, mirroring crate::threaded::worker_loop ---
    let cfg = spec.cfg.clone();
    let init_params = ParamBlock::from_vec(init);
    let mut params = init_params.snapshot();
    let mut opt = Sgd::new(
        spec.hyper.lr,
        spec.hyper.momentum,
        spec.hyper.weight_decay,
        dim,
    );
    let mut sampler = BatchSampler::for_worker(dataset.len(), spec.hyper.batch_size, spec.seed, w);
    let mut grad = vec![0.0f32; dim];
    let mut delta = vec![0.0f32; dim];
    let mut scratch = GradScratch::new();
    let mut losses = Vec::with_capacity(spec.max_iters as usize);
    let in_deg = topo.in_degree(w);
    let in_neighbors: Vec<usize> = topo.in_neighbors(w).to_vec();
    let mut plane = CompressionPlane::new(cfg.compression);
    plane.add_param_streams(1, init_params.as_slice());
    let mut ctx = WorkerCtx {
        w,
        cfg: &cfg,
        timeout: spec.stall_timeout,
        pool: BufferPool::new(),
        newest_from: HashMap::new(),
        last_consumed: None,
    };
    let mut conf = spec.traced.then(|| SeqSink::new(&clock));
    let mut wire_bytes: u64 = 0;
    let mut dense_scratch = CompressedBlock::Dense { values: Vec::new() };
    let mut frame = Vec::new();
    let max_iters = spec.max_iters;

    let loop_result: Result<(), String> = (|| {
        let mut k: u64 = 0;
        let mut entry_tokens: u64 = 0;
        while k < max_iters {
            if spec.die_at == Some(k) {
                // Fault hook: vanish without a Finished frame or a
                // summary — exactly what a crashed process looks like.
                std::process::exit(101);
            }
            if let Some(why) = link_failure(&out_links, &in_links) {
                return Err(why);
            }
            let step = choreography::begin_step(&mut conf, w, k);
            if max_ig.is_some() && entry_tokens > 0 {
                for link in &mut in_links {
                    choreography::token_grant(&mut conf, w, link.u, entry_tokens);
                    send_tokens(link, entry_tokens, &clock)?;
                }
            }
            // Send (parallel order): the self-send shares the exact
            // block; external receivers get one encoded frame fanned out
            // to every out-link, counted per *attempted* send.
            step.send(&mut conf, w);
            queue.enqueue(params.snapshot(), Tag { iter: k, w_id: w });
            for link in &out_links {
                step.send(&mut conf, link.o);
            }
            if !out_links.is_empty() {
                let block: &CompressedBlock = if plane.is_active() {
                    plane
                        .encode_params_block(0, params.as_slice(), &mut ctx.pool)
                        .0
                } else {
                    if let CompressedBlock::Dense { values } = &mut dense_scratch {
                        values.clear();
                        values.extend_from_slice(params.as_slice());
                    }
                    &dense_scratch
                };
                let block_bytes = hop_wire::encode_update_frame(
                    Tag { iter: k, w_id: w },
                    clock.load(Ordering::SeqCst),
                    block,
                    &mut frame,
                );
                for link in &mut out_links {
                    wire_bytes += block_bytes;
                    write_frame(&mut link.stream, &frame, &link.state, "an update")?;
                }
            }
            // Compute.
            let step = step.begin_compute(&mut conf);
            if !spec.compute_sleep.is_zero() {
                std::thread::sleep(spec.compute_sleep);
            }
            let batch = sampler.next_batch(&dataset);
            let loss = model.loss_grad_with(params.as_slice(), &batch, &mut grad, &mut scratch);
            let mut step = step.end_compute(&mut conf);
            losses.push(loss);
            opt.delta(params.as_slice(), &grad, &mut delta);
            // Recv + Reduce, exactly as in the threaded runtime.
            let step = if let Some(s) = cfg.staleness {
                stale_recv(
                    &mut ctx,
                    &queue,
                    &in_neighbors,
                    k,
                    s,
                    "a satisfactory update",
                    &mut conf,
                )
                .map_err(|e| stall_or_peer(&out_links, &in_links, &e))?;
                let collected = ctx.collect_newest(&in_neighbors, &mut step, &mut conf);
                let step = step.reduce(&mut conf);
                let views: Vec<(u64, &[f32])> = collected
                    .iter()
                    .map(|(iter, p)| (*iter, p.as_slice()))
                    .collect();
                semantics::reduce_staleness_with(
                    cfg.staleness_weighting,
                    &views,
                    k,
                    s,
                    params.overwrite_mut(&mut ctx.pool),
                );
                step
            } else {
                let quota = semantics::backup_quota(in_deg, cfg.n_backup);
                let mut entries = queue
                    .dequeue(quota, TagFilter::iter(k), spec.stall_timeout)
                    .map_err(|_| {
                        stall_or_peer(&out_links, &in_links, &ctx.stall(k, "updates", &queue))
                    })?;
                entries.extend(queue.dequeue_up_to(in_deg - quota, TagFilter::iter(k)));
                for entry in &entries {
                    ctx.last_consumed = Some(entry.tag);
                    step.consume(&mut conf, entry.tag.w_id, entry.tag.iter);
                }
                let step = step.reduce(&mut conf);
                let views: Vec<&[f32]> = entries.iter().map(|e| e.value.as_slice()).collect();
                semantics::reduce_mean(&views, params.overwrite_mut(&mut ctx.pool));
                drop(views);
                for entry in entries {
                    ctx.pool.reclaim(entry.value);
                }
                step
            };
            semantics::apply_parallel(params.make_mut(), &delta);
            // Advance: the §5 skip decision over the token mirrors, else
            // one token from every out-going neighbor's mirror.
            let mut next = k + 1;
            entry_tokens = 1;
            if let (Some(ig), false) = (max_ig, out_links.is_empty()) {
                let decision = cfg.skip.as_ref().and_then(|skip| {
                    let counts: Vec<u64> =
                        out_links.iter().map(|l| mirror(l).available()).collect();
                    semantics::jump_decision(&counts, ig, skip)
                        .map(|j| j.min(max_iters - k))
                        .filter(|&j| j >= 2)
                        .map(|jump| (jump, counts))
                });
                if let Some((jump, counts)) = decision {
                    let renew = step.jump(&mut conf, k + jump, &counts);
                    for link in &out_links {
                        // Only this loop removes from the mirror, so the
                        // observed count cannot shrink under us.
                        assert!(
                            mirror(link).try_remove(jump),
                            "observed tokens vanished from the TokenQ({} -> {w}) mirror",
                            link.o
                        );
                        renew.take_tokens(&mut conf, link.o);
                    }
                    for link in &mut in_links {
                        choreography::token_grant(&mut conf, w, link.u, jump);
                        send_tokens(link, jump, &clock)?;
                    }
                    entry_tokens = 0;
                    next = k + jump;
                    jump_renew(
                        &mut ctx,
                        &queue,
                        &externals_in,
                        &mut params,
                        &mut opt,
                        k,
                        renew,
                        &mut conf,
                    )
                    .map_err(|e| stall_or_peer(&out_links, &in_links, &e))?;
                } else {
                    for link in &out_links {
                        mirror(link).remove(1, spec.stall_timeout).map_err(|_| {
                            let available: Vec<(usize, u64)> = out_links
                                .iter()
                                .map(|l| (l.o, mirror(l).available()))
                                .collect();
                            stall_or_peer(&out_links, &in_links, &ctx.stall_tokens(k, available))
                        })?;
                        step.take_token(&mut conf, link.o);
                    }
                    step.complete();
                }
            } else {
                step.complete();
            }
            k = next;
        }
        choreography::advance_only(&mut conf, w, max_iters);
        // Final courtesy: flood tokens so lagging neighbors can finish
        // without waiting on this (now finished) worker, then say
        // goodbye on every link. Both are best-effort — a peer that
        // already left cannot need them.
        if max_ig.is_some() {
            for link in &mut in_links {
                choreography::token_grant(&mut conf, w, link.u, max_iters);
                let c = clock.load(Ordering::SeqCst);
                let _ = write_message(
                    &mut link.stream,
                    &Message::Token {
                        count: max_iters,
                        clock: c,
                    },
                );
            }
        }
        for link in &mut out_links {
            let _ = write_message(&mut link.stream, &Message::Finished { worker: w as u32 });
        }
        for link in &mut in_links {
            let _ = write_message(&mut link.stream, &Message::Finished { worker: w as u32 });
        }
        Ok(())
    })();

    let events = conf.map(SeqSink::into_events).unwrap_or_default();
    match loop_result {
        Ok(()) => Ok((params.to_vec(), losses, wire_bytes, events)),
        Err(why) => Err((why, events)),
    }
}

/// The out-link's token mirror (present whenever the config has token
/// queues; the advance paths are only reached under `max_ig`).
fn mirror(link: &OutLink) -> &SharedTokenQueue {
    link.tokens
        .as_ref()
        .expect("token mirror exists when max_ig is set")
}

/// Prefers a peer-loss diagnosis over the bare stall `e` — a dead peer
/// is the cause; the stall is the symptom.
fn stall_or_peer(
    out_links: &[OutLink],
    in_links: &[InLink],
    e: &crate::threaded::ThreadedError,
) -> String {
    link_failure(out_links, in_links).unwrap_or_else(|| e.to_string())
}

/// Writes one token-grant frame on an in-link (grants flow against the
/// update direction). Errors to peers that already said `Finished` are
/// benign.
fn send_tokens(link: &mut InLink, count: u64, clock: &AtomicU64) -> Result<(), String> {
    let c = clock.load(Ordering::SeqCst);
    match write_message(&mut link.stream, &Message::Token { count, clock: c }) {
        Ok(_) => Ok(()),
        Err(_) if link.state.finished.load(Ordering::SeqCst) => Ok(()),
        Err(e) => Err(format!("token grant to worker {}: {e}", link.u)),
    }
}

/// Writes a pre-encoded frame on an out-link, tolerating only peers
/// that already finished.
fn write_frame(
    stream: &mut TcpStream,
    frame: &[u8],
    state: &Arc<LinkState>,
    what: &str,
) -> Result<(), String> {
    use std::io::Write;
    match stream.write_all(frame).and_then(|()| stream.flush()) {
        Ok(()) => Ok(()),
        Err(_) if state.finished.load(Ordering::SeqCst) => Ok(()),
        Err(e) => Err(format!("writing {what} to worker {}: {e}", state.peer)),
    }
}

/// Reader thread for an in-link: decodes update frames, max-merges the
/// Lamport clock, reconstructs compressed payloads through a per-sender
/// reference stream, and enqueues into the worker's own tagged queue.
/// Fails closed on any malformed, mistyped, or mis-sized frame.
#[allow(clippy::too_many_arguments)]
fn update_reader(
    mut stream: TcpStream,
    u: usize,
    dim: usize,
    compression: CompressionConfig,
    init: Vec<f32>,
    queue: Arc<SharedTaggedQueue<ParamBlock>>,
    clock: Arc<AtomicU64>,
    state: Arc<LinkState>,
) -> impl FnOnce() + Send + 'static {
    move || {
        let mut plane = CompressionPlane::new(compression);
        plane.add_param_streams(1, &init);
        // The mirror's buffers cycle through here: a reconstruction the
        // worker has consumed and dropped is the next one's storage.
        let mut pool = BufferPool::new();
        loop {
            match read_message(&mut stream) {
                Ok(Message::Update {
                    tag,
                    clock: c,
                    block,
                }) => {
                    if tag.w_id != u {
                        state.fail(format!(
                            "update tagged from worker {}, expected {u}",
                            tag.w_id
                        ));
                        return;
                    }
                    let update = if plane.is_active() {
                        let kind_ok = matches!(
                            (compression, &block),
                            (
                                CompressionConfig::TopK { .. },
                                CompressedBlock::Sparse { .. }
                            ) | (
                                CompressionConfig::Int8Uniform,
                                CompressedBlock::Quantized { .. }
                            )
                        );
                        if !kind_ok || block.decoded_len() != dim {
                            state.fail(format!(
                                "update block kind/size does not match the configured codec \
                                 (got {block:?} for dim {dim})"
                            ));
                            return;
                        }
                        plane.apply_params_block(0, &block, &mut pool)
                    } else {
                        match block {
                            CompressedBlock::Dense { values } if values.len() == dim => {
                                ParamBlock::from_vec(values)
                            }
                            other => {
                                state.fail(format!(
                                    "identity stream expected a dense block of {dim} values, \
                                     got {other:?}"
                                ));
                                return;
                            }
                        }
                    };
                    clock.fetch_max(c, Ordering::SeqCst);
                    queue.enqueue(update, tag);
                }
                Ok(Message::Finished { .. }) => {
                    state.finished.store(true, Ordering::SeqCst);
                    return;
                }
                Ok(other) => {
                    state.fail(format!("unexpected {other:?} on an update link"));
                    return;
                }
                Err(e) => {
                    if !state.finished.load(Ordering::SeqCst) {
                        state.fail(format!("worker {u} died mid-stream: {e}"));
                    }
                    return;
                }
            }
        }
    }
}

/// Reader thread for an out-link: mirrors the peer's token grants into
/// the local [`SharedTokenQueue`] after max-merging the Lamport clock.
fn token_reader(
    mut stream: TcpStream,
    o: usize,
    tokens: Option<Arc<SharedTokenQueue>>,
    clock: Arc<AtomicU64>,
    state: Arc<LinkState>,
) -> impl FnOnce() + Send + 'static {
    move || loop {
        match read_message(&mut stream) {
            Ok(Message::Token { count, clock: c }) => {
                clock.fetch_max(c, Ordering::SeqCst);
                match &tokens {
                    Some(q) => q.insert(count),
                    None => {
                        state.fail(format!(
                            "worker {o} granted tokens but the config has no token queues"
                        ));
                        return;
                    }
                }
            }
            Ok(Message::Finished { .. }) => {
                state.finished.store(true, Ordering::SeqCst);
                return;
            }
            Ok(other) => {
                state.fail(format!("unexpected {other:?} on a token link"));
                return;
            }
            Err(e) => {
                if !state.finished.load(Ordering::SeqCst) {
                    state.fail(format!("worker {o} died mid-stream: {e}"));
                }
                return;
            }
        }
    }
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
                assert_eq!(spec.n, 5);
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
                let topo = Topology::from_edges(spec.n, &spec.edges);
                assert_eq!(topo.external_edges(), exp.topology.external_edges());
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for (broken, needle) in [
            ("w=0", "missing"),
            ("w=0\nnot a line", "key=value"),
            (&experiment().spec_text(0, false).replace('>', "&"), "edge"),
            (
                &experiment()
                    .spec_text(0, false)
                    .replace("compression=identity", "compression=zip"),
                "compression",
            ),
        ] {
            let err = WorkerSpec::parse(broken).expect_err("must reject");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn process_spec_is_grammar_valid() {
        choreography::validate_spec(&CHOREOGRAPHY).expect("process spec validates");
    }

    #[test]
    fn stamped_event_merge_orders_by_lamport_stamp() {
        let mk = |events: &str| {
            Some(Summary {
                ok: true,
                error: String::new(),
                update_wire_bytes: 0,
                final_params: Vec::new(),
                losses: Vec::new(),
                events_text: events.to_string(),
            })
        };
        let summaries = vec![
            mk("0 advance w=0 iter=0\n5 send from=0 to=1 iter=0\n"),
            mk("7 consume w=1 from=0 iter=0 at=0\n0 advance w=1 iter=0\n"),
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
        let with_hole = vec![mk("3 advance w=0 iter=1\n"), None];
        assert_eq!(
            merge_stamped_events(&with_hole).unwrap(),
            "advance w=0 iter=1\n"
        );
        let bad = vec![mk("advance w=0 iter=0\n")];
        assert!(matches!(
            merge_stamped_events(&bad),
            Err(ProcessError::Protocol(_))
        ));
    }
}
