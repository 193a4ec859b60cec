//! The multi-process runtime: Hop's queue-based protocol across OS
//! *processes* on one host, speaking the [`hop_wire`] length-prefixed
//! frame format through shared-memory rings.
//!
//! A [`ProcessExperiment`] plays coordinator: in a private run
//! directory (mode `0o700`, removed with its files however the run
//! ends) it listens on `coordinator.sock`, re-execs the worker binary
//! (`hop_worker --worker <coordinator-socket> <id>`) once per worker,
//! hands each its spec (a [`Message::Spec`] frame) and collects one
//! [`Message::Summary`] per worker at the end. Worker `w` listens on
//! `<w>.sock` beside it, so nothing is exchanged to find a peer.
//! Workers connect to each other directly — one link per directed
//! external edge `w -> o`, carrying `w`'s updates one way and `o`'s
//! token grants the other — and run the one Hop worker machine under
//! the real executor (`crate::worker`, shared with [`crate::threaded`])
//! over the transport defined here. Outbound, delivering an update is
//! one encoded frame fanned out to the out-links and a token grant is a
//! frame on an in-link.
//!
//! A link's frames travel through a pair of single-producer/single-
//! consumer byte rings, one per direction, in a file mapping both workers
//! share: `w` creates `<w>-<o>.ring` in the run directory before its
//! hello, and `o` maps it and unlinks it on accepting the connection (the
//! private `ring` module). Sending a frame copies it into a ring, and a
//! frame the ring cannot take whole keeps its tail in the link's buffer;
//! receiving copies the ring out and decodes frames in place. No system
//! call is on that path. The link's Unix-domain socket carries only the
//! hello, one-byte doorbells, and the EOF of a peer's exit. After set-up a
//! worker process runs one thread, and whenever the loop waits it pumps
//! every link (unsent tails flushed, every ring read) into the worker's
//! own inbox until the wait is satisfied. No write can block the loop, so
//! two peers writing at each other cannot deadlock. A wait first pumps
//! without blocking a few times, yielding the core in between, and only
//! then parks: it flags each ring it waits on (for bytes, or for room for
//! an unsent tail), looks once more, and sleeps in `poll(2)` on the
//! sockets. A worker that moves bytes rings a doorbell only when the
//! flag says the other end is parked.
//!
//! The fleet is single-host by construction, so its links need no kernel
//! on the data path. On `proc_ring4_int8` (2-core x86-64 Linux host) a
//! worker-iteration cost about 21 µs of CPU over sockets, 10 µs of it
//! system time spent in per-frame `send`, `poll` and `recv` calls; over
//! rings it costs about 13 µs, 2.5 µs of it system time, mostly the
//! parks' `poll` and doorbells.
//!
//! # Wire accounting
//!
//! An update frame embeds its [`CompressedBlock`] in exactly
//! [`CompressedBlock::encoded_bytes`] payload bytes, and a worker counts
//! every *attempted* external send (exactly like the simulator's charge
//! to its virtual network), so the summed
//! [`RuntimeReport::update_wire_bytes`] equals the simulator's
//! `bytes_sent` for the same grid point by construction — the number is
//! measured on the real links, not modeled.
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
//! Everything fails closed. The spec a worker receives is read with
//! [`hop_wire::Body`]'s bounds-checks, field by field, and validated
//! against its own topology before anything runs; a rejected spec comes
//! back as a typed summary error naming the field, not a panic.
//!
//! Links close by handshake. A finished worker floods its final tokens,
//! writes `Finished` on every link, and keeps pumping every link until the
//! peer's own `Finished` arrives (bounded by `stall_timeout`) before the
//! process exits, so every frame a peer wrote before its `Finished` is
//! read. Only the pump gives a link its verdict — the peer finished, or
//! the link broke (a corrupt ring header, a corrupt or unexpected frame,
//! or the peer's socket at EOF without `Finished`) — and the first broken
//! link fails the wait in progress and every later transport call, naming
//! the peer. EOF is acted on only once the peer's ring is drained: a peer
//! whose `Finished` is in it left on its own (a late token grant to it is
//! benign), while a peer that died mid-run surfaces as a peer loss naming
//! it, not as a bare I/O string or a stall. Each ring's shared positions
//! are checked against its capacity before use, so a corrupt header fails
//! its link closed and nothing is read or written outside the mapping.
//! The coordinator turns missing summaries into
//! [`RuntimeError::PeerLost`]; a failed traced run hands back the
//! survivors' partial merged trace in its [`FailedRun`], for the caller
//! to write out and replay offline.

use crate::choreography::SeqSink;
use crate::config::{ComputeOrder, HopConfig, SkipConfig, SyncMode};
use crate::conformance::{parse_event, ProtocolEvent, ProtocolTrace};
use crate::report::{FailedRun, RuntimeError, RuntimeReport};
use crate::semantics::StalenessWeighting;
use crate::sim_runtime::compression::CompressionPlane;
use crate::trainer::Hyper;
use crate::worker::{
    assemble, validate, worker_loop, Inbox, Transport, WorkerJob, WorkerOutcome, WorkerRun,
};
use hop_data::webspam::SyntheticWebspam;
use hop_data::Dataset;
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::Model;
use hop_queue::tagged::{Tag, TaggedEntry};
use hop_sim::FaultPlan;
use hop_tensor::{BufferPool, CompressedBlock, CompressionConfig, ParamBlock};
use hop_wire::{read_message, write_message, Body, Frame, Message, WireError};
use std::fmt::Write as _;
use std::fs::DirBuilder;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::os::unix::fs::DirBuilderExt as _;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

mod ring;
use ring::{Corrupt, RingPair};

/// A process-per-worker decentralized training run on one host.
///
/// The workload is the conformance suite's synthetic webspam SVM,
/// reconstructed identically on each worker from `(examples,
/// data_seed)` — a model cannot be shipped through a link, but its
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
    /// Timeout for any single wait in a worker before declaring a stall.
    pub stall_timeout: Duration,
    /// The worker binary to re-exec (`hop_worker`; tests use
    /// `env!("CARGO_BIN_EXE_hop_worker")`, the smoke mode uses
    /// `std::env::current_exe()`).
    pub worker_bin: PathBuf,
    /// Fault hook: `(worker, iter)` makes that worker `exit(101)` at the
    /// given iteration entry — no `Finished`, no summary — so tests can
    /// exercise the peer-loss path deterministically.
    pub die_at: Option<(usize, u64)>,
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
        }
    }

    /// Runs the experiment with one OS process per worker.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] / [`RuntimeError::Unsupported`] for bad
    /// configurations, [`RuntimeError::Handshake`] when the fleet never
    /// assembles, [`RuntimeError::PeerLost`] when a worker process dies
    /// mid-run, and [`RuntimeError::WorkerFailed`] when a worker
    /// reports a protocol failure (e.g. a stall) in its summary.
    pub fn run(&self) -> Result<RuntimeReport, RuntimeError> {
        let run = self.run_inner(false);
        run.map(|(report, _)| report).map_err(|failed| failed.error)
    }

    /// [`Self::run`] with conformance recording: also returns the
    /// Lamport-merged [`ProtocolTrace`], ready for
    /// [`crate::conformance::Oracle::check`].
    ///
    /// # Errors
    ///
    /// Exactly [`Self::run`]'s errors, plus [`RuntimeError::Protocol`]
    /// if a worker's event log fails to parse, each with the merged
    /// partial trace.
    pub fn run_traced(&self) -> Result<(RuntimeReport, ProtocolTrace), FailedRun> {
        self.run_inner(true)
    }

    fn run_inner(&self, traced: bool) -> Result<(RuntimeReport, ProtocolTrace), FailedRun> {
        let (workers, elapsed) = self.run_fleet(traced)?;
        assemble(workers, elapsed)
    }

    /// Runs the fleet: every worker's share of the run, from its summary
    /// (a lost worker's is [`RuntimeError::PeerLost`]), and the run's
    /// wall-clock time up to the fleet's reaping.
    fn run_fleet(&self, traced: bool) -> Result<(Vec<WorkerRun>, Duration), RuntimeError> {
        validate(&self.config, &self.topology, &FaultPlan::none())?;
        let n = self.topology.len();
        // Declared before the fleet, so dropped after it: the workers are
        // reaped before their sockets and rings go.
        let run_dir = RunDir::create(&std::env::temp_dir())?;
        let addr = run_dir.0.join(COORDINATOR_SOCKET);
        let listener = UnixListener::bind(&addr).map_err(|error| RuntimeError::Io {
            context: "bind coordinator socket",
            error,
        })?;
        let start = Instant::now();
        let mut children = Fleet(Vec::with_capacity(n));
        for w in 0..n {
            let child = Command::new(&self.worker_bin)
                .arg("--worker")
                .arg(&addr)
                .arg(w.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|error| RuntimeError::Io {
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
        .map_err(RuntimeError::Handshake)?;
        // Hand every worker its spec, then let the fleet run.
        for (w, conn) in conns.iter_mut().enumerate() {
            let spec = Message::Spec {
                body: self.worker_spec(w, traced).encode(),
            };
            write_message(conn, &spec).map_err(|error| RuntimeError::Wire {
                context: "send worker spec",
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
        // Each worker's outcome or error, with its stamped event log
        // (empty for a worker that never reported).
        let mut summaries = Vec::with_capacity(n);
        for (w, stream) in conns.iter_mut().enumerate() {
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(10));
            stream.set_read_timeout(Some(remaining)).ok();
            let why = match read_message(stream) {
                Ok(Message::Summary {
                    worker,
                    ok,
                    error,
                    update_wire_bytes,
                    final_params,
                    losses,
                    events_text,
                }) if worker as usize == w => {
                    let outcome = WorkerOutcome {
                        params: final_params,
                        losses,
                        wire_bytes: update_wire_bytes,
                        ..WorkerOutcome::default()
                    };
                    let failed = || RuntimeError::WorkerFailed { worker: w, error };
                    summaries.push((ok.then_some(outcome).ok_or_else(failed), events_text));
                    continue;
                }
                Ok(other) => format!("sent {other:?} instead of its summary"),
                Err(e) => e.to_string(),
            };
            let failures = vec![(w, why)];
            summaries.push((Err(RuntimeError::PeerLost { failures }), String::new()));
        }
        drop(children); // reap the fleet before reporting
        let elapsed = start.elapsed();
        let parsed = summaries
            .into_iter()
            .enumerate()
            .map(|(w, (outcome, log))| {
                parse_stamped(w, &log)
                    .map_or_else(|e| (Err(e), Vec::new()), |events| (outcome, events))
            });
        Ok((parsed.collect(), elapsed))
    }

    /// The spec worker `w` runs.
    fn worker_spec(&self, w: usize, traced: bool) -> WorkerSpec {
        WorkerSpec {
            w,
            topology: self.topology.clone(),
            max_iters: self.max_iters,
            seed: self.seed,
            cfg: self.config.clone(),
            hyper: self.hyper,
            examples: self.examples,
            data_seed: self.data_seed,
            compute_sleep: match self.slow_worker {
                Some((slow, factor)) if slow == w => self.compute_sleep * factor,
                _ => self.compute_sleep,
            },
            stall_timeout: self.stall_timeout,
            traced,
            die_at: self.die_at.and_then(|(dw, iter)| (dw == w).then_some(iter)),
        }
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

/// The coordinator's socket in the run directory: no worker's name (of
/// fewer than 10^11) is longer, so if its path fits in `sun_path` all do.
const COORDINATOR_SOCKET: &str = "coordinator.sock";

/// Where worker `w` listens for its update senders in the run directory.
fn worker_socket(dir: &Path, w: usize) -> PathBuf {
    dir.join(format!("{w}.sock"))
}

/// The shared rings of link `u -> w` in the run directory, from `u`'s
/// creating them until `w` has mapped them.
fn ring_file(dir: &Path, u: usize, w: usize) -> PathBuf {
    dir.join(format!("{u}-{w}.ring"))
}

/// The fleet's private run directory, `hop-<pid>-<n>` under a base
/// directory, holding every socket and ring file of one run. Only its
/// owner may enter it (mode `0o700`); it is removed, files and all, on
/// drop, or by a later [`RunDir::create`] if its process died first.
struct RunDir(PathBuf);

impl RunDir {
    /// Creates a fresh run directory under `base`, or fails closed, naming
    /// the path, when its sockets' paths would not fit in `sun_path`.
    /// First removes the run directories under `base` that processes
    /// which no longer exist left behind (one killed by a signal never
    /// runs `Drop`).
    fn create(base: &Path) -> Result<RunDir, RuntimeError> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        Self::remove_orphans(base);
        loop {
            let n = RUNS.fetch_add(1, Ordering::Relaxed);
            let dir = base.join(format!("hop-{}-{n}", std::process::id()));
            let addr = dir.join(COORDINATOR_SOCKET);
            let made = SocketAddr::from_pathname(&addr)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", addr.display())))
                .and_then(|_| DirBuilder::new().mode(0o700).create(&dir));
            match made {
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
                made => {
                    let context = "create the run directory";
                    return made
                        .map(|()| RunDir(dir))
                        .map_err(|error| RuntimeError::Io { context, error });
                }
            }
        }
    }

    /// Removes every `hop-<pid>-<n>` directory under `base` whose `pid`
    /// names no process. One whose process is alive (or exists but is
    /// not ours to signal) stays; removal errors are ignored.
    fn remove_orphans(base: &Path) {
        let Ok(entries) = std::fs::read_dir(base) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let pid = name
                .to_str()
                .and_then(|name| name.strip_prefix("hop-")?.split_once('-'))
                .filter(|(_, n)| n.parse::<u64>().is_ok())
                .and_then(|(pid, _)| pid.parse::<i32>().ok());
            let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
            if is_dir && pid.is_some_and(sys::no_such_process) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Worker `w`'s stamped event log, one `<stamp> <event>` per line,
/// parsed.
fn parse_stamped(w: usize, log: &str) -> Result<Vec<(u64, ProtocolEvent)>, RuntimeError> {
    let lines = log.lines().map(str::trim).filter(|l| !l.is_empty());
    lines
        .map(|line| {
            let bad =
                |why: String| RuntimeError::Protocol(format!("worker {w} sent `{line}`: {why}"));
            let (stamp, event) = line
                .split_once(' ')
                .ok_or_else(|| bad("unstamped event".to_string()))?;
            let stamp = stamp.parse().map_err(|e| bad(format!("bad stamp: {e}")))?;
            Ok((stamp, parse_event(event).map_err(bad)?))
        })
        .collect()
}

/// Accepts connections on `listener` until every worker id in `expected`
/// has identified itself with a [`Message::Hello`], returning the streams
/// in `expected` order. Ids outside `expected` and repeated ids are
/// rejected. `idle` runs whenever no connection is pending, with the
/// slots filled so far, and at least every `IDLE_EVERY` while none
/// arrives.
fn accept_hellos(
    listener: &UnixListener,
    expected: &[usize],
    deadline: Instant,
    mut idle: impl FnMut(&[Option<UnixStream>]) -> Result<(), String>,
) -> Result<Vec<UnixStream>, String> {
    /// How long a quiet listener waits before `idle` looks again (the
    /// coordinator's check for a worker that died before its hello).
    const IDLE_EVERY: Duration = Duration::from_millis(50);
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("poll listener: {e}"))?;
    let mut slots: Vec<Option<UnixStream>> = expected.iter().map(|_| None).collect();
    while slots.iter().any(Option::is_none) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("configure accepted socket: {e}"))?;
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let id = match read_message(&mut stream) {
                    Ok(Message::Hello { worker }) => worker as usize,
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
                slots[slot] = Some(stream);
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

/// Everything a worker runs: what the coordinator encodes into the
/// [`Message::Spec`] frame, and what the worker decodes from it, failing
/// closed.
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

/// Appends each value's little-endian bytes.
fn put<const N: usize>(out: &mut Vec<u8>, values: impl IntoIterator<Item = [u8; N]>) {
    out.extend(values.into_iter().flatten());
}

/// Appends an optional `u64` as a presence byte and, if present, the
/// value.
fn put_opt(out: &mut Vec<u8>, value: Option<u64>) {
    out.push(u8::from(value.is_some()));
    put(out, value.map(u64::to_le_bytes));
}

/// Names the spec field a failed read was after.
fn field<T>(name: &str, read: Result<T, WireError>) -> Result<T, String> {
    read.map_err(|e| format!("spec `{name}`: {e}"))
}

/// Reads a `u64` count or id.
fn size(b: &mut Body<'_>, name: &str) -> Result<usize, String> {
    field(name, b.u64()).map(|v| v as usize)
}

/// Reads a count that must be positive.
fn positive(b: &mut Body<'_>, name: &str) -> Result<usize, String> {
    match size(b, name)? {
        0 => Err(format!("spec `{name}` must be positive")),
        v => Ok(v),
    }
}

/// Reads a presence (or flag) byte: 0 or 1.
fn present(b: &mut Body<'_>, name: &str) -> Result<bool, String> {
    match field(name, b.u8())? {
        0 => Ok(false),
        1 => Ok(true),
        byte => Err(format!("spec `{name}` has presence byte {byte}")),
    }
}

/// Reads what [`put_opt`] wrote.
fn opt(b: &mut Body<'_>, name: &str) -> Result<Option<u64>, String> {
    present(b, name)?.then(|| field(name, b.u64())).transpose()
}

impl WorkerSpec {
    /// The spec as a [`Message::Spec`] body: little-endian fields in
    /// [`Self::decode`]'s order, integers as `u64`, durations in
    /// nanoseconds, an option as a presence byte before its
    /// value, and each enum as a kind byte before its payload.
    fn encode(&self) -> Vec<u8> {
        let (cfg, hyper, mut out) = (&self.cfg, &self.hyper, Vec::new());
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let edges = self.topology.external_edges();
        let ids = edges.iter().flat_map(|&(u, v)| [u, v]);
        let head = [self.topology.len(), self.w, edges.len()].into_iter();
        put(&mut out, head.chain(ids).map(|v| (v as u64).to_le_bytes()));
        put(&mut out, [self.max_iters, self.seed].map(u64::to_le_bytes));
        put_opt(&mut out, cfg.max_ig());
        put(&mut out, [cfg.n_backup as u64].map(u64::to_le_bytes));
        put_opt(&mut out, cfg.staleness);
        let skip = cfg.skip.as_ref();
        put_opt(&mut out, skip.map(|s| s.max_jump));
        put(&mut out, skip.map(|s| s.trigger_behind.to_le_bytes()));
        let (weighting, decay) = match cfg.staleness_weighting {
            StalenessWeighting::Linear => (0, None),
            StalenessWeighting::Uniform => (1, None),
            StalenessWeighting::Exponential { decay } => (2, Some(decay)),
        };
        out.push(weighting);
        put(&mut out, decay.map(f32::to_le_bytes));
        let (compression, ratio) = match cfg.compression {
            CompressionConfig::Identity => (0, None),
            CompressionConfig::TopK { ratio } => (1, Some(ratio)),
            CompressionConfig::Int8Uniform => (2, None),
        };
        out.push(compression);
        put(&mut out, ratio.map(f32::to_le_bytes));
        let floats = [hyper.lr, hyper.momentum, hyper.weight_decay];
        put(&mut out, floats.map(f32::to_le_bytes));
        let sizes = [hyper.batch_size, self.examples].map(|v| v as u64);
        let rest = [
            self.data_seed,
            nanos(self.compute_sleep),
            nanos(self.stall_timeout),
        ];
        put(
            &mut out,
            sizes.into_iter().chain(rest).map(u64::to_le_bytes),
        );
        out.push(u8::from(self.traced));
        put_opt(&mut out, self.die_at);
        out
    }

    /// Decodes [`Self::encode`]'s layout, failing closed: a body too
    /// short for a field or with bytes left over, an unknown kind byte,
    /// out-of-range ids, zero sizes, and a config that does not validate
    /// against the shipped topology are all rejected with a message naming
    /// the field.
    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut body = Body::new(bytes);
        let b = &mut body;
        let (n, w) = (size(b, "n")?, size(b, "w")?);
        if w >= n {
            return Err(format!("spec `w`={w} is out of range for n={n}"));
        }
        let mut edges = Vec::new();
        for _ in 0..size(b, "edges")? {
            let (u, v) = (size(b, "edges")?, size(b, "edges")?);
            if u >= n || v >= n {
                return Err(format!("spec edge {u}>{v} is out of range for n={n}"));
            }
            edges.push((u, v));
        }
        let topology = Topology::from_edges(n, &edges);
        let spec = WorkerSpec {
            max_iters: field("max_iters", b.u64())?,
            seed: field("seed", b.u64())?,
            cfg: HopConfig {
                order: ComputeOrder::Parallel,
                sync: SyncMode::Queues {
                    max_ig: opt(b, "max_ig")?,
                },
                n_backup: size(b, "n_backup")?,
                staleness: opt(b, "staleness")?,
                skip: match opt(b, "skip")? {
                    Some(max_jump) => Some(SkipConfig {
                        max_jump,
                        trigger_behind: field("skip", b.u64())?,
                    }),
                    None => None,
                },
                staleness_weighting: match field("weighting", b.u8())? {
                    0 => StalenessWeighting::Linear,
                    1 => StalenessWeighting::Uniform,
                    2 => StalenessWeighting::Exponential {
                        decay: field("weighting", b.f32())?,
                    },
                    kind => return Err(format!("spec `weighting` has unknown kind {kind}")),
                },
                compression: match field("compression", b.u8())? {
                    0 => CompressionConfig::Identity,
                    1 => CompressionConfig::TopK {
                        ratio: field("compression", b.f32())?,
                    },
                    2 => CompressionConfig::Int8Uniform,
                    kind => return Err(format!("spec `compression` has unknown kind {kind}")),
                },
            },
            hyper: Hyper {
                lr: field("lr", b.f32())?,
                momentum: field("momentum", b.f32())?,
                weight_decay: field("weight_decay", b.f32())?,
                batch_size: positive(b, "batch_size")?,
            },
            examples: positive(b, "examples")?,
            data_seed: field("data_seed", b.u64())?,
            compute_sleep: Duration::from_nanos(field("compute_sleep", b.u64())?),
            stall_timeout: Duration::from_nanos(field("stall_timeout", b.u64())?),
            traced: present(b, "traced")?,
            die_at: opt(b, "die_at")?,
            w,
            topology,
        };
        field("end", body.finish())?;
        spec.cfg
            .validate(&spec.topology)
            .map_err(|e| format!("spec config is invalid for its topology: {e}"))?;
        Ok(spec)
    }
}

/// `poll(2)`, the one readiness call the coordinator's accept loop and a
/// parked worker need and std does not wrap, and `kill(2)`'s existence
/// probe for run directories whose owner is gone.
mod sys {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    pub(super) const POLLIN: i16 = 0x1;

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
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    /// `ESRCH` ("no such process") on Linux and the BSDs.
    const ESRCH: i32 = 3;

    /// Whether `pid` names no process: `kill(pid, 0)` fails with `ESRCH`.
    /// Any other outcome, `EPERM` (it exists but is not ours) included,
    /// says it may still exist. Process groups (`pid <= 0`) never match.
    pub(super) fn no_such_process(pid: c_int) -> bool {
        // SAFETY: signal 0 only checks that `pid` could be signalled and
        // delivers nothing; the call takes no pointers.
        pid > 0
            && unsafe { kill(pid, 0) } != 0
            && io::Error::last_os_error().raw_os_error() == Some(ESRCH)
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

/// Free space a link's read buffer keeps for the next ring read: one
/// read takes in every byte the ring holds, a large frame arrives over
/// several.
const READ_CHUNK: usize = RING_BYTES;

/// Bytes of each of a link's two shared rings.
const RING_BYTES: usize = 64 * 1024;

/// Which frames a link carries to this worker.
#[allow(clippy::large_enum_variant)] // a few per worker, set up once
enum Inbound {
    /// An out-link `w -> o`: `o`'s grants into `TokenQ(o -> w)`.
    Tokens,
    /// An in-link `u -> w`: `u`'s updates, compressed ones reconstructed
    /// through this worker's mirror of `u`'s reference stream.
    Updates {
        plane: CompressionPlane,
        /// The mirror's buffers, and a dense update's: a block the worker
        /// has consumed and dropped is the next one's storage.
        pool: BufferPool,
    },
}

/// One connection to a peer: frames travel through its pair of shared
/// rings, and its socket carries only doorbells and, when the peer exits,
/// EOF. On an out-link `w -> o` this worker writes update frames and reads
/// `o`'s token grants; on an in-link `u -> w` it reads `u`'s updates and
/// writes token grants back.
struct Link {
    peer: usize,
    stream: UnixStream,
    rings: RingPair,
    inbound: Inbound,
    /// Bytes read so far; `read[decoded..filled]` is not a whole frame
    /// yet.
    read: Vec<u8>,
    /// The block of the last update frame read, kept so that the next
    /// one decodes into its buffers.
    block: CompressedBlock,
    decoded: usize,
    filled: usize,
    /// Frame bytes the ring has not taken yet, from `out[sent..]`.
    out: Vec<u8>,
    sent: usize,
    /// The peer said `Finished`: nothing more will arrive.
    finished: bool,
    /// This worker writes nothing more here: its own `Finished` is in the
    /// ring, or the peer finished and left.
    shut: bool,
    /// The link failed (the transport keeps why): neither read nor
    /// written again.
    broken: bool,
    /// The peer's socket reached EOF (or a reset): the peer has exited.
    /// What that means waits until its ring is drained.
    gone: bool,
}

impl Link {
    fn new(
        peer: usize,
        stream: UnixStream,
        rings: RingPair,
        inbound: Inbound,
    ) -> Result<Link, String> {
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("configure peer socket: {e}"))?;
        Ok(Link {
            peer,
            stream,
            rings,
            inbound,
            read: Vec::new(),
            block: CompressedBlock::default(),
            decoded: 0,
            filled: 0,
            out: Vec::new(),
            sent: 0,
            finished: false,
            shut: false,
            broken: false,
            gone: false,
        })
    }

    fn reading(&self) -> bool {
        !self.finished && !self.broken
    }

    fn writing(&self) -> bool {
        !self.out.is_empty() && !self.broken
    }

    /// Queues `frame` behind any bytes still unsent and copies what the
    /// ring takes now. Never waits: the pump flushes the rest.
    fn send(&mut self, frame: &[u8]) -> Result<(), Corrupt> {
        if self.shut || self.broken {
            return Ok(());
        }
        if !self.out.is_empty() {
            self.out.extend_from_slice(frame);
            return self.flush().map(drop);
        }
        let n = self.rings.write(frame)?;
        self.out.extend_from_slice(&frame[n..]);
        self.wrote(n);
        Ok(())
    }

    /// Copies as much unsent output as the ring takes now; says whether
    /// any moved.
    fn flush(&mut self) -> Result<bool, Corrupt> {
        let n = self.rings.write(&self.out[self.sent..])?;
        self.sent += n;
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        self.wrote(n);
        Ok(n > 0)
    }

    /// After `n` bytes went into the ring: rings the peer if it parked
    /// waiting for them.
    fn wrote(&self, n: usize) {
        if n > 0 && self.rings.reader_parked() {
            self.ring_bell();
        }
    }

    /// One ring read into the buffer behind the undecoded bytes; rings
    /// the peer if it parked waiting for the room this frees.
    fn read_once(&mut self) -> Result<usize, Corrupt> {
        if self.read.len() - self.filled < READ_CHUNK {
            self.read.copy_within(self.decoded..self.filled, 0);
            self.filled -= self.decoded;
            self.decoded = 0;
            if self.read.len() < self.filled + READ_CHUNK {
                self.read.resize(self.filled + READ_CHUNK, 0);
            }
        }
        let n = self.rings.read(&mut self.read[self.filled..])?;
        self.filled += n;
        if n > 0 && self.rings.writer_parked() {
            self.ring_bell();
        }
        Ok(n)
    }

    /// Sends the peer a one-byte doorbell. A failure is ignored: a full
    /// socket buffer already holds an unread doorbell, and a peer that
    /// has gone is judged by what its ring and its EOF say.
    fn ring_bell(&self) {
        let _ = (&self.stream).write(&[1]);
    }

    /// Reads the doorbells the peer rang, noting EOF or an error (a
    /// reset, when it exited with doorbells unread) as the peer gone.
    fn take_bells(&mut self) {
        let mut bells = [0; 64];
        self.gone |= loop {
            match (&self.stream).read(&mut bells) {
                Ok(n) if n == bells.len() => {}
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break e.kind() != ErrorKind::WouldBlock,
            }
        };
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

    /// Once this worker's `Finished` is queued: shuts the link as soon as
    /// it is in the ring, and says whether it is settled — shut with the
    /// peer's `Finished` in, or broken.
    fn settle(&mut self) -> bool {
        if !self.shut && !self.broken && self.out.is_empty() {
            self.shut = true;
        }
        self.broken || (self.shut && self.finished)
    }
}

/// The process [`Transport`]: one [`Link`] per directed external edge,
/// and no thread but the worker's own. Its pump reads what arrived in
/// every link's ring into the worker's inbox and flushes what is still
/// unsent, and parks on the links' sockets when nothing moves.
struct RingTransport<'a> {
    w: usize,
    /// Fault hook (see [`ProcessExperiment::die_at`]).
    die_at: Option<u64>,
    /// Lamport clock, shared with the event sink.
    clock: &'a AtomicU64,
    /// Out-links in [`Topology::external_out_neighbors`] order, then
    /// in-links in [`Topology::external_in_neighbors`] order.
    links: Vec<Link>,
    out_links: usize,
    /// Parameters every update decodes to.
    dim: usize,
    /// The first link failure, naming the peer. Every later call fails
    /// with it.
    failure: Option<String>,
    /// This worker's `Finished` is out on every link.
    closing: bool,
    /// The pump's `poll` set, and the link each entry watches.
    fds: Vec<sys::PollFd>,
    polled: Vec<usize>,
    dense_scratch: CompressedBlock,
    frame: Vec<u8>,
    /// Block payload bytes of every *attempted* external send.
    wire_bytes: u64,
}

impl<'a> RingTransport<'a> {
    /// Worker `w`'s transport over `links`, the first `out_links` of them
    /// its out-links, for `dim`-parameter updates; no fault hook until
    /// set.
    fn new(w: usize, clock: &'a AtomicU64, links: Vec<Link>, out_links: usize, dim: usize) -> Self {
        RingTransport {
            w,
            die_at: None,
            clock,
            links,
            out_links,
            dim,
            failure: None,
            closing: false,
            fds: Vec::new(),
            polled: Vec::new(),
            dense_scratch: CompressedBlock::Dense { values: Vec::new() },
            frame: Vec::new(),
            wire_bytes: 0,
        }
    }

    fn failed(&self) -> Result<(), RuntimeError> {
        self.failure().map_or(Ok(()), Err)
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
            self.fail(i, e);
        }
    }

    /// Reads link `i`'s ring once (if it is still being read) and takes
    /// in every whole frame it has. Says whether anything arrived.
    fn read_link(&mut self, inbox: &mut Inbox, i: usize) -> bool {
        let link = &mut self.links[i];
        if !link.reading() {
            return false;
        }
        match link.read_once() {
            Ok(0) => return false,
            Ok(_) => {
                while self.links[i].reading() {
                    let link = &mut self.links[i];
                    let unread = &link.read[link.decoded..link.filled];
                    match hop_wire::next_frame(unread, &mut link.block) {
                        Ok(Some((frame, used))) => {
                            link.decoded += used;
                            if let Err(why) = self.take(inbox, i, frame) {
                                self.fail(i, why);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => self.fail(i, e),
                    }
                }
            }
            Err(e) => self.fail(i, e),
        }
        true
    }

    /// Flushes every link's unsent output and reads every link's ring
    /// once; says whether any bytes moved.
    fn service(&mut self, inbox: &mut Inbox) -> bool {
        let mut moved = false;
        for i in 0..self.links.len() {
            if self.links[i].writing() {
                match self.links[i].flush() {
                    Ok(flushed) => moved |= flushed,
                    Err(e) => self.fail(i, e),
                }
            }
            moved |= self.read_link(inbox, i);
        }
        moved
    }

    /// Gives every link whose peer has gone its verdict, once its ring is
    /// drained: a peer that said `Finished` left on its own (nothing more
    /// is written to it — the simulator likewise charges sends to
    /// finished workers, and delivery is the receiver's problem); one
    /// that did not is lost.
    fn judge_gone(&mut self, inbox: &mut Inbox) {
        for i in 0..self.links.len() {
            if !self.links[i].gone || self.links[i].broken {
                continue;
            }
            while self.read_link(inbox, i) {}
            let link = &mut self.links[i];
            if link.reading() {
                let (peer, e) = (link.peer, link.eof());
                self.fail(i, format_args!("worker {peer} died mid-stream: {e}"));
            } else if !link.broken {
                link.shut = true;
                link.out.clear();
                link.sent = 0;
            }
        }
    }

    /// Takes one frame from link `i` into the inbox's updates or token
    /// counts, max-merging the Lamport clock it carries. Fails closed on a
    /// frame the link may not carry: a mistyped, mis-sized or
    /// misattributed update, or a grant without token queues.
    fn take(&mut self, inbox: &mut Inbox, i: usize, frame: Frame) -> Result<(), String> {
        let Self {
            links, clock, dim, ..
        } = self;
        let link = &mut links[i];
        let u = link.peer;
        let block = &mut link.block;
        match (frame, &mut link.inbound) {
            (Frame::Other(Message::Finished { .. }), _) => link.finished = true,
            (Frame::Other(Message::Token { count, clock: c }), Inbound::Tokens) => {
                let queue = inbox.tokens.get_mut(i).ok_or_else(|| {
                    format!("worker {u} granted tokens but the config has no token queues")
                })?;
                clock.fetch_max(c, Ordering::SeqCst);
                *queue += count;
            }
            (Frame::Update { tag, clock: c }, Inbound::Updates { plane, pool }) => {
                if tag.w_id != u {
                    return Err(format!(
                        "update tagged from worker {}, expected {u}",
                        tag.w_id
                    ));
                }
                let kind_ok = matches!(
                    (plane.config(), &*block),
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
                    // The values move into the update, and the block takes
                    // a buffer from the pool for the next frame; the pool
                    // keeps the update's buffer until the worker lets go.
                    CompressedBlock::Dense { values } => {
                        let update =
                            ParamBlock::from_vec(std::mem::replace(values, pool.acquire_stale(0)));
                        let received = update.snapshot();
                        pool.retire(update);
                        received
                    }
                    block => plane.apply_params_block(0, block, pool),
                };
                clock.fetch_max(c, Ordering::SeqCst);
                inbox.updates.push(TaggedEntry { value: update, tag });
            }
            (frame, inbound) => {
                let other = match frame {
                    Frame::Update { tag, clock } => Message::Update {
                        tag,
                        clock,
                        block: block.clone(),
                    },
                    Frame::Other(msg) => msg,
                };
                let carries = match inbound {
                    Inbound::Tokens => "a token link",
                    Inbound::Updates { .. } => "an update link",
                };
                return Err(format!("unexpected {other:?} on {carries}"));
            }
        }
        Ok(())
    }
}

impl Transport for RingTransport<'_> {
    /// Empty pump rounds — a look at every ring, then
    /// `thread::yield_now` — a wait makes before it parks in `poll`. In
    /// steady state the frame a worker waits for is this close: catching
    /// it here spares both processes a doorbell, a sleep and a wake-up,
    /// and yielding leaves the core to whoever is about to send it. Chosen
    /// from the perf ledger's `proc_ring4_int8` on a 2-core host (worker
    /// iterations per second, median of 5 runs of 8 s): 0 rounds 60.7 k,
    /// 5 → 134.5 k, 20 → 134.2 k, 50 → 118.3 k; over 8 alternating 10 s
    /// pairs 20 beat 5 in 5 (136.1 k against 129.6 k).
    const SPIN_ROUNDS: u32 = 20;

    /// One pump round: flushes unsent output into the rings and reads
    /// every ring. If nothing moved and `timeout` is not zero, parks:
    /// flags every ring it waits on (bytes to read until the peer's
    /// `Finished`, room for unsent output), looks once more, and sleeps in
    /// `poll` on the links' sockets until a doorbell, an EOF or `timeout`;
    /// then reads the doorbells, moves what arrived, and judges every peer
    /// that has gone. Says whether any bytes moved.
    fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool {
        let moved = self.service(inbox);
        if moved || timeout.is_zero() {
            return moved;
        }
        self.fds.clear();
        self.polled.clear();
        let mut ready = false;
        for (i, link) in self.links.iter().enumerate() {
            let (data, space) = (link.reading(), link.writing());
            if data || space {
                ready |= link.rings.park(data, space);
                self.fds.push(sys::poll_fd(&link.stream, sys::POLLIN));
                self.polled.push(i);
            }
        }
        let slept = if ready {
            Ok(())
        } else {
            sys::wait(&mut self.fds, timeout)
        };
        for j in 0..self.polled.len() {
            let link = &mut self.links[self.polled[j]];
            link.rings.unpark();
            if self.fds[j].revents != 0 {
                link.take_bells();
            }
        }
        if let Err(e) = slept {
            self.failure
                .get_or_insert_with(|| format!("polling peer links: {e}"));
            return false;
        }
        let moved = self.service(inbox);
        self.judge_gone(inbox);
        moved
    }

    fn failure(&self) -> Option<RuntimeError> {
        self.failure.clone().map(RuntimeError::Link)
    }

    fn check(&mut self, k: u64) -> Result<(), RuntimeError> {
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
        max_delta: Option<f32>,
        receivers: &[usize],
        plane: &mut CompressionPlane,
        pool: &mut BufferPool,
    ) -> Result<(), RuntimeError> {
        if self.out_links == 0 {
            return Ok(());
        }
        // One frame, encoded once (reading the clock after every Send
        // of this iteration was stamped) and fanned out.
        let block: &CompressedBlock = if plane.is_active() {
            plane
                .encode_params_block(0, params.as_slice(), max_delta, pool)
                .0
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

    fn grant(&mut self, idx: usize, n: u64) -> Result<(), RuntimeError> {
        let grant = Message::Token {
            count: n,
            clock: self.clock.load(Ordering::SeqCst),
        };
        hop_wire::encode_frame(&grant, &mut self.frame);
        self.send_frame(self.out_links + idx);
        self.failed()
    }

    /// The close handshake: say `Finished` on every link (the first
    /// time), shut each once that is in its ring, and be closed once every
    /// peer's own `Finished` is in. A worker exits only then, so it has
    /// read every frame its peers wrote, and its exit reads to them as a
    /// finished peer leaving, not as a loss.
    fn finish(&mut self) -> Result<bool, RuntimeError> {
        if !self.closing {
            self.closing = true;
            let finished = Message::Finished {
                worker: self.w as u32,
            };
            hop_wire::encode_frame(&finished, &mut self.frame);
            for i in 0..self.links.len() {
                self.send_frame(i);
            }
        }
        // Every link, not up to the first unsettled one: each is shut as
        // soon as it is flushed.
        let mut closed = true;
        for link in &mut self.links {
            closed &= link.settle();
        }
        self.failed().map(|()| closed)
    }
}

/// Entry point for `hop_worker --worker <coordinator-socket> <id>`: runs
/// the worker half in the socket's directory and returns the process exit
/// code. Protocol failures — a rejected spec included — are reported to
/// the coordinator in the summary frame (exit 0); only a failure to reach
/// the coordinator at all is a nonzero exit.
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
    let mut coord = UnixStream::connect(coordinator)
        .map_err(|e| format!("connect to coordinator {coordinator}: {e}"))?;
    let run_dir = Path::new(coordinator)
        .parent()
        .ok_or_else(|| format!("coordinator socket {coordinator} has no directory"))?;
    let path = worker_socket(run_dir, w);
    let listener = UnixListener::bind(&path)
        .map_err(|e| format!("bind peer socket {}: {e}", path.display()))?;
    let hello = Message::Hello { worker: w as u32 };
    write_message(&mut coord, &hello).map_err(|e| format!("send hello: {e}"))?;
    coord.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut events = Vec::new();
    let run = worker_run(&mut coord, w, run_dir, &listener, &mut events);
    let (error, update_wire_bytes, final_params, losses) = match run {
        Ok(outcome) => (None, outcome.wire_bytes, outcome.params, outcome.losses),
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

/// The worker's whole run: receive and validate the spec, wire up the
/// peer links, then drive the shared iteration loop over the ring
/// transport. The stamped event log lands in `events` whether or not the
/// run succeeds.
fn worker_run(
    coord: &mut UnixStream,
    w: usize,
    run_dir: &Path,
    listener: &UnixListener,
    events: &mut Vec<(u64, ProtocolEvent)>,
) -> Result<WorkerOutcome, String> {
    let spec = match read_message(coord).map_err(|e| format!("read spec: {e}"))? {
        Message::Spec { body } => WorkerSpec::decode(&body)?,
        other => return Err(format!("expected the spec, got {other:?}")),
    };
    if spec.w != w {
        return Err(format!(
            "spec addressed to worker {}, but this is worker {w}",
            spec.w
        ));
    }
    let topo = &spec.topology;
    let deadline = Instant::now() + Duration::from_secs(30);

    // Reconstruct the workload and the shared initial parameters.
    let dataset = SyntheticWebspam::generate(spec.examples, spec.data_seed);
    let model = Svm::log_loss(dataset.feature_dim());
    let mut init_rng = hop_util::Xoshiro256::seed_from_u64(spec.seed);
    let init_params = ParamBlock::from_vec(model.init_params(&mut init_rng));

    // Dial every update receiver: each bound its socket before its hello,
    // and no spec went out before every hello, so a refusal is final. The
    // link's rings are in place before its hello.
    let mut links = Vec::new();
    for &o in topo.external_out_neighbors(w) {
        let rings_path = ring_file(run_dir, w, o);
        let rings = RingPair::create(&rings_path, RING_BYTES)
            .map_err(|e| format!("create rings {}: {e}", rings_path.display()))?;
        let path = worker_socket(run_dir, o);
        let mut stream = UnixStream::connect(&path)
            .map_err(|e| format!("connect to peer {}: {e}", path.display()))?;
        let hello = Message::Hello { worker: w as u32 };
        write_message(&mut stream, &hello).map_err(|e| format!("hello to peer {o}: {e}"))?;
        links.push(Link::new(o, stream, rings, Inbound::Tokens)?);
    }
    let out_links = links.len();
    // Accept one connection per update sender and identify it.
    let externals_in = topo.external_in_neighbors(w);
    let accepted = accept_hellos(listener, externals_in, deadline, |_| Ok(()))?;
    for (&u, stream) in externals_in.iter().zip(accepted) {
        let rings_path = ring_file(run_dir, u, w);
        let rings = RingPair::open(&rings_path, RING_BYTES)
            .map_err(|e| format!("map rings {}: {e}", rings_path.display()))?;
        let mut plane = CompressionPlane::new(spec.cfg.compression);
        plane.add_param_streams(1, init_params.as_slice());
        let pool = BufferPool::new();
        links.push(Link::new(
            u,
            stream,
            rings,
            Inbound::Updates { plane, pool },
        )?);
    }

    // The Lamport clock: the sink bumps it, every frame max-merges into it.
    let clock = AtomicU64::new(0);
    let mut transport = RingTransport {
        die_at: spec.die_at,
        ..RingTransport::new(w, &clock, links, out_links, init_params.len())
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
    let outcome = result.map_err(|e| e.to_string())?;
    Ok(WorkerOutcome {
        wire_bytes: transport.wire_bytes,
        ..outcome
    })
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
    fn worker_spec_round_trips_for_every_mode() {
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
                let spec = exp.worker_spec(w, true);
                let body = spec.encode();
                let decoded = WorkerSpec::decode(&body).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert_eq!(decoded, spec, "{cfg:?}, worker {w}");
                // The straggler factor and the die hook apply only to
                // their own worker.
                let expected_sleep = if w == 2 {
                    exp.compute_sleep * 15
                } else {
                    exp.compute_sleep
                };
                assert_eq!(spec.compute_sleep, expected_sleep, "worker {w}");
                assert_eq!(spec.die_at, (w == 3).then_some(7), "worker {w}");
                // Fail closed on length: every proper prefix is short a
                // field, and one byte more is left over.
                for cut in 0..body.len() {
                    assert!(WorkerSpec::decode(&body[..cut]).is_err(), "cut at {cut}");
                }
                let mut longer = body.clone();
                longer.push(0);
                let err = WorkerSpec::decode(&longer).expect_err("trailing byte");
                assert!(err.contains("trailing bytes"), "{err}");
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let exp = experiment();
        let good = || exp.worker_spec(0, false);
        let patched = |at: usize, value: u32| {
            let mut body = good().encode();
            body[at..at + 4].copy_from_slice(&value.to_le_bytes());
            body
        };
        let with = |edit: &dyn Fn(&mut WorkerSpec)| {
            let mut spec = good();
            edit(&mut spec);
            spec.encode()
        };
        // The body opens with `n`, `w` and the edge count, then the first
        // edge (0>1 on the ring), all `u64`s.
        for (broken, needle) in [
            (patched(0, 0), "`w`=0 is out of range for n=0"),
            (patched(8, 5), "`w`=5 is out of range for n=5"),
            (patched(32, 9), "edge 0>9 is out of range"),
            (good().encode()[..30].to_vec(), "spec `edges`: malformed"),
            (
                with(&|s| s.hyper.batch_size = 0),
                "`batch_size` must be positive",
            ),
            (with(&|s| s.examples = 0), "`examples` must be positive"),
            (with(&|s| s.cfg.n_backup = 3), "config is invalid"),
            (
                with(&|s| s.cfg.sync = SyncMode::Queues { max_ig: None }),
                "config is invalid",
            ),
        ] {
            let err = WorkerSpec::decode(&broken).expect_err("must reject");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn run_dir_is_private_and_leaves_nothing_behind() {
        use std::os::unix::fs::PermissionsExt as _;
        let run = RunDir::create(&std::env::temp_dir()).expect("creates");
        let dir = run.0.clone();
        let mode = std::fs::metadata(&dir)
            .expect("exists")
            .permissions()
            .mode();
        assert_eq!(mode & 0o777, 0o700);
        // The fleet's sockets live in it, and go with it.
        let sockets = [dir.join(COORDINATOR_SOCKET), worker_socket(&dir, 0)];
        let bound = sockets
            .each_ref()
            .map(|path| UnixListener::bind(path).expect("binds"));
        assert!(sockets.iter().all(|path| path.exists()));
        drop(run);
        assert!(!dir.exists(), "{} survived its guard", dir.display());
        drop(bound);
    }

    #[test]
    fn run_dir_creation_removes_only_directories_of_dead_processes() {
        let base = std::env::temp_dir().join(format!("run-dir-sweep-{}", std::process::id()));
        let mut child = std::process::Command::new("true").spawn().expect("spawns");
        child.wait().expect("reaped");
        let dead = base.join(format!("hop-{}-0", child.id()));
        let alive = base.join(format!("hop-{}-999999", std::process::id()));
        for dir in [&dead, &alive] {
            std::fs::create_dir_all(dir.join("leftover")).expect("creates");
        }
        let run = RunDir::create(&base).expect("creates");
        assert!(!dead.exists(), "a dead process's run directory survived");
        assert!(alive.exists(), "a live process's run directory was removed");
        drop(run);
        std::fs::remove_dir_all(&base).expect("cleans up");
    }

    #[test]
    fn run_dir_too_long_for_a_socket_address_fails_closed() {
        // `sun_path` holds 108 bytes on Linux: no socket in this base
        // could be bound, so nothing is created.
        let base = std::env::temp_dir().join("b".repeat(120));
        let err = RunDir::create(&base).err().expect("must fail");
        let invalid = |e: &io::Error| e.kind() == ErrorKind::InvalidInput;
        assert!(matches!(&err, RuntimeError::Io { error, .. } if invalid(error)));
        assert!(err.to_string().contains(&*base.to_string_lossy()), "{err}");
        assert!(!base.exists());
    }

    /// Both ends of link `1 -> 0` in a fresh run directory: rings of
    /// `cap` bytes each and a connected socket pair, worker 1's end first.
    fn link_ends(run: &RunDir, cap: usize) -> [(RingPair, UnixStream); 2] {
        let path = ring_file(&run.0, 1, 0);
        let dialer = RingPair::create(&path, cap).expect("creates the rings");
        let acceptor = RingPair::open(&path, cap).expect("maps the rings");
        assert!(!path.exists(), "the accepting end unlinks the ring file");
        let (one, other) = UnixStream::pair().expect("socket pair");
        [(dialer, one), (acceptor, other)]
    }

    #[test]
    fn peers_writing_megabytes_at_each_other_both_drain() {
        // Both ends of one link queue 32 dense 64K-parameter update frames
        // (8 MB) before either reads — far more than its two 64 KiB rings
        // hold. A blocking write would wait for a reader that is itself
        // blocked writing; the pump keeps the unsent tail and flushes it
        // while it reads, a writer parked for room is rung when its reader
        // frees some, so both drain, and the close handshake completes.
        const FRAMES: usize = 32;
        const DIM: usize = 64 * 1024;
        let timeout = Duration::from_secs(20);
        let run = RunDir::create(&std::env::temp_dir()).expect("run dir");
        let ends = link_ends(&run, RING_BYTES);
        let both_queued = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (me, (rings, stream)) in ends.into_iter().enumerate() {
                let both_queued = &both_queued;
                scope.spawn(move || {
                    let clock = AtomicU64::new(0);
                    let inbound = Inbound::Updates {
                        plane: CompressionPlane::new(CompressionConfig::Identity),
                        pool: BufferPool::new(),
                    };
                    let link = Link::new(1 - me, stream, rings, inbound).expect("non-blocking");
                    let mut end = RingTransport::new(me, &clock, vec![link], 0, DIM);
                    let mut inbox = Inbox::new(0);
                    let block = CompressedBlock::Dense {
                        values: vec![1.0; DIM],
                    };
                    for iter in 0..FRAMES as u64 {
                        let tag = Tag { iter, w_id: me };
                        hop_wire::encode_update_frame(tag, 0, &block, &mut end.frame);
                        end.send_frame(0);
                    }
                    both_queued.wait();
                    assert_eq!(end.failure, None, "end {me}");
                    assert!(!end.links[0].out.is_empty(), "end {me} never had to queue");
                    let started = Instant::now();
                    let got =
                        inbox.wait(&mut end, timeout, |_, inbox| inbox.updates.len() >= FRAMES);
                    assert!(got, "end {me} stalled: {:?}", end.failure);
                    assert_eq!(inbox.updates.len(), FRAMES, "end {me}");
                    let closed = inbox.close(&mut end, timeout);
                    closed.unwrap_or_else(|e| panic!("end {me}: {e}"));
                    assert!(end.links[0].finished && end.links[0].out.is_empty());
                    assert!(started.elapsed() < timeout, "end {me} drained too late");
                });
            }
        });
    }

    #[test]
    fn a_corrupt_shared_ring_header_fails_the_link_closed_naming_the_peer() {
        // Worker 0 reads token grants from worker 1 through a 64-byte
        // ring. After one honest grant, worker 1's end moves the ring's
        // tail behind the head, or more than the capacity ahead of it.
        // Worker 0's next pump must break the link and name worker 1,
        // neither panicking nor reading outside the mapping.
        const CAP: usize = 64;
        let grant = |count| {
            let mut frame = Vec::new();
            hop_wire::encode_frame(&Message::Token { count, clock: 0 }, &mut frame);
            frame
        };
        let frame_len = grant(1).len() as u64;
        for (case, tail) in [
            ("tail behind head", frame_len - 1),
            ("tail past capacity", frame_len + CAP as u64 + 1),
            ("tail far behind head", u64::MAX),
        ] {
            let run = RunDir::create(&std::env::temp_dir()).expect("run dir");
            let [(mut writer, _bell), (rings, stream)] = link_ends(&run, CAP);
            let clock = AtomicU64::new(0);
            let link = Link::new(1, stream, rings, Inbound::Tokens).expect("non-blocking");
            let mut reader = RingTransport::new(0, &clock, vec![link], 1, 1);
            let mut inbox = Inbox::new(1);
            assert_eq!(writer.write(&grant(3)), Ok(grant(3).len()));
            assert!(reader.pump(&mut inbox, Duration::ZERO), "{case}");
            assert_eq!((inbox.tokens[0], &reader.failure), (3, &None), "{case}");
            writer.corrupt_tail(tail);
            reader.pump(&mut inbox, Duration::from_millis(10));
            let why = reader.failure.clone().expect(case);
            assert!(reader.links[0].broken, "{case}");
            assert!(why.contains("peer link to worker 1"), "{case}: {why}");
            assert!(why.contains("corrupt shared ring header"), "{case}: {why}");
            assert_eq!(inbox.tokens[0], 3, "{case}: nothing is read past it");
        }
        // The writer's side: a head moved past the tail fails its next
        // write the same way.
        let run = RunDir::create(&std::env::temp_dir()).expect("run dir");
        let [(rings, stream), (reader, _bell)] = link_ends(&run, CAP);
        let clock = AtomicU64::new(0);
        let inbound = Inbound::Updates {
            plane: CompressionPlane::new(CompressionConfig::Identity),
            pool: BufferPool::new(),
        };
        let link = Link::new(0, stream, rings, inbound).expect("non-blocking");
        let mut writer = RingTransport::new(1, &clock, vec![link], 0, 1);
        reader.corrupt_head(7);
        assert_eq!(
            writer
                .grant(0, 1)
                .map_err(|why| why.to_string().contains("worker 0")),
            Err(true)
        );
        assert!(writer.links[0].broken);
    }

    #[test]
    fn stamped_event_merge_orders_by_lamport_stamp() {
        // Each worker's stamped log parsed, then merged as a run's are.
        let merged = |logs: &[&str]| -> Result<ProtocolTrace, RuntimeError> {
            let mut workers = Vec::new();
            for (w, log) in logs.iter().enumerate() {
                workers.push((Ok(WorkerOutcome::default()), parse_stamped(w, log)?));
            }
            Ok(assemble(workers, Duration::ZERO)
                .expect("no worker failed")
                .1)
        };
        let summaries = [
            "0 advance w=0 iter=0\n5 send from=0 to=1 iter=0\n",
            "7 consume w=1 from=0 iter=0 at=0\n0 advance w=1 iter=0\n",
        ];
        let trace = merged(&summaries).expect("merges");
        let text = trace.to_text();
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
        assert_eq!(trace.len(), 4);
        // A worker that never reported (lost peer) just contributes
        // nothing; an unstamped line is a protocol error.
        let with_hole = merged(&["3 advance w=0 iter=1\n", ""]).expect("merges");
        assert_eq!(with_hole.to_text(), "advance w=0 iter=1\n");
        let bad = merged(&["advance w=0 iter=0\n"]);
        assert!(matches!(bad, Err(RuntimeError::Protocol(_))));
    }
}
