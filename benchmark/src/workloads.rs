//! The five workloads: what each builds from `--seed`, how one `run`
//! call (= one operation) is made, and the output checks that turn a
//! wrong answer into a failed operation.
//!
//! All five are closed loops by nature: one `run` call at a time from one
//! harness thread.

use hop::core::config::{HopConfig, Protocol, SkipConfig};
use hop::core::process::ProcessExperiment;
use hop::core::threaded::ThreadedExperiment;
use hop::core::{CompressionConfig, Hyper, Oracle, ProtocolEvent, ProtocolTrace, SimExperiment};
use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
use hop::data::{Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::model::Model;
use hop::sim::{ClusterSpec, FaultPlan, LinkModel, SlowdownModel};
use hop::util::Xoshiro256;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Any single blocking step longer than this is a stall: a failed
/// operation, never a hang.
const STALL_TIMEOUT: Duration = Duration::from_secs(20);

/// Parameters of the large SVM the ROADMAP reference run trains.
pub const DIM_64K: usize = 65_536;
/// Parameters of the SVM the process runtime hard-codes.
pub const DIM_1K: usize = 1024;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimRef16Int8,
    SimExp10kIdent,
    ThrRing4Ident,
    ThrRing4Topk,
    ProcRing4Int8,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SimRef16Int8,
        Workload::SimExp10kIdent,
        Workload::ThrRing4Ident,
        Workload::ThrRing4Topk,
        Workload::ProcRing4Int8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimRef16Int8 => "sim_ref16_int8",
            Workload::SimExp10kIdent => "sim_exp10k_ident",
            Workload::ThrRing4Ident => "thr_ring4_ident",
            Workload::ThrRing4Topk => "thr_ring4_topk",
            Workload::ProcRing4Int8 => "proc_ring4_int8",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `final_loss` must stay below this (and be finite) or the run is a
    /// failed operation. Untrained log-loss is ln 2 ≈ 0.693; each ceiling
    /// sits between that and what the workload reaches on seeds 1–10. A
    /// scaled-down run barely trains, so there only divergence is caught.
    pub fn loss_ceiling(self, scale: f64) -> f64 {
        match self {
            _ if scale < 1.0 => 0.75,
            Workload::SimRef16Int8 => 0.15,
            // 20 iterations on 10k replicas reach 0.28–0.38.
            Workload::SimExp10kIdent => 0.55,
            Workload::ThrRing4Ident | Workload::ThrRing4Topk | Workload::ProcRing4Int8 => 0.10,
        }
    }

    /// Builds every input of the workload from `seed`. This is what
    /// `setup_s` times. `scale` shrinks iteration counts (and the 10k
    /// graph) for the package's own tests; the ledger always runs at 1.
    pub fn prepare(self, seed: u64, scale: f64) -> Prepared {
        let iters = |full: u64| ((full as f64 * scale).round() as u64).max(2);
        match self {
            Workload::SimRef16Int8 => {
                let cfg = HopConfig::backup(1, 5)
                    .with_skip(SkipConfig::with_max_jump(10))
                    .with_compression(CompressionConfig::Int8Uniform);
                let dataset = webspam(1024, seed, DIM_64K, 32);
                // Per-worker compute times within ±2 % of the paper's 50 ms,
                // drawn from the seed: with exactly uniform machines the
                // virtual makespan would not depend on the seed at all.
                let mut cluster = ClusterSpec::uniform(16, 4, 0.05, LinkModel::ethernet_1gbps());
                let mut rng = Xoshiro256::seed_from_u64(seed);
                for w in 0..16 {
                    cluster.set_compute_time(w, 0.05 * (0.98 + 0.04 * rng.next_f64()));
                }
                let exp = SimExperiment {
                    topology: Topology::ring_based(16),
                    cluster,
                    slowdown: SlowdownModel::paper_straggler(16, 0, 6.0),
                    protocol: Protocol::Hop(cfg),
                    hyper: Hyper::svm(),
                    max_iters: iters(110),
                    seed,
                    eval_every: 10,
                    eval_examples: 256,
                };
                Prepared::sim(exp, dataset)
            }
            Workload::SimExp10kIdent => {
                let workers = ((10_000.0 * scale).round() as usize).max(64);
                sim_expander(workers, iters(20), seed)
            }
            Workload::ThrRing4Ident => threaded(CompressionConfig::Identity, iters(1000), seed),
            Workload::ThrRing4Topk => {
                threaded(CompressionConfig::TopK { ratio: 0.01 }, iters(400), seed)
            }
            Workload::ProcRing4Int8 => {
                // Standard mode, not backup workers: with backups a worker
                // can finish without its slowest neighbor's last updates,
                // and that neighbor's late write then hits a closed socket
                // (the known teardown race, ROADMAP first open item —
                // 1 run in ~370 here). On this complete graph standard
                // mode cannot write late, and the ledger needs workloads
                // on which no operation fails.
                let cfg = HopConfig::standard().with_compression(CompressionConfig::Int8Uniform);
                let worker_bin = std::env::current_exe().expect("the harness has a path");
                let mut exp =
                    ProcessExperiment::new(cfg, Topology::ring_based(4), iters(2500), worker_bin);
                exp.seed = seed;
                exp.data_seed = seed;
                exp.examples = 256;
                exp.stall_timeout = STALL_TIMEOUT;
                // The same recipe every worker process rebuilds its data from.
                let dataset = SyntheticWebspam::generate(exp.examples, exp.data_seed);
                Prepared {
                    model: Svm::log_loss(dataset.feature_dim()),
                    dataset: Arc::new(dataset),
                    eval_examples: 256,
                    kind: Kind::Process(exp),
                }
            }
        }
    }
}

fn webspam(examples: usize, seed: u64, dim: usize, nnz: usize) -> InMemoryDataset {
    let config = WebspamConfig {
        dim,
        nnz_per_example: nnz,
        label_noise: 0.05,
    };
    SyntheticWebspam::generate_with(examples, seed, config)
}

/// `sim_exp10k_ident` at `workers` workers; the oracle-throughput layer
/// metric replays a 1024-worker variant of the same experiment.
pub fn sim_expander(workers: usize, max_iters: u64, seed: u64) -> Prepared {
    // Token mode keeps set-up linear in workers (the tokenless default
    // computes an all-pairs diameter).
    let cfg = HopConfig::standard_with_tokens(4);
    let exp = SimExperiment {
        topology: Topology::expander(workers, 4, seed),
        cluster: ClusterSpec::uniform(workers, 4, 0.05, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(workers),
        protocol: Protocol::Hop(cfg),
        hyper: Hyper::svm(),
        max_iters,
        seed,
        // An eval pass averages every replica; at 10k workers it would
        // dominate the run.
        eval_every: 0,
        eval_examples: 32,
    };
    Prepared::sim(exp, webspam(512, seed, 64, 8))
}

fn threaded(compression: CompressionConfig, max_iters: u64, seed: u64) -> Prepared {
    // No skip: with it the number of computed iterations depends on
    // thread scheduling.
    let exp = ThreadedExperiment {
        config: HopConfig::backup(1, 5).with_compression(compression),
        topology: Topology::ring_based(4),
        max_iters,
        seed,
        hyper: Hyper::svm(),
        compute_sleep: Duration::ZERO,
        slow_worker: None,
        stall_timeout: STALL_TIMEOUT,
        faults: FaultPlan::default(),
    };
    Prepared {
        model: Svm::log_loss(DIM_64K),
        dataset: Arc::new(webspam(1024, seed, DIM_64K, 32)),
        eval_examples: 512,
        kind: Kind::Threaded(exp),
    }
}

/// A runnable workload: the experiment plus the model and data the
/// harness evaluates `final_loss` on.
pub struct Prepared {
    model: Svm,
    dataset: Arc<InMemoryDataset>,
    eval_examples: usize,
    kind: Kind,
}

enum Kind {
    Sim(SimExperiment),
    Threaded(ThreadedExperiment),
    Process(ProcessExperiment),
}

/// What one successful `run` call produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of the `run` call, measured by the harness.
    pub wall_s: f64,
    /// Iterations whose gradient was actually computed, over all workers.
    pub worker_iters: u64,
    /// The report's own duration: virtual seconds on the simulator, wall
    /// seconds on the threaded and process runtimes.
    pub makespan_s: f64,
    /// Update bytes on the (virtual or real) wire; 0 on the threaded
    /// runtime, which moves refcounts, not bytes.
    pub wire_bytes: u64,
    /// Log-loss of the averaged parameters, evaluated by the harness.
    pub final_loss: f64,
    /// `TrainingReport::digest()` (simulator only).
    pub digest: Option<u64>,
    /// Events the pump processed (simulator only, else 0).
    pub events_processed: u64,
    /// The protocol trace of a traced run.
    pub trace: Option<ProtocolTrace>,
}

impl Prepared {
    fn sim(exp: SimExperiment, dataset: InMemoryDataset) -> Prepared {
        Prepared {
            model: Svm::log_loss(dataset.feature_dim()),
            eval_examples: 512.min(dataset.len()),
            dataset: Arc::new(dataset),
            kind: Kind::Sim(exp),
        }
    }

    pub fn workers(&self) -> usize {
        self.topology().len()
    }

    pub fn model(&self) -> &Svm {
        &self.model
    }

    pub fn dataset(&self) -> &InMemoryDataset {
        &self.dataset
    }

    pub fn is_sim(&self) -> bool {
        matches!(self.kind, Kind::Sim(_))
    }

    pub fn is_process(&self) -> bool {
        matches!(self.kind, Kind::Process(_))
    }

    fn config(&self) -> &HopConfig {
        match &self.kind {
            Kind::Sim(exp) => match &exp.protocol {
                Protocol::Hop(cfg) => cfg,
                _ => unreachable!("every simulator workload runs the Hop protocol"),
            },
            Kind::Threaded(exp) => &exp.config,
            Kind::Process(exp) => &exp.config,
        }
    }

    pub fn compression(&self) -> CompressionConfig {
        self.config().compression
    }

    fn topology(&self) -> &Topology {
        match &self.kind {
            Kind::Sim(exp) => &exp.topology,
            Kind::Threaded(exp) => &exp.topology,
            Kind::Process(exp) => &exp.topology,
        }
    }

    fn max_iters(&self) -> u64 {
        match &self.kind {
            Kind::Sim(exp) => exp.max_iters,
            Kind::Threaded(exp) => exp.max_iters,
            Kind::Process(exp) => exp.max_iters,
        }
    }

    /// One operation: a `run` call (or its traced twin) plus the output
    /// checks.
    ///
    /// # Errors
    ///
    /// The runtime's error string, or the output check that failed. The
    /// caller counts it as a failed operation and never retries.
    pub fn run(&self, traced: bool) -> Result<Outcome, String> {
        let start = Instant::now();
        let out = match &self.kind {
            Kind::Sim(exp) => {
                let report = if traced {
                    exp.run_conformance(&self.model, &self.dataset)
                } else {
                    exp.run(&self.model, &self.dataset)
                }
                .map_err(|e| e.to_string())?;
                let wall_s = start.elapsed().as_secs_f64();
                if report.deadlocked || report.budget_exhausted {
                    return Err(format!(
                        "simulation did not complete (deadlocked={}, budget_exhausted={})",
                        report.deadlocked, report.budget_exhausted
                    ));
                }
                Outcome {
                    wall_s,
                    worker_iters: report.train_loss_steps.iter().map(|s| s.len() as u64).sum(),
                    makespan_s: report.wall_time,
                    wire_bytes: report.bytes_sent,
                    final_loss: self.eval_loss(&report.averaged_params()),
                    digest: Some(report.digest()),
                    events_processed: report.events_processed,
                    trace: report.conformance,
                }
            }
            Kind::Threaded(exp) => {
                let model: Arc<dyn Model> = Arc::new(self.model);
                let dataset = Arc::clone(&self.dataset);
                let (report, trace) = if traced {
                    let (r, t) = exp.run_traced(model, dataset).map_err(|e| e.to_string())?;
                    (r, Some(t))
                } else {
                    (exp.run(model, dataset).map_err(|e| e.to_string())?, None)
                };
                Outcome {
                    wall_s: start.elapsed().as_secs_f64(),
                    worker_iters: report.losses.iter().map(|l| l.len() as u64).sum(),
                    makespan_s: report.elapsed.as_secs_f64(),
                    wire_bytes: 0,
                    final_loss: self.eval_loss(&report.averaged_params()),
                    digest: None,
                    events_processed: 0,
                    trace,
                }
            }
            Kind::Process(exp) => {
                let (report, trace) = if traced {
                    let (r, t) = exp.run_traced().map_err(|e| e.to_string())?;
                    (r, Some(t))
                } else {
                    (exp.run().map_err(|e| e.to_string())?, None)
                };
                let wall_s = start.elapsed().as_secs_f64();
                // Every worker sends every iteration's update to each
                // external out-neighbor, and an int8 frame carries
                // length word + scale + one byte per parameter.
                let sends: u64 = (0..exp.topology.len())
                    .map(|w| exp.topology.external_out_neighbors(w).len() as u64)
                    .sum();
                let expected = sends * exp.max_iters * (4 + 4 + self.model.param_len() as u64);
                let wire_bytes = report.total_update_wire_bytes();
                if wire_bytes != expected {
                    return Err(format!(
                        "update bytes on the wire {wire_bytes} != closed form {expected}"
                    ));
                }
                Outcome {
                    wall_s,
                    worker_iters: report.losses.iter().map(|l| l.len() as u64).sum(),
                    makespan_s: report.elapsed.as_secs_f64(),
                    wire_bytes,
                    final_loss: self.eval_loss(&report.averaged_params()),
                    digest: None,
                    events_processed: 0,
                    trace,
                }
            }
        };
        if out.worker_iters == 0 {
            return Err("no iteration was computed".to_string());
        }
        Ok(out)
    }

    fn eval_loss(&self, params: &[f32]) -> f64 {
        let indices: Vec<usize> = (0..self.eval_examples).collect();
        f64::from(self.model.loss(params, &self.dataset.batch(&indices)))
    }

    /// Replays a traced run through the conformance oracle.
    ///
    /// # Errors
    ///
    /// The first violation, as text.
    pub fn oracle_check(&self, trace: &ProtocolTrace) -> Result<(), String> {
        Oracle::new(self.config(), self.topology(), self.max_iters())
            .check(trace)
            .map(|_| ())
            .map_err(|v| format!("trace violates the oracle: {v}"))
    }
}

/// Event counts of one protocol trace: the call counts the attribution
/// multiplies by unit costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    pub events: u64,
    /// All `Send`s, self-loops included.
    pub sends: u64,
    /// `Send`s to another worker.
    pub external_sends: u64,
    pub consumes: u64,
    /// `Consume`s of another worker's update.
    pub external_consumes: u64,
    pub reduces: u64,
    /// Parameter vectors averaged, summed over all `Reduce`s.
    pub reduce_inputs: u64,
    pub computes: u64,
    /// `TokenPass` + `TokenTake` events.
    pub token_ops: u64,
    pub jumps: u64,
    pub drops: u64,
}

impl TraceCounts {
    pub fn of(trace: &ProtocolTrace) -> TraceCounts {
        let mut c = TraceCounts {
            events: trace.len() as u64,
            ..TraceCounts::default()
        };
        for ev in trace.events() {
            match ev {
                ProtocolEvent::Send { from, to, .. } => {
                    c.sends += 1;
                    c.external_sends += u64::from(from != to);
                }
                ProtocolEvent::Consume { worker, from, .. } => {
                    c.consumes += 1;
                    c.external_consumes += u64::from(worker != from);
                }
                ProtocolEvent::Reduce { n_updates, .. } => {
                    c.reduces += 1;
                    c.reduce_inputs += *n_updates as u64;
                }
                ProtocolEvent::ComputeBegin { .. } => c.computes += 1,
                ProtocolEvent::TokenPass { .. } | ProtocolEvent::TokenTake { .. } => {
                    c.token_ops += 1;
                }
                ProtocolEvent::Jump { .. } => c.jumps += 1,
                ProtocolEvent::Drop { .. } => c.drops += 1,
                _ => {}
            }
        }
        c
    }
}
