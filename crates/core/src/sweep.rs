//! Parallel experiment sweeps: cartesian grids of [`SimExperiment`]s
//! executed across all cores, deterministically.
//!
//! The paper's evaluation is a grid — protocols × slowdown processes ×
//! cluster shapes × per-protocol knobs (Figs. 12–21) — and so is every
//! scenario-diversity study over the Prague/QGM variants. Running such a
//! grid point-by-point on one core makes a 200-point sweep cost 200× one
//! run's wall clock even though the points are completely independent.
//! This module makes the sweep itself the unit of execution:
//!
//! * [`SweepGrid`] is a builder over the grid axes: named protocols
//!   (including the [`prague_axis`](SweepGrid::prague_axis) /
//!   [`qgm_axis`](SweepGrid::qgm_axis) knob helpers), named
//!   topology+cluster shapes, named [`SlowdownModel`]s, and seeds. Its
//!   [`points`](SweepGrid::points) method materializes the cartesian
//!   product in a fixed **grid order** (protocol-major, then cluster,
//!   slowdown, seed).
//! * [`SweepRunner`] executes the grid across a scoped `std::thread`
//!   pool. Threads claim points from an atomic index; the one immutable
//!   `(model, dataset)` pair is shared by reference across all threads
//!   ([`Model`] is `Send + Sync` by design). Results come back **in grid
//!   order, bit-identical to a sequential run at any thread count**:
//!   each point's report is a pure function of its `SimExperiment`
//!   (the engine introduces no cross-run state), and thread assignment
//!   only decides *which core* computes a point, never *what* it
//!   computes. `tests/sweep_determinism.rs` asserts the digest table at
//!   1/2/4 threads against direct sequential [`SimExperiment::run`]
//!   calls.
//! * [`SweepSummary`] aggregates the results into a
//!   [`hop_metrics::Table`] (one row per point: virtual wall time, final
//!   eval loss, mean iteration, bytes on the wire, stale discards) with
//!   CSV and JSON emitters for machine consumption.
//!
//! # Examples
//!
//! ```
//! use hop_core::sweep::{SweepGrid, SweepRunner};
//! use hop_core::config::{HopConfig, Protocol};
//! use hop_core::trainer::Hyper;
//! use hop_data::webspam::SyntheticWebspam;
//! use hop_graph::Topology;
//! use hop_model::svm::Svm;
//! use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
//!
//! let dataset = SyntheticWebspam::generate(128, 0);
//! let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
//! let grid = SweepGrid::new(Hyper::svm(), 10)
//!     .protocol("hop", Protocol::Hop(HopConfig::standard()))
//!     .protocol("ring", Protocol::RingAllReduce)
//!     .cluster(
//!         "uniform",
//!         Topology::ring(4),
//!         ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
//!     )
//!     .slowdown("none", SlowdownModel::None)
//!     .seeds([1, 2]);
//! assert_eq!(grid.len(), 4);
//! let results = SweepRunner::new(2).run(&grid, &model, &dataset)?;
//! assert_eq!(results.len(), 4);
//! // Grid order: protocol-major, seeds innermost.
//! assert_eq!(results[0].point.protocol, "hop");
//! assert_eq!(results[1].point.seed, 2);
//! # Ok::<(), hop_core::sweep::SweepError>(())
//! ```

use crate::config::{ConfigError, PragueConfig, Protocol, QgmConfig};
use crate::report::TrainingReport;
use crate::sim_runtime::engine::OFFLOAD_MIN_PARAMS;
use crate::trainer::{Hyper, SimExperiment};
use hop_data::InMemoryDataset;
use hop_graph::Topology;
use hop_metrics::Table;
use hop_model::Model;
use hop_sim::{ClusterSpec, SlowdownModel};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cartesian experiment grid: protocols × clusters × slowdowns × seeds
/// over one workload's hyperparameters.
///
/// Every axis entry carries a short label used in summaries, CSV/JSON
/// output and error messages. See the [module docs](self) for the grid
/// order contract.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    protocols: Vec<(String, Protocol)>,
    clusters: Vec<(String, Topology, ClusterSpec)>,
    slowdowns: Vec<(String, SlowdownModel)>,
    seeds: Vec<u64>,
    hyper: Hyper,
    max_iters: u64,
    eval_every: u64,
    eval_examples: usize,
}

impl SweepGrid {
    /// An empty grid running `max_iters` iterations per point with the
    /// given optimizer hyperparameters. Evaluation defaults to twice per
    /// run on 64 examples; override with [`Self::eval`].
    pub fn new(hyper: Hyper, max_iters: u64) -> Self {
        Self {
            protocols: Vec::new(),
            clusters: Vec::new(),
            slowdowns: Vec::new(),
            seeds: Vec::new(),
            hyper,
            max_iters,
            eval_every: (max_iters / 2).max(1),
            eval_examples: 64,
        }
    }

    /// Adds one labeled protocol to the protocol axis.
    pub fn protocol(mut self, label: impl Into<String>, protocol: Protocol) -> Self {
        self.protocols.push((label.into(), protocol));
        self
    }

    /// Adds the Prague knob grid `group_sizes × regen_everys` to the
    /// protocol axis, one labeled [`Protocol::Prague`] entry per
    /// combination (the ROADMAP scenario-sweep axes).
    pub fn prague_axis(mut self, group_sizes: &[usize], regen_everys: &[u64]) -> Self {
        for &group_size in group_sizes {
            for &regen_every in regen_everys {
                self.protocols.push((
                    format!("prague(g={group_size},r={regen_every})"),
                    Protocol::Prague(PragueConfig {
                        group_size,
                        regen_every,
                        ..PragueConfig::default()
                    }),
                ));
            }
        }
        self
    }

    /// Adds one labeled [`Protocol::Qgm`] entry per momentum value `mu`,
    /// all sharing `beta`.
    pub fn qgm_axis(mut self, mus: &[f32], beta: f32) -> Self {
        for &mu in mus {
            self.protocols.push((
                format!("qgm(mu={mu})"),
                Protocol::Qgm(QgmConfig {
                    mu,
                    beta,
                    ..QgmConfig::default()
                }),
            ));
        }
        self
    }

    /// Adds one labeled topology + machine-placement shape to the cluster
    /// axis. The pair travels together so decentralized protocols always
    /// see a topology consistent with the cluster size.
    pub fn cluster(
        mut self,
        label: impl Into<String>,
        topology: Topology,
        cluster: ClusterSpec,
    ) -> Self {
        self.clusters.push((label.into(), topology, cluster));
        self
    }

    /// Adds one labeled heterogeneity process to the slowdown axis.
    pub fn slowdown(mut self, label: impl Into<String>, slowdown: SlowdownModel) -> Self {
        self.slowdowns.push((label.into(), slowdown));
        self
    }

    /// Expands the cluster axis with fault-injection variants: for every
    /// cluster already on the axis and every `loss_rates` × `churns`
    /// combination that injects something, adds a copy whose
    /// [`ClusterSpec`] carries the corresponding [`hop_sim::FaultPlan`].
    /// Churn means one crash/rejoin cycle of worker 0 a quarter of the way
    /// into the run. Labels compose as `<cluster>+loss<rate>` and/or
    /// `+churn`; the all-zero combination is skipped (it would duplicate
    /// the pristine cluster entry).
    ///
    /// Call **after** the base [`cluster`](Self::cluster) entries are on
    /// the axis — only clusters already added are expanded.
    pub fn fault_axis(mut self, loss_rates: &[f64], churns: &[bool]) -> Self {
        let crash = hop_sim::CrashSpec {
            worker: 0,
            at_iter: self.max_iters / 4 + 1,
            down_iters: (self.max_iters / 8).max(2),
        };
        let base = self.clusters.clone();
        for &loss in loss_rates {
            for &churn in churns {
                if loss == 0.0 && !churn {
                    continue;
                }
                let mut plan = hop_sim::FaultPlan::none();
                let mut suffix = String::new();
                if loss > 0.0 {
                    plan = plan.with_loss(loss);
                    suffix.push_str(&format!("+loss{loss}"));
                }
                if churn {
                    plan = plan.with_crash(crash);
                    suffix.push_str("+churn");
                }
                for (label, topology, cluster) in &base {
                    self.clusters.push((
                        format!("{label}{suffix}"),
                        topology.clone(),
                        cluster.clone().with_faults(plan.clone()),
                    ));
                }
            }
        }
        self
    }

    /// Adds one master seed to the seed axis.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds several master seeds to the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Overrides the evaluation cadence (`every` iterations of worker 0,
    /// 0 disables) and the fixed eval-batch size.
    pub fn eval(mut self, every: u64, examples: usize) -> Self {
        self.eval_every = every;
        self.eval_examples = examples;
        self
    }

    /// Number of grid points (the product of the four axis lengths).
    pub fn len(&self) -> usize {
        self.protocols.len() * self.clusters.len() * self.slowdowns.len() * self.seeds.len()
    }

    /// Whether the grid has no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the grid points in grid order: protocols outermost,
    /// then clusters, then slowdowns, seeds innermost. The `index` of each
    /// point is its position in this order — the order results come back
    /// in, no matter how many threads run them.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for (protocol_label, protocol) in &self.protocols {
            for (cluster_label, topology, cluster) in &self.clusters {
                for (slowdown_label, slowdown) in &self.slowdowns {
                    for &seed in &self.seeds {
                        points.push(SweepPoint {
                            index: points.len(),
                            protocol: protocol_label.clone(),
                            cluster: cluster_label.clone(),
                            slowdown: slowdown_label.clone(),
                            seed,
                            experiment: SimExperiment {
                                topology: topology.clone(),
                                cluster: cluster.clone(),
                                slowdown: slowdown.clone(),
                                protocol: protocol.clone(),
                                hyper: self.hyper,
                                max_iters: self.max_iters,
                                seed,
                                eval_every: self.eval_every,
                                eval_examples: self.eval_examples,
                            },
                        });
                    }
                }
            }
        }
        points
    }
}

/// One fully specified point of a [`SweepGrid`]: its grid position, the
/// axis labels it was built from, and the runnable experiment.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in grid order (see [`SweepGrid::points`]).
    pub index: usize,
    /// Protocol-axis label.
    pub protocol: String,
    /// Cluster-axis label.
    pub cluster: String,
    /// Slowdown-axis label.
    pub slowdown: String,
    /// Master seed.
    pub seed: u64,
    /// The experiment this point runs.
    pub experiment: SimExperiment,
}

impl SweepPoint {
    /// `protocol/cluster/slowdown/s<seed>` — the point's display label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.protocol, self.cluster, self.slowdown, self.seed
        )
    }
}

/// One completed grid point: the point and its training report.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The grid point that produced this result.
    pub point: SweepPoint,
    /// The report [`SimExperiment::run`] returned for it.
    pub report: TrainingReport,
}

impl SweepResult {
    /// The report's bit-exact digest ([`TrainingReport::digest`]) — the
    /// unit of the cross-thread-count determinism table.
    pub fn digest(&self) -> u64 {
        self.report.digest()
    }
}

/// A sweep point whose configuration was invalid for its topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Grid index of the failing point.
    pub index: usize,
    /// Display label of the failing point.
    pub label: String,
    /// The underlying configuration error.
    pub source: ConfigError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep point {} ({}): {}",
            self.index, self.label, self.source
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Executes a [`SweepGrid`] across a scoped thread pool.
///
/// Work is claimed from an atomic grid index (no per-point spawn, no
/// channel), every thread runs points against the same shared
/// `(model, dataset)` borrow, and results are returned in grid order.
/// Determinism: each point's report is a pure function of its
/// [`SimExperiment`], so the result (and error) set is bit-identical at
/// any thread count — including `threads == 1`, which matches direct
/// sequential [`SimExperiment::run`] calls exactly.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    /// Worker threads to run grid points on. `0` means "all cores"
    /// (`std::thread::available_parallelism`). The pool never exceeds the
    /// number of grid points.
    pub threads: usize,
}

impl SweepRunner {
    /// A runner over `threads` threads (0 = all cores).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// A runner over all available cores.
    pub fn all_cores() -> Self {
        Self { threads: 0 }
    }

    /// The thread count [`Self::run`] will use for a grid of `points`
    /// points.
    pub fn effective_threads(&self, points: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        requested.clamp(1, points.max(1))
    }

    /// Runs every grid point and returns the results in grid order.
    ///
    /// # Errors
    ///
    /// Every point is validated up front ([`SimExperiment::validate`]),
    /// **before any simulation runs or thread spawns**; an invalid grid
    /// returns the [`SweepError`] of the lowest-index bad point — not the
    /// first one a thread happened to hit — so the error, like the
    /// results, is independent of the thread count (and costs no wasted
    /// compute).
    pub fn run(
        &self,
        grid: &SweepGrid,
        model: &dyn Model,
        dataset: &InMemoryDataset,
    ) -> Result<Vec<SweepResult>, SweepError> {
        let points = grid.points();
        if points.is_empty() {
            return Ok(Vec::new());
        }
        // Validation is microseconds per point; reject a bad grid before
        // spending any simulation compute (and before spawning threads),
        // rather than discovering the error after 199 valid points ran.
        for point in &points {
            if let Err(source) = point.experiment.validate() {
                return Err(SweepError {
                    index: point.index,
                    label: point.label(),
                    source,
                });
            }
        }
        let n_threads = self.effective_threads(points.len());
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<(usize, Result<TrainingReport, ConfigError>)> =
            Vec::with_capacity(points.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let next = &next;
                    let points = &points;
                    scope.spawn(move || {
                        // Side-by-side points fill the cores: no helpers.
                        if n_threads > 1 {
                            OFFLOAD_MIN_PARAMS.set(usize::MAX);
                        }
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(point) = points.get(i) else {
                                break;
                            };
                            claimed.push((i, point.experiment.run(model, dataset)));
                        }
                        claimed
                    })
                })
                .collect();
            for handle in handles {
                outcomes.extend(handle.join().expect("sweep worker thread panicked"));
            }
        });
        outcomes.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(outcomes.len(), points.len());
        let mut results = Vec::with_capacity(points.len());
        for (point, (_, outcome)) in points.into_iter().zip(outcomes) {
            // Pre-validation makes run() infallible here (its errors are
            // exactly validate()'s), so a failure now is a broken engine
            // invariant — surface it loudly rather than discarding the
            // completed grid behind a late Err.
            let report = match outcome {
                Ok(report) => report,
                Err(source) => unreachable!(
                    "sweep point {} ({}) failed after pre-validation: {source}",
                    point.index,
                    point.label()
                ),
            };
            results.push(SweepResult { point, report });
        }
        Ok(results)
    }
}

impl Default for SweepRunner {
    /// All cores.
    fn default() -> Self {
        Self::all_cores()
    }
}

/// Per-point aggregates of a completed sweep, renderable as a
/// [`hop_metrics::Table`], CSV or JSON.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    rows: Vec<SummaryRow>,
}

/// One sweep point's aggregate metrics.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Protocol-axis label.
    pub protocol: String,
    /// Cluster-axis label.
    pub cluster: String,
    /// Slowdown-axis label.
    pub slowdown: String,
    /// Master seed.
    pub seed: u64,
    /// Virtual wall time of the run (seconds).
    pub wall_time: f64,
    /// Last recorded eval loss (NaN when evaluation was disabled).
    pub final_eval_loss: f64,
    /// Mean iteration duration across workers (seconds).
    pub mean_iteration: f64,
    /// Payload bytes on the wire.
    pub bytes_sent: u64,
    /// Stale updates discarded by rotating queues.
    pub stale_discarded: u64,
    /// Whether the run deadlocked (or exhausted its event budget).
    pub deadlocked: bool,
}

impl SweepSummary {
    /// Aggregates `results` (kept in their grid order).
    pub fn from_results(results: &[SweepResult]) -> Self {
        let rows = results
            .iter()
            .map(|r| SummaryRow {
                protocol: r.point.protocol.clone(),
                cluster: r.point.cluster.clone(),
                slowdown: r.point.slowdown.clone(),
                seed: r.point.seed,
                wall_time: r.report.wall_time,
                final_eval_loss: r.report.eval_time.last().map_or(f64::NAN, |(_, v)| v),
                mean_iteration: r.report.mean_iteration_duration(),
                bytes_sent: r.report.bytes_sent,
                stale_discarded: r.report.stale_discarded,
                deadlocked: r.report.deadlocked,
            })
            .collect();
        Self { rows }
    }

    /// The per-point rows, in grid order.
    pub fn rows(&self) -> &[SummaryRow] {
        &self.rows
    }

    /// Number of summarized points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sweep had no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of the virtual wall times — the sequential virtual cost the
    /// parallel sweep amortizes over cores.
    pub fn total_wall_time(&self) -> f64 {
        self.rows.iter().map(|r| r.wall_time).sum()
    }

    /// Renders one aligned row per point.
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec![
            "protocol",
            "cluster",
            "slowdown",
            "seed",
            "wall_s",
            "eval_loss",
            "mean_iter_s",
            "bytes",
            "stale",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.protocol.clone(),
                row.cluster.clone(),
                row.slowdown.clone(),
                row.seed.to_string(),
                format!("{:.4}", row.wall_time),
                if row.final_eval_loss.is_finite() {
                    format!("{:.4}", row.final_eval_loss)
                } else {
                    "-".to_string()
                },
                format!("{:.6}", row.mean_iteration),
                row.bytes_sent.to_string(),
                row.stale_discarded.to_string(),
            ]);
        }
        table
    }

    /// The table as RFC-4180-style CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// A JSON array with one object per point (non-finite losses become
    /// `null`, so the output is always valid JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let loss = if row.final_eval_loss.is_finite() {
                format!("{:.6}", row.final_eval_loss)
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "{{\"protocol\":{},\"cluster\":{},\"slowdown\":{},\"seed\":{},\
                 \"wall_time_s\":{:.6},\"final_eval_loss\":{loss},\"mean_iter_s\":{:.6},\
                 \"bytes_sent\":{},\"stale_discarded\":{},\"deadlocked\":{}}}",
                json_string(&row.protocol),
                json_string(&row.cluster),
                json_string(&row.slowdown),
                row.seed,
                row.wall_time,
                row.mean_iteration,
                row.bytes_sent,
                row.stale_discarded,
                row.deadlocked,
            ));
        }
        out.push(']');
        out
    }
}

/// Minimal JSON string escaping for axis labels (quotes, backslashes and
/// control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HopConfig, PsConfig, PsMode};
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use hop_sim::LinkModel;

    fn workload() -> (Svm, InMemoryDataset) {
        let dataset = SyntheticWebspam::generate(96, 11);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        (model, dataset)
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new(Hyper::svm(), 8)
            .protocol("hop", Protocol::Hop(HopConfig::standard()))
            .protocol("ps_bsp", Protocol::Ps(PsConfig::new(PsMode::Bsp)))
            .prague_axis(&[2], &[1])
            .qgm_axis(&[0.9], 0.1)
            .cluster(
                "uniform",
                Topology::ring(4),
                ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            )
            .slowdown("none", SlowdownModel::None)
            .seeds([3, 4])
    }

    #[test]
    fn grid_order_is_protocol_major_seed_minor() {
        let grid = small_grid();
        assert_eq!(grid.len(), 8);
        let points = grid.points();
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].protocol, "hop");
        assert_eq!(points[0].seed, 3);
        assert_eq!(points[1].protocol, "hop");
        assert_eq!(points[1].seed, 4);
        assert_eq!(points[2].protocol, "ps_bsp");
        assert_eq!(points[4].protocol, "prague(g=2,r=1)");
        assert_eq!(points[6].protocol, "qgm(mu=0.9)");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(points[5].label(), "prague(g=2,r=1)/uniform/none/s4");
    }

    #[test]
    fn fault_axis_labels_and_plans() {
        let grid = SweepGrid::new(Hyper::svm(), 16)
            .protocol("hop", Protocol::Hop(HopConfig::backup(1, 4)))
            .cluster(
                "uniform",
                Topology::ring(4),
                ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            )
            .fault_axis(&[0.0, 0.05], &[false, true])
            .slowdown("none", SlowdownModel::None)
            .seeds([3]);
        // 1 pristine + 3 faulted variants (the 0.0/false combo is skipped).
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].cluster, "uniform");
        assert!(points[0].experiment.cluster.faults().is_empty());
        assert_eq!(points[1].cluster, "uniform+churn");
        assert_eq!(points[1].experiment.cluster.faults().crashes().len(), 1);
        assert_eq!(points[2].cluster, "uniform+loss0.05");
        assert_eq!(points[2].experiment.cluster.faults().loss(), 0.05);
        assert_eq!(points[3].cluster, "uniform+loss0.05+churn");
        for p in &points {
            assert!(p.experiment.validate().is_ok(), "{}", p.label());
        }
    }

    #[test]
    fn empty_axis_means_empty_grid() {
        let grid =
            SweepGrid::new(Hyper::svm(), 8).protocol("hop", Protocol::Hop(HopConfig::standard()));
        assert!(grid.is_empty());
        assert_eq!(grid.points().len(), 0);
        let (model, dataset) = workload();
        let results = SweepRunner::new(2).run(&grid, &model, &dataset).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn parallel_results_match_sequential_run_calls() {
        let (model, dataset) = workload();
        let grid = small_grid();
        let sequential: Vec<u64> = grid
            .points()
            .iter()
            .map(|p| p.experiment.run(&model, &dataset).unwrap().digest())
            .collect();
        for threads in [1, 2, 4] {
            let results = SweepRunner::new(threads)
                .run(&grid, &model, &dataset)
                .unwrap();
            let digests: Vec<u64> = results.iter().map(SweepResult::digest).collect();
            assert_eq!(
                digests, sequential,
                "{threads}-thread sweep diverged from sequential runs"
            );
        }
    }

    #[test]
    fn invalid_point_error_is_thread_count_independent() {
        // Two invalid points (indices 2..=3: Prague group_size 0 for both
        // seeds); the reported error must be the lowest-index one at any
        // thread count.
        let (model, dataset) = workload();
        let grid = SweepGrid::new(Hyper::svm(), 8)
            .protocol("hop", Protocol::Hop(HopConfig::standard()))
            .protocol(
                "bad_prague",
                Protocol::Prague(PragueConfig {
                    group_size: 0,
                    ..PragueConfig::default()
                }),
            )
            .cluster(
                "uniform",
                Topology::ring(4),
                ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
            )
            .slowdown("none", SlowdownModel::None)
            .seeds([3, 4]);
        for threads in [1, 2, 4] {
            let err = SweepRunner::new(threads)
                .run(&grid, &model, &dataset)
                .unwrap_err();
            assert_eq!(err.index, 2, "wrong error point at {threads} threads");
            assert_eq!(
                err.source,
                ConfigError::InvalidPrague("group_size must be >= 1")
            );
            assert!(err.to_string().contains("bad_prague"));
        }
    }

    #[test]
    fn runner_thread_accounting() {
        assert_eq!(SweepRunner::new(4).effective_threads(100), 4);
        assert_eq!(SweepRunner::new(8).effective_threads(3), 3);
        assert_eq!(SweepRunner::new(3).effective_threads(0), 1);
        assert!(SweepRunner::all_cores().effective_threads(64) >= 1);
        assert_eq!(SweepRunner::default().threads, 0);
    }

    #[test]
    fn summary_renders_table_csv_json() {
        let (model, dataset) = workload();
        let grid = small_grid();
        let results = SweepRunner::new(2).run(&grid, &model, &dataset).unwrap();
        let summary = SweepSummary::from_results(&results);
        assert_eq!(summary.len(), 8);
        assert!(!summary.is_empty());
        assert!(summary.total_wall_time() > 0.0);
        let table = summary.table();
        assert_eq!(table.len(), 8);
        let rendered = table.render();
        assert!(rendered.contains("prague(g=2,r=1)"));
        assert!(rendered.contains("eval_loss"));
        let csv = summary.to_csv();
        assert_eq!(csv.lines().count(), 9, "header + one line per point");
        // CSV must quote the comma inside the Prague label.
        assert!(csv.contains("\"prague(g=2,r=1)\""));
        let json = summary.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"protocol\"").count(), 8);
        assert!(json.contains("\"wall_time_s\""));
        assert!(!json.contains("NaN"), "JSON must stay parseable");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\u000ab\"");
    }
}
