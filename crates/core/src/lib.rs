//! # hop-core: Heterogeneity-aware decentralized training
//!
//! The paper's contribution, implemented end to end:
//!
//! * [`config`] — the protocol family: standard decentralized training
//!   (serial/parallel computation graphs, Fig. 2), the NOTIFY-ACK baseline
//!   (§3.3), queue-based synchronization with token queues (§4), backup
//!   workers (§4.3), bounded staleness with the Eq. (2) weighted reduce
//!   (§4.4), skipping iterations (§5), plus parameter-server, ring
//!   all-reduce, AD-PSGD, Prague partial all-reduce and Quasi-Global
//!   Momentum baselines.
//! * [`semantics`] — the pure update-selection/reduction/jump rules the
//!   worker machine and the oracle share.
//! * [`conformance`] — the protocol-event trace both runtimes emit and
//!   the invariant [`conformance::Oracle`] that replays it (gap bounds,
//!   backup quota, staleness window, jump legality).
//! * [`choreography`] — the same grammar as typestate handles: the only
//!   way a runtime can emit exchange events, so illegal event orders are
//!   compile errors. The handles are the grammar; the Oracle is its
//!   checker.
//! * [`sim_runtime`] — deterministic discrete-event execution on
//!   [`hop_sim`]'s virtual cluster; produces timing traces, gap
//!   statistics and loss curves for every figure in the paper.
//! * the Hop worker itself is written once, as the private sans-IO
//!   `machine` module: one state machine per worker (phase and
//!   choreography handle, rotating [`hop_queue`] update queue, newest
//!   updates, token and ACK counts) that is fed inputs and asks an
//!   executor to compute, send, grant, ACK or finish. The simulator's
//!   decentralized runtime is one executor; the private `worker` module's
//!   loop is the other, shared by:
//! * [`threaded`] / [`process`] — the same protocol executed for real,
//!   each worker pumping its inbox over one of two transports: OS
//!   threads posting to each other's mailboxes and OS *processes* on one
//!   host speaking [`hop_wire`] length-prefixed frames through
//!   shared-memory rings (measured link bytes equal the simulator's
//!   `bytes_sent` by construction). Both return a [`RuntimeReport`] or
//!   one [`RuntimeError`]; a failed traced run returns a [`FailedRun`],
//!   the error with the merged partial trace.
//! * [`trainer`] — the high-level [`trainer::SimExperiment`] API.
//! * [`sweep`] — cartesian experiment grids ([`sweep::SweepGrid`])
//!   executed across all cores by [`sweep::SweepRunner`], bit-identical
//!   to sequential runs at any thread count.
//!
//! # Examples
//!
//! ```
//! use hop_core::config::{HopConfig, Protocol};
//! use hop_core::trainer::{Hyper, SimExperiment};
//! use hop_data::webspam::SyntheticWebspam;
//! use hop_graph::Topology;
//! use hop_model::svm::Svm;
//! use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
//!
//! let dataset = SyntheticWebspam::generate(256, 0);
//! let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
//! let report = SimExperiment {
//!     topology: Topology::ring_based(8),
//!     cluster: ClusterSpec::uniform(8, 4, 0.01, LinkModel::ethernet_1gbps()),
//!     slowdown: SlowdownModel::paper_random(8),
//!     protocol: Protocol::Hop(HopConfig::backup(1, 5)),
//!     hyper: Hyper::svm(),
//!     max_iters: 30,
//!     seed: 7,
//!     eval_every: 10,
//!     eval_examples: 64,
//! }
//! .run(&model, &dataset)?;
//! assert!(!report.deadlocked);
//! # Ok::<(), hop_core::config::ConfigError>(())
//! ```

pub mod choreography;
pub mod config;
pub mod conformance;
mod machine;
#[cfg(unix)]
pub mod process;
pub mod report;
pub mod semantics;
pub mod sim_runtime;
pub mod sweep;
pub mod threaded;
pub mod trainer;
mod worker;

pub use config::{
    ComputeOrder, HopConfig, PragueConfig, Protocol, QgmConfig, SkipConfig, SyncMode,
};
pub use conformance::{ConformanceSummary, Oracle, ProtocolEvent, ProtocolTrace, Violation};
pub use hop_tensor::CompressionConfig;
#[cfg(unix)]
pub use process::ProcessExperiment;
pub use report::{FailedRun, RuntimeError, RuntimeReport, TrainingReport};
pub use sim_runtime::recorder::EvalConfig;
pub use sweep::{SweepGrid, SweepResult, SweepRunner, SweepSummary};
pub use trainer::{Hyper, SimExperiment};
