//! The high-level experiment API used by examples, tests and benchmarks.

use crate::config::{ConfigError, Protocol};
use crate::report::TrainingReport;
use crate::sim_runtime::engine::SimEngine;
use crate::sim_runtime::recorder::EvalConfig;
use crate::sim_runtime::{adpsgd, decentralized, prague, ps, qgm, ring};
use hop_data::InMemoryDataset;
use hop_graph::Topology;
use hop_model::Model;
use hop_sim::{ClusterSpec, SlowdownModel};

/// Optimizer hyperparameters (§7.2's setup, scaled to the synthetic
/// workloads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyper {
    /// Learning rate.
    pub lr: f32,
    /// Momentum (the paper uses 0.9).
    pub momentum: f32,
    /// L2 weight decay (1e-4 for the CNN, 1e-7 for the SVM in the paper).
    pub weight_decay: f32,
    /// Minibatch size per worker.
    pub batch_size: usize,
}

impl Hyper {
    /// Hyperparameters for the CNN workload (paper: lr 0.1, momentum 0.9,
    /// weight decay 1e-4, batch 128 — lr and batch scaled to the tiny CNN
    /// and synthetic data).
    pub fn cnn() -> Self {
        Self {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            batch_size: 32,
        }
    }

    /// Hyperparameters for the SVM workload (paper: lr 10 on webspam
    /// features, momentum 0.9, weight decay 1e-7 — lr scaled to the
    /// synthetic features).
    pub fn svm() -> Self {
        Self {
            lr: 0.5,
            momentum: 0.9,
            weight_decay: 1e-7,
            batch_size: 32,
        }
    }
}

/// A fully specified simulated training experiment.
///
/// # Examples
///
/// ```
/// use hop_core::config::{HopConfig, Protocol};
/// use hop_core::trainer::{Hyper, SimExperiment};
/// use hop_data::webspam::SyntheticWebspam;
/// use hop_graph::Topology;
/// use hop_model::svm::Svm;
/// use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
///
/// let dataset = SyntheticWebspam::generate(256, 0);
/// let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
/// let experiment = SimExperiment {
///     topology: Topology::ring(4),
///     cluster: ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
///     slowdown: SlowdownModel::None,
///     protocol: Protocol::Hop(HopConfig::standard()),
///     hyper: Hyper::svm(),
///     max_iters: 20,
///     seed: 42,
///     eval_every: 10,
///     eval_examples: 64,
/// };
/// let report = experiment.run(&model, &dataset)?;
/// assert!(!report.deadlocked);
/// # Ok::<(), hop_core::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimExperiment {
    /// Communication graph (decentralized protocols; for PS/all-reduce only
    /// its size is used).
    pub topology: Topology,
    /// Machine placement and link parameters (workers only; baselines that
    /// need a server append their own node).
    pub cluster: ClusterSpec,
    /// Heterogeneity model.
    pub slowdown: SlowdownModel,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Optimizer hyperparameters.
    pub hyper: Hyper,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Master seed: fixes data order, initialization and slowdowns.
    pub seed: u64,
    /// Evaluate the averaged parameters every this many iterations
    /// (0 disables).
    pub eval_every: u64,
    /// Examples in the fixed evaluation batch.
    pub eval_examples: usize,
}

impl SimExperiment {
    /// Validates the protocol configuration against the topology without
    /// running anything — exactly the checks [`Self::run`] performs before
    /// simulating. Callers batching many experiments (the sweep runner)
    /// use this to reject a bad grid point up front instead of after the
    /// other points' compute has been spent.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the protocol configuration is invalid
    /// for the topology (see [`crate::config::HopConfig::validate`]),
    /// [`ConfigError::NotBipartite`] for AD-PSGD with `require_bipartite`
    /// on a non-bipartite graph, the Prague/QGM knob errors (see
    /// [`crate::config::PragueConfig::validate`] and
    /// [`crate::config::QgmConfig::validate`]),
    /// [`ConfigError::InvalidLink`] for malformed link knobs, or
    /// [`ConfigError::InvalidFaultPlan`] for a malformed fault plan (see
    /// [`hop_sim::FaultPlan::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cluster
            .link()
            .validate()
            .map_err(ConfigError::InvalidLink)?;
        self.cluster
            .faults()
            .validate()
            .map_err(ConfigError::InvalidFaultPlan)?;
        match &self.protocol {
            Protocol::Hop(cfg) => cfg.validate(&self.topology),
            Protocol::Ps(_) | Protocol::RingAllReduce => Ok(()),
            Protocol::AdPsgd(cfg) => {
                if cfg.require_bipartite && !self.topology.is_bipartite() {
                    return Err(ConfigError::NotBipartite);
                }
                Ok(())
            }
            Protocol::Prague(cfg) => cfg.validate(),
            Protocol::Qgm(cfg) => {
                cfg.validate()?;
                if !self.topology.is_strongly_connected() {
                    return Err(ConfigError::DisconnectedTopology);
                }
                Ok(())
            }
        }
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::validate`]'s errors; a validated experiment always
    /// runs.
    pub fn run(
        &self,
        model: &dyn Model,
        dataset: &InMemoryDataset,
    ) -> Result<TrainingReport, ConfigError> {
        self.run_with(model, dataset, false)
    }

    /// [`Self::run`] with conformance recording enabled: the returned
    /// report carries the structured protocol-event trace in
    /// [`TrainingReport::conformance`], ready for
    /// [`crate::conformance::Oracle::check`]. Recording changes nothing
    /// about the run itself — same seed, same digest.
    ///
    /// The Hop family emits the full event vocabulary (sends, consumes,
    /// tokens, staleness admissions, jumps); the baseline protocols emit
    /// iteration entries through the same engine hook. All emission goes
    /// through the [`crate::choreography`] typestate handles, so a trace
    /// that would violate the grammar cannot be produced in the first
    /// place — the Oracle double-checks the dynamic obligations (quotas,
    /// windows, token budgets) the type system cannot see.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::validate`]'s errors.
    pub fn run_conformance(
        &self,
        model: &dyn Model,
        dataset: &InMemoryDataset,
    ) -> Result<TrainingReport, ConfigError> {
        self.run_with(model, dataset, true)
    }

    fn run_with(
        &self,
        model: &dyn Model,
        dataset: &InMemoryDataset,
        conformance: bool,
    ) -> Result<TrainingReport, ConfigError> {
        self.validate()?;
        let sim = SimRun {
            exp: self,
            model,
            dataset,
            conformance,
        };
        Ok(match &self.protocol {
            Protocol::Hop(cfg) => decentralized::run(cfg, &sim),
            Protocol::Ps(cfg) => ps::run(cfg, &sim),
            Protocol::RingAllReduce => ring::run(&sim),
            Protocol::AdPsgd(cfg) => adpsgd::run(cfg, &sim),
            Protocol::Prague(cfg) => prague::run(cfg, &sim),
            Protocol::Qgm(cfg) => qgm::run(cfg, &sim),
        })
    }
}

/// One validated simulator run: the experiment plus the model, data and
/// recording switch it runs with. Every protocol builds its engine here,
/// so each `sim_runtime` module keeps only its own set-up.
pub(crate) struct SimRun<'a> {
    /// The experiment; [`SimExperiment::validate`] has passed.
    pub(crate) exp: &'a SimExperiment,
    model: &'a dyn Model,
    dataset: &'a InMemoryDataset,
    conformance: bool,
}

impl<'a> SimRun<'a> {
    /// An engine over the experiment's cluster.
    pub(crate) fn engine<E>(&self) -> SimEngine<'a, E> {
        self.engine_on(self.exp.cluster.clone())
    }

    /// An engine over `spec`: the experiment's workers, then whatever
    /// non-worker nodes the protocol appended (the parameter server).
    pub(crate) fn engine_on<E>(&self, spec: ClusterSpec) -> SimEngine<'a, E> {
        let exp = self.exp;
        let eval = EvalConfig {
            every: exp.eval_every,
            examples: exp.eval_examples,
        };
        SimEngine::new(
            spec,
            exp.cluster.len(),
            &exp.slowdown,
            self.model,
            self.dataset,
            &exp.hyper,
            exp.max_iters,
            exp.seed,
            eval,
        )
        .with_conformance(self.conformance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdPsgdConfig, HopConfig, PragueConfig, PsConfig, PsMode, QgmConfig};
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;
    use hop_sim::LinkModel;

    fn experiment(protocol: Protocol) -> (SimExperiment, Svm, InMemoryDataset) {
        let dataset = SyntheticWebspam::generate(128, 1);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        (
            SimExperiment {
                topology: Topology::ring(4),
                cluster: ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
                slowdown: SlowdownModel::None,
                protocol,
                hyper: Hyper::svm(),
                max_iters: 15,
                seed: 2,
                eval_every: 5,
                eval_examples: 32,
            },
            model,
            dataset,
        )
    }

    #[test]
    fn all_protocols_run() {
        for protocol in [
            Protocol::Hop(HopConfig::standard()),
            Protocol::Hop(HopConfig::standard_with_tokens(4)),
            Protocol::Hop(HopConfig::notify_ack()),
            Protocol::Ps(PsConfig::new(PsMode::Bsp)),
            Protocol::Ps(PsConfig::new(PsMode::Ssp(3))),
            Protocol::RingAllReduce,
            Protocol::AdPsgd(AdPsgdConfig::default()),
            Protocol::Prague(PragueConfig::default()),
            Protocol::Qgm(QgmConfig::default()),
        ] {
            let (exp, model, dataset) = experiment(protocol.clone());
            let report = exp.run(&model, &dataset).expect("runs");
            assert!(!report.deadlocked, "{protocol:?} deadlocked");
            assert!(report.wall_time > 0.0);
        }
    }

    #[test]
    fn invalid_config_surfaces_error() {
        let (exp, model, dataset) = experiment(Protocol::Hop(HopConfig::backup(5, 4)));
        assert!(exp.run(&model, &dataset).is_err());
    }

    #[test]
    fn adpsgd_rejects_odd_ring() {
        let (mut exp, model, dataset) = experiment(Protocol::AdPsgd(AdPsgdConfig::default()));
        exp.topology = Topology::ring(5);
        exp.cluster = ClusterSpec::uniform(5, 2, 0.01, LinkModel::ethernet_1gbps());
        assert_eq!(
            exp.run(&model, &dataset).unwrap_err(),
            ConfigError::NotBipartite
        );
    }

    #[test]
    fn invalid_prague_and_qgm_surface_errors() {
        let (exp, model, dataset) = experiment(Protocol::Prague(PragueConfig {
            group_size: 0,
            ..PragueConfig::default()
        }));
        assert!(matches!(
            exp.run(&model, &dataset),
            Err(ConfigError::InvalidPrague(_))
        ));
        let (exp, model, dataset) = experiment(Protocol::Qgm(QgmConfig {
            mu: 1.5,
            ..QgmConfig::default()
        }));
        assert!(matches!(
            exp.run(&model, &dataset),
            Err(ConfigError::InvalidQgm(_))
        ));
    }

    #[test]
    fn hyper_presets() {
        assert!(Hyper::cnn().weight_decay > Hyper::svm().weight_decay);
        assert_eq!(Hyper::cnn().momentum, 0.9);
    }
}
