//! Protocol configuration and validation.
//!
//! The configuration space mirrors the paper's design matrix: computation
//! order (serial vs parallel, Fig. 2), synchronization mechanism
//! (NOTIFY-ACK vs queue-based with optional token queues, §3–4), the
//! heterogeneity mitigations (backup workers §4.3, bounded staleness §4.4,
//! skipping iterations §5), and the baselines (parameter server, ring
//! all-reduce, AD-PSGD).

use hop_graph::bounds::BaseSetting;
use hop_graph::Topology;
use hop_tensor::CompressionConfig;
use std::fmt;

/// Whether gradients are applied before or after the parameter exchange
/// (Fig. 2: serial vs parallel computation graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeOrder {
    /// Fig. 2(a): Compute → Apply → Send → Recv → Reduce. Gradients are
    /// generated and applied on the same parameters; longer but
    /// statistically cleaner iterations.
    Serial,
    /// Fig. 2(b): Send ∥ Compute → Recv → Reduce → Apply. The default, as
    /// in the paper's design ("We use parallel approach in our design").
    #[default]
    Parallel,
}

/// Synchronization mechanism between neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The prior-work protocol (§3.3): a worker may not send its next
    /// update until every out-going neighbor has ACKed the previous one.
    NotifyAck,
    /// Hop's queue-based coordination (§4): update queues, plus token
    /// queues bounding the per-edge iteration gap to `max_ig` when set.
    /// `max_ig: None` runs with update queues only — correct only when the
    /// topology itself bounds the gap (Theorem 1), and *incorrect* with
    /// backup workers (§4.3); validation enforces this.
    Queues {
        /// Maximum iteration gap enforced by token queues, if any.
        max_ig: Option<u64>,
    },
}

/// Skipping-iterations configuration (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipConfig {
    /// Maximum iterations a worker may jump at once (the paper evaluates
    /// 2 and 10 in Fig. 19).
    pub max_jump: u64,
    /// A worker only jumps when it is at least this many iterations behind
    /// all of its out-going neighbors (the user-specified trigger of §5).
    pub trigger_behind: u64,
}

impl SkipConfig {
    /// Creates a skip config with the default trigger of 2.
    ///
    /// # Panics
    ///
    /// Panics if `max_jump < 2` (a jump of 1 is just a normal advance).
    pub fn with_max_jump(max_jump: u64) -> Self {
        assert!(max_jump >= 2, "max_jump must be at least 2");
        Self {
            max_jump,
            trigger_behind: 2,
        }
    }
}

/// Full configuration of Hop's decentralized protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct HopConfig {
    /// Computation-graph order (Fig. 2).
    pub order: ComputeOrder,
    /// Synchronization mechanism.
    pub sync: SyncMode,
    /// Number of backup workers `N_buw` per node (§4.3): a node advances
    /// after receiving `|Nin| - N_buw` updates.
    pub n_backup: usize,
    /// Staleness bound `s` (§4.4); `None` disables bounded staleness.
    pub staleness: Option<u64>,
    /// Skipping-iterations configuration (§5); `None` disables skipping.
    pub skip: Option<SkipConfig>,
    /// How the staleness Reduce weighs updates (Eq. 2 by default; the
    /// alternatives support the §4.4 "future work" ablation).
    pub staleness_weighting: crate::semantics::StalenessWeighting,
    /// Codec applied to every update message this protocol puts on the
    /// wire ([`CompressionConfig::Identity`] by default, which leaves the
    /// uncompressed code path bit-for-bit untouched).
    pub compression: CompressionConfig,
}

impl HopConfig {
    /// Standard decentralized training with update queues only (Fig. 4).
    pub fn standard() -> Self {
        Self {
            order: ComputeOrder::Parallel,
            sync: SyncMode::Queues { max_ig: None },
            n_backup: 0,
            staleness: None,
            skip: None,
            staleness_weighting: crate::semantics::StalenessWeighting::Linear,
            compression: CompressionConfig::Identity,
        }
    }

    /// Standard decentralized training with token queues (Fig. 7).
    pub fn standard_with_tokens(max_ig: u64) -> Self {
        Self {
            sync: SyncMode::Queues {
                max_ig: Some(max_ig),
            },
            ..Self::standard()
        }
    }

    /// The NOTIFY-ACK baseline (§3.3), which implies the serial order.
    pub fn notify_ack() -> Self {
        Self {
            order: ComputeOrder::Serial,
            sync: SyncMode::NotifyAck,
            n_backup: 0,
            staleness: None,
            skip: None,
            staleness_weighting: crate::semantics::StalenessWeighting::Linear,
            compression: CompressionConfig::Identity,
        }
    }

    /// Backup workers (§4.3); token queues are mandatory.
    pub fn backup(n_backup: usize, max_ig: u64) -> Self {
        Self {
            n_backup,
            ..Self::standard_with_tokens(max_ig)
        }
    }

    /// Bounded staleness (§4.4) with token queues.
    pub fn staleness(s: u64, max_ig: u64) -> Self {
        Self {
            staleness: Some(s),
            ..Self::standard_with_tokens(max_ig)
        }
    }

    /// The hybrid setting (backup + staleness, Table 1).
    pub fn hybrid(n_backup: usize, s: u64, max_ig: u64) -> Self {
        Self {
            n_backup,
            staleness: Some(s),
            ..Self::standard_with_tokens(max_ig)
        }
    }

    /// Adds skipping iterations to this configuration.
    pub fn with_skip(mut self, skip: SkipConfig) -> Self {
        self.skip = Some(skip);
        self
    }

    /// Selects a staleness weighting scheme (default: Eq. 2 linear).
    pub fn with_staleness_weighting(
        mut self,
        scheme: crate::semantics::StalenessWeighting,
    ) -> Self {
        self.staleness_weighting = scheme;
        self
    }

    /// Selects the update-message codec (default: identity).
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// The `max_ig` in force, if token queues are enabled.
    pub fn max_ig(&self) -> Option<u64> {
        match self.sync {
            SyncMode::Queues { max_ig } => max_ig,
            SyncMode::NotifyAck => None,
        }
    }

    /// The Table 1 row this configuration's gap bounds come from; its
    /// [`BaseSetting::b0`] bounds a worker against each in-neighbor.
    pub fn base_setting(&self) -> BaseSetting {
        match (self.staleness, self.n_backup) {
            (None, 0) => BaseSetting::Standard,
            (Some(s), 0) => BaseSetting::BoundedStaleness(s),
            (None, _) => BaseSetting::BackupWorkers,
            (Some(_), _) => BaseSetting::Hybrid,
        }
    }

    /// Whether a Send first inquires each receiver's iteration and skips
    /// the ones already past it (§6.2(b)): with backup workers, where
    /// stale updates accumulate.
    pub fn send_inquiry(&self) -> bool {
        self.n_backup > 0
    }

    /// Validates the configuration against a topology.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the combination is one the paper shows
    /// to be unsupported or unsafe:
    /// * NOTIFY-ACK with backup workers (§3.4), staleness > 1 (§3.5) or
    ///   skipping (needs token-queue occupancy);
    /// * backup workers without token queues (unbounded gap, §4.3);
    /// * skipping without token queues (§5);
    /// * `N_buw >= |Nin(i)|` for some node;
    /// * a disconnected topology.
    pub fn validate(&self, topology: &Topology) -> Result<(), ConfigError> {
        if topology.is_empty() {
            return Err(ConfigError::NoWorkers);
        }
        if !topology.is_strongly_connected() {
            return Err(ConfigError::DisconnectedTopology);
        }
        match self.sync {
            SyncMode::NotifyAck => {
                if self.n_backup > 0 {
                    return Err(ConfigError::NotifyAckUnsupported("backup workers"));
                }
                if self.staleness.is_some() {
                    return Err(ConfigError::NotifyAckUnsupported("bounded staleness"));
                }
                if self.skip.is_some() {
                    return Err(ConfigError::NotifyAckUnsupported("skipping iterations"));
                }
                if self.order != ComputeOrder::Serial {
                    return Err(ConfigError::NotifyAckUnsupported(
                        "the parallel computation graph",
                    ));
                }
            }
            SyncMode::Queues { max_ig } => {
                if max_ig.is_none() && self.n_backup > 0 {
                    return Err(ConfigError::TokensRequired("backup workers"));
                }
                if max_ig.is_none() && self.skip.is_some() {
                    return Err(ConfigError::TokensRequired("skipping iterations"));
                }
                if let Some(skip) = self.skip {
                    if skip.max_jump < 2 {
                        return Err(ConfigError::InvalidSkip(skip.max_jump));
                    }
                }
            }
        }
        for i in 0..topology.len() {
            if self.n_backup >= topology.in_degree(i) {
                return Err(ConfigError::TooManyBackups {
                    n_backup: self.n_backup,
                    in_degree: topology.in_degree(i),
                    node: i,
                });
            }
        }
        self.compression
            .validate()
            .map_err(ConfigError::InvalidCompression)?;
        Ok(())
    }
}

impl Default for HopConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Parameter-server coordination modes (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsMode {
    /// Bulk Synchronous Parallel: global barrier every iteration.
    Bsp,
    /// Stale Synchronous Parallel with the given staleness bound.
    Ssp(u64),
    /// Fully asynchronous updates.
    Async,
}

/// Parameter-server baseline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsConfig {
    /// Coordination mode.
    pub mode: PsMode,
    /// Codec applied to parameter broadcasts and gradient pushes
    /// (identity by default).
    pub compression: CompressionConfig,
}

impl PsConfig {
    /// Uncompressed parameter server in the given mode.
    pub fn new(mode: PsMode) -> Self {
        Self {
            mode,
            compression: CompressionConfig::Identity,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidCompression`] for a malformed codec.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.compression
            .validate()
            .map_err(ConfigError::InvalidCompression)
    }
}

impl Default for PsConfig {
    fn default() -> Self {
        Self::new(PsMode::Bsp)
    }
}

/// AD-PSGD baseline configuration (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdPsgdConfig {
    /// When true, refuse to run on non-bipartite graphs (the published
    /// deadlock-free schedule requires bipartiteness); when false, run
    /// anyway and let the simulator detect deadlock.
    pub require_bipartite: bool,
    /// Codec applied to the pairwise parameter exchanges (identity by
    /// default).
    pub compression: CompressionConfig,
}

impl AdPsgdConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidCompression`] for a malformed codec.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.compression
            .validate()
            .map_err(ConfigError::InvalidCompression)
    }
}

impl Default for AdPsgdConfig {
    fn default() -> Self {
        Self {
            require_bipartite: true,
            compression: CompressionConfig::Identity,
        }
    }
}

/// Prague-style partial all-reduce configuration (Luo et al.,
/// *Heterogeneity-Aware Asynchronous Decentralized Training*).
///
/// Each round the workers are partitioned into groups of at most
/// [`group_size`](Self::group_size) (deterministically from
/// `(seed, round)` via [`hop_graph::groups::partition`]) and each group
/// all-reduces among only its members, so a straggler delays at most its
/// own group. [`regen_every`](Self::regen_every) controls how many rounds
/// a partition is reused before it is re-drawn — regeneration is what
/// mixes information across groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PragueConfig {
    /// Maximum workers per all-reduce group (the paper uses small groups,
    /// e.g. 2–8). Groups of 1 degenerate to local SGD for that round.
    pub group_size: usize,
    /// Rounds between partition regenerations (1 = fresh groups every
    /// round, the paper's default).
    pub regen_every: u64,
    /// Codec applied to the in-group reduce traffic (identity by default).
    pub compression: CompressionConfig,
}

impl PragueConfig {
    /// Fresh groups of `group_size` every round.
    pub fn with_group_size(group_size: usize) -> Self {
        Self {
            group_size,
            ..Self::default()
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidPrague`] if `group_size == 0` or
    /// `regen_every == 0`, or [`ConfigError::InvalidCompression`] for a
    /// malformed codec.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.group_size == 0 {
            return Err(ConfigError::InvalidPrague("group_size must be >= 1"));
        }
        if self.regen_every == 0 {
            return Err(ConfigError::InvalidPrague("regen_every must be >= 1"));
        }
        self.compression
            .validate()
            .map_err(ConfigError::InvalidCompression)?;
        Ok(())
    }
}

impl Default for PragueConfig {
    fn default() -> Self {
        Self {
            group_size: 4,
            regen_every: 1,
            compression: CompressionConfig::Identity,
        }
    }
}

/// Quasi-Global Momentum configuration (Lin et al.): synchronous gossip
/// over the communication topology with the
/// [`hop_model::QgmState`] momentum applied around each Reduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QgmConfig {
    /// Momentum factor `mu` (the paper reuses SGD's 0.9).
    pub mu: f32,
    /// Mixing weight `beta` of the fresh parameter displacement (the
    /// paper's choice is `1 - mu`).
    pub beta: f32,
    /// Codec applied to the gossiped half-step parameters (identity by
    /// default).
    pub compression: CompressionConfig,
}

impl QgmConfig {
    /// Validates the hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidQgm`] if `mu` is outside `[0, 1)` or
    /// `beta` is not finite and non-negative, or
    /// [`ConfigError::InvalidCompression`] for a malformed codec.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.mu) {
            return Err(ConfigError::InvalidQgm("mu must be in [0,1)"));
        }
        if !self.beta.is_finite() || self.beta < 0.0 {
            return Err(ConfigError::InvalidQgm("beta must be finite and >= 0"));
        }
        self.compression
            .validate()
            .map_err(ConfigError::InvalidCompression)?;
        Ok(())
    }
}

impl Default for QgmConfig {
    fn default() -> Self {
        Self {
            mu: 0.9,
            beta: 0.1,
            compression: CompressionConfig::Identity,
        }
    }
}

/// Top-level protocol selection.
#[derive(Debug, Clone, PartialEq)]
pub enum Protocol {
    /// Hop's decentralized protocol family (the paper's contribution).
    Hop(HopConfig),
    /// Centralized parameter-server baseline.
    Ps(PsConfig),
    /// Ring all-reduce baseline (§2.1).
    RingAllReduce,
    /// AD-PSGD baseline (§5).
    AdPsgd(AdPsgdConfig),
    /// Prague-style partial all-reduce (Luo et al.).
    Prague(PragueConfig),
    /// Quasi-Global Momentum gossip (Lin et al.).
    Qgm(QgmConfig),
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The experiment has no workers at all (defense in depth — the
    /// [`Topology`] constructors already reject zero nodes).
    NoWorkers,
    /// The topology is not strongly connected.
    DisconnectedTopology,
    /// NOTIFY-ACK cannot express the named feature.
    NotifyAckUnsupported(&'static str),
    /// The named feature requires token queues.
    TokensRequired(&'static str),
    /// `N_buw` must be smaller than every node's in-degree.
    TooManyBackups {
        /// Configured number of backup workers.
        n_backup: usize,
        /// The violating in-degree.
        in_degree: usize,
        /// The violating node.
        node: usize,
    },
    /// `max_jump` must be at least 2.
    InvalidSkip(u64),
    /// AD-PSGD's deadlock-free schedule needs a bipartite graph.
    NotBipartite,
    /// Invalid Prague partial all-reduce knobs.
    InvalidPrague(&'static str),
    /// Invalid Quasi-Global Momentum hyperparameters.
    InvalidQgm(&'static str),
    /// Invalid update-compression codec knobs.
    InvalidCompression(&'static str),
    /// Invalid fault-injection plan knobs (see
    /// [`hop_sim::FaultPlan::validate`]).
    InvalidFaultPlan(&'static str),
    /// Invalid simulated-link knobs (e.g. a NaN jitter smuggled into a
    /// [`hop_sim::LinkModel`] literal past the builder assertions).
    InvalidLink(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoWorkers => {
                write!(f, "experiment needs at least one worker")
            }
            ConfigError::DisconnectedTopology => {
                write!(f, "topology must be strongly connected")
            }
            ConfigError::NotifyAckUnsupported(feature) => {
                write!(f, "NOTIFY-ACK cannot support {feature}")
            }
            ConfigError::TokensRequired(feature) => {
                write!(f, "{feature} requires token queues (set max_ig)")
            }
            ConfigError::TooManyBackups {
                n_backup,
                in_degree,
                node,
            } => write!(
                f,
                "N_buw = {n_backup} must be < |Nin({node})| = {in_degree}"
            ),
            ConfigError::InvalidSkip(j) => write!(f, "max_jump {j} must be >= 2"),
            ConfigError::NotBipartite => {
                write!(f, "AD-PSGD requires a bipartite communication graph")
            }
            ConfigError::InvalidPrague(why) => write!(f, "invalid Prague config: {why}"),
            ConfigError::InvalidQgm(why) => write!(f, "invalid QGM config: {why}"),
            ConfigError::InvalidCompression(why) => {
                write!(f, "invalid compression config: {why}")
            }
            ConfigError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            ConfigError::InvalidLink(why) => write!(f, "invalid link model: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Topology {
        Topology::ring(8)
    }

    #[test]
    fn standard_validates() {
        HopConfig::standard().validate(&ring()).unwrap();
        HopConfig::standard_with_tokens(5)
            .validate(&ring())
            .unwrap();
        HopConfig::notify_ack().validate(&ring()).unwrap();
    }

    #[test]
    fn notify_ack_rejects_extensions() {
        let mut c = HopConfig::notify_ack();
        c.n_backup = 1;
        assert_eq!(
            c.validate(&ring()),
            Err(ConfigError::NotifyAckUnsupported("backup workers"))
        );
        let mut c = HopConfig::notify_ack();
        c.staleness = Some(5);
        assert!(matches!(
            c.validate(&ring()),
            Err(ConfigError::NotifyAckUnsupported(_))
        ));
        let mut c = HopConfig::notify_ack();
        c.skip = Some(SkipConfig::with_max_jump(4));
        assert!(c.validate(&ring()).is_err());
        let mut c = HopConfig::notify_ack();
        c.order = ComputeOrder::Parallel;
        assert!(c.validate(&ring()).is_err());
    }

    #[test]
    fn backup_requires_tokens() {
        let mut c = HopConfig::standard();
        c.n_backup = 1;
        assert_eq!(
            c.validate(&ring()),
            Err(ConfigError::TokensRequired("backup workers"))
        );
        HopConfig::backup(1, 5).validate(&ring()).unwrap();
    }

    #[test]
    fn skip_requires_tokens() {
        let mut c = HopConfig::standard();
        c.skip = Some(SkipConfig::with_max_jump(10));
        assert!(matches!(
            c.validate(&ring()),
            Err(ConfigError::TokensRequired(_))
        ));
        HopConfig::backup(1, 5)
            .with_skip(SkipConfig::with_max_jump(10))
            .validate(&ring())
            .unwrap();
    }

    #[test]
    fn too_many_backups_rejected() {
        // Ring in-degree is 3 (self + 2); N_buw = 3 is invalid.
        let c = HopConfig::backup(3, 5);
        assert!(matches!(
            c.validate(&ring()),
            Err(ConfigError::TooManyBackups { .. })
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            HopConfig::standard().validate(&t),
            Err(ConfigError::DisconnectedTopology)
        );
    }

    #[test]
    fn send_inquiry_defaults_on_for_backup() {
        assert!(!HopConfig::standard().send_inquiry());
        assert!(HopConfig::backup(1, 5).send_inquiry());
    }

    #[test]
    fn error_display() {
        let e = ConfigError::TooManyBackups {
            n_backup: 3,
            in_degree: 3,
            node: 0,
        };
        assert!(format!("{e}").contains("N_buw"));
    }

    #[test]
    fn prague_config_validates() {
        PragueConfig::default().validate().unwrap();
        PragueConfig::with_group_size(2).validate().unwrap();
        assert_eq!(
            PragueConfig {
                group_size: 0,
                ..PragueConfig::default()
            }
            .validate(),
            Err(ConfigError::InvalidPrague("group_size must be >= 1"))
        );
        assert_eq!(
            PragueConfig {
                regen_every: 0,
                ..PragueConfig::default()
            }
            .validate(),
            Err(ConfigError::InvalidPrague("regen_every must be >= 1"))
        );
    }

    #[test]
    fn qgm_config_validates() {
        QgmConfig::default().validate().unwrap();
        assert!(QgmConfig {
            mu: 1.0,
            ..QgmConfig::default()
        }
        .validate()
        .is_err());
        assert!(QgmConfig {
            beta: -0.1,
            ..QgmConfig::default()
        }
        .validate()
        .is_err());
        assert!(QgmConfig {
            beta: f32::NAN,
            ..QgmConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn compression_is_validated_everywhere() {
        let bad = CompressionConfig::TopK { ratio: 0.0 };
        let hop = HopConfig::standard().with_compression(bad);
        assert!(matches!(
            hop.validate(&ring()),
            Err(ConfigError::InvalidCompression(_))
        ));
        let ps = PsConfig {
            compression: bad,
            ..PsConfig::default()
        };
        assert!(matches!(
            ps.validate(),
            Err(ConfigError::InvalidCompression(_))
        ));
        let ad = AdPsgdConfig {
            compression: bad,
            ..AdPsgdConfig::default()
        };
        assert!(matches!(
            ad.validate(),
            Err(ConfigError::InvalidCompression(_))
        ));
        let pr = PragueConfig {
            compression: bad,
            ..PragueConfig::default()
        };
        assert!(matches!(
            pr.validate(),
            Err(ConfigError::InvalidCompression(_))
        ));
        let qg = QgmConfig {
            compression: bad,
            ..QgmConfig::default()
        };
        assert!(matches!(
            qg.validate(),
            Err(ConfigError::InvalidCompression(_))
        ));
        // The good codecs all pass.
        HopConfig::standard()
            .with_compression(CompressionConfig::TopK { ratio: 0.01 })
            .validate(&ring())
            .unwrap();
        HopConfig::standard()
            .with_compression(CompressionConfig::Int8Uniform)
            .validate(&ring())
            .unwrap();
    }

    #[test]
    fn hybrid_constructor() {
        let c = HopConfig::hybrid(1, 5, 5);
        assert_eq!(c.n_backup, 1);
        assert_eq!(c.staleness, Some(5));
        assert_eq!(c.max_ig(), Some(5));
        c.validate(&ring()).unwrap();
    }
}
