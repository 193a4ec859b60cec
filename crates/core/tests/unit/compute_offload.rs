//! Forced-offload determinism: with the engine's parameter-count
//! threshold forced to 0 every run gets a compute helper; forced to
//! `usize::MAX` none does. Each recipe below — the `engine_smoke`
//! variants and golden digests, the simulator cells of the conformance
//! grid, the whole chaos grid — must give the same digest, event
//! sequence and fault log both ways, whatever the two threads' schedule
//! (CI loops this module ×20).
//!
//! Compiled into `hop_core`'s unit-test target (`#[path]` in
//! `src/sim_runtime/mod.rs`): the threshold is crate-private.

use super::engine::OFFLOAD_MIN_PARAMS;
use crate::config::{PsConfig, PsMode, QgmConfig};
use crate::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig, TrainingReport};
use hop_data::webspam::SyntheticWebspam;
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::{GradScratch, Model};
use hop_sim::{ByzSpec, ByzVariant, ClusterSpec, CrashSpec, FaultPlan, LinkModel, SlowdownModel};
use hop_tensor::CompressionConfig;
use hop_util::Xoshiro256;

fn experiment(topology: Topology, protocol: Protocol, max_iters: u64, seed: u64) -> SimExperiment {
    let n = topology.len();
    SimExperiment {
        topology,
        cluster: ClusterSpec::uniform(n, 2, 0.01, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(n),
        protocol,
        hyper: Hyper::svm(),
        max_iters,
        seed,
        eval_every: 10,
        eval_examples: 48,
    }
}

/// Runs `exp` inline and with a helper; returns the (identical) report.
fn same_both_ways(label: &str, exp: &SimExperiment, examples: usize) -> TrainingReport {
    let dataset = SyntheticWebspam::generate(examples, 5);
    let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
    let run = |min| {
        OFFLOAD_MIN_PARAMS.set(min);
        exp.run_conformance(&model, &dataset).expect("valid")
    };
    let (inline, offload) = (run(usize::MAX), run(0));
    assert_eq!(inline.digest(), offload.digest(), "{label}: digest");
    assert_eq!(inline.conformance, offload.conformance, "{label}: events");
    assert_eq!(inline.fault_log, offload.fault_log, "{label}: fault log");
    assert_eq!(inline.events_processed, offload.events_processed, "{label}");
    offload
}

fn skip(max_ig: u64) -> HopConfig {
    HopConfig::backup(1, max_ig).with_skip(SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    })
}

#[test]
fn engine_smoke_variants_and_golden_digests() {
    let int8 = CompressionConfig::Int8Uniform;
    let topk = CompressionConfig::TopK { ratio: 0.01 };
    let hop_skip = HopConfig::backup(1, 5).with_skip(SkipConfig::with_max_jump(6));
    for cfg in [
        HopConfig::standard(),
        HopConfig::standard_with_tokens(4),
        HopConfig::notify_ack(),
        HopConfig::backup(1, 5),
        HopConfig::staleness(3, 5),
        hop_skip.clone(),
    ] {
        let label = format!("{cfg:?}");
        let report = same_both_ways(
            &label,
            &experiment(Topology::ring(6), Protocol::Hop(cfg), 20, 29),
            192,
        );
        assert!(!report.deadlocked, "{label}");
    }
    // `tests/engine_smoke.rs`'s literals, reproduced with a helper.
    let ps = |compression| PsConfig {
        compression,
        ..PsConfig::new(PsMode::Async)
    };
    let qgm = |compression| QgmConfig {
        compression,
        ..QgmConfig::default()
    };
    for (label, protocol, golden) in [
        (
            "hop_skip/int8",
            Protocol::Hop(hop_skip.clone().with_compression(int8)),
            0x03c4_3c1f_ab68_273c,
        ),
        (
            "hop_skip/topk",
            Protocol::Hop(hop_skip.with_compression(topk)),
            0xeedf_86d1_b6dc_d68b,
        ),
        (
            "ps_async/int8",
            Protocol::Ps(ps(int8)),
            0xb822_fa8d_fab5_4488,
        ),
        (
            "ps_async/topk",
            Protocol::Ps(ps(topk)),
            0x23cb_7805_bc44_e31f,
        ),
        ("qgm/int8", Protocol::Qgm(qgm(int8)), 0x5c4d_6746_acb3_8ac1),
        ("qgm/topk", Protocol::Qgm(qgm(topk)), 0x95e5_21ff_1628_66bf),
    ] {
        let report = same_both_ways(
            label,
            &experiment(Topology::ring_based(6), protocol, 20, 29),
            192,
        );
        assert_eq!(report.digest(), golden, "{label}: golden digest moved");
    }
}

#[test]
fn conformance_grid_simulator_cells() {
    let modes = [
        ("standard", HopConfig::standard()),
        ("token", HopConfig::standard_with_tokens(3)),
        ("backup", HopConfig::backup(1, 4)),
        ("staleness", HopConfig::staleness(2, 4)),
        ("skip", skip(4)),
    ];
    for (mode, cfg) in modes {
        for topology in [
            Topology::ring(6),
            Topology::complete(5),
            Topology::torus(3, 3),
        ] {
            let label = format!("sim-{mode}-{}", topology.len());
            let mut exp = experiment(topology, Protocol::Hop(cfg.clone()), 20, 17);
            if mode == "skip" {
                exp.slowdown = SlowdownModel::paper_straggler(exp.topology.len(), 0, 6.0);
            }
            let report = same_both_ways(&label, &exp, 128);
            assert!(!report.deadlocked, "{label}");
        }
    }
}

#[test]
fn chaos_grid_under_crash_rejoin_loss_and_byzantine_plans() {
    let crash = CrashSpec {
        worker: 2,
        at_iter: 8,
        down_iters: 4,
    };
    let byzantine = ByzSpec {
        worker: 4,
        from_iter: 10,
        variant: ByzVariant::SignFlip,
    };
    let full = |loss| {
        FaultPlan::none()
            .with_loss(loss)
            .with_crash(crash)
            .with_byzantine(byzantine)
    };
    let mut plans: Vec<FaultPlan> = [0.0, 0.01, 0.05].map(full).into();
    plans.push(FaultPlan::none().with_byzantine(byzantine));
    plans.push(FaultPlan::none().with_loss(0.05));
    for (mode, cfg) in [
        ("standard", HopConfig::standard()),
        ("backup", HopConfig::backup(1, 4)),
        ("skip", skip(4)),
    ] {
        for (p, plan) in plans.iter().enumerate() {
            let mut exp = experiment(Topology::ring(6), Protocol::Hop(cfg.clone()), 40, 29);
            exp.cluster = exp.cluster.with_faults(plan.clone());
            let report = same_both_ways(&format!("chaos-{mode}-plan{p}"), &exp, 256);
            // The cells `tests/chaos_grid.rs` designs: the full plan
            // stalls standard mode and plays a whole crash/rejoin cycle
            // in the other two.
            if p < 3 {
                assert_eq!(report.deadlocked, mode == "standard", "{mode} plan {p}");
                assert!(mode == "standard" || report.rejoins >= 1, "{mode} plan {p}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "gradient of a broken model")]
fn a_helper_panic_reraises_on_the_caller_with_its_message() {
    /// An SVM whose gradient panics, as a model's length assert would.
    struct Broken(Svm);
    impl Model for Broken {
        fn param_len(&self) -> usize {
            self.0.param_len()
        }
        fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32> {
            self.0.init_params(rng)
        }
        fn loss_grad_with(
            &self,
            _: &[f32],
            _: &hop_data::Batch<'_>,
            _: &mut [f32],
            _: &mut GradScratch,
        ) -> f32 {
            panic!("gradient of a broken model")
        }
        fn predict(&self, params: &[f32], features: &hop_data::Features) -> u32 {
            self.0.predict(params, features)
        }
    }
    let dataset = SyntheticWebspam::generate(64, 5);
    let model = Broken(Svm::log_loss(hop_data::Dataset::feature_dim(&dataset)));
    let exp = experiment(
        Topology::ring(4),
        Protocol::Hop(HopConfig::standard()),
        5,
        1,
    );
    // Not a hang on the dead helper's channel, nor the scope's anonymous
    // "a scoped thread panicked": the job's own payload, on this thread.
    OFFLOAD_MIN_PARAMS.set(0);
    let _ = exp.run(&model, &dataset);
}
