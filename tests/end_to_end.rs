//! Cross-crate end-to-end tests: every protocol trains real models on the
//! simulated cluster and the paper's headline orderings hold. The exact
//! numbers behind those orderings are pinned in `tests/paper_claims.rs`.

use hop::core::config::{PsConfig, PsMode};
use hop::core::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig};
use hop::data::images::SyntheticImages;
use hop::data::webspam::SyntheticWebspam;
use hop::data::Dataset;
use hop::graph::Topology;
use hop::model::cnn::TinyCnn;
use hop::model::svm::Svm;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};

fn svm_experiment(protocol: Protocol, slowdown: SlowdownModel, iters: u64) -> SimExperiment {
    let n = 8;
    SimExperiment {
        topology: Topology::ring_based(n),
        cluster: ClusterSpec::uniform(n, 4, 0.02, LinkModel::ethernet_1gbps()),
        slowdown,
        protocol,
        hyper: Hyper::svm(),
        max_iters: iters,
        seed: 1234,
        eval_every: 20,
        eval_examples: 128,
    }
}

#[test]
fn every_hop_mode_converges_on_svm() {
    let dataset = SyntheticWebspam::generate(1024, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    for cfg in [
        HopConfig::standard(),
        HopConfig::standard_with_tokens(4),
        HopConfig::notify_ack(),
        HopConfig::backup(1, 4),
        HopConfig::staleness(3, 4),
        HopConfig::hybrid(1, 3, 4),
        HopConfig::backup(1, 4).with_skip(SkipConfig::with_max_jump(6)),
    ] {
        let exp = svm_experiment(
            Protocol::Hop(cfg.clone()),
            SlowdownModel::paper_random(8),
            80,
        );
        let report = exp.run(&model, &dataset).expect("valid config");
        assert!(!report.deadlocked, "{cfg:?} deadlocked");
        let first = report.eval_time.points()[0].1;
        let last = report.eval_time.last().expect("eval points").1;
        assert!(
            last < first * 0.8,
            "{cfg:?}: eval loss did not improve ({first} -> {last})"
        );
    }
}

#[test]
fn cnn_trains_decentralized() {
    let dataset = SyntheticImages::generate(512, 2);
    let model = TinyCnn::for_synthetic_images(2);
    let mut exp = svm_experiment(
        Protocol::Hop(HopConfig::standard_with_tokens(4)),
        SlowdownModel::None,
        60,
    );
    exp.hyper = Hyper::cnn();
    let report = exp.run(&model, &dataset).expect("valid");
    let first = report.eval_time.points()[0].1;
    let last = report.eval_time.last().expect("eval").1;
    assert!(last < first, "CNN loss did not improve: {first} -> {last}");
}

#[test]
fn decentralized_beats_ps_on_wall_time() {
    // Fig. 13's shape: same per-worker iteration count, same compute; the
    // PS pays for NIC concentration.
    let dataset = SyntheticWebspam::generate(1024, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    let dec = svm_experiment(
        Protocol::Hop(HopConfig::standard()),
        SlowdownModel::None,
        60,
    )
    .run(&model, &dataset)
    .expect("valid");
    let ps = svm_experiment(
        Protocol::Ps(PsConfig::new(PsMode::Bsp)),
        SlowdownModel::None,
        60,
    )
    .run(&model, &dataset)
    .expect("valid");
    assert!(
        dec.wall_time < ps.wall_time,
        "decentralized {} vs PS {}",
        dec.wall_time,
        ps.wall_time
    );
}

#[test]
fn backup_and_staleness_beat_standard_under_random_slowdown() {
    let dataset = SyntheticWebspam::generate(1024, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    let slow = SlowdownModel::paper_random(8);
    let standard = svm_experiment(
        Protocol::Hop(HopConfig::standard_with_tokens(5)),
        slow.clone(),
        100,
    )
    .run(&model, &dataset)
    .expect("valid");
    let backup = svm_experiment(Protocol::Hop(HopConfig::backup(1, 5)), slow.clone(), 100)
        .run(&model, &dataset)
        .expect("valid");
    let stale = svm_experiment(Protocol::Hop(HopConfig::staleness(5, 5)), slow, 100)
        .run(&model, &dataset)
        .expect("valid");
    assert!(backup.wall_time < standard.wall_time);
    assert!(stale.wall_time <= standard.wall_time);
}

#[test]
fn skipping_beats_plain_backup_under_deterministic_straggler() {
    // Fig. 19's shape.
    let dataset = SyntheticWebspam::generate(1024, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    let slow = SlowdownModel::paper_straggler(8, 0, 4.0);
    let backup = svm_experiment(Protocol::Hop(HopConfig::backup(1, 5)), slow.clone(), 80)
        .run(&model, &dataset)
        .expect("valid");
    let skip = svm_experiment(
        Protocol::Hop(HopConfig::backup(1, 5).with_skip(SkipConfig::with_max_jump(10))),
        slow,
        80,
    )
    .run(&model, &dataset)
    .expect("valid");
    assert!(!skip.deadlocked);
    assert!(
        skip.wall_time < backup.wall_time * 0.8,
        "skip {} vs backup {}",
        skip.wall_time,
        backup.wall_time
    );
}

#[test]
fn runs_are_bit_deterministic() {
    let dataset = SyntheticWebspam::generate(512, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    let exp = svm_experiment(
        Protocol::Hop(HopConfig::hybrid(1, 3, 4)),
        SlowdownModel::paper_random(8),
        50,
    );
    let a = exp.run(&model, &dataset).expect("valid");
    let b = exp.run(&model, &dataset).expect("valid");
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.trace.records(), b.trace.records());
}

#[test]
fn sparser_graphs_suffer_less_from_random_slowdown() {
    // Fig. 12's crossover: stretch(ring) < stretch(double-ring).
    let dataset = SyntheticWebspam::generate(1024, 9);
    let model = Svm::log_loss(dataset.feature_dim());
    let stretch = |topo: Topology| {
        let n = topo.len();
        let mk = |slow: SlowdownModel| SimExperiment {
            topology: topo.clone(),
            cluster: ClusterSpec::uniform(n, 4, 0.02, LinkModel::ethernet_1gbps()),
            slowdown: slow,
            protocol: Protocol::Hop(HopConfig::standard()),
            hyper: Hyper::svm(),
            max_iters: 80,
            seed: 1234,
            eval_every: 0,
            eval_examples: 64,
        };
        let homo = mk(SlowdownModel::None)
            .run(&model, &dataset)
            .expect("valid");
        let hetero = mk(SlowdownModel::paper_random(n))
            .run(&model, &dataset)
            .expect("valid");
        hetero.wall_time / homo.wall_time
    };
    let ring = stretch(Topology::ring(16));
    let double_ring = stretch(Topology::double_ring(16));
    assert!(ring > 1.05, "slowdown must hurt the ring too ({ring})");
    assert!(
        ring < double_ring,
        "sparser ring should suffer less: ring {ring} vs double-ring {double_ring}"
    );
}
