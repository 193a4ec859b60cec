//! Cross-protocol regression tests for `TrainingReport::bytes_sent`.
//!
//! Every simulated protocol accounts wire traffic its own way (virtual
//! network transfers, analytic ring pipelines, group reduces), which
//! makes silent double-counting or dropped messages easy to introduce.
//! These tests recompute the expected byte totals from first principles —
//! trace-visible `Send` events where the protocol emits them, closed-form
//! message counts everywhere else — and pin `bytes_sent` to the result.
//! A second group checks the compression plane's arithmetic: encoded
//! bytes plus `bytes_saved` must reassemble the dense total, the
//! headline reduction ratios from the paper-style workload must hold, and
//! error feedback must keep top-10% training within 5% of dense.

use hop::core::config::{AdPsgdConfig, PragueConfig, PsConfig, PsMode, QgmConfig};
use hop::core::{HopConfig, Hyper, Protocol, ProtocolEvent, SimExperiment, TrainingReport};
use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
use hop::data::Dataset;
use hop::graph::{groups, Topology};
use hop::model::svm::Svm;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};
use hop::tensor::CompressionConfig;

const N: usize = 6;
const ITERS: u64 = 20;
const SEED: u64 = 13;

fn experiment(protocol: Protocol) -> SimExperiment {
    SimExperiment {
        topology: Topology::ring(N),
        cluster: ClusterSpec::uniform(N, 2, 0.01, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(N),
        protocol,
        hyper: Hyper::svm(),
        max_iters: ITERS,
        seed: SEED,
        eval_every: 10,
        eval_examples: 48,
    }
}

fn run(protocol: Protocol) -> TrainingReport {
    let dataset = SyntheticWebspam::generate(192, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    experiment(protocol)
        .run(&model, &dataset)
        .expect("valid configuration")
}

fn run_traced(protocol: Protocol) -> TrainingReport {
    let dataset = SyntheticWebspam::generate(192, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    experiment(protocol)
        .run_conformance(&model, &dataset)
        .expect("valid configuration")
}

/// Dense wire size of one parameter message, derived from the report
/// itself so the expectation tracks the model dimension.
fn param_bytes(report: &TrainingReport) -> u64 {
    4 * report.final_params[0].len() as u64
}

#[test]
fn hop_variants_match_their_trace_visible_sends() {
    // The decentralized runtime emits a conformance `Send` event for
    // every delivery, including the self-send (which never touches the
    // network). Expected bytes = external sends x dense message size.
    for (name, protocol) in [
        ("standard", Protocol::Hop(HopConfig::standard())),
        ("tokens", Protocol::Hop(HopConfig::standard_with_tokens(4))),
        ("backup", Protocol::Hop(HopConfig::backup(1, 5))),
        ("staleness", Protocol::Hop(HopConfig::staleness(3, 5))),
    ] {
        let report = run_traced(protocol);
        let trace = report.conformance.as_ref().expect("traced run");
        let external_sends = trace
            .events()
            .iter()
            .filter(|ev| matches!(ev, ProtocolEvent::Send { from, to, .. } if from != to))
            .count() as u64;
        assert!(external_sends > 0, "{name}: no sends recorded");
        assert_eq!(
            report.bytes_sent,
            external_sends * param_bytes(&report),
            "{name}: bytes_sent disagrees with the trace"
        );
    }
}

#[test]
fn qgm_sends_once_per_external_edge_per_iteration() {
    let report = run(Protocol::Qgm(QgmConfig::default()));
    let topo = Topology::ring(N);
    let edges: u64 = (0..N)
        .map(|w| topo.external_out_neighbors(w).len() as u64)
        .sum();
    assert_eq!(report.bytes_sent, ITERS * edges * param_bytes(&report));
}

#[test]
fn ps_modes_move_one_pull_and_one_push_per_iteration() {
    for mode in [PsMode::Bsp, PsMode::Ssp(3), PsMode::Async] {
        let report = run(Protocol::Ps(PsConfig::new(mode)));
        // Per worker iteration: one parameter pull (or broadcast share)
        // plus one gradient push, both of dense size.
        assert_eq!(
            report.bytes_sent,
            2 * N as u64 * ITERS * param_bytes(&report),
            "{mode:?}"
        );
    }
}

#[test]
fn adpsgd_moves_two_blocks_per_pairing() {
    // On an even ring the bipartite 2-coloring has n/2 active workers;
    // each completes `max_iters` iterations and each iteration ends in
    // exactly one pairwise averaging: one block each way.
    let report = run(Protocol::AdPsgd(AdPsgdConfig::default()));
    let pairings = (N as u64 / 2) * ITERS;
    assert_eq!(report.bytes_sent, pairings * 2 * param_bytes(&report));
}

#[test]
fn ring_allreduce_moves_two_chunk_sweeps_per_round() {
    let report = run(Protocol::RingAllReduce);
    // The analytic pipeline: 2(n-1) steps, n chunks in flight per step,
    // chunk = dense/n (truncated exactly as the protocol truncates).
    let chunk = (param_bytes(&report) as f64 / N as f64) as u64;
    let per_round = (2 * (N - 1) * N) as u64 * chunk;
    assert_eq!(report.bytes_sent, ITERS * per_round);
}

#[test]
fn prague_bytes_follow_the_recomputed_partition() {
    let cfg = PragueConfig::default();
    let report = run(Protocol::Prague(cfg));
    // Rebuild each round's group partition from the same pure function
    // of (seed, epoch) the protocol uses and re-derive the group
    // all-reduce traffic: 2(g-1) chunk sweeps of dense/g each, which at
    // the identity codec is exactly 2(g-1) x dense.
    let mut expected = 0u64;
    for round in 0..ITERS {
        let epoch = round / cfg.regen_every;
        for group in groups::partition(N, cfg.group_size, SEED, epoch) {
            if group.len() > 1 {
                expected += (group.len() as u64 - 1) * 2 * param_bytes(&report);
            }
        }
    }
    assert_eq!(report.bytes_sent, expected);
}

#[test]
fn compression_reassembles_the_dense_total() {
    // For the gossip protocol every external send runs through the
    // plane, so encoded bytes + saved bytes must equal the identity
    // run's total, message for message.
    let dense = run(Protocol::Hop(HopConfig::standard()));
    for codec in [
        CompressionConfig::TopK { ratio: 0.01 },
        CompressionConfig::TopK { ratio: 0.1 },
        CompressionConfig::Int8Uniform,
    ] {
        let compressed = run(Protocol::Hop(HopConfig::standard().with_compression(codec)));
        assert!(compressed.bytes_saved > 0, "{codec:?} saved nothing");
        assert_eq!(
            compressed.bytes_sent + compressed.bytes_saved,
            dense.bytes_sent,
            "{codec:?} lost bytes in accounting"
        );
    }
}

#[test]
fn headline_reduction_ratios_hold_on_the_large_workload() {
    // The acceptance workload: decentralized gossip over a 64K-parameter
    // model. Top-1% must cut wire traffic at least 8x; int8 about 4x.
    let dataset = SyntheticWebspam::generate_with(
        96,
        5,
        WebspamConfig {
            dim: 65_536,
            nnz_per_example: 32,
            label_noise: 0.05,
        },
    );
    let model = Svm::log_loss(dataset.feature_dim());
    let run_codec = |codec: CompressionConfig| {
        let mut exp = experiment(Protocol::Hop(HopConfig::standard().with_compression(codec)));
        exp.max_iters = 5;
        exp.run(&model, &dataset).expect("valid configuration")
    };
    let dense = run_codec(CompressionConfig::Identity);
    let topk = run_codec(CompressionConfig::TopK { ratio: 0.01 });
    let int8 = run_codec(CompressionConfig::Int8Uniform);
    assert!(
        topk.bytes_sent * 8 <= dense.bytes_sent,
        "top-1% reduction only {:.2}x",
        dense.bytes_sent as f64 / topk.bytes_sent as f64
    );
    let int8_ratio = dense.bytes_sent as f64 / int8.bytes_sent as f64;
    assert!(
        int8_ratio > 3.9 && int8_ratio < 4.1,
        "int8 reduction {int8_ratio:.2}x, expected ~4x"
    );
}

#[test]
fn error_feedback_top10_lands_within_five_percent_of_dense_loss() {
    // 64K-parameter SVM on an 8-worker ring under a 6x straggler, equal
    // iteration counts: with error feedback, top-10% must end within 5%
    // of the uncompressed run's final eval loss.
    let dataset = SyntheticWebspam::generate_with(
        192,
        0xB10C,
        WebspamConfig {
            dim: 65_536,
            nnz_per_example: 32,
            label_noise: 0.05,
        },
    );
    let model = Svm::log_loss(dataset.feature_dim());
    let final_loss = |codec: CompressionConfig| {
        let n = 8;
        let report = SimExperiment {
            topology: Topology::ring(n),
            cluster: ClusterSpec::uniform(n, 4, 0.05, LinkModel::ethernet_1gbps()),
            slowdown: SlowdownModel::paper_straggler(n, 0, 6.0),
            protocol: Protocol::Hop(HopConfig::standard().with_compression(codec)),
            hyper: Hyper::svm(),
            max_iters: 8,
            seed: 0xB10C,
            eval_every: 4,
            eval_examples: 64,
        }
        .run(&model, &dataset)
        .expect("valid configuration");
        report.eval_time.last().expect("eval curve is non-empty").1
    };
    let dense = final_loss(CompressionConfig::Identity);
    let topk = final_loss(CompressionConfig::TopK { ratio: 0.1 });
    assert!(
        topk <= dense * 1.05,
        "top-10% final loss {topk:.4} drifted beyond 5% of dense {dense:.4}"
    );
}
