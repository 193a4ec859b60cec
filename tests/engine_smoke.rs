//! Smoke tests for the unified `SimEngine`: every protocol variant
//! completes a short `SimExperiment` and is bit-for-bit deterministic
//! (same seed ⇒ same report) through the shared engine.

use hop::core::config::{AdPsgdConfig, PragueConfig, PsConfig, PsMode, QgmConfig};
use hop::core::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig, TrainingReport};
use hop::data::webspam::SyntheticWebspam;
use hop::data::Dataset;
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};
use hop::tensor::CompressionConfig;

#[path = "../crates/core/tests/unit/golden_digests.rs"]
mod golden_digests;

use golden_digests::golden_digests;

/// Every protocol variant the engine drives: Hop standard / token /
/// NOTIFY-ACK / backup / staleness / skip, PS BSP / SSP / Async,
/// AD-PSGD, ring all-reduce, Prague partial all-reduce and QGM gossip.
fn all_variants() -> Vec<(&'static str, Protocol)> {
    vec![
        ("hop_standard", Protocol::Hop(HopConfig::standard())),
        (
            "hop_tokens",
            Protocol::Hop(HopConfig::standard_with_tokens(4)),
        ),
        ("hop_notify_ack", Protocol::Hop(HopConfig::notify_ack())),
        ("hop_backup", Protocol::Hop(HopConfig::backup(1, 5))),
        ("hop_staleness", Protocol::Hop(HopConfig::staleness(3, 5))),
        (
            "hop_skip",
            Protocol::Hop(HopConfig::backup(1, 5).with_skip(SkipConfig::with_max_jump(6))),
        ),
        ("ps_bsp", Protocol::Ps(PsConfig::new(PsMode::Bsp))),
        ("ps_ssp", Protocol::Ps(PsConfig::new(PsMode::Ssp(3)))),
        ("ps_async", Protocol::Ps(PsConfig::new(PsMode::Async))),
        ("adpsgd", Protocol::AdPsgd(AdPsgdConfig::default())),
        ("ring_allreduce", Protocol::RingAllReduce),
        ("prague", Protocol::Prague(PragueConfig::default())),
        ("qgm", Protocol::Qgm(QgmConfig::default())),
    ]
}

fn run_variant(protocol: Protocol, seed: u64) -> TrainingReport {
    run_on(Topology::ring(6), protocol, seed)
}

fn run_on(topology: Topology, protocol: Protocol, seed: u64) -> TrainingReport {
    let dataset = SyntheticWebspam::generate(192, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    SimExperiment {
        topology,
        cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(6),
        protocol,
        hyper: Hyper::svm(),
        max_iters: 20,
        seed,
        eval_every: 10,
        eval_examples: 48,
    }
    .run(&model, &dataset)
    .expect("valid configuration")
}

#[test]
fn every_variant_completes_through_the_engine() {
    for (name, protocol) in all_variants() {
        let report = run_variant(protocol, 13);
        assert!(!report.deadlocked, "{name} deadlocked");
        assert!(!report.budget_exhausted, "{name} blew the event budget");
        assert!(report.wall_time > 0.0, "{name} reported zero wall time");
        assert!(
            !report.final_params.is_empty(),
            "{name} published no parameters"
        );
        for params in &report.final_params {
            assert!(
                params.iter().all(|v| v.is_finite()),
                "{name} produced non-finite parameters"
            );
        }
    }
}

#[test]
fn every_variant_follows_the_report_convention() {
    // The cross-protocol report convention: one final parameter vector
    // per worker (global-replica protocols replicate theirs), all of the
    // model's dimension, and every worker's trace reaches exactly
    // `max_iters` — a finished worker's counter rests at `max_iters`,
    // never `max_iters - 1`.
    for (name, protocol) in all_variants() {
        let report = run_variant(protocol, 13);
        assert_eq!(
            report.final_params.len(),
            6,
            "{name} must publish one parameter vector per worker"
        );
        let dim = report.final_params[0].len();
        assert!(dim > 0, "{name} published empty parameters");
        for params in &report.final_params {
            assert_eq!(params.len(), dim, "{name} published ragged parameters");
        }
        for w in 0..6 {
            let last = report
                .trace
                .records()
                .iter()
                .filter(|r| r.worker == w)
                .map(|r| r.iter)
                .max()
                .unwrap_or(0);
            assert_eq!(
                last, 20,
                "{name}: worker {w} trace ends at iteration {last}, not max_iters"
            );
        }
    }
}

#[test]
fn every_variant_is_deterministic_given_the_seed() {
    for (name, protocol) in all_variants() {
        let a = run_variant(protocol.clone(), 29);
        let b = run_variant(protocol, 29);
        assert_eq!(a.wall_time, b.wall_time, "{name} wall time diverged");
        assert_eq!(
            a.final_params, b.final_params,
            "{name} final parameters diverged"
        );
        assert_eq!(
            a.trace.records(),
            b.trace.records(),
            "{name} traces diverged"
        );
        assert_eq!(a.bytes_sent, b.bytes_sent, "{name} byte counts diverged");
        assert_eq!(
            a.eval_time.points(),
            b.eval_time.points(),
            "{name} eval curves diverged"
        );
    }
}

#[test]
fn parameter_replicas_share_until_first_write() {
    // The zero-copy plane: every worker's replica starts as an alias of
    // the one init allocation — snapshots are refcount bumps, not copies.
    use hop::core::sim_runtime::engine::SimEngine;
    use hop::core::sim_runtime::recorder::EvalConfig;
    use hop::core::Hyper;

    let dataset = SyntheticWebspam::generate(64, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    let slowdown = SlowdownModel::None;
    let engine: SimEngine<'_, ()> = SimEngine::new(
        ClusterSpec::uniform(4, 2, 0.01, LinkModel::ethernet_1gbps()),
        4,
        &slowdown,
        &model,
        &dataset,
        &Hyper::svm(),
        5,
        0,
        EvalConfig {
            every: 0,
            examples: 16,
        },
    );
    let init = engine.init_block();
    // 4 worker replicas + the engine's own block + this snapshot.
    assert_eq!(init.strong_count(), 6);
    for wc in &engine.workers {
        assert!(wc.params.ptr_eq(&init), "replica copied instead of shared");
    }
    // A snapshot taken for a simulated send is another alias...
    let sent = engine.workers[0].params.snapshot();
    assert_eq!(sent.strong_count(), 7);
    // ...and copy-on-write only detaches the writer.
    let mut replica = engine.workers[1].params.snapshot();
    replica.make_mut()[0] += 1.0;
    assert!(!replica.ptr_eq(&init));
    assert!(sent.ptr_eq(&init));
}

#[test]
fn digest_table_is_stable_and_distinguishes_variants() {
    // The determinism digest table: every variant, same seed, run twice —
    // the digests must agree bit-for-bit, and no two variants may share a
    // digest (each protocol genuinely trains differently). One coincidence
    // class is *expected* and pinned here: pure back-pressure mechanisms
    // (token queues, SSP staleness bounds) leave the trajectory
    // bit-identical to their unbounded counterparts as long as the bound
    // never binds — which it doesn't at this scale.
    // The digest itself lives on `TrainingReport` (shared with the sweep
    // determinism table in `tests/sweep_determinism.rs`).
    let coincident = [("hop_tokens", "hop_standard"), ("ps_async", "ps_ssp")];
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for (name, protocol) in all_variants() {
        let a = run_variant(protocol.clone(), 29).digest();
        let b = run_variant(protocol, 29).digest();
        assert_eq!(a, b, "{name} digest diverged across same-seed reruns");
        for (other, digest) in &seen {
            if coincident.contains(&(name, other)) {
                assert_eq!(
                    a, *digest,
                    "{name} should coincide with {other} while tokens never bind"
                );
                continue;
            }
            assert_ne!(a, *digest, "{name} and {other} produced identical reports");
        }
        seen.push((name, a));
    }
    assert_eq!(seen.len(), 13, "digest table must cover all variants");
}

#[test]
fn compressed_runs_match_their_golden_digests() {
    let moved: Vec<String> = golden_digests()
        .into_iter()
        .filter_map(|(name, protocol, want)| {
            let got = run_on(Topology::ring_based(6), protocol, 29).digest();
            (got != want).then(|| format!("{name}: {got:#018x}, golden {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved: {moved:#?}");
}

#[test]
fn partial_allreduce_and_qgm_beat_ring_under_straggler() {
    // The heterogeneity claim the new baselines exist for: with one
    // permanent 6x straggler, ring all-reduce pays the straggler *plus*
    // the full 2(n-1)-step pipeline behind a global barrier every round.
    // Prague's groups pay only a small intra-group pipeline on the
    // straggler's critical path, and QGM gossip lets the straggler
    // advance as soon as its own neighborhood is ready — so at equal
    // iteration count both finish in less virtual wall time.
    let straggler = SlowdownModel::paper_straggler(6, 1, 6.0);
    let time_of = |protocol: Protocol| {
        let dataset = SyntheticWebspam::generate(192, 5);
        let model = Svm::log_loss(dataset.feature_dim());
        let report = SimExperiment {
            topology: Topology::ring(6),
            cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: straggler.clone(),
            protocol,
            hyper: Hyper::svm(),
            max_iters: 20,
            seed: 17,
            eval_every: 0,
            eval_examples: 32,
        }
        .run(&model, &dataset)
        .expect("valid configuration");
        assert!(!report.deadlocked);
        report.wall_time
    };
    let ring = time_of(Protocol::RingAllReduce);
    let prague = time_of(Protocol::Prague(PragueConfig::default()));
    let qgm = time_of(Protocol::Qgm(QgmConfig::default()));
    assert!(
        prague < ring,
        "Prague ({prague}) must beat ring all-reduce ({ring}) under a straggler"
    );
    assert!(
        qgm < ring,
        "QGM ({qgm}) must beat ring all-reduce ({ring}) under a straggler"
    );
}

#[test]
fn one_thousand_workers_complete_and_digest_stably() {
    // The scale floor of the event-pump work: a 1k-worker token-mode run
    // completes inside the engine's own event budget (no budget bump, no
    // stall) and is bit-for-bit reproducible — the digest, which eats the
    // full trace and every worker's final parameters, agrees across two
    // independent runs. Token mode keeps setup linear in workers (the
    // tokenless rotation window runs a BFS from every worker for the
    // graph diameter).
    // Dimensions are small so the test measures the pump, not the SVM.
    use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
    let run_once = || {
        let dataset = SyntheticWebspam::generate_with(
            256,
            5,
            WebspamConfig {
                dim: 32,
                nnz_per_example: 8,
                label_noise: 0.05,
            },
        );
        let model = Svm::log_loss(32);
        SimExperiment {
            topology: Topology::ring(1000),
            cluster: ClusterSpec::uniform(1000, 4, 0.05, LinkModel::ethernet_1gbps()),
            slowdown: SlowdownModel::None,
            protocol: Protocol::Hop(HopConfig::standard_with_tokens(4)),
            hyper: Hyper::svm(),
            max_iters: 3,
            seed: 29,
            eval_every: 0,
            eval_examples: 16,
        }
        .run(&model, &dataset)
        .expect("valid configuration")
    };
    let a = run_once();
    assert!(!a.deadlocked, "1k-worker run stalled");
    assert!(!a.budget_exhausted, "1k-worker run blew the event budget");
    assert_eq!(
        a.final_params.len(),
        1000,
        "one parameter vector per worker"
    );
    assert!(a.events_processed > 0, "pump processed no events");
    let b = run_once();
    assert_eq!(
        a.digest(),
        b.digest(),
        "1k-worker digest diverged across same-seed reruns"
    );
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn ten_thousand_workers_complete_without_deadlock() {
    // The event pump's scale point: a 10k-worker token-mode ring (64-dim
    // SVM, 3 iterations, no periodic eval, which would average 10k
    // replicas) runs to completion instead of stalling, and its trace
    // replays clean through the oracle, whose state is linear in the
    // workers.
    use hop::core::conformance::Oracle;
    use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
    let n = 10_000;
    let dataset = SyntheticWebspam::generate_with(
        512,
        0xB10C,
        WebspamConfig {
            dim: 64,
            nnz_per_example: 8,
            label_noise: 0.05,
        },
    );
    let model = Svm::log_loss(64);
    let cfg = HopConfig::standard_with_tokens(4);
    let topology = Topology::ring(n);
    let report = SimExperiment {
        topology: topology.clone(),
        cluster: ClusterSpec::uniform(n, 4, 0.05, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::None,
        protocol: Protocol::Hop(cfg.clone()),
        hyper: Hyper::svm(),
        max_iters: 3,
        seed: 0xB10C,
        eval_every: 0,
        eval_examples: 32,
    }
    .run_conformance(&model, &dataset)
    .expect("valid configuration");
    assert!(!report.deadlocked, "10k-worker run stalled");
    assert!(
        !report.budget_exhausted,
        "10k-worker run blew the event budget"
    );
    assert!(report.events_processed > 0, "pump processed no events");
    let trace = report.conformance.as_ref().expect("tracing was on");
    let summary = Oracle::new(&cfg, &topology, 3)
        .check(trace)
        .unwrap_or_else(|v| panic!("oracle violation: {v}"));
    assert_eq!(summary.advances, 4 * n as u64);
}

#[test]
fn seeds_actually_matter() {
    // Guard against a frozen RNG: two different seeds must produce
    // different trajectories for at least the decentralized runtime.
    let a = run_variant(Protocol::Hop(HopConfig::standard()), 1);
    let b = run_variant(Protocol::Hop(HopConfig::standard()), 2);
    assert_ne!(a.final_params, b.final_params);
}
