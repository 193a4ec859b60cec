//! The sweep determinism table: the parallel `SweepRunner` at 1, 2 and 4
//! threads must produce reports bit-identical (by `TrainingReport::digest`)
//! to direct sequential `SimExperiment::run` calls — for at least one
//! point per protocol family. This is the engine's core invariant
//! (one spec ⇒ one report, bit-for-bit) surviving parallel execution.

use hop::core::config::{AdPsgdConfig, PragueConfig, PsConfig, PsMode, QgmConfig};
use hop::core::{HopConfig, Hyper, Protocol};
use hop::data::webspam::SyntheticWebspam;
use hop::data::{Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};
use hop::sweep::{SweepGrid, SweepRunner, SweepSummary};

/// One grid point per protocol family (Hop decentralized, parameter
/// server, ring all-reduce, AD-PSGD, Prague, QGM) plus a second Hop
/// mitigation variant, × two seeds. Ring(6) is bipartite, so AD-PSGD's
/// default config accepts it.
fn family_grid() -> SweepGrid {
    SweepGrid::new(Hyper::svm(), 12)
        .protocol("hop_standard", Protocol::Hop(HopConfig::standard()))
        .protocol("hop_backup", Protocol::Hop(HopConfig::backup(1, 5)))
        .protocol("ps_bsp", Protocol::Ps(PsConfig::new(PsMode::Bsp)))
        .protocol("ring_allreduce", Protocol::RingAllReduce)
        .protocol("adpsgd", Protocol::AdPsgd(AdPsgdConfig::default()))
        .protocol("prague", Protocol::Prague(PragueConfig::default()))
        .protocol("qgm", Protocol::Qgm(QgmConfig::default()))
        .cluster(
            "uniform",
            Topology::ring(6),
            ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
        )
        .slowdown("paper_random", SlowdownModel::paper_random(6))
        .seeds([5, 9])
        .eval(6, 32)
}

fn workload() -> (Svm, InMemoryDataset) {
    let dataset = SyntheticWebspam::generate(192, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    (model, dataset)
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential_runs_at_any_thread_count() {
    let (model, dataset) = workload();
    let grid = family_grid();
    // The reference digest table: every point run directly through the
    // sequential SimExperiment API, in grid order.
    let sequential: Vec<(String, u64)> = grid
        .points()
        .iter()
        .map(|p| {
            let report = p
                .experiment
                .run(&model, &dataset)
                .expect("grid point must be valid");
            assert!(!report.deadlocked, "{} deadlocked", p.label());
            (p.label(), report.digest())
        })
        .collect();
    assert_eq!(sequential.len(), 14, "one point per family × 2 seeds");

    for threads in [1, 2, 4] {
        let results = SweepRunner::new(threads)
            .run(&grid, &model, &dataset)
            .expect("grid must be valid");
        let table: Vec<(String, u64)> = results
            .iter()
            .map(|r| (r.point.label(), r.digest()))
            .collect();
        assert_eq!(
            table, sequential,
            "digest table diverged at {threads} threads"
        );
    }
}

#[test]
fn wide_models_digest_the_same_with_and_without_the_compute_helper() {
    // At 8K parameters a directly run experiment — and a 1-thread sweep —
    // hands its gradient jobs to the engine's compute helper (on a
    // multi-core host), while a 2-thread sweep keeps every run's math on
    // its own pump: run-level parallelism already fills the cores. Which
    // of the two a run got must never show in its report.
    use hop::core::{CompressionConfig, SkipConfig};
    use hop::data::webspam::WebspamConfig;
    let wide = WebspamConfig {
        dim: 8192,
        nnz_per_example: 64,
        label_noise: 0.05,
    };
    let dataset = SyntheticWebspam::generate_with(192, 5, wide);
    let model = Svm::log_loss(dataset.feature_dim());
    let skip_int8 = HopConfig::backup(1, 5)
        .with_skip(SkipConfig::with_max_jump(6))
        .with_compression(CompressionConfig::Int8Uniform);
    let grid = SweepGrid::new(Hyper::svm(), 12)
        .protocol("hop_standard", Protocol::Hop(HopConfig::standard()))
        .protocol("hop_skip_int8", Protocol::Hop(skip_int8))
        .cluster(
            "uniform",
            Topology::ring_based(6),
            ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
        )
        .slowdown("straggler", SlowdownModel::paper_straggler(6, 0, 6.0))
        .seeds([5, 9])
        .eval(6, 32);
    let direct: Vec<u64> = grid
        .points()
        .iter()
        .map(|p| p.experiment.run(&model, &dataset).expect("valid").digest())
        .collect();
    for threads in [1, 2] {
        let swept: Vec<u64> = SweepRunner::new(threads)
            .run(&grid, &model, &dataset)
            .expect("grid must be valid")
            .iter()
            .map(|r| r.digest())
            .collect();
        assert_eq!(swept, direct, "digests diverged at {threads} threads");
    }
}

#[test]
fn summary_artifacts_are_thread_count_independent() {
    // Everything downstream of the reports — the rendered table, CSV and
    // JSON — must also be byte-identical at any thread count.
    let (model, dataset) = workload();
    let grid = family_grid();
    let reference = SweepSummary::from_results(
        &SweepRunner::new(1)
            .run(&grid, &model, &dataset)
            .expect("grid must be valid"),
    );
    for threads in [2, 4] {
        let summary = SweepSummary::from_results(
            &SweepRunner::new(threads)
                .run(&grid, &model, &dataset)
                .expect("grid must be valid"),
        );
        assert_eq!(summary.table().render(), reference.table().render());
        assert_eq!(summary.to_csv(), reference.to_csv());
        assert_eq!(summary.to_json(), reference.to_json());
    }
}

#[test]
fn sweep_digests_distinguish_the_families() {
    // A digest table that can't tell protocols apart would vacuously pass
    // the determinism assertions; make sure every family actually trains
    // differently on this grid.
    let (model, dataset) = workload();
    let results = SweepRunner::new(2)
        .run(&family_grid(), &model, &dataset)
        .expect("grid must be valid");
    for a in &results {
        for b in &results {
            if a.point.index != b.point.index {
                assert_ne!(
                    a.digest(),
                    b.digest(),
                    "{} and {} produced identical reports",
                    a.point.label(),
                    b.point.label()
                );
            }
        }
    }
}
