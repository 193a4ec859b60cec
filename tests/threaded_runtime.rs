//! Integration tests of the threaded runtime: the protocol on real OS
//! threads posting to each other's mailboxes, cross-checked against the
//! simulator's semantics.

use hop::core::config::ConfigError;
use hop::core::threaded::ThreadedExperiment;
use hop::core::{FailedRun, HopConfig, Hyper, ProtocolEvent, RuntimeError};
use hop::data::webspam::SyntheticWebspam;
use hop::data::Dataset;
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::model::Model;
use std::sync::Arc;
use std::time::Duration;

fn experiment(config: HopConfig, topology: Topology) -> ThreadedExperiment {
    ThreadedExperiment {
        config,
        topology,
        max_iters: 60,
        seed: 21,
        hyper: Hyper::svm(),
        compute_sleep: Duration::ZERO,
        slow_worker: None,
        stall_timeout: Duration::from_secs(30),
        faults: hop_sim::FaultPlan::none(),
    }
}

#[test]
fn threaded_standard_reaches_low_loss() {
    let dataset = Arc::new(SyntheticWebspam::generate(1024, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let report = experiment(HopConfig::standard_with_tokens(4), Topology::ring(6))
        .run(model.clone(), dataset.clone())
        .expect("runs");
    let avg = report.averaged_params();
    let eval: Vec<usize> = (0..256).collect();
    let loss = model.loss(&avg, &dataset.batch(&eval));
    assert!(loss < 0.5, "threaded averaged loss {loss}");
}

#[test]
fn threaded_modes_match_simulator_quality() {
    // Both runtimes implement the same semantics; their final losses land
    // in the same ballpark for each mode on the same workload.
    let dataset = Arc::new(SyntheticWebspam::generate(1024, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let eval: Vec<usize> = (0..256).collect();
    for cfg in [
        HopConfig::standard_with_tokens(4),
        HopConfig::backup(1, 4),
        HopConfig::staleness(3, 4),
    ] {
        let threaded = experiment(cfg.clone(), Topology::ring(6))
            .run(model.clone(), dataset.clone())
            .expect("threaded runs");
        let sim = hop::core::SimExperiment {
            topology: Topology::ring(6),
            cluster: hop::sim::ClusterSpec::uniform(
                6,
                2,
                0.01,
                hop::sim::LinkModel::ethernet_1gbps(),
            ),
            slowdown: hop::sim::SlowdownModel::None,
            protocol: hop::core::Protocol::Hop(cfg.clone()),
            hyper: Hyper::svm(),
            max_iters: 60,
            seed: 21,
            eval_every: 0,
            eval_examples: 128,
        }
        .run(model.as_ref(), dataset.as_ref())
        .expect("sim runs");
        let threaded_loss = model.loss(&threaded.averaged_params(), &dataset.batch(&eval));
        let sim_loss = model.loss(&sim.averaged_params(), &dataset.batch(&eval));
        assert!(
            (threaded_loss - sim_loss).abs() < 0.15,
            "{cfg:?}: threaded {threaded_loss} vs sim {sim_loss}"
        );
    }
}

#[test]
fn threaded_handles_larger_rings() {
    let dataset = Arc::new(SyntheticWebspam::generate(512, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let mut exp = experiment(HopConfig::standard_with_tokens(3), Topology::ring_based(12));
    exp.max_iters = 30;
    let report = exp.run(model, dataset).expect("12 threads run");
    assert_eq!(report.final_params.len(), 12);
    for losses in &report.losses {
        assert_eq!(losses.len(), 30);
    }
}

#[test]
fn threaded_fault_shim_is_oracle_licensed_end_to_end() {
    // The thread-local fault shim drops sends (probabilistic loss plus a
    // crash window modeled as send omission) and logs every omission;
    // the merged trace must replay clean through the fault-aware oracle
    // with every Lost event licensed by the log, and a 1-backup quorum
    // must ride out the silence and still learn.
    let dataset = Arc::new(SyntheticWebspam::generate(1024, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let cfg = HopConfig::backup(1, 4);
    let mut exp = experiment(cfg.clone(), Topology::ring(6));
    // Moderate chaos: a 1-of-2 quorum legitimately stalls forever when
    // both externals' updates for one iteration go silent, and during
    // the omission window each of worker 2's neighbors leans on a single
    // external — these knobs (and the deterministic keyed loss draws)
    // keep the run completable.
    exp.faults = hop_sim::FaultPlan::none()
        .with_loss(0.01)
        .with_crash(hop_sim::CrashSpec {
            worker: 2,
            at_iter: 10,
            down_iters: 4,
        });
    let (report, trace) = exp
        .run_traced(model.clone(), dataset.clone())
        .expect("faulty run completes");
    assert!(
        !report.fault_log.is_empty(),
        "the shim injected nothing over 60 iterations"
    );
    let topo = Topology::ring(6);
    let oracle = hop::core::Oracle::new(&cfg, &topo, 60);
    oracle
        .check_with_faults(&trace, &report.fault_log)
        .expect("licensed trace replays clean");
    let eval: Vec<usize> = (0..256).collect();
    let loss = model.loss(&report.averaged_params(), &dataset.batch(&eval));
    assert!(loss < 0.5, "faulty threaded run failed to learn: {loss}");
}

#[test]
fn threaded_with_simulated_compute_jitter() {
    // Distinct per-thread sleeps exercise genuinely skewed interleavings.
    let dataset = Arc::new(SyntheticWebspam::generate(256, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let mut exp = experiment(HopConfig::backup(1, 3), Topology::ring(4));
    exp.compute_sleep = Duration::from_micros(300);
    exp.max_iters = 40;
    let report = exp.run(model, dataset).expect("runs with jitter");
    assert_eq!(report.final_params.len(), 4);
}

#[test]
fn threaded_backup_drops_the_stragglers_late_updates() {
    // §6.2(a) receiver-side discard on real threads: under backup(1, ·)
    // the straggler's neighbors reduce without it, its update for that
    // iteration arrives late, and the next Recv must purge it (silently,
    // counted as stale) instead of leaving it in the inbox. That the
    // purged updates are the straggler's is checked per sender by the
    // worker machine's replay (`the_stragglers_late_updates_are_purged`
    // in `crates/core/src/worker.rs`); here the trace must replay clean
    // with the straggler's updates left unconsumed.
    let dataset = Arc::new(SyntheticWebspam::generate(256, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let cfg = HopConfig::backup(1, 4);
    let topo = Topology::ring(6);
    let mut exp = experiment(cfg.clone(), topo.clone());
    exp.compute_sleep = Duration::from_micros(300);
    exp.slow_worker = Some((0, 15));
    exp.max_iters = 40;
    let (_, trace) = exp.run_traced(model, dataset).expect("runs");
    hop::core::Oracle::new(&cfg, &topo, 40)
        .check(&trace)
        .expect("trace with late updates replays clean");
    let count =
        |pick: &dyn Fn(&ProtocolEvent) -> bool| trace.events().iter().filter(|e| pick(e)).count();
    let sent = count(&|e| matches!(e, ProtocolEvent::Send { from: 0, to, .. } if *to != 0));
    let consumed =
        count(&|e| matches!(e, ProtocolEvent::Consume { from: 0, worker, .. } if *worker != 0));
    assert!(consumed < sent, "every update of the straggler was in time");
}

#[test]
fn same_seed_standard_runs_are_bit_identical() {
    // A standard-mode Recv takes every neighbour's update, so the Reduce
    // sees the same set each run; summing it in sender order (not in
    // arrival order) makes the parameters and losses exact per seed.
    let dataset = Arc::new(SyntheticWebspam::generate(256, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let exp = experiment(HopConfig::standard(), Topology::ring_based(4));
    let a = exp.run(model.clone(), dataset.clone()).expect("first run");
    let b = exp.run(model, dataset).expect("second run");
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.losses, b.losses);
}

#[test]
fn byzantine_plans_are_rejected_not_ignored() {
    // The threaded fault shim has no byzantine corruption; a plan that
    // asks for it must fail closed instead of running clean.
    let dataset = Arc::new(SyntheticWebspam::generate(64, 5));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let mut exp = experiment(HopConfig::standard(), Topology::ring(4));
    exp.faults = hop_sim::FaultPlan::none().with_byzantine(hop_sim::ByzSpec {
        worker: 1,
        from_iter: 0,
        variant: hop_sim::ByzVariant::SignFlip,
    });
    match exp.run(model, dataset) {
        Err(RuntimeError::Config(ConfigError::InvalidFaultPlan(_))) => {}
        other => panic!("a byzantine plan must be rejected, got {other:?}"),
    }
}

#[test]
fn a_stalled_traced_run_returns_its_partial_trace() {
    // Worker 1 of a 2-ring under backup(1, 2) reduces on its own update
    // alone, so only its tokens bind it to worker 0, asleep in a 400 ms
    // compute: the ig = 2 preload runs dry and the 60 ms token wait
    // stalls. The error must come back with the merged partial trace,
    // which holds the stalled worker's entry into the iteration it
    // stalled at.
    let dataset = Arc::new(SyntheticWebspam::generate(64, 3));
    let model = Arc::new(Svm::log_loss(dataset.feature_dim()));
    let mut exp = experiment(HopConfig::backup(1, 2), Topology::ring(2));
    exp.max_iters = 3;
    exp.compute_sleep = Duration::from_millis(10);
    exp.slow_worker = Some((0, 40));
    exp.stall_timeout = Duration::from_millis(60);
    let FailedRun { error, trace } = exp
        .run_traced(model, dataset)
        .expect_err("the token wait stalls");
    let RuntimeError::Stalled { worker, iter, .. } = error else {
        panic!("expected a stall, got {error}");
    };
    assert!(
        trace
            .events()
            .contains(&ProtocolEvent::Advance { worker, iter }),
        "{error}: the partial trace lacks `advance w={worker} iter={iter}`:\n{}",
        trace.to_text()
    );
}
