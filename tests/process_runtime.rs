//! End-to-end tests for the multi-process runtime: real worker
//! processes (the `hop_worker` binary, re-exec'd by the coordinator)
//! exchanging updates and tokens over Unix-domain sockets.
//!
//! The conformance grid lives in `tests/conformance.rs`; this file
//! covers the lifecycle edges — does a fleet of OS processes actually
//! learn, does teardown survive peers that finish at very different
//! times, and does a worker killed at any point surface as a clean
//! peer-loss error (with the partial trace, for offline replay) instead
//! of a hang, a bare stall or a bare I/O string.

use hop::core::process::ProcessExperiment;
use hop::core::{FailedRun, HopConfig, Oracle, RuntimeError, SkipConfig};
use hop::data::webspam::SyntheticWebspam;
use hop::data::Dataset;
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::model::Model;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_hop_worker"))
}

/// Serializes a failed run's partial trace to
/// `target/conformance-failures/<label>.trace`, for CI to upload and
/// for offline replay, and panics with the error.
fn fail_with_trace(label: &str, failed: FailedRun) -> ! {
    let dir = Path::new("target/conformance-failures");
    std::fs::create_dir_all(dir).expect("create failure dir");
    let path = dir.join(format!("{label}.trace"));
    std::fs::write(&path, failed.trace.to_text()).expect("serialize partial trace");
    panic!(
        "{label}: {}\npartial trace ({} events) serialized to {}",
        failed.error,
        failed.trace.len(),
        path.display()
    );
}

#[test]
fn a_process_fleet_learns_the_synthetic_workload() {
    let mut exp =
        ProcessExperiment::new(HopConfig::standard(), Topology::ring(4), 20, worker_bin());
    exp.examples = 256;
    let report = exp.run().expect("process run succeeds");
    assert_eq!(report.final_params.len(), 4);
    assert_eq!(report.update_wire_bytes.len(), 4);
    for (w, losses) in report.losses.iter().enumerate() {
        assert_eq!(losses.len(), 20, "worker {w} recorded a loss per iteration");
    }
    assert!(
        report.total_update_wire_bytes() > 0,
        "external updates crossed the sockets"
    );
    // Evaluate the averaged model against the identically reconstructed
    // workload: the fleet must have actually learned, not just finished.
    let dataset = SyntheticWebspam::generate(exp.examples, exp.data_seed);
    let model = Svm::log_loss(dataset.feature_dim());
    let eval: Vec<usize> = (0..dataset.len()).collect();
    let loss = model.loss(&report.averaged_params(), &dataset.batch(&eval));
    assert!(loss < 0.6, "process fleet failed to learn (loss {loss})");
}

#[test]
fn same_seed_standard_int8_fleets_are_bit_identical() {
    // Each worker reduces its neighbours' updates in sender order, not in
    // the order their frames arrived, so two runs of one seed agree to
    // the bit even though the fleet's schedule differs between them.
    let cfg = HopConfig::standard().with_compression(hop::core::CompressionConfig::Int8Uniform);
    let mut exp = ProcessExperiment::new(cfg, Topology::ring_based(4), 40, worker_bin());
    exp.examples = 256;
    let a = exp.run().expect("first run");
    let b = exp.run().expect("second run");
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.losses, b.losses);
}

#[test]
fn unsupported_configs_are_rejected_up_front() {
    let mut exp = ProcessExperiment::new(HopConfig::standard(), Topology::ring(3), 4, worker_bin());
    exp.config.order = hop::core::ComputeOrder::Serial;
    match exp.run() {
        Err(RuntimeError::Unsupported(_)) => {}
        other => panic!("serial order must be rejected, got {other:?}"),
    }
}

#[test]
fn teardown_survives_peers_finishing_far_apart() {
    // The close handshake under stress. With no compute time the whole
    // fleet tears down at once; with a 50x straggler the fast peers
    // finish, say `Finished` and half-close while the straggler is still
    // granting them tokens — the shape of the old teardown race, where a
    // finished peer's exit reset the link and the straggler's legal late
    // grant came back as `Connection reset by peer`. Token-gated modes
    // only: they are the ones that write to a peer after it may be done.
    let topo = Topology::ring(6);
    let iters = 8;
    let skip = SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    };
    let modes = [
        ("staleness", HopConfig::staleness(2, 4)),
        ("backup", HopConfig::backup(1, 4)),
        ("skip", HopConfig::backup(1, 4).with_skip(skip)),
    ];
    let mut fleets = 0;
    for round in 0..5 {
        for (mode, cfg) in &modes {
            for straggle in [false, true] {
                let label = format!("process-teardown-{mode}-{straggle}-{round}");
                let mut exp =
                    ProcessExperiment::new(cfg.clone(), topo.clone(), iters, worker_bin());
                exp.examples = 64;
                exp.stall_timeout = Duration::from_secs(30);
                if straggle {
                    exp.compute_sleep = Duration::from_micros(200);
                    exp.slow_worker = Some((0, 50));
                }
                let (report, trace) = exp
                    .run_traced()
                    .unwrap_or_else(|failed| fail_with_trace(&label, failed));
                assert_eq!(report.final_params.len(), topo.len(), "{label}");
                Oracle::new(cfg, &topo, iters)
                    .check(&trace)
                    .unwrap_or_else(|v| panic!("{label}: {v}"));
                fleets += 1;
            }
        }
    }
    assert!(fleets >= 25, "only {fleets} fleet runs");
}

#[test]
fn a_killed_worker_surfaces_as_peer_loss_with_a_partial_trace() {
    // `die_at` swept over every (worker, iteration) of a 3-ring x 4
    // iterations. The victim exits(101) at that iteration entry — no
    // Finished frame, no summary: exactly what a crashed process looks
    // like to its peers. Whenever it vanishes, the coordinator must come
    // back promptly with a typed error naming the lost peer — never a
    // hang, never a bare socket error — and hand back the survivors'
    // partial trace with it for offline replay.
    let iters = 4;
    for worker in 0..3 {
        for iter in 0..iters {
            let label = format!("process-killed-worker-w{worker}-k{iter}");
            let mut exp = ProcessExperiment::new(
                HopConfig::standard_with_tokens(2),
                Topology::ring(3),
                iters,
                worker_bin(),
            );
            exp.examples = 64;
            exp.die_at = Some((worker, iter));
            exp.stall_timeout = Duration::from_millis(500);
            let started = Instant::now();
            let FailedRun { error: err, trace } = exp
                .run_traced()
                .expect_err("a killed worker must fail the run");
            // Survivors notice within one stall_timeout (usually at once:
            // the next wait's pump reads the dead link's EOF); the rest is
            // fleet spawn.
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "{label}: took {:?} to report {err}",
                started.elapsed()
            );
            match &err {
                RuntimeError::PeerLost { failures } => assert!(
                    failures.iter().any(|(w, _)| *w == worker),
                    "{label}: the killed worker is not among {failures:?}"
                ),
                other => panic!("{label}: expected PeerLost, got {other}"),
            }
            let text = err.to_string();
            assert!(
                !text.contains("i/o error"),
                "{label}: bare I/O error: {text}"
            );
            let partial = trace.to_text();
            assert!(
                partial.lines().any(|l| l.starts_with("advance")),
                "{label}: partial trace holds no protocol events:\n{partial}"
            );
        }
    }
}
