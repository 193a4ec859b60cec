//! The three-runtime differential conformance suite.
//!
//! The same `(HopConfig, Topology, seed)` grid — standard / token /
//! backup / staleness / skip × ring / clique / torus — runs through the
//! deterministic simulator, the threaded runtime, and the multi-process
//! runtime (real OS processes over Unix-domain sockets); every run emits a
//! structured [`ProtocolTrace`] and every trace is replayed by the
//! invariant [`Oracle`] (gap bounds, backup quota, staleness window,
//! jump legality). On a violation the offending trace — and on a failed
//! real-runtime run the partial trace the error carries — is serialized
//! to `target/conformance-failures/<label>.trace` so CI can upload it as
//! an artifact and the failure can be replayed offline.
//!
//! The process leg additionally pins wire accounting: the update bytes a
//! worker actually frames onto its sockets must equal the simulator's
//! modeled `bytes_sent` for the same grid point, identity and int8
//! codecs alike.

use hop::core::conformance::{ConformanceSummary, Oracle, ProtocolTrace};
use hop::core::process::ProcessExperiment;
use hop::core::threaded::ThreadedExperiment;
use hop::core::{
    CompressionConfig, FailedRun, HopConfig, Hyper, Protocol, SimExperiment, SkipConfig,
};
use hop::data::webspam::SyntheticWebspam;
use hop::data::{Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::model::Model;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SIM_ITERS: u64 = 20;
const THREADED_ITERS: u64 = 12;
const PROCESS_ITERS: u64 = 8;
const SEED: u64 = 17;

fn modes() -> Vec<(&'static str, HopConfig)> {
    vec![
        ("standard", HopConfig::standard()),
        ("token", HopConfig::standard_with_tokens(3)),
        ("backup", HopConfig::backup(1, 4)),
        ("staleness", HopConfig::staleness(2, 4)),
        (
            "skip",
            HopConfig::backup(1, 4).with_skip(SkipConfig {
                max_jump: 6,
                trigger_behind: 2,
            }),
        ),
    ]
}

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("ring6", Topology::ring(6)),
        ("clique5", Topology::complete(5)),
        ("torus3x3", Topology::torus(3, 3)),
    ]
}

fn workload(n_examples: usize) -> (Svm, InMemoryDataset) {
    let dataset = SyntheticWebspam::generate(n_examples, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    (model, dataset)
}

/// Serializes `trace` to `target/conformance-failures/<label>.trace`
/// for offline replay / CI artifact upload, returning the path.
fn save_trace(label: &str, trace: &ProtocolTrace) -> PathBuf {
    let dir = Path::new("target/conformance-failures");
    std::fs::create_dir_all(dir).expect("create failure dir");
    let path = dir.join(format!("{label}.trace"));
    std::fs::write(&path, trace.to_text()).expect("serialize offending trace");
    path
}

/// Serializes a failed real-runtime run's partial trace and panics with
/// its error.
fn fail_with_trace(label: &str, failed: FailedRun) -> ! {
    let path = save_trace(label, &failed.trace);
    panic!(
        "{label}: {}\npartial trace ({} events) serialized to {}",
        failed.error,
        failed.trace.len(),
        path.display()
    );
}

/// Replays `trace` through the oracle; on a violation, serializes the
/// trace for offline replay / CI artifact upload and panics with the
/// violation.
fn oracle_check(
    label: &str,
    cfg: &HopConfig,
    topo: &Topology,
    max_iters: u64,
    trace: &ProtocolTrace,
) -> ConformanceSummary {
    let oracle = Oracle::new(cfg, topo, max_iters);
    match oracle.check(trace) {
        Ok(summary) => summary,
        Err(violation) => {
            let path = save_trace(label, trace);
            panic!(
                "{label}: {violation}\noffending trace ({} events) serialized to {}",
                trace.len(),
                path.display()
            );
        }
    }
}

fn sim_trace(cfg: &HopConfig, topo: &Topology, straggle: bool) -> ProtocolTrace {
    let n = topo.len();
    let (model, dataset) = workload(128);
    let report = SimExperiment {
        topology: topo.clone(),
        cluster: ClusterSpec::uniform(n, 2, 0.01, LinkModel::ethernet_1gbps()),
        slowdown: if straggle {
            SlowdownModel::paper_straggler(n, 0, 6.0)
        } else {
            SlowdownModel::paper_random(n)
        },
        protocol: Protocol::Hop(cfg.clone()),
        hyper: Hyper::svm(),
        max_iters: SIM_ITERS,
        seed: SEED,
        eval_every: 0,
        eval_examples: 32,
    }
    .run_conformance(&model, &dataset)
    .expect("valid grid point");
    assert!(!report.deadlocked, "sim run deadlocked");
    report.conformance.expect("conformance recording was on")
}

#[test]
fn sim_traces_satisfy_the_oracle_on_the_full_grid() {
    for (mode, cfg) in modes() {
        for (topo_name, topo) in topologies() {
            let label = format!("sim-{mode}-{topo_name}");
            let straggle = mode == "skip";
            let trace = sim_trace(&cfg, &topo, straggle);
            let summary = oracle_check(&label, &cfg, &topo, SIM_ITERS, &trace);
            let n = topo.len() as u64;
            // Every worker reached max_iters; without jumps that is one
            // advance per (worker, iteration) plus the terminal entries.
            assert!(
                summary.advances > n,
                "{label}: vacuously small trace ({} advances)",
                summary.advances
            );
            assert!(summary.reduces > 0, "{label}: no reduces recorded");
            assert!(summary.consumed > 0, "{label}: no consumes recorded");
            match mode {
                "token" | "backup" | "skip" => assert!(
                    summary.tokens_passed > 0,
                    "{label}: token mode passed no tokens"
                ),
                "staleness" => assert!(
                    summary.stale_admitted > 0,
                    "{label}: staleness mode admitted nothing"
                ),
                _ => {}
            }
            if mode == "skip" {
                assert!(
                    summary.jumps > 0,
                    "{label}: the 6x straggler never jumped — skip mode is inert"
                );
                assert!(
                    summary.renew_reduces >= summary.jumps,
                    "{label}: jumps without renew reduces"
                );
            }
        }
    }
}

fn threaded_experiment(cfg: &HopConfig, topo: &Topology, straggle: bool) -> ThreadedExperiment {
    ThreadedExperiment {
        config: cfg.clone(),
        topology: topo.clone(),
        max_iters: THREADED_ITERS,
        seed: SEED,
        hyper: Hyper::svm(),
        compute_sleep: if straggle {
            Duration::from_micros(300)
        } else {
            Duration::ZERO
        },
        slow_worker: straggle.then_some((0, 15)),
        stall_timeout: Duration::from_secs(30),
        faults: hop_sim::FaultPlan::none(),
    }
}

#[test]
fn threaded_traces_satisfy_the_oracle_on_the_full_grid() {
    for (mode, cfg) in modes() {
        for (topo_name, topo) in topologies() {
            let label = format!("threaded-{mode}-{topo_name}");
            let (model, dataset) = workload(128);
            let (report, trace) = threaded_experiment(&cfg, &topo, mode == "skip")
                .run_traced(Arc::new(model), Arc::new(dataset))
                .unwrap_or_else(|failed| fail_with_trace(&label, failed));
            assert_eq!(report.final_params.len(), topo.len(), "{label}");
            let summary = oracle_check(&label, &cfg, &topo, THREADED_ITERS, &trace);
            // Every worker records every entered iteration plus the
            // terminal entry; jumps can only reduce the count.
            let n = topo.len() as u64;
            assert!(
                summary.advances <= n * (THREADED_ITERS + 1),
                "{label}: more advances than iterations"
            );
            assert!(
                summary.advances > n,
                "{label}: vacuously small trace ({} advances)",
                summary.advances
            );
            assert!(summary.reduces > 0, "{label}: no reduces recorded");
        }
    }
}

fn process_experiment(cfg: &HopConfig, topo: &Topology, straggle: bool) -> ProcessExperiment {
    let mut exp = ProcessExperiment::new(
        cfg.clone(),
        topo.clone(),
        PROCESS_ITERS,
        PathBuf::from(env!("CARGO_BIN_EXE_hop_worker")),
    );
    exp.seed = SEED;
    exp.examples = 128;
    exp.data_seed = 5;
    if straggle {
        exp.compute_sleep = Duration::from_micros(300);
        exp.slow_worker = Some((0, 15));
    }
    exp.stall_timeout = Duration::from_secs(30);
    exp
}

#[test]
fn process_traces_satisfy_the_oracle_on_the_grid() {
    // The third leg of the differential grid: one OS process per worker,
    // updates and tokens over Unix-domain sockets, traces Lamport-merged by
    // the coordinator.
    for (mode, cfg) in modes() {
        for (topo_name, topo) in [
            ("ring6", Topology::ring(6)),
            ("clique5", Topology::complete(5)),
        ] {
            let label = format!("process-{mode}-{topo_name}");
            let (report, trace) = process_experiment(&cfg, &topo, mode == "skip")
                .run_traced()
                .unwrap_or_else(|failed| fail_with_trace(&label, failed));
            assert_eq!(report.final_params.len(), topo.len(), "{label}");
            let summary = oracle_check(&label, &cfg, &topo, PROCESS_ITERS, &trace);
            let n = topo.len() as u64;
            assert!(
                summary.advances <= n * (PROCESS_ITERS + 1),
                "{label}: more advances than iterations"
            );
            assert!(
                summary.advances > n,
                "{label}: vacuously small trace ({} advances)",
                summary.advances
            );
            assert!(summary.reduces > 0, "{label}: no reduces recorded");
            assert!(summary.consumed > 0, "{label}: no consumes recorded");
            match mode {
                "token" | "backup" | "skip" => assert!(
                    summary.tokens_passed > 0,
                    "{label}: token mode passed no tokens"
                ),
                "staleness" => assert!(
                    summary.stale_admitted > 0,
                    "{label}: staleness mode admitted nothing"
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn process_wire_bytes_equal_simulated_bytes() {
    // The wire-accounting pin: the simulator's modeled `bytes_sent` and
    // the process runtime's measured socket bytes must be the same
    // number for the same grid point — by construction, because an
    // update frame embeds its block in exactly `encoded_bytes()` payload
    // bytes and both sides count every *attempted* external send.
    // Backup mode is excluded (the §6.2(b) inquiry suppresses
    // timing-dependent sends), as is skip (jump timing changes the send
    // count on real sockets).
    let byte_modes = [
        ("standard", HopConfig::standard()),
        ("token", HopConfig::standard_with_tokens(3)),
        ("staleness", HopConfig::staleness(2, 4)),
    ];
    let codecs = [
        ("identity", CompressionConfig::Identity),
        ("int8", CompressionConfig::Int8Uniform),
    ];
    for (mode, base) in byte_modes {
        for (topo_name, topo) in [
            ("ring6", Topology::ring(6)),
            ("clique5", Topology::complete(5)),
        ] {
            for (codec_name, codec) in codecs {
                let label = format!("bytes-{mode}-{topo_name}-{codec_name}");
                let cfg = base.clone().with_compression(codec);
                let n = topo.len();
                let (model, dataset) = workload(128);
                let sim = SimExperiment {
                    topology: topo.clone(),
                    cluster: ClusterSpec::uniform(n, 2, 0.01, LinkModel::ethernet_1gbps()),
                    slowdown: SlowdownModel::paper_random(n),
                    protocol: Protocol::Hop(cfg.clone()),
                    hyper: Hyper::svm(),
                    max_iters: PROCESS_ITERS,
                    seed: SEED,
                    eval_every: 0,
                    eval_examples: 32,
                }
                .run(&model, &dataset)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                let process = process_experiment(&cfg, &topo, false)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    process.total_update_wire_bytes(),
                    sim.bytes_sent,
                    "{label}: socket bytes diverged from the simulated accounting"
                );
            }
        }
    }
}

#[test]
fn threaded_skip_jumps_and_conforms() {
    // Jumping on real threads needs real timing skew; retry a few times
    // on a loaded machine before declaring skip-mode conformance
    // untestable.
    let cfg = HopConfig::backup(1, 4).with_skip(SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    });
    let topo = Topology::ring(6);
    let mut exp = threaded_experiment(&cfg, &topo, true);
    exp.compute_sleep = Duration::from_micros(500);
    exp.slow_worker = Some((0, 20));
    exp.max_iters = 30;
    let mut jumps = 0;
    for attempt in 0..3 {
        let label = format!("threaded-skip-jump-attempt{attempt}");
        let (model, dataset) = workload(128);
        let (_, trace) = exp
            .run_traced(Arc::new(model), Arc::new(dataset))
            .unwrap_or_else(|failed| fail_with_trace(&label, failed));
        let summary = oracle_check(&label, &cfg, &topo, 30, &trace);
        jumps = summary.jumps;
        if jumps > 0 {
            break;
        }
    }
    assert!(jumps > 0, "the 20x straggler never jumped on real threads");
}

#[test]
fn process_skip_jumps_and_conforms() {
    // The same straggler as a worker process: its skip decision reads
    // token counts the process transport takes in from its links, and the
    // jump must actually happen and pass the oracle.
    let cfg = HopConfig::backup(1, 4).with_skip(SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    });
    let topo = Topology::ring(6);
    let mut exp = process_experiment(&cfg, &topo, true);
    exp.compute_sleep = Duration::from_micros(500);
    exp.slow_worker = Some((0, 20));
    exp.max_iters = 30;
    let mut jumps = 0;
    for attempt in 0..3 {
        let label = format!("process-skip-jump-attempt{attempt}");
        let (_, trace) = exp
            .run_traced()
            .unwrap_or_else(|failed| fail_with_trace(&label, failed));
        let summary = oracle_check(&label, &cfg, &topo, 30, &trace);
        jumps = summary.jumps;
        if jumps > 0 {
            break;
        }
    }
    assert!(jumps > 0, "the 20x straggler never jumped as a process");
}

#[test]
fn both_runtimes_learn_on_every_mode() {
    // The loss-parity leg of the differential suite: the same mode on the
    // same workload must learn in both runtimes (skip mode included, now
    // that the threaded runtime supports it).
    let topo = Topology::ring(6);
    let eval: Vec<usize> = (0..128).collect();
    for (mode, cfg) in modes() {
        let (model, dataset) = workload(512);
        let threaded = {
            let mut exp = threaded_experiment(&cfg, &topo, mode == "skip");
            exp.max_iters = 40;
            exp.run(Arc::new(model), Arc::new(dataset))
                .unwrap_or_else(|e| panic!("{mode}: {e}"))
        };
        let (model, dataset) = workload(512);
        let sim = SimExperiment {
            topology: topo.clone(),
            cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: if mode == "skip" {
                SlowdownModel::paper_straggler(6, 0, 6.0)
            } else {
                SlowdownModel::None
            },
            protocol: Protocol::Hop(cfg.clone()),
            hyper: Hyper::svm(),
            max_iters: 40,
            seed: SEED,
            eval_every: 0,
            eval_examples: 128,
        }
        .run(&model, &dataset)
        .expect("sim runs");
        let threaded_loss = model.loss(&threaded.averaged_params(), &dataset.batch(&eval));
        let sim_loss = model.loss(&sim.averaged_params(), &dataset.batch(&eval));
        assert!(
            threaded_loss < 0.55,
            "{mode}: threaded runtime failed to learn (loss {threaded_loss})"
        );
        assert!(
            sim_loss < 0.55,
            "{mode}: simulator failed to learn (loss {sim_loss})"
        );
    }
}

#[test]
fn conformance_recording_does_not_change_the_run() {
    // The acceptance guard for the existing digest tables: recording a
    // trace must be invisible to everything the report digests.
    for (mode, cfg) in modes() {
        let (model, dataset) = workload(128);
        let exp = SimExperiment {
            topology: Topology::ring(6),
            cluster: ClusterSpec::uniform(6, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: SlowdownModel::paper_random(6),
            protocol: Protocol::Hop(cfg),
            hyper: Hyper::svm(),
            max_iters: SIM_ITERS,
            seed: SEED,
            eval_every: 5,
            eval_examples: 32,
        };
        let plain = exp.run(&model, &dataset).expect("runs");
        let traced = exp.run_conformance(&model, &dataset).expect("runs traced");
        assert!(plain.conformance.is_none());
        assert!(traced.conformance.is_some());
        assert_eq!(plain.digest(), traced.digest(), "{mode}: digest diverged");
    }
}

#[test]
fn real_traces_round_trip_through_serialization() {
    let cfg = HopConfig::backup(1, 4).with_skip(SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    });
    let topo = Topology::ring(6);
    let trace = sim_trace(&cfg, &topo, true);
    let text = trace.to_text();
    let back = ProtocolTrace::from_text(&text).expect("round trip parses");
    assert_eq!(trace, back);
    // The replayed trace satisfies the oracle exactly like the original.
    let a = oracle_check("roundtrip-original", &cfg, &topo, SIM_ITERS, &trace);
    let b = oracle_check("roundtrip-parsed", &cfg, &topo, SIM_ITERS, &back);
    assert_eq!(a, b);
}

#[test]
fn oracle_rejects_a_corrupted_real_trace() {
    // The oracle must not be vacuous on real traces: corrupt one consumed
    // tag in a legal backup-mode trace and the replay has to fail.
    let cfg = HopConfig::backup(1, 4);
    let topo = Topology::ring(6);
    let trace = sim_trace(&cfg, &topo, false);
    let mut corrupted = ProtocolTrace::new();
    let mut bumped = false;
    for ev in trace.events() {
        let mut ev = ev.clone();
        if !bumped {
            if let hop::core::conformance::ProtocolEvent::Consume { iter, .. } = &mut ev {
                *iter += 1;
                bumped = true;
            }
        }
        corrupted.push(ev);
    }
    assert!(bumped, "legal trace contained no consume events");
    let oracle = Oracle::new(&cfg, &topo, SIM_ITERS);
    oracle.check(&trace).expect("original trace is legal");
    let violation = oracle
        .check(&corrupted)
        .expect_err("corrupted trace must be rejected");
    let msg = format!("{violation}");
    assert!(
        msg.contains("never sent") || msg.contains("cross-iteration"),
        "unexpected violation: {msg}"
    );
}
