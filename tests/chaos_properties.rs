//! Property tests for the fault plane: randomized crash schedules over
//! the trickiest protocol states.
//!
//! Two crash timings and one family of modes interact with subtle
//! machinery and get their own properties, each swept over ring / torus /
//! expander graphs with randomized fault plans:
//!
//! - **Crash during a jump** — skip mode can advance a worker several
//!   iterations at once; a crash scheduled inside the jumped-over window
//!   must still fire (at the first iteration entry past it), and the
//!   rejoin must land on a tag the remaining neighbors will still feed.
//! - **Crash while holding tokens** — in token mode the crashed worker
//!   holds unspent send-permits; conservation must hold modulo the
//!   crashed worker, and the rejoin must not be admitted on token
//!   credit.
//! - **Churn under a finite per-hop bound** — staleness and
//!   standard-with-tokens modes bound a worker `b0` ahead of each
//!   in-neighbor, so a rejoin must also wait until it lands within `b0`
//!   of every in-neighbor, a crashed one counting at its frozen
//!   iteration.
//!
//! Every trace replays through [`Oracle::check_with_faults`]; a run may
//! legitimately deadlock (a 1-of-2 quorum stalls when both externals'
//! updates for one iteration are lost), but it may never violate.

use hop::core::conformance::Oracle;
use hop::core::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig};
use hop::data::webspam::SyntheticWebspam;
use hop::data::{Dataset, InMemoryDataset};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::{ByzSpec, ByzVariant, ClusterSpec, CrashSpec, FaultPlan, LinkModel, SlowdownModel};
use proptest::prelude::*;

const ITERS: u64 = 30;

fn topology(index: usize) -> Topology {
    match index {
        0 => Topology::ring(6),
        1 => Topology::torus(3, 3),
        _ => Topology::expander(6, 4, 7),
    }
}

fn plan(loss: f64, crash: CrashSpec, byz: bool) -> FaultPlan {
    let mut plan = FaultPlan::none().with_loss(loss).with_crash(crash);
    if byz {
        plan = plan.with_byzantine(ByzSpec {
            worker: 1,
            from_iter: 5,
            variant: ByzVariant::SignFlip,
        });
    }
    plan
}

fn workload() -> (Svm, InMemoryDataset) {
    let dataset = SyntheticWebspam::generate(128, 4);
    let model = Svm::log_loss(dataset.feature_dim());
    (model, dataset)
}

/// Runs one chaotic cell and replays it through the fault-aware oracle;
/// returns whether the run completed (vs. a legitimate stall).
fn check_cell(cfg: &HopConfig, topo: Topology, plan: FaultPlan, seed: u64) -> bool {
    let (model, dataset) = workload();
    let n = topo.len();
    let exp = SimExperiment {
        topology: topo.clone(),
        cluster: ClusterSpec::uniform(n, 2, 0.01, LinkModel::ethernet_1gbps()).with_faults(plan),
        slowdown: SlowdownModel::paper_random(n),
        protocol: Protocol::Hop(cfg.clone()),
        hyper: Hyper::svm(),
        max_iters: ITERS,
        seed,
        eval_every: 0,
        eval_examples: 32,
    };
    let report = exp.run_conformance(&model, &dataset).expect("valid cell");
    let trace = report.conformance.as_ref().expect("tracing was on");
    let oracle = Oracle::new(cfg, &topo, ITERS);
    let summary = oracle
        .check_with_faults(trace, &report.fault_log)
        .unwrap_or_else(|v| panic!("oracle violation: {v}"));
    assert_eq!(summary.crashes, report.crashes);
    assert_eq!(summary.rejoins, report.rejoins);
    if !report.deadlocked {
        // A completed run necessarily walked worker `crash.worker`
        // through the crash point, so the cycle must have played out.
        assert_eq!(report.crashes, 1, "completed run never fired its crash");
        let mut done = vec![0u64; n];
        for r in report.trace.records() {
            done[r.worker] = done[r.worker].max(r.iter);
        }
        assert!(
            done.iter().all(|&d| d >= ITERS),
            "completed run left a worker behind: {done:?}"
        );
    }
    !report.deadlocked
}

/// The smallest cell in which a rejoin landed more than `b0` ahead of a
/// live in-neighbor: worker 1 re-entered at 11 with in-neighbor 5 at 7
/// (`b0 = 3`).
#[test]
fn a_rejoin_waits_until_it_is_within_b0_of_its_in_neighbors() {
    let crash = CrashSpec {
        worker: 1,
        at_iter: 10,
        down_iters: 2,
    };
    let plan = plan(0.01, crash, false);
    check_cell(
        &HopConfig::staleness(2, 4),
        Topology::expander(6, 4, 7),
        plan,
        410,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Skip mode jumps over iterations; a crash scheduled inside the
    /// jumped window still fires and the rejoin stays conformant.
    #[test]
    fn crash_during_jump_stays_conformant(
        seed in 0u64..200,
        topo_index in 0usize..3,
        loss_pct in 0u64..3,
        crash_worker in 0usize..6,
        at_iter in 2u64..15,
        down_iters in 1u64..6,
        byz in 0u64..2,
    ) {
        let cfg = HopConfig::backup(1, 4).with_skip(SkipConfig {
            max_jump: 6,
            trigger_behind: 2,
        });
        let crash = CrashSpec { worker: crash_worker, at_iter, down_iters };
        let plan = plan(loss_pct as f64 * 0.01, crash, byz == 1);
        check_cell(&cfg, topology(topo_index), plan, seed);
    }

    /// Token mode: the crashed worker holds unspent send-permits; token
    /// conservation must hold modulo the crash and the rejoin must not
    /// enter on token credit.
    #[test]
    fn crash_while_holding_token_stays_conformant(
        seed in 0u64..200,
        topo_index in 0usize..3,
        loss_pct in 0u64..3,
        crash_worker in 0usize..6,
        at_iter in 2u64..15,
        down_iters in 1u64..6,
        byz in 0u64..2,
    ) {
        let cfg = HopConfig::backup(1, 4);
        let crash = CrashSpec { worker: crash_worker, at_iter, down_iters };
        let plan = plan(loss_pct as f64 * 0.01, crash, byz == 1);
        check_cell(&cfg, topology(topo_index), plan, seed);
    }

    /// Staleness and standard-with-tokens modes: every trace keeps each
    /// worker within `b0` of its in-neighbors across the crash and the
    /// rejoin.
    #[test]
    fn churn_under_a_finite_b0_stays_conformant(
        seed in 0u64..200,
        topo_index in 0usize..3,
        loss_pct in 0u64..3,
        crash_worker in 0usize..6,
        at_iter in 2u64..15,
        down_iters in 1u64..6,
        staleness in 0u64..2,
    ) {
        let cfg = if staleness == 1 {
            HopConfig::staleness(2, 4)
        } else {
            HopConfig::standard_with_tokens(3)
        };
        let crash = CrashSpec { worker: crash_worker, at_iter, down_iters };
        let plan = plan(loss_pct as f64 * 0.01, crash, false);
        check_cell(&cfg, topology(topo_index), plan, seed);
    }
}
