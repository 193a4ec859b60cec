//! Forced-offload determinism: the engine's hand-off threshold forced
//! to `usize::MAX` runs every gradient job on the pump, forced to 0
//! ships every job to the compute helper alone, and forced to a few
//! models' worth of parameters ships them several at a time. Each recipe
//! below — the `engine_smoke` variants and golden digests, the simulator
//! cells of the conformance grid, the whole chaos grid, a scaled cut of
//! the 10k-worker ledger workload — must give the same digest, event
//! sequence and fault log all three ways, whatever the two threads'
//! schedule (CI loops this module ×20, and once under `--release`).
//! A cut of the reference run, whose 64K-parameter Reduces and int8
//! encodes are long enough to split, runs a different three ways: on the
//! pump alone, beside a helper that shares no sweep, and beside one that
//! shares them on a sweep board. A longer cut runs with the int8 scales
//! its Reduces measure and without them.
//!
//! Compiled into `hop_core`'s unit-test target (`#[path]` in
//! `src/sim_runtime/mod.rs`): the threshold is crate-private.

use super::engine::{AWAIT_HELP, OFFLOAD_MIN_PARAMS, SHARE_SWEEPS};
use crate::config::{PsConfig, PsMode, QgmConfig};
use crate::conformance::ProtocolEvent;
use crate::{HopConfig, Hyper, Protocol, SimExperiment, SkipConfig, TrainingReport};
use hop_data::webspam::{SyntheticWebspam, WebspamConfig};
use hop_data::InMemoryDataset;
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::{GradScratch, Model};
use hop_sim::{ByzSpec, ByzVariant, ClusterSpec, CrashSpec, FaultPlan, LinkModel, SlowdownModel};
use hop_tensor::CompressionConfig;
use hop_util::Xoshiro256;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[path = "golden_digests.rs"]
mod golden_digests;

use golden_digests::golden_digests;

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

/// Jobs per hand-off of the batched leg: below every recipe's worker
/// count (so the run gets a helper), above one (so a hand-off is a batch).
const BATCH: usize = 3;

/// Gradient jobs a finished, fault-free run joined: one per iteration a
/// worker computed.
fn jobs(exp: &SimExperiment) -> u64 {
    exp.topology.len() as u64 * exp.max_iters
}

/// Runs `exp` inline, every job shipped alone, and [`BATCH`] jobs to a
/// hand-off; returns the (identical) report, as the batched leg gave it.
fn same_three_ways(label: &str, exp: &SimExperiment, examples: usize) -> TrainingReport {
    let dataset = SyntheticWebspam::generate(examples, 5);
    let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
    let run = |min| {
        OFFLOAD_MIN_PARAMS.set(min);
        exp.run_conformance(&model, &dataset).expect("valid")
    };
    let inline = run(usize::MAX);
    assert_eq!(inline.compute_handoffs, 0, "{label}: inline ships nothing");
    let alone = run(0);
    assert_eq!(alone.inline_joins, 0, "{label}: a job alone ships at once");
    assert_eq!(
        alone.compute_handoffs, inline.inline_joins,
        "{label}: one hand-off per job"
    );
    let batched = run(BATCH * model.param_len());
    assert_eq!(
        batched.compute_handoffs * BATCH as u64 + batched.inline_joins,
        inline.inline_joins,
        "{label}: every job is in a full hand-off or joined from the outbox"
    );
    // (The PS and QGM recipes compute inside their events: no jobs.)
    assert!(
        batched.compute_handoffs > 0 || inline.inline_joins == 0,
        "{label}: nothing was batched"
    );
    for (way, offload) in [("alone", &alone), ("batched", &batched)] {
        assert_eq!(inline.digest(), offload.digest(), "{label}/{way}: digest");
        assert_eq!(
            inline.conformance, offload.conformance,
            "{label}/{way}: events"
        );
        assert_eq!(
            inline.fault_log, offload.fault_log,
            "{label}/{way}: fault log"
        );
        assert_eq!(
            inline.events_processed, offload.events_processed,
            "{label}/{way}"
        );
    }
    batched
}

fn skip(max_ig: u64) -> HopConfig {
    HopConfig::backup(1, max_ig).with_skip(SkipConfig {
        max_jump: 6,
        trigger_behind: 2,
    })
}

#[test]
fn engine_smoke_variants_and_golden_digests() {
    for cfg in [
        HopConfig::standard(),
        HopConfig::standard_with_tokens(4),
        HopConfig::notify_ack(),
        HopConfig::backup(1, 5),
        HopConfig::staleness(3, 5),
        HopConfig::backup(1, 5).with_skip(SkipConfig::with_max_jump(6)),
    ] {
        let label = format!("{cfg:?}");
        let report = same_three_ways(
            &label,
            &experiment(Topology::ring(6), Protocol::Hop(cfg), 20, 29),
            192,
        );
        assert!(!report.deadlocked, "{label}");
    }
    // The golden digest table, reproduced all three ways.
    for (label, protocol, golden) in golden_digests() {
        let report = same_three_ways(
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
            let report = same_three_ways(&label, &exp, 128);
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
            let report = same_three_ways(&format!("chaos-{mode}-plan{p}"), &exp, 256);
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
fn a_rejoin_gets_its_fresh_optimizer_under_batching() {
    // The revive replaces the optimizer in the worker's seat: it must be
    // the worker's own, not the stand-in a begun job leaves there.
    let crash = CrashSpec {
        worker: 2,
        at_iter: 8,
        down_iters: 4,
    };
    for (mode, cfg) in [("backup", HopConfig::backup(1, 4)), ("skip", skip(4))] {
        let mut exp = experiment(Topology::ring(6), Protocol::Hop(cfg), 40, 29);
        exp.cluster = exp.cluster.with_faults(FaultPlan::none().with_crash(crash));
        let report = same_three_ways(&format!("rejoin-{mode}"), &exp, 256);
        assert!(!report.deadlocked, "{mode}");
        assert_eq!((report.crashes, report.rejoins), (1, 1), "{mode}");
    }
}

/// `sim_exp10k_ident`'s recipe (`benchmark/src/workloads.rs`) at
/// `workers` workers.
fn expander_cut(workers: usize, max_iters: u64) -> SimExperiment {
    SimExperiment {
        topology: Topology::expander(workers, 4, 1),
        cluster: ClusterSpec::uniform(workers, 4, 0.05, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(workers),
        protocol: Protocol::Hop(HopConfig::standard_with_tokens(4)),
        hyper: Hyper::svm(),
        max_iters,
        seed: 1,
        eval_every: 0,
        eval_examples: 32,
    }
}

#[test]
fn the_10k_worker_shape_batches_64_jobs_to_a_hand_off_and_joins_under_1_percent_inline() {
    let exp = expander_cut(3000, 3);
    let narrow = WebspamConfig {
        dim: 64,
        nnz_per_example: 8,
        label_noise: 0.05,
    };
    let dataset = SyntheticWebspam::generate_with(512, 1, narrow);
    let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
    assert_eq!(model.param_len(), 65);
    let run = |min| {
        OFFLOAD_MIN_PARAMS.set(min);
        exp.run_conformance(&model, &dataset).expect("valid")
    };
    // The shipped threshold, whatever this host's core count set it to.
    let (inline, batched) = (run(usize::MAX), run(4096));
    assert!(!inline.deadlocked);
    // Pinned: about half of this run's events are token grants.
    assert_eq!(
        (inline.digest(), inline.events_processed),
        (0xfc9f_feac_b0f5_19b2, 92_934)
    );
    assert_eq!(inline.digest(), batched.digest());
    assert_eq!(inline.conformance, batched.conformance);
    assert_eq!(inline.events_processed, batched.events_processed);
    // 65 parameters: 64 jobs reach 4096, and only a full outbox ships.
    assert_eq!(
        (inline.compute_handoffs, inline.inline_joins),
        (0, jobs(&exp))
    );
    assert_eq!(
        batched.compute_handoffs * 64 + batched.inline_joins,
        jobs(&exp)
    );
    assert!(
        batched.inline_joins * 100 < jobs(&exp),
        "{} of {} joins ran on the pump",
        batched.inline_joins,
        jobs(&exp)
    );
}

/// `sim_ref16_int8`'s recipe (`benchmark/src/workloads.rs`) cut to
/// `max_iters` iterations and 256 examples: 64K parameters, so every
/// Reduce, int8 encode and evaluation average is a sweep the board
/// splits.
fn reference_run(max_iters: u64) -> (SimExperiment, InMemoryDataset, Svm) {
    let cfg = HopConfig::backup(1, 5)
        .with_skip(SkipConfig::with_max_jump(10))
        .with_compression(CompressionConfig::Int8Uniform);
    let mut cluster = ClusterSpec::uniform(16, 4, 0.05, LinkModel::ethernet_1gbps());
    let mut rng = Xoshiro256::seed_from_u64(1);
    for w in 0..16 {
        cluster.set_compute_time(w, 0.05 * (0.98 + 0.04 * rng.next_f64()));
    }
    let exp = SimExperiment {
        topology: Topology::ring_based(16),
        cluster,
        slowdown: SlowdownModel::paper_straggler(16, 0, 6.0),
        protocol: Protocol::Hop(cfg),
        hyper: Hyper::svm(),
        max_iters,
        seed: 1,
        eval_every: 10,
        eval_examples: 256,
    };
    let wide = WebspamConfig {
        dim: 1 << 16,
        nnz_per_example: 32,
        label_noise: 0.05,
    };
    let dataset = SyntheticWebspam::generate_with(256, 1, wide);
    (exp, dataset, Svm::log_loss(1 << 16))
}

#[test]
fn the_reference_run_gives_the_same_bits_with_its_sweeps_shared() {
    let (exp, dataset, model) = reference_run(12);
    let run = |min, share| {
        OFFLOAD_MIN_PARAMS.set(min);
        SHARE_SWEEPS.set(share);
        // The board's first sweep waits for the helper's first claim.
        AWAIT_HELP.set(share);
        let report = exp.run_conformance(&model, &dataset).expect("valid");
        AWAIT_HELP.set(false);
        report
    };
    // On the pump alone (no helper, so no board); every job shipped to
    // a helper that shares no sweep; and shipped to one that does.
    let (serial, unshared, shared) = (run(usize::MAX, true), run(0, false), run(0, true));
    assert!(!serial.deadlocked);
    assert_eq!(serial.compute_handoffs, 0);
    assert_eq!(serial.sweep_chunks_helped + unshared.sweep_chunks_helped, 0);
    // Schedule-dependent beyond the first, so only its being nonzero is
    // checked.
    assert!(shared.sweep_chunks_helped > 0, "the helper ran no chunk");
    for (way, offload) in [("unshared", &unshared), ("shared", &shared)] {
        assert_eq!(serial.digest(), offload.digest(), "{way}: digest");
        assert_eq!(serial.conformance, offload.conformance, "{way}: events");
        assert_eq!(serial.fault_log, offload.fault_log, "{way}: fault log");
        assert_eq!(serial.events_processed, offload.events_processed, "{way}");
    }
}

#[test]
fn the_counters_repeat_exactly_per_seed() {
    // A function of event order alone: pinned, not merely compared.
    let exp = experiment(
        Topology::torus(3, 3),
        Protocol::Hop(HopConfig::standard_with_tokens(3)),
        20,
        17,
    );
    let dataset = SyntheticWebspam::generate(128, 5);
    let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
    for _ in 0..2 {
        OFFLOAD_MIN_PARAMS.set(BATCH * model.param_len());
        let report = exp.run(&model, &dataset).expect("valid");
        assert_eq!((report.compute_handoffs, report.inline_joins), (57, 9));
    }
}

/// An SVM that calls `before` ahead of every gradient it evaluates.
struct Spied<F>(Svm, F);

impl<F: Fn() + Send + Sync> Model for Spied<F> {
    fn param_len(&self) -> usize {
        self.0.param_len()
    }
    fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32> {
        self.0.init_params(rng)
    }
    fn loss_grad_with(
        &self,
        params: &[f32],
        batch: &hop_data::Batch<'_>,
        grad: &mut [f32],
        scratch: &mut GradScratch,
    ) -> f32 {
        (self.1)();
        self.0.loss_grad_with(params, batch, grad, scratch)
    }
    fn predict(&self, params: &[f32], features: &hop_data::Features) -> u32 {
        self.0.predict(params, features)
    }
}

#[test]
fn a_run_that_could_never_fill_a_hand_off_gets_no_helper() {
    let dataset = SyntheticWebspam::generate(128, 5);
    // Which thread evaluates each gradient.
    let threads = Mutex::new(Vec::new());
    let model = Spied(
        Svm::log_loss(hop_data::Dataset::feature_dim(&dataset)),
        || threads.lock().unwrap().push(std::thread::current().id()),
    );
    let exp = experiment(
        Topology::ring(6),
        Protocol::Hop(HopConfig::standard()),
        10,
        3,
    );
    // Seven jobs to a hand-off, six workers.
    OFFLOAD_MIN_PARAMS.set(7 * model.param_len());
    let report = exp.run(&model, &dataset).expect("valid");
    assert_eq!(
        (report.compute_handoffs, report.inline_joins),
        (0, jobs(&exp))
    );
    let here = std::thread::current().id();
    assert!(threads.lock().unwrap().iter().all(|&t| t == here));
    // One job fewer to a hand-off and the same run ships.
    OFFLOAD_MIN_PARAMS.set(6 * model.param_len());
    let report = exp.run(&model, &dataset).expect("valid");
    assert!(report.compute_handoffs > 0);
    assert!(threads.lock().unwrap().iter().any(|&t| t != here));
}

/// Runs a model whose `fails`-th gradient (counted from 0, over both
/// threads) panics, as a model's length assert would, with `batch` jobs
/// to a hand-off (0: every job alone).
fn run_broken(fails: usize, batch: usize) {
    let dataset = SyntheticWebspam::generate(64, 5);
    let calls = AtomicUsize::new(0);
    let model = Spied(
        Svm::log_loss(hop_data::Dataset::feature_dim(&dataset)),
        || {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            assert!(call != fails, "gradient {call} of a broken model");
        },
    );
    let exp = experiment(
        Topology::ring(4),
        Protocol::Hop(HopConfig::standard()),
        5,
        1,
    );
    OFFLOAD_MIN_PARAMS.set(batch * model.param_len());
    let _ = exp.run(&model, &dataset);
}

#[test]
#[should_panic(expected = "gradient 0 of a broken model")]
fn a_helper_panic_reraises_on_the_caller_with_its_message() {
    // Not a hang on the dead helper's channel, nor the scope's anonymous
    // "a scoped thread panicked": the job's own payload, on this thread.
    run_broken(0, 0);
}

#[test]
#[should_panic(expected = "gradient 2 of a broken model")]
fn a_panic_in_the_middle_of_a_hand_off_reraises_at_the_join_that_misses_its_job() {
    // All four workers begin at time 0: one hand-off of four. Jobs 0 and
    // 1 come back done and are joined as if nothing happened, job 2's
    // payload comes back with them, job 3 is dropped unrun — and the
    // first join of either re-raises job 2's panic. That this test
    // returns at all is the helper joined: `drive`'s scope cannot end
    // before it.
    run_broken(2, 4);
}

/// The int8 Send takes its scale from the maximum the Reduce before it
/// measured (`ops::scaled_sum` against the stream's reference), on the
/// pump and, split, beside the helper. Dropping every such maximum, so
/// that each encode sweeps for its own, moves no bit: the same digest,
/// events and event count, over a cut long enough for the straggler's
/// §5 jumps, whose renewing Reduce has no SGD step.
#[test]
fn the_reference_run_gives_the_same_bits_without_its_measured_maxima() {
    use super::compression::DROP_MAX_HINTS;

    let (exp, dataset, model) = reference_run(40);
    let run = |min, drop| {
        OFFLOAD_MIN_PARAMS.set(min);
        DROP_MAX_HINTS.set(drop);
        let report = exp.run_conformance(&model, &dataset).expect("valid");
        DROP_MAX_HINTS.set(false);
        report
    };
    let measured = run(usize::MAX, false);
    assert!(!measured.deadlocked);
    let events = measured.conformance.as_ref().expect("traced").events();
    let jumps = events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::Jump { .. }));
    assert!(jumps.count() > 0, "the straggler never jumped");
    for (way, other) in [("swept", run(usize::MAX, true)), ("split", run(0, false))] {
        assert_eq!(measured.digest(), other.digest(), "{way}: digest");
        assert_eq!(measured.conformance, other.conformance, "{way}: events");
        assert_eq!(measured.events_processed, other.events_processed, "{way}");
    }
}
