//! Heap-allocation budget of the simulator's steady state.
//!
//! Runs the `sim_exp10k_ident` ledger recipe — an expander of degree 4,
//! `standard_with_tokens(4)`, a 64-dimensional SVM, seed 1 — cut to
//! 1 000 workers, at `max_iters` 10 and at 20, under a counting global
//! allocator. Set-up (graph, engine, per-worker state, pre-sized traces)
//! costs the same at both lengths, so the difference over the 10 000
//! extra worker-iterations is the steady state's marginal cost. It must
//! stay at or below [`BUDGET`] allocations per worker-iteration.
//!
//! The run makes 1.10 per worker-iteration. What still allocates is the
//! `Batch` the gradient job builds from the sampler's indices
//! (`BatchSampler::next_batch_with`; the index buffer is reused), one
//! per worker-iteration, and about 0.1 more that no one has attributed
//! yet (a pool free list of 64 blocks made 0.3). The `Reduce` output is
//! a block a reader gave back whole, `Arc` and all
//! (`ParamBlock::overwrite_mut`), so it allocates nothing. Everything
//! else on the pump — rotating queues, the Recv's entry buffer, token
//! grants, loss series, events — reuses storage, and the Reduce's view
//! list sits on the stack.
//!
//! The allocator counts every thread, so this binary holds one test: a
//! second test running beside it would be counted too.

use hop::core::{HopConfig, Hyper, Protocol, SimExperiment};
use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::{ClusterSpec, LinkModel, SlowdownModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most heap allocations a worker-iteration may cost in the steady state:
/// what the run makes (the count is exact per seed), rounded up.
const BUDGET: f64 = 1.15;

/// `System`, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WORKERS: usize = 1_000;
const SEED: u64 = 1;

/// Heap allocations made by one run of the recipe at `max_iters`; the
/// run must complete.
fn allocations(max_iters: u64, model: &Svm, dataset: &hop::data::InMemoryDataset) -> u64 {
    let exp = SimExperiment {
        topology: Topology::expander(WORKERS, 4, SEED),
        cluster: ClusterSpec::uniform(WORKERS, 4, 0.05, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::paper_random(WORKERS),
        protocol: Protocol::Hop(HopConfig::standard_with_tokens(4)),
        hyper: Hyper::svm(),
        max_iters,
        seed: SEED,
        eval_every: 0,
        eval_examples: 32,
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = exp.run(model, dataset).expect("valid configuration");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(!report.deadlocked, "the {max_iters}-iteration run stalled");
    drop(report);
    made
}

#[test]
fn steady_state_allocations_per_worker_iteration_stay_within_budget() {
    let dataset = SyntheticWebspam::generate_with(
        512,
        SEED,
        WebspamConfig {
            dim: 64,
            nnz_per_example: 8,
            label_noise: 0.05,
        },
    );
    let model = Svm::log_loss(64);
    let short = allocations(10, &model, &dataset);
    let long = allocations(20, &model, &dataset);
    let per_iter = long.saturating_sub(short) as f64 / (WORKERS as f64 * 10.0);
    println!(
        "{short} allocations at 10 iterations, {long} at 20: {per_iter:.2} per worker-iteration"
    );
    assert!(
        per_iter <= BUDGET,
        "{per_iter:.2} allocations per worker-iteration, budget {BUDGET}"
    );
}
