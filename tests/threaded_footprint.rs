//! Parameter-block allocations of the threaded runtime's steady state.
//!
//! Runs the `thr_ring4_*` ledger recipe — `ring_based(4)`,
//! `backup(1, 5)`, an SVM, seed 1 — at 16K dimensions, with the identity
//! codec and with top-1 %, at `max_iters` 200 and at 1 200, five runs of
//! each, under a global allocator that counts only allocations of at
//! least one parameter block. Set-up (initial parameters, optimizer
//! state, codec streams, the report) costs the same at both lengths, so
//! the difference of the two medians over the 4 000 extra
//! worker-iterations is the steady state's marginal cost. It must stay
//! at or below [`BUDGET`] block allocations per worker-iteration.
//!
//! What it holds: a worker's pool reuses the blocks it replaced once
//! their readers let go (`BufferPool::retire`). Were a replaced block
//! recycled by whichever worker dropped it last, buffers would drift
//! between the workers' pools, and a pool that ran dry would allocate
//! about three blocks per hundred worker-iterations.
//!
//! Thread scheduling decides how far workers drift apart, so the count
//! varies between runs; the medians keep one unlucky run from deciding.
//! The allocator counts every thread, so this binary holds one test: a
//! second test running beside it would be counted too.

use hop::core::threaded::ThreadedExperiment;
use hop::core::{CompressionConfig, HopConfig, Hyper};
use hop::data::webspam::{SyntheticWebspam, WebspamConfig};
use hop::data::InMemoryDataset;
use hop::graph::Topology;
use hop::model::svm::Svm;
use hop::sim::FaultPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Most fresh parameter blocks a worker-iteration may allocate in the
/// steady state.
const BUDGET: f64 = 0.01;

const DIM: usize = 16_384;
const WORKERS: usize = 4;
const SEED: u64 = 1;
const RUNS: usize = 5;
const SHORT: u64 = 200;
const LONG: u64 = 1_200;

/// Bytes of one parameter block: the weights and the bias.
const BLOCK_BYTES: usize = (DIM + 1) * std::mem::size_of::<f32>();

/// `System`, counting every allocation and reallocation of at least one
/// block.
struct CountingBlocks;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if bytes >= BLOCK_BYTES {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingBlocks {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingBlocks = CountingBlocks;

/// Blocks allocated by one run at `max_iters`; the run must complete.
fn blocks(
    compression: CompressionConfig,
    max_iters: u64,
    model: &Arc<Svm>,
    dataset: &Arc<InMemoryDataset>,
) -> u64 {
    let exp = ThreadedExperiment {
        config: HopConfig::backup(1, 5).with_compression(compression),
        topology: Topology::ring_based(WORKERS),
        max_iters,
        seed: SEED,
        hyper: Hyper::svm(),
        compute_sleep: Duration::ZERO,
        slow_worker: None,
        stall_timeout: Duration::from_secs(30),
        faults: FaultPlan::none(),
    };
    let before = BLOCKS.load(Ordering::Relaxed);
    let report = exp
        .run(model.clone(), dataset.clone())
        .unwrap_or_else(|e| panic!("the {max_iters}-iteration run failed: {e}"));
    let made = BLOCKS.load(Ordering::Relaxed) - before;
    drop(report);
    made
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn steady_state_block_allocations_per_worker_iteration_stay_within_budget() {
    let dataset = Arc::new(SyntheticWebspam::generate_with(
        1024,
        SEED,
        WebspamConfig {
            dim: DIM,
            nnz_per_example: 32,
            label_noise: 0.05,
        },
    ));
    let model = Arc::new(Svm::log_loss(DIM));
    let mut over = Vec::new();
    for compression in [
        CompressionConfig::Identity,
        CompressionConfig::TopK { ratio: 0.01 },
    ] {
        let runs = |iters| -> Vec<u64> {
            (0..RUNS)
                .map(|_| blocks(compression, iters, &model, &dataset))
                .collect()
        };
        let (short, long) = (runs(SHORT), runs(LONG));
        let extra = (WORKERS as u64 * (LONG - SHORT)) as f64;
        let per_iter = median(long.clone()).saturating_sub(median(short.clone())) as f64 / extra;
        println!(
            "{compression:?}: blocks at {SHORT} iterations {short:?}, at {LONG} {long:?}: \
             {per_iter:.4} per worker-iteration"
        );
        if per_iter > BUDGET {
            over.push(format!("{compression:?}: {per_iter:.4}"));
        }
    }
    assert!(
        over.is_empty(),
        "block allocations per worker-iteration over the budget of {BUDGET}: {}",
        over.join(", ")
    );
}
