//! Differential suite: the calendar-queue [`EventQueue`] against the
//! retained binary-heap oracle [`HeapEventQueue`] (`support/heap_queue.rs`).
//!
//! The property is total behavioral equality: driven through the same
//! random push/pop interleaving — with heavy same-time ties, clustered
//! times and far-future outliers — both queues must produce the same
//! `(time, payload)` stream, the same lengths and the same clock. This
//! is what licenses swapping the scheduler under every digest table in
//! the workspace.

#[path = "support/heap_queue.rs"]
mod heap_queue;

use heap_queue::HeapEventQueue;
use hop_sim::EventQueue;
use proptest::prelude::*;

/// Drives both queues through one interleaving described by `ops` and
/// asserts lock-step equality. Each op is `(kind, dt)`:
/// `kind < 5` pushes at `now + dt * quantum` (a coarse quantum makes
/// same-time ties common), `kind == 5` pushes a far-future outlier
/// (exercises the full-rotation fallback), anything else pops.
fn run_interleaving(ops: &[(u8, u64)], quantum: f64) -> Result<(), TestCaseError> {
    let mut calendar = EventQueue::new();
    let mut oracle = HeapEventQueue::new();
    let mut id = 0u64;
    for &(kind, dt) in ops {
        match kind {
            0..=4 => {
                let at = calendar.now() + dt as f64 * quantum;
                calendar.push(at, id);
                oracle.push(at, id);
                id += 1;
            }
            5 => {
                let at = calendar.now() + 1e5 * (dt + 1) as f64;
                calendar.push(at, id);
                oracle.push(at, id);
                id += 1;
            }
            _ => {
                prop_assert_eq!(calendar.pop(), oracle.pop());
                prop_assert_eq!(calendar.now(), oracle.now());
            }
        }
        prop_assert_eq!(calendar.len(), oracle.len());
        prop_assert_eq!(calendar.peek_time(), oracle.peek_time());
    }
    // Drain: the full residual streams must match too.
    while let Some(expect) = oracle.pop() {
        prop_assert_eq!(calendar.pop(), Some(expect));
    }
    prop_assert_eq!(calendar.pop(), None);
    prop_assert!(calendar.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_match_the_heap(ops in proptest::collection::vec((0u8..8, 0u64..6), 0..300)) {
        run_interleaving(&ops, 0.25)?;
    }

    #[test]
    fn tie_heavy_interleavings_match_the_heap(ops in proptest::collection::vec((0u8..8, 0u64..2), 0..300)) {
        // dt in {0, 1} at a tiny quantum: most events collide on the
        // same timestamp, so FIFO tie-breaking carries the whole order.
        run_interleaving(&ops, 1e-6)?;
    }

    #[test]
    fn push_storms_then_full_drains_match(sizes in (1usize..400, 1u64..9)) {
        let (n, spread) = sizes;
        let mut calendar = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        for i in 0..n as u64 {
            // A handful of distinct times shared by many events.
            let at = (i % spread) as f64 * 0.5;
            calendar.push(at, i);
            oracle.push(at, i);
        }
        while let Some(expect) = oracle.pop() {
            prop_assert_eq!(calendar.pop(), Some(expect));
        }
        prop_assert_eq!(calendar.pop(), None);
    }
}

#[test]
fn identical_times_pop_in_insertion_order_across_rebuilds() {
    // 5k ties at one timestamp force several grow rebuilds and a drain
    // through shrink rebuilds; insertion order must survive all of them.
    let mut q = EventQueue::new();
    for i in 0..5000u64 {
        q.push(1.0, i);
    }
    for i in 0..5000u64 {
        assert_eq!(q.pop(), Some((1.0, i)));
    }
    assert!(q.is_empty());
}
