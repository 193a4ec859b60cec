//! Differential suite: [`EventQueue`] (one heap on packed integer keys,
//! plus FIFO lanes) against the oracle [`HeapEventQueue`]
//! (`support/heap_queue.rs`), a plain heap that compares `(time, seq)`
//! as a float and an integer.
//!
//! The property is total behavioral equality: driven through the same
//! random push/pop interleaving — with heavy same-time ties, clustered
//! times, far-future outliers and times from 1e-12 to 1e12 — both queues
//! must produce the same `(time, payload)` stream, the same lengths and
//! the same clock. This is what licenses the key encoding under every
//! digest table in the workspace. The lane suites hold
//! `EventQueue::push_fifo` to the same bar: the oracle takes the lane
//! events through plain `push`.
//!
//! Every suite also drives a twin queue that is peeked before each pop.
//! [`EventQueue::peek`] must name exactly the payload that pop returns,
//! and the twin must pop the same stream as the queue that is never
//! peeked: a peek that moved the order fails here.

#[path = "support/heap_queue.rs"]
mod heap_queue;

use heap_queue::HeapEventQueue;
use hop_sim::EventQueue;
use proptest::prelude::*;

/// Pops `peeked` after peeking it, asserting the peek named the popped
/// payload; returns the pop.
fn peek_then_pop(peeked: &mut EventQueue<u64>) -> Result<Option<(f64, u64)>, TestCaseError> {
    let named = peeked.peek().copied();
    let popped = peeked.pop();
    prop_assert_eq!(named, popped.map(|(_, id)| id));
    Ok(popped)
}

/// The twin peeked before every pop against the queue never peeked:
/// same pending count and clock (the `Debug` form names both).
fn twins_agree(queue: &EventQueue<u64>, peeked: &EventQueue<u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(queue.len(), peeked.len());
    prop_assert_eq!(format!("{queue:?}"), format!("{peeked:?}"));
    Ok(())
}

/// Drives both queues through one interleaving described by `ops` and
/// asserts lock-step equality. Each op is `(kind, dt)`:
/// `kind < 5` pushes at `now + dt * quantum` (a coarse quantum makes
/// same-time ties common), `kind == 5` pushes a far-future outlier,
/// anything else pops.
fn run_interleaving(ops: &[(u8, u64)], quantum: f64) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut peeked = EventQueue::new();
    let mut oracle = HeapEventQueue::new();
    let mut id = 0u64;
    for &(kind, dt) in ops {
        let at = match kind {
            0..=4 => Some(queue.now() + dt as f64 * quantum),
            5 => Some(queue.now() + 1e5 * (dt + 1) as f64),
            _ => None,
        };
        match at {
            Some(at) => {
                queue.push(at, id);
                peeked.push(at, id);
                oracle.push(at, id);
                id += 1;
            }
            None => {
                let popped = queue.pop();
                prop_assert_eq!(popped, oracle.pop());
                prop_assert_eq!(peek_then_pop(&mut peeked)?, popped);
                prop_assert_eq!(queue.now(), oracle.now());
            }
        }
        prop_assert_eq!(queue.len(), oracle.len());
        prop_assert_eq!(queue.peek_time(), oracle.peek_time());
        twins_agree(&queue, &peeked)?;
    }
    // Drain: the full residual streams must match too.
    while let Some(expect) = oracle.pop() {
        prop_assert_eq!(queue.pop(), Some(expect));
        prop_assert_eq!(peek_then_pop(&mut peeked)?, Some(expect));
        twins_agree(&queue, &peeked)?;
    }
    prop_assert_eq!(queue.pop(), None);
    prop_assert_eq!(peek_then_pop(&mut peeked)?, None);
    prop_assert!(queue.is_empty());
    Ok(())
}

/// The queue, two FIFO lanes beside it, and the heap oracle that takes
/// every event through plain `push`.
struct Laned {
    queue: EventQueue<u64>,
    /// The queue's twin, peeked before every pop.
    peeked: EventQueue<u64>,
    oracle: HeapEventQueue<u64>,
    /// Last time pushed to each lane.
    lane_last: [f64; 2],
    next_id: u64,
}

impl Laned {
    fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            peeked: EventQueue::new(),
            oracle: HeapEventQueue::new(),
            lane_last: [0.0; 2],
            next_id: 0,
        }
    }

    /// Pushes one event `dt` quanta past `now` (on a lane: past the later
    /// of `now` and the lane's last time, so the lane stays in order).
    fn push(&mut self, lane: Option<usize>, dt: u64, quantum: f64) -> Result<(), TestCaseError> {
        let id = self.next_id;
        self.next_id += 1;
        match lane {
            None => {
                let at = self.queue.now() + dt as f64 * quantum;
                self.queue.push(at, id);
                self.peeked.push(at, id);
                self.oracle.push(at, id);
            }
            Some(l) => {
                let at = self.lane_last[l].max(self.queue.now()) + dt as f64 * quantum;
                self.lane_last[l] = at;
                self.queue.push_fifo(l, at, id);
                self.peeked.push_fifo(l, at, id);
                self.oracle.push(at, id);
            }
        }
        self.check()
    }

    fn pop(&mut self) -> Result<(), TestCaseError> {
        let popped = self.queue.pop();
        prop_assert_eq!(popped, self.oracle.pop());
        prop_assert_eq!(peek_then_pop(&mut self.peeked)?, popped);
        prop_assert_eq!(self.queue.now(), self.oracle.now());
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.queue.len(), self.oracle.len());
        prop_assert_eq!(self.queue.is_empty(), self.oracle.len() == 0);
        prop_assert_eq!(self.queue.peek_time(), self.oracle.peek_time());
        twins_agree(&self.queue, &self.peeked)
    }

    fn drain(mut self) -> Result<(), TestCaseError> {
        while self.oracle.len() > 0 {
            self.pop()?;
        }
        prop_assert_eq!(self.queue.pop(), None);
        prop_assert_eq!(peek_then_pop(&mut self.peeked)?, None);
        Ok(())
    }
}

/// Drives [`Laned`] through one interleaving. Each op is `(kind, dt)`:
/// `kind < 2` pushes to the heap, `kind` 2 or 3 to lane `kind - 2`,
/// `kind == 4` is a storm of `32 * (dt + 1)` pushes round-robin over
/// the heap and both lanes, anything else pops.
fn run_laned(ops: &[(u8, u64)], quantum: f64) -> Result<(), TestCaseError> {
    let mut q = Laned::new();
    for &(kind, dt) in ops {
        match kind {
            0 | 1 => q.push(None, dt, quantum)?,
            2 | 3 => q.push(Some(usize::from(kind - 2)), dt, quantum)?,
            4 => {
                for i in 0..32 * (dt + 1) {
                    let lane = [None, Some(0), Some(1)][(i % 3) as usize];
                    q.push(lane, i % 2, quantum)?;
                }
            }
            _ => q.pop()?,
        }
    }
    q.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_interleavings_match_the_heap(ops in proptest::collection::vec((0u8..8, 0u64..6), 0..300)) {
        run_laned(&ops, 0.25)?;
    }

    #[test]
    fn tie_heavy_lane_interleavings_match_the_heap(ops in proptest::collection::vec((0u8..8, 0u64..2), 0..300)) {
        // Most lane and heap events collide on one timestamp, so the
        // shared `seq` carries the whole order.
        run_laned(&ops, 1e-6)?;
    }

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
    fn push_storms_then_full_drains_match(sizes in (1usize..400, 1u64..26)) {
        let (n, spread) = sizes;
        let mut queue = EventQueue::new();
        let mut peeked = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        for i in 0..n as u64 {
            // Up to 25 decades from 1e-12, three distinct times in each,
            // shared by many events: the packed keys must order times
            // many binades apart exactly as the oracle's floats do.
            let decade = ((i / 3) % spread) as i32 - 12;
            let at = (1.0 + (i % 3) as f64 * 0.25) * 10f64.powi(decade);
            queue.push(at, i);
            peeked.push(at, i);
            oracle.push(at, i);
        }
        while let Some(expect) = oracle.pop() {
            prop_assert_eq!(queue.pop(), Some(expect));
            prop_assert_eq!(peek_then_pop(&mut peeked)?, Some(expect));
            twins_agree(&queue, &peeked)?;
        }
        prop_assert_eq!(queue.pop(), None);
        prop_assert_eq!(peek_then_pop(&mut peeked)?, None);
    }
}

#[test]
fn identical_times_pop_in_insertion_order_across_rebuilds() {
    // 5k ties at one timestamp: the sequence half of the key alone
    // carries the order through the heap's sifts.
    let mut q = EventQueue::new();
    for i in 0..5000u64 {
        q.push(1.0, i);
    }
    for i in 0..5000u64 {
        assert_eq!(q.pop(), Some((1.0, i)));
    }
    assert!(q.is_empty());
}
