//! The original `BinaryHeap`-backed event queue, kept as the
//! differential-testing oracle for `EventQueue`: same API, same
//! deterministic order (earliest time first, FIFO on ties), but it
//! compares `(time, seq)` as a float and an integer where `EventQueue`
//! compares one packed integer key, and it has no FIFO lanes.
//!
//! Test support only, included with `#[path]` by `src/events.rs`'s unit
//! tests and by `tests/queue_differential.rs`.

// Each includer uses a different subset of the API.
#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // breaking ties by insertion order for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A plain `(time, seq)` heap scheduler: the order `EventQueue` must match.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seq: u64,
    now: f64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` at absolute time `time` (same contract as
    /// `EventQueue::push`).
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Time of the next event without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}
