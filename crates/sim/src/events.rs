//! A deterministic event queue over a virtual clock.
//!
//! [`EventQueue`] pops the earliest event first and breaks ties in
//! insertion order. It is one binary heap beside a few FIFO lanes.
//!
//! # Order
//!
//! Every event carries one `u128` key: the IEEE bits of its time in the
//! high half, its insertion sequence number in the low half. Event times
//! are never negative (a push may not precede the clock, which starts at
//! 0), and non-negative floats order like their bits, so comparing keys
//! as integers is comparing `(time, seq)`. The one non-negative float
//! whose bits break that rule is `-0.0`, so the key is built from
//! `time + 0.0`: a `-0.0` ties with `0.0`, and pops as `0.0`.
//! `f64::INFINITY` orders after `f64::MAX`; NaN is rejected at push.
//!
//! FIFO lanes ([`EventQueue::push_fifo`]) keep that order too. A lane
//! holds events its driver produces already in time order (a message
//! class with one fixed latency), so it is a plain `VecDeque` whose head
//! is its minimum, and a lane push costs O(1) where a heap push costs
//! O(log n). Lane pushes draw from the heap's `seq` counter, and a pop
//! takes the minimum key over the heap's top and every lane head: the
//! stream is the one the heap alone would give had every event gone
//! through [`push`](EventQueue::push).
//!
//! `hop_sim`'s differential suite (`tests/queue_differential.rs`) drives
//! this queue and a plain `(time, seq)` heap (`tests/support/heap_queue.rs`)
//! through random push/lane-push/pop interleavings with heavy same-time
//! ties and times from 1e-12 to 1e12, and asserts identical output
//! streams. It also holds [`EventQueue::peek`] to its contract: a peek
//! before every pop names the popped payload, and a queue peeked before
//! every pop pops the stream of one never peeked.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual time in seconds.
pub type SimTime = f64;

struct Entry<E> {
    /// `(time + 0.0).to_bits()` over the insertion sequence number.
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn new(time: SimTime, seq: u64, payload: E) -> Self {
        let key = u128::from((time + 0.0).to_bits()) << 64 | u128::from(seq);
        Self { key, payload }
    }

    fn time(&self) -> SimTime {
        SimTime::from_bits((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: `BinaryHeap` is a max-heap, and the smallest key pops
        // first.
        other.key.cmp(&self.key)
    }
}

/// Queue of timestamped events with deterministic FIFO tie-breaking.
///
/// # Contract
///
/// `push` requires a non-NaN time no earlier than [`now`](Self::now)
/// (the time of the last popped event); `push_fifo` also requires it no
/// earlier than the last time pushed to its lane. Both panic otherwise.
///
/// # Examples
///
/// ```
/// use hop_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(1.0, "a");
/// q.push(1.0, "b"); // same time: FIFO order preserved
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// q.push_fifo(0, 2.0, "c"); // a lane: same order as `push`
/// q.push(2.0, "d");
/// assert_eq!(q.pop().unwrap().1, "c");
/// assert_eq!(q.pop().unwrap().1, "d");
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// FIFO lanes, indexed by the `lane` of [`push_fifo`](Self::push_fifo),
    /// each in non-decreasing time order.
    lanes: Vec<VecDeque<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue at time 0 whose heap holds `capacity`
    /// pending events before it reallocates. Simulation drivers size this
    /// from the number of workers and the protocol fan-out (pending
    /// events, not total events: the queue holds only in-flight work).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            lanes: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events, lanes included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Checks the contract and draws the next sequence number.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.seq += 1;
        Entry::new(time, self.seq - 1, payload)
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current virtual time
    /// (see the type-level contract).
    pub fn push(&mut self, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// Schedules `payload` at absolute time `time` on FIFO lane `lane`:
    /// an O(1) append that pops exactly where [`push`](Self::push) would
    /// have put it. For events a driver produces in time order, such as
    /// messages of one fixed latency sent as the clock advances.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN, earlier than the current virtual time, or
    /// earlier than the last time pushed to `lane`.
    pub fn push_fifo(&mut self, lane: usize, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let queue = &mut self.lanes[lane];
        if let Some(last) = queue.back().map(Entry::time) {
            assert!(time >= last, "lane {lane} out of order: {time} < {last}");
        }
        queue.push_back(entry);
    }

    /// The lane whose head pops next, or `None` if the next pop (if any)
    /// comes from the heap.
    fn next_lane(&self) -> Option<usize> {
        let (lane, key) = (self.lanes.iter().enumerate())
            .filter_map(|(l, queue)| Some((l, queue.front()?.key)))
            .min_by_key(|&(_, key)| key)?;
        let top = self.heap.peek().map(|e| e.key);
        top.is_none_or(|top| key < top).then_some(lane)
    }

    /// The entry the next [`pop`](Self::pop) returns.
    fn head(&self) -> Option<&Entry<E>> {
        match self.next_lane() {
            Some(l) => self.lanes[l].front(),
            None => self.heap.peek(),
        }
    }

    /// Pops the earliest event (FIFO on ties), advancing the virtual
    /// clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.next_lane() {
            Some(l) => self.lanes[l].pop_front(),
            None => self.heap.pop(),
        }?;
        self.now = entry.time();
        Some((self.now, entry.payload))
    }

    /// The payload the next [`pop`](Self::pop) returns, if no push comes
    /// between them. A simulation's pump reads it to warm the state the
    /// next event will touch. It moves nothing, so the pops of a peeked
    /// queue are those of one never peeked.
    pub fn peek(&self) -> Option<&E> {
        self.head().map(|e| &e.payload)
    }

    /// Time of the next event without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(Entry::time)
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// The unit tests' heap oracle, shared with `tests/queue_differential.rs`.
#[cfg(test)]
#[path = "../tests/support/heap_queue.rs"]
mod heap_queue;

#[cfg(test)]
mod tests {
    use super::heap_queue::HeapEventQueue;
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 3);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(2.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(2.0, ());
        q.pop();
        q.push(1.0, ());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn rejects_nan_times_at_push() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn oracle_rejects_past_events() {
        let mut q = HeapEventQueue::new();
        q.push(2.0, ());
        q.pop();
        q.push(1.0, ());
    }

    #[test]
    #[should_panic(expected = "lane 0 out of order")]
    fn rejects_lane_pushes_before_the_lane_tail() {
        let mut q = EventQueue::new();
        q.push_fifo(0, 2.0, ());
        q.push_fifo(1, 1.0, ()); // another lane: fine
        q.push_fifo(0, 1.0, ());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_lane_pushes_into_the_past() {
        let mut q = EventQueue::new();
        q.push(2.0, ());
        q.pop();
        q.push_fifo(0, 1.0, ());
    }

    #[test]
    fn lanes_pop_in_calendar_order() {
        let mut q = EventQueue::new();
        q.push_fifo(1, 1.0, 0);
        q.push(1.0, 1);
        q.push_fifo(0, 0.5, 2);
        q.push_fifo(0, 1.0, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(0.5));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(0.5, 2), (1.0, 0), (1.0, 1), (1.0, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_names_the_next_pop_across_lanes_and_the_fallback() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(1.0, 1);
        q.push_fifo(0, 0.5, 0);
        q.push(1.0, 2);
        q.push(1e6, 3); // far ahead of everything else
        q.push_fifo(0, 1.0, 4);
        for expect in [0, 1, 2, 4, 3] {
            assert_eq!(q.peek(), Some(&expect));
            assert_eq!(q.peek(), Some(&expect), "a second peek names it again");
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(4.0, ());
        assert_eq!(q.peek_time(), Some(4.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn negative_zero_ties_with_zero_in_fifo_order() {
        // `-0.0`'s sign bit would sort its raw bits after every positive
        // time; the key treats it as `0.0`.
        let mut q = EventQueue::new();
        q.push(0.0, 0);
        q.push(-0.0, 1);
        q.push_fifo(0, -0.0, 2);
        q.push(0.0, 3);
        q.push(f64::MIN_POSITIVE, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn infinity_pops_after_the_largest_finite_time() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, 0);
        q.push(f64::MAX, 1);
        q.push_fifo(0, f64::INFINITY, 2);
        q.push(f64::INFINITY, 3);
        assert_eq!(q.peek_time(), Some(f64::MAX));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let inf = f64::INFINITY;
        assert_eq!(order, [(f64::MAX, 1), (inf, 0), (inf, 2), (inf, 3)]);
        assert_eq!(q.now(), inf);
    }

    #[test]
    fn interleaved_push_pop_keeps_exact_order() {
        let mut q = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        let mut t = 0.0;
        let mut id = 0u64;
        for round in 0..200 {
            for j in 0..(round % 7 + 1) {
                let at = t + (j % 3) as f64 * 0.25;
                q.push(at, id);
                oracle.push(at, id);
                id += 1;
            }
            for _ in 0..(round % 5) {
                let got = q.pop();
                assert_eq!(got, oracle.pop());
                if let Some((at, _)) = got {
                    t = at;
                }
            }
        }
        while let Some(expect) = oracle.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.is_empty());
    }
}
