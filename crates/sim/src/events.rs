//! A deterministic event queue over a virtual clock.
//!
//! [`EventQueue`] is a calendar queue (Brown 1988): pending events hash
//! into an array of time buckets by an integer *tick* (`time / width`),
//! and a pop scans forward from the current tick instead of sifting a
//! heap. With a well-estimated bucket width both operations are O(1)
//! amortized — the property that lets the simulation pump scale to
//! 10k+ workers — versus the O(log n) of the binary heap it replaced.
//!
//! # Determinism
//!
//! The pop order is *exactly* the heap's order: earliest time first,
//! FIFO (insertion sequence) on ties. The calendar structure cannot
//! perturb it because ordering decisions never consult bucket geometry:
//!
//! * the tick is a monotone function of time (`(time * inv_width) as
//!   u64` — multiplication by a positive constant and the saturating
//!   float-to-int cast are both monotone), so an event at a strictly
//!   smaller tick has a strictly smaller time;
//! * the scan visits ticks in increasing order and, within a tick,
//!   selects the minimum `(time, seq)` pair — equal times always share
//!   a tick, so FIFO ties are resolved by `seq` exactly as the heap
//!   resolved them;
//! * bucket width and bucket count are re-estimated only between pops
//!   (rebuilds), and a rebuild permutes storage, never the `(time,
//!   seq)` selection order.
//!
//! FIFO lanes ([`EventQueue::push_fifo`]) keep that order too. A lane
//! holds events its driver produces already in time order (a message
//! class with one fixed latency), so it is a plain `VecDeque` whose head
//! is its minimum. Lane pushes draw from the calendar's `seq` counter,
//! and a pop takes the minimum `(time, seq)` over the calendar's top and
//! every lane head: the stream is the one the calendar alone would give
//! had every event gone through [`push`](EventQueue::push).
//!
//! # Memory
//!
//! Reserved capacity ([`EventQueue::reserved`]) is O(pending events),
//! plus a spare of at most 64 entries per bucket, and does not depend on
//! the number of ticks the clock crosses. Without care it would: a
//! bucket is reused only a full rotation later, and a run that never
//! rebuilds (a table pre-sized by
//! [`with_capacity`](EventQueue::with_capacity), a steady population)
//! would keep every tick's tie burst — thousands of workers finishing at
//! one instant — in a buffer of its own until the run ends. So the pop
//! that drains a bucket releases its buffer unless it holds at most 64
//! entries. Lanes keep their buffers: there is one per latency class,
//! each bounded by its own peak occupancy.
//!
//! `hop_sim`'s differential suite (`tests/queue_differential.rs`) drives
//! this queue and the retained heap (`tests/support/heap_queue.rs`)
//! through random push/lane-push/pop interleavings with heavy same-time
//! ties and asserts identical output streams. It also holds
//! [`EventQueue::peek`] to its contract: a peek before every pop names
//! the popped payload, and a queue peeked before every pop pops the
//! stream, and rebuilds on the schedule, of one never peeked.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual time in seconds.
pub type SimTime = f64;

/// Smallest bucket count; also the table size of [`EventQueue::new`].
const MIN_BUCKETS: usize = 16;

/// Largest bucket count a constructor pre-allocates (rebuilds may grow
/// past it if the pending population really is that large).
const MAX_INITIAL_BUCKETS: usize = 1 << 16;

/// Consecutive full-rotation scan misses tolerated before the queue
/// re-estimates its bucket width (the pending events' time span has
/// drifted away from the estimate the table was built with).
const MAX_FALLBACKS: u32 = 8;

/// Entry capacity a drained bucket may keep; a larger buffer (a tie
/// burst's) is released when its last entry pops.
const KEEP_DRAINED: usize = 64;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// `time / width` quantized at insert/rebuild time; the bucket index
    /// is `tick & mask`, and a scan matches on the exact tick so events
    /// a full rotation ahead are never popped early.
    tick: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Inverted so each bucket's `BinaryHeap` (a max-heap) pops its
        // minimum `(time, seq)` entry first. Because the tick is a
        // monotone function of time, the top of a bucket also carries
        // the bucket's minimal tick — which is what lets `pop` decide
        // bucket membership for the scanned tick from `peek()` alone.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Calendar queue of timestamped events with deterministic FIFO
/// tie-breaking.
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
    /// Power-of-two bucket table; an entry lives in `tick & mask`. Each
    /// bucket is a min-heap on `(time, seq)`, so the heavy same-time
    /// ties a synchronized cluster produces (10k workers finishing the
    /// same iteration at the same virtual instant land in one bucket)
    /// cost O(log ties) per operation instead of a linear bucket scan.
    buckets: Vec<BinaryHeap<Entry<E>>>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// Bucket width in seconds.
    width: f64,
    /// `1.0 / width`, the quantization factor of `tick_of`.
    inv_width: f64,
    /// The scan cursor: no pending entry has a tick below it.
    cur_tick: u64,
    /// Pending event count in the calendar (lanes excluded).
    len: usize,
    /// FIFO lanes, indexed by the `lane` of [`push_fifo`](Self::push_fifo):
    /// `(time, seq, payload)` with non-decreasing times.
    lanes: Vec<VecDeque<(SimTime, u64, E)>>,
    /// Full-rotation scan misses since the last rebuild.
    fallbacks: u32,
    /// Rebuild watermark reported by [`capacity`](Self::capacity).
    cap: usize,
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

    /// Creates an empty queue at time 0 sized for `capacity` pending
    /// events, so pushes up to that watermark never trigger a bucket
    /// table rebuild. Simulation drivers size this from the number of
    /// workers and the protocol fan-out (pending events, not total
    /// events: the queue holds only in-flight work).
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = (capacity / 2)
            .clamp(MIN_BUCKETS, MAX_INITIAL_BUCKETS)
            .next_power_of_two();
        let mut buckets = Vec::new();
        buckets.resize_with(nbuckets, BinaryHeap::new);
        Self {
            buckets,
            mask: (nbuckets - 1) as u64,
            // 1 ms buckets suit the simulated compute/transfer times;
            // the first rebuild re-estimates from the live population.
            width: 1e-3,
            inv_width: 1e3,
            cur_tick: 0,
            len: 0,
            lanes: Vec::new(),
            fallbacks: 0,
            cap: capacity.max(nbuckets * 2),
            seq: 0,
            now: 0.0,
        }
    }

    /// Number of pending events the queue accommodates before it next
    /// rebuilds (grows) its bucket table. Pushes within this watermark
    /// reorganize nothing, and lane pushes never count against it.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries' worth of storage the bucket heaps and the lanes hold:
    /// pending events plus the spare capacity kept for reuse. Bounded by
    /// the pending population and the table size, never by the number of
    /// ticks the clock has crossed (see the module docs).
    pub fn reserved(&self) -> usize {
        let buckets: usize = self.buckets.iter().map(BinaryHeap::capacity).sum();
        buckets + self.lanes.iter().map(VecDeque::capacity).sum::<usize>()
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events, lanes included.
    pub fn len(&self) -> usize {
        self.len + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.lanes.iter().all(VecDeque::is_empty)
    }

    fn tick_of(&self, time: SimTime) -> u64 {
        // Saturating cast: monotone in `time`, so bucket order can never
        // disagree with time order.
        (time * self.inv_width) as u64
    }

    fn check_time(&self, time: SimTime) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current virtual time
    /// (see the type-level contract).
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.check_time(time);
        if self.len + 1 > 2 * self.buckets.len() {
            self.rebuild(self.len + 1);
        }
        let tick = self.tick_of(time);
        if self.len == 0 || tick < self.cur_tick {
            self.cur_tick = tick;
        }
        let entry = Entry {
            time,
            seq: self.seq,
            tick,
            payload,
        };
        self.seq += 1;
        self.len += 1;
        self.buckets[(tick & self.mask) as usize].push(entry);
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
        self.check_time(time);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let queue = &mut self.lanes[lane];
        if let Some(&(last, ..)) = queue.back() {
            assert!(time >= last, "lane {lane} out of order: {time} < {last}");
        }
        queue.push_back((time, self.seq, payload));
        self.seq += 1;
    }

    /// Lane whose head has the minimum `(time, seq)` over all lane heads,
    /// with that key.
    fn lane_min(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (l, lane) in self.lanes.iter().enumerate() {
            let Some(&(time, seq, _)) = lane.front() else {
                continue;
            };
            if best.is_none_or(|(_, key)| (time, seq) < key) {
                best = Some((l, (time, seq)));
            }
        }
        best
    }

    /// Pops the earliest event (FIFO on ties), advancing the virtual
    /// clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane = self.lane_min();
        let Some(b) = self.calendar_min() else {
            let (l, _) = lane?;
            return Some(self.take_lane(l));
        };
        let top = self.buckets[b].peek().expect("chosen bucket non-empty");
        let popped = match lane {
            Some((l, key)) if key < (top.time, top.seq) => self.take_lane(l),
            _ => self.take(b),
        };
        if self.fallbacks >= MAX_FALLBACKS {
            self.rebuild(self.len.max(1));
        }
        Some(popped)
    }

    /// Pops the head of lane `l`, advancing the clock.
    fn take_lane(&mut self, l: usize) -> (SimTime, E) {
        let (time, _, payload) = self.lanes[l].pop_front().expect("caller checked non-empty");
        self.now = time;
        (time, payload)
    }

    /// Bucket holding the calendar's minimum `(time, seq)` entry, with
    /// the scan cursor moved to its tick.
    fn calendar_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if let Some((b, tick)) = self.scan() {
            self.cur_tick = tick;
            return Some(b);
        }
        // A full rotation came up empty: the next event is more than
        // `nbuckets` ticks ahead. Fall back to a global minimum scan;
        // `pop` re-estimates the width once this happens persistently.
        self.fallbacks += 1;
        let b = self.global_min().expect("len > 0 guarantees a minimum");
        self.cur_tick = self.buckets[b]
            .peek()
            .expect("chosen bucket non-empty")
            .tick;
        Some(b)
    }

    /// Scans forward one full rotation from the cursor for the bucket
    /// holding the calendar's minimum, with its tick. Matching on the
    /// exact tick (not the bucket) keeps far-future events out of early
    /// pops. Each bucket answers from its heap top alone: the top carries
    /// the bucket's minimal time, hence (monotone quantization) its
    /// minimal tick — if that tick is not the scanned one, nothing in the
    /// bucket is.
    fn scan(&self) -> Option<(usize, u64)> {
        let nbuckets = self.buckets.len() as u64;
        (self.cur_tick..self.cur_tick.saturating_add(nbuckets)).find_map(|tick| {
            let b = (tick & self.mask) as usize;
            let top = self.buckets[b].peek()?;
            (top.tick == tick).then_some((b, tick))
        })
    }

    /// The payload the next [`pop`](Self::pop) returns, if no push comes
    /// between them. A simulation's pump reads it to warm the state the
    /// next event will touch. It moves nothing: not the clock, the scan
    /// cursor or the count of scan misses that triggers a rebuild, so the
    /// pops and rebuilds of a peeked queue are those of one never peeked.
    pub fn peek(&self) -> Option<&E> {
        let lane = self.lane_min();
        let bucket = match self.len {
            0 => None,
            _ => (self.scan().map(|(b, _)| b)).or_else(|| self.global_min()),
        };
        let lane_front = |l: usize| self.lanes[l].front().map(|(_, _, payload)| payload);
        let Some(b) = bucket else {
            return lane_front(lane?.0);
        };
        let top = self.buckets[b].peek().expect("chosen bucket non-empty");
        match lane {
            Some((l, key)) if key < (top.time, top.seq) => lane_front(l),
            _ => Some(&top.payload),
        }
    }

    /// Time of the next event without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        let calendar = self.global_min().map(|b| {
            self.buckets[b]
                .peek()
                .expect("chosen bucket non-empty")
                .time
        });
        let lane = self.lane_min().map(|(_, (time, _))| time);
        calendar.into_iter().chain(lane).reduce(f64::min)
    }

    /// Bucket holding the global minimum `(time, seq)` entry (at its
    /// heap top, by the bucket ordering invariant).
    fn global_min(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            let Some(e) = bucket.peek() else { continue };
            let better = match best {
                None => true,
                Some(bb) => {
                    let cur = self.buckets[bb].peek().expect("tracked bucket non-empty");
                    (e.time, e.seq) < (cur.time, cur.seq)
                }
            };
            if better {
                best = Some(b);
            }
        }
        best
    }

    /// Pops the top of bucket `b`, advancing the clock.
    fn take(&mut self, b: usize) -> (SimTime, E) {
        let bucket = &mut self.buckets[b];
        let entry = bucket.pop().expect("caller checked non-empty");
        // A drained tie burst gives its buffer back (the module docs'
        // memory contract); small buffers stay, so ticks of one or two
        // events do not allocate on every push.
        if bucket.is_empty() && bucket.capacity() > KEEP_DRAINED {
            *bucket = BinaryHeap::new();
        }
        self.len -= 1;
        self.now = entry.time;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.len.max(1));
        }
        (entry.time, entry.payload)
    }

    /// Rebuilds the bucket table for `target` pending events,
    /// re-estimating the bucket width from the live population's time
    /// span. Ordering is unaffected: ticks are recomputed with the same
    /// monotone quantization, and selection stays `(time, seq)`.
    fn rebuild(&mut self, target: usize) {
        let nbuckets = target
            .clamp(MIN_BUCKETS, usize::MAX / 2 + 1)
            .next_power_of_two();
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(std::mem::take(bucket));
        }
        if entries.len() >= 2 {
            let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &entries {
                min_t = min_t.min(e.time);
                max_t = max_t.max(e.time);
            }
            if max_t > min_t {
                // Twice the mean inter-event gap: a pop's scan advances
                // ~half a tick per event on average.
                self.width = ((max_t - min_t) * 2.0 / entries.len() as f64).max(1e-12);
                self.inv_width = self.width.recip();
            }
        }
        self.buckets = Vec::new();
        self.buckets.resize_with(nbuckets, BinaryHeap::new);
        self.mask = (nbuckets - 1) as u64;
        self.cap = nbuckets * 2;
        self.fallbacks = 0;
        self.cur_tick = self.tick_of(self.now);
        for mut e in entries {
            e.tick = self.tick_of(e.time);
            self.cur_tick = self.cur_tick.min(e.tick);
            self.buckets[(e.tick & self.mask) as usize].push(e);
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("buckets", &self.buckets.len())
            .field("width", &self.width)
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
    fn with_capacity_pre_sizes_the_heap() {
        let mut q = EventQueue::with_capacity(32);
        let cap = q.capacity();
        assert!(cap >= 32);
        for i in 0..32 {
            q.push(i as f64, i);
        }
        assert_eq!(q.capacity(), cap, "pushes within capacity reallocated");
        // Pre-sizing changes no behavior: pops still come in time order.
        assert_eq!(q.pop(), Some((0.0, 0)));
    }

    #[test]
    fn peek_names_the_next_pop_across_lanes_and_the_fallback() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(1.0, 1);
        q.push_fifo(0, 0.5, 0);
        q.push(1.0, 2);
        q.push(1e6, 3); // beyond a rotation: found by the global scan
        q.push_fifo(0, 1.0, 4);
        for expect in [0, 1, 2, 4, 3] {
            assert_eq!(q.peek(), Some(&expect));
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
    fn grows_and_shrinks_without_losing_order() {
        // Push enough to force several grow rebuilds, drain to force
        // shrink rebuilds; order stays exact throughout.
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            // Clustered times with heavy ties.
            q.push((i % 13) as f64 * 0.5, i);
        }
        let mut last = (f64::NEG_INFINITY, 0u64);
        for _ in 0..1000 {
            let (t, i) = q.pop().unwrap();
            assert!(
                t > last.0 || (t == last.0 && i > last.1),
                "order violated: {last:?} then ({t}, {i})"
            );
            last = (t, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_via_fallback() {
        let mut q = EventQueue::new();
        q.push(0.0, 0);
        // Far enough ahead that its tick is beyond one full rotation.
        q.push(1e6, 1);
        assert_eq!(q.pop(), Some((0.0, 0)));
        assert_eq!(q.pop(), Some((1e6, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drained_tie_bursts_release_their_buffers() {
        // The 10k-worker pump's shape: a table pre-sized so nothing
        // rebuilds, a steady pending population (here far in the future),
        // and a burst of tied events at each consecutive 1 ms tick,
        // drained before the next.
        const TICKS: u32 = 1_000;
        const BURST: u32 = 2_000;
        let mut q = EventQueue::with_capacity(640_000);
        let mut oracle = HeapEventQueue::new();
        let mut id = 0u64;
        let mut push = |q: &mut EventQueue<u64>, oracle: &mut HeapEventQueue<u64>, at| {
            q.push(at, id);
            oracle.push(at, id);
            id += 1;
        };
        for _ in 0..10_000 {
            push(&mut q, &mut oracle, 1e3);
        }
        let mut after_first = 0;
        for tick in 1..=TICKS {
            for _ in 0..BURST {
                push(&mut q, &mut oracle, f64::from(tick) * 1e-3);
            }
            for _ in 0..BURST {
                assert_eq!(q.pop(), oracle.pop());
            }
            if tick == 1 {
                after_first = q.reserved();
            }
        }
        assert_eq!(
            q.reserved(),
            after_first,
            "reserved capacity grew with the {TICKS} ticks crossed"
        );
        while let Some(expect) = oracle.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.is_empty());
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
