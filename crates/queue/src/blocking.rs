//! Thread-safe blocking queue variants: one consumer waits inside the
//! queue, under its lock, for what other threads put in.
//!
//! No runtime uses these any more — a worker on either real runtime owns
//! a plain [`TaggedQueue`] inbox and token counts, and its transport only
//! fills them. They remain for the perf ledger's hand-off probe, which
//! times one round trip through each.
//!
//! Both wrap the logical queues with a mutex + condvar (see
//! [`crate::sync_shim`]), and every blocking operation takes a timeout so
//! a deadlock shows up as an error instead of a hang. Wake-ups are
//! targeted. A blocked consumer leaves its request — `(m, filter)`, or
//! the token count it wants — in the guarded state, and a producer
//! notifies only when its arrival completes a registered request, after
//! it has released the lock. No wake-up is lost: a request is registered
//! under the lock the producer checks it under, and a consumer only
//! sleeps through `Condvar::wait`, which gives that lock up atomically.

use crate::sync_shim::{Condvar, Mutex};
use crate::tagged::{Tag, TagFilter, TaggedEntry, TaggedQueue};
use std::fmt;
use std::time::{Duration, Instant};

/// Error returned when a blocking operation times out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutError;

impl fmt::Display for WaitTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blocking queue operation timed out")
    }
}

impl std::error::Error for WaitTimeoutError {}

/// A blocking tagged queue, shared by reference between the threads
/// that fill it and the one that waits on it.
///
/// # Examples
///
/// ```
/// use hop_queue::blocking::SharedTaggedQueue;
/// use hop_queue::{Tag, tagged::TagFilter};
/// use std::time::Duration;
///
/// let q = SharedTaggedQueue::new();
/// std::thread::scope(|scope| {
///     scope.spawn(|| q.enqueue(7u32, Tag { iter: 0, w_id: 1 }));
///     let got = q.dequeue(1, TagFilter::iter(0), Duration::from_secs(5)).unwrap();
///     assert_eq!(got[0].value, 7);
/// });
/// ```
#[derive(Debug)]
pub struct SharedTaggedQueue<T> {
    inbox: Mutex<Inbox<T>>,
    arrived: Condvar,
}

/// What a [`SharedTaggedQueue`]'s mutex guards.
#[derive(Debug)]
struct Inbox<T> {
    queue: TaggedQueue<T>,
    /// The requests of the consumers blocked in `dequeue` right now.
    blocked: Vec<(usize, TagFilter)>,
}

impl<T> Default for SharedTaggedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedTaggedQueue<T> {
    /// Creates an empty unbounded shared queue.
    pub fn new() -> Self {
        let inbox = Inbox {
            queue: TaggedQueue::unbounded(),
            blocked: Vec::new(),
        };
        Self {
            inbox: Mutex::new(inbox),
            arrived: Condvar::new(),
        }
    }

    /// Enqueues an update and wakes the waiters if it completes a blocked
    /// `dequeue`'s request.
    pub fn enqueue(&self, value: T, tag: Tag) {
        let completes = {
            let mut inbox = self.inbox.lock();
            inbox
                .queue
                .enqueue(value, tag)
                .expect("unbounded queue never overflows");
            let Inbox { queue, blocked } = &*inbox;
            blocked
                .iter()
                .any(|&(m, filter)| filter.matches(tag) && queue.size(filter) >= m)
        };
        if completes {
            self.arrived.notify_all();
        }
    }

    /// Blocking `dequeue(m, filter)`: waits until `m` matching entries are
    /// present, removes and returns them.
    ///
    /// # Errors
    ///
    /// Returns [`WaitTimeoutError`] if the deadline expires first; nothing
    /// is removed in that case.
    pub fn dequeue(
        &self,
        m: usize,
        filter: TagFilter,
        timeout: Duration,
    ) -> Result<Vec<TaggedEntry<T>>, WaitTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock();
        if let Some(entries) = inbox.queue.try_dequeue(m, filter) {
            return Ok(entries);
        }
        inbox.blocked.push((m, filter));
        let outcome = loop {
            if self.arrived.wait_until(&mut inbox, deadline).timed_out() {
                break Err(WaitTimeoutError);
            }
            if let Some(entries) = inbox.queue.try_dequeue(m, filter) {
                break Ok(entries);
            }
        };
        // Equal requests are interchangeable: withdraw any one of them.
        let mine = inbox.blocked.iter().position(|&r| r == (m, filter));
        inbox.blocked.swap_remove(mine.expect("registered above"));
        outcome
    }
}

/// A blocking token queue (§4.2), shared by reference like
/// [`SharedTaggedQueue`].
#[derive(Debug)]
pub struct SharedTokenQueue {
    tokens: Mutex<Tokens>,
    inserted: Condvar,
}

/// What a [`SharedTokenQueue`]'s mutex guards.
#[derive(Debug)]
struct Tokens {
    available: u64,
    /// How many tokens each consumer blocked in `remove` is waiting for.
    blocked: Vec<u64>,
}

impl SharedTokenQueue {
    /// Creates a queue pre-loaded with `max_ig` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `max_ig == 0`.
    pub fn new(max_ig: u64) -> Self {
        assert!(max_ig > 0, "max_ig must be positive");
        let tokens = Tokens {
            available: max_ig,
            blocked: Vec::new(),
        };
        Self {
            tokens: Mutex::new(tokens),
            inserted: Condvar::new(),
        }
    }

    /// Inserts `k` tokens and wakes the waiters if a blocked `remove` can
    /// now be served.
    pub fn insert(&self, k: u64) {
        let completes = {
            let mut tokens = self.tokens.lock();
            tokens.available += k;
            tokens.blocked.iter().any(|&want| want <= tokens.available)
        };
        if completes {
            self.inserted.notify_all();
        }
    }

    /// Blocks until `k` tokens can be removed, then removes them.
    ///
    /// # Errors
    ///
    /// Returns [`WaitTimeoutError`] on deadline expiry (nothing removed).
    pub fn remove(&self, k: u64, timeout: Duration) -> Result<(), WaitTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut tokens = self.tokens.lock();
        if tokens.available >= k {
            tokens.available -= k;
            return Ok(());
        }
        tokens.blocked.push(k);
        let outcome = loop {
            if self.inserted.wait_until(&mut tokens, deadline).timed_out() {
                break Err(WaitTimeoutError);
            }
            if tokens.available >= k {
                tokens.available -= k;
                break Ok(());
            }
        };
        let mine = tokens.blocked.iter().position(|&want| want == k);
        tokens.blocked.swap_remove(mine.expect("registered above"));
        outcome
    }

    /// Non-blocking removal; returns whether it succeeded.
    pub fn try_remove(&self, k: u64) -> bool {
        let mut tokens = self.tokens.lock();
        let enough = tokens.available >= k;
        if enough {
            tokens.available -= k;
        }
        enough
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    fn tag(iter: u64, w_id: usize) -> Tag {
        Tag { iter, w_id }
    }

    fn queued<T>(q: &SharedTaggedQueue<T>) -> usize {
        q.inbox.lock().queue.len()
    }

    fn blocked<T>(q: &SharedTaggedQueue<T>) -> usize {
        q.inbox.lock().blocked.len()
    }

    fn available(t: &SharedTokenQueue) -> u64 {
        t.tokens.lock().available
    }

    #[test]
    fn dequeue_blocks_until_enough() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        thread::scope(|scope| {
            scope.spawn(|| {
                thread::sleep(Duration::from_millis(20));
                q.enqueue(1, tag(0, 0));
                thread::sleep(Duration::from_millis(20));
                q.enqueue(2, tag(0, 1));
            });
            let got = q
                .dequeue(2, TagFilter::iter(0), Duration::from_secs(5))
                .unwrap();
            assert_eq!(got.len(), 2);
        });
    }

    #[test]
    fn dequeue_times_out_cleanly() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        q.enqueue(1, tag(0, 0));
        let err = q
            .dequeue(2, TagFilter::iter(0), Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, WaitTimeoutError);
        // Timed-out dequeue removed nothing.
        assert_eq!(queued(&q), 1);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q: SharedTaggedQueue<usize> = SharedTaggedQueue::new();
        thread::scope(|scope| {
            for w in 0..8 {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..10 {
                        q.enqueue(w * 100 + i, tag(i as u64, w));
                    }
                });
            }
        });
        for i in 0..10u64 {
            let got = q
                .dequeue(8, TagFilter::iter(i), Duration::from_secs(5))
                .unwrap();
            assert_eq!(got.len(), 8);
        }
        assert_eq!(queued(&q), 0);
    }

    /// Spins until `n` requests are registered, i.e. `n` consumers are
    /// (about to be) asleep in `dequeue` — they register and wait under
    /// one lock hold.
    fn await_blocked<T>(q: &SharedTaggedQueue<T>, n: usize) {
        while blocked(q) != n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_quota_dequeue_never_loses_its_wake_up() {
        // Four producers race one consumer that wants all four updates of
        // the round; a barrier releases the five together, so over the
        // rounds the consumer is sometimes asleep before the first
        // arrival, sometimes between two, sometimes not at all. Only the
        // arrival that fills the quota notifies: a lost wake-up would
        // surface as the timeout.
        const PRODUCERS: usize = 4;
        const ROUNDS: u64 = 500;
        let q: SharedTaggedQueue<usize> = SharedTaggedQueue::new();
        let start = Barrier::new(PRODUCERS + 1);
        thread::scope(|scope| {
            for w in 0..PRODUCERS {
                let (q, start) = (&q, &start);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        start.wait();
                        q.enqueue(w, tag(round, w));
                    }
                });
            }
            for round in 0..ROUNDS {
                start.wait();
                let got = q
                    .dequeue(PRODUCERS, TagFilter::iter(round), Duration::from_secs(10))
                    .expect("the quota was filled but the consumer slept on");
                assert_eq!(got.len(), PRODUCERS);
            }
        });
        assert_eq!(queued(&q), 0);
        assert_eq!(blocked(&q), 0);
    }

    #[test]
    fn a_dequeue_withdraws_its_request_however_it_ends() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        q.enqueue(1, tag(0, 0));
        assert!(q
            .dequeue(2, TagFilter::iter(0), Duration::from_millis(20))
            .is_err());
        assert_eq!(blocked(&q), 0, "timed out");
        thread::scope(|scope| {
            let consumer =
                scope.spawn(|| q.dequeue(2, TagFilter::iter(0), Duration::from_secs(10)));
            await_blocked(&q, 1);
            q.enqueue(2, tag(0, 1));
            assert_eq!(consumer.join().unwrap().unwrap().len(), 2);
        });
        assert_eq!(blocked(&q), 0, "served");
    }

    #[test]
    fn an_unfiltered_dequeue_wakes_on_any_arrival() {
        // A staleness-style wait: `dequeue(1, any())` takes whatever comes.
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        thread::scope(|scope| {
            let consumer = scope.spawn(|| q.dequeue(1, TagFilter::any(), Duration::from_secs(10)));
            await_blocked(&q, 1);
            q.enqueue(9, tag(17, 3));
            let got = consumer.join().unwrap().unwrap();
            assert_eq!((got[0].value, got[0].tag), (9, tag(17, 3)));
        });
    }

    #[test]
    fn token_remove_wakes_when_enough_and_withdraws_its_request() {
        let t = SharedTokenQueue::new(1);
        assert!(t.remove(3, Duration::from_millis(20)).is_err());
        assert!(t.tokens.lock().blocked.is_empty(), "timed out");
        thread::scope(|scope| {
            let waiter = scope.spawn(|| t.remove(3, Duration::from_secs(10)));
            while t.tokens.lock().blocked.is_empty() {
                thread::yield_now();
            }
            t.insert(1); // 2 < 3: no one to wake
            t.insert(1);
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(available(&t), 0);
        assert!(t.tokens.lock().blocked.is_empty(), "served");
    }

    #[test]
    fn token_queue_blocks_and_resumes() {
        let t = SharedTokenQueue::new(1);
        assert!(t.try_remove(1));
        assert!(!t.try_remove(1));
        thread::scope(|scope| {
            let waiter = scope.spawn(|| t.remove(1, Duration::from_secs(5)));
            thread::sleep(Duration::from_millis(20));
            t.insert(1);
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(available(&t), 0);
    }

    #[test]
    fn token_timeout_removes_nothing() {
        let t = SharedTokenQueue::new(2);
        assert!(t.remove(5, Duration::from_millis(30)).is_err());
        assert_eq!(available(&t), 2);
    }
}
