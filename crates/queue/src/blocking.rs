//! Thread-safe blocking queue variants for the real multi-threaded runtime.
//!
//! These wrap the logical queues with a mutex + condvar (see
//! [`crate::sync_shim`]) so
//! that a worker thread's `Recv` genuinely blocks until enough matching
//! updates arrive (the paper's blocking `dequeue`), and token acquisition
//! blocks until the out-going neighbor releases tokens. All blocking
//! operations take a timeout so tests can detect deadlocks (e.g. the
//! AD-PSGD non-bipartite deadlock of §5) instead of hanging.
//!
//! Wake-ups are targeted. A blocked consumer leaves its request — `(m,
//! filter)`, or the token count it wants — in the guarded state, and a
//! producer notifies only when its arrival completes a registered
//! request, after it has released the lock. A worker waiting for `quota`
//! updates of iteration `k` is therefore woken once, by the update that
//! fills the quota, not `quota` times to find the mutex still held and
//! its condition false. No wake-up is lost: a request is registered
//! under the lock the producer checks it under, and a consumer only
//! sleeps through `Condvar::wait`, which gives that lock up atomically.

use crate::sync_shim::{Condvar, Mutex};
use crate::tagged::{Tag, TagFilter, TaggedEntry, TaggedQueue};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Error returned when a blocking operation times out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutError;

impl fmt::Display for WaitTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blocking queue operation timed out")
    }
}

impl std::error::Error for WaitTimeoutError {}

/// A shareable blocking tagged queue.
///
/// Cloning shares the underlying queue (like the paper's per-worker update
/// queue being written by many senders).
///
/// # Examples
///
/// ```
/// use hop_queue::blocking::SharedTaggedQueue;
/// use hop_queue::{Tag, tagged::TagFilter};
/// use std::time::Duration;
///
/// let q = SharedTaggedQueue::new();
/// let sender = q.clone();
/// std::thread::spawn(move || {
///     sender.enqueue(7u32, Tag { iter: 0, w_id: 1 });
/// });
/// let got = q.dequeue(1, TagFilter::iter(0), Duration::from_secs(5)).unwrap();
/// assert_eq!(got[0].value, 7);
/// ```
#[derive(Debug)]
pub struct SharedTaggedQueue<T> {
    inner: Arc<(Mutex<Inbox<T>>, Condvar)>,
}

/// What a [`SharedTaggedQueue`]'s mutex guards.
#[derive(Debug)]
struct Inbox<T> {
    queue: TaggedQueue<T>,
    /// The requests of the consumers blocked in `dequeue` right now.
    blocked: Vec<(usize, TagFilter)>,
}

impl<T> Clone for SharedTaggedQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
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
            inner: Arc::new((Mutex::new(inbox), Condvar::new())),
        }
    }

    /// Enqueues an update and wakes the waiters if it completes a blocked
    /// `dequeue`'s request.
    pub fn enqueue(&self, value: T, tag: Tag) {
        let (lock, cvar) = &*self.inner;
        let completes = {
            let mut inbox = lock.lock();
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
            cvar.notify_all();
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
        let (lock, cvar) = &*self.inner;
        let deadline = std::time::Instant::now() + timeout;
        let mut inbox = lock.lock();
        if let Some(entries) = inbox.queue.try_dequeue(m, filter) {
            return Ok(entries);
        }
        inbox.blocked.push((m, filter));
        let outcome = loop {
            if cvar.wait_until(&mut inbox, deadline).timed_out() {
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

    /// Removes up to `m` matching entries without blocking (possibly zero).
    pub fn dequeue_up_to(&self, m: usize, filter: TagFilter) -> Vec<TaggedEntry<T>> {
        let (lock, _) = &*self.inner;
        lock.lock().queue.dequeue_up_to(m, filter)
    }

    /// Non-blocking size query.
    pub fn size(&self, filter: TagFilter) -> usize {
        let (lock, _) = &*self.inner;
        lock.lock().queue.size(filter)
    }

    /// Total entries present.
    pub fn len(&self) -> usize {
        let (lock, _) = &*self.inner;
        lock.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards entries older than `min_iter`, returning the count.
    pub fn discard_older_than(&self, min_iter: u64) -> usize {
        let (lock, _) = &*self.inner;
        lock.lock().queue.discard_older_than(min_iter)
    }

    /// Removes and returns all entries older than `min_iter` (see
    /// [`TaggedQueue::drain_older_than`]).
    pub fn drain_older_than(&self, min_iter: u64) -> Vec<TaggedEntry<T>> {
        let (lock, _) = &*self.inner;
        lock.lock().queue.drain_older_than(min_iter)
    }

    /// Snapshot of the tags currently queued, in FIFO order — stall
    /// diagnostics for the threaded runtime.
    pub fn tags(&self) -> Vec<Tag> {
        let (lock, _) = &*self.inner;
        lock.lock().queue.iter().map(|e| e.tag).collect()
    }
}

/// A shareable blocking token queue (§4.2) for the threaded runtime.
#[derive(Debug)]
pub struct SharedTokenQueue {
    inner: Arc<(Mutex<Tokens>, Condvar)>,
    max_ig: u64,
}

/// What a [`SharedTokenQueue`]'s mutex guards.
#[derive(Debug)]
struct Tokens {
    available: u64,
    /// How many tokens each consumer blocked in `remove` is waiting for.
    blocked: Vec<u64>,
}

impl Clone for SharedTokenQueue {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            max_ig: self.max_ig,
        }
    }
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
            inner: Arc::new((Mutex::new(tokens), Condvar::new())),
            max_ig,
        }
    }

    /// The configured maximum iteration gap.
    pub fn max_ig(&self) -> u64 {
        self.max_ig
    }

    /// Tokens currently available.
    pub fn available(&self) -> u64 {
        self.inner.0.lock().available
    }

    /// Inserts `k` tokens and wakes the waiters if a blocked `remove` can
    /// now be served.
    pub fn insert(&self, k: u64) {
        let (lock, cvar) = &*self.inner;
        let completes = {
            let mut tokens = lock.lock();
            tokens.available += k;
            tokens.blocked.iter().any(|&want| want <= tokens.available)
        };
        if completes {
            cvar.notify_all();
        }
    }

    /// Blocks until `k` tokens can be removed, then removes them.
    ///
    /// # Errors
    ///
    /// Returns [`WaitTimeoutError`] on deadline expiry (nothing removed).
    pub fn remove(&self, k: u64, timeout: Duration) -> Result<(), WaitTimeoutError> {
        let (lock, cvar) = &*self.inner;
        let deadline = std::time::Instant::now() + timeout;
        let mut tokens = lock.lock();
        if tokens.available >= k {
            tokens.available -= k;
            return Ok(());
        }
        tokens.blocked.push(k);
        let outcome = loop {
            if cvar.wait_until(&mut tokens, deadline).timed_out() {
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
        let (lock, _) = &*self.inner;
        let mut tokens = lock.lock();
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
    use std::thread;

    fn tag(iter: u64, w_id: usize) -> Tag {
        Tag { iter, w_id }
    }

    #[test]
    fn dequeue_blocks_until_enough() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        let producer = q.clone();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            producer.enqueue(1, tag(0, 0));
            thread::sleep(Duration::from_millis(20));
            producer.enqueue(2, tag(0, 1));
        });
        let got = q
            .dequeue(2, TagFilter::iter(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(got.len(), 2);
        handle.join().unwrap();
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
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q: SharedTaggedQueue<usize> = SharedTaggedQueue::new();
        let mut handles = Vec::new();
        for w in 0..8 {
            let p = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..10 {
                    p.enqueue(w * 100 + i, tag(i as u64, w));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..10u64 {
            let got = q
                .dequeue(8, TagFilter::iter(i), Duration::from_secs(5))
                .unwrap();
            assert_eq!(got.len(), 8);
        }
        assert!(q.is_empty());
    }

    /// Spins until `n` requests are registered, i.e. `n` consumers are
    /// (about to be) asleep in `dequeue` — they register and wait under
    /// one lock hold.
    fn await_blocked<T>(q: &SharedTaggedQueue<T>, n: usize) {
        while q.inner.0.lock().blocked.len() != n {
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
        let start = Arc::new(std::sync::Barrier::new(PRODUCERS + 1));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|w| {
                let (q, start) = (q.clone(), Arc::clone(&start));
                thread::spawn(move || {
                    for round in 0..ROUNDS {
                        start.wait();
                        q.enqueue(w, tag(round, w));
                    }
                })
            })
            .collect();
        for round in 0..ROUNDS {
            start.wait();
            let got = q
                .dequeue(PRODUCERS, TagFilter::iter(round), Duration::from_secs(10))
                .expect("the quota was filled but the consumer slept on");
            assert_eq!(got.len(), PRODUCERS);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(q.is_empty());
        assert!(q.inner.0.lock().blocked.is_empty());
    }

    #[test]
    fn a_dequeue_withdraws_its_request_however_it_ends() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        q.enqueue(1, tag(0, 0));
        assert!(q
            .dequeue(2, TagFilter::iter(0), Duration::from_millis(20))
            .is_err());
        assert!(q.inner.0.lock().blocked.is_empty(), "timed out");
        let consumer = q.clone();
        let handle =
            thread::spawn(move || consumer.dequeue(2, TagFilter::iter(0), Duration::from_secs(10)));
        await_blocked(&q, 1);
        q.enqueue(2, tag(0, 1));
        assert_eq!(handle.join().unwrap().unwrap().len(), 2);
        assert!(q.inner.0.lock().blocked.is_empty(), "served");
    }

    #[test]
    fn an_unfiltered_dequeue_wakes_on_any_arrival() {
        // The staleness path: `dequeue(1, any())` takes whatever comes.
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        let consumer = q.clone();
        let handle =
            thread::spawn(move || consumer.dequeue(1, TagFilter::any(), Duration::from_secs(10)));
        await_blocked(&q, 1);
        q.enqueue(9, tag(17, 3));
        let got = handle.join().unwrap().unwrap();
        assert_eq!((got[0].value, got[0].tag), (9, tag(17, 3)));
    }

    #[test]
    fn token_remove_wakes_when_enough_and_withdraws_its_request() {
        let t = SharedTokenQueue::new(1);
        assert!(t.remove(3, Duration::from_millis(20)).is_err());
        assert!(t.inner.0.lock().blocked.is_empty(), "timed out");
        let waiter = t.clone();
        let handle = thread::spawn(move || waiter.remove(3, Duration::from_secs(10)));
        while t.inner.0.lock().blocked.is_empty() {
            thread::yield_now();
        }
        t.insert(1); // 2 < 3: no one to wake
        t.insert(1);
        handle.join().unwrap().unwrap();
        assert_eq!(t.available(), 0);
        assert!(t.inner.0.lock().blocked.is_empty(), "served");
    }

    #[test]
    fn token_queue_blocks_and_resumes() {
        let t = SharedTokenQueue::new(1);
        assert!(t.try_remove(1));
        assert!(!t.try_remove(1));
        let waiter = t.clone();
        let handle = thread::spawn(move || waiter.remove(1, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        t.insert(1);
        handle.join().unwrap().unwrap();
        assert_eq!(t.available(), 0);
    }

    #[test]
    fn token_timeout_removes_nothing() {
        let t = SharedTokenQueue::new(2);
        assert!(t.remove(5, Duration::from_millis(30)).is_err());
        assert_eq!(t.available(), 2);
    }

    #[test]
    fn discard_older_than_shared() {
        let q: SharedTaggedQueue<u32> = SharedTaggedQueue::new();
        q.enqueue(1, tag(0, 0));
        q.enqueue(2, tag(5, 0));
        assert_eq!(q.discard_older_than(3), 1);
        assert_eq!(q.size(TagFilter::any()), 1);
    }
}
