//! The original `RotatingQueues`: one [`TaggedQueue`] per sub-queue,
//! `max_ig + 1` of them, an update of iteration `k` routed to sub-queue
//! `k mod (max_ig + 1)`. Kept as the differential-testing oracle for the
//! interleaved single-deque `RotatingQueues`: same API, same §6.1
//! semantics, written the obvious way.
//!
//! Test support only, included with `#[path]` by
//! `tests/rotating_differential.rs`.

use hop_queue::tagged::{QueueFullError, Tag, TagFilter, TaggedEntry, TaggedQueue};

/// `max_ig + 1` separate tagged queues.
#[derive(Debug, Clone, PartialEq)]
pub struct SubQueues<T> {
    queues: Vec<TaggedQueue<T>>,
    stale_discarded: u64,
}

impl<T> SubQueues<T> {
    /// Creates `max_ig + 1` unbounded sub-queues.
    pub fn new(max_ig: u64) -> Self {
        let n = max_ig as usize + 1;
        Self {
            queues: (0..n).map(|_| TaggedQueue::unbounded()).collect(),
            stale_discarded: 0,
        }
    }

    /// Creates `max_ig + 1` sub-queues each bounded to `capacity` entries.
    pub fn bounded(max_ig: u64, capacity: usize) -> Self {
        let n = max_ig as usize + 1;
        Self {
            queues: (0..n).map(|_| TaggedQueue::bounded(capacity)).collect(),
            stale_discarded: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.queues.iter().map(TaggedQueue::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(TaggedQueue::is_empty)
    }

    pub fn stale_discarded(&self) -> u64 {
        self.stale_discarded
    }

    fn index(&self, iter: u64) -> usize {
        (iter % self.queues.len() as u64) as usize
    }

    pub fn enqueue(&mut self, value: T, tag: Tag) -> Result<(), QueueFullError> {
        let idx = self.index(tag.iter);
        self.queues[idx].enqueue(value, tag)
    }

    fn purge_stale(&mut self, iter: u64) {
        let idx = self.index(iter);
        self.stale_discarded += self.queues[idx].discard_older_than(iter) as u64;
    }

    pub fn size(&mut self, iter: u64) -> usize {
        self.purge_stale(iter);
        let idx = self.index(iter);
        self.queues[idx].size(TagFilter::iter(iter))
    }

    pub fn try_dequeue(&mut self, m: usize, iter: u64) -> Option<Vec<TaggedEntry<T>>> {
        self.purge_stale(iter);
        let idx = self.index(iter);
        self.queues[idx].try_dequeue(m, TagFilter::iter(iter))
    }

    pub fn dequeue_up_to(&mut self, m: usize, iter: u64) -> Vec<TaggedEntry<T>> {
        self.purge_stale(iter);
        let idx = self.index(iter);
        self.queues[idx].dequeue_up_to(m, TagFilter::iter(iter))
    }

    pub fn iter(&self) -> impl Iterator<Item = &TaggedEntry<T>> {
        self.queues.iter().flat_map(TaggedQueue::iter)
    }

    pub fn discard_older_than(&mut self, min_iter: u64) -> usize {
        let dropped: usize = self
            .queues
            .iter_mut()
            .map(|q| q.discard_older_than(min_iter))
            .sum();
        self.stale_discarded += dropped as u64;
        dropped
    }
}
