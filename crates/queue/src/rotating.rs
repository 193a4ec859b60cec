//! Rotating per-iteration queues (§6.1).
//!
//! A single update queue would have to be scanned for matching tags,
//! putting unmatched newer entries back repeatedly. The paper's
//! implementation instead keeps `max_ig + 1` queues and routes an update
//! of iteration `k` to queue `k mod (max_ig + 1)`: by Theorem 1 (with
//! token queues bounding the gap to `max_ig`), at most `max_ig + 1`
//! *distinct current-or-newer* iterations can be in flight, so within one
//! sub-queue an entry is either for the requested iteration or stale (only
//! possible with backup workers) — never newer. Stale entries are
//! discarded on dequeue (§6.2a).
//!
//! # Storage
//!
//! The sub-queues are stored interleaved in one [`TaggedQueue`], in
//! arrival order. An entry's sub-queue is `tag.iter mod (max_ig + 1)`, a
//! pure function of its tag, so nothing about the §6.1 semantics changes:
//! a purge drops (and counts) only the requested sub-queue's older
//! entries, each sub-queue is FIFO (it is a subsequence of the arrival
//! order), and a bounded queue bounds each sub-queue separately. Every
//! other operation is the tagged queue's own, under a [`TagFilter`]. The
//! reason is the simulator: it keeps one `RotatingQueues` per worker, and
//! at 10 000 workers each sub-queue as its own `VecDeque` was its own heap
//! buffer two pointers away from the worker's state — three dependent
//! cache misses per enqueue, and `max_ig + 2` allocations per worker (the
//! sub-queues and the list of them). One deque is one allocation and one
//! hop. It holds at most `max_ig + 1` iterations' updates from
//! `in_degree` senders, so the other sub-queues' entries an operation
//! steps over are few.

use crate::tagged::{QueueFullError, Tag, TagFilter, TaggedEntry, TaggedQueue};

/// The rotating multi-queue of §6.1.
///
/// # Examples
///
/// ```
/// use hop_queue::{RotatingQueues, Tag};
///
/// let mut q = RotatingQueues::new(2); // max_ig = 2 → 3 sub-queues
/// q.enqueue("u0", Tag { iter: 0, w_id: 1 }).unwrap();
/// q.enqueue("u3", Tag { iter: 3, w_id: 1 }).unwrap(); // same sub-queue as iter 0
/// // Requesting iteration 3 discards the stale iteration-0 entry.
/// let got = q.try_dequeue(1, 3).unwrap();
/// assert_eq!(got[0].value, "u3");
/// assert_eq!(q.stale_discarded(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RotatingQueues<T> {
    /// Every sub-queue's entries, interleaved in arrival order (itself
    /// unbounded: the bound is per sub-queue).
    entries: TaggedQueue<T>,
    /// Number of sub-queues, `max_ig + 1`.
    n: u64,
    /// Per-sub-queue entry limit, if bounded.
    capacity: Option<usize>,
    stale_discarded: u64,
}

impl<T> RotatingQueues<T> {
    /// Creates `max_ig + 1` unbounded sub-queues.
    pub fn new(max_ig: u64) -> Self {
        Self {
            entries: TaggedQueue::unbounded(),
            n: max_ig + 1,
            capacity: None,
            stale_discarded: 0,
        }
    }

    /// Creates `max_ig + 1` sub-queues each bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn bounded(max_ig: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity: Some(capacity),
            ..Self::new(max_ig)
        }
    }

    /// Total entries across sub-queues.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether all sub-queues are empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over every sub-queue's entries in arrival order without
    /// removing them.
    pub fn iter(&self) -> impl Iterator<Item = &TaggedEntry<T>> {
        self.entries.iter()
    }

    /// Updates of iterations older than the requested one found and
    /// dropped during dequeues so far.
    pub fn stale_discarded(&self) -> u64 {
        self.stale_discarded
    }

    /// Routes an update to sub-queue `iter mod n_queues`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if that sub-queue is bounded and full.
    pub fn enqueue(&mut self, value: T, tag: Tag) -> Result<(), QueueFullError> {
        if let Some(cap) = self.capacity {
            let residue = tag.iter % self.n;
            let held = self
                .entries
                .iter()
                .filter(|e| e.tag.iter % self.n == residue)
                .count();
            if held >= cap {
                return Err(QueueFullError { capacity: cap });
            }
        }
        self.entries.enqueue(value, tag)
    }

    /// The purge that [`Self::size`], the dequeues of `iter` and
    /// [`Self::take_quota_into`] begin with: removes the entries older
    /// than `iter` from its sub-queue, counting them as stale, and hands
    /// each value to `recycle` (an owner that pools its updates' buffers
    /// gets them back).
    fn recycle_stale(&mut self, iter: u64, recycle: impl FnMut(T)) {
        let n = self.n;
        let stale = |tag: Tag| tag.iter < iter && (iter - tag.iter).is_multiple_of(n);
        self.stale_discarded += self.entries.discard_where(stale, recycle) as u64;
    }

    /// Number of entries currently available for iteration `iter`
    /// (after discarding stale entries sharing its sub-queue).
    pub fn size(&mut self, iter: u64) -> usize {
        self.recycle_stale(iter, drop);
        self.entries.size(TagFilter::iter(iter))
    }

    /// Non-blocking dequeue of exactly `m` updates for iteration `iter`;
    /// removes nothing if fewer are available. Stale entries sharing the
    /// sub-queue are discarded first (§6.2a).
    pub fn try_dequeue(&mut self, m: usize, iter: u64) -> Option<Vec<TaggedEntry<T>>> {
        if self.size(iter) < m {
            return None;
        }
        Some(self.dequeue_up_to(m, iter))
    }

    /// Dequeues up to `m` updates for iteration `iter` (the "additional
    /// updates" collection of Fig. 8 line 5).
    pub fn dequeue_up_to(&mut self, m: usize, iter: u64) -> Vec<TaggedEntry<T>> {
        let mut taken = Vec::new();
        self.dequeue_up_to_into(m, iter, &mut taken);
        taken
    }

    /// [`Self::dequeue_up_to`], appending to `out` instead of allocating
    /// (see [`TaggedQueue::dequeue_up_to_into`]).
    pub fn dequeue_up_to_into(&mut self, m: usize, iter: u64, out: &mut Vec<TaggedEntry<T>>) {
        self.recycle_stale(iter, drop);
        self.entries
            .dequeue_up_to_into(m, TagFilter::iter(iter), out);
    }

    /// A whole backup-worker Recv (Fig. 8) on one purge: removes the
    /// entries older than `iter` from its sub-queue, counting them as
    /// stale and handing each value to `recycle` (an owner that pools its
    /// updates' buffers gets them back), then, if at least `quota`
    /// updates for `iter` remain, [`Self::dequeue_up_to_into`] of up to
    /// `m` of them, returning whether it took them (else it takes
    /// nothing). [`Self::size`] and the dequeues purge the same way each
    /// time they are called; after the first purge a second finds
    /// nothing.
    pub fn take_quota_into(
        &mut self,
        quota: usize,
        m: usize,
        iter: u64,
        out: &mut Vec<TaggedEntry<T>>,
        recycle: impl FnMut(T),
    ) -> bool {
        self.recycle_stale(iter, recycle);
        let filter = TagFilter::iter(iter);
        if self.entries.size(filter) < quota {
            return false;
        }
        self.entries.dequeue_up_to_into(m, filter, out);
        true
    }

    /// Discards entries older than `min_iter` in all sub-queues (the
    /// periodic cleanup of §4.3), returning the number dropped.
    pub fn discard_older_than(&mut self, min_iter: u64) -> usize {
        self.recycle_older_than(min_iter, drop)
    }

    /// [`Self::discard_older_than`], handing each dropped value to
    /// `recycle`.
    pub fn recycle_older_than(&mut self, min_iter: u64, recycle: impl FnMut(T)) -> usize {
        let dropped = self
            .entries
            .discard_where(|tag| tag.iter < min_iter, recycle);
        self.stale_discarded += dropped as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tag(iter: u64, w_id: usize) -> Tag {
        Tag { iter, w_id }
    }

    #[test]
    fn routes_by_modulo() {
        let mut q = RotatingQueues::new(2);
        q.enqueue(0, tag(0, 0)).unwrap();
        q.enqueue(1, tag(1, 0)).unwrap();
        q.enqueue(2, tag(2, 0)).unwrap();
        q.enqueue(3, tag(3, 0)).unwrap(); // shares sub-queue with iter 0
        assert_eq!(q.len(), 4);
        assert_eq!(q.size(1), 1);
        assert_eq!(q.size(2), 1);
    }

    #[test]
    fn dequeue_exact_count() {
        let mut q = RotatingQueues::new(1);
        q.enqueue("a", tag(4, 0)).unwrap();
        q.enqueue("b", tag(4, 1)).unwrap();
        assert!(q.try_dequeue(3, 4).is_none());
        let got = q.try_dequeue(2, 4).unwrap();
        assert_eq!(got.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_entries_are_discarded_not_returned() {
        let mut q = RotatingQueues::new(2);
        // Backup-worker case: an old unused update of iter 0 lingers, then
        // iter 3 updates land in the same sub-queue.
        q.enqueue("old", tag(0, 0)).unwrap();
        q.enqueue("new", tag(3, 1)).unwrap();
        let got = q.try_dequeue(1, 3).unwrap();
        assert_eq!(got[0].value, "new");
        assert_eq!(q.stale_discarded(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn purged_entries_go_to_the_recycler_in_fifo_order() {
        let mut q = RotatingQueues::new(1);
        for (value, iter) in [("a", 0), ("b", 1), ("c", 2), ("d", 0), ("e", 3)] {
            q.enqueue(value, tag(iter, 0)).unwrap();
        }
        let mut recycled = Vec::new();
        // Sub-queue of iteration 2: its older entries are "a" and "d".
        q.recycle_stale(2, |v| recycled.push(v));
        assert_eq!(recycled, ["a", "d"]);
        assert_eq!(q.stale_discarded(), 2);
        assert_eq!(q.recycle_older_than(3, |v| recycled.push(v)), 2);
        assert_eq!(recycled, ["a", "d", "b", "c"]);
        assert_eq!(q.iter().map(|e| e.value).collect::<Vec<_>>(), ["e"]);
    }

    #[test]
    fn global_cleanup_counts_stale() {
        let mut q = RotatingQueues::new(4);
        for i in 0..5u64 {
            q.enqueue(i, tag(i, 0)).unwrap();
        }
        let dropped = q.discard_older_than(4);
        assert_eq!(dropped, 4);
        assert_eq!(q.stale_discarded(), 4);
    }

    #[test]
    fn bounded_subqueues_reject_overflow() {
        let mut q = RotatingQueues::bounded(1, 1);
        q.enqueue(0, tag(0, 0)).unwrap();
        // Same sub-queue (iter 2 mod 2 == 0) and it is full.
        assert!(q.enqueue(1, tag(2, 0)).is_err());
        // Different sub-queue still accepts.
        q.enqueue(2, tag(1, 0)).unwrap();
    }

    proptest! {
        /// Equivalence with a single tagged queue when no stale updates
        /// exist: standard training only sees current-or-newer updates, and
        /// dequeuing iteration-by-iteration yields the same multiset.
        #[test]
        fn equivalent_to_flat_queue_without_staleness(
            updates in proptest::collection::vec((0u64..6, 0usize..4), 0..50),
            max_ig in 5u64..8,
        ) {
            // max_ig >= max iter span, so no aliasing/staleness occurs.
            let mut rot = RotatingQueues::new(max_ig);
            let mut flat = TaggedQueue::unbounded();
            for (k, &(iter, w_id)) in updates.iter().enumerate() {
                rot.enqueue(k, tag(iter, w_id)).unwrap();
                flat.enqueue(k, tag(iter, w_id)).unwrap();
            }
            for iter in 0..6u64 {
                let a = rot.dequeue_up_to(usize::MAX, iter);
                let b = flat.drain_matching(TagFilter::iter(iter));
                let mut av: Vec<usize> = a.iter().map(|e| e.value).collect();
                let mut bv: Vec<usize> = b.iter().map(|e| e.value).collect();
                av.sort_unstable();
                bv.sort_unstable();
                prop_assert_eq!(av, bv);
            }
            prop_assert_eq!(rot.stale_discarded(), 0);
        }

        /// `take_quota_into` is the purge, the size check and the dequeue
        /// it replaces: the same entries taken, recycled and left behind,
        /// and the same stale count, stale entries and aliasing included.
        #[test]
        fn take_quota_into_matches_purge_size_and_dequeue(
            updates in proptest::collection::vec((0u64..12, 0usize..4), 0..40),
            max_ig in 1u64..4,
            recvs in proptest::collection::vec((0u64..12, 0usize..5, 0usize..5), 1..8),
        ) {
            let (mut one, mut three) = (RotatingQueues::new(max_ig), RotatingQueues::new(max_ig));
            for (k, &(iter, w_id)) in updates.iter().enumerate() {
                one.enqueue(k, tag(iter, w_id)).unwrap();
                three.enqueue(k, tag(iter, w_id)).unwrap();
            }
            for &(iter, quota, m) in &recvs {
                let (mut got, mut recycled) = (Vec::new(), Vec::new());
                let took = one.take_quota_into(quota, m, iter, &mut got, |v| recycled.push(v));
                let (mut expect, mut expect_recycled) = (Vec::new(), Vec::new());
                three.recycle_stale(iter, |v| expect_recycled.push(v));
                let enough = three.size(iter) >= quota;
                if enough {
                    three.dequeue_up_to_into(m, iter, &mut expect);
                }
                prop_assert_eq!(took, enough);
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(&recycled, &expect_recycled);
                prop_assert_eq!(one.stale_discarded(), three.stale_discarded());
                prop_assert_eq!(&one, &three);
            }
        }
    }
}
