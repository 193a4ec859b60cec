//! Tagged FIFO update queues (§4.1).
//!
//! Entries carry an `(iter, w_id)` tag. `dequeue` removes the first `m`
//! entries matching a tag filter while leaving non-matching entries in
//! place and in order — exactly the semantics the paper defines for
//! `q.dequeue(m, iter, w_id)`. This logical variant never blocks; the
//! discrete-event runtime re-polls it when new updates arrive, and a
//! real-runtime worker re-checks it after each pump of its transport.

use std::collections::VecDeque;
use std::fmt;

/// The `(iter, w_id)` tag attached to each update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// Iteration in which the update was generated.
    pub iter: u64,
    /// Index of the sending worker.
    pub w_id: usize,
}

/// A tagged queue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedEntry<T> {
    /// The update payload (model parameters in the real protocol).
    pub value: T,
    /// Its tag.
    pub tag: Tag,
}

/// A tag filter: `None` matches anything, mirroring the optional tag
/// arguments of the paper's queue API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagFilter {
    /// Required iteration, if any.
    pub iter: Option<u64>,
    /// Required sender, if any.
    pub w_id: Option<usize>,
}

impl TagFilter {
    /// Matches any entry.
    pub fn any() -> Self {
        Self::default()
    }

    /// Matches entries of one iteration.
    pub fn iter(iter: u64) -> Self {
        Self {
            iter: Some(iter),
            w_id: None,
        }
    }

    /// Matches entries from one sender.
    pub fn from_worker(w_id: usize) -> Self {
        Self {
            iter: None,
            w_id: Some(w_id),
        }
    }

    /// Matches entries with both tags fixed.
    pub fn exact(iter: u64, w_id: usize) -> Self {
        Self {
            iter: Some(iter),
            w_id: Some(w_id),
        }
    }

    /// Whether `tag` satisfies the filter.
    pub fn matches(&self, tag: Tag) -> bool {
        self.iter.is_none_or(|i| i == tag.iter) && self.w_id.is_none_or(|w| w == tag.w_id)
    }
}

/// Error returned when enqueuing into a full bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// The configured capacity that was exceeded.
    pub capacity: usize,
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "update queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFullError {}

/// FIFO queue with tag-filtered dequeue.
///
/// # Examples
///
/// ```
/// use hop_queue::{TaggedQueue, Tag};
/// use hop_queue::tagged::TagFilter;
///
/// let mut q = TaggedQueue::unbounded();
/// q.enqueue("a", Tag { iter: 0, w_id: 1 }).unwrap();
/// q.enqueue("b", Tag { iter: 1, w_id: 2 }).unwrap();
/// let got = q.try_dequeue(1, TagFilter::iter(1)).unwrap();
/// assert_eq!(got[0].value, "b");
/// assert_eq!(q.len(), 1); // "a" stayed in place
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedQueue<T> {
    entries: VecDeque<TaggedEntry<T>>,
    capacity: Option<usize>,
}

impl<T> TaggedQueue<T> {
    /// Creates a queue with no capacity limit.
    pub fn unbounded() -> Self {
        Self {
            entries: VecDeque::new(),
            capacity: None,
        }
    }

    /// Creates a queue that rejects enqueues beyond `capacity` entries,
    /// modeling the fixed-capacity TensorFlow FIFO queues of §6.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            entries: VecDeque::new(),
            capacity: Some(capacity),
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity limit, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Pushes an update with its tag (the paper's
    /// `q.enqueue(update, iter, w_id)`).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the queue is bounded and full.
    pub fn enqueue(&mut self, value: T, tag: Tag) -> Result<(), QueueFullError> {
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                return Err(QueueFullError { capacity: cap });
            }
        }
        self.entries.push_back(TaggedEntry { value, tag });
        Ok(())
    }

    /// The paper's `q.size(iter, w_id)`: number of entries matching the
    /// filter.
    pub fn size(&self, filter: TagFilter) -> usize {
        self.entries
            .iter()
            .filter(|e| filter.matches(e.tag))
            .count()
    }

    /// Non-blocking `q.dequeue(m, iter, w_id)`: removes and returns the
    /// first `m` entries matching `filter`, or `None` (removing nothing)
    /// if fewer than `m` match. The blocking variant waits instead; see
    /// [`crate::blocking::SharedTaggedQueue`].
    pub fn try_dequeue(&mut self, m: usize, filter: TagFilter) -> Option<Vec<TaggedEntry<T>>> {
        if self.size(filter) < m {
            return None;
        }
        Some(self.dequeue_up_to(m, filter))
    }

    /// Removes and returns up to `m` matching entries (possibly fewer),
    /// used for collecting "additional updates" in the backup-worker Recv
    /// (Fig. 8 line 5).
    pub fn dequeue_up_to(&mut self, m: usize, filter: TagFilter) -> Vec<TaggedEntry<T>> {
        let mut taken = Vec::new();
        self.dequeue_up_to_into(m, filter, &mut taken);
        taken
    }

    /// [`Self::dequeue_up_to`], appending to `out` instead of allocating.
    pub fn dequeue_up_to_into(
        &mut self,
        m: usize,
        filter: TagFilter,
        out: &mut Vec<TaggedEntry<T>>,
    ) {
        self.extract_into(m, |tag| filter.matches(tag), out);
    }

    /// Removes and returns *all* matching entries.
    pub fn drain_matching(&mut self, filter: TagFilter) -> Vec<TaggedEntry<T>> {
        self.dequeue_up_to(usize::MAX, filter)
    }

    /// Discards all entries with `tag.iter < min_iter`, returning how many
    /// were dropped. This is the periodic stale-update cleanup of §4.3/§6.2.
    pub fn discard_older_than(&mut self, min_iter: u64) -> usize {
        self.discard_where(|tag| tag.iter < min_iter, drop)
    }

    /// Removes every entry whose tag satisfies `stale`, hands its value to
    /// `recycle`, in FIFO order, and returns how many; the others keep
    /// their order. A queue with none to remove is only scanned.
    pub(crate) fn discard_where(
        &mut self,
        stale: impl Fn(Tag) -> bool,
        mut recycle: impl FnMut(T),
    ) -> usize {
        let before = self.entries.len();
        if self.entries.iter().any(|e| stale(e.tag)) {
            // One full rotation: every entry leaves the front once.
            for _ in 0..before {
                let entry = self.entries.pop_front().expect("unvisited entries remain");
                if stale(entry.tag) {
                    recycle(entry.value);
                } else {
                    self.entries.push_back(entry);
                }
            }
        }
        before - self.entries.len()
    }

    /// Moves the first `limit` entries whose tag satisfies `wanted` to
    /// `out`, in FIFO order, by rotating the deque in place: each visited
    /// entry leaves the front and either goes to `out` or back in at the
    /// rear, so the ones left keep their order and no second deque is
    /// built.
    fn extract_into(
        &mut self,
        limit: usize,
        wanted: impl Fn(Tag) -> bool,
        out: &mut Vec<TaggedEntry<T>>,
    ) {
        let mut taken = 0;
        let mut unvisited = self.entries.len();
        while taken < limit && unvisited > 0 {
            let entry = self.entries.pop_front().expect("unvisited entries remain");
            unvisited -= 1;
            if wanted(entry.tag) {
                out.push(entry);
                taken += 1;
            } else {
                self.entries.push_back(entry);
            }
        }
        // The kept entries went to the rear; put the unvisited ones
        // behind them again.
        self.entries.rotate_left(unvisited);
    }

    /// Iterates over entries in FIFO order without removing them.
    pub fn iter(&self) -> impl Iterator<Item = &TaggedEntry<T>> {
        self.entries.iter()
    }
}

impl<T> Default for TaggedQueue<T> {
    fn default() -> Self {
        Self::unbounded()
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
    fn fifo_order_within_tag() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue(1, tag(0, 0)).unwrap();
        q.enqueue(2, tag(0, 1)).unwrap();
        q.enqueue(3, tag(0, 0)).unwrap();
        let got = q.try_dequeue(2, TagFilter::from_worker(0)).unwrap();
        assert_eq!(got.iter().map(|e| e.value).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().next().unwrap().value, 2);
    }

    #[test]
    fn try_dequeue_insufficient_removes_nothing() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue("x", tag(3, 0)).unwrap();
        assert!(q.try_dequeue(2, TagFilter::iter(3)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dequeue_any_takes_head() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue("a", tag(5, 2)).unwrap();
        q.enqueue("b", tag(1, 7)).unwrap();
        let got = q.try_dequeue(1, TagFilter::any()).unwrap();
        assert_eq!(got[0].value, "a");
    }

    #[test]
    fn exact_filter() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue(10, tag(2, 0)).unwrap();
        q.enqueue(11, tag(2, 1)).unwrap();
        q.enqueue(12, tag(3, 1)).unwrap();
        assert_eq!(q.size(TagFilter::exact(2, 1)), 1);
        let got = q.try_dequeue(1, TagFilter::exact(2, 1)).unwrap();
        assert_eq!(got[0].value, 11);
    }

    #[test]
    fn bounded_queue_overflows() {
        let mut q = TaggedQueue::bounded(2);
        q.enqueue(0, tag(0, 0)).unwrap();
        q.enqueue(1, tag(1, 0)).unwrap();
        let err = q.enqueue(2, tag(2, 0)).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(format!("{err}"), "update queue full (capacity 2)");
    }

    #[test]
    fn discard_older_than_drops_stale() {
        let mut q = TaggedQueue::unbounded();
        for i in 0..5 {
            q.enqueue(i, tag(i, 0)).unwrap();
        }
        assert_eq!(q.discard_older_than(3), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.size(TagFilter::iter(3)), 1);
    }

    #[test]
    fn drain_matching_takes_all() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue(1, tag(0, 0)).unwrap();
        q.enqueue(2, tag(0, 0)).unwrap();
        q.enqueue(3, tag(1, 0)).unwrap();
        let got = q.drain_matching(TagFilter::iter(0));
        assert_eq!(got.len(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dequeue_up_to_partial() {
        let mut q = TaggedQueue::unbounded();
        q.enqueue(1, tag(0, 0)).unwrap();
        let got = q.dequeue_up_to(5, TagFilter::iter(0));
        assert_eq!(got.len(), 1);
        assert!(q.is_empty());
    }

    proptest! {
        /// Mixed enqueues/dequeues never lose or duplicate entries and
        /// preserve FIFO order per tag.
        #[test]
        fn fifo_per_tag_invariant(ops in proptest::collection::vec((0u64..4, 0usize..3), 1..60)) {
            let mut q = TaggedQueue::unbounded();
            let mut sequence_by_tag: std::collections::HashMap<Tag, Vec<u32>> =
                std::collections::HashMap::new();
            for (counter, &(iter, w_id)) in ops.iter().enumerate() {
                let counter = counter as u32;
                let t = tag(iter, w_id);
                q.enqueue(counter, t).unwrap();
                sequence_by_tag.entry(t).or_default().push(counter);
            }
            for (t, expected) in sequence_by_tag {
                let got = q.drain_matching(TagFilter::exact(t.iter, t.w_id));
                let values: Vec<u32> = got.iter().map(|e| e.value).collect();
                prop_assert_eq!(values, expected);
            }
            prop_assert!(q.is_empty());
        }

        /// `dequeue_up_to_into` takes the first `m` matching entries in
        /// order, appends them after what `out` held, and leaves the rest
        /// in their order — checked against a plain `Vec` model.
        #[test]
        fn partial_dequeues_match_a_vec_model(
            ops in proptest::collection::vec((0u64..3, 0usize..3), 0..40),
            takes in proptest::collection::vec(
                (0usize..4, 0u64..3, 0usize..3, 0u8..2),
                1..8,
            ),
        ) {
            let mut q = TaggedQueue::unbounded();
            let mut model: Vec<(usize, Tag)> = Vec::new();
            for (k, &(iter, w_id)) in ops.iter().enumerate() {
                q.enqueue(k, tag(iter, w_id)).unwrap();
                model.push((k, tag(iter, w_id)));
            }
            let mut out = vec![TaggedEntry { value: usize::MAX, tag: tag(9, 9) }];
            for &(m, fi, fw, exact) in &takes {
                let filter = if exact == 1 {
                    TagFilter::exact(fi, fw)
                } else {
                    TagFilter::iter(fi)
                };
                q.dequeue_up_to_into(m, filter, &mut out);
                let mut expect = Vec::new();
                let mut taken = 0;
                model.retain(|&(v, t)| {
                    let take = taken < m && filter.matches(t);
                    if take {
                        expect.push(v);
                        taken += 1;
                    }
                    !take
                });
                prop_assert_eq!(out[0].value, usize::MAX);
                let got: Vec<usize> = out.drain(1..).map(|e| e.value).collect();
                prop_assert_eq!(got, expect);
                let left: Vec<usize> = q.iter().map(|e| e.value).collect();
                let model_left: Vec<usize> = model.iter().map(|&(v, _)| v).collect();
                prop_assert_eq!(left, model_left);
            }
        }

        /// `size` agrees with what `drain_matching` returns.
        #[test]
        fn size_matches_drain(ops in proptest::collection::vec((0u64..3, 0usize..3), 0..40), fi in 0u64..3, fw in 0usize..3) {
            let mut q = TaggedQueue::unbounded();
            for (k, &(iter, w_id)) in ops.iter().enumerate() {
                q.enqueue(k, tag(iter, w_id)).unwrap();
            }
            let filter = TagFilter::exact(fi, fw);
            let size = q.size(filter);
            let drained = q.drain_matching(filter);
            prop_assert_eq!(size, drained.len());
        }
    }
}
