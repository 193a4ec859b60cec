//! Token queues (§4.2): bounding the iteration gap between neighbors.
//!
//! Worker `i` maintains `TokenQ(i -> j)` for each in-coming neighbor `j`.
//! To *enter* a new iteration, `j` must remove one token from every
//! `TokenQ(i -> j)` of its out-going neighbors `i`; when `i` itself enters
//! a new iteration it inserts one token into each of its local queues.
//! With `max_ig` initial tokens, the invariant
//! `TokenQ(i -> j).size() == Iter(i) - Iter(j) + max_ig`
//! holds throughout (Theorem 2's proof), which both bounds the gap and
//! lets a worker *observe* how far behind it is (used by skip-iterations,
//! §5).

/// A token queue between one ordered pair of neighboring workers.
///
/// The paper enqueues iteration numbers as token payloads but never reads
/// them; a counter is semantically identical and is what we implement.
///
/// # Examples
///
/// ```
/// use hop_queue::TokenQueue;
///
/// let mut q = TokenQueue::new(3); // max_ig = 3
/// assert_eq!(q.available(), 3);
/// assert!(q.try_remove(1));
/// q.insert(1);
/// assert_eq!(q.available(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenQueue {
    available: u64,
    max_ig: u64,
}

impl TokenQueue {
    /// Creates a queue holding `max_ig` initial tokens (§4.2
    /// *Initialization*).
    ///
    /// # Panics
    ///
    /// Panics if `max_ig == 0` (a zero gap would deadlock immediately).
    pub fn new(max_ig: u64) -> Self {
        assert!(max_ig > 0, "max_ig must be positive");
        Self {
            available: max_ig,
            max_ig,
        }
    }

    /// The configured maximum iteration gap.
    pub fn max_ig(&self) -> u64 {
        self.max_ig
    }

    /// Tokens currently available (`Iter(owner) - Iter(consumer) + max_ig`).
    pub fn available(&self) -> u64 {
        self.available
    }

    /// §4.2 *Insert token*: the owner entered `k` new iterations.
    pub fn insert(&mut self, k: u64) {
        self.available += k;
    }

    /// §4.2 *Remove token*: the consumer attempts to enter `k` new
    /// iterations. Returns `false` (removing nothing) if fewer than `k`
    /// tokens are available — the caller must block or skip.
    pub fn try_remove(&mut self, k: u64) -> bool {
        if self.available < k {
            return false;
        }
        self.available -= k;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_with_max_ig_tokens() {
        let q = TokenQueue::new(5);
        assert_eq!(q.available(), 5);
        assert_eq!(q.max_ig(), 5);
    }

    #[test]
    fn remove_fails_when_insufficient() {
        let mut q = TokenQueue::new(2);
        assert!(q.try_remove(2));
        assert!(!q.try_remove(1));
        assert_eq!(q.available(), 0);
    }

    #[test]
    fn insert_adds_to_what_is_available() {
        let mut q = TokenQueue::new(1);
        q.insert(4);
        assert_eq!(q.available(), 5);
        assert!(q.try_remove(3));
        assert_eq!(q.available(), 2);
    }

    #[test]
    #[should_panic(expected = "max_ig must be positive")]
    fn rejects_zero_gap() {
        TokenQueue::new(0);
    }

    proptest! {
        /// Theorem 2 invariant: simulate two workers where the owner has
        /// done `a` iterations (inserting a token each) and the consumer
        /// has completed `b <= a + max_ig` iterations (removing one each);
        /// then available == a - b + max_ig, and the consumer can never
        /// exceed a + max_ig iterations.
        #[test]
        fn gap_invariant(max_ig in 1u64..6, schedule in proptest::collection::vec(proptest::bool::ANY, 0..200)) {
            let mut q = TokenQueue::new(max_ig);
            let mut owner_iters = 0u64;
            let mut consumer_iters = 0u64;
            for owner_turn in schedule {
                if owner_turn {
                    owner_iters += 1;
                    q.insert(1);
                } else if q.try_remove(1) {
                    consumer_iters += 1;
                }
                prop_assert_eq!(q.available(), owner_iters + max_ig - consumer_iters);
                prop_assert!(consumer_iters <= owner_iters + max_ig);
            }
        }
    }
}
