//! Differential suite: the interleaved single-queue [`RotatingQueues`]
//! against the retained one-`TaggedQueue`-per-sub-queue oracle
//! [`SubQueues`] (`support/sub_queues.rs`).
//!
//! The property is total behavioral equality: driven through the same
//! random sequence of enqueues, size queries, dequeues and global
//! cleanups — with tags whose iterations span several
//! multiples of the sub-queue count, so residues alias and stale entries
//! sit beside current ones, and with bounded sub-queues — both must
//! return the same entries in the same order, report the same `len`,
//! emptiness and `stale_discarded` after every step, and hold the same
//! entries at the end.

#[path = "support/sub_queues.rs"]
mod sub_queues;

use hop_queue::{RotatingQueues, Tag, TaggedEntry};
use proptest::prelude::*;
use sub_queues::SubQueues;

/// Senders drawn in the ops.
const SENDERS: usize = 4;

/// Drives both queues through `ops`. Each op is `(kind, iter, w_id, m)`:
/// kinds 0–3 enqueue (so about half of the ops are arrivals), then
/// `size`, `dequeue_up_to`, `dequeue_up_to_into`, `try_dequeue` and
/// `discard_older_than`. `capacity` 0 means unbounded sub-queues.
fn run(ops: &[(u8, u64, usize, usize)], max_ig: u64, capacity: usize) -> Result<(), TestCaseError> {
    let (mut rotating, mut oracle) = if capacity == 0 {
        (RotatingQueues::new(max_ig), SubQueues::new(max_ig))
    } else {
        (
            RotatingQueues::bounded(max_ig, capacity),
            SubQueues::bounded(max_ig, capacity),
        )
    };
    let mut next_value = 0u32;
    for &(kind, iter, w_id, m) in ops {
        let w_id = w_id % SENDERS;
        match kind {
            0..=3 => {
                let tag = Tag { iter, w_id };
                prop_assert_eq!(
                    rotating.enqueue(next_value, tag),
                    oracle.enqueue(next_value, tag)
                );
                next_value += 1;
            }
            4 => prop_assert_eq!(rotating.size(iter), oracle.size(iter)),
            5 => prop_assert_eq!(
                rotating.dequeue_up_to(m, iter),
                oracle.dequeue_up_to(m, iter)
            ),
            6 => {
                // Appends after what the buffer already holds.
                let marker = TaggedEntry {
                    value: u32::MAX,
                    tag: Tag { iter: 0, w_id: 0 },
                };
                let mut out = vec![marker.clone()];
                rotating.dequeue_up_to_into(m, iter, &mut out);
                let mut expect = vec![marker];
                expect.extend(oracle.dequeue_up_to(m, iter));
                prop_assert_eq!(out, expect);
            }
            7 => prop_assert_eq!(rotating.try_dequeue(m, iter), oracle.try_dequeue(m, iter)),
            _ => prop_assert_eq!(
                rotating.discard_older_than(iter),
                oracle.discard_older_than(iter)
            ),
        }
        prop_assert_eq!(rotating.len(), oracle.len());
        prop_assert_eq!(rotating.is_empty(), oracle.is_empty());
        prop_assert_eq!(rotating.stale_discarded(), oracle.stale_discarded());
    }
    // What is left must match entry for entry: sorted by tag, and
    // stably, so each (iteration, sender)'s entries keep their FIFO order.
    let left = |entries: Vec<&TaggedEntry<u32>>| {
        let mut left: Vec<_> = entries.into_iter().cloned().collect();
        left.sort_by_key(|e| (e.tag.iter, e.tag.w_id));
        left
    };
    prop_assert_eq!(
        left(rotating.iter().collect()),
        left(oracle.iter().collect())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unbounded_sequences_match_the_sub_queues(
        ops in proptest::collection::vec((0u8..9, 0u64..12, 0usize..SENDERS, 0usize..5), 0..200),
        max_ig in 0u64..5,
    ) {
        // Iterations 0..12 over 1..=5 sub-queues: every residue aliases
        // at least twice.
        run(&ops, max_ig, 0)?;
    }

    #[test]
    fn bounded_sequences_match_the_sub_queues(
        ops in proptest::collection::vec((0u8..9, 0u64..12, 0usize..SENDERS, 0usize..5), 0..200),
        max_ig in 0u64..5,
        capacity in 1usize..4,
    ) {
        run(&ops, max_ig, capacity)?;
    }

    #[test]
    fn arrival_heavy_sequences_match_the_sub_queues(
        ops in proptest::collection::vec((0u8..14, 0u64..24, 0usize..SENDERS, 0usize..9), 0..300),
        max_ig in 1u64..4,
    ) {
        // Kinds 9..14 become enqueues too, so arrivals outnumber
        // removals and the deque grows long; 24 iterations span six or
        // more multiples of the sub-queue count.
        let ops: Vec<_> = ops
            .into_iter()
            .map(|(kind, iter, w_id, m)| (if kind >= 9 { kind % 4 } else { kind }, iter, w_id, m))
            .collect();
        run(&ops, max_ig, 0)?;
    }
}
