//! Queue-based synchronization primitives (the paper's §4 and §6.1).
//!
//! This crate implements the coordination substrate that replaces
//! NOTIFY-ACK in Hop:
//!
//! * [`tagged::TaggedQueue`] — a FIFO queue whose entries carry
//!   `(iter, w_id)` tags with the `enqueue` / `dequeue(m, tags)` / `size`
//!   operations defined in §4.1. It never blocks: the discrete-event
//!   runtime re-polls it, and a worker on the threaded or process runtime
//!   owns one as its inbox and waits by pumping its transport into it.
//! * [`rotating::RotatingQueues`] — the memory-bounded implementation of
//!   §6.1: `max_ig + 1` sub-queues indexed by `iter mod (max_ig + 1)`,
//!   reused like rotating registers, with stale-update discarding (stored
//!   interleaved in one `TaggedQueue`; `tests/rotating_differential.rs`
//!   holds it to the one-queue-per-sub-queue original).
//! * [`token::TokenQueue`] — the token queues of §4.2 that bound the
//!   iteration gap between adjacent workers.
//! * [`blocking`] — thread-safe blocking variants (mutex + condvar via
//!   [`sync_shim`]), kept for the perf ledger's hand-off probe.

pub mod blocking;
pub mod rotating;
pub mod sync_shim;
pub mod tagged;
pub mod token;

pub use rotating::RotatingQueues;
pub use tagged::{Tag, TaggedEntry, TaggedQueue};
pub use token::TokenQueue;
