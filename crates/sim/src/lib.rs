//! Deterministic discrete-event simulation substrate.
//!
//! The paper's testbed — 16 workers on 4 machines over 1 Gb/s Ethernet
//! with injected random (6×, probability 1/n) and deterministic (4×)
//! slowdowns — is reproduced here as a virtual-clock simulator:
//!
//! * [`events::EventQueue`] — a total-ordered event queue (time, then
//!   insertion sequence) over an arbitrary payload: one binary heap on
//!   packed integer keys, with FIFO lanes for events that arrive already
//!   in time order.
//! * [`cluster::ClusterSpec`] — worker→machine placement, per-worker
//!   compute times, link latency/bandwidth (intra vs inter machine), and
//!   per-node NIC serialization (the effect that makes a parameter server
//!   a hotspot: all ingress transfers at a node share its NIC).
//! * [`hetero::SlowdownModel`] — the paper's slowdown processes, sampled
//!   deterministically from `(seed, worker, iteration)` so event order
//!   cannot perturb the experiment.
//! * [`faults::FaultPlan`] — deterministic fault injection (message loss,
//!   worker churn, byzantine updates) consumed by the engine through [`faults::NetModel`] verdicts, with a
//!   [`faults::FaultLog`] sidecar for the fault-aware conformance oracle.
//! * [`trace::Trace`] — per-iteration timing records with iteration-gap
//!   accounting used to validate Table 1 empirically.
//!
//! # Examples
//!
//! ```
//! use hop_sim::events::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.push(2.0, "later");
//! q.push(1.0, "sooner");
//! assert_eq!(q.pop(), Some((1.0, "sooner")));
//! ```

pub mod cluster;
pub mod events;
pub mod faults;
pub mod hetero;
pub mod trace;

pub use cluster::{ClusterSpec, LinkModel, Network};
pub use events::EventQueue;
pub use faults::{
    ByzSpec, ByzVariant, CrashSpec, FaultEvent, FaultLog, FaultPlan, NetModel, Verdict,
};
pub use hetero::SlowdownModel;
pub use trace::{IterationRecord, Trace};
