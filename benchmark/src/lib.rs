//! The repo's perf ledger: five workloads across the three runtimes,
//! end-to-end metrics with tracing off, per-layer attribution from a
//! separate traced pass. See `benchmark/README.md`.

pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod spans;
pub mod workloads;
