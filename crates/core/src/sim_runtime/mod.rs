//! Discrete-event runtimes for every protocol.
//!
//! Each submodule drives [`hop_sim`]'s event queue and network model with
//! the corresponding protocol's state machine, doing the *actual* gradient
//! math — its results entering at virtual-time events — so a run yields
//! both timing (Figs. 12–21) and loss curves, deterministically.
//!
//! Conformance events are emitted exclusively through the
//! [`crate::choreography`] typestate handles (opened by Hop's worker
//! machine, which `decentralized` executes, or recorded via
//! [`engine::SimEngine::record_enter`]); the source-discipline test in
//! the workspace's `tests/choreography.rs` fails any other emission path.

pub(crate) mod adpsgd;
pub(crate) mod compression;
pub(crate) mod decentralized;
pub mod engine;
pub(crate) mod prague;
pub(crate) mod ps;
pub(crate) mod qgm;
pub(crate) mod ring;

pub mod recorder;

/// In-crate (it forces the private `engine::OFFLOAD_MIN_PARAMS`).
#[cfg(test)]
#[path = "../../tests/unit/compute_offload.rs"]
mod compute_offload;
