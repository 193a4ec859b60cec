//! # Hop: Heterogeneity-Aware Decentralized Training (Rust reproduction)
//!
//! Facade crate re-exporting the whole workspace. See the repository
//! `README.md` for an overview, the crate layout, and build/run
//! instructions, and `tests/paper_claims.rs` for the paper's claims as
//! one pinned table.
//!
//! # Examples
//!
//! ```
//! use hop::graph::{Topology, WeightMatrix};
//!
//! let topo = Topology::ring_based(16);
//! let w = WeightMatrix::uniform(&topo);
//! assert!(w.is_doubly_stochastic(1e-9));
//! ```

pub use hop_core as core;
// Parallel experiment sweeps, surfaced at the facade root: build a
// `hop::sweep::SweepGrid`, run it with `hop::sweep::SweepRunner`.
pub use hop_core::sweep;
pub use hop_data as data;
pub use hop_graph as graph;
pub use hop_metrics as metrics;
pub use hop_model as model;
pub use hop_queue as queue;
pub use hop_sim as sim;
pub use hop_tensor as tensor;
pub use hop_util as util;
pub use hop_wire as wire;
