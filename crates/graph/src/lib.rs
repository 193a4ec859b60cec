//! Communication-graph substrate for decentralized training.
//!
//! This crate implements everything the Hop paper assumes about the worker
//! communication topology `G = (V, E)` (§3.1):
//!
//! * [`topology`] — directed graphs with self-loops and the constructions
//!   used in the evaluation: ring, ring-based (ring + chord to the most
//!   distant node), double-ring (Fig. 11), hierarchical placement-aware
//!   graphs (Fig. 21), plus generic and randomized builders for tests.
//! * [`weights`] — weighted adjacency matrices `W`: the uniform in-degree
//!   weights of Eq. (1) and Metropolis–Hastings weights, with
//!   doubly-stochastic checks.
//! * [`paths`] — BFS shortest paths, `length(Path_{j->i})` in the
//!   iteration-gap theorems, and the graph diameter.
//! * [`spectral`] — spectral-gap computation (`1 - |lambda_2(W)|`) via a
//!   Jacobi eigensolver for symmetric `W` and a deflated power method for
//!   general `W` (§7.3.6, Fig. 21).
//! * [`bounds`] — the closed-form iteration-gap upper bounds of Table 1.
//! * [`groups`] — deterministic randomized partition scheduling for
//!   Prague-style partial all-reduce (groups derived purely from
//!   `(seed, round)`).
//!
//! # Examples
//!
//! ```
//! use hop_graph::topology::Topology;
//! use hop_graph::weights::WeightMatrix;
//!
//! let ring = Topology::ring(8);
//! let w = WeightMatrix::uniform(&ring);
//! assert!(w.is_doubly_stochastic(1e-9));
//! ```

pub mod bounds;
pub mod groups;
pub mod paths;
pub mod spectral;
pub mod topology;
pub mod weights;

pub use bounds::Bound;
pub use paths::ShortestPaths;
pub use topology::Topology;
pub use weights::WeightMatrix;
