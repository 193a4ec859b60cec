//! Weighted adjacency matrices for decentralized averaging.
//!
//! §3.1: decentralized training converges when `G` is connected and `W` is
//! doubly stochastic. Eq. (1) gives each in-neighbor's update the same
//! influence `1/|Nin(j)|`; Metropolis–Hastings weights are an alternative
//! that is doubly stochastic on any undirected graph, even irregular ones.

use crate::topology::Topology;

/// A dense `n x n` weighted adjacency matrix.
///
/// Entry `(i, j)` (row `i`, column `j`) is the influence of worker `i`'s
/// update on worker `j`, matching the paper's `W_ij` with aggregated update
/// `sum_i W_ij * u_i` at worker `j` — columns describe a receiver.
///
/// # Examples
///
/// ```
/// use hop_graph::{Topology, WeightMatrix};
/// let w = WeightMatrix::uniform(&Topology::ring(4));
/// assert!((w.get(0, 1) - 1.0 / 3.0).abs() < 1e-12);
/// assert!(w.is_doubly_stochastic(1e-9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrix {
    n: usize,
    /// Row-major `w[i * n + j] = W_ij`.
    w: Vec<f64>,
}

impl WeightMatrix {
    /// Uniform influence weights, Eq. (1): `W_ij = 1/|Nin(j)|` for
    /// `i ∈ Nin(j)` (which includes the self-loop), 0 otherwise.
    ///
    /// Columns always sum to 1; rows sum to 1 iff the graph is regular
    /// enough (true for all the paper's Fig. 11 graphs).
    pub fn uniform(topology: &Topology) -> Self {
        let n = topology.len();
        let mut w = vec![0.0; n * n];
        for j in 0..n {
            let nin = topology.in_neighbors(j);
            let share = 1.0 / nin.len() as f64;
            for &i in nin {
                w[i * n + j] = share;
            }
        }
        Self { n, w }
    }

    /// Metropolis–Hastings weights: doubly stochastic on any undirected
    /// graph. For an external edge `{i, j}`:
    /// `W_ij = 1 / max(|Nin(i)|, |Nin(j)|)`, and the self-loop absorbs the
    /// remainder.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not symmetric (every external edge must
    /// exist in both directions).
    pub fn metropolis(topology: &Topology) -> Self {
        let n = topology.len();
        for &(u, v) in topology.external_edges() {
            assert!(
                topology.has_edge(v, u),
                "metropolis weights need a symmetric topology; missing ({v},{u})"
            );
        }
        let mut w = vec![0.0; n * n];
        for i in 0..n {
            let mut self_weight = 1.0;
            for &j in topology.external_out_neighbors(i) {
                let wij = 1.0 / topology.in_degree(i).max(topology.in_degree(j)) as f64;
                w[i * n + j] = wij;
                self_weight -= wij;
            }
            w[i * n + i] = self_weight;
        }
        Self { n, w }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0 x 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Entry `W_ij`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "weight index out of range");
        self.w[i * self.n + j]
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.w
    }

    /// Sum of row `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.w[i * self.n..(i + 1) * self.n].iter().sum()
    }

    /// Sum of column `j`.
    pub fn col_sum(&self, j: usize) -> f64 {
        (0..self.n).map(|i| self.w[i * self.n + j]).sum()
    }

    /// Whether all row and column sums equal 1 within `tol`.
    pub fn is_doubly_stochastic(&self, tol: f64) -> bool {
        (0..self.n).all(|i| (self.row_sum(i) - 1.0).abs() <= tol)
            && (0..self.n).all(|j| (self.col_sum(j) - 1.0).abs() <= tol)
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Whether all entries are non-negative.
    pub fn is_nonnegative(&self) -> bool {
        self.w.iter().all(|&x| x >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_ring_weights() {
        let w = WeightMatrix::uniform(&Topology::ring(4));
        // |Nin| = 3 everywhere.
        assert!((w.get(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.get(2, 0), 0.0);
        assert!(w.is_doubly_stochastic(1e-9));
        assert!(w.is_symmetric(1e-12));
    }

    #[test]
    fn uniform_star_is_column_stochastic_only() {
        let w = WeightMatrix::uniform(&Topology::star(4));
        for j in 0..4 {
            assert!((w.col_sum(j) - 1.0).abs() < 1e-12);
        }
        // Hub row over-weighs: star is irregular so W is not doubly stochastic.
        assert!(!w.is_doubly_stochastic(1e-9));
    }

    #[test]
    fn metropolis_star_is_doubly_stochastic() {
        let w = WeightMatrix::metropolis(&Topology::star(6));
        assert!(w.is_doubly_stochastic(1e-9));
        assert!(w.is_nonnegative());
        assert!(w.is_symmetric(1e-12));
    }

    #[test]
    fn metropolis_hierarchical_is_doubly_stochastic() {
        let t = Topology::hierarchical(&[3, 3, 2], 1);
        let w = WeightMatrix::metropolis(&t);
        assert!(w.is_doubly_stochastic(1e-9));
    }

    #[test]
    fn uniform_regular_graphs_are_doubly_stochastic() {
        for t in [
            Topology::ring(8),
            Topology::ring_based(8),
            Topology::ring_based(16),
            Topology::double_ring(16),
            Topology::complete(5),
        ] {
            let w = WeightMatrix::uniform(&t);
            assert!(w.is_doubly_stochastic(1e-9), "{t}");
        }
    }

    proptest! {
        #[test]
        fn metropolis_always_doubly_stochastic(seed in 0u64..500, n in 2usize..12, extra in 0usize..8) {
            let mut rng = hop_util::Xoshiro256::seed_from_u64(seed);
            let t = Topology::random_connected(n, extra, &mut rng);
            let w = WeightMatrix::metropolis(&t);
            prop_assert!(w.is_doubly_stochastic(1e-9));
            prop_assert!(w.is_nonnegative());
        }

        #[test]
        fn uniform_always_column_stochastic(seed in 0u64..500, n in 2usize..12, extra in 0usize..8) {
            let mut rng = hop_util::Xoshiro256::seed_from_u64(seed);
            let t = Topology::random_connected(n, extra, &mut rng);
            let w = WeightMatrix::uniform(&t);
            for j in 0..n {
                prop_assert!((w.col_sum(j) - 1.0).abs() < 1e-9);
            }
        }
    }
}
