//! All-pairs shortest path lengths (BFS over directed external edges).
//!
//! `length(Path_{j->i})` — the number of edges on the shortest directed path
//! from `j` to `i`, ignoring self-loops — is the quantity that bounds the
//! iteration gap in Theorems 1 and 2.

use crate::topology::Topology;
use std::collections::VecDeque;

/// Precomputed all-pairs shortest-path table for a [`Topology`].
///
/// # Examples
///
/// ```
/// use hop_graph::{ShortestPaths, Topology};
/// let sp = ShortestPaths::new(&Topology::ring(6));
/// assert_eq!(sp.dist(0, 3), Some(3));
/// assert_eq!(sp.dist(0, 0), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPaths {
    n: usize,
    /// `dist[from][to]`, `usize::MAX` when unreachable.
    dist: Vec<Vec<usize>>,
}

impl ShortestPaths {
    /// Runs BFS from every node over directed edges, excluding self-loops.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.len();
        let mut dist = vec![vec![usize::MAX; n]; n];
        for (start, row) in dist.iter_mut().enumerate() {
            row[start] = 0;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in topology.external_out_neighbors(u) {
                    if row[v] == usize::MAX {
                        row[v] = row[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        Self { n, dist }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Shortest directed path length from `from` to `to`, or `None` if
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn dist(&self, from: usize, to: usize) -> Option<usize> {
        assert!(from < self.n && to < self.n, "index out of range");
        let d = self.dist[from][to];
        (d != usize::MAX).then_some(d)
    }

    /// The graph diameter (max finite distance), or `None` if disconnected.
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0;
        for row in &self.dist {
            for &d in row {
                if d == usize::MAX {
                    return None;
                }
                max = max.max(d);
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_distances() {
        let sp = ShortestPaths::new(&Topology::ring(8));
        assert_eq!(sp.dist(0, 1), Some(1));
        assert_eq!(sp.dist(0, 4), Some(4));
        assert_eq!(sp.dist(0, 7), Some(1));
        assert_eq!(sp.diameter(), Some(4));
    }

    #[test]
    fn ring_based_halves_diameter() {
        let sp = ShortestPaths::new(&Topology::ring_based(8));
        // chords to the opposite node cut the diameter to 2.
        assert_eq!(sp.dist(0, 4), Some(1));
        assert_eq!(sp.diameter(), Some(2));
    }

    #[test]
    fn directed_line_is_asymmetric() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let sp = ShortestPaths::new(&t);
        assert_eq!(sp.dist(0, 2), Some(2));
        assert_eq!(sp.dist(2, 0), None);
        assert_eq!(sp.diameter(), None);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let sp = ShortestPaths::new(&Topology::complete(5));
        assert_eq!(sp.diameter(), Some(1));
    }

    #[test]
    fn self_distance_zero() {
        let sp = ShortestPaths::new(&Topology::ring(4));
        for i in 0..4 {
            assert_eq!(sp.dist(i, i), Some(0));
        }
    }
}
