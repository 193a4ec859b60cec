//! Shortest path lengths (BFS over directed external edges).
//!
//! `length(Path_{j->i})` — the number of edges on the shortest directed path
//! from `j` to `i`, ignoring self-loops — is the quantity that bounds the
//! iteration gap in Theorems 1 and 2. [`ShortestPaths`] keeps the whole
//! n×n table; [`diameter`] needs only one row at a time.

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
        let mut queue = VecDeque::new();
        for (start, row) in dist.iter_mut().enumerate() {
            bfs(topology, start, row, &mut queue);
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
}

/// Fills `row` (all `usize::MAX` on entry) with the distances from
/// `start`, leaving `usize::MAX` where it is unreachable.
fn bfs(topology: &Topology, start: usize, row: &mut [usize], queue: &mut VecDeque<usize>) {
    row[start] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in topology.external_out_neighbors(u) {
            if row[v] == usize::MAX {
                row[v] = row[u] + 1;
                queue.push_back(v);
            }
        }
    }
}

/// The graph diameter (max finite distance), or `None` if some node
/// cannot reach another. One BFS per node into a single reused row, so
/// memory stays linear in the graph.
///
/// # Examples
///
/// ```
/// use hop_graph::{paths, Topology};
/// assert_eq!(paths::diameter(&Topology::ring(6)), Some(3));
/// ```
pub fn diameter(topology: &Topology) -> Option<usize> {
    let mut row = vec![usize::MAX; topology.len()];
    let mut queue = VecDeque::new();
    let mut max = 0;
    for start in 0..topology.len() {
        row.fill(usize::MAX);
        bfs(topology, start, &mut row, &mut queue);
        for &d in &row {
            if d == usize::MAX {
                return None;
            }
            max = max.max(d);
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_distances() {
        let t = Topology::ring(8);
        let sp = ShortestPaths::new(&t);
        assert_eq!(sp.dist(0, 1), Some(1));
        assert_eq!(sp.dist(0, 4), Some(4));
        assert_eq!(sp.dist(0, 7), Some(1));
        assert_eq!(diameter(&t), Some(4));
    }

    #[test]
    fn ring_based_halves_diameter() {
        let t = Topology::ring_based(8);
        let sp = ShortestPaths::new(&t);
        // chords to the opposite node cut the diameter to 2.
        assert_eq!(sp.dist(0, 4), Some(1));
        assert_eq!(diameter(&t), Some(2));
    }

    #[test]
    fn directed_line_is_asymmetric() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let sp = ShortestPaths::new(&t);
        assert_eq!(sp.dist(0, 2), Some(2));
        assert_eq!(sp.dist(2, 0), None);
        assert_eq!(diameter(&t), None);
    }

    #[test]
    fn complete_graph_diameter_one() {
        assert_eq!(diameter(&Topology::complete(5)), Some(1));
    }

    #[test]
    fn self_distance_zero() {
        let sp = ShortestPaths::new(&Topology::ring(4));
        for i in 0..4 {
            assert_eq!(sp.dist(i, i), Some(0));
        }
    }
}
