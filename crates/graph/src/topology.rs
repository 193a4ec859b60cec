//! Directed communication topologies with self-loops.
//!
//! Following §3.1 of the paper, every node has a self-loop (`(i, i) ∈ E`):
//! a worker's own update is always available locally. An edge `(i, j)`
//! means worker `i` sends its parameters to worker `j` each iteration.

use hop_util::Xoshiro256;
use std::collections::BTreeSet;
use std::fmt;

/// A directed graph over workers `0..n` with mandatory self-loops.
///
/// Neighbor lists are kept sorted for determinism and stored in CSR
/// (compressed sparse row) form: one flat adjacency array plus `n + 1`
/// offsets per direction, so a 10k-worker topology is a handful of
/// allocations instead of tens of thousands. `in_neighbors`/
/// `out_neighbors` include the node itself (the paper's `Nin`/`Nout`);
/// the `external_*` variants exclude it, which is what actually crosses
/// the network. The external views and the global external edge list are
/// precomputed at construction, so every accessor returns a borrowed
/// slice — the per-event hot paths in `hop-core` never allocate to ask
/// who their neighbors are.
///
/// # Examples
///
/// ```
/// use hop_graph::topology::Topology;
/// let t = Topology::ring(4);
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.in_neighbors(0), &[0, 1, 3]);
/// assert_eq!(t.external_in_neighbors(0), &[1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// Flattened sorted in-neighbor lists, including self.
    in_adj: Vec<usize>,
    /// `in_adj` row offsets, length `n + 1`.
    in_off: Vec<usize>,
    /// Flattened sorted out-neighbor lists, including self.
    out_adj: Vec<usize>,
    /// `out_adj` row offsets, length `n + 1`.
    out_off: Vec<usize>,
    /// Flattened sorted in-neighbor lists, excluding self.
    ext_in_adj: Vec<usize>,
    /// `ext_in_adj` row offsets, length `n + 1`.
    ext_in_off: Vec<usize>,
    /// Flattened sorted out-neighbor lists, excluding self.
    ext_out_adj: Vec<usize>,
    /// `ext_out_adj` row offsets, length `n + 1`.
    ext_out_off: Vec<usize>,
    /// All directed edges excluding self-loops, sorted.
    ext_edges: Vec<(usize, usize)>,
}

impl Topology {
    /// Builds a topology from directed edges (self-loops added implicitly).
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n > 0, "topology must have at least one node");
        let mut in_sets: Vec<BTreeSet<usize>> = (0..n).map(|i| BTreeSet::from([i])).collect();
        let mut out_sets: Vec<BTreeSet<usize>> = (0..n).map(|i| BTreeSet::from([i])).collect();
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            out_sets[u].insert(v);
            in_sets[v].insert(u);
        }
        Self::from_sorted_sets(n, &in_sets, &out_sets)
    }

    /// Flattens per-node sorted neighbor sets (self-loops already present)
    /// into the CSR arrays, deriving the external views and edge list.
    fn from_sorted_sets(
        n: usize,
        in_sets: &[BTreeSet<usize>],
        out_sets: &[BTreeSet<usize>],
    ) -> Self {
        let total_in: usize = in_sets.iter().map(BTreeSet::len).sum();
        let total_out: usize = out_sets.iter().map(BTreeSet::len).sum();
        let mut t = Self {
            n,
            in_adj: Vec::with_capacity(total_in),
            in_off: Vec::with_capacity(n + 1),
            out_adj: Vec::with_capacity(total_out),
            out_off: Vec::with_capacity(n + 1),
            ext_in_adj: Vec::with_capacity(total_in - n),
            ext_in_off: Vec::with_capacity(n + 1),
            ext_out_adj: Vec::with_capacity(total_out - n),
            ext_out_off: Vec::with_capacity(n + 1),
            ext_edges: Vec::with_capacity(total_out - n),
        };
        t.in_off.push(0);
        t.out_off.push(0);
        t.ext_in_off.push(0);
        t.ext_out_off.push(0);
        for u in 0..n {
            // BTreeSet iteration is ascending, so each CSR row is sorted
            // and (with u ascending) `ext_edges` is globally sorted.
            for &v in &in_sets[u] {
                t.in_adj.push(v);
                if v != u {
                    t.ext_in_adj.push(v);
                }
            }
            for &v in &out_sets[u] {
                t.out_adj.push(v);
                if v != u {
                    t.ext_out_adj.push(v);
                    t.ext_edges.push((u, v));
                }
            }
            t.in_off.push(t.in_adj.len());
            t.out_off.push(t.out_adj.len());
            t.ext_in_off.push(t.ext_in_adj.len());
            t.ext_out_off.push(t.ext_out_adj.len());
        }
        t
    }

    /// Builds from *undirected* edges: each pair becomes two directed edges.
    pub fn from_undirected_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            directed.push((u, v));
            directed.push((v, u));
        }
        Self::from_edges(n, &directed)
    }

    /// Bidirectional ring: node `i` connects to `i±1 (mod n)` (Fig. 11a).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least 2 nodes");
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_undirected_edges(n, &edges)
    }

    /// Ring-based graph (Fig. 11b): ring plus a chord from every node to the
    /// most distant node (`i + n/2 mod n`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is odd (the "most distant node" is ambiguous).
    pub fn ring_based(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "ring-based graph needs even n >= 4"
        );
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for i in 0..n / 2 {
            edges.push((i, i + n / 2));
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Double-ring graph (Fig. 11c): two ring-based graphs of `n/2` nodes
    /// connected node-to-node.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 8` and `n/2` is even.
    pub fn double_ring(n: usize) -> Self {
        assert!(
            n >= 8 && n.is_multiple_of(2) && (n / 2).is_multiple_of(2),
            "double-ring needs n >= 8 with n/2 even"
        );
        let half = n / 2;
        let mut edges = Vec::new();
        for ring_start in [0, half] {
            for i in 0..half {
                edges.push((ring_start + i, ring_start + (i + 1) % half));
            }
            for i in 0..half / 2 {
                edges.push((ring_start + i, ring_start + i + half / 2));
            }
        }
        for i in 0..half {
            edges.push((i, i + half));
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Complete graph: the communication pattern of All-Reduce.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn complete(n: usize) -> Self {
        assert!(n > 0, "complete graph needs at least one node");
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Star graph with node 0 as the hub (the PS communication pattern).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star needs at least 2 nodes");
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Self::from_undirected_edges(n, &edges)
    }

    /// Placement-aware hierarchical graph (Fig. 21 settings 2/3): an
    /// all-reduce (complete) graph within each machine, and a ring between
    /// machines. `machine_sizes[m]` is the number of workers on machine `m`;
    /// workers are numbered consecutively by machine.
    ///
    /// `bridges_per_machine` controls how many workers of each machine join
    /// the inter-machine ring: `1` reproduces our "setting 2" (a single
    /// representative per machine), `usize::MAX` (or any value >= machine
    /// size) reproduces "setting 3" (every worker is bridged round-robin to
    /// the next machine).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 machines or any machine is empty.
    pub fn hierarchical(machine_sizes: &[usize], bridges_per_machine: usize) -> Self {
        assert!(machine_sizes.len() >= 2, "need at least 2 machines");
        assert!(
            machine_sizes.iter().all(|&s| s > 0),
            "machines must be non-empty"
        );
        assert!(bridges_per_machine >= 1, "need at least one bridge");
        let n: usize = machine_sizes.iter().sum();
        let mut starts = Vec::with_capacity(machine_sizes.len());
        let mut acc = 0;
        for &s in machine_sizes {
            starts.push(acc);
            acc += s;
        }
        let mut edges = Vec::new();
        // All-reduce within each machine.
        for (m, &size) in machine_sizes.iter().enumerate() {
            let s = starts[m];
            for a in 0..size {
                for b in (a + 1)..size {
                    edges.push((s + a, s + b));
                }
            }
        }
        // Ring between machines: bridge worker k of machine m connects to
        // bridge worker k of machine m+1 (wrapping in both dimensions).
        let n_machines = machine_sizes.len();
        for m in 0..n_machines {
            let next = (m + 1) % n_machines;
            let k_here = bridges_per_machine.min(machine_sizes[m]);
            for k in 0..k_here {
                let from = starts[m] + k;
                let to = starts[next] + (k % machine_sizes[next]);
                if from != to {
                    edges.push((from, to));
                }
            }
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// 2-D torus (wrap-around grid) of `rows x cols` workers: each node
    /// connects to its four grid neighbors. A common datacenter-friendly
    /// topology with degree 4 and diameter `(rows + cols) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is < 3 (smaller wraps create duplicate
    /// edges).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "torus needs dimensions >= 3");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                edges.push((idx(r, c), idx(r, (c + 1) % cols)));
                edges.push((idx(r, c), idx((r + 1) % rows, c)));
            }
        }
        Self::from_undirected_edges(rows * cols, &edges)
    }

    /// `d`-dimensional hypercube over `2^d` workers: nodes differing in
    /// one bit are connected. Degree `d`, diameter `d` — a dense,
    /// fast-mixing topology.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= dim <= 16`.
    pub fn hypercube(dim: u32) -> Self {
        assert!((1..=16).contains(&dim), "hypercube dimension out of range");
        let n = 1usize << dim;
        let mut edges = Vec::new();
        for v in 0..n {
            for bit in 0..dim {
                let u = v ^ (1 << bit);
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Random `degree`-regular expander over `n` nodes: `degree / 2`
    /// independent random Hamiltonian cycles superimposed. Each cycle
    /// visits every node, so the union is connected by construction, and
    /// superimposed random cycles are expanders with high probability —
    /// logarithmic diameter at constant degree, which is what keeps
    /// gossip rounds cheap at 10k+ workers where a ring's diameter
    /// (n/2) would dominate convergence.
    ///
    /// Distinct cycles can occasionally share an edge (the duplicate is
    /// deduped), so external degrees are bounded by `degree` rather than
    /// exactly equal to it; every node keeps degree >= 2 from its own
    /// cycle edges. Deterministic in `(n, degree, seed)`.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 3` and `degree` is even with `2 <= degree < n`.
    pub fn expander(n: usize, degree: usize, seed: u64) -> Self {
        assert!(n >= 3, "expander needs at least 3 nodes");
        assert!(
            degree >= 2 && degree < n && degree.is_multiple_of(2),
            "expander degree must be even with 2 <= degree < n, got {degree} for n={n}"
        );
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(n * degree / 2);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..degree / 2 {
            rng.shuffle(&mut order);
            for i in 0..n {
                edges.push((order[i], order[(i + 1) % n]));
            }
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Random connected undirected graph: a random spanning tree plus
    /// `extra_edges` random chords. Used by property tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random_connected(n: usize, extra_edges: usize, rng: &mut Xoshiro256) -> Self {
        assert!(n > 0, "graph needs at least one node");
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut edges = Vec::new();
        for i in 1..n {
            let parent = order[rng.index(i)];
            edges.push((order[i], parent));
        }
        let mut added = 0;
        let mut guard = 0;
        while added < extra_edges && guard < extra_edges * 20 + 100 {
            guard += 1;
            if n < 2 {
                break;
            }
            let u = rng.index(n);
            let v = rng.index(n);
            if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                edges.push((u, v));
                added += 1;
            }
        }
        Self::from_undirected_edges(n, &edges)
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology is empty (never true: constructors require n>0).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-neighbors of `i`, including `i` itself (the paper's `Nin(i)`).
    pub fn in_neighbors(&self, i: usize) -> &[usize] {
        &self.in_adj[self.in_off[i]..self.in_off[i + 1]]
    }

    /// Out-neighbors of `i`, including `i` itself (the paper's `Nout(i)`).
    pub fn out_neighbors(&self, i: usize) -> &[usize] {
        &self.out_adj[self.out_off[i]..self.out_off[i + 1]]
    }

    /// In-neighbors excluding the self-loop: senders whose updates arrive
    /// over the network. Precomputed — a borrow, not an allocation.
    pub fn external_in_neighbors(&self, i: usize) -> &[usize] {
        &self.ext_in_adj[self.ext_in_off[i]..self.ext_in_off[i + 1]]
    }

    /// Out-neighbors excluding the self-loop: receivers of network sends.
    /// Precomputed — a borrow, not an allocation.
    pub fn external_out_neighbors(&self, i: usize) -> &[usize] {
        &self.ext_out_adj[self.ext_out_off[i]..self.ext_out_off[i + 1]]
    }

    /// `|Nin(i)|`, including the self-loop.
    pub fn in_degree(&self, i: usize) -> usize {
        self.in_off[i + 1] - self.in_off[i]
    }

    /// Whether the directed edge `(u, v)` exists (self-loops always do).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// All directed edges excluding self-loops, sorted. Precomputed — a
    /// borrow, not an allocation.
    pub fn external_edges(&self) -> &[(usize, usize)] {
        &self.ext_edges
    }

    /// Depth-first reachability of every node from node 0 along one
    /// direction of the CSR adjacency.
    fn all_reachable(&self, adj: &[usize], off: &[usize]) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[off[u]..off[u + 1]] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Whether every ordered pair of nodes is connected by a directed path.
    pub fn is_strongly_connected(&self) -> bool {
        self.all_reachable(&self.out_adj, &self.out_off)
            && self.all_reachable(&self.in_adj, &self.in_off)
    }

    /// Whether the *external* graph (ignoring self-loops, treating edges as
    /// undirected) is bipartite. AD-PSGD's deadlock-free schedule requires
    /// this (§5).
    pub fn is_bipartite(&self) -> bool {
        let mut color = vec![-1i8; self.n];
        for start in 0..self.n {
            if color[start] != -1 {
                continue;
            }
            color[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                let nbrs = self
                    .external_out_neighbors(u)
                    .iter()
                    .chain(self.external_in_neighbors(u));
                for &v in nbrs {
                    if color[v] == -1 {
                        color[v] = 1 - color[u];
                        queue.push_back(v);
                    } else if color[v] == color[u] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology(n={}, external_edges={})",
            self.n,
            self.ext_edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_structure() {
        let t = Topology::ring(6);
        for i in 0..6 {
            assert_eq!(t.in_degree(i), 3); // self + 2 ring neighbors
            assert!(t.has_edge(i, (i + 1) % 6));
            assert!(t.has_edge((i + 1) % 6, i));
            assert!(t.has_edge(i, i)); // self loop
        }
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn ring_based_adds_chords() {
        let t = Topology::ring_based(8);
        for i in 0..8 {
            assert_eq!(t.in_degree(i), 4); // self + 2 ring + 1 chord
            assert!(t.has_edge(i, (i + 4) % 8));
        }
    }

    #[test]
    fn double_ring_structure() {
        let t = Topology::double_ring(16);
        assert_eq!(t.len(), 16);
        // Each node: self + 2 ring + 1 chord (within its 8-ring) + 1 bridge.
        for i in 0..16 {
            assert_eq!(t.in_degree(i), 5, "node {i}");
        }
        // Bridge edges connect i <-> i+8.
        for i in 0..8 {
            assert!(t.has_edge(i, i + 8));
            assert!(t.has_edge(i + 8, i));
        }
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn complete_graph_degrees() {
        let t = Topology::complete(5);
        for i in 0..5 {
            assert_eq!(t.in_degree(i), 5);
            assert_eq!(t.external_in_neighbors(i).len(), 4);
        }
    }

    #[test]
    fn star_center_and_leaves() {
        let t = Topology::star(5);
        assert_eq!(t.in_degree(0), 5);
        for i in 1..5 {
            assert_eq!(t.in_degree(i), 2);
        }
    }

    #[test]
    fn hierarchical_single_bridge() {
        // 8 workers on machines of 3/3/2 as in Fig. 21.
        let t = Topology::hierarchical(&[3, 3, 2], 1);
        assert_eq!(t.len(), 8);
        assert!(t.is_strongly_connected());
        // Within machine 0 (nodes 0..3) all-reduce:
        assert!(t.has_edge(0, 1) && t.has_edge(1, 2) && t.has_edge(0, 2));
        // Bridges: 0<->3, 3<->6, 6<->0.
        assert!(t.has_edge(0, 3) && t.has_edge(3, 6) && t.has_edge(6, 0));
        // Non-bridge node 1 has no inter-machine edge.
        assert!(!t.has_edge(1, 3) && !t.has_edge(1, 6));
    }

    #[test]
    fn hierarchical_full_bridge() {
        let t = Topology::hierarchical(&[3, 3, 2], usize::MAX);
        assert!(t.is_strongly_connected());
        // Every worker of machine 0 bridges to machine 1.
        assert!(t.has_edge(0, 3) && t.has_edge(1, 4) && t.has_edge(2, 5));
        // Machine 2 has 2 workers; worker 2 of machine 1 wraps to worker 0.
        assert!(t.has_edge(5, 6));
    }

    #[test]
    fn torus_structure() {
        let t = Topology::torus(3, 4);
        assert_eq!(t.len(), 12);
        for v in 0..12 {
            assert_eq!(t.in_degree(v), 5, "node {v}: self + 4 grid neighbors");
        }
        assert!(t.is_strongly_connected());
        // Wrap edges exist.
        assert!(t.has_edge(0, 3)); // row 0: col 0 <-> col 3
        assert!(t.has_edge(0, 8)); // col 0: row 0 <-> row 2
    }

    #[test]
    fn hypercube_structure() {
        let t = Topology::hypercube(3);
        assert_eq!(t.len(), 8);
        for v in 0..8 {
            assert_eq!(t.in_degree(v), 4, "self + 3 bit-flip neighbors");
        }
        assert!(t.is_strongly_connected());
        assert!(t.is_bipartite()); // hypercubes are bipartite by parity
        assert!(t.has_edge(0b000, 0b100));
        assert!(!t.has_edge(0b000, 0b110));
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for n in [1usize, 2, 5, 9, 16] {
            let t = Topology::random_connected(n, 3, &mut rng);
            assert!(t.is_strongly_connected(), "n={n}");
        }
    }

    #[test]
    fn even_ring_is_bipartite_odd_is_not() {
        assert!(Topology::ring(8).is_bipartite());
        assert!(!Topology::ring(5).is_bipartite());
        assert!(!Topology::complete(3).is_bipartite());
    }

    #[test]
    fn neighbor_lists_include_self_and_are_sorted() {
        let t = Topology::ring_based(8);
        for i in 0..8 {
            let nbrs = t.in_neighbors(i);
            assert!(nbrs.contains(&i));
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, nbrs);
        }
    }

    #[test]
    fn from_edges_dedups() {
        let t = Topology::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(t.out_neighbors(0), &[0, 1]);
        assert_eq!(t.external_edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn external_edges_are_sorted_and_consistent_with_neighbors() {
        let t = Topology::ring_based(8);
        let edges = t.external_edges();
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        for &(u, v) in edges {
            assert_ne!(u, v);
            assert!(t.external_out_neighbors(u).contains(&v));
            assert!(t.external_in_neighbors(v).contains(&u));
        }
        let total: usize = (0..8).map(|i| t.external_out_neighbors(i).len()).sum();
        assert_eq!(edges.len(), total);
    }

    #[test]
    fn expander_is_connected_and_degree_bounded() {
        let t = Topology::expander(50, 4, 11);
        assert_eq!(t.len(), 50);
        assert!(t.is_strongly_connected());
        for i in 0..50 {
            let ext = t.external_in_neighbors(i).len();
            // Two Hamiltonian cycles: 2..=4 external neighbors after dedup.
            assert!((2..=4).contains(&ext), "node {i}: degree {ext}");
            assert_eq!(t.in_neighbors(i), t.out_neighbors(i), "undirected");
        }
    }

    #[test]
    fn expander_is_deterministic_in_seed() {
        let a = Topology::expander(40, 6, 3);
        let b = Topology::expander(40, 6, 3);
        let c = Topology::expander(40, 6, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "degree must be even")]
    fn expander_rejects_odd_degree() {
        Topology::expander(10, 3, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates_range() {
        Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn line_is_not_strongly_connected_when_directed_only() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!t.is_strongly_connected());
    }

    #[test]
    fn display_mentions_size() {
        let t = Topology::ring(4);
        let s = format!("{t}");
        assert!(s.contains("n=4"));
    }
}
