//! Topology design toolbox: the Fig. 11/21 graphs, their spectral gaps,
//! and the Table 1 iteration-gap bounds.
//!
//! ```sh
//! cargo run --release --example topology_design
//! ```

use hop::graph::bounds::{self, BaseSetting};
use hop::graph::{paths, spectral, ShortestPaths, Topology, WeightMatrix};
use hop::metrics::Table;

fn main() {
    // Fig. 11: the evaluation graphs, with spectral gaps.
    let mut graphs = Table::new(vec![
        "graph",
        "nodes",
        "in-degree",
        "diameter",
        "spectral gap",
    ]);
    let fig11: [(&str, Topology); 6] = [
        ("ring(16)", Topology::ring(16)),
        ("ring-based(16)", Topology::ring_based(16)),
        ("double-ring(16)", Topology::double_ring(16)),
        ("torus(4x4)", Topology::torus(4, 4)),
        ("hypercube(4)", Topology::hypercube(4)),
        ("all-reduce(16)", Topology::complete(16)),
    ];
    for (name, topo) in &fig11 {
        let w = WeightMatrix::uniform(topo);
        graphs.add_row(vec![
            name.to_string(),
            topo.len().to_string(),
            topo.in_degree(0).to_string(),
            paths::diameter(topo).map_or("inf".into(), |d| d.to_string()),
            format!("{:.4}", spectral::spectral_gap(&w)),
        ]);
    }
    println!("Fig. 11 evaluation graphs:\n\n{graphs}");

    // Fig. 21: placement-aware graphs for 8 workers on 3 machines.
    let mut placement = Table::new(vec!["setting", "spectral gap", "doubly stochastic W"]);
    let settings: [(&str, Topology); 3] = [
        ("1: ring-based(8)", Topology::ring_based(8)),
        (
            "2: hierarchical, 1 bridge",
            Topology::hierarchical(&[3, 3, 2], 1),
        ),
        (
            "3: hierarchical, full bridge",
            Topology::hierarchical(&[3, 3, 2], usize::MAX),
        ),
    ];
    for (name, topo) in &settings {
        let uniform = WeightMatrix::uniform(topo);
        let (w, kind) = if uniform.is_doubly_stochastic(1e-9) {
            (uniform, "uniform Eq.(1)")
        } else {
            (WeightMatrix::metropolis(topo), "Metropolis")
        };
        placement.add_row(vec![
            name.to_string(),
            format!("{:.4}", spectral::spectral_gap(&w)),
            kind.to_string(),
        ]);
    }
    println!("Fig. 21 placement-aware graphs (8 workers on 3/3/2 machines):\n\n{placement}");

    // Table 1: gap bounds on the 16-ring for the farthest pair.
    let topo = Topology::ring(16);
    let sp = ShortestPaths::new(&topo);
    let (i, j) = (0, 8); // farthest pair on the ring
    let mut t1 = Table::new(vec!["setting", "bound on Iter(i)-Iter(j), farthest pair"]);
    t1.add_row(vec![
        "standard".into(),
        bounds::standard(sp.dist(j, i)).to_string(),
    ]);
    t1.add_row(vec![
        "staleness s=5".into(),
        bounds::staleness(5, sp.dist(j, i)).to_string(),
    ]);
    t1.add_row(vec!["backup workers".into(), bounds::backup().to_string()]);
    t1.add_row(vec![
        "NOTIFY-ACK".into(),
        bounds::notify_ack(sp.dist(j, i), sp.dist(i, j)).to_string(),
    ]);
    t1.add_row(vec![
        "backup + tokens max_ig=5".into(),
        BaseSetting::BackupWorkers
            .pair_bound_with_tokens(5, sp.dist(j, i), sp.dist(i, j))
            .to_string(),
    ]);
    println!("Table 1 bounds on ring(16), pair (0, 8):\n\n{t1}");
}
