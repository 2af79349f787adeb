//! Instance families for the Table 1 / Figure 1 measurements.

use rand::SeedableRng;
use steiner_graph::{generators, DiGraph, UndirectedGraph, VertexId};

/// Deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// An undirected Steiner instance.
pub struct Instance {
    /// Short name for tables.
    pub name: String,
    /// The graph.
    pub graph: UndirectedGraph,
    /// The terminals.
    pub terminals: Vec<VertexId>,
}

/// Grid instances with terminals spread over the boundary; sweeping `t`
/// with fixed n+m isolates the |W| dependence of the delay.
pub fn grid_instance(rows: usize, cols: usize, t: usize) -> Instance {
    let graph = generators::grid(rows, cols);
    let n = graph.num_vertices();
    assert!(t >= 2 && t <= n);
    let terminals: Vec<VertexId> = (0..t)
        .map(|i| VertexId::new(i * (n - 1) / (t - 1)))
        .collect();
    let mut terminals = terminals;
    terminals.sort_unstable();
    terminals.dedup();
    Instance {
        name: format!("grid {rows}x{cols}, t={}", terminals.len()),
        graph,
        terminals,
    }
}

/// Theta-chain instances: `width^blocks` solutions with tiny n+m — the
/// delay stress test (output size is exponential in the input).
pub fn theta_instance(blocks: usize, width: usize) -> Instance {
    let graph = generators::theta_chain(blocks, width);
    Instance {
        name: format!("theta {blocks}x{width}"),
        graph,
        terminals: vec![VertexId(0), VertexId::new(blocks)],
    }
}

/// Bridge-rich instances: a 2-edge-connected grid core with pendant
/// bridge paths hanging off distinct core vertices and a terminal at
/// each pendant tip (plus corner 0). Every solution routes each pendant
/// terminal through its forced bridge path while the core offers many
/// alternatives, so **Unique-completion classification dominates the
/// node mix** — the workload the incremental classifier accelerates
/// (forced-path reads instead of per-leaf spanning-growth passes).
pub fn bridged_instance(rows: usize, cols: usize, pendants: usize, tail: usize) -> Instance {
    let mut graph = generators::grid(rows, cols);
    let core = rows * cols;
    assert!(pendants >= 1 && pendants <= core);
    let mut terminals = vec![VertexId(0)];
    for p in 0..pendants {
        let mut prev = VertexId::new(core - 1 - p * (core / pendants));
        for _ in 0..tail {
            let v = graph.add_vertex();
            graph
                .add_edge(prev, v)
                .expect("pendant vertices are in range");
            prev = v;
        }
        terminals.push(prev);
    }
    Instance {
        name: format!("grid {rows}x{cols} + {pendants} pendant paths"),
        graph,
        terminals,
    }
}

/// Random connected instances for n+m scaling sweeps.
pub fn random_instance(n: usize, m: usize, t: usize, seed: u64) -> Instance {
    let mut r = rng(seed);
    let graph = generators::random_connected_graph(n, m, &mut r);
    let terminals = generators::random_terminals(n, t, &mut r);
    Instance {
        name: format!("G({n},{m}), t={t}"),
        graph,
        terminals,
    }
}

/// A Steiner forest instance: `pairs` random disjoint-ish pairs on a grid.
pub fn forest_instance(
    rows: usize,
    cols: usize,
    pairs: usize,
) -> (UndirectedGraph, Vec<Vec<VertexId>>) {
    let graph = generators::grid(rows, cols);
    let n = graph.num_vertices();
    let sets: Vec<Vec<VertexId>> = (0..pairs)
        .map(|i| {
            let a = (i * 2) % n;
            let b = n - 1 - (i * 3) % n;
            vec![VertexId::new(a), VertexId::new(b.max(1).min(n - 1))]
        })
        .filter(|s| s[0] != s[1])
        .collect();
    (graph, sets)
}

/// A directed instance: layered DAG plus random terminals in the last
/// layers.
pub fn directed_instance(
    layers: usize,
    width: usize,
    t: usize,
) -> (DiGraph, VertexId, Vec<VertexId>) {
    let (d, root) = generators::layered_digraph(layers, width);
    let n = d.num_vertices();
    let terminals: Vec<VertexId> = (0..t)
        .map(|i| VertexId::new(n - 1 - (i * width) % (2 * width).min(n - 1)))
        .collect();
    let mut terminals = terminals;
    terminals.sort_unstable();
    terminals.dedup();
    (d, root, terminals)
}

/// A claw-free induced-Steiner instance: the line graph of a grid.
pub fn claw_free_instance(rows: usize, cols: usize) -> Instance {
    let base = generators::grid(rows, cols);
    let graph = steiner_graph::line_graph::line_graph(&base);
    let n = graph.num_vertices();
    Instance {
        name: format!("L(grid {rows}x{cols})"),
        graph,
        terminals: vec![VertexId(0), VertexId::new(n - 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::connectivity::all_in_one_component;

    #[test]
    fn bridged_instance_hangs_pendant_terminals() {
        let i = bridged_instance(4, 13, 4, 3);
        assert_eq!(i.graph.num_vertices(), 4 * 13 + 4 * 3);
        assert_eq!(i.terminals.len(), 5);
        assert!(all_in_one_component(&i.graph, &i.terminals, None));
        // Every pendant terminal hangs behind bridges: its tail edges
        // are cut edges of the instance.
        let bridge = steiner_graph::bridges::bridges(&i.graph, None);
        let pendant_edges = 4 * 3;
        let bridge_count = bridge.iter().filter(|&&b| b).count();
        assert!(bridge_count >= pendant_edges, "pendant tails are bridges");
    }

    #[test]
    fn instances_are_well_formed() {
        let i = grid_instance(3, 4, 4);
        assert!(all_in_one_component(&i.graph, &i.terminals, None));
        let t = theta_instance(3, 3);
        assert!(all_in_one_component(&t.graph, &t.terminals, None));
        let r = random_instance(20, 30, 5, 1);
        assert!(all_in_one_component(&r.graph, &r.terminals, None));
        assert_eq!(r.terminals.len(), 5);
    }

    #[test]
    fn forest_instance_pairs_are_valid() {
        let (g, sets) = forest_instance(3, 4, 3);
        for s in &sets {
            assert_eq!(s.len(), 2);
            assert!(s[0] != s[1]);
            assert!(s.iter().all(|v| v.index() < g.num_vertices()));
        }
    }

    #[test]
    fn directed_instance_reaches_terminals() {
        use steiner_graph::connectivity::reachable_from;
        let (d, root, w) = directed_instance(3, 3, 2);
        let reach = reachable_from(&d, root);
        assert!(w.iter().all(|v| reach[v.index()]));
    }

    #[test]
    fn claw_free_instance_is_claw_free() {
        let i = claw_free_instance(2, 3);
        assert!(steiner_graph::clawfree::is_claw_free(&i.graph));
    }
}
