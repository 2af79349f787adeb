//! Workload generators.
//!
//! The paper has no datasets (it is a theory paper), so the benchmark and
//! test workloads are synthetic families chosen to exercise its claims:
//!
//! * [`theta_graph`] / [`theta_chain`] — solution-dense families where the
//!   number of s-t paths (and of minimal Steiner trees) grows as `kᵇ`,
//!   stressing the *delay* rather than the total time;
//! * [`grid`] / [`ladder`] — planar instances with many bridgeless regions;
//! * [`random_connected_graph`] — G(n, m) scaling sweeps;
//! * [`random_rooted_dag`] / [`layered_digraph`] — directed Steiner inputs;
//! * line graphs of random graphs — claw-free inputs for §7 (see
//!   [`random_claw_free`]).

use crate::digraph::DiGraph;
use crate::ids::VertexId;
use crate::line_graph::line_graph;
use crate::undirected::UndirectedGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Path with `n` vertices (`n − 1` edges).
pub fn path(n: usize) -> UndirectedGraph {
    let mut g = UndirectedGraph::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        g.add_edge_indices(i - 1, i).expect("path edge");
    }
    g
}

/// Cycle with `n ≥ 3` vertices.
pub fn cycle(n: usize) -> UndirectedGraph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut g = path(n);
    g.add_edge_indices(n - 1, 0).expect("closing edge");
    g
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> UndirectedGraph {
    let mut g = UndirectedGraph::with_capacity(n, n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in u + 1..n {
            g.add_edge_indices(u, v).expect("complete edge");
        }
    }
    g
}

/// Complete bipartite graph `K_{a,b}` (left side `0..a`, right `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> UndirectedGraph {
    let mut g = UndirectedGraph::with_capacity(a + b, a * b);
    for u in 0..a {
        for v in a..a + b {
            g.add_edge_indices(u, v).expect("bipartite edge");
        }
    }
    g
}

/// Star with center `0` and `leaves` leaves `1..=leaves`.
pub fn star(leaves: usize) -> UndirectedGraph {
    let mut g = UndirectedGraph::with_capacity(leaves + 1, leaves);
    for v in 1..=leaves {
        g.add_edge_indices(0, v).expect("star edge");
    }
    g
}

/// `rows × cols` grid graph; vertex `(r, c)` has index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> UndirectedGraph {
    let n = rows * cols;
    let mut g = UndirectedGraph::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.add_edge_indices(v, v + 1).expect("grid edge");
            }
            if r + 1 < rows {
                g.add_edge_indices(v, v + cols).expect("grid edge");
            }
        }
    }
    g
}

/// Ladder graph: a `2 × n` grid.
pub fn ladder(n: usize) -> UndirectedGraph {
    grid(2, n)
}

/// Theta graph: vertices `s = 0` and `t = 1` joined by `paths` internally
/// disjoint paths of `length ≥ 1` edges each. Has exactly `paths` s-t paths.
pub fn theta_graph(paths: usize, length: usize) -> UndirectedGraph {
    assert!(length >= 1, "paths need at least one edge");
    assert!(paths >= 1);
    let internal = length - 1;
    let n = 2 + paths * internal;
    let mut g = UndirectedGraph::with_capacity(n, paths * length);
    for p in 0..paths {
        let mut prev = 0; // s
        for i in 0..internal {
            let v = 2 + p * internal + i;
            g.add_edge_indices(prev, v).expect("theta edge");
            prev = v;
        }
        g.add_edge_indices(prev, 1).expect("theta edge");
    }
    g
}

/// A chain of `blocks` theta blocks, each offering `width` parallel
/// two-edge routes between consecutive hubs. The hubs are
/// `0, 1, …, blocks`; the number of hub-to-hub paths from `0` to `blocks`
/// is `width^blocks`, so enumeration output is exponential while `n + m`
/// stays linear in `blocks · width` — the delay stress test.
pub fn theta_chain(blocks: usize, width: usize) -> UndirectedGraph {
    assert!(width >= 1 && blocks >= 1);
    let n = (blocks + 1) + blocks * width;
    let mut g = UndirectedGraph::with_capacity(n, 2 * blocks * width);
    for b in 0..blocks {
        let (s, t) = (b, b + 1);
        for w in 0..width {
            let mid = blocks + 1 + b * width + w;
            g.add_edge_indices(s, mid).expect("theta-chain edge");
            g.add_edge_indices(mid, t).expect("theta-chain edge");
        }
    }
    g
}

/// Uniformly random recursive tree on `n` vertices: vertex `v` attaches to
/// a uniform vertex among `0..v`.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> UndirectedGraph {
    let mut g = UndirectedGraph::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge_indices(parent, v).expect("tree edge");
    }
    g
}

/// Connected simple random graph: a random tree plus distinct random extra
/// edges up to `m` total. `m` is clamped to `[n − 1, n(n−1)/2]`.
pub fn random_connected_graph<R: Rng>(n: usize, m: usize, rng: &mut R) -> UndirectedGraph {
    assert!(n >= 1);
    let max_m = n * n.saturating_sub(1) / 2;
    let m = m.max(n.saturating_sub(1)).min(max_m);
    let mut g = random_tree(n, rng);
    let mut present: HashSet<(usize, usize)> = g
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (u.index().min(v.index()), u.index().max(v.index()))
        })
        .collect();
    while g.num_edges() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            g.add_edge_indices(u, v).expect("extra edge");
        }
    }
    g
}

/// Random simple digraph with `m` arcs (no self-loops, no parallel arcs;
/// antiparallel pairs allowed). `m` is clamped to `n(n−1)`.
pub fn random_digraph<R: Rng>(n: usize, m: usize, rng: &mut R) -> DiGraph {
    assert!(n >= 1);
    let m = m.min(n * n.saturating_sub(1));
    let mut d = DiGraph::with_capacity(n, m);
    let mut present: HashSet<(usize, usize)> = HashSet::with_capacity(m);
    while d.num_arcs() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if present.insert((u, v)) {
            d.add_arc_indices(u, v).expect("random arc");
        }
    }
    d
}

/// Random DAG: arcs only go forward along a random permutation, plus a
/// spine guaranteeing that vertex `order[0]` reaches everything. Returns
/// the digraph and its unique source.
pub fn random_rooted_dag<R: Rng>(n: usize, m: usize, rng: &mut R) -> (DiGraph, VertexId) {
    assert!(n >= 1);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut d = DiGraph::with_capacity(n, m);
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    // Spine: order[i] -> order[i+1], so the first vertex reaches all.
    for i in 1..n {
        let (u, v) = (order[i - 1], order[i]);
        present.insert((u, v));
        d.add_arc_indices(u, v).expect("spine arc");
    }
    let max_m = n * n.saturating_sub(1) / 2;
    let m = m.max(n.saturating_sub(1)).min(max_m);
    let mut rank = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v] = i;
    }
    while d.num_arcs() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || rank[u] >= rank[v] {
            continue;
        }
        if present.insert((u, v)) {
            d.add_arc_indices(u, v).expect("dag arc");
        }
    }
    (d, VertexId::new(order[0]))
}

/// Layered digraph: a root, then `layers` layers of `width` vertices; every
/// vertex has arcs to all vertices in the next layer. The root reaches all
/// vertices and the digraph is rich in rooted Steiner trees.
pub fn layered_digraph(layers: usize, width: usize) -> (DiGraph, VertexId) {
    assert!(layers >= 1 && width >= 1);
    let n = 1 + layers * width;
    let mut d = DiGraph::with_capacity(n, width + (layers - 1) * width * width);
    let root = VertexId(0);
    for w in 0..width {
        d.add_arc_indices(0, 1 + w).expect("root arc");
    }
    for l in 1..layers {
        for u in 0..width {
            for v in 0..width {
                d.add_arc_indices(1 + (l - 1) * width + u, 1 + l * width + v)
                    .expect("layer arc");
            }
        }
    }
    (d, root)
}

/// Samples `t` distinct vertices of a graph with `n` vertices.
pub fn random_terminals<R: Rng>(n: usize, t: usize, rng: &mut R) -> Vec<VertexId> {
    assert!(t <= n, "cannot sample {t} terminals from {n} vertices");
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    let mut picked: Vec<VertexId> = all[..t].iter().map(|&v| VertexId::new(v)).collect();
    picked.sort_unstable();
    picked
}

/// A random claw-free graph: the line graph of a random connected graph on
/// `base_n` vertices with `base_m` edges (line graphs are claw-free).
pub fn random_claw_free<R: Rng>(base_n: usize, base_m: usize, rng: &mut R) -> UndirectedGraph {
    line_graph(&random_connected_graph(base_n, base_m, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::connected_components;
    use rand::SeedableRng;

    #[test]
    fn structured_families_have_expected_sizes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(complete_bipartite(2, 3).num_edges(), 6);
        assert_eq!(star(4).num_edges(), 4);
        assert_eq!(grid(3, 4).num_vertices(), 12);
        assert_eq!(grid(3, 4).num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(ladder(5).num_vertices(), 10);
    }

    #[test]
    fn theta_graph_shape() {
        let g = theta_graph(3, 2);
        assert_eq!(g.num_vertices(), 2 + 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(VertexId(0)), 3);
        assert_eq!(g.degree(VertexId(1)), 3);
        let c = connected_components(&g, None);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn theta_graph_length_one_is_parallel_edges() {
        let g = theta_graph(4, 1);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn theta_chain_shape() {
        let g = theta_chain(3, 2);
        assert_eq!(g.num_vertices(), 4 + 6);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(connected_components(&g, None).count, 1);
    }

    #[test]
    fn random_tree_is_connected_tree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in 1..30 {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.num_edges(), n - 1);
            assert_eq!(
                connected_components(&g, None).count,
                1.min(n).max(usize::from(n > 0))
            );
        }
    }

    #[test]
    fn random_connected_graph_is_connected_and_simple() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for case in 0..20 {
            let n = 2 + case;
            let g = random_connected_graph(n, n + 3, &mut rng);
            assert_eq!(connected_components(&g, None).count, 1);
            let mut seen = HashSet::new();
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                let key = (u.0.min(v.0), u.0.max(v.0));
                assert!(
                    seen.insert(key),
                    "no parallel edges in the generator output"
                );
            }
        }
    }

    #[test]
    fn random_connected_graph_clamps_m() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = random_connected_graph(4, 100, &mut rng);
        assert_eq!(g.num_edges(), 6, "clamped to K_4");
        let g2 = random_connected_graph(5, 0, &mut rng);
        assert_eq!(g2.num_edges(), 4, "clamped up to a spanning tree");
    }

    #[test]
    fn rooted_dag_root_reaches_all() {
        use crate::connectivity::reachable_from;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let (d, root) = random_rooted_dag(12, 25, &mut rng);
            let reach = reachable_from(&d, root);
            assert!(reach.iter().all(|&b| b));
        }
    }

    #[test]
    fn layered_digraph_shape() {
        use crate::connectivity::reachable_from;
        let (d, root) = layered_digraph(3, 2);
        assert_eq!(d.num_vertices(), 7);
        assert_eq!(d.num_arcs(), 2 + 4 + 4);
        assert!(reachable_from(&d, root).iter().all(|&b| b));
    }

    #[test]
    fn random_terminals_are_distinct_sorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t = random_terminals(10, 4, &mut rng);
        assert_eq!(t.len(), 4);
        for w in t.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn random_claw_free_is_claw_free() {
        use crate::clawfree::is_claw_free;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = random_claw_free(8, 12, &mut rng);
        assert!(is_claw_free(&g));
    }
}
