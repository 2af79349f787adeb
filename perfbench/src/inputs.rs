//! Input generators. Every input is a pure function of the run's seed and
//! the generator's parameters.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use steiner_graph::{generators, DiGraph, UndirectedGraph, VertexId};

/// A generator seeded from the run seed and a per-use salt, so the inputs
/// of different workloads and instances are independent.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` distinct vertices out of `0..n`, sorted.
pub fn pick_vertices(n: usize, count: usize, rng: &mut StdRng) -> Vec<VertexId> {
    generators::random_terminals(n, count, rng)
}

/// Random sparse connected graph G(n, m) with `t` random terminals.
pub fn random_instance(
    n: usize,
    m: usize,
    t: usize,
    rng: &mut StdRng,
) -> (UndirectedGraph, Vec<VertexId>) {
    let g = generators::random_connected_graph(n, m, rng);
    let w = pick_vertices(n, t, rng);
    (g, w)
}

/// A `rows × cols` grid core with `pendants` bridge paths of `tail` edges
/// hanging off distinct random core vertices; the terminals are corner 0
/// and every pendant tip. Every solution routes each pendant terminal
/// through its forced bridge path, so unique-completion classification
/// dominates the enumeration.
pub fn bridged_instance(
    rows: usize,
    cols: usize,
    pendants: usize,
    tail: usize,
    rng: &mut StdRng,
) -> (UndirectedGraph, Vec<VertexId>) {
    let mut g = generators::grid(rows, cols);
    let core = rows * cols;
    let mut anchors: Vec<usize> = (1..core).collect();
    anchors.shuffle(rng);
    let mut terminals = vec![VertexId(0)];
    for &anchor in &anchors[..pendants] {
        let mut prev = VertexId::new(anchor);
        for _ in 0..tail {
            let v = g.add_vertex();
            g.add_edge(prev, v).expect("pendant vertices are in range");
            prev = v;
        }
        terminals.push(prev);
    }
    (g, terminals)
}

/// A `rows × cols` grid with `t` random terminals.
pub fn grid_terminals(
    rows: usize,
    cols: usize,
    t: usize,
    rng: &mut StdRng,
) -> (UndirectedGraph, Vec<VertexId>) {
    let g = generators::grid(rows, cols);
    let w = pick_vertices(rows * cols, t, rng);
    (g, w)
}

/// A `rows × cols` grid with `pairs` terminal pairs over distinct random
/// vertices.
pub fn grid_forest(
    rows: usize,
    cols: usize,
    pairs: usize,
    rng: &mut StdRng,
) -> (UndirectedGraph, Vec<Vec<VertexId>>) {
    let g = generators::grid(rows, cols);
    let mut vs: Vec<usize> = (0..rows * cols).collect();
    vs.shuffle(rng);
    let sets = (0..pairs)
        .map(|i| {
            let mut s = vec![VertexId::new(vs[2 * i]), VertexId::new(vs[2 * i + 1])];
            s.sort_unstable();
            s
        })
        .collect();
    (g, sets)
}

/// A layered DAG (root, then `layers` complete bipartite layers of
/// `width`) with `t` random terminals in the last two layers.
pub fn layered_dag(
    layers: usize,
    width: usize,
    t: usize,
    rng: &mut StdRng,
) -> (DiGraph, VertexId, Vec<VertexId>) {
    let (d, root) = generators::layered_digraph(layers, width);
    let first = 1 + (layers.saturating_sub(2)) * width;
    let mut cands: Vec<usize> = (first..d.num_vertices()).collect();
    cands.shuffle(rng);
    let mut w: Vec<VertexId> = cands[..t].iter().map(|&v| VertexId::new(v)).collect();
    w.sort_unstable();
    (d, root, w)
}

/// A Zipf(1)-distributed rank in `0..n`: rank `r` has weight `1/(r+1)`.
pub fn zipf(n: usize, rng: &mut StdRng) -> usize {
    let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let u = (rng.gen_range(0..1u64 << 53) as f64) / (1u64 << 53) as f64 * h;
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / (r + 1) as f64;
        if u < acc {
            return r;
        }
    }
    n - 1
}
