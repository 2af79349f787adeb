//! Committed stream-digest corpus.
//!
//! For a fixed set of instances of all four problems, [`CORPUS`] records
//! the solution count and a 64-bit FNV-1a digest of the **ordered**
//! stream, capped at [`LIMIT`] solutions. Every instance is checked under
//! six front-ends — direct push, the Theorem-20 output queue, the pull
//! iterator, `with_threads(2)` with subtree stealing, a [`ResultCache`]
//! (a cold recording, then its replay) and the service (one
//! [`EnumerationEngine`] session running the query cold, then again) —
//! so a change that reorders, drops or adds a single solution anywhere
//! in the first [`LIMIT`] fails here, even when the solution *set*
//! (which `brute.rs` checks) is unchanged. Every front-end's published
//! `EnumStats::delivered` must also equal the number of solutions folded.
//!
//! The instances include long-prefix ones (grids with corner terminals,
//! theta chains, a layered digraph): there the path engine's recursion
//! runs deep, so its prefix bookkeeping is exercised on every solution.
//! The theta chains with a pendant path, the hub with pendant terminals
//! and the theta multigraph keep bridge-forced terminals in play at
//! depth (the incremental classifier's Unique leaves) and repeat
//! removal masks across branch nodes. The `regions` instances run on a disjoint union of four
//! random graphs with interleaved vertex and edge ids, so the undirected
//! problems' query regions are a proper, renumbered part of the graph.
//!
//! After an intended stream change, regenerate the corpus with
//!
//! ```text
//! cargo test --release --test stream_digests -- --ignored --nocapture print_corpus
//! ```
//!
//! and paste the printed lines into [`CORPUS`].

use minimal_steiner::graph::digraph::DoubledDigraph;
use minimal_steiner::graph::{generators, DiGraph, EdgeId, UndirectedGraph, VertexId};
use minimal_steiner::service::{
    EngineConfig, EnumerationEngine, Query, QueryOptions, SolutionItems,
};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, ResultCache, SteinerForest,
    SteinerTree, TerminalSteinerTree,
};
use rand::SeedableRng;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

/// Solutions per stream that the digest covers.
const LIMIT: u64 = 2000;

/// `(instance, solutions, digest)`, captured from the sequential engine.
/// The `regions` entries were captured while it still prepared the whole
/// graph, before queries ran on their regions; the entries from
/// `tree/grid-3x4` on while it still carried the per-vertex reference
/// path generator and the rebuild-only classifiers.
const CORPUS: &[(&str, u64, u64)] = &[
    ("tree/grid-5x6-corners", 2000, 0x20ddb314cf00d6cd),
    ("tree/theta-chain-5x3", 243, 0xa5565555561c02fe),
    ("tree/random-60x90", 2000, 0xeb0e9dd3b65753f6),
    ("tree/ladder-12", 2000, 0xc5fb5e135b07aa33),
    ("forest/grid-5x6-crossed", 2000, 0xea1848a9666c9693),
    ("forest/theta-chain-5x3", 243, 0x3e52731204e052fe),
    ("forest/random-60x90", 2000, 0x05c4c74dcba683d8),
    ("terminal/grid-5x6-corners", 2000, 0xb6c4e6c31c571d0e),
    ("terminal/theta-chain-5x3", 243, 0xa5565555561c02fe),
    ("terminal/random-60x90", 2000, 0xbcb681e2262b80a1),
    ("directed/layered-4x3", 2000, 0xea4bab249cc4ea64),
    ("directed/grid-5x6-doubled", 2000, 0xa55f5f5d9ecb0c26),
    ("directed/random-dag-40x120", 2000, 0x338a75497c2743c4),
    ("tree/regions-4x60x90", 2000, 0x8d7015685b51504d),
    ("terminal/regions-4x60x90", 2000, 0x271c2666a333a854),
    ("forest/regions-4x60x90", 2000, 0x40ed2c2c7e081e9d),
    ("tree/grid-3x4", 87, 0x88ddc2434c87b981),
    ("forest/grid-3x4-crossed", 304, 0x9a6ba15d677a9cf8),
    ("terminal/grid-3x4", 77, 0xf5d854913d991899),
    ("directed/layered-3x3", 333, 0x0e679797a93979d4),
    ("tree/theta-chain-6x3", 729, 0xef66d3299d0c1fc9),
    ("forest/theta-chain-6x3", 729, 0xef66d3299d0c1fc9),
    ("tree/theta-chain-6x3-pendant", 729, 0x08e69de438429eda),
    ("tree/hub-pendant", 3, 0x6191168d6d184061),
    ("tree/theta-multigraph-5", 4, 0x9123f16182d87d95),
];

/// FNV-1a over the little-endian bytes of every hashed integer, so the
/// digest does not depend on the host's endianness or word size. A
/// solution hashes as its length followed by its item ids.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Count and digest of one ordered stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Digest {
    solutions: u64,
    hash: u64,
}

/// Folds solutions into a [`Digest`] in delivery order.
struct Folder(Fnv, u64);

impl Folder {
    fn new() -> Self {
        Folder(Fnv::new(), 0)
    }

    fn add<T: Hash>(&mut self, solution: &[T]) {
        solution.hash(&mut self.0);
        self.1 += 1;
    }

    fn finish(self) -> Digest {
        Digest {
            solutions: self.1,
            hash: self.0.finish(),
        }
    }
}

/// One front-end's run: its label, the digest of what its consumer got,
/// and the `delivered` count its stats published.
type Run = (&'static str, Digest, u64);

/// The push front-end's run of `e`, capped at [`LIMIT`].
fn push<P>(label: &'static str, e: Enumeration<P>) -> Run
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut f = Folder::new();
    let stats = e
        .with_limit(LIMIT)
        .for_each(|s| {
            f.add(s);
            ControlFlow::Continue(())
        })
        .expect("corpus instances are valid");
    (label, f.finish(), stats.delivered)
}

/// The runs of every front-end; the first is the direct stream.
fn front_ends<P, Q>(borrowed: impl Fn() -> P, owned: impl Fn() -> Q) -> Vec<Run>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
    Q: MinimalSteinerProblem<Item = P::Item> + Send + 'static,
    Q::Item: Send + 'static,
{
    let mut out = vec![
        push("direct", Enumeration::new(borrowed())),
        push("queued", Enumeration::new(borrowed()).with_default_queue()),
    ];
    let mut f = Folder::new();
    let (e, stats) = Enumeration::new(owned()).with_limit(LIMIT).with_stats();
    for s in e.into_iter().expect("corpus instances are valid") {
        f.add(&s);
    }
    out.push(("into_iter", f.finish(), stats.get().delivered));
    out.push(push(
        "threads(2)+stealing",
        Enumeration::new(borrowed()).with_threads(2),
    ));
    let cache = ResultCache::new();
    for label in ["cached (cold)", "cached (replay)"] {
        out.push(push(label, Enumeration::new(borrowed()).cached(&cache)));
    }
    assert_eq!(cache.stats().hits, 1, "the second cached run is a replay");
    out
}

/// The digests of `query` served by an [`EnumerationEngine`] over `g`
/// (and `d`): once cold, then repeated, which replays the engine's cache.
fn served(g: UndirectedGraph, d: Option<DiGraph>, query: Query) -> [Run; 2] {
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let engine = EnumerationEngine::with_graphs(g, d, config);
    let session = engine.session("corpus");
    [("service (cold)", 0), ("service (repeat)", 1)].map(|(label, hits)| {
        let outcome = session
            .run(query.clone(), QueryOptions::default().limit(LIMIT))
            .expect("the engine admits the query");
        outcome.status.expect("corpus queries complete");
        assert_eq!(outcome.stats.cache_hits, hits, "{label}");
        let mut f = Folder::new();
        match &outcome.solutions {
            SolutionItems::Edges(v) => v.iter().for_each(|s| f.add(s)),
            SolutionItems::Arcs(v) => v.iter().for_each(|s| f.add(s)),
        }
        (label, f.finish(), outcome.stats.delivered)
    })
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn vs(ids: &[usize]) -> Vec<VertexId> {
    ids.iter().map(|&v| VertexId::new(v)).collect()
}

/// A seeded G(60, 90) and `k` distinct random vertices of it.
fn random_graph(seed: u64, k: usize) -> (UndirectedGraph, Vec<VertexId>) {
    let mut r = rng(seed);
    let g = generators::random_connected_graph(60, 90, &mut r);
    let w = generators::random_terminals(60, k, &mut r);
    (g, w)
}

/// Four seeded G(60, 90) regions on interleaved vertex ids — vertex `i`
/// of region `r` is `4i + r` — with one chord of region 0 removed, so
/// the swap-renumbering hands its id to region 3's last edge and edge
/// ids interleave across regions too.
fn regions() -> UndirectedGraph {
    let mut g = UndirectedGraph::new(4 * 60);
    for r in 0..4 {
        let part = generators::random_connected_graph(60, 90, &mut rng(0x4e_0001 + r as u64));
        for e in part.edges() {
            let (u, v) = part.endpoints(e);
            g.add_edge_indices(4 * u.index() + r, 4 * v.index() + r)
                .expect("region edges are valid");
        }
    }
    // Edges 0..59 of each region are its spanning tree; 70 is a chord.
    let last = g.endpoints(EdgeId::new(359));
    g.remove_edge(EdgeId::new(70)).expect("edge 70 exists");
    assert_eq!(g.endpoints(EdgeId::new(70)), last, "edge 359 moved to 70");
    g
}

/// `k` distinct random vertices of region `r` of [`regions`].
fn region_terminals(seed: u64, r: usize, k: usize) -> Vec<VertexId> {
    generators::random_terminals(60, k, &mut rng(seed))
        .into_iter()
        .map(|v| VertexId::new(4 * v.index() + r))
        .collect()
}

/// `theta_chain(6, 3)` with a two-edge pendant path hanging off vertex
/// 3 and ending in a terminal: the path is bridge-forced at every depth.
fn theta_chain_with_pendant() -> (UndirectedGraph, Vec<VertexId>) {
    let mut g = generators::theta_chain(6, 3);
    let n = g.num_vertices();
    g.add_vertex();
    g.add_vertex();
    g.add_edge_indices(3, n).expect("valid edge");
    g.add_edge_indices(n, n + 1).expect("valid edge");
    (g, vs(&[0, 6, n + 1]))
}

/// Source 0 joined to a hub (1) by three parallel 2-paths, plus two
/// pendant terminals on the hub: whichever one is branched on first,
/// every valid path passes the hub, so the other is bridge-forced.
fn hub_pendant() -> (UndirectedGraph, Vec<VertexId>) {
    let mut g = UndirectedGraph::new(2);
    for _ in 0..3 {
        let mid = g.add_vertex();
        g.add_edge(VertexId(0), mid).expect("valid edge");
        g.add_edge(mid, VertexId(1)).expect("valid edge");
    }
    let t1 = g.add_vertex();
    g.add_edge(VertexId(1), t1).expect("valid edge");
    let t2 = g.add_vertex();
    g.add_edge(VertexId(1), t2).expect("valid edge");
    (g, vec![VertexId(0), t1, t2])
}

/// A parallel `0`–`1` pair, then a width-2 theta block 1–{2, 4}–3: the
/// two root children span the same vertex set, so both branch on 3
/// under an identical removal mask.
fn theta_multigraph() -> UndirectedGraph {
    UndirectedGraph::from_edges(5, &[(0, 1), (0, 1), (1, 2), (2, 3), (1, 4), (4, 3)])
        .expect("valid edge list")
}

fn tree(g: UndirectedGraph, w: Vec<VertexId>) -> Vec<Run> {
    let mut out = front_ends(
        || SteinerTree::new(&g, &w),
        || SteinerTree::from_graph(g.clone(), &w),
    );
    out.extend(served(g, None, Query::SteinerTree { terminals: w }));
    out
}

fn forest(g: UndirectedGraph, sets: Vec<Vec<VertexId>>) -> Vec<Run> {
    let mut out = front_ends(
        || SteinerForest::new(&g, &sets),
        || SteinerForest::from_graph(g.clone(), &sets),
    );
    out.extend(served(g, None, Query::SteinerForest { sets }));
    out
}

fn terminal(g: UndirectedGraph, w: Vec<VertexId>) -> Vec<Run> {
    let mut out = front_ends(
        || TerminalSteinerTree::new(&g, &w),
        || TerminalSteinerTree::from_graph(g.clone(), &w),
    );
    out.extend(served(g, None, Query::TerminalSteinerTree { terminals: w }));
    out
}

fn directed(d: DiGraph, root: VertexId, w: Vec<VertexId>) -> Vec<Run> {
    let mut out = front_ends(
        || DirectedSteinerTree::new(&d, root, &w),
        || DirectedSteinerTree::from_graph(d.clone(), root, &w),
    );
    let query = Query::DirectedSteinerTree { root, terminals: w };
    out.extend(served(UndirectedGraph::new(0), Some(d), query));
    out
}

/// Every corpus instance, by name, with the digests of all front-ends.
fn instances() -> Vec<(&'static str, Vec<Run>)> {
    let corners = vs(&[0, 5, 24, 29]);
    let random_sets = |seed| {
        let (g, w) = random_graph(seed, 6);
        let sets = w.chunks(2).map(<[VertexId]>::to_vec).collect();
        (g, sets)
    };
    let (dag, dag_root) = generators::random_rooted_dag(40, 120, &mut rng(0xd1_0001));
    let dag_terminals: Vec<VertexId> = generators::random_terminals(40, 5, &mut rng(0xd1_0002))
        .into_iter()
        .filter(|&v| v != dag_root)
        .collect();
    vec![
        (
            "tree/grid-5x6-corners",
            tree(generators::grid(5, 6), corners.clone()),
        ),
        (
            "tree/theta-chain-5x3",
            tree(generators::theta_chain(5, 3), vs(&[0, 5])),
        ),
        ("tree/random-60x90", {
            let (g, w) = random_graph(0x7e_0001, 5);
            tree(g, w)
        }),
        (
            "tree/ladder-12",
            tree(generators::ladder(12), vs(&[0, 11, 17, 23])),
        ),
        (
            "forest/grid-5x6-crossed",
            forest(generators::grid(5, 6), vec![vs(&[0, 29]), vs(&[5, 24])]),
        ),
        (
            "forest/theta-chain-5x3",
            forest(
                generators::theta_chain(5, 3),
                vec![vs(&[0, 3]), vs(&[2, 5])],
            ),
        ),
        ("forest/random-60x90", {
            let (g, sets) = random_sets(0xf0_0001);
            forest(g, sets)
        }),
        (
            "terminal/grid-5x6-corners",
            terminal(generators::grid(5, 6), corners),
        ),
        (
            "terminal/theta-chain-5x3",
            terminal(generators::theta_chain(5, 3), vs(&[0, 5])),
        ),
        ("terminal/random-60x90", {
            let (g, w) = random_graph(0x7a_0001, 4);
            terminal(g, w)
        }),
        ("directed/layered-4x3", {
            let (d, root) = generators::layered_digraph(4, 3);
            directed(d, root, vs(&[10, 11, 12]))
        }),
        (
            "directed/grid-5x6-doubled",
            directed(
                DoubledDigraph::new(&generators::grid(5, 6)).digraph,
                VertexId(0),
                vs(&[5, 24, 29]),
            ),
        ),
        (
            "directed/random-dag-40x120",
            directed(dag, dag_root, dag_terminals),
        ),
        (
            "tree/regions-4x60x90",
            tree(regions(), region_terminals(0x4e_0101, 3, 5)),
        ),
        (
            "terminal/regions-4x60x90",
            terminal(regions(), region_terminals(0x4e_0102, 0, 4)),
        ),
        ("forest/regions-4x60x90", {
            let (a, b) = (
                region_terminals(0x4e_0103, 3, 2),
                region_terminals(0x4e_0104, 1, 2),
            );
            forest(regions(), vec![a, b])
        }),
        (
            "tree/grid-3x4",
            tree(generators::grid(3, 4), vs(&[0, 11, 5])),
        ),
        (
            "forest/grid-3x4-crossed",
            forest(generators::grid(3, 4), vec![vs(&[0, 11]), vs(&[3, 8])]),
        ),
        (
            "terminal/grid-3x4",
            terminal(generators::grid(3, 4), vs(&[0, 3, 8])),
        ),
        ("directed/layered-3x3", {
            let (d, root) = generators::layered_digraph(3, 3);
            directed(d, root, vs(&[7, 8, 9]))
        }),
        (
            "tree/theta-chain-6x3",
            tree(generators::theta_chain(6, 3), vs(&[0, 6])),
        ),
        (
            "forest/theta-chain-6x3",
            forest(generators::theta_chain(6, 3), vec![vs(&[0, 6])]),
        ),
        ("tree/theta-chain-6x3-pendant", {
            let (g, w) = theta_chain_with_pendant();
            tree(g, w)
        }),
        ("tree/hub-pendant", {
            let (g, w) = hub_pendant();
            tree(g, w)
        }),
        (
            "tree/theta-multigraph-5",
            tree(theta_multigraph(), vs(&[0, 1, 3])),
        ),
    ]
}

#[test]
fn every_front_end_reproduces_the_committed_corpus() {
    let got = instances();
    assert_eq!(
        got.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        CORPUS.iter().map(|(name, _, _)| *name).collect::<Vec<_>>(),
        "the corpus lists every instance once, in order"
    );
    for ((name, runs), &(_, solutions, hash)) in got.iter().zip(CORPUS) {
        let want = Digest { solutions, hash };
        assert!(want.solutions > 0, "{name}: a corpus stream is nonempty");
        for (front_end, digest, delivered) in runs {
            assert_eq!(*digest, want, "{name}: {front_end} stream");
            assert_eq!(
                *delivered, digest.solutions,
                "{name}: {front_end} stats.delivered is the folded count"
            );
        }
    }
}

/// Prints the corpus in the committed format (see the module docs).
#[test]
#[ignore = "prints the corpus for regeneration"]
fn print_corpus() {
    for (name, runs) in instances() {
        let d = runs[0].1;
        for (front_end, other, _) in &runs {
            assert_eq!(
                *other, d,
                "{name}: {front_end} diverges from the direct stream"
            );
        }
        println!("    ({name:?}, {}, {:#018x}),", d.solutions, d.hash);
    }
}
