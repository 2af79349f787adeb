//! Committed stream-digest corpus.
//!
//! For a fixed set of instances of all four problems, [`CORPUS`] records
//! the solution count and a 64-bit FNV-1a digest of the **ordered**
//! stream, capped at [`LIMIT`] solutions. Every instance is checked under
//! four front-ends — direct push, the Theorem-20 output queue, the pull
//! iterator, and `with_threads(2)` with subtree stealing — so a change
//! that reorders, drops or adds a single solution anywhere in the first
//! [`LIMIT`] fails here, even when the solution *set* (which `brute.rs`
//! checks) is unchanged.
//!
//! The instances include long-prefix ones (grids with corner terminals,
//! theta chains, a layered digraph): there the path engine's recursion
//! runs deep, so its prefix bookkeeping is exercised on every solution.
//!
//! After an intended stream change, regenerate the corpus with
//!
//! ```text
//! cargo test --release --test stream_digests -- --ignored --nocapture print_corpus
//! ```
//!
//! and paste the printed lines into [`CORPUS`].

use minimal_steiner::graph::digraph::DoubledDigraph;
use minimal_steiner::graph::{generators, DiGraph, UndirectedGraph, VertexId};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, SteinerForest, SteinerTree,
    TerminalSteinerTree,
};
use rand::SeedableRng;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

/// Solutions per stream that the digest covers.
const LIMIT: u64 = 2000;

/// `(instance, solutions, digest)`, captured from the sequential engine.
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

/// The digest of the sequential direct-push stream.
fn direct<P>(p: P) -> Digest
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let mut f = Folder::new();
    Enumeration::new(p)
        .with_limit(LIMIT)
        .for_each(|s| {
            f.add(s);
            ControlFlow::Continue(())
        })
        .expect("corpus instances are valid");
    f.finish()
}

/// The digests of every front-end, labelled; the first is the direct
/// stream.
fn front_ends<P, Q>(borrowed: impl Fn() -> P, owned: impl Fn() -> Q) -> Vec<(&'static str, Digest)>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
    Q: MinimalSteinerProblem<Item = P::Item> + Send + 'static,
    Q::Item: Send + 'static,
{
    let mut out = vec![("direct", direct(borrowed()))];
    let mut f = Folder::new();
    Enumeration::new(borrowed())
        .with_default_queue()
        .with_limit(LIMIT)
        .for_each(|s| {
            f.add(s);
            ControlFlow::Continue(())
        })
        .expect("corpus instances are valid");
    out.push(("queued", f.finish()));
    let mut f = Folder::new();
    for s in Enumeration::new(owned())
        .with_limit(LIMIT)
        .into_iter()
        .expect("corpus instances are valid")
    {
        f.add(&s);
    }
    out.push(("into_iter", f.finish()));
    let mut f = Folder::new();
    Enumeration::new(borrowed())
        .with_threads(2)
        .with_stealing(true)
        .with_limit(LIMIT)
        .for_each(|s| {
            f.add(s);
            ControlFlow::Continue(())
        })
        .expect("corpus instances are valid");
    out.push(("threads(2)+stealing", f.finish()));
    out
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

fn tree(g: UndirectedGraph, w: Vec<VertexId>) -> Vec<(&'static str, Digest)> {
    front_ends(
        || SteinerTree::new(&g, &w),
        || SteinerTree::from_graph(g.clone(), &w),
    )
}

fn forest(g: UndirectedGraph, sets: Vec<Vec<VertexId>>) -> Vec<(&'static str, Digest)> {
    front_ends(
        || SteinerForest::new(&g, &sets),
        || SteinerForest::from_graph(g.clone(), &sets),
    )
}

fn terminal(g: UndirectedGraph, w: Vec<VertexId>) -> Vec<(&'static str, Digest)> {
    front_ends(
        || TerminalSteinerTree::new(&g, &w),
        || TerminalSteinerTree::from_graph(g.clone(), &w),
    )
}

fn directed(d: DiGraph, root: VertexId, w: Vec<VertexId>) -> Vec<(&'static str, Digest)> {
    front_ends(
        || DirectedSteinerTree::new(&d, root, &w),
        || DirectedSteinerTree::from_graph(d.clone(), root, &w),
    )
}

/// Every corpus instance, by name, with the digests of all front-ends.
fn instances() -> Vec<(&'static str, Vec<(&'static str, Digest)>)> {
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
        for (front_end, digest) in runs {
            assert_eq!(*digest, want, "{name}: {front_end} stream");
        }
    }
}

/// Prints the corpus in the committed format (see the module docs).
#[test]
#[ignore = "prints the corpus for regeneration"]
fn print_corpus() {
    for (name, runs) in instances() {
        let d = runs[0].1;
        for (front_end, other) in &runs {
            assert_eq!(
                *other, d,
                "{name}: {front_end} diverges from the direct stream"
            );
        }
        println!("    ({name:?}, {}, {:#018x}),", d.solutions, d.hash);
    }
}
