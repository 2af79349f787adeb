//! Word-packed path-generation suite.
//!
//! Each branch node's child paths come from the word-packed path
//! generator: bitset `F-STP` frontiers that stop once every head of the
//! tip is reached, one reverse-BFS tree shared by every recursion level,
//! and flat child-run emission. A BFS tree overwritten too early, a flood
//! stopped too soon or a wrong admissibility test would drop, add or
//! reorder children, so the random instances below must equal the
//! brute-force reference (`steiner::brute`), the stealing front-ends must
//! deliver the direct stream byte for byte on deep-backtracking instances
//! (whose digests the committed corpus in `tests/stream_digests.rs`
//! pins), and the counter tests check that every activation floods on
//! its own and that the preallocated scratch never grows.

use minimal_steiner::graph::{generators, DiGraph, UndirectedGraph, VertexId};
use minimal_steiner::steiner::brute;
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, SteinerError, SteinerForest,
    SteinerTree, TerminalSteinerTree,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Collects the full ordered stream of an enumeration.
fn ordered<P>(e: Enumeration<P>) -> Vec<Vec<P::Item>>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    e.collect_vec().expect("valid instance")
}

/// Asserts that `with_threads(k)` plus subtree stealing, k ∈ {1, 2, 4},
/// delivers the direct stream byte for byte: stolen subtrees replay on a
/// freshly prepared copy.
fn assert_stealing_matches<P, F>(make: F)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + std::fmt::Debug + PartialEq,
    F: Fn() -> P,
{
    let direct = ordered(Enumeration::new(make()));
    for k in [1usize, 2, 4] {
        let stealing = ordered(Enumeration::new(make()).with_threads(k));
        assert_eq!(stealing, direct, "threads({k}) stealing stream");
    }
}

/// The solutions of a stream as a set; fails on a duplicate.
fn solution_set<T: Ord>(
    stream: Result<Vec<Vec<T>>, SteinerError>,
) -> Result<BTreeSet<Vec<T>>, TestCaseError> {
    let stream = stream.map_err(|e| TestCaseError::fail(format!("unexpected error {e}")))?;
    let len = stream.len();
    let set: BTreeSet<Vec<T>> = stream.into_iter().collect();
    prop_assert_eq!(set.len(), len, "duplicate solution emitted");
    Ok(set)
}

#[test]
fn steiner_tree_grid_all_front_ends() {
    let g = generators::grid(3, 4);
    let w = vec![VertexId(0), VertexId(11), VertexId(5)];
    assert_stealing_matches(|| SteinerTree::new(&g, &w));
}

#[test]
fn steiner_forest_grid_all_front_ends() {
    let g = generators::grid(3, 4);
    let sets = vec![
        vec![VertexId(0), VertexId(11)],
        vec![VertexId(3), VertexId(8)],
    ];
    assert_stealing_matches(|| SteinerForest::new(&g, &sets));
}

#[test]
fn terminal_steiner_grid_all_front_ends() {
    let g = generators::grid(3, 4);
    let w = vec![VertexId(0), VertexId(3), VertexId(8)];
    assert_stealing_matches(|| TerminalSteinerTree::new(&g, &w));
}

#[test]
fn directed_steiner_layered_all_front_ends() {
    let (d, root) = generators::layered_digraph(3, 3);
    let w = vec![VertexId(7), VertexId(8), VertexId(9)];
    assert_stealing_matches(|| DirectedSteinerTree::new(&d, root, &w));
}

#[test]
fn iterator_front_end_matches_reference() {
    // The pull iterator runs the engine on its own worker thread, with
    // its own prepared scratch.
    let g = generators::theta_chain(3, 3);
    let w = [VertexId(0), VertexId(3)];
    let direct = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    let iterated: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g, &w))
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(iterated, direct, "pull iterator stream");
}

/// Deep-backtrack ladder: theta chains drive the `E-STP` recursion
/// `blocks` levels deep with `width`-way branching at every level, so
/// the shared BFS tree is overwritten by child activations many times
/// under a deep prefix trail. Any continuation read from a tree a child
/// already overwrote shows up as a diverging stream.
#[test]
fn deep_backtrack_ladder_tree_and_forest() {
    let g = generators::theta_chain(6, 3);
    let w = [VertexId(0), VertexId(6)];
    assert_stealing_matches(|| SteinerTree::new(&g, &w));
    let sets = vec![vec![VertexId(0), VertexId(6)]];
    assert_stealing_matches(|| SteinerForest::new(&g, &sets));
}

/// A sibling-heavy theta multigraph drives repeated branch calls whose
/// removed mask repeats: the two parallel `0`–`1` edges give two root
/// children spanning the *same* vertex set `{0, 1}`, so both descend
/// into a `branch(w = 3)` call with an identical mask, target, and
/// depth. No reverse BFS is reused across activations, so the second
/// call floods again: the stream is the brute-force set, no flood counts
/// as a cache hit, and the path work is attributed.
#[test]
fn theta_instance_reports_cache_hits() {
    // 0 ═ 1 (parallel pair), then a width-2 theta block 1–{2,4}–3.
    let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 1), (1, 2), (2, 3), (1, 4), (4, 3)])
        .expect("valid edge list");
    let w = [VertexId(0), VertexId(1), VertexId(3)];
    let (run, stats) = Enumeration::new(SteinerTree::new(&g, &w)).with_stats();
    let got = solution_set(run.collect_vec()).expect("valid instance, no duplicate");
    assert_eq!(
        got,
        brute::minimal_steiner_trees(&g, &w),
        "the stream is the brute-force set"
    );
    let stats = stats.get();
    assert_eq!(stats.fstp_cache_hits, 0, "no flood is served from a cache");
    assert!(stats.fstp_cache_misses >= 1, "every activation floods");
    assert!(stats.path_gen_work > 0, "path work is attributed");
}

/// The no-allocator-traffic claim: after `prepare()`'s preallocation, a
/// run on a conformance-sized instance performs zero scratch-growth
/// events (bitset words, frame arenas, and flat `qv`/`qa` runs
/// included).
#[test]
fn packed_run_reports_zero_scratch_allocs() {
    let g = generators::grid(4, 5);
    let w = vec![VertexId(0), VertexId(19), VertexId(7)];
    let (run, stats) = Enumeration::new(SteinerTree::new(&g, &w)).with_stats();
    run.run().expect("valid instance");
    let stats = stats.get();
    assert!(stats.solutions > 0);
    assert_eq!(
        stats.scratch_allocs, 0,
        "path scratch is fully preallocated by prepare()"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random connected multigraphs: the Steiner-tree stream is exactly
    /// the brute-force set.
    #[test]
    fn tree_packed_equals_reference(g in connected_graph(), mask in 1u8..128) {
        let w = terminal_subset(g.num_vertices(), mask, 4);
        if w.is_empty() {
            return Ok(());
        }
        let got = solution_set(Enumeration::new(SteinerTree::new(&g, &w)).collect_vec())?;
        prop_assert_eq!(got, brute::minimal_steiner_trees(&g, &w));
    }

    /// Random instances for the forest enumerator (per-branch contracted
    /// doubled graphs, rebuilt per branch).
    #[test]
    fn forest_packed_equals_reference(g in connected_graph(), m1 in 1u8..128, m2 in 1u8..128) {
        let n = g.num_vertices();
        let sets = vec![
            terminal_subset(n, m1, 3),
            terminal_subset(n, m2, 3),
        ];
        let got = solution_set(Enumeration::new(SteinerForest::new(&g, &sets)).collect_vec())?;
        prop_assert_eq!(got, brute::minimal_steiner_forests(&g, &sets));
    }

    /// Random instances for the terminal variant (component masks layer
    /// extra removals on top of the source set).
    #[test]
    fn terminal_packed_equals_reference(g in connected_graph(), mask in 1u8..128) {
        let w = terminal_subset(g.num_vertices(), mask, 4);
        if w.len() < 2 {
            return Ok(());
        }
        let run = Enumeration::new(TerminalSteinerTree::new(&g, &w)).collect_vec();
        let got = solution_set(run)?;
        prop_assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
    }

    /// Random digraphs (cycles included) for the directed variant.
    #[test]
    fn directed_packed_equals_reference(d in digraph(), mask in 1u8..64) {
        let w = terminal_subset(d.num_vertices(), mask, 3);
        let root = VertexId(0);
        let w: Vec<VertexId> = w.into_iter().filter(|&v| v != root).collect();
        if w.is_empty() {
            return Ok(());
        }
        let run = match Enumeration::new(DirectedSteinerTree::new(&d, root, &w)).collect_vec() {
            // An unreachable terminal leaves the brute oracle no solutions.
            Err(SteinerError::UnreachableTerminal(_)) => Ok(Vec::new()),
            run => run,
        };
        let got = solution_set(run)?;
        prop_assert_eq!(got, brute::minimal_directed_steiner_trees(&d, root, &w));
    }

    /// Sharded + stealing on random instances: the merged stream equals
    /// the sequential stream for k ∈ {2, 4}.
    #[test]
    fn sharded_packed_equals_reference(g in connected_graph(), mask in 1u8..128) {
        let w = terminal_subset(g.num_vertices(), mask, 4);
        if w.is_empty() {
            return Ok(());
        }
        let sequential = Enumeration::new(SteinerTree::new(&g, &w)).collect_vec();
        for k in [2usize, 4] {
            let sharded = Enumeration::new(SteinerTree::new(&g, &w))
                .with_threads(k)
                .collect_vec();
            prop_assert_eq!(&sharded, &sequential, "threads({})", k);
        }
    }
}

/// Strategy: a connected graph on `n ∈ [2, 7]` vertices — a path backbone
/// plus up to 8 random extra edges (parallel edges allowed, exercising
/// the multigraph code paths).
fn connected_graph() -> impl Strategy<Value = UndirectedGraph> {
    (2usize..=7).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n), 0..8);
        extra.prop_map(move |pairs| {
            let mut g = UndirectedGraph::new(n);
            for i in 1..n {
                g.add_edge_indices(i - 1, i).unwrap();
            }
            for (u, v) in pairs {
                if u != v {
                    g.add_edge_indices(u, v).unwrap();
                }
            }
            g
        })
    })
}

/// Strategy: a digraph on `n ∈ [2, 6]` vertices with random arcs.
fn digraph() -> impl Strategy<Value = DiGraph> {
    (2usize..=6).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n, 0..n), 0..12);
        arcs.prop_map(move |pairs| {
            let mut d = DiGraph::new(n);
            for (u, v) in pairs {
                if u != v {
                    d.add_arc_indices(u, v).unwrap();
                }
            }
            d
        })
    })
}

fn terminal_subset(n: usize, mask: u8, max: usize) -> Vec<VertexId> {
    let mask = mask as u64;
    let mut w: Vec<VertexId> = (0..n.min(63))
        .filter(|i| mask & (1u64 << i) != 0)
        .map(VertexId::new)
        .collect();
    w.truncate(max);
    w
}
