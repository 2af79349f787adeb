//! Incremental-classification suite.
//!
//! `classify` in all four problems reads incremental state (forced-path
//! queries over the engines' trail-backed masks, and the forest's rollback
//! union–finds in its descend/undo frames) instead of recomputing every
//! node from scratch.
//! In debug builds each classifier cross-checks every incremental
//! verdict against a fresh pass inline, so the random instances below
//! run that assertion at every search-tree node, and their streams must
//! equal the brute-force reference (`steiner::brute`). The instance
//! tests check that the queued, limited and sharded front-ends deliver
//! the direct stream byte for byte on deep-backtracking instances, whose
//! digests the committed corpus (`tests/stream_digests.rs`) pins; the
//! counter tests check that the incremental layer is what answers.

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

/// Asserts that the queued, sharded (k ∈ {1, 2, 4}) and limited
/// front-ends deliver the direct stream byte for byte.
fn assert_front_ends_agree<P, F>(make: F)
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + std::fmt::Debug + PartialEq,
    F: Fn() -> P,
{
    let direct = ordered(Enumeration::new(make()));
    let queued = ordered(Enumeration::new(make()).with_default_queue());
    assert_eq!(queued, direct, "queued stream");
    for k in [1usize, 2, 4] {
        let sharded = ordered(Enumeration::new(make()).with_threads(k));
        assert_eq!(sharded, direct, "threads({k}) stream");
    }
    // Limit cuts exercise mid-run termination (undo under early break).
    let total = direct.len() as u64;
    for limit in [1, 2, total / 2, total] {
        let capped = ordered(Enumeration::new(make()).with_limit(limit));
        let want = &direct[..(limit.min(total)) as usize];
        assert_eq!(capped, want, "limit({limit}) prefix");
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
    assert_front_ends_agree(|| SteinerTree::new(&g, &w));
}

#[test]
fn steiner_forest_grid_all_front_ends() {
    let g = generators::grid(3, 4);
    let sets = vec![
        vec![VertexId(0), VertexId(11)],
        vec![VertexId(3), VertexId(8)],
    ];
    assert_front_ends_agree(|| SteinerForest::new(&g, &sets));
}

#[test]
fn terminal_steiner_grid_all_front_ends() {
    let g = generators::grid(3, 4);
    let w = vec![VertexId(0), VertexId(3), VertexId(8)];
    assert_front_ends_agree(|| TerminalSteinerTree::new(&g, &w));
}

#[test]
fn directed_steiner_layered_all_front_ends() {
    let (d, root) = generators::layered_digraph(3, 3);
    let w = vec![VertexId(7), VertexId(8), VertexId(9)];
    assert_front_ends_agree(|| DirectedSteinerTree::new(&d, root, &w));
}

#[test]
fn iterator_front_end_matches_reference() {
    let g = generators::theta_chain(3, 3);
    let w = [VertexId(0), VertexId(3)];
    let direct = ordered(Enumeration::new(SteinerTree::new(&g, &w)));
    let iterated: Vec<Vec<_>> = Enumeration::new(SteinerTree::from_graph(g, &w))
        .into_iter()
        .expect("valid instance")
        .collect();
    assert_eq!(iterated, direct, "pull iterator stream");
}

/// Deep-backtrack ladder: theta chains drive the recursion `blocks`
/// levels deep with `width`-way branching at every level, so every
/// attach/contract delta is applied and undone `width^depth` times. Any
/// missed or over-eager undo in the connectivity layer shows up in the
/// per-node debug cross-check and as a diverging stream.
#[test]
fn deep_backtrack_ladder_tree_and_forest() {
    let g = generators::theta_chain(6, 3);
    let w = [VertexId(0), VertexId(6)];
    assert_front_ends_agree(|| SteinerTree::new(&g, &w));
    let sets = vec![vec![VertexId(0), VertexId(6)]];
    assert_front_ends_agree(|| SteinerForest::new(&g, &sets));
    // A pendant bridge path hanging off the chain keeps the skeleton
    // non-trivial at every depth (forced-path collection under deep
    // undo).
    let mut gp = g;
    let n = gp.num_vertices();
    gp.add_vertex();
    gp.add_vertex();
    gp.add_edge_indices(3, n).unwrap();
    gp.add_edge_indices(n, n + 1).unwrap();
    let wp = [VertexId(0), VertexId(6), VertexId::new(n + 1)];
    assert_front_ends_agree(|| SteinerTree::new(&gp, &wp));
}

#[test]
fn incremental_counters_report_the_skipped_passes() {
    // Forest classification is *fully* incremental: zero rebuilds.
    let g = generators::grid(3, 4);
    let sets = vec![
        vec![VertexId(0), VertexId(11)],
        vec![VertexId(3), VertexId(8)],
    ];
    let (run, stats) = Enumeration::new(SteinerForest::new(&g, &sets)).with_stats();
    run.run().expect("valid instance");
    let stats = stats.get();
    assert!(stats.solutions > 0);
    assert_eq!(
        stats.classify_rebuilds, 0,
        "forest classifies never rebuild"
    );
    assert!(stats.classify_incremental > 0);

    // Tree classification serves Unique leaves incrementally and only
    // rebuilds at branch nodes. A grid has no bridges (nothing is ever
    // forced — every leaf is Complete), so use a theta-plus-pendants
    // instance where, whichever pendant terminal the engine branches on
    // first, every path runs through the hub and leaves the other
    // pendant terminal forced: the leaf classifies incrementally.
    let (gp, wp) = hub_pendant_instance();
    let (run, stats) = Enumeration::new(SteinerTree::new(&gp, &wp)).with_stats();
    run.run().expect("valid instance");
    let stats = stats.get();
    assert!(
        stats.classify_incremental > 0,
        "unique leaves served incrementally"
    );
    assert!(stats.max_repair_span >= 1, "attach deltas are accounted");
}

#[test]
fn sharded_merge_folds_incremental_counters() {
    let (gp, wp) = hub_pendant_instance();
    let (run, stats) = Enumeration::new(SteinerTree::new(&gp, &wp))
        .with_threads(4)
        .with_stats();
    run.run().expect("valid instance");
    let stats = stats.get();
    assert!(
        stats.classify_incremental > 0,
        "worker counters survive the merge"
    );
}

/// Source 0 joined to a hub by three parallel 2-paths (a theta block),
/// plus two pendant terminals hanging off the hub. Whichever pendant
/// terminal is branched on first, every valid path passes the hub, so
/// the remaining one is bridge-forced and the leaf is a Unique node.
fn hub_pendant_instance() -> (UndirectedGraph, Vec<VertexId>) {
    let mut g = UndirectedGraph::new(2); // 0 = source, 1 = hub
    for _ in 0..3 {
        let mid = g.add_vertex();
        g.add_edge(VertexId(0), mid).unwrap();
        g.add_edge(mid, VertexId(1)).unwrap();
    }
    let t1 = g.add_vertex();
    g.add_edge(VertexId(1), t1).unwrap();
    let t2 = g.add_vertex();
    g.add_edge(VertexId(1), t2).unwrap();
    (g, vec![VertexId(0), t1, t2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random connected multigraphs: the Steiner-tree stream is exactly
    /// the brute-force set.
    #[test]
    fn tree_incremental_equals_reference(g in connected_graph(), mask in 1u8..128) {
        let w = terminal_subset(g.num_vertices(), mask, 4);
        if w.is_empty() {
            return Ok(());
        }
        let got = solution_set(Enumeration::new(SteinerTree::new(&g, &w)).collect_vec())?;
        prop_assert_eq!(got, brute::minimal_steiner_trees(&g, &w));
    }

    /// Random instances for the forest enumerator (pairs overlap and
    /// interact, exercising the contract-delta labels).
    #[test]
    fn forest_incremental_equals_reference(g in connected_graph(), m1 in 1u8..128, m2 in 1u8..128) {
        let n = g.num_vertices();
        let sets = vec![
            terminal_subset(n, m1, 3),
            terminal_subset(n, m2, 3),
        ];
        let got = solution_set(Enumeration::new(SteinerForest::new(&g, &sets)).collect_vec())?;
        prop_assert_eq!(got, brute::minimal_steiner_forests(&g, &sets));
    }

    /// Random instances for the terminal variant (barrier vertices in
    /// the skeleton, per-component floods).
    #[test]
    fn terminal_incremental_equals_reference(g in connected_graph(), mask in 1u8..128) {
        let w = terminal_subset(g.num_vertices(), mask, 4);
        if w.len() < 2 {
            return Ok(());
        }
        let run = Enumeration::new(TerminalSteinerTree::new(&g, &w)).collect_vec();
        let got = solution_set(run)?;
        prop_assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
    }

    /// Random digraphs (cycles included) for the directed variant's
    /// unique-in-arc skeleton.
    #[test]
    fn directed_incremental_equals_reference(d in digraph(), mask in 1u8..64) {
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

    /// Sharded runs on random instances: the merged stream equals the
    /// sequential stream for k ∈ {2, 4}.
    #[test]
    fn sharded_incremental_equals_reference(g in connected_graph(), mask in 1u8..128) {
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
