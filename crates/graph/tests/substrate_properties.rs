//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use steiner_graph::bridges::{bridges, bridges_naive};
use steiner_graph::connectivity::connected_components;
use steiner_graph::io::{parse_edge_list, write_edge_list};
use steiner_graph::spanning::{grow_spanning_tree, prune_leaves};
use steiner_graph::{DiGraph, RegionMap, RegionSignature, UndirectedGraph, VertexId};

/// Arbitrary multigraph: n ∈ [1, 10], up to 20 random edges (parallel
/// edges allowed).
fn multigraph() -> impl Strategy<Value = UndirectedGraph> {
    (1usize..=10).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..20).prop_map(move |pairs| {
            let mut g = UndirectedGraph::new(n);
            for (u, v) in pairs {
                if u != v {
                    g.add_edge_indices(u, v).unwrap();
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bridges_match_naive(g in multigraph()) {
        prop_assert_eq!(bridges(&g, None), bridges_naive(&g, None));
    }

    #[test]
    fn bridges_match_naive_masked(g in multigraph(), mask_bits in any::<u16>()) {
        let n = g.num_vertices();
        let mask: Vec<bool> = (0..n).map(|i| mask_bits & (1 << i) != 0).collect();
        prop_assert_eq!(bridges(&g, Some(&mask)), bridges_naive(&g, Some(&mask)));
    }

    #[test]
    fn removing_a_bridge_increases_components(g in multigraph()) {
        let base = connected_components(&g, None).count;
        for (e, is_bridge) in bridges(&g, None).into_iter().enumerate() {
            if !is_bridge {
                continue;
            }
            // Rebuild without edge e and recount.
            let mut h = UndirectedGraph::new(g.num_vertices());
            for e2 in g.edges() {
                if e2.index() != e {
                    let (u, v) = g.endpoints(e2);
                    h.add_edge(u, v).unwrap();
                }
            }
            prop_assert_eq!(connected_components(&h, None).count, base + 1);
        }
    }

    #[test]
    fn spanning_tree_spans_component(g in multigraph(), seed in 0usize..10) {
        let n = g.num_vertices();
        let seed = VertexId::new(seed % n);
        let grown = grow_spanning_tree(&g, &[seed], &[], None);
        // Edge count = reachable vertices - 1.
        let reached = grown.forest.visited.iter().filter(|&&b| b).count();
        prop_assert_eq!(grown.edges.len(), reached - 1);
        // It is acyclic and connected on its span (a tree).
        let verts = g.edge_set_vertices(&grown.edges);
        if !grown.edges.is_empty() {
            prop_assert_eq!(verts.len(), grown.edges.len() + 1);
        }
    }

    #[test]
    fn pruned_leaves_all_satisfy_keep(g in multigraph(), keep_bits in any::<u16>(), seed in 0usize..10) {
        let n = g.num_vertices();
        let seed = VertexId::new(seed % n);
        let grown = grow_spanning_tree(&g, &[seed], &[], None);
        let keep = move |v: VertexId| keep_bits & (1 << (v.index() % 16)) != 0;
        let pruned = prune_leaves(&g, &grown.edges, keep);
        let deg = g.degrees_in_edge_set(&pruned);
        for v in g.vertices() {
            if deg[v.index()] == 1 {
                prop_assert!(keep(v), "leaf {v} survived pruning without keep");
            }
        }
        // Pruning is a subset operation.
        prop_assert!(pruned.iter().all(|e| grown.edges.contains(e)));
    }

    #[test]
    fn io_round_trip(g in multigraph()) {
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        for e in g.edges() {
            prop_assert_eq!(g.endpoints(e), g2.endpoints(e));
        }
    }

    #[test]
    fn line_graph_is_claw_free(g in multigraph()) {
        let lg = steiner_graph::line_graph::line_graph(&g);
        prop_assert!(steiner_graph::clawfree::is_claw_free(&lg));
    }

    #[test]
    fn query_region_signature_matches_the_full_map(case in blocked_case()) {
        let (n, edges, query) = case;
        let g = UndirectedGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(
            RegionSignature::of_undirected(&g, query.iter().copied()),
            RegionMap::of_undirected(&g).signature_of(query.iter().copied())
        );
    }

    #[test]
    fn query_region_signature_matches_the_full_map_on_digraphs(case in blocked_case()) {
        let (n, arcs, query) = case;
        let d = DiGraph::from_arcs(n, &arcs).unwrap();
        prop_assert_eq!(
            RegionSignature::of_digraph(&d, query.iter().copied()),
            RegionMap::of_digraph(&d).signature_of(query.iter().copied())
        );
    }
}

/// A vertex count `n ∈ [1, 16]`, up to 24 edges (or arcs) confined to
/// `k ∈ [1, 4]` interleaved blocks (vertex `v` in block `v mod k`, so
/// most draws have several components), and a query list of up to four
/// vertices, some of them out of range.
fn blocked_case() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<VertexId>)> {
    (1usize..=16, 1usize..=4).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec((0..n, 0..n), 0..24),
            proptest::collection::vec(0..n + 2, 0..5),
        )
            .prop_map(move |(pairs, query)| {
                let edges = pairs
                    .into_iter()
                    .filter(|&(u, v)| u != v && u % k == v % k)
                    .collect();
                (n, edges, query.into_iter().map(VertexId::new).collect())
            })
    })
}
