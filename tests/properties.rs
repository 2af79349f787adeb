//! Property-based tests (proptest): the fast enumerators agree with the
//! brute-force oracles on arbitrary small instances, and every output
//! passes its validity checker. The undirected problems are also checked
//! on disjoint unions of connected graphs, where a query's region (its
//! terminals' components) is a proper, renumbered part of the graph.

use minimal_steiner::graph::connectivity::connected_components;
use minimal_steiner::graph::{DiGraph, EdgeId, UndirectedGraph, VertexId};
use minimal_steiner::steiner::{brute, verify};
use minimal_steiner::{
    DirectedSteinerTree, Enumeration, MinimalSteinerProblem, SteinerError, SteinerForest,
    SteinerTree, TerminalSteinerTree,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// `with_limit(k)` composed with `with_default_queue()` must deliver
/// exactly `min(k, total)` solutions, and — since the output queue is
/// FIFO — they must be precisely the direct front-end's first `k`.
fn check_limit_queue_prefix<P, F>(make: F, k: u64) -> Result<(), TestCaseError>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
    F: Fn() -> P,
{
    let direct = match Enumeration::new(make()).collect_vec() {
        Ok(all) => all,
        // Valid-but-empty instances (e.g. an unreachable terminal) have
        // nothing to compare; both front-ends fail identically.
        Err(_) => {
            prop_assert!(Enumeration::new(make())
                .with_default_queue()
                .with_limit(k)
                .collect_vec()
                .is_err());
            return Ok(());
        }
    };
    let queued = Enumeration::new(make())
        .with_default_queue()
        .with_limit(k)
        .collect_vec()
        .expect("same instance, same validation");
    let expect = (k as usize).min(direct.len());
    prop_assert_eq!(queued.len(), expect, "exactly min(k, total) delivered");
    prop_assert_eq!(
        &queued[..],
        &direct[..expect],
        "the queued, limited stream is the direct stream's prefix"
    );
    Ok(())
}

/// Strategy: a connected graph on `n ∈ [2, 7]` vertices — a path backbone
/// plus up to 8 random extra edges (parallel edges allowed, exercising the
/// multigraph code paths).
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

/// Strategy: a disjoint union of 2–3 connected graphs, each a path
/// backbone on 2–4 vertices plus up to 3 extra edges, with the parts'
/// vertex ids interleaved, optionally followed by one `remove_edge` (whose
/// swap-renumbering moves the last edge's id into another part's range).
fn multi_component_graph() -> impl Strategy<Value = UndirectedGraph> {
    let part = (2usize..=4).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..4).prop_map(move |extra| (n, extra))
    });
    (
        proptest::collection::vec(part, 2..4),
        0usize..64,
        any::<bool>(),
    )
        .prop_map(|(parts, removed, remove)| {
            // Round-robin ids: vertex j of every part before vertex j + 1
            // of any.
            let mut ids: Vec<Vec<usize>> = vec![Vec::new(); parts.len()];
            let mut next = 0;
            for j in 0..4 {
                for (i, &(n, _)) in parts.iter().enumerate() {
                    if j < n {
                        ids[i].push(next);
                        next += 1;
                    }
                }
            }
            let mut g = UndirectedGraph::new(next);
            for ((n, extra), ids) in parts.iter().zip(&ids) {
                for j in 1..*n {
                    g.add_edge_indices(ids[j - 1], ids[j]).unwrap();
                }
                for &(u, v) in extra {
                    if u != v {
                        g.add_edge_indices(ids[u], ids[v]).unwrap();
                    }
                }
            }
            if remove {
                g.remove_edge(EdgeId::new(removed % g.num_edges())).unwrap();
            }
            g
        })
}

/// At most `max` of the vertices `mask` selects inside the component of
/// vertex `anchor % n`.
fn component_subset(g: &UndirectedGraph, anchor: usize, mask: u8, max: usize) -> Vec<VertexId> {
    let comps = connected_components(g, None);
    let a = VertexId::new(anchor % g.num_vertices());
    let mut w = terminal_subset(g.num_vertices(), mask, usize::MAX);
    w.retain(|&v| comps.same(a, v));
    w.truncate(max);
    w
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

/// `SteinerTree` on `(g, w)` emits valid, distinct solutions: exactly
/// the brute-force set. `w` lies in one component.
fn check_tree_brute(g: &UndirectedGraph, w: &[VertexId]) -> Result<(), TestCaseError> {
    let mut got = BTreeSet::new();
    let mut all_valid = true;
    let mut duplicate = false;
    Enumeration::new(SteinerTree::new(g, w))
        .for_each(|e| {
            all_valid &= verify::is_minimal_steiner_tree(g, w, e);
            duplicate |= !got.insert(e.to_vec());
            ControlFlow::Continue(())
        })
        .expect("the terminals lie in one component");
    prop_assert!(all_valid, "invalid solution emitted");
    prop_assert!(!duplicate, "duplicate solution emitted");
    prop_assert_eq!(got, brute::minimal_steiner_trees(g, w));
    Ok(())
}

/// As [`check_tree_brute`], for `TerminalSteinerTree`.
fn check_terminal_brute(g: &UndirectedGraph, w: &[VertexId]) -> Result<(), TestCaseError> {
    let mut got = BTreeSet::new();
    let mut all_valid = true;
    let mut duplicate = false;
    Enumeration::new(TerminalSteinerTree::new(g, w))
        .for_each(|e| {
            all_valid &= verify::is_minimal_terminal_steiner_tree(g, w, e);
            duplicate |= !got.insert(e.to_vec());
            ControlFlow::Continue(())
        })
        .expect("the terminals lie in one component");
    prop_assert!(all_valid, "invalid solution emitted");
    prop_assert!(!duplicate, "duplicate solution emitted");
    prop_assert_eq!(got, brute::minimal_terminal_steiner_trees(g, w));
    Ok(())
}

/// As [`check_tree_brute`], for `SteinerForest`; each set lies in one
/// component.
fn check_forest_brute(g: &UndirectedGraph, sets: &[Vec<VertexId>]) -> Result<(), TestCaseError> {
    let mut got = BTreeSet::new();
    let mut all_valid = true;
    let mut duplicate = false;
    Enumeration::new(SteinerForest::new(g, sets))
        .for_each(|e| {
            all_valid &= verify::is_minimal_steiner_forest(g, sets, e);
            duplicate |= !got.insert(e.to_vec());
            ControlFlow::Continue(())
        })
        .expect("each set lies in one component");
    prop_assert!(all_valid, "invalid solution emitted");
    prop_assert!(!duplicate, "duplicate solution emitted");
    prop_assert_eq!(got, brute::minimal_steiner_forests(g, sets));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn improved_steiner_matches_brute(g in connected_graph(), mask in 1u8..128) {
        prop_assume!(g.num_edges() <= 18);
        let w = terminal_subset(g.num_vertices(), mask, 4);
        prop_assume!(!w.is_empty());
        check_tree_brute(&g, &w)?;
    }

    #[test]
    fn steiner_tree_on_unions_matches_brute(
        g in multi_component_graph(),
        anchor in 0usize..16,
        mask in 1u8..255,
    ) {
        prop_assume!(g.num_edges() <= 18);
        let w = component_subset(&g, anchor, mask, 4);
        prop_assume!(!w.is_empty());
        check_tree_brute(&g, &w)?;
    }

    #[test]
    fn terminal_steiner_on_unions_matches_brute(
        g in multi_component_graph(),
        anchor in 0usize..16,
        mask in 1u8..255,
    ) {
        prop_assume!(g.num_edges() <= 18);
        let w = component_subset(&g, anchor, mask, 4);
        prop_assume!(w.len() >= 2);
        check_terminal_brute(&g, &w)?;
    }

    #[test]
    fn forest_on_unions_matches_brute(
        g in multi_component_graph(),
        anchors in (0usize..16, 0usize..16),
        masks in (1u8..255, 1u8..255),
    ) {
        prop_assume!(g.num_edges() <= 16);
        let sets = vec![
            component_subset(&g, anchors.0, masks.0, 3),
            component_subset(&g, anchors.1, masks.1, 3),
        ];
        check_forest_brute(&g, &sets)?;
    }

    #[test]
    fn unions_report_the_first_disconnected_set(
        g in multi_component_graph(),
        anchor in 0usize..16,
        mask in 1u8..255,
    ) {
        // The anchor, maybe more of its component, and one vertex outside.
        let comps = connected_components(&g, None);
        let a = VertexId::new(anchor % g.num_vertices());
        let mut w = component_subset(&g, anchor, mask, 3);
        if !w.contains(&a) {
            w.push(a);
        }
        let outside = g.vertices().find(|&v| !comps.same(a, v)).expect("two parts");
        w.push(outside);
        let disconnected = Err(SteinerError::DisconnectedTerminals { set: 0 });
        prop_assert_eq!(Enumeration::new(SteinerTree::new(&g, &w)).count(), disconnected);
        prop_assert_eq!(
            Enumeration::new(TerminalSteinerTree::new(&g, &w)).count(),
            disconnected
        );
        let sets = vec![vec![a], component_subset(&g, anchor, mask, 3), w];
        prop_assert_eq!(
            Enumeration::new(SteinerForest::new(&g, &sets)).count(),
            Err(SteinerError::DisconnectedTerminals { set: 2 })
        );
    }

    #[test]
    fn queued_steiner_matches_direct(g in connected_graph(), mask in 1u8..128) {
        prop_assume!(g.num_edges() <= 18);
        let w = terminal_subset(g.num_vertices(), mask, 4);
        prop_assume!(w.len() >= 2);
        let mut direct = BTreeSet::new();
        Enumeration::new(SteinerTree::new(&g, &w))
            .for_each(|e| {
                direct.insert(e.to_vec());
                ControlFlow::Continue(())
            })
            .expect("strategy generates connected graphs");
        let mut queued = BTreeSet::new();
        Enumeration::new(SteinerTree::new(&g, &w))
            .with_default_queue()
            .for_each(|e| {
                queued.insert(e.to_vec());
                ControlFlow::Continue(())
            })
            .expect("strategy generates connected graphs");
        let mut pulled = BTreeSet::new();
        for e in Enumeration::new(SteinerTree::from_graph(g.clone(), &w))
            .into_iter()
            .expect("strategy generates connected graphs")
        {
            pulled.insert(e);
        }
        prop_assert_eq!(&direct, &queued);
        prop_assert_eq!(&direct, &pulled);
    }

    #[test]
    fn terminal_steiner_matches_brute(g in connected_graph(), mask in 1u8..128) {
        prop_assume!(g.num_edges() <= 18);
        let w = terminal_subset(g.num_vertices(), mask, 4);
        prop_assume!(w.len() >= 2);
        check_terminal_brute(&g, &w)?;
    }

    #[test]
    fn forest_matches_brute(g in connected_graph(), m1 in 1u8..128, m2 in 1u8..128) {
        prop_assume!(g.num_edges() <= 16);
        let n = g.num_vertices();
        let s1 = terminal_subset(n, m1, 3);
        let s2 = terminal_subset(n, m2, 3);
        check_forest_brute(&g, &[s1, s2])?;
    }

    #[test]
    fn directed_matches_brute(d in digraph(), mask in 1u8..64) {
        prop_assume!(d.num_arcs() <= 16);
        let n = d.num_vertices();
        let root = VertexId(0);
        let mut w = terminal_subset(n, mask, 3);
        w.retain(|&v| v != root);
        prop_assume!(!w.is_empty());
        let mut got = BTreeSet::new();
        let mut all_valid = true;
        let mut duplicate = false;
        let run = Enumeration::new(DirectedSteinerTree::new(&d, root, &w)).for_each(|a| {
            all_valid &= verify::is_minimal_directed_steiner_subgraph(&d, root, &w, a);
            duplicate |= !got.insert(a.to_vec());
            ControlFlow::Continue(())
        });
        match run {
            Ok(_) => {}
            // Random digraphs can leave a terminal unreachable: the strict
            // API reports it, and the brute oracle has no solutions.
            Err(SteinerError::UnreachableTerminal(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
        prop_assert!(all_valid, "invalid solution emitted");
        prop_assert!(!duplicate, "duplicate solution emitted");
        prop_assert_eq!(got, brute::minimal_directed_steiner_trees(&d, root, &w));
    }

    #[test]
    fn limit_and_queue_deliver_direct_prefix(
        g in connected_graph(),
        d in digraph(),
        mask in 1u8..128,
        k in 0u64..12,
    ) {
        prop_assume!(g.num_edges() <= 16 && d.num_arcs() <= 14);
        let n = g.num_vertices();
        let w = terminal_subset(n, mask, 4);
        prop_assume!(w.len() >= 2);

        check_limit_queue_prefix(|| SteinerTree::new(&g, &w), k)?;
        check_limit_queue_prefix(|| TerminalSteinerTree::new(&g, &w), k)?;
        let sets = vec![w, terminal_subset(n, mask.rotate_left(3), 3)];
        check_limit_queue_prefix(|| SteinerForest::new(&g, &sets), k)?;
        let root = VertexId(0);
        let mut dw = terminal_subset(d.num_vertices(), mask, 3);
        dw.retain(|&v| v != root);
        prop_assume!(!dw.is_empty());
        check_limit_queue_prefix(|| DirectedSteinerTree::new(&d, root, &dw), k)?;
    }

    #[test]
    fn path_enumeration_matches_naive(d in digraph()) {
        let n = d.num_vertices();
        let s = VertexId(0);
        let t = VertexId::new(n - 1);
        let fast: BTreeSet<Vec<_>> =
            minimal_steiner::paths::visit::collect_arc_paths(|sink| {
                minimal_steiner::paths::enumerate_directed_st_paths(&d, s, t, None, sink);
            }).into_iter().collect();
        let slow: BTreeSet<Vec<_>> =
            minimal_steiner::paths::visit::collect_arc_paths(|sink| {
                minimal_steiner::paths::naive::enumerate_directed_st_paths_naive(
                    &d, s, t, None, sink);
            }).into_iter().collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn induced_on_line_graphs_matches_brute(g in connected_graph(), mask in 1u8..128) {
        // Work on the line graph (claw-free); terminals are edge-vertices.
        prop_assume!(g.num_edges() >= 2 && g.num_edges() <= 9);
        let lg = minimal_steiner::graph::line_graph::line_graph(&g);
        let n = lg.num_vertices();
        let w = terminal_subset(n, mask, 3);
        prop_assume!(!w.is_empty());
        let mut got = BTreeSet::new();
        let res = minimal_steiner::induced::supergraph::
            enumerate_minimal_induced_steiner_subgraphs(&lg, &w, &mut |s| {
                got.insert(s.to_vec());
                ControlFlow::Continue(())
            });
        prop_assert!(res.is_ok());
        prop_assert_eq!(
            got,
            minimal_steiner::induced::brute::minimal_induced_steiner_subgraphs(&lg, &w)
        );
    }

    #[test]
    fn transversals_match_brute(
        n in 2usize..6,
        edges in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 1..5),
    ) {
        let edges: Vec<Vec<usize>> = edges
            .into_iter()
            .map(|e| e.into_iter().map(|v| v % n).collect())
            .collect();
        let h = minimal_steiner::hardness::hypergraph::Hypergraph::new(n, edges);
        let mut got = BTreeSet::new();
        let mut all_valid = true;
        let mut duplicate = false;
        minimal_steiner::hardness::transversal::enumerate_minimal_transversals(&h, &mut |t| {
            all_valid &= h.is_minimal_transversal(t);
            duplicate |= !got.insert(t.to_vec());
            ControlFlow::Continue(())
        });
        prop_assert!(all_valid, "invalid transversal emitted");
        prop_assert!(!duplicate, "duplicate transversal emitted");
        prop_assert_eq!(
            got,
            minimal_steiner::hardness::transversal::minimal_transversals_brute(&h)
        );
    }
}
