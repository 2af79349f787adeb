//! K-fragment enumeration on top of the Steiner enumerators.

use crate::data_graph::{DataGraph, DirectedDataGraph};
use std::ops::ControlFlow;
use steiner_core::stats::EnumStats;
use steiner_core::{
    DirectedSteinerTree, Enumeration, SteinerError, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::connectivity::reachable_from;
use steiner_graph::{ArcId, EdgeId, GraphError, VertexId};

/// Keyword queries keep the historical lenient contract: an instance whose
/// keywords cannot be connected simply has no fragments.
fn lenient(result: Result<EnumStats, SteinerError>) -> EnumStats {
    match result {
        Ok(stats) => stats,
        Err(e) if e.means_no_solutions() => EnumStats::default(),
        // lint:allow(panic) documented lenient contract: malformed keyword queries are caller bugs, not data
        Err(e) => panic!("invalid keyword-search instance: {e}"),
    }
}

/// Enumerates the (undirected) K-fragments of a keyword query: the minimal
/// Steiner trees over all keyword nodes of `keywords`. Solutions are
/// sorted edge sets; linear delay after O(n(n+m)) preprocessing (paper
/// Theorem 2).
///
/// ```
/// use steiner_kfragment::data_graph::DataGraph;
/// use steiner_kfragment::fragments::k_fragments;
/// use std::ops::ControlFlow;
///
/// let mut dg = DataGraph::new();
/// let a = dg.add_node(&["alpha"]);
/// let hub = dg.add_node(&[]);
/// let b = dg.add_node(&["beta"]);
/// dg.add_edge(a, hub).unwrap();
/// dg.add_edge(hub, b).unwrap();
/// let mut count = 0;
/// k_fragments(&dg, &["alpha", "beta"], &mut |fragment| {
///     assert_eq!(fragment.len(), 2);
///     count += 1;
///     ControlFlow::Continue(())
/// }).unwrap();
/// assert_eq!(count, 1);
/// ```
pub fn k_fragments(
    dg: &DataGraph,
    keywords: &[&str],
    sink: &mut dyn FnMut(&[EdgeId]) -> ControlFlow<()>,
) -> Result<EnumStats, GraphError> {
    let terminals = dg.terminals_for(keywords)?;
    Ok(lenient(
        Enumeration::new(SteinerTree::new(&dg.graph, &terminals)).for_each(|edges| sink(edges)),
    ))
}

/// Enumerates the strong K-fragments: K-fragments in which every keyword
/// node is a leaf — the minimal terminal Steiner trees (paper Theorem 31).
pub fn strong_k_fragments(
    dg: &DataGraph,
    keywords: &[&str],
    sink: &mut dyn FnMut(&[EdgeId]) -> ControlFlow<()>,
) -> Result<EnumStats, GraphError> {
    let terminals = dg.terminals_for(keywords)?;
    Ok(lenient(
        Enumeration::new(TerminalSteinerTree::new(&dg.graph, &terminals))
            .for_each(|edges| sink(edges)),
    ))
}

/// A directed K-fragment: a root plus the arcs of a minimal directed
/// Steiner tree from that root to every keyword node.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DirectedFragment {
    /// The fragment's root.
    pub root: VertexId,
    /// The fragment's arcs, sorted.
    pub arcs: Vec<ArcId>,
}

/// Enumerates the directed K-fragments for every viable root: for each
/// non-keyword node that reaches all keyword nodes, the minimal directed
/// Steiner trees rooted there (paper Theorem 36). Fragments with distinct
/// roots are distinct answers (keyword-search semantics: the root is the
/// answer's "center object").
pub fn directed_k_fragments(
    dg: &DirectedDataGraph,
    keywords: &[&str],
    sink: &mut dyn FnMut(&DirectedFragment) -> ControlFlow<()>,
) -> Result<EnumStats, GraphError> {
    let terminals = dg.terminals_for(keywords)?;
    let mut total = EnumStats::default();
    'roots: for root in dg.graph.vertices() {
        if terminals.contains(&root) {
            continue;
        }
        let reach = reachable_from(&dg.graph, root);
        total.preprocessing_work += (dg.graph.num_vertices() + dg.graph.num_arcs()) as u64;
        if terminals.iter().any(|w| !reach[w.index()]) {
            continue;
        }
        let mut stopped = false;
        let stats = lenient(
            Enumeration::new(DirectedSteinerTree::new(&dg.graph, root, &terminals)).for_each(
                |arcs| {
                    let fragment = DirectedFragment {
                        root,
                        arcs: arcs.to_vec(),
                    };
                    let flow = sink(&fragment);
                    if flow.is_break() {
                        stopped = true;
                    }
                    flow
                },
            ),
        );
        total.solutions += stats.solutions;
        total.work += stats.work + stats.preprocessing_work;
        total.nodes += stats.nodes;
        if stopped {
            break 'roots;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A small bibliography-style data graph:
    ///
    /// ```text
    ///   paper1 ---- alice        paper1: "enumeration"
    ///      \        /
    ///       venue(PODS)
    ///      /        \
    ///   paper2 ---- bob          paper2: "steiner"
    /// ```
    fn bibliography() -> (DataGraph, [VertexId; 5]) {
        let mut dg = DataGraph::new();
        let p1 = dg.add_node(&["enumeration"]);
        let alice = dg.add_node(&["alice"]);
        let venue = dg.add_node(&[]);
        let p2 = dg.add_node(&["steiner"]);
        let bob = dg.add_node(&["bob"]);
        dg.add_edge(p1, alice).unwrap();
        dg.add_edge(p1, venue).unwrap();
        dg.add_edge(alice, venue).unwrap();
        dg.add_edge(venue, p2).unwrap();
        dg.add_edge(venue, bob).unwrap();
        dg.add_edge(p2, bob).unwrap();
        (dg, [p1, alice, venue, p2, bob])
    }

    #[test]
    fn fragments_connect_keywords() {
        let (dg, _) = bibliography();
        let mut count = 0;
        k_fragments(&dg, &["enumeration", "steiner"], &mut |edges| {
            count += 1;
            let terminals = dg.terminals_for(&["enumeration", "steiner"]).unwrap();
            assert!(steiner_core::verify::is_minimal_steiner_tree(
                &dg.graph, &terminals, edges
            ));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert!(count >= 2, "several routes through the venue/authors");
    }

    #[test]
    fn fragment_sets_match_direct_steiner_enumeration() {
        let (dg, _) = bibliography();
        let terminals = dg.terminals_for(&["alice", "bob"]).unwrap();
        let mut via_fragments = BTreeSet::new();
        k_fragments(&dg, &["alice", "bob"], &mut |e| {
            via_fragments.insert(e.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(
            via_fragments,
            steiner_core::brute::minimal_steiner_trees(&dg.graph, &terminals)
        );
    }

    #[test]
    fn strong_fragments_keep_keywords_as_leaves() {
        let (dg, _) = bibliography();
        let terminals = dg
            .terminals_for(&["enumeration", "steiner", "alice"])
            .unwrap();
        let mut count = 0;
        strong_k_fragments(&dg, &["enumeration", "steiner", "alice"], &mut |edges| {
            count += 1;
            assert!(steiner_core::verify::is_minimal_terminal_steiner_tree(
                &dg.graph, &terminals, edges
            ));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert!(count >= 1);
    }

    #[test]
    fn directed_fragments_over_all_roots() {
        let mut dg = DirectedDataGraph::new();
        let hub1 = dg.add_node(&[]);
        let hub2 = dg.add_node(&[]);
        let k1 = dg.add_node(&["x"]);
        let k2 = dg.add_node(&["y"]);
        for hub in [hub1, hub2] {
            dg.add_arc(hub, k1).unwrap();
            dg.add_arc(hub, k2).unwrap();
        }
        let mut fragments = Vec::new();
        directed_k_fragments(&dg, &["x", "y"], &mut |f| {
            fragments.push(f.clone());
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(fragments.len(), 2, "one fragment per hub");
        let roots: BTreeSet<VertexId> = fragments.iter().map(|f| f.root).collect();
        assert_eq!(roots, [hub1, hub2].into_iter().collect());
        for f in &fragments {
            assert!(steiner_core::verify::is_minimal_directed_steiner_subgraph(
                &dg.graph,
                f.root,
                &dg.terminals_for(&["x", "y"]).unwrap(),
                &f.arcs
            ));
        }
    }

    #[test]
    fn unknown_keyword_errors() {
        let (dg, _) = bibliography();
        assert!(k_fragments(&dg, &["nonexistent"], &mut |_| ControlFlow::Continue(())).is_err());
    }
}
