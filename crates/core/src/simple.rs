//! Algorithm 2: the simple polynomial-delay enumeration of minimal Steiner
//! trees (§4.1, Theorem 15).
//!
//! Starting from an arbitrary terminal, recursively attach every
//! `V(T)`-`w` path for some missing terminal `w`; by Lemma 13 every partial
//! tree extends to a minimal Steiner tree, and by Lemma 14 each minimal
//! Steiner tree is produced exactly once. Delay O(|W|(n + m)): the
//! enumeration-tree depth is |W| and children arrive with O(n + m) delay
//! from the path enumerator.
//!
//! This enumerator is kept (a) as the paper's baseline for the Table 1
//! comparison — its delay visibly grows with |W| while the improved
//! enumerator's does not — and (b) as a correctness cross-check.

use crate::partial::PartialTree;
use crate::stats::EnumStats;
use std::ops::ControlFlow;
use steiner_graph::connectivity::all_in_one_component;
use steiner_graph::{EdgeId, UndirectedGraph, VertexId};
use steiner_paths::stsets::SourceSetInstance;

/// Sorts and deduplicates a terminal list.
pub(crate) fn normalize_terminals(terminals: &[VertexId]) -> Vec<VertexId> {
    let mut t = terminals.to_vec();
    t.sort_unstable();
    t.dedup();
    t
}

struct SimpleEnumerator<'g, 'a> {
    g: &'g UndirectedGraph,
    terminals: Vec<VertexId>,
    t: PartialTree,
    stats: EnumStats,
    scratch: Vec<EdgeId>,
    sink: &'a mut dyn FnMut(&[EdgeId]) -> ControlFlow<()>,
}

impl SimpleEnumerator<'_, '_> {
    fn output_current(&mut self) -> ControlFlow<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(&self.t.edges);
        scratch.sort_unstable();
        self.stats.note_emission();
        let flow = (self.sink)(&scratch);
        self.scratch = scratch;
        flow
    }

    fn recurse(&mut self, depth: u32) -> ControlFlow<()> {
        if self.t.complete() {
            self.stats.note_node(0, depth);
            return self.output_current();
        }
        let w = self
            .t
            .first_missing_terminal(&self.terminals)
            .expect("incomplete tree misses a terminal");
        // Line 5 of Algorithm 2: branch on every V(T)-w path. The instance
        // snapshots the current V(T), so mutations during recursion are safe.
        let inst = SourceSetInstance::new(self.g, &self.t.in_tree, None);
        self.stats.work += (self.g.num_vertices() + self.g.num_edges()) as u64;
        let mut children = 0u64;
        let mut flow = ControlFlow::Continue(());
        let per_child = (self.g.num_vertices() + self.g.num_edges()) as u64;
        let _pstats = inst.enumerate(w, &mut |p| {
            children += 1;
            self.stats.work += per_child;
            // The path starts inside T: only its other vertices are new.
            let verts = p.vertices[1..].to_vec();
            let edges = p.edges.to_vec();
            let ext = self.t.extend(&verts, edges);
            let f = self.recurse(depth + 1);
            self.t.retract(ext);
            if f.is_break() {
                flow = ControlFlow::Break(());
            }
            f
        });
        self.stats.note_node(children, depth);
        flow
    }
}

/// Enumerates all minimal Steiner trees of `(g, terminals)` with the
/// simple Algorithm 2 (delay O(|W|(n + m)), space O(|W|(n + m))).
///
/// Solutions are sorted edge-id sets. Degenerate cases: no terminals — no
/// solutions; one terminal — the single empty tree; terminals in different
/// components — no solutions.
pub fn enumerate_minimal_steiner_trees_simple(
    g: &UndirectedGraph,
    terminals: &[VertexId],
    sink: &mut dyn FnMut(&[EdgeId]) -> ControlFlow<()>,
) -> EnumStats {
    let terminals = normalize_terminals(terminals);
    let mut stats = EnumStats::default();
    if terminals.is_empty() {
        return stats;
    }
    stats.preprocessing_work = (g.num_vertices() + g.num_edges()) as u64;
    if !all_in_one_component(g, &terminals, None) {
        return stats;
    }
    if terminals.len() == 1 {
        stats.note_emission();
        let _ = sink(&[]);
        stats.note_end();
        return stats;
    }
    let t = PartialTree::new(g.num_vertices(), &terminals, Some(terminals[0]));
    let mut e = SimpleEnumerator {
        g,
        terminals,
        t,
        stats,
        scratch: Vec::new(),
        sink,
    };
    let _ = e.recurse(0);
    e.stats.note_end();
    e.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use std::collections::BTreeSet;

    fn collect(g: &UndirectedGraph, w: &[VertexId]) -> BTreeSet<Vec<EdgeId>> {
        let mut out = BTreeSet::new();
        enumerate_minimal_steiner_trees_simple(g, w, &mut |edges| {
            assert!(out.insert(edges.to_vec()), "duplicate solution {edges:?}");
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn triangle_two_terminals() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let w = [VertexId(0), VertexId(1)];
        assert_eq!(collect(&g, &w), brute::minimal_steiner_trees(&g, &w));
    }

    #[test]
    fn square_three_terminals() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let w = [VertexId(0), VertexId(1), VertexId(2)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_steiner_trees(&g, &w));
        // Path 0-1-2, path 1-0-3-2, and path 0-1-2 reversed around: the
        // three trees are {01,12}, {01,03,23}, {12,23,30}.
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn single_terminal_is_empty_tree() {
        let g = UndirectedGraph::from_edges(2, &[(0, 1)]).unwrap();
        let got = collect(&g, &[VertexId(1)]);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&Vec::new()));
    }

    #[test]
    fn disconnected_terminals_no_solutions() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(collect(&g, &[VertexId(0), VertexId(2)]).is_empty());
    }

    #[test]
    fn early_break_stops() {
        let g = steiner_graph::generators::theta_chain(4, 3);
        let mut seen = 0;
        enumerate_minimal_steiner_trees_simple(&g, &[VertexId(0), VertexId(4)], &mut |_| {
            seen += 1;
            if seen >= 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0ffee);
        for case in 0..40 {
            let n = 3 + case % 5;
            let m = (n - 1 + rng.gen_range(0..4)).min(n * (n - 1) / 2);
            let g = steiner_graph::generators::random_connected_graph(n, m, &mut rng);
            let t = 1 + rng.gen_range(0..n.min(4));
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            assert_eq!(
                collect(&g, &w),
                brute::minimal_steiner_trees(&g, &w),
                "graph {g:?} terminals {w:?}"
            );
        }
    }
}
