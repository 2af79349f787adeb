//! DFS over the solution supergraph (§7, Theorem 42).
//!
//! Lemma 41 proves the supergraph strongly connected, so a graph search
//! from any one solution (we use μ of the whole component) visits them
//! all. The visited set stores every solution — the exponential-space part
//! of Theorem 42 — while each expansion costs polynomially many μ calls,
//! giving polynomial delay.

use crate::mu::mu;
use crate::neighbors::neighbors_of;
use std::collections::HashSet;
use std::ops::ControlFlow;
use steiner_graph::clawfree::find_claw;
use steiner_graph::connectivity::all_in_one_component;
use steiner_graph::traversal::bfs;
use steiner_graph::{GraphError, UndirectedGraph, VertexId};

/// Counters for an induced-subgraph enumeration run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InducedStats {
    /// Solutions handed to the sink.
    pub solutions: u64,
    /// Supergraph nodes expanded (= solutions, on completion).
    pub expanded: u64,
    /// Total neighbor candidates generated (including duplicates).
    pub neighbor_candidates: u64,
}

/// Enumerates every minimal induced Steiner subgraph of `(g, terminals)`
/// on a **claw-free** graph, invoking `sink` with each solution as a
/// sorted vertex set. Polynomial delay, exponential space (Theorem 42).
///
/// Errors if `g` has a claw. Degenerate cases: no terminals — no
/// solutions; terminals in different components — no solutions; a single
/// terminal — the singleton solution.
///
/// ```
/// use steiner_induced::supergraph::enumerate_minimal_induced_steiner_subgraphs;
/// use steiner_graph::{generators, VertexId};
/// use std::ops::ControlFlow;
///
/// // C6 (claw-free): two arcs connect antipodal terminals.
/// let g = generators::cycle(6);
/// let mut count = 0;
/// enumerate_minimal_induced_steiner_subgraphs(&g, &[VertexId(0), VertexId(3)], &mut |set| {
///     assert_eq!(set.len(), 4);
///     count += 1;
///     ControlFlow::Continue(())
/// }).unwrap();
/// assert_eq!(count, 2);
/// ```
pub fn enumerate_minimal_induced_steiner_subgraphs(
    g: &UndirectedGraph,
    terminals: &[VertexId],
    sink: &mut dyn FnMut(&[VertexId]) -> ControlFlow<()>,
) -> Result<InducedStats, GraphError> {
    if let Some(claw) = find_claw(g) {
        return Err(GraphError::Precondition {
            message: format!(
                "graph has an induced claw centered at {} (leaves {}, {}, {})",
                claw[0], claw[1], claw[2], claw[3]
            ),
        });
    }
    let mut terminals = terminals.to_vec();
    terminals.sort_unstable();
    terminals.dedup();
    let mut stats = InducedStats::default();
    if terminals.is_empty() {
        return Ok(stats);
    }
    if !all_in_one_component(g, &terminals, None) {
        return Ok(stats);
    }
    if terminals.len() == 1 {
        stats.solutions = 1;
        stats.expanded = 1;
        let _ = sink(&terminals);
        return Ok(stats);
    }
    // Initial solution: μ of the whole component containing W.
    let comp = bfs(g, &[terminals[0]], None);
    let component: Vec<VertexId> = g.vertices().filter(|v| comp.visited[v.index()]).collect();
    let x0 = mu(g, &component, &terminals);
    let mut visited: HashSet<Vec<VertexId>> = HashSet::new();
    let mut stack: Vec<Vec<VertexId>> = Vec::new();
    visited.insert(x0.clone());
    stats.solutions += 1;
    if sink(&x0).is_break() {
        return Ok(stats);
    }
    stack.push(x0);
    while let Some(x) = stack.pop() {
        stats.expanded += 1;
        for z in neighbors_of(g, &x, &terminals) {
            stats.neighbor_candidates += 1;
            if visited.contains(&z) {
                continue;
            }
            visited.insert(z.clone());
            stats.solutions += 1;
            if sink(&z).is_break() {
                return Ok(stats);
            }
            stack.push(z);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use std::collections::BTreeSet;

    fn collect(g: &UndirectedGraph, w: &[VertexId]) -> BTreeSet<Vec<VertexId>> {
        let mut out = BTreeSet::new();
        enumerate_minimal_induced_steiner_subgraphs(g, w, &mut |set| {
            assert!(out.insert(set.to_vec()), "duplicate {set:?}");
            ControlFlow::Continue(())
        })
        .expect("claw-free input");
        out
    }

    #[test]
    fn cycle_two_solutions() {
        let g = steiner_graph::generators::cycle(6);
        let w = [VertexId(0), VertexId(3)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_induced_steiner_subgraphs(&g, &w));
        assert_eq!(got.len(), 2, "two arcs of the cycle");
    }

    #[test]
    fn complete_graph_solutions_are_terminal_pairs_or_triples() {
        let g = steiner_graph::generators::complete(5);
        let w = [VertexId(0), VertexId(1), VertexId(4)];
        let got = collect(&g, &w);
        // In K_n the terminals already induce a connected graph.
        assert_eq!(got.len(), 1);
        assert!(got.contains(&vec![VertexId(0), VertexId(1), VertexId(4)]));
    }

    #[test]
    fn claw_input_is_rejected() {
        let g = steiner_graph::generators::star(3);
        let res = enumerate_minimal_induced_steiner_subgraphs(
            &g,
            &[VertexId(1), VertexId(2)],
            &mut |_| ControlFlow::Continue(()),
        );
        assert!(matches!(res, Err(GraphError::Precondition { .. })));
    }

    #[test]
    fn single_terminal_singleton() {
        let g = steiner_graph::generators::cycle(4);
        let got = collect(&g, &[VertexId(2)]);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&vec![VertexId(2)]));
    }

    #[test]
    fn disconnected_terminals_no_solutions() {
        // Two disjoint triangles (claw-free).
        let g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        assert!(collect(&g, &[VertexId(0), VertexId(3)]).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_line_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1abe1);
        for case in 0..30 {
            let base_n = 4 + case % 4;
            let g = steiner_graph::generators::random_claw_free(base_n, base_n + 2, &mut rng);
            let n = g.num_vertices();
            if !(2..=16).contains(&n) {
                continue;
            }
            let t = 2 + rng.gen_range(0..2usize).min(n - 2);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            assert_eq!(
                collect(&g, &w),
                brute::minimal_induced_steiner_subgraphs(&g, &w),
                "graph {g:?} terminals {w:?}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_structured_claw_free() {
        for (g, w) in [
            (
                steiner_graph::generators::cycle(7),
                vec![VertexId(0), VertexId(2), VertexId(5)],
            ),
            (
                steiner_graph::generators::complete(4),
                vec![VertexId(0), VertexId(3)],
            ),
            (
                steiner_graph::line_graph::line_graph(&steiner_graph::generators::grid(2, 3)),
                vec![VertexId(0), VertexId(6)],
            ),
        ] {
            assert_eq!(
                collect(&g, &w),
                brute::minimal_induced_steiner_subgraphs(&g, &w),
                "graph {g:?} terminals {w:?}"
            );
        }
    }

    /// Regression test for the Lemma 41 erratum: on the Theorem 39
    /// instance of this 6-vertex graph, the "long way around" solution
    /// has no incoming arc under the paper's neighbor rule, because the
    /// strict avoidance of `N(C₁ʷ) ∖ {w}` blocks every reconnecting path
    /// to it. The relaxed candidates (the repair that the `neighbors`
    /// module doc explains) must reach it.
    #[test]
    fn long_way_around_solution_is_reached() {
        use steiner_graph::line_graph::Theorem39Instance;
        let g = UndirectedGraph::from_edges(
            6,
            &[(0, 1), (0, 2), (2, 3), (3, 4), (1, 5), (5, 4), (3, 5)],
        )
        .unwrap();
        let w = [VertexId(3), VertexId(5)];
        let inst = Theorem39Instance::new(&g, &w);
        let mut trees = BTreeSet::new();
        enumerate_minimal_induced_steiner_subgraphs(&inst.h, &inst.h_terminals, &mut |set| {
            trees.insert(inst.solution_to_edges(set));
            ControlFlow::Continue(())
        })
        .unwrap();
        let expected = crate::reduction::minimal_steiner_trees_via_induced(&g, &w).unwrap();
        assert_eq!(trees, expected);
        assert_eq!(trees.len(), 3, "includes the path 3-2-0-1-5");
        assert!(trees.contains(&vec![
            steiner_graph::EdgeId(0),
            steiner_graph::EdgeId(1),
            steiner_graph::EdgeId(2),
            steiner_graph::EdgeId(4)
        ]));
    }

    #[test]
    fn early_break_stops() {
        let g = steiner_graph::generators::cycle(8);
        let mut count = 0;
        enumerate_minimal_induced_steiner_subgraphs(&g, &[VertexId(0), VertexId(4)], &mut |_| {
            count += 1;
            ControlFlow::Break(())
        })
        .unwrap();
        assert_eq!(count, 1);
    }
}
