//! Minimum (optimum-size) Steiner trees — the Table 1 baseline row
//! "Minimum Steiner Tree \[10\]".
//!
//! The paper's Table 1 contrasts *minimal* enumeration (this work) with
//! prior algorithms that enumerate all *minimum* Steiner trees (Dourado,
//! de Oliveira, Protti \[10\]: O(n) delay after exponential-in-t
//! preprocessing). This module provides the practical equivalent:
//!
//! * [`minimum_steiner_tree_size`] — the optimum size via the classical
//!   Dreyfus–Wagner dynamic program (O(3ᵗ·n + 2ᵗ·n·(n+m)) for unweighted
//!   graphs), the same exponential-in-t preprocessing family as \[10\];
//! * [`enumerate_minimum_steiner_trees`] — all minimum Steiner trees, by
//!   filtering the minimal-tree enumeration at the optimum size (every
//!   minimum Steiner tree is a minimal one, so the filter is complete).
//!   Total time is that of the minimal enumeration; the per-solution
//!   *delay* is not bounded (reproducing \[10\]'s delay bound would need
//!   its full DP-graph machinery, which the paper itself does not use).

use crate::improved::SteinerTree;
use crate::simple::normalize_terminals;
use crate::solver::Enumeration;
use crate::stats::EnumStats;
use std::ops::ControlFlow;
use steiner_graph::traversal::bfs;
use steiner_graph::{EdgeId, UndirectedGraph, VertexId};

/// Maximum number of terminals the Dreyfus–Wagner DP accepts (3ᵗ blowup).
pub const MAX_DW_TERMINALS: usize = 14;

/// The number of edges of a minimum Steiner tree of `(g, terminals)`, or
/// `None` when the terminals are not connected. Unweighted Dreyfus–Wagner.
///
/// Degenerate cases: zero or one terminal → `Some(0)`.
pub fn minimum_steiner_tree_size(g: &UndirectedGraph, terminals: &[VertexId]) -> Option<usize> {
    let terminals = normalize_terminals(terminals);
    let t = terminals.len();
    if t <= 1 {
        return Some(0);
    }
    assert!(
        t <= MAX_DW_TERMINALS,
        "Dreyfus–Wagner limited to {MAX_DW_TERMINALS} terminals"
    );
    let n = g.num_vertices();
    const INF: u32 = u32::MAX / 4;
    // All-terminal-sources BFS distances: dist[i][v] from terminal i.
    let dist: Vec<Vec<u32>> = terminals
        .iter()
        .map(|&w| {
            let f = bfs(g, &[w], None);
            f.dist
                .iter()
                .map(|&d| if d == u32::MAX { INF } else { d })
                .collect()
        })
        .collect();
    // Pairwise vertex distances are needed for the relaxation step; we run
    // one BFS per vertex (O(n(n+m)), the dominant preprocessing cost).
    let vdist: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let f = bfs(g, &[VertexId::new(v)], None);
            f.dist
                .iter()
                .map(|&d| if d == u32::MAX { INF } else { d })
                .collect()
        })
        .collect();
    // dp[mask][v]: minimum edges of a tree connecting {terminals in mask} ∪ {v}.
    let full: usize = (1 << (t - 1)) - 1; // masks over terminals 1..t, rooted at terminal 0
    let mut dp = vec![vec![INF; n]; full + 1];
    for (i, row) in dist.iter().enumerate().skip(1) {
        let mask = 1usize << (i - 1);
        dp[mask].copy_from_slice(row);
    }
    for mask in 1..=full {
        if mask.count_ones() >= 2 {
            // Merge two subtrees at v.
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask ^ sub;
                if sub < other {
                    // Each split considered once.
                    sub = (sub - 1) & mask;
                    continue;
                }
                // Three disjoint rows of `dp` are touched (sub, other,
                // mask), which an iterator can't express cleanly.
                #[allow(clippy::needless_range_loop)]
                for v in 0..n {
                    let merged = dp[sub][v].saturating_add(dp[other][v]);
                    let slot = &mut dp[mask][v];
                    if merged < *slot {
                        *slot = merged;
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
        // Relax through the metric closure: dp[mask][v] ≤ dp[mask][u] + d(u, v).
        for v in 0..n {
            let mut best = dp[mask][v];
            for u in 0..n {
                let c = dp[mask][u].saturating_add(vdist[u][v]);
                if c < best {
                    best = c;
                }
            }
            dp[mask][v] = best;
        }
    }
    let answer = dp[full][terminals[0].index()];
    if answer >= INF {
        None
    } else {
        Some(answer as usize)
    }
}

/// Enumerates all **minimum** Steiner trees of `(g, terminals)` (sorted
/// edge sets of optimum cardinality), by running the minimal-tree
/// enumerator and keeping the optimum-size solutions. Returns the optimum
/// size alongside the enumeration statistics, or `None` when no Steiner
/// tree exists. An empty terminal list has optimum 0 and no trees to
/// enumerate.
pub fn enumerate_minimum_steiner_trees(
    g: &UndirectedGraph,
    terminals: &[VertexId],
    sink: &mut dyn FnMut(&[EdgeId]) -> ControlFlow<()>,
) -> Option<(usize, EnumStats)> {
    let opt = minimum_steiner_tree_size(g, terminals)?;
    let filtered = |edges: &[EdgeId]| {
        if edges.len() == opt {
            sink(edges)
        } else {
            ControlFlow::Continue(())
        }
    };
    let problem = SteinerTree::new(g, &normalize_terminals(terminals));
    let stats = match Enumeration::new(problem).for_each(filtered) {
        Ok(stats) => stats,
        Err(e) if e.means_no_solutions() => EnumStats::default(),
        Err(_) => return None,
    };
    Some((opt, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use std::collections::BTreeSet;

    fn brute_minimum(
        g: &UndirectedGraph,
        w: &[VertexId],
    ) -> Option<(usize, BTreeSet<Vec<EdgeId>>)> {
        let all = brute::minimal_steiner_trees(g, w);
        let opt = all.iter().map(|t| t.len()).min()?;
        let min_trees = all.into_iter().filter(|t| t.len() == opt).collect();
        Some((opt, min_trees))
    }

    #[test]
    fn triangle_minimum_is_direct_edge() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let w = [VertexId(0), VertexId(1)];
        assert_eq!(minimum_steiner_tree_size(&g, &w), Some(1));
        let mut got = BTreeSet::new();
        enumerate_minimum_steiner_trees(&g, &w, &mut |e| {
            got.insert(e.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got.len(), 1);
        assert!(got.contains(&vec![EdgeId(0)]));
    }

    #[test]
    fn star_steiner_point_is_used() {
        // Terminals on three leaves of a star: minimum uses the center,
        // size 3.
        let g = steiner_graph::generators::star(4);
        let w = [VertexId(1), VertexId(2), VertexId(3)];
        assert_eq!(minimum_steiner_tree_size(&g, &w), Some(3));
    }

    #[test]
    fn disconnected_terminals_have_no_minimum() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            minimum_steiner_tree_size(&g, &[VertexId(0), VertexId(2)]),
            None
        );
        assert!(
            enumerate_minimum_steiner_trees(&g, &[VertexId(0), VertexId(2)], &mut |_| {
                ControlFlow::Continue(())
            })
            .is_none()
        );
    }

    #[test]
    fn degenerate_terminal_counts() {
        let g = steiner_graph::generators::path(4);
        assert_eq!(minimum_steiner_tree_size(&g, &[]), Some(0));
        assert_eq!(minimum_steiner_tree_size(&g, &[VertexId(2)]), Some(0));
    }

    #[test]
    fn grid_minimum_count() {
        // 2x3 grid, terminals at corners 0 and 5: distance 3, several
        // shortest routes.
        let g = steiner_graph::generators::grid(2, 3);
        let w = [VertexId(0), VertexId(5)];
        let (opt, trees) = brute_minimum(&g, &w).unwrap();
        assert_eq!(minimum_steiner_tree_size(&g, &w), Some(opt));
        let mut got = BTreeSet::new();
        enumerate_minimum_steiner_trees(&g, &w, &mut |e| {
            got.insert(e.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got, trees);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x317);
        for case in 0..40 {
            let n = 3 + case % 5;
            let m = (n - 1 + rng.gen_range(0..4)).min(n * (n - 1) / 2);
            let g = steiner_graph::generators::random_connected_graph(n, m, &mut rng);
            let t = 2 + rng.gen_range(0..3usize).min(n - 2);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            let (opt, trees) = brute_minimum(&g, &w).unwrap();
            assert_eq!(
                minimum_steiner_tree_size(&g, &w),
                Some(opt),
                "graph {g:?} terminals {w:?}"
            );
            let mut got = BTreeSet::new();
            enumerate_minimum_steiner_trees(&g, &w, &mut |e| {
                got.insert(e.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(got, trees, "graph {g:?} terminals {w:?}");
        }
    }

    #[test]
    fn minimum_size_never_exceeds_any_minimal_tree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x318);
        for _ in 0..20 {
            let n = 4 + rng.gen_range(0..5usize);
            let g = steiner_graph::generators::random_connected_graph(n, n + 2, &mut rng);
            let t = 2 + rng.gen_range(0..3usize).min(n - 2);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            let opt = minimum_steiner_tree_size(&g, &w).unwrap();
            crate::solver::Enumeration::new(SteinerTree::new(&g, &w))
                .for_each(|e| {
                    assert!(e.len() >= opt);
                    ControlFlow::Continue(())
                })
                .unwrap();
        }
    }
}
