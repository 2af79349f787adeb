//! Breadth-first traversal with an optional vertex mask.
//!
//! Every Steiner enumerator in this workspace repeatedly searches graphs
//! from which the vertices of a partial solution have been removed, so the
//! traversal accepts an optional `allowed` mask instead of requiring a
//! materialized subgraph.

use crate::ids::{EdgeId, VertexId};
use crate::undirected::UndirectedGraph;

/// Result of a (multi-source) BFS on an undirected graph: a BFS forest.
#[derive(Clone, Debug)]
pub struct BfsForest {
    /// `visited[v]` — whether `v` was reached.
    pub visited: Vec<bool>,
    /// `parent[v]` — predecessor of `v` in the forest (`None` for roots and
    /// unreached vertices).
    pub parent: Vec<Option<VertexId>>,
    /// `parent_edge[v]` — the edge connecting `v` to its parent.
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `dist[v]` — BFS distance from the root set (`u32::MAX` if unreached).
    pub dist: Vec<u32>,
    /// Vertices in visit order (roots first).
    pub order: Vec<VertexId>,
}

/// Runs a multi-source BFS from `roots` over vertices allowed by `allowed`
/// (all vertices if `None`). Roots that are masked out are skipped.
pub fn bfs(g: &UndirectedGraph, roots: &[VertexId], allowed: Option<&[bool]>) -> BfsForest {
    let n = g.num_vertices();
    let mut forest = BfsForest {
        visited: vec![false; n],
        parent: vec![None; n],
        parent_edge: vec![None; n],
        dist: vec![u32::MAX; n],
        order: Vec::with_capacity(n),
    };
    let ok = |v: VertexId| allowed.is_none_or(|mask| mask[v.index()]);
    let mut queue = std::collections::VecDeque::with_capacity(roots.len());
    for &r in roots {
        if ok(r) && !forest.visited[r.index()] {
            forest.visited[r.index()] = true;
            forest.dist[r.index()] = 0;
            forest.order.push(r);
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for (v, e) in g.neighbors(u) {
            if ok(v) && !forest.visited[v.index()] {
                forest.visited[v.index()] = true;
                forest.parent[v.index()] = Some(u);
                forest.parent_edge[v.index()] = Some(e);
                forest.dist[v.index()] = forest.dist[u.index()] + 1;
                forest.order.push(v);
                queue.push_back(v);
            }
        }
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undirected::UndirectedGraph;

    fn path_graph(n: usize) -> UndirectedGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        UndirectedGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let f = bfs(&g, &[VertexId(0)], None);
        assert_eq!(f.dist, vec![0, 1, 2, 3, 4]);
        assert!(f.visited.iter().all(|&b| b));
    }

    #[test]
    fn bfs_respects_mask() {
        let g = path_graph(5);
        let mask = vec![true, true, false, true, true];
        let f = bfs(&g, &[VertexId(0)], Some(&mask));
        assert!(f.visited[1]);
        assert!(!f.visited[2]);
        assert!(!f.visited[3], "blocked by masked vertex 2");
    }

    #[test]
    fn bfs_multi_source() {
        let g = path_graph(5);
        let f = bfs(&g, &[VertexId(0), VertexId(4)], None);
        assert_eq!(f.dist, vec![0, 1, 2, 1, 0]);
    }
}
