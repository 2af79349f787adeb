//! Connected components and reachability queries.

use crate::digraph::DiGraph;
use crate::ids::VertexId;
use crate::traversal::bfs;
use crate::undirected::UndirectedGraph;

/// Connected-component labelling of (a masked portion of) a graph.
#[derive(Clone, Debug)]
pub struct Components {
    /// `comp[v]` — component index of `v`, `None` if masked out.
    pub comp: Vec<Option<u32>>,
    /// Number of components.
    pub count: usize,
    /// `sizes[c]` — number of vertices in component `c`.
    pub sizes: Vec<u32>,
}

impl Components {
    /// Whether `u` and `v` lie in the same component (both must be present).
    pub fn same(&self, u: VertexId, v: VertexId) -> bool {
        match (self.comp[u.index()], self.comp[v.index()]) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Collects the vertices of component `c`, in increasing id order.
    pub fn members(&self, c: u32) -> Vec<VertexId> {
        self.comp
            .iter()
            .enumerate()
            .filter(|(_, comp)| **comp == Some(c))
            .map(|(i, _)| VertexId::new(i))
            .collect()
    }
}

/// Labels the connected components of vertices allowed by `allowed`
/// (all vertices if `None`).
pub fn connected_components(g: &UndirectedGraph, allowed: Option<&[bool]>) -> Components {
    let n = g.num_vertices();
    let mut comp: Vec<Option<u32>> = vec![None; n];
    let mut sizes: Vec<u32> = Vec::new();
    let ok = |v: usize| allowed.is_none_or(|mask| mask[v]);
    let mut stack: Vec<VertexId> = Vec::new();
    for start in 0..n {
        if !ok(start) || comp[start].is_some() {
            continue;
        }
        let c = sizes.len() as u32;
        sizes.push(0);
        comp[start] = Some(c);
        stack.push(VertexId::new(start));
        while let Some(u) = stack.pop() {
            sizes[c as usize] += 1;
            for (v, _) in g.neighbors(u) {
                if ok(v.index()) && comp[v.index()].is_none() {
                    comp[v.index()] = Some(c);
                    stack.push(v);
                }
            }
        }
    }
    Components {
        comp,
        count: sizes.len(),
        sizes,
    }
}

/// Whether all of `vertices` lie in one connected component of the masked
/// graph. Vacuously true for zero or one vertex.
pub fn all_in_one_component(
    g: &UndirectedGraph,
    vertices: &[VertexId],
    allowed: Option<&[bool]>,
) -> bool {
    let Some((&first, rest)) = vertices.split_first() else {
        return true;
    };
    if let Some(mask) = allowed {
        if vertices.iter().any(|v| !mask[v.index()]) {
            return false;
        }
    }
    let forest = bfs(g, &[first], allowed);
    rest.iter().all(|v| forest.visited[v.index()])
}

/// Vertices reachable from `s` in a digraph (as a mask): a forward BFS
/// along out-arcs.
pub fn reachable_from(d: &DiGraph, s: VertexId) -> Vec<bool> {
    let mut reached = vec![false; d.num_vertices()];
    reached[s.index()] = true;
    let mut queue = vec![s];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for (v, _) in d.out_neighbors(u) {
            if !reached[v.index()] {
                reached[v.index()] = true;
                queue.push(v);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_two_triangles() {
        let g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let c = connected_components(&g, None);
        assert_eq!(c.count, 2);
        assert!(c.same(VertexId(0), VertexId(2)));
        assert!(!c.same(VertexId(0), VertexId(3)));
        assert_eq!(c.sizes, vec![3, 3]);
        assert_eq!(c.members(1), vec![VertexId(3), VertexId(4), VertexId(5)]);
    }

    #[test]
    fn masking_splits_components() {
        // Path 0-1-2-3-4; removing 2 splits it.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mask = vec![true, true, false, true, true];
        let c = connected_components(&g, Some(&mask));
        assert_eq!(c.count, 2);
        assert_eq!(c.comp[2], None);
        assert!(!c.same(VertexId(1), VertexId(3)));
    }

    #[test]
    fn all_in_one_component_checks() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(all_in_one_component(&g, &[VertexId(0), VertexId(1)], None));
        assert!(!all_in_one_component(&g, &[VertexId(0), VertexId(2)], None));
        assert!(all_in_one_component(&g, &[], None));
        assert!(all_in_one_component(&g, &[VertexId(3)], None));
        let mask = vec![true, false, true, true];
        assert!(!all_in_one_component(
            &g,
            &[VertexId(0), VertexId(1)],
            Some(&mask)
        ));
    }

    #[test]
    fn digraph_reachability() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (1, 2), (3, 2)]).unwrap();
        let from0 = reachable_from(&d, VertexId(0));
        assert_eq!(from0, vec![true, true, true, false]);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = UndirectedGraph::new(3);
        let c = connected_components(&g, None);
        assert_eq!(c.count, 3);
        assert_eq!(c.sizes, vec![1, 1, 1]);
    }
}
