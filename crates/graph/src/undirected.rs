//! Undirected multigraphs with dense vertex/edge ids.
//!
//! The paper's preliminaries (§2) allow parallel edges (they arise from the
//! contraction `G/F`) but forbid self-loops. This type mirrors that model:
//! [`UndirectedGraph::add_edge`] rejects self-loops and happily records
//! parallel edges under distinct [`EdgeId`]s.

use crate::ids::{EdgeId, VertexId};
use crate::{adjacency_lists, GraphError, Result};

/// An undirected multigraph stored as an adjacency list plus an endpoint
/// table indexed by edge id.
///
/// Invariants:
/// * no self-loops,
/// * edge ids are dense: `0..num_edges()`,
/// * each edge `{u, v}` appears once in `adj[u]` and once in `adj[v]`,
/// * adjacency lists are sorted by edge id ([`Self::add_edge`] appends the
///   largest id; [`Self::remove_edge`] repositions the renumbered edge) —
///   the neighbor order every enumeration stream depends on is therefore a
///   pure function of the edge id assignment.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UndirectedGraph {
    endpoints: Vec<(VertexId, VertexId)>,
    adj: Vec<Vec<(VertexId, EdgeId)>>,
}

impl UndirectedGraph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        UndirectedGraph {
            endpoints: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` isolated vertices, reserving room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        UndirectedGraph {
            endpoints: Vec::with_capacity(m),
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from `(u, v)` pairs. Edge ids follow input order.
    /// A vertex count the allocator refuses is [`GraphError::TooLarge`].
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut g = UndirectedGraph {
            endpoints: Vec::with_capacity(edges.len()),
            adj: adjacency_lists(n)?,
        };
        for &(u, v) in edges {
            g.add_edge_indices(u, v)?;
        }
        Ok(g)
    }

    /// Adds the edge `{u, v}` and returns its id. Rejects self-loops and
    /// out-of-range endpoints. Parallel edges are allowed.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId> {
        self.add_edge_indices(u.index(), v.index())
    }

    /// As [`Self::add_edge`], taking raw indices.
    pub fn add_edge_indices(&mut self, u: usize, v: usize) -> Result<EdgeId> {
        let n = self.num_vertices();
        if u >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                num_vertices: n,
            });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let e = EdgeId::new(self.endpoints.len());
        let (u, v) = (VertexId::new(u), VertexId::new(v));
        self.endpoints.push((u, v));
        self.adj[u.index()].push((v, e));
        self.adj[v.index()].push((u, e));
        Ok(e)
    }

    /// Appends an isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        VertexId::new(self.adj.len() - 1)
    }

    /// Removes edge `e`, keeping edge ids dense: the edge with the
    /// largest id takes over the freed id (`swap_remove` semantics), and
    /// its adjacency entries are repositioned so lists stay sorted by
    /// edge id. O(deg(u) + deg(v) + deg(moved endpoints)).
    ///
    /// Returns the removed edge's endpoints. Ids held from before the
    /// removal do not survive it: the last id now names another edge.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<(VertexId, VertexId)> {
        let m = self.num_edges();
        if e.index() >= m {
            return Err(GraphError::EdgeOutOfRange {
                edge: e.index(),
                num_edges: m,
            });
        }
        let (u, v) = self.endpoints[e.index()];
        Self::drop_adj_entry(&mut self.adj[u.index()], e);
        Self::drop_adj_entry(&mut self.adj[v.index()], e);
        let last = EdgeId::new(m - 1);
        self.endpoints.swap_remove(e.index());
        if e != last {
            let (a, b) = self.endpoints[e.index()];
            Self::renumber_adj_entry(&mut self.adj[a.index()], last, e);
            Self::renumber_adj_entry(&mut self.adj[b.index()], last, e);
        }
        Ok((u, v))
    }

    /// Removes the entry for `e` from one adjacency list, preserving the
    /// sorted-by-edge-id order of the remaining entries.
    fn drop_adj_entry(list: &mut Vec<(VertexId, EdgeId)>, e: EdgeId) {
        let pos = list
            .binary_search_by_key(&e, |&(_, id)| id)
            .expect("edge is present in its endpoint's adjacency");
        list.remove(pos);
    }

    /// Rewrites the entry for `old` (the largest id in the list) to carry
    /// id `new`, re-inserting it at its sorted position.
    fn renumber_adj_entry(list: &mut Vec<(VertexId, EdgeId)>, old: EdgeId, new: EdgeId) {
        let pos = list
            .binary_search_by_key(&old, |&(_, id)| id)
            .expect("renumbered edge is present in its endpoint's adjacency");
        let (nbr, _) = list.remove(pos);
        let insert_at = list
            .binary_search_by_key(&new, |&(_, id)| id)
            .expect_err("freed id was just removed from this list");
        list.insert(insert_at, (nbr, new));
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges `m` (parallel edges counted separately).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The two endpoints of edge `e`, in insertion order.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e.index()]
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// Panics (in debug builds) if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.endpoints[e.index()];
        debug_assert!(
            v == a || v == b,
            "vertex {v} is not an endpoint of edge {e}"
        );
        if v == a {
            b
        } else {
            a
        }
    }

    /// Iterates over `(neighbor, edge)` pairs incident to `v`, in edge
    /// insertion order. Parallel edges yield the same neighbor repeatedly.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Degree of `v` (parallel edges counted separately).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// The adjacency list of `v` as a slice, for indexed access in
    /// iterative traversals.
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Iterates over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::new)
    }

    /// Whether at least one edge joins `u` and `v` (O(min degree) scan).
    pub fn has_edge_between(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).any(|(w, _)| w == b)
    }

    /// The vertex set `V(F)` spanned by an edge set, deduplicated and sorted.
    pub fn edge_set_vertices(&self, edges: &[EdgeId]) -> Vec<VertexId> {
        let mut verts: Vec<VertexId> = Vec::with_capacity(edges.len() + 1);
        for &e in edges {
            let (u, v) = self.endpoints(e);
            verts.push(u);
            verts.push(v);
        }
        verts.sort_unstable();
        verts.dedup();
        verts
    }

    /// Builds the subgraph induced by the vertex set `keep` (given as a mask
    /// of length `n`). Returns the subgraph together with maps from new
    /// vertex/edge ids back to the original ids.
    pub fn induced_subgraph(&self, keep: &[bool]) -> InducedSubgraph {
        debug_assert_eq!(keep.len(), self.num_vertices());
        let mut old_to_new: Vec<Option<VertexId>> = vec![None; self.num_vertices()];
        let mut new_to_old: Vec<VertexId> = Vec::new();
        for v in self.vertices() {
            if keep[v.index()] {
                old_to_new[v.index()] = Some(VertexId::new(new_to_old.len()));
                new_to_old.push(v);
            }
        }
        let mut graph = UndirectedGraph::new(new_to_old.len());
        let mut edge_to_old: Vec<EdgeId> = Vec::new();
        for e in self.edges() {
            let (u, v) = self.endpoints(e);
            if let (Some(nu), Some(nv)) = (old_to_new[u.index()], old_to_new[v.index()]) {
                graph.add_edge(nu, nv).expect("induced edge is valid");
                edge_to_old.push(e);
            }
        }
        InducedSubgraph {
            graph,
            vertex_to_old: new_to_old,
            edge_to_old,
            old_to_new,
        }
    }

    /// Degree of every vertex restricted to an edge subset, as a vector.
    pub fn degrees_in_edge_set(&self, edges: &[EdgeId]) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices()];
        for &e in edges {
            let (u, v) = self.endpoints(e);
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        deg
    }
}

/// An induced subgraph together with id translations back to the host graph.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The induced subgraph with fresh dense ids.
    pub graph: UndirectedGraph,
    /// `vertex_to_old[new.index()]` is the original vertex id.
    pub vertex_to_old: Vec<VertexId>,
    /// `edge_to_old[new.index()]` is the original edge id.
    pub edge_to_old: Vec<EdgeId>,
    /// `old_to_new[old.index()]` is the new id, if the vertex was kept.
    pub old_to_new: Vec<Option<VertexId>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UndirectedGraph {
        UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert!(g.has_edge_between(VertexId(0), VertexId(2)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = UndirectedGraph::new(2);
        assert_eq!(
            g.add_edge_indices(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = UndirectedGraph::new(2);
        assert_eq!(
            g.add_edge_indices(0, 5),
            Err(GraphError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            })
        );
    }

    #[test]
    fn allows_parallel_edges() {
        let g = UndirectedGraph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(VertexId(0)), 2);
        let ids: Vec<EdgeId> = g.neighbors(VertexId(0)).map(|(_, e)| e).collect();
        assert_eq!(ids, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn other_endpoint_flips() {
        let g = triangle();
        assert_eq!(g.other_endpoint(EdgeId(0), VertexId(0)), VertexId(1));
        assert_eq!(g.other_endpoint(EdgeId(0), VertexId(1)), VertexId(0));
    }

    #[test]
    fn edge_set_vertices_dedups() {
        let g = triangle();
        let verts = g.edge_set_vertices(&[EdgeId(0), EdgeId(1)]);
        assert_eq!(verts, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let sub = g.induced_subgraph(&[true, true, true, false]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 2);
        assert_eq!(sub.edge_to_old, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(
            sub.vertex_to_old,
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
        assert_eq!(sub.old_to_new[3], None);
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut g = triangle();
        let v = g.add_vertex();
        assert_eq!(v, VertexId(3));
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.degree(v), 0);
    }

    #[test]
    fn degrees_in_edge_set_counts_only_selected() {
        let g = triangle();
        let deg = g.degrees_in_edge_set(&[EdgeId(0)]);
        assert_eq!(deg, vec![1, 1, 0]);
    }
}
