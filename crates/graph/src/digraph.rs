//! Directed multigraphs with dense arc ids.
//!
//! Used by the §3 path enumerator (which treats undirected graphs by
//! doubling every edge into two opposite arcs) and by the §5.2 directed
//! Steiner tree enumerator.

use crate::ids::{ArcId, EdgeId, VertexId};
use crate::undirected::UndirectedGraph;
use crate::{adjacency_lists, GraphError, Result};

/// A directed multigraph stored as out/in adjacency lists plus an endpoint
/// table indexed by arc id.
///
/// Invariants: no self-loops; arc ids are dense `0..num_arcs()`; adjacency
/// lists are sorted by arc id ([`Self::add_arc`] appends the largest id;
/// [`Self::remove_arc`] repositions the renumbered arc), so the `≺_v`
/// out-arc order is a pure function of the arc id assignment.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiGraph {
    endpoints: Vec<(VertexId, VertexId)>,
    out_adj: Vec<Vec<(VertexId, ArcId)>>,
    in_adj: Vec<Vec<(VertexId, ArcId)>>,
}

impl DiGraph {
    /// Creates a digraph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        DiGraph {
            endpoints: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Creates a digraph with `n` isolated vertices, reserving room for `m` arcs.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        DiGraph {
            endpoints: Vec::with_capacity(m),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Builds a digraph from `(tail, head)` pairs. Arc ids follow input order.
    /// A vertex count the allocator refuses is [`GraphError::TooLarge`].
    pub fn from_arcs(n: usize, arcs: &[(usize, usize)]) -> Result<Self> {
        let mut d = DiGraph {
            endpoints: Vec::with_capacity(arcs.len()),
            out_adj: adjacency_lists(n)?,
            in_adj: adjacency_lists(n)?,
        };
        for &(u, v) in arcs {
            d.add_arc_indices(u, v)?;
        }
        Ok(d)
    }

    /// Adds the arc `(tail, head)` and returns its id. Rejects self-loops
    /// and out-of-range endpoints. Parallel arcs are allowed.
    pub fn add_arc(&mut self, tail: VertexId, head: VertexId) -> Result<ArcId> {
        self.add_arc_indices(tail.index(), head.index())
    }

    /// As [`Self::add_arc`], taking raw indices.
    pub fn add_arc_indices(&mut self, tail: usize, head: usize) -> Result<ArcId> {
        let n = self.num_vertices();
        if tail >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: tail,
                num_vertices: n,
            });
        }
        if head >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: head,
                num_vertices: n,
            });
        }
        if tail == head {
            return Err(GraphError::SelfLoop { vertex: tail });
        }
        let a = ArcId::new(self.endpoints.len());
        let (tail, head) = (VertexId::new(tail), VertexId::new(head));
        self.endpoints.push((tail, head));
        self.out_adj[tail.index()].push((head, a));
        self.in_adj[head.index()].push((tail, a));
        Ok(a)
    }

    /// Appends an isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        VertexId::new(self.out_adj.len() - 1)
    }

    /// Removes arc `a`, keeping arc ids dense: the arc with the largest id
    /// takes over the freed id (`swap_remove` semantics), and its adjacency
    /// entries are repositioned so lists stay sorted by arc id.
    ///
    /// Returns the removed arc's `(tail, head)`. Ids held from before the
    /// removal do not survive it: the last id now names another arc.
    pub fn remove_arc(&mut self, a: ArcId) -> Result<(VertexId, VertexId)> {
        let m = self.num_arcs();
        if a.index() >= m {
            return Err(GraphError::EdgeOutOfRange {
                edge: a.index(),
                num_edges: m,
            });
        }
        let (tail, head) = self.endpoints[a.index()];
        Self::drop_adj_entry(&mut self.out_adj[tail.index()], a);
        Self::drop_adj_entry(&mut self.in_adj[head.index()], a);
        let last = ArcId::new(m - 1);
        self.endpoints.swap_remove(a.index());
        if a != last {
            let (t, h) = self.endpoints[a.index()];
            Self::renumber_adj_entry(&mut self.out_adj[t.index()], last, a);
            Self::renumber_adj_entry(&mut self.in_adj[h.index()], last, a);
        }
        Ok((tail, head))
    }

    /// Removes the entry for `a` from one adjacency list, preserving the
    /// sorted-by-arc-id order of the remaining entries.
    fn drop_adj_entry(list: &mut Vec<(VertexId, ArcId)>, a: ArcId) {
        let pos = list
            .binary_search_by_key(&a, |&(_, id)| id)
            .expect("arc is present in its endpoint's adjacency");
        list.remove(pos);
    }

    /// Rewrites the entry for `old` (the largest id in the list) to carry
    /// id `new`, re-inserting it at its sorted position.
    fn renumber_adj_entry(list: &mut Vec<(VertexId, ArcId)>, old: ArcId, new: ArcId) {
        let pos = list
            .binary_search_by_key(&old, |&(_, id)| id)
            .expect("renumbered arc is present in its endpoint's adjacency");
        let (nbr, _) = list.remove(pos);
        let insert_at = list
            .binary_search_by_key(&new, |&(_, id)| id)
            .expect_err("freed id was just removed from this list");
        list.insert(insert_at, (nbr, new));
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of arcs `m`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.endpoints.len()
    }

    /// `(tail, head)` of arc `a`.
    #[inline]
    pub fn arc(&self, a: ArcId) -> (VertexId, VertexId) {
        self.endpoints[a.index()]
    }

    /// Tail (source endpoint) of arc `a`.
    #[inline]
    pub fn tail(&self, a: ArcId) -> VertexId {
        self.endpoints[a.index()].0
    }

    /// Head (target endpoint) of arc `a`.
    #[inline]
    pub fn head(&self, a: ArcId) -> VertexId {
        self.endpoints[a.index()].1
    }

    /// Iterates over `(head, arc)` pairs leaving `v`, in arc insertion order.
    ///
    /// This order is the total order `≺_v` on outgoing arcs that the paper's
    /// `F-STP` subroutine requires (§3).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, ArcId)> + '_ {
        self.out_adj[v.index()].iter().copied()
    }

    /// Iterates over `(tail, arc)` pairs entering `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, ArcId)> + '_ {
        self.in_adj[v.index()].iter().copied()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// The out-adjacency list of `v` as a slice, for indexed access in
    /// iterative traversals.
    #[inline]
    pub fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        &self.out_adj[v.index()]
    }

    /// The in-adjacency list of `v` as a slice.
    #[inline]
    pub fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        &self.in_adj[v.index()]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Iterates over all arc ids.
    pub fn arcs(&self) -> impl Iterator<Item = ArcId> {
        (0..self.num_arcs()).map(ArcId::new)
    }
}

/// A digraph obtained from an undirected graph by replacing every edge `e`
/// with the two arcs `2e` (forward) and `2e + 1` (backward).
///
/// This is exactly the reduction the paper uses to run the directed path
/// enumerator on undirected inputs (Theorem 12). The arc/edge id mapping is
/// arithmetic, so no tables are needed.
#[derive(Clone, Debug)]
pub struct DoubledDigraph {
    /// The doubled digraph.
    pub digraph: DiGraph,
}

impl DoubledDigraph {
    /// Doubles an undirected multigraph.
    pub fn new(g: &UndirectedGraph) -> Self {
        let mut d = DiGraph::with_capacity(g.num_vertices(), 2 * g.num_edges());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            let f = d.add_arc(u, v).expect("no self-loops in source graph");
            let b = d.add_arc(v, u).expect("no self-loops in source graph");
            debug_assert_eq!(f.index(), 2 * e.index());
            debug_assert_eq!(b.index(), 2 * e.index() + 1);
        }
        DoubledDigraph { digraph: d }
    }

    /// The undirected edge an arc came from.
    #[inline]
    pub fn arc_to_edge(&self, a: ArcId) -> EdgeId {
        EdgeId::new(a.index() / 2)
    }

    /// The forward arc of an undirected edge.
    #[inline]
    pub fn forward_arc(&self, e: EdgeId) -> ArcId {
        ArcId::new(2 * e.index())
    }

    /// The backward arc of an undirected edge.
    #[inline]
    pub fn backward_arc(&self, e: EdgeId) -> ArcId {
        ArcId::new(2 * e.index() + 1)
    }

    /// The arc opposite to `a` (same undirected edge, other direction).
    #[inline]
    pub fn reverse_arc(&self, a: ArcId) -> ArcId {
        ArcId::new(a.index() ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries_arcs() {
        let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0), (0, 1)]).unwrap();
        assert_eq!(d.num_arcs(), 4);
        assert_eq!(d.out_degree(VertexId(0)), 2);
        assert_eq!(d.in_degree(VertexId(1)), 2);
        assert_eq!(d.arc(ArcId(2)), (VertexId(2), VertexId(0)));
        assert_eq!(d.tail(ArcId(1)), VertexId(1));
        assert_eq!(d.head(ArcId(1)), VertexId(2));
    }

    #[test]
    fn rejects_self_loop_and_out_of_range() {
        let mut d = DiGraph::new(2);
        assert!(matches!(
            d.add_arc_indices(0, 0),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            d.add_arc_indices(0, 9),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn doubling_maps_arcs_to_edges() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let dd = DoubledDigraph::new(&g);
        assert_eq!(dd.digraph.num_arcs(), 4);
        assert_eq!(dd.arc_to_edge(ArcId(0)), EdgeId(0));
        assert_eq!(dd.arc_to_edge(ArcId(1)), EdgeId(0));
        assert_eq!(dd.arc_to_edge(ArcId(3)), EdgeId(1));
        assert_eq!(dd.forward_arc(EdgeId(1)), ArcId(2));
        assert_eq!(dd.backward_arc(EdgeId(1)), ArcId(3));
        assert_eq!(dd.reverse_arc(ArcId(2)), ArcId(3));
        assert_eq!(dd.reverse_arc(ArcId(3)), ArcId(2));
        // Directions agree with the source edge.
        assert_eq!(dd.digraph.arc(ArcId(0)), (VertexId(0), VertexId(1)));
        assert_eq!(dd.digraph.arc(ArcId(1)), (VertexId(1), VertexId(0)));
    }

    #[test]
    fn out_neighbor_order_is_insertion_order() {
        let d = DiGraph::from_arcs(4, &[(0, 3), (0, 1), (0, 2)]).unwrap();
        let heads: Vec<VertexId> = d.out_neighbors(VertexId(0)).map(|(h, _)| h).collect();
        assert_eq!(heads, vec![VertexId(3), VertexId(1), VertexId(2)]);
    }
}
