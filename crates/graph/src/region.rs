//! Query regions: the part of a graph one query's answer can live in.
//!
//! Every minimal Steiner tree, terminal Steiner tree and Steiner forest
//! lies inside the connected components of its terminals, so the union of
//! those components — the query's *region* — is the instance the
//! enumerators' O(n + m) bounds apply to. [`Region::around`] builds it with
//! one iterative DFS from the query's seed vertices, which does three jobs
//! in one pass:
//!
//! * it labels the components it enters, which answers the connectivity
//!   preconditions ([`Region::connects`]);
//! * it collects the region's vertices;
//! * it flags the region's bridges (Tarjan's low-link, skipping only the
//!   exact edge a vertex was entered through, so a parallel pair is never
//!   a bridge — the rule [`crate::bridges`] documents).
//!
//! The DFS touches only region vertices and edges, plus one discovery-time
//! slot per graph vertex (its visited mask).
//!
//! **Order-preserving renumbering.** When the seeds' components cover the
//! whole graph, the region is the graph itself ([`RegionIds::Whole`]): no
//! copy and no id map. Otherwise the region's vertices and edges get local
//! ids in increasing global-id order, and its CSR lists each vertex's edges
//! in edge-id order, as the graph's adjacency does. Every tie-break the
//! enumerators make compares vertex or edge ids or follows adjacency
//! order, and the renumbering preserves all three, so a search on the
//! region makes the same choices as a search on the whole graph: its
//! stream, mapped back through [`RegionIds`], is the same byte for byte.

use crate::csr::CsrUndirected;
use crate::ids::{EdgeId, VertexId};
use crate::undirected::UndirectedGraph;
use std::ops::Range;

/// Local-to-global ids of a [`Region`].
#[derive(Clone, Debug)]
pub enum RegionIds {
    /// The region is the whole graph: local ids are global ids.
    Whole,
    /// The region is a proper part of the graph. `vertices[i]` and
    /// `edges[i]` are the global ids of local vertex and edge `i`; both
    /// tables ascend, so the map is monotone.
    Part {
        /// Global id of each local vertex, ascending.
        vertices: Vec<VertexId>,
        /// Global id of each local edge, ascending.
        edges: Vec<EdgeId>,
    },
}

impl RegionIds {
    /// The global id of local edge `e`.
    #[inline]
    pub fn global_edge(&self, e: EdgeId) -> EdgeId {
        match self {
            RegionIds::Whole => e,
            RegionIds::Part { edges, .. } => edges[e.index()],
        }
    }

    /// Maps local edge ids to global ids in place. The map is monotone,
    /// so an ascending slice stays ascending.
    #[inline]
    pub fn globalize(&self, items: &mut [EdgeId]) {
        if let RegionIds::Part { edges, .. } = self {
            for e in items {
                *e = edges[e.index()];
            }
        }
    }
}

/// The region of a query: the union of its seeds' connected components,
/// in local ids, with its bridges and the seeds' component labels.
#[derive(Clone, Debug)]
pub struct Region {
    /// The region as a CSR view, in local ids.
    pub csr: CsrUndirected,
    /// `bridge[e]`: whether local edge `e` is a bridge. The region is a
    /// union of components, so these are exactly the graph's bridges
    /// that lie in it.
    pub bridge: Vec<bool>,
    /// Local-to-global ids.
    pub ids: RegionIds,
    /// Component label of each seed, in seed order.
    labels: Vec<u32>,
}

/// Marks an undiscovered vertex, and a DFS root's missing entry edge.
const NONE: u32 = u32::MAX;

impl Region {
    /// Builds the region of `seeds` in one iterative DFS (see the module
    /// docs). Seeds may repeat. O(n' + m') for a region with n' vertices
    /// and m' edges, plus an O(n) visited mask; a proper region adds the
    /// sorts of its vertex and edge ids.
    ///
    /// Panics if a seed is not a vertex of `g`.
    pub fn around(g: &UndirectedGraph, seeds: &[VertexId]) -> Region {
        let n = g.num_vertices();
        // Discovery time of each vertex: the visited mask.
        let mut disc = vec![NONE; n];
        // Per discovery time: the vertex, and its low-link.
        let mut order: Vec<VertexId> = Vec::new();
        let mut low: Vec<u32> = Vec::new();
        // First discovery time of each component entered.
        let mut starts: Vec<u32> = Vec::new();
        let mut labels = Vec::with_capacity(seeds.len());
        let mut bridges: Vec<EdgeId> = Vec::new();
        // (vertex, its discovery time, entry edge or NONE, next adjacency
        // index).
        let mut stack: Vec<(VertexId, u32, u32, u32)> = Vec::new();
        for &s in seeds {
            if disc[s.index()] == NONE {
                let t = order.len() as u32;
                starts.push(t);
                disc[s.index()] = t;
                order.push(s);
                low.push(t);
                stack.push((s, t, NONE, 0));
            }
            while let Some(&mut (u, du, entry, ref mut next)) = stack.last_mut() {
                if let Some(&(v, e)) = g.adjacency(u).get(*next as usize) {
                    *next += 1;
                    if e.0 == entry {
                        continue; // the exact edge u was entered through
                    }
                    let dv = disc[v.index()];
                    if dv == NONE {
                        let t = order.len() as u32;
                        disc[v.index()] = t;
                        order.push(v);
                        low.push(t);
                        stack.push((v, t, e.0, 0));
                    } else {
                        // A back edge to an ancestor (or a descendant's
                        // back edge, seen from above: no lower).
                        low[du as usize] = low[du as usize].min(dv);
                    }
                } else {
                    stack.pop();
                    if let Some(&(_, dp, _, _)) = stack.last() {
                        let lu = low[du as usize];
                        low[dp as usize] = low[dp as usize].min(lu);
                        if lu > dp {
                            bridges.push(EdgeId(entry));
                        }
                    }
                }
            }
            // Components occupy consecutive discovery times, so the seed's
            // is the last one started at or before its own time.
            let t = disc[s.index()];
            labels.push(starts.partition_point(|&start| start <= t) as u32 - 1);
        }
        if order.len() == n {
            let mut bridge = vec![false; g.num_edges()];
            for e in bridges {
                bridge[e.index()] = true;
            }
            return Region {
                csr: CsrUndirected::from_graph(g),
                bridge,
                ids: RegionIds::Whole,
                labels,
            };
        }
        // Local ids in increasing global-id order; `disc` becomes the
        // global-to-local vertex map.
        order.sort_unstable();
        for (i, v) in order.iter().enumerate() {
            disc[v.index()] = i as u32;
        }
        // Each region edge once (from its smaller endpoint; there are no
        // self-loops), then in increasing id order.
        let mut edges: Vec<EdgeId> = Vec::new();
        for &u in &order {
            edges.extend(
                g.adjacency(u)
                    .iter()
                    .filter(|&&(v, _)| u < v)
                    .map(|&(_, e)| e),
            );
        }
        edges.sort_unstable();
        let endpoints: Vec<(VertexId, VertexId)> = edges
            .iter()
            .map(|&e| {
                let (u, v) = g.endpoints(e);
                (VertexId(disc[u.index()]), VertexId(disc[v.index()]))
            })
            .collect();
        let mut bridge = vec![false; edges.len()];
        for e in bridges {
            let local = edges
                .binary_search(&e)
                .expect("a bridge found by the DFS is a region edge");
            bridge[local] = true;
        }
        let mut csr = CsrUndirected::default();
        csr.rebuild_from_edges(order.len(), &endpoints);
        Region {
            csr,
            bridge,
            ids: RegionIds::Part {
                vertices: order,
                edges,
            },
            labels,
        }
    }

    /// `(n, m)` of the region.
    pub fn size(&self) -> (usize, usize) {
        (self.csr.num_vertices(), self.csr.num_edges())
    }

    /// Whether the seeds with indices in `seeds` lie in one connected
    /// component (vacuously true for at most one seed).
    pub fn connects(&self, seeds: Range<usize>) -> bool {
        self.labels[seeds].windows(2).all(|w| w[0] == w[1])
    }

    /// The local id of global vertex `v`, which must lie in the region
    /// (every seed does).
    pub fn local(&self, v: VertexId) -> VertexId {
        match &self.ids {
            RegionIds::Whole => v,
            RegionIds::Part { vertices, .. } => VertexId::new(
                vertices
                    .binary_search(&v)
                    .expect("the vertex lies in the query region"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridges::bridges;
    use crate::connectivity::connected_components;
    use rand::{Rng, SeedableRng};

    /// Two triangles and a pendant path: components {0, 1, 2, 6} and
    /// {3, 4, 5}, vertex 7 isolated; edge 6 = {2, 6} is the only bridge.
    fn two_parts() -> UndirectedGraph {
        UndirectedGraph::from_edges(8, &[(0, 1), (3, 4), (1, 2), (4, 5), (2, 0), (5, 3), (2, 6)])
            .unwrap()
    }

    #[test]
    fn a_connected_graph_is_its_own_region() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let r = Region::around(&g, &[VertexId(3), VertexId(0)]);
        assert!(matches!(r.ids, RegionIds::Whole));
        assert!(r.connects(0..2));
        assert_eq!(r.size(), (4, 4));
        assert_eq!(r.bridge, vec![false, false, false, true]);
        assert_eq!(r.local(VertexId(2)), VertexId(2));
    }

    #[test]
    fn a_proper_region_is_renumbered_in_id_order() {
        let g = two_parts();
        let r = Region::around(&g, &[VertexId(6), VertexId(1)]);
        assert!(r.connects(0..2));
        let RegionIds::Part { vertices, edges } = &r.ids else {
            panic!("the region misses a component");
        };
        assert_eq!(vertices, &[0, 1, 2, 6].map(VertexId));
        assert_eq!(edges, &[0, 2, 4, 6].map(EdgeId));
        assert_eq!(r.local(VertexId(6)), VertexId(3));
        // Endpoints keep their order, adjacency its edge-id order.
        assert_eq!(r.csr.endpoints(EdgeId(3)), (VertexId(2), VertexId(3)));
        assert_eq!(
            r.csr.adjacency(VertexId(2)),
            &[
                (VertexId(1), EdgeId(1)),
                (VertexId(0), EdgeId(2)),
                (VertexId(3), EdgeId(3))
            ]
        );
        assert_eq!(r.bridge, vec![false, false, false, true]);
        let mut sol = [EdgeId(1), EdgeId(3)];
        r.ids.globalize(&mut sol);
        assert_eq!(sol, [EdgeId(2), EdgeId(6)]);
    }

    #[test]
    fn labels_separate_components() {
        let g = two_parts();
        let seeds = [
            VertexId(0),
            VertexId(3),
            VertexId(2),
            VertexId(5),
            VertexId(3),
        ];
        let r = Region::around(&g, &seeds);
        assert!(!r.connects(0..2));
        assert!(r.connects(0..1));
        assert!(r.connects(3..5));
        assert!(!r.connects(2..4));
        assert_eq!(r.size(), (7, 7));
        assert!(
            matches!(r.ids, RegionIds::Part { .. }),
            "vertex 7 lies outside"
        );
    }

    #[test]
    fn parallel_edges_are_not_bridges() {
        let g = UndirectedGraph::from_edges(4, &[(2, 3), (0, 1), (1, 0)]).unwrap();
        let r = Region::around(&g, &[VertexId(1)]);
        assert_eq!(r.size(), (2, 2));
        assert_eq!(r.bridge, vec![false, false]);
    }

    #[test]
    fn matches_components_and_bridges_on_random_unions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4e61);
        for _ in 0..200 {
            let n = rng.gen_range(1..24usize);
            let m = rng.gen_range(0..2 * n);
            let mut g = UndirectedGraph::new(n);
            while g.num_edges() < m && n > 1 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    g.add_edge_indices(u, v).unwrap();
                }
            }
            let seeds: Vec<VertexId> = (0..rng.gen_range(1..4))
                .map(|_| VertexId::new(rng.gen_range(0..n)))
                .collect();
            let r = Region::around(&g, &seeds);
            let comps = connected_components(&g, None);
            for i in 1..seeds.len() {
                assert_eq!(r.connects(i - 1..i + 1), comps.same(seeds[i - 1], seeds[i]));
            }
            let keep: Vec<bool> = (0..n)
                .map(|v| seeds.iter().any(|&s| comps.same(s, VertexId::new(v))))
                .collect();
            let sub = g.induced_subgraph(&keep);
            assert_eq!(r.size(), (sub.graph.num_vertices(), sub.graph.num_edges()));
            let want_bridges = bridges(&sub.graph, None);
            assert_eq!(r.bridge, want_bridges);
            for e in sub.graph.edges() {
                assert_eq!(r.csr.endpoints(e), sub.graph.endpoints(e));
                assert_eq!(r.ids.global_edge(e), sub.edge_to_old[e.index()]);
            }
            for v in sub.graph.vertices() {
                assert_eq!(r.csr.adjacency(v), sub.graph.adjacency(v));
            }
        }
    }
}
