//! Set-to-vertex path enumeration: the `S`-`T` extension at the end of §3.
//!
//! Every Steiner enumerator branches on the "`V(T)`-`w` paths" of some
//! graph: paths that start at any vertex of a source set `S`, end at `w`,
//! and whose internal vertices avoid `S` (and `w`). The paper realizes this
//! by adding a super-source `s` with an arc to each source and enumerating
//! `s`-`t` paths. We do exactly that, with one refinement that keeps the
//! original edge identities: each original boundary edge `{u, v}` with
//! `u ∈ S` becomes its *own* super-source arc `s* → v`, so two paths
//! leaving the source set through different boundary edges stay distinct
//! (required for the correctness of Algorithm 2's branching — children are
//! indexed by paths, not by their vertex sets).
//!
//! Two forms are offered. [`SourceSetInstance`]/[`DiSourceSetInstance`]
//! materialize the super-source digraph and report whole paths whose
//! first vertex is the true source-set endpoint. The allocation-free
//! [`enumerate_source_set_paths_csr`] — the form the Steiner `branch()`
//! implementations consume — runs over a virtual super-source and reports
//! [`PathDelta`]s: a consumer already holding `S` (the partial tree) only
//! adds each delta's vertices and arcs, none of which is the super-source.

use crate::enumerate::{
    enumerate_directed_st_paths, enumerate_paths_view, PathEnumStats, PathScratch,
    VirtualSourceView,
};
use crate::visit::{PathDelta, UndirectedPathEvent};
use std::ops::ControlFlow;
use steiner_graph::digraph::DiGraph;
use steiner_graph::{ArcId, CsrDigraph, EdgeId, UndirectedGraph, VertexId};

/// A super-source instance for enumerating `S`-`w` paths of an undirected
/// multigraph.
///
/// Vertices `0..n` are the original vertices; vertex `n` is the
/// super-source. Source-set vertices themselves are excluded from the
/// digraph (internal vertices of an `S`-`w` path may not lie in `S`).
pub struct SourceSetInstance {
    digraph: DiGraph,
    /// For each arc: the original undirected edge it represents.
    arc_edge: Vec<EdgeId>,
    /// For super-source arcs: the original source endpoint of the boundary
    /// edge (so reported paths can name their true first vertex).
    arc_source: Vec<Option<VertexId>>,
    super_source: VertexId,
}

impl SourceSetInstance {
    /// Builds the instance.
    ///
    /// * `in_sources[v]` — whether `v ∈ S`;
    /// * `allowed` — optional global vertex mask (masked vertices are
    ///   excluded entirely).
    ///
    /// Edges with both endpoints in `S` are dropped; boundary edges become
    /// super-source arcs; interior edges become arc pairs.
    pub fn new(g: &UndirectedGraph, in_sources: &[bool], allowed: Option<&[bool]>) -> Self {
        let n = g.num_vertices();
        debug_assert_eq!(in_sources.len(), n);
        let mut d = DiGraph::new(n + 1);
        let super_source = VertexId::new(n);
        let mut arc_edge = Vec::new();
        let mut arc_source = Vec::new();
        let ok = |v: VertexId| allowed.is_none_or(|mask| mask[v.index()]);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            if !ok(u) || !ok(v) {
                continue;
            }
            match (in_sources[u.index()], in_sources[v.index()]) {
                (true, true) => {}
                (true, false) => {
                    d.add_arc(super_source, v).expect("boundary arc");
                    arc_edge.push(e);
                    arc_source.push(Some(u));
                }
                (false, true) => {
                    d.add_arc(super_source, u).expect("boundary arc");
                    arc_edge.push(e);
                    arc_source.push(Some(v));
                }
                (false, false) => {
                    d.add_arc(u, v).expect("interior arc");
                    arc_edge.push(e);
                    arc_source.push(None);
                    d.add_arc(v, u).expect("interior arc");
                    arc_edge.push(e);
                    arc_source.push(None);
                }
            }
        }
        SourceSetInstance {
            digraph: d,
            arc_edge,
            arc_source,
            super_source,
        }
    }

    /// Enumerates all `S`-`w` paths with O(n + m) delay, reporting each as
    /// an [`UndirectedPathEvent`] whose first vertex is the true source-set
    /// endpoint.
    ///
    /// `target` must not be in `S`.
    pub fn enumerate(
        &self,
        target: VertexId,
        sink: &mut dyn FnMut(UndirectedPathEvent<'_>) -> ControlFlow<()>,
    ) -> PathEnumStats {
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut vertices: Vec<VertexId> = Vec::new();
        enumerate_directed_st_paths(&self.digraph, self.super_source, target, None, &mut |p| {
            debug_assert!(!p.arcs.is_empty(), "super-source is never the target");
            edges.clear();
            vertices.clear();
            let first = p.arcs[0];
            vertices
                .push(self.arc_source[first.index()].expect("first arc leaves the super-source"));
            vertices.extend_from_slice(&p.vertices[1..]);
            edges.extend(p.arcs.iter().map(|&a| self.arc_edge[a.index()]));
            sink(UndirectedPathEvent {
                vertices: &vertices,
                edges: &edges,
            })
        })
    }

    /// The super-source id (for tests and diagnostics).
    pub fn super_source(&self) -> VertexId {
        self.super_source
    }
}

/// Enumerates all `S`-`w` paths over a **fixed** CSR digraph with a
/// *dynamic* source set, without rebuilding any graph: the allocation-free
/// replacement for materializing a [`SourceSetInstance`] per branch node.
///
/// * `csr` — the host digraph: [`CsrDigraph::doubled`] of an undirected
///   graph (arc `2e`/`2e + 1` per edge), or a directed instance's own CSR;
/// * `sources` — the vertices of `S`, each listed once; vertices to be
///   excluded entirely (an `allowed` mask) must be **pre-marked** by the
///   caller via [`PathScratch::begin`]`(csr.num_vertices() + 1)` before
///   the call, and filtered out of `sources`;
/// * `boundary_buf` — caller-owned reusable buffer for the virtual
///   super-source adjacency (reserve `csr.num_arcs()` once to keep the
///   hot path allocation-free).
///
/// Paths start at a vertex of `S`, end at `target`, and avoid `S`
/// internally. They are reported as [`PathDelta`]s over the virtual
/// super-source, which no delta names: the first arc of a path leaves its
/// `S` endpoint (the arc's tail), and every reported vertex lies outside
/// `S`. Arc ids are host arc ids. `target` must not be in `S`; boundary
/// arcs are ordered by arc id, fixing the child order `≺`
/// deterministically.
pub fn enumerate_source_set_paths_csr(
    csr: &CsrDigraph,
    sources: &[VertexId],
    target: VertexId,
    scratch: &mut PathScratch,
    boundary_buf: &mut Vec<(VertexId, ArcId)>,
    sink: &mut dyn FnMut(PathDelta<'_>) -> ControlFlow<()>,
) -> PathEnumStats {
    let n = csr.num_vertices();
    let vsrc = VertexId::new(n);
    let removed = scratch.removed_mask(n + 1);
    for &u in sources {
        removed[u.index()] = true;
    }
    boundary_buf.clear();
    for &u in sources {
        for &(v, a) in csr.out_adjacency(u) {
            if !removed[v.index()] {
                boundary_buf.push((v, a));
            }
        }
    }
    // Arc-id order is the total order `≺` the materialized super-source
    // construction used; keeping it makes the child order (and thus the
    // enumeration order) identical to the historical one.
    boundary_buf.sort_unstable_by_key(|&(_, a)| a);
    if removed[target.index()] {
        return PathEnumStats::default();
    }
    let view = VirtualSourceView {
        base: csr,
        boundary: boundary_buf,
        source: vsrc,
    };
    enumerate_paths_view(&view, vsrc, target, scratch, sink)
}

/// A super-source instance over a *directed* host graph, for the §5.2
/// directed Steiner enumerator: enumerates directed `S`-`w` paths (first
/// vertex in `S`, internal vertices outside `S`).
pub struct DiSourceSetInstance {
    digraph: DiGraph,
    arc_orig: Vec<ArcId>,
    arc_source: Vec<Option<VertexId>>,
    super_source: VertexId,
}

impl DiSourceSetInstance {
    /// Builds the instance from a digraph and a source-set mask. Arcs into
    /// the source set are dropped (no path may re-enter `S`); arcs inside
    /// `S` are dropped; arcs leaving `S` become super-source arcs.
    pub fn new(d: &DiGraph, in_sources: &[bool], allowed: Option<&[bool]>) -> Self {
        let n = d.num_vertices();
        debug_assert_eq!(in_sources.len(), n);
        let mut dd = DiGraph::new(n + 1);
        let super_source = VertexId::new(n);
        let mut arc_orig = Vec::new();
        let mut arc_source = Vec::new();
        let ok = |v: VertexId| allowed.is_none_or(|mask| mask[v.index()]);
        for a in d.arcs() {
            let (t, h) = d.arc(a);
            if !ok(t) || !ok(h) {
                continue;
            }
            match (in_sources[t.index()], in_sources[h.index()]) {
                (true, true) | (false, true) => {}
                (true, false) => {
                    dd.add_arc(super_source, h).expect("boundary arc");
                    arc_orig.push(a);
                    arc_source.push(Some(t));
                }
                (false, false) => {
                    dd.add_arc(t, h).expect("interior arc");
                    arc_orig.push(a);
                    arc_source.push(None);
                }
            }
        }
        DiSourceSetInstance {
            digraph: dd,
            arc_orig,
            arc_source,
            super_source,
        }
    }

    /// Enumerates all directed `S`-`w` paths, reporting original arc ids.
    pub fn enumerate(
        &self,
        target: VertexId,
        sink: &mut dyn FnMut(crate::visit::PathEvent<'_>) -> ControlFlow<()>,
    ) -> PathEnumStats {
        let mut arcs: Vec<ArcId> = Vec::new();
        let mut vertices: Vec<VertexId> = Vec::new();
        enumerate_directed_st_paths(&self.digraph, self.super_source, target, None, &mut |p| {
            debug_assert!(!p.arcs.is_empty());
            arcs.clear();
            vertices.clear();
            let first = p.arcs[0];
            vertices
                .push(self.arc_source[first.index()].expect("first arc leaves the super-source"));
            vertices.extend_from_slice(&p.vertices[1..]);
            arcs.extend(p.arcs.iter().map(|&a| self.arc_orig[a.index()]));
            sink(crate::visit::PathEvent {
                vertices: &vertices,
                arcs: &arcs,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::{PathEvent, WholePaths};
    use std::collections::HashSet;

    /// Whole `S`-`target` paths from the CSR form, first vertex restored
    /// from the first arc's tail.
    fn csr_whole_paths(
        csr: &CsrDigraph,
        sources: &[VertexId],
        target: VertexId,
        scratch: &mut PathScratch,
        boundary: &mut Vec<(VertexId, ArcId)>,
        sink: &mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>,
    ) {
        let vsrc = VertexId::new(csr.num_vertices());
        let mut whole = WholePaths::new(vsrc);
        let mut vertices = Vec::new();
        enumerate_source_set_paths_csr(csr, sources, target, scratch, boundary, &mut |delta| {
            whole.apply(delta, &mut |p| {
                assert!(!p.vertices[1..].contains(&vsrc), "deltas never name σ");
                vertices.clear();
                vertices.push(csr.tail(p.arcs[0]));
                vertices.extend_from_slice(&p.vertices[1..]);
                sink(PathEvent {
                    vertices: &vertices,
                    arcs: p.arcs,
                })
            })
        });
    }

    #[test]
    fn source_set_paths_in_a_square() {
        // Square 0-1-2-3-0; S = {0}; w = 2. Paths: (0,1,2) and (0,3,2).
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let inst = SourceSetInstance::new(&g, &[true, false, false, false], None);
        let mut got: Vec<(Vec<VertexId>, Vec<EdgeId>)> = Vec::new();
        inst.enumerate(VertexId(2), &mut |p| {
            got.push((p.vertices.to_vec(), p.edges.to_vec()));
            ControlFlow::Continue(())
        });
        assert_eq!(got.len(), 2);
        for (verts, edges) in &got {
            assert_eq!(verts[0], VertexId(0));
            assert_eq!(*verts.last().unwrap(), VertexId(2));
            assert_eq!(verts.len(), edges.len() + 1);
        }
    }

    #[test]
    fn boundary_edges_from_distinct_sources_are_distinct_paths() {
        // S = {0, 1}, both adjacent to 2, target 3 behind 2:
        //   0-2, 1-2, 2-3. Two S-3 paths (via the two boundary edges).
        let g = UndirectedGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
        let inst = SourceSetInstance::new(&g, &[true, true, false, false], None);
        let mut firsts = Vec::new();
        inst.enumerate(VertexId(3), &mut |p| {
            firsts.push(p.vertices[0]);
            ControlFlow::Continue(())
        });
        firsts.sort_unstable();
        assert_eq!(firsts, vec![VertexId(0), VertexId(1)]);
    }

    #[test]
    fn internal_vertices_avoid_source_set() {
        // 0 (source) - 1 - 2 (source) - 3; target 3. The only S-3 path is
        // (2, 3): a path through 2 from 0 would have a source internally.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let inst = SourceSetInstance::new(&g, &[true, false, true, false], None);
        let mut got = Vec::new();
        inst.enumerate(VertexId(3), &mut |p| {
            got.push(p.vertices.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got, vec![vec![VertexId(2), VertexId(3)]]);
    }

    #[test]
    fn source_source_edges_are_dropped() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let inst = SourceSetInstance::new(&g, &[true, true, false], None);
        let mut count = 0;
        inst.enumerate(VertexId(2), &mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1, "only 1-2; the edge {{0,1}} is inside S");
    }

    #[test]
    fn directed_source_set_instance() {
        // S = {0}; arcs 0->1, 1->2, 2->0 (back into S, dropped), 0->2.
        let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]).unwrap();
        let inst = DiSourceSetInstance::new(&d, &[true, false, false], None);
        let mut got: HashSet<Vec<ArcId>> = HashSet::new();
        inst.enumerate(VertexId(2), &mut |p| {
            got.insert(p.arcs.to_vec());
            ControlFlow::Continue(())
        });
        let expected: HashSet<Vec<ArcId>> = [vec![ArcId(0), ArcId(1)], vec![ArcId(3)]]
            .into_iter()
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn csr_source_set_matches_materialized_instance() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x05e7);
        let mut scratch = PathScratch::new();
        let mut boundary = Vec::new();
        for case in 0..40 {
            let n = 3 + case % 6;
            let g = steiner_graph::generators::random_connected_graph(n, n + case % 4, &mut rng);
            let csr = CsrDigraph::doubled(&g);
            let in_sources: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let sources: Vec<VertexId> = (0..n)
                .filter(|&v| in_sources[v])
                .map(VertexId::new)
                .collect();
            let target = VertexId::new(n - 1);
            if sources.is_empty() || in_sources[target.index()] {
                continue;
            }
            let inst = SourceSetInstance::new(&g, &in_sources, None);
            let mut want: BTreeSet<(Vec<VertexId>, Vec<EdgeId>)> = BTreeSet::new();
            inst.enumerate(target, &mut |p| {
                want.insert((p.vertices.to_vec(), p.edges.to_vec()));
                ControlFlow::Continue(())
            });
            let mut got: BTreeSet<(Vec<VertexId>, Vec<EdgeId>)> = BTreeSet::new();
            scratch.begin(n + 1);
            csr_whole_paths(
                &csr,
                &sources,
                target,
                &mut scratch,
                &mut boundary,
                &mut |p| {
                    let edges: Vec<EdgeId> =
                        p.arcs.iter().map(|a| EdgeId::new(a.index() / 2)).collect();
                    assert!(in_sources[p.vertices[0].index()], "starts inside S");
                    got.insert((p.vertices.to_vec(), edges));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(got, want, "graph {g:?} sources {sources:?}");
        }
    }

    #[test]
    fn csr_directed_source_set_matches_materialized_instance() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd1_5e7);
        let mut scratch = PathScratch::new();
        let mut boundary = Vec::new();
        for case in 0..40 {
            let n = 3 + case % 5;
            let m = (n + rng.gen_range(0..6)).min(n * (n - 1));
            let d = steiner_graph::generators::random_digraph(n, m, &mut rng);
            let csr = CsrDigraph::from_digraph(&d);
            let in_sources: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let sources: Vec<VertexId> = (0..n)
                .filter(|&v| in_sources[v])
                .map(VertexId::new)
                .collect();
            let target = VertexId::new(n - 1);
            if sources.is_empty() || in_sources[target.index()] {
                continue;
            }
            let inst = DiSourceSetInstance::new(&d, &in_sources, None);
            let mut want: BTreeSet<Vec<ArcId>> = BTreeSet::new();
            inst.enumerate(target, &mut |p| {
                want.insert(p.arcs.to_vec());
                ControlFlow::Continue(())
            });
            let mut got: BTreeSet<Vec<ArcId>> = BTreeSet::new();
            scratch.begin(n + 1);
            csr_whole_paths(
                &csr,
                &sources,
                target,
                &mut scratch,
                &mut boundary,
                &mut |p| {
                    assert!(in_sources[p.vertices[0].index()], "starts inside S");
                    got.insert(p.arcs.to_vec());
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(got, want, "digraph {d:?} sources {sources:?}");
        }
    }

    #[test]
    fn allowed_mask_excludes_vertices() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let allowed = vec![true, false, true, true];
        let inst = SourceSetInstance::new(&g, &[true, false, false, false], Some(&allowed));
        let mut got = Vec::new();
        inst.enumerate(VertexId(3), &mut |p| {
            got.push(p.edges.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got, vec![vec![EdgeId(2), EdgeId(3)]]);
    }
}
