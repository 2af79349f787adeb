//! Flat compressed-sparse-row (CSR) adjacency views.
//!
//! The enumeration hot paths (one `classify`/`branch` per node of the
//! enumeration tree) must not touch the allocator: a `Vec<Vec<_>>`
//! adjacency list costs one allocation per vertex every time a contracted
//! or doubled graph is rebuilt. The CSR views here store degree-prefix
//! offsets plus packed `(neighbor, edge)` arrays, are built once (or
//! rebuilt **in place**, reusing capacity) and hand out neighbor slices
//! with no indirection.
//!
//! Every rebuild method goes through [`grow`], which records whether the
//! operation had to obtain fresh memory — the counter behind the
//! engine's `scratch_allocs` statistic: after a warm-up rebuild sized to
//! the host graph, steady-state rebuilds report zero growth events.

use crate::digraph::DiGraph;
use crate::ids::{ArcId, EdgeId, VertexId};
use crate::undirected::UndirectedGraph;

/// Clears `v` and resizes it to `len` copies of `fill`, reusing capacity.
/// Increments `*allocs` when the resize had to grow the allocation.
#[inline]
pub fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T, allocs: &mut u64) {
    if len > v.capacity() {
        *allocs += 1;
    }
    v.clear();
    v.resize(len, fill);
}

/// Pushes onto `v`, counting a growth event when capacity is exhausted.
#[inline]
pub fn push_tracked<T>(v: &mut Vec<T>, x: T, allocs: &mut u64) {
    if v.len() == v.capacity() {
        *allocs += 1;
    }
    v.push(x);
}

// ---------------------------------------------------------------------------
// Word-packed bitsets.
//
// The path-generation hot path sweeps vertex sets (`removed`, the
// candidate frontier) over the CSR views above. Packing them into `u64` words
// turns per-vertex branchy probes into single-bit tests on 8-byte cache
// lines (64 vertices per line instead of 1–4), and set algebra like
// "reached and not removed" into word-parallel AND-NOT loops. The helpers
// are free functions over plain `&[u64]` slices so callers keep the
// grow/alloc accounting of their owning `Vec<u64>` (via [`grow`]).

/// Number of `u64` words needed for an `n`-bit set.
#[inline]
pub const fn bit_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Tests bit `i`.
#[inline]
pub fn bit_test(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 != 0
}

/// Sets bit `i`.
#[inline]
pub fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Clears bit `i`.
#[inline]
pub fn bit_clear(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1u64 << (i & 63));
}

/// Sets bit `i` to `on`.
#[inline]
pub fn bit_assign(words: &mut [u64], i: usize, on: bool) {
    let w = &mut words[i >> 6];
    let m = 1u64 << (i & 63);
    *w = (*w & !m) | (u64::from(on) << (i & 63));
}

/// Zeroes the whole set (a word-wise memset — the packed replacement for
/// an epoch bump over a per-vertex stamp array).
#[inline]
pub fn bits_clear(words: &mut [u64]) {
    words.fill(0);
}

/// `dst = a & !b`, word-parallel. The "admissible frontier" sweep:
/// `a` = reached-from-`t`, `b` = removed, `dst` = vertices an arc may
/// legally continue to.
#[inline]
pub fn bits_and_not(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x & !y;
    }
}

/// Tests bit `i` and clears it when set. The fused BFS-frontier probe:
/// with a candidate set `¬removed ∧ ¬reached`, "may this arc stamp `z`?"
/// and "stamp `z`" collapse into one word access. The store is skipped
/// on the (common) miss path so probing an already-taken bit stays
/// read-only.
#[inline]
pub fn bit_take(words: &mut [u64], i: usize) -> bool {
    let w = &mut words[i >> 6];
    let m = 1u64 << (i & 63);
    if *w & m == 0 {
        return false;
    }
    *w &= !m;
    true
}

/// `dst = !a`, word-parallel: seeds a candidate set from a removal mask.
#[inline]
pub fn bits_not(dst: &mut [u64], a: &[u64]) {
    for (d, &x) in dst.iter_mut().zip(a) {
        *d = !x;
    }
}

/// An undirected multigraph in CSR form: `adjacency(v)` is a packed slice
/// of `(neighbor, edge)` pairs, ordered by edge id.
#[derive(Clone, Debug, Default)]
pub struct CsrUndirected {
    /// `offsets[v] .. offsets[v + 1]` indexes `adj` (length `n + 1`).
    offsets: Vec<u32>,
    /// Packed `(neighbor, edge)` pairs (length `2m`).
    adj: Vec<(VertexId, EdgeId)>,
    /// Endpoints per edge id (length `m`).
    endpoints: Vec<(VertexId, VertexId)>,
    /// Growth events since construction (see module docs).
    allocs: u64,
}

impl CsrUndirected {
    /// Builds the CSR view of `g`.
    pub fn from_graph(g: &UndirectedGraph) -> Self {
        let mut csr = CsrUndirected::default();
        csr.rebuild_from_graph(g);
        csr
    }

    /// Rebuilds in place from `g`, reusing buffers.
    pub fn rebuild_from_graph(&mut self, g: &UndirectedGraph) {
        let mut allocs = self.allocs;
        grow(
            &mut self.endpoints,
            g.num_edges(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        for e in g.edges() {
            self.endpoints[e.index()] = g.endpoints(e);
        }
        self.allocs = allocs;
        self.rebuild_adjacency(g.num_vertices());
    }

    /// Rebuilds in place from an explicit endpoint list (used for
    /// contracted and augmented graphs). Edge ids follow list order.
    pub fn rebuild_from_edges(&mut self, n: usize, endpoints: &[(VertexId, VertexId)]) {
        let mut allocs = self.allocs;
        grow(
            &mut self.endpoints,
            endpoints.len(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        self.endpoints.copy_from_slice(endpoints);
        self.allocs = allocs;
        self.rebuild_adjacency(n);
    }

    /// Counting sort of `endpoints` into the offset/packed arrays.
    fn rebuild_adjacency(&mut self, n: usize) {
        let m = self.endpoints.len();
        let mut allocs = self.allocs;
        grow(&mut self.offsets, n + 1, 0u32, &mut allocs);
        for &(u, v) in &self.endpoints {
            self.offsets[u.index() + 1] += 1;
            self.offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        grow(&mut self.adj, 2 * m, (VertexId(0), EdgeId(0)), &mut allocs);
        // `offsets[v]` doubles as the fill cursor for `v`; afterwards it
        // holds the *end* of `v`'s range, i.e. the start of `v + 1`'s.
        for (i, &(u, v)) in self.endpoints.iter().enumerate() {
            let e = EdgeId::new(i);
            self.adj[self.offsets[u.index()] as usize] = (v, e);
            self.offsets[u.index()] += 1;
            self.adj[self.offsets[v.index()] as usize] = (u, e);
            self.offsets[v.index()] += 1;
        }
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        self.offsets[0] = 0;
        self.allocs = allocs;
    }

    /// Reserves for rebuilds with up to `n` vertices and `m` edges, so
    /// they do not allocate.
    pub fn preallocate(&mut self, n: usize, m: usize) {
        if self.offsets.capacity() < n + 1 {
            self.offsets.reserve(n + 1 - self.offsets.capacity());
        }
        if self.adj.capacity() < 2 * m {
            self.adj.reserve(2 * m - self.adj.capacity());
        }
        if self.endpoints.capacity() < m {
            self.endpoints.reserve(m - self.endpoints.capacity());
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The packed `(neighbor, edge)` slice of `v`.
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Endpoints of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e.index()]
    }

    /// The endpoint of `e` that is not `v`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.endpoints[e.index()];
        if v == a {
            b
        } else {
            a
        }
    }

    /// Growth events since construction.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity (scratch-space accounting).
    pub fn capacity_bytes(&self) -> u64 {
        (self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.adj.capacity() * std::mem::size_of::<(VertexId, EdgeId)>()
            + self.endpoints.capacity() * std::mem::size_of::<(VertexId, VertexId)>())
            as u64
    }
}

/// A directed multigraph in CSR form with both out- and in-adjacency,
/// usable as a [`steiner` path-view](crate) without per-query indirection.
///
/// Arc ids are preserved from the source ([`DiGraph`] arc ids, or `2e` /
/// `2e + 1` for the doubled form of an undirected graph — the same
/// convention as [`crate::digraph::DoubledDigraph`]).
#[derive(Clone, Debug, Default)]
pub struct CsrDigraph {
    out_off: Vec<u32>,
    out_adj: Vec<(VertexId, ArcId)>,
    in_off: Vec<u32>,
    in_adj: Vec<(VertexId, ArcId)>,
    /// `(tail, head)` per arc id.
    arcs: Vec<(VertexId, VertexId)>,
    allocs: u64,
}

impl CsrDigraph {
    /// Builds the CSR view of `d` (arc ids preserved).
    pub fn from_digraph(d: &DiGraph) -> Self {
        let mut csr = CsrDigraph::default();
        csr.rebuild_from_digraph(d);
        csr
    }

    /// Builds the doubled CSR digraph of an undirected graph: edge `e`
    /// becomes arcs `2e` (forward) and `2e + 1` (backward).
    pub fn doubled(g: &UndirectedGraph) -> Self {
        let mut csr = CsrDigraph::default();
        csr.rebuild_doubled(g);
        csr
    }

    /// As [`Self::doubled`], from a CSR view of the undirected graph.
    pub fn doubled_from_csr(g: &CsrUndirected) -> Self {
        let mut csr = CsrDigraph::default();
        csr.rebuild_doubled_from_csr(g);
        csr
    }

    /// Rebuilds in place from `d`, reusing buffers.
    pub fn rebuild_from_digraph(&mut self, d: &DiGraph) {
        let mut allocs = self.allocs;
        grow(
            &mut self.arcs,
            d.num_arcs(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        for a in d.arcs() {
            self.arcs[a.index()] = d.arc(a);
        }
        self.allocs = allocs;
        self.rebuild_adjacency(d.num_vertices());
    }

    /// Rebuilds the doubled form of `g` in place, reusing buffers.
    pub fn rebuild_doubled(&mut self, g: &UndirectedGraph) {
        let mut allocs = self.allocs;
        grow(
            &mut self.arcs,
            2 * g.num_edges(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            self.arcs[2 * e.index()] = (u, v);
            self.arcs[2 * e.index() + 1] = (v, u);
        }
        self.allocs = allocs;
        self.rebuild_adjacency(g.num_vertices());
    }

    /// Rebuilds the doubled form of a CSR undirected graph in place.
    pub fn rebuild_doubled_from_csr(&mut self, g: &CsrUndirected) {
        let mut allocs = self.allocs;
        grow(
            &mut self.arcs,
            2 * g.num_edges(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        for i in 0..g.num_edges() {
            let (u, v) = g.endpoints(EdgeId::new(i));
            self.arcs[2 * i] = (u, v);
            self.arcs[2 * i + 1] = (v, u);
        }
        self.allocs = allocs;
        self.rebuild_adjacency(g.num_vertices());
    }

    /// Rebuilds in place from an explicit `(tail, head)` arc list.
    pub fn rebuild_from_arcs(&mut self, n: usize, arcs: &[(VertexId, VertexId)]) {
        let mut allocs = self.allocs;
        grow(
            &mut self.arcs,
            arcs.len(),
            (VertexId(0), VertexId(0)),
            &mut allocs,
        );
        self.arcs.copy_from_slice(arcs);
        self.allocs = allocs;
        self.rebuild_adjacency(n);
    }

    fn rebuild_adjacency(&mut self, n: usize) {
        let m = self.arcs.len();
        let mut allocs = self.allocs;
        grow(&mut self.out_off, n + 1, 0u32, &mut allocs);
        grow(&mut self.in_off, n + 1, 0u32, &mut allocs);
        for &(t, h) in &self.arcs {
            self.out_off[t.index() + 1] += 1;
            self.in_off[h.index() + 1] += 1;
        }
        for i in 0..n {
            self.out_off[i + 1] += self.out_off[i];
            self.in_off[i + 1] += self.in_off[i];
        }
        grow(&mut self.out_adj, m, (VertexId(0), ArcId(0)), &mut allocs);
        grow(&mut self.in_adj, m, (VertexId(0), ArcId(0)), &mut allocs);
        for (i, &(t, h)) in self.arcs.iter().enumerate() {
            let a = ArcId::new(i);
            self.out_adj[self.out_off[t.index()] as usize] = (h, a);
            self.out_off[t.index()] += 1;
            self.in_adj[self.in_off[h.index()] as usize] = (t, a);
            self.in_off[h.index()] += 1;
        }
        for v in (1..=n).rev() {
            self.out_off[v] = self.out_off[v - 1];
            self.in_off[v] = self.in_off[v - 1];
        }
        self.out_off[0] = 0;
        self.in_off[0] = 0;
        self.allocs = allocs;
    }

    /// Reserves for rebuilds with up to `n` vertices and `m` arcs, so
    /// they do not allocate.
    pub fn preallocate(&mut self, n: usize, m: usize) {
        if self.out_off.capacity() < n + 1 {
            self.out_off.reserve(n + 1 - self.out_off.capacity());
        }
        if self.in_off.capacity() < n + 1 {
            self.in_off.reserve(n + 1 - self.in_off.capacity());
        }
        if self.out_adj.capacity() < m {
            self.out_adj.reserve(m - self.out_adj.capacity());
        }
        if self.in_adj.capacity() < m {
            self.in_adj.reserve(m - self.in_adj.capacity());
        }
        if self.arcs.capacity() < m {
            self.arcs.reserve(m - self.arcs.capacity());
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_off.len().saturating_sub(1)
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Packed `(head, arc)` slice of arcs leaving `v`, in arc-id order —
    /// the total order `≺_v` that the path enumerator's `F-STP` requires.
    #[inline]
    pub fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        &self.out_adj[self.out_off[v.index()] as usize..self.out_off[v.index() + 1] as usize]
    }

    /// Packed `(tail, arc)` slice of arcs entering `v`.
    #[inline]
    pub fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        &self.in_adj[self.in_off[v.index()] as usize..self.in_off[v.index() + 1] as usize]
    }

    /// `(tail, head)` of arc `a`.
    #[inline]
    pub fn arc(&self, a: ArcId) -> (VertexId, VertexId) {
        self.arcs[a.index()]
    }

    /// Tail of arc `a`.
    #[inline]
    pub fn tail(&self, a: ArcId) -> VertexId {
        self.arcs[a.index()].0
    }

    /// Head of arc `a`.
    #[inline]
    pub fn head(&self, a: ArcId) -> VertexId {
        self.arcs[a.index()].1
    }

    /// Growth events since construction.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity (scratch-space accounting).
    pub fn capacity_bytes(&self) -> u64 {
        ((self.out_off.capacity() + self.in_off.capacity()) * std::mem::size_of::<u32>()
            + (self.out_adj.capacity() + self.in_adj.capacity())
                * std::mem::size_of::<(VertexId, ArcId)>()
            + self.arcs.capacity() * std::mem::size_of::<(VertexId, VertexId)>()) as u64
    }
}

/// A reusable incidence index over an *edge subset* of a host graph:
/// `incident(v)` lists the subset edges touching `v`. Rebuilt per node in
/// O(n + |edges|) without allocating (after warm-up); replaces the
/// `Vec<Vec<EdgeId>>` builds in leaf pruning, branch-side search, and the
/// forest unique-completion walk.
#[derive(Clone, Debug, Default)]
pub struct IncidenceCsr {
    offsets: Vec<u32>,
    items: Vec<EdgeId>,
    allocs: u64,
}

impl IncidenceCsr {
    /// Rebuilds the index for `edges`, whose endpoints are given by
    /// `endpoints_of`. `n` is the host vertex count.
    pub fn rebuild(
        &mut self,
        n: usize,
        edges: &[EdgeId],
        mut endpoints_of: impl FnMut(EdgeId) -> (VertexId, VertexId),
    ) {
        let mut allocs = self.allocs;
        grow(&mut self.offsets, n + 1, 0u32, &mut allocs);
        for &e in edges {
            let (u, v) = endpoints_of(e);
            self.offsets[u.index() + 1] += 1;
            self.offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        grow(&mut self.items, 2 * edges.len(), EdgeId(0), &mut allocs);
        for &e in edges {
            let (u, v) = endpoints_of(e);
            self.items[self.offsets[u.index()] as usize] = e;
            self.offsets[u.index()] += 1;
            self.items[self.offsets[v.index()] as usize] = e;
            self.offsets[v.index()] += 1;
        }
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        self.offsets[0] = 0;
        self.allocs = allocs;
    }

    /// Reserves for hosts with `n` vertices and subsets of up to
    /// `max_edges` edges, so later rebuilds do not allocate.
    pub fn preallocate(&mut self, n: usize, max_edges: usize) {
        if self.offsets.capacity() < n + 1 {
            self.offsets.reserve(n + 1 - self.offsets.capacity());
        }
        if self.items.capacity() < 2 * max_edges {
            self.items.reserve(2 * max_edges - self.items.capacity());
        }
    }

    /// The subset edges incident to `v`.
    #[inline]
    pub fn incident(&self, v: VertexId) -> &[EdgeId] {
        &self.items[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Growth events since construction.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity.
    pub fn capacity_bytes(&self) -> u64 {
        (self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<EdgeId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_csr_matches_graph() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]).unwrap();
        let csr = CsrUndirected::from_graph(&g);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 5);
        for v in g.vertices() {
            let want: Vec<(VertexId, EdgeId)> = g.neighbors(v).collect();
            assert_eq!(csr.adjacency(v), &want[..], "vertex {v}");
            assert_eq!(csr.degree(v), g.degree(v));
        }
        for e in g.edges() {
            assert_eq!(csr.endpoints(e), g.endpoints(e));
            let (u, _) = g.endpoints(e);
            assert_eq!(csr.other_endpoint(e, u), g.other_endpoint(e, u));
        }
    }

    #[test]
    fn adjacency_is_in_edge_id_order() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (0, 2), (0, 1)]).unwrap();
        let csr = CsrUndirected::from_graph(&g);
        let ids: Vec<EdgeId> = csr.adjacency(VertexId(0)).iter().map(|&(_, e)| e).collect();
        assert_eq!(ids, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut csr = CsrUndirected::from_graph(&g);
        let after_build = csr.alloc_events();
        let smaller = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        csr.rebuild_from_graph(&smaller);
        csr.rebuild_from_graph(&g);
        assert_eq!(
            csr.alloc_events(),
            after_build,
            "same-size rebuilds must not grow"
        );
    }

    #[test]
    fn digraph_csr_matches_digraph() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 0)]).unwrap();
        let csr = CsrDigraph::from_digraph(&d);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_arcs(), 5);
        for v in d.vertices() {
            let out: Vec<(VertexId, ArcId)> = d.out_neighbors(v).collect();
            let inn: Vec<(VertexId, ArcId)> = d.in_neighbors(v).collect();
            assert_eq!(csr.out_adjacency(v), &out[..]);
            assert_eq!(csr.in_adjacency(v), &inn[..]);
        }
        for a in d.arcs() {
            assert_eq!(csr.arc(a), d.arc(a));
            assert_eq!(csr.tail(a), d.tail(a));
            assert_eq!(csr.head(a), d.head(a));
        }
    }

    #[test]
    fn doubled_matches_doubled_digraph() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let doubled = crate::digraph::DoubledDigraph::new(&g);
        let csr = CsrDigraph::doubled(&g);
        assert_eq!(csr.num_arcs(), doubled.digraph.num_arcs());
        for v in g.vertices() {
            let want: Vec<(VertexId, ArcId)> = doubled.digraph.out_neighbors(v).collect();
            assert_eq!(csr.out_adjacency(v), &want[..]);
        }
        for a in doubled.digraph.arcs() {
            assert_eq!(csr.arc(a), doubled.digraph.arc(a));
        }
        // Arc → edge mapping is arithmetic, as in DoubledDigraph.
        assert_eq!(csr.arc(ArcId(3)).0, g.endpoints(EdgeId(1)).1);
    }

    // The next three tests keep the names of the in-place delta replay
    // the views once had. Every query now rebuilds its views, so they
    // check that a view reused across mutation batches of an epoch graph
    // (removals renumber ids; batches insert after a removal) equals a
    // fresh build.

    #[test]
    fn apply_delta_tracks_mutated_graph() {
        use crate::epoch::{EpochGraph, GraphMutation};
        let g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (2, 0)]).unwrap();
        let mut eg = EpochGraph::new(g);
        let mut csr = CsrUndirected::from_graph(eg.graph());
        csr.preallocate(6, 12);
        let warm = csr.alloc_events();
        let batches: Vec<Vec<GraphMutation>> = vec![
            vec![GraphMutation::InsertEdge {
                u: VertexId(4),
                v: VertexId(5),
            }],
            vec![
                GraphMutation::RemoveEdge(EdgeId(1)),
                GraphMutation::InsertEdge {
                    u: VertexId(0),
                    v: VertexId(3),
                },
            ],
            vec![GraphMutation::RemoveEdge(EdgeId(0))],
        ];
        for batch in &batches {
            eg.batch_apply(batch).unwrap();
            csr.rebuild_from_graph(eg.graph());
            let fresh = CsrUndirected::from_graph(eg.graph());
            assert_eq!(csr.num_edges(), fresh.num_edges());
            for v in eg.graph().vertices() {
                assert_eq!(csr.adjacency(v), fresh.adjacency(v), "vertex {v}");
            }
            for e in eg.graph().edges() {
                assert_eq!(csr.endpoints(e), fresh.endpoints(e));
            }
        }
        assert_eq!(csr.alloc_events(), warm, "reserved rebuilds do not grow");
    }

    #[test]
    fn apply_delta_doubled_tracks_mutated_graph() {
        use crate::epoch::{EpochGraph, GraphMutation};
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut eg = EpochGraph::new(g);
        let mut csr = CsrDigraph::doubled(eg.graph());
        eg.batch_apply(&[
            GraphMutation::RemoveEdge(EdgeId(1)),
            GraphMutation::InsertEdge {
                u: VertexId(4),
                v: VertexId(0),
            },
        ])
        .unwrap();
        csr.rebuild_doubled(eg.graph());
        let fresh = CsrDigraph::doubled(eg.graph());
        assert_eq!(csr.num_arcs(), fresh.num_arcs());
        for v in eg.graph().vertices() {
            assert_eq!(csr.out_adjacency(v), fresh.out_adjacency(v));
            assert_eq!(csr.in_adjacency(v), fresh.in_adjacency(v));
        }
    }

    #[test]
    fn digraph_apply_delta_tracks_mutations() {
        use crate::epoch::{ArcMutation, EpochDigraph};
        let d = DiGraph::from_arcs(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut ed = EpochDigraph::new(d);
        let mut csr = CsrDigraph::from_digraph(ed.graph());
        ed.batch_apply(&[
            ArcMutation::RemoveArc(ArcId(0)),
            ArcMutation::InsertArc {
                tail: VertexId(2),
                head: VertexId(3),
            },
        ])
        .unwrap();
        csr.rebuild_from_digraph(ed.graph());
        let fresh = CsrDigraph::from_digraph(ed.graph());
        assert_eq!(csr.num_arcs(), fresh.num_arcs());
        for v in ed.graph().vertices() {
            assert_eq!(csr.out_adjacency(v), fresh.out_adjacency(v));
            assert_eq!(csr.in_adjacency(v), fresh.in_adjacency(v));
        }
        for a in ed.graph().arcs() {
            assert_eq!(csr.arc(a), fresh.arc(a));
        }
    }

    #[test]
    fn bitset_helpers_round_trip() {
        let n = 130;
        let mut words = vec![0u64; bit_words(n)];
        assert_eq!(words.len(), 3);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!bit_test(&words, i));
            bit_set(&mut words, i);
            assert!(bit_test(&words, i));
        }
        bit_clear(&mut words, 64);
        assert!(!bit_test(&words, 64));
        bit_assign(&mut words, 64, true);
        assert!(bit_test(&words, 64));
        bit_assign(&mut words, 64, false);
        assert!(!bit_test(&words, 64));
        let a = words.clone();
        let mut b = vec![0u64; 3];
        bit_set(&mut b, 63);
        bit_set(&mut b, 129);
        let mut dst = vec![u64::MAX; 3];
        bits_and_not(&mut dst, &a, &b);
        assert!(bit_test(&dst, 0) && !bit_test(&dst, 63) && !bit_test(&dst, 129));
        assert!(bit_test(&dst, 128));
        bits_clear(&mut dst);
        assert_eq!(dst, vec![0u64; 3]);
        // bit_take: first probe claims the bit, the second misses.
        let mut c = vec![0u64; 3];
        bit_set(&mut c, 65);
        assert!(bit_take(&mut c, 65));
        assert!(!bit_take(&mut c, 65));
        assert!(!bit_take(&mut c, 64));
        // bits_not complements word-wise.
        let mut inv = vec![0u64; 3];
        bits_not(&mut inv, &b);
        assert!(!bit_test(&inv, 63) && bit_test(&inv, 64) && !bit_test(&inv, 129));
    }

    #[test]
    fn incidence_over_edge_subset() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut inc = IncidenceCsr::default();
        inc.rebuild(4, &[EdgeId(0), EdgeId(2)], |e| g.endpoints(e));
        assert_eq!(inc.incident(VertexId(0)), &[EdgeId(0)]);
        assert_eq!(inc.incident(VertexId(1)), &[EdgeId(0)]);
        assert_eq!(inc.incident(VertexId(2)), &[EdgeId(2)]);
        assert_eq!(inc.incident(VertexId(3)), &[EdgeId(2)]);
        inc.rebuild(4, &[EdgeId(1)], |e| g.endpoints(e));
        assert_eq!(inc.incident(VertexId(0)), &[] as &[EdgeId]);
        assert_eq!(inc.incident(VertexId(1)), &[EdgeId(1)]);
    }
}
