//! Spanning trees containing a required subtree, leaf pruning, and the
//! forced-path skeleton.
//!
//! The completion helpers implement the steps the paper uses over and
//! over: Lemma 13 (grow a partial Steiner tree into a spanning tree, then
//! remove non-terminal leaves — Proposition 3) and Lemma 28 (terminal
//! Steiner trees, Proposition 26).
//!
//! [`DynamicSpanning`] is the incremental-classification substrate: a
//! static *forced-edge skeleton* (bridges for the undirected problems,
//! unique in-arcs for the directed one) answering forced-path queries in
//! O(affected component). The tree, terminal and directed engines query
//! it from `classify`, so a node whose missing terminals are all forced
//! needs no spanning-growth pass.

use crate::ids::{EdgeId, VertexId};
use crate::traversal::{bfs, BfsForest};
use crate::undirected::UndirectedGraph;

/// A tree grown from seed vertices around a base edge set.
#[derive(Clone, Debug)]
pub struct GrownTree {
    /// All tree edges: the base edges plus BFS parent edges.
    pub edges: Vec<EdgeId>,
    /// The BFS forest used to grow the tree (parents point toward seeds).
    pub forest: BfsForest,
}

/// Grows a tree that contains all `base_edges` and spans every `allowed`
/// vertex reachable from `seeds`.
///
/// `seeds` must cover the vertex set of `base_edges`, and the base edges
/// must form a forest — both hold for the partial Steiner trees the
/// enumerators maintain. O(n + m).
pub fn grow_spanning_tree(
    g: &UndirectedGraph,
    seeds: &[VertexId],
    base_edges: &[EdgeId],
    allowed: Option<&[bool]>,
) -> GrownTree {
    let forest = bfs(g, seeds, allowed);
    let mut edges = Vec::with_capacity(base_edges.len() + forest.order.len());
    edges.extend_from_slice(base_edges);
    for &v in &forest.order {
        if let Some(e) = forest.parent_edge[v.index()] {
            edges.push(e);
        }
    }
    GrownTree { edges, forest }
}

/// Repeatedly deletes degree-≤1 vertices not accepted by `keep` from the
/// edge set `tree_edges`, returning the surviving edges (in their original
/// order). This is the Proposition 3 reduction: the result's leaves all
/// satisfy `keep`.
///
/// `tree_edges` must be a forest. O(n + |tree_edges|).
pub fn prune_leaves(
    g: &UndirectedGraph,
    tree_edges: &[EdgeId],
    keep: impl Fn(VertexId) -> bool,
) -> Vec<EdgeId> {
    let n = g.num_vertices();
    // Incidence restricted to the tree edges.
    let mut incident: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    let mut degree = vec![0u32; n];
    for &e in tree_edges {
        let (u, v) = g.endpoints(e);
        incident[u.index()].push(e);
        incident[v.index()].push(e);
        degree[u.index()] += 1;
        degree[v.index()] += 1;
    }
    let mut removed_edge = vec![false; g.num_edges()];
    let mut queue: Vec<VertexId> = Vec::new();
    for &e in tree_edges {
        let (u, v) = g.endpoints(e);
        for w in [u, v] {
            if degree[w.index()] == 1 && !keep(w) {
                queue.push(w);
            }
        }
    }
    queue.sort_unstable();
    queue.dedup();
    while let Some(v) = queue.pop() {
        if degree[v.index()] != 1 || keep(v) {
            continue;
        }
        let e = *incident[v.index()]
            .iter()
            .find(|e| !removed_edge[e.index()])
            .expect("degree-1 vertex has a live incident edge");
        removed_edge[e.index()] = true;
        degree[v.index()] = 0;
        let u = g.other_endpoint(e, v);
        degree[u.index()] -= 1;
        if degree[u.index()] == 1 && !keep(u) {
            queue.push(u);
        }
    }
    tree_edges
        .iter()
        .copied()
        .filter(|e| !removed_edge[e.index()])
        .collect()
}

/// Reusable buffers for the allocation-free completion pipeline
/// ([`grow_spanning_tree_csr`] + [`prune_leaves_csr`]): one instance per
/// problem, sized at `prepare()`, reused every node.
#[derive(Clone, Debug, Default)]
pub struct CompletionScratch {
    /// In/out edge buffer: the grown tree, pruned in place.
    pub edges: Vec<EdgeId>,
    visited: Vec<bool>,
    /// BFS parent edge per visited vertex (`u32::MAX` for seeds); written
    /// by [`grow_spanning_tree_csr`], consumed by [`prune_leaves_csr`].
    parent_edge: Vec<u32>,
    queue: Vec<VertexId>,
    degree: Vec<u32>,
    /// Epoch-stamped removal marks (`removed_stamp[e] == epoch` ⇔ pruned
    /// this call) — avoids an O(m) clear per node.
    removed_stamp: Vec<u32>,
    epoch: u32,
    prune_queue: Vec<VertexId>,
    allocs: u64,
}

impl CompletionScratch {
    /// Reserves for graphs with `n` vertices and `m` edges, so later runs
    /// do not allocate. The edge buffer is sized for a grown tree plus a
    /// base forest plus one leaf edge per terminal (≤ 3n).
    pub fn preallocate(&mut self, n: usize, m: usize) {
        let edges_cap = 3 * n + 4;
        if self.edges.capacity() < edges_cap {
            self.edges.reserve(edges_cap - self.edges.capacity());
        }
        if self.visited.capacity() < n {
            self.visited.reserve(n - self.visited.capacity());
        }
        crate::csr::grow(&mut self.parent_edge, n, u32::MAX, &mut self.allocs);
        if self.queue.capacity() < n {
            self.queue.reserve(n - self.queue.capacity());
        }
        if self.degree.capacity() < n {
            self.degree.reserve(n - self.degree.capacity());
        }
        crate::csr::grow(&mut self.removed_stamp, m, 0u32, &mut self.allocs);
        let pq_cap = 6 * n + 16;
        if self.prune_queue.capacity() < pq_cap {
            self.prune_queue
                .reserve(pq_cap - self.prune_queue.capacity());
        }
        self.allocs = 0;
    }

    /// Growth events recorded by the scratch buffers.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity.
    pub fn capacity_bytes(&self) -> u64 {
        (self.edges.capacity() * std::mem::size_of::<EdgeId>()
            + self.visited.capacity() * std::mem::size_of::<bool>()
            + (self.queue.capacity() + self.prune_queue.capacity())
                * std::mem::size_of::<VertexId>()
            + (self.degree.capacity()
                + self.parent_edge.capacity()
                + self.removed_stamp.capacity())
                * std::mem::size_of::<u32>()) as u64
    }
}

/// As [`grow_spanning_tree`], but over a CSR view, writing the grown edge
/// set into `scratch.edges` without allocating (after warm-up). The BFS
/// forest itself is not exposed — the enumeration hot path only needs the
/// edge set.
pub fn grow_spanning_tree_csr(
    g: &crate::csr::CsrUndirected,
    seeds: &[VertexId],
    base_edges: &[EdgeId],
    allowed: Option<&[bool]>,
    scratch: &mut CompletionScratch,
) {
    let n = g.num_vertices();
    crate::csr::grow(&mut scratch.visited, n, false, &mut scratch.allocs);
    if scratch.parent_edge.len() != n {
        crate::csr::grow(&mut scratch.parent_edge, n, u32::MAX, &mut scratch.allocs);
    }
    scratch.queue.clear();
    if scratch.queue.capacity() < n {
        scratch.allocs += 1;
        scratch.queue.reserve(n);
    }
    scratch.edges.clear();
    if scratch.edges.capacity() < n + base_edges.len() {
        scratch.allocs += 1;
        scratch.edges.reserve(n + base_edges.len());
    }
    scratch.edges.extend_from_slice(base_edges);
    let ok = |v: VertexId| allowed.is_none_or(|mask| mask[v.index()]);
    for &r in seeds {
        if ok(r) && !scratch.visited[r.index()] {
            scratch.visited[r.index()] = true;
            scratch.parent_edge[r.index()] = u32::MAX;
            scratch.queue.push(r);
        }
    }
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        for &(v, e) in g.adjacency(u) {
            if ok(v) && !scratch.visited[v.index()] {
                scratch.visited[v.index()] = true;
                scratch.parent_edge[v.index()] = e.index() as u32;
                scratch.edges.push(e);
                scratch.queue.push(v);
            }
        }
    }
}

/// As [`prune_leaves`], but pruning `scratch.edges` **in place** without
/// allocating — and without the incidence-index build or any O(n + m)
/// clearing: degrees are reset through the edge list itself and removal
/// marks are epoch stamps. Must be called on the scratch of the matching
/// [`grow_spanning_tree_csr`] run (optionally with extra leaf edges
/// appended whose kept endpoint is a `keep` vertex): the unique live edge
/// of a removable leaf is then its BFS parent edge — base edges join kept
/// vertices, leaf edges hang off kept vertices and give their inner
/// endpoint degree ≥ 2, and child edges are gone once a vertex reaches
/// degree 1.
pub fn prune_leaves_csr(
    g: &crate::csr::CsrUndirected,
    keep: impl Fn(VertexId) -> bool,
    scratch: &mut CompletionScratch,
) {
    let n = g.num_vertices();
    if scratch.degree.len() != n {
        crate::csr::grow(&mut scratch.degree, n, 0u32, &mut scratch.allocs);
    }
    if scratch.removed_stamp.len() != g.num_edges() {
        crate::csr::grow(
            &mut scratch.removed_stamp,
            g.num_edges(),
            0u32,
            &mut scratch.allocs,
        );
    }
    scratch.epoch += 1;
    let ep = scratch.epoch;
    for &e in &scratch.edges {
        let (u, v) = g.endpoints(e);
        scratch.degree[u.index()] = 0;
        scratch.degree[v.index()] = 0;
    }
    for &e in &scratch.edges {
        let (u, v) = g.endpoints(e);
        scratch.degree[u.index()] += 1;
        scratch.degree[v.index()] += 1;
    }
    scratch.prune_queue.clear();
    for &e in &scratch.edges {
        let (u, v) = g.endpoints(e);
        for w in [u, v] {
            if scratch.degree[w.index()] == 1 && !keep(w) {
                scratch.prune_queue.push(w);
            }
        }
    }
    while let Some(v) = scratch.prune_queue.pop() {
        if scratch.degree[v.index()] != 1 || keep(v) {
            continue;
        }
        let e = scratch.parent_edge[v.index()];
        debug_assert_ne!(e, u32::MAX, "removable leaves are BFS-discovered");
        debug_assert_ne!(
            scratch.removed_stamp[e as usize], ep,
            "a live leaf's parent edge is still present"
        );
        scratch.removed_stamp[e as usize] = ep;
        scratch.degree[v.index()] = 0;
        let u = g.other_endpoint(EdgeId::new(e as usize), v);
        scratch.degree[u.index()] -= 1;
        if scratch.degree[u.index()] == 1 && !keep(u) {
            scratch.prune_queue.push(u);
        }
    }
    let stamps = &scratch.removed_stamp;
    scratch.edges.retain(|e| stamps[e.index()] != ep);
}

/// Forced-path queries over a static **forced-edge skeleton**.
///
/// The enumeration engines never mutate the instance graph — a branch
/// step only *perturbs the partial solution* by one path. What their
/// per-node classification needs from the graph is connectivity along
/// edges that are *forced* (on every valid extension): bridges of `G`
/// for minimal Steiner trees (Lemma 16), bridges of `G[C ∪ W]` for
/// terminal Steiner trees (Lemma 30), and unique in-arcs for directed
/// trees (the forced suffix of every valid path, Lemma 35). Each
/// skeleton is **static** per prepared instance.
///
/// [`Self::is_forced`] / [`Self::collect_forced_path`] search the
/// skeleton *from the queried terminal* toward the nearest source with
/// early exit, so a classification pays O(affected component), not
/// O(n + m), and a node whose terminals are all in-solution pays nothing
/// at all. The *source oracle* (which vertices belong to the partial
/// solution) is supplied per query as a closure over the problem's own
/// trail-backed membership mask: the branch deltas the engines already
/// apply on descent and restore on backtrack are the only state a query
/// reads, so the structure itself has nothing to update or undo.
///
/// Vertices flagged via [`Self::set_barrier`] are *usable as endpoints
/// of a query but never traversed through* (the terminal Steiner variant
/// uses this for terminals, which valid paths may end at but never pass
/// through), and a barrier source never terminates a query (a terminal
/// leaf of the partial tree is not a valid attachment point).
#[derive(Clone, Debug, Default)]
pub struct DynamicSpanning {
    n: usize,
    /// Skeleton out-CSR: `off[v]..off[v+1]` indexes `adj`. Undirected
    /// callers insert both arc directions; the directed enumerator
    /// inserts *reversed* unique in-arcs so queries walk backward.
    off: Vec<u32>,
    adj: Vec<(VertexId, u32)>,
    /// Build buffer for [`Self::add_arc`] until [`Self::finish_skeleton`].
    arc_buf: Vec<(VertexId, VertexId, u32)>,
    /// Query-endpoint-only vertices (see type docs).
    barrier: Vec<bool>,
    /// Per-query visit stamps and BFS parents.
    visit: Vec<u32>,
    query_epoch: u32,
    parent_edge: Vec<u32>,
    parent_vertex: Vec<u32>,
    queue: Vec<VertexId>,
    /// Per-extraction edge dedup stamps for
    /// [`Self::collect_forced_path`].
    edge_stamp: Vec<u32>,
    collect_epoch: u32,
    /// Largest skeleton edge id seen (+1), sizing `edge_stamp`.
    id_bound: usize,
    queries: u64,
    explored: u64,
    max_explored: u64,
    allocs: u64,
}

impl DynamicSpanning {
    /// An empty structure; call [`Self::begin_skeleton`] before use.
    pub fn new() -> Self {
        DynamicSpanning::default()
    }

    /// Reserves every buffer for `n` vertices and `m` skeleton arcs so
    /// later skeleton rebuilds and queries do not allocate.
    pub fn preallocate(&mut self, n: usize, m: usize) {
        crate::csr::grow(&mut self.off, n + 1, 0u32, &mut self.allocs);
        crate::csr::grow(&mut self.adj, m, (VertexId(0), 0u32), &mut self.allocs);
        if self.arc_buf.capacity() < m {
            self.arc_buf.reserve(m - self.arc_buf.capacity());
        }
        crate::csr::grow(&mut self.barrier, n, false, &mut self.allocs);
        crate::csr::grow(&mut self.visit, n, 0u32, &mut self.allocs);
        crate::csr::grow(&mut self.parent_edge, n, 0u32, &mut self.allocs);
        crate::csr::grow(&mut self.parent_vertex, n, 0u32, &mut self.allocs);
        if self.queue.capacity() < n {
            self.queue.reserve(n - self.queue.capacity());
        }
        crate::csr::grow(&mut self.edge_stamp, m, 0u32, &mut self.allocs);
        self.allocs = 0;
    }

    /// Starts a skeleton rebuild over `n` vertices: clears the arc
    /// buffer, all barriers and the query state.
    pub fn begin_skeleton(&mut self, n: usize) {
        self.n = n;
        self.arc_buf.clear();
        crate::csr::grow(&mut self.barrier, n, false, &mut self.allocs);
        crate::csr::grow(&mut self.visit, n, 0u32, &mut self.allocs);
        crate::csr::grow(&mut self.parent_edge, n, 0u32, &mut self.allocs);
        crate::csr::grow(&mut self.parent_vertex, n, 0u32, &mut self.allocs);
        self.query_epoch = 0;
        self.collect_epoch = 0;
        self.id_bound = 0;
    }

    /// Flags `v` as a barrier: queries may end *at* it (it is never a
    /// valid endpoint, though) but never traverse *through* it. Call
    /// between [`Self::begin_skeleton`] and [`Self::finish_skeleton`].
    pub fn set_barrier(&mut self, v: VertexId) {
        self.barrier[v.index()] = true;
    }

    /// Adds the directed skeleton arc `u → v` carrying caller-chosen
    /// `id` (an edge or arc id, returned verbatim by the forced-path
    /// walk).
    pub fn add_arc(&mut self, u: VertexId, v: VertexId, id: u32) {
        self.id_bound = self.id_bound.max(id as usize + 1);
        crate::csr::push_tracked(&mut self.arc_buf, (u, v, id), &mut self.allocs);
    }

    /// Adds the undirected skeleton edge `{u, v}` (both arc directions).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, id: u32) {
        self.add_arc(u, v, id);
        self.add_arc(v, u, id);
    }

    /// Finalizes the skeleton: counting-sorts the buffered arcs into the
    /// CSR. After this call the structure is ready for forced-path
    /// queries.
    pub fn finish_skeleton(&mut self) {
        let n = self.n;
        crate::csr::grow(&mut self.off, n + 1, 0u32, &mut self.allocs);
        for &(u, _, _) in &self.arc_buf {
            self.off[u.index() + 1] += 1;
        }
        for i in 0..n {
            self.off[i + 1] += self.off[i];
        }
        crate::csr::grow(
            &mut self.adj,
            self.arc_buf.len(),
            (VertexId(0), 0u32),
            &mut self.allocs,
        );
        for i in 0..self.arc_buf.len() {
            let (u, v, id) = self.arc_buf[i];
            self.adj[self.off[u.index()] as usize] = (v, id);
            self.off[u.index()] += 1;
        }
        for v in (1..=n).rev() {
            self.off[v] = self.off[v - 1];
        }
        self.off[0] = 0;
        crate::csr::grow(&mut self.edge_stamp, self.id_bound, 0u32, &mut self.allocs);
    }

    /// **Forced query.** Whether `w` has a skeleton path to a non-barrier
    /// source (per the `is_source` oracle — normally the problem's
    /// partial-solution membership mask) whose interior avoids barriers
    /// and sources — i.e. whether the partial solution forces a unique
    /// valid extension to `w`. Early-exiting BFS from `w`: O(explored),
    /// bounded by the skeleton component of `w`.
    pub fn is_forced(&mut self, w: VertexId, is_source: impl Fn(VertexId) -> bool) -> bool {
        self.forced_search(w, &is_source).is_some()
    }

    /// Starts a forced-path extraction: subsequent
    /// [`Self::collect_forced_path`] calls share one dedup generation,
    /// so overlapping paths contribute each skeleton edge once.
    pub fn begin_collect(&mut self) {
        if self.collect_epoch == u32::MAX {
            self.edge_stamp.iter_mut().for_each(|s| *s = 0);
            self.collect_epoch = 0;
        }
        self.collect_epoch += 1;
    }

    /// The all-forced scan-and-collect shared by the enumerators' Unique
    /// fast paths: starts a fresh extraction generation, then for every
    /// terminal not already in the solution collects its forced path.
    /// Returns `true` iff **all** terminals were forced; on `false` the
    /// caller discards whatever was pushed (the scan aborts at the first
    /// unforced terminal).
    pub fn collect_all_forced(
        &mut self,
        terminals: &[VertexId],
        is_source: impl Fn(VertexId) -> bool,
        mut push: impl FnMut(u32),
    ) -> bool {
        self.begin_collect();
        terminals
            .iter()
            .all(|&w| is_source(w) || self.collect_forced_path(w, &is_source, &mut push))
    }

    /// Re-runs the forced query for `w` and hands the skeleton edge ids
    /// of its forced path to `push` (nearest-source path, deduplicated
    /// against the other paths of this extraction generation). Returns
    /// whether `w` was forced; pushes nothing otherwise.
    pub fn collect_forced_path(
        &mut self,
        w: VertexId,
        is_source: impl Fn(VertexId) -> bool,
        mut push: impl FnMut(u32),
    ) -> bool {
        let Some(found) = self.forced_search(w, &is_source) else {
            return false;
        };
        let mut cur = found;
        while cur != w {
            let id = self.parent_edge[cur.index()];
            if self.edge_stamp[id as usize] != self.collect_epoch {
                self.edge_stamp[id as usize] = self.collect_epoch;
                push(id);
            }
            cur = VertexId(self.parent_vertex[cur.index()]);
        }
        true
    }

    /// The BFS core of the forced queries: explores from `w` (always
    /// expanding `w` itself, even if it is a barrier — the queried
    /// terminal's own edges are usable), never expanding other
    /// barriers, until the first non-barrier source. Returns the found
    /// source; BFS parents are left for path extraction.
    fn forced_search(
        &mut self,
        w: VertexId,
        is_source: &dyn Fn(VertexId) -> bool,
    ) -> Option<VertexId> {
        self.queries += 1;
        if is_source(w) && !self.barrier[w.index()] {
            return Some(w);
        }
        if self.query_epoch == u32::MAX {
            self.visit.iter_mut().for_each(|s| *s = 0);
            self.query_epoch = 0;
        }
        self.query_epoch += 1;
        let qe = self.query_epoch;
        self.visit[w.index()] = qe;
        self.queue.clear();
        self.queue.push(w);
        let mut head = 0usize;
        let mut found = None;
        'bfs: while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            if u != w && self.barrier[u.index()] {
                continue; // endpoint-only: never traversed through
            }
            let (lo, hi) = (
                self.off[u.index()] as usize,
                self.off[u.index() + 1] as usize,
            );
            for k in lo..hi {
                let (v, id) = self.adj[k];
                if self.visit[v.index()] == qe {
                    continue;
                }
                self.visit[v.index()] = qe;
                self.parent_edge[v.index()] = id;
                self.parent_vertex[v.index()] = u.0;
                if is_source(v) {
                    if !self.barrier[v.index()] {
                        found = Some(v);
                        break 'bfs;
                    }
                    continue; // an in-solution barrier is not an endpoint
                }
                if self.queue.len() == self.queue.capacity() {
                    self.allocs += 1;
                }
                self.queue.push(v);
            }
        }
        // Discovered vertices (enqueued, whether or not expanded before
        // the early exit) — the query's O(affected) footprint.
        let explored = self.queue.len() as u64;
        self.explored += explored;
        self.max_explored = self.max_explored.max(explored);
        found
    }

    /// Cumulative query statistics: `(forced queries, vertices explored
    /// by them, largest single query exploration)` — the enumeration
    /// problems fold these into their run statistics.
    pub fn repair_stats(&self) -> (u64, u64, u64) {
        (self.queries, self.explored, self.max_explored)
    }

    /// Growth events recorded by the internal buffers.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.off.capacity()
            + self.visit.capacity()
            + self.parent_edge.capacity()
            + self.parent_vertex.capacity()
            + self.edge_stamp.capacity())
            * std::mem::size_of::<u32>()
            + self.adj.capacity() * std::mem::size_of::<(VertexId, u32)>()
            + self.arc_buf.capacity() * std::mem::size_of::<(VertexId, VertexId, u32)>()
            + self.barrier.capacity() * std::mem::size_of::<bool>()
            + self.queue.capacity() * std::mem::size_of::<VertexId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_spans_component_and_contains_base() {
        // Square with a pendant: 0-1-2-3-0, 3-4.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]).unwrap();
        let grown = grow_spanning_tree(&g, &[VertexId(0)], &[], None);
        assert_eq!(grown.edges.len(), 4, "spanning tree of 5 vertices");
        // Growing around base edge {1,2} keeps it.
        let grown2 = grow_spanning_tree(&g, &[VertexId(1), VertexId(2)], &[EdgeId(1)], None);
        assert!(grown2.edges.contains(&EdgeId(1)));
        assert_eq!(grown2.edges.len(), 4);
    }

    #[test]
    fn prune_removes_non_terminal_branches() {
        // Star with center 0, leaves 1..=3; keep only 1.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let keep = |v: VertexId| v == VertexId(1);
        let pruned = prune_leaves(&g, &[EdgeId(0), EdgeId(1), EdgeId(2)], keep);
        // 2 and 3 are pruned; then 0 has degree 1 but pruning it would make
        // 1 isolated... 0 is degree-1 and not kept, so edge {0,1} also goes.
        assert!(pruned.is_empty());
    }

    #[test]
    fn prune_keeps_kept_leaves() {
        // Path 0-1-2-3; keep 0 and 2: edge {2,3} goes, rest stays.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let keep = |v: VertexId| v == VertexId(0) || v == VertexId(2);
        let pruned = prune_leaves(&g, &[EdgeId(0), EdgeId(1), EdgeId(2)], keep);
        assert_eq!(pruned, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn prune_spanning_tree_to_steiner_tree() {
        // Grow a spanning tree of a path graph and prune to terminals {0, 2}.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let grown = grow_spanning_tree(&g, &[VertexId(0)], &[], None);
        let terminals = [VertexId(0), VertexId(2)];
        let pruned = prune_leaves(&g, &grown.edges, |v| terminals.contains(&v));
        assert_eq!(pruned.len(), 2);
        let verts = g.edge_set_vertices(&pruned);
        assert_eq!(verts, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn csr_pipeline_matches_allocating_pipeline() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ca);
        let mut scratch = CompletionScratch::default();
        for case in 0..40 {
            let n = 3 + case % 8;
            let g = crate::generators::random_connected_graph(n, n + case % 4, &mut rng);
            let csr = crate::csr::CsrUndirected::from_graph(&g);
            let seed = VertexId::new(rng.gen_range(0..n));
            let keep_set: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let keep = |v: VertexId| keep_set[v.index()] || v == seed;

            let grown = grow_spanning_tree(&g, &[seed], &[], None);
            let pruned = prune_leaves(&g, &grown.edges, keep);

            grow_spanning_tree_csr(&csr, &[seed], &[], None, &mut scratch);
            assert_eq!(scratch.edges, grown.edges, "grow, graph {g:?}");
            prune_leaves_csr(&csr, keep, &mut scratch);
            assert_eq!(scratch.edges, pruned, "prune, graph {g:?}");
        }
    }

    /// Skeleton from the bridges of a graph: the structure's reach state
    /// must match a fresh BFS over bridge edges from the attached set.
    fn fresh_bridge_reach(g: &UndirectedGraph, bridge: &[bool], sources: &[VertexId]) -> Vec<bool> {
        let n = g.num_vertices();
        let mut reached = vec![false; n];
        let mut stack: Vec<VertexId> = Vec::new();
        for &s in sources {
            if !reached[s.index()] {
                reached[s.index()] = true;
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            for (v, e) in g.neighbors(u) {
                if bridge[e.index()] && !reached[v.index()] {
                    reached[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        reached
    }

    #[test]
    fn dynamic_spanning_matches_fresh_flood() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xdba5e);
        for case in 0..30 {
            let n = 4 + case % 7;
            let g = crate::generators::random_connected_graph(n, n + case % 4, &mut rng);
            let bridge = crate::bridges::bridges(&g, None);
            let mut ds = DynamicSpanning::new();
            ds.begin_skeleton(n);
            for e in g.edges() {
                if bridge[e.index()] {
                    let (u, v) = g.endpoints(e);
                    ds.add_edge(u, v, e.index() as u32);
                }
            }
            ds.finish_skeleton();
            // Random growing/shrinking source sets (the trail-backed mask
            // lives with the caller), checking every vertex's forced
            // verdict against a fresh flood at every step.
            let mut in_sol = vec![false; n];
            let mut stack: Vec<VertexId> = Vec::new();
            for _ in 0..24 {
                if !stack.is_empty() && rng.gen_bool(0.4) {
                    let v = stack.pop().unwrap();
                    in_sol[v.index()] = false;
                } else {
                    let v = VertexId::new(rng.gen_range(0..n));
                    if !in_sol[v.index()] {
                        in_sol[v.index()] = true;
                        stack.push(v);
                    }
                }
                let sources: Vec<VertexId> = (0..n)
                    .map(VertexId::new)
                    .filter(|v| in_sol[v.index()])
                    .collect();
                let fresh = fresh_bridge_reach(&g, &bridge, &sources);
                for (v, &want) in fresh.iter().enumerate() {
                    assert_eq!(
                        ds.is_forced(VertexId::new(v), |x| in_sol[x.index()]),
                        want,
                        "graph {g:?} sources {sources:?} vertex {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn barriers_are_endpoints_but_not_traversed() {
        // Path 0-1-2-3, all edges in the skeleton; 1 is a barrier.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut ds = DynamicSpanning::new();
        ds.begin_skeleton(4);
        ds.set_barrier(VertexId(1));
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            ds.add_edge(u, v, e.index() as u32);
        }
        ds.finish_skeleton();
        let src0 = |v: VertexId| v == VertexId(0);
        assert!(
            ds.is_forced(VertexId(1), src0),
            "a barrier query expands its own edges"
        );
        assert!(
            !ds.is_forced(VertexId(2), src0),
            "but other paths never pass through a barrier"
        );
        // An in-solution barrier is not a valid endpoint.
        let src01 = |v: VertexId| v == VertexId(0) || v == VertexId(1);
        assert!(
            !ds.is_forced(VertexId(2), src01),
            "an in-solution barrier does not terminate a query"
        );
        let src2 = |v: VertexId| v == VertexId(2);
        assert!(ds.is_forced(VertexId(3), src2), "3 reaches the source 2");
    }

    #[test]
    fn carry_over_absorbs_foreign_region_edits_only() {
        // Named for the cross-epoch carry-over this structure once had.
        // A mutated graph now gets its skeleton rebuilt, in place: a
        // removal in a foreign region that renumbers a skeleton edge
        // shows the new id, and an in-region insert that closes a cycle
        // ends the forced path.
        use crate::epoch::{EpochGraph, GraphMutation};
        // Region {0,1,2} is a path; {3,4,5} is foreign.
        let g = UndirectedGraph::from_edges(6, &[(0, 1), (3, 4), (4, 5), (1, 2)]).unwrap();
        let mut eg = EpochGraph::new(g);
        let mut ds = DynamicSpanning::new();
        let rebuild_and_collect = |ds: &mut DynamicSpanning, g: &UndirectedGraph| {
            let bridge = crate::bridges::bridges(g, None);
            ds.begin_skeleton(g.num_vertices());
            for e in g.edges().filter(|e| bridge[e.index()]) {
                let (u, v) = g.endpoints(e);
                ds.add_edge(u, v, e.index() as u32);
            }
            ds.finish_skeleton();
            let mut ids = Vec::new();
            ds.begin_collect();
            let forced =
                ds.collect_forced_path(VertexId(2), |v| v == VertexId(0), |id| ids.push(id));
            ids.sort_unstable();
            forced.then_some(ids)
        };
        assert_eq!(rebuild_and_collect(&mut ds, eg.graph()), Some(vec![0, 3]));
        // Removing the foreign {3,4} moves {1,2} from id 3 onto id 1.
        eg.batch_apply(&[GraphMutation::RemoveEdge(EdgeId(1))])
            .unwrap();
        assert_eq!(rebuild_and_collect(&mut ds, eg.graph()), Some(vec![0, 1]));
        eg.batch_apply(&[GraphMutation::InsertEdge {
            u: VertexId(0),
            v: VertexId(2),
        }])
        .unwrap();
        assert_eq!(rebuild_and_collect(&mut ds, eg.graph()), None);
    }

    #[test]
    fn forced_path_collection_dedups_shared_trunks() {
        // A bridge trunk 4-5-6 with two leaves 0, 2 off its end: paths
        // from 0 and 2 to the source 4 share the trunk, which the union
        // must contain exactly once.
        let g = UndirectedGraph::from_edges(7, &[(4, 5), (5, 6), (6, 0), (6, 2), (4, 1), (4, 3)])
            .unwrap();
        let mut ds = DynamicSpanning::new();
        ds.begin_skeleton(7);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            ds.add_edge(u, v, e.index() as u32);
        }
        ds.finish_skeleton();
        let src = |v: VertexId| v == VertexId(4);
        ds.begin_collect();
        let mut got: Vec<u32> = Vec::new();
        assert!(ds.collect_forced_path(VertexId(0), src, |e| got.push(e)));
        assert!(ds.collect_forced_path(VertexId(2), src, |e| got.push(e)));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "shared trunk collected exactly once");
        let mut again: Vec<u32> = Vec::new();
        assert!(ds.collect_forced_path(VertexId(0), src, |e| again.push(e)));
        assert!(again.is_empty(), "same generation: already collected");
        ds.begin_collect();
        let mut fresh = Vec::new();
        assert!(ds.collect_forced_path(VertexId(0), src, |e| fresh.push(e)));
        fresh.sort_unstable();
        assert_eq!(fresh, vec![0, 1, 2], "a new generation re-emits");
    }

    #[test]
    fn directed_skeleton_walks_reversed_chains() {
        // Arcs 0→1→2 (unique in-arcs) inserted reversed, as the directed
        // enumerator does: queries from 2 walk back to the source 0.
        let mut ds = DynamicSpanning::new();
        ds.begin_skeleton(3);
        ds.add_arc(VertexId(1), VertexId(0), 0); // reverse of 0→1
        ds.add_arc(VertexId(2), VertexId(1), 1); // reverse of 1→2
        ds.finish_skeleton();
        let src = |v: VertexId| v == VertexId(0);
        let mut got = Vec::new();
        ds.begin_collect();
        assert!(ds.collect_forced_path(VertexId(2), src, |a| got.push(a)));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        assert!(
            ds.is_forced(VertexId(1), src),
            "mid-chain vertices are forced"
        );
        let (queries, explored, max_explored) = ds.repair_stats();
        assert!(queries >= 2 && explored >= 1 && max_explored >= 1);
    }
}
