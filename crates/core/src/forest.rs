//! Minimal Steiner forest enumeration (§5, Theorems 23 & 25), exposed as
//! the [`SteinerForest`] problem type for the generic
//! [`crate::solver::Enumeration`] engine.
//!
//! Terminal sets are reduced to pairs (`{w₁,…,w_k}` →
//! `{w₁,w₂}, …, {w₁,w_k}` — the observation before Lemma 21). A partial
//! solution is a forest `F` that is a union of paths for a subset of the
//! pairs; children attach one `w`-`w′` path of the contracted multigraph
//! `G/E(F)` for some still-disconnected pair (valid paths ↔ paths of
//! `G/E(F)`, Lemma 24's surrounding discussion).
//!
//! The improved node rule (Theorem 25): a pair has a *unique* valid path
//! iff its endpoints coincide after also contracting the bridges of
//! `G/E(F)` (Lemma 24). If some disconnected pair does not coincide,
//! branch on it (≥ 2 children guaranteed); otherwise `F` plus the bridges
//! contains the unique minimal completion, which is extracted with the
//! LCA-based marking procedure in linear time.
//!
//! `prepare` works on the sets' region — the union of the connected
//! components a forest can use ([`steiner_graph::region`]): one DFS gives
//! every set's connectivity verdict, the region and its bridges, and the
//! search runs in region ids, mapped back to graph ids at emission.

use crate::problem::{
    BranchRun, MinimalSteinerProblem, NodeStep, Prepared, SteinerError, SubtreeRecord,
};
use crate::stats::EnumStats;
use crate::trail::{FrameLog, ScratchUsage};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use steiner_graph::csr::{grow, IncidenceCsr};
use steiner_graph::union_find::UnionFind;
use steiner_graph::{
    CsrDigraph, CsrUndirected, EdgeId, Region, RegionIds, UndirectedGraph, VertexId,
};
use steiner_paths::enumerate::{enumerate_paths_view, PathScratch};

/// Reduces terminal sets to deduplicated unordered pairs. Singleton and
/// empty sets impose no constraint and vanish.
pub fn pairs_from_sets(sets: &[Vec<VertexId>]) -> Vec<(VertexId, VertexId)> {
    let mut pairs: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    for set in sets {
        let mut members = set.clone();
        members.sort_unstable();
        members.dedup();
        if let Some((&first, rest)) = members.split_first() {
            for &w in rest {
                pairs.insert((first.min(w), first.max(w)));
            }
        }
    }
    pairs.into_iter().collect()
}

/// The minimal Steiner forest problem (§5): find all inclusion-minimal
/// edge sets connecting every terminal set of `sets` (each set within
/// itself; different sets may or may not share trees).
///
/// ```
/// use steiner_core::{Enumeration, SteinerForest};
/// use steiner_graph::{UndirectedGraph, VertexId};
///
/// // Path 0-1-2-3 with pairs {0,1} and {2,3}: the unique minimal forest
/// // takes the two outer edges.
/// let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let sets = vec![vec![VertexId(0), VertexId(1)], vec![VertexId(2), VertexId(3)]];
/// let forests = Enumeration::new(SteinerForest::new(&g, &sets)).collect_vec().unwrap();
/// assert_eq!(forests.len(), 1);
/// assert_eq!(forests[0].len(), 2);
/// ```
pub struct SteinerForest<'g> {
    g: Cow<'g, UndirectedGraph>,
    sets: Vec<Vec<VertexId>>,
    /// `(n, m)` of the query region once `prepare` has run (of the whole
    /// graph before).
    size: (usize, usize),
    stats: EnumStats,
    search: Option<ForestSearch>,
}

/// The typed checkpoint frame of one descent: forest-edge stack length
/// and the snapshots of both union–finds.
struct ForestFrame {
    base: usize,
    uf: usize,
    g2: usize,
}

/// Mutable search state installed by `prepare`. All hot-path buffers are
/// preallocated; `classify`/`branch` never allocate.
struct ForestSearch {
    /// The terminal pairs, in region ids.
    pairs: Vec<(VertexId, VertexId)>,
    /// Region ids back to graph ids, for emission.
    ids: RegionIds,
    uf: UnionFind,
    forest_edges: Vec<EdgeId>,
    /// Pair classified for branching; the matching contraction sits in
    /// `pool[depth]` (avoids recomputing `G/E(F)`).
    pending: Option<(VertexId, VertexId)>,
    /// Flat CSR of the region of the original graph (built once).
    gcsr: CsrUndirected,
    /// Dense-id assignment per union–find representative (per branch).
    rep_id: Vec<u32>,
    /// Bridges of `G` in the region, computed once. The bridges of the
    /// contracted multigraph `G/E(F)` are **exactly these edges minus the
    /// ones `E(F)` turns into self-loops**: contraction can neither create a
    /// bridge (a cycle's image stays a closed walk through every
    /// surviving cycle edge) nor destroy one (the two sides of a bridge
    /// of `G` cannot be joined by `F`-paths, which avoid the bridge). So
    /// Lemma 24's per-node `G″ = G/E(F)/B` connectivity is maintainable
    /// incrementally from static state.
    gbridge: Vec<bool>,
    /// The ids of `gbridge`, ascending — the order the contracted graph
    /// presents its bridges in, which is the order the unique completion
    /// appends the live ones to `F + B`.
    bridge_ids: Vec<EdgeId>,
    /// Component labels of `G″`, a rollback union–find: the bridges of
    /// `G` are united once in `prepare`, forest edges are united on
    /// descent and rolled back on backtrack.
    g2: UnionFind,
    /// Typed checkpoint frames of the active descent (LIFO).
    frames: FrameLog<ForestFrame>,
    uc: UniqueCompletionScratch,
    /// Per-branch-depth contraction + path-enumeration scratch.
    pool: Vec<ForestDepthScratch>,
    depth: usize,
    extra_allocs: u64,
    baseline_allocs: u64,
}

/// Per-branch-depth reusable state: the contracted multigraph `G/E(F)` in
/// CSR form with its translation tables, its doubled digraph, and the path
/// enumerator's scratch. The contraction must survive the whole branch
/// (children recurse while it is in use), hence one per depth.
#[derive(Default)]
struct ForestDepthScratch {
    endpoints_buf: Vec<(VertexId, VertexId)>,
    orig_edge: Vec<EdgeId>,
    vertex_map: Vec<VertexId>,
    cg: CsrUndirected,
    doubled: CsrDigraph,
    path: PathScratch,
    allocs: u64,
}

impl ForestDepthScratch {
    fn preallocate(&mut self, n: usize, m: usize) {
        if self.endpoints_buf.capacity() < m {
            self.endpoints_buf
                .reserve(m - self.endpoints_buf.capacity());
        }
        if self.orig_edge.capacity() < m {
            self.orig_edge.reserve(m - self.orig_edge.capacity());
        }
        grow(&mut self.vertex_map, n, VertexId(0), &mut self.allocs);
        self.cg.preallocate(n, m);
        self.doubled.preallocate(n, 2 * m);
        self.path.preallocate(n + 2, 2 * m + 2);
        self.allocs = 0;
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs
                + self.cg.alloc_events()
                + self.doubled.alloc_events()
                + self.path.alloc_events(),
            self.cg.capacity_bytes()
                + self.doubled.capacity_bytes()
                + self.path.capacity_bytes()
                + (self.endpoints_buf.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
                    + self.orig_edge.capacity() * std::mem::size_of::<EdgeId>()
                    + self.vertex_map.capacity() * std::mem::size_of::<VertexId>())
                    as u64,
        )
    }

    /// Rebuilds `G/E(F)` in place: `classes[v]` is the contracted image of
    /// `v` (computed by the caller from the union–find; normally this
    /// scratch's own `vertex_map`, temporarily moved out). Surviving edges
    /// keep their relative order and remember their original ids.
    fn rebuild_contraction(&mut self, g: &CsrUndirected, classes: &[VertexId], cn: usize) {
        self.endpoints_buf.clear();
        self.orig_edge.clear();
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let (u, v) = g.endpoints(e);
            let (nu, nv) = (classes[u.index()], classes[v.index()]);
            if nu == nv {
                continue; // contracted or self-loop after contraction
            }
            if self.endpoints_buf.len() == self.endpoints_buf.capacity() {
                self.allocs += 1;
            }
            self.endpoints_buf.push((nu, nv));
            if self.orig_edge.len() == self.orig_edge.capacity() {
                self.allocs += 1;
            }
            self.orig_edge.push(e);
        }
        self.cg.rebuild_from_edges(cn, &self.endpoints_buf);
    }
}

/// Reusable buffers for the unique-completion marking (offline
/// Tarjan LCA over the forest `F + B`, replacing the sparse-table
/// structure that allocated per leaf).
#[derive(Default)]
struct UniqueCompletionScratch {
    /// `F + B` (original edge ids).
    fb: Vec<EdgeId>,
    inc: IncidenceCsr,
    parent: Vec<u32>,
    parent_edge: Vec<u32>,
    depthv: Vec<u32>,
    visited: Vec<bool>,
    present: Vec<bool>,
    dfs_stack: Vec<(VertexId, u32)>,
    // Offline-LCA state.
    ufp: Vec<u32>,
    ufsz: Vec<u32>,
    ancestor: Vec<u32>,
    black: Vec<bool>,
    lca: Vec<u32>,
    entries: Vec<(u32, VertexId, VertexId)>,
    marked: Vec<bool>,
    // Pair queries by endpoint (CSR, built once in `prepare`).
    q_off: Vec<u32>,
    q_items: Vec<u32>,
    allocs: u64,
}

impl UniqueCompletionScratch {
    fn preallocate(&mut self, n: usize, m: usize, pairs: &[(VertexId, VertexId)]) {
        grow(
            &mut self.fb,
            n + m.min(n * 2) + 4,
            EdgeId(0),
            &mut self.allocs,
        );
        self.fb.clear();
        self.inc.preallocate(n, n + m.min(2 * n) + 4);
        grow(&mut self.parent, n, 0u32, &mut self.allocs);
        grow(&mut self.parent_edge, n, 0u32, &mut self.allocs);
        grow(&mut self.depthv, n, 0u32, &mut self.allocs);
        grow(&mut self.visited, n, false, &mut self.allocs);
        grow(&mut self.present, n, false, &mut self.allocs);
        grow(
            &mut self.dfs_stack,
            n + 1,
            (VertexId(0), 0u32),
            &mut self.allocs,
        );
        self.dfs_stack.clear();
        grow(&mut self.ufp, n, 0u32, &mut self.allocs);
        grow(&mut self.ufsz, n, 0u32, &mut self.allocs);
        grow(&mut self.ancestor, n, 0u32, &mut self.allocs);
        grow(&mut self.black, n, false, &mut self.allocs);
        grow(&mut self.lca, pairs.len(), 0u32, &mut self.allocs);
        grow(
            &mut self.entries,
            2 * pairs.len(),
            (0u32, VertexId(0), VertexId(0)),
            &mut self.allocs,
        );
        self.entries.clear();
        grow(&mut self.marked, m, false, &mut self.allocs);
        // Pair-query CSR by endpoint: static for the whole enumeration.
        grow(&mut self.q_off, n + 1, 0u32, &mut self.allocs);
        for &(w, w2) in pairs {
            self.q_off[w.index() + 1] += 1;
            self.q_off[w2.index() + 1] += 1;
        }
        for i in 0..n {
            self.q_off[i + 1] += self.q_off[i];
        }
        grow(&mut self.q_items, 2 * pairs.len(), 0u32, &mut self.allocs);
        for (k, &(w, w2)) in pairs.iter().enumerate() {
            for v in [w, w2] {
                self.q_items[self.q_off[v.index()] as usize] = k as u32;
                self.q_off[v.index()] += 1;
            }
        }
        for v in (1..=n).rev() {
            self.q_off[v] = self.q_off[v - 1];
        }
        self.q_off[0] = 0;
        self.allocs = 0;
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs + self.inc.alloc_events(),
            self.inc.capacity_bytes()
                + (self.fb.capacity() * std::mem::size_of::<EdgeId>()
                    + (self.parent.capacity()
                        + self.parent_edge.capacity()
                        + self.depthv.capacity()
                        + self.ufp.capacity()
                        + self.ufsz.capacity()
                        + self.ancestor.capacity()
                        + self.lca.capacity()
                        + self.q_off.capacity()
                        + self.q_items.capacity())
                        * std::mem::size_of::<u32>()
                    + (self.visited.capacity()
                        + self.present.capacity()
                        + self.black.capacity()
                        + self.marked.capacity())
                        * std::mem::size_of::<bool>()
                    + self.dfs_stack.capacity() * std::mem::size_of::<(VertexId, u32)>()
                    + self.entries.capacity() * std::mem::size_of::<(u32, VertexId, VertexId)>())
                    as u64,
        )
    }
}

impl ForestSearch {
    fn usage(&self) -> ScratchUsage {
        let pool: ScratchUsage = self.pool.iter().map(|b| b.usage()).sum();
        ScratchUsage::new(
            self.gcsr.alloc_events(),
            self.gcsr.capacity_bytes()
                + self.g2.capacity_bytes()
                + (self.rep_id.capacity() * std::mem::size_of::<u32>()
                    + self.gbridge.capacity() * std::mem::size_of::<bool>()
                    + self.bridge_ids.capacity() * std::mem::size_of::<EdgeId>())
                    as u64,
        ) + self.uc.usage()
            + self.frames.usage()
            + pool
            + ScratchUsage::new(self.extra_allocs, 0)
    }

    /// Builds `G′ = G/E(F)` into `pool[depth]` from the union–find
    /// partition (dense ids in first-member order), returning the
    /// contracted vertex count. Only `branch` needs it, so internal
    /// nodes pay for it and leaves do not.
    fn build_contraction(&mut self, depth: usize) -> usize {
        let n = self.gcsr.num_vertices();
        self.rep_id.clear();
        self.rep_id.resize(n, u32::MAX);
        let ds = &mut self.pool[depth];
        ds.vertex_map.clear();
        let mut count = 0u32;
        for v in 0..n {
            let rep = self.uf.find(VertexId::new(v));
            if self.rep_id[rep.index()] == u32::MAX {
                self.rep_id[rep.index()] = count;
                count += 1;
            }
            ds.vertex_map.push(VertexId(self.rep_id[rep.index()]));
        }
        let cn = count as usize;
        // Rebuild the contraction in place (classes are in vertex_map
        // already, so rebuild_contraction reuses it verbatim).
        let classes = std::mem::take(&mut ds.vertex_map);
        ds.rebuild_contraction(&self.gcsr, &classes, cn);
        ds.vertex_map = classes;
        cn
    }

    /// Grows the per-depth pool on demand (the recursion outran the
    /// preallocation).
    fn ensure_depth(&mut self, depth: usize) {
        if self.pool.len() <= depth {
            self.extra_allocs += 1;
            let mut fresh = ForestDepthScratch::default();
            fresh.preallocate(self.gcsr.num_vertices(), self.gcsr.num_edges());
            self.pool.push(fresh);
        }
    }

    /// Debug cross-check of the static-bridge theorem: the bridges of the
    /// contracted multigraph `G/E(F)` (computed fresh) must be exactly
    /// the static bridges of `G` minus self-loops, and the incremental
    /// `G″` labels must agree with a fresh `G′/B` on every pair.
    #[cfg(debug_assertions)]
    fn debug_check_bridge_contraction(&mut self, depth: usize) {
        let cn = self.build_contraction(depth);
        let ds = &self.pool[depth];
        let mut bridge = steiner_graph::bridges::BridgeScratch::default();
        steiner_graph::bridges::bridges_csr_into(&ds.cg, None, &mut bridge);
        for i in 0..ds.cg.num_edges() {
            debug_assert_eq!(
                bridge.is_bridge[i],
                self.gbridge[ds.orig_edge[i].index()],
                "bridge of G/E(F) disagrees with the static bridge of G (edge {:?})",
                ds.orig_edge[i]
            );
        }
        let mut uf2 = UnionFind::new(cn);
        for i in 0..ds.cg.num_edges() {
            if bridge.is_bridge[i] {
                let (u, v) = ds.cg.endpoints(EdgeId::new(i));
                uf2.union(u, v);
            }
        }
        for &(w, w2) in &self.pairs {
            debug_assert_eq!(
                uf2.same(ds.vertex_map[w.index()], ds.vertex_map[w2.index()]),
                self.g2.same(w, w2),
                "incremental G″ labels disagree with the fresh pass for {w:?},{w2:?}"
            );
        }
    }
}

impl<'g> SteinerForest<'g> {
    /// A problem instance borrowing the graph.
    pub fn new(g: &'g UndirectedGraph, sets: &[Vec<VertexId>]) -> Self {
        SteinerForest {
            g: Cow::Borrowed(g),
            sets: sets.to_vec(),
            size: (g.num_vertices(), g.num_edges()),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// A problem instance owning the graph.
    pub fn from_graph(g: UndirectedGraph, sets: &[Vec<VertexId>]) -> SteinerForest<'static> {
        SteinerForest {
            size: (g.num_vertices(), g.num_edges()),
            g: Cow::Owned(g),
            sets: sets.to_vec(),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// Clones the borrowed graph (if any) so the instance becomes
    /// `'static` for the iterator front-end.
    pub fn into_owned(self) -> SteinerForest<'static> {
        SteinerForest {
            g: Cow::Owned(self.g.into_owned()),
            sets: self.sets,
            size: self.size,
            stats: self.stats,
            search: self.search,
        }
    }
}

impl SteinerForest<'_> {
    /// The descend half of the branch protocol: appends original edges of
    /// a valid path (one path delta's worth) to `F`, joins them in both
    /// rollback union–finds (`F` and `G″`), and pushes the combined typed
    /// frame. Shared by the path deltas of `branch` and by replayed
    /// subtrees.
    fn descend_edges(&mut self, edges: impl IntoIterator<Item = EdgeId>) {
        let search = self.search.as_mut().expect("search state");
        let frame = ForestFrame {
            base: search.forest_edges.len(),
            uf: search.uf.snapshot(),
            g2: search.g2.snapshot(),
        };
        for e in edges {
            let (u, v) = search.gcsr.endpoints(e);
            let joined = search.uf.union(u, v);
            debug_assert!(joined, "a valid path never closes a cycle in F");
            search.g2.union(u, v);
            search.forest_edges.push(e);
        }
        search.frames.push(frame);
    }

    /// The undo half: pops the innermost frame and restores every layer.
    fn retract_frame(&mut self) {
        let search = self.search.as_mut().expect("search state");
        let frame = search.frames.pop();
        search.forest_edges.truncate(frame.base);
        search.uf.rollback(frame.uf);
        search.g2.rollback(frame.g2);
    }
}

/// The unique minimal Steiner forest containing `F`, given that every
/// disconnected pair has a unique valid path: mark, over the forest
/// `F + B` (in `s.fb`), the edges lying on some pair's tree path and
/// append exactly those to `out`.
///
/// LCAs come from one offline Tarjan sweep over the forest (union–find
/// with path halving), replacing the per-leaf Euler-tour/sparse-table
/// build; entries are then processed shallowest-LCA-first so the
/// marked-edge early stop stays sound. Allocation-free over `s`.
fn unique_completion_csr(
    g: &CsrUndirected,
    pairs: &[(VertexId, VertexId)],
    s: &mut UniqueCompletionScratch,
    out: &mut Vec<EdgeId>,
    work: &mut u64,
) {
    let n = g.num_vertices();
    const NONE: u32 = u32::MAX;
    *work += (n + s.fb.len()) as u64;
    s.inc.rebuild(n, &s.fb, |e| g.endpoints(e));
    grow(&mut s.present, n, false, &mut s.allocs);
    for &e in &s.fb {
        let (u, v) = g.endpoints(e);
        s.present[u.index()] = true;
        s.present[v.index()] = true;
    }
    grow(&mut s.parent, n, NONE, &mut s.allocs);
    grow(&mut s.parent_edge, n, NONE, &mut s.allocs);
    grow(&mut s.depthv, n, 0u32, &mut s.allocs);
    grow(&mut s.visited, n, false, &mut s.allocs);
    grow(&mut s.black, n, false, &mut s.allocs);
    grow(&mut s.ufsz, n, 1u32, &mut s.allocs);
    grow(&mut s.ancestor, n, NONE, &mut s.allocs);
    grow(&mut s.lca, pairs.len(), NONE, &mut s.allocs);
    s.ufp.clear();
    s.ufp.extend(0..n as u32);
    // Union–find with path halving (no rollback needed here).
    fn find(ufp: &mut [u32], mut x: u32) -> u32 {
        while ufp[x as usize] != x {
            ufp[x as usize] = ufp[ufp[x as usize] as usize];
            x = ufp[x as usize];
        }
        x
    }
    // One DFS per tree of F + B; Tarjan's offline LCA answers each pair
    // at its second-finished endpoint.
    for root in 0..n {
        if !s.present[root] || s.visited[root] {
            continue;
        }
        s.visited[root] = true;
        s.depthv[root] = 0;
        s.ancestor[root] = root as u32;
        s.dfs_stack.clear();
        s.dfs_stack.push((VertexId::new(root), 0));
        while let Some(&mut (u, ref mut next)) = s.dfs_stack.last_mut() {
            let slot = s.inc.incident(u).get(*next as usize).copied();
            match slot {
                Some(e) => {
                    *next += 1;
                    *work += 1;
                    let v = g.other_endpoint(e, u);
                    if !s.visited[v.index()] {
                        s.visited[v.index()] = true;
                        s.parent[v.index()] = u.0;
                        s.parent_edge[v.index()] = e.0;
                        s.depthv[v.index()] = s.depthv[u.index()] + 1;
                        s.ancestor[v.index()] = v.0;
                        s.dfs_stack.push((v, 0));
                    }
                }
                None => {
                    s.dfs_stack.pop();
                    s.black[u.index()] = true;
                    let (q_lo, q_hi) = (s.q_off[u.index()], s.q_off[u.index() + 1]);
                    for qi in q_lo..q_hi {
                        let k = s.q_items[qi as usize] as usize;
                        let (a, b) = pairs[k];
                        let other = if a == u { b } else { a };
                        if s.black[other.index()] {
                            s.lca[k] = s.ancestor[find(&mut s.ufp, other.0) as usize];
                        }
                    }
                    if let Some(&(p, _)) = s.dfs_stack.last() {
                        // Union by size, then re-anchor the class ancestor.
                        let (ru, rp) = (find(&mut s.ufp, u.0), find(&mut s.ufp, p.0));
                        if ru != rp {
                            let (big, small) = if s.ufsz[rp as usize] >= s.ufsz[ru as usize] {
                                (rp, ru)
                            } else {
                                (ru, rp)
                            };
                            s.ufp[small as usize] = big;
                            s.ufsz[big as usize] += s.ufsz[small as usize];
                        }
                        s.ancestor[find(&mut s.ufp, p.0) as usize] = p.0;
                    }
                }
            }
        }
    }
    // Marking entries (depth of LCA, endpoint, LCA), processed with the
    // shallowest LCAs first so early stopping is sound.
    s.entries.clear();
    for (k, &(w, w2)) in pairs.iter().enumerate() {
        let a = s.lca[k];
        debug_assert_ne!(
            a, NONE,
            "every pair is connected in F + B at a unique-completion node"
        );
        let a = VertexId(a);
        let d = s.depthv[a.index()];
        s.entries.push((d, w, a));
        s.entries.push((d, w2, a));
    }
    s.entries.sort_unstable();
    grow(&mut s.marked, g.num_edges(), false, &mut s.allocs);
    for i in 0..s.entries.len() {
        let (_, start, stop) = s.entries[i];
        let mut cur = start;
        while cur != stop {
            *work += 1;
            let e = s.parent_edge[cur.index()];
            debug_assert_ne!(e, NONE, "stop is an ancestor of start");
            if s.marked[e as usize] {
                break; // the rest of the walk is already marked
            }
            s.marked[e as usize] = true;
            cur = VertexId(s.parent[cur.index()]);
        }
    }
    out.extend(s.fb.iter().copied().filter(|e| s.marked[e.index()]));
}

impl MinimalSteinerProblem for SteinerForest<'_> {
    type Item = EdgeId;
    type Branch = (VertexId, VertexId);

    const NAME: &'static str = "minimal Steiner forest";

    fn split_root(&self) -> Option<Self> {
        Some(SteinerForest {
            g: self.g.clone(),
            sets: self.sets.clone(),
            size: self.size,
            stats: EnumStats::default(),
            search: None,
        })
    }

    fn cache_key(&self) -> Option<crate::cache::CacheKey> {
        // The search depends on the set family only through its reduced
        // pair list (sorted, deduplicated — see `pairs_from_sets`), and
        // set-level validity is equivalent to pair-level validity (a set
        // lies in one component iff every `(first, w)` pair does), so
        // the canonical pairs are a sound and maximally-sharing key.
        let pairs = pairs_from_sets(&self.sets);
        // A forest solution lives in the components of its demand
        // vertices, so the key pins exactly those regions.
        let regions = steiner_graph::RegionSignature::of_undirected(
            &self.g,
            pairs.iter().flat_map(|&(a, b)| [a, b]),
        );
        Some(crate::cache::CacheKey {
            kind: Self::NAME,
            regions,
            query_fingerprint: crate::cache::fingerprint_vertex_pairs(&pairs),
        })
    }

    fn validate(&self) -> Result<(), SteinerError> {
        if self.sets.is_empty() {
            return Err(SteinerError::EmptyInstance);
        }
        let n = self.g.num_vertices();
        for set in &self.sets {
            // Empty sets are valid (they impose no constraint), so only
            // the member checks apply.
            crate::problem::validate_terminal_members(set, n)?;
        }
        Ok(())
    }

    fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
        self.validate()?;
        // A forest lies in the components of its sets' members. Sets of
        // fewer than two members constrain nothing and seed nothing; one
        // DFS from the rest labels their components, builds the region
        // the search runs on, and flags its bridges.
        let constrained = || {
            self.sets
                .iter()
                .enumerate()
                .filter(|(_, set)| set.len() >= 2)
        };
        let seeds: Vec<VertexId> = constrained().flat_map(|(_, set)| set).copied().collect();
        let region = Region::around(&self.g, &seeds);
        self.size = region.size();
        let (n, m) = self.size;
        self.stats.preprocessing_work = (n + m) as u64;
        // Precondition: each terminal set inside one component.
        let mut at = 0;
        for (i, set) in constrained() {
            if !region.connects(at..at + set.len()) {
                return Err(SteinerError::DisconnectedTerminals { set: i });
            }
            at += set.len();
        }
        let pairs = pairs_from_sets(&self.sets);
        if pairs.is_empty() {
            // The empty forest is the unique minimal Steiner forest.
            return Ok(Prepared::Single(Vec::new()));
        }
        // Region ids are monotone, so the pairs stay sorted.
        let pairs: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .map(|&(w, w2)| (region.local(w), region.local(w2)))
            .collect();
        let Region {
            csr: gcsr,
            bridge: gbridge,
            ids,
            ..
        } = region;
        // The flat CSR is built; size every scratch buffer now, so the
        // search never allocates (asserted via `scratch_allocs`).
        let mut uf = UnionFind::new(n);
        uf.reserve_history(n + 1);
        // The static bridges of G and the incremental G″ labels: the
        // bridges are contracted once here, forest-edge deltas join in on
        // descent (see the `gbridge` field docs for why this is exact).
        // The region DFS flagged them, charged as the bridge pass it
        // stands in for.
        self.stats.preprocessing_work += (n + m) as u64;
        let bridge_ids: Vec<EdgeId> = (0..m)
            .map(EdgeId::new)
            .filter(|e| gbridge[e.index()])
            .collect();
        let mut g2 = UnionFind::new(n);
        g2.reserve_history(n + 1);
        for &e in &bridge_ids {
            let (u, v) = gcsr.endpoints(e);
            g2.union(u, v);
        }
        // One frame per live path delta, each owning at least one edge of
        // the forest: never more than n − 1 at once.
        let mut frames = FrameLog::new();
        frames.preallocate(n + pairs.len() + 2);
        let mut uc = UniqueCompletionScratch::default();
        uc.preallocate(n, m, &pairs);
        let mut pool = Vec::with_capacity(pairs.len() + 1);
        for _ in 0..pairs.len() + 1 {
            let mut ds = ForestDepthScratch::default();
            ds.preallocate(n, m);
            pool.push(ds);
        }
        let mut search = ForestSearch {
            pairs,
            ids,
            uf,
            forest_edges: Vec::with_capacity(n + 1),
            pending: None,
            gcsr,
            rep_id: Vec::with_capacity(n),
            gbridge,
            bridge_ids,
            g2,
            frames,
            uc,
            pool,
            depth: 0,
            extra_allocs: 0,
            baseline_allocs: 0,
        };
        search.baseline_allocs = search.usage().allocs;
        self.search = Some(search);
        Ok(Prepared::Search)
    }

    fn instance_size(&self) -> (usize, usize) {
        self.size
    }

    fn stats(&self) -> &EnumStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    fn classify(&mut self, out: &mut Vec<EdgeId>) -> NodeStep<(VertexId, VertexId)> {
        let stats = &mut self.stats;
        let search = self
            .search
            .as_mut()
            .expect("prepare() runs before the search");
        stats.work += search.pairs.len() as u64;
        if search.pairs.iter().all(|&(w, w2)| search.uf.same(w, w2)) {
            // F is a minimal Steiner forest (Lemma 21).
            return NodeStep::Complete;
        }
        let depth = search.depth;
        search.ensure_depth(depth);
        // Fully incremental classification: F-connectivity and Lemma 24's
        // G″ = G/E(F)/B labels both come from rollback union–finds
        // (bridges of G/E(F) ≡ static bridges of G minus self-loops — see
        // the `gbridge` docs), so no contraction or bridge pass runs here
        // at all. O(#pairs).
        stats.classify_incremental += 1;
        #[cfg(debug_assertions)]
        search.debug_check_bridge_contraction(depth);
        let uf = &search.uf;
        let g2 = &search.g2;
        // A disconnected pair whose images differ in G″ has ≥ 2 valid
        // paths (Lemma 24): branch on the first such pair.
        let branch = search
            .pairs
            .iter()
            .copied()
            .find(|&(w, w2)| !uf.same(w, w2) && !g2.same(w, w2));
        match branch {
            Some(pair) => {
                // `branch` builds G/E(F) itself — only internal nodes pay
                // for the contraction.
                search.pending = Some(pair);
                NodeStep::Branch(pair)
            }
            None => {
                // Every remaining pair goes through bridges only: unique
                // completion inside F + B, with the live bridges read off
                // the static list (an edge of B is a self-loop of G/E(F)
                // iff F already connects its endpoints).
                search.uc.fb.clear();
                search.uc.fb.extend_from_slice(&search.forest_edges);
                for &e in &search.bridge_ids {
                    let (u, v) = search.gcsr.endpoints(e);
                    if !search.uf.same(u, v) {
                        search.uc.fb.push(e);
                    }
                }
                stats.work += search.bridge_ids.len() as u64;
                unique_completion_csr(
                    &search.gcsr,
                    &search.pairs,
                    &mut search.uc,
                    out,
                    &mut stats.work,
                );
                search.ids.globalize(out);
                NodeStep::Unique
            }
        }
    }

    fn solution(&self, out: &mut Vec<EdgeId>) {
        let search = self
            .search
            .as_ref()
            .expect("prepare() runs before the search");
        out.extend_from_slice(&search.forest_edges);
        search.ids.globalize(out);
    }

    fn seal_stats(&mut self) {
        if let Some(search) = &self.search {
            let usage = search.usage();
            self.stats.note_scratch(ScratchUsage::new(
                usage.allocs - search.baseline_allocs,
                usage.bytes,
            ));
        }
    }

    fn record_subtree(&self) -> Option<SubtreeRecord<EdgeId>> {
        let search = self.search.as_ref()?;
        Some(SubtreeRecord {
            vertices: Vec::new(),
            items: search.forest_edges.clone(),
            meta: 0,
        })
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<EdgeId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.work += (self.size.0 + self.size.1) as u64;
        self.descend_edges(record.items.iter().copied());
        let flow = child(self);
        self.retract_frame();
        flow
    }

    fn branch(
        &mut self,
        pair: (VertexId, VertexId),
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        let per_child = (self.size.0 + self.size.1) as u64;
        // Build G/E(F) into this depth's scratch and take it, so the
        // enumeration can borrow it while the sink mutates `self`.
        let (mut ds, depth) = {
            let search = self
                .search
                .as_mut()
                .expect("prepare() runs before the search");
            let pending = search
                .pending
                .take()
                .expect("classify() stashes the branch pair");
            debug_assert_eq!(pending, pair, "branch target matches the classified pair");
            let depth = search.depth;
            search.build_contraction(depth);
            self.stats.work += (search.gcsr.num_vertices() + search.gcsr.num_edges()) as u64;
            search.depth = depth + 1;
            (std::mem::take(&mut search.pool[depth]), depth)
        };
        let (w, w2) = pair;
        let (cw, cw2) = (ds.vertex_map[w.index()], ds.vertex_map[w2.index()]);
        ds.doubled.rebuild_doubled_from_csr(&ds.cg);
        ds.path.begin(ds.doubled.num_vertices());
        let mut run = BranchRun::new();
        let ForestDepthScratch {
            doubled,
            path,
            orig_edge,
            ..
        } = &mut ds;
        // Doubled arc → contracted edge → original edge.
        let orig_edge = &*orig_edge;
        let pstats = enumerate_paths_view(doubled, cw, cw2, path, &mut |delta| {
            run.follow(
                self,
                delta,
                per_child,
                |p, _, arcs| p.descend_edges(arcs.iter().map(|a| orig_edge[a.index() / 2])),
                Self::retract_frame,
                child,
            )
        });
        self.stats.path_gen_work += pstats.work;
        self.stats.fstp_cache_misses += pstats.activations;
        let search = self.search.as_mut().expect("search state");
        search.pool[depth] = ds;
        search.depth = depth;
        debug_assert!(
            run.children >= 2 || run.flow.is_break(),
            "Lemma 24 guarantees at least two valid paths on a branch pair"
        );
        (run.children, run.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::solver::Enumeration;

    fn collect(g: &UndirectedGraph, sets: &[Vec<VertexId>]) -> BTreeSet<Vec<EdgeId>> {
        let mut out = BTreeSet::new();
        Enumeration::new(SteinerForest::new(g, sets))
            .for_each(|edges| {
                assert!(out.insert(edges.to_vec()), "duplicate solution {edges:?}");
                ControlFlow::Continue(())
            })
            .expect("valid instance");
        out
    }

    #[test]
    fn pairs_conversion() {
        let sets = vec![
            vec![VertexId(3), VertexId(1), VertexId(2)],
            vec![VertexId(1), VertexId(3)],
            vec![VertexId(5)],
            vec![],
        ];
        let pairs = pairs_from_sets(&sets);
        assert_eq!(
            pairs,
            vec![(VertexId(1), VertexId(2)), (VertexId(1), VertexId(3)),]
        );
    }

    #[test]
    fn single_set_equals_steiner_tree_enumeration() {
        use crate::improved::SteinerTree;
        let g = steiner_graph::generators::grid(2, 4);
        let w = vec![VertexId(0), VertexId(7)];
        let forests = collect(&g, std::slice::from_ref(&w));
        let trees: BTreeSet<Vec<EdgeId>> = Enumeration::new(SteinerTree::new(&g, &w))
            .collect_vec()
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(forests, trees, "|W| = 1 set: forest == tree enumeration");
    }

    #[test]
    fn empty_pairs_give_empty_forest() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let got = collect(&g, &[vec![VertexId(1)]]);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&Vec::new()));
    }

    #[test]
    fn two_disjoint_pairs_on_a_path() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sets = vec![
            vec![VertexId(0), VertexId(1)],
            vec![VertexId(2), VertexId(3)],
        ];
        let got = collect(&g, &sets);
        assert_eq!(got, brute::minimal_steiner_forests(&g, &sets));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn overlapping_pairs_share_structure() {
        // Square: pairs {0,2} and {1,3} interact heavily.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let sets = vec![
            vec![VertexId(0), VertexId(2)],
            vec![VertexId(1), VertexId(3)],
        ];
        let got = collect(&g, &sets);
        assert_eq!(got, brute::minimal_steiner_forests(&g, &sets));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf0123);
        for case in 0..50 {
            let n = 3 + case % 5;
            let m = (n - 1 + rng.gen_range(0..4)).min(n * (n - 1) / 2);
            let g = steiner_graph::generators::random_connected_graph(n, m, &mut rng);
            let num_sets = 1 + rng.gen_range(0..3usize);
            let sets: Vec<Vec<VertexId>> = (0..num_sets)
                .map(|_| {
                    let k = 2 + rng.gen_range(0..2usize).min(n - 2);
                    steiner_graph::generators::random_terminals(n, k, &mut rng)
                })
                .collect();
            assert_eq!(
                collect(&g, &sets),
                brute::minimal_steiner_forests(&g, &sets),
                "graph {g:?} sets {sets:?}"
            );
        }
    }

    #[test]
    fn all_outputs_verify_minimal() {
        let g = steiner_graph::generators::grid(3, 3);
        let sets = vec![
            vec![VertexId(0), VertexId(8)],
            vec![VertexId(2), VertexId(6)],
        ];
        let mut count = 0;
        Enumeration::new(SteinerForest::new(&g, &sets))
            .for_each(|edges| {
                count += 1;
                assert!(crate::verify::is_minimal_steiner_forest(&g, &sets, edges));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert!(count > 1);
    }

    #[test]
    fn queued_matches_direct() {
        let g = steiner_graph::generators::grid(3, 3);
        let sets = vec![
            vec![VertexId(0), VertexId(8)],
            vec![VertexId(2), VertexId(6)],
        ];
        let direct = collect(&g, &sets);
        let mut queued = BTreeSet::new();
        Enumeration::new(SteinerForest::new(&g, &sets))
            .with_default_queue()
            .for_each(|edges| {
                assert!(queued.insert(edges.to_vec()));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(direct, queued);
    }

    #[test]
    fn iterator_front_end_matches_direct() {
        let g = steiner_graph::generators::grid(3, 3);
        let sets = vec![
            vec![VertexId(0), VertexId(8)],
            vec![VertexId(2), VertexId(6)],
        ];
        let direct = collect(&g, &sets);
        let iterated: BTreeSet<Vec<EdgeId>> = Enumeration::new(SteinerForest::from_graph(g, &sets))
            .into_iter()
            .unwrap()
            .collect();
        assert_eq!(direct, iterated);
    }

    #[test]
    fn search_does_not_allocate_after_prepare() {
        let g = steiner_graph::generators::grid(3, 4);
        let sets = vec![
            vec![VertexId(0), VertexId(11)],
            vec![VertexId(3), VertexId(8)],
        ];
        let (run, stats) = Enumeration::new(SteinerForest::new(&g, &sets)).with_stats();
        run.run().unwrap();
        let stats = stats.get();
        assert!(stats.solutions > 0);
        assert_eq!(
            stats.scratch_allocs, 0,
            "the search must not allocate after prepare()"
        );
        assert!(stats.peak_scratch_bytes > 0, "scratch accounting is live");
    }

    #[test]
    fn disconnected_set_is_an_error() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let err = Enumeration::new(SteinerForest::new(&g, &[vec![VertexId(0), VertexId(2)]]))
            .run()
            .unwrap_err();
        assert_eq!(err, SteinerError::DisconnectedTerminals { set: 0 });
    }

    #[test]
    fn deprecated_shim_treats_disconnected_as_empty() {
        // The shim's lenient "no solutions" is the builder's typed error
        // that `means_no_solutions`.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let err = Enumeration::new(SteinerForest::new(&g, &[vec![VertexId(0), VertexId(2)]]))
            .for_each(|_| panic!("a disconnected set has no forest"))
            .unwrap_err();
        assert_eq!(err, SteinerError::DisconnectedTerminals { set: 0 });
        assert!(err.means_no_solutions());
    }
}
