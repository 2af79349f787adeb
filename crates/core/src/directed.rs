//! Minimal directed Steiner tree enumeration (§5.2, Theorems 34 & 36),
//! exposed as the [`DirectedSteinerTree`] problem type for the generic
//! [`crate::solver::Enumeration`] engine.
//!
//! A partial solution is a directed tree `T` rooted at `r` whose leaves are
//! all terminals; children attach one directed `V(T)`-`w` path (Lemma 33
//! guarantees extendibility). The improved node rule works in the
//! contracted multigraph `D′ = D/E(T)` with super-vertex `r_T`:
//!
//! 1. build a DFS tree `T′` of `D′` from `r_T` and its postorder `≺`;
//! 2. prune `T′` to the minimal directed Steiner tree `T*` spanning the
//!    missing terminals;
//! 3. **Lemma 35**: another minimal directed Steiner tree exists iff some
//!    `v, u ∈ V(T*)` with `u ≺ v` admit a directed `v`-`u` path in
//!    `D′ − E(T*)`. The paper's descending-postorder sweep finds such a
//!    pair (or rules it out) in O(n + m): BFS from the largest remaining
//!    vertex, stop on hitting an undeleted `T*` vertex, otherwise delete
//!    everything reached and continue.
//! 4. On a witness `(v, u)`: any terminal below `u` in `T*` has ≥ 2 valid
//!    paths — branch on it. Otherwise `T + T*` is the unique completion:
//!    emit it as a leaf.

use crate::problem::{
    BranchRun, MinimalSteinerProblem, NodeStep, Prepared, SteinerError, SubtreeRecord,
};
use crate::stats::EnumStats;
use crate::trail::{FrameLog, ScratchUsage};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::Arc;
use steiner_graph::connectivity::reachable_from;
use steiner_graph::csr::grow;
use steiner_graph::spanning::DynamicSpanning;
use steiner_graph::{ArcId, CsrDigraph, DiGraph, VertexId};
use steiner_paths::enumerate::PathScratch;
use steiner_paths::stsets::enumerate_source_set_paths_csr;

/// The minimal directed Steiner tree problem (§5.2): find all
/// inclusion-minimal out-trees of `d` rooted at `root` spanning
/// `terminals`.
///
/// The root is dropped from `terminals` if present (it is trivially
/// reached), so `terminals == [root]` yields the single empty tree as the
/// unique solution. A literally empty terminal list is reported as
/// [`SteinerError::EmptyInstance`].
///
/// ```
/// use steiner_core::{DirectedSteinerTree, Enumeration};
/// use steiner_graph::{DiGraph, VertexId};
///
/// // Diamond: two arc-disjoint ways from the root 0 to terminal 3.
/// let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let trees = Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[VertexId(3)]))
///     .collect_vec()
///     .unwrap();
/// assert_eq!(trees.len(), 2);
/// assert!(trees.iter().all(|t| t.len() == 2));
/// ```
pub struct DirectedSteinerTree<'g> {
    d: Cow<'g, DiGraph>,
    root: VertexId,
    terminals: Vec<VertexId>,
    stats: EnumStats,
    search: Option<DirectedSearch>,
}

/// The typed checkpoint frame of one descent: tree-vertex and tree-arc
/// stack lengths.
struct DirFrame {
    added: usize,
    arc_base: usize,
}

/// Mutable search state installed by `prepare`. All hot-path buffers are
/// preallocated; `classify`/`branch` never allocate.
struct DirectedSearch {
    terminals: Vec<VertexId>,
    is_terminal: Vec<bool>,
    in_tree: Vec<bool>,
    tree_vertices: Vec<VertexId>,
    tree_arcs: Vec<ArcId>,
    missing: usize,
    /// Flat CSR of `D` (arc ids preserved; built once, shared with the
    /// nested branch levels).
    csr: Arc<CsrDigraph>,
    /// Reusable `D/E(T)` contraction (rebuilt in place per node).
    con: ContractionScratch,
    /// Reusable Lemma-35 analysis buffers.
    ana: AnalyzeScratch,
    /// The forced-path skeleton of unique in-arcs: arcs whose head has
    /// in-degree 1 in `D` are on **every** path to that head, so a
    /// missing terminal reached from `V(T)` along them has a unique valid
    /// path (the forced chain); a node whose missing terminals are all
    /// reached is a Unique leaf without the per-node contraction +
    /// Lemma-35 sweep.
    span: DynamicSpanning,
    /// Typed checkpoint frames of the active descent (LIFO).
    frames: FrameLog<DirFrame>,
    /// One path-enumeration scratch per branch depth.
    pool: Vec<DirBranchScratch>,
    depth: usize,
    extra_allocs: u64,
    baseline_allocs: u64,
}

/// Per-branch-depth reusable path-enumeration state.
#[derive(Default)]
struct DirBranchScratch {
    path: PathScratch,
    boundary: Vec<(VertexId, ArcId)>,
    sources: Vec<VertexId>,
}

impl DirBranchScratch {
    fn preallocate(&mut self, n: usize, m: usize) {
        self.path.preallocate(n + 2, m + 2);
        if self.boundary.capacity() < m + 2 {
            self.boundary.reserve(m + 2 - self.boundary.capacity());
        }
        if self.sources.capacity() < n + 1 {
            self.sources.reserve(n + 1 - self.sources.capacity());
        }
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.path.alloc_events(),
            self.path.capacity_bytes()
                + (self.boundary.capacity() * std::mem::size_of::<(VertexId, ArcId)>()
                    + self.sources.capacity() * std::mem::size_of::<VertexId>())
                    as u64,
        )
    }
}

/// The contracted digraph `D′ = D/E(T)` in reusable out-CSR form: outside
/// vertices keep their relative order, the super-vertex `r_T` is appended
/// last, arcs inside `V(T)` are dropped, and every surviving arc remembers
/// its original id. Rebuilt in place per node, without allocating.
#[derive(Default)]
struct ContractionScratch {
    vertex_map: Vec<VertexId>,
    /// `(tail, head)` per contracted arc (dense contracted ids).
    arcs: Vec<(VertexId, VertexId)>,
    /// Original arc behind each contracted arc.
    orig_arc: Vec<ArcId>,
    out_off: Vec<u32>,
    out_adj: Vec<(VertexId, ArcId)>,
    super_vertex: VertexId,
    cn: usize,
    allocs: u64,
}

impl ContractionScratch {
    fn preallocate(&mut self, n: usize, m: usize) {
        grow(&mut self.vertex_map, n, VertexId(0), &mut self.allocs);
        grow(
            &mut self.arcs,
            m,
            (VertexId(0), VertexId(0)),
            &mut self.allocs,
        );
        grow(&mut self.orig_arc, m, ArcId(0), &mut self.allocs);
        grow(&mut self.out_off, n + 2, 0u32, &mut self.allocs);
        grow(
            &mut self.out_adj,
            m,
            (VertexId(0), ArcId(0)),
            &mut self.allocs,
        );
        self.allocs = 0;
    }

    fn rebuild(&mut self, d: &CsrDigraph, in_set: &[bool]) {
        let n = d.num_vertices();
        grow(&mut self.vertex_map, n, VertexId(0), &mut self.allocs);
        let mut outside = 0usize;
        for (v, &inside) in in_set.iter().enumerate() {
            if !inside {
                self.vertex_map[v] = VertexId::new(outside);
                outside += 1;
            }
        }
        let super_vertex = VertexId::new(outside);
        for (v, &inside) in in_set.iter().enumerate() {
            if inside {
                self.vertex_map[v] = super_vertex;
            }
        }
        self.super_vertex = super_vertex;
        self.cn = outside + 1;
        self.arcs.clear();
        self.orig_arc.clear();
        for i in 0..d.num_arcs() {
            let a = ArcId::new(i);
            let (t, h) = d.arc(a);
            let (nt, nh) = (self.vertex_map[t.index()], self.vertex_map[h.index()]);
            if nt == nh {
                continue;
            }
            if self.arcs.len() == self.arcs.capacity() {
                self.allocs += 1;
            }
            self.arcs.push((nt, nh));
            if self.orig_arc.len() == self.orig_arc.capacity() {
                self.allocs += 1;
            }
            self.orig_arc.push(a);
        }
        // Counting sort into the out-CSR (arc-id order per vertex).
        let cn = self.cn;
        grow(&mut self.out_off, cn + 1, 0u32, &mut self.allocs);
        for &(t, _) in &self.arcs {
            self.out_off[t.index() + 1] += 1;
        }
        for i in 0..cn {
            self.out_off[i + 1] += self.out_off[i];
        }
        grow(
            &mut self.out_adj,
            self.arcs.len(),
            (VertexId(0), ArcId(0)),
            &mut self.allocs,
        );
        for (i, &(t, h)) in self.arcs.iter().enumerate() {
            self.out_adj[self.out_off[t.index()] as usize] = (h, ArcId::new(i));
            self.out_off[t.index()] += 1;
        }
        for v in (1..=cn).rev() {
            self.out_off[v] = self.out_off[v - 1];
        }
        self.out_off[0] = 0;
    }

    #[inline]
    fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        &self.out_adj[self.out_off[v.index()] as usize..self.out_off[v.index() + 1] as usize]
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs,
            (self.vertex_map.capacity() * std::mem::size_of::<VertexId>()
                + self.arcs.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
                + self.orig_arc.capacity() * std::mem::size_of::<ArcId>()
                + self.out_off.capacity() * std::mem::size_of::<u32>()
                + self.out_adj.capacity() * std::mem::size_of::<(VertexId, ArcId)>())
                as u64,
        )
    }
}

/// Reusable buffers for the Lemma-35 analysis.
#[derive(Default)]
struct AnalyzeScratch {
    // DFS tree of D′ from r_T with postorder.
    visited: Vec<bool>,
    parent: Vec<u32>,
    parent_arc: Vec<u32>,
    postorder: Vec<u32>,
    dfs_stack: Vec<(VertexId, u32)>,
    // T* marking.
    in_tstar_vertex: Vec<bool>,
    in_tstar_arc: Vec<bool>,
    term_rep: Vec<u32>,
    tstar_vertices: Vec<VertexId>,
    /// Contracted arc ids of `E(T*)`; translated via `orig_arc` at a
    /// unique leaf.
    tstar_arcs: Vec<ArcId>,
    // Descending-postorder sweep.
    deleted: Vec<bool>,
    round: Vec<VertexId>,
    round_stamp: Vec<u32>,
    round_epoch: u32,
    allocs: u64,
}

impl AnalyzeScratch {
    fn preallocate(&mut self, n: usize, m: usize) {
        grow(&mut self.visited, n + 1, false, &mut self.allocs);
        grow(&mut self.parent, n + 1, 0u32, &mut self.allocs);
        grow(&mut self.parent_arc, n + 1, 0u32, &mut self.allocs);
        grow(&mut self.postorder, n + 1, 0u32, &mut self.allocs);
        grow(
            &mut self.dfs_stack,
            n + 1,
            (VertexId(0), 0u32),
            &mut self.allocs,
        );
        grow(&mut self.in_tstar_vertex, n + 1, false, &mut self.allocs);
        grow(&mut self.in_tstar_arc, m, false, &mut self.allocs);
        grow(&mut self.term_rep, n + 1, 0u32, &mut self.allocs);
        grow(
            &mut self.tstar_vertices,
            n + 1,
            VertexId(0),
            &mut self.allocs,
        );
        grow(&mut self.tstar_arcs, n + 1, ArcId(0), &mut self.allocs);
        grow(&mut self.deleted, n + 1, false, &mut self.allocs);
        grow(&mut self.round, n + 1, VertexId(0), &mut self.allocs);
        grow(&mut self.round_stamp, n + 1, 0u32, &mut self.allocs);
        self.allocs = 0;
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs,
            ((self.visited.capacity()
                + self.in_tstar_vertex.capacity()
                + self.in_tstar_arc.capacity()
                + self.deleted.capacity())
                * std::mem::size_of::<bool>()
                + (self.parent.capacity()
                    + self.parent_arc.capacity()
                    + self.postorder.capacity()
                    + self.term_rep.capacity()
                    + self.round_stamp.capacity())
                    * std::mem::size_of::<u32>()
                + self.dfs_stack.capacity() * std::mem::size_of::<(VertexId, u32)>()
                + (self.tstar_vertices.capacity() + self.round.capacity())
                    * std::mem::size_of::<VertexId>()
                + self.tstar_arcs.capacity() * std::mem::size_of::<ArcId>()) as u64,
        )
    }
}

impl DirectedSearch {
    fn usage(&self) -> ScratchUsage {
        let pool: ScratchUsage = self.pool.iter().map(|b| b.usage()).sum();
        ScratchUsage::new(
            self.csr.alloc_events() + self.span.alloc_events(),
            self.csr.capacity_bytes() + self.span.capacity_bytes(),
        ) + self.frames.usage()
            + self.con.usage()
            + self.ana.usage()
            + pool
            + ScratchUsage::new(self.extra_allocs, 0)
    }
}

impl<'g> DirectedSteinerTree<'g> {
    /// A problem instance borrowing the digraph.
    pub fn new(d: &'g DiGraph, root: VertexId, terminals: &[VertexId]) -> Self {
        DirectedSteinerTree {
            d: Cow::Borrowed(d),
            root,
            terminals: terminals.to_vec(),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// A problem instance owning the digraph.
    pub fn from_graph(
        d: DiGraph,
        root: VertexId,
        terminals: &[VertexId],
    ) -> DirectedSteinerTree<'static> {
        DirectedSteinerTree {
            d: Cow::Owned(d),
            root,
            terminals: terminals.to_vec(),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// Clones the borrowed digraph (if any) so the instance becomes
    /// `'static` for the iterator front-end.
    pub fn into_owned(self) -> DirectedSteinerTree<'static> {
        DirectedSteinerTree {
            d: Cow::Owned(self.d.into_owned()),
            root: self.root,
            terminals: self.terminals,
            stats: self.stats,
            search: self.search,
        }
    }
}

/// Outcome of the per-node Lemma 35 analysis in the contracted graph.
enum NodeAnalysis {
    /// A terminal with ≥ 2 valid paths to branch on.
    Branch(VertexId),
    /// The unique completion: `E(T*)` was left in `scratch.tstar_arcs`
    /// (contracted ids, translated by the caller).
    Unique,
}

/// Lemma 35 analysis of the contracted instance, allocation-free over the
/// reusable `scratch`.
fn analyze(
    c: &ContractionScratch,
    terminals: &[VertexId],
    in_tree: &[bool],
    s: &mut AnalyzeScratch,
    work: &mut u64,
) -> NodeAnalysis {
    let cn = c.cn;
    let cm = c.arcs.len();
    *work += (cn + cm) as u64;
    const NONE: u32 = u32::MAX;
    // Iterative DFS from r_T with postorder (arcs in adjacency order).
    grow(&mut s.visited, cn, false, &mut s.allocs);
    grow(&mut s.parent, cn, NONE, &mut s.allocs);
    grow(&mut s.parent_arc, cn, NONE, &mut s.allocs);
    grow(&mut s.postorder, cn, NONE, &mut s.allocs);
    s.dfs_stack.clear();
    s.dfs_stack.push((c.super_vertex, 0));
    s.visited[c.super_vertex.index()] = true;
    let mut post_counter = 0u32;
    while let Some(&mut (u, ref mut next)) = s.dfs_stack.last_mut() {
        let out = c.out_adjacency(u).get(*next as usize).copied();
        match out {
            Some((v, a)) => {
                *next += 1;
                if !s.visited[v.index()] {
                    s.visited[v.index()] = true;
                    s.parent[v.index()] = u.0;
                    s.parent_arc[v.index()] = a.0;
                    s.dfs_stack.push((v, 0));
                }
            }
            None => {
                s.postorder[u.index()] = post_counter;
                post_counter += 1;
                s.dfs_stack.pop();
            }
        }
    }
    // T*: prune the DFS tree to the missing terminals. While marking,
    // remember for every T* vertex a terminal in its subtree.
    grow(&mut s.in_tstar_vertex, cn, false, &mut s.allocs);
    grow(&mut s.in_tstar_arc, cm, false, &mut s.allocs);
    grow(&mut s.term_rep, cn, NONE, &mut s.allocs);
    s.tstar_vertices.clear();
    s.tstar_arcs.clear();
    for &w in terminals {
        if in_tree[w.index()] {
            continue;
        }
        let mut cur = c.vertex_map[w.index()];
        while !s.in_tstar_vertex[cur.index()] {
            *work += 1;
            s.in_tstar_vertex[cur.index()] = true;
            s.term_rep[cur.index()] = w.0;
            s.tstar_vertices.push(cur);
            if cur == c.super_vertex {
                break;
            }
            let pa = s.parent_arc[cur.index()];
            debug_assert_ne!(pa, NONE, "terminals are reachable from the root");
            s.in_tstar_arc[pa as usize] = true;
            s.tstar_arcs.push(ArcId(pa));
            cur = VertexId(s.parent[cur.index()]);
        }
    }
    // Descending-postorder sweep over V(T*).
    let postorder = &s.postorder;
    s.tstar_vertices
        .sort_unstable_by_key(|v| std::cmp::Reverse(postorder[v.index()]));
    grow(&mut s.deleted, cn, false, &mut s.allocs);
    grow(&mut s.round_stamp, cn, 0u32, &mut s.allocs);
    s.round_epoch = 0;
    for ti in 0..s.tstar_vertices.len() {
        let v = s.tstar_vertices[ti];
        if s.deleted[v.index()] {
            continue;
        }
        s.round.clear();
        s.round.push(v);
        let mut head = 0;
        let mut witness: Option<VertexId> = None;
        s.round_epoch += 1;
        let ep = s.round_epoch;
        s.round_stamp[v.index()] = ep;
        'bfs: while head < s.round.len() {
            let x = s.round[head];
            head += 1;
            for &(y, a) in c.out_adjacency(x) {
                *work += 1;
                if s.in_tstar_arc[a.index()]
                    || s.deleted[y.index()]
                    || s.round_stamp[y.index()] == ep
                {
                    continue;
                }
                if s.in_tstar_vertex[y.index()] {
                    witness = Some(y);
                    break 'bfs;
                }
                s.round_stamp[y.index()] = ep;
                s.round.push(y);
            }
        }
        if let Some(u) = witness {
            let w = s.term_rep[u.index()];
            debug_assert_ne!(w, NONE, "every T* vertex has a terminal below");
            return NodeAnalysis::Branch(VertexId(w));
        }
        for &x in &s.round {
            s.deleted[x.index()] = true;
        }
    }
    NodeAnalysis::Unique
}

impl MinimalSteinerProblem for DirectedSteinerTree<'_> {
    type Item = ArcId;
    type Branch = VertexId;

    const NAME: &'static str = "minimal directed Steiner tree";

    fn split_root(&self) -> Option<Self> {
        Some(DirectedSteinerTree {
            d: self.d.clone(),
            root: self.root,
            terminals: self.terminals.clone(),
            stats: EnumStats::default(),
            search: None,
        })
    }

    fn cache_key(&self) -> Option<crate::cache::CacheKey> {
        // `prepare` sorts the terminals: fingerprint the sorted form (see
        // `SteinerTree::cache_key`). The root is part of the query — the
        // same digraph and terminals with a different root is a
        // different stream.
        let mut sorted = self.terminals.clone();
        sorted.sort_unstable();
        let mut query = crate::cache::fingerprint_terminals(&sorted);
        query ^= (self.root.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Out-arborescences from the root stay inside the weak
        // components of root ∪ terminals, so those regions are the key.
        let regions = steiner_graph::RegionSignature::of_digraph(
            &self.d,
            sorted.iter().copied().chain(std::iter::once(self.root)),
        );
        Some(crate::cache::CacheKey {
            kind: Self::NAME,
            regions,
            query_fingerprint: query,
        })
    }

    fn validate(&self) -> Result<(), SteinerError> {
        let n = self.d.num_vertices();
        if self.root.index() >= n {
            return Err(SteinerError::RootOutOfRange {
                root: self.root,
                num_vertices: n,
            });
        }
        crate::problem::validate_terminal_list(&self.terminals, n)
    }

    fn prepare(&mut self) -> Result<Prepared<ArcId>, SteinerError> {
        self.validate()?;
        let d = &*self.d;
        let mut terminals: Vec<VertexId> = self
            .terminals
            .iter()
            .copied()
            .filter(|&w| w != self.root)
            .collect();
        terminals.sort_unstable();
        self.stats.preprocessing_work = (d.num_vertices() + d.num_arcs()) as u64;
        let reach = reachable_from(d, self.root);
        if let Some(&w) = terminals.iter().find(|w| !reach[w.index()]) {
            return Err(SteinerError::UnreachableTerminal(w));
        }
        if terminals.is_empty() {
            // The empty tree {root} is the unique solution.
            return Ok(Prepared::Single(Vec::new()));
        }
        let n = d.num_vertices();
        let mut is_terminal = vec![false; n];
        for &w in &terminals {
            is_terminal[w.index()] = true;
        }
        let mut in_tree = vec![false; n];
        in_tree[self.root.index()] = true;
        let missing = terminals.len();
        let m = d.num_arcs();
        // Build the flat CSR once and size every scratch buffer now, so
        // the search never allocates (asserted via `scratch_allocs`).
        let csr = Arc::new(CsrDigraph::from_digraph(d));
        // The forced-arc skeleton: arcs whose head has in-degree 1 lie on
        // every path to that head, so reach along them certifies unique
        // valid paths (see the `span` field docs). Built once; the root
        // is attached here.
        let mut span = DynamicSpanning::new();
        span.preallocate(n, m);
        span.begin_skeleton(n);
        for i in 0..m {
            let a = ArcId::new(i);
            let (t, h) = csr.arc(a);
            if csr.in_adjacency(h).len() == 1 {
                // Reversed: forced queries walk backward from a terminal
                // along unique in-arcs toward the partial tree.
                span.add_arc(h, t, i as u32);
            }
        }
        span.finish_skeleton();
        // One frame per live path delta, each owning at least one vertex
        // of V(T): never more than n at once.
        let mut frames = FrameLog::new();
        frames.preallocate(n + terminals.len() + 2);
        let mut con = ContractionScratch::default();
        con.preallocate(n, m);
        let mut ana = AnalyzeScratch::default();
        ana.preallocate(n, m);
        let mut pool = Vec::with_capacity(terminals.len() + 1);
        for _ in 0..terminals.len() + 1 {
            let mut bs = DirBranchScratch::default();
            bs.preallocate(n, m);
            pool.push(bs);
        }
        let mut tree_vertices = Vec::with_capacity(n + 1);
        tree_vertices.push(self.root);
        let mut search = DirectedSearch {
            terminals,
            is_terminal,
            in_tree,
            tree_vertices,
            tree_arcs: Vec::with_capacity(n + 1),
            missing,
            csr,
            con,
            ana,
            span,
            frames,
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
        (self.d.num_vertices(), self.d.num_arcs())
    }

    fn stats(&self) -> &EnumStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    fn classify(&mut self, out: &mut Vec<ArcId>) -> NodeStep<VertexId> {
        let stats = &mut self.stats;
        let search = self
            .search
            .as_mut()
            .expect("prepare() runs before the search");
        if search.missing == 0 {
            return NodeStep::Complete;
        }
        // Incremental fast path: a missing terminal reached over the
        // unique-in-arc skeleton has exactly one valid path (every path
        // to it must end with the forced chain from its first V(T)
        // vertex), so an all-reached node has a unique completion — T
        // plus the recorded chains — and no Lemma-35 sweep or
        // contraction runs. Reach here is sufficient, not necessary: an
        // unreached node falls back to the exact analysis, which may
        // still conclude Unique.
        stats.work += search.terminals.len() as u64;
        let span = &mut search.span;
        let in_tree = &search.in_tree;
        let terminals = &search.terminals;
        out.extend_from_slice(&search.tree_arcs);
        let all_forced = span.collect_all_forced(
            terminals,
            |v| in_tree[v.index()],
            |a| out.push(ArcId::new(a as usize)),
        );
        if all_forced {
            stats.classify_incremental += 1;
            stats.work += out.len() as u64;
            #[cfg(debug_assertions)]
            {
                // Cross-check against the fresh contraction +
                // Lemma-35 analysis: it must also conclude Unique,
                // with the same arc set.
                let mut dummy = 0u64;
                search.con.rebuild(&search.csr, &search.in_tree);
                let verdict = analyze(
                    &search.con,
                    &search.terminals,
                    &search.in_tree,
                    &mut search.ana,
                    &mut dummy,
                );
                debug_assert!(
                    matches!(verdict, NodeAnalysis::Unique),
                    "incremental Unique verdict disagrees with the Lemma-35 sweep"
                );
                let mut got = out.clone();
                got.sort_unstable();
                let mut want: Vec<ArcId> = search
                    .tree_arcs
                    .iter()
                    .copied()
                    .chain(
                        search
                            .ana
                            .tstar_arcs
                            .iter()
                            .map(|a| search.con.orig_arc[a.index()]),
                    )
                    .collect();
                want.sort_unstable();
                debug_assert_eq!(
                    got, want,
                    "incremental unique completion differs from T + T*"
                );
            }
            return NodeStep::Unique;
        }
        out.clear();
        stats.classify_rebuilds += 1;
        search.con.rebuild(&search.csr, &search.in_tree);
        stats.work += (search.csr.num_vertices() + search.csr.num_arcs()) as u64;
        match analyze(
            &search.con,
            &search.terminals,
            &search.in_tree,
            &mut search.ana,
            &mut stats.work,
        ) {
            NodeAnalysis::Branch(w) => NodeStep::Branch(w),
            NodeAnalysis::Unique => {
                out.extend_from_slice(&search.tree_arcs);
                out.extend(
                    search
                        .ana
                        .tstar_arcs
                        .iter()
                        .map(|a| search.con.orig_arc[a.index()]),
                );
                NodeStep::Unique
            }
        }
    }

    fn solution(&self, out: &mut Vec<ArcId>) {
        let search = self
            .search
            .as_ref()
            .expect("prepare() runs before the search");
        out.extend_from_slice(&search.tree_arcs);
    }

    fn seal_stats(&mut self) {
        if let Some(search) = &self.search {
            let usage = search.usage();
            self.stats.note_scratch(ScratchUsage::new(
                usage.allocs - search.baseline_allocs,
                usage.bytes,
            ));
            self.stats.note_connectivity(search.span.repair_stats());
        }
    }

    fn record_subtree(&self) -> Option<SubtreeRecord<ArcId>> {
        let search = self.search.as_ref()?;
        Some(SubtreeRecord {
            vertices: search.tree_vertices.clone(),
            items: search.tree_arcs.clone(),
            meta: 0,
        })
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<ArcId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.work += (self.d.num_vertices() + self.d.num_arcs()) as u64;
        // The record is V(T) as a stack, so it starts with the vertices
        // the root state already holds (the root).
        let search = self.search.as_ref().expect("search state");
        let held = search.tree_vertices.len();
        debug_assert_eq!(record.vertices[..held], search.tree_vertices[..]);
        self.descend(&record.vertices[held..], &record.items);
        let flow = child(self);
        self.retract_frame();
        flow
    }

    fn branch(
        &mut self,
        w: VertexId,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        let per_child = (self.d.num_vertices() + self.d.num_arcs()) as u64;
        self.stats.work += per_child;
        // Take this depth's scratch so the enumeration can borrow it while
        // the sink mutates `self`; snapshot V(T) as the source set.
        let (mut bs, csr, depth) = {
            let search = self
                .search
                .as_mut()
                .expect("prepare() runs before the search");
            let depth = search.depth;
            if search.pool.len() <= depth {
                search.extra_allocs += 1;
                let mut fresh = DirBranchScratch::default();
                fresh.preallocate(search.csr.num_vertices(), search.csr.num_arcs());
                search.pool.push(fresh);
            }
            search.depth = depth + 1;
            let mut bs = std::mem::take(&mut search.pool[depth]);
            bs.sources.clear();
            bs.sources.extend_from_slice(&search.tree_vertices);
            bs.path.begin(search.csr.num_vertices() + 1);
            (bs, Arc::clone(&search.csr), depth)
        };
        let mut run = BranchRun::new();
        let DirBranchScratch {
            path,
            boundary,
            sources,
        } = &mut bs;
        let pstats =
            enumerate_source_set_paths_csr(&csr, sources, w, path, boundary, &mut |delta| {
                run.follow(
                    self,
                    delta,
                    per_child,
                    Self::descend,
                    Self::retract_frame,
                    child,
                )
            });
        self.stats.path_gen_work += pstats.work;
        self.stats.fstp_cache_misses += pstats.activations;
        let search = self.search.as_mut().expect("search state");
        search.pool[depth] = bs;
        search.depth = depth;
        debug_assert!(
            run.children >= 2 || run.flow.is_break(),
            "Lemma 35 witness guarantees two valid paths"
        );
        (run.children, run.flow)
    }
}

impl DirectedSteinerTree<'_> {
    /// The descend half of the branch protocol: extends the directed
    /// partial tree by part of a valid path — `vertices` are the new
    /// vertices (none is in `V(T)` yet), `arcs` the arcs reaching them —
    /// and pushes the typed frame. Shared by the path deltas of `branch`
    /// and by replayed subtrees.
    fn descend(&mut self, vertices: &[VertexId], arcs: &[ArcId]) {
        let search = self.search.as_mut().expect("search state");
        let frame = DirFrame {
            added: vertices.len(),
            arc_base: search.tree_arcs.len(),
        };
        for &v in vertices {
            debug_assert!(!search.in_tree[v.index()]);
            search.in_tree[v.index()] = true;
            search.tree_vertices.push(v);
            if search.is_terminal[v.index()] {
                search.missing -= 1;
            }
        }
        search.tree_arcs.extend_from_slice(arcs);
        search.frames.push(frame);
    }

    /// The undo half: pops the innermost frame and restores every layer.
    fn retract_frame(&mut self) {
        let search = self.search.as_mut().expect("search state");
        let frame = search.frames.pop();
        search.tree_arcs.truncate(frame.arc_base);
        for _ in 0..frame.added {
            let v = search.tree_vertices.pop().expect("tree vertex stack");
            search.in_tree[v.index()] = false;
            if search.is_terminal[v.index()] {
                search.missing += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::solver::Enumeration;
    use std::collections::BTreeSet;

    fn collect(d: &DiGraph, r: VertexId, w: &[VertexId]) -> BTreeSet<Vec<ArcId>> {
        let mut out = BTreeSet::new();
        Enumeration::new(DirectedSteinerTree::new(d, r, w))
            .for_each(|arcs| {
                assert!(out.insert(arcs.to_vec()), "duplicate solution {arcs:?}");
                ControlFlow::Continue(())
            })
            .expect("valid instance");
        out
    }

    #[test]
    fn diamond_two_trees() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let got = collect(&d, VertexId(0), &[VertexId(3)]);
        assert_eq!(
            got,
            brute::minimal_directed_steiner_trees(&d, VertexId(0), &[VertexId(3)])
        );
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn chain_unique_tree() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let got = collect(&d, VertexId(0), &[VertexId(3)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got.iter().next().unwrap().len(), 3);
    }

    #[test]
    fn branching_terminals_share_prefixes() {
        // Root 0 -> {1, 2}; 1 -> 3, 2 -> 3; terminals {1, 3}.
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let w = [VertexId(1), VertexId(3)];
        let got = collect(&d, VertexId(0), &w);
        assert_eq!(
            got,
            brute::minimal_directed_steiner_trees(&d, VertexId(0), &w)
        );
    }

    #[test]
    fn unreachable_terminal_is_an_error() {
        let d = DiGraph::from_arcs(3, &[(0, 1), (2, 1)]).unwrap();
        let err = Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[VertexId(2)]))
            .run()
            .unwrap_err();
        assert_eq!(err, SteinerError::UnreachableTerminal(VertexId(2)));
    }

    #[test]
    fn no_terminals_gives_empty_tree_via_shim() {
        // The shim emitted the empty tree for an empty terminal list; the
        // builder reports the empty instance, an error that
        // `means_no_solutions`.
        let d = DiGraph::from_arcs(2, &[(0, 1)]).unwrap();
        let err = Enumeration::new(DirectedSteinerTree::new(&d, VertexId(0), &[]))
            .run()
            .unwrap_err();
        assert_eq!(err, SteinerError::EmptyInstance);
        assert!(err.means_no_solutions());
    }

    #[test]
    fn root_in_terminals_is_dropped() {
        let d = DiGraph::from_arcs(2, &[(0, 1)]).unwrap();
        let got = collect(&d, VertexId(0), &[VertexId(0), VertexId(1)]);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn matches_brute_force_on_random_dags() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd1a6);
        for case in 0..60 {
            let n = 3 + case % 5;
            let m = (n + rng.gen_range(0..6)).min(n * (n - 1) / 2);
            let (d, root) = steiner_graph::generators::random_rooted_dag(n, m, &mut rng);
            if d.num_arcs() > brute::MAX_BRUTE_EDGES {
                continue;
            }
            let t = 1 + rng.gen_range(0..3usize).min(n - 1);
            let mut w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            w.retain(|&v| v != root);
            if w.is_empty() {
                continue;
            }
            assert_eq!(
                collect(&d, root, &w),
                brute::minimal_directed_steiner_trees(&d, root, &w),
                "digraph {d:?} root {root} terminals {w:?}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_digraphs_with_cycles() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc1c1e);
        for case in 0..60 {
            let n = 3 + case % 4;
            let m = (n + rng.gen_range(0..6)).min(n * (n - 1));
            let d = steiner_graph::generators::random_digraph(n, m.min(20), &mut rng);
            let root = VertexId(0);
            let t = 1 + rng.gen_range(0..3usize).min(n - 1);
            let mut w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            w.retain(|&v| v != root);
            if w.is_empty() {
                continue;
            }
            let mut got = BTreeSet::new();
            let run = Enumeration::new(DirectedSteinerTree::new(&d, root, &w)).for_each(|arcs| {
                assert!(got.insert(arcs.to_vec()), "duplicate solution {arcs:?}");
                ControlFlow::Continue(())
            });
            let oracle = brute::minimal_directed_steiner_trees(&d, root, &w);
            match run {
                Ok(_) => {}
                // Random digraphs can leave a terminal unreachable: the
                // strict API reports it, the oracle has no solutions.
                Err(SteinerError::UnreachableTerminal(_)) => assert!(oracle.is_empty()),
                Err(e) => panic!("unexpected error {e} on digraph {d:?}"),
            }
            assert_eq!(got, oracle, "digraph {d:?} root {root} terminals {w:?}");
        }
    }

    #[test]
    fn search_does_not_allocate_after_prepare() {
        let (d, root) = steiner_graph::generators::layered_digraph(3, 3);
        let w = [VertexId(7), VertexId(8), VertexId(9)];
        let (run, stats) = Enumeration::new(DirectedSteinerTree::new(&d, root, &w)).with_stats();
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
    fn outputs_verify_minimal() {
        let (d, root) = steiner_graph::generators::layered_digraph(3, 2);
        let w = [VertexId(5), VertexId(6)];
        let mut count = 0;
        Enumeration::new(DirectedSteinerTree::new(&d, root, &w))
            .for_each(|arcs| {
                count += 1;
                assert!(crate::verify::is_minimal_directed_steiner_subgraph(
                    &d, root, &w, arcs
                ));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert!(count > 1);
    }

    #[test]
    fn queued_matches_direct() {
        let (d, root) = steiner_graph::generators::layered_digraph(3, 2);
        let w = [VertexId(5), VertexId(6)];
        let direct = collect(&d, root, &w);
        let mut queued = BTreeSet::new();
        Enumeration::new(DirectedSteinerTree::new(&d, root, &w))
            .with_default_queue()
            .for_each(|arcs| {
                assert!(queued.insert(arcs.to_vec()));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(direct, queued);
    }

    #[test]
    fn iterator_front_end_matches_direct() {
        let (d, root) = steiner_graph::generators::layered_digraph(3, 2);
        let w = [VertexId(5), VertexId(6)];
        let direct = collect(&d, root, &w);
        let iterated: BTreeSet<Vec<ArcId>> =
            Enumeration::new(DirectedSteinerTree::from_graph(d, root, &w))
                .into_iter()
                .unwrap()
                .collect();
        assert_eq!(direct, iterated);
    }
}
