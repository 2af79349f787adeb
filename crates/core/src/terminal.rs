//! Minimal terminal Steiner tree enumeration (§5.1, Theorems 29 & 31),
//! exposed as the [`TerminalSteinerTree`] problem type for the generic
//! [`crate::solver::Enumeration`] engine.
//!
//! A terminal Steiner tree is a Steiner tree in which **every terminal is a
//! leaf** (Proposition 26 characterizes the minimal ones: every terminal is
//! a leaf *and* every leaf is a terminal). For |W| = 2 the problem is plain
//! `s`-`t` path enumeration. For |W| ≥ 3, Lemma 27 says solutions use no
//! terminal-terminal edge and live inside `G[C ∪ W]` for a single
//! component `C` of `G[V ∖ W]` with `W ⊆ N(C)` — so `prepare`, working
//! on the terminals' region (their connected component, in region ids:
//! [`steiner_graph::region`]),
//!
//! 1. builds a *cleaned* copy of the region without terminal-terminal
//!    edges (remembering original edge ids for emission), and
//! 2. splits it into admissible components, each with its own bridge set
//!    and precomputed vertex masks.
//!
//! The engine's root node branches over all admissible components (the
//! [`TerminalBranch::Root`] target: the `w₀`-`w₁` paths of an empty
//! partial tree, per component); deeper nodes run the improved branching:
//! grow a minimal terminal completion `T′ ⊇ T` (a spanning tree of `C`
//! containing `T ∩ C`, one leaf edge per missing terminal, then
//! Proposition 26 pruning), scan `E(T′) ∖ E(T)` against the bridges of
//! `G[C ∪ W]` (Lemma 30), and either branch on a terminal behind a
//! non-bridge edge or emit the unique completion.
//!
//! The root (case (1) of the paper) may legitimately have one child; the
//! paper treats it as "linear-time preprocessing", and it is the one
//! exception to the ≥2-children invariant that the stats report.
//!
//! Hot-path state management follows the engine-wide zero-allocation
//! discipline: the cleaned graph's CSR and doubled-CSR views, all vertex
//! masks (including the per-component `G[C ∪ {w₀, w₁}]` masks) and the
//! augmented-graph scratch of the exact two-paths test are built once in
//! `prepare()`; `branch` snapshots and rolls back through the [`Trail`]
//! instead of cloning component masks.

use crate::improved::{doubled_edges, find_terminal_beyond_csr, BeyondScratch, BranchScratch};
use crate::partial::{Extension, PartialTree};
use crate::problem::{
    BranchRun, MinimalSteinerProblem, NodeStep, Prepared, SteinerError, SubtreeRecord,
};
use crate::stats::EnumStats;
use crate::trail::{FrameLog, ScratchUsage, Trail, TrailMark};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::Arc;
use steiner_graph::bridges::{bridges_csr_into, BridgeScratch};
use steiner_graph::connectivity::connected_components;
use steiner_graph::csr::grow;
use steiner_graph::spanning::{
    grow_spanning_tree_csr, prune_leaves_csr, CompletionScratch, DynamicSpanning, SpanMark,
};
use steiner_graph::{
    ArcId, CsrDigraph, CsrUndirected, EdgeId, Region, RegionIds, UndirectedGraph, VertexId,
};
use steiner_paths::enumerate::PathScratch;
use steiner_paths::stsets::enumerate_source_set_paths_csr;

/// Branch targets of the terminal variant: the component-and-first-path
/// root expansion, or a missing terminal with ≥ 2 valid paths.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TerminalBranch {
    /// The root node: branch over every admissible component's `w₀`-`w₁`
    /// paths (|W| = 2: over the `w₀`-`w₁` paths of `G` itself).
    Root,
    /// A missing terminal with at least two valid paths.
    Terminal(VertexId),
}

/// The minimal terminal Steiner tree problem (§5.1): find all
/// inclusion-minimal Steiner trees in which every terminal is a leaf.
///
/// ```
/// use steiner_core::{Enumeration, TerminalSteinerTree};
/// use steiner_graph::{UndirectedGraph, VertexId};
///
/// // Star: terminals 1, 2, 3 must all be leaves; the full star is the
/// // unique solution.
/// let g = UndirectedGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
/// let w = [VertexId(1), VertexId(2), VertexId(3)];
/// let trees = Enumeration::new(TerminalSteinerTree::new(&g, &w)).collect_vec().unwrap();
/// assert_eq!(trees.len(), 1);
/// assert_eq!(trees[0].len(), 3);
/// ```
pub struct TerminalSteinerTree<'g> {
    g: Cow<'g, UndirectedGraph>,
    terminals: Vec<VertexId>,
    /// `(n, m)` of the query region once `prepare` has run (of the whole
    /// graph before).
    size: (usize, usize),
    stats: EnumStats,
    search: Option<TerminalSearch>,
}

/// The typed checkpoint frame of one descent in component mode.
struct TermFrame {
    ext: Extension,
    trail: TrailMark,
    span: SpanMark,
}

enum TerminalSearch {
    /// |W| = 2: solutions are exactly the `w₀`-`w₁` paths of `G`.
    TwoTerminals(Box<TwoTerminalSearch>),
    /// |W| ≥ 3: per-component search over the cleaned graph.
    Components(Box<ComponentSearch>),
}

impl TerminalSearch {
    /// The terminals, sorted, in region ids.
    fn terminals(&self) -> &[VertexId] {
        match self {
            TerminalSearch::TwoTerminals(ts) => &ts.terminals,
            TerminalSearch::Components(cs) => &cs.terminals,
        }
    }
}

/// |W| = 2 search state: one doubled CSR of the terminals' region plus a
/// path scratch (the root is the only branch, so no depth pool is
/// needed).
struct TwoTerminalSearch {
    /// `[w₀, w₁]` in region ids.
    terminals: Vec<VertexId>,
    /// Region ids back to graph ids, for emission.
    ids: RegionIds,
    doubled: Arc<CsrDigraph>,
    path: PathScratch,
    boundary: Vec<(VertexId, ArcId)>,
    /// The edges of the path the root branch is extending, mirrored from
    /// the path deltas: a whole `w₀`-`w₁` path — the solution — while a
    /// child runs, and empty exactly at the root.
    current: Vec<EdgeId>,
    /// `current`'s length before each delta still in effect.
    marks: FrameLog<usize>,
    baseline_allocs: u64,
}

impl TwoTerminalSearch {
    fn usage(&self) -> ScratchUsage {
        self.marks.usage()
            + ScratchUsage::new(
                self.doubled.alloc_events() + self.path.alloc_events(),
                self.doubled.capacity_bytes()
                    + self.path.capacity_bytes()
                    + (self.boundary.capacity() * std::mem::size_of::<(VertexId, ArcId)>()
                        + self.current.capacity() * std::mem::size_of::<EdgeId>())
                        as u64,
            )
    }
}

struct ComponentSearch {
    /// The terminals, sorted, in region ids.
    terminals: Vec<VertexId>,
    /// The terminals' region of `G` with all terminal-terminal edges
    /// removed (Lemma 27), same vertex ids as the region, as a flat CSR
    /// view.
    gc: CsrUndirected,
    /// Doubled CSR of the cleaned graph (shared with nested branches).
    gc_doubled: Arc<CsrDigraph>,
    /// For each cleaned edge: the original edge id of `G` (for emission).
    orig_edge: Vec<EdgeId>,
    /// The admissible components (`W ⊆ N(C)`).
    comps: Vec<ComponentCtx>,
    /// Index into `comps` of the component being enumerated; set by the
    /// root branch.
    active: Option<usize>,
    t: PartialTree,
    edge_in_t: Vec<bool>,
    /// Undo log for `edge_in_t`.
    trail: Trail,
    /// Incremental connectivity over the active component's bridge
    /// skeleton (bridges of `G[C ∪ W]`, terminals as barriers): a missing
    /// terminal reached from `V(T) ∩ C` here has a unique valid path, so
    /// an all-reached node is a Unique leaf without a completion pass.
    span: DynamicSpanning,
    /// Which component `span`'s skeleton currently describes.
    span_comp: Option<usize>,
    /// Typed checkpoint frames of the active descent (LIFO).
    frames: FrameLog<TermFrame>,
    completion: CompletionScratch,
    beyond: BeyondScratch,
    /// Seed buffer for the minimal completion (`V(T) ∩ C`).
    seeds: Vec<VertexId>,
    aug: AugScratch,
    pool: Vec<BranchScratch>,
    depth: usize,
    extra_allocs: u64,
    baseline_allocs: u64,
}

struct ComponentCtx {
    /// `comp_mask[v]` — whether `v` belongs to this component `C`.
    comp_mask: Vec<bool>,
    /// `comp_mask` plus `{w₀, w₁}`: the vertex set of the root expansion's
    /// `G[C ∪ {w₀, w₁}]` (precomputed — the root no longer clones masks).
    allowed01: Vec<bool>,
    /// Bridges of `G[C ∪ W]` (cleaned graph, masked) — fixed per component
    /// (Lemma 30).
    bridge: Vec<bool>,
}

/// Reusable buffers for the exact two-valid-paths test: the augmented
/// super-source graph is rebuilt in place per call.
#[derive(Default)]
struct AugScratch {
    endpoints: Vec<(VertexId, VertexId)>,
    csr: CsrUndirected,
    bridge: BridgeScratch,
    visited: Vec<bool>,
    parent_edge: Vec<u32>,
    queue: Vec<VertexId>,
    allocs: u64,
}

impl AugScratch {
    fn preallocate(&mut self, n: usize, m: usize) {
        if self.endpoints.capacity() < m {
            self.endpoints.reserve(m - self.endpoints.capacity());
        }
        self.csr.preallocate(n + 1, m);
        self.bridge.preallocate(n + 1, m);
        grow(&mut self.visited, n + 1, false, &mut self.allocs);
        grow(&mut self.parent_edge, n + 1, 0u32, &mut self.allocs);
        if self.queue.capacity() < n + 1 {
            self.queue.reserve(n + 1 - self.queue.capacity());
        }
        self.allocs = 0;
    }

    fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs + self.csr.alloc_events() + self.bridge.alloc_events(),
            self.csr.capacity_bytes()
                + self.bridge.capacity_bytes()
                + (self.endpoints.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
                    + self.visited.capacity() * std::mem::size_of::<bool>()
                    + self.parent_edge.capacity() * std::mem::size_of::<u32>()
                    + self.queue.capacity() * std::mem::size_of::<VertexId>())
                    as u64,
        )
    }
}

impl ComponentSearch {
    fn usage(&self) -> ScratchUsage {
        let pool: ScratchUsage = self.pool.iter().map(|b| b.usage()).sum();
        self.trail.usage()
            + self.frames.usage()
            + ScratchUsage::new(
                self.gc.alloc_events() + self.gc_doubled.alloc_events() + self.span.alloc_events(),
                self.gc.capacity_bytes()
                    + self.gc_doubled.capacity_bytes()
                    + self.span.capacity_bytes(),
            )
            + ScratchUsage::new(
                self.completion.alloc_events(),
                self.completion.capacity_bytes(),
            )
            + self.beyond.usage()
            + self.aug.usage()
            + pool
            + ScratchUsage::new(self.extra_allocs, 0)
    }
}

impl<'g> TerminalSteinerTree<'g> {
    /// A problem instance borrowing the graph.
    pub fn new(g: &'g UndirectedGraph, terminals: &[VertexId]) -> Self {
        TerminalSteinerTree {
            g: Cow::Borrowed(g),
            terminals: terminals.to_vec(),
            size: (g.num_vertices(), g.num_edges()),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// A problem instance owning the graph.
    pub fn from_graph(g: UndirectedGraph, terminals: &[VertexId]) -> TerminalSteinerTree<'static> {
        TerminalSteinerTree {
            size: (g.num_vertices(), g.num_edges()),
            g: Cow::Owned(g),
            terminals: terminals.to_vec(),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// Clones the borrowed graph (if any) so the instance becomes
    /// `'static` for the iterator front-end.
    pub fn into_owned(self) -> TerminalSteinerTree<'static> {
        TerminalSteinerTree {
            g: Cow::Owned(self.g.into_owned()),
            terminals: self.terminals,
            size: self.size,
            stats: self.stats,
            search: self.search,
        }
    }
}

/// A minimal terminal Steiner tree `T′ ⊇ T` (Lemma 28's construction),
/// left in `completion.edges`. Allocation-free over the scratch buffers.
fn minimal_completion_csr(
    gc: &CsrUndirected,
    comp_mask: &[bool],
    terminals: &[VertexId],
    t: &PartialTree,
    seeds: &mut Vec<VertexId>,
    completion: &mut CompletionScratch,
    work: &mut u64,
) {
    *work += (gc.num_vertices() + gc.num_edges()) as u64;
    // Stage 1: span C from the non-terminal part of T.
    seeds.clear();
    seeds.extend(t.vertices.iter().copied().filter(|v| comp_mask[v.index()]));
    debug_assert!(!seeds.is_empty(), "a nonempty partial tree touches C");
    grow_spanning_tree_csr(gc, seeds, &t.edges, Some(comp_mask), completion);
    // Stage 2: one leaf edge per missing terminal.
    for &w in terminals {
        if t.in_tree[w.index()] {
            continue;
        }
        let leaf_edge = gc
            .adjacency(w)
            .iter()
            .filter(|(v, _)| comp_mask[v.index()])
            .map(|&(_, e)| e)
            .min()
            .expect("W ⊆ N(C) guarantees an attachment edge");
        completion.edges.push(leaf_edge);
    }
    // Stage 3: prune non-terminal leaves (Proposition 26).
    let is_terminal = &t.is_terminal;
    let in_tree = &t.in_tree;
    prune_leaves_csr(
        gc,
        |v| is_terminal[v.index()] || in_tree[v.index()],
        completion,
    );
}

/// Exact test: does `w` have at least two valid paths? A valid path is
/// an `(V(T) ∖ W)`-`w` path inside `G[C ∪ {w}]`. We apply Lemma 16 to
/// the graph augmented with a super-source wired to the source set by
/// one parallel edge per boundary edge: the valid path is unique iff
/// every edge of one super-source-to-`w` path is a bridge there.
///
/// Note: this is stricter than the paper's Lemma 30 test (bridges of
/// `G[C ∪ W]`). That test can report a spurious second path whose
/// rerouting cycle passes through *another terminal* — which valid
/// paths must avoid. See DESIGN.md §9.6 (erratum note).
fn has_two_valid_paths(
    gc: &CsrUndirected,
    comp_mask: &[bool],
    t: &PartialTree,
    w: VertexId,
    aug: &mut AugScratch,
    work: &mut u64,
) -> bool {
    let n = gc.num_vertices();
    *work += (n + gc.num_edges()) as u64;
    // Vertices 0..n are gc's; vertex n is the super-source.
    let super_source = VertexId::new(n);
    let in_c_or_w = |v: VertexId| comp_mask[v.index()] || v == w;
    let source = |v: VertexId| t.in_tree[v.index()] && comp_mask[v.index()];
    aug.endpoints.clear();
    for i in 0..gc.num_edges() {
        let (u, v) = gc.endpoints(EdgeId::new(i));
        match (source(u), source(v)) {
            (true, true) => {}
            (true, false) if in_c_or_w(v) => aug.endpoints.push((super_source, v)),
            (false, true) if in_c_or_w(u) => aug.endpoints.push((super_source, u)),
            (false, false) if in_c_or_w(u) && in_c_or_w(v) => aug.endpoints.push((u, v)),
            _ => {}
        }
    }
    aug.csr.rebuild_from_edges(n + 1, &aug.endpoints);
    // BFS from the super-source, recording parent edges.
    const NONE: u32 = u32::MAX;
    grow(&mut aug.visited, n + 1, false, &mut aug.allocs);
    grow(&mut aug.parent_edge, n + 1, NONE, &mut aug.allocs);
    aug.queue.clear();
    aug.visited[super_source.index()] = true;
    aug.queue.push(super_source);
    let mut head = 0;
    while head < aug.queue.len() {
        let u = aug.queue[head];
        head += 1;
        for &(v, e) in aug.csr.adjacency(u) {
            if !aug.visited[v.index()] {
                aug.visited[v.index()] = true;
                aug.parent_edge[v.index()] = e.0;
                aug.queue.push(v);
            }
        }
    }
    if !aug.visited[w.index()] {
        return false; // no valid path at all (cannot happen mid-run)
    }
    bridges_csr_into(&aug.csr, None, &mut aug.bridge);
    // Unique iff every edge of this path is a bridge (Lemma 16 with
    // T = {super-source}); i.e. a second path exists iff some edge of the
    // BFS path is not a bridge.
    let mut cur = w;
    while cur != super_source {
        let e = aug.parent_edge[cur.index()];
        debug_assert_ne!(e, NONE, "w is reachable from the super-source");
        if !aug.bridge.is_bridge[e as usize] {
            return true;
        }
        cur = aug.csr.other_endpoint(EdgeId(e), cur);
    }
    false
}

impl MinimalSteinerProblem for TerminalSteinerTree<'_> {
    type Item = EdgeId;
    type Branch = TerminalBranch;

    const NAME: &'static str = "minimal terminal Steiner tree";

    fn validate(&self) -> Result<(), SteinerError> {
        crate::problem::validate_terminal_list(&self.terminals, self.g.num_vertices())
    }

    fn split_root(&self) -> Option<Self> {
        Some(TerminalSteinerTree {
            g: self.g.clone(),
            terminals: self.terminals.clone(),
            size: self.size,
            stats: EnumStats::default(),
            search: None,
        })
    }

    fn cache_key(&self) -> Option<crate::cache::CacheKey> {
        // `prepare` sorts the terminals: fingerprint the sorted form (see
        // `SteinerTree::cache_key`).
        let mut sorted = self.terminals.clone();
        sorted.sort_unstable();
        // Solutions stay inside the terminals' components (see
        // `SteinerTree::cache_key` for why pinning only those regions is
        // sound under mutation).
        let regions =
            steiner_graph::RegionSignature::of_undirected(&self.g, sorted.iter().copied());
        Some(crate::cache::CacheKey {
            kind: Self::NAME,
            regions,
            query_fingerprint: crate::cache::fingerprint_terminals(&sorted),
        })
    }

    fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
        self.validate()?;
        self.terminals.sort_unstable();
        // Solutions lie in the terminals' component: one DFS from them
        // gives the connectivity verdict and the region the search runs
        // on.
        let region = Region::around(&self.g, &self.terminals);
        self.size = region.size();
        let (n, m) = self.size;
        self.stats.preprocessing_work = (n + m) as u64;
        if !region.connects(0..self.terminals.len()) {
            return Err(SteinerError::DisconnectedTerminals { set: 0 });
        }
        if self.terminals.len() == 1 {
            // Every tree with one terminal has a non-terminal leaf.
            return Ok(Prepared::Empty);
        }
        let terminals: Vec<VertexId> = self.terminals.iter().map(|&w| region.local(w)).collect();
        if terminals.len() == 2 {
            // Minimal terminal Steiner trees with two terminals are exactly
            // the w₀-w₁ paths (§5.1).
            let doubled = Arc::new(CsrDigraph::doubled_from_csr(&region.csr));
            let mut path = PathScratch::new();
            path.preallocate(n + 2, 2 * m + 2);
            let boundary = Vec::with_capacity(2 * m + 2);
            // Each live delta adds at least one path vertex.
            let mut marks = FrameLog::new();
            marks.preallocate(n + 1);
            let mut search = TwoTerminalSearch {
                terminals,
                ids: region.ids,
                doubled,
                path,
                boundary,
                current: Vec::with_capacity(n + 1),
                marks,
                baseline_allocs: 0,
            };
            search.baseline_allocs = search.usage().allocs;
            self.search = Some(TerminalSearch::TwoTerminals(Box::new(search)));
            return Ok(Prepared::Search);
        }
        // |W| ≥ 3: clean the region, split into admissible components.
        let mut is_terminal = vec![false; n];
        for &w in &terminals {
            is_terminal[w.index()] = true;
        }
        let mut gc = UndirectedGraph::with_capacity(n, m);
        let mut orig_edge = Vec::with_capacity(m);
        for e in (0..m).map(EdgeId::new) {
            let (u, v) = region.csr.endpoints(e);
            if is_terminal[u.index()] && is_terminal[v.index()] {
                continue; // Lemma 27: never part of a solution when |W| ≥ 3
            }
            gc.add_edge(u, v).expect("cleaned edge is valid");
            orig_edge.push(region.ids.global_edge(e));
        }
        let non_terminal_mask: Vec<bool> = (0..n).map(|v| !is_terminal[v]).collect();
        let comps = connected_components(&gc, Some(&non_terminal_mask));
        self.stats.preprocessing_work += (n + gc.num_edges()) as u64;
        let gc_csr = CsrUndirected::from_graph(&gc);
        let (w0, w1) = (terminals[0], terminals[1]);
        // Admissibility: W ⊆ N(C) (Lemma 27), for every component in one
        // pass over the terminals' edges: `covered[c]` counts the distinct
        // terminals adjacent to C (`last_cover[c]` skips a terminal's
        // repeat hits on the same component).
        let mut covered = vec![0usize; comps.count];
        let mut last_cover = vec![usize::MAX; comps.count];
        for (i, &w) in terminals.iter().enumerate() {
            for (u, _) in gc.neighbors(w) {
                if let Some(c) = comps.comp[u.index()] {
                    if last_cover[c as usize] != i {
                        last_cover[c as usize] = i;
                        covered[c as usize] += 1;
                    }
                }
            }
        }
        self.stats.preprocessing_work += (n + gc.num_edges()) as u64;
        let mut admissible = Vec::new();
        // Only admissible components get masks (W ⊄ N(C) leaves C without
        // solutions); each mask is n long, so building it from the
        // component labels costs no more than allocating it.
        for c in (0..comps.count).filter(|&c| covered[c] == terminals.len()) {
            let comp_mask: Vec<bool> = comps.comp.iter().map(|&x| x == Some(c as u32)).collect();
            // Bridges of G[C ∪ W] — fixed for the whole component (Lemma 30).
            let mut allowed_cw: Vec<bool> = comp_mask.clone();
            for &w in &terminals {
                allowed_cw[w.index()] = true;
            }
            let bridge = steiner_graph::bridges::bridges(&gc, Some(&allowed_cw));
            let mut allowed01 = comp_mask.clone();
            allowed01[w0.index()] = true;
            allowed01[w1.index()] = true;
            admissible.push(ComponentCtx {
                comp_mask,
                allowed01,
                bridge,
            });
        }
        if admissible.is_empty() {
            return Ok(Prepared::Empty);
        }
        let num_edges = gc_csr.num_edges();
        let gc_doubled = Arc::new(CsrDigraph::doubled(&gc));
        let mut completion = CompletionScratch::default();
        completion.preallocate(n, num_edges);
        let mut beyond = BeyondScratch::default();
        beyond.preallocate(n, num_edges);
        let mut aug = AugScratch::default();
        aug.preallocate(n, num_edges);
        let mut trail = Trail::new();
        trail.preallocate(2 * n + 2);
        let mut pool = Vec::with_capacity(terminals.len() + 2);
        for _ in 0..terminals.len() + 2 {
            let mut bs = BranchScratch::default();
            bs.preallocate(n, num_edges);
            pool.push(bs);
        }
        let mut t = PartialTree::new(n, &terminals, None);
        t.vertices.reserve(n + 1);
        t.edges.reserve(n + 1);
        let mut span = DynamicSpanning::new();
        span.preallocate(n, 2 * num_edges);
        // One frame for w₀ plus one per live path delta, each owning at
        // least one vertex of V(T): never more than n + 1 at once.
        let mut frames = FrameLog::new();
        frames.preallocate(n + terminals.len() + 3);
        let mut search = ComponentSearch {
            terminals,
            gc: gc_csr,
            gc_doubled,
            orig_edge,
            comps: admissible,
            active: None,
            t,
            edge_in_t: vec![false; num_edges],
            trail,
            span,
            span_comp: None,
            frames,
            completion,
            beyond,
            seeds: Vec::with_capacity(n + 1),
            aug,
            pool,
            depth: 0,
            extra_allocs: 0,
            baseline_allocs: 0,
        };
        search.baseline_allocs = search.usage().allocs;
        self.search = Some(TerminalSearch::Components(Box::new(search)));
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

    fn classify(&mut self, _out: &mut Vec<EdgeId>) -> NodeStep<TerminalBranch> {
        let stats = &mut self.stats;
        match self
            .search
            .as_mut()
            .expect("prepare() runs before the search")
        {
            TerminalSearch::TwoTerminals(ts) => {
                if ts.current.is_empty() {
                    NodeStep::Branch(TerminalBranch::Root)
                } else {
                    NodeStep::Complete
                }
            }
            TerminalSearch::Components(cs) => {
                let Some(active) = cs.active else {
                    return NodeStep::Branch(TerminalBranch::Root);
                };
                let terminals = &cs.terminals;
                if cs.t.complete() {
                    return NodeStep::Complete;
                }
                if cs.span_comp == Some(active) {
                    // Incremental fast path: a missing terminal reached
                    // over the component's bridge skeleton (sourced from
                    // V(T) ∩ C, with terminals as barriers) has a unique
                    // valid path — an all-bridge path avoiding other
                    // terminals internally is the only one (the Lemma 16
                    // argument inside G[C ∪ {w}]). If every missing
                    // terminal is reached, the completion is unique and
                    // equals the recorded forced paths. O(|W| + |answer|).
                    stats.work += terminals.len() as u64;
                    let span = &mut cs.span;
                    let in_tree = &cs.t.in_tree;
                    let orig_edge = &cs.orig_edge;
                    _out.extend(cs.t.edges.iter().map(|e| orig_edge[e.index()]));
                    let all_forced = span.collect_all_forced(
                        terminals,
                        |v| in_tree[v.index()],
                        |e| _out.push(orig_edge[e as usize]),
                    );
                    if all_forced {
                        stats.classify_incremental += 1;
                        stats.work += _out.len() as u64;
                        #[cfg(debug_assertions)]
                        {
                            // Cross-check against the fresh completion
                            // pass: T′ must carry no non-bridge extension
                            // edge and equal the collected set.
                            let mut dummy = 0u64;
                            minimal_completion_csr(
                                &cs.gc,
                                &cs.comps[active].comp_mask,
                                terminals,
                                &cs.t,
                                &mut cs.seeds,
                                &mut cs.completion,
                                &mut dummy,
                            );
                            debug_assert!(
                                cs.completion.edges.iter().all(|e| cs.edge_in_t[e.index()]
                                    || cs.comps[active].bridge[e.index()]),
                                "incremental Unique verdict disagrees with the fresh pass"
                            );
                            let mut got = _out.clone();
                            got.sort_unstable();
                            let mut want: Vec<EdgeId> = cs
                                .completion
                                .edges
                                .iter()
                                .map(|e| cs.orig_edge[e.index()])
                                .collect();
                            want.sort_unstable();
                            debug_assert_eq!(
                                got, want,
                                "incremental unique completion differs from T′"
                            );
                        }
                        return NodeStep::Unique;
                    }
                    _out.clear();
                }
                stats.classify_rebuilds += 1;
                let ctx = &cs.comps[active];
                minimal_completion_csr(
                    &cs.gc,
                    &ctx.comp_mask,
                    terminals,
                    &cs.t,
                    &mut cs.seeds,
                    &mut cs.completion,
                    &mut stats.work,
                );
                let tprime = &cs.completion.edges;
                // Fast certificate (Lemma 30 direction that *is* sound): if
                // every edge of E(T') ∖ E(T) is a bridge of G[C ∪ W], the
                // completion is unique.
                let candidate = tprime
                    .iter()
                    .copied()
                    .find(|e| !cs.edge_in_t[e.index()] && !ctx.bridge[e.index()]);
                let branch_terminal = match candidate {
                    None => None,
                    Some(e_star) => {
                        // Primary candidate: the terminal behind the
                        // non-bridge edge; verified exactly, with a fallback
                        // scan over the remaining missing terminals (the
                        // Lemma 30 erratum case).
                        let primary = find_terminal_beyond_csr(
                            &cs.gc,
                            tprime,
                            e_star,
                            &cs.t.in_tree,
                            &cs.t.is_terminal,
                            &mut cs.beyond,
                            &mut stats.work,
                        );
                        if has_two_valid_paths(
                            &cs.gc,
                            &ctx.comp_mask,
                            &cs.t,
                            primary,
                            &mut cs.aug,
                            &mut stats.work,
                        ) {
                            Some(primary)
                        } else {
                            terminals
                                .iter()
                                .copied()
                                .filter(|&v| !cs.t.in_tree[v.index()] && v != primary)
                                .find(|&w| {
                                    has_two_valid_paths(
                                        &cs.gc,
                                        &ctx.comp_mask,
                                        &cs.t,
                                        w,
                                        &mut cs.aug,
                                        &mut stats.work,
                                    )
                                })
                        }
                    }
                };
                match branch_terminal {
                    Some(w) => NodeStep::Branch(TerminalBranch::Terminal(w)),
                    // No terminal branches: the completion is unique.
                    None => {
                        _out.extend(cs.completion.edges.iter().map(|e| cs.orig_edge[e.index()]));
                        NodeStep::Unique
                    }
                }
            }
        }
    }

    fn solution(&self, out: &mut Vec<EdgeId>) {
        match self
            .search
            .as_ref()
            .expect("prepare() runs before the search")
        {
            TerminalSearch::TwoTerminals(ts) => {
                debug_assert!(!ts.current.is_empty(), "emitting inside the root branch");
                out.extend_from_slice(&ts.current);
                ts.ids.globalize(out);
            }
            TerminalSearch::Components(cs) => {
                out.extend(cs.t.edges.iter().map(|e| cs.orig_edge[e.index()]));
            }
        }
    }

    fn seal_stats(&mut self) {
        if let Some(search) = &self.search {
            let (usage, baseline) = match search {
                TerminalSearch::TwoTerminals(ts) => (ts.usage(), ts.baseline_allocs),
                TerminalSearch::Components(cs) => {
                    self.stats.note_connectivity(cs.span.repair_stats());
                    (cs.usage(), cs.baseline_allocs)
                }
            };
            self.stats
                .note_scratch(ScratchUsage::new(usage.allocs - baseline, usage.bytes));
        }
    }

    fn record_subtree(&self) -> Option<SubtreeRecord<EdgeId>> {
        match self.search.as_ref()? {
            TerminalSearch::TwoTerminals(ts) => Some(SubtreeRecord {
                vertices: Vec::new(),
                items: ts.current.clone(),
                meta: 0,
            }),
            TerminalSearch::Components(cs) => Some(SubtreeRecord {
                vertices: cs.t.vertices.clone(),
                items: cs.t.edges.clone(),
                meta: cs.active.expect("recording inside a branch descent") as u64,
            }),
        }
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<EdgeId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.work += (self.size.0 + self.size.1) as u64;
        let two_terminal = matches!(self.search.as_ref(), Some(TerminalSearch::TwoTerminals(_)));
        if two_terminal {
            let ts = self.two_terminal_mut();
            debug_assert!(ts.current.is_empty(), "replays start at the root");
            ts.current.extend_from_slice(&record.items);
            let flow = child(self);
            self.two_terminal_mut().current.clear();
            flow
        } else {
            let cs = self.components_mut();
            cs.active = Some(record.meta as usize);
            // The record is V(T) as a stack: skip what T already holds
            // (nothing at the root, where T is empty).
            let held = cs.t.vertices.len();
            debug_assert_eq!(record.vertices[..held], cs.t.vertices[..]);
            self.descend(&record.vertices[held..], record.items.iter().copied());
            let flow = child(self);
            self.retract_frame();
            self.components_mut().active = None;
            flow
        }
    }

    fn branch(
        &mut self,
        at: TerminalBranch,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        match at {
            TerminalBranch::Root => self.branch_root(child),
            TerminalBranch::Terminal(w) => self.branch_terminal(w, child),
        }
    }
}

impl TerminalSteinerTree<'_> {
    /// The component-mode search state; panics outside |W| ≥ 3 mode
    /// (the mode is fixed by `prepare()`).
    fn components_mut(&mut self) -> &mut ComponentSearch {
        match self.search.as_mut() {
            Some(TerminalSearch::Components(cs)) => cs,
            _ => unreachable!("component mode is fixed by prepare()"),
        }
    }

    /// The |W| = 2 search state; panics outside two-terminal mode.
    fn two_terminal_mut(&mut self) -> &mut TwoTerminalSearch {
        match self.search.as_mut() {
            Some(TerminalSearch::TwoTerminals(ts)) => ts,
            _ => unreachable!("two-terminal mode is fixed by prepare()"),
        }
    }

    /// Takes the depth-`d` branch scratch out of the component pool,
    /// growing the pool if the recursion outruns the preallocation.
    fn take_branch_scratch(&mut self) -> (BranchScratch, usize) {
        let cs = self.components_mut();
        let depth = cs.depth;
        if cs.pool.len() <= depth {
            cs.extra_allocs += 1;
            let mut fresh = BranchScratch::default();
            fresh.preallocate(cs.gc.num_vertices(), cs.gc.num_edges());
            cs.pool.push(fresh);
        }
        cs.depth = depth + 1;
        (std::mem::take(&mut cs.pool[depth]), depth)
    }

    fn put_branch_scratch(&mut self, bs: BranchScratch, depth: usize) {
        let cs = self.components_mut();
        cs.pool[depth] = bs;
        cs.depth = depth;
    }

    /// Rebuilds the connectivity skeleton for component `ci` (bridges of
    /// `G[C ∪ W]`, terminals as barriers) if it currently describes a
    /// different component. Component switches only happen at the root,
    /// with an empty partial tree, so no reach state needs migrating.
    fn ensure_span(&mut self, ci: usize) {
        let cs = self.components_mut();
        if cs.span_comp == Some(ci) {
            return;
        }
        debug_assert!(
            cs.t.vertices.is_empty(),
            "the skeleton only switches components at the root"
        );
        let n = cs.gc.num_vertices();
        cs.span.begin_skeleton(n);
        for &w in &cs.terminals {
            cs.span.set_barrier(w);
        }
        let bridge = &cs.comps[ci].bridge;
        for (i, _) in bridge.iter().enumerate().filter(|(_, &b)| b) {
            let (u, v) = cs.gc.endpoints(EdgeId::new(i));
            cs.span.add_edge(u, v, i as u32);
        }
        cs.span.finish_skeleton();
        cs.span_comp = Some(ci);
        self.stats.work += (n + cs.gc.num_edges()) as u64;
    }

    /// The descend half of the branch protocol (component mode): extends
    /// the partial tree by part of a valid path — `vertices` are the new
    /// vertices, `edges` the edges reaching them — records the edge-mask
    /// trail, and pushes the combined typed frame. Shared by the path
    /// deltas of the branches and by replayed subtrees.
    fn descend(&mut self, vertices: &[VertexId], edges: impl IntoIterator<Item = EdgeId>) {
        let ci = self
            .components_mut()
            .active
            .expect("descend runs inside an active component");
        self.ensure_span(ci);
        let cs = self.components_mut();
        let edges_mark = cs.t.edges.len();
        let ext = cs.t.extend(vertices, edges);
        let trail = cs.trail.mark();
        for &e in &cs.t.edges[edges_mark..] {
            cs.trail.set(&mut cs.edge_in_t, e.index());
        }
        // The partial-tree mask doubles as the query layer's source
        // oracle; nothing else to maintain on descent.
        let span = cs.span.mark();
        cs.frames.push(TermFrame { ext, trail, span });
    }

    /// The |W| = 2 descend: appends a path delta's edges to `current`.
    fn extend_current(&mut self, _vertices: &[VertexId], arcs: &[ArcId]) {
        let ts = self.two_terminal_mut();
        ts.marks.push(ts.current.len());
        ts.current.extend(doubled_edges(arcs));
    }

    /// The |W| = 2 undo half of [`Self::extend_current`].
    fn retract_current(&mut self) {
        let ts = self.two_terminal_mut();
        let mark = ts.marks.pop();
        ts.current.truncate(mark);
    }

    /// The undo half: pops the innermost frame and restores every layer.
    fn retract_frame(&mut self) {
        let cs = self.components_mut();
        let frame = cs.frames.pop();
        cs.span.undo_to(frame.span);
        cs.trail.undo_to(&mut cs.edge_in_t, frame.trail);
        cs.t.retract(frame.ext);
    }

    /// Root expansion: |W| = 2 branches on the `w₀`-`w₁` paths of `G`;
    /// |W| ≥ 3 on the `w₀`-`w₁` paths inside `G[C ∪ {w₀, w₁}]` of every
    /// admissible component.
    fn branch_root(
        &mut self,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        let (w0, w1) = {
            let terminals = self
                .search
                .as_ref()
                .expect("prepare() runs before the search")
                .terminals();
            (terminals[0], terminals[1])
        };
        let mut run = BranchRun::new();
        match self
            .search
            .as_ref()
            .expect("prepare() runs before the search")
        {
            TerminalSearch::TwoTerminals(_) => {
                let per_child = (self.size.0 + self.size.1) as u64;
                let (mut path, mut boundary, doubled) = {
                    let ts = self.two_terminal_mut();
                    (
                        std::mem::take(&mut ts.path),
                        std::mem::take(&mut ts.boundary),
                        Arc::clone(&ts.doubled),
                    )
                };
                path.begin(doubled.num_vertices() + 1);
                let sources = [w0];
                let pstats = enumerate_source_set_paths_csr(
                    &doubled,
                    &sources,
                    w1,
                    &mut path,
                    &mut boundary,
                    &mut |delta| {
                        run.follow(
                            self,
                            delta,
                            per_child,
                            Self::extend_current,
                            Self::retract_current,
                            child,
                        )
                    },
                );
                self.stats.path_gen_work += pstats.work;
                self.stats.fstp_cache_misses += pstats.activations;
                let ts = self.two_terminal_mut();
                ts.path = path;
                ts.boundary = boundary;
            }
            TerminalSearch::Components(cs) => {
                let num_comps = cs.comps.len();
                let n = cs.gc.num_vertices();
                let per_child = (n + cs.gc.num_edges()) as u64;
                let doubled = Arc::clone(&cs.gc_doubled);
                let (mut bs, depth) = self.take_branch_scratch();
                for ci in 0..num_comps {
                    // Case (1): the w₀-w₁ paths inside G[C ∪ {w₀, w₁}],
                    // using the component's precomputed mask.
                    {
                        let cs = self.components_mut();
                        let removed = bs.path.begin(n + 1);
                        for (v, r) in removed.iter_mut().enumerate().take(n) {
                            *r = !cs.comps[ci].allowed01[v];
                        }
                        bs.sources.clear();
                        bs.sources.push(w0);
                        cs.active = Some(ci);
                    }
                    let BranchScratch {
                        path,
                        boundary,
                        sources,
                    } = &mut bs;
                    // The path deltas never name the source w₀, and T
                    // starts empty: put w₀ in T for the whole component.
                    self.descend(&[w0], std::iter::empty());
                    let pstats = enumerate_source_set_paths_csr(
                        &doubled,
                        sources,
                        w1,
                        path,
                        boundary,
                        &mut |delta| {
                            run.follow(
                                self,
                                delta,
                                per_child,
                                |p, vertices, arcs| p.descend(vertices, doubled_edges(arcs)),
                                Self::retract_frame,
                                child,
                            )
                        },
                    );
                    self.retract_frame();
                    self.stats.path_gen_work += pstats.work;
                    self.stats.fstp_cache_misses += pstats.activations;
                    if run.flow.is_break() {
                        break;
                    }
                }
                self.put_branch_scratch(bs, depth);
                self.components_mut().active = None;
            }
        }
        (run.children, run.flow)
    }

    /// Valid paths for `(T, w)`: `(V(T) ∖ W)`-`w` paths inside
    /// `G[C ∪ {w}]`.
    fn branch_terminal(
        &mut self,
        w: VertexId,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        let (mut bs, depth) = self.take_branch_scratch();
        let (doubled, per_child) = {
            let cs = self.components_mut();
            let ctx = &cs.comps[cs.active.expect("active component set by the root branch")];
            let n = cs.gc.num_vertices();
            // Sources: V(T) ∩ C; excluded vertices: outside C ∪ {w}.
            let removed = bs.path.begin(n + 1);
            for (v, r) in removed.iter_mut().enumerate().take(n) {
                *r = !(ctx.comp_mask[v] || VertexId::new(v) == w);
            }
            bs.sources.clear();
            bs.sources.extend(
                cs.t.vertices
                    .iter()
                    .copied()
                    .filter(|v| ctx.comp_mask[v.index()]),
            );
            (Arc::clone(&cs.gc_doubled), (n + cs.gc.num_edges()) as u64)
        };
        self.stats.work += per_child;
        let mut run = BranchRun::new();
        let BranchScratch {
            path,
            boundary,
            sources,
        } = &mut bs;
        let pstats =
            enumerate_source_set_paths_csr(&doubled, sources, w, path, boundary, &mut |delta| {
                run.follow(
                    self,
                    delta,
                    per_child,
                    |p, vertices, arcs| p.descend(vertices, doubled_edges(arcs)),
                    Self::retract_frame,
                    child,
                )
            });
        self.stats.path_gen_work += pstats.work;
        self.stats.fstp_cache_misses += pstats.activations;
        self.put_branch_scratch(bs, depth);
        debug_assert!(
            run.children >= 2 || run.flow.is_break(),
            "Lemma 30 guarantees two valid paths behind a non-bridge edge"
        );
        (run.children, run.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::solver::Enumeration;
    use std::collections::BTreeSet;

    fn collect(g: &UndirectedGraph, w: &[VertexId]) -> BTreeSet<Vec<EdgeId>> {
        let mut out = BTreeSet::new();
        Enumeration::new(TerminalSteinerTree::new(g, w))
            .for_each(|edges| {
                assert!(out.insert(edges.to_vec()), "duplicate solution {edges:?}");
                ControlFlow::Continue(())
            })
            .expect("valid instance");
        out
    }

    #[test]
    fn two_terminals_are_paths() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let w = [VertexId(0), VertexId(2)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn direct_terminal_edge_counts_for_two() {
        let g = UndirectedGraph::from_edges(2, &[(0, 1)]).unwrap();
        let got = collect(&g, &[VertexId(0), VertexId(1)]);
        assert_eq!(got.len(), 1, "single edge is a valid 2-terminal solution");
    }

    #[test]
    fn star_with_three_terminals() {
        // Center 0, terminals 1, 2, 3: the star is the unique solution.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let w = [VertexId(1), VertexId(2), VertexId(3)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn terminal_terminal_edges_are_ignored() {
        // Terminals 1, 2, 3 around center 0, plus edge {1, 2} which no
        // solution may use (Lemma 27).
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let w = [VertexId(1), VertexId(2), VertexId(3)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
        for sol in &got {
            assert!(!sol.contains(&EdgeId(3)));
        }
    }

    #[test]
    fn multiple_components_enumerate_separately() {
        // Terminals 0, 1, 2; two internal "hubs" 3 and 4, each adjacent to
        // all terminals: two disjoint component solutions.
        let g = UndirectedGraph::from_edges(5, &[(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
            .unwrap();
        let w = [VertexId(0), VertexId(1), VertexId(2)];
        let got = collect(&g, &w);
        assert_eq!(got, brute::minimal_terminal_steiner_trees(&g, &w));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn prepare_is_linear_in_the_number_of_components() {
        // A 4×6 grid whose terminals split G[V ∖ W] into two admissible
        // components, plus 20 000 isolated vertices: each is a component
        // of its own, none admissible. Preparing must cost one pass over
        // the graph, not one per component, and the stream is the bare
        // grid's.
        let grid = steiner_graph::generators::grid(4, 6);
        let w = [VertexId(2), VertexId(9), VertexId(14), VertexId(21)];
        let mut padded = UndirectedGraph::new(grid.num_vertices() + 20_000);
        for e in grid.edges() {
            let (u, v) = grid.endpoints(e);
            padded.add_edge(u, v).unwrap();
        }
        let stream = |g: &UndirectedGraph| {
            let mut out = Vec::new();
            let (run, stats) = Enumeration::new(TerminalSteinerTree::new(g, &w)).with_stats();
            run.for_each(|edges| {
                out.push(edges.to_vec());
                ControlFlow::Continue(())
            })
            .unwrap();
            (out, stats.get().preprocessing_work)
        };
        let (want, _) = stream(&grid);
        let (got, preprocessing_work) = stream(&padded);
        assert!(!want.is_empty());
        assert_eq!(got, want, "isolated vertices change no solution");
        let size = (padded.num_vertices() + padded.num_edges()) as u64;
        assert!(
            preprocessing_work <= 4 * size,
            "preprocessing_work {preprocessing_work} > 4·(n+m) = {}",
            4 * size
        );
    }

    #[test]
    fn single_terminal_has_no_solutions() {
        let g = UndirectedGraph::from_edges(2, &[(0, 1)]).unwrap();
        let trees = Enumeration::new(TerminalSteinerTree::new(&g, &[VertexId(0)]))
            .collect_vec()
            .unwrap();
        assert!(trees.is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e51);
        for case in 0..60 {
            let n = 4 + case % 5;
            let m = (n + rng.gen_range(0..5)).min(n * (n - 1) / 2);
            let g = steiner_graph::generators::random_connected_graph(n, m, &mut rng);
            let t = 2 + rng.gen_range(0..3usize).min(n - 2);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            assert_eq!(
                collect(&g, &w),
                brute::minimal_terminal_steiner_trees(&g, &w),
                "graph {g:?} terminals {w:?}"
            );
        }
    }

    #[test]
    fn outputs_verify_minimal_terminal() {
        let g = steiner_graph::generators::grid(3, 4);
        let w = [VertexId(0), VertexId(3), VertexId(8)];
        let mut count = 0;
        Enumeration::new(TerminalSteinerTree::new(&g, &w))
            .for_each(|edges| {
                count += 1;
                assert!(crate::verify::is_minimal_terminal_steiner_tree(
                    &g, &w, edges
                ));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert!(count > 0);
    }

    #[test]
    fn queued_matches_direct() {
        let g = steiner_graph::generators::grid(3, 4);
        let w = [VertexId(0), VertexId(3), VertexId(8)];
        let direct = collect(&g, &w);
        let mut queued = BTreeSet::new();
        Enumeration::new(TerminalSteinerTree::new(&g, &w))
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
        let g = steiner_graph::generators::grid(3, 4);
        let w = [VertexId(0), VertexId(3), VertexId(8)];
        let direct = collect(&g, &w);
        let iterated: BTreeSet<Vec<EdgeId>> =
            Enumeration::new(TerminalSteinerTree::from_graph(g, &w))
                .into_iter()
                .unwrap()
                .collect();
        assert_eq!(direct, iterated);
    }

    #[test]
    fn search_does_not_allocate_after_prepare() {
        for w in [
            vec![VertexId(0), VertexId(11)],
            vec![VertexId(0), VertexId(3), VertexId(8)],
        ] {
            let g = steiner_graph::generators::grid(3, 4);
            let (run, stats) = Enumeration::new(TerminalSteinerTree::new(&g, &w)).with_stats();
            run.run().unwrap();
            let stats = stats.get();
            assert!(stats.solutions > 0);
            assert_eq!(
                stats.scratch_allocs, 0,
                "terminals {w:?}: the search must not allocate after prepare()"
            );
            assert!(stats.peak_scratch_bytes > 0);
        }
    }

    #[test]
    fn deprecated_shims_still_work() {
        // The shims are gone; the engine still runs through a caller's
        // own sink.
        use crate::queue::DirectSink;
        use crate::solver::run_with_sink;
        let g = steiner_graph::generators::grid(3, 4);
        let w = [VertexId(0), VertexId(3), VertexId(8)];
        let new_api = collect(&g, &w);
        let mut via_sink = BTreeSet::new();
        let mut sink = |edges: &[EdgeId]| {
            via_sink.insert(edges.to_vec());
            ControlFlow::Continue(())
        };
        run_with_sink(
            &mut TerminalSteinerTree::new(&g, &w),
            &mut DirectSink { sink: &mut sink },
        )
        .expect("valid instance");
        assert_eq!(new_api, via_sink);
    }
}
