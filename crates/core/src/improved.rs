//! The improved minimal-Steiner-tree enumerator (§4.2, Theorems 17 & 20),
//! exposed as the [`SteinerTree`] problem type for the generic
//! [`crate::solver::Enumeration`] engine.
//!
//! The simple Algorithm 2 can build long chains of single-child nodes. The
//! improvement guarantees **every internal node has at least two
//! children**:
//!
//! * Lemma 16: a `V(T)`-`w` path is the unique one iff all its edges are
//!   bridges of `G` — and bridges of `G` do not depend on `T`, so they are
//!   computed **once** in preprocessing.
//! * Per node, grow any minimal completion `T′ ⊇ T` (spanning tree +
//!   Proposition 3 pruning, O(n + m)), then scan `E(T′) ∖ E(T)` for a
//!   non-bridge edge. If none exists, `T′` is the *unique* minimal Steiner
//!   tree containing `T`: emit it and close the node as a leaf. Otherwise a
//!   terminal `w` behind the non-bridge edge has ≥ 2 valid paths: branch on
//!   it.
//!
//! `prepare` works on the terminals' region — the connected component
//! every solution lies in ([`steiner_graph::region`]): one DFS gives the
//! connectivity verdict, the region and its bridges, and the search runs
//! in region ids, mapped back to graph ids at emission. So `n` and `m`
//! below are the component's.
//!
//! With the ≥2-children invariant, internal nodes never outnumber leaves,
//! so total work is O((n + m) · #solutions) — amortized O(n + m) each
//! (Theorem 17). Running the enumeration through
//! [`Enumeration::with_queue`](crate::solver::Enumeration::with_queue)
//! yields the worst-case delay bound of Theorem 20 at O(n²) space.

use crate::partial::{Extension, PartialTree};
use crate::problem::{
    BranchRun, MinimalSteinerProblem, NodeStep, Prepared, SteinerError, SubtreeRecord,
};
use crate::stats::EnumStats;
use crate::trail::{FrameLog, ScratchUsage};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::Arc;
use steiner_graph::csr::{bit_clear, bit_set, bit_test, IncidenceCsr};
use steiner_graph::spanning::{
    grow_spanning_tree_csr, prune_leaves_csr, CompletionScratch, DynamicSpanning,
};
use steiner_graph::{
    ArcId, CsrDigraph, CsrUndirected, EdgeId, Region, RegionIds, UndirectedGraph, VertexId,
};
use steiner_paths::enumerate::PathScratch;
use steiner_paths::stsets::enumerate_source_set_paths_csr;

/// The minimal Steiner tree problem (§4): find all inclusion-minimal
/// subtrees of `g` spanning `terminals`.
///
/// ```
/// use steiner_core::{Enumeration, SteinerTree};
/// use steiner_graph::{UndirectedGraph, VertexId};
///
/// // Triangle; connect vertices 0 and 1: the direct edge or the detour.
/// let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// let trees = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(1)]))
///     .collect_vec()
///     .unwrap();
/// assert_eq!(trees.len(), 2);
/// ```
pub struct SteinerTree<'g> {
    g: Cow<'g, UndirectedGraph>,
    terminals: Vec<VertexId>,
    /// `(n, m)` of the query region once `prepare` has run (of the whole
    /// graph before).
    size: (usize, usize),
    stats: EnumStats,
    search: Option<TreeSearch>,
}

/// The typed checkpoint frame of one descent (one path delta): the
/// partial-tree extension, restored on backtrack.
struct TreeFrame {
    ext: Extension,
    /// `E(T)` stack length before this descent — the frame's edges are
    /// the stack suffix from here, used to roll back `edge_words`.
    edges_mark: usize,
}

/// Mutable search state installed by `prepare`. Everything the hot path
/// touches is preallocated here: `classify`/`branch` never allocate.
struct TreeSearch {
    /// The terminals, sorted, in region ids.
    terminals: Vec<VertexId>,
    /// Region ids back to graph ids, for emission.
    ids: RegionIds,
    t: PartialTree,
    /// Edge membership in `E(T)` as a word-packed bitset, kept in sync by
    /// `descend`/`retract_frame` (which clears exactly the frame's edges
    /// of the `E(T)` stack): iterating its set bits in word order
    /// delivers `E(T)` already sorted, which is what lets `solution`
    /// skip the per-emission O(k log k) canonicalizing sort.
    edge_words: Vec<u64>,
    /// Bridges of `G` in the region, precomputed once (Lemma 16 is a
    /// property of `G`).
    bridge: Vec<bool>,
    /// The forced-path skeleton over the bridges of `G`: a terminal with
    /// a skeleton path to `V(T)` (queried with the partial tree's
    /// `in_tree` mask as the source oracle) has a **unique** valid path
    /// (Lemma 16), so a node whose missing terminals are all forced is a
    /// Unique leaf — classified without a spanning-growth pass.
    span: DynamicSpanning,
    /// Typed checkpoint frames of the active descent (LIFO).
    frames: FrameLog<TreeFrame>,
    /// Flat CSR view of the region (built once).
    csr: CsrUndirected,
    /// Doubled CSR digraph of the region for `V(T)`-`w` path enumeration
    /// (built once; shared with the nested branch levels, hence the
    /// `Arc`).
    doubled: Arc<CsrDigraph>,
    /// Minimal-completion scratch (spanning growth + leaf pruning).
    completion: CompletionScratch,
    /// Branch-target search scratch.
    beyond: BeyondScratch,
    /// One path-enumeration scratch per branch depth (`branch` is
    /// re-entrant through the engine's recursion).
    pool: Vec<BranchScratch>,
    /// Current branch nesting depth (indexes `pool`).
    depth: usize,
    /// Growth events outside the component scratches (pool growth).
    extra_allocs: u64,
    /// Scratch-allocation baseline at the end of `prepare()`.
    baseline_allocs: u64,
}

/// Per-branch-depth reusable state: the path enumerator's scratch, the
/// virtual-source boundary buffer, and the source-set snapshot. Shared
/// with the terminal-Steiner variant.
#[derive(Default)]
pub(crate) struct BranchScratch {
    pub(crate) path: PathScratch,
    pub(crate) boundary: Vec<(VertexId, ArcId)>,
    pub(crate) sources: Vec<VertexId>,
}

/// The undirected edges of arcs of a [`CsrDigraph::doubled`] view (arcs
/// `2e` and `2e + 1` both represent edge `e`).
pub(crate) fn doubled_edges(arcs: &[ArcId]) -> impl Iterator<Item = EdgeId> + '_ {
    arcs.iter().map(|a| EdgeId::new(a.index() / 2))
}

impl BranchScratch {
    pub(crate) fn preallocate(&mut self, n: usize, m: usize) {
        self.path.preallocate(n + 2, 2 * m + 2);
        if self.boundary.capacity() < 2 * m + 2 {
            self.boundary.reserve(2 * m + 2 - self.boundary.capacity());
        }
        if self.sources.capacity() < n + 1 {
            self.sources.reserve(n + 1 - self.sources.capacity());
        }
    }

    pub(crate) fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.path.alloc_events(),
            self.path.capacity_bytes()
                + (self.boundary.capacity() * std::mem::size_of::<(VertexId, ArcId)>()
                    + self.sources.capacity() * std::mem::size_of::<VertexId>())
                    as u64,
        )
    }
}

/// Reusable buffers for [`find_terminal_beyond_csr`] (shared with the
/// terminal-Steiner variant).
#[derive(Default)]
pub(crate) struct BeyondScratch {
    inc: IncidenceCsr,
    seen: Vec<bool>,
    stack: Vec<VertexId>,
    allocs: u64,
}

impl BeyondScratch {
    pub(crate) fn preallocate(&mut self, n: usize, max_edges: usize) {
        self.inc.preallocate(n, max_edges);
        if self.seen.capacity() < n {
            self.seen.reserve(n - self.seen.capacity());
        }
        if self.stack.capacity() < n {
            self.stack.reserve(n - self.stack.capacity());
        }
    }

    pub(crate) fn usage(&self) -> ScratchUsage {
        ScratchUsage::new(
            self.allocs + self.inc.alloc_events(),
            self.inc.capacity_bytes()
                + (self.seen.capacity() * std::mem::size_of::<bool>()
                    + self.stack.capacity() * std::mem::size_of::<VertexId>())
                    as u64,
        )
    }
}

impl TreeSearch {
    fn usage(&self) -> ScratchUsage {
        let pool: ScratchUsage = self.pool.iter().map(|b| b.usage()).sum();
        self.frames.usage()
            + ScratchUsage::new(
                self.csr.alloc_events() + self.doubled.alloc_events(),
                self.csr.capacity_bytes() + self.doubled.capacity_bytes(),
            )
            + ScratchUsage::new(
                self.completion.alloc_events(),
                self.completion.capacity_bytes(),
            )
            + ScratchUsage::new(self.span.alloc_events(), self.span.capacity_bytes())
            + self.beyond.usage()
            + pool
            + ScratchUsage::new(self.extra_allocs, 0)
    }
}

impl<'g> SteinerTree<'g> {
    /// A problem instance borrowing the graph (zero-copy; use
    /// [`Self::from_graph`] or [`Self::into_owned`] for the iterator
    /// front-end, which needs `'static` data).
    pub fn new(g: &'g UndirectedGraph, terminals: &[VertexId]) -> Self {
        SteinerTree {
            g: Cow::Borrowed(g),
            terminals: terminals.to_vec(),
            size: (g.num_vertices(), g.num_edges()),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// A problem instance owning the graph.
    pub fn from_graph(g: UndirectedGraph, terminals: &[VertexId]) -> SteinerTree<'static> {
        SteinerTree {
            size: (g.num_vertices(), g.num_edges()),
            g: Cow::Owned(g),
            terminals: terminals.to_vec(),
            stats: EnumStats::default(),
            search: None,
        }
    }

    /// Clones the borrowed graph (if any) so the instance becomes
    /// `'static` and can move to the iterator front-end's worker thread.
    pub fn into_owned(self) -> SteinerTree<'static> {
        SteinerTree {
            g: Cow::Owned(self.g.into_owned()),
            terminals: self.terminals,
            size: self.size,
            stats: self.stats,
            search: self.search,
        }
    }
}

impl MinimalSteinerProblem for SteinerTree<'_> {
    type Item = EdgeId;
    type Branch = VertexId;

    const NAME: &'static str = "minimal Steiner tree";

    /// `solution` scans the `edge_words` membership bitset in word
    /// order (or sorts the rare stack-copy fallback itself), so every
    /// branch delivers ascending edge ids and the engine's per-emission
    /// canonicalizing sort is a no-op worth skipping.
    const SORTED_SOLUTIONS: bool = true;

    fn validate(&self) -> Result<(), SteinerError> {
        crate::problem::validate_terminal_list(&self.terminals, self.g.num_vertices())
    }

    fn split_root(&self) -> Option<Self> {
        // A fresh copy of the instance data; the worker prepares it
        // itself and the engine applies the root-child filter.
        Some(SteinerTree {
            g: self.g.clone(),
            terminals: self.terminals.clone(),
            size: self.size,
            stats: EnumStats::default(),
            search: None,
        })
    }

    fn cache_key(&self) -> Option<crate::cache::CacheKey> {
        // `prepare` sorts the terminals, so the stream never depends on
        // the caller's order: fingerprint the sorted form and permuted
        // repeats of the same query share one cache entry.
        let mut sorted = self.terminals.clone();
        sorted.sort_unstable();
        // Every solution lies in the terminals' connected components, so
        // the key pins exactly those regions: mutations elsewhere leave
        // the entry valid (and the cache retains it across epochs). Only
        // those regions are labeled, not every component of the graph.
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
        // Every solution lies in the terminals' component: one DFS from
        // them gives the connectivity verdict, the region the search runs
        // on, and the region's bridges. It is charged as the connectivity
        // and bridge passes it does the work of, O(n + m) each.
        let region = Region::around(&self.g, &self.terminals);
        self.size = region.size();
        let (n, m) = self.size;
        self.stats.preprocessing_work = 2 * (n + m) as u64;
        if !region.connects(0..self.terminals.len()) {
            return Err(SteinerError::DisconnectedTerminals { set: 0 });
        }
        if self.terminals.len() == 1 {
            // The empty tree on the terminal itself is the unique solution.
            return Ok(Prepared::Single(Vec::new()));
        }
        let terminals: Vec<VertexId> = self.terminals.iter().map(|&w| region.local(w)).collect();
        let Region {
            csr, bridge, ids, ..
        } = region;
        let t = PartialTree::new(n, &terminals, Some(terminals[0]));
        // Build the flat views once and size every scratch buffer now, so
        // the search never allocates (asserted via `scratch_allocs`).
        let doubled = Arc::new(CsrDigraph::doubled_from_csr(&csr));
        let mut completion = CompletionScratch::default();
        completion.preallocate(n, m);
        let mut beyond = BeyondScratch::default();
        beyond.preallocate(n, m);
        // The forced-edge skeleton: the bridges of G, attached from V(T)
        // as the search grows the partial tree. Built once; the root seed
        // is attached here so the root node already reads component state.
        let mut span = DynamicSpanning::new();
        span.preallocate(n, 2 * m);
        span.begin_skeleton(n);
        for (i, _) in bridge.iter().enumerate().filter(|(_, &b)| b) {
            let (u, v) = csr.endpoints(EdgeId::new(i));
            span.add_edge(u, v, i as u32);
        }
        span.finish_skeleton();
        // One frame per live path delta, and each owns at least one vertex
        // of V(T): the descent never holds more than n of them.
        let mut frames = FrameLog::new();
        frames.preallocate(n + terminals.len() + 2);
        let mut pool = Vec::with_capacity(terminals.len() + 1);
        for _ in 0..terminals.len() + 1 {
            let mut bs = BranchScratch::default();
            bs.preallocate(n, m);
            pool.push(bs);
        }
        let mut search = TreeSearch {
            terminals,
            ids,
            t,
            edge_words: vec![0u64; m.div_ceil(64)],
            bridge,
            span,
            frames,
            csr,
            doubled,
            completion,
            beyond,
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

    fn classify(&mut self, out: &mut Vec<EdgeId>) -> NodeStep<VertexId> {
        let stats = &mut self.stats;
        let search = self
            .search
            .as_mut()
            .expect("prepare() runs before the search");
        let terminals = &search.terminals;
        if search.t.complete() {
            return NodeStep::Complete;
        }
        // Incremental fast path: a missing terminal reached over the
        // bridge skeleton has a *unique* valid path (Lemma 16 — an
        // all-bridge V(T)-w path is the only one), so if every missing
        // terminal is reached the completion is unique and its edges are
        // exactly the recorded forced paths. No spanning-growth pass,
        // O(|W| + |answer|).
        stats.work += terminals.len() as u64;
        let span = &mut search.span;
        let in_tree = &search.t.in_tree;
        out.extend_from_slice(&search.t.edges);
        let all_forced = span.collect_all_forced(
            terminals,
            |v| in_tree[v.index()],
            |e| out.push(EdgeId::new(e as usize)),
        );
        if all_forced {
            stats.classify_incremental += 1;
            stats.work += out.len() as u64;
            #[cfg(debug_assertions)]
            {
                // Cross-check the incremental verdict against a fresh
                // spanning-growth pass: the grown-and-pruned T′ must
                // carry no non-bridge extension edge and equal the
                // collected completion as a set.
                grow_spanning_tree_csr(
                    &search.csr,
                    &search.t.vertices,
                    &search.t.edges,
                    None,
                    &mut search.completion,
                );
                let is_terminal = &search.t.is_terminal;
                let in_tree = &search.t.in_tree;
                prune_leaves_csr(
                    &search.csr,
                    |v| is_terminal[v.index()] || in_tree[v.index()],
                    &mut search.completion,
                );
                debug_assert!(
                    search.completion.edges.iter().all(|e| {
                        bit_test(&search.edge_words, e.index()) || search.bridge[e.index()]
                    }),
                    "incremental Unique verdict disagrees with the fresh pass"
                );
                let mut got = out.clone();
                got.sort_unstable();
                let mut want = search.completion.edges.clone();
                want.sort_unstable();
                debug_assert_eq!(got, want, "incremental unique completion differs from T′");
            }
            search.ids.globalize(out);
            return NodeStep::Unique;
        }
        // Some terminal has ≥ 2 valid paths: the node branches, and
        // reproducing the seed engine's branch target requires its
        // completion-order scan — fall through to the full pass.
        out.clear();
        stats.classify_rebuilds += 1;
        // Minimal completion T' ⊇ T: spanning tree + Proposition 3 pruning,
        // in the preallocated completion scratch.
        grow_spanning_tree_csr(
            &search.csr,
            &search.t.vertices,
            &search.t.edges,
            None,
            &mut search.completion,
        );
        stats.work += (search.csr.num_vertices() + search.csr.num_edges()) as u64;
        let is_terminal = &search.t.is_terminal;
        let in_tree = &search.t.in_tree;
        prune_leaves_csr(
            &search.csr,
            |v| is_terminal[v.index()] || in_tree[v.index()],
            &mut search.completion,
        );
        let tprime = &search.completion.edges;
        // A non-bridge edge of T' ∖ T ⇒ some missing terminal has ≥2 paths.
        let candidate = tprime
            .iter()
            .copied()
            .find(|e| !bit_test(&search.edge_words, e.index()) && !search.bridge[e.index()]);
        match candidate {
            // T' is the unique minimal Steiner tree containing T (Lemma 16).
            None => {
                out.extend_from_slice(tprime);
                search.ids.globalize(out);
                NodeStep::Unique
            }
            Some(e_star) => NodeStep::Branch(find_terminal_beyond_csr(
                &search.csr,
                tprime,
                e_star,
                &search.t.in_tree,
                &search.t.is_terminal,
                &mut search.beyond,
                &mut stats.work,
            )),
        }
    }

    fn solution(&self, out: &mut Vec<EdgeId>) {
        let search = self
            .search
            .as_ref()
            .expect("prepare() runs before the search");
        // `edge_words` is an exact membership bitset of `E(T)`, so
        // iterating its set bits in word order delivers the solution
        // already sorted and the driver's canonicalizing sort degenerates
        // to one linear ascending-run pass. An O(k log k) sort of k
        // unordered tree edges costs more than the O(m/64 + k) scan
        // unless the tree is much smaller than the region, so fall back
        // to the plain stack copy (and a sort) there. Either way the
        // region ids map back to graph ids monotonically, so the
        // solution stays sorted.
        let k = search.t.edges.len();
        if search.edge_words.len() <= 8 * k.max(1) {
            for (wi, &w0) in search.edge_words.iter().enumerate() {
                let mut w = w0;
                while w != 0 {
                    out.push(EdgeId::new((wi << 6) + w.trailing_zeros() as usize));
                    w &= w - 1;
                }
            }
            debug_assert_eq!(out.len(), k);
        } else {
            out.extend_from_slice(&search.t.edges);
            out.sort_unstable();
        }
        search.ids.globalize(out);
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

    fn record_subtree(&self) -> Option<SubtreeRecord<EdgeId>> {
        let search = self.search.as_ref()?;
        Some(SubtreeRecord {
            vertices: search.t.vertices.clone(),
            items: search.t.edges.clone(),
            meta: 0,
        })
    }

    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<EdgeId>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.work += (self.size.0 + self.size.1) as u64;
        // The record is V(T) as a stack, so it starts with the vertices
        // the root state already holds (the seed terminal).
        let t = &self.search.as_ref().expect("search state").t;
        let held = t.vertices.len();
        debug_assert_eq!(record.vertices[..held], t.vertices[..]);
        self.descend(&record.vertices[held..], record.items.iter().copied());
        let flow = child(self);
        self.retract_frame();
        flow
    }

    fn branch(
        &mut self,
        w: VertexId,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>) {
        let per_child = (self.size.0 + self.size.1) as u64;
        self.stats.work += per_child;
        // Take this depth's scratch out of the pool so the enumeration can
        // borrow it while the sink mutates `self` (deeper branches use
        // deeper pool entries).
        let (mut bs, doubled, depth) = {
            let search = self
                .search
                .as_mut()
                .expect("prepare() runs before the search");
            let depth = search.depth;
            if search.pool.len() <= depth {
                search.extra_allocs += 1;
                let mut fresh = BranchScratch::default();
                fresh.preallocate(search.csr.num_vertices(), search.csr.num_edges());
                search.pool.push(fresh);
            }
            search.depth = depth + 1;
            let mut bs = std::mem::take(&mut search.pool[depth]);
            // Snapshot V(T) — the source set of this branch's valid paths —
            // before the children mutate it.
            bs.sources.clear();
            bs.sources.extend_from_slice(&search.t.vertices);
            bs.path.begin(search.csr.num_vertices() + 1);
            (bs, Arc::clone(&search.doubled), depth)
        };
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
        let search = self.search.as_mut().expect("search state");
        search.pool[depth] = bs;
        search.depth = depth;
        debug_assert!(
            run.children >= 2 || run.flow.is_break(),
            "improved enumeration tree: internal nodes have ≥ 2 children"
        );
        (run.children, run.flow)
    }
}

impl SteinerTree<'_> {
    /// The descend half of the branch protocol: extends the partial tree
    /// by part of a valid path — `vertices` are the new vertices (none is
    /// in `V(T)` yet), `edges` the edges reaching them — marks the edges
    /// in `edge_words`, and pushes the typed frame. Shared verbatim by
    /// the path deltas of `branch` and by replayed subtrees, which is
    /// what keeps the two byte-identical.
    fn descend(&mut self, vertices: &[VertexId], edges: impl IntoIterator<Item = EdgeId>) {
        let search = self.search.as_mut().expect("search state");
        let edges_mark = search.t.edges.len();
        let ext = search.t.extend(vertices, edges);
        for &e in &search.t.edges[edges_mark..] {
            bit_set(&mut search.edge_words, e.index());
        }
        // The partial-tree mask updated above doubles as the forced-path
        // skeleton's source oracle, so the descent itself costs the
        // skeleton nothing.
        search.frames.push(TreeFrame { ext, edges_mark });
    }

    /// The undo half: pops the innermost frame and restores every layer.
    fn retract_frame(&mut self) {
        let search = self.search.as_mut().expect("search state");
        let frame = search.frames.pop();
        for &e in &search.t.edges[frame.edges_mark..] {
            bit_clear(&mut search.edge_words, e.index());
        }
        search.t.retract(frame.ext);
    }
}

/// Finds a terminal not yet in the partial tree on the far side of
/// `e_star` within the tree `tprime` (the side not containing the partial
/// tree). Such a terminal exists whenever `e_star ∈ E(T′) ∖ E(T)` (§4.2);
/// shared with the terminal-Steiner variant. Allocation-free: all state
/// lives in `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_terminal_beyond_csr(
    g: &CsrUndirected,
    tprime: &[EdgeId],
    e_star: EdgeId,
    in_tree: &[bool],
    is_terminal: &[bool],
    scratch: &mut BeyondScratch,
    work: &mut u64,
) -> VertexId {
    let n = g.num_vertices();
    scratch.inc.rebuild(n, tprime, |e| g.endpoints(e));
    let (a, b) = g.endpoints(e_star);
    // Explore the side of `a`; if it touches the partial tree, the far
    // side is `b`'s. T′ is a tree, so exactly one side avoids V(T).
    for start in [a, b] {
        steiner_graph::csr::grow(&mut scratch.seen, n, false, &mut scratch.allocs);
        scratch.stack.clear();
        scratch.seen[start.index()] = true;
        scratch.stack.push(start);
        let mut has_tree_vertex = false;
        let mut missing: Option<VertexId> = None;
        while let Some(u) = scratch.stack.pop() {
            if in_tree[u.index()] {
                has_tree_vertex = true;
            }
            if missing.is_none() && is_terminal[u.index()] && !in_tree[u.index()] {
                missing = Some(u);
            }
            for &e in scratch.inc.incident(u) {
                *work += 1;
                if e == e_star {
                    continue;
                }
                let v = g.other_endpoint(e, u);
                if !scratch.seen[v.index()] {
                    scratch.seen[v.index()] = true;
                    scratch.stack.push(v);
                }
            }
        }
        if !has_tree_vertex {
            return missing.expect("the far side of a T'∖T edge contains a missing terminal");
        }
    }
    unreachable!("one side of a tree edge avoids the partial tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::solver::Enumeration;
    use std::collections::BTreeSet;

    fn collect(g: &UndirectedGraph, w: &[VertexId]) -> (BTreeSet<Vec<EdgeId>>, EnumStats) {
        let mut out = BTreeSet::new();
        let stats = Enumeration::new(SteinerTree::new(g, w))
            .for_each(|edges| {
                assert!(out.insert(edges.to_vec()), "duplicate solution {edges:?}");
                ControlFlow::Continue(())
            })
            .expect("valid instance");
        (out, stats)
    }

    #[test]
    fn triangle_matches_brute() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let w = [VertexId(0), VertexId(1)];
        let (got, _) = collect(&g, &w);
        assert_eq!(got, brute::minimal_steiner_trees(&g, &w));
    }

    #[test]
    fn unique_completion_on_a_tree() {
        // On a tree there is exactly one minimal Steiner tree; the
        // enumerator must find it without branching.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        let w = [VertexId(0), VertexId(4), VertexId(2)];
        let (got, stats) = collect(&g, &w);
        assert_eq!(got.len(), 1);
        assert_eq!(stats.nodes, 1, "single leaf node: unique completion");
        assert_eq!(got, brute::minimal_steiner_trees(&g, &w));
    }

    #[test]
    fn every_internal_node_has_two_children() {
        let g = steiner_graph::generators::grid(3, 4);
        let w = [VertexId(0), VertexId(11), VertexId(5)];
        let (got, stats) = collect(&g, &w);
        assert!(!got.is_empty());
        assert_eq!(stats.deficient_internal_nodes, 0, "Theorem 17 invariant");
        assert!(stats.internal_nodes <= stats.leaf_nodes);
        assert_eq!(stats.leaf_nodes, stats.solutions);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1dea);
        for case in 0..60 {
            let n = 3 + case % 5;
            let m = (n - 1 + rng.gen_range(0..5)).min(n * (n - 1) / 2);
            let g = steiner_graph::generators::random_connected_graph(n, m, &mut rng);
            let t = 1 + rng.gen_range(0..n.min(4));
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            let (got, stats) = collect(&g, &w);
            assert_eq!(
                got,
                brute::minimal_steiner_trees(&g, &w),
                "graph {g:?} terminals {w:?}"
            );
            assert_eq!(
                stats.deficient_internal_nodes, 0,
                "graph {g:?} terminals {w:?}"
            );
        }
    }

    #[test]
    fn matches_simple_enumerator() {
        use crate::simple::enumerate_minimal_steiner_trees_simple;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf00d);
        for _ in 0..30 {
            let n = 4 + rng.gen_range(0..5usize);
            let g = steiner_graph::generators::random_connected_graph(n, n + 2, &mut rng);
            let t = 2 + rng.gen_range(0..3usize).min(n - 2);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            let (fast, _) = collect(&g, &w);
            let mut simple = BTreeSet::new();
            enumerate_minimal_steiner_trees_simple(&g, &w, &mut |edges| {
                simple.insert(edges.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(fast, simple, "graph {g:?} terminals {w:?}");
        }
    }

    #[test]
    fn queued_mode_emits_same_solutions() {
        let g = steiner_graph::generators::theta_chain(3, 3);
        let w = [VertexId(0), VertexId(3)];
        let (direct, _) = collect(&g, &w);
        let mut queued = BTreeSet::new();
        Enumeration::new(SteinerTree::new(&g, &w))
            .with_default_queue()
            .for_each(|edges| {
                assert!(queued.insert(edges.to_vec()));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(direct, queued);
        assert_eq!(direct.len(), 27, "theta chain: width^blocks trees");
    }

    #[test]
    fn all_outputs_verify_minimal() {
        let g = steiner_graph::generators::grid(3, 3);
        let w = [VertexId(0), VertexId(8), VertexId(2)];
        Enumeration::new(SteinerTree::new(&g, &w))
            .for_each(|edges| {
                assert!(crate::verify::is_minimal_steiner_tree(&g, &w, edges));
                ControlFlow::Continue(())
            })
            .unwrap();
    }

    #[test]
    fn break_stops_enumeration() {
        let g = steiner_graph::generators::theta_chain(5, 3);
        let mut count = 0;
        Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(5)]))
            .for_each(|_| {
                count += 1;
                if count == 7 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(count, 7);
    }

    #[test]
    fn limit_front_end_stops_early() {
        let g = steiner_graph::generators::theta_chain(5, 3);
        let n = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(5)]))
            .with_limit(7)
            .count()
            .unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn iterator_front_end_streams_all_solutions() {
        let g = steiner_graph::generators::theta_chain(3, 3);
        let w = [VertexId(0), VertexId(3)];
        let (direct, _) = collect(&g, &w);
        let iterated: BTreeSet<Vec<EdgeId>> = Enumeration::new(SteinerTree::from_graph(g, &w))
            .into_iter()
            .unwrap()
            .collect();
        assert_eq!(direct, iterated);
    }

    #[test]
    fn search_does_not_allocate_after_prepare() {
        for (g, w) in [
            (
                steiner_graph::generators::grid(3, 4),
                vec![VertexId(0), VertexId(11), VertexId(5)],
            ),
            (
                steiner_graph::generators::theta_chain(5, 3),
                vec![VertexId(0), VertexId(5)],
            ),
        ] {
            let (run, stats) = Enumeration::new(SteinerTree::new(&g, &w)).with_stats();
            run.run().unwrap();
            let stats = stats.get();
            assert!(stats.solutions > 0);
            assert_eq!(
                stats.scratch_allocs, 0,
                "terminals {w:?}: the search must not allocate after prepare()"
            );
            assert!(stats.peak_scratch_bytes > 0, "scratch accounting is live");
        }
    }

    #[test]
    fn deprecated_shims_still_work() {
        // The shims are gone; what they wrapped stays public: the engine
        // run through a caller's own sink, direct or queued.
        use crate::queue::{DirectSink, OutputQueue, QueueConfig};
        use crate::solver::run_with_sink;
        let g = steiner_graph::generators::theta_chain(3, 3);
        let w = [VertexId(0), VertexId(3)];
        let (new_api, _) = collect(&g, &w);
        let mut direct = BTreeSet::new();
        let mut sink = |edges: &[EdgeId]| {
            direct.insert(edges.to_vec());
            ControlFlow::Continue(())
        };
        run_with_sink(
            &mut SteinerTree::new(&g, &w),
            &mut DirectSink { sink: &mut sink },
        )
        .expect("valid instance");
        assert_eq!(new_api, direct);
        let mut queued = BTreeSet::new();
        let mut sink = |edges: &[EdgeId]| {
            queued.insert(edges.to_vec());
            ControlFlow::Continue(())
        };
        let config = QueueConfig::for_graph(g.num_vertices(), g.num_edges());
        run_with_sink(
            &mut SteinerTree::new(&g, &w),
            &mut OutputQueue::new(config, &mut sink),
        )
        .expect("valid instance");
        assert_eq!(new_api, queued);
    }
}
