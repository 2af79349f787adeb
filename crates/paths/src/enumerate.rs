//! Algorithm 1: linear-delay directed *s*-*t* path enumeration.
//!
//! Structure of the implementation, mirroring the paper (§3):
//!
//! * `fstp_prepare` — the reverse BFS of the subroutine
//!   `F-STP(D′, s′, t, e, f)`: one flood from `t` avoiding the masked
//!   vertices, the banned arc `e`, and `s′` itself, over `u64`-word
//!   bitset frontiers. Its result depends only on the mask, `s′` and
//!   `t`, so it is cached per recursion level under a Zobrist signature
//!   of the mask and reused by any activation — in this run or a later
//!   run on the same graph — whose admissible graph is identical.
//!   Deterministic, O(n + m) on a miss.
//! * `extendible_indices` — Lemma 11: given the freshly found continuation
//!   `Q = (v₁ … v_k)`, decide for every `i ∈ [2, k−1]` whether the prefix
//!   `Q_i` is *extendible with P* (i.e. `D[V ∖ (V(P∘Q_i) ∖ {v_i})] −
//!   (v_i, v_{i+1})` still has a `v_i`-`t` path). The sweep walks `i`
//!   downward while the admissible graph only grows, maintaining the
//!   reach-`t` flags `r(·)` monotonically — O(n + m) for the whole sweep.
//! * `e_stp` — the recursion `E-STP(P, e, d, t)` with the alternating
//!   output rule (pre-order at even depth, post-order at odd depth).
//!   Each activation reconstructs all its `F-STP` answers (one per
//!   admissible out-arc of `s′`, in the order `≺_{s′}`) in one pass from
//!   the cached BFS tree, then recurses into them in that order.
//!
//! The current path `P` lives in global state, exactly as in the paper's
//! space analysis: the engine keeps it only as the removal mask (every
//! vertex of `P` but its tip is masked) and the tip, and the **sink keeps
//! the rest**. Instead of copying `P ∘ Q` for every output, the engine
//! reports its path incrementally as [`PathDelta`]s: `Extend` when a
//! child activation appends a prefix `Q_i` to `P`, `Retract` when it
//! returns, and `Path` with `Q` after its first vertex (`P`'s tip) for
//! each solution. A consumer that mirrors `P` therefore pays O(|Q|) per
//! solution, not O(|P ∘ Q|); [`crate::visit::WholePaths`] rebuilds whole
//! paths for callers that want them (every `enumerate_directed_st_paths*`
//! entry point goes through it). Each recursion frame's continuation `Q`
//! lives in a LIFO arena inside [`PathScratch`], so a warm scratch never
//! touches the allocator — the property the Steiner enumerators'
//! zero-allocation hot path builds on. The engine is generic over
//! [`PathView`], so it runs
//! unchanged over a [`DiGraph`], a flat [`CsrDigraph`], or a CSR digraph
//! extended with a *virtual super-source* ([`VirtualSourceView`]) whose
//! out-arcs are a caller-supplied boundary list — the trick that lets the
//! Steiner `branch()` implementations reuse one doubled CSR built in
//! `prepare()` instead of materializing a fresh super-source digraph per
//! node.

use crate::visit::{PathDelta, PathEvent, WholePaths};
use std::ops::ControlFlow;
use steiner_graph::csr::{
    bit_assign, bit_clear, bit_set, bit_take, bit_test, bit_words, bits_not, bits_not_or, mix64,
    push_tracked,
};
use steiner_graph::{ArcId, CsrDigraph, DiGraph, VertexId};

/// Counters reported by a finished (or stopped) enumeration.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PathEnumStats {
    /// Number of paths (`Path` deltas) handed to the sink.
    pub emitted: u64,
    /// Algorithmic work units (≈ arcs/vertices touched); the empirical
    /// stand-in for the paper's O(n + m)-per-solution accounting.
    pub work: u64,
    /// `F-STP` activations whose level cache already held the reverse
    /// BFS for the current `(mask signature, s′, t)` key — reuse across
    /// activations and across runs on the same graph.
    pub fstp_cache_hits: u64,
    /// `F-STP` activations that had to (re)run the reverse BFS.
    pub fstp_cache_misses: u64,
}

/// Options for [`enumerate_directed_st_paths_with`]: the Lemma 11
/// ablation switch.
#[derive(Copy, Clone, Debug)]
pub struct EnumerateOptions {
    /// Use the Lemma 11 *incremental* reachability sweep (O(n + m) for all
    /// prefixes of a continuation together). When `false`, extendibility
    /// is recomputed from scratch per prefix — O(k(n + m)) per
    /// continuation of length k — which is the design choice the paper's
    /// §3 revision of Read–Tarjan eliminates. Exposed for the ablation
    /// bench (`cargo bench -p steiner-bench --bench ablation`); the
    /// stream is the same either way.
    pub incremental_extendibility: bool,
}

impl Default for EnumerateOptions {
    fn default() -> Self {
        EnumerateOptions {
            incremental_extendibility: true,
        }
    }
}

/// Per-vertex Zobrist hash for the removal-mask signature. Seeded so that
/// vertex 0 gets a nonzero hash (the raw splitmix64 finalizer maps 0 to
/// 0, which would make vertex 0 invisible to the signature).
#[inline]
fn vsig(v: usize) -> u64 {
    mix64(v as u64 ^ 0x9e37_79b9_7f4a_7c15)
}

/// The adjacency interface the Algorithm-1 engine runs on. Implemented by
/// [`DiGraph`], [`CsrDigraph`], and [`VirtualSourceView`].
pub trait PathView {
    /// Number of vertices (including any virtual source).
    fn num_vertices(&self) -> usize;
    /// Arcs leaving `v` as a packed `(head, arc)` slice. The slice order
    /// is the total order `≺_v` of the paper's `F-STP`.
    fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)];
    /// Arcs entering `v` as a packed `(tail, arc)` slice.
    fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)];
    /// `(tail, head)` of arc `a`.
    fn arc(&self, a: ArcId) -> (VertexId, VertexId);
    /// Head of arc `a`.
    #[inline]
    fn head(&self, a: ArcId) -> VertexId {
        self.arc(a).1
    }
    /// Tail of arc `a`.
    #[inline]
    fn tail(&self, a: ArcId) -> VertexId {
        self.arc(a).0
    }
}

impl PathView for DiGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        DiGraph::num_vertices(self)
    }
    #[inline]
    fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        DiGraph::out_adjacency(self, v)
    }
    #[inline]
    fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        DiGraph::in_adjacency(self, v)
    }
    #[inline]
    fn arc(&self, a: ArcId) -> (VertexId, VertexId) {
        DiGraph::arc(self, a)
    }
}

impl PathView for CsrDigraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrDigraph::num_vertices(self)
    }
    #[inline]
    fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        CsrDigraph::out_adjacency(self, v)
    }
    #[inline]
    fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        CsrDigraph::in_adjacency(self, v)
    }
    #[inline]
    fn arc(&self, a: ArcId) -> (VertexId, VertexId) {
        CsrDigraph::arc(self, a)
    }
}

/// A CSR digraph extended with one virtual vertex (`source`, id `n`) whose
/// out-adjacency is the caller-supplied `boundary` slice of **real** arcs.
/// All arc ids are base-graph arc ids, so no translation tables are
/// needed; the virtual source has no in-arcs.
pub struct VirtualSourceView<'a> {
    /// The host CSR digraph.
    pub base: &'a CsrDigraph,
    /// Out-arcs of the virtual source: `(head, arc)` with the arc's real
    /// tail inside the caller's source set.
    pub boundary: &'a [(VertexId, ArcId)],
    /// The virtual source id (`base.num_vertices()`).
    pub source: VertexId,
}

impl PathView for VirtualSourceView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices() + 1
    }
    #[inline]
    fn out_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        if v == self.source {
            self.boundary
        } else {
            self.base.out_adjacency(v)
        }
    }
    #[inline]
    fn in_adjacency(&self, v: VertexId) -> &[(VertexId, ArcId)] {
        if v == self.source {
            &[]
        } else {
            self.base.in_adjacency(v)
        }
    }
    #[inline]
    fn arc(&self, a: ArcId) -> (VertexId, VertexId) {
        self.base.arc(a)
    }
}

/// Reusable state for one (possibly nested) enumeration: masks, the
/// per-level reverse-BFS caches, and the LIFO arena holding each
/// activation's continuations `Q`. Size it once with
/// [`PathScratch::preallocate`]; afterwards enumerations record any buffer
/// growth in [`PathScratch::alloc_events`] (a warm scratch reports zero).
///
/// One scratch serves one enumeration at a time; nested enumerations (a
/// sink that starts another enumeration, as the Steiner `branch()`
/// recursion does) need one scratch per nesting level.
#[derive(Clone, Debug, Default)]
pub struct PathScratch {
    removed: Vec<bool>,
    /// `u64`-word mirror of `removed`, rebuilt at run start and
    /// maintained by every engine mask write thereafter.
    removed_bits: Vec<u64>,
    /// Zobrist XOR-fold of [`vsig`] over the removed vertices — the
    /// incrementally maintained removal-mask signature that keys the
    /// cross-branch `F-STP` cache. XOR-folding makes it
    /// history-independent: a balanced mask/unmask pair restores it.
    sig: u64,
    /// Per-vertex Zobrist hash table (`vsigs[v] = vsig(v)`), so the
    /// per-toggle signature update is a load+xor instead of a mix64
    /// evaluation.
    vsigs: Vec<u64>,
    /// The transient candidate frontier `¬removed ∧ ¬reached` shared by
    /// every BFS and extendibility sweep. Fusing the two exclusion tests
    /// into one bitset makes the per-arc probe a single [`bit_take`]; the
    /// buffer is dead between uses, so one instance serves every
    /// recursion level.
    cand: Vec<u64>,
    /// Epoch-stamped reach-`t` flags of the naive extendibility ablation.
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<VertexId>,
    /// Per-recursion-level reverse-BFS caches: the `F-STP` BFS depends
    /// only on the mask, `s′` and `t` — fixed across one node's siblings
    /// — so each `E-STP` level computes it at most once per activation.
    /// Level-local slices keep deeper recursion from clobbering the
    /// cache. This is the small per-level metadata; the arrays live in
    /// the strided arenas below.
    levels: Vec<LevelMeta>,
    /// Vertex count the level arenas are strided for: level `d` owns
    /// `[d·stride, (d+1)·stride)` of `level_next_arc` and
    /// `[d·⌈stride/64⌉, (d+1)·⌈stride/64⌉)` of `level_admissible`.
    stride: usize,
    /// Each level's reverse-BFS tree.
    level_next_arc: Vec<ArcId>,
    /// Each level's `reached ∧ ¬removed` bitset at BFS time — the legal
    /// heads for the admissible-first-arc scan (derived from the
    /// candidate frontier left over by the BFS, so no separate reached
    /// bitset is stored).
    level_admissible: Vec<u64>,
    /// Continuation arena: frame `Q`s live at `[v_start..v_start + len]`.
    qv: Vec<VertexId>,
    qa: Vec<ArcId>,
    /// Extendible-index arena (same LIFO discipline).
    ext: Vec<u32>,
    /// Per-activation sibling-run frames (LIFO per batch).
    frames: Vec<QFrame>,
    allocs: u64,
}

/// One recursion level's `F-STP` cache state; its arrays are the level's
/// slices of the [`PathScratch`] arenas, keyed by `(key_sig, key_s1,
/// key_t)`. The banned arc is *not* part of the key because its tail is
/// always `s′` (it is the arc the activation arrived on), which the BFS
/// masks regardless, so the BFS tree is independent of it.
///
/// The flag is only ever set after the slices it vouches for were filled
/// in, and a re-stride drops every level's metadata together with the
/// arenas, so a valid flag never points at an unfilled slice.
#[derive(Copy, Clone, Debug, Default)]
struct LevelMeta {
    /// Cache key: removal-mask signature at BFS time.
    key_sig: u64,
    /// Cache key: `s′` (masked during the BFS, hence part of the key
    /// rather than the signature).
    key_s1: u32,
    /// Cache key: the BFS target `t` — constant within one run, but the
    /// cache deliberately survives across runs sharing the scratch, and
    /// a later run may aim at a different target over the same mask.
    key_t: u32,
    /// Whether the cache (and its key) is populated.
    valid: bool,
}

/// Cap on the number of per-level reverse-BFS caches that
/// [`PathScratch::preallocate`] reserves arena space for. Deeper
/// recursion levels grow the arenas on demand (each growth is counted in
/// [`PathScratch::alloc_events`]), so the cap bounds reserved address
/// space — not the reachable recursion depth.
const LEVEL_CACHE_CAP: usize = 512;

/// Fills in level `depth`'s `width`-element slice of a strided level
/// arena and hands it back. Levels are reached in recursion order, so a
/// level's slice starts where its predecessor's ends, and the first
/// visit extends the arena by a resize — within the capacity
/// [`PathScratch::preallocate`] reserved for levels under the cap (no
/// allocation event), past it a counted growth.
#[inline]
fn level_slice<'a, T: Copy>(
    arena: &'a mut Vec<T>,
    depth: usize,
    width: usize,
    fill: T,
    allocs: &mut u64,
) -> &'a mut [T] {
    let end = (depth + 1) * width;
    if arena.len() < end {
        if arena.capacity() < end {
            *allocs += 1;
        }
        arena.resize(end, fill);
    }
    &mut arena[depth * width..end]
}

impl PathScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Sizes every buffer for a graph with `n` vertices (including any
    /// virtual source) and `m` arcs, so subsequent enumerations do not
    /// allocate on instances whose recursion stays within 512 levels.
    /// The per-level BFS caches live in two flat arenas (an `n`-word
    /// array and a `⌈n/64⌉`-word bitset per level) whose capacity is
    /// reserved here once, for `min(n + 2, 512)` levels; a level's slice
    /// is only filled in when the recursion first reaches it, so a
    /// shallow query touches a few levels' worth of memory, not the
    /// reservation. The arenas are
    /// **not** sized for the worst case of the recursion (one level per
    /// frame — O(n) levels of O(n) words each, the same O(n²) order as
    /// the paper's output-queue space bound): levels past the cap grow
    /// the arenas on demand, counted in [`Self::alloc_events`].
    pub fn preallocate(&mut self, n: usize, m: usize) {
        self.preallocate_capped(n, m, LEVEL_CACHE_CAP);
    }

    /// As [`Self::preallocate`] with an explicit cap on the number of
    /// levels the BFS-cache arenas reserve. A small cap never changes
    /// results or reachable depth; deep runs just grow the arenas on
    /// demand.
    fn preallocate_capped(&mut self, n: usize, m: usize, level_cache_cap: usize) {
        self.removed
            .reserve(n.saturating_sub(self.removed.capacity()));
        let nw = bit_words(n);
        self.removed_bits
            .reserve(nw.saturating_sub(self.removed_bits.capacity()));
        self.cand.reserve(nw.saturating_sub(self.cand.capacity()));
        self.vsigs.reserve(n.saturating_sub(self.vsigs.capacity()));
        self.stamp.reserve(n.saturating_sub(self.stamp.capacity()));
        self.queue.reserve(n.saturating_sub(self.queue.capacity()));
        let depth_cap = (n + 2).min(level_cache_cap.max(1));
        self.levels
            .reserve(depth_cap.saturating_sub(self.levels.len()));
        self.level_next_arc
            .reserve((depth_cap * n).saturating_sub(self.level_next_arc.len()));
        self.level_admissible
            .reserve((depth_cap * nw).saturating_sub(self.level_admissible.len()));
        // Each activation materializes its whole sibling run up front:
        // one continuation per recursion level (O(n²) arena entries at
        // worst) plus a degree-weighted term bounded by the arcs incident
        // to the (distinct) path tips — hence the m-proportional slack on
        // `qv`/`qa`.
        let arena = ((n + 2) * (n + 2)).min(1 << 18);
        let q_arena = ((n + 2) * (n + 2) + 32 * (m + 2)).min(1 << 18);
        self.qv.reserve(q_arena.saturating_sub(self.qv.capacity()));
        self.qa.reserve(q_arena.saturating_sub(self.qa.capacity()));
        self.ext.reserve(arena.saturating_sub(self.ext.capacity()));
        // One frame per admissible sibling; the tips along one recursion
        // chain are distinct vertices, so the chain total is ≤ m + n.
        let f_arena = (n + m + 8).min(1 << 16);
        self.frames
            .reserve(f_arena.saturating_sub(self.frames.capacity()));
    }

    /// Resets the removal mask to `n` unmasked vertices and returns it for
    /// the caller to mark sources / disallowed vertices before the run.
    ///
    /// Makes no assumption about the graph of the upcoming run, so the
    /// cross-run reverse-BFS caches are dropped — a cached BFS tree from
    /// a *different* graph that happens to match the signature key would
    /// reconstruct garbage. Callers that pin one graph per scratch should
    /// use [`Self::begin_same_graph`].
    pub fn begin(&mut self, n: usize) -> &mut [bool] {
        for lvl in &mut self.levels {
            lvl.valid = false;
        }
        self.begin_same_graph(n)
    }

    /// As [`Self::begin`], additionally promising that the arc structure
    /// (adjacency and arc ids) is unchanged since the previous run on
    /// this scratch. Under that promise the signature-keyed reverse-BFS
    /// caches survive across runs — the
    /// cross-branch reuse the Steiner enumerators lean on: two branch
    /// nodes with the same vertex set and target (common when distinct
    /// partial trees span the same vertices) replay each other's BFS
    /// trees instead of recomputing them.
    pub fn begin_same_graph(&mut self, n: usize) -> &mut [bool] {
        steiner_graph::csr::grow(&mut self.removed, n, false, &mut self.allocs);
        &mut self.removed
    }

    /// The removal mask prepared by [`Self::begin`] (which must have been
    /// called with the same `n` since the last run).
    pub fn removed_mask(&mut self, n: usize) -> &mut [bool] {
        assert_eq!(self.removed.len(), n, "call begin(n) before the run");
        &mut self.removed
    }

    /// Buffer-growth events since construction (zero on a warm scratch).
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Bytes of owned buffer capacity (scratch-space accounting). Counts
    /// the reserved level arenas in full, filled in or not.
    pub fn capacity_bytes(&self) -> u64 {
        (self.levels.capacity() * std::mem::size_of::<LevelMeta>()
            + self.removed.capacity() * std::mem::size_of::<bool>()
            + (self.removed_bits.capacity()
                + self.cand.capacity()
                + self.vsigs.capacity()
                + self.level_admissible.capacity())
                * std::mem::size_of::<u64>()
            + self.frames.capacity() * std::mem::size_of::<QFrame>()
            + (self.stamp.capacity() + self.ext.capacity()) * std::mem::size_of::<u32>()
            + (self.qa.capacity() + self.level_next_arc.capacity()) * std::mem::size_of::<ArcId>()
            + (self.queue.capacity() + self.qv.capacity()) * std::mem::size_of::<VertexId>())
            as u64
    }

    /// Grows the per-level metadata through `depth` (recording growth
    /// past the reserved capacity in [`Self::alloc_events`]) and hands
    /// the level back.
    ///
    /// Levels come into existence when the recursion first reaches them,
    /// so deep recursion can reach levels that do not exist yet. This is
    /// the **single** grow-at-access-site for the metadata: every reader
    /// of `levels[depth]` goes through here first, and every reader of a
    /// level's arena slice through [`level_slice`], so no access site can
    /// index a level that was never filled in.
    #[inline]
    fn level_mut(&mut self, depth: usize) -> &mut LevelMeta {
        if self.levels.len() <= depth {
            if self.levels.capacity() <= depth {
                self.allocs += 1;
            }
            self.levels.resize(depth + 1, LevelMeta::default());
        }
        &mut self.levels[depth]
    }

    /// Re-strides the level arenas for a run over `n` vertices, dropping
    /// every level (metadata and filled-in slices): a cache computed for
    /// another vertex count describes another graph. Keeps the reserved
    /// capacity, so the levels the new run reaches are filled in again
    /// without allocating.
    #[inline]
    fn restride(&mut self, n: usize) {
        if self.stride == n {
            return;
        }
        self.stride = n;
        self.levels.clear();
        self.level_next_arc.clear();
        self.level_admissible.clear();
    }

    /// Number of levels whose cache has been filled in since the last
    /// re-stride.
    #[cfg(test)]
    fn filled_levels(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    fn push_ext(&mut self, i: u32) {
        if self.ext.len() == self.ext.capacity() {
            self.allocs += 1;
        }
        self.ext.push(i);
    }
}

/// A continuation `Q = (v₁ … v_k)` living in the scratch arena.
#[derive(Copy, Clone, Debug)]
struct QFrame {
    /// Start of the `k` vertices in `scratch.qv`.
    v_start: usize,
    /// Start of the `k − 1` arcs in `scratch.qa`.
    a_start: usize,
    /// `k`.
    len: usize,
}

struct Engine<'v, 'x, V: PathView> {
    d: &'v V,
    t: VertexId,
    s: &'x mut PathScratch,
    options: EnumerateOptions,
    stats: PathEnumStats,
    sink: &'x mut dyn FnMut(PathDelta<'_>) -> ControlFlow<()>,
}

impl<V: PathView> Engine<'_, '_, V> {
    #[inline]
    fn qv(&self, q: QFrame, j: usize) -> VertexId {
        self.s.qv[q.v_start + j]
    }

    #[inline]
    fn qa(&self, q: QFrame, j: usize) -> ArcId {
        self.s.qa[q.a_start + j]
    }

    /// Writes `removed[v] = on`, keeping the mirror bitset and the
    /// Zobrist mask signature in sync. Every engine mask write is a
    /// strict toggle — prefixes mask distinct, currently unmasked
    /// vertices and the sweeps restore them exactly once — so the XOR
    /// fold stays a faithful set hash.
    #[inline]
    fn mask_removed(&mut self, v: VertexId, on: bool) {
        let s = &mut *self.s;
        debug_assert_ne!(s.removed[v.index()], on, "mask writes are toggles");
        s.removed[v.index()] = on;
        bit_assign(&mut s.removed_bits, v.index(), on);
        s.sig ^= s.vsigs[v.index()];
    }

    /// Ablation variant of [`Self::extendible_indices`]: recomputes the
    /// reach-`t` flags from scratch for every prefix — O(k(n + m)) per
    /// continuation instead of O(n + m). Identical results.
    fn extendible_indices_naive(&mut self, q: QFrame) {
        let k = q.len;
        if k < 3 {
            return;
        }
        for j in 0..=k - 3 {
            let v = self.qv(q, j);
            self.mask_removed(v, true);
        }
        let mut i = k - 1;
        loop {
            // Fresh reverse BFS from t in D_i, skipping b_i.
            let banned = self.qa(q, i - 1);
            self.s.epoch += 1;
            let ep = self.s.epoch;
            self.s.stamp[self.t.index()] = ep;
            self.s.queue.clear();
            self.s.queue.push(self.t);
            let mut head = 0;
            while head < self.s.queue.len() {
                let u = self.s.queue[head];
                head += 1;
                for &(z, a) in self.d.in_adjacency(u) {
                    self.stats.work += 1;
                    if a == banned || self.s.removed[z.index()] || self.s.stamp[z.index()] == ep {
                        continue;
                    }
                    self.s.stamp[z.index()] = ep;
                    self.s.queue.push(z);
                }
            }
            if self.s.stamp[self.qv(q, i - 1).index()] == ep {
                self.s.push_ext(i as u32);
            }
            if i == 2 {
                break;
            }
            let v = self.qv(q, i - 2);
            self.mask_removed(v, false);
            i -= 1;
        }
        let v0 = self.qv(q, 0);
        self.mask_removed(v0, false);
    }

    /// Settles the deferred vertex `w` — the banned arc's tail, held
    /// out of `cand` during a sweep flood so the flood needs no
    /// per-arc ban test. Because `w` was never a propagation source, no
    /// other vertex's reached flag can depend on `w`, so the flood's
    /// result is exactly "reaches `t` without going through `w`", and
    /// `w` itself reaches `t` iff some non-banned out-arc leads to a
    /// reached vertex (a simple `w`→`t` path visits `w` once, so the
    /// banned arc — which leaves `w` — could only ever be its first
    /// arc). Reached ⇒ leave `w` out of `cand` (reached ⇔ candidate
    /// and removed bits both clear) and propagate from it, again with
    /// no ban test; unreached ⇒ put `w` back into the candidate set.
    fn settle_deferred(&mut self, w: VertexId, banned: ArcId, work: &mut u64) {
        let mut reached = false;
        for &(y, a) in self.d.out_adjacency(w) {
            *work += 1;
            if a != banned
                && !bit_test(&self.s.cand, y.index())
                && !bit_test(&self.s.removed_bits, y.index())
            {
                reached = true;
                break;
            }
        }
        if !reached {
            bit_set(&mut self.s.cand, w.index());
            return;
        }
        self.s.queue.clear();
        self.s.queue.push(w);
        while let Some(x) = self.s.queue.pop() {
            for &(z, _) in self.d.in_adjacency(x) {
                *work += 1;
                if bit_take(&mut self.s.cand, z.index()) {
                    self.s.queue.push(z);
                }
            }
        }
    }

    /// Lemma 11 sweep: pushes onto the `ext` arena the descending list of
    /// indices `i ∈ [2, k−1]` whose prefix `Q_i` is extendible with `P`.
    ///
    /// The sweep probes the shared candidate frontier `cand = ¬removed ∧
    /// ¬reached`: stamping a vertex and excluding it from further probes
    /// are one [`bit_take`]; a vertex is *reached* iff its candidate and
    /// removed bits are both clear, which is what the transition steps
    /// and the extendibility test check. The buffer is seeded per frame
    /// in O(n/64) words from `removed_bits` (maintained by
    /// [`Self::mask_removed`]) and is dead again on return, so the BFS in
    /// [`Self::fstp_prepare`] can reuse it at any depth.
    fn extendible_indices(&mut self, q: QFrame) {
        let k = q.len;
        if k < 3 {
            return;
        }
        // Transient sweep masks touch only `removed_bits`: the sweep is
        // the sole reader of the mask until it returns, every mask it
        // sets is cleared again before then, and no cache-signature
        // lookup happens in between — so the byte mirror and the Zobrist
        // fold can be left untouched instead of updated ~2(k−2) times.
        #[inline]
        fn sweep_mask(bits: &mut [u64], v: VertexId, on: bool) {
            debug_assert_ne!(bit_test(bits, v.index()), on, "sweep masks are toggles");
            bit_assign(bits, v.index(), on);
        }
        // Mask v₁ … v_{k−2} (0-indexed 0..=k−3); v_{k−1} is the first tip.
        for j in 0..=k - 3 {
            let v = self.qv(q, j);
            sweep_mask(&mut self.s.removed_bits, v, true);
        }
        let t = self.t;
        {
            let s = &mut *self.s;
            bits_not(&mut s.cand, &s.removed_bits);
            // t is reached from the start.
            bit_clear(&mut s.cand, t.index());
        }
        // Initial reverse BFS from t in D_{k−1}, skipping b_{k−1}. Every
        // flood in this sweep bans exactly one arc, and that arc's tail
        // is the vertex under test — so instead of comparing every arc
        // against the ban, the tail is held out of `cand` for the whole
        // flood (no probe can take it) and settled afterwards by
        // [`Self::settle_deferred`]. The flood bodies are then pure
        // `bit_take` probes.
        let mut banned = self.qa(q, k - 2);
        let w0 = self.qv(q, k - 2);
        bit_clear(&mut self.s.cand, w0.index());
        let mut work = 0u64;
        self.s.queue.clear();
        self.s.queue.push(t);
        let mut head = 0;
        while head < self.s.queue.len() {
            let u = self.s.queue[head];
            head += 1;
            for &(z, _) in self.d.in_adjacency(u) {
                work += 1;
                if bit_take(&mut self.s.cand, z.index()) {
                    self.s.queue.push(z);
                }
            }
        }
        self.settle_deferred(w0, banned, &mut work);
        let mut i = k - 1;
        loop {
            // r(v_i): reached ⇔ candidate and removed bits both clear.
            let vi = self.qv(q, i - 1).index();
            if !bit_test(&self.s.cand, vi) && !bit_test(&self.s.removed_bits, vi) {
                self.s.push_ext(i as u32);
            }
            if i == 2 {
                break;
            }
            // Transition D_i → D_{i−1}: unmask v_{i−1}, re-allow b_i, ban b_{i−1}.
            let old_banned = banned;
            banned = self.qa(q, i - 2);
            let v_prev = self.qv(q, i - 2);
            sweep_mask(&mut self.s.removed_bits, v_prev, false);
            // v_{i−1} — the new banned arc's tail — stays out of `cand`
            // until the flood settles (see the initial BFS above), so
            // the propagation below needs no per-arc ban test.
            // The worklist reuses the BFS queue's tail as its own stack:
            // the initial sweep's queue contents are no longer needed.
            self.s.queue.clear();
            // (a) the re-allowed arc b_i = (v_i, v_{i+1}) may connect its tail.
            let (bt, bh) = self.d.arc(old_banned);
            if !bit_test(&self.s.cand, bh.index())
                && !bit_test(&self.s.removed_bits, bh.index())
                && bit_take(&mut self.s.cand, bt.index())
            {
                self.s.queue.push(bt);
            }
            // Propagate the new r-flags backwards over in-arcs.
            while let Some(x) = self.s.queue.pop() {
                for &(z, _) in self.d.in_adjacency(x) {
                    work += 1;
                    if bit_take(&mut self.s.cand, z.index()) {
                        self.s.queue.push(z);
                    }
                }
            }
            // (b) folded into the settle: v_{i−1} reaches t iff a
            // non-banned out-arc leads to a settled reached vertex.
            self.settle_deferred(v_prev, banned, &mut work);
            i -= 1;
        }
        self.stats.work += work;
        // Only v₁ is still masked by this sweep (the loop unmasked the rest).
        let v0 = self.qv(q, 0);
        sweep_mask(&mut self.s.removed_bits, v0, false);
        debug_assert!(
            (0..self.s.removed.len())
                .all(|v| self.s.removed[v] == bit_test(&self.s.removed_bits, v)),
            "sweep restored the bit mask to the byte mirror"
        );
    }

    /// Extends the global path `P` by the prefix `Q_i` (vertices `v₂…v_i`):
    /// masks everything but the new tip `v_i` and reports the `Extend`.
    /// The sink's verdict is ignored — only a `Path` can stop the run.
    fn push_prefix(&mut self, q: QFrame, i: usize) {
        for j in 0..i - 1 {
            let v = self.qv(q, j);
            self.mask_removed(v, true);
        }
        let _ = (self.sink)(PathDelta::Extend {
            vertices: &self.s.qv[q.v_start + 1..q.v_start + i],
            arcs: &self.s.qa[q.a_start..q.a_start + i - 1],
        });
    }

    /// Undoes [`Self::push_prefix`] and reports the `Retract` — also after
    /// a `Break`, so the sink's mirror of `P` stays balanced.
    fn pop_prefix(&mut self, q: QFrame, i: usize) {
        let _ = (self.sink)(PathDelta::Retract);
        for j in (0..i - 1).rev() {
            let v = self.qv(q, j);
            self.mask_removed(v, false);
        }
    }

    /// Reports the solution `P ∘ Q` as its new suffix: `Q` after its first
    /// vertex, which is `P`'s tip.
    fn emit(&mut self, q: QFrame) -> ControlFlow<()> {
        self.stats.emitted += 1;
        (self.sink)(PathDelta::Path {
            vertices: &self.s.qv[q.v_start + 1..q.v_start + q.len],
            arcs: &self.s.qa[q.a_start..q.a_start + q.len - 1],
        })
    }

    /// `F-STP` preparation: makes the level-`depth` reverse-BFS cache
    /// valid for the key `(mask signature, s′, t)`.
    ///
    /// The cache is **not** invalidated per `E-STP` activation: the key
    /// compares the Zobrist XOR-fold of the removal mask (maintained by
    /// [`Self::mask_removed`]) plus `s′` and `t`, so any activation — in
    /// this run or a later run sharing the scratch — whose admissible
    /// graph is identical reuses the BFS tree verbatim. `s′` sits in the
    /// key rather than the signature because the BFS masks it only
    /// temporarily. The BFS is deterministic in `(mask, s′, t)`, so a key
    /// match reproduces `next_arc` (and hence every reconstruction) bit
    /// for bit — the byte-identical-stream argument.
    fn fstp_prepare(&mut self, s1: VertexId, e: Option<ArcId>, depth: usize) {
        debug_assert!(!self.s.removed[s1.index()]);
        let d = self.d;
        let t = self.t;
        self.s.level_mut(depth);
        let s = &mut *self.s;
        let n = s.stride;
        let next_arc = level_slice(
            &mut s.level_next_arc,
            depth,
            n,
            ArcId(u32::MAX),
            &mut s.allocs,
        );
        let admissible = level_slice(
            &mut s.level_admissible,
            depth,
            bit_words(n),
            0u64,
            &mut s.allocs,
        );
        let lvl = &mut s.levels[depth];
        let key_s1 = s1.index() as u32;
        let key_t = t.index() as u32;
        if lvl.valid && lvl.key_sig == s.sig && lvl.key_s1 == key_s1 && lvl.key_t == key_t {
            self.stats.fstp_cache_hits += 1;
            return;
        }
        self.stats.fstp_cache_misses += 1;
        // Reverse BFS from t over the candidate frontier `¬removed ∧
        // ¬reached`: clearing s′ and t up front folds the "masked s′",
        // "already reached", and "removed" exclusions into a single
        // bit-take per arc. The banned arc needs no per-arc test at all:
        // it is the arc the activation arrived on, so its tail is `s′`
        // and every reverse probe along it dies on the cleared `s′` bit.
        debug_assert!(
            e.is_none_or(|a| d.tail(a) == s1),
            "the activation's banned arc leaves s′"
        );
        bits_not(&mut s.cand, &s.removed_bits);
        bit_clear(&mut s.cand, s1.index());
        bit_clear(&mut s.cand, t.index());
        s.queue.clear();
        s.queue.push(t);
        let mut head = 0;
        let mut work = 0u64;
        while head < s.queue.len() {
            let u = s.queue[head];
            head += 1;
            for &(z, a) in d.in_adjacency(u) {
                work += 1;
                if !bit_take(&mut s.cand, z.index()) {
                    continue;
                }
                next_arc[z.index()] = a;
                s.queue.push(z);
            }
        }
        self.stats.work += work;
        // Admissible heads = reached ∧ ¬removed = ¬(cand ∨ removed) after
        // the BFS consumed the reached bits — except s′, whose candidate
        // bit was cleared as "masked", not "reached", so neither s′ nor a
        // self-loop back to it may qualify as a first-arc head.
        bits_not_or(admissible, &s.cand, &s.removed_bits);
        bit_clear(admissible, s1.index());
        lvl.key_sig = s.sig;
        lvl.key_s1 = key_s1;
        lvl.key_t = key_t;
        lvl.valid = true;
    }

    /// `E-STP(P, e, d, t)` — the recursion of Algorithm 1; `s1` is `P`'s
    /// tip. After the (possibly cached) reverse BFS, **all** admissible
    /// continuations of this activation — the successive `F-STP` answers,
    /// one per admissible out-arc of `s′` in the order `≺_{s′}` — are
    /// reconstructed back-to-back into the flat `qv`/`qa` arena in a
    /// single pass over `out_adjacency(s′)`. This equals the paper's
    /// resumed per-sibling `F-STP` calls because the sibling set is fixed
    /// at activation time: every `push_prefix` a child performs is undone
    /// by its `pop_prefix` before the next sibling, so a resumed scan
    /// would see exactly the admissible set that existed when the
    /// activation began.
    fn e_stp(&mut self, s1: VertexId, e: Option<ArcId>, depth: u32) -> ControlFlow<()> {
        let lvl = depth as usize;
        self.stats.work += 1;
        self.fstp_prepare(s1, e, lvl);
        // Flat child-run generation: one contiguous qv/qa run per
        // activation instead of one reconstruction per sibling visit.
        let frames_start = self.s.frames.len();
        let qv_mark = self.s.qv.len();
        let qa_mark = self.s.qa.len();
        {
            let d = self.d;
            let t = self.t;
            let s = &mut *self.s;
            let (n, nw) = (s.stride, bit_words(s.stride));
            let next_arc = &s.level_next_arc[lvl * n..(lvl + 1) * n];
            let admissible = &s.level_admissible[lvl * nw..(lvl + 1) * nw];
            let banned = e.unwrap_or(ArcId(u32::MAX));
            for &(y, a) in d.out_adjacency(s1) {
                self.stats.work += 1;
                if a == banned || !bit_test(admissible, y.index()) {
                    continue;
                }
                // Reconstruct s′ → y → … → t along the reverse-BFS tree.
                let v_start = s.qv.len();
                let a_start = s.qa.len();
                push_tracked(&mut s.qv, s1, &mut s.allocs);
                push_tracked(&mut s.qv, y, &mut s.allocs);
                push_tracked(&mut s.qa, a, &mut s.allocs);
                let mut len = 2;
                let mut cur = y;
                while cur != t {
                    let na = next_arc[cur.index()];
                    push_tracked(&mut s.qa, na, &mut s.allocs);
                    cur = d.head(na);
                    push_tracked(&mut s.qv, cur, &mut s.allocs);
                    len += 1;
                }
                push_tracked(
                    &mut s.frames,
                    QFrame {
                        v_start,
                        a_start,
                        len,
                    },
                    &mut s.allocs,
                );
            }
        }
        let frames_end = self.s.frames.len();
        let mut flow = ControlFlow::Continue(());
        for fi in frames_start..frames_end {
            let q = self.s.frames[fi];
            self.stats.work += 1;
            if depth.is_multiple_of(2) {
                flow = self.emit(q);
            }
            if flow.is_continue() {
                let ext_start = self.s.ext.len();
                if self.options.incremental_extendibility {
                    self.extendible_indices(q);
                } else {
                    self.extendible_indices_naive(q);
                }
                let ext_end = self.s.ext.len();
                for idx in ext_start..ext_end {
                    let i = self.s.ext[idx] as usize;
                    let banned_child = self.qa(q, i - 1); // (v_i, v_{i+1})
                    let tip = self.qv(q, i - 1);
                    self.push_prefix(q, i);
                    let f = self.e_stp(tip, Some(banned_child), depth + 1);
                    self.pop_prefix(q, i);
                    if f.is_break() {
                        flow = ControlFlow::Break(());
                        break;
                    }
                }
                self.s.ext.truncate(ext_start);
                if flow.is_continue() && depth % 2 == 1 {
                    flow = self.emit(q);
                }
            }
            if flow.is_break() {
                break;
            }
        }
        // Release the whole sibling run at once (the batch is the LIFO
        // arena frame).
        self.s.frames.truncate(frames_start);
        self.s.qv.truncate(qv_mark);
        self.s.qa.truncate(qa_mark);
        flow?;
        ControlFlow::Continue(())
    }
}

/// Runs the Algorithm-1 engine over an arbitrary [`PathView`] with an
/// explicit, reusable [`PathScratch`], reporting the paths to `sink` as
/// [`PathDelta`]s (wrap the sink in a [`WholePaths`] started at `s` to
/// receive whole paths).
///
/// The caller owns the removal mask: call [`PathScratch::begin`] with the
/// view's vertex count, mark any vertices to exclude, then call this. No
/// delta names `s`, so in virtual-source mode (see [`VirtualSourceView`])
/// every reported vertex and arc is real.
pub fn enumerate_paths_view<V: PathView>(
    view: &V,
    s: VertexId,
    t: VertexId,
    options: EnumerateOptions,
    scratch: &mut PathScratch,
    sink: &mut dyn FnMut(PathDelta<'_>) -> ControlFlow<()>,
) -> PathEnumStats {
    let n = view.num_vertices();
    debug_assert_eq!(scratch.removed.len(), n, "call begin(n) before the run");
    let stats = PathEnumStats::default();
    if scratch.removed[s.index()] || scratch.removed[t.index()] {
        return stats;
    }
    if s == t {
        let mut stats = stats;
        stats.emitted = 1;
        let _ = sink(PathDelta::Path {
            vertices: &[],
            arcs: &[],
        });
        return stats;
    }
    let mut allocs = scratch.allocs;
    steiner_graph::csr::grow(&mut scratch.stamp, n, 0u32, &mut allocs);
    // Rebuild the mirror bitset and the Zobrist signature of the
    // caller-written mask; from here on both are maintained
    // incrementally by the engine's mask writes, so later cache lookups
    // cost one u64 compare instead of an O(n) scan.
    steiner_graph::csr::grow(&mut scratch.removed_bits, bit_words(n), 0u64, &mut allocs);
    steiner_graph::csr::grow(&mut scratch.cand, bit_words(n), 0u64, &mut allocs);
    if scratch.vsigs.len() < n {
        if scratch.vsigs.capacity() < n {
            allocs += 1;
        }
        let start = scratch.vsigs.len();
        scratch.vsigs.extend((start..n).map(vsig));
    }
    let mut sig = 0u64;
    for (v, &r) in scratch.removed.iter().enumerate() {
        if r {
            bit_set(&mut scratch.removed_bits, v);
            sig ^= scratch.vsigs[v];
        }
    }
    scratch.sig = sig;
    scratch.allocs = allocs;
    scratch.restride(n);
    scratch.epoch = 0;
    scratch.queue.clear();
    debug_assert!(
        scratch.qv.is_empty()
            && scratch.qa.is_empty()
            && scratch.ext.is_empty()
            && scratch.frames.is_empty()
    );
    let mut engine = Engine {
        d: view,
        t,
        s: scratch,
        options,
        stats,
        sink,
    };
    let _ = engine.e_stp(s, None, 0);
    let stats = engine.stats;
    scratch.qv.clear();
    scratch.qa.clear();
    scratch.ext.clear();
    scratch.frames.clear();
    stats
}

/// Enumerates every directed simple `s`-`t` path of `d` whose vertices all
/// satisfy `allowed` (if given), invoking `sink` once per path with
/// O(n + m) delay (Theorem 12). Returns emission/work counters.
///
/// If `s == t` the single trivial path is emitted. The sink may stop the
/// enumeration by returning [`ControlFlow::Break`].
///
/// ```
/// use steiner_paths::enumerate::enumerate_directed_st_paths;
/// use steiner_graph::{DiGraph, VertexId};
/// use std::ops::ControlFlow;
///
/// let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let stats = enumerate_directed_st_paths(&d, VertexId(0), VertexId(3), None, &mut |p| {
///     assert_eq!(p.vertices.len(), 3);
///     ControlFlow::Continue(())
/// });
/// assert_eq!(stats.emitted, 2);
/// ```
pub fn enumerate_directed_st_paths(
    d: &DiGraph,
    s: VertexId,
    t: VertexId,
    allowed: Option<&[bool]>,
    sink: &mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>,
) -> PathEnumStats {
    enumerate_directed_st_paths_with(d, s, t, allowed, EnumerateOptions::default(), sink)
}

/// As [`enumerate_directed_st_paths`], with explicit [`EnumerateOptions`]
/// (used by the Lemma 11 ablation bench).
pub fn enumerate_directed_st_paths_with(
    d: &DiGraph,
    s: VertexId,
    t: VertexId,
    allowed: Option<&[bool]>,
    options: EnumerateOptions,
    sink: &mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>,
) -> PathEnumStats {
    let n = d.num_vertices();
    let mut scratch = PathScratch::new();
    let removed = scratch.begin(n);
    if let Some(mask) = allowed {
        debug_assert_eq!(mask.len(), n);
        for (r, &a) in removed.iter_mut().zip(mask) {
            *r = !a;
        }
    }
    // The historical contract: the target takes part even when masked out
    // by `allowed` only through the early return below, exactly as before.
    let mut whole = WholePaths::new(s);
    enumerate_paths_view(d, s, t, options, &mut scratch, &mut |delta| {
        whole.apply(delta, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::{collect_arc_paths, count_paths, first_k_arc_paths};
    use std::collections::HashSet;

    /// Runs the engine over `view`, handing whole paths to `sink`.
    fn run_whole<V: PathView>(
        view: &V,
        s: VertexId,
        t: VertexId,
        options: EnumerateOptions,
        scratch: &mut PathScratch,
        sink: &mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>,
    ) -> PathEnumStats {
        let mut whole = WholePaths::new(s);
        enumerate_paths_view(view, s, t, options, scratch, &mut |delta| {
            whole.apply(delta, sink)
        })
    }

    fn paths_of(d: &DiGraph, s: VertexId, t: VertexId) -> Vec<Vec<ArcId>> {
        collect_arc_paths(|sink| {
            enumerate_directed_st_paths(d, s, t, None, sink);
        })
    }

    #[test]
    fn single_arc() {
        let d = DiGraph::from_arcs(2, &[(0, 1)]).unwrap();
        let paths = paths_of(&d, VertexId(0), VertexId(1));
        assert_eq!(paths, vec![vec![ArcId(0)]]);
    }

    #[test]
    fn no_path() {
        let d = DiGraph::from_arcs(3, &[(0, 1)]).unwrap();
        assert!(paths_of(&d, VertexId(0), VertexId(2)).is_empty());
        // Arc in the wrong direction.
        let d2 = DiGraph::from_arcs(2, &[(1, 0)]).unwrap();
        assert!(paths_of(&d2, VertexId(0), VertexId(1)).is_empty());
    }

    #[test]
    fn trivial_path() {
        let d = DiGraph::new(1);
        let paths = paths_of(&d, VertexId(0), VertexId(0));
        assert_eq!(paths, vec![Vec::<ArcId>::new()]);
    }

    #[test]
    fn diamond_has_two_paths() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3.
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let paths: HashSet<Vec<ArcId>> =
            paths_of(&d, VertexId(0), VertexId(3)).into_iter().collect();
        let expected: HashSet<Vec<ArcId>> = [vec![ArcId(0), ArcId(2)], vec![ArcId(1), ArcId(3)]]
            .into_iter()
            .collect();
        assert_eq!(paths, expected);
    }

    #[test]
    fn parallel_arcs_are_distinct_paths() {
        let d = DiGraph::from_arcs(2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        let paths = paths_of(&d, VertexId(0), VertexId(1));
        assert_eq!(paths.len(), 3);
        let firsts: HashSet<ArcId> = paths.iter().map(|p| p[0]).collect();
        assert_eq!(firsts.len(), 3);
    }

    #[test]
    fn complete_dag_path_count() {
        // Complete DAG on n vertices: number of 0 -> (n-1) paths is 2^(n-2).
        for n in 2..8usize {
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    arcs.push((u, v));
                }
            }
            let d = DiGraph::from_arcs(n, &arcs).unwrap();
            let count = count_paths(|sink| {
                enumerate_directed_st_paths(&d, VertexId(0), VertexId::new(n - 1), None, sink);
            });
            assert_eq!(count, 1u64 << (n - 2), "n = {n}");
        }
    }

    #[test]
    fn no_duplicates_on_dense_digraph() {
        // Bidirected K_5: every permutation path is found exactly once.
        let mut arcs = Vec::new();
        for u in 0..5usize {
            for v in 0..5usize {
                if u != v {
                    arcs.push((u, v));
                }
            }
        }
        let d = DiGraph::from_arcs(5, &arcs).unwrap();
        let paths = paths_of(&d, VertexId(0), VertexId(4));
        let unique: HashSet<&Vec<ArcId>> = paths.iter().collect();
        assert_eq!(unique.len(), paths.len(), "no duplicates");
        // Count: sum over k of P(3, k) simple paths through k intermediates:
        // 1 + 3 + 6 + 6 = 16.
        assert_eq!(paths.len(), 16);
    }

    #[test]
    fn paths_are_simple_and_well_formed() {
        let mut arcs = Vec::new();
        for u in 0..6usize {
            for v in 0..6usize {
                if u != v {
                    arcs.push((u, v));
                }
            }
        }
        let d = DiGraph::from_arcs(6, &arcs).unwrap();
        enumerate_directed_st_paths(&d, VertexId(0), VertexId(5), None, &mut |p| {
            assert_eq!(p.vertices.len(), p.arcs.len() + 1);
            assert_eq!(p.vertices[0], VertexId(0));
            assert_eq!(*p.vertices.last().unwrap(), VertexId(5));
            let distinct: HashSet<VertexId> = p.vertices.iter().copied().collect();
            assert_eq!(distinct.len(), p.vertices.len(), "simple path");
            for (i, &a) in p.arcs.iter().enumerate() {
                assert_eq!(d.tail(a), p.vertices[i]);
                assert_eq!(d.head(a), p.vertices[i + 1]);
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn allowed_mask_restricts_paths() {
        // Diamond with both midpoints; forbid vertex 1.
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let allowed = vec![true, false, true, true];
        let paths = collect_arc_paths(|sink| {
            enumerate_directed_st_paths(&d, VertexId(0), VertexId(3), Some(&allowed), sink);
        });
        assert_eq!(paths, vec![vec![ArcId(1), ArcId(3)]]);
    }

    #[test]
    fn early_termination_stops_quickly() {
        let mut arcs = Vec::new();
        for u in 0..7usize {
            for v in u + 1..7usize {
                arcs.push((u, v));
            }
        }
        let d = DiGraph::from_arcs(7, &arcs).unwrap();
        let got = first_k_arc_paths(3, |sink| {
            enumerate_directed_st_paths(&d, VertexId(0), VertexId(6), None, sink);
        });
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn csr_view_matches_digraph_view() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc5_12);
        let mut scratch = PathScratch::new();
        for _ in 0..30 {
            let n = 3 + rng.gen_range(0..5usize);
            let m = rng.gen_range(0..=(n * (n - 1)).min(14));
            let d = steiner_graph::generators::random_digraph(n, m, &mut rng);
            let (s, t) = (VertexId(0), VertexId::new(n - 1));
            let on_digraph = paths_of(&d, s, t);
            let csr = CsrDigraph::from_digraph(&d);
            let mut on_csr = Vec::new();
            scratch.begin(n);
            run_whole(
                &csr,
                s,
                t,
                EnumerateOptions::default(),
                &mut scratch,
                &mut |p| {
                    on_csr.push(p.arcs.to_vec());
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(on_digraph, on_csr, "identical order; digraph {d:?}");
        }
    }

    #[test]
    fn warm_scratch_does_not_allocate() {
        let g = steiner_graph::generators::theta_chain(4, 3);
        let csr = CsrDigraph::doubled(&g);
        let (n, m) = (csr.num_vertices(), csr.num_arcs());
        let mut scratch = PathScratch::new();
        scratch.preallocate(n, m);
        for round in 0..2 {
            scratch.begin(n);
            run_whole(
                &csr,
                VertexId(0),
                VertexId(4),
                EnumerateOptions::default(),
                &mut scratch,
                &mut |_| ControlFlow::Continue(()),
            );
            assert_eq!(
                scratch.alloc_events(),
                0,
                "round {round}: preallocated scratch must not grow"
            );
        }
    }

    #[test]
    fn virtual_source_matches_materialized_super_source() {
        // S = {0, 1} wired into a square 0-2-3-4-1; target 3. Compare the
        // virtual-source view against manually adding a super-source.
        let g = steiner_graph::UndirectedGraph::from_edges(
            5,
            &[(0, 2), (1, 4), (2, 3), (3, 4), (2, 4)],
        )
        .unwrap();
        let csr = CsrDigraph::doubled(&g);
        let n = csr.num_vertices();
        let vsrc = VertexId::new(n);
        // Boundary arcs: tails in S = {0, 1}, sorted by arc id.
        let mut boundary = Vec::new();
        for u in [VertexId(0), VertexId(1)] {
            for &(v, a) in csr.out_adjacency(u) {
                boundary.push((v, a));
            }
        }
        boundary.sort_unstable_by_key(|&(_, a)| a);
        let mut scratch = PathScratch::new();
        let removed = scratch.begin(n + 1);
        removed[0] = true;
        removed[1] = true;
        let view = VirtualSourceView {
            base: &csr,
            boundary: &boundary,
            source: vsrc,
        };
        let mut got = Vec::new();
        run_whole(
            &view,
            vsrc,
            VertexId(3),
            EnumerateOptions::default(),
            &mut scratch,
            &mut |p| {
                // Only the adapter's seed names the virtual source; the
                // first arc leaves S for real.
                assert!(!p.vertices[1..].contains(&vsrc));
                let first = csr.tail(p.arcs[0]);
                assert!(first == VertexId(0) || first == VertexId(1));
                assert_eq!(*p.vertices.last().unwrap(), VertexId(3));
                got.push(p.arcs.to_vec());
                ControlFlow::Continue(())
            },
        );
        // Oracle: the established super-source construction.
        let inst =
            crate::stsets::SourceSetInstance::new(&g, &[true, true, false, false, false], None);
        let mut want = 0;
        inst.enumerate(VertexId(3), &mut |_| {
            want += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(got.len(), want);
        let unique: HashSet<Vec<ArcId>> = got.iter().cloned().collect();
        assert_eq!(unique.len(), got.len(), "no duplicate paths");
    }

    #[test]
    fn naive_extendibility_gives_identical_output() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11_11);
        for _ in 0..40 {
            let n = 3 + rng.gen_range(0..5usize);
            let m = rng.gen_range(0..=(n * (n - 1)).min(16));
            let d = steiner_graph::generators::random_digraph(n, m, &mut rng);
            let (s, t) = (VertexId(0), VertexId::new(n - 1));
            let fast = collect_arc_paths(|sink| {
                enumerate_directed_st_paths_with(
                    &d,
                    s,
                    t,
                    None,
                    EnumerateOptions {
                        incremental_extendibility: true,
                    },
                    sink,
                );
            });
            let slow = collect_arc_paths(|sink| {
                enumerate_directed_st_paths_with(
                    &d,
                    s,
                    t,
                    None,
                    EnumerateOptions {
                        incremental_extendibility: false,
                    },
                    sink,
                );
            });
            assert_eq!(fast, slow, "identical order and content; digraph {d:?}");
        }
    }

    #[test]
    fn lemma11_sweep_does_less_work() {
        // On a long-path-rich instance the naive per-prefix recomputation
        // must cost measurably more work units.
        let g = steiner_graph::generators::grid(4, 5);
        let doubled = steiner_graph::digraph::DoubledDigraph::new(&g);
        let d = &doubled.digraph;
        let (s, t) = (VertexId(0), VertexId::new(g.num_vertices() - 1));
        let run = |incremental: bool| {
            let mut sink = |_: PathEvent<'_>| ControlFlow::Continue(());
            enumerate_directed_st_paths_with(
                d,
                s,
                t,
                None,
                EnumerateOptions {
                    incremental_extendibility: incremental,
                },
                &mut sink,
            )
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast.emitted, slow.emitted);
        assert!(
            slow.work > fast.work,
            "naive {} should exceed incremental {}",
            slow.work,
            fast.work
        );
    }

    #[test]
    fn thousand_vertex_path_graph_does_not_panic() {
        // Regression: `preallocate` caps the level cache at
        // LEVEL_CACHE_CAP (512) entries, but instances with
        // n > 510 can touch levels past the preallocation; every access
        // site must grow the cache on demand instead of indexing out of
        // bounds.
        let n = 1000;
        let g = steiner_graph::generators::path(n);
        let csr = CsrDigraph::doubled(&g);
        let mut scratch = PathScratch::new();
        scratch.preallocate(csr.num_vertices(), csr.num_arcs());
        scratch.begin(csr.num_vertices());
        let mut emitted = Vec::new();
        run_whole(
            &csr,
            VertexId(0),
            VertexId::new(n - 1),
            EnumerateOptions::default(),
            &mut scratch,
            &mut |p| {
                emitted.push(p.arcs.len());
                ControlFlow::Continue(())
            },
        );
        assert_eq!(emitted, vec![n - 1], "the single spanning path");
    }

    #[test]
    fn recursion_past_the_level_cache_cap_grows_on_demand() {
        // A ladder nests path prefixes along the whole chain, so the
        // E-STP recursion runs deeper than a tiny preallocation cap.
        // The capped scratch must produce the identical stream and
        // report its growth through `alloc_events`.
        let g = steiner_graph::generators::ladder(10);
        let csr = CsrDigraph::doubled(&g);
        let (n, m) = (csr.num_vertices(), csr.num_arcs());
        let t = VertexId::new(n - 1);
        let run = |scratch: &mut PathScratch| {
            let mut paths = Vec::new();
            scratch.begin(n);
            run_whole(
                &csr,
                VertexId(0),
                t,
                EnumerateOptions::default(),
                scratch,
                &mut |p| {
                    paths.push(p.arcs.to_vec());
                    ControlFlow::Continue(())
                },
            );
            paths
        };
        let mut full = PathScratch::new();
        full.preallocate(n, m);
        let reference = run(&mut full);
        assert!(reference.len() > 100, "the instance is path-rich");

        let mut capped = PathScratch::new();
        capped.preallocate_capped(n, m, 2);
        let got = run(&mut capped);
        assert_eq!(got, reference, "identical stream under a tiny cap");
        assert!(
            capped.alloc_events() > 0,
            "on-demand growth past the cap is visible in the accounting"
        );
        // A second run on the now-grown scratch is allocation-free again.
        let before = capped.alloc_events();
        let again = run(&mut capped);
        assert_eq!(again, reference);
        assert_eq!(capped.alloc_events(), before, "warm capped scratch");
    }

    #[test]
    fn shallow_run_fills_in_only_the_levels_it_reaches() {
        // A 30×30 grid reserves arena space for 512 levels, but a run
        // stopped after a few paths reaches only the first levels: only
        // those slices are filled in, and nothing is allocated.
        let g = steiner_graph::generators::grid(30, 30);
        let csr = CsrDigraph::doubled(&g);
        let (n, m) = (csr.num_vertices(), csr.num_arcs());
        let mut scratch = PathScratch::new();
        scratch.preallocate(n, m);
        let reserved = scratch.capacity_bytes();
        let mut seen = 0;
        scratch.begin(n);
        run_whole(
            &csr,
            VertexId(0),
            VertexId::new(n - 1),
            EnumerateOptions::default(),
            &mut scratch,
            &mut |_| {
                seen += 1;
                if seen == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(seen, 5);
        let filled = scratch.filled_levels();
        assert!((2..=16).contains(&filled), "{filled} levels filled in");
        assert_eq!(scratch.level_next_arc.len(), filled * n);
        assert_eq!(scratch.level_admissible.len(), filled * bit_words(n));
        assert_eq!(scratch.capacity_bytes(), reserved);
        assert_eq!(scratch.alloc_events(), 0);
    }

    #[test]
    fn restrided_scratch_matches_fresh_scratches() {
        // One scratch serves views of changing vertex counts, up and
        // down; each run re-strides the level arenas and must give the
        // stream a fresh scratch gives.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e57_21de);
        let run = |csr: &CsrDigraph, scratch: &mut PathScratch| {
            let n = csr.num_vertices();
            let mut got = Vec::new();
            scratch.begin(n);
            run_whole(
                csr,
                VertexId(0),
                VertexId::new(n - 1),
                EnumerateOptions::default(),
                scratch,
                &mut |p| {
                    got.push(p.arcs.to_vec());
                    ControlFlow::Continue(())
                },
            );
            got
        };
        let mut shared = PathScratch::new();
        shared.preallocate(9, 40);
        for _ in 0..60 {
            let n = 3 + rng.gen_range(0..7usize);
            let m = rng.gen_range(0..=(n * (n - 1)).min(18));
            let d = steiner_graph::generators::random_digraph(n, m, &mut rng);
            let csr = CsrDigraph::from_digraph(&d);
            let want = run(&csr, &mut PathScratch::new());
            assert_eq!(
                run(&csr, &mut shared),
                want,
                "re-strided scratch; digraph {d:?}"
            );
            assert_eq!(shared.stride, n);
        }
    }

    #[test]
    fn packed_cache_hits_across_runs_on_a_pinned_graph() {
        // Re-running the same query on a warm scratch via
        // `begin_same_graph` must replay at least the root-level reverse
        // BFS from cache (the cross-branch reuse the Steiner pools see).
        let g = steiner_graph::generators::theta_chain(4, 3);
        let csr = CsrDigraph::doubled(&g);
        let n = csr.num_vertices();
        let mut scratch = PathScratch::new();
        scratch.preallocate(n, csr.num_arcs());
        let run = |scratch: &mut PathScratch, fresh: bool| {
            if fresh {
                scratch.begin(n);
            } else {
                scratch.begin_same_graph(n);
            }
            run_whole(
                &csr,
                VertexId(0),
                VertexId(4),
                EnumerateOptions::default(),
                scratch,
                &mut |_| ControlFlow::Continue(()),
            )
        };
        let cold = run(&mut scratch, true);
        assert!(cold.fstp_cache_misses > 0, "cold run computes BFS trees");
        let warm = run(&mut scratch, false);
        assert_eq!(cold.emitted, warm.emitted);
        assert!(
            warm.fstp_cache_hits >= 1,
            "warm same-graph replay reuses cached BFS trees (hits {}, misses {})",
            warm.fstp_cache_hits,
            warm.fstp_cache_misses
        );
        assert!(warm.fstp_cache_misses < cold.fstp_cache_misses);
    }

    #[test]
    fn begin_drops_cross_graph_packed_caches() {
        // One scratch, two different graphs with identical vertex count,
        // source, target, and (empty) mask: `begin` must not let the
        // second run hit the first run's cached BFS trees.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut scratch = PathScratch::new();
        for _ in 0..40 {
            let n = 4 + rng.gen_range(0..3usize);
            let m = rng.gen_range(0..=(n * (n - 1)).min(14));
            let d = steiner_graph::generators::random_digraph(n, m, &mut rng);
            let csr = CsrDigraph::from_digraph(&d);
            let (s, t) = (VertexId(0), VertexId::new(n - 1));
            let shared = {
                let mut got = Vec::new();
                scratch.begin(n);
                run_whole(
                    &csr,
                    s,
                    t,
                    EnumerateOptions::default(),
                    &mut scratch,
                    &mut |p| {
                        got.push(p.arcs.to_vec());
                        ControlFlow::Continue(())
                    },
                );
                got
            };
            let mut fresh_scratch = PathScratch::new();
            let fresh = {
                let mut got = Vec::new();
                fresh_scratch.begin(n);
                run_whole(
                    &csr,
                    s,
                    t,
                    EnumerateOptions::default(),
                    &mut fresh_scratch,
                    &mut |p| {
                        got.push(p.arcs.to_vec());
                        ControlFlow::Continue(())
                    },
                );
                got
            };
            assert_eq!(
                shared, fresh,
                "shared scratch must not leak stale BFS trees"
            );
        }
    }

    #[test]
    fn deltas_nest_and_stay_balanced_after_a_break() {
        // Every Extend is undone by a Retract, also when the sink stops
        // the run; only Path deltas count as emissions; a Path's suffix
        // starts at the current tip; and no delta names the source.
        let g = steiner_graph::generators::theta_chain(4, 3);
        let csr = CsrDigraph::doubled(&g);
        let n = csr.num_vertices();
        let (s, t) = (VertexId(0), VertexId(4));
        for stop in [7, u64::MAX] {
            let mut scratch = PathScratch::new();
            scratch.begin(n);
            let mut tips = vec![s];
            let (mut paths, mut max_depth) = (0u64, 0);
            let stats = enumerate_paths_view(
                &csr,
                s,
                t,
                EnumerateOptions::default(),
                &mut scratch,
                &mut |delta| match delta {
                    PathDelta::Extend { vertices, arcs } => {
                        assert_eq!(vertices.len(), arcs.len());
                        assert!(!vertices.is_empty() && !vertices.contains(&s));
                        assert_eq!(csr.tail(arcs[0]), *tips.last().unwrap());
                        tips.push(*vertices.last().unwrap());
                        max_depth = max_depth.max(tips.len() - 1);
                        ControlFlow::Continue(())
                    }
                    PathDelta::Retract => {
                        tips.pop();
                        assert!(!tips.is_empty(), "a Retract undoes an Extend");
                        ControlFlow::Continue(())
                    }
                    PathDelta::Path { vertices, arcs } => {
                        assert_eq!(vertices.len(), arcs.len());
                        assert_eq!(csr.tail(arcs[0]), *tips.last().unwrap());
                        assert_eq!(vertices.last(), Some(&t));
                        paths += 1;
                        if paths == stop {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    }
                },
            );
            assert_eq!(tips, vec![s], "stop {stop}: balanced after the run");
            assert_eq!(stats.emitted, paths);
            assert_eq!(paths, stop.min(81));
            assert!(max_depth >= 2, "stop {stop}: prefixes nest");
        }
    }

    #[test]
    fn stats_count_emissions() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let mut seen = 0;
        let stats = enumerate_directed_st_paths(&d, VertexId(0), VertexId(3), None, &mut |_| {
            seen += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(stats.emitted, 2);
        assert_eq!(seen, 2);
        assert!(stats.work > 0);
    }
}
