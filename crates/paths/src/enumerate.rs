//! Algorithm 1: linear-delay directed *s*-*t* path enumeration.
//!
//! Structure of the implementation, mirroring the paper (§3):
//!
//! * `fstp_prepare` — the reverse BFS of the subroutine
//!   `F-STP(D′, s′, t, e, f)`: one flood from `t` avoiding the masked
//!   vertices, the banned arc `e`, and `s′` itself, over `u64`-word
//!   bitset frontiers. The flood stops once it has reached every head of
//!   `s′`'s non-banned out-arcs, the only vertices a continuation leaves
//!   `s′` through; it runs to the end only when some head cannot reach
//!   `t`. Deterministic, O(n + m).
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
//!   its BFS tree, then recurses into them in that order.
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
    bit_assign, bit_clear, bit_set, bit_take, bit_test, bit_words, bits_not, grow, push_tracked,
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
    /// `E-STP` activations. Each runs its own `F-STP` reverse BFS (cut
    /// short by the early stop, skipped when no head is left to reach);
    /// nothing is reused across activations.
    pub activations: u64,
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

/// Reusable state for one (possibly nested) enumeration: masks, one
/// reverse-BFS tree, and the LIFO arena holding each activation's
/// continuations `Q`. Size it once with [`PathScratch::preallocate`];
/// afterwards enumerations record any buffer growth in
/// [`PathScratch::alloc_events`] (a warm scratch reports zero).
///
/// One BFS tree serves every recursion level: an activation copies all
/// its continuations into the arena right after its flood and reads the
/// tree no more, so a child activation may overwrite it.
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
    /// The current activation's reverse-BFS tree: for every vertex the
    /// flood reached, the arc it was reached through.
    next_arc: Vec<ArcId>,
    /// The heads of `s′`'s out-arcs the current flood has yet to reach
    /// (its early stop); all clear between floods.
    heads: Vec<u64>,
    /// Continuation arena: frame `Q`s live at `[v_start..v_start + len]`.
    qv: Vec<VertexId>,
    qa: Vec<ArcId>,
    /// Extendible-index arena (same LIFO discipline).
    ext: Vec<u32>,
    /// Per-activation sibling-run frames (LIFO per batch).
    frames: Vec<QFrame>,
    allocs: u64,
}

/// Reserves capacity for `total` elements of `v` in all.
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    v.reserve(total.saturating_sub(v.len()));
}

impl PathScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Sizes every buffer for a graph with `n` vertices (including any
    /// virtual source) and `m` arcs. The masks and the BFS tree take
    /// O(n) words. The continuation arenas reserve 4(n + m) entries of
    /// `qv`/`qa` and 4n of `ext`, each capped at 2^18. They hold every
    /// active recursion level's sibling run, which has no linear
    /// worst-case bound: a run that needs more grows them on demand,
    /// counted in [`Self::alloc_events`].
    pub fn preallocate(&mut self, n: usize, m: usize) {
        let nw = bit_words(n);
        reserve_total(&mut self.removed, n);
        reserve_total(&mut self.removed_bits, nw);
        reserve_total(&mut self.cand, nw);
        reserve_total(&mut self.heads, nw);
        reserve_total(&mut self.stamp, n);
        reserve_total(&mut self.queue, n);
        reserve_total(&mut self.next_arc, n);
        let q_arena = (4 * (n + m)).min(1 << 18);
        reserve_total(&mut self.qv, q_arena);
        reserve_total(&mut self.qa, q_arena);
        reserve_total(&mut self.ext, (4 * n).min(1 << 18));
        // One frame per admissible sibling; the tips along one recursion
        // chain are distinct vertices, so the chain total is ≤ m + n.
        reserve_total(&mut self.frames, (n + m + 8).min(1 << 16));
    }

    /// Resets the removal mask to `n` unmasked vertices and returns it for
    /// the caller to mark sources / disallowed vertices before the run.
    pub fn begin(&mut self, n: usize) -> &mut [bool] {
        grow(&mut self.removed, n, false, &mut self.allocs);
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

    /// Bytes of owned buffer capacity (scratch-space accounting).
    pub fn capacity_bytes(&self) -> u64 {
        (self.removed.capacity() * std::mem::size_of::<bool>()
            + (self.removed_bits.capacity() + self.cand.capacity() + self.heads.capacity())
                * std::mem::size_of::<u64>()
            + self.frames.capacity() * std::mem::size_of::<QFrame>()
            + (self.stamp.capacity() + self.ext.capacity()) * std::mem::size_of::<u32>()
            + (self.qa.capacity() + self.next_arc.capacity()) * std::mem::size_of::<ArcId>()
            + (self.queue.capacity() + self.qv.capacity()) * std::mem::size_of::<VertexId>())
            as u64
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

    /// Writes `removed[v] = on`, keeping the mirror bitset in sync. Every
    /// engine mask write is a strict toggle: prefixes mask distinct,
    /// currently unmasked vertices and the sweeps restore them exactly
    /// once.
    #[inline]
    fn mask_removed(&mut self, v: VertexId, on: bool) {
        let s = &mut *self.s;
        debug_assert_ne!(s.removed[v.index()], on, "mask writes are toggles");
        s.removed[v.index()] = on;
        bit_assign(&mut s.removed_bits, v.index(), on);
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
        // the sole reader of the mask until it returns, and every mask it
        // sets is cleared again before then — so the byte mirror can be
        // left untouched instead of updated ~2(k−2) times.
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

    /// `F-STP` preparation: the reverse BFS from `t` that every
    /// continuation of this activation is reconstructed from, written
    /// into the scratch's one BFS tree.
    ///
    /// The flood stops as soon as it has taken every head of `s′`'s
    /// non-banned out-arcs, the vertices the continuations leave `s′`
    /// through. Stopping there changes no continuation: every vertex on
    /// a head's tree path to `t` was taken before the head, so its
    /// `next_arc` entry is final, and a vertex the flood never took keeps
    /// its candidate bit, so the reached test [`Self::e_stp`] makes at
    /// each head reads as after a full flood. A head that cannot reach
    /// `t` makes the flood run to the end; with no head to wait for
    /// (every out-arc banned, masked, a self-loop or into `t`) it does
    /// not run.
    fn fstp_prepare(&mut self, s1: VertexId, e: Option<ArcId>) {
        debug_assert!(!self.s.removed[s1.index()]);
        self.stats.activations += 1;
        let d = self.d;
        let t = self.t;
        let s = &mut *self.s;
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
        // The distinct heads the flood can still take: a masked head, s′
        // and t have no candidate bit.
        let banned = e.unwrap_or(ArcId(u32::MAX));
        let mut work = 0u64;
        let mut pending = 0usize;
        for &(y, a) in d.out_adjacency(s1) {
            work += 1;
            if a != banned && bit_test(&s.cand, y.index()) && !bit_test(&s.heads, y.index()) {
                bit_set(&mut s.heads, y.index());
                pending += 1;
            }
        }
        if pending > 0 {
            s.queue.clear();
            s.queue.push(t);
            let mut head = 0;
            'flood: while head < s.queue.len() {
                let u = s.queue[head];
                head += 1;
                for &(z, a) in d.in_adjacency(u) {
                    work += 1;
                    if !bit_take(&mut s.cand, z.index()) {
                        continue;
                    }
                    s.next_arc[z.index()] = a;
                    if bit_test(&s.heads, z.index()) {
                        bit_clear(&mut s.heads, z.index());
                        pending -= 1;
                        if pending == 0 {
                            break 'flood;
                        }
                    }
                    s.queue.push(z);
                }
            }
            if pending > 0 {
                // Some head cannot reach t: clear the marks it left.
                for &(y, _) in d.out_adjacency(s1) {
                    bit_clear(&mut s.heads, y.index());
                }
            }
        }
        self.stats.work += work;
    }

    /// `E-STP(P, e, d, t)` — the recursion of Algorithm 1; `s1` is `P`'s
    /// tip. After the reverse BFS, **all** admissible continuations of
    /// this activation — the successive `F-STP` answers, one per
    /// admissible out-arc of `s′` in the order `≺_{s′}` — are
    /// reconstructed back-to-back into the flat `qv`/`qa` arena in a
    /// single pass over `out_adjacency(s′)`, before any child's flood
    /// overwrites the BFS tree. This equals the paper's
    /// resumed per-sibling `F-STP` calls because the sibling set is fixed
    /// at activation time: every `push_prefix` a child performs is undone
    /// by its `pop_prefix` before the next sibling, so a resumed scan
    /// would see exactly the admissible set that existed when the
    /// activation began.
    fn e_stp(&mut self, s1: VertexId, e: Option<ArcId>, depth: u32) -> ControlFlow<()> {
        self.stats.work += 1;
        self.fstp_prepare(s1, e);
        // Flat child-run generation: one contiguous qv/qa run per
        // activation instead of one reconstruction per sibling visit.
        let frames_start = self.s.frames.len();
        let qv_mark = self.s.qv.len();
        let qa_mark = self.s.qa.len();
        {
            let d = self.d;
            let t = self.t;
            let s = &mut *self.s;
            let banned = e.unwrap_or(ArcId(u32::MAX));
            for &(y, a) in d.out_adjacency(s1) {
                self.stats.work += 1;
                // Admissible heads: reached ⇔ candidate and removed bits
                // both clear after the flood — except s′, whose candidate
                // bit was cleared as "masked", not "reached", so a
                // self-loop back to it never qualifies.
                if a == banned
                    || y == s1
                    || bit_test(&s.cand, y.index())
                    || bit_test(&s.removed_bits, y.index())
                {
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
                    let na = s.next_arc[cur.index()];
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
    let nw = bit_words(n);
    grow(&mut scratch.stamp, n, 0u32, &mut allocs);
    grow(&mut scratch.next_arc, n, ArcId(u32::MAX), &mut allocs);
    grow(&mut scratch.cand, nw, 0u64, &mut allocs);
    grow(&mut scratch.heads, nw, 0u64, &mut allocs);
    // Rebuild the mirror bitset of the caller-written mask; from here on
    // the engine's mask writes maintain it.
    grow(&mut scratch.removed_bits, nw, 0u64, &mut allocs);
    for (v, &r) in scratch.removed.iter().enumerate() {
        if r {
            bit_set(&mut scratch.removed_bits, v);
        }
    }
    scratch.allocs = allocs;
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
        // Regression: the prefixes nest along the whole path here, so
        // every buffer must grow on demand instead of indexing out of
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
        // A ladder nests path prefixes along the whole chain. A scratch
        // with no reservation at all must produce the stream of a
        // preallocated one, report its growth through `alloc_events`,
        // and allocate nothing on a second run.
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
        assert_eq!(full.alloc_events(), 0, "the reservation covers the run");

        let mut bare = PathScratch::new();
        let got = run(&mut bare);
        assert_eq!(got, reference, "identical stream without a reservation");
        assert!(
            bare.alloc_events() > 0,
            "on-demand growth is visible in the accounting"
        );
        // A second run on the now-grown scratch is allocation-free.
        let before = bare.alloc_events();
        let again = run(&mut bare);
        assert_eq!(again, reference);
        assert_eq!(bare.alloc_events(), before, "warm scratch");
    }

    #[test]
    fn shallow_run_fills_in_only_the_levels_it_reaches() {
        // The reservation is linear in the view: on a 30×30 grid it
        // stays within 96 bytes per vertex or arc, and a run stopped
        // after a few paths fits in it without allocating.
        let g = steiner_graph::generators::grid(30, 30);
        let csr = CsrDigraph::doubled(&g);
        let (n, m) = (csr.num_vertices(), csr.num_arcs());
        let mut scratch = PathScratch::new();
        scratch.preallocate(n, m);
        let reserved = scratch.capacity_bytes();
        assert!(
            reserved <= 96 * (n + m) as u64,
            "{reserved} bytes reserved for n + m = {}",
            n + m
        );
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
        assert_eq!(scratch.capacity_bytes(), reserved);
        assert_eq!(scratch.alloc_events(), 0);
    }

    #[test]
    fn restrided_scratch_matches_fresh_scratches() {
        // One scratch serves views of changing vertex counts, up and
        // down; each run resizes its buffers and must give the stream a
        // fresh scratch gives.
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
                "shared scratch; digraph {d:?}"
            );
        }
    }

    #[test]
    fn packed_cache_hits_across_runs_on_a_pinned_graph() {
        // No BFS tree outlives its activation: re-running the same query
        // on a warm scratch floods exactly as often as the cold run and
        // reproduces its stream and counters.
        let g = steiner_graph::generators::theta_chain(4, 3);
        let csr = CsrDigraph::doubled(&g);
        let n = csr.num_vertices();
        let mut scratch = PathScratch::new();
        scratch.preallocate(n, csr.num_arcs());
        let run = |scratch: &mut PathScratch| {
            let mut paths = Vec::new();
            scratch.begin(n);
            let stats = run_whole(
                &csr,
                VertexId(0),
                VertexId(4),
                EnumerateOptions::default(),
                scratch,
                &mut |p| {
                    paths.push(p.arcs.to_vec());
                    ControlFlow::Continue(())
                },
            );
            (paths, stats)
        };
        let (cold_paths, cold) = run(&mut scratch);
        assert!(cold.activations > 0, "the cold run floods");
        let (warm_paths, warm) = run(&mut scratch);
        assert_eq!(warm_paths, cold_paths);
        assert_eq!(warm.activations, cold.activations, "same flood count");
        assert_eq!(warm, cold);
    }

    #[test]
    fn begin_drops_cross_graph_packed_caches() {
        // One scratch, many different graphs with the same source,
        // target and (empty) mask: every run on the shared scratch must
        // give the stream a fresh scratch gives.
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

    /// `0 → 1 → 2` plus the `extra` arcs, and a cloud of 40 vertices
    /// (3..43) whose arcs lead into vertex 1: a flood from `t = 2` that
    /// runs to the end takes the whole cloud, one that stops at the head
    /// 1 takes none of it. Returns the digraph and the work of one full
    /// flood (the arcs into vertices that reach `t`, all below 43).
    fn headed_cloud(extra: &[(usize, usize)]) -> (CsrDigraph, u64) {
        let mut arcs = vec![(0, 1), (1, 2)];
        arcs.extend_from_slice(extra);
        arcs.extend((3..43).map(|x| (x, 1)));
        let n = arcs.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        let d = DiGraph::from_arcs(n, &arcs).unwrap();
        let full_flood = arcs.iter().filter(|&&(_, y)| y < 43).count();
        (CsrDigraph::from_digraph(&d), full_flood as u64)
    }

    /// Runs `csr` from 0 to 2 on `scratch` after a run on another graph,
    /// and checks the stream against a fresh scratch's.
    fn run_after_another(csr: &CsrDigraph, scratch: &mut PathScratch) -> (Vec<Vec<ArcId>>, u64) {
        let other = CsrDigraph::doubled(&steiner_graph::generators::grid(3, 4));
        let _ = run_collect(&other, VertexId(0), VertexId(11), scratch);
        let (got, work) = run_collect(csr, VertexId(0), VertexId(2), scratch);
        let (fresh, _) = run_collect(csr, VertexId(0), VertexId(2), &mut PathScratch::new());
        assert_eq!(got, fresh, "warm scratch gives the fresh stream");
        (got, work)
    }

    fn run_collect(
        csr: &CsrDigraph,
        s: VertexId,
        t: VertexId,
        scratch: &mut PathScratch,
    ) -> (Vec<Vec<ArcId>>, u64) {
        let mut got = Vec::new();
        scratch.begin(csr.num_vertices());
        let stats = run_whole(csr, s, t, EnumerateOptions::default(), scratch, &mut |p| {
            got.push(p.arcs.to_vec());
            ControlFlow::Continue(())
        });
        (got, stats.work)
    }

    #[test]
    fn flood_stops_once_every_head_is_reached() {
        // Two parallel arcs into the one head 1, which the flood takes
        // with its first probe: the whole run costs less than one full
        // flood, because neither the root's flood nor any sweep enters
        // the cloud behind 1.
        let (csr, full_flood) = headed_cloud(&[(0, 1)]);
        let mut scratch = PathScratch::new();
        let (paths, work) = run_after_another(&csr, &mut scratch);
        assert_eq!(
            paths,
            vec![vec![ArcId(0), ArcId(1)], vec![ArcId(2), ArcId(1)]],
            "one path per parallel first arc"
        );
        assert!(
            work < full_flood,
            "run work {work}, one full flood {full_flood}"
        );
    }

    #[test]
    fn flood_runs_to_the_end_past_an_unreachable_head() {
        // Head 43 cannot reach t, so the root's flood waits for it in
        // vain and takes the whole cloud before it ends.
        let (csr, full_flood) = headed_cloud(&[(0, 43)]);
        let mut scratch = PathScratch::new();
        let (paths, work) = run_after_another(&csr, &mut scratch);
        assert_eq!(paths, vec![vec![ArcId(0), ArcId(1)]]);
        assert!(
            work >= full_flood,
            "run work {work}, one full flood {full_flood}"
        );
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
