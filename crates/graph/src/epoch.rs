//! Graph epochs: mutable graphs with region-level fingerprints and delta
//! logs.
//!
//! The enumeration engine serves cached replay traffic keyed on graph
//! fingerprints. A whole-graph fingerprint cold-starts every cached query
//! on any mutation; this module makes invalidation *regional* instead.
//! A **region** is a connected component (weakly connected for digraphs),
//! canonically identified by its minimum vertex id. Each region carries a
//! 64-bit fingerprint folded (XOR) over per-vertex and per-edge hashes, so
//! two graphs agree on a region's fingerprint iff the region has the same
//! vertex set and the same edge-id/endpoint assignment — and, because
//! adjacency lists are sorted by edge id (see [`UndirectedGraph`]), iff
//! every enumeration stream confined to that region is byte-identical.
//!
//! [`EpochGraph`] / [`EpochDigraph`] wrap a graph with:
//!
//! * a monotone **epoch counter**, advanced once per mutation batch,
//! * a maintained [`RegionMap`] (region fingerprints kept incrementally on
//!   inserts, recomputed and diffed on removals),
//! * a bounded **delta log** ([`EpochGraph::deltas_since`]) so CSR views
//!   and classification state can replay mutations instead of rebuilding.
//!
//! All hashes use fixed splitmix64-style constants, so fingerprints are
//! stable across processes and can be embedded in snapshots.

use crate::digraph::{DiGraph, RemovedArc};
use crate::ids::{ArcId, EdgeId, VertexId};
use crate::undirected::{RemovedEdge, UndirectedGraph};
use crate::{GraphError, Result};

/// Seed for per-vertex hashes.
const SEED_VERTEX: u64 = 0x9e37_79b9_7f4a_7c15;
/// Seed for per-undirected-edge hashes.
const SEED_EDGE: u64 = 0xd1b5_4a32_d192_ed03;
/// Seed for per-arc hashes.
const SEED_ARC: u64 = 0x8cb9_2ba7_2f3d_8dd7;

/// How many epoch deltas each wrapper retains for replay.
const DELTA_LOG_CAP: usize = 64;

/// splitmix64 finalizer: a cheap, fixed, well-mixing 64-bit permutation.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a vertex's membership in a region.
#[inline]
fn vertex_hash(v: VertexId) -> u64 {
    mix(SEED_VERTEX ^ u64::from(v.0))
}

/// Hash of an undirected edge: order-sensitive chain over (id, u, v).
#[inline]
fn edge_hash(e: EdgeId, u: VertexId, v: VertexId) -> u64 {
    let h = mix(SEED_EDGE ^ u64::from(e.0));
    let h = mix(h ^ u64::from(u.0));
    mix(h ^ u64::from(v.0))
}

/// Hash of an arc: order-sensitive chain over (id, tail, head).
#[inline]
fn arc_hash(a: ArcId, tail: VertexId, head: VertexId) -> u64 {
    let h = mix(SEED_ARC ^ u64::from(a.0));
    let h = mix(h ^ u64::from(tail.0));
    mix(h ^ u64::from(head.0))
}

/// Vertex → region labeling with per-region fingerprints.
///
/// Regions are connected components (weak components for digraphs); the
/// canonical region id is the minimum vertex id in the component, so ids
/// are stable under mutations that do not restructure the component.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionMap {
    /// `region[v]` = canonical region id of vertex `v`.
    region: Vec<u32>,
    /// `(region id, fingerprint)`, sorted by region id.
    fps: Vec<(u32, u64)>,
}

impl RegionMap {
    /// Labels the connected components of an undirected graph.
    pub fn of_undirected(g: &UndirectedGraph) -> Self {
        Self::undirected_from(g, 0..g.num_vertices())
    }

    /// Labels the weakly connected components of a digraph.
    pub fn of_digraph(d: &DiGraph) -> Self {
        Self::digraph_from(d, 0..d.num_vertices())
    }

    /// [`Self::label`] over an undirected graph: each edge is owned by
    /// its first endpoint (no self-loops, so exactly once).
    fn undirected_from(g: &UndirectedGraph, starts: impl IntoIterator<Item = usize>) -> Self {
        Self::label(g.num_vertices(), starts, |v, nbrs| {
            let v = VertexId::new(v);
            let mut owned = 0;
            for &(w, e) in g.adjacency(v) {
                nbrs.push(w.index());
                if g.endpoints(e).0 == v {
                    owned ^= edge_hash(e, v, w);
                }
            }
            owned
        })
    }

    /// [`Self::label`] over a digraph: each arc is owned by its tail.
    fn digraph_from(d: &DiGraph, starts: impl IntoIterator<Item = usize>) -> Self {
        Self::label(d.num_vertices(), starts, |v, nbrs| {
            let v = VertexId::new(v);
            let mut owned = 0;
            for (w, a) in d.out_neighbors(v) {
                nbrs.push(w.index());
                owned ^= arc_hash(a, v, w);
            }
            for (w, _) in d.in_neighbors(v) {
                nbrs.push(w.index());
            }
            owned
        })
    }

    /// Shared labeling pass: a seeded DFS from each of `starts` not yet
    /// labeled (out-of-range starts are skipped). `visit(v, nbrs)` pushes
    /// `v`'s neighbours and returns the fold of the edge/arc hashes `v`
    /// owns, so a region's fingerprint is the XOR fold of its vertex and
    /// owned edge hashes, whatever the visiting order. The table entry
    /// carries the region's minimum vertex, its canonical id; `region`
    /// labels each vertex with its start, which is that minimum only for
    /// ascending starts — the full maps — so partial signatures read the
    /// table alone.
    fn label(
        n: usize,
        starts: impl IntoIterator<Item = usize>,
        mut visit: impl FnMut(usize, &mut Vec<usize>) -> u64,
    ) -> Self {
        const UNSET: u32 = u32::MAX;
        let mut region = vec![UNSET; n];
        let mut fps: Vec<(u32, u64)> = Vec::new();
        let mut stack = Vec::new();
        let mut nbrs = Vec::new();
        for start in starts {
            if start >= n || region[start] != UNSET {
                continue;
            }
            let mut id = start;
            let mut fp = 0u64;
            region[start] = start as u32;
            stack.push(start);
            while let Some(v) = stack.pop() {
                id = id.min(v);
                fp ^= vertex_hash(VertexId::new(v)) ^ visit(v, &mut nbrs);
                for w in nbrs.drain(..) {
                    // Mark on push so each vertex is hashed exactly once.
                    if region[w] == UNSET {
                        region[w] = start as u32;
                        stack.push(w);
                    }
                }
            }
            fps.push((id as u32, fp));
        }
        fps.sort_unstable_by_key(|&(r, _)| r);
        RegionMap { region, fps }
    }

    /// Number of vertices covered by the labeling.
    pub fn num_vertices(&self) -> usize {
        self.region.len()
    }

    /// Canonical region id of `v`, or `None` if `v` is out of range.
    pub fn region_of(&self, v: VertexId) -> Option<u32> {
        self.region.get(v.index()).copied()
    }

    /// Fingerprint of a region, or `None` if no such region exists.
    pub fn fingerprint(&self, region: u32) -> Option<u64> {
        self.fps
            .binary_search_by_key(&region, |&(r, _)| r)
            .ok()
            .map(|i| self.fps[i].1)
    }

    /// All `(region id, fingerprint)` pairs, sorted by region id.
    pub fn regions(&self) -> &[(u32, u64)] {
        &self.fps
    }

    /// Whole-graph fingerprint: the XOR fold of every region fingerprint.
    pub fn fold(&self) -> u64 {
        self.fps.iter().fold(0, |acc, &(_, fp)| acc ^ fp)
    }

    /// The region signature covering `vertices`: the deduplicated, sorted
    /// `(region, fingerprint)` pairs of their regions. Out-of-range
    /// vertices are skipped — malformed queries must still produce a key
    /// (validation rejects them later).
    pub fn signature_of<I: IntoIterator<Item = VertexId>>(&self, vertices: I) -> RegionSignature {
        let mut pairs: Vec<(u32, u64)> = vertices
            .into_iter()
            .filter_map(|v| {
                let r = self.region_of(v)?;
                Some((r, self.fingerprint(r).expect("region exists")))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        RegionSignature { pairs }
    }

    /// Region ids whose fingerprint differs between `self` and `newer`
    /// (changed, appeared, or disappeared), sorted ascending.
    pub fn diff(&self, newer: &RegionMap) -> Vec<u32> {
        diff_fps(&self.fps, &newer.fps)
    }
}

/// Merge-walk of two sorted fingerprint tables; ids present in exactly one
/// table or carrying different fingerprints are "touched".
fn diff_fps(old: &[(u32, u64)], new: &[(u32, u64)]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&(ro, fo)), Some(&(rn, fn_))) => {
                if ro == rn {
                    if fo != fn_ {
                        out.push(ro);
                    }
                    i += 1;
                    j += 1;
                } else if ro < rn {
                    out.push(ro);
                    i += 1;
                } else {
                    out.push(rn);
                    j += 1;
                }
            }
            (Some(&(ro, _)), None) => {
                out.push(ro);
                i += 1;
            }
            (None, Some(&(rn, _))) => {
                out.push(rn);
                j += 1;
            }
            (None, None) => unreachable!("the loop exits when both walks are exhausted"),
        }
    }
    out
}

/// The sorted, deduplicated `(region, fingerprint)` pairs a query touches.
///
/// This is the graph-side half of an epoch-qualified cache key: a cached
/// entry built under signature `S` is still valid iff every pair of `S`
/// matches the serving graph's current region map — checked for free by
/// hashed lookup, since the signature *is* part of the key.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionSignature {
    pairs: Vec<(u32, u64)>,
}

impl RegionSignature {
    /// The signature of `vertices` in `g`: equal to
    /// `RegionMap::of_undirected(g).signature_of(vertices)`, but labels
    /// and fingerprints only the regions containing `vertices` instead
    /// of every component of the graph.
    pub fn of_undirected<I: IntoIterator<Item = VertexId>>(
        g: &UndirectedGraph,
        vertices: I,
    ) -> Self {
        RegionSignature {
            pairs: RegionMap::undirected_from(g, vertices.into_iter().map(VertexId::index)).fps,
        }
    }

    /// As [`Self::of_undirected`], for the weak components of a digraph.
    pub fn of_digraph<I: IntoIterator<Item = VertexId>>(d: &DiGraph, vertices: I) -> Self {
        RegionSignature {
            pairs: RegionMap::digraph_from(d, vertices.into_iter().map(VertexId::index)).fps,
        }
    }

    /// Builds a signature from raw pairs (sorted and deduplicated here).
    pub fn from_pairs(mut pairs: Vec<(u32, u64)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        RegionSignature { pairs }
    }

    /// The `(region, fingerprint)` pairs, sorted by region id.
    pub fn pairs(&self) -> &[(u32, u64)] {
        &self.pairs
    }

    /// Whether the signature covers no regions.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the signature touches `region`.
    pub fn touches(&self, region: u32) -> bool {
        self.pairs
            .binary_search_by_key(&region, |&(r, _)| r)
            .is_ok()
    }

    /// Whether the signature touches any id in `touched` (sorted ascending).
    pub fn intersects(&self, touched: &[u32]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < touched.len() {
            match self.pairs[i].0.cmp(&touched[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }

    /// XOR fold of the fingerprints (for compact display / stats keys).
    pub fn fold(&self) -> u64 {
        self.pairs.iter().fold(0, |acc, &(_, fp)| acc ^ fp)
    }
}

/// One edit to an undirected epoch graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphMutation {
    /// Insert the edge `{u, v}` (gets the next dense edge id).
    InsertEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Remove the edge with this id (the last edge is renumbered onto it).
    RemoveEdge(EdgeId),
}

/// One edit to a directed epoch graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcMutation {
    /// Insert the arc `(tail, head)` (gets the next dense arc id).
    InsertArc {
        /// Tail (source) endpoint.
        tail: VertexId,
        /// Head (target) endpoint.
        head: VertexId,
    },
    /// Remove the arc with this id (the last arc is renumbered onto it).
    RemoveArc(ArcId),
}

/// A structural delta record for one undirected edge, precise enough for a
/// CSR view to mirror the endpoint-table edit without rescanning the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDelta {
    /// Edge `e = {u, v}` was appended.
    Inserted {
        /// Id assigned to the new edge.
        e: EdgeId,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Edge `e = {u, v}` was removed; `moved` is the `(old id, u, v)` of
    /// the edge renumbered onto the freed id, if any.
    Removed {
        /// Id the removed edge held (now reused by `moved`, if present).
        e: EdgeId,
        /// First endpoint of the removed edge.
        u: VertexId,
        /// Second endpoint of the removed edge.
        v: VertexId,
        /// The relocated edge: `(old id, endpoints…)`.
        moved: Option<(EdgeId, VertexId, VertexId)>,
    },
}

/// A structural delta record for one arc (see [`EdgeDelta`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcDelta {
    /// Arc `a = (tail, head)` was appended.
    Inserted {
        /// Id assigned to the new arc.
        a: ArcId,
        /// Tail endpoint.
        tail: VertexId,
        /// Head endpoint.
        head: VertexId,
    },
    /// Arc `a` was removed; `moved` is the relocated arc, if any.
    Removed {
        /// Id the removed arc held.
        a: ArcId,
        /// Tail endpoint of the removed arc.
        tail: VertexId,
        /// Head endpoint of the removed arc.
        head: VertexId,
        /// The relocated arc: `(old id, tail, head)`.
        moved: Option<(ArcId, VertexId, VertexId)>,
    },
}

/// The delta log entry produced by one mutation batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRecord<D> {
    /// The epoch this batch produced (post-mutation counter value).
    pub epoch: u64,
    /// The structural edits, in application order.
    pub edits: Vec<D>,
    /// Region ids whose fingerprint changed, sorted ascending.
    pub touched: Vec<u32>,
}

/// Summary of one applied mutation batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// The epoch the graph is now at.
    pub epoch: u64,
    /// Region ids whose fingerprint changed (old ∪ new ids), sorted.
    pub touched: Vec<u32>,
}

/// An [`UndirectedGraph`] under epoch management: every mutation batch
/// advances the epoch, updates region fingerprints, and appends a replay
/// delta. Read access is by `Deref`-style accessors; structural writes
/// must go through the mutation API so the bookkeeping stays truthful.
#[derive(Clone, Debug)]
pub struct EpochGraph {
    g: UndirectedGraph,
    epoch: u64,
    regions: RegionMap,
    log: Vec<DeltaRecord<EdgeDelta>>,
}

impl EpochGraph {
    /// Wraps a graph at epoch 0, computing its region map.
    pub fn new(g: UndirectedGraph) -> Self {
        let regions = RegionMap::of_undirected(&g);
        EpochGraph {
            g,
            epoch: 0,
            regions,
            log: Vec::new(),
        }
    }

    /// The wrapped graph (read-only).
    pub fn graph(&self) -> &UndirectedGraph {
        &self.g
    }

    /// Unwraps the graph, discarding epoch state.
    pub fn into_inner(self) -> UndirectedGraph {
        self.g
    }

    /// Current epoch (0 for a freshly wrapped graph).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained region map (always consistent with [`Self::graph`]).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Whole-graph fingerprint: XOR fold of the maintained region
    /// fingerprints — no rescan of the graph.
    pub fn fingerprint(&self) -> u64 {
        self.regions.fold()
    }

    /// Checks a batch against the current graph without applying anything,
    /// simulating the evolving edge count so later edits in the batch see
    /// the ids earlier ones create or free.
    pub fn validate(&self, batch: &[GraphMutation]) -> Result<()> {
        let n = self.g.num_vertices();
        let mut m = self.g.num_edges();
        for mu in batch {
            match *mu {
                GraphMutation::InsertEdge { u, v } => {
                    if u.index() >= n || v.index() >= n {
                        let worst = u.index().max(v.index());
                        return Err(GraphError::VertexOutOfRange {
                            vertex: worst,
                            num_vertices: n,
                        });
                    }
                    if u == v {
                        return Err(GraphError::SelfLoop { vertex: u.index() });
                    }
                    m += 1;
                }
                GraphMutation::RemoveEdge(e) => {
                    if e.index() >= m {
                        return Err(GraphError::EdgeOutOfRange {
                            edge: e.index(),
                            num_edges: m,
                        });
                    }
                    m -= 1;
                }
            }
        }
        Ok(())
    }

    /// Inserts one edge; sugar for a single-edit [`Self::batch_apply`].
    /// Returns the new edge's id alongside the mutation report.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(EdgeId, MutationReport)> {
        let report = self.batch_apply(&[GraphMutation::InsertEdge { u, v }])?;
        Ok((EdgeId::new(self.g.num_edges() - 1), report))
    }

    /// Removes one edge; sugar for a single-edit [`Self::batch_apply`].
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<MutationReport> {
        self.batch_apply(&[GraphMutation::RemoveEdge(e)])
    }

    /// Applies a mutation batch atomically: the whole batch is validated
    /// up front, then applied as **one** epoch step. Returns the new epoch
    /// and the touched-region set (regions whose fingerprint changed).
    pub fn batch_apply(&mut self, batch: &[GraphMutation]) -> Result<MutationReport> {
        self.validate(batch)?;
        // lint:allow(alloc) per-batch diff baseline: mutations are the cold side
        let old_fps = self.regions.fps.clone();
        // lint:allow(alloc) one delta record per batch, bounded by the log cap
        let mut edits = Vec::with_capacity(batch.len());
        let mut removed_any = false;
        for mu in batch {
            match *mu {
                GraphMutation::InsertEdge { u, v } => {
                    let e = self.g.add_edge(u, v).expect("batch validated");
                    edits.push(EdgeDelta::Inserted { e, u, v });
                    if !removed_any {
                        self.apply_insert_fp(e, u, v);
                    }
                }
                GraphMutation::RemoveEdge(e) => {
                    let RemovedEdge {
                        endpoints: (u, v),
                        moved,
                    } = self.g.remove_edge(e).expect("batch validated");
                    edits.push(EdgeDelta::Removed { e, u, v, moved });
                    removed_any = true;
                }
            }
        }
        if removed_any {
            // Removals can split regions and renumber edges; recompute and
            // let the fingerprint diff pick up every affected region.
            self.regions = RegionMap::of_undirected(&self.g);
        }
        let touched = diff_fps(&old_fps, &self.regions.fps);
        self.epoch += 1;
        self.log.push(DeltaRecord {
            epoch: self.epoch,
            edits,
            // lint:allow(alloc) the touched set is part of the per-batch record
            touched: touched.clone(),
        });
        if self.log.len() > DELTA_LOG_CAP {
            let excess = self.log.len() - DELTA_LOG_CAP;
            self.log.drain(..excess);
        }
        Ok(MutationReport {
            epoch: self.epoch,
            touched,
        })
    }

    /// Incrementally folds an inserted edge into the region map: same
    /// region is an O(log R) fingerprint update; distinct regions merge
    /// into the smaller canonical id with an O(n) relabel.
    fn apply_insert_fp(&mut self, e: EdgeId, u: VertexId, v: VertexId) {
        let eh = edge_hash(e, u, v);
        let ru = self.regions.region[u.index()];
        let rv = self.regions.region[v.index()];
        if ru == rv {
            let idx = self
                .regions
                .fps
                .binary_search_by_key(&ru, |&(r, _)| r)
                .expect("region exists");
            self.regions.fps[idx].1 ^= eh;
            return;
        }
        let (keep, gone) = if ru < rv { (ru, rv) } else { (rv, ru) };
        for r in self.regions.region.iter_mut() {
            if *r == gone {
                *r = keep;
            }
        }
        let gone_idx = self
            .regions
            .fps
            .binary_search_by_key(&gone, |&(r, _)| r)
            .expect("region exists");
        let (_, gone_fp) = self.regions.fps.remove(gone_idx);
        let keep_idx = self
            .regions
            .fps
            .binary_search_by_key(&keep, |&(r, _)| r)
            .expect("region exists");
        self.regions.fps[keep_idx].1 ^= gone_fp ^ eh;
    }

    /// The contiguous delta records covering `(since_epoch, current]`, or
    /// `None` if the log has been truncated past `since_epoch` (or the
    /// epoch is from the future). `Some(&[])` means "already current".
    pub fn deltas_since(&self, since_epoch: u64) -> Option<&[DeltaRecord<EdgeDelta>]> {
        if since_epoch > self.epoch {
            return None;
        }
        if since_epoch == self.epoch {
            return Some(&[]);
        }
        let oldest = self.epoch - self.log.len() as u64; // epoch before first record
        if since_epoch < oldest {
            return None;
        }
        Some(&self.log[(since_epoch - oldest) as usize..])
    }
}

/// A [`DiGraph`] under epoch management (see [`EpochGraph`]).
#[derive(Clone, Debug)]
pub struct EpochDigraph {
    d: DiGraph,
    epoch: u64,
    regions: RegionMap,
    log: Vec<DeltaRecord<ArcDelta>>,
}

impl EpochDigraph {
    /// Wraps a digraph at epoch 0, computing its weak-component region map.
    pub fn new(d: DiGraph) -> Self {
        let regions = RegionMap::of_digraph(&d);
        EpochDigraph {
            d,
            epoch: 0,
            regions,
            log: Vec::new(),
        }
    }

    /// The wrapped digraph (read-only).
    pub fn digraph(&self) -> &DiGraph {
        &self.d
    }

    /// Unwraps the digraph, discarding epoch state.
    pub fn into_inner(self) -> DiGraph {
        self.d
    }

    /// Current epoch (0 for a freshly wrapped digraph).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained region map (always consistent with [`Self::digraph`]).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Whole-digraph fingerprint: XOR fold of the maintained region
    /// fingerprints — no rescan of the digraph.
    pub fn fingerprint(&self) -> u64 {
        self.regions.fold()
    }

    /// Checks a batch against the current digraph without applying it.
    pub fn validate(&self, batch: &[ArcMutation]) -> Result<()> {
        let n = self.d.num_vertices();
        let mut m = self.d.num_arcs();
        for mu in batch {
            match *mu {
                ArcMutation::InsertArc { tail, head } => {
                    if tail.index() >= n || head.index() >= n {
                        let worst = tail.index().max(head.index());
                        return Err(GraphError::VertexOutOfRange {
                            vertex: worst,
                            num_vertices: n,
                        });
                    }
                    if tail == head {
                        return Err(GraphError::SelfLoop {
                            vertex: tail.index(),
                        });
                    }
                    m += 1;
                }
                ArcMutation::RemoveArc(a) => {
                    if a.index() >= m {
                        return Err(GraphError::EdgeOutOfRange {
                            edge: a.index(),
                            num_edges: m,
                        });
                    }
                    m -= 1;
                }
            }
        }
        Ok(())
    }

    /// Inserts one arc; sugar for a single-edit [`Self::batch_apply`].
    /// Returns the new arc's id alongside the mutation report.
    pub fn insert_arc(
        &mut self,
        tail: VertexId,
        head: VertexId,
    ) -> Result<(ArcId, MutationReport)> {
        let report = self.batch_apply(&[ArcMutation::InsertArc { tail, head }])?;
        Ok((ArcId::new(self.d.num_arcs() - 1), report))
    }

    /// Removes one arc; sugar for a single-edit [`Self::batch_apply`].
    pub fn remove_arc(&mut self, a: ArcId) -> Result<MutationReport> {
        self.batch_apply(&[ArcMutation::RemoveArc(a)])
    }

    /// Applies a mutation batch atomically as one epoch step (see
    /// [`EpochGraph::batch_apply`]).
    pub fn batch_apply(&mut self, batch: &[ArcMutation]) -> Result<MutationReport> {
        self.validate(batch)?;
        // lint:allow(alloc) per-batch diff baseline: mutations are the cold side
        let old_fps = self.regions.fps.clone();
        // lint:allow(alloc) one delta record per batch, bounded by the log cap
        let mut edits = Vec::with_capacity(batch.len());
        let mut removed_any = false;
        for mu in batch {
            match *mu {
                ArcMutation::InsertArc { tail, head } => {
                    let a = self.d.add_arc(tail, head).expect("batch validated");
                    edits.push(ArcDelta::Inserted { a, tail, head });
                    if !removed_any {
                        self.apply_insert_fp(a, tail, head);
                    }
                }
                ArcMutation::RemoveArc(a) => {
                    let RemovedArc {
                        endpoints: (tail, head),
                        moved,
                    } = self.d.remove_arc(a).expect("batch validated");
                    edits.push(ArcDelta::Removed {
                        a,
                        tail,
                        head,
                        moved,
                    });
                    removed_any = true;
                }
            }
        }
        if removed_any {
            self.regions = RegionMap::of_digraph(&self.d);
        }
        let touched = diff_fps(&old_fps, &self.regions.fps);
        self.epoch += 1;
        self.log.push(DeltaRecord {
            epoch: self.epoch,
            edits,
            // lint:allow(alloc) the touched set is part of the per-batch record
            touched: touched.clone(),
        });
        if self.log.len() > DELTA_LOG_CAP {
            let excess = self.log.len() - DELTA_LOG_CAP;
            self.log.drain(..excess);
        }
        Ok(MutationReport {
            epoch: self.epoch,
            touched,
        })
    }

    /// Incrementally folds an inserted arc into the weak-component map.
    fn apply_insert_fp(&mut self, a: ArcId, tail: VertexId, head: VertexId) {
        let ah = arc_hash(a, tail, head);
        let rt = self.regions.region[tail.index()];
        let rh = self.regions.region[head.index()];
        if rt == rh {
            let idx = self
                .regions
                .fps
                .binary_search_by_key(&rt, |&(r, _)| r)
                .expect("region exists");
            self.regions.fps[idx].1 ^= ah;
            return;
        }
        let (keep, gone) = if rt < rh { (rt, rh) } else { (rh, rt) };
        for r in self.regions.region.iter_mut() {
            if *r == gone {
                *r = keep;
            }
        }
        let gone_idx = self
            .regions
            .fps
            .binary_search_by_key(&gone, |&(r, _)| r)
            .expect("region exists");
        let (_, gone_fp) = self.regions.fps.remove(gone_idx);
        let keep_idx = self
            .regions
            .fps
            .binary_search_by_key(&keep, |&(r, _)| r)
            .expect("region exists");
        self.regions.fps[keep_idx].1 ^= gone_fp ^ ah;
    }

    /// The contiguous delta records covering `(since_epoch, current]` (see
    /// [`EpochGraph::deltas_since`]).
    pub fn deltas_since(&self, since_epoch: u64) -> Option<&[DeltaRecord<ArcDelta>]> {
        if since_epoch > self.epoch {
            return None;
        }
        if since_epoch == self.epoch {
            return Some(&[]);
        }
        let oldest = self.epoch - self.log.len() as u64;
        if since_epoch < oldest {
            return None;
        }
        Some(&self.log[(since_epoch - oldest) as usize..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so tests need no external RNG.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn two_component_graph() -> UndirectedGraph {
        // Component A: {0,1,2}; component B: {3,4}; 5 isolated.
        UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn regions_are_min_vertex_components() {
        let g = two_component_graph();
        let map = RegionMap::of_undirected(&g);
        assert_eq!(map.region_of(VertexId(0)), Some(0));
        assert_eq!(map.region_of(VertexId(2)), Some(0));
        assert_eq!(map.region_of(VertexId(3)), Some(3));
        assert_eq!(map.region_of(VertexId(4)), Some(3));
        assert_eq!(map.region_of(VertexId(5)), Some(5));
        assert_eq!(map.region_of(VertexId(9)), None);
        let ids: Vec<u32> = map.regions().iter().map(|&(r, _)| r).collect();
        assert_eq!(ids, vec![0, 3, 5]);
    }

    #[test]
    fn signature_skips_out_of_range_and_dedups() {
        let g = two_component_graph();
        let map = RegionMap::of_undirected(&g);
        let sig = map.signature_of([VertexId(2), VertexId(1), VertexId(4), VertexId(99)]);
        let ids: Vec<u32> = sig.pairs().iter().map(|&(r, _)| r).collect();
        assert_eq!(ids, vec![0, 3]);
        assert!(sig.touches(0));
        assert!(!sig.touches(5));
        assert!(sig.intersects(&[3, 7]));
        assert!(!sig.intersects(&[5, 7]));
    }

    #[test]
    fn insert_in_one_region_leaves_others_untouched() {
        let mut eg = EpochGraph::new(two_component_graph());
        let before = eg.regions().clone();
        let (_, report) = eg.insert_edge(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.touched, vec![0]);
        assert_eq!(
            eg.regions().fingerprint(3),
            before.fingerprint(3),
            "region 3 fingerprint survives a mutation in region 0"
        );
        assert_ne!(eg.regions().fingerprint(0), before.fingerprint(0));
    }

    #[test]
    fn insert_merging_regions_touches_both() {
        let mut eg = EpochGraph::new(two_component_graph());
        let (_, report) = eg.insert_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(report.touched, vec![0, 3]);
        assert_eq!(eg.regions().region_of(VertexId(4)), Some(0));
        assert_eq!(eg.regions().fingerprint(3), None, "region 3 merged away");
    }

    #[test]
    fn removal_splitting_region_touches_fragments() {
        // Edge order puts {1,2} last so its removal renumbers nothing.
        let g = UndirectedGraph::from_edges(6, &[(3, 4), (0, 1), (1, 2)]).unwrap();
        let mut eg = EpochGraph::new(g);
        // Removing {1,2} splits region 0 into {0,1} and {2}.
        let report = eg.remove_edge(EdgeId(2)).unwrap();
        assert!(report.touched.contains(&0));
        assert!(report.touched.contains(&2), "new region 2 appears");
        assert!(!report.touched.contains(&3), "region 3 untouched");
        assert_eq!(eg.regions().region_of(VertexId(2)), Some(2));
    }

    #[test]
    fn removal_renumbering_touches_the_moved_edges_region() {
        // Edges: 0={0,1}, 1={1,2}, 2={3,4}. Removing edge 1 renumbers
        // edge 2 (in region 3) onto id 1 — edge ids appear in solution
        // sets, so region 3's fingerprint must change too.
        let mut eg = EpochGraph::new(two_component_graph());
        let report = eg.remove_edge(EdgeId(1)).unwrap();
        assert!(report.touched.contains(&3), "renumbered region invalidated");
    }

    #[test]
    fn maintained_fingerprints_match_fresh_recompute() {
        let mut rng = Rng(0x5eed);
        let mut eg = EpochGraph::new(UndirectedGraph::new(12));
        for step in 0..300 {
            let m = eg.graph().num_edges();
            if m == 0 || rng.below(3) > 0 {
                let u = VertexId::new(rng.below(12));
                let mut v = VertexId::new(rng.below(12));
                if u == v {
                    v = VertexId::new((v.index() + 1) % 12);
                }
                eg.insert_edge(u, v).unwrap();
            } else {
                eg.remove_edge(EdgeId::new(rng.below(m))).unwrap();
            }
            let fresh = RegionMap::of_undirected(eg.graph());
            assert_eq!(
                eg.regions(),
                &fresh,
                "maintained region map drifted at step {step}"
            );
            assert_eq!(eg.epoch(), step + 1);
        }
    }

    #[test]
    fn digraph_maintained_fingerprints_match_fresh_recompute() {
        let mut rng = Rng(0xbeef);
        let mut ed = EpochDigraph::new(DiGraph::new(9));
        for step in 0..200 {
            let m = ed.digraph().num_arcs();
            if m == 0 || rng.below(3) > 0 {
                let t = VertexId::new(rng.below(9));
                let mut h = VertexId::new(rng.below(9));
                if t == h {
                    h = VertexId::new((h.index() + 1) % 9);
                }
                ed.insert_arc(t, h).unwrap();
            } else {
                ed.remove_arc(ArcId::new(rng.below(m))).unwrap();
            }
            let fresh = RegionMap::of_digraph(ed.digraph());
            assert_eq!(
                ed.regions(),
                &fresh,
                "maintained digraph region map drifted at step {step}"
            );
        }
    }

    #[test]
    fn removal_keeps_adjacency_sorted_and_ids_dense() {
        let mut g =
            UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let rm = g.remove_edge(EdgeId(1)).unwrap();
        assert_eq!(rm.endpoints, (VertexId(0), VertexId(2)));
        assert_eq!(rm.moved, Some((EdgeId(4), VertexId(1), VertexId(2))));
        assert_eq!(g.num_edges(), 4);
        // Edge 1 is now the old edge 4 = {1,2}.
        assert_eq!(g.endpoints(EdgeId(1)), (VertexId(1), VertexId(2)));
        for v in g.vertices() {
            let ids: Vec<EdgeId> = g.adjacency(v).iter().map(|&(_, e)| e).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted, "adjacency of {v} stays sorted by edge id");
        }
    }

    #[test]
    fn batch_is_atomic_on_invalid_edit() {
        let mut eg = EpochGraph::new(two_component_graph());
        let before_fp = eg.fingerprint();
        let err = eg.batch_apply(&[
            GraphMutation::InsertEdge {
                u: VertexId(0),
                v: VertexId(5),
            },
            GraphMutation::RemoveEdge(EdgeId(99)),
        ]);
        assert!(matches!(err, Err(GraphError::EdgeOutOfRange { .. })));
        assert_eq!(eg.epoch(), 0, "failed batch does not advance the epoch");
        assert_eq!(eg.fingerprint(), before_fp);
        assert_eq!(eg.graph().num_edges(), 3);
    }

    #[test]
    fn deltas_since_covers_recent_epochs_and_truncates() {
        let mut eg = EpochGraph::new(UndirectedGraph::new(4));
        for _ in 0..3 {
            eg.insert_edge(VertexId(0), VertexId(1)).unwrap();
        }
        assert_eq!(eg.deltas_since(3).map(|d| d.len()), Some(0));
        assert_eq!(eg.deltas_since(1).map(|d| d.len()), Some(2));
        assert_eq!(eg.deltas_since(0).map(|d| d.len()), Some(3));
        assert!(eg.deltas_since(9).is_none(), "future epoch");
        for _ in 0..DELTA_LOG_CAP {
            eg.insert_edge(VertexId(2), VertexId(3)).unwrap();
        }
        assert!(eg.deltas_since(0).is_none(), "log truncated");
        let cur = eg.epoch();
        assert_eq!(
            eg.deltas_since(cur - DELTA_LOG_CAP as u64).map(|d| d.len()),
            Some(DELTA_LOG_CAP)
        );
    }

    #[test]
    fn fingerprints_are_process_stable() {
        // Pinned values: if these change, snapshot compatibility breaks and
        // SNAPSHOT_VERSION must be bumped again.
        let g = two_component_graph();
        let map = RegionMap::of_undirected(&g);
        let again = RegionMap::of_undirected(&g);
        assert_eq!(map, again);
        assert_ne!(map.fold(), 0);
        // Same structure, different edge id order => different fingerprints.
        let g2 = UndirectedGraph::from_edges(6, &[(1, 2), (0, 1), (3, 4)]).unwrap();
        let map2 = RegionMap::of_undirected(&g2);
        assert_ne!(map.fingerprint(0), map2.fingerprint(0));
        assert_eq!(map.fingerprint(3), map2.fingerprint(3));
    }
}
