//! Graph epochs: mutable graphs with region-level fingerprints.
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
//! [`Epoch`] wraps either graph kind ([`EpochGraph`], [`EpochDigraph`])
//! with:
//!
//! * a monotone **epoch counter**, advanced once per mutation batch,
//! * a maintained [`RegionMap`] (region fingerprints kept incrementally on
//!   inserts, recomputed and diffed on removals).
//!
//! What differs between the kinds — the edit type, the labeling, the
//! counts and the edits themselves — is the [`EpochKind`] trait.
//!
//! All hashes use fixed splitmix64-style constants, so fingerprints are
//! stable across processes and can be embedded in snapshots.

use crate::digraph::DiGraph;
use crate::ids::{ArcId, EdgeId, VertexId};
use crate::undirected::UndirectedGraph;
use crate::{GraphError, Result};

/// Seed for per-vertex hashes.
const SEED_VERTEX: u64 = 0x9e37_79b9_7f4a_7c15;
/// Seed for per-undirected-edge hashes.
const SEED_EDGE: u64 = 0xd1b5_4a32_d192_ed03;
/// Seed for per-arc hashes.
const SEED_ARC: u64 = 0x8cb9_2ba7_2f3d_8dd7;

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

/// The shape of one edit of either kind, as [`Epoch::validate`] and
/// [`Epoch::batch_apply`] read it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Insert the edge `{u, v}` or the arc `(tail, head)`.
    Insert(VertexId, VertexId),
    /// Remove the edge or arc with this id.
    Remove(usize),
}

impl From<GraphMutation> for Edit {
    fn from(mu: GraphMutation) -> Edit {
        match mu {
            GraphMutation::InsertEdge { u, v } => Edit::Insert(u, v),
            GraphMutation::RemoveEdge(e) => Edit::Remove(e.index()),
        }
    }
}

impl From<ArcMutation> for Edit {
    fn from(mu: ArcMutation) -> Edit {
        match mu {
            ArcMutation::InsertArc { tail, head } => Edit::Insert(tail, head),
            ArcMutation::RemoveArc(a) => Edit::Remove(a.index()),
        }
    }
}

/// What [`Epoch`] needs from a graph kind: its edit type, its full
/// region labeling, its counts, and the two structural edits.
pub trait EpochKind {
    /// One edit to this kind of graph.
    type Mutation: Copy + Into<Edit>;

    /// Labels every region from scratch.
    fn region_map(&self) -> RegionMap;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges or arcs.
    fn num_items(&self) -> usize;

    /// Inserts a validated edge or arc under the next dense id and
    /// returns its hash, the term it adds to its region's fingerprint.
    fn insert(&mut self, u: VertexId, v: VertexId) -> u64;

    /// Removes a validated edge or arc; the last one is renumbered onto
    /// its id.
    fn remove(&mut self, id: usize);
}

impl EpochKind for UndirectedGraph {
    type Mutation = GraphMutation;

    fn region_map(&self) -> RegionMap {
        RegionMap::of_undirected(self)
    }

    fn num_vertices(&self) -> usize {
        UndirectedGraph::num_vertices(self)
    }

    fn num_items(&self) -> usize {
        self.num_edges()
    }

    fn insert(&mut self, u: VertexId, v: VertexId) -> u64 {
        let e = self.add_edge(u, v).expect("batch validated");
        edge_hash(e, u, v)
    }

    fn remove(&mut self, id: usize) {
        self.remove_edge(EdgeId::new(id)).expect("batch validated");
    }
}

impl EpochKind for DiGraph {
    type Mutation = ArcMutation;

    fn region_map(&self) -> RegionMap {
        RegionMap::of_digraph(self)
    }

    fn num_vertices(&self) -> usize {
        DiGraph::num_vertices(self)
    }

    fn num_items(&self) -> usize {
        self.num_arcs()
    }

    fn insert(&mut self, tail: VertexId, head: VertexId) -> u64 {
        let a = self.add_arc(tail, head).expect("batch validated");
        arc_hash(a, tail, head)
    }

    fn remove(&mut self, id: usize) {
        self.remove_arc(ArcId::new(id)).expect("batch validated");
    }
}

/// Summary of one applied mutation batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// The epoch the graph is now at.
    pub epoch: u64,
    /// Region ids whose fingerprint changed (old ∪ new ids), sorted.
    pub touched: Vec<u32>,
}

/// A graph under epoch management: every mutation batch advances the
/// epoch and updates the region fingerprints. Read access is by
/// [`Self::graph`]; structural writes must go through
/// [`Self::batch_apply`] so the bookkeeping stays truthful.
#[derive(Clone, Debug)]
pub struct Epoch<G> {
    g: G,
    epoch: u64,
    regions: RegionMap,
}

/// An [`UndirectedGraph`] under epoch management.
pub type EpochGraph = Epoch<UndirectedGraph>;

/// A [`DiGraph`] under epoch management; its regions are weak components.
pub type EpochDigraph = Epoch<DiGraph>;

impl<G: EpochKind> Epoch<G> {
    /// Wraps a graph at epoch 0, computing its region map.
    pub fn new(g: G) -> Self {
        let regions = g.region_map();
        Epoch {
            g,
            epoch: 0,
            regions,
        }
    }

    /// The wrapped graph (read-only).
    pub fn graph(&self) -> &G {
        &self.g
    }

    /// Current epoch (0 for a freshly wrapped graph).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained region map (always consistent with [`Self::graph`]).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Checks a batch against the current graph without applying anything,
    /// simulating the evolving edge or arc count so later edits in the
    /// batch see the ids earlier ones create or free.
    pub fn validate(&self, batch: &[G::Mutation]) -> Result<()> {
        let n = self.g.num_vertices();
        let mut m = self.g.num_items();
        for &mu in batch {
            match mu.into() {
                Edit::Insert(u, v) => {
                    if u.index() >= n || v.index() >= n {
                        return Err(GraphError::VertexOutOfRange {
                            vertex: u.index().max(v.index()),
                            num_vertices: n,
                        });
                    }
                    if u == v {
                        return Err(GraphError::SelfLoop { vertex: u.index() });
                    }
                    m += 1;
                }
                Edit::Remove(id) => {
                    if id >= m {
                        return Err(GraphError::EdgeOutOfRange {
                            edge: id,
                            num_edges: m,
                        });
                    }
                    m -= 1;
                }
            }
        }
        Ok(())
    }

    /// Applies a mutation batch atomically: the whole batch is validated
    /// up front, then applied as **one** epoch step. Returns the new epoch
    /// and the touched-region set (regions whose fingerprint changed).
    pub fn batch_apply(&mut self, batch: &[G::Mutation]) -> Result<MutationReport> {
        self.validate(batch)?;
        // lint:allow(alloc) per-batch diff baseline: mutations are the cold side
        let old_fps = self.regions.fps.clone();
        let mut removed_any = false;
        for &mu in batch {
            match mu.into() {
                Edit::Insert(u, v) => {
                    let hash = self.g.insert(u, v);
                    if !removed_any {
                        self.apply_insert_fp(u, v, hash);
                    }
                }
                Edit::Remove(id) => {
                    self.g.remove(id);
                    removed_any = true;
                }
            }
        }
        if removed_any {
            // Removals can split regions and renumber edges; recompute and
            // let the fingerprint diff pick up every affected region.
            self.regions = self.g.region_map();
        }
        self.epoch += 1;
        Ok(MutationReport {
            epoch: self.epoch,
            touched: diff_fps(&old_fps, &self.regions.fps),
        })
    }

    /// Incrementally folds an inserted edge or arc with hash `hash` into
    /// the region map: same region is an O(log R) fingerprint update;
    /// distinct regions merge into the smaller canonical id with an O(n)
    /// relabel.
    fn apply_insert_fp(&mut self, u: VertexId, v: VertexId, hash: u64) {
        let ru = self.regions.region[u.index()];
        let rv = self.regions.region[v.index()];
        let fps = &mut self.regions.fps;
        let slot = |fps: &[(u32, u64)], r: u32| {
            fps.binary_search_by_key(&r, |&(id, _)| id)
                .expect("region exists")
        };
        if ru == rv {
            let idx = slot(fps, ru);
            fps[idx].1 ^= hash;
            return;
        }
        let (keep, gone) = if ru < rv { (ru, rv) } else { (rv, ru) };
        for r in self.regions.region.iter_mut() {
            if *r == gone {
                *r = keep;
            }
        }
        let (_, gone_fp) = fps.remove(slot(fps, gone));
        let idx = slot(fps, keep);
        fps[idx].1 ^= gone_fp ^ hash;
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

    fn ins(u: u32, v: u32) -> GraphMutation {
        GraphMutation::InsertEdge {
            u: VertexId(u),
            v: VertexId(v),
        }
    }

    /// Applies `steps` random batches of 1–4 mixed edits, inserts twice as
    /// likely as removals, and checks after each batch that the maintained
    /// region map equals a fresh labeling. `edit` turns the generic shape
    /// into the kind's mutation.
    fn check_random_batches<G: EpochKind>(
        mut eg: Epoch<G>,
        seed: u64,
        steps: u64,
        edit: impl Fn(Edit) -> G::Mutation,
    ) {
        let mut rng = Rng(seed);
        let n = eg.graph().num_vertices();
        let mut insert_after_removal = 0;
        for step in 0..steps {
            let mut m = eg.graph().num_items();
            let mut removed = false;
            let len = 1 + rng.below(4);
            let batch: Vec<G::Mutation> = (0..len)
                .map(|_| {
                    if m == 0 || rng.below(3) > 0 {
                        let u = rng.below(n);
                        let v = (u + 1 + rng.below(n - 1)) % n;
                        m += 1;
                        insert_after_removal += usize::from(removed);
                        edit(Edit::Insert(VertexId::new(u), VertexId::new(v)))
                    } else {
                        let id = rng.below(m);
                        m -= 1;
                        removed = true;
                        edit(Edit::Remove(id))
                    }
                })
                .collect();
            let report = eg.batch_apply(&batch).unwrap();
            assert_eq!(
                eg.regions(),
                &eg.graph().region_map(),
                "maintained region map drifted at step {step}"
            );
            assert_eq!((report.epoch, eg.epoch()), (step + 1, step + 1));
        }
        // An insert after a removal skips the incremental fold.
        assert!(insert_after_removal > 0, "no batch reached that path");
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
        let report = eg.batch_apply(&[ins(0, 2)]).unwrap();
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
        let report = eg.batch_apply(&[ins(2, 3)]).unwrap();
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
        let report = eg
            .batch_apply(&[GraphMutation::RemoveEdge(EdgeId(2))])
            .unwrap();
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
        let report = eg
            .batch_apply(&[GraphMutation::RemoveEdge(EdgeId(1))])
            .unwrap();
        assert!(report.touched.contains(&3), "renumbered region invalidated");
    }

    #[test]
    fn maintained_fingerprints_match_fresh_recompute() {
        let eg = EpochGraph::new(UndirectedGraph::new(12));
        check_random_batches(eg, 0x5eed, 300, |edit| match edit {
            Edit::Insert(u, v) => GraphMutation::InsertEdge { u, v },
            Edit::Remove(id) => GraphMutation::RemoveEdge(EdgeId::new(id)),
        });
    }

    #[test]
    fn digraph_maintained_fingerprints_match_fresh_recompute() {
        let ed = EpochDigraph::new(DiGraph::new(9));
        check_random_batches(ed, 0xbeef, 200, |edit| match edit {
            Edit::Insert(tail, head) => ArcMutation::InsertArc { tail, head },
            Edit::Remove(id) => ArcMutation::RemoveArc(ArcId::new(id)),
        });
    }

    #[test]
    fn removal_keeps_adjacency_sorted_and_ids_dense() {
        let mut g =
            UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let last = g.endpoints(EdgeId(4));
        let removed = g.remove_edge(EdgeId(1)).unwrap();
        assert_eq!(removed, (VertexId(0), VertexId(2)));
        assert_eq!(g.num_edges(), 4);
        // Edge 1 is now the old edge 4 = {1,2}.
        assert_eq!(last, (VertexId(1), VertexId(2)));
        assert_eq!(g.endpoints(EdgeId(1)), last);
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
        let before = eg.regions().clone();
        let err = eg.batch_apply(&[ins(0, 5), GraphMutation::RemoveEdge(EdgeId(99))]);
        assert!(matches!(err, Err(GraphError::EdgeOutOfRange { .. })));
        assert_eq!(eg.epoch(), 0, "failed batch does not advance the epoch");
        assert_eq!(eg.regions(), &before);
        assert_eq!(eg.graph().num_edges(), 3);
    }

    #[test]
    fn deltas_since_covers_recent_epochs_and_truncates() {
        // Named for the replay log this counter used to index: the epoch
        // advances once per applied batch, empty or multi-edit alike, and
        // a long run of batches keeps nothing but the counter.
        let mut eg = EpochGraph::new(UndirectedGraph::new(4));
        let report = eg.batch_apply(&[]).unwrap();
        assert_eq!((report.epoch, report.touched), (1, vec![]));
        // {2,3} is renumbered onto the freed id 0, then {1,2} joins it.
        let batch = [
            ins(0, 1),
            ins(2, 3),
            GraphMutation::RemoveEdge(EdgeId(0)),
            ins(1, 2),
        ];
        let report = eg.batch_apply(&batch).unwrap();
        assert_eq!((report.epoch, report.touched), (2, vec![1, 2, 3]));
        assert_eq!(eg.graph().endpoints(EdgeId(0)), (VertexId(2), VertexId(3)));
        for _ in 0..100 {
            eg.batch_apply(&[ins(0, 3)]).unwrap();
        }
        assert_eq!(eg.epoch(), 102);
        assert_eq!(eg.regions(), &RegionMap::of_undirected(eg.graph()));
    }

    #[test]
    fn fingerprints_are_process_stable() {
        // Pinned values: stored snapshots carry these fingerprints, so a
        // change to `edge_hash`, `arc_hash` or `RegionMap::label` would
        // fail every restore with `GraphMismatch`. If one is meant,
        // re-pin here and bump SNAPSHOT_VERSION.
        let isolated = (5, 0x16b1_cba9_5fc6_0262);
        let g = two_component_graph();
        assert_eq!(
            RegionMap::of_undirected(&g).regions(),
            &[
                (0, 0xa608_3882_38ca_7213),
                (3, 0x7f53_b403_c92e_4c3a),
                isolated
            ]
        );
        // Same structure, different edge id order: region 0 differs.
        let g2 = UndirectedGraph::from_edges(6, &[(1, 2), (0, 1), (3, 4)]).unwrap();
        assert_eq!(
            RegionMap::of_undirected(&g2).regions(),
            &[
                (0, 0x2bd0_3b01_1403_657d),
                (3, 0x7f53_b403_c92e_4c3a),
                isolated
            ]
        );
        // Weak components of a digraph: {0,1,2} via 1's out-arcs, the
        // 2-cycle {3,4}, and 5 isolated.
        let d = DiGraph::from_arcs(6, &[(1, 0), (1, 2), (3, 4), (4, 3)]).unwrap();
        assert_eq!(
            RegionMap::of_digraph(&d).regions(),
            &[
                (0, 0xeb37_7652_6e3d_2700),
                (3, 0xfde7_1a8d_e6f3_5882),
                isolated
            ]
        );
    }
}
