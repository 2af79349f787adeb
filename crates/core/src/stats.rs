//! Enumeration statistics.
//!
//! Besides solution counts, the enumerators report the *shape* of their
//! enumeration tree — the quantity Figure 1 of the paper illustrates and
//! Theorems 17/20 rely on: in the improved enumerators every internal node
//! has at least two children, so internal nodes never outnumber leaves and
//! amortized work per solution is O(n + m).

/// Counters describing one enumeration run.
///
/// Returned by every [`Enumeration`](crate::solver::Enumeration)
/// front-end, and published once, when the run ends, through a
/// [`StatsHandle`](crate::solver::StatsHandle). Two groups measure two
/// different places: the engine counters ([`Self::solutions`],
/// [`Self::max_emission_gap`], work, nodes) describe what the search
/// emitted, before the output queue and the limit; the delivery counters
/// ([`Self::delivered`], [`Self::max_delivery_gap`]) describe what the
/// consumer received, counted once at the end of the delivery chain on
/// every front-end.
///
/// ```
/// use steiner_core::{Enumeration, SteinerTree};
/// use steiner_graph::{UndirectedGraph, VertexId};
///
/// let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let stats = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
///     .run()
///     .unwrap();
/// assert_eq!(stats.solutions, 2);
/// assert_eq!(stats.delivered, 2); // no queue, no limit: every emission is delivered
/// assert_eq!(stats.deficient_internal_nodes, 0); // the ≥2-children invariant
/// assert!(stats.max_emission_gap <= stats.work); // gaps live on the work clock
/// assert_eq!(stats.cache_hits + stats.cache_misses, 0); // no cache attached
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Solutions the engine emitted: [`Self::note_emission`] calls,
    /// before the output queue and the limit. A queued run stopped by its
    /// limit emits ahead of what it delivers (up to the queue's buffer),
    /// so this can exceed [`Self::delivered`]; a sharded run sums every
    /// instance's emissions; a cache replay reports the replayed count.
    pub solutions: u64,
    /// Work units (≈ vertices + arcs touched) spent after preprocessing.
    pub work: u64,
    /// Work units spent in preprocessing (before the first branching).
    pub preprocessing_work: u64,
    /// Nodes of the enumeration tree that were expanded.
    pub nodes: u64,
    /// Internal (branching) nodes.
    pub internal_nodes: u64,
    /// Leaf nodes (each emits exactly one solution).
    pub leaf_nodes: u64,
    /// Internal nodes that produced fewer than two children — the improved
    /// enumerators must keep this at zero (Theorem 17's invariant), except
    /// for the documented root special case of the terminal variant.
    pub deficient_internal_nodes: u64,
    /// Maximum recursion depth reached.
    pub max_depth: u32,
    /// Maximum work-unit gap between two consecutive engine emissions,
    /// plus the trailing gap to the end of the search: the engine's own
    /// delay, before the output queue. A sharded run reports the maximum
    /// over its instances, each measured on its own work counter.
    pub max_emission_gap: u64,
    /// Solutions handed to the consumer, counted by the end stage of the
    /// delivery chain — after the output queue and the
    /// [`with_limit`](crate::solver::Enumeration::with_limit) cap — on
    /// every front-end: push, pull, sharded, cache replay and the service.
    /// The solution a sink answers with `Break` counts.
    pub delivered: u64,
    /// Largest gap between consecutive deliveries on the run's delivery
    /// clock, plus the trailing gap from the last delivery to the end of
    /// the run. The wait before the first delivery is excluded: it holds
    /// `prepare` and the queue's warm-up, which Theorem 20 excludes too.
    /// Under the output queue on a sequential run this is the measured
    /// Theorem-20 delay. The clock is the engine's work counter on a
    /// sequential run and the merged clock on a sharded run, which sums
    /// the workers' counters and so also counts work done concurrently:
    /// a sharded figure is not a Theorem-20 bound. A cache replay has no
    /// clock, so its gap is 0.
    pub max_delivery_gap: u64,
    /// Heap allocations performed by the search *after* `prepare()`
    /// returned: buffer-growth events recorded by the reusable scratch
    /// structures (trail, CSR rebuilds, path-enumerator arenas). The
    /// improved enumerators keep this at **zero** on warm instances —
    /// the testable form of the "no allocator traffic in `recurse`"
    /// claim.
    pub scratch_allocs: u64,
    /// Bytes of scratch capacity owned by the search state at the end of
    /// the run (peak, since scratch buffers only grow).
    pub peak_scratch_bytes: u64,
    /// Result-cache hits: 1 when this run was served from a
    /// [`ResultCache`](crate::cache::ResultCache) instead of the engine
    /// (then `work` is 0 — no search ran), 0 otherwise. Sums under
    /// [`Self::merge`], so aggregated stats count hits across runs.
    pub cache_hits: u64,
    /// Result-cache misses: 1 when a `cached()` run had to run the
    /// engine (its stream was then recorded), 0 otherwise.
    pub cache_misses: u64,
    /// Bytes of live hash-consed solution payload in the attached
    /// result cache **after** this run — a gauge, not a per-run delta
    /// (0 when the run used none).
    pub interned_bytes: u64,
    /// [`ResultCache`](crate::cache::ResultCache) entries evicted (LRU)
    /// by this run's recording — the cache pressure *this query* caused.
    /// Sums under [`Self::merge`], so aggregated (e.g. per-tenant) stats
    /// report total evictions attributable to the aggregate.
    pub evicted_entries: u64,
    /// Shared-arena compactions triggered by this run's cache traffic
    /// (storing its recording, or rolling an aborted one back). Sums
    /// under [`Self::merge`].
    pub compactions: u64,
    /// Cache entries that survived a graph mutation because their
    /// region signature did not intersect the touched regions. Recorded
    /// by the service layer's mutation path; sums under [`Self::merge`].
    pub entries_retained: u64,
    /// Cache entries reclaimed by a graph mutation because their
    /// region signature intersected the touched regions. Sums under
    /// [`Self::merge`].
    pub entries_invalidated: u64,
    /// `classify` calls answered from incremental state instead of a
    /// fresh spanning-growth / contraction pass: forced-path queries on a
    /// [`DynamicSpanning`](steiner_graph::spanning::DynamicSpanning)
    /// skeleton (tree, terminal and directed), or the forest's rollback
    /// union–find labels of `F` and `G″`.
    pub classify_incremental: u64,
    /// `classify` calls the incremental layer could not settle, which
    /// ran the full per-node pass (spanning growth plus pruning, the
    /// completion plus exact two-path test, or the contraction plus
    /// Lemma-35 sweep). The tree, terminal and directed classifiers land
    /// here at branch nodes; the forest classifier never does.
    pub classify_rebuilds: u64,
    /// Vertices explored by the incremental layer's forced-path queries
    /// (`DynamicSpanning`'s early-exit BFS from a missing terminal
    /// toward the partial solution) across the run — the O(affected
    /// component) cost the layer pays instead of the per-node O(n + m)
    /// passes.
    pub connectivity_repairs: u64,
    /// Largest single forced-path query (vertices explored by one BFS)
    /// — a gauge for the worst-case affected-component size, merged by
    /// maximum across shards.
    pub max_repair_span: u64,
    /// Subtrees this run handed to the steal pool (work-stealing sharded
    /// front-end): each is one branch child whose execution migrated to
    /// an idle worker (or, when the coordinator had to keep the merge
    /// moving, was replayed inline by the coordinator itself). Counted by
    /// the *spawning* worker at hand-off time; sums under [`Self::merge`].
    pub subtrees_stolen: u64,
    /// Steal offers rejected because the pool's bounded pending deque was
    /// full (the subtree was then executed locally, exactly as without
    /// stealing). Sums under [`Self::merge`].
    pub steal_failures: u64,
    /// Work units spent inside the path-generation core (`steiner-paths`'
    /// `E-STP`/`F-STP` enumerator) across all branch-node calls — a
    /// subset of [`Self::work`], surfaced so the size-sweep bench can
    /// report the path-generation share directly. Sums under
    /// [`Self::merge`].
    pub path_gen_work: u64,
    /// Always 0: the path enumerator keeps no reverse BFS across `E-STP`
    /// activations, so none is ever served from a cache. Kept, with
    /// [`Self::fstp_cache_misses`], for readers of the counter pair.
    pub fstp_cache_hits: u64,
    /// `F-STP` floods: one per `E-STP` activation, each computing its own
    /// reverse BFS (cut short once every head of `s′` is reached, and
    /// skipped when no head is left to reach). Sums under
    /// [`Self::merge`].
    pub fstp_cache_misses: u64,
    /// Work units at the last emission (internal bookkeeping for the gap).
    last_emission_work: u64,
    /// Whether anything was emitted yet (the first gap counts from zero).
    emitted_any: bool,
}

impl EnumStats {
    /// The statistics of a run served entirely from a
    /// [`ResultCache`](crate::cache::ResultCache): one cache hit, no
    /// engine work.
    pub(crate) fn for_cache_hit() -> Self {
        EnumStats {
            cache_hits: 1,
            ..EnumStats::default()
        }
    }

    /// Notes an emission at the current work counter, updating the gap
    /// statistics.
    pub fn note_emission(&mut self) {
        let now = self.work;
        let gap = now - self.last_emission_work;
        if gap > self.max_emission_gap {
            self.max_emission_gap = gap;
        }
        self.last_emission_work = now;
        self.emitted_any = true;
        self.solutions += 1;
    }

    /// Notes the end of the enumeration (the trailing gap also counts, per
    /// the paper's delay definition).
    pub fn note_end(&mut self) {
        let gap = self.work - self.last_emission_work;
        if self.emitted_any && gap > self.max_emission_gap {
            self.max_emission_gap = gap;
        }
    }

    /// Records the search's scratch accounting (see
    /// [`crate::trail::ScratchUsage`]); called by the problems'
    /// `seal_stats` when a run finishes.
    pub fn note_scratch(&mut self, usage: crate::trail::ScratchUsage) {
        self.scratch_allocs = usage.allocs;
        if usage.bytes > self.peak_scratch_bytes {
            self.peak_scratch_bytes = usage.bytes;
        }
    }

    /// Folds another run's counters into this one — the aggregation rule
    /// of the sharded front-end
    /// ([`Enumeration::with_threads`](crate::solver::Enumeration::with_threads))
    /// and of the service's per-tenant totals: additive counters sum
    /// (each worker's work, nodes, emissions and allocations are real
    /// costs paid on some thread; `peak_scratch_bytes` sums because every
    /// worker owns its own scratch heaps; `delivered` sums across runs),
    /// extrema and gaps take the maximum. Note two sharding artifacts:
    /// the root node is expanded once *per shard*, so `nodes` counts it
    /// `k` times, and each instance's `max_emission_gap` is measured
    /// against its own work clock. A sharded run's delivery counters come
    /// from the merge point's delivery chain, not from this fold.
    pub fn merge(&mut self, other: &EnumStats) {
        self.solutions += other.solutions;
        self.delivered += other.delivered;
        self.max_delivery_gap = self.max_delivery_gap.max(other.max_delivery_gap);
        self.work += other.work;
        self.preprocessing_work += other.preprocessing_work;
        self.nodes += other.nodes;
        self.internal_nodes += other.internal_nodes;
        self.leaf_nodes += other.leaf_nodes;
        self.deficient_internal_nodes += other.deficient_internal_nodes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.max_emission_gap = self.max_emission_gap.max(other.max_emission_gap);
        self.scratch_allocs += other.scratch_allocs;
        self.peak_scratch_bytes += other.peak_scratch_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        // A gauge over a shared arena, not a per-run cost: take the max.
        self.interned_bytes = self.interned_bytes.max(other.interned_bytes);
        // Cache pressure is attributable per run: sum it.
        self.evicted_entries += other.evicted_entries;
        self.compactions += other.compactions;
        // Mutation-time invalidation accounting is additive per batch.
        self.entries_retained += other.entries_retained;
        self.entries_invalidated += other.entries_invalidated;
        // Incremental-classification passes and repair work are real
        // per-thread costs: sum them. The repair span is a gauge.
        self.classify_incremental += other.classify_incremental;
        self.classify_rebuilds += other.classify_rebuilds;
        self.connectivity_repairs += other.connectivity_repairs;
        self.max_repair_span = self.max_repair_span.max(other.max_repair_span);
        // Steal accounting is per-event and attributable to exactly one
        // worker: sum both the hand-offs and the rejected offers.
        self.subtrees_stolen += other.subtrees_stolen;
        self.steal_failures += other.steal_failures;
        // Path-generation accounting is per-call and additive.
        self.path_gen_work += other.path_gen_work;
        self.fstp_cache_hits += other.fstp_cache_hits;
        self.fstp_cache_misses += other.fstp_cache_misses;
        self.emitted_any |= other.emitted_any;
    }

    /// Folds one forced-path query snapshot (the cumulative counters of
    /// a [`DynamicSpanning`](steiner_graph::spanning::DynamicSpanning),
    /// as returned by its `repair_stats`) into this run's statistics.
    pub fn note_connectivity(&mut self, repair: (u64, u64, u64)) {
        let (_queries, explored, max_explored) = repair;
        self.connectivity_repairs = explored;
        self.max_repair_span = self.max_repair_span.max(max_explored);
    }

    /// Records one expanded node with its child count and depth.
    pub fn note_node(&mut self, children: u64, depth: u32) {
        self.nodes += 1;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
        if children == 0 {
            self.leaf_nodes += 1;
        } else {
            self.internal_nodes += 1;
            if children < 2 {
                self.deficient_internal_nodes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_gaps_track_work() {
        let mut s = EnumStats {
            work: 10,
            ..Default::default()
        };
        let _ = &mut s;
        s.note_emission();
        s.work = 25;
        s.note_emission();
        s.work = 30;
        s.note_end();
        assert_eq!(s.solutions, 2);
        assert_eq!(s.max_emission_gap, 15);
    }

    #[test]
    fn trailing_gap_counts() {
        let mut s = EnumStats {
            work: 5,
            ..Default::default()
        };
        let _ = &mut s;
        s.note_emission();
        s.work = 105;
        s.note_end();
        assert_eq!(s.max_emission_gap, 100);
    }

    #[test]
    fn merge_sums_counters_and_maxes_extrema() {
        let mut a = EnumStats {
            work: 100,
            ..Default::default()
        };
        a.note_emission();
        a.note_node(3, 2);
        let mut b = EnumStats {
            work: 40,
            preprocessing_work: 7,
            scratch_allocs: 2,
            peak_scratch_bytes: 64,
            cache_hits: 1,
            cache_misses: 2,
            interned_bytes: 96,
            evicted_entries: 3,
            compactions: 1,
            ..Default::default()
        };
        b.note_emission();
        b.note_emission();
        b.note_node(0, 5);
        a.delivered = 1;
        a.max_delivery_gap = 30;
        b.delivered = 2;
        b.max_delivery_gap = 12;
        a.merge(&b);
        assert_eq!(a.solutions, 3);
        assert_eq!(a.delivered, 3, "deliveries sum");
        assert_eq!(a.max_delivery_gap, 30, "the delivery gap takes the max");
        assert_eq!(a.work, 140);
        assert_eq!(a.preprocessing_work, 7);
        assert_eq!(a.nodes, 2);
        assert_eq!(a.internal_nodes, 1);
        assert_eq!(a.leaf_nodes, 1);
        assert_eq!(a.max_depth, 5);
        assert_eq!(a.max_emission_gap, 100, "extrema take the max");
        assert_eq!(a.scratch_allocs, 2);
        assert_eq!(a.peak_scratch_bytes, 64);
        assert_eq!(a.cache_hits, 1, "cache counters sum");
        assert_eq!(a.cache_misses, 2);
        assert_eq!(a.interned_bytes, 96, "the shared-arena gauge takes the max");
        assert_eq!(a.evicted_entries, 3, "cache pressure sums");
        assert_eq!(a.compactions, 1);
    }

    #[test]
    fn merge_folds_cache_pressure() {
        // Per-run pressure counters are additive costs: each eviction and
        // each compaction happened exactly once, on some run's behalf.
        let mut a = EnumStats {
            evicted_entries: 2,
            compactions: 1,
            ..Default::default()
        };
        let b = EnumStats {
            evicted_entries: 5,
            compactions: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.evicted_entries, 7);
        assert_eq!(a.compactions, 4);
        // Merging an idle run changes nothing.
        let before = a;
        a.merge(&EnumStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_folds_incremental_counters() {
        // Passes and repair work sum (each worker paid them on its own
        // thread); the repair span is a gauge and takes the max.
        let a0 = EnumStats {
            classify_incremental: 10,
            classify_rebuilds: 2,
            connectivity_repairs: 40,
            max_repair_span: 7,
            ..Default::default()
        };
        let b = EnumStats {
            classify_incremental: 5,
            classify_rebuilds: 0,
            connectivity_repairs: 9,
            max_repair_span: 31,
            ..Default::default()
        };
        let mut a = a0;
        a.merge(&b);
        assert_eq!(a.classify_incremental, 15, "passes sum");
        assert_eq!(a.classify_rebuilds, 2, "rebuilds sum");
        assert_eq!(a.connectivity_repairs, 49, "repair work sums");
        assert_eq!(a.max_repair_span, 31, "the span gauge takes the max");
        // The fold is order-insensitive for these counters.
        let mut c = b;
        c.merge(&a0);
        assert_eq!(c.classify_incremental, a.classify_incremental);
        assert_eq!(c.classify_rebuilds, a.classify_rebuilds);
        assert_eq!(c.connectivity_repairs, a.connectivity_repairs);
        assert_eq!(c.max_repair_span, a.max_repair_span);
        // Merging a default (idle worker) changes nothing.
        let mut d = a;
        d.merge(&EnumStats::default());
        assert_eq!(d, a);
    }

    #[test]
    fn merge_folds_steal_counters() {
        // Every hand-off and every rejected offer happened exactly once,
        // on exactly one worker's behalf: the fold sums both.
        let a0 = EnumStats {
            subtrees_stolen: 4,
            steal_failures: 1,
            ..Default::default()
        };
        let b = EnumStats {
            subtrees_stolen: 3,
            steal_failures: 2,
            ..Default::default()
        };
        let mut a = a0;
        a.merge(&b);
        assert_eq!(a.subtrees_stolen, 7, "hand-offs sum");
        assert_eq!(a.steal_failures, 3, "rejected offers sum");
        // The fold is order-insensitive.
        let mut c = b;
        c.merge(&a0);
        assert_eq!(c.subtrees_stolen, a.subtrees_stolen);
        assert_eq!(c.steal_failures, a.steal_failures);
        // Merging an idle worker (no steal traffic) changes nothing.
        let before = a;
        a.merge(&EnumStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_folds_path_generation_counters() {
        let a0 = EnumStats {
            path_gen_work: 120,
            fstp_cache_hits: 5,
            fstp_cache_misses: 9,
            ..Default::default()
        };
        let b = EnumStats {
            path_gen_work: 30,
            fstp_cache_hits: 2,
            fstp_cache_misses: 1,
            ..Default::default()
        };
        let mut a = a0;
        a.merge(&b);
        assert_eq!(a.path_gen_work, 150, "path work sums");
        assert_eq!(a.fstp_cache_hits, 7, "hits sum");
        assert_eq!(a.fstp_cache_misses, 10, "misses sum");
        let mut c = b;
        c.merge(&a0);
        assert_eq!(c.path_gen_work, a.path_gen_work, "order-insensitive");
    }

    #[test]
    fn note_connectivity_snapshots_the_gauge() {
        let mut s = EnumStats::default();
        s.note_connectivity((3, 25, 11));
        assert_eq!(s.connectivity_repairs, 25);
        assert_eq!(s.max_repair_span, 11);
        // A later, larger snapshot replaces the cumulative counter but
        // the span stays a high-water mark.
        s.note_connectivity((5, 40, 6));
        assert_eq!(s.connectivity_repairs, 40);
        assert_eq!(s.max_repair_span, 11);
    }

    #[test]
    fn node_shape_counters() {
        let mut s = EnumStats::default();
        s.note_node(3, 0);
        s.note_node(0, 1);
        s.note_node(1, 1);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.internal_nodes, 2);
        assert_eq!(s.leaf_nodes, 1);
        assert_eq!(s.deficient_internal_nodes, 1);
        assert_eq!(s.max_depth, 1);
    }
}
