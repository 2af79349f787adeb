//! The long-lived engine: worker pool, admission control, fair
//! scheduling, live graph mutation, and warm-restart persistence.
//!
//! See the [crate docs](crate) for the architecture overview and an
//! end-to-end example.

use std::collections::{HashMap, VecDeque};
use std::ops::{ControlFlow, Deref};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use steiner_core::snapshot::paper_problem_kinds;
use steiner_core::{
    CacheStats, DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem, ResultCache,
    SnapshotError, SnapshotItem, SteinerError, SteinerForest, SteinerTree, TerminalSteinerTree,
};
use steiner_graph::epoch::{
    ArcMutation, Epoch, EpochDigraph, EpochGraph, EpochKind, GraphMutation,
};
use steiner_graph::{ArcId, DiGraph, EdgeId, GraphError, UndirectedGraph};

use crate::query::{Query, QueryOptions, QueryOutcome, SolutionItems, Ticket};
use crate::session::Session;

/// Rejection reason for directed queries on an engine built without a
/// directed graph view.
pub(crate) const NO_DIGRAPH: &str =
    "directed query on an engine built without a directed graph view";

/// Rejection reason for submissions after the engine started shutting
/// down.
const SHUT_DOWN: &str = "engine is shut down";

/// Stride-scheduling quantum: a tenant of weight `w` advances its pass
/// by `STRIDE / w` per dispatched query, so dispatch frequency is
/// proportional to weight.
const STRIDE: u64 = 1 << 20;

/// Leading magic of the engine-level snapshot frame ("STeiner
/// SerVice"). Version-1 frames had no magic (they began with a raw
/// length), so its absence identifies a v1 blob.
const SERVICE_MAGIC: [u8; 4] = *b"STSV";

/// Current engine-frame version. Version 2 added the magic, this
/// version field, and the serving-epoch tag; readers reject anything
/// else with [`SnapshotError::VersionSkew`].
const SERVICE_VERSION: u32 = 2;

/// Sizing and admission knobs for an [`EnumerationEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads executing queries (at least 1). Each query runs
    /// on one worker; a query may additionally shard itself via
    /// [`QueryOptions::threads`](crate::QueryOptions::threads).
    pub workers: usize,
    /// Global cap on admitted-but-unfinished queries (queued plus
    /// running, across all tenants). A submission beyond the cap is
    /// rejected with [`SteinerError::AdmissionRejected`] — the engine
    /// never queues unboundedly.
    pub max_in_flight: usize,
    /// Per-tenant cap on *queued* (not yet dispatched) queries. A
    /// tenant at its cap is rejected with
    /// [`SteinerError::AdmissionRejected`] even when the global pool
    /// has room, so one tenant cannot squat the whole pool.
    pub tenant_queue_depth: usize,
    /// Byte capacity for each of the engine's two result caches
    /// ([`ResultCache::with_capacity_bytes`]); `None` uses the cache's
    /// default capacity.
    pub cache_capacity_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_in_flight: 32,
            tenant_queue_depth: 8,
            cache_capacity_bytes: None,
        }
    }
}

/// What one mutation batch did to the engine, returned by
/// [`EnumerationEngine::apply_mutations`] /
/// [`EnumerationEngine::apply_arc_mutations`].
///
/// Edge and arc ids are dense per epoch, and a removal renumbers the last
/// id onto the removed one, so ids read from an earlier epoch's solutions
/// may name different edges (or arcs) after the batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The serving epoch *after* the batch: every query admitted from
    /// now on runs against the mutated graph.
    pub epoch: u64,
    /// Canonical region ids (minimum vertex id per connected
    /// component, pre- or post-mutation) whose fingerprint changed.
    pub touched_regions: Vec<u32>,
    /// Cache entries that survived the batch because their region
    /// signature avoided every touched region.
    pub entries_retained: u64,
    /// Cache entries reclaimed because their region signature
    /// intersected a touched region.
    pub entries_invalidated: u64,
}

/// One admitted, not-yet-executed query.
struct Job {
    query: Query,
    opts: QueryOptions,
    /// The serving epoch the query was admitted under. A job only
    /// dispatches while the engine is at exactly this epoch, so its
    /// stream is byte-identical to a one-shot run against the graph as
    /// of admission.
    epoch: u64,
    done: crossbeam_channel::Sender<QueryOutcome>,
}

/// Per-tenant scheduler state and lifetime counters.
struct TenantState {
    name: String,
    weight: u32,
    /// Stride-scheduling pass: the tenant with the smallest pass (ties
    /// broken by name) is dispatched next.
    pass: u64,
    queue: VecDeque<Job>,
    /// [`EnumStats::merge`]-fold of every completed query's counters.
    stats: EnumStats,
    completed: u64,
    rejected: u64,
    deadline_exceeded: u64,
}

/// State behind the engine's scheduler lock.
struct Scheduler {
    tenants: Vec<TenantState>,
    by_name: HashMap<String, usize>,
    /// Admitted and not yet finished (queued + running), all tenants.
    in_flight: usize,
    /// The serving epoch: queries admitted at this epoch may dispatch.
    epoch: u64,
    /// The epoch new submissions are admitted under. Equals `epoch`
    /// except while a mutation batch is fencing, when it is
    /// `epoch + 1` — submissions made during the fence run against the
    /// *mutated* graph.
    target_epoch: u64,
    /// Jobs admitted at `epoch`, queued or running. A mutation batch
    /// waits for this to reach zero before touching the graph.
    current_unfinished: usize,
    /// Jobs admitted at `target_epoch` while a fence is up; they
    /// become `current_unfinished` when the mutation commits.
    next_unfinished: usize,
    /// [`EnumStats`] fold of every mutation batch's retained /
    /// invalidated entry counts.
    mutation_stats: EnumStats,
    paused: bool,
    shutdown: bool,
}

impl Scheduler {
    /// Picks the queued job of the tenant with the minimum (pass, name)
    /// and advances that tenant's pass — stride-scheduled weighted
    /// round-robin, deterministic given the queue states. Jobs admitted
    /// under a future epoch (while a mutation fence is up) are held
    /// back; per-tenant queues are FIFO and admission epochs are
    /// monotone, so gating on the queue front is exact.
    fn next_job(&mut self) -> Option<(usize, Job)> {
        let mut best: Option<usize> = None;
        for i in 0..self.tenants.len() {
            let dispatchable = self.tenants[i]
                .queue
                .front()
                .is_some_and(|j| j.epoch == self.epoch);
            if !dispatchable {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let (ti, tb) = (&self.tenants[i], &self.tenants[b]);
                    if (ti.pass, ti.name.as_str()) < (tb.pass, tb.name.as_str()) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let i = best?;
        let weight = u64::from(self.tenants[i].weight.max(1));
        self.tenants[i].pass = self.tenants[i].pass.saturating_add(STRIDE / weight);
        let job = self.tenants[i]
            .queue
            .pop_front()
            .expect("queue checked non-empty");
        Some((i, job))
    }

    /// The smallest pass among registered tenants — the starting pass
    /// for a newcomer, so joining late never grants catch-up credit.
    fn min_pass(&self) -> u64 {
        self.tenants.iter().map(|t| t.pass).min().unwrap_or(0)
    }

    /// Whether any tenant still has a queued job (dispatchable or
    /// epoch-gated). Workers must not exit while gated jobs remain: the
    /// in-progress mutation that gated them will commit and make them
    /// dispatchable.
    fn any_queued(&self) -> bool {
        self.tenants.iter().any(|t| !t.queue.is_empty())
    }
}

/// State shared between the engine handle, its sessions, and the worker
/// threads.
pub(crate) struct Shared {
    graph: RwLock<EpochGraph>,
    digraph: Option<RwLock<EpochDigraph>>,
    config: EngineConfig,
    edge_cache: ResultCache<EdgeId>,
    arc_cache: ResultCache<ArcId>,
    sched: Mutex<Scheduler>,
    work_ready: Condvar,
    /// Serializes mutation batches against each other, so at most one
    /// fence is up at a time and `target_epoch` never runs ahead of
    /// `epoch` by more than one.
    mutation_lock: Mutex<()>,
}

impl Shared {
    /// Scheduler lock, recovering from a poisoned mutex (a worker panic
    /// must not wedge the whole engine).
    fn lock(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Read access to the serving undirected graph.
    fn read_graph(&self) -> RwLockReadGuard<'_, EpochGraph> {
        read_epoch(&self.graph)
    }

    /// Read access to the serving directed view, when present.
    fn read_digraph(&self) -> Option<RwLockReadGuard<'_, EpochDigraph>> {
        self.digraph.as_ref().map(read_epoch)
    }
}

/// Read access to one serving graph, recovering from a poisoned lock.
fn read_epoch<G>(graph: &RwLock<Epoch<G>>) -> RwLockReadGuard<'_, Epoch<G>> {
    graph.read().unwrap_or_else(|e| e.into_inner())
}

/// A lifetime snapshot of one tenant's scheduler state and counters.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant's name (unique within the engine).
    pub name: String,
    /// The tenant's scheduling weight (dispatch share).
    pub weight: u32,
    /// Queries queued right now (admitted, not yet dispatched).
    pub queued: usize,
    /// Queries completed over the engine's lifetime (including
    /// deadline-expired ones — those delivered a valid prefix).
    pub completed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Completed queries that hit their deadline.
    pub deadline_exceeded: u64,
    /// [`EnumStats::merge`]-fold of every completed query's counters.
    pub stats: EnumStats,
}

/// Shared read access to one of the engine's serving graphs: the
/// undirected graph ([`GraphRef`], from [`EnumerationEngine::graph`]) or
/// the directed view ([`DigraphRef`], from
/// [`EnumerationEngine::digraph`]). Derefs to the graph; holding it
/// blocks mutation batches (they take the write side), so drop it
/// promptly.
pub struct EpochRef<'a, G>(RwLockReadGuard<'a, Epoch<G>>);

/// Read access to the serving [`UndirectedGraph`] (see [`EpochRef`]).
pub type GraphRef<'a> = EpochRef<'a, UndirectedGraph>;

/// Read access to the serving directed view (see [`EpochRef`]).
pub type DigraphRef<'a> = EpochRef<'a, DiGraph>;

impl<G: EpochKind> EpochRef<'_, G> {
    /// The graph's mutation epoch (bumped once per committed batch).
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }
}

impl<G: EpochKind> Deref for EpochRef<'_, G> {
    type Target = G;
    fn deref(&self) -> &G {
        self.0.graph()
    }
}

/// A long-lived, multi-tenant enumeration engine.
///
/// Owns one undirected graph (and optionally its directed counterpart),
/// two shared [`ResultCache`]s (edge-item and arc-item), and a pool of
/// worker threads. Tenants attach via [`Self::session`] and submit
/// [`Query`]s; admission control bounds in-flight work, a
/// stride-scheduled weighted round-robin picks the next query, and
/// every completed stream is byte-identical to a one-shot
/// [`Enumeration`] run of the same query.
///
/// The graphs are **live**: [`Self::apply_mutations`] and
/// [`Self::apply_arc_mutations`] insert and remove edges and arcs
/// between queries. Each batch is serialized against in-flight work —
/// queries admitted before the batch finish against the old graph,
/// queries admitted after it run against the new one — and the result
/// caches drop exactly the entries whose touched regions changed
/// ([`MutationOutcome`]).
///
/// Dropping the engine drains gracefully: new submissions are refused,
/// queued queries still execute, and every outstanding [`Ticket`]
/// resolves before the worker threads exit.
pub struct EnumerationEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl EnumerationEngine {
    /// An engine over `graph` with the default [`EngineConfig`] and no
    /// directed view.
    pub fn new(graph: UndirectedGraph) -> Self {
        Self::with_graphs(graph, None, EngineConfig::default())
    }

    /// An engine over `graph` with an explicit configuration.
    pub fn with_config(graph: UndirectedGraph, config: EngineConfig) -> Self {
        Self::with_graphs(graph, None, config)
    }

    /// An engine serving both undirected queries on `graph` and
    /// [`Query::DirectedSteinerTree`] on `digraph`.
    pub fn with_graphs(
        graph: UndirectedGraph,
        digraph: Option<DiGraph>,
        config: EngineConfig,
    ) -> Self {
        fn make_cache<Item: Copy + Eq + std::hash::Hash>(bytes: Option<u64>) -> ResultCache<Item> {
            match bytes {
                Some(b) => ResultCache::with_capacity_bytes(b),
                None => ResultCache::new(),
            }
        }
        let shared = Arc::new(Shared {
            graph: RwLock::new(EpochGraph::new(graph)),
            digraph: digraph.map(|d| RwLock::new(EpochDigraph::new(d))),
            config,
            edge_cache: make_cache(config.cache_capacity_bytes),
            arc_cache: make_cache(config.cache_capacity_bytes),
            sched: Mutex::new(Scheduler {
                tenants: Vec::new(),
                by_name: HashMap::new(),
                in_flight: 0,
                epoch: 0,
                target_epoch: 0,
                current_unfinished: 0,
                next_unfinished: 0,
                mutation_stats: EnumStats::default(),
                paused: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            mutation_lock: Mutex::new(()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("steiner-service-{i}"))
                    .stack_size(steiner_paths::streaming::DEFAULT_STACK_BYTES)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        EnumerationEngine { shared, workers }
    }

    /// Attaches a tenant with scheduling weight 1. Attaching the same
    /// name again returns a session for the *same* tenant (shared
    /// queue, counters, and scheduling state).
    pub fn session(&self, name: &str) -> Session {
        self.session_with_weight(name, 1)
    }

    /// Attaches a tenant with an explicit scheduling weight: the
    /// dispatch frequency of tenant `t` is proportional to
    /// `weight(t)` among tenants with queued work. Re-attaching an
    /// existing tenant updates its weight. A newly registered tenant
    /// starts at the current minimum pass, so it gets its fair share
    /// from now on but no retroactive catch-up burst.
    pub fn session_with_weight(&self, name: &str, weight: u32) -> Session {
        let mut sched = self.shared.lock();
        let tenant = match sched.by_name.get(name) {
            Some(&i) => {
                sched.tenants[i].weight = weight.max(1);
                i
            }
            None => {
                let i = sched.tenants.len();
                let pass = sched.min_pass();
                sched.tenants.push(TenantState {
                    name: name.to_string(),
                    weight: weight.max(1),
                    pass,
                    queue: VecDeque::new(),
                    stats: EnumStats::default(),
                    completed: 0,
                    rejected: 0,
                    deadline_exceeded: 0,
                });
                sched.by_name.insert(name.to_string(), i);
                i
            }
        };
        Session::new(Arc::clone(&self.shared), tenant)
    }

    /// Holds back dispatch: admitted queries stay queued until
    /// [`Self::resume`]. Running queries are unaffected. Useful for
    /// deterministic tests of admission control and scheduling order —
    /// and note that shutdown overrides a pause, so dropping a paused
    /// engine still drains its queues. A mutation batch submitted while
    /// queries are held back blocks until [`Self::resume`] lets them
    /// finish.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`Self::pause`].
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work_ready.notify_all();
    }

    /// Blocks until no admitted query is queued or running.
    pub fn wait_idle(&self) {
        let mut sched = self.shared.lock();
        while sched.in_flight > 0 {
            sched = self
                .shared
                .work_ready
                .wait(sched)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Admitted-but-unfinished queries right now (queued + running).
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.shared.config
    }

    /// The serving epoch: the number of committed mutation batches
    /// (undirected and directed combined). Every admitted query is
    /// pinned to the epoch at its admission.
    pub fn epoch(&self) -> u64 {
        self.shared.lock().epoch
    }

    /// Read access to the undirected graph every undirected query runs
    /// against. The returned guard blocks mutation batches while held.
    pub fn graph(&self) -> GraphRef<'_> {
        EpochRef(self.shared.read_graph())
    }

    /// Read access to the directed view, when the engine was built
    /// with one. The returned guard blocks mutation batches while held.
    pub fn digraph(&self) -> Option<DigraphRef<'_>> {
        self.shared.read_digraph().map(EpochRef)
    }

    /// Inserts and removes edges in the serving undirected graph as one
    /// atomic batch, serialized against queries: the batch waits for
    /// every query admitted before it, and every query admitted after
    /// it (even mid-batch) runs against the mutated graph. Edge-item
    /// cache entries whose region signature intersects a touched region
    /// are dropped; all others are retained and keep replaying across
    /// the epoch boundary. The arc-item cache is untouched — the
    /// directed view is a separate graph.
    ///
    /// The batch is validated up front: on error nothing changes, no
    /// fence goes up, and queries are not delayed.
    pub fn apply_mutations(&self, batch: &[GraphMutation]) -> Result<MutationOutcome, GraphError> {
        self.mutate(&self.shared.graph, &self.shared.edge_cache, batch)
    }

    /// [`Self::apply_mutations`] for a single edit.
    pub fn apply_mutation(&self, edit: GraphMutation) -> Result<MutationOutcome, GraphError> {
        self.apply_mutations(&[edit])
    }

    /// Inserts and removes arcs in the directed view as one atomic
    /// batch, with the same serialization and validation as
    /// [`Self::apply_mutations`]; it drops the arc-item cache entries
    /// whose region signature intersects a touched region and leaves
    /// the edge-item cache alone. Fails with
    /// [`GraphError::Precondition`] when the engine has no directed
    /// view.
    pub fn apply_arc_mutations(
        &self,
        batch: &[ArcMutation],
    ) -> Result<MutationOutcome, GraphError> {
        let Some(digraph) = self.shared.digraph.as_ref() else {
            return Err(GraphError::Precondition {
                message: NO_DIGRAPH.to_string(),
            });
        };
        self.mutate(digraph, &self.shared.arc_cache, batch)
    }

    /// The one mutation body behind both entry points: takes the
    /// mutation lock, validates under the read lock, raises the fence,
    /// applies under the write lock, invalidates `cache` by touched
    /// region, and commits the epoch.
    fn mutate<G: EpochKind, Item: Copy + Eq + std::hash::Hash>(
        &self,
        graph: &RwLock<Epoch<G>>,
        cache: &ResultCache<Item>,
        batch: &[G::Mutation],
    ) -> Result<MutationOutcome, GraphError> {
        let _serial = self
            .shared
            .mutation_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        read_epoch(graph).validate(batch)?;
        self.fence()?;
        let report = {
            let mut g = graph.write().unwrap_or_else(|e| e.into_inner());
            g.batch_apply(batch).expect("batch was pre-validated")
        };
        let (retained, invalidated) = cache.invalidate_regions(&report.touched);
        Ok(self.commit_epoch(report.touched, retained, invalidated))
    }

    /// Routes new submissions to the next epoch and waits until every
    /// query admitted at the current epoch has finished. Caller must
    /// hold the mutation lock.
    fn fence(&self) -> Result<(), GraphError> {
        let mut sched = self.shared.lock();
        if sched.shutdown {
            return Err(GraphError::Precondition {
                message: SHUT_DOWN.to_string(),
            });
        }
        sched.target_epoch = sched.epoch + 1;
        while sched.current_unfinished > 0 {
            sched = self
                .shared
                .work_ready
                .wait(sched)
                .unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }

    /// Commits a mutation batch: advances the serving epoch, promotes
    /// fence-gated jobs to dispatchable, folds the invalidation
    /// counters, and wakes the workers. Caller must hold the mutation
    /// lock and have completed [`Self::fence`].
    fn commit_epoch(
        &self,
        touched_regions: Vec<u32>,
        entries_retained: u64,
        entries_invalidated: u64,
    ) -> MutationOutcome {
        let epoch = {
            let mut sched = self.shared.lock();
            sched.epoch += 1;
            sched.target_epoch = sched.epoch;
            sched.current_unfinished = sched.next_unfinished;
            sched.next_unfinished = 0;
            sched.mutation_stats.entries_retained += entries_retained;
            sched.mutation_stats.entries_invalidated += entries_invalidated;
            sched.epoch
        };
        self.shared.work_ready.notify_all();
        MutationOutcome {
            epoch,
            touched_regions,
            entries_retained,
            entries_invalidated,
        }
    }

    /// [`EnumStats`] fold of every committed mutation batch — today
    /// the [`EnumStats::entries_retained`] / [`EnumStats::entries_invalidated`]
    /// counters.
    pub fn mutation_stats(&self) -> EnumStats {
        self.shared.lock().mutation_stats
    }

    /// Counters of the (edge-item, arc-item) result caches.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (
            self.shared.edge_cache.stats(),
            self.shared.arc_cache.stats(),
        )
    }

    /// A [`TenantReport`] per registered tenant, sorted by name.
    pub fn tenants(&self) -> Vec<TenantReport> {
        let sched = self.shared.lock();
        let mut reports: Vec<TenantReport> = sched
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.name.clone(),
                weight: t.weight,
                queued: t.queue.len(),
                completed: t.completed,
                rejected: t.rejected,
                deadline_exceeded: t.deadline_exceeded,
                stats: t.stats,
            })
            .collect();
        reports.sort_by(|a, b| a.name.cmp(&b.name));
        reports
    }

    /// Serializes both result caches into one deterministic,
    /// versioned, checksummed byte blob (the engine-level framing of
    /// [`ResultCache::snapshot`]), tagged with the serving epoch it was
    /// taken at. Feed it to [`Self::restore`] on a freshly constructed
    /// engine over the same graphs to answer warm after a restart.
    pub fn snapshot(&self) -> Vec<u8> {
        let edges = self.shared.edge_cache.snapshot();
        let arcs = self.shared.arc_cache.snapshot();
        let epoch = self.epoch();
        let mut out = Vec::with_capacity(32 + edges.len() + arcs.len());
        out.extend_from_slice(&SERVICE_MAGIC);
        out.extend_from_slice(&SERVICE_VERSION.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        out.extend_from_slice(&edges);
        out.extend_from_slice(&(arcs.len() as u64).to_le_bytes());
        out.extend_from_slice(&arcs);
        out
    }

    /// Loads a [`Self::snapshot`] blob into this engine's caches,
    /// returning the number of cached query results restored.
    ///
    /// Every stored entry carries the region fingerprints it was
    /// recorded against and is validated against the serving graph's
    /// current region map (directed entries against the directed
    /// view's) **before** anything is committed: a corrupted,
    /// truncated, version-skewed, or wrong-graph snapshot is rejected
    /// with a typed [`SnapshotError`] and the caches are left untouched
    /// — a stale snapshot is never silently served. Version-1 blobs
    /// (written before graphs were mutable) are refused with
    /// [`SnapshotError::VersionSkew`]: their whole-graph fingerprints
    /// cannot be checked region-by-region. The stored epoch tag is
    /// informational — validity is decided by the region fingerprints,
    /// so a snapshot restores into any engine whose graph regions
    /// match, whatever its epoch counter reads.
    pub fn restore(&self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        if bytes.len() < 4 || bytes[..4] != SERVICE_MAGIC {
            // v1 frames began with a raw u64 length, not a magic.
            return Err(SnapshotError::VersionSkew {
                stored: 1,
                supported: SERVICE_VERSION,
            });
        }
        let rest = &bytes[4..];
        if rest.len() < 12 {
            return Err(SnapshotError::Corrupted("service frame truncated"));
        }
        let version = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if version != SERVICE_VERSION {
            return Err(SnapshotError::VersionSkew {
                stored: version,
                supported: SERVICE_VERSION,
            });
        }
        let _epoch_tag = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let (edges, rest) = take_frame(&rest[12..])?;
        let (arcs, rest) = take_frame(rest)?;
        if !rest.is_empty() {
            return Err(SnapshotError::Corrupted(
                "trailing bytes after service frame",
            ));
        }
        let kinds = paper_problem_kinds();
        // Validate both parts before committing either, so a half-bad
        // snapshot cannot leave the engine half-restored. The read
        // guards also hold mutations off until the restore commits.
        let g = self.shared.read_graph();
        let d = self.shared.read_digraph();
        self.shared
            .edge_cache
            .validate_snapshot(edges, &kinds, Some(g.regions()))?;
        self.shared
            .arc_cache
            .validate_snapshot(arcs, &kinds, d.as_ref().map(|d| d.regions()))?;
        let restored = self
            .shared
            .edge_cache
            .restore(edges, &kinds, Some(g.regions()))?
            + self
                .shared
                .arc_cache
                .restore(arcs, &kinds, d.as_ref().map(|d| d.regions()))?;
        Ok(restored)
    }
}

impl Drop for EnumerationEngine {
    /// Graceful drain: refuse new submissions, execute everything
    /// already admitted (resolving every outstanding [`Ticket`]), then
    /// join the workers.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Splits `bytes` into a `u64 LE` length-prefixed frame and the rest.
fn take_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Corrupted("service frame truncated"));
    }
    let (len, rest) = bytes.split_at(8);
    let len = u64::from_le_bytes(len.try_into().expect("split_at(8)")) as usize;
    if rest.len() < len {
        return Err(SnapshotError::Corrupted("service frame truncated"));
    }
    Ok(rest.split_at(len))
}

/// Admission control + enqueue. Called by [`Session::submit`].
pub(crate) fn submit(
    shared: &Shared,
    tenant: usize,
    query: Query,
    opts: QueryOptions,
) -> Result<Ticket, SteinerError> {
    let mut sched = shared.lock();
    if sched.shutdown {
        return Err(SteinerError::Unsupported(SHUT_DOWN));
    }
    if query.is_directed() && shared.digraph.is_none() {
        // Fail fast at submission: the query could never run.
        return Err(SteinerError::Unsupported(NO_DIGRAPH));
    }
    if sched.in_flight >= shared.config.max_in_flight {
        let in_flight = sched.in_flight;
        sched.tenants[tenant].rejected += 1;
        return Err(SteinerError::AdmissionRejected {
            in_flight,
            capacity: shared.config.max_in_flight,
        });
    }
    let depth = sched.tenants[tenant].queue.len();
    if depth >= shared.config.tenant_queue_depth {
        sched.tenants[tenant].rejected += 1;
        return Err(SteinerError::AdmissionRejected {
            in_flight: depth,
            capacity: shared.config.tenant_queue_depth,
        });
    }
    let (done, rx) = crossbeam_channel::bounded(1);
    // Pin the query to the admission epoch: during a mutation fence,
    // `target_epoch` is one ahead and the job only dispatches once the
    // batch commits — the stream always reflects the graph as admitted.
    let epoch = sched.target_epoch;
    if epoch == sched.epoch {
        sched.current_unfinished += 1;
    } else {
        sched.next_unfinished += 1;
    }
    sched.tenants[tenant].queue.push_back(Job {
        query,
        opts,
        epoch,
        done,
    });
    sched.in_flight += 1;
    drop(sched);
    shared.work_ready.notify_all();
    Ok(Ticket { rx })
}

/// One tenant's report, by index. Called by [`Session::report`].
pub(crate) fn tenant_report(shared: &Shared, tenant: usize) -> TenantReport {
    let sched = shared.lock();
    let t = &sched.tenants[tenant];
    TenantReport {
        name: t.name.clone(),
        weight: t.weight,
        queued: t.queue.len(),
        completed: t.completed,
        rejected: t.rejected,
        deadline_exceeded: t.deadline_exceeded,
        stats: t.stats,
    }
}

pub(crate) fn tenant_name(shared: &Shared, tenant: usize) -> String {
    shared.lock().tenants[tenant].name.clone()
}

/// Worker thread body: pull the next stride-scheduled job, execute it,
/// fold its stats into the tenant, resolve the ticket. Exits once
/// shutdown is flagged and every queue is drained — including
/// epoch-gated jobs, which an in-progress mutation batch will release.
fn worker_loop(shared: &Shared) {
    loop {
        let dispatched = {
            let mut sched = shared.lock();
            loop {
                // Shutdown overrides a pause: a paused engine still
                // drains on drop.
                if !sched.paused || sched.shutdown {
                    if let Some(d) = sched.next_job() {
                        break Some(d);
                    }
                }
                if sched.shutdown && !sched.any_queued() {
                    break None;
                }
                sched = shared
                    .work_ready
                    .wait(sched)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((tenant, job)) = dispatched else {
            return;
        };
        let outcome = execute(shared, &job.query, &job.opts);
        {
            let mut sched = shared.lock();
            let t = &mut sched.tenants[tenant];
            t.stats.merge(&outcome.stats);
            t.completed += 1;
            if matches!(outcome.status, Err(SteinerError::DeadlineExceeded)) {
                t.deadline_exceeded += 1;
            }
            sched.in_flight -= 1;
            // The job was dispatchable, so it was admitted at the
            // serving epoch; its completion is what a mutation fence
            // waits for.
            sched.current_unfinished -= 1;
        }
        // Wake idle workers (more queued work may be dispatchable now
        // that a slot freed), `wait_idle` callers, and fencing
        // mutation batches.
        shared.work_ready.notify_all();
        let _ = job.done.send(outcome);
    }
}

/// Runs one query against the engine's serving graph and shared caches.
/// The problem instance borrows the graph through a read guard held for
/// the duration of the run — a mutation batch can only interleave
/// between queries, never inside one. The problem instance carries only
/// terminals, so construction is O(|query|).
fn execute(shared: &Shared, query: &Query, opts: &QueryOptions) -> QueryOutcome {
    if let Some(deadline) = opts.deadline {
        // The deadline is a caller promise: time spent queued counts.
        // lint:allow(clock) admission-time deadline check against the sanctioned service clock
        if Instant::now() >= deadline {
            let solutions = if query.is_directed() {
                SolutionItems::Arcs(Vec::new())
            } else {
                SolutionItems::Edges(Vec::new())
            };
            return QueryOutcome {
                solutions,
                stats: EnumStats::default(),
                status: Err(SteinerError::DeadlineExceeded),
            };
        }
    }
    match query {
        Query::SteinerTree { terminals } => {
            let g = shared.read_graph();
            run(
                SteinerTree::new(g.graph(), terminals),
                &shared.edge_cache,
                opts,
                SolutionItems::Edges,
            )
        }
        Query::SteinerForest { sets } => {
            let g = shared.read_graph();
            run(
                SteinerForest::new(g.graph(), sets),
                &shared.edge_cache,
                opts,
                SolutionItems::Edges,
            )
        }
        Query::TerminalSteinerTree { terminals } => {
            let g = shared.read_graph();
            run(
                TerminalSteinerTree::new(g.graph(), terminals),
                &shared.edge_cache,
                opts,
                SolutionItems::Edges,
            )
        }
        Query::DirectedSteinerTree { root, terminals } => match shared.read_digraph() {
            Some(d) => run(
                DirectedSteinerTree::new(d.graph(), *root, terminals),
                &shared.arc_cache,
                opts,
                SolutionItems::Arcs,
            ),
            // Submission already rejects this; kept for defence in
            // depth (e.g. a job admitted through a future API).
            None => QueryOutcome {
                solutions: SolutionItems::Arcs(Vec::new()),
                stats: EnumStats::default(),
                status: Err(SteinerError::Unsupported(NO_DIGRAPH)),
            },
        },
    }
}

/// Configures an [`Enumeration`] per `opts`, runs it, and wraps the
/// delivered stream. The stream is byte-identical to a standalone run
/// because this *is* a standalone run — the service layer adds nothing
/// between the engine and the collection sink.
fn run<P>(
    problem: P,
    cache: &ResultCache<P::Item>,
    opts: &QueryOptions,
    wrap: fn(Vec<Vec<P::Item>>) -> SolutionItems,
) -> QueryOutcome
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send + SnapshotItem,
{
    let mut e = Enumeration::new(problem)
        .cached(cache)
        .with_threads(opts.threads);
    if let Some(n) = opts.limit {
        e = e.with_limit(n);
    }
    if let Some(deadline) = opts.deadline {
        e = e.with_deadline(deadline);
    }
    if opts.queue {
        e = e.with_default_queue();
    }
    let (e, handle) = e.with_stats();
    let mut solutions = Vec::new();
    let status = e.for_each(|items| {
        solutions.push(items.to_vec());
        ControlFlow::Continue(())
    });
    match status {
        Ok(stats) => QueryOutcome {
            solutions: wrap(solutions),
            stats,
            status: Ok(()),
        },
        Err(SteinerError::DeadlineExceeded) => QueryOutcome {
            // The prefix delivered before expiry is valid; the stats
            // were published through the handle before the abort.
            solutions: wrap(solutions),
            stats: handle.get(),
            status: Err(SteinerError::DeadlineExceeded),
        },
        Err(err) => QueryOutcome {
            solutions: wrap(Vec::new()),
            stats: handle.get(),
            status: Err(err),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::VertexId;

    fn square() -> UndirectedGraph {
        UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    fn tree_query() -> Query {
        Query::SteinerTree {
            terminals: vec![VertexId(0), VertexId(2)],
        }
    }

    /// A scheduler with `queued[i]` jobs waiting for tenant `i`.
    fn scheduler(tenants: &[(&str, u32, usize)]) -> Scheduler {
        let mut sched = Scheduler {
            tenants: Vec::new(),
            by_name: HashMap::new(),
            in_flight: 0,
            epoch: 0,
            target_epoch: 0,
            current_unfinished: 0,
            next_unfinished: 0,
            mutation_stats: EnumStats::default(),
            paused: false,
            shutdown: false,
        };
        for &(name, weight, queued) in tenants {
            let mut queue = VecDeque::new();
            for _ in 0..queued {
                let (done, _rx) = crossbeam_channel::bounded(1);
                std::mem::forget(_rx); // keep the channel open for the dummy job
                queue.push_back(Job {
                    query: tree_query(),
                    opts: QueryOptions::default(),
                    epoch: 0,
                    done,
                });
            }
            sched.in_flight += queued;
            sched.current_unfinished += queued;
            sched.by_name.insert(name.to_string(), sched.tenants.len());
            sched.tenants.push(TenantState {
                name: name.to_string(),
                weight,
                pass: 0,
                queue,
                stats: EnumStats::default(),
                completed: 0,
                rejected: 0,
                deadline_exceeded: 0,
            });
        }
        sched
    }

    #[test]
    fn stride_dispatch_is_weight_proportional_and_deterministic() {
        let mut sched = scheduler(&[("a", 2, 8), ("b", 1, 4)]);
        let mut order = String::new();
        while let Some((i, _job)) = sched.next_job() {
            order.push_str(&sched.tenants[i].name);
        }
        // Weight 2:1 → `a` is dispatched twice as often; ties break by
        // name, so the order is fully deterministic.
        assert_eq!(order, "abaabaabaaba");
    }

    #[test]
    fn equal_weights_round_robin() {
        let mut sched = scheduler(&[("x", 1, 3), ("y", 1, 3)]);
        let mut order = String::new();
        while let Some((i, _job)) = sched.next_job() {
            order.push_str(&sched.tenants[i].name);
        }
        assert_eq!(order, "xyxyxy");
    }

    #[test]
    fn next_job_gates_jobs_pinned_to_a_future_epoch() {
        let mut sched = scheduler(&[("a", 1, 2)]);
        // Simulate a fence: the queued jobs belong to epoch 1, the
        // engine still serves epoch 0.
        for job in sched.tenants[0].queue.iter_mut() {
            job.epoch = 1;
        }
        assert!(sched.next_job().is_none(), "future-epoch jobs are held");
        sched.epoch = 1;
        assert!(
            sched.next_job().is_some(),
            "released once the epoch commits"
        );
    }

    #[test]
    fn admission_rejects_beyond_tenant_queue_depth() {
        let engine = EnumerationEngine::with_config(
            square(),
            EngineConfig {
                workers: 1,
                max_in_flight: 16,
                tenant_queue_depth: 2,
                cache_capacity_bytes: None,
            },
        );
        engine.pause(); // hold jobs in the queue deterministically
        let s = engine.session("t");
        let t1 = s.submit(tree_query(), QueryOptions::default()).unwrap();
        let t2 = s.submit(tree_query(), QueryOptions::default()).unwrap();
        let err = s.submit(tree_query(), QueryOptions::default()).unwrap_err();
        assert_eq!(
            err,
            SteinerError::AdmissionRejected {
                in_flight: 2,
                capacity: 2
            }
        );
        assert_eq!(s.report().rejected, 1);
        engine.resume();
        assert!(t1.wait().is_complete());
        assert!(t2.wait().is_complete());
    }

    #[test]
    fn admission_rejects_beyond_global_pool() {
        let engine = EnumerationEngine::with_config(
            square(),
            EngineConfig {
                workers: 1,
                max_in_flight: 2,
                tenant_queue_depth: 8,
                cache_capacity_bytes: None,
            },
        );
        engine.pause();
        let a = engine.session("a");
        let b = engine.session("b");
        let _t1 = a.submit(tree_query(), QueryOptions::default()).unwrap();
        let _t2 = a.submit(tree_query(), QueryOptions::default()).unwrap();
        let err = b.submit(tree_query(), QueryOptions::default()).unwrap_err();
        assert_eq!(
            err,
            SteinerError::AdmissionRejected {
                in_flight: 2,
                capacity: 2
            }
        );
        engine.resume();
        engine.wait_idle();
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn directed_query_without_digraph_is_unsupported_at_submit() {
        let engine = EnumerationEngine::new(square());
        let s = engine.session("t");
        let err = s
            .submit(
                Query::DirectedSteinerTree {
                    root: VertexId(0),
                    terminals: vec![VertexId(2)],
                },
                QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SteinerError::Unsupported(_)));
    }

    #[test]
    fn drop_drains_queued_work() {
        let engine = EnumerationEngine::with_config(
            square(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        engine.pause(); // nothing dispatches until drop flips shutdown
        let s = engine.session("t");
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| s.submit(tree_query(), QueryOptions::default()).unwrap())
            .collect();
        drop(engine);
        for t in tickets {
            let outcome = t.wait();
            assert!(outcome.is_complete());
            assert_eq!(outcome.solutions.len(), 2);
        }
    }

    #[test]
    fn expired_deadline_resolves_without_running() {
        let engine = EnumerationEngine::new(square());
        let s = engine.session("t");
        let opts =
            QueryOptions::default().deadline(Instant::now() - std::time::Duration::from_millis(1));
        let outcome = s.run(tree_query(), opts).unwrap();
        assert_eq!(outcome.status, Err(SteinerError::DeadlineExceeded));
        assert!(outcome.solutions.is_empty());
        assert_eq!(s.report().deadline_exceeded, 1);
    }

    #[test]
    fn snapshot_restores_into_fresh_engine_as_hits() {
        let engine = EnumerationEngine::new(square());
        let s = engine.session("t");
        let cold = s.run(tree_query(), QueryOptions::default()).unwrap();
        assert_eq!(cold.stats.cache_misses, 1);
        let blob = engine.snapshot();

        let restarted = EnumerationEngine::new(square());
        assert_eq!(restarted.restore(&blob).unwrap(), 1);
        let warm = restarted
            .session("t")
            .run(tree_query(), QueryOptions::default())
            .unwrap();
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.solutions, cold.solutions);
    }

    #[test]
    fn restore_rejects_wrong_graph_and_corruption_atomically() {
        let engine = EnumerationEngine::new(square());
        let s = engine.session("t");
        s.run(tree_query(), QueryOptions::default()).unwrap();
        let blob = engine.snapshot();

        // Different graph → every entry's region fingerprint mismatches.
        let other = EnumerationEngine::new(
            UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]).unwrap(),
        );
        assert!(matches!(
            other.restore(&blob),
            Err(SnapshotError::GraphMismatch { .. })
        ));
        let (edge_stats, _) = other.cache_stats();
        assert_eq!(edge_stats.entries, 0, "rejected restore must not commit");

        // Truncated frame.
        let fresh = EnumerationEngine::new(square());
        assert!(matches!(
            fresh.restore(&blob[..blob.len() - 1]),
            Err(SnapshotError::Corrupted(_) | SnapshotError::ChecksumMismatch)
        ));
        // Trailing junk.
        let mut long = blob;
        long.push(0);
        assert!(matches!(
            fresh.restore(&long),
            Err(SnapshotError::Corrupted(_))
        ));
        let (edge_stats, _) = fresh.cache_stats();
        assert_eq!(edge_stats.entries, 0);
    }

    #[test]
    fn restore_refuses_v1_blobs_with_version_skew() {
        let engine = EnumerationEngine::new(square());
        let s = engine.session("t");
        s.run(tree_query(), QueryOptions::default()).unwrap();
        let v2 = engine.snapshot();

        // A v1 engine frame: two raw length-prefixed cache frames with
        // no magic, version, or epoch tag — exactly the v2 payload
        // minus its 16-byte header.
        let v1 = v2[16..].to_vec();
        let fresh = EnumerationEngine::new(square());
        assert_eq!(
            fresh.restore(&v1),
            Err(SnapshotError::VersionSkew {
                stored: 1,
                supported: SERVICE_VERSION
            })
        );

        // A future version is refused symmetrically.
        let mut v3 = v2;
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            fresh.restore(&v3),
            Err(SnapshotError::VersionSkew {
                stored: 3,
                supported: SERVICE_VERSION
            })
        );
        let (edge_stats, _) = fresh.cache_stats();
        assert_eq!(edge_stats.entries, 0, "nothing was committed");
    }

    #[test]
    fn mutations_serialize_against_queries_and_advance_the_epoch() {
        let engine = EnumerationEngine::with_config(
            square(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.epoch(), 0);
        let s = engine.session("t");
        let before = s.run(tree_query(), QueryOptions::default()).unwrap();

        // Remove edge {2,3}: the square loses one of the two minimal
        // Steiner trees between 0 and 2.
        let out = engine
            .apply_mutation(GraphMutation::RemoveEdge(EdgeId(2)))
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(out.entries_invalidated, 1, "the square entry died");
        assert_eq!(out.entries_retained, 0);

        let after = s.run(tree_query(), QueryOptions::default()).unwrap();
        assert_eq!(before.solutions.len(), 2);
        assert_eq!(after.solutions.len(), 1, "one tree survives the removal");
        assert_eq!(engine.mutation_stats().entries_invalidated, 1);

        // An invalid batch changes nothing — no epoch bump, no fence.
        let err = engine
            .apply_mutation(GraphMutation::RemoveEdge(EdgeId(99)))
            .unwrap_err();
        assert!(matches!(err, GraphError::EdgeOutOfRange { .. }));
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn queries_admitted_before_a_mutation_run_against_the_old_graph() {
        let engine = EnumerationEngine::with_config(
            square(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let s = engine.session("t");
        // Admit at epoch 0, then race a mutation: the fence must wait
        // for the admitted query, so its stream matches the original
        // square no matter when the worker gets to it.
        let ticket = s.submit(tree_query(), QueryOptions::default()).unwrap();
        let out = engine
            .apply_mutation(GraphMutation::RemoveEdge(EdgeId(2)))
            .unwrap();
        assert_eq!(out.epoch, 1);
        let outcome = ticket.wait();
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.solutions.len(),
            2,
            "the pinned-epoch stream saw both square trees"
        );
        // And a fresh query sees the mutated graph.
        let after = s.run(tree_query(), QueryOptions::default()).unwrap();
        assert_eq!(after.solutions.len(), 1);
    }

    #[test]
    fn untouched_region_entries_survive_mutations() {
        // Two components: the square {0..3} and a path {4,5,6}.
        let g = UndirectedGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)])
            .unwrap();
        let engine = EnumerationEngine::new(g);
        let s = engine.session("t");
        let square_q = tree_query();
        let path_q = Query::SteinerTree {
            terminals: vec![VertexId(4), VertexId(6)],
        };
        s.run(square_q.clone(), QueryOptions::default()).unwrap();
        s.run(path_q.clone(), QueryOptions::default()).unwrap();

        // Mutate the path component only: insert a chord 4–6. The
        // square's entry must survive; the path's must die.
        let out = engine
            .apply_mutation(GraphMutation::InsertEdge {
                u: VertexId(4),
                v: VertexId(6),
            })
            .unwrap();
        assert_eq!(out.touched_regions, vec![4]);
        assert_eq!(out.entries_retained, 1);
        assert_eq!(out.entries_invalidated, 1);

        let warm = s.run(square_q, QueryOptions::default()).unwrap();
        assert_eq!(warm.stats.cache_hits, 1, "untouched region replays");
        let cold = s.run(path_q, QueryOptions::default()).unwrap();
        assert_eq!(cold.stats.cache_misses, 1, "touched region re-enumerates");
        assert_eq!(cold.solutions.len(), 2, "the chord added a second tree");
    }

    #[test]
    fn arc_mutations_require_a_directed_view_and_invalidate_arc_entries() {
        let engine = EnumerationEngine::new(square());
        let err = engine
            .apply_arc_mutations(&[ArcMutation::InsertArc {
                tail: VertexId(0),
                head: VertexId(1),
            }])
            .unwrap_err();
        assert!(matches!(err, GraphError::Precondition { .. }));

        let mut d = DiGraph::new(3);
        d.add_arc_indices(0, 1).unwrap();
        d.add_arc_indices(1, 2).unwrap();
        let engine = EnumerationEngine::with_graphs(square(), Some(d), EngineConfig::default());
        let s = engine.session("t");
        let q = Query::DirectedSteinerTree {
            root: VertexId(0),
            terminals: vec![VertexId(2)],
        };
        s.run(q.clone(), QueryOptions::default()).unwrap();
        let out = engine
            .apply_arc_mutations(&[ArcMutation::InsertArc {
                tail: VertexId(0),
                head: VertexId(2),
            }])
            .unwrap();
        assert_eq!(out.entries_invalidated, 1);
        assert_eq!(out.epoch, 1);
        let cold = s.run(q, QueryOptions::default()).unwrap();
        assert_eq!(cold.stats.cache_misses, 1);
        assert_eq!(cold.solutions.len(), 2, "the shortcut arc adds a solution");
    }
}
