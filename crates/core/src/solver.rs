//! The generic Algorithm-3 engine and the [`Enumeration`] builder.
//!
//! [`Enumeration`] drives any [`MinimalSteinerProblem`] through one shared
//! recursion and offers three interchangeable front-ends:
//!
//! * **push** — [`Enumeration::for_each`] hands each solution to a sink
//!   closure the moment it is emitted (return
//!   [`ControlFlow::Break`](std::ops::ControlFlow) to stop early);
//! * **pull** — [`Enumeration::into_iter`] runs the enumeration on a
//!   dedicated large-stack worker thread (via
//!   [`steiner_paths::streaming`]) and yields owned solutions through a
//!   plain [`Iterator`]; dropping the iterator stops the producer;
//! * **bounded** — [`Enumeration::with_limit`] caps the number of
//!   delivered solutions, and [`Enumeration::with_queue`] /
//!   [`Enumeration::with_default_queue`] interpose the Theorem-20 output
//!   queue for a worst-case (rather than amortized) delay bound.
//!
//! [`Enumeration::with_threads`] additionally **shards** the run across k
//! threads: the root node's children are split round-robin (child `i`
//! goes to shard `i mod k`). The calling thread is shard 0 — it runs on
//! the instance it prepared and is the merge point — and each of the
//! k − 1 spawned workers owns an independent problem copy
//! ([`MinimalSteinerProblem::split_root`]) with its own scratch pools and
//! statistics; workers steal whole subtrees that busy workers publish at
//! deeper branch nodes (see [`crate::steal`]). The calling thread walks
//! the root's children in order, delivering its own straight away and
//! draining each other child from its owner's channel
//! ([`steiner_paths::streaming::ShardMerge`]), and splices each stolen
//! subtree's stream back in at its exact tree position, so the delivered
//! sequence is **identical to the sequential front-end**, including under
//! limits, queues, and early termination.
//!
//! ```
//! use steiner_core::{Enumeration, SteinerTree};
//! use steiner_graph::{UndirectedGraph, VertexId};
//!
//! // A square: two ways to connect opposite corners.
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! let trees = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
//!     .collect_vec()
//!     .unwrap();
//! assert_eq!(trees.len(), 2);
//! ```

use crate::cache::{CachePressure, Checkout, QueryKey, ResultCache};
use crate::intern::SolutionId;
use crate::problem::{MinimalSteinerProblem, NodeStep, Prepared, SteinerError};
use crate::queue::{DirectSink, OutputQueue, QueueConfig, SolutionSink};
use crate::stats::EnumStats;
use crate::steal::{PendingTask, StealObserver, StealPool, StealSchedule};
use crossbeam_channel::Sender;
use std::cell::Cell;
use std::hash::Hash;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use steiner_paths::streaming::{self, Drain, MergeEvent, ShardMerge, ShardMsg};

/// A shared, clonable handle to the statistics of one enumeration run,
/// produced by [`Enumeration::with_stats`]. The final [`EnumStats`] are
/// published once, when the run finishes (also on early termination and
/// on an expired deadline); for the iterator front-end that happens on
/// the worker thread, so read the handle only after the iterator is
/// exhausted or dropped.
#[derive(Clone, Default)]
pub struct StatsHandle(Arc<Mutex<EnumStats>>);

impl StatsHandle {
    /// The most recently published statistics.
    ///
    /// Robust against a poisoned inner mutex: if the worker thread
    /// panicked mid-run, later reads recover the last published value
    /// instead of compounding the panic.
    pub fn get(&self) -> EnumStats {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set(&self, stats: EnumStats) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = stats;
    }
}

/// The shared Algorithm-3 recursion: classify the node, emit leaves,
/// branch internal nodes. `scratch` is the engine's only per-run buffer —
/// classify writes unique completions straight into it, so a node costs
/// zero engine-side allocations.
fn recurse<P: MinimalSteinerProblem>(
    p: &mut P,
    depth: u32,
    emitter: &mut dyn SolutionSink<P::Item>,
    scratch: &mut Vec<P::Item>,
) -> ControlFlow<()> {
    emitter.tick(p.stats().work)?;
    scratch.clear();
    match p.classify(scratch) {
        NodeStep::Complete => {
            p.stats_mut().note_node(0, depth);
            scratch.clear();
            p.solution(scratch);
            emit(p, emitter, scratch, P::SORTED_SOLUTIONS)
        }
        NodeStep::Unique => {
            // classify filled `scratch` with the unique completion.
            p.stats_mut().note_node(0, depth);
            emit(p, emitter, scratch, false)
        }
        NodeStep::Branch(at) => {
            let (children, flow) = p.branch(at, &mut |q| recurse(q, depth + 1, emitter, scratch));
            p.stats_mut().note_node(children, depth);
            flow
        }
    }
}

fn emit<P: MinimalSteinerProblem>(
    p: &mut P,
    emitter: &mut dyn SolutionSink<P::Item>,
    scratch: &mut [P::Item],
    presorted: bool,
) -> ControlFlow<()> {
    if presorted {
        debug_assert!(scratch.is_sorted(), "SORTED_SOLUTIONS contract broken");
    } else {
        scratch.sort_unstable();
    }
    p.stats_mut().note_emission();
    emitter.solution(scratch, p.stats().work)
}

/// Runs a prepared problem to completion through `emitter`, finishing and
/// sealing the statistics. This is the engine under every front-end:
/// [`Enumeration`] drives it through its delivery chain, whose head is
/// `emitter`. Called directly, it runs the search through any
/// [`SolutionSink`] (for example an [`OutputQueue`] or a [`DirectSink`]
/// around a closure); the returned stats then carry the engine counters
/// only, and leave the delivery counters at 0.
pub fn run_prepared<P: MinimalSteinerProblem>(
    p: &mut P,
    prepared: Prepared<P::Item>,
    emitter: &mut dyn SolutionSink<P::Item>,
) -> EnumStats {
    let flow = match prepared {
        Prepared::Empty => ControlFlow::Continue(()),
        Prepared::Single(items) => {
            let mut scratch = items;
            scratch.sort_unstable();
            p.stats_mut().note_emission();
            emitter.solution(&scratch, p.stats().work)
        }
        Prepared::Search => {
            // Solutions are forests: at most n − 1 items each, so sizing
            // the emission buffer once keeps the whole run allocation-free
            // on the engine side.
            let (n, _) = p.instance_size();
            let mut scratch = Vec::with_capacity(n + 1);
            recurse(p, 0, emitter, &mut scratch)
        }
    };
    if flow.is_continue() {
        let _ = emitter.finish();
    }
    p.seal_stats();
    p.stats_mut().note_end();
    *p.stats()
}

/// Prepares and runs `p` through an arbitrary [`SolutionSink`].
pub fn run_with_sink<P: MinimalSteinerProblem>(
    p: &mut P,
    emitter: &mut dyn SolutionSink<P::Item>,
) -> Result<EnumStats, SteinerError> {
    let prepared = p.prepare()?;
    Ok(run_prepared(p, prepared, emitter))
}

enum QueueOpt {
    Direct,
    DefaultQueue,
    Explicit(QueueConfig),
}

/// Builder over a [`MinimalSteinerProblem`]: configure the run, then pick
/// a front-end. Options compose freely — sharding, limits, the output
/// queue and the result cache all deliver the identical stream:
///
/// ```
/// use steiner_core::cache::ResultCache;
/// use steiner_core::{Enumeration, SteinerTree};
/// use steiner_graph::{EdgeId, UndirectedGraph, VertexId};
///
/// let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let w = [VertexId(0), VertexId(2)];
/// let cache: ResultCache<EdgeId> = ResultCache::new();
/// let plain = Enumeration::new(SteinerTree::new(&g, &w)).collect_vec().unwrap();
/// let fancy = Enumeration::new(SteinerTree::new(&g, &w))
///     .cached(&cache)          // record this stream for replay
///     .with_threads(2)         // sharded execution, deterministic merge
///     .with_default_queue()    // Theorem-20 worst-case delay
///     .with_limit(10)          // early termination
///     .collect_vec()
///     .unwrap();
/// assert_eq!(fancy, plain[..plain.len().min(10)]);
/// ```
///
/// See the [module documentation](self) for the front-end overview.
pub struct Enumeration<P: MinimalSteinerProblem> {
    problem: P,
    queue: QueueOpt,
    limit: Option<u64>,
    deadline: Option<Instant>,
    stats_handle: Option<StatsHandle>,
    threads: usize,
    steal_schedule: Option<StealSchedule>,
    cache: Option<ResultCache<P::Item>>,
}

impl<P: MinimalSteinerProblem> Enumeration<P> {
    /// Wraps a problem instance with the default configuration: direct
    /// emission (amortized-linear time per solution), no limit.
    pub fn new(problem: P) -> Self {
        Enumeration {
            problem,
            queue: QueueOpt::Direct,
            limit: None,
            deadline: None,
            stats_handle: None,
            threads: 1,
            steal_schedule: None,
            cache: None,
        }
    }

    /// **Query-level caching.** Consults `cache` before running: a query
    /// with the same [`cache_key`](MinimalSteinerProblem::cache_key) and
    /// the same [`Self::with_limit`] that previously ran to completion is
    /// **replayed** from the interned store — same solutions, same order,
    /// no search. On a miss the run executes normally (composing with
    /// [`Self::with_threads`] and [`Self::with_queue`]; recording happens
    /// at the delivery/merge point) and its complete stream is stored.
    /// Runs a sink aborted early (before the limit) are not stored.
    ///
    /// Hits and misses are visible in the returned
    /// [`EnumStats::cache_hits`] / [`EnumStats::cache_misses`] and in
    /// [`ResultCache::stats`]. See [`crate::cache`] for an end-to-end
    /// example and the eviction policy.
    pub fn cached(mut self, cache: &ResultCache<P::Item>) -> Self {
        self.cache = Some(cache.clone());
        self
    }

    /// Routes emissions through the Theorem-20 output queue with an
    /// explicit configuration, turning the amortized per-solution bound
    /// into a worst-case delay bound (at O(n²) buffer space).
    pub fn with_queue(mut self, config: QueueConfig) -> Self {
        self.queue = QueueOpt::Explicit(config);
        self
    }

    /// Routes emissions through the output queue with the paper's default
    /// parameters for this instance's size ([`QueueConfig::for_graph`]).
    pub fn with_default_queue(mut self) -> Self {
        self.queue = QueueOpt::DefaultQueue;
        self
    }

    /// Stops after delivering `n` solutions (early termination without
    /// writing a breaking sink).
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// **Per-query deadline.** Aborts the run once `deadline` passes,
    /// returning [`SteinerError::DeadlineExceeded`] from the push
    /// front-ends (or surfacing it through [`Solutions::error`] on the
    /// pull front-end). Every solution delivered before the expiry is
    /// valid — the stream is a correct *prefix* of the full answer in the
    /// engine's deterministic order — but the run is incomplete, so a
    /// [`Self::cached`] recording is rolled back exactly as for a sink
    /// abort, and buffered [`Self::with_queue`] output is dropped rather
    /// than flushed.
    ///
    /// The clock is checked at every delivery and every
    /// [`DEADLINE_CHECK_INTERVAL`]-th engine tick (once per search-tree
    /// node), so the overshoot past the deadline is bounded by a constant
    /// number of node expansions — the same linear-delay granularity the
    /// paper's guarantee is stated in. Under [`Self::with_threads`] the
    /// check runs on the calling thread, where the ticks are its own
    /// nodes' and the workers' heartbeats; workers stop at their next
    /// (bounded) channel send. A cache **hit** is never interrupted:
    /// replay is O(output) with no search, and the stored stream is only
    /// ever a complete answer.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// [`Self::with_deadline`] measured from now: the run aborts once
    /// `timeout` has elapsed. A timeout too long for an [`Instant`] to
    /// represent sets no deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        // lint:allow(clock) with_timeout anchors the caller's duration to the sanctioned deadline clock
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Publishes the run's [`EnumStats`] through a clonable handle —
    /// useful when the statistics are needed outside the sink (benches,
    /// the iterator front-end).
    pub fn with_stats(mut self) -> (Self, StatsHandle) {
        let handle = StatsHandle::default();
        self.stats_handle = Some(handle.clone());
        (self, handle)
    }

    /// **Sharded execution.** Runs the enumeration on `k` threads in all,
    /// splitting the root node's children across them — child `i` (in
    /// the engine's deterministic order) goes to shard `i mod k` — and
    /// merges the per-shard streams back into the sequential emission
    /// order, so every front-end delivers a stream **identical to the
    /// single-threaded run** (same solutions, same order), including
    /// under [`Self::with_limit`], [`Self::with_queue`], and sinks that
    /// return [`ControlFlow::Break`].
    ///
    /// The calling thread is shard 0: it runs on the instance it
    /// prepared, classifies the root and generates the root's children
    /// lazily, delivering its own children straight into the delivery
    /// chain, so the first solution waits for no worker. Each of the
    /// k − 1 spawned workers owns an independent instance copy
    /// ([`MinimalSteinerProblem::split_root`]) with its own `prepare()`,
    /// scratch pools, and statistics, and generates the root's children
    /// itself; workers communicate only through bounded channels, so a
    /// worker ahead of the calling thread blocks instead of buffering
    /// unboundedly.
    ///
    /// Every sharded run also **steals work**, so a root with few
    /// children or one dominant subtree still keeps every worker busy: a
    /// worker reaching a branch child while the shared [`crate::steal`]
    /// pool is hungry *publishes* the child as a replayable checkpoint
    /// instead of descending; an idle worker claims and executes it (or
    /// the calling thread does, on one more prepared copy, when it
    /// reaches the unclaimed checkpoint), and the subtree's stream is
    /// spliced back in at its exact position (asserted across every
    /// front-end in `tests/stealing.rs`). A problem whose
    /// [`MinimalSteinerProblem::record_subtree`] declines keeps only the
    /// root-residue split.
    ///
    /// The published engine counters are every instance's counters
    /// [merged](EnumStats::merge): `solutions` sums every instance's
    /// emissions (under a limit the workers emit ahead of the calling
    /// thread, so it can exceed what was delivered) and
    /// `max_emission_gap` is the largest gap any instance saw on its own
    /// work counter. The delivery counters come from the calling
    /// thread's delivery chain, the same one a sequential run uses:
    /// [`EnumStats::delivered`] is what the sink got and
    /// [`EnumStats::max_delivery_gap`] is measured on the merged work
    /// clock. Accepted steals and refused offers are reported in
    /// [`EnumStats::subtrees_stolen`] / [`EnumStats::steal_failures`].
    /// `k ≤ 1`, a problem whose `split_root` returns `None`,
    /// `with_limit(0)`, or an instance whose `prepare` needs no search
    /// ([`Prepared::Empty`] / [`Prepared::Single`]) runs on the
    /// sequential engine.
    pub fn with_threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Does nothing: [`Self::with_threads`] always steals work. Kept so
    /// existing callers still compile; a later change to the benchmark
    /// package, its last user, deletes it.
    #[deprecated(since = "0.2.0", note = "`with_threads` always steals; drop the call")]
    pub fn with_stealing(self, _on: bool) -> Self {
        self
    }

    /// **Scripted stealing** (test instrument): replaces the adaptive
    /// spawn policy of [`Self::with_threads`] runs with a deterministic
    /// [`StealSchedule`], so steal interleavings replay exactly — even on
    /// a single-core CI machine. Scripted runs widen the shard channels
    /// to [`SCRIPTED_CHANNEL_CAPACITY`] so adversarial scripts cannot
    /// wedge the pipeline; that sizing makes schedules unsuitable as a
    /// production policy.
    pub fn with_steal_schedule(mut self, schedule: StealSchedule) -> Self {
        self.steal_schedule = Some(schedule);
        self
    }

    /// A shared reference to the wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    fn queue_config(&self) -> Option<QueueConfig> {
        match self.queue {
            QueueOpt::Direct => None,
            QueueOpt::DefaultQueue => {
                let (n, m) = self.problem.instance_size();
                Some(QueueConfig::for_graph(n, m))
            }
            QueueOpt::Explicit(config) => Some(config),
        }
    }

    /// The spawned workers' problem copies for a sharded run — one fewer
    /// than the threads asked for, since the calling thread runs shard 0
    /// on the problem itself — or `None` when the problem does not
    /// support sharding, only one thread is asked, or the limit allows no
    /// solution at all.
    fn split_shards(&self) -> Option<Vec<P>> {
        if self.threads <= 1 || self.limit == Some(0) {
            return None;
        }
        (1..self.threads)
            .map(|_| self.problem.split_root())
            .collect()
    }

    /// **Push front-end.** Runs the enumeration, handing each solution (a
    /// sorted item slice) to `sink`; return
    /// [`ControlFlow::Break`](std::ops::ControlFlow) to stop early.
    ///
    /// With [`Self::with_threads`], the calling thread runs shard 0 and
    /// is the merge point of the shard pool, and `sink` observes the
    /// exact sequential order. Since 0.2 the problem must be `Send` (its
    /// `Item` too) so a single builder serves both execution modes; all
    /// problem types in this workspace are. The sink itself never
    /// crosses threads and needs no `Send`.
    pub fn for_each(
        self,
        mut sink: impl FnMut(&[P::Item]) -> ControlFlow<()>,
    ) -> Result<EnumStats, SteinerError>
    where
        P: Send,
        P::Item: Send,
    {
        self.start()?.drive(&mut sink)
    }

    /// The first half of both front-ends, run on the calling thread so
    /// instance errors surface synchronously: the cache lookup (a keyed
    /// instance is validated first; a hit is checked out, a miss opens the
    /// recorder, a keyless problem counts a miss), then — unless the
    /// lookup hit — the shard split, `prepare`, and the queue
    /// configuration, read after `prepare` because the undirected problems
    /// report their region's size only once it ran.
    fn start(mut self) -> Result<Started<P>, SteinerError> {
        let cache = self.cache.take();
        let mut recorder = None;
        let mut hit = None;
        if let Some(cache) = &cache {
            match self.problem.cache_key() {
                Some(key) => {
                    // Malformed instances must error identically warm and
                    // cold: the canonical fingerprints can make a malformed
                    // query (e.g. a duplicate terminal inside a forest set)
                    // collide with a valid query's key, so validate
                    // structurally before the lookup.
                    self.problem.validate()?;
                    let key = QueryKey {
                        key,
                        limit: self.limit,
                    };
                    hit = cache.checkout(&key);
                    if hit.is_none() {
                        recorder = Some(CacheRecorder::new(cache.clone(), key, self.limit));
                    }
                }
                // The problem opted out of caching: always a (counted) miss.
                None => cache.note_miss(),
            }
        }
        let (run, route) = match hit {
            // A hit has no work clock to release a queue on, and it is
            // never interrupted: replay is O(output) with no search, and
            // the stored stream is only ever a complete answer.
            Some(hit) => (
                Run::Replay(hit),
                Route {
                    queue: None,
                    limit: self.limit,
                    deadline: None,
                },
            ),
            None => {
                let shards = self.split_shards();
                let prepared = self.problem.prepare()?;
                let route = Route {
                    queue: self.queue_config(),
                    limit: self.limit,
                    deadline: self.deadline,
                };
                let run = match (shards, prepared) {
                    // The coordinator keeps its prepared instance and runs
                    // shard 0 on it, while each spawned worker prepares
                    // its own copy.
                    (Some(shards), Prepared::Search) => Run::Sharded {
                        original: self.problem,
                        shards,
                        schedule: self.steal_schedule,
                    },
                    // Trivial outcomes (Empty/Single) are delivered from the
                    // prepared instance without spawning a pool.
                    (_, prepared) => Run::Sequential(self.problem, prepared),
                };
                (run, route)
            }
        };
        Ok(Started {
            run,
            route,
            cache,
            recorder,
            stats_handle: self.stats_handle,
        })
    }

    /// Runs the enumeration for its statistics alone (every solution is
    /// generated and discarded).
    pub fn run(self) -> Result<EnumStats, SteinerError>
    where
        P: Send,
        P::Item: Send,
    {
        self.for_each(|_| ControlFlow::Continue(()))
    }

    /// Collects every solution into a vector of sorted item sets.
    pub fn collect_vec(self) -> Result<Vec<Vec<P::Item>>, SteinerError>
    where
        P: Send,
        P::Item: Send,
    {
        let mut out = Vec::new();
        self.for_each(|items| {
            out.push(items.to_vec());
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Counts the delivered solutions (respecting [`Self::with_limit`]).
    pub fn count(self) -> Result<u64, SteinerError>
    where
        P: Send,
        P::Item: Send,
    {
        Ok(self.run()?.delivered)
    }

    /// **Pull front-end.** Starts the run on the calling thread — cache
    /// lookup (a keyed instance is validated first), shard split and
    /// `prepare` — so instance errors are returned synchronously, then
    /// drives the same delivery pipeline as [`Self::for_each`] on a
    /// dedicated large-stack worker thread, yielding owned solutions
    /// through a bounded channel. Dropping the iterator stops the producer
    /// at its next emission; an error the run ends with is readable
    /// through [`Solutions::error`].
    ///
    /// The problem must own its instance data (`P: 'static`); use the
    /// problems' `from_graph` constructors or `into_owned` adapters.
    ///
    /// Named after `IntoIterator::into_iter` deliberately — the trait
    /// itself cannot be implemented because preparation is fallible.
    ///
    /// With [`Self::with_threads`], the worker thread runs shard 0 and
    /// hosts the shard pool's merge point.
    #[allow(clippy::should_implement_trait)]
    pub fn into_iter(self) -> Result<Solutions<P::Item>, SteinerError>
    where
        P: Send + 'static,
        P::Item: Send + 'static,
    {
        let started = self.start()?;
        let error: Arc<Mutex<Option<SteinerError>>> = Arc::default();
        let slot = Arc::clone(&error);
        let inner = streaming::Enumeration::spawn(move |send| {
            if let Err(e) = started.drive(&mut |items| send(items.to_vec())) {
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(e);
            }
        });
        Ok(Solutions { inner, error })
    }
}

/// An enumeration past [`Enumeration::start`], ready for
/// [`Self::drive`] on any thread.
struct Started<P: MinimalSteinerProblem> {
    run: Run<P>,
    route: Route,
    cache: Option<ResultCache<P::Item>>,
    /// Set on a keyed cache miss.
    recorder: Option<CacheRecorder<P::Item>>,
    stats_handle: Option<StatsHandle>,
}

/// Where a started run's solutions come from.
enum Run<P: MinimalSteinerProblem> {
    /// A cache hit: the checked-out stored stream.
    Replay(Checkout<P::Item>),
    /// The sequential engine on the prepared instance.
    Sequential(P, Prepared<P::Item>),
    /// The shard pool: the calling thread runs shard 0 on its prepared
    /// `original` and merges, the spawned workers run `shards`;
    /// `schedule` scripts the steals (`None`: the adaptive policy).
    Sharded {
        original: P,
        shards: Vec<P>,
        schedule: Option<StealSchedule>,
    },
}

impl<P: MinimalSteinerProblem + Send> Started<P>
where
    P::Item: Send,
{
    /// The second half of both front-ends: replays a hit or runs the
    /// engine through the one delivery chain ([`deliver_through`]) into a
    /// recorder → `sink` stage, settles the recording, and publishes the
    /// stats once — on every outcome, a replay and an expired deadline
    /// included.
    fn drive(
        self,
        sink: &mut dyn FnMut(&[P::Item]) -> ControlFlow<()>,
    ) -> Result<EnumStats, SteinerError> {
        let Started {
            run,
            route,
            cache,
            mut recorder,
            stats_handle,
        } = self;
        let replay = matches!(run, Run::Replay(_));
        // The recording stage sits closest to the user sink, so it sees
        // the final delivered stream (post-merge, post-queue, post-limit).
        let mut deliver = |items: &[P::Item]| -> ControlFlow<()> {
            if let Some(r) = &mut recorder {
                r.note(items);
            }
            let flow = sink(items);
            if flow.is_break() {
                if let Some(r) = &mut recorder {
                    r.broke = true;
                }
            }
            flow
        };
        let (outcome, delivery) = deliver_through(route, &mut deliver, |head| match run {
            Run::Replay(hit) => {
                hit.replay(&mut |items| head.solution(items, 0));
                Ok(EnumStats::for_cache_hit())
            }
            Run::Sequential(mut problem, prepared) => {
                Ok(run_sequential(&mut problem, prepared, route.limit, head))
            }
            Run::Sharded {
                mut original,
                shards,
                schedule,
            } => run_sharded(&mut original, shards, schedule.as_ref(), route, head),
        });
        let (mut stats, verdict) = match outcome {
            Ok(stats) if delivery.expired => (stats, Err(SteinerError::DeadlineExceeded)),
            Ok(stats) => (stats, Ok(())),
            Err(e) => (EnumStats::default(), Err(e)),
        };
        stats.delivered = delivery.delivered;
        stats.max_delivery_gap = delivery.max_gap;
        if replay {
            stats.solutions = delivery.delivered;
        }
        if let Some(r) = recorder {
            let pressure = r.settle(verdict.is_ok());
            stats.evicted_entries += pressure.evicted;
            stats.compactions += pressure.compactions;
        }
        if let Some(cache) = &cache {
            if !replay {
                stats.cache_misses = 1;
            }
            stats.interned_bytes = stats.interned_bytes.max(cache.bytes());
        }
        if let Some(handle) = &stats_handle {
            handle.set(stats);
        }
        verdict.map(|()| stats)
    }
}

/// Records a cold `cached()` run's delivered stream; [`Self::settle`]
/// stores it when complete and rolls it back otherwise.
struct CacheRecorder<Item: Copy + Eq + Hash> {
    cache: ResultCache<Item>,
    key: QueryKey,
    limit: Option<u64>,
    ids: Vec<SolutionId>,
    /// The sink returned `Break`.
    broke: bool,
}

impl<Item: Copy + Eq + Hash> CacheRecorder<Item> {
    fn new(cache: ResultCache<Item>, key: QueryKey, limit: Option<u64>) -> Self {
        CacheRecorder {
            cache,
            key,
            limit,
            ids: Vec::new(),
            broke: false,
        }
    }

    fn note(&mut self, items: &[Item]) {
        self.ids.push(self.cache.intern(items));
    }

    /// Stores the recording if the stream is complete, rolls it back
    /// otherwise, and returns the pressure the settlement caused. A stream
    /// is complete when the run ended on its own (`ran_to_end`: no error,
    /// no expired deadline) without the sink aborting it, or when it
    /// stopped exactly at the configured limit — the limit is part of the
    /// key, so the capped stream is the full answer for it.
    fn settle(self, ran_to_end: bool) -> CachePressure {
        if (ran_to_end && !self.broke) || Some(self.ids.len() as u64) == self.limit {
            self.cache.store_entry(self.key, self.ids)
        } else {
            self.cache.release_ids(&self.ids)
        }
    }
}

/// How a started run delivers: the output queue, the `with_limit` cap and
/// the deadline. [`deliver_through`] builds the delivery chain from it.
#[derive(Clone, Copy)]
struct Route {
    queue: Option<QueueConfig>,
    limit: Option<u64>,
    deadline: Option<Instant>,
}

/// Engine ticks between two deadline clock reads. A tick fires once per
/// search-tree node, so the overshoot past an expired deadline is at most
/// this many node expansions (each O(n + m) in the worst case) — bounded,
/// and cheap enough that `Instant::now` stays invisible in profiles.
pub const DEADLINE_CHECK_INTERVAL: u32 = 32;

/// The first stage of the delivery chain. It records the work it is
/// handed on every solution and every tick as the run's delivery clock,
/// which the [`EndStage`] reads. With a deadline it also reads the wall
/// clock at every solution and every [`DEADLINE_CHECK_INTERVAL`]-th tick,
/// and aborts the run (plain `Break`: the queue is *not* flushed) once
/// the deadline passed, latching the expiry the front-end turns into
/// [`SteinerError::DeadlineExceeded`].
struct Guard<'a, Item: Copy> {
    clock: &'a Cell<u64>,
    deadline: Option<Instant>,
    ticks: u32,
    expired: bool,
    next: &'a mut dyn SolutionSink<Item>,
}

impl<Item: Copy> Guard<'_, Item> {
    /// Moves the delivery clock to the end of the run, where no solution
    /// or tick reports the work done since the last one.
    fn advance(&mut self, work: u64) {
        self.clock.set(work);
    }

    fn check(&mut self) -> ControlFlow<()> {
        if let Some(deadline) = self.deadline {
            // lint:allow(clock) the sanctioned deadline clock: work-metered so Instant::now stays off the per-node path
            if Instant::now() >= deadline {
                self.expired = true;
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

impl<Item: Copy> SolutionSink<Item> for Guard<'_, Item> {
    fn solution(&mut self, items: &[Item], work: u64) -> ControlFlow<()> {
        self.clock.set(work);
        self.check()?;
        self.next.solution(items, work)
    }

    fn tick(&mut self, work: u64) -> ControlFlow<()> {
        self.clock.set(work);
        if self.deadline.is_some() {
            self.ticks += 1;
            if self.ticks >= DEADLINE_CHECK_INTERVAL {
                self.ticks = 0;
                self.check()?;
            }
        }
        self.next.tick(work)
    }

    fn finish(&mut self) -> ControlFlow<()> {
        self.next.finish()
    }
}

/// The last stage of the delivery chain, in front of the consumer: it
/// owns the `with_limit` cap and times every hand-off on the delivery
/// clock the [`Guard`] records. Once the cap is reached the consumer is
/// not called again, and the delivery that exhausts it returns `Break`.
struct EndStage<'a, Item> {
    sink: &'a mut dyn FnMut(&[Item]) -> ControlFlow<()>,
    clock: &'a Cell<u64>,
    remaining: Option<u64>,
    delivered: u64,
    last: u64,
    max_gap: u64,
}

impl<Item> EndStage<'_, Item> {
    fn deliver(&mut self, items: &[Item]) -> ControlFlow<()> {
        if self.remaining == Some(0) {
            return ControlFlow::Break(());
        }
        let now = self.clock.get();
        // The wait before the first delivery holds `prepare` and the
        // queue's warm-up, which Theorem 20 excludes from its gap bound.
        if self.delivered > 0 {
            self.max_gap = self.max_gap.max(now - self.last);
        }
        self.last = now;
        self.delivered += 1;
        let flow = (self.sink)(items);
        if let Some(r) = &mut self.remaining {
            *r -= 1;
            if *r == 0 {
                return ControlFlow::Break(());
            }
        }
        flow
    }
}

/// What a run's delivery chain measured.
struct Delivery {
    /// Solutions handed to the consumer.
    delivered: u64,
    /// The largest gap between consecutive deliveries, trailing gap to
    /// the end of the run included.
    max_gap: u64,
    /// The deadline expired before the run completed.
    expired: bool,
}

/// Builds the delivery chain — [`Guard`], then the output queue or a
/// [`DirectSink`], then the [`EndStage`] in front of `sink` — and runs
/// `source` into its head. Every front-end delivers through here: the
/// sequential engine, the sharded run's calling thread (its own shard,
/// the workers' streams and the subtrees it claims), and cache replay.
/// `source` leaves the delivery clock at the end of its run
/// ([`Guard::advance`]); the gap from the last delivery to there counts.
fn deliver_through<Item: Copy, R>(
    route: Route,
    sink: &mut dyn FnMut(&[Item]) -> ControlFlow<()>,
    source: impl FnOnce(&mut Guard<'_, Item>) -> R,
) -> (R, Delivery) {
    let clock = Cell::new(0u64);
    let mut end = EndStage {
        sink,
        clock: &clock,
        remaining: route.limit,
        delivered: 0,
        last: 0,
        max_gap: 0,
    };
    let (out, expired) = {
        let mut to_end = |items: &[Item]| end.deliver(items);
        let mut direct;
        let mut queued;
        let next: &mut dyn SolutionSink<Item> = match route.queue {
            None => {
                direct = DirectSink { sink: &mut to_end };
                &mut direct
            }
            Some(config) => {
                queued = OutputQueue::new(config, &mut to_end);
                &mut queued
            }
        };
        let mut head = Guard {
            clock: &clock,
            deadline: route.deadline,
            ticks: 0,
            expired: false,
            next,
        };
        let out = source(&mut head);
        (out, head.expired)
    };
    let trailing = if end.delivered > 0 {
        clock.get() - end.last
    } else {
        0
    };
    let delivery = Delivery {
        delivered: end.delivered,
        max_gap: end.max_gap.max(trailing),
        expired,
    };
    (out, delivery)
}

/// Runs the sequential engine on a prepared problem into the delivery
/// chain's `head`, whose clock is the engine's work counter. A zero limit
/// runs no search (a deadline cannot expire on a run that never starts).
fn run_sequential<P: MinimalSteinerProblem>(
    p: &mut P,
    prepared: Prepared<P::Item>,
    limit: Option<u64>,
    head: &mut Guard<'_, P::Item>,
) -> EnumStats {
    if limit == Some(0) {
        p.stats_mut().note_end();
        return *p.stats();
    }
    let stats = run_prepared(p, prepared, head);
    head.advance(stats.work);
    stats
}

/// A block of consecutive solutions from one root child, stored flat
/// (one allocation for the items, one for the lengths) so channel and
/// allocator traffic are amortized over [`BATCH_SOLUTIONS`] solutions
/// instead of paid per solution.
struct Batch<Item> {
    flat: Vec<Item>,
    lens: Vec<u32>,
}

/// Solutions per shard-channel message. Flushing also happens at every
/// child boundary, so small subtrees still stream promptly; within one
/// child the coordinator is at most one batch behind the producing
/// worker.
const BATCH_SOLUTIONS: usize = 32;

/// The receiving half of a stolen subtree's delivery channel.
type TaskReceiver<Item> = crossbeam_channel::Receiver<ShardMsg<Batch<Item>>>;

/// The output of a descent with steal points ([`recurse_stealing`]): a
/// spawned worker's channel ([`ShardSink`]) or the coordinator's
/// delivery chain ([`CoordSink`]).
trait StealSink<P: MinimalSteinerProblem>: SolutionSink<P::Item> {
    /// Plants the `Spawned` marker of `task`, which `p` (at the child it
    /// published) just offered to the pool, at the current stream
    /// position. Returns `Continue(true)` when the subtree is taken care
    /// of, `Continue(false)` when the caller descends into it locally,
    /// and `Break` when the run stops.
    fn spawned(
        &mut self,
        p: &P,
        ctx: &mut StealContext<'_, P::Item>,
        task: u64,
        rx: TaskReceiver<P::Item>,
    ) -> ControlFlow<(), bool>;
}

/// The sink a shard worker drives: tags every solution with the root
/// child it belongs to, packs consecutive solutions into flat batches,
/// and forwards them to the coordinator's channel. A send error means
/// the coordinator hung up (early termination): the worker sees `Break`
/// and unwinds.
struct ShardSink<'a, Item> {
    tx: &'a Sender<ShardMsg<Batch<Item>>>,
    /// Root-child index currently being explored.
    child: u64,
    /// Pending batch for the current child.
    batch: Batch<Item>,
    /// Tick granularity in work units (`Some` in queued mode, so the
    /// coordinator's release clock advances between solutions without
    /// flooding the channel with per-node heartbeats).
    tick_every: Option<u64>,
    last_tick: u64,
}

impl<Item: Copy> ShardSink<'_, Item> {
    /// Sends the pending batch (if any); called when the batch fills and
    /// at every child boundary.
    fn flush(&mut self, work: u64) -> ControlFlow<()> {
        if self.batch.lens.is_empty() {
            return ControlFlow::Continue(());
        }
        let batch = std::mem::replace(
            &mut self.batch,
            Batch {
                flat: Vec::new(),
                lens: Vec::new(),
            },
        );
        let msg = ShardMsg::Item {
            child: self.child,
            item: batch,
            work,
        };
        if self.tx.send(msg).is_err() {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

impl<Item: Copy> SolutionSink<Item> for ShardSink<'_, Item> {
    fn solution(&mut self, items: &[Item], work: u64) -> ControlFlow<()> {
        self.batch.flat.extend_from_slice(items);
        self.batch.lens.push(items.len() as u32);
        if self.batch.lens.len() >= BATCH_SOLUTIONS {
            self.flush(work)?;
        }
        ControlFlow::Continue(())
    }

    fn tick(&mut self, work: u64) -> ControlFlow<()> {
        if let Some(every) = self.tick_every {
            if work.saturating_sub(self.last_tick) >= every {
                self.last_tick = work;
                // Pending solutions go first so clock advances never
                // overtake the stream. A flushed batch carries `work`
                // itself, and at equal work a heartbeat releases nothing
                // its last solution did not, so one is sent only when no
                // batch was pending.
                if !self.batch.lens.is_empty() {
                    return self.flush(work);
                }
                if self.tx.send(ShardMsg::Tick { work }).is_err() {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }
}

impl<P: MinimalSteinerProblem> StealSink<P> for ShardSink<'_, P::Item> {
    /// Flushes the pending solutions, then sends the marker: the task's
    /// executor delivers the subtree.
    fn spawned(
        &mut self,
        p: &P,
        _ctx: &mut StealContext<'_, P::Item>,
        task: u64,
        rx: TaskReceiver<P::Item>,
    ) -> ControlFlow<(), bool> {
        self.flush(p.stats().work)?;
        if self.tx.send(ShardMsg::Spawned { task, rx }).is_err() {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(true)
    }
}

/// The slice of the root node's children one shard owns: the children
/// whose zero-based index `i` (in the engine's deterministic child
/// order) satisfies `i % modulus == index`. Shard 0 is the
/// coordinator's.
struct RootShard {
    /// This shard's residue class, `0 ≤ index < modulus`.
    index: u32,
    /// The number of threads the root's children are split across.
    modulus: u32,
}

impl RootShard {
    /// Whether root child `child` belongs to this shard.
    fn owns(&self, child: u64) -> bool {
        child % u64::from(self.modulus) == u64::from(self.index)
    }
}

/// Shard- and task-channel capacity under a scripted
/// [`StealSchedule`]. Adaptive stealing keeps the production capacities
/// (workers ahead of the coordinator must block, not buffer), and stays
/// deadlock-free because the coordinator executes any unclaimed task it
/// reaches. A script, by contrast, may pin claims or publish
/// adversarially many subtrees, so scripted runs buy determinism with
/// buffer space instead: channels are sized far above any test
/// workload's message count, making every worker send non-blocking.
pub const SCRIPTED_CHANNEL_CAPACITY: usize = 8192;

/// Pending-deque backstop for the adaptive pool (the hungry-pool policy
/// keeps the live depth near the thread count; the cap only bounds the
/// burst while every worker publishes its first offers).
const STEAL_PENDING_CAPACITY: usize = 1024;

/// Pending-deque capacity under a scripted schedule, which may publish
/// every branch child of a test instance at once. Scripts exceeding it
/// degrade gracefully (refused offers descend locally) but lose
/// spawn-set determinism; test instances stay far below it.
const SCRIPTED_PENDING_CAPACITY: usize = 4096;

/// One shard's stealing state, threaded through [`recurse_stealing`] and
/// [`run_steal_loop`]: the shared pool, the optional script and
/// observer, the tree address of the node currently being considered,
/// and the per-shard opportunity counter for
/// [`crate::steal::StealRule::EveryNth`].
struct StealContext<'a, Item> {
    pool: &'a StealPool<Item, Batch<Item>>,
    /// `None` = adaptive policy.
    schedule: Option<&'a StealSchedule>,
    observer: Option<&'a StealObserver>,
    /// This shard's index (observer slot and pinned-claim residue; the
    /// coordinator is 0).
    worker: usize,
    /// Tick granularity for stolen-task sinks (same as the root sink's).
    tick_every: Option<u64>,
    /// Child-index path from the engine root to the current child.
    path: Vec<u64>,
    /// Spawn opportunities seen so far by this shard.
    chances: u64,
    /// Cleared the first time
    /// [`record_subtree`](MinimalSteinerProblem::record_subtree)
    /// declines: the problem cannot checkpoint mid-descent, so stealing
    /// is disabled for the rest of the run.
    supported: bool,
}

impl<Item: Copy> StealContext<'_, Item> {
    /// Consults the steal policy for the child at `self.path`. Counts an
    /// opportunity either way (the `EveryNth` counter must not depend on
    /// earlier outcomes).
    fn should_spawn(&mut self) -> bool {
        if !self.supported {
            return false;
        }
        self.chances += 1;
        match self.schedule {
            Some(schedule) => schedule.matches(&self.path, self.chances),
            None => self.pool.wants_task(),
        }
    }

    /// Reports one retired subtree to the schedule's observer, if any.
    fn note_retired(&self) {
        if let Some(observer) = self.observer {
            observer.note(self.worker);
        }
    }
}

/// The steal point before descending into the branch child at
/// `ctx.path` (currently applied to `p`). When the policy fires, the
/// child is checkpointed, offered to the steal pool, and its `Spawned`
/// marker planted in `sink`'s stream ([`StealSink::spawned`]), so the
/// marker lands at exactly the subtree's position.
///
/// Returns `Continue(true)` when the child was handed off (skip the
/// descent), `Continue(false)` when the caller descends locally, and
/// `Break` when the run stops. Accepted offers count as
/// [`EnumStats::subtrees_stolen`] (on the *spawning* instance), refused
/// ones as [`EnumStats::steal_failures`].
fn steal_point<P: MinimalSteinerProblem, S: StealSink<P>>(
    p: &mut P,
    ctx: &mut StealContext<'_, P::Item>,
    sink: &mut S,
) -> ControlFlow<(), bool> {
    if !ctx.should_spawn() {
        return ControlFlow::Continue(false);
    }
    let Some(record) = p.record_subtree() else {
        ctx.supported = false;
        return ControlFlow::Continue(false);
    };
    match ctx.pool.offer(ctx.path.clone(), record) {
        Ok((task, rx)) => {
            p.stats_mut().subtrees_stolen += 1;
            sink.spawned(p, ctx, task, rx)
        }
        Err(_) => {
            p.stats_mut().steal_failures += 1;
            ControlFlow::Continue(false)
        }
    }
}

/// [`recurse`] with steal points: before descending into a branch
/// child, consult the steal policy and either publish the child as a
/// pool task (leaving a `Spawned` marker at its stream position) or
/// descend locally. Leaf handling is identical to `recurse`; a spawned
/// child's own node is expanded (and counted) by its executor, never by
/// the spawner.
fn recurse_stealing<P: MinimalSteinerProblem, S: StealSink<P>>(
    p: &mut P,
    depth: u32,
    sink: &mut S,
    scratch: &mut Vec<P::Item>,
    ctx: &mut StealContext<'_, P::Item>,
) -> ControlFlow<()> {
    sink.tick(p.stats().work)?;
    scratch.clear();
    match p.classify(scratch) {
        NodeStep::Complete => {
            p.stats_mut().note_node(0, depth);
            scratch.clear();
            p.solution(scratch);
            emit(p, sink, scratch, P::SORTED_SOLUTIONS)
        }
        NodeStep::Unique => {
            p.stats_mut().note_node(0, depth);
            emit(p, sink, scratch, false)
        }
        NodeStep::Branch(at) => {
            let mut next_child = 0u64;
            let (children, flow) = p.branch(at, &mut |q| {
                let this = next_child;
                next_child += 1;
                ctx.path.push(this);
                let flow = (|| {
                    if steal_point(q, ctx, sink)? {
                        return ControlFlow::Continue(());
                    }
                    recurse_stealing(q, depth + 1, sink, scratch, ctx)
                })();
                ctx.path.pop();
                flow
            });
            p.stats_mut().note_node(children, depth);
            flow
        }
    }
}

/// Executes one claimed pool task on a worker's instance copy: replays
/// the checkpoint and streams the subtree over the task's dedicated
/// channel, terminated by a `Done` marker. Nested publications are
/// allowed — a stolen subtree's own branch children go through the same
/// steal points.
fn execute_stolen_task<P: MinimalSteinerProblem>(
    p: &mut P,
    task: &PendingTask<P::Item, Batch<P::Item>>,
    scratch: &mut Vec<P::Item>,
    ctx: &mut StealContext<'_, P::Item>,
) -> ControlFlow<()> {
    let mut tsink = ShardSink {
        tx: &task.tx,
        child: 0,
        batch: Batch {
            flat: Vec::new(),
            lens: Vec::new(),
        },
        tick_every: ctx.tick_every,
        // No catch-up tick: the task stream's clock baselines at its
        // first message.
        last_tick: p.stats().work,
    };
    let depth = task.addr.len() as u32;
    debug_assert!(ctx.path.is_empty(), "steal loop runs between descents");
    ctx.path.extend_from_slice(&task.addr);
    let flow = p.replay_subtree(&task.record, &mut |q| {
        recurse_stealing(q, depth, &mut tsink, scratch, ctx)?;
        tsink.flush(q.stats().work)
    });
    ctx.path.clear();
    flow?;
    let done = ShardMsg::Done {
        work: p.stats().work,
    };
    if task.tx.send(done).is_err() {
        return ControlFlow::Break(());
    }
    ControlFlow::Continue(())
}

/// A worker's post-root steal phase: claim and execute pool tasks until
/// the pool closes. A hangup (the coordinator dropped its channels)
/// closes the pool for everyone — without the coordinator, no pending
/// task's stream can ever be drained.
fn run_steal_loop<P: MinimalSteinerProblem>(
    p: &mut P,
    ctx: &mut StealContext<'_, P::Item>,
    scratch: &mut Vec<P::Item>,
) {
    while let Some(task) = ctx.pool.take(ctx.worker as u64) {
        let flow = execute_stolen_task(p, &task, scratch, ctx);
        ctx.pool.task_done();
        if flow.is_break() {
            ctx.pool.shutdown();
            return;
        }
        ctx.note_retired();
    }
}

/// Closes one owned root child's slot in the worker stream.
fn send_child_done<Item>(sink: &ShardSink<'_, Item>, child: u64, work: u64) -> ControlFlow<()> {
    let done = ShardMsg::ChildDone { child, work };
    if sink.tx.send(done).is_err() {
        return ControlFlow::Break(());
    }
    ControlFlow::Continue(())
}

/// One spawned shard worker (shard ≥ 1): prepares its own problem copy
/// and runs the engine's root node with the shard filter. The worker
/// generates every root child itself, lazily and in the engine's
/// deterministic order (so generation stops as soon as the coordinator
/// hangs up), descends only into its residue class, and reports a
/// `ChildDone` boundary after each owned child. A root leaf belongs to
/// shard 0, the coordinator's. Returns the worker's final statistics.
///
/// Owned children and their descendants pass through steal points
/// ([`steal_point`]), and after the root phase the worker becomes a pool
/// executor ([`run_steal_loop`]). The coordinator counts the root's
/// children itself, so the root stream needs no end marker: it ends with
/// the worker's last owned child, before the steal phase fills task
/// channels that only the coordinator drains.
fn run_shard_worker<P: MinimalSteinerProblem>(
    p: &mut P,
    shard: RootShard,
    ctx: &mut StealContext<'_, P::Item>,
    sink: &mut ShardSink<'_, P::Item>,
) -> Result<EnumStats, SteinerError> {
    let prepared = match p.prepare() {
        Ok(prepared) => prepared,
        Err(e) => {
            let _ = sink.tx.send(ShardMsg::Failed);
            // This root phase is over before it began; without the
            // hand-off the pool would wait for it forever.
            ctx.pool.root_done();
            return Err(e);
        }
    };
    let (n, _) = p.instance_size();
    let mut scratch: Vec<P::Item> = Vec::with_capacity(n + 1);
    let flow = match prepared {
        Prepared::Empty | Prepared::Single(_) => unreachable!(
            "the pool is spawned only after the coordinator's prepare returned \
             Search, and each worker prepares a split_root copy of the same \
             instance, deterministically"
        ),
        Prepared::Search => match p.classify(&mut scratch) {
            NodeStep::Complete | NodeStep::Unique => {
                p.stats_mut().note_node(0, 0);
                ControlFlow::Continue(())
            }
            NodeStep::Branch(at) => {
                let mut next_child = 0u64;
                let (children, flow) = p.branch(at, &mut |q| {
                    let this = next_child;
                    next_child += 1;
                    if !shard.owns(this) {
                        // Not ours: the problem still pays the child
                        // generation (which keeps sibling order
                        // deterministic) but the subtree is skipped.
                        return ControlFlow::Continue(());
                    }
                    sink.child = this;
                    ctx.path.push(this);
                    let f = (|| {
                        if steal_point(q, ctx, sink)? {
                            return send_child_done(sink, this, q.stats().work);
                        }
                        recurse_stealing(q, 1, sink, &mut scratch, ctx)?;
                        sink.flush(q.stats().work)?;
                        send_child_done(sink, this, q.stats().work)?;
                        ctx.note_retired();
                        ControlFlow::Continue(())
                    })();
                    ctx.path.pop();
                    f
                });
                p.stats_mut().note_node(children, 0);
                flow
            }
        },
    };
    ctx.pool.root_done();
    if flow.is_continue() {
        run_steal_loop(p, ctx, &mut scratch);
    } else {
        // The coordinator hung up mid-root-phase: nothing will drain the
        // pending task channels, so close the pool now.
        ctx.pool.shutdown();
    }
    p.seal_stats();
    p.stats_mut().note_end();
    Ok(*p.stats())
}

/// Unpacks one flat batch, handing each solution onward in order.
fn each_solution<Item>(
    batch: &Batch<Item>,
    mut f: impl FnMut(&[Item]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut start = 0usize;
    for &len in &batch.lens {
        let end = start + len as usize;
        f(&batch.flat[start..end])?;
        start = end;
    }
    ControlFlow::Continue(())
}

/// An instance copy at the root state that replays the subtrees the
/// coordinator claims, with its own emission buffer.
struct Spare<P: MinimalSteinerProblem> {
    problem: P,
    scratch: Vec<P::Item>,
}

/// The calling thread of a sharded run: it runs shard 0 on the instance
/// it prepared and is the merge point, so the delivery chain's `head` is
/// fed straight from its own descents and from the workers' channels in
/// the sequential order. Every solution and tick reaches `head` stamped
/// with the merged work clock, the sum of the workers' counters, the
/// task streams' deltas and the work of the coordinator's own
/// instances.
struct Coordinator<'a, 'g, P: MinimalSteinerProblem> {
    merge: ShardMerge<Batch<P::Item>>,
    head: &'a mut Guard<'g, P::Item>,
    pool: &'a StealPool<P::Item, Batch<P::Item>>,
    /// Threads in all: the coordinator plus the spawned workers.
    k: u64,
    /// Runs under a [`StealSchedule`]: the coordinator's descents pass
    /// steal points, as worker 0's.
    scripted: bool,
    /// `spares[d]` replays the claims met `d` claims deep; each is split
    /// and prepared on first use. A claim needs an instance at the root
    /// state, and the coordinator's own sits inside the root branch.
    spares: Vec<Option<Spare<P>>>,
    /// The run's error slot (a spare's failed `prepare`).
    error: &'a Mutex<Option<SteinerError>>,
    /// A stream reported failure or hung up mid-stream.
    failed: bool,
}

impl<P: MinimalSteinerProblem> Coordinator<'_, '_, P> {
    /// Advances the merged clock by an instance's work since its
    /// previous report (`last`) and returns the merged clock.
    fn stamp(&mut self, last: &mut u64, work: u64) -> u64 {
        self.merge.advance_external(work.saturating_sub(*last));
        *last = work;
        self.merge.work()
    }

    /// Shard 0: classifies the root of the prepared `original` and walks
    /// its children lazily, in engine order. Child `i` with `i mod k = 0`
    /// runs inline straight into `head`; any other child is drained from
    /// its owner's channel up to its `ChildDone`. On completion the
    /// delivery clock moves to the end of the run and the chain is
    /// flushed.
    fn run_root(&mut self, original: &mut P, ctx: &mut StealContext<'_, P::Item>) {
        let (n, _) = original.instance_size();
        let mut scratch: Vec<P::Item> = Vec::with_capacity(n + 1);
        // `prepare` ran before the workers started: the clock starts
        // after it.
        let mut sink = CoordSink {
            last: original.stats().work,
            co: self,
            level: 0,
        };
        let flow = (|| {
            sink.tick(original.stats().work)?;
            match original.classify(&mut scratch) {
                NodeStep::Complete => {
                    original.stats_mut().note_node(0, 0);
                    scratch.clear();
                    original.solution(&mut scratch);
                    emit(original, &mut sink, &mut scratch, P::SORTED_SOLUTIONS)
                }
                NodeStep::Unique => {
                    original.stats_mut().note_node(0, 0);
                    emit(original, &mut sink, &mut scratch, false)
                }
                NodeStep::Branch(at) => {
                    let mut next_child = 0u64;
                    let (children, flow) = original.branch(at, &mut |q| {
                        let this = next_child;
                        next_child += 1;
                        let owner = this % sink.co.k;
                        if owner != 0 {
                            let worker = owner as usize - 1;
                            let from = Drain::Child {
                                worker,
                                child: this,
                            };
                            return sink.co.drain(q, ctx, 0, from);
                        }
                        if !sink.co.scripted {
                            return recurse(q, 1, &mut sink, &mut scratch);
                        }
                        ctx.path.push(this);
                        let flow = (|| {
                            if !steal_point(q, ctx, &mut sink)? {
                                recurse_stealing(q, 1, &mut sink, &mut scratch, ctx)?;
                                ctx.note_retired();
                            }
                            ControlFlow::Continue(())
                        })();
                        ctx.path.pop();
                        flow
                    });
                    original.stats_mut().note_node(children, 0);
                    flow
                }
            }
        })();
        if flow.is_continue() {
            // Completion beats expiry: a finished stream is the complete
            // answer, deadline or not, so the flush is not guarded.
            let work = sink.co.stamp(&mut sink.last, original.stats().work);
            sink.co.head.advance(work);
            let _ = sink.co.head.finish();
        }
    }

    /// Delivers `from` — a root child on its owner's channel, or a task
    /// stream — up to its end, splicing in the subtrees it hands off:
    /// one the coordinator may claim runs on `spares[level]`, any other
    /// is drained from its own channel. `template` is an instance of the
    /// run, which a spare is split from on first use.
    fn drain(
        &mut self,
        template: &P,
        ctx: &mut StealContext<'_, P::Item>,
        level: usize,
        mut from: Drain<Batch<P::Item>>,
    ) -> ControlFlow<()> {
        loop {
            match self.merge.next_event(&mut from) {
                MergeEvent::Item(batch) => {
                    let work = self.merge.work();
                    each_solution(&batch, |sol| self.head.solution(sol, work))?;
                }
                MergeEvent::Tick => self.head.tick(self.merge.work())?,
                MergeEvent::Subtree { task, rx } => match self.pool.claim_for_merge(task) {
                    Some(claimed) => self.run_claimed(template, ctx, level, claimed)?,
                    None => self.drain(template, ctx, level, Drain::task(rx))?,
                },
                MergeEvent::Done => return ControlFlow::Continue(()),
                MergeEvent::Failed => {
                    self.failed = true;
                    return ControlFlow::Break(());
                }
            }
        }
    }

    /// Executes a claimed task on `spares[level]`: the subtree's
    /// solutions flow straight into `head` (no channel round-trip) at
    /// exactly the position its marker holds. Under a schedule the
    /// replay passes steal points, as worker 0's would.
    fn run_claimed(
        &mut self,
        template: &P,
        ctx: &mut StealContext<'_, P::Item>,
        level: usize,
        task: PendingTask<P::Item, Batch<P::Item>>,
    ) -> ControlFlow<()> {
        let mut spare = self.take_spare(template, level)?;
        let PendingTask { addr, record, .. } = task;
        let depth = addr.len() as u32;
        let outer = std::mem::replace(&mut ctx.path, addr);
        let scripted = self.scripted;
        let Spare { problem, scratch } = &mut spare;
        let mut sink = CoordSink {
            co: self,
            last: problem.stats().work,
            level: level + 1,
        };
        let flow = problem.replay_subtree(&record, &mut |q| {
            if scripted {
                recurse_stealing(q, depth, &mut sink, scratch, ctx)
            } else {
                recurse(q, depth, &mut sink, scratch)
            }
        });
        ctx.path = outer;
        self.spares[level] = Some(spare);
        self.pool.task_done();
        ctx.note_retired();
        flow
    }

    /// Takes `spares[level]` out for a claim, splitting it from
    /// `template` and preparing it on first use. A failed `prepare` goes
    /// to the error slot and stops the run.
    fn take_spare(&mut self, template: &P, level: usize) -> ControlFlow<(), Spare<P>> {
        if self.spares.len() <= level {
            self.spares.resize_with(level + 1, || None);
        }
        if let Some(spare) = self.spares[level].take() {
            return ControlFlow::Continue(spare);
        }
        let mut problem = template
            .split_root()
            .expect("split_root returns Some: it did for every worker of this run");
        match problem.prepare() {
            Ok(Prepared::Search) => {}
            Ok(Prepared::Empty | Prepared::Single(_)) => unreachable!(
                "a split_root copy of an instance whose prepare returned Search \
                 prepares to Search, deterministically"
            ),
            Err(e) => {
                self.error
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_or_insert(e);
                return ControlFlow::Break(());
            }
        }
        let (n, _) = problem.instance_size();
        ControlFlow::Continue(Spare {
            problem,
            scratch: Vec::with_capacity(n + 1),
        })
    }
}

/// The coordinator's sink for the descents it runs itself — its own
/// shard and the subtrees it claims: stamps the executing instance's
/// solutions and ticks with the merged clock and forwards them into the
/// chain's `head`, so an inline subtree is indistinguishable, stream
/// *and* clock, from one delivered over a channel. A subtree the
/// descent publishes (scripted runs only) is spliced in on the spot.
struct CoordSink<'s, 'a, 'g, P: MinimalSteinerProblem> {
    co: &'s mut Coordinator<'a, 'g, P>,
    /// The executing instance's work at its previous report.
    last: u64,
    /// The spare that claims met below this descent run on.
    level: usize,
}

impl<P: MinimalSteinerProblem> SolutionSink<P::Item> for CoordSink<'_, '_, '_, P> {
    fn solution(&mut self, items: &[P::Item], work: u64) -> ControlFlow<()> {
        let merged = self.co.stamp(&mut self.last, work);
        self.co.head.solution(items, merged)
    }

    fn tick(&mut self, work: u64) -> ControlFlow<()> {
        let merged = self.co.stamp(&mut self.last, work);
        self.co.head.tick(merged)
    }
}

impl<P: MinimalSteinerProblem> StealSink<P> for CoordSink<'_, '_, '_, P> {
    /// The coordinator reaches its own marker at once: a task it may
    /// claim (any task, or one pinned to worker 0) it retires by
    /// descending locally, and any other it awaits on its channel.
    fn spawned(
        &mut self,
        p: &P,
        ctx: &mut StealContext<'_, P::Item>,
        task: u64,
        rx: TaskReceiver<P::Item>,
    ) -> ControlFlow<(), bool> {
        if self.co.pool.claim_for_merge(task).is_some() {
            self.co.pool.task_done();
            return ControlFlow::Continue(false);
        }
        self.co.drain(p, ctx, self.level, Drain::task(rx))?;
        ControlFlow::Continue(true)
    }
}

/// Closes the steal pool when dropped — normally right after the
/// coordinator's walk returns, but also on panic-unwind through it — so
/// workers blocked in [`StealPool::take`] always wake and the thread
/// scope can join.
struct PoolShutdownGuard<'a, Item, M>(&'a StealPool<Item, M>);

impl<Item, M> Drop for PoolShutdownGuard<'_, Item, M> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs a sharded enumeration on k = `shards.len() + 1` threads into the
/// delivery chain's `head`, and returns the merged statistics.
///
/// `original` is the coordinator's own prepared instance, whose `prepare`
/// returned [`Prepared::Search`]; `shards` are the `split_root` copies
/// of the k − 1 spawned workers (each with the streaming module's large
/// stack), which start at once and prepare their own copies while the
/// calling thread runs shard 0 on `original`
/// ([`Coordinator::run_root`]). Its statistics, the workers' and any
/// spare's are folded into the merged totals. `schedule` scripts the
/// steals; `None` runs the adaptive policy.
fn run_sharded<P>(
    original: &mut P,
    shards: Vec<P>,
    schedule: Option<&StealSchedule>,
    route: Route,
    head: &mut Guard<'_, P::Item>,
) -> Result<EnumStats, SteinerError>
where
    P: MinimalSteinerProblem + Send,
    P::Item: Send,
{
    let k = shards.len() as u32 + 1;
    // One release per `budget` needs clock resolution no coarser than the
    // budget itself; half of it keeps heartbeat traffic negligible. A
    // deadline without a queue also needs heartbeats — otherwise a long
    // solution-free stretch leaves the coordinator blocked on a channel
    // with no chance to read the clock — at the delay-budget granularity
    // the queue would have used (4(n + m) work units).
    let tick_every = match (route.queue, route.deadline) {
        (Some(c), _) => Some((c.budget / 2).max(1)),
        (None, Some(_)) => {
            let (n, m) = original.instance_size();
            Some((4 * (n + m) as u64).max(1))
        }
        (None, None) => None,
    };
    let error: Mutex<Option<SteinerError>> = Mutex::new(None);
    let merged: Mutex<EnumStats> = Mutex::new(EnumStats::default());
    // Modest per-worker runway: capacity × BATCH_SOLUTIONS solutions may
    // be in flight per worker, which decouples the pool from the
    // coordinator without letting workers burn far past an early
    // termination. Scripted steal runs instead buy determinism with
    // buffer space (see SCRIPTED_CHANNEL_CAPACITY). Under the adaptive
    // policy only the spawned workers' root phases publish; under a
    // schedule the coordinator's does too, and it ends with its walk,
    // when the shutdown guard closes the pool.
    let threads = k as usize;
    let (pool, chan_cap) = match schedule {
        None => (
            StealPool::new(threads, threads - 1, STEAL_PENDING_CAPACITY, 8, false),
            8,
        ),
        Some(s) => (
            StealPool::new(
                threads,
                threads,
                SCRIPTED_PENDING_CAPACITY,
                SCRIPTED_CHANNEL_CAPACITY,
                s.pins_claims(),
            ),
            SCRIPTED_CHANNEL_CAPACITY,
        ),
    };
    let observer = schedule.and_then(|s| s.observer());
    let (txs, rxs) = streaming::shard_channels(threads - 1, chan_cap);
    let (spares, failed) = std::thread::scope(|scope| {
        for (i, (mut problem, tx)) in shards.into_iter().zip(txs).enumerate() {
            let worker = i + 1;
            let error = &error;
            let merged = &merged;
            let pool = &pool;
            std::thread::Builder::new()
                .name(format!("steiner-shard-{worker}"))
                .stack_size(streaming::DEFAULT_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let shard = RootShard {
                        index: worker as u32,
                        modulus: k,
                    };
                    let mut ctx = StealContext {
                        pool,
                        schedule,
                        observer,
                        worker,
                        tick_every,
                        path: Vec::new(),
                        chances: 0,
                        supported: true,
                    };
                    let mut shard_sink = ShardSink {
                        tx: &tx,
                        child: 0,
                        batch: Batch {
                            flat: Vec::new(),
                            lens: Vec::new(),
                        },
                        tick_every,
                        last_tick: 0,
                    };
                    match run_shard_worker(&mut problem, shard, &mut ctx, &mut shard_sink) {
                        Ok(stats) => merged
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .merge(&stats),
                        Err(e) => {
                            error
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .get_or_insert(e);
                        }
                    }
                })
                .expect("spawn shard worker");
        }
        // Close the pool however the walk exits (completion, early
        // break, or panic): workers blocked in `take` must wake or the
        // scope never joins.
        let _shutdown = PoolShutdownGuard(&pool);
        let mut ctx = StealContext {
            pool: &pool,
            schedule,
            observer,
            worker: 0,
            tick_every,
            path: Vec::new(),
            chances: 0,
            supported: true,
        };
        let mut co = Coordinator {
            merge: ShardMerge::new(rxs),
            head,
            pool: &pool,
            k: u64::from(k),
            scripted: schedule.is_some(),
            spares: Vec::new(),
            error: &error,
            failed: false,
        };
        co.run_root(original, &mut ctx);
        // Dropping the merge hangs up every worker channel; the scope
        // then joins the workers (propagating any worker panic).
        (co.spares, co.failed)
    });
    if let Some(e) = error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    debug_assert!(!failed, "failure without a recorded error");
    let mut stats = *merged.lock().unwrap_or_else(|e| e.into_inner());
    // Shard 0 and the claimed subtrees ran on the coordinator's
    // instances: fold their counters in so every instance's work is
    // accounted exactly once.
    original.seal_stats();
    original.stats_mut().note_end();
    stats.merge(original.stats());
    for Spare { mut problem, .. } in spares.into_iter().flatten() {
        problem.seal_stats();
        stats.merge(problem.stats());
    }
    Ok(stats)
}

/// Iterator over the solutions of a background enumeration, returned by
/// [`Enumeration::into_iter`]. Each item is a sorted `Vec` of edge/arc
/// ids.
pub struct Solutions<Item> {
    inner: steiner_paths::streaming::Enumeration<Vec<Item>>,
    error: Arc<Mutex<Option<SteinerError>>>,
}

impl<Item> Solutions<Item> {
    /// The error the worker's run ended with, if any — the one
    /// [`Enumeration::for_each`] would have returned for the same run. In
    /// practice that is [`SteinerError::DeadlineExceeded`], when the run's
    /// [`Enumeration::with_deadline`] expired mid-stream: instance errors
    /// surface while the run starts, so [`Enumeration::into_iter`] returns
    /// them synchronously. The yielded prefix is still valid. Read it
    /// after the iterator is exhausted: the worker stores the verdict when
    /// the stream ends, so a mid-stream read may race a just-expiring
    /// deadline.
    pub fn error(&self) -> Option<SteinerError> {
        self.error.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl<Item> Iterator for Solutions<Item> {
    type Item = Vec<Item>;

    /// Yields the next solution. If the producer thread **panicked**, the
    /// panic is re-raised here instead of silently ending the stream — a
    /// partial enumeration is never passed off as a complete one.
    fn next(&mut self) -> Option<Vec<Item>> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::improved::SteinerTree;
    use steiner_graph::{EdgeId, UndirectedGraph, VertexId};

    #[test]
    fn stats_handle_recovers_from_poisoned_mutex() {
        // Poison the inner mutex by panicking while holding the lock on
        // another thread — the situation after a worker-thread panic
        // mid-run. Later reads must return the last published value
        // instead of panicking in turn.
        let handle = StatsHandle::default();
        let mut stats = EnumStats::default();
        stats.solutions = 7;
        handle.set(stats);
        let poisoner = handle.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("worker dies while holding the stats lock");
        })
        .join();
        assert!(handle.0.is_poisoned(), "the mutex is actually poisoned");
        assert_eq!(handle.get().solutions, 7, "get() recovers the value");
        let mut stats2 = EnumStats::default();
        stats2.solutions = 9;
        handle.set(stats2);
        assert_eq!(handle.get().solutions, 9, "set() keeps working too");
    }

    /// A problem whose sink-side machinery panics mid-enumeration: it
    /// claims two solutions but blows up while classifying the second.
    struct PanickingProblem {
        emitted: u64,
        stats: EnumStats,
    }

    impl MinimalSteinerProblem for PanickingProblem {
        type Item = EdgeId;
        type Branch = ();

        const NAME: &'static str = "panicking test problem";

        fn validate(&self) -> Result<(), SteinerError> {
            Ok(())
        }

        fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
            Ok(Prepared::Search)
        }

        fn instance_size(&self) -> (usize, usize) {
            (2, 1)
        }

        fn stats(&self) -> &EnumStats {
            &self.stats
        }

        fn stats_mut(&mut self) -> &mut EnumStats {
            &mut self.stats
        }

        fn classify(&mut self, _out: &mut Vec<EdgeId>) -> NodeStep<()> {
            match self.emitted {
                0 => NodeStep::Branch(()),
                1 => NodeStep::Complete,
                _ => panic!("enumeration dies after the first solution"),
            }
        }

        fn solution(&self, out: &mut Vec<EdgeId>) {
            out.push(EdgeId(0));
        }

        fn branch(
            &mut self,
            _at: (),
            child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
        ) -> (u64, ControlFlow<()>) {
            let mut children = 0;
            let mut flow = ControlFlow::Continue(());
            for _ in 0..2 {
                self.emitted += 1;
                let f = child(self);
                if f.is_break() {
                    flow = ControlFlow::Break(());
                    break;
                }
                children += 1;
            }
            (children, flow)
        }
    }

    /// A well-behaved two-solution problem using the default (`None`)
    /// `cache_key` — i.e. one that opts out of result caching.
    struct KeylessProblem {
        emitted: u64,
        stats: EnumStats,
    }

    impl MinimalSteinerProblem for KeylessProblem {
        type Item = EdgeId;
        type Branch = ();

        const NAME: &'static str = "keyless test problem";

        fn validate(&self) -> Result<(), SteinerError> {
            Ok(())
        }

        fn prepare(&mut self) -> Result<Prepared<EdgeId>, SteinerError> {
            Ok(Prepared::Search)
        }

        fn instance_size(&self) -> (usize, usize) {
            (2, 1)
        }

        fn stats(&self) -> &EnumStats {
            &self.stats
        }

        fn stats_mut(&mut self) -> &mut EnumStats {
            &mut self.stats
        }

        fn classify(&mut self, out: &mut Vec<EdgeId>) -> NodeStep<()> {
            if self.emitted == 0 {
                NodeStep::Branch(())
            } else {
                out.push(EdgeId(self.emitted as u32));
                NodeStep::Unique
            }
        }

        fn solution(&self, _out: &mut Vec<EdgeId>) {}

        fn branch(
            &mut self,
            _at: (),
            child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
        ) -> (u64, ControlFlow<()>) {
            let mut children = 0;
            for _ in 0..2 {
                self.emitted += 1;
                if child(self).is_break() {
                    return (children, ControlFlow::Break(()));
                }
                children += 1;
            }
            (children, ControlFlow::Continue(()))
        }
    }

    #[test]
    fn keyless_cached_run_counts_a_miss_on_both_front_ends() {
        // A problem without a cache key still publishes cache_misses = 1
        // under cached() — identically on the push and pull front-ends.
        let cache = crate::cache::ResultCache::new();
        let (run, handle) = Enumeration::new(KeylessProblem {
            emitted: 0,
            stats: EnumStats::default(),
        })
        .cached(&cache)
        .with_stats();
        run.run().expect("valid instance");
        assert_eq!(handle.get().cache_misses, 1, "push front-end");

        let (run, handle) = Enumeration::new(KeylessProblem {
            emitted: 0,
            stats: EnumStats::default(),
        })
        .cached(&cache)
        .with_stats();
        let drained: Vec<_> = run.into_iter().expect("valid instance").collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(handle.get().cache_misses, 1, "pull front-end agrees");
        assert_eq!(handle.get().cache_hits, 0);
        // Keyless runs are counted but never stored.
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn iterator_surfaces_producer_panic() {
        let mut iter = Enumeration::new(PanickingProblem {
            emitted: 0,
            stats: EnumStats::default(),
        })
        .into_iter()
        .expect("prepare succeeds");
        // The first solution arrives before the panic.
        assert_eq!(iter.next(), Some(vec![EdgeId(0)]));
        // Draining past the panic must re-raise it, not end the stream.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                move || {
                    while iter.next().is_some() {}
                },
            ));
        let payload = outcome.expect_err("the producer panic propagates to the consumer");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(
            msg.contains("dies after the first solution"),
            "the original panic message survives: {msg:?}"
        );
    }

    #[test]
    fn completed_iterator_ends_cleanly() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut iter = Enumeration::new(SteinerTree::from_graph(g, &[VertexId(0), VertexId(1)]))
            .into_iter()
            .unwrap();
        assert!(iter.next().is_some());
        assert!(iter.next().is_some());
        assert_eq!(iter.next(), None, "normal completion stays a clean None");
        assert_eq!(iter.next(), None, "and is idempotent");
    }
}
