//! Subtree work stealing for the sharded front-end.
//!
//! A sharded run ([`Enumeration::with_threads`](crate::solver::Enumeration::with_threads))
//! splits the root's children round-robin between the calling thread
//! (the coordinator, shard 0) and k − 1 spawned workers, which alone
//! would collapse when the root has fewer children than threads or when
//! one subtree dwarfs the rest. Every sharded run therefore steals at a
//! second level: a busy worker reaching a branch child may *publish* it —
//! a self-contained [`SubtreeRecord`] checkpoint pushed into the pool's
//! bounded pending deque — instead of descending, leaving a
//! [`Spawned`](steiner_paths::streaming::ShardMsg) marker in its output
//! stream at exactly the position where the subtree's solutions belong.
//! An idle worker claims the checkpoint, replays it on its own instance
//! copy, and delivers the subtree over a dedicated channel that the
//! coordinator splices in at the marker; a checkpoint nobody claimed by
//! the time the coordinator reaches its marker is claimed and replayed
//! by the coordinator itself, which keeps the run deadlock-free. The
//! merged stream stays **byte-identical to the sequential engine** no
//! matter which thread executed which subtree.
//!
//! Spawn decisions are adaptive by default: a spawned worker publishes
//! only while the pool is hungry (an idle worker is waiting, or fewer
//! checkpoints than threads are outstanding), and the coordinator never
//! publishes, since it could only wait for the task. For CI they can
//! instead be **scripted** through a [`StealSchedule`] — a deterministic
//! rule set over tree addresses and depths — so pathological
//! interleavings (skewed star roots, steals at every depth) replay
//! exactly, even on a single-core container. Under a schedule the
//! coordinator is worker 0: its descents publish by the same rules, and
//! it runs the claims pinned to worker 0.

use crate::problem::SubtreeRecord;
use crate::trail::BoundedFrameDeque;
use crossbeam_channel::{bounded, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use steiner_paths::streaming::ShardMsg;

/// One scripted spawn rule; any matching rule publishes the child (see
/// [`StealSchedule`]).
#[derive(Clone, Debug)]
pub enum StealRule {
    /// Publish every branch child whose depth lies in `min..=max`
    /// (depth 1 = a root child).
    DepthRange {
        /// Smallest depth published.
        min: u32,
        /// Largest depth published.
        max: u32,
    },
    /// Publish the children at exactly these tree addresses. An address
    /// is the child-index path from the root in the engine's
    /// deterministic order: `[2, 0]` is the first child of the root's
    /// third child.
    At(Vec<Vec<u64>>),
    /// Publish every `n`-th spawn opportunity a worker encounters (a
    /// per-worker counter over branch-child visits).
    EveryNth(u64),
}

/// A deterministic steal script, for tests and CI
/// ([`Enumeration::with_steal_schedule`](crate::solver::Enumeration::with_steal_schedule)).
///
/// Where the default policy publishes subtrees only while the pool is
/// hungry (a timing-dependent decision), a schedule publishes exactly
/// the children its rules name — the spawned-task *set* depends only on
/// the enumeration tree, so steal-path tests replay identically on any
/// machine, including single-core CI containers. Scripted runs widen
/// the shard channels (see
/// [`SCRIPTED_CHANNEL_CAPACITY`](crate::solver::SCRIPTED_CHANNEL_CAPACITY))
/// so even adversarial scripts that spawn far more subtrees than any
/// worker is idle for cannot wedge the pipeline; that sizing makes
/// schedules a **test-only** instrument, not a production policy.
#[derive(Clone, Debug, Default)]
pub struct StealSchedule {
    rules: Vec<StealRule>,
    pin_claims: bool,
    observer: Option<StealObserver>,
}

impl StealSchedule {
    /// An empty schedule (no rule matches, nothing is published).
    pub fn new() -> Self {
        StealSchedule::default()
    }

    /// Adds a raw rule.
    pub fn rule(mut self, rule: StealRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a [`StealRule::DepthRange`] rule.
    pub fn steal_at_depths(self, min: u32, max: u32) -> Self {
        self.rule(StealRule::DepthRange { min, max })
    }

    /// Adds a [`StealRule::At`] rule for one tree address.
    pub fn steal_at(self, addr: &[u64]) -> Self {
        self.rule(StealRule::At(vec![addr.to_vec()]))
    }

    /// Adds a [`StealRule::EveryNth`] rule.
    pub fn steal_every(self, n: u64) -> Self {
        self.rule(StealRule::EveryNth(n))
    }

    /// Pins each published task `t` to worker `t mod k` — only that
    /// worker may claim it (worker 0 is the coordinator, which runs its
    /// claims when it reaches their markers), and the coordinator's
    /// inline fallback for other workers' tasks is disabled, so which
    /// worker retires which subtree is fully determined by the script
    /// (the skew-regression tests rely on this).
    pub fn pin_claims(mut self, on: bool) -> Self {
        self.pin_claims = on;
        self
    }

    /// Reports per-worker subtree retirements into `observer`.
    pub fn observe(mut self, observer: &StealObserver) -> Self {
        self.observer = Some(observer.clone());
        self
    }

    pub(crate) fn pins_claims(&self) -> bool {
        self.pin_claims
    }

    pub(crate) fn observer(&self) -> Option<&StealObserver> {
        self.observer.as_ref()
    }

    /// Whether the child at `addr` (depth `addr.len()`), the worker's
    /// `chance`-th spawn opportunity, should be published.
    pub(crate) fn matches(&self, addr: &[u64], chance: u64) -> bool {
        let depth = addr.len() as u32;
        self.rules.iter().any(|rule| match rule {
            StealRule::DepthRange { min, max } => (*min..=*max).contains(&depth),
            StealRule::At(addrs) => addrs.iter().any(|a| a == addr),
            StealRule::EveryNth(n) => *n > 0 && chance.is_multiple_of(*n),
        })
    }
}

/// Shared per-worker retirement counts, filled in by a scripted run via
/// [`StealSchedule::observe`]: slot `i` counts the subtrees worker `i`
/// retired — owned root children plus claimed steal-pool tasks; slot 0
/// is the coordinator's. The skew-hazard regression asserts every slot
/// is ≥ 1 on a star root.
#[derive(Clone, Debug, Default)]
pub struct StealObserver {
    counts: Arc<Mutex<Vec<u64>>>,
}

impl StealObserver {
    /// A fresh observer with all counts zero.
    pub fn new() -> Self {
        StealObserver::default()
    }

    /// The per-worker retirement counts observed so far (index =
    /// worker). Read it after the run completes.
    pub fn retired(&self) -> Vec<u64> {
        self.counts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn note(&self, worker: usize) {
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        if counts.len() <= worker {
            counts.resize(worker + 1, 0);
        }
        counts[worker] += 1;
    }
}

/// One published subtree: where it sits in the enumeration tree, the
/// checkpoint to replay, and the channel its executor delivers on.
pub(crate) struct PendingTask<Item, M> {
    /// Pool-wide task id (also the pinning key: `id % k`).
    pub id: u64,
    /// Tree address of the subtree root (child-index path from the
    /// engine root; `len()` is the engine depth to resume at).
    pub addr: Vec<u64>,
    /// The replayable checkpoint.
    pub record: SubtreeRecord<Item>,
    /// Sending half of the subtree's delivery channel (the receiving
    /// half went into the spawner's `Spawned` marker).
    pub tx: Sender<ShardMsg<M>>,
}

struct PoolState<Item, M> {
    pending: BoundedFrameDeque<PendingTask<Item, M>>,
    /// Published but not yet retired tasks (pending + claimed-and-running).
    outstanding: usize,
    /// Root phases still running that may publish (none publishes more
    /// tasks once this reaches zero).
    root_active: usize,
    /// Workers blocked in [`StealPool::take`].
    waiters: usize,
    next_id: u64,
    closed: bool,
}

/// The shared hand-off point of one work-stealing sharded run.
///
/// Lifecycle: every publishing root phase holds the pool (`root_active`
/// starts at `roots`: the k − 1 spawned workers, plus the coordinator
/// under a schedule, where it publishes too); [`Self::offer`] publishes
/// checkpoints into the bounded pending deque; idle spawned workers
/// block in [`Self::take`]; the coordinator claims by id at a marker
/// ([`Self::claim_for_merge`]); the pool closes itself — waking every
/// waiter — once all root phases are done and every published task is
/// retired, and the coordinator's shutdown guard closes it
/// unconditionally when its walk ends (completion, limit, deadline,
/// failure), so no worker can outlive the run.
pub(crate) struct StealPool<Item, M> {
    state: Mutex<PoolState<Item, M>>,
    hungry: Condvar,
    threads: u64,
    pin_claims: bool,
    task_channel_capacity: usize,
}

impl<Item, M> StealPool<Item, M> {
    /// A pool for `threads` threads (the coordinator included; task `t`
    /// is pinned to `t mod threads`) with `roots` publishing root
    /// phases.
    pub fn new(
        threads: usize,
        roots: usize,
        pending_capacity: usize,
        task_channel_capacity: usize,
        pin_claims: bool,
    ) -> Self {
        StealPool {
            state: Mutex::new(PoolState {
                pending: BoundedFrameDeque::new(pending_capacity),
                outstanding: 0,
                root_active: roots,
                waiters: 0,
                next_id: 0,
                closed: false,
            }),
            hungry: Condvar::new(),
            threads: threads as u64,
            pin_claims,
            task_channel_capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState<Item, M>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The adaptive spawn policy's cheap pre-check: publish only while
    /// someone is idle (a waiter) or the pool is underfilled (fewer
    /// outstanding tasks than workers), and the pending deque has room.
    pub fn wants_task(&self) -> bool {
        let s = self.lock();
        !s.closed
            && !s.pending.is_full()
            && (s.waiters > 0 || (s.outstanding as u64) < self.threads)
    }

    /// Publishes a checkpoint. On success returns the task id and the
    /// receiving half of its delivery channel (to embed in the spawner's
    /// `Spawned` marker); on `Err` the pending deque was full or the
    /// pool closed — the record comes back so the spawner can descend
    /// locally (a counted
    /// [`steal_failure`](crate::stats::EnumStats::steal_failures)).
    pub fn offer(
        &self,
        addr: Vec<u64>,
        record: SubtreeRecord<Item>,
    ) -> Result<(u64, Receiver<ShardMsg<M>>), SubtreeRecord<Item>> {
        let mut s = self.lock();
        if s.closed || s.pending.is_full() {
            return Err(record);
        }
        let id = s.next_id;
        s.next_id += 1;
        let (tx, rx) = bounded(self.task_channel_capacity);
        let task = PendingTask {
            id,
            addr,
            record,
            tx,
        };
        if let Err(task) = s.pending.offer(task) {
            // Unreachable (fullness checked above under the same lock),
            // but degrade to a refusal rather than losing the frame.
            return Err(task.record);
        }
        s.outstanding += 1;
        drop(s);
        if self.pin_claims {
            // The task is claimable only by worker `id % k`: wake
            // everyone so the owner (wherever it sleeps) sees it.
            self.hungry.notify_all();
        } else {
            self.hungry.notify_one();
        }
        Ok((id, rx))
    }

    /// Blocks until a task is claimable (or the pool closes → `None`);
    /// called by the spawned workers. Under pinned claims, worker `w`
    /// only ever receives tasks with `id % k == w`.
    pub fn take(&self, worker: u64) -> Option<PendingTask<Item, M>> {
        let mut s = self.lock();
        loop {
            let claimed = if self.pin_claims {
                let threads = self.threads;
                s.pending.take_first(|t| t.id % threads == worker)
            } else {
                s.pending.take_front()
            };
            if let Some(task) = claimed {
                return Some(task);
            }
            if s.closed {
                return None;
            }
            s.waiters += 1;
            s = self.hungry.wait(s).unwrap_or_else(|e| e.into_inner());
            s.waiters -= 1;
        }
    }

    /// The coordinator's claim of a still-unclaimed task whose `Spawned`
    /// marker it reached: rather than blocking on a channel nobody is
    /// filling, it executes the subtree itself. Returns `None` when the
    /// task was already claimed by a worker — or, under pinned claims,
    /// when the task is pinned to another worker than the coordinator's
    /// 0 (the script decides who executes).
    pub fn claim_for_merge(&self, id: u64) -> Option<PendingTask<Item, M>> {
        if self.pin_claims && !id.is_multiple_of(self.threads) {
            return None;
        }
        self.lock().pending.take_first(|t| t.id == id)
    }

    /// Marks one claimed task retired (called by whoever executed it).
    pub fn task_done(&self) {
        let mut s = self.lock();
        s.outstanding -= 1;
        self.maybe_close(&mut s);
    }

    /// Marks one publishing root phase complete.
    pub fn root_done(&self) {
        let mut s = self.lock();
        s.root_active -= 1;
        self.maybe_close(&mut s);
    }

    fn maybe_close(&self, s: &mut PoolState<Item, M>) {
        if !s.closed && s.root_active == 0 && s.outstanding == 0 {
            s.closed = true;
            self.hungry.notify_all();
        }
    }

    /// Closes the pool unconditionally (early merge termination):
    /// waiters wake and drain, pending tasks are dropped — their
    /// `Spawned` markers will never be consumed, which is fine because
    /// the merge that would have consumed them is gone.
    pub fn shutdown(&self) {
        let mut s = self.lock();
        s.closed = true;
        self.hungry.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::EdgeId;

    fn record() -> SubtreeRecord<EdgeId> {
        SubtreeRecord {
            vertices: Vec::new(),
            items: Vec::new(),
            meta: 0,
        }
    }

    type Pool = StealPool<EdgeId, ()>;

    #[test]
    fn schedule_rules_match_addresses_depths_and_counters() {
        let s = StealSchedule::new()
            .steal_at_depths(2, 3)
            .steal_at(&[0, 1, 4])
            .steal_every(10);
        assert!(s.matches(&[5, 9], 1), "depth 2 in range");
        assert!(s.matches(&[5, 9, 0], 1), "depth 3 in range");
        assert!(!s.matches(&[5], 1), "depth 1 out of range");
        assert!(!s.matches(&[0, 1, 4, 7], 1), "prefix is not the address");
        assert!(s.matches(&[0, 1, 4], 3), "exact address");
        assert!(s.matches(&[9, 9, 9, 9], 20), "every 10th opportunity");
        assert!(!s.matches(&[9, 9, 9, 9], 21));
        assert!(!StealSchedule::new().matches(&[0], 0), "empty: never");
    }

    #[test]
    fn pool_closes_when_roots_and_tasks_drain() {
        let pool: Pool = Pool::new(2, 2, 4, 4, false);
        assert!(pool.wants_task(), "underfilled pool is hungry");
        let (id0, _rx0) = pool.offer(vec![0, 1], record()).unwrap();
        let (id1, _rx1) = pool.offer(vec![0, 2], record()).unwrap();
        assert_eq!((id0, id1), (0, 1), "ids are sequential");
        pool.root_done();
        pool.root_done();
        // Still open: two tasks outstanding.
        let t = pool.take(0).expect("a pending task");
        assert_eq!(t.id, 0, "FIFO claim");
        pool.task_done();
        let t = pool.take(1).expect("the second task");
        assert_eq!(t.id, 1);
        pool.task_done();
        // Closed now: take() returns None instead of blocking.
        assert!(pool.take(0).is_none());
        assert!(!pool.wants_task(), "closed pool wants nothing");
        assert!(
            pool.offer(vec![9], record()).is_err(),
            "closed pool refuses"
        );
    }

    #[test]
    fn pool_refuses_at_pending_capacity() {
        let pool: Pool = Pool::new(1, 1, 1, 4, false);
        let _keep = pool.offer(vec![0], record()).unwrap();
        assert!(!pool.wants_task());
        assert!(pool.offer(vec![1], record()).is_err(), "deque full");
    }

    #[test]
    fn pinned_claims_route_by_residue_and_disable_merge_claims() {
        let pool: Pool = Pool::new(3, 3, 8, 4, true);
        let (id0, _rx0) = pool.offer(vec![0], record()).unwrap();
        let (id1, _rx1) = pool.offer(vec![1], record()).unwrap();
        let (id2, _rx2) = pool.offer(vec![2], record()).unwrap();
        assert_eq!((id0, id1, id2), (0, 1, 2));
        assert!(
            pool.claim_for_merge(1).is_none(),
            "pinning disables the coordinator's claim of worker 1's task"
        );
        let t = pool.take(2).expect("worker 2 claims id 2");
        assert_eq!(t.id, 2, "only the pinned residue is visible");
        let t = pool.take(1).expect("worker 1 claims id 1");
        assert_eq!(t.id, 1);
        let t = pool
            .claim_for_merge(0)
            .expect("the coordinator is worker 0 and claims id 0");
        assert_eq!(t.id, 0);
    }

    #[test]
    fn shutdown_wakes_blocked_takers() {
        let pool: std::sync::Arc<Pool> = std::sync::Arc::new(Pool::new(1, 1, 4, 4, false));
        let taker = {
            let pool = std::sync::Arc::clone(&pool);
            std::thread::spawn(move || pool.take(0))
        };
        // The taker blocks (nothing pending, pool open); shutdown must
        // release it with None.
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.shutdown();
        assert!(taker.join().unwrap().is_none());
    }

    #[test]
    fn observer_grows_and_counts() {
        let obs = StealObserver::new();
        obs.note(2);
        obs.note(0);
        obs.note(2);
        assert_eq!(obs.retired(), vec![1, 0, 2]);
    }
}
