//! Pull-based iteration over push-based enumerations, and the shard
//! worker-pool plumbing behind the parallel front-end.
//!
//! Enumerators in this workspace are recursive and push solutions into a
//! sink. [`Enumeration`] runs such an enumeration on a dedicated worker
//! thread with a large stack (recursion depth is O(n)) and streams owned
//! solutions through a bounded channel, yielding a normal [`Iterator`].
//! Dropping the iterator stops the producer at its next emission.
//!
//! The sharded variant replaces the single producer with a **pool of
//! shard workers**: each worker enumerates one residue class of the root
//! node's children and reports through its own bounded channel
//! ([`ShardMsg`]); [`ShardMerge`] interleaves the per-worker streams back
//! into the sequential engine's exact emission order (children in index
//! order, each child's solutions in discovery order), so the merged
//! stream is byte-identical to a single-threaded run. Backpressure comes
//! from the bounded channels — a worker that races ahead of the merge
//! point simply blocks on its next send.

use crossbeam_channel::{bounded, Receiver, Sender};
use std::ops::ControlFlow;
use std::thread::JoinHandle;

/// Default worker stack: enumeration recursion is O(n) frames.
pub const DEFAULT_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Default channel capacity: enough to decouple producer and consumer
/// without buffering unbounded output.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 256;

/// An iterator over the items produced by a background enumeration.
pub struct Enumeration<T> {
    rx: Option<Receiver<T>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> Enumeration<T> {
    /// Spawns `producer` on a worker thread with a
    /// [`DEFAULT_STACK_BYTES`] stack, streaming through a channel of
    /// [`DEFAULT_CHANNEL_CAPACITY`] items. The producer receives a sink;
    /// it should forward each solution (as an owned `T`) and honour a
    /// `Break` result by returning promptly.
    pub fn spawn(
        producer: impl FnOnce(&mut dyn FnMut(T) -> ControlFlow<()>) + Send + 'static,
    ) -> Self {
        let (tx, rx) = bounded::<T>(DEFAULT_CHANNEL_CAPACITY);
        let handle = std::thread::Builder::new()
            .name("steiner-enumeration".to_string())
            .stack_size(DEFAULT_STACK_BYTES)
            .spawn(move || {
                producer(&mut |item| {
                    // A send error means the consumer hung up: stop.
                    if tx.send(item).is_err() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
            })
            .expect("spawn enumeration worker");
        Enumeration {
            rx: Some(rx),
            handle: Some(handle),
        }
    }
}

impl<T> Iterator for Enumeration<T> {
    type Item = T;

    /// Yields the next item. When the producer thread ends, its outcome is
    /// surfaced: a normal return ends the iterator with `None`, while a
    /// **panic on the worker is re-raised here** — a partial enumeration
    /// is never silently passed off as a complete one.
    fn next(&mut self) -> Option<T> {
        match self.rx.as_ref()?.recv() {
            Ok(item) => Some(item),
            Err(_) => {
                // Channel closed: the producer is done. Join it and
                // propagate any panic to the consumer.
                self.rx = None;
                if let Some(handle) = self.handle.take() {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                None
            }
        }
    }
}

impl<T> Drop for Enumeration<T> {
    fn drop(&mut self) {
        // Close the channel so the producer's next send fails, then join.
        // A producer panic is swallowed here (panicking in drop would
        // abort); consumers that care observe it through `next()`.
        self.rx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One message from a shard worker to the deterministic merger. `child`
/// indices refer to the sequential engine's root-child order; `work` is
/// the sending worker's own monotone work counter at send time (the
/// merger sums per-worker deltas into one merged clock).
#[derive(Debug)]
pub enum ShardMsg<T> {
    /// A solution found inside root child `child`.
    Item {
        /// Root-child index the solution belongs to.
        child: u64,
        /// The solution payload.
        item: T,
        /// The worker's work counter at emission.
        work: u64,
    },
    /// The worker finished root child `child` (sent for every child the
    /// worker owns, even solution-free ones — the merger's cue to move
    /// to the next child index).
    ChildDone {
        /// The completed root-child index.
        child: u64,
        /// The worker's work counter at completion.
        work: u64,
    },
    /// Progress heartbeat, sent (throttled) so the merger's release
    /// clock keeps advancing between solutions in queued mode.
    Tick {
        /// The worker's current work counter.
        work: u64,
    },
    /// The worker ran to completion and saw `children` root children in
    /// total. Every completing worker reports the same number (they all
    /// run the same deterministic root branch), so the first `Done` the
    /// merger consumes fixes the merge's horizon.
    Done {
        /// Total number of root children.
        children: u64,
        /// The worker's final work counter.
        work: u64,
    },
    /// A subtree hand-off marker (work-stealing shard pools): the sending
    /// worker reached a branch child it will *not* execute itself, and
    /// whoever does execute it will send that subtree's messages — the
    /// same `Item`/`Tick`/`Spawned` grammar, terminated by a
    /// [`ShardMsg::Done`] with `children: 0` — over the dedicated `rx`
    /// channel. Because the marker sits in the sender's stream at exactly
    /// the position where the subtree's solutions belong, the merger
    /// reproduces the sequential order by simply draining `rx` to
    /// completion (recursively, since stolen subtrees may themselves
    /// spawn) before reading the next message of the current stream.
    Spawned {
        /// Pool-wide task id, for coordinator claim-by-id bookkeeping.
        task: u64,
        /// The channel the subtree's executor sends the subtree on.
        rx: Receiver<ShardMsg<T>>,
    },
    /// The worker's preparation failed; the error itself travels out of
    /// band (this crate does not know the caller's error type).
    Failed,
}

/// Sending halves of a shard pool's channels, one per worker.
pub type ShardSenders<T> = Vec<Sender<ShardMsg<T>>>;
/// Receiving halves of a shard pool's channels, one per worker.
pub type ShardReceivers<T> = Vec<Receiver<ShardMsg<T>>>;

/// Creates the per-worker bounded channels of a shard pool.
pub fn shard_channels<T>(workers: usize, capacity: usize) -> (ShardSenders<T>, ShardReceivers<T>) {
    (0..workers).map(|_| bounded(capacity)).unzip()
}

/// A merged event produced by [`ShardMerge::next_event`], in the exact
/// order the sequential engine would have produced it.
#[derive(Debug)]
pub enum MergeEvent<T> {
    /// The next solution of the merged stream.
    Item(T),
    /// The merged work clock advanced without a solution (a worker tick
    /// or a child boundary) — drive any release schedule from
    /// [`ShardMerge::work`].
    Tick,
    /// The stream being drained handed off the subtree at the current
    /// position to task `task`, to be delivered over `rx`. The caller
    /// either claims the task itself (executing the subtree inline and
    /// reporting its cost through [`ShardMerge::advance_external`]) or
    /// pushes `rx` with [`ShardMerge::enter_subtree`] so the merge drains
    /// the executor's channel next.
    Subtree {
        /// Pool-wide task id.
        task: u64,
        /// The subtree's delivery channel.
        rx: Receiver<ShardMsg<T>>,
    },
    /// All root children have been drained; the merge is complete.
    Finished,
    /// A worker reported failure or hung up without finishing. The
    /// caller decides whether that is an error (out-of-band slot) or a
    /// panic (propagated when the worker scope joins).
    Failed,
}

/// Deterministic k-way merge over shard-worker channels: child `c` is
/// owned by worker `c % k`, and the merger only ever reads the channel of
/// the child it is currently draining, so per-channel FIFO order plus the
/// child rotation reproduce the sequential emission order exactly.
///
/// With work stealing, "the channel of the child it is currently
/// draining" generalizes to a *stack* of channels: a
/// [`ShardMsg::Spawned`] marker suspends the current stream and (via
/// [`Self::enter_subtree`]) pushes the spawned task's channel, which is
/// drained to its `Done` before the suspended stream resumes — a DFS
/// walk over the hand-off tree that lands every solution at exactly its
/// sequential position, regardless of which worker executed which
/// subtree.
pub struct ShardMerge<T> {
    rxs: Vec<Receiver<ShardMsg<T>>>,
    /// Last observed per-worker work counters.
    clocks: Vec<u64>,
    /// Merged monotone clock: the sum of the per-worker counters.
    clock: u64,
    next_child: u64,
    /// Total child count, once some worker's `Done` established it.
    total: Option<u64>,
    /// Suspended-stream stack: the top entry is the task channel being
    /// drained right now (empty = draining worker channels).
    tasks: Vec<TaskStream<T>>,
}

/// One entered subtree channel plus its clock baseline. A task's
/// executor reports its *own* absolute work counter (which may already
/// include earlier root-phase and stolen-task work), so the first
/// message of each task stream establishes a baseline contributing 0 to
/// the merged clock and later messages contribute their delta — the
/// merged clock stays monotone and never double-counts an executor that
/// delivers several task streams.
struct TaskStream<T> {
    rx: Receiver<ShardMsg<T>>,
    baseline: Option<u64>,
}

impl<T> ShardMerge<T> {
    /// Wraps the workers' receive ends (one per shard, in shard order).
    pub fn new(rxs: Vec<Receiver<ShardMsg<T>>>) -> Self {
        let clocks = vec![0; rxs.len()];
        ShardMerge {
            rxs,
            clocks,
            clock: 0,
            next_child: 0,
            total: None,
            tasks: Vec::new(),
        }
    }

    /// The merged work clock: the sum of every worker's last observed
    /// work counter. Monotone, and advanced by every received message.
    pub fn work(&self) -> u64 {
        self.clock
    }

    fn advance(&mut self, worker: usize, work: u64) {
        let prev = self.clocks[worker];
        if work > prev {
            self.clock += work - prev;
            self.clocks[worker] = work;
        }
    }

    /// Advances the merged clock by an externally measured amount of work
    /// — the inline-execution path, where the caller itself replays a
    /// claimed subtree instead of entering its channel.
    pub fn advance_external(&mut self, delta: u64) {
        self.clock += delta;
    }

    /// Suspends the current stream and drains `rx` (a
    /// [`MergeEvent::Subtree`] channel) until its executor's `Done`.
    pub fn enter_subtree(&mut self, rx: Receiver<ShardMsg<T>>) {
        self.tasks.push(TaskStream { rx, baseline: None });
    }

    /// Baseline-and-delta clock advance for the top task stream.
    fn advance_task(clock: &mut u64, top: &mut TaskStream<T>, work: u64) {
        match top.baseline {
            None => top.baseline = Some(work),
            Some(prev) if work > prev => {
                *clock += work - prev;
                top.baseline = Some(work);
            }
            Some(_) => {}
        }
    }

    /// Blocks for the next merged event. After [`MergeEvent::Finished`]
    /// or [`MergeEvent::Failed`], drop the merge to hang up the workers.
    pub fn next_event(&mut self) -> MergeEvent<T> {
        loop {
            // A suspended-stream stack entry always has priority: the
            // subtree it carries sits *before* everything still queued on
            // the worker channels.
            if let Some(top) = self.tasks.last_mut() {
                let Ok(msg) = top.rx.recv() else {
                    // The executor hung up mid-subtree.
                    return MergeEvent::Failed;
                };
                match msg {
                    ShardMsg::Item { item, work, .. } => {
                        Self::advance_task(&mut self.clock, top, work);
                        return MergeEvent::Item(item);
                    }
                    ShardMsg::Tick { work } => {
                        Self::advance_task(&mut self.clock, top, work);
                        return MergeEvent::Tick;
                    }
                    ShardMsg::Spawned { task, rx } => {
                        // A stolen subtree stole a deeper subtree.
                        return MergeEvent::Subtree { task, rx };
                    }
                    ShardMsg::Done { children, work } => {
                        debug_assert_eq!(children, 0, "task streams have no root children");
                        Self::advance_task(&mut self.clock, top, work);
                        self.tasks.pop();
                        return MergeEvent::Tick;
                    }
                    ShardMsg::ChildDone { .. } => {
                        debug_assert!(false, "ChildDone is a worker-channel message");
                        return MergeEvent::Failed;
                    }
                    ShardMsg::Failed => return MergeEvent::Failed,
                }
            }
            if let Some(total) = self.total {
                if self.next_child >= total {
                    return MergeEvent::Finished;
                }
            }
            let owner = (self.next_child % self.rxs.len() as u64) as usize;
            let Ok(msg) = self.rxs[owner].recv() else {
                // The owner hung up without `Done`: it panicked or was
                // stopped; the spawning scope surfaces which.
                return MergeEvent::Failed;
            };
            match msg {
                ShardMsg::Item { child, item, work } => {
                    self.advance(owner, work);
                    debug_assert_eq!(child, self.next_child, "FIFO per-child order");
                    return MergeEvent::Item(item);
                }
                ShardMsg::ChildDone { child, work } => {
                    self.advance(owner, work);
                    debug_assert_eq!(child, self.next_child, "children complete in order");
                    self.next_child += 1;
                    return MergeEvent::Tick;
                }
                ShardMsg::Tick { work } => {
                    self.advance(owner, work);
                    return MergeEvent::Tick;
                }
                ShardMsg::Spawned { task, rx } => {
                    return MergeEvent::Subtree { task, rx };
                }
                ShardMsg::Done { children, work } => {
                    // The owner is out of children entirely, so the
                    // horizon is at most `next_child` (its earlier
                    // `ChildDone`s were consumed first — FIFO): record
                    // it and re-check the loop condition.
                    self.advance(owner, work);
                    debug_assert!(self.total.is_none_or(|t| t == children));
                    self.total = Some(children);
                }
                ShardMsg::Failed => return MergeEvent::Failed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_directed_st_paths;
    use steiner_graph::{ArcId, DiGraph, VertexId};

    #[test]
    fn streams_all_paths() {
        let d = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let iter = Enumeration::spawn(move |sink| {
            enumerate_directed_st_paths(&d, VertexId(0), VertexId(3), None, &mut |p| {
                sink(p.arcs.to_vec())
            });
        });
        let all: Vec<Vec<ArcId>> = iter.collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn dropping_iterator_stops_producer() {
        // A graph with many paths; take 2 and drop.
        let g = steiner_graph::generators::theta_chain(8, 3);
        let doubled = steiner_graph::digraph::DoubledDigraph::new(&g);
        let d = doubled.digraph;
        let mut iter = Enumeration::spawn(move |sink| {
            enumerate_directed_st_paths(&d, VertexId(0), VertexId(8), None, &mut |p| {
                sink(p.arcs.to_vec())
            });
        });
        assert!(iter.next().is_some());
        assert!(iter.next().is_some());
        drop(iter); // must not hang
    }

    #[test]
    fn subtree_stack_merges_in_position_with_baselined_clock() {
        // One worker, one root child containing [1, <spawned: 2, 3>, 4]:
        // the merged stream must interleave the task channel at exactly
        // the marker's position, and the executor's absolute counter
        // (starting at 1000, far above the worker's) must contribute only
        // deltas after its baseline.
        let (txs, rxs) = shard_channels::<u32>(1, 16);
        let (task_tx, task_rx) = bounded(16);
        let w = &txs[0];
        w.send(ShardMsg::Item {
            child: 0,
            item: 1,
            work: 10,
        })
        .unwrap();
        w.send(ShardMsg::Spawned {
            task: 7,
            rx: task_rx,
        })
        .unwrap();
        w.send(ShardMsg::Item {
            child: 0,
            item: 4,
            work: 30,
        })
        .unwrap();
        w.send(ShardMsg::ChildDone { child: 0, work: 31 }).unwrap();
        w.send(ShardMsg::Done {
            children: 1,
            work: 31,
        })
        .unwrap();
        task_tx
            .send(ShardMsg::Item {
                child: 0,
                item: 2,
                work: 1000,
            })
            .unwrap();
        task_tx
            .send(ShardMsg::Item {
                child: 0,
                item: 3,
                work: 1005,
            })
            .unwrap();
        task_tx
            .send(ShardMsg::Done {
                children: 0,
                work: 1006,
            })
            .unwrap();
        drop(task_tx);
        drop(txs);

        let mut merge = ShardMerge::new(rxs);
        let mut items = Vec::new();
        loop {
            match merge.next_event() {
                MergeEvent::Item(x) => items.push(x),
                MergeEvent::Tick => {}
                MergeEvent::Subtree { task, rx } => {
                    assert_eq!(task, 7);
                    merge.enter_subtree(rx);
                }
                MergeEvent::Finished => break,
                MergeEvent::Failed => panic!("merge failed"),
            }
        }
        assert_eq!(items, vec![1, 2, 3, 4], "subtree lands at its marker");
        // Clock: worker contributes 31; the task stream's first message
        // baselines at 1000 (contributing 0) and then adds 5 + 1 = 6.
        assert_eq!(merge.work(), 31 + 6);
    }

    #[test]
    fn advance_external_moves_the_merged_clock() {
        let (txs, rxs) = shard_channels::<u32>(1, 4);
        txs[0]
            .send(ShardMsg::Done {
                children: 0,
                work: 0,
            })
            .unwrap();
        drop(txs);
        let mut merge = ShardMerge::new(rxs);
        merge.advance_external(17);
        assert_eq!(merge.work(), 17);
        assert!(matches!(merge.next_event(), MergeEvent::Finished));
    }

    #[test]
    fn empty_enumeration_yields_nothing() {
        let d = DiGraph::new(2);
        let iter = Enumeration::spawn(move |sink| {
            enumerate_directed_st_paths(&d, VertexId(0), VertexId(1), None, &mut |p| {
                sink(p.arcs.to_vec())
            });
        });
        assert_eq!(iter.count(), 0);
    }
}
