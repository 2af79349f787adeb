//! Pull-based iteration over push-based enumerations, and the shard
//! worker-pool plumbing behind the parallel front-end.
//!
//! Enumerators in this workspace are recursive and push solutions into a
//! sink. [`Enumeration`] runs such an enumeration on a dedicated worker
//! thread with a large stack (recursion depth is O(n)) and streams owned
//! solutions through a bounded channel, yielding a normal [`Iterator`].
//! Dropping the iterator stops the producer at its next emission.
//!
//! The sharded variant splits one enumeration across threads: the
//! calling thread (the coordinator) runs shard 0 itself, and each spawned
//! worker enumerates one other residue class of the root node's children
//! and reports through its own bounded channel ([`ShardMsg`]). The
//! coordinator walks the root's children in index order, delivering its
//! own children straight away and draining a worker's channel for each
//! child that worker owns ([`ShardMerge`]), so the merged stream is the
//! sequential engine's exact emission order (children in index order,
//! each child's solutions in discovery order), byte for byte.
//! Backpressure comes from the bounded channels — a worker that races
//! ahead of the coordinator simply blocks on its next send.

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

/// One message of a shard pool's streams. A spawned worker's root
/// stream carries its root children's solutions, each child closed by a
/// `ChildDone`; a stolen subtree's task stream carries one subtree and
/// ends with `Done`. `child` indices refer to the sequential engine's
/// root-child order; `work` is the sender's own monotone work counter at
/// send time (the coordinator sums per-sender deltas into one merged
/// clock).
#[derive(Debug)]
pub enum ShardMsg<T> {
    /// A solution found inside root child `child` (`0` on a task
    /// stream).
    Item {
        /// Root-child index the solution belongs to.
        child: u64,
        /// The solution payload.
        item: T,
        /// The sender's work counter at emission.
        work: u64,
    },
    /// The worker finished root child `child` (sent for every child the
    /// worker owns, even solution-free ones — the coordinator's cue to
    /// move on to the next child).
    ChildDone {
        /// The completed root-child index.
        child: u64,
        /// The worker's work counter at completion.
        work: u64,
    },
    /// Progress heartbeat, sent (throttled) so the coordinator's release
    /// clock keeps advancing between solutions in queued mode.
    Tick {
        /// The sender's current work counter.
        work: u64,
    },
    /// The end of a task stream: its executor finished the subtree.
    Done {
        /// The executor's final work counter.
        work: u64,
    },
    /// A subtree hand-off marker (work-stealing shard pools): the sender
    /// reached a branch child it will *not* execute itself, and whoever
    /// does execute it sends that subtree's messages — the same
    /// `Item`/`Tick`/`Spawned` grammar, terminated by a
    /// [`ShardMsg::Done`] — over the dedicated `rx` channel. Because the
    /// marker sits in the sender's stream at exactly the position where
    /// the subtree's solutions belong, the coordinator reproduces the
    /// sequential order by draining `rx` to its `Done` (recursively,
    /// since stolen subtrees may themselves spawn) before reading the
    /// next message of the current stream.
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

/// Sending halves of a shard pool's channels, one per spawned worker.
pub type ShardSenders<T> = Vec<Sender<ShardMsg<T>>>;
/// Receiving halves of a shard pool's channels, one per spawned worker.
pub type ShardReceivers<T> = Vec<Receiver<ShardMsg<T>>>;

/// Creates the per-worker bounded channels of a shard pool.
pub fn shard_channels<T>(workers: usize, capacity: usize) -> (ShardSenders<T>, ShardReceivers<T>) {
    (0..workers).map(|_| bounded(capacity)).unzip()
}

/// One message of the stream being drained, as [`ShardMerge`] reports
/// it after advancing the merged clock.
#[derive(Debug)]
pub enum MergeEvent<T> {
    /// The next solution (or batch) of the stream.
    Item(T),
    /// The merged work clock advanced without a solution (a heartbeat) —
    /// drive any release schedule from [`ShardMerge::work`].
    Tick,
    /// The stream handed off the subtree at the current position to task
    /// `task`, delivered over `rx`. The caller either claims the task
    /// and executes the subtree itself (reporting its cost through
    /// [`ShardMerge::advance_external`]) or drains [`Drain::task`]`(rx)`
    /// before it reads this stream on.
    Subtree {
        /// Pool-wide task id.
        task: u64,
        /// The subtree's delivery channel.
        rx: Receiver<ShardMsg<T>>,
    },
    /// The drained unit is complete: the owner's `ChildDone` for the root
    /// child, or the task stream's `Done`.
    Done,
    /// A worker reported failure or hung up mid-stream. The caller
    /// decides whether that is an error (out-of-band slot) or a panic
    /// (propagated when the worker scope joins).
    Failed,
}

/// What the coordinator drains next through [`ShardMerge::next_event`].
pub enum Drain<T> {
    /// Root child `child` on the stream of spawned worker `worker` (an
    /// index into the receivers given to [`ShardMerge::new`]), up to its
    /// `ChildDone`.
    Child {
        /// The owner's index among the spawned workers.
        worker: usize,
        /// The root child.
        child: u64,
    },
    /// A task channel, up to its `Done`. A task's executor reports its
    /// *own* absolute work counter (which may already include earlier
    /// root-phase and stolen-task work), so the first message of each
    /// task stream sets a baseline contributing 0 to the merged clock
    /// and later messages contribute their delta — the merged clock
    /// stays monotone and never double-counts an executor that delivers
    /// several task streams.
    Task {
        /// The subtree's delivery channel.
        rx: Receiver<ShardMsg<T>>,
        /// The executor's work at the previous message.
        baseline: Option<u64>,
    },
}

impl<T> Drain<T> {
    /// The stream of a [`MergeEvent::Subtree`].
    pub fn task(rx: Receiver<ShardMsg<T>>) -> Self {
        Drain::Task { rx, baseline: None }
    }
}

/// The coordinator's reader over a shard pool's channels, and the merged
/// work clock it keeps. The coordinator runs shard 0 itself and walks
/// the root's children in the engine's order; for a child a spawned
/// worker owns it drains that worker's channel up to the child's
/// `ChildDone`, and for each [`ShardMsg::Spawned`] marker it meets it
/// drains the task's channel before reading on. Per-channel FIFO order
/// plus that walk reproduce the sequential emission order exactly,
/// whichever thread executed which subtree.
pub struct ShardMerge<T> {
    /// The spawned workers' root streams, in shard order (shard `i + 1`
    /// at index `i`: shard 0 is the coordinator's own).
    rxs: Vec<Receiver<ShardMsg<T>>>,
    /// Last observed per-worker work counters.
    clocks: Vec<u64>,
    /// Merged monotone clock: the workers' counters, the task streams'
    /// deltas and the coordinator's own work.
    clock: u64,
}

impl<T> ShardMerge<T> {
    /// Wraps the spawned workers' receive ends (shards 1, 2, … in order).
    pub fn new(rxs: Vec<Receiver<ShardMsg<T>>>) -> Self {
        let clocks = vec![0; rxs.len()];
        ShardMerge {
            rxs,
            clocks,
            clock: 0,
        }
    }

    /// The merged work clock. Monotone, and advanced by every received
    /// message and every [`Self::advance_external`].
    pub fn work(&self) -> u64 {
        self.clock
    }

    /// Advances the merged clock by work the caller measured itself: the
    /// coordinator's own shard and the subtrees it claims and executes.
    pub fn advance_external(&mut self, delta: u64) {
        self.clock += delta;
    }

    /// Blocks for the next message of `from`, advancing the merged clock
    /// by the sender's work since its previous message.
    pub fn next_event(&mut self, from: &mut Drain<T>) -> MergeEvent<T> {
        let msg = match from {
            Drain::Child { worker, .. } => self.rxs[*worker].recv(),
            Drain::Task { rx, .. } => rx.recv(),
        };
        // A hang-up mid-stream: the sender panicked or was stopped; the
        // spawning scope surfaces which.
        let Ok(msg) = msg else {
            return MergeEvent::Failed;
        };
        let (event, work) = match (msg, &*from) {
            (ShardMsg::Item { child, item, work }, _) => {
                if let Drain::Child { child: at, .. } = from {
                    debug_assert_eq!(child, *at, "FIFO per-child order");
                }
                (MergeEvent::Item(item), work)
            }
            (ShardMsg::Tick { work }, _) => (MergeEvent::Tick, work),
            // On a task stream: a stolen subtree stole a deeper subtree.
            (ShardMsg::Spawned { task, rx }, _) => return MergeEvent::Subtree { task, rx },
            (ShardMsg::ChildDone { child, work }, Drain::Child { child: at, .. }) => {
                debug_assert_eq!(child, *at, "children complete in order");
                (MergeEvent::Done, work)
            }
            (ShardMsg::Done { work }, Drain::Task { .. }) => (MergeEvent::Done, work),
            (ShardMsg::Failed, _) => return MergeEvent::Failed,
            (ShardMsg::ChildDone { .. } | ShardMsg::Done { .. }, _) => {
                debug_assert!(false, "ChildDone ends root children, Done task streams");
                return MergeEvent::Failed;
            }
        };
        let prev = match from {
            Drain::Child { worker, .. } => &mut self.clocks[*worker],
            Drain::Task { baseline, .. } => baseline.get_or_insert(work),
        };
        if work > *prev {
            self.clock += work - *prev;
            *prev = work;
        }
        event
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

    /// Drains `from` to its end into `items`, recursing into subtrees at
    /// their markers, as the coordinator does.
    fn drain(merge: &mut ShardMerge<u32>, mut from: Drain<u32>, items: &mut Vec<u32>) {
        loop {
            match merge.next_event(&mut from) {
                MergeEvent::Item(x) => items.push(x),
                MergeEvent::Tick => {}
                MergeEvent::Subtree { rx, .. } => drain(merge, Drain::task(rx), items),
                MergeEvent::Done => return,
                MergeEvent::Failed => panic!("stream failed"),
            }
        }
    }

    #[test]
    fn subtree_stack_merges_in_position_with_baselined_clock() {
        // One worker, one root child containing [1, <spawned: 2, 3>, 4]:
        // draining the task channel at the marker lands its items at
        // exactly the marker's position, and the executor's absolute
        // counter (starting at 1000, far above the worker's) contributes
        // only deltas after its baseline.
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
        task_tx.send(ShardMsg::Done { work: 1006 }).unwrap();
        drop(task_tx);
        drop(txs);

        let mut merge = ShardMerge::new(rxs);
        let mut items = Vec::new();
        drain(
            &mut merge,
            Drain::Child {
                worker: 0,
                child: 0,
            },
            &mut items,
        );
        assert_eq!(items, vec![1, 2, 3, 4], "subtree lands at its marker");
        // Clock: worker contributes 31; the task stream's first message
        // baselines at 1000 (contributing 0) and then adds 5 + 1 = 6.
        assert_eq!(merge.work(), 31 + 6);
        // The worker's stream ended with the child: a further read sees
        // the hang-up.
        let mut next = Drain::Child {
            worker: 0,
            child: 1,
        };
        assert!(matches!(merge.next_event(&mut next), MergeEvent::Failed));
    }

    #[test]
    fn advance_external_moves_the_merged_clock() {
        let (txs, rxs) = shard_channels::<u32>(1, 4);
        txs[0]
            .send(ShardMsg::ChildDone { child: 1, work: 5 })
            .unwrap();
        drop(txs);
        let mut merge = ShardMerge::new(rxs);
        merge.advance_external(17);
        assert_eq!(merge.work(), 17);
        let mut child = Drain::Child {
            worker: 0,
            child: 1,
        };
        assert!(matches!(merge.next_event(&mut child), MergeEvent::Done));
        assert_eq!(merge.work(), 17 + 5, "worker and external work add up");
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
