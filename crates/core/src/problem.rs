//! The [`MinimalSteinerProblem`] trait: the Algorithm-3 contract shared by
//! every minimal Steiner enumeration in the paper.
//!
//! §4–§5 instantiate one branching scheme four times (trees, forests,
//! terminal trees, directed trees). Each instantiation supplies the same
//! three ingredients:
//!
//! 1. a **validity check** — is the current partial solution already a
//!    solution? ([`NodeStep::Complete`]);
//! 2. a **minimal completion** with a uniqueness certificate — when only
//!    one minimal solution contains the partial one, emit it and close the
//!    node as a leaf ([`NodeStep::Unique`], the Lemma 16/24/30/35 tests);
//! 3. a **branching-vertex selection** — otherwise pick a branch target
//!    with at least two valid extensions ([`NodeStep::Branch`]).
//!
//! The generic engine in [`crate::solver`] drives any implementation
//! through the shared recursion, so all four problems (plus any future
//! variant) get the push, pull, queued, and limited front-ends from a
//! single code path.
//!
//! Instance preconditions are reported as typed [`SteinerError`]s instead
//! of the panics/silent-`false` mix of the original free functions.

use crate::stats::EnumStats;
use std::ops::ControlFlow;
use steiner_graph::{ArcId, VertexId};
use steiner_paths::visit::PathDelta;

/// Invalid-instance conditions, reported by [`MinimalSteinerProblem::validate`]
/// and [`MinimalSteinerProblem::prepare`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SteinerError {
    /// No terminals (or no terminal sets) were supplied.
    EmptyInstance,
    /// The same terminal appears twice in a terminal list.
    DuplicateTerminal(VertexId),
    /// A terminal id is not a vertex of the graph.
    TerminalOutOfRange {
        /// The offending terminal.
        terminal: VertexId,
        /// The number of vertices in the instance graph.
        num_vertices: usize,
    },
    /// The root id of a directed instance is not a vertex of the graph.
    RootOutOfRange {
        /// The offending root.
        root: VertexId,
        /// The number of vertices in the instance graph.
        num_vertices: usize,
    },
    /// A terminal set spans more than one connected component, so no
    /// solution exists. `set` is the index of the offending terminal set
    /// (always 0 for single-set problems).
    DisconnectedTerminals {
        /// Index of the terminal set that is not connected.
        set: usize,
    },
    /// Directed instances: a terminal is unreachable from the root.
    UnreachableTerminal(VertexId),
    /// The per-query deadline
    /// ([`Enumeration::with_deadline`](crate::solver::Enumeration::with_deadline))
    /// expired before the enumeration finished. Every solution delivered
    /// to the sink before the expiry is valid — the stream is a correct
    /// *prefix* of the full answer — but the run is incomplete, so it is
    /// never recorded in a [`ResultCache`](crate::cache::ResultCache)
    /// (the same rollback rule as a sink abort).
    DeadlineExceeded,
    /// An admission controller (the `steiner-service` engine) refused to
    /// enqueue the query: the submitting tenant's queue — or the engine's
    /// global in-flight pool — is full. The query never ran; resubmit
    /// after in-flight work drains.
    AdmissionRejected {
        /// Queries currently occupying the pool that rejected this one
        /// (the tenant's queued queries, or the engine-wide in-flight
        /// count — whichever cap was hit).
        in_flight: usize,
        /// The capacity of that pool.
        capacity: usize,
    },
    /// The query shape is not servable in this configuration — e.g. a
    /// directed Steiner query submitted to a service engine constructed
    /// without a directed graph view. The payload names the missing
    /// capability.
    Unsupported(&'static str),
}

impl std::fmt::Display for SteinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerError::EmptyInstance => write!(f, "the instance has no terminals"),
            SteinerError::DuplicateTerminal(w) => {
                write!(f, "terminal {w} appears more than once")
            }
            SteinerError::TerminalOutOfRange {
                terminal,
                num_vertices,
            } => {
                write!(
                    f,
                    "terminal {terminal} out of range (graph has {num_vertices} vertices)"
                )
            }
            SteinerError::RootOutOfRange { root, num_vertices } => {
                write!(
                    f,
                    "root {root} out of range (graph has {num_vertices} vertices)"
                )
            }
            SteinerError::DisconnectedTerminals { set } => {
                write!(f, "terminal set {set} spans multiple connected components")
            }
            SteinerError::UnreachableTerminal(w) => {
                write!(f, "terminal {w} is unreachable from the root")
            }
            SteinerError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded before the enumeration finished \
                     (the delivered stream is a valid prefix)"
                )
            }
            SteinerError::AdmissionRejected {
                in_flight,
                capacity,
            } => {
                write!(
                    f,
                    "admission rejected: {in_flight} queries in flight at capacity {capacity}"
                )
            }
            SteinerError::Unsupported(what) => {
                write!(f, "unsupported query: {what}")
            }
        }
    }
}

impl SteinerError {
    /// Whether this error describes a *valid* instance that simply has no
    /// solutions (empty, disconnected, or unreachable), as opposed to a
    /// malformed one (duplicate or out-of-range ids). The keyword-search
    /// layer and [`crate::minimum::enumerate_minimum_steiner_trees`] treat
    /// the former as "enumerate nothing". The runtime conditions
    /// ([`Self::DeadlineExceeded`], [`Self::AdmissionRejected`],
    /// [`Self::Unsupported`]) are neither: the instance may well have
    /// solutions that were not (fully) delivered.
    pub fn means_no_solutions(&self) -> bool {
        matches!(
            self,
            SteinerError::EmptyInstance
                | SteinerError::DisconnectedTerminals { .. }
                | SteinerError::UnreachableTerminal(_)
        )
    }
}

impl std::error::Error for SteinerError {}

/// Outcome of [`MinimalSteinerProblem::prepare`]: what the engine should do
/// after validation and preprocessing succeed.
#[derive(Debug, Clone)]
pub enum Prepared<Item> {
    /// The instance is valid but has no solutions (e.g. a terminal Steiner
    /// instance with a single terminal, or no admissible component).
    Empty,
    /// The instance has exactly this one solution, found without search
    /// (e.g. a Steiner tree instance with one terminal: the empty tree).
    Single(Vec<Item>),
    /// Run the branching engine from the root node.
    Search,
}

/// A replayable checkpoint of one enumeration-tree node: the **absolute**
/// partial state its root-to-node descent applies to a freshly prepared
/// instance.
///
/// Produced by [`MinimalSteinerProblem::record_subtree`] from inside a
/// `branch` callback at any depth and consumed by
/// [`MinimalSteinerProblem::replay_subtree`] on another freshly prepared
/// instance copy. The work-stealing pool is the one consumer: a busy
/// worker publishes a branch child as a record, and an idle worker — or
/// the merge coordinator — replays it and enumerates the subtree.
/// Because the captured state is absolute, not a delta against the
/// recorder's stack, replay is a *single* descent regardless of the
/// recorded node's depth.
#[derive(Clone, Debug)]
pub struct SubtreeRecord<Item> {
    /// Path vertices of the partial solution, in application order
    /// (empty for problems whose state is item-only, like forests).
    pub vertices: Vec<VertexId>,
    /// Solution items (edges or arcs) of the partial solution.
    pub items: Vec<Item>,
    /// Problem-specific tag — the terminal variant stores the admissible
    /// component index the recorded node belongs to; other problems leave
    /// it 0.
    pub meta: u64,
}

/// The per-node analysis of Algorithm 3, as computed by
/// [`MinimalSteinerProblem::classify`].
#[derive(Debug, Clone)]
pub enum NodeStep<Branch> {
    /// The partial solution is itself a solution: emit it (via
    /// [`MinimalSteinerProblem::solution`]) and close the node as a leaf.
    Complete,
    /// Exactly one minimal solution contains the partial one — the
    /// uniqueness certificates of Lemmas 16/24/30/35. `classify` wrote the
    /// full solution into the engine's scratch buffer; the node closes as
    /// a leaf.
    Unique,
    /// At least two valid extensions exist for this branch target
    /// (a missing terminal, a disconnected pair, …): recurse per child.
    Branch(Branch),
}

/// The Algorithm-3 contract: everything the generic engine in
/// [`crate::solver`] needs to enumerate all minimal solutions of one
/// problem instance with amortized-linear time per solution.
///
/// Implementations hold the full instance *and* the mutable search state
/// (partial solution, scratch structures, [`EnumStats`]); the engine owns
/// the recursion, emission, queueing, and early termination. Code written
/// against the trait runs unchanged over all four problem types (and any
/// future variant):
///
/// ```
/// use steiner_core::{Enumeration, MinimalSteinerProblem, SteinerTree, TerminalSteinerTree};
/// use steiner_graph::{UndirectedGraph, VertexId};
///
/// /// Counts solutions of any problem, naming it via the trait.
/// fn describe<P: MinimalSteinerProblem + Send>(p: P) -> String
/// where
///     P::Item: Send,
/// {
///     let n = Enumeration::new(p).count().unwrap_or(0);
///     format!("{}: {n} solutions", P::NAME)
/// }
///
/// let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// let w = [VertexId(0), VertexId(1)];
/// assert_eq!(describe(SteinerTree::new(&g, &w)), "minimal Steiner tree: 2 solutions");
/// assert_eq!(
///     describe(TerminalSteinerTree::new(&g, &w)),
///     "minimal terminal Steiner tree: 2 solutions"
/// );
/// ```
pub trait MinimalSteinerProblem {
    /// Solution item: [`steiner_graph::EdgeId`] for the undirected
    /// problems, [`steiner_graph::ArcId`] for directed Steiner trees.
    /// Solutions are emitted as sorted `Item` slices. `Hash` lets the
    /// [`crate::intern`] layer hash-cons emitted solutions.
    type Item: Copy + Ord + std::hash::Hash + std::fmt::Debug;

    /// Branch target chosen by [`Self::classify`] and consumed by
    /// [`Self::branch`] — a missing terminal for the tree problems, a
    /// disconnected terminal pair for forests, or a problem-specific root
    /// marker.
    type Branch;

    /// Problem name for diagnostics and reports.
    const NAME: &'static str;

    /// Whether [`Self::solution`] already writes its items in ascending
    /// order. When `true`, the engine's `Complete` emission path skips
    /// its canonicalizing sort (the `Unique` path still sorts —
    /// [`Self::classify`] fills the buffer in discovery order). An
    /// implementation returning `true` must deliver sorted output from
    /// **every** branch of its `solution`.
    const SORTED_SOLUTIONS: bool = false;

    /// Checks the structural preconditions (terminal list shape, id
    /// ranges) without touching the graph structure. Cheap; called by
    /// [`Self::prepare`].
    fn validate(&self) -> Result<(), SteinerError>;

    /// Validates, preprocesses (connectivity, bridges, graph cleaning, …)
    /// and installs the root search state. Must be called exactly once,
    /// before any other search method. The undirected problems prepare on
    /// their terminals' region ([`steiner_graph::region`]): their search
    /// state is in region ids, and [`Self::solution`] and the unique
    /// completions of [`Self::classify`] map items back to graph ids.
    fn prepare(&mut self) -> Result<Prepared<Self::Item>, SteinerError>;

    /// `(n, m)` of the instance graph — sizes the default
    /// [`crate::queue::QueueConfig`] and the engine's work accounting.
    /// The undirected problems report their query region once
    /// [`Self::prepare`] has run, and the whole graph before, so the
    /// engine reads it after `prepare`.
    fn instance_size(&self) -> (usize, usize);

    /// The enumeration statistics recorded so far.
    fn stats(&self) -> &EnumStats;

    /// Mutable access for the engine's node/emission accounting.
    fn stats_mut(&mut self) -> &mut EnumStats;

    /// The Algorithm-3 node analysis: complete / unique completion /
    /// branch target (ingredients 1–3 above).
    ///
    /// `out` is the engine's reusable emission buffer (cleared before the
    /// call). A [`NodeStep::Unique`] answer writes the full solution into
    /// it — replacing the per-leaf `Vec` allocation of earlier revisions.
    fn classify(&mut self, out: &mut Vec<Self::Item>) -> NodeStep<Self::Branch>;

    /// Writes the current complete partial solution into `out`
    /// (unsorted; the engine sorts before emission). Only called when
    /// [`Self::classify`] returned [`NodeStep::Complete`].
    fn solution(&self, out: &mut Vec<Self::Item>);

    /// Called by the engine when the run finishes (normally or by early
    /// termination), before the statistics are published: fold scratch
    /// accounting ([`crate::trail::ScratchUsage`]) into `stats_mut()`.
    fn seal_stats(&mut self) {}

    /// Applies each valid extension for `at` in turn: extend the partial
    /// solution, invoke `child`, retract. Stops early when `child` breaks.
    /// Returns the number of children generated and the resulting flow.
    fn branch(
        &mut self,
        at: Self::Branch,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> (u64, ControlFlow<()>)
    where
        Self: Sized;

    /// Produces an independent, unprepared copy of this instance for one
    /// worker of a sharded enumeration
    /// ([`Enumeration::with_threads`](crate::solver::Enumeration::with_threads)).
    ///
    /// The copy must carry the instance data (graph, terminals,
    /// configuration) but no search state: each worker calls `prepare` on
    /// its own copy, so preprocessing is deterministic per shard and the
    /// root's children come out in the same order on every worker. The
    /// engine decides which root children each worker descends into. It
    /// may also be called on a prepared instance in mid-search: a sharded
    /// run's calling thread splits the copy it replays claimed subtrees
    /// on from its own instance.
    ///
    /// The default returns `None`, meaning the problem does not support
    /// sharding and `with_threads` falls back to the sequential engine.
    fn split_root(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// The instance's identity for the query-level result cache
    /// ([`Enumeration::cached`](crate::solver::Enumeration::cached)):
    /// problem kind plus fingerprints of the graph and the query
    /// parameters. Two instances with equal keys **must** enumerate
    /// identical solution streams.
    ///
    /// The default returns `None`, meaning the problem opts out of
    /// caching and `cached()` always runs the engine. Must be callable
    /// before [`Self::prepare`] (the builder keys the query before
    /// preprocessing). The four paper problems implement it with the
    /// [`crate::cache`] fingerprint helpers.
    fn cache_key(&self) -> Option<crate::cache::CacheKey> {
        None
    }

    /// Captures the partial solution currently applied to the search
    /// state as a replayable [`SubtreeRecord`] — called by the
    /// work-stealing engine from inside a `branch` callback at **any**
    /// depth, root children included. The captured state must be
    /// absolute (reproducible on a freshly prepared copy), not relative
    /// to the recorder's current descent.
    ///
    /// The default returns `None`, meaning subtrees of this problem never
    /// migrate: sharded runs still split the root's children across the
    /// workers, but each worker descends into its own children alone.
    fn record_subtree(&self) -> Option<SubtreeRecord<Self::Item>> {
        None
    }

    /// Applies a recorded partial solution to a freshly prepared
    /// instance, invokes `child` on the resulting state, and retracts it
    /// — the replay half of the work-stealing pool. Must leave the
    /// search state exactly as a locally generated descent to the
    /// recorded node would (stolen streams are asserted byte-identical
    /// to sequential ones).
    ///
    /// Only called with records produced by [`Self::record_subtree`] on
    /// an identically prepared instance; the default therefore never
    /// runs.
    fn replay_subtree(
        &mut self,
        record: &SubtreeRecord<Self::Item>,
        child: &mut dyn FnMut(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()>
    where
        Self: Sized,
    {
        let _ = (record, child);
        unreachable!("replay_subtree requires record_subtree support")
    }
}

/// The engine ↔ branch protocol every problem's `branch()` runs on: the
/// path enumerator reports its current path as [`PathDelta`]s, and the
/// partial solution mirrors that path. `Extend` descends by the new
/// vertices and arcs, `Retract` undoes the innermost descent, and `Path`
/// is one child — descend by the new suffix, run the child, retract — so
/// a child costs bookkeeping for its new suffix only, not for the whole
/// path. Also tallies what `branch()` returns: the children generated and
/// whether one of them stopped the run.
#[derive(Debug)]
pub(crate) struct BranchRun {
    pub(crate) children: u64,
    pub(crate) flow: ControlFlow<()>,
}

impl BranchRun {
    pub(crate) fn new() -> Self {
        BranchRun {
            children: 0,
            flow: ControlFlow::Continue(()),
        }
    }

    /// Applies one delta to `p` through its `descend`/`retract` pair,
    /// running `child` for a `Path`. Each child is charged `per_child`
    /// work units — the paper's accounting: every child is generated
    /// with O(n + m) delay (Theorem 12), charged here so the work counter
    /// advances in step with emissions.
    pub(crate) fn follow<P: MinimalSteinerProblem>(
        &mut self,
        p: &mut P,
        delta: PathDelta<'_>,
        per_child: u64,
        descend: impl FnOnce(&mut P, &[VertexId], &[ArcId]),
        retract: impl FnOnce(&mut P),
        child: &mut dyn FnMut(&mut P) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match delta {
            PathDelta::Extend { vertices, arcs } => {
                descend(p, vertices, arcs);
                ControlFlow::Continue(())
            }
            PathDelta::Retract => {
                retract(p);
                ControlFlow::Continue(())
            }
            PathDelta::Path { vertices, arcs } => {
                descend(p, vertices, arcs);
                self.children += 1;
                p.stats_mut().work += per_child;
                let flow = child(p);
                retract(p);
                if flow.is_break() {
                    self.flow = flow;
                }
                flow
            }
        }
    }
}

/// Shared structural validation for the members of one terminal list or
/// set: all in range, no duplicates. (Emptiness is problem-specific:
/// forests allow empty sets.)
pub(crate) fn validate_terminal_members(
    terminals: &[VertexId],
    num_vertices: usize,
) -> Result<(), SteinerError> {
    for &w in terminals {
        if w.index() >= num_vertices {
            return Err(SteinerError::TerminalOutOfRange {
                terminal: w,
                num_vertices,
            });
        }
    }
    let mut sorted = terminals.to_vec();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            return Err(SteinerError::DuplicateTerminal(pair[0]));
        }
    }
    Ok(())
}

/// Shared structural validation for a list of terminals: non-empty, all in
/// range, no duplicates.
pub(crate) fn validate_terminal_list(
    terminals: &[VertexId],
    num_vertices: usize,
) -> Result<(), SteinerError> {
    if terminals.is_empty() {
        return Err(SteinerError::EmptyInstance);
    }
    validate_terminal_members(terminals, num_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let cases: Vec<(SteinerError, &str)> = vec![
            (SteinerError::EmptyInstance, "no terminals"),
            (SteinerError::DuplicateTerminal(VertexId(3)), "3"),
            (
                SteinerError::TerminalOutOfRange {
                    terminal: VertexId(9),
                    num_vertices: 4,
                },
                "9",
            ),
            (
                SteinerError::RootOutOfRange {
                    root: VertexId(7),
                    num_vertices: 2,
                },
                "7",
            ),
            (SteinerError::DisconnectedTerminals { set: 1 }, "set 1"),
            (SteinerError::UnreachableTerminal(VertexId(5)), "5"),
            (SteinerError::DeadlineExceeded, "deadline"),
            (
                SteinerError::AdmissionRejected {
                    in_flight: 8,
                    capacity: 8,
                },
                "8",
            ),
            (SteinerError::Unsupported("no directed view"), "directed"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
