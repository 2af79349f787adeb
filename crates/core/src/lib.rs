//! Minimal Steiner enumeration — §4 and §5 of *Linear-Delay Enumeration
//! for Minimal Steiner Problems* (PODS 2022).
//!
//! # The unified solver API
//!
//! All four of the paper's problems implement one trait,
//! [`MinimalSteinerProblem`] — the Algorithm-3 contract (validity check,
//! minimal completion with uniqueness certificate, branching-vertex
//! selection) — and run through one generic engine behind the
//! [`Enumeration`] builder:
//!
//! | Problem | Problem type | Paper |
//! |---|---|---|
//! | minimal Steiner trees | [`SteinerTree`] | §4, Theorems 17 & 20 |
//! | minimal Steiner forests | [`SteinerForest`] | §5, Theorems 23 & 25 |
//! | minimal terminal Steiner trees | [`TerminalSteinerTree`] | §5.1, Theorems 29 & 31 |
//! | minimal directed Steiner trees | [`DirectedSteinerTree`] | §5.2, Theorems 34 & 36 |
//!
//! ```
//! use steiner_core::{Enumeration, SteinerTree};
//! use steiner_graph::{UndirectedGraph, VertexId};
//! use std::ops::ControlFlow;
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! let problem = SteinerTree::new(&g, &[VertexId(0), VertexId(2)]);
//! let stats = Enumeration::new(problem)
//!     .for_each(|tree| {
//!         assert_eq!(tree.len(), 2); // each solution is one side of the square
//!         ControlFlow::Continue(())
//!     })
//!     .unwrap();
//! assert_eq!(stats.solutions, 2);
//! ```
//!
//! The builder offers three interchangeable front-ends — a push sink
//! ([`Enumeration::for_each`]), a pull [`Iterator`]
//! ([`Enumeration::into_iter`]), and early termination
//! ([`Enumeration::with_limit`] or a sink returning
//! [`ControlFlow::Break`](std::ops::ControlFlow::Break)) — plus the
//! Theorem-20 output queue ([`Enumeration::with_queue`]) that converts the
//! amortized O(n + m) bound into a worst-case delay bound, and a sharded
//! parallel mode ([`Enumeration::with_threads`]) that splits the root's
//! children across worker threads while keeping the delivered stream
//! identical to the sequential one. Invalid instances surface as typed
//! [`SteinerError`]s.
//!
//! # Algorithmic guarantees
//!
//! All enumerators follow the same branching scheme (Algorithm 3): grow a
//! partial solution by one valid path per child, where the paths come from
//! the linear-delay enumerator of `steiner-paths`. The engine-driven
//! problem types guarantee that **every internal node of the enumeration
//! tree has at least two children** (via the bridge characterisations of
//! Lemmas 16, 24, 30 and the Lemma 35 reachability sweep), which yields
//! amortized O(n + m) time per solution; the [`queue::OutputQueue`]
//! (Uno's output-queue method, Theorem 20) converts that into a worst-case
//! delay bound.
//!
//! Solutions are reported as **sorted edge-id (or arc-id) slices**;
//! [`verify`] provides validity/minimality checkers and [`brute`] provides
//! exponential-time reference enumerators used as test oracles.
//! [`simple`] keeps the paper's Algorithm 2 baseline, and [`minimum`] the
//! Table 1 minimum-Steiner-tree comparison row.
//!
//! # Serving repeated traffic
//!
//! Two layers turn the single-run engine into a service for repeated
//! queries: [`intern`] hash-conses emitted solutions into one arena
//! (dedup across runs and consumers, O(1) re-emission via stable
//! [`SolutionId`]s), and [`cache`] keys complete enumerations by
//! `(problem kind, graph fingerprint, query, limit)` so an identical
//! query replays from that store instead of re-running Algorithm 3. The
//! cache is an opt-in builder front-end ([`Enumeration::cached`]) that
//! composes with threads, limits, and the output queue without changing
//! a byte of the delivered stream; any other consumer interns from its
//! own sink with a [`SolutionInterner`]. For
//! long-lived serving, [`snapshot`] persists a cache's entries and
//! deduplicated payload in a versioned, checksummed format
//! ([`ResultCache::snapshot`] / [`ResultCache::restore`]) so a restarted
//! engine answers warm, and [`Enumeration::with_deadline`] bounds a
//! query's wall-clock time with typed
//! [`SteinerError::DeadlineExceeded`] abort semantics.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod brute;
pub mod cache;
pub mod directed;
pub mod forest;
pub mod improved;
pub mod intern;
pub mod minimum;
pub mod partial;
pub mod problem;
pub mod queue;
pub mod simple;
pub mod snapshot;
pub mod solver;
pub mod stats;
pub mod steal;
pub mod terminal;
pub mod trail;
pub mod verify;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use directed::DirectedSteinerTree;
pub use forest::SteinerForest;
pub use improved::SteinerTree;
pub use intern::{SolutionId, SolutionInterner};
pub use problem::{MinimalSteinerProblem, NodeStep, Prepared, SteinerError};
pub use queue::{DirectSink, OutputQueue, QueueConfig, SolutionSink};
pub use snapshot::{SnapshotError, SnapshotItem};
pub use solver::{Enumeration, Solutions, StatsHandle};
pub use stats::EnumStats;
pub use steal::{StealObserver, StealRule, StealSchedule};
pub use terminal::TerminalSteinerTree;
pub use trail::{ScratchUsage, Trail, TrailMark};

/// A sink receiving each solution as a sorted slice of edge ids (arc ids
/// for the directed problem). Return [`std::ops::ControlFlow::Break`] to
/// stop the enumeration.
pub type EdgeSetSink<'a> = dyn FnMut(&[steiner_graph::EdgeId]) -> std::ops::ControlFlow<()> + 'a;
