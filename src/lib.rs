//! **minimal-steiner** — a complete implementation of *Linear-Delay
//! Enumeration for Minimal Steiner Problems* (Kobayashi, Kurita, Wasa —
//! PODS 2022).
//!
//! # The unified solver API
//!
//! All four of the paper's enumeration problems are problem types
//! implementing one trait — [`MinimalSteinerProblem`], the Algorithm-3
//! contract (validity check, minimal completion, branching-vertex
//! selection) — and run through one generic engine behind the
//! [`Enumeration`] builder:
//!
//! ```
//! use minimal_steiner::graph::{UndirectedGraph, VertexId};
//! use minimal_steiner::{Enumeration, SteinerTree};
//!
//! // A square: two ways to connect opposite corners.
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! let terminals = [VertexId(0), VertexId(2)];
//! let trees = Enumeration::new(SteinerTree::new(&g, &terminals))
//!     .collect_vec()
//!     .unwrap();
//! assert_eq!(trees.len(), 2);
//! assert!(trees.iter().all(|t| t.len() == 2)); // each solution is one side
//! ```
//!
//! The builder offers three interchangeable front-ends:
//!
//! * **push** — [`Enumeration::for_each`] hands each solution (a sorted
//!   edge-id slice) to a sink the moment it is emitted; return
//!   [`ControlFlow::Break`](std::ops::ControlFlow) to stop early;
//! * **pull** — [`Enumeration::into_iter`] runs the enumeration on a
//!   dedicated large-stack worker thread (via [`paths::streaming`]) and
//!   yields owned solutions through a plain [`Iterator`];
//! * **bounded** — [`Enumeration::with_limit`] caps the number of
//!   delivered solutions; [`Enumeration::with_queue`] routes emissions
//!   through the paper's Theorem-20 output queue for a worst-case (rather
//!   than amortized) delay bound;
//! * **sharded** — [`Enumeration::with_threads`] splits the root's
//!   children across a worker pool whose workers also steal deeper
//!   subtrees from each other (so skew-rooted instances keep every
//!   worker busy), and merges deterministically, so the delivered stream
//!   is identical to the sequential one (composable with all of the
//!   above).
//!
//! ```
//! use minimal_steiner::graph::{generators, VertexId};
//! use minimal_steiner::{Enumeration, SteinerTree};
//!
//! // Pull-based: the problem owns its graph so it can move to the worker.
//! let g = generators::theta_chain(3, 3);
//! let problem = SteinerTree::from_graph(g, &[VertexId(0), VertexId(3)]);
//! let first_five: Vec<Vec<_>> = Enumeration::new(problem)
//!     .with_limit(5)
//!     .into_iter()
//!     .unwrap()
//!     .collect();
//! assert_eq!(first_five.len(), 5);
//! ```
//!
//! Invalid instances (no terminals, duplicate or out-of-range terminals,
//! disconnected terminal sets, unreachable directed terminals) are
//! reported as typed [`SteinerError`]s instead of panics:
//!
//! ```
//! use minimal_steiner::graph::{UndirectedGraph, VertexId};
//! use minimal_steiner::{Enumeration, SteinerError, SteinerTree};
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
//! let err = Enumeration::new(SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
//!     .run()
//!     .unwrap_err();
//! assert_eq!(err, SteinerError::DisconnectedTerminals { set: 0 });
//! ```
//!
//! # Workspace layout
//!
//! * [`graph`] — graph substrate (multigraphs, digraphs, bridges, query
//!   regions, the forced-path skeleton, rollback union–find, generators,
//!   I/O);
//! * [`paths`] — linear-delay *s*-*t* path enumeration (paper §3,
//!   Algorithm 1);
//! * [`steiner`] — the problem types, the generic engine, verification
//!   oracles, and the Algorithm 2 baseline (paper §4–§5);
//! * [`induced`] — minimal induced Steiner subgraphs on claw-free graphs
//!   via the supergraph technique (paper §7);
//! * [`hardness`] — the §6 hardness constructions, executable (minimal
//!   transversals, group Steiner trees, internal Steiner trees);
//! * [`kfragment`] — the keyword-search application layer (K-fragments);
//! * [`service`] — a long-lived multi-tenant serving layer over the
//!   engine: admission control, per-query deadlines, weighted
//!   round-robin scheduling, and warm-restart cache persistence
//!   ([`service::EnumerationEngine`]).
//!
//! # Migrating from the 0.1 free functions
//!
//! The twelve pre-0.2 entry points were deprecated shims in 0.2 and are
//! removed; the table below (and the README) lists their replacements.
//!
//! | Removed free function | Replacement |
//! |---|---|
//! | `steiner::improved::enumerate_minimal_steiner_trees(g, w, sink)` | `Enumeration::new(SteinerTree::new(g, w)).for_each(sink)` |
//! | `steiner::improved::enumerate_minimal_steiner_trees_queued(g, w, cfg, sink)` | `…with_queue(cfg)` / `…with_default_queue()` before `for_each` |
//! | `steiner::improved::enumerate_minimal_steiner_trees_with(g, w, sink)` | `steiner::solver::run_with_sink(&mut problem, sink)` |
//! | `steiner::forest::enumerate_minimal_steiner_forests*(g, sets, …)` | `Enumeration::new(SteinerForest::new(g, sets))…` |
//! | `steiner::terminal::enumerate_minimal_terminal_steiner_trees*(g, w, …)` | `Enumeration::new(TerminalSteinerTree::new(g, w))…` |
//! | `steiner::directed::enumerate_minimal_directed_steiner_trees*(d, r, w, …)` | `Enumeration::new(DirectedSteinerTree::new(d, r, w))…` |
//!
//! The shims kept the historical lenient semantics (empty, disconnected,
//! or unreachable instances silently produced no solutions); the builder
//! returns a [`SteinerError`] for those, so migrated code can distinguish
//! "no solutions" from "invalid instance"
//! ([`SteinerError::means_no_solutions`]).

#![deny(unsafe_code)]

pub use steiner_core as steiner;
pub use steiner_graph as graph;
pub use steiner_hardness as hardness;
pub use steiner_induced as induced;
pub use steiner_kfragment as kfragment;
pub use steiner_paths as paths;
pub use steiner_service as service;

pub use steiner_core::{
    CacheKey, CacheStats, DirectedSteinerTree, EnumStats, Enumeration, MinimalSteinerProblem,
    QueueConfig, ResultCache, SolutionId, SolutionInterner, SolutionSink, Solutions, StatsHandle,
    StealObserver, StealRule, StealSchedule, SteinerError, SteinerForest, SteinerTree,
    TerminalSteinerTree,
};
