//! A long-lived, multi-tenant enumeration service over the
//! `steiner-core` engine — the serving layer for *Linear-Delay
//! Enumeration for Minimal Steiner Problems* (PODS 2022).
//!
//! One [`EnumerationEngine`] owns a graph (optionally with a directed
//! view), a pool of worker threads, and two shared
//! [`ResultCache`](steiner_core::ResultCache)s (edge-item for the three
//! undirected problems, arc-item for the directed one). Tenants attach
//! via [`EnumerationEngine::session`] and submit [`Query`]s; each
//! resolves a [`Ticket`] into a [`QueryOutcome`] whose solution stream
//! is **byte-identical** to a one-shot
//! [`Enumeration`](steiner_core::Enumeration) run of the same query —
//! the service adds scheduling and sharing around the engine, never
//! between the engine and the output.
//!
//! Five concerns make it a service rather than a function call:
//!
//! - **Admission control** — a global in-flight cap plus a per-tenant
//!   queue-depth cap ([`EngineConfig`]). A submission beyond either cap
//!   is refused *immediately* with a typed
//!   [`SteinerError::AdmissionRejected`](steiner_core::SteinerError::AdmissionRejected);
//!   the engine never queues unboundedly.
//! - **Deadlines** — [`QueryOptions::deadline`] bounds a query's
//!   wall-clock time (queue wait included). An expired query resolves
//!   to [`SteinerError::DeadlineExceeded`](steiner_core::SteinerError::DeadlineExceeded)
//!   carrying the valid prefix enumerated so far; incomplete runs are
//!   never recorded in the shared caches.
//! - **Fair scheduling** — dispatch is stride-scheduled weighted
//!   round-robin across tenants with queued work: deterministic, and
//!   proportional to each tenant's weight
//!   ([`EnumerationEngine::session_with_weight`]).
//! - **Live mutation** — the serving graph is not frozen:
//!   [`EnumerationEngine::apply_mutations`] (and
//!   [`apply_arc_mutations`](EnumerationEngine::apply_arc_mutations) for
//!   the directed view) applies a [`GraphMutation`] batch atomically,
//!   serialized against in-flight queries by an epoch fence — every
//!   query is pinned to the serving epoch at admission and streams
//!   exactly what a one-shot run on that graph version streams. Each
//!   committed batch advances [`EnumerationEngine::epoch`] and
//!   invalidates exactly the cache entries whose graph *regions* it
//!   touched; the returned [`MutationOutcome`] reports the touched
//!   regions and the retained/invalidated counters (accumulated in
//!   [`EnumerationEngine::mutation_stats`]).
//! - **Warm restart** — [`EnumerationEngine::snapshot`] persists both
//!   caches in a versioned, checksummed format;
//!   [`EnumerationEngine::restore`] on a fresh engine over the same
//!   graph validates everything (rejecting corruption, version skew,
//!   and wrong-graph snapshots with typed
//!   [`SnapshotError`](steiner_core::SnapshotError)s) and then answers
//!   repeated queries as cache hits — no search, same bytes.
//!
//! ```
//! use std::ops::ControlFlow;
//! use steiner_graph::{UndirectedGraph, VertexId};
//! use steiner_service::{EnumerationEngine, Query, QueryOptions};
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! let engine = EnumerationEngine::new(g.clone());
//!
//! // Two tenants share the engine (and its result caches).
//! let alice = engine.session("alice");
//! let bob = engine.session("bob");
//! let q = Query::SteinerTree { terminals: vec![VertexId(0), VertexId(2)] };
//! let a = alice.run(q.clone(), QueryOptions::default()).unwrap();
//! let b = bob.run(q.clone(), QueryOptions::default()).unwrap();
//! assert_eq!(a.solutions, b.solutions); // same answer ...
//! assert_eq!(b.stats.cache_hits, 1); // ... and Bob's replayed from cache.
//!
//! // The stream matches a one-shot engine run byte for byte.
//! let mut oneshot = Vec::new();
//! steiner_core::Enumeration::new(steiner_core::SteinerTree::new(&g, &[VertexId(0), VertexId(2)]))
//!     .for_each(|t| {
//!         oneshot.push(t.to_vec());
//!         ControlFlow::Continue(())
//!     })
//!     .unwrap();
//! assert_eq!(a.solutions.edges().unwrap(), &oneshot[..]);
//!
//! // Warm restart: snapshot, build a fresh engine, restore, replay.
//! let blob = engine.snapshot();
//! let restarted = EnumerationEngine::new(g.clone());
//! assert!(restarted.restore(&blob).unwrap() >= 1);
//! let carol = restarted.session("carol");
//! let warm = carol.run(q, QueryOptions::default()).unwrap();
//! assert_eq!(warm.stats.cache_hits, 1);
//! assert_eq!(warm.solutions, a.solutions);
//! ```
//!
//! The example under `examples/enumeration_service.rs` exercises the
//! full surface — concurrent tenants, admission rejections, a
//! deadline'd query, and a warm restart.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod engine;
mod query;
mod session;

pub use engine::{
    DigraphRef, EngineConfig, EnumerationEngine, EpochRef, GraphRef, MutationOutcome, TenantReport,
};
pub use query::{Query, QueryOptions, QueryOutcome, SolutionItems, Ticket};
pub use session::Session;
// The mutation vocabulary is defined by the graph layer; re-exported so
// service callers can drive a live graph without a direct dependency.
pub use steiner_graph::epoch::{ArcMutation, GraphMutation};
