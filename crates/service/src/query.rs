//! Query descriptions, per-query execution options, and outcomes.
//!
//! A [`Query`] names one of the four paper problems plus its
//! instance-specific inputs; the graph itself lives in the engine, so a
//! query is a small, cheap-to-clone value. [`QueryOptions`] carries the
//! per-query execution knobs (solution limit, wall-clock deadline,
//! shard count, output queue) that map one-to-one onto the
//! [`Enumeration`](steiner_core::Enumeration) builder. A completed query
//! resolves a [`Ticket`] into a [`QueryOutcome`].

use std::time::{Duration, Instant};

use steiner_core::{EnumStats, SteinerError};
use steiner_graph::{ArcId, EdgeId, VertexId};

/// One enumeration request against the engine's graph: a paper problem
/// plus its instance-specific inputs (terminals, terminal sets, root).
///
/// The graph (and, for [`Query::DirectedSteinerTree`], the directed
/// view) is owned by the engine — see
/// [`EnumerationEngine`](crate::EnumerationEngine) — so queries are
/// small values that tenants construct freely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Minimal Steiner trees for one terminal set (§4, Theorem 17).
    SteinerTree {
        /// The terminal set `W`.
        terminals: Vec<VertexId>,
    },
    /// Minimal Steiner forests for a family of terminal sets (§5,
    /// Theorem 23).
    SteinerForest {
        /// The terminal sets `W₁, …, W_q`.
        sets: Vec<Vec<VertexId>>,
    },
    /// Minimal terminal Steiner trees — terminals must be leaves (§5.1,
    /// Theorem 29).
    TerminalSteinerTree {
        /// The terminal set `W`.
        terminals: Vec<VertexId>,
    },
    /// Minimal directed Steiner trees rooted at `root` (§5.2, Theorem
    /// 34). Requires an engine built with a directed graph view;
    /// otherwise the query is rejected with
    /// [`SteinerError::Unsupported`].
    DirectedSteinerTree {
        /// The root every terminal must be reachable from.
        root: VertexId,
        /// The terminal set `W`.
        terminals: Vec<VertexId>,
    },
}

impl Query {
    /// Whether this query needs the engine's directed graph view.
    pub fn is_directed(&self) -> bool {
        matches!(self, Query::DirectedSteinerTree { .. })
    }
}

/// Per-query execution options, mapping onto the
/// [`Enumeration`](steiner_core::Enumeration) builder front-ends.
///
/// The default runs sequentially, unbounded, without a deadline or
/// output queue — exactly `Enumeration::new(p).cached(..)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Stop after this many solutions
    /// ([`Enumeration::with_limit`](steiner_core::Enumeration::with_limit)).
    pub limit: Option<u64>,
    /// Abort once this wall-clock instant passes
    /// ([`Enumeration::with_deadline`](steiner_core::Enumeration::with_deadline)).
    /// The clock keeps running while the query waits in the tenant
    /// queue: a deadline is a promise to the *caller*, not to the
    /// worker. A query whose deadline has already passed when a worker
    /// picks it up resolves immediately to
    /// [`SteinerError::DeadlineExceeded`] with an empty prefix.
    pub deadline: Option<Instant>,
    /// Shard the run across this many worker threads
    /// ([`Enumeration::with_threads`](steiner_core::Enumeration::with_threads),
    /// which steals subtrees so a skew-rooted instance keeps every worker
    /// busy); `0` and `1` both mean sequential. The delivered stream is
    /// byte-identical either way.
    pub threads: usize,
    /// Route emissions through the Theorem-20 output queue
    /// ([`Enumeration::with_default_queue`](steiner_core::Enumeration::with_default_queue))
    /// for a worst-case (rather than amortized) delay bound.
    pub queue: bool,
}

impl QueryOptions {
    /// Stop after `n` solutions.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Abort once `deadline` passes (see [`Self::deadline`]).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// [`Self::deadline`] measured from now. A timeout too long for an
    /// [`Instant`] to represent sets no deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        // lint:allow(clock) deadline(timeout) anchors the caller's promise to the service clock
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Shard the run across `k` worker threads.
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k;
        self
    }

    /// Route emissions through the Theorem-20 output queue.
    pub fn queued(mut self) -> Self {
        self.queue = true;
        self
    }
}

/// The solutions delivered by one query, in the engine's deterministic
/// emission order.
///
/// Undirected problems report sorted edge-id sets; the directed problem
/// reports sorted arc-id sets. The two never mix within one query, so
/// the outcome carries one homogeneous batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolutionItems {
    /// Solutions of an undirected problem: sorted [`EdgeId`] sets.
    Edges(Vec<Vec<EdgeId>>),
    /// Solutions of the directed problem: sorted [`ArcId`] sets.
    Arcs(Vec<Vec<ArcId>>),
}

impl SolutionItems {
    /// The number of delivered solutions.
    pub fn len(&self) -> usize {
        match self {
            SolutionItems::Edges(v) => v.len(),
            SolutionItems::Arcs(v) => v.len(),
        }
    }

    /// Whether no solutions were delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The edge-id sets of an undirected query, or `None` for a
    /// directed one.
    pub fn edges(&self) -> Option<&[Vec<EdgeId>]> {
        match self {
            SolutionItems::Edges(v) => Some(v),
            SolutionItems::Arcs(_) => None,
        }
    }

    /// The arc-id sets of a directed query, or `None` for an undirected
    /// one.
    pub fn arcs(&self) -> Option<&[Vec<ArcId>]> {
        match self {
            SolutionItems::Arcs(v) => Some(v),
            SolutionItems::Edges(_) => None,
        }
    }
}

/// Everything a finished query hands back to its submitter.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The delivered solutions, in the engine's deterministic order.
    ///
    /// On `status == Ok(())` this is the complete answer; on
    /// [`SteinerError::DeadlineExceeded`] it is a valid *prefix* of the
    /// answer; on any other error it is empty.
    pub solutions: SolutionItems,
    /// The run's counters ([`EnumStats`]), including cache hit/miss and
    /// the pressure the run exerted on the shared store
    /// ([`EnumStats::evicted_entries`] / [`EnumStats::compactions`]).
    pub stats: EnumStats,
    /// `Ok(())` for a complete answer; a typed [`SteinerError`]
    /// otherwise. [`SteinerError::DeadlineExceeded`] still carries the
    /// valid prefix in [`Self::solutions`].
    pub status: Result<(), SteinerError>,
}

impl QueryOutcome {
    /// Whether the query ran to completion.
    pub fn is_complete(&self) -> bool {
        self.status.is_ok()
    }
}

/// A claim on one admitted query's future [`QueryOutcome`].
///
/// Returned by [`Session::submit`](crate::Session::submit) once the
/// query passed admission control. The engine guarantees every admitted
/// query resolves its ticket — even during shutdown, queued work is
/// drained, not dropped.
pub struct Ticket {
    pub(crate) rx: crossbeam_channel::Receiver<QueryOutcome>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the query finishes and returns its outcome.
    pub fn wait(self) -> QueryOutcome {
        self.rx
            .recv()
            .expect("engine workers resolve every admitted ticket")
    }

    /// Returns the outcome if the query already finished, or `None`
    /// while it is still queued or running (non-blocking).
    pub fn try_wait(&self) -> Option<QueryOutcome> {
        self.rx.try_recv().ok()
    }
}
