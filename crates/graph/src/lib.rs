//! Graph substrate for the minimal-Steiner enumeration library.
//!
//! This crate implements, from scratch, every graph-theoretic primitive the
//! paper *Linear-Delay Enumeration for Minimal Steiner Problems* (PODS 2022)
//! relies on:
//!
//! * undirected and directed **multigraphs** (parallel edges allowed, no
//!   self-loops — the paper's preliminaries, §2),
//! * BFS with a vertex mask ([`traversal`]),
//! * connected components and reachability ([`connectivity`]),
//! * multigraph-aware **bridge** finding ([`bridges`], used by Lemmas 16, 24
//!   and 30),
//! * **query regions** ([`region`]): one DFS from a query's terminals
//!   labels their components, flags the bridges there and renumbers that
//!   part of the graph order-preservingly, so the enumerators prepare on
//!   the part their answer can live in,
//! * spanning trees containing a required subtree, non-terminal leaf
//!   pruning (Propositions 3/26) and the **forced-path skeleton** the
//!   tree, terminal and directed engines query per node ([`spanning`],
//!   Lemmas 16, 30 and 35),
//! * a **rollback union–find** ([`union_find`], the forest engine's `F`
//!   and `G″` labels),
//! * **line graphs** and the Theorem 39 construction ([`line_graph`]),
//! * claw detection ([`clawfree`], §7),
//! * **graph epochs** ([`epoch`]): batched edits to either graph kind
//!   with per-region fingerprints, so a mutation invalidates only the
//!   cached answers whose regions changed,
//! * workload **generators** ([`generators`]) and plain-text I/O ([`io`]).
//!
//! Vertices and edges are dense `u32` indices wrapped in [`VertexId`] /
//! [`EdgeId`]; all algorithms are index-based and allocation-conscious.

#![deny(unsafe_code)]

pub mod bridges;
pub mod clawfree;
pub mod connectivity;
pub mod csr;
pub mod digraph;
pub mod epoch;
pub mod generators;
pub mod ids;
pub mod io;
pub mod line_graph;
pub mod region;
pub mod spanning;
pub mod traversal;
pub mod undirected;
pub mod union_find;

pub use csr::{CsrDigraph, CsrUndirected};
pub use digraph::DiGraph;
pub use epoch::{
    ArcMutation, EpochDigraph, EpochGraph, GraphMutation, MutationReport, RegionMap,
    RegionSignature,
};
pub use ids::{ArcId, EdgeId, VertexId};
pub use region::{Region, RegionIds};
pub use undirected::UndirectedGraph;

/// Errors produced when constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A self-loop `{v, v}` was supplied; the paper's graphs have none (§2).
    SelfLoop { vertex: usize },
    /// A vertex index was at least the number of vertices.
    VertexOutOfRange { vertex: usize, num_vertices: usize },
    /// An edge index was at least the number of edges.
    EdgeOutOfRange { edge: usize, num_edges: usize },
    /// Input text could not be parsed.
    Parse { line: usize, message: String },
    /// The allocator refused the adjacency table for this many vertices.
    TooLarge { vertices: usize },
    /// A problem-specific precondition failed (e.g. the root of a directed
    /// Steiner instance is itself a terminal).
    Precondition { message: String },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} is not allowed")
            }
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {num_vertices} vertices)"
                )
            }
            GraphError::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge {edge} out of range (graph has {num_edges} edges)")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::TooLarge { vertices } => {
                write!(f, "cannot allocate adjacency lists for {vertices} vertices")
            }
            GraphError::Precondition { message } => write!(f, "precondition failed: {message}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// `n` empty adjacency lists, reserved fallibly: a vertex count the
/// allocator refuses is an error, not an abort.
pub(crate) fn adjacency_lists<T>(n: usize) -> Result<Vec<Vec<T>>> {
    let mut lists = Vec::new();
    lists
        .try_reserve_exact(n)
        .map_err(|_| GraphError::TooLarge { vertices: n })?;
    lists.resize_with(n, Vec::new);
    Ok(lists)
}
