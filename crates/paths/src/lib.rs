//! Linear-delay *s*-*t* path enumeration — §3 of *Linear-Delay Enumeration
//! for Minimal Steiner Problems* (PODS 2022).
//!
//! The centre of this crate is [`enumerate::enumerate_directed_st_paths`],
//! an implementation of the paper's Algorithm 1: the Read–Tarjan branching
//! scheme revisited with
//!
//! * the deterministic smallest-first-arc path finder `F-STP`,
//! * the Lemma 11 incremental reachability sweep that lists all extendible
//!   prefixes of a freshly found path in O(n + m) total, and
//! * the **alternating output method** (Uno \[33\]): solutions are emitted in
//!   pre-order at even recursion depths and post-order at odd depths, which
//!   turns the per-node O(n + m) work bound into an O(n + m) *delay* bound
//!   (Theorem 12).
//!
//! Undirected graphs are handled by doubling each edge into two opposite
//! arcs ([`undirected`]), and set-to-set (`S`-`T`) path enumeration — the
//! form every Steiner enumerator consumes — by a super-source construction
//! ([`stsets`]).
//!
//! All enumerators are push-based (they call a sink); the [`streaming`]
//! module turns any push enumeration into a pull [`Iterator`] running on a
//! dedicated large-stack thread. The core engine reports its current path
//! incrementally, as [`visit::PathDelta`]s, so a consumer mirroring the
//! path pays only for each solution's new suffix; the
//! `enumerate_directed_st_paths*` entry points rebuild whole paths with
//! [`visit::WholePaths`].

#![deny(unsafe_code)]

pub mod enumerate;
pub mod naive;
pub mod streaming;
pub mod stsets;
pub mod undirected;
pub mod visit;

pub use enumerate::{enumerate_directed_st_paths, PathEnumStats};
pub use visit::{PathEvent, UndirectedPathEvent};
