//! Visitor plumbing: path events, sinks and collectors.
//!
//! Enumeration is push-based so that the delay guarantee is *observable*:
//! the algorithm invokes a sink the instant a solution is complete, and the
//! sink may stop the enumeration early by returning
//! [`ControlFlow::Break`] — the basis for top-k queries.
//!
//! The Algorithm-1 engine reports its current path incrementally, as
//! [`PathDelta`]s (see [`crate::enumerate`] for why); [`WholePaths`]
//! rebuilds whole [`PathEvent`]s from them for callers that want each
//! path in one piece.

use std::ops::ControlFlow;
use steiner_graph::{ArcId, EdgeId, VertexId};

/// A directed path reported by an enumerator. Slices borrow enumerator
/// scratch space: copy what you need to keep.
#[derive(Copy, Clone, Debug)]
pub struct PathEvent<'a> {
    /// The path's vertices, source first, target last (`arcs.len() + 1` of
    /// them; a trivial `s = t` path has one vertex and no arcs).
    pub vertices: &'a [VertexId],
    /// The arcs traversed, in order.
    pub arcs: &'a [ArcId],
}

/// One step of the path engine's incremental report. Deltas nest: every
/// `Extend` is undone by a later `Retract` (LIFO, including after the sink
/// stopped the run), and a `Path` is the current path followed by its
/// suffix. No delta names the engine's start vertex `s`, so a consumer
/// seeds its copy of the path itself (or, with a virtual super-source,
/// ignores it). Slices borrow enumerator scratch space.
#[derive(Copy, Clone, Debug)]
pub enum PathDelta<'a> {
    /// The current path grows by a prefix of a continuation: `vertices`
    /// are the new vertices `v₂ … v_i` (the new tip last), `arcs` the
    /// `i − 1` arcs reaching them from the old tip.
    Extend {
        /// The appended vertices, in path order.
        vertices: &'a [VertexId],
        /// The appended arcs, in path order (as many as `vertices`).
        arcs: &'a [ArcId],
    },
    /// Undoes the innermost `Extend` still in effect.
    Retract,
    /// A solution: the current path followed by `vertices`/`arcs` — the
    /// continuation after its first vertex, which is the current tip.
    /// The trivial `s = t` path is a `Path` with empty slices.
    Path {
        /// The suffix's vertices, ending at the target.
        vertices: &'a [VertexId],
        /// The suffix's arcs (as many as `vertices`).
        arcs: &'a [ArcId],
    },
}

/// Rebuilds whole paths from a [`PathDelta`] stream: keeps the current
/// path in a buffer — `Extend` appends, `Retract` truncates — and hands
/// each `Path` delta to a whole-path sink as the buffer followed by the
/// suffix.
#[derive(Clone, Debug)]
pub struct WholePaths {
    vertices: Vec<VertexId>,
    arcs: Vec<ArcId>,
    /// Path length in arcs before each `Extend` still in effect.
    marks: Vec<usize>,
}

impl WholePaths {
    /// An empty buffer for paths starting at `source`.
    pub fn new(source: VertexId) -> Self {
        WholePaths {
            vertices: vec![source],
            arcs: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Applies one delta, forwarding a completed path to `sink`. Returns
    /// the sink's verdict for a `Path`, and `Continue` otherwise.
    pub fn apply(
        &mut self,
        delta: PathDelta<'_>,
        sink: &mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match delta {
            PathDelta::Extend { vertices, arcs } => {
                self.marks.push(self.arcs.len());
                self.vertices.extend_from_slice(vertices);
                self.arcs.extend_from_slice(arcs);
                ControlFlow::Continue(())
            }
            PathDelta::Retract => {
                let mark = self.marks.pop().expect("a Retract undoes an Extend");
                self.truncate(mark);
                ControlFlow::Continue(())
            }
            PathDelta::Path { vertices, arcs } => {
                let mark = self.arcs.len();
                self.vertices.extend_from_slice(vertices);
                self.arcs.extend_from_slice(arcs);
                let flow = sink(PathEvent {
                    vertices: &self.vertices,
                    arcs: &self.arcs,
                });
                self.truncate(mark);
                flow
            }
        }
    }

    fn truncate(&mut self, arcs: usize) {
        self.vertices.truncate(arcs + 1);
        self.arcs.truncate(arcs);
    }
}

/// An undirected path reported via [`crate::undirected`]. Slices borrow
/// enumerator scratch space.
#[derive(Copy, Clone, Debug)]
pub struct UndirectedPathEvent<'a> {
    /// The path's vertices, source first.
    pub vertices: &'a [VertexId],
    /// The undirected edges traversed, in order.
    pub edges: &'a [EdgeId],
}

/// Collects every emitted arc sequence.
pub fn collect_arc_paths(
    run: impl FnOnce(&mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>),
) -> Vec<Vec<ArcId>> {
    let mut out = Vec::new();
    run(&mut |p| {
        out.push(p.arcs.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// Counts emitted paths without storing them.
pub fn count_paths(run: impl FnOnce(&mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>)) -> u64 {
    let mut count = 0;
    run(&mut |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

/// Collects at most `k` arc sequences, then stops the enumeration.
#[allow(clippy::type_complexity)]
pub fn first_k_arc_paths(
    k: usize,
    run: impl FnOnce(&mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>),
) -> Vec<Vec<ArcId>> {
    let mut out = Vec::with_capacity(k);
    run(&mut |p| {
        if out.len() < k {
            out.push(p.arcs.to_vec());
        }
        if out.len() < k {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)]
    fn fake_run(n: usize) -> impl FnOnce(&mut dyn FnMut(PathEvent<'_>) -> ControlFlow<()>) {
        move |sink| {
            let vertices = [VertexId(0), VertexId(1)];
            let arcs = [ArcId(0)];
            for _ in 0..n {
                if sink(PathEvent {
                    vertices: &vertices,
                    arcs: &arcs,
                })
                .is_break()
                {
                    return;
                }
            }
        }
    }

    #[test]
    fn collect_and_count() {
        assert_eq!(collect_arc_paths(fake_run(3)).len(), 3);
        assert_eq!(count_paths(fake_run(5)), 5);
    }

    #[test]
    fn first_k_stops_early() {
        let got = first_k_arc_paths(2, fake_run(100));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn first_k_with_fewer_available() {
        let got = first_k_arc_paths(10, fake_run(4));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn whole_paths_rebuilds_paths_from_deltas() {
        let v = VertexId;
        let mut whole = WholePaths::new(v(0));
        let mut got = Vec::new();
        let mut sink = |p: PathEvent<'_>| {
            got.push((p.vertices.to_vec(), p.arcs.to_vec()));
            ControlFlow::Continue(())
        };
        let deltas = [
            PathDelta::Path {
                vertices: &[v(1), v(9)],
                arcs: &[ArcId(0), ArcId(1)],
            },
            PathDelta::Extend {
                vertices: &[v(2), v(3)],
                arcs: &[ArcId(2), ArcId(3)],
            },
            PathDelta::Path {
                vertices: &[v(9)],
                arcs: &[ArcId(4)],
            },
            PathDelta::Retract,
            PathDelta::Path {
                vertices: &[v(4), v(9)],
                arcs: &[ArcId(5), ArcId(6)],
            },
        ];
        for d in deltas {
            assert!(whole.apply(d, &mut sink).is_continue());
        }
        assert_eq!(
            got,
            vec![
                (vec![v(0), v(1), v(9)], vec![ArcId(0), ArcId(1)]),
                (
                    vec![v(0), v(2), v(3), v(9)],
                    vec![ArcId(2), ArcId(3), ArcId(4)]
                ),
                (vec![v(0), v(4), v(9)], vec![ArcId(5), ArcId(6)]),
            ]
        );
    }
}
