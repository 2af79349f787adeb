//! Partial Steiner tree state.
//!
//! The paper's enumerators maintain a *partial Steiner tree* `T` (§4): a
//! tree all of whose leaves are terminals, grown one terminal-connecting
//! path at a time. This struct holds that state as a stack, supporting O(1)
//! amortized extension/retraction along a root-to-leaf walk of the
//! enumeration tree, exactly matching the paper's space accounting (the
//! global structures of Theorem 17's proof).

use steiner_graph::{EdgeId, VertexId};

/// A token recording what one [`PartialTree::extend`] call added, so the
/// exact state can be restored on backtrack.
#[derive(Copy, Clone, Debug)]
#[must_use = "pass the token back to retract()"]
pub struct Extension {
    added_vertices: usize,
    added_edges: usize,
}

/// The partial tree `T` (works for trees; the forest enumerator has its own
/// union–find-based state).
#[derive(Clone, Debug)]
pub struct PartialTree {
    /// `in_tree[v]` — whether `v ∈ V(T)`.
    pub in_tree: Vec<bool>,
    /// `V(T)` as a stack (insertion order).
    pub vertices: Vec<VertexId>,
    /// `E(T)` as a stack (insertion order).
    pub edges: Vec<EdgeId>,
    /// `is_terminal[v]` — whether `v ∈ W`.
    pub is_terminal: Vec<bool>,
    /// Number of terminals not yet in `T`.
    pub missing_terminals: usize,
}

impl PartialTree {
    /// Creates the root state `T = ({seed}, ∅)` (or the empty tree when
    /// `seed` is `None`, as the terminal variant's root requires).
    pub fn new(n: usize, terminals: &[VertexId], seed: Option<VertexId>) -> Self {
        let mut is_terminal = vec![false; n];
        for &w in terminals {
            is_terminal[w.index()] = true;
        }
        let mut t = PartialTree {
            in_tree: vec![false; n],
            vertices: Vec::new(),
            edges: Vec::new(),
            is_terminal,
            missing_terminals: terminals.len(),
        };
        if let Some(s) = seed {
            t.add_vertex(s);
        }
        t
    }

    fn add_vertex(&mut self, v: VertexId) {
        debug_assert!(!self.in_tree[v.index()]);
        self.in_tree[v.index()] = true;
        self.vertices.push(v);
        if self.is_terminal[v.index()] {
            self.missing_terminals -= 1;
        }
    }

    /// Extends `T` by part of a path: `vertices` are the path's vertices
    /// outside `T` (all of them must be new; a path starting inside `T`
    /// passes everything after its first vertex) and `edges` its edges.
    /// Returns the token for [`Self::retract`].
    pub fn extend(
        &mut self,
        vertices: &[VertexId],
        edges: impl IntoIterator<Item = EdgeId>,
    ) -> Extension {
        for &v in vertices {
            self.add_vertex(v);
        }
        let before = self.edges.len();
        self.edges.extend(edges);
        Extension {
            added_vertices: vertices.len(),
            added_edges: self.edges.len() - before,
        }
    }

    /// Undoes the matching [`Self::extend`] call (LIFO discipline).
    pub fn retract(&mut self, ext: Extension) {
        assert!(ext.added_edges <= self.edges.len(), "edge stack underflow");
        self.edges.truncate(self.edges.len() - ext.added_edges);
        assert!(
            ext.added_vertices <= self.vertices.len(),
            "vertex stack underflow"
        );
        let keep = self.vertices.len() - ext.added_vertices;
        for &v in &self.vertices[keep..] {
            self.in_tree[v.index()] = false;
            if self.is_terminal[v.index()] {
                self.missing_terminals += 1;
            }
        }
        self.vertices.truncate(keep);
    }

    /// Whether `T` already spans all terminals (and is thus a minimal
    /// Steiner tree by Proposition 3).
    pub fn complete(&self) -> bool {
        self.missing_terminals == 0
    }

    /// The smallest-id terminal not yet in `T`.
    pub fn first_missing_terminal(&self, terminals: &[VertexId]) -> Option<VertexId> {
        terminals.iter().copied().find(|w| !self.in_tree[w.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_and_retract_round_trip() {
        let terminals = [VertexId(0), VertexId(3)];
        let mut t = PartialTree::new(5, &terminals, Some(VertexId(0)));
        assert_eq!(t.missing_terminals, 1);
        let ext = t.extend(&[VertexId(1), VertexId(3)], [EdgeId(0), EdgeId(1)]);
        assert!(t.complete());
        assert_eq!(t.edges.len(), 2);
        assert!(t.in_tree[1]);
        t.retract(ext);
        assert_eq!(t.missing_terminals, 1);
        assert!(!t.in_tree[1]);
        assert!(!t.in_tree[3]);
        assert_eq!(t.vertices, vec![VertexId(0)]);
        assert!(t.edges.is_empty());
    }

    #[test]
    fn seeding_an_empty_tree() {
        let terminals = [VertexId(1), VertexId(2)];
        let mut t = PartialTree::new(4, &terminals, None);
        assert!(t.vertices.is_empty());
        let ext = t.extend(
            &[VertexId(1), VertexId(0), VertexId(2)],
            [EdgeId(0), EdgeId(1)],
        );
        assert!(t.complete());
        t.retract(ext);
        assert!(t.vertices.is_empty());
        assert_eq!(t.missing_terminals, 2);
    }

    #[test]
    fn nested_extensions_restore_in_order() {
        let terminals = [VertexId(0), VertexId(2), VertexId(4)];
        let mut t = PartialTree::new(5, &terminals, Some(VertexId(0)));
        let e1 = t.extend(&[VertexId(1), VertexId(2)], [EdgeId(0), EdgeId(1)]);
        let e2 = t.extend(&[VertexId(3), VertexId(4)], [EdgeId(2), EdgeId(3)]);
        assert!(t.complete());
        t.retract(e2);
        assert_eq!(t.missing_terminals, 1);
        assert!(t.in_tree[2]);
        t.retract(e1);
        assert_eq!(t.missing_terminals, 2);
        assert_eq!(t.vertices, vec![VertexId(0)]);
    }

    #[test]
    fn first_missing_terminal_in_id_order() {
        let terminals = [VertexId(2), VertexId(4)];
        let t = PartialTree::new(6, &terminals, Some(VertexId(4)));
        assert_eq!(t.first_missing_terminal(&terminals), Some(VertexId(2)));
    }
}
