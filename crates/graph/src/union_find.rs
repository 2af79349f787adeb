//! Union–find with rollback.
//!
//! The Steiner-forest enumerator (§5 of the paper) maintains a partial
//! forest `F`, and the labels of `G″` (`G/E(F)` with its bridges
//! contracted, Lemma 24), along a root-to-leaf path of the enumeration
//! tree, extending both when recursing and restoring them when
//! backtracking. A union-by-size union–find without path compression
//! supports exact rollback in O(1) per undone union while keeping `find`
//! at O(log n) — the right trade-off for this access pattern.

use crate::ids::VertexId;

/// Union–find over `0..n` with union by size and O(1) rollback.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Roots that were attached to another root, in union order.
    history: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            history: Vec::new(),
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of the set containing `x` (no path compression, so
    /// rollback stays exact).
    pub fn find(&self, x: VertexId) -> VertexId {
        let mut cur = x.0;
        while self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
        }
        VertexId(cur)
    }

    /// Whether `x` and `y` are in the same set.
    pub fn same(&self, x: VertexId, y: VertexId) -> bool {
        self.find(x) == self.find(y)
    }

    /// Merges the sets of `x` and `y`. Returns `true` if they were distinct.
    pub fn union(&mut self, x: VertexId, y: VertexId) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        // Attach the smaller root below the larger.
        let (big, small) = if self.size[rx.index()] >= self.size[ry.index()] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[small.index()] = big.0;
        self.size[big.index()] += self.size[small.index()];
        self.history.push(small.0);
        self.components -= 1;
        true
    }

    /// Reserves room for `cap` recorded unions so steady-state operation
    /// never grows the history log.
    pub fn reserve_history(&mut self, cap: usize) {
        if self.history.capacity() < cap {
            self.history.reserve(cap - self.history.capacity());
        }
    }

    /// Bytes of owned buffer capacity (scratch accounting for the
    /// enumeration hot paths that embed a rollback union–find).
    pub fn capacity_bytes(&self) -> u64 {
        ((self.parent.capacity() + self.size.capacity() + self.history.capacity())
            * std::mem::size_of::<u32>()) as u64
    }

    /// A checkpoint token for [`Self::rollback`].
    pub fn snapshot(&self) -> usize {
        self.history.len()
    }

    /// Undoes all unions performed after `snapshot` was taken.
    pub fn rollback(&mut self, snapshot: usize) {
        while self.history.len() > snapshot {
            let small = self.history.pop().expect("history nonempty") as usize;
            let big = self.parent[small] as usize;
            self.parent[small] = small as u32;
            self.size[big] -= self.size[small];
            self.components += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(VertexId(0), VertexId(1)));
        assert!(uf.union(VertexId(1), VertexId(2)));
        assert!(!uf.union(VertexId(0), VertexId(2)), "already joined");
        assert!(uf.same(VertexId(0), VertexId(2)));
        assert!(!uf.same(VertexId(0), VertexId(3)));
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn rollback_restores_state() {
        let mut uf = UnionFind::new(6);
        uf.union(VertexId(0), VertexId(1));
        let snap = uf.snapshot();
        uf.union(VertexId(2), VertexId(3));
        uf.union(VertexId(0), VertexId(2));
        assert!(uf.same(VertexId(1), VertexId(3)));
        uf.rollback(snap);
        assert!(
            uf.same(VertexId(0), VertexId(1)),
            "pre-snapshot union survives"
        );
        assert!(!uf.same(VertexId(2), VertexId(3)));
        assert!(!uf.same(VertexId(0), VertexId(2)));
        assert_eq!(uf.num_components(), 5);
    }

    #[test]
    fn nested_rollbacks() {
        let mut uf = UnionFind::new(4);
        let s0 = uf.snapshot();
        uf.union(VertexId(0), VertexId(1));
        let s1 = uf.snapshot();
        uf.union(VertexId(2), VertexId(3));
        uf.rollback(s1);
        assert!(!uf.same(VertexId(2), VertexId(3)));
        uf.rollback(s0);
        assert!(!uf.same(VertexId(0), VertexId(1)));
        assert_eq!(uf.num_components(), 4);
    }

    #[test]
    fn sizes_accumulate() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(VertexId(i), VertexId(i + 1));
        }
        assert_eq!(uf.num_components(), 1);
        let root = uf.find(VertexId(0));
        assert_eq!(uf.size[root.index()], 8);
    }
}
