//! Hash-consed interning of emitted solutions.
//!
//! The four enumerators emit every solution as a **sorted id slice**, and
//! the engine's zero-allocation sink path hands that slice to the consumer
//! without retaining it. Consumers that *do* retain solutions — the
//! keyword-search ranking layer, the [`crate::cache`] result cache,
//! anything serving repeated queries — previously each copied every slice
//! into an owned `Vec`, so `s` consumers of the same stream paid `s`
//! copies of every solution.
//!
//! This module provides the materialize-once/reuse-many alternative (the
//! same economics BDD-based Steiner enumeration exploits by sharing
//! sub-solution structure): a [`SolutionInterner`] **deduplicates** sorted
//! id slices into one flat arena and hands out stable, `Copy`able
//! [`SolutionId`] handles. Re-emitting an interned solution is O(1)
//! ([`SolutionInterner::resolve`] returns the arena slice directly), and
//! interning an already-known slice allocates nothing.
//!
//! Lifecycle is reference-counted: [`SolutionInterner::intern`] and
//! [`SolutionInterner::acquire`] take a reference,
//! [`SolutionInterner::release`] drops one, and a solution whose count
//! reaches zero becomes *dead* — its id may be reused and its arena bytes
//! are reclaimed by the next [`SolutionInterner::compact`]. Live ids are
//! **stable**: compaction never renumbers or moves a live solution's id.
//!
//! A consumer that wants a stream interned interns it from its own sink;
//! the [`crate::cache`] recorder does so for `cached()` runs.
//!
//! ```
//! use steiner_core::intern::SolutionInterner;
//! use steiner_graph::EdgeId;
//!
//! let mut interner = SolutionInterner::new();
//! let a = interner.intern(&[EdgeId(0), EdgeId(2)]);
//! let b = interner.intern(&[EdgeId(1)]);
//! let a2 = interner.intern(&[EdgeId(0), EdgeId(2)]); // hash-cons hit
//! assert_eq!(a, a2);
//! assert_eq!(interner.resolve(a), &[EdgeId(0), EdgeId(2)]);
//! assert_eq!(interner.resolve(b), &[EdgeId(1)]);
//! assert_eq!(interner.len(), 2);
//! assert_eq!(interner.dedup_hits(), 1);
//! ```

use std::hash::{Hash, Hasher};

/// Stable handle to one interned solution inside a [`SolutionInterner`].
///
/// Ids are dense small integers, so consumers can use them as map keys or
/// array indices. An id stays valid — and keeps resolving to the identical
/// slice — as long as the solution's reference count is positive; after
/// the last [`release`](SolutionInterner::release) the id may be reused
/// for a different solution.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SolutionId(u32);

impl SolutionId {
    /// The underlying dense index, for direct use as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned solution: a range of the flat arena plus its refcount.
struct Slot {
    start: u32,
    len: u32,
    /// Reference count; 0 means the slot is dead (id queued for reuse).
    refs: u32,
    /// Cached hash of the items, so table rebuilds never re-hash slices.
    hash: u64,
}

/// Marker for a deleted hash-table entry (distinct from `EMPTY` so probe
/// chains survive deletions until the next rebuild).
const TOMBSTONE: u32 = u32::MAX;
/// Marker for a never-used hash-table entry.
const EMPTY: u32 = 0;

/// A hash-consing arena over sorted solution slices: structurally equal
/// slices intern to the same [`SolutionId`], stored once.
///
/// Single-threaded; a shared owner (the [`crate::cache`] store) wraps it
/// in its own lock. See the [module documentation](self) for an example
/// and the lifecycle rules.
pub struct SolutionInterner<Item> {
    /// All live (and not-yet-compacted dead) solutions, back to back.
    flat: Vec<Item>,
    slots: Vec<Slot>,
    /// Open-addressing table of `slot index + 1` (`EMPTY` = never used,
    /// `TOMBSTONE` = deleted). Capacity is a power of two.
    table: Vec<u32>,
    /// Live entries in `table` (excludes tombstones).
    live: usize,
    /// Tombstones in `table`.
    tombstones: usize,
    /// Dead slot indices available for reuse.
    free: Vec<u32>,
    /// Items owned by dead slots, reclaimable by [`Self::compact`].
    dead_items: usize,
    dedup_hits: u64,
}

impl<Item> Default for SolutionInterner<Item> {
    fn default() -> Self {
        SolutionInterner {
            flat: Vec::new(),
            slots: Vec::new(),
            table: Vec::new(),
            live: 0,
            tombstones: 0,
            free: Vec::new(),
            dead_items: 0,
            dedup_hits: 0,
        }
    }
}

/// One stable hash for a solution slice (used for the table and for query
/// fingerprints; not cryptographic).
fn hash_items<Item: Hash>(items: &[Item]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    items.hash(&mut h);
    h.finish()
}

impl<Item: Copy + Eq + Hash> SolutionInterner<Item> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner preallocated for about `solutions` solutions of
    /// `items` total items.
    pub fn with_capacity(solutions: usize, items: usize) -> Self {
        let mut s = Self::new();
        s.flat.reserve(items);
        s.slots.reserve(solutions);
        s.rebuild_table((solutions * 2).next_power_of_two().max(16));
        s
    }

    /// Number of live (reference-counted) solutions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live solutions are interned.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bytes of item payload held by **live** solutions.
    pub fn bytes(&self) -> u64 {
        ((self.flat.len() - self.dead_items) * std::mem::size_of::<Item>()) as u64
    }

    /// Bytes of item payload currently held in the arena, dead ranges
    /// included (the figure [`Self::compact`] shrinks toward
    /// [`Self::bytes`]).
    pub fn arena_bytes(&self) -> u64 {
        (self.flat.len() * std::mem::size_of::<Item>()) as u64
    }

    /// How many [`Self::intern`] calls found their slice already present
    /// — the work the hash-consing layer avoided re-materializing.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Interns `items`, returning the id of the arena copy and taking one
    /// reference. Structurally equal slices (same items, same order)
    /// always return the same id, so callers should pass solutions in the
    /// engine's canonical sorted form.
    pub fn intern(&mut self, items: &[Item]) -> SolutionId {
        let hash = hash_items(items);
        if self.table.is_empty() || (self.live + self.tombstones + 1) * 8 > self.table.len() * 7 {
            // Size by the *live* count, not the old capacity: sustained
            // intern/release churn (an LRU cache at its byte cap) piles
            // up tombstones without growing `live`, and rebuilding to
            // 4×live clears them while keeping the table bounded by the
            // live population instead of by total interns ever.
            self.rebuild_table(((self.live + 1) * 4).max(16));
        }
        let mask = self.table.len() - 1;
        let mut i = (hash as usize) & mask;
        let mut first_tombstone = None;
        loop {
            match self.table[i] {
                EMPTY => break,
                TOMBSTONE => {
                    first_tombstone.get_or_insert(i);
                }
                enc => {
                    let slot = &self.slots[(enc - 1) as usize];
                    if slot.refs > 0 && slot.hash == hash && self.slice_of(slot) == items {
                        let id = SolutionId(enc - 1);
                        self.slots[(enc - 1) as usize].refs += 1;
                        self.dedup_hits += 1;
                        return id;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        // Not present: append to the arena, reusing a dead slot id if any.
        // Offsets are u32: fail loudly at the 2^32-item arena boundary
        // instead of silently wrapping into another solution's range.
        assert!(
            self.flat.len() + items.len() <= u32::MAX as usize,
            "SolutionInterner arena exceeds u32 offsets ({} items); \
             compact() or evict before interning more",
            self.flat.len(),
        );
        let start = self.flat.len() as u32;
        self.flat.extend_from_slice(items);
        let slot = Slot {
            start,
            len: items.len() as u32,
            refs: 1,
            hash,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        let dest = first_tombstone.unwrap_or(i);
        if self.table[dest] == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.table[dest] = idx + 1;
        self.live += 1;
        SolutionId(idx)
    }

    /// The interned slice for `id` — O(1), no copy.
    ///
    /// # Panics
    /// Panics if `id` is dead (released to a zero reference count).
    pub fn resolve(&self, id: SolutionId) -> &[Item] {
        let slot = &self.slots[id.index()];
        assert!(slot.refs > 0, "resolve of a dead SolutionId");
        self.slice_of(slot)
    }

    /// Takes an additional reference on `id`.
    ///
    /// # Panics
    /// Panics if `id` is dead.
    pub fn acquire(&mut self, id: SolutionId) {
        let slot = &mut self.slots[id.index()];
        assert!(slot.refs > 0, "acquire of a dead SolutionId");
        slot.refs += 1;
    }

    /// Drops one reference on `id`. Returns `true` when this was the last
    /// reference: the id is dead, queued for reuse, and its bytes become
    /// reclaimable by [`Self::compact`].
    ///
    /// # Panics
    /// Panics if `id` is already dead.
    pub fn release(&mut self, id: SolutionId) -> bool {
        let slot = &mut self.slots[id.index()];
        assert!(slot.refs > 0, "release of a dead SolutionId");
        slot.refs -= 1;
        if slot.refs > 0 {
            return false;
        }
        self.dead_items += slot.len as usize;
        let hash = slot.hash;
        self.remove_from_table(hash, id);
        self.free.push(id.0);
        self.live -= 1;
        true
    }

    /// Reclaims the arena space of dead solutions by sliding live ranges
    /// down in place. Live ids are untouched (compaction rewrites slot
    /// *offsets*, never slot *indices*). O(arena + live·log live) time,
    /// one temporary index allocation of live-slot size.
    pub fn compact(&mut self) {
        if self.dead_items == 0 {
            return;
        }
        // Collect live slots in arena order, then slide each range left.
        let mut order: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&i| self.slots[i as usize].refs > 0)
            .collect();
        order.sort_unstable_by_key(|&i| self.slots[i as usize].start);
        let mut write = 0usize;
        for idx in order {
            let slot = &mut self.slots[idx as usize];
            let (start, len) = (slot.start as usize, slot.len as usize);
            slot.start = write as u32;
            self.flat.copy_within(start..start + len, write);
            write += len;
        }
        self.flat.truncate(write);
        self.dead_items = 0;
    }

    /// The share of arena bytes owned by dead solutions, in `[0, 1]` —
    /// callers typically [`Self::compact`] when this crosses a threshold.
    pub fn dead_fraction(&self) -> f64 {
        if self.flat.is_empty() {
            0.0
        } else {
            self.dead_items as f64 / self.flat.len() as f64
        }
    }

    fn slice_of(&self, slot: &Slot) -> &[Item] {
        &self.flat[slot.start as usize..(slot.start + slot.len) as usize]
    }

    fn remove_from_table(&mut self, hash: u64, id: SolutionId) {
        let mask = self.table.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.table[i] {
                EMPTY => unreachable!("interned id missing from the table"),
                enc if enc != TOMBSTONE && enc - 1 == id.0 => {
                    self.table[i] = TOMBSTONE;
                    self.tombstones += 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn rebuild_table(&mut self, capacity: usize) {
        let capacity = capacity.next_power_of_two().max(16);
        self.table.clear();
        self.table.resize(capacity, EMPTY);
        self.tombstones = 0;
        let mask = capacity - 1;
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.refs == 0 {
                continue;
            }
            let mut i = (slot.hash as usize) & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = idx as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steiner_graph::EdgeId;

    fn ids(range: std::ops::Range<u32>) -> Vec<EdgeId> {
        range.map(EdgeId).collect()
    }

    #[test]
    fn interning_dedups_and_resolves() {
        let mut s = SolutionInterner::new();
        let a = s.intern(&ids(0..3));
        let b = s.intern(&ids(3..5));
        assert_ne!(a, b);
        assert_eq!(s.intern(&ids(0..3)), a);
        assert_eq!(s.intern(&ids(3..5)), b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dedup_hits(), 2);
        assert_eq!(s.resolve(a), &ids(0..3)[..]);
        assert_eq!(s.resolve(b), &ids(3..5)[..]);
    }

    #[test]
    fn order_matters_for_identity() {
        // The engine emits sorted slices; distinct orders are distinct
        // (the interner is exact, not set-semantic).
        let mut s = SolutionInterner::new();
        let a = s.intern(&[EdgeId(1), EdgeId(2)]);
        let b = s.intern(&[EdgeId(2), EdgeId(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_solution_is_internable() {
        // One-terminal Steiner instances emit the empty tree.
        let mut s = SolutionInterner::new();
        let a = s.intern(&[] as &[EdgeId]);
        assert_eq!(s.intern(&[] as &[EdgeId]), a);
        assert_eq!(s.resolve(a), &[] as &[EdgeId]);
    }

    #[test]
    fn refcounts_free_and_reuse_ids() {
        let mut s = SolutionInterner::new();
        let a = s.intern(&ids(0..4));
        let _b = s.intern(&ids(4..6));
        s.acquire(a); // refs = 2
        assert!(!s.release(a));
        assert!(s.release(a), "second release kills the solution");
        assert_eq!(s.len(), 1);
        // The dead slice is really gone: re-interning allocates anew (and
        // may reuse the dead id).
        let c = s.intern(&ids(0..4));
        assert_eq!(c, a, "dead id is reused for the next interned solution");
        assert_eq!(s.resolve(c), &ids(0..4)[..]);
    }

    #[test]
    fn compact_reclaims_dead_bytes_and_keeps_live_ids_stable() {
        let mut s = SolutionInterner::new();
        let keep1 = s.intern(&ids(0..5));
        let drop1 = s.intern(&ids(5..9));
        let keep2 = s.intern(&ids(9..12));
        let drop2 = s.intern(&ids(12..20));
        let before = s.bytes();
        s.release(drop1);
        s.release(drop2);
        assert_eq!(s.bytes(), before - 12 * 4, "live bytes shrink on release");
        assert!(s.arena_bytes() > s.bytes(), "arena still holds dead ranges");
        assert!(s.dead_fraction() > 0.5);
        s.compact();
        assert_eq!(s.arena_bytes(), s.bytes(), "compaction reclaims the gap");
        assert_eq!(s.resolve(keep1), &ids(0..5)[..]);
        assert_eq!(s.resolve(keep2), &ids(9..12)[..]);
        // And the table still finds the compacted slices.
        assert_eq!(s.intern(&ids(0..5)), keep1);
        assert_eq!(s.intern(&ids(9..12)), keep2);
    }

    #[test]
    #[should_panic(expected = "dead SolutionId")]
    fn resolving_a_dead_id_panics() {
        let mut s = SolutionInterner::new();
        let a = s.intern(&ids(0..2));
        s.release(a);
        let _ = s.resolve(a);
    }

    #[test]
    fn many_solutions_survive_table_growth() {
        let mut s = SolutionInterner::new();
        let handles: Vec<(SolutionId, Vec<EdgeId>)> = (0..500)
            .map(|i| {
                let sol = ids(i..i + 1 + (i % 7));
                (s.intern(&sol), sol)
            })
            .collect();
        assert_eq!(s.len(), 500);
        for (id, sol) in &handles {
            assert_eq!(s.resolve(*id), &sol[..]);
            assert_eq!(s.intern(sol), *id, "rehash keeps hash-consing exact");
        }
    }

    #[test]
    fn heavy_churn_with_tombstones_stays_consistent() {
        // Interleave intern/release so the table accumulates tombstones
        // across several rebuilds; identity must never be lost.
        let mut s = SolutionInterner::new();
        let mut live: Vec<(SolutionId, Vec<EdgeId>)> = Vec::new();
        for round in 0u32..50 {
            for i in 0..20 {
                let sol = ids(round * 20 + i..round * 20 + i + 3);
                live.push((s.intern(&sol), sol));
            }
            // Release every other live solution.
            let mut keep = Vec::new();
            for (j, (id, sol)) in live.drain(..).enumerate() {
                if j % 2 == 0 {
                    s.release(id);
                } else {
                    keep.push((id, sol));
                }
            }
            live = keep;
            if s.dead_fraction() > 0.4 {
                s.compact();
            }
        }
        assert_eq!(s.len(), live.len());
        for (id, sol) in &live {
            assert_eq!(s.resolve(*id), &sol[..]);
        }
    }

    #[test]
    fn churn_does_not_grow_the_table_unboundedly() {
        // LRU-style workload: tens of thousands of intern/release cycles
        // while at most 8 solutions are live. The table must stay sized
        // by the live population, not by the total interns ever seen.
        let mut s = SolutionInterner::new();
        let mut live: std::collections::VecDeque<SolutionId> = std::collections::VecDeque::new();
        for i in 0u32..20_000 {
            live.push_back(s.intern(&ids(i..i + 4)));
            if live.len() > 8 {
                let old = live.pop_front().unwrap();
                s.release(old);
            }
            if s.dead_fraction() > 0.5 {
                s.compact();
            }
        }
        assert_eq!(s.len(), 8);
        assert!(
            s.table.len() <= 64,
            "table stays O(live), got {} slots",
            s.table.len()
        );
        for &id in &live {
            assert_eq!(s.resolve(id).len(), 4);
        }
    }
}
