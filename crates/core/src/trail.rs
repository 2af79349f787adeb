//! The trail: undo-log rollback for the enumeration hot path.
//!
//! Algorithm 3 walks one root-to-leaf path of the enumeration tree at a
//! time, so search-state mutations are strictly LIFO. Instead of cloning
//! membership masks per child (one `Vec<bool>` allocation per node), a
//! [`Trail`] records which bits a branch set and clears exactly those on
//! backtrack — O(1) amortized per mutation, zero allocation once the log
//! buffer is warm.
//!
//! [`ScratchUsage`] is the companion accounting type: every reusable
//! scratch structure reports its post-`prepare()` buffer-growth events and
//! its capacity footprint, and the problems fold the totals into
//! [`EnumStats::scratch_allocs`](crate::stats::EnumStats::scratch_allocs) /
//! [`EnumStats::peak_scratch_bytes`](crate::stats::EnumStats::peak_scratch_bytes)
//! — making "the hot path does not allocate" a testable claim rather than
//! a comment.

/// A checkpoint into a [`Trail`], returned by [`Trail::mark`].
#[derive(Copy, Clone, Debug)]
#[must_use = "pass the mark back to undo_to()"]
pub struct TrailMark(usize);

/// An undo log over boolean membership masks (edge-in-solution, vertex
/// masks, …). Mutations must be monotone per frame: bits are *set*
/// through the trail and cleared wholesale by [`Trail::undo_to`].
#[derive(Clone, Debug, Default)]
pub struct Trail {
    log: Vec<u32>,
    allocs: u64,
}

impl Trail {
    /// A fresh, empty trail.
    pub fn new() -> Self {
        Trail::default()
    }

    /// Reserves room for `cap` live entries so steady-state operation
    /// never grows the log.
    pub fn preallocate(&mut self, cap: usize) {
        if self.log.capacity() < cap {
            self.log.reserve(cap - self.log.capacity());
        }
    }

    /// The current checkpoint.
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.log.len())
    }

    /// Sets `mask[i]` and records the mutation. The bit must be clear
    /// (mutations are monotone within a frame).
    #[inline]
    pub fn set(&mut self, mask: &mut [bool], i: usize) {
        debug_assert!(!mask[i], "trail mutations are monotone per frame");
        mask[i] = true;
        if self.log.len() == self.log.capacity() {
            self.allocs += 1;
        }
        self.log.push(i as u32);
    }

    /// Clears every bit set since `mark`, restoring the mask to its state
    /// at the checkpoint.
    pub fn undo_to(&mut self, mask: &mut [bool], mark: TrailMark) {
        while self.log.len() > mark.0 {
            let i = self.log.pop().expect("log is nonempty above the mark") as usize;
            mask[i] = false;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the trail holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// This trail's scratch accounting.
    pub fn usage(&self) -> ScratchUsage {
        ScratchUsage {
            allocs: self.allocs,
            bytes: (self.log.capacity() * std::mem::size_of::<u32>()) as u64,
        }
    }
}

/// A typed stack of per-descent checkpoint frames.
///
/// One branch step of the engine perturbs several undo-able layers at
/// once — the [`Trail`]-backed membership masks, the partial-solution
/// stacks, and the forest's rollback union–finds
/// ([`steiner_graph::union_find::UnionFind`]). Each problem bundles
/// the checkpoints of all its layers into one frame type and pushes it
/// here on descent; backtracking pops the frame and restores every layer
/// from it, so the descend/undo protocol has a single typed unit instead
/// of a handful of loose marks. The work-stealing replay path reuses
/// exactly the same frames, which is what keeps replayed and locally
/// generated subtrees byte-identical.
#[derive(Clone, Debug)]
pub struct FrameLog<F> {
    frames: Vec<F>,
    allocs: u64,
}

impl<F> Default for FrameLog<F> {
    fn default() -> Self {
        FrameLog {
            frames: Vec::new(),
            allocs: 0,
        }
    }
}

impl<F> FrameLog<F> {
    /// An empty frame stack.
    pub fn new() -> Self {
        FrameLog::default()
    }

    /// Reserves room for `cap` live frames so steady-state descent never
    /// grows the stack.
    pub fn preallocate(&mut self, cap: usize) {
        if self.frames.capacity() < cap {
            self.frames.reserve(cap - self.frames.capacity());
        }
    }

    /// Pushes the checkpoint frame of one descent.
    pub fn push(&mut self, frame: F) {
        if self.frames.len() == self.frames.capacity() {
            self.allocs += 1;
        }
        self.frames.push(frame);
    }

    /// Pops the innermost frame for backtracking. Panics on underflow —
    /// a descend/undo imbalance is a protocol bug, never valid state.
    pub fn pop(&mut self) -> F {
        self.frames
            .pop()
            .expect("frame log underflow: undo without a matching descend")
    }

    /// Current descent depth.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no descent is active.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// This log's scratch accounting.
    pub fn usage(&self) -> ScratchUsage {
        ScratchUsage {
            allocs: self.allocs,
            bytes: (self.frames.capacity() * std::mem::size_of::<F>()) as u64,
        }
    }
}

/// A bounded FIFO over checkpoint frames — the steal pool's pending
/// deque.
///
/// Where [`FrameLog`] holds the checkpoints of one worker's *own*
/// descent (strictly LIFO, popped on backtrack), a `BoundedFrameDeque`
/// holds frames a worker has *published* for someone else: each entry is
/// a self-contained subtree checkpoint
/// ([`SubtreeRecord`](crate::problem::SubtreeRecord) plus routing
/// metadata) that any idle worker may claim and replay. The bound is
/// load-bearing twice over — it caps the memory pinned by published
/// checkpoints, and it makes hand-off refusal an explicit, countable
/// event ([`EnumStats::steal_failures`](crate::stats::EnumStats::steal_failures))
/// instead of unbounded queue growth.
#[derive(Clone, Debug)]
pub struct BoundedFrameDeque<F> {
    frames: std::collections::VecDeque<F>,
    cap: usize,
    rejected: u64,
}

impl<F> BoundedFrameDeque<F> {
    /// An empty deque admitting at most `cap` pending frames (`cap` is
    /// clamped to at least 1 so a deque can always make progress).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        BoundedFrameDeque {
            frames: std::collections::VecDeque::with_capacity(cap),
            cap,
            rejected: 0,
        }
    }

    /// Publishes a frame, or hands it back (counting the rejection) when
    /// the deque is at capacity.
    pub fn offer(&mut self, frame: F) -> Result<(), F> {
        if self.frames.len() >= self.cap {
            self.rejected += 1;
            return Err(frame);
        }
        self.frames.push_back(frame);
        Ok(())
    }

    /// Claims the oldest pending frame (FIFO: oldest frames sit highest
    /// in the enumeration tree, so claiming them first hands out the
    /// largest remaining subtrees).
    pub fn take_front(&mut self) -> Option<F> {
        self.frames.pop_front()
    }

    /// Claims the oldest pending frame satisfying `pred` — the pinned
    /// claim path of the scripted steal scheduler, and the coordinator's
    /// claim-by-task-id lookup.
    pub fn take_first(&mut self, pred: impl FnMut(&F) -> bool) -> Option<F> {
        let at = self.frames.iter().position(pred)?;
        self.frames.remove(at)
    }

    /// Number of pending frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame is pending.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the deque is at capacity (the next [`Self::offer`] would
    /// be rejected).
    pub fn is_full(&self) -> bool {
        self.frames.len() >= self.cap
    }

    /// Offers rejected at capacity since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// Scratch accounting: buffer-growth events plus capacity footprint.
/// Summed across a problem's scratch structures by `seal_stats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScratchUsage {
    /// Buffer-growth (fresh heap) events.
    pub allocs: u64,
    /// Bytes of owned buffer capacity.
    pub bytes: u64,
}

impl ScratchUsage {
    /// A usage record from raw counters.
    pub fn new(allocs: u64, bytes: u64) -> Self {
        ScratchUsage { allocs, bytes }
    }
}

impl std::ops::Add for ScratchUsage {
    type Output = ScratchUsage;

    fn add(self, rhs: ScratchUsage) -> ScratchUsage {
        ScratchUsage {
            allocs: self.allocs + rhs.allocs,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for ScratchUsage {
    fn add_assign(&mut self, rhs: ScratchUsage) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ScratchUsage {
    fn sum<I: Iterator<Item = ScratchUsage>>(iter: I) -> ScratchUsage {
        iter.fold(ScratchUsage::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_undo_round_trip() {
        let mut trail = Trail::new();
        let mut mask = vec![false; 8];
        let outer = trail.mark();
        trail.set(&mut mask, 1);
        trail.set(&mut mask, 5);
        let inner = trail.mark();
        trail.set(&mut mask, 3);
        assert_eq!(
            mask,
            vec![false, true, false, true, false, true, false, false]
        );
        trail.undo_to(&mut mask, inner);
        assert!(!mask[3]);
        assert!(mask[1] && mask[5], "outer frame untouched");
        trail.undo_to(&mut mask, outer);
        assert!(mask.iter().all(|&b| !b));
        assert!(trail.is_empty());
    }

    #[test]
    fn preallocated_trail_reports_zero_allocs() {
        let mut trail = Trail::new();
        trail.preallocate(16);
        let mut mask = vec![false; 16];
        let mark = trail.mark();
        for i in 0..16 {
            trail.set(&mut mask, i);
        }
        trail.undo_to(&mut mask, mark);
        assert_eq!(trail.usage().allocs, 0);
    }

    #[test]
    fn frame_log_is_lifo_and_tracks_allocs() {
        #[derive(Debug, PartialEq)]
        struct Frame {
            trail: usize,
            span: usize,
        }
        let mut log: FrameLog<Frame> = FrameLog::new();
        log.preallocate(2);
        log.push(Frame { trail: 1, span: 10 });
        log.push(Frame { trail: 2, span: 20 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.pop(), Frame { trail: 2, span: 20 });
        assert_eq!(log.pop(), Frame { trail: 1, span: 10 });
        assert!(log.is_empty());
        assert_eq!(log.usage().allocs, 0, "preallocated: no growth events");
        assert!(log.usage().bytes > 0);
    }

    #[test]
    #[should_panic(expected = "frame log underflow")]
    fn frame_log_pop_underflow_panics() {
        let mut log: FrameLog<u32> = FrameLog::new();
        let _ = log.pop();
    }

    #[test]
    fn bounded_deque_is_fifo_and_rejects_at_capacity() {
        let mut q: BoundedFrameDeque<u32> = BoundedFrameDeque::new(2);
        assert!(q.is_empty() && !q.is_full());
        assert_eq!(q.offer(10), Ok(()));
        assert_eq!(q.offer(20), Ok(()));
        assert!(q.is_full());
        assert_eq!(q.offer(30), Err(30), "at capacity: the frame comes back");
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.take_front(), Some(10), "FIFO: oldest frame first");
        assert_eq!(q.offer(30), Ok(()), "claiming frees a slot");
        assert_eq!(q.take_front(), Some(20));
        assert_eq!(q.take_front(), Some(30));
        assert_eq!(q.take_front(), None);
        assert_eq!(q.rejected(), 1, "rejections are cumulative");
    }

    #[test]
    fn bounded_deque_filtered_claim_preserves_order() {
        let mut q: BoundedFrameDeque<u32> = BoundedFrameDeque::new(8);
        for f in [1u32, 2, 3, 4] {
            q.offer(f).unwrap();
        }
        assert_eq!(q.take_first(|&f| f % 2 == 0), Some(2), "oldest match");
        assert_eq!(q.take_first(|&f| f > 100), None);
        assert_eq!(q.take_front(), Some(1), "non-matching frames keep order");
        assert_eq!(q.take_front(), Some(3));
        assert_eq!(q.take_front(), Some(4));
    }

    #[test]
    fn bounded_deque_clamps_zero_capacity() {
        let mut q: BoundedFrameDeque<u32> = BoundedFrameDeque::new(0);
        assert_eq!(q.offer(7), Ok(()), "cap clamps to 1");
        assert_eq!(q.offer(8), Err(8));
    }

    #[test]
    fn usage_sums() {
        let a = ScratchUsage::new(1, 100);
        let b = ScratchUsage::new(2, 50);
        assert_eq!(a + b, ScratchUsage::new(3, 150));
        let total: ScratchUsage = [a, b, a].into_iter().sum();
        assert_eq!(total, ScratchUsage::new(4, 250));
    }
}
