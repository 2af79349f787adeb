//! Order-sensitive digests of solution streams, used to check that two
//! ways of running the same query deliver byte-identical streams.

use steiner_graph::{ArcId, EdgeId};

/// An item with a dense numeric id.
pub trait ItemId: Copy {
    /// The id as a number.
    fn id(self) -> u64;
}

impl ItemId for EdgeId {
    fn id(self) -> u64 {
        self.index() as u64
    }
}

impl ItemId for ArcId {
    fn id(self) -> u64 {
        self.index() as u64
    }
}

/// FNV-1a over the solutions of a stream, each terminated by a separator,
/// so both the solutions and their order are covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    /// Solutions folded in so far.
    pub solutions: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            solutions: 0,
        }
    }
}

impl Digest {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one solution into the digest.
    pub fn add<I: ItemId>(&mut self, items: &[I]) {
        for &item in items {
            self.fold(item.id());
        }
        self.fold(u64::MAX);
        self.solutions += 1;
    }
}
