//! A directory of fixed-size chunks, each allocated by its first write.
//!
//! Every FBS table is soft state (§5.3) sized for the flows a host
//! *might* see, while Fig. 12 shows a host keeps only tens of them
//! active. A table stored as a [`ChunkDir`] allocates its directory (one
//! 8-byte entry per chunk) on its first write and a chunk only when
//! something is first written into it; a missing chunk, and every chunk
//! of a directory never written, reads as empty, so its memory tracks
//! the slots flows touched, not the configured size. The receive flow
//! key caches ([`SoftCache`](crate::SoftCache)) and the flow state table
//! ([`Fst`](crate::Fst)) both store their slots this way.

/// Slots per chunk of every table stored as a [`ChunkDir`]. A chunk
/// holds whole sets of any power-of-two associativity up to 16 (every
/// one in use is 1, 2, 4 or 8), and is small enough that a table a few
/// flows touch stays small: an RFKC chunk is 16 control bytes beside 16
/// entries (400 B in the hooks), a combined-table chunk 16 × 40 B =
/// 640 B.
pub const CHUNK_SLOTS: usize = 16;

/// `len` chunks of type `C`, none allocated until written, and the
/// directory itself not until the first write.
pub struct ChunkDir<C> {
    len: usize,
    /// Empty until the first write, then `len` entries.
    chunks: Vec<Option<Box<C>>>,
}

impl<C> ChunkDir<C> {
    /// A directory of `len` chunks, all missing. Allocates nothing.
    pub fn new(len: usize) -> Self {
        ChunkDir {
            len,
            chunks: Vec::new(),
        }
    }

    /// Chunk `i`, or `None` while it is missing.
    pub fn get(&self, i: usize) -> Option<&C> {
        debug_assert!(i < self.len);
        self.chunks.get(i)?.as_deref()
    }

    /// Chunk `i` for writing in place, or `None` while it is missing.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut C> {
        debug_assert!(i < self.len);
        self.chunks.get_mut(i)?.as_deref_mut()
    }

    /// Chunk `i` for writing, allocated from `empty` if it is missing
    /// (and the directory with it, on the first write).
    pub fn get_or_alloc(&mut self, i: usize, empty: impl FnOnce() -> C) -> &mut C {
        if self.get(i).is_none() {
            self.alloc(i, empty);
        }
        self.chunks[i].as_deref_mut().expect("allocated above")
    }

    /// Allocate missing chunk `i`, and the directory if this is the
    /// first write. Out of line: a chunk is built on the stack before it
    /// is boxed, and a caller that inlined that would pay for a
    /// chunk-sized stack frame on every write.
    #[cold]
    #[inline(never)]
    fn alloc(&mut self, i: usize, empty: impl FnOnce() -> C) {
        assert!(i < self.len, "chunk {i} of {}", self.len);
        if self.chunks.is_empty() {
            self.chunks = (0..self.len).map(|_| None).collect();
        }
        self.chunks[i] = Some(Box::new(empty()));
    }

    /// The allocated chunks, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.chunks.iter().flatten().map(|c| &**c)
    }

    /// Free every chunk; a directory once written keeps its entries.
    pub fn clear(&mut self) {
        self.chunks.fill_with(|| None);
    }

    /// Chunks allocated so far.
    pub fn owned(&self) -> usize {
        self.chunks.iter().flatten().count()
    }

    /// Heap bytes held: the directory, once written, plus every
    /// allocated chunk.
    pub fn heap_bytes(&self) -> u64 {
        (self.chunks.capacity() * std::mem::size_of::<Option<Box<C>>>()
            + self.owned() * std::mem::size_of::<C>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_exists_once_written_and_until_cleared() {
        let mut d: ChunkDir<[u32; 4]> = ChunkDir::new(3);
        // Nothing written: no directory either.
        assert_eq!((d.owned(), d.heap_bytes()), (0, 0));
        assert!(d.get(1).is_none() && d.get_mut(1).is_none());
        assert_eq!(d.iter().count(), 0);
        d.clear();
        assert_eq!(d.heap_bytes(), 0);
        d.get_or_alloc(1, || [0; 4])[2] = 7;
        // A present chunk is not re-made.
        d.get_or_alloc(1, || unreachable!())[3] = 8;
        assert_eq!(d.get(1), Some(&[0, 0, 7, 8]));
        assert!(d.get(0).is_none() && d.get(2).is_none());
        assert_eq!(d.iter().collect::<Vec<_>>(), [&[0, 0, 7, 8]]);
        assert_eq!((d.owned(), d.heap_bytes()), (1, 24 + 16));
        d.clear();
        assert_eq!((d.owned(), d.heap_bytes()), (0, 24));
        assert!(d.get(1).is_none());
    }
}
