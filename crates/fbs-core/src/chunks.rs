//! A directory of fixed-size chunks, each allocated by its first write.
//!
//! Every FBS table is soft state (§5.3) sized for the flows a host
//! *might* see, while Fig. 12 shows a host keeps only tens of them
//! active. A table stored as a [`ChunkDir`] pays one 8-byte directory
//! entry per chunk up front and allocates a chunk only when something
//! is first written into it; a missing chunk reads as empty, so its
//! memory tracks the slots flows touched, not the configured size. The
//! receive flow key caches ([`SoftCache`](crate::SoftCache)) and the
//! flow state table ([`Fst`](crate::Fst)) both store their slots this
//! way.

/// Slots per chunk of every table stored as a [`ChunkDir`]. A chunk
/// holds whole sets of any power-of-two associativity up to 64 and stays
/// under 4 KiB: an RFKC chunk is 64 control bytes beside 64 entries
/// (2,112 B in the hooks), a combined-table chunk 64 × 40 B = 2,560 B.
pub const CHUNK_SLOTS: usize = 64;

/// `len` chunks of type `C`, none allocated until written.
pub struct ChunkDir<C> {
    chunks: Vec<Option<Box<C>>>,
}

impl<C> ChunkDir<C> {
    /// A directory of `len` chunks, all missing.
    pub fn new(len: usize) -> Self {
        ChunkDir {
            chunks: (0..len).map(|_| None).collect(),
        }
    }

    /// Chunk `i`, or `None` while it is missing.
    pub fn get(&self, i: usize) -> Option<&C> {
        self.chunks[i].as_deref()
    }

    /// Chunk `i` for writing in place, or `None` while it is missing.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut C> {
        self.chunks[i].as_deref_mut()
    }

    /// Chunk `i` for writing, allocated from `empty` if it is missing.
    pub fn get_or_alloc(&mut self, i: usize, empty: impl FnOnce() -> C) -> &mut C {
        let chunk = &mut self.chunks[i];
        if chunk.is_none() {
            alloc(chunk, empty);
        }
        chunk.as_deref_mut().expect("allocated above")
    }

    /// The allocated chunks, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.chunks.iter().flatten().map(|c| &**c)
    }

    /// Free every chunk; the directory keeps its entries.
    pub fn clear(&mut self) {
        self.chunks.fill_with(|| None);
    }

    /// Chunks allocated so far.
    pub fn owned(&self) -> usize {
        self.chunks.iter().flatten().count()
    }

    /// Heap bytes held: the directory plus every allocated chunk.
    pub fn heap_bytes(&self) -> u64 {
        (self.chunks.capacity() * std::mem::size_of::<Option<Box<C>>>()
            + self.owned() * std::mem::size_of::<C>()) as u64
    }
}

/// Allocate a missing chunk. Out of line: a chunk is built on the
/// stack before it is boxed, and a caller that inlined that would pay
/// for a chunk-sized stack frame on every write.
#[cold]
#[inline(never)]
fn alloc<C>(chunk: &mut Option<Box<C>>, empty: impl FnOnce() -> C) {
    *chunk = Some(Box::new(empty()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_exists_once_written_and_until_cleared() {
        let mut d: ChunkDir<[u32; 4]> = ChunkDir::new(3);
        assert_eq!((d.owned(), d.heap_bytes()), (0, 24));
        assert!(d.get(1).is_none() && d.get_mut(1).is_none());
        d.get_or_alloc(1, || [0; 4])[2] = 7;
        // A present chunk is not re-made.
        d.get_or_alloc(1, || unreachable!())[3] = 8;
        assert_eq!(d.get(1), Some(&[0, 0, 7, 8]));
        assert_eq!(d.iter().collect::<Vec<_>>(), [&[0, 0, 7, 8]]);
        assert_eq!((d.owned(), d.heap_bytes()), (1, 24 + 16));
        d.clear();
        assert_eq!((d.owned(), d.heap_bytes()), (0, 24));
        assert!(d.get(1).is_none());
    }
}
