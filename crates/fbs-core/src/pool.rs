//! Reusable output-buffer pool for the zero-copy seal/open fast path.
//!
//! `seal_into`/`open_into` write into caller-supplied `Vec<u8>`s; this pool
//! is where those vectors come from and return to, so steady-state sealing
//! allocates nothing per datagram. Buffers are plain `Vec<u8>` — taking one
//! out hands the caller full ownership, so a buffer that escapes (e.g. is
//! transmitted and never returned) is merely an allocation, never a leak of
//! pool bookkeeping.

use fbs_obs::{Counter, CounterBlock};
use std::sync::Arc;

/// Default number of buffers kept on the freelist.
pub const DEFAULT_MAX_POOLED: usize = 32;

/// Default capacity pre-reserved for fresh buffers: a full header plus a
/// typical MTU-sized body, so the first seal into a new buffer does not
/// regrow it.
pub const DEFAULT_BUF_CAPACITY: usize = 2048;

/// Pool counters: a view over the `pool.*` cells of the pool's counter
/// block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the freelist.
    pub hits: u64,
    /// Takes that allocated a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the freelist.
    pub returns: u64,
    /// Returned buffers dropped because the freelist was full.
    pub discards: u64,
}

impl PoolStats {
    /// Read the view off `counts`.
    pub(crate) fn read(counts: &CounterBlock) -> Self {
        PoolStats {
            hits: counts.counter(Counter::PoolHits),
            misses: counts.counter(Counter::PoolMisses),
            returns: counts.counter(Counter::PoolReturns),
            discards: counts.counter(Counter::PoolDiscards),
        }
    }
}

/// A freelist of recycled `Vec<u8>` output buffers.
///
/// Not thread-safe by itself — a pool never crosses a thread (the
/// fbs-ip datapath runs on the caller's thread and uses the caller's
/// pool), which keeps `take`/`put` free of any synchronisation. Its
/// owner is therefore the one writer of its counter block.
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_pooled: usize,
    buf_capacity: usize,
    /// Where the `pool.*` counts go: a private block by default, or
    /// the owner's ([`with_counts`](Self::with_counts)).
    counts: Arc<CounterBlock>,
}

impl BufferPool {
    /// A pool with the default size limits.
    pub fn new() -> Self {
        BufferPool::with_limits(DEFAULT_MAX_POOLED, DEFAULT_BUF_CAPACITY)
    }

    /// A pool keeping at most `max_pooled` buffers, pre-reserving
    /// `buf_capacity` bytes in fresh ones.
    pub fn with_limits(max_pooled: usize, buf_capacity: usize) -> Self {
        BufferPool {
            free: Vec::with_capacity(max_pooled),
            max_pooled,
            buf_capacity,
            counts: Arc::new(CounterBlock::new()),
        }
    }

    /// Count into `counts` (builder style, before the first take): the
    /// block of the component that owns the pool, so the pool ledger
    /// (`takes == returns + discards` at quiesce) is checkable from a
    /// snapshot of that block alone.
    pub fn with_counts(mut self, counts: Arc<CounterBlock>) -> Self {
        self.counts = counts;
        self
    }

    /// Take a buffer: recycled if available, freshly allocated otherwise.
    /// The buffer is always empty (`len == 0`).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.counts.incr(Counter::PoolHits);
                buf
            }
            None => {
                self.counts.incr(Counter::PoolMisses);
                Vec::with_capacity(self.buf_capacity)
            }
        }
    }

    /// Return a buffer to the freelist (dropped if the freelist is full).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_pooled {
            buf.clear();
            self.free.push(buf);
            self.counts.incr(Counter::PoolReturns);
        } else {
            self.counts.incr(Counter::PoolDiscards);
        }
    }

    /// Drain every buffer in `bufs` back into the freelist, keeping
    /// `bufs`' capacity for reuse. The batch mirror of [`Self::put`].
    pub fn put_all(&mut self, bufs: &mut Vec<Vec<u8>>) {
        for buf in bufs.drain(..) {
            self.put(buf);
        }
    }

    /// Buffers currently on the freelist.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Pool counters so far (of every pool sharing the block).
    pub fn stats(&self) -> PoolStats {
        PoolStats::read(&self.counts)
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_misses_then_hits_after_put() {
        let mut pool = BufferPool::with_limits(2, 64);
        let a = pool.take();
        assert_eq!(a.capacity(), 64);
        assert_eq!(
            pool.stats(),
            PoolStats {
                misses: 1,
                ..Default::default()
            }
        );

        pool.put(a);
        let b = pool.take();
        assert!(b.capacity() >= 64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
    }

    #[test]
    fn returned_buffers_come_back_empty() {
        let mut pool = BufferPool::new();
        let mut a = pool.take();
        a.extend_from_slice(b"leftover plaintext");
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty());
    }

    #[test]
    fn freelist_is_bounded() {
        let mut pool = BufferPool::with_limits(1, 16);
        let a = pool.take();
        let b = pool.take();
        pool.put(a);
        pool.put(b); // freelist full: discarded
        assert_eq!(pool.idle(), 1);
        let s = pool.stats();
        assert_eq!((s.returns, s.discards), (1, 1));
    }

    #[test]
    fn put_all_balances_the_ledger() {
        let mut pool = BufferPool::with_limits(8, 64);
        let mut bufs: Vec<Vec<u8>> = (0..3).map(|_| pool.take()).collect();
        pool.put_all(&mut bufs);
        assert!(bufs.is_empty());
        let s = pool.stats();
        assert_eq!((s.misses, s.returns), (3, 3));
        let _again = [pool.take(), pool.take()];
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn counts_go_to_the_owners_block() {
        let block = Arc::new(CounterBlock::new());
        let mut pool = BufferPool::new().with_counts(Arc::clone(&block));
        let a = pool.take();
        pool.put(a);
        let _b = pool.take();
        assert_eq!(PoolStats::read(&block), pool.stats());
        assert_eq!(block.counter(Counter::PoolMisses), 1);
        assert_eq!(block.counter(Counter::PoolHits), 1);
        assert_eq!(block.counter(Counter::PoolReturns), 1);
    }
}
