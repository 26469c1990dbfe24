//! Security flow label allocation (§5.3, "Generating the Security Flow
//! Label").
//!
//! The essential requirement is that the same *sfl* never be assigned to
//! two different flows: a large (≥64-bit) counter with a randomised initial
//! value suffices. Randomising the start prevents attackers exploiting sfl
//! reuse "by continuously resetting the protocol subsystem". The sfl need
//! not be random — it feeds a one-way pseudorandom hash.

/// Allocates unique 64-bit security flow labels.
#[derive(Debug, Clone)]
pub struct SflAllocator {
    next: u64,
    stride: u64,
    issued: u64,
}

impl SflAllocator {
    /// Create with a randomised initial counter value (caller supplies the
    /// randomness, e.g. from OS entropy at subsystem initialisation).
    pub fn new(initial: u64) -> Self {
        Self::with_stride(initial, 1)
    }

    /// Create an allocator that steps by `stride` instead of 1. A sharded
    /// endpoint gives shard *i* of *N* the allocator
    /// `with_stride(base * N + i, N)`: every sfl it issues is ≡ *i*
    /// (mod *N*), so `sfl % N` recovers the owning shard and the per-shard
    /// streams are disjoint (uniqueness is preserved across shards).
    ///
    /// # Panics
    /// Panics if `stride` is zero (the allocator would reissue one label).
    pub fn with_stride(initial: u64, stride: u64) -> Self {
        assert!(stride > 0, "sfl stride must be nonzero");
        SflAllocator {
            next: initial,
            stride,
            issued: 0,
        }
    }

    /// Allocate the next sfl.
    ///
    /// The pair-based master key is assumed to change before the counter
    /// wraps (§5.3); with 64 bits and a new flow every microsecond that is
    /// over half a million years, so wrapping simply continues the count.
    pub fn next_sfl(&mut self) -> u64 {
        let sfl = self.next;
        self.next = self.next.wrapping_add(self.stride);
        self.issued += 1;
        sfl
    }

    /// Number of labels issued since initialisation.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_unique() {
        let mut a = SflAllocator::new(100);
        let labels: Vec<u64> = (0..5).map(|_| a.next_sfl()).collect();
        assert_eq!(labels, vec![100, 101, 102, 103, 104]);
        assert_eq!(a.issued(), 5);
    }

    #[test]
    fn wraparound_continues() {
        let mut a = SflAllocator::new(u64::MAX);
        assert_eq!(a.next_sfl(), u64::MAX);
        assert_eq!(a.next_sfl(), 0);
        assert_eq!(a.issued(), 2);
    }

    #[test]
    fn distinct_initials_distinct_streams() {
        let mut a = SflAllocator::new(7);
        let mut b = SflAllocator::new(8);
        assert_ne!(a.next_sfl(), b.next_sfl());
    }

    #[test]
    fn strided_streams_are_disjoint_and_congruent() {
        // 4 shards: shard i issues sfls ≡ i (mod 4), streams never meet.
        let n = 4u64;
        let base = 0x1234_5678_9ABC_DEF0u64;
        let mut all = std::collections::HashSet::new();
        for i in 0..n {
            let mut a = SflAllocator::with_stride(base.wrapping_mul(n).wrapping_add(i), n);
            for _ in 0..100 {
                let sfl = a.next_sfl();
                assert_eq!(sfl % n, i, "shard congruence");
                assert!(all.insert(sfl), "cross-shard uniqueness");
            }
            assert_eq!(a.issued(), 100);
        }
    }

    #[test]
    fn strided_wraparound_continues() {
        let mut a = SflAllocator::with_stride(u64::MAX - 1, 4);
        assert_eq!(a.next_sfl(), u64::MAX - 1);
        assert_eq!(a.next_sfl(), 2); // wraps past u64::MAX
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_stride_panics() {
        let _ = SflAllocator::with_stride(0, 0);
    }
}
