//! Batch-amortized MAC verification (MABS-style, PAPERS.md arxiv
//! 1311.6001) with bisection fallback.
//!
//! A [`BatchVerifier`] accumulates (computed, shipped) tag pairs and
//! resolves them with ONE fold over the XOR-differences: a clean batch
//! costs a single branch instead of one comparison-and-branch per tag.
//! The datapath does not use it — it verifies each datagram's MAC inline
//! with `mac_eq` (DESIGN_HISTORY.md, "Batch-amortised
//! authentication"). `benchmark/src/replay.rs` is now its only caller,
//! which pins it until ROADMAP item 1(a) deletes both.
//!
//! On a dirty fold the verifier bisects: ranges whose fold is clean are
//! accepted wholesale, dirty ranges split until single datagrams are
//! isolated. One corrupt datagram in a sub-batch of `n` degrades to
//! `O(log n)` range folds — scalar verification of the guilty datagram —
//! instead of rejecting the whole batch.
//!
//! All comparisons remain constant-time in the tag bytes (XOR-OR folds,
//! same discipline as `mac_eq`); only match/mismatch topology is revealed,
//! exactly as with per-datagram comparison.

use fbs_crypto::mac::MAX_MAC_SIZE;

/// One deferred tag comparison.
#[derive(Clone, Copy)]
struct TagPair {
    /// Locally computed (truncated) MAC.
    computed: [u8; MAX_MAC_SIZE],
    /// Shipped MAC, copied out of the wire buffer (which is recycled
    /// before resolution).
    shipped: [u8; MAX_MAC_SIZE],
    /// Compared length (the truncated MAC length).
    len: usize,
    /// Lengths disagreed at push time: fails regardless of bytes.
    len_mismatch: bool,
    /// Caller correlation token (e.g. sub-batch item index).
    token: usize,
}

impl TagPair {
    /// OR-fold of the XOR difference: zero iff the tags match.
    fn diff(&self) -> u8 {
        let mut d = self.len_mismatch as u8;
        for i in 0..self.len {
            d |= self.computed[i] ^ self.shipped[i];
        }
        d
    }
}

/// Counters from one [`BatchVerifier::resolve`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Datagrams covered by this resolution.
    pub checked: usize,
    /// Range folds performed (1 when the batch was clean).
    pub folds: u64,
    /// Bisection steps taken (0 when the batch was clean).
    pub bisections: u64,
    /// Datagrams that failed verification.
    pub rejected: usize,
}

/// Reusable accumulator for deferred tag comparisons, `resolve`d at batch
/// boundaries; the backing storage is retained across batches, so
/// steady-state operation allocates nothing.
#[derive(Default)]
pub struct BatchVerifier {
    pending: Vec<TagPair>,
}

impl BatchVerifier {
    /// An empty verifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of deferred comparisons.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Defer one comparison. `computed` is the locally recomputed
    /// (truncated) tag, `shipped` the tag from the wire; `token` is echoed
    /// back for failures at resolution.
    pub fn push(&mut self, computed: &[u8], shipped: &[u8], token: usize) {
        debug_assert!(computed.len() <= MAX_MAC_SIZE && shipped.len() <= MAX_MAC_SIZE);
        let mut pair = TagPair {
            computed: [0; MAX_MAC_SIZE],
            shipped: [0; MAX_MAC_SIZE],
            len: computed.len().min(MAX_MAC_SIZE),
            len_mismatch: computed.len() != shipped.len(),
            token,
        };
        pair.computed[..pair.len].copy_from_slice(&computed[..pair.len]);
        let ship_n = shipped.len().min(MAX_MAC_SIZE);
        pair.shipped[..ship_n].copy_from_slice(&shipped[..ship_n]);
        self.pending.push(pair);
    }

    /// OR-fold over a range of pending pairs: zero iff every tag matches.
    fn fold(&self, lo: usize, hi: usize) -> u8 {
        let mut d = 0u8;
        for pair in &self.pending[lo..hi] {
            d |= pair.diff();
        }
        d
    }

    /// Resolve every pending comparison: tokens of failed datagrams are
    /// appended to `failed` (left untouched when the batch is clean).
    /// Pending state is cleared; the verifier is immediately reusable.
    pub fn resolve(&mut self, failed: &mut Vec<usize>) -> ResolveStats {
        let n = self.pending.len();
        let mut stats = ResolveStats {
            checked: n,
            ..ResolveStats::default()
        };
        if n == 0 {
            return stats;
        }
        stats.folds = 1;
        if self.fold(0, n) == 0 {
            // The common case: one fold, one branch, whole batch accepted.
            self.pending.clear();
            return stats;
        }
        // Bisection: split dirty ranges until single datagrams isolate.
        let mut ranges = vec![(0usize, n)];
        while let Some((lo, hi)) = ranges.pop() {
            if hi - lo == 1 {
                if self.pending[lo].diff() != 0 {
                    failed.push(self.pending[lo].token);
                    stats.rejected += 1;
                }
                continue;
            }
            stats.bisections += 1;
            let mid = lo + (hi - lo) / 2;
            for (a, b) in [(lo, mid), (mid, hi)] {
                stats.folds += 1;
                if self.fold(a, b) != 0 {
                    ranges.push((a, b));
                }
            }
        }
        self.pending.clear();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(b: u8) -> [u8; 16] {
        [b; 16]
    }

    #[test]
    fn clean_batch_is_one_fold() {
        let mut v = BatchVerifier::new();
        for i in 0..64 {
            v.push(&tag(i as u8), &tag(i as u8), i);
        }
        let mut failed = Vec::new();
        let stats = v.resolve(&mut failed);
        assert!(failed.is_empty());
        assert_eq!(stats.checked, 64);
        assert_eq!(stats.folds, 1);
        assert_eq!(stats.bisections, 0);
        assert_eq!(stats.rejected, 0);
        assert!(v.is_empty());
    }

    #[test]
    fn single_corrupt_datagram_isolated() {
        let mut v = BatchVerifier::new();
        for i in 0..33 {
            let shipped = if i == 17 { tag(0xFF) } else { tag(i as u8) };
            v.push(&tag(i as u8), &shipped, i);
        }
        let mut failed = Vec::new();
        let stats = v.resolve(&mut failed);
        assert_eq!(failed, vec![17]);
        assert_eq!(stats.rejected, 1);
        assert!(stats.bisections > 0);
        // Bisection is logarithmic, not linear: far fewer folds than a
        // scalar sweep of 33 comparisons would branch on.
        assert!(stats.folds <= 2 * 33_u64.ilog2() as u64 + 3, "{stats:?}");
    }

    #[test]
    fn multiple_corrupt_datagrams_all_isolated() {
        let mut v = BatchVerifier::new();
        let bad = [0usize, 5, 6, 31];
        for i in 0..32 {
            let shipped = if bad.contains(&i) {
                tag(0xEE)
            } else {
                tag(i as u8)
            };
            v.push(&tag(i as u8), &shipped, i);
        }
        let mut failed = Vec::new();
        let stats = v.resolve(&mut failed);
        failed.sort_unstable();
        assert_eq!(failed, bad.to_vec());
        assert_eq!(stats.rejected, 4);
    }

    #[test]
    fn all_corrupt_rejects_all() {
        let mut v = BatchVerifier::new();
        for i in 0..7 {
            v.push(&tag(1), &tag(2), i);
        }
        let mut failed = Vec::new();
        let stats = v.resolve(&mut failed);
        assert_eq!(failed.len(), 7);
        assert_eq!(stats.rejected, 7);
    }

    #[test]
    fn length_mismatch_fails() {
        let mut v = BatchVerifier::new();
        // Empty shipped MAC vs non-empty computed: must NOT vacuously pass.
        v.push(&tag(0)[..8], &[], 0);
        // Truncated shipped MAC with matching prefix: still a mismatch.
        v.push(&tag(3)[..8], &tag(3)[..4], 1);
        let mut failed = Vec::new();
        v.resolve(&mut failed);
        failed.sort_unstable();
        assert_eq!(failed, vec![0, 1]);
    }

    #[test]
    fn reusable_after_resolution() {
        let mut v = BatchVerifier::new();
        v.push(&tag(1), &tag(2), 9);
        let mut failed = Vec::new();
        v.resolve(&mut failed);
        assert_eq!(failed, vec![9]);
        failed.clear();
        v.push(&tag(4), &tag(4), 10);
        let stats = v.resolve(&mut failed);
        assert!(failed.is_empty());
        assert_eq!(stats.checked, 1);
    }

    #[test]
    fn empty_resolution_is_free() {
        let mut v = BatchVerifier::new();
        let mut failed = Vec::new();
        let stats = v.resolve(&mut failed);
        assert_eq!(stats, ResolveStats::default());
    }
}
