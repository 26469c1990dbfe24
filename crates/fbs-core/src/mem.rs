//! Per-shard memory budgets for the soft-state tables.
//!
//! Every FBS soft-state structure — the TFKC/RFKC/MKC key caches, the
//! FAM's flow state table — holds state that can be discarded and
//! recomputed, so the correct response to memory pressure is *eviction*,
//! never allocation failure. A [`MemoryBudget`] gives one shard (or one
//! endpoint) a typed byte ledger: each table charges its resident bytes
//! under a [`BudgetKind`], and a table that is about to allocate past the
//! limit evicts its own entries first (budget-driven eviction before
//! allocation). Budgets are worker-owned in the sharded runtime — each
//! worker enforces the budget of the shards it owns with no cross-shard
//! coordination — but the counters are atomics behind an `Arc`, so a
//! metrics scrape or health probe on another thread can read usage
//! without touching the owning worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which soft-state table a charge belongs to. The ledger is typed so
/// `mem.shard.<i>.*` gauges can say *what* is resident, not just how
/// much.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// Transmit-side flow key cache entries.
    Tfkc,
    /// Receive-side flow key cache entries.
    Rfkc,
    /// Master key cache entries.
    Mkc,
    /// Flow attribute map state (FST slots and history).
    Fam,
}

impl BudgetKind {
    /// All kinds, in gauge order.
    pub const ALL: [BudgetKind; 4] = [
        BudgetKind::Tfkc,
        BudgetKind::Rfkc,
        BudgetKind::Mkc,
        BudgetKind::Fam,
    ];

    /// Lower-case name used in gauge keys.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Tfkc => "tfkc",
            BudgetKind::Rfkc => "rfkc",
            BudgetKind::Mkc => "mkc",
            BudgetKind::Fam => "fam",
        }
    }

    fn index(self) -> usize {
        match self {
            BudgetKind::Tfkc => 0,
            BudgetKind::Rfkc => 1,
            BudgetKind::Mkc => 2,
            BudgetKind::Fam => 3,
        }
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Byte ceiling; 0 means unbounded (accounting only, never evicts).
    limit_bytes: u64,
    /// Resident bytes per [`BudgetKind`], `BudgetKind::ALL` order.
    used: [AtomicU64; 4],
    /// Times a charge found the budget full and forced eviction (or, with
    /// nothing left to evict, overshot). Monotone; feeds the
    /// `memory_budget_exceeded` health condition.
    exceeded: AtomicU64,
}

/// A point-in-time view of one budget's ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Resident bytes charged under [`BudgetKind::Tfkc`].
    pub tfkc_bytes: u64,
    /// Resident bytes charged under [`BudgetKind::Rfkc`].
    pub rfkc_bytes: u64,
    /// Resident bytes charged under [`BudgetKind::Mkc`].
    pub mkc_bytes: u64,
    /// Resident bytes charged under [`BudgetKind::Fam`].
    pub fam_bytes: u64,
    /// Byte ceiling (0 = unbounded).
    pub limit_bytes: u64,
    /// Charges that hit the ceiling.
    pub exceeded_events: u64,
}

impl BudgetSnapshot {
    /// Total resident bytes across every kind.
    pub fn used_bytes(&self) -> u64 {
        self.tfkc_bytes + self.rfkc_bytes + self.mkc_bytes + self.fam_bytes
    }

    /// Fold this ledger into a snapshot as shard `shard`: the
    /// `mem.shard.<i>.*` rows, and its key-cache bytes added to
    /// `cache.<kind>.resident_bytes`, so a scrape that folds every
    /// shard's ledger reads each cache kind's residency as their sum.
    /// The one producer of both key families: a registry derives them
    /// through this at scrape time and keeps no copy.
    pub fn contribute(&self, shard: usize, snap: &mut fbs_obs::MetricsSnapshot) {
        snap.add(&format!("mem.shard.{shard}.tfkc_bytes"), self.tfkc_bytes);
        snap.add(&format!("mem.shard.{shard}.rfkc_bytes"), self.rfkc_bytes);
        snap.add(&format!("mem.shard.{shard}.mkc_bytes"), self.mkc_bytes);
        snap.add(&format!("mem.shard.{shard}.fam_bytes"), self.fam_bytes);
        snap.add(&format!("mem.shard.{shard}.used_bytes"), self.used_bytes());
        snap.add(&format!("mem.shard.{shard}.limit_bytes"), self.limit_bytes);
        snap.add(
            &format!("mem.shard.{shard}.budget_exceeded"),
            self.exceeded_events,
        );
        snap.add("cache.tfkc.resident_bytes", self.tfkc_bytes);
        snap.add("cache.rfkc.resident_bytes", self.rfkc_bytes);
        snap.add("cache.mkc.resident_bytes", self.mkc_bytes);
    }
}

/// A typed byte ledger with an optional ceiling. Cloning shares the
/// ledger (`Arc` inside): the owning worker charges and releases, any
/// thread may read.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl MemoryBudget {
    /// A budget with a byte ceiling. Tables attached to it evict before
    /// allocating past `limit_bytes`.
    pub fn bounded(limit_bytes: u64) -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit_bytes,
                used: Default::default(),
                exceeded: AtomicU64::new(0),
            }),
        }
    }

    /// An accounting-only budget: usage is tracked, nothing is ever
    /// evicted for budget reasons. (`limit_bytes() == 0`.)
    pub fn unbounded() -> Self {
        Self::bounded(0)
    }

    /// The byte ceiling; 0 means unbounded.
    pub fn limit_bytes(&self) -> u64 {
        self.inner.limit_bytes
    }

    /// Total resident bytes across every kind.
    pub fn used_bytes(&self) -> u64 {
        BudgetKind::ALL.iter().map(|k| self.used_by(*k)).sum()
    }

    /// Resident bytes charged under `kind`.
    pub fn used_by(&self, kind: BudgetKind) -> u64 {
        self.inner.used[kind.index()].load(Ordering::Relaxed)
    }

    /// Would charging `bytes` more cross the ceiling? Always false for
    /// unbounded budgets.
    pub fn would_exceed(&self, bytes: u64) -> bool {
        let limit = self.inner.limit_bytes;
        limit > 0 && self.used_bytes().saturating_add(bytes) > limit
    }

    /// Record `bytes` as resident under `kind`. The caller is expected to
    /// have made room first (see [`would_exceed`](Self::would_exceed));
    /// charging past the ceiling is permitted — soft state keeps working
    /// — but counts an exceeded event.
    pub fn charge(&self, kind: BudgetKind, bytes: u64) {
        self.inner.used[kind.index()].fetch_add(bytes, Ordering::Relaxed);
        let limit = self.inner.limit_bytes;
        if limit > 0 && self.used_bytes() > limit {
            self.inner.exceeded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Release `bytes` previously charged under `kind` (saturating: a
    /// release that was never charged clamps at zero rather than
    /// wrapping).
    pub fn release(&self, kind: BudgetKind, bytes: u64) {
        let cell = &self.inner.used[kind.index()];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Charges that found the budget full.
    pub fn exceeded_events(&self) -> u64 {
        self.inner.exceeded.load(Ordering::Relaxed)
    }

    /// Bytes left under the ceiling (`u64::MAX` when unbounded).
    pub fn headroom_bytes(&self) -> u64 {
        let limit = self.inner.limit_bytes;
        if limit == 0 {
            u64::MAX
        } else {
            limit.saturating_sub(self.used_bytes())
        }
    }

    /// Zero every kind's usage and the exceeded count. Used when a shard
    /// is rebuilt after a worker fault: the lost shard's charges would
    /// otherwise leak into the fresh generation's ledger.
    pub fn reset(&self) {
        for cell in &self.inner.used {
            cell.store(0, Ordering::Relaxed);
        }
        self.inner.exceeded.store(0, Ordering::Relaxed);
    }

    /// Read the ledger into a plain [`BudgetSnapshot`] value.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            tfkc_bytes: self.used_by(BudgetKind::Tfkc),
            rfkc_bytes: self.used_by(BudgetKind::Rfkc),
            mkc_bytes: self.used_by(BudgetKind::Mkc),
            fam_bytes: self.used_by(BudgetKind::Fam),
            limit_bytes: self.inner.limit_bytes,
            exceeded_events: self.exceeded_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_roundtrip() {
        let b = MemoryBudget::bounded(1000);
        b.charge(BudgetKind::Tfkc, 400);
        b.charge(BudgetKind::Rfkc, 100);
        assert_eq!(b.used_bytes(), 500);
        assert_eq!(b.used_by(BudgetKind::Tfkc), 400);
        assert_eq!(b.headroom_bytes(), 500);
        b.release(BudgetKind::Tfkc, 400);
        assert_eq!(b.used_bytes(), 100);
    }

    #[test]
    fn release_saturates_at_zero() {
        let b = MemoryBudget::unbounded();
        b.charge(BudgetKind::Mkc, 10);
        b.release(BudgetKind::Mkc, 100);
        assert_eq!(b.used_by(BudgetKind::Mkc), 0);
    }

    #[test]
    fn would_exceed_tracks_limit() {
        let b = MemoryBudget::bounded(100);
        assert!(!b.would_exceed(100));
        b.charge(BudgetKind::Fam, 60);
        assert!(b.would_exceed(41));
        assert!(!b.would_exceed(40));
        assert_eq!(b.exceeded_events(), 0);
        b.charge(BudgetKind::Fam, 41);
        assert_eq!(b.exceeded_events(), 1);
    }

    #[test]
    fn unbounded_never_exceeds() {
        let b = MemoryBudget::unbounded();
        b.charge(BudgetKind::Tfkc, u64::MAX / 2);
        assert!(!b.would_exceed(u64::MAX / 2));
        assert_eq!(b.headroom_bytes(), u64::MAX);
        assert_eq!(b.exceeded_events(), 0);
    }

    #[test]
    fn reset_zeroes_ledger() {
        let b = MemoryBudget::bounded(64);
        b.charge(BudgetKind::Tfkc, 100);
        assert!(b.exceeded_events() > 0);
        b.reset();
        assert_eq!(b.used_bytes(), 0);
        assert_eq!(b.exceeded_events(), 0);
    }

    #[test]
    fn snapshot_contributes_shard_namespace() {
        let b = MemoryBudget::bounded(4096);
        b.charge(BudgetKind::Tfkc, 128);
        b.charge(BudgetKind::Fam, 256);
        let snap = b.snapshot();
        assert_eq!(snap.used_bytes(), 384);
        let mut m = fbs_obs::MetricsSnapshot::new();
        snap.contribute(3, &mut m);
        assert_eq!(m.counter("mem.shard.3.tfkc_bytes"), 128);
        assert_eq!(m.counter("mem.shard.3.fam_bytes"), 256);
        assert_eq!(m.counter("mem.shard.3.used_bytes"), 384);
        assert_eq!(m.counter("mem.shard.3.limit_bytes"), 4096);
        assert_eq!(m.counter("cache.tfkc.resident_bytes"), 128);
        // A second shard's key-cache bytes add to the per-kind totals.
        let other = MemoryBudget::bounded(4096);
        other.charge(BudgetKind::Tfkc, 64);
        other.snapshot().contribute(4, &mut m);
        assert_eq!(m.counter("mem.shard.4.tfkc_bytes"), 64);
        assert_eq!(m.counter("cache.tfkc.resident_bytes"), 192);
    }

    #[test]
    fn clones_share_the_ledger() {
        let a = MemoryBudget::bounded(512);
        let b = a.clone();
        a.charge(BudgetKind::Rfkc, 64);
        assert_eq!(b.used_by(BudgetKind::Rfkc), 64);
        b.release(BudgetKind::Rfkc, 64);
        assert_eq!(a.used_bytes(), 0);
    }
}
