//! Counter blocks: the one place a component's counts are written.
//!
//! A [`CounterBlock`] is a fixed array of relaxed atomics indexed by
//! [`Counter`] plus per-[`CacheKind`] 3C cache counters. Every
//! component that keeps per-instance statistics (an endpoint's codec,
//! caches and MKD; the IP hooks' shards) writes them into one block,
//! whether or not a registry is attached. The legacy stats structs
//! (`EndpointStats`, [`CacheStats`], `MkdStats`, ...) are views read off
//! a block, and a [`crate::MetricsRegistry`] sums every block
//! [attached](crate::MetricsRegistry::attach) to it when scraped — so
//! each count has exactly one writer.

use crate::event::{CacheKind, CacheOutcome};
use crate::registry::{Counter, NUM_COUNTERS};
use crate::snapshot::MetricsSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Running hit/miss counters of one cache (or of every cache of one
/// kind that writes the same block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the entry.
    pub hits: u64,
    /// Cold (compulsory) misses.
    pub cold_misses: u64,
    /// Capacity misses.
    pub capacity_misses: u64,
    /// Collision (conflict) misses.
    pub collision_misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Times 3C classification shut itself off because the key history
    /// hit its cap (0 or 1 per cache; aggregated across caches that
    /// share a block). While off, non-cold misses count as capacity.
    pub classifier_disabled: u64,
}

impl CacheStats {
    /// Total misses of all kinds.
    pub fn misses(&self) -> u64 {
        self.cold_misses + self.capacity_misses + self.collision_misses
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Miss fraction in `[0, 1]`; 0 when no lookups have happened.
    pub fn miss_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }

    /// Synonym for [`CacheStats::lookups`]: hits plus all miss kinds.
    pub fn total_lookups(&self) -> u64 {
        self.lookups()
    }

    /// Synonym for [`CacheStats::miss_rate`], matching the "miss ratio"
    /// terminology of the Fig. 11 analysis.
    pub fn miss_ratio(&self) -> f64 {
        self.miss_rate()
    }

    /// Fold these counters into a snapshot under `cache.<kind>.*` names —
    /// the namespace a live registry uses. For caches no registry reads
    /// (the figure experiments' simulators).
    pub fn contribute(&self, kind: CacheKind, snap: &mut MetricsSnapshot) {
        let k = kind.name();
        snap.add(&format!("cache.{k}.hits"), self.hits);
        snap.add(&format!("cache.{k}.cold_misses"), self.cold_misses);
        snap.add(&format!("cache.{k}.capacity_misses"), self.capacity_misses);
        snap.add(
            &format!("cache.{k}.collision_misses"),
            self.collision_misses,
        );
        snap.add(&format!("cache.{k}.insertions"), self.insertions);
        snap.add(&format!("cache.{k}.evictions"), self.evictions);
        snap.add(
            &format!("cache.{k}.classifier_disabled"),
            self.classifier_disabled,
        );
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lookups, {} hits ({:.2}% miss): {} cold / {} capacity / {} collision; {} insertions, {} evictions",
            self.total_lookups(),
            self.hits,
            self.miss_ratio() * 100.0,
            self.cold_misses,
            self.capacity_misses,
            self.collision_misses,
            self.insertions,
            self.evictions,
        )
    }
}

/// One cache kind's cells in a block.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    cold_misses: AtomicU64,
    capacity_misses: AtomicU64,
    collision_misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    classifier_disabled: AtomicU64,
    /// Gauge (not a counter): bytes currently charged for resident
    /// entries. Caches add on insert and subtract on evict/invalidate,
    /// so the value tracks live residency rather than accumulating.
    resident_bytes: AtomicU64,
}

/// The counts of one endpoint (or of one standalone component): every
/// [`Counter`] and the 3C counters of every [`CacheKind`], as relaxed
/// atomics. Shared by `Arc` between the components that write it and
/// the registries that read it; reading never blocks a writer.
pub struct CounterBlock {
    counters: [AtomicU64; NUM_COUNTERS],
    caches: [CacheCounters; 5],
}

impl Default for CounterBlock {
    fn default() -> Self {
        CounterBlock::new()
    }
}

impl fmt::Debug for CounterBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterBlock").finish_non_exhaustive()
    }
}

impl CounterBlock {
    /// A zeroed block.
    pub fn new() -> Self {
        CounterBlock {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            caches: std::array::from_fn(|_| CacheCounters::default()),
        }
    }

    /// Increment a scalar counter by 1.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a scalar counter by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Read a scalar counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Record a lookup in cache `kind`: a hit or one of the 3C misses.
    pub fn cache_lookup(&self, kind: CacheKind, outcome: CacheOutcome) {
        let c = &self.caches[kind.index()];
        let cell = match outcome {
            CacheOutcome::Hit => &c.hits,
            CacheOutcome::MissCold => &c.cold_misses,
            CacheOutcome::MissCapacity => &c.capacity_misses,
            CacheOutcome::MissCollision => &c.collision_misses,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an insertion into cache `kind`. An eviction it causes is
    /// booked separately, through [`cache_eviction`](Self::cache_eviction).
    pub fn cache_insertion(&self, kind: CacheKind) {
        self.caches[kind.index()]
            .insertions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record an eviction from cache `kind`.
    pub fn cache_eviction(&self, kind: CacheKind) {
        self.caches[kind.index()]
            .evictions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a cache of `kind` turned its 3C classifier off.
    pub fn cache_classifier_disabled(&self, kind: CacheKind) {
        self.caches[kind.index()]
            .classifier_disabled
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the `cache.<kind>.resident_bytes` gauge by `bytes`.
    pub(crate) fn cache_resident_add(&self, kind: CacheKind, bytes: u64) {
        self.caches[kind.index()]
            .resident_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Lower the `cache.<kind>.resident_bytes` gauge by `bytes`
    /// (saturating at zero rather than wrapping).
    pub(crate) fn cache_resident_sub(&self, kind: CacheKind, bytes: u64) {
        let cell = &self.caches[kind.index()].resident_bytes;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The 3C counters of cache `kind`.
    pub fn cache(&self, kind: CacheKind) -> CacheStats {
        let c = &self.caches[kind.index()];
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            cold_misses: c.cold_misses.load(Ordering::Relaxed),
            capacity_misses: c.capacity_misses.load(Ordering::Relaxed),
            collision_misses: c.collision_misses.load(Ordering::Relaxed),
            insertions: c.insertions.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            classifier_disabled: c.classifier_disabled.load(Ordering::Relaxed),
        }
    }

    /// Fold every non-zero counter, cache counter and resident gauge of
    /// this block into `snap` (adding to what is already there).
    pub(crate) fn contribute(&self, snap: &mut MetricsSnapshot) {
        for c in Counter::ALL {
            snap.add(c.name(), self.counter(c));
        }
        for kind in CacheKind::ALL {
            self.cache(kind).contribute(kind, snap);
            snap.add(
                &format!("cache.{}.resident_bytes", kind.name()),
                self.caches[kind.index()]
                    .resident_bytes
                    .load(Ordering::Relaxed),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_cells_are_per_kind() {
        let b = CounterBlock::new();
        b.cache_lookup(CacheKind::Rfkc, CacheOutcome::Hit);
        b.cache_lookup(CacheKind::Rfkc, CacheOutcome::MissCold);
        b.cache_insertion(CacheKind::Rfkc);
        b.cache_eviction(CacheKind::Mkc);
        let r = b.cache(CacheKind::Rfkc);
        assert_eq!((r.hits, r.cold_misses, r.insertions), (1, 1, 1));
        assert_eq!(r.lookups(), 2);
        assert_eq!(b.cache(CacheKind::Mkc).evictions, 1);
        assert_eq!(b.cache(CacheKind::Tfkc), CacheStats::default());
    }

    #[test]
    fn resident_gauge_saturates_at_zero() {
        let b = CounterBlock::new();
        b.cache_resident_add(CacheKind::Rfkc, 10);
        b.cache_resident_sub(CacheKind::Rfkc, 25);
        let mut snap = MetricsSnapshot::new();
        b.contribute(&mut snap);
        assert_eq!(snap.counter("cache.rfkc.resident_bytes"), 0);
    }
}
