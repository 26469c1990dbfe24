//! Counter blocks: the one place any count is written.
//!
//! A [`CounterBlock`] holds every [`Counter`] plus per-[`CacheKind`] 3C
//! cache counters and per-[`Direction`] park counters. The stats
//! structs (`EndpointStats`, [`CacheStats`], `MkdStats`, `PoolStats`,
//! `HostStats`, ...) are views read off blocks,
//! and a [`crate::MetricsRegistry`] sums every block
//! [attached](crate::MetricsRegistry::attach) to it when scraped. A
//! component counts whether or not a registry reads it, so attaching
//! one late loses nothing.
//!
//! # One writer per block
//!
//! At any moment a block has exactly one writer: the holder of the one
//! lock that guards it, or the owner of a `&mut` to the component that
//! holds it. Under that rule an increment needs no locked instruction:
//! it is a relaxed load and a relaxed store of the cell, and readers on
//! other threads load the cells at any time without blocking a writer
//! or seeing a torn value. Two writers racing on one block would lose
//! increments, so a component written from several lock domains keeps
//! one block per domain, and its views [sum](CounterBlock::sum) them.
//!
//! Blocks are cache-line aligned, so two domains' blocks never share a
//! line.

use crate::event::{CacheKind, CacheOutcome, Direction};
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
}

impl CacheCounters {
    fn cells(&self) -> [&AtomicU64; 7] {
        [
            &self.hits,
            &self.cold_misses,
            &self.capacity_misses,
            &self.collision_misses,
            &self.insertions,
            &self.evictions,
            &self.classifier_disabled,
        ]
    }
}

/// One step in the life of a datagram parked awaiting key material,
/// counted per [`Direction`] in a block. A snapshot reads each step as
/// one `park.*` row, both directions summed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkStep {
    /// Parked (first admissions; a re-park after a failed retry is not
    /// counted again).
    Parked,
    /// Released and processed.
    Released,
    /// Dropped on deadline expiry.
    Expired,
    /// Rejected because the parking queue was full.
    Overflow,
    /// Retried on release and refused for a reason other than a missing
    /// key (a forgery parked during a key outage), then dropped.
    Rejected,
}

impl ParkStep {
    /// Every step, in cell order.
    pub const ALL: [ParkStep; 5] = [
        ParkStep::Parked,
        ParkStep::Released,
        ParkStep::Expired,
        ParkStep::Overflow,
        ParkStep::Rejected,
    ];

    /// The snapshot row counting this step in both directions.
    pub fn name(self) -> &'static str {
        match self {
            ParkStep::Parked => "park.parked",
            ParkStep::Released => "park.released",
            ParkStep::Expired => "park.expired",
            ParkStep::Overflow => "park.overflow",
            ParkStep::Rejected => "park.rejected",
        }
    }
}

/// Add `n` to `cell`: a relaxed load and a relaxed store, no locked
/// instruction. Exact only under the block's one-writer rule (module
/// docs); a racing second writer loses increments, never tears a cell.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// The counts of one lock domain: every [`Counter`], the 3C counters
/// of every [`CacheKind`] and the [`ParkStep`]s of each direction. Shared by `Arc` between the components that
/// write it (one at a time, see the module docs) and the registries
/// that read it; reading never blocks a writer. Aligned to two cache
/// lines (the unit the adjacent-line prefetcher pulls), so blocks of
/// different domains never share one.
#[repr(align(128))]
pub struct CounterBlock {
    counters: [AtomicU64; NUM_COUNTERS],
    caches: [CacheCounters; 5],
    /// `[output, input]`, each indexed by [`ParkStep`].
    park: [[AtomicU64; 5]; 2],
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
            park: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// A fresh block holding the cell-by-cell sum of `blocks`: how a
    /// view reads a component that counts into one block per lock
    /// domain.
    pub fn sum<'a>(blocks: impl IntoIterator<Item = &'a CounterBlock>) -> CounterBlock {
        let total = CounterBlock::new();
        for b in blocks {
            for (t, c) in total.counters.iter().zip(&b.counters) {
                bump(t, c.load(Ordering::Relaxed));
            }
            for (t, c) in total.caches.iter().zip(&b.caches) {
                for (t, c) in t.cells().into_iter().zip(c.cells()) {
                    bump(t, c.load(Ordering::Relaxed));
                }
            }
            for (t, c) in total.park.iter().flatten().zip(b.park.iter().flatten()) {
                bump(t, c.load(Ordering::Relaxed));
            }
        }
        total
    }

    /// Increment a scalar counter by 1.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a scalar counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        bump(&self.counters[c.index()], n);
    }

    /// Read a scalar counter.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Record a lookup in cache `kind`: a hit or one of the 3C misses.
    #[inline]
    pub fn cache_lookup(&self, kind: CacheKind, outcome: CacheOutcome) {
        let c = &self.caches[kind.index()];
        bump(
            match outcome {
                CacheOutcome::Hit => &c.hits,
                CacheOutcome::MissCold => &c.cold_misses,
                CacheOutcome::MissCapacity => &c.capacity_misses,
                CacheOutcome::MissCollision => &c.collision_misses,
            },
            1,
        );
    }

    /// Record an insertion into cache `kind`. An eviction it causes is
    /// booked separately, through [`cache_eviction`](Self::cache_eviction).
    #[inline]
    pub fn cache_insertion(&self, kind: CacheKind) {
        bump(&self.caches[kind.index()].insertions, 1);
    }

    /// Record an eviction from cache `kind`.
    #[inline]
    pub fn cache_eviction(&self, kind: CacheKind) {
        bump(&self.caches[kind.index()].evictions, 1);
    }

    /// Record that a cache of `kind` turned its 3C classifier off.
    pub fn cache_classifier_disabled(&self, kind: CacheKind) {
        bump(&self.caches[kind.index()].classifier_disabled, 1);
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

    /// Count one `step` of a datagram parked in direction `dir`.
    #[inline]
    pub fn park_step(&self, dir: Direction, step: ParkStep) {
        bump(&self.park[dir as usize][step as usize], 1);
    }

    /// How many datagrams took `step` in direction `dir`.
    pub fn park_count(&self, dir: Direction, step: ParkStep) -> u64 {
        self.park[dir as usize][step as usize].load(Ordering::Relaxed)
    }

    /// Fold every non-zero counter, cache counter and park row of this
    /// block into `snap` (adding to what is already there).
    pub(crate) fn contribute(&self, snap: &mut MetricsSnapshot) {
        for c in Counter::ALL {
            snap.add(c.name(), self.counter(c));
        }
        for kind in CacheKind::ALL {
            self.cache(kind).contribute(kind, snap);
        }
        for step in ParkStep::ALL {
            let both =
                self.park_count(Direction::Output, step) + self.park_count(Direction::Input, step);
            snap.add(step.name(), both);
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
    fn sum_adds_every_cell_of_every_block() {
        let (a, b) = (CounterBlock::new(), CounterBlock::new());
        a.add(Counter::Sends, 3);
        b.incr(Counter::Sends);
        b.incr(Counter::MkdUpcalls);
        a.cache_lookup(CacheKind::Rfkc, CacheOutcome::Hit);
        b.cache_classifier_disabled(CacheKind::Rfkc);
        let t = CounterBlock::sum([&a, &b]);
        assert_eq!(t.counter(Counter::Sends), 4);
        assert_eq!(t.counter(Counter::MkdUpcalls), 1);
        let r = t.cache(CacheKind::Rfkc);
        assert_eq!((r.hits, r.classifier_disabled), (1, 1));
        assert_eq!(CounterBlock::sum([]).counter(Counter::Sends), 0);
    }

    #[test]
    fn park_steps_count_per_direction_and_read_summed() {
        let (a, b) = (CounterBlock::new(), CounterBlock::new());
        a.park_step(Direction::Output, ParkStep::Parked);
        a.park_step(Direction::Input, ParkStep::Parked);
        a.park_step(Direction::Input, ParkStep::Expired);
        b.park_step(Direction::Input, ParkStep::Parked);
        let t = CounterBlock::sum([&a, &b]);
        assert_eq!(t.park_count(Direction::Output, ParkStep::Parked), 1);
        assert_eq!(t.park_count(Direction::Input, ParkStep::Parked), 2);
        assert_eq!(t.park_count(Direction::Output, ParkStep::Expired), 0);
        let mut snap = MetricsSnapshot::new();
        t.contribute(&mut snap);
        assert_eq!(snap.counter("park.parked"), 3);
        assert_eq!(snap.counter("park.expired"), 1);
        assert_eq!(snap.counter("park.released"), 0);
    }

    #[test]
    fn blocks_never_share_a_cache_line() {
        assert_eq!(std::mem::align_of::<CounterBlock>(), 128);
        assert_eq!(std::mem::size_of::<CounterBlock>() % 128, 0);
    }
}
