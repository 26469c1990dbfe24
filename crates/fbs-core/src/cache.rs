//! Soft-state key caches (§5.3, "Key Caching").
//!
//! All FBS caches — public value cache (PVC), master key cache (MKC),
//! transmission flow key cache (TFKC), receive flow key cache (RFKC) — hold
//! only *soft state*: every entry can be discarded and recomputed, so cache
//! policy affects performance, never correctness.
//!
//! The paper analyses misses with the classic 3C model: **cold** misses
//! initialise entries, **capacity** misses mean the working set exceeds the
//! cache, and **collision** misses are artifacts of limited associativity
//! or a poor index hash. Because the caches must be software with O(1)
//! access, associativity is kept low and the *hash function* carries the
//! burden of decorrelating inputs (local addresses, sequential sfls) —
//! hence CRC-32 (§5.3). This module implements that set-associative design
//! with a pluggable index hash, LRU replacement within each set, and
//! optional 3C miss classification via a shadow fully-associative LRU,
//! which is what the Fig. 11 experiments sweep.
//!
//! # Storage layout (million-flow residency)
//!
//! Entries live in flat open-addressed slot arrays rather than
//! `Vec`-of-`Vec` sets: a control-byte array (one byte per slot holding
//! either EMPTY or a 7-bit fingerprint of the index hash, swiss-table
//! style) plus struct-of-arrays entry storage (keys, values and LRU
//! ticks in separate parallel arrays). A lookup scans the control bytes
//! of its set's slot window first and only compares keys on a
//! fingerprint match, so a miss at high occupancy touches one cache line
//! of control bytes, not `assoc` full entries. The set index is still
//! `hash(k) % num_sets` — exactly the paper's "randomise, then take the
//! modulo" structure — and replacement is still LRU within the set's
//! window, so the 3C behaviour under study is unchanged.
//!
//! Large caches (more than [`GROW_START_SETS`] sets) start small and
//! **resize incrementally**: the table doubles toward the configured
//! geometry as occupancy grows, and each doubling keeps the previous
//! array alive while a migration cursor rehomes at most
//! [`MIGRATE_SETS`] sets per lookup/insert. No single datagram ever
//! pays a full-table rehash or a full-table zeroing stall (new arrays
//! are initialised lazily behind a watermark). Small caches — every
//! geometry the figure experiments sweep — allocate at full size up
//! front and never migrate, so their behaviour is bit-identical to the
//! direct implementation.
//!
//! A cache can also be attached to a [`MemoryBudget`]: each resident
//! entry charges a fixed byte cost under the cache's [`BudgetKind`],
//! and an insert that would cross the budget's ceiling evicts this
//! cache's own LRU entries *before* allocating (budget-driven eviction;
//! soft state makes that always safe).

use crate::mem::{BudgetKind, MemoryBudget};
use fbs_obs::{CacheKind, CacheOutcome, CounterBlock, MetricsRegistry};
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;

/// Control byte for a vacant slot. Occupied slots hold the low 7 bits of
/// `hash >> 25` (always `<= 0x7F`, so never equal to this).
const CTRL_EMPTY: u8 = 0xFF;

/// Caches configured with at most this many sets allocate at full size
/// and never resize; larger caches start at (about) this many sets and
/// double incrementally as they fill.
pub const GROW_START_SETS: usize = 512;

/// Upper bound on sets rehomed from the old table per cache operation
/// while a resize is in flight (so per-datagram migration work is at
/// most `MIGRATE_SETS * assoc` entry moves).
pub const MIGRATE_SETS: usize = 4;

/// Buckets in the probe-length histogram: bucket `i` counts lookups
/// that examined `i` slots (`0` is unused; the last bucket absorbs
/// longer probes).
pub const PROBE_HIST_BUCKETS: usize = 32;

/// Default cap on the 3C classifier's key history (distinct keys ever
/// seen). Far above every figure-experiment working set; hit only at
/// scale, where classification turns itself off rather than growing
/// without bound.
pub const DEFAULT_CLASSIFIER_KEY_CAP: usize = 1 << 20;

fn fingerprint(h: u32) -> u8 {
    (h >> 25) as u8
}

/// Which kind of miss occurred, per the 3C model of §5.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissKind {
    /// First-ever reference to this key: unavoidable.
    Cold,
    /// The key was referenced before but would have been evicted even by a
    /// fully-associative cache of the same total capacity.
    Capacity,
    /// The key would have survived in a fully-associative cache: it was
    /// evicted only because of set conflicts (limited associativity or a
    /// hash that clusters keys).
    Collision,
}

/// Result of a classified lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The entry was present.
    Hit,
    /// The entry was absent, for the stated reason (reason is `Cold` when
    /// classification is disabled and the key is new, `Capacity` otherwise).
    Miss(MissKind),
}

/// Running hit/miss counters: a view over the cache's counter block.
pub use fbs_obs::CacheStats;

/// One flat slot array: control bytes plus SoA entry storage. Slots
/// past the `ctrl.len()` watermark are implicitly EMPTY — arrays are
/// reserved to `sets * assoc` up front but initialised lazily, so
/// standing up a doubled table during a resize never writes the whole
/// allocation in one stall.
struct Table<K, V> {
    sets: usize,
    assoc: usize,
    ctrl: Vec<u8>,
    keys: Vec<Option<K>>,
    vals: Vec<Option<V>>,
    used: Vec<u64>,
}

impl<K, V> Table<K, V> {
    fn new(sets: usize, assoc: usize) -> Self {
        let cap = sets * assoc;
        Table {
            sets,
            assoc,
            ctrl: Vec::with_capacity(cap),
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            used: Vec::with_capacity(cap),
        }
    }

    /// Extend the initialised watermark to cover slots `..end`.
    fn ensure_slots(&mut self, end: usize) {
        while self.ctrl.len() < end {
            self.ctrl.push(CTRL_EMPTY);
            self.keys.push(None);
            self.vals.push(None);
            self.used.push(0);
        }
    }

    fn ctrl_at(&self, slot: usize) -> u8 {
        self.ctrl.get(slot).copied().unwrap_or(CTRL_EMPTY)
    }

    /// Heap bytes held by this table's arrays (reserved capacity, which
    /// is what the allocator actually committed).
    fn heap_bytes(&self) -> u64 {
        (self.ctrl.capacity() * std::mem::size_of::<u8>()
            + self.keys.capacity() * std::mem::size_of::<Option<K>>()
            + self.vals.capacity() * std::mem::size_of::<Option<V>>()
            + self.used.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

impl<K: Eq, V> Table<K, V> {
    /// Scan `set`'s slot window for `key`. Returns `(hit_slot,
    /// slots_probed, first_empty_slot)`. The whole window is scanned on
    /// a miss (removal leaves holes, so an empty slot does not
    /// terminate the probe), but only fingerprint-matching slots pay a
    /// key comparison.
    fn probe(&self, set: usize, fp: u8, key: &K) -> (Option<usize>, usize, Option<usize>) {
        let base = set * self.assoc;
        let mut first_empty = None;
        for i in 0..self.assoc {
            let slot = base + i;
            let c = self.ctrl_at(slot);
            if c == CTRL_EMPTY {
                if first_empty.is_none() {
                    first_empty = Some(slot);
                }
            } else if c == fp && self.keys[slot].as_ref() == Some(key) {
                return (Some(slot), i + 1, first_empty);
            }
        }
        (None, self.assoc, first_empty)
    }

    /// Least-recently-used occupied slot in `set`'s window, if any.
    fn window_lru(&self, set: usize) -> Option<usize> {
        let base = set * self.assoc;
        (base..base + self.assoc)
            .filter(|&s| self.ctrl_at(s) != CTRL_EMPTY)
            .min_by_key(|&s| self.used[s])
    }

    /// Vacate `slot`, returning its entry. Caller keeps the books.
    fn remove(&mut self, slot: usize) -> (K, V) {
        self.ctrl[slot] = CTRL_EMPTY;
        let k = self.keys[slot].take().expect("occupied slot has a key");
        let v = self.vals[slot].take().expect("occupied slot has a value");
        (k, v)
    }

    /// Fill `slot` (must be initialised and empty or being overwritten).
    fn place(&mut self, slot: usize, fp: u8, key: K, value: V, tick: u64) {
        self.ctrl[slot] = fp;
        self.keys[slot] = Some(key);
        self.vals[slot] = Some(value);
        self.used[slot] = tick;
    }
}

/// Shadow fully-associative LRU used only for 3C classification.
struct ShadowLru<K> {
    capacity: usize,
    /// Most-recent at the back. Linear scan is fine: capacities here are
    /// the cache sizes under study (tens to a few thousand entries).
    order: Vec<K>,
}

impl<K: Eq + Clone> ShadowLru<K> {
    fn touch(&mut self, key: &K) -> bool {
        let present = if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            true
        } else {
            false
        };
        self.order.push(key.clone());
        if self.order.len() > self.capacity {
            self.order.remove(0);
        }
        present
    }
}

/// Key history + shadow LRU backing 3C classification, with a cap on
/// history memory (the `seen` set is the only structure here that would
/// otherwise grow with every distinct key forever).
struct Classifier<K> {
    seen: HashSet<K>,
    shadow: ShadowLru<K>,
    key_cap: usize,
}

/// A set-associative soft-state cache with pluggable index hash and LRU
/// replacement.
///
/// ```
/// use fbs_core::SoftCache;
/// // 8 sets × 2 ways, indexed by CRC-32 (the §5.3 recommendation).
/// let mut tfkc: SoftCache<u64, &str> =
///     SoftCache::new(8, 2, |sfl: &u64| fbs_crypto::crc32(&sfl.to_be_bytes()));
/// tfkc.insert(42, "flow-key-bytes");
/// assert_eq!(tfkc.get(&42), Some("flow-key-bytes"));
/// assert_eq!(tfkc.get(&43), None); // miss: recompute and insert
/// assert_eq!(tfkc.stats().hits, 1);
/// ```
pub struct SoftCache<K, V> {
    /// The live table; inserts always land here.
    table: Table<K, V>,
    /// Previous table while a resize is migrating, plus the index of the
    /// next old set to rehome. Old sets below the cursor are empty.
    old: Option<Table<K, V>>,
    migrate_cursor: usize,
    /// Configured geometry (the table grows toward `num_sets`).
    num_sets: usize,
    assoc: usize,
    hash: Box<dyn Fn(&K) -> u32 + Send + Sync>,
    tick: u64,
    /// Resident entries across both tables.
    live: usize,
    /// Entries rehomed by the incremental migrator (includes
    /// migrate-on-access moves).
    migrated: u64,
    /// Fallback eviction scan position for budget evictions when the
    /// target window has nothing to give.
    evict_cursor: usize,
    /// Probe-length histogram: bucket `i` counts lookups that examined
    /// `i` slots.
    probe_hist: [u64; PROBE_HIST_BUCKETS],
    /// Reused scratch for migration steps (no per-datagram allocation).
    scratch: Vec<(K, V, u64)>,
    /// The counter block this cache writes its 3C counts into, under
    /// `kind`: a private one by default, or its endpoint's
    /// ([`with_counts`](Self::with_counts)). Readers never borrow (or
    /// lock) the cache itself.
    counts: Arc<CounterBlock>,
    kind: CacheKind,
    /// Key history for cold-miss detection + shadow LRU for capacity vs
    /// collision discrimination. `None` disables classification (all
    /// non-cold misses count as capacity) and avoids its overhead.
    classifier: Option<Classifier<K>>,
    /// Optional memory budget: `(ledger, kind, bytes charged per
    /// resident entry)`.
    budget: Option<(MemoryBudget, BudgetKind, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> SoftCache<K, V> {
    /// Create a cache of `num_sets * assoc` total entries. `hash` maps a
    /// key to a 32-bit value; the set index is `hash(k) % num_sets`
    /// (exactly the paper's "randomise, then take the modulo" structure).
    ///
    /// Geometries above [`GROW_START_SETS`] sets start small and grow
    /// incrementally (see the module docs); smaller ones are allocated
    /// at full size immediately.
    ///
    /// # Panics
    /// Panics if `num_sets` or `assoc` is zero.
    pub fn new(
        num_sets: usize,
        assoc: usize,
        hash: impl Fn(&K) -> u32 + Send + Sync + 'static,
    ) -> Self {
        assert!(
            num_sets > 0 && assoc > 0,
            "cache dimensions must be nonzero"
        );
        let mut start = num_sets;
        while start > GROW_START_SETS {
            start = start.div_ceil(2);
        }
        SoftCache {
            table: Table::new(start, assoc),
            old: None,
            migrate_cursor: 0,
            num_sets,
            assoc,
            hash: Box::new(hash),
            tick: 0,
            live: 0,
            migrated: 0,
            evict_cursor: 0,
            probe_hist: [0; PROBE_HIST_BUCKETS],
            scratch: Vec::new(),
            counts: Arc::new(CounterBlock::new()),
            kind: CacheKind::Tfkc,
            classifier: None,
            budget: None,
        }
    }

    /// Count into `counts` under `kind` (builder style, before the
    /// first lookup): how a cache shares its endpoint's or its lock
    /// domain's block, which only one writer at a time may write.
    pub fn with_counts(mut self, counts: Arc<CounterBlock>, kind: CacheKind) -> Self {
        self.counts = counts;
        self.kind = kind;
        self
    }

    /// Attach a metrics registry: the registry reads this cache's block
    /// (counted under `kind`, named before the first lookup), where every
    /// lookup is already counted. Resident bytes are the budget's ledger,
    /// which whoever owns the budget reports.
    pub fn set_obs(&mut self, registry: Arc<MetricsRegistry>, kind: CacheKind) {
        self.kind = kind;
        registry.attach(Arc::clone(&self.counts));
    }

    /// Attach a [`MemoryBudget`]: every resident entry charges
    /// `entry_bytes` under `kind`, and inserts that would cross the
    /// budget's ceiling evict this cache's LRU entries first.
    pub fn set_budget(&mut self, budget: MemoryBudget, kind: BudgetKind, entry_bytes: u64) {
        // Entries already resident are charged retroactively so the
        // ledger is coherent no matter when the budget was attached.
        budget.charge(kind, self.live as u64 * entry_bytes);
        self.budget = Some((budget, kind, entry_bytes));
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&MemoryBudget> {
        self.budget.as_ref().map(|(b, _, _)| b)
    }

    /// Bytes charged to the budget for resident entries (0 when no
    /// budget is attached).
    pub fn resident_bytes(&self) -> u64 {
        self.budget
            .as_ref()
            .map(|(_, _, eb)| self.live as u64 * eb)
            .unwrap_or(0)
    }

    /// Heap bytes held by the slot arrays themselves (both tables while
    /// a resize is in flight). Entry *values* that own further heap
    /// (e.g. `Arc` payloads) are accounted by the budget's
    /// `entry_bytes`, not here.
    pub fn table_bytes(&self) -> u64 {
        self.table.heap_bytes() + self.old.as_ref().map(|t| t.heap_bytes()).unwrap_or(0)
    }

    /// Enable 3C miss classification (used by the Fig. 11 experiments).
    /// Costs a shadow LRU of the same total capacity plus a key-history
    /// set capped at [`DEFAULT_CLASSIFIER_KEY_CAP`] distinct keys; past
    /// the cap, classification turns itself off (see
    /// [`CacheStats::classifier_disabled`]).
    pub fn with_classification(self) -> Self {
        self.with_classification_capped(DEFAULT_CLASSIFIER_KEY_CAP)
    }

    /// Enable 3C miss classification with an explicit cap on the key
    /// history. When the number of distinct keys ever seen reaches
    /// `key_cap`, the classifier is dropped (history memory freed),
    /// `classifier_disabled` is counted, and later non-cold misses are
    /// reported as capacity misses.
    pub fn with_classification_capped(mut self, key_cap: usize) -> Self {
        let cap = self.capacity();
        self.classifier = Some(Classifier {
            seen: HashSet::new(),
            shadow: ShadowLru {
                capacity: cap,
                order: Vec::with_capacity(cap.min(DEFAULT_CLASSIFIER_KEY_CAP)),
            },
            key_cap,
        });
        self
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// Number of sets (the configured geometry; see
    /// [`live_sets`](Self::live_sets) for the currently allocated table).
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Sets in the live table right now (grows toward
    /// [`num_sets`](Self::num_sets)).
    pub fn live_sets(&self) -> usize {
        self.table.sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// True while an incremental resize is still migrating entries.
    pub fn resizing(&self) -> bool {
        self.old.is_some()
    }

    /// Entries rehomed by the incremental migrator so far.
    pub fn migrated_entries(&self) -> u64 {
        self.migrated
    }

    /// Probe-length histogram: bucket `i` counts lookups that examined
    /// `i` slots (the last bucket absorbs longer probes).
    pub fn probe_histogram(&self) -> [u64; PROBE_HIST_BUCKETS] {
        self.probe_hist
    }

    /// Accumulated statistics, read off the counter block (every cache
    /// of this kind sharing the block counts into the same cells).
    pub fn stats(&self) -> CacheStats {
        self.counts.cache(self.kind)
    }

    fn record_probe(&mut self, probed: usize) {
        self.probe_hist[probed.min(PROBE_HIST_BUCKETS - 1)] += 1;
    }

    /// Drop the classifier if tracking `key` would push the history past
    /// its cap; returns whether classification is (still) active.
    fn classifier_guard(&mut self, key: &K) -> bool {
        let disable = match &self.classifier {
            Some(c) => c.seen.len() >= c.key_cap && !c.seen.contains(key),
            None => false,
        };
        if disable {
            self.classifier = None;
            self.counts.cache_classifier_disabled(self.kind);
        }
        self.classifier.is_some()
    }

    /// Classify a miss, update classifier state and statistics.
    fn classify_miss(&mut self, key: &K) -> MissKind {
        let kind = if !self.classifier_guard(key) {
            MissKind::Capacity
        } else {
            let c = self.classifier.as_mut().expect("guard says active");
            let was_seen = c.seen.contains(key);
            // touch() both queries and refreshes the shadow LRU.
            let in_shadow = c.shadow.touch(key);
            c.seen.insert(key.clone());
            if !was_seen {
                MissKind::Cold
            } else if in_shadow {
                // Would have hit fully-associative ⇒ conflict artifact.
                MissKind::Collision
            } else {
                MissKind::Capacity
            }
        };
        let outcome = match kind {
            MissKind::Cold => CacheOutcome::MissCold,
            MissKind::Capacity => CacheOutcome::MissCapacity,
            MissKind::Collision => CacheOutcome::MissCollision,
        };
        self.counts.cache_lookup(self.kind, outcome);
        kind
    }

    fn classifier_note_hit(&mut self, key: &K) {
        if self.classifier_guard(key) {
            let c = self.classifier.as_mut().expect("guard says active");
            c.seen.insert(key.clone());
            c.shadow.touch(key);
        }
    }

    /// Book an eviction out of the live table's `slot`: stats and
    /// budget release.
    fn evict_live_slot(&mut self, slot: usize) -> (K, V) {
        let (k, v) = self.table.remove(slot);
        self.live -= 1;
        self.counts.cache_eviction(self.kind);
        if let Some((budget, bk, eb)) = &self.budget {
            budget.release(*bk, *eb);
        }
        (k, v)
    }

    /// Book a brand-new resident entry (and its budget charge).
    fn note_resident_added(&mut self) {
        self.live += 1;
        if let Some((budget, bk, eb)) = &self.budget {
            budget.charge(*bk, *eb);
        }
    }

    /// Book a removal that is not an eviction (invalidate/clear).
    fn note_resident_removed(&mut self, n: usize) {
        self.live -= n;
        if let Some((budget, bk, eb)) = &self.budget {
            budget.release(*bk, *eb * n as u64);
        }
    }

    /// Rehome up to [`MIGRATE_SETS`] sets from the old table. Bounded
    /// work; called from every lookup/insert while a resize is in
    /// flight, so the migration cost is amortised across datagrams.
    fn step_migration(&mut self) {
        for _ in 0..MIGRATE_SETS {
            let Some(old) = &mut self.old else { return };
            if self.migrate_cursor >= old.sets {
                self.old = None;
                return;
            }
            let set = self.migrate_cursor;
            self.migrate_cursor += 1;
            let mut moved = std::mem::take(&mut self.scratch);
            let base = set * old.assoc;
            for slot in base..base + old.assoc {
                if old.ctrl_at(slot) == CTRL_EMPTY {
                    continue;
                }
                let k = old.keys[slot].take().expect("occupied");
                let v = old.vals[slot].take().expect("occupied");
                old.ctrl[slot] = CTRL_EMPTY;
                moved.push((k, v, old.used[slot]));
            }
            for (k, v, used) in moved.drain(..) {
                self.rehome(k, v, used);
            }
            self.scratch = moved;
        }
    }

    /// Place a migrated entry into the live table at its new home,
    /// evicting the window LRU if the window is full. Keeps the entry's
    /// original recency tick so LRU order survives the resize.
    fn rehome(&mut self, key: K, value: V, used: u64) {
        let h = (self.hash)(&key);
        let fp = fingerprint(h);
        let set = (h as usize) % self.table.sets;
        let base = set * self.assoc;
        self.table.ensure_slots(base + self.assoc);
        let (_, _, first_empty) = self.table.probe(set, fp, &key);
        let slot = match first_empty {
            Some(s) => s,
            None => {
                let victim = self.table.window_lru(set).expect("full window");
                let _ = self.evict_live_slot(victim);
                victim
            }
        };
        self.table.place(slot, fp, key, value, used);
        self.migrated += 1;
    }

    /// Begin an incremental doubling if the live table is filling up and
    /// has not yet reached the configured geometry.
    fn maybe_grow(&mut self) {
        if self.old.is_some() || self.table.sets >= self.num_sets {
            return;
        }
        let cap = self.table.sets * self.assoc;
        if (self.live + 1) * 4 <= cap * 3 {
            return;
        }
        let next = (self.table.sets * 2).min(self.num_sets);
        let fresh = Table::new(next, self.assoc);
        self.old = Some(std::mem::replace(&mut self.table, fresh));
        self.migrate_cursor = 0;
    }

    /// Evict this cache's own entries until charging one more entry
    /// fits under the budget (budget-driven eviction before
    /// allocation). Prefers the LRU of the incoming key's window, then
    /// falls back to a cursor scan so progress is guaranteed.
    fn evict_for_budget(&mut self, set: usize) {
        loop {
            let over = match &self.budget {
                Some((budget, _, eb)) => budget.would_exceed(*eb),
                None => false,
            };
            if !over || self.live == 0 {
                return;
            }
            if let Some(victim) = self.table.window_lru(set) {
                let _ = self.evict_live_slot(victim);
                continue;
            }
            // Window empty: scan the live table from the cursor for any
            // occupied slot. If every resident entry is still in the old
            // table, migrate a step and retry.
            let limit = self.table.ctrl.len();
            let mut found = None;
            for i in 0..limit.max(1) {
                let slot = (self.evict_cursor + i) % limit.max(1);
                if self.table.ctrl_at(slot) != CTRL_EMPTY {
                    found = Some(slot);
                    break;
                }
            }
            match found {
                Some(slot) => {
                    self.evict_cursor = (slot + 1) % limit.max(1);
                    let _ = self.evict_live_slot(slot);
                }
                None => {
                    if self.old.is_some() {
                        self.step_migration();
                    } else {
                        return;
                    }
                }
            }
        }
    }

    /// Look up `key`, returning a clone of the value on hit. Updates LRU
    /// recency, statistics, and (when enabled) the 3C classifier.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.get_ref(key).cloned()
    }

    /// Look up `key`, returning a borrow of the value on hit — the hot-path
    /// accessor: identical LRU/stats/classifier/observation bookkeeping to
    /// [`get`](Self::get), without cloning the value.
    pub fn get_ref(&mut self, key: &K) -> Option<&V> {
        let slot = self.lookup(key).ok()?;
        self.table.vals[slot].as_ref()
    }

    /// The one lookup: LRU recency, statistics, classifier and events.
    /// A hit returns its live-table slot, a miss what kind it was.
    fn lookup(&mut self, key: &K) -> Result<usize, MissKind> {
        self.tick += 1;
        let tick = self.tick;
        if self.old.is_some() {
            self.step_migration();
        }
        let h = (self.hash)(key);
        let fp = fingerprint(h);
        let set = (h as usize) % self.table.sets;
        let (hit, probed, _) = self.table.probe(set, fp, key);
        if let Some(slot) = hit {
            self.record_probe(probed);
            self.table.used[slot] = tick;
            self.classifier_note_hit(key);
            self.counts.cache_lookup(self.kind, CacheOutcome::Hit);
            return Ok(slot);
        }
        // Not in the live table: check the un-migrated remainder of the
        // old one and migrate the entry on access.
        let mut old_probed = 0;
        let mut found_old = None;
        if let Some(old) = &self.old {
            let oset = (h as usize) % old.sets;
            if oset >= self.migrate_cursor {
                let (ohit, op, _) = old.probe(oset, fp, key);
                old_probed = op;
                found_old = ohit;
            }
        }
        if let Some(slot) = found_old {
            let old = self.old.as_mut().expect("probed above");
            let (k, v) = old.remove(slot);
            self.record_probe(probed + old_probed);
            self.rehome(k, v, tick);
            self.classifier_note_hit(key);
            self.counts.cache_lookup(self.kind, CacheOutcome::Hit);
            // rehome() placed it in the live table; find it again (one
            // short window scan) to hand back its slot.
            let set = (h as usize) % self.table.sets;
            let (slot, _, _) = self.table.probe(set, fp, key);
            return Ok(slot.expect("just rehomed"));
        }
        // Full miss.
        self.record_probe(probed + old_probed);
        Err(self.classify_miss(key))
    }

    /// Run `f` over the cached value on a hit, without cloning it. Same
    /// bookkeeping as [`get`](Self::get).
    pub fn with<R>(&mut self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.get_ref(key).map(f)
    }

    /// Quiet lookup: no recency update, no statistics, no classifier, no
    /// events, no migration stepping. For callers that already recorded
    /// a miss and later need a plain presence check (e.g. re-checking
    /// after an out-of-band insert) — the re-check must not perturb the
    /// counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let h = (self.hash)(key);
        let fp = fingerprint(h);
        let set = (h as usize) % self.table.sets;
        if let (Some(slot), _, _) = self.table.probe(set, fp, key) {
            return self.table.vals[slot].as_ref();
        }
        if let Some(old) = &self.old {
            let oset = (h as usize) % old.sets;
            if oset >= self.migrate_cursor {
                if let (Some(slot), _, _) = old.probe(oset, fp, key) {
                    return old.vals[slot].as_ref();
                }
            }
        }
        None
    }

    /// Detailed lookup for tests/experiments: like [`get`](Self::get) but
    /// reports what happened.
    pub fn probe(&mut self, key: &K) -> (Option<V>, Lookup) {
        match self.lookup(key) {
            Ok(slot) => (self.table.vals[slot].clone(), Lookup::Hit),
            Err(kind) => (None, Lookup::Miss(kind)),
        }
    }

    /// Insert (or overwrite) `key → value`, evicting the set's LRU entry if
    /// the set is full. Returns the evicted entry, if any.
    ///
    /// With a budget attached, entries are evicted (LRU-first) until the
    /// new entry's bytes fit under the ceiling *before* it is placed.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let tick = self.tick;
        if self.old.is_some() {
            self.step_migration();
        }
        self.counts.cache_insertion(self.kind);
        let h = (self.hash)(&key);
        let fp = fingerprint(h);
        let set = (h as usize) % self.table.sets;
        // Overwrite in the live table: no eviction, no residency change.
        if let (Some(slot), _, _) = self.table.probe(set, fp, &key) {
            self.table.vals[slot] = Some(value);
            self.table.used[slot] = tick;
            return None;
        }
        // Overwrite of an entry still in the old table: pull it out and
        // fall through to placement (residency carries over).
        let mut carried = false;
        if let Some(old) = &mut self.old {
            let oset = (h as usize) % old.sets;
            if oset >= self.migrate_cursor {
                if let (Some(slot), _, _) = old.probe(oset, fp, &key) {
                    let _ = old.remove(slot);
                    carried = true;
                }
            }
        }
        if !carried {
            self.evict_for_budget(set);
            self.maybe_grow();
        }
        // The grow above may have swapped tables: recompute the window.
        let set = (h as usize) % self.table.sets;
        let base = set * self.assoc;
        self.table.ensure_slots(base + self.assoc);
        let (_, _, first_empty) = self.table.probe(set, fp, &key);
        let (slot, evicted) = match first_empty {
            Some(slot) => (slot, None),
            None => {
                // Evict LRU.
                let victim = self.table.window_lru(set).expect("full window");
                let (ek, ev) = self.evict_live_slot(victim);
                (victim, Some((ek, ev)))
            }
        };
        self.table.place(slot, fp, key, value, tick);
        if carried {
            // The move itself is residency-neutral, but the placement may
            // have evicted a different entry (already booked above).
        } else {
            self.note_resident_added();
        }
        evicted
    }

    /// Remove `key` if present, returning its value. (Used for explicit
    /// invalidation, e.g. on rekey.)
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let h = (self.hash)(key);
        let fp = fingerprint(h);
        let set = (h as usize) % self.table.sets;
        if let (Some(slot), _, _) = self.table.probe(set, fp, key) {
            let (_, v) = self.table.remove(slot);
            self.note_resident_removed(1);
            return Some(v);
        }
        if let Some(old) = &mut self.old {
            let oset = (h as usize) % old.sets;
            if oset >= self.migrate_cursor {
                if let (Some(slot), _, _) = old.probe(oset, fp, key) {
                    let (_, v) = old.remove(slot);
                    self.note_resident_removed(1);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Drop every entry (soft state: always safe). The grown table
    /// geometry is kept; the old table of an in-flight resize is freed.
    pub fn clear(&mut self) {
        let n = self.live;
        self.table.ctrl.clear();
        self.table.keys.clear();
        self.table.vals.clear();
        self.table.used.clear();
        self.old = None;
        self.note_resident_removed(n);
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct(n: usize) -> SoftCache<u64, String> {
        SoftCache::new(n, 1, |k: &u64| fbs_crypto::crc32(&k.to_be_bytes()))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = direct(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn overwrite_same_key_does_not_evict() {
        let mut c = direct(8);
        c.insert(1, "a".into());
        let evicted = c.insert(1, "b".into());
        assert!(evicted.is_none());
        assert_eq!(c.get(&1).as_deref(), Some("b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        // One slot: any two distinct keys conflict.
        let mut c = direct(1);
        c.insert(1, "one".into());
        let evicted = c.insert(2, "two".into());
        assert_eq!(evicted, Some((1, "one".into())));
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2).as_deref(), Some("two"));
    }

    #[test]
    fn lru_within_set() {
        // 1 set, 2-way: touching key 1 makes key 2 the LRU victim.
        let mut c: SoftCache<u64, u64> = SoftCache::new(1, 2, |_| 0);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = direct(8);
        c.insert(5, "five".into());
        assert_eq!(c.invalidate(&5).as_deref(), Some("five"));
        assert_eq!(c.get(&5), None);
        assert_eq!(c.invalidate(&5), None);
    }

    #[test]
    fn clear_empties() {
        let mut c = direct(8);
        c.insert(1, "x".into());
        c.insert(2, "y".into());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn cold_miss_classification() {
        let mut c = direct(4).with_classification();
        let (_, l1) = c.probe(&1);
        assert_eq!(l1, Lookup::Miss(MissKind::Cold));
        c.insert(1, "x".into());
        let (_, l2) = c.probe(&1);
        assert_eq!(l2, Lookup::Hit);
    }

    #[test]
    fn collision_vs_capacity_classification() {
        // 2 slots direct-mapped with a hash that maps everything to set 0:
        // keys 1 and 2 fight over one set while set 1 stays empty. A
        // fully-associative cache of capacity 2 would hold both ⇒ the
        // re-reference of key 1 is a COLLISION miss.
        let mut c: SoftCache<u64, u64> = SoftCache::new(2, 1, |_| 0).with_classification();
        c.probe(&1);
        c.insert(1, 1);
        c.probe(&2);
        c.insert(2, 2); // evicts 1 from set 0 (both hash to set 0)
        let (_, l) = c.probe(&1);
        assert_eq!(l, Lookup::Miss(MissKind::Collision));

        // Capacity miss: run 3 distinct keys through a capacity-2 cache
        // with a perfect-spread hash... use 1 set x 2-way so associativity
        // is full: any miss on a reseen key must be capacity.
        let mut c2: SoftCache<u64, u64> = SoftCache::new(1, 2, |_| 0).with_classification();
        for k in [1u64, 2, 3] {
            c2.probe(&k);
            c2.insert(k, k);
        }
        let (_, l) = c2.probe(&1); // 1 was evicted by 3 even fully-assoc
        assert_eq!(l, Lookup::Miss(MissKind::Capacity));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = direct(8).with_classification();
        for k in 0u64..8 {
            c.get(&k);
            c.insert(k, format!("{k}"));
        }
        for k in 0u64..8 {
            c.get(&k);
        }
        let s = c.stats();
        assert_eq!(s.cold_misses, 8);
        assert!(s.hits >= 6, "good hash should mostly hit: {s:?}");
        assert!(s.miss_rate() < 0.7);
    }

    #[test]
    fn miss_rate_zero_when_untouched() {
        let c = direct(4);
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_sets_panics() {
        let _ = SoftCache::<u64, u64>::new(0, 1, |_| 0);
    }

    #[test]
    fn capacity_reporting() {
        let c: SoftCache<u64, u64> = SoftCache::new(16, 4, |_| 0);
        assert_eq!(c.capacity(), 64);
        assert_eq!(c.num_sets(), 16);
        assert_eq!(c.assoc(), 4);
    }

    #[test]
    fn total_lookups_and_miss_ratio_match_primaries() {
        let mut c = direct(8);
        for k in 0u64..4 {
            c.get(&k);
            c.insert(k, format!("{k}"));
            c.get(&k);
        }
        let s = c.stats();
        assert_eq!(s.total_lookups(), s.lookups());
        assert_eq!(s.total_lookups(), 8);
        assert_eq!(s.miss_ratio(), s.miss_rate());
        assert_eq!(s.miss_ratio(), 0.5);
    }

    #[test]
    fn stats_display_is_readable() {
        let mut c = direct(8);
        c.get(&1);
        c.insert(1, "x".into());
        c.get(&1);
        let line = c.stats().to_string();
        assert!(line.contains("2 lookups"), "{line}");
        assert!(line.contains("1 hits"), "{line}");
        assert!(line.contains("50.00% miss"), "{line}");
        assert!(line.contains("1 insertions"), "{line}");
    }

    #[test]
    fn get_ref_and_with_match_get_bookkeeping() {
        let mut a = direct(4).with_classification();
        let mut b = direct(4).with_classification();
        for k in 0u64..6 {
            assert_eq!(a.get(&k), b.get_ref(&k).cloned());
            a.insert(k, format!("{k}"));
            b.insert(k, format!("{k}"));
        }
        for k in 0u64..6 {
            assert_eq!(a.get(&k), b.with(&k, |v| v.clone()));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn obs_mirrors_local_stats() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut c = direct(2).with_classification();
        c.set_obs(Arc::clone(&reg), CacheKind::Tfkc);
        for k in 0u64..6 {
            c.get(&k);
            c.insert(k, format!("{k}"));
        }
        for k in 0u64..6 {
            c.get(&k);
        }
        let s = c.stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.tfkc.hits"), s.hits);
        assert_eq!(snap.counter("cache.tfkc.cold_misses"), s.cold_misses);
        assert_eq!(
            snap.counter("cache.tfkc.capacity_misses"),
            s.capacity_misses
        );
        assert_eq!(
            snap.counter("cache.tfkc.collision_misses"),
            s.collision_misses
        );
        assert_eq!(snap.counter("cache.tfkc.insertions"), s.insertions);
        assert_eq!(snap.counter("cache.tfkc.evictions"), s.evictions);
        // Every lookup is a count; none is a flight-recorder event.
        let lookups: u64 = ["hits", "cold_misses", "capacity_misses", "collision_misses"]
            .iter()
            .map(|k| snap.counter(&format!("cache.tfkc.{k}")))
            .sum();
        assert_eq!(lookups, s.lookups());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn caches_sharing_a_block_aggregate() {
        let block = Arc::new(CounterBlock::new());
        let mut a = direct(4).with_counts(Arc::clone(&block), CacheKind::Rfkc);
        let mut b = direct(4).with_counts(Arc::clone(&block), CacheKind::Rfkc);
        let mut other_kind = direct(4).with_counts(Arc::clone(&block), CacheKind::Mkc);
        a.get(&1);
        a.insert(1, "x".into());
        b.insert(2, "y".into());
        a.get(&1);
        b.get(&2);
        other_kind.get(&3);
        let s = block.cache(CacheKind::Rfkc);
        assert_eq!(s.hits, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.lookups(), 3);
        // Both caches report the shared aggregate, read off the block
        // without borrowing either; another kind keeps its own cells.
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats(), s);
        assert_eq!(other_kind.stats().misses(), 1);
    }

    #[test]
    fn contribute_matches_registry_namespace() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut c = direct(4).with_classification();
        c.set_obs(Arc::clone(&reg), CacheKind::Rfkc);
        for k in 0u64..5 {
            c.get(&k);
            c.insert(k, format!("{k}"));
            c.get(&k);
        }
        let mut from_stats = fbs_obs::MetricsSnapshot::new();
        c.stats().contribute(CacheKind::Rfkc, &mut from_stats);
        let live = reg.snapshot();
        assert_eq!(from_stats.counters, live.counters);
    }

    // ---- incremental resize ----------------------------------------

    fn growing(num_sets: usize, assoc: usize) -> SoftCache<u64, u64> {
        SoftCache::new(num_sets, assoc, |k: &u64| {
            fbs_crypto::crc32(&k.to_be_bytes())
        })
    }

    #[test]
    fn large_caches_start_small_and_grow() {
        let c = growing(4096, 1);
        assert!(c.live_sets() <= GROW_START_SETS);
        assert_eq!(c.num_sets(), 4096);
        assert_eq!(c.capacity(), 4096);
    }

    #[test]
    fn residents_remain_hits_across_rehash_steps() {
        let mut c = growing(2048, 2);
        let mut alive: HashSet<u64> = HashSet::new();
        for k in 0u64..3000 {
            if let Some((ek, _)) = c.insert(k, k * 10) {
                alive.remove(&ek);
            }
            alive.insert(k);
            // Interleave lookups so migration steps run mid-growth and
            // resident entries are exercised while both tables exist.
            if k % 7 == 0 {
                let probe_key = k / 2;
                if alive.contains(&probe_key) {
                    assert_eq!(
                        c.get(&probe_key),
                        Some(probe_key * 10),
                        "resident key {probe_key} lost during resize (live_sets={})",
                        c.live_sets()
                    );
                }
            }
        }
        assert!(c.migrated_entries() > 0, "growth should have migrated");
        assert_eq!(c.live_sets(), 2048, "table should reach full geometry");
        // Every entry never reported evicted is still a hit.
        for k in alive.iter() {
            assert_eq!(c.get(k), Some(k * 10), "resident key {k} lost");
        }
        assert_eq!(c.len(), alive.len());
        let s = c.stats();
        assert_eq!(s.lookups(), s.hits + s.misses());
    }

    #[test]
    fn migration_work_is_bounded_per_operation() {
        let mut c = growing(2048, 1);
        // Fill past the growth trigger so a resize is in flight.
        let mut k = 0u64;
        while !c.resizing() {
            c.insert(k, k);
            k += 1;
            assert!(k < 10_000, "growth never triggered");
        }
        while c.resizing() {
            let before = c.migrated_entries();
            c.get(&0);
            let moved = c.migrated_entries() - before;
            assert!(
                moved <= (MIGRATE_SETS * c.assoc() + 1) as u64,
                "one op migrated {moved} entries"
            );
        }
    }

    #[test]
    fn probe_histogram_counts_every_classified_lookup() {
        let mut c = growing(64, 4);
        for k in 0u64..100 {
            c.get(&k);
            c.insert(k, k);
        }
        for k in 0u64..100 {
            c.get(&k);
        }
        let hist: u64 = c.probe_histogram().iter().sum();
        assert_eq!(hist, c.stats().lookups());
    }

    #[test]
    fn table_bytes_nonzero_and_bounded() {
        let mut c = growing(1024, 4);
        for k in 0u64..2000 {
            c.insert(k, k);
        }
        let bytes = c.table_bytes();
        assert!(bytes > 0);
        // Flat SoA slots for (u64 → u64): well under 200 bytes per slot
        // even counting both tables mid-resize.
        assert!(
            bytes <= (c.num_sets() * c.assoc() * 200) as u64,
            "table bytes {bytes} out of range"
        );
    }

    // ---- memory budget ----------------------------------------------

    #[test]
    fn budget_eviction_before_allocation() {
        use crate::mem::{BudgetKind, MemoryBudget};
        let entry = 64u64;
        let budget = MemoryBudget::bounded(entry * 100);
        let mut c = growing(4096, 4);
        c.set_budget(budget.clone(), BudgetKind::Tfkc, entry);
        for k in 0u64..1000 {
            c.insert(k, k);
            assert!(
                budget.used_bytes() <= budget.limit_bytes(),
                "budget overshot at k={k}: {} > {}",
                budget.used_bytes(),
                budget.limit_bytes()
            );
        }
        assert!(c.len() <= 100);
        assert!(c.stats().evictions >= 900);
        assert_eq!(budget.used_bytes(), c.len() as u64 * entry);
        assert_eq!(
            budget.exceeded_events(),
            0,
            "eviction must pre-empt overshoot"
        );
        // Recent keys are still served.
        assert_eq!(c.get(&999), Some(999));
    }

    #[test]
    fn budget_shared_across_kinds_evicts_locally() {
        use crate::mem::{BudgetKind, MemoryBudget};
        let entry = 32u64;
        let budget = MemoryBudget::bounded(entry * 40);
        let mut tx = growing(1024, 2);
        let mut rx = growing(1024, 2);
        tx.set_budget(budget.clone(), BudgetKind::Tfkc, entry);
        rx.set_budget(budget.clone(), BudgetKind::Rfkc, entry);
        for k in 0u64..200 {
            tx.insert(k, k);
            rx.insert(k + 1_000_000, k);
        }
        assert!(budget.used_bytes() <= budget.limit_bytes());
        assert!(tx.len() + rx.len() <= 40);
        assert!(
            !tx.is_empty() && !rx.is_empty(),
            "both kinds keep some residency"
        );
        assert_eq!(budget.used_by(BudgetKind::Tfkc), tx.len() as u64 * entry);
        assert_eq!(budget.used_by(BudgetKind::Rfkc), rx.len() as u64 * entry);
    }

    #[test]
    fn budget_ledger_survives_invalidate_and_clear() {
        use crate::mem::{BudgetKind, MemoryBudget};
        let entry = 16u64;
        let budget = MemoryBudget::bounded(entry * 1000);
        let mut c = growing(64, 2);
        c.set_budget(budget.clone(), BudgetKind::Mkc, entry);
        for k in 0u64..50 {
            c.insert(k, k);
        }
        let before = budget.used_bytes();
        assert_eq!(before, c.len() as u64 * entry);
        c.invalidate(&10);
        assert_eq!(budget.used_bytes(), c.len() as u64 * entry);
        c.clear();
        assert_eq!(budget.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn budget_coherent_under_resize_and_eviction_storm() {
        use crate::mem::{BudgetKind, MemoryBudget};
        let entry = 48u64;
        let budget = MemoryBudget::bounded(entry * 300);
        let mut c = growing(8192, 4);
        c.set_budget(budget.clone(), BudgetKind::Rfkc, entry);
        // Storm: working set far above both the budget and the initial
        // table, with interleaved lookups driving migration.
        for round in 0u64..3 {
            for k in 0u64..2000 {
                c.insert(round * 10_000 + k, k);
                if k % 3 == 0 {
                    c.get(&(round * 10_000 + k / 2));
                }
            }
        }
        let s = c.stats();
        assert_eq!(s.lookups(), s.hits + s.misses());
        assert_eq!(budget.used_bytes(), c.len() as u64 * entry);
        assert!(budget.used_bytes() <= budget.limit_bytes());
        assert!(s.evictions > 0);
        assert_eq!(budget.exceeded_events(), 0);
    }

    // ---- classifier cap ---------------------------------------------

    #[test]
    fn classifier_disables_at_history_cap() {
        let mut c: SoftCache<u64, u64> =
            SoftCache::new(8, 1, |k: &u64| fbs_crypto::crc32(&k.to_be_bytes()))
                .with_classification_capped(4);
        for k in 0u64..4 {
            let (_, l) = c.probe(&k);
            assert_eq!(l, Lookup::Miss(MissKind::Cold), "under cap: cold");
            c.insert(k, k);
        }
        assert_eq!(c.stats().classifier_disabled, 0);
        // The 5th distinct key would push the history past its cap:
        // classification turns itself off and the miss is capacity.
        let (_, l) = c.probe(&100);
        assert_eq!(l, Lookup::Miss(MissKind::Capacity));
        assert_eq!(c.stats().classifier_disabled, 1);
        // Still off (counted once), and the cache still works.
        let (_, l) = c.probe(&200);
        assert_eq!(l, Lookup::Miss(MissKind::Capacity));
        assert_eq!(c.stats().classifier_disabled, 1);
        c.insert(100, 100);
        assert_eq!(c.get(&100), Some(100));
    }

    #[test]
    fn default_classification_cap_is_generous() {
        // The figure experiments must never hit the cap.
        let mut c = direct(128).with_classification();
        for k in 0u64..10_000 {
            c.get(&k);
            c.insert(k, format!("{k}"));
        }
        assert_eq!(c.stats().classifier_disabled, 0);
        assert_eq!(c.stats().cold_misses, 10_000);
    }
}
