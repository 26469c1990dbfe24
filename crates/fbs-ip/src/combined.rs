//! The combined FST + TFKC of §7.2.
//!
//! "For efficiency reasons, we have combined the flow association mechanism
//! and the flow key generation. FBSSend() hashes on the 5-tuple and uses
//! the result as an index into the TFKC. If the indexed entry is 'active'
//! (last use is less than THRESHOLD ago), it uses the stored flow key.
//! Otherwise, it begins a new flow by assigning a new sfl and calculating
//! the new flow key. In this way, the mapper module and the key cache
//! lookup are combined, saving an extra lookup. The job of the sweeper
//! also becomes implicit, absorbed into the mapping phase."

use crate::tuple::FiveTuple;
use fbs_core::{ChunkDir, SealedFlowKey, SflAllocator, CHUNK_SLOTS};
use fbs_crypto::crc32;
use fbs_obs::{CacheKind, CacheOutcome, CounterBlock};
use std::sync::Arc;

/// One merged FST/TFKC entry: flow identity + its cached key.
#[derive(Clone)]
struct Entry {
    tuple: FiveTuple,
    sfl: u64,
    key: Box<SealedFlowKey>,
    last_secs: u64,
}

/// Statistics for the combined table: a view over the
/// `cache.combined.*` cells of a counter block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinedStats {
    /// Datagrams that reused an active entry (single lookup, no crypto):
    /// `cache.combined.hits`.
    pub hits: u64,
    /// New flows started (expired entry, empty slot, or collision):
    /// `cache.combined.insertions`.
    pub new_flows: u64,
    /// New flows that displaced a still-active different tuple:
    /// `cache.combined.collision_misses`.
    pub collisions: u64,
}

impl CombinedStats {
    /// Read the view off `counts`.
    pub fn read(counts: &CounterBlock) -> Self {
        let c = counts.cache(CacheKind::Combined);
        CombinedStats {
            hits: c.hits,
            new_flows: c.insertions,
            collisions: c.collision_misses,
        }
    }
}

/// A table's slots, stored as a [`ChunkDir`] of fixed-size chunks of
/// [`CHUNK_SLOTS`] (the last one partly unused when the size is not a
/// multiple). A chunk is allocated by the first insert that lands in
/// it; a missing chunk reads as empty slots, so the memory tracks the
/// slots flows touched, not the configured size.
struct Slots {
    len: usize,
    chunks: ChunkDir<[Option<Entry>; CHUNK_SLOTS]>,
}

impl Slots {
    fn new(len: usize) -> Self {
        Slots {
            len,
            chunks: ChunkDir::new(len.div_ceil(CHUNK_SLOTS)),
        }
    }

    fn get(&self, i: usize) -> Option<&Entry> {
        self.chunks.get(i / CHUNK_SLOTS)?[i % CHUNK_SLOTS].as_ref()
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut Entry> {
        self.chunks.get_mut(i / CHUNK_SLOTS)?[i % CHUNK_SLOTS].as_mut()
    }

    /// Slot `i` for writing, its chunk allocated if it has none yet.
    fn slot_mut(&mut self, i: usize) -> &mut Option<Entry> {
        let chunk = self
            .chunks
            .get_or_alloc(i / CHUNK_SLOTS, || [const { None }; CHUNK_SLOTS]);
        &mut chunk[i % CHUNK_SLOTS]
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flat_map(|c| c.iter().flatten())
    }
}

/// The merged flow-state/flow-key table.
pub struct CombinedTable {
    slots: Slots,
    threshold_secs: u64,
    alloc: SflAllocator,
    /// Where the counts go: a private block by default, or the
    /// endpoint's ([`with_counts`](Self::with_counts)).
    counts: Arc<CounterBlock>,
}

impl CombinedTable {
    /// Bytes one slot occupies once its chunk is allocated, empty or not:
    /// what a table that fills costs per configured slot.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<Entry>>();

    /// Create a table with `size` direct-mapped slots and the given
    /// THRESHOLD. No slot is allocated until an insert lands in its
    /// chunk.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, threshold_secs: u64, alloc: SflAllocator) -> Self {
        assert!(size > 0, "combined table needs at least one slot");
        CombinedTable {
            slots: Slots::new(size),
            threshold_secs,
            alloc,
            counts: Arc::new(CounterBlock::new()),
        }
    }

    /// Count into `counts` (builder style, before the first lookup): how
    /// a shard's table shares its owner's block, which only one writer
    /// at a time may write.
    pub fn with_counts(mut self, counts: Arc<CounterBlock>) -> Self {
        self.counts = counts;
        self
    }

    fn slot_of(&self, tuple: &FiveTuple) -> usize {
        crc32(&tuple.canonical_array()) as usize % self.slots.len
    }

    /// The single lookup of the send path: on an active same-tuple
    /// entry, refresh it and lend its sfl and flow key (key material
    /// pre-expanded for its suite) for as long as the table is not
    /// touched again; on a miss, record the miss (a displaced live entry
    /// counts as a collision) and return `None`. The caller then starts
    /// the flow: [`reserve_sfl`](Self::reserve_sfl), derive, and
    /// [`insert_reusing`](Self::insert_reusing) (or
    /// [`insert`](Self::insert)).
    pub fn probe(&mut self, tuple: &FiveTuple, now_secs: u64) -> Option<(u64, &SealedFlowKey)> {
        let i = self.slot_of(tuple);
        let mut displaced_live = false;
        if let Some(e) = self.slots.get_mut(i) {
            let active = now_secs.saturating_sub(e.last_secs) <= self.threshold_secs;
            if active && e.tuple == *tuple {
                self.counts
                    .cache_lookup(CacheKind::Combined, CacheOutcome::Hit);
                e.last_secs = now_secs;
                return Some((e.sfl, &*e.key));
            }
            // A live different flow is displaced: premature termination
            // by hash collision (harmless for security, footnote 11).
            displaced_live = active;
        }
        self.counts.cache_lookup(
            CacheKind::Combined,
            if displaced_live {
                CacheOutcome::MissCollision
            } else {
                CacheOutcome::MissCold
            },
        );
        None
    }

    /// Would [`probe`](Self::probe) of `tuple` at `now_secs` start a new
    /// flow, once `pending` (a flow this table is about to insert, if
    /// any) holds its slot? A quiet look: it counts nothing and
    /// refreshes nothing.
    pub(crate) fn would_start(
        &self,
        tuple: &FiveTuple,
        now_secs: u64,
        pending: Option<&FiveTuple>,
    ) -> bool {
        let i = self.slot_of(tuple);
        if let Some(p) = pending.filter(|p| self.slot_of(p) == i) {
            return p != tuple;
        }
        !self.slots.get(i).is_some_and(|e| {
            e.tuple == *tuple && now_secs.saturating_sub(e.last_secs) <= self.threshold_secs
        })
    }

    /// The sfl the next [`reserve_sfl`](Self::reserve_sfl) will return.
    pub(crate) fn next_sfl(&self) -> u64 {
        self.alloc.peek()
    }

    /// Allocate the sfl for a flow about to start. Separated from
    /// [`insert`](Self::insert) so the sfl is reserved before the key is
    /// derived: an sfl burned on a derivation error is never reused.
    pub fn reserve_sfl(&mut self) -> u64 {
        self.alloc.next_sfl()
    }

    /// Install a freshly-derived flow, counting the new flow, and lend
    /// its key back, as a hit's [`probe`](Self::probe) would. The table
    /// owns its keys in a `Box`: `key` is moved out of its `Arc` (cloned
    /// when someone else still holds it), and into the displaced key's
    /// allocation as [`insert_reusing`](Self::insert_reusing) does. The
    /// `Arc` parameter serves a caller that shares one key between
    /// tables; ROADMAP item 1(a) retires it.
    pub fn insert(
        &mut self,
        tuple: FiveTuple,
        sfl: u64,
        key: Arc<SealedFlowKey>,
        now_secs: u64,
    ) -> &SealedFlowKey {
        self.insert_reusing(tuple, sfl, Arc::unwrap_or_clone(key), now_secs)
    }

    /// [`insert`](Self::insert) a flow born with `key`, in the allocation
    /// of the key it displaces ([`SealedFlowKey::into_box_reusing`]): a
    /// birth into an occupied slot allocates nothing for an AEAD key.
    pub fn insert_reusing(
        &mut self,
        tuple: FiveTuple,
        sfl: u64,
        key: SealedFlowKey,
        now_secs: u64,
    ) -> &SealedFlowKey {
        self.counts.cache_insertion(CacheKind::Combined);
        let i = self.slot_of(&tuple);
        let slot = self.slots.slot_mut(i);
        let key = key.into_box_reusing(slot.take().map(|e| e.key));
        let e = slot.insert(Entry {
            tuple,
            sfl,
            key,
            last_secs: now_secs,
        });
        &e.key
    }

    /// Invalidate every entry (e.g. after a rekey of the local
    /// principal), freeing every chunk.
    pub fn clear(&mut self) {
        self.slots.chunks.clear();
    }

    /// Number of entries active at `now_secs` (Fig. 12's metric under the
    /// combined implementation).
    pub fn active_flows(&self, now_secs: u64) -> usize {
        self.slots
            .entries()
            .filter(|e| now_secs.saturating_sub(e.last_secs) <= self.threshold_secs)
            .count()
    }

    /// Chunks of slots allocated so far: the table's resident slot
    /// bytes are this many × [`CHUNK_SLOTS`] ×
    /// [`SLOT_BYTES`](Self::SLOT_BYTES).
    #[cfg(test)]
    pub(crate) fn chunks_owned(&self) -> usize {
        self.slots.chunks.owned()
    }

    /// Accumulated statistics, read off the counter block.
    pub fn stats(&self) -> CombinedStats {
        CombinedStats::read(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_core::{EncAlgorithm, FlowKey};
    use fbs_crypto::{CipherSuite, MacAlgorithm};

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple {
            proto: 17,
            saddr: [10, 0, 0, 1],
            sport,
            daddr: [10, 0, 0, 2],
            dport: 53,
        }
    }

    fn table() -> CombinedTable {
        CombinedTable::new(64, 600, SflAllocator::new(100))
    }

    /// An AEAD key, whose ChaCha key tells flows apart.
    fn sealed(sfl: u64) -> SealedFlowKey {
        SealedFlowKey::seal_for(
            FlowKey::new(&sfl.to_be_bytes().repeat(2)),
            CipherSuite::AeadChaPoly,
            MacAlgorithm::Poly1305,
            EncAlgorithm::ChaCha20,
        )
    }

    fn fake_key(sfl: u64) -> Result<Arc<SealedFlowKey>, ()> {
        Ok(Arc::new(sealed(sfl)))
    }

    /// One datagram's send-path resolution: the flow's sfl, its ChaCha
    /// key, and whether it started a new flow, keyed by `derive`.
    fn resolve<E>(
        t: &mut CombinedTable,
        tuple: FiveTuple,
        now_secs: u64,
        derive: impl FnOnce(u64) -> Result<Arc<SealedFlowKey>, E>,
    ) -> Result<(u64, Vec<u8>, bool), E> {
        if let Some((sfl, key)) = t.probe(&tuple, now_secs) {
            return Ok((sfl, key.chacha_key().unwrap().to_vec(), false));
        }
        let sfl = t.reserve_sfl();
        let key = t.insert(tuple, sfl, derive(sfl)?, now_secs);
        Ok((sfl, key.chacha_key().unwrap().to_vec(), true))
    }

    #[test]
    fn first_lookup_derives_second_reuses() {
        let mut t = table();
        let mut derived = 0;
        let (sfl1, key1, new1) = resolve(&mut t, tuple(9), 0, |sfl| {
            derived += 1;
            fake_key(sfl)
        })
        .unwrap();
        assert!(new1);
        let (sfl2, key2, new2) = resolve(&mut t, tuple(9), 10, |sfl| {
            derived += 1;
            fake_key(sfl)
        })
        .unwrap();
        assert!(!new2);
        assert_eq!(sfl1, sfl2);
        assert_eq!(key1, key2);
        assert_eq!(derived, 1, "key derivation happens once per flow");
        assert_eq!(t.stats().hits, 1);
    }

    /// `would_start` names what the probe will do, without counting or
    /// refreshing anything: for the tuple itself, and for the next tuple
    /// once this one (pending) holds its slot. `next_sfl` names the sfl
    /// a start takes.
    #[test]
    fn would_start_predicts_the_probe_quietly() {
        let mut t = CombinedTable::new(8, 600, SflAllocator::with_stride(3, 4));
        for step in 0..300u64 {
            let (x, y) = (
                tuple((step % 13) as u16),
                tuple(((step * 7 + 1) % 13) as u16),
            );
            let now = step * 41;
            let before = t.stats();
            let (x_starts, y_after_x) = (
                t.would_start(&x, now, None),
                t.would_start(&y, now, Some(&x)),
            );
            assert_eq!(t.stats(), before, "a quiet look counts nothing");
            let sfl = t.next_sfl();
            let (got, _, started) = resolve(&mut t, x, now, fake_key).unwrap();
            assert_eq!(started, x_starts, "step {step}");
            if started {
                assert_eq!(got, sfl, "step {step}");
            }
            assert_eq!(t.would_start(&y, now, None), y_after_x, "step {step}");
            let (_, _, started) = resolve(&mut t, y, now, fake_key).unwrap();
            assert_eq!(started, y_after_x, "step {step}");
        }
    }

    #[test]
    fn expiry_is_implicit_in_the_mapping_phase() {
        // No sweeper call exists; expiry shows up as a new flow on the next
        // lookup after the gap.
        let mut t = table();
        let (sfl1, key1, _) = resolve(&mut t, tuple(9), 0, fake_key).unwrap();
        let (sfl2, key2, new2) = resolve(&mut t, tuple(9), 601, fake_key).unwrap();
        assert!(new2);
        assert_ne!(sfl1, sfl2);
        assert_ne!(key1, key2);
    }

    #[test]
    fn derive_error_propagates_and_does_not_install() {
        let mut t = CombinedTable::new(4, 600, SflAllocator::new(0));
        let r: Result<_, &str> = resolve(&mut t, tuple(9), 0, |_| Err("mkd down"));
        assert_eq!(r.err(), Some("mkd down"));
        // Next attempt still treats it as a new flow.
        let (_, _, new_flow) = resolve(&mut t, tuple(9), 0, fake_key).unwrap();
        assert!(new_flow);
    }

    #[test]
    fn active_flow_count_tracks_threshold() {
        let mut t = table();
        resolve(&mut t, tuple(1), 0, fake_key).unwrap();
        resolve(&mut t, tuple(2), 100, fake_key).unwrap();
        assert_eq!(t.active_flows(100), 2);
        assert_eq!(t.active_flows(650), 1);
        assert_eq!(t.active_flows(5000), 0);
    }

    /// The table's slot for `tuple` as the paper defines it, outside the
    /// table: the CRC-32 of the tuple modulo the size.
    fn slot(tuple: &FiveTuple, size: usize) -> usize {
        crc32(&tuple.canonical_array()) as usize % size
    }

    #[test]
    fn a_table_with_no_insert_owns_no_chunk() {
        let mut t = CombinedTable::new(65_536, 600, SflAllocator::new(1));
        assert_eq!(t.chunks_owned(), 0);
        // Misses, quiet looks and counts read missing chunks as empty.
        for sport in 0..512 {
            assert!(t.probe(&tuple(sport), 0).is_none());
            assert!(t.would_start(&tuple(sport), 0, None));
        }
        assert_eq!(t.active_flows(0), 0);
        t.clear();
        assert_eq!(t.chunks_owned(), 0);
        assert_eq!(t.stats().new_flows, 0);
    }

    #[test]
    fn inserts_own_exactly_the_chunks_their_slots_fall_in() {
        // 4,100 slots: 64 full chunks and one holding the last 4.
        let size = 4_100;
        let mut t = CombinedTable::new(size, 600, SflAllocator::new(1));
        let mut chunks = std::collections::BTreeSet::new();
        for sport in (0..3_000).step_by(97) {
            let tup = tuple(sport);
            let sfl = t.reserve_sfl();
            t.insert_reusing(tup, sfl, sealed(sfl), 0);
            chunks.insert(slot(&tup, size) / CHUNK_SLOTS);
            assert_eq!(t.chunks_owned(), chunks.len(), "after sport {sport}");
        }
        assert!(
            chunks.len() < size.div_ceil(CHUNK_SLOTS),
            "some chunk stays unused"
        );
        t.clear();
        assert_eq!(t.chunks_owned(), 0, "a cleared table frees its chunks");
    }

    /// A seeded mix of births, hits, expiries, quiet looks, counts and
    /// clears against a full-array model of the same slots: the chunked
    /// table answers every call as the array does.
    #[test]
    fn chunked_slots_agree_with_a_full_array() {
        // (tuple, sfl, last_secs) per slot, every slot present up front.
        type Model = Vec<Option<(FiveTuple, u64, u64)>>;
        const THRESHOLD: u64 = 600;
        let size = 200; // three chunks and 8 slots of a fourth
        let mut t = CombinedTable::new(size, THRESHOLD, SflAllocator::new(7));
        let mut model: Model = vec![None; size];
        let mut model_sfl = SflAllocator::new(7);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let live = |m: &Model, i: usize, tuple: &FiveTuple, now: u64| {
            m[i].is_some_and(|(held, _, last)| {
                held == *tuple && now.saturating_sub(last) <= THRESHOLD
            })
        };
        let mut now = 0u64;
        for step in 0..20_000 {
            now += match next(100) {
                0 => 700, // past THRESHOLD: everything expires
                n => n % 4,
            };
            let tup = tuple(next(600) as u16);
            let i = slot(&tup, size);
            match next(100) {
                0 => {
                    t.clear();
                    model.fill(None);
                }
                1..=5 => {
                    let want = model.iter().flatten().filter(|e| now - e.2 <= THRESHOLD);
                    assert_eq!(t.active_flows(now), want.count(), "step {step}");
                }
                6..=15 => {
                    let pending = tuple(next(600) as u16);
                    let want = if slot(&pending, size) == i {
                        pending != tup
                    } else {
                        !live(&model, i, &tup, now)
                    };
                    assert_eq!(
                        t.would_start(&tup, now, Some(&pending)),
                        want,
                        "step {step}"
                    );
                    let alone = !live(&model, i, &tup, now);
                    assert_eq!(t.would_start(&tup, now, None), alone, "step {step}");
                }
                op => {
                    let want = live(&model, i, &tup, now).then(|| model[i].unwrap().1);
                    let got = t.probe(&tup, now).map(|(sfl, key)| {
                        assert_eq!(key.chacha_key(), fake_key(sfl).unwrap().chacha_key());
                        sfl
                    });
                    assert_eq!(got, want, "step {step}");
                    match want {
                        Some(sfl) => model[i] = Some((tup, sfl, now)),
                        None => {
                            let sfl = t.reserve_sfl();
                            assert_eq!(sfl, model_sfl.next_sfl());
                            if op % 2 == 0 {
                                t.insert(tup, sfl, fake_key(sfl).unwrap(), now);
                            } else {
                                t.insert_reusing(tup, sfl, sealed(sfl), now);
                            }
                            model[i] = Some((tup, sfl, now));
                        }
                    }
                }
            }
        }
    }

    /// A birth writes its key into the allocation of the key it
    /// displaces: the slot's key sits at the same address before and
    /// after, holding the new flow's bytes. (A `Box` cannot be shared,
    /// so no one else sees the overwrite; that the birth allocates
    /// nothing is counted by `tests/births_allocate_nothing.rs`, which
    /// has an allocator to count with.)
    #[test]
    fn a_birth_writes_its_key_into_the_displaced_allocation() {
        let mut t = CombinedTable::new(1, 600, SflAllocator::new(1));
        let held = t.insert(tuple(3), 12, fake_key(12).unwrap(), 0) as *const SealedFlowKey;
        let born = t.insert_reusing(tuple(4), 13, sealed(13), 0) as *const SealedFlowKey;
        assert_eq!(born, held);
        let (sfl, key) = t.probe(&tuple(4), 0).unwrap();
        assert_eq!(sfl, 13);
        assert_eq!(key as *const SealedFlowKey, held);
        assert_eq!(key.chacha_key(), sealed(13).chacha_key());
    }

    #[test]
    fn clear_forces_rederivation() {
        let mut t = table();
        let (sfl1, _, _) = resolve(&mut t, tuple(1), 0, fake_key).unwrap();
        t.clear();
        let (sfl2, _, new2) = resolve(&mut t, tuple(1), 1, fake_key).unwrap();
        assert!(new2);
        assert_ne!(sfl1, sfl2);
    }
}
