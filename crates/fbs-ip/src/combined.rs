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
use fbs_core::{SealedFlowKey, SflAllocator};
use fbs_crypto::crc32;
use fbs_obs::{CacheKind, CacheOutcome, CounterBlock};
use std::sync::Arc;

/// One merged FST/TFKC entry: flow identity + its cached key.
#[derive(Clone)]
struct Entry {
    tuple: FiveTuple,
    sfl: u64,
    key: Arc<SealedFlowKey>,
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

/// The merged flow-state/flow-key table.
pub struct CombinedTable {
    slots: Vec<Option<Entry>>,
    threshold_secs: u64,
    alloc: SflAllocator,
    /// Where the counts go: a private block by default, or the
    /// endpoint's ([`with_counts`](Self::with_counts)).
    counts: Arc<CounterBlock>,
}

impl CombinedTable {
    /// Bytes one slot occupies, empty or not — the table's resident floor
    /// per slot.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<Entry>>();

    /// Create a table with `size` direct-mapped slots and the given
    /// THRESHOLD.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, threshold_secs: u64, alloc: SflAllocator) -> Self {
        assert!(size > 0, "combined table needs at least one slot");
        CombinedTable {
            slots: (0..size).map(|_| None).collect(),
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
        crc32(&tuple.canonical_array()) as usize % self.slots.len()
    }

    /// The single lookup of the send path: on an active same-tuple
    /// entry, refresh it and lend its sfl and flow key (key material
    /// pre-expanded for its suite) for as long as the table is not
    /// touched again; on a miss, record the miss (a displaced live entry
    /// counts as a collision) and return `None`. The caller then starts
    /// the flow: [`reserve_sfl`](Self::reserve_sfl), derive, and
    /// [`insert`](Self::insert).
    pub fn probe(&mut self, tuple: &FiveTuple, now_secs: u64) -> Option<(u64, &SealedFlowKey)> {
        let i = self.slot_of(tuple);
        let mut displaced_live = false;
        if let Some(e) = &self.slots[i] {
            let active = now_secs.saturating_sub(e.last_secs) <= self.threshold_secs;
            if active && e.tuple == *tuple {
                self.counts
                    .cache_lookup(CacheKind::Combined, CacheOutcome::Hit);
                let e = self.slots[i].as_mut().expect("matched above");
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

    /// Allocate the sfl for a flow about to start. Separated from
    /// [`insert`](Self::insert) so the sfl is reserved before the key is
    /// derived: an sfl burned on a derivation error is never reused.
    pub fn reserve_sfl(&mut self) -> u64 {
        self.alloc.next_sfl()
    }

    /// Install a freshly-derived flow, counting the new flow, and lend
    /// its key back, as a hit's [`probe`](Self::probe) would.
    pub fn insert(
        &mut self,
        tuple: FiveTuple,
        sfl: u64,
        key: Arc<SealedFlowKey>,
        now_secs: u64,
    ) -> &SealedFlowKey {
        self.counts.cache_insertion(CacheKind::Combined);
        let i = self.slot_of(&tuple);
        let e = self.slots[i].insert(Entry {
            tuple,
            sfl,
            key,
            last_secs: now_secs,
        });
        &e.key
    }

    /// Invalidate every entry (e.g. after a rekey of the local principal).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }

    /// Number of entries active at `now_secs` (Fig. 12's metric under the
    /// combined implementation).
    pub fn active_flows(&self, now_secs: u64) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|e| now_secs.saturating_sub(e.last_secs) <= self.threshold_secs)
            .count()
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
    fn fake_key(sfl: u64) -> Result<Arc<SealedFlowKey>, ()> {
        Ok(Arc::new(SealedFlowKey::seal_for(
            FlowKey::new(&sfl.to_be_bytes().repeat(2)),
            CipherSuite::AeadChaPoly,
            MacAlgorithm::Poly1305,
            EncAlgorithm::ChaCha20,
        )))
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
