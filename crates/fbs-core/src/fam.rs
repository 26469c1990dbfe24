//! The Flow Association Mechanism (FAM) — paper §5.1, Fig. 1.
//!
//! The FAM separates outgoing datagrams into flows. It is *policy driven*:
//! the mechanism (the flow state table here) is fixed, while policy
//! modules "plug in" to decide (a) which table entry a datagram's
//! attributes map to, (b) whether an entry describes the same flow, and
//! (c) when a flow has expired. The state is purely local to the source
//! principal — the destination only ever demultiplexes on the *sfl* — so
//! no state synchronisation is needed between the two ends.
//!
//! One table, [`Fst`], serves both of the paper's forms, generic over
//! what a flow keeps beside its identity. The FAM's callers keep a
//! [`FlowUse`] and classify in one call ([`Fst::classify`]). The IP
//! datapath keeps the flow's sealed key, the combined FST/TFKC of §7.2,
//! and calls the two halves around its key derive: [`Fst::probe`], then
//! [`Fst::reserve_sfl`] and [`Fst::insert_with`]. In both, the sweeper is
//! implicit (§7.2): an expired entry is replaced by the next flow that
//! maps to its slot.

use crate::chunks::{ChunkDir, CHUNK_SLOTS};
use crate::sfl::SflAllocator;
use fbs_obs::{CacheKind, CacheOutcome, CounterBlock};
use std::sync::Arc;

/// One active flow in the flow state table (paper Fig. 7's `FSTEntry`,
/// generalised over the attribute type and the per-flow value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FstEntry<A, V> {
    /// The attributes that define the flow (e.g. a 5-tuple).
    pub attrs: A,
    /// Security flow label assigned to this flow.
    pub sfl: u64,
    /// Seconds-since-epoch of the last datagram in the flow (Fig. 7's
    /// `last` field, compared against THRESHOLD by the sweeper).
    pub last: u64,
    /// What the flow keeps beside its identity: a [`FlowUse`] for the
    /// FAM, the sealed flow key for the §7.2 datapath.
    pub value: V,
}

/// What a FAM flow has carried so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowUse {
    /// Seconds-since-epoch when the flow started.
    pub created: u64,
    /// Datagrams classified into this flow.
    pub packets: u64,
    /// Payload bytes classified into this flow.
    pub bytes: u64,
}

/// A policy module pair (mapper + sweeper) in the sense of Fig. 1.
///
/// `index`/`same_flow` realise the **mapper**: locate the candidate entry
/// and decide whether it is this datagram's flow. `expired` realises the
/// **sweeper** predicate. The FAM mechanics never interpret attributes
/// themselves. `V` is the per-flow value of the table the policy serves;
/// a policy that reads only `last` serves every table.
pub trait FlowPolicy<A, V = FlowUse> {
    /// Map attributes to a flow-state-table index (e.g. `CRC-32(attrs) mod
    /// FSTSIZE` in the Fig. 7 policy).
    fn index(&self, attrs: &A, table_size: usize) -> usize;

    /// Does an entry holding `entry_attrs` describe the flow of a datagram
    /// with `attrs`?
    fn same_flow(&self, entry_attrs: &A, attrs: &A) -> bool;

    /// Has this flow expired (sweeper predicate)? The Fig. 7 policy expires
    /// entries whose last datagram is more than THRESHOLD seconds old.
    fn expired(&self, entry: &FstEntry<A, V>, now_secs: u64) -> bool;
}

/// A [`FlowPolicy`] whose index reduces a hash of the attributes, which
/// a caller may compute once and reuse: the datapath partitions an
/// output datagram by the same CRC-32 that picks its table slot
/// ([`Fst::probe_hashed`]). `index(attrs, n)` must equal
/// `slot(hash(attrs), n)`.
pub trait HashedFlowPolicy<A, V = FlowUse>: FlowPolicy<A, V> {
    /// The hash of `attrs` that [`slot`](Self::slot) reduces.
    fn hash(&self, attrs: &A) -> u32;

    /// The index a hash maps to in a table of `table_size` slots.
    fn slot(&self, hash: u32, table_size: usize) -> usize;
}

/// Result of classifying one datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification<A> {
    /// The security flow label to put in the datagram's FBS header.
    pub sfl: u64,
    /// Did this datagram start a new flow?
    pub new_flow: bool,
    /// The flow the new one displaced from its slot, finished: expired,
    /// or live and cut short by an index collision (footnote 11 —
    /// harmless for security, bad for efficiency).
    pub displaced: Option<FstEntry<A, FlowUse>>,
}

/// Statistics of a flow state table: a view over the `cache.combined.*`
/// cells of the counter block it counts into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FstStats {
    /// Datagrams that joined an active flow (single lookup, no crypto):
    /// `cache.combined.hits`.
    pub hits: u64,
    /// New flows started (expired entry, empty slot, or collision):
    /// `cache.combined.insertions`.
    pub new_flows: u64,
    /// New flows that displaced a still-active different flow (index
    /// collisions; footnote 11): `cache.combined.collision_misses`.
    pub collisions: u64,
}

impl FstStats {
    /// Read the view off `counts`.
    pub fn read(counts: &CounterBlock) -> Self {
        let c = counts.cache(CacheKind::Combined);
        FstStats {
            hits: c.hits,
            new_flows: c.insertions,
            collisions: c.collision_misses,
        }
    }
}

/// The FAM's table: flows that count what they carry.
pub type Fam<A, P> = Fst<A, P, FlowUse>;

/// The flow state table: direct-mapped slots under a pluggable policy.
///
/// The slots are a [`ChunkDir`] of [`CHUNK_SLOTS`]-slot chunks (the last
/// one partly unused when the size is not a multiple). A chunk is
/// allocated by the first insert that lands in it; a missing chunk reads
/// as empty slots, so the memory tracks the slots flows touched, not the
/// configured size.
///
/// ```
/// use fbs_core::{Fam, SflAllocator};
/// use fbs_core::policy::IdleTimeoutPolicy;
///
/// let mut fam = Fam::new(64, IdleTimeoutPolicy::new(600), SflAllocator::new(1000));
/// let first = fam.classify("conversation-a".to_string(), /*now:*/ 0, /*bytes:*/ 120);
/// let again = fam.classify("conversation-a".to_string(), 30, 80);
/// assert_eq!(first.sfl, again.sfl, "same conversation, same flow");
/// let other = fam.classify("conversation-b".to_string(), 30, 80);
/// assert_ne!(first.sfl, other.sfl, "separate conversation, separate key");
/// ```
pub struct Fst<A, P, V> {
    len: usize,
    slots: ChunkDir<[Option<FstEntry<A, V>>; CHUNK_SLOTS]>,
    policy: P,
    alloc: SflAllocator,
    /// Where the counts go: a private block by default, or the
    /// endpoint's ([`with_counts`](Self::with_counts)).
    counts: Arc<CounterBlock>,
}

impl<A, P: FlowPolicy<A, V>, V> Fst<A, P, V> {
    /// Bytes one slot occupies once its chunk is allocated, empty or not:
    /// what a table that fills costs per configured slot.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<FstEntry<A, V>>>();

    /// Create a table with `size` slots (Fig. 7's FSTSIZE), the given
    /// policy, and an sfl allocator seeded by the caller. No slot is
    /// allocated until an insert lands in its chunk.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, policy: P, alloc: SflAllocator) -> Self {
        assert!(size > 0, "FST must have at least one slot");
        Fst {
            len: size,
            slots: ChunkDir::new(size.div_ceil(CHUNK_SLOTS)),
            policy,
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

    fn slot_of(&self, attrs: &A) -> usize {
        self.policy.index(attrs, self.len)
    }

    /// The single lookup of the §7.2 send path: on an active entry of
    /// the same flow, refresh it and lend its sfl and value (the flow
    /// key, pre-expanded for its suite) until the table is touched again;
    /// on a miss, count it (a displaced live entry is a collision) and
    /// return `None`. The caller then starts the flow:
    /// [`reserve_sfl`](Self::reserve_sfl), derive, and
    /// [`insert_with`](Self::insert_with).
    pub fn probe(&mut self, attrs: &A, now_secs: u64) -> Option<(u64, &mut V)> {
        self.probe_slot(self.slot_of(attrs), attrs, now_secs)
    }

    /// [`probe`](Self::probe) at `attrs`' slot `i`.
    fn probe_slot(&mut self, i: usize, attrs: &A, now_secs: u64) -> Option<(u64, &mut V)> {
        let slot = self.slots.get_mut(i / CHUNK_SLOTS);
        let miss = match slot.and_then(|c| c[i % CHUNK_SLOTS].as_mut()) {
            Some(e) if !self.policy.expired(e, now_secs) => {
                if self.policy.same_flow(&e.attrs, attrs) {
                    self.counts
                        .cache_lookup(CacheKind::Combined, CacheOutcome::Hit);
                    e.last = now_secs;
                    return Some((e.sfl, &mut e.value));
                }
                CacheOutcome::MissCollision
            }
            _ => CacheOutcome::MissCold,
        };
        self.counts.cache_lookup(CacheKind::Combined, miss);
        None
    }

    /// Allocate the sfl for a flow about to start. Separated from
    /// [`insert_with`](Self::insert_with) so the sfl is reserved before
    /// the key is derived: an sfl burned on a derivation error is never
    /// reused.
    pub fn reserve_sfl(&mut self) -> u64 {
        self.alloc.next_sfl()
    }

    /// Install a new flow `sfl` for `attrs`, counting it, and lend its
    /// value back, as a hit's [`probe`](Self::probe) would. `value` makes
    /// the value from the entry the flow displaces, if any: the datapath
    /// writes the new key into the displaced key's allocation
    /// ([`SealedFlowKey::into_box_reusing`](crate::SealedFlowKey::into_box_reusing)).
    pub fn insert_with(
        &mut self,
        attrs: A,
        sfl: u64,
        now_secs: u64,
        value: impl FnOnce(Option<FstEntry<A, V>>) -> V,
    ) -> &V {
        self.insert_slot(self.slot_of(&attrs), attrs, sfl, now_secs, value)
    }

    /// [`insert_with`](Self::insert_with) at `attrs`' slot `i`.
    fn insert_slot(
        &mut self,
        i: usize,
        attrs: A,
        sfl: u64,
        now_secs: u64,
        value: impl FnOnce(Option<FstEntry<A, V>>) -> V,
    ) -> &V {
        self.counts.cache_insertion(CacheKind::Combined);
        let chunk = self
            .slots
            .get_or_alloc(i / CHUNK_SLOTS, || [const { None }; CHUNK_SLOTS]);
        let slot = &mut chunk[i % CHUNK_SLOTS];
        let value = value(slot.take());
        let e = slot.insert(FstEntry {
            attrs,
            sfl,
            last: now_secs,
            value,
        });
        &e.value
    }

    /// Invalidate every entry (e.g. after a rekey of the local
    /// principal), freeing every chunk.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Every occupied slot's entry, live or expired, in slot order.
    pub fn entries(&self) -> impl Iterator<Item = &FstEntry<A, V>> {
        self.slots.iter().flat_map(|c| c.iter().flatten())
    }

    /// Number of flows valid at `now_secs` (Fig. 12's metric).
    pub fn active_flows(&self, now_secs: u64) -> usize {
        self.entries()
            .filter(|e| !self.policy.expired(e, now_secs))
            .count()
    }

    /// Chunks of slots allocated so far: the table's resident slot
    /// bytes are this many × [`CHUNK_SLOTS`] ×
    /// [`SLOT_BYTES`](Self::SLOT_BYTES).
    pub fn chunks_owned(&self) -> usize {
        self.slots.owned()
    }

    /// Heap bytes held by the slots: the chunk directory, once a flow
    /// was inserted, and the chunks allocated so far. Entry values that
    /// own further heap (the datapath's boxed keys) are not counted.
    pub fn table_bytes(&self) -> u64 {
        self.slots.heap_bytes()
    }

    /// Accumulated statistics, read off the counter block.
    pub fn stats(&self) -> FstStats {
        FstStats::read(&self.counts)
    }
}

impl<A, P: HashedFlowPolicy<A, V>, V> Fst<A, P, V> {
    /// [`probe`](Self::probe) for a caller that already holds `attrs`'
    /// [`hash`](HashedFlowPolicy::hash): the policy reduces it to the
    /// slot without hashing again.
    pub fn probe_hashed(&mut self, hash: u32, attrs: &A, now_secs: u64) -> Option<(u64, &mut V)> {
        debug_assert_eq!(hash, self.policy.hash(attrs), "not the policy's hash");
        self.probe_slot(self.policy.slot(hash, self.len), attrs, now_secs)
    }

    /// [`insert_with`](Self::insert_with) by `attrs`' hash, as for
    /// [`probe_hashed`](Self::probe_hashed).
    pub fn insert_hashed(
        &mut self,
        hash: u32,
        attrs: A,
        sfl: u64,
        now_secs: u64,
        value: impl FnOnce(Option<FstEntry<A, V>>) -> V,
    ) -> &V {
        debug_assert_eq!(hash, self.policy.hash(&attrs), "not the policy's hash");
        let i = self.policy.slot(hash, self.len);
        self.insert_slot(i, attrs, sfl, now_secs, value)
    }
}

impl<A, P: FlowPolicy<A>> Fam<A, P> {
    /// Classify a datagram with the given attributes arriving at
    /// `now_secs`, carrying `bytes` payload bytes: the mapper invocation
    /// of Fig. 4 line S1, probe and insert in one call.
    pub fn classify(&mut self, attrs: A, now_secs: u64, bytes: u64) -> Classification<A> {
        if let Some((sfl, used)) = self.probe(&attrs, now_secs) {
            used.packets += 1;
            used.bytes += bytes;
            return Classification {
                sfl,
                new_flow: false,
                displaced: None,
            };
        }
        let sfl = self.reserve_sfl();
        let mut displaced = None;
        self.insert_with(attrs, sfl, now_secs, |old| {
            displaced = old;
            FlowUse {
                created: now_secs,
                packets: 1,
                bytes,
            }
        });
        Classification {
            sfl,
            new_flow: true,
            displaced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal test policy: attrs are (u32 key); index = key % size; same
    /// flow = equal keys; expired when idle > threshold.
    struct TestPolicy {
        threshold: u64,
    }

    impl FlowPolicy<u32> for TestPolicy {
        fn index(&self, attrs: &u32, table_size: usize) -> usize {
            (*attrs as usize) % table_size
        }
        fn same_flow(&self, a: &u32, b: &u32) -> bool {
            a == b
        }
        fn expired(&self, entry: &FstEntry<u32, FlowUse>, now_secs: u64) -> bool {
            now_secs.saturating_sub(entry.last) > self.threshold
        }
    }

    fn fam(size: usize, threshold: u64) -> Fam<u32, TestPolicy> {
        Fam::new(size, TestPolicy { threshold }, SflAllocator::new(1000))
    }

    #[test]
    fn same_attrs_same_flow() {
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 100);
        let c2 = f.classify(5, 10, 200);
        assert_eq!(c1.sfl, c2.sfl);
        assert!(c1.new_flow && c1.displaced.is_none());
        assert!(!c2.new_flow);
        assert_eq!(f.stats().new_flows, 1);
        assert_eq!(f.stats().hits, 1);
    }

    #[test]
    fn different_attrs_different_flows() {
        let mut f = fam(16, 600);
        let c1 = f.classify(1, 0, 10);
        let c2 = f.classify(2, 0, 10);
        assert_ne!(c1.sfl, c2.sfl);
    }

    #[test]
    fn idle_flow_expires_and_restarts() {
        // The §7.1 policy in miniature: a gap > THRESHOLD starts a new flow
        // with a new sfl for the same attributes.
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 10);
        let c2 = f.classify(5, 601, 10);
        assert_ne!(c1.sfl, c2.sfl);
        assert!(c2.new_flow);
        assert_eq!(f.stats().collisions, 0, "an expired flow is no collision");
    }

    #[test]
    fn gap_under_threshold_keeps_flow() {
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 10);
        let c2 = f.classify(5, 600, 10); // exactly THRESHOLD: not expired
        assert_eq!(c1.sfl, c2.sfl);
    }

    #[test]
    fn index_collision_prematurely_terminates() {
        // Keys 1 and 17 collide in a 16-slot table; both active ⇒ the
        // second displaces the first (footnote 11).
        let mut f = fam(16, 600);
        let c1 = f.classify(1, 0, 10);
        let c2 = f.classify(17, 1, 10);
        assert_ne!(c1.sfl, c2.sfl);
        assert_eq!(c2.displaced.map(|e| e.sfl), Some(c1.sfl));
        assert_eq!(f.stats().collisions, 1);
        // Key 1 returning gets a fresh flow (its entry was displaced).
        let c3 = f.classify(1, 2, 10);
        assert!(c3.new_flow);
        assert_ne!(c3.sfl, c1.sfl);
    }

    #[test]
    fn active_flow_count() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 10);
        f.classify(2, 100, 10);
        assert_eq!(f.active_flows(100), 2);
        assert_eq!(f.active_flows(650), 1); // key 1 now idle >600
        assert_eq!(f.active_flows(2000), 0);
    }

    #[test]
    fn a_displaced_flow_hands_back_what_it_carried() {
        let mut f = fam(16, 600);
        let first = f.classify(1, 0, 100);
        assert_eq!(first.displaced, None);
        f.classify(1, 50, 200);
        f.classify(1, 90, 300);
        let next = f.classify(1, 1_000, 5);
        let e = next.displaced.expect("the expired flow is displaced");
        assert_eq!((e.attrs, e.sfl, e.last), (1, first.sfl, 90));
        assert_eq!(
            e.value,
            FlowUse {
                created: 0,
                packets: 3,
                bytes: 600
            }
        );
        // The flow that replaced it is the one entry left.
        let left: Vec<_> = f.entries().map(|e| (e.sfl, e.value.bytes)).collect();
        assert_eq!(left, [(next.sfl, 5)]);
    }

    #[test]
    fn stats_count_every_outcome() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 10); // fresh
        f.classify(1, 10, 10); // existing
        f.classify(17, 20, 10); // collision with key 1
        f.classify(1, 30, 10); // collision back (17 still live)
        f.classify(1, 1000, 10); // replaced-expired
        assert_eq!(
            f.stats(),
            FstStats {
                hits: 1,
                new_flows: 4,
                collisions: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_table_panics() {
        let _ = fam(0, 600);
    }
}
