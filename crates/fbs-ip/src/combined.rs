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
//!
//! The table is the FAM's own [`Fst`] under the Fig. 7 policy, holding
//! each flow's sealed key: [`CombinedFst`].

use crate::policy::FiveTuplePolicy;
use crate::tuple::FiveTuple;
use fbs_core::{Fst, SealedFlowKey};

pub use fbs_core::FstStats as CombinedStats;

/// The datapath's flow state table: a 5-tuple's flow and its transmit
/// flow key in one 40-byte slot.
pub type CombinedFst = Fst<FiveTuple, FiveTuplePolicy, Box<SealedFlowKey>>;

/// Install a flow born with `key` in `table`, the key written into the
/// allocation of the key it displaces
/// ([`SealedFlowKey::into_box_reusing`]): a birth into an occupied slot
/// allocates nothing for an AEAD key.
pub fn insert_key(
    table: &mut CombinedFst,
    tuple: FiveTuple,
    sfl: u64,
    key: SealedFlowKey,
    now_secs: u64,
) -> &SealedFlowKey {
    table.insert_with(tuple, sfl, now_secs, |old| {
        key.into_box_reusing(old.map(|e| e.value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_core::{EncAlgorithm, FlowKey, SflAllocator, CHUNK_SLOTS};
    use fbs_crypto::{crc32, CipherSuite, MacAlgorithm};

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple {
            proto: 17,
            saddr: [10, 0, 0, 1],
            sport,
            daddr: [10, 0, 0, 2],
            dport: 53,
        }
    }

    /// A table of `size` slots under the Fig. 7 policy, THRESHOLD 600 s.
    fn table_of(size: usize, seed: u64) -> CombinedFst {
        Fst::new(size, FiveTuplePolicy::new(600), SflAllocator::new(seed))
    }

    fn table() -> CombinedFst {
        table_of(64, 100)
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

    fn fake_key(sfl: u64) -> Result<SealedFlowKey, ()> {
        Ok(sealed(sfl))
    }

    /// One datagram's send-path resolution: the flow's sfl, its ChaCha
    /// key, and whether it started a new flow, keyed by `derive`.
    fn resolve<E>(
        t: &mut CombinedFst,
        tuple: FiveTuple,
        now_secs: u64,
        derive: impl FnOnce(u64) -> Result<SealedFlowKey, E>,
    ) -> Result<(u64, Vec<u8>, bool), E> {
        if let Some((sfl, key)) = t.probe(&tuple, now_secs) {
            return Ok((sfl, key.chacha_key().unwrap().to_vec(), false));
        }
        let sfl = t.reserve_sfl();
        let key = insert_key(t, tuple, sfl, derive(sfl)?, now_secs);
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
        let mut t = table_of(4, 0);
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
        let mut t = table_of(65_536, 1);
        assert_eq!(t.chunks_owned(), 0);
        // Misses and counts read missing chunks as empty.
        for sport in 0..512 {
            assert!(t.probe(&tuple(sport), 0).is_none());
        }
        assert_eq!(t.active_flows(0), 0);
        t.clear();
        assert_eq!(t.chunks_owned(), 0);
        assert_eq!(t.stats().new_flows, 0);
    }

    #[test]
    fn inserts_own_exactly_the_chunks_their_slots_fall_in() {
        // 4,100 slots: full chunks and one holding the last 4.
        let size = 4_100;
        let mut t = table_of(size, 1);
        let mut chunks = std::collections::BTreeSet::new();
        for sport in (0..3_000).step_by(97) {
            let tup = tuple(sport);
            let sfl = t.reserve_sfl();
            insert_key(&mut t, tup, sfl, sealed(sfl), 0);
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

    /// A seeded mix of births, hits, expiries, counts and
    /// clears against a full-array model of the same slots: both forms of
    /// the chunked table — the datapath's probe/insert with a key, and
    /// the FAM's `classify` with a [`FlowUse`] — answer every call as the
    /// array does, and a FAM birth hands back the entry it displaced.
    #[test]
    fn chunked_slots_agree_with_a_full_array() {
        use fbs_core::{Fam, FlowUse, FstEntry};
        // Every slot present up front.
        type Model = Vec<Option<FstEntry<FiveTuple, FlowUse>>>;
        const THRESHOLD: u64 = 600;
        let size = 200; // the last chunk partly unused
        let mut t = table_of(size, 7);
        let policy = FiveTuplePolicy::new(THRESHOLD);
        let mut f: Fam<FiveTuple, FiveTuplePolicy> = Fam::new(size, policy, SflAllocator::new(7));
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
            m[i].as_ref()
                .is_some_and(|e| e.attrs == *tuple && now.saturating_sub(e.last) <= THRESHOLD)
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
                    f.clear();
                    model.fill(None);
                }
                1..=5 => {
                    let want = model.iter().flatten().filter(|e| now - e.last <= THRESHOLD);
                    let want = want.count();
                    assert_eq!(t.active_flows(now), want, "step {step}");
                    assert_eq!(f.active_flows(now), want, "step {step}");
                }
                _ => {
                    let bytes = next(1_500);
                    let hit = live(&model, i, &tup, now);
                    let want = hit.then(|| model[i].as_ref().unwrap().sfl);
                    let got = t.probe(&tup, now).map(|(sfl, key)| {
                        assert_eq!(key.chacha_key(), sealed(sfl).chacha_key());
                        sfl
                    });
                    assert_eq!(got, want, "step {step}");
                    let class = f.classify(tup, now, bytes);
                    assert_eq!(class.new_flow, !hit, "step {step}");
                    if let Some(e) = model[i].as_mut().filter(|_| hit) {
                        assert_eq!(class.sfl, e.sfl, "step {step}");
                        e.last = now;
                        e.value.packets += 1;
                        e.value.bytes += bytes;
                        continue;
                    }
                    let sfl = t.reserve_sfl();
                    assert_eq!(sfl, model_sfl.next_sfl());
                    assert_eq!(class.sfl, sfl, "step {step}");
                    insert_key(&mut t, tup, sfl, sealed(sfl), now);
                    let born = FstEntry {
                        attrs: tup,
                        sfl,
                        last: now,
                        value: FlowUse {
                            created: now,
                            packets: 1,
                            bytes,
                        },
                    };
                    let displaced = model[i].replace(born);
                    assert_eq!(class.displaced, displaced, "step {step}");
                }
            }
        }
        assert_eq!(t.stats(), f.stats(), "both forms count alike");
    }

    /// A birth writes its key into the allocation of the key it
    /// displaces: the slot's key sits at the same address before and
    /// after, holding the new flow's bytes. (A `Box` cannot be shared,
    /// so no one else sees the overwrite; that the birth allocates
    /// nothing is counted by `tests/births_allocate_nothing.rs`, which
    /// has an allocator to count with.)
    #[test]
    fn a_birth_writes_its_key_into_the_displaced_allocation() {
        let mut t = table_of(1, 1);
        let held = insert_key(&mut t, tuple(3), 12, sealed(12), 0) as *const SealedFlowKey;
        let born = insert_key(&mut t, tuple(4), 13, sealed(13), 0) as *const SealedFlowKey;
        assert_eq!(born, held);
        let (sfl, key) = t.probe(&tuple(4), 0).unwrap();
        assert_eq!(sfl, 13);
        assert_eq!(&**key as *const SealedFlowKey, held);
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
