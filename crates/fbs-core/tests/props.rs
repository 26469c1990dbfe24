//! Property-based tests for the protocol core: header codec totality,
//! cache soundness, FAM conservation laws, and protocol roundtrips.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]
use fbs_core::cache::SoftCache;
use fbs_core::fam::{Fam, FlowPolicy, FlowUse, FstEntry};
use fbs_core::header::{EncAlgorithm, SecurityFlowHeader};
use fbs_core::SflAllocator;
use fbs_crypto::{CipherSuite, MacAlgorithm};
use fbs_obs::{CacheKind, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;
use std::sync::Arc;

fn header_strategy() -> impl Strategy<Value = SecurityFlowHeader> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        0u8..5,
        0u8..8,
        0u8..3,
        any::<u32>(),
        1usize..=16,
    )
        .prop_map(|(sfl, conf, ts, mac_id, enc_id, suite_id, len, mac_len)| {
            let mac_alg = MacAlgorithm::from_wire_id(mac_id).unwrap();
            SecurityFlowHeader {
                sfl,
                confounder: conf,
                timestamp: ts,
                mac_alg,
                enc_alg: EncAlgorithm::from_wire_id(enc_id).unwrap(),
                suite: CipherSuite::from_wire_id(suite_id).unwrap(),
                plaintext_len: len,
                mac: vec![0xAB; mac_len.min(mac_alg.output_len())],
            }
        })
}

/// Test policy: u64 keys, modulo index, threshold expiry.
struct P(u64);
impl FlowPolicy<u64> for P {
    fn index(&self, attrs: &u64, table_size: usize) -> usize {
        fbs_crypto::crc32(&attrs.to_be_bytes()) as usize % table_size
    }
    fn same_flow(&self, a: &u64, b: &u64) -> bool {
        a == b
    }
    fn expired(&self, entry: &FstEntry<u64, FlowUse>, now: u64) -> bool {
        now.saturating_sub(entry.last) > self.0
    }
}

proptest! {
    #[test]
    fn header_roundtrips(h in header_strategy()) {
        let bytes = h.encode();
        let (parsed, used) = SecurityFlowHeader::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn header_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Decoding arbitrary bytes must be total: Ok or Err, no panic.
        let _ = SecurityFlowHeader::decode(&bytes);
    }

    #[test]
    fn cache_returns_only_what_was_inserted(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..200),
        sets in 1usize..16,
        assoc in 1usize..4,
    ) {
        // Model check against a reference map: the cache may FORGET
        // entries (soft state!) but must never return a wrong value.
        let mut cache: SoftCache<u8, u8> =
            SoftCache::new(sets, assoc, |k: &u8| fbs_crypto::crc32(&[*k]));
        let mut reference = std::collections::HashMap::new();
        for (k, v, is_insert) in ops {
            if is_insert {
                cache.insert(k, v);
                reference.insert(k, v);
            } else if let Some(got) = cache.get(&k) {
                prop_assert_eq!(Some(&got), reference.get(&k));
            }
        }
    }

    #[test]
    fn cache_stats_balance(
        keys in proptest::collection::vec(any::<u8>(), 1..300),
        sets in 1usize..32,
    ) {
        let mut cache: SoftCache<u8, ()> =
            SoftCache::new(sets, 1, |k: &u8| fbs_crypto::crc32(&[*k]))
                .with_classification();
        for k in &keys {
            if cache.get(k).is_none() {
                cache.insert(*k, ());
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses(), keys.len() as u64);
        // Cold misses = number of distinct keys.
        let distinct = keys.iter().collect::<std::collections::HashSet<_>>().len();
        prop_assert_eq!(s.cold_misses, distinct as u64);
        prop_assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn cache_counters_cohere_under_random_workloads(
        keys in proptest::collection::vec(any::<u8>(), 1..300),
        sets in 1usize..32,
        assoc in 1usize..4,
    ) {
        // The 3C miss kinds partition the misses, and a live registry
        // snapshot agrees counter-for-counter with the legacy stats
        // struct's `contribute` view of the same run.
        let reg = Arc::new(MetricsRegistry::new());
        let mut cache: SoftCache<u8, ()> =
            SoftCache::new(sets, assoc, |k: &u8| fbs_crypto::crc32(&[*k]))
                .with_classification();
        cache.set_obs(Arc::clone(&reg), CacheKind::Tfkc);
        for k in &keys {
            if cache.get(k).is_none() {
                cache.insert(*k, ());
            }
        }
        let s = cache.stats();
        prop_assert_eq!(
            s.hits + s.cold_misses + s.capacity_misses + s.collision_misses,
            s.total_lookups()
        );
        prop_assert_eq!(s.total_lookups(), keys.len() as u64);
        let live = reg.snapshot();
        let mut legacy = MetricsSnapshot::new();
        s.contribute(CacheKind::Tfkc, &mut legacy);
        prop_assert_eq!(&legacy.counters, &live.counters);
    }

    #[test]
    fn fam_conserves_packets_and_bytes(
        packets in proptest::collection::vec((any::<u8>(), 1u64..500, 0u64..100), 1..300),
        threshold in 1u64..1000,
        table in 1usize..64,
    ) {
        // Arbitrary interleaved datagrams with non-decreasing times.
        let mut fam = Fam::new(table, P(threshold), SflAllocator::new(1));
        let mut now = 0u64;
        let mut total_bytes = 0u64;
        // Every flow ends displaced or still in the table.
        let mut flows = Vec::new();
        for (attr, bytes, dt) in &packets {
            now += dt;
            flows.extend(fam.classify(*attr as u64, now, *bytes).displaced);
            total_bytes += bytes;
        }
        flows.extend(fam.entries().cloned());
        prop_assert_eq!(
            flows.iter().map(|e| e.value.packets).sum::<u64>(),
            packets.len() as u64
        );
        prop_assert_eq!(flows.iter().map(|e| e.value.bytes).sum::<u64>(), total_bytes);
        // Every flow's duration is within the observed time span.
        for e in &flows {
            prop_assert!(e.value.created <= e.last);
            prop_assert!(e.last <= now);
        }
    }

    #[test]
    fn fam_sfls_unique_per_flow(
        attrs in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        // All datagrams at the same instant: each distinct attribute must
        // map to exactly one sfl, and distinct attributes to distinct sfls
        // (table large enough to avoid collisions).
        let mut fam = Fam::new(4096, P(1000), SflAllocator::new(10));
        let mut seen = std::collections::HashMap::new();
        for a in attrs {
            let c = fam.classify(a as u64, 0, 1);
            if let Some(prev) = seen.insert(a, c.sfl) {
                prop_assert_eq!(prev, c.sfl, "same attrs, same flow");
            }
        }
        let distinct_sfls: std::collections::HashSet<_> = seen.values().collect();
        prop_assert_eq!(distinct_sfls.len(), seen.len());
    }

    #[test]
    fn freshness_window_symmetric(
        t1 in 0u32..1_000_000,
        t2 in 0u32..1_000_000,
        w in 0u32..10_000,
    ) {
        let win = fbs_core::FreshnessWindow::new(w);
        prop_assert_eq!(win.is_fresh(t1, t2), win.is_fresh(t2, t1));
        // Window containment: larger windows accept everything smaller
        // windows accept.
        if win.is_fresh(t1, t2) {
            prop_assert!(fbs_core::FreshnessWindow::new(w + 1).is_fresh(t1, t2));
        }
    }
}

mod protocol_props {
    use super::*;
    use fbs_core::{
        Datagram, FbsConfig, FbsEndpoint, ManualClock, MasterKeyDaemon, PinnedDirectory, Principal,
    };
    use fbs_crypto::dh::{DhGroup, PrivateValue};
    use std::sync::Arc;

    fn pair_with(cfg: FbsConfig) -> (FbsEndpoint, FbsEndpoint) {
        let clock = ManualClock::starting_at(77_777);
        let group = DhGroup::test_group();
        let a_priv = PrivateValue::from_entropy(group.clone(), b"prop-alice-entropy!!");
        let b_priv = PrivateValue::from_entropy(group, b"prop-bob-entropy!!!!");
        let alice = Principal::named("A");
        let bob = Principal::named("B");
        let mut da = PinnedDirectory::new();
        da.pin(bob.clone(), b_priv.public_value());
        let mut db = PinnedDirectory::new();
        db.pin(alice.clone(), a_priv.public_value());
        (
            FbsEndpoint::new(
                alice,
                cfg.clone(),
                Arc::new(clock.clone()),
                1,
                MasterKeyDaemon::new(a_priv, Box::new(da)),
            ),
            FbsEndpoint::new(
                bob,
                cfg,
                Arc::new(clock),
                2,
                MasterKeyDaemon::new(b_priv, Box::new(db)),
            ),
        )
    }

    fn pair() -> (FbsEndpoint, FbsEndpoint) {
        pair_with(FbsConfig::default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn protocol_roundtrips_arbitrary_bodies(
            body in proptest::collection::vec(any::<u8>(), 0..2000),
            sfl in any::<u64>(),
            secret in any::<bool>(),
        ) {
            let (mut tx, mut rx) = pair();
            let d = Datagram::new(
                Principal::named("A"),
                Principal::named("B"),
                body.clone(),
            );
            let pd = tx.send(sfl, d, secret).unwrap();
            let wire = pd.encode_payload();
            let parsed = fbs_core::ProtectedDatagram::decode_payload(
                Principal::named("A"),
                Principal::named("B"),
                &wire,
            ).unwrap();
            prop_assert_eq!(rx.receive(parsed).unwrap().body, body);
        }

        #[test]
        fn fastpath_wire_is_byte_identical_to_legacy_send(
            // Padding edge cases get half the probability mass: empty,
            // sub-block, block-1, exactly one block, and a large 8k+7 body
            // straddling many blocks; the rest are arbitrary lengths.
            len in (0usize..10, 0usize..2000).prop_map(|(sel, arb)| match sel {
                0 => 0,
                1 => 1,
                2 => 7,
                3 => 8,
                4 => 8 * 1024 + 7,
                _ => arb,
            }),
            fill in any::<u8>(),
            sfl in any::<u64>(),
            secret in any::<bool>(),
            enc_id in 0u8..6,
        ) {
            // Two sender endpoints with the SAME seed produce the same
            // confounder stream, so legacy `send` and the zero-copy
            // `seal_into` must emit identical wire bytes; `open_into` must
            // then recover the body.
            let cfg = FbsConfig {
                enc_alg: EncAlgorithm::from_wire_id(enc_id).unwrap(),
                ..FbsConfig::default()
            };
            let (mut legacy_tx, mut rx) = pair_with(cfg.clone());
            let (mut fast_tx, _) = pair_with(cfg);
            let body: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_add(fill)).collect();

            let pd = legacy_tx
                .send(
                    sfl,
                    Datagram::new(
                        Principal::named("A"),
                        Principal::named("B"),
                        body.clone(),
                    ),
                    secret,
                )
                .unwrap();
            let legacy_wire = pd.encode_payload();

            let mut fast_wire = Vec::new();
            fast_tx
                .seal_into(sfl, &Principal::named("B"), &body, secret, &mut fast_wire)
                .unwrap();
            prop_assert_eq!(&fast_wire, &legacy_wire);

            let mut opened = Vec::new();
            rx.open_into(&Principal::named("A"), &fast_wire, &mut opened).unwrap();
            prop_assert_eq!(opened, body);
        }

        #[test]
        fn wire_never_contains_long_plaintext_when_secret(
            body in proptest::collection::vec(1u8..255, 24..200),
        ) {
            // Encrypted bodies must not contain the plaintext as a
            // substring (24+ bytes of match would be astronomically
            // unlikely under a real cipher).
            let (mut tx, _) = pair();
            let d = Datagram::new(
                Principal::named("A"),
                Principal::named("B"),
                body.clone(),
            );
            let pd = tx.send(3, d, true).unwrap();
            let window = &body[..24];
            let found = pd.body.windows(window.len()).any(|w| w == window);
            prop_assert!(!found, "plaintext leaked into ciphertext");
        }
    }
}
