//! Cross-suite integration: the PR 10 crypto plane. Every cipher-suite
//! profile must round trip end to end, batch (zero-copy `seal_into`) and
//! scalar (`send`) sealing must be bit-identical per profile, a flow
//! sealed under one suite must never open under another (a `BadMac`
//! reject, never a panic), every profile's wire bytes are pinned (the
//! paper one bit-identical DES+MD5), and the `mac_truncate = Some(0)`
//! forgery hole stays closed.

use fbs::core::{
    derive_flow_key, Datagram, FbsConfig, FbsEndpoint, FbsError, FlowCodec, HeaderView,
    KeyDerivation, ManualClock, MasterKeyDaemon, PinnedDirectory, Principal, MIN_SHIPPED_MAC,
};
use fbs::crypto::dh::{DhGroup, PrivateValue};
use fbs::crypto::{poly1305, ChaCha20, CipherSuite};
use std::sync::Arc;

fn pair(tx_cfg: FbsConfig, rx_cfg: FbsConfig) -> (FbsEndpoint, FbsEndpoint) {
    let clock = ManualClock::starting_at(44_000);
    let group = DhGroup::test_group();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"suites-alice-entropy");
    let b_priv = PrivateValue::from_entropy(group, b"suites-bob-entropy!!");
    let alice = Principal::named("alice");
    let bob = Principal::named("bob");
    let mut da = PinnedDirectory::new();
    da.pin(bob.clone(), b_priv.public_value());
    let mut db = PinnedDirectory::new();
    db.pin(alice.clone(), a_priv.public_value());
    (
        FbsEndpoint::new(
            alice,
            tx_cfg,
            Arc::new(clock.clone()),
            5,
            MasterKeyDaemon::new(a_priv, Box::new(da)),
        ),
        FbsEndpoint::new(
            bob,
            rx_cfg,
            Arc::new(clock),
            6,
            MasterKeyDaemon::new(b_priv, Box::new(db)),
        ),
    )
}

fn dgram(body: &[u8]) -> Datagram {
    Datagram::new(
        Principal::named("alice"),
        Principal::named("bob"),
        body.to_vec(),
    )
}

fn suite_cfg(suite: CipherSuite) -> FbsConfig {
    FbsConfig {
        suite,
        ..FbsConfig::default()
    }
}

#[test]
fn every_suite_roundtrips_end_to_end() {
    for &suite in CipherSuite::ALL.iter() {
        let (mut tx, mut rx) = pair(suite_cfg(suite), suite_cfg(suite));
        for (i, body) in [
            b"first datagram".as_slice(),
            b"",
            b"third, longer datagram body",
        ]
        .iter()
        .enumerate()
        {
            let pd = tx.send(1, dgram(body), true).unwrap();
            assert_eq!(pd.header.suite, suite, "suite must ride the header");
            let got = rx.receive(pd).unwrap();
            assert_eq!(got.body, body.to_vec(), "{suite:?} datagram {i}");
        }
    }
}

/// Batch == scalar, bit-identical, per profile: two endpoints built from
/// the same seeds draw the same confounder sequence, so the zero-copy
/// `seal_into` path must emit exactly the bytes `send` +
/// `encode_payload` would — for every suite, not just the paper one.
#[test]
fn zero_copy_seal_is_bit_identical_to_scalar_send_per_suite() {
    for &suite in CipherSuite::ALL.iter() {
        let (mut scalar_tx, _) = pair(suite_cfg(suite), suite_cfg(suite));
        let (mut batch_tx, mut rx) = pair(suite_cfg(suite), suite_cfg(suite));
        let bob = Principal::named("bob");
        for round in 0..8u8 {
            let body: Vec<u8> = (0..(round as usize) * 17 + 3)
                .map(|i| i as u8 ^ round)
                .collect();
            let wire_scalar = scalar_tx
                .send(1, dgram(&body), true)
                .unwrap()
                .encode_payload();
            let mut wire_batch = Vec::new();
            batch_tx
                .seal_into(1, &bob, &body, true, &mut wire_batch)
                .unwrap();
            assert_eq!(
                wire_scalar, wire_batch,
                "{suite:?} round {round}: batch and scalar wires diverge"
            );
            // And the wire actually opens on the structured receive path.
            let mut out = Vec::new();
            rx.open_into(&Principal::named("alice"), &wire_batch, &mut out)
                .unwrap();
            assert_eq!(out, body);
        }
    }
}

/// Negative interop: a flow sealed under one suite must never open on a
/// receiver speaking another — the suite rides the key schedule and the
/// header, and a mismatch is an authentication failure, not a silent
/// downgrade.
#[test]
fn flow_sealed_under_one_suite_never_opens_under_another() {
    for &seal_suite in CipherSuite::ALL.iter() {
        for &open_suite in CipherSuite::ALL.iter() {
            if seal_suite == open_suite {
                continue;
            }
            let (mut tx, mut rx) = pair(suite_cfg(seal_suite), suite_cfg(open_suite));
            let pd = tx.send(1, dgram(b"cross-suite probe"), true).unwrap();
            let err = rx.receive(pd);
            assert!(
                err.is_err(),
                "sealed {seal_suite:?}, opened {open_suite:?}: must not interoperate"
            );
        }
    }
}

/// Wire offset of the security flow header's suite id.
const SUITE_BYTE: usize = 19;

/// Suite confusion is a counted `BadMac` reject and never a panic, in
/// each of the three shapes it can take: a frame sealed under another
/// suite; an endpoint-suite frame whose header is relabelled to name
/// another (rejected before any key material is touched); and, on the
/// codec, a key sealed for another suite than the frame and endpoint
/// name — a key that holds none of the material that suite reads.
#[test]
fn cross_suite_frames_and_keys_are_counted_bad_mac_rejects() {
    let (alice, bob) = (Principal::named("alice"), Principal::named("bob"));
    for &rx_suite in CipherSuite::ALL.iter() {
        for &other in CipherSuite::ALL.iter() {
            if other == rx_suite {
                continue;
            }
            let why = format!("{other:?} against a {rx_suite:?} endpoint");

            let (mut tx, mut rx) = pair(suite_cfg(other), suite_cfg(rx_suite));
            let pd = tx.send(1, dgram(b"cross-suite probe"), true).unwrap();
            assert!(matches!(rx.receive(pd), Err(FbsError::BadMac)), "{why}");
            assert_eq!(rx.stats().mac_drops, 1, "{why}");

            let (mut tx, mut rx) = pair(suite_cfg(rx_suite), suite_cfg(rx_suite));
            let mut wire = Vec::new();
            tx.seal_into(1, &bob, b"relabelled", true, &mut wire)
                .unwrap();
            wire[SUITE_BYTE] = other.wire_id();
            let mut out = Vec::new();
            let got = rx.open_into(&alice, &wire, &mut out);
            assert!(matches!(got, Err(FbsError::BadMac)), "relabelled {why}");
            assert_eq!(rx.stats().mac_drops, 1, "relabelled {why}");

            let clock = Arc::new(ManualClock::starting_at(44_000));
            let mut codec = FlowCodec::new(alice.clone(), suite_cfg(rx_suite), clock, 5);
            let flow_key = || derive_flow_key(KeyDerivation::Md5, 1, b"master", &alice, &bob);
            let own = suite_cfg(rx_suite).seal_key(flow_key());
            let foreign = suite_cfg(other).seal_key(flow_key());
            let mut wire = Vec::new();
            codec
                .seal_with_key_into(1, &own, b"foreign key", true, &mut wire)
                .unwrap();
            let (h, used) = HeaderView::parse(&wire).unwrap();
            let got = codec.open_with_key_into(&h, &foreign, &wire[used..], &mut out);
            assert!(matches!(got, Err(FbsError::BadMac)), "{other:?} key, {why}");
            assert_eq!(codec.stats().mac_drops, 1, "{other:?} key, {why}");
            // The same frame under the endpoint's own key opens.
            codec
                .open_with_key_into(&h, &own, &wire[used..], &mut out)
                .unwrap();
            assert_eq!(out, b"foreign key");
        }
    }
}

/// The paper profile's wire bytes, pinned. Everything feeding the seal is
/// deterministic here (fixed DH entropy, manual clock, fixed endpoint
/// seeds), so any drift in the DES-CBC + keyed-MD5 output — a refactor
/// that reorders padding, truncates differently, or touches the
/// confounder stream — changes these bytes and fails this test. This is
/// the "paper suite stays bit-identical" acceptance gate.
#[test]
fn paper_suite_wire_bytes_are_pinned() {
    assert_golden_wire(
        CipherSuite::Paper,
        b"golden paper datagram",
        GOLDEN_PAPER_WIRE_HEX,
    );
}

/// The same pin for the two non-paper profiles: their key material is
/// built differently from the paper suite's (CTR over the DES schedule,
/// a ChaCha key expanded from the flow key), so a change to how a key
/// carries it must not move a wire byte either.
#[test]
fn fast_des_and_aead_wire_bytes_are_pinned() {
    assert_golden_wire(
        CipherSuite::FastDes,
        b"golden fast_des datagram",
        GOLDEN_FAST_DES_WIRE_HEX,
    );
    assert_golden_wire(
        CipherSuite::AeadChaPoly,
        b"golden aead datagram",
        GOLDEN_AEAD_WIRE_HEX,
    );
}

/// The AEAD tag is RFC 8439 Poly1305 over all nine bytes of suite |
/// confounder | timestamp and then the ciphertext, keyed from ChaCha20
/// block 0 under the flow's key and the (confounder, timestamp, sfl)
/// nonce. Recomputed here from the wire in one contiguous pass, so the
/// seal's piecewise updates cannot drop a byte unnoticed.
#[test]
fn aead_tag_covers_the_header_prefix_and_the_ciphertext() {
    let (alice, bob) = (Principal::named("alice"), Principal::named("bob"));
    let cfg = suite_cfg(CipherSuite::AeadChaPoly);
    let key = cfg.seal_key(derive_flow_key(
        KeyDerivation::Md5,
        1,
        b"master",
        &alice,
        &bob,
    ));
    let clock = Arc::new(ManualClock::starting_at(44_000));
    let mut codec = FlowCodec::new(alice, cfg, clock, 5);
    let mut wire = Vec::new();
    codec
        .seal_with_key_into(1, &key, b"tag coverage probe", true, &mut wire)
        .unwrap();
    let (h, used) = HeaderView::parse(&wire).unwrap();
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&h.confounder.to_be_bytes());
    nonce[4..8].copy_from_slice(&h.timestamp.to_be_bytes());
    nonce[8..].copy_from_slice(&(h.sfl as u32).to_be_bytes());
    let one_time_key = ChaCha20::new(key.chacha_key().unwrap(), &nonce).poly1305_key();
    let mut tagged = vec![h.suite.wire_id()];
    tagged.extend_from_slice(&h.confounder.to_be_bytes());
    tagged.extend_from_slice(&h.timestamp.to_be_bytes());
    tagged.extend_from_slice(&wire[used..]);
    assert_eq!(h.mac, poly1305(&one_time_key, &[&tagged]));
}

fn assert_golden_wire(suite: CipherSuite, body: &[u8], golden: &str) {
    let (mut tx, mut rx) = pair(suite_cfg(suite), suite_cfg(suite));
    let pd = tx.send(7, dgram(body), true).unwrap();
    let wire = pd.encode_payload();
    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden, "{suite:?} wire drifted");
    // The pin is of real, openable bytes — not a stale constant.
    let got = rx.receive(pd).unwrap();
    assert_eq!(got.body, body.to_vec());
}

/// Regression for the `mac_truncate = Some(0)` forgery: a zero-length
/// shipped MAC compares vacuously equal, so every forged datagram
/// verified. Config validation now rejects sub-minimum truncation and
/// normalisation clamps it; either way at least [`MIN_SHIPPED_MAC`]
/// bytes ship and tampering is caught on the structured receive path.
#[test]
fn mac_truncate_zero_forgery_stays_closed() {
    // Explicit validation rejects the degenerate configs outright.
    for n in 0..MIN_SHIPPED_MAC {
        let cfg = FbsConfig {
            mac_truncate: Some(n),
            ..FbsConfig::default()
        };
        assert!(
            cfg.validate().is_err(),
            "mac_truncate Some({n}) must fail validation"
        );
    }
    assert!(FbsConfig {
        mac_truncate: Some(MIN_SHIPPED_MAC),
        ..FbsConfig::default()
    }
    .validate()
    .is_ok());

    // Normalisation clamps instead of shipping a forgeable MAC, and the
    // clamped endpoint really rejects a forgery end to end.
    let cfg = FbsConfig {
        mac_truncate: Some(0),
        ..FbsConfig::default()
    }
    .normalized();
    assert_eq!(cfg.mac_truncate, Some(MIN_SHIPPED_MAC));
    let (mut tx, mut rx) = pair(cfg.clone(), cfg);
    let mut pd = tx.send(1, dgram(b"forgery target"), true).unwrap();
    // Clean copy of the same flow still works afterwards, so start with
    // the forgery: flip one ciphertext byte.
    pd.body[0] ^= 0x80;
    assert!(
        rx.receive(pd).is_err(),
        "tampered datagram must be rejected under clamped truncation"
    );
    let pd = tx.send(1, dgram(b"honest datagram"), true).unwrap();
    assert_eq!(rx.receive(pd).unwrap().body, b"honest datagram".to_vec());
}

/// Pinned by `paper_suite_wire_bytes_are_pinned`; regenerate only for a
/// deliberate, documented wire-format change.
const GOLDEN_PAPER_WIRE_HEX: &str = "0000000000000007cd9f4061000002dd000110000000001580ff5904372d62580abe3f77e1fae56fdfb73f00026e063f69a738c02ab627762b642832ae161c81";

/// Pinned by `fast_des_and_aead_wire_bytes_are_pinned`.
const GOLDEN_FAST_DES_WIRE_HEX: &str = "0000000000000007cd9f4061000002dd00061001000000189d011ce2289139c3dc587ad478dc1666d0b9670344fd1585dbc7e47fbe8643eb58b87d296e25abc0";

/// Pinned by `fast_des_and_aead_wire_bytes_are_pinned`; its tag covers
/// all nine prefix bytes
/// (`aead_tag_covers_the_header_prefix_and_the_ciphertext`).
const GOLDEN_AEAD_WIRE_HEX: &str = "0000000000000007cd9f4061000002dd040710020000001420f961b99b574af249e645759b73fb6c6d3202fd31006ef8e25ef78d857fb6ad69b08753";
