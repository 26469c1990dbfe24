//! Adversarial integration tests: the attacks of §2.2, §6 and §7.1 run
//! against the full system (endpoints + caches + certificates), verifying
//! both that FBS stops what it claims to stop and that it admits what the
//! paper admits it admits.

use fbs::baselines::{HostPairService, SecureDatagramService};
use fbs::cert::{CertificateAuthority, Directory, Pvc};
use fbs::core::policy::IdleTimeoutPolicy;
use fbs::core::{
    Datagram, Fam, FbsConfig, FbsEndpoint, FbsError, ManualClock, MasterKeyDaemon, PinnedDirectory,
    Principal, ProtectedDatagram, SflAllocator, MIN_SHIPPED_MAC,
};
use fbs::crypto::dh::{DhGroup, PrivateValue};
use fbs::crypto::CipherSuite;
use std::sync::Arc;
use std::time::Duration;

fn pair() -> (FbsEndpoint, FbsEndpoint, ManualClock) {
    pair_with(FbsConfig::default())
}

fn pair_with(cfg: FbsConfig) -> (FbsEndpoint, FbsEndpoint, ManualClock) {
    let clock = ManualClock::starting_at(500_000);
    let group = DhGroup::test_group();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"attack-test-alice-entropy");
    let b_priv = PrivateValue::from_entropy(group, b"attack-test-bob-entropy!!");
    let alice = Principal::named("alice");
    let bob = Principal::named("bob");
    let mut da = PinnedDirectory::new();
    da.pin(bob.clone(), b_priv.public_value());
    let mut db = PinnedDirectory::new();
    db.pin(alice.clone(), a_priv.public_value());
    (
        FbsEndpoint::new(
            alice,
            cfg.clone(),
            Arc::new(clock.clone()),
            0xA77AC4,
            MasterKeyDaemon::new(a_priv, Box::new(da)),
        ),
        FbsEndpoint::new(
            bob,
            cfg,
            Arc::new(clock.clone()),
            0xDEFE45E,
            MasterKeyDaemon::new(b_priv, Box::new(db)),
        ),
        clock,
    )
}

fn dgram(body: &[u8]) -> Datagram {
    Datagram::new(Principal::named("alice"), Principal::named("bob"), body)
}

/// Every single-bit flip of a sealed frame that its receiver accepts,
/// as `(suite, byte, mask)`: what an attacker can alter undetected.
///
/// None: every bit of the header and the body is covered, in every
/// suite, with and without encryption, with the full MAC and a
/// truncated one. The last bit to go was the AEAD suite's MAC id (byte
/// 16, where clearing 0x04 turns Poly1305's id into keyed MD5's): its
/// tag is always Poly1305, so a frame naming another MAC is refused.
const ACCEPTED_FLIPS: &[(CipherSuite, usize, u8)] = &[];

#[test]
fn bit_flips_anywhere_in_wire_payload_are_caught() {
    // A property over suite × {secret, MAC-only} × {full, truncated
    // MAC}: flip every bit of a sealed frame, header and body, once. A
    // flip is rejected with a verdict on the frame itself unless
    // ACCEPTED_FLIPS names it, and every flip it names is accepted with
    // the body intact: the list is exact, not an allowance.
    const BODY: &[u8] = b"sixteen byte msg";
    for suite in CipherSuite::ALL {
        for secret in [true, false] {
            for mac_truncate in [None, Some(MIN_SHIPPED_MAC)] {
                let case = format!("{suite:?}, secret {secret}, mac_truncate {mac_truncate:?}");
                let (mut tx, mut rx, _) = pair_with(FbsConfig {
                    suite,
                    mac_truncate,
                    ..FbsConfig::default()
                });
                let wire = tx.send(9, dgram(BODY), secret).unwrap().encode_payload();
                let mut accepted = Vec::new();
                for byte in 0..wire.len() {
                    for mask in (0..8).map(|bit| 0x80u8 >> bit) {
                        let mut flipped = wire.clone();
                        flipped[byte] ^= mask;
                        let verdict = ProtectedDatagram::decode_payload(
                            Principal::named("alice"),
                            Principal::named("bob"),
                            &flipped,
                        )
                        .and_then(|pd| rx.receive(pd));
                        match verdict {
                            Ok(d) => {
                                assert_eq!(d.body, BODY, "{case}: flip {byte}/{mask:#04x}");
                                accepted.push((suite, byte, mask));
                            }
                            Err(
                                FbsError::BadMac
                                | FbsError::StaleTimestamp { .. }
                                | FbsError::MalformedHeader(_)
                                | FbsError::UnknownAlgorithm(_)
                                | FbsError::MalformedCiphertext,
                            ) => {}
                            Err(e) => panic!("{case}: flip {byte}/{mask:#04x} read as {e:?}"),
                        }
                    }
                }
                let named: Vec<_> = ACCEPTED_FLIPS
                    .iter()
                    .filter(|f| f.0 == suite)
                    .copied()
                    .collect();
                assert_eq!(accepted, named, "{case}");
            }
        }
    }
}

/// The paper suite's block modes zero-pad the body, and the MAC covers
/// only the payload bytes, so the padding is checked once the MAC
/// verifies. A frame whose last block holds one payload byte (a 33-byte
/// body) and seven of padding, with its last wire byte flipped, is
/// refused in every mode, never opened as a second ciphertext for the
/// sender's message. CBC, TDEA-CBC and ECB garble the whole last block:
/// the MAC refuses the flip unless the payload byte decrypts unchanged
/// (one in 256), and the padding check refuses that one. CFB and OFB
/// flip only the padding byte, so every flip reaches the check. Before
/// it existed, those flips all opened.
#[test]
fn a_flipped_padding_byte_is_refused_in_every_block_mode() {
    use fbs::core::EncAlgorithm;
    let body: Vec<u8> = (0..33u8).collect();
    let mut malformed_cbc = 0;
    for (enc_alg, frames) in [
        (EncAlgorithm::DesCbc, 6_400),
        (EncAlgorithm::TdeaCbc, 512),
        (EncAlgorithm::DesEcb, 512),
        (EncAlgorithm::DesCfb, 512),
        (EncAlgorithm::DesOfb, 512),
    ] {
        let (mut tx, mut rx, _) = pair_with(FbsConfig {
            enc_alg,
            ..FbsConfig::default()
        });
        let open = |rx: &mut FbsEndpoint, wire: &[u8]| {
            let pd = ProtectedDatagram::decode_payload(
                Principal::named("alice"),
                Principal::named("bob"),
                wire,
            )
            .unwrap();
            rx.receive(pd)
        };
        let mut malformed = 0;
        for _ in 0..frames {
            let mut wire = tx.send(9, dgram(&body), true).unwrap().encode_payload();
            // The untouched frame opens: the padding it carries is zero.
            assert_eq!(open(&mut rx, &wire).unwrap().body, body, "{enc_alg:?}");
            *wire.last_mut().unwrap() ^= 0x5A;
            match open(&mut rx, &wire) {
                Err(FbsError::MalformedCiphertext) => malformed += 1,
                Err(FbsError::BadMac) => {}
                other => panic!("{enc_alg:?}: a flipped last byte read as {other:?}"),
            }
        }
        match enc_alg {
            EncAlgorithm::DesCfb | EncAlgorithm::DesOfb => {
                assert_eq!(malformed, frames, "{enc_alg:?}: each flip is padding")
            }
            EncAlgorithm::DesCbc => malformed_cbc = malformed,
            _ => {}
        }
    }
    assert!(
        malformed_cbc > 0,
        "some CBC flip left the payload byte intact"
    );
}

#[test]
fn truncation_and_extension_rejected() {
    let (mut tx, mut rx, _) = pair();
    let pd = tx.send(9, dgram(b"length matters here"), true).unwrap();
    let wire = pd.encode_payload();

    for cut in [1usize, 7, 8, 16] {
        let truncated = &wire[..wire.len() - cut];
        match ProtectedDatagram::decode_payload(
            Principal::named("alice"),
            Principal::named("bob"),
            truncated,
        ) {
            Err(_) => {}
            Ok(pd) => assert!(rx.receive(pd).is_err(), "truncated by {cut} accepted"),
        }
    }
    let mut extended = wire.clone();
    extended.extend_from_slice(&[0u8; 8]);
    let pd = ProtectedDatagram::decode_payload(
        Principal::named("alice"),
        Principal::named("bob"),
        &extended,
    )
    .unwrap();
    assert!(rx.receive(pd).is_err(), "extension accepted");
}

#[test]
fn reflection_attack_fails() {
    // A datagram sent A→B replayed back to A (claiming source B) must not
    // verify: flow keys are direction-bound via (S, D) in the derivation.
    let (mut tx, _, _) = pair();
    let pd = tx.send(9, dgram(b"reflect me"), true).unwrap();
    let reflected = ProtectedDatagram {
        source: Principal::named("bob"),
        destination: Principal::named("alice"),
        header: pd.header.clone(),
        body: pd.body.clone(),
    };
    assert_eq!(tx.receive(reflected), Err(FbsError::BadMac));
}

#[test]
fn cross_pair_splice_fails() {
    // Traffic for pair (A,B) replayed into pair (A,C): C cannot verify it
    // even knowing its own master key with A.
    let clock = ManualClock::starting_at(500_000);
    let group = DhGroup::test_group();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"multi-alice-entropy!");
    let b_priv = PrivateValue::from_entropy(group.clone(), b"multi-bob-entropy!!!");
    let c_priv = PrivateValue::from_entropy(group, b"multi-carol-entropy!");
    let (alice, bob, carol) = (
        Principal::named("alice"),
        Principal::named("bob"),
        Principal::named("carol"),
    );
    let mut da = PinnedDirectory::new();
    da.pin(bob.clone(), b_priv.public_value());
    da.pin(carol.clone(), c_priv.public_value());
    let mut dc = PinnedDirectory::new();
    dc.pin(alice.clone(), a_priv.public_value());
    let mut a = FbsEndpoint::new(
        alice.clone(),
        FbsConfig::default(),
        Arc::new(clock.clone()),
        1,
        MasterKeyDaemon::new(a_priv, Box::new(da)),
    );
    let mut c = FbsEndpoint::new(
        carol.clone(),
        FbsConfig::default(),
        Arc::new(clock.clone()),
        2,
        MasterKeyDaemon::new(c_priv, Box::new(dc)),
    );
    let pd = a
        .send(
            5,
            Datagram::new(alice.clone(), bob, b"for bob only".to_vec()),
            true,
        )
        .unwrap();
    // Redirect to carol.
    let redirected = ProtectedDatagram {
        source: alice,
        destination: carol,
        header: pd.header,
        body: pd.body,
    };
    assert!(c.receive(redirected).is_err());
}

#[test]
fn replay_window_boundaries_are_exact() {
    let (mut tx, mut rx, clock) = pair();
    let pd = tx.send(9, dgram(b"boundary test"), false).unwrap();
    // Default window is ±2 minutes. At +2 min it is still fresh...
    clock.advance(2 * 60);
    assert!(rx.receive(pd.clone()).is_ok());
    // ...at +3 min (minute counter moved 3) it is stale.
    clock.advance(60);
    assert!(matches!(
        rx.receive(pd),
        Err(FbsError::StaleTimestamp { .. })
    ));
}

#[test]
fn receiver_clock_behind_sender_still_accepts_within_window() {
    // §6.2: loose synchronisation — the window is symmetric, so a sender
    // ahead of the receiver is tolerated up to the half-width.
    let (mut tx, mut rx, clock) = pair();
    let pd = tx.send(9, dgram(b"from the future"), false).unwrap();
    clock.set(500_000 - 60); // receiver now 1 minute behind send time
    assert!(rx.receive(pd).is_ok());
}

#[test]
fn certificate_substitution_is_caught_by_pvc_verification() {
    // An attacker who can tamper with the directory cannot substitute a
    // forged certificate: the PVC verifies against the CA on every use.
    let ca = CertificateAuthority::new("real-ca", [1u8; 16]);
    let rogue = CertificateAuthority::new("real-ca", [2u8; 16]); // forged secret
    let dir = Arc::new(Directory::new(Duration::ZERO));
    let clock = ManualClock::starting_at(1000);
    let group = DhGroup::test_group();
    let victim = Principal::named("victim");
    let attacker_pv = PrivateValue::from_entropy(group, b"attacker-owned-value").public_value();
    // The directory serves a certificate issued by the ROGUE ca binding
    // the victim's name to the attacker's public value.
    dir.publish(rogue.issue(victim.clone(), attacker_pv, 0, u64::MAX));
    let pvc = Pvc::new(8, dir, ca.verifier(), Arc::new(clock.clone()));
    use fbs::core::PublicValueSource;
    assert!(matches!(
        pvc.fetch(&victim),
        Err(FbsError::CertificateInvalid(_))
    ));
}

#[test]
fn port_reuse_attack_end_to_end_with_fam() {
    // §7.1 attack narrative, at the FAM level: the attacker inherits the
    // victim's flow when the port is reused within THRESHOLD, and the
    // receiving endpoint will happily decrypt replayed flow traffic.
    let (mut tx, mut rx, _) = pair();
    let mut fam = Fam::new(64, IdleTimeoutPolicy::new(600), SflAllocator::new(77));
    let attrs = "udp:alice:2222->bob:9999".to_string();

    let now = rx.clock().now_secs();
    let victim_class = fam.classify(attrs.clone(), now, 64);
    let recorded = tx
        .send(victim_class.sfl, dgram(b"victim's secret"), true)
        .unwrap();

    // Victim exits; attacker binds the same port seconds later: the FAM
    // continues the SAME flow.
    let attacker_class = fam.classify(attrs, now + 10, 64);
    assert_eq!(victim_class.sfl, attacker_class.sfl);

    // The receiver decrypts the replayed datagram while it is fresh —
    // the §7.1 vulnerability — which is why the port quarantine exists
    // (tested in fbs-net::ports and examples/attack_demos).
    assert_eq!(rx.receive(recorded).unwrap().body, b"victim's secret");
}

#[test]
fn host_pair_vs_fbs_attack_matrix() {
    // Summary matrix: which paradigm stops which attack.
    let group = DhGroup::test_group();
    let (mut hp_a, mut hp_b, hp_a_name, hp_b_name) =
        HostPairService::pair(&group, ("alice", "bob"));
    let (mut fbs_tx, mut fbs_rx, _) = pair();

    // Cross-conversation replay: host-pair accepts, FBS's flow binding
    // means the datagram stays in ITS OWN flow (sfl in header) — the
    // attack that matters is ciphertext splicing, which FBS rejects.
    let hp_wire = hp_a.protect(&hp_b_name, 1, b"conv 1").unwrap();
    assert!(hp_b.unprotect(&hp_a_name, 2, &hp_wire).is_ok());

    let pd1 = fbs_tx.send(1, dgram(b"conv one"), true).unwrap();
    let mut pd2 = fbs_tx.send(2, dgram(b"conv two"), true).unwrap();
    pd2.body = pd1.body.clone();
    assert_eq!(fbs_rx.receive(pd2), Err(FbsError::BadMac));
}
