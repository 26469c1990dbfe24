//! Proves the key-schedule amortisation satellite: with the DES schedule
//! cached inside `SealedFlowKey`, subkey expansion runs once per flow (per
//! side), not once per datagram.
//!
//! A key sealed for a suite that reads no DES schedule builds none.
//!
//! This lives in its own integration-test binary because it asserts exact
//! deltas of the process-global schedule counter in `fbs-crypto`; sharing a
//! process with other tests would race it. The tests here take `SERIAL`
//! for the same reason.

use fbs_core::{
    derive_flow_key, Datagram, EncAlgorithm, FbsConfig, FbsEndpoint, KeyDerivation, ManualClock,
    MasterKeyDaemon, PinnedDirectory, Principal, SealedFlowKey,
};
use fbs_crypto::des::key_schedule_count;
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_crypto::{CipherSuite, MacAlgorithm};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn endpoint_pair() -> (FbsEndpoint, FbsEndpoint) {
    let clock = ManualClock::starting_at(1_000_000);
    let group = DhGroup::test_group();
    let s_priv = PrivateValue::from_entropy(group.clone(), b"source-entropy-20-bytes");
    let d_priv = PrivateValue::from_entropy(group, b"dest-entropy-20-bytes!!");
    let s = Principal::named("S");
    let d = Principal::named("D");
    let mut dir_s = PinnedDirectory::new();
    dir_s.pin(d.clone(), d_priv.public_value());
    let mut dir_d = PinnedDirectory::new();
    dir_d.pin(s.clone(), s_priv.public_value());
    let ep_s = FbsEndpoint::new(
        s,
        FbsConfig::default(),
        Arc::new(clock.clone()),
        0x1111,
        MasterKeyDaemon::new(s_priv, Box::new(dir_s)),
    );
    let ep_d = FbsEndpoint::new(
        d,
        FbsConfig::default(),
        Arc::new(clock),
        0x2222,
        MasterKeyDaemon::new(d_priv, Box::new(dir_d)),
    );
    (ep_s, ep_d)
}

#[test]
fn des_subkey_expansion_runs_once_per_flow_not_per_datagram() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut s, mut d) = endpoint_pair();
    let dgram = |i: u32| {
        Datagram::new(
            Principal::named("S"),
            Principal::named("D"),
            format!("datagram {i}").into_bytes(),
        )
    };

    // Warm the flow: first datagram derives the flow key on both sides,
    // expanding each side's schedule exactly once.
    let before_warm = key_schedule_count();
    let pd = s.send(42, dgram(0), true).unwrap();
    d.receive(pd).unwrap();
    let per_flow = key_schedule_count() - before_warm;
    assert!(
        per_flow >= 2,
        "warming one flow must expand at least sender+receiver schedules, saw {per_flow}"
    );

    // Steady state: nine more datagrams on the SAME flow expand nothing.
    let before_steady = key_schedule_count();
    for i in 1..10 {
        let pd = s.send(42, dgram(i), true).unwrap();
        d.receive(pd).unwrap();
    }
    assert_eq!(
        key_schedule_count() - before_steady,
        0,
        "cached-flow datagrams must not re-expand the DES key schedule"
    );

    // A NEW flow expands again (cache-miss path), proving the counter is
    // live and the steady-state zero above is meaningful.
    let before_new = key_schedule_count();
    let pd = s.send(43, dgram(100), true).unwrap();
    d.receive(pd).unwrap();
    assert!(key_schedule_count() - before_new >= 2);
}

#[test]
fn an_aead_flow_birth_builds_no_des_schedule() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (s, d) = (Principal::named("S"), Principal::named("D"));
    let before = key_schedule_count();
    let key = derive_flow_key(KeyDerivation::Md5, 9, b"master", &s, &d);
    let sealed = SealedFlowKey::seal_for(
        key,
        CipherSuite::AeadChaPoly,
        MacAlgorithm::Poly1305,
        EncAlgorithm::ChaCha20,
    );
    assert!(sealed.chacha_key().is_some());
    assert_eq!(
        key_schedule_count(),
        before,
        "the AEAD suite reads no DES schedule, so sealing must build none"
    );
}
