//! The two FBS engines agree on the wire: `FbsEndpoint` (the §5.2
//! protocol object) and `FbsIpHooks` (the §7.2 IP mapping) derive flow
//! keys through one `KeyingService::derive` and open through one
//! receive-miss rule, so a datagram either engine seals opens under the
//! other, per cipher suite:
//!
//! * endpoint A seals for B; B's input hook passes it, body intact;
//! * A's output hook seals for B; B's endpoint opens it, body intact;
//! * one flipped body bit is rejected by both of B's engines, and
//!   neither receive flow-key cache takes an entry for it.

use fbs_core::{
    BufferPool, FbsEndpoint, FbsError, ManualClock, MasterKeyDaemon, PinnedDirectory, Principal,
};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_crypto::CipherSuite;
use fbs_ip::{FbsIpHooks, IpMappingConfig};
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_net::{Datagram, HookOutcome, RejectReason, SecurityHooks};
use fbs_obs::Direction;
use std::sync::Arc;

const A: Ipv4Addr = [10, 7, 0, 1];
const B: Ipv4Addr = [10, 7, 0, 2];
const NOW_US: u64 = 1_000_000;

/// One host's two engines, built from the same private value and
/// configuration, on the shared clock.
struct Host {
    endpoint: FbsEndpoint,
    hooks: FbsIpHooks,
}

fn private(addr: Ipv4Addr) -> PrivateValue {
    PrivateValue::from_entropy(
        DhGroup::test_group(),
        &[&addr[..], b"engines-agree"].concat(),
    )
}

fn host(addr: Ipv4Addr, peer: Ipv4Addr, cfg: &IpMappingConfig, clock: &ManualClock) -> Host {
    let mkd = || {
        let mut dir = PinnedDirectory::new();
        dir.pin(Principal::from_ipv4(peer), private(peer).public_value());
        MasterKeyDaemon::new(private(addr), Box::new(dir))
    };
    let local = Principal::from_ipv4(addr);
    Host {
        endpoint: FbsEndpoint::new(
            local.clone(),
            cfg.fbs.clone(),
            Arc::new(clock.clone()),
            0xE1,
            mkd(),
        ),
        hooks: FbsIpHooks::new(local, cfg.clone(), Arc::new(clock.clone()), 0xE2, mkd()),
    }
}

/// A UDP-shaped plaintext: a port prefix the 5-tuple extracts from,
/// then a body.
fn plaintext() -> Vec<u8> {
    [
        &[0x0F, 0xA0, 0x00, 0x35][..],
        b"one keying path, two engines",
    ]
    .concat()
}

/// `hooks` in `dir` on one datagram from A to B: a batch of one
/// through the stack's entry point, with a pool that keeps nothing.
fn one(hooks: &mut FbsIpHooks, dir: Direction, payload: Vec<u8>) -> HookOutcome {
    let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
    let mut batch = vec![Datagram { header, payload }];
    let (mut pool, mut out) = (BufferPool::with_limits(0, 0), Vec::new());
    hooks.process_batch_into(dir, &mut batch, &mut pool, NOW_US, &mut out);
    out.pop().expect("one outcome per datagram").1
}

/// B's input hook on `wire`, sent from A.
fn hook_input(hooks: &mut FbsIpHooks, wire: Vec<u8>) -> HookOutcome {
    one(hooks, Direction::Input, wire)
}

fn pair(suite: CipherSuite) -> (Host, Host) {
    let clock = ManualClock::starting_at(3_600);
    let mut cfg = IpMappingConfig::default();
    cfg.fbs.suite = suite;
    (host(A, B, &cfg, &clock), host(B, A, &cfg, &clock))
}

#[test]
fn an_endpoint_seal_passes_the_peers_input_hook() {
    for suite in CipherSuite::ALL {
        let (mut a, mut b) = pair(suite);
        let mut wire = Vec::new();
        a.endpoint
            .seal_into(40, &Principal::from_ipv4(B), &plaintext(), true, &mut wire)
            .unwrap();
        match hook_input(&mut b.hooks, wire) {
            HookOutcome::Pass(body) => assert_eq!(body, plaintext(), "{suite:?}"),
            other => panic!("{suite:?}: hook rejected an endpoint seal: {other:?}"),
        }
        assert_eq!(b.hooks.rfkc_stats().insertions, 1, "{suite:?}");
    }
}

#[test]
fn a_hook_seal_opens_under_the_peers_endpoint() {
    for suite in CipherSuite::ALL {
        let (mut a, mut b) = pair(suite);
        let plain = plaintext();
        let wire = match one(&mut a.hooks, Direction::Output, plain.clone()) {
            HookOutcome::Pass(wire) => wire,
            other => panic!("{suite:?}: output hook failed: {other:?}"),
        };
        let mut body = Vec::new();
        b.endpoint
            .open_into(&Principal::from_ipv4(A), &wire, &mut body)
            .unwrap_or_else(|e| panic!("{suite:?}: endpoint rejected a hook seal: {e:?}"));
        assert_eq!(body, plain, "{suite:?}");
        assert_eq!(b.endpoint.rfkc_stats().insertions, 1, "{suite:?}");
    }
}

#[test]
fn a_flipped_body_bit_is_rejected_by_both_engines_and_caches_nothing() {
    for suite in CipherSuite::ALL {
        let (mut a, mut b) = pair(suite);
        let mut wire = Vec::new();
        a.endpoint
            .seal_into(41, &Principal::from_ipv4(B), &plaintext(), true, &mut wire)
            .unwrap();
        let mut forged = wire.clone();
        forged[a.endpoint.config().wire_header_len()] ^= 0x01;

        let mut body = Vec::new();
        assert_eq!(
            b.endpoint
                .open_into(&Principal::from_ipv4(A), &forged, &mut body),
            Err(FbsError::BadMac),
            "{suite:?}: endpoint"
        );
        match hook_input(&mut b.hooks, forged) {
            HookOutcome::Reject(RejectReason::BadMac) => {}
            other => panic!("{suite:?}: hook passed a flipped body bit: {other:?}"),
        }
        // Each forged birth cost a lookup and a derivation, but no slot.
        let (ep, hk) = (b.endpoint.rfkc_stats(), b.hooks.rfkc_stats());
        assert_eq!((ep.misses(), ep.insertions), (1, 0), "{suite:?}: endpoint");
        assert_eq!((hk.misses(), hk.insertions), (1, 0), "{suite:?}: hooks");

        // The genuine datagram still opens under both, and is cached.
        b.endpoint
            .open_into(&Principal::from_ipv4(A), &wire, &mut body)
            .unwrap();
        assert!(matches!(
            hook_input(&mut b.hooks, wire),
            HookOutcome::Pass(_)
        ));
        assert_eq!(b.endpoint.rfkc_stats().insertions, 1, "{suite:?}");
        assert_eq!(b.hooks.rfkc_stats().insertions, 1, "{suite:?}");
    }
}
