//! Property tests for the batch-first hook pipeline: pushing a batch of
//! datagrams through [`Host::ip_output_batch`] / [`Host::deliver_frames`]
//! (one `process_batch` hook call) is bit-identical to pushing the same
//! datagrams one at a time through the scalar `ip_output` /
//! `deliver_frame` wrappers, and splitting the shards over 1, 2 or 4
//! owners (`workers`) changes no byte — across padding edges, every
//! cipher suite and mode, MAC truncation, and batches mixing covered
//! (UDP) and uncovered (bypass) protocols.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]

use fbs_core::header::EncAlgorithm;
use fbs_core::protocol::EndpointStats;
use fbs_core::FbsConfig;
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::combined::CombinedStats;
use fbs_ip::hooks::{FbsIpHooks, IpHookStats, IpMappingConfig};
use fbs_ip::host::World;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{Host, NetError};
use proptest::prelude::*;

const A: [u8; 4] = [10, 7, 0, 1];
const B: [u8; 4] = [10, 7, 0, 2];
const NOW_US: u64 = 5_000_000;

/// One item heading into a batch: a UDP datagram (covered by the hooks)
/// or a bypass datagram (never touched by them).
#[derive(Clone, Debug)]
struct Item {
    covered: bool,
    fill: u8,
    data_len: usize,
    /// Source port: items on different ports are different flows, so a
    /// run of them is a run of births to one peer.
    sport: u16,
}

impl Item {
    /// The transport payload handed to `ip_output`.
    fn payload(&self) -> Vec<u8> {
        let body = vec![self.fill; self.data_len];
        if self.covered {
            fbs_net::udp::encode(A, B, self.sport, 53, &body)
        } else {
            body
        }
    }

    fn header(&self, payload_len: usize) -> Ipv4Header {
        let proto = if self.covered {
            Proto::Udp
        } else {
            Proto::Bypass
        };
        Ipv4Header::new(A, B, proto, payload_len)
    }
}

/// Build a deterministic sender/receiver pair sharing one CA, directory,
/// and clock, each with its hooks handle. Called twice with the same
/// config it yields bit-identical twins (all key material derives from
/// the fixed seeds).
fn world(cfg: &IpMappingConfig) -> [(Host, FbsIpHooks); 2] {
    let world = World::new(7, DhGroup::test_group());
    world.clock.set(3);
    let mut pair = [A, B].map(|addr| world.secure_host(addr, cfg.clone()));
    pair[1].0.udp.bind(53).unwrap();
    pair
}

fn cfg_for(
    workers: usize,
    suite: usize,
    enc_id: u8,
    encrypt: bool,
    truncate: bool,
) -> IpMappingConfig {
    let base = IpMappingConfig::default();
    IpMappingConfig {
        workers,
        encrypt,
        fbs: FbsConfig {
            suite: CipherSuite::ALL[suite],
            enc_alg: EncAlgorithm::from_wire_id(enc_id).expect("valid wire id"),
            mac_truncate: truncate.then_some(8),
            ..base.fbs
        },
        ..base
    }
}

/// Padding edges: empty, sub-block, one-off-block, exact block, and a
/// multi-fragment datagram that is 7 bytes past an 8 KiB block boundary;
/// one of four source ports.
fn item_strategy() -> impl Strategy<Value = Item> {
    const LENS: [usize; 5] = [0, 1, 7, 8, 8 * 1024 + 7];
    (
        any::<bool>(),
        any::<u8>(),
        0usize..LENS.len(),
        4000u16..4004,
    )
        .prop_map(|(covered, fill, i, sport)| Item {
            covered,
            fill,
            data_len: LENS[i],
            sport,
        })
}

/// Everything an observer can tell one run from another by.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `ip_output`'s verdict per item.
    verdicts: Vec<Result<(), NetError>>,
    frames: Vec<Vec<u8>>,
    /// What the receiver handed up per item (`None`: nothing).
    delivered: Vec<Option<Vec<u8>>>,
    /// Sender's then receiver's.
    hook_stats: [IpHookStats; 2],
    /// The sender's flow table.
    combined: Option<CombinedStats>,
    endpoint_stats: [EndpointStats; 2],
    input_rejects: u64,
    dispatched: u64,
}

/// Push `items` through a fresh world: one at a time through the scalar
/// entry points, or as one batch each way.
fn observe(items: &[Item], cfg: &IpMappingConfig, batch: bool) -> Observed {
    let [(mut tx, tx_hooks), (mut rx, rx_hooks)] = world(cfg);
    let datagrams = items.iter().map(|item| {
        let payload = item.payload();
        (item.header(payload.len()), payload)
    });
    let results = if batch {
        tx.ip_output_batch(datagrams.collect(), NOW_US)
    } else {
        datagrams
            .map(|(header, payload)| tx.ip_output(header, payload, NOW_US))
            .collect()
    };
    let frames = tx.take_frames();
    if batch {
        rx.deliver_frames(&frames, NOW_US);
    } else {
        for f in &frames {
            rx.deliver_frame(f, NOW_US);
        }
    }
    let delivered = items
        .iter()
        .map(|item| match item.covered {
            true => rx.udp.recv(53).map(|d| d.data),
            false => rx.bypass_recv().map(|(_, body)| body),
        })
        .collect();
    assert!(rx.udp.recv(53).is_none(), "no extra datagrams");
    Observed {
        verdicts: results,
        frames,
        delivered,
        hook_stats: [tx_hooks.stats(), rx_hooks.stats()],
        combined: tx_hooks.combined_stats(),
        endpoint_stats: [tx_hooks.endpoint_stats(), rx_hooks.endpoint_stats()],
        input_rejects: rx.stats().hook_input_rejects,
        dispatched: rx.stats().dispatched,
    }
}

/// The pipeline equivalence law: scalar and batch submission, under 1, 2
/// or 4 shard owners (`workers`, all over 8 shards), produce the same
/// verdicts, byte-identical wire frames,
/// byte-identical plaintexts in the same order, and the same counters;
/// the sender's table starts one flow per covered source port.
fn check_equivalence(
    items: &[Item],
    suite: usize,
    enc_id: u8,
    encrypt: bool,
    truncate: bool,
) -> Result<(), TestCaseError> {
    let cfg = |workers| cfg_for(workers, suite, enc_id, encrypt, truncate);
    let reference = observe(items, &cfg(2), false);
    // Every covered datagram decrypts back to the original body, in
    // submission order; bypass datagrams arrive untouched.
    for (item, got) in items.iter().zip(&reference.delivered) {
        prop_assert_eq!(got.as_ref(), Some(&vec![item.fill; item.data_len]));
    }
    let flows: std::collections::BTreeSet<u16> = items
        .iter()
        .filter(|i| i.covered)
        .map(|i| i.sport)
        .collect();
    let births = reference.combined.expect("combined stats").new_flows;
    prop_assert_eq!(births, flows.len() as u64);
    for (workers, batch) in [(2, true), (1, false), (1, true), (4, false), (4, true)] {
        let got = observe(items, &cfg(workers), batch);
        prop_assert_eq!(&got, &reference, "workers {} batch {}", workers, batch);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_pipeline_is_bit_identical_to_scalar(
        items in proptest::collection::vec(item_strategy(), 1..8),
        suite in 0usize..CipherSuite::ALL.len(),
        enc_id in 0u8..6,
        encrypt in any::<bool>(),
        truncate in any::<bool>(),
    ) {
        check_equivalence(&items, suite, enc_id, encrypt, truncate)?;
    }
}
