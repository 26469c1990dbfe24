//! Cross-crate integration: full FBS-secured LANs exercising certificates,
//! keying, the FAM, the stack hooks, and both transports together.

use fbs::crypto::dh::DhGroup;
use fbs::ip::hooks::IpMappingConfig;
use fbs::ip::host::SecureNet;
use fbs::net::segment::Impairments;

const A: [u8; 4] = [10, 0, 0, 1];
const B: [u8; 4] = [10, 0, 0, 2];
const C: [u8; 4] = [10, 0, 0, 3];

fn lan(seed: u64, imp: Impairments, cfg: IpMappingConfig) -> SecureNet {
    SecureNet::new(seed, imp, cfg, DhGroup::test_group())
}

#[test]
fn three_hosts_full_mesh_udp() {
    let mut net = lan(1, Impairments::default(), IpMappingConfig::default());
    let hooks: Vec<_> = [A, B, C].into_iter().map(|a| net.add_host(a)).collect();
    for addr in [A, B, C] {
        net.host_mut(addr).udp.bind(7000).unwrap();
    }
    // Every host sends to every other host.
    for (i, src) in [A, B, C].into_iter().enumerate() {
        for dst in [A, B, C] {
            if src != dst {
                let now = net.now_us();
                net.host_mut(src)
                    .udp_send(6000 + i as u16, dst, 7000, b"mesh datagram", now)
                    .unwrap();
            }
        }
    }
    net.run(100_000, 1_000);
    for addr in [A, B, C] {
        assert_eq!(net.host_mut(addr).udp.pending(7000), 2, "host {addr:?}");
    }
    // Each host computed master keys for exactly its two peers.
    for h in &hooks {
        assert_eq!(h.mkd_stats().upcalls, 2);
    }
}

#[test]
fn concurrent_mrt_and_udp_over_one_pair() {
    let mut net = lan(2, Impairments::default(), IpMappingConfig::default());
    let ha = net.add_host(A);
    let _hb = net.add_host(B);

    net.host_mut(B).udp.bind(53).unwrap();
    net.host_mut(B).mrt.listen(80);
    let key = net.host_mut(A).mrt.connect(3000, B, 80);
    net.run(200_000, 1_000);

    let bulk: Vec<u8> = (0..8000u32).map(|i| (i % 250) as u8).collect();
    net.host_mut(A).mrt.send(&key, &bulk).unwrap();
    for i in 0..5 {
        let now = net.now_us();
        net.host_mut(A)
            .udp_send(4000, B, 53, format!("interleaved {i}").as_bytes(), now)
            .unwrap();
        net.run(50_000, 1_000);
    }
    net.run(2_000_000, 1_000);

    assert_eq!(net.host_mut(B).udp.pending(53), 5);
    assert_eq!(net.host_mut(B).mrt.recv(&(80, A, 3000), usize::MAX), bulk);
    // Two separate flows at A: one MRT 5-tuple, one UDP 5-tuple (plus the
    // handshake ACK flow is B-side).
    assert_eq!(ha.combined_stats().unwrap().new_flows, 2);
}

#[test]
fn survives_loss_duplication_corruption_and_reordering() {
    let mut net = lan(
        3,
        Impairments::lossy(0.12, 0.03, 0.03, 2_000),
        IpMappingConfig::default(),
    );
    let ha = net.add_host(A);
    let hb = net.add_host(B);
    net.host_mut(B).mrt.listen(80);
    let key = net.host_mut(A).mrt.connect(3000, B, 80);
    net.run(3_000_000, 1_000);
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 249) as u8).collect();
    net.host_mut(A).mrt.send(&key, &data).unwrap();

    let mut got = Vec::new();
    for _ in 0..600 {
        net.run(100_000, 1_000);
        got.extend(net.host_mut(B).mrt.recv(&(80, A, 3000), usize::MAX));
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(
        got, data,
        "reliable, authenticated transfer over bad medium"
    );
    // The medium really did injure frames...
    let seg = net.net.segment.stats();
    assert!(seg.lost > 0, "impairments active: {seg:?}");
    // ...and every corrupted frame that reached a host was caught by a
    // checksum or the FBS MAC (drops can land on either side since ACKs
    // are corrupted too). A corrupted *address* makes the frame vanish
    // instead, so the counters only need to be consistent, not equal.
    let drops: u64 = [A, B]
        .into_iter()
        .map(|h| net.host_mut(h).stats().header_drops)
        .sum::<u64>()
        + ha.stats().input_errors
        + hb.stats().input_errors;
    assert!(
        drops > 0 || seg.corrupted < 3,
        "corrupted frames must surface as verified drops: seg={seg:?}"
    );
}

#[test]
fn udp_fragmentation_through_fbs() {
    // One protected UDP datagram bigger than the MTU: FBS protects the
    // whole datagram once; fragmentation/reassembly happens below it.
    let mut net = lan(4, Impairments::default(), IpMappingConfig::default());
    let ha = net.add_host(A);
    net.add_host(B);
    net.host_mut(B).udp.bind(53).unwrap();
    let big = vec![0x3Cu8; 4000];
    net.host_mut(A).udp_send(4000, B, 53, &big, 0).unwrap();
    net.run(100_000, 1_000);
    let got = net.host_mut(B).udp.recv(53).expect("reassembled datagram");
    assert_eq!(got.data, big);
    // One FBS protection despite multiple fragments on the wire.
    assert_eq!(ha.stats().protected, 1);
    assert!(net.host_mut(A).stats().frames_sent >= 3);
}

#[test]
fn authentication_only_mode() {
    let cfg = IpMappingConfig {
        encrypt: false,
        ..IpMappingConfig::default()
    };
    let mut net = lan(5, Impairments::default(), cfg);
    let ha = net.add_host(A);
    net.add_host(B);
    net.host_mut(B).udp.bind(53).unwrap();
    net.host_mut(A)
        .udp_send(4000, B, 53, b"authenticated cleartext", 0)
        .unwrap();
    net.run(50_000, 1_000);
    assert_eq!(
        net.host_mut(B).udp.recv(53).unwrap().data,
        b"authenticated cleartext"
    );
    assert_eq!(ha.endpoint_stats().encryptions, 0);
    assert_eq!(ha.stats().protected, 1);
}

#[test]
fn long_run_many_flows_stay_bounded() {
    // Soak: hundreds of short conversations; soft state must not grow
    // without bound and every datagram must arrive.
    let mut net = lan(7, Impairments::ideal(), IpMappingConfig::default());
    let ha = net.add_host(A);
    net.add_host(B);
    net.host_mut(B).udp.bind(9000).unwrap();
    let mut sent = 0;
    for round in 0..50u16 {
        for port in 0..4u16 {
            let now = net.now_us();
            net.host_mut(A)
                .udp_send(1024 + round * 4 + port, B, 9000, b"short conversation", now)
                .unwrap();
            sent += 1;
        }
        net.run(30_000, 1_000);
    }
    net.run(200_000, 1_000);
    assert_eq!(net.host_mut(B).udp.pending(9000), sent);
    let cs = ha.combined_stats().unwrap();
    assert_eq!(cs.new_flows + cs.hits, sent as u64);
    assert_eq!(ha.mkd_stats().upcalls, 1, "still only one master key");
}
