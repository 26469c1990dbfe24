//! Criterion benches of the FBS protocol path itself, including the §7.2
//! design-choice ablation called out in DESIGN.md:
//!
//! * combined FST/TFKC lookup vs separate FAM + TFKC;
//! * per-datagram cost across payload sizes and variants;
//! * the IP hooks' fixed cost per resident NOP datagram, each way;
//! * the UDP checksum every datagram pays on encode and on decode.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fbs_bench::endpoints::{endpoint_pair, principals};
use fbs_core::policy::IdleTimeoutPolicy;
use fbs_core::{BufferPool, Datagram, FbsConfig};
use fbs_core::{Fam, FlowKey, SealedFlowKey, SflAllocator};
use fbs_crypto::dh::DhGroup;
use fbs_ip::{CombinedTable, IpMappingConfig, World};
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{HookOutcome, SecurityHooks};
use fbs_obs::Direction;
use std::sync::Arc;

fn dgram(payload: usize) -> Datagram {
    let (s, d) = principals();
    Datagram::new(s, d, vec![0xA5u8; payload])
}

fn bench_send_receive(c: &mut Criterion) {
    let mut g = c.benchmark_group("send-receive");
    for payload in [64usize, 512, 1460, 8192] {
        g.throughput(Throughput::Bytes(payload as u64));
        for (name, nop, secret) in [
            ("nop", true, false),
            ("md5-only", false, false),
            ("des+md5", false, true),
        ] {
            let cfg = FbsConfig {
                nop_crypto: nop,
                ..FbsConfig::default()
            };
            let (mut tx, mut rx, _) = endpoint_pair(cfg, DhGroup::oakley1());
            // Warm caches.
            let pd = tx.send(1, dgram(payload), secret).unwrap();
            rx.receive(pd).unwrap();
            g.bench_with_input(BenchmarkId::new(name, payload), &payload, |b, &payload| {
                b.iter(|| {
                    let pd = tx.send(1, dgram(payload), secret).unwrap();
                    black_box(rx.receive(pd).unwrap())
                })
            });
        }
    }
    g.finish();
}

fn bench_lookup_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow-lookup");
    // §7.2 ablation: merged FST/TFKC (one hash) vs FAM classify + TFKC
    // get (two hashes). Measured on the lookup machinery alone.
    let tuple = fbs_ip::FiveTuple {
        proto: 17,
        saddr: [10, 0, 0, 1],
        sport: 4321,
        daddr: [10, 0, 0, 2],
        dport: 53,
    };
    let mut combined = CombinedTable::new(64, 600, SflAllocator::new(1));
    let sfl = combined.reserve_sfl();
    let key = SealedFlowKey::seal(FlowKey::new(&sfl.to_be_bytes().repeat(2)));
    combined.insert(tuple, sfl, Arc::new(key), 0);
    g.bench_function("combined-fst-tfkc", |b| {
        b.iter(|| combined.probe(black_box(&tuple), 1).map(|(sfl, _)| sfl))
    });

    let mut fam: Fam<Vec<u8>, IdleTimeoutPolicy> =
        Fam::new(64, IdleTimeoutPolicy::new(600), SflAllocator::new(1));
    let mut tfkc: fbs_core::SoftCache<u64, FlowKey> =
        fbs_core::SoftCache::new(64, 1, |k: &u64| fbs_crypto::crc32(&k.to_be_bytes()));
    let attrs: Vec<u8> = b"10.0.0.1:4321->10.0.0.2:53/17".to_vec();
    let class = fam.classify(attrs.clone(), 0, 100);
    tfkc.insert(class.sfl, FlowKey::new(&[0; 16]));
    g.bench_function("separate-fam-then-tfkc", |b| {
        b.iter(|| {
            let class = fam.classify(black_box(attrs.clone()), 1, 100);
            black_box(tfkc.get(&class.sfl))
        })
    });
    g.finish();
}

fn bench_header_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("header");
    let header = fbs_core::SecurityFlowHeader {
        sfl: 0x0102030405060708,
        confounder: 0xDEADBEEF,
        timestamp: 123456,
        mac_alg: fbs_crypto::MacAlgorithm::KeyedMd5,
        enc_alg: fbs_core::EncAlgorithm::DesCbc,
        suite: fbs_crypto::CipherSuite::Paper,
        plaintext_len: 1460,
        mac: vec![0xAB; 16],
    };
    let encoded = header.encode();
    g.bench_function("encode", |b| b.iter(|| black_box(header.encode())));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(fbs_core::SecurityFlowHeader::decode(&encoded).unwrap()))
    });
    g.finish();
}

fn bench_udp_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    // A 1400-byte AEAD datagram's segment and an 8192-byte datagram's,
    // each with its 8-byte UDP header: the sum `udp::encode` and the
    // receiver's `udp::decode` each run once per datagram.
    for len in [1408usize, 8200] {
        let segment: Vec<u8> = (0..len as u32).map(|i| (i * 167 + 13) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("udp-checksum-{len}"), |b| {
            b.iter(|| fbs_net::udp::udp_checksum([10, 0, 0, 1], [10, 0, 0, 2], black_box(&segment)))
        });
    }
    g.finish();
}

/// The hooks' fixed per-datagram cost: one `FbsIpHooks::process_batch`
/// of 1,024 resident 64-byte NOP datagrams (64 flows, keys cached on
/// both sides) on one thread, per direction. Each iteration also stages
/// its batch from pool buffers and recycles the verdicts' buffers; the
/// rate is datagrams per second.
fn bench_hooks(c: &mut Criterion) {
    const BATCH: usize = 1024;
    const FLOWS: usize = 64;
    const NOW_SECS: u64 = 1_000;
    let world = World::new(1, DhGroup::test_group());
    world.clock.set(NOW_SECS);
    let (a, b) = ([10, 12, 0, 1], [10, 12, 0, 2]);
    let cfg = IpMappingConfig {
        workers: 1,
        fbs: FbsConfig {
            nop_crypto: true,
            ..FbsConfig::default()
        },
        ..IpMappingConfig::default()
    };
    let mut tx = world.hooks(a, cfg.clone());
    let mut rx = world.hooks(b, cfg);
    let now_us = NOW_SECS * 1_000_000;
    let mut pool = BufferPool::new();
    let stage = |pool: &mut BufferPool, items: &[(Ipv4Header, Vec<u8>)]| -> Vec<_> {
        items
            .iter()
            .map(|(header, bytes)| {
                let mut payload = pool.take();
                payload.extend_from_slice(bytes);
                fbs_net::Datagram {
                    header: header.clone(),
                    payload,
                }
            })
            .collect()
    };
    let passed = |verdicts: Vec<(Ipv4Header, HookOutcome)>| -> Vec<(Ipv4Header, Vec<u8>)> {
        verdicts
            .into_iter()
            .map(|(header, outcome)| match outcome {
                HookOutcome::Pass(bytes) => (header, bytes),
                other => panic!("warm-up datagram not passed: {other:?}"),
            })
            .collect()
    };
    // 64-byte UDP segments: ports, then filler.
    let plain: Vec<(Ipv4Header, Vec<u8>)> = (0..BATCH)
        .map(|i| {
            let mut p = vec![0xA5; 64];
            p[..2].copy_from_slice(&(7000 + (i % FLOWS) as u16).to_be_bytes());
            p[2..4].copy_from_slice(&53u16.to_be_bytes());
            (Ipv4Header::new(a, b, Proto::Udp, p.len()), p)
        })
        .collect();
    // One pass each way keys every flow on both sides; the sealed batch
    // is the input direction's template.
    let wire = passed(tx.process_batch(
        Direction::Output,
        stage(&mut pool, &plain),
        &mut pool,
        now_us,
    ));
    passed(rx.process_batch(Direction::Input, stage(&mut pool, &wire), &mut pool, now_us));

    let mut g = c.benchmark_group("hooks");
    g.throughput(Throughput::Elements(BATCH as u64));
    for (name, hooks, dir, items) in [
        ("nop64-out", &mut tx, Direction::Output, &plain),
        ("nop64-in", &mut rx, Direction::Input, &wire),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let batch = stage(&mut pool, items);
                for (_, outcome) in hooks.process_batch(dir, batch, &mut pool, now_us) {
                    match outcome {
                        HookOutcome::Pass(bytes) => pool.put(bytes),
                        other => panic!("{name}: {other:?}"),
                    }
                }
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hooks,
    bench_send_receive,
    bench_lookup_paths,
    bench_header_codec,
    bench_udp_checksum
);
criterion_main!(benches);
