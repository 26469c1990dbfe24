//! Replays: code that runs on worker threads below `process_batch`
//! cannot be wrapped in a live span from outside the crates, so the
//! workload's sizes, suite, geometry and key population are pushed
//! through each layer's public functions on the driver thread and timed.

use crate::driver::{mapping_config, World, MTU};
use crate::workload::{Suite, Workload, A, B, SHARDS};
use fbs_cert::Pvc;
use fbs_core::protocol::{flow_key_hash, FlowKeyId};
use fbs_core::{
    derive_flow_key, BatchVerifier, BufferPool, FbsEndpoint, ManualClock, MasterKeyDaemon,
    PinnedDirectory, Principal, SealedFlowKey, SflAllocator, SoftCache, SpscRing,
};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_crypto::{poly1305, ChaCha20};
use fbs_ip::CombinedTable;
use fbs_net::frag::{fragment_pooled, Reassembler};
use fbs_net::ip::{Ipv4Header, Packet, Proto};
use fbs_net::udp::UDP_HEADER_LEN;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each replay loops.
const BUDGET: Duration = Duration::from_millis(40);

/// Mean ns per call of `op`, looping in rounds of `round` calls until
/// [`BUDGET`] is spent (at least one round).
fn ns_per_op(round: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    loop {
        for _ in 0..round {
            op(calls);
            calls += 1;
        }
        let elapsed = start.elapsed();
        if elapsed >= BUDGET {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Mean ns per call of `op` alone, each call fed by an untimed
/// `prepare` (for operations that consume their input).
fn ns_per_prepared_op<T>(mut prepare: impl FnMut() -> T, mut op: impl FnMut(T)) -> f64 {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut calls = 0u32;
    while start.elapsed() < BUDGET {
        let input = prepare();
        let t = Instant::now();
        op(input);
        busy += t.elapsed();
        calls += 1;
    }
    busy.as_nanos() as f64 / calls as f64
}

/// Per-layer numbers from the replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replays {
    /// `FbsEndpoint::seal_into`, ns per datagram.
    pub seal_ns: f64,
    /// `FbsEndpoint::open_into`, ns per datagram (rejects included at
    /// the workload's forged share).
    pub open_ns: f64,
    /// Suite cipher, ns per payload byte (0 under NOP).
    pub cipher_ns_per_byte: f64,
    /// Suite MAC, ns per payload byte (0 under NOP).
    pub mac_ns_per_byte: f64,
    /// `SoftCache::get` on a resident key, ns.
    pub cache_hit_ns: f64,
    /// `SoftCache::insert` of a new key, ns.
    pub cache_insert_ns: f64,
    /// `CombinedTable::probe` on a resident tuple, ns.
    pub combined_probe_ns: f64,
    /// `derive_flow_key` + `SealedFlowKey::seal_for`, ns.
    pub derive_ns: f64,
    /// `fragment_pooled`, ns per datagram.
    pub fragment_ns: f64,
    /// `Reassembler::push_pooled` over all fragments, ns per datagram.
    pub reassemble_ns: f64,
    /// `Packet::encode`, ns per frame.
    pub ip_encode_ns: f64,
    /// `Packet::decode_pooled`, ns per frame.
    pub ip_decode_ns: f64,
    /// `SpscRing::try_push` + `try_pop` on one thread, ns.
    pub ring_push_pop_ns: f64,
    /// One ring hand-off between two threads, µs (half a ping-pong).
    pub ring_handoff_us: f64,
    /// `BufferPool::take` + `put`, ns.
    pub pool_take_put_ns: f64,
    /// `BatchVerifier::push` + `resolve`, ns per datagram.
    pub batchauth_ns: f64,
    /// One fresh-peer master-key upcall (certificate fetch + verify +
    /// DH), ms.
    pub master_key_ms: f64,
}

/// A connected endpoint pair under the workload's `FbsConfig`. The
/// small test group keeps the one-off master key cheap; seal and open
/// do not depend on its size.
fn endpoint_pair(wl: &Workload, clock: &ManualClock) -> (FbsEndpoint, FbsEndpoint) {
    let cfg = mapping_config(wl).fbs;
    let group = DhGroup::test_group();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"replay-sender-entropy");
    let b_priv = PrivateValue::from_entropy(group, b"replay-receiver-entropy");
    let (a, b) = (Principal::from_ipv4(A), Principal::from_ipv4(B));
    let mut dir_a = PinnedDirectory::new();
    dir_a.pin(b.clone(), b_priv.public_value());
    let mut dir_b = PinnedDirectory::new();
    dir_b.pin(a.clone(), a_priv.public_value());
    let tx = FbsEndpoint::new(
        a,
        cfg.clone(),
        Arc::new(clock.clone()),
        0x5EA1,
        MasterKeyDaemon::new(a_priv, Box::new(dir_a)),
    );
    let rx = FbsEndpoint::new(
        b,
        cfg,
        Arc::new(clock.clone()),
        0x09E4,
        MasterKeyDaemon::new(b_priv, Box::new(dir_b)),
    );
    (tx, rx)
}

fn core(wl: &Workload, world: &World, r: &mut Replays) {
    let (mut tx, mut rx) = endpoint_pair(wl, &world.clock);
    let (a, b) = (Principal::from_ipv4(A), Principal::from_ipv4(B));
    let body = vec![0xA5u8; wl.payload + UDP_HEADER_LEN];
    let mut out = Vec::with_capacity(body.len() + 128);
    r.seal_ns = ns_per_op(64, |_| {
        out.clear();
        tx.seal_into(1, &b, black_box(&body), true, &mut out)
            .expect("replay seal");
    });
    // A round of wires, the workload's share of them forged the way
    // the link forges frames.
    let wires: Vec<Vec<u8>> = (0..1000u32)
        .map(|i| {
            let mut wire = Vec::new();
            tx.seal_into(1, &b, &body, true, &mut wire)
                .expect("replay seal");
            if i % 1000 < wl.forged_per_mille {
                *wire.last_mut().expect("non-empty wire") ^= 1;
            }
            wire
        })
        .collect();
    r.open_ns = ns_per_op(wires.len(), |i| {
        out.clear();
        let opened = rx.open_into(&a, black_box(&wires[i % wires.len()]), &mut out);
        black_box(opened.is_ok());
    });
}

fn crypto(wl: &Workload, r: &mut Replays) {
    if wl.suite == Suite::Nop {
        return;
    }
    let key = [0x42u8; 32];
    let cipher = ChaCha20::new(&key, &[7u8; 12]);
    let mut buf = vec![0x5Au8; wl.payload + UDP_HEADER_LEN];
    let bytes = buf.len() as f64;
    r.cipher_ns_per_byte = ns_per_op(16, |_| cipher.xor_keystream(1, black_box(&mut buf))) / bytes;
    r.mac_ns_per_byte = ns_per_op(16, |_| {
        black_box(poly1305(&key, &[black_box(&buf)]));
    }) / bytes;
}

fn tables(wl: &Workload, world: &World, r: &mut Replays) {
    let (a, b) = (Principal::from_ipv4(A), Principal::from_ipv4(B));
    let cfg = mapping_config(wl).fbs;
    let derive = |sfl: u64| -> Arc<SealedFlowKey> {
        let key = derive_flow_key(cfg.key_derivation, sfl, &[0x33; 16], &a, &b);
        Arc::new(cfg.seal_key(key))
    };
    r.derive_ns = ns_per_op(64, |i| {
        black_box(derive(black_box(i as u64)));
    });

    // One shard holds an eighth of the population, under sfls strided
    // the way a shard's allocator issues them.
    let id = |i: u64| -> FlowKeyId { (i * SHARDS as u64, a.clone(), b.clone()) };
    let value = derive(1);
    let resident = world
        .flows
        .len()
        .div_ceil(SHARDS)
        .min(wl.rfkc.0 * wl.rfkc.1);
    let mut cache: SoftCache<FlowKeyId, Arc<SealedFlowKey>> =
        SoftCache::new(wl.rfkc.0, wl.rfkc.1, flow_key_hash);
    let keys: Vec<FlowKeyId> = (0..resident as u64).map(id).collect();
    for k in &keys {
        cache.insert(k.clone(), Arc::clone(&value));
    }
    r.cache_hit_ns = ns_per_op(256, |i| {
        black_box(cache.get(black_box(&keys[i.wrapping_mul(7919) % keys.len()])));
    });
    let mut fresh = resident as u64;
    r.cache_insert_ns = ns_per_prepared_op(
        || {
            fresh += 1;
            id(fresh)
        },
        |key| {
            black_box(cache.insert(key, Arc::clone(&value)));
        },
    );

    let mut table = CombinedTable::new(
        wl.fst_size,
        600,
        SflAllocator::with_stride(0, SHARDS as u64),
    );
    let tuples: Vec<_> = world
        .flows
        .iter()
        .filter(|f| f.shard_and_slot(wl.fst_size).0 == 0)
        .map(|f| f.tuple())
        .collect();
    for t in &tuples {
        let sfl = table.reserve_sfl();
        table.insert(*t, sfl, Arc::clone(&value), 1_000);
    }
    r.combined_probe_ns = ns_per_op(256, |i| {
        let t = &tuples[i.wrapping_mul(7919) % tuples.len()];
        black_box(table.probe(black_box(t), 1_000).is_some());
    });
}

fn net(wl: &Workload, r: &mut Replays) {
    // UDP header plus roughly the FBS header and MAC: what the stack
    // fragments is the protected payload.
    let payload_len = wl.payload + UDP_HEADER_LEN + 64;
    let mut pool = BufferPool::new();
    let mut id = 0u16;
    let mut packet = |pool: &mut BufferPool| {
        let mut payload = pool.take();
        payload.resize(payload_len, 0x3C);
        let mut header = Ipv4Header::new(A, B, Proto::Udp, payload_len);
        id = id.wrapping_add(1);
        header.id = id;
        Packet::new(header, payload)
    };
    let mut spare = BufferPool::new();
    r.fragment_ns = ns_per_prepared_op(
        || packet(&mut spare),
        |p| {
            for f in black_box(fragment_pooled(p, MTU, &mut pool).expect("fragments")) {
                pool.put(f.payload);
            }
        },
    );

    let frags = fragment_pooled(packet(&mut spare), MTU, &mut pool).expect("fragments");
    let frames: Vec<Vec<u8>> = frags.iter().map(Packet::encode).collect();
    r.ip_encode_ns = ns_per_op(frags.len(), |i| {
        black_box(frags[i % frags.len()].encode());
    });
    r.ip_decode_ns = ns_per_op(frames.len(), |i| {
        let p = Packet::decode_pooled(black_box(&frames[i % frames.len()]), &mut pool)
            .expect("valid frame");
        pool.put(black_box(p).payload);
    });
    let mut reasm = Reassembler::new(30_000_000);
    r.reassemble_ns = ns_per_prepared_op(
        || -> Vec<Packet> {
            frames
                .iter()
                .map(|f| Packet::decode_pooled(f, &mut spare).expect("valid frame"))
                .collect()
        },
        |packets| {
            for p in packets {
                if let Some(whole) = reasm.push_pooled(p, 0, &mut pool) {
                    pool.put(black_box(whole).payload);
                }
            }
        },
    );
}

fn runtime(wl: &Workload, r: &mut Replays) {
    let ring: SpscRing<u64> = SpscRing::with_capacity(4);
    r.ring_push_pop_ns = ns_per_op(256, |i| {
        ring.try_push(i as u64).expect("ring has room");
        black_box(ring.try_pop());
    });

    // Two rings, two threads, one token: the other thread echoes every
    // value until it sees the stop value. A ping-pong is two hand-offs.
    const STOP: u64 = u64::MAX;
    let there: SpscRing<u64> = SpscRing::with_capacity(4);
    let back: SpscRing<u64> = SpscRing::with_capacity(4);
    let ping_pong_ns = std::thread::scope(|s| {
        s.spawn(|| loop {
            match there.try_pop() {
                Some(STOP) => break,
                Some(v) => back.try_push(v).expect("one token in flight"),
                None => std::hint::spin_loop(),
            }
        });
        let ns = ns_per_op(64, |i| {
            there.try_push(i as u64).expect("one token in flight");
            while back.try_pop().is_none() {
                std::hint::spin_loop();
            }
        });
        there.try_push(STOP).expect("one token in flight");
        ns
    });
    r.ring_handoff_us = ping_pong_ns / 2.0 / 1e3;

    let mut pool = BufferPool::new();
    r.pool_take_put_ns = ns_per_op(256, |_| {
        let buf = pool.take();
        pool.put(black_box(buf));
    });

    let mut verifier = BatchVerifier::new();
    let mut failed = Vec::new();
    let good = [0x77u8; 16];
    let mut bad = good;
    bad[15] ^= 1;
    r.batchauth_ns = ns_per_op(1, |_| {
        for i in 0..wl.burst {
            // The forged share, spread evenly over the burst.
            let share = |k: usize| k * wl.forged_per_mille as usize / 1000;
            let forged = share(i) != share(i + 1);
            verifier.push(&good, if forged { &bad } else { &good }, i);
        }
        failed.clear();
        black_box(verifier.resolve(&mut failed));
    }) / wl.burst as f64;
}

/// Time one master-key upcall for a peer the daemon has never seen:
/// certificate fetch from the world's directory, verification, DH.
fn master_key(world: &World, r: &mut Replays) {
    let group = DhGroup::oakley2();
    let private = PrivateValue::from_entropy(group, b"replay-fresh-host-entropy");
    let pvc = Pvc::new(
        32,
        Arc::clone(&world.directory) as Arc<dyn fbs_cert::CertSource>,
        world.ca.verifier(),
        Arc::new(world.clock.clone()),
    );
    let mut mkd = MasterKeyDaemon::new(private, Box::new(pvc));
    let start = Instant::now();
    let key = mkd
        .master_key(&Principal::from_ipv4(B))
        .expect("receiver's certificate is published");
    r.master_key_ms = start.elapsed().as_secs_f64() * 1e3;
    black_box(key);
}

/// Run every replay for the world's workload.
pub fn run(world: &World) -> Replays {
    let wl = &world.wl;
    let mut r = Replays::default();
    core(wl, world, &mut r);
    crypto(wl, &mut r);
    tables(wl, world, &mut r);
    net(wl, &mut r);
    runtime(wl, &mut r);
    master_key(world, &mut r);
    r
}
