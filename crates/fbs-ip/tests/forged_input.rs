//! Forged input through `process_batch`: the ledger-balance CI gate on
//! the reject path.
//!
//! Every input datagram's MAC is verified inline, as it is opened (Fig. 4,
//! R7-9). A forgery takes a pool buffer to open into and must hand it
//! back on the reject, alongside its wire payload — exactly the kind of
//! branch that leaks pool buffers if it forgets a `put`. This test drives
//! corrupted datagrams through `process_batch` at one and two shard
//! owners and gates:
//!
//! * corrupted datagrams come back `Reject` ("bad MAC"), clean ones
//!   `Pass` with intact bodies;
//! * `input_errors`, `verified` and `mac_drops` equal the ground truth;
//! * the caller's [`BufferPool`] ledger balances exactly
//!   (hits + misses == returns + discards);
//! * a forged or stale flow birth buys no receive flow-key cache slot,
//!   so it cannot evict a victim flow's key, and a batch of them reads
//!   like one pass per datagram;
//! * no datagram, friendly or forged, writes flight-recorder history,
//!   so a forger cannot wash a rare event out of the ring.

use fbs_core::{flow_key_hash, BufferPool, ManualClock, Principal};
use fbs_crypto::des::BLOCK_SIZE;
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::FbsIpHooks;
use fbs_ip::hooks::IpMappingConfig;
use fbs_ip::host::World;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{Datagram, HookOutcome, RejectReason, SecurityHooks};
use fbs_obs::registry::DEFAULT_EVENT_CAPACITY;
use fbs_obs::{Direction, Event, MetricsRegistry};
use std::sync::Arc;

const A: [u8; 4] = [10, 9, 0, 1];
const B: [u8; 4] = [10, 9, 0, 2];
const NOW_US: u64 = 1_000_000;
const BATCH: usize = 16;

/// A sender, a receiver with a registry, and their world's clock. Built
/// twice from one config it yields bit-identical twins.
fn build_pair(cfg: IpMappingConfig) -> (FbsIpHooks, FbsIpHooks, Arc<MetricsRegistry>, ManualClock) {
    let world = World::new(31, DhGroup::test_group());
    let sender = world.hooks(A, cfg.clone());
    let receiver = world.hooks(B, cfg);
    let reg = Arc::new(MetricsRegistry::new());
    receiver
        .attach_obs(Arc::clone(&reg))
        .expect("attach obs before traffic");
    (sender, receiver, reg, world.clock)
}

/// Build a flow payload in a pool buffer: every Vec the test feeds to
/// `process_batch` originates from the caller pool, so the ledger gate
/// below can demand exact balance (takes == puts) with no external
/// allocations muddying the books.
fn payload_for(pool: &mut BufferPool, sport: u16, seq: u32) -> Vec<u8> {
    let mut p = pool.take();
    p.extend_from_slice(&expected_body(sport, seq));
    p
}

/// The plaintext of a `(sport, seq)` datagram.
fn expected_body(sport: u16, seq: u32) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&sport.to_be_bytes());
    p.extend_from_slice(&53u16.to_be_bytes());
    p.extend_from_slice(&seq.to_be_bytes());
    p.extend_from_slice(b"forged input ledger body");
    p.push(seq as u8);
    p
}

#[test]
fn forged_input_rejects_bad_macs_and_balances_the_pool_ledger() {
    for workers in [1, 2] {
        forged_input_at(workers);
    }
}

fn forged_input_at(workers: usize) {
    let (mut sender, mut receiver, reg, _) = build_pair(IpMappingConfig {
        encrypt: true,
        workers,
        ..IpMappingConfig::default()
    });
    let mut pool = BufferPool::new();

    // Warm the flow so key derivation is out of the way and the timed
    // batches exercise only the open path.
    let warm = payload_for(&mut pool, 4000, 0);
    let header = Ipv4Header::new(A, B, Proto::Udp, warm.len());
    let sealed = sender.process_batch(
        Direction::Output,
        vec![Datagram {
            header,
            payload: warm,
        }],
        &mut pool,
        NOW_US,
    );
    for (header, outcome) in sealed {
        match outcome {
            HookOutcome::Pass(wire) => {
                for (_, o) in receiver.process_batch(
                    Direction::Input,
                    vec![Datagram {
                        header,
                        payload: wire,
                    }],
                    &mut pool,
                    NOW_US,
                ) {
                    match o {
                        HookOutcome::Pass(body) => pool.put(body),
                        other => panic!("warmup open failed: {other:?}"),
                    }
                }
            }
            other => panic!("warmup seal failed: {other:?}"),
        }
    }

    // Seal a batch, then corrupt every fourth datagram's ciphertext —
    // never the header — one DES block before its end. CBC garbles the
    // whole plaintext block under the flipped one, and the MAC covers
    // that block, so the verdict is a bad MAC under every key. The last
    // block would not do: beside one body byte it holds padding, which
    // the MAC does not cover, and when the garbled body byte comes out
    // unchanged (one key in 256) the padding check answers
    // `MalformedCiphertext` instead.
    const ROUNDS: u32 = 4;
    let mut sent = 0u64;
    let mut corrupted_total = 0u64;
    for round in 0..ROUNDS {
        let batch: Vec<Datagram> = (0..BATCH)
            .map(|i| {
                let payload = payload_for(&mut pool, 4000 + i as u16, round);
                let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                Datagram { header, payload }
            })
            .collect();
        sent += BATCH as u64;
        let sealed = sender.process_batch(Direction::Output, batch, &mut pool, NOW_US);
        let mut corrupt_idx = Vec::new();
        let rx_batch: Vec<Datagram> = sealed
            .into_iter()
            .enumerate()
            .map(|(i, (header, outcome))| match outcome {
                HookOutcome::Pass(mut wire) => {
                    if i % 4 == 1 {
                        let n = wire.len();
                        wire[n - 1 - BLOCK_SIZE] ^= 0x5A;
                        corrupt_idx.push(i);
                    }
                    Datagram {
                        header,
                        payload: wire,
                    }
                }
                other => panic!("seal failed: {other:?}"),
            })
            .collect();
        corrupted_total += corrupt_idx.len() as u64;

        let opened = receiver.process_batch(Direction::Input, rx_batch, &mut pool, NOW_US);
        assert_eq!(opened.len(), BATCH, "every datagram gets a verdict");
        for (i, (_, outcome)) in opened.into_iter().enumerate() {
            if corrupt_idx.contains(&i) {
                match outcome {
                    HookOutcome::Reject(reason) => assert_eq!(
                        reason,
                        RejectReason::BadMac,
                        "corrupt datagram must fail authentication"
                    ),
                    other => panic!("forged datagram {i} must be rejected, got {other:?}"),
                }
            } else {
                match outcome {
                    HookOutcome::Pass(body) => {
                        let sport = u16::from_be_bytes([body[0], body[1]]);
                        assert_eq!(
                            body,
                            expected_body(sport, round),
                            "clean datagram must round-trip exactly"
                        );
                        pool.put(body);
                    }
                    other => panic!("clean datagram {i} must pass, got {other:?}"),
                }
            }
        }
    }

    // Ground truth vs hook counters: every corruption rejected, every
    // clean datagram verified (the +1 is the warmup).
    assert!(corrupted_total > 0, "test must actually corrupt something");
    let stats = receiver.stats();
    assert_eq!(stats.input_errors, corrupted_total, "workers {workers}");
    assert_eq!(
        stats.verified,
        sent - corrupted_total + 1,
        "workers {workers}"
    );
    assert_eq!(receiver.endpoint_stats().mac_drops, corrupted_total);

    // The ledger-balance CI gate, through the reject path: every buffer
    // the pool handed out came back, forged bodies included.
    let s = pool.stats();
    assert_eq!(
        s.hits + s.misses,
        s.returns + s.discards,
        "pool ledger out of balance across forged input (workers {workers}): {s:?}"
    );

    // Suite-labelled open counter: default config runs the paper suite,
    // and only opens that verified count.
    let snap = reg.snapshot();
    assert_eq!(
        snap.counters.get("crypto.open.paper").copied(),
        Some(sent - corrupted_total + 1)
    );
}

/// Seal one `(sport, seq)` datagram: its header and wire payload.
fn seal_one(sender: &mut FbsIpHooks, pool: &mut BufferPool, sport: u16, seq: u32) -> Datagram {
    let payload = payload_for(pool, sport, seq);
    let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
    let batch = vec![Datagram { header, payload }];
    match sender
        .process_batch(Direction::Output, batch, pool, NOW_US)
        .pop()
    {
        Some((header, HookOutcome::Pass(payload))) => Datagram { header, payload },
        other => panic!("seal failed: {other:?}"),
    }
}

/// Deliver `batch` to `receiver`: per datagram, `None` if it passed
/// (its body goes back to `pool`) or the reason it was rejected.
fn deliver(
    receiver: &mut FbsIpHooks,
    pool: &mut BufferPool,
    batch: Vec<Datagram>,
) -> Vec<Option<RejectReason>> {
    let verdicts = receiver.process_batch(Direction::Input, batch, pool, NOW_US);
    verdicts
        .into_iter()
        .map(|(_, outcome)| match outcome {
            HookOutcome::Pass(body) => {
                pool.put(body);
                None
            }
            HookOutcome::Reject(reason) => Some(reason),
            other => panic!("unexpected verdict {other:?}"),
        })
        .collect()
}

/// The wire sfl: the first 8 bytes of a sealed payload.
fn wire_sfl(payload: &[u8]) -> u64 {
    u64::from_be_bytes(payload[..8].try_into().expect("framed payload"))
}

/// A forger who knows a victim flow's sfl and source relabels sealed
/// datagrams with fresh sfls chosen to land in the victim's receive
/// shard and RFKC set (the set index is the unkeyed CRC-32 of the sfl
/// and both principals), one per way of the set. Each forged birth
/// costs the receiver a derivation and is rejected — and, since a
/// derived key is cached only once its datagram verifies, leaves the
/// cache as it was: the victim's next datagram still hits, and the
/// cache's insertions are exactly the verified births. A last batch
/// mixes births with a stale frame, a forgery ahead of its genuine twin
/// and a duplicate: only the births that verify cache a key. Each batch
/// reads exactly like the same datagrams one pass at a time.
#[test]
fn forged_births_cannot_evict_a_victim_flows_key() {
    for workers in [1, 2] {
        let batched = forged_births_at(workers, true);
        let scalar = forged_births_at(workers, false);
        assert_eq!(batched, scalar, "workers {workers}: one pass per datagram");
    }
}

/// The receiver's verdicts per delivery, then its RFKC, endpoint and
/// hook counts.
type Outcome = (
    Vec<Vec<Option<RejectReason>>>,
    fbs_core::CacheStats,
    fbs_core::protocol::EndpointStats,
    fbs_ip::hooks::IpHookStats,
);

fn forged_births_at(workers: usize, batch: bool) -> Outcome {
    let mut cfg = IpMappingConfig {
        encrypt: true,
        workers,
        ..IpMappingConfig::default()
    };
    cfg.fbs.rfkc_assoc = 2;
    let (sets, assoc) = (cfg.fbs.rfkc_sets, cfg.fbs.rfkc_assoc);
    let (mut sender, mut receiver, _reg, clock) = build_pair(cfg);
    let mut pool = BufferPool::new();
    let mut verdicts = Vec::new();
    let mut deliver = |receiver: &mut FbsIpHooks, pool: &mut BufferPool, frames: Vec<Datagram>| {
        let got = if batch {
            deliver(receiver, pool, frames)
        } else {
            let one = |d| deliver(receiver, pool, vec![d]);
            frames.into_iter().flat_map(one).collect()
        };
        verdicts.push(got.clone());
        got
    };

    // A frame that goes stale before it arrives, sealed first.
    let stale = seal_one(&mut sender, &mut pool, 4100, 0);
    clock.advance(300);

    // The victim flow is born on the receiver: one verified birth.
    let first = seal_one(&mut sender, &mut pool, 4000, 0);
    let victim = wire_sfl(&first.payload);
    assert_eq!(deliver(&mut receiver, &mut pool, vec![first]), [None]);

    // Fresh sfls in the victim's receive shard and RFKC set.
    let set_of = |sfl: u64| {
        flow_key_hash(&(sfl, Principal::from_ipv4(A), Principal::from_ipv4(B))) as usize % sets
    };
    let shards = receiver.num_shards() as u64;
    let aimed: Vec<u64> = (1..)
        .map(|k| victim + k * shards)
        .filter(|&sfl| set_of(sfl) == set_of(victim))
        .take(assoc)
        .collect();
    let forged: Vec<Datagram> = aimed
        .iter()
        .map(|&sfl| {
            let mut d = seal_one(&mut sender, &mut pool, 4000, 1);
            d.payload[..8].copy_from_slice(&sfl.to_be_bytes());
            d
        })
        .collect();
    assert_eq!(
        deliver(&mut receiver, &mut pool, forged),
        vec![Some(RejectReason::BadMac); assoc],
        "workers {workers}"
    );
    let before = receiver.rfkc_stats();
    assert_eq!(before.misses(), 1 + assoc as u64, "each forgery is a birth");

    // The victim's next datagram still finds its key.
    let next = seal_one(&mut sender, &mut pool, 4000, 2);
    assert_eq!(deliver(&mut receiver, &mut pool, vec![next]), [None]);
    let after = receiver.rfkc_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "victim evicted (workers {workers})"
    );
    assert_eq!(after.misses(), before.misses());
    assert_eq!(after.insertions, 1, "insertions are the verified births");
    assert_eq!(after.evictions, 0);

    // Four births beside a stale frame, a forgery whose genuine twin
    // comes right after it, and a duplicate: each birth caches its key
    // once it verifies, the stale frame and the forgery cache nothing,
    // and the duplicate hits.
    let [b1, b2, b3, b4] =
        [4001, 4002, 4003, 4004].map(|sport| seal_one(&mut sender, &mut pool, sport, 3));
    // Copies in pool buffers, so the ledger still balances.
    let mut copy = |d: &Datagram| {
        let mut payload = pool.take();
        payload.extend_from_slice(&d.payload);
        Datagram {
            header: d.header.clone(),
            payload,
        }
    };
    let (mut forged_b3, dup_b2) = (copy(&b3), copy(&b2));
    let n = forged_b3.payload.len();
    forged_b3.payload[n - 1 - BLOCK_SIZE] ^= 0x5A;
    let mixed = vec![b1, stale, b2, forged_b3, b3, dup_b2, b4];
    let mac = Some(RejectReason::BadMac);
    let want = [None, Some(RejectReason::Stale), None, mac, None, None, None];
    assert_eq!(deliver(&mut receiver, &mut pool, mixed), want);
    let last = receiver.rfkc_stats();
    assert_eq!(last.insertions, after.insertions + 4, "workers {workers}");
    assert_eq!(last.evictions, 0);
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, s.returns + s.discards, "pool ledger");
    let endpoint = receiver.endpoint_stats();
    assert_eq!(endpoint.mac_drops, assoc as u64 + 1, "workers {workers}");
    (verdicts, last, endpoint, receiver.stats())
}

/// More than a ring's worth of friendly and MAC-flipped datagrams leave
/// the receiver's flight recorder holding exactly the one rare event it
/// held before: every per-datagram step is a count. MAC-only, every
/// flipped body byte is under the MAC and every forgery is a MAC drop;
/// encrypted, every forgery is a MAC or a malformed drop.
#[test]
fn a_forged_datagram_writes_no_history() {
    for encrypt in [false, true] {
        forged_datagrams_write_no_history(encrypt);
    }
}

fn forged_datagrams_write_no_history(encrypt: bool) {
    let (mut sender, mut receiver, reg, _) = build_pair(IpMappingConfig {
        encrypt,
        ..IpMappingConfig::default()
    });
    reg.record(Event::BreakerFastFail);
    let mut pool = BufferPool::new();
    let rounds = (DEFAULT_EVENT_CAPACITY / BATCH + 1) as u32;
    let mut forged = 0u64;
    for round in 0..rounds {
        let batch: Vec<Datagram> = (0..BATCH)
            .map(|i| {
                let payload = payload_for(&mut pool, 4000 + i as u16, round);
                let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                Datagram { header, payload }
            })
            .collect();
        let sealed = sender.process_batch(Direction::Output, batch, &mut pool, NOW_US);
        let rx_batch: Vec<Datagram> = sealed
            .into_iter()
            .enumerate()
            .map(|(i, (header, outcome))| match outcome {
                HookOutcome::Pass(mut wire) => {
                    if i % 2 == 1 {
                        *wire.last_mut().expect("sealed wire is non-empty") ^= 0x5A;
                        forged += 1;
                    }
                    Datagram {
                        header,
                        payload: wire,
                    }
                }
                other => panic!("seal failed: {other:?}"),
            })
            .collect();
        deliver(&mut receiver, &mut pool, rx_batch);
    }
    let delivered = rounds as u64 * BATCH as u64;
    assert!(delivered > DEFAULT_EVENT_CAPACITY as u64);
    let stats = receiver.stats();
    assert_eq!(stats.input_errors, forged, "encrypt {encrypt}");
    assert_eq!(stats.verified, delivered - forged, "encrypt {encrypt}");
    let drops = receiver.endpoint_stats();
    if encrypt {
        assert_eq!(drops.mac_drops + drops.malformed_drops, forged);
    } else {
        assert_eq!(drops.mac_drops, forged);
    }
    let events: Vec<Event> = reg.events().iter().map(|r| r.event).collect();
    assert_eq!(events, [Event::BreakerFastFail], "encrypt {encrypt}");
    assert_eq!(reg.snapshot().counter("obs.events_dropped"), 0);
}
