//! Threaded stress test for the worker-runtime hook state: four OS
//! threads drive mixed flows through ONE shared IP mapping (cloned
//! handles — each clone runs its batches on its own thread, taking its
//! turn at each shard owner's lock; one `BufferPool` per thread, pools
//! are deliberately not thread-safe) while a scraper thread hammers the
//! lock-free statistics accessors and a registry attached to each
//! handle.
//!
//! Invariants checked under contention:
//!
//! * **per-flow FIFO**: each flow's datagrams decrypt to its exact
//!   submitted sequence, in order;
//! * **no loss, no duplication**: every sent datagram is verified exactly
//!   once;
//! * **CacheStats coherence**: RFKC hits + misses == lookups, at least
//!   one cold miss per flow, and one insertion per miss;
//! * **keying economy**: one MKD upcall per peer, total, across all
//!   threads (the double-checked master-key probe holds up);
//! * **one writer per count**: no two lock domains (shard owners, the
//!   MKD, MKC shards) share a counter block, and every registry name an
//!   accessor also reports is monotone across scrapes and, at quiesce,
//!   equals it and the ground truth. Block increments are plain loads
//!   and stores, so two domains sharing a block would lose counts: the
//!   traffic repeats for [`MIN_RUN`] so that such a race cannot hide.

use fbs_core::BufferPool;
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_ip::host::World;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{Datagram, HookOutcome, SecurityHooks};
use fbs_obs::{Direction, MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const A: [u8; 4] = [10, 8, 0, 1];
const B: [u8; 4] = [10, 8, 0, 2];
const THREADS: usize = 4;
const FLOWS_PER_THREAD: usize = 4;
/// Datagrams per flow in one round of a thread's traffic.
const DATAGRAMS_PER_FLOW: usize = 64;
/// Each thread repeats rounds until this much time has passed.
const MIN_RUN: Duration = Duration::from_millis(250);
const BATCH: usize = 8;
const NOW_US: u64 = 1_000_000;

/// Deterministic world: both endpoints share one CA, directory, and
/// clock, so certificates are mutually available and all key material
/// derives from the fixed seeds.
fn build_pair(workers: usize) -> (FbsIpHooks, FbsIpHooks) {
    let world = World::new(7, DhGroup::test_group());
    let cfg = IpMappingConfig {
        encrypt: true,
        workers,
        ..IpMappingConfig::default()
    };
    let sender = world.hooks(A, cfg.clone());
    let receiver = world.hooks(B, cfg);
    (sender, receiver)
}

/// A flow's UDP payload: 4-tuple-bearing port prefix, then the sequence
/// number, then a body that varies with (flow, seq) so corruption or
/// cross-flow mixups cannot cancel out.
fn payload_for(sport: u16, seq: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    p.extend_from_slice(&sport.to_be_bytes());
    p.extend_from_slice(&53u16.to_be_bytes());
    p.extend_from_slice(&seq.to_be_bytes());
    p.extend_from_slice(&sport.to_le_bytes());
    p.extend_from_slice(b"sharded stress body");
    p.push(seq as u8);
    p
}

/// Every count an accessor of `h` reports, by its registry name.
fn accessor_counts(h: &FbsIpHooks) -> Vec<(&'static str, u64)> {
    let (s, e, m) = (h.stats(), h.endpoint_stats(), h.mkd_stats());
    let (r, c) = (h.rfkc_stats(), h.combined_stats().unwrap());
    vec![
        ("hooks.output_ok", s.protected),
        ("hooks.output_errors", s.output_errors),
        ("hooks.input_ok", s.verified),
        ("hooks.input_errors", s.input_errors),
        ("degrade.fail_open", s.fail_open),
        ("degrade.fail_closed", s.fail_closed),
        ("endpoint.sends", e.sends),
        ("endpoint.receives", e.receives),
        ("endpoint.mac_drops", e.mac_drops),
        ("endpoint.encryptions", e.encryptions),
        ("endpoint.decryptions", e.decryptions),
        ("cache.rfkc.hits", r.hits),
        ("cache.rfkc.cold_misses", r.cold_misses),
        ("cache.rfkc.capacity_misses", r.capacity_misses),
        ("cache.rfkc.insertions", r.insertions),
        ("cache.rfkc.evictions", r.evictions),
        ("cache.combined.hits", c.hits),
        ("cache.combined.insertions", c.new_flows),
        ("cache.combined.collision_misses", c.collisions),
        ("mkd.upcalls", m.upcalls),
        ("mkd.failures", m.failures),
    ]
}

#[test]
fn four_threads_share_one_mapping_without_loss_reorder_or_miscount() {
    // Four submitters contending for one owner lock, for two, and one
    // lock each.
    for workers in [1, 2, 4] {
        four_threads_share_one_mapping(workers);
    }
}

fn four_threads_share_one_mapping(workers: usize) {
    let (sender, receiver) = build_pair(workers);
    assert!(sender.num_shards() > 1, "test requires real sharding");
    assert_eq!(sender.num_workers(), workers);
    let done = Arc::new(AtomicBool::new(false));
    // One registry per handle, flight recorder off: what it scrapes are
    // the counter blocks the accessors read.
    let regs = [&sender, &receiver].map(|h| {
        let reg = Arc::new(MetricsRegistry::with_event_capacity(0));
        h.attach_obs(Arc::clone(&reg)).unwrap();
        reg
    });

    // Scraper: reads every lock-free accessor and both registries in a
    // tight loop while the workers run. A deadlock or a torn read here
    // fails the test by hanging or panicking. Traffic starts once it is
    // scraping: the batches can be over before a fresh thread is first
    // scheduled.
    let (scraping_tx, scraping) = std::sync::mpsc::channel();
    let scraper = {
        let sender = sender.clone();
        let receiver = receiver.clone();
        let regs = regs.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut scrapes = 0u64;
            let mut last = [&sender, &receiver].map(accessor_counts);
            while !done.load(Ordering::Relaxed) {
                for (reg, prev) in regs.iter().zip(last.iter_mut()) {
                    let snap = reg.snapshot();
                    for (name, v) in prev.iter_mut() {
                        let now = snap.counter(name);
                        assert!(now >= *v, "{name} went backwards: {now} < {v}");
                        *v = now;
                    }
                }
                if scrapes == 1 {
                    let _ = scraping_tx.send(());
                }
                let s = sender.stats();
                assert!(s.output_errors == 0, "no sender rejects expected: {s:?}");
                let cs = receiver.rfkc_stats();
                assert_eq!(
                    cs.hits + cs.misses(),
                    cs.lookups(),
                    "cache stats must stay coherent mid-flight"
                );
                let _ = sender.endpoint_stats();
                let _ = sender.combined_stats();
                let _ = sender.mkd_stats();
                let _ = sender.parked_depths();
                scrapes += 1;
            }
            scrapes
        })
    };
    scraping.recv().expect("scraper is scraping");

    let start = Instant::now();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut tx = sender.clone();
            let mut rx = receiver.clone();
            thread::spawn(move || {
                let mut pool = BufferPool::new();
                // Disjoint flows per thread: distinct source ports.
                let sports: Vec<u16> = (0..FLOWS_PER_THREAD)
                    .map(|f| 5000 + (t * FLOWS_PER_THREAD + f) as u16)
                    .collect();
                // Per flow, the next sequence number it must deliver.
                let mut next = [0u32; FLOWS_PER_THREAD];
                let mut rounds = 0u32;
                while rounds == 0 || start.elapsed() < MIN_RUN {
                    // Interleave flows round-robin so consecutive batch
                    // items hit different shards.
                    let base = rounds * DATAGRAMS_PER_FLOW as u32;
                    let mut sequence: Vec<(u16, u32)> = Vec::new();
                    for seq in base..base + DATAGRAMS_PER_FLOW as u32 {
                        for &sport in &sports {
                            sequence.push((sport, seq));
                        }
                    }
                    for chunk in sequence.chunks(BATCH) {
                        let batch: Vec<Datagram> = chunk
                            .iter()
                            .map(|&(sport, seq)| {
                                let payload = payload_for(sport, seq);
                                let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                                Datagram { header, payload }
                            })
                            .collect();
                        let sealed = tx.process_batch(Direction::Output, batch, &mut pool, NOW_US);
                        let rx_batch: Vec<Datagram> = sealed
                            .into_iter()
                            .map(|(header, outcome)| match outcome {
                                HookOutcome::Pass(wire) => Datagram {
                                    header,
                                    payload: wire,
                                },
                                other => panic!("seal failed: {other:?}"),
                            })
                            .collect();
                        let opened =
                            rx.process_batch(Direction::Input, rx_batch, &mut pool, NOW_US);
                        for (_, outcome) in opened {
                            let body = match outcome {
                                HookOutcome::Pass(body) => body,
                                other => panic!("open failed: {other:?}"),
                            };
                            let sport = u16::from_be_bytes([body[0], body[1]]);
                            let seq = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
                            assert_eq!(
                                body,
                                payload_for(sport, seq),
                                "decrypted body must round-trip exactly"
                            );
                            // Per-flow FIFO with no loss and no duplication.
                            let f = sports.iter().position(|&s| s == sport).expect("own flow");
                            assert_eq!(seq, next[f], "flow {sport} lost FIFO/completeness");
                            next[f] += 1;
                            pool.put(body);
                        }
                    }
                    rounds += 1;
                }
                let per_flow = rounds * DATAGRAMS_PER_FLOW as u32;
                assert!(next.iter().all(|&n| n == per_flow), "a flow fell short");
                rounds as usize
            })
        })
        .collect();

    let total: usize = threads
        .into_iter()
        .map(|w| w.join().expect("worker panicked") * FLOWS_PER_THREAD * DATAGRAMS_PER_FLOW)
        .sum();
    done.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper panicked");
    assert!(scrapes > 0, "scraper never ran");
    let flows = (THREADS * FLOWS_PER_THREAD) as u64;

    // Hook counters agree with the ground truth.
    assert_eq!(sender.stats().protected, total as u64);
    assert_eq!(sender.stats().output_errors, 0);
    assert_eq!(receiver.stats().verified, total as u64);
    assert_eq!(receiver.stats().input_errors, 0);
    assert_eq!(sender.endpoint_stats().sends, total as u64);
    assert_eq!(receiver.endpoint_stats().receives, total as u64);

    // Sender side: one new combined-table flow per 5-tuple, everything
    // else hits (flows are thread-disjoint, so no derivation races).
    let cs = sender.combined_stats().expect("combined path is on");
    assert_eq!(cs.new_flows, flows);
    assert_eq!(cs.hits, total as u64 - flows);
    assert_eq!(cs.collisions, 0);

    // Receiver side: RFKC coherence — one lookup per datagram and
    // hits + misses == lookups exactly. Miss counts exceed the flow
    // count only through direct-mapped set collisions (two flows whose
    // key ids share a set evict each other), so every miss must be
    // matched by a re-derivation insert: insertions == misses.
    let rf = receiver.rfkc_stats();
    assert_eq!(rf.lookups(), total as u64);
    assert_eq!(rf.hits + rf.misses(), rf.lookups());
    assert!(rf.misses() >= flows, "at least one cold miss per flow");
    assert_eq!(rf.insertions, rf.misses());

    // Keying economy: each endpoint keyed exactly one peer, once —
    // concurrent misses collapse onto a single MKD upcall.
    assert_eq!(sender.mkd_stats().upcalls, 1);
    assert_eq!(receiver.mkd_stats().upcalls, 1);

    // One block per lock domain: each owner, the MKD and each MKC shard
    // attached its own. At quiesce each registry reads exactly what the
    // accessors read.
    for (h, reg) in [&sender, &receiver].into_iter().zip(&regs) {
        assert_eq!(reg.attached_blocks(), workers + 1 + h.num_shards());
        let snap = reg.snapshot();
        for (name, v) in accessor_counts(h) {
            assert_eq!(snap.counter(name), v, "{name}");
        }
    }
}

/// Per-shard memory budgets under multi-worker pressure: hundreds of
/// flows hammer every shard of a budgeted mapping while another thread
/// reads the lock-free ledgers. Each worker enforces only its own
/// shards' budgets — the invariant is per shard, never global: no
/// ledger may pass its ceiling at any observable moment, and
/// budget-driven eviction (not overshoot) is what absorbs the pressure.
#[test]
fn shard_budgets_hold_their_ceilings_under_multi_worker_pressure() {
    const BUDGET: u64 = 12 * 1024;
    let world = World::new(21, DhGroup::test_group());
    let cfg = IpMappingConfig {
        encrypt: true,
        workers: 2,
        shard_budget_bytes: BUDGET,
        ..IpMappingConfig::default()
    };
    let mut sender = world.hooks(A, cfg.clone());
    let mut receiver = world.hooks(B, cfg);

    // Before any traffic, every shard's ledger is exactly the static
    // FST footprint — identical across shards, comfortably under the
    // ceiling so the caches have headroom to fight over.
    let initial = receiver.shard_budgets();
    let static_bytes = initial[0].used_bytes();
    assert!(static_bytes > 0, "static FST footprint must be charged");
    assert!(static_bytes < BUDGET / 2, "budget leaves no cache headroom");
    for snap in &initial {
        assert_eq!(snap.used_bytes(), static_bytes);
        assert_eq!(snap.limit_bytes, BUDGET);
        assert_eq!(snap.exceeded_events, 0);
    }

    // Scraper: the budget invariant must hold at every observable
    // moment, not just at rest — a worker that charges before evicting
    // would be caught mid-flight here.
    let done = Arc::new(AtomicBool::new(false));
    let (scraping_tx, scraping) = std::sync::mpsc::channel();
    let scraper = {
        let sender = sender.clone();
        let receiver = receiver.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut scrapes = 0u64;
            while !done.load(Ordering::Relaxed) {
                if scrapes == 1 {
                    let _ = scraping_tx.send(());
                }
                for h in [&sender, &receiver] {
                    let (worst, limit) = h.mem_bytes();
                    assert_eq!(limit, BUDGET);
                    assert!(worst <= limit, "shard ledger past ceiling: {worst}");
                    for snap in h.shard_budgets() {
                        assert!(snap.used_bytes() <= snap.limit_bytes);
                        assert_eq!(snap.exceeded_events, 0, "eviction must precede charge");
                    }
                }
                scrapes += 1;
            }
            scrapes
        })
    };
    // The traffic below can be over before a fresh thread is first
    // scheduled: start it once the scraper is scraping.
    scraping.recv().expect("scraper is scraping");

    // 512 distinct flows spread across all shards: far more resident
    // key state than the budgets allow, so the receive-side flow key
    // caches must evict their own entries to stay under their ceilings.
    const FLOWS: usize = 512;
    const ROUNDS: u32 = 2;
    let mut pool = BufferPool::new();
    for seq in 0..ROUNDS {
        for chunk in (0..FLOWS).collect::<Vec<_>>().chunks(BATCH) {
            let batch: Vec<Datagram> = chunk
                .iter()
                .map(|&f| {
                    let sport = 2000 + f as u16;
                    let payload = payload_for(sport, seq);
                    let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                    Datagram { header, payload }
                })
                .collect();
            let sealed = sender.process_batch(Direction::Output, batch, &mut pool, NOW_US);
            let rx_batch: Vec<Datagram> = sealed
                .into_iter()
                .map(|(header, outcome)| match outcome {
                    HookOutcome::Pass(wire) => Datagram {
                        header,
                        payload: wire,
                    },
                    other => panic!("seal failed: {other:?}"),
                })
                .collect();
            for (_, outcome) in
                receiver.process_batch(Direction::Input, rx_batch, &mut pool, NOW_US)
            {
                match outcome {
                    HookOutcome::Pass(body) => pool.put(body),
                    other => panic!("open failed: {other:?}"),
                }
            }
        }
    }
    done.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper panicked");
    assert!(scrapes > 0, "scraper never ran");

    // Isolation: every shard ended under its own ceiling with charges of
    // its own making — static floor plus whatever its caches kept — and
    // the pressure was real (multiple shards hold key state, and the
    // receive caches evicted to make room rather than overshooting).
    let final_snaps = receiver.shard_budgets();
    let mut shards_with_keys = 0;
    for snap in &final_snaps {
        assert!(snap.used_bytes() <= BUDGET, "shard over budget: {snap:?}");
        assert!(snap.used_bytes() >= static_bytes, "static floor lost");
        assert_eq!(snap.exceeded_events, 0);
        if snap.rfkc_bytes > 0 {
            shards_with_keys += 1;
        }
    }
    assert!(
        shards_with_keys >= 2,
        "traffic must spread key state across shards: {final_snaps:?}"
    );
    assert!(
        receiver.rfkc_stats().evictions > 0,
        "512 flows against a 12 KiB budget must force eviction"
    );
    // Flow state stayed soft: every datagram still round-tripped.
    assert_eq!(
        receiver.stats().verified,
        (FLOWS as u64) * u64::from(ROUNDS)
    );
    assert_eq!(receiver.stats().input_errors, 0);
}
