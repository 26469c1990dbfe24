//! A flow birth allocates nothing once the tables are full. Two AEAD
//! hosts' hooks from one `World` warm their 64-slot combined tables and
//! 64-set receive caches until every slot is taken, then run bursts in
//! which every datagram is a birth on both hosts: a transmit birth in
//! the sender's combined table and a receive birth in the receiver's
//! cache. Each birth evicts a key the table holds alone, and the new key
//! is written into that allocation, so a `process_batch_into` call on
//! the caller's warm vectors allocates nothing, however many flows it
//! starts.
//!
//! A DES-suite key carries its material in a box of its own, so its
//! birth allocates that material and nothing else, on each host: under
//! the paper profile (DES, keyed MD5) one 168 B allocation per birth per
//! host; a TDEA config adds its 384 B schedule and an HMAC config its
//! 176 B inner context, one allocation each. Those bytes are the
//! profile's ledger charge less the reused 40 B key.
//!
//! Two more fences ride along, on the receive rule both engines share
//! (`FlowCodec::open_cached` over a `SoftCache<_, Box<SealedFlowKey>>`,
//! as in `FbsEndpoint`): a birth writes its key into the allocation of
//! the key it evicts while a copy taken out of the cache keeps its
//! bytes, and a forged birth leaves every resident key, and its
//! allocation, as it was. A forged paper-suite frame that names TDEA
//! against a single-DES receiver's resident keys allocates nothing
//! either: its schedule is built on the stack.
//!
//! And the all-hit floor: a warm 1,024-datagram NOP batch over 64
//! resident flows allocates nothing, each way, with and without a
//! registry attached.
//!
//! The counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`,
//! so it lives in a test binary of its own (the library crates
//! `forbid(unsafe_code)`), which holds a single test so that no sibling
//! test allocates while it counts.

use fbs_core::{
    BufferPool, Clock, EncAlgorithm, FbsConfig, FbsError, FlowCodec, FlowKey, ManualClock,
    Principal, SealedFlowKey, SoftCache,
};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::{CipherSuite, MacAlgorithm};
use fbs_ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_ip::host::World;
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_net::{Datagram, HookOutcome, SecurityHooks};
use fbs_obs::Direction;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper counting every alloc and realloc and the
/// bytes each asks for.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrow is one allocation: it may move and copy the block.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations and bytes asked for so far.
fn counted() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

const A: Ipv4Addr = [10, 8, 0, 1];
const B: Ipv4Addr = [10, 8, 0, 2];
const NOW_SECS: u64 = 1_000;
const NOW_US: u64 = NOW_SECS * 1_000_000;
const BATCH: u32 = 256;
/// Shards per host, each with a 64-slot combined table and a 64-set
/// direct-mapped receive cache (the defaults).
const SHARDS: usize = 8;
const SLOTS: usize = 64;

/// One direction's datagrams, in buffers from `pool`: flow `i` is the
/// UDP tuple with source port `i` (mod 2^16) and destination port
/// `1 + i / 2^16`, so every `i` is a tuple of its own.
fn datagrams(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    flows: impl Iterator<Item = u32>,
    pool: &mut BufferPool,
) -> Vec<Datagram> {
    flows
        .map(|i| {
            let mut payload = pool.take();
            payload.extend_from_slice(&(i as u16).to_be_bytes());
            payload.extend_from_slice(&(1 + (i >> 16) as u16).to_be_bytes());
            payload.extend_from_slice(&i.to_be_bytes());
            payload.resize(64, 0x5A);
            let header = Ipv4Header::new(src, dst, Proto::Udp, payload.len());
            Datagram { header, payload }
        })
        .collect()
}

/// A sealed burst on its way to the receiver, and the sender's
/// allocations and bytes while sealing it.
struct Sealed {
    wire: Vec<Datagram>,
    allocs: (u64, u64),
}

struct Pair {
    a: FbsIpHooks,
    b: FbsIpHooks,
    /// One pool for both hosts, so a buffer handed across comes back.
    pool: BufferPool,
    /// The verdicts of the call in flight, kept warm across calls the
    /// way a host keeps its scratch.
    out: Vec<(Ipv4Header, HookOutcome)>,
}

impl Pair {
    /// Two hosts sealing under `fbs`, with the default tables.
    fn new(fbs: FbsConfig) -> Pair {
        let world = World::new(3, DhGroup::test_group());
        world.clock.set(NOW_SECS);
        let cfg = IpMappingConfig {
            encrypt: true,
            fbs,
            ..IpMappingConfig::default()
        };
        assert_eq!((cfg.shards, cfg.fst_size), (SHARDS, SLOTS));
        assert_eq!((cfg.fbs.rfkc_sets, cfg.fbs.rfkc_assoc), (SLOTS, 1));
        Pair {
            a: world.hooks(A, cfg.clone()),
            b: world.hooks(B, cfg),
            pool: BufferPool::with_limits(4 * BATCH as usize, 2048),
            out: Vec::new(),
        }
    }

    /// Run `batch` through one host's `process_batch_into`, its
    /// verdicts into the warm `out`; returns the allocations the call
    /// made and the bytes they asked for.
    fn call(&mut self, dir: Direction, from_a: bool, mut batch: Vec<Datagram>) -> (u64, u64) {
        let hooks = match (dir, from_a) {
            (Direction::Output, true) | (Direction::Input, false) => &mut self.a,
            _ => &mut self.b,
        };
        self.out.clear();
        let before = counted();
        hooks.process_batch_into(dir, &mut batch, &mut self.pool, NOW_US, &mut self.out);
        let after = counted();
        (after.0 - before.0, after.1 - before.1)
    }

    /// Seal `flows` on one host, counting only the hook call.
    fn seal(&mut self, from_a: bool, flows: impl Iterator<Item = u32>) -> Sealed {
        let (src, dst) = if from_a { (A, B) } else { (B, A) };
        let batch = datagrams(src, dst, flows, &mut self.pool);
        let allocs = self.call(Direction::Output, from_a, batch);
        let wire = self
            .out
            .drain(..)
            .map(|(header, outcome)| match outcome {
                HookOutcome::Pass(payload) => Datagram { header, payload },
                other => panic!("seal: {other:?}"),
            })
            .collect();
        Sealed { wire, allocs }
    }

    /// Open `wire` on the other host, counting only the hook call;
    /// returns how many passed and the allocations and their bytes.
    fn open(&mut self, from_a: bool, wire: Vec<Datagram>) -> (usize, (u64, u64)) {
        let allocs = self.call(Direction::Input, from_a, wire);
        let mut passed = 0;
        for (_, outcome) in self.out.drain(..) {
            if let HookOutcome::Pass(body) = outcome {
                passed += 1;
                self.pool.put(body);
            }
        }
        (passed, allocs)
    }

    /// Births of `flows` in one direction: (sender, receiver)
    /// allocations and bytes inside the hook calls.
    fn births(&mut self, from_a: bool, flows: std::ops::Range<u32>) -> [(u64, u64); 2] {
        let n = flows.len();
        let sealed = self.seal(from_a, flows);
        let (passed, opened) = self.open(from_a, sealed.wire);
        assert_eq!(passed, n, "every datagram opens");
        [sealed.allocs, opened]
    }

    /// Warm both directions well past every slot: 8 shards × 64 slots
    /// per table, 4,096 flows each way, and check every table is full.
    /// Returns the next unused flow.
    fn fill(&mut self) -> u32 {
        let mut next = 0u32;
        while next < 4_096 {
            self.births(true, next..next + BATCH);
            self.births(false, next..next + BATCH);
            next += BATCH;
        }
        let full = SHARDS * SLOTS;
        assert_eq!(
            self.a.active_flows(NOW_SECS).unwrap(),
            full,
            "A's tables full"
        );
        assert_eq!(
            self.b.active_flows(NOW_SECS).unwrap(),
            full,
            "B's tables full"
        );
        next
    }
}

/// Key of flow `sfl` for the receive-rule checks: its ChaCha key tells
/// flows apart.
fn key_of(sfl: u64) -> SealedFlowKey {
    SealedFlowKey::seal_for(
        FlowKey::new(&sfl.to_be_bytes().repeat(2)),
        CipherSuite::AeadChaPoly,
        MacAlgorithm::Poly1305,
        EncAlgorithm::ChaCha20,
    )
}

/// The hooks half: warm, then count bursts of births.
fn hook_births_allocate_nothing() {
    let mut pair = Pair::new(FbsConfig {
        suite: CipherSuite::AeadChaPoly,
        ..FbsConfig::default()
    });
    let mut next = pair.fill();
    let rfkc = pair.b.rfkc_stats();
    let combined = pair.a.combined_stats().unwrap();
    for _ in 0..4 {
        for from_a in [true, false] {
            let [tx, rx] = pair.births(from_a, next..next + BATCH);
            // None of the call's 256 births allocates, and the call
            // itself runs in the caller's vectors.
            assert_eq!(
                (tx.0, rx.0),
                (0, 0),
                "from_a {from_a}: allocations per call"
            );
        }
        next += BATCH;
    }
    // Every datagram counted was a birth, and every receive birth
    // evicted a resident key.
    let (rfkc_after, combined_after) = (pair.b.rfkc_stats(), pair.a.combined_stats().unwrap());
    let births = 4 * BATCH as u64;
    assert_eq!(combined_after.new_flows - combined.new_flows, births);
    assert_eq!(rfkc_after.insertions - rfkc.insertions, births);
    assert_eq!(rfkc_after.evictions - rfkc.evictions, births);

    // A forged birth buys nothing: the receiver's resident keys answer
    // the same replayed burst with the same hits before and after a
    // burst of forged births, and the forged burst allocates nothing.
    let resident = pair.seal(true, next - BATCH..next).wire;
    let hits = |pair: &mut Pair| {
        let before = pair.b.rfkc_stats().hits;
        let replay = resident
            .iter()
            .map(|d| Datagram {
                header: d.header.clone(),
                payload: d.payload.clone(),
            })
            .collect();
        let (passed, _) = pair.open(true, replay);
        assert_eq!(passed, BATCH as usize);
        pair.b.rfkc_stats().hits - before
    };
    let resident_hits = hits(&mut pair);
    assert!(resident_hits > 0);
    let mut forged = pair.seal(true, next..next + BATCH).wire;
    for d in &mut forged {
        let last = d.payload.len() - 1;
        d.payload[last] ^= 0x01;
    }
    let before = pair.b.rfkc_stats();
    let (passed, (allocs, _)) = pair.open(true, forged);
    assert_eq!((passed, allocs), (0, 0));
    let after = pair.b.rfkc_stats();
    assert_eq!(
        (after.insertions, after.evictions),
        (before.insertions, before.evictions)
    );
    assert_eq!(hits(&mut pair), resident_hits);
}

/// The DES half: a birth on a full table allocates the new key's boxed
/// material, per host, and nothing else. The outer 40 B key reuses the
/// evicted allocation, as under AEAD.
fn des_births_allocate_only_their_material() {
    let profile = |suite, enc_alg, mac_alg| FbsConfig {
        suite,
        enc_alg,
        mac_alg,
        ..FbsConfig::default()
    };
    // (profile, allocations per birth per host, bytes of each).
    let paper = FbsConfig::default();
    let tdea = profile(
        CipherSuite::Paper,
        EncAlgorithm::TdeaCbc,
        MacAlgorithm::KeyedMd5,
    );
    let hmac = profile(
        CipherSuite::FastDes,
        EncAlgorithm::DesCtr,
        MacAlgorithm::HmacSha1,
    );
    let cases: [(FbsConfig, &[u64]); 3] =
        [(paper, &[168]), (tdea, &[168, 384]), (hmac, &[168, 176])];
    for (fbs, sizes) in cases {
        let what = format!("{:?} {:?}", fbs.suite_enc_alg(), fbs.suite_mac_alg());
        let bytes: u64 = sizes.iter().sum();
        // The birth's bytes are the ledger's charge less the reused key.
        let reused = std::mem::size_of::<SealedFlowKey>();
        assert_eq!(bytes, (charge(&fbs) - reused) as u64, "{what}");
        let mut pair = Pair::new(fbs);
        let mut next = pair.fill();
        for _ in 0..2 {
            for from_a in [true, false] {
                let per_call = (BATCH as u64 * sizes.len() as u64, BATCH as u64 * bytes);
                let [tx, rx] = pair.births(from_a, next..next + BATCH);
                assert_eq!(tx, per_call, "{what}, from_a {from_a}: sender");
                assert_eq!(rx, per_call, "{what}, from_a {from_a}: receiver");
            }
            next += BATCH;
        }
    }
    #[cfg(target_pointer_width = "64")]
    assert_eq!(
        charge(&FbsConfig::default()),
        40 + 168,
        "the paper profile's key"
    );
}

/// A paper-suite frame may name TDEA under a receiver configured for
/// single DES, and the paper suite decrypts before it checks the MAC:
/// such a frame builds its TDEA schedule on the stack, so a forged burst
/// naming TDEA against resident paper keys allocates nothing and grows
/// no key past its ledger charge.
fn a_forged_tdea_frame_grows_no_paper_key() {
    let mut pair = Pair::new(FbsConfig::default());
    let next = pair.fill();
    let mut forged = pair.seal(true, next - BATCH..next).wire;
    for d in &mut forged {
        // The FBS header's cipher id (byte 17); the MAC is left as the
        // single-DES seal wrote it.
        d.payload[17] = EncAlgorithm::TdeaCbc.wire_id();
    }
    let before = pair.b.rfkc_stats();
    let (passed, allocs) = pair.open(true, forged);
    let after = pair.b.rfkc_stats();
    assert_eq!(passed, 0);
    assert_eq!(after.insertions, before.insertions, "no forged key stays");
    // A resident key answers with nothing allocated. A flow whose key
    // was evicted derives it, the 168 B material, and drops it
    // unverified: nothing more.
    let hits = after.hits - before.hits;
    assert!(hits > 0, "resident keys answered");
    let derived = BATCH as u64 - hits;
    assert_eq!(allocs, (derived, derived * 168));
}

/// The ledger's charge for a key sealed under `fbs`.
fn charge(fbs: &FbsConfig) -> usize {
    SealedFlowKey::boxed_bytes(fbs.suite, fbs.suite_mac_alg(), fbs.suite_enc_alg())
}

/// The receive rule over an endpoint-style cache: a birth reuses the
/// evicted key's allocation, a copied key is left alone, a forged birth
/// changes nothing.
fn the_receive_rule_writes_the_evicted_key_in_place() {
    let clock = ManualClock::starting_at(NOW_SECS);
    let fbs = FbsConfig {
        suite: CipherSuite::AeadChaPoly,
        ..FbsConfig::default()
    };
    let timestamp = clock.now_minutes();
    let codec = FlowCodec::new(Principal::from_ipv4(B), fbs, Arc::new(clock), 1);
    // One direct-mapped slot: every birth evicts the resident key.
    let mut rfkc: SoftCache<u64, Box<SealedFlowKey>> = SoftCache::new(1, 1, |_| 0);
    let birth = |rfkc: &mut SoftCache<u64, Box<SealedFlowKey>>, sfl: u64, forged: bool| {
        let key = key_of(sfl);
        let before = allocs();
        let r = codec.open_cached(
            rfkc,
            sfl,
            timestamp,
            || Ok(key),
            |_| {
                if forged {
                    Err(FbsError::BadMac)
                } else {
                    Ok(())
                }
            },
        );
        (r, allocs() - before)
    };
    let resident = |rfkc: &SoftCache<u64, Box<SealedFlowKey>>, sfl| {
        let key = rfkc.peek(&sfl).expect("resident");
        (&**key as *const SealedFlowKey, *key.chacha_key().unwrap())
    };
    let chacha = |sfl| *key_of(sfl).chacha_key().unwrap();

    assert!(birth(&mut rfkc, 1, false).0.is_ok());
    let (first, _) = resident(&rfkc, 1);
    // A copy out of the cache (`get` clones the `Box`) is a key of its
    // own: the next birth writes the evicted allocation in place, and
    // the copy keeps its bytes.
    let held = rfkc.get(&1).expect("resident");
    let (r, n) = birth(&mut rfkc, 2, false);
    assert!(r.is_ok());
    assert_eq!(n, 0, "a birth into an evicted key allocates nothing");
    assert_eq!(
        *held.chacha_key().unwrap(),
        chacha(1),
        "the copy is untouched"
    );
    let (at, bytes) = resident(&rfkc, 2);
    assert_eq!(at, first);
    assert_ne!(at, &*held as *const SealedFlowKey);
    assert_eq!(bytes, chacha(2));
    drop(held);
    // The evicted key's allocation carries the next one, again.
    let (r, n) = birth(&mut rfkc, 3, false);
    assert!(r.is_ok());
    assert_eq!(n, 0, "a birth into an evicted key allocates nothing");
    assert_eq!(resident(&rfkc, 3), (at, chacha(3)));
    // A forged birth: no insert, no eviction, no allocation.
    let (r, n) = birth(&mut rfkc, 4, true);
    assert!(matches!(r, Err(FbsError::BadMac)));
    assert_eq!(n, 0);
    assert!(rfkc.peek(&4).is_none());
    assert_eq!(resident(&rfkc, 3), (at, chacha(3)));
}

/// The all-hit half: warm NOP hooks, bare and then observed, allocate
/// nothing per call, sealing or opening.
fn a_warm_nop_batch_allocates_nothing() {
    let world = World::new(5, DhGroup::test_group());
    world.clock.set(NOW_SECS);
    let cfg = IpMappingConfig {
        // Room for every flow: each lookup of the counted batches hits.
        fst_size: 4096,
        fbs: FbsConfig {
            nop_crypto: true,
            rfkc_sets: 4096,
            ..FbsConfig::default()
        },
        ..IpMappingConfig::default()
    };
    let mut pair = Pair {
        a: world.hooks(A, cfg.clone()),
        b: world.hooks(B, cfg),
        pool: BufferPool::with_limits(4 * 1024, 2048),
        out: Vec::new(),
    };
    // 1,024 datagrams over 64 flows: source ports 0..64.
    let batch = |pair: &mut Pair| {
        let born = (
            pair.a.combined_stats().unwrap().new_flows,
            pair.b.rfkc_stats().insertions,
        );
        let sealed = pair.seal(true, (0..1024).map(|i| i % 64));
        let (passed, opened) = pair.open(true, sealed.wire);
        assert_eq!(passed, 1024);
        let after = (
            pair.a.combined_stats().unwrap().new_flows,
            pair.b.rfkc_stats().insertions,
        );
        (sealed.allocs.0, opened.0, after == born)
    };
    batch(&mut pair);
    batch(&mut pair);
    assert_eq!(batch(&mut pair), (0, 0, true), "bare");
    let reg = Arc::new(fbs_obs::MetricsRegistry::new());
    for hooks in [&pair.a, &pair.b] {
        hooks.attach_obs(Arc::clone(&reg)).unwrap();
    }
    batch(&mut pair);
    assert_eq!(batch(&mut pair), (0, 0, true), "observed");
    assert!(reg.snapshot().counter("hooks.output_ok") >= 2048);
}

#[test]
fn flow_births_allocate_nothing() {
    // The positive control: a counter that missed this would pass every
    // zero below.
    let before = allocs();
    std::hint::black_box(Box::new(0u64));
    assert!(allocs() > before, "the counting allocator counts");

    hook_births_allocate_nothing();
    des_births_allocate_only_their_material();
    a_forged_tdea_frame_grows_no_paper_key();
    the_receive_rule_writes_the_evicted_key_in_place();
    a_warm_nop_batch_allocates_nothing();
}
