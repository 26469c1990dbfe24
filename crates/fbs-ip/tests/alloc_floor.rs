//! The allocation floor of the datagram path, counted. Two hosts of one
//! `World` carry warm bursts of 1,024 UDP datagrams of 64 bytes the way
//! the end-to-end benchmark drives them — `udp::encode` →
//! `ip_output_batch` → `take_frames` → `deliver_frames` → `udp.recv` —
//! under NOP crypto and under each cipher suite, and every allocation
//! the process makes is counted.
//!
//! Three allocations per single-frame datagram are the floor: the
//! caller's `udp::encode` segment, the frame on the wire, and the copy a
//! UDP socket queues. None of them can be a pool buffer without that
//! buffer leaving its host's pool, which the ledger checks below forbid.
//! What is left above three is per burst and per input chunk.
//!
//! The counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`,
//! so it lives in a test binary of its own (the library crates
//! `forbid(unsafe_code)`), which holds a single test so that no sibling
//! test allocates while it counts.

use fbs_core::{FbsConfig, PoolStats};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_ip::host::World as SecureWorld;
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_net::{udp, Host};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every alloc and realloc.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const A: Ipv4Addr = [10, 7, 0, 1];
const B: Ipv4Addr = [10, 7, 0, 2];
const PORT: u16 = 53;
const BURST: usize = 1024;
const PAYLOAD: usize = 64;
/// Source ports of the resident flows.
const FLOWS: u16 = 4;
const NOW_SECS: u64 = 1_000;
const NOW_US: u64 = NOW_SECS * 1_000_000;

struct World {
    a: Host,
    b: Host,
    hooks_a: FbsIpHooks,
    /// Datagrams handed to `ip_output_batch`: buffers the sender's pool
    /// gets back without having issued them.
    attempted: u64,
    seq: u64,
}

impl World {
    fn new(fbs: FbsConfig) -> World {
        let world = SecureWorld::new(7, DhGroup::test_group());
        world.clock.set(NOW_SECS);
        let cfg = IpMappingConfig {
            encrypt: true,
            workers: 1,
            fbs,
            ..IpMappingConfig::default()
        };
        let (a, hooks_a) = world.secure_host(A, cfg.clone());
        let (mut b, _) = world.secure_host(B, cfg);
        b.udp.bind(PORT).expect("fresh port binds");
        World {
            a,
            b,
            hooks_a,
            attempted: 0,
            seq: 0,
        }
    }

    /// One closed-loop burst; returns the allocations it made.
    fn burst(&mut self) -> u64 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let base = self.seq;
        let items: Vec<(Ipv4Header, Vec<u8>)> = (0..BURST as u64)
            .map(|i| {
                let seq = base + i;
                let data = payload(seq);
                let sport = 4000 + (seq % FLOWS as u64) as u16;
                let seg = udp::encode(A, B, sport, PORT, &data);
                (Ipv4Header::new(A, B, Proto::Udp, seg.len()), seg)
            })
            .collect();
        let results = self.a.ip_output_batch(items, NOW_US);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        drop(results);
        let frames = self.a.take_frames();
        self.b.deliver_frames(&frames, NOW_US);
        drop(frames);
        for i in 0..BURST as u64 {
            let got = self.b.udp.recv(PORT).expect("every datagram delivered");
            assert_eq!(got.data, payload(base + i), "datagram {}", base + i);
        }
        assert!(self.b.udp.recv(PORT).is_none());
        self.attempted += BURST as u64;
        self.seq += BURST as u64;
        ALLOCS.load(Ordering::Relaxed) - before
    }
}

/// The sequence number, then a pattern it seeds.
fn payload(seq: u64) -> [u8; PAYLOAD] {
    let mut p = [0u8; PAYLOAD];
    p[..8].copy_from_slice(&seq.to_be_bytes());
    for (i, b) in p[8..].iter_mut().enumerate() {
        *b = (seq as u8).wrapping_add(i as u8);
    }
    p
}

/// `run.rs`'s ledger check: takes plus foreign buffers equal returns.
fn imbalance(s: PoolStats, foreign: u64) -> u64 {
    (s.hits + s.misses + foreign).abs_diff(s.returns + s.discards)
}

#[test]
fn warm_bursts_allocate_three_per_datagram() {
    let suite = |suite| FbsConfig {
        suite,
        ..FbsConfig::default()
    };
    let suites = [
        (
            "nop_crypto",
            FbsConfig {
                nop_crypto: true,
                ..FbsConfig::default()
            },
        ),
        ("aead_chacha_poly", suite(CipherSuite::AeadChaPoly)),
        ("paper", suite(CipherSuite::Paper)),
        ("fast_des", suite(CipherSuite::FastDes)),
    ];
    for (name, fbs) in suites {
        let mut w = World::new(fbs);
        // Warm: keys derived, tables, pools, scratch and socket queues
        // grown to their steady sizes.
        for _ in 0..4 {
            w.burst();
        }
        let births = w
            .hooks_a
            .combined_stats()
            .expect("combined stats")
            .new_flows;
        let allocs: u64 = (0..4).map(|_| w.burst()).sum();
        let per_dgram = allocs as f64 / (4 * BURST) as f64;
        assert!(
            per_dgram <= 3.1,
            "{name}: {per_dgram:.3} allocations per datagram"
        );
        let after = w
            .hooks_a
            .combined_stats()
            .expect("combined stats")
            .new_flows;
        assert_eq!(after, births, "{name}: no flow is born while counting");
        assert_eq!(
            imbalance(w.a.pool_stats(), w.attempted),
            0,
            "{name}: sender"
        );
        assert_eq!(imbalance(w.b.pool_stats(), 0), 0, "{name}: receiver");
    }
}
