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
//! What is left above three is per call, and all of it is the caller's:
//! the `items` it hands `ip_output_batch`, the `Vec<Result>` it gets
//! back and the vector `take_frames` collects the frames into. A hook
//! call costs nothing: the hooks drain the datagrams' own vector and
//! append their verdicts to the host's scratch, whatever the burst or
//! input chunk. [`PER_BURST`] names each allocation of one warm burst by
//! its site, and [`PER_SCALAR`] those of one warm scalar round trip.
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

/// Allocations of one warm burst, per step, exactly: the same under NOP
/// crypto and every suite. The receiver takes the burst in 34 input
/// chunks, each of at most 31 datagrams (its pool holds 32 buffers, and
/// a chunk leaves one idle for the hook pass); a chunk costs nothing.
const PER_BURST: [(&str, u64); 5] = [
    // The caller's `items` vector and a `udp::encode` segment per
    // datagram.
    ("encode", 1 + BURST as u64),
    // A frame per datagram (`encode_frame`) and the returned
    // `Vec<Result>`. `items` is collected into `Datagram`s in place and
    // drained by the hooks, and the host's verdict and index scratch
    // are warm.
    ("ip_output_batch", BURST as u64 + 1),
    // `take_frames`' `collect`.
    ("take_frames", 1),
    // The copy a UDP socket queues per datagram.
    ("deliver_frames", BURST as u64),
    // `recv` hands back the queued copy.
    ("udp.recv loop", 0),
];

/// Allocations of one warm scalar round trip, exactly: `ip_output`'s
/// one-element `items`, the frame and the returned `Vec<Result>`; and
/// `deliver_frame`'s socket copy. The settings read and the hook call
/// add nothing.
const PER_SCALAR: [(&str, u64); 2] = [("ip_output", 3), ("deliver_frame", 1)];

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

    /// One closed-loop burst; returns the allocations each of its
    /// [`PER_BURST`] steps made.
    fn burst(&mut self) -> [u64; 5] {
        let mut counts = [0; 5];
        let mut count = |step: usize, mark: &mut u64| {
            let now = ALLOCS.load(Ordering::Relaxed);
            counts[step] = now - *mark;
            *mark = now;
        };
        let mut mark = ALLOCS.load(Ordering::Relaxed);
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
        count(0, &mut mark);
        let results = self.a.ip_output_batch(items, NOW_US);
        count(1, &mut mark);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        drop(results);
        let frames = self.a.take_frames();
        count(2, &mut mark);
        self.b.deliver_frames(&frames, NOW_US);
        count(3, &mut mark);
        drop(frames);
        for i in 0..BURST as u64 {
            let got = self.b.udp.recv(PORT).expect("every datagram delivered");
            assert_eq!(got.data, payload(base + i), "datagram {}", base + i);
        }
        assert!(self.b.udp.recv(PORT).is_none());
        count(4, &mut mark);
        self.attempted += BURST as u64;
        self.seq += BURST as u64;
        counts
    }

    /// One datagram through the scalar entry points; returns the
    /// allocations each of its [`PER_SCALAR`] steps made.
    fn scalar(&mut self) -> [u64; 2] {
        let seq = self.seq;
        let data = payload(seq);
        let sport = 4000 + (seq % FLOWS as u64) as u16;
        let seg = udp::encode(A, B, sport, PORT, &data);
        let header = Ipv4Header::new(A, B, Proto::Udp, seg.len());
        let mark = ALLOCS.load(Ordering::Relaxed);
        let sent = self.a.ip_output(header, seg, NOW_US);
        let output = ALLOCS.load(Ordering::Relaxed) - mark;
        assert!(sent.is_ok(), "{sent:?}");
        let frames = self.a.take_frames();
        assert_eq!(frames.len(), 1);
        let mark = ALLOCS.load(Ordering::Relaxed);
        self.b.deliver_frame(&frames[0], NOW_US);
        let input = ALLOCS.load(Ordering::Relaxed) - mark;
        let got = self.b.udp.recv(PORT).expect("the datagram is delivered");
        assert_eq!(got.data, data, "datagram {seq}");
        self.attempted += 1;
        self.seq += 1;
        [output, input]
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
        let counts: Vec<[u64; 5]> = (0..4).map(|_| w.burst()).collect();
        for burst in &counts {
            for (&(step, want), got) in PER_BURST.iter().zip(burst) {
                assert_eq!(*got, want, "{name}: {step}");
            }
        }
        let allocs: u64 = counts.iter().flatten().sum();
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
        for _ in 0..4 {
            w.scalar();
        }
        for _ in 0..4 {
            let counts = w.scalar();
            for (&(step, want), got) in PER_SCALAR.iter().zip(&counts) {
                assert_eq!(*got, want, "{name}: {step}");
            }
        }
        assert_eq!(
            imbalance(w.a.pool_stats(), w.attempted),
            0,
            "{name}: sender"
        );
        assert_eq!(imbalance(w.b.pool_stats(), 0), 0, "{name}: receiver");
    }
}
