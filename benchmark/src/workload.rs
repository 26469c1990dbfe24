//! The six workloads and the seeded traffic they are made of.
//!
//! A workload fixes the cipher suite, payload size, flow population,
//! burst size and table geometry; the seed fixes which 5-tuples make up
//! the population, the order they are visited in, the payload bytes and
//! which frames the link forges.

use fbs_crypto::crc32;
use fbs_ip::FiveTuple;
use fbs_net::ip::{Ipv4Addr, Proto};

/// Sender address.
pub const A: Ipv4Addr = [10, 11, 0, 1];
/// Receiver address.
pub const B: Ipv4Addr = [10, 11, 0, 2];
/// Flow-state shards per host (the `IpMappingConfig` default).
pub const SHARDS: usize = 8;
/// Destination ports bound on the receiver: `DST_PORT_BASE..+DST_PORTS`.
pub const DST_PORTS: u16 = 16;
/// First destination port.
pub const DST_PORT_BASE: u16 = 7000;
/// Source ports are drawn from `SRC_PORT_BASE..=65535`.
pub const SRC_PORT_BASE: u16 = 1024;

/// Which crypto plane the hosts run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// The paper's "FBS NOP" instrument: the whole protocol path with
    /// MAC and cipher returning immediately.
    Nop,
    /// ChaCha20-Poly1305.
    Aead,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` and later issues cite it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Crypto plane.
    pub suite: Suite,
    /// UDP payload bytes per datagram (sequence number included).
    pub payload: usize,
    /// 5-tuples in the population, visited round-robin in seeded order.
    pub flows: usize,
    /// Datagrams per throughput-phase burst.
    pub burst: usize,
    /// Bursts in the warm-up trial (raised to one full pass over a
    /// resident population when that is longer). Some 40 ms of traffic: enough
    /// to key every flow and grow every buffer, short enough that work
    /// moved into set-up still shows in `setup_s`.
    pub warm_bursts: usize,
    /// `IpMappingConfig::fst_size`.
    pub fst_size: usize,
    /// `FbsConfig::rfkc_sets` × `rfkc_assoc`.
    pub rfkc: (usize, usize),
    /// The population is chosen so that no two flows share a slot of
    /// the sender's direct-mapped flow table: after the warm-up every
    /// lookup hits.
    pub resident: bool,
    /// Frames per thousand the link forges (one bit of the last byte).
    pub forged_per_mille: u32,
}

/// Geometry shared by the 64-flow workloads: `fst_size` 4096 as in the
/// `fastpath` mapping rows, and a receive cache wide enough that eight
/// flows per shard cannot evict each other.
const SMALL: (usize, (usize, usize)) = (4096, (256, 4));

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "nop_small",
        why: "64 B NOP datagrams over 64 resident flows: crypto is ~0 and every lookup hits, so stack, hooks partition/ring/worker dispatch and the ring do nearly all the work",
        suite: Suite::Nop,
        payload: 64,
        flows: 64,
        burst: 1024,
        warm_bursts: 16,
        fst_size: SMALL.0,
        rfkc: SMALL.1,
        resident: true,
        forged_per_mille: 0,
    },
    Workload {
        name: "aead_mtu",
        why: "1400 B ChaCha20-Poly1305 datagrams over 64 resident flows: fbs-crypto does most of the work and per-packet overhead is diluted",
        suite: Suite::Aead,
        payload: 1400,
        flows: 64,
        burst: 256,
        warm_bursts: 16,
        fst_size: SMALL.0,
        rfkc: SMALL.1,
        resident: true,
        forged_per_mille: 0,
    },
    Workload {
        name: "nop_frag8k",
        why: "8192 B NOP datagrams at MTU 1500 (6 fragments): fragment, encode, decode, reassemble and copy dominate while crypto and lookups idle",
        suite: Suite::Nop,
        payload: 8192,
        flows: 64,
        burst: 64,
        warm_bursts: 32,
        fst_size: SMALL.0,
        rfkc: SMALL.1,
        resident: true,
        forged_per_mille: 0,
    },
    Workload {
        name: "aead_flows256k",
        why: "64 B AEAD datagrams over 262144 resident flows: the read side of soft state at scale, table probes that miss the CPU caches",
        suite: Suite::Aead,
        payload: 64,
        flows: 262_144,
        burst: 1024,
        warm_bursts: 256,
        // 8 shards x 65536 slots hold the population at half load.
        fst_size: 65_536,
        rfkc: (16_384, 8),
        resident: true,
        forged_per_mille: 0,
    },
    Workload {
        name: "aead_churn",
        why: "64 B AEAD datagrams round-robin over 65536 tuples through the default 64-slot tables: every datagram is a flow birth on both hosts (classify, sfl, key derivation, insert+evict)",
        suite: Suite::Aead,
        payload: 64,
        flows: 65_536,
        burst: 1024,
        warm_bursts: 8,
        fst_size: 64,
        rfkc: (64, 1),
        resident: false,
        forged_per_mille: 0,
    },
    Workload {
        name: "aead_forged10",
        why: "aead_mtu with one bit flipped in a seeded 10% of frames on the link: rejects beside accepts, the price of an attack on the open path",
        suite: Suite::Aead,
        payload: 1400,
        flows: 64,
        burst: 256,
        warm_bursts: 16,
        fst_size: SMALL.0,
        rfkc: SMALL.1,
        resident: true,
        forged_per_mille: 100,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: the benchmark's only randomness, a pure function of the
/// seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One flow of the population: its ports (addresses are always A → B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
}

impl Flow {
    /// The flow's 5-tuple.
    pub fn tuple(self) -> FiveTuple {
        FiveTuple {
            proto: Proto::Udp.number(),
            saddr: A,
            sport: self.sport,
            daddr: B,
            dport: self.dport,
        }
    }

    /// Where the sender keeps this flow: (shard, slot of the shard's
    /// direct-mapped table). Mirrors `fbs-ip`: `tx_shard` takes bits
    /// 16.. of `crc32(tuple)`, `CombinedTable` the crc modulo
    /// `fst_size`. Should either change, `combined.hit_ratio` falls
    /// below 1 on the resident workloads and says so.
    pub fn shard_and_slot(self, fst_size: usize) -> (usize, usize) {
        let h = crc32(&self.tuple().canonical_array()) as usize;
        ((h >> 16) % SHARDS, h % fst_size)
    }
}

/// Number of candidate (source, destination) port pairs.
const CANDIDATES: usize = (65_536 - SRC_PORT_BASE as usize) * DST_PORTS as usize;

/// Choose the workload's flow population from the seed: candidates are
/// visited in a seeded shuffle, and for a resident workload a candidate
/// is skipped when its [`Flow::shard_and_slot`] is already taken.
/// The returned order is the order the driver visits flows in.
pub fn pick_flows(w: &Workload, flows: usize, rng: &mut Rng) -> Vec<Flow> {
    let mut order: Vec<u32> = (0..CANDIDATES as u32).collect();
    let mut taken = vec![false; if w.resident { SHARDS * w.fst_size } else { 0 }];
    let mut picked = Vec::with_capacity(flows);
    for i in 0..order.len() {
        // Fisher-Yates, one step per candidate drawn: a 64-flow
        // population does not pay for shuffling a million candidates.
        let j = i + rng.below((order.len() - i) as u64) as usize;
        order.swap(i, j);
        let c = order[i];
        let flow = Flow {
            sport: SRC_PORT_BASE + (c / DST_PORTS as u32) as u16,
            dport: DST_PORT_BASE + (c % DST_PORTS as u32) as u16,
        };
        if w.resident {
            let (shard, slot) = flow.shard_and_slot(w.fst_size);
            let cell = &mut taken[shard * w.fst_size + slot];
            if *cell {
                continue;
            }
            *cell = true;
        }
        picked.push(flow);
        if picked.len() == flows {
            return picked;
        }
    }
    panic!(
        "{}: only {} of {flows} flows fit the flow table without sharing a slot",
        w.name,
        picked.len()
    );
}
