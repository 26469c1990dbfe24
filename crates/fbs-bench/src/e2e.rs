//! Fig. 8's experiment on the system itself: host A sends one flow of UDP
//! datagrams to host B (`udp::encode` → `ip_output_batch` → `take_frames`
//! → `deliver_frames` → `udp.recv`), and B's payloads are checked against
//! A's, in order. Secure variants are two hosts of one [`World`]; GENERIC
//! is two plain hosts. The link is the hand-off of A's frames to B, so a
//! rate is the cost of both stacks, and their hooks, on one thread.
//!
//! The NOP 64 B cell also runs as [`ROWS`] ([`rows`], the `e2e_bench`
//! binary): one or two callers into one pair's hooks, one shard or
//! eight, each row observed and bare.

use fbs_core::{FbsConfig, PoolStats};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::host::DEFAULT_MTU;
use fbs_ip::{FbsIpHooks, IpMappingConfig, World};
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_net::{udp, Host};
use fbs_obs::{MetricsRegistry, MetricsSnapshot};
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

const A: Ipv4Addr = [10, 8, 0, 1];
const B: Ipv4Addr = [10, 8, 0, 2];
/// ttcp's port, at both ends of the one flow.
const PORT: u16 = 5001;
/// Virtual time, fixed inside the freshness window for the whole run.
const NOW_SECS: u64 = 1_000;
const NOW_US: u64 = NOW_SECS * 1_000_000;
/// Datagrams per `ip_output_batch`.
const BURST: usize = 32;
/// The world's seed.
const SEED: u64 = 8;

/// Payload sizes of the grid: a small datagram, one that fills an
/// Ethernet frame, and Fig. 8's 8 KB write (six fragments).
pub const SIZES: [usize; 3] = [64, 1400, 8192];

/// The grid's variants: a name, and the secure hosts' suite with whether
/// its crypto is nullified; `None` is GENERIC, two plain hosts.
pub const VARIANTS: [(&str, Option<(CipherSuite, bool)>); 5] = [
    ("GENERIC", None),
    ("FBS NOP", Some((CipherSuite::Paper, true))),
    ("FBS DES+MD5", Some((CipherSuite::Paper, false))),
    ("FBS fast_des", Some((CipherSuite::FastDes, false))),
    ("FBS aead", Some((CipherSuite::AeadChaPoly, false))),
];
/// GENERIC's index in [`VARIANTS`].
pub const GENERIC: usize = 0;
/// FBS NOP's index in [`VARIANTS`].
pub const NOP: usize = 1;
/// The paper suite's (FBS DES+MD5) index in [`VARIANTS`].
pub const PAPER: usize = 2;
/// The AEAD suite's index in [`VARIANTS`].
pub const AEAD: usize = 4;

/// Flows per caller of a [`ROWS`] row, each its own source port.
pub const FLOWS: u16 = 64;
/// The first row flow's source port.
const FLOW_PORT: u16 = 6000;

/// The NOP 64 B cell's rows, (callers, shards, workers): the unsharded
/// baseline, the partition into eight shards at one owner, and a second
/// caller with a second owner.
pub const ROWS: [(usize, usize, usize); 3] = [(1, 1, 1), (1, 8, 1), (2, 8, 2)];

/// Two hosts, A sending flows to B, and the payloads A has sent.
pub struct Pair {
    a: Host,
    b: Host,
    /// A's and B's hooks, which [`Pair::caller`] shares; none for GENERIC.
    hooks: Option<[FbsIpHooks; 2]>,
    /// The flows' source ports, one datagram each in turn.
    ports: Range<u16>,
    /// Sequence number of the next datagram.
    seq: u64,
    /// Every payload is its sequence number and then a window of these.
    pattern: Vec<u8>,
}

impl Pair {
    /// Two hosts with one flow; secure ones, under `suite` as in
    /// [`VARIANTS`], share one [`World`] on `group` at a fixed time and
    /// report to `obs` if given.
    pub fn new(
        suite: Option<(CipherSuite, bool)>,
        group: &DhGroup,
        obs: Option<&Arc<MetricsRegistry>>,
    ) -> Pair {
        let cfg = suite.map(|(suite, nop_crypto)| IpMappingConfig {
            fbs: FbsConfig {
                suite,
                nop_crypto,
                ..FbsConfig::default()
            },
            ..IpMappingConfig::default()
        });
        Pair::build(cfg, group, obs, PORT..PORT + 1)
    }

    /// Hosts secured under `cfg` (plain for `None`), sending from `ports`.
    fn build(
        cfg: Option<IpMappingConfig>,
        group: &DhGroup,
        obs: Option<&Arc<MetricsRegistry>>,
        ports: Range<u16>,
    ) -> Pair {
        let (mut a, mut b) = (Host::new(A, DEFAULT_MTU), Host::new(B, DEFAULT_MTU));
        let hooks = cfg.map(|cfg| {
            let world = World::new(SEED, group.clone());
            world.clock.set(NOW_SECS);
            [&mut a, &mut b].map(|host| {
                let hooks;
                (*host, hooks) = world.secure_host(host.addr(), cfg.clone());
                if let Some(reg) = obs {
                    hooks
                        .attach_obs(Arc::clone(reg))
                        .expect("attach before traffic");
                }
                hooks
            })
        });
        Pair::with_hosts(a, b, hooks, obs, ports)
    }

    /// `a` and `b` as a pair, both reporting to `obs` if given.
    fn with_hosts(
        mut a: Host,
        mut b: Host,
        hooks: Option<[FbsIpHooks; 2]>,
        obs: Option<&Arc<MetricsRegistry>>,
        ports: Range<u16>,
    ) -> Pair {
        if let Some(reg) = obs {
            a.attach_obs(Arc::clone(reg));
            b.attach_obs(Arc::clone(reg));
        }
        b.udp.bind(PORT).expect("fresh port binds");
        let pattern = (0..SIZES[2] + 256).map(|i| (i * 7 % 251) as u8).collect();
        Pair {
            a,
            b,
            hooks,
            ports,
            seq: 0,
            pattern,
        }
    }

    /// Caller `c` of a secure pair's hooks: two more hosts at A and B,
    /// each holding a clone of its namesake's hooks (one set of keying,
    /// tables and owners), and sending [`FLOWS`] flows of their own.
    fn caller(&self, c: u16, obs: Option<&Arc<MetricsRegistry>>) -> Pair {
        let hooks = self.hooks.clone().expect("a secure pair");
        let host = |addr, hooks: &FbsIpHooks| {
            let mut host = Host::new(addr, DEFAULT_MTU);
            host.install_hooks(Box::new(hooks.clone()));
            host
        };
        let (a, b) = (host(A, &hooks[0]), host(B, &hooks[1]));
        let first = FLOW_PORT + c * FLOWS;
        Pair::with_hosts(a, b, Some(hooks), obs, first..first + FLOWS)
    }

    /// Both hosts' pool ledgers close: every buffer taken came back, and
    /// so did each segment handed to A, a buffer its pool never issued.
    fn pools_balanced(&self) -> bool {
        let closes = |s: PoolStats, foreign| s.hits + s.misses + foreign == s.returns + s.discards;
        closes(self.a.pool_stats(), self.seq) && closes(self.b.pool_stats(), 0)
    }

    /// What follows datagram `seq`'s sequence number in its `size`-byte
    /// payload: a window of the pattern that moves with `seq`.
    fn body(&self, seq: u64, size: usize) -> &[u8] {
        let off = (seq as usize * 31) & 0xFF;
        &self.pattern[off..off + size - 8]
    }

    /// Send `count` datagrams of `size` payload bytes from A to B in
    /// bursts, and check what B receives; returns the datagrams that
    /// were lost, damaged, duplicated or reordered.
    pub fn exchange(&mut self, size: usize, count: usize) -> u64 {
        let mut failed = 0;
        let mut data = Vec::with_capacity(size);
        for base in (self.seq..self.seq + count as u64).step_by(BURST) {
            let end = (base + BURST as u64).min(self.seq + count as u64);
            let items = (base..end)
                .map(|seq| {
                    data.clear();
                    data.extend_from_slice(&seq.to_be_bytes());
                    data.extend_from_slice(self.body(seq, size));
                    let flow = (seq % self.ports.len() as u64) as u16;
                    let seg = udp::encode(A, B, self.ports.start + flow, PORT, &data);
                    (Ipv4Header::new(A, B, Proto::Udp, seg.len()), seg)
                })
                .collect();
            self.a.ip_output_batch(items, NOW_US);
            self.b.deliver_frames(&self.a.take_frames(), NOW_US);
            let mut next = base;
            while let Some(d) = self.b.udp.recv(PORT) {
                let (seq, body) = d.data.split_at(8.min(d.data.len()));
                if d.src == A && seq == next.to_be_bytes() && body == self.body(next, size) {
                    next += 1;
                } else {
                    failed += 1;
                }
            }
            failed += end - next;
        }
        self.seq += count as u64;
        failed
    }
}

/// The grid: one row per [`SIZES`] entry and in it, per [`VARIANTS`]
/// entry, the datagrams that failed their check and the median of
/// `rounds` rates in datagrams/s, each timed over `count` datagrams.
/// Each pair is keyed in an untimed warm-up, and within a round the
/// variants alternate at each size.
pub fn grid(count: usize, rounds: usize, group: &DhGroup) -> [[(u64, f64); 5]; 3] {
    let mut pairs = VARIANTS.map(|(_, suite)| Pair::new(suite, group, None));
    let mut cells = SIZES.map(|size| {
        pairs
            .each_mut()
            .map(|pair| (pair.exchange(size, BURST), vec![]))
    });
    for _ in 0..rounds {
        for (row, size) in cells.iter_mut().zip(SIZES) {
            for ((failed, rates), pair) in row.iter_mut().zip(&mut pairs) {
                let start = Instant::now();
                *failed += pair.exchange(size, count);
                rates.push(count as f64 / start.elapsed().as_secs_f64());
            }
        }
    }
    cells.map(|row| {
        row.map(|(failed, mut rates)| {
            rates.sort_by(f64::total_cmp);
            (failed, rates.get(rounds / 2).copied().unwrap_or(0.0))
        })
    })
}

/// One [`ROWS`] row, each figure `[observed, bare]`.
#[derive(Clone, Debug)]
pub struct Row {
    /// Threads, each driving its own pair of hosts into the hooks.
    pub callers: usize,
    /// Flow-state shards of each host.
    pub shards: usize,
    /// Shard owners of each host.
    pub workers: usize,
    /// The median over the rounds of all callers' datagrams/s.
    pub rate: [f64; 2],
    /// Allocations per datagram, over every timed datagram.
    pub allocs: [f64; 2],
    /// Datagrams that failed their check, warm-up included.
    pub failed: u64,
    /// Every host's pool ledger closed after the last round.
    pub pool_balanced: bool,
}

impl Row {
    /// The share of the bare rate the registry costs: `1 − observed / bare`.
    pub fn obs_overhead_share(&self) -> f64 {
        1.0 - self.rate[0] / self.rate[1]
    }
}

/// What [`rows`] measured.
pub struct Rows {
    /// One per [`ROWS`] entry, in order.
    pub rows: Vec<Row>,
    /// Per round, the (1, 8, 1) row's observed rate over the (1, 1, 1)
    /// row's, sorted.
    pub sharded_ratios: Vec<f64>,
    /// Every observed row's registry, merged.
    pub obs: MetricsSnapshot,
}

impl Rows {
    /// The median of [`Rows::sharded_ratios`]: what the partition into
    /// shards costs one caller.
    pub fn sharded_vs_unsharded_1caller(&self) -> f64 {
        self.sharded_ratios[self.sharded_ratios.len() / 2]
    }
}

/// A row's pairs: the first built on `shards` and `workers`, the others
/// its callers.
fn row_pairs(
    (callers, shards, workers): (usize, usize, usize),
    group: &DhGroup,
    obs: Option<&Arc<MetricsRegistry>>,
) -> Vec<Pair> {
    let cfg = IpMappingConfig {
        shards,
        workers,
        // Room for every flow in one shard: the rows time resident
        // flows, not births.
        fst_size: 4096,
        fbs: FbsConfig {
            nop_crypto: true,
            rfkc_sets: 4096,
            ..FbsConfig::default()
        },
        ..IpMappingConfig::default()
    };
    let first = Pair::build(Some(cfg), group, obs, FLOW_PORT..FLOW_PORT + FLOWS);
    let others: Vec<Pair> = (1..callers as u16).map(|c| first.caller(c, obs)).collect();
    std::iter::once(first).chain(others).collect()
}

/// `count` 64 B datagrams through each pair, on a thread per pair
/// started together: the seconds from the first start to the last end,
/// the allocations `alloc` counted meanwhile, and the failed datagrams.
fn drive(pairs: &mut [Pair], count: usize, alloc: &dyn Fn() -> u64) -> (f64, u64, u64) {
    let start = Barrier::new(pairs.len() + 1);
    thread::scope(|s| {
        let callers: Vec<_> = pairs
            .iter_mut()
            .map(|pair| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let failed = pair.exchange(SIZES[0], count);
                    (t0, Instant::now(), failed)
                })
            })
            .collect();
        let before = alloc();
        start.wait();
        let runs: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        let allocs = alloc() - before;
        let first = runs.iter().map(|r| r.0).min().expect("a caller");
        let last = runs.iter().map(|r| r.1).max().expect("a caller");
        let failed = runs.iter().map(|r| r.2).sum();
        ((last - first).as_secs_f64(), allocs, failed)
    })
}

/// [`ROWS`] on the NOP 64 B cell, `rounds` rounds of `count` datagrams
/// per caller. Each row runs observed, on pairs sharing one registry,
/// and bare, on pairs of its own; both are keyed in an untimed warm-up.
/// A round runs every row observed, back to back, then every row bare.
/// `alloc` reads an allocation counter.
pub fn rows(count: usize, rounds: usize, group: &DhGroup, alloc: &dyn Fn() -> u64) -> Rows {
    let registries = ROWS.map(|_| Arc::new(MetricsRegistry::new()));
    let mut sets: Vec<[Vec<Pair>; 2]> = ROWS
        .iter()
        .zip(&registries)
        .map(|(&row, reg)| [Some(reg), None].map(|obs| row_pairs(row, group, obs)))
        .collect();
    let mut rows: Vec<(Row, [Vec<f64>; 2])> = ROWS
        .iter()
        .map(|&(callers, shards, workers)| {
            let row = Row {
                callers,
                shards,
                workers,
                rate: [0.0; 2],
                allocs: [0.0; 2],
                failed: 0,
                pool_balanced: true,
            };
            (row, [vec![], vec![]])
        })
        .collect();
    for ((row, _), set) in rows.iter_mut().zip(&mut sets) {
        for pairs in set {
            row.failed += drive(pairs, 4 * FLOWS as usize, alloc).2;
        }
    }
    for _ in 0..rounds {
        for mode in 0..2 {
            for ((row, rates), set) in rows.iter_mut().zip(&mut sets) {
                let (secs, allocs, failed) = drive(&mut set[mode], count, alloc);
                let timed = (count * row.callers) as f64;
                rates[mode].push(timed / secs);
                row.allocs[mode] += allocs as f64 / timed / rounds as f64;
                row.failed += failed;
            }
        }
    }
    let mut sharded_ratios: Vec<f64> = rows[1].1[0]
        .iter()
        .zip(&rows[0].1[0])
        .map(|(sharded, unsharded)| sharded / unsharded)
        .collect();
    sharded_ratios.sort_by(f64::total_cmp);
    let mut obs = MetricsSnapshot::new();
    for reg in &registries {
        obs.merge(&reg.snapshot());
    }
    let rows = rows
        .into_iter()
        .zip(&sets)
        .map(|((mut row, mut rates), set)| {
            for (rate, rates) in row.rate.iter_mut().zip(&mut rates) {
                rates.sort_by(f64::total_cmp);
                *rate = rates[rounds / 2];
            }
            row.pool_balanced = set.iter().flatten().all(Pair::pools_balanced);
            row
        })
        .collect();
    Rows {
        rows,
        sharded_ratios,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_delivers_and_crypto_orders_the_rates() {
        let cells = grid(16, 5, &DhGroup::test_group());
        for (row, size) in cells.iter().zip(SIZES) {
            for ((failed, _), (name, _)) in row.iter().zip(VARIANTS) {
                assert_eq!(*failed, 0, "{name} at {size} B");
            }
            let (nop, aead, paper) = (row[NOP].1, row[AEAD].1, row[PAPER].1);
            assert!(
                nop > aead && aead > paper,
                "{size} B: NOP {nop} > AEAD {aead} > paper {paper}"
            );
        }
    }

    #[test]
    fn a_tiny_row_set_delivers_and_closes_its_ledgers() {
        // No allocation counter here (this crate forbids the unsafe
        // one): `cli_artifacts.rs` compares the binary's counts.
        let r = rows(64, 3, &DhGroup::test_group(), &|| 0);
        let shape = r.rows.iter().map(|r| (r.callers, r.shards, r.workers));
        assert_eq!(shape.collect::<Vec<_>>(), ROWS);
        for row in &r.rows {
            assert_eq!(row.failed, 0, "{row:?}");
            assert!(row.pool_balanced, "{row:?}");
            assert!(row.rate.iter().all(|&rate| rate > 0.0), "{row:?}");
        }
        assert_eq!(r.sharded_ratios.len(), 3);
        // Both hosts and both hooks reported: the stacks' and the
        // owners' counts are in the merged snapshot.
        assert!(r.obs.counter("hooks.worker.1.batches") > 0);
        assert!(r.obs.counter("host.frames_sent") > 0);
    }

    #[test]
    fn a_damaged_exchange_counts_as_failed() {
        let mut pair = Pair::new(None, &DhGroup::test_group(), None);
        assert_eq!(pair.exchange(64, 40), 0);
        // B's port closed: every datagram is lost.
        pair.b.udp.unbind(PORT);
        assert_eq!(pair.exchange(64, 40), 40);
    }
}
