//! Fig. 8's experiment on the system itself: host A sends one flow of UDP
//! datagrams to host B (`udp::encode` → `ip_output_batch` → `take_frames`
//! → `deliver_frames` → `udp.recv`), and B's payloads are checked against
//! A's, in order. Secure variants are two hosts of one [`World`]; GENERIC
//! is two plain hosts. The link is the hand-off of A's frames to B, so a
//! rate is the cost of both stacks, and their hooks, on one thread.

use fbs_core::FbsConfig;
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::host::DEFAULT_MTU;
use fbs_ip::{IpMappingConfig, World};
use fbs_net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs_net::{udp, Host};
use fbs_obs::MetricsRegistry;
use std::sync::Arc;
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

/// Two hosts, A sending one flow to B, and the payloads A has sent.
pub struct Pair {
    a: Host,
    b: Host,
    /// Sequence number of the next datagram.
    seq: u64,
    /// Every payload is its sequence number and then a window of these.
    pattern: Vec<u8>,
}

impl Pair {
    /// Two hosts; secure ones, under `suite` as in [`VARIANTS`], share one
    /// [`World`] on `group` at a fixed time and report to `obs` if given.
    pub fn new(
        suite: Option<(CipherSuite, bool)>,
        group: &DhGroup,
        obs: Option<&Arc<MetricsRegistry>>,
    ) -> Pair {
        let (mut a, mut b) = (Host::new(A, DEFAULT_MTU), Host::new(B, DEFAULT_MTU));
        if let Some((suite, nop_crypto)) = suite {
            let fbs = FbsConfig {
                suite,
                nop_crypto,
                ..FbsConfig::default()
            };
            let cfg = IpMappingConfig {
                fbs,
                ..IpMappingConfig::default()
            };
            let world = World::new(SEED, group.clone());
            world.clock.set(NOW_SECS);
            for host in [&mut a, &mut b] {
                let hooks;
                (*host, hooks) = world.secure_host(host.addr(), cfg.clone());
                if let Some(reg) = obs {
                    host.attach_obs(Arc::clone(reg));
                    hooks
                        .attach_obs(Arc::clone(reg))
                        .expect("attach before traffic");
                }
            }
        }
        b.udp.bind(PORT).expect("fresh port binds");
        let pattern = (0..SIZES[2] + 256).map(|i| (i * 7 % 251) as u8).collect();
        Pair {
            a,
            b,
            seq: 0,
            pattern,
        }
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
                    let seg = udp::encode(A, B, PORT, PORT, &data);
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
    fn a_damaged_exchange_counts_as_failed() {
        let mut pair = Pair::new(None, &DhGroup::test_group(), None);
        assert_eq!(pair.exchange(64, 40), 0);
        // B's port closed: every datagram is lost.
        pair.b.udp.unbind(PORT);
        assert_eq!(pair.exchange(64, 40), 40);
    }
}
