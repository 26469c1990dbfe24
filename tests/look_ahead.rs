//! The hooks' look-ahead. A pass that meets a flow birth may derive the
//! next datagram's key in the same two-lane hash and keep it for that
//! datagram's turn, if the next datagram is predicted to be a birth
//! between the same principals. These cases make the prediction wrong or
//! refuse it: the partner is stale, forged, from another peer, the same
//! flow, or on the same table slot. A batch must still read exactly like
//! the same datagrams one pass at a time: the frames, the verdicts and
//! every count. And the receive cache holds only keys whose datagram
//! verified.

use fbs::core::mkd::MkdStats;
use fbs::core::protocol::EndpointStats;
use fbs::core::{BufferPool, CacheStats, FbsConfig, ManualClock};
use fbs::crypto::dh::DhGroup;
use fbs::crypto::CipherSuite;
use fbs::ip::combined::CombinedStats;
use fbs::ip::hooks::{FbsIpHooks, IpHookStats, IpMappingConfig};
use fbs::ip::host::World as SecureWorld;
use fbs::net::ip::{Ipv4Addr, Ipv4Header, Proto};
use fbs::net::{Datagram, HookOutcome, SecurityHooks};
use fbs::obs::{Counter, Direction, MetricsRegistry};
use std::sync::Arc;

const A: Ipv4Addr = [10, 12, 0, 1];
const B: Ipv4Addr = [10, 12, 0, 2];
const C: Ipv4Addr = [10, 12, 0, 3];
const NOW_US: u64 = 1_000_000;
/// Past the default ±2-minute freshness window.
const STALE_SECS: u64 = 300;

/// Three hosts on one CA, directory and clock, each hooks handle with a
/// registry of its own. Built twice it yields bit-identical twins.
struct World {
    clock: ManualClock,
    hooks: [FbsIpHooks; 3],
    regs: [Arc<MetricsRegistry>; 3],
}

fn world(cfg: &IpMappingConfig) -> World {
    let secure = SecureWorld::new(41, DhGroup::test_group());
    secure.clock.set(1_000);
    let hooks = [A, B, C].map(|addr| secure.hooks(addr, cfg.clone()));
    let regs = [0, 1, 2].map(|_| Arc::new(MetricsRegistry::new()));
    for (h, reg) in hooks.iter().zip(&regs) {
        h.attach_obs(Arc::clone(reg))
            .expect("attach before traffic");
    }
    World {
        clock: secure.clock,
        hooks,
        regs,
    }
}

/// A UDP datagram from `src` port `sport` to `dst` port 53.
fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16) -> Datagram {
    let payload = fbs::net::udp::encode(src, dst, sport, 53, b"look-ahead body");
    Datagram {
        header: Ipv4Header::new(src, dst, Proto::Udp, payload.len()),
        payload,
    }
}

/// Everything a run can be told apart by, per host.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each datagram's header and verdict, the verdict as it prints
    /// (a pass prints its bytes).
    outcomes: Vec<(Ipv4Header, String)>,
    hooks: [IpHookStats; 3],
    endpoint: [EndpointStats; 3],
    rfkc: [CacheStats; 3],
    mkd: [MkdStats; 3],
    combined: [Option<CombinedStats>; 3],
    derivations: [u64; 3],
}

impl World {
    /// Run `items` through `host` in `dir`: as one batch, or one pass
    /// per datagram.
    fn run(
        &self,
        host: usize,
        dir: Direction,
        items: Vec<Datagram>,
        batch: bool,
    ) -> Vec<(Ipv4Header, HookOutcome)> {
        let mut hooks = self.hooks[host].clone();
        let mut pool = BufferPool::new();
        if batch {
            return hooks.process_batch(dir, items, &mut pool, NOW_US);
        }
        let one = |d| hooks.process_batch(dir, vec![d], &mut pool, NOW_US);
        items.into_iter().flat_map(one).collect()
    }

    fn observe(&self, outcomes: Vec<(Ipv4Header, HookOutcome)>) -> Observed {
        Observed {
            outcomes: outcomes
                .into_iter()
                .map(|(h, o)| (h, format!("{o:?}")))
                .collect(),
            hooks: [0, 1, 2].map(|i| self.hooks[i].stats()),
            endpoint: [0, 1, 2].map(|i| self.hooks[i].endpoint_stats()),
            rfkc: [0, 1, 2].map(|i| self.hooks[i].rfkc_stats()),
            mkd: [0, 1, 2].map(|i| self.hooks[i].mkd_stats()),
            combined: [0, 1, 2].map(|i| self.hooks[i].combined_stats()),
            derivations: [0, 1, 2].map(|i| self.regs[i].counter(Counter::KeyDerivations)),
        }
    }
}

fn copy(d: &Datagram) -> Datagram {
    Datagram {
        header: d.header.clone(),
        payload: d.payload.clone(),
    }
}

/// Seal `items` at `host`, one pass each: the frames, in order.
fn seal(w: &World, host: usize, items: Vec<Datagram>) -> Vec<Datagram> {
    w.run(host, Direction::Output, items, false)
        .into_iter()
        .map(|(header, outcome)| match outcome {
            HookOutcome::Pass(payload) => Datagram { header, payload },
            other => panic!("sealing failed: {other:?}"),
        })
        .collect()
}

/// The send side. Births to B pair; a datagram to C between them is
/// another peer; a repeated tuple is no birth; and with one shard and a
/// one-slot table every tuple lands on the running datagram's slot.
fn send_case(cfg: &IpMappingConfig, batch: bool) -> Observed {
    let w = world(cfg);
    let plan = [
        (B, 1),
        (B, 2),
        (C, 3),
        (B, 4),
        (B, 4),
        (B, 5),
        (B, 6),
        (B, 5),
        (C, 7),
        (C, 8),
    ];
    let items = plan
        .iter()
        .map(|&(dst, sport)| udp(A, dst, sport))
        .collect();
    let outcomes = w.run(0, Direction::Output, items, batch);
    w.observe(outcomes)
}

/// The receive side, at B. Each wrong partner follows a birth from A:
/// a stale frame, a forged one (its genuine twin later), one from C, a
/// duplicate of the running frame, and a forged frame whose genuine twin
/// comes right after it.
fn receive_case(cfg: &IpMappingConfig, batch: bool) -> Observed {
    let w = world(cfg);
    let stale = seal(&w, 0, vec![udp(A, B, 100)]).remove(0);
    w.clock.advance(STALE_SECS);
    let from_a = seal(&w, 0, (1..=9).map(|p| udp(A, B, p)).collect());
    let from_c = seal(&w, 2, vec![udp(C, B, 50)]).remove(0);
    let forged = |d: &Datagram| {
        let mut f = copy(d);
        *f.payload.last_mut().unwrap() ^= 0x01;
        f
    };
    let [a1, a2, a3, a4, a5, a6, a7, a8, a9] = from_a.try_into().unwrap();
    let batch_items = vec![
        a1,
        stale,
        a2,
        forged(&a3),
        a3,
        from_c,
        copy(&a4),
        a4,
        a5,
        a6,
        forged(&a7),
        a7,
        a8,
        a9,
    ];
    let outcomes = w.run(1, Direction::Input, batch_items, batch);
    w.observe(outcomes)
}

/// The configurations, each with the births its send case makes: every
/// datagram but the repeated tuple, and with a one-slot table also the
/// tuple that comes back after another took its slot.
fn configs() -> Vec<(&'static str, IpMappingConfig, u64)> {
    let aead = IpMappingConfig {
        encrypt: true,
        fbs: FbsConfig {
            suite: CipherSuite::AeadChaPoly,
            ..FbsConfig::default()
        },
        ..IpMappingConfig::default()
    };
    let one_slot = IpMappingConfig {
        shards: 1,
        fst_size: 1,
        fbs: FbsConfig {
            rfkc_sets: 1,
            rfkc_assoc: 1,
            ..aead.fbs.clone()
        },
        ..aead.clone()
    };
    let paper = IpMappingConfig {
        encrypt: true,
        ..IpMappingConfig::default()
    };
    vec![
        ("aead, 8 shards, 1 owner", aead.clone(), 8),
        (
            "aead, 8 shards, 2 owners",
            IpMappingConfig { workers: 2, ..aead },
            8,
        ),
        ("aead, 1 shard, 1 slot", one_slot, 9),
        ("paper, 8 shards, 1 owner", paper, 8),
    ]
}

#[test]
fn a_batch_that_pairs_births_reads_like_one_pass_per_datagram() {
    for (name, cfg, births) in configs() {
        let scalar = send_case(&cfg, false);
        assert_eq!(send_case(&cfg, true), scalar, "send, {name}");
        let combined = scalar.combined[0].expect("combined stats");
        assert_eq!(combined.new_flows, births, "send, {name}");
    }
}

#[test]
fn a_wrong_guess_costs_no_verdict_count_or_cache_entry() {
    for (name, cfg, _) in configs() {
        let scalar = receive_case(&cfg, false);
        let batched = receive_case(&cfg, true);
        assert_eq!(batched, scalar, "receive, {name}");
        let verdicts: Vec<bool> = batched
            .outcomes
            .iter()
            .map(|(_, o)| o.starts_with("Pass"))
            .collect();
        let want = [
            true, false, true, false, true, true, true, true, true, true, false, true, true, true,
        ];
        assert_eq!(verdicts, want, "receive, {name}");
        // Only the eleven datagrams that verified may have cached a key:
        // ten distinct flows (the duplicate hits), and neither forgery
        // nor the stale frame bought a slot.
        assert_eq!(batched.rfkc[1].insertions, 10, "receive, {name}");
        assert_eq!(batched.endpoint[1].mac_drops, 2, "receive, {name}");
    }
}
