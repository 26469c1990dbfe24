use super::*;
use crate::host::{build_mkd, World};
use datapath::{rx_shard, tuple_for, tx_shard};
use fbs_core::{flow_key_hash_parts, Clock, KeyUnavailableVerdict, ManualClock};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_net::ip::Ipv4Addr;
use fbs_net::RejectReason;
use std::time::Duration;

const A: Ipv4Addr = [10, 9, 0, 1];
const B: Ipv4Addr = [10, 9, 0, 2];

/// The world every test here keys in: seed 42, the small test group.
fn world() -> World {
    World::new(42, DhGroup::test_group())
}

/// Shorthands over [`World`] for these tests.
trait TestHosts {
    /// Hooks for `addr` under the default config (publishing its
    /// certificate).
    fn host(&self, addr: Ipv4Addr) -> FbsIpHooks;
    /// Hooks for `addr` on a caller-supplied clock (no stack behind
    /// them): the fault tests' seam into the middle of an item.
    fn host_on(&self, addr: Ipv4Addr, cfg: IpMappingConfig, clock: Arc<dyn Clock>) -> FbsIpHooks;
}

impl TestHosts for World {
    fn host(&self, addr: Ipv4Addr) -> FbsIpHooks {
        self.hooks(addr, IpMappingConfig::default())
    }

    fn host_on(&self, addr: Ipv4Addr, cfg: IpMappingConfig, clock: Arc<dyn Clock>) -> FbsIpHooks {
        let mkd = build_mkd(
            addr,
            &clock,
            &self.group,
            &self.ca,
            &self.directory,
            self.seed,
        );
        FbsIpHooks::new(Principal::from_ipv4(addr), cfg, clock, self.seed, mkd)
    }
}

fn udp_datagram(src: Ipv4Addr, dst: Ipv4Addr) -> (Ipv4Header, Vec<u8>) {
    // 4-byte port prefix so the 5-tuple extracts, then a body.
    let mut payload = vec![0x0F, 0xA0, 0x00, 0x35];
    payload.extend_from_slice(b"degradation test body");
    let header = Ipv4Header::new(src, dst, Proto::Udp, payload.len());
    (header, payload)
}

fn hooks_with(world: &World, cfg: IpMappingConfig) -> FbsIpHooks {
    world.hooks(A, cfg)
}

/// Owner counts: one lock over every shard, the default, and more.
const MODES: [usize; 3] = [1, 2, 4];

/// Threads of this process named like the worker threads the runtime
/// once spawned (`/proc`; 0 where there is none to read).
fn worker_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("fbs-worker"))
        .count()
}

fn mode_cfg(workers: usize) -> IpMappingConfig {
    IpMappingConfig {
        workers,
        ..IpMappingConfig::default()
    }
}

fn fail_open_cfg(encrypt: bool) -> IpMappingConfig {
    IpMappingConfig {
        encrypt,
        key_unavailable: KeyUnavailableVerdict::FailOpen,
        ..IpMappingConfig::default()
    }
}

/// A registry attached before the first datagram, so it has seen
/// everything `IpHookStats` has.
fn observe(hooks: &FbsIpHooks) -> Arc<MetricsRegistry> {
    let reg = Arc::new(MetricsRegistry::new());
    hooks.attach_obs(Arc::clone(&reg)).unwrap();
    reg
}

/// The verdict ledger's contract: an attached registry's `hooks.*` /
/// `degrade.*` counters and the always-on [`IpHookStats`] have one
/// writer, so they never disagree.
fn assert_ledger_agrees(reg: &MetricsRegistry, hooks: &FbsIpHooks) {
    let snap = reg.snapshot();
    let s = hooks.stats();
    for (name, want) in [
        ("hooks.output_ok", s.protected),
        ("hooks.output_errors", s.output_errors),
        ("hooks.input_ok", s.verified),
        ("hooks.input_errors", s.input_errors),
        ("degrade.fail_open", s.fail_open),
        ("degrade.fail_closed", s.fail_closed),
    ] {
        assert_eq!(snap.counter(name), want, "{name} vs {s:?}");
    }
}

#[test]
fn key_unavailable_fails_closed_by_default() {
    let world = world();
    let mut hooks = world.host(A); // B's certificate never published
    let reg = observe(&hooks);
    let (mut header, payload) = udp_datagram(A, B);
    let out = hooks.output(&mut header, payload, 1_000);
    assert!(
        matches!(out, HookOutcome::Reject(RejectReason::KeyUnavailable)),
        "{out:?}"
    );
    let s = hooks.stats();
    assert_eq!(s.fail_closed, 1);
    assert_eq!(s.output_errors, 1);
    assert_eq!(s.fail_open, 0);
    assert_ledger_agrees(&reg, &hooks);
}

#[test]
fn fail_open_passes_plaintext_when_not_confidential() {
    let world = world();
    let mut hooks = hooks_with(&world, fail_open_cfg(false));
    let reg = observe(&hooks);
    let (mut header, payload) = udp_datagram(A, B);
    let before = header.total_len;
    let out = hooks.output(&mut header, payload.clone(), 1_000);
    match out {
        HookOutcome::Pass(bytes) => assert_eq!(bytes, payload, "original plaintext"),
        other => panic!("expected fail-open pass, got {other:?}"),
    }
    assert_eq!(header.total_len, before, "no FBS overhead added");
    assert_eq!(hooks.stats().fail_open, 1);
    assert_ledger_agrees(&reg, &hooks);
}

#[test]
fn fail_open_downgrades_to_fail_closed_under_encryption() {
    let world = world();
    let mut hooks = hooks_with(&world, fail_open_cfg(true));
    let reg = observe(&hooks);
    let (mut header, payload) = udp_datagram(A, B);
    let out = hooks.output(&mut header, payload, 1_000);
    assert!(
        matches!(out, HookOutcome::Reject(RejectReason::KeyUnavailable)),
        "{out:?}"
    );
    assert_eq!(hooks.stats().fail_closed, 1);
    assert_eq!(hooks.stats().fail_open, 0);
    assert_ledger_agrees(&reg, &hooks);
}

#[test]
fn fail_open_input_admits_only_unframed_datagrams() {
    let world = world();
    let mut hooks = hooks_with(&world, fail_open_cfg(false));
    let reg = observe(&hooks);
    // A bare datagram with no FBS framing: decode fails, fail-open
    // admits it untouched.
    let (mut header, payload) = udp_datagram(B, A);
    let out = hooks.input(&mut header, payload.clone(), 1_000);
    match out {
        HookOutcome::Pass(bytes) => assert_eq!(bytes, payload),
        other => panic!("expected fail-open admit, got {other:?}"),
    }
    assert_eq!(hooks.stats().fail_open, 1);
    assert_ledger_agrees(&reg, &hooks);
}

/// Hooks for every row of the suite × MAC × truncation × encrypt grid,
/// each with its name.
fn for_each_config(world: &World, mut check: impl FnMut(FbsIpHooks, String)) {
    use fbs_crypto::MacAlgorithm;
    for suite in CipherSuite::ALL {
        for mac_alg in [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
            MacAlgorithm::Poly1305,
        ] {
            for mac_truncate in [None, Some(2), Some(4), Some(8), Some(32)] {
                for encrypt in [false, true] {
                    let cfg = IpMappingConfig {
                        encrypt,
                        shards: 1,
                        workers: 1,
                        fbs: FbsConfig {
                            suite,
                            mac_alg,
                            mac_truncate,
                            ..FbsConfig::default()
                        },
                        ..IpMappingConfig::default()
                    };
                    check(
                        hooks_with(world, cfg),
                        format!("{suite:?} {mac_alg:?} {mac_truncate:?} encrypt={encrypt}"),
                    );
                }
            }
        }
    }
}

#[test]
fn max_overhead_bounds_sealed_growth_across_the_config_grid() {
    // The MSS fix reserves `max_overhead()` bytes per segment, so it
    // must bound what the codec really adds — including where
    // normalisation clamps the truncation up and where the suite
    // overrides the configured MAC.
    let world = world();
    let _b = world.host(B); // publishes B's certificate
    for_each_config(&world, |mut hooks, row| {
        // 25 bytes: the worst case for block padding.
        let (mut header, plain) = udp_datagram(A, B);
        let sealed = match hooks.output(&mut header, plain.clone(), 1_000) {
            HookOutcome::Pass(bytes) => bytes,
            other => panic!("{row}: seal failed: {other:?}"),
        };
        assert!(
            sealed.len() - plain.len() <= hooks.max_overhead(),
            "{row}: grew {} > reserved {}",
            sealed.len() - plain.len(),
            hooks.max_overhead()
        );
    });
}

#[test]
fn tx_headroom_covers_max_overhead_across_the_config_grid() {
    // `udp::encode` leaves `TX_HEADROOM` spare bytes so a segment
    // recycled through the pool seals without regrowing: it must cover
    // the most any configuration's header and padding add.
    let world = world();
    for_each_config(&world, |hooks, row| {
        assert!(
            hooks.max_overhead() <= fbs_net::udp::TX_HEADROOM,
            "{row}: max_overhead {} > TX_HEADROOM {}",
            hooks.max_overhead(),
            fbs_net::udp::TX_HEADROOM
        );
    });
}

#[test]
fn crypto_failures_never_degrade() {
    // Even under fail-open, a framed datagram with a bad MAC is
    // rejected: crypto verdicts are final.
    let world = world();
    let mut sender = hooks_with(&world, fail_open_cfg(false));
    let mut receiver = world.host(B);
    let reg = observe(&receiver);
    let (mut header, payload) = udp_datagram(A, B);
    let out = sender.output(&mut header, payload, 1_000);
    let mut wire = match out {
        HookOutcome::Pass(bytes) => bytes,
        other => panic!("sender should protect, got {other:?}"),
    };
    // Flip a bit in the MAC region (the tail).
    let last = wire.len() - 1;
    wire[last] ^= 0x40;
    let mut rx_header = header.clone();
    rx_header.src = A;
    rx_header.dst = B;
    let got = receiver.input(&mut rx_header, wire, 1_000);
    assert!(
        matches!(got, HookOutcome::Reject(RejectReason::BadMac)),
        "{got:?}"
    );
    assert_eq!(receiver.stats().input_errors, 1);
    assert_eq!(
        receiver.stats().fail_open,
        0,
        "MAC failure must not degrade"
    );
    assert_ledger_agrees(&reg, &receiver);
}

/// Every count an accessor of `hosts` reports, summed, by its registry
/// name.
fn accessor_counts(hosts: &[&FbsIpHooks]) -> Vec<(String, u64)> {
    let mut sums = std::collections::BTreeMap::<String, u64>::new();
    for h in hosts {
        let (s, e, m) = (h.stats(), h.endpoint_stats(), h.mkd_stats());
        let (r, c) = (h.rfkc_stats(), h.combined_stats().unwrap());
        for (name, v) in [
            ("hooks.output_ok", s.protected),
            ("hooks.output_errors", s.output_errors),
            ("hooks.input_ok", s.verified),
            ("hooks.input_errors", s.input_errors),
            ("degrade.fail_open", s.fail_open),
            ("degrade.fail_closed", s.fail_closed),
            ("endpoint.sends", e.sends),
            ("endpoint.receives", e.receives),
            ("endpoint.replay_drops", e.replay_drops),
            ("endpoint.mac_drops", e.mac_drops),
            ("endpoint.malformed_drops", e.malformed_drops),
            ("endpoint.encryptions", e.encryptions),
            ("endpoint.decryptions", e.decryptions),
            ("cache.rfkc.hits", r.hits),
            ("cache.rfkc.cold_misses", r.cold_misses),
            ("cache.rfkc.capacity_misses", r.capacity_misses),
            ("cache.rfkc.collision_misses", r.collision_misses),
            ("cache.rfkc.insertions", r.insertions),
            ("cache.rfkc.evictions", r.evictions),
            ("cache.combined.hits", c.hits),
            ("cache.combined.insertions", c.new_flows),
            ("cache.combined.collision_misses", c.collisions),
            ("mkd.upcalls", m.upcalls),
            ("mkd.failures", m.failures),
        ] {
            *sums.entry(name.to_string()).or_insert(0) += v;
        }
    }
    sums.into_iter().collect()
}

/// Seal `batch` on `tx` and open it on `rx`, returning `rx`'s verdicts;
/// `forge` flips a bit in the wire bytes of that submission index.
fn exchange(
    tx: &mut FbsIpHooks,
    rx: &mut FbsIpHooks,
    batch: Vec<Datagram>,
    forge: Option<usize>,
    now_us: u64,
) -> Vec<(Ipv4Header, HookOutcome)> {
    let sealed = tx.process_batch(Direction::Output, batch, &mut BufferPool::new(), now_us);
    let wire: Vec<Datagram> = sealed
        .into_iter()
        .enumerate()
        .map(|(i, (header, outcome))| {
            let HookOutcome::Pass(mut payload) = outcome else {
                panic!("sender should protect, got {outcome:?}");
            };
            if forge == Some(i) {
                let last = payload.len() - 1;
                payload[last] ^= 0x40;
            }
            Datagram { header, payload }
        })
        .collect();
    rx.process_batch(Direction::Input, wire, &mut BufferPool::new(), now_us)
}

#[test]
fn a_registry_attached_mid_run_reads_what_the_accessors_read() {
    let world = world();
    let mut a = world.host(A);
    let mut b = world.host(B);
    // Traffic nobody observes.
    let opened = exchange(&mut a, &mut b, spread_batch(16), None, 1_000);
    assert!(opened.iter().all(|(_, o)| is_pass(o)));
    // A registry attached now reads the whole life of both hosts.
    let reg = Arc::new(MetricsRegistry::new());
    a.attach_obs(Arc::clone(&reg)).unwrap();
    b.attach_obs(Arc::clone(&reg)).unwrap();
    let opened = exchange(&mut a, &mut b, spread_batch(16), Some(3), 2_000);
    assert!(matches!(
        opened[3].1,
        HookOutcome::Reject(RejectReason::BadMac)
    ));
    // C never published a certificate: its key is unavailable.
    let (mut header, payload) = udp_datagram(A, [10, 9, 0, 3]);
    let out = a.output(&mut header, payload, 3_000);
    assert!(matches!(
        out,
        HookOutcome::Reject(RejectReason::KeyUnavailable)
    ));
    let snap = reg.snapshot();
    let want = accessor_counts(&[&a, &b]);
    for (name, v) in &want {
        assert_eq!(snap.counter(name), *v, "{name}");
    }
    // The run reached every kind of count the check reads.
    for name in [
        "hooks.output_ok",
        "hooks.input_errors",
        "degrade.fail_closed",
        "endpoint.mac_drops",
        "cache.rfkc.hits",
        "cache.combined.insertions",
        "mkd.failures",
    ] {
        assert!(snap.counter(name) > 0, "{name}");
    }
    assert_eq!(snap.counter("hooks.output_ok"), 32, "pre-attach included");
}

/// Both sides of a parked conversation. Host A parks in `dir`: its
/// directory (`lonely`) never saw peer B's certificate. B lives in
/// `full`, where both certificates are present, so B can seal real
/// wire bytes for A's input path.
struct ParkRig {
    dir: Direction,
    hooks: FbsIpHooks,
    reg: Arc<MetricsRegistry>,
    pool: BufferPool,
    peer: FbsIpHooks,
    full: World,
    lonely: World,
}

fn park_cfg(park_capacity: usize, park_deadline_us: u64) -> IpMappingConfig {
    IpMappingConfig {
        key_unavailable: KeyUnavailableVerdict::Park,
        park_capacity,
        park_deadline_us,
        ..IpMappingConfig::default()
    }
}

impl ParkRig {
    fn new(dir: Direction, cfg: IpMappingConfig) -> Self {
        let (full, lonely) = (world(), world());
        let hooks = hooks_with(&lonely, cfg);
        let _a_in_full = full.host(A); // publishes A's certificate for B
        ParkRig {
            dir,
            reg: observe(&hooks),
            hooks,
            pool: BufferPool::new(),
            peer: full.host(B),
            full,
            lonely,
        }
    }

    /// One pool-drawn datagram of flow `sport` that parks in `dir`:
    /// plaintext A→B on output, B's sealed wire bytes B→A on input.
    fn datagram(&mut self, sport: u8, now_us: u64) -> Datagram {
        let (src, dst) = match self.dir {
            Direction::Output => (A, B),
            Direction::Input => (B, A),
        };
        let (mut header, mut bytes) = udp_datagram(src, dst);
        bytes[1] = sport;
        if self.dir == Direction::Input {
            bytes = match self.peer.output(&mut header, bytes, now_us) {
                HookOutcome::Pass(wire) => wire,
                other => panic!("peer should protect, got {other:?}"),
            };
        }
        let mut payload = self.pool.take();
        payload.extend_from_slice(&bytes);
        Datagram { header, payload }
    }

    /// Submit `n` datagrams of one flow as one batch.
    fn submit(&mut self, n: usize, now_us: u64) -> Vec<HookOutcome> {
        let batch = (0..n).map(|_| self.datagram(0xA0, now_us)).collect();
        let out = self
            .hooks
            .process_batch(self.dir, batch, &mut self.pool, now_us);
        out.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// One release pass. Each released body was drawn from the pool
    /// and goes back there; the caller gets a copy to look at.
    fn release(&mut self, now_us: u64) -> Vec<(Ipv4Header, Vec<u8>)> {
        let released = match self.dir {
            Direction::Output => self.hooks.release_output(now_us, &mut self.pool),
            Direction::Input => self.hooks.release_input(now_us, &mut self.pool),
        };
        let look = released.clone();
        for (_, body) in released {
            self.pool.put(body);
        }
        look
    }

    /// B's certificate reaches A's directory; both worlds sign with
    /// the same CA key, so A's verifier accepts it.
    fn key_arrives(&self) {
        let b_cert = self.full.directory.fetch(&Principal::from_ipv4(B));
        self.lonely.directory.publish(b_cert.unwrap());
    }

    fn depth(&self) -> usize {
        let (out, inp) = self.hooks.parked_depths();
        match self.dir {
            Direction::Output => out,
            Direction::Input => inp,
        }
    }

    /// What the run left behind, direction-neutral: `dir`'s park
    /// counters and `[ok, errors, fail_open, fail_closed]`. Checks
    /// on the way out that the registry agrees with `IpHookStats`
    /// and that the pool ledger closes once the still-parked
    /// payloads are counted.
    fn account(self) -> (ParkStats, [u64; 4]) {
        assert_ledger_agrees(&self.reg, &self.hooks);
        let p = self.pool.stats();
        assert_eq!(
            p.hits + p.misses,
            p.returns + p.discards + self.depth() as u64,
            "{:?}: {p:?}",
            self.dir
        );
        let (out, inp) = self.hooks.park_stats().unwrap();
        let s = self.hooks.stats();
        match self.dir {
            Direction::Output => (
                out,
                [s.protected, s.output_errors, s.fail_open, s.fail_closed],
            ),
            Direction::Input => (
                inp,
                [s.verified, s.input_errors, s.fail_open, s.fail_closed],
            ),
        }
    }
}

/// Run one park scenario against the output queue and against the
/// input queue, at every owner count. The release loop is one function
/// and so is the datapath, so all runs must leave identical accounts.
fn in_both_directions(
    cfg: IpMappingConfig,
    scenario: impl Fn(&mut ParkRig),
) -> (ParkStats, [u64; 4]) {
    let accounts = MODES.map(|workers| {
        [Direction::Output, Direction::Input].map(|dir| {
            let cfg = IpMappingConfig {
                workers,
                ..cfg.clone()
            };
            let mut rig = ParkRig::new(dir, cfg);
            assert_eq!(rig.hooks.num_workers(), workers);
            scenario(&mut rig);
            rig.account()
        })
    });
    let [out, inp] = accounts[0];
    assert_eq!(out, inp, "output and input parks diverged");
    assert_eq!(accounts, [[out, inp]; 3], "owner counts diverged");
    out
}

#[test]
fn park_holds_then_releases_when_key_arrives() {
    let (park, verdicts) = in_both_directions(park_cfg(64, 10_000_000), |rig| {
        let out = rig.submit(1, 1_000);
        assert!(matches!(out[0], HookOutcome::Park), "{out:?}");
        assert_eq!(rig.depth(), 1);

        // Still keyless: the release pass re-parks, does not drop.
        assert!(rig.release(2_000).is_empty());
        assert_eq!(rig.depth(), 1);

        // B's certificate appears; the parked datagram is processed
        // and released on the next poll.
        rig.key_arrives();
        let released = rig.release(3_000);
        assert_eq!(released.len(), 1);
        let (rel_header, rel_payload) = &released[0];
        let (_, plain) = udp_datagram(A, B);
        match rig.dir {
            Direction::Output => {
                assert!(rel_payload.len() > plain.len(), "released protected");
                assert_eq!(rel_header.dst, B);
            }
            Direction::Input => assert_eq!(rel_payload, &plain, "verified plaintext"),
        }
        assert_eq!(rig.depth(), 0);
    });
    assert_eq!((park.parked, park.released, park.expired), (1, 1, 0));
    assert_eq!(verdicts, [1, 0, 0, 0]);
}

#[test]
fn park_queue_overflow_rejects() {
    let (park, verdicts) = in_both_directions(park_cfg(2, 2_000_000), |rig| {
        for i in 0..2 {
            let out = rig.submit(1, 1_000 + i);
            assert!(matches!(out[0], HookOutcome::Park));
        }
        let out = rig.submit(1, 2_000);
        assert!(
            matches!(out[0], HookOutcome::Reject(RejectReason::ParkQueueFull)),
            "{out:?}"
        );
        assert_eq!(rig.depth(), 2);
    });
    assert_eq!(park.overflow, 1);
    assert_eq!(verdicts, [0, 1, 0, 0]);
}

#[test]
fn park_overflow_recycles_the_rejected_payload() {
    // Same scenario as above, but as one batch with the pool
    // watched: the overflow reject must hand the payload buffer back
    // instead of leaking it. Three payloads are drawn and nothing
    // else (every datagram parks or rejects before it would take a
    // buffer to seal or open into), so the overflowed payload comes
    // back and two payloads stay parked — `account` closes exactly
    // that ledger.
    let (park, _) = in_both_directions(park_cfg(2, 2_000_000), |rig| {
        let out = rig.submit(3, 1_000);
        assert!(matches!(out[0], HookOutcome::Park));
        assert!(matches!(out[1], HookOutcome::Park));
        assert!(matches!(
            out[2],
            HookOutcome::Reject(RejectReason::ParkQueueFull)
        ));
        let p = rig.pool.stats();
        assert_eq!(p.hits + p.misses, 3, "the three payloads");
        assert_eq!(p.returns, 1, "the overflowed payload");
    });
    assert_eq!(park.overflow, 1);
}

#[test]
fn parked_datagrams_expire_at_their_deadline() {
    let (park, verdicts) = in_both_directions(park_cfg(64, 5_000), |rig| {
        let out = rig.submit(1, 1_000);
        assert!(matches!(out[0], HookOutcome::Park));
        // Repeated keyless release passes must not reset the deadline.
        assert!(rig.release(3_000).is_empty());
        assert!(rig.release(5_000).is_empty());
        assert!(rig.release(6_001).is_empty());
        assert_eq!(rig.depth(), 0, "expired, not retained");
        // Expiry recycled the parked payload buffer into the pool.
        assert_eq!(rig.pool.stats().returns, 1, "the payload");
    });
    assert_eq!((park.expired, park.released), (1, 0));
    assert_eq!(verdicts, [0, 0, 0, 0], "expiry is loss, not a verdict");
}

#[test]
fn forged_parked_input_is_rejected_at_release_like_a_batch_item() {
    // A forgery that parks (its key was unavailable on arrival) meets
    // the MAC check only at release. That check is the same inline one
    // a batch item gets: same verdict, same counters.
    MODES.into_iter().for_each(forged_parked_input_in_mode);
}

fn forged_parked_input_in_mode(workers: usize) {
    let cfg = IpMappingConfig {
        workers,
        ..park_cfg(64, 10_000_000)
    };
    let mut rig = ParkRig::new(Direction::Input, cfg);
    let clean = rig.datagram(1, 1_000);
    let mut forged = rig.datagram(2, 1_000); // a distinct flow
    *forged.payload.last_mut().unwrap() ^= 0x5A;
    let batch = vec![clean, forged];
    for (_, out) in rig
        .hooks
        .process_batch(Direction::Input, batch, &mut rig.pool, 1_000)
    {
        assert!(matches!(out, HookOutcome::Park), "{out:?}");
    }
    assert_eq!(rig.depth(), 2);

    rig.key_arrives();
    let released = rig.release(2_000);
    assert_eq!(released.len(), 1, "only the clean datagram is released");
    let (_, mut plain) = udp_datagram(B, A);
    plain[1] = 1;
    assert_eq!(released[0].1, plain, "the clean body, intact");
    assert_eq!(rig.depth(), 0);
    assert_eq!(rig.hooks.endpoint_stats().mac_drops, 1);
    assert_eq!(rig.hooks.endpoint_stats().receives, 1);
    // Only the open that verified is counted as one.
    assert_eq!(rig.reg.snapshot().counter("crypto.open.paper"), 1);
    // Both bodies were recovered into pool buffers; the forgery's went
    // straight back, so `account` closes with nothing foreign.
    let (park, verdicts) = rig.account();
    assert_eq!(verdicts, [1, 1, 0, 0]);
    // The park ledger closes: parked == released + expired + rejected
    // + still queued.
    let steps = (park.parked, park.released, park.expired, park.rejected);
    assert_eq!(steps, (2, 1, 0, 1));
}

#[test]
fn stats_reads_stay_lock_free_while_batches_run() {
    // The "stats never touch shard locks" promise: every accessor
    // below completes while a background thread continuously drives
    // batches through the shared owners. Nothing here can deadlock — the scrape path
    // is atomics only — and the final counts prove the batches all
    // landed.
    let world = world();
    let hooks = world.host(A);
    let _hb = world.host(B); // publishes B's certificate
    let mut worker_handle = hooks.clone();
    let driver = std::thread::spawn(move || {
        let mut pool = BufferPool::new();
        for round in 0..50u64 {
            let batch: Vec<Datagram> = (0..8u16)
                .map(|i| {
                    let mut payload = vec![0x0F, (0xA0 + i) as u8, 0x00, 0x35];
                    payload.extend_from_slice(b"stats scrape body");
                    let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
                    Datagram { header, payload }
                })
                .collect();
            let out = worker_handle.process_batch(Direction::Output, batch, &mut pool, round * 100);
            assert!(out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))));
        }
    });
    for _ in 0..100 {
        let _ = hooks.stats();
        let _ = hooks.endpoint_stats();
        let _ = hooks.rfkc_stats();
        let _ = hooks.mkd_stats();
        let _ = hooks.combined_stats();
        let _ = hooks.parked_depths();
        let _ = hooks.num_shards();
        let _ = hooks.num_workers();
    }
    driver.join().expect("driver thread");
    assert_eq!(hooks.stats().protected, 400);
}

#[test]
fn config_snapshot_swaps_without_rebuilding_state() {
    // Publish-on-update: the same hooks flip from fail-closed to
    // fail-open at runtime; no shard state is rebuilt.
    let world = world();
    let mut hooks = world.host(A); // B never published → keyless
    let (mut header, payload) = udp_datagram(A, B);
    let out = hooks.output(&mut header, payload, 1_000);
    assert!(
        matches!(out, HookOutcome::Reject(RejectReason::KeyUnavailable)),
        "{out:?}"
    );
    hooks.update_config(|c| {
        c.encrypt = false;
        c.key_unavailable = KeyUnavailableVerdict::FailOpen;
    });
    let (mut header, payload) = udp_datagram(A, B);
    let out = hooks.output(&mut header, payload, 2_000);
    assert!(matches!(out, HookOutcome::Pass(_)), "{out:?}");
    assert_eq!(hooks.stats().fail_open, 1);
    assert_eq!(hooks.stats().fail_closed, 1);
}

#[test]
fn batch_outcomes_stay_in_submission_order_across_shards() {
    // Flows with different tuples land in different shards (and
    // different owners); the returned vec must still be
    // positionally aligned with the submitted batch.
    let world = world();
    let mut sender = world.host(A);
    let _receiver = world.host(B); // publishes B's certificate
    let mut pool = BufferPool::new();
    let batch: Vec<Datagram> = (0..16u16)
        .map(|i| {
            let mut payload = vec![0x0F, (0xA0 + i) as u8, 0x00, 0x35];
            payload.extend_from_slice(b"order test body");
            let mut header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
            header.id = i; // tag each datagram through its header
            Datagram { header, payload }
        })
        .collect();
    let out = sender.process_batch(Direction::Output, batch, &mut pool, 1_000);
    assert_eq!(out.len(), 16);
    for (i, (header, outcome)) in out.iter().enumerate() {
        assert_eq!(header.id as usize, i, "submission order preserved");
        assert!(matches!(outcome, HookOutcome::Pass(_)), "{outcome:?}");
    }
    let cs = sender.combined_stats().unwrap();
    assert_eq!(cs.new_flows as usize, 16);
    assert!(
        sender.num_shards() > 1,
        "default config must actually shard"
    );
    assert!(
        sender.num_workers() > 1,
        "default config must split the shards over owners"
    );
}

#[test]
fn workers_clamp_to_shard_count() {
    let world = world();
    let cfg = IpMappingConfig {
        shards: 1,
        workers: 8,
        ..IpMappingConfig::default()
    };
    let mut hooks = hooks_with(&world, cfg);
    assert_eq!(hooks.num_shards(), 1);
    assert_eq!(hooks.num_workers(), 1, "workers clamp to shards");
    let _hb = world.host(B);
    let (mut header, payload) = udp_datagram(A, B);
    assert!(matches!(
        hooks.output(&mut header, payload, 1_000),
        HookOutcome::Pass(_)
    ));
}

#[test]
fn drain_then_shutdown_flushes_and_balances() {
    // The deterministic drain-then-shutdown story: parks survive
    // batches, drain() has nothing buffered to wait for, the pool
    // ledger balances, and the parked entries' buffers come back on
    // release.
    MODES.into_iter().for_each(drain_then_shutdown_in_mode);
}

fn drain_then_shutdown_in_mode(workers: usize) {
    let world = world();
    let cfg = IpMappingConfig {
        workers,
        ..park_cfg(64, 10_000_000)
    };
    let mut hooks = hooks_with(&world, cfg);
    let mut pool = BufferPool::new();
    let batch: Vec<Datagram> = (0..4)
        .map(|_| {
            let (header, payload) = udp_datagram(A, B);
            Datagram { header, payload }
        })
        .collect();
    let out = hooks.process_batch(Direction::Output, batch, &mut pool, 1_000);
    assert!(out.iter().all(|(_, o)| matches!(o, HookOutcome::Park)));
    assert_eq!(hooks.parked_depths(), (4, 0));
    // Ledger: a datagram that parks takes no buffer, and the 4 parked
    // (foreign) payloads are held by the runtime: the pool is untouched.
    assert_eq!(pool.stats(), fbs_core::PoolStats::default());
    // Key arrives; release seals each into a pool buffer and hands the
    // 4 parked payloads to the pool. With the released wires returned
    // the ledger closes over exactly those 4 foreign buffers.
    let _hb = world.host(B);
    let released = hooks.release_output(2_000, &mut pool);
    assert_eq!(released.len(), 4);
    let s = pool.stats();
    assert_eq!((s.hits + s.misses, s.returns + s.discards), (4, 4));
    for (_, wire) in released {
        pool.put(wire);
    }
    let s = pool.stats();
    assert_eq!(s.returns + s.discards, s.hits + s.misses + 4);
    assert_eq!(hooks.parked_depths(), (0, 0));
}

/// Deterministic one-shot fault injector for the supervision tests:
/// the first worker to start a sub-batch takes the (single) panic.
struct TestChaos {
    panic_once: std::sync::atomic::AtomicBool,
    /// The thread the last sub-batch-entry tap ran on: whoever runs
    /// the datapath.
    tapped_on: Mutex<Option<std::thread::ThreadId>>,
}

impl TestChaos {
    fn new(panic_once: bool) -> Arc<Self> {
        Arc::new(TestChaos {
            panic_once: std::sync::atomic::AtomicBool::new(panic_once),
            tapped_on: Mutex::new(None),
        })
    }

    fn panicking() -> Arc<Self> {
        Self::new(true)
    }

    /// Whether the datapath ran on the calling thread.
    fn tapped_here(&self) -> bool {
        *self.tapped_on.lock() == Some(std::thread::current().id())
    }
}

impl OwnerFaultInjector for TestChaos {
    fn take_panic(&self, _worker: usize, _now_us: u64) -> bool {
        *self.tapped_on.lock() = Some(std::thread::current().id());
        self.panic_once.swap(false, Ordering::AcqRel)
    }
}

/// Spread a batch over many 5-tuples so every worker gets work.
fn spread_batch(n: usize) -> Vec<Datagram> {
    (0..n)
        .map(|i| {
            let mut payload = vec![0x0F, 0xA0 + i as u8, 0x00, 0x35];
            payload.extend_from_slice(b"fault containment body");
            let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
            Datagram { header, payload }
        })
        .collect()
}

#[test]
fn supervised_panic_respawns_worker_and_batch_completes() {
    MODES.into_iter().for_each(supervised_panic_in_mode);
}

fn supervised_panic_in_mode(workers: usize) {
    let world = world();
    let mut hooks = hooks_with(&world, mode_cfg(workers));
    let _hb = world.host(B); // publish B's certificate
    let chaos = TestChaos::panicking();
    hooks.set_owner_chaos(Some(chaos.clone()));
    let mut pool = BufferPool::new();
    let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 1_000);
    assert_eq!(out.len(), 16, "every datagram got a verdict");
    let rejects = out
        .iter()
        .filter(|(_, o)| matches!(o, HookOutcome::Reject(_)))
        .count();
    assert_eq!(rejects, 1, "exactly the poisoned datagram rejects");
    assert_eq!(hooks.worker_panics(), 1);
    assert_eq!(hooks.worker_respawns(), 1);
    assert_eq!(hooks.quarantined_workers(), 0);
    assert_eq!(hooks.num_workers(), workers);
    // Run to completion means what it says: the submitting thread ran
    // the datapath, panic and all, and no worker thread exists.
    assert!(chaos.tapped_here());
    assert_eq!(worker_threads(), 0);
    // The rebuilt worker serves the next batch cleanly (soft state
    // re-warms through misses).
    let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 2_000);
    assert!(
        out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))),
        "post-respawn batch all passes"
    );
    assert!(chaos.tapped_here());
    // Ledger across the panic: every Pass takes the buffer it seals
    // into and returns its (foreign) payload — net zero; a Reject
    // takes nothing and returns its payload, so returns exceed takes
    // by exactly the reject count.
    let s = pool.stats();
    assert_eq!(s.returns + s.discards, s.hits + s.misses + rejects as u64);
}

/// A clock whose `now_minutes` panics on its `n`th call after `arm(n)`:
/// a fault in the middle of an item. The seal reads the timestamp after
/// `protect` took its output buffer; the open checks freshness first.
struct TripClock {
    inner: ManualClock,
    countdown: std::sync::atomic::AtomicI64,
    tripped: AtomicBool,
}

impl TripClock {
    fn new(world: &World) -> Arc<Self> {
        Arc::new(TripClock {
            inner: world.clock.clone(),
            countdown: std::sync::atomic::AtomicI64::new(0),
            tripped: AtomicBool::new(false),
        })
    }

    fn arm(&self, n: i64) {
        self.countdown.store(n, Ordering::SeqCst);
    }
}

impl Clock for TripClock {
    fn now_secs(&self) -> u64 {
        self.inner.now_secs()
    }
    fn now_minutes(&self) -> u32 {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.tripped.store(true, Ordering::SeqCst);
            panic!("injected clock fault");
        }
        (self.now_secs() / 60) as u32
    }
}

/// An injector that panics at the entry of every supervised pass `when`
/// says so — the tail-only passes too.
struct PanicWhen<F>(F);

impl<F: Fn(usize) -> bool + Send + Sync> OwnerFaultInjector for PanicWhen<F> {
    fn take_panic(&self, worker: usize, _now_us: u64) -> bool {
        (self.0)(worker)
    }
}

fn is_pass(o: &HookOutcome) -> bool {
    matches!(o, HookOutcome::Pass(_))
}

fn is_panicked(o: &HookOutcome) -> bool {
    matches!(o, HookOutcome::Reject(RejectReason::OwnerPanicked))
}

/// Hand every `Pass` buffer of a finished batch back and check that the
/// pool ledger closes over the `foreign` payloads it never issued.
fn close_ledger(pool: &mut BufferPool, out: Vec<(Ipv4Header, HookOutcome)>, foreign: u64) {
    for (_, outcome) in out {
        if let HookOutcome::Pass(buf) = outcome {
            pool.put(buf);
        }
    }
    let s = pool.stats();
    assert_eq!(s.hits + s.misses + foreign, s.returns + s.discards, "{s:?}");
}

#[test]
fn panic_inside_an_item_closes_the_pool_ledger() {
    // The entry tap fires before any buffer moves. This fault strikes
    // after the item took the buffer it seals into, so the unwind frees
    // that buffer and the payload both.
    for workers in MODES {
        let world = world();
        let clock = TripClock::new(&world);
        let mut hooks = world.host_on(A, mode_cfg(workers), clock.clone());
        let _hb = world.host(B);
        let mut pool = BufferPool::new();
        clock.arm(1);
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 1_000);
        assert_eq!(
            out.iter().filter(|(_, o)| is_pass(o)).count(),
            15,
            "{out:?}"
        );
        assert_eq!(hooks.worker_panics(), 1);
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 16, "the dying item had its buffer");
        close_ledger(&mut pool, out, 16);
    }
}

#[test]
fn an_owner_that_always_panics_loses_its_share_one_datagram_per_panic() {
    // Owner 0 panics at the entry of every pass: each one costs the
    // datagram at the cursor, and once none is left the tail is retried
    // a fixed number of times. `process_batch` still returns, with each
    // of owner 0's datagrams rejected by the panic that consumed it and
    // everyone else's untouched.
    for workers in MODES {
        let world = world();
        let mut hooks = hooks_with(&world, mode_cfg(workers));
        let _hb = world.host(B);
        hooks.set_owner_chaos(Some(Arc::new(PanicWhen(|w| w == 0))));
        let mut pool = BufferPool::new();
        let batch = spread_batch(16);
        let owner: Vec<usize> = batch
            .iter()
            .map(|dg| tx_shard(8, tuple_for(&dg.header, &dg.payload).as_ref()) % workers)
            .collect();
        let out = hooks.process_batch(Direction::Output, batch, &mut pool, 1_000);
        for (w, (_, outcome)) in owner.iter().zip(&out) {
            assert_eq!(is_panicked(outcome), *w == 0, "{outcome:?}");
            assert_eq!(is_pass(outcome), *w != 0, "{outcome:?}");
        }
        let share = owner.iter().filter(|w| **w == 0).count() as u64;
        assert_eq!(hooks.worker_panics(), share + 3, "one per item, 3 tails");
        close_ledger(&mut pool, out, 16);
    }
}

#[test]
fn verdicts_written_before_an_unfinished_tail_stand() {
    // Input: owner 0 opens and verifies all of its share but the last
    // datagram, then that last one panics and so does every pass after
    // it. Each verdict an item writes is final, MAC check included, so
    // the passes written before the tail gave up stand.
    for workers in MODES {
        let world = world();
        let clock = TripClock::new(&world);
        let mut hooks = world.host_on(B, mode_cfg(workers), clock.clone());
        let mut peer = world.host(A);
        let tripped = clock.clone();
        hooks.set_owner_chaos(Some(Arc::new(PanicWhen(move |w| {
            w == 0 && tripped.tripped.load(Ordering::SeqCst)
        }))));
        let sealed = peer.process_batch(
            Direction::Output,
            spread_batch(16),
            &mut BufferPool::new(),
            1_000,
        );
        let batch: Vec<Datagram> = sealed
            .into_iter()
            .map(|(header, outcome)| match outcome {
                HookOutcome::Pass(payload) => Datagram { header, payload },
                other => panic!("peer should protect, got {other:?}"),
            })
            .collect();
        let owner: Vec<usize> = batch
            .iter()
            .map(|dg| rx_shard(8, &dg.payload) % workers)
            .collect();
        let share = owner.iter().filter(|w| **w == 0).count();
        assert!(share > 1, "owner 0 needs a datagram to pass first");
        // Owner 0 runs first; the open checks freshness once per item,
        // so the clock trips on the last datagram of its share.
        let last = (0..owner.len()).rfind(|&i| owner[i] == 0).unwrap();
        clock.arm(share as i64);
        let mut pool = BufferPool::new();
        let out = hooks.process_batch(Direction::Input, batch, &mut pool, 1_000);
        let plain = spread_batch(16);
        for (i, (_, outcome)) in out.iter().enumerate() {
            assert_eq!(is_panicked(outcome), i == last, "{i}: {outcome:?}");
            assert_eq!(is_pass(outcome), i != last, "{i}: {outcome:?}");
            if let HookOutcome::Pass(body) = outcome {
                assert_eq!(body, &plain[i].payload, "{i}: body intact");
            }
        }
        assert_eq!(hooks.endpoint_stats().receives, 15);
        assert_eq!(hooks.worker_panics(), 1 + 3, "the tripped item, 3 tails");
        close_ledger(&mut pool, out, 16);
    }
}

#[test]
fn a_default_pool_covers_a_burst_of_any_size() {
    // Steady state against the default 32-buffer pools: the datapath
    // takes a buffer when it needs one and puts the spent payload
    // straight back, so whatever the burst size it misses at most once
    // per pass — the very first take, before any payload has come back.
    let world = world();
    let mut tx = world.host(A);
    let mut rx = world.host(B);
    let (mut pool_a, mut pool_b) = (BufferPool::new(), BufferPool::new());
    let mut own_misses = (0, 0);
    for burst in 1..=3u64 {
        let batch: Vec<Datagram> = (0..1024)
            .map(|i| {
                let (header, mut bytes) = udp_datagram(A, B);
                bytes[1] = (i % 16) as u8;
                let mut payload = pool_a.take();
                payload.extend_from_slice(&bytes);
                Datagram { header, payload }
            })
            .collect();
        let before = pool_a.stats().misses;
        let sealed = tx.process_batch(Direction::Output, batch, &mut pool_a, burst * 1_000);
        own_misses.0 = pool_a.stats().misses - before;
        // Onto B's pool, as its stack's ingest would.
        let batch: Vec<Datagram> = sealed
            .into_iter()
            .map(|(header, outcome)| {
                let HookOutcome::Pass(wire) = outcome else {
                    panic!("sender should protect, got {outcome:?}");
                };
                let mut payload = pool_b.take();
                payload.extend_from_slice(&wire);
                pool_a.put(wire);
                Datagram { header, payload }
            })
            .collect();
        let before = pool_b.stats().misses;
        let opened = rx.process_batch(Direction::Input, batch, &mut pool_b, burst * 1_000);
        own_misses.1 = pool_b.stats().misses - before;
        assert!(opened.iter().all(|(_, o)| is_pass(o)));
        close_ledger(&mut pool_b, opened, 0);
    }
    assert!(
        own_misses.0 <= 1 && own_misses.1 <= 1,
        "hooks' own misses in the third burst: {own_misses:?}"
    );
    close_ledger(&mut pool_a, Vec::new(), 0);
}

#[test]
fn an_exhausted_respawn_budget_quarantines_but_keeps_control_plane() {
    MODES.into_iter().for_each(quarantine_in_mode);
}

fn quarantine_in_mode(workers: usize) {
    let world = world();
    let mut hooks = hooks_with(&world, mode_cfg(workers));
    let _hb = world.host(B);
    let chaos = TestChaos::panicking();
    hooks.set_owner_chaos(Some(chaos.clone()));
    // Spend the respawn budget: the first owner to run takes one panic
    // per batch, on a pool of its own.
    for _ in 0..owner::MAX_RESPAWNS {
        chaos.panic_once.store(true, Ordering::Release);
        hooks.process_batch(
            Direction::Output,
            spread_batch(16),
            &mut BufferPool::new(),
            500,
        );
    }
    assert_eq!(hooks.quarantined_workers(), 0);
    let panics_before = hooks.worker_panics();
    chaos.panic_once.store(true, Ordering::Release);
    let mut pool = BufferPool::new();
    let count = |out: &[(Ipv4Header, HookOutcome)]| {
        let rejects = out
            .iter()
            .filter(|(_, o)| matches!(o, HookOutcome::Reject(_)))
            .count();
        (rejects, out.len() - rejects)
    };
    let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 1_000);
    assert_eq!(out.len(), 16);
    let (rejects, passes) = count(&out);
    assert!(rejects >= 1, "the panicked worker's sub-batch fails closed");
    // Quarantine is per owner: the other owners keep passing traffic,
    // and a lone owner has no others.
    assert_eq!(passes > 0, workers > 1, "{out:?}");
    assert_eq!(hooks.worker_panics() - panics_before, 1);
    assert_eq!(
        hooks.worker_respawns(),
        u64::from(owner::MAX_RESPAWNS),
        "the budget, then no more respawns"
    );
    assert_eq!(hooks.quarantined_workers(), 1);
    // The control plane still answers on the quarantined worker.
    hooks.flush_flow_keys().unwrap();
    let _ = hooks.park_stats().unwrap();
    let _ = hooks.active_flows(1).unwrap();
    // Traffic routed at the quarantined worker keeps failing closed;
    // the rest still passes — and the ledger stays balanced.
    let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 2_000);
    assert!(out
        .iter()
        .any(|(_, o)| matches!(o, HookOutcome::Reject(RejectReason::OwnerQuarantined))));
    let (rejects2, passes2) = count(&out);
    assert_eq!(
        (rejects2, passes2),
        (rejects, passes),
        "same shards, same split"
    );
    // A Reject returns its (foreign) payload and holds no buffer (see
    // the respawn test): the ledger offset is exactly the reject count.
    let s = pool.stats();
    assert_eq!(
        s.returns + s.discards,
        s.hits + s.misses + (rejects + rejects2) as u64
    );
}

#[test]
fn every_owner_count_records_the_same_stages_on_the_callers_thread() {
    MODES.into_iter().for_each(stages_in_mode);
}

fn stages_in_mode(workers: usize) {
    // No thread at any owner count: a registry sees the datapath's
    // stages, one `worker_batches` per sub-batch, and a
    // `hooks.worker.<w>.*` row for each owner that saw work, derived
    // from that owner's block.
    let world = world();
    let mut hooks = hooks_with(&world, mode_cfg(workers));
    let mut peer = world.host(B);
    let reg = observe(&hooks);
    let chaos = TestChaos::new(false);
    hooks.set_owner_chaos(Some(chaos.clone()));
    assert_eq!(worker_threads(), 0, "no worker thread");

    let mut pool = BufferPool::new();
    let batch = spread_batch(16);
    let mut owners: std::collections::BTreeSet<usize> = batch
        .iter()
        .map(|dg| tx_shard(8, tuple_for(&dg.header, &dg.payload).as_ref()) % workers)
        .collect();
    let out = hooks.process_batch(Direction::Output, batch, &mut pool, 1_000);
    assert!(out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))));
    assert!(chaos.tapped_here(), "the submitter ran the datapath");
    // And the way back in, on the input side.
    let (mut header, payload) = udp_datagram(B, A);
    let HookOutcome::Pass(wire) = peer.output(&mut header, payload, 1_000) else {
        panic!("peer should protect");
    };
    // One sub-batch per owner the 16 tuples reach, one for the input.
    let sub_batches = owners.len() as u64 + 1;
    owners.insert(rx_shard(8, &wire) % workers);
    let got = hooks.input(&mut header, wire, 1_000);
    assert!(matches!(got, HookOutcome::Pass(_)), "{got:?}");
    assert!(chaos.tapped_here());

    for stage in [Stage::Partition, Stage::Seal, Stage::Open] {
        assert!(reg.stage_histogram(stage).count() > 0, "{stage:?}");
    }
    // One partition per `process_batch` call: the output batch, then
    // the input.
    assert_eq!(reg.stage_histogram(Stage::Partition).count(), 2);
    let snap = reg.snapshot();
    let row = |w: usize, field: &str| snap.counter(&format!("hooks.worker.{w}.{field}"));
    let seen = (0..workers).filter(|&w| row(w, "batches") > 0).collect();
    assert_eq!(owners, seen, "a row per owner that saw work");
    assert!(owners.iter().all(|&w| row(w, "busy_ns") > 0));
    let batches: u64 = (0..workers).map(|w| row(w, "batches")).sum();
    assert_eq!(batches, sub_batches);
    assert_eq!(snap.counter("hooks.worker_batches"), sub_batches);
    let busy: u64 = (0..workers).map(|w| row(w, "busy_ns")).sum();
    assert_eq!(snap.counter("hooks.worker_busy_ns"), busy);
    if workers > 1 {
        assert!(owners.len() > 1, "the batch must actually spread");
    }
    assert_ledger_agrees(&reg, &hooks);
}

/// A panic tap that blocks owner 0 on a channel and never panics: it
/// reports where it is (`entered`), then waits to be let go (`release`)
/// — inside owner 0's lock, where the tap is polled. Other owners and
/// later calls pass straight through.
struct BlockOwner0 {
    armed: std::sync::atomic::AtomicBool,
    entered: Mutex<std::sync::mpsc::Sender<()>>,
    release: Mutex<std::sync::mpsc::Receiver<()>>,
}

impl OwnerFaultInjector for BlockOwner0 {
    fn take_panic(&self, owner: usize, _now_us: u64) -> bool {
        if owner == 0 && self.armed.swap(false, Ordering::AcqRel) {
            self.entered.lock().send(()).unwrap();
            self.release.lock().recv().unwrap();
        }
        false
    }
}

/// `n` datagrams of distinct flows that all shard to `owner`
/// (`workers = 2`, the default 8 shards).
fn batch_for_owner(owner: usize, n: usize) -> Vec<Datagram> {
    let picked: Vec<Datagram> = spread_batch(96)
        .into_iter()
        .filter(|dg| tx_shard(8, tuple_for(&dg.header, &dg.payload).as_ref()) % 2 == owner)
        .take(n)
        .collect();
    assert_eq!(picked.len(), n, "96 tuples cover both owners");
    picked
}

#[test]
fn owners_are_independent_lock_domains() {
    // Thread A sits inside owner 0 (blocked in the chaos tap, lock
    // held). A batch that only touches owner 1 must complete meanwhile;
    // one that touches owner 0 must wait for A.
    for b_touches_owner_0 in [false, true] {
        let world = world();
        let mut hooks_a = hooks_with(&world, mode_cfg(2));
        let _hb = world.host(B);
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        hooks_a.set_owner_chaos(Some(Arc::new(BlockOwner0 {
            armed: std::sync::atomic::AtomicBool::new(true),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        })));
        let mut hooks_b = hooks_a.clone();
        let closes = |pool: &BufferPool| {
            // Every Pass takes the buffer it seals into and returns its
            // (foreign) payload: the ledger closes at net zero.
            let s = pool.stats();
            s.returns + s.discards == s.hits + s.misses
        };
        let all_pass = |out: &[(Ipv4Header, HookOutcome)]| {
            out.len() == 8 && out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_)))
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(move || {
                let mut pool = BufferPool::new();
                let batch = batch_for_owner(0, 8);
                let out = hooks_a.process_batch(Direction::Output, batch, &mut pool, 1_000);
                (all_pass(&out), closes(&pool))
            });
            entered.recv().expect("A is inside owner 0");
            let (done_tx, done) = std::sync::mpsc::channel();
            let b = scope.spawn(move || {
                let mut pool = BufferPool::new();
                let mut batch = batch_for_owner(1, 8);
                if b_touches_owner_0 {
                    batch.splice(4.., batch_for_owner(0, 4));
                }
                let out = hooks_b.process_batch(Direction::Output, batch, &mut pool, 1_000);
                done_tx.send(()).unwrap();
                (all_pass(&out), closes(&pool))
            });
            if b_touches_owner_0 {
                // B parks on owner 0's lock: it cannot finish until A is
                // let go. (The wait can only ever make this stricter: a
                // correct runtime never sends `done` before `release`.)
                assert!(
                    done.recv_timeout(Duration::from_millis(50)).is_err(),
                    "B finished through a held owner"
                );
                release.send(()).unwrap();
                done.recv().expect("B finishes once A releases owner 0");
            } else {
                // B finishes while A still holds owner 0.
                done.recv().expect("B finishes while owner 0 is held");
                release.send(()).unwrap();
            }
            assert_eq!(a.join().unwrap(), (true, true), "A: passes, ledger");
            assert_eq!(b.join().unwrap(), (true, true), "B: passes, ledger");
        });
    }
}

#[test]
fn the_memory_ledger_charges_each_suites_real_key_allocation() {
    // Per resident receive key: the RFKC slot (1 control byte and a 24 B
    // entry: the 12 B byte-aligned (sfl, source address) id, the 8 B
    // `Box`, the 4 B tick, whose niche marks a vacant slot) and the `Box`
    // allocation — the 40 B key material and, for the DES suites, 728 B
    // of boxed schedules and raw flow key.
    // The byte counts are the 64-bit layout's; the ordering holds on any.
    #[cfg(target_pointer_width = "64")]
    {
        assert_eq!(datapath::flow_key_entry_bytes(CipherSuite::AeadChaPoly), 65);
        assert_eq!(datapath::flow_key_entry_bytes(CipherSuite::Paper), 793);
        assert_eq!(datapath::flow_key_entry_bytes(CipherSuite::FastDes), 793);
        // The combined table's floor is its own 40 B slot.
        assert_eq!(datapath::fst_static_bytes(64), 64 * 40);
    }
    assert!(
        datapath::flow_key_entry_bytes(CipherSuite::AeadChaPoly)
            < datapath::flow_key_entry_bytes(CipherSuite::Paper)
    );

    for suite in CipherSuite::ALL {
        let world = world();
        let mut cfg = IpMappingConfig::default();
        cfg.fbs.suite = suite;
        let mut sender = world.hooks(A, cfg.clone());
        let mut receiver = world.hooks(B, cfg.clone());
        let mut pool = BufferPool::new();
        let (header, payload) = udp_datagram(A, B);
        let sealed = sender.process_batch(
            Direction::Output,
            vec![Datagram { header, payload }],
            &mut pool,
            1_000,
        );
        let wire: Vec<Datagram> = sealed
            .into_iter()
            .map(|(header, out)| match out {
                HookOutcome::Pass(payload) => Datagram { header, payload },
                other => panic!("{suite:?} seal: {other:?}"),
            })
            .collect();
        let opened = receiver.process_batch(Direction::Input, wire, &mut pool, 1_000);
        assert!(opened.iter().all(|(_, o)| is_pass(o)), "{suite:?}");
        let snaps = receiver.shard_budgets();
        let floor = datapath::fst_static_bytes(cfg.fst_size);
        assert!(snaps.iter().all(|s| s.fam_bytes == floor), "{snaps:?}");
        let rfkc: u64 = snaps.iter().map(|s| s.rfkc_bytes).sum();
        assert_eq!(rfkc, datapath::flow_key_entry_bytes(suite), "{suite:?}");
    }
}

/// The combined table is the transmit side's: a host that only receives
/// allocates none of its slots, and a sender only the chunks its flows
/// land in.
#[test]
fn a_receive_only_host_owns_no_combined_chunk() {
    let world = world();
    let cfg = IpMappingConfig {
        fst_size: 4096,
        ..IpMappingConfig::default()
    };
    let mut sender = world.hooks(A, cfg.clone());
    let mut receiver = world.hooks(B, cfg);
    let chunks = |h: &FbsIpHooks| -> usize {
        (0..h.shared.n_workers)
            .map(|w| h.shared.with_owner(w, |st| st.combined_chunks()).unwrap())
            .sum()
    };
    assert_eq!((chunks(&sender), chunks(&receiver)), (0, 0));
    for round in 0..4 {
        let opened = exchange(
            &mut sender,
            &mut receiver,
            spread_batch(48),
            None,
            1_000 + round,
        );
        assert!(opened.iter().all(|(_, o)| is_pass(o)), "{opened:?}");
    }
    assert_eq!(receiver.stats().verified, 4 * 48);
    assert_eq!(chunks(&receiver), 0);
    let sent = chunks(&sender);
    assert!((1..=48).contains(&sent), "{sent} chunks for 48 flows");
}

/// A table a host never writes costs it no directory either: after
/// one-way traffic the receiver holds no combined-table bytes and the
/// sender no RFKC bytes, while each holds the table it did write.
#[test]
fn a_one_way_host_owns_no_directory_of_the_table_it_never_writes() {
    let world = world();
    let mut sender = world.hooks(A, IpMappingConfig::default());
    let mut receiver = world.hooks(B, IpMappingConfig::default());
    let bytes = |h: &FbsIpHooks| -> (u64, u64) {
        (0..h.shared.n_workers)
            .map(|w| h.shared.with_owner(w, |st| st.table_bytes()).unwrap())
            .fold((0, 0), |(c, r), (dc, dr)| (c + dc, r + dr))
    };
    assert_eq!((bytes(&sender), bytes(&receiver)), ((0, 0), (0, 0)));
    let opened = exchange(&mut sender, &mut receiver, spread_batch(48), None, 1_000);
    assert!(opened.iter().all(|(_, o)| is_pass(o)), "{opened:?}");
    let ((sent_combined, sent_rfkc), (recv_combined, recv_rfkc)) =
        (bytes(&sender), bytes(&receiver));
    assert_eq!((sent_rfkc, recv_combined), (0, 0));
    assert!(sent_combined > 0 && recv_rfkc > 0);
}

/// The RFKC is the receive side's: a host that only sends allocates
/// none of its slots, and a receiver only the chunks its flows' sets
/// fall in.
#[test]
fn a_send_only_host_owns_no_rfkc_chunk() {
    let world = world();
    let mut sender = world.hooks(A, IpMappingConfig::default());
    let mut receiver = world.hooks(B, IpMappingConfig::default());
    let chunks = |h: &FbsIpHooks| -> usize {
        (0..h.shared.n_workers)
            .map(|w| h.shared.with_owner(w, |st| st.rfkc_chunks()).unwrap())
            .sum()
    };
    assert_eq!((chunks(&sender), chunks(&receiver)), (0, 0));
    for round in 0..4 {
        let opened = exchange(
            &mut sender,
            &mut receiver,
            spread_batch(48),
            None,
            1_000 + round,
        );
        assert!(opened.iter().all(|(_, o)| is_pass(o)), "{opened:?}");
    }
    assert_eq!(receiver.stats().verified, 4 * 48);
    assert_eq!(chunks(&sender), 0);
    let received = chunks(&receiver);
    assert!(
        (1..=48).contains(&received),
        "{received} chunks for 48 flows"
    );
}

#[test]
fn the_rfkc_index_is_the_principal_pair_ids() {
    // The receive cache keys a flow by (sfl, source address) and leaves
    // the local principal implicit; its hash must still be the one the
    // full (sfl, source, local) id gets, so every set index, hit and
    // eviction lands where it did when the id held both principals.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..4096 {
        let sfl = next();
        let src: Ipv4Addr = (next() as u32).to_be_bytes();
        let local: Ipv4Addr = (next() as u32).to_be_bytes();
        let hooks_hash = datapath::rfkc_hash(Principal::from_ipv4(local));
        let (src_p, local_p) = (Principal::from_ipv4(src), Principal::from_ipv4(local));
        let full = flow_key_hash_parts(sfl, src_p.as_bytes(), local_p.as_bytes());
        assert_eq!(
            hooks_hash(&datapath::rx_key_id(sfl, src)),
            full,
            "sfl {sfl:#x} {src:?} -> {local:?}"
        );
    }
}

/// Plaintext that no sealed frame of the settings tests holds by
/// chance: present in a frame exactly when it went out MAC-only.
const MARKER: &[u8] = b"settings snapshot marker";

/// Send one marked UDP datagram from `host` to B and say whether its
/// frame carries the marker in the clear.
fn send_marked(host: &mut fbs_net::Host, now_us: u64) -> fbs_net::error::Result<bool> {
    host.udp_send(4000, B, 53, MARKER, now_us)?;
    let frames = host.take_frames();
    assert_eq!(frames.len(), 1);
    Ok(frames[0].windows(MARKER.len()).any(|w| w == MARKER))
}

#[test]
fn settings_published_through_a_handle_reach_the_installed_clones_next_batch() {
    let world = world();
    let (mut a, hooks) = world.secure_host(A, IpMappingConfig::default());
    let _b = world.host(B); // publishes B's certificate
                            // The installed clone has read its settings: sealed, unobserved.
    assert_eq!(send_marked(&mut a, 1_000), Ok(false));

    hooks.update_config(|c| c.encrypt = false);
    assert_eq!(send_marked(&mut a, 2_000), Ok(true), "config change");

    let chaos = TestChaos::panicking();
    hooks.set_owner_chaos(Some(chaos.clone()));
    let sent = send_marked(&mut a, 3_000);
    let panicked = fbs_net::NetError::SecurityReject(RejectReason::OwnerPanicked);
    assert_eq!(sent, Err(panicked), "chaos injector");
    assert!(chaos.tapped_here());
    assert_eq!(hooks.worker_panics(), 1);

    let reg = Arc::new(MetricsRegistry::new());
    hooks.attach_obs(Arc::clone(&reg)).unwrap();
    assert_eq!(reg.stage_histogram(Stage::Partition).count(), 0);
    assert_eq!(send_marked(&mut a, 4_000), Ok(true));
    assert_eq!(
        reg.stage_histogram(Stage::Partition).count(),
        1,
        "registry attach"
    );
}

/// A chaos tap that, from owner 0's pass, publishes a MAC-only
/// configuration through the handle it holds, once.
struct PublishFromOwner0(Mutex<Option<FbsIpHooks>>);

impl OwnerFaultInjector for PublishFromOwner0 {
    fn take_panic(&self, owner: usize, _now_us: u64) -> bool {
        if owner == 0 {
            if let Some(hooks) = self.0.lock().take() {
                hooks.update_config(|c| c.encrypt = false);
            }
        }
        false
    }
}

#[test]
fn a_batch_keeps_the_settings_it_started_with() {
    let world = world();
    let mut hooks = hooks_with(&world, mode_cfg(2));
    let _b = world.host(B);
    let tap = PublishFromOwner0(Mutex::new(Some(hooks.clone())));
    hooks.set_owner_chaos(Some(Arc::new(tap)));
    let mut pool = BufferPool::new();
    let body = b"fault containment body";
    let mut batch = |now_us| {
        let mut dgs = batch_for_owner(0, 4);
        dgs.extend(batch_for_owner(1, 4));
        let out = hooks.process_batch(Direction::Output, dgs, &mut pool, now_us);
        let clear = |(_, o): &(Ipv4Header, HookOutcome)| match o {
            HookOutcome::Pass(p) => p.windows(body.len()).any(|w| w == body),
            other => panic!("{other:?}"),
        };
        out.iter().map(clear).collect::<Vec<bool>>()
    };
    // Owner 0 runs first and publishes before its share; owner 1's
    // share still seals under the settings the batch read.
    assert_eq!(batch(1_000), [false; 8]);
    assert_eq!(batch(2_000), [true; 8], "the next batch reads the store");
}
