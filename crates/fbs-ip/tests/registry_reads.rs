//! The registry reads the ledgers the hooks keep; it holds no copy of
//! them that could drift.
//!
//! Each test moves the receiver's shard memory ledgers the way only the
//! runtime can — a flow-key flush, a geometry past 64 shards, a
//! supervised respawn — and then compares the registry's
//! `mem.shard.<i>.*` rows and its `cache.rfkc.resident_bytes` total with
//! [`FbsIpHooks::shard_budgets`] at that moment.

use fbs_core::{BufferPool, OwnerFaultInjector};
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_ip::host::World;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{Datagram, HookOutcome, RejectReason, SecurityHooks};
use fbs_obs::{Direction, MetricsRegistry, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const A: [u8; 4] = [10, 9, 0, 1];
const B: [u8; 4] = [10, 9, 0, 2];
const NOW_US: u64 = 1_000_000;
/// Flows born on the receiver by [`warm`].
const FLOWS: u16 = 64;

/// A sender and a receiver under `cfg` (one shard owner unless `cfg`
/// says otherwise), and a registry attached to the receiver.
fn pair(cfg: IpMappingConfig) -> (FbsIpHooks, FbsIpHooks, Arc<MetricsRegistry>) {
    let world = World::new(41, DhGroup::test_group());
    let sender = world.hooks(A, cfg.clone());
    let receiver = world.hooks(B, cfg);
    let reg = Arc::new(MetricsRegistry::new());
    receiver.attach_obs(Arc::clone(&reg)).expect("attach obs");
    (sender, receiver, reg)
}

fn one_owner() -> IpMappingConfig {
    IpMappingConfig {
        workers: 1,
        ..IpMappingConfig::default()
    }
}

/// Send one datagram on each of `sports` and deliver it; the verdicts.
fn send(
    sender: &mut FbsIpHooks,
    receiver: &mut FbsIpHooks,
    pool: &mut BufferPool,
    sports: impl Iterator<Item = u16>,
) -> Vec<HookOutcome> {
    let batch: Vec<Datagram> = sports
        .map(|sport| {
            let mut payload = pool.take();
            payload.extend_from_slice(&sport.to_be_bytes());
            payload.extend_from_slice(&53u16.to_be_bytes());
            payload.extend_from_slice(b"registry reads the ledger");
            let header = Ipv4Header::new(A, B, Proto::Udp, payload.len());
            Datagram { header, payload }
        })
        .collect();
    let wire: Vec<Datagram> = sender
        .process_batch(Direction::Output, batch, pool, NOW_US)
        .into_iter()
        .map(|(header, outcome)| match outcome {
            HookOutcome::Pass(payload) => Datagram { header, payload },
            other => panic!("seal failed: {other:?}"),
        })
        .collect();
    receiver
        .process_batch(Direction::Input, wire, pool, NOW_US)
        .into_iter()
        .map(|(_, outcome)| match outcome {
            HookOutcome::Pass(body) => {
                pool.put(body);
                HookOutcome::Pass(Vec::new())
            }
            other => other,
        })
        .collect()
}

/// Birth [`FLOWS`] flows on the receiver: each caches its key there.
fn warm(sender: &mut FbsIpHooks, receiver: &mut FbsIpHooks, pool: &mut BufferPool) {
    let verdicts = send(sender, receiver, pool, 5000..5000 + FLOWS);
    assert!(verdicts.iter().all(|v| matches!(v, HookOutcome::Pass(_))));
}

/// Every memory row of `snap` equals the sum of the hosts' ledgers for
/// that shard, and `cache.rfkc.resident_bytes` equals their RFKC bytes.
fn assert_rows_are_the_ledgers(snap: &MetricsSnapshot, hosts: &[&FbsIpHooks]) {
    let ledgers: Vec<_> = hosts.iter().map(|h| h.shard_budgets()).collect();
    let shards = ledgers[0].len();
    for i in 0..shards {
        let sum = |f: &dyn Fn(&fbs_core::BudgetSnapshot) -> u64| -> u64 {
            ledgers.iter().map(|l| f(&l[i])).sum()
        };
        for (field, want) in [
            ("tfkc_bytes", sum(&|b| b.tfkc_bytes)),
            ("rfkc_bytes", sum(&|b| b.rfkc_bytes)),
            ("mkc_bytes", sum(&|b| b.mkc_bytes)),
            ("fam_bytes", sum(&|b| b.fam_bytes)),
            ("used_bytes", sum(&|b| b.used_bytes())),
            ("limit_bytes", sum(&|b| b.limit_bytes)),
            ("budget_exceeded", sum(&|b| b.exceeded_events)),
        ] {
            let key = format!("mem.shard.{i}.{field}");
            assert_eq!(snap.counter(&key), want, "{key}");
        }
    }
    assert_eq!(snap.counter(&format!("mem.shard.{shards}.fam_bytes")), 0);
    let rfkc: u64 = ledgers.iter().flatten().map(|b| b.rfkc_bytes).sum();
    assert_eq!(snap.counter("cache.rfkc.resident_bytes"), rfkc);
}

/// The receiver's RFKC bytes summed over the registry's shard rows.
fn rfkc_rows(snap: &MetricsSnapshot, shards: usize) -> u64 {
    (0..shards)
        .map(|i| snap.counter(&format!("mem.shard.{i}.rfkc_bytes")))
        .sum()
}

#[test]
fn a_flush_empties_the_registrys_memory_rows() {
    let (mut sender, mut receiver, reg) = pair(one_owner());
    let mut pool = BufferPool::new();
    warm(&mut sender, &mut receiver, &mut pool);
    let shards = receiver.num_shards();
    let snap = reg.snapshot();
    assert!(rfkc_rows(&snap, shards) > 0, "the flows' keys are resident");
    assert_rows_are_the_ledgers(&snap, &[&receiver]);

    receiver.flush_flow_keys().unwrap();
    let snap = reg.snapshot();
    assert_eq!(rfkc_rows(&snap, shards), 0, "flushed keys still counted");
    assert_rows_are_the_ledgers(&snap, &[&receiver]);
}

#[test]
fn every_shard_past_64_has_its_own_memory_row() {
    let (mut sender, mut receiver, reg) = pair(IpMappingConfig {
        shards: 128,
        ..one_owner()
    });
    let mut pool = BufferPool::new();
    warm(&mut sender, &mut receiver, &mut pool);
    assert_eq!(receiver.num_shards(), 128);
    let high: u64 = receiver.shard_budgets()[64..]
        .iter()
        .map(|b| b.rfkc_bytes)
        .sum();
    assert!(high > 0, "some flow must land in a shard past 63");
    assert_rows_are_the_ledgers(&reg.snapshot(), &[&receiver]);
}

/// Panics the first pass that polls it, then never again.
struct PanicOnce(AtomicBool);

impl OwnerFaultInjector for PanicOnce {
    fn take_panic(&self, _owner: usize, _now_us: u64) -> bool {
        self.0.swap(false, Ordering::AcqRel)
    }
}

#[test]
fn a_respawn_leaves_no_resident_bytes_behind() {
    let (mut sender, mut receiver, reg) = pair(one_owner());
    let mut pool = BufferPool::new();
    warm(&mut sender, &mut receiver, &mut pool);
    assert!(reg.snapshot().counter("cache.rfkc.resident_bytes") > 0);

    // The respawn rebuilds every shard fresh and resets its ledger; the
    // datagram it struck is the one verdict the panic costs.
    receiver.set_owner_chaos(Some(Arc::new(PanicOnce(AtomicBool::new(true)))));
    let verdicts = send(&mut sender, &mut receiver, &mut pool, 5000..5001);
    assert!(matches!(
        verdicts[..],
        [HookOutcome::Reject(RejectReason::OwnerPanicked)]
    ));
    assert_eq!(receiver.worker_respawns(), 1);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("cache.rfkc.resident_bytes"), 0);
    assert_rows_are_the_ledgers(&snap, &[&receiver]);
    // The owner's panic row is its block's count.
    assert_eq!(snap.counter("hooks.worker.0.panics"), 1);
    assert_eq!(snap.counter("hooks.worker_panics"), 1);
}

#[test]
fn hosts_sharing_a_registry_sum_their_rows() {
    let (mut sender, mut receiver, reg) = pair(one_owner());
    sender.attach_obs(Arc::clone(&reg)).expect("attach obs");
    let mut pool = BufferPool::new();
    warm(&mut sender, &mut receiver, &mut pool);
    let snap = reg.snapshot();
    assert_rows_are_the_ledgers(&snap, &[&sender, &receiver]);
    // Both hosts ran one owner pass per batch: their owner-0 rows add.
    assert_eq!(snap.counter("hooks.worker.0.batches"), 2);
    assert_eq!(snap.counter("hooks.worker_batches"), 2);
    // A dropped host stops contributing.
    drop(sender);
    assert_rows_are_the_ledgers(&reg.snapshot(), &[&receiver]);
}

/// Counts do not wait for a registry: two hosts carry traffic, a
/// fragmented datagram among it, with none attached, and a registry
/// attached to each only afterwards reads every count they made.
#[test]
fn a_late_registry_reads_every_count_the_hosts_made() {
    let world = World::new(43, DhGroup::test_group());
    let (mut a, hooks_a) = world.secure_host(A, one_owner());
    let (mut b, hooks_b) = world.secure_host(B, one_owner());
    b.udp.bind(53).expect("bind");
    let mut frames = Vec::new();
    for i in 0..3u8 {
        a.udp_send(4000, B, 53, &[i; 100], NOW_US).expect("send");
        frames.extend(a.take_frames());
    }
    a.udp_send(4000, B, 53, &[7; 4_000], NOW_US).expect("send");
    let fragments = a.take_frames();
    assert!(fragments.len() > 1, "the large datagram fragments");
    let produced = fragments.len() as u64;
    frames.extend(fragments);
    b.deliver_frames(&frames, NOW_US);
    assert_eq!(b.stats().dispatched, 4);

    let (reg_a, reg_b) = (
        Arc::new(MetricsRegistry::new()),
        Arc::new(MetricsRegistry::new()),
    );
    a.attach_obs(Arc::clone(&reg_a));
    b.attach_obs(Arc::clone(&reg_b));
    hooks_a.attach_obs(Arc::clone(&reg_a)).expect("attach obs");
    hooks_b.attach_obs(Arc::clone(&reg_b)).expect("attach obs");
    let (snap_a, snap_b) = (reg_a.snapshot(), reg_b.snapshot());
    for (snap, host) in [(&snap_a, &a), (&snap_b, &b)] {
        let pool = host.pool_stats();
        assert_eq!(snap.counter("pool.hits"), pool.hits);
        assert_eq!(snap.counter("pool.misses"), pool.misses);
        assert_eq!(snap.counter("pool.returns"), pool.returns);
        assert_eq!(snap.counter("pool.discards"), pool.discards);
        assert!(pool.hits + pool.misses > 0);
        let stats = host.stats();
        assert_eq!(snap.counter("host.frames_sent"), stats.frames_sent);
        assert_eq!(snap.counter("host.frames_seen"), stats.frames_seen);
        assert_eq!(snap.counter("host.frames_for_us"), stats.frames_for_us);
        assert_eq!(snap.counter("host.dispatched"), stats.dispatched);
    }
    assert_eq!(a.stats().frames_sent, 3 + produced);
    assert_eq!(snap_a.counter("pipeline.output_batches"), 4);
    assert_eq!(snap_a.counter("pipeline.batch_datagrams"), 4);
    assert_eq!(snap_a.counter("net.fragmented_datagrams"), 1);
    assert_eq!(snap_a.counter("net.fragments_produced"), produced);
    assert_eq!(b.stats().frames_for_us, 3 + produced);
    assert_eq!(snap_b.counter("pipeline.input_batches"), 1);
    assert_eq!(snap_b.counter("pipeline.batch_datagrams"), 4);
    assert_eq!(snap_b.counter("net.reassembled_datagrams"), 1);
    // The hooks counted entries, suites, key derivations and owner
    // sub-batches before any registry read them, too.
    // One owner: a sub-batch per hook batch.
    for (snap, entries, batches) in [
        (&snap_a, "hooks.output_entries", 4),
        (&snap_b, "hooks.input_entries", 1),
    ] {
        assert_eq!(snap.counter(entries), 4);
        assert_eq!(snap.counter("hooks.worker_batches"), batches);
        assert_eq!(snap.counter("endpoint.key_derivations"), 1);
    }
    assert_eq!(snap_a.counter("crypto.seal.paper"), 4);
    assert_eq!(snap_b.counter("crypto.open.paper"), 4);
}
