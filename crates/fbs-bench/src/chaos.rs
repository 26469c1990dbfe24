//! Chaos soak: scripted faults against a two-host FBS LAN, measuring
//! degradation and — the point — recovery.
//!
//! One runner drives every scenario. It builds hosts A and B from one
//! [`World`], each keying through MKD → [`ChaosPvs`] → PVC →
//! [`ChaosDirectory`] → directory with retry and breaker resilience,
//! arms [`OwnerChaos`] on A, and sends one UDP datagram A → B every send
//! interval through four virtual-time phases. A scenario is a
//! [`FaultPlan`], its phase names and its traffic shape; at each step
//! the runner fires the plan's cache pulses and, when a tracer is
//! attached, puts its window edges on the trace.
//!
//! The keying soak ([`run_soak`]) runs over one flow:
//!
//! 1. **baseline** — fault-free; establishes the goodput yardstick.
//! 2. **fault** — the plan takes the certificate directory and the MKD
//!    upcall path down. The first half flushes only the *receiver's*
//!    soft state (B parks inbound datagrams it can no longer verify); the
//!    second half flushes the *sender's* too (A parks outbound datagrams
//!    it can no longer key). Parking queues are bounded, so sustained
//!    pressure surfaces as counted overflow drops, never memory growth.
//! 3. **settle** — faults lift; breakers half-open and close, parked
//!    datagrams drain, caches re-warm.
//! 4. **recovery** — measured again; convergence means goodput is back to
//!    ≥ 90% of baseline with breakers closed and park queues empty.
//!
//! The worker-fault scenario ([`run_worker_fault`]) keeps keying healthy
//! and panics A's shard owners instead, over eight flows.
//!
//! Every run ends in one verdict ledger: each datagram A's output hook
//! accepted was delivered, rejected by B's input hook, expired in a park
//! queue or is still parked. Everything is a pure function of the seed
//! and virtual time: the same seed yields byte-identical
//! `BENCH_chaos.json` reports.

use fbs_cert::CertSource;
use fbs_chaos::{
    ChaosDirectory, ChaosDirectoryStats, ChaosPvs, ChaosPvsStats, FaultKind, FaultPlan, FlushScope,
    OwnerChaos,
};
use fbs_core::{
    BreakerConfig, BreakerState, Clock, KeyUnavailableVerdict, MasterKeyDaemon, ParkStats,
    Principal, Resilience, RetryPolicy,
};
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_ip::host::DEFAULT_MTU;
use fbs_ip::World;
use fbs_net::ip::Ipv4Addr;
use fbs_net::segment::Impairments;
use fbs_net::stack::{Host, Network};
use fbs_obs::{
    DeltaTracker, FlowTracer, HealthInputs, HealthModel, HealthReport, MetricsRegistry,
    MetricsSnapshot,
};
use std::sync::Arc;

const A: Ipv4Addr = [10, 77, 0, 1];
const B: Ipv4Addr = [10, 77, 0, 2];
const PORT: u16 = 9000;

/// Soak shape: phase durations and traffic parameters, all virtual time.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Deterministic seed for the network, keys, and fault plan.
    pub seed: u64,
    /// Fault-free warm-up/measurement phase, µs.
    pub baseline_us: u64,
    /// Fault window, µs (directory + MKD outage).
    pub fault_us: u64,
    /// Post-fault grace before the recovery measurement, µs.
    pub settle_us: u64,
    /// Recovery measurement phase, µs.
    pub recovery_us: u64,
    /// One datagram sent every this many µs, all phases.
    pub send_interval_us: u64,
    /// UDP payload size, bytes.
    pub payload_bytes: usize,
    /// Simulation step, µs.
    pub step_us: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 7,
            baseline_us: 3_000_000,
            fault_us: 2_000_000,
            settle_us: 2_000_000,
            recovery_us: 6_000_000,
            send_interval_us: 2_000,
            payload_bytes: 512,
            step_us: 500,
        }
    }
}

impl SoakConfig {
    /// The four phase lengths, µs, in phase order.
    fn phase_lens(&self) -> [u64; 4] {
        [
            self.baseline_us,
            self.fault_us,
            self.settle_us,
            self.recovery_us,
        ]
    }

    /// The `"phases_us"` member both reports carry.
    fn phases_us_json(&self) -> String {
        format!(
            "\"phases_us\": {{\"baseline\": {}, \"fault\": {}, \"settle\": {}, \"recovery\": {}}}",
            self.baseline_us, self.fault_us, self.settle_us, self.recovery_us
        )
    }
}

/// Sent/delivered tallies for one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTally {
    /// Datagrams handed to the sender's stack (accepted OR parked).
    pub sent: u64,
    /// Datagrams the sender's hook rejected outright.
    pub send_rejected: u64,
    /// Datagrams delivered to B's socket by the end of the phase.
    pub delivered: u64,
    /// Delivered per second of phase time.
    pub goodput_per_sec: f64,
}

/// What a run measured over its four phases; both scenarios report it
/// in the same layout.
#[derive(Clone, Debug)]
pub struct Phases {
    /// Phase names, in order.
    pub names: [&'static str; 4],
    /// Per-phase traffic tallies, in phase order.
    pub tallies: [PhaseTally; 4],
    /// recovery goodput / baseline goodput.
    pub recovery_ratio: f64,
    /// The verdict ledger's balance: datagrams A's output hook accepted,
    /// minus those delivered to B's socket, rejected by B's input hook,
    /// expired in a park queue, or still parked. Must be 0: above, a
    /// datagram vanished without a verdict; below, one was counted twice.
    pub verdict_loss: i64,
    /// Health timeline: the [`HealthModel`] evaluated at the end of each
    /// phase against that phase's *delta* snapshot (what the phase itself
    /// did, not cumulative totals), in phase order. Pure counter
    /// arithmetic on virtual time, so it is part of the deterministic
    /// report.
    pub health: Vec<(&'static str, HealthReport)>,
}

impl Phases {
    /// Goodput recovered and every accepted datagram accounted for.
    fn recovered(&self) -> bool {
        self.recovery_ratio >= 0.9 && self.verdict_loss == 0
    }

    /// One member per phase, its tally under its name, then the
    /// recovery ratio.
    fn tallies_json(&self) -> String {
        let members: Vec<String> = self
            .names
            .iter()
            .zip(&self.tallies)
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"sent\": {}, \"send_rejected\": {}, \"delivered\": {}, \
                     \"goodput_per_sec\": {:.1}}}",
                    t.sent, t.send_rejected, t.delivered, t.goodput_per_sec
                )
            })
            .collect();
        format!(
            "{},\n  \"recovery_ratio\": {:.3}",
            members.join(",\n  "),
            self.recovery_ratio
        )
    }

    /// The verdict ledger, then the health timeline, one report per
    /// phase.
    fn ledger_json(&self) -> String {
        let members: Vec<String> = self
            .health
            .iter()
            .map(|(phase, report)| format!("    \"{}\": {}", phase, report.to_json()))
            .collect();
        format!(
            "\"verdict_loss\": {},\n  \"health\": {{\n{}\n  }}",
            self.verdict_loss,
            members.join(",\n")
        )
    }
}

/// The worker-fault scenario: scheduled supervised panics against the
/// sender's datagram-plane shard owners, through the same runner as the
/// keying soak. Appears in `BENCH_chaos.json` under `"worker_fault"`.
#[derive(Clone, Debug)]
pub struct WorkerFaultReport {
    /// Configuration the scenario ran under.
    pub cfg: SoakConfig,
    /// Phase tallies, verdict ledger and health timeline.
    pub phases: Phases,
    /// Supervised worker panics observed by the runtimes (both hosts).
    pub panics: u64,
    /// Worker respawns (shard state rebuilt in place).
    pub respawns: u64,
    /// Workers quarantined (fail-closed) at the end — 0 under the
    /// respawn policy unless a worker exhausted its budget.
    pub quarantined: usize,
    /// Total workers across both hosts' runtimes.
    pub workers: usize,
    /// The sender's buffer-pool ledger balances exactly:
    /// returns + discards == takes + rejects. Every reject returned
    /// both its payload and its unused supply; no worker leaked or
    /// double-freed a buffer across a panic.
    pub pool_balanced: bool,
    /// Headline: ratio ≥ 0.9, zero verdict loss, pool balanced, no
    /// worker quarantined, the faults actually bit, and every panic
    /// was respawned.
    pub converged: bool,
}

impl WorkerFaultReport {
    /// Render as one JSON object (the `"worker_fault"` member of
    /// `BENCH_chaos.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scenario\": \"worker_fault\",\n  \"seed\": {},\n  {},\n  {},\n  \
             \"panics\": {},\n  \"respawns\": {},\n  \"quarantined\": {},\n  \
             \"workers\": {},\n  \"pool_balanced\": {},\n  {},\n  \
             \"converged\": {}\n}}",
            self.cfg.seed,
            self.cfg.phases_us_json(),
            self.phases.tallies_json(),
            self.panics,
            self.respawns,
            self.quarantined,
            self.workers,
            self.pool_balanced,
            self.phases.ledger_json(),
            self.converged
        )
    }
}

/// The full `BENCH_chaos.json` payload.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Configuration the soak ran under.
    pub cfg: SoakConfig,
    /// Phase tallies, verdict ledger and health timeline.
    pub phases: Phases,
    /// Both hosts' peer breakers closed (or never opened) at the end.
    pub breaker_closed: bool,
    /// Output-park counters (sender side).
    pub out_park: ParkStats,
    /// Input-park counters (receiver side).
    pub in_park: ParkStats,
    /// Park queue depths at the end — must be (0, 0) for convergence.
    pub final_depths: (usize, usize),
    /// Sender-side directory impairment counters.
    pub dir_chaos: ChaosDirectoryStats,
    /// Receiver-side MKD impairment counters.
    pub mkd_chaos: ChaosPvsStats,
    /// Cache-flush pulses applied.
    pub flush_pulses: u64,
    /// `park.* / degrade.* / retry.* / breaker.*` counters from the
    /// shared fbs-obs registry both hosts report into. Includes the
    /// breaker time-in-state accumulators (`breaker.time_*_us`), which
    /// run on virtual time and are therefore seed-deterministic.
    pub resilience_counters: Vec<(String, u64)>,
    /// The worker-fault scenario, when the caller ran it (the
    /// `chaos_soak` binary always does; `run` alone does not).
    pub worker_fault: Option<WorkerFaultReport>,
    /// The headline verdict: ratio ≥ 0.9, zero verdict loss, breakers
    /// closed, parks empty.
    pub converged: bool,
}

impl ChaosReport {
    /// Render as the `BENCH_chaos.json` document.
    pub fn to_json(&self) -> String {
        let park = |p: &ParkStats| {
            format!(
                "{{\"parked\": {}, \"released\": {}, \"expired\": {}, \"overflow\": {}, \
                 \"rejected\": {}, \"peak_depth\": {}}}",
                p.parked, p.released, p.expired, p.overflow, p.rejected, p.peak_depth
            )
        };
        let counters: Vec<String> = self
            .resilience_counters
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        // Indent the nested scenario object to sit inside this one.
        let worker_fault = match &self.worker_fault {
            Some(wf) => wf.to_json().replace('\n', "\n  "),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"bench\": \"chaos\",\n  \"seed\": {},\n  {},\n  \
             \"send_interval_us\": {},\n  \"payload_bytes\": {},\n  {},\n  \
             \"breaker_closed\": {},\n  \
             \"out_park\": {},\n  \"in_park\": {},\n  \
             \"final_depths\": [{}, {}],\n  \
             \"dir_chaos\": {{\"fetches\": {}, \"outages\": {}}},\n  \
             \"mkd_chaos\": {{\"fetches\": {}, \"outages\": {}}},\n  \
             \"flush_pulses\": {},\n  \"resilience_counters\": {{\n{}\n  }},\n  {},\n  \
             \"worker_fault\": {},\n  \
             \"converged\": {}\n}}\n",
            self.cfg.seed,
            self.cfg.phases_us_json(),
            self.cfg.send_interval_us,
            self.cfg.payload_bytes,
            self.phases.tallies_json(),
            self.breaker_closed,
            park(&self.out_park),
            park(&self.in_park),
            self.final_depths.0,
            self.final_depths.1,
            self.dir_chaos.fetches,
            self.dir_chaos.outages,
            self.mkd_chaos.fetches,
            self.mkd_chaos.outages,
            self.flush_pulses,
            counters.join(",\n"),
            self.phases.ledger_json(),
            worker_fault,
            self.converged
        )
    }
}

/// One chaos-wired host of the world: keying runs MKD → [`ChaosPvs`] →
/// PVC → [`ChaosDirectory`] → directory, with retry + breaker
/// resilience.
struct ChaosHost {
    hooks: FbsIpHooks,
    dir: Arc<ChaosDirectory>,
    pvs: Arc<ChaosPvs>,
}

impl ChaosHost {
    /// Enrol `addr` in `world` and build its hooks over an MKD whose
    /// directory and upcall taps follow `plan`, retrying with jitter
    /// from `jitter_seed`.
    fn new(
        world: &World,
        addr: Ipv4Addr,
        cfg: &IpMappingConfig,
        plan: &FaultPlan,
        jitter_seed: u64,
    ) -> ChaosHost {
        let clock: Arc<dyn Clock> = Arc::new(world.clock.clone());
        let private = world.enrol(addr);
        let directory = Arc::clone(world.directory()) as Arc<dyn CertSource>;
        let dir = Arc::new(ChaosDirectory::new(
            directory,
            plan.clone(),
            Arc::clone(&clock),
        ));
        let pvc = world.pvc(Arc::clone(&dir) as Arc<dyn CertSource>);
        let pvs = Arc::new(ChaosPvs::new(
            Arc::new(pvc),
            plan.clone(),
            Arc::clone(&clock),
        ));
        let retry = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 20_000,
            max_backoff_us: 200_000,
            deadline_us: 400_000,
            jitter_seed,
        };
        let breaker = BreakerConfig {
            failure_threshold: 3,
            open_duration_us: 500_000,
        };
        let mkd = MasterKeyDaemon::new(private, Box::new(Arc::clone(&pvs)))
            .with_resilience(Resilience::new(retry, breaker, clock));
        let hooks = world.hooks_over(addr, cfg.clone(), mkd);
        ChaosHost { hooks, dir, pvs }
    }

    /// One soft-state pulse: drop this host's flow keys and its master
    /// key with `peer`.
    fn flush(&self, peer: Ipv4Addr) {
        self.hooks.flush_flow_keys().expect("worker runtime alive");
        self.hooks.forget_peer(&Principal::from_ipv4(peer));
    }
}

/// Both hosts' mapping: datagrams whose key is unavailable park, in
/// queues of 64 held for at most a second.
fn ip_cfg() -> IpMappingConfig {
    IpMappingConfig {
        key_unavailable: KeyUnavailableVerdict::Park,
        park_capacity: 64,
        park_deadline_us: 1_000_000,
        ..IpMappingConfig::default()
    }
}

/// One scenario: a fault plan over four named phases, and its traffic
/// shape.
struct Scenario {
    plan: FaultPlan,
    names: [&'static str; 4],
    /// Source ports the sends cycle through, one flow each.
    flows: u64,
    /// The byte every payload is filled with.
    byte: u8,
}

/// A finished run: the LAN as its last phase left it, and what it
/// measured.
struct Run {
    net: Network,
    registry: Arc<MetricsRegistry>,
    a: ChaosHost,
    b: ChaosHost,
    phases: Phases,
    /// What each phase changed in the registry.
    deltas: Vec<(&'static str, MetricsSnapshot)>,
    flush_pulses: u64,
}

/// Run `sc` on a fresh two-host LAN: chaos-wired hosts A and B of one
/// [`World`] on an ideal medium, B's port bound, and one registry,
/// stamped by the virtual clock, that both hosts' hooks and stacks
/// report into; `tracer`, if any, samples flows off the registry. One
/// datagram of `sc.byte`s goes from A to B every send interval, its
/// source port cycling through `sc.flows` ports, with the virtual clock
/// in lockstep with the medium. Each step first fires the plan's cache
/// pulses that edge within it, then puts its window edges on the trace
/// timeline, so a parked span can be read against the outage that
/// caused it. Each phase ends in one health evaluation on its delta.
fn run_scenario(cfg: &SoakConfig, sc: &Scenario, tracer: Option<Arc<FlowTracer>>) -> Run {
    let world = World::new(cfg.seed, DhGroup::test_group());
    let ip_cfg = ip_cfg();
    // B's retries jitter on a seed of their own, so the two hosts'
    // backoffs do not move in lockstep.
    let a = ChaosHost::new(&world, A, &ip_cfg, &sc.plan, cfg.seed);
    let b = ChaosHost::new(&world, B, &ip_cfg, &sc.plan, cfg.seed ^ 0xB0B);
    // Events (breaker transitions in particular) are stamped with the
    // virtual clock, so the flight recorder and trace annotations are
    // deterministic per seed. The ring is sized for the whole run (16
    // slots per send interval, far above the parks, breaker moves and
    // retries a soak's faults cause) so the recorder keeps full history
    // and a healthy run reports zero dropped events.
    let total_us: u64 = cfg.phase_lens().iter().sum();
    let event_capacity =
        ((total_us / cfg.send_interval_us.max(1)) as usize * 16).next_power_of_two();
    let clock = world.clock.clone();
    let registry = {
        let c = clock.clone();
        Arc::new(
            MetricsRegistry::with_event_capacity(event_capacity)
                .with_time_source(move || c.now_micros()),
        )
    };
    if let Some(t) = &tracer {
        registry.set_tracer(Arc::clone(t));
    }
    let mut net = Network::new(cfg.seed, Impairments::ideal());
    for (addr, h) in [(A, &a), (B, &b)] {
        h.hooks
            .attach_obs(Arc::clone(&registry))
            .expect("worker runtime alive");
        let mut host = Host::new(addr, DEFAULT_MTU);
        host.install_hooks(Box::new(h.hooks.clone()));
        // The stack observes into the same registry as the hooks: wire /
        // reassembly / deliver spans stitch onto the hook-side spans.
        host.attach_obs(Arc::clone(&registry));
        net.add_host(host);
    }
    a.hooks
        .set_owner_chaos(Some(Arc::new(OwnerChaos::from_plan(&sc.plan))));
    net.host_mut(B)
        .udp
        .bind(PORT)
        .expect("a fresh host's port is free");

    let payload = vec![sc.byte; cfg.payload_bytes];
    let model = HealthModel::default();
    let mut tracker = DeltaTracker::new();
    let mut tallies = [PhaseTally::default(); 4];
    let mut health = Vec::with_capacity(4);
    let mut deltas = Vec::with_capacity(4);
    let mut flush_pulses = 0;
    let (mut end, mut next_send, mut seq, mut delivered_before) = (0, 0, 0, 0);
    for (phase, len) in cfg.phase_lens().into_iter().enumerate() {
        end += len;
        while net.now_us() < end {
            let now = net.now_us();
            clock.set_us(now);
            let since = now.saturating_sub(cfg.step_us);
            for scope in sc.plan.cache_pulses(since, now) {
                match scope {
                    FlushScope::Sender => a.flush(B),
                    FlushScope::Receiver => b.flush(A),
                }
                flush_pulses += 1;
            }
            if let Some(t) = &tracer {
                for (edge, fault, t_us) in sc.plan.window_edges(since, now) {
                    t.annotate(edge, fault, t_us, 0);
                }
            }
            while next_send <= now {
                let sport = 4000 + (seq % sc.flows) as u16;
                let res = net.host_mut(A).udp_send(sport, B, PORT, &payload, now);
                tallies[phase].sent += 1;
                if res.is_err() {
                    tallies[phase].send_rejected += 1;
                }
                seq += 1;
                next_send += cfg.send_interval_us;
            }
            net.step(cfg.step_us.min(end - now));
        }
        clock.set_us(net.now_us());
        let delivered_total = net.host_mut(B).udp.pending(PORT) as u64;
        let tally = &mut tallies[phase];
        tally.delivered = delivered_total - delivered_before;
        tally.goodput_per_sec = tally.delivered as f64 / (len as f64 / 1_000_000.0);
        delivered_before = delivered_total;

        // Health is judged on the *delta* — what this phase did — so a
        // park overflow during the fault window marks the fault phase
        // critical without smearing criticality over the recovery phases
        // that follow (counters are cumulative; phase health is not).
        // Both read only counters on virtual time, so the timeline stays
        // deterministic.
        let delta = tracker.delta(&registry.snapshot());
        let inputs = health_inputs(&a.hooks, &b.hooks, &ip_cfg, phase, &tallies);
        health.push((sc.names[phase], model.evaluate(&delta, &inputs)));
        deltas.push((sc.names[phase], delta));
    }

    // The verdict ledger: every datagram A's output hook accepted must
    // surface somewhere — delivered to B's socket, rejected by B's input
    // hook, expired in a park queue, or still parked. It is read off an
    // idle medium, so a datagram still on the wire is never counted
    // lost.
    while !net.segment.idle() {
        net.step(cfg.step_us);
        clock.set_us(net.now_us());
    }
    let accepted: u64 = tallies.iter().map(|t| t.sent - t.send_rejected).sum();
    let delivered = net.host_mut(B).udp.pending(PORT) as u64;
    let (a_out, a_in) = a.hooks.park_stats().expect("worker runtime alive");
    let (b_out, b_in) = b.hooks.park_stats().expect("worker runtime alive");
    let expired = a_out.expired + a_in.expired + b_out.expired + b_in.expired;
    let (ad, bd) = (a.hooks.parked_depths(), b.hooks.parked_depths());
    let still_parked = (ad.0 + ad.1 + bd.0 + bd.1) as u64;
    let receiver_rejects = b.hooks.stats().input_errors;
    let verdict_loss =
        accepted as i64 - (delivered + receiver_rejects + expired + still_parked) as i64;

    let recovery_ratio = tallies[3].goodput_per_sec / tallies[0].goodput_per_sec.max(1e-9);
    Run {
        net,
        registry,
        a,
        b,
        phases: Phases {
            names: sc.names,
            tallies,
            recovery_ratio,
            verdict_loss,
            health,
        },
        deltas,
        flush_pulses,
    }
}

/// The live (non-counter) half of a phase-end health evaluation, read
/// off both hosts; the counter half is the registry's phase delta.
fn health_inputs(
    a: &FbsIpHooks,
    b: &FbsIpHooks,
    ip_cfg: &IpMappingConfig,
    phase: usize,
    tallies: &[PhaseTally; 4],
) -> HealthInputs {
    let ad = a.parked_depths();
    let bd = b.parked_depths();
    HealthInputs {
        // The deepest single queue vs the per-queue bound: one full
        // queue is turning work away even while its three siblings
        // sit empty, and a summed-depth-vs-summed-capacity ratio
        // would mask that.
        park_depth: [ad.0, ad.1, bd.0, bd.1].into_iter().max().unwrap_or(0) as u64,
        park_capacity: ip_cfg.park_capacity as u64,
        recovery_ratio_pct: (phase == 3).then(|| {
            (tallies[3].goodput_per_sec * 100.0 / tallies[0].goodput_per_sec.max(1e-9)) as u64
        }),
        workers_quarantined: (a.quarantined_workers() + b.quarantined_workers()) as u64,
        workers_total: (a.num_workers() + b.num_workers()) as u64,
        // Worst single shard budget across both hosts, same
        // per-queue logic as park_depth.
        mem_used_bytes: a.mem_bytes().0.max(b.mem_bytes().0),
        mem_limit_bytes: a.mem_bytes().1.max(b.mem_bytes().1),
    }
}

/// Everything one soak produces beyond the committed report: the
/// sampled flow trace (when tracing was requested), the final metrics
/// snapshot (the `--prom` exposition source), and per-phase delta
/// snapshots (the periodic scrape-like increments for `--deltas`).
#[derive(Debug)]
pub struct SoakOutput {
    /// The `BENCH_chaos.json` report.
    pub report: ChaosReport,
    /// Flow-trace JSON (`FlowTracer::to_json`), present when a trace
    /// rate was requested. Runs entirely on virtual time, so it is
    /// byte-identical per seed.
    pub trace_json: Option<String>,
    /// Final registry snapshot, for Prometheus exposition.
    pub snapshot: MetricsSnapshot,
    /// Per-phase delta snapshots from a [`DeltaTracker`]: what changed
    /// during each phase, in phase order.
    pub deltas: Vec<(&'static str, MetricsSnapshot)>,
}

/// The keying soak's plan, phase-relative to `baseline_us`.
fn soak_plan(cfg: &SoakConfig) -> FaultPlan {
    let f0 = cfg.baseline_us;
    let half = cfg.fault_us / 2;
    FaultPlan::default()
        // Keying infrastructure down for the whole fault window.
        .with_window(f0, f0 + cfg.fault_us, FaultKind::DirectoryOutage)
        .with_window(f0, f0 + cfg.fault_us, FaultKind::MkdOutage)
        // First half: hammer the receiver's soft state so inbound
        // datagrams park at B.
        .with_window(
            f0 + 100_000,
            f0 + half,
            FaultKind::EvictionStorm {
                period_us: 300_000,
                scope: FlushScope::Receiver,
            },
        )
        // Second half: flush the sender too so outbound datagrams park
        // (and overflow) at A.
        .with_window(
            f0 + half,
            f0 + half + 50_000,
            FaultKind::FlushCaches {
                scope: FlushScope::Sender,
            },
        )
        .with_window(
            f0 + half,
            f0 + cfg.fault_us,
            FaultKind::EvictionStorm {
                period_us: 300_000,
                scope: FlushScope::Sender,
            },
        )
}

/// Run the soak and assemble just the report (no tracing).
pub fn run(cfg: SoakConfig) -> ChaosReport {
    run_soak(cfg, None).report
}

/// Run the soak, optionally sampling flows at 1 in 2^`trace_rate_log2`
/// (0 traces the soak's single flow), and return the full output set.
pub fn run_soak(cfg: SoakConfig, trace_rate_log2: Option<u32>) -> SoakOutput {
    let tracer = trace_rate_log2.map(|rate| Arc::new(FlowTracer::new(rate)));
    let soak = Scenario {
        plan: soak_plan(&cfg),
        names: ["baseline", "fault", "settle", "recovery"],
        flows: 1,
        byte: 0x5A,
    };
    let Run {
        registry,
        a,
        b,
        phases,
        deltas,
        flush_pulses,
        ..
    } = run_scenario(&cfg, &soak, tracer.clone());

    let (out_park, _) = a.hooks.park_stats().expect("worker runtime alive");
    let (_, in_park) = b.hooks.park_stats().expect("worker runtime alive");
    let a_depths = a.hooks.parked_depths();
    let b_depths = b.hooks.parked_depths();
    let breaker_closed = [
        a.hooks.breaker_state(&Principal::from_ipv4(B)),
        b.hooks.breaker_state(&Principal::from_ipv4(A)),
    ]
    .iter()
    .all(|s| matches!(s, None | Some(BreakerState::Closed)));
    let final_depths = (a_depths.0 + b_depths.0, a_depths.1 + b_depths.1);
    let resilience_counters: Vec<(String, u64)> = registry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(k, _)| {
            ["park.", "degrade.", "retry.", "breaker."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .collect();
    let converged = phases.recovered() && breaker_closed && final_depths == (0, 0);

    let report = ChaosReport {
        cfg,
        phases,
        breaker_closed,
        out_park,
        in_park,
        final_depths,
        dir_chaos: a.dir.stats(),
        mkd_chaos: b.pvs.stats(),
        flush_pulses,
        resilience_counters,
        worker_fault: None,
        converged,
    };
    SoakOutput {
        report,
        trace_json: tracer.map(|t| t.to_json()),
        snapshot: registry.snapshot(),
        deltas,
    }
}

/// The worker-fault plan, phase-relative to `baseline_us`. Every fault
/// is armed against *every* owner: an owner only polls its tap when it
/// carries traffic, so arming all of them covers whatever
/// shard-to-owner layout the seed's flows hash into (unfired pulses are
/// inert and cost nothing). All windows sit inside the fault phase.
fn worker_fault_plan(cfg: &SoakConfig, owners: usize) -> FaultPlan {
    let f0 = cfg.baseline_us;
    let half = cfg.fault_us / 2;
    let mut plan = FaultPlan::default();
    for owner in 0..owners {
        plan = plan
            // One supervised panic early in the window and one after
            // the midpoint: the second proves the respawned owner's
            // rebuilt shard state survives a repeat fault.
            .with_window(f0 + 100_000, f0 + half, FaultKind::OwnerPanic { owner })
            .with_window(
                f0 + half,
                f0 + half + 200_000,
                FaultKind::OwnerPanic { owner },
            );
    }
    plan
}

/// Run the worker-fault scenario: the soak's runner, but the plan
/// targets the sender's datagram-plane shard owners (scheduled
/// supervised panics) instead of the keying infrastructure. Keying stays
/// healthy throughout, so every degradation in the report is
/// attributable to the worker faults.
pub fn run_worker_fault(cfg: SoakConfig) -> WorkerFaultReport {
    let scenario = Scenario {
        plan: worker_fault_plan(&cfg, ip_cfg().workers),
        names: ["baseline", "worker_fault", "settle", "recovery"],
        // Eight source ports → eight flows → the traffic hashes across
        // shards on every worker, so the per-worker fault windows all
        // see load.
        flows: 8,
        byte: 0xA5,
    };
    let Run {
        mut net,
        a,
        b,
        phases,
        ..
    } = run_scenario(&cfg, &scenario, None);

    // The sender's pool ledger must balance exactly: every datagram
    // nets one surplus return, whatever its verdict. A Pass takes one
    // supply, returns the foreign payload it displaced, and returns
    // the sealed wire once it is copied onto the medium (+1); a reject
    // — panic, quarantine — returns both its payload and its
    // unused supply (+1). So returns + discards == takes + sent, and
    // anything else means a worker leaked or double-freed a buffer
    // across a panic. (The receiver's pool is excluded on purpose: it
    // absorbs one foreign wire buffer per delivered datagram, which is
    // a property of the network path, not of the runtime under test.)
    let sent: u64 = phases.tallies.iter().map(|t| t.sent).sum();
    let ap = net.host_mut(A).pool_stats();
    let pool_balanced = ap.returns + ap.discards == ap.hits + ap.misses + sent;

    let panics = a.hooks.worker_panics() + b.hooks.worker_panics();
    let respawns = a.hooks.worker_respawns() + b.hooks.worker_respawns();
    let quarantined = a.hooks.quarantined_workers() + b.hooks.quarantined_workers();
    let workers = a.hooks.num_workers() + b.hooks.num_workers();
    let converged = phases.recovered()
        && pool_balanced
        && quarantined == 0
        && panics >= 1
        && respawns == panics;

    WorkerFaultReport {
        cfg,
        phases,
        panics,
        respawns,
        quarantined,
        workers,
        pool_balanced,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            baseline_us: 1_500_000,
            fault_us: 1_500_000,
            settle_us: 1_500_000,
            recovery_us: 3_000_000,
            send_interval_us: 4_000,
            payload_bytes: 256,
            step_us: 1_000,
        }
    }

    #[test]
    fn soak_converges_after_fault_window() {
        let r = run(short_cfg(11));
        // The fault really bit: goodput collapsed during the window and
        // parks/drops were recorded somewhere in the stack.
        assert!(
            r.phases.tallies[1].goodput_per_sec < 0.8 * r.phases.tallies[0].goodput_per_sec,
            "fault had no effect: {r:?}"
        );
        assert!(r.dir_chaos.outages + r.mkd_chaos.outages > 0);
        assert!(r.out_park.parked + r.in_park.parked > 0, "{r:?}");
        // Bounded: the queue never exceeded its capacity.
        assert!(r.out_park.peak_depth <= 64 && r.in_park.peak_depth <= 64);
        // And the system came back.
        assert!(r.converged, "no convergence: {r:?}");
        assert_eq!(r.final_depths, (0, 0));
        assert!(r.breaker_closed);
        assert_eq!(r.phases.verdict_loss, 0, "{r:?}");
        assert!(r.phases.recovery_ratio >= 0.9, "{r:?}");
    }

    #[test]
    fn soak_is_deterministic_for_a_seed() {
        let one = run_soak(short_cfg(23), Some(0));
        let two = run_soak(short_cfg(23), Some(0));
        assert_eq!(
            one.report.to_json(),
            two.report.to_json(),
            "same seed must reproduce byte-identically"
        );
        assert_eq!(
            one.trace_json, two.trace_json,
            "flow trace must be byte-identical per seed"
        );
    }

    #[test]
    fn trace_follows_flow_and_annotates_faults() {
        let out = run_soak(short_cfg(11), Some(0));
        let trace = out.trace_json.expect("tracing was requested");
        // The sampled flow shows its whole life: tx classify/seal/wire,
        // rx open/deliver, plus the fault-window park-and-release arc.
        for kind in [
            "classify", "seal", "wire", "open", "deliver", "parked", "released",
        ] {
            assert!(
                trace.contains(&format!("\"kind\":\"{kind}\"")),
                "trace missing {kind} span"
            );
        }
        // Both hosts contributed legs to the traced flow.
        assert!(trace.contains("\"host\":\"10.77.0.1\""));
        assert!(trace.contains("\"host\":\"10.77.0.2\""));
        // Global conditions are annotated on the same clock.
        assert!(trace.contains("\"kind\":\"fault_start\""));
        assert!(trace.contains("\"kind\":\"fault_end\""));
        assert!(trace.contains("\"detail\":\"directory_outage\""));
        assert!(trace.contains("\"kind\":\"breaker_transition\""));

        // Health timeline: one report per phase, full condition set,
        // breaker degraded at the end of the fault window.
        let health = &out.report.phases.health;
        assert_eq!(health.len(), 4);
        assert!(health.iter().all(|(_, h)| h.conditions.len() == 7));
        assert_eq!(health[1].0, "fault");
        assert_eq!(
            health[1]
                .1
                .condition(fbs_obs::ConditionKind::BreakerOpen)
                .unwrap()
                .status,
            fbs_obs::HealthStatus::Degraded
        );
        // Health reads each phase's own delta, so the fault window's
        // park overflow and breaker churn do not smear into the phases
        // around it: baseline is clean and recovery converges to Ok.
        assert_eq!(health[0].1.overall, fbs_obs::HealthStatus::Ok);
        assert_eq!(health[3].1.overall, fbs_obs::HealthStatus::Ok);
        // Per-phase deltas: the fault phase is where breakers opened.
        assert_eq!(out.deltas.len(), 4);
        assert!(out.deltas[1].1.counter("breaker.opened") > 0);
        // The final snapshot renders as Prometheus text.
        let prom = fbs_obs::prom::render(&out.snapshot);
        assert!(prom.contains("# TYPE fbs_park_parked counter"), "{prom}");
    }

    #[test]
    fn worker_fault_scenario_recovers() {
        let r = run_worker_fault(short_cfg(11));
        // The faults actually bit: at least one worker panicked (and
        // was respawned), each costing its datagram a counted reject.
        assert!(r.panics >= 1, "no worker panic fired: {r:?}");
        assert_eq!(r.respawns, r.panics, "every panic must respawn");
        assert!(
            r.phases.tallies[1].send_rejected >= r.panics,
            "panic rejects surface as send errors: {r:?}"
        );
        // Fault containment: no quarantine under the respawn policy,
        // nothing leaked or lost.
        assert_eq!(r.quarantined, 0, "{r:?}");
        assert_eq!(r.phases.verdict_loss, 0, "datagrams vanished: {r:?}");
        assert!(r.pool_balanced, "pool ledger imbalanced: {r:?}");
        // And the runtime came back: rebuilt shard state re-warmed and
        // goodput recovered.
        assert!(r.phases.recovery_ratio >= 0.9, "{r:?}");
        assert!(r.converged, "{r:?}");
        // Health narrative: clean outside the fault phase, and nobody
        // quarantined in any phase. (A supervised respawn leaves no
        // condition behind, so the fault phase is not asserted on.)
        let health = &r.phases.health;
        assert_eq!(health.len(), 4);
        for phase in [0, 2, 3] {
            assert_eq!(health[phase].1.overall, fbs_obs::HealthStatus::Ok);
        }
        for (_, report) in health {
            let wq = report.condition(fbs_obs::ConditionKind::WorkerQuarantined);
            assert_eq!(wq.unwrap().status, fbs_obs::HealthStatus::Ok);
        }
    }

    #[test]
    fn worker_fault_report_is_deterministic() {
        // The full committed document — keying soak with the
        // worker-fault scenario embedded — must be byte-identical
        // across two same-seed runs, panics and all.
        let full = |seed| {
            let mut report = run(short_cfg(seed));
            report.worker_fault = Some(run_worker_fault(short_cfg(seed)));
            report.to_json()
        };
        assert_eq!(full(23), full(23), "same seed must reproduce bytes");
    }

    #[test]
    fn report_json_is_well_formed() {
        let json = run(short_cfg(5)).to_json();
        assert!(json.contains("\"bench\": \"chaos\""));
        assert!(json.contains("\"recovery_ratio\""));
        assert!(json.contains("\"converged\""));
        assert!(json.contains("\"health\""));
        assert!(json.contains("\"breaker_open\""));
        assert!(json.contains("breaker.time_closed_us"));
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }
}
