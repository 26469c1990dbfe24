//! The `ip_fbs.c` analogue: FBS processing hooked into the stack.
//!
//! Output (§7.2): between IP output processing and fragmentation, the
//! datagram is classified into a flow, protected, and the security flow
//! header is inserted between the IP header and the transport payload;
//! the IP length fields are fixed up. "To IP, the FBS header is simply a
//! part of the higher layer header" — forwarding routers see nothing
//! strange.
//!
//! Input: between reassembly and dispatch, the FBS header is removed and
//! verified; failures drop the datagram before it reaches the transport.
//!
//! # Shard owners, run to completion
//!
//! Flow state lives in a fixed power-of-two array of `Shard`s. A shard
//! owns everything a flow touches on the hot path — its slice of the
//! combined FST/TFKC (§7.2), its RFKC slice, its [`FlowCodec`](fbs_core::FlowCodec)
//! (confounder stream + seal/open), and its parking queues. Shards are
//! grouped under `W = workers` **owners** (owner `w` holds shards
//! `{ si : si % W == w }`), each one mutex. No thread is ever started:
//! FBS runs inside `ip_output()`/`ip_input()`, in the caller's context,
//! as in §7.2.
//!
//! [`SecurityHooks::process_batch`] runs the caller's batch **in
//! place**: it stages the datagrams beside a fail-closed verdict ledger
//! by submission index, groups the indices by owner, then locks each
//! owner with work, runs its share on the calling thread, and unlocks;
//! the ledger is the return value. Whoever holds an owner's lock *is*
//! that worker: clones of a handle on other threads meet only where
//! their batches touch the same owner, which is the parallelism
//! `workers` buys; the control plane (flush, occupancy, park
//! statistics, release) takes the same lock the same way.
//!
//! * **Transmit** datagrams shard by `crc32(five_tuple) % N`. Each
//!   shard's [`SflAllocator`](fbs_core::SflAllocator) is strided so every sfl it issues is
//!   congruent to the shard index mod `N` — the same `sfl % N` function
//!   the receive side partitions by.
//! * **Receive** datagrams shard by the wire sfl (first 8 payload
//!   bytes) mod `N`, so a flow's RFKC entries stay in one shard.
//! * Per-shard tables keep the FULL configured geometry (`fst_size`,
//!   RFKC sets × assoc): a shard only ever sees tuples hashing to
//!   its index, so dividing the tables by `N` would collapse them. The
//!   combined table allocates its slots a chunk at a time, on first
//!   use, so a shard pays for the geometry its flows touch.
//!
//! ## Buffer economy
//!
//! The caller's [`BufferPool`] comes along under the owner lock (the
//! caller is the thread holding it): the datapath `take`s a buffer when
//! it seals or opens into one and `put`s each spent payload straight
//! back, so the default pool covers a burst of any size. The staging
//! vectors are kept per handle: no allocation per datagram.
//!
//! ## Ordering and determinism
//!
//! A datagram's bytes depend only on its own shard's codec state, which
//! advances in per-shard submission order (the grouping is stable), so
//! outputs are bit-identical for every `workers` and per-flow FIFO is
//! preserved regardless of inter-shard interleaving.
//!
//! **Lock-ordering rules** (see also `fbs_core::concurrent`): never two
//! owner locks at once; an owner lock is outermost (held across a flow
//! birth's keying calls; its other takers want the same shards); inside
//! the keying service the order is mkd → mkc-shard; [`Published`] reads
//! nest inside anything (leaf).
//!
//! Counts follow the locks: owner `w`'s shards (codec, combined table,
//! RFKC), its verdict ledger and its supervisor count into owner `w`'s
//! [`CounterBlock`], written only under owner `w`'s lock; the keying
//! service keeps one block under its `mkd` mutex and one per MKC shard
//! mutex. One writer per block makes every count a plain load and store
//! — no locked instruction on the datapath — and a stats scrape never
//! blocks a batch in flight: the accessors sum the blocks, and an
//! attached registry reads the same cells. The registry's per-owner
//! rows (`hooks.worker.<w>.*`) and per-shard memory rows
//! (`mem.shard.<i>.*`, `cache.<kind>.resident_bytes`) are derived at
//! scrape time from the owner blocks and the shard [`MemoryBudget`]s
//! (the [`ScrapeSource`] impl below): nothing is pushed into it.
//!
//! # Fault containment
//!
//! The runtime survives its own failures; a panic in the datapath never
//! poisons the endpoint or unwinds into the caller.
//!
//! * **Supervision.** Everything done under an owner lock runs inside
//!   one `catch_unwind`, the batch in flight and its cursor outside it:
//!   the datagram that panicked gets a `Reject` (and the pool whatever
//!   the unwind freed, so its ledger closes), and the rest of the batch
//!   is finished after recovery — zero verdict loss.
//! * **Respawn, then quarantine.** A panicked owner's shards are
//!   rebuilt fresh (soft state re-warms through ordinary FST/RFKC
//!   misses — the paper's §5.3 argument; parked datagrams are carried
//!   over, and rebuilt sfl allocators are generation-salted while
//!   preserving `sfl ≡ shard (mod N)`). After a fixed budget of three
//!   respawns the owner is **quarantined**: parked buffers are
//!   recycled, and it keeps answering the control plane but rejects
//!   every datagram — fail-closed on its shards, invisible to the
//!   others.
//! * **Typed errors, no runtime panics.** Control calls return
//!   [`RuntimeError`], and `process_batch` always returns, fail-closed:
//!   a ledger entry reads `Reject` until its item writes a final
//!   verdict, and an owner that cannot finish has its share rejected. An
//!   [`OwnerFaultInjector`] (see `fbs-chaos`'s `OwnerChaos`) can
//!   schedule owner panics deterministically on virtual time.
//!
//! # Graceful degradation
//!
//! Keying can fail *transiently* — a certificate-directory outage, an
//! MKD upcall failure, an open circuit breaker. The flow policy's
//! [`KeyUnavailableVerdict`](fbs_core::KeyUnavailableVerdict) decides what happens to the datagram:
//!
//! * **fail-closed** (default, the paper's behaviour): drop it;
//! * **fail-open**: pass it unprotected — only honoured when the
//!   configuration does not request confidentiality, and never for a
//!   framed-but-unverifiable input datagram;
//! * **park**: hold it in a bounded [`ParkingQueue`](fbs_core::ParkingQueue) and retry when
//!   [`Host::poll`](fbs_net::Host::poll) drives
//!   [`SecurityHooks::release_output`]/[`release_input`](SecurityHooks::release_input).
//!   Entries carry an absolute deadline from their first park, so a
//!   sustained outage degrades into ordinary datagram loss instead of
//!   unbounded memory growth.
//!
//! Cryptographic verdicts (bad MAC, stale timestamp, malformed input)
//! never degrade: they are final rejections regardless of policy.
//!
//! Every early exit that consumed a pool-drawn payload recycles it: the
//! reject paths, park-queue overflow, parked-entry expiry, and the
//! release loops all route buffers back to the caller's [`BufferPool`].

mod config;
mod datapath;
mod owner;
#[cfg(test)]
mod tests;

pub use config::{IpHookStats, IpMappingConfig};

use crate::combined::CombinedStats;
use datapath::Shard;
use fbs_core::breaker::BreakerState;
use fbs_core::mkd::MkdStats;
use fbs_core::protocol::EndpointStats;
use fbs_core::{
    BudgetSnapshot, BufferPool, Clock, FbsConfig, KeyingService, MasterKeyDaemon, MemoryBudget,
    OwnerFaultInjector, ParkStats, Principal, Published, RuntimeError,
};
use fbs_net::ip::Proto;
use fbs_net::{Datagram, HookOutcome, Ipv4Header, SecurityHooks};
use fbs_obs::{
    CacheKind, Counter, CounterBlock, Direction, Event, MetricsRegistry, MetricsSnapshot,
    ScrapeSource, Stage, StageTimer,
};
use owner::{Flight, Owner, Run};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Cached per-worker parking-queue depths, refreshed under the owner's
/// lock after every batch/release. Lets `release_output`/`_input`
/// (driven every [`fbs_net::Host::poll`]) skip the owner lock entirely
/// when nothing is parked.
#[derive(Default)]
struct ParkDepths {
    out: AtomicUsize,
    inp: AtomicUsize,
}

/// State shared by every clone of [`FbsIpHooks`]: the keying service,
/// the published config snapshot, the counter blocks, and the shard
/// owners.
struct HookShared {
    keying: KeyingService,
    local: Principal,
    clock: Arc<dyn Clock>,
    /// `cfg.fbs` as at construction (algorithms, key derivation, cache
    /// geometry), fixed like the shard geometry: the codecs are built
    /// from it, and it is kept whole so a panicked worker's shards can
    /// be rebuilt from first principles.
    fbs: FbsConfig,
    /// Base codec seed (pre shard/generation mixing).
    codec_seed: u64,
    /// Base sfl allocator seed (pre shard/generation mixing).
    sfl_seed: u64,
    cfg: Published<IpMappingConfig>,
    /// Owner `w`'s block, written only under `owners[w]`'s lock: its
    /// verdicts, supervisor panics and respawns, and its shards' codecs,
    /// combined tables and RFKCs count here.
    blocks: Box<[Arc<CounterBlock>]>,
    /// Workers that exhausted their respawn budget and now reject
    /// everything.
    quarantined: Box<[AtomicBool]>,
    /// Deterministic fault injector for chaos runs (`None` in
    /// production; swap-on-update like `cfg`).
    chaos: Published<Option<Arc<dyn OwnerFaultInjector>>>,
    obs: Published<Option<Arc<MetricsRegistry>>>,
    /// Shard / worker geometry (fixed at construction).
    n_shards: usize,
    n_workers: usize,
    /// Owner `w` holds shards `{ si : si % n_workers == w }` at local
    /// index `si / n_workers`. Whoever holds an owner's lock — a batch,
    /// a control call — *is* that worker; never two at once.
    owners: Box<[Mutex<Owner>]>,
    /// Per-worker cached parking-queue depths.
    park_depths: Box<[ParkDepths]>,
    /// One [`MemoryBudget`] per shard, stable across worker respawns
    /// (the shard clones the ledger handle; a rebuild `reset()`s it so
    /// the lost generation's charges cannot leak into the fresh one).
    /// Readable from any thread for health probes and gauges.
    budgets: Box<[MemoryBudget]>,
}

impl HookShared {
    fn obs_handle(&self) -> Option<Arc<MetricsRegistry>> {
        (*self.obs.load()).clone()
    }

    /// Every block of the endpoint summed — the owners' and the keying
    /// service's: what each statistics view reads.
    fn total(&self) -> CounterBlock {
        CounterBlock::sum(self.blocks.iter().chain(self.keying.blocks()).map(|b| &**b))
    }
}

/// What a registry derives from the hooks at scrape time, summed with
/// every other attached host's rows: each owner's load off its block,
/// and each shard's memory off its ledger.
impl ScrapeSource for HookShared {
    fn contribute(&self, snap: &mut MetricsSnapshot) {
        for (w, block) in self.blocks.iter().enumerate() {
            let row = |field| format!("hooks.worker.{w}.{field}");
            snap.add(&row("batches"), block.counter(Counter::WorkerBatches));
            snap.add(&row("busy_ns"), block.counter(Counter::WorkerBusyNs));
            snap.add(&row("panics"), block.counter(Counter::WorkerPanics));
        }
        for (si, budget) in self.budgets.iter().enumerate() {
            budget.snapshot().contribute(si, snap);
        }
    }
}

fn record(obs: &Option<Arc<MetricsRegistry>>, event: Event) {
    if let Some(reg) = obs {
        reg.record(event);
    }
}

/// FBS security hooks for an IP-like stack. Cheaply cloneable: clones
/// share all flow state, so keep a handle for statistics after
/// installing one into a [`fbs_net::Host`] — and clones may be driven
/// from different threads; they serialise per shard owner.
pub struct FbsIpHooks {
    shared: Arc<HookShared>,
    /// The batch in flight. Never shared — each clone starts its own
    /// (empty) one.
    run: Run,
}

impl Clone for FbsIpHooks {
    fn clone(&self) -> Self {
        FbsIpHooks {
            shared: Arc::clone(&self.shared),
            run: Run::default(),
        }
    }
}

impl FbsIpHooks {
    /// IP-mapping hooks for the host `local`, the arguments of
    /// [`FbsEndpoint::new`](fbs_core::FbsEndpoint::new) with the mapping's
    /// configuration in place of the endpoint's: the FBS configuration
    /// is `cfg.fbs`. `mkd` moves into the shared [`KeyingService`], and
    /// each shard gets its own [`FlowCodec`](fbs_core::FlowCodec) and
    /// full-geometry table slices, under one of `workers` owners. `seed`
    /// is the host's: mixed with the local address it seeds the
    /// confounder streams and randomises the sfl counters' initial
    /// values (§5.3). Starts no thread.
    pub fn new(
        local: Principal,
        cfg: IpMappingConfig,
        clock: Arc<dyn Clock>,
        seed: u64,
        mkd: MasterKeyDaemon,
    ) -> Self {
        let mut cfg = cfg;
        let n = cfg.shards.max(1).next_power_of_two();
        cfg.shards = n;
        let workers = cfg.workers.clamp(1, n);
        cfg.workers = workers;
        let budget_bytes = cfg.shard_budget_bytes;
        let fbs = cfg.fbs.clone();
        let keying = KeyingService::new(mkd, fbs.mkc_slots, n);
        // The local address as a big-endian integer: hosts built from
        // one seed draw distinct confounders and sfls.
        let addr = local
            .as_bytes()
            .iter()
            .fold(0u64, |h, &b| h << 8 | b as u64);
        let mut shared = HookShared {
            keying,
            local,
            clock,
            fbs,
            codec_seed: seed ^ (addr << 16) ^ 0x5DEECE66D,
            sfl_seed: seed.rotate_left(17) ^ addr,
            cfg: Published::new(cfg),
            blocks: (0..workers).map(|_| Arc::default()).collect(),
            quarantined: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            chaos: Published::new(None),
            obs: Published::new(None),
            n_shards: n,
            n_workers: workers,
            owners: Box::new([]),
            park_depths: (0..workers).map(|_| ParkDepths::default()).collect(),
            budgets: (0..n)
                .map(|_| MemoryBudget::bounded(budget_bytes))
                .collect(),
        };
        // Generation 0: the same shards a post-panic rebuild derives, so
        // supervised respawns change nothing but the soft-state seeds.
        let mut per_worker: Vec<Vec<Shard>> = (0..workers).map(|_| Vec::new()).collect();
        for i in 0..n {
            per_worker[i % workers].push(shared.build_shard(i, 0));
        }
        shared.owners = per_worker
            .into_iter()
            .map(|shards| Mutex::new(Owner::new(shards)))
            .collect();
        FbsIpHooks {
            shared: Arc::new(shared),
            run: Run::default(),
        }
    }

    /// Attach a metrics registry: it reads each of the hooks' counter
    /// blocks once (lifetime counts, pre-attach included) and derives
    /// the per-owner and per-shard rows from the hooks while they live,
    /// the hooks emit entry/exit events, and the registry cascades into
    /// every shard's codec, combined table and RFKC (under each owner's
    /// lock), plus the shared keying service, for their events.
    pub fn attach_obs(&self, registry: Arc<MetricsRegistry>) -> Result<(), RuntimeError> {
        for block in self.shared.blocks.iter() {
            registry.attach(Arc::clone(block));
        }
        registry.attach_source(Arc::downgrade(&self.shared) as Weak<HookShared>);
        self.shared.keying.attach_obs(Arc::clone(&registry));
        for w in 0..self.shared.n_workers {
            self.shared.with_owner(w, |st| st.attach_obs(&registry))?;
        }
        self.shared.obs.store(Arc::new(Some(registry)));
        Ok(())
    }

    /// Publish a modified configuration snapshot (swap-on-update): in-
    /// flight batches finish under the snapshot they loaded; the next
    /// batch sees the new one. Only policy-ish fields take effect —
    /// geometry (`shards`, `workers`, `fst_size`, cache
    /// dimensions, park capacity) and the FBS configuration `fbs` are
    /// read once, at construction.
    pub fn update_config(&self, mutate: impl FnOnce(&mut IpMappingConfig)) {
        let mut next = (*self.shared.cfg.load()).clone();
        mutate(&mut next);
        self.shared.cfg.store(Arc::new(next));
    }

    /// Hook-level statistics — lock-free, read off the summed counter
    /// blocks like every accessor below.
    pub fn stats(&self) -> IpHookStats {
        IpHookStats::read(&self.shared.total())
    }

    /// Endpoint statistics (sends, drops...) — lock-free.
    pub fn endpoint_stats(&self) -> EndpointStats {
        EndpointStats::read(&self.shared.total())
    }

    /// RFKC statistics — lock-free.
    pub fn rfkc_stats(&self) -> fbs_core::CacheStats {
        self.shared.total().cache(CacheKind::Rfkc)
    }

    /// MKD statistics (upcalls = master key computations) — lock-free.
    pub fn mkd_stats(&self) -> MkdStats {
        MkdStats::read(&self.shared.total())
    }

    /// Combined-table statistics (the §7.2 send path) — lock-free.
    /// Always `Some`: the `Option` is kept for callers written when the
    /// path was selectable.
    pub fn combined_stats(&self) -> Option<CombinedStats> {
        Some(CombinedStats::read(&self.shared.total()))
    }

    /// Number of flow-state shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shared.n_shards
    }

    /// Number of shard owners.
    pub fn num_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// Always 0: there is no ring to stall on. Kept because the frozen
    /// `benchmark/` reads it; goes with its `hooks.ring_stalls` row
    /// (ROADMAP, `benchmark`-archetype follow-up).
    pub fn ring_stalls(&self) -> u64 {
        0
    }

    /// Per-shard active-flow occupancy at `now_secs` (takes each owner's
    /// lock in turn — a control-plane reader, not a hot-path one).
    pub fn shard_occupancy(&self, now_secs: u64) -> Result<Vec<usize>, RuntimeError> {
        let mut occ = vec![0usize; self.shared.n_shards];
        for w in 0..self.shared.n_workers {
            let shared = &*self.shared;
            let rows = shared.with_owner(w, |st| st.occupancy(shared, w, now_secs))?;
            for (si, active) in rows {
                occ[si] = active;
            }
        }
        Ok(occ)
    }

    /// Number of currently-active outgoing flows (sums the shards).
    pub fn active_flows(&self, now_secs: u64) -> Result<usize, RuntimeError> {
        Ok(self.shard_occupancy(now_secs)?.iter().sum())
    }

    /// Drop all flow-key soft state (the combined FST/TFKC and the
    /// RFKC) — a mid-flow cache flush. Always safe:
    /// soft state is recomputed on demand (§5.3); the next datagram per
    /// flow pays a re-derivation.
    pub fn flush_flow_keys(&self) -> Result<(), RuntimeError> {
        for w in 0..self.shared.n_workers {
            self.shared.with_owner(w, |st| st.flush_keys())?;
        }
        Ok(())
    }

    /// Invalidate the cached master key for one peer (forces the next
    /// datagram to/from them through the MKD upcall).
    pub fn forget_peer(&self, peer: &Principal) {
        self.shared.keying.forget_peer(peer);
    }

    /// Always `Ok`: `process_batch` is synchronous and nothing is ever
    /// buffered inside the runtime. Kept because the frozen `benchmark/`
    /// calls it before its ledger check (ROADMAP, `benchmark`-archetype
    /// follow-up).
    pub fn drain(&self) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Current (output, input) parking-queue depths, summed over the
    /// workers' cached per-shard totals — lock-free.
    pub fn parked_depths(&self) -> (usize, usize) {
        let mut out = 0;
        let mut inp = 0;
        for d in self.shared.park_depths.iter() {
            out += d.out.load(Ordering::Acquire);
            inp += d.inp.load(Ordering::Acquire);
        }
        (out, inp)
    }

    /// Accumulated (output, input) parking counters, read off the owner
    /// blocks, beside each direction's deepest queue (takes each owner's
    /// lock in turn).
    pub fn park_stats(&self) -> Result<(ParkStats, ParkStats), RuntimeError> {
        let (mut out, mut inp) = (0, 0);
        for w in 0..self.shared.n_workers {
            let (o, i) = self.shared.with_owner(w, |st| st.park_peaks())?;
            (out, inp) = (out.max(o), inp.max(i));
        }
        let counts = self.shared.total();
        Ok((
            ParkStats::read(&counts, Direction::Output, out as u64),
            ParkStats::read(&counts, Direction::Input, inp as u64),
        ))
    }

    /// The MKD circuit breaker's state for `peer`, if resilience is
    /// configured and the peer has been keyed at least once.
    pub fn breaker_state(&self, peer: &Principal) -> Option<BreakerState> {
        self.shared.keying.breaker_state(peer)
    }

    /// Release loop shared by both directions: skip workers whose cached
    /// park depth is zero (the common case — one atomic load per worker
    /// per poll), otherwise run the release under the owner's lock, on
    /// the caller's pool.
    fn release_dir(
        &self,
        dir: Direction,
        now_us: u64,
        pool: &mut BufferPool,
    ) -> Vec<(Ipv4Header, Vec<u8>)> {
        let mut ready = Vec::new();
        for w in 0..self.shared.n_workers {
            let depths = &self.shared.park_depths[w];
            let depth = match dir {
                Direction::Output => depths.out.load(Ordering::Acquire),
                Direction::Input => depths.inp.load(Ordering::Acquire),
            };
            if depth == 0 {
                continue;
            }
            // A release that panicked under its supervisor simply
            // contributes nothing this poll — the release loop is
            // best-effort by contract, so errors are skipped, not
            // propagated.
            let shared = &*self.shared;
            let released = shared.with_owner(w, |st| st.release(shared, w, dir, now_us, pool));
            ready.extend(released.unwrap_or_default());
        }
        ready
    }

    /// Install (or clear) a deterministic owner-fault injector. Chaos
    /// only: the production hot path pays one published-pointer load
    /// per owner per batch.
    pub fn set_owner_chaos(&self, injector: Option<Arc<dyn OwnerFaultInjector>>) {
        self.shared.chaos.store(Arc::new(injector));
    }

    /// Panics caught by the supervisor — lock-free.
    pub fn worker_panics(&self) -> u64 {
        self.shared.total().counter(Counter::WorkerPanics)
    }

    /// Supervised worker respawns (shard state rebuilt in place) —
    /// lock-free.
    pub fn worker_respawns(&self) -> u64 {
        self.shared.total().counter(Counter::WorkerRespawns)
    }

    /// Always `(0, 0)`: nothing is ever shed. Kept because the frozen
    /// `benchmark/` reads it; goes with its `hooks.shed_rejected` row
    /// (ROADMAP, `benchmark`-archetype follow-up).
    pub fn shed_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Live soft-state memory pressure for health evaluation:
    /// `(worst_shard_used_bytes, per_shard_limit_bytes)`. The worst
    /// single shard (not a sum) for the same reason park depth is
    /// per-queue: one shard in an eviction storm matters even while its
    /// siblings are idle. `(_, 0)` means unbudgeted.
    pub fn mem_bytes(&self) -> (u64, u64) {
        let mut worst = 0u64;
        let mut limit = 0u64;
        for b in self.shared.budgets.iter() {
            worst = worst.max(b.used_bytes());
            limit = limit.max(b.limit_bytes());
        }
        (worst, limit)
    }

    /// Per-shard budget ledgers, indexed by shard — lock-free reads of
    /// the same atomics the shards charge.
    pub fn shard_budgets(&self) -> Vec<BudgetSnapshot> {
        self.shared.budgets.iter().map(|b| b.snapshot()).collect()
    }

    /// Number of workers currently quarantined (failing closed).
    pub fn quarantined_workers(&self) -> usize {
        self.shared
            .quarantined
            .iter()
            .filter(|q| q.load(Ordering::Acquire))
            .count()
    }
}

impl SecurityHooks for FbsIpHooks {
    fn covers(&self, proto: u8) -> bool {
        // The implementation covers TCP(our MRT) and UDP; the bypass
        // protocol always escapes FBS (Fig. 5). Raw IP is covered as
        // host-level flows only when the footnote-10 extension is on.
        match Proto::from_number(proto) {
            Proto::Mrt | Proto::Udp => true,
            Proto::Bypass => false,
            Proto::Other(_) => self.shared.cfg.load().cover_raw_ip,
        }
    }

    /// Worst-case payload growth: the security flow header exactly as
    /// the codecs frame it — from the construction-time `cfg.fbs` they
    /// were built from — and up to 7 bytes of DES block padding.
    fn max_overhead(&self) -> usize {
        let padding = if self.shared.cfg.load().encrypt { 7 } else { 0 };
        self.shared.fbs.wire_header_len() + padding
    }

    /// The single processing entry point (the scalar `output`/`input`
    /// trait defaults wrap it): stage the batch and its verdict ledger
    /// ONCE, run each owner's share under its lock on this thread with
    /// the caller's pool, and return the ledger — already in submission
    /// order.
    fn process_batch(
        &mut self,
        dir: Direction,
        batch: Vec<Datagram>,
        pool: &mut BufferPool,
        now_us: u64,
    ) -> Vec<(Ipv4Header, HookOutcome)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let shared = &*self.shared;
        let obs = shared.obs_handle();
        let timer = obs.as_ref().map(|_| StageTimer::start());
        let mut out = Vec::with_capacity(batch.len());
        self.run.fill(shared, dir, batch, &mut out);
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Partition, timer.elapsed_ns());
        }
        let mut flight = Flight {
            dir,
            now_us,
            run: &mut self.run,
            out: &mut out,
            pool,
        };
        for w in 0..shared.n_workers {
            if flight.run.has_work(w) {
                // This thread is worker `w` while it holds the lock.
                owner::run_inline(shared, w, &mut shared.owners[w].lock(), &mut flight);
            }
        }
        out
    }

    /// Release loop for parked output datagrams; runs under each owner's
    /// lock. The fast path (nothing parked) is one atomic load per
    /// worker.
    fn release_output(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.release_dir(Direction::Output, now_us, pool)
    }

    /// Release loop for parked input datagrams, mirroring
    /// [`Self::release_output`].
    fn release_input(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.release_dir(Direction::Input, now_us, pool)
    }
}
