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
//! # Thread-per-core worker runtime
//!
//! Flow state lives in a fixed power-of-two array of [`Shard`]s. A shard
//! owns everything a flow touches on the hot path — its slice of the
//! combined FST/TFKC (§7.2), its RFKC slice, its [`FlowCodec`](fbs_core::FlowCodec)
//! (confounder stream + seal/open), and its parking queues. Shards are
//! **owned outright** by long-lived run-to-completion worker threads
//! (worker `w` of `W >= 2` owns shards `{ si : si % W == w }`): no mutex
//! guards a shard, because exactly one thread can ever reach it.
//!
//! [`SecurityHooks::process_batch`] is the ingress/egress stage. It
//! partitions the batch into per-worker sub-batches **once**, ships each
//! over a bounded [`SpscRing`](fbs_core::SpscRing), and re-threads the replies into
//! submission order. Each handle owns a private [`Lane`] (one SPSC ring
//! pair per worker), so the single-producer side of every ring is
//! enforced by `&mut self`; clones start lane-less and lazily register
//! their own. The datagram path therefore acquires **zero** shard locks:
//! the only locking left is control-plane (lane registry, config
//! snapshot swap, keying inserts inside [`KeyingService`], and the
//! control mailboxes used by drain/flush/occupancy/release).
//!
//! * **Transmit** datagrams shard by `crc32(five_tuple) % N`. Each
//!   shard's [`SflAllocator`](fbs_core::SflAllocator) is strided so every sfl it issues is
//!   congruent to the shard index mod `N` — the same `sfl % N` function
//!   the receive side partitions by.
//! * **Receive** datagrams shard by the wire sfl (first 8 payload
//!   bytes) mod `N`, so a flow's RFKC entries stay in one shard.
//! * Per-shard tables keep the FULL configured geometry (`fst_size`,
//!   RFKC sets × assoc): a shard only ever sees tuples hashing to
//!   its index, so dividing the tables by `N` would collapse them.
//!
//! ## Buffer economy
//!
//! The caller's [`BufferPool`] never crosses a thread: `process_batch`
//! draws one **supply** buffer per datagram (`take_n_into`) and ships
//! them inside the sub-batch; workers seal/open into supplies and push
//! every consumed or unused buffer onto the sub-reply's **recycle** list,
//! which the ingress thread drains back into the pool (`put_all`). All
//! sub-batch/reply vectors round-trip producer↔worker, so steady-state
//! batching allocates nothing per datagram on either side.
//!
//! ## Ordering and determinism
//!
//! `process_batch` is synchronous at batch granularity: it waits for
//! every sub-reply before returning, so all worker side effects
//! happen-before the caller sees the outcomes. A datagram's bytes depend
//! only on its own shard's codec state, which advances in per-shard
//! submission order (one sub-batch per worker, scanned in order), so
//! outputs are bit-identical to the single-threaded path and per-flow
//! FIFO is preserved regardless of inter-shard interleaving.
//!
//! ## Run-to-completion mode (`workers = 1`)
//!
//! One worker has nobody to share with, so nothing is handed off:
//! [`FbsIpHooks::new`] spawns no thread, and the worker's state (every
//! shard, its deferred MACs, its respawn count) sits behind ONE mutex.
//! `process_batch` partitions, draws supplies, takes the lock and
//! finishes the sub-batch on the calling thread — FBS inside
//! `ip_output()`/`ip_input()`, as in §7.2 — with no lane, ring, wake-up,
//! wait or shed deadline. Whoever holds the lock *is* the shard owner:
//! clones on other threads serialise on it, the control plane answers
//! its own message under it, and `drain` has nothing to drain. The
//! supervisor is the one a worker thread runs under, so a panic still
//! costs one `Reject`, respawns or quarantines, and never unwinds into
//! the caller. Bytes, verdicts and counters equal the threaded modes';
//! only `ring_enqueue`/`ring_wait`, `hooks.ring_stalls` and
//! `hooks.shed.*` never move (`shed_deadline_us` and the
//! `ring_saturated` chaos tap have no ring to act on).
//!
//! **Lock-ordering rules** (see also `fbs_core::concurrent`): the
//! run-to-completion lock is outermost (held across a flow birth's
//! keying calls; its other takers want the same shards); inside the
//! keying service the order is mkd → mkc-shard; [`Published`] reads
//! nest inside anything (leaf). Worker control mailboxes are leaves: a
//! worker never sends control messages, only answers them.
//!
//! All hook/endpoint/cache counters are lock-free atomics shared across
//! shards, so a stats scrape never blocks a batch in flight.
//!
//! # Fault containment
//!
//! The runtime survives its own failures; a worker panic never poisons
//! the endpoint.
//!
//! * **In-thread supervision.** Each worker thread runs its loop inside
//!   `catch_unwind`. The thread never dies on a supervised panic, so
//!   rings, mailboxes, and thread handles stay valid and
//!   `workers_alive` only moves on real shutdown. The sub-batch being
//!   processed lives in a cursor *outside* the unwind boundary: the
//!   datagram that panicked gets a `Reject` verdict (with replacement
//!   buffers covering whatever the unwind freed, so the producer's
//!   pool ledger stays balanced), and the rest of the sub-batch is
//!   finished after recovery — zero verdict loss.
//! * **Respawn or quarantine** ([`WorkerFaultPolicy`]). Under `Respawn`
//!   the worker rebuilds its shards fresh (soft state re-warms through
//!   ordinary FST/RFKC misses — the paper's §5.3 argument; parked
//!   datagrams are carried over, and rebuilt sfl allocators are
//!   generation-salted while preserving `sfl ≡ shard (mod N)`). After
//!   `max_respawns`, or immediately under `FailClosed`, the worker is
//!   **quarantined**: parked buffers are recycled, and it keeps
//!   draining its rings and answering control messages but rejects
//!   every datagram — fail-closed on its shards, invisible to the
//!   others.
//! * **Typed errors, no runtime panics.** Control round-trips return
//!   [`RuntimeError`] (with a deadline, so a wedged worker cannot hang
//!   a stats scrape or `drain`), and `process_batch` fails closed —
//!   missing verdicts become `Reject` — if a worker ever dies past its
//!   supervisor.
//! * **Overload shedding.** A full ingress ring is backpressure, not a
//!   license to spin forever: the producer spins up to
//!   `shed_deadline_us`, then sheds the sub-batch per-datagram
//!   (`Reject`, buffers recycled, counted as `hooks.shed.*`). A
//!   [`WorkerFaultInjector`] (see `fbs-chaos`'s `WorkerChaos`) can
//!   schedule panics/stalls and simulate ring saturation
//!   deterministically on virtual time.
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
#[cfg(test)]
mod tests;
mod worker;

pub use config::{IpHookStats, IpMappingConfig, WorkerFaultPolicy};

use crate::combined::AtomicCombinedStats;
use config::AtomicHookStats;
use datapath::{rx_shard, tuple_for, tx_shard, Shard};
use fbs_core::breaker::BreakerState;
use fbs_core::protocol::EndpointStats;
use fbs_core::{
    AtomicCacheStats, BudgetSnapshot, BufferPool, Clock, FbsConfig, FbsEndpoint, KeyingService,
    MemoryBudget, ParkStats, Principal, Published, RuntimeError, WorkerFaultInjector,
};
use fbs_net::ip::Proto;
use fbs_net::{Datagram, HookOutcome, Ipv4Header, SecurityHooks};
use fbs_obs::{Counter, Direction, Event, MetricsRegistry, Stage, StageTimer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};
use worker::{worker_main, Control, Lane, SubBatch, WorkerState};

/// Deadline for a control round-trip (stats scrape, flush, release):
/// generous against injected stalls, but bounded so a wedged worker
/// surfaces as [`RuntimeError::ControlTimeout`] instead of a hang.
const CONTROL_DEADLINE: Duration = Duration::from_secs(10);

/// Cached per-worker parking-queue depths, refreshed by the owning
/// worker after every sub-batch/release. Lets `release_output`/`_input`
/// (driven every [`fbs_net::Host::poll`]) skip the control round-trip
/// entirely when nothing is parked.
#[derive(Default)]
struct ParkDepths {
    out: AtomicUsize,
    inp: AtomicUsize,
}

/// State shared by every clone of [`FbsIpHooks`] and every worker
/// thread: the keying service, the published config snapshot, the
/// lock-free counter aggregates, and the worker-runtime plumbing.
struct HookShared {
    keying: KeyingService,
    local: Principal,
    clock: Arc<dyn Clock>,
    /// The endpoint-side config (algorithms, key derivation, cache
    /// geometry) the codecs were built from; kept whole so a panicked
    /// worker's shards can be rebuilt from first principles.
    ep_cfg: FbsConfig,
    /// Base codec seed (pre shard/generation mixing).
    codec_seed: u64,
    /// Base sfl allocator seed (pre shard/generation mixing).
    sfl_seed: u64,
    cfg: Published<IpMappingConfig>,
    stats: AtomicHookStats,
    endpoint_stats: Arc<fbs_core::AtomicEndpointStats>,
    rfkc_stats: Arc<AtomicCacheStats>,
    combined_stats: Arc<AtomicCombinedStats>,
    /// Times a producer found a worker's ingress ring full.
    ring_stalls: AtomicU64,
    /// Datagrams rejected by the overload-shedding policy (ring still
    /// full at the shed deadline). Every shed datagram gets a `Reject`
    /// verdict and its buffers recycled — never a silent drop.
    shed_rejected: AtomicU64,
    /// Sub-batches shed whole (the shed granularity: one ring push).
    shed_batches: AtomicU64,
    /// Worker-loop panics caught by the in-thread supervisors.
    worker_panics: AtomicU64,
    /// Supervised respawns (shard state rebuilt, worker resumed).
    worker_respawns: AtomicU64,
    /// Workers that exhausted their respawn budget (or run under
    /// [`WorkerFaultPolicy::FailClosed`]) and now reject everything.
    quarantined: Box<[AtomicBool]>,
    /// Deterministic fault injector for chaos runs (`None` in
    /// production; swap-on-update like `cfg`).
    chaos: Published<Option<Arc<dyn WorkerFaultInjector>>>,
    obs: Published<Option<Arc<MetricsRegistry>>>,
    /// Shard / worker geometry (fixed at construction).
    n_shards: usize,
    n_workers: usize,
    /// Registry of live lanes (control plane: mutated on handle
    /// create/drop only).
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Swap-on-update snapshot of `lanes` for workers to poll without
    /// taking the registry lock.
    lanes_snapshot: Published<Vec<Arc<Lane>>>,
    /// Bumped on every registry change; workers reload the snapshot when
    /// it moves.
    lanes_epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Workers still running their loop; `process_batch` panics rather
    /// than spinning forever if one dies mid-batch.
    workers_alive: AtomicUsize,
    /// Worker thread handles for unparking (set once after spawn).
    threads: OnceLock<Box<[std::thread::Thread]>>,
    /// Per-worker control mailboxes.
    control: Box<[Mutex<mpsc::Sender<Control>>]>,
    /// Run-to-completion mode (`workers == 1`): the one worker's state.
    /// Whoever holds the lock — a batch, a control call — *is* the
    /// worker. `None` when worker threads own the shards.
    inline: Option<Mutex<WorkerState>>,
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

    fn wake_worker(&self, w: usize) {
        if let Some(threads) = self.threads.get() {
            threads[w].unpark();
        }
    }

    fn wake_all(&self) {
        if let Some(threads) = self.threads.get() {
            for t in threads.iter() {
                t.unpark();
            }
        }
    }

    /// Post a control message to worker `w`'s mailbox. `Err` means the
    /// worker thread is gone (its receiver dropped) — possible only
    /// after an unsupervised death, since supervised panics keep the
    /// thread (and its mailbox) alive.
    fn send_control(&self, w: usize, msg: Control) -> Result<(), RuntimeError> {
        self.control[w]
            .lock()
            .send(msg)
            .map_err(|_| RuntimeError::WorkerUnavailable { worker: w })?;
        self.wake_worker(w);
        Ok(())
    }

    /// Synchronous control round-trip to worker `w` with a deadline:
    /// build the message around a fresh reply channel, send, and wait.
    /// A worker that stops answering (stalled, or died between send and
    /// reply) surfaces as a typed error instead of a hang or panic.
    /// Run to completion, the caller answers its own message first.
    fn control_roundtrip<T>(
        &self,
        w: usize,
        make: impl FnOnce(mpsc::Sender<T>) -> Control,
    ) -> Result<T, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        match &self.inline {
            Some(state) => worker::control_inline(self, &mut state.lock(), make(tx)),
            None => self.send_control(w, make(tx))?,
        }
        match rx.recv_timeout(CONTROL_DEADLINE) {
            Ok(v) => Ok(v),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RuntimeError::ControlTimeout { worker: w }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(RuntimeError::WorkerUnavailable { worker: w })
            }
        }
    }
}

fn record(obs: &Option<Arc<MetricsRegistry>>, event: Event) {
    if let Some(reg) = obs {
        reg.record(event);
    }
}

/// Joins the worker threads when the LAST handle drops: sets `shutdown`,
/// wakes everyone, and waits. Workers drain their rings before exiting,
/// so no buffered datagram is lost to shutdown. Held by every handle via
/// `Arc`; workers themselves hold only `Arc<HookShared>` (no cycle).
struct RuntimeOwner {
    shared: Arc<HookShared>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for RuntimeOwner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for j in self.joins.get_mut().drain(..) {
            if j.join().is_err() {
                // An unsupervised worker death (a panic that escaped
                // the in-thread supervisor). Swallow the payload — a
                // panic in Drop would abort the dropping thread — and
                // keep the count observable.
                self.shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                if let Some(reg) = self.shared.obs_handle().as_ref() {
                    reg.incr(Counter::WorkerPanics);
                }
            }
        }
    }
}

/// Per-handle reusable batch buffers: cleared-but-kept between
/// [`SecurityHooks::process_batch`] calls, so steady-state batching does
/// not allocate. Never shared — each clone starts its own (empty) set.
#[derive(Default)]
struct Scratch {
    /// One sub-batch per worker: filled by the partition stage, shipped,
    /// and put back (vectors emptied, capacity kept) when it comes home.
    subs: Vec<SubBatch>,
    slots: Vec<Option<(Ipv4Header, HookOutcome)>>,
    /// Submission-order header copies, so a slot whose sub-batch is
    /// stranded in a dead worker's ring can still be failed closed with
    /// its real header (plain-old-data copy, no allocation).
    headers: Vec<Ipv4Header>,
}

impl Scratch {
    /// Worker `w`'s finished sub-batch comes home: verdicts to their
    /// slots, spent buffers to the pool, emptied vectors kept for reuse.
    fn absorb(&mut self, w: usize, mut reply: SubBatch, pool: &mut BufferPool) {
        for (slot, header, outcome) in reply.done.drain(..) {
            self.slots[slot] = Some((header, outcome));
        }
        pool.put_all(&mut reply.recycle);
        self.subs[w] = reply;
    }
}

/// FBS security hooks for an IP-like stack. Cheaply cloneable: clones
/// share all flow state and the worker runtime, so keep a handle for
/// statistics after installing one into a [`fbs_net::Host`] — and clones
/// may be driven from different threads; each gets its own SPSC lane
/// into the shared workers.
pub struct FbsIpHooks {
    shared: Arc<HookShared>,
    owner: Arc<RuntimeOwner>,
    lane: Option<Arc<Lane>>,
    scratch: Scratch,
}

impl Clone for FbsIpHooks {
    fn clone(&self) -> Self {
        FbsIpHooks {
            shared: Arc::clone(&self.shared),
            owner: Arc::clone(&self.owner),
            lane: None,
            scratch: Scratch::default(),
        }
    }
}

impl Drop for FbsIpHooks {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            let mut reg = self.shared.lanes.lock();
            reg.retain(|l| !Arc::ptr_eq(l, &lane));
            self.shared.lanes_snapshot.store(Arc::new(reg.clone()));
            self.shared.lanes_epoch.fetch_add(1, Ordering::Release);
        }
    }
}

impl FbsIpHooks {
    /// Wrap an FBS endpoint in IP-mapping hooks. `sfl_seed` randomises the
    /// sfl counters' initial values (§5.3). The endpoint is decomposed:
    /// its MKD moves into the shared [`KeyingService`], and each shard
    /// gets its own [`FlowCodec`](fbs_core::FlowCodec) and full-geometry table slices. Spawns
    /// the `workers` shard-owning threads (none for `workers == 1`); they
    /// are joined when the last clone of the returned handle drops.
    pub fn new(endpoint: FbsEndpoint, cfg: IpMappingConfig, sfl_seed: u64) -> Self {
        let (local, ep_cfg, clock, seed, mkd) = endpoint.into_keying_parts();
        let mut cfg = cfg;
        let n = cfg.shards.max(1).next_power_of_two();
        cfg.shards = n;
        let workers = cfg.workers.clamp(1, n);
        cfg.workers = workers;
        let budget_bytes = cfg.shard_budget_bytes;
        let keying = KeyingService::new(mkd, ep_cfg.mkc_slots, n);
        // One worker runs to completion on its callers' threads.
        let spawned = if workers == 1 { 0 } else { workers };
        let (controls, receivers): (Vec<_>, Vec<_>) = (0..spawned)
            .map(|_| mpsc::channel())
            .map(|(tx, rx)| (Mutex::new(tx), rx))
            .unzip();
        let mut shared = HookShared {
            keying,
            local,
            clock,
            ep_cfg,
            codec_seed: seed,
            sfl_seed,
            cfg: Published::new(cfg),
            stats: AtomicHookStats::default(),
            endpoint_stats: Arc::new(fbs_core::AtomicEndpointStats::new()),
            rfkc_stats: Arc::new(AtomicCacheStats::new()),
            combined_stats: Arc::new(AtomicCombinedStats::new()),
            ring_stalls: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            shed_batches: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            quarantined: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            chaos: Published::new(None),
            obs: Published::new(None),
            n_shards: n,
            n_workers: workers,
            lanes: Mutex::new(Vec::new()),
            lanes_snapshot: Published::new(Vec::new()),
            lanes_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(workers),
            threads: OnceLock::new(),
            control: controls.into_boxed_slice(),
            inline: None,
            park_depths: (0..workers).map(|_| ParkDepths::default()).collect(),
            budgets: (0..n)
                .map(|_| MemoryBudget::bounded(budget_bytes))
                .collect(),
        };
        // Worker w owns shards { si : si % workers == w }, stored at
        // local index si / workers. Generation 0: the same shards a
        // post-panic rebuild derives, so supervised respawns change
        // nothing but the soft-state seeds.
        let mut per_worker: Vec<Vec<Shard>> = (0..workers).map(|_| Vec::new()).collect();
        for i in 0..n {
            per_worker[i % workers].push(shared.build_shard(i, 0));
        }
        if spawned == 0 {
            shared.inline = per_worker.pop().map(WorkerState::new).map(Mutex::new);
        }
        let shared = Arc::new(shared);
        let mut joins = Vec::with_capacity(spawned);
        let mut threads = Vec::with_capacity(spawned);
        for (w, (shards, ctl)) in per_worker.into_iter().zip(receivers).enumerate() {
            let sh = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("fbs-worker-{w}"))
                .spawn(move || worker_main(sh, w, shards, ctl))
                .expect("spawn fbs worker thread");
            threads.push(handle.thread().clone());
            joins.push(handle);
        }
        shared
            .threads
            .set(threads.into_boxed_slice())
            .expect("worker threads set once");
        FbsIpHooks {
            shared: Arc::clone(&shared),
            owner: Arc::new(RuntimeOwner {
                shared,
                joins: Mutex::new(joins),
            }),
            lane: None,
            scratch: Scratch::default(),
        }
    }

    /// This handle's lane into the workers, lazily created and
    /// registered on first use.
    fn lane(&mut self) -> Arc<Lane> {
        if let Some(l) = &self.lane {
            return Arc::clone(l);
        }
        let lane = Arc::new(Lane::new(self.shared.n_workers));
        {
            let mut reg = self.shared.lanes.lock();
            reg.push(Arc::clone(&lane));
            self.shared.lanes_snapshot.store(Arc::new(reg.clone()));
            self.shared.lanes_epoch.fetch_add(1, Ordering::Release);
        }
        self.lane = Some(Arc::clone(&lane));
        lane
    }

    /// Attach a metrics registry: the hooks emit entry/exit events, and
    /// the registry cascades into every shard's codec, combined table
    /// and RFKC (via a control round-trip to each owning
    /// worker), plus the shared keying service.
    pub fn attach_obs(&self, registry: Arc<MetricsRegistry>) -> Result<(), RuntimeError> {
        self.shared.keying.attach_obs(Arc::clone(&registry));
        for w in 0..self.shared.n_workers {
            self.shared
                .control_roundtrip(w, |tx| Control::AttachObs(Arc::clone(&registry), tx))?;
        }
        self.shared.obs.store(Arc::new(Some(registry)));
        Ok(())
    }

    /// Publish a modified configuration snapshot (swap-on-update): in-
    /// flight batches finish under the snapshot they loaded; the next
    /// batch sees the new one. Only policy-ish fields take effect —
    /// geometry (`shards`, `workers`, `fst_size`, cache
    /// dimensions, park capacity) is fixed at construction.
    pub fn update_config(&self, mutate: impl FnOnce(&mut IpMappingConfig)) {
        let mut next = (*self.shared.cfg.load()).clone();
        mutate(&mut next);
        self.shared.cfg.store(Arc::new(next));
    }

    /// Hook-level statistics — a lock-free atomic snapshot.
    pub fn stats(&self) -> IpHookStats {
        self.shared.stats.snapshot()
    }

    /// Endpoint statistics (sends, drops...) — lock-free.
    pub fn endpoint_stats(&self) -> EndpointStats {
        self.shared.endpoint_stats.snapshot()
    }

    /// RFKC statistics — lock-free.
    pub fn rfkc_stats(&self) -> fbs_core::CacheStats {
        self.shared.rfkc_stats.snapshot()
    }

    /// MKD statistics (upcalls = master key computations) — lock-free.
    pub fn mkd_stats(&self) -> fbs_core::mkd::MkdStats {
        self.shared.keying.mkd_stats()
    }

    /// Combined-table statistics (the §7.2 send path) — lock-free.
    /// Always `Some`: the `Option` is kept for callers written when the
    /// path was selectable.
    pub fn combined_stats(&self) -> Option<crate::combined::CombinedStats> {
        Some(self.shared.combined_stats.snapshot())
    }

    /// Number of flow-state shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shared.n_shards
    }

    /// Number of shard owners: worker threads, or 1 for the callers'
    /// own (run-to-completion mode).
    pub fn num_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// Times a batch found a worker's ingress ring full and had to
    /// stall — lock-free. Never moves at `workers == 1` (no ring).
    pub fn ring_stalls(&self) -> u64 {
        self.shared.ring_stalls.load(Ordering::Relaxed)
    }

    /// Per-shard active-flow occupancy at `now_secs` (a control
    /// round-trip to each worker — a control-plane reader, not a
    /// hot-path one).
    pub fn shard_occupancy(&self, now_secs: u64) -> Result<Vec<usize>, RuntimeError> {
        let mut occ = vec![0usize; self.shared.n_shards];
        for w in 0..self.shared.n_workers {
            let rows = self
                .shared
                .control_roundtrip(w, |tx| Control::Occupancy(now_secs, tx))?;
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
            self.shared.control_roundtrip(w, Control::FlushKeys)?;
        }
        Ok(())
    }

    /// Invalidate the cached master key for one peer (forces the next
    /// datagram to/from them through the MKD upcall).
    pub fn forget_peer(&self, peer: &Principal) {
        self.shared.keying.forget_peer(peer);
    }

    /// Force every worker to process anything buffered in its ingress
    /// rings, synchronously: after this returns, no datagram handed to
    /// `process_batch` is still queued inside the runtime. (The normal
    /// path never needs this — `process_batch` is synchronous — but it
    /// makes the drain-then-shutdown property directly testable.)
    pub fn drain(&self) -> Result<(), RuntimeError> {
        self.drain_with_deadline(Duration::from_secs(30))
    }

    /// [`Self::drain`] with an explicit wall-clock budget shared across
    /// all workers. A worker that cannot acknowledge within the budget
    /// (stalled, wedged, or dead) is reported in the error rather than
    /// hanging the caller forever.
    pub fn drain_with_deadline(&self, deadline: Duration) -> Result<(), RuntimeError> {
        let budget = Instant::now() + deadline;
        let mut pending = 0usize;
        // Per mailbox: run to completion has none, and nothing buffered.
        for w in 0..self.shared.control.len() {
            let (tx, rx) = mpsc::channel();
            if self.shared.send_control(w, Control::Drain(tx)).is_err() {
                pending += 1;
                continue;
            }
            let left = budget.saturating_duration_since(Instant::now());
            if rx.recv_timeout(left).is_err() {
                pending += 1;
            }
        }
        if pending == 0 {
            Ok(())
        } else {
            Err(RuntimeError::DrainTimeout {
                pending_workers: pending,
            })
        }
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

    /// Accumulated (output, input) parking counters, summed over shards
    /// (a control round-trip to each worker).
    pub fn park_stats(&self) -> Result<(ParkStats, ParkStats), RuntimeError> {
        let mut out = ParkStats::default();
        let mut inp = ParkStats::default();
        for w in 0..self.shared.n_workers {
            let (o, i) = self.shared.control_roundtrip(w, Control::ParkStats)?;
            out.merge(&o);
            inp.merge(&i);
        }
        Ok((out, inp))
    }

    /// The MKD circuit breaker's state for `peer`, if resilience is
    /// configured and the peer has been keyed at least once.
    pub fn breaker_state(&self, peer: &Principal) -> Option<BreakerState> {
        self.shared.keying.breaker_state(peer)
    }

    /// Release loop shared by both directions: skip workers whose cached
    /// park depth is zero (the common case — one atomic load per worker
    /// per poll), otherwise run the release on the owning worker and
    /// recycle the consumed buffers.
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
            // A worker that cannot answer (unsupervised death) simply
            // contributes no releases this poll — the release loop is
            // best-effort by contract, so errors are skipped, not
            // propagated.
            let Ok((mut released, mut recycle)) = self
                .shared
                .control_roundtrip(w, |reply| Control::Release { dir, now_us, reply })
            else {
                continue;
            };
            ready.append(&mut released);
            pool.put_all(&mut recycle);
        }
        ready
    }

    /// Install (or clear) a deterministic worker-fault injector. Chaos
    /// only: every tap is on an already-slow or failure path, so the
    /// production hot path pays one published-pointer load per
    /// sub-batch.
    pub fn set_worker_chaos(&self, injector: Option<Arc<dyn WorkerFaultInjector>>) {
        self.shared.chaos.store(Arc::new(injector));
    }

    /// Worker-loop panics caught by the in-thread supervisors (plus any
    /// unsupervised deaths observed at join time) — lock-free.
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Supervised worker respawns (shard state rebuilt in place) —
    /// lock-free.
    pub fn worker_respawns(&self) -> u64 {
        self.shared.worker_respawns.load(Ordering::Relaxed)
    }

    /// Overload-shedding counters as `(rejected_datagrams,
    /// shed_sub_batches)` — lock-free.
    pub fn shed_counts(&self) -> (u64, u64) {
        (
            self.shared.shed_rejected.load(Ordering::Relaxed),
            self.shared.shed_batches.load(Ordering::Relaxed),
        )
    }

    /// Worker threads still running their loop. Quarantined workers
    /// count as alive (they answer control and reject traffic); only
    /// real thread exit — clean shutdown or an unsupervised death —
    /// moves this.
    pub fn workers_alive(&self) -> usize {
        self.shared.workers_alive.load(Ordering::Acquire)
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
    /// the same atomics the owning workers charge.
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
    /// the codecs frame it — from the *endpoint's* configuration, the
    /// one they were built from — and up to 7 bytes of DES block padding.
    fn max_overhead(&self) -> usize {
        let padding = if self.shared.cfg.load().encrypt { 7 } else { 0 };
        self.shared.ep_cfg.wire_header_len() + padding
    }

    /// The single processing entry point (the scalar `output`/`input`
    /// trait defaults wrap it): partition the batch into per-worker
    /// sub-batches ONCE, run the one sub-batch here (`workers == 1`) or
    /// ship them over this handle's SPSC lane, one supply buffer per
    /// datagram either way, then re-thread the outcomes into submission
    /// order. Synchronous at batch granularity.
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
        let shared = Arc::clone(&self.shared);
        let cfg_obs = shared.obs_handle();
        let obs = &cfg_obs;
        let n = shared.n_shards;
        let nw = shared.n_workers;
        let total = batch.len();
        let scratch = &mut self.scratch;
        if scratch.subs.len() < nw {
            scratch.subs.resize_with(nw, || SubBatch::new(dir, now_us));
        }
        let timer = obs.as_ref().map(|_| StageTimer::start());
        scratch.headers.clear();
        for (slot, dg) in batch.into_iter().enumerate() {
            let Datagram { header, payload } = dg;
            let (si, tuple) = match dir {
                Direction::Output => {
                    let tuple = tuple_for(&header, &payload);
                    (tx_shard(n, tuple.as_ref()), tuple)
                }
                Direction::Input => (rx_shard(n, &payload), None),
            };
            scratch.headers.push(header.clone());
            scratch.subs[si % nw]
                .items
                .push((slot, si, header, payload, tuple));
        }
        scratch.slots.clear();
        scratch.slots.resize_with(total, || None);
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Partition, timer.elapsed_ns());
        }
        if let Some(state) = &shared.inline {
            // Run to completion: this thread is the worker while it holds
            // the state lock, dropped before the verdicts are re-threaded.
            let mut sub = std::mem::replace(&mut scratch.subs[0], SubBatch::new(dir, now_us));
            (sub.dir, sub.now_us) = (dir, now_us);
            pool.take_n_into(sub.items.len(), &mut sub.supplies);
            let reply = worker::run_inline(&shared, &mut state.lock(), sub);
            if let Some(reply) = reply {
                scratch.absorb(0, reply, pool);
            }
        } else {
            let lane = self.lane();
            let scratch = &mut self.scratch;
            // Register as this lane's producer so workers can unpark us when
            // a reply lands.
            *lane.producer.lock() = Some(std::thread::current());
            let timer = obs.as_ref().map(|_| StageTimer::start());
            let cfg = shared.cfg.load();
            let chaos = (*shared.chaos.load()).clone();
            let mut outstanding = 0usize;
            for w in 0..nw {
                if scratch.subs[w].items.is_empty() {
                    continue;
                }
                // A sub-batch stranded in a dead worker's ring never comes
                // home; the empty stand-in left here takes its place.
                let mut sub = std::mem::replace(&mut scratch.subs[w], SubBatch::new(dir, now_us));
                (sub.dir, sub.now_us) = (dir, now_us);
                pool.take_n_into(sub.items.len(), &mut sub.supplies);
                // Chaos can pin a ring "full" from the producer side (the
                // worker keeps draining at virtual time, so seeded runs stay
                // deterministic); it exercises exactly the shed path a truly
                // wedged worker would.
                let mut shed_sub = None;
                // One failed push: counted, with the time spent waiting it out.
                let note_stall = |waited_ns: u64| {
                    shared.ring_stalls.fetch_add(1, Ordering::Relaxed);
                    if let Some(reg) = obs.as_ref() {
                        reg.incr(Counter::RingStalls);
                        reg.worker_stall(w, waited_ns);
                    }
                };
                if chaos.as_ref().is_some_and(|c| c.ring_saturated(w, now_us)) {
                    note_stall(0);
                    shed_sub = Some(sub);
                } else {
                    // Bounded backpressure: spin against the shed deadline,
                    // never forever — a worker that stopped draining (wedged
                    // in a stall, quarantine racing shutdown, unsupervised
                    // death) must not wedge the producer with it.
                    let mut deadline: Option<Instant> = None;
                    loop {
                        match lane.to_worker[w].try_push(sub) {
                            Ok(()) => break,
                            Err(back) => {
                                sub = back;
                                let stall = obs.as_ref().map(|_| StageTimer::start());
                                shared.wake_worker(w);
                                std::thread::yield_now();
                                note_stall(stall.map_or(0, |t| t.elapsed_ns()));
                                let d = *deadline.get_or_insert_with(|| {
                                    Instant::now() + Duration::from_micros(cfg.shed_deadline_us)
                                });
                                if Instant::now() >= d {
                                    shed_sub = Some(sub);
                                    break;
                                }
                            }
                        }
                    }
                }
                if let Some(mut sub) = shed_sub {
                    // Shed per-datagram: every item gets a Reject verdict in
                    // its submission slot and every buffer goes back to the
                    // pool — counted, never silently dropped.
                    pool.put_all(&mut sub.supplies);
                    let shed_n = sub.items.len() as u64;
                    for (slot, _si, header, payload, _tuple) in sub.items.drain(..) {
                        pool.put(payload);
                        scratch.slots[slot] = Some((
                            header,
                            HookOutcome::Reject("shed: worker ring saturated".into()),
                        ));
                    }
                    shared.shed_rejected.fetch_add(shed_n, Ordering::Relaxed);
                    shared.shed_batches.fetch_add(1, Ordering::Relaxed);
                    if let Some(reg) = obs.as_ref() {
                        reg.add(Counter::ShedRejected, shed_n);
                        reg.incr(Counter::ShedBatches);
                    }
                    scratch.subs[w] = sub;
                    continue;
                }
                shared.wake_worker(w);
                outstanding += 1;
            }
            if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                reg.observe_stage(Stage::RingEnqueue, timer.elapsed_ns());
            }
            let timer = obs.as_ref().map(|_| StageTimer::start());
            let mut replies = 0usize;
            let mut spins = 0u32;
            let mut dead_spins = 0u32;
            while replies < outstanding {
                let mut progressed = false;
                for w in 0..nw {
                    while let Some(reply) = lane.from_worker[w].try_pop() {
                        scratch.absorb(w, reply, pool);
                        replies += 1;
                        progressed = true;
                    }
                }
                if progressed {
                    spins = 0;
                    dead_spins = 0;
                    continue;
                }
                if shared.workers_alive.load(Ordering::Acquire) < nw {
                    // A worker thread is GONE (unsupervised death — a panic
                    // the in-thread supervisor itself could not contain).
                    // Live workers may still have replies in flight, so give
                    // them a grace window before failing the rest closed.
                    dead_spins += 1;
                    if dead_spins > 512 {
                        break;
                    }
                }
                spins += 1;
                if spins < 32 {
                    std::thread::yield_now();
                } else {
                    // Timed park, never bare: a wakeup racing the park is
                    // then at worst a 200µs hiccup, not a hang.
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
            *lane.producer.lock() = None;
            if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                reg.observe_stage(Stage::RingWait, timer.elapsed_ns());
            }
        }
        let timer = obs.as_ref().map(|_| StageTimer::start());
        let Scratch { slots, headers, .. } = &mut self.scratch;
        let out: Vec<(Ipv4Header, HookOutcome)> = slots
            .drain(..)
            .enumerate()
            .map(|(slot, s)| match s {
                Some(v) => v,
                // Verdict stranded in a dead worker: fail the datagram
                // closed with its captured header rather than panicking
                // the submitting thread.
                None => (
                    headers[slot].clone(),
                    HookOutcome::Reject("worker runtime unavailable".into()),
                ),
            })
            .collect();
        headers.clear();
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Dispatch, timer.elapsed_ns());
        }
        out
    }

    /// Release loop for parked output datagrams; runs on the owning
    /// workers via the control plane. The fast path (nothing parked) is
    /// one atomic load per worker.
    fn release_output(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.release_dir(Direction::Output, now_us, pool)
    }

    /// Release loop for parked input datagrams, mirroring
    /// [`Self::release_output`].
    fn release_input(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.release_dir(Direction::Input, now_us, pool)
    }
}
