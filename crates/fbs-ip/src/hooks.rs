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
//! combined FST/TFKC (or FAM + TFKC), its RFKC slice, its [`FlowCodec`]
//! (confounder stream + seal/open), and its parking queues. Shards are
//! **owned outright** by long-lived run-to-completion worker threads
//! (worker `w` of `W` owns shards `{ si : si % W == w }`): no mutex
//! guards a shard, because exactly one thread can ever reach it.
//!
//! [`SecurityHooks::process_batch`] is the ingress/egress stage. It
//! partitions the batch into per-worker sub-batches **once**, ships each
//! over a bounded [`SpscRing`], and re-threads the replies into
//! submission order. Each handle owns a private [`Lane`] (one SPSC ring
//! pair per worker), so the single-producer side of every ring is
//! enforced by `&mut self`; clones start lane-less and lazily register
//! their own. The datagram path therefore acquires **zero** shard locks:
//! the only locking left is control-plane (lane registry, config
//! snapshot swap, keying inserts inside [`KeyingService`], and the
//! control mailboxes used by drain/flush/occupancy/release).
//!
//! * **Transmit** datagrams shard by `crc32(five_tuple) % N`. Each
//!   shard's [`SflAllocator`] is strided so every sfl it issues is
//!   congruent to the shard index mod `N` — the same `sfl % N` function
//!   the receive side partitions by.
//! * **Receive** datagrams shard by the wire sfl (first 8 payload
//!   bytes) mod `N`, so a flow's RFKC entries stay in one shard.
//! * Per-shard tables keep the FULL configured geometry (`fst_size`,
//!   TFKC/RFKC sets × assoc): a shard only ever sees tuples hashing to
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
//! **Lock-ordering rules** (see also `fbs_core::concurrent`): shard
//! state is unlocked by construction (rule 1 — never hold shard state
//! behind a lock across an MKD/directory call — is now vacuous); inside
//! the keying service the order is mkd → mkc-shard; [`Published`] reads
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
//!   ordinary TFKC/RFKC misses — the paper's §5.3 argument; parked
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
//! [`KeyUnavailableVerdict`] decides what happens to the datagram:
//!
//! * **fail-closed** (default, the paper's behaviour): drop it;
//! * **fail-open**: pass it unprotected — only honoured when the
//!   configuration does not request confidentiality, and never for a
//!   framed-but-unverifiable input datagram;
//! * **park**: hold it in a bounded [`ParkingQueue`] and retry when
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

use crate::combined::{AtomicCombinedStats, CombinedTable};
use crate::policy::FiveTuplePolicy;
use crate::tuple::FiveTuple;
use fbs_core::breaker::BreakerState;
use fbs_core::header::HeaderView;
use fbs_core::protocol::EndpointStats;
use fbs_core::{
    derive_flow_key, AtomicCacheStats, BatchVerifier, BudgetKind, BudgetSnapshot, BufferPool,
    Clock, Fam, FbsConfig, FbsEndpoint, FbsError, FlowCodec, FlowKeyId, FstEntry,
    KeyUnavailableVerdict, KeyingService, MemoryBudget, ParkStats, Parked, ParkingQueue,
    Principal, Published, RuntimeError, SealedFlowKey, SflAllocator, SoftCache, SpscRing,
    WorkerFaultInjector,
};
use fbs_crypto::{crc32, CipherSuite};
use fbs_net::ip::Proto;
use fbs_net::{Datagram, HookOutcome, Ipv4Header, SecurityHooks};
use fbs_obs::{
    CacheKind, Counter, Direction, Event, MetricsRegistry, MetricsSnapshot, ShardMemSample,
    SpanKind, Stage, StageTimer, TraceSpan,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Multiplier decorrelating per-shard confounder seeds (golden-ratio
/// constant; shard 0 keeps the endpoint's original seed).
const SHARD_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixed into rebuilt shards' sfl-allocator salt and confounder seed on
/// every supervised respawn, so a respawned shard never re-issues sfls
/// or confounder bytes from its previous life.
const GENERATION_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// Deadline for a control round-trip (stats scrape, flush, release):
/// generous against injected stalls, but bounded so a wedged worker
/// surfaces as [`RuntimeError::ControlTimeout`] instead of a hang.
const CONTROL_DEADLINE: Duration = Duration::from_secs(10);

/// Hard cap on an injected worker stall, keeping chaos runs bounded no
/// matter what a fault plan asks for.
const MAX_INJECTED_STALL_US: u64 = 20_000;

/// Slots per SPSC ring. `process_batch` is synchronous — it pushes at
/// most one sub-batch per worker per lane, then waits for every reply —
/// so depth buys no throughput; the spare slots only absorb sub-batches
/// stranded behind a dead worker before the producer starts shedding.
const RING_DEPTH: usize = 4;

/// Estimated resident bytes per flow-key cache entry, charged against
/// the shard's [`MemoryBudget`]: the SoA slot (key + value `Arc` + LRU
/// tick + control byte) plus the [`SealedFlowKey`] allocation the `Arc`
/// points at. An estimate is the right tool — the budget bounds
/// steady-state residency, it is not an allocator.
const FLOW_KEY_ENTRY_BYTES: u64 = (std::mem::size_of::<Option<FlowKeyId>>()
    + std::mem::size_of::<Option<Arc<SealedFlowKey>>>()
    + std::mem::size_of::<u64>()
    + 1
    + std::mem::size_of::<SealedFlowKey>()) as u64;

/// Static bytes one shard's FST-shaped table occupies (both the
/// textbook FAM and the §7.2 combined table keep `fst_size` slots
/// resident whether or not flows occupy them), charged up front under
/// [`BudgetKind::Fam`] so `mem.shard.<i>.*` reflects the real floor.
fn fst_static_bytes(fst_size: usize) -> u64 {
    (fst_size * std::mem::size_of::<Option<FstEntry<FiveTuple>>>()) as u64
}

/// What the in-thread supervisor does with a worker whose loop
/// panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFaultPolicy {
    /// Rebuild the worker's shard state and resume (soft state re-warms
    /// through normal cache misses). After `max_respawns` supervised
    /// panics the worker falls back to [`WorkerFaultPolicy::FailClosed`].
    Respawn {
        /// Supervised respawns allowed before quarantining.
        max_respawns: u32,
    },
    /// Quarantine immediately: keep draining rings and answering
    /// control messages, but reject every datagram routed to the
    /// worker's shards (buffers recycled, never silently dropped).
    FailClosed,
}

impl Default for WorkerFaultPolicy {
    fn default() -> Self {
        WorkerFaultPolicy::Respawn { max_respawns: 3 }
    }
}

/// Configuration of the IP mapping.
#[derive(Clone, Debug)]
pub struct IpMappingConfig {
    /// Flow idle expiry (Fig. 7's THRESHOLD).
    pub threshold_secs: u64,
    /// Flow state table size (Fig. 7's FSTSIZE).
    pub fst_size: usize,
    /// Request data confidentiality (DES) for covered datagrams; false =
    /// authentication only (keyed MD5), the paper's non-secret mode.
    pub encrypt: bool,
    /// Use the combined FST/TFKC send path of §7.2 (the implementation's
    /// choice); false = the textbook separate FAM + TFKC path of Fig. 4/6.
    pub combined: bool,
    /// Also protect raw-IP protocols (everything except the bypass
    /// protocol) as **host-level flows** — the treatment §7.1 footnote 10
    /// sketches for ICMP/IGMP: "raw IP can be considered as host-level
    /// flows". The paper's implementation left this out; it is provided as
    /// the documented extension. Default off for fidelity.
    pub cover_raw_ip: bool,
    /// Degradation verdict when keying material is transiently
    /// unavailable (wired into the flow policy). Default fail-closed,
    /// which reproduces the seed behaviour exactly.
    pub key_unavailable: KeyUnavailableVerdict,
    /// Parking-queue capacity per shard per direction (park verdict only).
    pub park_capacity: usize,
    /// Per-datagram parking deadline in microseconds, measured from the
    /// first park.
    pub park_deadline_us: u64,
    /// Number of flow-state shards (rounded up to a power of two).
    /// Fixed at construction: changing it through
    /// [`FbsIpHooks::update_config`] has no effect.
    pub shards: usize,
    /// Number of shard-owning worker threads (clamped to `1..=shards`).
    /// Fixed at construction, like the shard geometry.
    pub workers: usize,
    /// Supervision policy applied when a worker loop panics. Read per
    /// panic, so it can be changed through
    /// [`FbsIpHooks::update_config`].
    pub worker_fault: WorkerFaultPolicy,
    /// How long (wall microseconds) `process_batch` spins on a full
    /// worker ring before shedding the sub-batch per-datagram
    /// (`Reject` + recycle, counted as `hooks.shed.*`). 0 sheds on the
    /// first failed push. Read per batch.
    pub shed_deadline_us: u64,
    /// Per-shard soft-state byte budget (0 = unbudgeted). Bounds what
    /// one shard's TFKC/RFKC/FAM keep resident: a table that would
    /// allocate past the budget evicts its own entries first. Enforced
    /// worker-locally — no cross-shard coordination — and fixed at
    /// construction like the shard geometry.
    pub shard_budget_bytes: u64,
    /// The underlying FBS endpoint configuration.
    pub fbs: FbsConfig,
}

impl Default for IpMappingConfig {
    fn default() -> Self {
        IpMappingConfig {
            threshold_secs: crate::policy::DEFAULT_THRESHOLD_SECS,
            fst_size: crate::policy::DEFAULT_FST_SIZE,
            encrypt: true,
            combined: true,
            cover_raw_ip: false,
            key_unavailable: KeyUnavailableVerdict::FailClosed,
            park_capacity: 64,
            park_deadline_us: 2_000_000,
            shards: 8,
            workers: 2,
            worker_fault: WorkerFaultPolicy::default(),
            shed_deadline_us: 5_000,
            shard_budget_bytes: 0,
            fbs: FbsConfig::default(),
        }
    }
}

/// Counters for the hook layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IpHookStats {
    /// Datagrams protected on output.
    pub protected: u64,
    /// Datagrams verified and stripped on input.
    pub verified: u64,
    /// Output datagrams rejected (keying failure, tuple extraction...).
    pub output_errors: u64,
    /// Input datagrams rejected (MAC, freshness, framing...).
    pub input_errors: u64,
    /// Datagrams passed unprotected/unverified under a fail-open verdict.
    pub fail_open: u64,
    /// Key-unavailable datagrams dropped under the fail-closed verdict.
    pub fail_closed: u64,
}

impl IpHookStats {
    /// Total output-hook invocations that reached a final verdict.
    pub fn output_entries(&self) -> u64 {
        self.protected + self.output_errors
    }

    /// Total input-hook invocations that reached a final verdict.
    pub fn input_entries(&self) -> u64 {
        self.verified + self.input_errors
    }

    /// Fold these counters into a snapshot under the `hooks.*` /
    /// `degrade.*` names a live [`MetricsRegistry`] uses.
    pub fn contribute(&self, snap: &mut MetricsSnapshot) {
        snap.add("hooks.output_entries", self.output_entries());
        snap.add("hooks.output_ok", self.protected);
        snap.add("hooks.output_errors", self.output_errors);
        snap.add("hooks.input_entries", self.input_entries());
        snap.add("hooks.input_ok", self.verified);
        snap.add("hooks.input_errors", self.input_errors);
        snap.add("degrade.fail_open", self.fail_open);
        snap.add("degrade.fail_closed", self.fail_closed);
    }
}

/// Lock-free live counters behind [`FbsIpHooks::stats`]: updated from
/// worker threads with relaxed atomics, snapshotted by readers without
/// blocking any batch in flight.
#[derive(Debug, Default)]
struct AtomicHookStats {
    protected: AtomicU64,
    verified: AtomicU64,
    output_errors: AtomicU64,
    input_errors: AtomicU64,
    fail_open: AtomicU64,
    fail_closed: AtomicU64,
}

impl AtomicHookStats {
    fn snapshot(&self) -> IpHookStats {
        IpHookStats {
            protected: self.protected.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            output_errors: self.output_errors.load(Ordering::Relaxed),
            input_errors: self.input_errors.load(Ordering::Relaxed),
            fail_open: self.fail_open.load(Ordering::Relaxed),
            fail_closed: self.fail_closed.load(Ordering::Relaxed),
        }
    }
}

/// One shard's slice of the mutable flow state, owned exclusively by one
/// worker thread (no lock — ownership IS the exclusion). All counters
/// inside are share-stats'd into the lock-free aggregates in
/// [`HookShared`].
struct Shard {
    /// Seal/open engine with this shard's confounder stream.
    codec: FlowCodec,
    /// Textbook path: FAM with the Fig. 7 policy.
    fam: Fam<FiveTuple, FiveTuplePolicy>,
    /// §7.2 path: merged FST/TFKC, used when `cfg.combined`.
    combined: Option<CombinedTable>,
    /// Textbook-path transmit flow key cache (full geometry).
    tfkc: SoftCache<FlowKeyId, Arc<SealedFlowKey>>,
    /// Receive flow key cache slice for sfls ≡ shard index (mod N).
    rfkc: SoftCache<FlowKeyId, Arc<SealedFlowKey>>,
    /// Output datagrams awaiting key derivation: (header, plaintext).
    out_park: ParkingQueue<(Ipv4Header, Vec<u8>)>,
    /// Input datagrams awaiting key derivation: (header, wire payload).
    in_park: ParkingQueue<(Ipv4Header, Vec<u8>)>,
}

/// One partitioned datagram in flight to a worker: submission slot,
/// shard index, header, payload, and the pre-extracted 5-tuple (output
/// direction only).
type WorkItem = (usize, usize, Ipv4Header, Vec<u8>, Option<FiveTuple>);

/// One finished datagram on its way back: submission slot, (possibly
/// length-fixed) header, and the verdict.
type DoneItem = (usize, Ipv4Header, HookOutcome);

/// What a release control round-trip returns: the released datagrams
/// plus every buffer the worker consumed (to be recycled into the
/// caller's pool).
type ReleasedBatch = (Vec<(Ipv4Header, Vec<u8>)>, Vec<Vec<u8>>);

/// A unit of work shipped over a [`Lane`]: the items, one supply buffer
/// per item (drawn from the caller's pool), and the reply vectors being
/// lent to the worker so nothing allocates per sub-batch.
struct SubBatch {
    dir: Direction,
    now_us: u64,
    items: Vec<WorkItem>,
    supplies: Vec<Vec<u8>>,
    done: Vec<DoneItem>,
    recycle: Vec<Vec<u8>>,
}

/// A finished sub-batch: verdicts, buffers to recycle, and the (now
/// emptied) item/supply vectors riding home for reuse.
struct SubReply {
    done: Vec<DoneItem>,
    recycle: Vec<Vec<u8>>,
    items: Vec<WorkItem>,
    supplies: Vec<Vec<u8>>,
}

/// One handle's private ring pair per worker. `&mut self` on
/// [`SecurityHooks::process_batch`] makes the producer side single by
/// construction; the worker is the only consumer of `to_worker[w]` and
/// the only producer of `from_worker[w]`.
struct Lane {
    to_worker: Box<[SpscRing<SubBatch>]>,
    from_worker: Box<[SpscRing<SubReply>]>,
    /// The thread currently blocked in `process_batch` on this lane, for
    /// worker→producer wakeups (control-plane mutex; set once per batch).
    producer: Mutex<Option<std::thread::Thread>>,
}

impl Lane {
    fn new(workers: usize) -> Self {
        Lane {
            to_worker: (0..workers)
                .map(|_| SpscRing::with_capacity(RING_DEPTH))
                .collect(),
            from_worker: (0..workers)
                .map(|_| SpscRing::with_capacity(RING_DEPTH))
                .collect(),
            producer: Mutex::new(None),
        }
    }
}

/// Control-plane messages to a worker. Every variant carries an ack /
/// reply channel: the control plane is synchronous, so callers observe
/// effects (flush, release) before returning — exactly like the old
/// lock-per-shard accessors did.
enum Control {
    /// Cascade a metrics registry into every owned shard's components.
    AttachObs(Arc<MetricsRegistry>, mpsc::Sender<()>),
    /// Drop all flow-key soft state in owned shards.
    FlushKeys(mpsc::Sender<()>),
    /// Per owned shard `(shard_index, active_flows(now_secs))`.
    Occupancy(u64, mpsc::Sender<Vec<(usize, usize)>>),
    /// Summed (output, input) parking counters over owned shards.
    ParkStats(mpsc::Sender<(ParkStats, ParkStats)>),
    /// Run the park release loop for one direction.
    Release {
        dir: Direction,
        now_us: u64,
        reply: mpsc::Sender<ReleasedBatch>,
    },
    /// Drain every pending sub-batch from every known lane, then ack:
    /// after the ack, no datagram handed to this worker is still buffered.
    Drain(mpsc::Sender<()>),
}

/// Cached per-worker parking-queue depths, refreshed by the owning
/// worker after every sub-batch/release. Lets `release_output`/`_input`
/// (driven every [`fbs_net::Host::poll`]) skip the control round-trip
/// entirely when nothing is parked.
#[derive(Default)]
struct ParkDepths {
    out: AtomicUsize,
    inp: AtomicUsize,
}

/// A worker's view of the buffer economy while processing one
/// sub-batch: `take` pops a supply (falling back to a fresh allocation),
/// `put` stages a buffer for recycling into the producer's pool.
struct WorkerCtx<'a> {
    supplies: &'a mut Vec<Vec<u8>>,
    recycle: &'a mut Vec<Vec<u8>>,
}

impl WorkerCtx<'_> {
    fn take(&mut self) -> Vec<u8> {
        match self.supplies.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY),
        }
    }

    fn put(&mut self, buf: Vec<u8>) {
        self.recycle.push(buf);
    }
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
    tfkc_stats: Arc<AtomicCacheStats>,
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
    fn control_roundtrip<T>(
        &self,
        w: usize,
        make: impl FnOnce(mpsc::Sender<T>) -> Control,
    ) -> Result<T, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        self.send_control(w, make(tx))?;
        match rx.recv_timeout(CONTROL_DEADLINE) {
            Ok(v) => Ok(v),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RuntimeError::ControlTimeout { worker: w }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(RuntimeError::WorkerUnavailable { worker: w })
            }
        }
    }

    /// Build shard `si` from scratch. `generation` 0 reproduces the
    /// construction-time shards exactly; a respawned worker bumps it so
    /// rebuilt confounder streams and sfl ranges cannot collide with
    /// anything issued before the panic. The generation salt multiplies
    /// into the stride base, so `sfl % n_shards == si` still holds — the
    /// receive-side partition stays consistent across respawns.
    fn build_shard(&self, si: usize, generation: u64) -> Shard {
        let cfg = self.cfg.load();
        let n = self.n_shards as u64;
        let salt = self
            .sfl_seed
            .wrapping_add(generation.wrapping_mul(0x9E37_79B9));
        let stride_base = salt.wrapping_mul(n).wrapping_add(si as u64);
        let mut codec = FlowCodec::new(
            self.local.clone(),
            self.ep_cfg.clone(),
            Arc::clone(&self.clock),
            self.codec_seed
                ^ (si as u64).wrapping_mul(SHARD_SEED_MIX)
                ^ generation.wrapping_mul(GENERATION_MIX),
        );
        codec.share_stats(Arc::clone(&self.endpoint_stats));
        let fam = Fam::new(
            cfg.fst_size,
            FiveTuplePolicy::new(cfg.threshold_secs).with_key_unavailable(cfg.key_unavailable),
            SflAllocator::with_stride(stride_base, n),
        );
        let combined = cfg.combined.then(|| {
            let mut t = CombinedTable::new(
                cfg.fst_size,
                cfg.threshold_secs,
                // Distinct allocator space from the FAM's (only one of
                // the two is ever used per configuration).
                SflAllocator::with_stride(stride_base, n),
            );
            t.share_stats(Arc::clone(&self.combined_stats));
            t
        });
        let mut tfkc = SoftCache::new(
            self.ep_cfg.tfkc_sets,
            self.ep_cfg.tfkc_assoc,
            fbs_core::flow_key_hash,
        );
        tfkc.share_stats(Arc::clone(&self.tfkc_stats));
        let mut rfkc = SoftCache::new(
            self.ep_cfg.rfkc_sets,
            self.ep_cfg.rfkc_assoc,
            fbs_core::flow_key_hash,
        );
        rfkc.share_stats(Arc::clone(&self.rfkc_stats));
        // The shard enforces its own budget: reset the (possibly
        // carried-over) ledger, charge the static FST footprint, and
        // attach the key caches so they evict before allocating past it.
        let budget = self.budgets[si].clone();
        budget.reset();
        budget.charge(BudgetKind::Fam, fst_static_bytes(cfg.fst_size));
        tfkc.set_budget(budget.clone(), BudgetKind::Tfkc, FLOW_KEY_ENTRY_BYTES);
        rfkc.set_budget(budget.clone(), BudgetKind::Rfkc, FLOW_KEY_ENTRY_BYTES);
        Shard {
            codec,
            fam,
            combined,
            tfkc,
            rfkc,
            out_park: ParkingQueue::new(cfg.park_capacity, cfg.park_deadline_us),
            in_park: ParkingQueue::new(cfg.park_capacity, cfg.park_deadline_us),
        }
    }
}

/// Cascade a metrics registry into one shard's components (used both by
/// the AttachObs control message and by post-panic shard rebuilds).
fn cascade_obs(shard: &mut Shard, reg: &Arc<MetricsRegistry>) {
    shard.codec.set_obs(Arc::clone(reg));
    shard.fam.set_obs(Arc::clone(reg));
    if let Some(t) = &mut shard.combined {
        t.set_obs(Arc::clone(reg));
    }
    shard.tfkc.set_obs(Arc::clone(reg), CacheKind::Tfkc);
    shard.rfkc.set_obs(Arc::clone(reg), CacheKind::Rfkc);
}

fn record(obs: &Option<Arc<MetricsRegistry>>, event: Event) {
    if let Some(reg) = obs {
        reg.record(event);
    }
}

/// Record a flow-trace span when a tracer is attached AND sampling
/// selects the flow. The untraced path costs one `Option` check plus one
/// atomic load; an unsampled flow adds a hash of its sfl — no locking,
/// no allocation.
fn trace_span(
    obs: &Option<Arc<MetricsRegistry>>,
    sfl: u64,
    host: [u8; 4],
    kind: SpanKind,
    t_us: u64,
    info: u64,
) {
    if let Some(tracer) = obs.as_ref().and_then(|reg| reg.tracer()) {
        if tracer.sampled(sfl) {
            tracer.record(TraceSpan {
                sfl,
                host: u32::from_be_bytes(host),
                kind,
                t_us,
                info,
            });
        }
    }
}

/// Annotate the trace stream with an event that has no owning flow
/// (e.g. an output-side park, where keying failed before an sfl could
/// be resolved).
fn trace_note(
    obs: &Option<Arc<MetricsRegistry>>,
    kind: &'static str,
    detail: &'static str,
    t_us: u64,
    info: u64,
) {
    if let Some(tracer) = obs.as_ref().and_then(|reg| reg.tracer()) {
        tracer.annotate(kind, detail, t_us, info);
    }
}

/// The wire sfl: the first 8 big-endian payload bytes of a framed
/// datagram (the same prefix `rx_shard` partitions by).
fn wire_sfl(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
}

/// The policy's key-unavailable verdict, downgraded to fail-closed when
/// fail-open would leak traffic configured for confidentiality.
fn degrade_verdict(cfg: &IpMappingConfig) -> KeyUnavailableVerdict {
    if cfg.encrypt && cfg.key_unavailable == KeyUnavailableVerdict::FailOpen {
        KeyUnavailableVerdict::FailClosed
    } else {
        cfg.key_unavailable
    }
}

/// The outgoing datagram's flow identity. `None` = a transport datagram
/// too short for 5-tuple extraction (rejected later as malformed).
fn tuple_for(header: &Ipv4Header, payload: &[u8]) -> Option<FiveTuple> {
    let is_transport = matches!(Proto::from_number(header.proto), Proto::Mrt | Proto::Udp);
    if is_transport {
        FiveTuple::extract(header.proto, header.src, header.dst, payload)
    } else {
        // Footnote-10 extension: raw IP forms host-level flows — the
        // "5-tuple" degenerates to (proto, saddr, daddr).
        Some(FiveTuple {
            proto: header.proto,
            saddr: header.src,
            sport: 0,
            daddr: header.dst,
            dport: 0,
        })
    }
}

/// Transmit shard: derived from `crc32(tuple)` like the tables' slot
/// indices, but from the HIGH bits — the tables reduce the crc mod their
/// size (low bits), and taking the shard from the same low bits would
/// leave each shard's tuples able to reach only `1/N` of its full-size
/// table. Extraction failures go to shard 0; they only touch shared
/// counters on their reject path.
fn tx_shard(n: usize, tuple: Option<&FiveTuple>) -> usize {
    tuple.map_or(0, |t| {
        (crc32(&t.canonical_array()) >> 16) as usize & (n - 1)
    })
}

/// Receive shard: the wire sfl (first 8 payload bytes, big-endian) mod
/// the shard count — the transmit side's strided allocators guarantee
/// `sfl % N` IS the owning shard there, and any consistent partition
/// works here. Short payloads go to shard 0 and fail header parsing.
fn rx_shard(n: usize, payload: &[u8]) -> usize {
    if payload.len() >= 8 {
        let sfl = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
        (sfl as usize) & (n - 1)
    } else {
        0
    }
}

/// Zero-message key derivation via the shared keying service. `peer` is
/// the remote principal, `(src, dst)` the derivation direction. Safe to
/// call with shard state in hand: the shard is plain owned data, so the
/// old rule against holding a shard lock across an MKD call is moot.
fn derive_key(
    shared: &HookShared,
    sfl: u64,
    peer: &Principal,
    src: &Principal,
    dst: &Principal,
    obs: &Option<Arc<MetricsRegistry>>,
) -> Result<Arc<SealedFlowKey>, FbsError> {
    let t0 = obs.as_ref().map(|_| shared.clock.now_micros());
    let timer = obs.as_ref().map(|_| StageTimer::start());
    let master = shared.keying.master_key(peer)?;
    // seal_for (via seal_key) pre-builds every schedule the configured
    // suite needs — TDEA subkeys, the ChaCha key, the cached MAC key
    // prefix — so the per-datagram path never initializes lazily.
    let k = Arc::new(shared.ep_cfg.seal_key(derive_flow_key(
        shared.ep_cfg.key_derivation,
        sfl,
        &master,
        src,
        dst,
    )));
    if let (Some(reg), Some(t0)) = (obs.as_ref(), t0) {
        reg.record(Event::KeyDerivation {
            micros: shared.clock.now_micros().saturating_sub(t0),
        });
        if let Some(timer) = timer {
            reg.observe_stage(Stage::KeyDerive, timer.elapsed_ns());
        }
    }
    Ok(k)
}

/// Resolve the transmit (sfl, key) for `tuple`. A cache hit completes
/// immediately; a miss reserves the sfl, derives via the keying service,
/// and installs unconditionally — the worker is the shard's only writer,
/// so there is no racing insert to re-check for (a failed derivation
/// burns the reserved sfl, exactly as before).
#[allow(clippy::too_many_arguments)]
fn resolve_tx_key(
    shared: &HookShared,
    shard: &mut Shard,
    tuple: &FiveTuple,
    destination: &Principal,
    now_secs: u64,
    combined: bool,
    payload_len: u64,
    obs: &Option<Arc<MetricsRegistry>>,
) -> Result<(u64, Arc<SealedFlowKey>), FbsError> {
    let sfl = if combined {
        let table = shard
            .combined
            .as_mut()
            .expect("combined path requires table");
        if let Some(hit) = table.probe(tuple, now_secs) {
            return Ok((hit.sfl, hit.key));
        }
        table.reserve_sfl()
    } else {
        let class = shard.fam.classify(*tuple, now_secs, payload_len);
        let id: FlowKeyId = (class.sfl, shared.local.clone(), destination.clone());
        if let Some(k) = shard.tfkc.get_ref(&id) {
            return Ok((class.sfl, Arc::clone(k)));
        }
        class.sfl
    };
    let key = derive_key(shared, sfl, destination, &shared.local, destination, obs)?;
    if combined {
        let table = shard
            .combined
            .as_mut()
            .expect("combined path requires table");
        table.insert(*tuple, sfl, Arc::clone(&key), now_secs);
    } else {
        let id: FlowKeyId = (sfl, shared.local.clone(), destination.clone());
        shard.tfkc.insert(id, Arc::clone(&key));
    }
    Ok((sfl, key))
}

/// The §7.2 protect path, with no verdict handling: classify the datagram
/// into a flow, derive/look up its key, and seal the borrowed plaintext
/// into a supply buffer (fixing up `header`'s length on success). The
/// caller keeps ownership of the original bytes, so no snapshot copy is
/// ever needed for park/fail-open fallbacks.
#[allow(clippy::too_many_arguments)]
fn protect(
    shared: &HookShared,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: &[u8],
    tuple: Option<FiveTuple>,
    ctx: &mut WorkerCtx<'_>,
    now_us: u64,
    cfg: &IpMappingConfig,
    obs: &Option<Arc<MetricsRegistry>>,
) -> Result<Vec<u8>, FbsError> {
    let Some(tuple) = tuple else {
        return Err(FbsError::MalformedHeader("payload too short for 5-tuple"));
    };
    let destination = Principal::from_ipv4(header.dst);
    let now_secs = now_us / 1_000_000;
    let (sfl, key) = resolve_tx_key(
        shared,
        shard,
        &tuple,
        &destination,
        now_secs,
        cfg.combined,
        payload.len() as u64,
        obs,
    )?;
    trace_span(
        obs,
        sfl,
        header.src,
        SpanKind::Classify,
        now_us,
        payload.len() as u64,
    );
    let mut out = ctx.take();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    match shard
        .codec
        .seal_with_key_into(sfl, &key, payload, cfg.encrypt, &mut out)
    {
        Ok(()) => {
            if let Some(reg) = obs.as_ref() {
                if let Some(timer) = timer {
                    reg.observe_stage(Stage::Seal, timer.elapsed_ns());
                }
                reg.incr(suite_counter(shared.ep_cfg.suite, Direction::Output));
            }
            trace_span(
                obs,
                sfl,
                header.src,
                SpanKind::Seal,
                now_us,
                out.len() as u64,
            );
            let delta = out.len() as isize - payload.len() as isize;
            header.grow_payload(delta);
            Ok(out)
        }
        Err(e) => {
            ctx.put(out);
            Err(e)
        }
    }
}

/// Output verdict wrapper: protect, and on a *key-unavailable* failure
/// apply the policy's degradation verdict.
#[allow(clippy::too_many_arguments)]
fn output_item(
    shared: &HookShared,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: Vec<u8>,
    tuple: Option<FiveTuple>,
    ctx: &mut WorkerCtx<'_>,
    now_us: u64,
    cfg: &IpMappingConfig,
    obs: &Option<Arc<MetricsRegistry>>,
) -> HookOutcome {
    record(
        obs,
        Event::HookEntry {
            dir: Direction::Output,
        },
    );
    let verdict = degrade_verdict(cfg);
    // protect borrows the payload, so the original bytes are still owned
    // here for the fall-back verdicts — no snapshot copy needed.
    let res = protect(
        shared, shard, header, &payload, tuple, ctx, now_us, cfg, obs,
    );
    match res {
        Ok(out) => {
            ctx.put(payload);
            shared.stats.protected.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Output,
                    ok: true,
                },
            );
            HookOutcome::Pass(out)
        }
        Err(e) if e.is_key_unavailable() && verdict != KeyUnavailableVerdict::FailClosed => {
            match verdict {
                KeyUnavailableVerdict::FailOpen => {
                    shared.stats.fail_open.fetch_add(1, Ordering::Relaxed);
                    record(
                        obs,
                        Event::Degraded {
                            dir: Direction::Output,
                            open: true,
                        },
                    );
                    record(
                        obs,
                        Event::HookExit {
                            dir: Direction::Output,
                            ok: true,
                        },
                    );
                    shared.stats.protected.fetch_add(1, Ordering::Relaxed); // it did exit the hook ok
                    HookOutcome::Pass(payload)
                }
                KeyUnavailableVerdict::Park => {
                    let timer = obs.as_ref().map(|_| StageTimer::start());
                    match shard.out_park.park((header.clone(), payload), now_us) {
                        Ok(()) => {
                            if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                                reg.observe_stage(Stage::Park, timer.elapsed_ns());
                            }
                            let queued = shard.out_park.len() as u32;
                            record(obs, Event::Parked { queued });
                            trace_note(obs, "parked", "output", now_us, queued as u64);
                            HookOutcome::Park
                        }
                        Err((_, payload)) => {
                            // Overflow hands the datagram back: recycle its
                            // pooled payload instead of leaking it.
                            ctx.put(payload);
                            record(obs, Event::ParkOverflow);
                            shared.stats.output_errors.fetch_add(1, Ordering::Relaxed);
                            record(
                                obs,
                                Event::HookExit {
                                    dir: Direction::Output,
                                    ok: false,
                                },
                            );
                            HookOutcome::Reject(format!("park queue full: {e}"))
                        }
                    }
                }
                KeyUnavailableVerdict::FailClosed => unreachable!("excluded by guard"),
            }
        }
        Err(e) => {
            ctx.put(payload);
            if e.is_key_unavailable() {
                shared.stats.fail_closed.fetch_add(1, Ordering::Relaxed);
                record(
                    obs,
                    Event::Degraded {
                        dir: Direction::Output,
                        open: false,
                    },
                );
            }
            shared.stats.output_errors.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Output,
                    ok: false,
                },
            );
            HookOutcome::Reject(e.to_string())
        }
    }
}

/// The verify path, with no verdict handling: parse the FBS framing,
/// resolve the receive flow key, and recover the borrowed wire payload
/// into a supply buffer (fixing up `header`'s length on success). The
/// MAC *comparison* is deferred into `auth` (MABS-style batch
/// verification): on `Ok((body, true))` the accept/reject decision
/// lands at sub-batch resolution, keyed by `token` (the item's index in
/// the `done` list).
#[allow(clippy::too_many_arguments)]
fn verify(
    shared: &HookShared,
    shard: &mut Shard,
    shard_local: usize,
    header: &mut Ipv4Header,
    payload: &[u8],
    ctx: &mut WorkerCtx<'_>,
    token: usize,
    auth: &mut BatchAuth,
    obs: &Option<Arc<MetricsRegistry>>,
) -> Result<(Vec<u8>, bool), FbsError> {
    let source = Principal::from_ipv4(header.src);
    let (view, used) = HeaderView::parse(payload)?;
    // R3-4: freshness before key lookup, so a stale datagram is rejected
    // as stale even when its key is unavailable.
    shard.codec.check_freshness(view.timestamp)?;
    let id: FlowKeyId = (view.sfl, source.clone(), shared.local.clone());
    let key = if let Some(k) = shard.rfkc.get_ref(&id) {
        Arc::clone(k)
    } else {
        let key = derive_key(shared, view.sfl, &source, &source, &shared.local, obs)?;
        shard.rfkc.insert(id, Arc::clone(&key));
        key
    };
    let mut body = ctx.take();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    match shard.codec.open_with_key_deferred(
        &view,
        &key,
        &payload[used..],
        &mut body,
        token,
        &mut auth.verifier,
    ) {
        Ok(deferred) => {
            if let Some(reg) = obs.as_ref() {
                if let Some(timer) = timer {
                    reg.observe_stage(Stage::Open, timer.elapsed_ns());
                }
                reg.incr(suite_counter(shared.ep_cfg.suite, Direction::Input));
            }
            trace_span(
                obs,
                view.sfl,
                header.dst,
                SpanKind::Open,
                shared.clock.now_micros(),
                body.len() as u64,
            );
            if deferred {
                auth.deferred.push(DeferredOpen {
                    done_idx: token,
                    shard_local,
                    bytes: body.len() as u64,
                });
            }
            let delta = payload.len() as isize - body.len() as isize;
            header.grow_payload(-delta);
            Ok((body, deferred))
        }
        Err(e) => {
            ctx.put(body);
            Err(e)
        }
    }
}

/// Input verdict wrapper. Degradation applies narrowly here:
///
/// * an **unframed** datagram (no FBS header parses) is admitted as-is
///   under fail-open — the counterpart of a fail-open sender;
/// * a **framed** datagram that fails with key-unavailable may be
///   parked; fail-open never admits it (it cannot be verified, and under
///   encryption it is unreadable anyway);
/// * cryptographic failures (MAC, freshness) always reject.
#[allow(clippy::too_many_arguments)]
fn input_item(
    shared: &HookShared,
    shard: &mut Shard,
    shard_local: usize,
    header: &mut Ipv4Header,
    payload: Vec<u8>,
    ctx: &mut WorkerCtx<'_>,
    now_us: u64,
    cfg: &IpMappingConfig,
    token: usize,
    auth: &mut BatchAuth,
    obs: &Option<Arc<MetricsRegistry>>,
) -> HookOutcome {
    record(
        obs,
        Event::HookEntry {
            dir: Direction::Input,
        },
    );
    let verdict = degrade_verdict(cfg);
    let res = verify(
        shared,
        shard,
        shard_local,
        header,
        &payload,
        ctx,
        token,
        auth,
        obs,
    );
    match res {
        Ok((body, deferred)) => {
            // The wire buffer is recycled either way: the deferred
            // verifier copied the shipped tag out of it.
            ctx.put(payload);
            if !deferred {
                shared.stats.verified.fetch_add(1, Ordering::Relaxed);
                record(
                    obs,
                    Event::HookExit {
                        dir: Direction::Input,
                        ok: true,
                    },
                );
            }
            // A deferred item's success accounting (or its flip to
            // Reject) happens at batch resolution.
            HookOutcome::Pass(body)
        }
        Err(FbsError::MalformedHeader(_) | FbsError::UnknownAlgorithm(_))
            if verdict == KeyUnavailableVerdict::FailOpen =>
        {
            shared.stats.fail_open.fetch_add(1, Ordering::Relaxed);
            shared.stats.verified.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::Degraded {
                    dir: Direction::Input,
                    open: true,
                },
            );
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Input,
                    ok: true,
                },
            );
            HookOutcome::Pass(payload)
        }
        Err(e) if e.is_key_unavailable() && verdict == KeyUnavailableVerdict::Park => {
            let sfl = wire_sfl(&payload);
            let timer = obs.as_ref().map(|_| StageTimer::start());
            match shard.in_park.park((header.clone(), payload), now_us) {
                Ok(()) => {
                    if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                        reg.observe_stage(Stage::Park, timer.elapsed_ns());
                    }
                    let queued = shard.in_park.len() as u32;
                    record(obs, Event::Parked { queued });
                    if let Some(sfl) = sfl {
                        trace_span(
                            obs,
                            sfl,
                            header.dst,
                            SpanKind::Parked,
                            now_us,
                            queued as u64,
                        );
                    }
                    HookOutcome::Park
                }
                Err((_, payload)) => {
                    ctx.put(payload);
                    record(obs, Event::ParkOverflow);
                    shared.stats.input_errors.fetch_add(1, Ordering::Relaxed);
                    record(
                        obs,
                        Event::HookExit {
                            dir: Direction::Input,
                            ok: false,
                        },
                    );
                    HookOutcome::Reject(format!("park queue full: {e}"))
                }
            }
        }
        Err(e) => {
            ctx.put(payload);
            if e.is_key_unavailable() {
                shared.stats.fail_closed.fetch_add(1, Ordering::Relaxed);
                record(
                    obs,
                    Event::Degraded {
                        dir: Direction::Input,
                        open: false,
                    },
                );
            }
            shared.stats.input_errors.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Input,
                    ok: false,
                },
            );
            HookOutcome::Reject(e.to_string())
        }
    }
}

/// Refresh worker `w`'s cached parking depths from its owned shards,
/// and mirror its shards' budget ledgers into the `mem.shard.<i>.*`
/// gauges while we are here (same cadence: once per finished sub-batch
/// or control action, never per datagram).
fn refresh_park_depths(shared: &HookShared, w: usize, shards: &[Shard]) {
    let mut out = 0usize;
    let mut inp = 0usize;
    for s in shards {
        out += s.out_park.len();
        inp += s.in_park.len();
    }
    shared.park_depths[w].out.store(out, Ordering::Release);
    shared.park_depths[w].inp.store(inp, Ordering::Release);
    refresh_shard_mem(shared, w);
}

/// Publish worker `w`'s shard budget ledgers as per-shard memory gauges.
fn refresh_shard_mem(shared: &HookShared, w: usize) {
    let Some(reg) = shared.obs_handle() else {
        return;
    };
    let mut si = w;
    while si < shared.n_shards {
        let snap = shared.budgets[si].snapshot();
        reg.set_shard_mem(
            si,
            ShardMemSample {
                tfkc_bytes: snap.tfkc_bytes,
                rfkc_bytes: snap.rfkc_bytes,
                mkc_bytes: snap.mkc_bytes,
                fam_bytes: snap.fam_bytes,
                limit_bytes: snap.limit_bytes,
                exceeded: snap.exceeded_events,
            },
        );
        si += shared.n_workers;
    }
}

/// Suite-labelled crypto counter: which profile sealed/opened the
/// datagram.
fn suite_counter(suite: CipherSuite, dir: Direction) -> Counter {
    match (dir, suite) {
        (Direction::Output, CipherSuite::Paper) => Counter::SealSuitePaper,
        (Direction::Output, CipherSuite::FastDes) => Counter::SealSuiteFastDes,
        (Direction::Output, CipherSuite::AeadChaPoly) => Counter::SealSuiteAead,
        (Direction::Input, CipherSuite::Paper) => Counter::OpenSuitePaper,
        (Direction::Input, CipherSuite::FastDes) => Counter::OpenSuiteFastDes,
        (Direction::Input, CipherSuite::AeadChaPoly) => Counter::OpenSuiteAead,
    }
}

/// Deferred-verification bookkeeping for one tentatively-passed input
/// datagram: which reply slot to flip if batch verification fails, and
/// which shard's codec accounts for the outcome.
struct DeferredOpen {
    /// Index into the current sub-batch's `done` list.
    done_idx: usize,
    /// Local shard index (`si / W`) whose codec opened the datagram.
    shard_local: usize,
    /// Recovered body length, accounted on pass.
    bytes: u64,
}

/// Per-worker batch-authentication state: the MABS-style deferred MAC
/// comparisons of a sub-batch, resolved with one fold (bisection on a
/// dirty fold) before the reply ships. The verifier and scratch vectors
/// are retained across sub-batches, so steady-state resolution
/// allocates nothing.
#[derive(Default)]
struct BatchAuth {
    verifier: BatchVerifier,
    deferred: Vec<DeferredOpen>,
    failed: Vec<usize>,
}

/// Resolve every deferred MAC comparison of the current sub-batch:
/// one constant-time fold accepts the whole clean batch; a dirty fold
/// bisects, and each isolated failure flips its already-staged `Pass`
/// verdict in `done` to `Reject` (recycling the recovered body, so the
/// buffer ledger stays balanced). MUST run before the verdicts leave the
/// worker — including on the quarantine path and for parked datagrams
/// released one at a time — or tentatively-passed datagrams would
/// escape unverified.
fn resolve_batch_auth(
    shared: &HookShared,
    shards: &[Shard],
    auth: &mut BatchAuth,
    done: &mut [DoneItem],
    recycle: &mut Vec<Vec<u8>>,
    obs: &Option<Arc<MetricsRegistry>>,
) {
    if auth.verifier.is_empty() && auth.deferred.is_empty() {
        return;
    }
    let timer = obs.as_ref().map(|_| StageTimer::start());
    auth.failed.clear();
    let stats = auth.verifier.resolve(&mut auth.failed);
    for d in auth.deferred.drain(..) {
        let codec = &shards[d.shard_local].codec;
        let entry = &mut done[d.done_idx];
        if !matches!(entry.2, HookOutcome::Pass(_)) {
            // A supervised panic struck between the tag enqueue and the
            // verdict push: the item already carries the supervisor's
            // Reject, nothing to account here.
            continue;
        }
        if auth.failed.contains(&d.done_idx) {
            codec.note_deferred_mac_drop();
            let old = std::mem::replace(
                &mut entry.2,
                HookOutcome::Reject("bad MAC (batch verify)".into()),
            );
            if let HookOutcome::Pass(body) = old {
                recycle.push(body);
            }
            shared.stats.input_errors.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Input,
                    ok: false,
                },
            );
        } else {
            codec.note_deferred_pass(d.bytes);
            shared.stats.verified.fetch_add(1, Ordering::Relaxed);
            record(
                obs,
                Event::HookExit {
                    dir: Direction::Input,
                    ok: true,
                },
            );
        }
    }
    if let Some(reg) = obs.as_ref() {
        reg.incr(Counter::BatchAuthResolutions);
        reg.add(Counter::BatchAuthChecked, stats.checked as u64);
        reg.add(Counter::BatchAuthFolds, stats.folds);
        reg.add(Counter::BatchAuthBisections, stats.bisections);
        reg.add(Counter::BatchAuthRejected, stats.rejected as u64);
        if let Some(timer) = timer {
            reg.observe_stage(Stage::BatchVerify, timer.elapsed_ns());
        }
    }
}

/// The sub-batch a worker is processing right now, with an explicit
/// cursor (`next`). The cursor lives OUTSIDE the panic boundary: when an
/// item panics mid-processing, the supervisor can see exactly which
/// datagram died, give it a `Reject` verdict plus replacement buffers,
/// and resume the remaining items — so one poisoned datagram costs one
/// verdict, never a batch or a worker.
struct CurrentSub {
    /// The lane this sub-batch arrived on (its reply goes back here).
    lane: Arc<Lane>,
    dir: Direction,
    now_us: u64,
    items: Vec<WorkItem>,
    /// Index of the first unprocessed item.
    next: usize,
    /// `supplies.len()` as of the start of the item at `next` — the
    /// difference after an unwind is the number of supply buffers the
    /// dying item consumed and the unwind freed.
    supply_mark: usize,
    supplies: Vec<Vec<u8>>,
    done: Vec<DoneItem>,
    recycle: Vec<Vec<u8>>,
}

/// Everything a worker owns across panic-supervision boundaries. Held
/// by `worker_main` outside `catch_unwind`, so a supervised panic never
/// loses shard state, the in-flight sub-batch, or buffers staged for
/// recycling.
struct WorkerState {
    shards: Vec<Shard>,
    lanes: Vec<Arc<Lane>>,
    seen_epoch: u64,
    current: Option<CurrentSub>,
    /// Buffers with no sub-batch to ride home on yet (e.g. park
    /// evictions during quarantine); appended to the next reply.
    pending_recycle: Vec<Vec<u8>>,
    /// Bumped per respawn; salts rebuilt shard seeds.
    generation: u64,
    /// Supervised respawns so far (compared against the policy budget).
    respawns: u32,
    /// Deferred MAC comparisons for the current sub-batch. Lives here —
    /// outside the panic boundary — so a supervised panic never loses
    /// pending tags: they resolve when the sub-batch finishes or is
    /// quarantine-rejected.
    auth: BatchAuth,
}

/// Stage a freshly popped sub-batch as the worker's current work.
fn begin_current(state: &mut WorkerState, lane: &Arc<Lane>, sub: SubBatch) {
    let SubBatch {
        dir,
        now_us,
        items,
        supplies,
        mut done,
        mut recycle,
    } = sub;
    done.clear();
    done.reserve(items.len());
    recycle.clear();
    state.current = Some(CurrentSub {
        lane: Arc::clone(lane),
        dir,
        now_us,
        items,
        next: 0,
        supply_mark: supplies.len(),
        supplies,
        done,
        recycle,
    });
}

/// Finish the current sub-batch against the worker's owned shards and
/// ship the reply: run its remaining items to completion, or — with
/// `reject`, the quarantine path — give every one of them a `Reject`
/// verdict, so the producer unblocks with a complete verdict set either
/// way. Shard `si` lives at local index `si / W` (the partition stage
/// only routes `si ≡ w (mod W)` here). Unused supplies ride home on the
/// recycle list so the producer's pool ledger stays balanced. Processing
/// happens IN PLACE on `state.current`: if an item panics, the unwind
/// leaves the cursor and every untouched buffer intact for the
/// supervisor.
fn finish_current(shared: &HookShared, w: usize, state: &mut WorkerState, reject: bool) {
    let WorkerState {
        shards,
        current,
        pending_recycle,
        auth,
        ..
    } = state;
    let Some(cur) = current.as_mut() else {
        return;
    };
    let obs = shared.obs_handle();
    let mut busy = None;
    if reject {
        let from = cur.next;
        for (slot, _si, header, payload, _tuple) in cur.items.drain(from..) {
            cur.recycle.push(payload);
            cur.done.push((
                slot,
                header,
                HookOutcome::Reject("worker quarantined after panic".into()),
            ));
        }
    } else {
        // Chaos taps come first, so an injected panic unwinds with the
        // cursor at the first unprocessed item — the supervisor then pays
        // exactly one Reject for it. Stalls are wall-clock sleeps: they add
        // latency (visible in stage spans) but touch no virtual-time
        // counter, keeping seeded runs byte-identical.
        if let Some(chaos) = (*shared.chaos.load()).clone() {
            let stall = chaos
                .take_stall_us(w, cur.now_us)
                .min(MAX_INJECTED_STALL_US);
            if stall > 0 {
                std::thread::sleep(Duration::from_micros(stall));
            }
            if chaos.take_panic(w, cur.now_us) {
                panic!("injected worker panic (chaos)");
            }
        }
        let cfg = shared.cfg.load();
        busy = obs.as_ref().map(|_| StageTimer::start());
        if let Some(reg) = &obs {
            reg.incr(Counter::WorkerBatches);
        }
        let CurrentSub {
            dir,
            now_us,
            items,
            next,
            supply_mark,
            supplies,
            done,
            recycle,
            ..
        } = cur;
        while *next < items.len() {
            *supply_mark = supplies.len();
            let (slot, si, header, payload, tuple) = &mut items[*next];
            let payload = std::mem::take(payload);
            let tuple = *tuple;
            let shard_local = *si / shared.n_workers;
            let shard = &mut shards[shard_local];
            let mut ctx = WorkerCtx {
                supplies: &mut *supplies,
                recycle: &mut *recycle,
            };
            // The item's verdict will land at this `done` index; the
            // deferred verifier uses it as the correlation token.
            let token = done.len();
            let outcome = match *dir {
                Direction::Output => output_item(
                    shared, shard, header, payload, tuple, &mut ctx, *now_us, &cfg, &obs,
                ),
                Direction::Input => input_item(
                    shared,
                    shard,
                    shard_local,
                    header,
                    payload,
                    &mut ctx,
                    *now_us,
                    &cfg,
                    token,
                    auth,
                    &obs,
                ),
            };
            done.push((*slot, header.clone(), outcome));
            *next += 1;
        }
    }
    // Deferred MAC comparisons resolve BEFORE the reply ships — on the
    // reject path too, for items processed before the quarantine — so
    // the producer only ever sees final verdicts.
    resolve_batch_auth(shared, shards, auth, &mut cur.done, &mut cur.recycle, &obs);
    let mut fin = current.take().expect("current sub-batch still staged");
    fin.items.clear();
    fin.recycle.append(&mut fin.supplies);
    fin.recycle.append(pending_recycle);
    refresh_park_depths(shared, w, shards);
    if let (Some(reg), Some(busy)) = (obs.as_ref(), busy) {
        reg.worker_busy(w, busy.elapsed_ns());
    }
    let lane = Arc::clone(&fin.lane);
    push_reply(
        &lane,
        w,
        SubReply {
            done: fin.done,
            recycle: fin.recycle,
            items: fin.items,
            supplies: fin.supplies,
        },
    );
}

/// Post-panic cleanup for the item the unwind interrupted: give it a
/// `Reject` verdict and rebalance the buffer ledger. The item's payload
/// (and any supplies it popped) were freed by the unwind, so replacement
/// buffers of the pool's standard capacity ride the recycle list home —
/// the producer's pool only counts buffers, not identities.
fn abort_current_item(state: &mut WorkerState) {
    let Some(cur) = state.current.as_mut() else {
        return;
    };
    if cur.next < cur.items.len() {
        let (slot, _si, header, payload, _tuple) = &mut cur.items[cur.next];
        let taken = std::mem::take(payload);
        if taken.capacity() == 0 {
            // The unwind freed the real payload mid-item: replace it.
            cur.recycle
                .push(Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY));
        } else {
            // The panic struck before the item's payload was taken
            // (e.g. an injected panic at sub-batch entry): the original
            // buffer is intact, recycle it directly.
            cur.recycle.push(taken);
        }
        cur.done.push((
            *slot,
            header.clone(),
            HookOutcome::Reject("worker panicked mid-datagram".into()),
        ));
        cur.next += 1;
    }
    let lost = cur.supply_mark.saturating_sub(cur.supplies.len());
    for _ in 0..lost {
        cur.recycle
            .push(Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY));
    }
    cur.supply_mark = cur.supplies.len();
}

/// Rebuild every shard this worker owns after a supervised panic. Hard
/// state that cannot be trusted (FAM/FST rows, flow-key caches, codec
/// confounder positions) is discarded — it is all soft state by design
/// (§5.3) and re-warms through normal misses. Parked datagrams are NOT
/// soft state (they are caller data) and survive the rebuild; their
/// deadlines keep ticking in the carried-over queues.
fn rebuild_shards(shared: &HookShared, w: usize, state: &mut WorkerState) {
    state.generation += 1;
    let obs = shared.obs_handle();
    let old = std::mem::take(&mut state.shards);
    for (local, old_shard) in old.into_iter().enumerate() {
        let si = w + local * shared.n_workers;
        let mut fresh = shared.build_shard(si, state.generation);
        fresh.out_park = old_shard.out_park;
        fresh.in_park = old_shard.in_park;
        if let Some(reg) = &obs {
            cascade_obs(&mut fresh, reg);
        }
        state.shards.push(fresh);
    }
    refresh_park_depths(shared, w, &state.shards);
}

/// Push a reply to the producer, then wake it. The reply ring can hold
/// as many sub-batches as the ingress ring, so this never blocks in the
/// steady protocol; the spin is a defensive fallback.
fn push_reply(lane: &Lane, w: usize, mut reply: SubReply) {
    loop {
        match lane.from_worker[w].try_push(reply) {
            Ok(()) => break,
            Err(back) => {
                reply = back;
                std::thread::yield_now();
            }
        }
    }
    if let Some(t) = lane.producer.lock().as_ref() {
        t.unpark();
    }
}

/// Park release loop for one worker's owned shards (output direction):
/// expire the overdue, then retry protection for the rest — skipping
/// (and re-parking) everything headed for a peer whose circuit breaker
/// would fast-fail, so a wall of parked traffic cannot hammer a
/// known-broken keying path. Returns released datagrams plus consumed
/// buffers for the caller's pool; retries draw fresh buffers (the
/// control plane ships no supplies — releases are rare).
fn release_output_worker(shared: &HookShared, shards: &mut [Shard], now_us: u64) -> ReleasedBatch {
    let cfg = shared.cfg.load();
    let obs = shared.obs_handle();
    let mut ready = Vec::new();
    let mut recycle = Vec::new();
    let mut supplies: Vec<Vec<u8>> = Vec::new();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    let mut did_work = false;
    for shard in shards.iter_mut() {
        for expired in shard.out_park.take_expired(now_us) {
            let (_header, payload) = expired.item;
            recycle.push(payload);
            record(&obs, Event::ParkExpired);
            trace_note(&obs, "park_expired", "output", now_us, 0);
            did_work = true;
        }
        if shard.out_park.is_empty() {
            continue;
        }
        for entry in shard.out_park.take_all() {
            did_work = true;
            let Parked {
                item: (mut header, payload),
                parked_at_us,
                deadline_us,
            } = entry;
            let peer = Principal::from_ipv4(header.dst);
            if shared.keying.would_fast_fail(&peer) {
                if let Err((_, payload)) = shard.out_park.repark(Parked {
                    item: (header, payload),
                    parked_at_us,
                    deadline_us,
                }) {
                    recycle.push(payload);
                    record(&obs, Event::ParkOverflow);
                }
                continue;
            }
            let tuple = tuple_for(&header, &payload);
            let res = {
                let mut ctx = WorkerCtx {
                    supplies: &mut supplies,
                    recycle: &mut recycle,
                };
                protect(
                    shared,
                    shard,
                    &mut header,
                    &payload,
                    tuple,
                    &mut ctx,
                    now_us,
                    &cfg,
                    &obs,
                )
            };
            match res {
                Ok(protected) => {
                    let waited_us = shard.out_park.note_released(parked_at_us, now_us);
                    shared.stats.protected.fetch_add(1, Ordering::Relaxed);
                    record(&obs, Event::ParkReleased { waited_us });
                    record(
                        &obs,
                        Event::HookExit {
                            dir: Direction::Output,
                            ok: true,
                        },
                    );
                    // The sealed payload leads with the sfl the flow
                    // finally resolved to — the released trace span
                    // joins the flow the park had no identity for.
                    if let Some(sfl) = wire_sfl(&protected) {
                        trace_span(&obs, sfl, header.src, SpanKind::Released, now_us, waited_us);
                    }
                    recycle.push(payload);
                    ready.push((header, protected));
                }
                Err(e) if e.is_key_unavailable() => {
                    // Still no key: back to the queue with the original
                    // deadline (drops at expiry, never grows unbounded).
                    // protect only borrowed the payload, so it is still
                    // owned here.
                    trace_note(&obs, "reparked", "output", now_us, 0);
                    if let Err((_, payload)) = shard.out_park.repark(Parked {
                        item: (header, payload),
                        parked_at_us,
                        deadline_us,
                    }) {
                        recycle.push(payload);
                        record(&obs, Event::ParkOverflow);
                    }
                }
                Err(_) => {
                    shared.stats.output_errors.fetch_add(1, Ordering::Relaxed);
                    record(
                        &obs,
                        Event::HookExit {
                            dir: Direction::Output,
                            ok: false,
                        },
                    );
                    recycle.push(payload);
                }
            }
        }
    }
    if did_work {
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Release, timer.elapsed_ns());
        }
    }
    recycle.append(&mut supplies);
    (ready, recycle)
}

/// Park release loop for parked input datagrams, mirroring
/// [`release_output_worker`] with the peer taken from the source
/// address; the consumed wire payload of every verified release is
/// recycled.
fn release_input_worker(shared: &HookShared, shards: &mut [Shard], now_us: u64) -> ReleasedBatch {
    let obs = shared.obs_handle();
    let mut ready = Vec::new();
    let mut recycle = Vec::new();
    let mut supplies: Vec<Vec<u8>> = Vec::new();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    let mut did_work = false;
    // Park release is a slow path: deferred comparisons resolve
    // immediately as batches of one, reusing one scratch verifier.
    let mut auth = BatchAuth::default();
    for shard_local in 0..shards.len() {
        let shard = &mut shards[shard_local];
        for expired in shard.in_park.take_expired(now_us) {
            let (header, payload) = expired.item;
            if let Some(sfl) = wire_sfl(&payload) {
                trace_span(&obs, sfl, header.dst, SpanKind::Expired, now_us, 0);
            }
            recycle.push(payload);
            record(&obs, Event::ParkExpired);
            did_work = true;
        }
        if shard.in_park.is_empty() {
            continue;
        }
        for entry in shard.in_park.take_all() {
            let shard = &mut shards[shard_local];
            did_work = true;
            let Parked {
                item: (mut header, payload),
                parked_at_us,
                deadline_us,
            } = entry;
            let peer = Principal::from_ipv4(header.src);
            if shared.keying.would_fast_fail(&peer) {
                if let Err((_, payload)) = shard.in_park.repark(Parked {
                    item: (header, payload),
                    parked_at_us,
                    deadline_us,
                }) {
                    recycle.push(payload);
                    record(&obs, Event::ParkOverflow);
                }
                continue;
            }
            let res = {
                let mut ctx = WorkerCtx {
                    supplies: &mut supplies,
                    recycle: &mut recycle,
                };
                verify(
                    shared,
                    shard,
                    shard_local,
                    &mut header,
                    &payload,
                    &mut ctx,
                    0,
                    &mut auth,
                    &obs,
                )
            };
            match res {
                Ok((body, deferred)) => {
                    // The tentative verdict goes through the same
                    // resolver as a sub-batch's: it accounts a deferred
                    // pass, or flips a forgery to `Reject` and recycles
                    // the body.
                    let mut done = [(0, header, HookOutcome::Pass(body))];
                    resolve_batch_auth(shared, shards, &mut auth, &mut done, &mut recycle, &obs);
                    let [(_, header, outcome)] = done;
                    let HookOutcome::Pass(body) = outcome else {
                        recycle.push(payload);
                        continue;
                    };
                    if !deferred {
                        shared.stats.verified.fetch_add(1, Ordering::Relaxed);
                        record(
                            &obs,
                            Event::HookExit {
                                dir: Direction::Input,
                                ok: true,
                            },
                        );
                    }
                    let waited_us = shards[shard_local]
                        .in_park
                        .note_released(parked_at_us, now_us);
                    record(&obs, Event::ParkReleased { waited_us });
                    if let Some(sfl) = wire_sfl(&payload) {
                        trace_span(&obs, sfl, header.dst, SpanKind::Released, now_us, waited_us);
                    }
                    recycle.push(payload);
                    ready.push((header, body));
                }
                Err(e) if e.is_key_unavailable() => {
                    if let Some(sfl) = wire_sfl(&payload) {
                        trace_span(&obs, sfl, header.dst, SpanKind::Reparked, now_us, 0);
                    }
                    if let Err((_, payload)) = shard.in_park.repark(Parked {
                        item: (header, payload),
                        parked_at_us,
                        deadline_us,
                    }) {
                        recycle.push(payload);
                        record(&obs, Event::ParkOverflow);
                    }
                }
                Err(_) => {
                    shared.stats.input_errors.fetch_add(1, Ordering::Relaxed);
                    record(
                        &obs,
                        Event::HookExit {
                            dir: Direction::Input,
                            ok: false,
                        },
                    );
                    recycle.push(payload);
                }
            }
        }
    }
    if did_work {
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Release, timer.elapsed_ns());
        }
    }
    recycle.append(&mut supplies);
    (ready, recycle)
}

/// Handle one control-plane message on the worker thread. A quarantined
/// worker still answers everything — statistics, flushes, and drains
/// stay observable — but drained sub-batches get rejected rather than
/// processed (its shard state is no longer trusted).
fn handle_control(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    msg: Control,
    quarantined: bool,
) {
    match msg {
        Control::AttachObs(reg, ack) => {
            for s in state.shards.iter_mut() {
                cascade_obs(s, &reg);
            }
            let _ = ack.send(());
        }
        Control::FlushKeys(ack) => {
            for s in state.shards.iter_mut() {
                s.tfkc.clear();
                s.rfkc.clear();
                if let Some(t) = &mut s.combined {
                    t.clear();
                }
            }
            let _ = ack.send(());
        }
        Control::Occupancy(now_secs, reply) => {
            let rows = state
                .shards
                .iter()
                .enumerate()
                .map(|(idx, s)| {
                    let active = match &s.combined {
                        Some(c) => c.active_flows(now_secs),
                        None => s.fam.active_flows(now_secs),
                    };
                    (w + idx * shared.n_workers, active)
                })
                .collect();
            let _ = reply.send(rows);
        }
        Control::ParkStats(reply) => {
            let mut out = ParkStats::default();
            let mut inp = ParkStats::default();
            for s in state.shards.iter() {
                for (sum, st) in [
                    (&mut out, s.out_park.stats()),
                    (&mut inp, s.in_park.stats()),
                ] {
                    sum.parked += st.parked;
                    sum.released += st.released;
                    sum.expired += st.expired;
                    sum.overflow += st.overflow;
                    sum.peak_depth = sum.peak_depth.max(st.peak_depth);
                }
            }
            let _ = reply.send((out, inp));
        }
        Control::Release { dir, now_us, reply } => {
            let result = match dir {
                Direction::Output => release_output_worker(shared, &mut state.shards, now_us),
                Direction::Input => release_input_worker(shared, &mut state.shards, now_us),
            };
            refresh_park_depths(shared, w, &state.shards);
            let _ = reply.send(result);
        }
        Control::Drain(ack) => {
            drain_lanes(shared, w, state, quarantined);
            let _ = ack.send(());
        }
    }
}

/// Reload the lane snapshot if its epoch moved, then pop every ingress
/// ring dry, finishing each sub-batch as it comes off (rejecting it
/// whole when `quarantined`). The only consumer of `to_worker[w]`.
/// Returns whether anything was popped.
fn drain_lanes(shared: &HookShared, w: usize, state: &mut WorkerState, quarantined: bool) -> bool {
    let epoch = shared.lanes_epoch.load(Ordering::Acquire);
    if epoch != state.seen_epoch {
        state.seen_epoch = epoch;
        state.lanes.clear();
        state
            .lanes
            .extend(shared.lanes_snapshot.load().iter().cloned());
    }
    let mut did_work = false;
    for li in 0..state.lanes.len() {
        let lane = Arc::clone(&state.lanes[li]);
        while let Some(sub) = lane.to_worker[w].try_pop() {
            begin_current(state, &lane, sub);
            finish_current(shared, w, state, quarantined);
            did_work = true;
        }
    }
    did_work
}

/// The run-to-completion worker loop, in both of its modes: live
/// (supervised by `worker_main`) and `quarantined` (fail-closed terminal
/// mode — same loop, every datagram rejected). Finishes a sub-batch a
/// supervised panic interrupted, drains the control mailbox, reloads
/// the lane snapshot when its epoch moved, drains every ingress ring,
/// and spins/parks when idle. Returns only when `shutdown` is set AND a
/// full pass found nothing to do — so every buffered sub-batch is
/// processed before the thread dies (drain-then-shutdown). A panic
/// anywhere inside unwinds to the caller with `state` intact.
fn worker_loop(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    ctl: &mpsc::Receiver<Control>,
    quarantined: bool,
) {
    let mut idle = 0u32;
    loop {
        let mut did_work = false;
        // A sub-batch interrupted by a supervised panic finishes before
        // anything new is taken on — its producer is still parked on the
        // reply.
        if state.current.is_some() {
            finish_current(shared, w, state, quarantined);
            did_work = true;
        }
        while let Ok(msg) = ctl.try_recv() {
            handle_control(shared, w, state, msg, quarantined);
            did_work = true;
        }
        did_work |= drain_lanes(shared, w, state, quarantined);
        if did_work {
            idle = 0;
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        idle += 1;
        if idle < 64 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
}

/// Fail-closed terminal mode: keep the thread (and its mailbox, rings,
/// and buffer ledger) alive, but reject every datagram. Parked datagrams
/// are evicted up front — their keys will never arrive on a worker that
/// stopped processing — and their buffers ride the next reply home.
fn quarantine(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    ctl: &mpsc::Receiver<Control>,
) {
    shared.quarantined[w].store(true, Ordering::Release);
    // Finish (by rejecting) any sub-batch the panic interrupted, so its
    // producer unblocks with a complete verdict set.
    finish_current(shared, w, state, true);
    for shard in state.shards.iter_mut() {
        for p in shard.out_park.take_all() {
            state.pending_recycle.push(p.item.1);
        }
        for p in shard.in_park.take_all() {
            state.pending_recycle.push(p.item.1);
        }
    }
    refresh_park_depths(shared, w, &state.shards);
    worker_loop(shared, w, state, ctl, true);
}

/// Worker thread entry point: run [`worker_loop`] under in-thread panic
/// supervision. Catching the unwind HERE — rather than letting the
/// thread die and respawning a new one — keeps every externally visible
/// invariant intact across a panic: the SPSC consumer identity, the
/// control mailbox, the parked thread handle, and `workers_alive` (which
/// therefore only moves on real shutdown, making it a meaningful
/// liveness gate). Respawn is a rebuild of shard state inside the same
/// thread; quarantine is a mode switch, not an exit.
fn worker_main(
    shared: Arc<HookShared>,
    w: usize,
    shards: Vec<Shard>,
    ctl: mpsc::Receiver<Control>,
) {
    /// Decrements `workers_alive` even on an unsupervised death, so a
    /// stuck producer detects it instead of spinning forever.
    struct Alive<'a>(&'a HookShared);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.workers_alive.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _alive = Alive(&shared);
    let mut state = WorkerState {
        shards,
        lanes: Vec::new(),
        seen_epoch: u64::MAX,
        current: None,
        pending_recycle: Vec::new(),
        generation: 0,
        respawns: 0,
        auth: BatchAuth::default(),
    };
    loop {
        // AssertUnwindSafe: `state` lives outside the boundary by
        // design — the supervisor's whole job is to repair the
        // potentially inconsistent pieces (the current item's buffers
        // via `abort_current_item`, shard state via `rebuild_shards`)
        // before anyone observes them.
        match catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&shared, w, &mut state, &ctl, false)
        })) {
            Ok(()) => break,
            Err(_payload) => {
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                let obs = shared.obs_handle();
                if let Some(reg) = &obs {
                    reg.worker_panic(w);
                }
                abort_current_item(&mut state);
                let respawn = match shared.cfg.load().worker_fault {
                    WorkerFaultPolicy::Respawn { max_respawns } => state.respawns < max_respawns,
                    WorkerFaultPolicy::FailClosed => false,
                };
                if respawn {
                    state.respawns += 1;
                    shared.worker_respawns.fetch_add(1, Ordering::Relaxed);
                    if let Some(reg) = &obs {
                        reg.incr(Counter::WorkerRespawns);
                    }
                    rebuild_shards(&shared, w, &mut state);
                    // Loop back under a fresh unwind boundary; the
                    // interrupted sub-batch (cursor already advanced
                    // past the poisoned item) finishes first.
                } else {
                    quarantine(&shared, w, &mut state, &ctl);
                    break;
                }
            }
        }
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
/// [`SecurityHooks::process_batch`] calls, with sub-batch vectors
/// round-tripping through the workers, so steady-state batching does
/// not allocate. Never shared — each clone starts its own (empty) set.
#[derive(Default)]
struct Scratch {
    items: Vec<Vec<WorkItem>>,
    supplies: Vec<Vec<Vec<u8>>>,
    done_spares: Vec<Vec<DoneItem>>,
    recycle_spares: Vec<Vec<Vec<u8>>>,
    slots: Vec<Option<(Ipv4Header, HookOutcome)>>,
    /// Submission-order header copies, so a slot whose sub-batch is
    /// stranded in a dead worker's ring can still be failed closed with
    /// its real header (plain-old-data copy, no allocation).
    headers: Vec<Ipv4Header>,
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
    /// gets its own [`FlowCodec`] and full-geometry table slices. Spawns
    /// the `workers` shard-owning threads; they are joined when the last
    /// clone of the returned handle drops.
    pub fn new(endpoint: FbsEndpoint, cfg: IpMappingConfig, sfl_seed: u64) -> Self {
        let (local, ep_cfg, clock, seed, mkd) = endpoint.into_keying_parts();
        let mut cfg = cfg;
        let n = cfg.shards.max(1).next_power_of_two();
        cfg.shards = n;
        let workers = cfg.workers.clamp(1, n);
        cfg.workers = workers;
        let budget_bytes = cfg.shard_budget_bytes;
        let keying = KeyingService::new(mkd, ep_cfg.mkc_slots, n);
        let mut controls = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel();
            controls.push(Mutex::new(tx));
            receivers.push(rx);
        }
        let shared = Arc::new(HookShared {
            keying,
            local,
            clock,
            ep_cfg,
            codec_seed: seed,
            sfl_seed,
            cfg: Published::new(cfg),
            stats: AtomicHookStats::default(),
            endpoint_stats: Arc::new(fbs_core::AtomicEndpointStats::new()),
            tfkc_stats: Arc::new(AtomicCacheStats::new()),
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
            park_depths: (0..workers).map(|_| ParkDepths::default()).collect(),
            budgets: (0..n)
                .map(|_| MemoryBudget::bounded(budget_bytes))
                .collect(),
        });
        // Worker w owns shards { si : si % workers == w }, stored at
        // local index si / workers. Generation 0: the same shards a
        // post-panic rebuild derives, so supervised respawns change
        // nothing but the soft-state seeds.
        let mut per_worker: Vec<Vec<Shard>> = (0..workers).map(|_| Vec::new()).collect();
        for i in 0..n {
            per_worker[i % workers].push(shared.build_shard(i, 0));
        }
        let mut joins = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
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
    /// the registry cascades into every shard's codec, FAM, combined
    /// table, and caches (via a control round-trip to each owning
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

    /// TFKC statistics (separate path) — all zeros under `combined`.
    /// Lock-free.
    pub fn tfkc_stats(&self) -> fbs_core::CacheStats {
        self.shared.tfkc_stats.snapshot()
    }

    /// RFKC statistics — lock-free.
    pub fn rfkc_stats(&self) -> fbs_core::CacheStats {
        self.shared.rfkc_stats.snapshot()
    }

    /// MKD statistics (upcalls = master key computations) — lock-free.
    pub fn mkd_stats(&self) -> fbs_core::mkd::MkdStats {
        self.shared.keying.mkd_stats()
    }

    /// Combined-table statistics, when the §7.2 path is active.
    /// Lock-free.
    pub fn combined_stats(&self) -> Option<crate::combined::CombinedStats> {
        self.shared
            .cfg
            .load()
            .combined
            .then(|| self.shared.combined_stats.snapshot())
    }

    /// Number of flow-state shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shared.n_shards
    }

    /// Number of shard-owning worker threads.
    pub fn num_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// Times a batch found a worker's ingress ring full and had to
    /// stall — lock-free. The worker-runtime analogue of the old
    /// shard-lock contention counter.
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

    /// Drop all flow-key soft state (TFKC, RFKC, and the combined
    /// FST/TFKC when present) — a mid-flow cache flush. Always safe:
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
        for w in 0..self.shared.n_workers {
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
            for (sum, s) in [(&mut out, o), (&mut inp, i)] {
                sum.parked += s.parked;
                sum.released += s.released;
                sum.expired += s.expired;
                sum.overflow += s.overflow;
                sum.peak_depth = sum.peak_depth.max(s.peak_depth);
            }
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

    /// Worst-case payload growth for the configured algorithms: the
    /// security flow header exactly as the codec frames it, and up to 7
    /// bytes of DES block padding.
    fn overhead_of(cfg: &IpMappingConfig) -> usize {
        let padding = if cfg.encrypt { 7 } else { 0 };
        cfg.fbs.wire_header_len() + padding
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

    fn max_overhead(&self) -> usize {
        Self::overhead_of(&self.shared.cfg.load())
    }

    /// The single processing entry point (the scalar `output`/`input`
    /// trait defaults wrap it): partition the batch into per-worker
    /// sub-batches ONCE, ship them over this handle's SPSC lane with one
    /// supply buffer per datagram, then collect replies and re-thread
    /// the outcomes into submission order. Synchronous at batch
    /// granularity; acquires no shard lock anywhere.
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
        let lane = self.lane();
        let shared = Arc::clone(&self.shared);
        let cfg_obs = shared.obs_handle();
        let obs = &cfg_obs;
        let n = shared.n_shards;
        let nw = shared.n_workers;
        let total = batch.len();
        let scratch = &mut self.scratch;
        if scratch.items.len() < nw {
            scratch.items.resize_with(nw, Vec::new);
        }
        if scratch.supplies.len() < nw {
            scratch.supplies.resize_with(nw, Vec::new);
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
            scratch.items[si % nw].push((slot, si, header, payload, tuple));
        }
        scratch.slots.clear();
        scratch.slots.resize_with(total, || None);
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Partition, timer.elapsed_ns());
        }
        // Register as this lane's producer so workers can unpark us when
        // a reply lands.
        *lane.producer.lock() = Some(std::thread::current());
        let timer = obs.as_ref().map(|_| StageTimer::start());
        let cfg = shared.cfg.load();
        let chaos = (*shared.chaos.load()).clone();
        let mut outstanding = 0usize;
        for w in 0..nw {
            if scratch.items[w].is_empty() {
                continue;
            }
            let items = std::mem::take(&mut scratch.items[w]);
            let mut supplies = std::mem::take(&mut scratch.supplies[w]);
            pool.take_n_into(items.len(), &mut supplies);
            let mut sub = SubBatch {
                dir,
                now_us,
                items,
                supplies,
                done: scratch.done_spares.pop().unwrap_or_default(),
                recycle: scratch.recycle_spares.pop().unwrap_or_default(),
            };
            // Chaos can pin a ring "full" from the producer side (the
            // worker keeps draining at virtual time, so seeded runs stay
            // deterministic); it exercises exactly the shed path a truly
            // wedged worker would.
            let mut shed_sub = None;
            if chaos.as_ref().is_some_and(|c| c.ring_saturated(w, now_us)) {
                shared.ring_stalls.fetch_add(1, Ordering::Relaxed);
                if let Some(reg) = obs.as_ref() {
                    reg.incr(Counter::RingStalls);
                    reg.worker_stall(w, 0);
                }
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
                            shared.ring_stalls.fetch_add(1, Ordering::Relaxed);
                            match obs.as_ref() {
                                Some(reg) => {
                                    reg.incr(Counter::RingStalls);
                                    let stall = StageTimer::start();
                                    shared.wake_worker(w);
                                    std::thread::yield_now();
                                    reg.worker_stall(w, stall.elapsed_ns());
                                }
                                None => {
                                    shared.wake_worker(w);
                                    std::thread::yield_now();
                                }
                            }
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
            if let Some(sub) = shed_sub {
                // Shed per-datagram: every item gets a Reject verdict in
                // its submission slot and every buffer goes back to the
                // pool — counted, never silently dropped.
                let SubBatch {
                    mut items,
                    mut supplies,
                    done,
                    recycle,
                    ..
                } = sub;
                pool.put_all(&mut supplies);
                let shed_n = items.len() as u64;
                for (slot, _si, header, payload, _tuple) in items.drain(..) {
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
                scratch.items[w] = items;
                scratch.supplies[w] = supplies;
                scratch.done_spares.push(done);
                scratch.recycle_spares.push(recycle);
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
                    let SubReply {
                        mut done,
                        mut recycle,
                        items,
                        supplies,
                    } = reply;
                    for (slot, header, outcome) in done.drain(..) {
                        scratch.slots[slot] = Some((header, outcome));
                    }
                    pool.put_all(&mut recycle);
                    scratch.done_spares.push(done);
                    scratch.recycle_spares.push(recycle);
                    scratch.items[w] = items;
                    scratch.supplies[w] = supplies;
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
        let timer = obs.as_ref().map(|_| StageTimer::start());
        let Scratch { slots, headers, .. } = &mut *scratch;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::build_secure_host;
    use fbs_cert::{CertificateAuthority, Directory};
    use fbs_core::ManualClock;
    use fbs_crypto::dh::DhGroup;
    use fbs_net::ip::Ipv4Addr;
    use std::time::Duration;

    const A: Ipv4Addr = [10, 9, 0, 1];
    const B: Ipv4Addr = [10, 9, 0, 2];

    struct World {
        clock: ManualClock,
        ca: CertificateAuthority,
        directory: Arc<Directory>,
        group: DhGroup,
    }

    impl World {
        fn new() -> Self {
            World {
                clock: ManualClock::starting_at(0),
                ca: CertificateAuthority::new("degrade-test-ca", [0xD6; 16]),
                directory: Arc::new(Directory::new(Duration::ZERO)),
                group: DhGroup::test_group(),
            }
        }

        /// Build hooks for `addr` (publishing its certificate).
        fn host(&self, addr: Ipv4Addr) -> FbsIpHooks {
            let (_host, hooks) = build_secure_host(
                addr,
                1500,
                self.cfg(),
                self.clock.clone(),
                &self.group,
                &self.ca,
                &self.directory,
                42,
            );
            hooks
        }

        fn cfg(&self) -> IpMappingConfig {
            IpMappingConfig::default()
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
        let (_host, hooks) = build_secure_host(
            A,
            1500,
            cfg,
            world.clock.clone(),
            &world.group,
            &world.ca,
            &world.directory,
            42,
        );
        hooks
    }

    #[test]
    fn key_unavailable_fails_closed_by_default() {
        let world = World::new();
        let mut hooks = world.host(A); // B's certificate never published
        let (mut header, payload) = udp_datagram(A, B);
        let out = hooks.output(&mut header, payload, 1_000);
        assert!(matches!(out, HookOutcome::Reject(_)), "{out:?}");
        let s = hooks.stats();
        assert_eq!(s.fail_closed, 1);
        assert_eq!(s.output_errors, 1);
        assert_eq!(s.fail_open, 0);
    }

    #[test]
    fn fail_open_passes_plaintext_when_not_confidential() {
        let world = World::new();
        let cfg = IpMappingConfig {
            encrypt: false,
            key_unavailable: KeyUnavailableVerdict::FailOpen,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let (mut header, payload) = udp_datagram(A, B);
        let before = header.total_len;
        let out = hooks.output(&mut header, payload.clone(), 1_000);
        match out {
            HookOutcome::Pass(bytes) => assert_eq!(bytes, payload, "original plaintext"),
            other => panic!("expected fail-open pass, got {other:?}"),
        }
        assert_eq!(header.total_len, before, "no FBS overhead added");
        assert_eq!(hooks.stats().fail_open, 1);
    }

    #[test]
    fn fail_open_downgrades_to_fail_closed_under_encryption() {
        let world = World::new();
        let cfg = IpMappingConfig {
            encrypt: true,
            key_unavailable: KeyUnavailableVerdict::FailOpen,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let (mut header, payload) = udp_datagram(A, B);
        let out = hooks.output(&mut header, payload, 1_000);
        assert!(matches!(out, HookOutcome::Reject(_)), "{out:?}");
        assert_eq!(hooks.stats().fail_closed, 1);
        assert_eq!(hooks.stats().fail_open, 0);
    }

    #[test]
    fn fail_open_input_admits_only_unframed_datagrams() {
        let world = World::new();
        let cfg = IpMappingConfig {
            encrypt: false,
            key_unavailable: KeyUnavailableVerdict::FailOpen,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        // A bare datagram with no FBS framing: decode fails, fail-open
        // admits it untouched.
        let (mut header, payload) = udp_datagram(B, A);
        let out = hooks.input(&mut header, payload.clone(), 1_000);
        match out {
            HookOutcome::Pass(bytes) => assert_eq!(bytes, payload),
            other => panic!("expected fail-open admit, got {other:?}"),
        }
        assert_eq!(hooks.stats().fail_open, 1);
    }

    #[test]
    fn max_overhead_bounds_sealed_growth_across_the_config_grid() {
        // The MSS fix reserves `max_overhead()` bytes per segment, so it
        // must bound what the codec really adds — including where
        // normalisation clamps the truncation up and where the suite
        // overrides the configured MAC.
        use fbs_crypto::MacAlgorithm;
        let world = World::new();
        let _b = world.host(B); // publishes B's certificate
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
                        let mut hooks = hooks_with(&world, cfg);
                        // 25 bytes: the worst case for block padding.
                        let (mut header, plain) = udp_datagram(A, B);
                        let sealed = match hooks.output(&mut header, plain.clone(), 1_000) {
                            HookOutcome::Pass(bytes) => bytes,
                            other => panic!("seal failed: {other:?}"),
                        };
                        assert!(
                            sealed.len() - plain.len() <= hooks.max_overhead(),
                            "{suite:?} {mac_alg:?} {mac_truncate:?} encrypt={encrypt}: \
                             grew {} > reserved {}",
                            sealed.len() - plain.len(),
                            hooks.max_overhead()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crypto_failures_never_degrade() {
        // Even under fail-open, a framed datagram with a bad MAC is
        // rejected: crypto verdicts are final.
        let world = World::new();
        let cfg = IpMappingConfig {
            encrypt: false,
            key_unavailable: KeyUnavailableVerdict::FailOpen,
            ..IpMappingConfig::default()
        };
        let mut sender = hooks_with(&world, cfg.clone());
        let mut receiver = world.host(B);
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
        assert!(matches!(got, HookOutcome::Reject(_)), "{got:?}");
        assert_eq!(receiver.stats().input_errors, 1);
        assert_eq!(
            receiver.stats().fail_open,
            0,
            "MAC failure must not degrade"
        );
    }

    #[test]
    fn park_holds_then_releases_when_key_arrives() {
        let world = World::new();
        let cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_deadline_us: 10_000_000,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let mut pool = BufferPool::new();
        let (mut header, payload) = udp_datagram(A, B);
        let out = hooks.output(&mut header, payload, 1_000);
        assert!(matches!(out, HookOutcome::Park), "{out:?}");
        assert_eq!(hooks.parked_depths(), (1, 0));

        // Still keyless: the release pass re-parks, does not drop.
        assert!(hooks.release_output(2_000, &mut pool).is_empty());
        assert_eq!(hooks.parked_depths(), (1, 0));

        // B comes online (certificate published); the parked datagram
        // is protected and released on the next poll.
        let _hb = world.host(B);
        let released = hooks.release_output(3_000, &mut pool);
        assert_eq!(released.len(), 1);
        let (rel_header, rel_payload) = &released[0];
        assert!(rel_payload.len() > 25, "released payload is protected");
        assert_eq!(rel_header.dst, B);
        assert_eq!(hooks.parked_depths(), (0, 0));
        let (out_stats, _) = hooks.park_stats().unwrap();
        assert_eq!(out_stats.released, 1);
        assert_eq!(out_stats.expired, 0);
        assert_eq!(hooks.stats().protected, 1);
        // The consumed plaintext went back to the pool.
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn park_queue_overflow_rejects() {
        let world = World::new();
        let cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_capacity: 2,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        for i in 0..2 {
            let (mut header, payload) = udp_datagram(A, B);
            let out = hooks.output(&mut header, payload, 1_000 + i);
            assert!(matches!(out, HookOutcome::Park));
        }
        let (mut header, payload) = udp_datagram(A, B);
        let out = hooks.output(&mut header, payload, 2_000);
        assert!(matches!(out, HookOutcome::Reject(_)), "{out:?}");
        let (out_stats, _) = hooks.park_stats().unwrap();
        assert_eq!(out_stats.overflow, 1);
        assert_eq!(hooks.parked_depths(), (2, 0));
    }

    #[test]
    fn park_overflow_recycles_the_rejected_payload() {
        // Same scenario as above, but driven through process_batch with
        // an observable pool: the overflow reject must hand the payload
        // buffer back instead of leaking it. The batch draws 3 supply
        // buffers; none is consumed (every datagram parks or rejects
        // before sealing), so 3 supplies plus the overflowed payload
        // come back: 4 returns against 3 takes.
        let world = World::new();
        let cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_capacity: 2,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let mut pool = BufferPool::new();
        let batch: Vec<Datagram> = (0..3)
            .map(|_| {
                let (header, payload) = udp_datagram(A, B);
                Datagram { header, payload }
            })
            .collect();
        let out = hooks.process_batch(Direction::Output, batch, &mut pool, 1_000);
        assert!(matches!(out[0].1, HookOutcome::Park));
        assert!(matches!(out[1].1, HookOutcome::Park));
        assert!(matches!(out[2].1, HookOutcome::Reject(_)));
        let s = pool.stats();
        assert_eq!(s.misses, 3, "one supply buffer per datagram");
        assert_eq!(
            s.returns, 4,
            "3 unused supplies + the overflowed datagram's payload"
        );
    }

    #[test]
    fn parked_datagrams_expire_at_their_deadline() {
        let world = World::new();
        let cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_deadline_us: 5_000,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let mut pool = BufferPool::new();
        let (mut header, payload) = udp_datagram(A, B);
        assert!(matches!(
            hooks.output(&mut header, payload, 1_000),
            HookOutcome::Park
        ));
        // Repeated keyless release passes must not reset the deadline.
        assert!(hooks.release_output(3_000, &mut pool).is_empty());
        assert!(hooks.release_output(5_000, &mut pool).is_empty());
        assert!(hooks.release_output(6_001, &mut pool).is_empty());
        assert_eq!(hooks.parked_depths(), (0, 0), "expired, not retained");
        let (out_stats, _) = hooks.park_stats().unwrap();
        assert_eq!(out_stats.expired, 1);
        assert_eq!(out_stats.released, 0);
        // Expiry recycled the parked payload buffer into the pool.
        assert_eq!(pool.stats().returns, 1);
    }

    /// Receiver-side parking fixture: receiver A parks, and its
    /// directory (`receiver_world`) is a SEPARATE one that never saw
    /// sender B's certificate; B lives in `world` with both
    /// certificates present.
    fn parking_receiver_and_sender() -> (World, World, FbsIpHooks, FbsIpHooks) {
        let world = World::new();
        let park_cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_deadline_us: 10_000_000,
            ..IpMappingConfig::default()
        };
        let receiver_world = World::new();
        let receiver = hooks_with(&receiver_world, park_cfg);
        // Publish A's certificate in the sender's world by building A's
        // endpoint there too.
        let _a_in_world = world.host(A);
        let sender = world.host(B);
        (world, receiver_world, receiver, sender)
    }

    /// Sender B's certificate reaches the receiver's directory; both
    /// worlds sign with the same CA key, so the receiver's verifier
    /// accepts it.
    fn publish_sender_cert(world: &World, receiver_world: &World) {
        let b_cert = world.directory.fetch(&Principal::from_ipv4(B)).unwrap();
        receiver_world.directory.publish(b_cert);
    }

    #[test]
    fn input_park_releases_after_sender_cert_appears() {
        // Receiver-side parking: the wire datagram arrives before the
        // receiver can fetch the sender's public value.
        let (world, receiver_world, mut receiver, mut sender) = parking_receiver_and_sender();
        let (mut header, payload) = udp_datagram(B, A);
        let wire = match sender.output(&mut header, payload.clone(), 1_000) {
            HookOutcome::Pass(bytes) => bytes,
            other => panic!("sender should protect, got {other:?}"),
        };

        let mut rx_header = header.clone();
        let out = receiver.input(&mut rx_header, wire, 1_000);
        assert!(matches!(out, HookOutcome::Park), "{out:?}");
        assert_eq!(receiver.parked_depths(), (0, 1));

        publish_sender_cert(&world, &receiver_world);
        let mut pool = BufferPool::new();
        let released = receiver.release_input(2_000, &mut pool);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1, payload, "verified plaintext");
        assert_eq!(receiver.parked_depths(), (0, 0));
        assert_eq!(receiver.stats().verified, 1);
        // The consumed wire payload went back to the pool.
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn forged_parked_input_is_rejected_at_release_like_a_batch_item() {
        // A forgery that parks (its key was unavailable on arrival) meets
        // the MAC check only at release. That check is the same deferred
        // resolution a sub-batch gets: same verdict, same counters.
        let (world, receiver_world, mut receiver, mut sender) = parking_receiver_and_sender();
        let reg = Arc::new(MetricsRegistry::new());
        receiver.attach_obs(Arc::clone(&reg)).unwrap();
        let mut pool = BufferPool::new();
        let mut wire_for = |sport: u8| {
            let (mut header, mut plain) = udp_datagram(B, A);
            plain[1] = sport; // distinct flows
            match sender.output(&mut header, plain, 1_000) {
                // Pool-drawn wire, so the ledger below is exact.
                HookOutcome::Pass(bytes) => {
                    let mut wire = pool.take();
                    wire.extend_from_slice(&bytes);
                    (header, wire)
                }
                other => panic!("sender should protect, got {other:?}"),
            }
        };
        let (clean_header, clean) = wire_for(1);
        let (forged_header, mut forged) = wire_for(2);
        *forged.last_mut().unwrap() ^= 0x5A;
        let batch = vec![
            Datagram {
                header: clean_header,
                payload: clean,
            },
            Datagram {
                header: forged_header,
                payload: forged,
            },
        ];
        for (_, out) in receiver.process_batch(Direction::Input, batch, &mut pool, 1_000) {
            assert!(matches!(out, HookOutcome::Park), "{out:?}");
        }
        assert_eq!(receiver.parked_depths(), (0, 2));

        publish_sender_cert(&world, &receiver_world);
        let released = receiver.release_input(2_000, &mut pool);
        assert_eq!(released.len(), 1, "only the clean datagram is released");
        assert_eq!(receiver.parked_depths(), (0, 0));
        let stats = receiver.stats();
        assert_eq!((stats.verified, stats.input_errors), (1, 1));
        assert_eq!(receiver.endpoint_stats().mac_drops, 1);
        assert_eq!(receiver.endpoint_stats().receives, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("batchauth.checked"), 2);
        assert_eq!(snap.counter("batchauth.rejected"), 1);
        assert_eq!(snap.counter("hooks.input_errors"), 1);
        assert!(reg.stage_histogram(Stage::BatchVerify).count() > 0);
        // The control plane ships no supplies, so release recovers each
        // body into a fresh buffer: two enter the books here (the
        // forgery's recycled, the clean one's returned below). With them
        // counted, every buffer is back in the pool.
        for (_, body) in released {
            pool.put(body);
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses + 2, s.returns + s.discards, "{s:?}");
    }

    #[test]
    fn stats_reads_stay_lock_free_while_batches_run() {
        // The worker-runtime version of the old "stats never touch
        // shard locks" promise: every accessor below completes while a
        // background thread continuously drives batches through the
        // shared runtime. Nothing here can deadlock — the scrape path
        // is atomics only — and the final counts prove the batches all
        // landed.
        let world = World::new();
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
                let out =
                    worker_handle.process_batch(Direction::Output, batch, &mut pool, round * 100);
                assert!(out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))));
            }
        });
        for _ in 0..100 {
            let _ = hooks.stats();
            let _ = hooks.endpoint_stats();
            let _ = hooks.tfkc_stats();
            let _ = hooks.rfkc_stats();
            let _ = hooks.mkd_stats();
            let _ = hooks.combined_stats();
            let _ = hooks.ring_stalls();
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
        let world = World::new();
        let mut hooks = world.host(A); // B never published → keyless
        let (mut header, payload) = udp_datagram(A, B);
        let out = hooks.output(&mut header, payload, 1_000);
        assert!(matches!(out, HookOutcome::Reject(_)), "{out:?}");
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
        // different workers); the returned vec must still be
        // positionally aligned with the submitted batch.
        let world = World::new();
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
            "default config must use the worker runtime"
        );
    }

    #[test]
    fn workers_clamp_to_shard_count() {
        let world = World::new();
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
        // batches, drain() leaves no buffered work, the pool ledger
        // balances, and dropping every handle joins the workers without
        // losing the parked entries' buffers (they drain on release).
        let world = World::new();
        let cfg = IpMappingConfig {
            key_unavailable: KeyUnavailableVerdict::Park,
            park_deadline_us: 10_000_000,
            ..IpMappingConfig::default()
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
        // Synchronous drain: nothing may still be buffered in any ring.
        hooks.drain().unwrap();
        assert_eq!(hooks.parked_depths(), (4, 0), "parks survive the drain");
        // Ledger: 4 supplies drawn, none consumed (all parked), so all
        // 4 came back; the 4 parked payloads are held by the runtime.
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4);
        assert_eq!(s.returns + s.discards, 4);
        // Key arrives; release returns the parked datagrams and their
        // payload buffers, balancing the ledger completely.
        let _hb = world.host(B);
        let released = hooks.release_output(2_000, &mut pool);
        assert_eq!(released.len(), 4);
        let s = pool.stats();
        assert_eq!(
            s.returns + s.discards,
            8,
            "4 supplies + 4 released payloads recycled"
        );
        assert_eq!(hooks.parked_depths(), (0, 0));
        // Finally: dropping the last handle must join the workers (the
        // test would hang here if shutdown lost the wakeup).
        drop(hooks);
    }

    /// Deterministic one-shot fault injector for the supervision tests:
    /// the first worker to start a sub-batch takes the (single) panic;
    /// saturation pins worker 0's ring full from the producer's view.
    struct TestChaos {
        panic_once: std::sync::atomic::AtomicBool,
        saturate_w0: bool,
    }

    impl TestChaos {
        fn panicking() -> Arc<Self> {
            Arc::new(TestChaos {
                panic_once: std::sync::atomic::AtomicBool::new(true),
                saturate_w0: false,
            })
        }

        fn saturating() -> Arc<Self> {
            Arc::new(TestChaos {
                panic_once: std::sync::atomic::AtomicBool::new(false),
                saturate_w0: true,
            })
        }
    }

    impl WorkerFaultInjector for TestChaos {
        fn take_panic(&self, _worker: usize, _now_us: u64) -> bool {
            self.panic_once.swap(false, Ordering::AcqRel)
        }
        fn take_stall_us(&self, _worker: usize, _now_us: u64) -> u64 {
            0
        }
        fn ring_saturated(&self, worker: usize, _now_us: u64) -> bool {
            self.saturate_w0 && worker == 0
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
        let world = World::new();
        let mut hooks = world.host(A);
        let _hb = world.host(B); // publish B's certificate
        hooks.set_worker_chaos(Some(TestChaos::panicking()));
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
        assert_eq!(
            hooks.workers_alive(),
            hooks.num_workers(),
            "supervised panic never kills the thread"
        );
        // The rebuilt worker serves the next batch cleanly (soft state
        // re-warms through misses).
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 2_000);
        assert!(
            out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))),
            "post-respawn batch all passes"
        );
        // Ledger across the panic: every Pass consumes its supply and
        // returns its (foreign) payload — net zero; every Reject
        // returns BOTH, so returns exceed takes by exactly the reject
        // count. The poisoned datagram's freed payload was made whole
        // by the supervisor's replacement buffer.
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, s.hits + s.misses + rejects as u64);
        drop(hooks);
    }

    #[test]
    fn fail_closed_policy_quarantines_but_keeps_control_plane() {
        let world = World::new();
        let cfg = IpMappingConfig {
            worker_fault: WorkerFaultPolicy::FailClosed,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let _hb = world.host(B);
        hooks.set_worker_chaos(Some(TestChaos::panicking()));
        let mut pool = BufferPool::new();
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 1_000);
        assert_eq!(out.len(), 16);
        let rejects = out
            .iter()
            .filter(|(_, o)| matches!(o, HookOutcome::Reject(_)))
            .count();
        assert!(rejects >= 1, "the panicked worker's sub-batch fails closed");
        assert!(
            out.iter().any(|(_, o)| matches!(o, HookOutcome::Pass(_))),
            "unaffected workers keep passing traffic"
        );
        assert_eq!(hooks.worker_panics(), 1);
        assert_eq!(hooks.worker_respawns(), 0, "FailClosed never respawns");
        assert_eq!(hooks.quarantined_workers(), 1);
        assert_eq!(
            hooks.workers_alive(),
            hooks.num_workers(),
            "quarantined workers stay joinable"
        );
        // The control plane still answers on the quarantined worker.
        hooks.flush_flow_keys().unwrap();
        hooks.drain().unwrap();
        let _ = hooks.park_stats().unwrap();
        let _ = hooks.active_flows(1).unwrap();
        // Traffic routed at the quarantined worker keeps failing closed;
        // the rest still passes — and the ledger stays balanced.
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 2_000);
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, HookOutcome::Reject(r) if r.contains("quarantined"))));
        assert!(out.iter().any(|(_, o)| matches!(o, HookOutcome::Pass(_))));
        let rejects2 = out
            .iter()
            .filter(|(_, o)| matches!(o, HookOutcome::Reject(_)))
            .count();
        // Rejects return payload AND unused supply (see the respawn
        // test): the ledger offset is exactly the total reject count.
        let s = pool.stats();
        assert_eq!(
            s.returns + s.discards,
            s.hits + s.misses + (rejects + rejects2) as u64
        );
        drop(hooks);
    }

    #[test]
    fn saturated_ring_sheds_per_datagram_with_counters() {
        let world = World::new();
        let cfg = IpMappingConfig {
            // Shed immediately on backpressure: the test pins worker 0's
            // ring full via chaos, so any positive deadline only adds
            // wall time.
            shed_deadline_us: 0,
            ..IpMappingConfig::default()
        };
        let mut hooks = hooks_with(&world, cfg);
        let _hb = world.host(B);
        hooks.set_worker_chaos(Some(TestChaos::saturating()));
        let mut pool = BufferPool::new();
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 1_000);
        assert_eq!(out.len(), 16);
        let shed = out
            .iter()
            .filter(|(_, o)| matches!(o, HookOutcome::Reject(r) if r.contains("shed")))
            .count();
        assert!(shed >= 1, "worker 0's share of the batch sheds");
        assert!(
            out.iter().any(|(_, o)| matches!(o, HookOutcome::Pass(_))),
            "other workers' traffic is untouched"
        );
        let (rejected, batches) = hooks.shed_counts();
        assert_eq!(rejected, shed as u64);
        assert!(batches >= 1);
        // Shed buffers all returned to the pool: payload and supply per
        // shed datagram (the same reject offset as the respawn test).
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, s.hits + s.misses + shed as u64);
        // Lifting the saturation restores full service.
        hooks.set_worker_chaos(None);
        let out = hooks.process_batch(Direction::Output, spread_batch(16), &mut pool, 2_000);
        assert!(out.iter().all(|(_, o)| matches!(o, HookOutcome::Pass(_))));
        drop(hooks);
    }
}
