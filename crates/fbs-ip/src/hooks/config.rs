//! The IP mapping's configuration and its verdict ledger: what the
//! operator sets ([`IpMappingConfig`], [`WorkerFaultPolicy`]), what the
//! hooks count ([`IpHookStats`]), and the two functions through which
//! every count is made.

use super::{record, HookShared};
use fbs_core::{FbsConfig, KeyUnavailableVerdict};
use fbs_obs::{Direction, Event, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the supervisor does with a worker (shard owner) that panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFaultPolicy {
    /// Rebuild the worker's shard state and resume (soft state re-warms
    /// through normal cache misses). After `max_respawns` supervised
    /// panics the worker falls back to [`WorkerFaultPolicy::FailClosed`].
    Respawn {
        /// Supervised respawns allowed before quarantining.
        max_respawns: u32,
    },
    /// Quarantine immediately: keep answering the control plane, but
    /// reject every datagram routed to the worker's shards (buffers
    /// recycled, never silently dropped).
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
    /// Also protect raw-IP protocols (everything except the bypass
    /// protocol) as **host-level flows** — the treatment §7.1 footnote 10
    /// sketches for ICMP/IGMP: "raw IP can be considered as host-level
    /// flows". The paper's implementation left this out; it is provided as
    /// the documented extension. Default off for fidelity.
    pub cover_raw_ip: bool,
    /// Degradation verdict when keying material is transiently
    /// unavailable. Default fail-closed, which reproduces the seed
    /// behaviour exactly.
    pub key_unavailable: KeyUnavailableVerdict,
    /// Parking-queue capacity per shard per direction (park verdict only).
    pub park_capacity: usize,
    /// Per-datagram parking deadline in microseconds, measured from the
    /// first park.
    pub park_deadline_us: u64,
    /// Number of flow-state shards (rounded up to a power of two).
    /// Fixed at construction: changing it through
    /// [`FbsIpHooks::update_config`](super::FbsIpHooks::update_config) has no effect.
    pub shards: usize,
    /// Number of shard owners (clamped to `1..=shards`), each one lock
    /// under which the submitting thread runs the datapath to
    /// completion: handles on different threads run in parallel where
    /// their batches touch different owners. No thread is started.
    /// Fixed at construction, like the shard geometry.
    pub workers: usize,
    /// Supervision policy applied when a worker panics. Read per
    /// panic, so it can be changed through
    /// [`FbsIpHooks::update_config`](super::FbsIpHooks::update_config).
    pub worker_fault: WorkerFaultPolicy,
    /// Per-shard soft-state byte budget (0 = unbudgeted). Bounds what
    /// one shard's RFKC and FST keep resident: a table that would
    /// allocate past the budget evicts its own entries first. Enforced
    /// worker-locally — no cross-shard coordination — and fixed at
    /// construction like the shard geometry.
    pub shard_budget_bytes: u64,
    /// The FBS endpoint configuration [`crate::host::build_secure_host`]
    /// builds the endpoint from. The hooks themselves read the
    /// endpoint's own copy, never this one.
    pub fbs: FbsConfig,
}

impl Default for IpMappingConfig {
    fn default() -> Self {
        IpMappingConfig {
            threshold_secs: crate::policy::DEFAULT_THRESHOLD_SECS,
            fst_size: crate::policy::DEFAULT_FST_SIZE,
            encrypt: true,
            cover_raw_ip: false,
            key_unavailable: KeyUnavailableVerdict::FailClosed,
            park_capacity: 64,
            park_deadline_us: 2_000_000,
            shards: 8,
            workers: 2,
            worker_fault: WorkerFaultPolicy::default(),
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
}

/// Lock-free live counters behind [`FbsIpHooks::stats`]: updated with
/// relaxed atomics, snapshotted by readers without
/// blocking any batch in flight. Written only by the verdict ledger
/// ([`HookShared::exit`], [`HookShared::degraded`]).
#[derive(Debug, Default)]
pub(super) struct AtomicHookStats {
    protected: AtomicU64,
    verified: AtomicU64,
    output_errors: AtomicU64,
    input_errors: AtomicU64,
    fail_open: AtomicU64,
    fail_closed: AtomicU64,
}

impl AtomicHookStats {
    pub(super) fn snapshot(&self) -> IpHookStats {
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

/// The verdict ledger: the only writers of [`AtomicHookStats`] and the
/// only constructors of the registry's verdict events, so
/// [`IpHookStats`] and an attached registry's `hooks.*` / `degrade.*`
/// counters move together or not at all.
impl HookShared {
    /// A datagram left the `dir` hook with its final verdict.
    pub(super) fn exit(&self, obs: &Option<Arc<MetricsRegistry>>, dir: Direction, ok: bool) {
        let stat = match (dir, ok) {
            (Direction::Output, true) => &self.stats.protected,
            (Direction::Output, false) => &self.stats.output_errors,
            (Direction::Input, true) => &self.stats.verified,
            (Direction::Input, false) => &self.stats.input_errors,
        };
        stat.fetch_add(1, Ordering::Relaxed);
        record(obs, Event::HookExit { dir, ok });
    }

    /// A key-unavailable datagram took a degradation verdict: admitted
    /// unprotected (`open`) or dropped fail-closed.
    pub(super) fn degraded(&self, obs: &Option<Arc<MetricsRegistry>>, dir: Direction, open: bool) {
        let stat = if open {
            &self.stats.fail_open
        } else {
            &self.stats.fail_closed
        };
        stat.fetch_add(1, Ordering::Relaxed);
        record(obs, Event::Degraded { dir, open });
    }
}
