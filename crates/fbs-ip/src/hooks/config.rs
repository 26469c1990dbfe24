//! The IP mapping's configuration and its verdict ledger: what the
//! operator sets ([`IpMappingConfig`]), what the hooks count
//! ([`IpHookStats`]), and the two functions through which every verdict
//! count is made.

use super::datapath::Pass;
use super::record;
use fbs_core::{FbsConfig, KeyUnavailableVerdict};
use fbs_obs::{Counter, CounterBlock, Direction, Event};

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
    /// Per-shard soft-state byte budget (0 = unbudgeted). Bounds what
    /// one shard's RFKC and FST keep resident: a table that would
    /// allocate past the budget evicts its own entries first. Enforced
    /// worker-locally — no cross-shard coordination — and fixed at
    /// construction like the shard geometry.
    pub shard_budget_bytes: u64,
    /// The FBS configuration the hooks' codecs and key derivations use.
    /// Read once, at construction: like the shard geometry, changing it
    /// through [`FbsIpHooks::update_config`](super::FbsIpHooks::update_config)
    /// has no effect.
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
            shard_budget_bytes: 0,
            fbs: FbsConfig::default(),
        }
    }
}

/// Counters for the hook layer: a view over the `hooks.*_ok`,
/// `hooks.*_errors` and `degrade.*` cells of the hooks' counter block.
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
    /// Read the view off `counts`.
    pub(super) fn read(counts: &CounterBlock) -> Self {
        IpHookStats {
            protected: counts.counter(Counter::HookOutputOk),
            verified: counts.counter(Counter::HookInputOk),
            output_errors: counts.counter(Counter::HookOutputErrors),
            input_errors: counts.counter(Counter::HookInputErrors),
            fail_open: counts.counter(Counter::DegradeFailOpen),
            fail_closed: counts.counter(Counter::DegradeFailClosed),
        }
    }

    /// Total output-hook invocations that reached a final verdict.
    pub fn output_entries(&self) -> u64 {
        self.protected + self.output_errors
    }

    /// Total input-hook invocations that reached a final verdict.
    pub fn input_entries(&self) -> u64 {
        self.verified + self.input_errors
    }
}

/// The verdict ledger: the only writers of the verdict counts and the
/// only constructors of the registry's verdict events. Each counts into
/// the running owner's block; [`IpHookStats`] and an attached registry
/// read the same cells.
impl Pass<'_> {
    /// A datagram entered the `dir` hook. Only an attached registry
    /// counts entries: the blocks count verdicts.
    pub(super) fn enter(&self, dir: Direction) {
        if let Some(reg) = self.obs {
            reg.incr(match dir {
                Direction::Output => Counter::HookOutputEntries,
                Direction::Input => Counter::HookInputEntries,
            });
        }
    }

    /// A datagram left the `dir` hook with its final verdict.
    pub(super) fn exit(&self, dir: Direction, ok: bool) {
        self.counts.incr(match (dir, ok) {
            (Direction::Output, true) => Counter::HookOutputOk,
            (Direction::Output, false) => Counter::HookOutputErrors,
            (Direction::Input, true) => Counter::HookInputOk,
            (Direction::Input, false) => Counter::HookInputErrors,
        });
    }

    /// A key-unavailable datagram took a degradation verdict: admitted
    /// unprotected (`open`) or dropped fail-closed.
    pub(super) fn degraded(&self, dir: Direction, open: bool) {
        self.counts.incr(if open {
            Counter::DegradeFailOpen
        } else {
            Counter::DegradeFailClosed
        });
        record(self.obs, Event::Degraded { dir, open });
    }
}
