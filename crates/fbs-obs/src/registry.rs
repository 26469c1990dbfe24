//! The metrics registry: its own counter cells plus the blocks attached
//! to it, log2 histograms, and the flight recorder.

use crate::block::CounterBlock;
use crate::event::{Event, EventRecord};
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use crate::span::{Stage, NUM_STAGES};
use crate::trace::FlowTracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Number of log2 buckets (covers the full `u64` range).
pub(crate) const BUCKETS: usize = 64;

/// Default flight-recorder capacity (events).
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Every scalar counter a [`CounterBlock`] holds. Names are hierarchical
/// (`component.metric`); the legacy stats structs are views over the
/// same cells, so an accessor and a registry snapshot read one count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Datagrams sealed and sent by endpoints.
    Sends,
    /// Datagrams verified and accepted by endpoints.
    Receives,
    /// Datagrams dropped by the freshness window.
    ReplayDrops,
    /// Datagrams dropped by MAC verification.
    MacDrops,
    /// Datagrams dropped as unparseable/undecryptable.
    MalformedDrops,
    /// Bodies encrypted.
    Encryptions,
    /// Bodies decrypted.
    Decryptions,
    /// Zero-message flow-key derivations (cache-miss path).
    KeyDerivations,
    /// Master-key daemon upcalls.
    MkdUpcalls,
    /// Master-key daemon failures.
    MkdFailures,
    /// Output-hook entries.
    HookOutputEntries,
    /// Output-hook successes (datagrams protected).
    HookOutputOk,
    /// Output-hook failures.
    HookOutputErrors,
    /// Input-hook entries.
    HookInputEntries,
    /// Input-hook successes (datagrams verified).
    HookInputOk,
    /// Input-hook failures.
    HookInputErrors,
    /// Outgoing datagrams that required fragmentation.
    FragmentedDatagrams,
    /// Total fragments produced.
    FragmentsProduced,
    /// Fragmented datagrams fully reassembled.
    ReassembledDatagrams,
    /// Reassembly buffers dropped on timeout.
    ReassemblyTimeouts,
    /// MRT retransmissions.
    MrtRetransmits,
    /// Certificate verification failures in the PVC.
    PvcVerifyFailures,
    /// Buffer-pool takes served from the freelist.
    PoolHits,
    /// Buffer-pool takes that had to allocate a fresh buffer.
    PoolMisses,
    /// Output batches run through the host pipeline's security hooks.
    PipelineOutputBatches,
    /// Input batches run through the host pipeline's security hooks.
    PipelineInputBatches,
    /// Datagrams carried by pipeline hook batches (both directions).
    PipelineBatchDatagrams,
    /// Retry attempts made after a failure (directory fetch, MKD upcall).
    RetryAttempts,
    /// Retried operations that gave up (attempts/deadline exhausted).
    RetryExhausted,
    /// Circuit-breaker transitions to open.
    BreakerOpens,
    /// Circuit-breaker transitions to half-open (recovery probes).
    BreakerHalfOpens,
    /// Circuit-breaker transitions back to closed.
    BreakerCloses,
    /// Requests rejected without trying because a breaker was open.
    BreakerFastFails,
    /// Datagrams parked awaiting key material.
    ParkParked,
    /// Parked datagrams released and processed.
    ParkReleased,
    /// Parked datagrams dropped on deadline expiry.
    ParkExpired,
    /// Datagrams rejected because the parking queue was full.
    ParkOverflow,
    /// Datagrams passed through unprotected under a fail-open verdict.
    DegradeFailOpen,
    /// Datagrams dropped under a fail-closed verdict.
    DegradeFailClosed,
    /// Sub-batches shard owners finished while a registry was attached
    /// (per owner: `hooks.worker.<w>.batches`).
    WorkerBatches,
    /// Panics caught by an owner's supervisor.
    WorkerPanics,
    /// Supervised respawns: a panicked owner rebuilt its shard state
    /// and resumed (soft state re-warms through normal cache misses).
    WorkerRespawns,
    /// Nanoseconds shard owners spent on the sub-batches counted in
    /// [`Counter::WorkerBatches`] (per owner: `hooks.worker.<w>.busy_ns`).
    WorkerBusyNs,
    /// Flight-recorder events overwritten before anyone read them
    /// (ring overflow).
    EventsDropped,
    /// Buffers recycled into a pool's freelist.
    PoolReturns,
    /// Returned buffers the pool discarded (freelist full or wrong
    /// capacity).
    PoolDiscards,
    /// Total (virtual) microseconds breakers spent closed before
    /// transitioning away.
    BreakerTimeClosedUs,
    /// Total (virtual) microseconds breakers spent open before
    /// transitioning away.
    BreakerTimeOpenUs,
    /// Total (virtual) microseconds breakers spent half-open before
    /// transitioning away.
    BreakerTimeHalfOpenUs,
    /// Datagrams sealed under the paper DES-CBC + keyed-MD5 profile.
    SealSuitePaper,
    /// Datagrams sealed under the fast word-sliced DES-CTR profile.
    SealSuiteFastDes,
    /// Datagrams sealed under the ChaCha20-Poly1305 AEAD profile.
    SealSuiteAead,
    /// Datagrams opened under the paper DES-CBC + keyed-MD5 profile.
    OpenSuitePaper,
    /// Datagrams opened under the fast word-sliced DES-CTR profile.
    OpenSuiteFastDes,
    /// Datagrams opened under the ChaCha20-Poly1305 AEAD profile.
    OpenSuiteAead,
}

/// Number of scalar counters.
pub(crate) const NUM_COUNTERS: usize = 55;

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::Sends,
        Counter::Receives,
        Counter::ReplayDrops,
        Counter::MacDrops,
        Counter::MalformedDrops,
        Counter::Encryptions,
        Counter::Decryptions,
        Counter::KeyDerivations,
        Counter::MkdUpcalls,
        Counter::MkdFailures,
        Counter::HookOutputEntries,
        Counter::HookOutputOk,
        Counter::HookOutputErrors,
        Counter::HookInputEntries,
        Counter::HookInputOk,
        Counter::HookInputErrors,
        Counter::FragmentedDatagrams,
        Counter::FragmentsProduced,
        Counter::ReassembledDatagrams,
        Counter::ReassemblyTimeouts,
        Counter::MrtRetransmits,
        Counter::PvcVerifyFailures,
        Counter::PoolHits,
        Counter::PoolMisses,
        Counter::PipelineOutputBatches,
        Counter::PipelineInputBatches,
        Counter::PipelineBatchDatagrams,
        Counter::RetryAttempts,
        Counter::RetryExhausted,
        Counter::BreakerOpens,
        Counter::BreakerHalfOpens,
        Counter::BreakerCloses,
        Counter::BreakerFastFails,
        Counter::ParkParked,
        Counter::ParkReleased,
        Counter::ParkExpired,
        Counter::ParkOverflow,
        Counter::DegradeFailOpen,
        Counter::DegradeFailClosed,
        Counter::WorkerBatches,
        Counter::WorkerPanics,
        Counter::WorkerRespawns,
        Counter::WorkerBusyNs,
        Counter::EventsDropped,
        Counter::PoolReturns,
        Counter::PoolDiscards,
        Counter::BreakerTimeClosedUs,
        Counter::BreakerTimeOpenUs,
        Counter::BreakerTimeHalfOpenUs,
        Counter::SealSuitePaper,
        Counter::SealSuiteFastDes,
        Counter::SealSuiteAead,
        Counter::OpenSuitePaper,
        Counter::OpenSuiteFastDes,
        Counter::OpenSuiteAead,
    ];

    /// The hierarchical counter key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Sends => "endpoint.sends",
            Counter::Receives => "endpoint.receives",
            Counter::ReplayDrops => "endpoint.replay_drops",
            Counter::MacDrops => "endpoint.mac_drops",
            Counter::MalformedDrops => "endpoint.malformed_drops",
            Counter::Encryptions => "endpoint.encryptions",
            Counter::Decryptions => "endpoint.decryptions",
            Counter::KeyDerivations => "endpoint.key_derivations",
            Counter::MkdUpcalls => "mkd.upcalls",
            Counter::MkdFailures => "mkd.failures",
            Counter::HookOutputEntries => "hooks.output_entries",
            Counter::HookOutputOk => "hooks.output_ok",
            Counter::HookOutputErrors => "hooks.output_errors",
            Counter::HookInputEntries => "hooks.input_entries",
            Counter::HookInputOk => "hooks.input_ok",
            Counter::HookInputErrors => "hooks.input_errors",
            Counter::FragmentedDatagrams => "net.fragmented_datagrams",
            Counter::FragmentsProduced => "net.fragments_produced",
            Counter::ReassembledDatagrams => "net.reassembled_datagrams",
            Counter::ReassemblyTimeouts => "net.reassembly_timeouts",
            Counter::MrtRetransmits => "mrt.retransmits",
            Counter::PvcVerifyFailures => "pvc.verify_failures",
            Counter::PoolHits => "pool.hits",
            Counter::PoolMisses => "pool.misses",
            Counter::PipelineOutputBatches => "pipeline.output_batches",
            Counter::PipelineInputBatches => "pipeline.input_batches",
            Counter::PipelineBatchDatagrams => "pipeline.batch_datagrams",
            Counter::RetryAttempts => "retry.attempts",
            Counter::RetryExhausted => "retry.exhausted",
            Counter::BreakerOpens => "breaker.opened",
            Counter::BreakerHalfOpens => "breaker.half_open",
            Counter::BreakerCloses => "breaker.closed",
            Counter::BreakerFastFails => "breaker.fast_fails",
            Counter::ParkParked => "park.parked",
            Counter::ParkReleased => "park.released",
            Counter::ParkExpired => "park.expired",
            Counter::ParkOverflow => "park.overflow",
            Counter::DegradeFailOpen => "degrade.fail_open",
            Counter::DegradeFailClosed => "degrade.fail_closed",
            Counter::WorkerBatches => "hooks.worker_batches",
            Counter::WorkerPanics => "hooks.worker_panics",
            Counter::WorkerRespawns => "hooks.worker_respawns",
            Counter::WorkerBusyNs => "hooks.worker_busy_ns",
            Counter::EventsDropped => "obs.events_dropped",
            Counter::PoolReturns => "pool.returns",
            Counter::PoolDiscards => "pool.discards",
            Counter::BreakerTimeClosedUs => "breaker.time_closed_us",
            Counter::BreakerTimeOpenUs => "breaker.time_open_us",
            Counter::BreakerTimeHalfOpenUs => "breaker.time_half_open_us",
            Counter::SealSuitePaper => "crypto.seal.paper",
            Counter::SealSuiteFastDes => "crypto.seal.fast_des",
            Counter::SealSuiteAead => "crypto.seal.aead_chacha_poly",
            Counter::OpenSuitePaper => "crypto.open.paper",
            Counter::OpenSuiteFastDes => "crypto.open.fast_des",
            Counter::OpenSuiteAead => "crypto.open.aead_chacha_poly",
        }
    }

    /// `ALL` lists the variants in declaration order (pinned by a
    /// test), so the discriminant is the slot.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// The log2 histograms the registry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Histogram {
    /// Microseconds per zero-message key derivation.
    KeyDerivationMicros,
    /// Payload bytes per sent datagram.
    SendBytes,
    /// Payload bytes per received datagram.
    ReceiveBytes,
}

/// Number of histograms.
const NUM_HISTOGRAMS: usize = 3;

impl Histogram {
    /// All histograms, in snapshot order.
    pub const ALL: [Histogram; NUM_HISTOGRAMS] = [
        Histogram::KeyDerivationMicros,
        Histogram::SendBytes,
        Histogram::ReceiveBytes,
    ];

    /// The histogram's snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::KeyDerivationMicros => "key_derivation_us",
            Histogram::SendBytes => "send_bytes",
            Histogram::ReceiveBytes => "receive_bytes",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Log2 histogram with atomic buckets; bucket 0 holds values `<= 1`,
/// bucket `i` holds values in `[2^i, 2^(i+1))` — the same bucketing as
/// `fbs-trace`'s `LogHistogram`.
struct AtomicLogHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Exact sum of observed values (two relaxed `fetch_add`s per
    /// observation; a scraper may see the bucket before the sum, so
    /// readers tolerate one in-flight sample per writer).
    sum: AtomicU64,
}

impl AtomicLogHistogram {
    fn new() -> Self {
        AtomicLogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let b = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                buckets.push((lo, hi, count));
            }
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A component the registry reads at scrape time for rows it derives
/// from state the component already keeps exactly — per-owner blocks,
/// per-shard ledgers — so no copy of that state is ever pushed into the
/// registry to drift from it. The registry holds sources weakly: it
/// never keeps one alive, and a dropped source simply stops
/// contributing.
pub trait ScrapeSource: Send + Sync {
    /// Add this source's rows to `snap` (adding to what is already
    /// there, so several sources' rows of one key sum).
    fn contribute(&self, snap: &mut MetricsSnapshot);
}

struct RecorderInner {
    buf: Vec<EventRecord>,
    /// Next overwrite position once the ring is full.
    write: usize,
    seq: u64,
}

/// The unified metrics registry. Cheap to share (`Arc`), cheap when
/// absent (callers hold `Option<Arc<MetricsRegistry>>` and skip all of
/// this on `None`).
///
/// Every key has one source, never two for one event: the registry's
/// own cells, for counts no component keeps (hook entries, key
/// derivations, suites, the net layer, rare events); the components'
/// blocks it sums at scrape time ([`attach`](Self::attach)); and the rows
/// its scrape sources derive from their own ledgers
/// ([`attach_source`](Self::attach_source)).
pub struct MetricsRegistry {
    /// The own cells. Any thread writes them, so, unlike a
    /// [`CounterBlock`]'s, each write is a `fetch_add`.
    own: [AtomicU64; NUM_COUNTERS],
    /// Component blocks summed into every read, each once.
    attached: Mutex<Vec<Arc<CounterBlock>>>,
    /// Components whose rows every snapshot derives, each once.
    sources: Mutex<Vec<Weak<dyn ScrapeSource>>>,
    histograms: [AtomicLogHistogram; NUM_HISTOGRAMS],
    /// Per-stage nanosecond latency histograms for the batch pipeline.
    stages: [AtomicLogHistogram; NUM_STAGES],
    /// Optional flow tracer, reachable by every component that holds
    /// this registry (one atomic load when unset).
    tracer: OnceLock<Arc<FlowTracer>>,
    recorder: Mutex<RecorderInner>,
    capacity: usize,
    /// Microsecond time source stamped onto events. Defaults to a
    /// constant 0 so a bare registry is fully deterministic; wire it to
    /// a clock (e.g. `fbs_core::clock::Clock::now_micros`) for real
    /// timelines.
    time: Box<dyn Fn() -> u64 + Send + Sync>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("event_capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// Registry with the default flight-recorder capacity
    /// ([`DEFAULT_EVENT_CAPACITY`]).
    pub fn new() -> Self {
        MetricsRegistry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Registry whose flight recorder keeps the last `capacity` events.
    /// A capacity of 0 disables event recording (counters and
    /// histograms still work).
    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            own: std::array::from_fn(|_| AtomicU64::new(0)),
            attached: Mutex::new(Vec::new()),
            sources: Mutex::new(Vec::new()),
            histograms: std::array::from_fn(|_| AtomicLogHistogram::new()),
            stages: std::array::from_fn(|_| AtomicLogHistogram::new()),
            tracer: OnceLock::new(),
            recorder: Mutex::new(RecorderInner {
                buf: Vec::with_capacity(capacity.min(4096)),
                write: 0,
                seq: 0,
            }),
            capacity,
            time: Box::new(|| 0),
        }
    }

    /// Replace the event time source (builder style; call before
    /// sharing the registry).
    pub fn with_time_source(mut self, f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        self.time = Box::new(f);
        self
    }

    /// Read `block` at every scrape from now on: its counts — including
    /// those made before the attach — join this registry's. Attaching a
    /// block twice is a no-op, so several components sharing one block
    /// may each attach it.
    pub fn attach(&self, block: Arc<CounterBlock>) {
        let mut attached = self.attached.lock().unwrap_or_else(|e| e.into_inner());
        if !attached.iter().any(|b| Arc::ptr_eq(b, &block)) {
            attached.push(block);
        }
    }

    /// Derive `source`'s rows at every scrape from now on, for as long
    /// as it lives. Attaching a source twice is a no-op.
    pub fn attach_source(&self, source: Weak<dyn ScrapeSource>) {
        let mut sources = self.sources.lock().unwrap_or_else(|e| e.into_inner());
        sources.retain(|s| s.strong_count() > 0);
        if !sources.iter().any(|s| Weak::ptr_eq(s, &source)) {
            sources.push(source);
        }
    }

    /// Number of distinct blocks attached: one per lock domain of every
    /// component that attached its counts.
    pub fn attached_blocks(&self) -> usize {
        self.attached
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Increment a counter of the registry's own cells by 1.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter of the registry's own cells by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.own[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Read a scalar counter: the own cells plus every attached block.
    pub fn counter(&self, c: Counter) -> u64 {
        let attached = self.attached.lock().unwrap_or_else(|e| e.into_inner());
        self.own[c.index()].load(Ordering::Relaxed)
            + attached.iter().map(|b| b.counter(c)).sum::<u64>()
    }

    /// Add a sample to a histogram.
    pub fn observe(&self, h: Histogram, value: u64) {
        self.histograms[h.index()].observe(value);
    }

    /// Record a stage span: `ns` nanoseconds spent in pipeline stage
    /// `s`. Two relaxed `fetch_add`s; no allocation.
    pub fn observe_stage(&self, s: Stage, ns: u64) {
        self.stages[s.index()].observe(ns);
    }

    /// A stage's latency histogram.
    pub fn stage_histogram(&self, s: Stage) -> HistogramSnapshot {
        self.stages[s.index()].snapshot()
    }

    /// Attach a flow tracer. First attach wins; later calls are
    /// ignored (the registry is already shared by then).
    pub fn set_tracer(&self, tracer: Arc<FlowTracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The attached flow tracer, if any (one atomic load when unset).
    pub fn tracer(&self) -> Option<&Arc<FlowTracer>> {
        self.tracer.get()
    }

    /// Record a rare event: updates the counters the event implies,
    /// then appends it to the flight recorder.
    pub fn record(&self, event: Event) {
        self.apply(&event);
        // A breaker flip is a global condition, not owned by any one
        // flow: mirror it onto the trace timeline so a sampled flow's
        // stall can be read against keying-plane health.
        if let Event::BreakerTransition {
            to, in_state_us, ..
        } = &event
        {
            if let Some(tracer) = self.tracer.get() {
                tracer.annotate("breaker_transition", to.name(), (self.time)(), *in_state_us);
            }
        }
        if self.capacity == 0 {
            return;
        }
        let t_us = (self.time)();
        let mut rec = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        rec.seq += 1;
        let entry = EventRecord {
            seq: rec.seq,
            t_us,
            event,
        };
        if rec.buf.len() < self.capacity {
            rec.buf.push(entry);
        } else {
            // Overwriting unread history: make the loss visible.
            self.incr(Counter::EventsDropped);
            let w = rec.write;
            rec.buf[w] = entry;
            rec.write = (w + 1) % self.capacity;
        }
    }

    /// Counter side effects of an event. Events whose count a component
    /// keeps in its block (degradations, the MKD's retries and breaker
    /// moves) only reach the flight recorder.
    fn apply(&self, event: &Event) {
        use crate::event::BreakerStateKind;
        match *event {
            Event::ReassemblyTimeout => self.incr(Counter::ReassemblyTimeouts),
            Event::MrtRetransmit => self.incr(Counter::MrtRetransmits),
            Event::BreakerTransition {
                from, in_state_us, ..
            } => self.add(
                match from {
                    BreakerStateKind::Closed => Counter::BreakerTimeClosedUs,
                    BreakerStateKind::Open => Counter::BreakerTimeOpenUs,
                    BreakerStateKind::HalfOpen => Counter::BreakerTimeHalfOpenUs,
                },
                in_state_us,
            ),
            Event::Parked { .. } => self.incr(Counter::ParkParked),
            Event::ParkReleased { .. } => self.incr(Counter::ParkReleased),
            Event::ParkExpired => self.incr(Counter::ParkExpired),
            Event::ParkOverflow => self.incr(Counter::ParkOverflow),
            Event::Degraded { .. }
            | Event::RetryAttempt { .. }
            | Event::RetryExhausted { .. }
            | Event::BreakerFastFail => {}
        }
    }

    /// The flight recorder's contents, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        let rec = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        if rec.buf.len() < self.capacity || self.capacity == 0 {
            rec.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&rec.buf[rec.write..]);
            out.extend_from_slice(&rec.buf[..rec.write]);
            out
        }
    }

    /// Point-in-time snapshot of every non-zero counter and cache
    /// counter (own cells plus attached blocks), the rows of every live
    /// scrape source, the histograms, and the flight recorder.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for c in Counter::ALL {
            snap.add(c.name(), self.own[c.index()].load(Ordering::Relaxed));
        }
        for block in self
            .attached
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            block.contribute(&mut snap);
        }
        // Upgrade under the lock, read outside it: a source's rows are
        // its own atomics, and the registry never holds it past here.
        let sources: Vec<Arc<dyn ScrapeSource>> = self
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        for source in sources {
            source.contribute(&mut snap);
        }
        for h in Histogram::ALL {
            let hs = self.histograms[h.index()].snapshot();
            if !hs.buckets.is_empty() {
                snap.histograms.insert(h.name().to_string(), hs);
            }
        }
        for s in Stage::ALL {
            let hs = self.stages[s.index()].snapshot();
            if !hs.buckets.is_empty() {
                snap.histograms.insert(format!("stage.{}_ns", s.name()), hs);
            }
        }
        snap.events = self.events();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheKind, Direction};

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.incr(Counter::Encryptions);
        reg.add(Counter::Encryptions, 2);
        assert_eq!(reg.counter(Counter::Encryptions), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("endpoint.encryptions"), 3);
        assert_eq!(snap.counter("endpoint.sends"), 0);
    }

    #[test]
    fn fault_events_drive_their_counters() {
        let reg = MetricsRegistry::new();
        reg.record(Event::ReassemblyTimeout);
        reg.record(Event::MrtRetransmit);
        reg.record(Event::MrtRetransmit);
        reg.observe(Histogram::SendBytes, 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.reassembly_timeouts"), 1);
        assert_eq!(snap.counter("mrt.retransmits"), 2);
        // A histogram sample is not an event.
        assert!(snap.histograms.contains_key("send_bytes"));
        assert_eq!(snap.events.len(), 3);
    }

    #[test]
    fn attached_blocks_are_read_whole_and_once() {
        let reg = MetricsRegistry::new();
        let block = Arc::new(CounterBlock::new());
        block.incr(Counter::Sends);
        block.cache_lookup(CacheKind::Rfkc, crate::event::CacheOutcome::MissCold);
        reg.incr(Counter::Sends);
        // Counts made before the attach are read too; a second attach
        // of the same block adds nothing.
        reg.attach(Arc::clone(&block));
        reg.attach(Arc::clone(&block));
        block.incr(Counter::Sends);
        assert_eq!(reg.counter(Counter::Sends), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("endpoint.sends"), 3);
        assert_eq!(snap.counter("cache.rfkc.cold_misses"), 1);
        // Two blocks sum.
        let other = Arc::new(CounterBlock::new());
        other.incr(Counter::Sends);
        reg.attach(other);
        assert_eq!(reg.snapshot().counter("endpoint.sends"), 4);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let reg = MetricsRegistry::with_event_capacity(4);
        for queued in 0..10u32 {
            reg.record(Event::Parked { queued });
        }
        let events = reg.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_overflow_counts_dropped_events() {
        let reg = MetricsRegistry::with_event_capacity(4);
        for queued in 0..10u32 {
            reg.record(Event::Parked { queued });
        }
        // 10 recorded into a 4-slot ring: 6 overwritten before read.
        assert_eq!(reg.counter(Counter::EventsDropped), 6);
        assert_eq!(reg.snapshot().counter("obs.events_dropped"), 6);
        // A ring that never filled drops nothing.
        let quiet = MetricsRegistry::with_event_capacity(4);
        quiet.record(Event::BreakerFastFail);
        assert_eq!(quiet.counter(Counter::EventsDropped), 0);
    }

    #[test]
    fn stage_histograms_snapshot() {
        let reg = MetricsRegistry::new();
        reg.observe_stage(Stage::Partition, 100);
        reg.observe_stage(Stage::Partition, 200);
        reg.observe_stage(Stage::Seal, 1_000);
        let snap = reg.snapshot();
        let part = &snap.histograms["stage.partition_ns"];
        assert_eq!(part.count(), 2);
        assert_eq!(part.sum, 300);
        assert_eq!(snap.histograms["stage.seal_ns"].count(), 1);
    }

    /// A source whose one row is a ledger it owns.
    struct Ledger(AtomicU64);

    impl ScrapeSource for Ledger {
        fn contribute(&self, snap: &mut MetricsSnapshot) {
            snap.add("mem.test_bytes", self.0.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn scrape_sources_are_read_live_once_and_never_kept_alive() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(Ledger(AtomicU64::new(5)));
        let weak_a: Weak<dyn ScrapeSource> = Arc::downgrade(&a) as Weak<Ledger>;
        reg.attach_source(weak_a.clone());
        reg.attach_source(weak_a);
        assert_eq!(reg.snapshot().counter("mem.test_bytes"), 5);
        // The row is the ledger as it stands at the scrape, not a copy.
        a.0.store(0, Ordering::Relaxed);
        assert_eq!(reg.snapshot().counter("mem.test_bytes"), 0);
        a.0.store(7, Ordering::Relaxed);
        // Two sources' rows of one key sum.
        let b = Arc::new(Ledger(AtomicU64::new(3)));
        reg.attach_source(Arc::downgrade(&b) as Weak<Ledger>);
        assert_eq!(reg.snapshot().counter("mem.test_bytes"), 10);
        // The registry holds no source alive: a dropped one stops
        // contributing.
        drop(a);
        assert_eq!(reg.snapshot().counter("mem.test_bytes"), 3);
        assert_eq!(Arc::strong_count(&b), 1);
    }

    #[test]
    fn tracer_attach_is_first_wins() {
        let reg = MetricsRegistry::new();
        assert!(reg.tracer().is_none());
        let a = Arc::new(FlowTracer::new(0));
        let b = Arc::new(FlowTracer::new(4));
        reg.set_tracer(a);
        reg.set_tracer(b);
        assert_eq!(reg.tracer().unwrap().rate_log2(), 0);
    }

    #[test]
    fn zero_capacity_disables_events_not_counters() {
        let reg = MetricsRegistry::with_event_capacity(0);
        reg.record(Event::ReassemblyTimeout);
        assert!(reg.events().is_empty());
        assert_eq!(reg.counter(Counter::ReassemblyTimeouts), 1);
    }

    #[test]
    fn time_source_stamps_events() {
        let reg = MetricsRegistry::new().with_time_source(|| 42);
        reg.record(Event::ReassemblyTimeout);
        assert_eq!(reg.events()[0].t_us, 42);
    }

    #[test]
    fn robustness_events_drive_registry_only_counters() {
        use crate::event::BreakerStateKind;
        let reg = MetricsRegistry::new();
        reg.record(Event::RetryAttempt {
            attempt: 1,
            backoff_us: 100,
        });
        reg.record(Event::RetryAttempt {
            attempt: 2,
            backoff_us: 200,
        });
        reg.record(Event::RetryExhausted { attempts: 3 });
        reg.record(Event::BreakerTransition {
            from: BreakerStateKind::Closed,
            to: BreakerStateKind::Open,
            in_state_us: 300,
        });
        reg.record(Event::BreakerFastFail);
        reg.record(Event::BreakerTransition {
            from: BreakerStateKind::Open,
            to: BreakerStateKind::HalfOpen,
            in_state_us: 1_000,
        });
        reg.record(Event::BreakerTransition {
            from: BreakerStateKind::HalfOpen,
            to: BreakerStateKind::Closed,
            in_state_us: 40,
        });
        reg.record(Event::Parked { queued: 1 });
        reg.record(Event::ParkReleased { waited_us: 50 });
        reg.record(Event::ParkExpired);
        reg.record(Event::ParkOverflow);
        reg.record(Event::Degraded {
            dir: Direction::Output,
            open: true,
        });
        reg.record(Event::Degraded {
            dir: Direction::Input,
            open: false,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("breaker.time_closed_us"), 300);
        assert_eq!(snap.counter("breaker.time_open_us"), 1_000);
        assert_eq!(snap.counter("breaker.time_half_open_us"), 40);
        assert_eq!(snap.counter("park.parked"), 1);
        assert_eq!(snap.counter("park.released"), 1);
        assert_eq!(snap.counter("park.expired"), 1);
        assert_eq!(snap.counter("park.overflow"), 1);
        // The MKD's and the hooks' blocks count these; the events are
        // the flight recorder's.
        for name in [
            "retry.attempts",
            "retry.exhausted",
            "breaker.opened",
            "breaker.half_open",
            "breaker.closed",
            "breaker.fast_fails",
            "degrade.fail_open",
            "degrade.fail_closed",
        ] {
            assert_eq!(snap.counter(name), 0, "{name}");
        }
        assert_eq!(snap.events.len(), 13);
    }

    #[test]
    fn empty_registry_snapshot_is_empty() {
        // A registry that never saw an event must snapshot to nothing:
        // no zero-valued counters, no cache entries, no histograms, no
        // events — and reading any counter back yields 0, not a panic.
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        for c in Counter::ALL {
            assert_eq!(reg.counter(c), 0);
            assert_eq!(snap.counter(c.name()), 0);
        }
    }

    #[test]
    fn counter_discriminants_follow_all_order() {
        // `Counter::index` is `self as usize`: a variant declared out of
        // `ALL` order would silently count into a neighbour's slot.
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
