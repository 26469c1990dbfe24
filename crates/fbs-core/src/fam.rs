//! The Flow Association Mechanism (FAM) — paper §5.1, Fig. 1.
//!
//! The FAM separates outgoing datagrams into flows. It is *policy driven*:
//! the mechanism (a flow state table plus the classify/sweep machinery
//! here) is fixed, while policy modules "plug in" to decide (a) which table
//! entry a datagram's attributes map to, (b) whether an entry describes the
//! same flow, and (c) when a flow has expired. The state is purely local to
//! the source principal — the destination only ever demultiplexes on the
//! *sfl* — so no state synchronisation is needed between the two ends.

use crate::sfl::SflAllocator;
use fbs_obs::{Counter, Event, FlowStartKind, MetricsRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One active flow in the flow state table (paper Fig. 7's `FSTEntry`,
/// generalised over the attribute type).
#[derive(Clone, Debug)]
pub struct FstEntry<A> {
    /// Security flow label assigned to this flow.
    pub sfl: u64,
    /// The attributes that define the flow (e.g. a 5-tuple).
    pub attrs: A,
    /// Seconds-since-epoch when the flow started.
    pub created: u64,
    /// Seconds-since-epoch of the last datagram in the flow (Fig. 7's
    /// `last` field, compared against THRESHOLD by the sweeper).
    pub last: u64,
    /// Datagrams classified into this flow.
    pub packets: u64,
    /// Payload bytes classified into this flow.
    pub bytes: u64,
}

/// A policy module pair (mapper + sweeper) in the sense of Fig. 1.
///
/// `index`/`same_flow` realise the **mapper**: locate the candidate entry
/// and decide whether it is this datagram's flow. `expired` realises the
/// **sweeper** predicate. The FAM mechanics never interpret attributes
/// themselves.
pub trait FlowPolicy<A> {
    /// Map attributes to a flow-state-table index (e.g. `CRC-32(attrs) mod
    /// FSTSIZE` in the Fig. 7 policy).
    fn index(&self, attrs: &A, table_size: usize) -> usize;

    /// Does an entry holding `entry_attrs` describe the flow of a datagram
    /// with `attrs`?
    fn same_flow(&self, entry_attrs: &A, attrs: &A) -> bool;

    /// Has this flow expired (sweeper predicate)? The Fig. 7 policy expires
    /// entries whose last datagram is more than THRESHOLD seconds old.
    fn expired(&self, entry: &FstEntry<A>, now_secs: u64) -> bool;
}

/// Graceful-degradation verdict for key-unavailable datagrams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyUnavailableVerdict {
    /// Drop the datagram and surface an error (default: never weaken
    /// security for availability).
    #[default]
    FailClosed,
    /// Let the datagram through unprotected/unverified. Only sound for
    /// flows whose policy demanded integrity opportunistically; never
    /// applied to encrypted traffic.
    FailOpen,
    /// Hold the datagram in a bounded parking queue and retry when key
    /// material may be back; drop on deadline.
    Park,
}

/// Why a classification started a new flow (or did not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowStart {
    /// The datagram joined an existing valid flow.
    Existing,
    /// First flow ever seen at this table slot.
    Fresh,
    /// The slot held an *expired* flow (possibly with the same attributes —
    /// that case is also counted in `repeated_flows`).
    ReplacedExpired,
    /// The slot held a *valid* flow with different attributes: an index
    /// collision prematurely terminated it (footnote 11 — harmless for
    /// security, bad for efficiency).
    Collision,
}

/// Result of classifying one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Classification {
    /// The security flow label to put in the datagram's FBS header.
    pub sfl: u64,
    /// How the flow was (or wasn't) started.
    pub start: FlowStart,
    /// True when this datagram started a *new* flow whose attributes had
    /// already identified some earlier flow — a "repeated flow" in the
    /// Fig. 14 sense (same 5-tuple, different flow incarnation).
    pub repeated: bool,
}

impl Classification {
    /// Did this datagram start a new flow?
    pub fn is_new_flow(&self) -> bool {
        self.start != FlowStart::Existing
    }
}

/// A completed (or in-progress, at drain time) flow, for the §7.3 flow
/// characteristics experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow's sfl.
    pub sfl: u64,
    /// Datagrams carried.
    pub packets: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Flow start time (seconds since epoch).
    pub created: u64,
    /// Last datagram time.
    pub last: u64,
}

impl FlowRecord {
    /// Flow duration in seconds (first to last datagram).
    pub fn duration_secs(&self) -> u64 {
        self.last - self.created
    }
}

/// Counters describing FAM behaviour over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamStats {
    /// Datagrams classified.
    pub classifications: u64,
    /// Datagrams that joined an existing flow.
    pub joined_existing: u64,
    /// New flows started (any [`FlowStart`] except `Existing`).
    pub flows_started: u64,
    /// New flows that displaced a still-valid different flow (index
    /// collisions; footnote 11).
    pub collisions: u64,
    /// New flows whose attributes had been seen on an earlier flow
    /// (Fig. 14's "repeated flows").
    pub repeated_flows: u64,
    /// Entries removed by explicit sweeps.
    pub swept: u64,
}

impl FamStats {
    /// Fold these counters into a snapshot under the `fam.*` names a live
    /// [`MetricsRegistry`] uses.
    pub fn contribute(&self, snap: &mut MetricsSnapshot) {
        snap.add("fam.classifications", self.classifications);
        snap.add("fam.joined_existing", self.joined_existing);
        snap.add("fam.flows_started", self.flows_started);
        snap.add("fam.collisions", self.collisions);
        snap.add("fam.repeated_flows", self.repeated_flows);
        snap.add("fam.swept", self.swept);
    }
}

impl From<FlowStart> for FlowStartKind {
    fn from(s: FlowStart) -> Self {
        match s {
            FlowStart::Existing => FlowStartKind::Existing,
            FlowStart::Fresh => FlowStartKind::Fresh,
            FlowStart::ReplacedExpired => FlowStartKind::ReplacedExpired,
            FlowStart::Collision => FlowStartKind::Collision,
        }
    }
}

/// The Flow Association Mechanism: flow state table + pluggable policy.
///
/// ```
/// use fbs_core::{Fam, SflAllocator};
/// use fbs_core::policy::IdleTimeoutPolicy;
///
/// let mut fam = Fam::new(64, IdleTimeoutPolicy::new(600), SflAllocator::new(1000));
/// let first = fam.classify("conversation-a".to_string(), /*now:*/ 0, /*bytes:*/ 120);
/// let again = fam.classify("conversation-a".to_string(), 30, 80);
/// assert_eq!(first.sfl, again.sfl, "same conversation, same flow");
/// let other = fam.classify("conversation-b".to_string(), 30, 80);
/// assert_ne!(first.sfl, other.sfl, "separate conversation, separate key");
/// ```
pub struct Fam<A, P> {
    fst: Vec<Option<FstEntry<A>>>,
    policy: P,
    alloc: SflAllocator,
    stats: FamStats,
    /// Attribute history for repeated-flow detection; `None` disables the
    /// (unbounded) tracking.
    history: Option<HashMap<A, u32>>,
    /// Finished-flow records for the §7.3 experiments; `None` disables.
    records: Option<Vec<FlowRecord>>,
    /// Optional metrics registry; classifications and sweeps emit events
    /// into it. `None` (the default) keeps the hot path observation-free.
    obs: Option<Arc<MetricsRegistry>>,
}

impl<A: Clone + Eq + Hash, P: FlowPolicy<A>> Fam<A, P> {
    /// Create a FAM with `table_size` slots (Fig. 7's FSTSIZE), the given
    /// policy, and an sfl allocator seeded by the caller.
    ///
    /// # Panics
    /// Panics if `table_size` is zero.
    pub fn new(table_size: usize, policy: P, alloc: SflAllocator) -> Self {
        assert!(table_size > 0, "FST must have at least one slot");
        Fam {
            fst: (0..table_size).map(|_| None).collect(),
            policy,
            alloc,
            stats: FamStats::default(),
            history: None,
            records: None,
            obs: None,
        }
    }

    /// Attach a metrics registry: every classification emits an
    /// [`Event::FamClassify`] and sweeps feed `fam.swept`.
    pub fn set_obs(&mut self, registry: Arc<MetricsRegistry>) {
        self.obs = Some(registry);
    }

    /// Enable repeated-flow tracking (unbounded memory: one map entry per
    /// distinct attribute tuple ever seen). Needed for Fig. 14.
    pub fn with_repeat_tracking(mut self) -> Self {
        self.enable_repeat_tracking();
        self
    }

    /// Enable (or re-enable) repeated-flow tracking in place. The first
    /// call pre-sizes the history to the FST's footprint so the warm-up
    /// phase does not rehash its way up from empty; later calls clear
    /// and *reuse* the existing allocation instead of dropping it for a
    /// fresh `HashMap`.
    pub fn enable_repeat_tracking(&mut self) {
        match &mut self.history {
            Some(h) => h.clear(),
            None => self.history = Some(HashMap::with_capacity(self.fst.len() * 2)),
        }
    }

    /// Enable finished-flow recording (unbounded memory: one record per
    /// flow). Needed for Figs. 9 and 10.
    pub fn with_flow_records(mut self) -> Self {
        self.records = Some(Vec::new());
        self
    }

    /// Classify a datagram with the given attributes arriving at
    /// `now_secs`, carrying `bytes` payload bytes. This is the mapper
    /// invocation of Fig. 4 line S1.
    pub fn classify(&mut self, attrs: A, now_secs: u64, bytes: u64) -> Classification {
        self.stats.classifications += 1;
        let i = self.policy.index(&attrs, self.fst.len());

        // Existing, valid, matching entry ⇒ the datagram joins the flow.
        if let Some(e) = &mut self.fst[i] {
            if !self.policy.expired(e, now_secs) && self.policy.same_flow(&e.attrs, &attrs) {
                e.last = now_secs;
                e.packets += 1;
                e.bytes += bytes;
                self.stats.joined_existing += 1;
                let sfl = e.sfl;
                if let Some(reg) = &self.obs {
                    reg.record(Event::FamClassify {
                        sfl,
                        start: FlowStartKind::Existing,
                        repeated: false,
                    });
                }
                return Classification {
                    sfl,
                    start: FlowStart::Existing,
                    repeated: false,
                };
            }
        }

        // Otherwise a new flow starts at this slot.
        let start = match &self.fst[i] {
            None => FlowStart::Fresh,
            Some(e) if self.policy.expired(e, now_secs) => FlowStart::ReplacedExpired,
            Some(_) => FlowStart::Collision,
        };
        if start == FlowStart::Collision {
            self.stats.collisions += 1;
        }
        if let Some(old) = self.fst[i].take() {
            self.record_finished(&old);
        }

        let repeated = match &mut self.history {
            None => false,
            Some(h) => {
                let count = h.entry(attrs.clone()).or_insert(0);
                let repeated = *count > 0;
                *count += 1;
                repeated
            }
        };
        if repeated {
            self.stats.repeated_flows += 1;
        }

        let sfl = self.alloc.next_sfl();
        self.fst[i] = Some(FstEntry {
            sfl,
            attrs,
            created: now_secs,
            last: now_secs,
            packets: 1,
            bytes,
        });
        self.stats.flows_started += 1;
        if let Some(reg) = &self.obs {
            reg.record(Event::FamClassify {
                sfl,
                start: start.into(),
                repeated,
            });
        }
        Classification {
            sfl,
            start,
            repeated,
        }
    }

    /// Run the sweeper (Fig. 7): remove expired entries, returning how many
    /// were removed. With the combined FST/TFKC optimisation of §7.2 this
    /// becomes implicit, but the explicit form matches Fig. 1.
    pub fn sweep(&mut self, now_secs: u64) -> usize {
        let mut removed = 0;
        for i in 0..self.fst.len() {
            let expired = matches!(&self.fst[i], Some(e) if self.policy.expired(e, now_secs));
            if expired {
                let old = self.fst[i].take().unwrap();
                self.record_finished(&old);
                removed += 1;
            }
        }
        self.stats.swept += removed as u64;
        if let Some(reg) = &self.obs {
            reg.add(Counter::FamSwept, removed as u64);
        }
        removed
    }

    fn record_finished(&mut self, e: &FstEntry<A>) {
        if let Some(records) = &mut self.records {
            records.push(FlowRecord {
                sfl: e.sfl,
                packets: e.packets,
                bytes: e.bytes,
                created: e.created,
                last: e.last,
            });
        }
    }

    /// Number of flows currently valid at `now_secs` (Fig. 12's metric).
    pub fn active_flows(&self, now_secs: u64) -> usize {
        self.fst
            .iter()
            .flatten()
            .filter(|e| !self.policy.expired(e, now_secs))
            .count()
    }

    /// Number of occupied table slots (valid or not yet swept).
    pub fn occupied_slots(&self) -> usize {
        self.fst.iter().flatten().count()
    }

    /// FST size (Fig. 7's FSTSIZE).
    pub fn table_size(&self) -> usize {
        self.fst.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FamStats {
        self.stats
    }

    /// Finish all remaining flows and return every flow record collected
    /// (requires [`with_flow_records`](Self::with_flow_records)).
    pub fn drain_records(&mut self) -> Vec<FlowRecord> {
        for i in 0..self.fst.len() {
            if let Some(old) = self.fst[i].take() {
                self.record_finished(&old);
            }
        }
        self.records.take().unwrap_or_default()
    }

    /// Immutable view of an FST slot (diagnostics/tests).
    pub fn slot(&self, i: usize) -> Option<&FstEntry<A>> {
        self.fst.get(i).and_then(|s| s.as_ref())
    }

    /// The policy in use.
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal test policy: attrs are (u32 key); index = key % size; same
    /// flow = equal keys; expired when idle > threshold.
    struct TestPolicy {
        threshold: u64,
    }

    impl FlowPolicy<u32> for TestPolicy {
        fn index(&self, attrs: &u32, table_size: usize) -> usize {
            (*attrs as usize) % table_size
        }
        fn same_flow(&self, a: &u32, b: &u32) -> bool {
            a == b
        }
        fn expired(&self, entry: &FstEntry<u32>, now_secs: u64) -> bool {
            now_secs.saturating_sub(entry.last) > self.threshold
        }
    }

    fn fam(size: usize, threshold: u64) -> Fam<u32, TestPolicy> {
        Fam::new(size, TestPolicy { threshold }, SflAllocator::new(1000))
            .with_repeat_tracking()
            .with_flow_records()
    }

    #[test]
    fn same_attrs_same_flow() {
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 100);
        let c2 = f.classify(5, 10, 200);
        assert_eq!(c1.sfl, c2.sfl);
        assert_eq!(c1.start, FlowStart::Fresh);
        assert_eq!(c2.start, FlowStart::Existing);
        assert_eq!(f.stats().flows_started, 1);
        assert_eq!(f.stats().joined_existing, 1);
    }

    #[test]
    fn different_attrs_different_flows() {
        let mut f = fam(16, 600);
        let c1 = f.classify(1, 0, 10);
        let c2 = f.classify(2, 0, 10);
        assert_ne!(c1.sfl, c2.sfl);
    }

    #[test]
    fn reenabling_repeat_tracking_reuses_the_history_allocation() {
        let mut f = fam(16, 600);
        // First enable pre-sized the map to the FST's footprint.
        let presized = f.history.as_ref().expect("enabled").capacity();
        assert!(presized >= 32, "history not pre-sized: {presized}");
        for k in 0..100u32 {
            f.classify(k, 0, 10);
        }
        let grown = f.history.as_ref().expect("enabled").capacity();
        assert!(grown >= presized);
        // Re-enabling clears the entries but keeps the backing storage —
        // no fresh `HashMap::new()` starting from capacity zero.
        f.enable_repeat_tracking();
        let h = f.history.as_ref().expect("still enabled");
        assert!(h.is_empty(), "re-enable must clear old attribute history");
        assert_eq!(h.capacity(), grown, "re-enable dropped the allocation");
        // And tracking still works after the reset.
        let c1 = f.classify(5, 1_000, 10);
        assert!(!c1.repeated, "history was cleared, so not a repeat");
        let c2 = f.classify(5, 2_000, 10);
        assert_eq!(c2.start, FlowStart::ReplacedExpired);
        assert!(c2.repeated);
    }

    #[test]
    fn idle_flow_expires_and_restarts_as_repeated() {
        // The §7.1 policy in miniature: a gap > THRESHOLD starts a new flow
        // with a new sfl for the same attributes.
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 10);
        let c2 = f.classify(5, 601, 10);
        assert_ne!(c1.sfl, c2.sfl);
        assert_eq!(c2.start, FlowStart::ReplacedExpired);
        assert!(c2.repeated);
        assert_eq!(f.stats().repeated_flows, 1);
    }

    #[test]
    fn gap_under_threshold_keeps_flow() {
        let mut f = fam(16, 600);
        let c1 = f.classify(5, 0, 10);
        let c2 = f.classify(5, 600, 10); // exactly THRESHOLD: not expired
        assert_eq!(c1.sfl, c2.sfl);
    }

    #[test]
    fn index_collision_prematurely_terminates() {
        // Keys 1 and 17 collide in a 16-slot table; both active ⇒ the
        // second displaces the first (footnote 11).
        let mut f = fam(16, 600);
        let c1 = f.classify(1, 0, 10);
        let c2 = f.classify(17, 1, 10);
        assert_ne!(c1.sfl, c2.sfl);
        assert_eq!(c2.start, FlowStart::Collision);
        assert_eq!(f.stats().collisions, 1);
        // Key 1 returning gets a fresh flow (its entry was displaced) and
        // counts as repeated.
        let c3 = f.classify(1, 2, 10);
        assert!(c3.is_new_flow());
        assert!(c3.repeated);
    }

    #[test]
    fn sweeper_removes_expired_only() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 10);
        f.classify(2, 500, 10);
        assert_eq!(f.sweep(700), 1); // key 1 idle 700s > 600
        assert_eq!(f.occupied_slots(), 1);
        assert_eq!(f.stats().swept, 1);
    }

    #[test]
    fn active_flow_count() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 10);
        f.classify(2, 100, 10);
        assert_eq!(f.active_flows(100), 2);
        assert_eq!(f.active_flows(650), 1); // key 1 now idle >600
        assert_eq!(f.active_flows(2000), 0);
    }

    #[test]
    fn flow_records_capture_sizes_and_durations() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 100);
        f.classify(1, 50, 200);
        f.classify(1, 90, 300);
        let records = f.drain_records();
        assert_eq!(records.len(), 1);
        let r = records[0];
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 600);
        assert_eq!(r.duration_secs(), 90);
    }

    #[test]
    fn drain_includes_swept_flows() {
        let mut f = fam(16, 600);
        f.classify(1, 0, 10);
        f.sweep(10_000);
        f.classify(2, 10_000, 20);
        let records = f.drain_records();
        assert_eq!(records.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_table_panics() {
        let _ = fam(0, 600);
    }

    #[test]
    fn obs_registry_mirrors_fam_stats() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut f = fam(16, 600);
        f.set_obs(Arc::clone(&reg));
        f.classify(1, 0, 10); // fresh
        f.classify(1, 10, 10); // existing
        f.classify(17, 20, 10); // collision with key 1
        f.classify(1, 30, 10); // collision back (17 still live), repeated
        f.classify(1, 1000, 10); // replaced-expired, repeated
        f.sweep(10_000);

        let s = f.stats();
        let mut from_stats = MetricsSnapshot::new();
        s.contribute(&mut from_stats);
        let live = reg.snapshot();
        assert_eq!(from_stats.counters, live.counters);
        assert_eq!(live.counter("fam.classifications"), 5);
        assert_eq!(live.counter("fam.joined_existing"), 1);
        assert_eq!(live.counter("fam.flows_started"), 4);
        assert_eq!(live.counter("fam.collisions"), 2);
        assert_eq!(live.counter("fam.repeated_flows"), 2);
        assert_eq!(live.counter("fam.swept"), 1);
        // One FamClassify event per classification in the recorder.
        let classify_events = live
            .events
            .iter()
            .filter(|e| matches!(e.event, Event::FamClassify { .. }))
            .count();
        assert_eq!(classify_events, 5);
    }
}
