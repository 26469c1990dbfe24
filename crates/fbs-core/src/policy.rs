//! Example security flow policies (paper §4, §5.1, §7.1).
//!
//! The FAM is policy-driven: what constitutes a flow is decided by mapper/
//! sweeper plug-ins. This module supplies layer-independent policies used
//! by tests, baselines and experiments; the concrete 5-tuple IP policy of
//! Fig. 7 lives in `fbs-ip`, closer to the protocol fields it inspects.

use crate::fam::{FlowPolicy, FlowUse, FstEntry};
use fbs_crypto::crc32;
use std::hash::Hash;

/// Generic idle-timeout policy over any hashable attribute type: datagrams
/// with equal attributes belong to one flow until the flow sits idle longer
/// than THRESHOLD — the structure of the paper's §7.1 policy, abstracted
/// from the 5-tuple.
#[derive(Clone, Debug)]
pub struct IdleTimeoutPolicy {
    /// Seconds of inactivity after which a flow expires (Fig. 7's
    /// THRESHOLD; the paper studies 300-1800 s).
    pub threshold_secs: u64,
}

impl IdleTimeoutPolicy {
    /// Policy with the given THRESHOLD.
    pub fn new(threshold_secs: u64) -> Self {
        IdleTimeoutPolicy { threshold_secs }
    }
}

/// Attribute encoding used by the generic policies: the attribute's
/// canonical bytes (hashed with CRC-32 per §5.3).
pub trait FlowAttrs: Clone + Eq + Hash {
    /// Canonical byte encoding, fed to the randomising index hash.
    fn canonical_bytes(&self) -> Vec<u8>;
}

impl FlowAttrs for Vec<u8> {
    fn canonical_bytes(&self) -> Vec<u8> {
        self.clone()
    }
}

impl FlowAttrs for String {
    fn canonical_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

impl FlowAttrs for u64 {
    fn canonical_bytes(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }
}

impl<A: FlowAttrs, V> FlowPolicy<A, V> for IdleTimeoutPolicy {
    fn index(&self, attrs: &A, table_size: usize) -> usize {
        crc32(&attrs.canonical_bytes()) as usize % table_size
    }

    fn same_flow(&self, entry_attrs: &A, attrs: &A) -> bool {
        entry_attrs == attrs
    }

    fn expired(&self, entry: &FstEntry<A, V>, now_secs: u64) -> bool {
        now_secs.saturating_sub(entry.last) > self.threshold_secs
    }
}

/// Host-pair policy: one flow per destination principal that never expires.
/// Running FBS under this policy degenerates to host-pair keying with a
/// per-pair traffic key — useful as a baseline that shares the FBS code
/// path (§2.2 / §7.4 comparisons).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostPairPolicy;

impl<A: FlowAttrs, V> FlowPolicy<A, V> for HostPairPolicy {
    fn index(&self, attrs: &A, table_size: usize) -> usize {
        crc32(&attrs.canonical_bytes()) as usize % table_size
    }

    fn same_flow(&self, entry_attrs: &A, attrs: &A) -> bool {
        entry_attrs == attrs
    }

    fn expired(&self, _entry: &FstEntry<A, V>, _now_secs: u64) -> bool {
        false
    }
}

/// Per-datagram policy: every datagram is its own flow (a new sfl every
/// time). The degenerate fine-grained extreme — maximum key isolation,
/// maximum keying cost; the §7.4 comparison point for SKIP-style
/// per-datagram keying.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerDatagramPolicy;

impl<A: FlowAttrs, V> FlowPolicy<A, V> for PerDatagramPolicy {
    fn index(&self, attrs: &A, table_size: usize) -> usize {
        crc32(&attrs.canonical_bytes()) as usize % table_size
    }

    fn same_flow(&self, _entry_attrs: &A, _attrs: &A) -> bool {
        // Nothing ever matches: every datagram starts a new flow.
        false
    }

    fn expired(&self, _entry: &FstEntry<A, V>, _now_secs: u64) -> bool {
        true
    }
}

/// Key wear-out wrapper (§5.2, third observation): "with use, an
/// encryption key will 'wear out' and should be changed. The lifetime of
/// an encryption key depends on ... the length of time it has been used,
/// and the amount of data that has been encrypted with it. With FBS,
/// rekeying can be easily accomplished via the FAM by changing the sfl.
/// Rekeying decisions, though, are made by policy modules."
///
/// This module wraps any inner policy and additionally expires a flow once
/// it has carried `max_bytes` or lived `max_age_secs` — starting a new
/// flow, hence a new sfl, hence a fresh key, with zero protocol actions.
#[derive(Clone, Debug)]
pub struct WearOutPolicy<P> {
    /// The wrapped policy (idle expiry etc. still applies).
    pub inner: P,
    /// Rekey after this many payload bytes under one key (`u64::MAX` to
    /// disable).
    pub max_bytes: u64,
    /// Rekey after this flow age in seconds (`u64::MAX` to disable).
    pub max_age_secs: u64,
}

impl<P> WearOutPolicy<P> {
    /// Wrap `inner` with byte- and age-based rekeying.
    pub fn new(inner: P, max_bytes: u64, max_age_secs: u64) -> Self {
        WearOutPolicy {
            inner,
            max_bytes,
            max_age_secs,
        }
    }
}

impl<A, P: FlowPolicy<A>> FlowPolicy<A> for WearOutPolicy<P> {
    fn index(&self, attrs: &A, table_size: usize) -> usize {
        self.inner.index(attrs, table_size)
    }

    fn same_flow(&self, entry_attrs: &A, attrs: &A) -> bool {
        self.inner.same_flow(entry_attrs, attrs)
    }

    fn expired(&self, entry: &FstEntry<A, FlowUse>, now_secs: u64) -> bool {
        self.inner.expired(entry, now_secs)
            || entry.value.bytes >= self.max_bytes
            || now_secs.saturating_sub(entry.value.created) >= self.max_age_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fam::Fam;
    use crate::sfl::SflAllocator;

    fn fam_with<P: FlowPolicy<String>>(policy: P) -> Fam<String, P> {
        Fam::new(64, policy, SflAllocator::new(1))
    }

    #[test]
    fn idle_timeout_policy_flow_lifecycle() {
        let mut fam = fam_with(IdleTimeoutPolicy::new(600));
        let a1 = fam.classify("conv-a".into(), 0, 10);
        let a2 = fam.classify("conv-a".into(), 300, 10);
        assert_eq!(a1.sfl, a2.sfl);
        let a3 = fam.classify("conv-a".into(), 1000, 10); // idle 700 > 600
        assert_ne!(a1.sfl, a3.sfl);
    }

    #[test]
    fn host_pair_policy_never_expires() {
        let mut fam = fam_with(HostPairPolicy);
        let c1 = fam.classify("hostB".into(), 0, 10);
        let c2 = fam.classify("hostB".into(), 1_000_000_000, 10);
        assert_eq!(c1.sfl, c2.sfl, "host-pair flows are eternal");
    }

    #[test]
    fn per_datagram_policy_always_new() {
        let mut fam = fam_with(PerDatagramPolicy);
        let c1 = fam.classify("same".into(), 0, 10);
        let c2 = fam.classify("same".into(), 0, 10);
        assert_ne!(c1.sfl, c2.sfl);
        assert!(c2.new_flow);
        // Replacing an expired own-entry, not a collision.
        assert_eq!(fam.stats().collisions, 0);
    }

    #[test]
    fn wear_out_by_bytes_rotates_sfl() {
        // A busy flow rotates its key after max_bytes, with no idle gap.
        let policy = WearOutPolicy::new(IdleTimeoutPolicy::new(600), 10_000, u64::MAX);
        let mut fam = Fam::new(64, policy, SflAllocator::new(1));
        let c1 = fam.classify("bulk".to_string(), 0, 6_000);
        let c2 = fam.classify("bulk".to_string(), 1, 6_000); // 12k ≥ 10k
        assert_eq!(c1.sfl, c2.sfl, "still under the limit at classify time");
        let c3 = fam.classify("bulk".to_string(), 2, 100);
        assert_ne!(c1.sfl, c3.sfl, "rekeyed after wearing out");
        assert_eq!(c3.displaced.map(|e| e.value.bytes), Some(12_000));
    }

    #[test]
    fn wear_out_by_age_rotates_sfl() {
        // A chatty flow that never idles still rekeys every max_age secs.
        let policy = WearOutPolicy::new(IdleTimeoutPolicy::new(600), u64::MAX, 3600);
        let mut fam = Fam::new(64, policy, SflAllocator::new(1));
        let first = fam.classify("telnet".to_string(), 0, 10).sfl;
        let mut last = first;
        for t in (10..7200).step_by(10) {
            last = fam.classify("telnet".to_string(), t, 10).sfl;
        }
        assert_ne!(first, last, "long-lived flow must have rekeyed");
        assert!(fam.stats().new_flows >= 2);
    }

    #[test]
    fn wear_out_preserves_idle_expiry() {
        let policy = WearOutPolicy::new(IdleTimeoutPolicy::new(600), u64::MAX, u64::MAX);
        let mut fam = Fam::new(64, policy, SflAllocator::new(1));
        let c1 = fam.classify("x".to_string(), 0, 1);
        let c2 = fam.classify("x".to_string(), 601, 1);
        assert_ne!(c1.sfl, c2.sfl);
    }

    #[test]
    fn distinct_attr_types_work() {
        let mut fam: Fam<u64, IdleTimeoutPolicy> =
            Fam::new(32, IdleTimeoutPolicy::new(60), SflAllocator::new(9));
        let c1 = fam.classify(42u64, 0, 1);
        let c2 = fam.classify(42u64, 30, 1);
        assert_eq!(c1.sfl, c2.sfl);
    }
}
