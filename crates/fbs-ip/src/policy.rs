//! The Fig. 7 security flow policy, verbatim.
//!
//! "A secure flow is defined as a sequence of datagrams of the same
//! transport layer protocol going from a port on a host to another port on
//! another (not necessarily distinct) host such that the datagrams do not
//! arrive more than THRESHOLD apart." The mapper indexes the FST with
//! `CRC-32(saddr, sport, daddr, dport, proto-num) mod FSTSIZE`; the
//! sweeper invalidates entries idle longer than THRESHOLD.

use crate::tuple::FiveTuple;
use fbs_core::fam::{FlowPolicy, FstEntry, HashedFlowPolicy};
use fbs_crypto::crc32;

/// Default THRESHOLD: the paper's experiments centre on 300-600 s and find
/// the policy insensitive above 900 s; 600 s is our default.
pub const DEFAULT_THRESHOLD_SECS: u64 = 600;

/// Default FSTSIZE: footnote 11 observes "almost no collision ... with a
/// reasonable FSTSIZE, e.g., 32 or above".
pub const DEFAULT_FST_SIZE: usize = 64;

/// The Fig. 7 mapper + sweeper pair.
#[derive(Clone, Copy, Debug)]
pub struct FiveTuplePolicy {
    /// Flow idle expiry in seconds.
    pub threshold_secs: u64,
}

impl Default for FiveTuplePolicy {
    fn default() -> Self {
        FiveTuplePolicy::new(DEFAULT_THRESHOLD_SECS)
    }
}

impl FiveTuplePolicy {
    /// Policy with an explicit THRESHOLD (the Fig. 13/14 sweep parameter).
    pub fn new(threshold_secs: u64) -> Self {
        FiveTuplePolicy { threshold_secs }
    }

    /// Fig. 7's hash: CRC-32(saddr, sport, daddr, dport, proto).
    pub fn crc(tuple: &FiveTuple) -> u32 {
        crc32(&tuple.canonical_array())
    }
}

impl<V> FlowPolicy<FiveTuple, V> for FiveTuplePolicy {
    fn index(&self, attrs: &FiveTuple, table_size: usize) -> usize {
        HashedFlowPolicy::<FiveTuple, V>::slot(self, Self::crc(attrs), table_size)
    }

    fn same_flow(&self, entry_attrs: &FiveTuple, attrs: &FiveTuple) -> bool {
        entry_attrs == attrs
    }

    fn expired(&self, entry: &FstEntry<FiveTuple, V>, now_secs: u64) -> bool {
        // Fig. 7 sweeper: (curtime - e.last) > THRESHOLD.
        now_secs.saturating_sub(entry.last) > self.threshold_secs
    }
}

impl<V> HashedFlowPolicy<FiveTuple, V> for FiveTuplePolicy {
    fn hash(&self, attrs: &FiveTuple) -> u32 {
        Self::crc(attrs)
    }

    fn slot(&self, crc: u32, table_size: usize) -> usize {
        // Fig. 7: i = CRC-32(saddr, sport, daddr, dport, proto) mod FSTSIZE
        crc as usize % table_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_core::{Fam, SflAllocator};

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple {
            proto: 6,
            saddr: [10, 0, 0, 1],
            sport,
            daddr: [10, 0, 0, 2],
            dport: 80,
        }
    }

    fn fam(threshold: u64) -> Fam<FiveTuple, FiveTuplePolicy> {
        Fam::new(
            DEFAULT_FST_SIZE,
            FiveTuplePolicy::new(threshold),
            SflAllocator::new(1),
        )
    }

    #[test]
    fn telnet_session_with_quiet_period_splits_into_two_flows() {
        // §7.1: "a long TELNET session with large quiet periods" becomes
        // multiple flows — and the paper notes this is GOOD for security.
        let mut f = fam(600);
        let c1 = f.classify(tuple(4001), 0, 50);
        let c2 = f.classify(tuple(4001), 100, 50);
        assert_eq!(c1.sfl, c2.sfl);
        let c3 = f.classify(tuple(4001), 100 + 601, 50); // quiet period
        assert_ne!(c1.sfl, c3.sfl);
        assert_eq!(c3.displaced.map(|e| e.last), Some(100));
    }

    #[test]
    fn sustained_nfs_traffic_is_one_flow() {
        // Periodic transfer with gaps under THRESHOLD stays one flow no
        // matter how long it lives.
        let mut f = fam(600);
        let first = f.classify(tuple(2049), 0, 8192).sfl;
        for i in 1..100 {
            assert_eq!(f.classify(tuple(2049), i * 500, 8192).sfl, first);
        }
        assert_eq!(f.stats().new_flows, 1);
    }

    #[test]
    fn different_ports_are_different_flows() {
        let mut f = fam(600);
        let c1 = f.classify(tuple(5001), 0, 10);
        let c2 = f.classify(tuple(5002), 0, 10);
        assert_ne!(c1.sfl, c2.sfl);
    }

    #[test]
    fn flow_spans_connections_port_reuse_within_threshold() {
        // §7.1: "a flow may span multiple connections" — a process that
        // reuses a just-freed port within THRESHOLD continues the old flow.
        // This is the behaviour behind the port-reuse attack.
        let mut f = fam(600);
        let victim = f.classify(tuple(3000), 0, 10);
        // Victim exits; attacker binds the same port 10 s later.
        let attacker = f.classify(tuple(3000), 10, 10);
        assert_eq!(
            victim.sfl, attacker.sfl,
            "the FAM cannot see the ownership change"
        );
    }

    #[test]
    fn direction_matters() {
        let mut f = fam(600);
        let fwd = f.classify(tuple(4001), 0, 10);
        let rev = f.classify(tuple(4001).reversed(), 0, 10);
        assert_ne!(fwd.sfl, rev.sfl);
    }

    #[test]
    fn threshold_zero_forces_flow_per_gap() {
        let mut f = fam(0);
        let c1 = f.classify(tuple(1), 0, 10);
        let c2 = f.classify(tuple(1), 1, 10); // gap 1 > 0
        assert_ne!(c1.sfl, c2.sfl);
    }
}
