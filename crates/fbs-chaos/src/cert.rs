//! Fault-injecting certificate-directory wrapper.
//!
//! [`ChaosDirectory`] sits between the PVC and the real
//! [`Directory`](fbs_cert::Directory) behind the [`CertSource`] seam,
//! consulting a [`FaultPlan`] at each fetch:
//!
//! * **outage** — the fetch fails with a transport error;
//! * **latency** — extra RTT is accounted against the fetch;
//! * **stale** — the first certificate ever served for each principal
//!   is replayed forever (rekeys become invisible);
//! * **garbage** — one deterministic, seed-derived bit of the served
//!   public value is flipped, so per-use verification rejects it.
//!
//! Every impairment is a function of `(plan, clock, principal)` alone,
//! so two runs with the same seed and schedule fail identically.

use crate::plan::FaultPlan;
use fbs_cert::{CertSource, Certificate};
use fbs_core::{Clock, FbsError, Principal, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters for injected directory impairments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosDirectoryStats {
    /// Fetches attempted through the wrapper.
    pub fetches: u64,
    /// Fetches failed by an outage window.
    pub outages: u64,
    /// Total extra RTT injected, in microseconds.
    pub injected_rtt_us: u64,
    /// Fetches answered from the stale snapshot.
    pub stale_served: u64,
    /// Fetches whose public value was corrupted.
    pub garbage_served: u64,
}

/// A [`CertSource`] that impairs fetches according to a [`FaultPlan`].
pub struct ChaosDirectory {
    inner: Arc<dyn CertSource>,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    /// First certificate successfully served per principal, replayed
    /// during stale windows.
    snapshot: Mutex<HashMap<Principal, Certificate>>,
    stats: Mutex<ChaosDirectoryStats>,
}

impl ChaosDirectory {
    /// Wrap `inner`, impairing fetches per `plan` on `clock`'s time axis.
    pub fn new(inner: Arc<dyn CertSource>, plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        ChaosDirectory {
            inner,
            plan,
            clock,
            snapshot: Mutex::new(HashMap::new()),
            stats: Mutex::new(ChaosDirectoryStats::default()),
        }
    }

    /// Accumulated impairment counters.
    pub fn stats(&self) -> ChaosDirectoryStats {
        *self.stats.lock()
    }

    /// FNV-1a over the principal name, mixed with the plan seed — the
    /// deterministic source of which bit garbage windows flip.
    fn corruption_word(&self, principal: &Principal) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in principal.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ self.plan.seed
    }
}

impl CertSource for ChaosDirectory {
    fn fetch_cert(&self, principal: &Principal) -> Result<Certificate> {
        let now_us = self.clock.now_micros();
        self.stats.lock().fetches += 1;

        if self.plan.directory_outage(now_us) {
            self.stats.lock().outages += 1;
            return Err(FbsError::Transport(format!(
                "chaos: directory outage at {now_us}us"
            )));
        }

        let extra = self.plan.directory_extra_rtt_us(now_us);
        if extra > 0 {
            self.stats.lock().injected_rtt_us += extra;
        }

        let mut cert = if self.plan.directory_stale(now_us) {
            let snap = self.snapshot.lock().get(principal).cloned();
            match snap {
                Some(c) => {
                    self.stats.lock().stale_served += 1;
                    c
                }
                // Nothing snapshotted yet: the stale window started
                // before the first fetch, so serve (and snapshot) live.
                None => self.inner.fetch_cert(principal)?,
            }
        } else {
            self.inner.fetch_cert(principal)?
        };

        self.snapshot
            .lock()
            .entry(principal.clone())
            .or_insert_with(|| cert.clone());

        if self.plan.directory_garbage(now_us) {
            let word = self.corruption_word(principal);
            let bytes = &mut cert.public_value.bytes;
            if !bytes.is_empty() {
                let idx = (word as usize) % bytes.len();
                let bit = 1u8 << ((word >> 32) % 8);
                bytes[idx] ^= bit;
                self.stats.lock().garbage_served += 1;
            }
        }

        Ok(cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use fbs_cert::{CertificateAuthority, Directory};
    use fbs_core::ManualClock;
    use fbs_crypto::dh::{DhGroup, PrivateValue};
    use std::time::Duration;

    fn world() -> (Arc<Directory>, CertificateAuthority) {
        let ca = CertificateAuthority::new("ca", [7u8; 16]);
        let dir = Arc::new(Directory::new(Duration::ZERO));
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"alice-seed").public_value();
        dir.publish(ca.issue(Principal::named("alice"), pv, 0, u64::MAX));
        (dir, ca)
    }

    #[test]
    fn outage_window_fails_then_recovers() {
        let (dir, _ca) = world();
        let clock = Arc::new(ManualClock::default());
        let plan = FaultPlan::new(9).with_window(100, 200, FaultKind::DirectoryOutage);
        let chaos = ChaosDirectory::new(dir, plan, clock.clone());
        let alice = Principal::named("alice");

        assert!(chaos.fetch_cert(&alice).is_ok());
        clock.set_us(150);
        let err = chaos.fetch_cert(&alice).unwrap_err();
        assert!(matches!(err, FbsError::Transport(_)));
        clock.set_us(250);
        assert!(chaos.fetch_cert(&alice).is_ok());
        let s = chaos.stats();
        assert_eq!(s.fetches, 3);
        assert_eq!(s.outages, 1);
    }

    #[test]
    fn stale_window_replays_first_cert() {
        let (dir, ca) = world();
        let clock = Arc::new(ManualClock::default());
        let plan = FaultPlan::new(9).with_window(100, 200, FaultKind::DirectoryStale);
        let chaos =
            ChaosDirectory::new(Arc::clone(&dir) as Arc<dyn CertSource>, plan, clock.clone());
        let alice = Principal::named("alice");

        let first = chaos.fetch_cert(&alice).unwrap();
        // Rekey: publish a different public value.
        let pv2 = PrivateValue::from_entropy(DhGroup::test_group(), b"alice-rekey").public_value();
        dir.publish(ca.issue(alice.clone(), pv2, 0, u64::MAX));

        clock.set_us(150);
        let stale = chaos.fetch_cert(&alice).unwrap();
        assert_eq!(stale, first, "stale window must replay the snapshot");
        assert_eq!(chaos.stats().stale_served, 1);

        clock.set_us(250);
        let fresh = chaos.fetch_cert(&alice).unwrap();
        assert_ne!(fresh, first, "after the window the rekey is visible");
    }

    #[test]
    fn garbage_window_corrupts_deterministically() {
        let (dir, _ca) = world();
        let clock = Arc::new(ManualClock::starting_at_us(150));
        let plan = FaultPlan::new(42).with_window(100, 200, FaultKind::DirectoryGarbage);
        let chaos = ChaosDirectory::new(Arc::clone(&dir) as Arc<dyn CertSource>, plan, clock);
        let alice = Principal::named("alice");

        let a = chaos.fetch_cert(&alice).unwrap();
        let b = chaos.fetch_cert(&alice).unwrap();
        assert_eq!(a, b, "same seed, same principal, same corruption");
        let clean = dir.fetch(&alice).unwrap();
        assert_ne!(a.public_value, clean.public_value);
        // Exactly one bit differs.
        let flipped: u32 = a
            .public_value
            .bytes
            .iter()
            .zip(clean.public_value.bytes.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(chaos.stats().garbage_served, 2);
    }

    #[test]
    fn latency_window_accounts_extra_rtt() {
        let (dir, _ca) = world();
        let clock = Arc::new(ManualClock::starting_at_us(10));
        let plan = FaultPlan::new(9).with_window(
            0,
            100,
            FaultKind::DirectoryLatency { extra_rtt_us: 777 },
        );
        let chaos = ChaosDirectory::new(dir, plan, clock);
        chaos.fetch_cert(&Principal::named("alice")).unwrap();
        assert_eq!(chaos.stats().injected_rtt_us, 777);
    }
}
