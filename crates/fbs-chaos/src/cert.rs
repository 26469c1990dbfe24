//! Fault-injecting certificate-directory wrapper.
//!
//! [`ChaosDirectory`] sits between the PVC and the real
//! [`Directory`](fbs_cert::Directory) behind the [`CertSource`] seam,
//! consulting a [`FaultPlan`] at each fetch: while a
//! [`FaultKind::DirectoryOutage`](crate::FaultKind::DirectoryOutage)
//! window is open the fetch fails with a transport error. The verdict
//! is a function of `(plan, clock)` alone, so two runs with the same
//! schedule fail identically.

use crate::plan::FaultPlan;
use fbs_cert::{CertSource, Certificate};
use fbs_core::{Clock, FbsError, Principal, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Counters for injected directory impairments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosDirectoryStats {
    /// Fetches attempted through the wrapper.
    pub fetches: u64,
    /// Fetches failed by an outage window.
    pub outages: u64,
}

/// A [`CertSource`] that fails fetches during the outage windows of a
/// [`FaultPlan`].
pub struct ChaosDirectory {
    inner: Arc<dyn CertSource>,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    stats: Mutex<ChaosDirectoryStats>,
}

impl ChaosDirectory {
    /// Wrap `inner`, failing fetches per `plan` on `clock`'s time axis.
    pub fn new(inner: Arc<dyn CertSource>, plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        ChaosDirectory {
            inner,
            plan,
            clock,
            stats: Mutex::new(ChaosDirectoryStats::default()),
        }
    }

    /// Accumulated impairment counters.
    pub fn stats(&self) -> ChaosDirectoryStats {
        *self.stats.lock()
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
        self.inner.fetch_cert(principal)
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

    #[test]
    fn outage_window_fails_then_recovers() {
        let ca = CertificateAuthority::new("ca", [7u8; 16]);
        let dir = Arc::new(Directory::new(Duration::ZERO));
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"alice-seed").public_value();
        dir.publish(ca.issue(Principal::named("alice"), pv, 0, u64::MAX));
        let clock = Arc::new(ManualClock::default());
        let plan = FaultPlan::default().with_window(100, 200, FaultKind::DirectoryOutage);
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
}
