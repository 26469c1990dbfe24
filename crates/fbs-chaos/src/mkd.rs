//! Fault-injecting public-value-source wrapper for the MKD upcall path.
//!
//! [`ChaosPvs`] wraps any [`PublicValueSource`] (typically the PVC) and
//! fails the MKD's upcall with a transport error while an
//! [`FaultKind::MkdOutage`](crate::FaultKind::MkdOutage) window is open
//! — exercising the retry policy, the per-peer circuit breaker, and the
//! degradation hooks downstream of a key-derivation failure.

use crate::plan::FaultPlan;
use fbs_core::mkd::PublicValueSource;
use fbs_core::{Clock, FbsError, Principal, Result};
use fbs_crypto::dh::PublicValue;
use parking_lot::Mutex;
use std::sync::Arc;

/// Counters for injected MKD-upcall impairments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPvsStats {
    /// Upcall fetches attempted through the wrapper.
    pub fetches: u64,
    /// Fetches failed by an MKD-outage window.
    pub outages: u64,
}

/// A [`PublicValueSource`] that fails upcalls during MKD-outage windows.
pub struct ChaosPvs {
    inner: Arc<dyn PublicValueSource>,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    stats: Mutex<ChaosPvsStats>,
}

impl ChaosPvs {
    /// Wrap `inner`, failing fetches per `plan` on `clock`'s time axis.
    pub fn new(inner: Arc<dyn PublicValueSource>, plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        ChaosPvs {
            inner,
            plan,
            clock,
            stats: Mutex::new(ChaosPvsStats::default()),
        }
    }

    /// Accumulated impairment counters.
    pub fn stats(&self) -> ChaosPvsStats {
        *self.stats.lock()
    }
}

impl PublicValueSource for ChaosPvs {
    fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
        let now_us = self.clock.now_micros();
        self.stats.lock().fetches += 1;
        if self.plan.mkd_outage(now_us) {
            self.stats.lock().outages += 1;
            return Err(FbsError::Transport(format!(
                "chaos: mkd outage at {now_us}us"
            )));
        }
        self.inner.fetch(principal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use fbs_core::mkd::PinnedDirectory;
    use fbs_core::ManualClock;
    use fbs_crypto::dh::{DhGroup, PrivateValue};

    #[test]
    fn outage_window_gates_fetches() {
        let mut pinned = PinnedDirectory::default();
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"bob").public_value();
        pinned.pin(Principal::named("bob"), pv.clone());

        let clock = Arc::new(ManualClock::default());
        let plan = FaultPlan::default().with_window(50, 100, FaultKind::MkdOutage);
        let chaos = ChaosPvs::new(Arc::new(pinned), plan, clock.clone());
        let bob = Principal::named("bob");

        assert_eq!(chaos.fetch(&bob).unwrap(), pv);
        clock.set_us(75);
        assert!(matches!(
            chaos.fetch(&bob).unwrap_err(),
            FbsError::Transport(_)
        ));
        clock.set_us(100);
        assert!(chaos.fetch(&bob).is_ok());
        let s = chaos.stats();
        assert_eq!(s.fetches, 3);
        assert_eq!(s.outages, 1);
    }
}
