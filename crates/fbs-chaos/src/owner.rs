//! Datagram-plane owner faults: scheduled panics.
//!
//! [`OwnerChaos`] adapts a [`FaultPlan`]'s owner windows to the
//! runtime's [`OwnerFaultInjector`] tap. The determinism contract is
//! the trait's: the panic tap is **edge-triggered** — at most one
//! firing per `(window, owner)` no matter how often the owner polls.
//!
//! Edge state is a per-window fired flag behind a CAS, so concurrent
//! polls cannot double-fire a pulse.

use crate::plan::{FaultKind, FaultPlan};
use fbs_core::OwnerFaultInjector;
use std::sync::atomic::{AtomicBool, Ordering};

/// One armed edge-triggered window: fires at most once, while open.
struct Pulse {
    start_us: u64,
    end_us: u64,
    owner: usize,
    fired: AtomicBool,
}

impl Pulse {
    fn take(&self, owner: usize, now_us: u64) -> bool {
        owner == self.owner
            && self.start_us <= now_us
            && now_us < self.end_us
            && !self.fired.swap(true, Ordering::AcqRel)
    }
}

/// An [`OwnerFaultInjector`] scripted by a [`FaultPlan`]'s `OwnerPanic`
/// windows.
pub struct OwnerChaos {
    panics: Vec<Pulse>,
}

impl OwnerChaos {
    /// Arm every owner-panic window in `plan`. Windows of other kinds
    /// are ignored, so one plan can drive directory, MKD, cache, and
    /// owner chaos together.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let panics = plan
            .windows()
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::OwnerPanic { owner } => Some(Pulse {
                    start_us: w.start_us,
                    end_us: w.end_us,
                    owner,
                    fired: AtomicBool::new(false),
                }),
                _ => None,
            })
            .collect();
        OwnerChaos { panics }
    }
}

impl OwnerFaultInjector for OwnerChaos {
    fn take_panic(&self, owner: usize, now_us: u64) -> bool {
        self.panics.iter().any(|p| p.take(owner, now_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_pulse_fires_once_per_window_and_owner() {
        let plan = FaultPlan::default()
            .with_window(100, 200, FaultKind::OwnerPanic { owner: 0 })
            .with_window(300, 400, FaultKind::OwnerPanic { owner: 0 });
        let chaos = OwnerChaos::from_plan(&plan);
        assert!(!chaos.take_panic(0, 50), "before the window");
        assert!(!chaos.take_panic(1, 150), "wrong owner never fires");
        assert!(chaos.take_panic(0, 150), "first poll inside fires");
        assert!(!chaos.take_panic(0, 160), "edge-triggered: once only");
        assert!(chaos.take_panic(0, 350), "second window re-arms");
        assert!(!chaos.take_panic(0, 399));
    }

    #[test]
    fn non_owner_windows_are_ignored() {
        let plan = FaultPlan::default().with_window(0, 1_000, FaultKind::DirectoryOutage);
        let chaos = OwnerChaos::from_plan(&plan);
        assert!(!chaos.take_panic(0, 500));
    }
}
