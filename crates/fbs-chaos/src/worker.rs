//! Datagram-plane worker faults: scheduled panics and stalls.
//!
//! [`WorkerChaos`] adapts a [`FaultPlan`]'s worker windows to the
//! runtime's [`WorkerFaultInjector`] taps. The determinism contract is
//! the trait's: panic and stall taps are **edge-triggered** — at most
//! one firing per `(window, worker)` no matter how often the worker
//! polls.
//!
//! Edge state is a per-window fired flag behind a CAS, so concurrent
//! polls cannot double-fire a pulse.

use crate::plan::{FaultKind, FaultPlan};
use fbs_core::WorkerFaultInjector;
use std::sync::atomic::{AtomicBool, Ordering};

/// One armed edge-triggered window: fires at most once, while open.
struct Pulse {
    start_us: u64,
    end_us: u64,
    worker: usize,
    /// For stalls: the sleep length; 0 for panics.
    stall_us: u64,
    fired: AtomicBool,
}

impl Pulse {
    fn take(&self, worker: usize, now_us: u64) -> bool {
        worker == self.worker
            && self.start_us <= now_us
            && now_us < self.end_us
            && !self.fired.swap(true, Ordering::AcqRel)
    }
}

/// A [`WorkerFaultInjector`] scripted by a [`FaultPlan`]'s
/// `WorkerPanic` / `WorkerStall` windows.
pub struct WorkerChaos {
    panics: Vec<Pulse>,
    stalls: Vec<Pulse>,
}

impl WorkerChaos {
    /// Arm every worker-fault window in `plan`. Windows of other kinds
    /// are ignored, so one plan can drive directory, MKD, cache, and
    /// worker chaos together.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let mut panics = Vec::new();
        let mut stalls = Vec::new();
        for w in plan.windows() {
            match w.kind {
                FaultKind::WorkerPanic { worker } => panics.push(Pulse {
                    start_us: w.start_us,
                    end_us: w.end_us,
                    worker,
                    stall_us: 0,
                    fired: AtomicBool::new(false),
                }),
                FaultKind::WorkerStall { worker, stall_us } => stalls.push(Pulse {
                    start_us: w.start_us,
                    end_us: w.end_us,
                    worker,
                    stall_us,
                    fired: AtomicBool::new(false),
                }),
                _ => {}
            }
        }
        WorkerChaos { panics, stalls }
    }

    /// Number of armed panic windows (for report/gate plumbing).
    pub fn scheduled_panics(&self) -> usize {
        self.panics.len()
    }
}

impl WorkerFaultInjector for WorkerChaos {
    fn take_panic(&self, worker: usize, now_us: u64) -> bool {
        self.panics.iter().any(|p| p.take(worker, now_us))
    }

    fn take_stall_us(&self, worker: usize, now_us: u64) -> u64 {
        self.stalls
            .iter()
            .filter(|p| p.take(worker, now_us))
            .map(|p| p.stall_us)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_pulse_fires_once_per_window_and_worker() {
        let plan = FaultPlan::new(7)
            .with_window(100, 200, FaultKind::WorkerPanic { worker: 0 })
            .with_window(300, 400, FaultKind::WorkerPanic { worker: 0 });
        let chaos = WorkerChaos::from_plan(&plan);
        assert_eq!(chaos.scheduled_panics(), 2);
        assert!(!chaos.take_panic(0, 50), "before the window");
        assert!(!chaos.take_panic(1, 150), "wrong worker never fires");
        assert!(chaos.take_panic(0, 150), "first poll inside fires");
        assert!(!chaos.take_panic(0, 160), "edge-triggered: once only");
        assert!(chaos.take_panic(0, 350), "second window re-arms");
        assert!(!chaos.take_panic(0, 399));
    }

    #[test]
    fn stall_is_edge_triggered_and_sums_overlaps() {
        let plan = FaultPlan::new(7)
            .with_window(
                100,
                300,
                FaultKind::WorkerStall {
                    worker: 1,
                    stall_us: 500,
                },
            )
            .with_window(
                200,
                400,
                FaultKind::WorkerStall {
                    worker: 1,
                    stall_us: 250,
                },
            );
        let chaos = WorkerChaos::from_plan(&plan);
        assert_eq!(chaos.take_stall_us(1, 250), 750, "overlapping windows add");
        assert_eq!(chaos.take_stall_us(1, 260), 0, "both edges consumed");
        assert_eq!(chaos.take_stall_us(0, 250), 0, "other workers untouched");
    }

    #[test]
    fn non_worker_windows_are_ignored() {
        let plan = FaultPlan::new(7).with_window(0, 1_000, FaultKind::DirectoryOutage);
        let chaos = WorkerChaos::from_plan(&plan);
        assert_eq!(chaos.scheduled_panics(), 0);
        assert!(!chaos.take_panic(0, 500));
        assert_eq!(chaos.take_stall_us(0, 500), 0);
    }
}
