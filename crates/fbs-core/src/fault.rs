//! Worker-fault injection interface for the datagram-plane runtime.
//!
//! A worker runtime (the shard owners in `fbs-ip`, each run to
//! completion by whichever caller holds its lock) consults an optional
//! [`WorkerFaultInjector`] at the entry of every supervised pass over
//! its share of a batch (a quarantined owner's passes included) so a
//! chaos harness can schedule worker panics and stalls
//! deterministically. The trait
//! lives here — not in `fbs-chaos` — so the runtime crate never depends
//! on the chaos crate; `fbs-chaos` provides the production
//! implementation (`WorkerChaos`) driven by a seeded fault plan over
//! virtual time.
//!
//! Determinism contract: every decision is a pure function of
//! `(worker, now_us)` plus internal edge-trigger state, never of wall
//! clock. Panics and stalls are *edge-triggered* — they fire once per
//! scheduled fault window.

/// Fault decisions a worker runtime polls before processing work.
///
/// All methods take the worker index and the current virtual time in
/// microseconds (as carried by the work being processed, so the
/// runtime itself needs no clock). The no-op default is "no injector
/// attached": implementations decide everything; callers must tolerate
/// any combination of answers.
pub trait WorkerFaultInjector: Send + Sync {
    /// True if worker `worker` should panic now. Edge-triggered: once a
    /// scheduled panic fires, subsequent calls in the same fault window
    /// return false, so a supervised respawn does not immediately
    /// re-panic on the next sub-batch.
    fn take_panic(&self, worker: usize, now_us: u64) -> bool;

    /// Stall duration to inject before processing, in microseconds of
    /// *wall* time (0 = none). Edge-triggered like [`take_panic`]
    /// (fires once per window): stalls model scheduling hiccups and
    /// must add latency without perturbing any virtual-time counter,
    /// or seeded runs would stop being byte-identical.
    ///
    /// [`take_panic`]: WorkerFaultInjector::take_panic
    fn take_stall_us(&self, worker: usize, now_us: u64) -> u64;
}
