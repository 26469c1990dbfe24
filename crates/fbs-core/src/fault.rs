//! Owner-fault injection interface for the datagram-plane runtime.
//!
//! The shard owners in `fbs-ip`, each run to completion by whichever
//! caller holds its lock, consult an optional [`OwnerFaultInjector`] at
//! the entry of every supervised pass over their share of a batch (a
//! quarantined owner's passes included), so a chaos harness can
//! schedule owner panics deterministically. The trait lives here — not
//! in `fbs-chaos` — so the runtime crate never depends on the chaos
//! crate; `fbs-chaos` provides the production implementation
//! (`OwnerChaos`) driven by a scripted fault plan over virtual time.
//!
//! Determinism contract: every decision is a pure function of
//! `(owner, now_us)` plus internal edge-trigger state, never of wall
//! clock.

/// Fault decisions an owner polls before processing work.
///
/// Takes the owner index and the current virtual time in microseconds
/// (as carried by the work being processed, so the runtime itself needs
/// no clock). Callers must tolerate any answer.
pub trait OwnerFaultInjector: Send + Sync {
    /// True if owner `owner` should panic now. Edge-triggered: once a
    /// scheduled panic fires, subsequent calls in the same fault window
    /// return false, so a supervised respawn does not immediately
    /// re-panic on the next sub-batch.
    fn take_panic(&self, owner: usize, now_us: u64) -> bool;
}
