//! Stage-span profiling for the batch pipeline.
//!
//! This module names the stages of the batch pipeline ([`Stage`]) so
//! the registry can keep one log2 nanosecond histogram per stage. Every
//! stage runs on the submitting thread: a shard owner is a lock its
//! caller takes, not a thread. (Load per owner is not a span: each
//! owner counts its sub-batches and busy nanoseconds in its own counter
//! block, and the hooks derive the `hooks.worker.<w>.*` rows from those
//! blocks at scrape time.)
//!
//! Recording a span is two relaxed `fetch_add`s into a fixed-size
//! atomic array inside the registry, so instrumented runs stay at 0
//! allocations per datagram — the same budget the pooled fast path is
//! gated on in CI.

use std::time::Instant;

/// One instrumented stage of the batch datagram pipeline, in pipeline
/// order. Latencies are recorded as log2 nanosecond histograms under
/// `stage.<name>_ns` in snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Staging a submitted batch and its verdict ledger, and grouping
    /// the datagrams by owner.
    Partition,
    /// The seal crypto core: MAC + optional encrypt on output.
    Seal,
    /// The open crypto core: parse + verify + optional decrypt on
    /// input.
    Open,
    /// Zero-message flow-key derivation (cache-miss path, runs under
    /// the shard owner's lock).
    KeyDerive,
    /// Parking a datagram that could not be processed (key pending).
    Park,
    /// A release pass over a parking queue (expiry sweep + retries).
    Release,
}

/// Number of instrumented stages.
pub(crate) const NUM_STAGES: usize = 6;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Partition,
        Stage::Seal,
        Stage::Open,
        Stage::KeyDerive,
        Stage::Park,
        Stage::Release,
    ];

    /// Snake-case stage name used in snapshot keys (`stage.<name>_ns`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Partition => "partition",
            Stage::Seal => "seal",
            Stage::Open => "open",
            Stage::KeyDerive => "key_derive",
            Stage::Park => "park",
            Stage::Release => "release",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A started stage timer: wall-clock, nanosecond resolution.
///
/// Stage spans measure where real time goes (they feed perf
/// attribution, not the deterministic simulation outputs), so they use
/// the monotonic OS clock rather than the workspace's virtual clock.
/// Flow traces ([`crate::FlowTracer`]) are the deterministic side.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer(Instant);

impl StageTimer {
    /// Start timing now.
    pub fn start() -> Self {
        StageTimer(Instant::now())
    }

    /// Nanoseconds elapsed since [`StageTimer::start`], saturating.
    pub fn elapsed_ns(&self) -> u64 {
        let d = self.0.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_unique_and_ordered() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), NUM_STAGES);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_STAGES);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn timer_is_monotone() {
        let t = StageTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
