//! # fbs-chaos — seeded, deterministic fault injection for the FBS stack
//!
//! FBS is built on *soft state*: every cache entry (MKC, TFKC, RFKC,
//! PVC) can vanish at any moment and the protocol must reconverge
//! (§5.3). This crate turns that claim into an executable experiment:
//! a [`FaultPlan`] scripts time windows of five fault kinds
//! ([`FaultKind`]): outages of the certificate directory
//! ([`ChaosDirectory`]) and of the master key daemon's upcall path
//! ([`ChaosPvs`]), one-shot flushes and periodic eviction storms of one
//! side's flow-key caches (pulses from [`FaultPlan::cache_pulses`]), and
//! supervised panics of the sender's datagram-plane shard owners
//! ([`OwnerChaos`]), all on one shared microsecond
//! [`ManualClock`](fbs_core::ManualClock).
//!
//! Everything is a pure function of `(schedule, virtual time)` — no
//! wall-clock, no OS entropy — so a chaos soak that fails once fails
//! every time, under the same datagram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod mkd;
pub mod owner;
pub mod plan;

pub use cert::{ChaosDirectory, ChaosDirectoryStats};
pub use mkd::{ChaosPvs, ChaosPvsStats};
pub use owner::OwnerChaos;
pub use plan::{FaultKind, FaultPlan, FaultWindow, FlushScope};
