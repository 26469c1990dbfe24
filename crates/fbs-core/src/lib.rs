//! # fbs-core — the Flow-Based Security (FBS) protocol
//!
//! Layer-independent implementation of the FBS datagram security protocol
//! from Mittra & Woo, *A Flow-Based Approach to Datagram Security*, SIGCOMM
//! 1997. The protocol's two core mechanisms (§5.1):
//!
//! * the **flow association mechanism** ([`fam`]) separates outgoing
//!   datagrams into flows under pluggable policy modules, emitting an
//!   opaque *security flow label* (sfl) per flow;
//! * **zero-message keying** ([`keying`], [`mkd`]) derives the per-flow key
//!   `K_f = H(sfl | K_{S,D} | S | D)` from the Diffie-Hellman pair-based
//!   master key, so the correct destination can compute the flow key from
//!   the datagram alone — no end-to-end exchange, no hard state.
//!
//! Everything cached (master keys, flow keys, public values) is *soft
//! state* ([`cache`]): discardable and recomputable, preserving datagram
//! semantics while amortising crypto cost over a flow's datagrams.
//!
//! The crate is deliberately unaware of any concrete protocol layer; the
//! mapping to an IP-like stack lives in `fbs-ip`, per the paper's §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chunks;
pub mod clock;
pub mod concurrent;
pub mod error;
pub mod fam;
pub mod fault;
pub mod frozen;
pub mod header;
pub mod keying;
pub mod mem;
pub mod mkd;
pub mod park;
pub mod policy;
pub mod pool;
pub mod principal;
pub mod protocol;
pub mod replay;
pub mod retry;
pub mod sfl;

pub use breaker::{Allow, BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use cache::{CacheStats, Lookup, MissKind, SoftCache};
pub use chunks::{ChunkDir, CHUNK_SLOTS};
pub use clock::{Clock, ManualClock, SystemClock};
pub use concurrent::{KeyingService, ShardedCache, Snapshot, Versioned};
pub use error::{FbsError, Result, RuntimeError};
pub use fam::{Classification, Fam, FlowPolicy, FlowUse, Fst, FstEntry, FstStats};
pub use fault::OwnerFaultInjector;
pub use frozen::{BatchVerifier, SpscRing};
pub use header::{EncAlgorithm, HeaderView, SecurityFlowHeader};
pub use keying::{derive_flow_key, FlowKey, KeyDerivation, SealedFlowKey};
pub use mem::{BudgetKind, BudgetSnapshot, MemoryBudget};
pub use mkd::{MasterKeyDaemon, PinnedDirectory, PublicValueSource, Resilience};
pub use park::{KeyUnavailableVerdict, ParkStats, Parked, ParkingQueue};
pub use pool::{BufferPool, PoolStats};
pub use principal::Principal;
pub use protocol::{
    flow_key_hash_parts, Datagram, FbsConfig, FbsEndpoint, FlowCodec, ProtectedDatagram,
    MIN_SHIPPED_MAC,
};
pub use replay::FreshnessWindow;
pub use retry::{RetryOutcome, RetryPolicy};
pub use sfl::SflAllocator;
