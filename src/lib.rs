//! # fbs — A Flow-Based Approach to Datagram Security
//!
//! A from-scratch Rust reproduction of **Mittra & Woo, SIGCOMM 1997**: the
//! Flow-Based Security protocol (FBS), every substrate it depends on, the
//! baseline keying paradigms it is compared against, and the full §7.3
//! evaluation pipeline.
//!
//! ## Quick start
//!
//! Protect datagrams between two principals with zero-message keying:
//!
//! ```
//! use fbs::core::{
//!     Datagram, FbsConfig, FbsEndpoint, FlowUse, Fst, ManualClock, MasterKeyDaemon,
//!     PinnedDirectory, Principal, SflAllocator,
//! };
//! use fbs::core::policy::IdleTimeoutPolicy;
//! use fbs::crypto::dh::{DhGroup, PrivateValue};
//! use std::sync::Arc;
//!
//! // Each principal holds a Diffie-Hellman private value; public values
//! // are distributed out of band (certificates / secure DNS — see
//! // fbs::cert for the full machinery).
//! let group = DhGroup::test_group(); // use DhGroup::oakley1() for real sizes
//! let alice_priv = PrivateValue::from_entropy(group.clone(), b"alice-entropy-123456");
//! let bob_priv = PrivateValue::from_entropy(group.clone(), b"bob-entropy-654321!!");
//! let alice = Principal::named("alice");
//! let bob = Principal::named("bob");
//!
//! let mut alice_dir = PinnedDirectory::new();
//! alice_dir.pin(bob.clone(), bob_priv.public_value());
//! let mut bob_dir = PinnedDirectory::new();
//! bob_dir.pin(alice.clone(), alice_priv.public_value());
//!
//! let clock = ManualClock::starting_at(1_000);
//! let mut tx = FbsEndpoint::new(
//!     alice.clone(), FbsConfig::default(), Arc::new(clock.clone()), 7,
//!     MasterKeyDaemon::new(alice_priv, Box::new(alice_dir)),
//! );
//! let mut rx = FbsEndpoint::new(
//!     bob.clone(), FbsConfig::default(), Arc::new(clock.clone()), 8,
//!     MasterKeyDaemon::new(bob_priv, Box::new(bob_dir)),
//! );
//!
//! // The flow association mechanism assigns security flow labels: a flow
//! // state table whose flows count their use (the datapath's keeps keys).
//! let mut fam: Fst<_, _, FlowUse> =
//!     Fst::new(64, IdleTimeoutPolicy::new(600), SflAllocator::new(1));
//!
//! let datagram = Datagram::new(alice, bob, b"hello, flow".to_vec());
//! let protected = tx
//!     .send_classified(&mut fam, "conversation-1".to_string(), datagram, true)
//!     .unwrap();
//! let received = rx.receive(protected).unwrap();
//! assert_eq!(received.body, b"hello, flow");
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the FBS protocol: FAM, zero-message keying, soft-state caches, send/receive |
//! | [`crypto`] | DES, MD5, SHA-1, keyed MACs, Diffie-Hellman, LCG/BBS, CRC-32 |
//! | [`cert`] | certificate authority, directory service, public value cache |
//! | [`net`] | IPv4-like stack, simulated segment, UDP, mini reliable transport |
//! | [`ip`] | the §7 IP mapping: 5-tuple policy, combined FST/TFKC, stack hooks |
//! | [`baselines`] | §2 comparators: host-pair, per-datagram, KDC, negotiated sessions |
//! | [`trace`] | §7.3 workload models and flow-simulation programs |
//! | [`obs`] | metrics registry, flight-recorder event tracing, exporters |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

#![forbid(unsafe_code)]

pub use fbs_baselines as baselines;
pub use fbs_cert as cert;
pub use fbs_core as core;
pub use fbs_crypto as crypto;
pub use fbs_ip as ip;
pub use fbs_net as net;
pub use fbs_obs as obs;
pub use fbs_trace as trace;
