//! # fbs-net — userspace datagram substrate for the FBS reproduction
//!
//! The paper implements FBS inside the 4.4BSD kernel's IP layer (§7.2).
//! This crate rebuilds the pieces of that environment FBS interacts with,
//! as a deterministic userspace simulation:
//!
//! * [`ip`] — an IPv4-like packet header with internet checksum, TTL,
//!   DF/MF flags and identification, faithful to RFC 791 field layout;
//! * [`frag`] — fragmentation and reassembly with timers (the paper's FBS
//!   hooks sit exactly around these);
//! * [`stack`] — a host network stack whose output path has the 4.4BSD
//!   three-part structure (process → fragment → transmit) and whose input
//!   path has (process → reassemble → dispatch), with [`stack::SecurityHooks`]
//!   plugging in between the parts exactly where `ip_fbs.c` hooked
//!   `ip_output.c`/`ip_input.c`;
//! * [`segment`] — a simulated shared Ethernet segment with configurable
//!   latency, jitter, loss, duplication, corruption and reordering, driven
//!   by virtual time (seeded, fully reproducible);
//! * [`udp`] — a minimal UDP layer (ports, checksum, socket demux);
//! * [`mrt`] — a mini reliable transport (sliding window, retransmission)
//!   whose segment-size computation reproduces the `tcp_output.c`
//!   DF/MSS interaction the paper had to patch;
//! * [`ports`] — a port allocator with the §7.1 THRESHOLD quarantine fix
//!   against the port-reuse replay attack;
//! * [`router`] — a pure-IP forwarding router joining two segments (TTL,
//!   checksum rewrite, next-hop fragmentation), which validates the §7.2
//!   claim that routers see nothing strange in FBS packets;
//! * [`transport`] — a layer-independent `DatagramTransport` trait with
//!   in-memory and real-UDP (`std::net`) implementations, used by the
//!   abstract-protocol examples.
//!
//! The crate knows nothing about FBS itself — the dependency points the
//! other way (`fbs-ip` implements the hooks) — mirroring the paper's claim
//! that FBS assumes only "an underlying (insecure) datagram transport".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frag;
pub mod ip;
pub mod mrt;
pub mod ports;
pub mod router;
pub mod segment;
pub mod stack;
pub mod transport;
pub mod udp;

pub use error::{NetError, RejectReason};
pub use ip::{Ipv4Addr, Ipv4Header, Proto};
pub use segment::{Impairments, Segment};
pub use stack::{Datagram, HookOutcome, Host, SecurityHooks};
