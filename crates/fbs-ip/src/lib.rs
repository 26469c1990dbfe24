//! # fbs-ip — the IP mapping of FBS (paper §7)
//!
//! Instantiates the abstract FBS protocol for an IP-like stack:
//!
//! * principals are hosts, identified by their 4-byte addresses;
//! * flows approximate "conversations" via the Fig. 7 policy: datagrams of
//!   one transport protocol between one host/port pair belong to a flow
//!   until the gap between datagrams exceeds THRESHOLD ([`mod@tuple`],
//!   [`policy`]);
//! * the security flow header is inserted between the IP header and the IP
//!   payload — "a short-cut form of IP encapsulation" — with the IP length
//!   fields fixed up ([`hooks`]);
//! * the send path optionally merges the flow state table with the
//!   transmission flow key cache so the mapper lookup and the key lookup
//!   are one operation, absorbing the sweeper into the mapping phase
//!   ([`combined`], §7.2);
//! * [`host`] assembles a ready-to-use secure host: simulated stack + FBS
//!   endpoint + certificate machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod frozen;
pub mod hooks;
pub mod host;
pub mod policy;
pub mod tuple;

pub use frozen::{build_secure_host, CombinedTable};
pub use hooks::{FbsIpHooks, IpHookStats, IpMappingConfig};
pub use host::World;
pub use policy::FiveTuplePolicy;
pub use tuple::FiveTuple;
