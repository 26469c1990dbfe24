//! Error type for the network substrate.

use std::fmt;

/// Errors raised by the simulated stack and transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A packet could not be parsed.
    Malformed(&'static str),
    /// Header checksum mismatch.
    BadChecksum,
    /// Packet larger than the MTU with DF (don't fragment) set — the
    /// condition the paper's `tcp_output.c` patch exists to avoid.
    WouldFragment {
        /// Total packet length that was attempted.
        len: usize,
        /// The link MTU.
        mtu: usize,
    },
    /// No route/host for the destination address.
    HostUnreachable([u8; 4]),
    /// No listener on the destination port.
    PortUnreachable(u16),
    /// All ephemeral ports are in use (or quarantined).
    PortsExhausted,
    /// The security hook rejected the packet.
    SecurityReject(RejectReason),
    /// Reassembly gave up (timeout or resource limits).
    ReassemblyTimeout,
    /// Connection-level failure in the mini reliable transport.
    Connection(&'static str),
    /// An OS-level transport failure (real UDP sockets).
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Malformed(what) => write!(f, "malformed packet: {what}"),
            NetError::BadChecksum => write!(f, "header checksum mismatch"),
            NetError::WouldFragment { len, mtu } => {
                write!(f, "packet of {len} bytes exceeds MTU {mtu} with DF set")
            }
            NetError::HostUnreachable(a) => {
                write!(f, "host {}.{}.{}.{} unreachable", a[0], a[1], a[2], a[3])
            }
            NetError::PortUnreachable(p) => write!(f, "port {p} unreachable"),
            NetError::PortsExhausted => write!(f, "ephemeral ports exhausted"),
            NetError::SecurityReject(why) => write!(f, "security hook rejected packet: {why}"),
            NetError::ReassemblyTimeout => write!(f, "reassembly timed out"),
            NetError::Connection(why) => write!(f, "connection error: {why}"),
            NetError::Io(why) => write!(f, "io error: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Why a security hook rejected a datagram: a closed vocabulary the
/// substrate defines and a hook maps its own errors onto, so a reject
/// carries its reason without allocating one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// No hook has answered for the datagram yet: the fail-closed
    /// placeholder a verdict ledger starts from.
    Unanswered,
    /// The timestamp fell outside the freshness window (replay defence).
    Stale,
    /// MAC verification failed.
    BadMac,
    /// The security header (or the flow identity under it) did not parse.
    MalformedHeader,
    /// The header names an algorithm this endpoint does not support.
    UnknownAlgorithm,
    /// The protected body is not a whole number of cipher blocks.
    MalformedCiphertext,
    /// Key material is unavailable (unknown principal, invalid
    /// certificate, keying transport failure or open circuit breaker)
    /// and the policy does not degrade.
    KeyUnavailable,
    /// Key material is unavailable and the parking queue is full.
    ParkQueueFull,
    /// The owner of the datagram's flow state panicked while processing it.
    OwnerPanicked,
    /// The owner is quarantined after panics and rejects everything.
    OwnerQuarantined,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::Unanswered => "no verdict from the security hook",
            RejectReason::Stale => "stale timestamp",
            RejectReason::BadMac => "bad MAC",
            RejectReason::MalformedHeader => "malformed security header",
            RejectReason::UnknownAlgorithm => "unknown algorithm",
            RejectReason::MalformedCiphertext => "malformed ciphertext",
            RejectReason::KeyUnavailable => "key unavailable",
            RejectReason::ParkQueueFull => "key unavailable and park queue full",
            RejectReason::OwnerPanicked => "worker panicked mid-datagram",
            RejectReason::OwnerQuarantined => "worker quarantined after panic",
        })
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, NetError>;
