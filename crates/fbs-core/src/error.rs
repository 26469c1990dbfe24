//! Error type for FBS protocol processing.

use std::fmt;

/// Errors surfaced by FBS send/receive processing and its substrates.
///
/// The receive-side variants correspond to the `return error` branches of
/// the paper's Fig. 4 pseudo-code: a stale timestamp fails the freshness
/// check (R3-4) and a MAC mismatch fails verification (R7-9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbsError {
    /// Receive R3-4: the datagram timestamp fell outside the freshness
    /// window (replay protection, §6.2).
    StaleTimestamp {
        /// Timestamp carried in the datagram (minutes since the FBS epoch).
        datagram_minutes: u32,
        /// Receiver's current time (minutes since the FBS epoch).
        now_minutes: u32,
        /// Window half-width that was enforced.
        window_minutes: u32,
    },
    /// Receive R7-9: the computed MAC did not match the header MAC. The
    /// datagram was modified, truncated, spliced from another flow, or keyed
    /// differently.
    BadMac,
    /// The security flow header could not be parsed.
    MalformedHeader(&'static str),
    /// The header names a MAC or encryption algorithm this endpoint does
    /// not support (unknown algorithm-ID field value, §5.2).
    UnknownAlgorithm(u8),
    /// The public value for a principal could not be obtained (PVC miss and
    /// the certificate directory had no entry / fetch failed).
    PrincipalUnknown(String),
    /// A certificate failed verification when it was about to be used
    /// (certificates are verified on each use, §5.3).
    CertificateInvalid(String),
    /// Encrypted body was not a whole number of cipher blocks, or the
    /// declared plaintext length exceeds the ciphertext.
    MalformedCiphertext,
    /// A transport-level failure (used by mappings, not the core protocol).
    Transport(String),
    /// The per-peer circuit breaker is open: key material for this peer
    /// failed repeatedly and requests fail fast until the breaker
    /// half-opens (carries the peer's name).
    CircuitOpen(String),
}

impl FbsError {
    /// True for errors that mean "key material is unavailable right now
    /// but may become available" — the class a degradation policy
    /// (fail-open / fail-closed / park) applies to. Cryptographic
    /// verdicts (bad MAC, stale timestamp, malformed input) are final
    /// and never degrade.
    pub fn is_key_unavailable(&self) -> bool {
        matches!(
            self,
            FbsError::PrincipalUnknown(_)
                | FbsError::CertificateInvalid(_)
                | FbsError::Transport(_)
                | FbsError::CircuitOpen(_)
        )
    }
}

impl fmt::Display for FbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbsError::StaleTimestamp {
                datagram_minutes,
                now_minutes,
                window_minutes,
            } => write!(
                f,
                "stale timestamp: datagram at {datagram_minutes} min, now {now_minutes} min, \
                 window ±{window_minutes} min"
            ),
            FbsError::BadMac => write!(f, "MAC verification failed"),
            FbsError::MalformedHeader(why) => write!(f, "malformed FBS header: {why}"),
            FbsError::UnknownAlgorithm(id) => write!(f, "unknown algorithm id {id}"),
            FbsError::PrincipalUnknown(p) => write!(f, "no public value for principal {p}"),
            FbsError::CertificateInvalid(p) => write!(f, "certificate invalid for {p}"),
            FbsError::MalformedCiphertext => write!(f, "malformed ciphertext"),
            FbsError::Transport(why) => write!(f, "transport error: {why}"),
            FbsError::CircuitOpen(p) => write!(f, "circuit breaker open for peer {p}"),
        }
    }
}

impl std::error::Error for FbsError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FbsError>;

/// Errors surfaced by a worker runtime's control plane.
///
/// Distinct from [`FbsError`]: these are not protocol verdicts but
/// infrastructure failures. Callers decide whether to fail closed,
/// retry, or surface the error; the runtime itself never panics on
/// these paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The worker could not answer: the operation panicked under its
    /// supervisor, which respawned or quarantined the worker instead.
    WorkerUnavailable {
        /// Index of the unreachable worker.
        worker: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::WorkerUnavailable { worker } => {
                write!(f, "worker {worker} is unavailable (control op panicked)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
