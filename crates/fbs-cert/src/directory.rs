//! The networked certificate directory (X.509 directory / secure-DNS
//! stand-in) behind the secure-flow bypass.
//!
//! Fetch requests "should not and need not be secure" (§5.3): they bypass
//! FBS to avoid circularity, and certificates are verified on receipt.
//! Fetches cost a network round trip; the directory accounts one simulated
//! RTT per fetch, which is the quantity the §5.3 cache analysis calls
//! "extremely expensive".

use crate::authority::Certificate;
use fbs_core::{FbsError, Principal, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Anything that can serve certificate fetches: the concrete
/// [`Directory`], or a fault-injecting wrapper around one (`fbs-chaos`'s
/// `ChaosDirectory` fails fetches through this seam during an outage
/// window). The PVC holds its backing store as `Arc<dyn CertSource>` so
/// the wrapper slots in without touching the cache.
pub trait CertSource: Send + Sync {
    /// Fetch the certificate for `principal` (may charge simulated RTT
    /// or fail transiently; the PVC verifies what it gets).
    fn fetch_cert(&self, principal: &Principal) -> Result<Certificate>;
}

impl CertSource for Directory {
    fn fetch_cert(&self, principal: &Principal) -> Result<Certificate> {
        self.fetch(principal)
    }
}

/// Directory statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Certificate fetches served.
    pub fetches: u64,
    /// Fetches for unknown principals.
    pub not_found: u64,
    /// Total simulated round-trip time charged, in microseconds.
    pub simulated_rtt_us: u64,
}

struct Inner {
    certs: HashMap<Principal, Certificate>,
    stats: DirectoryStats,
}

/// An in-process certificate directory with simulated fetch latency.
pub struct Directory {
    inner: Mutex<Inner>,
    /// Simulated per-fetch round-trip time, accounted in the stats,
    /// never slept.
    rtt: Duration,
}

impl Directory {
    /// Create a directory charging `rtt` per fetch.
    pub fn new(rtt: Duration) -> Self {
        Directory {
            inner: Mutex::new(Inner {
                certs: HashMap::new(),
                stats: DirectoryStats::default(),
            }),
            rtt,
        }
    }

    /// Publish (or replace) a certificate.
    pub fn publish(&self, cert: Certificate) {
        let mut inner = self.inner.lock();
        inner.certs.insert(cert.subject.clone(), cert);
    }

    /// Remove a principal's certificate (revocation-by-omission).
    pub fn withdraw(&self, principal: &Principal) {
        self.inner.lock().certs.remove(principal);
    }

    /// Fetch the certificate for `principal`, charging one RTT.
    pub fn fetch(&self, principal: &Principal) -> Result<Certificate> {
        let mut inner = self.inner.lock();
        inner.stats.fetches += 1;
        inner.stats.simulated_rtt_us += self.rtt.as_micros() as u64;
        match inner.certs.get(principal) {
            Some(c) => Ok(c.clone()),
            None => {
                inner.stats.not_found += 1;
                Err(FbsError::PrincipalUnknown(principal.to_string()))
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DirectoryStats {
        self.inner.lock().stats
    }

    /// Number of published certificates.
    pub fn len(&self) -> usize {
        self.inner.lock().certs.len()
    }

    /// True when no certificates are published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use fbs_crypto::dh::{DhGroup, PrivateValue};

    fn cert_for(name: &str) -> Certificate {
        let ca = CertificateAuthority::new("ca", [1u8; 16]);
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), name.as_bytes()).public_value();
        ca.issue(Principal::named(name), pv, 0, u64::MAX)
    }

    #[test]
    fn publish_fetch_roundtrip() {
        let dir = Directory::new(Duration::from_millis(10));
        dir.publish(cert_for("alice"));
        let c = dir.fetch(&Principal::named("alice")).unwrap();
        assert_eq!(c.subject, Principal::named("alice"));
        let s = dir.stats();
        assert_eq!(s.fetches, 1);
        assert_eq!(s.simulated_rtt_us, 10_000);
    }

    #[test]
    fn unknown_principal_counts_not_found() {
        let dir = Directory::new(Duration::from_millis(1));
        assert!(dir.fetch(&Principal::named("ghost")).is_err());
        assert_eq!(dir.stats().not_found, 1);
        // Even failed fetches cost the round trip.
        assert_eq!(dir.stats().simulated_rtt_us, 1_000);
    }

    #[test]
    fn withdraw_revokes() {
        let dir = Directory::new(Duration::ZERO);
        dir.publish(cert_for("bob"));
        assert!(dir.fetch(&Principal::named("bob")).is_ok());
        dir.withdraw(&Principal::named("bob"));
        assert!(dir.fetch(&Principal::named("bob")).is_err());
    }

    #[test]
    fn republish_replaces() {
        let dir = Directory::new(Duration::ZERO);
        dir.publish(cert_for("carol"));
        let newer = cert_for("carol");
        dir.publish(newer.clone());
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.fetch(&Principal::named("carol")).unwrap(), newer);
    }
}
