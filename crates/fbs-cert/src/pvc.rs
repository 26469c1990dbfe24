//! The public value cache (PVC) — paper §5.3, Fig. 5.
//!
//! The PVC caches *certificates*, not bare public values, so the cache
//! itself need not be secure: every certificate is re-verified each time
//! it is used. Misses fetch from the [`Directory`](crate::Directory)
//! through the secure-flow bypass. "The minimum size of PVC should be at
//! least the average number of correspondent principals that a principal
//! can concurrently communicate with."
//!
//! [`Pvc`] implements [`fbs_core::PublicValueSource`], so it slots
//! directly under the master key daemon: MKC miss → MKD upcall → PVC →
//! (on PVC miss) directory fetch.

use crate::authority::{CertVerifier, Certificate};
use crate::directory::CertSource;
use fbs_core::{Clock, Principal, PublicValueSource, Result, SoftCache};
use fbs_crypto::crc32;
use fbs_crypto::dh::PublicValue;
use fbs_obs::{CacheKind, Counter, CounterBlock, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// PVC statistics: a view over the `cache.pvc.*` cells and
/// `pvc.verify_failures` of the PVC's counter block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PvcStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a directory fetch.
    pub misses: u64,
    /// Certificates that failed their per-use verification.
    pub verify_failures: u64,
}

impl PvcStats {
    /// Read the view off `counts`.
    fn read(counts: &CounterBlock) -> Self {
        let cache = counts.cache(CacheKind::Pvc);
        PvcStats {
            hits: cache.hits,
            misses: cache.misses(),
            verify_failures: counts.counter(Counter::PvcVerifyFailures),
        }
    }
}

/// The public value cache.
pub struct Pvc {
    /// The certificate cache; its lock is the one writer of `counts`.
    cache: Mutex<SoftCache<Principal, Certificate>>,
    /// The PVC's counts, read without the lock.
    counts: Arc<CounterBlock>,
    directory: Arc<dyn CertSource>,
    verifier: CertVerifier,
    clock: Arc<dyn Clock>,
}

impl Pvc {
    /// Create a PVC with `slots` direct-mapped certificate slots, backed by
    /// `directory` (a concrete [`crate::Directory`] or any
    /// [`CertSource`]) and verifying against `verifier`. A miss fetches
    /// once; the MKD's resilience retries a failed upcall.
    pub fn new(
        slots: usize,
        directory: Arc<dyn CertSource>,
        verifier: CertVerifier,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let counts = Arc::new(CounterBlock::new());
        Pvc {
            cache: Mutex::new(
                SoftCache::new(slots, 1, |p: &Principal| crc32(p.as_bytes()))
                    .with_counts(Arc::clone(&counts), CacheKind::Pvc),
            ),
            counts,
            directory,
            verifier,
            clock,
        }
    }

    /// Pin a certificate at initialisation (§5.3's alternative to fetches).
    /// Pinned certificates are still verified on every use.
    pub fn pin(&self, cert: Certificate) {
        self.cache.lock().insert(cert.subject.clone(), cert);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PvcStats {
        PvcStats::read(&self.counts)
    }

    /// Attach a metrics registry: it reads the PVC's counter block (the
    /// certificate cache's counts under [`CacheKind::Pvc`] and
    /// [`Counter::PvcVerifyFailures`]).
    pub fn attach_obs(&self, registry: Arc<MetricsRegistry>) {
        registry.attach(Arc::clone(&self.counts));
    }
}

impl PublicValueSource for Pvc {
    fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
        let now = self.clock.now_secs();
        let mut cache = self.cache.lock();
        let cert = match cache.get(principal) {
            Some(c) => c,
            None => {
                // Secure flow bypass: this request travels unprotected.
                let c = self.directory.fetch_cert(principal)?;
                cache.insert(principal.clone(), c.clone());
                c
            }
        };
        // Verified on each use — the cache is untrusted storage (§5.3).
        if let Err(e) = self.verifier.verify(&cert, now) {
            self.counts.incr(Counter::PvcVerifyFailures);
            // Drop the bad entry so a refreshed certificate can be fetched.
            cache.invalidate(principal);
            return Err(e);
        }
        Ok(cert.public_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::directory::Directory;
    use fbs_core::ManualClock;
    use fbs_crypto::dh::{DhGroup, PrivateValue};
    use std::time::Duration;

    struct World {
        pvc: Pvc,
        dir: Arc<Directory>,
        ca: CertificateAuthority,
        clock: ManualClock,
    }

    fn world() -> World {
        let ca = CertificateAuthority::new("ca", [3u8; 16]);
        let dir = Arc::new(Directory::new(Duration::from_millis(50)));
        let clock = ManualClock::starting_at(1000);
        let pvc = Pvc::new(16, dir.clone(), ca.verifier(), Arc::new(clock.clone()));
        World {
            pvc,
            dir,
            ca,
            clock,
        }
    }

    fn publish(w: &World, name: &str, not_after: u64) -> PublicValue {
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), name.as_bytes()).public_value();
        w.dir
            .publish(w.ca.issue(Principal::named(name), pv.clone(), 0, not_after));
        pv
    }

    #[test]
    fn miss_then_hit() {
        let w = world();
        let expected = publish(&w, "alice", u64::MAX);
        let alice = Principal::named("alice");
        assert_eq!(w.pvc.fetch(&alice).unwrap(), expected);
        assert_eq!(w.pvc.fetch(&alice).unwrap(), expected);
        let s = w.pvc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Only the miss touched the network.
        assert_eq!(w.dir.stats().fetches, 1);
    }

    #[test]
    fn cached_cert_expires_and_is_refetched() {
        let w = world();
        publish(&w, "bob", 2000);
        let bob = Principal::named("bob");
        assert!(w.pvc.fetch(&bob).is_ok());
        w.clock.set(3000); // cert now expired
        assert!(w.pvc.fetch(&bob).is_err());
        assert_eq!(w.pvc.stats().verify_failures, 1);
        // Publish a renewed certificate; the stale entry was dropped, so
        // the next fetch goes to the directory and succeeds.
        publish(&w, "bob", 10_000);
        assert!(w.pvc.fetch(&bob).is_ok());
        assert_eq!(w.dir.stats().fetches, 2);
    }

    #[test]
    fn pinned_certificate_avoids_network() {
        let w = world();
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"carol-entropy").public_value();
        w.pvc
            .pin(w.ca.issue(Principal::named("carol"), pv.clone(), 0, u64::MAX));
        assert_eq!(w.pvc.fetch(&Principal::named("carol")).unwrap(), pv);
        assert_eq!(w.dir.stats().fetches, 0);
    }

    #[test]
    fn unknown_principal_propagates() {
        let w = world();
        assert!(w.pvc.fetch(&Principal::named("ghost")).is_err());
        assert_eq!(w.pvc.stats().misses, 1);
    }

    #[test]
    fn obs_registry_mirrors_pvc_stats() {
        let w = world();
        let reg = Arc::new(MetricsRegistry::new());
        w.pvc.attach_obs(Arc::clone(&reg));
        publish(&w, "erin", 2000);
        let erin = Principal::named("erin");
        assert!(w.pvc.fetch(&erin).is_ok()); // miss, verify ok
        assert!(w.pvc.fetch(&erin).is_ok()); // hit
        w.clock.set(3000);
        assert!(w.pvc.fetch(&erin).is_err()); // hit, then verify failure
        let live = reg.snapshot();
        assert_eq!(live.counter("cache.pvc.hits"), 2);
        // The PVC runs without 3C classification, so misses are capacity.
        assert_eq!(live.counter("cache.pvc.capacity_misses"), 1);
        assert_eq!(live.counter("pvc.verify_failures"), 1);
        let s = w.pvc.stats();
        assert_eq!(s.hits, live.counter("cache.pvc.hits"));
        assert_eq!(s.misses, live.counter("cache.pvc.capacity_misses"));
        assert_eq!(s.verify_failures, live.counter("pvc.verify_failures"));
    }

    #[test]
    fn tampered_pinned_cert_rejected_per_use() {
        // The PVC is untrusted storage: a corrupted entry must be caught by
        // the per-use verification.
        let w = world();
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"dave-entropy").public_value();
        let mut cert = w.ca.issue(Principal::named("dave"), pv, 0, u64::MAX);
        cert.public_value.bytes[0] ^= 0xFF; // corrupt after signing
        w.pvc.pin(cert);
        assert!(w.pvc.fetch(&Principal::named("dave")).is_err());
        assert_eq!(w.pvc.stats().verify_failures, 1);
    }
}
