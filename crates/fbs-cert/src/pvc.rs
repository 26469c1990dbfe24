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
use fbs_core::{Clock, Principal, PublicValueSource, Result, RetryPolicy, SoftCache};
use fbs_crypto::crc32;
use fbs_crypto::dh::PublicValue;
use fbs_obs::{CacheKind, Counter, Event, MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use std::sync::Arc;

/// PVC statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PvcStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a directory fetch.
    pub misses: u64,
    /// Certificates that failed their per-use verification.
    pub verify_failures: u64,
    /// Directory-fetch retries after a failed attempt.
    pub retries: u64,
    /// Fetches whose retry schedule was exhausted.
    pub retry_exhausted: u64,
}

impl PvcStats {
    /// Fold these counters into a snapshot under the names a live
    /// [`MetricsRegistry`] uses. The legacy `misses` field has no 3C
    /// breakdown, so only the exactly-mappable counters are contributed.
    pub fn contribute(&self, snap: &mut MetricsSnapshot) {
        snap.add("cache.pvc.hits", self.hits);
        snap.add("pvc.verify_failures", self.verify_failures);
        snap.add("retry.attempts", self.retries);
        snap.add("retry.exhausted", self.retry_exhausted);
    }
}

struct Inner {
    cache: SoftCache<Principal, Certificate>,
    stats: PvcStats,
    obs: Option<Arc<MetricsRegistry>>,
}

/// The public value cache.
pub struct Pvc {
    inner: Mutex<Inner>,
    directory: Arc<dyn CertSource>,
    verifier: CertVerifier,
    clock: Arc<dyn Clock>,
    retry: Option<RetryPolicy>,
}

impl Pvc {
    /// Create a PVC with `slots` direct-mapped certificate slots, backed by
    /// `directory` (a concrete [`crate::Directory`] or any
    /// [`CertSource`]) and verifying against `verifier`.
    pub fn new(
        slots: usize,
        directory: Arc<dyn CertSource>,
        verifier: CertVerifier,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Pvc {
            inner: Mutex::new(Inner {
                cache: SoftCache::new(slots, 1, |p: &Principal| crc32(p.as_bytes())),
                stats: PvcStats::default(),
                obs: None,
            }),
            directory,
            verifier,
            clock,
            retry: None,
        }
    }

    /// Retry failed directory fetches under `policy` (builder style).
    /// Without this, misses are single-shot as in the seed behaviour.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Pin a certificate at initialisation (§5.3's alternative to fetches).
    /// Pinned certificates are still verified on every use.
    pub fn pin(&self, cert: Certificate) {
        let mut inner = self.inner.lock();
        inner.cache.insert(cert.subject.clone(), cert);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PvcStats {
        self.inner.lock().stats
    }

    /// Attach a metrics registry: it reads the certificate cache's
    /// counts under [`CacheKind::Pvc`], and fetch retries and per-use
    /// verification failures bump the registry's `retry.*` and
    /// [`Counter::PvcVerifyFailures`] counters.
    pub fn attach_obs(&self, registry: Arc<MetricsRegistry>) {
        let mut inner = self.inner.lock();
        inner.cache.set_obs(Arc::clone(&registry), CacheKind::Pvc);
        inner.obs = Some(registry);
    }
}

impl PublicValueSource for Pvc {
    fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
        let now = self.clock.now_secs();
        let mut inner = self.inner.lock();
        let cert = match inner.cache.get(principal) {
            Some(c) => {
                inner.stats.hits += 1;
                c
            }
            None => {
                inner.stats.misses += 1;
                // Secure flow bypass: this request travels unprotected.
                let c = match self.retry {
                    None => self.directory.fetch_cert(principal)?,
                    Some(policy) => {
                        let outcome = policy.run(|| self.directory.fetch_cert(principal));
                        for (i, backoff_us) in outcome.backoffs_us.iter().enumerate() {
                            inner.stats.retries += 1;
                            if let Some(reg) = &inner.obs {
                                reg.incr(Counter::RetryAttempts);
                                reg.record(Event::RetryAttempt {
                                    attempt: i as u32 + 1,
                                    backoff_us: *backoff_us,
                                });
                            }
                        }
                        match outcome.result {
                            Ok(c) => c,
                            Err(e) => {
                                if outcome.exhausted && outcome.attempts > 1 {
                                    inner.stats.retry_exhausted += 1;
                                    if let Some(reg) = &inner.obs {
                                        reg.incr(Counter::RetryExhausted);
                                        reg.record(Event::RetryExhausted {
                                            attempts: outcome.attempts,
                                        });
                                    }
                                }
                                return Err(e);
                            }
                        }
                    }
                };
                inner.cache.insert(principal.clone(), c.clone());
                c
            }
        };
        // Verified on each use — the cache is untrusted storage (§5.3).
        if let Err(e) = self.verifier.verify(&cert, now) {
            inner.stats.verify_failures += 1;
            if let Some(reg) = &inner.obs {
                reg.incr(Counter::PvcVerifyFailures);
            }
            // Drop the bad entry so a refreshed certificate can be fetched.
            inner.cache.invalidate(principal);
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
        let mut legacy = MetricsSnapshot::new();
        w.pvc.stats().contribute(&mut legacy);
        assert_eq!(
            legacy.counter("cache.pvc.hits"),
            live.counter("cache.pvc.hits")
        );
        assert_eq!(
            legacy.counter("pvc.verify_failures"),
            live.counter("pvc.verify_failures")
        );
    }

    /// A [`CertSource`] that fails the first `fail_first` fetches.
    struct FlakyDirectory {
        inner: Arc<Directory>,
        calls: std::sync::atomic::AtomicU64,
        fail_first: u64,
    }

    impl CertSource for FlakyDirectory {
        fn fetch_cert(&self, principal: &Principal) -> Result<Certificate> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.fail_first {
                Err(fbs_core::FbsError::Transport("directory outage".into()))
            } else {
                self.inner.fetch(principal)
            }
        }
    }

    #[test]
    fn retry_rides_out_transient_directory_failures() {
        let ca = CertificateAuthority::new("ca", [3u8; 16]);
        let dir = Arc::new(Directory::new(Duration::from_millis(50)));
        let clock = ManualClock::starting_at(1000);
        let flaky = Arc::new(FlakyDirectory {
            inner: dir.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_first: 2,
        });
        let pvc = Pvc::new(16, flaky, ca.verifier(), Arc::new(clock)).with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            deadline_us: 100_000,
            jitter_seed: 5,
        });
        let pv = PrivateValue::from_entropy(DhGroup::test_group(), b"frank-e").public_value();
        dir.publish(ca.issue(Principal::named("frank"), pv.clone(), 0, u64::MAX));
        // Two transient failures, then success — one logical miss.
        assert_eq!(pvc.fetch(&Principal::named("frank")).unwrap(), pv);
        let s = pvc.stats();
        assert_eq!((s.misses, s.retries, s.retry_exhausted), (1, 2, 0));
        // Warm now: no further fetches or retries.
        assert!(pvc.fetch(&Principal::named("frank")).is_ok());
        assert_eq!(pvc.stats().retries, 2);
    }

    #[test]
    fn retry_exhaustion_counts_and_propagates() {
        let ca = CertificateAuthority::new("ca", [3u8; 16]);
        let dir = Arc::new(Directory::new(Duration::ZERO));
        let clock = ManualClock::starting_at(1000);
        let flaky = Arc::new(FlakyDirectory {
            inner: dir,
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_first: u64::MAX,
        });
        let pvc = Pvc::new(16, flaky, ca.verifier(), Arc::new(clock)).with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            deadline_us: 100_000,
            jitter_seed: 5,
        });
        let reg = Arc::new(MetricsRegistry::new());
        pvc.attach_obs(Arc::clone(&reg));
        assert!(pvc.fetch(&Principal::named("gone")).is_err());
        let s = pvc.stats();
        assert_eq!((s.retries, s.retry_exhausted), (2, 1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("retry.attempts"), 2);
        assert_eq!(snap.counter("retry.exhausted"), 1);
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
