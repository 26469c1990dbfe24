//! The master key daemon (MKD) — paper §5.3, Fig. 5.
//!
//! MKC misses are served by an "upcall" to the MKD, which obtains the
//! peer's public value (through the PVC / certificate machinery behind the
//! [`PublicValueSource`] trait) and computes the pair-based master key via
//! modular exponentiation — the expensive operation FBS amortises across
//! all of a principal pair's flows.
//!
//! In the paper the MKD is a user-space daemon reached from the kernel via
//! an OS upcall primitive; here the upcall is a method call, and the
//! user/kernel boundary survives as the trait boundary: everything behind
//! `PublicValueSource` is "user space" (certificate caches, directory
//! fetches with simulated RTT, verification), while the MKD's caller (the
//! protocol endpoint with its MKC) is "kernel".

use crate::breaker::{
    Allow, BreakerConfig, BreakerState, CircuitBreaker, Transition, TransitionEvent,
};
use crate::clock::Clock;
use crate::error::{FbsError, Result};
use crate::principal::Principal;
use crate::retry::RetryPolicy;
use fbs_crypto::dh::{PrivateValue, PublicValue};
use fbs_obs::{BreakerStateKind, Counter, CounterBlock, Event, MetricsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// Supplies verified public values for principals.
///
/// Implementations encapsulate the PVC (public value cache), fetches to a
/// certificate authority or secure directory, and per-use certificate
/// verification (§5.3: certificates rather than bare values are cached so
/// the cache itself need not be secure). Fetch requests must bypass FBS
/// (the "secure flow bypass" of Fig. 5) to avoid the circularity of
/// securing the fetch that enables security.
pub trait PublicValueSource: Send + Sync {
    /// Fetch the verified public value for `principal`.
    fn fetch(&self, principal: &Principal) -> Result<PublicValue>;
}

/// Shared sources work anywhere an owned one does — callers can keep a
/// handle (e.g. for statistics) while the MKD holds another.
impl<T: PublicValueSource + ?Sized> PublicValueSource for Arc<T> {
    fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
        (**self).fetch(principal)
    }
}

/// A trivial in-memory source for tests and self-contained examples: all
/// public values are "pinned" at initialisation (§5.3 mentions pinning as
/// the alternative to directory fetches).
#[derive(Default)]
pub struct PinnedDirectory {
    entries: std::collections::HashMap<Principal, PublicValue>,
}

impl PinnedDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin `principal`'s public value.
    pub fn pin(&mut self, principal: Principal, value: PublicValue) {
        self.entries.insert(principal, value);
    }
}

impl PublicValueSource for PinnedDirectory {
    fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
        self.entries
            .get(principal)
            .cloned()
            .ok_or_else(|| crate::error::FbsError::PrincipalUnknown(principal.to_string()))
    }
}

/// MKD statistics: a view over the `mkd.*`, `retry.*` and `breaker.*`
/// cells the daemon writes in its counter block (the block also holds
/// the `breaker.time_*_us` time-in-state totals, which no field reads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MkdStats {
    /// Upcalls received (one per MKC miss).
    pub upcalls: u64,
    /// Upcalls that failed (unknown principal, bad certificate, open
    /// breaker, retries exhausted, ...).
    pub failures: u64,
    /// Public-value fetch retries after a failed attempt.
    pub retries: u64,
    /// Upcalls whose retry schedule was exhausted.
    pub retry_exhausted: u64,
    /// Per-peer circuit-breaker trips to open.
    pub breaker_opens: u64,
    /// Breaker half-open transitions (recovery probes let through).
    pub breaker_half_opens: u64,
    /// Breaker transitions back to closed.
    pub breaker_closes: u64,
    /// Upcalls rejected fast because the peer's breaker was open.
    pub breaker_fast_fails: u64,
}

impl MkdStats {
    /// Read the view off `counts`.
    pub fn read(counts: &CounterBlock) -> Self {
        MkdStats {
            upcalls: counts.counter(Counter::MkdUpcalls),
            failures: counts.counter(Counter::MkdFailures),
            retries: counts.counter(Counter::RetryAttempts),
            retry_exhausted: counts.counter(Counter::RetryExhausted),
            breaker_opens: counts.counter(Counter::BreakerOpens),
            breaker_half_opens: counts.counter(Counter::BreakerHalfOpens),
            breaker_closes: counts.counter(Counter::BreakerCloses),
            breaker_fast_fails: counts.counter(Counter::BreakerFastFails),
        }
    }
}

/// Fault-tolerance wrapping for the upcall path: a retry schedule
/// around the public-value fetch plus a per-peer circuit breaker, both
/// driven by a deterministic clock.
pub struct Resilience {
    /// Retry schedule for the public-value fetch.
    pub retry: RetryPolicy,
    /// Breaker tuning, applied per peer.
    pub breaker: BreakerConfig,
    /// Time source for breaker open/half-open timing.
    pub clock: Arc<dyn Clock>,
    breakers: HashMap<Principal, CircuitBreaker>,
}

impl Resilience {
    /// Resilience under `retry` and `breaker`, timed by `clock`.
    pub fn new(retry: RetryPolicy, breaker: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        Resilience {
            retry,
            breaker,
            clock,
            breakers: HashMap::new(),
        }
    }
}

/// The master key daemon.
pub struct MasterKeyDaemon {
    private: PrivateValue,
    source: Box<dyn PublicValueSource>,
    /// The block this daemon counts into — and, once an endpoint is
    /// built around it, the whole endpoint.
    counts: Arc<CounterBlock>,
    resilience: Option<Resilience>,
    obs: Option<Arc<MetricsRegistry>>,
}

impl MasterKeyDaemon {
    /// Create an MKD for a principal holding `private`, resolving peers
    /// through `source`, with a fresh counter block. Upcalls are
    /// single-shot; add [`with_resilience`](Self::with_resilience) for
    /// retry + breaker.
    pub fn new(private: PrivateValue, source: Box<dyn PublicValueSource>) -> Self {
        MasterKeyDaemon {
            private,
            source,
            counts: Arc::new(CounterBlock::new()),
            resilience: None,
            obs: None,
        }
    }

    /// Harden the upcall path (builder style): retry the public-value
    /// fetch under `retry` and gate each peer behind a circuit breaker.
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Attach a metrics registry: it reads the daemon's counter block,
    /// and retry attempts, breaker transitions and fast-fails are
    /// recorded as flight-recorder events.
    pub fn set_obs(&mut self, registry: Arc<MetricsRegistry>) {
        registry.attach(Arc::clone(&self.counts));
        self.obs = Some(registry);
    }

    /// The counter block this daemon writes (its keying service reads
    /// it without the daemon's lock).
    pub fn counts(&self) -> &Arc<CounterBlock> {
        &self.counts
    }

    fn record(&self, event: Event) {
        if let Some(reg) = &self.obs {
            reg.record(event);
        }
    }

    fn note_transition(&mut self, t: TransitionEvent) {
        let to = match t.transition {
            Transition::Opened => {
                self.counts.incr(Counter::BreakerOpens);
                BreakerStateKind::Open
            }
            Transition::HalfOpened => {
                self.counts.incr(Counter::BreakerHalfOpens);
                BreakerStateKind::HalfOpen
            }
            Transition::Closed => {
                self.counts.incr(Counter::BreakerCloses);
                BreakerStateKind::Closed
            }
        };
        let (from, time_in) = match t.from {
            BreakerState::Closed => (BreakerStateKind::Closed, Counter::BreakerTimeClosedUs),
            BreakerState::Open { .. } => (BreakerStateKind::Open, Counter::BreakerTimeOpenUs),
            BreakerState::HalfOpen => (BreakerStateKind::HalfOpen, Counter::BreakerTimeHalfOpenUs),
        };
        self.counts.add(time_in, t.in_state_us);
        self.record(Event::BreakerTransition {
            from,
            to,
            in_state_us: t.in_state_us,
        });
        // Line the transition up against any sampled flow traces, at the
        // transition's own time: the one annotation it gets.
        if let Some(tracer) = self.obs.as_ref().and_then(|reg| reg.tracer()) {
            tracer.annotate("breaker_transition", to.name(), t.at_us, t.in_state_us);
        }
    }

    /// The `Upcall(MKDaemon, D)` of Fig. 6: produce the pair-based master
    /// key `K_{S,D}` for the local principal and `peer`. With resilience
    /// configured, the fetch is retried per the policy and the peer's
    /// circuit breaker may fail the upcall fast while open.
    pub fn master_key(&mut self, peer: &Principal) -> Result<Vec<u8>> {
        self.counts.incr(Counter::MkdUpcalls);
        let Some(res) = &mut self.resilience else {
            let public = self.source.fetch(peer).inspect_err(|_| {
                self.counts.incr(Counter::MkdFailures);
            })?;
            return Ok(self.private.master_key(&public));
        };

        let now_us = res.clock.now_micros();
        // Steady-state breaker lookups are a single hash probe with no
        // key clone: the loop/break shape ends the probe's borrow before
        // the miss-path insert, so only the very first upcall for a peer
        // pays the `Principal` clone that creating its breaker requires.
        let (allow, transition) = loop {
            if let Some(b) = res.breakers.get_mut(peer) {
                break b.allow(now_us);
            }
            res.breakers
                .insert(peer.clone(), CircuitBreaker::new(res.breaker));
        };
        if let Some(t) = transition {
            self.note_transition(t);
        }
        if allow == Allow::FastFail {
            self.counts.incr(Counter::MkdFailures);
            self.counts.incr(Counter::BreakerFastFails);
            self.record(Event::BreakerFastFail);
            return Err(FbsError::CircuitOpen(peer.to_string()));
        }

        let res = self.resilience.as_mut().expect("checked above");
        let source = &self.source;
        let outcome = res.retry.run(|| source.fetch(peer));
        for (i, backoff_us) in outcome.backoffs_us.iter().enumerate() {
            self.counts.incr(Counter::RetryAttempts);
            self.record(Event::RetryAttempt {
                attempt: i as u32 + 1,
                backoff_us: *backoff_us,
            });
        }
        let res = self.resilience.as_mut().expect("checked above");
        let breaker = res.breakers.get_mut(peer).expect("inserted above");
        match outcome.result {
            Ok(public) => {
                // Success time mirrors the failure path: the virtual
                // backoff spent retrying has already elapsed.
                let succeeded_at = now_us.saturating_add(outcome.total_backoff_us);
                let transition = breaker.on_success(succeeded_at);
                if let Some(t) = transition {
                    self.note_transition(t);
                }
                Ok(self.private.master_key(&public))
            }
            Err(e) => {
                // Failure time includes the virtual backoff spent
                // retrying, so the open interval starts when the last
                // attempt would have finished.
                let failed_at = now_us.saturating_add(outcome.total_backoff_us);
                let transition = breaker.on_failure(failed_at);
                self.counts.incr(Counter::MkdFailures);
                if outcome.exhausted && outcome.attempts > 1 {
                    self.counts.incr(Counter::RetryExhausted);
                    self.record(Event::RetryExhausted {
                        attempts: outcome.attempts,
                    });
                }
                if let Some(t) = transition {
                    self.note_transition(t);
                }
                Err(e)
            }
        }
    }

    /// Would an upcall for `peer` fail fast right now because its
    /// breaker is open? Pure — consumes no probe, trips nothing. Lets
    /// release loops skip work that is guaranteed to fail.
    pub fn would_fast_fail(&self, peer: &Principal) -> bool {
        let Some(res) = &self.resilience else {
            return false;
        };
        res.breakers
            .get(peer)
            .is_some_and(|b| b.would_fast_fail(res.clock.now_micros()))
    }

    /// The peer's breaker state, if resilience is configured and the
    /// peer has been seen.
    pub fn breaker_state(&self, peer: &Principal) -> Option<BreakerState> {
        self.resilience
            .as_ref()
            .and_then(|r| r.breakers.get(peer))
            .map(|b| b.state())
    }

    /// This principal's own public value (for publishing/certification).
    pub fn public_value(&self) -> PublicValue {
        self.private.public_value()
    }

    /// Accumulated statistics, read off the counter block.
    pub fn stats(&self) -> MkdStats {
        MkdStats::read(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_crypto::dh::DhGroup;

    fn daemon_pair() -> (MasterKeyDaemon, MasterKeyDaemon, Principal, Principal) {
        let group = DhGroup::test_group();
        let s_priv = PrivateValue::from_entropy(group.clone(), b"source-entropy-bytes");
        let d_priv = PrivateValue::from_entropy(group, b"dest-entropy-bytes!!");
        let s = Principal::named("S");
        let d = Principal::named("D");
        let mut dir_s = PinnedDirectory::new();
        dir_s.pin(d.clone(), d_priv.public_value());
        let mut dir_d = PinnedDirectory::new();
        dir_d.pin(s.clone(), s_priv.public_value());
        (
            MasterKeyDaemon::new(s_priv, Box::new(dir_s)),
            MasterKeyDaemon::new(d_priv, Box::new(dir_d)),
            s,
            d,
        )
    }

    #[test]
    fn both_ends_compute_same_master_key() {
        let (mut mkd_s, mut mkd_d, s, d) = daemon_pair();
        let k_sd = mkd_s.master_key(&d).unwrap();
        let k_ds = mkd_d.master_key(&s).unwrap();
        assert_eq!(k_sd, k_ds);
        assert_eq!(mkd_s.stats().upcalls, 1);
        assert_eq!(mkd_s.stats().failures, 0);
    }

    #[test]
    fn unknown_principal_fails() {
        let (mut mkd_s, _, _, _) = daemon_pair();
        let err = mkd_s.master_key(&Principal::named("stranger")).unwrap_err();
        assert!(matches!(err, crate::error::FbsError::PrincipalUnknown(_)));
        assert_eq!(mkd_s.stats().failures, 1);
    }

    #[test]
    fn public_value_is_stable() {
        let (mkd_s, _, _, _) = daemon_pair();
        assert_eq!(mkd_s.public_value(), mkd_s.public_value());
    }

    /// A source that fails with `Transport` until `healthy_after` calls
    /// have been made, then serves a pinned value.
    struct FlakySource {
        inner: PinnedDirectory,
        calls: std::sync::atomic::AtomicU64,
        healthy_after: u64,
    }

    impl PublicValueSource for FlakySource {
        fn fetch(&self, principal: &Principal) -> Result<PublicValue> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.healthy_after {
                Err(FbsError::Transport("simulated outage".into()))
            } else {
                self.inner.fetch(principal)
            }
        }
    }

    fn resilient_daemon(
        healthy_after: u64,
        clock: Arc<crate::clock::ManualClock>,
    ) -> (MasterKeyDaemon, Principal) {
        let group = DhGroup::test_group();
        let s_priv = PrivateValue::from_entropy(group.clone(), b"source-entropy-bytes");
        let d_priv = PrivateValue::from_entropy(group, b"dest-entropy-bytes!!");
        let d = Principal::named("D");
        let mut dir = PinnedDirectory::new();
        dir.pin(d.clone(), d_priv.public_value());
        let source = FlakySource {
            inner: dir,
            calls: std::sync::atomic::AtomicU64::new(0),
            healthy_after,
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 10_000,
            deadline_us: 1_000_000,
            jitter_seed: 42,
        };
        let breaker = BreakerConfig {
            failure_threshold: 2,
            open_duration_us: 5_000_000,
        };
        let mkd = MasterKeyDaemon::new(s_priv, Box::new(source))
            .with_resilience(Resilience::new(retry, breaker, clock));
        (mkd, d)
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let clock = Arc::new(crate::clock::ManualClock::starting_at(100));
        let (mut mkd, d) = resilient_daemon(2, clock);
        // First two fetches fail, third succeeds — all within one upcall.
        assert!(mkd.master_key(&d).is_ok());
        let s = mkd.stats();
        assert_eq!(s.upcalls, 1);
        assert_eq!(s.failures, 0);
        assert_eq!(s.retries, 2);
        assert_eq!(s.retry_exhausted, 0);
        assert_eq!(mkd.breaker_state(&d), Some(BreakerState::Closed));
    }

    #[test]
    fn breaker_opens_after_exhausted_retries_and_recovers() {
        let clock = Arc::new(crate::clock::ManualClock::starting_at(100));
        // 7 failing fetches: upcall 1 burns 3 (exhausted), upcall 2
        // burns 3 more and trips the breaker (threshold 2); the 7th
        // failure would be the half-open probe's first fetch.
        let (mut mkd, d) = resilient_daemon(7, Arc::clone(&clock));
        assert!(mkd.master_key(&d).is_err());
        assert!(mkd.master_key(&d).is_err());
        let s = mkd.stats();
        assert_eq!(s.failures, 2);
        assert_eq!(s.retry_exhausted, 2);
        assert_eq!(s.breaker_opens, 1);
        assert!(matches!(
            mkd.breaker_state(&d),
            Some(BreakerState::Open { .. })
        ));
        assert!(mkd.would_fast_fail(&d));

        // While open: fast fail without touching the source.
        let err = mkd.master_key(&d).unwrap_err();
        assert!(matches!(err, FbsError::CircuitOpen(_)));
        assert_eq!(mkd.stats().breaker_fast_fails, 1);

        // After the open interval the next upcall is the probe; the
        // source has healed (6 fetches made < 7? no: 3+3=6, so probe's
        // first fetch is call 7 → fails, but its retry succeeds).
        clock.advance(10); // 10 s >> 5 s open duration
        assert!(!mkd.would_fast_fail(&d));
        assert!(mkd.master_key(&d).is_ok());
        let s = mkd.stats();
        assert_eq!(s.breaker_half_opens, 1);
        assert_eq!(s.breaker_closes, 1);
        assert_eq!(mkd.breaker_state(&d), Some(BreakerState::Closed));
    }

    #[test]
    fn resilience_events_mirror_legacy_stats() {
        let clock = Arc::new(crate::clock::ManualClock::starting_at(100));
        let (mut mkd, d) = resilient_daemon(u64::MAX, Arc::clone(&clock));
        let reg = Arc::new(fbs_obs::MetricsRegistry::new());
        mkd.set_obs(Arc::clone(&reg));
        for _ in 0..3 {
            let _ = mkd.master_key(&d);
        }
        clock.advance(10);
        let _ = mkd.master_key(&d); // half-open probe, fails, re-opens
        let s = mkd.stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("retry.attempts"), s.retries);
        assert_eq!(snap.counter("retry.exhausted"), s.retry_exhausted);
        assert_eq!(snap.counter("breaker.opened"), s.breaker_opens);
        assert_eq!(snap.counter("breaker.half_open"), s.breaker_half_opens);
        assert_eq!(snap.counter("breaker.closed"), s.breaker_closes);
        assert_eq!(snap.counter("breaker.fast_fails"), s.breaker_fast_fails);
        assert!(s.breaker_opens >= 2, "probe failure should re-open");
        assert!(s.breaker_fast_fails >= 1);
    }

    #[test]
    fn one_transition_gives_one_annotation() {
        let clock = Arc::new(crate::clock::ManualClock::starting_at(100));
        let (mut mkd, d) = resilient_daemon(u64::MAX, clock);
        let reg = Arc::new(fbs_obs::MetricsRegistry::new());
        let tracer = Arc::new(fbs_obs::FlowTracer::new(0));
        reg.set_tracer(Arc::clone(&tracer));
        mkd.set_obs(Arc::clone(&reg));
        // Two exhausted upcalls trip the breaker (threshold 2): one
        // transition, closed -> open.
        let _ = mkd.master_key(&d);
        let _ = mkd.master_key(&d);
        assert_eq!(mkd.stats().breaker_opens, 1);
        let json = tracer.to_json();
        assert_eq!(
            json.matches("\"kind\":\"breaker_transition\"").count(),
            1,
            "{json}"
        );
        // The time in state it closes out is counted in the daemon's
        // block, registry or not.
        let closed_us = mkd.counts().counter(Counter::BreakerTimeClosedUs);
        assert!(closed_us > 0);
        assert_eq!(reg.snapshot().counter("breaker.time_closed_us"), closed_us);
        assert!(json.contains("\"detail\":\"open\",\"t_us\":100"), "{json}");
        assert!(json.contains(&format!(",\"info\":{closed_us}}}")), "{json}");
    }
}
