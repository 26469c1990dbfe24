//! Typed rare events for the flight recorder.
//!
//! Each variant is a step that a fault or the keying plane causes (§5–§7
//! of the paper): retries and breaker moves of the MKD upcall, parking
//! and degradation while key material is missing, reassembly timeouts and
//! MRT retransmits. The steps every datagram takes (hooks, lookups, seal
//! and open, fragmentation) are counts, not events. The taxonomy is
//! deliberately small and flat, and every field is `Copy`.

use std::fmt;

/// Which soft-state cache a lookup hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// Transmit-side flow-key cache.
    Tfkc,
    /// Receive-side flow-key cache.
    Rfkc,
    /// Master-key cache (pair keys from the MKD).
    Mkc,
    /// Public-value cache (certificates).
    Pvc,
    /// The §7.2 combined FST/TFKC table.
    Combined,
}

impl CacheKind {
    /// All kinds, in snapshot order.
    pub const ALL: [CacheKind; 5] = [
        CacheKind::Tfkc,
        CacheKind::Rfkc,
        CacheKind::Mkc,
        CacheKind::Pvc,
        CacheKind::Combined,
    ];

    /// Lower-case name used in counter keys and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::Tfkc => "tfkc",
            CacheKind::Rfkc => "rfkc",
            CacheKind::Mkc => "mkc",
            CacheKind::Pvc => "pvc",
            CacheKind::Combined => "combined",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            CacheKind::Tfkc => 0,
            CacheKind::Rfkc => 1,
            CacheKind::Mkc => 2,
            CacheKind::Pvc => 3,
            CacheKind::Combined => 4,
        }
    }
}

/// Outcome of a cache lookup under the 3C miss model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry was present.
    Hit,
    /// First reference ever to this key.
    MissCold,
    /// The key was evicted because the cache is too small overall.
    MissCapacity,
    /// The key was evicted by a set/slot conflict.
    MissCollision,
}

impl CacheOutcome {
    /// Lower-case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::MissCold => "miss_cold",
            CacheOutcome::MissCapacity => "miss_capacity",
            CacheOutcome::MissCollision => "miss_collision",
        }
    }
}

/// Which side of the IP security hooks an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The output hook (before fragmentation).
    Output,
    /// The input hook (after reassembly).
    Input,
}

impl Direction {
    /// Lower-case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Output => "output",
            Direction::Input => "input",
        }
    }
}

/// Circuit-breaker state, as carried by [`Event::BreakerTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerStateKind {
    /// Requests flow normally; failures are counted.
    Closed,
    /// Requests fail fast without touching the protected resource.
    Open,
    /// One probe request is allowed through to test recovery.
    HalfOpen,
}

impl BreakerStateKind {
    /// Lower-case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerStateKind::Closed => "closed",
            BreakerStateKind::Open => "open",
            BreakerStateKind::HalfOpen => "half_open",
        }
    }
}

/// One rare event: a step that a fault or the keying plane causes, never
/// one a datagram takes just by passing through. Per-datagram steps are
/// counts and histograms, so no traffic, friendly or forged, washes this
/// history out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A partial reassembly buffer timed out and was dropped.
    ReassemblyTimeout,
    /// MRT retransmitted (go-back-N rewind or handshake retry).
    MrtRetransmit,
    /// A retried operation (directory fetch, MKD upcall) ran one more
    /// attempt after a failure.
    RetryAttempt {
        /// 1-based attempt index of the attempt that just failed.
        attempt: u32,
        /// Backoff charged before the next attempt, in microseconds.
        backoff_us: u64,
    },
    /// A retried operation gave up: attempts or deadline exhausted.
    RetryExhausted {
        /// Total attempts made before giving up.
        attempts: u32,
    },
    /// A per-peer circuit breaker changed state.
    BreakerTransition {
        /// The state left behind.
        from: BreakerStateKind,
        /// The state entered.
        to: BreakerStateKind,
        /// How long the breaker sat in `from`, in (virtual)
        /// microseconds — the time-in-state the transition closes out.
        in_state_us: u64,
    },
    /// A request was rejected without trying because the breaker is open.
    BreakerFastFail,
    /// A datagram was parked awaiting key material.
    Parked {
        /// Queue depth after parking (bounds memory growth evidence).
        queued: u32,
    },
    /// A parked datagram was released and processed.
    ParkReleased {
        /// How long it waited, in microseconds.
        waited_us: u64,
    },
    /// A parked datagram hit its deadline and was dropped (datagram
    /// semantics: loss, not blocking).
    ParkExpired,
    /// A datagram could not be parked because the queue was full.
    ParkOverflow,
    /// A degradation policy verdict was applied to a datagram that could
    /// not be protected/verified.
    Degraded {
        /// Output or input side.
        dir: Direction,
        /// True for fail-open (sent/accepted unprotected), false for
        /// fail-closed (dropped).
        open: bool,
    },
}

impl Event {
    /// Snake-case event type name used in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ReassemblyTimeout => "reassembly_timeout",
            Event::MrtRetransmit => "mrt_retransmit",
            Event::RetryAttempt { .. } => "retry_attempt",
            Event::RetryExhausted { .. } => "retry_exhausted",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::BreakerFastFail => "breaker_fast_fail",
            Event::Parked { .. } => "parked",
            Event::ParkReleased { .. } => "park_released",
            Event::ParkExpired => "park_expired",
            Event::ParkOverflow => "park_overflow",
            Event::Degraded { .. } => "degraded",
        }
    }

    /// Variant-specific JSON fields, as `,"k":v` pairs (possibly empty).
    fn json_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Event::RetryAttempt {
                attempt,
                backoff_us,
            } => {
                let _ = write!(out, r#","attempt":{attempt},"backoff_us":{backoff_us}"#);
            }
            Event::RetryExhausted { attempts } => {
                let _ = write!(out, r#","attempts":{attempts}"#);
            }
            Event::BreakerTransition {
                from,
                to,
                in_state_us,
            } => {
                let _ = write!(
                    out,
                    r#","from":"{}","to":"{}","in_state_us":{}"#,
                    from.name(),
                    to.name(),
                    in_state_us
                );
            }
            Event::Parked { queued } => {
                let _ = write!(out, r#","queued":{queued}"#);
            }
            Event::ParkReleased { waited_us } => {
                let _ = write!(out, r#","waited_us":{waited_us}"#);
            }
            Event::Degraded { dir, open } => {
                let _ = write!(out, r#","dir":"{}","open":{}"#, dir.name(), open);
            }
            Event::ReassemblyTimeout
            | Event::MrtRetransmit
            | Event::BreakerFastFail
            | Event::ParkExpired
            | Event::ParkOverflow => {}
        }
    }
}

/// One flight-recorder entry: an event plus sequencing metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone sequence number (1-based, never reused); gaps after the
    /// ring wraps tell you how much history was overwritten.
    pub seq: u64,
    /// Registry time-source reading when the event was recorded, in
    /// microseconds.
    pub t_us: u64,
    /// The event itself.
    pub event: Event,
}

impl EventRecord {
    /// Render as one JSON object (one line of the JSON-lines export).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write;
        let _ = write!(
            out,
            r#"{{"seq":{},"t_us":{},"type":"{}""#,
            self.seq,
            self.t_us,
            self.event.kind()
        );
        self.event.json_fields(&mut out);
        out.push('}');
        out
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shapes() {
        let rec = EventRecord {
            seq: 7,
            t_us: 12,
            event: Event::RetryExhausted { attempts: 4 },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":7,"t_us":12,"type":"retry_exhausted","attempts":4}"#
        );
        let rec = EventRecord {
            seq: 1,
            t_us: 0,
            event: Event::BreakerFastFail,
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":1,"t_us":0,"type":"breaker_fast_fail"}"#
        );
    }

    #[test]
    fn robustness_event_json_shapes() {
        let rec = EventRecord {
            seq: 2,
            t_us: 5,
            event: Event::RetryAttempt {
                attempt: 3,
                backoff_us: 400,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":2,"t_us":5,"type":"retry_attempt","attempt":3,"backoff_us":400}"#
        );
        let rec = EventRecord {
            seq: 3,
            t_us: 6,
            event: Event::BreakerTransition {
                from: BreakerStateKind::Open,
                to: BreakerStateKind::HalfOpen,
                in_state_us: 1_000_000,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":3,"t_us":6,"type":"breaker_transition","from":"open","to":"half_open","in_state_us":1000000}"#
        );
        let rec = EventRecord {
            seq: 4,
            t_us: 7,
            event: Event::Degraded {
                dir: Direction::Output,
                open: false,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":4,"t_us":7,"type":"degraded","dir":"output","open":false}"#
        );
        let rec = EventRecord {
            seq: 5,
            t_us: 8,
            event: Event::Parked { queued: 12 },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"seq":5,"t_us":8,"type":"parked","queued":12}"#
        );
    }
}
