//! Time sources for timestamps and flow expiry.
//!
//! FBS needs two granularities of time (§5.3):
//!
//! * **minute-resolution timestamps** for the replay-protection header
//!   field, "encoded as the number of minutes since 00:00 GMT January 1,
//!   1996" — with 32 bits this "will not wrap around in the next 8000
//!   years";
//! * **second-resolution arrival times** for the flow state table's `last`
//!   field, compared against THRESHOLD by the sweeper (Fig. 7).
//!
//! Both derive from a single [`Clock`] giving seconds since the FBS epoch.
//! Production code uses [`SystemClock`]; tests and the trace-driven
//! simulators use [`ManualClock`] so time is fully controlled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Seconds between the Unix epoch (1970-01-01) and the FBS epoch
/// (1996-01-01 00:00 GMT): 26 years of which 6 are leap (1972, '76, '80,
/// '84, '88, '92) — exactly 9496 days.
pub const FBS_EPOCH_UNIX_SECS: u64 = 820_454_400;

/// A source of seconds-since-FBS-epoch.
pub trait Clock: Send + Sync {
    /// Current time in whole seconds since 00:00 GMT 1996-01-01.
    fn now_secs(&self) -> u64;

    /// Current time in whole minutes since the FBS epoch, as carried in the
    /// security flow header's 32-bit timestamp field.
    fn now_minutes(&self) -> u32 {
        (self.now_secs() / 60) as u32
    }

    /// Current time in microseconds since the FBS epoch, for latency
    /// instrumentation (`fbs-obs` event timestamps and key-derivation
    /// timing). The default derives it from [`Clock::now_secs`], so
    /// simulated clocks stay deterministic: under a [`ManualClock`] two
    /// micro-timestamps taken without advancing the clock are equal and
    /// measured latencies are exactly 0.
    fn now_micros(&self) -> u64 {
        self.now_secs().saturating_mul(1_000_000)
    }
}

/// Wall-clock time via [`SystemTime`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_secs(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock before 1970")
            .as_secs()
            .saturating_sub(FBS_EPOCH_UNIX_SECS)
    }

    fn now_micros(&self) -> u64 {
        (SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock before 1970")
            .as_micros() as u64)
            .saturating_sub(FBS_EPOCH_UNIX_SECS * 1_000_000)
    }
}

/// A manually-advanced clock for tests, trace-driven simulation and
/// the chaos soak.
///
/// One atomic cell holds microseconds since the FBS epoch, so fault
/// windows, backoff budgets and breaker open intervals tick on the same
/// axis as the seconds the protocol reads. The seconds forms
/// ([`starting_at`](Self::starting_at), [`advance`](Self::advance),
/// [`set`](Self::set)) move it by whole seconds. Cloning shares the
/// cell, so a clock handed to an endpoint can be advanced from the test
/// body.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// Start at `secs` seconds past the FBS epoch.
    pub fn starting_at(secs: u64) -> Self {
        Self::starting_at_us(secs.saturating_mul(1_000_000))
    }

    /// Start at `micros` microseconds past the FBS epoch.
    pub fn starting_at_us(micros: u64) -> Self {
        ManualClock {
            micros: Arc::new(AtomicU64::new(micros)),
        }
    }

    /// Advance by `secs` seconds.
    pub fn advance(&self, secs: u64) {
        self.micros
            .fetch_add(secs.saturating_mul(1_000_000), Ordering::SeqCst);
    }

    /// Jump to an absolute time (may go backwards — useful for testing
    /// unsynchronised-machine scenarios, §6.2).
    pub fn set(&self, secs: u64) {
        self.set_us(secs.saturating_mul(1_000_000));
    }

    /// Jump to an absolute time in microseconds.
    pub fn set_us(&self, micros: u64) {
        self.micros.store(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_secs(&self) -> u64 {
        self.now_micros() / 1_000_000
    }

    fn now_minutes(&self) -> u32 {
        (self.now_micros() / 60_000_000) as u32
    }

    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fbs_epoch_constant_is_1996_01_01() {
        // 26 years * 365 days + 6 leap days (1972, '76, '80, '84, '88, '92)
        // = 9496 days, and the constant is a whole number of days.
        assert_eq!(FBS_EPOCH_UNIX_SECS % 86_400, 0);
        assert_eq!(FBS_EPOCH_UNIX_SECS / 86_400, 26 * 365 + 6);
    }

    #[test]
    fn system_clock_is_past_epoch_and_sane() {
        let now = SystemClock.now_secs();
        // We are well past 1996 and well before 32-bit minute wraparound.
        assert!(now > 28 * 365 * 86_400);
        assert!(SystemClock.now_minutes() < u32::MAX / 2);
    }

    #[test]
    fn manual_clock_advance_and_set() {
        let c = ManualClock::starting_at(100);
        assert_eq!(c.now_secs(), 100);
        assert_eq!(c.now_minutes(), 1);
        c.advance(120);
        assert_eq!(c.now_secs(), 220);
        assert_eq!(c.now_minutes(), 3);
        c.set(59);
        assert_eq!(c.now_minutes(), 0);
    }

    #[test]
    fn micros_drive_secs_and_minutes() {
        let c = ManualClock::starting_at_us(61_500_000);
        assert_eq!(c.now_micros(), 61_500_000);
        assert_eq!(c.now_secs(), 61);
        assert_eq!(c.now_minutes(), 1);
        c.set_us(62_000_000);
        assert_eq!(c.now_secs(), 62);
        c.advance(58);
        assert_eq!((c.now_secs(), c.now_minutes()), (120, 2));
        assert_eq!(c.now_micros(), 120_000_000);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let a = ManualClock::starting_at(0);
        let b = a.clone();
        a.advance(600);
        assert_eq!(b.now_secs(), 600);
    }

    #[test]
    fn minute_timestamp_will_not_wrap_for_8000_years() {
        // The paper's claim: 32 bits of minutes ≈ 8171 years.
        let years = u32::MAX as u64 / (60 * 24 * 365);
        assert!(years > 8000);
    }
}
