//! A simulated shared network segment (the testbed's "dedicated 10M
//! Ethernet segment", §7.3) driven by virtual time.
//!
//! The segment is a single shared medium: frames serialise one at a time
//! at the configured bandwidth, then propagate with latency and jitter.
//! Adverse conditions — loss, duplication, corruption, reordering — are
//! injected from a seeded RNG, so every run is reproducible (the same
//! fault-injection philosophy as smoltcp's examples).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Impairment and medium configuration.
#[derive(Clone, Copy, Debug)]
pub struct Impairments {
    /// Propagation latency in microseconds.
    pub latency_us: u64,
    /// Uniform random extra delay in `[0, jitter_us]` — also the source of
    /// reordering when it exceeds inter-frame gaps.
    pub jitter_us: u64,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one random byte of the frame is flipped.
    pub corrupt: f64,
    /// Medium bandwidth in bits/second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
}

impl Default for Impairments {
    /// A clean 10 Mb/s segment with 50 µs propagation delay — the paper's
    /// testbed medium.
    fn default() -> Self {
        Impairments {
            latency_us: 50,
            jitter_us: 0,
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            bandwidth_bps: Some(10_000_000),
        }
    }
}

impl Impairments {
    /// An ideal medium: no delay, no faults, infinite bandwidth.
    pub fn ideal() -> Self {
        Impairments {
            latency_us: 0,
            jitter_us: 0,
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            bandwidth_bps: None,
        }
    }

    /// A lossy WAN-ish medium for robustness tests, with every fault rate
    /// explicit (duplication and corruption used to be derived from the
    /// loss rate, which hid two knobs chaos schedules need).
    pub fn lossy(loss: f64, duplicate: f64, corrupt: f64, jitter_us: u64) -> Self {
        Impairments {
            latency_us: 2_000,
            jitter_us,
            loss,
            duplicate,
            corrupt,
            bandwidth_bps: Some(10_000_000),
        }
        .validated()
    }

    /// Normalise the fault probabilities once, at construction time:
    /// NaN or negative rates are configuration bugs and panic; rates
    /// above 1.0 clamp to certainty. [`Segment::new`] runs every
    /// configuration through this, so the per-frame hot path can trust
    /// the values as-is.
    ///
    /// # Panics
    /// Panics if `loss`, `duplicate`, or `corrupt` is NaN or negative.
    pub fn validated(mut self) -> Self {
        for (name, p) in [
            ("loss", &mut self.loss),
            ("duplicate", &mut self.duplicate),
            ("corrupt", &mut self.corrupt),
        ] {
            assert!(
                !p.is_nan() && *p >= 0.0,
                "impairment probability `{name}` must be a non-negative number, got {p}"
            );
            if *p > 1.0 {
                *p = 1.0;
            }
        }
        self
    }
}

/// Segment delivery/fault counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Frames offered to the medium.
    pub transmitted: u64,
    /// Frames delivered (duplicates counted).
    pub delivered: u64,
    /// Frames dropped by injected loss.
    pub lost: u64,
    /// Extra deliveries from injected duplication.
    pub duplicated: u64,
    /// Frames with an injected byte flip.
    pub corrupted: u64,
    /// Bytes offered to the medium.
    pub bytes: u64,
}

/// The shared segment: an event queue of in-flight frames over virtual
/// time.
///
/// ```
/// use fbs_net::segment::{Segment, Impairments};
/// let mut seg = Segment::new(/*seed:*/ 1, Impairments::ideal());
/// seg.transmit(vec![0xAB; 64]);
/// let arrivals = seg.advance(/*dt_us:*/ 10);
/// assert_eq!(arrivals.len(), 1);
/// assert_eq!(arrivals[0].1.len(), 64);
/// ```
pub struct Segment {
    now_us: u64,
    /// Time the medium finishes serialising the current frame.
    medium_free_us: u64,
    /// (arrival time, tie-break sequence, frame bytes).
    in_flight: BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>,
    seq: u64,
    imp: Impairments,
    rng: StdRng,
    stats: SegmentStats,
}

impl Segment {
    /// Create a segment with the given impairments and RNG seed.
    ///
    /// # Panics
    /// Panics if any impairment probability is NaN or negative (see
    /// [`Impairments::validated`]).
    pub fn new(seed: u64, imp: Impairments) -> Self {
        let imp = imp.validated();
        Segment {
            now_us: 0,
            medium_free_us: 0,
            in_flight: BinaryHeap::new(),
            seq: 0,
            imp,
            rng: StdRng::seed_from_u64(seed),
            stats: SegmentStats::default(),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Statistics so far.
    pub fn stats(&self) -> SegmentStats {
        self.stats
    }

    /// Offer a frame to the medium at the current virtual time.
    pub fn transmit(&mut self, frame: Vec<u8>) {
        self.stats.transmitted += 1;
        self.stats.bytes += frame.len() as u64;

        // Serialisation: the shared medium sends one frame at a time.
        let start = self.now_us.max(self.medium_free_us);
        let ser_us = match self.imp.bandwidth_bps {
            Some(bps) => (frame.len() as u64 * 8 * 1_000_000) / bps,
            None => 0,
        };
        self.medium_free_us = start + ser_us;

        // Probabilities were validated at Segment::new; no per-frame
        // clamping needed here.
        if self.rng.gen_bool(self.imp.loss) {
            self.stats.lost += 1;
            return;
        }
        let mut frame = frame;
        if self.imp.corrupt > 0.0 && self.rng.gen_bool(self.imp.corrupt) {
            let i = self.rng.gen_range(0..frame.len());
            frame[i] ^= 1u8 << self.rng.gen_range(0..8);
            self.stats.corrupted += 1;
        }
        let jitter = if self.imp.jitter_us > 0 {
            self.rng.gen_range(0..=self.imp.jitter_us)
        } else {
            0
        };
        let arrival = self.medium_free_us + self.imp.latency_us + jitter;
        self.seq += 1;
        self.in_flight
            .push(Reverse((arrival, self.seq, frame.clone())));
        if self.imp.duplicate > 0.0 && self.rng.gen_bool(self.imp.duplicate) {
            let jitter2 = self.rng.gen_range(0..=self.imp.jitter_us.max(100));
            self.seq += 1;
            self.in_flight
                .push(Reverse((arrival + jitter2, self.seq, frame)));
            self.stats.duplicated += 1;
        }
    }

    /// Advance virtual time by `dt_us`, returning the frames that arrive,
    /// in arrival order.
    pub fn advance(&mut self, dt_us: u64) -> Vec<(u64, Vec<u8>)> {
        self.now_us += dt_us;
        let mut out = Vec::new();
        while let Some(Reverse((t, _, _))) = self.in_flight.peek() {
            if *t > self.now_us {
                break;
            }
            let Reverse((t, _, frame)) = self.in_flight.pop().unwrap();
            self.stats.delivered += 1;
            out.push((t, frame));
        }
        out
    }

    /// True when no frames are in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_on_clean_medium() {
        let mut s = Segment::new(1, Impairments::ideal());
        s.transmit(vec![1]);
        s.transmit(vec![2]);
        s.transmit(vec![3]);
        let got: Vec<u8> = s.advance(1).into_iter().map(|(_, f)| f[0]).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(s.idle());
    }

    #[test]
    fn latency_delays_delivery() {
        let imp = Impairments {
            latency_us: 1_000,
            bandwidth_bps: None,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(1, imp);
        s.transmit(vec![1]);
        assert!(s.advance(999).is_empty());
        assert_eq!(s.advance(1).len(), 1);
    }

    #[test]
    fn bandwidth_serialisation_spacing() {
        // 10 Mb/s: a 1250-byte frame takes 1000 µs on the wire; two frames
        // back-to-back arrive 1000 µs apart.
        let imp = Impairments {
            latency_us: 0,
            bandwidth_bps: Some(10_000_000),
            ..Impairments::ideal()
        };
        let mut s = Segment::new(1, imp);
        s.transmit(vec![0u8; 1250]);
        s.transmit(vec![0u8; 1250]);
        let arrivals = s.advance(10_000);
        assert_eq!(arrivals.len(), 2);
        assert_eq!(arrivals[0].0, 1_000);
        assert_eq!(arrivals[1].0, 2_000);
    }

    #[test]
    fn total_loss_drops_everything() {
        let imp = Impairments {
            loss: 1.0,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(1, imp);
        for _ in 0..10 {
            s.transmit(vec![0]);
        }
        assert!(s.advance(1_000_000).is_empty());
        assert_eq!(s.stats().lost, 10);
    }

    #[test]
    fn loss_rate_roughly_honoured() {
        let imp = Impairments {
            loss: 0.3,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(42, imp);
        for _ in 0..1000 {
            s.transmit(vec![0]);
        }
        let delivered = s.advance(1_000_000).len();
        assert!((600..800).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn duplication_duplicates() {
        let imp = Impairments {
            duplicate: 1.0,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(7, imp);
        s.transmit(vec![9]);
        let got = s.advance(1_000_000);
        assert_eq!(got.len(), 2);
        assert_eq!(s.stats().duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let imp = Impairments {
            corrupt: 1.0,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(7, imp);
        let original = vec![0u8; 100];
        s.transmit(original.clone());
        let (_, got) = s.advance(1).pop().unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn jitter_can_reorder() {
        let imp = Impairments {
            jitter_us: 10_000,
            ..Impairments::ideal()
        };
        let mut s = Segment::new(3, imp);
        for i in 0..20u8 {
            s.transmit(vec![i]);
        }
        let got: Vec<u8> = s
            .advance(1_000_000)
            .into_iter()
            .map(|(_, f)| f[0])
            .collect();
        assert_eq!(got.len(), 20);
        let mut sorted = got.clone();
        sorted.sort();
        assert_ne!(got, sorted, "jitter should reorder at least one pair");
    }

    #[test]
    fn validation_clamps_overrange_and_rejects_nan() {
        let imp = Impairments {
            loss: 1.5,
            duplicate: 2.0,
            corrupt: 7.0,
            ..Impairments::ideal()
        }
        .validated();
        assert_eq!(imp.loss, 1.0);
        assert_eq!(imp.duplicate, 1.0);
        assert_eq!(imp.corrupt, 1.0);

        let nan = std::panic::catch_unwind(|| {
            Impairments {
                loss: f64::NAN,
                ..Impairments::ideal()
            }
            .validated()
        });
        assert!(nan.is_err(), "NaN loss must be rejected");
        let negative = std::panic::catch_unwind(|| {
            Impairments {
                corrupt: -0.1,
                ..Impairments::ideal()
            }
            .validated()
        });
        assert!(negative.is_err(), "negative corrupt must be rejected");
    }

    #[test]
    fn segment_new_validates_configuration() {
        // Over-range rates survive as certainty: every frame is lost.
        let mut s = Segment::new(
            1,
            Impairments {
                loss: 3.0,
                ..Impairments::ideal()
            },
        );
        for _ in 0..5 {
            s.transmit(vec![0]);
        }
        assert!(s.advance(1_000_000).is_empty());
        assert_eq!(s.stats().lost, 5);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let imp = Impairments::lossy(0.2, 0.05, 0.05, 1_000);
        let run = |seed| {
            let mut s = Segment::new(seed, imp);
            for i in 0..50u8 {
                s.transmit(vec![i]);
            }
            s.advance(10_000_000)
                .into_iter()
                .map(|(t, f)| (t, f[0]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
