//! The trial protocol: set-up, one discarded warm-up trial, then the
//! measured throughput trials back to back, then the measured latency
//! trials. Every end-to-end metric is the median over the trials of
//! the per-trial value.

use crate::alloc;
use crate::driver::{Tally, World};
use crate::workload::Workload;
use std::time::{Duration, Instant};

/// How much work a run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-ups timed for `setup_s` (the last one's hosts are measured).
    pub setups: usize,
    /// Measured trials of each kind.
    pub trials: usize,
    /// Length of one throughput trial (a count is in bursts).
    pub throughput: Phase,
    /// Length of one latency trial (a count is in single datagrams).
    pub latency: Phase,
    /// Single datagrams of the traced run's untraced latency phase.
    pub tail_singles: usize,
    /// Single datagrams that end the warm-up trial.
    pub warm_singles: usize,
    /// Population size override (the smoke run shrinks populations).
    pub max_flows: usize,
    /// Warm-up length as a divisor of the workload's own (1 = full).
    pub warm_divisor: usize,
}

/// Length of a phase.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// Whole rounds (bursts or single datagrams) until this much time
    /// has passed.
    Time(Duration),
    /// A fixed number of rounds.
    Count(usize),
}

impl Phase {
    /// Call `round` until the phase is over; returns the wall time.
    fn run(self, mut round: impl FnMut()) -> Duration {
        let start = Instant::now();
        match self {
            Phase::Time(len) => {
                while start.elapsed() < len {
                    round();
                }
            }
            Phase::Count(n) => (0..n).for_each(|_| round()),
        }
        start.elapsed()
    }
}

/// Trials per run. Many short trials, not a few long ones: the host's
/// speed drifts by several percent over a second or so and stalls a
/// burst for milliseconds now and then, and the median over many
/// trials sheds both where a mean over few long ones keeps them.
pub const TRIALS: usize = 20;
/// Single datagrams of the traced run's untraced latency phase, from
/// which the report-only tail comes: 200 samples beyond p99, 20 beyond
/// p99.9.
pub const TAIL_SINGLES: usize = 20_000;
/// Set-ups per run.
pub const SETUPS: usize = 3;
/// Share of `--seconds` spent in throughput trials; the latency trials
/// take the rest.
const THROUGHPUT_SHARE: f64 = 0.8;

impl Plan {
    /// The plan for a run that measures for `seconds`.
    pub fn timed(seconds: f64) -> Plan {
        let slice =
            |share: f64| Phase::Time(Duration::from_secs_f64(seconds * share / TRIALS as f64));
        Plan {
            setups: SETUPS,
            trials: TRIALS,
            throughput: slice(THROUGHPUT_SHARE),
            latency: slice(1.0 - THROUGHPUT_SHARE),
            tail_singles: TAIL_SINGLES,
            warm_singles: 500,
            max_flows: usize::MAX,
            warm_divisor: 1,
        }
    }

    /// Tiny fixed counts: enough to run every check, not to measure.
    pub fn smoke() -> Plan {
        Plan {
            setups: 1,
            trials: 2,
            throughput: Phase::Count(3),
            latency: Phase::Count(200),
            tail_singles: 400,
            warm_singles: 20,
            max_flows: 4096,
            warm_divisor: 64,
        }
    }
}

/// Process CPU time, user + system over all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 10 ms ticks).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    Duration::from_millis((tick() + tick()) * 10)
}

/// `q`-quantile (0..=1) of an ascending slice, by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one throughput trial measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Throughput {
    /// Legitimate datagrams delivered intact per second of wall time.
    pub goodput: f64,
    /// Process CPU ns per datagram delivered.
    pub cpu_ns: f64,
    /// Heap allocations per datagram attempted.
    pub allocs: f64,
}

/// Run one throughput phase; returns its tally and wall time.
pub fn throughput_phase(world: &mut World, phase: Phase) -> (Tally, Duration) {
    let mut tally = Tally::default();
    let burst = world.wl.burst;
    let wall = phase.run(|| tally.add(world.burst(burst)));
    (tally, wall)
}

/// Run one latency phase of single datagrams, one at a time; returns
/// the latencies in µs, ascending.
pub fn latency_phase(world: &mut World, phase: Phase) -> Vec<f64> {
    let mut lat_us = Vec::new();
    phase.run(|| lat_us.push(world.single().as_nanos() as f64 / 1e3));
    lat_us.sort_by(f64::total_cmp);
    lat_us
}

/// One measured throughput trial.
pub fn throughput_trial(world: &mut World, phase: Phase) -> Throughput {
    let (cpu0, allocs0) = (cpu_time(), alloc::allocs());
    let (tally, wall) = throughput_phase(world, phase);
    let (cpu, allocs) = (cpu_time() - cpu0, alloc::allocs() - allocs0);
    Throughput {
        goodput: tally.delivered as f64 / wall.as_secs_f64(),
        cpu_ns: cpu.as_nanos() as f64 / tally.delivered.max(1) as f64,
        allocs: allocs as f64 / tally.attempted.max(1) as f64,
    }
}

/// Set a world up: build it and run the warm-up trial.
pub fn set_up(wl: &Workload, plan: &Plan, seed: u64) -> World {
    let flows = wl.flows.min(plan.max_flows);
    let mut world = World::build(wl, flows, seed);
    // A resident population is keyed in full: one pass at least.
    let full_pass = if wl.resident {
        flows.div_ceil(wl.burst)
    } else {
        0
    };
    let bursts = (wl.warm_bursts / plan.warm_divisor).max(full_pass).max(1);
    world.warm_up(bursts, plan.warm_singles);
    world
}
