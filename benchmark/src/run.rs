//! The two kinds of run — end-to-end (tracing off) and traced — and the
//! correctness checks both end with.

use crate::alloc;
use crate::driver::{Tally, World};
use crate::measure::{
    latency_phase, median, quantile, set_up, throughput_phase, throughput_trial, Phase, Plan,
    Throughput,
};
use crate::replay;
use crate::report::{Measured, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::workload::Workload;
use fbs_core::{CacheStats, PoolStats};
use fbs_ip::combined::CombinedStats;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a run produced.
pub struct Outcome {
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
    /// Everything every world of the run carried.
    pub tally: Tally,
    /// Named checks and whether each held.
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    /// No datagram failed and every check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn imbalance(s: PoolStats, foreign: u64) -> u64 {
    (s.hits + s.misses + foreign).abs_diff(s.returns + s.discards)
}

/// Checks on a world that has finished carrying traffic: ledgers
/// closed, nothing shed, keys exchanged once, rejects exactly the
/// forged frames.
fn final_checks(world: &World, checks: &mut Vec<(String, bool)>) {
    let drained = world.hooks_a.drain().is_ok() && world.hooks_b.drain().is_ok();
    checks.push(("worker rings drain".into(), drained));
    // Every segment handed to `ip_output` is a buffer the sender's pool
    // did not issue but does get back; beyond those, takes equal puts.
    let sent = world.total.attempted;
    checks.push((
        "pool.ledger_imbalance == 0 on the sender".into(),
        imbalance(world.a.pool_stats(), sent) == 0,
    ));
    checks.push((
        "pool.ledger_imbalance == 0 on the receiver".into(),
        imbalance(world.b.pool_stats(), 0) == 0,
    ));
    let shed = world.hooks_a.shed_counts().0 + world.hooks_b.shed_counts().0;
    checks.push(("hooks.shed_rejected == 0".into(), shed == 0));
    let upcalls = (
        world.hooks_a.mkd_stats().upcalls,
        world.hooks_b.mkd_stats().upcalls,
    );
    checks.push(("mkd.upcalls == 1 per host".into(), upcalls == (1, 1)));
    let (sa, sb) = (world.a.stats(), world.b.stats());
    checks.push((
        "input rejects == forged frames".into(),
        sb.hook_input_rejects == world.total.forged,
    ));
    checks.push((
        "no output rejects, no header drops".into(),
        sa.hook_output_rejects == 0 && sa.header_drops + sb.header_drops == 0,
    ));
    checks.push((
        "delivered + forged == attempted".into(),
        world.total.delivered + world.total.forged == world.total.attempted,
    ));
}

/// An end-to-end run: `plan.setups` timed set-ups, then `plan.trials`
/// measured trials of each kind on the last world, tracing off
/// throughout.
pub fn end_to_end(wl: &Workload, plan: &Plan, seed: u64, break_check: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..plan.setups {
        // Tearing the previous world down is not part of setting one up.
        if let Some(old) = world.take() {
            tally.add(old.total);
        }
        let start = Instant::now();
        world = Some(set_up(wl, plan, seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    world.forge_without_damage = break_check;

    // All throughput trials, then all latency trials: every switch
    // between bursts and single datagrams costs the first few
    // datagrams after it their warmth (workers parked, caches cold).
    let trials: Vec<Throughput> = (0..plan.trials)
        .map(|_| throughput_trial(&mut world, plan.throughput))
        .collect();
    let p50_us: Vec<f64> = (0..plan.trials)
        .map(|_| quantile(&latency_phase(&mut world, plan.latency), 0.5))
        .collect();
    let heap_kib = alloc::live_bytes() as f64 / 1024.0;

    let mut checks = Vec::new();
    final_checks(&world, &mut checks);
    tally.add(world.total);

    let column = |f: fn(&Throughput) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let values = match m.name {
                "goodput_dgrams_per_s" => column(|t| t.goodput),
                "dgram_latency_p50_us" => p50_us.clone(),
                "cpu_ns_per_dgram" => column(|t| t.cpu_ns),
                "allocs_per_dgram" => column(|t| t.allocs),
                "heap_live_kbytes" => vec![heap_kib],
                "setup_s" => setups.clone(),
                other => unreachable!("end-to-end metric `{other}` has no source"),
            };
            if m.name == "dgram_latency_p50_us" {
                // Latency trials fall into two modes (the producer's
                // 32-yields-then-park wait either catches the reply or
                // parks), and the median over trials jumps between
                // them as their shares cross one half; the mean moves
                // smoothly with the shares.
                Measured::from_trials_mean(m.name, m.unit, values)
            } else {
                Measured::from_trials(m.name, m.unit, values)
            }
        })
        .collect();
    Outcome {
        metrics,
        tally,
        checks,
    }
}

/// Counters read before and after the traced phases, so ratios cover
/// steady state and not the warm-up's cold misses.
struct Counters {
    rfkc: CacheStats,
    combined: CombinedStats,
    pool_a: PoolStats,
    pool_b: PoolStats,
    frames: u64,
    rejects: u64,
    tally: Tally,
}

impl Counters {
    fn read(world: &World) -> Counters {
        Counters {
            rfkc: world.hooks_b.rfkc_stats(),
            combined: world.hooks_a.combined_stats().unwrap_or_default(),
            pool_a: world.a.pool_stats(),
            pool_b: world.b.pool_stats(),
            frames: world.a.stats().frames_sent,
            rejects: world.b.stats().hook_input_rejects,
            tally: world.total,
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Median duration in µs of the spans called `name`.
fn median_span_us(rec: &Recorder, from: usize, name: &str) -> f64 {
    let mut us: Vec<f64> = rec
        .spans_from(from)
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    us.sort_by(f64::total_cmp);
    if us.is_empty() {
        f64::NAN
    } else {
        quantile(&us, 0.5)
    }
}

/// Singles recorded with tracing on, for the burst-1 hook spans.
const TRACED_SINGLES: usize = 2_000;

/// Untraced/traced slice pairs per traced run. The host's speed drifts
/// by several percent over seconds, so tracing overhead is taken from
/// slices that alternate, not from two long phases.
const ROUNDS: u32 = 3;

/// A traced run: one set-up and an untraced latency phase (for the
/// report-only latency tail), then throughput slices alternately
/// untraced (the yardstick for tracing overhead) and with spans
/// recorded, traced singles, and the replays. Returns the outcome and
/// the recorded spans as JSON.
pub fn traced(wl: &Workload, plan: &Plan, seed: u64) -> (Outcome, String) {
    let mut world = set_up(wl, plan, seed);
    let slice = match plan.throughput {
        // All slices together get three quarters of what an end-to-end
        // run's trials get; the replays take about a second more.
        Phase::Time(len) => Phase::Time(len * plan.trials as u32 * 3 / 8 / ROUNDS),
        count => count,
    };
    let before = Counters::read(&world);
    let lat_us = latency_phase(&mut world, Phase::Count(plan.tail_singles));

    let recorder = Arc::new(Mutex::new(Recorder::new()));
    let rate = |(t, wall): (Tally, Duration)| t.delivered as f64 / wall.as_secs_f64();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        world.set_tracing(None);
        plain.push(rate(throughput_phase(&mut world, slice)));
        world.set_tracing(Some(Arc::clone(&recorder)));
        traced.push(rate(throughput_phase(&mut world, slice)));
    }
    let (layers, closure, datagrams, mark) = {
        let rec = recorder.lock().expect("recorder lock");
        (rec.layers(), rec.closure(), rec.datagrams, rec.len())
    };
    for _ in 0..TRACED_SINGLES.min(plan.tail_singles) {
        world.single();
    }
    let after = Counters::read(&world);
    let replays = replay::run(&world);

    let per_dgram = |ns: u64| ns as f64 / datagrams.max(1) as f64;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let (enc, rcv) = (layer("udp.encode"), layer("udp.recv"));
    let (tx, rx) = (layer("stack.tx"), layer("stack.rx"));
    let (hout, hin) = (layer("hooks.out"), layer("hooks.in"));
    let carried = after.tally.attempted - before.tally.attempted;
    let pool = |a: PoolStats, b: PoolStats| (a.hits - b.hits, a.misses - b.misses);
    let (hits_a, misses_a) = pool(after.pool_a, before.pool_a);
    let (hits_b, misses_b) = pool(after.pool_b, before.pool_b);
    let budgets =
        |h: &fbs_ip::FbsIpHooks| -> u64 { h.shard_budgets().iter().map(|b| b.used_bytes()).sum() };
    let rec = recorder.lock().expect("recorder lock");

    let metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "udp.encode_ns_per_dgram" => per_dgram(enc.self_ns),
                "udp.recv_ns_per_dgram" => per_dgram(rcv.self_ns),
                "udp.allocs_per_dgram" => per_dgram(enc.self_allocs + rcv.self_allocs),
                "stack.tx_self_ns_per_dgram" => per_dgram(tx.self_ns),
                "stack.tx_allocs_per_dgram" => per_dgram(tx.self_allocs),
                "stack.rx_self_ns_per_dgram" => per_dgram(rx.self_ns),
                "stack.rx_allocs_per_dgram" => per_dgram(rx.self_allocs),
                "link.ns_per_dgram" => per_dgram(layer("link").self_ns),
                "hooks.out_ns_per_dgram" => per_dgram(hout.total_ns),
                "hooks.in_ns_per_dgram" => per_dgram(hin.total_ns),
                "hooks.out_allocs_per_dgram" => per_dgram(hout.self_allocs),
                "hooks.in_allocs_per_dgram" => per_dgram(hin.self_allocs),
                "hooks.out_single_us" => median_span_us(&rec, mark, "hooks.out"),
                "hooks.in_single_us" => median_span_us(&rec, mark, "hooks.in"),
                "core.seal_ns_per_dgram" => replays.seal_ns,
                "core.open_ns_per_dgram" => replays.open_ns,
                "hooks.out_overhead_ns_per_dgram" => per_dgram(hout.total_ns) - replays.seal_ns,
                "hooks.in_overhead_ns_per_dgram" => per_dgram(hin.total_ns) - replays.open_ns,
                "crypto.cipher_ns_per_byte" => replays.cipher_ns_per_byte,
                "crypto.mac_ns_per_byte" => replays.mac_ns_per_byte,
                "cache.hit_ns" => replays.cache_hit_ns,
                "cache.insert_evict_ns" => replays.cache_insert_ns,
                "combined.probe_ns" => replays.combined_probe_ns,
                "keying.derive_ns" => replays.derive_ns,
                "frag.fragment_ns_per_dgram" => replays.fragment_ns,
                "frag.reassemble_ns_per_dgram" => replays.reassemble_ns,
                "ip.encode_ns_per_frame" => replays.ip_encode_ns,
                "ip.decode_ns_per_frame" => replays.ip_decode_ns,
                "ring.push_pop_ns" => replays.ring_push_pop_ns,
                "ring.handoff_us" => replays.ring_handoff_us,
                "pool.take_put_ns" => replays.pool_take_put_ns,
                "pool.hit_ratio" => ratio(hits_a + hits_b, hits_a + hits_b + misses_a + misses_b),
                "pool.ledger_imbalance" => {
                    (imbalance(after.pool_a, after.tally.attempted) + imbalance(after.pool_b, 0))
                        as f64
                }
                "batchauth.resolve_ns_per_dgram" => replays.batchauth_ns,
                "hooks.input_rejects_share" => ratio(after.rejects - before.rejects, carried),
                "mkd.master_key_ms" => replays.master_key_ms,
                "mkd.upcalls" => {
                    (world.hooks_a.mkd_stats().upcalls + world.hooks_b.mkd_stats().upcalls) as f64
                }
                "cache.rfkc_miss_ratio" => ratio(
                    after.rfkc.misses() - before.rfkc.misses(),
                    after.rfkc.lookups() - before.rfkc.lookups(),
                ),
                "combined.hit_ratio" => {
                    let hits = after.combined.hits - before.combined.hits;
                    let births = after.combined.new_flows - before.combined.new_flows;
                    ratio(hits, hits + births)
                }
                "hooks.ring_stalls" => {
                    (world.hooks_a.ring_stalls() + world.hooks_b.ring_stalls()) as f64
                }
                "hooks.shed_rejected" => {
                    (world.hooks_a.shed_counts().0 + world.hooks_b.shed_counts().0) as f64
                }
                "stack.frames_per_dgram" => ratio(after.frames - before.frames, carried),
                "stack.header_drops" => {
                    (world.a.stats().header_drops + world.b.stats().header_drops) as f64
                }
                "mem.hooks_resident_bytes_per_flow" => ratio(
                    budgets(&world.hooks_a) + budgets(&world.hooks_b),
                    world.flows.len() as u64,
                ),
                "dgram_latency_p99_us" => quantile(&lat_us, 0.99),
                "dgram_latency_p999_us" => quantile(&lat_us, 0.999),
                "failed_share" => ratio(world.total.failed, world.total.attempted),
                "trace.closure" => closure,
                "trace.overhead_share" => 1.0 - median(&traced) / median(&plain),
                other => unreachable!("per-layer metric `{other}` has no source"),
            };
            Measured::from_trials(name, unit, vec![value])
        })
        .collect();

    let mut checks = vec![(
        format!("trace.closure within 0.02 of 1 (is {closure:.4})"),
        (closure - 1.0).abs() <= 0.02,
    )];
    final_checks(&world, &mut checks);
    let outcome = Outcome {
        metrics,
        tally: world.total,
        checks,
    };
    (outcome, rec.to_json())
}
