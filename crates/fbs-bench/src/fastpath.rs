//! Fast-path throughput: the sharded IP mapping driven through the
//! fbs-ip worker runtime under NOP crypto (§7.3), so the rows measure
//! protocol processing — partition, flow-table hit, framing, buffer
//! recycling — with the cipher and MAC nullified. The cipher suites'
//! rates are measured end to end through two hosts by `repro fig08`.
//!
//! Emits the `BENCH_fastpath.json` report. Allocation counts come from a
//! counting `#[global_allocator]` that only the bench binaries install
//! (library crates forbid unsafe code); other callers pass a counter
//! that always returns 0 and the alloc columns read as 0.
//!
//! Single-CPU honesty: the report carries a `cpus` field. On a one-core
//! host the multi-worker mapping rows measure sharding/lock overhead,
//! not parallel speedup.

use fbs_core::{BufferPool, FbsConfig};
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::IpMappingConfig;
use fbs_ip::World;
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{HookOutcome, SecurityHooks};
use fbs_obs::{Direction, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Stage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Rate {
    /// Datagrams sealed per second.
    pub datagrams_per_sec: f64,
    /// Payload bytes sealed per second.
    pub bytes_per_sec: f64,
    /// Heap allocations per datagram (0 when no counting allocator).
    pub allocs_per_datagram: f64,
}

/// A sharded-IP-mapping measurement: N threads driving output batches
/// through cloned handles of ONE shared `FbsIpHooks`, per-thread pools.
#[derive(Clone, Debug)]
pub struct MappingRate {
    /// Concurrent threads sharing the mapping.
    pub threads: usize,
    /// Shard count the mapping was built with (1 = the pre-shard
    /// single-table shape, the sharding-overhead baseline).
    pub shards: usize,
    /// Shard owners (locks) the runtime was built with.
    pub workers: usize,
    /// Every thread's pool take/put ledger balanced: no buffer leaked on
    /// any path the run exercised.
    pub pool_balanced: bool,
    /// The measured rate with a registry attached, the observed rate
    /// (wire buffers recycled back to the pools).
    pub rate: Rate,
    /// The same point with no registry (`obs` `None`), in reps
    /// alternating with the observed ones.
    pub bare: Rate,
    /// Per-stage latency histograms (name, snapshot) accumulated over
    /// every rep of this row: partition, seal, key derivation,
    /// dispatch. Nanosecond log2 buckets.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-owner occupancy rows (sub-batches and busy-ns)
    /// accumulated over every rep of this row.
    pub occupancy: Vec<OwnerRow>,
}

impl MappingRate {
    /// The share of the bare rate the registry costs:
    /// `1 − observed / bare`.
    pub fn obs_overhead_share(&self) -> f64 {
        1.0 - self.rate.datagrams_per_sec / self.bare.datagrams_per_sec
    }
}

/// One shard owner's load over a mapping row, read off the hooks'
/// `hooks.worker.<w>.*` snapshot rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnerRow {
    /// Owner index.
    pub worker: usize,
    /// Sub-batches the owner finished.
    pub batches: u64,
    /// Nanoseconds the owner spent on them.
    pub busy_ns: u64,
}

/// The rows of `snap`'s owners `0..owners` that finished work.
fn owner_rows(snap: &MetricsSnapshot, owners: usize) -> Vec<OwnerRow> {
    (0..owners)
        .map(|w| {
            let field = |f: &str| snap.counter(&format!("hooks.worker.{w}.{f}"));
            OwnerRow {
                worker: w,
                batches: field("batches"),
                busy_ns: field("busy_ns"),
            }
        })
        .filter(|r| r.batches > 0)
        .collect()
}

/// The full `BENCH_fastpath.json` payload.
#[derive(Clone, Debug)]
pub struct FastpathReport {
    /// Payload size per datagram (bytes).
    pub payload_bytes: usize,
    /// Datagrams per measured configuration.
    pub count: usize,
    /// Host parallelism (1 ⇒ multi-worker mapping rows measure overhead,
    /// not speedup).
    pub cpus: usize,
    /// Sharded-mapping grid: (threads, shards, workers) points against
    /// one shared `FbsIpHooks`, including the 1-thread
    /// `shards = workers = 1` baseline row.
    pub mapping: Vec<MappingRate>,
    /// Single-thread sharded mapping (8 shards, 1 worker) over the
    /// `shards = workers = 1` baseline: the cost of partitioning +
    /// sharding itself at fixed worker count, which must stay near 1.0.
    /// The median of the per-round ratios of the two rows' observed
    /// reps, each pair run in one round.
    pub mapping_sharded_vs_unsharded_1t: f64,
    /// Merged metrics snapshot across every mapping row's registry —
    /// the `--prom` exposition source.
    pub obs: MetricsSnapshot,
}

fn json_rate(r: &Rate) -> String {
    format!(
        "{{\"datagrams_per_sec\": {:.1}, \"bytes_per_sec\": {:.1}, \"allocs_per_datagram\": {:.2}}}",
        r.datagrams_per_sec, r.bytes_per_sec, r.allocs_per_datagram
    )
}

fn json_hist(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|(lo, hi, c)| format!("[{lo}, {hi}, {c}]"))
        .collect();
    format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}",
        h.count(),
        h.sum,
        buckets.join(", ")
    )
}

impl FastpathReport {
    /// Render as the `BENCH_fastpath.json` document.
    pub fn to_json(&self) -> String {
        let mapping_rows: Vec<String> = self
            .mapping
            .iter()
            .map(|m| {
                let stages: Vec<String> = m
                    .stages
                    .iter()
                    .map(|(name, h)| format!("\"{}_ns\": {}", name, json_hist(h)))
                    .collect();
                let occupancy: Vec<String> = m
                    .occupancy
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"worker\": {}, \"batches\": {}, \"busy_ns\": {}}}",
                            r.worker, r.batches, r.busy_ns
                        )
                    })
                    .collect();
                format!(
                    "    {{\"threads\": {}, \"shards\": {}, \"workers\": {}, \
                     \"pool_balanced\": {}, \
                     \"datagrams_per_sec\": {:.1}, \"bytes_per_sec\": {:.1}, \
                     \"allocs_per_datagram\": {:.2}, \"bare\": {}, \
                     \"obs_overhead_share\": {:.3}, \"stages\": {{{}}}, \
                     \"occupancy\": [{}]}}",
                    m.threads,
                    m.shards,
                    m.workers,
                    m.pool_balanced,
                    m.rate.datagrams_per_sec,
                    m.rate.bytes_per_sec,
                    m.rate.allocs_per_datagram,
                    json_rate(&m.bare),
                    m.obs_overhead_share(),
                    stages.join(", "),
                    occupancy.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"fastpath\",\n  \"payload_bytes\": {},\n  \"count\": {},\n  \
             \"cpus\": {},\n  \"mode\": \"nop\",\n  \
             \"mapping\": [\n{}\n  ],\n  \
             \"mapping_sharded_vs_unsharded_1t\": {:.3}\n}}\n",
            self.payload_bytes,
            self.count,
            self.cpus,
            mapping_rows.join(",\n"),
            self.mapping_sharded_vs_unsharded_1t
        )
    }
}

fn rate(count: usize, payload: usize, secs: f64, allocs: u64) -> Rate {
    Rate {
        datagrams_per_sec: count as f64 / secs,
        bytes_per_sec: (count * payload) as f64 / secs,
        allocs_per_datagram: allocs as f64 / count as f64,
    }
}

/// Batch size for [`measure_mapping`]: large enough that the per-batch
/// vectors (the caller's batch and the hook's returned outcomes — the
/// partition scratch itself is reused across calls) amortise to ~0
/// allocations per datagram.
const MAPPING_BATCH: usize = 1024;

/// Flows per mapping thread (disjoint source ports per thread). Many
/// more flows than shards, so each shard's sub-batch still interleaves
/// several flows — consecutive same-flow datagrams would serialise on
/// one table entry and understate per-shard throughput.
const MAPPING_FLOWS: usize = 64;

/// The sharded endpoint under concurrent submitters: `threads` cloned
/// handles of ONE `FbsIpHooks` (built with `shards` shards under
/// `workers` shard owners, each batch run to completion on its
/// submitter's thread) each drive output batches of UDP datagrams over
/// disjoint flows, wire buffers recycled through a per-thread
/// [`BufferPool`]. Returns the aggregate rate and whether every
/// thread's pool take/put ledger balanced (the leak gate). With `obs`,
/// the run is instrumented: a registry is attached before the first
/// batch, and its snapshot, read while the hooks still live, is folded
/// into `obs`.
pub fn measure_mapping(
    payload: usize,
    count: usize,
    threads: usize,
    shards: usize,
    workers: usize,
    obs: Option<&mut MetricsSnapshot>,
    alloc: &dyn Fn() -> u64,
) -> (Rate, bool) {
    let world = World::new(11, DhGroup::test_group());
    let a: [u8; 4] = [10, 11, 0, 1];
    let b: [u8; 4] = [10, 11, 0, 2];
    let cfg = IpMappingConfig {
        encrypt: true,
        shards,
        workers,
        // Generous FST so the bench's flows never collide in a slot: the
        // rows measure the steady-state hot path (hit + seal), not
        // eviction ping-pong between same-slot flows.
        fst_size: 4096,
        fbs: FbsConfig {
            nop_crypto: true,
            ..FbsConfig::default()
        },
        ..IpMappingConfig::default()
    };
    let hooks = world.hooks(a, cfg.clone());
    // Building B publishes its certificate, so A's sends can key.
    let _hooks_b = world.hooks(b, cfg);
    // Attach the registry before any warm batch runs, so stage timers
    // and the owner rows cover the entire measured window.
    let registry = obs.is_some().then(|| Arc::new(MetricsRegistry::new()));
    if let Some(reg) = &registry {
        hooks
            .attach_obs(Arc::clone(reg))
            .expect("worker runtime alive");
    }
    // Each thread drives the full `count`: dividing it N ways would
    // shrink multi-thread reps to a few milliseconds of measurement,
    // which on a shared single-CPU host is pure scheduler noise. The
    // aggregate rate below accounts for `per * threads` datagrams.
    let per = count.max(1);
    let batch = MAPPING_BATCH.min(per);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let balanced = Arc::new(AtomicBool::new(true));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut hooks = hooks.clone();
            let barrier = Arc::clone(&barrier);
            let balanced = Arc::clone(&balanced);
            thread::spawn(move || {
                // Pool sized so a full batch's payloads plus their sealed
                // wires all cycle through the freelist.
                let mut pool = BufferPool::with_limits(2 * batch + 4, payload + 128);
                let run_batch = |hooks: &mut fbs_ip::hooks::FbsIpHooks,
                                 pool: &mut BufferPool,
                                 n: usize| {
                    let mut dgs = Vec::with_capacity(n);
                    for i in 0..n {
                        let sport = 6000 + (t * MAPPING_FLOWS + i % MAPPING_FLOWS) as u16;
                        let mut p = pool.take();
                        p.extend_from_slice(&sport.to_be_bytes());
                        p.extend_from_slice(&53u16.to_be_bytes());
                        p.resize(payload.max(4), 0xA5);
                        let header = Ipv4Header::new(a, b, Proto::Udp, p.len());
                        dgs.push(fbs_net::Datagram { header, payload: p });
                    }
                    for (_, outcome) in hooks.process_batch(Direction::Output, dgs, pool, 1_000) {
                        match outcome {
                            HookOutcome::Pass(wire) => pool.put(wire),
                            other => panic!("mapping seal failed: {other:?}"),
                        }
                    }
                };
                // Warm: flow keys derived, pool buffers grown to size.
                run_batch(&mut hooks, &mut pool, batch);
                run_batch(&mut hooks, &mut pool, batch);
                barrier.wait();
                let start = Instant::now();
                let mut done = 0usize;
                while done < per {
                    let n = batch.min(per - done);
                    run_batch(&mut hooks, &mut pool, n);
                    done += n;
                }
                let end = Instant::now();
                let s = pool.stats();
                if s.hits + s.misses != s.returns + s.discards {
                    balanced.store(false, Ordering::Relaxed);
                }
                (start, end)
            })
        })
        .collect();
    barrier.wait();
    let a0 = alloc();
    // Each submitter times itself: a clock started here, after the
    // barrier, can start after a submitter has already finished. The
    // run spans the first start to the last end.
    let spans: Vec<(Instant, Instant)> = handles
        .into_iter()
        .map(|h| h.join().expect("mapping thread panicked"))
        .collect();
    let allocs = alloc() - a0;
    if let (Some(acc), Some(reg)) = (obs, registry) {
        acc.merge(&reg.snapshot());
    }
    let first = spans.iter().map(|s| s.0).min().expect("threads > 0");
    let last = spans.iter().map(|s| s.1).max().expect("threads > 0");
    let secs = (last - first).as_secs_f64();
    (
        rate(per * threads, payload, secs, allocs),
        balanced.load(Ordering::Relaxed),
    )
}

/// Repetitions per mapping row (see the mapping grid below).
const MAPPING_REPS: usize = 7;

/// The rep with the median rate (the upper one of an even count).
fn median_of(mut reps: Vec<Rate>) -> Rate {
    reps.sort_by(|a, b| a.datagrams_per_sec.total_cmp(&b.datagrams_per_sec));
    reps[reps.len() / 2]
}

/// Run the full grid and assemble the report.
pub fn run(payload: usize, count: usize, alloc: &dyn Fn() -> u64) -> FastpathReport {
    // Mapping grid: the shards=workers=1 single-thread row is the
    // unsharded baseline; the 1-thread 8-shard 1-worker row isolates
    // partitioning cost at fixed worker count (the sharding-cost
    // headline); the rest scale submitters and workers together.
    //
    // Each row reports the MEDIAN of its reps, which alternate across
    // the rows: a best-of keeps whichever rep hit a lucky scheduling
    // window, and back-to-back reps share the host's phase. A leak in
    // ANY rep poisons the row's flag. Each rep's registry snapshot folds
    // into one per row, so its stage histograms and owner rows describe
    // that grid point with enough samples to show a distribution. A
    // round runs every row's observed rep, back to back, then every
    // row's bare rep (no registry): the observed (1, 1, 1) and (1, 8, 1)
    // reps whose ratio is the sharding cost run next to each other, and
    // each row's two rates come from the same round.
    let mut rows = [(1usize, 1usize, 1usize), (1, 8, 1), (2, 8, 2), (4, 8, 4)]
        .map(|point| (point, MetricsSnapshot::new(), Vec::new(), Vec::new(), true));
    for _ in 0..MAPPING_REPS {
        for observed in [true, false] {
            for ((threads, shards, workers), snap, reps, bare, balanced) in rows.iter_mut() {
                let obs = observed.then_some(&mut *snap);
                let (rate, ok) =
                    measure_mapping(payload, count, *threads, *shards, *workers, obs, alloc);
                *balanced &= ok;
                if observed { reps } else { bare }.push(rate);
            }
        }
    }
    // The sharding cost, round by round (`rows[1]` is (1, 8, 1),
    // `rows[0]` the (1, 1, 1) baseline): a round's two single-thread reps
    // share the host's phase, which the two rows' medians, each possibly
    // from another round, do not.
    let mut ratios: Vec<f64> = rows[1]
        .2
        .iter()
        .zip(&rows[0].2)
        .map(|(sharded, unsharded)| sharded.datagrams_per_sec / unsharded.datagrams_per_sec)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mut obs = MetricsSnapshot::new();
    let mapping: Vec<MappingRate> = rows
        .into_iter()
        .map(|((threads, shards, workers), snap, reps, bare, balanced)| {
            let stages: Vec<(&'static str, HistogramSnapshot)> = Stage::ALL
                .iter()
                .filter_map(|s| {
                    let h = snap.histograms.get(&format!("stage.{}_ns", s.name()))?;
                    Some((s.name(), h.clone()))
                })
                .collect();
            let occupancy = owner_rows(&snap, workers);
            obs.merge(&snap);
            MappingRate {
                threads,
                shards,
                workers,
                pool_balanced: balanced,
                rate: median_of(reps),
                bare: median_of(bare),
                stages,
                occupancy,
            }
        })
        .collect();
    FastpathReport {
        payload_bytes: payload,
        count,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        mapping_sharded_vs_unsharded_1t: ratios[MAPPING_REPS / 2],
        mapping,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let r = run(256, 40, &|| 0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"fastpath\""));
        assert!(!json.contains("legacy") && !json.contains("inline"));
        assert_eq!(r.mapping.len(), 4);
        assert!(json.contains("\"mapping\""));
        assert!(json.contains("\"mapping_sharded_vs_unsharded_1t\""));
        for m in &r.mapping {
            assert!(m.rate.datagrams_per_sec > 0.0);
            assert!(m.bare.datagrams_per_sec > 0.0);
            assert!(m.obs_overhead_share() < 1.0);
            assert!(m.pool_balanced, "mapping row leaked buffers: {m:?}");
            // Every row ran with a registry attached: the hot stages
            // must have recorded spans and every owner that drained a
            // sub-batch must show up in the occupancy table.
            let stage_names: Vec<&str> = m.stages.iter().map(|(n, _)| *n).collect();
            for want in ["partition", "seal"] {
                assert!(stage_names.contains(&want), "row missing stage {want}");
            }
            // Verdicts are written in place: nothing is re-threaded.
            assert!(!stage_names.contains(&"dispatch"));
            assert!(!m.occupancy.is_empty(), "row has no occupancy rows");
            assert!(m.occupancy.iter().all(|o| o.batches > 0));
            assert!(
                m.occupancy.iter().all(|o| o.worker < m.workers),
                "occupancy row outside worker range: {:?}",
                m.occupancy
            );
        }
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"occupancy\""));
        assert!(json.contains("\"bare\"") && json.contains("\"obs_overhead_share\""));
        // No row crosses a ring (there is none): no ring stage, no
        // stall column.
        assert!(!json.contains("ring_") && !json.contains("stall"));
        // The merged snapshot feeds --prom: it must carry the stage
        // histograms and per-worker counters the rows were built from.
        assert!(r.obs.histograms.contains_key("stage.seal_ns"));
        assert!(r.obs.counter("hooks.worker.0.batches") > 0);
        assert_eq!(
            r.mapping
                .iter()
                .map(|m| (m.threads, m.shards, m.workers))
                .collect::<Vec<_>>(),
            vec![(1, 1, 1), (1, 8, 1), (2, 8, 2), (4, 8, 4)]
        );
        // Balanced braces/brackets — cheap well-formedness check without
        // a JSON parser in the dependency set.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }
}
