//! The "flow simulation programs" of §7.3: replay a packet trace through
//! per-source-host FAMs (every machine on the LAN implements FBS) and
//! through key caches, producing the raw series behind Figs. 9-14.

use crate::record::PacketRecord;
use fbs_core::cache::CacheStats;
use fbs_core::{Fam, FlowRecord, SflAllocator, SoftCache};
use fbs_crypto::crc32;
use fbs_ip::{FiveTuple, FiveTuplePolicy};
use std::collections::HashMap;

/// Flow simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct FlowSimConfig {
    /// The §7.1 policy THRESHOLD in seconds.
    pub threshold_secs: u64,
    /// Per-host FST size.
    pub fst_size: usize,
    /// Sampling interval for the active-flow time series.
    pub sample_interval_secs: u64,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            threshold_secs: 600,
            // Large FST so figure statistics are not distorted by index
            // collisions (the paper reports almost none at FSTSIZE ≥ 32).
            fst_size: 4096,
            sample_interval_secs: 60,
        }
    }
}

/// Output of a flow simulation run.
#[derive(Clone, Debug)]
pub struct FlowSimResult {
    /// Every flow observed (completed or still open at trace end).
    pub flows: Vec<FlowRecord>,
    /// (time, simultaneously active flows summed over all source hosts).
    pub active_series: Vec<(u64, usize)>,
    /// Peak simultaneous active flows at any single host.
    pub per_host_max_active: usize,
    /// Datagrams classified.
    pub classifications: u64,
    /// Flows started.
    pub flows_started: u64,
    /// New flows whose 5-tuple had identified an earlier flow (Fig. 14).
    pub repeated_flows: u64,
    /// Flows prematurely terminated by FST index collisions.
    pub collisions: u64,
}

impl FlowSimResult {
    /// Fold the FAM-level counters into a snapshot under the `fam.*`
    /// names [`fbs_core::fam::FamStats::contribute`] uses, so
    /// trace-driven simulations export through the same `--metrics`
    /// pipeline as instrumented endpoints.
    pub fn contribute(&self, snap: &mut fbs_obs::MetricsSnapshot) {
        snap.add("fam.classifications", self.classifications);
        snap.add("fam.flows_started", self.flows_started);
        snap.add("fam.repeated_flows", self.repeated_flows);
        snap.add("fam.collisions", self.collisions);
    }
}

/// Run the Fig. 7 policy over `trace`, one FAM per source host.
pub fn simulate_flows(trace: &[PacketRecord], cfg: &FlowSimConfig) -> FlowSimResult {
    let mut fams: HashMap<[u8; 4], Fam<FiveTuple, FiveTuplePolicy>> = HashMap::new();
    let mut next_sfl_seed = 1u64;
    let mut active_series = Vec::new();
    let mut per_host_max = 0usize;
    let mut next_sample = 0u64;

    for r in trace {
        let now = r.t_secs();
        while now >= next_sample {
            let (total, host_max) = active_counts(&fams, next_sample);
            per_host_max = per_host_max.max(host_max);
            active_series.push((next_sample, total));
            next_sample += cfg.sample_interval_secs;
        }
        let fam = fams.entry(r.tuple.saddr).or_insert_with(|| {
            next_sfl_seed += 1 << 32;
            Fam::new(
                cfg.fst_size,
                FiveTuplePolicy::new(cfg.threshold_secs),
                SflAllocator::new(next_sfl_seed),
            )
            .with_repeat_tracking()
            .with_flow_records()
        });
        fam.classify(r.tuple, now, r.len as u64);
    }
    // Final sample.
    if let Some(last) = trace.last() {
        let (total, host_max) = active_counts(&fams, last.t_secs());
        per_host_max = per_host_max.max(host_max);
        active_series.push((last.t_secs(), total));
    }

    let mut flows = Vec::new();
    let mut classifications = 0;
    let mut flows_started = 0;
    let mut repeated = 0;
    let mut collisions = 0;
    for fam in fams.values_mut() {
        let s = fam.stats();
        classifications += s.classifications;
        flows_started += s.flows_started;
        repeated += s.repeated_flows;
        collisions += s.collisions;
        flows.extend(fam.drain_records());
    }
    FlowSimResult {
        flows,
        active_series,
        per_host_max_active: per_host_max,
        classifications,
        flows_started,
        repeated_flows: repeated,
        collisions,
    }
}

fn active_counts(
    fams: &HashMap<[u8; 4], Fam<FiveTuple, FiveTuplePolicy>>,
    now: u64,
) -> (usize, usize) {
    let mut total = 0;
    let mut host_max = 0;
    for fam in fams.values() {
        let a = fam.active_flows(now);
        total += a;
        host_max = host_max.max(a);
    }
    (total, host_max)
}

/// Index hash used by the key-cache simulation (the Fig. 11(b) ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheHash {
    /// CRC-32 over the key bytes — the §5.3 recommendation.
    Crc32,
    /// Low bits of the sfl (plain modulo — "fast but little randomness").
    Modulo,
    /// XOR-fold of the key bytes.
    Xor,
}

/// Key-cache simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheSimConfig {
    /// Flow policy THRESHOLD (controls how many flows exist).
    pub threshold_secs: u64,
    /// Total cache entries.
    pub cache_slots: usize,
    /// Associativity (slots = sets × assoc).
    pub assoc: usize,
    /// Index hash.
    pub hash: CacheHash,
}

/// TFKC cache key: (sfl, peer address), per §5.3 (the local address is
/// constant within one host's cache).
type CacheKey = (u64, [u8; 4]);

fn hash_key(hash: CacheHash, key: &CacheKey) -> u32 {
    match hash {
        CacheHash::Crc32 => {
            let mut bytes = key.0.to_be_bytes().to_vec();
            bytes.extend_from_slice(&key.1);
            crc32(&bytes)
        }
        CacheHash::Modulo => key.0 as u32,
        CacheHash::Xor => {
            let b = key.0.to_be_bytes();
            let mut x = u32::from_be_bytes([b[0], b[1], b[2], b[3]])
                ^ u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
            x ^= u32::from_be_bytes(key.1);
            x
        }
    }
}

/// Replay `trace` against per-host transmission flow key caches of the
/// given geometry, returning aggregate hit/miss statistics (with 3C miss
/// classification). One cache access per datagram, exactly as in the
/// FBSSend fast path.
pub fn simulate_cache(trace: &[PacketRecord], cfg: &CacheSimConfig) -> CacheStats {
    assert!(
        cfg.cache_slots.is_multiple_of(cfg.assoc),
        "slots must divide evenly into sets"
    );
    // Flow identity assignment: large-FST FAMs so sfl streams match the
    // flow structure rather than collision artifacts.
    let mut fams: HashMap<[u8; 4], Fam<FiveTuple, FiveTuplePolicy>> = HashMap::new();
    let mut caches: HashMap<[u8; 4], SoftCache<CacheKey, ()>> = HashMap::new();
    let mut seed = 1u64;

    for r in trace {
        let now = r.t_secs();
        let fam = fams.entry(r.tuple.saddr).or_insert_with(|| {
            seed += 1 << 32;
            Fam::new(
                8192,
                FiveTuplePolicy::new(cfg.threshold_secs),
                SflAllocator::new(seed),
            )
        });
        let class = fam.classify(r.tuple, now, r.len as u64);
        let hash = cfg.hash;
        let cache = caches.entry(r.tuple.saddr).or_insert_with(|| {
            SoftCache::new(
                cfg.cache_slots / cfg.assoc,
                cfg.assoc,
                move |k: &CacheKey| hash_key(hash, k),
            )
            .with_classification()
        });
        let key = (class.sfl, r.tuple.daddr);
        if cache.get(&key).is_none() {
            cache.insert(key, ());
        }
    }

    let mut total = CacheStats::default();
    for c in caches.values() {
        let s = c.stats();
        total.hits += s.hits;
        total.cold_misses += s.cold_misses;
        total.capacity_misses += s.capacity_misses;
        total.collision_misses += s.collision_misses;
        total.insertions += s.insertions;
        total.evictions += s.evictions;
    }
    total
}

/// A 5-tuple policy with a pluggable mapper hash, for the §5.3 ablation:
/// "simple hash functions, such as modulo and XOR'ing, are fast but ...
/// provide little randomness unless the input ... is already random. The
/// input for all our caches could be highly correlated, e.g., local
/// network addresses" — exactly the FST's situation, whose keys are
/// addresses and ports sharing prefixes and ranges.
pub struct HashedFiveTuplePolicy {
    /// Idle expiry threshold.
    pub threshold_secs: u64,
    /// The mapper's index hash.
    pub hash: CacheHash,
}

impl fbs_core::fam::FlowPolicy<FiveTuple> for HashedFiveTuplePolicy {
    fn index(&self, attrs: &FiveTuple, table_size: usize) -> usize {
        use fbs_core::policy::FlowAttrs;
        let bytes = attrs.canonical_bytes();
        let h = match self.hash {
            CacheHash::Crc32 => crc32(&bytes),
            // Naive additive fold (a "modulo" style hash): sums the raw
            // field bytes — correlated inputs cluster badly.
            CacheHash::Modulo => bytes.iter().map(|&b| b as u32).sum(),
            // XOR-fold of the canonical bytes into 32 bits.
            CacheHash::Xor => bytes.chunks(4).fold(0u32, |acc, c| {
                let mut w = [0u8; 4];
                w[..c.len()].copy_from_slice(c);
                acc ^ u32::from_be_bytes(w)
            }),
        };
        h as usize % table_size
    }

    fn same_flow(&self, a: &FiveTuple, b: &FiveTuple) -> bool {
        a == b
    }

    fn expired(&self, entry: &fbs_core::fam::FstEntry<FiveTuple>, now_secs: u64) -> bool {
        now_secs.saturating_sub(entry.last) > self.threshold_secs
    }
}

/// FST mapper-hash ablation result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FstAblation {
    /// Flows started.
    pub flows_started: u64,
    /// Flows prematurely terminated by index collisions (footnote 11).
    pub collisions: u64,
    /// Collision rate per classification.
    pub collision_rate: f64,
}

/// Replay `trace` through per-host FSTs of `fst_size` slots under the
/// given mapper hash, counting premature flow terminations.
pub fn simulate_fst_hash(
    trace: &[PacketRecord],
    fst_size: usize,
    hash: CacheHash,
    threshold_secs: u64,
) -> FstAblation {
    let mut fams: HashMap<[u8; 4], Fam<FiveTuple, HashedFiveTuplePolicy>> = HashMap::new();
    let mut seed = 1u64;
    for r in trace {
        let fam = fams.entry(r.tuple.saddr).or_insert_with(|| {
            seed += 1 << 32;
            Fam::new(
                fst_size,
                HashedFiveTuplePolicy {
                    threshold_secs,
                    hash,
                },
                SflAllocator::new(seed),
            )
        });
        fam.classify(r.tuple, r.t_secs(), r.len as u64);
    }
    let mut flows = 0;
    let mut collisions = 0;
    let mut classifications = 0;
    for fam in fams.values() {
        let s = fam.stats();
        flows += s.flows_started;
        collisions += s.collisions;
        classifications += s.classifications;
    }
    FstAblation {
        flows_started: flows,
        collisions,
        collision_rate: collisions as f64 / classifications.max(1) as f64,
    }
}

/// Convenience: flow-size distribution inputs for Fig. 9 — (packets,
/// bytes) per flow.
pub fn flow_sizes(result: &FlowSimResult) -> (Vec<u64>, Vec<u64>) {
    let mut pkts: Vec<u64> = result.flows.iter().map(|f| f.packets).collect();
    let mut bytes: Vec<u64> = result.flows.iter().map(|f| f.bytes).collect();
    pkts.sort_unstable();
    bytes.sort_unstable();
    (pkts, bytes)
}

/// Convenience: flow durations in seconds for Fig. 10.
pub fn flow_durations(result: &FlowSimResult) -> Vec<u64> {
    let mut d: Vec<u64> = result.flows.iter().map(|f| f.duration_secs()).collect();
    d.sort_unstable();
    d
}

/// Sanity helper used by experiments: fraction of total bytes carried by
/// the largest `top_fraction` of flows (the elephant share).
pub fn elephant_share(result: &FlowSimResult, top_fraction: f64) -> f64 {
    let mut bytes: Vec<u64> = result.flows.iter().map(|f| f.bytes).collect();
    if bytes.is_empty() {
        return 0.0;
    }
    bytes.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = bytes.iter().sum();
    let top_n = ((bytes.len() as f64 * top_fraction).ceil() as usize).max(1);
    let top: u64 = bytes[..top_n.min(bytes.len())].iter().sum();
    top as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{generate_campus_trace, CampusConfig};

    fn small_trace() -> Vec<PacketRecord> {
        generate_campus_trace(&CampusConfig {
            duration_secs: 1200,
            desktops: 10,
            ..CampusConfig::default()
        })
    }

    #[test]
    fn flows_partition_all_datagrams() {
        let trace = small_trace();
        let result = simulate_flows(&trace, &FlowSimConfig::default());
        assert_eq!(result.classifications, trace.len() as u64);
        let flow_pkts: u64 = result.flows.iter().map(|f| f.packets).sum();
        assert_eq!(flow_pkts, trace.len() as u64, "every packet in a flow");
        let flow_bytes: u64 = result.flows.iter().map(|f| f.bytes).sum();
        let trace_bytes: u64 = trace.iter().map(|r| r.len as u64).sum();
        assert_eq!(flow_bytes, trace_bytes);
    }

    #[test]
    fn majority_of_flows_are_short() {
        // Fig. 9's headline: most flows are small.
        let result = simulate_flows(&small_trace(), &FlowSimConfig::default());
        let (pkts, _) = flow_sizes(&result);
        let median = pkts[pkts.len() / 2];
        assert!(median <= 32, "median flow is small, got {median}");
        assert!(
            *pkts.last().unwrap() > 100,
            "but elephants exist: {:?}",
            pkts.last()
        );
    }

    #[test]
    fn few_flows_carry_bulk_of_traffic() {
        let result = simulate_flows(&small_trace(), &FlowSimConfig::default());
        let share = elephant_share(&result, 0.10);
        assert!(share > 0.5, "top 10% of flows carry {share:.2} of bytes");
    }

    #[test]
    fn smaller_threshold_means_more_flows() {
        // The Fig. 13/14 mechanism.
        let trace = small_trace();
        let f300 = simulate_flows(
            &trace,
            &FlowSimConfig {
                threshold_secs: 300,
                ..FlowSimConfig::default()
            },
        );
        let f1200 = simulate_flows(
            &trace,
            &FlowSimConfig {
                threshold_secs: 1200,
                ..FlowSimConfig::default()
            },
        );
        assert!(f300.flows_started >= f1200.flows_started);
        assert!(f300.repeated_flows >= f1200.repeated_flows);
    }

    #[test]
    fn active_series_is_sampled_and_modest() {
        let result = simulate_flows(&small_trace(), &FlowSimConfig::default());
        assert!(result.active_series.len() >= 10);
        let peak = result.active_series.iter().map(|(_, c)| *c).max().unwrap();
        assert!(peak > 0);
        // Fig. 12's point: counts a kernel can easily hold.
        assert!(result.per_host_max_active < 500);
    }

    #[test]
    fn cache_miss_rate_drops_with_size() {
        // Fig. 11's headline: sharp miss-rate drop-off with cache size.
        let trace = small_trace();
        let mut rates = Vec::new();
        let mut avoidable = Vec::new();
        for slots in [2usize, 8, 32, 128] {
            let stats = simulate_cache(
                &trace,
                &CacheSimConfig {
                    threshold_secs: 600,
                    cache_slots: slots,
                    assoc: 1,
                    hash: CacheHash::Crc32,
                },
            );
            rates.push(stats.miss_rate());
            // Cold misses are the floor; capacity+collision misses are
            // what cache size can eliminate.
            avoidable.push(
                (stats.capacity_misses + stats.collision_misses) as f64 / stats.lookups() as f64,
            );
        }
        assert!(
            rates.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "monotone non-increasing: {rates:?}"
        );
        assert!(
            avoidable[3] < avoidable[0] / 5.0,
            "sharp drop in avoidable misses: {avoidable:?}"
        );
    }

    #[test]
    fn associativity_reduces_collision_misses() {
        let trace = small_trace();
        let direct = simulate_cache(
            &trace,
            &CacheSimConfig {
                threshold_secs: 600,
                cache_slots: 16,
                assoc: 1,
                hash: CacheHash::Crc32,
            },
        );
        let four_way = simulate_cache(
            &trace,
            &CacheSimConfig {
                threshold_secs: 600,
                cache_slots: 16,
                assoc: 4,
                hash: CacheHash::Crc32,
            },
        );
        assert!(four_way.collision_misses <= direct.collision_misses);
    }

    #[test]
    fn cold_misses_equal_distinct_flows() {
        let trace = small_trace();
        let flows = simulate_flows(&trace, &FlowSimConfig::default());
        let cache = simulate_cache(
            &trace,
            &CacheSimConfig {
                threshold_secs: 600,
                cache_slots: 64,
                assoc: 1,
                hash: CacheHash::Crc32,
            },
        );
        // Every distinct flow incarnation produces exactly one cold miss.
        assert_eq!(cache.cold_misses, flows.flows_started);
    }

    #[test]
    fn fst_hash_ablation_reasonable_crc_few_collisions() {
        // Footnote 11: "almost no collision is observed with a reasonable
        // FSTSIZE, e.g., 32 or above" — under the CRC-32 mapper.
        let trace = small_trace();
        let crc = simulate_fst_hash(&trace, 64, CacheHash::Crc32, 600);
        assert!(
            crc.collision_rate < 0.02,
            "CRC-32 collision rate {:.4} should be tiny",
            crc.collision_rate
        );
        // The naive additive hash clusters correlated 5-tuples harder.
        let naive = simulate_fst_hash(&trace, 64, CacheHash::Modulo, 600);
        assert!(
            naive.collisions >= crc.collisions,
            "naive {} >= crc {}",
            naive.collisions,
            crc.collisions
        );
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        simulate_cache(
            &[],
            &CacheSimConfig {
                threshold_secs: 600,
                cache_slots: 10,
                assoc: 4,
                hash: CacheHash::Crc32,
            },
        );
    }
}
