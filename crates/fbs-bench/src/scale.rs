//! Million-flow soft-state scale curves (`scale_bench` → `BENCH_scale.json`).
//!
//! Streams the [`fbs_trace::ScaleTrace`] server workload through a
//! [`SoftCache`] keyed by the §5.3 CRC-32 of the canonical 5-tuple and
//! measures, as the table grows toward million-flow residency:
//!
//! * resident flows vs miss ratio vs datagrams/s (the scale curve),
//! * bytes per resident flow (table footprint ÷ live entries),
//! * probe-length histograms (open-addressing health as load rises),
//! * eviction-storm goodput (offered flows ≫ capacity),
//! * budget-capped residency (a [`MemoryBudget`] holding a huge table
//!   to a byte ceiling via eviction-before-allocation),
//! * steady-state allocations per datagram once resize has finished.

use fbs_core::cache::PROBE_HIST_BUCKETS;
use fbs_core::{BudgetKind, MemoryBudget, SoftCache};
use fbs_crypto::crc32;
use fbs_ip::FiveTuple;
use fbs_trace::{ScaleConfig, ScaleTrace};
use std::time::Instant;

/// Bytes one resident bench entry is charged against a budget: its
/// slot (control byte plus the key, value and LRU tick of its entry).
pub const SCALE_ENTRY_BYTES: u64 = SoftCache::<FiveTuple, u64>::SLOT_BYTES as u64;

/// One measurement point of the scale sweep.
#[derive(Clone, Debug)]
pub struct ScaleRowConfig {
    /// Row label in the report (e.g. `flows-1024k`).
    pub label: String,
    /// Configured sets; capacity is `num_sets * assoc`.
    pub num_sets: usize,
    /// Set associativity.
    pub assoc: usize,
    /// Datagrams streamed before the steady-state window.
    pub dgrams: u64,
    /// Keep streaming (bounded) until this many flows are resident;
    /// 0 disables the fill loop.
    pub fill_target: usize,
    /// Byte ceiling enforced by the attached [`MemoryBudget`];
    /// 0 only keeps the ledger.
    pub budget_bytes: u64,
    /// The streamed workload driving the row.
    pub trace: ScaleConfig,
}

/// Measured results for one row of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Row label, copied from the config.
    pub label: String,
    /// Configured sets.
    pub num_sets: usize,
    /// Set associativity.
    pub assoc: usize,
    /// Configured capacity in entries.
    pub capacity: usize,
    /// Datagrams actually streamed (warm + fill + steady window).
    pub dgrams: u64,
    /// Flow births the trace produced.
    pub flows_offered: u64,
    /// Live entries at the end of the run.
    pub flows_resident: usize,
    /// Miss fraction over the whole run.
    pub miss_ratio: f64,
    /// Lookup+insert throughput over the whole run.
    pub dgrams_per_sec: f64,
    /// Backing-array footprint (live + retiring table during resize).
    pub table_bytes: u64,
    /// Budget-ledger bytes for resident entries.
    pub resident_bytes: u64,
    /// `table_bytes / flows_resident`.
    pub bytes_per_resident_flow: f64,
    /// Entries evicted (LRU + budget-driven).
    pub evictions: u64,
    /// Entries carried across incremental resize steps.
    pub migrated_entries: u64,
    /// True once every configured set is live (resize finished).
    pub resize_complete: bool,
    /// Probe-length histogram: bucket `i` counts lookups that examined
    /// `i+1` slots (last bucket saturates).
    pub probe_hist: [u64; PROBE_HIST_BUCKETS],
    /// Budget-ceiling rejections observed (should stay 0: eviction
    /// precedes allocation).
    pub exceeded_events: u64,
    /// Heap allocations per datagram over the post-warm steady window.
    pub steady_allocs_per_dgram: f64,
}

/// Stream one row's workload through a freshly built cache.
///
/// `alloc` reads a monotonically increasing allocation counter (the
/// binary wires its counting global allocator; tests pass `&|| 0`).
pub fn run_row(cfg: &ScaleRowConfig, alloc: &dyn Fn() -> u64) -> ScaleRow {
    let mut cache: SoftCache<FiveTuple, u64> =
        SoftCache::new(cfg.num_sets, cfg.assoc, |t: &FiveTuple| {
            crc32(&t.canonical_array())
        });
    let budget = MemoryBudget::bounded(cfg.budget_bytes);
    cache.set_budget(budget.clone(), BudgetKind::Tfkc, SCALE_ENTRY_BYTES);

    let mut trace = ScaleTrace::new(cfg.trace.clone());
    let mut flow_id: u64 = 0;
    let start = Instant::now();
    let mut streamed: u64 = 0;

    let mut pull = |cache: &mut SoftCache<FiveTuple, u64>, n: u64| {
        for _ in 0..n {
            let r = trace.next().expect("stream is infinite");
            if cache.get(&r.tuple).is_none() {
                flow_id += 1;
                cache.insert(r.tuple, flow_id);
            }
        }
        streamed += n;
    };

    // Warm phase: the configured datagram volume.
    pull(&mut cache, cfg.dgrams);

    // Fill phase: top rows must demonstrate full residency, but how
    // many datagrams that takes depends on the workload's flow-size
    // mix. Stream bounded extra chunks until the target is reached.
    if cfg.fill_target > 0 {
        let chunk = (cfg.dgrams / 4).max(65_536);
        for _ in 0..32 {
            if cache.len() >= cfg.fill_target {
                break;
            }
            pull(&mut cache, chunk);
        }
    }

    // Steady window: resize and warm-up behind us, count allocations.
    let steady = (cfg.dgrams / 4).max(65_536);
    let allocs_before = alloc();
    pull(&mut cache, steady);
    let steady_allocs = alloc().saturating_sub(allocs_before);

    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let stats = cache.stats();
    let resident = cache.len();
    ScaleRow {
        label: cfg.label.clone(),
        num_sets: cfg.num_sets,
        assoc: cfg.assoc,
        capacity: cfg.num_sets * cfg.assoc,
        dgrams: streamed,
        flows_offered: trace.flows_started(),
        flows_resident: resident,
        miss_ratio: stats.miss_rate(),
        dgrams_per_sec: streamed as f64 / elapsed,
        table_bytes: cache.table_bytes(),
        resident_bytes: cache.resident_bytes(),
        bytes_per_resident_flow: if resident == 0 {
            0.0
        } else {
            cache.table_bytes() as f64 / resident as f64
        },
        evictions: stats.evictions,
        migrated_entries: cache.migrated_entries(),
        resize_complete: cache.live_sets() == cache.num_sets() && !cache.resizing(),
        probe_hist: cache.probe_histogram(),
        exceeded_events: budget.exceeded_events(),
        steady_allocs_per_dgram: steady_allocs as f64 / steady as f64,
    }
}

/// The workload every curve row shares: a multi-million client
/// population with modern port reuse, sized so distinct 5-tuples
/// comfortably exceed the largest table while smaller tables thrash.
fn curve_trace() -> ScaleConfig {
    ScaleConfig {
        seed: 97,
        clients: 4_000_000,
        client_skew: 1.5,
        active_flows: 16_384,
        port_reuse_span: 16,
        ..ScaleConfig::default()
    }
}

/// The sweep: capacities doubling up to `top_capacity` (assoc 4), then
/// the eviction-storm and budget-capped rows. `top_capacity` below the
/// first step yields just the two stress rows plus one small curve row.
pub fn default_rows(top_capacity: usize) -> Vec<ScaleRowConfig> {
    let assoc = 4;
    let mut rows = Vec::new();
    let mut cap = 16_384usize;
    loop {
        let last = cap * 4 > top_capacity;
        rows.push(ScaleRowConfig {
            label: format!("flows-{}k", cap / 1024),
            num_sets: cap / assoc,
            assoc,
            dgrams: (cap as u64 * 8).max(262_144),
            // Only the top row must prove full residency.
            fill_target: if last { cap } else { 0 },
            budget_bytes: 0,
            trace: curve_trace(),
        });
        if last {
            break;
        }
        cap *= 4;
    }
    // Eviction storm: offered active flows ≫ capacity, every miss
    // evicts; the row's dgrams/s is the storm goodput.
    rows.push(ScaleRowConfig {
        label: "eviction-storm".into(),
        num_sets: 1_024,
        assoc,
        dgrams: 1_048_576,
        fill_target: 0,
        budget_bytes: 0,
        trace: curve_trace(),
    });
    // Budget-capped: a table configured far beyond its byte ceiling;
    // residency must plateau at budget/entry-bytes via eviction, with
    // zero ceiling rejections.
    let budget_flows = (top_capacity / 4).max(4_096);
    rows.push(ScaleRowConfig {
        label: "budget-capped".into(),
        num_sets: top_capacity / assoc,
        assoc,
        dgrams: (top_capacity as u64 * 4).max(262_144),
        fill_target: 0,
        budget_bytes: budget_flows as u64 * SCALE_ENTRY_BYTES,
        trace: curve_trace(),
    });
    rows
}

/// Everything `BENCH_scale.json` carries.
#[derive(Clone, Debug, Default)]
pub struct ScaleReport {
    /// The sweep rows, smallest capacity first, stress rows last.
    pub rows: Vec<ScaleRow>,
}

impl ScaleReport {
    /// Hand-rolled JSON, same idiom as the other bench artifacts.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let hist: Vec<String> = r.probe_hist.iter().map(|c| c.to_string()).collect();
                format!(
                    "    {{\"label\": \"{}\", \"num_sets\": {}, \"assoc\": {}, \
                     \"capacity\": {}, \"dgrams\": {}, \"flows_offered\": {}, \
                     \"flows_resident\": {}, \"miss_ratio\": {:.4}, \
                     \"dgrams_per_sec\": {:.1}, \"table_bytes\": {}, \
                     \"resident_bytes\": {}, \"bytes_per_resident_flow\": {:.1}, \
                     \"evictions\": {}, \"migrated_entries\": {}, \
                     \"resize_complete\": {}, \"exceeded_events\": {}, \
                     \"steady_allocs_per_dgram\": {:.2}, \"probe_hist\": [{}]}}",
                    r.label,
                    r.num_sets,
                    r.assoc,
                    r.capacity,
                    r.dgrams,
                    r.flows_offered,
                    r.flows_resident,
                    r.miss_ratio,
                    r.dgrams_per_sec,
                    r.table_bytes,
                    r.resident_bytes,
                    r.bytes_per_resident_flow,
                    r.evictions,
                    r.migrated_entries,
                    r.resize_complete,
                    r.exceeded_events,
                    r.steady_allocs_per_dgram,
                    hist.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"scale\",\n  \"entry_bytes\": {},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            SCALE_ENTRY_BYTES,
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(label: &str) -> ScaleRowConfig {
        ScaleRowConfig {
            label: label.into(),
            num_sets: 256,
            assoc: 4,
            dgrams: 40_000,
            fill_target: 0,
            budget_bytes: 0,
            trace: ScaleConfig {
                clients: 10_000,
                active_flows: 512,
                port_reuse_span: 8,
                ..ScaleConfig::default()
            },
        }
    }

    #[test]
    fn a_row_measures_the_stream() {
        let row = run_row(&tiny("t"), &|| 0);
        assert!(row.dgrams >= 40_000);
        assert!(row.flows_resident > 0 && row.flows_resident <= row.capacity);
        assert!(row.miss_ratio > 0.0 && row.miss_ratio < 1.0);
        assert!(row.dgrams_per_sec > 0.0);
        assert!(row.bytes_per_resident_flow > 0.0);
        assert!(row.probe_hist.iter().sum::<u64>() > 0);
        assert_eq!(row.exceeded_events, 0);
        // An unbudgeted row keeps the ledger too.
        assert_eq!(
            row.resident_bytes,
            row.flows_resident as u64 * SCALE_ENTRY_BYTES
        );
    }

    #[test]
    fn a_budget_caps_residency_without_ceiling_hits() {
        let budget_flows = 300u64;
        let cfg = ScaleRowConfig {
            budget_bytes: budget_flows * SCALE_ENTRY_BYTES,
            ..tiny("budget")
        };
        let row = run_row(&cfg, &|| 0);
        assert!(
            row.flows_resident as u64 <= budget_flows,
            "budget must bound residency: {} > {}",
            row.flows_resident,
            budget_flows
        );
        assert!(row.evictions > 0, "budget pressure must evict");
        assert_eq!(row.exceeded_events, 0, "eviction precedes allocation");
        assert_eq!(
            row.resident_bytes,
            row.flows_resident as u64 * SCALE_ENTRY_BYTES
        );
    }

    #[test]
    fn fill_target_reaches_full_residency() {
        let cfg = ScaleRowConfig {
            fill_target: 1_024,
            dgrams: 4_096,
            trace: ScaleConfig {
                clients: 100_000,
                active_flows: 2_048,
                port_reuse_span: 64,
                ..ScaleConfig::default()
            },
            ..tiny("fill")
        };
        let row = run_row(&cfg, &|| 0);
        assert!(row.flows_resident >= 1_024, "got {}", row.flows_resident);
        assert!(row.dgrams > 4_096, "fill loop must have streamed more");
    }

    #[test]
    fn default_rows_scale_to_the_requested_top() {
        let rows = default_rows(1 << 20);
        let top = rows
            .iter()
            .rev()
            .find(|r| r.budget_bytes == 0 && r.fill_target > 0)
            .expect("a fill-target top row");
        assert_eq!(top.num_sets * top.assoc, 1 << 20);
        assert_eq!(top.fill_target, 1 << 20);
        assert!(rows.iter().any(|r| r.label == "eviction-storm"));
        assert!(rows.iter().any(|r| r.label == "budget-capped"));
        // Every curve row shares one workload so the sweep isolates
        // table size.
        let seeds: Vec<u64> = rows.iter().map(|r| r.trace.seed).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let mut report = ScaleReport::default();
        report.rows.push(run_row(&tiny("j"), &|| 0));
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains("\"flows_resident\""));
        assert!(json.contains("\"probe_hist\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
