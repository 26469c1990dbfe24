//! Million-flow scale bench — emits `BENCH_scale.json`.
//!
//! `cargo run --release -p fbs-bench --bin scale_bench
//!  [-- <top_capacity>] [--out <path.json>] [--csv]`
//!
//! Sweeps the open-addressed soft-state table from 16 k to
//! `<top_capacity>` entries (default 2^20) under one streamed
//! multi-million-client workload, then appends the eviction-storm and
//! budget-capped rows. Steady-state allocations are counted by the
//! binaries' shared counting global allocator.

use fbs_bench::scale::{self, ScaleReport};
use fbs_bench::{arg_num, emit, flag_value, write_artifact};

#[path = "shared/counting_alloc.rs"]
mod counting_alloc;

fn main() {
    counting_alloc::check_counting("scale_bench");
    let top_capacity = arg_num().unwrap_or(1 << 20) as usize;
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_scale.json".into());

    let mut report = ScaleReport::default();
    for cfg in scale::default_rows(top_capacity) {
        eprintln!("scale_bench: {} ...", cfg.label);
        report
            .rows
            .push(scale::run_row(&cfg, &counting_alloc::allocs));
    }

    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.capacity.to_string(),
                r.flows_resident.to_string(),
                format!("{:.4}", r.miss_ratio),
                format!("{:.0}", r.dgrams_per_sec),
                format!("{:.1}", r.bytes_per_resident_flow),
                r.evictions.to_string(),
                format!("{:.2}", r.steady_allocs_per_dgram),
            ]
        })
        .collect();
    emit(
        "BENCH_scale: soft-state residency curve",
        &[
            "row",
            "capacity",
            "resident",
            "miss_ratio",
            "dgrams/s",
            "B/flow",
            "evictions",
            "allocs/dgram",
        ],
        &rows,
    );
    write_artifact(&out, "report", &report.to_json());
}
