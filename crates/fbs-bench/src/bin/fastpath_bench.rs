//! Fast-path throughput bench — emits `BENCH_fastpath.json`.
//!
//! `cargo run --release -p fbs-bench --bin fastpath_bench
//!  [-- <count>] [--payload <bytes>] [--out <path.json>] [--prom <path.prom>]`
//!
//! Measures the sharded IP mapping through the worker runtime at four
//! (threads, shards, workers) points under NOP crypto — the paper's §7.3
//! device for isolating protocol-processing cost — with allocations
//! counted by the binaries' shared counting global allocator. Each row
//! runs observed (a registry attached) and bare, in alternating reps.
//! The cipher suites are measured end to end by `repro fig08`.

use fbs_bench::fastpath;
use fbs_bench::{arg_num, flag_value, table, write_artifact};

#[path = "shared/counting_alloc.rs"]
mod counting_alloc;

fn main() {
    counting_alloc::check_counting("fastpath_bench");
    let count = arg_num().unwrap_or(2000) as usize;
    let payload: usize = flag_value("--payload")
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_fastpath.json".into());

    let report = fastpath::run(payload, count, &counting_alloc::allocs);

    let rows: Vec<Vec<String>> = report
        .mapping
        .iter()
        .map(|m| {
            vec![
                format!(
                    "mapping {}t {}sh {}w{}",
                    m.threads,
                    m.shards,
                    m.workers,
                    if m.pool_balanced { "" } else { " LEAK" }
                ),
                format!("{:.0}", m.rate.datagrams_per_sec),
                format!("{:.0}", m.rate.bytes_per_sec / 1e6),
                format!("{:.2}", m.rate.allocs_per_datagram),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "fast path — {} B payloads × {}, NOP crypto, cpus={}",
                report.payload_bytes, report.count, report.cpus
            ),
            &["path", "dgrams/s", "MB/s", "allocs/dgram"],
            &rows,
        )
    );
    println!(
        "\nsharding cost (mapping 1t sharded vs unsharded): {:.2}x",
        report.mapping_sharded_vs_unsharded_1t
    );

    // Per-worker occupancy, from the busiest mapping row.
    if let Some(m) = report.mapping.last() {
        println!(
            "\nworker occupancy — mapping {}t {}sh {}w (all reps):",
            m.threads, m.shards, m.workers
        );
        for o in &m.occupancy {
            println!(
                "  worker {:2}: {:8} batches {:12} busy-ns",
                o.worker, o.batches, o.busy_ns
            );
        }
    }

    write_artifact(&out, "report", &report.to_json());
    if let Some(path) = flag_value("--prom") {
        write_artifact(
            &path,
            "prometheus exposition",
            &fbs_obs::prom::render(&report.obs),
        );
    }
}
