//! Fast-path throughput bench — emits `BENCH_fastpath.json`.
//!
//! `cargo run --release -p fbs-bench --bin fastpath_bench
//!  [-- <count>] [--payload <bytes>] [--des | --mac-only] [--out <path.json>] [--csv]`
//!
//! Default mode is NOP crypto — the paper's §7.3 device for isolating
//! protocol-processing cost; `--des` or `--mac-only` run the mapping
//! grid with real crypto. The suite grid always runs each profile's own
//! secret-mode crypto.
//!
//! Measures pooled `seal_into`/`open_into` per cipher suite and the
//! sharded IP mapping through the worker runtime, with allocations
//! counted by the binaries' shared counting global allocator.

use fbs_bench::fastpath;
use fbs_bench::{arg_num, emit, flag_value, write_artifact};

#[path = "shared/counting_alloc.rs"]
mod counting_alloc;

fn main() {
    counting_alloc::check_counting("fastpath_bench");
    let count = arg_num().unwrap_or(2000) as usize;
    let payload: usize = flag_value("--payload")
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let mode = if std::env::args().any(|a| a == "--des") {
        fastpath::Mode::DesMd5
    } else if std::env::args().any(|a| a == "--mac-only") {
        fastpath::Mode::MacOnly
    } else {
        fastpath::Mode::Nop
    };
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_fastpath.json".into());

    let report = fastpath::run(payload, count, mode, &counting_alloc::allocs);

    let fmt = |r: &fastpath::Rate| {
        vec![
            format!("{:.0}", r.datagrams_per_sec),
            format!("{:.0}", r.bytes_per_sec / 1e6),
            format!("{:.2}", r.allocs_per_datagram),
        ]
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for m in &report.mapping {
        rows.push(
            [
                vec![format!(
                    "mapping {}t {}sh {}w{}",
                    m.threads,
                    m.shards,
                    m.workers,
                    if m.pool_balanced { "" } else { " LEAK" }
                )],
                fmt(&m.rate),
            ]
            .concat(),
        );
    }
    for s in &report.suites {
        rows.push(
            [
                vec![format!(
                    "suite {} seal{}",
                    s.suite.name(),
                    if s.pool_balanced { "" } else { " LEAK" }
                )],
                fmt(&s.seal_pooled),
            ]
            .concat(),
        );
        rows.push(
            [
                vec![format!("suite {} open", s.suite.name())],
                fmt(&s.open_pooled),
            ]
            .concat(),
        );
    }
    emit(
        &format!(
            "fast path — {} B payloads × {}, mode={}, cpus={}",
            report.payload_bytes,
            report.count,
            report.mode.name(),
            report.cpus
        ),
        &["path", "dgrams/s", "MB/s", "allocs/dgram"],
        &rows,
    );
    println!(
        "\nsharding cost (mapping 1t sharded vs unsharded): {:.2}x",
        report.mapping_sharded_vs_unsharded_1t
    );
    println!(
        "speedup (fast_des suite vs paper suite, pooled seal): {:.2}x",
        report.speedup_fast_vs_paper
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
