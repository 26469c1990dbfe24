//! The NOP 64 B cell of `fbs_bench::e2e` on its (callers, shards,
//! workers) rows — emits `BENCH_e2e.json`.
//!
//! `cargo run --release -p fbs-bench --bin e2e_bench
//!  [-- <count>] [--out <path.json>] [--prom <path.prom>]`
//!
//! Host A's stack sends 64 B datagrams over 64 flows per caller to B's
//! under NOP crypto, the paper's §7.3 device for isolating protocol
//! cost; a second caller is a second pair of hosts on a thread of its
//! own, sharing the first pair's hooks. Each row runs observed (one
//! registry on every host and hook) and bare, `<count>` datagrams per
//! caller and round, with allocations counted by the binaries' shared
//! counting global allocator.

use fbs_bench::e2e::{self, Row};
use fbs_bench::{arg_num, flag_value, table, write_artifact};
use fbs_crypto::dh::DhGroup;

#[path = "shared/counting_alloc.rs"]
mod counting_alloc;

/// Rounds per row; each row reports its median rate.
const ROUNDS: usize = 11;

fn row_json(r: &Row) -> String {
    format!(
        "    {{\"callers\": {}, \"shards\": {}, \"workers\": {}, \
         \"datagrams_per_sec\": {:.1}, \"bare_datagrams_per_sec\": {:.1}, \
         \"obs_overhead_share\": {:.3}, \"allocs_per_datagram\": {:.4}, \
         \"bare_allocs_per_datagram\": {:.4}, \"failed\": {}, \"pool_balanced\": {}}}",
        r.callers,
        r.shards,
        r.workers,
        r.rate[0],
        r.rate[1],
        r.obs_overhead_share(),
        r.allocs[0],
        r.allocs[1],
        r.failed,
        r.pool_balanced
    )
}

fn main() {
    counting_alloc::check_counting("e2e_bench");
    let count = arg_num().unwrap_or(100_000) as usize;
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_e2e.json".into());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let report = e2e::rows(count, ROUNDS, &DhGroup::oakley2(), &counting_alloc::allocs);

    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{} / {} / {}", r.callers, r.shards, r.workers),
                format!("{:.0}", r.rate[0]),
                format!("{:.0}", r.rate[1]),
                format!("{:.3}", r.obs_overhead_share()),
                format!("{:.2} / {:.2}", r.allocs[0], r.allocs[1]),
                r.failed.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "e2e rows — NOP, 64 B, {} flows per caller, median of {ROUNDS} rounds \
                 of {count} datagrams per caller, cpus={cpus}",
                e2e::FLOWS
            ),
            &[
                "callers / shards / workers",
                "observed dgrams/s",
                "bare dgrams/s",
                "obs share",
                "allocs/dgram obs / bare",
                "failed",
            ],
            &rows,
        )
    );
    let ratios = &report.sharded_ratios;
    let median = report.sharded_vs_unsharded_1caller();
    let (lo, hi) = (ratios[0], ratios[ratios.len() - 1]);
    println!("sharded vs unsharded, one caller: {median:.3} (rounds {lo:.3}–{hi:.3})");

    let rows: Vec<String> = report.rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"e2e\",\n  \"payload_bytes\": {},\n  \"suite\": \"nop\",\n  \
         \"count\": {count},\n  \"rounds\": {ROUNDS},\n  \"cpus\": {cpus},\n  \
         \"rows\": [\n{}\n  ],\n  \"sharded_vs_unsharded_1caller\": {median:.3},\n  \
         \"sharded_vs_unsharded_1caller_spread\": [{lo:.3}, {hi:.3}]\n}}\n",
        e2e::SIZES[0],
        rows.join(",\n"),
    );
    write_artifact(&out, "report", &json);
    if let Some(path) = flag_value("--prom") {
        let prom = fbs_obs::prom::render(&report.obs);
        write_artifact(&path, "prometheus exposition", &prom);
    }
}
