//! Fast-path throughput bench — emits `BENCH_fastpath.json`.
//!
//! `cargo run --release -p fbs-bench --bin fastpath_bench
//!  [-- <count>] [--payload <bytes>] [--des | --mac-only] [--out <path.json>] [--csv]`
//!
//! Default mode is NOP crypto — the paper's §7.3 device for isolating
//! protocol-processing cost, which is what the fast path optimises; pass
//! `--des` or `--mac-only` for the real-crypto variants.
//!
//! Measures the zero-copy `seal_into`/`BufferPool` path against the legacy
//! allocating `send`/`encode_payload` path, and the sharded IP mapping
//! through the worker runtime. A counting global allocator lives
//! here, in the binary: the library crates `forbid(unsafe_code)`, and a
//! `#[global_allocator]` needs `unsafe impl GlobalAlloc`.

use fbs_bench::fastpath;
use fbs_bench::{arg_num, emit, flag_value, write_artifact};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every alloc/realloc across all
/// threads (mapping workers included).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
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

    let report = fastpath::run(payload, count, mode, &|| ALLOCS.load(Ordering::Relaxed));

    let fmt = |r: &fastpath::Rate| {
        vec![
            format!("{:.0}", r.datagrams_per_sec),
            format!("{:.0}", r.bytes_per_sec / 1e6),
            format!("{:.2}", r.allocs_per_datagram),
        ]
    };
    let mut rows: Vec<Vec<String>> = vec![
        [vec!["legacy send".into()], fmt(&report.legacy)].concat(),
        [vec!["inline pooled".into()], fmt(&report.inline_pooled)].concat(),
        [vec!["inline unpooled".into()], fmt(&report.inline_unpooled)].concat(),
    ];
    rows.push([vec!["open legacy".into()], fmt(&report.open_legacy)].concat());
    rows.push(
        [
            vec!["open inline pooled".into()],
            fmt(&report.open_inline_pooled),
        ]
        .concat(),
    );
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
            "fast path vs legacy — {} B payloads × {}, mode={}, cpus={}",
            report.payload_bytes,
            report.count,
            report.mode.name(),
            report.cpus
        ),
        &["path", "dgrams/s", "MB/s", "allocs/dgram"],
        &rows,
    );
    println!(
        "\nspeedup (inline pooled vs legacy): {:.2}x",
        report.speedup_pooled_1w_vs_legacy
    );
    println!(
        "speedup (open inline pooled vs legacy input): {:.2}x",
        report.speedup_open_inline_vs_legacy
    );
    println!(
        "sharding cost (mapping 1t sharded vs unsharded): {:.2}x",
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
