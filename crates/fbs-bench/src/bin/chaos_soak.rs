//! Chaos soak harness — emits `BENCH_chaos.json`.
//!
//! `cargo run --release -p fbs-bench --bin chaos_soak
//!  [-- --seed <n>] [--short] [--out <path.json>]
//!  [--trace <path.json>] [--prom <path.prom>] [--deltas <path.json>]`
//!
//! Runs a scripted directory/MKD outage with cache-flush storms against a
//! two-host FBS LAN (see `fbs_bench::chaos` for the phase script), then
//! the worker-fault scenario (scheduled worker panics, stalls, and ring
//! saturation against the datagram-plane runtime), and reports
//! degradation and recovery for both. Exits non-zero when either run
//! fails to converge — goodput under 90% of baseline, a breaker stuck
//! open, datagrams still parked, a quarantined or dead worker, a verdict
//! lost, or an imbalanced buffer-pool ledger — so CI can gate directly.
//!
//! `--trace` writes the sampled flow trace (every flow; the soak drives
//! one), byte-identical per seed since it runs on virtual time. `--prom`
//! writes the final registry snapshot in Prometheus text exposition.
//! `--deltas` writes the per-phase delta snapshots — what each phase
//! changed, scrape-style, instead of ever-growing absolutes.

use fbs_bench::chaos::{self, SoakConfig};
use fbs_bench::{flag_value, table, write_artifact};

fn main() {
    let seed: u64 = flag_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let mut cfg = SoakConfig {
        seed,
        ..SoakConfig::default()
    };
    if std::env::args().any(|a| a == "--short") {
        // CI smoke shape: ~4.5 s of virtual time instead of 13 s.
        cfg.baseline_us = 1_000_000;
        cfg.fault_us = 1_000_000;
        cfg.settle_us = 1_000_000;
        cfg.recovery_us = 1_500_000;
        cfg.send_interval_us = 4_000;
        cfg.step_us = 1_000;
    }
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_chaos.json".into());
    let trace_path = flag_value("--trace");

    let mut soak = chaos::run_soak(cfg, trace_path.as_ref().map(|_| 0));
    soak.report.worker_fault = Some(chaos::run_worker_fault(cfg));
    let report = &soak.report;

    let row = |name: &str, t: &chaos::PhaseTally| {
        vec![
            name.to_string(),
            t.sent.to_string(),
            t.send_rejected.to_string(),
            t.delivered.to_string(),
            format!("{:.1}", t.goodput_per_sec),
        ]
    };
    print!(
        "{}",
        table(
            &format!(
                "chaos soak — seed={}, fault {} ms, parks out/in peak {}/{}",
                report.cfg.seed,
                report.cfg.fault_us / 1_000,
                report.out_park.peak_depth,
                report.in_park.peak_depth
            ),
            &["phase", "sent", "rejected", "delivered", "goodput/s"],
            &[
                row("baseline", &report.baseline),
                row("fault", &report.fault),
                row("settle", &report.settle),
                row("recovery", &report.recovery),
            ],
        )
    );
    println!(
        "\nrecovery ratio: {:.3} (threshold 0.9), breaker closed: {}, parked left: {:?}",
        report.recovery_ratio, report.breaker_closed, report.final_depths
    );
    for (phase, health) in &report.health {
        println!("health[{phase}]: {}", health.overall.name());
    }
    let wf = report.worker_fault.as_ref().expect("scenario just ran");
    println!(
        "\nworker-fault scenario — panics {}, respawns {}, quarantined {} of {} workers, \
         verdict loss {}, pool balanced {}, recovery ratio {:.3}",
        wf.panics,
        wf.respawns,
        wf.quarantined,
        wf.workers,
        wf.verdict_loss,
        wf.pool_balanced,
        wf.recovery_ratio
    );
    for (phase, health) in &wf.health {
        println!("worker_fault health[{phase}]: {}", health.overall.name());
    }

    write_artifact(&out, "report", &report.to_json());
    if let (Some(path), Some(trace)) = (&trace_path, &soak.trace_json) {
        write_artifact(path, "flow trace", trace);
    }
    if let Some(path) = flag_value("--prom") {
        write_artifact(
            &path,
            "prometheus exposition",
            &fbs_obs::prom::render(&soak.snapshot),
        );
    }
    if let Some(path) = flag_value("--deltas") {
        let phases: Vec<String> = soak
            .deltas
            .iter()
            .map(|(phase, d)| format!("{{\"phase\":\"{}\",\"delta\":{}}}", phase, d.to_json()))
            .collect();
        write_artifact(
            &path,
            "delta snapshots",
            &format!("[{}]\n", phases.join(",")),
        );
    }
    if !report.converged {
        eprintln!("chaos soak FAILED to converge");
        std::process::exit(1);
    }
    if !wf.converged {
        eprintln!("worker-fault scenario FAILED to converge");
        std::process::exit(1);
    }
}
