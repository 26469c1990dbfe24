//! End-to-end checks of the bench/figure binaries' artifact flags:
//! `--metrics` on `repro`, `--out`/`--trace`/`--prom` on the chaos soak
//! and `--out` on `e2e_bench` — exercising the files they write, not
//! just flag parsing.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fbs-cli-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn balanced(text: &str) {
    assert_eq!(
        text.matches('{').count() + text.matches('[').count(),
        text.matches('}').count() + text.matches(']').count(),
        "unbalanced JSON"
    );
}

/// Every value `"key":<n>` takes in `text`, in order of appearance.
fn values_of(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let digits = text[at + needle.len()..].trim_start();
            let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
            digits[..end].parse().unwrap()
        })
        .collect()
}

#[test]
fn repro_metrics_flag_writes_parseable_snapshot() {
    // Fig. 12 is the cheapest figure in a debug build.
    let path = tmp("fig12_metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig12", "--metrics", path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# figure: fig12"));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(text.starts_with('{'));
    assert!(text.contains("\"counters\""));
    assert!(text.contains("fam.flows_started"));
    balanced(&text);
}

#[test]
fn chaos_soak_trace_matches_committed_sample() {
    let trace_path = tmp("flow_trace.json");
    let report_path = tmp("chaos_report.json");
    let prom_path = tmp("chaos.prom");
    let deltas_path = tmp("chaos_deltas.json");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .args([
            "--short",
            "--seed",
            "7",
            "--out",
            report_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--prom",
            prom_path.to_str().unwrap(),
            "--deltas",
            deltas_path.to_str().unwrap(),
        ])
        .output()
        .expect("chaos_soak runs");
    assert!(
        out.status.success(),
        "chaos_soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace runs on virtual time, so the bytes are a pure function
    // of the seed: they must match the committed sample exactly. If
    // this fails after an intentional trace change, regenerate with
    //   cargo run --release -p fbs-bench --bin chaos_soak -- \
    //     --short --seed 7 --out /dev/null --trace samples/flow_trace_seed7.json
    let got = std::fs::read_to_string(&trace_path).expect("trace written");
    let sample_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples/flow_trace_seed7.json");
    let want = std::fs::read_to_string(&sample_path).expect("committed sample readable");
    assert_eq!(got, want, "trace drifted from committed sample");
    balanced(&got);
    assert!(got.contains("\"kind\":\"classify\""));
    assert!(got.contains("\"kind\":\"fault_start\""));

    // The prom exposition is well-formed: every non-comment line is
    // `name[{label="v"}] <integer>`.
    let prom = std::fs::read_to_string(&prom_path).expect("prom written");
    for line in prom.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("space-separated sample");
        assert!(value.bytes().all(|b| b.is_ascii_digit()), "{line}");
        let bare = name.split('{').next().unwrap();
        assert!(bare.starts_with("fbs_"), "{line}");
    }
    assert!(prom.contains("# TYPE fbs_park_parked counter"));

    // And the report carries the health timeline.
    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert!(report.contains("\"health\""));
    assert!(report.contains("\"breaker_open\""));

    // Verdicts are counted once: the hooks' own tallies are not added
    // on top of the registry they already write to. The baseline phase
    // offers `sent` datagrams to the output hook, and every datagram the
    // output hook passes is one endpoint send.
    let deltas = std::fs::read_to_string(&deltas_path).expect("deltas written");
    let baseline_sent = values_of(&report, "sent")[0];
    assert_eq!(values_of(&deltas, "hooks.output_entries")[0], baseline_sent);
    let output_ok: u64 = values_of(&deltas, "hooks.output_ok").iter().sum();
    let sends: u64 = values_of(&deltas, "endpoint.sends").iter().sum();
    assert_eq!(output_ok, sends);
}

/// The full seed-7 run reproduces the committed `BENCH_chaos.json` byte
/// for byte: both scenarios run on virtual time, so the report is a pure
/// function of the seed. If this fails after an intentional change,
/// regenerate with
///   cargo run --release -p fbs-bench --bin chaos_soak -- --seed 7
#[test]
fn chaos_soak_full_run_matches_committed_report() {
    let path = tmp("chaos_full.json");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .args(["--seed", "7", "--out", path.to_str().unwrap()])
        .output()
        .expect("chaos_soak runs");
    assert!(
        out.status.success(),
        "chaos_soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&path).expect("report written");
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chaos.json");
    let want = std::fs::read_to_string(&committed).expect("committed report readable");
    assert_eq!(got, want, "report drifted from BENCH_chaos.json");
}

/// A short run with no `--out` writes its own default report, never the
/// full run's `BENCH_chaos.json`.
#[test]
fn chaos_soak_short_keeps_the_full_report() {
    let dir = tmp("short_default");
    std::fs::create_dir_all(&dir).expect("run dir");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .args(["--short", "--seed", "7"])
        .current_dir(&dir)
        .output()
        .expect("chaos_soak runs");
    assert!(
        out.status.success(),
        "chaos_soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        std::fs::read_to_string(dir.join("BENCH_chaos_short.json")).expect("short report written");
    assert!(report.contains("\"bench\": \"chaos\""));
    balanced(&report);
    assert!(!dir.join("BENCH_chaos.json").exists());
}

/// `e2e_bench` at a small count writes all three rows, each with no
/// failed datagram, closed pools, and at least as many allocations
/// observed as bare: its counting allocator counts the stacks'.
#[test]
fn e2e_bench_writes_every_row() {
    let path = tmp("e2e.json");
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(["200", "--out", path.to_str().unwrap()])
        .output()
        .expect("e2e_bench runs");
    assert!(
        out.status.success(),
        "e2e_bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&path).expect("report written");
    balanced(&report);
    assert!(report.contains("\"bench\": \"e2e\""));
    assert!(report.contains("\"cpus\": "));
    assert!(report.contains("\"sharded_vs_unsharded_1caller\": "));
    let rows: Vec<&str> = report
        .lines()
        .filter(|l| l.contains("\"callers\""))
        .collect();
    let shape: Vec<[u64; 3]> = rows
        .iter()
        .map(|r| ["callers", "shards", "workers"].map(|k| values_of(r, k)[0]))
        .collect();
    assert_eq!(shape, [[1, 1, 1], [1, 8, 1], [2, 8, 2]]);
    for row in rows {
        assert_eq!(values_of(row, "failed"), [0], "{row}");
        assert!(row.contains("\"pool_balanced\": true"), "{row}");
        let allocs = |k: &str| {
            let at = row.find(&format!("\"{k}\": ")).unwrap() + k.len() + 4;
            let end = row[at..].find(',').unwrap();
            row[at..at + end].parse::<f64>().unwrap()
        };
        let (observed, bare) = (
            allocs("allocs_per_datagram"),
            allocs("bare_allocs_per_datagram"),
        );
        assert!(observed >= bare && bare > 0.0, "{row}");
    }
}
