//! End-to-end checks of the bench/figure binaries' artifact flags:
//! `--metrics` on `repro`, and `--trace`/`--prom` on the
//! chaos soak — exercising the files they write, not just flag parsing.

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
