//! Fig. 8 — timing results: GENERIC vs FBS NOP vs FBS DES+MD5.
//!
//! `cargo run --release -p fbs-bench --bin fig08_throughput
//!  [-- <count>] [--csv] [--metrics <path.json>]`

use fbs_bench::fig08::{
    fig08_rows, instrumented_snapshot, primitive_rate_kbs, suite_rows_kbps, PAPER_DESMD5_KBPS,
    PAPER_DES_KBS, PAPER_GENERIC_KBPS, PAPER_MD5_KBS,
};
use fbs_bench::{arg_num, emit, metrics_path, write_metrics};

fn main() {
    let count = arg_num().unwrap_or(200) as usize;

    // Layer 1: primitive calibration vs CryptoLib on the Pentium 133.
    let rows: Vec<Vec<String>> = [
        ("des-cbc", 8, PAPER_DES_KBS),
        ("md5", 32, PAPER_MD5_KBS),
        ("keyed-md5", 32, PAPER_MD5_KBS),
    ]
    .into_iter()
    .map(|(name, mb, paper)| {
        let (_, rate) = primitive_rate_kbs(name, mb);
        vec![
            name.to_string(),
            format!("{rate:.0}"),
            format!("{paper:.0}"),
            format!("{:.0}x", rate / paper),
        ]
    })
    .collect();
    emit(
        "primitive rates (kB/s) — ours vs CryptoLib on Pentium 133 (§7.2)",
        &["primitive", "ours kB/s", "paper kB/s", "speedup"],
        &rows,
    );
    println!();

    // Layers 2+3: the Fig. 8 emulation.
    let rows: Vec<Vec<String>> = fig08_rows(8192, count)
        .into_iter()
        .map(|r| {
            let paper = match r.variant {
                "GENERIC" | "FBS NOP" => format!("{PAPER_GENERIC_KBPS:.0}"),
                "FBS DES+MD5" => format!("{PAPER_DESMD5_KBPS:.0}"),
                _ => "-".into(),
            };
            vec![
                r.variant.to_string(),
                format!("{:.0}", r.native_kbps),
                format!("{:.0}", r.native_at_line),
                format!("{:.0}", r.scaled_at_line),
                paper,
            ]
        })
        .collect();
    emit(
        "Fig. 8 — throughput (kb/s), 8 KB datagrams\n\
         native = protocol processing on this CPU; @10Mb/s = capped at the\n\
         paper's line rate; scaled = crypto slowed to CryptoLib/P133 rates",
        &[
            "variant",
            "native kb/s",
            "native@10Mb/s",
            "scaled@10Mb/s",
            "paper kb/s",
        ],
        &rows,
    );
    println!(
        "\nshape check: GENERIC ≈ FBS NOP at line rate, FBS DES+MD5 crypto-bound\n\
         well below it — the paper saw 7700 → 3400 kb/s."
    );

    // Cipher-suite column: the secret-mode row re-measured per profile.
    println!();
    let suites = suite_rows_kbps(8192, count);
    let paper_kbps = suites
        .iter()
        .find(|(n, _)| *n == "paper")
        .map(|&(_, r)| r)
        .unwrap_or(f64::NAN);
    let rows: Vec<Vec<String>> = suites
        .iter()
        .map(|(name, kbps)| {
            vec![
                name.to_string(),
                format!("{kbps:.0}"),
                format!("{:.2}x", kbps / paper_kbps),
            ]
        })
        .collect();
    emit(
        "cipher suites — secret-mode one-way rate per profile, 8 KB datagrams\n\
         paper = DES-CBC + keyed-MD5 (bit-identical wire format); fast_des =\n\
         word-sliced DES-CTR + truncated MAC; aead = ChaCha20-Poly1305",
        &["suite", "native kb/s", "vs paper"],
        &rows,
    );

    // An instrumented (non-timed) exchange for the observability export.
    if let Some(path) = metrics_path() {
        write_metrics(&path, &instrumented_snapshot(8192, count.min(64)));
    }
}
