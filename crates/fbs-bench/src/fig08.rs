//! Fig. 8 — timing results: GENERIC vs FBS NOP vs FBS DES+MD5.
//!
//! The paper measured ttcp/rcp over a dedicated 10 Mb/s Ethernet between
//! Pentium-133s: GENERIC and FBS NOP ran near line rate (~7,700 kb/s,
//! showing FBS adds little overhead outside crypto), while DES+MD5 dropped
//! to ~3,400 kb/s because DES in software (549 kB/s in CryptoLib) became
//! the bottleneck.
//!
//! Here the same comparison runs through two simulated hosts
//! ([`crate::e2e`]): GENERIC, FBS NOP and FBS DES+MD5, plus the
//! `fast_des` and AEAD suites, at three datagram sizes, with no link
//! between the hosts to cap the rate. The figure reports what the hosts
//! reach on this CPU and the ratios to GENERIC that the paper's shape is
//! about. The primitive-rate table relates this CPU's DES and MD5 to
//! CryptoLib's on the paper's Pentium 133.

use crate::e2e::{self, Pair, GENERIC, NOP, PAPER, SIZES, VARIANTS};
use crate::{table, Figure};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::{des, keyed_digest, md5, Des, DesMode};
use fbs_obs::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

/// This CPU's rate in kB/s of the primitive `name` (`des-cbc`, `md5` or
/// `keyed-md5`) over `megabytes` of data.
pub fn primitive_rate_kbs(name: &str, megabytes: usize) -> f64 {
    let buf = vec![0x5Au8; megabytes * 1024 * 1024];
    let start = Instant::now();
    let first = match name {
        "des-cbc" => des::encrypt(&Des::new(b"benchkey"), 0x1234, DesMode::Cbc, &buf)[0],
        "md5" => md5::md5(&buf)[0],
        "keyed-md5" => keyed_digest(b"flow-key-material", &[&buf])[0],
        other => panic!("unknown primitive {other}"),
    };
    std::hint::black_box(first);
    buf.len() as f64 / 1024.0 / start.elapsed().as_secs_f64()
}

/// The paper's measured CryptoLib rates on the Pentium 133 (§7.2).
pub const PAPER_DES_KBS: f64 = 549.0;
/// CryptoLib MD5 rate on the Pentium 133 (§7.2).
pub const PAPER_MD5_KBS: f64 = 7060.0;
/// Paper Fig. 8: GENERIC throughput (kb/s).
pub const PAPER_GENERIC_KBPS: f64 = 7700.0;
/// Paper Fig. 8: FBS NOP throughput (kb/s), the same as GENERIC's.
pub const PAPER_NOP_KBPS: f64 = 7700.0;
/// Paper Fig. 8: FBS DES+MD5 throughput (kb/s).
pub const PAPER_DESMD5_KBPS: f64 = 3400.0;
/// Timed rounds per cell; a cell reports their median.
const ROUNDS: usize = 5;

/// Fig. 8 at `count` datagrams per cell and round: the primitive
/// calibration, the grid measured through the hosts, and each size's
/// ratios to GENERIC beside the paper's. Its metrics come from an untimed
/// exchange run after the timed grid, so instrumentation cannot skew the
/// rates. Panics if any datagram of the grid or the exchange fails its
/// check.
pub fn render(count: u64) -> Figure {
    let group = DhGroup::oakley2();
    let mut text = String::new();

    let rows: Vec<Vec<String>> = [
        ("des-cbc", 8, PAPER_DES_KBS),
        ("md5", 32, PAPER_MD5_KBS),
        ("keyed-md5", 32, PAPER_MD5_KBS),
    ]
    .into_iter()
    .map(|(name, mb, paper)| {
        let rate = primitive_rate_kbs(name, mb);
        vec![
            name.to_string(),
            format!("{rate:.0}"),
            format!("{paper:.0}"),
            format!("{:.0}x", rate / paper),
        ]
    })
    .collect();
    text += &table(
        "primitive rates (kB/s) — ours vs CryptoLib on Pentium 133 (§7.2)",
        &["primitive", "ours kB/s", "paper kB/s", "speedup"],
        &rows,
    );
    text += "\n";

    let cells = e2e::grid(count as usize, ROUNDS, &group);
    let mut rows = Vec::new();
    let mut shape = String::new();
    for (row, size) in cells.iter().zip(SIZES) {
        let over = |v: usize| format!("{:.2}", row[v].1 / row[GENERIC].1);
        for (v, &(failed, rate)) in row.iter().enumerate() {
            let name = VARIANTS[v].0;
            assert_eq!(failed, 0, "fig08: {name} at {size} B failed");
            let kbps = rate * size as f64 * 8.0 / 1000.0;
            rows.push(vec![
                size.to_string(),
                name.into(),
                format!("{rate:.0}"),
                format!("{kbps:.0}"),
                over(v),
            ]);
        }
        shape += &format!(
            "{size:>5} B: fbs_nop_over_generic {} (paper {:.2}), fbs_paper_over_generic {} (paper {:.2})\n",
            over(NOP),
            PAPER_NOP_KBPS / PAPER_GENERIC_KBPS,
            over(PAPER),
            PAPER_DESMD5_KBPS / PAPER_GENERIC_KBPS,
        );
    }
    text += &table(
        &format!(
            "Fig. 8 — two hosts, one flow, one thread, no link cap: datagrams/s\n\
             and payload kb/s, each the median of {ROUNDS} rounds of {count} datagrams"
        ),
        &["bytes", "variant", "datagrams/s", "kb/s", "vs GENERIC"],
        &rows,
    );
    text += "Fig. 8 shape — FBS over GENERIC, measured and the paper's\n\
             (paper: NOP 7700 / 7700 kb/s, DES+MD5 3400 / 7700 kb/s)\n";
    text += &shape;

    let registry = Arc::new(MetricsRegistry::new());
    let mut pair = Pair::new(VARIANTS[PAPER].1, &group, Some(&registry));
    let failed: u64 = SIZES.iter().map(|&size| pair.exchange(size, 64)).sum();
    assert_eq!(failed, 0, "fig08: the instrumented exchange failed");
    Figure {
        text,
        metrics: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_rates_positive() {
        let des = primitive_rate_kbs("des-cbc", 1);
        let md5 = primitive_rate_kbs("md5", 1);
        assert!(des > 0.0);
        assert!(md5 > des, "MD5 outruns DES, as in CryptoLib");
    }
}
