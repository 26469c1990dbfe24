//! Fig. 8 — timing results: GENERIC vs FBS NOP vs FBS DES+MD5.
//!
//! The paper measured ttcp/rcp over a dedicated 10 Mb/s Ethernet between
//! Pentium-133s: GENERIC and FBS NOP ran near line rate (~7,700 kb/s,
//! showing FBS adds little overhead outside crypto), while DES+MD5 dropped
//! to ~3,400 kb/s because DES in software (549 kB/s in CryptoLib) became
//! the bottleneck.
//!
//! A 2020s CPU runs DES orders of magnitude faster, so the crypto
//! bottleneck would vanish at 10 Mb/s. We therefore report three layers:
//!
//! 1. raw primitive rates (the CryptoLib calibration);
//! 2. measured per-datagram protocol-processing rates for each variant;
//! 3. the Fig. 8 emulation: effective throughput at the paper's 10 Mb/s
//!    line rate, both at native CPU speed and with crypto scaled to
//!    CryptoLib's measured Pentium-133 rates — the scaled column
//!    reproduces the paper's shape (GENERIC ≈ NOP ≫ DES+MD5).

use crate::endpoints::{endpoint_pair, principals};
use crate::{table, Figure};
use fbs_core::{Datagram, FbsConfig};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::{des, keyed_digest, md5, Des, DesMode};
use std::sync::Arc;
use std::time::Instant;

/// Measured rate of one primitive in kB/s.
pub fn primitive_rate_kbs(name: &str, megabytes: usize) -> (String, f64) {
    let buf = vec![0x5Au8; megabytes * 1024 * 1024];
    let start = Instant::now();
    match name {
        "des-cbc" => {
            let key = Des::new(b"benchkey");
            let ct = des::encrypt(&key, 0x1234_5678_9ABC_DEF0, DesMode::Cbc, &buf);
            assert!(!ct.is_empty());
        }
        "md5" => {
            let d = md5::md5(&buf);
            assert_ne!(d, [0u8; 16]);
        }
        "keyed-md5" => {
            let d = keyed_digest(b"flow-key-material", &[&buf]);
            assert_ne!(d, [0u8; 16]);
        }
        other => panic!("unknown primitive {other}"),
    }
    let secs = start.elapsed().as_secs_f64();
    (name.to_string(), buf.len() as f64 / 1024.0 / secs)
}

/// The protocol variants of Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// No FBS at all: the body is copied through the "stack".
    Generic,
    /// Full FBS path, MAC and encryption nullified.
    FbsNop,
    /// Keyed-MD5 MAC only (the paper's non-secret mode).
    FbsMd5,
    /// DES-CBC + keyed-MD5 (the paper's secret mode).
    FbsDesMd5,
}

impl Variant {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Generic => "GENERIC",
            Variant::FbsNop => "FBS NOP",
            Variant::FbsMd5 => "FBS MD5",
            Variant::FbsDesMd5 => "FBS DES+MD5",
        }
    }
}

/// Measured protocol-processing rate in kb/s of payload. With
/// `one_way = true`, only sender-side protection is timed — the right
/// analogue of the paper's testbed, where sender and receiver were
/// separate machines working concurrently, so the pipeline rate is set by
/// one side's per-byte cost. With `one_way = false`, the receive path is
/// timed too (the single-CPU end-to-end cost).
pub fn processing_rate_kbps(variant: Variant, payload: usize, count: usize, one_way: bool) -> f64 {
    let cfg = match variant {
        Variant::Generic => {
            // Stack pass-through: a copy stands in for the non-FBS data
            // movement.
            let body = vec![0xA5u8; payload];
            let start = Instant::now();
            let mut sink = 0u64;
            for _ in 0..count {
                let tx: Vec<u8> = body.clone();
                sink = sink.wrapping_add(tx[0] as u64);
                if !one_way {
                    let rx: Vec<u8> = tx.clone();
                    sink = sink.wrapping_add(rx[0] as u64);
                }
            }
            assert!(sink > 0 || payload == 0);
            return kbps(count * payload, start);
        }
        Variant::FbsNop => FbsConfig {
            nop_crypto: true,
            ..FbsConfig::default()
        },
        _ => FbsConfig::default(),
    };
    let secret = variant == Variant::FbsDesMd5;
    endpoint_rate_kbps(cfg, secret, payload, count, one_way, None)
}

/// [`processing_rate_kbps`] through an endpoint pair under `cfg`, after
/// one datagram warms the key caches (the steady state Fig. 8 measures);
/// both endpoints report to `obs` when given.
fn endpoint_rate_kbps(
    cfg: FbsConfig,
    secret: bool,
    payload: usize,
    count: usize,
    one_way: bool,
    obs: Option<&Arc<fbs_obs::MetricsRegistry>>,
) -> f64 {
    let body = vec![0xA5u8; payload];
    let (s, d) = principals();
    let (mut tx, mut rx, _) = endpoint_pair(cfg, DhGroup::oakley1());
    if let Some(reg) = obs {
        tx.attach_obs(Arc::clone(reg));
        rx.attach_obs(Arc::clone(reg));
    }
    let mut send = || {
        tx.send(1, Datagram::new(s.clone(), d.clone(), body.clone()), secret)
            .unwrap()
    };
    rx.receive(send()).unwrap();
    let start = Instant::now();
    for _ in 0..count {
        let pd = send();
        if one_way {
            std::hint::black_box(&pd);
        } else {
            rx.receive(pd).unwrap();
        }
    }
    kbps(count * payload, start)
}

/// Payload kb/s for `bytes` moved since `start`.
fn kbps(bytes: usize, start: Instant) -> f64 {
    bytes as f64 * 8.0 / 1000.0 / start.elapsed().as_secs_f64()
}

/// One-way protocol-processing rate per cipher suite (kb/s of payload):
/// the Fig. 8 secret-mode column re-measured under each [`CipherSuite`]
/// profile, so the fast DES-CTR and AEAD planes read side by side with
/// the paper-faithful DES+MD5 one. Returns `(suite name, kb/s)` rows in
/// `CipherSuite::ALL` order.
///
/// [`CipherSuite`]: fbs_crypto::CipherSuite
pub fn suite_rows_kbps(payload: usize, count: usize) -> Vec<(&'static str, f64)> {
    fbs_crypto::CipherSuite::ALL
        .iter()
        .map(|&suite| {
            let cfg = FbsConfig {
                suite,
                ..FbsConfig::default()
            };
            let rate = endpoint_rate_kbps(cfg, true, payload, count, true, None);
            (suite.name(), rate)
        })
        .collect()
}

/// One row of the Fig. 8 emulation.
pub struct Fig08Row {
    /// Variant name.
    pub variant: &'static str,
    /// Native protocol-processing rate (kb/s).
    pub native_kbps: f64,
    /// Effective throughput at the paper's 10 Mb/s line rate, native CPU.
    pub native_at_line: f64,
    /// Effective throughput with crypto scaled to CryptoLib/P133 rates —
    /// the column whose SHAPE should match the paper's Fig. 8.
    pub scaled_at_line: f64,
}

/// The paper's measured CryptoLib rates on the Pentium 133 (§7.2).
pub const PAPER_DES_KBS: f64 = 549.0;
/// CryptoLib MD5 rate on the Pentium 133 (§7.2).
pub const PAPER_MD5_KBS: f64 = 7060.0;
/// Paper Fig. 8 headline numbers (kb/s).
pub const PAPER_GENERIC_KBPS: f64 = 7700.0;
/// Paper Fig. 8 FBS DES+MD5 throughput (kb/s).
pub const PAPER_DESMD5_KBPS: f64 = 3400.0;

/// Goodput ceiling at 10 Mb/s after Ethernet+IP+transport+FBS headers.
fn line_goodput_kbps(variant: Variant, payload: usize) -> f64 {
    let fbs_overhead = match variant {
        Variant::Generic => 0,
        _ => 40 + 7, // header + worst padding
    };
    let per_packet = payload + 20 + 16 + fbs_overhead + 18; // IP+MRT+FBS+ethernet
    10_000.0 * payload as f64 / per_packet as f64
}

/// Run the Fig. 8 emulation for `payload`-byte datagrams.
pub fn fig08_rows(payload: usize, count: usize) -> Vec<Fig08Row> {
    // Calibration: how much faster is our DES/MD5 than CryptoLib on P133?
    let (_, des_kbs) = primitive_rate_kbs("des-cbc", 2);
    let (_, md5_kbs) = primitive_rate_kbs("md5", 4);
    let des_speedup = des_kbs / PAPER_DES_KBS;
    let md5_speedup = md5_kbs / PAPER_MD5_KBS;

    use Variant::*;
    [Generic, FbsNop, FbsMd5, FbsDesMd5]
        .into_iter()
        .map(|v| {
            // One-way rate: the testbed pipelines sender and receiver.
            let native = processing_rate_kbps(v, payload, count, true);
            // Scale the crypto share of the per-byte cost back to 1997.
            // Per byte: t_total = t_other + t_crypto. We approximate
            // t_other with the NOP/GENERIC rate and scale only t_crypto.
            let scaled = match v {
                Variant::Generic | Variant::FbsNop => native,
                Variant::FbsMd5 => scale_rate(native, md5_speedup),
                Variant::FbsDesMd5 => {
                    // Crypto share ≈ DES + MD5 passes; scale by the
                    // geometric blend of the two speedups, weighted by
                    // their 1997 per-byte costs (DES dominates).
                    let w_des = 1.0 / PAPER_DES_KBS;
                    let w_md5 = 1.0 / PAPER_MD5_KBS;
                    let blend = (w_des * des_speedup + w_md5 * md5_speedup) / (w_des + w_md5);
                    scale_rate(native, blend)
                }
            };
            Fig08Row {
                variant: v.name(),
                native_kbps: native,
                native_at_line: native.min(line_goodput_kbps(v, payload)),
                scaled_at_line: scaled.min(line_goodput_kbps(v, payload)),
            }
        })
        .collect()
}

/// Slow a measured rate down by `speedup` (how much faster our crypto is
/// than the paper's).
fn scale_rate(rate_kbps: f64, speedup: f64) -> f64 {
    rate_kbps / speedup.max(1e-9)
}

/// Re-run a small DES+MD5 exchange with a live [`fbs_obs::MetricsRegistry`]
/// attached to both endpoints and return its snapshot — Fig. 8's
/// metrics.
pub fn instrumented_snapshot(payload: usize, count: usize) -> fbs_obs::MetricsSnapshot {
    let reg = Arc::new(fbs_obs::MetricsRegistry::new());
    let cfg = FbsConfig::default();
    endpoint_rate_kbps(cfg, true, payload, count, false, Some(&reg));
    reg.snapshot()
}

/// Fig. 8 at `count` datagrams per variant: the primitive calibration,
/// the throughput emulation and the cipher-suite column. Its metrics come
/// from an instrumented exchange run after the timed loops, so
/// instrumentation cannot skew the rates.
pub fn render(count: u64) -> Figure {
    let count = count as usize;
    let mut text = String::new();

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
    text += &table(
        "primitive rates (kB/s) — ours vs CryptoLib on Pentium 133 (§7.2)",
        &["primitive", "ours kB/s", "paper kB/s", "speedup"],
        &rows,
    );
    text += "\n";

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
    text += &table(
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
    text += "\nshape check: GENERIC ≈ FBS NOP at line rate, FBS DES+MD5 crypto-bound\n\
             well below it — the paper saw 7700 → 3400 kb/s.\n\n";

    // Cipher-suite column: the secret-mode row re-measured per profile.
    let suites = suite_rows_kbps(8192, count);
    let paper_kbps = suites[0].1; // `CipherSuite::ALL` starts with the paper suite
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
    text += &table(
        "cipher suites — secret-mode one-way rate per profile, 8 KB datagrams\n\
         paper = DES-CBC + keyed-MD5 (bit-identical wire format); fast_des =\n\
         word-sliced DES-CTR + truncated MAC; aead = ChaCha20-Poly1305",
        &["suite", "native kb/s", "vs paper"],
        &rows,
    );
    Figure {
        text,
        metrics: instrumented_snapshot(8192, count.min(64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_rates_positive() {
        let (_, des) = primitive_rate_kbs("des-cbc", 1);
        let (_, md5) = primitive_rate_kbs("md5", 1);
        assert!(des > 0.0);
        assert!(md5 > des, "MD5 outruns DES, as in CryptoLib");
    }

    #[test]
    fn processing_rates_ordered() {
        // Crypto must cost something: DES+MD5 < NOP, both ways.
        for one_way in [true, false] {
            let nop = processing_rate_kbps(Variant::FbsNop, 8192, 50, one_way);
            let full = processing_rate_kbps(Variant::FbsDesMd5, 8192, 50, one_way);
            assert!(full < nop, "full {full} < nop {nop} (one_way {one_way})");
        }
    }

    #[test]
    fn suite_rows_cover_all_profiles() {
        let rows = suite_rows_kbps(2048, 40);
        assert_eq!(rows.len(), fbs_crypto::CipherSuite::ALL.len());
        for (i, (name, kbps)) in rows.iter().enumerate() {
            assert_eq!(*name, fbs_crypto::CipherSuite::ALL[i].name());
            assert!(*kbps > 0.0, "{name} rate must be positive");
        }
    }

    #[test]
    fn fig08_shape_holds() {
        let rows = fig08_rows(8192, 30);
        let by_name = |n: &str| rows.iter().find(|r| r.variant == n).unwrap();
        let generic = by_name("GENERIC");
        let nop = by_name("FBS NOP");
        let full = by_name("FBS DES+MD5");
        // Paper shape: GENERIC ≈ NOP at line rate; DES+MD5 well below
        // (once crypto is scaled to 1997 speed).
        assert!(
            (generic.scaled_at_line - nop.scaled_at_line).abs() / generic.scaled_at_line < 0.25
        );
        assert!(full.scaled_at_line < 0.75 * nop.scaled_at_line);
    }
}
