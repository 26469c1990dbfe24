//! The §2/§7.4 paradigm comparison: identical workloads pushed through
//! every keying scheme, with cost counters and wall-clock timing.

use crate::{table, Figure};
use fbs_baselines::{
    FbsService, HostPairService, Kdc, KeySource, PerDatagramService, SecureDatagramService,
    SessionExchangeService, SessionKdcService,
};
use fbs_core::Principal;
use fbs_crypto::dh::DhGroup;
use fbs_crypto::{Bbs, Lcg64};
use std::time::Instant;

/// One row of the paradigm comparison.
pub struct ParadigmRow {
    /// Scheme name.
    pub scheme: String,
    /// Wall time for the whole workload (protect+unprotect), seconds.
    pub secs: f64,
    /// Modular exponentiations performed.
    pub modexp: u64,
    /// Hash key derivations performed.
    pub key_derivations: u64,
    /// Cryptographically-strong random bytes consumed.
    pub strong_random: u64,
    /// Setup messages exchanged.
    pub setup_messages: u64,
    /// Hard state entries held.
    pub hard_state: u64,
    /// Datagram semantics preserved?
    pub datagram_semantics: bool,
}

/// Workload: `conversations` conversations of `datagrams_each` datagrams
/// of `payload` bytes to one peer.
pub struct Workload {
    /// Number of distinct conversations (flows).
    pub conversations: u64,
    /// Datagrams per conversation.
    pub datagrams_each: u64,
    /// Payload size in bytes.
    pub payload: usize,
}

fn drive(
    tx: &mut dyn SecureDatagramService,
    rx: &mut dyn SecureDatagramService,
    tx_name: &Principal,
    rx_name: &Principal,
    w: &Workload,
) -> ParadigmRow {
    let payload = vec![0x42u8; w.payload];
    let start = Instant::now();
    for conv in 0..w.conversations {
        for _ in 0..w.datagrams_each {
            let wire = tx.protect(rx_name, conv, &payload).expect("protect");
            let pt = rx.unprotect(tx_name, conv, &wire).expect("unprotect");
            assert_eq!(pt.len(), w.payload);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let c = tx.cost();
    ParadigmRow {
        scheme: tx.name().to_string(),
        secs,
        modexp: c.master_key_computations,
        key_derivations: c.key_derivations,
        strong_random: c.strong_random_bytes,
        setup_messages: c.setup_messages,
        hard_state: c.hard_state_entries,
        datagram_semantics: tx.preserves_datagram_semantics(),
    }
}

/// Run the workload through every paradigm. `group` sizes the DH work
/// (use [`DhGroup::oakley1`] for real measurements, the test group for CI).
pub fn compare_paradigms(w: &Workload, group: &DhGroup) -> Vec<ParadigmRow> {
    let mut rows = Vec::new();

    // FBS.
    {
        let (mut a, mut b, a_name, b_name, _) = FbsService::pair(group);
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    // Host-pair.
    {
        let (mut a, mut b, a_name, b_name) = HostPairService::pair(group, ("alice", "bob"));
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    // Per-datagram, LCG keys (insecure but fast).
    {
        let (mut a, mut b, a_name, b_name) = PerDatagramService::pair(
            group,
            KeySource::Lcg(Lcg64::new(0x111)),
            KeySource::Lcg(Lcg64::new(0x222)),
        );
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    // Per-datagram, BBS keys (the §2.2 bottleneck).
    {
        let (mut a, mut b, a_name, b_name) = PerDatagramService::pair(
            group,
            KeySource::Bbs(Box::new(Bbs::with_default_modulus(b"bench-seed-a"))),
            KeySource::Bbs(Box::new(Bbs::with_default_modulus(b"bench-seed-b"))),
        );
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    // KDC sessions.
    {
        let kdc = Kdc::new(0x777, u64::MAX / 2);
        let a_name = Principal::named("alice");
        let b_name = Principal::named("bob");
        let mut a = SessionKdcService::new(a_name.clone(), [0xAA; 16], kdc.clone(), 1);
        let mut b = SessionKdcService::new(b_name.clone(), [0xBB; 16], kdc, 2);
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    // Negotiated sessions.
    {
        let (mut a, mut b, a_name, b_name) = SessionExchangeService::pair(group);
        rows.push(drive(&mut a, &mut b, &a_name, &b_name, w));
    }
    rows
}

/// The §2/§7.4 paradigm table at `conversations` conversations of 50
/// datagrams of 1 KB, Oakley group 1. It has no metrics.
pub fn render(conversations: u64) -> Figure {
    let w = Workload {
        conversations,
        datagrams_each: 50,
        payload: 1024,
    };
    let total = w.conversations * w.datagrams_each;
    let rows: Vec<Vec<String>> = compare_paradigms(&w, &DhGroup::oakley1())
        .into_iter()
        .map(|r| {
            vec![
                r.scheme,
                format!("{:.1}", total as f64 / r.secs / 1000.0),
                r.modexp.to_string(),
                r.key_derivations.to_string(),
                r.strong_random.to_string(),
                r.setup_messages.to_string(),
                r.hard_state.to_string(),
                if r.datagram_semantics { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let text = format!(
        "workload: {} conversations x {} datagrams x {} B, Oakley group 1\n\n{}\n\
         §7.4's claims, quantified: FBS derives keys per FLOW (vs per\n\
         datagram for SKIP-style schemes), needs zero setup messages (vs\n\
         session schemes), and keeps no hard state; the BBS row shows the\n\
         §2.2 cryptographically-random-key bottleneck.\n",
        w.conversations,
        w.datagrams_each,
        w.payload,
        table(
            "keying paradigms (§2, §7.4)",
            &[
                "scheme",
                "kdgram/s",
                "modexp",
                "keyderiv",
                "strongRNG B",
                "setup msgs",
                "hard state",
                "dgram sem",
            ],
            &rows,
        )
    );
    Figure {
        text,
        ..Figure::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paradigms_complete_the_workload() {
        let w = Workload {
            conversations: 3,
            datagrams_each: 4,
            payload: 256,
        };
        let rows = compare_paradigms(&w, &DhGroup::test_group());
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.scheme.as_str()).collect();
        assert!(names.contains(&"fbs"));
        assert!(names.contains(&"host-pair"));
        assert!(names.contains(&"session-kdc"));
    }

    #[test]
    fn fbs_keys_per_flow_skip_keys_per_datagram() {
        // §7.4: "key generation need only be done on a per-flow basis
        // rather than a per-datagram basis."
        let w = Workload {
            conversations: 5,
            datagrams_each: 10,
            payload: 128,
        };
        let rows = compare_paradigms(&w, &DhGroup::test_group());
        let get = |n: &str| rows.iter().find(|r| r.scheme == n).unwrap();
        let fbs = get("fbs");
        let per_dgram = get("per-datagram(lcg)");
        // FBS sender: 5 flow keys (one per conversation); per-datagram
        // sender: one key per datagram = 50.
        assert_eq!(fbs.key_derivations, 5);
        assert_eq!(per_dgram.key_derivations, 50);
        assert_eq!(fbs.setup_messages, 0);
        assert!(fbs.datagram_semantics);
        assert!(!get("session-kdc").datagram_semantics);
        assert_eq!(get("per-datagram(bbs)").strong_random, 50 * 8);
    }
}
