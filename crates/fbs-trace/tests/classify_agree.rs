//! The figures classify like the datapath.
//!
//! Figs. 9-14 run `flowsim` over one `Fam<FiveTuple, FiveTuplePolicy>`
//! per source host: the flow state table `Fst` counting each flow's use,
//! in one `classify` call per datagram. The datapath keeps each flow's
//! key in the same table (the `CombinedFst` configuration of §7.2) and
//! splits the call around the key derive: probe by the tuple's CRC,
//! reserve the sfl, insert by the same CRC.
//! At the same size and THRESHOLD, and with the same sfl allocator, both
//! must give every datagram the same sfl, start the same flows and count
//! the same collisions: the figures then differ from the datapath only
//! in table size.

use fbs_core::{EncAlgorithm, Fam, FlowKey, Fst, SealedFlowKey, SflAllocator};
use fbs_crypto::{CipherSuite, MacAlgorithm};
use fbs_ip::combined::{insert_hashed_key, CombinedFst};
use fbs_ip::{FiveTuple, FiveTuplePolicy};
use fbs_trace::{generate_campus_trace, generate_www_trace, CampusConfig, PacketRecord, WwwConfig};
use std::collections::HashMap;

/// The figures' trace seed and length (`fbs_bench::figs`).
const TRACE_SEED: u64 = 1997;
const MINUTES: u64 = 120;
const THRESHOLD_SECS: u64 = 600;

fn traces() -> [(&'static str, Vec<PacketRecord>); 2] {
    let duration_secs = MINUTES * 60;
    [
        (
            "campus",
            generate_campus_trace(&CampusConfig {
                seed: TRACE_SEED,
                duration_secs,
                ..CampusConfig::default()
            }),
        ),
        (
            "www",
            generate_www_trace(&WwwConfig {
                seed: TRACE_SEED,
                duration_secs,
                ..WwwConfig::default()
            }),
        ),
    ]
}

/// Flows started and collisions, summed over source hosts.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    flows: u64,
    collisions: u64,
}

/// Replay `trace` per source host through both tables of `size` slots,
/// asserting that every datagram gets the same sfl from each.
fn replay(name: &str, trace: &[PacketRecord], size: usize) -> (Totals, Totals) {
    type Pair = (Fam<FiveTuple, FiveTuplePolicy>, CombinedFst);
    // The table stores a key per flow; which key is irrelevant here.
    let key = SealedFlowKey::seal_for(
        FlowKey::new(&[7; 16]),
        CipherSuite::AeadChaPoly,
        MacAlgorithm::Poly1305,
        EncAlgorithm::ChaCha20,
    );
    let mut hosts: HashMap<[u8; 4], Pair> = HashMap::new();
    for (i, r) in trace.iter().enumerate() {
        let (fam, combined) = hosts.entry(r.tuple.saddr).or_insert_with(|| {
            let seed = u32::from_be_bytes(r.tuple.saddr) as u64;
            let policy = FiveTuplePolicy::new(THRESHOLD_SECS);
            (
                Fam::new(size, policy, SflAllocator::new(seed)),
                Fst::new(size, policy, SflAllocator::new(seed)),
            )
        });
        let now = r.t_secs();
        let fam_sfl = fam.classify(r.tuple, now, r.len as u64).sfl;
        let crc = FiveTuplePolicy::crc(&r.tuple);
        let combined_sfl = match combined.probe_hashed(crc, &r.tuple, now) {
            Some((sfl, _)) => sfl,
            None => {
                let sfl = combined.reserve_sfl();
                insert_hashed_key(combined, crc, r.tuple, sfl, key.clone(), now);
                sfl
            }
        };
        assert_eq!(
            fam_sfl, combined_sfl,
            "{name}, {size} slots: datagram {i} ({:?} at {now} s)",
            r.tuple
        );
    }
    let mut fam_totals = Totals::default();
    let mut combined_totals = Totals::default();
    for (fam, combined) in hosts.values() {
        let f = fam.stats();
        fam_totals.flows += f.new_flows;
        fam_totals.collisions += f.collisions;
        let c = combined.stats();
        combined_totals.flows += c.new_flows;
        combined_totals.collisions += c.collisions;
    }
    (fam_totals, combined_totals)
}

#[test]
fn the_figures_fam_and_the_datapaths_combined_table_agree() {
    for (name, trace) in traces() {
        // The datapath's default FSTSIZE, then the figures' size.
        for size in [64, 4096] {
            let (fam, combined) = replay(name, &trace, size);
            assert_eq!(fam, combined, "{name}, {size} slots");
            assert!(fam.flows > 0, "{name}: the trace starts flows");
            // The small table must exercise the collision path, or the
            // agreement says nothing about it.
            if size == 64 {
                assert!(fam.collisions > 0, "{name}: no collisions at 64 slots");
            }
        }
    }
}
