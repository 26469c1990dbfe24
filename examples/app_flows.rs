//! Application-layer flows: the §4 claim that flows are meaningful at any
//! layer, demonstrated above the transport.
//!
//! Run with: `cargo run --example app_flows`
//!
//! A conferencing app multiplexes three media "conversations" — video,
//! audio, whiteboard — over ONE socket pair. At the IP layer all of it is
//! a single 5-tuple, so the Fig. 7 policy would make it one flow. At the
//! application layer, the app knows its own conversation structure and
//! plugs a custom policy into the FAM: each medium becomes its own flow
//! with its own key, and the whiteboard (which carries document edits) can
//! be rekeyed aggressively with a wear-out policy while video is not.

use fbs::core::policy::{IdleTimeoutPolicy, WearOutPolicy};
use fbs::core::{
    Datagram, Fam, FbsConfig, FbsEndpoint, ManualClock, MasterKeyDaemon, PinnedDirectory,
    Principal, SflAllocator,
};
use fbs::crypto::dh::{DhGroup, PrivateValue};
use std::sync::Arc;

fn endpoints(clock: &ManualClock) -> (FbsEndpoint, FbsEndpoint) {
    let group = DhGroup::oakley1();
    let a_priv = PrivateValue::from_entropy(group.clone(), b"conf-sender-entropy!");
    let b_priv = PrivateValue::from_entropy(group, b"conf-receiver-entropy");
    let sender = Principal::named("conference-sender");
    let receiver = Principal::named("conference-receiver");
    let mut da = PinnedDirectory::new();
    da.pin(receiver.clone(), b_priv.public_value());
    let mut db = PinnedDirectory::new();
    db.pin(sender.clone(), a_priv.public_value());
    (
        FbsEndpoint::new(
            sender,
            FbsConfig::default(),
            Arc::new(clock.clone()),
            0xA99,
            MasterKeyDaemon::new(a_priv, Box::new(da)),
        ),
        FbsEndpoint::new(
            receiver,
            FbsConfig::default(),
            Arc::new(clock.clone()),
            0xB99,
            MasterKeyDaemon::new(b_priv, Box::new(db)),
        ),
    )
}

fn main() {
    let clock = ManualClock::starting_at(50_000);
    let (mut tx, mut rx) = endpoints(&clock);

    // The application-layer policy: media conversations expire after 60 s
    // idle, and ANY flow is rekeyed after 64 KB or 10 minutes — a policy
    // no network-layer mapper could express, because only the app knows
    // which bytes belong to which medium.
    let policy = WearOutPolicy::new(IdleTimeoutPolicy::new(60), 64 * 1024, 600);
    let mut fam = Fam::new(32, policy, SflAllocator::new(0x515));

    let schedule: [(&str, usize, usize); 3] = [
        ("video", 40, 1200),      // 40 frames of 1200 B
        ("audio", 100, 160),      // 100 packets of 160 B
        ("whiteboard", 30, 3000), // 30 edits of 3000 B — crosses 64 KB
    ];

    let mut per_medium_sfls: Vec<(&str, Vec<u64>)> = Vec::new();
    for (medium, count, size) in schedule {
        let mut sfls = Vec::new();
        for i in 0..count {
            let body = vec![i as u8; size];
            let d = Datagram::new(
                Principal::named("conference-sender"),
                Principal::named("conference-receiver"),
                body,
            );
            let pd = tx
                .send_classified(&mut fam, medium.to_string(), d, true)
                .expect("protect");
            if !sfls.contains(&pd.header.sfl) {
                sfls.push(pd.header.sfl);
            }
            let got = rx.receive(pd).expect("verify");
            assert_eq!(got.body.len(), size);
            clock.advance(1); // one second between packets
        }
        per_medium_sfls.push((medium, sfls));
    }

    println!("one socket pair, three application conversations:\n");
    for (medium, sfls) in &per_medium_sfls {
        println!(
            "  {medium:<11} -> {} flow(s): {:?}",
            sfls.len(),
            sfls.iter().map(|s| format!("0x{s:x}")).collect::<Vec<_>>()
        );
    }
    let flows = |m: usize| per_medium_sfls[m].1.len();
    assert_eq!(
        (flows(0), flows(1)),
        (1, 1),
        "video and audio: one flow each"
    );
    assert!(
        flows(2) >= 2,
        "the whiteboard rekeys at the 64 KiB wear-out"
    );
    let wb = &per_medium_sfls[2].1;
    println!(
        "\nthe whiteboard crossed the 64 KB wear-out limit and was rekeyed\n\
         {} time(s) — zero messages exchanged, the receiver just derived\n\
         each new key from the sfl in the header (§5.2's rekeying story).",
        wb.len() - 1
    );
    println!(
        "\nsender stats: {} datagrams, {} master key computation(s)",
        tx.stats().sends,
        tx.mkd_stats().upcalls
    );
}
