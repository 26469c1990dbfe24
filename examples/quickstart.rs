//! Quickstart: two FBS-secured hosts on a simulated 10 Mb/s Ethernet
//! segment exchange protected UDP datagrams.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Demonstrates the whole §7 pipeline end to end: certificate publication,
//! zero-message keying (no handshake packets appear on the wire!), flow
//! association over the 5-tuple, header insertion between the IP header
//! and payload, and soft-state key caching.

use fbs::crypto::dh::DhGroup;
use fbs::ip::hooks::IpMappingConfig;
use fbs::ip::host::SecureNet;
use fbs::net::segment::Impairments;

const ALICE: [u8; 4] = [192, 168, 69, 1];
const BOB: [u8; 4] = [192, 168, 69, 2];

fn main() {
    // A clean 10 Mb/s segment, like the paper's testbed. DH group 1 keeps
    // the master-key computation realistic (768-bit modexp).
    let mut net = SecureNet::new(
        42,
        Impairments::default(),
        IpMappingConfig::default(),
        DhGroup::oakley1(),
    );
    let alice_hooks = net.add_host(ALICE);
    let bob_hooks = net.add_host(BOB);

    net.host_mut(BOB).udp.bind(4242).expect("bind port");

    println!("sending 5 protected datagrams from alice to bob...");
    for i in 0..5 {
        let now = net.now_us();
        net.host_mut(ALICE)
            .udp_send(
                5000,
                BOB,
                4242,
                format!("secured datagram #{i}").as_bytes(),
                now,
            )
            .expect("send");
        net.run(20_000, 1_000); // 20 ms of virtual time
    }

    println!("\nbob received:");
    while let Some(d) = net.host_mut(BOB).udp.recv(4242) {
        println!(
            "  from {}.{}.{}.{}:{}  {:?}",
            d.src[0],
            d.src[1],
            d.src[2],
            d.src[3],
            d.src_port,
            String::from_utf8_lossy(&d.data)
        );
    }

    // The zero-message-keying story, in numbers:
    let a = alice_hooks.stats();
    let mkd = alice_hooks.mkd_stats();
    let combined = alice_hooks.combined_stats().expect("combined path");
    println!("\nalice's FBS statistics:");
    println!("  datagrams protected:        {}", a.protected);
    println!(
        "  flows started:              {} (one conversation = one flow)",
        combined.new_flows
    );
    println!(
        "  flow-key cache hits:        {} (key derived once, then cached)",
        combined.hits
    );
    println!(
        "  Diffie-Hellman exchanges:   {} message(s) on the wire for keying",
        0
    );
    println!(
        "  master key computations:    {} (amortised over every flow to bob)",
        mkd.upcalls
    );
    println!(
        "  certificate fetches:        {} ({} µs simulated RTT)",
        net.world.directory().stats().fetches,
        net.world.directory().stats().simulated_rtt_us,
    );
    println!("\nbob verified {} datagrams.", bob_hooks.stats().verified);
}
