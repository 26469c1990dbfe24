//! Secure chat over REAL UDP sockets, demonstrating that FBS is
//! layer-independent: the same abstract protocol that runs inside the
//! simulated IP stack here runs over `std::net::UdpSocket`.
//!
//! Run a demo conversation on loopback:
//!     cargo run --example secure_chat
//!
//! Or run two interactive endpoints in separate terminals:
//!     cargo run --example secure_chat -- listen 127.0.0.1:7001
//!     cargo run --example secure_chat -- connect 127.0.0.1:7002 127.0.0.1:7001
//!
//! (The demo principals use compiled-in deterministic key material — this
//! is a protocol demonstration, not a secure messenger.)

use fbs::core::policy::IdleTimeoutPolicy;
use fbs::core::{
    Datagram, Fam, FbsConfig, FbsEndpoint, MasterKeyDaemon, PinnedDirectory, Principal,
    ProtectedDatagram, SflAllocator, SystemClock,
};
use fbs::crypto::dh::{DhGroup, PrivateValue};
use fbs::net::transport::{DatagramTransport, UdpTransport};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// Both demo endpoints derive their private values from fixed entropy, so
/// two independently-started processes agree without any key exchange —
/// the zero-message-keying property, live.
fn endpoint_for(role: &str, peer_role: &str) -> FbsEndpoint {
    let group = DhGroup::oakley1();
    let my_priv = PrivateValue::from_entropy(
        group.clone(),
        format!("chat-demo-{role}-entropy-material").as_bytes(),
    );
    let peer_priv = PrivateValue::from_entropy(
        group,
        format!("chat-demo-{peer_role}-entropy-material").as_bytes(),
    );
    let mut dir = PinnedDirectory::new();
    dir.pin(Principal::named(peer_role), peer_priv.public_value());
    FbsEndpoint::new(
        Principal::named(role),
        FbsConfig::default(),
        Arc::new(SystemClock),
        std::process::id() as u64 ^ 0xC0FFEE,
        MasterKeyDaemon::new(my_priv, Box::new(dir)),
    )
}

fn send_line(
    endpoint: &mut FbsEndpoint,
    fam: &mut Fam<String, IdleTimeoutPolicy>,
    transport: &UdpTransport,
    peer_addr: &str,
    peer_role: &str,
    line: &str,
) {
    let dgram = Datagram::new(
        endpoint.local().clone(),
        Principal::named(peer_role),
        line.as_bytes().to_vec(),
    );
    let pd = endpoint
        .send_classified(fam, format!("chat:{peer_role}"), dgram, true)
        .expect("protect");
    transport
        .send_to(peer_addr, &pd.encode_payload())
        .expect("udp send");
}

fn recv_line(
    endpoint: &mut FbsEndpoint,
    transport: &UdpTransport,
    peer_role: &str,
    timeout: Duration,
) -> Option<String> {
    let (_, wire) = transport.recv_timeout(timeout).ok()??;
    let pd = ProtectedDatagram::decode_payload(
        Principal::named(peer_role),
        endpoint.local().clone(),
        &wire,
    )
    .ok()?;
    match endpoint.receive(pd) {
        Ok(d) => Some(String::from_utf8_lossy(&d.body).into_owned()),
        Err(e) => {
            eprintln!("[dropped datagram: {e}]");
            None
        }
    }
}

fn demo() {
    println!("loopback demo: alice and bob chat over real UDP\n");
    let ta = UdpTransport::bind("127.0.0.1:0").expect("bind a");
    let tb = UdpTransport::bind("127.0.0.1:0").expect("bind b");
    let (addr_a, addr_b) = (ta.local_name().to_string(), tb.local_name().to_string());

    let mut alice = endpoint_for("alice", "bob");
    let mut bob = endpoint_for("bob", "alice");
    let mut fam_a = Fam::new(32, IdleTimeoutPolicy::new(600), SflAllocator::new(1));
    let mut fam_b = Fam::new(32, IdleTimeoutPolicy::new(600), SflAllocator::new(2));

    let script = [
        (
            "alice",
            "hi bob — this datagram was DES-encrypted under a flow key",
        ),
        (
            "bob",
            "hi alice — and no key-exchange packet ever crossed the wire",
        ),
        (
            "alice",
            "the sfl in the header let you derive the key yourself",
        ),
        ("bob", "zero-message keying. neat trick for 1997."),
    ];
    for (who, line) in script {
        if who == "alice" {
            send_line(&mut alice, &mut fam_a, &ta, &addr_b, "bob", line);
            if let Some(got) = recv_line(&mut bob, &tb, "alice", Duration::from_secs(2)) {
                println!("alice -> bob: {got}");
            }
        } else {
            send_line(&mut bob, &mut fam_b, &tb, &addr_a, "alice", line);
            if let Some(got) = recv_line(&mut alice, &ta, "bob", Duration::from_secs(2)) {
                println!("bob -> alice: {got}");
            }
        }
    }
    println!(
        "\nalice sent {} datagrams, {} flow(s), {} DH computation(s)",
        alice.stats().sends,
        fam_a.stats().new_flows,
        alice.mkd_stats().upcalls
    );
}

fn interactive(role: &str, local: &str, peer: Option<&str>) {
    let peer_role = if role == "listen" {
        "connect"
    } else {
        "listen"
    };
    let transport = UdpTransport::bind(local).expect("bind");
    let mut endpoint = endpoint_for(role, peer_role);
    let mut fam = Fam::new(32, IdleTimeoutPolicy::new(600), SflAllocator::new(7));
    println!("bound {}; type lines to send", transport.local_name());
    let mut peer_addr = peer.map(str::to_string);

    let stdin = std::io::stdin();
    loop {
        // Drain incoming.
        while let Ok(Some((from, wire))) = transport.try_recv() {
            if let Ok(pd) = ProtectedDatagram::decode_payload(
                Principal::named(peer_role),
                endpoint.local().clone(),
                &wire,
            ) {
                match endpoint.receive(pd) {
                    Ok(d) => {
                        println!("<{peer_role}> {}", String::from_utf8_lossy(&d.body));
                        peer_addr.get_or_insert(from);
                    }
                    Err(e) => eprintln!("[rejected: {e}]"),
                }
            }
        }
        print!("> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        match &peer_addr {
            Some(addr) => send_line(&mut endpoint, &mut fam, &transport, addr, peer_role, line),
            None => println!("[no peer yet — wait for an incoming message]"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => demo(),
        Some("listen") => interactive(
            "listen",
            args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7001"),
            None,
        ),
        Some("connect") => {
            let local = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7002");
            let peer = args.get(3).map(String::as_str).unwrap_or("127.0.0.1:7001");
            interactive("connect", local, Some(peer))
        }
        Some(other) => eprintln!("unknown mode {other}; use: listen | connect"),
    }
}
