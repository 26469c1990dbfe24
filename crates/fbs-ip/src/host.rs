//! Assembly of complete FBS-secured hosts.
//!
//! A [`World`] is what the secure hosts of one simulation share, and it
//! builds them. [`SecureNet`] is the "every machine on the LAN implements
//! FBS" world of §7.3: a [`World`] on a shared segment, its clock in
//! lockstep with the network's time.

use crate::hooks::{FbsIpHooks, IpMappingConfig};
use fbs_cert::{CertificateAuthority, Directory, Pvc};
use fbs_core::{Clock, ManualClock, MasterKeyDaemon, Principal};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_net::ip::Ipv4Addr;
use fbs_net::segment::Impairments;
use fbs_net::stack::{Host, Network};
use std::sync::Arc;
use std::time::Duration;

/// Default MTU (Ethernet).
pub const DEFAULT_MTU: usize = 1500;

/// The keying half of a secure host: its private value (from `seed` and
/// the address), its certificate published in `directory`, and the MKD
/// that fetches peers' certificates through a PVC.
pub(crate) fn build_mkd(
    addr: Ipv4Addr,
    clock: &Arc<dyn Clock>,
    group: &DhGroup,
    ca: &CertificateAuthority,
    directory: &Arc<Directory>,
    seed: u64,
) -> MasterKeyDaemon {
    // Per-host entropy: seed ⊕ address. A real deployment would use OS
    // entropy; the simulation needs reproducibility.
    let mut entropy = seed.to_be_bytes().to_vec();
    entropy.extend_from_slice(&addr);
    entropy.extend_from_slice(b"fbs-private-value-entropy");
    let private = PrivateValue::from_entropy(group.clone(), &entropy);

    // Publish this host's certificate.
    let principal = Principal::from_ipv4(addr);
    let cert = ca.issue(principal, private.public_value(), 0, u64::MAX / 2);
    directory.publish(cert);

    // PVC → MKD.
    let pvc = Pvc::new(
        32,
        Arc::clone(directory) as Arc<dyn fbs_cert::CertSource>,
        ca.verifier(),
        Arc::clone(clock),
    );
    MasterKeyDaemon::new(private, Box::new(pvc))
}

/// The one construction path of a secure host's hooks: its MKD, then
/// hooks that mix `seed` with the address.
pub(crate) fn secure_hooks(
    addr: Ipv4Addr,
    cfg: IpMappingConfig,
    clock: ManualClock,
    group: &DhGroup,
    ca: &CertificateAuthority,
    directory: &Arc<Directory>,
    seed: u64,
) -> FbsIpHooks {
    let clock: Arc<dyn Clock> = Arc::new(clock);
    let mkd = build_mkd(addr, &clock, group, ca, directory, seed);
    FbsIpHooks::new(Principal::from_ipv4(addr), cfg, clock, seed, mkd)
}

/// `host` with `hooks` installed, and a handle onto them for statistics.
pub(crate) fn with_hooks(mut host: Host, hooks: FbsIpHooks) -> (Host, FbsIpHooks) {
    host.install_hooks(Box::new(hooks.clone()));
    (host, hooks)
}

/// What every secure host of one simulation shares: the clock its
/// timestamps read, the CA that signs its certificate, the directory it
/// publishes to and fetches peers from, the DH group and the seed. A
/// host's private value and its hooks' codec and sfl seeds mix the seed
/// with the host's address, so two worlds built alike key alike.
pub struct World {
    /// Virtual clock feeding every endpoint's timestamps (starts at 0).
    pub clock: ManualClock,
    pub(crate) ca: CertificateAuthority,
    pub(crate) directory: Arc<Directory>,
    pub(crate) group: DhGroup,
    pub(crate) seed: u64,
}

impl World {
    /// A world under a keyed-MD5 CA. `group` chooses the DH group —
    /// tests use [`DhGroup::test_group`] for speed, measurements the
    /// real Oakley groups.
    pub fn new(seed: u64, group: DhGroup) -> Self {
        World {
            clock: ManualClock::starting_at(0),
            ca: CertificateAuthority::new("fbs-sim-ca", [0xC4; 16]),
            // 10 ms directory RTT: a LAN certificate fetch.
            directory: Arc::new(Directory::new(Duration::from_millis(10))),
            group,
            seed,
        }
    }

    /// Like [`World::new`] but with an RSA-signing certificate authority
    /// (hosts verify with the CA's public key only — the X.509 model of
    /// §5.2). `ca_bits` sizes the CA modulus; tests use 256, realistic
    /// demos ≥512.
    pub fn new_with_rsa_ca(seed: u64, group: DhGroup, ca_bits: usize) -> Self {
        World {
            ca: CertificateAuthority::new_rsa("fbs-sim-rsa-ca", ca_bits, seed ^ 0xCA),
            ..World::new(seed, group)
        }
    }

    /// The hooks of a secure host at `addr`, with no stack behind them;
    /// its certificate is published, so peers can key to it.
    pub fn hooks(&self, addr: Ipv4Addr, cfg: IpMappingConfig) -> FbsIpHooks {
        let (clock, ca, dir) = (self.clock.clone(), &self.ca, &self.directory);
        secure_hooks(addr, cfg, clock, &self.group, ca, dir, self.seed)
    }

    /// A secure host at `addr` on a [`DEFAULT_MTU`] link, its hooks
    /// installed, and a hooks handle for statistics.
    pub fn secure_host(&self, addr: Ipv4Addr, cfg: IpMappingConfig) -> (Host, FbsIpHooks) {
        with_hooks(Host::new(addr, DEFAULT_MTU), self.hooks(addr, cfg))
    }
}

/// A simulated LAN where every host runs FBS (plus optional plain hosts
/// for the GENERIC baseline), with network time and protocol clocks in
/// lockstep.
pub struct SecureNet {
    /// The underlying network (hosts + segment).
    pub net: Network,
    /// The shared keying world; its clock follows the network's time.
    pub world: World,
    cfg: IpMappingConfig,
}

impl SecureNet {
    /// Create a secure LAN. `group` chooses the DH group — tests use
    /// [`DhGroup::test_group`] for speed, measurements use the real Oakley
    /// groups.
    pub fn new(seed: u64, imp: Impairments, cfg: IpMappingConfig, group: DhGroup) -> Self {
        SecureNet {
            net: Network::new(seed, imp),
            world: World::new(seed, group),
            cfg,
        }
    }

    /// Like [`SecureNet::new`] but on a [`World::new_with_rsa_ca`].
    pub fn new_with_rsa_ca(
        seed: u64,
        imp: Impairments,
        cfg: IpMappingConfig,
        group: DhGroup,
        ca_bits: usize,
    ) -> Self {
        SecureNet {
            net: Network::new(seed, imp),
            world: World::new_with_rsa_ca(seed, group, ca_bits),
            cfg,
        }
    }

    /// Add an FBS-enabled host; returns the hooks handle for statistics.
    pub fn add_host(&mut self, addr: Ipv4Addr) -> FbsIpHooks {
        let (host, hooks) = self.world.secure_host(addr, self.cfg.clone());
        self.net.add_host(host);
        hooks
    }

    /// Add a host WITHOUT FBS (the GENERIC baseline of Fig. 8).
    pub fn add_plain_host(&mut self, addr: Ipv4Addr) {
        self.net.add_host(Host::new(addr, DEFAULT_MTU));
    }

    /// Mutable host access.
    pub fn host_mut(&mut self, addr: Ipv4Addr) -> &mut Host {
        self.net.host_mut(addr)
    }

    /// The certificate directory (for fetch statistics).
    pub fn directory(&self) -> &Arc<Directory> {
        &self.world.directory
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.net.now_us()
    }

    /// One step: advance the network and keep the protocol clock in sync.
    pub fn step(&mut self, dt_us: u64) {
        self.net.step(dt_us);
        self.world.clock.set(self.net.now_us() / 1_000_000);
    }

    /// Run for `duration_us` of virtual time.
    pub fn run(&mut self, duration_us: u64, step_us: u64) {
        let end = self.net.now_us() + duration_us;
        while self.net.now_us() < end {
            self.step(step_us.min(end - self.net.now_us()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_net::ip::Proto;

    const A: Ipv4Addr = [192, 168, 69, 1];
    const B: Ipv4Addr = [192, 168, 69, 2];

    fn secure_pair(cfg: IpMappingConfig) -> (SecureNet, FbsIpHooks, FbsIpHooks) {
        let mut net = SecureNet::new(7, Impairments::default(), cfg, DhGroup::test_group());
        let ha = net.add_host(A);
        let hb = net.add_host(B);
        (net, ha, hb)
    }

    #[test]
    fn udp_protected_end_to_end() {
        let (mut net, ha, hb) = secure_pair(IpMappingConfig::default());
        net.host_mut(B).udp.bind(53).unwrap();
        net.host_mut(A)
            .udp_send(4000, B, 53, b"protected query", 0)
            .unwrap();
        net.run(50_000, 1_000);
        let got = net.host_mut(B).udp.recv(53).expect("datagram arrives");
        assert_eq!(got.data, b"protected query");
        assert_eq!(ha.stats().protected, 1);
        assert_eq!(hb.stats().verified, 1);
    }

    /// Send `secret` from A to B through two hosts of one world, with no
    /// network between them: the frames A puts on the wire and whether
    /// B received the plaintext.
    fn wire_frames(cfg: IpMappingConfig, secret: &[u8]) -> (Vec<Vec<u8>>, bool) {
        let world = World::new(7, DhGroup::test_group());
        let (mut a, _) = world.secure_host(A, cfg.clone());
        let (mut b, _) = world.secure_host(B, cfg);
        b.udp.bind(53).unwrap();
        a.udp_send(4000, B, 53, secret, 0).unwrap();
        let frames = a.take_frames();
        b.deliver_frames(&frames, 0);
        let received = b.udp.recv(53).is_some_and(|d| d.data == secret);
        (frames, received)
    }

    #[test]
    fn payload_is_encrypted_on_the_wire() {
        const SECRET: &[u8] = b"find me if you can!!";
        let shows = |frames: &[Vec<u8>]| {
            frames
                .iter()
                .any(|f| f.windows(SECRET.len()).any(|w| w == SECRET))
        };
        let (frames, received) = wire_frames(IpMappingConfig::default(), SECRET);
        assert!(!frames.is_empty());
        assert!(!shows(&frames), "plaintext must not appear on the wire");
        assert!(received, "B recovers the plaintext");
        // The check can fail: with crypto nullified the plaintext shows.
        let nop = IpMappingConfig {
            fbs: fbs_core::FbsConfig {
                nop_crypto: true,
                ..fbs_core::FbsConfig::default()
            },
            ..IpMappingConfig::default()
        };
        let (frames, received) = wire_frames(nop, SECRET);
        assert!(shows(&frames), "NOP leaves the plaintext on the wire");
        assert!(received);
    }

    #[test]
    fn flows_reuse_keys_across_datagrams() {
        let (mut net, ha, _hb) = secure_pair(IpMappingConfig::default());
        net.host_mut(B).udp.bind(53).unwrap();
        for i in 0..20 {
            let now = net.now_us();
            net.host_mut(A)
                .udp_send(4000, B, 53, format!("dgram {i}").as_bytes(), now)
                .unwrap();
            net.run(5_000, 1_000);
        }
        assert_eq!(net.host_mut(B).udp.pending(53), 20);
        let cs = ha.combined_stats().unwrap();
        assert_eq!(cs.new_flows, 1, "one flow for the whole conversation");
        assert_eq!(cs.hits, 19);
        assert_eq!(ha.mkd_stats().upcalls, 1, "one DH computation per pair");
    }

    #[test]
    fn mrt_bulk_transfer_through_fbs() {
        let (mut net, ha, hb) = secure_pair(IpMappingConfig::default());
        net.host_mut(B).mrt.listen(80);
        let key = net.host_mut(A).mrt.connect(2000, B, 80);
        net.run(200_000, 1_000);
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
        net.host_mut(A).mrt.send(&key, &data).unwrap();
        let mut got = Vec::new();
        for _ in 0..200 {
            net.run(100_000, 1_000);
            got.extend(net.host_mut(B).mrt.recv(&(80, A, 2000), usize::MAX));
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data, "bulk data intact through FBS protection");
        assert!(ha.stats().protected > 10);
        assert!(hb.stats().protected > 0, "ACK direction is protected too");
        // Crucially: no DF drops, because MRT's MSS accounts for the FBS
        // header (the tcp_output fix).
        assert_eq!(net.host_mut(A).stats().would_fragment_drops, 0);
    }

    #[test]
    fn without_mss_fix_df_segments_are_dropped() {
        // Reproduce the §7.2 bug: install hooks without telling MRT about
        // the header overhead. Filled-to-MSS DF segments then exceed the
        // MTU after FBS insertion and die with WouldFragment.
        let mut net = SecureNet::new(
            7,
            Impairments::default(),
            IpMappingConfig::default(),
            DhGroup::test_group(),
        );
        let _ha = net.add_host(A);
        let _hb = net.add_host(B);
        net.host_mut(A).mrt.set_overhead_allowance(0);

        net.host_mut(B).mrt.listen(80);
        let key = net.host_mut(A).mrt.connect(2000, B, 80);
        net.run(200_000, 1_000);
        let data = vec![0u8; 20_000];
        net.host_mut(A).mrt.send(&key, &data).unwrap();
        net.run(2_000_000, 1_000);
        assert!(
            net.host_mut(A).stats().would_fragment_drops > 0,
            "unpatched MSS calculation must hit WouldFragment"
        );
        let received = net.host_mut(B).mrt.recv(&(80, A, 2000), usize::MAX);
        assert!(
            received.len() < data.len(),
            "bulk transfer cannot complete while full-MSS segments drop"
        );
    }

    #[test]
    fn tampering_on_the_wire_is_dropped_by_input_hook() {
        let imp = Impairments {
            corrupt: 0.5,
            ..Impairments::default()
        };
        let mut net = SecureNet::new(21, imp, IpMappingConfig::default(), DhGroup::test_group());
        let _ha = net.add_host(A);
        let hb = net.add_host(B);
        net.host_mut(B).udp.bind(53).unwrap();
        for i in 0..40 {
            let now = net.now_us();
            net.host_mut(A)
                .udp_send(4000, B, 53, format!("msg {i}").as_bytes(), now)
                .unwrap();
            net.run(5_000, 1_000);
        }
        net.run(100_000, 1_000);
        let delivered = net.host_mut(B).udp.pending(53);
        let hook_rejects = hb.stats().input_errors;
        let header_drops = net.host_mut(B).stats().header_drops;
        // Every corrupted frame must be caught somewhere: IP checksum,
        // FBS MAC, or (rarely) UDP checksum. Roughly half were corrupted.
        assert!(delivered < 40);
        assert!(
            hook_rejects + header_drops > 0,
            "corruption must surface in drop counters"
        );
    }

    #[test]
    fn bypass_protocol_is_never_protected() {
        let (mut net, ha, _) = secure_pair(IpMappingConfig::default());
        net.host_mut(A)
            .bypass_send(B, b"certificate fetch", 0)
            .unwrap();
        net.run(20_000, 1_000);
        let (_, data) = net.host_mut(B).bypass_recv().unwrap();
        assert_eq!(data, b"certificate fetch", "bypass travels in the clear");
        assert_eq!(ha.stats().protected, 0);
    }

    #[test]
    fn flow_expiry_starts_new_flow_after_threshold() {
        let cfg = IpMappingConfig {
            threshold_secs: 10,
            ..IpMappingConfig::default()
        };
        let (mut net, ha, _) = secure_pair(cfg);
        net.host_mut(B).udp.bind(53).unwrap();
        net.host_mut(A).udp_send(4000, B, 53, b"one", 0).unwrap();
        net.run(50_000, 1_000);
        // Idle 20 virtual seconds > THRESHOLD 10.
        net.run(20_000_000, 500_000);
        let now = net.now_us();
        net.host_mut(A).udp_send(4000, B, 53, b"two", now).unwrap();
        net.run(50_000, 1_000);
        assert_eq!(net.host_mut(B).udp.pending(53), 2);
        assert_eq!(ha.combined_stats().unwrap().new_flows, 2);
    }

    #[test]
    fn rsa_ca_secured_lan_end_to_end() {
        // Full pipeline with public-key certificates: issue, publish,
        // fetch, RSA-verify per use, derive keys, protect traffic.
        let mut net = SecureNet::new_with_rsa_ca(
            11,
            Impairments::default(),
            IpMappingConfig::default(),
            DhGroup::test_group(),
            256,
        );
        let ha = net.add_host(A);
        let _hb = net.add_host(B);
        net.host_mut(B).udp.bind(53).unwrap();
        net.host_mut(A)
            .udp_send(4000, B, 53, b"pki-backed datagram", 0)
            .unwrap();
        net.run(50_000, 1_000);
        assert_eq!(
            net.host_mut(B).udp.recv(53).unwrap().data,
            b"pki-backed datagram"
        );
        assert_eq!(ha.stats().protected, 1);
    }

    #[test]
    fn raw_ip_host_level_flows_extension() {
        // Footnote 10: with the extension on, ICMP-like raw IP is
        // protected as host-level flows — one flow per (proto, src, dst).
        let cfg = IpMappingConfig {
            cover_raw_ip: true,
            ..IpMappingConfig::default()
        };
        let mut net = SecureNet::new(9, Impairments::default(), cfg, DhGroup::test_group());
        let ha = net.add_host(A);
        net.add_host(B);
        for i in 0..4 {
            let now = net.now_us();
            net.host_mut(A)
                .raw_send(1, B, format!("ping {i}").as_bytes(), now)
                .unwrap();
            net.run(10_000, 1_000);
        }
        // Delivered, decrypted, and all four share ONE host-level flow.
        let mut got = 0;
        while let Some((proto, src, data)) = net.host_mut(B).raw_recv() {
            assert_eq!(proto, 1);
            assert_eq!(src, A);
            assert!(data.starts_with(b"ping"));
            got += 1;
        }
        assert_eq!(got, 4);
        assert_eq!(ha.stats().protected, 4);
        let cs = ha.combined_stats().unwrap();
        assert_eq!(cs.new_flows, 1, "host-level: one flow for all pings");
    }

    #[test]
    fn raw_ip_uncovered_by_default() {
        let (mut net, ha, _) = secure_pair(IpMappingConfig::default());
        net.host_mut(A)
            .raw_send(1, B, b"unprotected ping", 0)
            .unwrap();
        net.run(10_000, 1_000);
        let (_, _, data) = net.host_mut(B).raw_recv().unwrap();
        assert_eq!(data, b"unprotected ping", "travels in the clear");
        assert_eq!(ha.stats().protected, 0);
    }

    #[test]
    fn covers_only_transport_protocols() {
        let (_, ha, _) = secure_pair(IpMappingConfig::default());
        let mut h = ha.clone();
        use fbs_net::SecurityHooks as _;
        assert!(h.covers(Proto::Mrt.number()));
        assert!(h.covers(Proto::Udp.number()));
        assert!(!h.covers(Proto::Bypass.number()));
        assert!(!h.covers(1)); // ICMP: raw IP is out of scope (§7.1 fn 10)
        let _ = &mut h;
    }
}
