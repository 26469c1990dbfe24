//! The §7.2 router-transparency claim, end to end: FBS-protected traffic
//! crosses a pure-IP forwarding router (which contains zero FBS code) and
//! verifies on the far side — including when the router must fragment.

use fbs_core::ManualClock;
use fbs_crypto::dh::DhGroup;
use fbs_ip::hooks::IpMappingConfig;
use fbs_ip::host::World as SecureWorld;
use fbs_net::router::TwoLanWorld;
use fbs_net::segment::Impairments;
use fbs_net::Host;

const A1: [u8; 4] = [10, 1, 0, 1];
const B1: [u8; 4] = [10, 2, 0, 1];

struct World {
    w: TwoLanWorld,
    clock: ManualClock,
    ha: fbs_ip::FbsIpHooks,
    hb: fbs_ip::FbsIpHooks,
}

impl World {
    fn step_all(&mut self, duration_us: u64) {
        let end = self.w.now_us() + duration_us;
        while self.w.now_us() < end {
            self.w.step(1_000);
            self.clock.set(self.w.now_us() / 1_000_000);
        }
    }
}

fn secure_two_lan_world(mtu_b: usize) -> World {
    let secure = SecureWorld::new(0xAB, DhGroup::test_group());
    let cfg = IpMappingConfig::default();

    let (host_a, ha) = secure.secure_host(A1, cfg.clone());
    let hb = secure.hooks(B1, cfg);
    let mut host_b = Host::new(B1, mtu_b);
    host_b.install_hooks(Box::new(hb.clone()));

    let mut w = TwoLanWorld::new(
        9,
        Impairments::default(),
        Impairments::default(),
        1500,
        mtu_b,
    );
    w.add_host_a(host_a);
    w.add_host_b(host_b);
    World {
        w,
        clock: secure.clock,
        ha,
        hb,
    }
}

#[test]
fn fbs_traffic_verifies_across_the_router() {
    let mut world = secure_two_lan_world(1500);
    world.w.host_mut(B1).udp.bind(53).unwrap();
    for i in 0..5 {
        let now = world.w.now_us();
        world
            .w
            .host_mut(A1)
            .udp_send(4000, B1, 53, format!("hop {i}").as_bytes(), now)
            .unwrap();
        world.step_all(50_000);
    }
    assert_eq!(world.w.host_mut(B1).udp.pending(53), 5);
    assert_eq!(world.ha.stats().protected, 5);
    assert_eq!(world.hb.stats().verified, 5);
    assert_eq!(world.w.router_stats().forwarded, 5);
    // The router did plain IP forwarding — FBS never touched it.
    assert_eq!(world.hb.stats().input_errors, 0);
}

#[test]
fn router_fragmentation_is_transparent_to_fbs() {
    // LAN B has a 576-byte MTU: the router fragments every full-size
    // protected datagram; host B reassembles BEFORE the FBS input hook
    // (parts 2 then 3 of ip_input), so verification still succeeds — one
    // security flow header protecting the whole datagram, exactly as §7.2
    // promises.
    let mut world = secure_two_lan_world(576);
    world.w.host_mut(B1).udp.bind(53).unwrap();
    let big = vec![0x42u8; 1200];
    world
        .w
        .host_mut(A1)
        .udp_send(4000, B1, 53, &big, 0)
        .unwrap();
    world.step_all(300_000);
    assert!(world.w.router_stats().fragmented >= 1);
    let got = world
        .w
        .host_mut(B1)
        .udp
        .recv(53)
        .expect("verified delivery");
    assert_eq!(got.data, big);
    assert_eq!(world.hb.stats().verified, 1);
    assert_eq!(world.hb.stats().input_errors, 0);
}

#[test]
fn mrt_bulk_transfer_across_router() {
    let mut world = secure_two_lan_world(1500);
    world.w.host_mut(B1).mrt.listen(80);
    let key = world.w.host_mut(A1).mrt.connect(2000, B1, 80);
    world.step_all(500_000);
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    world.w.host_mut(A1).mrt.send(&key, &data).unwrap();
    let mut got = Vec::new();
    for _ in 0..100 {
        world.step_all(100_000);
        got.extend(world.w.host_mut(B1).mrt.recv(&(80, A1, 2000), usize::MAX));
        if got.len() >= data.len() {
            break;
        }
    }
    assert_eq!(got, data, "reliable protected transfer across the router");
    // No DF drops at the router: MRT sized its segments for its own MTU
    // and the FBS allowance, and both LANs share that MTU.
    assert_eq!(world.w.router_stats().df_drops, 0);
}
