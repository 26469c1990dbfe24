//! The system under test and the closed loop that drives it.
//!
//! Two FBS hosts from `fbs_ip::build_secure_host` share one CA, one
//! directory and one fixed clock. One driver thread keeps one burst
//! outstanding: build UDP datagrams → `A.ip_output_batch` →
//! `A.take_frames` → in-memory hand-off (the link; no socket is
//! crossed) → `B.deliver_frames` → drain `B.udp.recv` and compare every
//! payload with what was sent.

use crate::trace::{Recorder, TimedHooks};
use crate::workload::{
    pick_flows, Flow, Rng, Suite, Workload, A, B, DST_PORTS, DST_PORT_BASE, SHARDS,
};
use fbs_cert::{CertificateAuthority, Directory};
use fbs_core::{FbsConfig, ManualClock};
use fbs_crypto::dh::DhGroup;
use fbs_crypto::CipherSuite;
use fbs_ip::{build_secure_host, FbsIpHooks, IpMappingConfig};
use fbs_net::ip::{Ipv4Header, Proto};
use fbs_net::{udp, Host};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Link MTU.
pub const MTU: usize = 1500;
/// Virtual time, held fixed inside the freshness window for the whole
/// run.
const NOW_SECS: u64 = 1_000;
const NOW_US: u64 = NOW_SECS * 1_000_000;
/// Sentinel for "no datagram of this flow received yet".
const NONE_YET: u64 = u64::MAX;

/// The hosts' configuration for a workload.
pub fn mapping_config(w: &Workload) -> IpMappingConfig {
    let fbs = FbsConfig {
        nop_crypto: w.suite == Suite::Nop,
        suite: match w.suite {
            Suite::Nop => CipherSuite::Paper,
            Suite::Aead => CipherSuite::AeadChaPoly,
        },
        rfkc_sets: w.rfkc.0,
        rfkc_assoc: w.rfkc.1,
        ..FbsConfig::default()
    };
    IpMappingConfig {
        fst_size: w.fst_size,
        encrypt: true,
        shards: SHARDS,
        // With two CPUs at most two threads are ever runnable: the
        // driver and the worker it waits on.
        workers: 1,
        fbs,
        ..IpMappingConfig::default()
    }
}

/// What the driver remembers of one datagram of the burst in flight.
struct Sent {
    flow: u32,
    forged: bool,
    seen: bool,
}

/// Counts of one burst (or of many, summed).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Datagrams handed to `ip_output`.
    pub attempted: u64,
    /// Legitimate datagrams received byte-identical and in flow order.
    pub delivered: u64,
    /// Datagrams whose frame the link forged.
    pub forged: u64,
    /// Legitimate datagrams lost, damaged or reordered, plus forged
    /// datagrams accepted.
    pub failed: u64,
}

impl Tally {
    /// Add another tally to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.forged += other.forged;
        self.failed += other.failed;
    }
}

/// Two hosts, the flow population and the state of the closed loop.
pub struct World {
    /// The workload being run.
    pub wl: Workload,
    /// Sender.
    pub a: Host,
    /// Receiver.
    pub b: Host,
    /// Statistics handle onto the sender's hooks.
    pub hooks_a: FbsIpHooks,
    /// Statistics handle onto the receiver's hooks.
    pub hooks_b: FbsIpHooks,
    /// The CA both hosts' certificates come from.
    pub ca: CertificateAuthority,
    /// The directory both hosts fetch certificates from.
    pub directory: Arc<Directory>,
    /// The hosts' clock.
    pub clock: ManualClock,
    /// The flow population in visiting order.
    pub flows: Vec<Flow>,
    /// Everything this world has carried so far.
    pub total: Tally,
    /// Per flow: sequence number of the last datagram received.
    last_seq: Vec<u64>,
    cursor: usize,
    next_seq: u64,
    /// Seeded bytes every payload is a window of.
    pattern: Vec<u8>,
    data: Vec<u8>,
    sent: Vec<Sent>,
    rng: Rng,
    recorder: Option<Arc<Mutex<Recorder>>>,
    /// A failure injected on purpose by `--smoke --break`: the link
    /// marks frames as forged without damaging them, which is how a
    /// system that accepts forgeries would look to the checks.
    pub forge_without_damage: bool,
}

impl World {
    /// Build CA, directory, both hosts (DH values, certificates, hooks
    /// with their worker threads) and bind the receiver's ports. `flows`
    /// overrides the population size (the smoke run shrinks it).
    pub fn build(wl: &Workload, flows: usize, seed: u64) -> World {
        let mut rng = Rng::new(seed ^ 0xF1B5_0E2E);
        let clock = ManualClock::starting_at(NOW_SECS);
        let ca = CertificateAuthority::new("fbs-e2e-benchmark-ca", [0xE2; 16]);
        let directory = Arc::new(Directory::new(Duration::ZERO));
        let group = DhGroup::oakley2();
        let cfg = mapping_config(wl);
        let (a, hooks_a) = build_secure_host(
            A,
            MTU,
            cfg.clone(),
            clock.clone(),
            &group,
            &ca,
            &directory,
            seed,
        );
        let (mut b, hooks_b) = build_secure_host(
            B,
            MTU,
            cfg,
            clock.clone(),
            &group,
            &ca,
            &directory,
            seed.wrapping_add(1),
        );
        for p in 0..DST_PORTS {
            b.udp.bind(DST_PORT_BASE + p).expect("fresh port binds");
        }
        let flows = pick_flows(wl, flows, &mut rng);
        let pattern = (0..wl.payload + 256)
            .map(|_| rng.next_u64() as u8)
            .collect();
        World {
            wl: *wl,
            a,
            b,
            hooks_a,
            hooks_b,
            ca,
            directory,
            clock,
            last_seq: vec![NONE_YET; flows.len()],
            flows,
            total: Tally::default(),
            cursor: 0,
            next_seq: 0,
            pattern,
            data: Vec::with_capacity(wl.payload),
            sent: Vec::new(),
            rng,
            recorder: None,
            forge_without_damage: false,
        }
    }

    /// Record spans into `recorder` — the closed loop's calls from
    /// here, the hooks from a timing wrapper installed into both hosts
    /// in place of the plain handles — or, with `None`, stop recording
    /// and put the plain handles back.
    pub fn set_tracing(&mut self, recorder: Option<Arc<Mutex<Recorder>>>) {
        for (host, hooks) in [(&mut self.a, &self.hooks_a), (&mut self.b, &self.hooks_b)] {
            host.install_hooks(match &recorder {
                Some(rec) => Box::new(TimedHooks::new(hooks.clone(), Arc::clone(rec))),
                None => Box::new(hooks.clone()),
            });
        }
        self.recorder = recorder;
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut World) -> T) -> T {
        let Some(rec) = self.recorder.clone() else {
            return f(self);
        };
        let id = rec.lock().expect("recorder lock").open(name);
        let out = f(self);
        rec.lock().expect("recorder lock").close(id);
        out
    }

    /// Offset into `pattern` of the payload window for `seq`.
    fn window(seq: u64) -> usize {
        (seq.wrapping_mul(0x9E37_79B9) >> 8) as usize & 0xFF
    }

    /// Build the next datagram of the visiting order: 8-byte sequence
    /// number + a window of the seeded pattern, in a UDP segment.
    fn next_datagram(&mut self) -> (Ipv4Header, Vec<u8>) {
        let flow_idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.flows.len();
        let flow = self.flows[flow_idx];
        let seq = self.next_seq;
        self.next_seq += 1;
        let off = Self::window(seq);
        self.data.clear();
        self.data.extend_from_slice(&seq.to_be_bytes());
        self.data
            .extend_from_slice(&self.pattern[off..off + self.wl.payload - 8]);
        let seg = udp::encode(A, B, flow.sport, flow.dport, &self.data);
        self.sent.push(Sent {
            flow: flow_idx as u32,
            forged: false,
            seen: false,
        });
        (Ipv4Header::new(A, B, Proto::Udp, seg.len()), seg)
    }

    /// The link: nothing but the forger. Flips one bit in the last byte
    /// of a seeded share of frames and marks their datagrams as forged.
    fn link(&mut self, frames: &mut [Vec<u8>]) {
        if self.wl.forged_per_mille == 0 {
            return;
        }
        assert_eq!(
            frames.len(),
            self.sent.len(),
            "forging needs one frame per datagram"
        );
        for (frame, sent) in frames.iter_mut().zip(&mut self.sent) {
            if self.rng.below(1000) < self.wl.forged_per_mille as u64 {
                let bit = 1 << self.rng.below(8);
                if !self.forge_without_damage {
                    *frame.last_mut().expect("non-empty frame") ^= bit;
                }
                sent.forged = true;
            }
        }
    }

    /// Check one received datagram against what was sent. `base` is the
    /// sequence number of the first datagram of the burst in flight.
    fn check(&mut self, base: u64, dport: u16, d: &udp::UdpDatagram, tally: &mut Tally) {
        let ok = (|| {
            let seq = u64::from_be_bytes(d.data.get(..8)?.try_into().ok()?);
            let sent = self
                .sent
                .get_mut(usize::try_from(seq.checked_sub(base)?).ok()?)?;
            let flow = self.flows[sent.flow as usize];
            if sent.seen || d.src != A || d.src_port != flow.sport || dport != flow.dport {
                return None;
            }
            sent.seen = true;
            if sent.forged {
                return None;
            }
            let off = Self::window(seq);
            if d.data.len() != self.wl.payload
                || d.data[8..] != self.pattern[off..off + self.wl.payload - 8]
            {
                return None;
            }
            // Sequence numbers rise with send order, so a flow is in
            // order exactly when its own sequence numbers rise.
            let last = &mut self.last_seq[sent.flow as usize];
            if *last != NONE_YET && *last >= seq {
                return None;
            }
            *last = seq;
            Some(())
        })();
        match ok {
            Some(()) => tally.delivered += 1,
            None => tally.failed += 1,
        }
    }

    /// Drain every bound port and verify what arrived.
    fn drain(&mut self, base: u64, tally: &mut Tally) {
        for p in 0..DST_PORTS {
            let port = DST_PORT_BASE + p;
            while let Some(d) = self.b.udp.recv(port) {
                self.check(base, port, &d, tally);
            }
        }
    }

    /// One closed-loop round of `n` datagrams through the batch entry
    /// points.
    pub fn burst(&mut self, n: usize) -> Tally {
        let mut tally = Tally {
            attempted: n as u64,
            ..Tally::default()
        };
        if let Some(rec) = &self.recorder {
            rec.lock().expect("recorder lock").begin_burst(n);
        }
        self.sent.clear();
        let base = self.next_seq;
        let items = self.span("udp.encode", |w| {
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(w.next_datagram());
            }
            items
        });
        let results = self.span("stack.tx", |w| w.a.ip_output_batch(items, NOW_US));
        let frames = self.span("link", |w| {
            let mut frames = w.a.take_frames();
            w.link(&mut frames);
            frames
        });
        self.span("stack.rx", |w| w.b.deliver_frames(&frames, NOW_US));
        self.span("udp.recv", |w| w.drain(base, &mut tally));
        // The link owns the frames, so freeing them is its cost.
        self.span("link", |_| drop(frames));
        if let Some(rec) = &self.recorder {
            rec.lock().expect("recorder lock").end_burst();
        }
        self.settle(&results, &mut tally);
        tally
    }

    /// One datagram alone through the scalar entry points. Returns the
    /// time from the `ip_output` call to the payload popped from
    /// `udp.recv`.
    pub fn single(&mut self) -> Duration {
        let mut tally = Tally {
            attempted: 1,
            ..Tally::default()
        };
        self.sent.clear();
        let base = self.next_seq;
        let (header, seg) = self.next_datagram();
        let dport = self.flows[self.sent[0].flow as usize].dport;
        let t0 = Instant::now();
        let result = self.a.ip_output(header, seg, NOW_US);
        let mut frames = self.a.take_frames();
        self.link(&mut frames);
        for f in &frames {
            self.b.deliver_frame(f, NOW_US);
        }
        let got = self.b.udp.recv(dport);
        let elapsed = t0.elapsed();
        if let Some(d) = got {
            self.check(base, dport, &d, &mut tally);
        }
        self.drain(base, &mut tally);
        self.settle(&[result], &mut tally);
        elapsed
    }

    /// Close a round's books: output errors and legitimate datagrams
    /// that never arrived are failures.
    fn settle(&mut self, results: &[fbs_net::error::Result<()>], tally: &mut Tally) {
        tally.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        for s in &self.sent {
            if s.forged {
                tally.forged += 1;
            } else if !s.seen {
                tally.failed += 1;
            }
        }
        self.total.add(*tally);
    }

    /// The warm-up trial: every flow keyed at least once, tables and
    /// pools grown, both entry-point shapes exercised.
    pub fn warm_up(&mut self, bursts: usize, singles: usize) {
        for _ in 0..bursts {
            self.burst(self.wl.burst);
        }
        for _ in 0..singles {
            self.single();
        }
    }
}
