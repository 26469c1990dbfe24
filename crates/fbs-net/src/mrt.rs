//! MRT: a mini reliable transport standing in for TCP.
//!
//! The paper's only change outside IP was in `tcp_output.c` (§7.2): BSD's
//! TCP computes exactly how much data fits in a packet without triggering
//! fragmentation, fills the packet to that size, and sets DF — which
//! breaks the moment FBS inserts its header. The fix is to include the FBS
//! header size in the segment-size calculation. MRT reproduces that exact
//! behaviour: data segments are filled to a computed MSS and sent with DF;
//! the MSS calculation takes a *security overhead allowance* that must
//! match what the output hook inserts, or DF-protected segments blow the
//! MTU (observable as [`crate::NetError::WouldFragment`] drops).
//!
//! The protocol itself is a deliberately small TCP subset: three-way
//! handshake, byte-stream sequence numbers, cumulative ACKs, a fixed
//! segment window with go-back-N retransmission and exponential backoff,
//! FIN teardown. No congestion control, SACK, or window scaling — none of
//! which the paper's experiments depend on.

use crate::error::{NetError, Result};
use crate::ip::{Ipv4Addr, IPV4_HEADER_LEN};
use fbs_obs::{Event, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// MRT header length.
pub const MRT_HEADER_LEN: usize = 16;

/// Default retransmission timeout (virtual microseconds).
pub const DEFAULT_RTO_US: u64 = 200_000;

/// Give-up threshold: consecutive unanswered retransmissions.
pub const MAX_RETRIES: u32 = 8;

/// Segment flags (a tiny hand-rolled bitset, keeping dependencies to the
/// approved list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flags(pub u8);

impl Flags {
    /// No flags set.
    pub const EMPTY: Flags = Flags(0);
    /// Connection request.
    pub const SYN: Flags = Flags(1);
    /// Acknowledgement field is valid.
    pub const ACK: Flags = Flags(2);
    /// Sender has finished sending.
    pub const FIN: Flags = Flags(4);

    /// Does `self` contain all bits of `other`?
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union.
    pub fn or(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }
}

/// An MRT segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MrtHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement: next byte expected.
    pub ack: u32,
    /// Segment flags.
    pub flags: Flags,
    /// Payload length.
    pub len: u16,
}

impl MrtHeader {
    /// Serialise header followed by `data`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.len as usize, data.len());
        let mut out = Vec::with_capacity(MRT_HEADER_LEN + data.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(self.flags.0);
        out.push(0); // reserved
        out.extend_from_slice(&self.len.to_be_bytes());
        out.extend_from_slice(data);
        out
    }

    /// Parse a segment into header + payload.
    pub fn decode(segment: &[u8]) -> Result<(Self, &[u8])> {
        if segment.len() < MRT_HEADER_LEN {
            return Err(NetError::Malformed("short MRT header"));
        }
        let h = MrtHeader {
            src_port: u16::from_be_bytes([segment[0], segment[1]]),
            dst_port: u16::from_be_bytes([segment[2], segment[3]]),
            seq: u32::from_be_bytes([segment[4], segment[5], segment[6], segment[7]]),
            ack: u32::from_be_bytes([segment[8], segment[9], segment[10], segment[11]]),
            flags: Flags(segment[12]),
            len: u16::from_be_bytes([segment[14], segment[15]]),
        };
        if MRT_HEADER_LEN + h.len as usize != segment.len() {
            return Err(NetError::Malformed("MRT length mismatch"));
        }
        Ok((h, &segment[MRT_HEADER_LEN..]))
    }
}

/// Connection identity: (local port, remote address, remote port).
pub type ConnKey = (u16, Ipv4Addr, u16);

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// SYN sent, awaiting SYN|ACK.
    SynSent,
    /// SYN received (passive open), awaiting ACK.
    SynReceived,
    /// Data may flow.
    Established,
    /// FIN sent, awaiting its ACK.
    FinWait,
    /// Fully closed by the normal handshake.
    Closed,
    /// Terminal failure: retransmission gave up after `MAX_RETRIES`
    /// (see [`Conn::error`] for the cause). Distinguishable from an
    /// orderly [`ConnState::Closed`] so callers can tell "peer finished"
    /// from "peer unreachable" and react (re-dial, report, degrade).
    Failed,
}

/// One connection's state block.
pub struct Conn {
    /// Current state.
    pub state: ConnState,
    /// Remote endpoint.
    pub remote: (Ipv4Addr, u16),
    // Send side.
    send_buf: VecDeque<u8>,
    /// Sequence of the first byte in `send_buf` (oldest unacked).
    snd_una: u32,
    /// Next sequence to transmit new data at.
    snd_nxt: u32,
    /// Receive side: next expected sequence.
    rcv_nxt: u32,
    /// In-order received bytes awaiting the application.
    recv_buf: VecDeque<u8>,
    /// Remote sent FIN and we've consumed everything before it.
    pub remote_closed: bool,
    /// Local application asked to close.
    closing: bool,
    fin_sent: bool,
    // Timers.
    rto_us: u64,
    retransmit_at: Option<u64>,
    retries: u32,
    /// Terminal error, if the connection was aborted.
    pub error: Option<NetError>,
    // Stats.
    /// Segments retransmitted.
    pub retransmissions: u64,
    /// Payload bytes the application sent.
    pub bytes_sent: u64,
    /// Payload bytes delivered to the application.
    pub bytes_received: u64,
}

impl Conn {
    fn new(remote: (Ipv4Addr, u16), iss: u32, state: ConnState) -> Self {
        Conn {
            state,
            remote,
            send_buf: VecDeque::new(),
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            remote_closed: false,
            closing: false,
            fin_sent: false,
            rto_us: DEFAULT_RTO_US,
            retransmit_at: None,
            retries: 0,
            error: None,
            retransmissions: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Unacknowledged bytes in flight (including SYN/FIN units).
    fn in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }
}

/// A segment MRT wants transmitted, plus the DF requirement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination host.
    pub dst: Ipv4Addr,
    /// Wire bytes (MRT header + payload).
    pub bytes: Vec<u8>,
    /// Data segments are sized to fit exactly and must not be fragmented
    /// (the BSD tcp_output behaviour the paper interacts with).
    pub dont_fragment: bool,
}

/// Host-level MRT: listeners + connections. Segments carry no addresses —
/// the IP layer provides them — so the layer itself is address-free.
pub struct MrtLayer {
    listeners: std::collections::HashSet<u16>,
    conns: HashMap<ConnKey, Conn>,
    /// Link MTU, for the MSS computation.
    mtu: usize,
    /// Bytes reserved for security headers inserted below us. Setting this
    /// correctly IS the paper's tcp_output fix; setting it to zero while a
    /// hook inserts headers reproduces the bug.
    overhead_allowance: usize,
    /// Maximum segments in flight.
    window_segments: u32,
    /// Initial send sequence counter (deterministic for the simulator).
    next_iss: u32,
    /// Segments dropped because no listener/connection matched.
    pub resets: u64,
    obs: Option<Arc<MetricsRegistry>>,
}

impl MrtLayer {
    /// Create the layer for a host with the given link MTU.
    pub fn new(mtu: usize) -> Self {
        MrtLayer {
            listeners: Default::default(),
            conns: HashMap::new(),
            mtu,
            overhead_allowance: 0,
            window_segments: 8,
            next_iss: 1000,
            resets: 0,
            obs: None,
        }
    }

    /// Attach a metrics registry: every go-back-N or handshake
    /// retransmission emits [`Event::MrtRetransmit`].
    pub fn set_obs(&mut self, registry: Arc<MetricsRegistry>) {
        self.obs = Some(registry);
    }

    /// Reserve `bytes` of each packet for security headers (the fix).
    pub fn set_overhead_allowance(&mut self, bytes: usize) {
        self.overhead_allowance = bytes;
    }

    /// Maximum payload per data segment: fill the MTU exactly, minus IP,
    /// MRT and security headers (BSD tcp_output's calculation + the fix).
    pub fn mss(&self) -> usize {
        self.mtu
            .saturating_sub(IPV4_HEADER_LEN + MRT_HEADER_LEN + self.overhead_allowance)
            .max(1)
    }

    /// Start listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Active-open a connection; returns its key. Emits the SYN via the
    /// next [`poll`](Self::poll).
    pub fn connect(&mut self, local_port: u16, remote: Ipv4Addr, remote_port: u16) -> ConnKey {
        let key = (local_port, remote, remote_port);
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(64_000);
        let mut conn = Conn::new((remote, remote_port), iss, ConnState::SynSent);
        conn.retransmit_at = Some(0); // fire immediately
        self.conns.insert(key, conn);
        key
    }

    /// Queue application data for sending.
    pub fn send(&mut self, key: &ConnKey, data: &[u8]) -> Result<()> {
        let conn = self
            .conns
            .get_mut(key)
            .ok_or(NetError::Connection("no such connection"))?;
        if conn.closing || matches!(conn.state, ConnState::Closed | ConnState::Failed) {
            return Err(NetError::Connection("connection closing"));
        }
        conn.send_buf.extend(data);
        conn.bytes_sent += data.len() as u64;
        Ok(())
    }

    /// Read available in-order data.
    pub fn recv(&mut self, key: &ConnKey, max: usize) -> Vec<u8> {
        match self.conns.get_mut(key) {
            Some(conn) => {
                let n = conn.recv_buf.len().min(max);
                conn.recv_buf.drain(..n).collect()
            }
            None => Vec::new(),
        }
    }

    /// Application close: FIN once the send buffer drains.
    pub fn close(&mut self, key: &ConnKey) {
        if let Some(conn) = self.conns.get_mut(key) {
            conn.closing = true;
        }
    }

    /// Connection state, if it exists.
    pub fn state(&self, key: &ConnKey) -> Option<ConnState> {
        self.conns.get(key).map(|c| c.state)
    }

    /// Direct access to a connection (stats, flags).
    pub fn conn(&self, key: &ConnKey) -> Option<&Conn> {
        self.conns.get(key)
    }

    /// Process an incoming MRT segment from `src`.
    pub fn deliver(&mut self, src: Ipv4Addr, segment: &[u8], now_us: u64) -> Vec<Outgoing> {
        let Ok((h, payload)) = MrtHeader::decode(segment) else {
            return Vec::new();
        };
        let key: ConnKey = (h.dst_port, src, h.src_port);
        let mut out = Vec::new();

        // Passive open.
        if !self.conns.contains_key(&key) {
            if h.flags.contains(Flags::SYN) && self.listeners.contains(&h.dst_port) {
                let iss = self.next_iss;
                self.next_iss = self.next_iss.wrapping_add(64_000);
                let mut conn = Conn::new((src, h.src_port), iss, ConnState::SynReceived);
                conn.rcv_nxt = h.seq.wrapping_add(1);
                conn.retransmit_at = Some(now_us + conn.rto_us);
                // SYN|ACK consumes one sequence unit.
                let synack = MrtHeader {
                    src_port: h.dst_port,
                    dst_port: h.src_port,
                    seq: iss,
                    ack: conn.rcv_nxt,
                    flags: Flags::SYN.or(Flags::ACK),
                    len: 0,
                };
                conn.snd_nxt = iss.wrapping_add(1);
                self.conns.insert(key, conn);
                out.push(Outgoing {
                    dst: src,
                    bytes: synack.encode(&[]),
                    dont_fragment: false,
                });
            } else {
                self.resets += 1;
            }
            return out;
        }

        let conn = self.conns.get_mut(&key).unwrap();

        // ACK processing.
        if h.flags.contains(Flags::ACK) {
            let acked = h.ack.wrapping_sub(conn.snd_una);
            if acked > 0 && acked <= conn.in_flight() {
                // Progress: drop acked bytes from the buffer. SYN/FIN
                // sequence units have no buffer bytes.
                let buffered = conn.send_buf.len() as u32;
                let from_buf = acked.min(buffered);
                conn.send_buf.drain(..from_buf as usize);
                conn.snd_una = h.ack;
                conn.retries = 0;
                conn.rto_us = DEFAULT_RTO_US;
                conn.retransmit_at = if conn.in_flight() > 0 {
                    Some(now_us + conn.rto_us)
                } else {
                    None
                };
            }
            match conn.state {
                ConnState::SynSent if h.flags.contains(Flags::SYN) => {
                    conn.state = ConnState::Established;
                    conn.rcv_nxt = h.seq.wrapping_add(1);
                    // Bare ACK completes the handshake.
                    let ack = MrtHeader {
                        src_port: key.0,
                        dst_port: key.2,
                        seq: conn.snd_nxt,
                        ack: conn.rcv_nxt,
                        flags: Flags::ACK,
                        len: 0,
                    };
                    out.push(Outgoing {
                        dst: src,
                        bytes: ack.encode(&[]),
                        dont_fragment: false,
                    });
                }
                ConnState::SynReceived => {
                    conn.state = ConnState::Established;
                }
                ConnState::FinWait if conn.in_flight() == 0 => {
                    conn.state = ConnState::Closed;
                }
                _ => {}
            }
        }

        // Data / FIN processing (only sensible once synchronised).
        if matches!(
            conn.state,
            ConnState::Established | ConnState::FinWait | ConnState::Closed
        ) {
            if h.len > 0 && h.seq == conn.rcv_nxt {
                conn.recv_buf.extend(payload);
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(h.len as u32);
                conn.bytes_received += h.len as u64;
            }
            // Out-of-order or duplicate data falls through to a re-ACK
            // (go-back-N receiver). A FIN is accepted once every byte
            // before it has been consumed; it occupies one sequence unit.
            if h.flags.contains(Flags::FIN)
                && !conn.remote_closed
                && h.seq.wrapping_add(h.len as u32) == conn.rcv_nxt
            {
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                conn.remote_closed = true;
            }
            if h.len > 0 || h.flags.contains(Flags::FIN) {
                let ack = MrtHeader {
                    src_port: key.0,
                    dst_port: key.2,
                    seq: conn.snd_nxt,
                    ack: conn.rcv_nxt,
                    flags: Flags::ACK,
                    len: 0,
                };
                out.push(Outgoing {
                    dst: src,
                    bytes: ack.encode(&[]),
                    dont_fragment: false,
                });
            }
        }
        out
    }

    /// Drive timers and the send window; returns segments to transmit.
    pub fn poll(&mut self, now_us: u64) -> Vec<Outgoing> {
        let mss = self.mss() as u32;
        let window_bytes = self.window_segments * mss;
        let mut out = Vec::new();
        for (key, conn) in self.conns.iter_mut() {
            // Retransmission timer.
            let timed_out = conn.retransmit_at.is_some_and(|t| now_us >= t)
                && (conn.in_flight() > 0 || conn.state == ConnState::SynSent);
            if timed_out {
                conn.retries += 1;
                if conn.retries > MAX_RETRIES {
                    conn.state = ConnState::Failed;
                    conn.error = Some(NetError::Connection("max retries exceeded"));
                    conn.retransmit_at = None;
                    continue;
                }
                conn.rto_us = (conn.rto_us * 2).min(8_000_000);
                conn.retransmit_at = Some(now_us + conn.rto_us);
                match conn.state {
                    ConnState::SynSent => {
                        if conn.retries > 1 {
                            conn.retransmissions += 1;
                            if let Some(reg) = &self.obs {
                                reg.record(Event::MrtRetransmit);
                            }
                        }
                        let syn = MrtHeader {
                            src_port: key.0,
                            dst_port: key.2,
                            seq: conn.snd_una,
                            ack: 0,
                            flags: Flags::SYN,
                            len: 0,
                        };
                        // SYN consumes one unit.
                        conn.snd_nxt = conn.snd_una.wrapping_add(1);
                        out.push(Outgoing {
                            dst: conn.remote.0,
                            bytes: syn.encode(&[]),
                            dont_fragment: false,
                        });
                        continue;
                    }
                    ConnState::SynReceived => {
                        conn.retransmissions += 1;
                        if let Some(reg) = &self.obs {
                            reg.record(Event::MrtRetransmit);
                        }
                        let synack = MrtHeader {
                            src_port: key.0,
                            dst_port: key.2,
                            seq: conn.snd_una,
                            ack: conn.rcv_nxt,
                            flags: Flags::SYN.or(Flags::ACK),
                            len: 0,
                        };
                        out.push(Outgoing {
                            dst: conn.remote.0,
                            bytes: synack.encode(&[]),
                            dont_fragment: false,
                        });
                        continue;
                    }
                    _ => {
                        // Go-back-N: rewind transmission to snd_una.
                        conn.retransmissions += 1;
                        if let Some(reg) = &self.obs {
                            reg.record(Event::MrtRetransmit);
                        }
                        let rewound = conn.snd_nxt.wrapping_sub(conn.snd_una);
                        conn.snd_nxt = conn.snd_una;
                        if conn.fin_sent && rewound > 0 {
                            conn.fin_sent = false; // FIN will be resent too
                        }
                    }
                }
            }

            if conn.state != ConnState::Established && conn.state != ConnState::FinWait {
                continue;
            }

            // Transmit new data within the window.
            while conn.in_flight() < window_bytes {
                let offset = conn.snd_nxt.wrapping_sub(conn.snd_una) as usize;
                let available = conn.send_buf.len().saturating_sub(offset);
                if available == 0 {
                    break;
                }
                let take = available.min(mss as usize);
                let chunk: Vec<u8> = conn
                    .send_buf
                    .iter()
                    .skip(offset)
                    .take(take)
                    .copied()
                    .collect();
                let seg = MrtHeader {
                    src_port: key.0,
                    dst_port: key.2,
                    seq: conn.snd_nxt,
                    ack: conn.rcv_nxt,
                    flags: Flags::ACK,
                    len: chunk.len() as u16,
                };
                conn.snd_nxt = conn.snd_nxt.wrapping_add(chunk.len() as u32);
                out.push(Outgoing {
                    dst: conn.remote.0,
                    bytes: seg.encode(&chunk),
                    // Filled-to-MSS data: exactly the BSD DF behaviour.
                    dont_fragment: true,
                });
                if conn.retransmit_at.is_none() {
                    conn.retransmit_at = Some(now_us + conn.rto_us);
                }
            }

            // FIN once everything is sent and acked.
            if conn.closing
                && !conn.fin_sent
                && conn.send_buf.is_empty()
                && conn.in_flight() == 0
                && conn.state == ConnState::Established
            {
                let fin = MrtHeader {
                    src_port: key.0,
                    dst_port: key.2,
                    seq: conn.snd_nxt,
                    ack: conn.rcv_nxt,
                    flags: Flags::FIN.or(Flags::ACK),
                    len: 0,
                };
                conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
                conn.fin_sent = true;
                conn.state = ConnState::FinWait;
                conn.retransmit_at = Some(now_us + conn.rto_us);
                out.push(Outgoing {
                    dst: conn.remote.0,
                    bytes: fin.encode(&[]),
                    dont_fragment: false,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = [10, 0, 0, 1];
    const B: Ipv4Addr = [10, 0, 0, 2];

    #[test]
    fn header_roundtrip() {
        let h = MrtHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0xDEAD,
            ack: 0xBEEF,
            flags: Flags::SYN.or(Flags::ACK),
            len: 3,
        };
        let bytes = h.encode(b"abc");
        let (parsed, data) = MrtHeader::decode(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(data, b"abc");
    }

    #[test]
    fn length_mismatch_rejected() {
        let h = MrtHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: Flags::EMPTY,
            len: 3,
        };
        let mut bytes = h.encode(b"abc");
        bytes.push(0);
        assert!(MrtHeader::decode(&bytes).is_err());
    }

    /// Shuttle segments between two MrtLayers directly (no IP/loss).
    fn pump(a: &mut MrtLayer, b: &mut MrtLayer, now: &mut u64) {
        for _ in 0..50 {
            *now += 1_000;
            let from_a = a.poll(*now);
            let from_b = b.poll(*now);
            let mut quiet = from_a.is_empty() && from_b.is_empty();
            let mut replies = Vec::new();
            for seg in from_a {
                replies.extend(b.deliver(A, &seg.bytes, *now));
                quiet = false;
            }
            for seg in from_b {
                replies.extend(a.deliver(B, &seg.bytes, *now));
                quiet = false;
            }
            for seg in replies {
                // ACKs generated inside deliver(); route to the right side.
                if seg.dst == A {
                    a.deliver(B, &seg.bytes, *now);
                } else {
                    b.deliver(A, &seg.bytes, *now);
                }
            }
            if quiet {
                break;
            }
        }
    }

    #[test]
    fn handshake_and_data_transfer() {
        let mut a = MrtLayer::new(1500);
        let mut b = MrtLayer::new(1500);
        b.listen(80);
        let key = a.connect(2000, B, 80);
        let mut now = 0u64;
        pump(&mut a, &mut b, &mut now);
        assert_eq!(a.state(&key), Some(ConnState::Established));

        a.send(&key, b"hello over mrt").unwrap();
        pump(&mut a, &mut b, &mut now);
        let bkey = (80, A, 2000);
        assert_eq!(b.recv(&bkey, 1024), b"hello over mrt");
    }

    #[test]
    fn bulk_transfer_spans_many_segments() {
        let mut a = MrtLayer::new(1500);
        let mut b = MrtLayer::new(1500);
        b.listen(80);
        let key = a.connect(2000, B, 80);
        let mut now = 0u64;
        pump(&mut a, &mut b, &mut now);
        let data: Vec<u8> = (0..20_000u32).map(|i| i as u8).collect();
        a.send(&key, &data).unwrap();
        let bkey = (80, A, 2000);
        let mut got = Vec::new();
        for _ in 0..100 {
            pump(&mut a, &mut b, &mut now);
            got.extend(b.recv(&bkey, usize::MAX));
            if got.len() == data.len() {
                break;
            }
        }
        assert_eq!(got, data);
    }

    #[test]
    fn mss_accounts_for_security_overhead() {
        let mut m = MrtLayer::new(1500);
        assert_eq!(m.mss(), 1500 - 20 - 16);
        m.set_overhead_allowance(40); // FBS header
        assert_eq!(m.mss(), 1500 - 20 - 16 - 40);
    }

    #[test]
    fn data_segments_fill_mss_with_df() {
        let mut a = MrtLayer::new(1500);
        let mut b = MrtLayer::new(1500);
        b.listen(80);
        let key = a.connect(2000, B, 80);
        let mut now = 0u64;
        pump(&mut a, &mut b, &mut now);
        a.send(&key, &vec![0u8; 5000]).unwrap();
        now += 1000;
        let segs = a.poll(now);
        let data_segs: Vec<_> = segs
            .iter()
            .filter(|s| s.bytes.len() > MRT_HEADER_LEN)
            .collect();
        assert!(!data_segs.is_empty());
        // First segments are filled exactly to the MSS and marked DF.
        assert_eq!(data_segs[0].bytes.len() - MRT_HEADER_LEN, a.mss());
        assert!(data_segs[0].dont_fragment);
    }

    #[test]
    fn retransmission_on_loss() {
        let mut a = MrtLayer::new(1500);
        let mut b = MrtLayer::new(1500);
        b.listen(80);
        let key = a.connect(2000, B, 80);
        let mut now = 0u64;
        pump(&mut a, &mut b, &mut now);
        a.send(&key, b"lost data").unwrap();
        // Generate but drop the data segment.
        now += 1000;
        let segs = a.poll(now);
        assert!(!segs.is_empty());
        // Wait past the RTO; the retransmission should appear.
        now += DEFAULT_RTO_US * 3;
        let retrans = a.poll(now);
        assert!(
            retrans.iter().any(|s| s.bytes.len() > MRT_HEADER_LEN),
            "expected a retransmitted data segment"
        );
        assert!(a.conn(&key).unwrap().retransmissions >= 1);
        // Deliver it; transfer completes.
        for seg in retrans {
            for reply in b.deliver(A, &seg.bytes, now) {
                a.deliver(B, &reply.bytes, now);
            }
        }
        assert_eq!(b.recv(&(80, A, 2000), 64), b"lost data");
    }

    #[test]
    fn connection_gives_up_after_max_retries() {
        let mut a = MrtLayer::new(1500);
        let key = a.connect(2000, B, 80); // nobody there
        let mut now = 0u64;
        for _ in 0..MAX_RETRIES + 2 {
            now += 20_000_000;
            a.poll(now);
        }
        assert_eq!(
            a.state(&key),
            Some(ConnState::Failed),
            "give-up is a terminal failure, not an orderly close"
        );
        assert!(a.conn(&key).unwrap().error.is_some());
        // A failed connection refuses further sends.
        assert!(a.send(&key, b"more").is_err());
    }

    #[test]
    fn close_handshake() {
        let mut a = MrtLayer::new(1500);
        let mut b = MrtLayer::new(1500);
        b.listen(80);
        let key = a.connect(2000, B, 80);
        let mut now = 0u64;
        pump(&mut a, &mut b, &mut now);
        a.send(&key, b"bye").unwrap();
        a.close(&key);
        pump(&mut a, &mut b, &mut now);
        let bkey = (80, A, 2000);
        assert_eq!(b.recv(&bkey, 16), b"bye");
        assert!(b.conn(&bkey).unwrap().remote_closed);
        assert_eq!(a.state(&key), Some(ConnState::Closed));
    }

    #[test]
    fn stray_segment_counts_reset() {
        let mut b = MrtLayer::new(1500);
        let seg = MrtHeader {
            src_port: 9,
            dst_port: 99,
            seq: 5,
            ack: 0,
            flags: Flags::ACK,
            len: 0,
        };
        b.deliver(A, &seg.encode(&[]), 0);
        assert_eq!(b.resets, 1);
    }
}
