//! Minimal UDP layer: header codec with pseudo-header checksum and
//! per-socket receive queues.

use crate::error::{NetError, Result};
use crate::ip::{internet_checksum_parts, Ipv4Addr};
use std::collections::{HashMap, VecDeque};

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// Spare capacity [`encode`] leaves behind every segment: room for the
/// most a security hook may add
/// ([`SecurityHooks::max_overhead`](crate::SecurityHooks::max_overhead),
/// which the hooks' own tests hold to this bound). A segment that comes
/// back through a buffer pool then holds a protected datagram without
/// regrowing.
pub const TX_HEADROOM: usize = 64;

/// A UDP datagram header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + data.
    pub len: u16,
    /// Checksum over pseudo-header, header and data.
    pub checksum: u16,
}

/// The RFC 768 pseudo-header: addresses, protocol and segment length.
fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> [u8; 12] {
    let mut p = [0u8; 12];
    p[..4].copy_from_slice(&src);
    p[4..8].copy_from_slice(&dst);
    p[9] = 17; // protocol UDP
    p[10..].copy_from_slice(&(segment.len() as u16).to_be_bytes());
    p
}

/// One's-complement checksum over the pseudo-header and `segment`,
/// summed as two slices (the pseudo-header is even-length, so the sum is
/// that of their concatenation).
fn pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    internet_checksum_parts(&[&pseudo_header(src, dst, segment), segment])
}

/// Compute the UDP checksum (RFC 768 pseudo-header form).
pub fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let ck = pseudo_checksum(src, dst, segment);
    // RFC 768: transmitted 0 means "no checksum"; an all-zero result is
    // sent as all-ones.
    if ck == 0 {
        0xFFFF
    } else {
        ck
    }
}

/// Encode a UDP segment (header + data) with a valid checksum, with
/// [`TX_HEADROOM`] bytes of spare capacity.
pub fn encode(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, data: &[u8]) -> Vec<u8> {
    let len = (UDP_HEADER_LEN + data.len()) as u16;
    let mut seg = Vec::with_capacity(len as usize + TX_HEADROOM);
    seg.extend_from_slice(&src_port.to_be_bytes());
    seg.extend_from_slice(&dst_port.to_be_bytes());
    seg.extend_from_slice(&len.to_be_bytes());
    seg.extend_from_slice(&[0, 0]); // checksum placeholder
    seg.extend_from_slice(data);
    let ck = udp_checksum(src, dst, &seg);
    seg[6..8].copy_from_slice(&ck.to_be_bytes());
    seg
}

/// Decode and checksum-verify a UDP segment, returning header and data.
pub fn decode(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> Result<(UdpHeader, &[u8])> {
    if segment.len() < UDP_HEADER_LEN {
        return Err(NetError::Malformed("short UDP header"));
    }
    let header = UdpHeader {
        src_port: u16::from_be_bytes([segment[0], segment[1]]),
        dst_port: u16::from_be_bytes([segment[2], segment[3]]),
        len: u16::from_be_bytes([segment[4], segment[5]]),
        checksum: u16::from_be_bytes([segment[6], segment[7]]),
    };
    if header.len as usize != segment.len() {
        return Err(NetError::Malformed("UDP length mismatch"));
    }
    // Checksum over the segment as transmitted verifies to zero (or the
    // sender sent 0 = "no checksum", which we accept per RFC 768).
    if header.checksum != 0 && pseudo_checksum(src, dst, segment) != 0 {
        return Err(NetError::BadChecksum);
    }
    Ok((header, &segment[UDP_HEADER_LEN..]))
}

/// A received datagram queued on a socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Payload.
    pub data: Vec<u8>,
}

/// Host-level UDP demultiplexer: port → receive queue.
#[derive(Default)]
pub struct UdpLayer {
    sockets: HashMap<u16, VecDeque<UdpDatagram>>,
    /// Datagrams that arrived for unbound ports.
    pub unreachable: u64,
    /// Datagrams dropped for checksum/framing errors.
    pub drops: u64,
}

impl UdpLayer {
    /// Open a receive queue on `port`.
    pub fn bind(&mut self, port: u16) -> Result<()> {
        if self.sockets.contains_key(&port) {
            return Err(NetError::PortsExhausted);
        }
        self.sockets.insert(port, VecDeque::new());
        Ok(())
    }

    /// Close a port's queue.
    pub fn unbind(&mut self, port: u16) {
        self.sockets.remove(&port);
    }

    /// Is `port` bound?
    pub fn is_bound(&self, port: u16) -> bool {
        self.sockets.contains_key(&port)
    }

    /// Deliver an incoming UDP segment (called by the stack's dispatch).
    /// The data is copied out: the segment's buffer goes back to the
    /// stack's pool, so a queued datagram owns its bytes.
    pub fn deliver(&mut self, src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) {
        match decode(src, dst, segment) {
            Ok((header, data)) => match self.sockets.get_mut(&header.dst_port) {
                Some(q) => q.push_back(UdpDatagram {
                    src,
                    src_port: header.src_port,
                    data: data.to_vec(),
                }),
                None => self.unreachable += 1,
            },
            Err(_) => self.drops += 1,
        }
    }

    /// Dequeue the next datagram on `port`.
    pub fn recv(&mut self, port: u16) -> Option<UdpDatagram> {
        self.sockets.get_mut(&port)?.pop_front()
    }

    /// Number of datagrams queued on `port`.
    pub fn pending(&self, port: u16) -> usize {
        self.sockets.get(&port).map_or(0, |q| q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = [10, 0, 0, 1];
    const B: Ipv4Addr = [10, 0, 0, 2];

    #[test]
    fn encode_decode_roundtrip() {
        let seg = encode(A, B, 1234, 80, b"hello udp");
        let (h, data) = decode(A, B, &seg).unwrap();
        assert_eq!(h.src_port, 1234);
        assert_eq!(h.dst_port, 80);
        assert_eq!(data, b"hello udp");
    }

    #[test]
    fn encode_leaves_tx_headroom() {
        let seg = encode(A, B, 1234, 80, &[7; 64]);
        assert_eq!(seg.len(), UDP_HEADER_LEN + 64);
        assert!(seg.capacity() >= seg.len() + TX_HEADROOM);
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut seg = encode(A, B, 1, 2, b"data");
        *seg.last_mut().unwrap() ^= 0xFF;
        assert_eq!(decode(A, B, &seg), Err(NetError::BadChecksum));
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        // Same segment delivered to the wrong address must fail: the
        // pseudo-header binds the UDP payload to its IP endpoints.
        let seg = encode(A, B, 1, 2, b"data");
        assert!(decode(A, [9, 9, 9, 9], &seg).is_err());
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut seg = encode(A, B, 1, 2, b"data");
        seg[6] = 0;
        seg[7] = 0; // sender opted out
        assert!(decode(A, B, &seg).is_ok());
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut seg = encode(A, B, 1, 2, b"data");
        seg.push(0);
        assert!(matches!(decode(A, B, &seg), Err(NetError::Malformed(_))));
    }

    #[test]
    fn layer_demux_and_queues() {
        let mut udp = UdpLayer::default();
        udp.bind(53).unwrap();
        assert!(udp.bind(53).is_err());
        udp.deliver(A, B, &encode(A, B, 9999, 53, b"query1"));
        udp.deliver(A, B, &encode(A, B, 9999, 53, b"query2"));
        udp.deliver(A, B, &encode(A, B, 9999, 54, b"nobody home"));
        assert_eq!(udp.pending(53), 2);
        assert_eq!(udp.unreachable, 1);
        let d = udp.recv(53).unwrap();
        assert_eq!(d.data, b"query1");
        assert_eq!(d.src_port, 9999);
        assert_eq!(udp.recv(53).unwrap().data, b"query2");
        assert!(udp.recv(53).is_none());
    }

    #[test]
    fn corrupt_delivery_counted_as_drop() {
        let mut udp = UdpLayer::default();
        udp.bind(53).unwrap();
        let mut seg = encode(A, B, 1, 53, b"x");
        seg[8] ^= 1;
        udp.deliver(A, B, &seg);
        assert_eq!(udp.drops, 1);
        assert_eq!(udp.pending(53), 0);
    }
}
