//! IPv4-like packet header (RFC 791 field layout) with internet checksum.
//!
//! The FBS IP mapping inserts its security flow header "in between the
//! normal IPv4 header and the IP payload ... a short-cut form of IP
//! encapsulation" (§7.2), then fixes the IP header's length and checksum.
//! This module provides the header codec those fixups operate on. Options
//! are not supported (the paper notes the 40-byte option limit made the
//! IP-option alternative unattractive; our stack, like smoltcp, silently
//! ignores the possibility).

use crate::error::{NetError, Result};
use fbs_core::BufferPool;

/// An IPv4 address (network byte order).
pub type Ipv4Addr = [u8; 4];

/// Well-known protocol numbers used by the substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Mini reliable transport (stands in for TCP; protocol 6).
    Mrt,
    /// UDP (protocol 17).
    Udp,
    /// Insecure directory/bootstrap traffic (protocol 200). FBS policy
    /// does not cover it, which realises the "secure flow bypass" of
    /// Fig. 5: certificate fetches ride this protocol and skip FBS.
    Bypass,
    /// Anything else.
    Other(u8),
}

impl Proto {
    /// Numeric protocol value.
    pub fn number(self) -> u8 {
        match self {
            Proto::Mrt => 6,
            Proto::Udp => 17,
            Proto::Bypass => 200,
            Proto::Other(n) => n,
        }
    }

    /// From a numeric protocol value.
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Proto::Mrt,
            17 => Proto::Udp,
            200 => Proto::Bypass,
            other => Proto::Other(other),
        }
    }
}

/// Header length in bytes (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// Flag bit: don't fragment.
pub const FLAG_DF: u8 = 0b010;
/// Flag bit: more fragments follow.
pub const FLAG_MF: u8 = 0b001;

/// An IPv4 header (no options).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Type of service (kept for fidelity; unused by the substrate).
    pub tos: u8,
    /// Total length: header + payload, in bytes.
    pub total_len: u16,
    /// Identification (shared by all fragments of a datagram).
    pub id: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Protocol number of the payload.
    pub proto: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Build a header for a payload of `payload_len` bytes.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: Proto, payload_len: usize) -> Self {
        Ipv4Header {
            tos: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            id: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            proto: proto.number(),
            src,
            dst,
        }
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        self.total_len as usize - IPV4_HEADER_LEN
    }

    /// Adjust `total_len` after inserting/removing `delta` payload bytes
    /// (the §7.2 "fixes the IP header to account for the increase in the
    /// packet size").
    pub fn grow_payload(&mut self, delta: isize) {
        self.total_len = (self.total_len as isize + delta) as u16;
    }

    /// Is this one fragment of a larger datagram (more follow, or it
    /// does not start at offset 0)?
    pub(crate) fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset > 0
    }

    /// Serialise, computing the header checksum.
    pub fn encode(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.tos;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.id.to_be_bytes());
        let flags = ((self.dont_fragment as u16) << 14)
            | ((self.more_fragments as u16) << 13)
            | (self.frag_offset & 0x1FFF);
        b[6..8].copy_from_slice(&flags.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto;
        // checksum at [10..12] computed over the header with zero cksum
        b[12..16].copy_from_slice(&self.src);
        b[16..20].copy_from_slice(&self.dst);
        let ck = internet_checksum(&b);
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Parse and checksum-verify a header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(NetError::Malformed("short IPv4 header"));
        }
        if buf[0] != 0x45 {
            return Err(NetError::Malformed("bad version/IHL"));
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return Err(NetError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN {
            return Err(NetError::Malformed("total_len below header size"));
        }
        let flags = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Ipv4Header {
            tos: buf[1],
            total_len,
            id: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags & 0x4000 != 0,
            more_fragments: flags & 0x2000 != 0,
            frag_offset: flags & 0x1FFF,
            ttl: buf[8],
            proto: buf[9],
            src: [buf[12], buf[13], buf[14], buf[15]],
            dst: [buf[16], buf[17], buf[18], buf[19]],
        })
    }
}

/// RFC 1071 internet checksum: one's-complement sum of 16-bit words.
/// Computing it over a header whose checksum field holds the transmitted
/// checksum yields zero for an intact header.
pub fn internet_checksum(data: &[u8]) -> u16 {
    internet_checksum_parts(&[data])
}

/// [`internet_checksum`] of the concatenation of `parts`, without
/// building it: the UDP pseudo-header and its segment are summed where
/// they lie. Every part but the last must have even length, so that each
/// starts on a 16-bit word boundary of the whole.
///
/// The sum runs over little-endian 32-bit words and swaps its folded
/// result once (RFC 1071 §2(B): the one's-complement sum is byte-order
/// independent). A 32-bit word weighs its two 16-bit halves alike because
/// 2^16 ≡ 1 (mod 2^16 − 1), so a part may start at any even offset.
pub(crate) fn internet_checksum_parts(parts: &[&[u8]]) -> u16 {
    // A u64 holds the sum of 2^32 words, 16 GiB: every part here is a
    // header or an IP payload, below 64 KiB.
    let mut sum: u64 = 0;
    for (i, part) in parts.iter().enumerate() {
        debug_assert!(
            part.len() % 2 == 0 || i + 1 == parts.len(),
            "only the last part may have odd length"
        );
        let mut words = part.chunks_exact(4);
        for w in &mut words {
            sum += u32::from_le_bytes(w.try_into().unwrap()) as u64;
        }
        let mut tail = words.remainder();
        if let [a, b, rest @ ..] = tail {
            sum += u16::from_le_bytes([*a, *b]) as u64;
            tail = rest;
        }
        // An odd last byte is the high octet of a big-endian word: the
        // low octet of its swapped form.
        if let [odd] = tail {
            sum += *odd as u64;
        }
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16).swap_bytes()
}

/// A full packet: header + payload bytes, the unit the segment carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The IP header.
    pub header: Ipv4Header,
    /// Payload (transport header + data, possibly including an FBS header).
    pub payload: Vec<u8>,
}

impl Packet {
    /// Build a packet, setting `total_len` from the payload.
    pub fn new(mut header: Ipv4Header, payload: Vec<u8>) -> Self {
        header.total_len = (IPV4_HEADER_LEN + payload.len()) as u16;
        Packet { header, payload }
    }

    /// Serialise header + payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(&self.header, &self.payload)
    }

    /// Parse a packet, verifying the checksum and length.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (header, payload) = parse_frame(buf)?;
        Ok(Packet {
            header,
            payload: payload.to_vec(),
        })
    }

    /// Parse a packet like [`Self::decode`], but draw the payload buffer
    /// from `pool` instead of allocating a fresh one.
    pub fn decode_pooled(buf: &[u8], pool: &mut BufferPool) -> Result<Self> {
        let (header, bytes) = parse_frame(buf)?;
        let mut payload = pool.take();
        payload.extend_from_slice(bytes);
        Ok(Packet { header, payload })
    }
}

/// Serialise `header` as it stands, then `payload`, into one exactly
/// sized frame: a packet's wire form without the packet.
pub(crate) fn encode_frame(header: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload);
    out
}

/// Parse and checksum-verify a frame's header and borrow its payload
/// (up to `total_len`; link padding beyond it is ignored).
pub(crate) fn parse_frame(buf: &[u8]) -> Result<(Ipv4Header, &[u8])> {
    let header = Ipv4Header::decode(buf)?;
    if header.total_len as usize > buf.len() {
        return Err(NetError::Malformed("frame shorter than total_len"));
    }
    let payload = &buf[IPV4_HEADER_LEN..header.total_len as usize];
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        let mut h = Ipv4Header::new([10, 0, 0, 1], [10, 0, 0, 2], Proto::Udp, 100);
        h.id = 0x1234;
        h.ttl = 64;
        h
    }

    #[test]
    fn header_roundtrip() {
        let h = sample();
        let bytes = h.encode();
        let parsed = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = sample().encode().to_vec();
        bytes[15] ^= 1; // flip a src-address bit
        assert_eq!(Ipv4Header::decode(&bytes), Err(NetError::BadChecksum));
    }

    #[test]
    fn rfc1071_known_example() {
        // Worked example from RFC 1071 §3: the one's-complement sum of
        // these words is 0xddf2, so the checksum is its complement 0x220d.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_self_is_zero() {
        let bytes = sample().encode();
        assert_eq!(internet_checksum(&bytes), 0);
    }

    #[test]
    fn odd_length_checksum() {
        // Pads the trailing byte as the high octet.
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    /// RFC 1071's definition word by word: big-endian 16-bit words, an odd
    /// last byte padded as the high octet, end-around carries.
    fn reference_checksum(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        for w in data.chunks(2) {
            sum += u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)]) as u64;
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// The word-wide sum equals the 16-bit reference at every length
    /// 0..=300, split into two parts at every even offset (so the second
    /// part starts both on and off a 32-bit boundary), and on the
    /// largest all-ones IP payload, whose sum carries the most.
    #[test]
    fn checksum_parts_equal_the_16_bit_reference() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=data.len() {
            let want = reference_checksum(&data[..len]);
            assert_eq!(internet_checksum(&data[..len]), want, "length {len}");
            for split in (0..=len).step_by(2) {
                let (head, tail) = data[..len].split_at(split);
                assert_eq!(
                    internet_checksum_parts(&[head, tail]),
                    want,
                    "length {len}, split at {split}"
                );
            }
        }
        let ones = vec![0xFFu8; 65_535];
        assert_eq!(internet_checksum(&ones), reference_checksum(&ones));
        assert_eq!(
            internet_checksum_parts(&[&ones[..2], &ones[2..]]),
            reference_checksum(&ones)
        );
    }

    #[test]
    fn flags_roundtrip() {
        let mut h = sample();
        h.dont_fragment = true;
        h.frag_offset = 185;
        h.more_fragments = true;
        let parsed = Ipv4Header::decode(&h.encode()).unwrap();
        assert!(parsed.dont_fragment);
        assert!(parsed.more_fragments);
        assert_eq!(parsed.frag_offset, 185);
    }

    #[test]
    fn grow_payload_fixup() {
        let mut h = sample();
        let before = h.total_len;
        h.grow_payload(40); // FBS header insertion
        assert_eq!(h.total_len, before + 40);
        h.grow_payload(-40); // removal on receive
        assert_eq!(h.total_len, before);
    }

    #[test]
    fn packet_roundtrip_with_trailing_garbage() {
        // Links may pad frames; decode must honour total_len.
        let p = Packet::new(sample(), vec![9u8; 50]);
        let mut wire = p.encode();
        wire.extend_from_slice(&[0u8; 14]); // ethernet-ish padding
        let parsed = Packet::decode(&wire).unwrap();
        assert_eq!(parsed.payload.len(), 50);
        assert_eq!(parsed, p);
    }

    #[test]
    fn short_and_corrupt_packets_rejected() {
        assert!(Packet::decode(&[0u8; 5]).is_err());
        let p = Packet::new(sample(), vec![1, 2, 3]);
        let mut wire = p.encode();
        wire.truncate(21); // total_len says more
        assert!(Packet::decode(&wire).is_err());
    }

    #[test]
    fn proto_numbers() {
        assert_eq!(Proto::Mrt.number(), 6);
        assert_eq!(Proto::Udp.number(), 17);
        assert_eq!(Proto::from_number(6), Proto::Mrt);
        assert_eq!(Proto::from_number(99), Proto::Other(99));
        assert_eq!(Proto::from_number(200), Proto::Bypass);
    }
}
