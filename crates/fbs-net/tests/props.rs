//! Property-based tests for the network substrate: codec totality,
//! fragmentation/reassembly laws, checksum behaviour.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]
use fbs_net::frag::{fragment, Reassembler, ReassemblyDrop};
use fbs_net::ip::{internet_checksum, Ipv4Header, Packet, Proto, IPV4_HEADER_LEN};
use fbs_net::mrt::{Flags, MrtHeader};
use fbs_net::udp;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    #[test]
    fn ip_header_roundtrips(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        proto in any::<u8>(),
        payload_len in 0usize..1000,
        id in any::<u16>(),
        ttl in any::<u8>(),
        df in any::<bool>(),
    ) {
        let mut h = Ipv4Header::new(src, dst, Proto::from_number(proto), payload_len);
        h.id = id;
        h.ttl = ttl;
        h.dont_fragment = df;
        let parsed = Ipv4Header::decode(&h.encode()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn ip_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Header::decode(&bytes);
        let _ = Packet::decode(&bytes);
    }

    #[test]
    fn checksummed_header_verifies_to_zero(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        len in 0usize..500,
    ) {
        let h = Ipv4Header::new(src, dst, Proto::Udp, len);
        prop_assert_eq!(internet_checksum(&h.encode()), 0);
    }

    #[test]
    fn single_bit_flip_always_detected_by_checksum(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        byte in 0usize..IPV4_HEADER_LEN,
        bit in 0u8..8,
    ) {
        // The internet checksum catches all single-bit errors.
        let h = Ipv4Header::new(src, dst, Proto::Udp, 64);
        let mut bytes = h.encode();
        bytes[byte] ^= 1 << bit;
        prop_assert!(Ipv4Header::decode(&bytes).is_err());
    }

    #[test]
    fn fragmentation_conserves_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..5000),
        mtu in 68usize..1500,
    ) {
        let h = Ipv4Header::new([1, 1, 1, 1], [2, 2, 2, 2], Proto::Udp, payload.len());
        let packet = Packet::new(h, payload.clone());
        let frags = fragment(packet, mtu).unwrap();
        // Every fragment obeys the MTU; offsets are 8-aligned except none;
        // concatenation (by offset) equals the original payload.
        let mut reconstructed = vec![0u8; payload.len()];
        for f in &frags {
            prop_assert!(IPV4_HEADER_LEN + f.payload.len() <= mtu);
            let off = f.header.frag_offset as usize * 8;
            reconstructed[off..off + f.payload.len()].copy_from_slice(&f.payload);
        }
        prop_assert_eq!(reconstructed, payload);
        // Exactly the last fragment clears more_fragments.
        let mf_count = frags.iter().filter(|f| f.header.more_fragments).count();
        prop_assert_eq!(mf_count, frags.len() - 1);
    }

    #[test]
    fn reassembly_order_invariant(
        payload in proptest::collection::vec(any::<u8>(), 100..4000),
        mtu in 68usize..800,
        seed in any::<u64>(),
    ) {
        let h = Ipv4Header::new([1, 1, 1, 1], [2, 2, 2, 2], Proto::Udp, payload.len());
        let packet = Packet::new(h, payload.clone());
        let mut frags = fragment(packet, mtu).unwrap();
        // Deterministic shuffle from the seed.
        let mut s = seed;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            frags.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut r = Reassembler::new(u64::MAX);
        let mut done = None;
        for f in frags {
            if let Some(p) = r.push(f, 0) {
                done = Some(p);
            }
        }
        prop_assert_eq!(done.unwrap().payload, payload);
        prop_assert_eq!(r.pending(), 0);
    }

    #[test]
    fn udp_codec_roundtrips(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let seg = udp::encode(src, dst, sp, dp, &data);
        let (h, got) = udp::decode(src, dst, &seg).unwrap();
        prop_assert_eq!(h.src_port, sp);
        prop_assert_eq!(h.dst_port, dp);
        prop_assert_eq!(got, &data[..]);
    }

    #[test]
    fn udp_checksum_over_slices_equals_the_concatenation(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // Every segment length 0-300 (odd ones included): the checksum
        // summed over the pseudo-header and the segment where they lie
        // equals a plain 16-bit-word checksum of their concatenation, and
        // any one-bit flip fails decode.
        let mut s = seed;
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 56) as u8
                })
                .collect();
            let seg = udp::encode(src, dst, sport, dport, &data);
            let mut unsummed = seg.clone();
            unsummed[6..8].fill(0);
            let mut concat = Vec::new();
            concat.extend_from_slice(&src);
            concat.extend_from_slice(&dst);
            concat.extend_from_slice(&[0, 17]);
            concat.extend_from_slice(&(seg.len() as u16).to_be_bytes());
            concat.extend_from_slice(&unsummed);
            let want = match reference_checksum(&concat) {
                0 => 0xFFFF,
                ck => ck,
            };
            prop_assert_eq!(udp::udp_checksum(src, dst, &unsummed), want, "length {}", len);
            prop_assert_eq!(u16::from_be_bytes([seg[6], seg[7]]), want);
            prop_assert!(udp::decode(src, dst, &seg).is_ok());
            let mut bad = seg.clone();
            let at = flip_at % bad.len();
            bad[at] ^= 1 << flip_bit;
            // A flip that zeroes the checksum field turns it off (RFC 768).
            if bad[6..8] != [0, 0] {
                prop_assert!(udp::decode(src, dst, &bad).is_err(), "length {} byte {}", len, at);
            }
        }
    }

    #[test]
    fn udp_decode_never_panics(
        src in any::<[u8; 4]>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = udp::decode(src, [9, 9, 9, 9], &bytes);
    }

    #[test]
    fn mrt_header_roundtrips(
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..8,
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let h = MrtHeader {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: Flags(flags),
            len: data.len() as u16,
        };
        let bytes = h.encode(&data);
        let (parsed, got) = MrtHeader::decode(&bytes).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(got, &data[..]);
    }

    #[test]
    fn mrt_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = MrtHeader::decode(&bytes);
    }

    #[test]
    fn host_survives_arbitrary_frames(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120),
            0..40,
        ),
    ) {
        // Fuzz the whole input path: random garbage delivered to a host
        // with live UDP and MRT state must never panic, and well-formed
        // traffic afterwards must still work.
        use fbs_net::stack::Host;
        let mut h = Host::new([9, 9, 9, 9], 1500);
        h.udp.bind(53).unwrap();
        h.mrt.listen(80);
        for (i, f) in frames.iter().enumerate() {
            h.deliver_frame(f, i as u64 * 1000);
        }
        // Still functional: a valid self-addressed UDP datagram delivers.
        let seg = fbs_net::udp::encode([1, 1, 1, 1], [9, 9, 9, 9], 1234, 53, b"ok");
        let packet = fbs_net::ip::Packet::new(
            fbs_net::ip::Ipv4Header::new([1, 1, 1, 1], [9, 9, 9, 9], fbs_net::ip::Proto::Udp, seg.len()),
            seg,
        );
        h.deliver_frame(&packet.encode(), 999_999);
        prop_assert_eq!(h.udp.pending(53), 1);
    }
}

/// RFC 1071 the slow way: 16-bit big-endian words, the odd byte padded.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in data.chunks(2) {
        let word = (pair[0] as u32) << 8 | pair.get(1).copied().unwrap_or(0) as u32;
        sum += word;
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Body of `stale_partials_expire_under_sustained_loss`, kept as a plain
/// function so the `proptest!` macro expansion stays shallow.
fn check_stale_partials(
    seed: u64,
    n: usize,
    timeout_us: u64,
    step_us: u64,
) -> Result<(), TestCaseError> {
    // Small deterministic LCG so loss is reproducible from the seed.
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut r = Reassembler::new(timeout_us);
    let mut incomplete = 0usize;
    for i in 0..n {
        let payload_len = 1600 + (next() as usize % 4000);
        let mut h = Ipv4Header::new([10, 0, 0, 1], [10, 0, 0, 2], Proto::Udp, payload_len);
        h.id = i as u16;
        let payload: Vec<u8> = (0..payload_len).map(|b| b as u8).collect();
        let frags = fragment(Packet::new(h, payload), 576).unwrap();
        let total = frags.len();
        // ~1/3 of fragments lost, independently.
        let kept: Vec<_> = frags.into_iter().filter(|_| next() % 3 != 0).collect();
        let now = i as u64 * step_us;
        let survivors = kept.len();
        let mut done = false;
        for f in kept {
            if r.push(f, now).is_some() {
                done = true;
            }
        }
        if done {
            prop_assert_eq!(survivors, total, "early completion impossible");
        } else if survivors > 0 {
            prop_assert!(survivors < total, "intact datagram must assemble");
            incomplete += 1;
        }
    }
    // Exactly the loss-struck datagrams are pending; completed ones
    // released their buffers.
    prop_assert_eq!(r.pending(), incomplete);
    let last_push = (n as u64 - 1) * step_us;

    // Nothing is older than the timeout at `timeout_us` after the FIRST
    // push: no premature purge (and nothing recycled).
    let mut pool = fbs_core::BufferPool::new();
    prop_assert_eq!(r.expire(timeout_us, &mut pool), 0);
    prop_assert_eq!(r.pending(), incomplete);
    prop_assert_eq!(pool.stats().returns, 0);

    // One tick past everyone's deadline: all stale partials purged, and
    // the one buffer each copied its surviving fragments into goes back
    // to the pool — the expiry path must balance, not leak.
    let dropped = r.expire(last_push + timeout_us + 1, &mut pool);
    prop_assert_eq!(dropped, incomplete);
    prop_assert_eq!(r.pending(), 0);
    prop_assert_eq!(r.drops(ReassemblyDrop::Timeout), incomplete as u64);
    let recycled = pool.stats().returns + pool.stats().discards;
    prop_assert_eq!(recycled, incomplete as u64);

    // A second purge pass finds nothing (no double counting)...
    prop_assert_eq!(r.expire(last_push + 2 * timeout_us + 2, &mut pool), 0);
    prop_assert_eq!(r.drops(ReassemblyDrop::Timeout), incomplete as u64);
    let recycled = pool.stats().returns + pool.stats().discards;
    prop_assert_eq!(recycled, incomplete as u64);
    Ok(())
}

// Sustained fragment loss: every datagram that loses at least one
// fragment leaves exactly one stale partial; the purge timer drops them
// all once (and only once) they exceed the timeout, and the
// reassembler's own counter counts each once.
proptest! {
    #[test]
    fn stale_partials_expire_under_sustained_loss(
        seed in any::<u64>(),
        n in 1usize..16,
        timeout_us in 1_000u64..30_000_000,
        step_us in 1u64..100_000,
    ) {
        check_stale_partials(seed, n, timeout_us, step_us)?;
    }
}
