//! IP fragmentation and reassembly.
//!
//! The FBS output hook runs *before* fragmentation and the input hook runs
//! *after* reassembly (§7.2), so FBS "receives the benefits of IP
//! fragmentation and reassembly" — one security flow header protects the
//! whole datagram no matter how the network slices it. This module supplies
//! those two halves for the simulated stack.
//!
//! Both halves work on borrowed bytes. The slicing only names each
//! fragment's header and byte range, so the stack encodes frames straight
//! from the protected payload; the [`Reassembler`] copies each arriving
//! fragment once, to its offset in one pooled buffer per datagram.

use crate::error::{NetError, Result};
use crate::ip::{Ipv4Header, Packet, IPV4_HEADER_LEN};
use fbs_core::BufferPool;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// The fragments one datagram splits into at an MTU, in offset order:
/// each fragment's header (offset, MF and `total_len` set) and the range
/// of the datagram's payload it carries. A datagram that fits is one
/// fragment — its own header with `total_len` set.
///
/// The one slicing logic: [`fragment_pooled`] copies each range into a
/// pooled buffer, and the stack's transmit path encodes each straight
/// onto the wire.
pub(crate) struct Fragments {
    header: Ipv4Header,
    len: usize,
    /// Payload bytes per fragment: a multiple of 8 when the datagram is
    /// split (offsets count 8-byte units), the whole payload when not.
    chunk: usize,
    offset: usize,
    done: bool,
}

impl Fragments {
    /// Slice a datagram with `header` and `len` payload bytes for `mtu`.
    ///
    /// Fails with [`NetError::WouldFragment`] when it does not fit but DF
    /// is set — the situation the paper's `tcp_output.c` patch prevents by
    /// accounting for the FBS header when computing the segment size.
    ///
    /// # Panics
    /// If `mtu` cannot carry a header and 8 bytes of data.
    pub(crate) fn new(header: Ipv4Header, len: usize, mtu: usize) -> Result<Self> {
        assert!(mtu >= IPV4_HEADER_LEN + 8, "MTU too small to carry data");
        let total = IPV4_HEADER_LEN + len;
        let chunk = if total <= mtu {
            len.max(1)
        } else if header.dont_fragment {
            return Err(NetError::WouldFragment { len: total, mtu });
        } else {
            ((mtu - IPV4_HEADER_LEN) / 8) * 8
        };
        Ok(Fragments {
            header,
            len,
            chunk,
            offset: 0,
            done: false,
        })
    }
}

impl Iterator for Fragments {
    type Item = (Ipv4Header, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let start = self.offset;
        let end = (start + self.chunk).min(self.len);
        let mut h = self.header.clone();
        h.total_len = (IPV4_HEADER_LEN + end - start) as u16;
        // Offsets and MF are relative to the datagram's own: a fragment
        // split again on a smaller link keeps its place in the original.
        h.frag_offset = self.header.frag_offset + (start / 8) as u16;
        h.more_fragments = end < self.len || self.header.more_fragments;
        self.offset = end;
        self.done = end == self.len;
        Some((h, start..end))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.done {
            0
        } else {
            (self.len - self.offset).div_ceil(self.chunk).max(1)
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Fragments {}

/// Split `packet` into MTU-sized fragments.
///
/// Returns a single-element vector when the packet already fits. Fails
/// with [`NetError::WouldFragment`] when the packet is oversized but DF is
/// set — the situation the paper's `tcp_output.c` patch prevents by
/// accounting for the FBS header when computing the segment size.
///
/// Compatibility wrapper over [`fragment_pooled`] with a transient
/// non-pooling pool: each fragment still gets a fresh allocation.
pub fn fragment(packet: Packet, mtu: usize) -> Result<Vec<Packet>> {
    let mut pool = BufferPool::with_limits(0, 0);
    fragment_pooled(packet, mtu, &mut pool)
}

/// [`fragment`] with buffer reuse: every fragment payload is a copy of
/// its range of the packet's payload, in a buffer drawn from `pool`, and
/// when the packet is
/// actually split, the parent payload is returned to `pool`. The
/// DF-oversize failure consumes the packet too, so its payload goes back
/// to `pool` rather than leaking from the ledger.
pub fn fragment_pooled(packet: Packet, mtu: usize, pool: &mut BufferPool) -> Result<Vec<Packet>> {
    let frags = match Fragments::new(packet.header.clone(), packet.payload.len(), mtu) {
        Ok(frags) => frags,
        Err(e) => {
            pool.put(packet.payload);
            return Err(e);
        }
    };
    if frags.len() == 1 {
        return Ok(vec![packet]);
    }
    let out = frags
        .map(|(header, range)| {
            let mut payload = pool.take();
            payload.extend_from_slice(&packet.payload[range]);
            Packet { header, payload }
        })
        .collect();
    pool.put(packet.payload);
    Ok(out)
}

/// The largest IP payload: what `total_len` can describe.
const MAX_PAYLOAD: usize = u16::MAX as usize - IPV4_HEADER_LEN;

/// 64-bit words of a bitmap with one bit per 8-byte block of
/// [`MAX_PAYLOAD`].
const BLOCK_WORDS: usize = MAX_PAYLOAD.div_ceil(8).div_ceil(64);

/// Bytes a partial's block bitmap occupies, charged beside its buffer.
const BITMAP_BYTES: usize = BLOCK_WORDS * 8;

/// Reassembly bytes a host may hold before it evicts partials: Linux's
/// `ipfrag_high_thresh` default.
pub const REASM_HIGH_BYTES: usize = 4 << 20;

/// What an eviction brings reassembly bytes back down to: Linux's
/// `ipfrag_low_thresh` default.
pub const REASM_LOW_BYTES: usize = 3 << 20;

/// Key identifying one datagram's fragments.
type FragKey = ([u8; 4], [u8; 4], u16, u8);

/// Why a partial datagram was dropped before it completed. Either way
/// it is soft state lost early: its sender's retransmission (or none)
/// decides what happens next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReassemblyDrop {
    /// Its first fragment arrived longer ago than the timeout.
    Timeout,
    /// Reassembly bytes would have crossed the high mark, and it was
    /// among the oldest partials.
    OverBudget,
}

/// One datagram being reassembled.
struct Partial {
    /// The first-seen fragment's header.
    header: Ipv4Header,
    /// The payload so far, drawn from the pool: each fragment copied to
    /// its offset; a gap reads zero until its fragment arrives.
    buf: Vec<u8>,
    /// One bit per 8-byte block received. Inline, so a datagram costs
    /// no allocation beyond its buffer.
    have: [u64; BLOCK_WORDS],
    /// Set bits in `have`.
    blocks: usize,
    /// Payload length, once the final fragment (MF clear) has arrived.
    total: Option<usize>,
    first_seen_us: u64,
    /// Arrival order among partials: breaks ties in age.
    seq: u64,
    /// Bytes charged to the reassembler's budget: the buffer's capacity
    /// and the bitmap.
    charged: usize,
}

impl Partial {
    /// Copy one fragment's `data` in at byte `off` and mark its blocks.
    /// A fragment that contradicts the final length — reaching past it,
    /// or a final fragment ending elsewhere or short of bytes already
    /// held — is ignored; the datagram then completes from the rest or
    /// expires. A duplicate rewrites its bytes and marks nothing new.
    /// Returns whether the datagram is now whole.
    fn add(&mut self, off: usize, data: &[u8], last: bool) -> bool {
        let end = off + data.len();
        let contradicts = match self.total {
            Some(total) => end > total || (last && end != total),
            None => last && end < self.buf.len(),
        };
        if contradicts {
            return false;
        }
        if last {
            self.total = Some(end);
        }
        // Exact: a doubling would leave a pooled buffer twice the size
        // the datagram needs.
        self.buf.reserve_exact(end.saturating_sub(self.buf.len()));
        if off > self.buf.len() {
            self.buf.resize(off, 0);
        }
        let held = self.buf.len().min(end) - off;
        self.buf[off..off + held].copy_from_slice(&data[..held]);
        self.buf.extend_from_slice(&data[held..]);
        self.mark(off / 8, end.div_ceil(8));
        self.total
            .is_some_and(|total| self.blocks == total.div_ceil(8))
    }

    /// Set the bits of blocks `first..end`, counting the new ones.
    fn mark(&mut self, first: usize, end: usize) {
        let mut b = first;
        while b < end {
            let (word, lo) = (b / 64, b % 64);
            let hi = (end - word * 64).min(64);
            let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
            self.blocks += (mask & !self.have[word]).count_ones() as usize;
            self.have[word] |= mask;
            b = (word + 1) * 64;
        }
    }
}

/// Reassembles fragments into whole datagrams, expiring stale buffers.
///
/// Reassembly runs below the FBS input hook (§7.2), so its state is
/// made for bytes nobody has authenticated yet. A byte budget bounds
/// it: each partial is charged its buffer's capacity and its bitmap,
/// a fragment's growth (the zero-fill up to its offset included) is
/// charged before it is made, and a charge that would cross the high
/// mark first evicts the oldest partials down to the low mark (Linux's
/// `ipfrag_high_thresh` / `ipfrag_low_thresh`).
pub struct Reassembler {
    buffers: HashMap<FragKey, Partial>,
    /// Buffers older than this are dropped (BSD used 30 s; expressed in
    /// microseconds of virtual time).
    timeout_us: u64,
    /// Partials dropped for [`ReassemblyDrop::Timeout`].
    timeouts: u64,
    /// Partials dropped for [`ReassemblyDrop::OverBudget`].
    evictions: u64,
    /// Bytes charged by the partials held.
    held: usize,
    /// Partials started so far: the next one's `seq`.
    started: u64,
}

impl Reassembler {
    /// Create with the given reassembly timeout and a budget of
    /// [`REASM_HIGH_BYTES`], evicting down to [`REASM_LOW_BYTES`].
    pub fn new(timeout_us: u64) -> Self {
        Reassembler {
            buffers: HashMap::new(),
            timeout_us,
            timeouts: 0,
            evictions: 0,
            held: 0,
            started: 0,
        }
    }

    /// Accept a packet; returns a complete datagram when reassembly (or a
    /// pass-through of an unfragmented packet) finishes.
    ///
    /// Compatibility wrapper over [`Self::push_pooled`] with a transient
    /// non-pooling pool.
    pub fn push(&mut self, packet: Packet, now_us: u64) -> Option<Packet> {
        let mut pool = BufferPool::with_limits(0, 0);
        self.push_pooled(packet, now_us, &mut pool)
    }

    /// [`Self::push`] with buffer reuse: an unfragmented packet passes
    /// through as it is; a fragment's payload is copied into its
    /// datagram's buffer (see `push_fragment`), then returned to `pool` —
    /// duplicates included, so the pool's ledger closes.
    pub fn push_pooled(
        &mut self,
        packet: Packet,
        now_us: u64,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        if !packet.header.is_fragment() {
            return Some(packet);
        }
        let whole = self.push_fragment(&packet.header, &packet.payload, now_us, pool);
        pool.put(packet.payload);
        whole
    }

    /// Accept one fragment's payload, borrowed from its frame: it is
    /// copied once, to its offset in its datagram's buffer, which the
    /// datagram's first fragment draws from `pool`. Returns the whole
    /// datagram, in that buffer, when this fragment completes it.
    ///
    /// Fragments no well-formed datagram has are dropped: a non-final
    /// fragment whose length is not a multiple of 8, one reaching past
    /// the largest IP payload, and one contradicting a known final length.
    pub(crate) fn push_fragment(
        &mut self,
        header: &Ipv4Header,
        data: &[u8],
        now_us: u64,
        pool: &mut BufferPool,
    ) -> Option<Packet> {
        let off = header.frag_offset as usize * 8;
        let last = !header.more_fragments;
        let end = off + data.len();
        if end > MAX_PAYLOAD || (!last && !data.len().is_multiple_of(8)) {
            return None;
        }
        let key = (header.src, header.dst, header.id, header.proto);
        let partial = match self.buffers.entry(key) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                let buf = pool.take();
                let charged = buf.capacity() + BITMAP_BYTES;
                self.held += charged;
                self.started += 1;
                v.insert(Partial {
                    header: header.clone(),
                    buf,
                    have: [0; BLOCK_WORDS],
                    blocks: 0,
                    total: None,
                    first_seen_us: now_us,
                    seq: self.started,
                    charged,
                })
            }
        };
        // Charge the buffer's growth to `end`, the zero-fill up to the
        // offset included, before making it.
        let growth = end.saturating_sub(partial.buf.capacity());
        let partial = if self.held + growth > REASM_HIGH_BYTES {
            // `held` already counts this partial's own charge.
            self.evict_oldest(&key, REASM_LOW_BYTES.saturating_sub(growth), pool);
            // One partial (at most a 64 KiB buffer and its bitmap) is
            // far below the low mark, so the oldest others always make
            // room for it.
            debug_assert!(self.held + growth <= REASM_LOW_BYTES);
            self.buffers.get_mut(&key).expect("eviction keeps it")
        } else {
            partial
        };
        let whole = partial.add(off, data, last);
        // Book the buffer as it now is.
        let charged = partial.buf.capacity() + BITMAP_BYTES;
        self.held = self.held - partial.charged + charged;
        partial.charged = charged;
        if !whole {
            return None;
        }
        let Partial {
            mut header,
            buf,
            charged,
            ..
        } = self.buffers.remove(&key).expect("entry just completed");
        self.held -= charged;
        header.frag_offset = 0;
        header.more_fragments = false;
        Some(Packet::new(header, buf))
    }

    /// Evict partials other than `keep`, oldest first, until the bytes
    /// held are at most `target`; their buffers go back to `pool`.
    fn evict_oldest(&mut self, keep: &FragKey, target: usize, pool: &mut BufferPool) {
        let mut by_age: Vec<(u64, u64, FragKey)> = self
            .buffers
            .iter()
            .filter(|(k, _)| *k != keep)
            .map(|(k, p)| (p.first_seen_us, p.seq, *k))
            .collect();
        by_age.sort_unstable();
        for (_, _, k) in by_age {
            if self.held <= target {
                break;
            }
            let p = self.buffers.remove(&k).expect("listed above");
            self.held -= p.charged;
            pool.put(p.buf);
            self.evictions += 1;
        }
    }

    /// Drop buffers older than the timeout, recycling each partial's one
    /// buffer into `pool`; returns how many partials were dropped.
    pub fn expire(&mut self, now_us: u64, pool: &mut BufferPool) -> usize {
        let timeout = self.timeout_us;
        let before = self.buffers.len();
        let mut freed = 0;
        self.buffers.retain(|_, p| {
            let fresh = now_us.saturating_sub(p.first_seen_us) <= timeout;
            if !fresh {
                freed += p.charged;
                pool.put(std::mem::take(&mut p.buf));
            }
            fresh
        });
        self.held -= freed;
        let dropped = before - self.buffers.len();
        self.timeouts += dropped as u64;
        dropped
    }

    /// Number of datagrams currently being reassembled.
    pub fn pending(&self) -> usize {
        self.buffers.len()
    }

    /// Bytes the partials held are charged: each one's buffer capacity
    /// and bitmap. Never above the high mark.
    pub fn held_bytes(&self) -> usize {
        self.held
    }

    /// Partials dropped so far for `why`.
    pub fn drops(&self, why: ReassemblyDrop) -> u64 {
        match why {
            ReassemblyDrop::Timeout => self.timeouts,
            ReassemblyDrop::OverBudget => self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Proto;
    use fbs_core::PoolStats;

    fn packet(payload_len: usize) -> Packet {
        let mut h = Ipv4Header::new([1, 1, 1, 1], [2, 2, 2, 2], Proto::Udp, payload_len);
        h.id = 777;
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        Packet::new(h, payload)
    }

    #[test]
    fn small_packet_passes_through() {
        let p = packet(100);
        let frags = fragment(p.clone(), 1500).unwrap();
        assert_eq!(frags, vec![p]);
    }

    #[test]
    fn oversize_with_df_errors() {
        let mut p = packet(3000);
        p.header.dont_fragment = true;
        assert!(matches!(
            fragment(p, 1500),
            Err(NetError::WouldFragment {
                len: 3020,
                mtu: 1500
            })
        ));
    }

    #[test]
    fn fragment_sizes_and_flags() {
        let p = packet(3000);
        let frags = fragment(p, 1500).unwrap();
        assert_eq!(frags.len(), 3); // 1480 + 1480 + 40
        assert!(frags[0].header.more_fragments);
        assert!(frags[1].header.more_fragments);
        assert!(!frags[2].header.more_fragments);
        assert_eq!(frags[0].header.frag_offset, 0);
        assert_eq!(frags[1].header.frag_offset, 185); // 1480/8
        assert_eq!(frags[2].header.frag_offset, 370);
        assert_eq!(frags[0].payload.len() % 8, 0);
    }

    #[test]
    fn fragments_name_what_fragment_copies() {
        // The ranges the stack encodes from are the payloads the pooled
        // path copies, header for header; a fitting datagram is one range.
        let p = packet(3000);
        let ranges: Vec<_> = Fragments::new(p.header.clone(), 3000, 1500)
            .unwrap()
            .collect();
        let copies = fragment(p.clone(), 1500).unwrap();
        assert_eq!(ranges.len(), copies.len());
        for ((h, r), f) in ranges.into_iter().zip(&copies) {
            assert_eq!(h, f.header);
            assert_eq!(&p.payload[r], &f.payload[..]);
        }
        let whole: Vec<_> = Fragments::new(p.header.clone(), 0, 1500).unwrap().collect();
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].0.total_len, whole[0].1.clone()), (20, 0..0));
    }

    #[test]
    fn fragment_reassemble_roundtrip() {
        let p = packet(5000);
        let frags = fragment(p.clone(), 1500).unwrap();
        let mut r = Reassembler::new(30_000_000);
        let mut out = None;
        for f in frags {
            out = r.push(f, 0);
        }
        let got = out.expect("complete after last fragment");
        assert_eq!(got.payload, p.payload);
        assert_eq!(got.header.total_len, p.header.total_len);
        assert!(!got.header.more_fragments);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let p = packet(4000);
        let mut frags = fragment(p.clone(), 1000).unwrap();
        frags.reverse();
        let mut r = Reassembler::new(30_000_000);
        let mut out = None;
        for f in frags {
            let res = r.push(f, 0);
            if res.is_some() {
                out = res;
            }
        }
        assert_eq!(out.unwrap().payload, p.payload);
    }

    #[test]
    fn duplicate_fragments_tolerated() {
        let p = packet(3000);
        let frags = fragment(p.clone(), 1500).unwrap();
        let mut r = Reassembler::new(30_000_000);
        r.push(frags[0].clone(), 0);
        r.push(frags[0].clone(), 0); // duplicate
        r.push(frags[1].clone(), 0);
        let got = r.push(frags[2].clone(), 0).unwrap();
        assert_eq!(got.payload, p.payload);
    }

    #[test]
    fn a_duplicate_fragment_takes_no_buffer_on_the_ingest_path() {
        // Frames 0, 0, 1, 2 the way the stack ingests them: parsed in
        // place, each fragment's bytes copied straight into its
        // datagram's buffer, which the first fragment draws. The
        // duplicate takes nothing.
        let p = packet(3000);
        let frames: Vec<Vec<u8>> = fragment(p.clone(), 1500)
            .unwrap()
            .iter()
            .map(Packet::encode)
            .collect();
        let mut pool = BufferPool::new();
        let mut r = Reassembler::new(30_000_000);
        let mut whole = None;
        for f in [&frames[0], &frames[0], &frames[1], &frames[2]] {
            let (header, bytes) = crate::ip::parse_frame(f).unwrap();
            whole = r.push_fragment(&header, bytes, 0, &mut pool);
        }
        let whole = whole.expect("complete after the last fragment");
        assert_eq!(whole.payload, p.payload);
        pool.put(whole.payload);
        // The datagram's one buffer, taken (a miss) and returned.
        let s = pool.stats();
        assert_eq!(
            s,
            PoolStats {
                hits: 0,
                misses: 1,
                returns: 1,
                discards: 0
            }
        );
        assert_eq!(s.hits + s.misses, s.returns + s.discards);
    }

    #[test]
    fn contradicting_fragments_are_dropped() {
        let p = packet(3000);
        let frags = fragment(p.clone(), 1500).unwrap();
        let mut r = Reassembler::new(30_000_000);
        r.push(frags[0].clone(), 0);
        r.push(frags[1].clone(), 0);
        // A final fragment ending inside bytes already held, and a
        // non-final one of a length no fragmenter sends: both ignored.
        let mut short_end = frags[2].clone();
        short_end.header.frag_offset = 1;
        short_end.payload.truncate(8);
        assert!(r.push(short_end, 0).is_none());
        let mut ragged = frags[1].clone();
        ragged.payload.truncate(13);
        assert!(r.push(ragged, 0).is_none());
        // The genuine final fragment completes the genuine bytes.
        let got = r.push(frags[2].clone(), 0).unwrap();
        assert_eq!(got.payload, p.payload);
        // Reaching past a final length already seen: ignored too.
        let mut r = Reassembler::new(30_000_000);
        r.push(frags[2].clone(), 0);
        let mut beyond = frags[1].clone();
        beyond.header.frag_offset = 370;
        assert!(r.push(beyond, 0).is_none());
        assert!(r.push(frags[0].clone(), 0).is_none());
        let got = r.push(frags[1].clone(), 0).unwrap();
        assert_eq!(got.payload, p.payload);
    }

    #[test]
    fn missing_fragment_never_completes_then_expires() {
        let p = packet(3000);
        let frags = fragment(p, 1500).unwrap();
        let mut r = Reassembler::new(30_000_000);
        assert!(r.push(frags[0].clone(), 0).is_none());
        assert!(r.push(frags[2].clone(), 0).is_none());
        assert_eq!(r.pending(), 1);
        let mut pool = BufferPool::new();
        assert_eq!(r.expire(40_000_000, &mut pool), 1);
        assert_eq!(r.drops(ReassemblyDrop::Timeout), 1);
        assert_eq!(r.pending(), 0);
        // The one buffer both held fragments were copied into was
        // recycled, not dropped.
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn interleaved_datagrams_kept_apart() {
        let mut p1 = packet(2000);
        p1.header.id = 1;
        let mut p2 = packet(2000);
        p2.header.id = 2;
        for p in [&mut p1, &mut p2] {
            p.payload = Packet::new(p.header.clone(), p.payload.clone()).payload;
        }
        let f1 = fragment(p1.clone(), 1000).unwrap();
        let f2 = fragment(p2.clone(), 1000).unwrap();
        let mut r = Reassembler::new(30_000_000);
        r.push(f1[0].clone(), 0);
        r.push(f2[0].clone(), 0);
        r.push(f2[1].clone(), 0);
        let done2 = r.push(f2[2].clone(), 0).unwrap();
        assert_eq!(done2.header.id, 2);
        r.push(f1[1].clone(), 0);
        let done1 = r.push(f1[2].clone(), 0).unwrap();
        assert_eq!(done1.header.id, 1);
    }

    /// A non-final 8-byte fragment of datagram `id` at byte `off`: what
    /// a forger sends to make reassembly zero-fill up to `off`.
    fn forged(id: u16, off: usize) -> Packet {
        let mut h = Ipv4Header::new([6, 6, 6, 6], [2, 2, 2, 2], Proto::Udp, 8);
        h.id = id;
        h.frag_offset = (off / 8) as u16;
        h.more_fragments = true;
        Packet::new(h, vec![0xA5; 8])
    }

    /// Whether forged datagram `id` is still being reassembled.
    fn holds(r: &Reassembler, id: u16) -> bool {
        r.buffers
            .contains_key(&([6, 6, 6, 6], [2, 2, 2, 2], id, Proto::Udp.number()))
    }

    /// Bytes one forged partial at offset 64,800 is charged once grown:
    /// its 64,808 B buffer and its bitmap.
    const PER: usize = 64_808 + BITMAP_BYTES;

    #[test]
    fn a_forged_fragment_flood_stays_within_the_budget() {
        // Each frame would hold a 64,808 B buffer and a 1 KiB bitmap for
        // the timeout: 2,000 of them ~134 MB without a budget.
        let mut pool = BufferPool::new();
        let mut r = Reassembler::new(30_000_000);
        for id in 0..2_000u16 {
            let evicted = r.drops(ReassemblyDrop::OverBudget);
            let f = forged(id, 64_800);
            assert!(r
                .push_fragment(&f.header, &f.payload, id as u64, &mut pool)
                .is_none());
            let held = r.held_bytes();
            assert!(held <= REASM_HIGH_BYTES, "id {id}: {held}");
            if r.drops(ReassemblyDrop::OverBudget) > evicted {
                // Down to the low mark, and not one partial further:
                // newcomers past the first crossing reuse evicted
                // buffers, so their whole charge is already held.
                assert!(
                    (REASM_LOW_BYTES - PER + 1..=REASM_LOW_BYTES).contains(&held),
                    "id {id}: {held}"
                );
            }
        }
        assert_eq!(r.pending(), r.held_bytes() / PER);
        assert!((REASM_LOW_BYTES / PER..=REASM_HIGH_BYTES / PER).contains(&r.pending()));
        assert_eq!(
            r.drops(ReassemblyDrop::OverBudget),
            2_000 - r.pending() as u64
        );
        // The oldest went first: the newest forged partial is held.
        assert!(holds(&r, 1_999));
        // A genuine datagram still reassembles beside the flood.
        let p = packet(3000);
        let mut whole = None;
        for f in fragment(p.clone(), 1500).unwrap() {
            whole = r.push_fragment(&f.header, &f.payload, 2_000, &mut pool);
        }
        let whole = whole.expect("the genuine datagram completes");
        assert_eq!(whole.payload, p.payload);
        pool.put(whole.payload);
        // Expiry takes the rest; the books and the pool's ledger close.
        let rest = r.pending();
        assert_eq!(r.expire(u64::MAX, &mut pool), rest);
        assert_eq!((r.pending(), r.held_bytes()), (0, 0));
        assert_eq!(r.drops(ReassemblyDrop::Timeout), rest as u64);
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, s.returns + s.discards);
    }

    #[test]
    fn eviction_takes_the_oldest_partials_down_to_the_low_mark() {
        // As many full-size partials as the high mark holds, one a tick.
        let fit = REASM_HIGH_BYTES / PER;
        let mut r = Reassembler::new(30_000_000);
        for id in 0..fit as u16 {
            r.push(forged(id, 64_800), id as u64);
        }
        assert_eq!((r.pending(), r.held_bytes()), (fit, fit * PER));
        assert_eq!(r.drops(ReassemblyDrop::OverBudget), 0);
        // One more crosses it: the oldest go until the newcomer, grown,
        // fits under the low mark beside the rest.
        r.push(forged(fit as u16, 64_800), fit as u64);
        let kept = REASM_LOW_BYTES / PER;
        assert_eq!((r.pending(), r.held_bytes()), (kept, kept * PER));
        assert_eq!(r.drops(ReassemblyDrop::OverBudget), (fit + 1 - kept) as u64);
        assert_eq!(r.drops(ReassemblyDrop::Timeout), 0);
        for id in 0..=fit as u16 {
            assert_eq!(holds(&r, id), id as usize > fit - kept, "id {id}");
        }
    }

    #[test]
    fn the_zero_fill_is_charged_before_it_is_made() {
        // The high mark nearly full, and a small partial beside it.
        let fit = REASM_HIGH_BYTES / PER;
        let mut r = Reassembler::new(30_000_000);
        for id in 0..fit as u16 {
            r.push(forged(id, 64_800), 0);
        }
        let small = fit as u16;
        r.push(forged(small, 0), 1);
        assert_eq!(r.pending(), fit + 1);
        assert_eq!(r.drops(ReassemblyDrop::OverBudget), 0);
        // Its next fragment would zero-fill ~64 KiB past the high mark:
        // that growth is charged first, so the oldest partials make room
        // and it grows under the low mark.
        r.push(forged(small, 64_800), 2);
        assert!(holds(&r, small));
        assert!(!holds(&r, 0));
        assert!(r.held_bytes() <= REASM_LOW_BYTES, "{}", r.held_bytes());
        assert_eq!(
            r.drops(ReassemblyDrop::OverBudget),
            (fit + 1 - r.pending()) as u64
        );
    }

    #[test]
    #[should_panic(expected = "MTU too small")]
    fn tiny_mtu_panics() {
        let _ = fragment(packet(100), 20);
    }

    #[test]
    fn pooled_fragmentation_recycles_parent_and_pieces() {
        // fragment_pooled: parent payload returns to the pool; fragments
        // draw from it. push_pooled: the datagram's first fragment draws
        // its buffer, and every fragment payload goes back as it is
        // copied in. End to end, the second datagram's buffers all come
        // off the freelist.
        let mut pool = BufferPool::with_limits(16, 2048);
        for round in 0..2 {
            let p = packet(3000);
            let frags = fragment_pooled(p, 1500, &mut pool).unwrap();
            assert_eq!(frags.len(), 3);
            let mut r = Reassembler::new(30_000_000);
            let mut out = None;
            for f in frags {
                out = r.push_pooled(f, 0, &mut pool);
            }
            let got = out.expect("complete after last fragment");
            assert_eq!(got.payload, packet(3000).payload);
            pool.put(got.payload);
            if round == 1 {
                // Only round 1's three cold fragment takes missed: the
                // parent payload recycled by fragment_pooled immediately
                // serves round 1's reassembly-buffer take, and round 2
                // (3 fragment takes + 1 reassembly-buffer take) runs
                // entirely off the freelist.
                let s = pool.stats();
                assert_eq!(s.misses, 3, "only the cold fragment takes miss");
                assert_eq!(s.hits, 5);
            }
        }
    }
}
