//! MD5 message digest (RFC 1321).
//!
//! MD5 is the paper's hash of choice both for flow-key derivation
//! (`K_f = H(sfl | K_SD | S | D)`, §5.2) and for the keyed MAC (§7.2, where
//! CryptoLib's MD5 ran at 7060 kB/s on a Pentium 133).
//!
//! **Security note:** MD5 is collision-broken; see the crate disclaimer.

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 16;

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `floor(abs(sin(i+1)) * 2^32)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// The initial chaining value (RFC 1321 §3.3).
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// A streaming MD5 context.
#[derive(Clone)]
pub struct Md5(Lanes<1>);

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Create a fresh context.
    #[inline]
    pub fn new() -> Self {
        Md5(Lanes::new())
    }

    /// Absorb `data` into the digest.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0.update([data]);
    }

    /// Finish and return the 16-byte digest.
    #[inline]
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        let [digest] = self.0.finalize();
        digest
    }
}

/// Two MD5 contexts over messages of equal length, advanced in lockstep.
///
/// One MD5 block is a chain of 64 dependent steps, so a single digest
/// leaves most of a superscalar core idle. Two independent messages
/// interleave step by step into the gaps: two one-block digests cost
/// little more than one. Each lane's digest is exactly [`Md5`]'s of
/// the bytes that lane absorbed.
///
/// ```
/// use fbs_crypto::md5::{md5, Md5x2};
/// let mut h = Md5x2::new();
/// h.update([b"abc", b"xyz"]);
/// assert_eq!(h.finalize(), [md5(b"abc"), md5(b"xyz")]);
/// ```
#[derive(Clone)]
pub struct Md5x2(Lanes<2>);

impl Default for Md5x2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5x2 {
    /// Create a fresh pair of contexts.
    #[inline]
    pub fn new() -> Self {
        Md5x2(Lanes::new())
    }

    /// Absorb `data[0]` into lane 0 and `data[1]` into lane 1.
    ///
    /// # Panics
    /// Panics if the two parts differ in length: the lanes share one
    /// block schedule.
    #[inline]
    pub fn update(&mut self, data: [&[u8]; 2]) {
        self.0.update(data);
    }

    /// Finish and return both lanes' digests.
    #[inline]
    pub fn finalize(self) -> [[u8; DIGEST_SIZE]; 2] {
        self.0.finalize()
    }
}

/// `N` MD5 contexts over messages of one length, advanced in lockstep:
/// the streaming core of [`Md5`] (one lane) and [`Md5x2`] (two). Equal
/// lengths give every lane the same buffer fill and padding, so one
/// `len` and one `buf_len` serve all of them.
#[derive(Clone)]
struct Lanes<const N: usize> {
    state: [[u32; 4]; N],
    /// Total message bytes consumed so far, per lane.
    len: u64,
    /// The buffered tail of each lane, `buf_len` bytes. Every byte past
    /// it is zero, so `finalize` pads without clearing.
    buf: [[u8; 64]; N],
    buf_len: usize,
}

impl<const N: usize> Lanes<N> {
    fn new() -> Self {
        Lanes {
            state: [INIT; N],
            len: 0,
            buf: [[0u8; 64]; N],
            buf_len: 0,
        }
    }

    fn update(&mut self, data: [&[u8]; N]) {
        let n = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == n),
            "MD5 lanes absorb equal lengths"
        );
        self.len = self.len.wrapping_add(n as u64);
        let mut at = 0;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(n);
            for (buf, d) in self.buf.iter_mut().zip(data) {
                buf[self.buf_len..self.buf_len + take].copy_from_slice(&d[..take]);
            }
            self.buf_len += take;
            at = take;
            if self.buf_len == 64 {
                compress(&mut self.state, self.buf.each_ref());
                self.buf = [[0u8; 64]; N];
                self.buf_len = 0;
            }
        }
        while n - at >= 64 {
            let blocks = data.map(|d| d[at..at + 64].try_into().expect("64 bytes"));
            compress(&mut self.state, blocks);
            at += 64;
        }
        if at < n {
            for (buf, d) in self.buf.iter_mut().zip(data) {
                buf[..n - at].copy_from_slice(&d[at..]);
            }
            self.buf_len = n - at;
        }
    }

    fn finalize(mut self) -> [[u8; DIGEST_SIZE]; N] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding, built in place after the buffered tail: 0x80, zeros to
        // 56 mod 64 (spilling into a second block only when fewer than 9
        // bytes are left), then the bit count little-endian. The zeros
        // are already there: see `buf`.
        let tail = self.buf_len;
        for buf in self.buf.iter_mut() {
            buf[tail] = 0x80;
        }
        if tail >= 56 {
            compress(&mut self.state, self.buf.each_ref());
            self.buf = [[0u8; 64]; N];
        }
        for buf in self.buf.iter_mut() {
            buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        }
        compress(&mut self.state, self.buf.each_ref());
        self.state.map(|state| {
            let mut out = [0u8; DIGEST_SIZE];
            for (i, word) in state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
            out
        })
    }
}

/// RFC 1321's round functions. F is (b & c) | (!b & d) in a form one
/// operation shorter. G = (b & d) | (c & !d) comes in two forms. One
/// lane is latency-bound, so it takes `|` as `+` (the terms are
/// disjoint): `c & !d` need not wait for `b`. Two lanes are bound by
/// operation count instead, so they take the form with the fewest
/// operations. H and I are as RFC 1321 writes them.
#[inline(always)]
fn round_f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn round_g(b: u32, c: u32, d: u32) -> u32 {
    (c & !d).wrapping_add(b & d)
}

#[inline(always)]
fn round_g_fewest_ops(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn round_h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn round_i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One block into each of `N` independent chaining values: one lane
/// runs [`compress1`], two run [`compress2`].
#[inline(always)]
fn compress<const N: usize>(state: &mut [[u32; 4]; N], blocks: [&[u8; 64]; N]) {
    match state.as_mut_slice() {
        [s] => compress1(s, blocks[0]),
        [s0, s1] => compress2([s0, s1], [blocks[0], blocks[1]]),
        _ => unreachable!("MD5 runs one or two lanes"),
    }
}

/// The message words of one block.
#[inline(always)]
fn words(block: &[u8; 64]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (w, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }
    m
}

/// Step `i` of RFC 1321 §3.4 over lane registers `(a, b, c, d)` with
/// round function `f` and message word `m[g]`, rotating the roles of
/// the registers. The round value is added last: it is the only term
/// that waits on the previous step.
macro_rules! step {
    ($a:ident, $b:ident, $c:ident, $d:ident, $m:ident, $f:ident, $i:expr, $g:expr) => {
        ($a, $b, $c, $d) = (
            $d,
            $b.wrapping_add(
                $a.wrapping_add(K[$i])
                    .wrapping_add($m[$g])
                    .wrapping_add($f($b, $c, $d))
                    .rotate_left(S[$i]),
            ),
            $b,
            $c,
        )
    };
}

/// The 64 steps, `$step!(f, i, g)` each, with round 2's function `$g`:
/// four rounds of 16 over the constant tables, unrolled here into
/// straight code so the message index, constant and shift are
/// immediates whatever the lane count.
macro_rules! rounds {
    ($step:ident, $g:ident) => {
        rounds!(@each $step, $g, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@each $step:ident, $g:ident, $($j:literal)*) => {
        $( $step!(round_f, $j, $j); )*
        $( $step!($g, 16 + $j, (5 * (16 + $j) + 1) % 16); )*
        $( $step!(round_h, 32 + $j, (3 * (32 + $j) + 5) % 16); )*
        $( $step!(round_i, 48 + $j, (7 * (48 + $j)) % 16); )*
    };
}

/// One block into one chaining value.
fn compress1(state: &mut [u32; 4], block: &[u8; 64]) {
    let m = words(block);
    let [mut a, mut b, mut c, mut d] = *state;
    macro_rules! one {
        ($f:ident, $i:expr, $g:expr) => {
            step!(a, b, c, d, m, $f, $i, $g)
        };
    }
    rounds!(one, round_g);
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// One block into each of two independent chaining values, the lanes'
/// steps interleaved: lane 1's step `i` never waits on lane 0's, so each
/// fills the other's latency.
fn compress2(state: [&mut [u32; 4]; 2], blocks: [&[u8; 64]; 2]) {
    let (m0, m1) = (words(blocks[0]), words(blocks[1]));
    let [mut a0, mut b0, mut c0, mut d0] = *state[0];
    let [mut a1, mut b1, mut c1, mut d1] = *state[1];
    macro_rules! two {
        ($f:ident, $i:expr, $g:expr) => {
            step!(a0, b0, c0, d0, m0, $f, $i, $g);
            step!(a1, b1, c1, d1, m1, $f, $i, $g);
        };
    }
    rounds!(two, round_g_fewest_ops);
    for (s, v) in state[0].iter_mut().zip([a0, b0, c0, d0]) {
        *s = s.wrapping_add(v);
    }
    for (s, v) in state[1].iter_mut().zip([a1, b1, c1, d1]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot MD5 of `data`.
///
/// ```
/// let d = fbs_crypto::md5(b"abc");
/// assert_eq!(d[..4], [0x90, 0x01, 0x50, 0x98]); // RFC 1321 vector
/// ```
pub fn md5(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The complete RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&md5(input)), want);
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let oneshot = md5(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut ctx = Md5::new();
            for c in data.chunks(chunk) {
                ctx.update(c);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Inputs of length 55, 56, 57, 63, 64 exercise every padding branch.
        for len in [55usize, 56, 57, 63, 64, 119, 120] {
            let data = vec![0xABu8; len];
            let a = md5(&data);
            let mut ctx = Md5::new();
            ctx.update(&data[..len / 2]);
            ctx.update(&data[len / 2..]);
            assert_eq!(ctx.finalize(), a, "len {len}");
        }
    }

    /// Every prefix length 0..=300 of a fixed pattern, folded into one
    /// digest, so a padding branch (55/56/63/64/119/120) or round that
    /// drifts at any length fails here. The pin agrees with an independent
    /// implementation (Python's `hashlib`).
    #[test]
    fn every_length_to_300_pinned() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        let mut fold = Md5::new();
        for len in 0..=data.len() {
            fold.update(&md5(&data[..len]));
        }
        assert_eq!(hex(&fold.finalize()), "76916fc3d3110fa2b82d4faad906866c");
    }

    /// Both lanes of [`Md5x2`] equal scalar [`Md5`] for every equal
    /// length 0..=300 (lanes holding different bytes), absorbed whole
    /// and in parts that straddle the block boundaries.
    #[test]
    fn two_lanes_equal_two_scalar_digests_at_every_length() {
        let lane0: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        let lane1: Vec<u8> = (0..300u32).map(|i| (i * 59 + 101) as u8).collect();
        for len in 0..=lane0.len() {
            let (x, y) = (&lane0[..len], &lane1[..len]);
            let want = [md5(x), md5(y)];
            let mut whole = Md5x2::new();
            whole.update([x, y]);
            assert_eq!(whole.finalize(), want, "len {len}");
            let cut = len / 3;
            let mut parts = Md5x2::new();
            parts.update([&x[..cut], &y[..cut]]);
            parts.update([&x[cut..], &y[cut..]]);
            assert_eq!(parts.finalize(), want, "len {len} cut at {cut}");
        }
    }

    /// The RFC 1321 suite through each lane, the other lane holding a
    /// different message of the same length.
    #[test]
    fn rfc1321_test_suite_in_each_lane() {
        let cases: [(&[u8], &str); 4] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            let other: Vec<u8> = input.iter().map(|b| b ^ 0x5A).collect();
            for lane in 0..2 {
                let mut parts = [&other[..], &other[..]];
                parts[lane] = input;
                let mut h = Md5x2::new();
                h.update(parts);
                let digests = h.finalize();
                assert_eq!(hex(&digests[lane]), want, "lane {lane}");
                assert_eq!(digests[1 - lane], md5(&other));
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn two_lanes_refuse_unequal_lengths() {
        Md5x2::new().update([b"ab", b"c"]);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"flow-1"), md5(b"flow-2"));
    }
}
