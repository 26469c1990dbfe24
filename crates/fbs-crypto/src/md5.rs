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

/// A streaming MD5 context.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message bytes consumed so far.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Create a fresh context.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while input.len() >= 64 {
            let block: [u8; 64] = input[..64].try_into().unwrap();
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding, built in one pass: the buffered tail, 0x80, zeros to
        // 56 mod 64 (spilling into a second block only when fewer than 9
        // bytes are left), then the bit count little-endian.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        // Step `i` of RFC 1321 §3.4 with round value `f`, rotating the
        // roles of (a, b, c, d). Each round below is its own 16-trip loop
        // over constant tables, which the optimiser unrolls into straight
        // code with the message index, constant and shift as immediates.
        // `f` is added last: it is the only term that waits on the
        // previous step.
        macro_rules! step {
            ($f:expr, $i:expr, $g:expr) => {
                (a, b, c, d) = (
                    d,
                    b.wrapping_add(
                        a.wrapping_add(K[$i])
                            .wrapping_add(m[$g])
                            .wrapping_add($f)
                            .rotate_left(S[$i]),
                    ),
                    b,
                    c,
                )
            };
        }
        // Round 1: F = (b & c) | (!b & d), in a form one operation shorter.
        for i in 0..16 {
            step!(d ^ (b & (c ^ d)), i, i);
        }
        // Round 2: G = (b & d) | (c & !d). The terms are disjoint, so `|`
        // is `+`, and `c & !d` need not wait for `b`.
        for i in 16..32 {
            step!((c & !d).wrapping_add(b & d), i, (5 * i + 1) % 16);
        }
        // Rounds 3 and 4: H and I as RFC 1321 writes them.
        for i in 32..48 {
            step!(b ^ c ^ d, i, (3 * i + 5) % 16);
        }
        for i in 48..64 {
            step!(c ^ (b | !d), i, (7 * i) % 16);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
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

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"flow-1"), md5(b"flow-2"));
    }
}
