//! SHA-1 message digest (FIPS 180, "SHS" in the paper).
//!
//! The paper lists SHS as an alternative to MD5 for both flow-key derivation
//! and MAC computation (§5.2), noting its 160-bit output (§5.3). Provided so
//! the algorithm-identification field has a second real algorithm to select.
//!
//! **Security note:** SHA-1 is collision-broken; see the crate disclaimer.

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 20;

/// A streaming SHA-1 context.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a fresh context.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
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

    /// Finish and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        let bit_len = self.len.wrapping_mul(8);
        // One-pass padding, as MD5's but with a big-endian bit count.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        // One step with round value `f`, constant `k` and schedule word
        // `wi`, rotating the roles of (a, b, c, d, e). Each round is its
        // own 20-word loop, unrolled by the optimiser into straight code.
        // `a <<< 5` is added last: it is the only term that waits on the
        // previous step.
        macro_rules! step {
            ($f:expr, $k:expr, $wi:expr) => {
                (a, b, c, d, e) = (
                    e.wrapping_add($k)
                        .wrapping_add($wi)
                        .wrapping_add($f)
                        .wrapping_add(a.rotate_left(5)),
                    a,
                    b.rotate_left(30),
                    c,
                    d,
                )
            };
        }
        // Ch = (b & c) | (!b & d) and, in round 3, Maj = (b & c) | (b & d)
        // | (c & d), each in a form one operation shorter; rounds 2 and 4
        // are parity.
        for &wi in &w[..20] {
            step!(d ^ (b & (c ^ d)), 0x5A827999, wi);
        }
        for &wi in &w[20..40] {
            step!(b ^ c ^ d, 0x6ED9EBA1, wi);
        }
        for &wi in &w[40..60] {
            step!((b & c) | (d & (b | c)), 0x8F1BBCDC, wi);
        }
        for &wi in &w[60..] {
            step!(b ^ c ^ d, 0xCA62C1D6, wi);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut ctx = Sha1::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180 / NIST example vectors.
    #[test]
    fn fips180_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut ctx = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&chunk);
        }
        assert_eq!(
            hex(&ctx.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// Every prefix length 0..=300 of a fixed pattern, folded into one
    /// digest, so a padding branch or round that drifts at any length
    /// fails here. The pin agrees with an independent implementation
    /// (Python's `hashlib`).
    #[test]
    fn every_length_to_300_pinned() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        let mut fold = Sha1::new();
        for len in 0..=data.len() {
            fold.update(&sha1(&data[..len]));
        }
        assert_eq!(
            hex(&fold.finalize()),
            "b6f0cb8efb951ee8eb13ae07d04d6aad503b5a85"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7) as u8).collect();
        let oneshot = sha1(&data);
        for chunk in [1usize, 13, 64, 65] {
            let mut ctx = Sha1::new();
            for c in data.chunks(chunk) {
                ctx.update(c);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk}");
        }
    }
}
