//! ChaCha20 stream cipher and Poly1305 one-time authenticator (RFC 8439).
//!
//! These are the modern-suite primitives behind [`CipherSuite::AeadChaPoly`]
//! (crate root): the paper's algorithm-ID field (§5.2) explicitly anticipates
//! deployments negotiating stronger algorithms than DES+MD5, and the fig08
//! analysis identifies per-byte crypto cost as the throughput ceiling.
//! ChaCha20-Poly1305 runs an order of magnitude faster per byte than
//! DES+MD5 in portable scalar code, which is what raises that ceiling.
//!
//! Hermetic from-scratch implementations (no external crates), validated
//! against the RFC 8439 test vectors in the module tests. Poly1305 uses the
//! classic five-limb radix-2^26 representation so all products fit in `u64`.

/// ChaCha20 block/stream cipher keyed with a 256-bit key and 96-bit nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    /// Key words 4..12 of the initial state (little-endian key bytes).
    key: [u32; 8],
    /// Nonce words 13..16 of the initial state (little-endian nonce bytes).
    nonce: [u32; 3],
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Build a cipher instance from a 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
        }
        let mut n = [0u32; 3];
        for (i, w) in n.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// Produce the 64-byte keystream block for `counter`.
    pub fn block(&self, counter: u32, out: &mut [u8; 64]) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        let initial = state;
        for _ in 0..10 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for i in 0..16 {
            let w = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// XOR the keystream starting at block `counter` into `data` in place.
    /// Encryption and decryption are the same operation.
    pub fn xor_keystream(&self, mut counter: u32, data: &mut [u8]) {
        let mut ks = [0u8; 64];
        for chunk in data.chunks_mut(64) {
            self.block(counter, &mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Derive the Poly1305 one-time key for this (key, nonce) pair: the
    /// first 32 bytes of keystream block 0 (RFC 8439 §2.6). Message
    /// encryption then starts at block 1.
    pub fn poly1305_key(&self) -> [u8; 32] {
        let mut block0 = [0u8; 64];
        self.block(0, &mut block0);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);
        otk
    }
}

/// Streaming Poly1305 one-time authenticator (RFC 8439 §2.5).
///
/// The 32-byte key is `r || s`; `r` is clamped per the RFC. The key MUST be
/// used for a single message only — the suite derives a fresh one per
/// datagram from ChaCha20 keystream block 0.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, radix-2^26 limbs.
    r: [u32; 5],
    /// `5 * r[1..5]`, precomputed for the reduction step.
    r5: [u32; 4],
    /// `s`, added mod 2^128 at the end.
    s: [u32; 4],
    /// Accumulator, radix-2^26 limbs.
    h: [u32; 5],
    /// Partial-block buffer.
    buf: [u8; 16],
    /// Bytes pending in `buf`.
    buf_len: usize,
}

impl Poly1305 {
    /// Tag length in bytes.
    pub const TAG_LEN: usize = 16;

    /// Start a tag computation under the 32-byte one-time key `r || s`.
    pub fn new(key: &[u8; 32]) -> Self {
        let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());
        // Clamp and split r into five 26-bit limbs.
        let r = [
            t0 & 0x03ff_ffff,
            ((t0 >> 26) | (t1 << 6)) & 0x03ff_ff03,
            ((t1 >> 20) | (t2 << 12)) & 0x03ff_c0ff,
            ((t2 >> 14) | (t3 << 18)) & 0x03f0_3fff,
            (t3 >> 8) & 0x000f_ffff,
        ];
        Poly1305 {
            r,
            r5: [r[1] * 5, r[2] * 5, r[3] * 5, r[4] * 5],
            s: [
                u32::from_le_bytes(key[16..20].try_into().unwrap()),
                u32::from_le_bytes(key[20..24].try_into().unwrap()),
                u32::from_le_bytes(key[24..28].try_into().unwrap()),
                u32::from_le_bytes(key[28..32].try_into().unwrap()),
            ],
            h: [0; 5],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb one 16-byte block; `hibit` is 1<<24 for full blocks, the
    /// padded high bit position for the final short block.
    fn block(&mut self, m: &[u8; 16], hibit: u32) {
        let t0 = u32::from_le_bytes(m[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(m[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(m[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(m[12..16].try_into().unwrap());
        let h0 = (self.h[0] + (t0 & 0x03ff_ffff)) as u64;
        let h1 = (self.h[1] + (((t0 >> 26) | (t1 << 6)) & 0x03ff_ffff)) as u64;
        let h2 = (self.h[2] + (((t1 >> 20) | (t2 << 12)) & 0x03ff_ffff)) as u64;
        let h3 = (self.h[3] + (((t2 >> 14) | (t3 << 18)) & 0x03ff_ffff)) as u64;
        let h4 = (self.h[4] + ((t3 >> 8) | hibit)) as u64;

        let (r0, r1, r2, r3, r4) = (
            self.r[0] as u64,
            self.r[1] as u64,
            self.r[2] as u64,
            self.r[3] as u64,
            self.r[4] as u64,
        );
        let (s1, s2, s3, s4) = (
            self.r5[0] as u64,
            self.r5[1] as u64,
            self.r5[2] as u64,
            self.r5[3] as u64,
        );

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let mut d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let mut d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        // Carry chain mod 2^130 - 5: the carry out of limb 4 re-enters
        // limb 0 multiplied by 5.
        let mut c = d0 >> 26;
        d1 += c;
        let mut h = [0u32; 5];
        h[0] = (d0 & 0x03ff_ffff) as u32;
        c = d1 >> 26;
        d2 += c;
        h[1] = (d1 & 0x03ff_ffff) as u32;
        c = d2 >> 26;
        d3 += c;
        h[2] = (d2 & 0x03ff_ffff) as u32;
        c = d3 >> 26;
        d4 += c;
        h[3] = (d3 & 0x03ff_ffff) as u32;
        c = d4 >> 26;
        h[4] = (d4 & 0x03ff_ffff) as u32;
        h[0] += (c as u32) * 5;
        let c2 = h[0] >> 26;
        h[0] &= 0x03ff_ffff;
        h[1] += c2;
        self.h = h;
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let want = 16 - self.buf_len;
            let take = want.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, 1 << 24);
                self.buf_len = 0;
            }
        }
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            self.block(chunk.try_into().unwrap(), 1 << 24);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish and return the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // Final short block: append the 0x01 byte, zero-pad, no hibit.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        // Fully reduce h mod 2^130 - 5.
        let mut h = self.h;
        let mut c = h[1] >> 26;
        h[1] &= 0x03ff_ffff;
        h[2] += c;
        c = h[2] >> 26;
        h[2] &= 0x03ff_ffff;
        h[3] += c;
        c = h[3] >> 26;
        h[3] &= 0x03ff_ffff;
        h[4] += c;
        c = h[4] >> 26;
        h[4] &= 0x03ff_ffff;
        h[0] += c * 5;
        c = h[0] >> 26;
        h[0] &= 0x03ff_ffff;
        h[1] += c;

        // Compute h + -p and constant-time select.
        let mut g = [0u32; 5];
        let mut carry = 5u32;
        for i in 0..4 {
            let t = h[i] + carry;
            g[i] = t & 0x03ff_ffff;
            carry = t >> 26;
        }
        let t = h[4].wrapping_add(carry).wrapping_sub(1 << 26);
        g[4] = t;
        let mask = (t >> 31).wrapping_sub(1); // all-ones if h >= p
        for i in 0..5 {
            h[i] = (h[i] & !mask) | (g[i] & mask);
        }

        // Serialize to radix-2^32 and add s mod 2^128.
        let w = [
            h[0] | (h[1] << 26),
            (h[1] >> 6) | (h[2] << 20),
            (h[2] >> 12) | (h[3] << 14),
            (h[3] >> 18) | (h[4] << 8),
        ];
        let mut tag = [0u8; 16];
        let mut acc = 0u64;
        for i in 0..4 {
            acc = (w[i] as u64) + (self.s[i] as u64) + (acc >> 32);
            tag[i * 4..i * 4 + 4].copy_from_slice(&(acc as u32).to_le_bytes());
        }
        tag
    }
}

/// One-shot Poly1305 tag of `parts` (logically concatenated) under `key`.
pub fn poly1305(key: &[u8; 32], parts: &[&[u8]]) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    for part in parts {
        p.update(part);
    }
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn key_seq() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    /// RFC 8439 §2.3.2: ChaCha20 block function test vector.
    #[test]
    fn rfc8439_block() {
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cc = ChaCha20::new(&key_seq(), &nonce);
        let mut out = [0u8; 64];
        cc.block(1, &mut out);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2: ChaCha20 encryption of the sunscreen plaintext.
    #[test]
    fn rfc8439_encrypt() {
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cc = ChaCha20::new(&key_seq(), &nonce);
        let mut data = *b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        cc.xor_keystream(1, &mut data);
        assert_eq!(
            hex(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(hex(&data[data.len() - 8..]), "8eedf2785e42874d");
        // Decryption is the same operation.
        let mut back = data;
        cc.xor_keystream(1, &mut back);
        assert!(back.starts_with(b"Ladies and Gentlemen"));
    }

    /// RFC 8439 §2.5.2: Poly1305 tag test vector.
    #[test]
    fn rfc8439_poly1305() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(
            &[
                0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
                0x06, 0xa8,
            ][..],
        );
        key[16..].copy_from_slice(
            &[
                0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
                0xf5, 0x1b,
            ][..],
        );
        let tag = poly1305(&key, &[b"Cryptographic Forum Research Group"]);
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    /// RFC 8439 §2.6.2: Poly1305 one-time key derivation from ChaCha20.
    #[test]
    fn rfc8439_poly_key_gen() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let otk = ChaCha20::new(&key, &nonce).poly1305_key();
        assert_eq!(
            hex(&otk),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    /// Streaming updates across odd boundaries match the one-shot tag.
    #[test]
    fn poly1305_streaming_split_is_irrelevant() {
        let key = key_seq();
        let msg: Vec<u8> = (0..137u32).map(|i| (i * 7) as u8).collect();
        let oneshot = poly1305(&key, &[&msg]);
        for split in [1, 15, 16, 17, 31, 64, 100] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), oneshot, "split at {split}");
        }
    }

    /// Keystream over multiple blocks equals per-block generation.
    #[test]
    fn multiblock_keystream_consistent() {
        let nonce = [7u8; 12];
        let cc = ChaCha20::new(&key_seq(), &nonce);
        let mut stream = vec![0u8; 130];
        cc.xor_keystream(1, &mut stream);
        let mut blocks = [0u8; 64];
        for (i, chunk) in stream.chunks(64).enumerate() {
            cc.block(1 + i as u32, &mut blocks);
            assert_eq!(chunk, &blocks[..chunk.len()]);
        }
    }
}
