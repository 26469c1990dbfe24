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
//! against the RFC 8439 test vectors in the module tests. Poly1305 keeps its
//! accumulator in two 64-bit limbs plus a few carry bits and multiplies
//! with `u128` products; the module tests check it against a [`BigUint`]
//! evaluation of the RFC's definition.
//!
//! [`BigUint`]: crate::bignum::BigUint

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
///
/// The arithmetic is radix 2^64. Clamping leaves each half of
/// `r = r0 + r1·2^64` below 2^60 and clears the low two bits of `r1`, so a
/// block costs four `u64 × u64 → u128` products and two small `u64` ones,
/// and the `2^128` terms fold back through `2^130 ≡ 5 (mod 2^130 − 5)` as
/// `r1·2^128 ≡ 5·r1/4`. Nothing branches on or indexes by the key, the
/// message or the accumulator.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, low half; below 2^60.
    r0: u64,
    /// Clamped `r`, high half; below 2^60 and a multiple of 4.
    r1: u64,
    /// `r1 + (r1 >> 2)` = `5·r1/4`, what `r1·2^128` reduces to; below 2^61.
    s1: u64,
    /// `s`, added mod 2^128 at the end.
    s: [u64; 2],
    /// Accumulator `h0 + h1·2^64 + h2·2^128`, partially reduced: between
    /// blocks `h2 ≤ 4`, so the value is below `2^130 + 2^64`.
    h0: u64,
    h1: u64,
    h2: u64,
    /// Partial-block buffer.
    buf: [u8; 16],
    /// Bytes pending in `buf`.
    buf_len: usize,
}

/// Little-endian `u64` at `bytes[at..at + 8]`.
#[inline(always)]
fn le64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

impl Poly1305 {
    /// Tag length in bytes.
    pub const TAG_LEN: usize = 16;

    /// Start a tag computation under the 32-byte one-time key `r || s`.
    pub fn new(key: &[u8; 32]) -> Self {
        let r0 = le64(key, 0) & 0x0fff_fffc_0fff_ffff;
        let r1 = le64(key, 8) & 0x0fff_fffc_0fff_fffc;
        Poly1305 {
            r0,
            r1,
            s1: r1 + (r1 >> 2),
            s: [le64(key, 16), le64(key, 24)],
            h0: 0,
            h1: 0,
            h2: 0,
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb one 16-byte block; `hibit` is 1 for full blocks (the 2^128
    /// bit RFC 8439 sets above each), 0 for the final short block, which
    /// carries its 0x01 byte inside.
    #[inline(always)]
    fn block(&mut self, m: &[u8; 16], hibit: u64) {
        let (r0, r1, s1) = (self.r0, self.r1, self.s1);

        // h += m + hibit·2^128. h2 ≤ 4 on entry, so h2 ≤ 6 after.
        let t = self.h0 as u128 + le64(m, 0) as u128;
        let h0 = t as u64;
        let t = self.h1 as u128 + le64(m, 8) as u128 + (t >> 64);
        let h1 = t as u64;
        let h2 = self.h2 + (t >> 64) as u64 + hibit;

        // h·r with the limbs at 2^128 and 2^192 folded down: h1·r1·2^128
        // ≡ h1·s1 and h2·r1·2^192 ≡ h2·s1·2^64. d0 < 2^126, d1 < 2^125 + 2^64.
        let d0 = h0 as u128 * r0 as u128 + h1 as u128 * s1 as u128;
        // h2 ≤ 6 and s1 < 2^61: h2·s1 < 2^64.
        let d1 = h0 as u128 * r1 as u128 + h1 as u128 * r0 as u128 + (h2 * s1) as u128;
        // h2 ≤ 6 and r0 < 2^60: h2·r0 < 2^63.
        let d2 = h2 * r0;

        // Carry into three limbs: d1 >> 64 < 2^61 + 2, so h2 < 2^63 + 2.
        let h0 = d0 as u64;
        let d1 = d1 + (d0 >> 64);
        let h1 = d1 as u64;
        let h2 = d2 + (d1 >> 64) as u64;

        // Partial reduction: the bits at 2^130 and up re-enter times 5,
        // (h2 >> 2)·2^130 ≡ 5·(h2 >> 2) = (h2 & !3) + (h2 >> 2) < 2^64.
        let c = (h2 & !3) + (h2 >> 2);
        let t = h0 as u128 + c as u128;
        self.h0 = t as u64;
        let t = h1 as u128 + (t >> 64);
        self.h1 = t as u64;
        self.h2 = (h2 & 3) + (t >> 64) as u64;
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                // Still short of a block: keep the bytes for the next call.
                return;
            }
            let block = self.buf;
            self.block(&block, 1);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            self.block(chunk.try_into().unwrap(), 1);
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
        // h < 2^130 + 2^64 < 2p, so one conditional subtraction of p
        // reduces it: g = h + 5 reaches 2^130 exactly when h ≥ p, and then
        // h − p = g − 2^130, whose low 128 bits are g1:g0. g2 ≤ 5.
        let t = self.h0 as u128 + 5;
        let g0 = t as u64;
        let t = self.h1 as u128 + (t >> 64);
        let g1 = t as u64;
        let g2 = self.h2 + (t >> 64) as u64;
        let mask = 0u64.wrapping_sub(g2 >> 2); // all-ones iff h ≥ p
        let h0 = (self.h0 & !mask) | (g0 & mask);
        let h1 = (self.h1 & !mask) | (g1 & mask);

        // Add s mod 2^128.
        let t = h0 as u128 + self.s[0] as u128;
        let lo = t as u64;
        let hi = h1.wrapping_add(self.s[1]).wrapping_add((t >> 64) as u64);
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
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
    use crate::bignum::BigUint;

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

    /// Streaming updates across odd boundaries match the one-shot tag,
    /// including a middle update too short to complete the pending partial
    /// block (the AEAD seal feeds its 1 + 4 + 4-byte header prefix so).
    #[test]
    fn poly1305_streaming_split_is_irrelevant() {
        let key = key_seq();
        let msg: Vec<u8> = (0..137u32).map(|i| (i * 7) as u8).collect();
        let oneshot = poly1305(&key, &[&msg]);
        for split in [1, 15, 16, 17, 31, 64, 100] {
            for middle in [0, 4, 9, 15, 16, 33] {
                let mid = split + middle;
                let mut p = Poly1305::new(&key);
                p.update(&msg[..split]);
                p.update(&msg[split..mid]);
                p.update(&msg[mid..]);
                assert_eq!(p.finalize(), oneshot, "splits at {split}, {mid}");
            }
        }
    }

    /// The RFC 8439 §2.5.1 definition, evaluated with [`BigUint`]: each
    /// 16-byte chunk `mᵢ` (the last one possibly short) gets a 0x01 byte
    /// appended and is read little-endian; Horner's rule gives
    /// `Σ (mᵢ‖0x01)·r^(n−i+1) mod 2^130−5`, and the tag is that plus `s`,
    /// mod 2^128. Clamping is spelled byte by byte, independently of the
    /// limb masks in [`Poly1305::new`].
    fn reference_tag(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let le = |bytes: &[u8]| {
            let be: Vec<u8> = bytes.iter().rev().copied().collect();
            BigUint::from_bytes_be(&be)
        };
        let p = BigUint::one().shl(130).sub(&BigUint::from_u64(5));
        let mut r_bytes = [0u8; 16];
        r_bytes.copy_from_slice(&key[..16]);
        for i in [3, 7, 11, 15] {
            r_bytes[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            r_bytes[i] &= 0xfc;
        }
        let r = le(&r_bytes);
        let mut acc = BigUint::zero();
        for chunk in msg.chunks(16) {
            let mut block = chunk.to_vec();
            block.push(1);
            acc = acc.add(&le(&block)).modmul(&r, &p);
        }
        let sum = acc.add(&le(&key[16..])).to_bytes_be_padded(17);
        let mut tag = [0u8; 16];
        for (t, b) in tag.iter_mut().zip(sum.iter().rev()) {
            *t = *b;
        }
        tag
    }

    /// Every length 0..=300, under the sequential key and under a batch of
    /// pseudo-random keys and messages: the limb arithmetic equals the
    /// bignum definition.
    #[test]
    fn poly1305_matches_the_bignum_definition() {
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=msg.len() {
            assert_eq!(
                poly1305(&key_seq(), &[&msg[..len]]),
                reference_tag(&key_seq(), &msg[..len]),
                "length {len}"
            );
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        };
        for len in 0..=300 {
            let key: [u8; 32] = std::array::from_fn(|_| next());
            let msg: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(
                poly1305(&key, &[&msg]),
                reference_tag(&key, &msg),
                "length {len}"
            );
        }
    }

    /// The carries the limbs must get right: the largest clamped `r`, an
    /// all-ones `s` and all-ones messages; and `r = 1`, under which the
    /// accumulator is the plain sum of the blocks, so that two all-ones
    /// blocks leave it at 2·(2^129 − 1) = 2^130 − 2, inside [p, 2^130),
    /// where only the final compare-and-select reduces it.
    #[test]
    fn poly1305_adversarial_inputs_match_the_bignum_definition() {
        let ones = [0xFFu8; 300];
        for len in 0..=ones.len() {
            let key = [0xFFu8; 32];
            assert_eq!(
                poly1305(&key, &[&ones[..len]]),
                reference_tag(&key, &ones[..len]),
                "all-ones key, length {len}"
            );
        }
        let p = BigUint::one().shl(130).sub(&BigUint::from_u64(5));
        let top = BigUint::one().shl(130);
        let block = BigUint::one().shl(129).sub(&BigUint::one());
        assert!(block.add(&block) >= p && block.add(&block) < top);
        for s_byte in [0x00u8, 0x01, 0xFF] {
            let mut key = [s_byte; 32];
            key[..16].fill(0);
            key[0] = 1;
            for len in 0..=ones.len() {
                assert_eq!(
                    poly1305(&key, &[&ones[..len]]),
                    reference_tag(&key, &ones[..len]),
                    "r = 1, s = {s_byte:#04x}, length {len}"
                );
            }
        }
    }

    /// Every prefix length 0..=300 of a fixed pattern, tagged under the
    /// sequential key and folded into one MD5, so a padding or carry path
    /// that drifts at any length fails here. Recorded from the radix-2^26
    /// implementation this one replaced; it agrees with Python big-integer
    /// arithmetic and `hashlib`.
    #[test]
    fn every_length_to_300_pinned() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        let mut fold = crate::md5::Md5::new();
        for len in 0..=data.len() {
            fold.update(&poly1305(&key_seq(), &[&data[..len]]));
        }
        assert_eq!(hex(&fold.finalize()), "d16c90dee6e904bfbd691b8f5efefb72");
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
