//! Keyed message authentication codes.
//!
//! The paper defines the FBS MAC as `HMAC(K_f | confounder | timestamp |
//! payload)` where `HMAC` is "some one-way cryptographic hash function"
//! (§5.2) — i.e. a *prefix-keyed hash*, the 1997 idiom (keyed MD5, §7.2).
//! This module provides:
//!
//! * [`keyed_digest`] — the paper's exact prefix-key construction;
//! * [`hmac_md5`] / [`hmac_sha1`] — RFC 2104 HMAC, offered as the
//!   modern-construction ablation (prefix-keyed MD5 is vulnerable to
//!   length-extension; FBS's fixed-length header fields mitigate but do not
//!   eliminate this, and the algorithm-ID field lets deployments upgrade);
//! * [`MacAlgorithm`] — the algorithm-identification selector (§5.2).

use crate::chacha::Poly1305;
use crate::md5::{self, Md5};
use crate::sha1::{self, Sha1};

/// Maximum MAC output size across supported algorithms.
pub const MAX_MAC_SIZE: usize = 20;

/// MAC algorithm selector for the FBS header's algorithm-ID field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MacAlgorithm {
    /// Prefix-keyed MD5 (the paper's implementation choice): 16 bytes.
    KeyedMd5,
    /// Prefix-keyed SHA-1 ("SHS" in the paper): 20 bytes, truncatable.
    KeyedSha1,
    /// RFC 2104 HMAC-MD5: 16 bytes.
    HmacMd5,
    /// RFC 2104 HMAC-SHA1: 20 bytes.
    HmacSha1,
    /// Poly1305 one-time authenticator (RFC 8439): 16 bytes. The key is a
    /// 32-byte *one-time* `r || s` pair — the AEAD suite derives a fresh one
    /// per datagram from ChaCha20 keystream block 0; it is never keyed with
    /// the long-lived flow key directly.
    Poly1305,
}

impl MacAlgorithm {
    /// Output length in bytes before truncation.
    pub fn output_len(self) -> usize {
        match self {
            MacAlgorithm::KeyedMd5 | MacAlgorithm::HmacMd5 | MacAlgorithm::Poly1305 => 16,
            MacAlgorithm::KeyedSha1 | MacAlgorithm::HmacSha1 => 20,
        }
    }

    /// Wire identifier for the algorithm-ID header field.
    pub fn wire_id(self) -> u8 {
        match self {
            MacAlgorithm::KeyedMd5 => 0,
            MacAlgorithm::KeyedSha1 => 1,
            MacAlgorithm::HmacMd5 => 2,
            MacAlgorithm::HmacSha1 => 3,
            MacAlgorithm::Poly1305 => 4,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => MacAlgorithm::KeyedMd5,
            1 => MacAlgorithm::KeyedSha1,
            2 => MacAlgorithm::HmacMd5,
            3 => MacAlgorithm::HmacSha1,
            4 => MacAlgorithm::Poly1305,
            _ => return None,
        })
    }

    /// Compute the MAC over `parts` (logically concatenated) under `key`.
    pub fn compute(self, key: &[u8], parts: &[&[u8]]) -> Vec<u8> {
        match self {
            MacAlgorithm::KeyedMd5 => {
                let mut ctx = Md5::new();
                ctx.update(key);
                for p in parts {
                    ctx.update(p);
                }
                ctx.finalize().to_vec()
            }
            MacAlgorithm::KeyedSha1 => {
                let mut ctx = Sha1::new();
                ctx.update(key);
                for p in parts {
                    ctx.update(p);
                }
                ctx.finalize().to_vec()
            }
            MacAlgorithm::HmacMd5 => hmac_md5_parts(key, parts).to_vec(),
            MacAlgorithm::HmacSha1 => hmac_sha1_parts(key, parts).to_vec(),
            MacAlgorithm::Poly1305 => {
                let mut ctx = self.begin(key);
                for p in parts {
                    ctx.update(p);
                }
                ctx.finalize()
            }
        }
    }
}

/// An incremental MAC computation.
///
/// §5.3 observes that MAC computation "requires touching all the data in
/// the datagram" and that an efficient implementation should combine all
/// data-touching operations — MAC + encryption — into a single pass. The
/// streaming context makes that single-pass loop possible: the protocol
/// layer interleaves `update` calls with cipher-block processing.
///
/// `Clone` lets a flow key cache an HMAC context that has already
/// absorbed `key ⊕ ipad`: sealing a datagram then clones the cached state
/// instead of re-absorbing the 64-byte key block, skipping one
/// compression-function invocation per datagram. A prefix-keyed context
/// gains nothing from such a cache: its 16- or 20-byte key waits in the
/// block buffer, uncompressed, so beginning afresh is the same copy.
#[derive(Clone)]
pub enum MacContext {
    /// Prefix-keyed MD5 state.
    KeyedMd5(Md5),
    /// Prefix-keyed SHA-1 state.
    KeyedSha1(Sha1),
    /// HMAC-MD5: inner hash state + prepared key block for the outer pass.
    HmacMd5 {
        /// Inner hash, already primed with `key ⊕ ipad`.
        inner: Md5,
        /// Padded key block.
        key_block: [u8; 64],
    },
    /// HMAC-SHA1: inner hash state + prepared key block for the outer pass.
    HmacSha1 {
        /// Inner hash, already primed with `key ⊕ ipad`.
        inner: Sha1,
        /// Padded key block.
        key_block: [u8; 64],
    },
    /// Poly1305 one-time authenticator state.
    Poly1305(Poly1305),
}

impl MacContext {
    /// The algorithm this context computes.
    pub fn algorithm(&self) -> MacAlgorithm {
        match self {
            MacContext::KeyedMd5(_) => MacAlgorithm::KeyedMd5,
            MacContext::KeyedSha1(_) => MacAlgorithm::KeyedSha1,
            MacContext::HmacMd5 { .. } => MacAlgorithm::HmacMd5,
            MacContext::HmacSha1 { .. } => MacAlgorithm::HmacSha1,
            MacContext::Poly1305(_) => MacAlgorithm::Poly1305,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        match self {
            MacContext::KeyedMd5(ctx) => ctx.update(data),
            MacContext::KeyedSha1(ctx) => ctx.update(data),
            MacContext::HmacMd5 { inner, .. } => inner.update(data),
            MacContext::HmacSha1 { inner, .. } => inner.update(data),
            MacContext::Poly1305(ctx) => ctx.update(data),
        }
    }

    /// Finish and return the MAC bytes.
    pub fn finalize(self) -> Vec<u8> {
        let mut out = [0u8; MAX_MAC_SIZE];
        let len = self.finalize_into(&mut out);
        out[..len].to_vec()
    }

    /// Finish, writing the MAC into `out` and returning its length — the
    /// zero-copy fast path: no digest temporary is heap-allocated.
    pub fn finalize_into(self, out: &mut [u8; MAX_MAC_SIZE]) -> usize {
        match self {
            MacContext::KeyedMd5(ctx) => {
                out[..16].copy_from_slice(&ctx.finalize());
                16
            }
            MacContext::KeyedSha1(ctx) => {
                out[..20].copy_from_slice(&ctx.finalize());
                20
            }
            MacContext::HmacMd5 { inner, key_block } => {
                let inner_digest = inner.finalize();
                let mut outer = Md5::new();
                outer.update(&xor_block(&key_block, 0x5c));
                outer.update(&inner_digest);
                out[..16].copy_from_slice(&outer.finalize());
                16
            }
            MacContext::HmacSha1 { inner, key_block } => {
                let inner_digest = inner.finalize();
                let mut outer = Sha1::new();
                outer.update(&xor_block(&key_block, 0x5c));
                outer.update(&inner_digest);
                out[..20].copy_from_slice(&outer.finalize());
                20
            }
            MacContext::Poly1305(ctx) => {
                out[..16].copy_from_slice(&ctx.finalize());
                16
            }
        }
    }
}

/// XOR an HMAC key block with the ipad/opad byte on the stack.
fn xor_block(block: &[u8; HMAC_BLOCK], pad: u8) -> [u8; HMAC_BLOCK] {
    let mut out = *block;
    for b in &mut out {
        *b ^= pad;
    }
    out
}

impl MacAlgorithm {
    /// Begin an incremental MAC computation keyed by `key`.
    pub fn begin(self, key: &[u8]) -> MacContext {
        match self {
            MacAlgorithm::KeyedMd5 => {
                let mut ctx = Md5::new();
                ctx.update(key);
                MacContext::KeyedMd5(ctx)
            }
            MacAlgorithm::KeyedSha1 => {
                let mut ctx = Sha1::new();
                ctx.update(key);
                MacContext::KeyedSha1(ctx)
            }
            MacAlgorithm::HmacMd5 => {
                let mut k = [0u8; HMAC_BLOCK];
                if key.len() > HMAC_BLOCK {
                    k[..16].copy_from_slice(&md5::md5(key));
                } else {
                    k[..key.len()].copy_from_slice(key);
                }
                let mut inner = Md5::new();
                inner.update(&xor_block(&k, 0x36));
                MacContext::HmacMd5 {
                    inner,
                    key_block: k,
                }
            }
            MacAlgorithm::HmacSha1 => {
                let mut k = [0u8; HMAC_BLOCK];
                if key.len() > HMAC_BLOCK {
                    k[..20].copy_from_slice(&sha1::sha1(key));
                } else {
                    k[..key.len()].copy_from_slice(key);
                }
                let mut inner = Sha1::new();
                inner.update(&xor_block(&k, 0x36));
                MacContext::HmacSha1 {
                    inner,
                    key_block: k,
                }
            }
            MacAlgorithm::Poly1305 => {
                // The one-time key is exactly 32 bytes; shorter keys are
                // zero-padded (deterministic, but callers always pass the
                // full `r || s` pair), longer keys are truncated.
                let mut otk = [0u8; 32];
                let n = key.len().min(32);
                otk[..n].copy_from_slice(&key[..n]);
                MacContext::Poly1305(Poly1305::new(&otk))
            }
        }
    }
}

/// The paper's MAC: prefix-keyed hash of `key | parts...` using MD5.
pub fn keyed_digest(key: &[u8], parts: &[&[u8]]) -> [u8; 16] {
    let mut ctx = Md5::new();
    ctx.update(key);
    for p in parts {
        ctx.update(p);
    }
    ctx.finalize()
}

const HMAC_BLOCK: usize = 64;

fn hmac_md5_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 16] {
    let mut k = [0u8; HMAC_BLOCK];
    if key.len() > HMAC_BLOCK {
        k[..16].copy_from_slice(&md5::md5(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Md5::new();
    inner.update(&xor_block(&k, 0x36));
    for p in parts {
        inner.update(p);
    }
    let inner_digest = inner.finalize();
    let mut outer = Md5::new();
    outer.update(&xor_block(&k, 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
}

fn hmac_sha1_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 20] {
    let mut k = [0u8; HMAC_BLOCK];
    if key.len() > HMAC_BLOCK {
        k[..20].copy_from_slice(&sha1::sha1(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha1::new();
    inner.update(&xor_block(&k, 0x36));
    for p in parts {
        inner.update(p);
    }
    let inner_digest = inner.finalize();
    let mut outer = Sha1::new();
    outer.update(&xor_block(&k, 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
}

/// RFC 2104 HMAC-MD5 of a single message.
pub fn hmac_md5(key: &[u8], msg: &[u8]) -> [u8; 16] {
    hmac_md5_parts(key, &[msg])
}

/// RFC 2104 HMAC-SHA1 of a single message.
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> [u8; 20] {
    hmac_sha1_parts(key, &[msg])
}

/// Constant-time MAC comparison: prevents a receiver-side timing oracle on
/// MAC verification (R8 of Fig. 4).
pub fn mac_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2202 HMAC-MD5 test vectors.
    #[test]
    fn rfc2202_hmac_md5() {
        assert_eq!(
            hex(&hmac_md5(&[0x0b; 16], b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
        assert_eq!(
            hex(&hmac_md5(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
        assert_eq!(
            hex(&hmac_md5(&[0xaa; 16], &[0xdd; 50])),
            "56be34521d144c88dbb8c733f0e8b3f6"
        );
        // 80-byte key exercises the key-hashing branch.
        assert_eq!(
            hex(&hmac_md5(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"
        );
    }

    /// RFC 2202 HMAC-SHA1 test vectors.
    #[test]
    fn rfc2202_hmac_sha1() {
        assert_eq!(
            hex(&hmac_sha1(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn keyed_digest_matches_manual_concat() {
        let key = b"flowkey";
        let got = keyed_digest(key, &[b"conf", b"ts", b"payload"]);
        let manual = md5::md5(b"flowkeyconftspayload");
        assert_eq!(got, manual);
    }

    #[test]
    fn parts_split_is_irrelevant() {
        for alg in [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
        ] {
            let a = alg.compute(b"k", &[b"ab", b"cd"]);
            let b = alg.compute(b"k", &[b"abcd"]);
            let c = alg.compute(b"k", &[b"a", b"b", b"c", b"d"]);
            assert_eq!(a, b, "{alg:?}");
            assert_eq!(a, c, "{alg:?}");
        }
    }

    #[test]
    fn key_separates_macs() {
        let m1 = keyed_digest(b"key1", &[b"data"]);
        let m2 = keyed_digest(b"key2", &[b"data"]);
        assert_ne!(m1, m2);
    }

    #[test]
    fn wire_id_roundtrip() {
        for alg in [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
            MacAlgorithm::Poly1305,
        ] {
            assert_eq!(MacAlgorithm::from_wire_id(alg.wire_id()), Some(alg));
            assert_eq!(alg.compute(b"k", &[b"x"]).len(), alg.output_len());
        }
        assert_eq!(MacAlgorithm::from_wire_id(200), None);
    }

    #[test]
    fn streaming_context_matches_oneshot_compute() {
        for alg in [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
            MacAlgorithm::Poly1305,
        ] {
            let oneshot = alg.compute(b"the key", &[b"hello ", b"world"]);
            let mut ctx = alg.begin(b"the key");
            ctx.update(b"hel");
            ctx.update(b"lo world");
            assert_eq!(ctx.finalize(), oneshot, "{alg:?}");
        }
    }

    #[test]
    fn streaming_hmac_with_long_key() {
        let key = [0x77u8; 100]; // > block size: exercises key hashing
        let oneshot = MacAlgorithm::HmacMd5.compute(&key, &[b"msg"]);
        let mut ctx = MacAlgorithm::HmacMd5.begin(&key);
        ctx.update(b"msg");
        assert_eq!(ctx.finalize(), oneshot);
    }

    /// The cached-context pattern: cloning a context that has absorbed
    /// only the key, then feeding each message into the clone, matches a
    /// fresh `begin` per message; the context names its algorithm.
    #[test]
    fn cloned_prefix_context_matches_fresh() {
        for alg in [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
            MacAlgorithm::Poly1305,
        ] {
            let cached = alg.begin(b"flow key");
            assert_eq!(cached.algorithm(), alg);
            for msg in [&b"first datagram"[..], b"second", b""] {
                let mut from_clone = cached.clone();
                from_clone.update(msg);
                let mut fresh = alg.begin(b"flow key");
                fresh.update(msg);
                assert_eq!(from_clone.finalize(), fresh.finalize(), "{alg:?}");
            }
        }
    }

    #[test]
    fn mac_eq_behaviour() {
        assert!(mac_eq(b"same", b"same"));
        assert!(!mac_eq(b"same", b"Same"));
        assert!(!mac_eq(b"short", b"longer"));
        assert!(mac_eq(b"", b""));
    }
}
