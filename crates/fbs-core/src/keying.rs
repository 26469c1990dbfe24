//! Zero-message keying: flow key derivation (§5.1-5.2).
//!
//! `K_f = H(sfl | K_{S,D} | S | D)` where `H` is a one-way cryptographic
//! hash. Knowing `K_{S,D}` and the *sfl* makes derivation cheap; knowing a
//! flow key reveals neither the master key nor any sibling flow key (the
//! §6.1 containment property). `S` and `D` are included to explicitly tie
//! the flow key to the principal pair, which also serves multi-homed
//! principals.

use crate::header::EncAlgorithm;
use crate::principal::Principal;
use fbs_crypto::des::TripleDes;
use fbs_crypto::md5::{Md5, Md5x2};
use fbs_crypto::{sha1::Sha1, CipherSuite, Des, MacAlgorithm, MacContext};

/// Hash used for flow-key derivation (the paper names MD5, SHS, even DES as
/// candidates for `H`; we provide the two real hashes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum KeyDerivation {
    /// MD5: 16-byte flow keys (the implementation's choice).
    #[default]
    Md5,
    /// SHA-1: 20-byte flow keys.
    Sha1,
}

/// Longest flow key a [`KeyDerivation`] produces (SHA-1's 20 bytes; MD5
/// gives 16).
const MAX_FLOW_KEY_LEN: usize = 20;

/// A derived per-flow key. Soft state: safe to discard and recompute.
/// Held inline — deriving one never touches the heap.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FlowKey {
    len: u8,
    buf: [u8; MAX_FLOW_KEY_LEN],
}

impl FlowKey {
    /// A flow key from raw bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than the 20 bytes the longest
    /// derivation hash (SHA-1) produces.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= MAX_FLOW_KEY_LEN,
            "a flow key is at most {MAX_FLOW_KEY_LEN} bytes"
        );
        let mut buf = [0u8; MAX_FLOW_KEY_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        FlowKey {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// Key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// First 8 bytes as a DES key (DES uses 56 effective bits of an 8-byte
    /// key; the flow key is long enough for either hash choice).
    pub fn des_key(&self) -> [u8; 8] {
        let mut k = [0u8; 8];
        k.copy_from_slice(&self.as_bytes()[..8]);
        k
    }

    /// First 16 bytes as a two-key Triple-DES (EDE2) key.
    pub fn tdea_key(&self) -> [u8; 16] {
        let mut k = [0u8; 16];
        k.copy_from_slice(&self.as_bytes()[..16]);
        k
    }

    /// The 256-bit ChaCha20 key: the flow key expanded through two
    /// domain-separated MD5 invocations (the flow key itself is only 16 or
    /// 20 bytes), run as the two lanes of one [`Md5x2`].
    fn chacha_key(&self) -> [u8; 32] {
        let mut h = Md5x2::new();
        h.update([self.as_bytes(); 2]);
        h.update([b"\x00fbs-chacha", b"\x01fbs-chacha"]);
        let [lo, hi] = h.finalize();
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&lo);
        out[16..].copy_from_slice(&hi);
        out
    }
}

impl std::fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material in logs.
        write!(f, "FlowKey(<{} bytes>)", self.len)
    }
}

/// A [`FlowKey`] with its [`CipherSuite`] sealed in and the key material
/// that suite reads expanded, so per-flow setup runs once at
/// key-derivation time rather than inside the per-datagram fast path. The
/// flow-key tables own these in a `Box` each, one allocation of the
/// key's own size: a table never shares a key, it lends it by reference
/// for the datagram that hit it.
///
/// Carrying the suite here is what lets workers dispatch crypto per *key*
/// instead of per *config*: a config change mid-batch cannot change how
/// already-resolved flows seal or open. The suite *is* the material's
/// arm, so a key cannot name one suite and hold another's material. The
/// raw flow key is kept only by the arms that read it again.
#[derive(Clone)]
pub struct SealedFlowKey {
    material: KeyMaterial,
}

/// What one suite reads of a flow key, and nothing else.
#[derive(Clone)]
pub(crate) enum KeyMaterial {
    /// `paper`: DES-CBC (or TDEA-CBC) + a prefix-keyed MAC.
    Paper(Box<DesMaterial>),
    /// `fast_des`: DES-CTR + a prefix-keyed MAC.
    FastDes(Box<DesMaterial>),
    /// `aead_chacha_poly`: the 256-bit ChaCha20 key. Poly1305's key is
    /// one-time per datagram, drawn from the ChaCha keystream, so the raw
    /// flow key is never read again once this is derived.
    Aead([u8; 32]),
}

/// The DES suites' key material. Boxed behind [`KeyMaterial`] so an AEAD
/// key does not carry its size; inline it holds only what a datagram of
/// the paper profile (DES, keyed MD5) reads, and what a profile reads
/// beyond that sits in a box of its own.
#[derive(Clone)]
pub(crate) struct DesMaterial {
    /// The raw flow key: the keyed MACs and a per-frame TDEA build both
    /// key from it.
    key: FlowKey,
    des: Des,
    /// Built by [`SealedFlowKey::seal_for`] when the configured cipher
    /// is triple, and never after: a received paper-suite frame may name
    /// TDEA even though the local config does not, and its schedule is
    /// built for that frame alone ([`frame_tdea`](Self::frame_tdea)), so
    /// what a key allocates stays what its ledger charge says whatever
    /// frames name it. Boxed, so a single-DES key pays a pointer for
    /// it, not the 384 B schedule.
    tdea: Option<Box<TripleDes>>,
    /// The sealed HMAC's context with `key ⊕ ipad` already absorbed,
    /// cloned per datagram instead of re-absorbing the key block (one
    /// compression fewer). The keyed MACs cache nothing: their key is
    /// shorter than a block, so a fresh begin is the same copy.
    hmac_inner: Option<Box<MacContext>>,
}

/// Whether a key sealed for `mac_alg` caches its MAC's inner context
/// ([`DesMaterial::mac_begin`]): only an HMAC saves work by it.
fn caches_inner(mac_alg: MacAlgorithm) -> bool {
    matches!(mac_alg, MacAlgorithm::HmacMd5 | MacAlgorithm::HmacSha1)
}

impl DesMaterial {
    fn new(key: FlowKey, mac_alg: MacAlgorithm, enc_alg: EncAlgorithm) -> Self {
        DesMaterial {
            des: Des::new(&key.des_key()),
            tdea: enc_alg
                .is_triple()
                .then(|| Box::new(TripleDes::new_ede2(&key.tdea_key()))),
            hmac_inner: caches_inner(mac_alg).then(|| Box::new(mac_alg.begin(key.as_bytes()))),
            key,
        }
    }

    /// The single-DES schedule.
    pub(crate) fn des(&self) -> &Des {
        &self.des
    }

    /// The two-key Triple-DES (EDE2) schedule of the flow key, if the
    /// key was sealed for a triple cipher.
    pub(crate) fn tdea(&self) -> Option<&TripleDes> {
        self.tdea.as_deref()
    }

    /// A TDEA schedule built afresh, for one frame that names TDEA
    /// under a key whose [`tdea`](Self::tdea) holds none. The caller
    /// drops it with the frame: it never enters the key.
    pub(crate) fn frame_tdea(&self) -> TripleDes {
        TripleDes::new_ede2(&self.key.tdea_key())
    }

    /// Begin a MAC computation keyed by the flow key: clones the cached
    /// HMAC inner context when `alg` is the sealed HMAC, begins from the
    /// raw key otherwise (a keyed MAC, or a received frame naming a
    /// different MAC than the local config).
    pub(crate) fn mac_begin(&self, alg: MacAlgorithm) -> MacContext {
        match self.hmac_inner.as_deref() {
            Some(ctx) if ctx.algorithm() == alg => ctx.clone(),
            _ => alg.begin(self.key.as_bytes()),
        }
    }
}

impl SealedFlowKey {
    /// Seal `key` under the paper suite (DES-CBC, keyed MD5): its DES
    /// schedule, which is all that profile reads. Compatibility entry
    /// point; the hot path uses [`seal_for`](Self::seal_for).
    pub fn seal(key: FlowKey) -> Self {
        Self::seal_for(
            key,
            CipherSuite::Paper,
            MacAlgorithm::KeyedMd5,
            EncAlgorithm::DesCbc,
        )
    }

    /// Seal `key` for a specific profile, building the material that
    /// suite reads — and only that — at derivation time: the ChaCha20 key
    /// for the AEAD suite; for the DES suites the DES schedule, an HMAC's
    /// inner context, and the Triple-DES schedule when `enc_alg` is
    /// triple (so the first datagram of a flow doesn't pay the
    /// `new_ede2` build inside a seal/open stage span). After this, the
    /// per-datagram path performs no schedule construction at all.
    /// [`boxed_bytes`](Self::boxed_bytes) of the same three arguments
    /// is what the key asks the allocator for.
    pub fn seal_for(
        key: FlowKey,
        suite: CipherSuite,
        mac_alg: MacAlgorithm,
        enc_alg: EncAlgorithm,
    ) -> Self {
        let des = |key: FlowKey| Box::new(DesMaterial::new(key, mac_alg, enc_alg));
        let material = match suite {
            CipherSuite::Paper => KeyMaterial::Paper(des(key)),
            CipherSuite::FastDes => KeyMaterial::FastDes(des(key)),
            CipherSuite::AeadChaPoly => KeyMaterial::Aead(key.chacha_key()),
        };
        SealedFlowKey { material }
    }

    /// `self` in a `Box`: `old`'s allocation, overwritten, when a table
    /// evicted one, else a new one. A birth that displaces a key then
    /// allocates nothing for an AEAD key (a DES key still brings its
    /// boxed material). A table owns its keys alone, so the overwrite
    /// needs no check.
    pub fn into_box_reusing(self, old: Option<Box<SealedFlowKey>>) -> Box<SealedFlowKey> {
        match old {
            Some(mut slot) => {
                *slot = self;
                slot
            }
            None => Box::new(self),
        }
    }

    /// Heap bytes one `Box<SealedFlowKey>` sealed by
    /// [`seal_for`](Self::seal_for) with these arguments occupies — what
    /// a resident flow key costs a memory ledger: the material's arm
    /// and, for the DES suites, the boxed `DesMaterial` (raw flow key
    /// and DES schedule), plus the Triple-DES schedule when `enc_alg` is
    /// triple and the HMAC inner context when `mac_alg` is an HMAC.
    /// Nothing grows it later: a received frame naming TDEA under a
    /// single-DES config builds its schedule on the stack.
    pub fn boxed_bytes(suite: CipherSuite, mac_alg: MacAlgorithm, enc_alg: EncAlgorithm) -> usize {
        use std::mem::size_of;
        let boxed = match suite {
            CipherSuite::Paper | CipherSuite::FastDes => {
                let tdea = usize::from(enc_alg.is_triple()) * size_of::<TripleDes>();
                let hmac = usize::from(caches_inner(mac_alg)) * size_of::<MacContext>();
                size_of::<DesMaterial>() + tdea + hmac
            }
            CipherSuite::AeadChaPoly => 0,
        };
        size_of::<SealedFlowKey>() + boxed
    }

    /// The profile this key was sealed for.
    pub fn suite(&self) -> CipherSuite {
        match self.material {
            KeyMaterial::Paper(_) => CipherSuite::Paper,
            KeyMaterial::FastDes(_) => CipherSuite::FastDes,
            KeyMaterial::Aead(_) => CipherSuite::AeadChaPoly,
        }
    }

    /// The suite's key material, for the seal/open dispatch.
    pub(crate) fn material(&self) -> &KeyMaterial {
        &self.material
    }

    fn des_material(&self) -> Option<&DesMaterial> {
        match &self.material {
            KeyMaterial::Paper(m) | KeyMaterial::FastDes(m) => Some(m),
            KeyMaterial::Aead(_) => None,
        }
    }

    /// The two-key Triple-DES (EDE2) schedule, built by
    /// [`seal_for`](Self::seal_for) when the configured cipher is
    /// triple; `None` for any other key, and a frame naming TDEA under
    /// such a key builds the schedule for itself and drops it.
    pub fn tdea(&self) -> Option<&TripleDes> {
        self.des_material().and_then(DesMaterial::tdea)
    }

    /// The 256-bit ChaCha20 key; `None` unless sealed for the AEAD suite.
    pub fn chacha_key(&self) -> Option<&[u8; 32]> {
        match &self.material {
            KeyMaterial::Aead(k) => Some(k),
            _ => None,
        }
    }
}

impl std::fmt::Debug for SealedFlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cached subkeys are key material too: name only the suite.
        write!(f, "SealedFlowKey({:?})", self.suite())
    }
}

/// Feed the hash input of `K_f = H(sfl | K_{S,D} | S | D)` to `absorb`,
/// part by part: the one definition both hashes read.
///
/// Principal encodings are length-prefixed inside the hash input so that
/// distinct `(S, D)` pairs can never collide by boundary-shifting (e.g.
/// S="ab", D="c" vs S="a", D="bc").
fn flow_key_input(
    sfl: u64,
    master_key: &[u8],
    source: &Principal,
    destination: &Principal,
    mut absorb: impl FnMut(&[u8]),
) {
    absorb(&sfl.to_be_bytes());
    absorb(master_key);
    absorb(&(source.len() as u32).to_be_bytes());
    absorb(source.as_bytes());
    absorb(&(destination.len() as u32).to_be_bytes());
    absorb(destination.as_bytes());
}

/// Derive `K_f = H(sfl | K_{S,D} | S | D)`.
pub fn derive_flow_key(
    derivation: KeyDerivation,
    sfl: u64,
    master_key: &[u8],
    source: &Principal,
    destination: &Principal,
) -> FlowKey {
    match derivation {
        KeyDerivation::Md5 => {
            let mut h = Md5::new();
            flow_key_input(sfl, master_key, source, destination, |p| h.update(p));
            FlowKey::new(&h.finalize())
        }
        KeyDerivation::Sha1 => {
            let mut h = Sha1::new();
            flow_key_input(sfl, master_key, source, destination, |p| h.update(p));
            FlowKey::new(&h.finalize())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Principal {
        Principal::named(name)
    }

    #[test]
    fn deterministic() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 7, b"master", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 7, b"master", &p("S"), &p("D"));
        assert_eq!(k1, k2);
        assert_eq!(k1.as_bytes().len(), 16);
    }

    #[test]
    fn sha1_variant_is_20_bytes() {
        let k = derive_flow_key(KeyDerivation::Sha1, 7, b"master", &p("S"), &p("D"));
        assert_eq!(k.as_bytes().len(), 20);
    }

    #[test]
    fn sfl_separates_flows() {
        // Breaking one flow key must not compromise sibling flows (§6.1).
        let k1 = derive_flow_key(KeyDerivation::Md5, 1, b"master", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 2, b"master", &p("S"), &p("D"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn direction_matters() {
        // Flows are unidirectional (§5.2 observations): S→D and D→S with the
        // same sfl yield different keys.
        let k_sd = derive_flow_key(KeyDerivation::Md5, 9, b"master", &p("S"), &p("D"));
        let k_ds = derive_flow_key(KeyDerivation::Md5, 9, b"master", &p("D"), &p("S"));
        assert_ne!(k_sd, k_ds);
    }

    #[test]
    fn master_key_matters() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 9, b"master-1", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 9, b"master-2", &p("S"), &p("D"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn principal_boundary_shifting_cannot_collide() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("ab"), &p("c"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("a"), &p("bc"));
        assert_ne!(k1, k2);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        assert_eq!(format!("{k:?}"), "FlowKey(<16 bytes>)");
    }

    #[test]
    fn des_key_is_prefix() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        assert_eq!(&k.des_key()[..], &k.as_bytes()[..8]);
    }

    #[test]
    #[should_panic]
    fn a_short_key_is_no_tdea_key() {
        // The inline buffer is zero-padded; the key's own bytes are not.
        FlowKey::new(&[7; 8]).tdea_key();
    }

    #[test]
    fn seal_for_prebuilds_tdea_schedule() {
        use fbs_crypto::des::key_schedule_count;
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        let sealed = SealedFlowKey::seal_for(
            k,
            CipherSuite::Paper,
            MacAlgorithm::KeyedMd5,
            EncAlgorithm::TdeaCbc,
        );
        // The first datagram of the flow must not pay `new_ede2` inside a
        // stage span: the schedule already exists.
        let before = key_schedule_count();
        let _ = sealed.tdea();
        assert_eq!(
            key_schedule_count(),
            before,
            "TDEA schedule must be built at key-derivation time"
        );
        // A single-DES key holds none, and keeps none: each frame naming
        // TDEA builds its own.
        let single = SealedFlowKey::seal(derive_flow_key(
            KeyDerivation::Md5,
            9,
            b"m",
            &p("S"),
            &p("D"),
        ));
        assert!(single.tdea().is_none());
        let m = single.des_material().unwrap();
        let before = key_schedule_count();
        let frame = m.frame_tdea();
        assert!(key_schedule_count() > before, "built per frame");
        let (mut a, mut b) = ([1u8; 8], [1u8; 8]);
        frame.encrypt_block(&mut a);
        sealed.tdea().unwrap().encrypt_block(&mut b);
        assert_eq!(a, b, "the same schedule the sealed key holds");
        assert!(single.tdea().is_none(), "and not kept");
    }

    #[test]
    fn mac_begin_matches_a_fresh_begin_for_every_mac() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        let bytes = k.as_bytes().to_vec();
        let macs = [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
        ];
        for sealed_mac in macs {
            let sealed = SealedFlowKey::seal_for(
                k.clone(),
                CipherSuite::FastDes,
                sealed_mac,
                EncAlgorithm::DesCtr,
            );
            let m = sealed.des_material().expect("a DES-suite key");
            // Only an HMAC key caches a context; the sealed MAC and a MAC
            // a received frame names instead both match a fresh begin.
            assert_eq!(m.hmac_inner.is_some(), caches_inner(sealed_mac));
            for alg in macs {
                for msg in [&b"datagram one"[..], b"two", b""] {
                    let mut ctx = m.mac_begin(alg);
                    ctx.update(msg);
                    let mut fresh = alg.begin(&bytes);
                    fresh.update(msg);
                    assert_eq!(ctx.finalize(), fresh.finalize(), "{sealed_mac:?} {alg:?}");
                }
            }
        }
    }

    fn aead(k: FlowKey) -> SealedFlowKey {
        SealedFlowKey::seal_for(
            k,
            CipherSuite::AeadChaPoly,
            MacAlgorithm::Poly1305,
            EncAlgorithm::ChaCha20,
        )
    }

    #[test]
    fn chacha_key_is_deterministic_and_key_separated() {
        let k1 = derive_flow_key(KeyDerivation::Md5, 1, b"m", &p("S"), &p("D"));
        let k2 = derive_flow_key(KeyDerivation::Md5, 2, b"m", &p("S"), &p("D"));
        let s1a = aead(k1.clone());
        let s1b = aead(k1);
        let s2 = aead(k2);
        assert!(s1a.chacha_key().is_some());
        assert_eq!(s1a.chacha_key(), s1b.chacha_key());
        assert_ne!(s1a.chacha_key(), s2.chacha_key());
    }

    #[test]
    fn a_key_holds_only_its_suites_material() {
        // The DES suites' material, raw flow key included, lives behind a
        // box: an AEAD key is its 32-byte ChaCha key and a tag, and never
        // allocates. Inside that box, the TDEA schedule and an HMAC
        // context are a pointer each.
        assert!(std::mem::size_of::<SealedFlowKey>() <= 40);
        assert!(std::mem::size_of::<DesMaterial>() <= 168);
        assert!(!std::mem::needs_drop::<FlowKey>(), "FlowKey is inline");
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        let a = aead(k.clone());
        assert_eq!(a.suite(), CipherSuite::AeadChaPoly);
        assert!(a.tdea().is_none());
        let d = SealedFlowKey::seal(k);
        assert!(d.chacha_key().is_none());
    }

    #[test]
    fn seal_defaults_to_paper_suite() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        assert_eq!(SealedFlowKey::seal(k).suite(), CipherSuite::Paper);
    }
}
