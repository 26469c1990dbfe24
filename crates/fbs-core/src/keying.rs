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
use std::sync::OnceLock;

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
/// key does not carry its size.
#[derive(Clone)]
pub(crate) struct DesMaterial {
    /// The raw flow key: the on-demand TDEA build and a MAC the cached
    /// prefix does not cover both key from it.
    key: FlowKey,
    des: Des,
    /// Built on demand, unless [`SealedFlowKey::seal_for`] was told the
    /// configured cipher is triple: a received paper-suite frame may name
    /// TDEA even though the local config does not.
    tdea: OnceLock<TripleDes>,
    /// MAC context with the flow-key prefix already absorbed, cloned per
    /// datagram instead of re-absorbing the key (skips one compression
    /// round for the prefix-keyed algorithms).
    mac_prefix: Option<(MacAlgorithm, MacContext)>,
}

impl DesMaterial {
    fn new(key: FlowKey, mac_prefix: Option<MacAlgorithm>) -> Self {
        DesMaterial {
            des: Des::new(&key.des_key()),
            tdea: OnceLock::new(),
            mac_prefix: mac_prefix.map(|alg| (alg, alg.begin(key.as_bytes()))),
            key,
        }
    }

    /// The single-DES schedule.
    pub(crate) fn des(&self) -> &Des {
        &self.des
    }

    /// The two-key Triple-DES (EDE2) schedule of the flow key.
    pub(crate) fn tdea(&self) -> &TripleDes {
        self.tdea
            .get_or_init(|| TripleDes::new_ede2(&self.key.tdea_key()))
    }

    /// Begin a MAC computation keyed by the flow key: clones the cached
    /// key-prefix context when `alg` matches the sealed algorithm, falls
    /// back to absorbing the key otherwise (e.g. a received frame naming a
    /// different MAC than the local config).
    pub(crate) fn mac_begin(&self, alg: MacAlgorithm) -> MacContext {
        match &self.mac_prefix {
            Some((cached_alg, ctx)) if *cached_alg == alg => ctx.clone(),
            _ => alg.begin(self.key.as_bytes()),
        }
    }
}

impl SealedFlowKey {
    /// Seal `key` under the paper suite: expand its DES schedule now,
    /// everything else on demand. Compatibility entry point; the hot path
    /// uses [`seal_for`](Self::seal_for).
    pub fn seal(key: FlowKey) -> Self {
        let material = KeyMaterial::Paper(Box::new(DesMaterial::new(key, None)));
        SealedFlowKey { material }
    }

    /// Seal `key` for a specific profile, building the material that
    /// suite reads — and only that — at derivation time: the ChaCha20 key
    /// for the AEAD suite; for the DES suites the DES schedule, the cached
    /// MAC key-prefix context, and the Triple-DES schedule when `enc_alg`
    /// is triple (so the first datagram of a flow doesn't pay the
    /// `new_ede2` build inside a seal/open stage span). After this, the
    /// per-datagram path performs no schedule construction at all.
    pub fn seal_for(
        key: FlowKey,
        suite: CipherSuite,
        mac_alg: MacAlgorithm,
        enc_alg: EncAlgorithm,
    ) -> Self {
        let des = |key: FlowKey| {
            let prefix = (mac_alg != MacAlgorithm::Poly1305).then_some(mac_alg);
            let m = DesMaterial::new(key, prefix);
            if enc_alg.is_triple() {
                let _ = m.tdea();
            }
            Box::new(m)
        };
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

    /// Heap bytes one `Box<SealedFlowKey>` sealed for `suite` occupies:
    /// the material's arm and the DES suites' boxed material (raw flow
    /// key included) — what a resident flow key costs a memory ledger.
    pub fn boxed_bytes(suite: CipherSuite) -> usize {
        let boxed = match suite {
            CipherSuite::Paper | CipherSuite::FastDes => std::mem::size_of::<DesMaterial>(),
            CipherSuite::AeadChaPoly => 0,
        };
        std::mem::size_of::<SealedFlowKey>() + boxed
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

    /// The two-key Triple-DES (EDE2) schedule; `None` for an AEAD key.
    /// Pre-built by [`seal_for`](Self::seal_for) when the configured
    /// cipher is triple; the lazy fallback covers received frames whose
    /// header names TDEA even though the local config does not.
    pub fn tdea(&self) -> Option<&TripleDes> {
        self.des_material().map(DesMaterial::tdea)
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
    }

    #[test]
    fn mac_begin_cached_prefix_matches_fresh() {
        let k = derive_flow_key(KeyDerivation::Md5, 9, b"m", &p("S"), &p("D"));
        let bytes = k.as_bytes().to_vec();
        let sealed = SealedFlowKey::seal_for(
            k,
            CipherSuite::FastDes,
            MacAlgorithm::KeyedMd5,
            EncAlgorithm::DesCtr,
        );
        let m = sealed.des_material().expect("a DES-suite key");
        for msg in [&b"datagram one"[..], b"two", b""] {
            let mut cached = m.mac_begin(MacAlgorithm::KeyedMd5);
            cached.update(msg);
            let mut fresh = MacAlgorithm::KeyedMd5.begin(&bytes);
            fresh.update(msg);
            assert_eq!(cached.finalize(), fresh.finalize());
        }
        // A mismatching algorithm falls back to a fresh absorb.
        let mut other = m.mac_begin(MacAlgorithm::KeyedSha1);
        other.update(b"x");
        let mut fresh = MacAlgorithm::KeyedSha1.begin(&bytes);
        fresh.update(b"x");
        assert_eq!(other.finalize(), fresh.finalize());
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
        // allocates.
        assert!(std::mem::size_of::<SealedFlowKey>() <= 40);
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
