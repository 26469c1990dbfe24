//! FBS protocol processing: `FBSSend` / `FBSReceive` (paper §5.2, Fig. 4)
//! with the cached fast path of Fig. 6.
//!
//! An [`FbsEndpoint`] owns one principal's soft state: transmission and
//! receive flow key caches (TFKC/RFKC), the LCG confounder source, and a
//! [`KeyingService`] — the master key cache (MKC) in front of the upcall
//! path to the master key daemon, and the one flow-key derivation, which
//! `fbs-ip`'s hooks share. Send
//! and receive follow the paper's pseudo-code line by line; the one
//! deliberate adjustment is on the receive side, where the body is
//! decrypted *before* MAC verification because the MAC is computed over the
//! plaintext on the send side (Fig. 4 line S6 runs before S8-9; the paper's
//! R7 as literally written would MAC the ciphertext, which could never
//! match — an acknowledged pseudo-code shorthand). The AEAD suite is
//! encrypt-then-MAC, so it checks its tag first and decrypts only a
//! verified body.
//!
//! A receive-side flow key derived on an RFKC miss is cached only after
//! the datagram's MAC verifies: a forged datagram with a fresh sfl costs
//! a derivation but buys no cache slot.
//!
//! Data-touching operations are combined per §5.3: the MAC absorption
//! and block encryption proceed block-by-block in one loop over the
//! payload.

use crate::cache::{CacheStats, SoftCache};
use crate::clock::Clock;
use crate::concurrent::KeyingService;
use crate::error::{FbsError, Result};
use crate::fam::{Fam, FlowPolicy};
use crate::header::{EncAlgorithm, HeaderView, SecurityFlowHeader, FIXED_PREFIX_LEN};
use crate::keying::{DesMaterial, KeyDerivation, KeyMaterial, SealedFlowKey};
use crate::mkd::{MasterKeyDaemon, MkdStats};
use crate::principal::Principal;
use crate::replay::FreshnessWindow;
use fbs_crypto::chacha::{ChaCha20, Poly1305};
use fbs_crypto::crc32::Crc32;
use fbs_crypto::des::{
    ctr_xor_at, decrypt_in_place, padded_len, BlockCipher, BlockEncryptor, Des, TripleDes,
    BLOCK_SIZE,
};
use fbs_crypto::mac::MAX_MAC_SIZE;
use fbs_crypto::rng::Lcg64;
use fbs_crypto::{mac_eq, CipherSuite, MacAlgorithm};
use fbs_obs::{CacheKind, Counter, CounterBlock, Histogram, MetricsRegistry};
use std::hash::Hash;
use std::sync::Arc;

/// An unprotected datagram as handed to FBS by the upper layer: header
/// fields relevant to FBS (source/destination principals) plus the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Source principal `S`.
    pub source: Principal,
    /// Destination principal `D`.
    pub destination: Principal,
    /// Higher-layer payload.
    pub body: Vec<u8>,
}

impl Datagram {
    /// Convenience constructor.
    pub fn new(source: Principal, destination: Principal, body: impl Into<Vec<u8>>) -> Self {
        Datagram {
            source,
            destination,
            body: body.into(),
        }
    }
}

/// A datagram carrying a security flow header; what travels on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtectedDatagram {
    /// Source principal (from the underlying transport's header).
    pub source: Principal,
    /// Destination principal.
    pub destination: Principal,
    /// The FBS security flow header.
    pub header: SecurityFlowHeader,
    /// Body — encrypted when `header.enc_alg.is_secret()`.
    pub body: Vec<u8>,
}

impl ProtectedDatagram {
    /// Serialise header + body as the byte payload handed to the underlying
    /// datagram transport (`Send()` of Fig. 4).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = self.header.encode();
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a wire payload back into a protected datagram; source and
    /// destination come from the underlying transport.
    pub fn decode_payload(
        source: Principal,
        destination: Principal,
        payload: &[u8],
    ) -> Result<Self> {
        let (header, used) = SecurityFlowHeader::decode(payload)?;
        Ok(ProtectedDatagram {
            source,
            destination,
            header,
            body: payload[used..].to_vec(),
        })
    }

    /// Total wire overhead added by FBS for this datagram.
    pub fn overhead(&self) -> usize {
        self.header.encoded_len() + self.body.len() - self.header.plaintext_len as usize
    }
}

/// Minimum shipped MAC length in bytes. §5.3 allows truncating the MAC to
/// save header bytes, but a truncation below this floor guts the
/// authenticator entirely — `mac_truncate = Some(0)` would ship a
/// zero-length MAC that `mac_eq` vacuously accepts, making every forged
/// datagram verify. Configured truncations are clamped up to this value.
pub const MIN_SHIPPED_MAC: usize = 4;

/// Endpoint configuration.
#[derive(Clone, Debug)]
pub struct FbsConfig {
    /// Hash for flow-key derivation (`H` in §5.2).
    pub key_derivation: KeyDerivation,
    /// MAC algorithm (`HMAC` in §5.2 — the paper's keyed MD5 by default).
    /// The AEAD suite overrides this with Poly1305.
    pub mac_alg: MacAlgorithm,
    /// Optional MAC truncation (§5.3 allows shipping a prefix). Values
    /// below [`MIN_SHIPPED_MAC`] are clamped up (see
    /// [`FbsConfig::validate`]).
    pub mac_truncate: Option<usize>,
    /// Encryption algorithm used when the `secret` flag is set under the
    /// paper suite. The fast and AEAD suites select their own ciphers.
    pub enc_alg: EncAlgorithm,
    /// Crypto-plane profile. Sealed into every flow key this endpoint
    /// derives and carried in header byte 19; both halves of a flow must
    /// agree (a received frame naming a different suite is rejected as
    /// [`FbsError::BadMac`]).
    pub suite: CipherSuite,
    /// Replay freshness window.
    pub freshness: FreshnessWindow,
    /// TFKC geometry: sets × associativity.
    pub tfkc_sets: usize,
    /// TFKC associativity.
    pub tfkc_assoc: usize,
    /// RFKC geometry: sets × associativity.
    pub rfkc_sets: usize,
    /// RFKC associativity.
    pub rfkc_assoc: usize,
    /// MKC slots (direct-mapped).
    pub mkc_slots: usize,
    /// "FBS NOP" instrumentation mode (§7.3, Fig. 8): the full protocol
    /// path runs — FAM, caches, header insertion, parsing — but MAC
    /// computation and encryption "return immediately" (zero MAC, identity
    /// cipher) so the non-cryptographic overhead can be measured. NEVER
    /// enable outside measurements.
    pub nop_crypto: bool,
}

impl Default for FbsConfig {
    fn default() -> Self {
        FbsConfig {
            key_derivation: KeyDerivation::Md5,
            mac_alg: MacAlgorithm::KeyedMd5,
            mac_truncate: None,
            enc_alg: EncAlgorithm::DesCbc,
            suite: CipherSuite::Paper,
            freshness: FreshnessWindow::default(),
            // §5.3: TFKC should cover the average number of active flows;
            // 64 direct-mapped slots matches the implementation's combined
            // FST/TFKC sizing ("e.g., 32 or above", footnote 11).
            tfkc_sets: 64,
            tfkc_assoc: 1,
            rfkc_sets: 64,
            rfkc_assoc: 1,
            // MKC covers concurrent correspondent principals.
            mkc_slots: 32,
            nop_crypto: false,
        }
    }
}

impl FbsConfig {
    /// Check the configuration for values that would silently weaken the
    /// protocol. Returns an error for a `mac_truncate` below
    /// [`MIN_SHIPPED_MAC`] (a `Some(0)` truncation ships an empty MAC that
    /// verifies vacuously) and for Poly1305 configured as the flow MAC of
    /// a non-AEAD suite (Poly1305 keys are one-time; only the AEAD suite
    /// derives them safely).
    pub fn validate(&self) -> Result<()> {
        if let Some(n) = self.mac_truncate {
            if n < MIN_SHIPPED_MAC {
                return Err(FbsError::MalformedHeader(
                    "mac_truncate below the 4-byte minimum",
                ));
            }
        }
        if self.suite != CipherSuite::AeadChaPoly && self.mac_alg == MacAlgorithm::Poly1305 {
            return Err(FbsError::MalformedHeader(
                "Poly1305 requires the AEAD suite (one-time keys)",
            ));
        }
        Ok(())
    }

    /// A copy with insecure values clamped to their safe floors: the
    /// defensive counterpart of [`validate`](Self::validate), applied by
    /// [`FlowCodec::new`] so even a hand-built config that skipped
    /// validation cannot ship a forgeable MAC.
    pub fn normalized(mut self) -> Self {
        if let Some(n) = &mut self.mac_truncate {
            *n = (*n).max(MIN_SHIPPED_MAC);
        }
        if self.suite != CipherSuite::AeadChaPoly && self.mac_alg == MacAlgorithm::Poly1305 {
            self.mac_alg = MacAlgorithm::KeyedMd5;
        }
        self
    }

    /// The MAC algorithm the configured suite actually uses.
    pub fn suite_mac_alg(&self) -> MacAlgorithm {
        match self.suite {
            CipherSuite::Paper | CipherSuite::FastDes => self.mac_alg,
            CipherSuite::AeadChaPoly => MacAlgorithm::Poly1305,
        }
    }

    /// The cipher the configured suite uses when `secret` is requested.
    pub fn suite_enc_alg(&self) -> EncAlgorithm {
        match self.suite {
            CipherSuite::Paper => self.enc_alg,
            CipherSuite::FastDes => EncAlgorithm::DesCtr,
            CipherSuite::AeadChaPoly => EncAlgorithm::ChaCha20,
        }
    }

    /// Seal a derived flow key with every schedule this configuration
    /// needs, ready for the per-datagram path.
    pub fn seal_key(&self, key: crate::keying::FlowKey) -> SealedFlowKey {
        SealedFlowKey::seal_for(key, self.suite, self.suite_mac_alg(), self.suite_enc_alg())
    }

    /// Shipped MAC length for a MAC of `full` bytes under this config's
    /// truncation, never below [`MIN_SHIPPED_MAC`].
    fn shipped_mac_len(&self, full: usize) -> usize {
        self.mac_truncate
            .map_or(full, |n| full.min(n.max(MIN_SHIPPED_MAC)))
    }

    /// Bytes of security flow header this configuration puts on the
    /// wire: the fixed prefix plus the shipped MAC of the suite's
    /// algorithm — the length `seal_with_key_into` frames with.
    pub fn wire_header_len(&self) -> usize {
        FIXED_PREFIX_LEN + self.shipped_mac_len(self.suite_mac_alg().output_len())
    }
}

/// Endpoint-level counters (cache hit rates live in the cache stats): a
/// view over the `endpoint.*` cells of a counter block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Datagrams sent.
    pub sends: u64,
    /// Datagrams received and accepted.
    pub receives: u64,
    /// Datagrams rejected for staleness (R3-4).
    pub replay_drops: u64,
    /// Datagrams rejected for MAC mismatch (R7-9).
    pub mac_drops: u64,
    /// Datagrams rejected for malformed ciphertext/framing.
    pub malformed_drops: u64,
    /// Bodies encrypted.
    pub encryptions: u64,
    /// Bodies decrypted. Under the AEAD suite, verified bodies only: its
    /// tag is checked before decryption.
    pub decryptions: u64,
}

impl EndpointStats {
    /// Read the view off `counts`.
    pub fn read(counts: &CounterBlock) -> Self {
        EndpointStats {
            sends: counts.counter(Counter::Sends),
            receives: counts.counter(Counter::Receives),
            replay_drops: counts.counter(Counter::ReplayDrops),
            mac_drops: counts.counter(Counter::MacDrops),
            malformed_drops: counts.counter(Counter::MalformedDrops),
            encryptions: counts.counter(Counter::Encryptions),
            decryptions: counts.counter(Counter::Decryptions),
        }
    }
}

pub use crate::frozen::{flow_key_hash, FlowKeyId};

/// The §5.3 randomising hash of a flow key's id — sfl, peer, then local
/// principal — streamed so a probe allocates nothing. The caches key a
/// flow by `(sfl, peer)`: the local principal, the same for every entry,
/// is in the hash alone (§5.3 fn. 7: a multi-homed host's addresses).
pub fn flow_key_hash_parts(sfl: u64, peer: &[u8], local: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(&sfl.to_be_bytes());
    h.update(peer);
    h.update(local);
    h.finalize()
}

/// The key-agnostic half of an endpoint: confounder generation, header
/// encode/seal, decrypt/MAC-verify, freshness, and the endpoint-level
/// counters — everything `FBSSend`/`FBSReceive` do *except* key lookup
/// and derivation. A sharded endpoint instantiates one `FlowCodec` per
/// shard (each with its own confounder stream) around a shared keying
/// service; the monolithic [`FbsEndpoint`] wraps exactly one.
pub struct FlowCodec {
    local: Principal,
    cfg: FbsConfig,
    clock: Arc<dyn Clock>,
    confounder: Lcg64,
    /// Where the `endpoint.*` counts go: a private block by default, or
    /// the endpoint's ([`with_counts`](Self::with_counts)).
    counts: Arc<CounterBlock>,
    obs: Option<Arc<MetricsRegistry>>,
}

impl FlowCodec {
    /// A codec for `local`. `seed` randomises the confounder generator
    /// (must differ across codecs, §5.3 — per-shard codecs derive their
    /// seeds from the endpoint seed and the shard index).
    pub fn new(local: Principal, cfg: FbsConfig, clock: Arc<dyn Clock>, seed: u64) -> Self {
        FlowCodec {
            local,
            // Clamp insecure settings (zero-length truncated MACs, misused
            // one-time MAC algorithms) even if the caller skipped
            // `FbsConfig::validate`.
            cfg: cfg.normalized(),
            clock,
            confounder: Lcg64::new(seed),
            counts: Arc::new(CounterBlock::new()),
            obs: None,
        }
    }

    /// Count into `counts` (builder style, before the first datagram):
    /// how a codec shares its endpoint's or its owner's block, which only
    /// one writer at a time may write.
    pub fn with_counts(mut self, counts: Arc<CounterBlock>) -> Self {
        self.counts = counts;
        self
    }

    /// Attach a metrics registry: it reads this codec's block, and the
    /// codec adds its send and receive sizes and its key-derivation
    /// times to the registry's histograms.
    pub fn set_obs(&mut self, registry: Arc<MetricsRegistry>) {
        registry.attach(Arc::clone(&self.counts));
        self.obs = Some(registry);
    }

    /// The local principal.
    pub fn local(&self) -> &Principal {
        &self.local
    }

    /// The configuration in use.
    pub fn config(&self) -> &FbsConfig {
        &self.cfg
    }

    /// Shared clock handle.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The attached metrics registry, if any.
    pub(crate) fn obs(&self) -> Option<&MetricsRegistry> {
        self.obs.as_deref()
    }

    /// The block this codec counts into.
    pub(crate) fn counts(&self) -> &CounterBlock {
        &self.counts
    }

    /// Endpoint counters, read off the counter block (every codec
    /// sharing the block counts into the same cells).
    pub fn stats(&self) -> EndpointStats {
        EndpointStats::read(&self.counts)
    }

    /// R3-4 of Fig. 4: reject a stale or future timestamp, counting the
    /// drop. Callers run this *before* key lookup so the replay verdict
    /// (and its stats) never depends on key availability.
    pub fn check_freshness(&self, timestamp: u32) -> Result<()> {
        let now_minutes = self.clock.now_minutes();
        if let Err(e) = self.cfg.freshness.check(timestamp, now_minutes) {
            self.counts.incr(Counter::ReplayDrops);
            return Err(e);
        }
        Ok(())
    }

    /// Seal `body` under `key` into `out`: encode, pad, encrypt, MAC —
    /// no per-datagram heap allocation. Byte-identical to the monolithic
    /// endpoint's output for the same confounder stream.
    pub fn seal_with_key_into(
        &mut self,
        sfl: u64,
        key: &SealedFlowKey,
        body: &[u8],
        secret: bool,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let confounder = self.confounder.next_u32();
        let timestamp = self.clock.now_minutes();
        // Dispatch on the suite sealed into the key: the profile travels
        // with the key material, so a worker never branches on mutable
        // config mid-batch.
        let suite = key.suite();
        let mac_alg = match suite {
            CipherSuite::AeadChaPoly => MacAlgorithm::Poly1305,
            _ => self.cfg.mac_alg,
        };
        let enc_alg = if secret && !self.cfg.nop_crypto {
            match suite {
                CipherSuite::Paper => self.cfg.enc_alg,
                CipherSuite::FastDes => EncAlgorithm::DesCtr,
                CipherSuite::AeadChaPoly => EncAlgorithm::ChaCha20,
            }
        } else {
            EncAlgorithm::None
        };
        let mac_out_len = mac_alg.output_len();
        let shipped = self.cfg.shipped_mac_len(mac_out_len);
        let header_len = FIXED_PREFIX_LEN + shipped;
        // Block ciphers pad to a whole block; stream ciphers (and
        // MAC-only) keep the wire body at plaintext length.
        let wire_body_len = if enc_alg.des_mode().is_some() {
            padded_len(body.len())
        } else {
            body.len()
        };
        // One resize: zero-fills the header region and any padding; the
        // plaintext is copied in exactly once. Sized exactly first: a
        // recycled buffer a few bytes short (an exact-capacity payload
        // that came back through the pool) would otherwise double.
        out.clear();
        out.reserve_exact(header_len + wire_body_len);
        out.resize(header_len + wire_body_len, 0);
        out[header_len..header_len + body.len()].copy_from_slice(body);
        let (head, wire_body) = out.split_at_mut(header_len);
        let mut mac_buf = [0u8; MAX_MAC_SIZE];
        let mac_len = seal_core(
            &self.cfg,
            key,
            sfl,
            confounder,
            timestamp,
            body.len(),
            mac_alg,
            enc_alg,
            wire_body,
            &mut mac_buf,
        );
        debug_assert_eq!(mac_len, mac_out_len);
        HeaderView {
            sfl,
            confounder,
            timestamp,
            mac_alg,
            enc_alg,
            suite,
            plaintext_len: body.len() as u32,
            mac: &mac_buf[..shipped],
        }
        .encode_into(head);
        self.note_sealed(enc_alg, body.len() as u64);
        Ok(())
    }

    /// Recover and verify a wire body under a caller-provided flow key:
    /// R7-11 of Fig. 4 (decrypt before MAC, see module docs) — the
    /// receive half of the §7.2 combined-table fast path. Freshness
    /// ([`check_freshness`](Self::check_freshness)) and key lookup are
    /// the caller's job.
    pub fn open_with_key_into(
        &self,
        h: &HeaderView<'_>,
        key: &SealedFlowKey,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.open_verified(h, key, body, out)?;
        self.note_received(out.len() as u64);
        // R12: `out` holds the datagram body.
        Ok(())
    }

    /// `FBSReceive`'s receive-miss rule (Fig. 4 R3-11 over Fig. 6's
    /// RFKC), generic over the cache's id type so both engines share it:
    /// freshness first (a stale datagram is stale even when its key is
    /// unavailable), then `open` under the key the RFKC lends; on a miss,
    /// `derive` into a local, `open` under it, and cache the key only
    /// once it verified (a forged birth leaves `rfkc` as it was), in the
    /// allocation of the key its insert evicts
    /// ([`SealedFlowKey::into_box_reusing`]).
    /// `open` wraps [`open_with_key_into`](Self::open_with_key_into).
    pub fn open_cached<K: Eq + Hash + Clone, T>(
        &self,
        rfkc: &mut SoftCache<K, Box<SealedFlowKey>>,
        id: K,
        timestamp: u32,
        derive: impl FnOnce() -> Result<SealedFlowKey>,
        open: impl FnOnce(&SealedFlowKey) -> Result<T>,
    ) -> Result<T> {
        self.check_freshness(timestamp)?;
        if let Some(key) = rfkc.get_ref(&id) {
            return open(key);
        }
        let key = derive()?;
        let opened = open(&key)?;
        rfkc.insert_with(id, |evicted| {
            key.into_box_reusing(evicted.take().map(|(_, old)| old))
        });
        Ok(opened)
    }

    /// R7-9: compare the shipped prefix of `expected`, the untruncated
    /// MAC, with the header's in constant time, counting a mismatch.
    fn check_mac(&self, h: &HeaderView<'_>, expected: &[u8]) -> Result<()> {
        let used = self.cfg.shipped_mac_len(expected.len());
        if !mac_eq(&expected[..used], h.mac) {
            self.note_mac_drop();
            return Err(FbsError::BadMac);
        }
        Ok(())
    }

    /// Recover the body into `out` and verify its MAC, dispatched on the
    /// (authenticated) suite id and the key's material, which must
    /// agree. In NOP-crypto mode (Fig. 8's "FBS NOP") MAC verification
    /// returns immediately. The paper and fast suites MAC the plaintext,
    /// so they decrypt first; the AEAD suite MACs the ciphertext, so it
    /// compares the tag first and decrypts only a verified body.
    fn open_verified(
        &self,
        h: &HeaderView<'_>,
        key: &SealedFlowKey,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // Both halves of a flow must run the same profile: a frame naming
        // a different suite is keyed differently by construction (the
        // suite id is absorbed into the MAC of the non-paper suites) and
        // is rejected up front, so no downgrade path exists.
        if h.suite != self.cfg.suite {
            self.note_mac_drop();
            return Err(FbsError::BadMac);
        }
        let mut expected = [0u8; MAX_MAC_SIZE];
        let full = match (h.suite, key.material()) {
            (CipherSuite::Paper, KeyMaterial::Paper(m)) => {
                if let Err(e) = open_body_into(h, m, body, out) {
                    self.note_malformed();
                    return Err(e);
                }
                self.note_decrypted(h);
                let len = h.plaintext_len as usize;
                if !self.cfg.nop_crypto {
                    // The paper layout: MAC over confounder | timestamp |
                    // plaintext — bit-identical to the pre-suite wire
                    // format.
                    let mut ctx = m.mac_begin(h.mac_alg);
                    ctx.update(&h.confounder.to_be_bytes());
                    ctx.update(&h.timestamp.to_be_bytes());
                    ctx.update(&out[..len]);
                    let full = ctx.finalize_into(&mut expected);
                    self.check_mac(h, &expected[..full])?;
                }
                // The MAC does not cover the padding, and the sender
                // zero-fills it: anything else is a second ciphertext for
                // a verified message, refused as malformed.
                if out[len..].iter().any(|&b| b != 0) {
                    self.note_malformed();
                    return Err(FbsError::MalformedCiphertext);
                }
                out.truncate(len);
                return Ok(());
            }
            (CipherSuite::FastDes, KeyMaterial::FastDes(m)) => {
                if !matches!(h.enc_alg, EncAlgorithm::None | EncAlgorithm::DesCtr)
                    || h.plaintext_len as usize != body.len()
                {
                    self.note_malformed();
                    return Err(FbsError::MalformedCiphertext);
                }
                out.clear();
                out.extend_from_slice(body);
                if h.enc_alg == EncAlgorithm::DesCtr {
                    ctr_xor_at(m.des(), ctr_base(h.confounder, h.timestamp), 0, out);
                }
                self.note_decrypted(h);
                if self.cfg.nop_crypto {
                    return Ok(());
                }
                let mut ctx = m.mac_begin(h.mac_alg);
                ctx.update(&[h.suite.wire_id()]);
                ctx.update(&h.confounder.to_be_bytes());
                ctx.update(&h.timestamp.to_be_bytes());
                ctx.update(out);
                ctx.finalize_into(&mut expected)
            }
            (CipherSuite::AeadChaPoly, KeyMaterial::Aead(chacha)) => {
                // The tag is always Poly1305: a frame naming another MAC
                // is refused like one naming another suite.
                if h.mac_alg != MacAlgorithm::Poly1305 {
                    self.note_mac_drop();
                    return Err(FbsError::BadMac);
                }
                if !matches!(h.enc_alg, EncAlgorithm::None | EncAlgorithm::ChaCha20)
                    || h.plaintext_len as usize != body.len()
                {
                    self.note_malformed();
                    return Err(FbsError::MalformedCiphertext);
                }
                let cc = ChaCha20::new(chacha, &aead_nonce(h.sfl, h.confounder, h.timestamp));
                if !self.cfg.nop_crypto {
                    // Encrypt-then-MAC (RFC 8439 §2.8): the tag covers the
                    // ciphertext, so a forgery is rejected before its body
                    // is copied or any keystream is spent on it.
                    let mut p = Poly1305::new(&cc.poly1305_key());
                    p.update(&[h.suite.wire_id()]);
                    p.update(&h.confounder.to_be_bytes());
                    p.update(&h.timestamp.to_be_bytes());
                    p.update(body);
                    self.check_mac(h, &p.finalize())?;
                }
                out.clear();
                out.extend_from_slice(body);
                if h.enc_alg == EncAlgorithm::ChaCha20 {
                    cc.xor_keystream(1, out);
                }
                self.note_decrypted(h);
                return Ok(());
            }
            // A key sealed for another suite than the endpoint's: keys
            // are sealed under the endpoint's own config, so only a
            // caller handing in a foreign key gets here. It opens
            // nothing, like a frame naming the wrong suite.
            _ => {
                self.note_mac_drop();
                return Err(FbsError::BadMac);
            }
        };
        self.check_mac(h, &expected[..full])
    }

    /// Decryption accounting, fired once per secret body.
    fn note_decrypted(&self, h: &HeaderView<'_>) {
        if h.enc_alg.is_secret() {
            self.counts.incr(Counter::Decryptions);
        }
    }

    fn note_malformed(&self) {
        self.counts.incr(Counter::MalformedDrops);
    }

    fn note_mac_drop(&self) {
        self.counts.incr(Counter::MacDrops);
    }

    /// Shared send-side accounting (counts, and the size histogram when
    /// observed), identical for the legacy and zero-copy paths.
    fn note_sealed(&self, enc_alg: EncAlgorithm, plaintext_bytes: u64) {
        if enc_alg.is_secret() {
            self.counts.incr(Counter::Encryptions);
        }
        self.counts.incr(Counter::Sends);
        if let Some(reg) = &self.obs {
            reg.observe(Histogram::SendBytes, plaintext_bytes);
        }
    }

    fn note_received(&self, bytes: u64) {
        self.counts.incr(Counter::Receives);
        if let Some(reg) = &self.obs {
            reg.observe(Histogram::ReceiveBytes, bytes);
        }
    }
}

/// The index hash of the endpoint's TFKC and RFKC, which key a flow by
/// (sfl, peer): [`flow_key_hash_parts`]`(sfl, peer, local)`.
fn peer_key_hash(local: &Principal) -> impl Fn(&(u64, Principal)) -> u32 + Send + Sync + 'static {
    let local = local.clone();
    move |(sfl, peer)| flow_key_hash_parts(*sfl, peer.as_bytes(), local.as_bytes())
}

/// One principal's FBS protocol state: a [`FlowCodec`], the
/// [`KeyingService`] (the MKC in front of the MKD upcall, and the one
/// derive) and the TFKC/RFKC. The codec and both flow-key caches count
/// into one block, written only through `&mut self`; the service counts
/// into its own (lock-ordering rule 1 of [`crate::concurrent`]).
pub struct FbsEndpoint {
    codec: FlowCodec,
    keying: KeyingService,
    tfkc: SoftCache<(u64, Principal), Box<SealedFlowKey>>,
    rfkc: SoftCache<(u64, Principal), Box<SealedFlowKey>>,
}

impl FbsEndpoint {
    /// Create an endpoint for `local`. `seed` randomises the confounder
    /// generator (must differ across initialisations, §5.3); `mkd`
    /// carries the principal's private value and certificate access, and
    /// moves into the endpoint's [`KeyingService`]: one MKC shard of
    /// `cfg.mkc_slots` direct-mapped slots.
    pub fn new(
        local: Principal,
        cfg: FbsConfig,
        clock: Arc<dyn Clock>,
        seed: u64,
        mkd: MasterKeyDaemon,
    ) -> Self {
        let keying = KeyingService::new(mkd, cfg.mkc_slots, 1);
        let codec = FlowCodec::new(local, cfg, clock, seed);
        let cfg = &codec.cfg;
        let tfkc = SoftCache::new(cfg.tfkc_sets, cfg.tfkc_assoc, peer_key_hash(&codec.local))
            .with_counts(Arc::clone(&codec.counts), CacheKind::Tfkc);
        let rfkc = SoftCache::new(cfg.rfkc_sets, cfg.rfkc_assoc, peer_key_hash(&codec.local))
            .with_counts(Arc::clone(&codec.counts), CacheKind::Rfkc);
        FbsEndpoint {
            codec,
            keying,
            tfkc,
            rfkc,
        }
    }

    /// Attach a metrics registry: it reads the endpoint's and the
    /// keying service's counter blocks (lifetime counts, pre-attach
    /// included; its TFKC/RFKC count under their own [`CacheKind`]s), and
    /// the codec adds send/receive sizes and key-derivation latency.
    pub fn attach_obs(&mut self, registry: Arc<MetricsRegistry>) {
        self.tfkc.set_obs(Arc::clone(&registry), CacheKind::Tfkc);
        self.rfkc.set_obs(Arc::clone(&registry), CacheKind::Rfkc);
        self.keying.attach_obs(Arc::clone(&registry));
        self.codec.set_obs(registry);
    }

    /// The local principal.
    pub fn local(&self) -> &Principal {
        self.codec.local()
    }

    /// The configuration in use.
    pub fn config(&self) -> &FbsConfig {
        self.codec.config()
    }

    /// `FBSSend` (Fig. 4): protect `datagram` under flow `sfl` (obtained
    /// from a FAM classification). `secret` requests confidentiality.
    ///
    /// This is a structured-view wrapper over the one seal implementation
    /// ([`Self::seal_into`]): the wire payload is sealed exactly as the
    /// zero-copy path would, then re-parsed into a [`ProtectedDatagram`].
    pub fn send(
        &mut self,
        sfl: u64,
        datagram: Datagram,
        secret: bool,
    ) -> Result<ProtectedDatagram> {
        debug_assert_eq!(
            datagram.source, self.codec.local,
            "sending from a foreign principal"
        );
        let mut wire = Vec::new();
        self.seal_into(
            sfl,
            &datagram.destination,
            &datagram.body,
            secret,
            &mut wire,
        )?;
        ProtectedDatagram::decode_payload(datagram.source, datagram.destination, &wire)
    }

    /// `FBSSend` straight into a caller-supplied buffer: encode, pad,
    /// encrypt, and MAC into `out` with no per-datagram heap allocation.
    /// `out` ends up holding exactly the wire payload that
    /// [`ProtectedDatagram::encode_payload`] would have produced —
    /// byte-for-byte, including the confounder sequence (both paths draw
    /// from the same per-endpoint generator).
    pub fn seal_into(
        &mut self,
        sfl: u64,
        destination: &Principal,
        body: &[u8],
        secret: bool,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // The transmit flow key via the TFKC (Fig. 6, replacing Fig. 4
        // line S3), lent to the codec beside it: a hit seals under the
        // cached key; a miss derives into a local, seals under it, then
        // caches it in the allocation of the key its insert evicts.
        let (codec, keying, tfkc) = (&mut self.codec, &self.keying, &mut self.tfkc);
        let id = (sfl, destination.clone());
        if let Some(key) = tfkc.get_ref(&id) {
            return codec.seal_with_key_into(sfl, key, body, secret, out);
        }
        let key = keying.derive(codec, sfl, destination, true)?;
        let sealed = codec.seal_with_key_into(sfl, &key, body, secret, out);
        tfkc.insert_with(id, |evicted| {
            key.into_box_reusing(evicted.take().map(|(_, old)| old))
        });
        sealed
    }

    /// Classify through `fam` and send: the full Fig. 4 send path (S1-S10).
    pub fn send_classified<A, P>(
        &mut self,
        fam: &mut Fam<A, P>,
        attrs: A,
        datagram: Datagram,
        secret: bool,
    ) -> Result<ProtectedDatagram>
    where
        P: FlowPolicy<A>,
    {
        let now = self.codec.clock.now_secs();
        let class = fam.classify(attrs, now, datagram.body.len() as u64);
        self.send(class.sfl, datagram, secret)
    }

    /// `FBSReceive` (Fig. 4): verify and strip protection, returning the
    /// original datagram.
    pub fn receive(&mut self, pd: ProtectedDatagram) -> Result<Datagram> {
        let mut body = Vec::with_capacity(pd.body.len());
        self.open_core(&pd.source, &pd.header.view(), &pd.body, &mut body)?;
        Ok(Datagram {
            source: pd.source,
            destination: pd.destination,
            body,
        })
    }

    /// `FBSReceive` straight from a wire payload into a caller-supplied
    /// buffer: parse the security flow header, decrypt in place inside
    /// `out`, and verify the MAC — no plaintext temporary is allocated.
    /// On success `out` holds the recovered body.
    pub fn open_into(
        &mut self,
        source: &Principal,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let (view, used) = HeaderView::parse(payload)?;
        self.open_core(source, &view, &payload[used..], out)
    }

    /// The shared receive core: the codec's receive-miss rule over the
    /// endpoint's RFKC, deriving through the keying service; the drop
    /// accounting lives in the [`FlowCodec`] halves.
    fn open_core(
        &mut self,
        source: &Principal,
        h: &HeaderView<'_>,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let (codec, keying, rfkc) = (&self.codec, &self.keying, &mut self.rfkc);
        let id = (h.sfl, source.clone());
        codec.open_cached(
            rfkc,
            id,
            h.timestamp,
            || keying.derive(codec, h.sfl, source, false),
            |key| codec.open_with_key_into(h, key, body, out),
        )
    }

    /// Invalidate the cached master key for `peer` (rekey: §5.2 notes the
    /// pair master key changes when a principal's private value changes).
    pub fn forget_peer(&mut self, peer: &Principal) {
        self.keying.forget_peer(peer);
    }

    /// Drop all flow-key soft state (always safe — it is recomputed on
    /// demand; this is what "soft state" buys, §5.2 observations).
    pub fn flush_flow_keys(&mut self) {
        self.tfkc.clear();
        self.rfkc.clear();
    }

    /// Endpoint counters.
    pub fn stats(&self) -> EndpointStats {
        self.codec.stats()
    }

    /// TFKC statistics.
    pub fn tfkc_stats(&self) -> CacheStats {
        self.tfkc.stats()
    }

    /// RFKC statistics.
    pub fn rfkc_stats(&self) -> CacheStats {
        self.rfkc.stats()
    }

    /// MKC statistics.
    pub fn mkc_stats(&self) -> CacheStats {
        self.keying.mkc_stats()
    }

    /// MKD statistics.
    pub fn mkd_stats(&self) -> MkdStats {
        self.keying.mkd_stats()
    }

    /// Shared clock handle.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        self.codec.clock()
    }
}

/// The cipher a DES-suite flow key materialises into, per the header's
/// algorithm-ID. Borrows the schedule cached in the key's
/// [`DesMaterial`], so selecting a cipher costs nothing per datagram.
enum FlowCipher<'a> {
    Single(&'a Des),
    Triple(&'a TripleDes),
}

impl<'a> FlowCipher<'a> {
    fn for_alg(alg: EncAlgorithm, m: &'a DesMaterial) -> FlowCipher<'a> {
        if alg.is_triple() {
            FlowCipher::Triple(m.tdea())
        } else {
            FlowCipher::Single(m.des())
        }
    }
}

impl BlockCipher for FlowCipher<'_> {
    fn encrypt_block(&self, block: &mut [u8; 8]) {
        match self {
            FlowCipher::Single(c) => c.encrypt_block(block),
            FlowCipher::Triple(c) => c.encrypt_block(block),
        }
    }
    fn decrypt_block(&self, block: &mut [u8; 8]) {
        match self {
            FlowCipher::Single(c) => c.decrypt_block(block),
            FlowCipher::Triple(c) => c.decrypt_block(block),
        }
    }
}

/// CTR counter base for the fast suite: confounder || timestamp. Keystream
/// block `i` is `E(base + i)`; uniqueness rests on the per-datagram
/// confounder (32 random bits per minute bucket — the same birthday bound
/// the paper's CBC IV already relies on).
fn ctr_base(confounder: u32, timestamp: u32) -> u64 {
    ((confounder as u64) << 32) | timestamp as u64
}

/// 96-bit AEAD nonce: confounder | timestamp | low sfl bits. Unique per
/// datagram under the same flow key to the extent the confounder is.
fn aead_nonce(sfl: u64, confounder: u32, timestamp: u32) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[0..4].copy_from_slice(&confounder.to_be_bytes());
    nonce[4..8].copy_from_slice(&timestamp.to_be_bytes());
    nonce[8..12].copy_from_slice(&(sfl as u32).to_be_bytes());
    nonce
}

/// Fused chunk size for the fast-DES single-pass loop: MAC absorption and
/// CTR keystream XOR alternate over chunks this large (a multiple of both
/// the DES block and the 4-wide keystream stride).
const CTR_FUSE_CHUNK: usize = 256;

/// Compute the MAC and optionally encrypt, honouring the single-pass
/// configuration — entirely in place. `body` is the wire body region:
/// `body[..plaintext_len]` holds the plaintext, the remainder (zeroed
/// padding, present only when a block cipher is selected) completes the
/// final block. The MAC lands in `mac_out`; the untruncated length is
/// returned. Dispatch is on the key's material, i.e. its
/// [`CipherSuite`]; the paper suite's output is bit-identical to the
/// pre-suite implementation.
#[allow(clippy::too_many_arguments)]
fn seal_core(
    cfg: &FbsConfig,
    key: &SealedFlowKey,
    sfl: u64,
    confounder: u32,
    timestamp: u32,
    plaintext_len: usize,
    mac_alg: MacAlgorithm,
    enc_alg: EncAlgorithm,
    body: &mut [u8],
    mac_out: &mut [u8; MAX_MAC_SIZE],
) -> usize {
    let out_len = mac_alg.output_len();
    if cfg.nop_crypto {
        // Fig. 8's "FBS NOP": MAC computation returns immediately.
        mac_out[..out_len].fill(0);
        return out_len;
    }

    let m = match key.material() {
        KeyMaterial::Paper(m) => m,
        KeyMaterial::FastDes(m) => {
            // Fast profile: prefix-keyed MAC (cached key prefix) over
            // suite | confounder | timestamp | plaintext, fused with the
            // 4-wide DES-CTR keystream XOR in one pass over the data.
            debug_assert_eq!(body.len(), plaintext_len);
            let mut ctx = m.mac_begin(mac_alg);
            ctx.update(&[CipherSuite::FastDes.wire_id()]);
            ctx.update(&confounder.to_be_bytes());
            ctx.update(&timestamp.to_be_bytes());
            if enc_alg == EncAlgorithm::DesCtr {
                let base = ctr_base(confounder, timestamp);
                let mut off = 0;
                while off < body.len() {
                    let n = (body.len() - off).min(CTR_FUSE_CHUNK);
                    let chunk = &mut body[off..off + n];
                    // Plaintext enters the MAC, then is encrypted in place.
                    ctx.update(chunk);
                    ctr_xor_at(m.des(), base, (off / BLOCK_SIZE) as u64, chunk);
                    off += n;
                }
            } else {
                ctx.update(body);
            }
            return ctx.finalize_into(mac_out);
        }
        KeyMaterial::Aead(chacha) => {
            // AEAD profile: ChaCha20 from keystream block 1, Poly1305 tag
            // (one-time key from block 0) over suite | confounder |
            // timestamp | ciphertext — encrypt-then-MAC per RFC 8439.
            debug_assert_eq!(body.len(), plaintext_len);
            let cc = ChaCha20::new(chacha, &aead_nonce(sfl, confounder, timestamp));
            if enc_alg == EncAlgorithm::ChaCha20 {
                cc.xor_keystream(1, body);
            }
            let mut p = Poly1305::new(&cc.poly1305_key());
            p.update(&[CipherSuite::AeadChaPoly.wire_id()]);
            p.update(&confounder.to_be_bytes());
            p.update(&timestamp.to_be_bytes());
            p.update(body);
            mac_out[..Poly1305::TAG_LEN].copy_from_slice(&p.finalize());
            return Poly1305::TAG_LEN;
        }
    };

    let Some(mode) = enc_alg.des_mode() else {
        // MAC-only path: single data touch by construction.
        debug_assert_eq!(body.len(), plaintext_len);
        let mut ctx = m.mac_begin(mac_alg);
        ctx.update(&confounder.to_be_bytes());
        ctx.update(&timestamp.to_be_bytes());
        ctx.update(body);
        return ctx.finalize_into(mac_out);
    };

    debug_assert_eq!(body.len(), padded_len(plaintext_len));
    let des = FlowCipher::for_alg(enc_alg, m);
    let iv = ((confounder as u64) << 32) | confounder as u64;
    // Single pass (§5.3): absorb each plaintext block into the MAC and
    // encrypt it in the same loop iteration.
    let mut ctx = m.mac_begin(mac_alg);
    ctx.update(&confounder.to_be_bytes());
    ctx.update(&timestamp.to_be_bytes());
    let mut enc = BlockEncryptor::new(&des, mode, iv);
    for (i, chunk) in body.chunks_exact_mut(BLOCK_SIZE).enumerate() {
        let start = i * BLOCK_SIZE;
        let valid = plaintext_len.saturating_sub(start).min(BLOCK_SIZE);
        if valid > 0 {
            // Only true payload bytes enter the MAC; padding does not.
            ctx.update(&chunk[..valid]);
        }
        enc.process(chunk.try_into().expect("chunks_exact yields 8 bytes"));
    }
    ctx.finalize_into(mac_out)
}

/// Recover a paper-suite body into `out` (decrypting in place inside
/// `out` if needed) and validate framing. A block mode's padding stays
/// at the end of `out`, `plaintext_len` bytes in, for the caller to
/// check once the MAC has verified.
fn open_body_into(
    h: &HeaderView<'_>,
    m: &DesMaterial,
    body: &[u8],
    out: &mut Vec<u8>,
) -> Result<()> {
    match h.enc_alg.des_mode() {
        None => {
            if h.plaintext_len as usize != body.len() {
                return Err(FbsError::MalformedCiphertext);
            }
            out.clear();
            out.extend_from_slice(body);
            Ok(())
        }
        Some(mode) => {
            let len = h.plaintext_len as usize;
            if !body.len().is_multiple_of(BLOCK_SIZE)
                || len > body.len()
                || body.len() - len >= BLOCK_SIZE
            {
                return Err(FbsError::MalformedCiphertext);
            }
            let des = FlowCipher::for_alg(h.enc_alg, m);
            out.clear();
            out.extend_from_slice(body);
            decrypt_in_place(&des, h.iv64(), mode, out);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::mkd::PinnedDirectory;
    use fbs_crypto::dh::{DhGroup, PrivateValue};
    use fbs_obs::MetricsSnapshot;

    /// Build a connected pair of endpoints sharing a manual clock.
    fn endpoint_pair(cfg: FbsConfig) -> (FbsEndpoint, FbsEndpoint, ManualClock) {
        let clock = ManualClock::starting_at(1_000_000);
        let group = DhGroup::test_group();
        let s_priv = PrivateValue::from_entropy(group.clone(), b"source-entropy-20-bytes");
        let d_priv = PrivateValue::from_entropy(group, b"dest-entropy-20-bytes!!");
        let s = Principal::named("S");
        let d = Principal::named("D");
        let mut dir_s = PinnedDirectory::new();
        dir_s.pin(d.clone(), d_priv.public_value());
        let mut dir_d = PinnedDirectory::new();
        dir_d.pin(s.clone(), s_priv.public_value());
        let ep_s = FbsEndpoint::new(
            s,
            cfg.clone(),
            Arc::new(clock.clone()),
            0x1111,
            MasterKeyDaemon::new(s_priv, Box::new(dir_s)),
        );
        let ep_d = FbsEndpoint::new(
            d,
            cfg,
            Arc::new(clock.clone()),
            0x2222,
            MasterKeyDaemon::new(d_priv, Box::new(dir_d)),
        );
        (ep_s, ep_d, clock)
    }

    fn dgram(body: &[u8]) -> Datagram {
        Datagram::new(Principal::named("S"), Principal::named("D"), body)
    }

    #[test]
    fn roundtrip_cleartext() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(42, dgram(b"hello"), false).unwrap();
        assert_eq!(pd.header.enc_alg, EncAlgorithm::None);
        assert_eq!(pd.body, b"hello"); // MAC-only: body visible
        let got = d.receive(pd).unwrap();
        assert_eq!(got.body, b"hello");
        assert_eq!(d.stats().receives, 1);
    }

    #[test]
    fn roundtrip_encrypted() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(42, dgram(b"top secret payload"), true).unwrap();
        assert!(pd.header.enc_alg.is_secret());
        assert_ne!(&pd.body[..18.min(pd.body.len())], b"top secret payload");
        assert_eq!(pd.body.len() % 8, 0);
        let got = d.receive(pd).unwrap();
        assert_eq!(got.body, b"top secret payload");
    }

    #[test]
    fn roundtrip_empty_body() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        for secret in [false, true] {
            let pd = s.send(1, dgram(b""), secret).unwrap();
            let got = d.receive(pd).unwrap();
            assert!(got.body.is_empty());
        }
    }

    #[test]
    fn all_cipher_modes_roundtrip() {
        for enc in [
            EncAlgorithm::DesCbc,
            EncAlgorithm::DesEcb,
            EncAlgorithm::DesCfb,
            EncAlgorithm::DesOfb,
            EncAlgorithm::TdeaCbc,
        ] {
            let cfg = FbsConfig {
                enc_alg: enc,
                ..FbsConfig::default()
            };
            let (mut s, mut d, _) = endpoint_pair(cfg);
            let pd = s.send(3, dgram(b"mode test payload 123"), true).unwrap();
            let got = d.receive(pd).unwrap();
            assert_eq!(got.body, b"mode test payload 123", "{enc:?}");
        }
    }

    #[test]
    fn tampered_body_rejected() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let mut pd = s.send(42, dgram(b"do not touch"), true).unwrap();
        pd.body[0] ^= 0x80;
        assert_eq!(d.receive(pd), Err(FbsError::BadMac));
        assert_eq!(d.stats().mac_drops, 1);
    }

    #[test]
    fn tampered_timestamp_rejected() {
        // The MAC covers the timestamp, so shifting it (within the window)
        // still fails verification.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let mut pd = s.send(42, dgram(b"payload"), false).unwrap();
        pd.header.timestamp += 1;
        assert_eq!(d.receive(pd), Err(FbsError::BadMac));
    }

    #[test]
    fn tampered_confounder_rejected() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let mut pd = s.send(42, dgram(b"payload"), false).unwrap();
        pd.header.confounder ^= 1;
        assert_eq!(d.receive(pd), Err(FbsError::BadMac));
    }

    #[test]
    fn cut_and_paste_across_flows_rejected() {
        // §2.2's cut-and-paste attack: splice flow-1 ciphertext into a
        // flow-2 datagram. Different flow keys make the MAC fail.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd1 = s.send(1, dgram(b"AAAAAAAA"), true).unwrap();
        let mut pd2 = s.send(2, dgram(b"BBBBBBBB"), true).unwrap();
        pd2.body = pd1.body.clone();
        assert_eq!(d.receive(pd2), Err(FbsError::BadMac));
    }

    #[test]
    fn sfl_relabel_rejected() {
        // Relabelling a datagram to another flow changes the derived key.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let mut pd = s.send(1, dgram(b"flow one data"), true).unwrap();
        pd.header.sfl = 2;
        assert!(d.receive(pd).is_err());
        // The forged birth derived a key but cached none.
        assert_eq!(d.rfkc_stats().misses(), 1);
        assert_eq!(d.rfkc_stats().insertions, 0);
    }

    #[test]
    fn stale_datagram_rejected() {
        let (mut s, mut d, clock) = endpoint_pair(FbsConfig::default());
        let pd = s.send(1, dgram(b"old news"), false).unwrap();
        clock.advance(10 * 60); // 10 minutes > default ±2
        assert!(matches!(
            d.receive(pd),
            Err(FbsError::StaleTimestamp { .. })
        ));
        assert_eq!(d.stats().replay_drops, 1);
    }

    #[test]
    fn replay_within_window_succeeds_as_documented() {
        // §6.2: replay protection cannot be perfect — a replay inside the
        // freshness window is accepted; higher layers must sequence.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(1, dgram(b"replayable"), false).unwrap();
        assert!(d.receive(pd.clone()).is_ok());
        assert!(d.receive(pd).is_ok());
    }

    #[test]
    fn flow_key_caches_amortise() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        for _ in 0..10 {
            let pd = s.send(5, dgram(b"data"), true).unwrap();
            d.receive(pd).unwrap();
        }
        // One TFKC miss (first datagram), nine hits; same for RFKC. One MKD
        // upcall each side.
        assert_eq!(s.tfkc_stats().misses(), 1);
        assert_eq!(s.tfkc_stats().hits, 9);
        assert_eq!(d.rfkc_stats().misses(), 1);
        assert_eq!(d.rfkc_stats().hits, 9);
        assert_eq!(s.mkd_stats().upcalls, 1);
        assert_eq!(d.mkd_stats().upcalls, 1);
    }

    #[test]
    fn the_endpoint_caches_index_the_principal_pair_ids() {
        // Both caches key a flow by (sfl, peer) and keep the local
        // principal in the hash: a flow lands in the set the CRC-32 of
        // the whole (sfl, peer, local) id names, as when the id held
        // both principals.
        let crc_of_id = |sfl: u64, peer: &Principal, local: &Principal| {
            let id = [&sfl.to_be_bytes()[..], peer.as_bytes(), local.as_bytes()].concat();
            fbs_crypto::crc32(&id)
        };
        let (sp, dp) = (Principal::named("S"), Principal::named("D"));
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in 0..4096u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let peer = Principal::named(&format!("peer-{i}"));
            let local = if i % 2 == 0 { &sp } else { &dp };
            let hash = peer_key_hash(local);
            assert_eq!(
                hash(&(x, peer.clone())),
                crc_of_id(x, &peer, local),
                "sfl {x:#x}"
            );
        }

        // Through the direct-mapped 64-set caches: `b` shares `a`'s set
        // on both sides and evicts it, `c` sits in a set of its own.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let tx_set = |sfl: u64| crc_of_id(sfl, &dp, &sp) % 64;
        let rx_set = |sfl: u64| crc_of_id(sfl, &sp, &dp) % 64;
        let a = 1;
        let b = (2..)
            .find(|&sfl| tx_set(sfl) == tx_set(a) && rx_set(sfl) == rx_set(a))
            .unwrap();
        let c = (2..)
            .find(|&sfl| tx_set(sfl) != tx_set(a) && rx_set(sfl) != rx_set(a))
            .unwrap();
        for sfl in [a, c, b, a, c] {
            let pd = s.send(sfl, dgram(b"set"), false).unwrap();
            d.receive(pd).unwrap();
        }
        for stats in [s.tfkc_stats(), d.rfkc_stats()] {
            assert_eq!((stats.misses(), stats.hits), (4, 1), "{stats:?}");
            assert_eq!(stats.evictions, 2, "{stats:?}");
        }
    }

    #[test]
    fn soft_state_flush_is_transparent() {
        // Dropping all cached keys mid-flow must not break the protocol —
        // the defining property of soft state.
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(5, dgram(b"one"), true).unwrap();
        d.receive(pd).unwrap();
        s.flush_flow_keys();
        d.flush_flow_keys();
        let pd = s.send(5, dgram(b"two"), true).unwrap();
        assert_eq!(d.receive(pd).unwrap().body, b"two");
    }

    #[test]
    fn distinct_flows_distinct_ciphertexts() {
        let (mut s, _, _) = endpoint_pair(FbsConfig::default());
        let p1 = s.send(1, dgram(b"identical!"), true).unwrap();
        let p2 = s.send(2, dgram(b"identical!"), true).unwrap();
        assert_ne!(p1.body, p2.body);
    }

    #[test]
    fn confounder_hides_identical_datagrams_within_flow() {
        // §5.2: the confounder hides the presence of identical datagrams in
        // the SAME flow.
        let (mut s, _, _) = endpoint_pair(FbsConfig::default());
        let p1 = s.send(1, dgram(b"identical!"), true).unwrap();
        let p2 = s.send(1, dgram(b"identical!"), true).unwrap();
        assert_ne!(p1.header.confounder, p2.header.confounder);
        assert_ne!(p1.body, p2.body);
    }

    #[test]
    fn wire_encode_decode_roundtrip() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(7, dgram(b"over the wire"), true).unwrap();
        let wire = pd.encode_payload();
        let parsed =
            ProtectedDatagram::decode_payload(pd.source.clone(), pd.destination.clone(), &wire)
                .unwrap();
        assert_eq!(parsed, pd);
        assert_eq!(d.receive(parsed).unwrap().body, b"over the wire");
    }

    #[test]
    fn truncated_mac_roundtrip_and_rejection() {
        let cfg = FbsConfig {
            mac_truncate: Some(8),
            ..FbsConfig::default()
        };
        let (mut s, mut d, _) = endpoint_pair(cfg);
        let pd = s.send(7, dgram(b"short mac"), true).unwrap();
        assert_eq!(pd.header.mac.len(), 8);
        let mut tampered = pd.clone();
        tampered.body[0] ^= 1;
        assert_eq!(d.receive(pd).unwrap().body, b"short mac");
        assert_eq!(d.receive(tampered), Err(FbsError::BadMac));
    }

    #[test]
    fn malformed_ciphertext_lengths_rejected() {
        let (mut s, mut d, _) = endpoint_pair(FbsConfig::default());
        // Non-block-multiple body.
        let mut pd = s.send(7, dgram(b"eight by"), true).unwrap();
        pd.body.push(0);
        assert_eq!(d.receive(pd), Err(FbsError::MalformedCiphertext));
        // plaintext_len larger than body.
        let mut pd = s.send(7, dgram(b"eight by"), true).unwrap();
        pd.header.plaintext_len = 1000;
        assert_eq!(d.receive(pd), Err(FbsError::MalformedCiphertext));
        // Cleartext with mismatched declared length.
        let mut pd = s.send(7, dgram(b"clear"), false).unwrap();
        pd.header.plaintext_len = 2;
        assert_eq!(d.receive(pd), Err(FbsError::MalformedCiphertext));
        assert_eq!(d.stats().malformed_drops, 3);
    }

    #[test]
    fn unknown_peer_errors() {
        let (mut s, _, _) = endpoint_pair(FbsConfig::default());
        let bad = Datagram::new(
            Principal::named("S"),
            Principal::named("nobody"),
            b"x".to_vec(),
        );
        assert!(matches!(
            s.send(1, bad, false),
            Err(FbsError::PrincipalUnknown(_))
        ));
    }

    #[test]
    fn hmac_and_sha1_configs_roundtrip() {
        for (mac_alg, kd) in [
            (MacAlgorithm::HmacMd5, KeyDerivation::Md5),
            (MacAlgorithm::KeyedSha1, KeyDerivation::Sha1),
            (MacAlgorithm::HmacSha1, KeyDerivation::Sha1),
        ] {
            let cfg = FbsConfig {
                mac_alg,
                key_derivation: kd,
                ..FbsConfig::default()
            };
            let (mut s, mut d, _) = endpoint_pair(cfg);
            let pd = s.send(3, dgram(b"alternate algorithms"), true).unwrap();
            assert_eq!(d.receive(pd).unwrap().body, b"alternate algorithms");
        }
    }

    #[test]
    fn triple_des_wire_differs_from_single_des() {
        // Same flow key, same confounder seed: the TdeaCbc ciphertext must
        // differ from DesCbc's (the algorithm-ID field actually selects a
        // different cipher, not just a different label).
        let single = FbsConfig::default();
        let triple = FbsConfig {
            enc_alg: EncAlgorithm::TdeaCbc,
            ..FbsConfig::default()
        };
        let (mut s1, _, _) = endpoint_pair(single);
        let (mut s3, mut d3, _) = endpoint_pair(triple);
        let p1 = s1.send(9, dgram(b"cipher strength test"), true).unwrap();
        let p3 = s3.send(9, dgram(b"cipher strength test"), true).unwrap();
        assert_eq!(p1.header.confounder, p3.header.confounder, "same seed");
        assert_ne!(p1.body, p3.body, "different ciphers, different wire");
        assert_eq!(d3.receive(p3).unwrap().body, b"cipher strength test");
    }

    #[test]
    fn nop_crypto_mode_roundtrips_with_zero_mac() {
        let cfg = FbsConfig {
            nop_crypto: true,
            ..FbsConfig::default()
        };
        let (mut s, mut d, _) = endpoint_pair(cfg);
        let pd = s.send(1, dgram(b"measured payload"), true).unwrap();
        assert_eq!(pd.header.mac, vec![0u8; 16]);
        assert_eq!(pd.header.enc_alg, EncAlgorithm::None); // NOP: no cipher
        assert_eq!(pd.body, b"measured payload");
        assert_eq!(d.receive(pd).unwrap().body, b"measured payload");
    }

    #[test]
    fn overhead_accounting() {
        let (mut s, _, _) = endpoint_pair(FbsConfig::default());
        let pd = s.send(1, dgram(b"123456789"), true).unwrap(); // 9 → padded 16
                                                                // Header 40 bytes + 7 bytes padding.
        assert_eq!(pd.overhead(), 40 + 7);
    }

    /// The registry names of every `EndpointStats` and `MkdStats` field,
    /// filled from the endpoint's accessors.
    fn endpoint_and_mkd_views(ep: &FbsEndpoint, snap: &mut MetricsSnapshot) {
        let e = ep.stats();
        let m = ep.mkd_stats();
        for (name, v) in [
            ("endpoint.sends", e.sends),
            ("endpoint.receives", e.receives),
            ("endpoint.replay_drops", e.replay_drops),
            ("endpoint.mac_drops", e.mac_drops),
            ("endpoint.malformed_drops", e.malformed_drops),
            ("endpoint.encryptions", e.encryptions),
            ("endpoint.decryptions", e.decryptions),
            ("mkd.upcalls", m.upcalls),
            ("mkd.failures", m.failures),
            ("retry.attempts", m.retries),
            ("retry.exhausted", m.retry_exhausted),
            ("breaker.opened", m.breaker_opens),
            ("breaker.half_open", m.breaker_half_opens),
            ("breaker.closed", m.breaker_closes),
            ("breaker.fast_fails", m.breaker_fast_fails),
        ] {
            snap.add(name, v);
        }
    }

    #[test]
    fn registry_mirrors_legacy_stats_mid_run() {
        // Both endpoints share one registry; mid-run and at the end, the
        // live snapshot must agree with the sum of the legacy per-endpoint
        // stats structs on every counter those structs contribute.
        let reg = Arc::new(MetricsRegistry::new());
        let (mut s, mut d, clock) = endpoint_pair(FbsConfig::default());
        s.attach_obs(Arc::clone(&reg));
        d.attach_obs(Arc::clone(&reg));

        let check = |s: &FbsEndpoint, d: &FbsEndpoint, reg: &MetricsRegistry| {
            let mut legacy = MetricsSnapshot::new();
            for ep in [s, d] {
                endpoint_and_mkd_views(ep, &mut legacy);
                ep.tfkc_stats().contribute(CacheKind::Tfkc, &mut legacy);
                ep.rfkc_stats().contribute(CacheKind::Rfkc, &mut legacy);
                ep.mkc_stats().contribute(CacheKind::Mkc, &mut legacy);
            }
            let live = reg.snapshot();
            for (name, v) in &legacy.counters {
                assert_eq!(live.counter(name), *v, "counter {name}");
            }
        };

        for i in 0..10u64 {
            let pd = s.send(i % 3, dgram(b"payload"), i % 2 == 0).unwrap();
            d.receive(pd).unwrap();
        }
        check(&s, &d, &reg);

        // Drop paths: tampered MAC, then a stale replay.
        let mut bad = s.send(1, dgram(b"tamper"), true).unwrap();
        bad.body[0] ^= 1;
        assert!(d.receive(bad).is_err());
        let stale = s.send(1, dgram(b"old"), false).unwrap();
        clock.advance(10 * 60);
        assert!(d.receive(stale).is_err());
        check(&s, &d, &reg);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("endpoint.sends"), 12);
        assert_eq!(snap.counter("endpoint.receives"), 10);
        assert_eq!(snap.counter("endpoint.mac_drops"), 1);
        assert_eq!(snap.counter("endpoint.replay_drops"), 1);
        assert!(snap.counter("endpoint.key_derivations") >= 3);
        assert!(snap.histograms.contains_key("key_derivation_us"));
        // Drops are counts: no datagram, dropped or not, writes history.
        assert!(snap.events.is_empty());
    }

    #[test]
    fn an_endpoint_writes_one_block_per_lock_domain() {
        // The codec, TFKC and RFKC write the endpoint's block through
        // `&mut self`; the keying service's MKD and its one MKC shard
        // write their own, each under its mutex.
        let reg = Arc::new(MetricsRegistry::new());
        let (mut s, _, _) = endpoint_pair(FbsConfig::default());
        s.attach_obs(Arc::clone(&reg));
        assert_eq!(reg.attached_blocks(), 3);
    }

    #[test]
    fn disabled_obs_has_no_registry_side_effects() {
        // The default endpoint carries no registry: behaviour and legacy
        // stats are identical to an instrumented run's.
        let reg = Arc::new(MetricsRegistry::new());
        let (mut s1, mut d1, _) = endpoint_pair(FbsConfig::default());
        let (mut s2, mut d2, _) = endpoint_pair(FbsConfig::default());
        s2.attach_obs(Arc::clone(&reg));
        d2.attach_obs(Arc::clone(&reg));
        for i in 0..5u64 {
            let p1 = s1.send(i, dgram(b"same"), true).unwrap();
            let p2 = s2.send(i, dgram(b"same"), true).unwrap();
            assert_eq!(p1, p2);
            assert_eq!(d1.receive(p1).unwrap(), d2.receive(p2).unwrap());
        }
        assert_eq!(s1.stats(), s2.stats());
        assert_eq!(d1.stats(), d2.stats());
        assert_eq!(s1.tfkc_stats(), s2.tfkc_stats());
    }
}
