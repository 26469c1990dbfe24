//! Cipher-suite selector for the profile-driven crypto plane.
//!
//! The paper's security flow header carries MAC and encryption algorithm
//! IDs (§5.2) precisely so that endpoints can negotiate stronger or faster
//! algorithms than the DES+MD5 baseline measured in fig08. A
//! [`CipherSuite`] names a coherent *profile* — the (MAC, cipher, MAC-input
//! layout) triple sealed into the flow's key schedule at derivation time —
//! so the per-datagram fast path dispatches on the key, never on mutable
//! config, and a worker never changes crypto behaviour mid-batch.

/// A crypto-plane profile, carried in the flow key schedule and in the
/// (formerly reserved) header byte 19.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// Paper-faithful profile: prefix-keyed MD5 + DES-CBC, MAC over the
    /// plaintext, byte-identical to the pre-suite wire format (byte 19
    /// stays zero, exactly as the seed wrote it).
    #[default]
    Paper,
    /// Fast classical profile: word-sliced (4-wide interleaved) DES in
    /// counter mode + prefix-keyed MD5.
    /// Same primitives as the paper, restructured for ILP.
    FastDes,
    /// Modern AEAD-style profile: ChaCha20 encryption + Poly1305 one-time
    /// tag over the ciphertext (encrypt-then-MAC, RFC 8439 layout).
    AeadChaPoly,
}

impl CipherSuite {
    /// All suites, for grids and exhaustive tests.
    pub const ALL: [CipherSuite; 3] = [
        CipherSuite::Paper,
        CipherSuite::FastDes,
        CipherSuite::AeadChaPoly,
    ];

    /// Wire identifier carried in header byte 19. `Paper` is 0 so
    /// paper-profile frames remain bit-identical to the pre-suite format.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherSuite::Paper => 0,
            CipherSuite::FastDes => 1,
            CipherSuite::AeadChaPoly => 2,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => CipherSuite::Paper,
            1 => CipherSuite::FastDes,
            2 => CipherSuite::AeadChaPoly,
            _ => return None,
        })
    }

    /// Stable label used in counters, bench reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            CipherSuite::Paper => "paper",
            CipherSuite::FastDes => "fast_des",
            CipherSuite::AeadChaPoly => "aead_chacha_poly",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_id_roundtrip() {
        for suite in CipherSuite::ALL {
            assert_eq!(CipherSuite::from_wire_id(suite.wire_id()), Some(suite));
        }
        assert_eq!(CipherSuite::from_wire_id(3), None);
        assert_eq!(CipherSuite::from_wire_id(255), None);
    }

    #[test]
    fn paper_is_wire_zero_and_default() {
        // Bit-identical compatibility hinges on Paper == 0 == the old
        // reserved byte.
        assert_eq!(CipherSuite::Paper.wire_id(), 0);
        assert_eq!(CipherSuite::default(), CipherSuite::Paper);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = CipherSuite::ALL.iter().map(|s| s.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
