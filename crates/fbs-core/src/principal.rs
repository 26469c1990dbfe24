//! Principals: the uniquely-addressable endpoints of a datagram service.
//!
//! The paper deliberately leaves principals abstract — "the principals could
//! be network interfaces on hosts, the hosts themselves, network protocol
//! layers, applications, or end users" (§5.2). The only requirement is
//! unique addressability, so a principal here is an opaque byte string.
//! Mappings (e.g. the IP mapping in `fbs-ip`) choose the encoding.

use std::fmt;
use std::sync::Arc;

/// Identities at most this long live inline in the `Principal` value
/// itself — IPv4 addresses (4 bytes) and typical short names never touch
/// the heap, at construction or on clone.
const INLINE_MAX: usize = 22;

/// An opaque, uniquely-addressable principal identity.
///
/// The bytes participate directly in flow-key derivation
/// (`K_f = H(sfl | K_{S,D} | S | D)`), so two principals are "the same"
/// exactly when their byte encodings are equal — equality, ordering, and
/// hashing all delegate to [`Principal::as_bytes`]. Short identities
/// (up to `INLINE_MAX` = 22 bytes, which covers the IP mapping's 4-byte
/// host principals) are stored inline: the datagram fast path builds one
/// per packet and clones it into flow-key cache IDs, and neither step
/// may allocate. Longer identities fall back to a refcounted buffer, so
/// cloning stays heap-free there too.
#[derive(Clone)]
pub struct Principal(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_MAX] },
    Shared(Arc<[u8]>),
}

impl Principal {
    fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_MAX {
            let mut buf = [0u8; INLINE_MAX];
            buf[..bytes.len()].copy_from_slice(bytes);
            Principal(Repr::Inline {
                len: bytes.len() as u8,
                buf,
            })
        } else {
            Principal(Repr::Shared(bytes.into()))
        }
    }

    /// Construct from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Principal::new(&bytes.into())
    }

    /// Construct from a human-readable name (UTF-8 bytes).
    pub fn named(name: &str) -> Self {
        Principal::new(name.as_bytes())
    }

    /// Construct from an IPv4 address (network byte order), the encoding
    /// used by the IP mapping for host-level principals. Always inline —
    /// this runs once per datagram on the protect/verify paths.
    pub fn from_ipv4(addr: [u8; 4]) -> Self {
        Principal::new(&addr)
    }

    /// The raw identity bytes, as fed to the flow-key hash.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(b) => b,
        }
    }

    /// Length of the identity encoding.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True when the identity encoding is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

// Identity is the byte string, regardless of representation.
impl PartialEq for Principal {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Principal {}

impl std::hash::Hash for Principal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialOrd for Principal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Principal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Principal(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // IPv4-sized identities render as dotted quads, printable UTF-8
        // renders as text, anything else as hex.
        let bytes = self.as_bytes();
        if bytes.len() == 4 {
            return write!(f, "{}.{}.{}.{}", bytes[0], bytes[1], bytes[2], bytes[3]);
        }
        match std::str::from_utf8(bytes) {
            Ok(s) if s.chars().all(|c| c.is_ascii_graphic() || c == ' ') && !s.is_empty() => {
                write!(f, "{s}")
            }
            _ => {
                for b in bytes {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_roundtrip() {
        let p = Principal::named("hostA");
        assert_eq!(p.as_bytes(), b"hostA");
        assert_eq!(p.to_string(), "hostA");
    }

    #[test]
    fn ipv4_display() {
        let p = Principal::from_ipv4([192, 168, 69, 1]);
        assert_eq!(p.to_string(), "192.168.69.1");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn binary_renders_hex() {
        let p = Principal::from_bytes(vec![0x00, 0x01, 0xff]);
        assert_eq!(p.to_string(), "0001ff");
    }

    #[test]
    fn equality_is_byte_equality() {
        assert_eq!(Principal::named("x"), Principal::from_bytes(b"x".to_vec()));
        assert_ne!(Principal::named("x"), Principal::named("y"));
    }

    #[test]
    fn long_identities_behave_like_short_ones() {
        // Past INLINE_MAX the representation switches to a shared buffer;
        // equality, ordering, and hashing must not notice.
        let long = "a-principal-name-well-past-the-inline-threshold";
        assert!(long.len() > INLINE_MAX);
        let p = Principal::named(long);
        let q = Principal::from_bytes(long.as_bytes().to_vec());
        assert_eq!(p, q);
        assert_eq!(p.clone().as_bytes(), long.as_bytes());
        assert_eq!(p.to_string(), long);
        let mut set = std::collections::HashSet::new();
        set.insert(p);
        assert!(set.contains(&q));
        // Boundary: exactly INLINE_MAX bytes stays inline and equal.
        let edge = vec![0x42u8; INLINE_MAX];
        assert_eq!(Principal::from_bytes(edge.clone()), Principal::new(&edge));
    }
}
