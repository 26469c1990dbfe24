//! What a resident flow key really costs the heap. The memory ledgers
//! charge `SealedFlowKey::boxed_bytes` of the profile's suite, MAC and
//! cipher for every cached
//! `Box<SealedFlowKey>`; this counts the allocations and bytes the
//! allocator is actually asked for when one is built, for every profile
//! a config admits, so the charge is checked against the allocator and
//! not only against `size_of` arithmetic.
//!
//! The counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`,
//! so it lives in a test binary of its own (the library crates
//! `forbid(unsafe_code)`), which holds a single test so that no sibling
//! test allocates while it counts.

use fbs_core::{derive_flow_key, EncAlgorithm, FbsConfig, Principal, SealedFlowKey};
use fbs_crypto::{CipherSuite, MacAlgorithm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every alloc and realloc and the
/// bytes each asks for, and the bytes every dealloc returns.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrow hands back the old block and asks for a new one.
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and bytes asked for while `f` runs, and bytes returned.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    let (n, asked, freed) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOCATED.load(Ordering::Relaxed),
        FREED.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - n,
        ALLOCATED.load(Ordering::Relaxed) - asked,
        FREED.load(Ordering::Relaxed) - freed,
    )
}

#[test]
fn a_sealed_keys_allocation_is_what_the_ledger_charges() {
    let (s, d) = (
        Principal::from_ipv4([10, 0, 0, 1]),
        Principal::from_ipv4([10, 0, 0, 2]),
    );
    // Every (suite, cipher, MAC) a config admits. The fast and AEAD
    // suites pick their own cipher, and the AEAD suite its own MAC, so
    // several configs seal the same profile.
    let encs: Vec<EncAlgorithm> = (0..=u8::MAX)
        .filter_map(EncAlgorithm::from_wire_id)
        .collect();
    let macs: Vec<MacAlgorithm> = (0..=u8::MAX)
        .filter_map(MacAlgorithm::from_wire_id)
        .collect();
    let mut profiles = 0;
    for suite in CipherSuite::ALL {
        for &enc_alg in &encs {
            for &mac_alg in &macs {
                let cfg = FbsConfig {
                    suite,
                    enc_alg,
                    mac_alg,
                    ..FbsConfig::default()
                };
                if cfg.validate().is_err() {
                    continue;
                }
                profiles += 1;
                let (enc, mac) = (cfg.suite_enc_alg(), cfg.suite_mac_alg());
                let what = format!("{suite:?} {enc:?} {mac:?}");
                let key = derive_flow_key(cfg.key_derivation, 7, b"master", &s, &d);
                let (sealed, allocs, asked, returned) = counted(|| Box::new(cfg.seal_key(key)));
                let charged = SealedFlowKey::boxed_bytes(suite, mac, enc) as u64;
                assert_eq!(asked, charged, "{what}: bytes allocated");
                assert_eq!(returned, 0, "{what}: no temporary allocation");
                // The key's box, and for a DES suite its material's box,
                // a TDEA schedule's and an HMAC context's.
                let des = suite != CipherSuite::AeadChaPoly;
                let hmac = matches!(mac, MacAlgorithm::HmacMd5 | MacAlgorithm::HmacSha1);
                let expected = 1 + des as u64 * (1 + enc.is_triple() as u64 + hmac as u64);
                assert_eq!(allocs, expected, "{what}: allocations");
                let ((), _, _, returned) = counted(|| drop(sealed));
                assert_eq!(returned, charged, "{what}: dropping the key frees it");
            }
        }
    }
    // Three suites × eight ciphers × five MACs, less Poly1305 under each
    // DES suite and cipher, which `validate` refuses.
    assert_eq!(profiles, 3 * 8 * 5 - 2 * 8);

    #[cfg(target_pointer_width = "64")]
    {
        let bytes = |suite, mac, enc| SealedFlowKey::boxed_bytes(suite, mac, enc);
        // The AEAD key is its 40 B material and nothing else.
        let aead = CipherSuite::AeadChaPoly;
        assert_eq!(
            bytes(aead, MacAlgorithm::Poly1305, EncAlgorithm::ChaCha20),
            40
        );
        // The paper profile (DES, keyed MD5): 40 B and the 168 B of raw
        // key and DES schedule; a TDEA schedule adds 384 B and an HMAC's
        // inner context 176 B.
        let paper = CipherSuite::Paper;
        assert_eq!(
            bytes(paper, MacAlgorithm::KeyedMd5, EncAlgorithm::DesCbc),
            208
        );
        assert_eq!(
            bytes(paper, MacAlgorithm::KeyedSha1, EncAlgorithm::None),
            208
        );
        assert_eq!(
            bytes(paper, MacAlgorithm::KeyedMd5, EncAlgorithm::TdeaCbc),
            592
        );
        assert_eq!(
            bytes(paper, MacAlgorithm::HmacMd5, EncAlgorithm::DesCbc),
            384
        );
        assert_eq!(
            bytes(paper, MacAlgorithm::HmacSha1, EncAlgorithm::TdeaCbc),
            768
        );
    }

    // A single-DES key holds no TDEA schedule, and no frame gives it
    // one: a frame naming TDEA builds its own on the stack (the hooks'
    // `a_forged_tdea_frame_leaves_a_paper_key_as_charged` opens one).
    let cfg = FbsConfig::default();
    let sealed = cfg.seal_key(derive_flow_key(cfg.key_derivation, 7, b"master", &s, &d));
    assert!(sealed.tdea().is_none());
}
