//! What a resident flow key really costs the heap. The memory ledgers
//! charge `SealedFlowKey::boxed_bytes(suite)` for every cached
//! `Box<SealedFlowKey>`; this counts the bytes the allocator is actually
//! asked for when one is built, so the charge is checked against the
//! allocator and not only against `size_of` arithmetic.
//!
//! The counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`,
//! so it lives in a test binary of its own (the library crates
//! `forbid(unsafe_code)`), which holds a single test so that no sibling
//! test allocates while it counts.

use fbs_core::{derive_flow_key, EncAlgorithm, FbsConfig, Principal, SealedFlowKey};
use fbs_crypto::CipherSuite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting the bytes every alloc and realloc
/// asks for, and the bytes every dealloc returns.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_sealed_keys_allocation_is_what_the_ledger_charges() {
    let (s, d) = (
        Principal::from_ipv4([10, 0, 0, 1]),
        Principal::from_ipv4([10, 0, 0, 2]),
    );
    // Every suite at its defaults, and the paper suite once more with
    // TDEA, whose schedule `seal_key` builds at derivation time.
    let mut cfgs: Vec<FbsConfig> = CipherSuite::ALL
        .iter()
        .map(|&suite| FbsConfig {
            suite,
            ..FbsConfig::default()
        })
        .collect();
    cfgs.push(FbsConfig {
        suite: CipherSuite::Paper,
        enc_alg: EncAlgorithm::TdeaCbc,
        ..FbsConfig::default()
    });
    for cfg in &cfgs {
        let what = format!("{:?} {:?}", cfg.suite, cfg.enc_alg);
        let key = derive_flow_key(cfg.key_derivation, 7, b"master", &s, &d);
        let allocated = ALLOCATED.load(Ordering::Relaxed);
        let freed = FREED.load(Ordering::Relaxed);
        let sealed = Box::new(cfg.seal_key(key));
        let asked = ALLOCATED.load(Ordering::Relaxed) - allocated;
        let returned = FREED.load(Ordering::Relaxed) - freed;
        let charged = SealedFlowKey::boxed_bytes(cfg.suite) as u64;
        assert_eq!(asked, charged, "{what}: bytes allocated");
        assert_eq!(returned, 0, "{what}: no temporary allocation");
        drop(sealed);
        let returned = FREED.load(Ordering::Relaxed) - freed;
        assert_eq!(returned, charged, "{what}: dropping the key frees it");
    }
    // The AEAD key is its 40 B material and nothing else.
    #[cfg(target_pointer_width = "64")]
    assert_eq!(SealedFlowKey::boxed_bytes(CipherSuite::AeadChaPoly), 40);
}
