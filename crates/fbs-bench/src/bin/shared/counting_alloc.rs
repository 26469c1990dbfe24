//! The counting `#[global_allocator]` of `e2e_bench` and
//! `scale_bench`, which include this file with `#[path]`. It needs
//! `unsafe impl GlobalAlloc`, so it stays out of the library crates,
//! which `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every alloc and realloc across all
/// threads.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrow is one allocation: it may move and copy the block.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far, on every thread.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The positive control: one boxed allocation must move the counter.
/// A counter that does not would pass every 0-allocation gate, so
/// `binary` exits 1 here, before it measures or writes anything.
pub fn check_counting(binary: &str) {
    let before = allocs();
    std::hint::black_box(Box::new(0u64));
    if allocs() == before {
        eprintln!("{binary}: the counting allocator missed a boxed allocation");
        std::process::exit(1);
    }
}
