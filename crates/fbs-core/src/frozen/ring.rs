//! Bounded single-producer/single-consumer rings.
//!
//! `SpscRing` is a bounded FIFO between one producer thread and one
//! consumer thread. It is written in safe Rust — the library crates
//! `forbid(unsafe_code)` — so each slot is a `Mutex<Option<T>>` rather
//! than an `UnsafeCell`. The protocol keeps those locks uncontended:
//!
//! * the producer writes slot `tail % cap` only while `tail - head < cap`;
//! * the consumer reads slot `head % cap` only while `head < tail`;
//! * producer and consumer could only meet on the same slot if
//!   `tail - head ≡ 0 (mod cap)` — i.e. the ring is empty or full, and
//!   both cases are excluded before touching a slot.
//!
//! So every slot acquisition is a single uncontended CAS; the atomics on
//! `head`/`tail` are the real synchronisation (Release on publish,
//! Acquire on observe). Multi-producer or multi-consumer use is a
//! protocol violation but stays memory-safe: the worst outcome is a
//! blocked slot lock, never a torn value.
//!
//! `try_push` returning `Err(item)` means backpressure, nothing else:
//! the ring never sheds, blocks or reorders, and a failed push hands the
//! item back and publishes nothing.
//!
//! Capacity 1 (and capacity 0, which rounds up to 1) is a valid
//! degenerate ring: it alternates strictly between one push and one
//! pop, so every push after the first wraps the single slot — the
//! concurrency tests below exercise exactly that boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bounded SPSC ring of `T` with power-of-two-free capacity (any
/// capacity ≥ 1 works; indices are reduced modulo the slot count).
#[derive(Debug)]
pub struct SpscRing<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Next position the consumer will pop (monotonic).
    head: AtomicUsize,
    /// Next position the producer will push (monotonic).
    tail: AtomicUsize,
}

impl<T> SpscRing<T> {
    /// Create a ring holding at most `capacity` in-flight items.
    ///
    /// A zero capacity is rounded up to 1 so `try_push` can always make
    /// progress once the consumer drains.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = (0..cap).map(|_| Mutex::new(None)).collect();
        Self {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: enqueue `item`, or hand it back when the ring is
    /// full (backpressure — the caller decides whether to spin or park).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            return Err(item);
        }
        let slot = &self.slots[tail % self.slots.len()];
        *slot.lock().expect("spsc slot poisoned") = Some(item);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeue the oldest item, or `None` when empty.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        let item = slot
            .lock()
            .expect("spsc slot poisoned")
            .take()
            .expect("spsc slot published empty");
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let ring = SpscRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.try_push(i).is_ok());
        }
        assert_eq!(ring.try_push(99), Err(99), "full at 4");
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert!(ring.try_pop().is_none(), "empty again");
    }

    #[test]
    fn wraps_across_the_slot_boundary() {
        let ring = SpscRing::with_capacity(2);
        for round in 0..10 {
            assert!(ring.try_push(round * 2).is_ok());
            assert!(ring.try_push(round * 2 + 1).is_ok());
            assert_eq!(ring.try_pop(), Some(round * 2));
            assert_eq!(ring.try_pop(), Some(round * 2 + 1));
        }
    }

    #[test]
    fn zero_capacity_rounds_up_to_one() {
        let ring = SpscRing::with_capacity(0);
        assert!(ring.try_push(7).is_ok());
        assert_eq!(ring.try_push(8), Err(8), "capacity 1");
        assert_eq!(ring.try_pop(), Some(7));
    }

    /// Drive `n` items through a ring from a real producer thread while
    /// the test thread consumes, and assert exact FIFO delivery. With
    /// tiny capacities every slot index wraps thousands of times, so
    /// this hammers the head/tail wraparound and the empty/full
    /// boundary where producer and consumer touch adjacent slots.
    fn concurrent_wraparound(capacity: usize, n: u64) {
        let ring = Arc::new(SpscRing::with_capacity(capacity));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut rejected = 0u64;
                for i in 0..n {
                    let mut item = i;
                    loop {
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                // Backpressure: bounded here only by the
                                // test's liveness (the consumer is known
                                // to drain); real callers must deadline.
                                item = back;
                                rejected += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                rejected
            })
        };
        let mut seen = Vec::with_capacity(n as usize);
        while seen.len() < n as usize {
            match ring.try_pop() {
                Some(v) => seen.push(v),
                None => std::thread::yield_now(),
            }
        }
        let rejected = producer.join().unwrap();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert!(ring.try_pop().is_none());
        // A capacity-1 ring under a faster producer must have exercised
        // the backpressure path; zero rejections would mean the test
        // never hit the boundary it exists to cover. (Not asserted —
        // scheduling-dependent — but kept observable.)
        let _ = rejected;
    }

    #[test]
    fn capacity_one_concurrent_wraparound_is_fifo() {
        concurrent_wraparound(1, 20_000);
    }

    #[test]
    fn zero_capacity_ring_survives_concurrent_wraparound() {
        // with_capacity(0) rounds up to a single slot; the concurrent
        // behaviour must be identical to an explicit capacity of 1.
        concurrent_wraparound(0, 20_000);
    }

    #[test]
    fn cross_thread_handoff_preserves_order() {
        let ring = Arc::new(SpscRing::with_capacity(8));
        let n = 10_000u64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut item = i;
                    loop {
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut seen = Vec::with_capacity(n as usize);
        while seen.len() < n as usize {
            match ring.try_pop() {
                Some(v) => seen.push(v),
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }
}
