//! Bounded parking queue for datagrams awaiting key material.
//!
//! When a datagram cannot be protected or verified because its flow key
//! is unavailable (MKD outage, directory outage, open circuit breaker),
//! a *park* verdict holds it briefly instead of dropping it outright.
//! Two bounds preserve datagram semantics (§3: security state must
//! never turn datagram service into a blocking one):
//!
//! * **capacity** — a full queue rejects new datagrams (overflow), so
//!   memory use is bounded no matter how long the fault lasts;
//! * **per-datagram deadline** — an entry that waits past its deadline
//!   is dropped on the next [`expire`](ParkingQueue::expire) sweep,
//!   becoming ordinary datagram loss.
//!
//! The queue is FIFO and time-driven via caller-passed microsecond
//! timestamps (no internal clock), so it is deterministic under
//! simulated time. It keeps only its depth and the depth's high-water
//! mark; the owner counts each park, release, expiry, overflow and
//! reject step once, per direction, in its counter block
//! ([`ParkStep`]), records all but a reject as a flight-recorder
//! event, and reads both back as [`ParkStats`].

use fbs_obs::{CounterBlock, Direction, ParkStep};
use std::collections::VecDeque;

/// What the datapath does with a datagram whose flow key is
/// unavailable: the graceful-degradation verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyUnavailableVerdict {
    /// Drop the datagram and surface an error (default: never weaken
    /// security for availability).
    #[default]
    FailClosed,
    /// Let the datagram through unprotected/unverified. Only sound for
    /// flows whose policy demanded integrity opportunistically; never
    /// applied to encrypted traffic.
    FailOpen,
    /// Hold the datagram in a bounded [`ParkingQueue`] and retry when key
    /// material may be back; drop on deadline.
    Park,
}

/// One direction's park/release/expiry ledger: the steps its owners
/// counted and its queues' depth high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkStats {
    /// Datagrams parked.
    pub parked: u64,
    /// Datagrams released for re-processing.
    pub released: u64,
    /// Datagrams dropped on deadline expiry.
    pub expired: u64,
    /// Datagrams rejected because the queue was full.
    pub overflow: u64,
    /// Datagrams a release retry refused for a reason other than a
    /// missing key, and dropped.
    pub rejected: u64,
    /// High-water mark of queue depth.
    pub peak_depth: u64,
}

impl ParkStats {
    /// Read direction `dir`'s steps off `counts`, beside the deepest
    /// its queues have been.
    pub fn read(counts: &CounterBlock, dir: Direction, peak_depth: u64) -> Self {
        let step = |s| counts.park_count(dir, s);
        ParkStats {
            parked: step(ParkStep::Parked),
            released: step(ParkStep::Released),
            expired: step(ParkStep::Expired),
            overflow: step(ParkStep::Overflow),
            rejected: step(ParkStep::Rejected),
            peak_depth,
        }
    }
}

/// One parked item plus its timing envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parked<T> {
    /// The held item.
    pub item: T,
    /// When it was first parked, in clock microseconds (preserved
    /// across re-parks so total waiting time is bounded).
    pub parked_at_us: u64,
    /// Absolute drop deadline, in clock microseconds.
    pub deadline_us: u64,
}

/// A bounded FIFO of items waiting for key material.
#[derive(Debug)]
pub struct ParkingQueue<T> {
    items: VecDeque<Parked<T>>,
    capacity: usize,
    default_ttl_us: u64,
    peak_depth: usize,
}

impl<T> ParkingQueue<T> {
    /// A queue holding at most `capacity` items, each defaulting to a
    /// `default_ttl_us` lifetime from its first park. It owns no buffer
    /// until the first park: most queues never hold a datagram.
    pub fn new(capacity: usize, default_ttl_us: u64) -> Self {
        ParkingQueue {
            items: VecDeque::new(),
            capacity,
            default_ttl_us,
            peak_depth: 0,
        }
    }

    /// Park `item` at `now_us` with the default TTL. On overflow the
    /// item is handed back via `Err` so the caller can count the drop.
    pub fn park(&mut self, item: T, now_us: u64) -> Result<(), T> {
        self.repark(Parked {
            item,
            parked_at_us: now_us,
            deadline_us: now_us.saturating_add(self.default_ttl_us),
        })
    }

    /// Re-park an entry that was released but still cannot proceed,
    /// keeping its original park time and deadline — so an item's total
    /// residency is bounded by its first deadline, not reset each
    /// round. Overflow hands the item back, as [`park`](Self::park)
    /// does.
    pub fn repark(&mut self, entry: Parked<T>) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(entry.item);
        }
        self.items.push_back(entry);
        self.peak_depth = self.peak_depth.max(self.items.len());
        Ok(())
    }

    /// Drop every entry whose deadline has passed, returning how many
    /// expired. Runs as one in-place rotation of the queue — no
    /// allocation ever, which matters because the worker release loops
    /// call this on every pass whether or not anything expired.
    pub fn expire(&mut self, now_us: u64) -> u64 {
        let mut expired = 0;
        for _ in 0..self.items.len() {
            let e = self.items.pop_front().expect("length checked");
            if e.deadline_us > now_us {
                self.items.push_back(e);
            } else {
                expired += 1;
            }
        }
        expired
    }

    /// Remove every entry whose deadline has passed and hand the entries
    /// back (oldest first) so the caller can reclaim what they hold —
    /// pooled payload buffers in particular must go back to their
    /// [`BufferPool`](crate::BufferPool) instead of being dropped.
    ///
    /// Survivors are rotated in place (a full cycle of pop/push within
    /// the ring's existing buffer), so the common nothing-expired call
    /// performs no allocation at all: the returned `Vec` only allocates
    /// once there are expired entries to carry.
    pub fn take_expired(&mut self, now_us: u64) -> Vec<Parked<T>> {
        let mut expired = Vec::new();
        for _ in 0..self.items.len() {
            let e = self.items.pop_front().expect("length checked");
            if e.deadline_us > now_us {
                self.items.push_back(e);
            } else {
                expired.push(e);
            }
        }
        expired
    }

    /// Drain the whole queue (oldest first) for a release attempt. The
    /// caller re-parks entries that still cannot proceed.
    pub fn take_all(&mut self) -> Vec<Parked<T>> {
        self.items.drain(..).collect()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest the queue has been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_park_and_take() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(4, 1_000);
        q.park(1, 0).unwrap();
        q.park(2, 10).unwrap();
        let all = q.take_all();
        assert_eq!(all.iter().map(|e| e.item).collect::<Vec<_>>(), vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.peak_depth(), 2);
    }

    #[test]
    fn a_fresh_queue_owns_no_buffer() {
        let q: ParkingQueue<(u64, Vec<u8>)> = ParkingQueue::new(64, 1_000);
        assert_eq!(q.items.capacity(), 0);
    }

    #[test]
    fn overflow_returns_item_and_counts() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(2, 1_000);
        q.park(1, 0).unwrap();
        q.park(2, 0).unwrap();
        assert_eq!(q.park(3, 0), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_depth(), 2);
    }

    #[test]
    fn expiry_drops_past_deadline_only() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(8, 1_000);
        q.park(1, 0).unwrap(); // deadline 1_000
        q.park(2, 600).unwrap(); // deadline 1_600
        assert_eq!(q.expire(500), 0);
        assert_eq!(q.expire(1_200), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.take_all()[0].item, 2);
    }

    #[test]
    fn repark_preserves_original_deadline() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(8, 1_000);
        q.park(7, 100).unwrap(); // deadline 1_100
        let mut all = q.take_all();
        let entry = all.pop().unwrap();
        q.repark(entry).unwrap();
        // Re-parking at a later time must not extend the lifetime.
        assert_eq!(q.expire(1_200), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn take_expired_returns_entries_and_counts() {
        let mut q: ParkingQueue<Vec<u8>> = ParkingQueue::new(8, 1_000);
        q.park(vec![1], 0).unwrap(); // deadline 1_000
        q.park(vec![2], 100).unwrap(); // deadline 1_100
        q.park(vec![3], 900).unwrap(); // deadline 1_900
        let expired = q.take_expired(1_100);
        assert_eq!(
            expired.iter().map(|e| e.item.clone()).collect::<Vec<_>>(),
            vec![vec![1], vec![2]],
            "oldest first, entries handed back for buffer reclamation"
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn expire_never_allocates_and_preserves_order() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(16, 1_000);
        for i in 0..10u32 {
            q.park(i, i as u64 * 100).unwrap(); // deadlines 1_000..1_900
        }
        // The ring buffer must be rotated in place: its backing
        // allocation (identified by its capacity) may never be replaced
        // by expire/take_expired, no matter how often they run or how
        // many entries they drop.
        let buf_cap = q.items.capacity();
        for now in [0u64, 500, 999] {
            assert_eq!(q.expire(now), 0);
            assert_eq!(q.items.capacity(), buf_cap, "no-expiry pass reallocated");
        }
        // A no-expiry take_expired hands back a Vec that never allocated.
        let none = q.take_expired(999);
        assert!(none.is_empty());
        assert_eq!(none.capacity(), 0, "empty result must not allocate");
        assert_eq!(q.items.capacity(), buf_cap);
        // Partial expiry keeps survivor order and the same buffer.
        assert_eq!(q.expire(1_450), 5);
        assert_eq!(q.items.capacity(), buf_cap, "expiry pass reallocated");
        let survivors: Vec<u32> = q.take_all().into_iter().map(|e| e.item).collect();
        assert_eq!(survivors, vec![5, 6, 7, 8, 9], "oldest-first order kept");
    }

    #[test]
    fn a_repark_keeps_the_first_park_time_and_the_peak_depth() {
        let mut q: ParkingQueue<u32> = ParkingQueue::new(2, 10_000);
        q.park(1, 500).unwrap();
        q.park(2, 600).unwrap();
        let mut all = q.take_all();
        assert_eq!(q.peak_depth(), 2);
        q.repark(all.remove(0)).unwrap();
        assert_eq!(q.take_all()[0].parked_at_us, 500);
        assert_eq!(
            q.peak_depth(),
            2,
            "a drained queue keeps its high-water mark"
        );
    }
}
