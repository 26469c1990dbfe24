//! Concurrency primitives for the sharded endpoint: read-mostly config
//! snapshots, a sharded wrapper over [`SoftCache`], and the shared
//! keying service that serialises MKD upcalls without serialising the
//! datagram path.
//!
//! The paper's scaling argument (§5.3, §7) is that per-flow soft state
//! lets datagram security keep up with traffic; this module supplies
//! the pieces that let that state go *concurrent* — each shard of flow
//! state behind its own small lock, with the expensive shared resources
//! (master keys, the MKD's modular exponentiation) behind a separate,
//! rarely-contended service.
//!
//! # Lock-ordering rules
//!
//! 1. Flow state sits outside the [`KeyingService`] and is locked
//!    outermost: `fbs-ip`'s hooks keep it in shards behind their
//!    owner's lock (owner `w` of `W` holds shards `{si : si % W == w}`,
//!    and the caller runs its batch in place under that lock, with its
//!    own buffer pool; a caller holds at most ONE owner lock at a
//!    time), and an [`FbsEndpoint`](crate::FbsEndpoint) keeps it behind
//!    its `&mut self`. A key derivation on a miss
//!    ([`KeyingService::derive`], the one derive both engines call)
//!    runs under that outer lock and takes only the service's locks
//!    below; the hooks reserve the sfl before the derive so a failure
//!    burns it (sfls are never reused).
//! 2. Inside [`KeyingService`], the order is `mkd` lock → MKC shard
//!    lock. The fast path touches only an MKC shard lock and releases
//!    it before any `mkd` acquisition, so no cycle exists.
//! 3. [`Published`] reads/writes nest inside anything (leaf lock, held
//!    only for an `Arc` clone or swap).

use crate::cache::{CacheStats, SoftCache};
use crate::error::Result;
use crate::keying::{derive_flow_key, SealedFlowKey};
use crate::mkd::{MasterKeyDaemon, MkdStats};
use crate::principal::Principal;
use crate::protocol::FlowCodec;
use fbs_crypto::crc32;
use fbs_obs::{CacheKind, Counter, CounterBlock, Histogram, MetricsRegistry, Stage, StageTimer};
use parking_lot::Mutex;
use std::sync::Arc;

/// A read-mostly value published as an `Arc` snapshot: readers pay one
/// refcount bump (no writer can block them for longer than the swap),
/// writers swap in a whole new snapshot. Readers that loaded the old
/// `Arc` keep a consistent view until they drop it — exactly the
/// semantics wanted for endpoint config/policy, which must be coherent
/// *per datagram*, not per field.
///
/// Built on `std::sync::RwLock` (the vendored `parking_lot` exposes
/// only `Mutex`); the critical sections are a clone and a store, so the
/// lock is never held across user code. Poisoning is absorbed — an
/// `Arc` clone/swap cannot leave the value torn.
#[derive(Debug)]
pub struct Published<T> {
    inner: std::sync::RwLock<Arc<T>>,
}

impl<T> Published<T> {
    /// Publish an initial value.
    pub fn new(value: T) -> Self {
        Published {
            inner: std::sync::RwLock::new(Arc::new(value)),
        }
    }

    /// Load the current snapshot.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swap in a new snapshot. In-flight readers keep the old one.
    pub fn store(&self, value: Arc<T>) {
        *self.inner.write().unwrap_or_else(|e| e.into_inner()) = value;
    }
}

/// A sharded, internally-locked wrapper over [`SoftCache`]: N inner
/// caches (N rounded up to a power of two), each behind its own small
/// mutex and counting under one [`CacheKind`] into its own block, which
/// only that mutex's holder writes. `stats()` sums the blocks lock-free,
/// with the usual coherence invariant (`hits + misses == lookups`).
///
/// The shard index uses the *upper* bits of the same hash the inner
/// caches use for their set index (`(hash >> 16) & mask`), so sharding
/// stays decorrelated from set selection: keys that would collide in
/// one cache's set do not all land in one shard, and vice versa.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<SoftCache<K, V>>>,
    /// Shard `i`'s block, written under `shards[i]`'s mutex.
    blocks: Vec<Arc<CounterBlock>>,
    mask: u32,
    hash: Arc<dyn Fn(&K) -> u32 + Send + Sync>,
    kind: CacheKind,
}

impl<K: Eq + std::hash::Hash + Clone + 'static, V: Clone> ShardedCache<K, V> {
    /// `num_shards` (rounded up to a power of two, min 1) inner caches,
    /// each of `num_sets × assoc` geometry, indexed by `hash`, counting
    /// under `kind`.
    pub fn new(
        num_shards: usize,
        num_sets: usize,
        assoc: usize,
        kind: CacheKind,
        hash: impl Fn(&K) -> u32 + Send + Sync + 'static,
    ) -> Self {
        let n = num_shards.max(1).next_power_of_two();
        let hash: Arc<dyn Fn(&K) -> u32 + Send + Sync> = Arc::new(hash);
        let blocks: Vec<Arc<CounterBlock>> = (0..n).map(|_| Arc::default()).collect();
        let shards = blocks
            .iter()
            .map(|block| {
                let h = Arc::clone(&hash);
                let cache = SoftCache::new(num_sets, assoc, move |k: &K| h(k))
                    .with_counts(Arc::clone(block), kind);
                Mutex::new(cache)
            })
            .collect();
        ShardedCache {
            shards,
            blocks,
            mask: (n - 1) as u32,
            hash,
            kind,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<SoftCache<K, V>> {
        let idx = ((self.hash)(key) >> 16) & self.mask;
        &self.shards[idx as usize]
    }

    /// Look up `key` (one shard lock).
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().get(key)
    }

    /// Insert `key → value` (one shard lock).
    pub fn insert(&self, key: K, value: V) -> Option<(K, V)> {
        self.shard(&key).lock().insert(key, value)
    }

    /// Remove `key` if present (one shard lock).
    pub fn invalidate(&self, key: &K) -> Option<V> {
        self.shard(key).lock().invalidate(key)
    }

    /// Drop every entry in every shard.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Aggregate statistics across all shards — lock-free.
    pub fn stats(&self) -> CacheStats {
        CounterBlock::sum(self.blocks.iter().map(|b| &**b)).cache(self.kind)
    }

    /// The shards' blocks, one per shard mutex.
    pub(crate) fn blocks(&self) -> &[Arc<CounterBlock>] {
        &self.blocks
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live entries (locks each shard briefly; control-plane use).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The keying service of both FBS engines: the master key cache
/// (sharded, lock-free stats) in front of the one [`MasterKeyDaemon`]
/// (its own mutex — upcalls are rare and expensive, §5.3's whole
/// point), and the one flow-key [`derive`](Self::derive). The daemon
/// counts into its own block under the `mkd` mutex, each MKC shard into
/// its own under its mutex. An [`FbsEndpoint`](crate::FbsEndpoint) holds
/// a one-shard service; `fbs-ip`'s hooks share one across their shard
/// owners, which derive under their owner lock, the outermost
/// (lock-ordering rule 1).
///
/// A double-checked MKC probe under the `mkd` lock guarantees at most
/// one upcall per peer even when several shards miss the same peer
/// concurrently — the paper's amortisation argument would be defeated
/// by a thundering herd of modular exponentiations.
pub struct KeyingService {
    mkc: ShardedCache<Principal, Arc<[u8]>>,
    mkd: Mutex<MasterKeyDaemon>,
    /// The daemon's block, read without its mutex.
    mkd_counts: Arc<CounterBlock>,
}

impl KeyingService {
    /// Wrap `mkd` behind an MKC of `mkc_slots` direct-mapped slots,
    /// sharded `mkc_shards` ways.
    pub fn new(mkd: MasterKeyDaemon, mkc_slots: usize, mkc_shards: usize) -> Self {
        KeyingService {
            mkc: ShardedCache::new(mkc_shards, mkc_slots, 1, CacheKind::Mkc, |p: &Principal| {
                crc32(p.as_bytes())
            }),
            mkd_counts: Arc::clone(mkd.counts()),
            mkd: Mutex::new(mkd),
        }
    }

    /// Attach a metrics registry: it reads the service's blocks (the
    /// MKD's and each MKC shard's), and the daemon emits its
    /// retry/breaker events into it.
    pub fn attach_obs(&self, registry: Arc<MetricsRegistry>) {
        for block in self.mkc.blocks() {
            registry.attach(Arc::clone(block));
        }
        self.mkd.lock().set_obs(registry);
    }

    /// Every block the service counts into: the MKD's, then each MKC
    /// shard's.
    pub fn blocks(&self) -> impl Iterator<Item = &Arc<CounterBlock>> {
        std::iter::once(&self.mkd_counts).chain(self.mkc.blocks())
    }

    /// Pair master key via the MKC, upcalling the MKD on a miss
    /// (Fig. 6). Thread-safe; at most one upcall per peer under races.
    /// Every caller shares the one cached copy: a hit is a refcount bump.
    fn master_key(&self, peer: &Principal) -> Result<Arc<[u8]>> {
        if let Some(k) = self.mkc.get(peer) {
            return Ok(k);
        }
        // Miss: take the MKD lock, then re-probe the MKC — a racing
        // thread may have completed the upcall while we waited. Lock
        // order is mkd → mkc-shard (rule 2); the fast path above
        // released its mkc-shard lock before we got here.
        let mut mkd = self.mkd.lock();
        if let Some(k) = self.mkc.get(peer) {
            return Ok(k);
        }
        let k: Arc<[u8]> = mkd.master_key(peer)?.into();
        self.mkc.insert(peer.clone(), Arc::clone(&k));
        Ok(k)
    }

    /// Zero-message derivation (§5.2) of flow `sfl`'s key between
    /// `codec`'s local principal and `peer` (local → peer when
    /// `outbound`), sealed with the material `codec`'s suite reads so
    /// the per-datagram path never initialises lazily. The whole miss
    /// path — MKC probe, at most one MKD upcall, hash, seal — is one key
    /// derivation: a count of `endpoint.key_derivations` in `codec`'s
    /// block (its caller is that block's one writer), and a
    /// `key_derivation_us` sample and a [`Stage::KeyDerive`] span in
    /// `codec`'s registry, if it has one.
    pub fn derive(
        &self,
        codec: &FlowCodec,
        sfl: u64,
        peer: &Principal,
        outbound: bool,
    ) -> Result<SealedFlowKey> {
        let obs = codec.obs();
        let t0 = obs.map(|_| (codec.clock().now_micros(), StageTimer::start()));
        let master = self.master_key(peer)?;
        let local = codec.local();
        let (src, dst) = if outbound {
            (local, peer)
        } else {
            (peer, local)
        };
        let cfg = codec.config();
        let k = cfg.seal_key(derive_flow_key(cfg.key_derivation, sfl, &master, src, dst));
        codec.counts().incr(Counter::KeyDerivations);
        if let (Some(reg), Some((t0, timer))) = (obs, t0) {
            reg.observe(
                Histogram::KeyDerivationMicros,
                codec.clock().now_micros().saturating_sub(t0),
            );
            reg.observe_stage(Stage::KeyDerive, timer.elapsed_ns());
        }
        Ok(k)
    }

    /// Would an upcall for `peer` fail fast right now? Takes the `mkd`
    /// lock briefly (pure read; release loops call this between shard
    /// locks, never inside one).
    pub fn would_fast_fail(&self, peer: &Principal) -> bool {
        self.mkd.lock().would_fast_fail(peer)
    }

    /// The peer's circuit-breaker state (brief `mkd` lock).
    pub fn breaker_state(&self, peer: &Principal) -> Option<crate::breaker::BreakerState> {
        self.mkd.lock().breaker_state(peer)
    }

    /// Invalidate the cached master key for `peer` (rekey).
    pub fn forget_peer(&self, peer: &Principal) {
        self.mkc.invalidate(peer);
    }

    /// MKC statistics — lock-free.
    pub fn mkc_stats(&self) -> CacheStats {
        self.mkc.stats()
    }

    /// MKD statistics — lock-free.
    pub fn mkd_stats(&self) -> MkdStats {
        MkdStats::read(&self.mkd_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkd::PinnedDirectory;
    use fbs_crypto::dh::{DhGroup, PrivateValue};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn published_snapshot_swap() {
        let p = Published::new(41u32);
        let old = p.load();
        p.store(Arc::new(42));
        assert_eq!(*old, 41, "in-flight reader keeps its snapshot");
        assert_eq!(*p.load(), 42);
    }

    #[test]
    fn sharded_cache_roundtrip_and_shared_stats() {
        let c: ShardedCache<u64, u64> =
            ShardedCache::new(4, 8, 1, CacheKind::Mkc, |k: &u64| crc32(&k.to_be_bytes()));
        assert_eq!(c.num_shards(), 4);
        for k in 0..32u64 {
            assert_eq!(c.get(&k), None);
            c.insert(k, k * 10);
        }
        for k in 0..32u64 {
            assert_eq!(c.get(&k), Some(k * 10), "key {k}");
        }
        let s = c.stats();
        assert_eq!(s.hits, 32);
        assert_eq!(s.misses(), 32);
        assert_eq!(s.insertions, 32);
        assert_eq!(s.lookups(), s.hits + s.misses(), "coherence");
        assert_eq!(c.len(), 32);
        c.invalidate(&0);
        assert_eq!(c.len(), 31);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_cache_rounds_shards_to_power_of_two() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(3, 4, 1, CacheKind::Mkc, |_| 0);
        assert_eq!(c.num_shards(), 4);
        let c: ShardedCache<u64, u64> = ShardedCache::new(0, 4, 1, CacheKind::Mkc, |_| 0);
        assert_eq!(c.num_shards(), 1);
    }

    /// A directory that counts fetches, to prove single-upcall-per-peer.
    struct CountingSource {
        inner: PinnedDirectory,
        fetches: Arc<AtomicU64>,
    }

    impl crate::mkd::PublicValueSource for CountingSource {
        fn fetch(&self, p: &Principal) -> Result<fbs_crypto::dh::PublicValue> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            self.inner.fetch(p)
        }
    }

    fn service_with_peer() -> (KeyingService, Principal, Arc<AtomicU64>) {
        let group = DhGroup::test_group();
        let s_priv = PrivateValue::from_entropy(group.clone(), b"source-entropy-bytes");
        let d_priv = PrivateValue::from_entropy(group, b"dest-entropy-bytes!!");
        let d = Principal::named("D");
        let mut dir = PinnedDirectory::new();
        dir.pin(d.clone(), d_priv.public_value());
        let fetches = Arc::new(AtomicU64::new(0));
        let source = CountingSource {
            inner: dir,
            fetches: Arc::clone(&fetches),
        };
        let svc = KeyingService::new(MasterKeyDaemon::new(s_priv, Box::new(source)), 32, 4);
        (svc, d, fetches)
    }

    #[test]
    fn keying_service_amortises_upcalls() {
        let (svc, d, fetches) = service_with_peer();
        let k1 = svc.master_key(&d).unwrap();
        let k2 = svc.master_key(&d).unwrap();
        assert!(Arc::ptr_eq(&k1, &k2), "a hit shares the cached key");
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one upcall, then MKC");
        assert_eq!(svc.mkd_stats().upcalls, 1);
        assert_eq!(svc.mkc_stats().hits, 1);
        svc.forget_peer(&d);
        svc.master_key(&d).unwrap();
        assert_eq!(fetches.load(Ordering::SeqCst), 2, "rekey forces re-fetch");
    }

    #[test]
    fn keying_service_single_upcall_under_contention() {
        let (svc, d, fetches) = service_with_peer();
        let svc = Arc::new(svc);
        let keys: Vec<Arc<[u8]>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let d = d.clone();
                    scope.spawn(move || svc.master_key(&d).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "one key for all");
        assert_eq!(
            fetches.load(Ordering::SeqCst),
            1,
            "double-checked MKC probe collapses the thundering herd"
        );
        let s = svc.mkc_stats();
        assert_eq!(s.lookups(), s.hits + s.misses(), "coherence");
    }

    #[test]
    fn keying_service_failure_counts() {
        let (svc, _, _) = service_with_peer();
        let stranger = Principal::named("stranger");
        assert!(svc.master_key(&stranger).is_err());
        assert_eq!(svc.mkd_stats().failures, 1);
        // Failures are not cached: a second attempt upcalls again.
        assert!(svc.master_key(&stranger).is_err());
        assert_eq!(svc.mkd_stats().upcalls, 2);
    }
}
