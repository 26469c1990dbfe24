//! Everything that touches one datagram: a [`Shard`]'s flow state, the
//! §7.2 protect path and the verify path, the verdict wrappers that
//! apply the degradation policy, and the park release loop. Nothing
//! here knows who runs it or how datagrams arrive — the runtime hands
//! in a [`Pass`] and the caller's [`BufferPool`], which whoever holds
//! the owner lock may use directly.

use super::config::IpMappingConfig;
use super::{HookShared, Settings};
use crate::combined::{insert_hashed_key, CombinedFst};
use crate::policy::FiveTuplePolicy;
use crate::tuple::FiveTuple;
use fbs_core::header::HeaderView;
use fbs_core::{
    flow_key_hash_parts, BudgetKind, BufferPool, FbsConfig, FbsError, FlowCodec,
    KeyUnavailableVerdict, Parked, ParkingQueue, Principal, SealedFlowKey, SflAllocator, SoftCache,
};
use fbs_crypto::CipherSuite;
use fbs_net::ip::{Ipv4Addr, Proto};
use fbs_net::{HookOutcome, Ipv4Header, RejectReason};
use fbs_obs::{
    CacheKind, Counter, CounterBlock, Direction, Event, MetricsRegistry, ParkStep, SpanKind, Stage,
    StageTimer, TraceSpan,
};
use std::sync::Arc;

/// Multiplier decorrelating per-shard confounder seeds (golden-ratio
/// constant; shard 0 keeps the endpoint's original seed).
const SHARD_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixed into rebuilt shards' sfl-allocator salt and confounder seed on
/// every supervised respawn, so a respawned shard never re-issues sfls
/// or confounder bytes from its previous life.
const GENERATION_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// A receive flow key's cache id: the wire sfl's big-endian bytes and
/// the source address. The destination principal of every entry is the
/// host's own, so the id leaves it implicit and [`rfkc_hash`] puts it
/// back. Byte-aligned, 12 bytes: beside the entry's `Box` and 4-byte
/// LRU tick it fills a 24-byte entry with no padding.
pub(super) type RxKeyId = ([u8; 8], Ipv4Addr);

/// The RFKC id of a datagram carrying `sfl` from `source`.
pub(super) fn rx_key_id(sfl: u64, source: Ipv4Addr) -> RxKeyId {
    (sfl.to_be_bytes(), source)
}

/// The RFKC index hash: [`flow_key_hash_parts`] of the full
/// `(sfl, source, local)` id, the one `FbsEndpoint`'s RFKC gives a flow
/// from `source`.
pub(super) fn rfkc_hash(local: Principal) -> impl Fn(&RxKeyId) -> u32 + Send + Sync + 'static {
    move |&(sfl, src)| flow_key_hash_parts(u64::from_be_bytes(sfl), &src, local.as_bytes())
}

/// Resident bytes per receive flow-key cache entry under `fbs`, charged
/// against the shard's [`MemoryBudget`]: the RFKC slot
/// ([`SoftCache::SLOT_BYTES`]: control byte plus the [`RxKeyId`], value
/// `Box` and LRU tick of its entry) plus what the `Box` owns — the
/// suite's key material and, for the DES suites, the boxed schedules
/// and MAC context the profile's (suite, cipher, MAC) seals
/// ([`SealedFlowKey::boxed_bytes`]). Allocator rounding is not counted:
/// the budget bounds steady-state residency, it is not an allocator.
pub(super) fn flow_key_entry_bytes(fbs: &FbsConfig) -> u64 {
    let key = SealedFlowKey::boxed_bytes(fbs.suite, fbs.suite_mac_alg(), fbs.suite_enc_alg());
    (SoftCache::<RxKeyId, Box<SealedFlowKey>>::SLOT_BYTES + key) as u64
}

/// Bytes one shard's combined table reserves: its `fst_size` slots, as
/// resident once flows have touched every chunk. The chunks are
/// allocated on first use, so this is a reservation, charged up front
/// under [`BudgetKind::Fam`] so the budget's ceiling still bounds a
/// table that fills. The keys occupied slots point at are not charged
/// (DESIGN.md, "Memory & Scale").
pub(super) fn fst_static_bytes(fst_size: usize) -> u64 {
    (fst_size * CombinedFst::SLOT_BYTES) as u64
}

/// One shard's slice of the mutable flow state, reachable only through
/// its owner's lock (`HookShared::owners`). Every counter inside writes
/// that owner's block in [`HookShared`].
pub(super) struct Shard {
    /// Seal/open engine with this shard's confounder stream.
    codec: FlowCodec,
    /// The §7.2 send path: flow association and the transmit flow key
    /// in one table, one probe per datagram.
    pub(super) combined: CombinedFst,
    /// Receive flow key cache slice for sfls ≡ shard index (mod N).
    pub(super) rfkc: SoftCache<RxKeyId, Box<SealedFlowKey>>,
    /// Output datagrams awaiting key derivation: (header, plaintext).
    pub(super) out_park: ParkingQueue<(Ipv4Header, Vec<u8>)>,
    /// Input datagrams awaiting key derivation: (header, wire payload).
    pub(super) in_park: ParkingQueue<(Ipv4Header, Vec<u8>)>,
}

impl Shard {
    /// The parking queue for `dir`.
    pub(super) fn park(&mut self, dir: Direction) -> &mut ParkingQueue<(Ipv4Header, Vec<u8>)> {
        match dir {
            Direction::Output => &mut self.out_park,
            Direction::Input => &mut self.in_park,
        }
    }
}

impl HookShared {
    /// Build shard `si` from scratch. `generation` 0 reproduces the
    /// construction-time shards exactly; a respawned worker bumps it so
    /// rebuilt confounder streams and sfl ranges cannot collide with
    /// anything issued before the panic. The generation salt multiplies
    /// into the stride base, so `sfl % n_shards == si` still holds — the
    /// receive-side partition stays consistent across respawns.
    pub(super) fn build_shard(&self, si: usize, generation: u64) -> Shard {
        let settings = self.settings.snapshot();
        let cfg = &settings.get().cfg;
        let counts = &self.blocks[si % self.n_workers];
        let n = self.n_shards as u64;
        let salt = self
            .sfl_seed
            .wrapping_add(generation.wrapping_mul(0x9E37_79B9));
        let stride_base = salt.wrapping_mul(n).wrapping_add(si as u64);
        let codec = FlowCodec::new(
            self.local.clone(),
            self.fbs.clone(),
            Arc::clone(&self.clock),
            self.codec_seed
                ^ (si as u64).wrapping_mul(SHARD_SEED_MIX)
                ^ generation.wrapping_mul(GENERATION_MIX),
        )
        .with_counts(Arc::clone(counts));
        let combined = CombinedFst::new(
            cfg.fst_size,
            FiveTuplePolicy::new(cfg.threshold_secs),
            SflAllocator::with_stride(stride_base, n),
        )
        .with_counts(Arc::clone(counts));
        let mut rfkc = SoftCache::new(
            self.fbs.rfkc_sets,
            self.fbs.rfkc_assoc,
            rfkc_hash(self.local.clone()),
        )
        .with_counts(Arc::clone(counts), CacheKind::Rfkc);
        // The shard enforces its own budget: reset the (possibly
        // carried-over) ledger, reserve the FST's full footprint, and
        // attach the key cache so it evicts before allocating past it.
        let budget = self.budgets[si].clone();
        budget.reset();
        budget.charge(BudgetKind::Fam, fst_static_bytes(cfg.fst_size));
        rfkc.set_budget(budget, BudgetKind::Rfkc, flow_key_entry_bytes(&self.fbs));
        Shard {
            codec,
            combined,
            rfkc,
            out_park: ParkingQueue::new(cfg.park_capacity, cfg.park_deadline_us),
            in_park: ParkingQueue::new(cfg.park_capacity, cfg.park_deadline_us),
        }
    }
}

/// Cascade a metrics registry into one shard (used both by the
/// AttachObs control message and by post-panic shard rebuilds). Only the
/// codec holds it, for its size histograms and key derivations: the
/// combined table and the RFKC count into the owner's block, which
/// `attach_obs` attached.
pub(super) fn cascade_obs(shard: &mut Shard, reg: &Arc<MetricsRegistry>) {
    shard.codec.set_obs(Arc::clone(reg));
}

/// Record a flow-trace span when a tracer is attached AND sampling
/// selects the flow, stamped with `t_us()`, which runs only then. The
/// untraced path costs one `Option` check plus one atomic load; an
/// unsampled flow adds a hash of its sfl — no clock read, no locking,
/// no allocation.
fn trace_span(
    obs: &Option<Arc<MetricsRegistry>>,
    sfl: u64,
    host: [u8; 4],
    kind: SpanKind,
    t_us: impl FnOnce() -> u64,
    info: u64,
) {
    if let Some(tracer) = obs.as_ref().and_then(|reg| reg.tracer()) {
        if tracer.sampled(sfl) {
            tracer.record(TraceSpan {
                sfl,
                host: u32::from_be_bytes(host),
                kind,
                t_us: t_us(),
                info,
            });
        }
    }
}

/// The wire sfl: the first 8 big-endian payload bytes of a framed
/// datagram (the same prefix `rx_shard` partitions by).
fn wire_sfl(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
}

/// The policy's key-unavailable verdict, downgraded to fail-closed when
/// fail-open would leak traffic configured for confidentiality.
fn degrade_verdict(cfg: &IpMappingConfig) -> KeyUnavailableVerdict {
    if cfg.encrypt && cfg.key_unavailable == KeyUnavailableVerdict::FailOpen {
        KeyUnavailableVerdict::FailClosed
    } else {
        cfg.key_unavailable
    }
}

/// The outgoing datagram's flow identity. `None` = a transport datagram
/// too short for 5-tuple extraction (rejected later as malformed).
fn tuple_for(header: &Ipv4Header, payload: &[u8]) -> Option<FiveTuple> {
    let is_transport = matches!(Proto::from_number(header.proto), Proto::Mrt | Proto::Udp);
    if is_transport {
        FiveTuple::extract(header.proto, header.src, header.dst, payload)
    } else {
        // Footnote-10 extension: raw IP forms host-level flows — the
        // "5-tuple" degenerates to (proto, saddr, daddr).
        Some(FiveTuple {
            proto: header.proto,
            saddr: header.src,
            sport: 0,
            daddr: header.dst,
            dport: 0,
        })
    }
}

/// An output datagram's 5-tuple and its Fig. 7 CRC-32
/// ([`FiveTuplePolicy::crc`]), hashed once: the transmit partition
/// ([`tx_shard`]) and the combined-table probe
/// ([`Fst::probe_hashed`](fbs_core::Fst::probe_hashed)) both read it.
pub(super) fn hashed_tuple(header: &Ipv4Header, payload: &[u8]) -> Option<(FiveTuple, u32)> {
    tuple_for(header, payload).map(|t| (t, FiveTuplePolicy::crc(&t)))
}

/// Transmit shard: derived from the tuple's CRC like the tables' slot
/// indices, but from the HIGH bits — the tables reduce the crc mod their
/// size (low bits), and taking the shard from the same low bits would
/// leave each shard's tuples able to reach only `1/N` of its full-size
/// table. Extraction failures (no CRC) go to shard 0; they only touch
/// shared counters on their reject path.
pub(super) fn tx_shard(n: usize, crc: Option<u32>) -> usize {
    crc.map_or(0, |crc| (crc >> 16) as usize & (n - 1))
}

/// Receive shard: the wire sfl (first 8 payload bytes, big-endian) mod
/// the shard count — the transmit side's strided allocators guarantee
/// `sfl % N` IS the owning shard there, and any consistent partition
/// works here. Short payloads go to shard 0 and fail header parsing.
pub(super) fn rx_shard(n: usize, payload: &[u8]) -> usize {
    wire_sfl(payload).map_or(0, |sfl| sfl as usize & (n - 1))
}

/// What every per-datagram function reads, built once per supervised
/// pass (or release) by the owning worker: the shared runtime state,
/// the owner's counter block, the configuration and registry handle of
/// the settings the caller's batch read at its start, and the caller's
/// virtual time.
pub(super) struct Pass<'a> {
    pub(super) shared: &'a HookShared,
    /// The running owner's block: only its lock holder writes it.
    pub(super) counts: &'a CounterBlock,
    pub(super) cfg: &'a IpMappingConfig,
    pub(super) obs: &'a Option<Arc<MetricsRegistry>>,
    pub(super) now_us: u64,
}

impl Pass<'_> {
    /// A flow-trace span stamped with this pass's virtual time.
    fn span(&self, sfl: u64, host: [u8; 4], kind: SpanKind, info: u64) {
        trace_span(self.obs, sfl, host, kind, || self.now_us, info);
    }

    /// Mark a park-lifecycle step in the flow trace. A parked *input*
    /// datagram carries its wire sfl, so the mark is a span (`kind`) on
    /// that flow; an *output* park has no flow identity yet (keying
    /// failed before an sfl could resolve), so it is a global `note`.
    fn trace_park(
        &self,
        dir: Direction,
        header: &Ipv4Header,
        sfl: Option<u64>,
        kind: SpanKind,
        note: &'static str,
        info: u64,
    ) {
        match (dir, sfl) {
            (Direction::Output, _) => {
                if let Some(tracer) = self.obs.as_ref().and_then(|reg| reg.tracer()) {
                    tracer.annotate(note, "output", self.now_us, info);
                }
            }
            (Direction::Input, Some(sfl)) => self.span(sfl, header.dst, kind, info),
            (Direction::Input, None) => {}
        }
    }
}

/// The §7.2 protect path, with no verdict handling: classify the datagram
/// into a flow with one combined-table probe, and seal the borrowed
/// plaintext into a pool buffer (fixing up `header`'s length on success)
/// under the key the table lends. A miss reserves the sfl, derives via
/// [`KeyingService::derive`](fbs_core::KeyingService::derive), and
/// installs unconditionally — the owner is the shard's only writer, so
/// there is no racing insert to re-check for (a failed derivation burns
/// the reserved sfl). The caller keeps ownership
/// of the original bytes, so no snapshot copy is ever needed for
/// park/fail-open fallbacks.
fn protect(
    pass: &Pass<'_>,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: &[u8],
    tuple: Option<(FiveTuple, u32)>,
    pool: &mut BufferPool,
) -> Result<Vec<u8>, FbsError> {
    let Pass {
        shared, cfg, obs, ..
    } = *pass;
    let Some((tuple, crc)) = tuple else {
        return Err(FbsError::MalformedHeader("payload too short for 5-tuple"));
    };
    let Shard {
        codec, combined, ..
    } = shard;
    let now_secs = pass.now_us / 1_000_000;
    let (sfl, key) = match combined.probe_hashed(crc, &tuple, now_secs) {
        Some((sfl, key)) => (sfl, &**key),
        None => {
            let sfl = combined.reserve_sfl();
            let destination = Principal::from_ipv4(header.dst);
            let key = shared.keying.derive(codec, sfl, &destination, true)?;
            (
                sfl,
                insert_hashed_key(combined, crc, tuple, sfl, key, now_secs),
            )
        }
    };
    pass.span(sfl, header.src, SpanKind::Classify, payload.len() as u64);
    let mut out = pool.take();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    match codec.seal_with_key_into(sfl, key, payload, cfg.encrypt, &mut out) {
        Ok(()) => {
            if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                reg.observe_stage(Stage::Seal, timer.elapsed_ns());
            }
            pass.counts
                .incr(suite_counter(shared.fbs.suite, Direction::Output));
            pass.span(sfl, header.src, SpanKind::Seal, out.len() as u64);
            let delta = out.len() as isize - payload.len() as isize;
            header.grow_payload(delta);
            Ok(out)
        }
        Err(e) => {
            pool.put(out);
            Err(e)
        }
    }
}

/// The verify path, with no verdict handling: parse the FBS framing,
/// then run the codec's receive-miss rule
/// ([`FlowCodec::open_cached`]) over the shard's RFKC — freshness, the
/// probe, a derive on a miss, and the key cached only once the MAC
/// verifies, so a forged birth leaves the RFKC as it was. The borrowed
/// wire payload is recovered into a pool buffer, drawn only once a key
/// is at hand and returned on a failed open; `header`'s length is fixed
/// up on success.
fn verify(
    pass: &Pass<'_>,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: &[u8],
    pool: &mut BufferPool,
) -> Result<Vec<u8>, FbsError> {
    let Pass { shared, obs, .. } = *pass;
    let Shard { codec, rfkc, .. } = shard;
    let (view, used) = HeaderView::parse(payload)?;
    let body = codec.open_cached(
        rfkc,
        rx_key_id(view.sfl, header.src),
        view.timestamp,
        || {
            let source = Principal::from_ipv4(header.src);
            shared.keying.derive(codec, view.sfl, &source, false)
        },
        |key| {
            let mut body = pool.take();
            let timer = obs.as_ref().map(|_| StageTimer::start());
            match codec.open_with_key_into(&view, key, &payload[used..], &mut body) {
                Ok(()) => {
                    if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                        reg.observe_stage(Stage::Open, timer.elapsed_ns());
                    }
                    Ok(body)
                }
                Err(e) => {
                    pool.put(body);
                    Err(e)
                }
            }
        },
    )?;
    pass.counts
        .incr(suite_counter(shared.fbs.suite, Direction::Input));
    trace_span(
        obs,
        view.sfl,
        header.dst,
        SpanKind::Open,
        || shared.clock.now_micros(),
        body.len() as u64,
    );
    let delta = payload.len() as isize - body.len() as isize;
    header.grow_payload(-delta);
    Ok(body)
}

/// Hold a key-unavailable datagram in `dir`'s bounded parking queue
/// until [`release_parked`] can retry it. Overflow hands the datagram
/// back: it is rejected and its pooled payload recycled, not leaked.
fn park_or_reject(
    pass: &Pass<'_>,
    shard: &mut Shard,
    dir: Direction,
    header: &Ipv4Header,
    payload: Vec<u8>,
    pool: &mut BufferPool,
) -> HookOutcome {
    let obs = pass.obs;
    let sfl = wire_sfl(&payload);
    let timer = obs.as_ref().map(|_| StageTimer::start());
    let queue = shard.park(dir);
    match queue.park((header.clone(), payload), pass.now_us) {
        Ok(()) => {
            if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
                reg.observe_stage(Stage::Park, timer.elapsed_ns());
            }
            let queued = queue.len() as u32;
            pass.park_step(dir, ParkStep::Parked, Event::Parked { queued });
            pass.trace_park(dir, header, sfl, SpanKind::Parked, "parked", queued as u64);
            HookOutcome::Park
        }
        Err((_, payload)) => {
            pool.put(payload);
            pass.park_step(dir, ParkStep::Overflow, Event::ParkOverflow);
            pass.exit(dir, false);
            HookOutcome::Reject(RejectReason::ParkQueueFull)
        }
    }
}

/// The stack's name for why `e` rejects a datagram.
fn reject_reason(e: &FbsError) -> RejectReason {
    match e {
        FbsError::StaleTimestamp { .. } => RejectReason::Stale,
        FbsError::BadMac => RejectReason::BadMac,
        FbsError::MalformedHeader(_) => RejectReason::MalformedHeader,
        FbsError::UnknownAlgorithm(_) => RejectReason::UnknownAlgorithm,
        FbsError::MalformedCiphertext => RejectReason::MalformedCiphertext,
        FbsError::PrincipalUnknown(_)
        | FbsError::CertificateInvalid(_)
        | FbsError::Transport(_)
        | FbsError::CircuitOpen(_) => RejectReason::KeyUnavailable,
    }
}

/// The final-rejection tail of both verdict wrappers: recycle the
/// payload, account a fail-closed degradation when the cause was
/// missing key material, and close the datagram's ledger entry.
fn reject(
    pass: &Pass<'_>,
    dir: Direction,
    payload: Vec<u8>,
    pool: &mut BufferPool,
    e: &FbsError,
) -> HookOutcome {
    pool.put(payload);
    if e.is_key_unavailable() {
        pass.degraded(dir, false);
    }
    pass.exit(dir, false);
    HookOutcome::Reject(reject_reason(e))
}

/// Output verdict wrapper: protect, and on a *key-unavailable* failure
/// apply the policy's degradation verdict. Fail-open passes the original
/// plaintext (never under `encrypt` — see [`degrade_verdict`]).
pub(super) fn output_item(
    pass: &Pass<'_>,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: Vec<u8>,
    tuple: Option<(FiveTuple, u32)>,
    pool: &mut BufferPool,
) -> HookOutcome {
    let dir = Direction::Output;
    pass.enter(dir);
    let verdict = degrade_verdict(pass.cfg);
    // protect borrows the payload, so the original bytes are still owned
    // here for the fall-back verdicts — no snapshot copy needed.
    match protect(pass, shard, header, &payload, tuple, pool) {
        Ok(out) => {
            pool.put(payload);
            pass.exit(dir, true);
            HookOutcome::Pass(out)
        }
        Err(e) if e.is_key_unavailable() && verdict == KeyUnavailableVerdict::FailOpen => {
            pass.degraded(dir, true);
            pass.exit(dir, true); // it did exit the hook ok
            HookOutcome::Pass(payload)
        }
        Err(e) if e.is_key_unavailable() && verdict == KeyUnavailableVerdict::Park => {
            park_or_reject(pass, shard, dir, header, payload, pool)
        }
        Err(e) => reject(pass, dir, payload, pool, &e),
    }
}

/// Input verdict wrapper. Degradation applies narrowly here:
///
/// * an **unframed** datagram (no FBS header parses) is admitted as-is
///   under fail-open — the counterpart of a fail-open sender;
/// * a **framed** datagram that fails with key-unavailable may be
///   parked; fail-open never admits it (it cannot be verified, and under
///   encryption it is unreadable anyway);
/// * cryptographic failures (MAC, freshness) always reject.
pub(super) fn input_item(
    pass: &Pass<'_>,
    shard: &mut Shard,
    header: &mut Ipv4Header,
    payload: Vec<u8>,
    pool: &mut BufferPool,
) -> HookOutcome {
    let dir = Direction::Input;
    pass.enter(dir);
    let verdict = degrade_verdict(pass.cfg);
    match verify(pass, shard, header, &payload, pool) {
        Ok(body) => {
            pool.put(payload);
            pass.exit(dir, true);
            HookOutcome::Pass(body)
        }
        Err(FbsError::MalformedHeader(_) | FbsError::UnknownAlgorithm(_))
            if verdict == KeyUnavailableVerdict::FailOpen =>
        {
            pass.degraded(dir, true);
            pass.exit(dir, true);
            HookOutcome::Pass(payload)
        }
        Err(e) if e.is_key_unavailable() && verdict == KeyUnavailableVerdict::Park => {
            park_or_reject(pass, shard, dir, header, payload, pool)
        }
        Err(e) => reject(pass, dir, payload, pool, &e),
    }
}

/// Suite-labelled crypto counter: which profile sealed/opened the
/// datagram.
fn suite_counter(suite: CipherSuite, dir: Direction) -> Counter {
    match (dir, suite) {
        (Direction::Output, CipherSuite::Paper) => Counter::SealSuitePaper,
        (Direction::Output, CipherSuite::FastDes) => Counter::SealSuiteFastDes,
        (Direction::Output, CipherSuite::AeadChaPoly) => Counter::SealSuiteAead,
        (Direction::Input, CipherSuite::Paper) => Counter::OpenSuitePaper,
        (Direction::Input, CipherSuite::FastDes) => Counter::OpenSuiteFastDes,
        (Direction::Input, CipherSuite::AeadChaPoly) => Counter::OpenSuiteAead,
    }
}

/// Park release loop for one worker's owned shards in one direction:
/// expire the overdue, then retry the rest — skipping (and re-parking)
/// everything whose peer's circuit breaker would fast-fail, so a wall of
/// parked traffic cannot hammer a known-broken keying path. Output
/// retries `protect` towards `header.dst`; input retries `verify` from
/// `header.src`, MAC check included, under the caller's `settings`.
/// Returns the released datagrams, their bodies drawn from `pool`; every
/// consumed or expired buffer goes back into it.
pub(super) fn release_parked(
    shared: &HookShared,
    settings: &Settings,
    counts: &CounterBlock,
    shards: &mut [Shard],
    dir: Direction,
    now_us: u64,
    pool: &mut BufferPool,
) -> Vec<(Ipv4Header, Vec<u8>)> {
    let obs = &settings.obs;
    let pass = Pass {
        shared,
        counts,
        cfg: &settings.cfg,
        obs,
        now_us,
    };
    let mut ready = Vec::new();
    let timer = obs.as_ref().map(|_| StageTimer::start());
    let mut did_work = false;
    for shard in shards.iter_mut() {
        for expired in shard.park(dir).take_expired(now_us) {
            let (header, payload) = expired.item;
            let sfl = wire_sfl(&payload);
            pass.trace_park(dir, &header, sfl, SpanKind::Expired, "park_expired", 0);
            pool.put(payload);
            pass.park_step(dir, ParkStep::Expired, Event::ParkExpired);
            did_work = true;
        }
        for entry in shard.park(dir).take_all() {
            did_work = true;
            let Parked {
                item: (mut header, payload),
                parked_at_us,
                deadline_us,
            } = entry;
            // Back to the queue with the original deadline (drops at
            // expiry, never grows unbounded).
            let repark = |shard: &mut Shard, header, payload, pool: &mut BufferPool| {
                if let Err((_, payload)) = shard.park(dir).repark(Parked {
                    item: (header, payload),
                    parked_at_us,
                    deadline_us,
                }) {
                    pool.put(payload);
                    pass.park_step(dir, ParkStep::Overflow, Event::ParkOverflow);
                }
            };
            let peer = Principal::from_ipv4(match dir {
                Direction::Output => header.dst,
                Direction::Input => header.src,
            });
            if shared.keying.would_fast_fail(&peer) {
                repark(shard, header, payload, pool);
                continue;
            }
            // Both attempts only borrow the parked bytes, so they are
            // still owned here for a repark.
            let res = match dir {
                Direction::Output => {
                    let tuple = hashed_tuple(&header, &payload);
                    protect(&pass, shard, &mut header, &payload, tuple, pool)
                }
                Direction::Input => verify(&pass, shard, &mut header, &payload, pool),
            };
            match res {
                Ok(out) => {
                    pass.exit(dir, true);
                    let waited_us = now_us.saturating_sub(parked_at_us);
                    pass.park_step(dir, ParkStep::Released, Event::ParkReleased { waited_us });
                    // The flow's sfl leads the framed bytes: what was
                    // just sealed (the park itself had no identity to
                    // trace) or the wire payload that was parked.
                    let (framed, host) = match dir {
                        Direction::Output => (&out, header.src),
                        Direction::Input => (&payload, header.dst),
                    };
                    if let Some(sfl) = wire_sfl(framed) {
                        pass.span(sfl, host, SpanKind::Released, waited_us);
                    }
                    pool.put(payload);
                    ready.push((header, out));
                }
                Err(e) if e.is_key_unavailable() => {
                    // Still no key.
                    let sfl = wire_sfl(&payload);
                    pass.trace_park(dir, &header, sfl, SpanKind::Reparked, "reparked", 0);
                    repark(shard, header, payload, pool);
                }
                Err(_) => {
                    pass.exit(dir, false);
                    pass.counts.park_step(dir, ParkStep::Rejected);
                    pool.put(payload);
                }
            }
        }
    }
    if did_work {
        if let (Some(reg), Some(timer)) = (obs.as_ref(), timer) {
            reg.observe_stage(Stage::Release, timer.elapsed_ns());
        }
    }
    ready
}
