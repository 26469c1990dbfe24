//! The host network stack with 4.4BSD-shaped input/output paths and FBS
//! hook points (§7.2).
//!
//! Output has three logical parts: (1) the bulk of output processing,
//! (2) fragmentation, (3) transmission. Input likewise: (1) the bulk of
//! input processing, (2) reassembly, (3) dispatch to the higher-layer
//! protocol. The security hooks sit *between 1 and 2* on output and
//! *between 2 and 3* on input — exactly where `ip_fbs.c` hooked
//! `ip_output.c` and `ip_input.c` — so FBS sees whole datagrams and is
//! transparent to fragmentation.
//!
//! Both directions are **batch-first**: the scalar entry points
//! ([`Host::ip_output`], [`Host::deliver_frame`]) are one-element wrappers
//! over the batch pipeline ([`Host::ip_output_batch`],
//! [`Host::deliver_frames`]). The security hooks see one
//! [`SecurityHooks::process_batch_into`] call per output batch, and one per
//! pool-sized chunk of an input batch: input takes a pooled buffer per
//! datagram before the hooks run, so it ingests only as many datagrams as
//! the host's [`BufferPool`] can serve, runs the hooks over them, and
//! then ingests the next chunk.
//!
//! Payload buffers travel as [`Datagram`]s drawn from the host's pool
//! and go back to it wherever a layer is done with them: after the frames
//! are encoded, after UDP/MRT dispatch copies out, and inside the hooks
//! themselves. What leaves the host — a frame on the wire, a payload in a
//! socket queue — is a fresh copy, never a pool buffer, so the pool's
//! ledger closes on both ends of a link.

use crate::error::{NetError, RejectReason, Result};
use crate::frag::{Fragments, Reassembler, ReassemblyDrop};
use crate::ip::{encode_frame, parse_frame, Ipv4Addr, Ipv4Header, Proto};
use crate::mrt::MrtLayer;
use crate::ports::PortAllocator;
use crate::segment::{Impairments, Segment};
use crate::udp::UdpLayer;
use fbs_core::pool::DEFAULT_MAX_POOLED;
use fbs_core::BufferPool;
use fbs_obs::{Counter, CounterBlock, Direction, Event, MetricsRegistry, SpanKind, TraceSpan};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One whole datagram moving through the pipeline: a parsed header plus
/// its payload bytes.
///
/// On the pooled paths the payload Vec is drawn from the owning host's
/// [`BufferPool`] and is expected to return there: whoever consumes the
/// payload (a hook re-encoding it, the dispatcher after an upper layer
/// copies out, the fragmenter after slicing) recycles it with
/// [`BufferPool::put`] instead of dropping it.
#[derive(Debug)]
pub struct Datagram {
    /// Parsed IPv4-like header. Hooks may rewrite it (the FBS mapping
    /// changes `proto` and `total_len` when inserting its header).
    pub header: Ipv4Header,
    /// Payload bytes (everything after the IP header).
    pub payload: Vec<u8>,
}

/// What a security hook decided about one datagram.
///
/// The third verdict, [`HookOutcome::Park`], is how graceful degradation
/// reaches the stack: when keying material is transiently unavailable the
/// hook may hold the datagram instead of dropping it, releasing it later
/// from [`SecurityHooks::release_output`] / [`SecurityHooks::release_input`]
/// once keys derive (or its deadline expires inside the hook).
#[derive(Debug)]
pub enum HookOutcome {
    /// Processed; continue down (or up) the stack with this payload.
    Pass(Vec<u8>),
    /// Rejected; drop the datagram and surface the reason.
    Reject(RejectReason),
    /// Held by the hook for later release; the datagram leaves the
    /// synchronous path.
    Park,
}

/// Record a wire-level flow-trace span for a *framed* payload — the
/// first 8 big-endian bytes are the security flow label the sampler
/// keys on. No-op without an attached tracer, for unframed payloads,
/// and for unsampled flows; the no-tracer path costs one atomic load.
fn trace_wire_span(
    obs: &Option<Arc<MetricsRegistry>>,
    host: Ipv4Addr,
    kind: SpanKind,
    t_us: u64,
    payload: &[u8],
) {
    if let Some(tracer) = obs.as_ref().and_then(|r| r.tracer()) {
        if let Some(prefix) = payload.get(..8) {
            let sfl = u64::from_be_bytes(prefix.try_into().expect("8 bytes"));
            if tracer.sampled(sfl) {
                tracer.record(TraceSpan {
                    sfl,
                    host: u32::from_be_bytes(host),
                    kind,
                    t_us,
                    info: payload.len() as u64,
                });
            }
        }
    }
}

/// Buffers taken from `pool` so far, hits and misses alike.
fn pool_takes(pool: &BufferPool) -> u64 {
    let s = pool.stats();
    s.hits + s.misses
}

/// Interleave the `uncovered` datagrams' `Pass` verdicts with the hooks'
/// verdicts in `out`, which stand for the ascending batch indices
/// `hooked`, so that `out` lines up with the batch: one backward walk
/// that moves each verdict once.
fn merge_uncovered(
    out: &mut Vec<(Ipv4Header, HookOutcome)>,
    hooked: &[usize],
    uncovered: Vec<Datagram>,
) {
    let mut from_hooks = out.len();
    let total = from_hooks + uncovered.len();
    let mut uncovered = uncovered.into_iter().rev();
    let filler = || {
        (
            Ipv4Header::new([0; 4], [0; 4], Proto::Bypass, 0),
            HookOutcome::Park,
        )
    };
    out.resize_with(total, filler);
    for at in (0..total).rev() {
        if from_hooks > 0 && hooked[from_hooks - 1] == at {
            // Every hooks verdict not yet moved sits below `from_hooks`:
            // the slot at `at` holds filler, which the swap moves down.
            from_hooks -= 1;
            out.swap(at, from_hooks);
        } else {
            let dg = uncovered.next().expect("one datagram per uncovered index");
            out[at] = (dg.header, HookOutcome::Pass(dg.payload));
        }
    }
}

/// Security processing plugged into the stack (implemented by `fbs-ip`).
///
/// The trait is batch-first, with two batch entry points that wrap one
/// another: an implementation provides [`Self::process_batch`], which
/// the provided [`Self::process_batch_into`] wraps, or overrides
/// `process_batch_into` and makes `process_batch` the wrapper. The
/// scalar [`Self::output`] / [`Self::input`] methods are thin
/// one-element wrappers over `process_batch`, so exactly one processing
/// path exists per implementation. The stack calls
/// `process_batch_into`, handing over its own vectors.
///
/// A rejection names a [`RejectReason`], the substrate's own vocabulary:
/// the security layer maps its errors onto it, and this crate stays
/// ignorant of them.
pub trait SecurityHooks: Send {
    /// Which protocol numbers this hook protects. Uncovered protocols pass
    /// through untouched — that is how the secure-flow bypass (certificate
    /// fetches, `Proto::Bypass`) escapes FBS processing.
    fn covers(&self, proto: u8) -> bool;

    /// Worst-case bytes the output hook may add to a payload. Transports
    /// that fill packets to the MTU (MRT/TCP) must subtract this — the
    /// paper's `tcp_output.c` fix.
    fn max_overhead(&self) -> usize;

    /// The single processing entry point: protect (`Direction::Output`,
    /// between parts 1 and 2 of `ip_output`) or verify
    /// (`Direction::Input`, between parts 2 and 3 of `ip_input`) a batch
    /// of whole datagrams in one call, returning one `(header, outcome)`
    /// per item in submission order.
    ///
    /// `pool` is the host's buffer pool: replacement payloads should be
    /// drawn from it and consumed input buffers recycled into it, so a
    /// steady-state pipeline allocates nothing per datagram.
    fn process_batch(
        &mut self,
        dir: Direction,
        batch: Vec<Datagram>,
        pool: &mut BufferPool,
        now_us: u64,
    ) -> Vec<(Ipv4Header, HookOutcome)>;

    /// [`Self::process_batch`] on the caller's vectors: drain `batch`
    /// and append one `(header, outcome)` per datagram to `out`, in
    /// submission order. The stack calls this, so an implementation
    /// that overrides it — reusing `batch`'s and `out`'s buffers —
    /// costs a call no allocation. Default: wraps `process_batch`,
    /// handing it `batch`'s buffer and leaving the caller an empty one of
    /// the same capacity.
    fn process_batch_into(
        &mut self,
        dir: Direction,
        batch: &mut Vec<Datagram>,
        pool: &mut BufferPool,
        now_us: u64,
        out: &mut Vec<(Ipv4Header, HookOutcome)>,
    ) {
        let fresh = Vec::with_capacity(batch.capacity());
        let batch = std::mem::replace(batch, fresh);
        out.extend(self.process_batch(dir, batch, pool, now_us));
    }

    /// Scalar output processing: a one-element [`Self::process_batch`]
    /// wrapper (with a transient non-pooling pool) kept for callers that
    /// have a single datagram in hand.
    fn output(&mut self, header: &mut Ipv4Header, payload: Vec<u8>, now_us: u64) -> HookOutcome {
        let mut pool = BufferPool::with_limits(0, 0);
        let dg = Datagram {
            header: header.clone(),
            payload,
        };
        let (h, outcome) = self
            .process_batch(Direction::Output, vec![dg], &mut pool, now_us)
            .pop()
            .expect("one outcome per datagram");
        *header = h;
        outcome
    }

    /// Scalar input processing: the input-direction twin of
    /// [`Self::output`].
    fn input(&mut self, header: &mut Ipv4Header, payload: Vec<u8>, now_us: u64) -> HookOutcome {
        let mut pool = BufferPool::with_limits(0, 0);
        let dg = Datagram {
            header: header.clone(),
            payload,
        };
        let (h, outcome) = self
            .process_batch(Direction::Input, vec![dg], &mut pool, now_us)
            .pop()
            .expect("one outcome per datagram");
        *header = h;
        outcome
    }

    /// Parked *output* datagrams whose keys became available: each returned
    /// `(header, protected_payload)` is ready for fragmentation and
    /// transmission — the hook has already applied its processing. Buffers
    /// the release pass consumes or expires are recycled into `pool`.
    /// Called from [`Host::poll`]. Default: nothing parked, nothing
    /// released.
    fn release_output(
        &mut self,
        _now_us: u64,
        _pool: &mut BufferPool,
    ) -> Vec<(Ipv4Header, Vec<u8>)> {
        Vec::new()
    }

    /// Parked *input* datagrams that now verify: each returned
    /// `(header, plaintext_payload)` is ready for part-3 dispatch. Buffers
    /// the release pass consumes or expires are recycled into `pool`.
    /// Called from [`Host::poll`]. Default: nothing parked, nothing
    /// released.
    fn release_input(
        &mut self,
        _now_us: u64,
        _pool: &mut BufferPool,
    ) -> Vec<(Ipv4Header, Vec<u8>)> {
        Vec::new()
    }
}

/// Host-level counters: a view over the `host.*` cells of the host's
/// counter block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Frames handed to the wire.
    pub frames_sent: u64,
    /// Frames seen on the wire addressed to anyone.
    pub frames_seen: u64,
    /// Frames addressed to this host and accepted for processing.
    pub frames_for_us: u64,
    /// Frames dropped with bad IP header checksums (e.g. injected
    /// corruption).
    pub header_drops: u64,
    /// Datagrams the output security hook rejected.
    pub hook_output_rejects: u64,
    /// Datagrams the input security hook rejected.
    pub hook_input_rejects: u64,
    /// Output datagrams the hook parked for later release (key pending).
    pub hook_output_parked: u64,
    /// Input datagrams the hook parked for later release (key pending).
    pub hook_input_parked: u64,
    /// Parked output datagrams released and transmitted.
    pub hook_output_released: u64,
    /// Parked input datagrams released and dispatched.
    pub hook_input_released: u64,
    /// Datagrams that could not be sent because DF + oversize (the
    /// unpatched-tcp_output symptom).
    pub would_fragment_drops: u64,
    /// Datagrams dispatched to an upper layer (UDP, MRT, bypass, raw).
    pub dispatched: u64,
}

impl HostStats {
    /// Read the view off `counts`.
    fn read(counts: &CounterBlock) -> Self {
        HostStats {
            frames_sent: counts.counter(Counter::HostFramesSent),
            frames_seen: counts.counter(Counter::HostFramesSeen),
            frames_for_us: counts.counter(Counter::HostFramesForUs),
            header_drops: counts.counter(Counter::HostHeaderDrops),
            hook_output_rejects: counts.counter(Counter::HostOutputRejects),
            hook_input_rejects: counts.counter(Counter::HostInputRejects),
            hook_output_parked: counts.counter(Counter::HostOutputParked),
            hook_input_parked: counts.counter(Counter::HostInputParked),
            hook_output_released: counts.counter(Counter::HostOutputReleased),
            hook_input_released: counts.counter(Counter::HostInputReleased),
            would_fragment_drops: counts.counter(Counter::HostWouldFragmentDrops),
            dispatched: counts.counter(Counter::HostDispatched),
        }
    }
}

/// A simulated host: stack + transport layers + app-visible queues.
pub struct Host {
    addr: Ipv4Addr,
    mtu: usize,
    ip_id: u16,
    hooks: Option<Box<dyn SecurityHooks>>,
    reasm: Reassembler,
    /// Buffer pool backing the whole datagram pipeline: input frames,
    /// reassembly, fragmentation, and the hooks all draw from and recycle
    /// into this one pool.
    pool: BufferPool,
    /// UDP layer (public: apps use it via the host methods below).
    pub udp: UdpLayer,
    /// Mini reliable transport layer.
    pub mrt: MrtLayer,
    /// Port allocator (quarantine configured by the application).
    pub ports: PortAllocator,
    /// Raw bypass-protocol datagrams received (certificate traffic).
    bypass_rx: VecDeque<(Ipv4Addr, Vec<u8>)>,
    /// Raw-IP datagrams received (ICMP-like protocols): (proto, src, data).
    raw_rx: VecDeque<(u8, Ipv4Addr, Vec<u8>)>,
    out: VecDeque<Vec<u8>>,
    /// Scratch kept across batches (emptied, capacity kept), so a hook
    /// call allocates nothing: the whole datagrams of an input chunk,
    /// which the hooks drain, the verdicts in submission order, which
    /// they append to, and the indices of those the hooks gave.
    ready: Vec<Datagram>,
    verdicts: Vec<(Ipv4Header, HookOutcome)>,
    hooked: Vec<usize>,
    /// The host's counts — its own `host.*`, `pipeline.*` and `net.*`,
    /// its pool's `pool.*` and its MRT layer's `mrt.retransmits` — all
    /// written through `&mut Host`, so the block has one writer.
    counts: Arc<CounterBlock>,
    obs: Option<Arc<MetricsRegistry>>,
}

impl Host {
    /// Create a host at `addr` with the given link MTU.
    pub fn new(addr: Ipv4Addr, mtu: usize) -> Self {
        let counts = Arc::new(CounterBlock::new());
        Host {
            addr,
            mtu,
            ip_id: 1,
            hooks: None,
            reasm: Reassembler::new(30_000_000),
            pool: BufferPool::new().with_counts(Arc::clone(&counts)),
            udp: UdpLayer::default(),
            mrt: MrtLayer::new(mtu).with_counts(Arc::clone(&counts)),
            ports: PortAllocator::new(0),
            bypass_rx: VecDeque::new(),
            raw_rx: VecDeque::new(),
            out: VecDeque::new(),
            ready: Vec::new(),
            verdicts: Vec::new(),
            hooked: Vec::new(),
            counts,
            obs: None,
        }
    }

    /// Attach a metrics registry: it reads the host's counter block
    /// (counts made before the attach included), and the stack and its
    /// MRT layer record reassembly timeouts and retransmits in its
    /// flight recorder and trace spans in its tracer.
    pub fn attach_obs(&mut self, registry: Arc<MetricsRegistry>) {
        registry.attach(Arc::clone(&self.counts));
        self.mrt.set_obs(Arc::clone(&registry));
        self.obs = Some(registry);
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Link MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Counters.
    pub fn stats(&self) -> HostStats {
        HostStats::read(&self.counts)
    }

    /// Buffer-pool counters (hits, misses, returns, discards).
    pub fn pool_stats(&self) -> fbs_core::PoolStats {
        self.pool.stats()
    }

    /// Install security hooks. Also teaches MRT to reserve the hook's
    /// overhead in its MSS computation (the tcp_output fix of §7.2).
    /// `fbs-ip`'s `without_mss_fix_df_segments_are_dropped` test zeroes
    /// that allowance to reproduce the bug: filled-to-MSS DF segments
    /// then exceed the MTU once the FBS header is inserted, and get
    /// dropped with `WouldFragment`.
    pub fn install_hooks(&mut self, hooks: Box<dyn SecurityHooks>) {
        self.mrt.set_overhead_allowance(hooks.max_overhead());
        self.hooks = Some(hooks);
    }

    /// IP output: a one-element [`Self::ip_output_batch`].
    pub fn ip_output(&mut self, header: Ipv4Header, payload: Vec<u8>, now_us: u64) -> Result<()> {
        self.ip_output_batch(vec![(header, payload)], now_us)
            .pop()
            .expect("one result per datagram")
    }

    /// Batch IP output: part 1 (identification) for every datagram, then
    /// ONE [`SecurityHooks::process_batch_into`] call covering all protected
    /// datagrams, then per-datagram fragmentation and transmission. Frames
    /// hit the wire in submission order; the returned results line up with
    /// `items`.
    pub fn ip_output_batch(
        &mut self,
        mut items: Vec<(Ipv4Header, Vec<u8>)>,
        now_us: u64,
    ) -> Vec<Result<()>> {
        // Part 1: assign datagram identifications in submission order.
        for (header, _) in items.iter_mut() {
            header.id = self.ip_id;
            self.ip_id = self.ip_id.wrapping_add(1);
        }
        // Collected in place (the two layouts match): the hooks drain
        // the caller's own vector.
        let mut batch: Vec<Datagram> = items
            .into_iter()
            .map(|(header, payload)| Datagram { header, payload })
            .collect();

        // Security hook between parts 1 and 2 — one call for the whole
        // covered subset, so hooks amortise locking and dispatch.
        let (mut staged, hooked) = self.through_hooks(Direction::Output, &mut batch, now_us);
        for &i in &hooked {
            if let HookOutcome::Pass(payload) = &staged[i].1 {
                // A protected payload leads with its sfl: the wire span
                // marks the flow leaving this host for the medium.
                trace_wire_span(&self.obs, self.addr, SpanKind::Wire, now_us, payload);
            }
        }

        // Parts 2-3 per datagram, preserving submission order.
        let results = staged
            .drain(..)
            .map(|(header, res)| match res {
                HookOutcome::Pass(payload) => self.fragment_and_send(header, payload),
                HookOutcome::Reject(why) => {
                    self.counts.incr(Counter::HostOutputRejects);
                    Err(NetError::SecurityReject(why))
                }
                HookOutcome::Park => {
                    self.counts.incr(Counter::HostOutputParked);
                    Ok(())
                }
            })
            .collect();
        self.verdicts = staged;
        self.hooked = hooked;
        results
    }

    /// The hook step of both directions: ONE
    /// [`SecurityHooks::process_batch_into`] call, which drains `items`
    /// once the uncovered datagrams — all of them on a host without
    /// hooks — have been taken out to pass as they are. Returns the
    /// verdicts in `items`' order, and the indices of those the hooks
    /// gave, in the host's scratch vectors: the caller empties them and
    /// puts them back. An all-covered batch takes the same path with
    /// nothing taken out, and allocates nothing.
    fn through_hooks(
        &mut self,
        dir: Direction,
        items: &mut Vec<Datagram>,
        now_us: u64,
    ) -> (Vec<(Ipv4Header, HookOutcome)>, Vec<usize>) {
        let mut out = std::mem::take(&mut self.verdicts);
        let mut hooked = std::mem::take(&mut self.hooked);
        out.clear();
        hooked.clear();
        let Some(h) = &mut self.hooks else {
            out.extend(
                items
                    .drain(..)
                    .map(|dg| (dg.header, HookOutcome::Pass(dg.payload))),
            );
            return (out, hooked);
        };
        let mut i = 0;
        let uncovered: Vec<Datagram> = items
            .extract_if(.., |dg| {
                let covered = h.covers(dg.header.proto);
                if covered {
                    hooked.push(i);
                }
                i += 1;
                !covered
            })
            .collect();
        if !items.is_empty() {
            self.counts.incr(match dir {
                Direction::Output => Counter::PipelineOutputBatches,
                Direction::Input => Counter::PipelineInputBatches,
            });
            self.counts
                .add(Counter::PipelineBatchDatagrams, items.len() as u64);
            h.process_batch_into(dir, items, &mut self.pool, now_us, &mut out);
            assert_eq!(out.len(), hooked.len(), "one verdict per datagram");
        }
        if !uncovered.is_empty() {
            merge_uncovered(&mut out, &hooked, uncovered);
        }
        (out, hooked)
    }

    /// Parts 2 (fragmentation) and 3 (transmission) of IP output: each
    /// frame is encoded straight from its range of `payload`, which then
    /// returns to the pool — on the DF-oversize failure too.
    fn fragment_and_send(&mut self, header: Ipv4Header, payload: Vec<u8>) -> Result<()> {
        let sent = Fragments::new(header, payload.len(), self.mtu).map(|frags| {
            let n = frags.len();
            for (h, range) in frags {
                self.out.push_back(encode_frame(&h, &payload[range]));
            }
            n
        });
        self.pool.put(payload);
        let n = sent?;
        self.counts.add(Counter::HostFramesSent, n as u64);
        if n > 1 {
            self.counts.incr(Counter::FragmentedDatagrams);
            self.counts.add(Counter::FragmentsProduced, n as u64);
        }
        Ok(())
    }

    /// IP input for one frame: a one-element [`Self::deliver_frames`].
    pub fn deliver_frame(&mut self, frame: &[u8], now_us: u64) {
        self.deliver_chunked(std::iter::once(frame), now_us);
    }

    /// IP input for a batch of frames arriving together (same link tick),
    /// in pool-sized chunks: parts 1-2 per frame while the pool can still
    /// serve the chunk's hook pass, then ONE
    /// [`SecurityHooks::process_batch_into`] call for every whole datagram of
    /// the chunk and part-3 dispatch in arrival order — which returns the
    /// chunk's buffers — then the next chunk. A burst of any size runs
    /// off the pool's freelist.
    pub fn deliver_frames(&mut self, frames: &[Vec<u8>], now_us: u64) {
        self.deliver_chunked(frames.iter().map(Vec::as_slice), now_us);
    }

    /// The body of [`Self::deliver_frames`], over borrowed frames.
    fn deliver_chunked<'a>(&mut self, frames: impl Iterator<Item = &'a [u8]>, now_us: u64) {
        let mut frames = frames.peekable();
        let mut ready = std::mem::take(&mut self.ready);
        while frames.peek().is_some() {
            let budget = self.chunk_takes();
            let start = pool_takes(&self.pool);
            for f in frames.by_ref() {
                if let Some(dg) = self.ingest(f, now_us) {
                    ready.push(dg);
                }
                if pool_takes(&self.pool) - start >= budget {
                    break;
                }
            }
            self.process_input_batch(&mut ready, now_us);
        }
        self.ready = ready;
    }

    /// How many pool buffers one input chunk may take before its hook
    /// pass: all the pool holds idle but one — the pass takes a buffer
    /// for each datagram it opens before it returns the datagram's own —
    /// read off the pool as a chunk starts. A pool below its capacity by
    /// more than the buffers reassembly holds (a cold one) is read as
    /// full: its first chunk misses and fills it, where reading it as it
    /// is would run one-datagram chunks from then on. Partials count
    /// against the pool's capacity up to half of it, so a flood of them
    /// cannot shrink chunks below that half.
    fn chunk_takes(&self) -> u64 {
        let held = self.reasm.pending().min(DEFAULT_MAX_POOLED / 2);
        let full = DEFAULT_MAX_POOLED - held;
        (self.pool.idle().max(full).max(2) - 1) as u64
    }

    /// Parts 1 (checks) and 2 (reassembly) of IP input for one frame.
    /// Returns a whole datagram when one completes, its payload in a
    /// buffer drawn from the host pool: an unfragmented datagram's bytes
    /// are copied into one as it arrives; a fragment's are copied into
    /// its datagram's reassembly buffer. Frames not for us take nothing.
    fn ingest(&mut self, frame: &[u8], now_us: u64) -> Option<Datagram> {
        self.counts.incr(Counter::HostFramesSeen);
        // Part 1: parse and verify.
        let Ok((header, bytes)) = parse_frame(frame) else {
            self.counts.incr(Counter::HostHeaderDrops);
            return None;
        };
        if header.dst != self.addr {
            return None; // not ours (shared medium)
        }
        self.counts.incr(Counter::HostFramesForUs);
        if !header.is_fragment() {
            let mut payload = self.pool.take();
            payload.extend_from_slice(bytes);
            return Some(Datagram { header, payload });
        }

        // Part 2: reassembly.
        let evicted = self.reasm.drops(ReassemblyDrop::OverBudget);
        let packet = self
            .reasm
            .push_fragment(&header, bytes, now_us, &mut self.pool);
        let evicted = self.reasm.drops(ReassemblyDrop::OverBudget) - evicted;
        self.counts.add(Counter::ReassemblyEvictions, evicted);
        if packet.is_some() {
            self.counts.incr(Counter::ReassembledDatagrams);
        }
        let packet = packet?;
        trace_wire_span(
            &self.obs,
            self.addr,
            SpanKind::Reassembled,
            now_us,
            &packet.payload,
        );
        Some(Datagram {
            header: packet.header,
            payload: packet.payload,
        })
    }

    /// The input half of the hook pipeline: one
    /// [`SecurityHooks::process_batch_into`] call for the covered subset of
    /// `ready`, which it drains, then part-3 dispatch in arrival order.
    fn process_input_batch(&mut self, ready: &mut Vec<Datagram>, now_us: u64) {
        if ready.is_empty() {
            return;
        }
        // Pre-capture each datagram's wire sfl: the opened plaintext no
        // longer carries it, and the deliver span must join the flow
        // keyed by the wire label. Only paid when a tracer is attached.
        let tracer = self.obs.as_ref().and_then(|r| r.tracer()).cloned();
        let sfls: Option<Vec<u64>> = tracer.as_ref().map(|_| {
            let sfl = |dg: &Datagram| {
                let lead = dg.payload.get(..8);
                lead.map_or(0, |b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
            };
            ready.iter().map(sfl).collect()
        });
        let (mut staged, hooked) = self.through_hooks(Direction::Input, ready, now_us);
        if let (Some(tracer), Some(sfls)) = (tracer, sfls) {
            for &i in &hooked {
                if let HookOutcome::Pass(payload) = &staged[i].1 {
                    if sfls[i] != 0 && tracer.sampled(sfls[i]) {
                        tracer.record(TraceSpan {
                            sfl: sfls[i],
                            host: u32::from_be_bytes(self.addr),
                            kind: SpanKind::Deliver,
                            t_us: now_us,
                            info: payload.len() as u64,
                        });
                    }
                }
            }
        }
        for (header, res) in staged.drain(..) {
            match res {
                HookOutcome::Pass(payload) => self.dispatch(header, payload, now_us),
                HookOutcome::Reject(_) => {
                    self.counts.incr(Counter::HostInputRejects);
                }
                HookOutcome::Park => {
                    // Held until a key derives; [`Self::poll`] dispatches it
                    // once the hook releases it.
                    self.counts.incr(Counter::HostInputParked);
                }
            }
        }
        self.verdicts = staged;
        self.hooked = hooked;
    }

    /// Part 3 of IP input: hand a fully-processed datagram to its upper
    /// layer. Also the landing point for parked input datagrams released
    /// from the security hook. Every layer gets its bytes copied out, so
    /// the pooled buffer goes back to the pool.
    fn dispatch(&mut self, header: Ipv4Header, payload: Vec<u8>, now_us: u64) {
        self.counts.incr(Counter::HostDispatched);
        let mut responses = Vec::new();
        match Proto::from_number(header.proto) {
            Proto::Udp => self.udp.deliver(header.src, header.dst, &payload),
            Proto::Mrt => responses = self.mrt.deliver(header.src, &payload, now_us),
            Proto::Bypass => self.bypass_rx.push_back((header.src, payload.to_vec())),
            Proto::Other(p) => self.raw_rx.push_back((p, header.src, payload.to_vec())),
        }
        self.pool.put(payload);
        for o in responses {
            self.send_mrt_segment(o, now_us);
        }
    }

    fn send_mrt_segment(&mut self, o: crate::mrt::Outgoing, now_us: u64) {
        let mut header = Ipv4Header::new(self.addr, o.dst, Proto::Mrt, o.bytes.len());
        header.dont_fragment = o.dont_fragment;
        match self.ip_output(header, o.bytes, now_us) {
            Ok(()) => {}
            Err(NetError::WouldFragment { .. }) => {
                self.counts.incr(Counter::HostWouldFragmentDrops);
            }
            Err(_) => {} // hook rejects already counted
        }
    }

    /// Drive timers (MRT retransmission, reassembly expiry) and flush
    /// transport output. Call regularly with the current virtual time.
    pub fn poll(&mut self, now_us: u64) {
        let expired = self.reasm.expire(now_us, &mut self.pool);
        self.counts.add(Counter::ReassemblyTimeouts, expired as u64);
        if let Some(reg) = &self.obs {
            for _ in 0..expired {
                reg.record(Event::ReassemblyTimeout);
            }
        }
        for o in self.mrt.poll(now_us) {
            self.send_mrt_segment(o, now_us);
        }
        // Drain parked datagrams whose keys arrived. The hooks box is
        // taken for the release calls so the released items can re-enter
        // the (self-borrowing) send/dispatch paths.
        if let Some(mut h) = self.hooks.take() {
            let released_out = h.release_output(now_us, &mut self.pool);
            let released_in = h.release_input(now_us, &mut self.pool);
            self.hooks = Some(h);
            for (header, payload) in released_out {
                self.counts.incr(Counter::HostOutputReleased);
                // Already protected: go straight to fragmentation.
                let _ = self.fragment_and_send(header, payload);
            }
            for (header, payload) in released_in {
                self.counts.incr(Counter::HostInputReleased);
                self.dispatch(header, payload, now_us);
            }
        }
    }

    /// Take the frames queued for the wire.
    pub fn take_frames(&mut self) -> Vec<Vec<u8>> {
        self.out.drain(..).collect()
    }

    // ----- application-level conveniences -------------------------------

    /// Send a UDP datagram.
    pub fn udp_send(
        &mut self,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        data: &[u8],
        now_us: u64,
    ) -> Result<()> {
        let seg = crate::udp::encode(self.addr, dst, src_port, dst_port, data);
        let header = Ipv4Header::new(self.addr, dst, Proto::Udp, seg.len());
        self.ip_output(header, seg, now_us)
    }

    /// Send a raw bypass-protocol datagram (certificate traffic; never
    /// touched by the security hooks).
    pub fn bypass_send(&mut self, dst: Ipv4Addr, data: &[u8], now_us: u64) -> Result<()> {
        let header = Ipv4Header::new(self.addr, dst, Proto::Bypass, data.len());
        self.ip_output(header, data.to_vec(), now_us)
    }

    /// Receive the next bypass-protocol datagram, if any.
    pub fn bypass_recv(&mut self) -> Option<(Ipv4Addr, Vec<u8>)> {
        self.bypass_rx.pop_front()
    }

    /// Bind a UDP port *through the host's port allocator*, honouring the
    /// §7.1 quarantine when one is configured (direct `host.udp.bind`
    /// bypasses the allocator, reproducing historical behaviour).
    pub fn udp_bind(&mut self, port: u16, now_secs: u64) -> Result<u16> {
        self.ports.bind(port, now_secs)?;
        self.udp.bind(port)?;
        Ok(port)
    }

    /// Bind an ephemeral UDP port through the allocator.
    pub fn udp_bind_ephemeral(&mut self, now_secs: u64) -> Result<u16> {
        let port = self.ports.ephemeral(now_secs)?;
        self.udp.bind(port)?;
        Ok(port)
    }

    /// Close a UDP port, releasing it into quarantine.
    pub fn udp_close(&mut self, port: u16, now_secs: u64) {
        self.udp.unbind(port);
        self.ports.release(port, now_secs);
    }

    /// Send a raw-IP datagram (ICMP-like protocols outside UDP/MRT).
    pub fn raw_send(&mut self, proto: u8, dst: Ipv4Addr, data: &[u8], now_us: u64) -> Result<()> {
        let header = Ipv4Header::new(self.addr, dst, Proto::from_number(proto), data.len());
        self.ip_output(header, data.to_vec(), now_us)
    }

    /// Receive the next raw-IP datagram, if any: (proto, src, data).
    pub fn raw_recv(&mut self) -> Option<(u8, Ipv4Addr, Vec<u8>)> {
        self.raw_rx.pop_front()
    }
}

/// A collection of hosts on one shared segment, driven in virtual time.
pub struct Network {
    /// The shared medium.
    pub segment: Segment,
    hosts: HashMap<Ipv4Addr, Host>,
    /// Promiscuous capture of every delivered frame (a tcpdump sniffer on
    /// the shared segment, as in the paper's §7.3 measurement setup).
    capture: Option<Vec<(u64, Vec<u8>)>>,
    /// Frames addressed to no host on this segment, held for a gateway
    /// (see [`Network::take_unrouted`]); dropped when `None`.
    unrouted: Option<Vec<(u64, Vec<u8>)>>,
}

impl Network {
    /// Create a network over a segment with the given seed and impairments.
    pub fn new(seed: u64, imp: Impairments) -> Self {
        Network {
            segment: Segment::new(seed, imp),
            hosts: HashMap::new(),
            capture: None,
            unrouted: None,
        }
    }

    /// Start collecting frames addressed to off-segment hosts instead of
    /// dropping them — the input queue of an attached gateway/router.
    pub fn enable_gateway_queue(&mut self) {
        self.unrouted = Some(Vec::new());
    }

    /// Take frames waiting for the gateway.
    pub fn take_unrouted(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.unrouted.replace(Vec::new()).unwrap_or_default()
    }

    /// Is `addr` a host on this segment?
    pub fn has_host(&self, addr: Ipv4Addr) -> bool {
        self.hosts.contains_key(&addr)
    }

    /// Start capturing every frame the segment delivers (promiscuous
    /// sniffer). Frames are recorded with their virtual arrival time.
    pub fn enable_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Take the captured frames recorded so far.
    pub fn take_capture(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.capture.replace(Vec::new()).unwrap_or_default()
    }

    /// Attach a host.
    pub fn add_host(&mut self, host: Host) {
        self.hosts.insert(host.addr(), host);
    }

    /// Mutable access to a host.
    ///
    /// # Panics
    /// Panics if no host has that address.
    pub fn host_mut(&mut self, addr: Ipv4Addr) -> &mut Host {
        self.hosts.get_mut(&addr).expect("unknown host address")
    }

    /// Current virtual time.
    pub fn now_us(&self) -> u64 {
        self.segment.now_us()
    }

    /// One simulation step of `dt_us`: drive hosts, move frames, deliver.
    ///
    /// Consecutive frames arriving at the same host in the same link tick
    /// are coalesced into one [`Host::deliver_frames`] batch, so a burst
    /// (an MRT window, a fragment train) crosses the input hook in a
    /// single `process_batch_into` call.
    pub fn step(&mut self, dt_us: u64) {
        let now = self.segment.now_us();
        for h in self.hosts.values_mut() {
            h.poll(now);
        }
        let frames: Vec<Vec<u8>> = self
            .hosts
            .values_mut()
            .flat_map(|h| h.take_frames())
            .collect();
        for f in frames {
            self.segment.transmit(f);
        }
        let mut batch: Vec<Vec<u8>> = Vec::new();
        let mut batch_dst: Option<Ipv4Addr> = None;
        let mut batch_t = 0u64;
        for (t, frame) in self.segment.advance(dt_us) {
            if let Some(cap) = &mut self.capture {
                cap.push((t, frame.clone()));
            }
            // Shared medium: route by destination address. A corrupted
            // header checksum still reaches the host (the NIC filter only
            // looks at addresses) and is dropped there; if the *address
            // bytes themselves* were corrupted, the frame goes nowhere —
            // equivalent to an Ethernet CRC drop.
            match Ipv4Header::decode(&frame) {
                Ok(hdr) if self.hosts.contains_key(&hdr.dst) => {
                    if batch_dst != Some(hdr.dst) {
                        if let Some(dst) = batch_dst.take() {
                            self.hosts
                                .get_mut(&dst)
                                .expect("batched host exists")
                                .deliver_frames(&batch, batch_t);
                            batch.clear();
                        }
                        batch_dst = Some(hdr.dst);
                    }
                    // Arrival times within one step differ by at most the
                    // step granularity; the batch lands at the time of its
                    // last frame (when all of it has really arrived).
                    batch_t = t;
                    batch.push(frame);
                }
                Ok(_) => {
                    if let Some(q) = &mut self.unrouted {
                        q.push((t, frame));
                    }
                }
                Err(_) => {}
            }
        }
        if let Some(dst) = batch_dst {
            self.hosts
                .get_mut(&dst)
                .expect("batched host exists")
                .deliver_frames(&batch, batch_t);
        }
    }

    /// Run for `duration_us` in steps of `step_us`.
    pub fn run(&mut self, duration_us: u64, step_us: u64) {
        let end = self.segment.now_us() + duration_us;
        while self.segment.now_us() < end {
            self.step(step_us.min(end - self.segment.now_us()));
        }
    }

    /// Run until no frames are in flight and no host has output pending,
    /// or `max_us` of virtual time elapses.
    pub fn run_until_quiet(&mut self, max_us: u64) {
        let end = self.segment.now_us() + max_us;
        loop {
            self.step(1_000);
            let quiet = self.segment.idle();
            if quiet || self.segment.now_us() >= end {
                // One extra step lets responses flush.
                self.step(1_000);
                if self.segment.idle() || self.segment.now_us() >= end {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = [10, 0, 0, 1];
    const B: Ipv4Addr = [10, 0, 0, 2];

    fn two_hosts(imp: Impairments) -> Network {
        let mut net = Network::new(99, imp);
        net.add_host(Host::new(A, 1500));
        net.add_host(Host::new(B, 1500));
        net
    }

    #[test]
    fn udp_end_to_end() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).udp.bind(53).unwrap();
        net.host_mut(A).udp_send(1234, B, 53, b"ping", 0).unwrap();
        net.run(10_000, 1_000);
        let got = net.host_mut(B).udp.recv(53).unwrap();
        assert_eq!(got.data, b"ping");
        assert_eq!(got.src, A);
        assert_eq!(got.src_port, 1234);
    }

    #[test]
    fn udp_large_datagram_fragments_and_reassembles() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).udp.bind(53).unwrap();
        let big = vec![7u8; 6000];
        net.host_mut(A).udp_send(1234, B, 53, &big, 0).unwrap();
        // 6008-byte UDP segment over MTU 1500 ⇒ 5 fragments.
        net.run(50_000, 1_000);
        let got = net.host_mut(B).udp.recv(53).unwrap();
        assert_eq!(got.data, big);
        assert!(net.host_mut(A).stats().frames_sent >= 5);
    }

    #[test]
    fn a_fragment_flood_is_evicted_and_friendly_datagrams_still_pass() {
        use crate::frag::REASM_HIGH_BYTES;
        use crate::ip::{Packet, Proto};
        let mut net = two_hosts(Impairments::default());
        let reg = Arc::new(MetricsRegistry::new());
        net.host_mut(B).attach_obs(Arc::clone(&reg));
        net.host_mut(B).udp.bind(53).unwrap();
        // 2,000 forged first-seen fragments at offset 64,800, ~65 KiB
        // of reassembly each.
        let flood: Vec<Vec<u8>> = (0..2_000u16)
            .map(|id| {
                let mut h = Ipv4Header::new([6, 6, 6, 6], B, Proto::Udp, 8);
                (h.id, h.frag_offset, h.more_fragments) = (id, 64_800 / 8, true);
                Packet::new(h, vec![0; 8]).encode()
            })
            .collect();
        net.host_mut(B).deliver_frames(&flood, 0);
        let evicted = net.host_mut(B).reasm.drops(ReassemblyDrop::OverBudget);
        assert!(
            evicted >= (2_000 - REASM_HIGH_BYTES / 64_808) as u64,
            "{evicted}"
        );
        assert_eq!(reg.counter(Counter::ReassemblyEvictions), evicted);
        let big = vec![7u8; 6000];
        net.host_mut(A).udp_send(1234, B, 53, &big, 0).unwrap();
        net.run(50_000, 1_000);
        assert_eq!(net.host_mut(B).udp.recv(53).unwrap().data, big);
    }

    /// A hook that opens as the FBS hooks do: each covered datagram's
    /// body is copied into a buffer from the caller's pool, and the
    /// buffer it arrived in goes back.
    struct PoolCopy;

    impl SecurityHooks for PoolCopy {
        fn covers(&self, proto: u8) -> bool {
            proto == Proto::Udp.number()
        }
        fn max_overhead(&self) -> usize {
            0
        }
        fn process_batch(
            &mut self,
            _dir: Direction,
            batch: Vec<Datagram>,
            pool: &mut BufferPool,
            _now_us: u64,
        ) -> Vec<(Ipv4Header, HookOutcome)> {
            let open = |dg: Datagram| {
                let mut body = pool.take();
                body.extend_from_slice(&dg.payload);
                pool.put(dg.payload);
                (dg.header, HookOutcome::Pass(body))
            };
            batch.into_iter().map(open).collect()
        }
    }

    /// One tick of friendly traffic from A to B's port 53: 64 small
    /// datagrams and one that fragments. All of it must arrive; returns
    /// how many input batches B's hooks ran it in.
    fn friendly_tick(net: &mut Network) -> u64 {
        let reg = Arc::new(MetricsRegistry::new());
        net.host_mut(B).attach_obs(Arc::clone(&reg));
        let big: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        for i in 0..64u8 {
            net.host_mut(A).udp_send(1, B, 53, &[i; 64], 0).unwrap();
        }
        net.host_mut(A).udp_send(1, B, 53, &big, 0).unwrap();
        net.run(50_000, 1_000);
        let rx = net.host_mut(B);
        let mut got = Vec::new();
        while let Some(d) = rx.udp.recv(53) {
            got.push(d.data);
        }
        let mut want: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 64]).collect();
        want.push(big);
        got.sort();
        want.sort();
        assert_eq!(got, want, "every friendly datagram is delivered");
        reg.counter(Counter::PipelineInputBatches)
    }

    #[test]
    fn a_flood_of_small_partials_under_the_budget_lets_friendly_datagrams_pass() {
        use crate::ip::Packet;
        // Each forged partial is a fresh pool buffer (2 KiB) and its
        // 1 KiB bitmap: 1,360 × 3 KiB stays under the 4 MiB budget, so
        // none is evicted and all of them pin their buffers.
        const PARTIALS: usize = 1_360;
        let hosts = || {
            let mut net = two_hosts(Impairments::default());
            net.host_mut(B).udp.bind(53).unwrap();
            net.host_mut(B).install_hooks(Box::new(PoolCopy));
            net
        };
        let mut net = hosts();
        let flood: Vec<Vec<u8>> = (0..PARTIALS as u16)
            .map(|id| {
                let mut h = Ipv4Header::new([6, 6, 6, 6], B, Proto::Udp, 8);
                (h.id, h.more_fragments) = (id, true);
                Packet::new(h, vec![0; 8]).encode()
            })
            .collect();
        net.host_mut(B).deliver_frames(&flood, 0);
        let rx = net.host_mut(B);
        assert_eq!(rx.reasm.pending(), PARTIALS);
        assert_eq!(rx.reasm.held_bytes(), PARTIALS * 3 * 1024);
        assert_eq!(rx.reasm.drops(ReassemblyDrop::OverBudget), 0);
        // The pinned buffers do not shrink the friendly tick's chunks:
        // it crosses the hooks in no more batches than on a host with
        // no partials.
        let flooded = friendly_tick(&mut net);
        let unflooded = friendly_tick(&mut hosts());
        assert!(
            flooded <= unflooded,
            "{flooded} batches, {unflooded} unflooded"
        );
        // Past the reassembly timeout the flood's buffers come back too.
        net.run(31_000_000, 1_000_000);
        let rx = net.host_mut(B);
        assert_eq!(rx.reasm.pending(), 0);
        let s = rx.pool_stats();
        assert_eq!(s.hits + s.misses, s.returns + s.discards, "{s:?}");
    }

    #[test]
    fn bypass_datagrams_flow() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(A).bypass_send(B, b"cert request", 0).unwrap();
        net.run(10_000, 1_000);
        let (src, data) = net.host_mut(B).bypass_recv().unwrap();
        assert_eq!(src, A);
        assert_eq!(data, b"cert request");
    }

    #[test]
    fn mrt_end_to_end_over_network() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).mrt.listen(80);
        let key = net.host_mut(A).mrt.connect(2000, B, 80);
        net.run(100_000, 1_000);
        assert_eq!(
            net.host_mut(A).mrt.state(&key),
            Some(crate::mrt::ConnState::Established)
        );
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        net.host_mut(A).mrt.send(&key, &data).unwrap();
        net.run(2_000_000, 1_000);
        let got = net.host_mut(B).mrt.recv(&(80, A, 2000), usize::MAX);
        assert_eq!(got, data);
    }

    #[test]
    fn mrt_survives_lossy_network() {
        let mut net = two_hosts(Impairments::lossy(0.15, 0.0375, 0.0375, 500));
        net.host_mut(B).mrt.listen(80);
        let key = net.host_mut(A).mrt.connect(2000, B, 80);
        net.run(3_000_000, 1_000);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 241) as u8).collect();
        net.host_mut(A).mrt.send(&key, &data).unwrap();
        let mut got = Vec::new();
        for _ in 0..400 {
            net.run(100_000, 1_000);
            got.extend(net.host_mut(B).mrt.recv(&(80, A, 2000), usize::MAX));
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data, "reliable transfer despite 15% loss");
        assert!(net.host_mut(A).mrt.conn(&key).unwrap().retransmissions > 0);
    }

    #[test]
    fn corrupted_frames_dropped_by_checksum() {
        let imp = Impairments {
            corrupt: 1.0,
            ..Impairments::default()
        };
        let mut net = two_hosts(imp);
        net.host_mut(B).udp.bind(53).unwrap();
        for _ in 0..5 {
            net.host_mut(A).udp_send(1, B, 53, b"data", 0).unwrap();
        }
        net.run(100_000, 1_000);
        // Every frame had a bit flipped: it either fails the IP header
        // checksum at B, vanishes (address corruption), or fails the UDP
        // checksum — none may be delivered intact... unless the flip hit
        // the UDP checksum field itself making it 0 ("no checksum"), which
        // is vanishingly unlikely to also pass; we accept <=1 delivery.
        assert!(net.host_mut(B).udp.pending(53) <= 1);
    }

    #[test]
    fn allocator_backed_udp_bind_enforces_quarantine() {
        let mut h = Host::new(A, 1500);
        h.ports = crate::ports::PortAllocator::new(600); // the §7.1 fix
        assert_eq!(h.udp_bind(4000, 0).unwrap(), 4000);
        h.udp_close(4000, 100);
        // Within THRESHOLD: refused (attack window closed)...
        assert!(h.udp_bind(4000, 110).is_err());
        assert!(!h.udp.is_bound(4000));
        // ...after THRESHOLD: fine.
        assert_eq!(h.udp_bind(4000, 701).unwrap(), 4000);
        // Ephemeral path also honours the allocator.
        let e = h.udp_bind_ephemeral(701).unwrap();
        assert!(h.udp.is_bound(e));
    }

    #[test]
    fn raw_ip_datagrams_flow() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(A).raw_send(1, B, b"echo request", 0).unwrap(); // ICMP-ish
        net.run(10_000, 1_000);
        let (proto, src, data) = net.host_mut(B).raw_recv().unwrap();
        assert_eq!(proto, 1);
        assert_eq!(src, A);
        assert_eq!(data, b"echo request");
    }

    #[test]
    fn run_until_quiet_terminates() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).udp.bind(9).unwrap();
        net.host_mut(A).udp_send(1, B, 9, b"x", 0).unwrap();
        net.run_until_quiet(1_000_000);
        assert_eq!(net.host_mut(B).udp.pending(9), 1);
    }

    #[test]
    fn scalar_and_batch_input_cross_hook_once_per_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        /// Hook that counts batches and datagrams through shared atomics.
        struct SharedCounting {
            batches: StdArc<AtomicUsize>,
            datagrams: StdArc<AtomicUsize>,
        }
        impl SecurityHooks for SharedCounting {
            fn covers(&self, proto: u8) -> bool {
                proto == Proto::Udp.number()
            }
            fn max_overhead(&self) -> usize {
                0
            }
            fn process_batch(
                &mut self,
                _dir: Direction,
                batch: Vec<Datagram>,
                _pool: &mut BufferPool,
                _now_us: u64,
            ) -> Vec<(Ipv4Header, HookOutcome)> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.datagrams.fetch_add(batch.len(), Ordering::Relaxed);
                batch
                    .into_iter()
                    .map(|dg| (dg.header, HookOutcome::Pass(dg.payload)))
                    .collect()
            }
        }

        let batches = StdArc::new(AtomicUsize::new(0));
        let datagrams = StdArc::new(AtomicUsize::new(0));
        let mut rx = Host::new(B, 1500);
        rx.udp.bind(53).unwrap();
        rx.install_hooks(Box::new(SharedCounting {
            batches: StdArc::clone(&batches),
            datagrams: StdArc::clone(&datagrams),
        }));

        // Build three UDP frames addressed to B.
        let mut tx = Host::new(A, 1500);
        for i in 0..3u8 {
            tx.udp_send(1000, B, 53, &[i; 8], 0).unwrap();
        }
        let frames = tx.take_frames();
        assert_eq!(frames.len(), 3);

        // Batch delivery: ONE hook call carrying all three datagrams.
        rx.deliver_frames(&frames, 0);
        assert_eq!(batches.load(Ordering::Relaxed), 1, "one batch call");
        assert_eq!(datagrams.load(Ordering::Relaxed), 3);
        assert_eq!(rx.udp.pending(53), 3);

        // Scalar delivery still works (one batch of one per frame).
        for i in 0..2u8 {
            tx.udp_send(1000, B, 53, &[i; 8], 0).unwrap();
        }
        for f in tx.take_frames() {
            rx.deliver_frame(&f, 0);
        }
        assert_eq!(batches.load(Ordering::Relaxed), 3);
        assert_eq!(datagrams.load(Ordering::Relaxed), 5);
        assert_eq!(rx.udp.pending(53), 5);
    }

    #[test]
    fn uncovered_datagrams_keep_their_places_beside_the_hooks_verdicts() {
        /// Covers UDP: passes a datagram with a tag byte appended, or
        /// rejects it when its id is a multiple of three.
        struct Tagging;
        impl SecurityHooks for Tagging {
            fn covers(&self, proto: u8) -> bool {
                proto == Proto::Udp.number()
            }
            fn max_overhead(&self) -> usize {
                1
            }
            fn process_batch(
                &mut self,
                _dir: Direction,
                batch: Vec<Datagram>,
                _pool: &mut BufferPool,
                _now_us: u64,
            ) -> Vec<(Ipv4Header, HookOutcome)> {
                let verdict = |mut dg: Datagram| {
                    if dg.header.id.is_multiple_of(3) {
                        (dg.header, HookOutcome::Reject(RejectReason::Unanswered))
                    } else {
                        dg.payload.push(0xAA);
                        (dg.header, HookOutcome::Pass(dg.payload))
                    }
                };
                batch.into_iter().map(verdict).collect()
            }
        }

        let mut host = Host::new(B, 1500);
        host.install_hooks(Box::new(Tagging));
        // Every covered/uncovered pattern of seven datagrams.
        for mask in 0u16..128 {
            let covered = |i: u16| mask >> i & 1 == 1;
            let mut items: Vec<Datagram> = (0..7u16)
                .map(|i| {
                    let proto = if covered(i) {
                        Proto::Udp
                    } else {
                        Proto::Bypass
                    };
                    let mut header = Ipv4Header::new(A, B, proto, 1);
                    header.id = i;
                    let payload = vec![i as u8];
                    Datagram { header, payload }
                })
                .collect();
            let (out, hooked) = host.through_hooks(Direction::Input, &mut items, 0);
            assert!(items.is_empty(), "{mask:#b}: the batch is drained");
            let want: Vec<usize> = (0..7).filter(|&i| covered(i as u16)).collect();
            assert_eq!(hooked, want, "{mask:#b}");
            assert_eq!(out.len(), 7, "{mask:#b}");
            for (i, (header, verdict)) in out.iter().enumerate() {
                assert_eq!(header.id as usize, i, "{mask:#b}: verdict {i} in place");
                match verdict {
                    HookOutcome::Pass(p) if covered(i as u16) => {
                        assert_eq!(p, &[i as u8, 0xAA], "{mask:#b}")
                    }
                    HookOutcome::Reject(_) => assert!(covered(i as u16) && i.is_multiple_of(3)),
                    HookOutcome::Pass(p) => assert_eq!(p, &[i as u8], "{mask:#b}: as it came"),
                    HookOutcome::Park => panic!("{mask:#b}: no park"),
                }
            }
            (host.verdicts, host.hooked) = (out, hooked);
        }
    }

    #[test]
    fn network_step_coalesces_same_tick_frames_into_one_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        struct BatchSpy {
            input_batches: StdArc<AtomicUsize>,
            input_datagrams: StdArc<AtomicUsize>,
        }
        impl SecurityHooks for BatchSpy {
            fn covers(&self, proto: u8) -> bool {
                proto == Proto::Udp.number()
            }
            fn max_overhead(&self) -> usize {
                0
            }
            fn process_batch(
                &mut self,
                dir: Direction,
                batch: Vec<Datagram>,
                _pool: &mut BufferPool,
                _now_us: u64,
            ) -> Vec<(Ipv4Header, HookOutcome)> {
                if matches!(dir, Direction::Input) {
                    self.input_batches.fetch_add(1, Ordering::Relaxed);
                    self.input_datagrams
                        .fetch_add(batch.len(), Ordering::Relaxed);
                }
                batch
                    .into_iter()
                    .map(|dg| (dg.header, HookOutcome::Pass(dg.payload)))
                    .collect()
            }
        }

        let batches = StdArc::new(AtomicUsize::new(0));
        let datagrams = StdArc::new(AtomicUsize::new(0));
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).udp.bind(53).unwrap();
        net.host_mut(B).install_hooks(Box::new(BatchSpy {
            input_batches: StdArc::clone(&batches),
            input_datagrams: StdArc::clone(&datagrams),
        }));
        for i in 0..4u8 {
            net.host_mut(A).udp_send(1000, B, 53, &[i; 16], 0).unwrap();
        }
        net.run(20_000, 1_000);
        assert_eq!(net.host_mut(B).udp.pending(53), 4, "all delivered");
        let nb = batches.load(Ordering::Relaxed);
        let nd = datagrams.load(Ordering::Relaxed);
        assert_eq!(nd, 4);
        assert!(
            nb < nd,
            "same-tick frames must coalesce: {nb} batches for {nd} datagrams"
        );
    }

    #[test]
    fn input_pipeline_reuses_pooled_buffers() {
        let mut net = two_hosts(Impairments::default());
        net.host_mut(B).udp.bind(53).unwrap();
        // Warm-up burst populates B's pool (UDP dispatch recycles). It
        // must match the steady burst size: a coalesced batch holds all
        // its payload buffers concurrently before dispatch recycles them.
        for _ in 0..8 {
            net.host_mut(A).udp_send(1, B, 53, b"warmup", 0).unwrap();
        }
        net.run(20_000, 1_000);
        let warm = net.host_mut(B).pool_stats();
        for _ in 0..8 {
            net.host_mut(A).udp_send(1, B, 53, b"steady", 0).unwrap();
        }
        net.run(20_000, 1_000);
        let steady = net.host_mut(B).pool_stats();
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state input path allocates no new payload buffers"
        );
        assert!(steady.hits > warm.hits, "pool takes served from freelist");
    }

    #[test]
    fn duplicated_frames_close_the_receivers_pool_ledger() {
        // Every frame arrives twice. A duplicate fragment is copied over
        // bytes its datagram already holds, or starts a partial of its
        // own that expires; its frame's buffer goes back either way.
        let imp = Impairments {
            duplicate: 1.0,
            ..Impairments::default()
        };
        let mut net = two_hosts(imp);
        net.host_mut(B).udp.bind(53).unwrap();
        let big: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        net.host_mut(A).udp_send(1, B, 53, &big, 0).unwrap();
        net.host_mut(A).udp_send(1, B, 53, b"small", 0).unwrap();
        net.run(50_000, 1_000);
        // Past the reassembly timeout: a leftover partial is expired.
        net.run(31_000_000, 1_000_000);
        let rx = net.host_mut(B);
        let mut got = Vec::new();
        while let Some(d) = rx.udp.recv(53) {
            got.push(d.data);
        }
        assert!(got.contains(&big) && got.contains(&b"small".to_vec()));
        assert!(got.iter().all(|d| *d == big || d == b"small"));
        let s = rx.pool_stats();
        assert_eq!(s.hits + s.misses, s.returns + s.discards, "{s:?}");
    }

    #[test]
    fn pool_ledger_closes_after_df_oversize_drops() {
        // The unpatched-MSS scenario of §7.2 at the host boundary: DF
        // datagrams that no longer fit the MTU die in fragmentation.
        // Every payload handed to `ip_output` becomes the pool's to
        // recycle, on that failure path too.
        const BURST: u64 = 32;
        let mut host = Host::new(A, 1500);
        for i in 0..BURST {
            let mut header = Ipv4Header::new(A, B, Proto::Udp, 4000);
            header.dont_fragment = true;
            let res = host.ip_output(header, vec![i as u8; 4000], 0);
            assert!(
                matches!(res, Err(NetError::WouldFragment { .. })),
                "{res:?}"
            );
            // A deliverable datagram in between keeps the pool in use.
            host.udp_send(1, B, 53, b"fits", 0).unwrap();
        }
        assert_eq!(host.take_frames().len() as u64, BURST);
        let s = host.pool_stats();
        // 2 × BURST caller-allocated payloads entered the books.
        assert_eq!(
            s.hits + s.misses + 2 * BURST,
            s.returns + s.discards,
            "a dropped DF datagram leaked its payload: {s:?}"
        );
    }
}
