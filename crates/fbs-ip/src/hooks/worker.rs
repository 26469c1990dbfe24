//! The runtime around the datapath. For both modes: the sub-batch a
//! worker finishes, its panic supervision (respawn or quarantine), the
//! control plane it answers. For `workers >= 2`: the SPSC lanes and the
//! worker thread's loop. At `workers == 1` the submitting thread is the
//! worker ([`run_inline`], [`control_inline`]).

use super::config::WorkerFaultPolicy;
use super::datapath::{
    cascade_obs, input_item, output_item, release_parked, resolve_batch_auth, BatchAuth, DoneItem,
    Pass, ReleasedBatch, Shard, WorkerCtx,
};
use super::HookShared;
use crate::tuple::FiveTuple;
use fbs_core::{ParkStats, SpscRing};
use fbs_net::{HookOutcome, Ipv4Header};
use fbs_obs::{Counter, Direction, MetricsRegistry, ShardMemSample, StageTimer};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Hard cap on an injected worker stall, keeping chaos runs bounded no
/// matter what a fault plan asks for.
const MAX_INJECTED_STALL_US: u64 = 20_000;

/// Slots per SPSC ring. `process_batch` is synchronous — it pushes at
/// most one sub-batch per worker per lane, then waits for every reply —
/// so depth buys no throughput; the spare slots only absorb sub-batches
/// stranded behind a dead worker before the producer starts shedding.
const RING_DEPTH: usize = 4;

/// One partitioned datagram in flight to a worker: submission slot,
/// shard index, header, payload, and the pre-extracted 5-tuple (output
/// direction only).
type WorkItem = (usize, usize, Ipv4Header, Vec<u8>, Option<FiveTuple>);

/// A unit of work shipped over a [`Lane`] and, finished, shipped back:
/// the items, one supply buffer per item (drawn from the caller's
/// pool), and the reply vectors being lent to the worker so nothing
/// allocates per sub-batch. On the way home `done` carries the verdicts
/// and `recycle` the spent buffers; `items` and `supplies` ride along
/// emptied, for reuse.
pub(super) struct SubBatch {
    pub(super) dir: Direction,
    pub(super) now_us: u64,
    pub(super) items: Vec<WorkItem>,
    pub(super) supplies: Vec<Vec<u8>>,
    pub(super) done: Vec<DoneItem>,
    pub(super) recycle: Vec<Vec<u8>>,
}

impl SubBatch {
    pub(super) fn new(dir: Direction, now_us: u64) -> Self {
        SubBatch {
            dir,
            now_us,
            items: Vec::new(),
            supplies: Vec::new(),
            done: Vec::new(),
            recycle: Vec::new(),
        }
    }
}

/// One handle's private ring pair per worker. `&mut self` on
/// [`SecurityHooks::process_batch`] makes the producer side single by
/// construction; the worker is the only consumer of `to_worker[w]` and
/// the only producer of `from_worker[w]`.
pub(super) struct Lane {
    pub(super) to_worker: Box<[SpscRing<SubBatch>]>,
    pub(super) from_worker: Box<[SpscRing<SubBatch>]>,
    /// The thread currently blocked in `process_batch` on this lane, for
    /// worker→producer wakeups (control-plane mutex; set once per batch).
    pub(super) producer: Mutex<Option<std::thread::Thread>>,
}

impl Lane {
    pub(super) fn new(workers: usize) -> Self {
        let rings = || {
            (0..workers)
                .map(|_| SpscRing::with_capacity(RING_DEPTH))
                .collect()
        };
        Lane {
            to_worker: rings(),
            from_worker: rings(),
            producer: Mutex::new(None),
        }
    }
}

/// Control-plane messages to a worker. Every variant carries an ack /
/// reply channel: the control plane is synchronous, so callers observe
/// effects (flush, release) before returning — exactly like the old
/// lock-per-shard accessors did.
pub(super) enum Control {
    /// Cascade a metrics registry into every owned shard's components.
    AttachObs(Arc<MetricsRegistry>, mpsc::Sender<()>),
    /// Drop all flow-key soft state in owned shards.
    FlushKeys(mpsc::Sender<()>),
    /// Per owned shard `(shard_index, active_flows(now_secs))`.
    Occupancy(u64, mpsc::Sender<Vec<(usize, usize)>>),
    /// Summed (output, input) parking counters over owned shards.
    ParkStats(mpsc::Sender<(ParkStats, ParkStats)>),
    /// Run the park release loop for one direction.
    Release {
        dir: Direction,
        now_us: u64,
        reply: mpsc::Sender<ReleasedBatch>,
    },
    /// Drain every pending sub-batch from every known lane, then ack:
    /// after the ack, no datagram handed to this worker is still buffered.
    Drain(mpsc::Sender<()>),
}

/// Refresh worker `w`'s cached parking depths from its owned shards,
/// and mirror its shards' budget ledgers into the `mem.shard.<i>.*`
/// gauges while we are here (same cadence: once per finished sub-batch
/// or control action, never per datagram).
fn refresh_park_depths(shared: &HookShared, w: usize, shards: &[Shard]) {
    let mut out = 0usize;
    let mut inp = 0usize;
    for s in shards {
        out += s.out_park.len();
        inp += s.in_park.len();
    }
    shared.park_depths[w].out.store(out, Ordering::Release);
    shared.park_depths[w].inp.store(inp, Ordering::Release);
    refresh_shard_mem(shared, w);
}

/// Publish worker `w`'s shard budget ledgers as per-shard memory gauges.
fn refresh_shard_mem(shared: &HookShared, w: usize) {
    let Some(reg) = shared.obs_handle() else {
        return;
    };
    let mut si = w;
    while si < shared.n_shards {
        let snap = shared.budgets[si].snapshot();
        reg.set_shard_mem(
            si,
            ShardMemSample {
                tfkc_bytes: snap.tfkc_bytes,
                rfkc_bytes: snap.rfkc_bytes,
                mkc_bytes: snap.mkc_bytes,
                fam_bytes: snap.fam_bytes,
                limit_bytes: snap.limit_bytes,
                exceeded: snap.exceeded_events,
            },
        );
        si += shared.n_workers;
    }
}

/// The sub-batch a worker is processing right now, with an explicit
/// cursor (`next`). The cursor lives OUTSIDE the panic boundary: when an
/// item panics mid-processing, the supervisor can see exactly which
/// datagram died, give it a `Reject` verdict plus replacement buffers,
/// and resume the remaining items — so one poisoned datagram costs one
/// verdict, never a batch or a worker.
struct CurrentSub {
    /// The lane this sub-batch arrived on (its reply goes back here);
    /// `None` in run-to-completion mode.
    lane: Option<Arc<Lane>>,
    sub: SubBatch,
    /// Index of the first unprocessed item.
    next: usize,
    /// `supplies.len()` as of the start of the item at `next` — the
    /// difference after an unwind is the number of supply buffers the
    /// dying item consumed and the unwind freed.
    supply_mark: usize,
}

/// A finished sub-batch and the lane (if any) its reply rides home on.
type Finished = (Option<Arc<Lane>>, SubBatch);

/// Everything a worker owns across panic-supervision boundaries. Held
/// outside `catch_unwind` — by `worker_main`, or behind
/// `HookShared::inline`'s mutex — so a supervised panic never loses
/// shard state, the in-flight sub-batch, or buffers staged for
/// recycling.
#[derive(Default)]
pub(super) struct WorkerState {
    shards: Vec<Shard>,
    lanes: Vec<Arc<Lane>>,
    /// Epoch of `lanes`; 0 is the registry's own start, with no lane.
    seen_epoch: u64,
    current: Option<CurrentSub>,
    /// Buffers with no sub-batch to ride home on yet (e.g. park
    /// evictions during quarantine); appended to the next reply.
    pending_recycle: Vec<Vec<u8>>,
    /// Bumped per respawn; salts rebuilt shard seeds.
    generation: u64,
    /// Supervised respawns so far (compared against the policy budget).
    respawns: u32,
    /// Deferred MAC comparisons for the current sub-batch. Lives here —
    /// outside the panic boundary — so a supervised panic never loses
    /// pending tags: they resolve when the sub-batch finishes or is
    /// quarantine-rejected.
    auth: BatchAuth,
}

impl WorkerState {
    pub(super) fn new(shards: Vec<Shard>) -> Self {
        WorkerState {
            shards,
            ..WorkerState::default()
        }
    }
}

/// Stage a fresh sub-batch as the worker's current work.
fn begin_current(state: &mut WorkerState, lane: Option<&Arc<Lane>>, mut sub: SubBatch) {
    sub.done.clear();
    sub.done.reserve(sub.items.len());
    sub.recycle.clear();
    state.current = Some(CurrentSub {
        lane: lane.cloned(),
        next: 0,
        supply_mark: sub.supplies.len(),
        sub,
    });
}

/// Finish the current sub-batch against the worker's owned shards and
/// hand it back: run its remaining items to completion, or — with
/// `reject`, the quarantine path — give every one of them a `Reject`
/// verdict, so the producer gets a complete verdict set either way
/// (`None`: nothing was staged). Shard `si` lives at local index `si / W`
/// (the partition stage only routes `si ≡ w (mod W)` here). Unused
/// supplies ride home on the recycle list so the producer's pool ledger
/// stays balanced. Processing happens IN PLACE on `state.current`: if an
/// item panics, the unwind leaves the cursor and every untouched buffer
/// intact for the supervisor.
fn finish_current(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    reject: bool,
) -> Option<Finished> {
    let WorkerState {
        shards,
        current,
        pending_recycle,
        auth,
        ..
    } = state;
    let cur = current.as_mut()?;
    let obs = shared.obs_handle();
    let cfg = shared.cfg.load();
    let pass = Pass {
        shared,
        cfg: &cfg,
        obs: &obs,
        now_us: cur.sub.now_us,
    };
    let mut busy = None;
    if reject {
        let from = cur.next;
        for (slot, _si, header, payload, _tuple) in cur.sub.items.drain(from..) {
            cur.sub.recycle.push(payload);
            cur.sub.done.push((
                slot,
                header,
                HookOutcome::Reject("worker quarantined after panic".into()),
            ));
        }
    } else {
        // Chaos taps come first, so an injected panic unwinds with the
        // cursor at the first unprocessed item — the supervisor then pays
        // exactly one Reject for it. Stalls are wall-clock sleeps: they add
        // latency (visible in stage spans) but touch no virtual-time
        // counter, keeping seeded runs byte-identical.
        if let Some(chaos) = (*shared.chaos.load()).clone() {
            let stall = chaos
                .take_stall_us(w, pass.now_us)
                .min(MAX_INJECTED_STALL_US);
            if stall > 0 {
                std::thread::sleep(Duration::from_micros(stall));
            }
            if chaos.take_panic(w, pass.now_us) {
                panic!("injected worker panic (chaos)");
            }
        }
        busy = obs.as_ref().map(|_| StageTimer::start());
        if let Some(reg) = &obs {
            reg.incr(Counter::WorkerBatches);
        }
        let sub = &mut cur.sub;
        while cur.next < sub.items.len() {
            cur.supply_mark = sub.supplies.len();
            let (slot, si, header, payload, tuple) = &mut sub.items[cur.next];
            let payload = std::mem::take(payload);
            let shard = &mut shards[*si / shared.n_workers];
            let mut ctx = WorkerCtx {
                supplies: &mut sub.supplies,
                recycle: &mut sub.recycle,
            };
            // The item's verdict will land at this `done` index; the
            // deferred verifier uses it as the correlation token.
            let token = sub.done.len();
            let outcome = match sub.dir {
                Direction::Output => output_item(&pass, shard, header, payload, *tuple, &mut ctx),
                Direction::Input => {
                    input_item(&pass, shard, header, payload, &mut ctx, token, auth)
                }
            };
            sub.done.push((*slot, header.clone(), outcome));
            cur.next += 1;
        }
    }
    // Deferred MAC comparisons resolve BEFORE the reply leaves — on the
    // reject path too, for items processed before the quarantine — so
    // the producer only ever sees final verdicts.
    resolve_batch_auth(&pass, shards, auth, &mut cur.sub.done, &mut cur.sub.recycle);
    let CurrentSub {
        lane, sub: mut fin, ..
    } = current.take().expect("current sub-batch still staged");
    fin.items.clear();
    fin.recycle.append(&mut fin.supplies);
    fin.recycle.append(pending_recycle);
    refresh_park_depths(shared, w, shards);
    if let (Some(reg), Some(busy)) = (obs.as_ref(), busy) {
        reg.worker_busy(w, busy.elapsed_ns());
    }
    Some((lane, fin))
}

/// Post-panic cleanup for the item the unwind interrupted: give it a
/// `Reject` verdict and rebalance the buffer ledger. The item's payload
/// (and any supplies it popped) were freed by the unwind, so replacement
/// buffers of the pool's standard capacity ride the recycle list home —
/// the producer's pool only counts buffers, not identities.
fn abort_current_item(state: &mut WorkerState) {
    let Some(cur) = state.current.as_mut() else {
        return;
    };
    if cur.next < cur.sub.items.len() {
        let (slot, _si, header, payload, _tuple) = &mut cur.sub.items[cur.next];
        let taken = std::mem::take(payload);
        if taken.capacity() == 0 {
            // The unwind freed the real payload mid-item: replace it.
            cur.sub
                .recycle
                .push(Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY));
        } else {
            // The panic struck before the item's payload was taken
            // (e.g. an injected panic at sub-batch entry): the original
            // buffer is intact, recycle it directly.
            cur.sub.recycle.push(taken);
        }
        cur.sub.done.push((
            *slot,
            header.clone(),
            HookOutcome::Reject("worker panicked mid-datagram".into()),
        ));
        cur.next += 1;
    }
    let lost = cur.supply_mark.saturating_sub(cur.sub.supplies.len());
    for _ in 0..lost {
        cur.sub
            .recycle
            .push(Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY));
    }
    cur.supply_mark = cur.sub.supplies.len();
}

/// Rebuild every shard this worker owns after a supervised panic. Hard
/// state that cannot be trusted (FST rows, flow-key caches, codec
/// confounder positions) is discarded — it is all soft state by design
/// (§5.3) and re-warms through normal misses. Parked datagrams are NOT
/// soft state (they are caller data) and survive the rebuild; their
/// deadlines keep ticking in the carried-over queues.
fn rebuild_shards(shared: &HookShared, w: usize, state: &mut WorkerState) {
    state.generation += 1;
    let obs = shared.obs_handle();
    let old = std::mem::take(&mut state.shards);
    for (local, old_shard) in old.into_iter().enumerate() {
        let si = w + local * shared.n_workers;
        let mut fresh = shared.build_shard(si, state.generation);
        fresh.out_park = old_shard.out_park;
        fresh.in_park = old_shard.in_park;
        if let Some(reg) = &obs {
            cascade_obs(&mut fresh, reg);
        }
        state.shards.push(fresh);
    }
    refresh_park_depths(shared, w, &state.shards);
}

/// Threaded mode: push a finished sub-batch down the lane it came on,
/// then wake the producer. The reply ring can hold as many sub-batches
/// as the ingress ring, so this never blocks in the steady protocol; the
/// spin is a defensive fallback.
fn reply(w: usize, fin: Option<Finished>) {
    let Some((Some(lane), mut reply)) = fin else {
        return;
    };
    loop {
        match lane.from_worker[w].try_push(reply) {
            Ok(()) => break,
            Err(back) => {
                reply = back;
                std::thread::yield_now();
            }
        }
    }
    let producer = lane.producer.lock();
    if let Some(t) = producer.as_ref() {
        t.unpark();
    }
}

/// Handle one control-plane message as the worker. A quarantined
/// worker still answers everything — statistics, flushes, and drains
/// stay observable — but drained sub-batches get rejected rather than
/// processed (its shard state is no longer trusted).
fn handle_control(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    msg: Control,
    quarantined: bool,
) {
    match msg {
        Control::AttachObs(reg, ack) => {
            for s in state.shards.iter_mut() {
                cascade_obs(s, &reg);
            }
            let _ = ack.send(());
        }
        Control::FlushKeys(ack) => {
            for s in state.shards.iter_mut() {
                s.rfkc.clear();
                s.combined.clear();
            }
            let _ = ack.send(());
        }
        Control::Occupancy(now_secs, reply) => {
            let rows = state
                .shards
                .iter()
                .enumerate()
                .map(|(idx, s)| {
                    (
                        w + idx * shared.n_workers,
                        s.combined.active_flows(now_secs),
                    )
                })
                .collect();
            let _ = reply.send(rows);
        }
        Control::ParkStats(reply) => {
            let mut out = ParkStats::default();
            let mut inp = ParkStats::default();
            for s in state.shards.iter() {
                out.merge(&s.out_park.stats());
                inp.merge(&s.in_park.stats());
            }
            let _ = reply.send((out, inp));
        }
        Control::Release { dir, now_us, reply } => {
            let result = release_parked(shared, &mut state.shards, dir, now_us);
            refresh_park_depths(shared, w, &state.shards);
            let _ = reply.send(result);
        }
        Control::Drain(ack) => {
            drain_lanes(shared, w, state, quarantined);
            let _ = ack.send(());
        }
    }
}

/// Reload the lane snapshot if its epoch moved, then pop every ingress
/// ring dry, finishing each sub-batch as it comes off (rejecting it
/// whole when `quarantined`). The only consumer of `to_worker[w]`.
/// Returns whether anything was popped.
fn drain_lanes(shared: &HookShared, w: usize, state: &mut WorkerState, quarantined: bool) -> bool {
    let epoch = shared.lanes_epoch.load(Ordering::Acquire);
    if epoch != state.seen_epoch {
        state.seen_epoch = epoch;
        state.lanes.clear();
        state
            .lanes
            .extend(shared.lanes_snapshot.load().iter().cloned());
    }
    let mut did_work = false;
    for li in 0..state.lanes.len() {
        let lane = Arc::clone(&state.lanes[li]);
        while let Some(sub) = lane.to_worker[w].try_pop() {
            begin_current(state, Some(&lane), sub);
            reply(w, finish_current(shared, w, state, quarantined));
            did_work = true;
        }
    }
    did_work
}

/// The run-to-completion worker loop, in both of its modes: live
/// (supervised by `worker_main`) and `quarantined` (fail-closed terminal
/// mode — same loop, every datagram rejected). Finishes a sub-batch a
/// supervised panic interrupted, drains the control mailbox, reloads
/// the lane snapshot when its epoch moved, drains every ingress ring,
/// and spins/parks when idle. Returns only when `shutdown` is set AND a
/// full pass found nothing to do — so every buffered sub-batch is
/// processed before the thread dies (drain-then-shutdown). A panic
/// anywhere inside unwinds to the caller with `state` intact.
fn worker_loop(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    ctl: &mpsc::Receiver<Control>,
    quarantined: bool,
) {
    let mut idle = 0u32;
    loop {
        let mut did_work = false;
        // A sub-batch interrupted by a supervised panic finishes before
        // anything new is taken on — its producer is still parked on the
        // reply.
        if state.current.is_some() {
            reply(w, finish_current(shared, w, state, quarantined));
            did_work = true;
        }
        while let Ok(msg) = ctl.try_recv() {
            handle_control(shared, w, state, msg, quarantined);
            did_work = true;
        }
        did_work |= drain_lanes(shared, w, state, quarantined);
        if did_work {
            idle = 0;
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        idle += 1;
        if idle < 64 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
}

/// Enter fail-closed terminal mode: the worker (threaded: its mailbox,
/// rings and buffer ledger too) stays, but rejects every datagram —
/// first what is left of the sub-batch the panic interrupted. Parked
/// datagrams are evicted — their keys will never arrive on a worker that
/// stopped processing — and their buffers ride that reply home.
fn quarantine(shared: &HookShared, w: usize, state: &mut WorkerState) {
    shared.quarantined[w].store(true, Ordering::Release);
    for shard in state.shards.iter_mut() {
        for dir in [Direction::Output, Direction::Input] {
            let evicted = shard.park(dir).take_all();
            state
                .pending_recycle
                .extend(evicted.into_iter().map(|p| p.item.1));
        }
    }
    refresh_park_depths(shared, w, &state.shards);
}

/// The one panic supervisor: run `body` inside `catch_unwind`; on a
/// panic count it, give the interrupted datagram its `Reject`, respawn
/// or quarantine per [`WorkerFaultPolicy`], and return `None` — the
/// caller runs again under a fresh boundary, where the interrupted
/// sub-batch (cursor already past the poisoned item) finishes first.
/// Catching the unwind HERE — rather than letting a thread die — keeps
/// the SPSC consumer identity, the control mailbox, the parked thread
/// handle and `workers_alive` (a liveness gate: it only moves on real
/// shutdown) intact. Respawn rebuilds shard state in place; quarantine
/// is a mode switch, not an exit.
fn supervise<T>(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    body: impl FnOnce(&mut WorkerState, bool) -> T,
) -> Option<T> {
    let quarantined = shared.quarantined[w].load(Ordering::Acquire);
    // AssertUnwindSafe: `state` lives outside the boundary by design —
    // the supervisor's whole job is to repair the potentially
    // inconsistent pieces (the current item's buffers via
    // `abort_current_item`, shard state via `rebuild_shards`) before
    // anyone observes them.
    if let Ok(v) = catch_unwind(AssertUnwindSafe(|| body(&mut *state, quarantined))) {
        return Some(v);
    }
    shared.worker_panics.fetch_add(1, Ordering::Relaxed);
    let obs = shared.obs_handle();
    if let Some(reg) = &obs {
        reg.worker_panic(w);
    }
    abort_current_item(state);
    let respawn = match shared.cfg.load().worker_fault {
        WorkerFaultPolicy::Respawn { max_respawns } => state.respawns < max_respawns,
        WorkerFaultPolicy::FailClosed => false,
    };
    if respawn {
        state.respawns += 1;
        shared.worker_respawns.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = &obs {
            reg.incr(Counter::WorkerRespawns);
        }
        rebuild_shards(shared, w, state);
    } else {
        quarantine(shared, w, state);
    }
    None
}

/// Worker thread entry point: [`worker_loop`] under [`supervise`] until
/// it returns, which it does on shutdown only.
pub(super) fn worker_main(
    shared: Arc<HookShared>,
    w: usize,
    shards: Vec<Shard>,
    ctl: mpsc::Receiver<Control>,
) {
    /// Decrements `workers_alive` even on an unsupervised death, so a
    /// stuck producer detects it instead of spinning forever.
    struct Alive<'a>(&'a HookShared);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.workers_alive.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _alive = Alive(&shared);
    let mut state = WorkerState::new(shards);
    let pass = |st: &mut WorkerState, quarantined| worker_loop(&shared, w, st, &ctl, quarantined);
    while supervise(&shared, w, &mut state, pass).is_none() {}
}

/// Run-to-completion mode: finish `sub` on the calling thread, which
/// holds the lock on the one worker's state, under the same supervisor —
/// a panic costs its datagram a `Reject` and never unwinds into the
/// caller. `None` only if a panic took the staged sub-batch with it; the
/// caller then fails its slots closed.
pub(super) fn run_inline(
    shared: &HookShared,
    state: &mut WorkerState,
    sub: SubBatch,
) -> Option<SubBatch> {
    begin_current(state, None, sub);
    while state.current.is_some() {
        let pass = |st: &mut WorkerState, rej| finish_current(shared, 0, st, rej);
        if let Some(fin) = supervise(shared, 0, state, pass) {
            return fin.map(|(_, sub)| sub);
        }
    }
    None
}

/// Run-to-completion mode's control plane: answer `msg` on the calling
/// thread, lock held, supervised. A panic drops `msg`'s reply sender,
/// which the caller reads as `WorkerUnavailable`.
pub(super) fn control_inline(shared: &HookShared, state: &mut WorkerState, msg: Control) {
    supervise(shared, 0, state, |st, quarantined| {
        handle_control(shared, 0, st, msg, quarantined)
    });
}
