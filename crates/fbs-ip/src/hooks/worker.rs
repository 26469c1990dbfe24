//! The runtime around the datapath: the sub-batch a shard owner
//! finishes, its panic supervision (respawn or quarantine), and the
//! control plane. An owner ("worker" `w`) is a [`WorkerState`] behind a
//! mutex in [`HookShared`]; whoever holds the lock runs it to completion
//! on their own thread ([`run_inline`], [`HookShared::with_owner`]).

use super::config::WorkerFaultPolicy;
use super::datapath::{
    cascade_obs, input_item, output_item, release_parked, resolve_batch_auth, BatchAuth, DoneItem,
    Pass, ReleasedBatch, Shard, WorkerCtx,
};
use super::HookShared;
use crate::tuple::FiveTuple;
use fbs_core::{ParkStats, RuntimeError};
use fbs_net::{HookOutcome, Ipv4Header};
use fbs_obs::{Counter, Direction, MetricsRegistry, ShardMemSample, StageTimer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on an injected worker stall, keeping chaos runs bounded no
/// matter what a fault plan asks for.
const MAX_INJECTED_STALL_US: u64 = 20_000;

/// One partitioned datagram on its way to a shard owner: submission slot,
/// shard index, header, payload, and the pre-extracted 5-tuple (output
/// direction only).
type WorkItem = (usize, usize, Ipv4Header, Vec<u8>, Option<FiveTuple>);

/// One owner's share of a batch, handed to [`run_inline`] and handed
/// back finished: the items, one supply buffer per item (drawn from the
/// caller's pool), and the reply vectors, lent so nothing allocates per
/// sub-batch. On the way home `done` carries the verdicts and `recycle`
/// the spent buffers; `items` and `supplies` ride along emptied, for
/// reuse.
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
    sub: SubBatch,
    /// Index of the first unprocessed item.
    next: usize,
    /// `supplies.len()` as of the start of the item at `next` — the
    /// difference after an unwind is the number of supply buffers the
    /// dying item consumed and the unwind freed.
    supply_mark: usize,
}

/// Everything a shard owner keeps across panic-supervision boundaries.
/// Held outside `catch_unwind` — behind its `HookShared::owners` mutex —
/// so a supervised panic never loses shard state, the in-flight
/// sub-batch, or buffers staged for recycling.
#[derive(Default)]
pub(super) struct WorkerState {
    shards: Vec<Shard>,
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
fn begin_current(state: &mut WorkerState, mut sub: SubBatch) {
    sub.done.clear();
    sub.done.reserve(sub.items.len());
    sub.recycle.clear();
    state.current = Some(CurrentSub {
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
) -> Option<SubBatch> {
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
    let mut fin = current.take().expect("current sub-batch still staged").sub;
    fin.items.clear();
    fin.recycle.append(&mut fin.supplies);
    fin.recycle.append(pending_recycle);
    refresh_park_depths(shared, w, shards);
    if let (Some(reg), Some(busy)) = (obs.as_ref(), busy) {
        reg.worker_busy(w, busy.elapsed_ns());
    }
    Some(fin)
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

/// The control plane: what a caller may do to an owner besides hand it
/// a sub-batch. Each runs through [`HookShared::with_owner`], so a
/// quarantined owner still answers all of them.
impl WorkerState {
    /// Cascade a metrics registry into every owned shard's components.
    pub(super) fn attach_obs(&mut self, reg: &Arc<MetricsRegistry>) {
        for s in self.shards.iter_mut() {
            cascade_obs(s, reg);
        }
    }

    /// Drop all flow-key soft state in owned shards.
    pub(super) fn flush_keys(&mut self) {
        for s in self.shards.iter_mut() {
            s.rfkc.clear();
            s.combined.clear();
        }
    }

    /// Per owned shard `(shard_index, active_flows(now_secs))`, as
    /// owner `w`.
    pub(super) fn occupancy(
        &self,
        shared: &HookShared,
        w: usize,
        now_secs: u64,
    ) -> Vec<(usize, usize)> {
        let row = |(local, s): (usize, &Shard)| {
            let si = w + local * shared.n_workers;
            (si, s.combined.active_flows(now_secs))
        };
        self.shards.iter().enumerate().map(row).collect()
    }

    /// Summed (output, input) parking counters over owned shards.
    pub(super) fn park_stats(&self) -> (ParkStats, ParkStats) {
        let mut out = ParkStats::default();
        let mut inp = ParkStats::default();
        for s in self.shards.iter() {
            out.merge(&s.out_park.stats());
            inp.merge(&s.in_park.stats());
        }
        (out, inp)
    }

    /// Run the park release loop for one direction, as owner `w`.
    pub(super) fn release(
        &mut self,
        shared: &HookShared,
        w: usize,
        dir: Direction,
        now_us: u64,
    ) -> ReleasedBatch {
        let result = release_parked(shared, &mut self.shards, dir, now_us);
        refresh_park_depths(shared, w, &self.shards);
        result
    }
}

/// Enter fail-closed terminal mode: the worker and its buffer ledger
/// stay, but it rejects every datagram — first what is left of the
/// sub-batch the panic interrupted. Parked datagrams are evicted — their
/// keys will never arrive on a worker that stopped processing — and
/// their buffers ride that reply home.
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
/// Catching the unwind HERE keeps it out of the caller's stack and the
/// owner's mutex unpoisoned. Respawn rebuilds shard state in place;
/// quarantine is a mode switch, not an exit.
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

/// Finish `sub` as owner `w` on the calling thread, which holds the
/// lock on `state`, under the supervisor — a panic costs its datagram a
/// `Reject` and never unwinds into the caller. `None` only if a panic
/// took the staged sub-batch with it; the caller then fails its slots
/// closed.
pub(super) fn run_inline(
    shared: &HookShared,
    w: usize,
    state: &mut WorkerState,
    sub: SubBatch,
) -> Option<SubBatch> {
    begin_current(state, sub);
    while state.current.is_some() {
        let pass = |st: &mut WorkerState, rej| finish_current(shared, w, st, rej);
        if let Some(fin) = supervise(shared, w, state, pass) {
            return fin;
        }
    }
    None
}

impl HookShared {
    /// The control plane's one entry: lock owner `w`, run `op` on its
    /// state on the calling thread, supervised. A panic inside `op` is
    /// handled like any other (respawn or quarantine) and reads as
    /// `WorkerUnavailable`.
    pub(super) fn with_owner<T>(
        &self,
        w: usize,
        op: impl FnOnce(&mut WorkerState) -> T,
    ) -> Result<T, RuntimeError> {
        supervise(self, w, &mut self.owners[w].lock(), |st, _| op(st))
            .ok_or(RuntimeError::WorkerUnavailable { worker: w })
    }
}
