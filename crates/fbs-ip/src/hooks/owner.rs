//! The runtime around the datapath: the batch in flight ([`Run`]) a
//! shard owner finishes in place, its panic supervision (respawn or
//! quarantine), and the control plane. Owner `w` is an [`Owner`] behind
//! a mutex in [`HookShared`]; whoever holds the lock runs it to
//! completion on their own thread, with their own [`BufferPool`]
//! ([`run_inline`], [`HookShared::with_owner`]).

use super::datapath::{
    cascade_obs, input_item, output_item, release_parked, rx_shard, tuple_for, tx_shard, Pass,
    Shard,
};
use super::{HookShared, Settings};
use crate::tuple::FiveTuple;
use fbs_core::{BufferPool, RuntimeError};
use fbs_net::{Datagram, HookOutcome, Ipv4Header, RejectReason};
use fbs_obs::{Counter, Direction, MetricsRegistry, StageTimer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Supervised respawns an owner gets; the next panic quarantines it.
pub(super) const MAX_RESPAWNS: u32 = 3;

/// Supervised passes that may panic with no datagram left to process
/// (only the pass's tail: recycling, park-depth refresh) before the owner
/// gives up on the tail. Every datagram of its share already holds its
/// final verdict by then; the bound only guarantees termination.
const TAIL_RETRIES: u32 = 3;

/// One datagram of the batch in flight. Its header lives in the verdict
/// ledger, at the same submission index.
struct Item {
    payload: Vec<u8>,
    /// Owning shard.
    si: usize,
    /// Pre-extracted 5-tuple (output direction only).
    tuple: Option<FiveTuple>,
}

/// The batch in flight, kept per handle (vectors emptied, capacity
/// kept). It never crosses the panic boundary: after an unwind the
/// cursor stands on exactly the datagram that died, so one poisoned
/// datagram costs one verdict, never a batch or an owner.
#[derive(Default)]
pub(super) struct Run {
    /// The datagrams, in submission order.
    items: Vec<Item>,
    /// Submission indices grouped by owner (stable, so each shard sees
    /// its datagrams in submission order).
    order: Vec<usize>,
    /// `order[..ends[0]]` is owner 0's share, `order[ends[0]..ends[1]]`
    /// owner 1's, and so on.
    ends: Vec<usize>,
    /// Cursor into `order`: the first datagram without a final verdict.
    next: usize,
    /// The pool's outstanding-buffer count when the item at `next` (or
    /// the pass, before its first item) started; what an unwind freed is
    /// made whole against it.
    mark: i64,
}

impl Run {
    /// Drain `batch` into the staging for `shared`'s owners: items, and
    /// the fail-closed verdict ledger appended to `out`, in one pass,
    /// then one stable counting pass that groups the submission indices
    /// by owner.
    pub(super) fn fill(
        &mut self,
        shared: &HookShared,
        dir: Direction,
        batch: &mut Vec<Datagram>,
        out: &mut Vec<(Ipv4Header, HookOutcome)>,
    ) {
        let (n, nw) = (shared.n_shards, shared.n_workers);
        self.next = 0;
        self.items.clear();
        self.ends.clear();
        self.ends.resize(nw, 0);
        for Datagram { header, payload } in batch.drain(..) {
            let (si, tuple) = match dir {
                Direction::Output => {
                    let tuple = tuple_for(&header, &payload);
                    (tx_shard(n, tuple.as_ref()), tuple)
                }
                Direction::Input => (rx_shard(n, &payload), None),
            };
            self.ends[si % nw] += 1;
            self.items.push(Item { payload, si, tuple });
            // Fail-closed (and allocation-free) until the item that owns
            // the index writes its final verdict.
            out.push((header, HookOutcome::Reject(RejectReason::Unanswered)));
        }
        // Counts -> starts; the placement below walks each start up to
        // its share's end.
        let mut start = 0;
        for e in self.ends.iter_mut() {
            let count = std::mem::replace(e, start);
            start += count;
        }
        self.order.clear();
        self.order.resize(self.items.len(), 0);
        for (i, item) in self.items.iter().enumerate() {
            let at = &mut self.ends[item.si % nw];
            self.order[*at] = i;
            *at += 1;
        }
    }

    /// Whether owner `w` has work. The cursor stands at the start of its
    /// share: shares are run in owner order, each to its end.
    pub(super) fn has_work(&self, w: usize) -> bool {
        self.next < self.ends[w]
    }
}

/// The caller's side of a batch in flight, lent to whichever owner is
/// running: the settings read at its start, the staged batch, the
/// verdict ledger by submission index, and the caller's pool.
pub(super) struct Flight<'a> {
    pub(super) dir: Direction,
    pub(super) now_us: u64,
    pub(super) settings: &'a Settings,
    pub(super) run: &'a mut Run,
    pub(super) out: &'a mut [(Ipv4Header, HookOutcome)],
    pub(super) pool: &'a mut BufferPool,
}

/// Buffers drawn from `pool` and not yet back (negative once it has
/// been handed buffers it never issued).
fn outstanding(pool: &BufferPool) -> i64 {
    let s = pool.stats();
    (s.hits + s.misses) as i64 - (s.returns + s.discards) as i64
}

/// Refresh owner `w`'s cached parking depths from its owned shards
/// (once per finished share of a batch or control action, never per
/// datagram).
fn refresh_park_depths(shared: &HookShared, w: usize, shards: &[Shard]) {
    let mut out = 0usize;
    let mut inp = 0usize;
    for s in shards {
        out += s.out_park.len();
        inp += s.in_park.len();
    }
    shared.park_depths[w].out.store(out, Ordering::Release);
    shared.park_depths[w].inp.store(inp, Ordering::Release);
}

/// Everything a shard owner keeps across panic-supervision boundaries.
/// Held outside `catch_unwind` — behind its `HookShared::owners` mutex —
/// so a supervised panic never loses shard state or buffers staged for
/// recycling.
#[derive(Default)]
pub(super) struct Owner {
    shards: Vec<Shard>,
    /// Buffers with no pool in hand to go back to (park evictions when
    /// a control call quarantines); the next batch or release drains
    /// them into its caller's pool.
    pending_recycle: Vec<Vec<u8>>,
    /// Bumped per respawn; salts rebuilt shard seeds.
    generation: u64,
    /// Supervised respawns so far (compared against [`MAX_RESPAWNS`]).
    respawns: u32,
}

impl Owner {
    pub(super) fn new(shards: Vec<Shard>) -> Self {
        Owner {
            shards,
            ..Owner::default()
        }
    }
}

/// One supervised pass over what is left of owner `w`'s share
/// (`order[next..ends[w]]`): run the remaining items to completion, or —
/// with `reject`, the quarantine path — give every one of them a
/// `Reject`, so the ledger is complete either way. Shard `si` lives at
/// local index `si / W` (the grouping only routes `si ≡ w (mod W)`
/// here). Everything happens IN PLACE on the caller's flight: an unwind
/// leaves the cursor and every untouched buffer intact for
/// [`abort_current_item`].
fn finish_current(
    shared: &HookShared,
    w: usize,
    state: &mut Owner,
    flight: &mut Flight<'_>,
    reject: bool,
) {
    let Owner {
        shards,
        pending_recycle,
        ..
    } = state;
    let settings = flight.settings;
    let pass = Pass {
        shared,
        counts: &shared.blocks[w],
        cfg: &settings.cfg,
        obs: &settings.obs,
        now_us: flight.now_us,
    };
    flight.run.mark = outstanding(flight.pool);
    // The chaos tap comes first, on every pass (a quarantined owner's
    // and a tail-only retry too), so an injected panic unwinds with the
    // cursor at the first unprocessed item — it then costs exactly one
    // Reject.
    if let Some(chaos) = &settings.chaos {
        if chaos.take_panic(w, pass.now_us) {
            panic!("injected owner panic (chaos)");
        }
    }
    let busy = settings
        .obs
        .as_ref()
        .filter(|_| !reject)
        .map(|_| StageTimer::start());
    while flight.run.next < flight.run.ends[w] {
        flight.run.mark = outstanding(flight.pool);
        let i = flight.run.order[flight.run.next];
        let item = &mut flight.run.items[i];
        let payload = std::mem::take(&mut item.payload);
        let (header, verdict) = &mut flight.out[i];
        *verdict = if reject {
            flight.pool.put(payload);
            HookOutcome::Reject(RejectReason::OwnerQuarantined)
        } else {
            let shard = &mut shards[item.si / shared.n_workers];
            match flight.dir {
                Direction::Output => {
                    output_item(&pass, shard, header, payload, item.tuple, flight.pool)
                }
                Direction::Input => input_item(&pass, shard, header, payload, flight.pool),
            }
        };
        flight.run.next += 1;
    }
    flight.pool.put_all(pending_recycle);
    refresh_park_depths(shared, w, shards);
    if !reject {
        pass.counts.incr(Counter::WorkerBatches);
    }
    // Timing is a sample, like a span: only an observed pass pays for
    // the clock reads.
    if let Some(busy) = busy {
        pass.counts.add(Counter::WorkerBusyNs, busy.elapsed_ns());
    }
}

/// Post-panic cleanup for the item the unwind interrupted: give it a
/// `Reject` verdict and close its pool ledger entry. A rejected item
/// holds no buffer, so exactly one buffer fewer must be outstanding than
/// at its start: the payload goes back if the unwind left it intact
/// (the panic struck before the item took it), and fresh buffers of the
/// pool's standard capacity stand in for whatever the unwind freed —
/// the pool only counts buffers, not identities.
fn abort_current_item(flight: &mut Flight<'_>) {
    let i = flight.run.order[flight.run.next];
    let payload = std::mem::take(&mut flight.run.items[i].payload);
    if payload.capacity() != 0 {
        flight.pool.put(payload);
    }
    flight.out[i].1 = HookOutcome::Reject(RejectReason::OwnerPanicked);
    while outstanding(flight.pool) >= flight.run.mark {
        flight
            .pool
            .put(Vec::with_capacity(fbs_core::pool::DEFAULT_BUF_CAPACITY));
    }
    flight.run.next += 1;
}

/// Rebuild every shard this owner holds after a supervised panic. Hard
/// state that cannot be trusted (FST rows, flow-key caches, codec
/// confounder positions) is discarded — it is all soft state by design
/// (§5.3) and re-warms through normal misses. Parked datagrams are NOT
/// soft state (they are caller data) and survive the rebuild; their
/// deadlines keep ticking in the carried-over queues.
fn rebuild_shards(shared: &HookShared, w: usize, state: &mut Owner) {
    state.generation += 1;
    // The registry as published now (a respawn is rare; a control call
    // that panicked has no batch snapshot to hand).
    let settings = shared.settings.snapshot();
    let obs = &settings.get().obs;
    let old = std::mem::take(&mut state.shards);
    for (local, old_shard) in old.into_iter().enumerate() {
        let si = w + local * shared.n_workers;
        let mut fresh = shared.build_shard(si, state.generation);
        fresh.out_park = old_shard.out_park;
        fresh.in_park = old_shard.in_park;
        if let Some(reg) = obs {
            cascade_obs(&mut fresh, reg);
        }
        state.shards.push(fresh);
    }
    refresh_park_depths(shared, w, &state.shards);
}

/// The control plane: what a caller may do to an owner besides run a
/// batch through it. Each runs through [`HookShared::with_owner`], so a
/// quarantined owner still answers all of them.
impl Owner {
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

    /// Combined-table chunks allocated over owned shards.
    #[cfg(test)]
    pub(super) fn combined_chunks(&self) -> usize {
        self.shards.iter().map(|s| s.combined.chunks_owned()).sum()
    }

    /// RFKC chunks allocated over owned shards.
    #[cfg(test)]
    pub(super) fn rfkc_chunks(&self) -> usize {
        self.shards.iter().map(|s| s.rfkc.chunks_owned()).sum()
    }

    /// Heap bytes of the (combined-table, RFKC) slots over owned shards:
    /// directories and chunks.
    #[cfg(test)]
    pub(super) fn table_bytes(&self) -> (u64, u64) {
        let combined = self.shards.iter().map(|s| s.combined.table_bytes());
        let rfkc = self.shards.iter().map(|s| s.rfkc.table_bytes());
        (combined.sum(), rfkc.sum())
    }

    /// The deepest (output, input) parking queue over owned shards.
    pub(super) fn park_peaks(&self) -> (usize, usize) {
        let peak = |q: &fbs_core::ParkingQueue<_>| q.peak_depth();
        self.shards.iter().fold((0, 0), |(o, i), s| {
            (o.max(peak(&s.out_park)), i.max(peak(&s.in_park)))
        })
    }

    /// Run the park release loop for one direction, as owner `w`, under
    /// the caller's `settings` and on its `pool`.
    pub(super) fn release(
        &mut self,
        shared: &HookShared,
        settings: &Settings,
        w: usize,
        dir: Direction,
        now_us: u64,
        pool: &mut BufferPool,
    ) -> Vec<(Ipv4Header, Vec<u8>)> {
        let counts = &shared.blocks[w];
        let released = release_parked(
            shared,
            settings,
            counts,
            &mut self.shards,
            dir,
            now_us,
            pool,
        );
        pool.put_all(&mut self.pending_recycle);
        refresh_park_depths(shared, w, &self.shards);
        released
    }
}

/// Enter fail-closed terminal mode: the owner stays, but it rejects
/// every datagram — first what is left of the share the panic
/// interrupted. Parked datagrams are evicted — their keys will never
/// arrive on an owner that stopped processing — and their buffers wait
/// in `pending_recycle` for the next caller with a pool.
fn quarantine(shared: &HookShared, w: usize, state: &mut Owner) {
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
/// panic count it, respawn (within [`MAX_RESPAWNS`]) or quarantine, and
/// return `None` — the caller decides what the panic cost (a batch in
/// flight: [`run_inline`] rejects the interrupted datagram and runs the
/// rest under a fresh boundary). Catching the unwind HERE keeps it out
/// of the caller's stack and the owner's mutex unpoisoned. Respawn
/// rebuilds shard state in place; quarantine is a mode switch, not an
/// exit.
fn supervise<T>(
    shared: &HookShared,
    w: usize,
    state: &mut Owner,
    body: impl FnOnce(&mut Owner, bool) -> T,
) -> Option<T> {
    let quarantined = shared.quarantined[w].load(Ordering::Acquire);
    // AssertUnwindSafe: `state` (and whatever `body` borrows of the
    // caller's flight) lives outside the boundary by design — the
    // potentially inconsistent pieces are repaired before anyone
    // observes them: shard state here via `rebuild_shards`, the
    // interrupted item's verdict and buffers by `abort_current_item`.
    if let Ok(v) = catch_unwind(AssertUnwindSafe(|| body(&mut *state, quarantined))) {
        return Some(v);
    }
    shared.blocks[w].incr(Counter::WorkerPanics);
    if state.respawns < MAX_RESPAWNS {
        state.respawns += 1;
        shared.blocks[w].incr(Counter::WorkerRespawns);
        rebuild_shards(shared, w, state);
    } else {
        quarantine(shared, w, state);
    }
    None
}

/// Finish owner `w`'s share of the batch in flight on the calling
/// thread, which holds the lock on `state`, under the supervisor — a
/// panic costs its datagram a `Reject` and never unwinds into the
/// caller. Always terminates: every panic with a datagram left consumes
/// that datagram, and one with none left (the pass's tail) is retried
/// [`TAIL_RETRIES`] times. Every verdict an item writes is final, so one
/// written before an unfinished tail stands.
pub(super) fn run_inline(
    shared: &HookShared,
    w: usize,
    state: &mut Owner,
    flight: &mut Flight<'_>,
) {
    let mut tail_panics = 0;
    while tail_panics < TAIL_RETRIES {
        let pass = |st: &mut Owner, rej| finish_current(shared, w, st, flight, rej);
        if supervise(shared, w, state, pass).is_some() {
            return;
        }
        if flight.run.next < flight.run.ends[w] {
            abort_current_item(flight);
        } else {
            tail_panics += 1;
        }
    }
}

impl HookShared {
    /// The control plane's one entry: lock owner `w`, run `op` on its
    /// state on the calling thread, supervised. A panic inside `op` is
    /// handled like any other (respawn or quarantine) and reads as
    /// `WorkerUnavailable`.
    pub(super) fn with_owner<T>(
        &self,
        w: usize,
        op: impl FnOnce(&mut Owner) -> T,
    ) -> Result<T, RuntimeError> {
        supervise(self, w, &mut self.owners[w].lock(), |st, _| op(st))
            .ok_or(RuntimeError::WorkerUnavailable { worker: w })
    }
}
