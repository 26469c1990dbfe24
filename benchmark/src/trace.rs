//! Span recorder for the traced run, and the `SecurityHooks` wrapper
//! that times the hooks from outside `fbs-ip`.
//!
//! A span is `{name, start_ns, end_ns, parent, burst_id, allocs}`; spans
//! stay in memory until the run ends. Self time of a span is its
//! duration minus its children's.

use crate::alloc;
use fbs_core::BufferPool;
use fbs_ip::FbsIpHooks;
use fbs_net::ip::Ipv4Header;
use fbs_net::{Datagram, HookOutcome, SecurityHooks};
use fbs_obs::Direction;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The burst the span belongs to.
    pub burst_id: u32,
    /// Heap allocations made by any thread while the span was open.
    pub allocs: u64,
}

/// Time and allocations attributed to one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCost {
    /// Span time minus children's, ns.
    pub self_ns: u64,
    /// Allocations minus children's.
    pub self_allocs: u64,
    /// Span time including children, ns.
    pub total_ns: u64,
}

/// In-memory span store.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    burst_id: u32,
    burst_start_ns: u64,
    /// Σ wall time of recorded bursts, ns.
    pub burst_wall_ns: u64,
    /// Datagrams in recorded bursts.
    pub datagrams: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            burst_id: 0,
            burst_start_ns: 0,
            burst_wall_ns: 0,
            datagrams: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Mark the start of a burst of `n` datagrams.
    pub fn begin_burst(&mut self, n: usize) {
        self.burst_id += 1;
        self.datagrams += n as u64;
        self.burst_start_ns = self.now_ns();
    }

    /// Mark the end of the burst.
    pub fn end_burst(&mut self) {
        self.burst_wall_ns += self.now_ns() - self.burst_start_ns;
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            burst_id: self.burst_id,
            allocs: alloc::allocs(),
        });
        self.open.push(id);
        // Read the clock last, so the recorder's own work stays outside
        // the span.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.allocs = alloc::allocs() - s.allocs;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded from index `from` on.
    pub fn spans_from(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Cost per span name, children subtracted from their parents.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
                child_allocs[p as usize] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            c.total_ns += dur;
            c.self_ns += dur.saturating_sub(child_ns[i]);
            c.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Σ top-level span time ÷ Σ burst wall time: 1 when every part of
    /// the closed loop sits inside some span.
    pub fn closure(&self) -> f64 {
        let top: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        top as f64 / self.burst_wall_ns.max(1) as f64
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"burst_id\": {}, \"allocs\": {}}}",
                s.name, s.start_ns, s.end_ns, s.burst_id, s.allocs
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// The real hooks behind a stopwatch: `process_batch` is timed as a
/// span (`hooks.out` / `hooks.in`) nested in whatever stack span the
/// driver has open, then delegated.
pub struct TimedHooks {
    inner: FbsIpHooks,
    recorder: Arc<Mutex<Recorder>>,
}

impl TimedHooks {
    /// Wrap `inner`, recording into `recorder`.
    pub fn new(inner: FbsIpHooks, recorder: Arc<Mutex<Recorder>>) -> Self {
        TimedHooks { inner, recorder }
    }
}

impl SecurityHooks for TimedHooks {
    fn covers(&self, proto: u8) -> bool {
        self.inner.covers(proto)
    }

    fn max_overhead(&self) -> usize {
        self.inner.max_overhead()
    }

    fn process_batch(
        &mut self,
        dir: Direction,
        batch: Vec<Datagram>,
        pool: &mut BufferPool,
        now_us: u64,
    ) -> Vec<(Ipv4Header, HookOutcome)> {
        let name = match dir {
            Direction::Output => "hooks.out",
            Direction::Input => "hooks.in",
        };
        let id = self.recorder.lock().expect("recorder lock").open(name);
        let out = self.inner.process_batch(dir, batch, pool, now_us);
        self.recorder.lock().expect("recorder lock").close(id);
        out
    }

    fn release_output(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.inner.release_output(now_us, pool)
    }

    fn release_input(&mut self, now_us: u64, pool: &mut BufferPool) -> Vec<(Ipv4Header, Vec<u8>)> {
        self.inner.release_input(now_us, pool)
    }
}
