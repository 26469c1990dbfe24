//! # fbs-obs — unified observability for the FBS stack
//!
//! The paper's evaluation (Figs. 8–14) is built from hand-polled
//! counters: cache hit ratios under the 3C miss model, active-flow
//! counts, per-paradigm key-setup costs. This crate gives the
//! reproduction one pipeline for all of that:
//!
//! * [`CounterBlock`] — one lock domain's counts (every [`Counter`] and
//!   the per-cache 3C counters): the only place any count is written,
//!   one writer at a time, with no locked instruction, whether or not a
//!   registry reads it. The stats structs are views over blocks;
//! * [`MetricsRegistry`] — a reader: it sums the blocks
//!   [attached](MetricsRegistry::attach) to it at scrape time, derives
//!   the rows of its [`ScrapeSource`]s from ledgers they keep (per-owner
//!   load, per-shard memory), and keeps log2 latency/size histograms,
//!   shared across components via `Arc`. It holds no counter cell;
//!   nothing pushes a copy of a count into it;
//! * a **flight recorder** — a fixed-capacity ring buffer of typed
//!   [`Event`]s that a fault or the keying plane causes (retries, breaker
//!   moves and fast-fails, parks, degradations, reassembly timeouts, MRT
//!   retransmits), timestamped by a pluggable time source so instrumented
//!   runs stay deterministic under the workspace's simulated clock. A
//!   datagram's own steps are counts and histograms, never events, so
//!   traffic cannot wash this history out;
//! * [`MetricsSnapshot`] — a point-in-time view with text-table and JSON
//!   exporters, built live from a registry, or from the stats of
//!   components no registry reads (the figure simulators' caches and
//!   FAMs) through their `contribute` methods;
//! * **stage spans** ([`Stage`]) — per-stage log2 nanosecond latency
//!   histograms over the batch pipeline (partition, seal/open,
//!   keying, park/release), recorded with two relaxed `fetch_add`s and
//!   no allocation;
//! * a **flow tracer** ([`FlowTracer`]) — deterministic sfl-sampled
//!   end-to-end traces across hosts, stamped on the simulated clock;
//! * **health + exposition** — [`HealthModel`] turns counters into
//!   typed conditions, [`prom::render`] emits Prometheus text format,
//!   and [`DeltaTracker`] produces bounded delta snapshots for long
//!   soaks.
//!
//! Observability is opt-in: components hold `Option<Arc<MetricsRegistry>>`
//! defaulting to `None`, so the disabled per-datagram cost is a single
//! branch on top of the block counts the component makes anyway. The
//! crate has zero dependencies (it sits below `fbs-core` in the
//! dependency order) and performs no I/O of its own — exporters return
//! `String`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod event;
pub mod health;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use block::{CacheStats, CounterBlock, ParkStep};
pub use event::{BreakerStateKind, CacheKind, CacheOutcome, Direction, Event, EventRecord};
pub use health::{Condition, ConditionKind, HealthInputs, HealthModel, HealthReport, HealthStatus};
pub use prom::DeltaTracker;
pub use registry::{Counter, Histogram, MetricsRegistry, ScrapeSource};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use span::{Stage, StageTimer};
pub use trace::{FlowTracer, SpanKind, TraceAnnotation, TraceSpan};
