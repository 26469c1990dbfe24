//! Scripted fault schedules: time windows × fault kinds.
//!
//! A [`FaultPlan`] is the deterministic core of every chaos run: given
//! the same windows, the same datagrams experience the same faults.
//! Injectors ([`ChaosDirectory`](crate::ChaosDirectory),
//! [`ChaosPvs`](crate::ChaosPvs)) query *state faults* ("is the
//! directory down at `now_us`?"); [`OwnerChaos`](crate::OwnerChaos)
//! arms the owner panics; the chaos runner polls *pulse faults* (cache
//! flushes, eviction storms) via
//! [`cache_pulses`](FaultPlan::cache_pulses), which edge-triggers on
//! window entry and ticks periodically for storms.

/// Which side's caches a flush/storm hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// The sending endpoint's TFKC (and combined table).
    Sender,
    /// The receiving endpoint's RFKC.
    Receiver,
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Certificate-directory fetches fail with a transport error.
    DirectoryOutage,
    /// The MKD's public-value source fails (upcall outage).
    MkdOutage,
    /// Flush TFKC/RFKC (and the combined table) once, on window entry —
    /// mid-flow soft-state loss.
    FlushCaches {
        /// Which endpoint(s) to flush.
        scope: FlushScope,
    },
    /// Repeated flushes every `period_us` for the whole window — a
    /// sustained eviction storm.
    EvictionStorm {
        /// Interval between flushes, in microseconds.
        period_us: u64,
        /// Which endpoint(s) each flush hits.
        scope: FlushScope,
    },
    /// One supervised panic, on window entry, in the named shard owner
    /// of the sending endpoint's datagram-plane runtime (edge-triggered
    /// via [`OwnerChaos`](crate::OwnerChaos)).
    OwnerPanic {
        /// Target owner index.
        owner: usize,
    },
}

impl FaultKind {
    /// Stable snake_case name for logs, flow-trace annotations, and
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DirectoryOutage => "directory_outage",
            FaultKind::MkdOutage => "mkd_outage",
            FaultKind::FlushCaches { .. } => "flush_caches",
            FaultKind::EvictionStorm { .. } => "eviction_storm",
            FaultKind::OwnerPanic { .. } => "owner_panic",
        }
    }
}

/// A fault active over `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window start (inclusive), in plan microseconds.
    pub start_us: u64,
    /// Window end (exclusive), in plan microseconds.
    pub end_us: u64,
    /// The fault injected while the window is open.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Is the window open at `now_us`?
    pub fn contains(&self, now_us: u64) -> bool {
        self.start_us <= now_us && now_us < self.end_us
    }
}

/// A scripted schedule of faults; [`FaultPlan::default`] is the empty
/// plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Add a fault window (builder style).
    pub fn with_window(mut self, start_us: u64, end_us: u64, kind: FaultKind) -> Self {
        assert!(start_us < end_us, "fault window must be non-empty");
        self.windows.push(FaultWindow {
            start_us,
            end_us,
            kind,
        });
        self
    }

    /// All scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Is a directory outage active at `now_us`?
    pub fn directory_outage(&self, now_us: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.contains(now_us) && w.kind == FaultKind::DirectoryOutage)
    }

    /// Is an MKD outage active at `now_us`?
    pub fn mkd_outage(&self, now_us: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.contains(now_us) && w.kind == FaultKind::MkdOutage)
    }

    /// Fault-window edges crossed in `(prev_us, now_us]`: `(edge,
    /// fault, t_us)` tuples with edge `"fault_start"` /
    /// `"fault_end"`, ordered by time (ties keep plan order). The soak
    /// driver forwards these to the flow tracer as annotations, so a
    /// trace shows which fault window each parked or degraded span sat
    /// inside. Edge-triggered like [`Self::cache_pulses`]: calling once
    /// per step with the previous step's time yields each edge exactly
    /// once.
    pub fn window_edges(
        &self,
        prev_us: u64,
        now_us: u64,
    ) -> Vec<(&'static str, &'static str, u64)> {
        let mut edges = Vec::new();
        for w in &self.windows {
            if prev_us < w.start_us && w.start_us <= now_us {
                edges.push(("fault_start", w.kind.name(), w.start_us));
            }
            if prev_us < w.end_us && w.end_us <= now_us {
                edges.push(("fault_end", w.kind.name(), w.end_us));
            }
        }
        edges.sort_by_key(|e| e.2);
        edges
    }

    /// Cache flushes due in `(prev_us, now_us]`: one pulse per
    /// `FlushCaches` window entered, plus one per elapsed
    /// `EvictionStorm` tick (ticks at `start + k * period` inside the
    /// window). The driver calls this once per simulation step with the
    /// previous step's time; determinism follows from the times alone.
    pub fn cache_pulses(&self, prev_us: u64, now_us: u64) -> Vec<FlushScope> {
        let mut pulses = Vec::new();
        for w in &self.windows {
            match w.kind {
                FaultKind::FlushCaches { scope }
                    if prev_us < w.start_us && w.start_us <= now_us =>
                {
                    pulses.push(scope);
                }
                FaultKind::EvictionStorm { period_us, scope } => {
                    if period_us == 0 {
                        continue;
                    }
                    // Ticks k = 0, 1, ... at start + k*period, within
                    // the window and within (prev, now].
                    let mut t = w.start_us;
                    while t < w.end_us && t <= now_us {
                        if t > prev_us {
                            pulses.push(scope);
                        }
                        t = t.saturating_add(period_us);
                    }
                }
                _ => {}
            }
        }
        pulses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::default().with_window(100, 200, FaultKind::DirectoryOutage);
        assert!(!plan.directory_outage(99));
        assert!(plan.directory_outage(100));
        assert!(plan.directory_outage(199));
        assert!(!plan.directory_outage(200));
    }

    #[test]
    fn flush_pulse_fires_once_on_entry() {
        let plan = FaultPlan::default().with_window(
            1_000,
            2_000,
            FaultKind::FlushCaches {
                scope: FlushScope::Receiver,
            },
        );
        assert!(plan.cache_pulses(0, 999).is_empty());
        assert_eq!(plan.cache_pulses(999, 1_001), vec![FlushScope::Receiver]);
        // Already inside: no re-trigger.
        assert!(plan.cache_pulses(1_001, 1_500).is_empty());
    }

    #[test]
    fn eviction_storm_ticks_periodically() {
        let plan = FaultPlan::default().with_window(
            1_000,
            1_900,
            FaultKind::EvictionStorm {
                period_us: 300,
                scope: FlushScope::Sender,
            },
        );
        // Ticks at 1000, 1300, 1600 (1900 is outside the half-open window).
        assert_eq!(plan.cache_pulses(0, 1_100).len(), 1);
        assert_eq!(plan.cache_pulses(1_100, 1_700).len(), 2);
        assert_eq!(plan.cache_pulses(1_700, 5_000).len(), 0);
        // One sweep over everything sees all three.
        assert_eq!(plan.cache_pulses(0, 5_000).len(), 3);
    }

    #[test]
    fn mkd_and_directory_faults_are_independent() {
        let plan = FaultPlan::default()
            .with_window(0, 10, FaultKind::MkdOutage)
            .with_window(20, 30, FaultKind::DirectoryOutage);
        assert!(plan.mkd_outage(5));
        assert!(!plan.directory_outage(5));
        assert!(!plan.mkd_outage(25));
        assert!(plan.directory_outage(25));
    }

    #[test]
    fn window_edges_fire_once_in_time_order() {
        let plan = FaultPlan::default()
            .with_window(100, 300, FaultKind::DirectoryOutage)
            .with_window(200, 400, FaultKind::MkdOutage);
        assert!(plan.window_edges(0, 99).is_empty());
        assert_eq!(
            plan.window_edges(99, 250),
            vec![
                ("fault_start", "directory_outage", 100),
                ("fault_start", "mkd_outage", 200),
            ]
        );
        // Edges already delivered never re-fire.
        assert_eq!(
            plan.window_edges(250, 1_000),
            vec![
                ("fault_end", "directory_outage", 300),
                ("fault_end", "mkd_outage", 400),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = FaultPlan::default().with_window(5, 5, FaultKind::DirectoryOutage);
    }
}
