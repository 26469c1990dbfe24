//! Typed health conditions derived from a metrics snapshot.
//!
//! Counters tell you what happened; operators need to know what is
//! *wrong*. A [`HealthModel`] turns a [`MetricsSnapshot`] plus a few
//! live inputs (queue depths, capacities, a recovery ratio) into typed
//! [`Condition`]s with a three-level status, so the chaos soak can
//! report "breaker open, park queue at 80%" instead of a counter dump.
//! Evaluation is pure (snapshot in, report out) and deterministic, so
//! health timelines can live inside the seeded, byte-identical
//! BENCH_chaos.json.

use crate::snapshot::MetricsSnapshot;

/// Severity of a health condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Within normal bounds.
    Ok,
    /// Degraded but operating (e.g. breaker open, queue filling).
    Degraded,
    /// Losing work or inconsistent bookkeeping.
    Critical,
}

impl HealthStatus {
    /// Lower-case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }
}

/// The conditions the model evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionKind {
    /// More breaker-open transitions than closes in the evaluated
    /// snapshot: the keying plane degraded during that window (on a
    /// cumulative snapshot, some breaker is likely still open).
    BreakerOpen,
    /// A parking queue's depth is at or past the near-capacity
    /// threshold (critical once some queue is full). Judged purely on
    /// the *live depth* inputs — overflow counters in the snapshot do
    /// not latch this condition, so a phase that ends with drained
    /// queues reports Ok even if overflows happened mid-phase (those
    /// remain visible in `park.overflow`).
    ParkNearCapacity,
    /// Buffer-pool ledger: takes vs returns+discards. A large
    /// outstanding balance is a leak in progress (degraded). Returns
    /// exceeding takes is normal in bounded amounts — pools absorb
    /// foreign buffers such as wires arriving off the network — but an
    /// excess past the same threshold means unaccounted buffers are
    /// flooding in (critical).
    PoolLedgerImbalance,
    /// Post-fault recovery ratio below the configured floor.
    RecoveryRatioLow,
    /// The flight recorder overwrote history (ring overflow).
    EventsDropped,
    /// Worker threads quarantined after exhausting their respawn
    /// budget (fail-closed on their shards). Degraded while any worker
    /// is quarantined; critical once every worker is.
    WorkerQuarantined,
    /// Soft-state memory budgets under pressure. Degraded once usage
    /// passes the near-limit percentage of the worst shard's budget;
    /// critical once usage is past the limit itself (budget-driven
    /// eviction could not keep up). Judged on live byte inputs; a
    /// budget-less runtime (limit 0) skips the condition.
    MemoryBudgetExceeded,
}

impl ConditionKind {
    /// Snake-case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            ConditionKind::BreakerOpen => "breaker_open",
            ConditionKind::ParkNearCapacity => "park_near_capacity",
            ConditionKind::PoolLedgerImbalance => "pool_ledger_imbalance",
            ConditionKind::RecoveryRatioLow => "recovery_ratio_low",
            ConditionKind::EventsDropped => "events_dropped",
            ConditionKind::WorkerQuarantined => "worker_quarantined",
            ConditionKind::MemoryBudgetExceeded => "memory_budget_exceeded",
        }
    }
}

/// One evaluated condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Which condition.
    pub kind: ConditionKind,
    /// Its status.
    pub status: HealthStatus,
    /// The measured value the status was derived from (meaning depends
    /// on the kind: open breaker count, queue depth, outstanding
    /// buffers, recovery ratio in percent, dropped events).
    pub value: u64,
    /// The threshold the value was judged against (0 when the
    /// condition is boolean).
    pub threshold: u64,
}

impl Condition {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"status\":\"{}\",\"value\":{},\"threshold\":{}}}",
            self.kind.name(),
            self.status.name(),
            self.value,
            self.threshold
        )
    }
}

/// Live inputs a snapshot alone cannot provide.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthInputs {
    /// Deepest single parking queue right now. Per-queue (not summed
    /// across queues): one full queue is turning work away even while
    /// its siblings sit empty, and a sum-vs-aggregate comparison would
    /// mask that.
    pub park_depth: u64,
    /// Per-queue parking capacity (0 = unknown, skips the condition).
    pub park_capacity: u64,
    /// Recovery ratio in percent (delivered/sent × 100), if the caller
    /// is in a phase where it is meaningful.
    pub recovery_ratio_pct: Option<u64>,
    /// Workers currently quarantined (fail-closed after exhausting
    /// their respawn budget).
    pub workers_quarantined: u64,
    /// Total workers in the runtime (0 = unknown / not a worker
    /// runtime, skips the quarantine condition).
    pub workers_total: u64,
    /// Resident soft-state bytes of the most-loaded shard budget (the
    /// per-shard view for the same reason as `park_depth`: one shard
    /// evicting in a storm matters even while its siblings are idle).
    pub mem_used_bytes: u64,
    /// That shard's byte ceiling (0 = unbudgeted, skips the memory
    /// condition).
    pub mem_limit_bytes: u64,
}

/// Evaluated health: overall status plus per-condition detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Worst status across all conditions.
    pub overall: HealthStatus,
    /// Every evaluated condition (including Ok ones, so timelines have
    /// a stable shape).
    pub conditions: Vec<Condition>,
}

impl HealthReport {
    /// Condition by kind.
    pub fn condition(&self, kind: ConditionKind) -> Option<&Condition> {
        self.conditions.iter().find(|c| c.kind == kind)
    }

    /// Render as one JSON object:
    /// `{"overall":"..","conditions":[..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"overall\":\"{}\"", self.overall.name()));
        out.push_str(",\"conditions\":[");
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// The health model: thresholds plus the evaluation rules.
#[derive(Debug, Clone, Copy)]
pub struct HealthModel {
    /// Park queue depth (percent of capacity) at which the condition
    /// degrades.
    pub park_near_capacity_pct: u64,
    /// Recovery ratio floor, percent.
    pub min_recovery_ratio_pct: u64,
    /// Outstanding pool buffers (takes − returns − discards) above
    /// which the ledger condition degrades.
    pub max_outstanding_buffers: u64,
    /// Memory budget usage (percent of the shard limit) at which the
    /// memory condition degrades; past 100% it is critical.
    pub mem_budget_pct: u64,
}

impl Default for HealthModel {
    fn default() -> Self {
        HealthModel {
            park_near_capacity_pct: 80,
            min_recovery_ratio_pct: 90,
            max_outstanding_buffers: 4096,
            mem_budget_pct: 90,
        }
    }
}

impl HealthModel {
    /// Evaluate every condition against `snap` and `inputs`.
    pub fn evaluate(&self, snap: &MetricsSnapshot, inputs: &HealthInputs) -> HealthReport {
        let mut conditions = Vec::with_capacity(8);

        // Breaker: opens vs closes tells us how many breakers are
        // currently open (each open is eventually matched by a close).
        let opened = snap.counter("breaker.opened");
        let closed = snap.counter("breaker.closed");
        let open_now = opened.saturating_sub(closed);
        conditions.push(Condition {
            kind: ConditionKind::BreakerOpen,
            status: if open_now > 0 {
                HealthStatus::Degraded
            } else {
                HealthStatus::Ok
            },
            value: open_now,
            threshold: 0,
        });

        // Park queues: live depth vs per-queue capacity, nothing else.
        // Status, value, and threshold must all derive from the same
        // measurement — latching on the snapshot's overflow counter
        // here used to report Critical with a value of 0 after the
        // queues drained, which is incoherent; overflows stay visible
        // in `park.overflow` without hijacking the depth condition.
        let park_status = if inputs.park_capacity == 0 {
            HealthStatus::Ok
        } else if inputs.park_depth >= inputs.park_capacity {
            HealthStatus::Critical
        } else if inputs.park_depth * 100 >= inputs.park_capacity * self.park_near_capacity_pct {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        conditions.push(Condition {
            kind: ConditionKind::ParkNearCapacity,
            status: park_status,
            value: inputs.park_depth,
            threshold: inputs.park_capacity * self.park_near_capacity_pct / 100,
        });

        // Pool ledger: a large outstanding balance (takes far ahead of
        // returns+discards) is a leak forming. The reverse — returns
        // ahead of takes — is normal in bounded amounts, because pools
        // also absorb buffers they never vended (wires arriving off
        // the network are recycled into the receive pool); it only
        // turns critical past the same threshold, when unaccounted
        // buffers are flooding in.
        let takes = snap.counter("pool.hits") + snap.counter("pool.misses");
        let returned = snap.counter("pool.returns") + snap.counter("pool.discards");
        let (ledger_status, ledger_value) = if returned > takes {
            let excess = returned - takes;
            (
                if excess > self.max_outstanding_buffers {
                    HealthStatus::Critical
                } else {
                    HealthStatus::Ok
                },
                excess,
            )
        } else {
            let outstanding = takes - returned;
            (
                if outstanding > self.max_outstanding_buffers {
                    HealthStatus::Degraded
                } else {
                    HealthStatus::Ok
                },
                outstanding,
            )
        };
        conditions.push(Condition {
            kind: ConditionKind::PoolLedgerImbalance,
            status: ledger_status,
            value: ledger_value,
            threshold: self.max_outstanding_buffers,
        });

        // Recovery ratio (only when the caller says it is meaningful).
        let (rr_status, rr_value) = match inputs.recovery_ratio_pct {
            None => (HealthStatus::Ok, 100),
            Some(pct) if pct >= self.min_recovery_ratio_pct => (HealthStatus::Ok, pct),
            Some(pct) if pct >= self.min_recovery_ratio_pct / 2 => (HealthStatus::Degraded, pct),
            Some(pct) => (HealthStatus::Critical, pct),
        };
        conditions.push(Condition {
            kind: ConditionKind::RecoveryRatioLow,
            status: rr_status,
            value: rr_value,
            threshold: self.min_recovery_ratio_pct,
        });

        // Flight-recorder overflow.
        let dropped = snap.counter("obs.events_dropped");
        conditions.push(Condition {
            kind: ConditionKind::EventsDropped,
            status: if dropped > 0 {
                HealthStatus::Degraded
            } else {
                HealthStatus::Ok
            },
            value: dropped,
            threshold: 0,
        });

        // Worker quarantine: any quarantined worker means some shards
        // fail closed (degraded service); all workers quarantined
        // means the endpoint rejects everything.
        let wq_status = if inputs.workers_total == 0 || inputs.workers_quarantined == 0 {
            HealthStatus::Ok
        } else if inputs.workers_quarantined >= inputs.workers_total {
            HealthStatus::Critical
        } else {
            HealthStatus::Degraded
        };
        conditions.push(Condition {
            kind: ConditionKind::WorkerQuarantined,
            status: wq_status,
            value: inputs.workers_quarantined,
            threshold: inputs.workers_total,
        });

        // Memory budget: live resident bytes of the worst shard vs its
        // ceiling. Soft state keeps serving past the limit (eviction,
        // never allocation failure), so over-limit is critical pressure
        // rather than an outage; near-limit is the early warning that
        // eviction storms are close.
        let mem_degrade_at = inputs.mem_limit_bytes * self.mem_budget_pct / 100;
        let mem_status = if inputs.mem_limit_bytes == 0 {
            HealthStatus::Ok
        } else if inputs.mem_used_bytes > inputs.mem_limit_bytes {
            HealthStatus::Critical
        } else if inputs.mem_used_bytes >= mem_degrade_at {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        conditions.push(Condition {
            kind: ConditionKind::MemoryBudgetExceeded,
            status: mem_status,
            value: inputs.mem_used_bytes,
            threshold: mem_degrade_at,
        });

        let overall = conditions
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(HealthStatus::Ok);
        HealthReport {
            overall,
            conditions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_healthy() {
        let report =
            HealthModel::default().evaluate(&MetricsSnapshot::new(), &HealthInputs::default());
        assert_eq!(report.overall, HealthStatus::Ok);
        assert_eq!(report.conditions.len(), 7);
        assert!(report
            .conditions
            .iter()
            .all(|c| c.status == HealthStatus::Ok));
    }

    #[test]
    fn open_breaker_degrades() {
        let mut s = MetricsSnapshot::new();
        s.add("breaker.opened", 2);
        s.add("breaker.closed", 1);
        let report = HealthModel::default().evaluate(&s, &HealthInputs::default());
        assert_eq!(report.overall, HealthStatus::Degraded);
        let c = report.condition(ConditionKind::BreakerOpen).unwrap();
        assert_eq!(c.status, HealthStatus::Degraded);
        assert_eq!(c.value, 1);
    }

    #[test]
    fn park_depth_thresholds() {
        let model = HealthModel::default();
        let snap = MetricsSnapshot::new();
        let ok = model.evaluate(
            &snap,
            &HealthInputs {
                park_depth: 10,
                park_capacity: 64,
                ..HealthInputs::default()
            },
        );
        assert_eq!(
            ok.condition(ConditionKind::ParkNearCapacity)
                .unwrap()
                .status,
            HealthStatus::Ok
        );
        let near = model.evaluate(
            &snap,
            &HealthInputs {
                park_depth: 52,
                park_capacity: 64,
                ..HealthInputs::default()
            },
        );
        assert_eq!(
            near.condition(ConditionKind::ParkNearCapacity)
                .unwrap()
                .status,
            HealthStatus::Degraded
        );
        let full = model.evaluate(
            &snap,
            &HealthInputs {
                park_depth: 64,
                park_capacity: 64,
                ..HealthInputs::default()
            },
        );
        assert_eq!(
            full.condition(ConditionKind::ParkNearCapacity)
                .unwrap()
                .status,
            HealthStatus::Critical
        );
        // Historical overflows must NOT latch the condition: a drained
        // queue (depth 0) is healthy regardless of what the counters
        // say happened earlier in the window.
        let mut overflowed = MetricsSnapshot::new();
        overflowed.add("park.overflow", 22);
        let drained = model.evaluate(
            &overflowed,
            &HealthInputs {
                park_depth: 0,
                park_capacity: 64,
                ..HealthInputs::default()
            },
        );
        let c = drained.condition(ConditionKind::ParkNearCapacity).unwrap();
        assert_eq!(c.status, HealthStatus::Ok);
        assert_eq!(c.value, 0);
    }

    #[test]
    fn worker_quarantine_bands() {
        let model = HealthModel::default();
        let snap = MetricsSnapshot::new();
        let mk = |q, total| HealthInputs {
            workers_quarantined: q,
            workers_total: total,
            ..HealthInputs::default()
        };
        let get = |q, total| {
            model
                .evaluate(&snap, &mk(q, total))
                .condition(ConditionKind::WorkerQuarantined)
                .unwrap()
                .status
        };
        assert_eq!(get(0, 4), HealthStatus::Ok);
        // Unknown runtime size: skipped, never alarms.
        assert_eq!(get(3, 0), HealthStatus::Ok);
        assert_eq!(get(1, 4), HealthStatus::Degraded);
        assert_eq!(get(4, 4), HealthStatus::Critical);
    }

    #[test]
    fn memory_budget_bands() {
        let model = HealthModel::default();
        let snap = MetricsSnapshot::new();
        let get = |used: u64, limit: u64| {
            let inputs = HealthInputs {
                mem_used_bytes: used,
                mem_limit_bytes: limit,
                ..HealthInputs::default()
            };
            model
                .evaluate(&snap, &inputs)
                .condition(ConditionKind::MemoryBudgetExceeded)
                .unwrap()
                .clone()
        };
        // Unbudgeted runtime: skipped, never alarms.
        assert_eq!(get(1 << 30, 0).status, HealthStatus::Ok);
        assert_eq!(get(500, 1_000).status, HealthStatus::Ok);
        // 90% of limit: eviction storms are close.
        let near = get(900, 1_000);
        assert_eq!(near.status, HealthStatus::Degraded);
        assert_eq!(near.threshold, 900);
        // At the limit exactly: budget-driven eviction holds the line.
        assert_eq!(get(1_000, 1_000).status, HealthStatus::Degraded);
        // Past the limit: eviction could not keep up.
        assert_eq!(get(1_001, 1_000).status, HealthStatus::Critical);
        let json = model
            .evaluate(
                &snap,
                &HealthInputs {
                    mem_used_bytes: 2_000,
                    mem_limit_bytes: 1_000,
                    ..HealthInputs::default()
                },
            )
            .to_json();
        assert!(json.contains("\"kind\":\"memory_budget_exceeded\""));
        assert!(json.contains("\"overall\":\"critical\""));
    }

    #[test]
    fn pool_ledger_detects_corruption_and_leak() {
        let model = HealthModel::default();
        // Bounded foreign-buffer absorption (returns a little ahead of
        // takes) is normal; a flood past the threshold is corruption.
        let mut absorbing = MetricsSnapshot::new();
        absorbing.add("pool.hits", 1);
        absorbing.add("pool.returns", 3);
        let report = model.evaluate(&absorbing, &HealthInputs::default());
        let c = report
            .condition(ConditionKind::PoolLedgerImbalance)
            .unwrap();
        assert_eq!(c.status, HealthStatus::Ok);
        assert_eq!(c.value, 2);
        let mut corrupt = MetricsSnapshot::new();
        corrupt.add("pool.hits", 1);
        corrupt.add("pool.returns", 10_000);
        let report = model.evaluate(&corrupt, &HealthInputs::default());
        assert_eq!(
            report
                .condition(ConditionKind::PoolLedgerImbalance)
                .unwrap()
                .status,
            HealthStatus::Critical
        );
        let mut leaking = MetricsSnapshot::new();
        leaking.add("pool.misses", 10_000);
        leaking.add("pool.returns", 100);
        let report = model.evaluate(&leaking, &HealthInputs::default());
        let c = report
            .condition(ConditionKind::PoolLedgerImbalance)
            .unwrap();
        assert_eq!(c.status, HealthStatus::Degraded);
        assert_eq!(c.value, 9_900);
    }

    #[test]
    fn recovery_ratio_bands() {
        let model = HealthModel::default();
        let snap = MetricsSnapshot::new();
        let mk = |pct| HealthInputs {
            recovery_ratio_pct: Some(pct),
            ..HealthInputs::default()
        };
        assert_eq!(
            model
                .evaluate(&snap, &mk(95))
                .condition(ConditionKind::RecoveryRatioLow)
                .unwrap()
                .status,
            HealthStatus::Ok
        );
        assert_eq!(
            model
                .evaluate(&snap, &mk(70))
                .condition(ConditionKind::RecoveryRatioLow)
                .unwrap()
                .status,
            HealthStatus::Degraded
        );
        assert_eq!(
            model
                .evaluate(&snap, &mk(10))
                .condition(ConditionKind::RecoveryRatioLow)
                .unwrap()
                .status,
            HealthStatus::Critical
        );
    }

    #[test]
    fn events_dropped_surfaces_and_json_shape() {
        let mut s = MetricsSnapshot::new();
        s.add("obs.events_dropped", 12);
        let report = HealthModel::default().evaluate(&s, &HealthInputs::default());
        let c = report.condition(ConditionKind::EventsDropped).unwrap();
        assert_eq!(c.status, HealthStatus::Degraded);
        assert_eq!(c.value, 12);
        let json = report.to_json();
        assert!(json.contains("\"overall\":\"degraded\""));
        assert!(json.contains("\"kind\":\"events_dropped\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
