//! Prometheus text exposition and delta snapshots.
//!
//! [`render`] turns a [`MetricsSnapshot`] into the Prometheus text
//! format (version 0.0.4): every counter becomes an `fbs_`-prefixed
//! counter metric, per-owner counters (`hooks.worker.<i>.<field>`)
//! collapse into one family with a `worker` label, and every log2 histogram becomes a native histogram
//! with cumulative `le` buckets plus `_sum`/`_count`. Like every
//! exporter in this crate it returns a `String`; callers do the I/O.
//!
//! [`DeltaTracker`] supports the long-soak exposition mode: it
//! remembers the previous snapshot and emits only the change since,
//! so a periodic writer produces bounded, scrape-like increments
//! instead of ever-growing absolutes.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;

/// Sanitise a hierarchical counter name into a Prometheus metric name
/// body (`a.b-c` → `a_b_c`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Split a per-worker counter key (`hooks.worker.<i>.<field>`) into
/// its field and worker index.
fn worker_key(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix("hooks.worker.")?;
    let (idx, field) = rest.split_once('.')?;
    if idx.bytes().all(|b| b.is_ascii_digit()) {
        Some((field, idx))
    } else {
        None
    }
}

/// One sample within a family: an optional `(label, value)` pair plus
/// the sample value.
type Sample = (Option<(String, String)>, u64);

/// Render `snap` in Prometheus text exposition format.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    // Family name -> samples, insertion order inherited from the
    // BTreeMap walk so output is deterministic.
    let mut families: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    for (name, v) in &snap.counters {
        match worker_key(name) {
            Some((field, idx)) => {
                families
                    .entry(format!("fbs_hooks_worker_{}", sanitize(field)))
                    .or_default()
                    .push((Some(("worker".to_string(), idx.to_string())), *v));
            }
            None => {
                families
                    .entry(format!("fbs_{}", sanitize(name)))
                    .or_default()
                    .push((None, *v));
            }
        }
    }
    for (family, samples) in &families {
        out.push_str(&format!("# HELP {family} FBS counter {family}\n"));
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (label, v) in samples {
            match label {
                Some((k, lv)) => out.push_str(&format!("{family}{{{k}=\"{lv}\"}} {v}\n")),
                None => out.push_str(&format!("{family} {v}\n")),
            }
        }
    }
    for (name, h) in &snap.histograms {
        let family = format!("fbs_{}", sanitize(name));
        out.push_str(&format!("# HELP {family} FBS log2 histogram {family}\n"));
        out.push_str(&format!("# TYPE {family} histogram\n"));
        let mut cum = 0u64;
        for &(_, hi, count) in &h.buckets {
            cum += count;
            if hi == u64::MAX {
                continue; // folded into +Inf below
            }
            out.push_str(&format!("{family}_bucket{{le=\"{hi}\"}} {cum}\n"));
        }
        out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{family}_sum {}\n", h.sum));
        out.push_str(&format!("{family}_count {}\n", h.count()));
    }
    out
}

/// Remembers the last snapshot and produces counter/histogram deltas.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    last: MetricsSnapshot,
}

impl DeltaTracker {
    /// A tracker whose first delta is the full snapshot.
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// The change from the previous call to `now` (counters and
    /// histograms subtract; events newer than the last seen sequence
    /// number carry over). `now` becomes the new baseline.
    pub fn delta(&mut self, now: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = MetricsSnapshot::new();
        for (name, v) in &now.counters {
            let prev = self.last.counter(name);
            if *v > prev {
                d.add(name, v - prev);
            }
        }
        for (name, h) in &now.histograms {
            let prev = self.last.histograms.get(name);
            let mut dh = HistogramSnapshot::default();
            for &(lo, hi, count) in &h.buckets {
                let prev_count = prev
                    .and_then(|p| p.buckets.iter().find(|(l, _, _)| *l == lo))
                    .map(|(_, _, c)| *c)
                    .unwrap_or(0);
                if count > prev_count {
                    dh.buckets.push((lo, hi, count - prev_count));
                }
            }
            dh.sum = h.sum.saturating_sub(prev.map(|p| p.sum).unwrap_or(0));
            if !dh.buckets.is_empty() {
                d.histograms.insert(name.clone(), dh);
            }
        }
        let last_seq = self.last.events.last().map(|e| e.seq).unwrap_or(0);
        d.events = now
            .events
            .iter()
            .filter(|e| e.seq > last_seq)
            .copied()
            .collect();
        self.last = now.clone();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventRecord};

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.add("endpoint.sends", 5);
        s.add("hooks.worker.0.batches", 2);
        s.add("hooks.worker.1.batches", 3);
        s.histograms.insert(
            "send_bytes".into(),
            HistogramSnapshot {
                buckets: vec![(64, 127, 2), (128, 255, 1)],
                sum: 400,
            },
        );
        s
    }

    #[test]
    fn renders_counters_histograms_and_worker_labels() {
        let text = render(&sample());
        assert!(text.contains("# TYPE fbs_endpoint_sends counter"));
        assert!(text.contains("fbs_endpoint_sends 5"));
        assert!(text.contains("fbs_hooks_worker_batches{worker=\"0\"} 2"));
        assert!(text.contains("fbs_hooks_worker_batches{worker=\"1\"} 3"));
        // One TYPE line for the whole worker family.
        assert_eq!(text.matches("# TYPE fbs_hooks_worker_batches").count(), 1);
        assert!(text.contains("# TYPE fbs_send_bytes histogram"));
        assert!(text.contains("fbs_send_bytes_bucket{le=\"127\"} 2"));
        assert!(text.contains("fbs_send_bytes_bucket{le=\"255\"} 3"));
        assert!(text.contains("fbs_send_bytes_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("fbs_send_bytes_sum 400"));
        assert!(text.contains("fbs_send_bytes_count 3"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn every_sample_line_is_well_formed() {
        // The shape the CI lint enforces: every non-comment line is
        // `name[{label="v"}] <integer>`.
        for line in render(&sample()).lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.bytes().all(|b| b.is_ascii_digit()), "{line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                "{line}"
            );
        }
    }

    #[test]
    fn delta_subtracts_and_carries_new_events() {
        let mut tracker = DeltaTracker::new();
        let mut first = sample();
        first.events.push(EventRecord {
            seq: 1,
            t_us: 0,
            event: Event::BreakerFastFail,
        });
        let d1 = tracker.delta(&first);
        assert_eq!(d1.counter("endpoint.sends"), 5);
        assert_eq!(d1.events.len(), 1);

        let mut second = sample();
        second.counters.insert("endpoint.sends".into(), 9);
        second.events.push(EventRecord {
            seq: 1,
            t_us: 0,
            event: Event::BreakerFastFail,
        });
        second.events.push(EventRecord {
            seq: 2,
            t_us: 1,
            event: Event::ParkOverflow,
        });
        second.histograms.get_mut("send_bytes").unwrap().buckets[0].2 = 4;
        second.histograms.get_mut("send_bytes").unwrap().sum = 600;
        let d2 = tracker.delta(&second);
        assert_eq!(d2.counter("endpoint.sends"), 4);
        assert_eq!(d2.counter("hooks.worker.0.batches"), 0);
        let dh = &d2.histograms["send_bytes"];
        assert_eq!(dh.buckets, vec![(64, 127, 2)]);
        assert_eq!(dh.sum, 200);
        assert_eq!(d2.events.len(), 1);
        assert_eq!(d2.events[0].seq, 2);
    }
}
