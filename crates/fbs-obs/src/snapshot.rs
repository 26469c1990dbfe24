//! Point-in-time metric views and exporters.
//!
//! A [`MetricsSnapshot`] can be produced two ways: live from a
//! [`crate::MetricsRegistry`] (its own counter block plus every attached
//! one), or assembled from the stats of components no registry reads
//! via their `contribute` methods (the figure simulators' caches and
//! FAMs). Both paths use the same counter namespace, so every figure
//! binary and example reports through one pipeline regardless of
//! whether it ran instrumented.

use crate::event::EventRecord;
use std::collections::BTreeMap;

/// A materialised log2 histogram: non-empty `(lo, hi, count)` buckets
/// plus the exact sum of all observed values (the buckets alone only
/// bound it, and the Prometheus exposition needs the true `_sum`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket bounds and the sample count per bucket.
    pub buckets: Vec<(u64, u64, u64)>,
    /// Sum of every observed value.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|(_, _, c)| c).sum()
    }

    /// Merge another histogram's buckets into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(lo, hi, count) in &other.buckets {
            match self.buckets.iter_mut().find(|(l, _, _)| *l == lo) {
                Some((_, _, c)) => *c += count,
                None => self.buckets.push((lo, hi, count)),
            }
        }
        self.buckets.sort_unstable_by_key(|&(lo, _, _)| lo);
        self.sum += other.sum;
    }
}

/// A point-in-time view of the metric namespace.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Scalar counters, keyed `component.metric`.
    pub counters: BTreeMap<String, u64>,
    /// Log2 histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Flight-recorder contents, oldest first (empty for snapshots
    /// assembled from legacy stats).
    pub events: Vec<EventRecord>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        if n > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Read a counter; missing counters read as 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one (counters and histograms
    /// add; events concatenate in order).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.events.extend(other.events.iter().copied());
    }

    /// Render the full snapshot as one JSON object:
    /// `{"counters":{..},"histograms":{..},"events":[..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", json_escape(name)));
            for (j, (lo, hi, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{count}}}"));
            }
            out.push(']');
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Render counters and histogram summaries as a right-aligned text
    /// table (the `fbs-trace::stats::render_table` idiom).
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), v.to_string()))
            .collect();
        for (name, h) in &self.histograms {
            rows.push((format!("{name} (samples)"), h.count().to_string()));
        }
        if !self.events.is_empty() {
            rows.push(("events recorded".to_string(), self.events.len().to_string()));
        }
        let headers = ("metric", "value");
        let w0 = rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([headers.0.len()])
            .max()
            .unwrap_or(0);
        let w1 = rows
            .iter()
            .map(|(_, v)| v.len())
            .chain([headers.1.len()])
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str(&format!("{:<w0$}  {:>w1$}\n", headers.0, headers.1));
        out.push_str(&format!("{}  {}\n", "-".repeat(w0), "-".repeat(w1)));
        for (name, v) in rows {
            out.push_str(&format!("{name:<w0$}  {v:>w1$}\n"));
        }
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventRecord};

    #[test]
    fn add_and_merge() {
        let mut a = MetricsSnapshot::new();
        a.add("endpoint.sends", 3);
        let mut b = MetricsSnapshot::new();
        b.add("endpoint.sends", 2);
        b.add("endpoint.receives", 1);
        b.histograms.insert(
            "send_bytes".into(),
            HistogramSnapshot {
                buckets: vec![(0, 1, 4)],
                sum: 4,
            },
        );
        a.merge(&b);
        assert_eq!(a.counter("endpoint.sends"), 5);
        assert_eq!(a.counter("endpoint.receives"), 1);
        assert_eq!(a.counter("missing"), 0);
        assert_eq!(a.histograms["send_bytes"].count(), 4);
        assert_eq!(a.histograms["send_bytes"].sum, 4);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut s = MetricsSnapshot::new();
        s.add("endpoint.sends", 1);
        s.histograms.insert(
            "send_bytes".into(),
            HistogramSnapshot {
                buckets: vec![(64, 127, 1)],
                sum: 100,
            },
        );
        s.events.push(EventRecord {
            seq: 1,
            t_us: 0,
            event: Event::ParkExpired,
        });
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"endpoint.sends\":1"));
        assert!(json.contains("\"lo\":64,\"hi\":127,\"count\":1"));
        assert!(json.contains("\"type\":\"park_expired\""));
        // Balanced braces/brackets (no strings contain them).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn table_renders_all_rows() {
        let mut s = MetricsSnapshot::new();
        s.add("endpoint.sends", 12);
        s.add("fam.classifications", 3);
        let table = s.render_table();
        assert!(table.contains("endpoint.sends"));
        assert!(table.contains("12"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
