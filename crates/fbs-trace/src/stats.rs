//! Small statistics toolkit for the figure-regeneration binaries:
//! log-bucketed histograms, CDF sampling, and fixed-width text tables.
//!
//! [`LogHistogram`] shares its bucketing with the registry histograms in
//! `fbs-obs`, and converts to/from [`HistogramSnapshot`] so figure
//! binaries can export either through the same `--metrics` pipeline.

use fbs_obs::HistogramSnapshot;

/// A histogram over power-of-two buckets: bucket k holds values in
/// `[2^k, 2^(k+1))` (bucket 0 holds 0 and 1).
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// (bucket lower bound, bucket upper bound, count, cumulative fraction
    /// ≤ upper bound). Bucket 0 covers `[0, 1]`; bucket k covers
    /// `[2^k, 2^(k+1) - 1]`.
    pub fn rows(&self) -> Vec<(u64, u64, u64, f64)> {
        let mut cum = 0u64;
        self.counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                cum += c;
                let (lo, hi) = if k == 0 {
                    (0, 1)
                } else if k >= 63 {
                    (1u64 << 63, u64::MAX)
                } else {
                    (1u64 << k, (1u64 << (k + 1)) - 1)
                };
                (lo, hi, c, cum as f64 / self.total.max(1) as f64)
            })
            .collect()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// View as an [`fbs_obs::HistogramSnapshot`] (non-empty buckets only).
    /// The bucketing is identical, so the conversion is lossless.
    pub fn to_snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| {
                let lo = if k == 0 { 0 } else { 1u64 << k };
                let hi = if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
                (lo, hi, c)
            })
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum,
        }
    }

    /// Rebuild from a registry [`HistogramSnapshot`] (e.g. to reuse the
    /// CDF/percentile helpers on a live registry's latency histogram).
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        let mut h = LogHistogram::new();
        for &(lo, _, count) in &snap.buckets {
            let bucket = if lo <= 1 {
                0
            } else {
                63 - lo.leading_zeros() as usize
            };
            if h.counts.len() <= bucket {
                h.counts.resize(bucket + 1, 0);
            }
            h.counts[bucket] += count;
            h.total += count;
        }
        h.sum = snap.sum;
        h
    }
}

/// Sample a CDF from sorted values at `points` evenly-spaced fractions,
/// returning (value, fraction).
pub fn cdf_points(sorted: &[u64], points: usize) -> Vec<(u64, f64)> {
    if sorted.is_empty() || points == 0 {
        return Vec::new();
    }
    (1..=points)
        .map(|i| {
            let frac = i as f64 / points as f64;
            let idx = (((sorted.len() as f64) * frac).ceil() as usize).min(sorted.len()) - 1;
            (sorted[idx], frac)
        })
        .collect()
}

/// Percentile (0-100) of sorted values.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Arithmetic mean.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Render an aligned fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.add(v);
        }
        let rows = h.rows();
        assert_eq!(h.total(), 8);
        // bucket 0: {0,1} → 2; bucket 1 (values 2..3): {2,3} → 2;
        // bucket 2 (4..7): {4,7} → 2; bucket 3 (8..15): {8} → 1;
        // bucket 9 (512..1023): {1000} → 1.
        assert_eq!(rows[0], (0, 1, 2, 0.25));
        assert_eq!((rows[1].0, rows[1].1, rows[1].2), (2, 3, 2));
        assert_eq!((rows[2].0, rows[2].1, rows[2].2), (4, 7, 2));
        assert_eq!(rows[3].2, 1);
        assert_eq!((rows[9].0, rows[9].1, rows[9].2), (512, 1023, 1));
        assert!((rows.last().unwrap().3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trip_is_lossless() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 5, 8, 9, 4096, u64::MAX] {
            h.add(v);
        }
        let snap = h.to_snapshot();
        assert_eq!(snap.count(), h.total());
        let back = LogHistogram::from_snapshot(&snap);
        assert_eq!(back.rows(), h.rows());
        assert_eq!(back.total(), h.total());
    }

    #[test]
    fn cdf_sampling() {
        let values: Vec<u64> = (1..=100).collect();
        let pts = cdf_points(&values, 4);
        assert_eq!(pts, vec![(25, 0.25), (50, 0.5), (75, 0.75), (100, 1.0)]);
        assert!(cdf_points(&[], 4).is_empty());
    }

    #[test]
    fn percentiles_and_mean() {
        let values: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&values, 50.0), 5);
        assert_eq!(percentile(&values, 100.0), 10);
        assert_eq!(percentile(&values, 1.0), 1);
        assert_eq!(mean(&values), 5.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "count"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
    }
}
