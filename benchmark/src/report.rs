//! Metric tables, the JSON the benchmark writes and reads, and
//! `--compare`.

use crate::measure::median;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. The timing metrics carry
/// the widest bound the benchmark contract allows: on the shared 2-CPU
/// reference host ten runs of one commit spread by 2-12 % (quartile
/// distance over median), and a bound should be about three times that
/// (see README). The counted metrics repeat almost exactly.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_dgrams_per_s",
        unit: "datagrams/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "dgram_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_dgram",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_dgram",
        unit: "allocations",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "heap_live_kbytes",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics (report-only), in report order:
/// (name, unit, direction).
pub const PER_LAYER: [(&str, &str, Better); 49] = [
    ("udp.encode_ns_per_dgram", "ns", Better::Lower),
    ("udp.recv_ns_per_dgram", "ns", Better::Lower),
    ("udp.allocs_per_dgram", "allocations", Better::Lower),
    ("stack.tx_self_ns_per_dgram", "ns", Better::Lower),
    ("stack.tx_allocs_per_dgram", "allocations", Better::Lower),
    ("stack.rx_self_ns_per_dgram", "ns", Better::Lower),
    ("stack.rx_allocs_per_dgram", "allocations", Better::Lower),
    ("link.ns_per_dgram", "ns", Better::Lower),
    ("hooks.out_ns_per_dgram", "ns", Better::Lower),
    ("hooks.in_ns_per_dgram", "ns", Better::Lower),
    ("hooks.out_allocs_per_dgram", "allocations", Better::Lower),
    ("hooks.in_allocs_per_dgram", "allocations", Better::Lower),
    ("hooks.out_single_us", "us", Better::Lower),
    ("hooks.in_single_us", "us", Better::Lower),
    ("core.seal_ns_per_dgram", "ns", Better::Lower),
    ("core.open_ns_per_dgram", "ns", Better::Lower),
    ("hooks.out_overhead_ns_per_dgram", "ns", Better::Lower),
    ("hooks.in_overhead_ns_per_dgram", "ns", Better::Lower),
    ("crypto.cipher_ns_per_byte", "ns", Better::Lower),
    ("crypto.mac_ns_per_byte", "ns", Better::Lower),
    ("cache.hit_ns", "ns", Better::Lower),
    ("cache.insert_evict_ns", "ns", Better::Lower),
    ("combined.probe_ns", "ns", Better::Lower),
    ("keying.derive_ns", "ns", Better::Lower),
    ("frag.fragment_ns_per_dgram", "ns", Better::Lower),
    ("frag.reassemble_ns_per_dgram", "ns", Better::Lower),
    ("ip.encode_ns_per_frame", "ns", Better::Lower),
    ("ip.decode_ns_per_frame", "ns", Better::Lower),
    ("ring.push_pop_ns", "ns", Better::Lower),
    ("ring.handoff_us", "us", Better::Lower),
    ("pool.take_put_ns", "ns", Better::Lower),
    ("pool.hit_ratio", "ratio", Better::Higher),
    ("pool.ledger_imbalance", "count", Better::Lower),
    ("batchauth.resolve_ns_per_dgram", "ns", Better::Lower),
    ("hooks.input_rejects_share", "ratio", Better::Lower),
    ("mkd.master_key_ms", "ms", Better::Lower),
    ("mkd.upcalls", "count", Better::Lower),
    ("cache.rfkc_miss_ratio", "ratio", Better::Lower),
    ("combined.hit_ratio", "ratio", Better::Higher),
    ("hooks.ring_stalls", "count", Better::Lower),
    ("hooks.shed_rejected", "count", Better::Lower),
    ("stack.frames_per_dgram", "count", Better::Lower),
    ("stack.header_drops", "count", Better::Lower),
    ("mem.hooks_resident_bytes_per_flow", "bytes", Better::Lower),
    ("dgram_latency_p99_us", "us", Better::Lower),
    ("dgram_latency_p999_us", "us", Better::Lower),
    ("failed_share", "ratio", Better::Lower),
    ("trace.closure", "ratio", Better::Higher),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// One measured value of a run: the value reported for its trials and
/// the trials themselves.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What the run reports: the median of `trials` unless the metric
    /// says otherwise.
    pub value: f64,
    /// Per-trial values (one entry for a metric measured once).
    pub trials: Vec<f64>,
}

impl Measured {
    /// A metric reported as the median of its per-trial values.
    pub fn from_trials(name: &'static str, unit: &'static str, trials: Vec<f64>) -> Self {
        Measured {
            name,
            unit,
            value: median(&trials),
            trials,
        }
    }

    /// A metric reported as the mean of its per-trial values.
    pub fn from_trials_mean(name: &'static str, unit: &'static str, trials: Vec<f64>) -> Self {
        Measured {
            value: trials.iter().sum::<f64>() / trials.len() as f64,
            ..Measured::from_trials(name, unit, trials)
        }
    }
}

/// Spread of a metric's own trials: (q3 − q1) ÷ median.
pub fn spread(trials: &[f64]) -> f64 {
    let (q1, q3) = quartiles(trials);
    (q3 - q1) / median(trials).abs().max(f64::MIN_POSITIVE)
}

/// The contract's result line: `{"correct", "attempted", "failed",
/// "metrics"}` on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A float as JSON: every digit, and never `NaN`/`inf` (not JSON).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A metric block of the report file: name → unit, reported value,
/// quartiles, trials.
pub fn metrics_json(metrics: &[Measured], indent: &str) -> String {
    let mut out = String::from("{\n");
    for (i, m) in metrics.iter().enumerate() {
        let (q1, q3) = quartiles(&m.trials);
        let trials: Vec<String> = m.trials.iter().map(|t| num(*t)).collect();
        let _ = write!(
            out,
            "{indent}  \"{}\": {{\"unit\": \"{}\", \"value\": {}, \"q1\": {}, \"q3\": {}, \"trials\": [{}]}}",
            m.name,
            m.unit,
            num(m.value),
            num(q1),
            num(q3),
            trials.join(", ")
        );
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    let _ = write!(out, "{indent}}}");
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a whole document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!("expected `{token}` at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A string; the escapes the benchmark's own files use (`\"`, `\\`,
    /// `\/`, `\n`, `\t`) are decoded, others are rejected.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.pos + 1) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        _ => return Err(format!("unsupported escape at offset {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Fewest trials from which a spread is judged.
const MIN_TRIALS_FOR_SPREAD: usize = 5;

/// How finely a side's own trials pin its reported value down: their
/// quartile distance as a share of their median, over √trials. Zero
/// for metrics with too few trials to tell (`setup_s`, measured three
/// times, and `heap_live_kbytes`, measured once).
fn resolution(trials: &[f64]) -> f64 {
    if trials.len() < MIN_TRIALS_FOR_SPREAD {
        return 0.0;
    }
    spread(trials) / (trials.len() as f64).sqrt()
}

/// `--compare a.json b.json`: per workload × end-to-end metric, both
/// values, how much worse `b` is than `a`, the bound, and a verdict:
/// FAIL when `b` is worse by more than the bound, UNRESOLVED when
/// either side's own trials cannot resolve a change the size of the
/// bound, PASS otherwise. Returns the table and whether any row failed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut any_fail = false;
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err("first report has no `workloads` object".to_string());
    };
    for (wl, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(wl))
            .ok_or_else(|| format!("second report lacks workload `{wl}`"))?;
        for m in END_TO_END {
            let side = |w: &Json| -> Result<(f64, Vec<f64>), String> {
                let entry = w
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("`{wl}` lacks metric `{}`", m.name))?;
                let med = entry.get("value").and_then(Json::as_f64);
                let trials = entry
                    .get("trials")
                    .and_then(Json::as_array)
                    .map(|t| t.iter().filter_map(Json::as_f64).collect::<Vec<_>>());
                med.zip(trials.filter(|t| !t.is_empty()))
                    .ok_or_else(|| format!("`{wl}`.`{}` has no value or trials", m.name))
            };
            let (med_a, trials_a) = side(wa)?;
            let (med_b, trials_b) = side(wb)?;
            // Positive = b is worse than a, as a share of a.
            let worse = match m.better {
                Better::Higher => (med_a - med_b) / med_a,
                Better::Lower => (med_b - med_a) / med_a,
            };
            let verdict = if worse > m.bound {
                any_fail = true;
                "FAIL"
            } else if resolution(&trials_a) > m.bound || resolution(&trials_b) > m.bound {
                "UNRESOLVED"
            } else {
                "PASS"
            };
            let _ = writeln!(
                out,
                "{wl:<16} {:<24} {med_a:>14.4} {med_b:>14.4} {:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok((out, any_fail))
}
