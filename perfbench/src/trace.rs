//! Spans, sample statistics and the metric record the benchmark prints.
//!
//! A span covers one call into a layer's public function, made from the
//! benchmark's own code: it records a name, its start and end (ns since the
//! tracer's epoch), the span it nested in, and the tick, call or day it
//! belongs to. Spans stay in memory until the run ends and are then written
//! out as JSON lines.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The tick, call or day the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. When disabled, `begin`/`end` only read the
/// clock for the caller and record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (or of an unrecorded timing when tracing is off).
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { index: None, start };
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        Open {
            index: Some(index),
            start,
        }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let popped = self.open.pop();
            assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.ns(end);
        }
        (end - open.start).as_secs_f64()
    }

    /// Times `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ns(name).map(|d| d as f64).sum::<f64>() / 1e6
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations_ns(name).count()
    }

    fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::dur_ns)
    }

    /// Self time of every span: its duration minus the part its child spans
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (sorted here).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Quantile `q` of each consecutive full window of `window` samples (the
/// whole sample's quantile when there is no full window). Reducing these
/// per-window figures keeps a burst of interference from another process
/// to the windows it hit.
pub fn per_window(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    let per: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect();
    if per.is_empty() {
        vec![quantile(samples, q)]
    } else {
        per
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 = value;
            e.2 = unit;
        } else {
            self.entries.push((name, value, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Keeps only `names`, in that order; a name with no entry reads 0.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            out.put(name, self.get(name).unwrap_or(0.0), unit);
        }
        out
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
