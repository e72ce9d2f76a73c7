//! Small shared pieces: exact sample statistics, process memory, the
//! span recorder of the traced run, and the result report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for even lengths).
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Exact nearest-rank quantile of raw samples (`q` in `0..=1`). The
/// samples are kept whole, so there is no bucket error.
pub fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Samples per latency window: tail percentiles are taken within each
/// window (p99 has 10 samples beyond it, p95 has 50) and the median over
/// windows is reported, which keeps a few slow stretches of a shared
/// machine from deciding the whole run's tail.
pub const WINDOW: usize = 1000;

/// Exact latency summary, in microseconds.
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Summarizes chronologically ordered round-trip samples (ns): p50 over
/// all samples, p95 and p99 as the median over [`WINDOW`]-sample windows
/// of each window's exact quantile. With fewer than one window of samples
/// they are plain nearest-rank quantiles.
pub fn latency_us(samples: &[u64]) -> Latency {
    let mut all = samples.to_vec();
    all.sort_unstable();
    let tail = |q: f64| {
        if samples.len() < WINDOW {
            return quantile_ns(&all, q) / 1e3;
        }
        let windows: Vec<f64> = samples
            .chunks_exact(WINDOW)
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_unstable();
                quantile_ns(&w, q)
            })
            .collect();
        median(&windows) / 1e3
    };
    Latency {
        p50: quantile_ns(&all, 0.5) / 1e3,
        p95: tail(0.95),
        p99: tail(0.99),
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One recorded span: a named interval around one call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced run. Every span of one run
/// shares the run id; parents are explicit ids (0 = root), so worker
/// threads can attach their spans to the pass that spawned them.
#[derive(Debug)]
pub struct Tracer {
    pub run_id: u64,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before it
    /// closes.
    pub fn open(&self) -> (u64, Instant) {
        (self.next.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Closes span `id` opened at `start`.
    pub fn close(&self, id: u64, parent: u64, name: &'static str, start: Instant) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let (id, start) = self.open();
        let out = f(id);
        self.close(id, parent, name, start);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Per-name self time in seconds: each span's duration minus the part
    /// its direct children cover, summed by name. Children of one parent
    /// on different threads may overlap; their union is what is
    /// subtracted.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                self.run_id, s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (passes, frames, set-ups), for the
    /// human-readable report.
    pub samples: usize,
}

/// What one run reports: its metrics plus its operation ledger.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes on failed checks.
    pub failures: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records `n` operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final result line (one JSON object).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (callers keep only finite values).
pub fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&v, 0.5), 50.0);
        assert_eq!(quantile_ns(&v, 0.99), 99.0);
        assert_eq!(quantile_ns(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children_union() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        let t = Tracer::new(7);
        t.time("outer", 0, |id| {
            t.time("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = t.self_seconds();
        assert!(own["inner"] >= 0.019, "{own:?}");
        assert!(own["outer"] < own["inner"], "{own:?}");
        assert!(t.to_jsonl().contains("\"run\":7"));
    }
}
