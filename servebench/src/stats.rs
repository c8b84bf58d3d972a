//! Small numeric helpers: percentiles, peak RSS, and the metric table
//! the report is printed from.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile (`q` in 0..=1) of `v`; sorts in place.
/// 0 for an empty sample.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples per window of [`windowed_p95`]: each window's p95 has 25
/// samples beyond it.
pub const P95_WINDOW: usize = 500;

/// The high percentile the benchmark reports, made robust to a stall:
/// the samples, in the order they were taken, are cut into consecutive
/// windows of at least [`P95_WINDOW`] samples, and the result is the
/// median of the windows' p95s (the plain p95 when there is only one
/// window). On a 2-vCPU host a run's p99 moves with every scheduler
/// hiccup — 10–47% inter-quartile spread across seeds, against 1–8% for
/// this estimator.
pub fn windowed_p95(samples: &[f64]) -> f64 {
    let windows = (samples.len() / P95_WINDOW).max(1);
    let len = samples.len() / windows;
    let mut p95s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * len
            };
            percentile(&mut samples[w * len..end].to_vec(), 0.95)
        })
        .collect();
    median(&mut p95s)
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU counters from the first line of `/proc/stat`, summed over
/// CPUs: (steal ticks, all ticks). (0, 0) when unreadable.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal: the eighth is steal.
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// A point in time plus the host's steal counter at that point, so an
/// interval can be measured net of steal: the time a hypervisor spent
/// running other guests on this guest's CPUs. On a shared host that
/// share moves from minute to minute (0.5% to 12% on the 2-vCPU reference
/// host) and stretches every wall time with it.
#[derive(Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    ticks: (u64, u64),
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            ticks: host_ticks(),
            at: Instant::now(),
        }
    }

    /// Share of all host CPU time that was stolen between `self` and
    /// `later` (0 without steal accounting).
    pub fn steal_share(&self, later: &Mark) -> f64 {
        ratio(
            later.ticks.0.saturating_sub(self.ticks.0) as f64,
            later.ticks.1.saturating_sub(self.ticks.1) as f64,
        )
    }

    /// Seconds from `self` to `later`, net of steal.
    pub fn net_s(&self, later: &Mark) -> f64 {
        later.at.saturating_duration_since(self.at).as_secs_f64() * (1.0 - self.steal_share(later))
    }
}

/// One named metric with its unit and an optional human note (sample
/// count, source).
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

/// Ordered list of metrics, printed one per line and then as JSON.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.note(name, unit, value, String::new());
    }

    pub fn note(&mut self, name: impl Into<String>, unit: &'static str, value: f64, note: String) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            note,
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn print_lines(&self) {
        for m in &self.0 {
            if m.note.is_empty() {
                println!("  {:<46} {:>16.6} {}", m.name, m.value, m.unit);
            } else {
                println!(
                    "  {:<46} {:>16.6} {}  ({})",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// Full-precision JSON number (non-finite values have no JSON form and
/// never occur in a correct run; they print as -1).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "-1".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn windowed_p95_ignores_one_stalled_window() {
        let mut v: Vec<f64> = (0..1500).map(|i| f64::from(i % 100)).collect();
        // One window of stalls: a plain p95 would read it.
        for x in &mut v[..500] {
            *x += 1000.0;
        }
        assert_eq!(windowed_p95(&v), 94.0);
        assert_eq!(
            windowed_p95(&v[..400]),
            percentile(&mut v[..400].to_vec(), 0.95)
        );
    }

    #[test]
    fn json_shape() {
        let mut m = Metrics::default();
        m.add("a_ms", "ms", 1.5);
        m.add("b", "count", 3.0);
        assert_eq!(
            m.json(),
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
