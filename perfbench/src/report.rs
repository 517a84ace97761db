//! Metric collection, percentiles and the one-line JSON result.

use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// The run's result line.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Queries timed (warm-ups excluded).
    pub attempted: u64,
    /// Queries that returned an error instead of rows.
    pub failed: u64,
    /// End-to-end metrics (untraced queries).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced queries).
    pub per_layer: Metrics,
}

/// Linear-interpolation percentile (`q` in [0, 1]) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Render the result object: `correct`, `attempted`, `failed` and the
/// chosen metric set as `{"name": {"value": v, "unit": u}}`.
pub fn json_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/inf; a layer that saw no work reports 0.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.9), 4.6);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn json_line_lists_every_metric_with_unit() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        m.put("b", 3.0, "count");
        let o = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        assert_eq!(
            json_line(&o, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
