//! Metric samples, summary statistics and the two output forms: the
//! human-readable table and the one-line JSON result the harness parses.

use std::fmt::Write as _;

/// Version of the printed result layout; bump when a key changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// One named metric with every sample taken in this run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value (a median, a ratio of totals or a count; each
    /// workload says which).
    pub value: f64,
    /// The per-pass samples behind `value`, for the sample count and the
    /// spread column. Empty for values measured once.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn once(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value, samples: Vec::new() }
    }

    /// The median of `samples`, which are kept for the table.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric { name, unit, value: median(&samples), samples }
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the spread printed here is the one
/// a reader recomputes from the samples. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) if median(xs) != 0.0 => (q3 - q1) / median(xs).abs(),
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    /// `key=value` self-description: schema, commit, cores, threads,
    /// shards, seed and the workload's parameters.
    pub params: Vec<(&'static str, String)>,
    /// Metrics named in `BENCHMARK.json` for this mode; these and only
    /// these go into the JSON line.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the table but not gated
    /// (e.g. `sessions_per_s` next to the generic `work_per_s`).
    pub extra: Vec<Metric>,
    /// Output checks, in the order they ran: `(what, error if it failed)`.
    pub checks: Vec<(String, Option<String>)>,
    /// Work items attempted and failed (sessions, or configurations).
    pub attempted: u64,
    pub failed: u64,
    /// Secondary attempt counts printed with their failed share, e.g.
    /// `("boundary decisions", attempted, failed)`.
    pub sub_counts: Vec<(&'static str, u64, u64)>,
}

impl Report {
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    /// Record one output check; `Err` marks the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, outcome: Result<(), String>) {
        self.checks.push((what.into(), outcome.err()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, err)| err.is_none())
    }

    /// The human-readable block (everything before the JSON line).
    pub fn render_table(&self, title: &str) -> String {
        let mut out = String::new();
        let desc: Vec<String> = self.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "# {}", desc.join(" "));
        for (what, err) in &self.checks {
            match err {
                None => {
                    let _ = writeln!(out, "check ok   {what}");
                }
                Some(e) => {
                    let _ = writeln!(out, "check FAIL {what}: {e}");
                }
            }
        }
        let share = |a: u64, f: u64| if a == 0 { 0.0 } else { f as f64 / a as f64 };
        let _ = writeln!(
            out,
            "attempted {} failed {} (failed share {:.6})",
            self.attempted,
            self.failed,
            share(self.attempted, self.failed)
        );
        for (what, a, f) in &self.sub_counts {
            let _ = writeln!(
                out,
                "{what}: attempted {a} failed {f} (failed share {:.6})",
                share(*a, *f)
            );
        }
        if !self.correct() {
            let _ = writeln!(out, "output check failed: no metrics reported");
            return out;
        }
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>5} {:>16} {:>16} {:>16} {:>8}",
            "metric", "unit", "n", "value", "p25", "p75", "spread"
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let (q1, q3) = quartiles(&m.samples).unwrap_or((m.value, m.value));
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>5} {:>16.6} {:>16.6} {:>16.6} {:>8.4}",
                m.name,
                m.unit,
                m.samples.len().max(1),
                m.value,
                q1,
                q3,
                spread(&m.samples)
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A run that failed a check reports no numbers.
    pub fn render_json(&self) -> String {
        let correct = self.correct();
        let mut metrics = Vec::new();
        if correct {
            for m in &self.metrics {
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number; non-finite values (never expected) become
/// `null` rather than invalid JSON.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_check_reports_no_numbers() {
        let mut r = Report { attempted: 10, failed: 10, ..Default::default() };
        r.metrics.push(Metric::once("work_per_s", "1/s", 5.0));
        r.check("fine", Ok(()));
        assert!(r.render_json().contains("\"work_per_s\""));
        r.check("broken", Err("mismatch".into()));
        assert_eq!(
            r.render_json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 10, \"metrics\": {}}"
        );
        assert!(r.render_table("t").contains("check FAIL broken: mismatch"));
    }
}
