//! Metric names, the run's report, and the JSON line it ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every end-to-end metric, with its unit; `BENCHMARK.json` lists the
/// same names. A run with `--trace 0` reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("ref_solve_s", "s"),
    ("checks_per_s", "1/s"),
    ("tour_gain_pct", "%"),
];

/// End-to-end figures printed with the others, where a workload has
/// them, but left out of the JSON line. Serve's move with the host's
/// speed far more than any bound a comparison could hold them to (see
/// the README); on dense and candidate `p50_ms` and `p95_ms` are the
/// `best_move` sweep latencies, which `engine.<e>.sweep_us` reports.
pub const PRINTED_ONLY: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("burst_jobs_per_s", "1/s"),
];

/// The engine labels the per-strategy `engine.*` metrics are kept for.
pub const ENGINES: &[&str] = &["auto", "tiled", "sequential", "candres16", "cand16"];

/// Every per-layer metric other than the per-engine ones, with its
/// unit. A run with `--trace 1` reports all of them; a layer the
/// workload does not exercise reads 0 with no samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tsplib.parse_us", "us"),
    ("construction.mf_s", "s"),
    ("neighbors.knn_s", "s"),
    ("search.host_s", "s"),
    ("sim.launch_us.1x32", "us"),
    ("sim.launch_us.8x256", "us"),
    ("sim.launch_us.28x1024", "us"),
    ("sim.flops", "count"),
    ("sim.bytes", "bytes"),
    ("sim.modeled_s", "s"),
    ("host.allocs_per_sweep", "count"),
    ("host.allocs_per_job", "count"),
    ("http.submit_ms", "ms"),
    ("http.status_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.lease_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.flush_ms", "ms"),
    ("serve.solve_direct_ms", "ms"),
    ("obs.attached_ratio.n1000", "ratio"),
    ("obs.attached_ratio.ils64", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("gen.max_late_ms", "ms"),
];

/// Every per-layer metric name with its unit, in report order: the
/// fixed ones, then `engine.<label>.{sweeps,checks,sweep_us,busy_s}`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for e in ENGINES {
        out.push((format!("engine.{e}.sweeps"), "count"));
        out.push((format!("engine.{e}.checks"), "count"));
        out.push((format!("engine.{e}.sweep_us"), "us"));
        out.push((format!("engine.{e}.busy_s"), "s"));
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    samples: u64,
}

/// What one run measured and checked.
pub struct Report {
    workload: String,
    trace: bool,
    /// Operations tried (solves, served jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    e2e: BTreeMap<String, Value>,
    layer: BTreeMap<String, Value>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            trace,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            END_TO_END
                .iter()
                .chain(PRINTED_ONLY)
                .any(|&(n, _)| n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(
            name.to_string(),
            Value {
                value,
                samples: samples as u64,
            },
        );
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            per_layer_names().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.layer.insert(
            name.to_string(),
            Value {
                value,
                samples: samples as u64,
            },
        );
    }

    /// Take over another run's operation counts, checks and notes, and
    /// those of its per-layer metrics whose names start with one of
    /// `prefixes`.
    pub fn adopt(&mut self, other: Report, prefixes: &[&str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let from = other.workload;
        self.checks.extend(
            other
                .checks
                .into_iter()
                .map(|(name, ok)| (format!("{from}: {name}"), ok)),
        );
        self.notes.extend(
            other
                .notes
                .into_iter()
                .map(|note| format!("{from}: {note}")),
        );
        for (name, v) in other.layer {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.layer.insert(name, v);
            }
        }
    }

    /// Print the human-readable lines, then the JSON result line.
    /// Returns whether the run was correct.
    pub fn print(&self) -> bool {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(
                out,
                "check {:<52} {}",
                name,
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let error_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{} error_ratio = {} ratio (n={}, failed={})",
            self.workload, error_ratio, self.attempted, self.failed
        );
        let mut metrics = Vec::new();
        if self.trace {
            for (name, unit) in per_layer_names() {
                let v = self.layer.get(&name).copied().unwrap_or(Value {
                    value: 0.0,
                    samples: 0,
                });
                let tail = if v.samples == 0 {
                    " (not exercised)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{} {} = {} {} (n={}){}",
                    self.workload, name, v.value, unit, v.samples, tail
                );
                metrics.push((name, unit, v.value));
            }
        } else {
            for &(name, unit) in END_TO_END.iter().chain(PRINTED_ONLY) {
                let gated = END_TO_END.iter().any(|&(n, _)| n == name);
                let v = match self.e2e.get(name) {
                    Some(v) => *v,
                    None if gated => Value {
                        value: f64::NAN,
                        samples: 0,
                    },
                    None => continue,
                };
                let _ = writeln!(
                    out,
                    "{} {} = {} {} (n={})",
                    self.workload, name, v.value, unit, v.samples
                );
                if gated {
                    metrics.push((name.to_string(), unit, v.value));
                }
            }
        }
        // Correct: every check passed, no operation failed, and no
        // value is missing or non-finite (a broken measurement).
        let correct = self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && metrics.iter().all(|(_, _, v)| v.is_finite());
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        print!("{out}");
        correct
    }
}

/// A finite f64 in JSON, with every digit Rust's shortest round-trip
/// form gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(1e-7), "0.0000001");
        assert_eq!(json_number(1e20), "100000000000000000000.0");
    }

    #[test]
    fn metric_names_fit_the_result_format() {
        let ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_names())
        {
            assert!(ok(&name), "{name}");
        }
    }
}
