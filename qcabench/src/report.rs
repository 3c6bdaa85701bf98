//! The result line every run prints last.

use crate::{stats, sys};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The timing metrics of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    pub throughput_per_s: f64,
    pub latency_geomean_ms: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub cpu_ms_per_op: f64,
}

impl Timings {
    /// Timings of one phase from its per-operation latencies (ms) and its
    /// wall and CPU time (s).
    pub fn of(latencies_ms: &[f64], wall_s: f64, cpu_s: f64) -> Timings {
        let ops = latencies_ms.len() as f64;
        Timings {
            throughput_per_s: ops / wall_s,
            latency_geomean_ms: stats::geomean(latencies_ms),
            latency_p50_ms: stats::median(latencies_ms),
            latency_tail_ms: stats::tail(latencies_ms),
            cpu_ms_per_op: cpu_s * 1e3 / ops,
        }
    }

    /// The nearest-rank median of each metric over several phases.
    pub fn median(phases: &[Timings]) -> Timings {
        let m = |f: fn(&Timings) -> f64| stats::median(&phases.iter().map(f).collect::<Vec<_>>());
        Timings {
            throughput_per_s: m(|t| t.throughput_per_s),
            latency_geomean_ms: m(|t| t.latency_geomean_ms),
            latency_p50_ms: m(|t| t.latency_p50_ms),
            latency_tail_ms: m(|t| t.latency_tail_ms),
            cpu_ms_per_op: m(|t| t.cpu_ms_per_op),
        }
    }
}

/// What one run attempted, how much of it failed, and what it measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Run-level invariants held (e.g. repeated rounds gave identical
    /// outputs); failed operations are counted in `failed` instead.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// The first few failure messages, for standard error.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Pushes the end-to-end metrics, in `BENCHMARK.json` order, from one
    /// run's set-up samples (s), its timings and its objective gain.
    ///
    /// `setup_s` is the nearest-rank upper quartile (p75) of the samples,
    /// not their median: on a shared VM short operations run in two speed
    /// modes about 1.7× apart, and the median of sub-millisecond set-ups
    /// flips between them from run to run, while the p75 stays in the
    /// slower mode. A higher percentile would follow the few slow outliers
    /// of the longer set-ups.
    pub fn push_end_to_end(&mut self, setups: &[f64], t: &Timings, gain: f64) {
        self.push("setup_s", "s", stats::percentile(setups, 75.0));
        self.push("throughput_per_s", "1/s", t.throughput_per_s);
        self.push("latency_geomean_ms", "ms", t.latency_geomean_ms);
        self.push("latency_p50_ms", "ms", t.latency_p50_ms);
        self.push("latency_tail_ms", "ms", t.latency_tail_ms);
        self.push("cpu_ms_per_op", "ms", t.cpu_ms_per_op);
        self.push("objective_gain", "ratio", gain);
        self.push("peak_rss_mb", "MiB", sys::peak_rss_mib());
    }

    /// The metric called `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which JSON cannot carry.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_fixed_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.push("latency_ms", "ms", 1.25);
        o.push("setup_s", "s", 0.5);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.fail("boom".into());
        assert_eq!(o.failed, 1);
        assert_eq!(o.get("setup_s"), Some(0.5));
    }

    #[test]
    fn timings_of_a_phase_and_their_median() {
        let t = Timings::of(&[1.0, 4.0, 16.0], 0.5, 0.03);
        assert_eq!(t.throughput_per_s, 6.0);
        assert!((t.latency_geomean_ms - 4.0).abs() < 1e-12);
        assert_eq!((t.latency_p50_ms, t.latency_tail_ms), (4.0, 4.0));
        assert!((t.cpu_ms_per_op - 10.0).abs() < 1e-12);
        let slow = Timings::of(&[8.0, 8.0, 8.0], 3.0, 0.3);
        let fast = Timings::of(&[0.5, 0.5, 0.5], 0.1, 0.003);
        // Metric by metric: throughput from one phase, latency from another.
        let m = Timings::median(&[slow, t, fast]);
        assert_eq!(m.throughput_per_s, 6.0);
        assert_eq!(m.latency_p50_ms, 4.0);
        assert_eq!(m.cpu_ms_per_op, t.cpu_ms_per_op);
    }
}
