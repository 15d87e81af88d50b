//! The metric catalogue, sample statistics, and the result line.

use std::collections::BTreeMap;

/// Which run prints a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `--trace 0`: what a user of the service sees.
    EndToEnd,
    /// `--trace 1`: one layer, from the traced in-process replay.
    Layer,
}

/// One catalogue entry: name, unit, kind.
pub type MetricDef = (&'static str, &'static str, Kind);

use Kind::{EndToEnd as E, Layer as L};

/// Every metric the benchmark prints, in print order. `BENCHMARK.json`
/// lists exactly these (checked by the self-tests).
pub const METRICS: &[MetricDef] = &[
    ("setup_s", "s", E),
    ("capacity_rps", "1/s", E),
    ("cpu_ms_per_kreq", "ms", E),
    ("read_p50_ms", "ms", E),
    ("write_p50_ms", "ms", E),
    ("peak_rss_mb", "MB", E),
    ("setup.population_ms", "ms", L),
    ("setup.partition_ms", "ms", L),
    ("setup.grouping_ms", "ms", L),
    ("setup.snapshot_ms", "ms", L),
    ("net.overhead_us", "us", L),
    ("net.resp_bytes", "bytes", L),
    ("service.decode_us", "us", L),
    ("service.encode_us", "us", L),
    ("service.merge_us", "us", L),
    ("service.fanout_us", "us", L),
    ("service.apply_us", "us", L),
    ("tree.route_point_us", "us", L),
    ("tree.filters_probed_per_point", "count", L),
    ("tree.units_per_point", "count", L),
    ("tree.useful_unit_ratio", "ratio", L),
    ("bloom.root_fill", "ratio", L),
    ("bloom.level1_fill", "ratio", L),
    ("tree.route_range_us", "us", L),
    ("tree.units_per_range", "count", L),
    ("unit.range_scan_us", "us", L),
    ("unit.records_per_result", "ratio", L),
    ("tree.route_topk_us", "us", L),
    ("unit.topk_scan_us", "us", L),
    ("unit.topk_units_visited", "count", L),
    ("smartstore.point_hit_us", "us", L),
    ("smartstore.point_miss_us", "us", L),
    ("smartstore.apply_us", "us", L),
    ("persist.append_us_p50", "us", L),
    ("persist.append_us_p99", "us", L),
    ("persist.fsyncs_per_1k", "count", L),
    ("persist.wal_bytes_per_change", "bytes", L),
    ("persist.compactions_delta", "count", L),
    ("persist.compactions_full", "count", L),
    ("persist.compact_ms", "ms", L),
    ("persist.write_amp", "ratio", L),
    ("persist.recover_ms", "ms", L),
    ("persist.store_bytes", "bytes", L),
    ("trace.coverage", "ratio", L),
    ("trace.overhead_pct", "%", L),
];

/// The catalogue entries of one kind.
pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.2 == kind)
}

/// Metric values of one run plus the sample count behind each.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Values {
    /// Records `name = value` measured over `samples` samples. Panics
    /// on a name outside the catalogue: a typo must not ship.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            METRICS.iter().any(|m| m.0 == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, samples));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Sample count behind `name`.
    pub fn samples(&self, name: &str) -> Option<u64> {
        self.values.get(name).map(|v| v.1)
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Host and input diagnostics, printed next to the metrics.
    pub diagnostics: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Human-readable lines: every metric with unit and sample count,
    /// then the diagnostics.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        for (name, unit, _) in of_kind(self.kind) {
            let v = self.values.get(name).unwrap_or(f64::NAN);
            let n = self.values.samples(name).unwrap_or(0);
            s.push_str(&format!("{name:<32} {v:>14.6} {unit:<6} (n={n})\n"));
        }
        for (k, v) in &self.diagnostics {
            s.push_str(&format!("# {k}: {v}\n"));
        }
        s
    }

    /// The diagnostics as one JSON object line.
    pub fn render_diagnostics(&self) -> String {
        let fields: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
            .collect();
        format!("{{\"diagnostics\": {{{}}}}}", fields.join(", "))
    }

    /// The final result line. Panics when a catalogue metric of this
    /// run's kind is missing.
    pub fn render_result(&self) -> String {
        let fields: Vec<String> = of_kind(self.kind)
            .map(|(name, unit, _)| {
                let v = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Formats a finite float with all its digits, as JSON.
fn num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Exact quantile (linear interpolation between closest ranks) of
/// unsorted samples; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
