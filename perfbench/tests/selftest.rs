//! Self-tests of the benchmark: its inputs, its catalogue against
//! `BENCHMARK.json`, and small runs of every workload.

use perfbench::client::MAX_CONNECTIONS;
use perfbench::e2e::{self, RunOpts};
use perfbench::metrics::{of_kind, Kind, Outcome, METRICS};
use perfbench::spec::{Spec, Stream, Workload};
use perfbench::traced;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn opts(tag: &str, seed: u64, seconds: f64) -> RunOpts {
    RunOpts {
        seed,
        seconds,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}")),
        root: repo_root(),
    }
}

fn benchmark_json() -> Json {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn stream_is_a_pure_function_of_workload_and_seed() {
    for w in Workload::ALL {
        let spec = Spec::small(w);
        let digest = |seed: u64| {
            let pop = spec.population(seed);
            Stream::generate(&spec, &pop, seed, 2.0).digest
        };
        assert_eq!(digest(7), digest(7), "{}: same seed, same stream", w.name());
        assert_ne!(digest(7), digest(8), "{}: new seed, new stream", w.name());
        let pop = spec.population(7);
        let stream = Stream::generate(&spec, &pop, 7, 2.0);
        assert!(
            stream.closed.iter().all(|r| r.is_read()),
            "{}: the closed loop sends reads only; writes follow the open-loop schedule",
            w.name()
        );
    }
}

#[test]
fn quiet_median_drops_rounds_with_steal() {
    use perfbench::e2e::{quiet_median, MIN_QUIET, ROUNDS, STEAL_LIMIT};
    use perfbench::metrics::median;
    let figures: Vec<f64> = (0..ROUNDS).map(|r| r as f64).collect();
    // No steal: every round counts.
    assert_eq!(quiet_median(&figures, &[0.0; ROUNDS]), median(&figures));
    // Steal in the first three rounds: they are dropped.
    let steal: Vec<f64> = (0..ROUNDS)
        .map(|r| if r < 3 { 2.0 * STEAL_LIMIT } else { 0.0 })
        .collect();
    assert_eq!(quiet_median(&figures, &steal), median(&figures[3..]));
    // Steal everywhere: the MIN_QUIET rounds with the least count.
    let steal: Vec<f64> = (0..ROUNDS).map(|r| 1.0 - r as f64 / 100.0).collect();
    assert_eq!(
        quiet_median(&figures, &steal),
        median(&figures[ROUNDS - MIN_QUIET..])
    );
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    let Json::Obj(kv) = &b else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = b
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
        let listed: Vec<(&str, &str)> = b
            .get(key)
            .expect("metric list")
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        let catalogue: Vec<(&str, &str)> = of_kind(kind).map(|m| (m.0, m.1)).collect();
        assert_eq!(listed, catalogue, "{key} must list the catalogue in order");
        for m in b
            .get(key)
            .expect("metric list")
            .as_arr()
            .expect("metric list")
        {
            let better = m.get("better").and_then(Json::as_str).expect("better");
            assert!(better == "lower" || better == "higher");
        }
    }
    assert!(of_kind(Kind::EndToEnd).count() <= 16);
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, _) in METRICS {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16);
    }

    let mut max_bound: f64 = 0.0;
    let mut setup_bound = 0.0;
    for m in b
        .get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        max_bound = max_bound.max(bound);
        if m.get("name").and_then(Json::as_str) == Some("setup_s") {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
            setup_bound = bound;
        }
    }
    assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");
}

fn result_metrics(out: &Outcome) -> Json {
    let line = out.render_result();
    let parsed = Json::parse(&line).expect("result line parses");
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    let attempted = parsed
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0);
    assert_eq!(
        parsed.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "no operation of a workload may fail"
    );
    parsed.get("metrics").expect("metrics").clone()
}

fn check_printed(out: &Outcome, kind: Kind, positive: bool) {
    let metrics = result_metrics(out);
    let Json::Obj(kv) = &metrics else {
        panic!("metrics is not an object")
    };
    let printed: Vec<(&str, &str)> = kv
        .iter()
        .map(|(k, v)| {
            (
                k.as_str(),
                v.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect();
    let catalogue: Vec<(&str, &str)> = of_kind(kind).map(|m| (m.0, m.1)).collect();
    assert_eq!(
        printed, catalogue,
        "every {kind:?} metric is printed with its unit"
    );
    if positive {
        for (name, v) in kv {
            let x = v.get("value").and_then(Json::as_f64).expect("value");
            assert!(x > 0.0, "end-to-end metric {name} reads {x}");
        }
    }
}

fn diagnostic<'a>(out: &'a Outcome, key: &str) -> &'a str {
    out.diagnostics
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("diagnostic {key} missing"))
}

#[test]
fn every_workload_prints_every_metric_within_two_connections() {
    for w in Workload::ALL {
        let spec = Spec::small(w);
        let out = e2e::run(&spec, &opts(&format!("e2e-{}", w.name()), 3, 1.5));
        check_printed(&out, Kind::EndToEnd, true);
        let peak: usize = diagnostic(&out, "connections_peak").parse().expect("peak");
        assert!((1..=MAX_CONNECTIONS).contains(&peak), "{peak} connections");

        let out = traced::run(&spec, &opts(&format!("trace-{}", w.name()), 3, 1.5));
        check_printed(&out, Kind::Layer, false);
    }
}

#[test]
fn traced_counts_repeat_at_the_same_seed() {
    let spec = Spec::small(Workload::DurableChurn);
    let a = traced::run(&spec, &opts("repeat-a", 5, 2.0));
    let b = traced::run(&spec, &opts("repeat-b", 5, 2.0));
    for name in [
        "tree.filters_probed_per_point",
        "tree.units_per_point",
        "tree.units_per_range",
        "unit.topk_units_visited",
        "persist.wal_bytes_per_change",
        "persist.fsyncs_per_1k",
        "persist.compactions_delta",
        "persist.compactions_full",
        "persist.store_bytes",
    ] {
        let (x, y) = (a.values.get(name), b.values.get(name));
        assert!(x.is_some(), "{name} measured");
        assert_eq!(x, y, "{name} must repeat exactly at the same seed");
    }
    assert!(
        a.values.get("persist.compactions_delta").unwrap_or(0.0) >= 1.0,
        "the small churn run compacts"
    );
}

/// A parsed JSON value: enough of JSON for `BENCHMARK.json` and the
/// result line.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number inside a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements of an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}
