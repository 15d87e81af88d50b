//! In-memory spans recorded by the benchmark around its calls into
//! each layer: name, start, end, parent span and request id. Summaries
//! are computed after the replay ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            epoch: crate::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    fn ts(&self) -> u64 {
        crate::nanos_since(self.epoch)
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.ts();
        let out = f(self);
        self.spans[idx].end_ns = self.ts();
        self.stack.pop();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per request, the summed duration (µs) of the spans named
    /// `name`; requests without such a span are absent.
    pub fn per_request_us(&self, name: &str) -> Vec<f64> {
        let mut by: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by.entry(s.request).or_insert(0) += s.dur_ns();
        }
        by.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Self time (ns) of every span: its duration minus the part its
    /// direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
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
}
