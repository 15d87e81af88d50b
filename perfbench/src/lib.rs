//! End-to-end and per-layer benchmark of the socket-served SmartStore
//! metadata service.
//!
//! One command, three workloads. For each workload the benchmark builds
//! a sharded [`smartstore_service::MetadataServer`] from a generated
//! MSN-model population, serves it through a
//! [`smartstore_net::NetServer`] on loopback TCP in the same process,
//! checks answers, and then measures it:
//!
//! * `--trace 0` ([`e2e`]) drives the socket: an open-loop phase at the
//!   workload's fixed offered rate (latency from the *scheduled* send),
//!   a closed-loop capacity phase, and — for the read-only workloads —
//!   a short open-loop write phase, spread over several serving
//!   instances (the built server, then cold reopens of its store); then
//!   shutdown, cold reopen and the durability probe.
//! * `--trace 1` ([`traced`]) replays the same generated stream
//!   in-process with spans recorded around the calls this crate makes
//!   into each layer's public functions ([`spans`]) and counters at the
//!   same boundaries.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check panics before anything is printed, so a wrong
//! answer can never be reported as a number.

pub mod checks;
pub mod client;
pub mod e2e;
pub mod host;
pub mod metrics;
pub mod spans;
pub mod spec;
pub mod traced;
pub mod vfs;

use std::time::Instant;

/// The one wall-clock read of the benchmark.
pub fn now() -> Instant {
    // lint:allow(D003) -- benchmark timing; no answer depends on the clock
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().saturating_duration_since(t).as_secs_f64()
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    now().saturating_duration_since(t).as_nanos() as u64
}
