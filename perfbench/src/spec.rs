//! Workload definitions and the generated request stream.
//!
//! Everything the program under test receives is a pure function of
//! (workload, seed, seconds): the population, the request stream and
//! the arrival schedules. [`Stream::digest`] fingerprints all of it so
//! two runs can prove they saw the same inputs.

use smartstore::{PersistConfig, SmartStoreConfig};
use smartstore_net::loadgen::{generate_requests, LoadMixConfig};
use smartstore_service::codec::encode_request;
use smartstore_service::{Request, ServerConfig};
use smartstore_trace::{ArrivalConfig, ArrivalSchedule, MetadataPopulation, TraceKind};
use std::path::Path;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only Zipf filename lookups on a large deployment: the Bloom
    /// hierarchy does most of the work.
    PointLookup,
    /// Read-only range and top-k queries: R-tree routing, unit scans,
    /// the top-k merge and large responses do the work.
    SemanticScan,
    /// Reads interleaved with journaled mutations on a separate
    /// connection: the write path, compaction and the server lock.
    DurableChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PointLookup,
        Workload::SemanticScan,
        Workload::DurableChurn,
    ];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::SemanticScan => "semantic_scan",
            Workload::DurableChurn => "durable_churn",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn tag(self) -> u64 {
        match self {
            Workload::PointLookup => 0x701e_7a11,
            Workload::SemanticScan => 0x5ca2_5ca2,
            Workload::DurableChurn => 0xc4e2_d00b,
        }
    }
}

/// Relative request weights of a stream (see [`LoadMixConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub point: u32,
    pub range: u32,
    pub topk: u32,
    pub mutation: u32,
    /// Share of point lookups that name no file.
    pub miss_fraction: f64,
    /// `k` of top-k queries.
    pub k: usize,
}

/// Everything that defines one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub n_files: usize,
    pub n_shards: usize,
    pub units_per_shard: usize,
    pub mix: Mix,
    /// Offered rate of the open-loop phase, requests per second.
    pub open_rate_rps: f64,
    /// Offered rate of the open-loop write phase that follows the
    /// read phases of a read-only workload; 0 when the main stream
    /// carries the writes itself.
    pub write_rate_rps: f64,
    /// `PersistConfig::wal_compact_bytes` override (`None`: default).
    pub wal_compact_bytes: Option<u64>,
}

/// In-flight window of the closed-loop capacity phase.
pub const WINDOW: usize = 4;

/// Requests in the socket-vs-in-process parity prefix.
pub const PARITY_REQUESTS: usize = 400;

/// Set-ups timed per run (the median is reported).
pub const SETUP_REPEATS: usize = 5;

/// Reads in the closed-loop segment, which the capacity phase sends
/// round and round.
const CLOSED_REQUESTS: usize = 8_192;

impl Spec {
    /// The full-size definition of `w`.
    pub fn of(w: Workload) -> Self {
        match w {
            Workload::PointLookup => Spec {
                workload: w,
                n_files: 200_000,
                n_shards: 2,
                units_per_shard: 1_000,
                mix: Mix {
                    point: 100,
                    range: 0,
                    topk: 0,
                    mutation: 0,
                    miss_fraction: 0.10,
                    k: 8,
                },
                open_rate_rps: 500.0,
                write_rate_rps: 400.0,
                wal_compact_bytes: None,
            },
            Workload::SemanticScan => Spec {
                workload: w,
                n_files: 50_000,
                n_shards: 2,
                units_per_shard: 250,
                mix: Mix {
                    point: 10,
                    range: 45,
                    topk: 45,
                    mutation: 0,
                    miss_fraction: 0.10,
                    k: 8,
                },
                open_rate_rps: 400.0,
                write_rate_rps: 400.0,
                wal_compact_bytes: None,
            },
            Workload::DurableChurn => Spec {
                workload: w,
                n_files: 50_000,
                n_shards: 2,
                units_per_shard: 250,
                mix: Mix {
                    point: 35,
                    range: 15,
                    topk: 20,
                    mutation: 30,
                    miss_fraction: 0.10,
                    k: 8,
                },
                open_rate_rps: 600.0,
                write_rate_rps: 0.0,
                wal_compact_bytes: Some(12 * 1024),
            },
        }
    }

    /// A scaled-down copy for self-tests.
    pub fn small(w: Workload) -> Self {
        Spec {
            n_files: 3_000,
            units_per_shard: 20,
            wal_compact_bytes: Spec::of(w).wal_compact_bytes.map(|_| 2 * 1024),
            ..Spec::of(w)
        }
    }

    /// The deployment shape; every workload persists under `dir`.
    pub fn server_config(&self, dir: &Path) -> ServerConfig {
        let default = PersistConfig::default();
        ServerConfig {
            n_shards: self.n_shards,
            units_per_shard: self.units_per_shard,
            cfg: SmartStoreConfig {
                persist: PersistConfig {
                    wal_compact_bytes: self.wal_compact_bytes.unwrap_or(default.wal_compact_bytes),
                    ..default
                },
                ..SmartStoreConfig::default()
            },
            store_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        }
    }

    /// How `seconds` of measurement split into phases.
    pub fn phases(&self, seconds: f64) -> Phases {
        if self.write_rate_rps > 0.0 {
            Phases {
                open_s: seconds * 0.50,
                closed_s: seconds * 0.25,
                write_s: seconds * 0.25,
            }
        } else {
            Phases {
                open_s: seconds * 0.70,
                closed_s: seconds * 0.30,
                write_s: 0.0,
            }
        }
    }

    /// The population seed of a run.
    pub fn population_seed(&self, seed: u64) -> u64 {
        mix64(seed ^ self.workload.tag())
    }

    /// Generates the population of a run.
    pub fn population(&self, seed: u64) -> MetadataPopulation {
        smartstore_bench::fixture::population(
            TraceKind::Msn,
            self.n_files,
            self.population_seed(seed),
        )
    }
}

/// Measurement time per phase, seconds.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub open_s: f64,
    pub closed_s: f64,
    pub write_s: f64,
}

/// The generated inputs of one run, in the order they are sent.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Parity prefix: sent over the socket and in-process, bytes compared.
    pub parity: Vec<Request>,
    /// Open-loop segment and its arrival offsets (ns from the epoch).
    pub open: Vec<Request>,
    pub open_offsets_ns: Vec<u64>,
    /// Closed-loop segment of reads (sent round and round as fast as
    /// the window allows).
    pub closed: Vec<Request>,
    /// Open-loop write segment of read-only workloads, with offsets.
    pub writes: Vec<Request>,
    pub write_offsets_ns: Vec<u64>,
    /// FNV-1a fingerprint of every request byte and arrival offset.
    pub digest: u64,
}

impl Stream {
    /// The stream of (`spec`, `seed`, `seconds`) over `pop`.
    pub fn generate(spec: &Spec, pop: &MetadataPopulation, seed: u64, seconds: f64) -> Self {
        let phases = spec.phases(seconds);
        let base = mix64(seed ^ spec.workload.tag().rotate_left(17));
        let n_open = ((spec.open_rate_rps * phases.open_s).round() as usize).max(1);
        let m = spec.mix;
        let main = generate_requests(
            pop,
            &LoadMixConfig {
                n_requests: PARITY_REQUESTS + n_open,
                point_weight: m.point,
                range_weight: m.range,
                topk_weight: m.topk,
                mutation_weight: m.mutation,
                k: m.k,
                point_miss_fraction: m.miss_fraction,
                seed: base,
                ..LoadMixConfig::default()
            },
        );
        let mut rest = main.into_iter();
        let parity: Vec<Request> = rest.by_ref().take(PARITY_REQUESTS).collect();
        let open: Vec<Request> = rest.collect();
        // The closed segment holds reads only: every write is sent in
        // generation order on the open-loop schedule, so the state the
        // reads see is a function of the seed, not of how fast the
        // server answered.
        let closed = generate_requests(
            pop,
            &LoadMixConfig {
                n_requests: CLOSED_REQUESTS,
                point_weight: m.point,
                range_weight: m.range,
                topk_weight: m.topk,
                mutation_weight: 0,
                k: m.k,
                point_miss_fraction: m.miss_fraction,
                seed: mix64(base ^ 4),
                ..LoadMixConfig::default()
            },
        );
        let open_offsets_ns = poisson_offsets(spec.open_rate_rps, open.len(), mix64(base ^ 1));

        let (writes, write_offsets_ns) = if spec.write_rate_rps > 0.0 {
            let n = ((spec.write_rate_rps * phases.write_s).round() as usize).max(1);
            let writes = generate_requests(
                pop,
                &LoadMixConfig {
                    n_requests: n,
                    point_weight: 0,
                    range_weight: 0,
                    topk_weight: 0,
                    mutation_weight: 1,
                    seed: mix64(base ^ 2),
                    ..LoadMixConfig::default()
                },
            );
            let offsets = poisson_offsets(spec.write_rate_rps, n, mix64(base ^ 3));
            (writes, offsets)
        } else {
            (Vec::new(), Vec::new())
        };

        let mut h = Fnv::new();
        for seg in [&parity, &open, &closed, &writes] {
            h.u64(seg.len() as u64);
            for r in seg {
                h.bytes(&encode_request(r));
            }
        }
        for offs in [&open_offsets_ns, &write_offsets_ns] {
            for &o in offs {
                h.u64(o);
            }
        }
        Stream {
            parity,
            open,
            open_offsets_ns,
            closed,
            writes,
            write_offsets_ns,
            digest: h.finish(),
        }
    }
}

/// Plain Poisson arrivals (no bursts): a fixed offered rate.
fn poisson_offsets(rate_rps: f64, n: usize, seed: u64) -> Vec<u64> {
    ArrivalSchedule::generate(&ArrivalConfig {
        rate_rps,
        n_arrivals: n,
        burstiness: 0.0,
        seed,
        ..ArrivalConfig::default()
    })
    .offsets_ns
}

/// splitmix64 finalizer: decorrelates derived seeds.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
