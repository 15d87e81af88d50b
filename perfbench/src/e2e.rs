//! The end-to-end run (`--trace 0`): set-up, parity gate, open-loop,
//! closed-loop and write phases over loopback TCP on a rotation of
//! serving instances, then shutdown, cold reopen and the durability
//! probe.

use crate::checks::{self, Acks};
use crate::client::{self, Answer, Conns};
use crate::host::{self, CpuTimes};
use crate::metrics::{median, quantile, Kind, Outcome, Values};
use crate::spec::{Spec, Stream, SETUP_REPEATS, WINDOW};
use smartstore_net::{NetServer, NetServerConfig, NetServerHandle};
use smartstore_service::codec::encode_request;
use smartstore_service::{MetadataServer, Request, Response};
use std::path::{Path, PathBuf};

/// Inputs of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for the stores; removed by the caller.
    pub work_dir: PathBuf,
    /// Repository root, for the git revision diagnostic.
    pub root: PathBuf,
}

/// Read latencies are cut into consecutive chunks of this many samples;
/// `read_p99_ms` is the median of the chunks' p99s, each with ten
/// samples beyond it.
pub const P99_CHUNK: usize = 1_000;

/// Median over consecutive `chunk`-sample chunks of each chunk's p99
/// (a trailing partial chunk is dropped unless it is the only one).
pub fn chunked_p99(samples: &[f64], chunk: usize) -> (f64, usize) {
    let chunks: Vec<&[f64]> = samples.chunks(chunk).collect();
    let full: Vec<f64> = chunks
        .iter()
        .filter(|c| c.len() == chunk || chunks.len() == 1)
        .map(|c| quantile(c, 0.99))
        .collect();
    (median(&full), full.len())
}

/// Requests attempted and failed, mutations acknowledged, and how late
/// the open-loop sender ran.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    acks: Acks,
    lateness_ms: Vec<f64>,
}

/// Serving instances of the read store per run, one per slot of
/// rounds: the built server, then cold reopens of its store, each on a
/// freshly trimmed heap (the read-only workloads' write rounds get as
/// many instances of the write store). How fast a server runs depends
/// on where its memory landed, by more than its rounds differ from
/// each other; spreading the rounds over several instances averages
/// that out of the run's figures.
pub const INSTANCES: usize = 10;

fn spawn(server: MetadataServer) -> NetServerHandle {
    NetServer::spawn(server, NetServerConfig::default()).expect("spawn net server")
}

/// Bookkeeping across the serving instances of a run.
#[derive(Default)]
struct Instances {
    /// Instances retired so far.
    served: u64,
    /// Connections the retired instances accepted.
    accepted: u64,
    /// Cold reopens, seconds.
    reopen_s: Vec<f64>,
    /// Highest `VmHWM` of any instance while it served, MiB.
    peak_rss_mb: f64,
}

impl Instances {
    /// Shuts the instance behind `handle` down and checks its shards.
    fn retire(&mut self, handle: NetServerHandle, when: &str) -> MetadataServer {
        self.peak_rss_mb = self.peak_rss_mb.max(host::peak_rss_mb());
        let (server, stats) = handle.shutdown().expect("graceful shutdown");
        self.served += 1;
        self.accepted += stats.connections_accepted;
        checks::check_server(&server, when);
        server
    }

    /// Drops `server` and cold-opens its store in `dir`, timed, on a
    /// heap trimmed in between; the peak RSS is reset after the open.
    fn reopen(&mut self, server: MetadataServer, dir: &Path) -> MetadataServer {
        drop(server);
        host::reset_peak_rss();
        let t = crate::now();
        let reopened = MetadataServer::open(dir).expect("cold reopen");
        self.reopen_s.push(crate::secs_since(t));
        host::reset_peak_rss();
        reopened
    }

    /// Retires the instance behind `handle` and serves a cold open of
    /// the store in `dir` in its place.
    fn rotate(&mut self, handle: NetServerHandle, dir: &Path) -> NetServerHandle {
        let server = self.retire(handle, "before a reopen");
        spawn(self.reopen(server, dir))
    }
}

/// Measurement rounds per run.
pub const ROUNDS: usize = 20;

/// CPU steal above which a round does not count.
pub const STEAL_LIMIT: f64 = 0.02;

/// Rounds a metric is taken over at the least, the quietest ones when
/// fewer stay under [`STEAL_LIMIT`].
pub const MIN_QUIET: usize = 3;

/// Median of `figures` over the rounds whose `steal` is at most
/// [`STEAL_LIMIT`], or over the [`MIN_QUIET`] rounds with the least
/// steal when fewer qualify (ties broken by round order).
pub fn quiet_median(figures: &[f64], steal: &[f64]) -> f64 {
    assert_eq!(figures.len(), steal.len(), "one steal reading per round");
    let mut order: Vec<usize> = (0..figures.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let quiet = steal.iter().filter(|&&x| x <= STEAL_LIMIT).count();
    let keep = quiet.max(MIN_QUIET);
    let picked: Vec<f64> = order.iter().take(keep).map(|&i| figures[i]).collect();
    median(&picked)
}

fn fmt_list(v: &[f64], digits: usize) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
    items.join(" ")
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs one end-to-end measurement of `spec`.
pub fn run(spec: &Spec, opts: &RunOpts) -> Outcome {
    let cpu0 = CpuTimes::read();
    let conns = Conns::default();
    let mut values = Values::default();

    // Set-up: population to a ready (snapshotted) server, timed
    // SETUP_REPEATS times. The first build is served; each later one
    // is dropped before the next starts.
    let mut setup_s = Vec::new();
    let mut served = None;
    for k in 0..SETUP_REPEATS {
        let dir = opts.work_dir.join(format!("store-{k}"));
        remove_dir(&dir);
        let t = crate::now();
        let pop = spec.population(opts.seed);
        let server =
            MetadataServer::build(pop.files, &spec.server_config(&dir)).expect("server builds");
        setup_s.push(crate::secs_since(t));
        if served.is_none() {
            served = Some((server, dir));
        } else {
            drop(server);
            remove_dir(&dir);
        }
    }
    values.set("setup_s", median(&setup_s), setup_s.len() as u64);
    let (served, dir) = served.expect("served server");

    // The inputs, and the parity reference: one more identical build,
    // untimed, dropped once the gate has passed. Its store stays as the
    // write store of the read-only workloads.
    let pop = spec.population(opts.seed);
    let stream = Stream::generate(spec, &pop, opts.seed, opts.seconds);
    let write_dir = opts.work_dir.join("reference");
    remove_dir(&write_dir);
    let mut reference = MetadataServer::build(pop.files, &spec.server_config(&write_dir))
        .expect("reference server builds");

    let mut handle = spawn(served);
    let mut addr = handle.tcp_addr().expect("tcp listener");
    let mut tally = Tally::default();
    let mut instances = Instances::default();

    // Correctness gate before any timing.
    let mut parity = stream.parity.clone();
    parity.push(Request::Stats);
    let answers = checks::parity_gate(&conns, addr, &mut reference, &parity);
    for (req, resp) in parity.iter().zip(&answers) {
        tally.attempted += 1;
        match resp {
            Response::Error(_) | Response::Unavailable(_) | Response::Overloaded(_) => {
                tally.failed += 1
            }
            _ => tally.acks.ack(req),
        }
    }
    drop(reference);
    if stream.writes.is_empty() {
        remove_dir(&write_dir);
    }
    // From here on only the served server and the inputs are live:
    // peak_rss_mb is the high-water mark of the serving phases.
    host::reset_peak_rss();

    let phases = spec.phases(opts.seconds);
    let split = spec.mix.mutation > 0;

    // Measurement rounds: each is a slice of the open-loop segment at
    // the fixed offered rate, then a closed-loop slice. The host's CPU
    // steal is read around every round; a metric is the median of its
    // figures over the rounds with little steal (`quiet_median`), so
    // time the hypervisor gave to other guests is not charged to the
    // program.
    let rounds = ROUNDS.min(stream.open.len());
    let mut round_p50 = Vec::new();
    let mut round_p90 = Vec::new();
    let mut round_cap = Vec::new();
    let mut round_cpu = Vec::new();
    let mut round_steal = Vec::new();
    let mut round_write_p50 = Vec::new();
    let mut write_steal = Vec::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut closed_next = 0;
    let mut closed_completed = 0;
    let mut closed_elapsed = 0.0;
    let open_phase =
        |addr, reqs: &[Request], offsets: &[u64], r: usize, split: bool, tally: &mut Tally| {
            let (lo, hi) = (reqs.len() * r / rounds, reqs.len() * (r + 1) / rounds);
            let slice = &reqs[lo..hi];
            let rebased: Vec<u64> = offsets[lo..hi].iter().map(|o| o - offsets[lo]).collect();
            let out =
                client::open_loop(&conns, addr, slice, &rebased, split).expect("open-loop phase");
            tally.attempted += slice.len() as u64;
            tally.failed += out.failed();
            for (req, a) in slice.iter().zip(&out.answers) {
                if matches!(a, Some((Answer::Ok, _))) {
                    tally.acks.ack(req);
                }
            }
            let lateness = out.lateness_ns.iter().map(|&ns| ns as f64 / 1e6);
            tally.lateness_ms.extend(lateness);
            let reads = out.latencies_ms(|i| slice[i].is_read());
            let writes = out.latencies_ms(|i| !slice[i].is_read());
            (reads, writes)
        };
    let closed_wires: Vec<Vec<u8>> = stream.closed.iter().map(encode_request).collect();
    let slots = INSTANCES.min(rounds);
    for slot in 0..slots {
        let slot_rounds = rounds * slot / slots..rounds * (slot + 1) / slots;
        if slot > 0 {
            handle = instances.rotate(handle, &dir);
            addr = handle.tcp_addr().expect("tcp listener");
        }
        for r in slot_rounds.clone() {
            let steal_before = CpuTimes::read();
            let (r_reads, r_writes) = open_phase(
                addr,
                &stream.open,
                &stream.open_offsets_ns,
                r,
                split,
                &mut tally,
            );
            round_p50.push(median(&r_reads));
            round_p90.push(quantile(&r_reads, 0.90));
            reads.extend(r_reads);
            if !r_writes.is_empty() {
                round_write_p50.push(median(&r_writes));
                writes.extend(r_writes);
            }

            // Closed loop: capacity with a fixed in-flight window, and
            // the process CPU it costs.
            let cpu_before = host::process_cpu_s();
            let closed = client::closed_loop(
                &conns,
                addr,
                &closed_wires,
                closed_next,
                WINDOW,
                phases.closed_s / rounds as f64,
            )
            .expect("closed-loop phase");
            let cpu_s = host::process_cpu_s() - cpu_before;
            tally.attempted += closed.completed;
            tally.failed += closed.failed;
            closed_next = closed.next;
            closed_completed += closed.completed;
            closed_elapsed += closed.elapsed_s;
            round_cap.push(closed.completed as f64 / closed.elapsed_s);
            round_cpu.push(1e6 * cpu_s / closed.completed as f64);
            round_steal.push(CpuTimes::read().steal_since(&steal_before));
        }
        // The read-only workloads' writes go to a store of their own,
        // so no read sees their version chains, and follow each slot's
        // read rounds on a cold open of that store, so they meet the
        // same stretches of the host's speed as the reads do.
        if !stream.writes.is_empty() {
            handle = instances.rotate(handle, &write_dir);
            addr = handle.tcp_addr().expect("tcp listener");
            for r in slot_rounds {
                let steal_before = CpuTimes::read();
                let (_, w) = open_phase(
                    addr,
                    &stream.writes,
                    &stream.write_offsets_ns,
                    r,
                    false,
                    &mut tally,
                );
                round_write_p50.push(median(&w));
                writes.extend(w);
                write_steal.push(CpuTimes::read().steal_since(&steal_before));
            }
        }
    }
    if split {
        write_steal.clone_from(&round_steal);
    }
    // The store the probe and the final reopen check: the one that
    // took the writes.
    let probed_dir = if stream.writes.is_empty() {
        &dir
    } else {
        &write_dir
    };

    let Tally {
        mut attempted,
        failed,
        acks,
        lateness_ms,
    } = tally;

    // Durability probe against the live server, then shutdown.
    let probe_reads = &stream.open[..stream.open.len().min(200)];
    let probe = checks::probe_set(&acks, probe_reads);
    let live = client::exchange(&conns, addr, &probe, checks::BATCH).expect("live probe");
    attempted += probe.len() as u64;
    let server = instances.retire(handle, "after the run");
    assert_eq!(
        instances.accepted as usize,
        conns.total(),
        "every connection the servers accepted was counted"
    );
    let mut reopened = instances.reopen(server, probed_dir);
    let store_bytes = host::dir_bytes(probed_dir);
    checks::check_server(&reopened, "after reopen");
    checks::check_reopened(&mut reopened, &probe, &live, &acks);
    drop(reopened);

    let (read_p99, chunks) = chunked_p99(&reads, P99_CHUNK);
    values.set(
        "capacity_rps",
        quiet_median(&round_cap, &round_steal),
        closed_completed,
    );
    values.set(
        "read_p50_ms",
        quiet_median(&round_p50, &round_steal),
        reads.len() as u64,
    );
    values.set(
        "write_p50_ms",
        quiet_median(&round_write_p50, &write_steal),
        writes.len() as u64,
    );
    values.set(
        "cpu_ms_per_kreq",
        quiet_median(&round_cpu, &round_steal),
        closed_completed,
    );
    values.set("peak_rss_mb", instances.peak_rss_mb, instances.served);

    let steal = CpuTimes::read().steal_since(&cpu0);
    let diagnostics = vec![
        ("workload", spec.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("stream_digest", format!("{:016x}", stream.digest)),
        ("nproc", host::nproc().to_string()),
        ("git_rev", host::git_rev(&opts.root)),
        ("cpu_steal_fraction", format!("{steal:.4}")),
        (
            "generator_lateness_p50_ms",
            format!("{:.4}", median(&lateness_ms)),
        ),
        (
            "generator_lateness_p99_ms",
            format!("{:.4}", quantile(&lateness_ms, 0.99)),
        ),
        (
            "fail_rate",
            format!("{:.6}", failed as f64 / attempted.max(1) as f64),
        ),
        (
            "offered_rate_rps",
            format!(
                "open {:.0}, writes {:.0}",
                spec.open_rate_rps, spec.write_rate_rps
            ),
        ),
        ("closed_window", WINDOW.to_string()),
        ("rounds", rounds.to_string()),
        ("closed_elapsed_s", format!("{closed_elapsed:.3}")),
        ("steal_rounds", fmt_list(&round_steal, 3)),
        ("capacity_rps_rounds", fmt_list(&round_cap, 0)),
        ("cpu_ms_per_kreq_rounds", fmt_list(&round_cpu, 1)),
        ("read_p50_ms_rounds", fmt_list(&round_p50, 4)),
        ("write_p50_ms_rounds", fmt_list(&round_write_p50, 4)),
        (
            "read_p99_ms",
            format!("{read_p99:.4} (median of {chunks} chunks of {P99_CHUNK} reads)"),
        ),
        (
            "write_p99_ms",
            format!("{:.4} (n={})", quantile(&writes, 0.99), writes.len()),
        ),
        (
            "read_p90_ms",
            format!("{:.4} (median of {rounds} rounds)", median(&round_p90)),
        ),
        (
            "reopen_s",
            format!(
                "{:.4} (median of {})",
                median(&instances.reopen_s),
                fmt_list(&instances.reopen_s, 4)
            ),
        ),
        ("connections_peak", conns.peak().to_string()),
        (
            "store_mb",
            format!("{:.3}", store_bytes as f64 / (1024.0 * 1024.0)),
        ),
        ("connections_total", conns.total().to_string()),
        (
            "server_config",
            format!(
                "{} shards x {} units, {} files, wal_compact_bytes {}",
                spec.n_shards,
                spec.units_per_shard,
                spec.n_files,
                spec.server_config(&dir).cfg.persist.wal_compact_bytes
            ),
        ),
        (
            "acked",
            format!(
                "{} live inserts, {} deletes probed after reopen",
                acks.live.len(),
                acks.deleted.len()
            ),
        ),
    ];
    remove_dir(&dir);
    remove_dir(&write_dir);
    Outcome {
        kind: Kind::EndToEnd,
        attempted,
        failed,
        values,
        diagnostics,
    }
}
